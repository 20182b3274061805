# The checks' own tests need scipy, which conecert does not depend on, so
# a plain `pytest` at the repository root leaves them out.  Run them with
# `python3 -m pytest bench/test_checks.py`.
collect_ignore = ["test_checks.py"]
