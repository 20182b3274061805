"""The public names, and the names the benchmark calls or wraps, resolve.

`bench/tracing.py` looks up each name of its ``TARGETS`` with ``getattr``
on its ``conecert`` module, and ``LegendreBasis.values``; `bench/ops.py`
reads ``conecert.<name>`` attributes at call time.  A name deleted from
the library makes every benchmark run fail, so it fails here first.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import conecert
import conecert.cli
from conecert.legendre import LegendreBasis

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"
OPS = BENCH / "ops.py"


def _tracing_targets() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_public_name_resolves():
    missing = [name for name in conecert.__all__ if not hasattr(conecert, name)]
    assert missing == []


def test_every_traced_name_resolves():
    targets = _tracing_targets()
    assert targets
    missing = [
        f"conecert.{module_name}.{name}"
        for module_name, names in targets.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"conecert.{module_name}"), name, None))
    ]
    assert missing == []
    assert callable(LegendreBasis.values)


def _conecert_reads(source: str) -> set:
    """Every dotted ``conecert.a.b`` attribute chain in the source, as ``a.b``."""
    paths = set()
    for node in ast.walk(ast.parse(source)):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "conecert":
            paths.add(".".join(reversed(parts)))
    return paths


def _resolves(path: str) -> bool:
    obj = conecert
    for part in path.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_every_benchmark_op_name_resolves():
    paths = _conecert_reads(OPS.read_text(encoding="utf-8"))
    assert {"project_dual", "verify_outcome", "LegendrePoly", "cli.run"} <= paths
    assert [path for path in sorted(paths) if not _resolves(path)] == []
    assert callable(conecert.cli.run)
