"""The public names, and the names the benchmark's traced run wraps, resolve.

`bench/tracing.py` looks up each name of its ``TARGETS`` with ``getattr``
on its ``conecert`` module, and ``LegendreBasis.values``; a name deleted
from the library makes every traced run fail, so it fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

import conecert
from conecert.legendre import LegendreBasis

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
