"""Span tracing for the per-layer run.

Wraps the public functions of ``conecert`` named in ``TARGETS`` in every
``conecert`` module that binds them, and counts ``numpy.linalg.lstsq`` and
``numpy.linalg.svd`` calls under the innermost open span.  Span times are
CPU times of the worker thread, like the end-to-end figures.  Spans stay
in memory until ``write``.  Nothing here is installed in the untraced run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

TARGETS = {
    "linalg": ("nnls", "caratheodory_reduce", "svd_factors", "as_vector", "generator_matrix"),
    "cones": ("verify_characterization", "project_dual", "project_generated", "positive_relative_test"),
    "farkas": ("farkas_alternative", "verify_outcome", "generalized_farkas"),
    "quadrature": ("positive_quadrature", "verify_exactness"),
    "shape": ("project_shape",),
    "cli": ("run", "dumps_report"),
}

# per-layer metric name -> (span name, field); fields are per operation
METRICS = {
    "linalg.nnls.calls": ("linalg.nnls", "calls"),
    "linalg.nnls.self_ms": ("linalg.nnls", "self_ms"),
    "linalg.nnls.lstsq_solves": ("linalg.nnls", "lstsq"),
    "cones.verify_characterization.self_ms": ("cones.verify_characterization", "self_ms"),
    "cones.project_dual.self_ms": ("cones.project_dual", "self_ms"),
    "cones.project_generated.self_ms": ("cones.project_generated", "self_ms"),
    "farkas.farkas_alternative.self_ms": ("farkas.farkas_alternative", "self_ms"),
    "farkas.verify_outcome.self_ms": ("farkas.verify_outcome", "self_ms"),
    "linalg.caratheodory_reduce.self_ms": ("linalg.caratheodory_reduce", "self_ms"),
    "linalg.caratheodory_reduce.svds": ("linalg.caratheodory_reduce", "svd"),
    "linalg.caratheodory_reduce.dropped": ("linalg.caratheodory_reduce", "dropped"),
    "linalg.svd_factors.self_ms": ("linalg.svd_factors", "self_ms"),
    "legendre.LegendreBasis.values.calls": ("legendre.LegendreBasis.values", "calls"),
    "legendre.LegendreBasis.values.self_ms": ("legendre.LegendreBasis.values", "self_ms"),
    "shape.project_shape.self_ms": ("shape.project_shape", "self_ms"),
    "quadrature.positive_quadrature.self_ms": ("quadrature.positive_quadrature", "self_ms"),
    "quadrature.verify_exactness.self_ms": ("quadrature.verify_exactness", "self_ms"),
    "linalg.as_vector.calls": ("linalg.as_vector", "calls"),
    "linalg.generator_matrix.self_ms": ("linalg.generator_matrix", "self_ms"),
    "cones.positive_relative_test.self_ms": ("cones.positive_relative_test", "self_ms"),
    "cli.run.self_ms": ("cli.run", "self_ms"),
    "cli.dumps_report.self_ms": ("cli.dumps_report", "self_ms"),
    "farkas.generalized_farkas.self_ms": ("farkas.generalized_farkas", "self_ms"),
}

NO_SPAN = "(outside spans)"


class Tracer:
    """Spans of one worker: ``(name, op, parent, start_ns, end_ns)``."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []  # (span index, name) of the open spans
        self.counts: dict = defaultdict(int)  # (span name, counter) -> count
        self.op = -1
        self.first = 0
        self.pass_counts: list = []
        self._patched: list = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer.stack[-1][0] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append((index, name))
            start = time.thread_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.thread_time_ns()
                tracer.stack.pop()
                tracer.spans[index] = (name, tracer.op, parent, start, end)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def _counting(self, counter: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            owner = tracer.stack[-1][1] if tracer.stack else NO_SPAN
            tracer.counts[(owner, counter)] += 1
            return fn(*args, **kwargs)

        return counted

    def _dropped(self, args, kwargs, result):
        vectors = args[0] if args else kwargs["vectors"]
        self.counts[("linalg.caratheodory_reduce", "dropped")] += len(vectors) - int(result.indices.size)

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        import conecert.legendre

        modules = [m for n, m in sys.modules.items() if n == "conecert" or n.startswith("conecert.")]
        for module_name, names in TARGETS.items():
            home = sys.modules[f"conecert.{module_name}"]
            for fname in names:
                original = getattr(home, fname)
                hook = self._dropped if fname == "caratheodory_reduce" else None
                wrapped = self._wrap(f"{module_name}.{fname}", original, hook)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        self._patch(module, fname, wrapped)
        basis = conecert.legendre.LegendreBasis
        self._patch(basis, "values", self._wrap("legendre.LegendreBasis.values", basis.values))
        self._patch(np.linalg, "lstsq", self._counting("lstsq", np.linalg.lstsq))
        self._patch(np.linalg, "svd", self._counting("svd", np.linalg.svd))

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- results -----------------------------------------------------------

    def begin_pass(self) -> None:
        self.first = len(self.spans)
        self.counts = defaultdict(int)

    def end_pass(self) -> dict:
        """Per span name: calls, self time (ns) and counters of this pass."""
        spans = self.spans[self.first:]
        child = [0] * len(spans)
        for name, op, parent, start, end in spans:
            if parent >= self.first:
                child[parent - self.first] += end - start
        layers: dict = defaultdict(lambda: defaultdict(float))
        for i, (name, op, parent, start, end) in enumerate(spans):
            layers[name]["calls"] += 1
            layers[name]["self_ns"] += end - start - child[i]
        for (owner, counter), value in self.counts.items():
            layers[owner][counter] += value
        self.pass_counts.append(dict(self.counts))
        return {name: dict(fields) for name, fields in layers.items()}

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "op", "parent", "start_ns", "end_ns"],
                    "names": names,
                    "spans": [[index[n], op, parent, start, end] for n, op, parent, start, end in self.spans],
                    "counts_per_pass": [[[n, c, v] for (n, c), v in sorted(pc.items())] for pc in self.pass_counts],
                },
                fh,
                separators=(",", ":"),
            )


def per_layer(passes: list, ops: int) -> dict:
    """The named metrics, per operation, from ``(layers, time scale)`` per traced pass."""
    totals: dict = defaultdict(float)
    for layers, scale in passes:
        for name, fields in layers.items():
            for field, value in fields.items():
                totals[(name, field)] += value * scale if field == "self_ns" else value
    out = {}
    for metric, (name, field) in METRICS.items():
        value = totals[(name, "self_ns")] / 1e6 if field == "self_ms" else totals[(name, field)]
        out[metric] = value / ops
    return out
