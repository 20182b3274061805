"""Benchmark worker: one fresh single-threaded process per run.

Started by ``run.py`` with the BLAS/OpenMP thread counts already set to 1
in its environment.  It first times the import of ``conecert`` and
``conecert.cli``, all of the package that the operations use, as the
start of set-up.  Then it reads its instructions from stdin and runs
whole passes over the operation list.  After each pass it hands the
outputs to the parent for checking and waits for the parent before it
goes on, so checking never overlaps timed work.  A slice of the
reference kernel follows every operation.

Messages (protocol.py) go out on the inherited stdout; anything the
program prints goes to stderr.
"""

import time

_T0 = time.thread_time()
_W0 = time.perf_counter()
import conecert  # noqa: E402,F401  (the imports are part of set-up)
import conecert.cli  # noqa: E402,F401

_IMPORT_S = time.thread_time() - _T0
_IMPORT_WALL_S = time.perf_counter() - _W0

import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import ops  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from protocol import receive, send  # noqa: E402


def run_pass(calls: list, tracer=None, first_op: int = 0) -> dict:
    """Run every operation once, each followed by a reference slice.

    ``times`` is the CPU time of this thread per operation, ``wall`` the
    wall-clock time; both in seconds.
    """
    times, wall, refs, outputs = [], [], [], []
    for i, (name, payload) in enumerate(calls):
        fn = ops.OPS[name]
        if tracer is not None:
            tracer.op = first_op + i
        w = time.perf_counter()
        t = time.thread_time()
        try:
            out = fn(payload)
        except Exception as exc:  # a raising operation counts as failed
            out = {"error": f"{type(exc).__name__}: {exc}"}
        times.append(time.thread_time() - t)
        wall.append(time.perf_counter() - w)
        refs.append(reference.slice_ms())
        outputs.append(out)
    return {"times": times, "wall": wall, "refs": refs, "outputs": outputs}


def main() -> None:
    out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    inp = sys.stdin.buffer
    cfg = receive(inp)
    calls = cfg["calls"]

    send(out, dict(run_pass(calls), import_s=_IMPORT_S, import_wall_s=_IMPORT_WALL_S))  # the cold pass
    if cfg["mode"] == "setup":
        return

    # in the traced run every second pass is traced; the others give the
    # untraced time the tracing overhead is measured against
    tracer = tracing.Tracer() if cfg["trace"] else None
    started = time.perf_counter()
    n_pass = 0
    while True:
        receive(inp)  # the parent has checked the last pass
        enough = time.perf_counter() - started >= cfg["seconds"] and n_pass * len(calls) >= cfg["min_ops"]
        if enough and (tracer is None or n_pass % 2 == 0):
            break
        traced = tracer is not None and n_pass % 2 == 1
        if traced:
            tracer.install()
            tracer.begin_pass()
            msg = run_pass(calls, tracer, n_pass * len(calls))
            tracer.uninstall()
            msg["layers"] = tracer.end_pass()
        else:
            msg = run_pass(calls)
        msg["traced"] = traced
        n_pass += 1
        send(out, msg)

    if tracer is not None:
        tracer.write(cfg["trace_path"])
    send(out, {"end": True, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})


if __name__ == "__main__":
    main()
