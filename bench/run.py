"""Benchmark command for conecert.

    python3 bench/run.py --workload cone-dense --seed 1 --seconds 30 --trace 0

Runs one workload in fresh single-threaded worker processes and checks
every output independently (see checks.py).  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The lines before it give the same time
metrics unscaled, in CPU time (with the measured reference time) and in
wall-clock time.  See README.md.
"""

import os

# one BLAS/OpenMP thread, set before numpy is imported here or in a worker
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import instances  # noqa: E402
import tracing  # noqa: E402
from reference import NOMINAL_REF_MS  # noqa: E402
from protocol import receive, send  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")

# set-up is measured in this many fresh workers (the main one included)
SETUP_SAMPLES = 5
# enough measured operations that the 90th percentile has ten beyond it
MIN_OPS = 100


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """A fresh worker process speaking the pickle protocol of worker.py."""

    def __init__(self, cfg: dict):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=worker_env(),
            cwd=ROOT,
        )
        send(self.proc.stdin, cfg)

    def receive(self):
        try:
            return receive(self.proc.stdout)
        except EOFError as exc:
            raise BenchError(f"worker exited early (code {self.proc.wait()})") from exc

    def send(self, obj) -> None:
        send(self.proc.stdin, obj)

    def close(self) -> None:
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()
        if self.proc.wait(timeout=60) != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Tally:
    """Attempted, failed and wrong operations over the checked passes."""

    def __init__(self, names: list, data: list, cli_dir):
        self.names, self.data, self.cli_dir = names, data, cli_dir
        self.attempted = self.failed = self.wrong = 0
        self.first_problems: dict = {}

    def check_pass(self, outputs: list) -> None:
        for i, (name, data, out) in enumerate(zip(self.names, self.data, outputs)):
            self.attempted += 1
            if "error" in out:
                self._fail(i, [out["error"]], wrong=False)
                continue
            report = None
            if name == "cli":
                # each report is removed once read, so a pass that writes
                # none is never checked against an older one
                path = os.path.join(self.cli_dir, f"out{i:03d}.json")
                try:
                    with open(path, encoding="utf-8") as fh:
                        report = fh.read()
                except FileNotFoundError:
                    self._fail(i, [f"cli.run returned {out['rc']} and wrote no report"], wrong=out["rc"] == 0)
                    continue
                os.remove(path)
            problems = checks.output(name, data, out, report)
            if problems:
                self._fail(i, problems, wrong=True)
            elif name == "cli" and out["rc"] != 0:
                self._fail(i, [f"cli.run returned {out['rc']}"], wrong=False)

    def _fail(self, i: int, problems: list, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        label = self.data[i].get("label", self.names[i])
        self.first_problems.setdefault(f"op {i} ({label})", problems)


def setup_seconds(msg: dict) -> tuple:
    """Set-up of one worker from its cold pass: (raw wall s, raw CPU s, scaled s)."""
    cpu = msg["import_s"] + sum(msg["times"])
    return msg["import_wall_s"] + sum(msg["wall"]), cpu, cpu * NOMINAL_REF_MS / statistics.fmean(msg["refs"])


def measure_setup(cfg: dict) -> dict:
    """The cold-pass message of a fresh worker that stops after it."""
    w = Worker(dict(cfg, mode="setup"))
    try:
        msg = w.receive()
        w.close()
    finally:
        w.kill()
    return msg


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    ops = instances.make(workload, seed)
    names = [name for name, _ in ops]
    data = [d for _, d in ops]
    cli_dir = os.path.join(OUT_DIR, f"{workload}-seed{seed}-pid{os.getpid()}")
    if workload == "cli-small":
        payloads = instances.write_cli_files(ops, cli_dir)
    else:
        payloads = data
    os.makedirs(OUT_DIR, exist_ok=True)
    cfg = {
        "calls": list(zip(names, payloads)),
        "seconds": seconds,
        "trace": traced,
        "min_ops": MIN_OPS,
        "trace_path": os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json"),
    }
    try:
        tally = Tally(names, data, cli_dir)
        setups = []
        for _ in range(0 if traced else SETUP_SAMPLES - 1):
            setups.append(measure_setup(cfg))
            tally.check_pass(setups[-1]["outputs"])
        w = Worker(dict(cfg, mode="main"))
        try:
            msg = w.receive()
            setups.append(msg)
            passes = []
            while "end" not in msg:
                tally.check_pass(msg["outputs"])
                w.send("checked")
                msg = w.receive()
                passes.append(msg)
            end = passes.pop()
            w.close()
        finally:
            w.kill()
    finally:
        shutil.rmtree(cli_dir, ignore_errors=True)

    # times are CPU times of the worker thread, so time the host gives to
    # other processes does not count; each pass is scaled by the mean of
    # the reference slices run during it
    scales = [NOMINAL_REF_MS / statistics.fmean(p["refs"]) for p in passes]
    refs = [r for p in passes for r in p["refs"]]
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.first_problems,
        "refs": refs,
        "passes": len(passes),
        "ops_per_pass": len(ops),
    }
    plain = [(p, s) for p, s in zip(passes, scales) if not p["traced"]]
    wall_ms = [t * 1e3 for p, _ in plain for t in p["wall"]]
    cpu_ms = [t * 1e3 for p, _ in plain for t in p["times"]]
    scaled_ms = [t * 1e3 * s for p, s in plain for t in p["times"]]
    if traced:
        tr = [(p, s) for p, s in zip(passes, scales) if p["traced"]]
        traced_ms = [t * 1e3 * s for p, s in tr for t in p["times"]]
        n_traced = sum(len(p["times"]) for p, _ in tr)
        result["metrics"] = tracing.per_layer([(p["layers"], s) for p, s in tr], n_traced)
        result["overhead"] = {
            "untraced_ms_per_op": statistics.fmean(scaled_ms),
            "traced_ms_per_op": statistics.fmean(traced_ms),
        }
        result["trace_path"] = cfg["trace_path"]
        return result

    setup_wall, setup_cpu, setup_scaled = zip(*(setup_seconds(m) for m in setups))
    result["metrics"] = dict(time_metrics(scaled_ms, setup_scaled), peak_rss_mb=end["maxrss_kb"] / 1024.0)
    result["cpu"] = dict(
        time_metrics(cpu_ms, setup_cpu),
        import_s=statistics.median(m["import_s"] for m in setups),
        ref_ms=statistics.median(refs),
    )
    result["wall"] = dict(
        time_metrics(wall_ms, setup_wall),
        import_s=statistics.median(m["import_wall_s"] for m in setups),
        measured_ops=len(wall_ms),
    )
    return result


def time_metrics(op_ms: list, setup_s: list) -> dict:
    return {
        "throughput_ops_s": len(op_ms) / (sum(op_ms) / 1e3),
        "latency_p50_ms": percentile(op_ms, 50),
        "latency_p90_ms": percentile(op_ms, 90),
        "setup_s": statistics.median(setup_s),
    }


UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=instances.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "conecert", "__init__.py")):
        print(f"error: no conecert sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 1
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed}: {res['passes']} measured passes of {res['ops_per_pass']} ops, "
          f"{res['attempted']} attempted, {res['failed']} failed")
    for where, problems in res["problems"].items():
        print(f"failed {where}: {'; '.join(problems)}")
    q = statistics.quantiles(res["refs"], n=4)
    print(f"reference slice: nominal {NOMINAL_REF_MS} ms, measured median {q[1]:.4f} ms "
          f"(quartiles {q[0]:.4f}, {q[2]:.4f}; {len(res['refs'])} slices)")
    if args.trace:
        o = res["overhead"]
        extra = o["traced_ms_per_op"] - o["untraced_ms_per_op"]
        print(f"tracing overhead: {extra:+.4f} ms/op ({100 * extra / o['untraced_ms_per_op']:+.1f}%), "
              f"traced {o['traced_ms_per_op']:.4f} against untraced {o['untraced_ms_per_op']:.4f} ms/op")
        print(f"spans written to {os.path.relpath(res['trace_path'], ROOT)}")
        metrics = {name: {"value": v, "unit": "ms/op" if name.endswith("_ms") else "count/op"} for name, v in res["metrics"].items()}
    else:
        print("raw cpu: " + json.dumps(res["cpu"]))
        print("raw wall: " + json.dumps(res["wall"]))
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in res["metrics"].items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
