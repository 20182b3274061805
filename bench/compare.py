"""Run two sets of benchmark runs and compare them metric by metric.

    python3 bench/compare.py --workload cone-dense --runs 10 [--seconds N]

Each set makes ``--runs`` runs of ``run.py``, one after the other, with
seeds ``first-seed, first-seed + 1, ...`` (the second set continues the
seeds of the first).  For every end-to-end metric it prints each set's
median and quartiles, the spread (quartile distance over median) and how
far the second median lies from the first, against the bound in
BENCHMARK.json.  The time metrics are shown as reported (scaled), as
unscaled CPU time and as wall-clock time, and the measured reference
slice time is shown beside them.  It also checks that the share of
failed operations is the same in every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETS = 2


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"run failed (seed {seed}): {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["seed"] = seed
    for line in lines:
        for kind in ("cpu", "wall"):
            if line.startswith(f"raw {kind}: "):
                out[kind] = json.loads(line.split(": ", 1)[1])
    return out


def summary(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    sets = []
    seed = args.first_seed
    for s in range(SETS):
        runs = []
        for _ in range(args.runs):
            run = one_run(args.workload, seed, seconds)
            seed += 1
            m = run["metrics"]
            print(f"set {s + 1} seed {run['seed']}: failed {run['failed']}/{run['attempted']}  "
                  + "  ".join(f"{k} {v['value']:.4f}" for k, v in m.items())
                  + f"  ref_ms {run['cpu']['ref_ms']:.4f}", flush=True)
            runs.append(run)
        sets.append(runs)

    shares = {run["failed"] / run["attempted"] for runs in sets for run in runs}
    print(f"\nfailed share: {sorted(shares)} ({'same in every run' if len(shares) == 1 else 'DIFFERS'})")
    print(f"all outputs correct: {all(run['correct'] for runs in sets for run in runs)}")
    print(f"{'metric':<30}" + "".join(f"{'set ' + str(i + 1) + ' median [q1, q3] spread':>44}" for i in range(SETS))
          + "  shift  bound")
    rows = [(name, "scaled", lambda r, n=name: r["metrics"][n]["value"]) for name in bounds]
    for name in bounds:
        rows += [(name, kind, lambda r, n=name, k=kind: r[k][n]) for kind in ("cpu", "wall") if name in sets[0][0][kind]]
    rows.append(("ref_ms", "cpu", lambda r: r["cpu"]["ref_ms"]))
    for name, kind, value in sorted(rows, key=lambda row: list(bounds).index(row[0]) if row[0] in bounds else len(bounds)):
        meds, line = [], f"{name + ' (' + kind + ')':<30}"
        for runs in sets:
            med, q1, q3, spread = summary([value(r) for r in runs])
            meds.append(med)
            line += f"{med:>12.4f} [{q1:.4f}, {q3:.4f}] {100 * spread:5.1f}%".rjust(44)
        shift = (meds[1] - meds[0]) / meds[0]
        if name in bounds and bounds[name]["better"] == "higher":
            shift = -shift
        line += f"  {100 * shift:+5.1f}%"
        if kind == "scaled":
            line += f"  {100 * bounds[name]['bound']:.0f}%"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
