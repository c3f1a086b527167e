#!/usr/bin/env python3
"""Is the benchmark steady enough to be accepted?  Run from the repo root.

Does what the benchmark driver does: runs BENCHMARK.json's `command` with
`--workload W --seed N --seconds run_seconds --trace 0` ten times per
workload, each time with another seed, and takes for each end-to-end metric
the distance between the first and third quartile of the ten values
(`statistics.quantiles(values, n=4)`) as a share of their median.  Every
spread except `setup_s`'s must stay within the metric's bound; the goal is a
third of it.  With `--sets 2` the whole thing is done twice (on other seeds)
and the second median may not be worse than the first by more than the bound.

    python3 benchmark/acceptance.py [--runs 10] [--sets 1] [--workloads a,b]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit(f"{workload} seed {seed}: output checks failed: {lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}, time.time() - t0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]

    ok = True
    for workload in names:
        medians = []
        for s in range(args.sets):
            seeds = range(1 + s * args.runs, 1 + (s + 1) * args.runs)
            values = {m: [] for m in bounds}
            wall = []
            for seed in seeds:
                metrics, secs = run(spec["command"], workload, seed, spec["run_seconds"])
                if set(metrics) != set(bounds):
                    sys.exit(f"{workload}: emitted {sorted(metrics)}, contract has {sorted(bounds)}")
                wall.append(secs)
                for m, v in metrics.items():
                    values[m].append(v)
            print(f"{workload}  set {s + 1}  seeds {seeds[0]}..{seeds[-1]}  "
                  f"({statistics.mean(wall):.1f} s per run)")
            medians.append({})
            for m, vs in values.items():
                q1, med, q3 = statistics.quantiles(vs, n=4)
                spread = (q3 - q1) / med
                medians[s][m] = med
                if m == "setup_s":
                    verdict = "(not gated)"
                elif spread > bounds[m]:
                    verdict, ok = "FAIL: spread over bound", False
                elif spread > bounds[m] / 3:
                    verdict = "wide: over a third of the bound"
                else:
                    verdict = "ok"
                same = " ALL EQUAL" if len(set(vs)) == 1 else ""
                print(f"  {m:<22} median {med:>14.6f}  spread {spread:>8.4%}  "
                      f"bound {bounds[m]:>5.0%}  {verdict}{same}")
        if args.sets == 2:
            for m, first in medians[0].items():
                worse = medians[1][m] / first - 1.0  # every metric: lower is better
                verdict = "ok"
                if worse > bounds[m]:
                    verdict, ok = "FAIL: second median worse than bound", False
                print(f"  {m:<22} second/first - 1 = {worse:>+8.4%}  bound {bounds[m]:>5.0%}  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
