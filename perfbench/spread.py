#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

  python3 perfbench/spread.py --workload serve_single --seeds 10 [--first-seed 100]

Runs the benchmark once per seed on one workload and prints, for each
end-to-end metric in BENCHMARK.json, the median of the runs and the distance
between their first and third quartiles as a share of that median, next to a
third of the metric's bound. Pass --trace 1 to look at the per-layer metrics.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit("seed %d: exit %d" % (seed, proc.returncode))
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit("seed %d: incorrect output (%d of %d failed)"
                     % (seed, result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, m["value"]) for k, m in result["metrics"].items()
            if args.trace == "0")), flush=True)

    print("%-24s %14s %8s %8s" % ("metric", "median", "spread", "bound/3"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        third = "%.4f" % (bounds[name] / 3) if name in bounds else "-"
        print("%-24s %14.6g %8.4f %8s" % (name, med, spread, third))


if __name__ == "__main__":
    main()
