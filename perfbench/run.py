#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --regenerate   # rewrite reference.txt, print the diff
  python3 perfbench/run.py --selftest     # unit tests of the benchmark's logic

The first call configures and builds the runtime from ../src with CMake into
.bench_build/perfbench (build output goes to stderr); later calls rebuild
incrementally. The last line of standard output of a measuring run is the
result JSON object.
"""
import argparse
import difflib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
REFERENCE = os.path.join(HERE, "reference.txt")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no runtime sources at " + os.path.join(ROOT, "src") + "; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def regenerate(exe):
    fresh = os.path.join(BUILD, "reference.new")
    if subprocess.run([exe, "--regenerate", fresh]).returncode != 0:
        fail("regeneration failed; reference.txt left unchanged")
    old = open(REFERENCE).read().splitlines(True) if os.path.exists(REFERENCE) else []
    new = open(fresh).read().splitlines(True)
    diff = list(difflib.unified_diff(old, new, "reference.txt (old)", "reference.txt (new)"))
    sys.stdout.writelines(diff if diff else ["reference.txt unchanged\n"])
    os.replace(fresh, REFERENCE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed")
    ap.add_argument("--seconds")
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--regenerate", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_test")]).returncode)
    exe = build("perfbench")
    if args.regenerate:
        regenerate(exe)
        return
    if args.workload is None or args.seed is None or args.seconds is None:
        fail("--workload, --seed and --seconds are required")
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", args.seed, "--seconds", args.seconds,
           "--trace", args.trace, "--reference", REFERENCE, "--out-dir", out_dir]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
