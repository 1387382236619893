#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

  python3 perfbench/run.py --workload train|generate --seed N \
      --seconds S --trace 0|1
  python3 perfbench/run.py --steady N --workload W [--seconds S] [--seed0 K]
  python3 perfbench/run.py --make-weights

The first form builds perfbench/ (and the repository's src/ libraries)
into .bench_build/, runs one workload at DP_THREADS=2 and relays its
output; the last stdout line is the result JSON. --steady runs one
workload N times with seeds seed0..seed0+N-1 and prints, per end-to-end
metric, the median, the quartiles and the quartile spread as a share of
the median. --make-weights re-trains the fixed TCAE weights.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
THREADS = "2"  # see README.md, "Why two threads"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no repository sources (src/) next to perfbench/")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def run_binary(args):
    env = dict(os.environ, DP_THREADS=THREADS)
    return subprocess.run([BINARY] + args, cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=170)


def run_once(workload, seed, seconds, trace, relay=True):
    """Runs the binary once; returns (result JSON or None, '#' lines)."""
    proc = run_binary(["--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace),
                       "--out", os.path.join(ROOT, ".bench_build", "out"),
                       "--assets", BENCH_DIR])
    lines = proc.stdout.strip().splitlines()
    if relay:
        for line in lines:
            print(line)
    if proc.returncode != 0 or not lines:
        return None, lines
    return json.loads(lines[-1]), lines


def steady(args):
    values = {}
    for i in range(args.steady):
        seed = args.seed0 + i
        result, lines = run_once(args.workload, seed, args.seconds, 0,
                                 relay=False)
        if result is None:
            log(f"perfbench: run with seed {seed} failed")
            return 1
        share = result["failed"] / result["attempted"]
        steal = [l.split()[2] for l in lines if l.startswith("# run.steal_s")]
        figures = " ".join(f"{k}={v['value']:.4g}"
                           for k, v in result["metrics"].items())
        log(f"seed {seed}: correct={result['correct']} "
            f"attempted={result['attempted']} failed share={share:.6f} "
            f"steal_s={steal[0] if steal else '?'} {figures}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"steadiness: workload={args.workload} runs={args.steady} "
          f"seconds={args.seconds} seeds={args.seed0}..{args.seed0 + args.steady - 1}")
    print(f"{'metric':24} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"{name:24} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["train", "generate"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, default=0,
                   help="run the workload N times and print quartile spreads")
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--make-weights", action="store_true")
    args = p.parse_args()
    if not args.make_weights and not args.workload:
        p.error("--workload is required")
    if not build():
        return 2
    if args.make_weights:
        proc = subprocess.run([BINARY, "make-weights", "--assets", BENCH_DIR],
                              cwd=ROOT, env=dict(os.environ, DP_THREADS=THREADS))
        return proc.returncode
    if args.steady:
        return steady(args)
    result, _ = run_once(args.workload, args.seed, args.seconds, args.trace)
    return 0 if result is not None else 1


if __name__ == "__main__":
    sys.exit(main())
