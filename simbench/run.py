#!/usr/bin/env python3
"""The simulator's benchmark: build the harness, run one workload, print metrics.

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 simbench/run.py --self-test

Run from the repository root.  The harness (simbench/harness/) is built
from source into .bench_build/ on first use; build output goes to stderr.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 1 also writes a Perfetto trace to
.bench_out/<workload>-seed<N>.json.  --self-test runs every workload of
BENCHMARK.json on a short horizon and checks the metric names, units and
values it prints.  See simbench/README.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
HARNESS = BUILD / "fsc_simbench"
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configure once, then (re)build the harness; output to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "fsc_simbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("simbench: build failed: " + " ".join(cmd))


def run_harness(workload, seed, seconds, trace, extra=()):
    """Run the harness once; return (stdout lines, parsed result)."""
    cmd = [str(HARNESS), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    if trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(OUT / f"{workload}-seed{seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"simbench: harness exited {proc.returncode} on {workload}")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        sys.exit(f"simbench: malformed result line: {lines[-1]}")
    return lines, result


def self_test():
    """Every workload, both modes, short horizon: names, units, finiteness."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            _, res = run_harness(w["name"], 1, 1, trace,
                                 ("--horizon-scale", "0.2"))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            where = f"{w['name']} --trace {trace}"
            if got != want[trace]:
                problems.append(f"{where}: metrics {got} != {want[trace]}")
            for name, m in res["metrics"].items():
                if not (isinstance(m["value"], (int, float))
                        and math.isfinite(m["value"])):
                    problems.append(f"{where}: {name} = {m['value']!r}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{where}: correct={res['correct']} "
                                f"attempted={res['attempted']} "
                                f"failed={res['failed']}")
            print(f"{where}: {len(got)} metrics, attempted "
                  f"{res['attempted']}, failed {res['failed']}")
    for p in problems:
        print("FAIL " + p)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    build()
    if args.self_test:
        return self_test()
    lines, _ = run_harness(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
