#!/usr/bin/env python3
"""Collect e2e results for one or two checkouts, alternating between them.

    python3 bench/e2e/collect.py OUT[=CHECKOUT] [OUT2[=CHECKOUT2]] [--traced]

For each of the seeds 1..10 and each workload in BENCHMARK.json, runs
bench/e2e/run.py for run_seconds in every checkout (default: the one
holding this script), swapping which side goes first on every other
seed, and saves the JSON result line to
OUT/<workload>/s<seed>.json. --traced adds one traced run per workload at
the first seed: OUT/traced/<workload>/s<seed>.json plus the full output in
s<seed>.log. OUT/meta.json records nproc, the CPU, the build type, the
seeds and the run length. Compare two OUT directories with compare.py.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
# Ten pairs: the fewest compare.py's gain rule accepts.
SEEDS = list(range(1, 11))


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "bench/e2e/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"collect.py: {workload} seed {seed} in {checkout} failed "
                 f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return lines[-1] + "\n", proc.stdout


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("sides", nargs="+", metavar="OUT[=CHECKOUT]")
    p.add_argument("--traced", action="store_true")
    args = p.parse_args()

    sides = []
    for s in args.sides:
        out, _, checkout = s.partition("=")
        sides.append((Path(out), Path(checkout or HERE.parent.parent)))
    workloads = [w["name"] for w in SPEC["workloads"]]
    seconds = SPEC["run_seconds"]
    for out, _ in sides:
        out.mkdir(parents=True, exist_ok=True)
        meta = {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
                "build_type": "Release", "seeds": SEEDS,
                "seconds": seconds, "workloads": workloads}
        (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")

    for i, seed in enumerate(SEEDS):
        order = sides if i % 2 == 0 else sides[::-1]
        for w in workloads:
            for out, checkout in order:
                line, _ = run(checkout, w, seed, seconds, 0)
                (out / w).mkdir(exist_ok=True)
                (out / w / f"s{seed}.json").write_text(line)
                print(f"{out}/{w}/s{seed}: {line.strip()}", flush=True)
    if args.traced:
        for w in workloads:
            for out, checkout in sides:
                line, full = run(checkout, w, SEEDS[0], seconds, 1)
                d = out / "traced" / w
                d.mkdir(parents=True, exist_ok=True)
                (d / f"s{SEEDS[0]}.json").write_text(line)
                (d / f"s{SEEDS[0]}.log").write_text(full)
                print(f"{d}/s{SEEDS[0]}: traced", flush=True)


if __name__ == "__main__":
    main()
