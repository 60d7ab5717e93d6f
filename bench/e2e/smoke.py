#!/usr/bin/env python3
"""Smoke test of the e2e harness (ctest bench_e2e_smoke, label bench).

    python3 bench/e2e/smoke.py <e2e-binary> <work-dir>

Run from the repository root. Every workload in BENCHMARK.json runs with
--smoke (tiny inputs), untraced and traced. Each run must exit 0, print
every metric BENCHMARK.json lists for its mode as `name value unit`, and
end with a JSON result whose gates held (correct, no failed operations).
An unknown workload must exit 2.
"""

import json
import subprocess
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def check_run(exe, workdir, workload, traced, want):
    cmd = [exe, f"--workload={workload}", "--seed=3", "--smoke",
           f"--workdir={workdir}"]
    trace_file = workdir / f"{workload}.trace.json"
    if traced:
        cmd.append(f"--trace={trace_file}")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    label = f"{workload} {'traced' if traced else 'untraced'}"
    errors = []
    if proc.returncode != 0:
        errors.append(f"exit {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return [f"{label}: last line is not JSON"]
    if not result.get("correct") or result.get("failed") != 0:
        errors.append("correctness gates failed")
    if result.get("attempted", 0) < 1:
        errors.append("nothing attempted")
    metrics = result.get("metrics", {})
    if set(metrics) != set(want):
        errors.append(f"metric names differ: {sorted(set(metrics) ^ set(want))}")
    printed = {tuple(l.split()[:3][::2]) for l in lines if len(l.split()) >= 3}
    for name, unit in want.items():
        if (name, unit) not in printed:
            errors.append(f"'{name} <value> {unit}' not printed")
        if metrics.get(name, {}).get("unit") != unit:
            errors.append(f"{name}: unit is not {unit}")
    if traced:
        try:
            json.loads(trace_file.read_text())
        except (OSError, ValueError) as e:
            errors.append(f"Chrome trace unreadable: {e}")
    return [f"{label}: {e}" for e in errors]


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    exe = sys.argv[1]
    workdir = Path(sys.argv[2])
    workdir.mkdir(parents=True, exist_ok=True)
    spec = json.loads(SPEC.read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}

    errors = []
    for w in spec["workloads"]:
        errors += check_run(exe, workdir, w["name"], False, e2e)
        errors += check_run(exe, workdir, w["name"], True, layers)
    rc = subprocess.run([exe, "--workload=nope"], capture_output=True).returncode
    if rc != 2:
        errors.append(f"--workload=nope exited {rc}, want 2")

    for e in errors:
        print("FAIL", e)
    print(f"{len(spec['workloads']) * 2 + 1} checks, {len(errors)} failures")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
