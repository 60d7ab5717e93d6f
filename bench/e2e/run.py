#!/usr/bin/env python3
"""Build the end-to-end benchmark and run one workload.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the repository root (or anywhere: paths resolve from this file).
The first call configures and builds the harness with CMake (Release)
under $CARGO_TARGET_DIR/e2e, default .bench_build/e2e; later calls rebuild
incrementally. Build output goes to stderr. The harness's standard output
is passed through, so its last line is the JSON result. Generated replay
traces and the Chrome trace of a --trace 1 run stay in the build directory.

Exit status is the harness's: 0 every correctness gate held, 1 a gate
failed, 2 bad usage or an incomplete checkout.
"""

import argparse
import fcntl
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD_TYPE = "Release"


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def run_to_stderr(cmd):
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail(f"build step failed: {' '.join(cmd)}")


def build(build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            run_to_stderr(["cmake", "-S", str(HERE), "-B", str(build_dir),
                           f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
        jobs = max(1, min(4, os.cpu_count() or 1))
        run_to_stderr(["cmake", "--build", str(build_dir), "--target", "e2e",
                       "-j", str(jobs)])
    return build_dir / "e2e"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not re.fullmatch(r"[a-z0-9-]+", args.workload):
        fail(f"bad workload name {args.workload!r}")
    for need in ("src/CMakeLists.txt", "tests/litmus"):
        if not (ROOT / need).exists():
            fail(f"{need} not found: run from a full checkout")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "e2e"
    exe = build(build_dir)
    work = build_dir / "work"
    work.mkdir(exist_ok=True)
    cmd = [str(exe), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds:g}", f"--workdir={work}"]
    if args.trace:
        (build_dir / "trace").mkdir(exist_ok=True)
        cmd.append(f"--trace={build_dir / 'trace' / (args.workload + '.json')}")
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
