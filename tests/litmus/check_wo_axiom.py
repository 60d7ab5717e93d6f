#!/usr/bin/env python3
"""Check wo-axiom's DRF0 facts against wo-litmus's corpus golden.

    python3 tests/litmus/check_wo_axiom.py WO_AXIOM

Runs from the repository root. Two checks:
  - `wo-axiom --json tests/litmus` (whose --drf0=auto runs the same exact
    check as wo-litmus) reports, for every test, the `drf0` verdict that
    tests/litmus/expected/corpus.json records;
  - `--drf0=maybe` is bad usage: exit status 2.

Exit status 0 when both hold, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def json_tail(text):
    """The JSON report both tools print after their text report."""
    start = text.find("\n{\n")
    if start < 0:
        raise ValueError("no JSON report in output")
    return json.loads(text[start + 1:])


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    axiom = sys.argv[1]
    failures = []

    golden = json_tail((ROOT / "tests/litmus/expected/corpus.json").read_text())
    want = {t["file"]: t["drf0"] for t in golden["tests"]}

    run = subprocess.run([axiom, "--json", "tests/litmus"], cwd=ROOT,
                         capture_output=True, text=True)
    if run.returncode != 0:
        failures.append(f"wo-axiom --json exited {run.returncode}: "
                        f"{run.stderr.strip()}")
    else:
        got = {t["file"]: t["drf0"] for t in json_tail(run.stdout)["tests"]}
        if set(got) != set(want):
            failures.append(f"test sets differ: wo-axiom {sorted(got)}, "
                            f"golden {sorted(want)}")
        for f in sorted(set(got) & set(want)):
            if got[f] != want[f]:
                failures.append(f"{f}: wo-axiom drf0={got[f]}, "
                                f"wo-litmus golden drf0={want[f]}")

    bad = subprocess.run([axiom, "--drf0=maybe", "tests/litmus"], cwd=ROOT,
                         capture_output=True, text=True)
    if bad.returncode != 2:
        failures.append(f"--drf0=maybe exited {bad.returncode}, want 2")

    for f in failures:
        print(f"check_wo_axiom: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
