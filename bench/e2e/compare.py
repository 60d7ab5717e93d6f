#!/usr/bin/env python3
"""Compare two directories of e2e results: a parent commit and a change.

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR

Both directories hold <workload>/s<seed>.json result lines as collect.py
writes them (runs of the same seed form a pair), and optionally
traced/<workload>/s<seed>.json. One row per (workload, end-to-end metric),
judged with the bound BENCHMARK.json fixes for the metric:

  regression   the change's median is worse than the parent's by more
               than the bound
  unresolved   the parent's spread (q3 - q1, as a share of its median)
               exceeds the bound, and not every change run beats every
               parent run
  gain         at least 10 pairs, the change wins at least 9 in 10 of
               them (ties count for neither side), and the medians differ
               by more than the parent's q3 - q1
  no change    otherwise

Traced runs of the same seed must agree exactly on the simulated counts
(sim_ticks and the cpu/coherence/mem counters); any difference prints
"model changed". Exit status 1 on any regression or model change.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json").read_text())
DETERMINISTIC = ["sim_ticks", "cpu.instructions", "cpu.policy_stalls",
                 "coherence.l1_hit_ratio", "coherence.invalidations",
                 "coherence.dir_requests", "mem.msgs", "mem.ticks_per_msg"]


def load(pattern_root, pattern):
    """{workload: {seed-file-stem: metrics}} for files matching pattern."""
    runs = {}
    for f in sorted(pattern_root.glob(pattern)):
        result = json.loads(f.read_text().strip().splitlines()[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.setdefault(f.parent.name, {})[f.stem] = values
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def judge(parent, change, bound, higher):
    better = (lambda x, y: x > y) if higher else (lambda x, y: x < y)
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    worse_by = (mp - mc) / mp if higher else (mc - mp) / mp
    beats_all = all(better(c, p) for p in parent for c in change)
    if worse_by > bound:
        verdict = "regression"
    elif (q3 - q1) / mp > bound and not beats_all:
        verdict = "unresolved"
    elif (len(parent) >= 10 and wins >= 0.9 * len(parent)
          and abs(mc - mp) > q3 - q1 and better(mc, mp)):
        verdict = "gain"
    else:
        verdict = "no change"
    return verdict, wins


def fmt(values):
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    parent_dir, change_dir = Path(sys.argv[1]), Path(sys.argv[2])
    parent = load(parent_dir, "*/s*.json")
    change = load(change_dir, "*/s*.json")

    bad = False
    print(f"{'workload':15} {'metric':13} {'parent median [q1, q3]':40} "
          f"{'change median [q1, q3]':40} {'delta':>7} {'wins':>6} "
          f"{'spread':>7}  verdict")
    for w in (x["name"] for x in SPEC["workloads"]):
        seeds = sorted(set(parent.get(w, {})) & set(change.get(w, {})))
        if not seeds:
            print(f"{w:15} (no paired runs)")
            continue
        for m in SPEC["end_to_end"]:
            a = [parent[w][s][m["name"]] for s in seeds]
            b = [change[w][s][m["name"]] for s in seeds]
            verdict, wins = judge(a, b, m["bound"], m["better"] == "higher")
            ma = statistics.median(a)
            q1, q3 = quartiles(a)
            delta = (statistics.median(b) - ma) / ma
            print(f"{w:15} {m['name']:13} {fmt(a):40} {fmt(b):40} "
                  f"{delta:+7.2%} {wins:>3}/{len(seeds):<2} "
                  f"{(q3 - q1) / ma:7.2%}  {verdict}")
            bad = bad or verdict == "regression"

    parent_t = load(parent_dir, "traced/*/s*.json")
    change_t = load(change_dir, "traced/*/s*.json")
    compared = changed = 0
    for w in sorted(set(parent_t) & set(change_t)):
        for s in sorted(set(parent_t[w]) & set(change_t[w])):
            for name in DETERMINISTIC:
                x, y = parent_t[w][s][name], change_t[w][s][name]
                compared += 1
                if x != y:
                    print(f"model changed: {w} {s} {name} {x} -> {y}")
                    changed += 1
    if compared:
        print(f"simulated counts: {compared} compared, {changed} changed")
    sys.exit(1 if bad or changed else 0)


if __name__ == "__main__":
    main()
