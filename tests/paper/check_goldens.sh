#!/bin/sh
# Diff the paper-table printers' output against the goldens in
# tests/paper/expected/, one NAME.txt per printer:
#
#   fig1_sc_violations   Figure 1: SC violations by configuration;
#   fig2_drf0_check      Figure 2: the DRF0 example and counter-example;
#   fig3_stall_analysis  Figure 3: Definition 1 vs 2 stall analysis;
#   sec6_spin            Section 6: read-only syncs as reads;
#   ablation_reserve     Section 5.3: reserve-bit clearing and miss bound;
#   capacity_sweep       the Section 5 mechanisms under eviction pressure;
#   contract_check       the Definition 2 contract on random DRF0 code;
#   policy_throughput    execution time by policy, sync rate and latency.
#
# Every table is deterministic. The campaign-driven ones must also be
# identical at any thread count, so each printer runs at the default
# thread count and again at --threads=1. A change meant to move a table
# rewrites the goldens with --update. A printer whose self-check fails
# exits 1, which stops this script. Finally a misspelt flag (--thread)
# and a removed one (--seed) must be refused with exit 2, not ignored.
#
#   tests/paper/check_goldens.sh BENCH_DIR            # diff, exit 1 on change
#   tests/paper/check_goldens.sh BENCH_DIR --update   # rewrite the goldens
set -eu

dir=$1
update=${2:-}
here=$(cd "$(dirname "$0")" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0

for name in fig1_sc_violations fig2_drf0_check fig3_stall_analysis \
    sec6_spin ablation_reserve capacity_sweep contract_check \
    policy_throughput; do
    "$dir/$name" > "$tmp/$name.txt"
    if [ "$update" = --update ]; then
        cp "$tmp/$name.txt" "$here/expected/$name.txt"
        continue
    fi
    if ! diff -u "$here/expected/$name.txt" "$tmp/$name.txt"; then
        echo "check_goldens: $name differs from its golden" >&2
        status=1
    fi
    "$dir/$name" --threads=1 > "$tmp/$name.t1.txt"
    if ! diff -u "$here/expected/$name.txt" "$tmp/$name.t1.txt"; then
        echo "check_goldens: $name --threads=1 differs from its golden" >&2
        status=1
    fi
done

refuse() {
    rc=0
    "$dir/$1" "$2" > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "check_goldens: $1 $2 exited $rc, not 2" >&2
        status=1
    fi
}
refuse fig3_stall_analysis --thread=4
refuse contract_check --seed=7
exit $status
