#!/bin/sh
# Diff wo-replay's JSON reports on the bundled traces against the goldens
# in tests/replay/expected/, one file per configuration:
#
#   sim on each trace x {net, net-l2-moesi} under def2drf0, at the default
#   window and chunk and at --window=64 --chunk=256;
#   verify on each trace at --window=32 --all-races.
#
# The reports carry the admission counters (accesses,
# trace_events_retired, window_high_water), so a change in what the
# streaming DRF0 drain admits or retires shows up as a diff.
#
#   tests/replay/check_goldens.sh WO_REPLAY            # diff, exit 1 on change
#   tests/replay/check_goldens.sh WO_REPLAY --update   # rewrite the goldens
set -eu

bin=$1
update=${2:-}
here=$(cd "$(dirname "$0")" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0

# check NAME SUBCOMMAND [FLAG...] TRACE
check() {
    name=$1
    cmd=$2
    shift 2
    "$bin" "$cmd" --json="$tmp/$name.json" "$@" > /dev/null
    if [ "$update" = --update ]; then
        cp "$tmp/$name.json" "$here/expected/$name.json"
    elif ! diff -u "$here/expected/$name.json" "$tmp/$name.json"; then
        echo "check_goldens: $name differs from its golden" >&2
        status=1
    fi
}

for t in spinlock_small barrier_small; do
    for m in net net-l2-moesi; do
        check "sim_${t}_${m}" sim --machine="$m" --policy=def2drf0 \
            "$here/$t.wotrace"
        check "sim_${t}_${m}_w64_c256" sim --machine="$m" \
            --policy=def2drf0 --window=64 --chunk=256 "$here/$t.wotrace"
    done
    check "verify_${t}_w32_all" verify --window=32 --all-races \
        "$here/$t.wotrace"
done
exit $status
