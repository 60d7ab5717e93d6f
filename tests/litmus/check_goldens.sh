#!/bin/sh
# Diff wo-litmus reports against the goldens in tests/litmus/expected/:
#
#   corpus.json          the default fan over the corpus, with --json;
#   default.txt          the default fan's text report with
#                        --coverage-report, and default.wocover, the
#                        coverage report it writes;
#   fleet.json           every registered machine x 2 seeds on sb,
#                        mp_sync and tas_counter, with --json (each
#                        machine's merged stats and finish ticks);
#   machines.txt         --list-machines;
#   axiom_stats.txt      wo-axiom --stats --drf0=auto over the corpus:
#                        the allowed sets and the enumerator's work
#                        counters (checked with --axiom WO_AXIOM).
#
# The byte-identical report is the simulator's behavioural contract: a
# refactor must leave every file unchanged, and a change meant to move a
# report rewrites them with --update. Runs from the repository root, so
# the report headers embed the relative corpus path.
#
#   tests/litmus/check_goldens.sh WO_LITMUS            # diff, exit 1 on change
#   tests/litmus/check_goldens.sh WO_LITMUS --update   # rewrite the goldens
#   tests/litmus/check_goldens.sh --axiom WO_AXIOM [--update]
set -eu

axiom=
if [ "$1" = --axiom ]; then
    axiom=$2
    shift
fi
bin=$1
update=${2:-}
here=$(cd "$(dirname "$0")" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cd "$here/../.."
status=0

# compare NAME: diff $tmp/NAME against its golden (or rewrite it).
compare() {
    if [ "$update" = --update ]; then
        cp "$tmp/$1" "$here/expected/$1"
    elif ! diff -u "$here/expected/$1" "$tmp/$1"; then
        echo "check_goldens: $1 differs from its golden" >&2
        status=1
    fi
}

if [ -n "$axiom" ]; then
    "$axiom" --stats --drf0=auto tests/litmus > "$tmp/axiom_stats.txt"
    compare axiom_stats.txt
    exit $status
fi

"$bin" --json tests/litmus > "$tmp/corpus.json"
compare corpus.json

# The report names the coverage file it wrote; keep the name, drop the
# temporary directory.
"$bin" --coverage-report="$tmp/default.wocover" tests/litmus \
    | sed "s|$tmp/||" > "$tmp/default.txt"
compare default.txt
compare default.wocover

"$bin" --machines='*' --seeds=2 --json tests/litmus/sb.litmus \
    tests/litmus/mp_sync.litmus tests/litmus/tas_counter.litmus \
    > "$tmp/fleet.json"
compare fleet.json

"$bin" --list-machines > "$tmp/machines.txt"
compare machines.txt
exit $status
