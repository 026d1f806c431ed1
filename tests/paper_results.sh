#!/bin/sh
# Pins every simulated result of the paper: runs `paper` once with a
# fresh run-manifest directory and no other REMAP_* variable set, and
# compares each job's cycles, energy and work (as `remap-stats show`
# prints them) with tests/paper_results.txt, text for text. Any timing
# change fails here and shows as a diff to review.
#
#   usage: paper_results.sh PAPER REMAP_STATS EXPECTED
#
# After an intended timing change, regenerate the pin from a Release
# build at the repository root with:
#
#   d=$(mktemp -d) && env $(env | sed -n 's/^\(REMAP_[A-Za-z0-9_]*\)=.*/-u \1/p') REMAP_MANIFEST=$d build/bench/paper > /dev/null && build/src/tools/remap-stats show $d/paper_manifest_0.json --only .result.cycles --only .result.energy_j --only .result.work_units > tests/paper_results.txt; rm -rf $d
set -eu
[ $# -eq 3 ] || { echo "usage: $0 PAPER REMAP_STATS EXPECTED" >&2; exit 2; }
paper=$1 stats=$2 expected=$3

for v in $(env | sed -n 's/^\(REMAP_[A-Za-z0-9_]*\)=.*/\1/p'); do
    unset "$v"
done
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

REMAP_MANIFEST=$dir "$paper" > /dev/null
"$stats" show "$dir/paper_manifest_0.json" \
    --only .result.cycles --only .result.energy_j \
    --only .result.work_units > "$dir/results.txt"
diff -u "$expected" "$dir/results.txt"
