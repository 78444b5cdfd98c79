#!/usr/bin/env sh
# Parent-vs-change verdict on this host, the only kind BENCHMARK.json's
# bounds can judge: extracts the committed files of <parent-ref> under
# .bench_build/parent with `git archive` (a plain copy: nothing is
# registered with git, and it is removed on exit), runs one workload of the
# repository benchmark in that tree and in this one (the working tree,
# uncommitted edits included) on seeds 1..pairs for 10 s each, alternating
# which side goes first so that drift on the host lands on both, and hands
# the two result sets to `bench/run.sh --compare`, which prints a verdict
# per end-to-end metric and exits 1 on a "worse".
# Ten pairs of one workload take about seven minutes; it is not part of
# check.sh or CI.
#
# Usage: scripts/pairs.sh <parent-ref> <workload> [pairs=10]
set -eu

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: scripts/pairs.sh <parent-ref> <workload> [pairs=10]" >&2
    exit 2
fi
ref="$1"
workload="$2"
pairs="${3:-10}"

cd "$(dirname "$0")/.."
root="$(pwd)"
parent="$root/.bench_build/parent"
out="$root/.bench_build/pairs"

# A run that was interrupted leaves the tree behind.
rm -rf "$parent" "$out"
git rev-parse --verify --quiet "$ref^{commit}" >/dev/null ||
    { echo "pairs.sh: $ref is not a commit" >&2; exit 2; }
mkdir -p "$parent"
git archive "$ref" | tar -x -C "$parent"
trap 'rm -rf "$parent"' EXIT

run() { # run <tree> <side> <seed>
    bash "$1/bench/run.sh" --workload "$workload" --seed "$3" --seconds 10 \
        --out "$out/$2-$3" >/dev/null
}

old=""
new=""
i=1
while [ "$i" -le "$pairs" ]; do
    echo "pairs.sh: pair $i of $pairs" >&2
    if [ $((i % 2)) -eq 1 ]; then
        run "$parent" parent "$i"
        run "$root" change "$i"
    else
        run "$root" change "$i"
        run "$parent" parent "$i"
    fi
    old="$old${old:+,}$out/parent-$i/results.json"
    new="$new${new:+,}$out/change-$i/results.json"
    i=$((i + 1))
done

bash bench/run.sh --compare "$old" "$new"
