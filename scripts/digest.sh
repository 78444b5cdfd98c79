#!/usr/bin/env sh
# Same-answers check against <parent-ref>: extracts the committed files of
# the parent under .bench_build/digest/parent with `git archive` (a plain
# copy, removed on exit, as scripts/pairs.sh does), copies each digest test
# below into it, runs it in that tree and in this one (the working tree,
# uncommitted edits included), and compares what the two wrote. A digest
# test writes one line per answer to the file its environment variable
# names and skips when it is unset. Every digest is compared: the lines
# that differ are printed under the name of their test, and any difference
# exits 1 once all are compared; identical digests print nothing.
#
# Digests (package, test, test file, environment variable):
#   internal/cache TestServiceDigest: the service's answers — sha256 of
#     RowsJSON, sha256 of the rows in canonical order ("set=", equal for
#     two answers with the same rows in any order) and DeltaRows — for a
#     fixed mix of 200 windows, three queries and two service shapes; a
#     change that reorders an answer's rows moves the first sum of its
#     line and not the set sum; in a tree whose service still runs its
#     delta joins on an engine, the shapes are a planner service at k = 4
#     and a one-task service, and a tree whose delta joins run in line
#     ignores the shape, so the two trees' digests agree only if the in-line
#     answers are the engine's byte for byte.
#   internal/core TestCoreDigest: every algorithm's answer — sha256 of
#     Result.IDs — and routing — per cycle pairs, physical pairs, keys,
#     pairs per key and records written, per run replicated and pruned
#     counts — on TestRoutingGolden's queries and inputs under uniform,
#     equi-depth, adaptive and force-split plans.
# A digest of another package joins by adding a line to the list below.
#
# Usage: scripts/digest.sh <parent-ref>
set -eu

if [ $# -ne 1 ]; then
    echo "usage: scripts/digest.sh <parent-ref>" >&2
    exit 2
fi
ref="$1"

cd "$(dirname "$0")/.."
root="$(pwd)"
work="$root/.bench_build/digest"
parent="$work/parent"

rm -rf "$work"
git rev-parse --verify --quiet "$ref^{commit}" >/dev/null ||
    { echo "digest.sh: $ref is not a commit" >&2; exit 2; }
mkdir -p "$parent"
git archive "$ref" | tar -x -C "$parent"
trap 'rm -rf "$work"' EXIT

digests='internal/cache TestServiceDigest digest_test.go IJ_DIGEST_OUT
internal/core TestCoreDigest digest_test.go IJ_CORE_DIGEST_OUT'

status=0
while read -r pkg test file env; do
    cp "$root/$pkg/$file" "$parent/$pkg/$file"
    for side in parent change; do
        tree="$parent"
        [ "$side" = change ] && tree="$root"
        (cd "$tree" && env "$env=$work/$side-$test.txt" \
            go test -count=1 -run "^$test\$" "./$pkg" >"$work/$side.log" 2>&1) || {
            tail -20 "$work/$side.log" >&2
            echo "digest.sh: $test failed in the $side tree (if it did not compile there, the API it uses moved)" >&2
            exit 1
        }
    done
    [ -s "$work/change-$test.txt" ] ||
        { echo "digest.sh: $test wrote nothing" >&2; exit 1; }
    if ! cmp -s "$work/parent-$test.txt" "$work/change-$test.txt"; then
        echo "== $test =="
        diff "$work/parent-$test.txt" "$work/change-$test.txt" || true
        status=1
    fi
done <<EOF
$digests
EOF
exit $status
