#!/bin/sh
# Non-test Go lines per package and in total, for ROADMAP item 3's
# "non-test LOC down" target. Counts every line (code, comments, blanks)
# of *.go files that are neither *_test.go nor under a testdata/
# directory; benchmark/ is listed separately and kept out of the total.
# Usage: scripts/loc.sh [dir]   (default: the repository root)
#        scripts/loc.sh -check  the ratchet: fail when the total exceeds the
#                               ceiling committed in scripts/loc.max. A PR
#                               that must grow the tree raises the ceiling
#                               in the same diff, where a reviewer sees it;
#                               one that shrinks it lowers the ceiling.
set -eu
check=0
if [ "${1:-}" = "-check" ]; then
    check=1
    shift
fi
cd "${1:-$(dirname "$0")/..}"

report=$(find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.*' -exec wc -l {} + |
    awk '$2 != "total" {
        dir = $2; sub(/\/[^\/]*$/, "", dir); sub(/^\.\/?/, "", dir)
        if (dir == "") dir = "."
        if (dir ~ /^benchmark(\/|$)/) bench += $1; else { pkg[dir] += $1; total += $1 }
    }
    END {
        for (d in pkg) printf "%7d  %s\n", pkg[d], d | "sort -k2"
        close("sort -k2")
        printf "%7d  total (non-test, outside benchmark/)\n", total
        printf "%7d  benchmark/ (not in total)\n", bench
    }')
echo "$report"
if [ "$check" = 1 ]; then
    total=$(echo "$report" | awk '$2 == "total" { print $1 }')
    max=$(cat scripts/loc.max)
    if [ "$total" -gt "$max" ]; then
        echo "non-test LOC $total exceeds the ceiling $max in scripts/loc.max" >&2
        exit 1
    fi
    echo "non-test LOC $total within the ceiling $max"
fi
