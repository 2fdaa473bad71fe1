#!/bin/sh
# Non-test Go lines per package and in total, for ROADMAP item 3's
# "non-test LOC down" target. Counts every line (code, comments, blanks)
# of *.go files that are neither *_test.go nor under a testdata/
# directory; benchmark/ is listed separately and kept out of the total.
# Usage: scripts/loc.sh [dir]   (default: the repository root)
set -eu
cd "${1:-$(dirname "$0")/..}"

find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.*' -exec wc -l {} + |
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
    }'
