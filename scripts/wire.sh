#!/bin/sh
# Wire-bytes ratchet: runs every benchmark workload for one second on seed 1
# and fails when its wire_kb_per_query exceeds the value recorded in
# scripts/wire.max by more than 1 %. Bytes repeat to four digits per seed,
# so a wire regression cannot hide behind latency noise the way it could in
# the time metrics.
# Usage: scripts/wire.sh         the check
#        scripts/wire.sh -print  print the measured values in wire.max's
#                                format (a PR that moves the wire on purpose
#                                records them in the same diff)
set -eu
cd "$(dirname "$0")/.."
print=0
if [ "${1:-}" = "-print" ]; then
    print=1
fi
status=0
for w in shuffle_highcard scan_lowcard overhead_small serve_mixed_tcp; do
    dir=$(mktemp -d)
    go run ./benchmark -workload "$w" -seconds 1 -trace 0 -seed 1 -out "$dir" > "$dir/run.txt"
    kb=$(tail -n 1 "$dir/run.txt" | sed -n 's/.*"wire_kb_per_query":{"value":\([0-9.eE+-]*\).*/\1/p')
    rm -rf "$dir"
    if [ -z "$kb" ]; then
        echo "$w: no wire_kb_per_query in the benchmark's last line" >&2
        exit 1
    fi
    if [ "$print" = 1 ]; then
        printf '%s %.3f\n' "$w" "$kb"
        continue
    fi
    max=$(awk -v w="$w" '$1 == w { print $2 }' scripts/wire.max)
    if [ -z "$max" ]; then
        echo "$w: no ceiling in scripts/wire.max" >&2
        exit 1
    fi
    if awk -v kb="$kb" -v max="$max" 'BEGIN { exit !(kb > max * 1.01) }'; then
        echo "$w: wire_kb_per_query $kb exceeds $max in scripts/wire.max by more than 1 %" >&2
        status=1
    else
        echo "$w: wire_kb_per_query $kb within 1 % of $max"
    fi
done
exit $status
