#!/bin/sh
# Runs the full benchmark twice on the same code and compares the two
# sets: per workload and end-to-end metric it prints both medians, their
# relative difference and the bound, and exits non-zero if the second
# set is worse than the first by more than a bound, if any virtual-time
# column or virt_digest differs at all, or if any operation failed.
#
#   benchmark/run.sh              # 10 s measured per workload and set
#   SECONDS_PER_RUN=30 benchmark/run.sh -workload fig8_sweep
set -eu
cd "$(dirname "$0")/.."
out=benchmark/out
mkdir -p "$out"
rm -f "$out/run1.jsonl" "$out/run2.jsonl"
for i in 1 2; do
	echo "=== set $i ==="
	go run ./benchmark -seconds "${SECONDS_PER_RUN:-10}" -out "$out/run$i.jsonl" "$@"
done
go run ./benchmark -compare "$out/run1.jsonl" "$out/run2.jsonl"
