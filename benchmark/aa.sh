#!/usr/bin/env bash
# A/A self-check: two sets of runs of the SAME build must agree within the
# benchmark's own bounds, or the benchmark cannot tell a regression from noise.
#
#   benchmark/aa.sh [RUNS] [SECONDS]     (default 5 runs per set, 40 s each)
#
# Runs set A and set B alternately (A,B,A,B,…) over all three workloads; run i
# of either set uses seed i, so the spread also covers what changing the seed
# does, as the acceptance check does. Raw outputs go to benchmark/out/aa/; the
# report is printed (redirect it to AA_REPORT.md to commit it).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${1:-5}"
seconds="${2:-40}"
out="$here/out/aa"
rm -rf "$out"
mkdir -p "$out"

for i in $(seq 1 "$runs"); do
    for set in A B; do
        for workload in event-latency thread-bandwidth thread-stack; do
            "$here/run.sh" --workload "$workload" --seed "$i" --seconds "$seconds" --trace 0 \
                > "$out/$set-$i-$workload.txt"
        done
    done
done

python3 "$here/aa_report.py" "$out" "$runs" "$seconds"
