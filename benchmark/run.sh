#!/usr/bin/env bash
# The repo's benchmark: build in release mode, offline, then run ONE workload
# in a fresh child process with the allocator environment pinned.
#
#   benchmark/run.sh [--workload] <event-latency|thread-bandwidth|thread-stack>
#                    [--seed S] [--seconds T] [--trace 0|1|FILE]
#   benchmark/run.sh --list
#
# --trace 1 writes benchmark/out/<workload>.trace.json (chrome trace_events)
# and .layers.json (self times and per-layer metrics) and prints the per-layer
# metrics; --trace 0 (default) prints the end-to-end metrics. The last line of
# standard output is the result object; the exit code is non-zero when any
# output differed from its oracle.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_NET_OFFLINE=true
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

# Quiet on success: the result object must be the last line of stdout, and a
# build log in front of every run helps nobody.
if ! log="$(cargo build --release --offline --manifest-path "$here/Cargo.toml" 2>&1)"; then
    printf '%s\n' "$log" >&2
    exit 1
fi

# Keep freed memory in the heap: with glibc's defaults every sample gives its
# buffers back to the kernel and faults them in again (6.5k minor faults per
# sample), which is slower and, worse, noisier. 32 MiB is the largest mmap
# threshold glibc accepts; every buffer of every workload is below it.
export GLIBC_TUNABLES="glibc.malloc.trim_threshold=1073741824:glibc.malloc.mmap_threshold=33554432:glibc.malloc.top_pad=67108864"

# One CPU for the whole run (the build above used them all). The sandbox gives
# the benchmark two vCPUs of a shared host, and eight rank threads spread over
# them measure how long the host takes to wake an idle vCPU: minutes-long
# episodes moved the application cells by 30-60 % with no code change. On one
# CPU a hand-off between ranks is a context switch, the CPU never idles inside
# a cell, and runs agree within a few percent (AA_REPORT.md). The last allowed
# CPU, because interrupts favour the first.
cpu="$(sed -n 's/^Cpus_allowed_list:.*[^0-9]\([0-9]*\)$/\1/p' /proc/self/status 2>/dev/null || true)"
pin=()
if [ -n "$cpu" ] && command -v taskset >/dev/null 2>&1 && taskset -c "$cpu" true 2>/dev/null; then
    pin=(taskset -c "$cpu")
else
    echo "run.sh: cannot pin to one CPU (no taskset or no /proc); expect noisier numbers" >&2
fi

exec "${pin[@]}" "$CARGO_TARGET_DIR/release/bruck-benchmark" --out "$here/out" "$@"
