#!/bin/sh
# Offline build + test gate. The workspace is hermetic (zero external
# crates), so this must pass with no network access from a fresh checkout.
set -eu
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

# stage "<name>" cmd...: run one gate stage, print its wall time, and keep a
# row for the summary table printed when the script exits (also on failure,
# so a red gate still shows where the time went).
stage_rows=""
stage() {
    stage_name=$1
    shift
    stage_t0=$(date +%s)
    stage_status=ok
    "$@" || stage_status="FAILED ($?)"
    stage_row=$(printf '%-24s %5ss  %s' "$stage_name" "$(( $(date +%s) - stage_t0 ))" "$stage_status")
    echo "verify: stage $stage_row"
    stage_rows="$stage_rows
  $stage_row"
    [ "$stage_status" = ok ]
}
trap 'echo; echo "verify: wall time per stage$stage_rows"' EXIT

# The working tree as git sees it (a constant outside a git checkout, so the
# comparison at the end of the script is skipped there).
tree_state() {
    git status --porcelain 2>/dev/null || echo "not a git checkout"
}
tree_before=$(tree_state)

stage build cargo build --workspace --release
# Every test binary runs even after one fails, so a red stage lists all of
# the failures, not the first binary's.
stage test cargo test --workspace -q --no-fail-fast
# Rustdoc gate: every intra-doc link must resolve, so deleting or renaming a
# type fails here instead of leaving [`crate::Gone`] references to rot.
stage docs env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
# Observability conformance gate (DESIGN.md §10): every algorithm × workload
# cell under MeteredComm must match the closed-form model's phase counts,
# message counts, and byte volumes. Its message/byte comparator
# (tests/common/, with the three negative fixtures that prove it can fail) is
# the only one in the workspace: trace_validation, radix_validation,
# engine_equivalence, engine_properties and collectives_gauntlet bring their
# cells to it in the `test` stage above — the last one holds every randomly
# drawn EngineConfig to its own trace, per tag.
stage conformance cargo test --release -q --test conformance
# Collective-family gate (DESIGN.md §16): the differential gauntlet — every
# allgatherv / reduce_scatter / allreduce schedule vs the naive reference,
# byte-identical across ThreadComm/SimComm/EventComm, schedule-independent
# over 16 sim seeds, and message/byte-exact against the model's pricing of
# the same step plans (a miscounted trace must fail with a precise
# diagnostic) — plus the seeded property sweep over arbitrary non-uniform
# counts.
stage collectives-gauntlet cargo test --release -q --test collectives_gauntlet
stage collectives-properties cargo test --release -q --test collectives_properties
# Source rules (DESIGN.md §8.4): the `[workspace.lints]` table plus the bans
# in crates/{comm,core,bpra}/clippy.toml. `--lib --bins` compiles no
# `#[cfg(test)]` code, which is the rules' test exemption. An audited
# exception is an `#[expect]` at its site, and a stale one fails through
# `unfulfilled_lint_expectations`; a plain `cargo build` ignores the clippy
# ones. A clippy.toml path that resolves to nothing is a plain warning that
# `-D warnings` does not reach, so any `warning` line fails the stage too.
clippy_gate() {
    clippy_out=$(cargo clippy --workspace --lib --bins --color never -- -D warnings 2>&1)
    clippy_status=$?
    printf '%s\n' "$clippy_out"
    [ "$clippy_status" -eq 0 ] && ! printf '%s\n' "$clippy_out" | grep -q '^warning'
}
stage clippy clippy_gate
# Protocol-analysis matrix (DESIGN.md §8): the registry's check rows on a
# lowest-first `SimComm` run, non-zero exit on any finding. Every matrix
# binary's summary line prints `cells: N`, so coverage reads next to the wall
# time in the table below.
stage bruck-check cargo run --release -p bruck-check --bin bruck-check
# Dynamic fault-tolerance gate (DESIGN.md §9, §14): every cell through the
# one fault path, the recovering driver (execute -> agree -> shrink -> retry).
# First the op x fault-plan battery on SimComm's virtual clock under
# FaultComm -> ReliableComm -> MeteredComm, against exact budgets, every cell
# run twice (~4 s): repair-only plans must commit the first attempt on every
# rank; a crash must leave the victim typed and every survivor Recovered on
# the survivor view with that view's bytes. Three of its rows are real-clock
# cells on ThreadComm — two-phase x lossy, two-phase x crash, one collective
# x crash — kept as the canary that virtual time is not hiding a wall-clock
# dependence in the ARQ or the driver; the crash ones sit out a real 2 s
# deadline and the ARQ's retry schedule for the victim, which ends the
# confirm's wait for it (~5 s of the stage). Then the recovery matrix:
# the eight alltoallv algorithms, a transitive-closure fixpoint and the eight
# collective schedules, each with a victim scripted to crash at its first /
# quarter / half / last op on a 5-rank simulated world over bare FaultComm,
# same contract, same-seed digest-deterministic. Its virtual-time MTTR per
# row (the confirm's first round waits out its whole window, 1.25 x the
# 600 ms deadline, in every row: bare FaultComm gives no earlier evidence of
# the death) is compared against the committed BENCH_PR8.json (> 1.6x drift
# advisory, > 8x fails; MTTR is virtual-time, so drift means the protocol
# itself changed). Seeds can be overridden with `--seeds 1,2,3`. Regenerate
# the baseline with:
#   cargo run --release -p bruck-check --bin bruck-chaos -- --smoke --out BENCH_PR8.json
stage chaos-smoke cargo run --release -p bruck-check --bin bruck-chaos -- --smoke --check-against BENCH_PR8.json
# Deterministic-simulation gate (DESIGN.md §11): the registry's cell ×
# schedule-seed rows under the cooperative SimComm scheduler. Every cell
# runs twice and must produce byte-identical traces and results; on failure
# the report prints the seed plus a saved trace file under target/bruck-sim/
# and the one-command replay.
stage sim-smoke cargo run --release -p bruck-check --bin bruck-sim -- --smoke
# Exhaustive-interleaving gate (DESIGN.md §13): source-set DPOR over SimComm
# walks every inequivalent schedule of the tiny-world matrix, close to one run
# per class (the report prints explored vs. inequivalent vs. naive counts per
# cell and requires >=10x pruning; ~10 s on 2 cores, P = 4 two-phase Bruck
# the largest cell), and the event-runtime wakeup audit checks every
# worker-pick interleaving of the protocol scenarios against the vector-clock
# invariants. The second run arms the seeded lost-wakeup bug and fails
# unless the auditor finds it and shrinks the witness.
stage verify-smoke cargo run --release -p bruck-check --bin bruck-verify -- --smoke
stage verify-with-bug cargo run --release -p bruck-check --bin bruck-verify -- --with-bug
# Bench regression gate (DESIGN.md §12.6, §15.5): one bin, one row type, one
# committed baseline. The tuner's candidate set at P = 8 (each cell the median
# of 5 whole worlds on EventComm, every wall clock fed through observe ->
# refit -> select, each selection printed as a loss table) and the two
# P = 4096 log-phase cells on the bounded worker pool. Every cell must have a
# row in crates/bench/baseline.json with exactly the same `messages`; a wall
# clock is judged only where the baseline's is >= 1 s (> 1.6x advisory, > 8x
# fails — the fatal bar only catches structural regressions, e.g. an O(P)
# scan reintroduced on the deposit path, not shared-CI noise). A cell the
# baseline does not cover, or an unreadable baseline, fails. Regenerate with:
#   cargo run --release -p bruck-bench --bin bruck-bench -- --smoke --out crates/bench/baseline.json
stage bench-regress cargo run --release -p bruck-bench --bin bruck-bench -- --smoke --check-against crates/bench/baseline.json
# The frozen benchmark's own tests (benchmark/README.md): its metric schema,
# that every exact count repeats bit for bit between two traced runs under
# real threads (`wrappers.wire_msgs` among them), and that every sample ends
# with no message left in any mailbox. Nothing else in the gate builds that
# crate, although it is what a gain-claiming PR is judged by and what the
# transport's tear-down contract (DESIGN.md §9.2) exists for. It is
#   cargo test --release --offline --manifest-path benchmark/Cargo.toml
# run on a copy of the lock file, sources and tests under target/ whose
# manifest points back at this tree's crates/: the committed
# benchmark/Cargo.lock predates bruck-model's dependency on bruck-comm, so
# building in place rewrites a frozen file and would trip the tree check below.
benchmark_selftest() {
    copy=target/benchmark-selftest
    rm -rf "$copy/benchmark" && mkdir -p "$copy/benchmark" &&
        cp -R benchmark/Cargo.lock benchmark/src benchmark/tests "$copy/benchmark/" &&
        sed 's#\.\./crates/#../../../crates/#' benchmark/Cargo.toml >"$copy/benchmark/Cargo.toml" &&
        cp BENCHMARK.json "$copy/" &&
        CARGO_TARGET_DIR="$copy/target" cargo test --release --offline -q --manifest-path "$copy/benchmark/Cargo.toml"
}
stage benchmark-selftest benchmark_selftest
# No stage may write into the tree: whatever `git status` said at the start,
# it must say now.
if [ "$(tree_state)" != "$tree_before" ]; then
    echo "verify: FAILED: a stage changed the working tree; git status --porcelain now says:" >&2
    tree_state >&2
    exit 1
fi
