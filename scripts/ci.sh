#!/usr/bin/env bash
# Tier-1 verification, hermeticity checks, and the experiment golden gate.
#
# The workspace must build and test with ZERO network access: every
# dependency is an in-workspace path crate (see crates/testkit for the
# PRNG / property-test / bench substrate that replaced rand, proptest and
# criterion). `--offline` turns any accidental registry dependency into a
# hard error instead of a hung download, and the Cargo.lock scan catches
# one that slipped in while the registry happened to be reachable.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: build (whole workspace, all targets, no network) =="
# --bins is explicit: passing any target-selection flag (--benches) makes
# cargo build ONLY those targets, silently skipping the domino-run /
# domino-trace binaries the later steps drive.
cargo build --release --offline --workspace --bins --benches

echo "== lint gate: domino-lint (before any test runs) =="
# The semantic linter is the cheapest gate with the widest blast radius —
# a hot-path allocation or float-order regression fails here in seconds,
# before the test sweep spends minutes. --deny-unused-waivers keeps the
# waiver ledger honest, and the --json run is byte-diffed against the
# committed baseline so any drift in findings (new, fixed, or re-waived)
# must be reviewed as part of the change that caused it.
cargo run --release --offline -q -p domino-lint -- --deny-unused-waivers
cargo run --release --offline -q -p domino-lint -- --json | diff -u results/lint_findings.json - \
    || { echo "ERROR: lint findings drifted from results/lint_findings.json; regenerate with: cargo run -q -p domino-lint -- --json > results/lint_findings.json" >&2; exit 1; }

echo "== tier-1: test =="
cargo test -q --offline --workspace

echo "== benchmark package: builds against the current API, tiny-horizon tests =="
# perfbench/ is a package of its own (outside the workspace), so the
# workspace sweep never compiles it. Its tests run every workload at a
# tiny horizon: a builder-API break fails here, not in the benchmark run.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "== golden gate: domino-run --check =="
# Regenerates every experiment at quick scale across 2 workers and
# byte-diffs against the committed results/ files. Output must be
# identical for any --jobs count, so jobs=2 also exercises the pool's
# index-ordered merge.
./target/release/domino-run --check --jobs 2

echo "== chaos smoke: fixed-seed fault injection =="
# The chaos_degradation experiment drives every scheme through the fault
# plane at increasing intensity: the byte-exact re-check proves faulted
# runs are as deterministic as clean ones (and that no MAC livelocks —
# the experiment's liveness gate is part of its pinned output).
./target/release/domino-run chaos_degradation --check --jobs 2

echo "== observability: traced run stays byte-identical, trace validates =="
# Tracing is observation-only: re-running the golden gate with --trace
# must still byte-match every pinned results/ file, while also writing
# the designated JSONL traces. domino-trace check then validates each
# trace: schema version, well-formed events, monotone timestamps.
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT
./target/release/domino-run fig10_timeline chaos_degradation --check --jobs 2 --trace "$TRACE_DIR"
for trace in "$TRACE_DIR"/*.jsonl; do
    ./target/release/domino-trace check "$trace"
done

echo "== profile gate: cost attribution pinned at zero tolerance =="
# The cost profiler counts exact integers over simulated work (engine
# pops, wheel cascades, adjudications, RNG draws — no wall clock), so
# the committed fig7/DOMINO snapshot is held to a zero-threshold diff:
# any hot-path cost growth fails here and must be reviewed as part of
# the change that caused it.
PROF_TMP="$(mktemp)"
./target/release/domino-profile report --folded > "$PROF_TMP"
./target/release/domino-profile diff results/profile_fig7_domino.txt "$PROF_TMP" \
    || { echo "ERROR: cost profile drifted from results/profile_fig7_domino.txt; if the change is intended, regenerate with: ./target/release/domino-profile report --folded > results/profile_fig7_domino.txt" >&2; exit 1; }
rm -f "$PROF_TMP"

echo "== snapshot gate: checkpoint at t/2, restore in a fresh process =="
# A fig7 DOMINO run under chaos is checkpointed at half its horizon; a
# *separate process* restores the sealed snapshot and finishes the run.
# Both the interrupted and the restored stats blocks must byte-match the
# uninterrupted run's — the restored-goldens-cannot-move claim of
# DESIGN.md §14, held at the process boundary.
SNAP_DIR="$(mktemp -d)"
./target/release/domino-run sim --scheme domino --scenario fig7 --seed 11 --duration-s 1 \
    --chaos 0.5 --checkpoint-at-us 500000 --state-dir "$SNAP_DIR" > "$SNAP_DIR/interrupted.txt"
./target/release/domino-run sim --scheme domino --scenario fig7 --seed 11 --duration-s 1 \
    --chaos 0.5 > "$SNAP_DIR/uninterrupted.txt"
./target/release/domino-run sim --scheme domino --scenario fig7 --seed 11 --duration-s 1 \
    --chaos 0.5 --restore "$SNAP_DIR/ckpt_000500000000.dsnp" > "$SNAP_DIR/restored.txt"
diff "$SNAP_DIR/uninterrupted.txt" "$SNAP_DIR/interrupted.txt"
diff "$SNAP_DIR/uninterrupted.txt" "$SNAP_DIR/restored.txt"
echo "restored run byte-identical to uninterrupted run"
rm -rf "$SNAP_DIR"

echo "== failover smoke: warm-standby recovery under controller crashes =="
# The failover_recovery experiment pins recovery latency falling
# monotonically with checkpoint frequency and zero stranded failovers;
# the jobs=2 re-check proves the standby path is as deterministic as
# the clean one.
./target/release/domino-run failover_recovery --check --jobs 2

echo "== differential oracle: timer wheel vs reference heap (fixed seed) =="
# The engine's timer wheel is checked op-for-op against the (time, seq)
# BinaryHeap oracle under a fixed master seed so failures replay exactly.
# (The suite already ran once under the workspace test sweep with the
# default seed; this run pins a second, independent exploration.)
TESTKIT_SEED=271828 TESTKIT_CASES=512 \
    cargo test -q --offline -p domino-sim --test differential

echo "== parser fuzz replay: lint parser total under pinned seed =="
# The lint parser must stay total (never panic) on arbitrary token soup;
# the pinned seed makes any regression replay exactly.
TESTKIT_SEED=271828 TESTKIT_CASES=512 \
    cargo test -q --offline -p domino-lint --test parser_fuzz

echo "== lint: clippy =="
# The container may lack clippy; the curated [workspace.lints] clippy set
# still applies through rustc when it is absent.
if command -v cargo-clippy >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets --offline -q -- -D warnings
else
    echo "cargo-clippy not installed; skipping"
fi

echo "== hermeticity: lockfile =="
if grep -q '^source = ' Cargo.lock; then
    echo "ERROR: Cargo.lock contains registry-sourced packages:" >&2
    grep -B2 '^source = ' Cargo.lock >&2
    exit 1
fi
echo "Cargo.lock is path-only ($(grep -c '^name = ' Cargo.lock) workspace packages)"

echo "== OK =="
