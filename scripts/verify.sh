#!/usr/bin/env bash
# Offline verification: build the whole workspace warning-clean, lint it
# with clippy, and run every test (unit, doc, integration — including the
# fault-injection, recovery, and telemetry suites). No network access is
# required: the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="${RUSTFLAGS:--D warnings}"

echo "== unsafe-free gate =="
# Every crate root must carry #![forbid(unsafe_code)]; the compiler then
# rejects any `unsafe` token in that crate, so no source grep is needed.
for root in src/lib.rs crates/*/src/lib.rs; do
  if ! grep -q '#!\[forbid(unsafe_code)\]' "$root"; then
    echo "verify: FAIL — $root is missing #![forbid(unsafe_code)]"
    exit 1
  fi
done

echo "== source invariant linter (naiad-lint-src, NS0001-NS0006) =="
# Token-level replacement for the old flow-exempt/slab-exempt grep|awk
# gates, plus the rules those gates could not express: unbounded channels
# (NS0001) and hot-path allocations (NS0002) with scope-aware marker
# attachment, nondeterminism in deterministic modules (NS0003), panic
# paths in runtime/ (NS0004), telemetry conservation (NS0005), and
# lock-order cycles (NS0006). See DESIGN.md §17.
cargo run -q --release -p naiad-lints --bin naiad-lint-src

echo "== build (release, workspace) =="
cargo build --release --workspace

echo "== clippy (workspace, all targets, + pedantic selections) =="
# The pedantic selections (-W …) must precede -D warnings so they are
# promoted to errors along with everything else.
if cargo clippy --version >/dev/null 2>&1; then
  cargo clippy --workspace --all-targets -- \
    -W clippy::redundant_clone \
    -W clippy::needless_pass_by_value \
    -W clippy::inefficient_to_string \
    -D warnings
else
  echo "clippy not installed; skipping lint gate"
fi

echo "== tests (workspace) =="
cargo test -q --workspace

echo "== benchmark build + smoke test (ledger/, naiad-bench) =="
# `ledger/` is a workspace of its own, so the steps above never compile
# it. The harness that judges a PR builds and runs BENCHMARK.json's
# command on it: a change that breaks a signature the benchmark calls, or
# an output check of one of its workloads, must fail here first.
cargo build --release --manifest-path ledger/Cargo.toml
cargo test --release --manifest-path ledger/Cargo.toml

echo "== allocation-budget gate (zero-copy data plane) =="
# The counting-allocator harness re-runs in release mode: the fig6a
# exchange at 1x/4x/16x volume must hold steady-state allocations flat
# (a per-batch constant, never per-record — DESIGN.md §16).
cargo test -q --release --test alloc_budget

echo "== static dataflow analyzer (naiad-lint over the in-repo catalog) =="
# Exits non-zero if any in-repo dataflow carries an Error-severity
# diagnostic (NA0001–NA0006; DESIGN.md §12).
cargo run -q --release --example naiad_lint

echo "== self-hosted critical-path report (introspection gate) =="
# Runs the workload catalog under execute_with_introspection; the example
# asserts one summary per closed epoch, >=95% wall-clock accounting, no
# tap overflow, and bounded tuning decisions (DESIGN.md §14).
cargo run -q --release --example critical_path_report >/dev/null

echo "== overload report (flow-control gate) =="
# Skewed word count at ~2x the consumer's drain rate under a small
# credit budget; the example asserts exact record accounting, a clean
# credit drain, and that the overload monitor engaged (DESIGN.md §15).
cargo run -q --release --example overload_report >/dev/null

# Extended chaos soak: CHAOS_SOAK_SEEDS=n runs n extra seeded composite
# fault schedules past the 32 the workspace tests always cover. The CI
# chaos-soak job sets it; local runs may too (e.g. CHAOS_SOAK_SEEDS=96).
if [[ "${CHAOS_SOAK_SEEDS:-0}" != "0" ]]; then
  echo "== chaos soak (+${CHAOS_SOAK_SEEDS} seeds) =="
  timeout "${CHAOS_SOAK_DEADLINE:-1800}" \
    cargo test -q --test chaos_soak -- extended_soak_honours_env
fi

# Extended rescale-under-fault soak: RESCALE_SOAK_SEEDS=n runs n extra
# seeds of the elastic matrix (the same fault plans with a grow or shrink
# membership change fenced mid-run) past the 32 the workspace tests
# always cover. The CI chaos-soak job sets it.
if [[ "${RESCALE_SOAK_SEEDS:-0}" != "0" ]]; then
  echo "== rescale soak (+${RESCALE_SOAK_SEEDS} seeds) =="
  timeout "${RESCALE_SOAK_DEADLINE:-1800}" \
    cargo test -q --test chaos_soak -- extended_rescale_soak_honours_env
fi

# Extended introspection soak: INTROSPECT_SOAK_SEEDS=n runs n extra
# seeded lossy fault schedules with the self-hosted observer installed,
# asserting per-epoch output stays bit-identical to the fault-free
# reference and every epoch gets a critical-path summary. The CI
# chaos-soak job sets it.
if [[ "${INTROSPECT_SOAK_SEEDS:-0}" != "0" ]]; then
  echo "== introspection soak (+${INTROSPECT_SOAK_SEEDS} seeds) =="
  timeout "${INTROSPECT_SOAK_DEADLINE:-1800}" \
    cargo test -q --test chaos_soak -- extended_introspect_soak_honours_env
fi

# Extended overload soak: OVERLOAD_SOAK_SEEDS=n runs n extra seeded
# 2x-offered-load schedules against a dawdling consumer, asserting the
# peak in-flight data-plane bytes stay within the credit budget and the
# run is lossless (Block) or exactly accounted (Shed). The CI chaos-soak
# job sets it.
if [[ "${OVERLOAD_SOAK_SEEDS:-0}" != "0" ]]; then
  echo "== overload soak (+${OVERLOAD_SOAK_SEEDS} seeds) =="
  timeout "${OVERLOAD_SOAK_DEADLINE:-1800}" \
    cargo test -q --test chaos_soak -- extended_overload_soak_honours_env
fi

# Bounded model-check smoke: one pass over the protocol model-checker's
# acceptance matrix (DESIGN.md §11) on the pinned base seeds, with the
# safety/FIFO/liveness oracles live. MODEL_CHECK_SEEDS=n sweeps n extra
# behaviour seeds, mirroring the chaos soak contract (CI sets 32).
echo "== model-check smoke (base seeds${MODEL_CHECK_SEEDS:+ +$MODEL_CHECK_SEEDS extra}) =="
timeout "${MODEL_CHECK_DEADLINE:-900}" \
  cargo test -q --release -p naiad --test model_check

echo "verify: OK"
