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

echo "== format (rustfmt, root workspace) =="
# `ledger/` is a workspace of its own, so `--all` does not reach it.
cargo fmt --all -- --check

echo "== weight (ROADMAP aims 2 and 3 as a ratchet) =="
# Seven sizes that should only fall: the core, checker and operator
# crates' lines, the places the runtime crates suppress a lint, Config's
# option count, the code the crates keep past the dead-code lint, and the
# clippy lints the crates silence (shared state threaded through as loose
# parameters would need `too_many_arguments` again). Each ceiling is the count at
# the last PR that lowered it; a PR that lowers a count lowers its
# ceiling here, and one that must raise a ceiling says why in CHANGES.md.
weigh() { # <what> <count> <ceiling>
  printf '%-62s %6d (ceiling %d)\n' "$1" "$2" "$3"
  if [ "$2" -gt "$3" ]; then
    echo "verify: FAIL — $1: $2 exceeds the ceiling of $3"
    exit 1
  fi
}
weigh "lines in crates/core/src" \
  "$(find crates/core/src -name '*.rs' -print0 | xargs -0 cat | wc -l)" 16649
weigh "lines in crates/check/src" \
  "$(find crates/check/src -name '*.rs' -print0 | xargs -0 cat | wc -l)" 1330
weigh "lines in crates/operators/src" \
  "$(find crates/operators/src -name '*.rs' -print0 | xargs -0 cat | wc -l)" 2105
weigh "lint-allow / *-exempt markers in crates/{core,wire,netsim}/src" \
  "$(grep -rhoE 'lint-allow\(|[a-z]+-exempt:' crates/core/src crates/wire/src crates/netsim/src | wc -l)" 34
weigh "pub fields of Config" \
  "$(awk '/^pub struct Config \{/ {on = 1; next} on && /^\}/ {on = 0} on && /^    pub [a-z_]+:/ {n++} END {print n + 0}' \
    crates/core/src/runtime/config.rs)" 15
weigh "allow(dead_code) attributes in crates/*/src" \
  "$(grep -rhoE 'allow\(dead_code\)' crates/*/src | wc -l)" 0
weigh "allow(clippy::*) attributes in crates/*/src" \
  "$(grep -rhoE 'allow\(clippy::' crates/*/src | wc -l)" 5

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

echo "== interleaving exploration (loom) =="
# Under --cfg loom the sync shims (naiad_wire::sync) become model
# mutexes, condvars and atomics, and every loom_* test explores all
# schedules up to a preemption bound (DESIGN.md §17). The flag change
# rebuilds everything, so it gets a target directory of its own.
RUSTFLAGS="--cfg loom -D warnings" CARGO_TARGET_DIR=target/loom \
  cargo test -q -p naiad-wire -p naiad --lib loom_

echo "== benchmark build + smoke test (ledger/, naiad-bench) =="
# `ledger/` is a workspace of its own, so the steps above never compile
# it. The harness that judges a PR builds and runs BENCHMARK.json's
# command on it: a change that breaks a signature the benchmark calls, or
# an output check of one of its workloads, must fail here first.
cargo build --release --manifest-path ledger/Cargo.toml
cargo test --release --manifest-path ledger/Cargo.toml

echo "== allocation-budget gate (zero-copy data plane, coordination round) =="
# The counting-allocator harnesses re-run in release mode: the fig6a
# exchange at 1x/4x/16x volume must hold steady-state allocations flat
# (a per-batch constant, never per-record — DESIGN.md §16), word count
# at 1x/4x/16x words must stay under 0.05 allocations per word, and a
# fig6b barrier round must stay within its per-round budget.
cargo test -q --release --test alloc_budget
cargo test -q --release --test alloc_budget_text
cargo test -q --release --test alloc_budget_barrier

echo "== static dataflow analyzer (naiad-lint over the in-repo catalog) =="
# Exits non-zero if any in-repo dataflow carries an Error-severity
# diagnostic (NA0001–NA0006; DESIGN.md §12).
cargo run -q --release --example naiad_lint

echo "== online critical-path report (introspection gate) =="
# Runs the workload catalog under Execution::introspect; the example
# asserts one summary per closed epoch, no epoch summarized twice, and
# >=95% wall-clock accounting (DESIGN.md §14).
cargo run -q --release --example critical_path_report >/dev/null

echo "== overload report (flow-control gate) =="
# Skewed word count at ~2x the consumer's drain rate under a small
# credit budget; the example asserts exact record accounting, a clean
# credit drain, and that the overload monitor engaged (DESIGN.md §15).
cargo run -q --release --example overload_report >/dev/null

# Extended soaks: <VAR>=n runs n extra seeds of one tests/chaos_soak.rs
# matrix past the base seeds the workspace tests always cover; unset or 0
# skips it. The CI chaos-soak job sets all five; local runs may too (e.g.
# CHAOS_SOAK_SEEDS=96). <VAR minus _SEEDS>_DEADLINE bounds each in seconds.
#   variable               test                                  what the extra seeds run
soaks="
CHAOS_SOAK_SEEDS       extended_soak_honours_env             composite fault schedules under recovery, and the composed recovery x rescale x flow x introspection matrix
RESCALE_SOAK_SEEDS     extended_rescale_soak_honours_env     the same fault plans with a grow or shrink fenced mid-run
INTROSPECT_SOAK_SEEDS  extended_introspect_soak_honours_env  lossy schedules under online critical-path introspection
OVERLOAD_SOAK_SEEDS    extended_overload_soak_honours_env    2x-offered-load schedules against a dawdling consumer, Block and Shed
SLAB_SOAK_SEEDS        extended_slab_soak_honours_env        the chaos fault plans with container-fed inputs over the slab path
"
while read -r var test label; do
  [[ -n "$var" ]] || continue
  seeds="${!var:-0}"
  [[ "$seeds" != "0" ]] || continue
  deadline_var="${var%_SEEDS}_DEADLINE"
  echo "== ${var%_SEEDS} (+${seeds} seeds: ${label}) =="
  timeout "${!deadline_var:-1800}" cargo test -q --test chaos_soak -- "$test"
done <<<"$soaks"

# Bounded model-check smoke: one pass over the protocol model-checker's
# acceptance matrix (DESIGN.md §11) on the pinned base seeds, with the
# safety/FIFO/liveness oracles live. MODEL_CHECK_SEEDS=n sweeps n extra
# behaviour seeds, mirroring the chaos soak contract (CI sets 32).
echo "== model-check smoke (base seeds${MODEL_CHECK_SEEDS:+ +$MODEL_CHECK_SEEDS extra}) =="
timeout "${MODEL_CHECK_DEADLINE:-900}" \
  cargo test -q --release -p naiad-check --test model_check

echo "verify: OK"
