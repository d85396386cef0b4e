//! Acceptance tests for the deterministic progress-protocol
//! model-checker (§3.3): the clean matrix must explore ≥ 1,000 distinct
//! interleavings per seed across every topology × accumulation policy
//! with both oracles silent, every injected fault class must be caught
//! by its oracle, and every failure must reproduce **bit-identically**
//! from its printed seed + minimized trace.
//!
//! CI widens the sweep with `MODEL_CHECK_SEEDS=n` (n extra seeds past
//! the pinned base), mirroring the `CHAOS_SOAK_SEEDS` contract.

use naiad::progress::{Pointstamp, ProgressMode};
use naiad::Timestamp;
use naiad_check::{explore, explore_matrix, replay, Chaos, McConfig, Topology, ViolationKind};

const ALL_MODES: [ProgressMode; 4] = [
    ProgressMode::Broadcast,
    ProgressMode::Local,
    ProgressMode::Global,
    ProgressMode::LocalGlobal,
];

/// Schedules per (topology, mode, shape) cell: 21 cells × 90 = 1,890
/// schedules per seed, comfortably past the 1,000-distinct-interleavings
/// floor.
const SCHEDULES_PER_CELL: usize = 90;

/// The pinned base seeds every run checks. Failures print a `Failure`
/// report with the seed, salt, and minimized trace for exact replay.
const BASE_SEEDS: [u64; 2] = [0xDA7A, 42];

fn assert_matrix_clean(seed: u64) {
    let matrix = explore_matrix(seed, SCHEDULES_PER_CELL);
    assert_eq!(
        matrix.len(),
        21,
        "3 topologies × (4 policies on 2 x 2 + 3 one-process shapes)"
    );
    let mut distinct = 0;
    for (cfg, report) in &matrix {
        assert!(
            report.failures.is_empty(),
            "seed {seed:#x} {}/{} at {} x {} violated an oracle:\n{}",
            cfg.topology.label(),
            cfg.mode.figure_label(),
            cfg.processes,
            cfg.workers_per_process,
            report.failures[0]
        );
        assert_eq!(report.schedules, SCHEDULES_PER_CELL);
        distinct += report.distinct_interleavings;
    }
    assert!(
        distinct >= 1_000,
        "seed {seed:#x}: only {distinct} distinct interleavings across the matrix"
    );
}

/// The clean acceptance matrix: every topology × every policy, and the
/// one-process shapes with a sole process accumulator, oracles
/// asserted at every step of every schedule, no violations, ≥ 1,000
/// distinct interleavings per seed.
#[test]
fn clean_matrix_is_silent_and_diverse() {
    for seed in BASE_SEEDS {
        assert_matrix_clean(seed);
    }
}

/// CI's extended sweep: `MODEL_CHECK_SEEDS=n` checks `n` extra seeds
/// past the pinned base. A no-op when unset, keeping local runs fast.
#[test]
fn extended_matrix_honours_env() {
    let extra: u64 = std::env::var("MODEL_CHECK_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    for i in 0..extra {
        assert_matrix_clean(0x5EED_0000 + i);
    }
}

/// Replays a failure's minimized trace twice and insists both runs
/// reproduce the recorded violation bit-identically.
fn assert_bit_identical_replay(failure: &naiad_check::Failure) {
    let first = replay(&failure.cfg, failure.seed, &failure.trace);
    let second = replay(&failure.cfg, failure.seed, &failure.trace);
    assert_eq!(
        first.violation.as_ref(),
        Some(&failure.violation),
        "replay diverged from the recorded violation:\n{failure}"
    );
    assert_eq!(
        first.violation, second.violation,
        "replay is nondeterministic"
    );
    assert_eq!(
        first.trace, second.trace,
        "replay trace is nondeterministic"
    );
    assert_eq!(first.applied, second.applied);
}

/// Link reordering breaks per-sender FIFO: the FIFO oracle must fire,
/// and the minimized failure must replay exactly.
#[test]
fn reorder_chaos_is_caught_and_replays() {
    let mut cfg = McConfig::new(Topology::Chain, ProgressMode::Broadcast);
    cfg.chaos = Chaos::ReorderLinks(500);
    let report = explore(&cfg, 3, 40);
    assert!(
        report
            .failures
            .iter()
            .any(|f| f.violation.violation.kind() == ViolationKind::Fifo),
        "reordered links never tripped the FIFO oracle"
    );
    for failure in &report.failures {
        assert_bit_identical_replay(failure);
    }
}

/// Flushing a retirement before its consequences violates §3.3's
/// atomic-batch rule: some worker transiently believes a pointstamp
/// complete while work is still outstanding, and the safety oracle
/// (checked against the omniscient reference tracker) must fire.
#[test]
fn premature_retirement_trips_safety_oracle() {
    let mut cfg = McConfig::new(Topology::Chain, ProgressMode::Local);
    cfg.chaos = Chaos::RetireBeforeConsequence;
    let report = explore(&cfg, 1, 10);
    assert!(
        report
            .failures
            .iter()
            .any(|f| f.violation.violation.kind() == ViolationKind::Safety),
        "premature retirement never tripped the safety oracle"
    );
    for failure in &report.failures {
        assert_bit_identical_replay(failure);
    }
}

/// A sole accumulator holds a retirement that leaves its pointstamp
/// active in its view (`ProgressMode::sole`). Marked so where it has a
/// peer group, each process accumulator holds its workers' share of the
/// input's retirement while counting the other's, and neither flushes:
/// the liveness oracle must fire, and the failure must replay exactly.
#[test]
fn sole_holding_at_every_accumulator_trips_the_liveness_oracle() {
    for mode in [ProgressMode::Local, ProgressMode::LocalGlobal] {
        let mut cfg = McConfig::new(Topology::Chain, mode);
        cfg.chaos = Chaos::SoleEverywhere;
        let report = explore(&cfg, 0xDA7A, 10);
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.violation.violation.kind() == ViolationKind::Liveness),
            "{}: holding every retirement never tripped the liveness oracle",
            mode.figure_label()
        );
        for failure in &report.failures {
            assert_bit_identical_replay(failure);
        }
    }
}

/// Broadcast ("None") splits every flush into one batch per update, and a
/// worker journals a processed batch's retirement before its consequences.
/// The default 2 × 2 shape found no failing schedule of that split in
/// 2,000 for any of four seeds; these 2 × 1 cells found 15 and 60 before
/// the split was ordered positives first.
#[test]
fn broadcast_split_flushes_are_safe_with_one_worker_per_process() {
    for (topology, seed) in [(Topology::Diamond, 0xDA7A), (Topology::NestedLoop, 0x2A)] {
        let mut cfg = McConfig::new(topology, ProgressMode::Broadcast);
        cfg.workers_per_process = 1;
        let report = explore(&cfg, seed, 2_000);
        assert!(
            report.failures.is_empty(),
            "{} at 2 x 1 violated an oracle:\n{}",
            topology.label(),
            report.failures[0]
        );
    }
}

/// Dropped batches leave occurrence counts stranded: some schedule must
/// fail to drain, and the liveness oracle catches it at quiescence.
#[test]
fn dropped_batches_trip_liveness_oracle() {
    let mut cfg = McConfig::new(Topology::Chain, ProgressMode::Broadcast);
    cfg.chaos = Chaos::DropBatch(300);
    let report = explore(&cfg, 5, 20);
    assert!(
        report
            .failures
            .iter()
            .any(|f| f.violation.violation.kind() == ViolationKind::Liveness),
        "dropped batches never tripped the liveness oracle"
    );
    for failure in &report.failures {
        assert_bit_identical_replay(failure);
    }
}

/// Accumulation-policy equivalence (satellite 2): under a pinned
/// regression seed, every policy — and every schedule permutation of
/// batch delivery — yields the *identical* per-worker update journal,
/// and every worker's net applied occurrence deltas exactly cancel the
/// initial seeded input occurrences at quiescence. Policies may only
/// change batching and routing, never the updates themselves.
#[test]
fn policies_are_equivalent_under_permuted_schedules() {
    const PINNED_SEED: u64 = 0xE9_0A11;
    const SALTS: u64 = 5;
    for topology in Topology::ALL {
        let mut reference_journals = None;
        for mode in ALL_MODES {
            let cfg = McConfig::new(topology, mode);
            // `PointstampTable::initialized` seeds +total_workers at the
            // input's epoch-0 stamp outside the batch stream, so at
            // quiescence (empty tables) every worker's net applied
            // deltas must be exactly the negation of that seed — in
            // every mode, under every schedule.
            let total_workers = (cfg.processes * cfg.workers_per_process) as i64;
            let graph = topology.graph();
            let input = graph.input_stages().next().expect("has an input");
            let seed_stamp = Pointstamp::at_vertex(Timestamp::new(0), input);
            let expected: std::collections::HashMap<_, _> =
                [(seed_stamp, -total_workers)].into_iter().collect();
            for salt in 0..SALTS {
                let outcome = naiad_check::run_schedule(&cfg, PINNED_SEED, salt);
                assert!(
                    outcome.violation.is_none(),
                    "{}/{} salt {salt}: {:?}",
                    topology.label(),
                    mode.figure_label(),
                    outcome.violation
                );
                for (worker, applied) in outcome.applied.iter().enumerate() {
                    assert_eq!(
                        applied,
                        &expected,
                        "{}/{} salt {salt}: worker {worker} net applied deltas \
                         must cancel the initial input seed",
                        topology.label(),
                        mode.figure_label(),
                    );
                }
                match &reference_journals {
                    None => reference_journals = Some(outcome.journals),
                    Some(reference) => assert_eq!(
                        reference,
                        &outcome.journals,
                        "{}/{} salt {salt}: journal diverged from reference policy",
                        topology.label(),
                        mode.figure_label()
                    ),
                }
            }
        }
    }
}
