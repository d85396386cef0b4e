//! Deterministic model-checker for the distributed progress protocol
//! (§3.3).
//!
//! The thread-based runtime only ever samples the interleavings the OS
//! scheduler happens to produce; this harness *enumerates* them. It
//! drives the pure protocol cores ([`naiad::progress::protocol`]) of a
//! virtual cluster — N workers over P processes, per-process and central
//! accumulators per the [`ProgressMode`] — across seeded schedules of
//! three event types (worker actions, link deliveries, batch
//! applications), checking two oracles at every step:
//!
//! * **Safety** — no worker's local view may ever believe a pointstamp
//!   complete ([`done_through`](naiad::progress::PointstampTable::done_through))
//!   while that pointstamp is
//!   outstanding in an omniscient reference tracker that sees every
//!   journal the instant it is produced. A violated view could deliver a
//!   notification early, which is the §2.3 correctness property.
//! * **Liveness** — once inputs close, every schedule drains to
//!   quiescence: all views empty, the reference empty, no accumulator
//!   holding buffered updates.
//!
//! Per-sender FIFO violations surface as a third, structural oracle.
//!
//! Failures are *replayable*: worker behaviour depends only on
//! `(seed, worker, action-index)` — never on the schedule — so a failing
//! trace (the event sequence) reproduces bit-identically via
//! [`replay`], and a greedy event-deletion shrinker ([`shrink`])
//! minimizes it first. [`Failure`]'s `Display` prints everything needed:
//! seed, schedule salt, configuration, and the minimized trace.
//!
//! ```
//! use naiad_check::{explore, McConfig, Topology};
//! use naiad::progress::ProgressMode;
//!
//! let cfg = McConfig::new(Topology::Chain, ProgressMode::Local);
//! let report = explore(&cfg, 0xC0FFEE, 25);
//! assert!(report.failures.is_empty(), "{}", report.failures[0]);
//! assert!(report.distinct_interleavings > 0);
//! ```

#![forbid(unsafe_code)]

mod sim;
mod topology;

pub use sim::{
    trace_hash, Chaos, Cluster, Event, McConfig, Violation, ViolationKind, ViolationReport,
    MAX_STEPS,
};
pub use topology::Topology;

use std::collections::HashMap;
use std::collections::HashSet;

use naiad::progress::{Pointstamp, ProgressMode, ProgressUpdate};
use naiad_rng::Xorshift;

/// The outcome of one scheduled run (or replay).
#[derive(Debug)]
pub struct RunOutcome {
    /// The events executed, in order.
    pub trace: Vec<Event>,
    /// What an oracle caught, if anything.
    pub violation: Option<ViolationReport>,
    /// Each worker's cumulative net applied deltas at the end of the run
    /// (the quantity all accumulation policies must agree on).
    pub applied: Vec<HashMap<Pointstamp, i64>>,
    /// Each worker's emitted-update journal, in emission order. Depends
    /// only on the seed, never on the schedule or accumulation policy —
    /// the policy-equivalence oracle compares these across modes.
    pub journals: Vec<Vec<ProgressUpdate>>,
}

impl RunOutcome {
    fn finish(cluster: &Cluster, trace: Vec<Event>, violation: Option<ViolationReport>) -> Self {
        RunOutcome {
            trace,
            violation,
            applied: cluster.applied_deltas(),
            journals: cluster.journals(),
        }
    }
}

/// Runs one schedule: events are picked uniformly among the eligible set
/// by `Xorshift::with_salt(seed, salt)`. Distinct salts give distinct
/// interleavings of the *same* worker behaviour (fixed by `seed`).
pub fn run_schedule(cfg: &McConfig, seed: u64, salt: u64) -> RunOutcome {
    let mut cluster = Cluster::new(cfg, seed);
    let mut rng = Xorshift::with_salt(seed, 0x5C4E_D000 ^ salt);
    let mut trace = Vec::new();
    loop {
        let eligible = cluster.eligible();
        if eligible.is_empty() {
            let violation = cluster.check_quiescent();
            return RunOutcome::finish(&cluster, trace, violation);
        }
        let event = eligible[rng.below_usize(eligible.len())];
        trace.push(event);
        let violation = cluster.execute(event).or_else(|| {
            (trace.len() >= MAX_STEPS).then(|| ViolationReport {
                violation: Violation::Liveness {
                    detail: format!("schedule exceeded {MAX_STEPS} steps without quiescing"),
                },
                step: trace.len(),
            })
        });
        if violation.is_some() {
            return RunOutcome::finish(&cluster, trace, violation);
        }
    }
}

/// Replays a trace against a fresh cluster: listed events run in order
/// (steps a shrink made ineligible are skipped), then the run drains
/// deterministically (always the first eligible event) so liveness is
/// still meaningfully evaluated on truncated traces. Fully deterministic
/// given `(cfg, seed, trace)`.
pub fn replay(cfg: &McConfig, seed: u64, trace: &[Event]) -> RunOutcome {
    let mut cluster = Cluster::new(cfg, seed);
    let mut executed = Vec::new();
    let run = |cluster: &mut Cluster, executed: &mut Vec<Event>, event| {
        executed.push(event);
        cluster.execute(event).or_else(|| {
            (executed.len() >= MAX_STEPS).then(|| ViolationReport {
                violation: Violation::Liveness {
                    detail: format!("replay exceeded {MAX_STEPS} steps without quiescing"),
                },
                step: executed.len(),
            })
        })
    };
    for &event in trace {
        if !cluster.is_eligible(event) {
            continue;
        }
        if let Some(violation) = run(&mut cluster, &mut executed, event) {
            return RunOutcome::finish(&cluster, executed, Some(violation));
        }
    }
    loop {
        let eligible = cluster.eligible();
        let Some(&event) = eligible.first() else {
            let violation = cluster.check_quiescent();
            return RunOutcome::finish(&cluster, executed, violation);
        };
        if let Some(violation) = run(&mut cluster, &mut executed, event) {
            return RunOutcome::finish(&cluster, executed, Some(violation));
        }
    }
}

/// Greedy event-deletion shrinking: repeatedly delete chunks (halving
/// from `len/2` down to single events) while the replay still reproduces
/// the same [`ViolationKind`]. Returns the minimized trace; replaying it
/// reproduces the violation bit-identically.
pub fn shrink(cfg: &McConfig, seed: u64, trace: &[Event]) -> Vec<Event> {
    let Some(target) = replay(cfg, seed, trace)
        .violation
        .map(|r| r.violation.kind())
    else {
        return trace.to_vec();
    };
    let reproduces = |candidate: &[Event]| {
        replay(cfg, seed, candidate)
            .violation
            .map(|r| r.violation.kind())
            == Some(target)
    };
    let mut current = trace.to_vec();
    let mut chunk = (current.len() / 2).max(1);
    loop {
        let mut removed_any = false;
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let mut candidate = current.clone();
            candidate.drain(start..end);
            if reproduces(&candidate) {
                current = candidate;
                removed_any = true;
                // Re-test the same start: the window now holds new events.
            } else {
                start = end;
            }
        }
        if chunk == 1 && !removed_any {
            return current;
        }
        if !removed_any {
            chunk = (chunk / 2).max(1);
        }
    }
}

/// A failing schedule, minimized and ready to reproduce.
#[derive(Debug)]
pub struct Failure {
    /// The configuration under which it failed.
    pub cfg: McConfig,
    /// The behaviour seed.
    pub seed: u64,
    /// The schedule salt that first exposed it.
    pub salt: u64,
    /// What the oracle caught on the *minimized* trace.
    pub violation: ViolationReport,
    /// The minimized trace; [`replay`] with `(cfg, seed, trace)`
    /// reproduces `violation` exactly.
    pub trace: Vec<Event>,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "model-check failure: topology={} mode={} shape={}x{} chaos={:?} seed={:#x} salt={}",
            self.cfg.topology.label(),
            self.cfg.mode.figure_label(),
            self.cfg.processes,
            self.cfg.workers_per_process,
            self.cfg.chaos,
            self.seed,
            self.salt,
        )?;
        writeln!(f, "  {}", self.violation)?;
        write!(f, "  minimized trace ({} steps): [", self.trace.len())?;
        for (i, event) in self.trace.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{event}")?;
        }
        write!(
            f,
            "]\n  replay: naiad_check::replay(&cfg, {:#x}, &trace)",
            self.seed
        )
    }
}

/// The result of exploring many schedules of one configuration.
#[derive(Debug)]
pub struct ExploreReport {
    /// Schedules run.
    pub schedules: usize,
    /// Distinct interleavings among them (traces deduplicated by FNV
    /// hash).
    pub distinct_interleavings: usize,
    /// Total events executed across all schedules.
    pub total_events: usize,
    /// Every failing schedule, minimized (shrinking is capped at the
    /// first [`ExploreReport::SHRINK_LIMIT`] failures; later ones keep
    /// their raw traces, which still replay).
    pub failures: Vec<Failure>,
}

impl ExploreReport {
    /// How many failures per exploration get the full shrink treatment.
    pub const SHRINK_LIMIT: usize = 2;
}

/// Explores `schedules` seeded interleavings of one configuration,
/// checking the oracles at every step of every run.
pub fn explore(cfg: &McConfig, seed: u64, schedules: usize) -> ExploreReport {
    let mut seen = HashSet::new();
    let mut total_events = 0;
    let mut failures = Vec::new();
    for salt in 0..schedules as u64 {
        let outcome = run_schedule(cfg, seed, salt);
        seen.insert(trace_hash(&outcome.trace));
        total_events += outcome.trace.len();
        if let Some(found) = outcome.violation {
            let (trace, violation) = if failures.len() < ExploreReport::SHRINK_LIMIT {
                let minimized = shrink(cfg, seed, &outcome.trace);
                let confirmed = replay(cfg, seed, &minimized)
                    .violation
                    .expect("shrink preserves reproduction");
                (minimized, confirmed)
            } else {
                (outcome.trace, found)
            };
            failures.push(Failure {
                cfg: cfg.clone(),
                seed,
                salt,
                violation,
                trace,
            });
        }
    }
    ExploreReport {
        schedules,
        distinct_interleavings: seen.len(),
        total_events,
        failures,
    }
}

/// The full acceptance matrix, `schedules` interleavings per cell: every
/// topology × every accumulation policy on the default 2 × 2 shape, and
/// every topology on the one-process shapes whose process accumulator is
/// sole ([`ProgressMode::sole`]): `Local` on 1 × 2 and 1 × 3, and
/// `LocalGlobal` on 1 × 2 (with a sole central accumulator behind it).
/// Returns each cell's configuration and report.
pub fn explore_matrix(seed: u64, schedules: usize) -> Vec<(McConfig, ExploreReport)> {
    let cells = [
        (ProgressMode::Broadcast, 2, 2),
        (ProgressMode::Local, 2, 2),
        (ProgressMode::Global, 2, 2),
        (ProgressMode::LocalGlobal, 2, 2),
        (ProgressMode::Local, 1, 2),
        (ProgressMode::Local, 1, 3),
        (ProgressMode::LocalGlobal, 1, 2),
    ];
    let mut out = Vec::new();
    for topology in Topology::ALL {
        for (mode, processes, workers_per_process) in cells {
            let cfg = McConfig {
                processes,
                workers_per_process,
                ..McConfig::new(topology, mode)
            };
            let report = explore(&cfg, seed, schedules);
            out.push((cfg, report));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_chain_schedules_quiesce() {
        let cfg = McConfig::new(Topology::Chain, ProgressMode::Broadcast);
        let report = explore(&cfg, 7, 20);
        assert!(
            report.failures.is_empty(),
            "unexpected failure:\n{}",
            report.failures[0]
        );
        assert!(report.distinct_interleavings > 1);
    }

    #[test]
    fn runs_replay_bit_identically() {
        let cfg = McConfig::new(Topology::Diamond, ProgressMode::Local);
        let outcome = run_schedule(&cfg, 11, 3);
        assert!(outcome.violation.is_none());
        let replayed = replay(&cfg, 11, &outcome.trace);
        assert_eq!(replayed.trace, outcome.trace);
        assert_eq!(replayed.violation, outcome.violation);
        assert_eq!(replayed.applied, outcome.applied);
    }

    #[test]
    fn reorder_chaos_trips_the_fifo_oracle() {
        let cfg = McConfig {
            chaos: Chaos::ReorderLinks(500),
            ..McConfig::new(Topology::Chain, ProgressMode::Broadcast)
        };
        let report = explore(&cfg, 3, 40);
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.violation.violation.kind() == ViolationKind::Fifo),
            "reordered links must violate per-sender FIFO"
        );
    }

    #[test]
    fn starved_credits_leave_every_oracle_silent() {
        // Progress traffic is exempt from credit-based flow control
        // (bounding it would deadlock §3.3), so a fully starved data
        // plane must be invisible to the protocol: every schedule stays
        // violation-free and bit-identical to the same schedule without
        // chaos.
        for topology in Topology::ALL {
            for mode in [ProgressMode::Broadcast, ProgressMode::LocalGlobal] {
                let clean = McConfig::new(topology, mode);
                let starved = McConfig {
                    chaos: Chaos::StarveCredits,
                    ..clean.clone()
                };
                let report = explore(&starved, 13, 10);
                assert!(
                    report.failures.is_empty(),
                    "starved credits must be invisible:\n{}",
                    report.failures[0]
                );
                let a = run_schedule(&clean, 13, 4);
                let b = run_schedule(&starved, 13, 4);
                assert_eq!(a.trace, b.trace);
                assert_eq!(a.applied, b.applied);
                assert_eq!(a.journals, b.journals);
            }
        }
    }

    #[test]
    fn starved_credits_are_tallied_but_never_block_delivery() {
        let cfg = McConfig {
            chaos: Chaos::StarveCredits,
            ..McConfig::new(Topology::Chain, ProgressMode::Broadcast)
        };
        let mut cluster = Cluster::new(&cfg, 7);
        while let Some(&event) = cluster.eligible().first() {
            assert!(
                cluster.execute(event).is_none(),
                "oracle fired under starved credits"
            );
            assert!(cluster.steps() <= MAX_STEPS);
        }
        assert!(cluster.starved() > 0, "chaos must observe link traffic");
        assert!(cluster.check_quiescent().is_none());
    }

    #[test]
    fn drop_chaos_trips_the_liveness_oracle() {
        let cfg = McConfig {
            chaos: Chaos::DropBatch(300),
            ..McConfig::new(Topology::Chain, ProgressMode::Broadcast)
        };
        let report = explore(&cfg, 5, 20);
        assert!(
            report
                .failures
                .iter()
                .any(|f| matches!(f.violation.violation.kind(), ViolationKind::Liveness)),
            "dropped batches must leave counts outstanding"
        );
    }
}
