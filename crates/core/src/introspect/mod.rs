//! Online critical-path analysis: every worker folds its own telemetry
//! into per-epoch summaries while the run goes, SnailTrail-style.
//!
//! The paper diagnoses stragglers (§5.3) by reading logs offline. This
//! module does the same analysis as the events are recorded:
//!
//! 1. **Fold at record time** — each worker's [`Recorder`] carries a tap
//!    (`Fold`): it matches every recorded event once and adds it to its
//!    epoch's `EpochAccumulator` in a worker-local map. The tap lives on
//!    the worker's thread, so there is no queue, no lock and nothing to
//!    drop.
//! 2. **Merge once per worker** — when the worker closure returns, or
//!    unwinds, the worker's `Harness` merges its map into its attempt's
//!    shared map under one lock (`EpochAccumulator::absorb`).
//! 3. **Commit per attempt** — after the attempt, the coordinator
//!    finishes the epochs the attempt computed into one
//!    [`CriticalPathSummary`] each. A retried attempt's summaries replace
//!    those of the failed attempt from its resume epoch on; the failed
//!    attempt's summaries below it stay.
//!
//! The tap never touches user streams, dataflows or configuration, so a
//! run with introspection builds the same dataflows and produces the same
//! results as one without.
//!
//! Entry point: [`Execution::introspect`](crate::runtime::Execution::introspect),
//! a per-attempt layer of the run coordinator, so it composes with crash
//! recovery and rescaling. The offline reference ([`offline_reference`])
//! runs the same `Fold` over harvested logs, which is what the golden
//! test checks the online summaries against.
//!
//! [`Recorder`]: crate::telemetry::Recorder

mod activity;

use activity::EpochAccumulator;
pub(crate) use activity::Fold;
pub use activity::{offline_reference, CriticalPathSummary};

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use naiad_wire::sync::Mutex;

use crate::runtime::{Config, Worker};
use crate::telemetry::Recorder;

/// Run-wide introspection state, kept by the coordinator across every
/// attempt and phase of one [`Execution`](crate::runtime::Execution) run.
pub(crate) struct Observer {
    /// Each epoch's summary. Keyed by epoch so a retried attempt that
    /// re-computes an epoch replaces what the failed attempt reported
    /// instead of doubling it.
    summaries: BTreeMap<u64, CriticalPathSummary>,
}

impl Observer {
    /// Forces telemetry on in `config`.
    pub(crate) fn new(config: &mut Config) -> Observer {
        config.telemetry = true;
        Observer {
            summaries: BTreeMap::new(),
        }
    }

    /// Opens an attempt that computes `epochs`: the summaries from its
    /// start on are the ones it recomputes, so they go.
    pub(crate) fn attempt(&mut self, epochs: Range<u64>) -> Arc<Attempt> {
        self.summaries.retain(|epoch, _| *epoch < epochs.start);
        Arc::new(Attempt {
            epochs,
            folded: Mutex::default(),
        })
    }

    /// Finishes what `attempt`'s workers folded into one summary per epoch
    /// it computed. Epochs outside them are start-up noise (slices
    /// scheduled before the driver advanced its inputs to the resume
    /// epoch) or past the phase's stop, and are not reported.
    pub(crate) fn commit(&mut self, attempt: &Attempt) {
        let folded = std::mem::take(&mut *attempt.folded.lock());
        for (epoch, accumulator) in folded.range(attempt.epochs.clone()) {
            self.summaries.insert(*epoch, accumulator.finish(*epoch));
        }
    }

    /// The run's summaries in epoch order.
    pub(crate) fn finish(self) -> Vec<CriticalPathSummary> {
        self.summaries.into_values().collect()
    }
}

/// One attempt's epochs and what its workers folded for them.
pub(crate) struct Attempt {
    epochs: Range<u64>,
    folded: Mutex<BTreeMap<u64, EpochAccumulator>>,
}

/// One worker's part in an attempt: installs the fold as the worker's
/// recorder tap and, when dropped — on return or on unwind, so a failed
/// attempt keeps what it folded — merges it into the attempt.
pub(crate) struct Harness {
    recorder: Recorder,
    attempt: Arc<Attempt>,
}

impl Harness {
    /// Taps `worker`'s recorder for `attempt`. Install before the worker
    /// closure runs, so the fold sees every event it records.
    pub(crate) fn install(worker: &Worker, attempt: &Arc<Attempt>) -> Harness {
        let recorder = worker.recorder();
        recorder.install_tap(Fold::new(u32::try_from(worker.index()).unwrap_or(u32::MAX)));
        Harness {
            recorder,
            attempt: Arc::clone(attempt),
        }
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        if let Some(fold) = self.recorder.take_tap() {
            fold.merge_into(&mut self.attempt.folded.lock());
        }
    }
}
