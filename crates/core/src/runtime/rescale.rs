//! Elastic rescaling vocabulary: the planned membership changes
//! ([`RescaleStep`]), their tuning ([`ElasticOptions`]), how each one
//! ended ([`RescaleOutcome`], [`RescaleError`]), and the shard rendezvous
//! between an old membership and its successor. The protocol itself runs
//! in the coordinator loop — see [`coordinator`](super::coordinator).

use std::collections::BTreeMap;
use std::time::Duration;

use naiad_wire::sync::Mutex;

use super::coordinator::RecoveryOptions;
use super::execute::ExecuteError;

/// A typed reason an elastic rescale could not proceed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RescaleError {
    /// An operator registered opaque (non-keyed) state; it has no
    /// partitioning the coordinator could re-route, so the rescale
    /// aborts before touching membership.
    UnmigratableState {
        /// Index of the dataflow holding the state.
        dataflow: usize,
        /// Stage id of the registering operator.
        stage: usize,
    },
    /// Not every pre-rescale worker deposited its migration shards by the
    /// time its phase completed (a worker lost between its final epoch
    /// and its fence checkpoint).
    IncompleteMigration {
        /// Workers that deposited shards.
        deposited: usize,
        /// Workers that were expected to.
        expected: usize,
    },
}

impl std::fmt::Display for RescaleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RescaleError::UnmigratableState { dataflow, stage } => write!(
                f,
                "dataflow {dataflow} stage {stage} registered opaque state; \
                 only keyed state (register_keyed_state) can migrate across a rescale"
            ),
            RescaleError::IncompleteMigration {
                deposited,
                expected,
            } => write!(
                f,
                "only {deposited} of {expected} workers deposited migration shards"
            ),
        }
    }
}

impl std::error::Error for RescaleError {}

/// One planned membership change: at the closed-epoch fence `at_epoch`,
/// move the cluster to `processes × workers_per_process` workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RescaleStep {
    /// The fence: the first epoch the new membership computes. Every
    /// epoch below it is drained by the old membership before state
    /// moves.
    pub at_epoch: u64,
    /// Process count after the step.
    pub processes: usize,
    /// Workers per process after the step.
    pub workers_per_process: usize,
}

impl RescaleStep {
    /// A step to `processes × workers_per_process` workers fenced at
    /// `at_epoch`.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero or the fence is epoch 0 (there
    /// would be no closed epoch to migrate at).
    pub fn new(at_epoch: u64, processes: usize, workers_per_process: usize) -> Self {
        assert!(processes > 0, "at least one process");
        assert!(workers_per_process > 0, "at least one worker per process");
        assert!(at_epoch > 0, "a rescale fence needs a closed epoch before it");
        RescaleStep {
            at_epoch,
            processes,
            workers_per_process,
        }
    }

    /// Total workers after the step.
    pub fn workers(&self) -> usize {
        self.processes * self.workers_per_process
    }
}

/// Tuning for [`Execution::elastic`](super::coordinator::Execution::elastic).
#[derive(Debug, Clone, Copy)]
pub struct ElasticOptions {
    /// Per-phase fault-recovery budget and checkpoint cadence; an explicit
    /// [`Execution::resilient`](super::coordinator::Execution::resilient)
    /// overrides it.
    pub recovery: RecoveryOptions,
    /// Deadline for the migration window (the first phase after a fence:
    /// shard restore plus fence-epoch replay). Installed as the phase's
    /// stall timeout, so an overrunning migration surfaces as a
    /// structured stall → [`ExecuteError::RescaleFailed`] with the
    /// migration-phase dump, never a hang. `None` keeps the base
    /// config's watchdog.
    pub migration_deadline: Option<Duration>,
    /// Whether a failed rescale (unmigratable state, incomplete shards,
    /// or a post-migration phase that exhausts its recovery budget) rolls
    /// back to the pre-rescale membership and continues. When `false`,
    /// the run dies with [`ExecuteError::RescaleFailed`] instead.
    pub rollback_on_abort: bool,
    /// Whether every phase builds graphs with the `NA0006` rescale-safe
    /// certification
    /// ([`AnalysisConfig::rescale_contracts`](crate::analysis::AnalysisConfig::rescale_contracts)),
    /// denying graphs whose state cannot be re-partitioned at build time
    /// instead of aborting mid-rescale. On by default; disable to exercise the runtime
    /// [`RescaleError::UnmigratableState`] defense in depth.
    pub certify: bool,
}

impl Default for ElasticOptions {
    fn default() -> Self {
        ElasticOptions {
            recovery: RecoveryOptions::default(),
            migration_deadline: None,
            rollback_on_abort: true,
            certify: true,
        }
    }
}

impl ElasticOptions {
    /// Sets the per-phase recovery options.
    pub fn recovery(mut self, recovery: RecoveryOptions) -> Self {
        self.recovery = recovery;
        self
    }

    /// Sets the migration-window deadline.
    ///
    /// # Panics
    ///
    /// Panics if the deadline is zero.
    pub fn migration_deadline(mut self, deadline: Duration) -> Self {
        assert!(!deadline.is_zero(), "migration deadline must be positive");
        self.migration_deadline = Some(deadline);
        self
    }

    /// Enables or disables rollback to the pre-rescale membership when a
    /// rescale cannot complete.
    pub fn rollback_on_abort(mut self, enabled: bool) -> Self {
        self.rollback_on_abort = enabled;
        self
    }

    /// Enables or disables the build-time `NA0006` rescale-safe
    /// certification for every phase.
    pub fn certify(mut self, enabled: bool) -> Self {
        self.certify = enabled;
        self
    }
}

/// The rendezvous for one membership change: pre-rescale workers deposit
/// their shard vectors (indexed by new worker) here; the coordinator
/// reassembles them by new owner once the old phase completes. Deposits
/// replace by source worker, so a retried attempt re-depositing the same
/// deterministic shards is idempotent.
#[derive(Debug, Default)]
pub(super) struct MigrationSlot {
    shards: Mutex<BTreeMap<usize, Vec<Vec<u8>>>>,
    error: Mutex<Option<RescaleError>>,
}

impl MigrationSlot {
    pub(super) fn deposit(&self, source: usize, shards: Vec<Vec<u8>>) {
        self.shards.lock().insert(source, shards);
    }

    pub(super) fn set_error(&self, error: RescaleError) {
        self.error.lock().get_or_insert(error);
    }

    /// Reassembles per-new-worker bundles: bundle `p` is shard `p` from
    /// every source worker in worker-index order.
    pub(super) fn assemble(
        &self,
        from_workers: usize,
        to_workers: usize,
    ) -> Result<Vec<Vec<Vec<u8>>>, RescaleError> {
        if let Some(error) = self.error.lock().clone() {
            return Err(error);
        }
        let shards = self.shards.lock();
        if shards.len() != from_workers {
            return Err(RescaleError::IncompleteMigration {
                deposited: shards.len(),
                expected: from_workers,
            });
        }
        let mut bundles = vec![Vec::with_capacity(from_workers); to_workers];
        for per_new in shards.values() {
            debug_assert_eq!(per_new.len(), to_workers);
            for (bundle, shard) in bundles.iter_mut().zip(per_new) {
                bundle.push(shard.clone());
            }
        }
        Ok(bundles)
    }
}

/// How one planned membership change ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RescaleOutcome {
    /// State migrated and the new membership completed at least one
    /// phase.
    Completed {
        /// The fence epoch.
        fence: u64,
        /// Worker count before.
        from_workers: usize,
        /// Worker count after.
        to_workers: usize,
        /// Coordinator-measured milliseconds the run was fenced.
        stall_ms: u64,
    },
    /// The rescale aborted before membership changed (typed reason), and
    /// the old membership continued from the fence.
    Aborted {
        /// The fence epoch.
        fence: u64,
        /// Why the rescale could not proceed.
        error: RescaleError,
    },
    /// Membership changed but the new phase exhausted its recovery
    /// budget; the run rolled back to the pre-rescale membership and
    /// continued from the fence.
    RolledBack {
        /// The fence epoch.
        fence: u64,
        /// Worker count the rescale was moving to.
        to_workers: usize,
        /// The error that ended the new membership's final attempt.
        cause: ExecuteError,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migration_slot_assembles_by_new_owner() {
        let slot = MigrationSlot::default();
        // Two old workers, three new: each old worker deposits three
        // shards; bundle p must hold shard p from both, source-ordered.
        slot.deposit(1, vec![vec![10], vec![11], vec![12]]);
        slot.deposit(0, vec![vec![0], vec![1], vec![2]]);
        let bundles = slot.assemble(2, 3).unwrap();
        assert_eq!(
            bundles,
            vec![
                vec![vec![0], vec![10]],
                vec![vec![1], vec![11]],
                vec![vec![2], vec![12]],
            ]
        );
    }

    #[test]
    fn migration_slot_reports_missing_sources_and_sticky_errors() {
        let slot = MigrationSlot::default();
        slot.deposit(0, vec![vec![1]]);
        assert_eq!(
            slot.assemble(2, 1),
            Err(RescaleError::IncompleteMigration {
                deposited: 1,
                expected: 2
            })
        );
        slot.set_error(RescaleError::UnmigratableState {
            dataflow: 0,
            stage: 4,
        });
        // The first error wins over later ones and over completeness.
        slot.set_error(RescaleError::UnmigratableState {
            dataflow: 9,
            stage: 9,
        });
        slot.deposit(1, vec![vec![2]]);
        assert_eq!(
            slot.assemble(2, 1),
            Err(RescaleError::UnmigratableState {
                dataflow: 0,
                stage: 4
            })
        );
    }
}
