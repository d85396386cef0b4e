//! The run coordinator: one attempt/phase loop under which crash
//! recovery, elastic rescaling and introspection compose.
//!
//! Naiad's fault-tolerance model is a global rollback (§3.4): when any
//! process fails, every process reverts to the last durable checkpoint
//! and replays the inputs logged since. The Falkirk Wheel's observation —
//! rollback recovery is selective replay in logical time — makes a
//! membership change the same operation: replay to a consistent frontier,
//! on a different worker set. So there is one loop, in
//! [`Execution::run`], and three layers a caller may switch on in any
//! combination:
//!
//! * **plain** — [`execute`](super::execute::execute) and its two
//!   siblings bring one cluster up and down and build nothing of what
//!   follows;
//! * **the coordinator loop** — a run is a sequence of *phases*, one per
//!   membership, each a full cluster bring-up retried under a fault
//!   budget ([`Execution::resilient`]). An attempt that dies with an
//!   injected fault ([`ExecuteError::ProcessCrashed`],
//!   [`ExecuteError::LinkFailed`], or a declared
//!   [`ExecuteError::Stalled`]) rolls back to the latest *consistent*
//!   checkpoint — one deposited by **every** worker for the same epoch —
//!   and re-runs the worker closure from the resume epoch. Plain crash
//!   recovery is that loop with no rescale step: a single phase.
//!   [`Execution::elastic`] adds fences between phases;
//! * **per-attempt introspection** — [`Execution::introspect`] taps
//!   every worker's recorder with a per-epoch critical-path fold
//!   ([`crate::introspect`]) for the worker closure of every attempt, and
//!   the coordinator commits each attempt's folds into summaries.
//!
//! # The driver contract
//!
//! The worker closure receives a [`Session`] beside the worker and drives
//! the protocol:
//!
//! 1. construct the dataflow, then [`Session::restore_into`] the worker;
//! 2. advance the inputs to [`Session::resume_epoch`] and feed epochs up
//!    to [`Session::stop_epoch`], replaying [`Session::logged_input`]
//!    batches where they exist and logging fresh ones
//!    ([`Session::log_input`]) where they do not;
//! 3. call [`Session::checkpoint`] whenever [`Session::should_checkpoint`]
//!    says so and a probe confirms the epoch complete.
//!
//! Because operators restore their full state from the checkpoint and
//! epochs are re-fed deterministically from the input log, a recovered or
//! rescaled run produces output bit-identical to a fault-free
//! fixed-membership run — what the `checkpoint_restore`, `rescale` and
//! `chaos_soak` integration tests assert.
//!
//! # The rescale protocol
//!
//! At each planned [`RescaleStep`] the coordinator executes five steps at
//! a closed-epoch *fence*:
//!
//! 1. **Quiesce** — the old membership drains every epoch below the fence;
//!    the progress cores' frontier barrier
//!    ([`PointstampTable::closed_through`](crate::progress::PointstampTable::closed_through))
//!    certifies no pointstamp at or below `fence − 1` is active.
//! 2. **Snapshot** — every old worker shards its keyed state into one
//!    sealed blob per *new* worker
//!    ([`Worker::checkpoint_partitioned`]), reusing the
//!    magic/version/checksum blob format, and deposits the shards with
//!    the coordinator. A plain whole-state blob is deposited too, so an
//!    aborted rescale can fall back to the old membership.
//! 3. **Re-route** — the coordinator reassembles shards by new owner:
//!    new worker `p` receives shard `p` from every old worker, exactly
//!    re-routing exchange partition ownership (`hash % workers`) to the
//!    new set — grow and shrink are the same operation.
//! 4. **Replay** — the new membership restores the shard bundles
//!    ([`Worker::restore_shards`]) and resumes feeding at the fence,
//!    replaying logged input where the log has it.
//! 5. **Re-register** — the new phase's cluster bring-up re-registers the
//!    heartbeat/liveness plane for the new membership on a fabric of its
//!    own, so no message of the old membership can reach it; the session
//!    reports the bumped membership generation.
//!
//! A failure in the migration window never hangs the run: see
//! [`Execution::run`] and [`RescaleOutcome`].

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use naiad_netsim::FabricMetrics;
use naiad_wire::sync::Mutex;
use naiad_wire::Wire;

use super::config::Config;
use super::execute::{execute_inner, ExecuteError};
use super::rescale::{ElasticOptions, MigrationSlot, RescaleOutcome, RescaleStep};
use super::worker::Worker;
use crate::introspect::{CriticalPathSummary, Harness, Observer};
use crate::telemetry::{TelemetryEvent, TelemetrySnapshot};

/// The fault budget and checkpoint cadence of a resilient run
/// ([`Execution::resilient`]), applied to every phase.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryOptions {
    /// Total attempts per phase, including the first. Once exhausted the
    /// coordinator reports [`ExecuteError::RecoveryFailed`].
    pub max_attempts: usize,
    /// Checkpoint cadence in epochs: with cadence `n`, epochs `n-1`,
    /// `2n-1`, … are checkpoint boundaries
    /// (see [`Session::should_checkpoint`]).
    pub checkpoint_every: u64,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            max_attempts: 4,
            checkpoint_every: 1,
        }
    }
}

impl RecoveryOptions {
    /// Sets the attempt budget.
    ///
    /// # Panics
    ///
    /// Panics if `attempts` is zero.
    pub fn max_attempts(mut self, attempts: usize) -> Self {
        assert!(attempts > 0, "at least one attempt");
        self.max_attempts = attempts;
        self
    }

    /// Sets the checkpoint cadence in epochs.
    ///
    /// # Panics
    ///
    /// Panics if `epochs` is zero.
    pub fn checkpoint_every(mut self, epochs: u64) -> Self {
        assert!(epochs > 0, "checkpoint cadence must be positive");
        self.checkpoint_every = epochs;
        self
    }
}

/// Details of the membership change a phase is the *first* phase after,
/// used for telemetry attribution and failure reporting.
#[derive(Debug, Clone, Copy)]
struct MigrationInfo {
    fence: u64,
    from_workers: usize,
    to_workers: usize,
    /// Wall-clock milliseconds the computation was fenced before this
    /// phase's cluster came up (coordinator-measured stall attribution).
    stall_ms: u64,
}

/// What a worker restores at phase start: a plain whole-state blob (same
/// membership, ordinary rollback) or a bundle of migration shards, one
/// per pre-rescale worker (first phase after a fence).
#[derive(Debug, Clone)]
enum Deposit {
    Plain(Vec<u8>),
    Migrated(MigrationInfo, Vec<Vec<u8>>),
}

/// One membership's durable checkpoint store — the stand-in for stable
/// storage, surviving cluster teardown: deposits keyed by
/// `(epoch, worker)`. Re-deposits replace, so a re-run attempt overwrites
/// rather than duplicates — exactly-once by key. A new membership's store
/// starts seeded with the migrated shard bundles at the fence's predecessor.
#[derive(Debug, Default)]
struct Store {
    checkpoints: Mutex<HashMap<u64, HashMap<usize, Deposit>>>,
}

impl Store {
    /// The newest epoch for which **every** worker of this membership
    /// deposited — the only globally consistent rollback target.
    fn consistent_epoch(&self, total_workers: usize) -> Option<u64> {
        self.checkpoints
            .lock()
            .iter()
            .filter(|(_, blobs)| blobs.len() == total_workers)
            .map(|(epoch, _)| *epoch)
            .max()
    }

    fn deposit(&self, epoch: u64, worker: usize, deposit: Deposit) {
        self.checkpoints
            .lock()
            .entry(epoch)
            .or_default()
            .insert(worker, deposit);
    }

    fn get(&self, epoch: u64, worker: usize) -> Option<Deposit> {
        self.checkpoints
            .lock()
            .get(&epoch)
            .and_then(|blobs| blobs.get(&worker))
            .cloned()
    }
}

/// The durable input log, shared across every phase and attempt: encoded
/// record batches keyed by `(epoch, worker, port)`. A rollback to the
/// pre-rescale membership purges entries at or past the fence, since the
/// restored membership re-feeds them itself.
type InputLog = Arc<Mutex<HashMap<(u64, usize, usize), Vec<u8>>>>;

/// Per-attempt handle handed to the worker closure of [`Execution::run`]:
/// the resume point and the durable checkpoint and input-log stores (see
/// the module docs for the driver contract). Cloneable and shareable
/// across worker threads.
#[derive(Clone)]
pub struct Session {
    attempt: usize,
    generation: u64,
    resume_epoch: u64,
    stop_epoch: u64,
    /// `None` when the run is not resilient: nothing would read a
    /// checkpoint.
    checkpoint_every: Option<u64>,
    store: Arc<Store>,
    inputs: InputLog,
    /// `Some` when this phase ends at a rescale fence: the target worker
    /// count and the shard rendezvous.
    outgoing: Option<(usize, Arc<MigrationSlot>)>,
}

impl Session {
    /// Which attempt of the current phase this is (0 = first).
    pub fn attempt(&self) -> usize {
        self.attempt
    }

    /// The membership generation (0 before any rescale).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The first epoch this attempt must feed. `0` on a fresh run; after
    /// a rollback, one past the restored checkpoint's epoch; on the first
    /// phase after a fence, the fence.
    pub fn resume_epoch(&self) -> u64 {
        self.resume_epoch
    }

    /// One past the last epoch this phase feeds: the next fence, or the
    /// elastic run's total — `u64::MAX` when the run has no epoch plan
    /// ([`Execution::elastic`] was not called) and the driver decides
    /// where the input ends.
    pub fn stop_epoch(&self) -> u64 {
        self.stop_epoch
    }

    /// Whether `epoch` is a checkpoint boundary: the configured cadence,
    /// plus — always — the phase's final epoch, which funds both the next
    /// membership's migration shards and the rollback blob. Never, when
    /// the run is not resilient.
    pub fn should_checkpoint(&self, epoch: u64) -> bool {
        self.checkpoint_every
            .is_some_and(|every| (epoch + 1).is_multiple_of(every) || epoch + 1 == self.stop_epoch)
    }

    /// Deposits `worker`'s state for `epoch`: always the plain sealed
    /// blob (in-phase rollback and rescale-abort fallback); additionally,
    /// at the fence's predecessor, the per-new-worker migration shards.
    ///
    /// Call after a probe confirms the epoch complete. At the fence's
    /// predecessor this additionally *quiesces* (protocol step 1): a
    /// probe only certifies drainage upstream of its point, so the
    /// worker steps until the progress cores' frontier barrier holds —
    /// no pointstamp at or below the epoch active at any location —
    /// before sharding state.
    pub fn checkpoint(&self, worker: &mut Worker, epoch: u64) {
        if let Some((to_workers, slot)) = &self.outgoing {
            if epoch + 1 == self.stop_epoch {
                worker.step_until_closed_through(epoch);
                match worker.checkpoint_partitioned(*to_workers) {
                    Ok(shards) => slot.deposit(worker.index(), shards),
                    Err(error) => slot.set_error(error),
                }
            }
        }
        self.store
            .deposit(epoch, worker.index(), Deposit::Plain(worker.checkpoint()));
    }

    /// Restores whatever the store holds for this worker at the resume
    /// point: nothing on a fresh start, the plain blob after an in-phase
    /// rollback, or the migration shard bundle on the first phase after a
    /// fence (recording the RescaleStarted/PartitionMigrated/
    /// RescaleCompleted telemetry as it goes).
    ///
    /// # Panics
    ///
    /// Panics if the deposited bytes fail validation — the stores are
    /// in-memory, so corruption here is a coordinator bug. Migration
    /// tests exercising corrupt-blob rejection use the typed
    /// [`Worker::restore_shards`] path directly.
    pub fn restore_into(&self, worker: &mut Worker) {
        let Some(epoch) = self.resume_epoch.checked_sub(1) else {
            return;
        };
        match self.store.get(epoch, worker.index()) {
            None => {}
            Some(Deposit::Plain(blob)) => worker.restore(&blob),
            Some(Deposit::Migrated(info, shards)) => {
                let recorder = worker.recorder();
                recorder.record(TelemetryEvent::RescaleStarted {
                    epoch: info.fence,
                    from_workers: info.from_workers as u32,
                    to_workers: info.to_workers as u32,
                });
                if let Err(error) = worker.restore_shards(&shards) {
                    panic!("migration shard restore failed: {error}");
                }
                recorder.record(TelemetryEvent::RescaleCompleted {
                    epoch: info.fence,
                    workers: info.to_workers as u32,
                    stalled_ms: info.stall_ms,
                });
            }
        }
    }

    /// Logs the batch `worker` feeds into `input` at `epoch`, replacing
    /// any batch under the same key (exactly-once by key across
    /// attempts).
    pub fn log_input<D: Wire>(&self, epoch: u64, worker: usize, input: usize, records: &Vec<D>) {
        let bytes = naiad_wire::encode_to_vec(records);
        self.inputs.lock().insert((epoch, worker, input), bytes);
    }

    /// The batch logged under `(epoch, worker, input)`, if any — the
    /// replay source for retried attempts, read instead of the source.
    ///
    /// # Panics
    ///
    /// Panics if the logged bytes do not decode as `Vec<D>` (type
    /// confusion, not bit rot: the log is in-memory).
    // lint-allow(NS0004): the type-confusion panic is documented above —
    // the log is in-memory, so a decode miss is a bug, not bit rot.
    pub fn logged_input<D: Wire>(&self, epoch: u64, worker: usize, input: usize) -> Option<Vec<D>> {
        self.inputs
            .lock()
            .get(&(epoch, worker, input))
            .map(|bytes| {
                naiad_wire::decode_from_slice(bytes).expect("input log decoded at a different type")
            })
    }
}

/// One membership phase of a run.
#[derive(Debug)]
pub struct PhaseReport<T> {
    /// Membership generation (0 before any rescale).
    pub generation: u64,
    /// Total workers in this phase.
    pub workers: usize,
    /// First epoch the phase owned.
    pub start_epoch: u64,
    /// One past the last epoch the phase owned.
    pub stop_epoch: u64,
    /// Attempts consumed, including the first.
    pub attempts: usize,
    /// The fault that ended each failed attempt, in order.
    pub recovered_from: Vec<ExecuteError>,
    /// Per-worker results of the successful attempt.
    pub results: Vec<T>,
}

/// The outcome of a successful [`Execution::run`].
#[derive(Debug)]
pub struct RunReport<T> {
    /// Every membership phase, in order (rolled-back phases included). A
    /// run without rescale steps has exactly one.
    pub phases: Vec<PhaseReport<T>>,
    /// How each planned rescale ended, in fence order.
    pub outcomes: Vec<RescaleOutcome>,
    /// Fabric meters of the final phase's successful attempt (fault
    /// counters included).
    pub metrics: Arc<FabricMetrics>,
    /// The final phase's telemetry snapshot, when
    /// [`Config::telemetry`](super::config::Config::telemetry) is on or
    /// the run is introspected — then with
    /// [`TelemetrySnapshot::critical_paths`] filled in from `summaries`.
    pub telemetry: Option<TelemetrySnapshot>,
    /// Per-epoch critical-path summaries of an introspected run, sorted
    /// by epoch: at most one per epoch across every attempt and phase (a
    /// retried attempt's replaces the failed one's from its resume epoch
    /// on), and one for every epoch any attempt computed activity for.
    pub summaries: Vec<CriticalPathSummary>,
}

impl<T> RunReport<T> {
    /// Flattens every phase's per-worker results, in phase order.
    pub fn into_results(self) -> Vec<T> {
        self.phases
            .into_iter()
            .flat_map(|phase| phase.results)
            .collect()
    }
}

/// A run of the cluster under the coordinator: start from a [`Config`],
/// switch on any subset of crash recovery, elastic rescaling and
/// introspection, then [`run`](Execution::run) a worker closure.
///
/// # Examples
///
/// ```
/// use naiad::{Config, Execution, RecoveryOptions};
///
/// let report = Execution::new(Config::single_process(2))
///     .resilient(RecoveryOptions::default())
///     .run(|worker, session| (worker.index(), session.resume_epoch()))
///     .unwrap();
/// assert_eq!(report.phases[0].attempts, 1);
/// assert_eq!(report.into_results(), vec![(0, 0), (1, 0)]);
/// ```
pub struct Execution {
    config: Config,
    recovery: Option<RecoveryOptions>,
    /// The planned membership changes and the epoch count: none and
    /// `u64::MAX` unless [`Execution::elastic`] set them.
    steps: Vec<RescaleStep>,
    total_epochs: u64,
    elastic: Option<ElasticOptions>,
    introspect: bool,
}

impl Execution {
    /// A run on `config`'s membership with no layer switched on: one
    /// attempt, errors surfaced untouched.
    pub fn new(config: Config) -> Self {
        Execution {
            config,
            recovery: None,
            steps: Vec::new(),
            total_epochs: u64::MAX,
            elastic: None,
            introspect: false,
        }
    }

    /// Retries every phase under `options`' fault budget, rolling back to
    /// the latest consistent checkpoint (see the module docs). Takes
    /// precedence over [`ElasticOptions::recovery`].
    ///
    /// Scheduled crashes and partitions are absorbed after the first
    /// failure
    /// ([`FaultPlan::without_schedules`](naiad_netsim::FaultPlan::without_schedules)),
    /// mirroring a failed machine (or flapping switch) replaced by a
    /// healthy one: the restarted cluster keeps its probabilistic lossy
    /// links, but the lost process does not re-crash and the severed link
    /// does not re-sever — a fresh fabric resets the per-link attempt
    /// counters, so a scheduled window left in place would re-fire on
    /// every attempt and recovery could never terminate.
    ///
    /// Stall declarations ([`ExecuteError::Stalled`]) are recoverable too:
    /// a stall is the liveness detector's residual signal (e.g. a
    /// partition with heartbeats disabled), and rollback gives the
    /// computation a fresh fabric to make progress on.
    pub fn resilient(mut self, options: RecoveryOptions) -> Self {
        self.recovery = Some(options);
        self
    }

    /// Computes `total_epochs` epochs, changing membership at each of
    /// `steps`' fences (see the module docs for the protocol). Every
    /// phase is resilient under [`ElasticOptions::recovery`].
    ///
    /// # Panics
    ///
    /// Panics if `total_epochs` is zero, if a fence is not strictly after
    /// the previous step's, or if one is not strictly below
    /// `total_epochs` (a fence at the end would have nothing left to
    /// compute).
    pub fn elastic(
        mut self,
        steps: &[RescaleStep],
        total_epochs: u64,
        options: ElasticOptions,
    ) -> Self {
        assert!(total_epochs > 0, "at least one epoch");
        for pair in steps.windows(2) {
            assert!(
                pair[1].at_epoch > pair[0].at_epoch,
                "rescale fences must be strictly increasing"
            );
        }
        if let Some(last) = steps.last() {
            assert!(
                last.at_epoch < total_epochs,
                "rescale fence {} is not before the final epoch {total_epochs}",
                last.at_epoch,
            );
        }
        self.steps = steps.to_vec();
        self.total_epochs = total_epochs;
        self.elastic = Some(options);
        self
    }

    /// Computes a per-epoch critical path ([`crate::introspect`]) on
    /// every worker of every attempt.
    ///
    /// Telemetry is forced on. Each worker's recorder folds its events
    /// into per-epoch accumulators as they are recorded; when the worker
    /// closure returns or unwinds, the worker merges them into its
    /// attempt's, and after the attempt every epoch it computed yields one
    /// [`CriticalPathSummary`] in [`RunReport::summaries`]. No dataflow
    /// is added: the workers build only the closure's. Summaries are in
    /// the epochs the driver feeds, so a driver that resumes must feed
    /// logical epochs (advance its inputs to [`Session::resume_epoch`]
    /// first) for a retried attempt's summaries to replace the failed
    /// one's.
    pub fn introspect(mut self) -> Self {
        self.introspect = true;
        self
    }

    /// Runs `worker_fn` on every worker of every attempt of every phase.
    ///
    /// Returns [`RunReport`] on success — including rescales that aborted
    /// or rolled back cleanly (inspect [`RunReport::outcomes`]): a phase
    /// that dies retries under its recovery budget, and a post-migration
    /// phase that exhausts it *rolls back to the pre-rescale membership*,
    /// whose store is still consistent at the fence. Fails with
    /// [`ExecuteError::RescaleFailed`], carrying the migration-phase dump,
    /// when a rescale cannot complete and rollback is disabled;
    /// [`ExecuteError::RecoveryFailed`] when a phase exhausts its budget
    /// outside any migration window; and with the attempt's own error when
    /// it is not an injected fault (a plain panic is a bug, surfaced
    /// untouched) or the run is not resilient.
    pub fn run<F, T>(self, worker_fn: F) -> Result<RunReport<T>, ExecuteError>
    where
        F: Fn(&mut Worker, &Session) -> T + Send + Sync + 'static,
        T: Send + 'static,
    {
        let Execution {
            mut config,
            recovery,
            steps,
            total_epochs,
            elastic,
            introspect,
        } = self;
        let budget = recovery.or(elastic.map(|e| e.recovery));
        let rollback_on_abort = elastic.is_none_or(|e| e.rollback_on_abort);
        let certify_rescale = elastic.is_some_and(|e| e.certify);
        let mut observer = introspect.then(|| Observer::new(&mut config));
        let worker_fn = Arc::new(worker_fn);
        let inputs: InputLog = Arc::default();

        let mut store = Arc::new(Store::default());
        // `Some` while a rescale is provisional: what the current phase
        // migrated from, with the pre-rescale membership and its store —
        // the rollback target until the new membership proves itself by
        // completing a phase.
        let mut incoming: Option<(MigrationInfo, (usize, usize), Arc<Store>)> = None;
        let mut phases: Vec<PhaseReport<T>> = Vec::new();
        let mut outcomes: Vec<RescaleOutcome> = Vec::new();
        let mut start_epoch = 0u64;
        let mut step_index = 0usize;
        let mut generation = 0u64;

        loop {
            let outgoing = steps
                .get(step_index)
                .map(|step| (*step, Arc::new(MigrationSlot::default())));
            let stop_epoch = outgoing.as_ref().map_or(total_epochs, |(s, _)| s.at_epoch);
            // The migration deadline tightens the stall watchdog over the
            // migration window (the first phase after a fence).
            let mut phase_config = config.clone();
            if incoming.is_some() {
                if let Some(deadline) = elastic.and_then(|e| e.migration_deadline) {
                    phase_config.stall_timeout = Some(deadline);
                }
            }

            let mut recovered_from: Vec<ExecuteError> = Vec::new();
            let phase_outcome = loop {
                let resume_epoch = store
                    .consistent_epoch(phase_config.total_workers())
                    .map_or(0, |e| e + 1)
                    .max(start_epoch);
                let session = Session {
                    attempt: recovered_from.len(),
                    generation,
                    resume_epoch,
                    stop_epoch,
                    checkpoint_every: budget.map(|b| b.checkpoint_every),
                    store: store.clone(),
                    inputs: inputs.clone(),
                    outgoing: outgoing
                        .as_ref()
                        .map(|(step, slot)| (step.workers(), slot.clone())),
                };
                let f = worker_fn.clone();
                let folds = observer
                    .as_mut()
                    .map(|o| o.attempt(resume_epoch..stop_epoch));
                let attempt_folds = folds.clone();
                let attempt = execute_inner(&phase_config, certify_rescale, move |worker| {
                    let _fold = attempt_folds.as_ref().map(|a| Harness::install(worker, a));
                    f(worker, &session)
                });
                if let (Some(observer), Some(folds)) = (&mut observer, &folds) {
                    observer.commit(folds);
                }
                match attempt {
                    Ok(run) => break Ok(run),
                    Err(err) => {
                        // A plain panic is a bug, not an injected fault,
                        // and a run that is not resilient has no budget:
                        // surface both untouched.
                        let recoverable = matches!(
                            err,
                            ExecuteError::ProcessCrashed { .. }
                                | ExecuteError::LinkFailed { .. }
                                | ExecuteError::Stalled { .. }
                        );
                        let Some(budget) = budget.filter(|_| recoverable) else {
                            return Err(err);
                        };
                        recovered_from.push(err.clone());
                        if recovered_from.len() >= budget.max_attempts {
                            break Err(err);
                        }
                        // Absorb scheduled crashes and partitions (see
                        // `resilient`); probabilistic losses stay.
                        config.faults = config.faults.take().map(|p| p.without_schedules());
                        phase_config.faults.clone_from(&config.faults);
                    }
                }
            };

            match phase_outcome {
                Err(last) => {
                    let attempts = recovered_from.len();
                    let Some((info, membership, old_store)) = incoming.take() else {
                        // No rescale in flight: plain recovery exhaustion.
                        return Err(ExecuteError::RecoveryFailed {
                            attempts,
                            last: Box::new(last),
                        });
                    };
                    if !rollback_on_abort {
                        return Err(ExecuteError::RescaleFailed {
                            epoch: info.fence,
                            from_workers: info.from_workers,
                            to_workers: info.to_workers,
                            dump: format!("phase=resume attempts={attempts}: {last}"),
                        });
                    }
                    outcomes.push(RescaleOutcome::RolledBack {
                        fence: info.fence,
                        to_workers: info.to_workers,
                        cause: last,
                    });
                    // Inputs logged by the abandoned membership were sharded
                    // for its worker set; purge so the old membership re-reads
                    // the source from the fence.
                    inputs.lock().retain(|(epoch, _, _), _| *epoch < info.fence);
                    (config.processes, config.workers_per_process) = membership;
                    store = old_store;
                    start_epoch = info.fence;
                    generation += 1;
                }
                Ok(run) => {
                    phases.push(PhaseReport {
                        generation,
                        workers: phase_config.total_workers(),
                        start_epoch,
                        stop_epoch,
                        attempts: recovered_from.len() + 1,
                        recovered_from,
                        results: run.results,
                    });
                    if let Some((info, ..)) = incoming.take() {
                        // The new membership survived a full phase: the
                        // rescale is committed and the rollback target drops.
                        outcomes.push(RescaleOutcome::Completed {
                            fence: info.fence,
                            from_workers: info.from_workers,
                            to_workers: info.to_workers,
                            stall_ms: info.stall_ms,
                        });
                    }
                    let Some((step, slot)) = outgoing else {
                        let summaries = observer.map(Observer::finish).unwrap_or_default();
                        let mut telemetry = run.telemetry;
                        if let Some(snapshot) = &mut telemetry {
                            snapshot.critical_paths.clone_from(&summaries);
                        }
                        return Ok(RunReport {
                            phases,
                            outcomes,
                            metrics: run.metrics,
                            telemetry,
                            summaries,
                        });
                    };
                    step_index += 1;
                    start_epoch = step.at_epoch;
                    let fence_started = Instant::now();
                    let from_workers = config.total_workers();
                    let to_workers = step.workers();
                    match slot.assemble(from_workers, to_workers) {
                        Err(error) => {
                            if !rollback_on_abort {
                                return Err(ExecuteError::RescaleFailed {
                                    epoch: step.at_epoch,
                                    from_workers,
                                    to_workers,
                                    dump: format!("phase=snapshot: {error}"),
                                });
                            }
                            // Abort without changing membership: the old
                            // store is consistent at the fence's predecessor,
                            // so the old membership continues at the fence.
                            outcomes.push(RescaleOutcome::Aborted {
                                fence: step.at_epoch,
                                error,
                            });
                        }
                        Ok(bundles) => {
                            let info = MigrationInfo {
                                fence: step.at_epoch,
                                from_workers,
                                to_workers,
                                stall_ms: fence_started.elapsed().as_millis() as u64,
                            };
                            let new_store = Arc::new(Store::default());
                            for (worker, bundle) in bundles.into_iter().enumerate() {
                                let deposit = Deposit::Migrated(info, bundle);
                                new_store.deposit(step.at_epoch - 1, worker, deposit);
                            }
                            let membership = (config.processes, config.workers_per_process);
                            let old_store = std::mem::replace(&mut store, new_store);
                            incoming = Some((info, membership, old_store));
                            config.processes = step.processes;
                            config.workers_per_process = step.workers_per_process;
                            generation += 1;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_requires_every_worker_for_consistency() {
        let store = Store::default();
        assert_eq!(store.consistent_epoch(2), None);
        store.deposit(0, 0, Deposit::Plain(vec![1]));
        assert_eq!(store.consistent_epoch(2), None, "worker 1 missing");
        let info = MigrationInfo {
            fence: 1,
            from_workers: 1,
            to_workers: 2,
            stall_ms: 0,
        };
        store.deposit(0, 1, Deposit::Migrated(info, vec![vec![2]]));
        assert_eq!(store.consistent_epoch(2), Some(0));
        // A newer but partial epoch does not advance the rollback target.
        store.deposit(3, 0, Deposit::Plain(vec![3]));
        assert_eq!(store.consistent_epoch(2), Some(0));
        store.deposit(3, 1, Deposit::Plain(vec![4]));
        assert_eq!(store.consistent_epoch(2), Some(3));
    }

    #[test]
    fn session_roundtrips_logs_and_deposits() {
        let mut session = Session {
            attempt: 0,
            generation: 0,
            resume_epoch: 0,
            stop_epoch: u64::MAX,
            checkpoint_every: Some(2),
            store: Arc::default(),
            inputs: InputLog::default(),
            outgoing: None,
        };
        assert!(!session.should_checkpoint(0));
        assert!(session.should_checkpoint(1));
        assert!(session.should_checkpoint(3));
        session.store.deposit(1, 0, Deposit::Plain(vec![9, 9]));
        session.log_input(2, 0, 0, &vec![5u64, 6]);
        // What an attempt resumed at epoch 2 reads: worker 0's blob at the
        // epoch before, nothing for worker 1, and the logged batch.
        assert!(matches!(session.store.get(1, 0), Some(Deposit::Plain(b)) if b == [9, 9]));
        assert!(session.store.get(1, 1).is_none());
        assert_eq!(session.logged_input::<u64>(2, 0, 0), Some(vec![5, 6]));
        assert_eq!(session.logged_input::<u64>(3, 0, 0), None);

        session.checkpoint_every = None;
        assert!(
            !session.should_checkpoint(1),
            "a run that is not resilient never checkpoints"
        );
    }

    #[test]
    fn options_validate() {
        let o = RecoveryOptions::default()
            .max_attempts(2)
            .checkpoint_every(3);
        assert_eq!((o.max_attempts, o.checkpoint_every), (2, 3));
    }

    #[test]
    fn plan_validates_fences() {
        let run = Execution::new(Config::single_process(2)).elastic(
            &[RescaleStep::new(2, 1, 3), RescaleStep::new(4, 1, 1)],
            6,
            ElasticOptions::default(),
        );
        assert_eq!(run.steps.len(), 2);
        assert_eq!(run.total_epochs, 6);
        assert_eq!(run.steps[0].workers(), 3);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn plan_rejects_unordered_fences() {
        let _ = Execution::new(Config::single_process(2)).elastic(
            &[RescaleStep::new(3, 1, 3), RescaleStep::new(3, 1, 1)],
            6,
            ElasticOptions::default(),
        );
    }

    #[test]
    #[should_panic(expected = "not before the final epoch")]
    fn plan_rejects_fence_at_end() {
        let _ = Execution::new(Config::single_process(2)).elastic(
            &[RescaleStep::new(3, 1, 3)],
            3,
            ElasticOptions::default(),
        );
    }
}
