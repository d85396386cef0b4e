//! Cluster bring-up and tear-down.
//!
//! [`execute`] assembles the fabric, spawns one thread per worker, runs the
//! user's worker closure everywhere, and joins everything down cleanly.
//! Before any thread starts it builds two values, and every thread reads
//! its state through them: one [`Bringup`] with what all threads of the
//! run share (config, escalation cell, credit registry, slab pool, retry
//! policy, graph directory, hub counters), and one [`Process`] per fabric
//! endpoint with what that endpoint's threads share (send half, channel
//! registry, progress accumulator, failure detector). A worker is built
//! from its index, its process, the bring-up and its mailbox.
//!
//! Each worker's fabric mailbox carries everything other threads send it —
//! data frames and progress batches alike — so a process runs its workers
//! and nothing else. Two threads are the exceptions, each with work no
//! worker can do: with [`Config::heartbeats`] on, one
//! `naiad-liveness-<p>` thread per process beats and judges its peers
//! ([`super::liveness`]), and under a global progress mode the central
//! accumulator runs behind the fabric's extra endpoint.
//!
//! When a [`FaultPlan`](naiad_netsim::FaultPlan) is installed
//! ([`Config::faults`](super::config::Config::faults)), injected faults
//! that survive the retry layer unwind every worker thread via the
//! escalation cell and surface here as typed [`ExecuteError`]s — what the
//! run coordinator's retry loop ([`Execution`](super::coordinator::Execution))
//! recovers from.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once};
use std::thread;

use naiad_netsim::{Fabric, FabricMetrics, NetSender};
use naiad_wire::sync::Mutex;
use naiad_wire::SlabPool;

use super::channels::ProcessRegistry;
use super::config::Config;
use super::flow::FlowRegistry;
use super::liveness::Liveness;
use super::progress_hub::{
    run_central_accumulator, HubStats, CENTRAL_SENDER, PROC_ACC_SENDER_BASE,
};
use super::retry::{EscalationCell, FaultKind, FaultPanic, RetryPolicy};
use super::worker::Worker;
use crate::graph::LogicalGraph;
use crate::progress::{GroupCore, Role};
use crate::telemetry::{HubCounters, TelemetrySnapshot, WorkerTelemetry};

/// Errors surfaced by [`execute`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecuteError {
    /// A worker thread panicked; the payload is the worker index.
    WorkerPanic(usize),
    /// A fabric link kept failing after the configured retry budget.
    LinkFailed {
        /// Sending endpoint.
        src: usize,
        /// Receiving endpoint.
        dst: usize,
    },
    /// A simulated process crashed (scheduled by the fault plan or
    /// injected at runtime).
    ProcessCrashed {
        /// The crashed process.
        process: usize,
    },
    /// The stall watchdog fired: pointstamps were outstanding but no
    /// frontier or occurrence change happened within the configured
    /// [`stall_timeout`](super::config::Config::stall_timeout). Carries
    /// the structured `NAIAD_DEBUG`-style state dump captured at
    /// declaration time, so a wedged cluster reports *what* it was
    /// waiting on instead of hanging.
    Stalled {
        /// The worker whose watchdog fired first.
        worker: usize,
        /// Structured state dump (frontier, outstanding pointstamps,
        /// step counters, recent telemetry).
        dump: String,
    },
    /// Coordinated recovery gave up (see
    /// [`Execution::resilient`](super::coordinator::Execution::resilient)).
    RecoveryFailed {
        /// Recovery attempts consumed, including the initial run.
        attempts: usize,
        /// The error that ended the final attempt.
        last: Box<ExecuteError>,
    },
    /// An elastic rescale could not complete and rollback was disabled
    /// (see [`Execution::elastic`](super::coordinator::Execution::elastic)): either
    /// the migration window exceeded its deadline or budget, or the state
    /// could not be re-partitioned. Carries the migration-phase dump so a
    /// wedged rescale reports *where* in the protocol it died instead of
    /// hanging.
    RescaleFailed {
        /// The fence epoch of the failed rescale.
        epoch: u64,
        /// Worker count before the rescale.
        from_workers: usize,
        /// Worker count the rescale was moving to.
        to_workers: usize,
        /// Structured migration-phase dump: the protocol phase that
        /// failed plus the underlying error (including any stall dump).
        dump: String,
    },
}

impl std::fmt::Display for ExecuteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecuteError::WorkerPanic(w) => write!(f, "worker {w} panicked"),
            ExecuteError::LinkFailed { src, dst } => {
                write!(f, "fabric link {src} → {dst} failed after all retries")
            }
            ExecuteError::ProcessCrashed { process } => {
                write!(f, "process {process} crashed")
            }
            ExecuteError::Stalled { worker, dump } => {
                write!(f, "global stall declared by worker {worker}")?;
                if !dump.is_empty() {
                    write!(f, "\n{dump}")?;
                }
                Ok(())
            }
            ExecuteError::RecoveryFailed { attempts, last } => {
                write!(f, "recovery failed after {attempts} attempts: {last}")
            }
            ExecuteError::RescaleFailed {
                epoch,
                from_workers,
                to_workers,
                dump,
            } => {
                write!(
                    f,
                    "rescale {from_workers} → {to_workers} workers at epoch {epoch} failed"
                )?;
                if !dump.is_empty() {
                    write!(f, "\n{dump}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ExecuteError {}

impl ExecuteError {
    /// Classifies a raised fault; `detail` (the escalation cell's
    /// diagnostic) becomes the stall dump when the fault is a stall.
    fn from_fault(kind: FaultKind, detail: Option<String>) -> Self {
        match kind {
            FaultKind::LinkFailed { src, dst } => ExecuteError::LinkFailed { src, dst },
            FaultKind::ProcessCrashed { process } => ExecuteError::ProcessCrashed { process },
            FaultKind::Stalled { worker } => ExecuteError::Stalled {
                worker,
                dump: detail.unwrap_or_default(),
            },
        }
    }

    /// Ranking for reporting: a process crash explains link failures,
    /// stalls, and secondary panics, so it wins; link failures beat
    /// stalls (the broken link explains the stuck frontier), which beat
    /// generic panics.
    fn severity(&self) -> u8 {
        match self {
            ExecuteError::RescaleFailed { .. } => 5,
            ExecuteError::RecoveryFailed { .. } => 4,
            ExecuteError::ProcessCrashed { .. } => 3,
            ExecuteError::LinkFailed { .. } => 2,
            ExecuteError::Stalled { .. } => 1,
            ExecuteError::WorkerPanic(_) => 0,
        }
    }
}

/// Silences the default panic report for [`FaultPanic`] unwinds: injected
/// faults are expected control flow for the recovery machinery, not bugs
/// worth a backtrace. All other panics reach the previous hook untouched.
fn install_fault_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<FaultPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

/// Runs `worker_fn` on every worker of a simulated Naiad cluster and
/// returns the per-worker results in worker-index order.
///
/// The closure typically builds one or more dataflows, feeds inputs, and
/// steps the worker to completion — see the crate-level example.
///
/// # Examples
///
/// ```
/// use naiad::runtime::Config;
///
/// let sums = naiad::execute(Config::processes_and_workers(2, 2), |worker| {
///     worker.index() as u64
/// })
/// .unwrap();
/// assert_eq!(sums, vec![0, 1, 2, 3]);
/// ```
pub fn execute<F, T>(config: Config, worker_fn: F) -> Result<Vec<T>, ExecuteError>
where
    F: Fn(&mut Worker) -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    execute_with_metrics(config, worker_fn).map(|(results, _)| results)
}

/// Like [`execute`], additionally returning the fabric's traffic meters so
/// benchmarks can report exchanged data and progress bytes (Figures 6a,
/// 6c) and fault-injection experiments can read the fault counters.
// By-value `Config` is deliberate API ergonomics: callers build the config
// inline (`execute_with_metrics(Config::single_process(2).telemetry(true), …)`)
// and the function owns the cluster lifecycle it describes.
#[allow(clippy::needless_pass_by_value)]
pub fn execute_with_metrics<F, T>(
    config: Config,
    worker_fn: F,
) -> Result<(Vec<T>, Arc<FabricMetrics>), ExecuteError>
where
    F: Fn(&mut Worker) -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    execute_inner(&config, false, worker_fn).map(|run| (run.results, run.metrics))
}

/// Like [`execute`], with telemetry forced on: returns the unified
/// [`TelemetrySnapshot`] — per-worker event logs and counters,
/// per-operator schedule time and record counts, frontier probes, and
/// fabric traffic totals — assembled after the cluster joins.
pub fn execute_with_telemetry<F, T>(
    config: Config,
    worker_fn: F,
) -> Result<(Vec<T>, TelemetrySnapshot), ExecuteError>
where
    F: Fn(&mut Worker) -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    let config = config.telemetry(true);
    execute_inner(&config, false, worker_fn).map(|run| {
        (
            run.results,
            // lint-allow(NS0004): this wrapper forced telemetry on one
            // line up, and execute_inner always harvests when it is on.
            run.telemetry.expect("telemetry enabled yields a snapshot"),
        )
    })
}

/// What every thread of one bring-up shares, built before any of them
/// starts and handed to each through an `Arc`: the run's configuration
/// and the cluster-wide state no one process owns.
pub(crate) struct Bringup {
    pub(crate) config: Config,
    /// Cluster-global fault slot, polled by every worker each step so all
    /// of them unwind when any thread escalates an injected fault.
    pub(crate) escalation: EscalationCell,
    /// Cluster-global credit registry (DESIGN.md §15), `None` with flow
    /// control off. A remote credit return is still admitted by the
    /// control plane before the consumer repays it, so crash and partition
    /// semantics stay honest.
    pub(crate) flow: Option<FlowRegistry>,
    /// The slab pool backing every remote encode (DESIGN.md §16). One pool
    /// per run keeps gauges exact for tests and isolates runs from each
    /// other.
    pub(crate) slabs: Arc<SlabPool>,
    /// Retry budget for sends over the faulting fabric.
    pub(crate) policy: RetryPolicy,
    /// The graph directory: every dataflow's logical graph, registered by
    /// the workers that build it and read by the accumulators.
    graphs: Mutex<HashMap<usize, Arc<LogicalGraph>>>,
    pub(crate) hub_stats: HubStats,
    /// Whether [`Worker::dataflow`] analyzes graphs with the `NA0006`
    /// rescale-safe certification enabled (see
    /// [`AnalysisConfig::rescale_contracts`](crate::analysis::AnalysisConfig::rescale_contracts)),
    /// so a graph whose state cannot be re-partitioned is denied at build
    /// time instead of aborting mid-rescale. Set by the run coordinator
    /// for elastic runs.
    pub(crate) certify_rescale: bool,
    /// Raised once the workers have joined, for the threads that are not
    /// workers.
    pub(crate) shutdown: AtomicBool,
}

impl Bringup {
    pub(crate) fn new(config: &Config, certify_rescale: bool) -> Self {
        Bringup {
            config: config.clone(),
            escalation: EscalationCell::default(),
            flow: config.flow.clone().map(FlowRegistry::new),
            slabs: Arc::default(),
            policy: RetryPolicy::from_config(config),
            graphs: Mutex::default(),
            hub_stats: HubStats::default(),
            certify_rescale,
            shutdown: AtomicBool::new(false),
        }
    }

    /// Publishes a dataflow's logical graph so the accumulators can reason
    /// about its pointstamps.
    pub(crate) fn register_dataflow(&self, id: usize, graph: Arc<LogicalGraph>) {
        self.graphs.lock().entry(id).or_insert(graph);
    }

    /// The logical graph of a registered dataflow.
    pub(crate) fn dataflow_graph(&self, id: usize) -> Option<Arc<LogicalGraph>> {
        self.graphs.lock().get(&id).cloned()
    }
}

/// One fabric endpoint's shared state, built before its threads start and
/// handed whole to each of them: a process's workers and liveness thread,
/// or the central accumulator.
pub(crate) struct Process {
    /// The endpoint: a process, or `processes` for the central
    /// accumulator's.
    pub(crate) index: usize,
    /// The endpoint's send half, shared by everything that sends from it.
    pub(crate) net: Mutex<NetSender>,
    /// The queues between the process's workers.
    pub(crate) registry: ProcessRegistry,
    /// The endpoint's progress accumulator (§3.3): a process's under the
    /// local progress modes, and the central one's under the global modes.
    /// Lock order: this before `net`.
    pub(super) accumulator: Option<Mutex<GroupCore>>,
    /// The process's heartbeat failure detector, when
    /// [`Config::heartbeats`] is on.
    pub(crate) liveness: Option<Liveness>,
}

impl Process {
    pub(crate) fn new(
        index: usize,
        net: NetSender,
        bringup: &Bringup,
        liveness: Option<Liveness>,
    ) -> Self {
        let config = &bringup.config;
        let mode = config.progress_mode;
        let core = |sender, role| {
            Mutex::new(GroupCore::new(
                sender,
                mode.hop(role),
                config.total_workers(),
            ))
        };
        let accumulator = if index == config.processes {
            Some(core(CENTRAL_SENDER, Role::CentralAccumulator))
        } else {
            mode.local().then(|| {
                core(
                    PROC_ACC_SENDER_BASE + index as u32,
                    Role::ProcessAccumulator,
                )
            })
        };
        Process {
            index,
            net: Mutex::new(net),
            registry: ProcessRegistry::default(),
            accumulator,
            liveness,
        }
    }
}

/// One successful cluster bring-up: worker results, the fabric meters,
/// and — when [`Config::telemetry`] is set — the assembled snapshot.
pub(crate) struct ClusterRun<T> {
    pub(crate) results: Vec<T>,
    pub(crate) metrics: Arc<FabricMetrics>,
    pub(crate) telemetry: Option<TelemetrySnapshot>,
}

/// Starts a thread of the run under `name`.
fn spawn<T: Send + 'static>(
    name: String,
    body: impl FnOnce() -> T + Send + 'static,
) -> thread::JoinHandle<T> {
    thread::Builder::new()
        .name(name)
        .spawn(body)
        // lint-allow(NS0004): OS thread-spawn failure is resource
        // exhaustion; unwinding tears down the run.
        .expect("spawn a run thread")
}

/// The shared bring-up/tear-down path behind every way to run.
pub(crate) fn execute_inner<F, T>(
    config: &Config,
    certify_rescale: bool,
    worker_fn: F,
) -> Result<ClusterRun<T>, ExecuteError>
where
    F: Fn(&mut Worker) -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    install_fault_panic_hook();
    let processes = config.processes;
    let endpoints = processes + usize::from(config.progress_mode.global());
    let mut builder = Fabric::builder(endpoints).mailboxes(config.workers_per_process);
    if let Some(latency) = &config.latency {
        builder = builder.latency(latency.clone());
    }
    if let Some(faults) = &config.faults {
        builder = builder.faults(faults.clone());
    }
    let fabric = builder.build();
    // lint-allow(NS0004): the builder allocates one endpoint per process
    // (at least one) plus the optional central endpoint.
    let metrics = fabric[0].metrics().clone();
    // lint-allow(NS0004): same builder guarantee as above.
    let clock = fabric[0].clock().clone();
    let bringup = Arc::new(Bringup::new(config, certify_rescale));
    let worker_fn = Arc::new(worker_fn);
    // When telemetry is on, worker threads push their harvests here after
    // the closure returns; the snapshot is assembled post-join.
    let harvest: Option<Arc<Mutex<Vec<WorkerTelemetry>>>> = config
        .telemetry
        .then(|| Arc::new(Mutex::new(Vec::with_capacity(config.total_workers()))));

    // Every endpoint's `Process`, kept for the snapshot's liveness counters.
    let mut ends: Vec<Arc<Process>> = Vec::with_capacity(endpoints);
    let mut helpers = Vec::new();
    let mut workers = Vec::new();
    for (p, endpoint) in fabric.into_iter().enumerate() {
        // A process's merged queue carries heartbeats and nothing else: it
        // has a reader only while a liveness thread runs, and is dropped
        // otherwise. The central endpoint's carries the batches the
        // processes send it.
        let (tx, merged, mailboxes) = endpoint.split_mailboxes();
        let liveness = (config.heartbeats && p < processes)
            .then(|| Liveness::new(p, processes, config, clock.clone()));
        let process = Arc::new(Process::new(p, tx, &bringup, liveness));
        ends.push(process.clone());
        if p == processes {
            let bringup = bringup.clone();
            helpers.push(spawn("naiad-central-accumulator".to_string(), move || {
                run_central_accumulator(merged, &process, &bringup);
            }));
            continue;
        }
        if process.liveness.is_some() {
            let (process, bringup) = (process.clone(), bringup.clone());
            helpers.push(spawn(format!("naiad-liveness-{p}"), move || {
                if let Some(live) = &process.liveness {
                    live.run(merged, &process.net, &bringup);
                }
            }));
        }
        for (local, mailbox) in mailboxes.into_iter().enumerate() {
            let index = p * config.workers_per_process + local;
            let (process, bringup) = (process.clone(), bringup.clone());
            let (worker_fn, harvest) = (worker_fn.clone(), harvest.clone());
            workers.push(spawn(format!("naiad-worker-{index}"), move || {
                let mut worker = Worker::new(index, process, bringup, mailbox);
                let result = worker_fn(&mut worker);
                if let Some(harvest) = &harvest {
                    if let Some(telemetry) = worker.take_telemetry() {
                        harvest.lock().push(telemetry);
                    }
                }
                result
            }));
        }
    }

    fn observe(error: &mut Option<ExecuteError>, e: ExecuteError) {
        match error {
            Some(have) if have.severity() >= e.severity() => {}
            _ => *error = Some(e),
        }
    }
    let escalation = &bringup.escalation;
    let mut results = Vec::with_capacity(workers.len());
    let mut error: Option<ExecuteError> = None;
    for (index, handle) in workers.into_iter().enumerate() {
        match handle.join() {
            Ok(result) => results.push(result),
            Err(payload) => {
                let e = match payload.downcast_ref::<FaultPanic>() {
                    Some(FaultPanic(kind)) => {
                        ExecuteError::from_fault(*kind, escalation.take_detail())
                    }
                    None => ExecuteError::WorkerPanic(index),
                };
                observe(&mut error, e);
            }
        }
    }
    // A raised fault explains secondary panics even in workers that
    // happened to exit before polling the cell.
    if error.is_some() {
        if let Some(kind) = escalation.check() {
            observe(
                &mut error,
                ExecuteError::from_fault(kind, escalation.take_detail()),
            );
        }
    }
    bringup.shutdown.store(true, Ordering::Release);
    for handle in helpers {
        let _ = handle.join();
    }
    if let Some(e) = error {
        return Err(e);
    }
    let telemetry = harvest.map(|harvest| {
        let logs = std::mem::take(&mut *harvest.lock());
        let mut snap = TelemetrySnapshot::assemble(logs, &metrics);
        let detectors = || ends.iter().filter_map(|p| p.liveness.as_ref());
        let stats = &bringup.hub_stats;
        snap.hub = HubCounters {
            central_idle_ticks: stats.central_idle_ticks.load(Ordering::Relaxed),
            progress_local_deliveries: stats.progress_local_deliveries.load(Ordering::Relaxed),
            heartbeats_sent: detectors().map(Liveness::beats_sent).sum(),
            suspicions: detectors().map(Liveness::suspicions).sum(),
            peer_failures: detectors().map(Liveness::failures).sum(),
        };
        snap.slab = bringup.slabs.gauges();
        if let Some(flow) = &bringup.flow {
            snap.flow = crate::telemetry::FlowGauges {
                enabled: true,
                in_flight_bytes: flow.in_flight_bytes(),
                peak_in_flight_bytes: flow.peak_in_flight_bytes(),
                credit_waits: flow.credit_waits(),
                credit_wait_ns: flow.credit_wait_ns(),
                credit_returns: flow.returns(),
                overdrafts: flow.overdrafts(),
                shed_batches: flow.shed_batches(),
                shed_records: flow.shed_records(),
                shed_bytes: flow.shed_bytes(),
            };
        }
        snap
    });
    Ok(ClusterRun {
        results,
        metrics,
        telemetry,
    })
}
