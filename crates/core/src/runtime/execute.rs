//! Cluster bring-up and tear-down.
//!
//! [`execute`] assembles the fabric, spawns one thread per worker, runs the
//! user's worker closure everywhere, and joins everything down cleanly.
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

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once};
use std::thread;

use naiad_netsim::{Fabric, FabricMetrics};

use super::channels::ProcessRegistry;
use super::config::Config;
use super::flow::FlowRegistry;
use super::liveness::Liveness;
use super::progress_hub::{run_central_accumulator, HubStats, ProcessAccumulator, ProgressLinks};
use super::retry::{EscalationCell, FaultKind, FaultPanic, RetryPolicy};
use super::sync::Mutex;
use super::worker::Worker;
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
    execute_inner(&config, Phase::default(), worker_fn).map(|run| (run.results, run.metrics))
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
    execute_inner(&config, Phase::default(), worker_fn).map(|run| {
        (
            run.results,
            // lint-allow(NS0004): this wrapper forced telemetry on one
            // line up, and execute_inner always harvests when it is on.
            run.telemetry.expect("telemetry enabled yields a snapshot"),
        )
    })
}

/// Per-bring-up state owned by the run coordinator rather than the user's
/// [`Config`]; the plain `execute*` entry points pass the default.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Phase {
    /// Whether [`Worker::dataflow`] analyzes graphs with the `NA0006`
    /// rescale-safe certification enabled (see
    /// [`AnalysisConfig::rescale_contracts`](crate::analysis::AnalysisConfig::rescale_contracts)),
    /// so a graph whose state cannot be re-partitioned is denied at build
    /// time instead of aborting mid-rescale.
    pub(crate) certify_rescale: bool,
}

/// One successful cluster bring-up: worker results, the fabric meters,
/// and — when [`Config::telemetry`] is set — the assembled snapshot.
pub(crate) struct ClusterRun<T> {
    pub(crate) results: Vec<T>,
    pub(crate) metrics: Arc<FabricMetrics>,
    pub(crate) telemetry: Option<TelemetrySnapshot>,
}

/// The shared bring-up/tear-down path behind every way to run.
pub(crate) fn execute_inner<F, T>(
    config: &Config,
    phase: Phase,
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
    let mut fabric = builder.build();
    // lint-allow(NS0004): the builder allocates one endpoint per process
    // (at least one) plus the optional central endpoint.
    let metrics = fabric[0].metrics().clone();
    // lint-allow(NS0004): same builder guarantee as above.
    let clock = fabric[0].clock().clone();
    let shutdown = Arc::new(AtomicBool::new(false));
    let escalation = Arc::new(EscalationCell::default());
    let hub_stats = Arc::new(HubStats::default());
    // Cluster-global credit registry (DESIGN.md §15), shared by every
    // process's workers like the escalation cell; a remote credit return
    // is still admitted by the control plane before the consumer repays
    // it, so crash and partition semantics stay honest.
    let flow = config
        .flow
        .as_ref()
        .map(|fc| Arc::new(FlowRegistry::new(fc.clone())));
    // The per-run slab pool backing every remote encode (DESIGN.md §16).
    // One pool per run keeps gauges exact for tests and isolates runs
    // from each other.
    let slabs = Arc::new(naiad_wire::SlabPool::default());
    // One liveness detector per process (when heartbeats are on), driven by
    // that process's liveness thread; kept here so the snapshot can sum the
    // per-process counters after the join.
    let mut liveness_handles: Vec<Arc<Liveness>> = Vec::new();
    let policy = RetryPolicy::from_config(config);
    let worker_fn = Arc::new(worker_fn);
    // When telemetry is on, worker threads push their harvests here after
    // the closure returns; the snapshot is assembled post-join.
    let hub: Option<Arc<Mutex<Vec<WorkerTelemetry>>>> = config
        .telemetry
        .then(|| Arc::new(Mutex::new(Vec::with_capacity(config.total_workers()))));

    // The central accumulator (if any) owns the extra endpoint.
    let central_handle = if config.progress_mode.global() {
        // lint-allow(NS0004): global progress modes build the fabric with
        // the extra central endpoint appended last.
        let (tx, rx) = fabric.pop().expect("central endpoint allocated").split();
        let net = Arc::new(Mutex::new(tx));
        // The central accumulator resolves dataflow graphs through a
        // registry shared with every process (see below); it is created
        // after the registries, so stash the pieces here.
        Some((rx, net))
    } else {
        None
    };

    // One registry per process for its channel queues, plus this directory
    // of dataflow graphs shared by every process and the central accumulator.
    let directory = Arc::new(ProcessRegistry::default());

    let mut liveness_threads = Vec::new();
    let mut worker_handles = Vec::new();

    for (process, endpoint) in fabric.into_iter().enumerate() {
        // The merged queue carries heartbeats and nothing else: it has a
        // reader only while a liveness thread runs, and is dropped otherwise.
        let (tx, merged, mailboxes) = endpoint.split_mailboxes();
        let net = Arc::new(Mutex::new(tx));
        let registry = if processes == 1 {
            directory.clone()
        } else {
            Arc::new(ProcessRegistry::default())
        };
        let progress_links = Arc::new(ProgressLinks::new(
            process,
            processes,
            net.clone(),
            policy,
            hub_stats.clone(),
        ));
        // Dataflow graphs must be visible to the central accumulator, which
        // reads through `directory`; workers register into both.
        let accumulator = if config.progress_mode.local() {
            Some(Arc::new(Mutex::new(ProcessAccumulator::new(
                process,
                config.progress_mode,
                registry.clone(),
                progress_links.clone(),
                config.total_workers(),
                escalation.clone(),
            ))))
        } else {
            None
        };

        let liveness = config
            .heartbeats
            .then(|| Arc::new(Liveness::new(process, processes, config, clock.clone())));
        if let Some(live) = &liveness {
            liveness_handles.push(live.clone());
            let live = live.clone();
            let net = net.clone();
            let escalation = escalation.clone();
            let shutdown = shutdown.clone();
            liveness_threads.push(
                thread::Builder::new()
                    .name(format!("naiad-liveness-{process}"))
                    .spawn(move || live.run(merged, &net, &escalation, &shutdown))
                    // lint-allow(NS0004): OS thread-spawn failure is
                    // resource exhaustion; unwinding tears down the run.
                    .expect("spawn liveness thread"),
            );
        }

        for (local, mailbox) in mailboxes.into_iter().enumerate() {
            let index = process * config.workers_per_process + local;
            let peers = config.total_workers();
            let config = config.clone();
            let registry = registry.clone();
            let directory = directory.clone();
            let net = net.clone();
            let progress_links = progress_links.clone();
            let accumulator = accumulator.clone();
            let escalation = escalation.clone();
            let worker_fn = worker_fn.clone();
            let hub = hub.clone();
            let liveness = liveness.clone();
            let flow = flow.clone();
            let slabs = slabs.clone();
            worker_handles.push(
                thread::Builder::new()
                    .name(format!("naiad-worker-{index}"))
                    .spawn(move || {
                        let mut worker = Worker::new(
                            index,
                            peers,
                            config,
                            registry,
                            net,
                            mailbox,
                            progress_links,
                            accumulator,
                            directory,
                            escalation,
                            liveness,
                            flow,
                            slabs,
                            phase.certify_rescale,
                        );
                        let result = worker_fn(&mut worker);
                        if let Some(hub) = &hub {
                            if let Some(telemetry) = worker.take_telemetry() {
                                hub.lock().push(telemetry);
                            }
                        }
                        result
                    })
                    // lint-allow(NS0004): same spawn-failure policy as
                    // the liveness thread above.
                    .expect("spawn worker thread"),
            );
        }
    }

    let central_thread = central_handle.map(|(rx, net)| {
        let links = ProgressLinks::new(processes, processes, net, policy, hub_stats.clone());
        let directory = directory.clone();
        let shutdown = shutdown.clone();
        let escalation = escalation.clone();
        let total_workers = config.total_workers();
        let mode = config.progress_mode;
        thread::Builder::new()
            .name("naiad-central-accumulator".to_string())
            .spawn(move || {
                run_central_accumulator(
                    rx,
                    &links,
                    &directory,
                    mode,
                    total_workers,
                    &shutdown,
                    &escalation,
                )
            })
            // lint-allow(NS0004): same spawn-failure policy as the
            // liveness thread above.
            .expect("spawn central accumulator thread")
    });

    fn observe(error: &mut Option<ExecuteError>, e: ExecuteError) {
        match error {
            Some(have) if have.severity() >= e.severity() => {}
            _ => *error = Some(e),
        }
    }
    let mut results = Vec::with_capacity(worker_handles.len());
    let mut error: Option<ExecuteError> = None;
    for (index, handle) in worker_handles.into_iter().enumerate() {
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
            observe(&mut error, ExecuteError::from_fault(kind, escalation.take_detail()));
        }
    }
    shutdown.store(true, Ordering::Release);
    for handle in liveness_threads {
        let _ = handle.join();
    }
    if let Some(handle) = central_thread {
        let _ = handle.join();
    }
    match error {
        Some(e) => Err(e),
        None => {
            let telemetry = hub.map(|hub| {
                let logs = std::mem::take(&mut *hub.lock());
                let mut snap = TelemetrySnapshot::assemble(logs, &metrics);
                snap.hub = HubCounters {
                    central_idle_ticks: hub_stats.central_idle_ticks.load(Ordering::Relaxed),
                    progress_local_deliveries: hub_stats
                        .progress_local_deliveries
                        .load(Ordering::Relaxed),
                    heartbeats_sent: liveness_handles.iter().map(|l| l.beats_sent()).sum(),
                    suspicions: liveness_handles.iter().map(|l| l.suspicions()).sum(),
                    peer_failures: liveness_handles.iter().map(|l| l.failures()).sum(),
                };
                snap.slab = slabs.gauges();
                if let Some(flow) = &flow {
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
    }
}
