//! The five workloads. Each runs on the real runtime with exactly two
//! worker threads; the worker closures are the load generators (Naiad's
//! inputs are fed by the worker that owns them), so there are no other
//! client threads. Every loop is closed: worker 0 is the client, it
//! holds at most K epochs in flight, and it owns the clock.

pub mod barrier;
pub mod exchange;
pub mod wcc;
pub mod wordcount;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use naiad::{
    execute_with_metrics, execute_with_telemetry, Config, ProbeHandle, TelemetrySnapshot, Worker,
};
use naiad_netsim::TrafficClass;

use crate::probe::Probes;
use crate::trace::{Span, Tracer};

/// How long an execution runs.
#[derive(Debug, Clone, Copy)]
pub enum Length {
    /// A timed window of this many seconds, closed by worker 0.
    Seconds(f64),
    /// Exactly this many epochs (rounds) and no window: the same work in
    /// every run, for the counts that must repeat exactly. Zero epochs is
    /// a set-up-only repetition.
    Epochs(u64),
}

/// What one invocation asks of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub length: Length,
    /// Run under `execute_with_telemetry` with benchmark-side spans.
    pub traced: bool,
}

/// What one execution of a workload measured.
pub struct Outcome {
    /// Rep start (before input generation) to the slowest worker having
    /// built its dataflow, i.e. up to the first record.
    pub setup_s: f64,
    /// The timed window at worker 0 and the operations completed in it
    /// (empty under [`Length::Epochs`]).
    pub wall_s: f64,
    pub ops_timed: u64,
    /// Per-operation latency at worker 0 inside the window, in
    /// completion order, and when each completed (seconds into the
    /// window).
    pub latencies_ms: Vec<f64>,
    pub completed_s: Vec<f64>,
    /// Every worker's speed probes inside the window: when (seconds
    /// into the window) and how long (microseconds).
    pub probes: Vec<Vec<(f64, f64)>>,
    /// The workload's [`Pace::speed_share`].
    pub speed_share: f64,
    /// Operations of the whole execution (warm-up, window, drain): all
    /// of them are checked against the reference.
    pub attempted: u64,
    pub failed: u64,
    /// Records fed per operation by all workers (a constant of the
    /// workload, except for the tweet stream where it is the mean).
    pub records_per_op: f64,
    /// Whole-execution traffic (there is no public mid-run meter).
    pub data_net_bytes: u64,
    pub progress_bytes: u64,
    /// Wall time inside `execute`, for per-layer shares.
    pub exec_wall_s: f64,
    /// `VmHWM` when the timed window opened, i.e. after the same work
    /// in every run. At exit it would scale with the epochs a run got
    /// through, so a faster program would look like a bigger one.
    pub peak_rss_mb: f64,
    pub traced: Option<Traced>,
}

pub struct Traced {
    pub snapshot: TelemetrySnapshot,
    /// Benchmark-side spans, one list per worker.
    pub spans: Vec<Vec<Span>>,
}

/// Runs `name` once: set-up, warm-up, timed window, drain, check.
pub fn run(name: &str, params: Params) -> Result<Outcome, String> {
    match name {
        "exchange_u64" => exchange::run(params),
        "wordcount_text" => wordcount::run(params),
        "barrier_loop" => barrier::run(params),
        "wcc_stream_k1" => wcc::run(&wcc::K1, params),
        "wcc_stream_k128" => wcc::run(&wcc::K128, params),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Performs only the set-up of `name` (thread spawn, dataflow
/// construction), tears it down, and returns its duration.
pub fn setup_only(name: &str, seed: u64) -> Result<f64, String> {
    let params = Params {
        seed,
        length: Length::Epochs(0),
        traced: false,
    };
    run(name, params).map(|outcome| outcome.setup_s)
}

/// Epochs of the fixed-size execution behind `net_bytes_per_record`.
const NET_BYTES_EPOCHS: u64 = 6;

/// `FabricMetrics::network_bytes(Data)` / records fed, over a fixed
/// number of epochs. A timed window holds a different number of epochs
/// in every run and every epoch's keys differ, so its ratio repeats only
/// to four digits; this one repeats bit for bit for a given seed.
pub fn net_bytes_per_record(name: &str, seed: u64) -> Result<f64, String> {
    let params = Params {
        seed,
        length: Length::Epochs(NET_BYTES_EPOCHS),
        traced: false,
    };
    let outcome = run(name, params)?;
    if outcome.failed > 0 {
        return Err(format!(
            "{name}: an operation of the fixed-size execution failed"
        ));
    }
    Ok(outcome.data_net_bytes as f64 / (outcome.attempted as f64 * outcome.records_per_op))
}

/// What every worker closure hands back.
pub struct WorkerOut<C> {
    pub built_at: Instant,
    pub spans: Vec<Span>,
    pub log: ClientLog,
    /// Workload-specific evidence for the correctness check.
    pub check: C,
}

/// `execute` under either entry point, with the traffic totals both
/// expose. Timed runs keep telemetry off; traced runs keep the default
/// event-buffer capacity (aggregate counters stay exact past it, and the
/// overflow is reported as `telemetry.events_dropped`).
pub fn launch<C: Send + 'static>(
    config: Config,
    traced: bool,
    worker_fn: impl Fn(&mut Worker) -> WorkerOut<C> + Send + Sync + 'static,
) -> Result<Launched<C>, String> {
    let start = Instant::now();
    if traced {
        let (outs, snapshot) =
            execute_with_telemetry(config, worker_fn).map_err(|e| e.to_string())?;
        Ok(Launched {
            exec_wall_s: start.elapsed().as_secs_f64(),
            data_net_bytes: snapshot.traffic.data_network.bytes,
            progress_bytes: snapshot.traffic.progress_total.bytes,
            outs,
            snapshot: Some(snapshot),
        })
    } else {
        let (outs, metrics) = execute_with_metrics(config, worker_fn).map_err(|e| e.to_string())?;
        Ok(Launched {
            exec_wall_s: start.elapsed().as_secs_f64(),
            data_net_bytes: metrics.network_bytes(TrafficClass::Data),
            progress_bytes: metrics.total(TrafficClass::Progress, true).bytes,
            outs,
            snapshot: None,
        })
    }
}

pub struct Launched<C> {
    pub outs: Vec<WorkerOut<C>>,
    pub exec_wall_s: f64,
    pub data_net_bytes: u64,
    pub progress_bytes: u64,
    pub snapshot: Option<TelemetrySnapshot>,
}

/// The closed loop's shape.
#[derive(Debug, Clone, Copy)]
pub struct Pace {
    /// Epochs in flight: epoch `e` is fed once `done_through(e - k)`.
    pub k: u64,
    /// Untimed epochs before the window opens (at least `k`, so the
    /// window opens on a full pipeline).
    pub warmup: u64,
    /// An operation slower than this counts as failed. Far above the
    /// slowest operation seen on the reference box: it catches a hang,
    /// not a hiccup.
    pub op_deadline: Duration,
    /// The share of the workload's time that stretches with the speed
    /// probe when a neighbour slows the vCPU; the rest (memory
    /// streaming, waiting for the other worker) does not. Fitted on the
    /// seed commit over 22 runs in quiet and loud hours: 1.0 everywhere
    /// but on `exchange_u64`. See `report::steady`.
    pub speed_share: f64,
}

/// What worker 0 saw, one entry per epoch.
#[derive(Default)]
pub struct ClientLog {
    /// Worker 0 starts on epoch `e`: just before its first record.
    pub started_at: Vec<Instant>,
    /// First observation of `done_through(e)`.
    pub done_at: Vec<Instant>,
    /// The last epoch complete when the window closed.
    pub last_timed: u64,
    /// Epochs fed in the whole execution.
    pub epochs: u64,
    /// `VmHWM` of the process when the timed window opened.
    pub rss_at_open_mb: f64,
    /// This worker's speed probes (every worker keeps them, not only
    /// worker 0).
    pub probes: Probes,
}

/// Runs the closed loop on one worker until worker 0 closes the window.
///
/// Workers must agree on the number of epochs without exchanging a
/// message. Worker 0, at the top of epoch `c` with the window over,
/// publishes `stop_at = c + k` *before* it advances past `c`. A follower
/// reads `stop_at` only after its own `done_through(e - k)` wait, and
/// that wait can only pass for `e = c + k` once worker 0 has advanced
/// past `c` — after the store. So every worker feeds exactly epochs
/// `0..stop_at`.
pub fn closed_loop(
    worker: &mut Worker,
    tr: &mut Tracer,
    probe: &ProbeHandle,
    pace: Pace,
    shared: &Shared,
    mut feed: impl FnMut(&mut Worker, &mut Tracer, u64),
    mut advance: impl FnMut(&mut Tracer, u64),
) -> ClientLog {
    assert!(pace.k >= 1 && pace.warmup >= pace.k);
    let client = worker.index() == 0;
    let mut log = ClientLog::default();
    let mut deadline: Option<Instant> = None;
    let mut epoch = 0u64;
    loop {
        if epoch >= pace.k {
            let target = epoch - pace.k;
            tr.step_until(worker, epoch, || probe.done_through(target));
        }
        if client {
            let now = Instant::now();
            while (log.done_at.len() as u64) < epoch && probe.done_through(log.done_at.len() as u64)
            {
                log.done_at.push(now);
            }
            if let (None, Length::Seconds(seconds)) = (deadline, shared.params.length) {
                if log.done_at.len() as u64 >= pace.warmup {
                    let opened = log.done_at[pace.warmup as usize - 1];
                    deadline = Some(opened + Duration::from_secs_f64(seconds));
                    // Zero if /proc is unreadable; `finish` refuses that.
                    log.rss_at_open_mb = crate::runner::peak_rss_mb().unwrap_or(0.0);
                }
            }
            if deadline.is_some_and(|d| now >= d)
                && shared.stop_at.load(Ordering::SeqCst) == u64::MAX
            {
                log.last_timed = log.done_at.len() as u64 - 1;
                shared.stop_at.store(epoch + pace.k, Ordering::SeqCst);
            }
        }
        if epoch >= shared.stop_at.load(Ordering::SeqCst) {
            break;
        }
        // Before the epoch's clock starts, so that no latency holds it.
        log.probes.maybe(Instant::now());
        tr.open_epoch(epoch);
        if client {
            log.started_at.push(Instant::now());
        }
        feed(worker, tr, epoch);
        advance(tr, epoch + 1);
        epoch += 1;
    }
    tr.close_epoch();
    log.epochs = epoch;
    log
}

/// Steps until every dataflow completes (inputs must be closed).
pub fn drain(worker: &mut Worker, tr: &mut Tracer, epoch: u64) {
    tr.step_until(worker, epoch, || false);
}

/// The timed window of a closed-loop run, from worker 0's log.
pub struct Window {
    pub wall_s: f64,
    pub ops: u64,
    pub latencies_ms: Vec<f64>,
    pub completed_s: Vec<f64>,
    pub late: u64,
}

pub fn window(log: &ClientLog, pace: Pace) -> Result<Window, String> {
    let first = pace.warmup;
    let last = log.last_timed;
    if last < first {
        return Err("the timed window closed before one operation completed".into());
    }
    let opened = log.done_at[first as usize - 1];
    let wall_s = (log.done_at[last as usize] - opened).as_secs_f64();
    let latencies_ms: Vec<f64> = (first..=last)
        .map(|e| (log.done_at[e as usize] - log.started_at[e as usize]).as_secs_f64() * 1e3)
        .collect();
    let completed_s: Vec<f64> = (first..=last)
        .map(|e| (log.done_at[e as usize] - opened).as_secs_f64())
        .collect();
    // Every epoch after the warm-up is held to the deadline, not only
    // the window's.
    let late = log
        .done_at
        .iter()
        .zip(&log.started_at)
        .skip(first as usize)
        .filter(|(done, started)| **done - **started > pace.op_deadline)
        .count() as u64;
    Ok(Window {
        wall_s,
        ops: last - first + 1,
        latencies_ms,
        completed_s,
        late,
    })
}

/// Shared by the workers of one execution.
pub struct Shared {
    pub params: Params,
    /// The number of epochs (rounds) to run: known from the start under
    /// [`Length::Epochs`], `u64::MAX` until worker 0 closes the window
    /// under [`Length::Seconds`].
    pub stop_at: AtomicU64,
    /// The spans' common clock.
    pub base: Instant,
}

impl Shared {
    pub fn new(params: Params) -> Arc<Self> {
        Arc::new(Shared {
            params,
            stop_at: AtomicU64::new(match params.length {
                Length::Seconds(_) => u64::MAX,
                Length::Epochs(epochs) => epochs,
            }),
            base: Instant::now(),
        })
    }

    pub fn tracer(&self) -> Tracer {
        Tracer::new(self.params.traced, self.base)
    }
}

/// Turns a finished execution into its [`Outcome`]. `check` compares
/// the workers' evidence with the reference and returns the number of
/// operations whose output disagrees, and the records fed per operation.
pub fn finish<C>(
    rep_start: Instant,
    params: Params,
    launched: Launched<C>,
    pace: Pace,
    check: impl FnOnce(&[WorkerOut<C>], u64) -> (u64, f64),
) -> Result<Outcome, String> {
    let setup_s = launched
        .outs
        .iter()
        .map(|o| (o.built_at - rep_start).as_secs_f64())
        .fold(0.0, f64::max);
    let mut outcome = Outcome {
        setup_s,
        wall_s: 0.0,
        ops_timed: 0,
        latencies_ms: Vec::new(),
        completed_s: Vec::new(),
        probes: Vec::new(),
        speed_share: pace.speed_share,
        attempted: 0,
        failed: 0,
        records_per_op: 0.0,
        data_net_bytes: launched.data_net_bytes,
        progress_bytes: launched.progress_bytes,
        exec_wall_s: launched.exec_wall_s,
        peak_rss_mb: launched.outs[0].log.rss_at_open_mb,
        traced: None,
    };
    let log = &launched.outs[0].log;
    if log.epochs == 0 {
        return Ok(outcome);
    }
    let mut late = 0;
    if let Length::Seconds(_) = params.length {
        if log.rss_at_open_mb <= 0.0 {
            return Err("VmHWM could not be read from /proc/self/status".into());
        }
        let w = window(log, pace)?;
        outcome.wall_s = w.wall_s;
        outcome.ops_timed = w.ops;
        outcome.latencies_ms = w.latencies_ms;
        outcome.completed_s = w.completed_s;
        late = w.late;
        let opened = log.done_at[pace.warmup as usize - 1];
        let closed = log.done_at[log.last_timed as usize];
        outcome.probes = launched
            .outs
            .iter()
            .map(|out| {
                let probes = &out.log.probes;
                probes
                    .at
                    .iter()
                    .zip(&probes.micros)
                    .filter(|(at, _)| **at >= opened && **at <= closed)
                    .map(|(at, micros)| ((*at - opened).as_secs_f64(), *micros))
                    .collect()
            })
            .collect();
    }
    let (wrong, records_per_op) = check(&launched.outs, log.epochs);
    outcome.attempted = log.epochs;
    outcome.failed = (wrong + late).min(log.epochs);
    outcome.records_per_op = records_per_op;
    outcome.traced = launched.snapshot.map(|snapshot| Traced {
        snapshot,
        spans: launched.outs.into_iter().map(|o| o.spans).collect(),
    });
    Ok(outcome)
}
