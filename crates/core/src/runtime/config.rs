//! Runtime configuration.

use std::time::Duration;

use naiad_netsim::{FaultPlan, LatencyModel};

use super::flow::FlowConfig;
use crate::progress::ProgressMode;

/// Configuration for [`execute`](crate::runtime::execute::execute) and
/// [`Execution`](crate::runtime::Execution).
///
/// A Naiad cluster is a set of *processes*, each hosting several *workers*
/// (§3, Figure 5). This reproduction hosts all processes inside one OS
/// process: workers in the same process exchange typed records through
/// shared-memory queues; workers in different processes exchange serialized
/// bytes through the `naiad-netsim` fabric, exactly as the paper's
/// processes exchange bytes over TCP.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of simulated processes (network endpoints).
    pub processes: usize,
    /// Worker threads per process.
    pub workers_per_process: usize,
    /// Progress-protocol accumulation topology (§3.3, Figure 6c).
    pub progress_mode: ProgressMode,
    /// Records buffered per destination before an exchange channel emits a
    /// batch (Naiad aggregates messages at the application level, §3.5).
    pub batch_size: usize,
    /// Optional delivery-latency injection on every fabric link (§3.5
    /// micro-straggler emulation). The copy of a progress batch for the
    /// flushing process itself never enters a link and is not delayed.
    pub latency: Option<LatencyModel>,
    /// Optional deterministic fault-injection plan for the fabric (§3.4
    /// evaluation: drops, duplicates, partitions, crashes).
    pub faults: Option<FaultPlan>,
    /// How many times a transient send failure (drop, partition) is
    /// retried before the fault escalates — the stand-in for TCP
    /// retransmission over the simulated wire.
    pub send_retries: u32,
    /// Whether workers record structured telemetry
    /// ([`crate::telemetry`]). Off by default: no event buffer is
    /// allocated and every record call is a single branch. The
    /// `NAIAD_DEBUG` env var also enables recording (for the structured
    /// state dump) regardless of this flag.
    pub telemetry: bool,
    /// Event-buffer capacity per worker when telemetry is enabled.
    /// Aggregate counters stay exact even after the buffer fills.
    pub telemetry_capacity: usize,
    /// Whether processes exchange heartbeats and run the peer failure
    /// detector (§3.4/§3.5 liveness machinery), on one liveness thread per
    /// process. Off by default: with no detector, a crashed or partitioned
    /// peer that never faults a send is only caught by the stall watchdog,
    /// and a process runs no thread but its workers.
    pub heartbeats: bool,
    /// Cadence of heartbeats: one to every peer per interval, whether or
    /// not other traffic flows. Heartbeats are the only proof of life: data
    /// and progress go to the workers' mailboxes, past the detector.
    pub heartbeat_interval: Duration,
    /// Silence after which a peer is marked *suspected* (telemetry only;
    /// nothing unwinds yet).
    pub heartbeat_suspect_after: Duration,
    /// Silence after which a peer is declared *failed*, escalating into
    /// the typed-error → coordinated-rollback path. Detection latency is
    /// bounded by this threshold plus one detector tick.
    pub heartbeat_fail_after: Duration,
    /// Wall-clock bound on frontier inactivity while pointstamps are
    /// outstanding: when exceeded, the worker declares a global stall
    /// (typed [`ExecuteError::Stalled`](crate::runtime::ExecuteError))
    /// instead of idling forever. `None` disables the watchdog.
    pub stall_timeout: Option<Duration>,
    /// Credit-based data-plane flow control ([`crate::runtime::flow`],
    /// DESIGN.md §15). `None` (the default) leaves every data queue
    /// unbounded — today's behavior, bit for bit.
    pub flow: Option<FlowConfig>,
}

impl Config {
    /// A single-process configuration with `workers` worker threads.
    pub fn single_process(workers: usize) -> Self {
        Config::processes_and_workers(1, workers)
    }

    /// A multi-process configuration.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn processes_and_workers(processes: usize, workers_per_process: usize) -> Self {
        assert!(processes > 0, "at least one process");
        assert!(workers_per_process > 0, "at least one worker per process");
        Config {
            processes,
            workers_per_process,
            progress_mode: ProgressMode::default(),
            batch_size: 1024,
            latency: None,
            faults: None,
            send_retries: 24,
            telemetry: false,
            telemetry_capacity: 65_536,
            heartbeats: false,
            heartbeat_interval: Duration::from_millis(10),
            heartbeat_suspect_after: Duration::from_millis(50),
            heartbeat_fail_after: Duration::from_millis(200),
            stall_timeout: Some(Duration::from_secs(30)),
            flow: None,
        }
    }

    /// Enables credit-based data-plane flow control with the given
    /// budget, wait bound, thresholds, and shedding policy.
    pub fn flow(mut self, flow: FlowConfig) -> Self {
        self.flow = Some(flow);
        self
    }

    /// Enables (or disables) structured telemetry recording.
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Sets the per-worker event-buffer capacity.
    ///
    /// # Panics
    ///
    /// Panics if `events` is zero.
    pub fn telemetry_capacity(mut self, events: usize) -> Self {
        assert!(events > 0, "telemetry capacity must be positive");
        self.telemetry_capacity = events;
        self
    }

    /// Sets the progress-protocol mode.
    pub fn progress_mode(mut self, mode: ProgressMode) -> Self {
        self.progress_mode = mode;
        self
    }

    /// Sets the exchange batch size.
    ///
    /// # Panics
    ///
    /// Panics if `records` is zero.
    pub fn batch_size(mut self, records: usize) -> Self {
        assert!(records > 0, "batch size must be positive");
        self.batch_size = records;
        self
    }

    /// Injects a latency model on every fabric link.
    pub fn latency(mut self, model: LatencyModel) -> Self {
        self.latency = Some(model);
        self
    }

    /// Installs a fault-injection plan on the fabric.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Sets the transient-send retry budget.
    pub fn send_retries(mut self, retries: u32) -> Self {
        self.send_retries = retries;
        self
    }

    /// Enables (or disables) heartbeat emission and the peer failure
    /// detector.
    pub fn heartbeats(mut self, enabled: bool) -> Self {
        self.heartbeats = enabled;
        self
    }

    /// Sets the heartbeat cadence and derives proportional detection
    /// thresholds: suspect after 5 intervals of silence, fail after 20.
    /// Use [`heartbeat_timeouts`](Self::heartbeat_timeouts) afterwards to
    /// override the thresholds independently.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn heartbeat_interval(mut self, interval: Duration) -> Self {
        assert!(!interval.is_zero(), "heartbeat interval must be positive");
        self.heartbeat_interval = interval;
        self.heartbeat_suspect_after = interval * 5;
        self.heartbeat_fail_after = interval * 20;
        self
    }

    /// Sets the suspicion and failure thresholds directly.
    ///
    /// # Panics
    ///
    /// Panics if `suspect_after > fail_after` or either is zero.
    pub fn heartbeat_timeouts(mut self, suspect_after: Duration, fail_after: Duration) -> Self {
        assert!(
            !suspect_after.is_zero() && !fail_after.is_zero(),
            "heartbeat timeouts must be positive"
        );
        assert!(
            suspect_after <= fail_after,
            "suspicion threshold must not exceed the failure threshold"
        );
        self.heartbeat_suspect_after = suspect_after;
        self.heartbeat_fail_after = fail_after;
        self
    }

    /// Sets the stall-watchdog timeout. The default is 30 s; see
    /// [`stall_timeout`](Self::stall_timeout) the field for semantics.
    ///
    /// # Panics
    ///
    /// Panics if `timeout` is zero.
    pub fn stall_timeout(mut self, timeout: Duration) -> Self {
        assert!(!timeout.is_zero(), "stall timeout must be positive");
        self.stall_timeout = Some(timeout);
        self
    }

    /// Disables the stall watchdog entirely (a genuinely stuck cluster
    /// will hang — only sensible under an external deadline).
    pub fn no_stall_timeout(mut self) -> Self {
        self.stall_timeout = None;
        self
    }

    /// Total number of workers across all processes.
    pub fn total_workers(&self) -> usize {
        self.processes * self.workers_per_process
    }
}

impl Default for Config {
    /// One process, one worker: the single-threaded scheduler of §2.3.
    fn default() -> Self {
        Config::single_process(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let c = Config::processes_and_workers(4, 2)
            .progress_mode(ProgressMode::LocalGlobal)
            .batch_size(64);
        assert_eq!(c.total_workers(), 8);
        assert_eq!(c.progress_mode, ProgressMode::LocalGlobal);
        assert_eq!(c.batch_size, 64);
    }

    #[test]
    fn telemetry_defaults_off_and_builders_compose() {
        let c = Config::default();
        assert!(!c.telemetry);
        let c = Config::single_process(2)
            .telemetry(true)
            .telemetry_capacity(128);
        assert!(c.telemetry);
        assert_eq!(c.telemetry_capacity, 128);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_processes_rejected() {
        let _ = Config::processes_and_workers(0, 1);
    }

    #[test]
    fn fault_builders_compose() {
        let c = Config::processes_and_workers(2, 1)
            .faults(FaultPlan::seeded(7).drop_probability(0.1))
            .send_retries(3);
        assert_eq!(c.faults.as_ref().unwrap().seed, 7);
        assert_eq!(c.send_retries, 3);
        assert!(Config::default().faults.is_none());
    }

    #[test]
    fn heartbeat_defaults_and_builders() {
        let c = Config::default();
        assert!(!c.heartbeats, "heartbeats default off");
        assert_eq!(c.stall_timeout, Some(Duration::from_secs(30)));

        let c = Config::processes_and_workers(2, 1)
            .heartbeats(true)
            .heartbeat_interval(Duration::from_millis(4));
        assert!(c.heartbeats);
        assert_eq!(c.heartbeat_interval, Duration::from_millis(4));
        assert_eq!(c.heartbeat_suspect_after, Duration::from_millis(20));
        assert_eq!(c.heartbeat_fail_after, Duration::from_millis(80));

        let c = c.heartbeat_timeouts(Duration::from_millis(10), Duration::from_millis(30));
        assert_eq!(c.heartbeat_suspect_after, Duration::from_millis(10));
        assert_eq!(c.heartbeat_fail_after, Duration::from_millis(30));

        let c = c.stall_timeout(Duration::from_secs(2));
        assert_eq!(c.stall_timeout, Some(Duration::from_secs(2)));
        assert_eq!(c.no_stall_timeout().stall_timeout, None);
    }

    #[test]
    fn flow_defaults_off_and_builders_compose() {
        use super::super::flow::ShedPolicy;
        let c = Config::default();
        assert!(c.flow.is_none(), "flow control defaults off");
        let c = Config::single_process(2).flow(
            FlowConfig::default()
                .budget(4096)
                .policy(ShedPolicy::Shed)
                .max_open_epochs(3),
        );
        let flow = c.flow.as_ref().unwrap();
        assert_eq!(flow.budget, 4096);
        assert_eq!(flow.policy, ShedPolicy::Shed);
        assert_eq!(flow.max_open_epochs, Some(3));
    }

    #[test]
    #[should_panic(expected = "suspicion threshold")]
    fn inverted_heartbeat_timeouts_rejected() {
        let _ = Config::default()
            .heartbeat_timeouts(Duration::from_millis(50), Duration::from_millis(10));
    }
}
