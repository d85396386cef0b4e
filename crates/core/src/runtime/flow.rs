//! Credit-based flow control for the data plane (DESIGN.md §15).
//!
//! Every `TrafficClass::Data` queue — intra-process typed queues and the
//! serialized remote-arrival path — is wrapped in byte-denominated credit
//! accounting: senders spend credits when a batch is emitted, receivers
//! return them when the batch is consumed. A sender out of credits parks
//! on the queue's [`CreditCell`] and is woken by the next credit return;
//! remote returns ride the existing control plane (`CREDIT_TAG`) so they
//! are exempt from latency injection and probabilistic loss, exactly like
//! heartbeats.
//!
//! **Plane exemptions.** Progress and Control traffic are *never*
//! credited. Progress batches are small, bounded per step, and carry the
//! occurrence-count deltas the §3.3 protocol needs to *retire* work —
//! bounding them with data-plane credits would let a full data queue
//! block the very retirements that free it, a protocol-level deadlock.
//! The model-checker's `StarveCredits` chaos knob pins this invariant:
//! progress delivery never consults the credit ledger.
//!
//! **Deadlock freedom.** A parked sender never waits forever: after
//! [`FlowConfig::credit_wait`] it escapes — under [`ShedPolicy::Block`]
//! it overdrafts (the batch is sent anyway and the overdraft is counted),
//! under [`ShedPolicy::Shed`] while the worker's overload state is
//! `Shedding` the batch is dropped with exact counts (journaled `+1`
//! then `−1`, so the progress protocol stays sound). A batch offered to
//! an *empty* queue is always admitted even if it alone exceeds the
//! budget, so one oversized batch cannot wedge a channel. Self-routed
//! batches (destination worker == sending worker) are exempt from
//! parking: a worker blocking on a queue only it drains is a guaranteed
//! self-deadlock — their depth is bounded upstream by the admission
//! window and by the credits on every cross-worker edge feeding them.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

// Loom-schedulable shims: plain std re-exports outside `--cfg loom`, so
// this module's concurrency is exactly what the interleaving explorer
// (`naiad_wire::sync::interleave`) model-checks.
use naiad_wire::sync::{AtomicU64, AtomicU8, AtomicUsize, Condvar, Mutex, MutexGuard};

/// What a sender does when its bounded credit wait expires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Lossless: send anyway and count an *overdraft*. The budget is a
    /// soft ceiling that can be pierced only after a full credit wait,
    /// so throughput degrades before memory does.
    #[default]
    Block,
    /// Loss-tolerant: while the worker's overload state is `Shedding`,
    /// drop the batch and count exactly what was dropped (records and
    /// bytes). Outside `Shedding` the policy behaves like `Block`.
    Shed,
}

/// Flow-control configuration ([`Config::flow`](super::config::Config::flow)).
#[derive(Clone, Debug)]
pub struct FlowConfig {
    /// Byte budget per data queue. Senders park when a queue's in-flight
    /// bytes would exceed it.
    pub budget: usize,
    /// Bound on a single credit wait before the sender escapes
    /// (overdraft or shed). Keeps parking deadlock-free by construction.
    pub credit_wait: Duration,
    /// Escape policy after a full credit wait.
    pub policy: ShedPolicy,
    /// Ingress admission window: at most this many epochs may be open
    /// beyond the input frontier
    /// ([`InputHandle::try_advance_to`](crate::dataflow::InputHandle::try_advance_to)).
    /// `None` leaves ingest unbounded.
    pub max_open_epochs: Option<u64>,
    /// In-flight/budget ratio at which the overload monitor leaves
    /// `Normal` for `Throttled`.
    pub throttle_at: f64,
    /// In-flight/budget ratio at which the monitor enters `Shedding`.
    pub shed_at: f64,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            budget: 1 << 20,
            credit_wait: Duration::from_millis(20),
            policy: ShedPolicy::Block,
            max_open_epochs: None,
            throttle_at: 0.5,
            shed_at: 0.9,
        }
    }
}

impl FlowConfig {
    /// Sets the per-queue byte budget.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn budget(mut self, bytes: usize) -> Self {
        assert!(bytes > 0, "credit budget must be positive");
        self.budget = bytes;
        self
    }

    /// Sets the bounded credit wait.
    ///
    /// # Panics
    ///
    /// Panics if `wait` is zero (a zero wait would turn every contention
    /// into an immediate overdraft, defeating the budget).
    pub fn credit_wait(mut self, wait: Duration) -> Self {
        assert!(!wait.is_zero(), "credit wait must be positive");
        self.credit_wait = wait;
        self
    }

    /// Sets the escape policy.
    pub fn policy(mut self, policy: ShedPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the ingress admission window (open epochs beyond the
    /// frontier).
    ///
    /// # Panics
    ///
    /// Panics if `epochs` is zero.
    pub fn max_open_epochs(mut self, epochs: u64) -> Self {
        assert!(epochs > 0, "admission window must admit at least one epoch");
        self.max_open_epochs = Some(epochs);
        self
    }

    /// Sets the overload thresholds (fractions of the budget).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < throttle_at <= shed_at`.
    pub fn thresholds(mut self, throttle_at: f64, shed_at: f64) -> Self {
        assert!(
            throttle_at > 0.0 && throttle_at <= shed_at,
            "thresholds must satisfy 0 < throttle_at <= shed_at"
        );
        self.throttle_at = throttle_at;
        self.shed_at = shed_at;
        self
    }
}

/// Identifies one credited data queue, cluster-wide.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum FlowKey {
    /// Intra-process typed queue: `(process, dataflow, channel, dst local
    /// worker)`.
    Local(usize, usize, usize, usize),
    /// Remote serialized queue, tracked at the *sender*: `(src process,
    /// dst process, data tag)`.
    Remote(usize, usize, u32),
}

/// Outcome of one credit acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Acquire {
    /// Credits granted (possibly after parking for `waited_ns`).
    Granted { waited_ns: u64 },
    /// The bounded wait expired; the caller must overdraft or shed.
    TimedOut { waited_ns: u64 },
}

/// Per-queue credit ledger: in-flight bytes guarded by a mutex, with a
/// condvar the receiver signals on every credit return.
pub(crate) struct CreditCell {
    in_flight: Mutex<u64>,
    returned: Condvar,
}

impl CreditCell {
    fn new() -> Self {
        CreditCell {
            in_flight: Mutex::new(0),
            returned: Condvar::new(),
        }
    }

    fn guard(&self) -> MutexGuard<'_, u64> {
        self.in_flight.lock()
    }

    /// Whether `cost` fits under `budget` right now. An empty queue
    /// always admits, so one oversized batch cannot wedge the channel.
    fn admits(in_flight: u64, cost: u64, budget: u64) -> bool {
        in_flight == 0 || in_flight + cost <= budget
    }

    /// Spends `cost` credits, parking up to `wait` for returns.
    pub(crate) fn acquire(&self, cost: u64, budget: u64, wait: Duration) -> Acquire {
        let mut guard = self.guard();
        if Self::admits(*guard, cost, budget) {
            *guard += cost;
            return Acquire::Granted { waited_ns: 0 };
        }
        let started = Instant::now();
        loop {
            let elapsed = started.elapsed();
            let Some(remaining) = wait.checked_sub(elapsed) else {
                return Acquire::TimedOut {
                    waited_ns: elapsed.as_nanos() as u64,
                };
            };
            let (g, _timed_out) = self.returned.wait_timeout(guard, remaining);
            guard = g;
            if Self::admits(*guard, cost, budget) {
                *guard += cost;
                return Acquire::Granted {
                    waited_ns: started.elapsed().as_nanos() as u64,
                };
            }
        }
    }

    /// Spends `cost` credits unconditionally (self-routes and
    /// [`ShedPolicy::Block`] overdrafts).
    pub(crate) fn force(&self, cost: u64) {
        *self.guard() += cost;
    }

    /// Returns `cost` credits and wakes parked senders.
    pub(crate) fn release(&self, cost: u64) {
        let mut guard = self.guard();
        *guard = guard.saturating_sub(cost);
        drop(guard);
        self.returned.notify_all();
    }

    #[cfg(test)]
    pub(crate) fn in_flight(&self) -> u64 {
        *self.guard()
    }
}

/// Cluster-wide flow-control state: one [`CreditCell`] per credited data
/// queue, plus the aggregate gauges the overload monitor, the stall
/// watchdog, and the telemetry snapshot read.
///
/// Shared by every process of the simulated cluster (like the escalation
/// cell); a multi-host deployment would shard it per process and carry
/// the remote ledgers' returns on the control plane exactly as the
/// simulated one already does.
pub(crate) struct FlowRegistry {
    config: FlowConfig,
    cells: Mutex<HashMap<FlowKey, Arc<CreditCell>>>,
    /// Credited data-plane bytes in flight, cluster-wide.
    in_flight: AtomicU64,
    /// High-water mark of `in_flight` (the chaos-soak oracle).
    peak_in_flight: AtomicU64,
    /// Senders currently parked waiting for credits.
    parked: AtomicUsize,
    /// Completed credit waits (any wait > 0).
    credit_waits: AtomicU64,
    /// Total nanoseconds spent parked.
    credit_wait_ns: AtomicU64,
    /// Credit returns processed (the watchdog's "upstream is alive"
    /// signal).
    returns: AtomicU64,
    /// `Block`-policy escapes past the budget.
    overdrafts: AtomicU64,
    /// Batches dropped by `Shed` policy.
    shed_batches: AtomicU64,
    /// Records dropped by `Shed` policy.
    shed_records: AtomicU64,
    /// Bytes dropped by `Shed` policy.
    shed_bytes: AtomicU64,
}

impl FlowRegistry {
    pub(crate) fn new(config: FlowConfig) -> Self {
        FlowRegistry {
            config,
            cells: Mutex::new(HashMap::new()),
            in_flight: AtomicU64::new(0),
            peak_in_flight: AtomicU64::new(0),
            parked: AtomicUsize::new(0),
            credit_waits: AtomicU64::new(0),
            credit_wait_ns: AtomicU64::new(0),
            returns: AtomicU64::new(0),
            overdrafts: AtomicU64::new(0),
            shed_batches: AtomicU64::new(0),
            shed_records: AtomicU64::new(0),
            shed_bytes: AtomicU64::new(0),
        }
    }

    pub(crate) fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// The credit cell for `key`, created on first touch.
    pub(crate) fn cell(&self, key: FlowKey) -> Arc<CreditCell> {
        self.cells
            .lock()
            .entry(key)
            .or_insert_with(|| Arc::new(CreditCell::new()))
            .clone()
    }

    /// Per-cell credit detail for the stall watchdog's state dump, as a
    /// JSON array sorted by key. Uses `try_lock` throughout — on the
    /// registry and on every cell — because the dump runs while senders
    /// may be parked mid-protocol: a held ledger reports `"held"`
    /// instead of deadlocking the diagnostic that is trying to explain
    /// the stall.
    pub(crate) fn dump_cells(&self) -> String {
        let Some(cells) = self.cells.try_lock() else {
            return "[\"cells registry busy\"]".to_string();
        };
        let mut parts: Vec<String> = cells
            .iter()
            .map(|(key, cell)| {
                let in_flight = cell
                    .in_flight
                    .try_lock()
                    .map_or_else(|| "\"held\"".to_string(), |g| (*g).to_string());
                format!("{{\"key\":\"{key:?}\",\"in_flight\":{in_flight}}}")
            })
            .collect();
        parts.sort();
        format!("[{}]", parts.join(","))
    }

    /// Spends `cost` on `cell`, parking up to the configured wait.
    /// Updates the aggregate gauges; the caller handles a timeout
    /// (overdraft or shed) and its accounting.
    pub(crate) fn acquire(&self, cell: &CreditCell, cost: u64) -> Acquire {
        self.parked.fetch_add(1, Ordering::Release);
        let outcome = cell.acquire(cost, self.config.budget as u64, self.config.credit_wait);
        self.parked.fetch_sub(1, Ordering::Release);
        let waited_ns = match outcome {
            Acquire::Granted { waited_ns } => {
                self.note_spent(cost);
                waited_ns
            }
            Acquire::TimedOut { waited_ns } => waited_ns,
        };
        if waited_ns > 0 {
            self.credit_waits.fetch_add(1, Ordering::Relaxed);
            self.credit_wait_ns.fetch_add(waited_ns, Ordering::Relaxed);
        }
        outcome
    }

    /// Spends `cost` unconditionally (self-routes; not counted as an
    /// overdraft).
    pub(crate) fn force(&self, cell: &CreditCell, cost: u64) {
        cell.force(cost);
        self.note_spent(cost);
    }

    /// Spends `cost` past the budget after a full wait (`Block` policy).
    pub(crate) fn overdraft(&self, cell: &CreditCell, cost: u64) {
        cell.force(cost);
        self.note_spent(cost);
        self.overdrafts.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a batch dropped by the `Shed` policy.
    pub(crate) fn note_shed(&self, records: u64, bytes: u64) {
        self.shed_batches.fetch_add(1, Ordering::Relaxed);
        self.shed_records.fetch_add(records, Ordering::Relaxed);
        self.shed_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    fn note_spent(&self, cost: u64) {
        let now = self.in_flight.fetch_add(cost, Ordering::Relaxed) + cost;
        self.peak_in_flight.fetch_max(now, Ordering::Relaxed);
    }

    /// Returns `cost` credits to `cell` and the aggregate gauge. The
    /// gauge drops *before* the cell wakes parked senders: the reverse
    /// order would let a freshly admitted sender bump the gauge while
    /// the consumed bytes were still counted, spuriously pushing the
    /// peak past the budget.
    pub(crate) fn release(&self, cell: &CreditCell, cost: u64) {
        self.in_flight.fetch_sub(cost, Ordering::Relaxed);
        cell.release(cost);
        self.returns.fetch_add(1, Ordering::Relaxed);
    }

    /// Like [`FlowRegistry::release`], resolving the cell by key (the
    /// remote credit-return path, taken by the consuming worker once the
    /// fabric admits the return).
    pub(crate) fn release_key(&self, key: FlowKey, cost: u64) {
        let cell = self.cell(key);
        self.release(&cell, cost);
    }

    pub(crate) fn in_flight_bytes(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    pub(crate) fn peak_in_flight_bytes(&self) -> u64 {
        self.peak_in_flight.load(Ordering::Relaxed)
    }

    pub(crate) fn parked_senders(&self) -> usize {
        self.parked.load(Ordering::Acquire)
    }

    pub(crate) fn credit_waits(&self) -> u64 {
        self.credit_waits.load(Ordering::Relaxed)
    }

    pub(crate) fn credit_wait_ns(&self) -> u64 {
        self.credit_wait_ns.load(Ordering::Relaxed)
    }

    pub(crate) fn returns(&self) -> u64 {
        self.returns.load(Ordering::Relaxed)
    }

    pub(crate) fn overdrafts(&self) -> u64 {
        self.overdrafts.load(Ordering::Relaxed)
    }

    pub(crate) fn shed_batches(&self) -> u64 {
        self.shed_batches.load(Ordering::Relaxed)
    }

    pub(crate) fn shed_records(&self) -> u64 {
        self.shed_records.load(Ordering::Relaxed)
    }

    pub(crate) fn shed_bytes(&self) -> u64 {
        self.shed_bytes.load(Ordering::Relaxed)
    }
}

/// A worker's overload state (DESIGN.md §15): a three-state machine the
/// per-worker [`OverloadMonitor`] drives from the credit gauges.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum OverloadState {
    /// In-flight bytes comfortably under budget; no recent credit waits.
    #[default]
    Normal,
    /// Pressure building: senders are waiting for credits or in-flight
    /// bytes crossed the throttle threshold. Ingest should slow down.
    Throttled,
    /// Saturated: in-flight bytes pinned at the budget. The shedding
    /// policy applies to loss-tolerant channels.
    Shedding,
}

impl OverloadState {
    /// Short machine-readable name (telemetry JSON).
    pub fn name(self) -> &'static str {
        match self {
            OverloadState::Normal => "normal",
            OverloadState::Throttled => "throttled",
            OverloadState::Shedding => "shedding",
        }
    }

    pub(crate) fn as_u8(self) -> u8 {
        match self {
            OverloadState::Normal => 0,
            OverloadState::Throttled => 1,
            OverloadState::Shedding => 2,
        }
    }

    pub(crate) fn from_u8(v: u8) -> Self {
        match v {
            0 => OverloadState::Normal,
            1 => OverloadState::Throttled,
            _ => OverloadState::Shedding,
        }
    }
}

/// The shared, lock-free view of a worker's overload state, read by that
/// worker's pushers on the shed path.
#[derive(Default)]
pub(crate) struct OverloadFlag(AtomicU8);

impl OverloadFlag {
    pub(crate) fn get(&self) -> OverloadState {
        OverloadState::from_u8(self.0.load(Ordering::Relaxed))
    }

    pub(crate) fn set(&self, state: OverloadState) {
        self.0.store(state.as_u8(), Ordering::Relaxed);
    }
}

/// Per-worker overload detector: a pure state machine over the pressure
/// signal, with hysteresis so a noisy gauge cannot flap the state.
///
/// Escalation is immediate (overload must be reacted to now);
/// de-escalation requires [`OverloadMonitor::COOLDOWN`] consecutive calm
/// observations.
pub(crate) struct OverloadMonitor {
    state: OverloadState,
    throttle_at: f64,
    shed_at: f64,
    calm: u32,
}

impl OverloadMonitor {
    /// Consecutive calm observations required before de-escalating.
    pub(crate) const COOLDOWN: u32 = 4;

    pub(crate) fn new(config: &FlowConfig) -> Self {
        OverloadMonitor {
            state: OverloadState::Normal,
            throttle_at: config.throttle_at,
            shed_at: config.shed_at,
            calm: 0,
        }
    }

    #[cfg(test)]
    pub(crate) fn state(&self) -> OverloadState {
        self.state
    }

    /// Feeds one observation: the in-flight/budget ratio and whether any
    /// sender completed a credit wait since the last observation.
    /// Returns the transition, if one happened.
    pub(crate) fn observe(
        &mut self,
        ratio: f64,
        waited: bool,
    ) -> Option<(OverloadState, OverloadState)> {
        let target = if ratio >= self.shed_at {
            OverloadState::Shedding
        } else if ratio >= self.throttle_at || waited {
            OverloadState::Throttled
        } else {
            OverloadState::Normal
        };
        let next = if target > self.state {
            self.calm = 0;
            target
        } else if target < self.state {
            self.calm += 1;
            if self.calm >= Self::COOLDOWN {
                self.calm = 0;
                target
            } else {
                self.state
            }
        } else {
            self.calm = 0;
            self.state
        };
        if next != self.state {
            let from = self.state;
            self.state = next;
            Some((from, next))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn cell_admits_under_budget_and_when_empty() {
        let cell = CreditCell::new();
        assert_eq!(
            cell.acquire(100, 256, Duration::from_millis(1)),
            Acquire::Granted { waited_ns: 0 }
        );
        assert_eq!(cell.in_flight(), 100);
        // A batch larger than the whole budget admits only into an empty
        // queue.
        cell.release(100);
        assert!(matches!(
            cell.acquire(10_000, 256, Duration::from_millis(1)),
            Acquire::Granted { .. }
        ));
        assert_eq!(cell.in_flight(), 10_000);
    }

    #[test]
    fn exhausted_cell_times_out_with_measured_wait() {
        let cell = CreditCell::new();
        cell.force(200);
        let outcome = cell.acquire(100, 256, Duration::from_millis(5));
        match outcome {
            Acquire::TimedOut { waited_ns } => assert!(waited_ns >= 4_000_000),
            Acquire::Granted { .. } => panic!("must not fit: 200 + 100 > 256"),
        }
    }

    #[test]
    fn release_wakes_a_parked_sender() {
        let cell = Arc::new(CreditCell::new());
        cell.force(200);
        let parked = cell.clone();
        let t = thread::spawn(move || parked.acquire(100, 256, Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(10));
        cell.release(150);
        match t.join().unwrap() {
            Acquire::Granted { waited_ns } => assert!(waited_ns > 0, "the wait was real"),
            Acquire::TimedOut { .. } => panic!("released credits must admit the sender"),
        }
        assert_eq!(cell.in_flight(), 150);
    }

    #[test]
    fn registry_tracks_peak_and_overdrafts() {
        let reg = FlowRegistry::new(FlowConfig::default().budget(256));
        let cell = reg.cell(FlowKey::Local(0, 0, 0, 0));
        assert!(matches!(reg.acquire(&cell, 200), Acquire::Granted { .. }));
        reg.overdraft(&cell, 300);
        assert_eq!(reg.in_flight_bytes(), 500);
        assert_eq!(reg.peak_in_flight_bytes(), 500);
        assert_eq!(reg.overdrafts(), 1);
        reg.release(&cell, 200);
        reg.release_key(FlowKey::Local(0, 0, 0, 0), 300);
        assert_eq!(reg.in_flight_bytes(), 0);
        assert_eq!(reg.returns(), 2);
        assert_eq!(reg.peak_in_flight_bytes(), 500, "peak is a high-water mark");
    }

    #[test]
    fn monitor_escalates_immediately_and_deescalates_with_hysteresis() {
        let config = FlowConfig::default().thresholds(0.5, 0.9);
        let mut m = OverloadMonitor::new(&config);
        assert_eq!(m.observe(0.1, false), None);
        assert_eq!(
            m.observe(0.6, false),
            Some((OverloadState::Normal, OverloadState::Throttled))
        );
        assert_eq!(
            m.observe(0.95, false),
            Some((OverloadState::Throttled, OverloadState::Shedding))
        );
        // Calm observations de-escalate only after the cooldown.
        for _ in 0..OverloadMonitor::COOLDOWN - 1 {
            assert_eq!(m.observe(0.1, false), None);
        }
        assert_eq!(
            m.observe(0.1, false),
            Some((OverloadState::Shedding, OverloadState::Normal))
        );
        // Recent credit waits alone justify Throttled.
        assert_eq!(
            m.observe(0.0, true),
            Some((OverloadState::Normal, OverloadState::Throttled))
        );
    }

    #[test]
    fn monitor_cooldown_resets_on_renewed_pressure() {
        let config = FlowConfig::default().thresholds(0.5, 0.9);
        let mut m = OverloadMonitor::new(&config);
        m.observe(0.95, false);
        assert_eq!(m.state(), OverloadState::Shedding);
        m.observe(0.1, false);
        m.observe(0.95, false); // pressure returns: cooldown must reset
        for _ in 0..OverloadMonitor::COOLDOWN - 1 {
            assert_eq!(m.observe(0.1, false), None);
        }
        assert!(m.observe(0.1, false).is_some());
    }

    #[test]
    fn overload_flag_roundtrips() {
        let flag = OverloadFlag::default();
        assert_eq!(flag.get(), OverloadState::Normal);
        flag.set(OverloadState::Shedding);
        assert_eq!(flag.get(), OverloadState::Shedding);
        assert_eq!(
            OverloadState::from_u8(OverloadState::Throttled.as_u8()),
            OverloadState::Throttled
        );
    }

    #[test]
    #[should_panic(expected = "credit budget must be positive")]
    fn zero_budget_rejected() {
        let _ = FlowConfig::default().budget(0);
    }

    #[test]
    fn dump_cells_reports_per_cell_detail_without_blocking() {
        let reg = FlowRegistry::new(FlowConfig::default().budget(256));
        assert_eq!(reg.dump_cells(), "[]");
        let cell = reg.cell(FlowKey::Local(0, 1, 2, 3));
        reg.force(&cell, 42);
        let dump = reg.dump_cells();
        assert!(
            dump.contains("\"key\":\"Local(0, 1, 2, 3)\"") && dump.contains("\"in_flight\":42"),
            "unexpected dump: {dump}"
        );
        // A held ledger must degrade to "held", not deadlock the dump.
        let held = cell.guard();
        let dump = reg.dump_cells();
        assert!(
            dump.contains("\"in_flight\":\"held\""),
            "unexpected dump: {dump}"
        );
        drop(held);
    }
}

#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;
    use naiad_wire::sync::interleave::explore;
    use std::sync::Arc;

    /// Re-finds the PR 8 gauge-ordering race. [`FlowRegistry::release`]
    /// must drop the aggregate `in_flight` gauge *before* the cell wakes
    /// parked senders: with the order reversed, a schedule exists where
    /// the woken sender's `note_spent` reads the stale-high gauge and
    /// pushes `peak_in_flight` past the budget (here 200 + 200 = 400 >
    /// 256) — one preemption between `cell.release` and the gauge
    /// decrement is enough, so the explorer finds it deterministically.
    /// With the committed order the peak stays under budget in *every*
    /// schedule.
    #[test]
    fn loom_release_order_keeps_peak_under_budget() {
        explore(|| {
            let config = FlowConfig::default()
                .budget(256)
                .credit_wait(Duration::from_secs(5));
            let reg = Arc::new(FlowRegistry::new(config));
            let cell = reg.cell(FlowKey::Local(0, 0, 0, 0));
            // Pre-spawn (sequential): the queue holds 200 of its 256.
            reg.force(&cell, 200);
            let releaser_reg = reg.clone();
            let releaser_cell = cell.clone();
            vec![
                Box::new(move || {
                    releaser_reg.release(&releaser_cell, 200);
                }) as Box<dyn FnOnce() + Send>,
                Box::new(move || {
                    let outcome = reg.acquire(&cell, 200);
                    assert!(
                        matches!(outcome, Acquire::Granted { .. }),
                        "200 fits once the release lands: {outcome:?}"
                    );
                    let peak = reg.peak_in_flight_bytes();
                    assert!(
                        peak <= 256,
                        "gauge raced past the budget: peak {peak} > 256"
                    );
                }) as Box<dyn FnOnce() + Send>,
            ]
        });
    }
}
