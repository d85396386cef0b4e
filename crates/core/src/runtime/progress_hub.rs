//! Transport shell for the progress protocol (§3.3): process-level and
//! cluster-level accumulation behind the fabric, plus the per-process
//! router thread that dispatches incoming progress and control traffic.
//!
//! The protocol itself — buffering policy, batch sequencing, stash-until-
//! registration — lives in the pure [`GroupCore`] state machine
//! ([`crate::progress::protocol`]), which the deterministic model-checker
//! ([`crate::progress::modelcheck`]) drives over virtual links. This
//! module only wires cores to the fabric: encode, retry, escalate.
//!
//! By default Naiad accumulates updates at the process level and at the
//! cluster level: each process sends accumulated updates to a central
//! accumulator, which broadcasts their net effect to all workers. The
//! [`ProcessAccumulator`] is shared by a process's workers (deposits) and
//! its router (observations of external broadcasts); the central
//! accumulator runs on its own thread behind an extra fabric endpoint.
//!
//! Who delivers a progress batch ([`ProgressLinks`]): the thread that
//! flushes it hands the copy addressed to its *own* process straight to
//! the local workers' inboxes — the bytes never leave the process, so no
//! second thread is woken to move them — and enqueues the copies for
//! other processes on the fabric, whose routers fan them out on arrival.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use naiad_netsim::{
    MembershipEvent, MembershipMsg, MembershipTable, NetReceiver, NetSender, RecvError, SendError,
    TrafficClass,
};
use naiad_wire::{encode_to_vec, Bytes};

use super::sync::Mutex;

use crate::progress::{
    Endpoint, GroupCore, Hop, ProgressBatch, ProgressMode, ProgressUpdate, Role,
};

use super::channels::{
    ChannelKey, ProcessRegistry, CENTRAL_TAG, CREDIT_TAG, HEARTBEAT_TAG, MEMBERSHIP_TAG,
    PROGRESS_TAG,
};
use super::flow::{FlowKey, FlowRegistry};
use super::liveness::Liveness;
use super::queue::RingSender;
use super::retry::{escalate, send_with_retry, with_retry, EscalationCell, FaultKind, RetryPolicy};

pub(crate) use crate::progress::protocol::{CENTRAL_SENDER, PROC_ACC_SENDER_BASE};

/// Counters for the progress hub, surfaced through
/// [`HubCounters`](crate::telemetry::HubCounters).
///
/// Each idle tick of a hub thread (router or central accumulator) is one
/// *bounded-backoff* receive timeout: the loops double their wait from
/// [`IDLE_WAIT_BASE`] up to [`IDLE_WAIT_MAX`] while quiet and snap back
/// on traffic, so an idle cluster costs a handful of wakeups per second
/// instead of a tight 5 ms re-loop.
#[derive(Debug, Default)]
pub(crate) struct HubStats {
    pub(crate) router_idle_ticks: AtomicU64,
    pub(crate) central_idle_ticks: AtomicU64,
    /// Progress batches the flushing thread put into its own process's
    /// inboxes itself ([`ProgressLinks::send`]).
    pub(crate) progress_local_deliveries: AtomicU64,
    /// Progress batches a router thread took off the fabric and fanned
    /// out to its process's inboxes.
    pub(crate) progress_routed: AtomicU64,
    /// Every envelope a router thread took off the fabric: progress and
    /// control. Data frames go to their worker's mailbox, past the router.
    pub(crate) router_envelopes: AtomicU64,
}

/// First idle wait after traffic.
const IDLE_WAIT_BASE: Duration = Duration::from_millis(5);
/// Backoff ceiling; also bounds shutdown-observation latency (the loops
/// only check the shutdown flag on the timeout arm).
const IDLE_WAIT_MAX: Duration = Duration::from_millis(20);

/// Lazily registers `dataflow`'s graph with a [`GroupCore`], looking the
/// graph up in the process registry (a peer's broadcast can outrun local
/// construction, in which case the core stashes the observation itself).
fn ensure_registered(core: &mut GroupCore, registry: &ProcessRegistry, dataflow: usize) {
    if !core.is_registered(dataflow as u32) {
        if let Some(graph) = registry.dataflow_graph(dataflow) {
            core.register(dataflow as u32, graph);
        }
    }
}

/// Where a protocol endpoint lives on the fabric, and the tag its batches
/// travel under: the central accumulator is the one extra endpoint after
/// the processes.
fn address(endpoint: Endpoint, processes: usize) -> (usize, u32) {
    match endpoint {
        Endpoint::Process(p) => (p, PROGRESS_TAG),
        Endpoint::Central => (processes, CENTRAL_TAG),
    }
}

/// One process's outgoing links for progress batches, shared by its
/// workers and its accumulator: a fabric link to every other endpoint,
/// and for the copy a process addresses to itself, its own workers'
/// inboxes.
pub(crate) struct ProgressLinks {
    process: usize,
    processes: usize,
    net: Arc<Mutex<NetSender>>,
    policy: RetryPolicy,
    /// Progress-inbox senders, one per local worker, resolved once.
    inboxes: Vec<RingSender<Bytes>>,
    stats: Arc<HubStats>,
}

impl ProgressLinks {
    pub(crate) fn new(
        process: usize,
        processes: usize,
        workers_per_process: usize,
        registry: &ProcessRegistry,
        net: Arc<Mutex<NetSender>>,
        policy: RetryPolicy,
        stats: Arc<HubStats>,
    ) -> Self {
        ProgressLinks {
            process,
            processes,
            net,
            policy,
            inboxes: progress_inboxes(registry, workers_per_process),
            stats,
        }
    }

    /// Sends one encoded batch along `hop` ([`ProgressMode::hop`]). Each
    /// endpoint's link retries transient failures on its own, so a flaky
    /// link never re-sends to links that already accepted the batch —
    /// re-delivery would violate the per-sender FIFO sequence check.
    ///
    /// The copy for this process itself is delivered here, by the calling
    /// thread. The fabric still accounts for it as a send to self
    /// ([`NetSender::send_loopback`]: attempt counters, crash and
    /// partition state, loopback metering), so fault schedules fire at the
    /// same send and Fig 6c counts the same bytes as when it crossed the
    /// fabric.
    ///
    /// A sender's batches must reach every inbox in `seq` order: callers
    /// emit and send under one lock (the accumulator's) or from the one
    /// thread that owns the emitter (a worker's).
    pub(crate) fn send(&self, hop: Hop, bytes: &Bytes) -> Result<(), SendError> {
        hop.endpoints(self.processes)
            .try_for_each(|endpoint| self.send_to(endpoint, bytes))
    }

    fn send_to(&self, endpoint: Endpoint, bytes: &Bytes) -> Result<(), SendError> {
        if endpoint != Endpoint::Process(self.process) {
            let (dst, tag) = address(endpoint, self.processes);
            return send_with_retry(&self.net, self.policy, dst, tag, bytes);
        }
        with_retry(self.policy, || {
            self.net
                .lock()
                .send_loopback(TrafficClass::Progress, bytes.len())
        })?;
        for inbox in &self.inboxes {
            inbox.send(bytes.clone());
        }
        self.stats
            .progress_local_deliveries
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// The progress-inbox senders of a process's workers, in local-worker
/// order.
fn progress_inboxes(
    registry: &ProcessRegistry,
    workers_per_process: usize,
) -> Vec<RingSender<Bytes>> {
    (0..workers_per_process)
        .map(|w| registry.sender::<Bytes>(ChannelKey::Progress(w)))
        .collect()
}

/// The process-level accumulator (§3.3): a transport shell around a pure
/// [`GroupCore`]. Workers deposit their journals; the router reports
/// external broadcasts; flushes leave through the fabric according to
/// the progress mode.
pub(crate) struct ProcessAccumulator {
    core: GroupCore,
    registry: Arc<ProcessRegistry>,
    links: Arc<ProgressLinks>,
    escalation: Arc<EscalationCell>,
}

impl ProcessAccumulator {
    pub(crate) fn new(
        process: usize,
        mode: ProgressMode,
        registry: Arc<ProcessRegistry>,
        links: Arc<ProgressLinks>,
        total_workers: usize,
        escalation: Arc<EscalationCell>,
    ) -> Self {
        ProcessAccumulator {
            core: GroupCore::new(
                PROC_ACC_SENDER_BASE + process as u32,
                mode.hop(Role::ProcessAccumulator),
                total_workers,
            ),
            registry,
            links,
            escalation,
        }
    }

    /// Deposits a worker's journal; forwards a flush if the §3.3 condition
    /// requires one.
    pub(crate) fn deposit(&mut self, dataflow: usize, updates: Vec<ProgressUpdate>) {
        ensure_registered(&mut self.core, &self.registry, dataflow);
        if let Some(batch) = self.core.deposit(dataflow as u32, updates) {
            self.forward(&batch);
        }
    }

    /// Observes a broadcast the router took off the fabric (from another
    /// process's accumulator or the central accumulator); forwards a flush
    /// if the buffered updates are no longer safe to hold.
    pub(crate) fn observe(&mut self, batch: &ProgressBatch) {
        ensure_registered(&mut self.core, &self.registry, batch.dataflow as usize);
        if let Some(flushed) = self.core.observe(batch) {
            self.forward(&flushed);
        }
    }

    /// Sends a flush where the mode says. A copy for our own process
    /// lands in the local inboxes before `send` returns, under the lock
    /// the caller holds on `self`.
    fn forward(&self, batch: &ProgressBatch) {
        let bytes: Bytes = encode_to_vec(batch).into();
        if let Err(err) = self.links.send(self.core.hop(), &bytes) {
            escalate(&self.escalation, FaultKind::from_send_error(err));
        }
    }
}

/// The cluster-level accumulator thread body (§3.3): receives batches on
/// the extra fabric endpoint, accumulates, and broadcasts net effects to
/// every process.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_central_accumulator(
    mut rx: NetReceiver,
    net: &Arc<Mutex<NetSender>>,
    registry: &ProcessRegistry,
    mode: ProgressMode,
    processes: usize,
    total_workers: usize,
    shutdown: &AtomicBool,
    policy: RetryPolicy,
    escalation: &EscalationCell,
    stats: &HubStats,
) {
    let mut core = GroupCore::new(
        CENTRAL_SENDER,
        mode.hop(Role::CentralAccumulator),
        total_workers,
    );
    let mut wait = IDLE_WAIT_BASE;
    loop {
        match rx.recv_deadline(Some(wait)) {
            Ok(env) => {
                wait = IDLE_WAIT_BASE;
                debug_assert_eq!(env.channel, CENTRAL_TAG);
                let batch: ProgressBatch = naiad_wire::decode_from_slice(&env.payload)
                    .unwrap_or_else(|e| {
                        panic!(
                            "central accumulator: undecodable progress batch from \
                             endpoint {} ({} bytes) — wire corruption or protocol \
                             mismatch: {e:?}",
                            env.src,
                            env.payload.len()
                        )
                    });
                ensure_registered(&mut core, registry, batch.dataflow as usize);
                if let Some(out) = core.deposit(batch.dataflow, batch.updates) {
                    let bytes: Bytes = encode_to_vec(&out).into();
                    for endpoint in core.hop().endpoints(processes) {
                        let (dst, tag) = address(endpoint, processes);
                        if let Err(err) = send_with_retry(net, policy, dst, tag, &bytes) {
                            escalate(escalation, FaultKind::from_send_error(err));
                        }
                    }
                }
            }
            Err(RecvError::Timeout) => {
                stats.central_idle_ticks.fetch_add(1, Ordering::Relaxed);
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Bounded backoff: quiet periods cost progressively fewer
                // wakeups instead of a tight re-loop.
                wait = (wait * 2).min(IDLE_WAIT_MAX);
            }
            Err(RecvError::Disconnected) => return,
        }
    }
}

/// The per-process router thread body: reads the endpoint's merged queue —
/// progress, membership, heartbeats, credit returns — fanning progress
/// broadcasts out to every local worker and teeing them into the process
/// accumulator where the mode requires. The broadcasts it sees come from
/// other endpoints; this process's own are delivered by the thread that
/// flushed them ([`ProgressLinks::send`]). Data frames never come this way:
/// the fabric puts each into the mailbox of the worker that reads it
/// ([`Mailbox`](super::channels::Mailbox)).
///
/// The router also *is* the process's liveness driver: it ticks the
/// failure detector every loop iteration (it wakes at least every
/// `heartbeat_interval / 2` when a detector is installed, even with all
/// workers parked), refreshes peer liveness on every arrival, and raises
/// detected failures on the escalation cell — without panicking itself,
/// so routing continues while the workers unwind.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_router(
    mut rx: NetReceiver,
    registry: &ProcessRegistry,
    workers_per_process: usize,
    accumulator: Option<&Mutex<ProcessAccumulator>>,
    shutdown: &AtomicBool,
    net: &Arc<Mutex<NetSender>>,
    liveness: Option<&Liveness>,
    escalation: &EscalationCell,
    stats: &HubStats,
    membership: MembershipMsg,
    flow: Option<&FlowRegistry>,
) {
    let progress_txs = progress_inboxes(registry, workers_per_process);
    // Membership plane (elastic rescaling): announce this process's view
    // of the current generation, then fold peer announcements into a
    // table that dedups chaos re-deliveries and discards pre-rescale
    // stragglers. Announcements are best-effort — a peer we cannot reach
    // is the failure detector's concern, not the membership plane's.
    let mut members = MembershipTable::new(membership.generation, membership.processes);
    members
        .observe(membership)
        // lint-allow(NS0004): the table was seeded from this very
        // announcement two lines up; self-observation cannot conflict.
        .expect("own membership announcement is self-consistent");
    {
        let payload: Bytes = membership.encode().to_vec().into();
        let mut net = net.lock();
        for dst in 0..membership.processes {
            if dst != membership.process {
                let _ = net.send_control(dst, MEMBERSHIP_TAG, payload.clone());
            }
        }
    }
    // With a detector installed the idle wait is additionally capped so
    // heartbeat emission and suspicion scans stay timely.
    let wait_cap = match &liveness {
        Some(live) => (live.interval() / 2).clamp(Duration::from_millis(1), IDLE_WAIT_MAX),
        None => IDLE_WAIT_MAX,
    };
    let mut wait = IDLE_WAIT_BASE.min(wait_cap);
    loop {
        if let Some(live) = &liveness {
            // Emission and detection both ride the router tick: `maybe_beat`
            // is interval-gated internally (one atomic load when not due).
            let detected = live.maybe_beat(net).or_else(|| live.scan());
            if let Some(kind) = detected {
                escalation.raise(kind);
            }
        }
        match rx.recv_deadline(Some(wait)) {
            Ok(env) => {
                wait = IDLE_WAIT_BASE.min(wait_cap);
                stats.router_envelopes.fetch_add(1, Ordering::Relaxed);
                if let Some(live) = &liveness {
                    // Anything the router receives proves its sender alive;
                    // heartbeats carry no other content.
                    live.note_heard(env.src);
                }
                match env.channel {
                    HEARTBEAT_TAG => {}
                    MEMBERSHIP_TAG => {
                        let msg = MembershipMsg::decode(&env.payload).unwrap_or_else(|e| {
                            panic!(
                                "router: undecodable membership announcement from endpoint {} \
                                 ({} bytes) — wire corruption or protocol mismatch: {e}",
                                env.src,
                                env.payload.len()
                            )
                        });
                        match members.observe(msg) {
                            // Admitted peers and idempotent re-deliveries are
                            // the protocol working; stale announcements are
                            // pre-rescale stragglers that must not resurrect
                            // removed peers; a future generation means this
                            // phase is being superseded and will be torn down
                            // by the coordinator momentarily.
                            Ok(
                                MembershipEvent::Admitted
                                | MembershipEvent::Duplicate
                                | MembershipEvent::Stale { .. }
                                | MembershipEvent::Future { .. },
                            ) => {}
                            Err(e) => panic!(
                                "router: membership conflict from endpoint {}: {e}",
                                env.src
                            ),
                        }
                    }
                    PROGRESS_TAG => {
                        stats.progress_routed.fetch_add(1, Ordering::Relaxed);
                        for tx in &progress_txs {
                            tx.send(env.payload.clone());
                        }
                        if let Some(acc) = &accumulator {
                            let batch: ProgressBatch =
                                naiad_wire::decode_from_slice(&env.payload).unwrap_or_else(|e| {
                                    panic!(
                                        "router: undecodable progress batch from endpoint {} \
                                         ({} bytes) — wire corruption or protocol mismatch: {e:?}",
                                        env.src,
                                        env.payload.len()
                                    )
                                });
                            // In Local+Global everything arrives via the
                            // central accumulator and is observed, this
                            // process's own updates included, because its
                            // flushes were not folded.
                            acc.lock().observe(&batch);
                        }
                    }
                    CREDIT_TAG => {
                        // Credit return from a remote receiver (DESIGN.md
                        // §15): `(data tag, bytes)` for a batch one of our
                        // workers sent to process `env.src` and that has now
                        // been consumed there. Stray returns after a local
                        // reconfiguration are ignored — the flow registry is
                        // per-run.
                        if let Some(flow) = flow {
                            let mut input = &env.payload[..];
                            let decoded = naiad_wire::Wire::decode(&mut input)
                                .and_then(|tag: u32| {
                                    naiad_wire::Wire::decode(&mut input)
                                        .map(|bytes: u64| (tag, bytes))
                                });
                            match decoded {
                                Ok((tag, bytes)) => {
                                    let key =
                                        FlowKey::Remote(membership.process, env.src, tag);
                                    flow.release_key(key, bytes);
                                }
                                Err(e) => panic!(
                                    "router: undecodable credit return from endpoint {} \
                                     ({} bytes): {e:?}",
                                    env.src,
                                    env.payload.len()
                                ),
                            }
                        }
                    }
                    tag => panic!(
                        "router: endpoint {} sent tag {tag:#x} ({} bytes) to the merged queue — \
                         a data frame is addressed to its worker's mailbox and a central batch \
                         to the central endpoint, never to a router",
                        env.src,
                        env.payload.len()
                    ),
                }
            }
            Err(RecvError::Timeout) => {
                stats.router_idle_ticks.fetch_add(1, Ordering::Relaxed);
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Bounded backoff between idle ticks (capped tighter when a
                // detector needs timely scans).
                wait = (wait * 2).min(wait_cap);
            }
            Err(RecvError::Disconnected) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::graph::{ContextId, GraphBuilder, StageId, StageKind};
    use crate::progress::Pointstamp;
    use crate::runtime::queue::RingReceiver;
    use crate::time::Timestamp;

    /// A one-process Local-mode hub over the graph input(0) → sink(1),
    /// already registered with the accumulator.
    struct Hub {
        acc: Arc<Mutex<ProcessAccumulator>>,
        /// Every worker's progress inbox.
        inboxes: Vec<RingReceiver<Bytes>>,
        net: Arc<Mutex<NetSender>>,
        stats: Arc<HubStats>,
    }

    fn hub(workers: usize) -> Hub {
        let mut g = GraphBuilder::new();
        let input = g.add_stage("in", StageKind::Input, ContextId::ROOT, 0, 1);
        let sink = g.add_stage("sink", StageKind::Regular, ContextId::ROOT, 1, 0);
        g.connect(input, 0, sink, 0);
        let graph = Arc::new(g.build().expect("two-stage chain is valid"));

        let registry = Arc::new(ProcessRegistry::default());
        registry.register_dataflow(0, graph);
        let inboxes = (0..workers)
            .map(|w| registry.receiver::<Bytes>(ChannelKey::Progress(w)))
            .collect();
        let (tx, _rx) = naiad_netsim::Fabric::builder(1)
            .build()
            .pop()
            .expect("one endpoint")
            .split();
        let net = Arc::new(Mutex::new(tx));
        let stats = Arc::new(HubStats::default());
        let policy = RetryPolicy {
            retries: 0,
            backoff: Duration::ZERO,
        };
        let links = Arc::new(ProgressLinks::new(
            0,
            1,
            workers,
            &registry,
            net.clone(),
            policy,
            stats.clone(),
        ));
        let mut acc = ProcessAccumulator::new(
            0,
            ProgressMode::Local,
            registry,
            links,
            workers,
            Arc::new(EscalationCell::default()),
        );
        // A +1/−1 pair cancels in the buffer and flushes nothing; it makes
        // the accumulator look the graph up now, so later deposits do not
        // take the registry lock.
        let sink_at_0 = Pointstamp::at_vertex(Timestamp::new(0), StageId(1));
        acc.deposit(0, vec![(sink_at_0, 1), (sink_at_0, -1)]);
        Hub {
            acc: Arc::new(Mutex::new(acc)),
            inboxes,
            net,
            stats,
        }
    }

    /// One worker's input moving from `epoch` to the next. While no
    /// worker lags behind `epoch`, the retired pointstamp is at the
    /// frontier and covered by nothing, so the deposit flushes a batch.
    fn advance_input(epoch: u64) -> Vec<ProgressUpdate> {
        vec![
            (
                Pointstamp::at_vertex(Timestamp::new(epoch + 1), StageId(0)),
                1,
            ),
            (Pointstamp::at_vertex(Timestamp::new(epoch), StageId(0)), -1),
        ]
    }

    fn decode(bytes: &Bytes) -> ProgressBatch {
        naiad_wire::decode_from_slice(bytes).expect("hub delivers encoded batches")
    }

    /// Fig 6c's definition survives the shortcut: the loopback link
    /// meters each own-process batch once, at its encoded length, and
    /// every local worker is handed those same bytes.
    #[test]
    fn own_process_copy_is_metered_once_at_its_encoded_length() {
        let hub = hub(2);
        let batches = 200u64;
        for epoch in 0..batches / 2 {
            for _worker in 0..2 {
                hub.acc.lock().deposit(0, advance_input(epoch));
            }
        }
        let delivered: Vec<Vec<Bytes>> = hub
            .inboxes
            .iter()
            .map(|inbox| std::iter::from_fn(|| inbox.try_recv()).collect())
            .collect();
        assert_eq!(delivered[0], delivered[1], "workers share one encoding");
        let seqs: Vec<u64> = delivered[0].iter().map(|b| decode(b).seq).collect();
        assert_eq!(seqs, (0..batches).collect::<Vec<_>>());
        let encoded: usize = delivered[0].iter().map(|b| b.len()).sum();

        let metrics = hub.net.lock().metrics().clone();
        let loopback = metrics.link_counters(0, 0).progress;
        assert_eq!(
            (loopback.messages, loopback.bytes),
            (batches, encoded as u64)
        );
        assert_eq!(metrics.total(TrafficClass::Progress, true), loopback);
        assert_eq!(
            hub.stats.progress_local_deliveries.load(Ordering::Relaxed),
            batches
        );
    }

    #[cfg(loom)]
    type Body = Box<dyn FnOnce() + Send>;

    /// A worker parked on its progress inbox while a peer's deposit
    /// flushes under the accumulator lock: in every schedule the worker
    /// is handed the batch. A lost wake-up would leave it parked until
    /// the model's timeout rescue, and `recv_timeout` would answer `None`.
    #[cfg(loom)]
    #[test]
    fn loom_parked_worker_never_misses_a_local_delivery() {
        crate::runtime::interleave::explore(|| {
            let Hub {
                acc, mut inboxes, ..
            } = hub(1);
            let inbox = inboxes.remove(0);
            vec![
                Box::new(move || {
                    let got = inbox.recv_timeout(Duration::from_secs(5));
                    assert_eq!(
                        got.as_ref().map(|b| decode(b).seq),
                        Some(0),
                        "a parked worker must be woken with the flushed batch"
                    );
                }) as Body,
                Box::new(move || acc.lock().deposit(0, advance_input(0))) as Body,
            ]
        });
    }

    /// Two workers depositing concurrently: whichever order the
    /// accumulator serves them in, every worker's inbox receives the
    /// accumulator's batches in `seq` order.
    #[cfg(loom)]
    #[test]
    fn loom_concurrent_depositors_deliver_in_seq_order() {
        crate::runtime::interleave::explore(|| {
            let Hub { acc, inboxes, .. } = hub(2);
            let depositor = |acc: Arc<Mutex<ProcessAccumulator>>| {
                Box::new(move || acc.lock().deposit(0, advance_input(0))) as Body
            };
            vec![
                depositor(acc.clone()),
                depositor(acc),
                Box::new(move || {
                    for (worker, inbox) in inboxes.iter().enumerate() {
                        let seqs: Vec<_> = (0..2)
                            .map(|_| inbox.recv_timeout(Duration::from_secs(5)))
                            .map(|bytes| bytes.as_ref().map(|b| decode(b).seq))
                            .collect();
                        assert_eq!(seqs, [Some(0), Some(1)], "inbox {worker} out of order");
                    }
                }) as Body,
            ]
        });
    }
}
