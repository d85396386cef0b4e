//! The virtual cluster: N protocol cores over FIFO links, stepped one
//! event at a time, with safety/liveness/FIFO oracles checked as it goes.
//!
//! The cluster mirrors the runtime's shape exactly — per-worker
//! [`WorkerCore`]s, per-process [`GroupCore`] accumulators, an optional
//! central [`GroupCore`] — but replaces the fabric with explicit
//! [`Event`]s: `Act(w)` (worker `w` performs one legal §2.3 step and
//! flushes its journal into the protocol), `Deliver(src, dst)` (the
//! oldest batch on a link reaches every worker mailbox of its endpoint),
//! and `Apply(w)` (worker `w` tees one delivered batch into its process
//! accumulator and applies it to its local table). Which event
//! fires next is the *schedule* — the driver's choice — so every legal
//! interleaving of broadcast, accumulation, and application is reachable.
//!
//! Worker behaviour is schedule-independent by construction: each worker
//! draws its choices from a private [`Xorshift`] stream, so the `k`-th
//! `Act(w)` does the same thing in every schedule of the same seed. That
//! is what makes traces replayable and shrinkable.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use naiad::graph::{ConnectorId, Location, LogicalGraph, StageId, StageKind};
use naiad::progress::protocol::{CENTRAL_SENDER, PROC_ACC_SENDER_BASE};
use naiad::progress::{
    Endpoint, FifoViolation, GroupCore, Hop, Pointstamp, PointstampTable, ProgressBatch,
    ProgressMode, ProgressUpdate, Role, WorkerCore,
};
use naiad::Timestamp;
use naiad_rng::Xorshift;

use crate::topology::Topology;

/// The single dataflow id every model run uses.
const DATAFLOW: u32 = 0;

/// Hard bound on events per schedule; hitting it is reported as a
/// liveness violation (a correct configuration drains far earlier).
pub const MAX_STEPS: usize = 100_000;

/// FNV-1a, used for trace hashing and for replay-stable chaos decisions
/// (never `DefaultHasher`, whose output may change across releases).
pub fn fnv64(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One step of a schedule.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Event {
    /// Worker `w` performs one legal protocol action and flushes it.
    Act(usize),
    /// The oldest batch on link `src → dst` reaches `dst`'s mailboxes.
    Deliver(Endpoint, Endpoint),
    /// Worker `w` applies the oldest batch delivered to it.
    Apply(usize),
}

impl Event {
    /// Encodes the event as hash words (for trace hashing).
    fn words(&self) -> [u64; 3] {
        fn ep(e: Endpoint) -> u64 {
            match e {
                Endpoint::Process(p) => p as u64,
                Endpoint::Central => u64::MAX,
            }
        }
        match *self {
            Event::Act(w) => [0, w as u64, 0],
            Event::Deliver(s, d) => [1, ep(s), ep(d)],
            Event::Apply(w) => [2, w as u64, 0],
        }
    }
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Event::Act(w) => write!(f, "A{w}"),
            Event::Deliver(s, d) => write!(f, "D({s}->{d})"),
            Event::Apply(w) => write!(f, "Y{w}"),
        }
    }
}

/// Hashes a trace for distinct-interleaving counting.
pub fn trace_hash(trace: &[Event]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for ev in trace {
        h = fnv64(&[h, ev.words()[0], ev.words()[1], ev.words()[2]]);
    }
    h
}

/// Fault injection for oracle validation: each knob plants a specific
/// protocol bug so the corresponding oracle can be shown to catch it.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum Chaos {
    /// No injected faults; every oracle must stay silent.
    #[default]
    None,
    /// Links sometimes deliver the second-oldest batch first (decided by
    /// a replay-stable hash of the front batch's identity against the
    /// given per-mille rate). Breaks per-sender FIFO → the FIFO oracle
    /// (and possibly safety) must fire.
    ReorderLinks(u32),
    /// Workers flush a pointstamp's retirement *before* its consequences,
    /// in separate batches. Breaks §3.3's consequence-before-retirement
    /// atomicity → the safety oracle must fire.
    RetireBeforeConsequence,
    /// Links silently drop batches (decided by a replay-stable hash of
    /// the batch identity against the given per-mille rate). Counts never
    /// net out → the liveness (or safety) oracle must fire.
    DropBatch(u32),
    /// The data plane's credit returns are withheld entirely: every batch
    /// crossing a link is tallied as one that a credit-bound plane would
    /// have parked forever. Unlike the other knobs this one must be
    /// *invisible*: Progress traffic is exempt from credit-based flow
    /// control (bounding it would deadlock §3.3 — credit returns ride the
    /// control plane, which may itself be waiting on progress), so
    /// delivery proceeds untouched and **every oracle must stay silent**.
    /// The knob exists to lock that plane-exemption invariant: no code
    /// path from [`Cluster::enqueue`] to apply may consult a credit
    /// ledger.
    StarveCredits,
}

/// A model-checking configuration: one point of the
/// topology × mode × chaos matrix.
#[derive(Clone, Debug)]
pub struct McConfig {
    /// The dataflow shape.
    pub topology: Topology,
    /// The accumulation policy under test.
    pub mode: ProgressMode,
    /// Virtual processes.
    pub processes: usize,
    /// Workers per virtual process.
    pub workers_per_process: usize,
    /// Epochs each worker advances through before closing its input.
    pub max_epochs: u64,
    /// Fresh input messages each worker introduces.
    pub messages_per_worker: usize,
    /// Cap on any loop counter a forwarded message may reach.
    pub loop_cap: u64,
    /// Fault injection.
    pub chaos: Chaos,
}

impl McConfig {
    /// The default small-but-nontrivial model: 2 processes × 2 workers,
    /// one epoch advance, two messages per worker, loop counters ≤ 2.
    pub fn new(topology: Topology, mode: ProgressMode) -> Self {
        McConfig {
            topology,
            mode,
            processes: 2,
            workers_per_process: 2,
            max_epochs: 1,
            messages_per_worker: 2,
            loop_cap: 2,
            chaos: Chaos::None,
        }
    }

    /// Total workers.
    pub fn total_workers(&self) -> usize {
        self.processes * self.workers_per_process
    }
}

/// What an oracle caught.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Violation {
    /// Worker `worker`'s local view believes nothing can reach `stamp`
    /// while `stamp` is outstanding in the omniscient reference.
    Safety { worker: usize, stamp: Pointstamp },
    /// Worker `worker` was handed out-of-order batches.
    Fifo { worker: usize, violation: FifoViolation },
    /// The schedule drained (or exceeded [`MAX_STEPS`]) without reaching
    /// global quiescence.
    Liveness { detail: String },
}

/// Coarse violation class, used to decide whether a shrunk trace still
/// reproduces "the same" failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ViolationKind {
    /// See [`Violation::Safety`].
    Safety,
    /// See [`Violation::Fifo`].
    Fifo,
    /// See [`Violation::Liveness`].
    Liveness,
}

impl Violation {
    /// This violation's class.
    pub fn kind(&self) -> ViolationKind {
        match self {
            Violation::Safety { .. } => ViolationKind::Safety,
            Violation::Fifo { .. } => ViolationKind::Fifo,
            Violation::Liveness { .. } => ViolationKind::Liveness,
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Safety { worker, stamp } => write!(
                f,
                "safety: worker {worker} believes {:?} @ {:?} is complete while it is \
                 outstanding in the reference",
                stamp.time, stamp.location
            ),
            Violation::Fifo { worker, violation } => {
                write!(f, "fifo: worker {worker}: {violation}")
            }
            Violation::Liveness { detail } => write!(f, "liveness: {detail}"),
        }
    }
}

/// A violation plus the step (0-based index into the trace) at which the
/// oracle fired; `step == trace.len()` means it fired at quiescence.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ViolationReport {
    /// What was caught.
    pub violation: Violation,
    /// When it was caught.
    pub step: usize,
}

impl std::fmt::Display for ViolationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "step {}: {}", self.step, self.violation)
    }
}

/// One legal worker step, drawn from the worker's private stream.
enum Choice {
    /// Open the next epoch on input `i`, retiring the current one.
    Advance(usize),
    /// Retire input `i`'s capability for good.
    Close(usize),
    /// Introduce a fresh message from input `i` at its current epoch.
    Emit(usize),
    /// Deliver held pointstamp `j`: retirement and consequences in one
    /// flush.
    Process(usize),
}

/// The schedule-independent obligations of one virtual worker: the
/// pointstamps it owns (and must eventually retire), its input epochs,
/// and its private choice stream.
struct Obligations {
    /// Messages/notifications this worker introduced and must retire.
    held: Vec<Pointstamp>,
    /// Per input stage: the currently open epoch, `None` once closed.
    inputs: Vec<(StageId, Option<u64>)>,
    /// Fresh messages this worker may still introduce.
    msgs_left: usize,
    /// Private choice stream (content depends only on this worker's own
    /// action count, never on the schedule).
    rng: Xorshift,
}

impl Obligations {
    fn new(graph: &LogicalGraph, seed: u64, worker: usize, messages: usize) -> Self {
        Obligations {
            held: Vec::new(),
            inputs: graph.input_stages().map(|s| (s, Some(0))).collect(),
            msgs_left: messages,
            rng: Xorshift::with_salt(seed, 0x57A2 + worker as u64),
        }
    }

    fn has_work(&self) -> bool {
        !self.held.is_empty() || self.inputs.iter().any(|(_, e)| e.is_some())
    }

    /// Performs one step, returning the journal flushes to hand to the
    /// protocol (one flush normally; two under
    /// [`Chaos::RetireBeforeConsequence`]).
    fn act(&mut self, graph: &LogicalGraph, cfg: &McConfig) -> Vec<Vec<ProgressUpdate>> {
        let mut options = Vec::new();
        for (i, (_, epoch)) in self.inputs.iter().enumerate() {
            if let Some(e) = epoch {
                if *e < cfg.max_epochs {
                    options.push(Choice::Advance(i));
                } else if self.msgs_left == 0 {
                    // The workload is budgeted: a worker introduces all of
                    // its messages before sealing its input, so every seed
                    // exercises message traffic (not just epoch bookkeeping).
                    options.push(Choice::Close(i));
                }
                if self.msgs_left > 0 {
                    options.push(Choice::Emit(i));
                }
            }
        }
        for j in 0..self.held.len() {
            options.push(Choice::Process(j));
        }
        debug_assert!(!options.is_empty(), "act called without work");
        let choice = &options[self.rng.below_usize(options.len())];
        match *choice {
            Choice::Advance(i) => {
                let (stage, epoch) = &mut self.inputs[i];
                let e = epoch.expect("advance offered only while open");
                *epoch = Some(e + 1);
                // +1 before −1: the local view's input frontier must never
                // transiently empty.
                vec![vec![
                    (Pointstamp::at_vertex(Timestamp::new(e + 1), *stage), 1),
                    (Pointstamp::at_vertex(Timestamp::new(e), *stage), -1),
                ]]
            }
            Choice::Close(i) => {
                let (stage, epoch) = &mut self.inputs[i];
                let e = epoch.take().expect("close offered only while open");
                vec![vec![(Pointstamp::at_vertex(Timestamp::new(e), *stage), -1)]]
            }
            Choice::Emit(i) => {
                let (stage, epoch) = self.inputs[i];
                let e = epoch.expect("emit offered only while open");
                self.msgs_left -= 1;
                let outs: Vec<ConnectorId> = graph.outgoing(stage).map(|(c, _)| c).collect();
                let c = outs[self.rng.below_usize(outs.len())];
                let stamp = Pointstamp::on_edge(Timestamp::new(e), c);
                self.held.push(stamp);
                vec![vec![(stamp, 1)]]
            }
            Choice::Process(j) => {
                let p = self.held.remove(j);
                let mut consequences = Vec::new();
                let stage = match p.location {
                    Location::Edge(c) => graph.connectors()[c.0].dst.0,
                    Location::Vertex(s) => s,
                };
                let kind = graph.stages()[stage.0].kind;
                let system = matches!(
                    kind,
                    StageKind::Ingress | StageKind::Egress | StageKind::Feedback
                );
                let next = graph.stage_summary(stage).apply(&p.time);
                let within_cap = next.counters.as_slice().iter().all(|&c| c <= cfg.loop_cap);
                // System stages always pass messages through (unless the
                // loop cap retires them); user stages forward by choice.
                let forward = if system { true } else { self.rng.chance(0.7) };
                let outs: Vec<ConnectorId> = graph.outgoing(stage).map(|(c, _)| c).collect();
                if forward && within_cap && !outs.is_empty() {
                    let c = outs[self.rng.below_usize(outs.len())];
                    let stamp = Pointstamp::on_edge(next, c);
                    self.held.push(stamp);
                    consequences.push((stamp, 1));
                }
                // Delivering a message at a user stage may request a
                // notification at the message's time.
                if matches!(p.location, Location::Edge(_))
                    && kind == StageKind::Regular
                    && self.rng.chance(0.25)
                {
                    let stamp = Pointstamp::at_vertex(p.time, stage);
                    self.held.push(stamp);
                    consequences.push((stamp, 1));
                }
                let retirement = (p, -1);
                if cfg.chaos == Chaos::RetireBeforeConsequence {
                    // The planted bug: retirement leaves in its own batch,
                    // before the consequences.
                    if consequences.is_empty() {
                        vec![vec![retirement]]
                    } else {
                        vec![vec![retirement], consequences]
                    }
                } else {
                    // The runtime's order: a pump's next pull retires the
                    // batch before its outputs flush their creations, and
                    // one journal flush carries both.
                    let mut flush = vec![retirement];
                    flush.extend(consequences);
                    vec![flush]
                }
            }
        }
    }
}

/// One virtual worker: protocol core + obligations + routed-batch queue.
struct VirtualWorker {
    core: WorkerCore,
    obligations: Obligations,
    /// Batches delivered to this worker's mailbox, not yet applied.
    pending: VecDeque<ProgressBatch>,
    /// Cumulative applied deltas, for the policy-equivalence check.
    applied: HashMap<Pointstamp, i64>,
    /// Every update this worker journaled, in order. Schedule- and
    /// mode-independent by construction (worker choices depend only on
    /// the seed), which the policy-equivalence test asserts.
    journal: Vec<ProgressUpdate>,
}

/// The virtual cluster: the pure protocol cores of a full deployment,
/// wired over explicit FIFO links instead of the fabric.
pub struct Cluster {
    cfg: McConfig,
    graph: Arc<LogicalGraph>,
    workers: Vec<VirtualWorker>,
    /// Per-process accumulator cores (local modes only).
    accs: Vec<GroupCore>,
    /// The cluster-level accumulator core (global modes only).
    central: Option<GroupCore>,
    /// FIFO links between endpoints.
    links: BTreeMap<(Endpoint, Endpoint), VecDeque<ProgressBatch>>,
    /// The omniscient reference: every journal applied atomically the
    /// instant it is produced. Ground truth for "outstanding".
    reference: PointstampTable,
    seed: u64,
    /// Events executed so far.
    step: usize,
    /// Batches dropped by [`Chaos::DropBatch`].
    dropped: usize,
    /// Batches that crossed a link while [`Chaos::StarveCredits`] held
    /// the data plane's credits at zero — delivered anyway, because
    /// progress traffic never consults the credit ledger.
    starved: usize,
}

impl Cluster {
    /// A fresh cluster for one seed of one configuration.
    pub fn new(cfg: &McConfig, seed: u64) -> Self {
        let graph = cfg.topology.graph();
        let total = cfg.total_workers();
        let workers = (0..total)
            .map(|w| VirtualWorker {
                core: WorkerCore::new(graph.clone(), DATAFLOW, w as u32, total),
                obligations: Obligations::new(&graph, seed, w, cfg.messages_per_worker),
                pending: VecDeque::new(),
                applied: HashMap::new(),
                journal: Vec::new(),
            })
            .collect();
        let group = |sender, role| {
            let mut core = GroupCore::new(sender, cfg.mode.hop(role), total);
            core.register(DATAFLOW, graph.clone());
            core
        };
        let accs = if cfg.mode.local() {
            (0..cfg.processes)
                .map(|p| group(PROC_ACC_SENDER_BASE + p as u32, Role::ProcessAccumulator))
                .collect()
        } else {
            Vec::new()
        };
        let central = cfg
            .mode
            .global()
            .then(|| group(CENTRAL_SENDER, Role::CentralAccumulator));
        Cluster {
            graph: graph.clone(),
            workers,
            accs,
            central,
            links: BTreeMap::new(),
            reference: PointstampTable::initialized(graph, total),
            cfg: cfg.clone(),
            seed,
            step: 0,
            dropped: 0,
            starved: 0,
        }
    }

    fn process_of(&self, worker: usize) -> usize {
        worker / self.cfg.workers_per_process
    }

    /// The events currently legal, in canonical order (acts, applies,
    /// deliveries by link key). The schedule picks among these.
    pub fn eligible(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for (w, vw) in self.workers.iter().enumerate() {
            if vw.obligations.has_work() {
                out.push(Event::Act(w));
            }
        }
        for (w, vw) in self.workers.iter().enumerate() {
            if !vw.pending.is_empty() {
                out.push(Event::Apply(w));
            }
        }
        for (&(src, dst), q) in &self.links {
            if !q.is_empty() {
                out.push(Event::Deliver(src, dst));
            }
        }
        out
    }

    /// Whether `event` is currently legal (used by trace replay, which
    /// skips steps that shrinking made moot).
    pub fn is_eligible(&self, event: Event) -> bool {
        match event {
            Event::Act(w) => self
                .workers
                .get(w)
                .is_some_and(|vw| vw.obligations.has_work()),
            Event::Apply(w) => self.workers.get(w).is_some_and(|vw| !vw.pending.is_empty()),
            Event::Deliver(src, dst) => self
                .links
                .get(&(src, dst))
                .is_some_and(|q| !q.is_empty()),
        }
    }

    fn enqueue(&mut self, src: Endpoint, dst: Endpoint, batch: ProgressBatch) {
        if self.cfg.chaos == Chaos::StarveCredits {
            // Tally, never block: progress batches cross links regardless
            // of data-plane credit — the exemption under test.
            self.starved += 1;
        }
        if let Chaos::DropBatch(per_mille) = self.cfg.chaos {
            // Replay-stable: the decision depends only on the batch's
            // identity and the seed, never on the schedule.
            let h = fnv64(&[
                self.seed,
                0xD209,
                u64::from(batch.sender),
                batch.seq,
                match dst {
                    Endpoint::Process(p) => p as u64,
                    Endpoint::Central => u64::MAX,
                },
            ]);
            if h % 1000 < u64::from(per_mille) {
                self.dropped += 1;
                return;
            }
        }
        self.links.entry((src, dst)).or_default().push_back(batch);
    }

    /// Puts `batch` on the link from `src` to every endpoint of `hop`.
    fn send(&mut self, src: Endpoint, hop: Hop, batch: &ProgressBatch) {
        for dst in hop.endpoints(self.cfg.processes) {
            self.enqueue(src, dst, batch.clone());
        }
    }

    /// Executes one event; `Some` if an oracle fired.
    pub fn execute(&mut self, event: Event) -> Option<ViolationReport> {
        debug_assert!(self.is_eligible(event), "schedule picked {event}");
        let violation = match event {
            Event::Act(w) => self.do_act(w),
            Event::Deliver(src, dst) => self.do_deliver(src, dst),
            Event::Apply(w) => self.do_apply(w),
        };
        let report = violation.map(|v| ViolationReport {
            violation: v,
            step: self.step,
        });
        self.step += 1;
        report
    }

    fn do_act(&mut self, w: usize) -> Option<Violation> {
        let flushes = {
            let vw = &mut self.workers[w];
            vw.obligations.act(&self.graph, &self.cfg)
        };
        // Ground truth first: the reference sees each flush atomically.
        for flush in &flushes {
            self.reference.apply(flush.iter().copied());
            self.workers[w].journal.extend_from_slice(flush);
        }
        let created: Vec<Pointstamp> = flushes
            .iter()
            .flatten()
            .filter(|(_, d)| *d > 0)
            .map(|(p, _)| *p)
            .collect();
        // Hand the flushes to the protocol, per the mode under test.
        let process = self.process_of(w);
        let here = Endpoint::Process(process);
        let hop = self.cfg.mode.hop(Role::Worker);
        for flush in flushes {
            if hop == Hop::OwnAccumulator {
                if let Some(batch) = self.accs[process].deposit(DATAFLOW, flush) {
                    self.send(here, self.accs[process].hop(), &batch);
                }
            } else {
                for batch in self.workers[w].core.emit_for(hop, flush) {
                    self.send(here, hop, &batch);
                }
            }
        }
        // Safety oracle, creation side: a newly outstanding pointstamp
        // must not already be believed complete anywhere.
        self.safety_check_stamps(&created)
    }

    fn do_deliver(&mut self, src: Endpoint, dst: Endpoint) -> Option<Violation> {
        let batch = {
            let queue = self
                .links
                .get_mut(&(src, dst))
                .expect("eligibility checked");
            let mut index = 0;
            if let Chaos::ReorderLinks(per_mille) = self.cfg.chaos {
                if queue.len() >= 2 {
                    let front = &queue[0];
                    let h = fnv64(&[self.seed, 0x2E02, u64::from(front.sender), front.seq]);
                    if h % 1000 < u64::from(per_mille) {
                        index = 1;
                    }
                }
            }
            queue.remove(index).expect("eligibility checked")
        };
        match dst {
            Endpoint::Central => {
                let central = self.central.as_mut().expect("central link implies mode");
                let hop = central.hop();
                if let Some(out) = central.deposit(batch.dataflow, batch.updates) {
                    self.send(Endpoint::Central, hop, &out);
                }
                None
            }
            Endpoint::Process(p) => {
                // The fabric puts the batch into every local worker's
                // mailbox.
                let lo = p * self.cfg.workers_per_process;
                for w in lo..lo + self.cfg.workers_per_process {
                    self.workers[w].pending.push_back(batch.clone());
                }
                None
            }
        }
    }

    fn do_apply(&mut self, w: usize) -> Option<Violation> {
        let batch = self.workers[w].pending.pop_front().expect("eligibility");
        // The tee: a worker hands every batch to its process accumulator,
        // where there is one, before applying it; the first hand-off of a
        // batch is the one the accumulator observes.
        let process = self.process_of(w);
        if let Some(acc) = self.accs.get_mut(process) {
            let hop = acc.hop();
            if let Some(out) = acc.observe(&batch) {
                self.send(Endpoint::Process(process), hop, &out);
            }
        }
        let retired = batch.updates.iter().any(|(_, d)| *d < 0);
        for &(p, d) in &batch.updates {
            let e = self.workers[w].applied.entry(p).or_insert(0);
            *e += d;
            if *e == 0 {
                self.workers[w].applied.remove(&p);
            }
        }
        if let Err(violation) = self.workers[w].core.apply(&batch) {
            return Some(Violation::Fifo {
                worker: w,
                violation,
            });
        }
        // Safety oracle, retirement side: removing entries from `w`'s view
        // is the only way `w` can newly believe a pointstamp complete, so
        // re-check the reference frontier against `w`. Checking frontier
        // stamps only is exhaustive: `done_through` propagates down
        // could-result-in chains, so any violated stamp implicates a
        // violated frontier stamp.
        if retired {
            for stamp in self.reference.frontier() {
                if self.workers[w]
                    .core
                    .table()
                    .done_through(&stamp.time, stamp.location)
                {
                    return Some(Violation::Safety { worker: w, stamp });
                }
            }
        }
        None
    }

    /// Safety check for freshly created stamps against every worker.
    fn safety_check_stamps(&self, stamps: &[Pointstamp]) -> Option<Violation> {
        for &stamp in stamps {
            for (w, vw) in self.workers.iter().enumerate() {
                if vw.core.table().done_through(&stamp.time, stamp.location) {
                    return Some(Violation::Safety { worker: w, stamp });
                }
            }
        }
        None
    }

    /// The liveness oracle, run when no events remain: the computation
    /// has ended, so every view must agree it has ended.
    pub fn check_quiescent(&self) -> Option<ViolationReport> {
        debug_assert!(self.eligible().is_empty(), "quiescence check while live");
        let mut stuck = Vec::new();
        if !self.reference.is_empty() {
            stuck.push(format!(
                "reference still holds {} pointstamp entries",
                self.reference.active_count().max(1)
            ));
        }
        for (w, vw) in self.workers.iter().enumerate() {
            if !vw.core.table().is_empty() {
                stuck.push(format!("worker {w}'s view is non-empty"));
            }
        }
        for (p, acc) in self.accs.iter().enumerate() {
            if acc.has_buffered() {
                stuck.push(format!("process {p}'s accumulator still buffers updates"));
            }
        }
        if let Some(central) = &self.central {
            if central.has_buffered() {
                stuck.push("the central accumulator still buffers updates".to_string());
            }
        }
        if stuck.is_empty() {
            None
        } else {
            if self.dropped > 0 {
                stuck.push(format!("({} batches dropped by chaos)", self.dropped));
            }
            Some(ViolationReport {
                violation: Violation::Liveness {
                    detail: stuck.join("; "),
                },
                step: self.step,
            })
        }
    }

    /// Events executed so far.
    pub fn steps(&self) -> usize {
        self.step
    }

    /// Batches that crossed a link while [`Chaos::StarveCredits`] was
    /// withholding every data-plane credit (all were delivered anyway).
    pub fn starved(&self) -> usize {
        self.starved
    }

    /// Each worker's cumulative net applied deltas (zero entries elided):
    /// the quantity the accumulation policies must agree on.
    pub fn applied_deltas(&self) -> Vec<HashMap<Pointstamp, i64>> {
        self.workers.iter().map(|w| w.applied.clone()).collect()
    }

    /// Each worker's full journal, in emission order. Depends only on the
    /// seed — never on the schedule or the accumulation policy.
    pub fn journals(&self) -> Vec<Vec<ProgressUpdate>> {
        self.workers.iter().map(|w| w.journal.clone()).collect()
    }
}
