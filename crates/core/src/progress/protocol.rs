//! The distributed progress-tracking protocol (§3.3).
//!
//! Workers never mutate their pointstamp tables directly: every occurrence
//! change is broadcast as a `(Pointstamp, δ)` update, FIFO per sender, and
//! applied on receipt — including by the sender itself. A naive
//! implementation broadcasts every update; the paper's two optimizations
//! are (1) projecting pointstamps to the logical graph, which this entire
//! reproduction does throughout, and (2) *accumulating* updates in buffers
//! before broadcasting.
//!
//! This module is the whole protocol, as pure state — no transport, no
//! clock, no threads. [`WorkerCore`] is a worker's part in one dataflow,
//! [`GroupCore`] an accumulation site's, and [`ProgressMode::hop`] says
//! who sends to whom. The runtime ([`crate::runtime`]) and the
//! model-checker (the `naiad-check` crate) are two drivers of these same
//! types; neither holds a copy of any rule stated here.
//!
//! [`Accumulator`] implements the buffering rule over a
//! [`PointstampTable`] *view* — everything it has flushed or observed —
//! with the table's one predicate: a buffered update at pointstamp `p` may
//! be held as long as
//!
//! * some *other* pointstamp that is active in the view could-result-in
//!   `p` ([`PointstampTable::blocked`]: §3.3's "local frontier", by
//!   transitivity and minimality), or
//! * the update is positive and `p` itself is active in the view (§3.3's
//!   strictly-positive net count: the creation cannot move any frontier).
//!
//! Covers are drawn from the *view* only, never from other buffered
//! updates: a buffer must not justify itself, or the initial input
//! pointstamps would never be broadcast and no notification could ever be
//! delivered. Self-cover is restricted to positive deltas for the same
//! reason — the retirement of a minimal active pointstamp must flush, or
//! the global frontier would never advance.
//!
//! When a deposit or observation violates the rule the whole buffer
//! flushes, positive deltas before negative ones. Flushing everything
//! atomically preserves each sender's causal order (a message's
//! consequences are deposited before its retirement), which is what makes
//! any holding policy safe.

use std::collections::HashMap;
use std::sync::Arc;

use naiad_wire::hash::KeyMap;
use naiad_wire::{Wire, WireError};

use crate::graph::LogicalGraph;

use super::tracker::{add_count, PointstampTable};
use super::{Pointstamp, ProgressUpdate};

/// Sender-id base for process-level accumulators (workers use their own
/// worker index as sender id).
pub const PROC_ACC_SENDER_BASE: u32 = 1 << 24;
/// Sender id of the cluster-level accumulator.
pub const CENTRAL_SENDER: u32 = 1 << 25;

/// Which accumulation topology the runtime uses (Figure 6c's four lines).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ProgressMode {
    /// No accumulation: every worker broadcast goes to every worker
    /// directly ("None" in Figure 6c).
    Broadcast,
    /// A per-process accumulator combines its workers' updates before
    /// broadcasting ("LocalAcc"). The paper's default, together with
    /// [`ProgressMode::LocalGlobal`].
    #[default]
    Local,
    /// A cluster-level central accumulator combines all processes' updates
    /// and broadcasts their net effect ("GlobalAcc").
    Global,
    /// Both levels: process accumulators feed the central accumulator
    /// ("Local+GlobalAcc").
    LocalGlobal,
}

/// A participant in the protocol, as the origin of a flush.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// A worker flushing its journal.
    Worker,
    /// A process-level accumulator.
    ProcessAccumulator,
    /// The cluster-level accumulator.
    CentralAccumulator,
}

/// Where a participant's flushed updates go next.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Hop {
    /// Into the flushing worker's own process accumulator, in memory.
    OwnAccumulator,
    /// To every process: into each of its workers' mailboxes, and through
    /// the first worker to apply it into its accumulator, where there is
    /// one.
    EveryProcess,
    /// To the central accumulator.
    Central,
}

/// A fabric endpoint: a process (its workers and accumulator) or the
/// central accumulator.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Endpoint {
    /// Process `p`.
    Process(usize),
    /// The central accumulator's extra endpoint.
    Central,
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Process(p) => write!(f, "p{p}"),
            Endpoint::Central => write!(f, "C"),
        }
    }
}

impl Hop {
    /// The endpoints a batch taking this hop is sent to, in send order
    /// (none for [`Hop::OwnAccumulator`], which never leaves the process).
    pub fn endpoints(self, processes: usize) -> impl Iterator<Item = Endpoint> {
        let (processes, central) = match self {
            Hop::OwnAccumulator => (0, None),
            Hop::EveryProcess => (processes, None),
            Hop::Central => (0, Some(Endpoint::Central)),
        };
        (0..processes).map(Endpoint::Process).chain(central)
    }

    /// Whether an accumulator whose flushes take this hop folds them into
    /// its own view as they leave. An accumulator does not observe its own
    /// broadcasts ([`GroupCore::observe`]), so it must; a flush sent up to
    /// the central accumulator comes back inside the central accumulator's
    /// broadcasts, which it does observe — folding as well would count it
    /// twice.
    fn folds(self) -> bool {
        self == Hop::EveryProcess
    }
}

impl ProgressMode {
    /// Whether a per-process accumulator is interposed.
    pub fn local(&self) -> bool {
        matches!(self, ProgressMode::Local | ProgressMode::LocalGlobal)
    }

    /// Whether the cluster-level accumulator is interposed.
    pub fn global(&self) -> bool {
        matches!(self, ProgressMode::Global | ProgressMode::LocalGlobal)
    }

    /// The topology, whole: where a flush from `from` goes next. The
    /// runtime's transport shells and the model-checker's virtual cluster
    /// both route by this function and nothing else.
    ///
    /// # Panics
    ///
    /// Panics if the mode has no participant in that role (no process
    /// accumulators outside the local modes, no central accumulator
    /// outside the global ones).
    pub fn hop(self, from: Role) -> Hop {
        use ProgressMode::{Broadcast, Global, Local, LocalGlobal};
        match (from, self) {
            (Role::Worker, Local | LocalGlobal) => Hop::OwnAccumulator,
            (Role::Worker, Broadcast)
            | (Role::ProcessAccumulator, Local)
            | (Role::CentralAccumulator, Global | LocalGlobal) => Hop::EveryProcess,
            (Role::Worker, Global) | (Role::ProcessAccumulator, LocalGlobal) => Hop::Central,
            (Role::ProcessAccumulator, Broadcast | Global)
            | (Role::CentralAccumulator, Broadcast | Local) => {
                panic!("{self:?} mode has no {from:?}")
            }
        }
    }

    /// The label Figure 6c uses for this mode.
    pub fn figure_label(&self) -> &'static str {
        match self {
            ProgressMode::Broadcast => "None",
            ProgressMode::Local => "LocalAcc",
            ProgressMode::Global => "GlobalAcc",
            ProgressMode::LocalGlobal => "Local+GlobalAcc",
        }
    }
}

/// A batch of progress updates from one sender.
///
/// The sequence number makes per-sender FIFO delivery checkable downstream
/// (the fabric already guarantees it; the runtime asserts it in debug
/// builds, mirroring Naiad's idempotent sequenced delivery).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgressBatch {
    /// Identifier of the sending worker or accumulator.
    pub sender: u32,
    /// Per-sender sequence number, starting at zero.
    pub seq: u64,
    /// The dataflow whose tracker these updates feed.
    pub dataflow: u32,
    /// The updates, applied atomically by receivers.
    pub updates: Vec<ProgressUpdate>,
}

/// A sender id on the wire: `(index << 2) | role`, role 0 for a worker,
/// 1 for a process accumulator, 2 for the central accumulator, so every
/// sender of a small cluster takes one byte.
fn sender_head(sender: u32) -> u64 {
    let (base, role) = match sender {
        s if s >= CENTRAL_SENDER => (CENTRAL_SENDER, 2),
        s if s >= PROC_ACC_SENDER_BASE => (PROC_ACC_SENDER_BASE, 1),
        _ => (0, 0),
    };
    (u64::from(sender - base) << 2) | role
}

/// The sender's head varint, the sequence number, the dataflow, then the
/// updates, each a [`Pointstamp`] and its delta.
impl Wire for ProgressBatch {
    fn encode(&self, buf: &mut Vec<u8>) {
        sender_head(self.sender).encode(buf);
        self.seq.encode(buf);
        self.dataflow.encode(buf);
        self.updates.len().encode(buf);
        for (p, delta) in &self.updates {
            p.encode(buf);
            delta.encode(buf);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let head = u64::decode(input)?;
        let base = match head & 0b11 {
            0 => 0,
            1 => PROC_ACC_SENDER_BASE,
            2 => CENTRAL_SENDER,
            _ => return Err(WireError::InvalidTag(3)),
        };
        // Only the canonical head: an index reaching into the next role's
        // ids is refused.
        let sender = u32::try_from(head >> 2)
            .ok()
            .and_then(|index| base.checked_add(index))
            .filter(|&sender| sender_head(sender) == head)
            .ok_or(WireError::InvalidValue)?;
        let seq = u64::decode(input)?;
        let dataflow = u32::decode(input)?;
        let len = usize::decode(input)?;
        // The shortest update is three bytes: a head, an epoch, a delta.
        if len > input.len() / 3 {
            return Err(WireError::LengthOverrun {
                declared: len,
                remaining: input.len(),
            });
        }
        let mut updates = Vec::with_capacity(len);
        for _ in 0..len {
            let p = Pointstamp::decode(input)?;
            let delta = i64::decode(input)?;
            updates.push((p, delta));
        }
        Ok(ProgressBatch {
            sender,
            seq,
            dataflow,
            updates,
        })
    }
}

/// A buffering accumulator for progress updates (§3.3, optimization 2).
///
/// One instance serves a *group* of senders — a process's workers, or all
/// processes at the cluster level. Deposits combine by pointstamp; the
/// buffer drains when the safety condition in the module docs would be
/// violated, or on an explicit [`Accumulator::flush`].
#[derive(Debug)]
pub struct Accumulator {
    /// The accumulator's view of global occurrence counts: everything it
    /// has flushed (in flight or delivered) plus everything observed from
    /// other groups.
    view: PointstampTable,
    /// Combined, not-yet-forwarded updates; zero entries are elided.
    buffer: KeyMap<Pointstamp, i64>,
    /// Whether flushed updates fold into the local view ([`Hop::folds`]).
    fold_on_flush: bool,
}

impl Accumulator {
    /// An accumulator reasoning over `graph`, with its view initialized to
    /// the a-priori state of §2.3: one active pointstamp per input vertex
    /// instance at the first epoch. Initialization is *not* broadcast —
    /// every participant derives it from the graph — which is what keeps
    /// early views from being vacuously complete.
    pub fn new(graph: Arc<LogicalGraph>, total_workers: usize) -> Self {
        Accumulator {
            view: PointstampTable::initialized(graph, total_workers),
            buffer: KeyMap::default(),
            fold_on_flush: true,
        }
    }

    /// Records updates that bypassed this accumulator (broadcasts from
    /// other groups), refining the local view. Per §3.3, receiving new
    /// updates re-tests the buffering condition; the drained buffer is
    /// returned if it no longer holds.
    pub fn observe<'a, I: IntoIterator<Item = &'a ProgressUpdate>>(
        &mut self,
        updates: I,
    ) -> Option<Vec<ProgressUpdate>> {
        self.view.apply(updates.into_iter().copied());
        if self.buffer.is_empty() || self.buffer_is_safe() {
            None
        } else {
            Some(self.flush())
        }
    }

    /// Deposits updates for forwarding. Returns the drained buffer if the
    /// safety condition forces a broadcast, otherwise `None`.
    pub fn deposit<I: IntoIterator<Item = ProgressUpdate>>(
        &mut self,
        updates: I,
    ) -> Option<Vec<ProgressUpdate>> {
        for (p, delta) in updates {
            add_count(&mut self.buffer, p, delta);
        }
        if self.buffer_is_safe() {
            None
        } else {
            Some(self.flush())
        }
    }

    /// The holding rule of the module docs: every buffered update is
    /// self-covered (a creation at a pointstamp everyone already counts as
    /// active changes no frontier) or other-covered (a visible-active
    /// pointstamp precedes it, so no frontier can reach it until that
    /// cover retires — and its retirement re-tests this condition).
    fn buffer_is_safe(&self) -> bool {
        self.buffer
            .iter()
            .all(|(p, &delta)| (delta > 0 && self.view.is_active(p)) || self.view.blocked(p))
    }

    /// Drains the buffer: positive deltas first, then negatives (§3.3),
    /// and folds the drained updates into the local view (they are now in
    /// flight). The sort makes a flush canonical: the drain's order is not.
    pub fn flush(&mut self) -> Vec<ProgressUpdate> {
        let mut updates: Vec<ProgressUpdate> = self.buffer.drain().collect();
        positives_first(&mut updates);
        if self.fold_on_flush {
            self.view.apply(updates.iter().copied());
        }
        updates
    }

    /// Whether any updates are buffered.
    pub fn has_buffered(&self) -> bool {
        !self.buffer.is_empty()
    }

    /// Number of distinct buffered pointstamps.
    pub fn buffered_len(&self) -> usize {
        self.buffer.len()
    }
}

/// Orders a flush positives first (§3.3), canonically. Applied one update
/// at a time, every prefix then counts at least what the view held before
/// the flush (while positives apply) or after it (once negatives do), so
/// no prefix believes more complete than an atomic apply would.
fn positives_first(updates: &mut [ProgressUpdate]) {
    updates.sort_unstable_by_key(|&(p, delta)| (delta < 0, p));
}

/// Monotone per-sender sequence numbering for outgoing progress batches.
///
/// Every protocol participant (worker, process accumulator, central
/// accumulator) stamps its batches from its own counter; receivers use
/// [`FifoChecker`] to assert the fabric preserved the order. Private: the
/// cores below are the only way to number or admit a batch.
#[derive(Debug, Clone)]
struct BatchEmitter {
    sender: u32,
    seq: u64,
}

impl BatchEmitter {
    fn new(sender: u32) -> Self {
        BatchEmitter { sender, seq: 0 }
    }

    /// Wraps `updates` in the next batch for `dataflow`.
    fn batch(&mut self, dataflow: u32, updates: Vec<ProgressUpdate>) -> ProgressBatch {
        let seq = self.seq;
        self.seq += 1;
        ProgressBatch {
            sender: self.sender,
            seq,
            dataflow,
            updates,
        }
    }
}

/// A violated per-sender FIFO expectation on incoming progress batches.
///
/// The §3.3 protocol is only sound over per-sender FIFO links: a batch
/// applied out of order can retire a pointstamp before its consequences
/// are known, silently corrupting frontiers. The runtime asserts on this;
/// the model-checker reports it as a first-class oracle failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoViolation {
    /// The offending sender.
    pub sender: u32,
    /// The sequence number that arrived.
    pub seq: u64,
    /// The highest sequence number previously admitted from `sender`.
    pub last: u64,
}

impl std::fmt::Display for FifoViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "progress batches from sender {} out of order: seq {} after {}",
            self.sender, self.seq, self.last
        )
    }
}

/// Per-sender FIFO admission check for incoming progress batches.
///
/// Duplicate or reordered batches are reported as [`FifoViolation`]s;
/// gaps are legal (an accumulated batch may supersede several smaller
/// ones upstream, and senders share no sequence space).
#[derive(Debug, Clone, Default)]
struct FifoChecker {
    last: HashMap<u32, u64>,
}

impl FifoChecker {
    /// Admits `(sender, seq)`, recording it as the sender's high-water
    /// mark; errors — leaving the mark where it was — if the sequence
    /// does not strictly increase.
    fn admit(&mut self, sender: u32, seq: u64) -> Result<(), FifoViolation> {
        match self.last.get(&sender) {
            Some(&last) if seq <= last => Err(FifoViolation { sender, seq, last }),
            _ => {
                self.last.insert(sender, seq);
                Ok(())
            }
        }
    }
}

/// The pure core of an accumulation group (§3.3): a process-level or
/// cluster-level [`Accumulator`] per dataflow behind one sender identity
/// and one outgoing sequence.
///
/// Deltas go in via [`GroupCore::deposit`] (this group's own senders) or
/// [`GroupCore::observe`] (broadcasts from other groups); when the
/// buffering rule forces a flush the drained updates come back out as a
/// ready-to-send [`ProgressBatch`], to be sent where [`GroupCore::hop`]
/// says. The struct is side-effect-free — the runtime's progress hub is a
/// transport shell around it, and the model-checker drives it over
/// virtual links.
#[derive(Debug)]
pub struct GroupCore {
    emitter: BatchEmitter,
    hop: Hop,
    total_workers: usize,
    /// Per-dataflow accumulators, created on registration.
    accs: KeyMap<u32, Accumulator>,
    /// Observations that arrived before the dataflow's graph was known
    /// (a peer group can broadcast first); replayed in arrival order on
    /// registration.
    stashed: HashMap<u32, Vec<ProgressUpdate>>,
    /// The highest `seq` observed per `(sender, dataflow)`: every local
    /// worker hands this group each batch it applies, and only the first
    /// hand-off counts.
    observed: HashMap<(u32, u32), u64>,
}

impl GroupCore {
    /// A group core for `sender` whose flushes take `hop`
    /// ([`ProgressMode::hop`]), serving `total_workers` workers
    /// cluster-wide.
    pub fn new(sender: u32, hop: Hop, total_workers: usize) -> Self {
        GroupCore {
            emitter: BatchEmitter::new(sender),
            hop,
            total_workers,
            accs: KeyMap::default(),
            stashed: HashMap::new(),
            observed: HashMap::new(),
        }
    }

    /// Where this group's flushed batches go.
    pub fn hop(&self) -> Hop {
        self.hop
    }

    /// Whether `dataflow`'s accumulator exists yet.
    pub fn is_registered(&self, dataflow: u32) -> bool {
        self.accs.contains_key(&dataflow)
    }

    /// Registers `dataflow`'s graph, creating its accumulator and
    /// replaying any stashed pre-registration observations (view
    /// refinements only: the buffer is empty, so nothing can flush).
    pub fn register(&mut self, dataflow: u32, graph: Arc<LogicalGraph>) {
        if self.accs.contains_key(&dataflow) {
            return;
        }
        let mut acc = Accumulator::new(graph, self.total_workers);
        acc.fold_on_flush = self.hop.folds();
        if let Some(buffered) = self.stashed.remove(&dataflow) {
            let flushed = acc.observe(buffered.iter());
            debug_assert!(flushed.is_none(), "empty buffer cannot flush");
        }
        self.accs.insert(dataflow, acc);
    }

    /// Deposits updates from this group's own senders; returns the
    /// batch to broadcast if the §3.3 condition forces a flush.
    ///
    /// # Panics
    ///
    /// Panics if `dataflow` was never [`register`](GroupCore::register)ed
    /// — local deposits always follow construction.
    pub fn deposit(
        &mut self,
        dataflow: u32,
        updates: Vec<ProgressUpdate>,
    ) -> Option<ProgressBatch> {
        let acc = self
            .accs
            .get_mut(&dataflow)
            .expect("local deposits follow dataflow registration");
        let flushed = acc.deposit(updates)?;
        Some(self.emitter.batch(dataflow, flushed))
    }

    /// Observes a broadcast one of the group's workers is about to apply,
    /// stashing it if the dataflow is not registered yet; returns the batch
    /// to broadcast if the buffered updates are no longer safe to hold.
    /// The group's own broadcasts are ignored: their content was folded as
    /// they left. So is a `(sender, dataflow, seq)` already observed: each
    /// local worker hands over every batch it applies, and a sender's
    /// batches reach every worker in `seq` order, so the first hand-off of
    /// each is the one that counts, and they count in `seq` order.
    pub fn observe(&mut self, batch: &ProgressBatch) -> Option<ProgressBatch> {
        if batch.sender == self.emitter.sender {
            return None;
        }
        let key = (batch.sender, batch.dataflow);
        match self.observed.get(&key) {
            Some(&last) if batch.seq <= last => return None,
            _ => self.observed.insert(key, batch.seq),
        };
        match self.accs.get_mut(&batch.dataflow) {
            Some(acc) => {
                let flushed = acc.observe(batch.updates.iter())?;
                Some(self.emitter.batch(batch.dataflow, flushed))
            }
            None => {
                self.stashed
                    .entry(batch.dataflow)
                    .or_default()
                    .extend_from_slice(&batch.updates);
                None
            }
        }
    }

    /// Whether any registered dataflow still holds buffered updates
    /// (the liveness oracle's quiescence test).
    pub fn has_buffered(&self) -> bool {
        self.accs.values().any(|a| a.has_buffered())
    }

    /// The highest `seq` observed from `sender` for `dataflow`.
    #[cfg(test)]
    pub(crate) fn observed_through(&self, sender: u32, dataflow: u32) -> Option<u64> {
        self.observed.get(&(sender, dataflow)).copied()
    }

    /// `dataflow`'s view, once registered.
    #[cfg(test)]
    pub(crate) fn view(&self, dataflow: u32) -> Option<&PointstampTable> {
        self.accs.get(&dataflow).map(|acc| &acc.view)
    }
}

/// A worker's local view of one dataflow: batches that outran the
/// dataflow's construction wait for its graph.
#[derive(Debug)]
enum View {
    Stashed(Vec<ProgressBatch>),
    Live(PointstampTable),
}

/// The pure per-worker protocol core for one dataflow: pointstamp deltas
/// in (local journal), broadcast batches out, received batches applied to
/// a local [`PointstampTable`] fed *exclusively* by the protocol (§3.3).
///
/// No transport, no clock, no threads: a driver — the runtime worker or
/// the deterministic model-checker — steps it explicitly.
#[derive(Debug)]
pub struct WorkerCore {
    dataflow: u32,
    emitter: BatchEmitter,
    fifo: FifoChecker,
    view: View,
}

impl WorkerCore {
    /// A core for worker `index` of `total_workers`, with the table
    /// initialized to §2.3's a-priori state.
    pub fn new(graph: Arc<LogicalGraph>, dataflow: u32, index: u32, total_workers: usize) -> Self {
        let mut core = WorkerCore::unregistered(dataflow, index);
        core.register(graph, total_workers);
        core
    }

    /// A core for a dataflow whose graph this worker does not know yet
    /// (peers construct concurrently, and the graph exists only once
    /// construction finishes): applied batches are admitted and stashed
    /// until [`WorkerCore::register`].
    pub fn unregistered(dataflow: u32, index: u32) -> Self {
        WorkerCore {
            dataflow,
            emitter: BatchEmitter::new(index),
            fifo: FifoChecker::default(),
            view: View::Stashed(Vec::new()),
        }
    }

    /// Installs the dataflow's graph: the table starts from §2.3's
    /// a-priori state and the stashed batches apply in arrival order.
    /// Returns them, for the caller's accounting. A second call is a
    /// no-op.
    pub fn register(
        &mut self,
        graph: Arc<LogicalGraph>,
        total_workers: usize,
    ) -> Vec<ProgressBatch> {
        let View::Stashed(early) = &mut self.view else {
            return Vec::new();
        };
        let early = std::mem::take(early);
        let mut table = PointstampTable::initialized(graph, total_workers);
        for batch in &early {
            table.apply(batch.updates.iter().copied());
        }
        self.view = View::Live(table);
        early
    }

    /// Wraps a journal flush in the next outgoing batch. Workers never
    /// buffer — accumulation happens at the group level, per the mode.
    pub fn emit(&mut self, updates: Vec<ProgressUpdate>) -> ProgressBatch {
        self.emitter.batch(self.dataflow, updates)
    }

    /// Wraps a journal flush in the batches that take `hop`: one batch —
    /// except that a worker broadcasting to every process itself is the
    /// naive protocol of Figure 6c's "None" line, which sends every
    /// update on its own, positives first. A receiver applies the split
    /// flush one update at a time, and the runtime journals a batch's
    /// retirement before its outputs' creations.
    pub fn emit_for(&mut self, hop: Hop, mut updates: Vec<ProgressUpdate>) -> Vec<ProgressBatch> {
        if hop == Hop::EveryProcess {
            positives_first(&mut updates);
            updates.into_iter().map(|u| self.emit(vec![u])).collect()
        } else {
            vec![self.emit(updates)]
        }
    }

    /// Applies a received batch atomically, enforcing per-sender FIFO.
    pub fn apply(&mut self, batch: &ProgressBatch) -> Result<(), FifoViolation> {
        self.fifo.admit(batch.sender, batch.seq)?;
        match &mut self.view {
            View::Live(table) => table.apply(batch.updates.iter().copied()),
            View::Stashed(early) => early.push(batch.clone()),
        }
        Ok(())
    }

    /// The local view (read-only; all mutation flows through
    /// [`WorkerCore::apply`]), or `None` while the core is
    /// [`unregistered`](WorkerCore::unregistered).
    pub fn try_table(&self) -> Option<&PointstampTable> {
        match &self.view {
            View::Live(table) => Some(table),
            View::Stashed(_) => None,
        }
    }

    /// The local view.
    ///
    /// # Panics
    ///
    /// Panics on an unregistered core: there is no view to consult before
    /// the dataflow is finalized.
    pub fn table(&self) -> &PointstampTable {
        self.try_table()
            .expect("progress consulted before the dataflow was finalized")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ContextId, GraphBuilder, StageId, StageKind};
    use crate::time::Timestamp;

    fn ts(epoch: u64) -> Timestamp {
        Timestamp::new(epoch)
    }

    /// input(0) → a(1) → b(2), all in the root context.
    fn chain_graph() -> Arc<LogicalGraph> {
        let mut g = GraphBuilder::new();
        let input = g.add_stage("in", StageKind::Input, ContextId::ROOT, 0, 1);
        let a = g.add_stage("a", StageKind::Regular, ContextId::ROOT, 1, 1);
        let b = g.add_stage("b", StageKind::Regular, ContextId::ROOT, 1, 0);
        g.connect(input, 0, a, 0);
        g.connect(a, 0, b, 0);
        Arc::new(g.build().unwrap())
    }

    const INPUT: StageId = StageId(0);
    const B: StageId = StageId(2);

    #[test]
    fn batches_roundtrip_on_the_wire() {
        let batch = ProgressBatch {
            sender: 3,
            seq: 17,
            dataflow: 1,
            updates: vec![
                (Pointstamp::at_vertex(ts(0), INPUT), 1),
                (Pointstamp::at_vertex(ts(0), B), -2),
            ],
        };
        let bytes = naiad_wire::encode_to_vec(&batch);
        assert_eq!(bytes.len(), batch.encoded_len());
        assert_eq!(
            naiad_wire::decode_from_slice::<ProgressBatch>(&bytes).unwrap(),
            batch
        );
    }

    #[test]
    fn covered_updates_are_held() {
        let mut acc = Accumulator::new(chain_graph(), 1);
        // The view starts with the a-priori epoch-0 input pointstamp, so
        // downstream activity at B, epoch 0, is covered: +1/−1 churn
        // accumulates silently.
        for _ in 0..100 {
            assert!(acc
                .deposit([
                    (Pointstamp::at_vertex(ts(0), B), 1),
                    (Pointstamp::at_vertex(ts(0), B), -1),
                ])
                .is_none());
        }
        assert_eq!(acc.buffered_len(), 0, "churn combined to nothing");
        // Uncancelled covered activity is also held.
        assert!(acc
            .deposit([(Pointstamp::at_vertex(ts(0), B), 1)])
            .is_none());
        assert_eq!(acc.buffered_len(), 1);
    }

    #[test]
    fn retiring_a_frontier_pointstamp_forces_a_flush() {
        let mut acc = Accumulator::new(chain_graph(), 1);
        // Epoch 0 completes: the +1 at epoch 1 is covered by the a-priori
        // epoch-0 input pointstamp, but the −1 at epoch 0 has only a
        // self-cover, which negatives may not use — the whole buffer
        // flushes, positives first.
        let flushed = acc
            .deposit([
                (Pointstamp::at_vertex(ts(1), INPUT), 1),
                (Pointstamp::at_vertex(ts(0), INPUT), -1),
            ])
            .expect("retirement must flush");
        assert_eq!(
            flushed,
            vec![
                (Pointstamp::at_vertex(ts(1), INPUT), 1),
                (Pointstamp::at_vertex(ts(0), INPUT), -1),
            ]
        );
        assert!(!acc.has_buffered());
    }

    #[test]
    fn positives_flush_before_negatives() {
        let mut acc = Accumulator::new(chain_graph(), 1);
        assert!(acc
            .observe(&[(Pointstamp::at_vertex(ts(0), INPUT), 1)])
            .is_none());
        // Deposit a covered mix, then flush explicitly.
        assert!(acc
            .deposit([
                (Pointstamp::at_vertex(ts(1), INPUT), 1),
                (Pointstamp::at_vertex(ts(0), B), 1),
            ])
            .is_none());
        let maybe = acc.deposit([(Pointstamp::at_vertex(ts(0), B), -2)]);
        let flushed = maybe.unwrap_or_else(|| acc.flush());
        let first_negative = flushed
            .iter()
            .position(|&(_, d)| d < 0)
            .unwrap_or(flushed.len());
        assert!(
            flushed[first_negative..].iter().all(|&(_, d)| d < 0),
            "positives must precede negatives: {flushed:?}"
        );
    }

    #[test]
    fn observation_keeps_buffering_safe_across_groups() {
        let mut acc = Accumulator::new(chain_graph(), 1);
        // Another process's broadcast holds epoch 0 open at the input.
        assert!(acc
            .observe(&[(Pointstamp::at_vertex(ts(0), INPUT), 1)])
            .is_none());
        // Local churn at B stays buffered because the *observed* pointstamp
        // covers it.
        assert!(acc
            .deposit([(Pointstamp::at_vertex(ts(0), B), 1)])
            .is_none());
        assert!(acc
            .deposit([(Pointstamp::at_vertex(ts(0), B), -1)])
            .is_none());
        assert_eq!(acc.buffered_len(), 0, "churn combined away");
    }

    #[test]
    fn uncovered_negative_flushes_immediately() {
        let mut acc = Accumulator::new(chain_graph(), 1);
        // Retire the a-priori input pointstamp (input closed at epoch 0).
        let flushed = acc.deposit([(Pointstamp::at_vertex(ts(0), INPUT), -1)]);
        assert_eq!(
            flushed,
            Some(vec![(Pointstamp::at_vertex(ts(0), INPUT), -1)])
        );
        // With the cover gone from the view, a bare retirement at B can no
        // longer be held either.
        let flushed = acc.deposit([(Pointstamp::at_vertex(ts(0), B), -1)]);
        assert_eq!(flushed, Some(vec![(Pointstamp::at_vertex(ts(0), B), -1)]));
    }

    #[test]
    fn in_flight_flushes_count_as_visible_covers() {
        let mut acc = Accumulator::new(chain_graph(), 1);
        // Flushed updates fold into the view, so they cover later churn
        // even before the broadcast lands anywhere.
        let _ = acc.deposit([(Pointstamp::at_vertex(ts(0), INPUT), 1)]);
        assert!(acc
            .deposit([(Pointstamp::at_vertex(ts(0), B), 1)])
            .is_none());
        // A creation whose only justification is itself (in the buffer)
        // does not count: it must flush.
        assert!(
            acc.deposit([(Pointstamp::at_vertex(ts(1), B), 1)])
                .is_none(),
            "covered by the epoch-0 input pointstamp"
        );
    }

    #[test]
    fn observing_a_retirement_flushes_dependent_buffered_updates() {
        let mut acc = Accumulator::new(chain_graph(), 1);
        // The a-priori input pointstamp covers our churn at B.
        assert!(acc
            .deposit([(Pointstamp::at_vertex(ts(0), B), -1)])
            .is_none());
        // The covering pointstamp retires via an external broadcast (the
        // input's owner closed it): the held update must flush now (§3.3:
        // re-test on receipt).
        let flushed = acc.observe(&[(Pointstamp::at_vertex(ts(0), INPUT), -1)]);
        assert_eq!(flushed, Some(vec![(Pointstamp::at_vertex(ts(0), B), -1)]));
    }

    #[test]
    fn emitter_sequences_and_fifo_checker_agree() {
        let mut em = BatchEmitter::new(7);
        let b0 = em.batch(0, vec![(Pointstamp::at_vertex(ts(0), INPUT), 1)]);
        let b1 = em.batch(0, vec![(Pointstamp::at_vertex(ts(0), INPUT), -1)]);
        assert_eq!((b0.sender, b0.seq), (7, 0));
        assert_eq!((b1.sender, b1.seq), (7, 1));
        let mut fifo = FifoChecker::default();
        assert!(fifo.admit(b0.sender, b0.seq).is_ok());
        assert!(fifo.admit(b1.sender, b1.seq).is_ok());
        // Replays and reorders are rejected; other senders are independent.
        assert_eq!(
            fifo.admit(7, 1),
            Err(FifoViolation {
                sender: 7,
                seq: 1,
                last: 1
            })
        );
        assert!(fifo.admit(8, 0).is_ok());
        // A rejected batch leaves the high-water mark where it was: after
        // 5, a late 3 is refused, and so is the 4 behind it.
        assert!(fifo.admit(7, 5).is_ok());
        assert_eq!(fifo.admit(7, 3).map_err(|v| v.last), Err(5));
        assert_eq!(fifo.admit(7, 4).map_err(|v| v.last), Err(5));
        assert!(fifo.admit(7, 6).is_ok());
    }

    #[test]
    fn group_core_stashes_until_registration() {
        let mut core = GroupCore::new(PROC_ACC_SENDER_BASE, Hop::EveryProcess, 1);
        // Pre-registration broadcasts stash rather than flush.
        let peer = ProgressBatch {
            sender: PROC_ACC_SENDER_BASE + 1,
            seq: 0,
            dataflow: 0,
            updates: vec![(Pointstamp::at_vertex(ts(0), INPUT), 1)],
        };
        assert!(core.observe(&peer).is_none());
        assert!(!core.is_registered(0));
        core.register(0, chain_graph());
        assert!(core.is_registered(0));
        // The stashed observation refined the view: churn at B is covered
        // and buffers silently.
        assert!(core
            .deposit(0, vec![(Pointstamp::at_vertex(ts(0), B), 1)])
            .is_none());
        assert!(core.has_buffered());
        // Retiring the a-priori input stamp forces a flush, sequenced
        // under the group's sender id.
        let batch = core
            .deposit(0, vec![(Pointstamp::at_vertex(ts(0), INPUT), -1)])
            .expect("uncovered negative flushes");
        assert_eq!(batch.sender, PROC_ACC_SENDER_BASE);
        assert_eq!(batch.seq, 0);
        assert_eq!(batch.dataflow, 0);
        // Its own broadcast, handed back by a worker, is not observed
        // again — the view folded it as it left. Counted twice, the peer's
        // input pointstamp would be gone from the view and nothing would
        // cover a creation at stage a.
        assert!(core.observe(&batch).is_none());
        assert!(core
            .deposit(0, vec![(Pointstamp::at_vertex(ts(0), StageId(1)), 1)])
            .is_none());
    }

    /// Every local worker hands the group each batch it applies; the group
    /// observes a `(sender, dataflow, seq)` the first time only. Here the
    /// peer's retirement of the input stamp, observed twice, would flush
    /// the held creation at b early.
    #[test]
    fn group_core_observes_each_batch_once() {
        let mut core = GroupCore::new(PROC_ACC_SENDER_BASE, Hop::EveryProcess, 2);
        core.register(0, chain_graph());
        let peer = |seq, updates| ProgressBatch {
            sender: PROC_ACC_SENDER_BASE + 1,
            seq,
            dataflow: 0,
            updates,
        };
        let advance = peer(
            0,
            vec![
                (Pointstamp::at_vertex(ts(1), INPUT), 1),
                (Pointstamp::at_vertex(ts(0), INPUT), -1),
            ],
        );
        // Held: the other worker's epoch-0 input stamp still covers it.
        assert!(core
            .deposit(0, vec![(Pointstamp::at_vertex(ts(0), B), 1)])
            .is_none());
        for _worker in 0..2 {
            assert!(
                core.observe(&advance).is_none(),
                "observed once, still covered"
            );
        }
        // A later batch from the same sender still counts, once.
        let close = peer(1, vec![(Pointstamp::at_vertex(ts(1), INPUT), -1)]);
        assert!(core.observe(&close).is_none());
        assert!(core.observe(&close).is_none());
        // Sequence numbers are per sender and dataflow.
        let other_dataflow = ProgressBatch {
            dataflow: 1,
            ..advance.clone()
        };
        assert!(core.observe(&other_dataflow).is_none());
        assert!(
            core.stashed.contains_key(&1),
            "a first sighting for dataflow 1"
        );
    }

    #[test]
    fn worker_core_stashes_until_registration() {
        let graph = chain_graph();
        let mut sender = WorkerCore::new(graph.clone(), 0, 0, 2);
        let mut late = WorkerCore::unregistered(0, 1);
        let first = sender.emit(vec![
            (Pointstamp::at_vertex(ts(1), INPUT), 1),
            (Pointstamp::at_vertex(ts(0), INPUT), -1),
        ]);
        let second = sender.emit(vec![(Pointstamp::at_vertex(ts(1), INPUT), -1)]);
        // Batches that outrun construction are admitted (FIFO is checked
        // on arrival) and wait for the graph.
        late.apply(&first).unwrap();
        assert!(
            late.apply(&first).is_err(),
            "replays are refused while stashed too"
        );
        late.apply(&second).unwrap();
        let replayed = late.register(graph.clone(), 2);
        assert_eq!(replayed, vec![first.clone(), second.clone()]);
        // The registered view equals one that applied the batches live.
        let mut live = WorkerCore::new(graph.clone(), 0, 1, 2);
        live.apply(&first).unwrap();
        live.apply(&second).unwrap();
        assert_eq!(late.table().frontier(), live.table().frontier());
        assert_eq!(late.table().input_frontier_epoch(), Some(0));
        assert!(
            late.register(graph, 2).is_empty(),
            "registration happens once"
        );
    }

    #[test]
    fn naive_workers_emit_one_batch_per_update() {
        let mut core = WorkerCore::new(chain_graph(), 0, 0, 1);
        let updates = vec![
            (Pointstamp::at_vertex(ts(1), INPUT), 1),
            (Pointstamp::at_vertex(ts(0), INPUT), -1),
        ];
        let naive = core.emit_for(Hop::EveryProcess, updates.clone());
        assert_eq!(naive.iter().map(|b| b.seq).collect::<Vec<_>>(), [0, 1]);
        assert!(naive.iter().all(|b| b.updates.len() == 1));
        let whole = core.emit_for(Hop::Central, updates.clone());
        assert_eq!(whole.len(), 1);
        assert_eq!((whole[0].seq, &whole[0].updates), (2, &updates));
        // A pump journals its input batch's retirement before its output's
        // creation; split, the creation must still leave first.
        let retire_first = vec![
            (Pointstamp::at_vertex(ts(0), B), -1),
            (Pointstamp::at_vertex(ts(0), StageId(1)), 1),
        ];
        let naive = core.emit_for(Hop::EveryProcess, retire_first);
        let deltas: Vec<i64> = naive.iter().map(|b| b.updates[0].1).collect();
        assert_eq!(deltas, [1, -1]);
    }

    #[test]
    fn worker_core_round_trips_batches() {
        let graph = chain_graph();
        let mut a = WorkerCore::new(graph.clone(), 0, 0, 2);
        let mut b = WorkerCore::new(graph, 0, 1, 2);
        // Worker a advances its input to epoch 1; both apply the batch.
        let batch = a.emit(vec![
            (Pointstamp::at_vertex(ts(1), INPUT), 1),
            (Pointstamp::at_vertex(ts(0), INPUT), -1),
        ]);
        a.apply(&batch).unwrap();
        b.apply(&batch).unwrap();
        // Worker b still holds epoch 0 a-priori, so the input frontier
        // stays at 0 in both views.
        assert_eq!(a.table().input_frontier_epoch(), Some(0));
        assert_eq!(b.table().input_frontier_epoch(), Some(0));
        // Replaying the batch is a FIFO violation.
        assert!(a.apply(&batch).is_err());
    }

    #[test]
    fn mode_flags_match_topologies() {
        assert!(!ProgressMode::Broadcast.local() && !ProgressMode::Broadcast.global());
        assert!(ProgressMode::Local.local() && !ProgressMode::Local.global());
        assert!(!ProgressMode::Global.local() && ProgressMode::Global.global());
        assert!(ProgressMode::LocalGlobal.local() && ProgressMode::LocalGlobal.global());
        assert_eq!(ProgressMode::LocalGlobal.figure_label(), "Local+GlobalAcc");
    }

    /// Figure 6c's four topologies, spelled out once against the routing
    /// function every driver calls.
    #[test]
    fn hops_spell_out_the_four_topologies() {
        use Role::{CentralAccumulator as Central, ProcessAccumulator as Process, Worker};
        let hops = |mode: ProgressMode| {
            (
                mode.hop(Worker),
                mode.local().then(|| mode.hop(Process)),
                mode.global().then(|| mode.hop(Central)),
            )
        };
        assert_eq!(
            hops(ProgressMode::Broadcast),
            (Hop::EveryProcess, None, None)
        );
        assert_eq!(
            hops(ProgressMode::Local),
            (Hop::OwnAccumulator, Some(Hop::EveryProcess), None)
        );
        assert_eq!(
            hops(ProgressMode::Global),
            (Hop::Central, None, Some(Hop::EveryProcess))
        );
        assert_eq!(
            hops(ProgressMode::LocalGlobal),
            (
                Hop::OwnAccumulator,
                Some(Hop::Central),
                Some(Hop::EveryProcess)
            )
        );
        // A process accumulator folds its flushes exactly when nothing
        // echoes them back to it.
        assert!(ProgressMode::Local.hop(Process).folds());
        assert!(!ProgressMode::LocalGlobal.hop(Process).folds());
        use Endpoint::Process as P;
        assert_eq!(
            Hop::EveryProcess.endpoints(2).collect::<Vec<_>>(),
            [P(0), P(1)]
        );
        assert_eq!(
            Hop::Central.endpoints(2).collect::<Vec<_>>(),
            [Endpoint::Central]
        );
        assert_eq!(Hop::OwnAccumulator.endpoints(2).count(), 0);
    }
}
