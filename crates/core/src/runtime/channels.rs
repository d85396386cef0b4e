//! Typed data channels between workers (§3.1, §3.2).
//!
//! A connector in the logical graph expands into one channel per
//! destination worker. Senders route records by the connector's
//! partitioning contract:
//!
//! * within a process, records travel as typed batches through
//!   shared-memory queues;
//! * across processes, batches are serialized with `naiad-wire` and travel
//!   through the `naiad-netsim` fabric, metered as
//!   [`TrafficClass::Data`](naiad_netsim::TrafficClass).
//!
//! Every emitted batch contributes `+1` to the occurrence count of its
//! `(time, connector)` pointstamp, and every delivered batch `−1` *after*
//! the receiving vertex finishes processing it — the §2.3 update rules, in
//! the §3.3 broadcast order (consequences before retirements).

use std::any::Any;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use naiad_netsim::{Envelope, NetReceiver};
use naiad_wire::sync::queue::{ring, RingReceiver, RingSender};
use naiad_wire::sync::Mutex;
use naiad_wire::{Bytes, ExchangeData, Wire, WireError};

use super::execute::{Bringup, Process};
use super::flow::{Acquire, CreditCell, FlowKey, OverloadFlag, OverloadState, ShedPolicy};
use super::retry::{escalate, with_retry, FaultKind};
use crate::graph::ConnectorId;
use crate::progress::{Pointstamp, ProgressUpdate};
use crate::telemetry::{Recorder, TelemetryEvent};
use crate::time::Timestamp;

/// Channel tag carrying progress broadcasts into the mailboxes of all a
/// process's workers.
pub(crate) const PROGRESS_TAG: u32 = 0xFFFF_FFFF;
/// Channel tag carrying progress batches to the central accumulator.
pub(crate) const CENTRAL_TAG: u32 = 0xFFFF_FFFE;
/// Channel tag carrying liveness heartbeats on the control plane.
pub(crate) const HEARTBEAT_TAG: u32 = 0xFFFF_FFFD;

const DATAFLOW_BITS: u32 = 10;
const CHANNEL_BITS: u32 = 14;
const WORKER_BITS: u32 = 7;

/// Packs a data-channel address into a fabric tag.
///
/// # Panics
///
/// Panics if any component exceeds its field width.
pub(crate) fn data_tag(dataflow: usize, channel: usize, dst_local: usize) -> u32 {
    assert!(dataflow < (1 << DATAFLOW_BITS), "too many dataflows");
    assert!(channel < (1 << CHANNEL_BITS), "too many channels");
    assert!(
        dst_local < (1 << WORKER_BITS),
        "too many workers per process"
    );
    ((dataflow as u32) << (CHANNEL_BITS + WORKER_BITS))
        | ((channel as u32) << WORKER_BITS)
        | dst_local as u32
}

/// Inverse of [`data_tag`].
pub(crate) fn parse_data_tag(tag: u32) -> (usize, usize, usize) {
    let dataflow = (tag >> (CHANNEL_BITS + WORKER_BITS)) as usize;
    let channel = ((tag >> WORKER_BITS) & ((1 << CHANNEL_BITS) - 1)) as usize;
    let dst_local = (tag & ((1 << WORKER_BITS) - 1)) as usize;
    (dataflow, channel, dst_local)
}

/// A batch of records bearing one timestamp.
#[derive(Clone, Debug, PartialEq)]
pub struct Message<D> {
    /// The logical timestamp of every record in the batch.
    pub time: Timestamp,
    /// The records.
    pub data: Vec<D>,
}

impl<D: Wire> Wire for Message<D> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.time.encode(buf);
        self.data.encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Message {
            time: Timestamp::decode(input)?,
            data: Vec::<D>::decode(input)?,
        })
    }
    fn encoded_len(&self) -> usize {
        self.time.encoded_len() + self.data.encoded_len()
    }
}

impl<D: Wire> Message<D> {
    /// Decodes a batch into a recycled container: `data`'s storage is
    /// reused, so a warmed-up remote path decodes with zero container
    /// allocations (DESIGN.md §16). Requires every input byte consumed,
    /// like [`naiad_wire::decode_from_slice`].
    pub(crate) fn decode_into(bytes: &[u8], mut data: Vec<D>) -> Result<Self, WireError> {
        let mut input = bytes;
        let time = Timestamp::decode(&mut input)?;
        let len = usize::decode(&mut input)?;
        data.clear();
        D::decode_batch(&mut input, len, &mut data)?;
        if !input.is_empty() {
            return Err(WireError::TrailingBytes(input.len()));
        }
        Ok(Message { time, data })
    }
}

impl<D> Message<D> {
    /// The batch's cost against a credit budget (DESIGN.md §15, §16):
    /// its in-memory footprint, `O(1)` to compute. This prices *local*
    /// (typed, same-process) batches only; remote batches are priced by
    /// the length of their frozen slab — also `O(1)`, because the bytes
    /// are already materialized for the fabric, and exact because sender
    /// and receiver read the length of the very same buffer. What
    /// credits bound is queue memory, and sender and receiver agreeing
    /// on the number is what keeps the ledger in balance (heap payloads
    /// behind pointers are not counted — the bound is a floor, not an
    /// exact heap measure).
    pub(crate) fn credit_cost(&self) -> u64 {
        Self::credit_cost_of(self.data.len())
    }

    /// [`credit_cost`](Self::credit_cost) of a batch of `records`
    /// records, for the sender to spend before the message exists.
    fn credit_cost_of(records: usize) -> u64 {
        let record = std::mem::size_of::<D>().max(1);
        (std::mem::size_of::<Timestamp>() + records * record) as u64
    }
}

/// Identifies a queue endpoint within a process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum ChannelKey {
    /// Typed shared-memory queue: `(dataflow, channel, dst local worker)`.
    Data(usize, usize, usize),
    /// The spare-container stack shared by a data endpoint's senders and
    /// its puller (DESIGN.md §16).
    Spares(usize, usize, usize),
}

struct Chan<T> {
    tx: RingSender<T>,
    rx: Mutex<Option<RingReceiver<T>>>,
}

/// A shared stack of emptied batch containers for one channel endpoint.
///
/// Pullers return consumed `Vec<D>`s here; senders (and the remote-decode
/// path) draw from it instead of allocating. The stack is bounded so a
/// burst cannot hoard memory forever.
pub(crate) struct SparePool<D> {
    stack: Arc<Mutex<Vec<Vec<D>>>>,
}

impl<D> Clone for SparePool<D> {
    fn clone(&self) -> Self {
        SparePool {
            stack: self.stack.clone(),
        }
    }
}

impl<D> Default for SparePool<D> {
    fn default() -> Self {
        SparePool {
            // slab-exempt: the spare stack itself, created once per
            // endpoint; the containers it recycles come in via `put`.
            stack: Arc::new(Mutex::new(Vec::new())),
        }
    }
}

impl<D> SparePool<D> {
    /// Spares retained per endpoint; beyond this, returns are dropped.
    const MAX_SPARES: usize = 32;

    /// An empty container, recycled if one is available.
    pub(crate) fn pop(&self) -> Vec<D> {
        // slab-exempt: the `unwrap_or_default` cold path allocates only
        // until the endpoint's container population warms up; returns
        // keep the stack stocked in steady state (tests/alloc_budget.rs).
        self.stack.lock().pop().unwrap_or_default()
    }

    /// Returns an emptied container to the stack.
    pub(crate) fn put(&self, mut container: Vec<D>) {
        container.clear();
        if container.capacity() == 0 {
            return;
        }
        let mut stack = self.stack.lock();
        if stack.len() < Self::MAX_SPARES {
            stack.push(container);
        }
    }
}

/// Lazily-created queues shared by a process's workers.
///
/// Whichever side touches a key first creates the queue; the consuming side
/// takes the receiver exactly once.
#[derive(Default)]
pub(crate) struct ProcessRegistry {
    map: Mutex<HashMap<ChannelKey, Box<dyn Any + Send>>>,
}

impl ProcessRegistry {
    // lint-allow(NS0004): a `ChannelKey` encodes the endpoint type by
    // construction; a downcast miss is type confusion (a bug), not a
    // runtime condition to recover from.
    fn with_chan<T: Send + 'static, R>(&self, key: ChannelKey, f: impl FnOnce(&Chan<T>) -> R) -> R {
        let mut map = self.map.lock();
        let entry = map.entry(key).or_insert_with(|| {
            // flow-exempt: Data queues are credit-bounded at the
            // Pusher/Puller layer (runtime::flow, DESIGN.md §15).
            let (tx, rx) = ring::<T>();
            Box::new(Chan {
                tx,
                rx: Mutex::new(Some(rx)),
            })
        });
        let chan = entry
            .downcast_ref::<Chan<T>>()
            .expect("channel key reused at a different type");
        f(chan)
    }

    /// A sender for the queue at `key`.
    pub(crate) fn sender<T: Send + 'static>(&self, key: ChannelKey) -> RingSender<T> {
        self.with_chan(key, |c: &Chan<T>| c.tx.clone())
    }

    /// Takes the receiver for the queue at `key`.
    ///
    /// # Panics
    ///
    /// Panics if the receiver was already taken.
    // lint-allow(NS0004): the double-take panic is documented above —
    // each queue's consuming side claims its receiver exactly once.
    pub(crate) fn receiver<T: Send + 'static>(&self, key: ChannelKey) -> RingReceiver<T> {
        self.with_chan(key, |c: &Chan<T>| {
            c.rx.lock()
                .take()
                .expect("channel receiver taken more than once")
        })
    }

    /// The spare-container stack for the data endpoint
    /// `(dataflow, channel, dst_local)`, shared by everyone who routes
    /// batches to — or drains batches at — that endpoint.
    // lint-allow(NS0004): same type-confusion invariant as `with_chan`.
    pub(crate) fn spares<D: Send + 'static>(
        &self,
        dataflow: usize,
        channel: usize,
        dst_local: usize,
    ) -> SparePool<D> {
        let key = ChannelKey::Spares(dataflow, channel, dst_local);
        let mut map = self.map.lock();
        let entry = map
            .entry(key)
            .or_insert_with(|| Box::new(SparePool::<D>::default()));
        entry
            .downcast_ref::<SparePool<D>>()
            .expect("spare pool key reused at a different type")
            .clone()
    }
}

/// The frames one remote channel has delivered to a worker, in arrival
/// order, each with the process that sent it so the puller can route its
/// credit return (DESIGN.md §15).
type RemoteQueue = Rc<RefCell<VecDeque<(u32, Bytes)>>>;

/// A progress batch out of a worker's mailbox: the fabric endpoint that
/// sent it, and its encoding.
pub(crate) type ProgressFrame = (usize, Bytes);

/// A worker's end of the fabric (DESIGN.md §10): the mailbox into which
/// other processes' pushers put this worker's data frames and every
/// flushing thread its progress batches, each source's in the order it
/// sent them, and the table that sorts the data frames by
/// `(dataflow, channel)` for its pullers. Both are the worker's alone — no
/// lock, no hash of a shared registry and no other thread sit between the
/// fabric and the operator.
pub(crate) struct Mailbox {
    rx: NetReceiver,
    queues: HashMap<(usize, usize), RemoteQueue>,
}

impl Mailbox {
    pub(crate) fn new(rx: NetReceiver) -> Self {
        Mailbox {
            rx,
            queues: HashMap::new(),
        }
    }

    /// The puller's handle on the queue of `channel` of `dataflow`. Whoever
    /// names a queue first creates it: a frame that outruns the
    /// construction of its dataflow waits there for the puller.
    fn queue(&mut self, dataflow: usize, channel: usize) -> RemoteQueue {
        self.queues.entry((dataflow, channel)).or_default().clone()
    }

    /// Moves every frame the fabric has for this worker out of the mailbox,
    /// in arrival order: a data frame into its channel's queue, a progress
    /// batch onto `progress` for the worker to apply. Returns how many
    /// frames moved. The depth it reports to `recorder` is what the mailbox
    /// held when polled: those frames, plus the ones a latency model still
    /// holds back.
    pub(crate) fn drain(
        &mut self,
        recorder: &Recorder,
        progress: &mut Vec<ProgressFrame>,
    ) -> usize {
        self.take(None, recorder, progress)
    }

    /// Parks until a frame arrives or `timeout` passes, then drains like
    /// [`Mailbox::drain`].
    pub(crate) fn wait(
        &mut self,
        timeout: Duration,
        recorder: &Recorder,
        progress: &mut Vec<ProgressFrame>,
    ) -> usize {
        match self.rx.recv_deadline(Some(timeout)) {
            Ok(first) => self.take(Some(first), recorder, progress),
            Err(_) => 0,
        }
    }

    fn take(
        &mut self,
        first: Option<Envelope>,
        recorder: &Recorder,
        progress: &mut Vec<ProgressFrame>,
    ) -> usize {
        let (mut data, mut batches) = (0, 0);
        let rest = std::iter::from_fn(|| self.rx.try_recv());
        for env in first.into_iter().chain(rest) {
            if env.channel == PROGRESS_TAG {
                progress.push((env.src, env.payload));
                batches += 1;
            } else {
                let (dataflow, channel, _) = parse_data_tag(env.channel);
                let queue = self.queues.entry((dataflow, channel)).or_default();
                queue.borrow_mut().push_back((env.src as u32, env.payload));
                data += 1;
            }
        }
        let depth = data + batches + self.rx.delayed();
        if depth > 0 {
            recorder.record_mailbox(data, batches, depth);
        }
        data + batches
    }

    /// `(due, not_yet_due)`: frames sorted into a queue that their puller
    /// has not read, and frames the latency model still holds back.
    pub(crate) fn backlog(&self) -> (usize, usize) {
        let due = self.queues.values().map(|q| q.borrow().len()).sum();
        (due, self.rx.delayed())
    }
}

/// The worker-local journal of progress updates produced this step,
/// broadcast (possibly via accumulators) when the step ends.
pub(crate) type Journal = Rc<std::cell::RefCell<Vec<ProgressUpdate>>>;

/// Appends an occurrence-count delta to the journal.
pub(crate) fn journal_update(journal: &Journal, p: Pointstamp, delta: i64) {
    journal.borrow_mut().push((p, delta));
}

/// The routing rule of every exchange (§3.1): the worker, of `peers`,
/// that owns a record whose partitioning function returned `hash`. Equal
/// to `hash % peers` for every input; live routing and the rescale shard
/// cut both call it, so the two cannot disagree. A mask when `peers` is a
/// power of two keeps the division out of the per-record loop.
#[inline]
pub(crate) fn partition(hash: u64, peers: usize) -> usize {
    let peers = peers as u64;
    if peers.is_power_of_two() {
        (hash & (peers - 1)) as usize
    } else {
        (hash % peers) as usize
    }
}

/// The partitioning contract of a connector (§3.1).
///
/// Exchange and broadcast channels may cross processes, so their record
/// type must be serializable; pipeline channels stay within the worker.
pub enum Pact<D> {
    /// Deliver to the local vertex (no partitioning function supplied).
    Pipeline,
    /// Route each record by a partitioning function: all records mapping
    /// to the same integer reach the same downstream vertex.
    Exchange(Rc<dyn Fn(&D) -> u64>),
    /// Deliver a copy of every record to every vertex in the stage.
    Broadcast,
}

impl<D> Pact<D> {
    /// An exchange contract from a key-hash function.
    pub fn exchange(f: impl Fn(&D) -> u64 + 'static) -> Self {
        Pact::Exchange(Rc::new(f))
    }

    /// The data-type-erased contract kind, recorded on the logical graph
    /// for the static analyzer (`NA0005`/`NA0006`).
    pub fn kind(&self) -> crate::graph::PactKind {
        match self {
            Pact::Pipeline => crate::graph::PactKind::Pipeline,
            Pact::Exchange(_) => crate::graph::PactKind::Exchange,
            Pact::Broadcast => crate::graph::PactKind::Broadcast,
        }
    }
}

impl<D> Clone for Pact<D> {
    fn clone(&self) -> Self {
        match self {
            Pact::Pipeline => Pact::Pipeline,
            Pact::Exchange(f) => Pact::Exchange(f.clone()),
            Pact::Broadcast => Pact::Broadcast,
        }
    }
}

/// Where a destination worker's queue lives, with what a send there needs.
enum Route<D> {
    /// Same process: a typed queue, and the endpoint's spare-container
    /// stack. The buffer handed to the queue is replaced from the stack,
    /// so steady-state emits allocate nothing (DESIGN.md §16).
    Local {
        tx: RingSender<Message<D>>,
        spares: SparePool<D>,
    },
    /// Another process: the batch is encoded into a slab and the fabric
    /// carries it to the destination worker's mailbox; the typed buffer is
    /// cleared in place and keeps its capacity.
    Remote { process: usize, tag: u32 },
}

/// One destination worker of a [`Pusher`].
struct Dest<D> {
    route: Route<D>,
    /// Records buffered for this worker at the pusher's `buffer_time`.
    buffer: Vec<D>,
    /// The destination queue's credit cell (present iff flow control is
    /// on).
    credit: Option<Arc<CreditCell>>,
}

/// The sending endpoint of one connector at one worker: buffers records
/// per destination and emits timestamped batches.
pub(crate) struct Pusher<D> {
    connector: ConnectorId,
    pact: Pact<D>,
    my_index: usize,
    /// One entry per worker of the stage, reached only through
    /// [`Pusher::dest`].
    dests: Vec<Dest<D>>,
    buffer_time: Option<Timestamp>,
    /// Last remote frame length: the capacity hint for the next slab
    /// checkout, so growth self-corrects without an `encoded_len` pass.
    encode_hint: usize,
    journal: Journal,
    dataflow: u32,
    recorder: Recorder,
    /// This worker's process, whose send half carries remote batches.
    process: Arc<Process>,
    /// The run's batch size, slab pool, retry policy, escalation cell and
    /// credit registry (DESIGN.md §15; without one the data plane is
    /// unbounded).
    bringup: Arc<Bringup>,
    /// This worker's overload state, consulted on the shed path.
    overload: Option<Arc<OverloadFlag>>,
}

/// What a dataflow's pushers and pullers at one worker resolve their
/// routes from: the dataflow, the worker, and the values the worker's
/// process and the run share.
pub(crate) struct RoutingContext {
    pub dataflow: usize,
    pub my_index: usize,
    pub process: Arc<Process>,
    pub bringup: Arc<Bringup>,
    pub mailbox: Rc<RefCell<Mailbox>>,
    pub recorder: Recorder,
    pub overload: Option<Arc<OverloadFlag>>,
}

impl RoutingContext {
    /// Total number of workers, and so of each exchange's destinations.
    pub(crate) fn peers(&self) -> usize {
        self.bringup.config.total_workers()
    }

    /// The route, an empty buffer and (under flow control) the credit
    /// cell for worker `dst` on `channel`.
    fn dest<D: ExchangeData>(&self, channel: usize, dst: usize) -> Dest<D> {
        let workers_per_process = self.bringup.config.workers_per_process;
        let (dst_process, dst_local) = (dst / workers_per_process, dst % workers_per_process);
        let (process, registry) = (self.process.index, &self.process.registry);
        let (route, key) = if dst_process == process {
            let route = Route::Local {
                tx: registry.sender(ChannelKey::Data(self.dataflow, channel, dst_local)),
                spares: registry.spares(self.dataflow, channel, dst_local),
            };
            let key = FlowKey::Local(process, self.dataflow, channel, dst_local);
            (route, key)
        } else {
            let tag = data_tag(self.dataflow, channel, dst_local);
            let route = Route::Remote {
                process: dst_process,
                tag,
            };
            (route, FlowKey::Remote(process, dst_process, tag))
        };
        Dest {
            route,
            // slab-exempt: allocated once at construction and recycled
            // for the pusher's lifetime.
            buffer: Vec::new(),
            credit: self.bringup.flow.as_ref().map(|flow| flow.cell(key)),
        }
    }
}

impl<D: ExchangeData> Pusher<D> {
    /// Builds the pusher for `channel`/`connector` at the given worker.
    pub(crate) fn new(
        ctx: &RoutingContext,
        channel: usize,
        connector: ConnectorId,
        pact: Pact<D>,
        journal: Journal,
    ) -> Self {
        Pusher {
            connector,
            pact,
            my_index: ctx.my_index,
            dests: (0..ctx.peers()).map(|dst| ctx.dest(channel, dst)).collect(),
            buffer_time: None,
            encode_hint: 0,
            journal,
            dataflow: ctx.dataflow as u32,
            recorder: ctx.recorder.clone(),
            process: ctx.process.clone(),
            bringup: ctx.bringup.clone(),
            overload: ctx.overload.clone(),
        }
    }

    /// The one place a destination index becomes a reference. Borrows
    /// only `dests`, so callers keep the pusher's other fields.
    // lint-allow(NS0004): `dests` has one entry per peer, fixed at
    // construction, and every `dst` is `my_index` (< peers), a
    // `partition(_, dests.len())`, or drawn from `0..dests.len()`.
    #[inline]
    fn dest(dests: &mut [Dest<D>], dst: usize) -> &mut Dest<D> {
        &mut dests[dst]
    }

    /// Queues a whole batch at `time`, draining `batch` in place (its
    /// capacity is retained for the caller to refill). This is the only
    /// way records enter a pusher, and batches never mix timestamps: a
    /// time change flushes first.
    ///
    /// Pipeline swaps the batch straight into the outgoing buffer when it
    /// can, Exchange radix-partitions records into the per-destination
    /// buffers in one pass, and Broadcast clones per destination with the
    /// final destination taking the records by move (DESIGN.md §16).
    pub(crate) fn give_batch(&mut self, time: Timestamp, batch: &mut Vec<D>) {
        if batch.is_empty() {
            return;
        }
        if self.buffer_time != Some(time) {
            self.flush();
            self.buffer_time = Some(time);
        }
        let limit = self.bringup.config.batch_size;
        match &self.pact {
            Pact::Pipeline => {
                let dst = self.my_index;
                let buffer = &mut Self::dest(&mut self.dests, dst).buffer;
                if buffer.is_empty() && batch.len() >= limit {
                    // Whole-batch fast path: ship the caller's container
                    // and hand its (empty) buffer back in exchange.
                    std::mem::swap(buffer, batch);
                } else {
                    buffer.append(batch);
                }
                self.emit_if_full(dst, time);
            }
            Pact::Exchange(f) => {
                let f = f.clone();
                let peers = self.dests.len();
                for record in batch.drain(..) {
                    let dst = partition(f(&record), peers);
                    let buffer = &mut Self::dest(&mut self.dests, dst).buffer;
                    buffer.push(record);
                    if buffer.len() >= limit {
                        self.emit(dst, time);
                    }
                }
            }
            Pact::Broadcast => {
                let last = self.dests.len() - 1;
                for dst in 0..=last {
                    let buffer = &mut Self::dest(&mut self.dests, dst).buffer;
                    if dst < last {
                        // slab-exempt: `extend` only grows a buffer up to the
                        // batch limit once; steady state reuses its capacity.
                        buffer.extend(batch.iter().cloned());
                    } else {
                        buffer.append(batch);
                    }
                    self.emit_if_full(dst, time);
                }
            }
        }
    }

    /// Emits `dst`'s batch once it holds `batch_size` records.
    fn emit_if_full(&mut self, dst: usize, time: Timestamp) {
        if Self::dest(&mut self.dests, dst).buffer.len() >= self.bringup.config.batch_size {
            self.emit(dst, time);
        }
    }

    /// Flushes all buffered batches.
    pub(crate) fn flush(&mut self) {
        if let Some(time) = self.buffer_time.take() {
            for dst in 0..self.dests.len() {
                if !Self::dest(&mut self.dests, dst).buffer.is_empty() {
                    self.emit(dst, time);
                }
            }
        }
    }

    /// Sends `dst`'s buffered batch at `time`: prices it, spends the
    /// credits (which may shed it instead), journals the `+1` and hands
    /// it to the destination's queue or the fabric.
    fn emit(&mut self, dst: usize, time: Timestamp) {
        let dest = Self::dest(&mut self.dests, dst);
        debug_assert!(!dest.buffer.is_empty());
        let records = dest.buffer.len() as u32;
        let sent = Pointstamp::on_edge(time, self.connector);
        // Spends `cost` on the destination's credit cell; `false` means
        // the batch was shed. Credits are spent before the SendBy journal
        // entry so a shed batch can leave the occurrence counts
        // net-unchanged.
        let admit = |cost: u64| -> bool {
            let (Some(flow), Some(cell)) = (&self.bringup.flow, &dest.credit) else {
                return true;
            };
            if dst == self.my_index {
                // Self-routes never park: a worker waiting on the queue
                // only it drains would deadlock itself. Spend without
                // waiting so the accounting stays exact (the puller
                // returns these credits like any others).
                flow.force(cell, cost);
                return true;
            }
            let (waited_ns, timed_out) = match flow.acquire(cell, cost) {
                Acquire::Granted { waited_ns } => (waited_ns, false),
                Acquire::TimedOut { waited_ns } => (waited_ns, true),
            };
            if waited_ns > 0 || timed_out {
                self.recorder.record(TelemetryEvent::CreditWait {
                    dataflow: self.dataflow,
                    connector: self.connector.0 as u32,
                    waited_ns,
                    bytes: cost as u32,
                });
            }
            if !timed_out {
                return true;
            }
            let shedding = flow.config().policy == ShedPolicy::Shed
                && self
                    .overload
                    .as_ref()
                    .is_some_and(|o| o.get() == OverloadState::Shedding);
            if !shedding {
                // Block policy: pierce the budget after a full wait
                // rather than deadlock; counted as an overdraft for the
                // oracle.
                flow.overdraft(cell, cost);
                return true;
            }
            // Drop with exact counts. The +1/−1 pair keeps the §2.3
            // occurrence counts sound: the batch is sent and retired
            // within one journal flush.
            journal_update(&self.journal, sent, 1);
            journal_update(&self.journal, sent, -1);
            flow.note_shed(u64::from(records), cost);
            self.recorder.record(TelemetryEvent::MessagesShed {
                dataflow: self.dataflow,
                connector: self.connector.0 as u32,
                records,
                bytes: cost as u32,
            });
            false
        };
        let (payload_bytes, remote) = match &dest.route {
            Route::Local { tx, spares } => {
                // A local batch is priced by its in-memory footprint,
                // which is what the puller returns.
                if !admit(Message::<D>::credit_cost_of(dest.buffer.len())) {
                    dest.buffer.clear();
                    return;
                }
                // §2.3: the occurrence count increments at the start of
                // SendBy.
                journal_update(&self.journal, sent, 1);
                let data = std::mem::replace(&mut dest.buffer, spares.pop());
                tx.send(Message { time, data });
                (0, false)
            }
            Route::Remote { process, tag } => {
                // A remote frame is encoded *before* the credit spend so
                // it is priced by its exact slab footprint — the length
                // of the very buffer the fabric will carry (DESIGN.md
                // §16). A shed after encode wastes the encode CPU, but
                // the frozen frame just drops and its slab returns
                // straight to the pool.
                let mut slab = self.bringup.slabs.get(self.encode_hint);
                time.encode(slab.buffer());
                dest.buffer.encode(slab.buffer());
                dest.buffer.clear();
                let bytes = slab.freeze();
                self.encode_hint = bytes.len();
                if !admit(bytes.len() as u64) {
                    return;
                }
                journal_update(&self.journal, sent, 1);
                // The tag names the destination worker, and so its mailbox.
                let (_, _, mailbox) = parse_data_tag(*tag);
                let net = &self.process.net;
                let send = || net.lock().send_data(*process, mailbox, *tag, bytes.clone());
                if let Err(err) = with_retry(self.bringup.policy, send) {
                    let kind = FaultKind::from_send_error(err);
                    self.recorder
                        .record(TelemetryEvent::FaultEscalated { kind });
                    escalate(&self.bringup.escalation, kind);
                }
                (bytes.len() as u32, true)
            }
        };
        self.recorder.record(TelemetryEvent::MessageSent {
            dataflow: self.dataflow,
            connector: self.connector.0 as u32,
            target: dst as u32,
            records,
            bytes: payload_bytes,
            remote,
        });
    }
}

/// The receiving endpoint of one connector at one worker.
///
/// A batch's retirement (`−1` update) is journaled by the next pull — the
/// vertex has finished with it once it asks for more — and the pull that
/// finds the queue empty retires the last one. Its consequences may be
/// journaled after it: the progress protocol orders every flush it splits
/// positives first (DESIGN.md §7).
pub(crate) struct Puller<D> {
    connector: ConnectorId,
    local: RingReceiver<Message<D>>,
    remote: RemoteQueue,
    /// Spare containers for this endpoint, shared with its local senders;
    /// remote frames decode into recycled containers drawn from here.
    spares: SparePool<D>,
    journal: Journal,
    unsettled: Option<Timestamp>,
    dataflow: u32,
    recorder: Recorder,
    /// This worker's process: the receiving end of every remote credit
    /// key, and the send half that admits credit returns.
    process: Arc<Process>,
    /// The run's shared state, whose credit registry this puller repays.
    bringup: Arc<Bringup>,
    /// Credit-return state (DESIGN.md §15); `None` when flow control is
    /// off.
    flow: Option<PullerFlow>,
    /// Credits owed for the unsettled batch, returned on settle.
    owed: Option<OwedCredit>,
}

/// The receiving half of the credit protocol for one puller.
struct PullerFlow {
    /// The cell same-process senders spend on for this endpoint.
    local_cell: Arc<CreditCell>,
    /// This endpoint's data tag, which names its remote credit cells.
    tag: u32,
}

enum OwedCredit {
    Local(u64),
    Remote { src: usize, bytes: u64 },
}

impl<D: ExchangeData> Puller<D> {
    pub(crate) fn new(
        ctx: &RoutingContext,
        channel: usize,
        connector: ConnectorId,
        journal: Journal,
    ) -> Self {
        let my_local = ctx.my_index % ctx.bringup.config.workers_per_process;
        let local_key = ChannelKey::Data(ctx.dataflow, channel, my_local);
        let registry = &ctx.process.registry;
        let flow = ctx.bringup.flow.as_ref().map(|flow| {
            let key = FlowKey::Local(ctx.process.index, ctx.dataflow, channel, my_local);
            PullerFlow {
                local_cell: flow.cell(key),
                tag: data_tag(ctx.dataflow, channel, my_local),
            }
        });
        Puller {
            connector,
            local: registry.receiver(local_key),
            remote: ctx.mailbox.borrow_mut().queue(ctx.dataflow, channel),
            spares: registry.spares(ctx.dataflow, channel, my_local),
            journal,
            unsettled: None,
            dataflow: ctx.dataflow as u32,
            recorder: ctx.recorder.clone(),
            process: ctx.process.clone(),
            bringup: ctx.bringup.clone(),
            flow,
            owed: None,
        }
    }

    /// Returns a consumed batch container to the endpoint's spare stack,
    /// where local senders and the remote-decode path pick it back up.
    pub(crate) fn recycle(&mut self, container: Vec<D>) {
        self.spares.put(container);
    }

    /// Retires the previously pulled batch, then pulls the next one.
    pub(crate) fn pull(&mut self) -> Option<Message<D>> {
        self.settle();
        let (message, remote_payload) = if let Some(m) = self.local.try_recv() {
            (Some(m), None)
        } else if let Some((src, bytes)) = self.remote.borrow_mut().pop_front() {
            // Decode into a recycled container: zero container
            // allocations once the endpoint is warm (DESIGN.md §16).
            let container = self.spares.pop();
            let m = Message::<D>::decode_into(&bytes, container).unwrap_or_else(|e| {
                panic!(
                    "dataflow {} connector {}: undecodable data batch ({} bytes) — \
                     wire corruption or a mismatched channel type: {e:?}",
                    self.dataflow,
                    self.connector.0,
                    bytes.len()
                )
            });
            (Some(m), Some((src as usize, bytes.len() as u64)))
        } else {
            (None, None)
        };
        if let Some(m) = &message {
            self.unsettled = Some(m.time);
            if self.flow.is_some() {
                // The ledger balances only if both sides agree on the
                // price: local batches use `credit_cost` (what the sender
                // spent); remote batches use the frame length — the very
                // same buffer the sender priced its spend with.
                self.owed = Some(match remote_payload {
                    Some((src, bytes)) => OwedCredit::Remote { src, bytes },
                    None => OwedCredit::Local(m.credit_cost()),
                });
            }
            self.recorder.record(TelemetryEvent::MessageReceived {
                dataflow: self.dataflow,
                connector: self.connector.0 as u32,
                records: m.data.len() as u32,
                remote: remote_payload.is_some(),
            });
        }
        message
    }

    /// Journals the retirement of the last pulled batch, if any. Called
    /// when the vertex finishes processing it (§2.3: the occurrence count
    /// decrements as OnRecv completes).
    fn settle(&mut self) {
        if let Some(time) = self.unsettled.take() {
            journal_update(&self.journal, Pointstamp::on_edge(time, self.connector), -1);
        }
        // Credits return only after OnRecv completes, mirroring the §2.3
        // retirement: the batch's memory is genuinely free by now.
        let (Some(owed), Some(flow), Some(registry)) =
            (self.owed.take(), &self.flow, &self.bringup.flow)
        else {
            return;
        };
        match owed {
            OwedCredit::Local(bytes) => registry.release(&flow.local_cell, bytes),
            OwedCredit::Remote { src, bytes } => {
                // The return is a `(data tag, bytes)` frame on the control
                // plane, exempt from latency and loss: the fabric admitting
                // it is its delivery, so this worker repays the sender's
                // cell itself and no thread at the sender has to read it. A
                // crash or partition refuses it, and the parked sender
                // escapes through its bounded wait.
                let len = flow.tag.encoded_len() + bytes.encoded_len();
                let admitted = self.process.net.lock().admit_control(src, len).is_ok();
                if admitted {
                    let key = FlowKey::Remote(src, self.process.index, flow.tag);
                    registry.release_key(key, bytes);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::config::Config;
    use crate::runtime::flow::{FlowConfig, FlowRegistry};
    use naiad_wire::encode_to_vec;
    use std::cell::RefCell;

    /// Worker 0's context in a run of one process with two workers and
    /// batches of four records, plus `flow` control when given.
    fn ctx_with(flow: Option<FlowConfig>) -> RoutingContext {
        // Both workers live in process 0, so nothing is ever sent on it.
        let (fabric, rx) = naiad_netsim::Fabric::builder(1).build().remove(0).split();
        let mut config = Config::single_process(2).batch_size(4).send_retries(0);
        config.flow = flow;
        let bringup = Bringup::new(&config, false);
        RoutingContext {
            dataflow: 0,
            my_index: 0,
            process: Arc::new(Process::new(0, fabric, &bringup, None)),
            bringup: Arc::new(bringup),
            mailbox: Rc::new(RefCell::new(Mailbox::new(rx))),
            recorder: Recorder::disabled(),
            overload: None,
        }
    }

    fn ctx() -> RoutingContext {
        ctx_with(None)
    }

    /// The registry of the queues between the context's workers.
    fn queues(rc: &RoutingContext) -> &ProcessRegistry {
        &rc.process.registry
    }

    fn journal() -> Journal {
        Rc::new(RefCell::new(Vec::new()))
    }

    #[test]
    fn tags_roundtrip() {
        for (d, c, w) in [(0, 0, 0), (5, 1000, 3), (1023, 16383, 127)] {
            assert_eq!(parse_data_tag(data_tag(d, c, w)), (d, c, w));
        }
        assert!(data_tag(1023, 16383, 127) < HEARTBEAT_TAG);
    }

    #[test]
    #[should_panic(expected = "too many dataflows")]
    fn overwide_tag_component_panics() {
        let _ = data_tag(1 << DATAFLOW_BITS, 0, 0);
    }

    #[test]
    fn registry_creates_lazily_and_takes_once() {
        let reg = ProcessRegistry::default();
        let tx = reg.sender::<u32>(ChannelKey::Data(0, 1, 0));
        tx.send(7);
        let rx = reg.receiver::<u32>(ChannelKey::Data(0, 1, 0));
        assert_eq!(rx.try_recv(), Some(7));
    }

    #[test]
    #[should_panic(expected = "taken more than once")]
    fn registry_rejects_double_take() {
        let reg = ProcessRegistry::default();
        let _ = reg.receiver::<u32>(ChannelKey::Data(0, 0, 0));
        let _ = reg.receiver::<u32>(ChannelKey::Data(0, 0, 0));
    }

    #[test]
    fn exchange_routes_by_hash_and_batches() {
        let j = journal();
        let rc = ctx();
        let reg = queues(&rc);
        let mut pusher = Pusher::new(
            &rc,
            3,
            ConnectorId(9),
            Pact::exchange(|x: &u64| *x),
            j.clone(),
        );
        let t = Timestamp::new(0);
        pusher.give_batch(t, &mut (0..8u64).collect());
        pusher.flush();
        // Evens to worker 0, odds to worker 1; batch size 4 → one batch each.
        let rx0 = reg.receiver::<Message<u64>>(ChannelKey::Data(0, 3, 0));
        let rx1 = reg.receiver::<Message<u64>>(ChannelKey::Data(0, 3, 1));
        assert_eq!(rx0.try_recv().unwrap().data, vec![0, 2, 4, 6]);
        assert_eq!(rx1.try_recv().unwrap().data, vec![1, 3, 5, 7]);
        // Two emitted batches → two +1 journal entries on connector 9.
        let entries = j.borrow();
        assert_eq!(entries.len(), 2);
        assert!(entries
            .iter()
            .all(|(p, d)| *d == 1 && p.location == crate::graph::Location::Edge(ConnectorId(9))));
    }

    #[test]
    fn time_changes_flush_buffers() {
        let rc = ctx();
        let reg = queues(&rc);
        let mut pusher = Pusher::new(&rc, 0, ConnectorId(0), Pact::Pipeline, journal());
        pusher.give_batch(Timestamp::new(0), &mut vec![1u64]);
        pusher.give_batch(Timestamp::new(1), &mut vec![2u64]);
        pusher.flush();
        let rx = reg.receiver::<Message<u64>>(ChannelKey::Data(0, 0, 0));
        let m1 = rx.try_recv().unwrap();
        let m2 = rx.try_recv().unwrap();
        assert_eq!((m1.time.epoch, &m1.data[..]), (0, &[1u64][..]));
        assert_eq!((m2.time.epoch, &m2.data[..]), (1, &[2u64][..]));
    }

    #[test]
    fn puller_journals_retirement_after_settle() {
        let j = journal();
        let rc = ctx();
        let mut pusher = Pusher::new(&rc, 0, ConnectorId(4), Pact::Pipeline, j.clone());
        let mut puller = Puller::<u64>::new(&rc, 0, ConnectorId(4), j.clone());
        pusher.give_batch(Timestamp::new(2), &mut vec![42u64]);
        pusher.flush();
        let m = puller.pull().unwrap();
        assert_eq!(m.data, vec![42]);
        // Only the +1 so far: retirement waits for settle.
        assert_eq!(j.borrow().len(), 1);
        puller.settle();
        let entries = j.borrow();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[1].1, -1);
        assert_eq!(entries[1].0.time, Timestamp::new(2));
    }

    #[test]
    fn pull_settles_previous_batch() {
        let j = journal();
        let rc = ctx();
        let mut pusher = Pusher::new(&rc, 0, ConnectorId(0), Pact::Pipeline, j.clone());
        let mut puller = Puller::<u64>::new(&rc, 0, ConnectorId(0), j.clone());
        pusher.give_batch(Timestamp::new(0), &mut vec![1u64]);
        pusher.flush();
        pusher.give_batch(Timestamp::new(1), &mut vec![2u64]);
        pusher.flush();
        assert!(puller.pull().is_some());
        assert!(puller.pull().is_some(), "second pull settles the first");
        assert_eq!(
            j.borrow().iter().filter(|(_, d)| *d == -1).count(),
            1,
            "first batch retired by the second pull"
        );
        assert!(puller.pull().is_none());
        assert_eq!(j.borrow().iter().filter(|(_, d)| *d == -1).count(), 2);
    }

    #[test]
    fn broadcast_reaches_all_local_workers() {
        let mut rc = ctx();
        rc.recorder = Recorder::with_capacity(16);
        let reg = &rc.process.registry;
        let mut pusher = Pusher::new(&rc, 1, ConnectorId(0), Pact::Broadcast, journal());
        pusher.give_batch(Timestamp::new(0), &mut vec![5u64]);
        pusher.flush();
        for w in 0..2 {
            let rx = reg.receiver::<Message<u64>>(ChannelKey::Data(0, 1, w));
            assert_eq!(rx.try_recv().unwrap().data, vec![5]);
        }
        assert_eq!(rc.recorder.harvest(0).unwrap().counters.messages_sent, 2);
    }

    #[test]
    fn pusher_and_puller_record_telemetry() {
        let j = journal();
        let mut rc = ctx();
        rc.recorder = Recorder::with_capacity(16);
        let mut pusher = Pusher::new(&rc, 0, ConnectorId(4), Pact::Pipeline, j.clone());
        let mut puller = Puller::<u64>::new(&rc, 0, ConnectorId(4), j);
        pusher.give_batch(Timestamp::new(0), &mut vec![1u64, 2]);
        pusher.flush();
        assert!(puller.pull().is_some());
        let t = rc.recorder.harvest(0).unwrap();
        assert_eq!(t.counters.messages_sent, 1);
        assert_eq!(t.counters.records_sent, 2);
        assert_eq!(t.counters.messages_received, 1);
        assert_eq!(t.counters.records_received, 2);
        let ((df, conn), c) = t.connectors[0];
        assert_eq!((df, conn), (0, 4));
        assert_eq!(c.bytes_out, 0, "local batches never serialize");
    }

    fn flow_ctx(budget: usize) -> RoutingContext {
        let config = FlowConfig::default()
            .budget(budget)
            .credit_wait(std::time::Duration::from_millis(5));
        let mut rc = ctx_with(Some(config));
        rc.overload = Some(Arc::new(OverloadFlag::default()));
        rc
    }

    /// The context's credit registry.
    fn credits(rc: &RoutingContext) -> &FlowRegistry {
        rc.bringup.flow.as_ref().expect("flow control on")
    }

    #[test]
    fn local_credits_spend_on_emit_and_return_on_settle() {
        let j = journal();
        let mut rc = flow_ctx(1 << 20);
        // Route to worker 1 (cross-worker, credited); we are worker 0.
        rc.my_index = 0;
        let bringup = rc.bringup.clone();
        let flow = bringup.flow.as_ref().unwrap();
        let mut pusher = Pusher::new(&rc, 0, ConnectorId(1), Pact::exchange(|_: &u64| 1), j.clone());
        pusher.give_batch(Timestamp::new(0), &mut vec![7u64]);
        pusher.flush();
        assert!(flow.in_flight_bytes() > 0, "emit spends credits");
        let spent = flow.in_flight_bytes();
        assert_eq!(flow.peak_in_flight_bytes(), spent);
        // The receiving worker (global index 1) pulls and settles.
        let rx_ctx = RoutingContext { my_index: 1, ..rc };
        let mut puller = Puller::<u64>::new(&rx_ctx, 0, ConnectorId(1), j);
        assert!(puller.pull().is_some());
        assert_eq!(flow.in_flight_bytes(), spent, "credits return on settle, not pull");
        puller.settle();
        assert_eq!(flow.in_flight_bytes(), 0);
        assert_eq!(flow.returns(), 1);
    }

    #[test]
    fn exhausted_credits_overdraft_after_bounded_wait() {
        let j = journal();
        let rc = flow_ctx(1); // 1-byte budget: second batch cannot fit
        let (flow, reg) = (credits(&rc), queues(&rc));
        let mut pusher = Pusher::new(&rc, 0, ConnectorId(1), Pact::exchange(|_: &u64| 1), j);
        pusher.give_batch(Timestamp::new(0), &mut vec![7u64]);
        pusher.flush(); // admitted: empty queue always admits
        assert_eq!(flow.overdrafts(), 0);
        pusher.give_batch(Timestamp::new(0), &mut vec![8u64]);
        pusher.flush(); // parks for the full wait, then overdrafts
        assert_eq!(flow.overdrafts(), 1, "Block policy pierces the budget");
        assert!(flow.credit_waits() >= 1);
        assert!(flow.credit_wait_ns() > 0);
        // Both batches were nonetheless delivered — Block is lossless.
        let rx = reg.receiver::<Message<u64>>(ChannelKey::Data(0, 0, 1));
        assert!(rx.try_recv().is_some());
        assert!(rx.try_recv().is_some());
    }

    #[test]
    fn self_routes_never_park() {
        let j = journal();
        let rc = flow_ctx(1); // tiny budget
        let flow = credits(&rc);
        let mut pusher = Pusher::new(&rc, 0, ConnectorId(0), Pact::Pipeline, j);
        for i in 0..8u64 {
            pusher.give_batch(Timestamp::new(0), &mut vec![i]);
            pusher.flush();
        }
        assert_eq!(
            flow.credit_waits(),
            0,
            "self-routed batches must not wait for credits"
        );
        assert_eq!(flow.overdrafts(), 0, "forced spends are not overdrafts");
        assert!(flow.in_flight_bytes() > 0, "accounting still exact");
    }

    #[test]
    fn shed_policy_drops_with_exact_counts_when_shedding() {
        let j = journal();
        let config = FlowConfig::default()
            .budget(1)
            .credit_wait(std::time::Duration::from_millis(2))
            .policy(ShedPolicy::Shed);
        let mut rc = ctx_with(Some(config));
        let overload = Arc::new(OverloadFlag::default());
        overload.set(OverloadState::Shedding);
        rc.overload = Some(overload);
        let (flow, reg) = (credits(&rc), queues(&rc));
        let mut pusher = Pusher::new(&rc, 0, ConnectorId(1), Pact::exchange(|_: &u64| 1), j.clone());
        pusher.give_batch(Timestamp::new(0), &mut vec![7u64]);
        pusher.flush(); // admitted
        pusher.give_batch(Timestamp::new(0), &mut vec![8u64]);
        pusher.flush(); // shed
        assert_eq!(flow.shed_batches(), 1);
        assert_eq!(flow.shed_records(), 1);
        assert!(flow.shed_bytes() > 0);
        assert_eq!(flow.overdrafts(), 0);
        // The shed batch journaled +1 then −1: occurrence counts net zero.
        let entries = j.borrow();
        let sum: i64 = entries.iter().map(|(_, d)| *d).sum();
        assert_eq!(sum, 1, "one delivered (+1, unsettled) batch; shed nets zero");
        // Only one batch actually reached the queue.
        let rx = reg.receiver::<Message<u64>>(ChannelKey::Data(0, 0, 1));
        assert!(rx.try_recv().is_some());
        assert!(rx.try_recv().is_none());
    }

    #[test]
    fn partition_is_the_remainder_for_every_peer_count() {
        let mut rng = naiad_rng::Xorshift::new(0x9A);
        let mut hashes: Vec<u64> = (0..512).map(|_| rng.next_u64()).collect();
        hashes.extend([0, 1, 63, 64, 126, 127, 128, u64::MAX - 1, u64::MAX]);
        hashes.extend((0..64).flat_map(|bit| [1u64 << bit, (1u64 << bit).wrapping_sub(1)]));
        for peers in (1..=9).chain([64, 127]) {
            for &hash in &hashes {
                assert_eq!(
                    partition(hash, peers) as u64,
                    hash % peers as u64,
                    "hash {hash:#x}, {peers} peers"
                );
            }
        }
    }

    #[test]
    fn integer_batches_decode_into_the_recycled_container() {
        let m = Message {
            time: Timestamp::with_counters(3, &[1]),
            data: vec![7u64, u64::MAX, 0, 1 << 40],
        };
        let bytes = encode_to_vec(&m);
        assert_eq!(bytes.len(), m.encoded_len());
        // time, length, one width byte, then eight bytes a key.
        assert_eq!(bytes.len(), m.time.encoded_len() + 1 + 1 + 4 * 8);
        let mut spare = Vec::with_capacity(64);
        spare.extend([9u64; 10]);
        let storage = spare.as_ptr();
        let back = Message::decode_into(&bytes, spare).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.data.as_ptr(), storage, "container storage reused");
        assert_eq!(
            naiad_wire::decode_from_slice::<Message<u64>>(&bytes).unwrap(),
            m
        );

        // A hostile frame is a typed error, whatever it claims to hold.
        let header = m.time.encoded_len() + 1;
        let mut bad_width = bytes.clone();
        bad_width[header] = 3;
        assert_eq!(
            Message::<u64>::decode_into(&bad_width, Vec::new()),
            Err(WireError::InvalidTag(3))
        );
        assert!(matches!(
            Message::<u64>::decode_into(&bytes[..bytes.len() - 1], Vec::new()),
            Err(WireError::LengthOverrun { .. })
        ));
        let mut trailing = bytes;
        trailing.push(0);
        assert_eq!(
            Message::<u64>::decode_into(&trailing, Vec::new()),
            Err(WireError::TrailingBytes(1))
        );
    }

    #[test]
    fn message_wire_roundtrip() {
        let m = Message {
            time: Timestamp::with_counters(3, &[1]),
            data: vec!["a".to_string(), "b".to_string()],
        };
        let bytes = encode_to_vec(&m);
        assert_eq!(bytes.len(), m.encoded_len());
        assert_eq!(
            naiad_wire::decode_from_slice::<Message<String>>(&bytes).unwrap(),
            m
        );
    }
}
