//! The typed graph-assembly interface (§4.3).
//!
//! A dataflow is built inside [`Worker::dataflow`](crate::runtime::Worker::dataflow):
//! the closure receives a [`Scope`], creates input stages, derives
//! [`Stream`]s through operators, and wires loops through
//! [`LoopContext`]s. Each worker runs the same
//! construction code, producing its own vertex per stage — the physical
//! expansion of §3.1.
//!
//! Operators are built from closures over typed ports:
//!
//! * `OnRecv` logic drains an [`InputPort`] and writes an [`OutputPort`];
//! * `OnNotify` logic runs when the system guarantees no further messages
//!   at or before the requested time (§2.2), requested through [`Notify`].
//!
//! A vertex keeps no notification state of its own: every [`Notify`] of a
//! dataflow writes into the dataflow's one request set, which the worker
//! owns, tests and delivers from.

pub mod builder;
pub mod input;
pub mod loops;
pub mod ops;
pub mod output;
mod ports;

pub use input::InputHandle;
pub use loops::LoopContext;
pub use output::ProbeHandle;
pub use ports::{InputPort, OutputPort, Session};

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use naiad_wire::ExchangeData;

use crate::graph::{ContextId, GraphBuilder, Location, StageId};
use crate::progress::{Pointstamp, WorkerCore};
use crate::runtime::channels::{journal_update, Journal, Pact, Puller, Pusher, RoutingContext};
use crate::runtime::durability::{Checkpoint, KeyedCheckpoint, KeyedState};
use crate::time::Timestamp;

pub(crate) use builder::Vertex;
use ports::{Tee, TeeState};

/// The worker's protocol core for a dataflow, whose table is this worker's
/// view of the dataflow's progress; it has one from when the graph is
/// finalized ([`WorkerCore::register`]). Probes and input handles hold
/// clones.
pub(crate) type TrackerCell = Rc<RefCell<WorkerCore>>;

/// The dataflow's pending notification requests: one ordered set, owned
/// by the worker and shared by every [`Notify`] of the dataflow. A held
/// blocking request is the occurrence its pointstamp counts (§2.3), so
/// what is deliverable changes only when a request arrives or the worker's
/// view moves; either sets `dirty`, and the worker tests the set only then.
#[derive(Default)]
pub(crate) struct Requests {
    /// Each request once as `(pointstamp, purge)`, sorted: canonical
    /// [`Pointstamp`] order, a blocking request before a purge one (§2.4)
    /// at the same pointstamp.
    pending: Vec<(Pointstamp, bool)>,
    pub(crate) dirty: bool,
}

/// The worker's request set for a dataflow; [`Notify`] handles hold clones.
pub(crate) type RequestSet = Rc<RefCell<Requests>>;

impl Requests {
    /// Adds a request, returning whether it is new (duplicates coalesce).
    fn insert(&mut self, request: (Pointstamp, bool)) -> bool {
        let Err(at) = self.pending.binary_search(&request) else {
            return false;
        };
        self.pending.insert(at, request);
        self.dirty = true;
        true
    }

    /// The pending requests, in order.
    pub(crate) fn pending(&self) -> &[(Pointstamp, bool)] {
        &self.pending
    }

    /// Moves the requests `tracker`'s view now permits onto `due`, in the
    /// set's order — or nothing, without borrowing `tracker`, unless the
    /// set is dirty.
    pub(crate) fn drain_due(&mut self, tracker: &TrackerCell, due: &mut Vec<(Pointstamp, bool)>) {
        if !std::mem::take(&mut self.dirty) || self.pending.is_empty() {
            return;
        }
        let core = tracker.borrow();
        let table = core.table();
        self.pending.retain(|&(p, purge)| {
            let ready = if purge {
                table.done_through(&p.time, p.location)
            } else {
                table.in_frontier(&p)
            };
            if ready {
                due.push((p, purge));
            }
            !ready
        });
    }
}

/// A handle for requesting notifications at a stage (§2.2's `NotifyAt`).
///
/// Cloneable; `OnRecv` logic typically captures one to request future
/// notifications. Requests land in the dataflow's one request set.
#[derive(Clone)]
pub struct Notify {
    stage: StageId,
    journal: Journal,
    requests: RequestSet,
}

impl Notify {
    /// Requests that `OnNotify` run once no more messages at or before
    /// `time` can arrive. Duplicate requests for the same time coalesce.
    pub fn notify_at(&self, time: Timestamp) {
        let p = Pointstamp::at_vertex(time, self.stage);
        if self.requests.borrow_mut().insert((p, false)) {
            journal_update(&self.journal, p, 1);
        }
    }

    /// Requests a *purge* notification (§2.4): guaranteed not to run
    /// before `time`, but carrying no capability to send — so it does not
    /// hold back the frontier. Use it to free state for completed times.
    pub fn notify_at_purge(&self, time: Timestamp) {
        let p = Pointstamp::at_vertex(time, self.stage);
        self.requests.borrow_mut().insert((p, true));
    }
}

/// A registered piece of operator state: either opaque (checkpoint/restore
/// only) or keyed (additionally partitionable for elastic rescaling).
#[derive(Clone)]
pub(crate) enum StateHandle {
    /// Registered through [`OperatorInfo::register_state`]: restorable
    /// into the same worker count only.
    Opaque(Rc<RefCell<dyn Checkpoint>>),
    /// Registered through [`OperatorInfo::register_keyed_state`]: can be
    /// split and re-merged along its exchange partitioning.
    Keyed(Rc<RefCell<dyn KeyedCheckpoint>>),
}

impl StateHandle {
    /// Serializes the state (either flavor) into `buf`.
    pub(crate) fn checkpoint(&self, buf: &mut Vec<u8>) {
        match self {
            StateHandle::Opaque(s) => s.borrow().checkpoint(buf),
            StateHandle::Keyed(s) => s.borrow().checkpoint(buf),
        }
    }

    /// Restores the state (either flavor) from `input`.
    pub(crate) fn restore(&self, input: &mut &[u8]) {
        match self {
            StateHandle::Opaque(s) => s.borrow_mut().restore(input),
            StateHandle::Keyed(s) => s.borrow_mut().restore(input),
        }
    }

    /// The keyed view, if this state supports partition migration.
    pub(crate) fn keyed(&self) -> Option<&Rc<RefCell<dyn KeyedCheckpoint>>> {
        match self {
            StateHandle::Opaque(_) => None,
            StateHandle::Keyed(s) => Some(s),
        }
    }

    /// Whether this state can migrate across a worker-count change.
    pub(crate) fn is_keyed(&self) -> bool {
        matches!(self, StateHandle::Keyed(_))
    }
}

/// Registered checkpointable states, in registration order (identical
/// across workers by the SPMD contract, so blobs line up on restore).
pub(crate) type StateRegistry = Rc<RefCell<Vec<(StageId, StateHandle)>>>;

/// Construction-time facts handed to operator constructors.
pub struct OperatorInfo {
    /// The stage the operator instantiates.
    pub stage: StageId,
    /// Notification handle for this vertex.
    pub notify: Notify,
    /// This worker's global index.
    pub worker_index: usize,
    /// Total workers cooperating on the dataflow.
    pub peers: usize,
    states: StateRegistry,
}

impl OperatorInfo {
    /// Registers vertex state for checkpointing (§3.4): the state is
    /// serialized by [`Worker::checkpoint`](crate::runtime::Worker::checkpoint)
    /// and reloaded by [`Worker::restore`](crate::runtime::Worker::restore).
    ///
    /// Registration order must match across workers and runs — it does
    /// automatically when every worker runs the same construction code.
    pub fn register_state(&self, state: Rc<RefCell<dyn Checkpoint>>) {
        self.states
            .borrow_mut()
            .push((self.stage, StateHandle::Opaque(state)));
    }

    /// Registers *keyed* vertex state: a map partitioned by the same
    /// routing function the operator exchanges its records on.
    ///
    /// Beyond plain [`register_state`](Self::register_state) checkpointing,
    /// keyed state can be split into per-partition shards and re-merged
    /// under a different worker count, which is what lets
    /// [`Execution::elastic`](crate::runtime::Execution::elastic)
    /// migrate the operator across a rescale instead of aborting it.
    ///
    /// `route` must agree with the exchange contract feeding the operator
    /// (typically the same hash passed to `Pact::exchange`); entries are
    /// owned by worker `route(key) % peers`.
    pub fn register_keyed_state<K, V>(
        &self,
        state: Rc<RefCell<std::collections::HashMap<K, V>>>,
        route: impl Fn(&K) -> u64 + 'static,
    ) where
        K: naiad_wire::Wire + Eq + std::hash::Hash + 'static,
        V: naiad_wire::Wire + 'static,
    {
        let adapter: Rc<RefCell<dyn KeyedCheckpoint>> =
            Rc::new(RefCell::new(KeyedState::new(state, route)));
        self.states
            .borrow_mut()
            .push((self.stage, StateHandle::Keyed(adapter)));
    }
}

/// The dataflow under construction.
///
/// Created by [`Worker::dataflow`](crate::runtime::Worker::dataflow);
/// cloned freely into [`Stream`]s.
pub struct Scope {
    pub(crate) inner: Rc<RefCell<ScopeInner>>,
}

pub(crate) struct ScopeInner {
    pub(crate) builder: GraphBuilder,
    pub(crate) routing: RoutingContext,
    pub(crate) journal: Journal,
    pub(crate) tracker: TrackerCell,
    pub(crate) ops: Vec<Vertex>,
    pub(crate) states: StateRegistry,
    pub(crate) requests: RequestSet,
    next_channel: usize,
}

impl Scope {
    pub(crate) fn new(routing: RoutingContext, journal: Journal, tracker: TrackerCell) -> Self {
        Scope {
            inner: Rc::new(RefCell::new(ScopeInner {
                builder: GraphBuilder::new(),
                routing,
                journal,
                tracker,
                ops: Vec::new(),
                states: Rc::new(RefCell::new(Vec::new())),
                requests: RequestSet::default(),
                next_channel: 0,
            })),
        }
    }

    /// This worker's global index.
    pub fn worker_index(&self) -> usize {
        self.inner.borrow().routing.my_index
    }

    /// Total number of workers cooperating on this dataflow.
    pub fn peers(&self) -> usize {
        self.inner.borrow().routing.peers()
    }

    pub(crate) fn clone_ref(&self) -> Scope {
        Scope {
            inner: self.inner.clone(),
        }
    }

    /// Validates the constructed graph, runs the static analyzer, and
    /// takes ownership of the vertex harnesses; called by the worker when
    /// the construction closure returns.
    ///
    /// # Panics
    ///
    /// Panics if the graph fails structural validation or carries an
    /// analyzer diagnostic at or above the config's deny severity.
    pub(crate) fn finalize(&self, config: &crate::analysis::AnalysisConfig) -> FinalizedDataflow {
        let mut inner = self.inner.borrow_mut();
        let mut builder = std::mem::replace(&mut inner.builder, GraphBuilder::new());
        let ops = std::mem::take(&mut inner.ops);
        let states = inner.states.clone();
        let requests = inner.requests.clone();
        drop(inner);
        // No step has run: the set holds every `notify_at` made during
        // construction, for the analyzer (`NA0003`); later requests are
        // checked dynamically by the tracker.
        for &(p, purge) in &requests.borrow().pending {
            if let (Location::Vertex(stage), false) = (p.location, purge) {
                builder.declare_notification(stage, p.time);
            }
        }
        // Surface state registrations to the analyzer (NA0006's
        // rescale-contracts mode certifies keyed state placement).
        for (stage, handle) in states.borrow().iter() {
            builder.declare_stateful(*stage, handle.is_keyed());
        }
        let (graph, report) = builder
            .build_checked(config)
            .unwrap_or_else(|e| panic!("invalid dataflow graph: {e}"));
        (graph, ops, states, requests, report)
    }
}

/// Everything [`Scope::finalize`] hands the worker: the validated graph,
/// the vertex harnesses, the checkpointable state registry, the request
/// set, and the static analyzer's report.
pub(crate) type FinalizedDataflow = (
    crate::graph::LogicalGraph,
    Vec<Vertex>,
    StateRegistry,
    RequestSet,
    crate::analysis::AnalysisReport,
);

impl ScopeInner {
    pub(crate) fn alloc_channel(&mut self) -> usize {
        let c = self.next_channel;
        self.next_channel += 1;
        c
    }
}

/// A typed stream of records produced by one stage output.
///
/// Streams are cheap handles: cloning shares the underlying output.
pub struct Stream<D> {
    pub(crate) stage: StageId,
    pub(crate) port: usize,
    pub(crate) context: ContextId,
    pub(crate) tee: Tee<D>,
    pub(crate) scope: Scope,
}

impl<D> Clone for Stream<D> {
    fn clone(&self) -> Self {
        Stream {
            stage: self.stage,
            port: self.port,
            context: self.context,
            tee: self.tee.clone(),
            scope: self.scope.clone_ref(),
        }
    }
}

impl<D: ExchangeData> Stream<D> {
    /// Creates a stream for a freshly added stage output.
    pub(crate) fn new(stage: StageId, port: usize, context: ContextId, scope: Scope) -> Self {
        let tee = TeeState::shared(scope.inner.borrow().routing.bringup.config.batch_size);
        Stream {
            stage,
            port,
            context,
            tee,
            scope,
        }
    }

    /// The stage producing this stream.
    pub fn stage(&self) -> StageId {
        self.stage
    }

    /// The loop context the stream lives in.
    pub fn context(&self) -> ContextId {
        self.context
    }

    /// The scope this stream belongs to.
    pub fn scope(&self) -> Scope {
        self.scope.clone_ref()
    }

    /// Wires this stream into `dst`'s input `port` under `pact`,
    /// returning the receiving port for the consuming vertex, which sets
    /// `worked` whenever it delivers a batch.
    pub(crate) fn connect_to(
        &self,
        dst: StageId,
        port: usize,
        pact: Pact<D>,
        worked: &Rc<Cell<bool>>,
    ) -> InputPort<D> {
        let mut inner = self.scope.inner.borrow_mut();
        let connector = inner
            .builder
            .connect_with(self.stage, self.port, dst, port, pact.kind());
        let channel = inner.alloc_channel();
        let pusher = Pusher::new(
            &inner.routing,
            channel,
            connector,
            self.stage,
            pact,
            inner.journal.clone(),
        );
        let puller = Puller::new(
            &inner.routing,
            channel,
            connector,
            dst,
            inner.journal.clone(),
        );
        drop(inner);
        self.tee.borrow_mut().pushers.push(pusher);
        InputPort::new(puller, worked.clone())
    }
}
