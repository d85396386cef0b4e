//! Workers: vertex scheduling, notification delivery, and the worker side
//! of the progress protocol (§3.2, §3.3).
//!
//! A worker is built from four things: its index, its [`Process`] (shared
//! with the process's other workers), the run's [`Bringup`] and its fabric
//! mailbox. What else it holds is its own: its dataflows with their
//! progress cores and journals, its recorder and its overload monitor.
//! Each dataflow it builds gets a [`RoutingContext`] over the same shared
//! values, from which the dataflow's pushers and pullers resolve their
//! routes.
//!
//! A dataflow's notification requests are one ordered set the worker
//! owns. After a step's pumps the worker tests the set against its view
//! only if a request arrived or a progress batch was applied to that view
//! since the last test, and delivers what is ready to the vertices of the
//! requests' stages, in canonical pointstamp order.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use naiad_netsim::{FaultController, NetReceiver};
use naiad_wire::{encode_to_vec, Bytes};

use crate::analysis::{AnalysisConfig, AnalysisReport};
use crate::dataflow::{RequestSet, Scope, StateHandle, StateRegistry, TrackerCell, Vertex};
use crate::graph::{Location, StageId};
use crate::progress::{Hop, ProgressBatch, ProgressUpdate, Role, WorkerCore};
use crate::telemetry::{Recorder, TelemetryEvent, WorkerTelemetry};

use super::channels::{journal_update, Journal, Mailbox, ProgressFrame, RoutingContext};
use super::durability::{open_blob, seal_blob, RestoreError};
use super::execute::{Bringup, Process};
use super::flow::{OverloadFlag, OverloadMonitor};
use super::rescale::RescaleError;
use super::liveness::LivenessTransition;
use super::retry::{escalate, FaultKind, FaultPanic};

/// One dataflow installed at this worker.
struct DataflowRuntime {
    id: usize,
    /// This worker's protocol core for the dataflow, whose table is its
    /// view of the dataflow's progress.
    core: TrackerCell,
    journal: Journal,
    /// The dataflow's pending notification requests.
    requests: RequestSet,
    ops: Vec<Vertex>,
    states: StateRegistry,
    complete: bool,
    /// Last frontier-probe sample `(active, input_epoch)`, so probes are
    /// recorded only when the sampled values change.
    last_probe: Option<(u32, Option<u64>)>,
    /// Last non-`None` tracker min-epoch, used to attribute scheduling
    /// slices once every pointstamp has drained.
    last_epoch: u64,
}

/// The watchdog tick of [`Worker::idle_wait`]: an idle worker blocks on
/// its fabric mailbox and wakes the moment a frame — a progress batch or a
/// remote data frame — arrives; this bounds the wait so it re-polls its
/// same-process data queues and feeds the stall watchdog even when no
/// frame comes. Not a latency floor.
const IDLE_TICK: Duration = Duration::from_micros(200);

/// The protocol core of worker `index` for dataflow `id`, before its
/// graph is known.
fn new_core(id: usize, index: usize) -> TrackerCell {
    Rc::new(RefCell::new(WorkerCore::unregistered(
        id as u32,
        index as u32,
    )))
}

/// A worker: owns one vertex per stage of each dataflow it participates in
/// and exchanges messages and progress updates with its peers (§3.2).
///
/// Workers are handed to the closure passed to
/// [`execute`](crate::runtime::execute::execute); they are not constructed
/// directly.
pub struct Worker {
    index: usize,
    /// This worker's process, shared with its other workers: the send
    /// half, the queues between them, the progress accumulator and the
    /// failure detector.
    process: Arc<Process>,
    /// What every thread of the run shares: the config, the escalation
    /// cell, the credit registry, the slab pool, the retry policy and the
    /// graph directory.
    bringup: Arc<Bringup>,
    /// Where everything other threads send this worker arrives — other
    /// processes' data frames, every progress batch — shared with the
    /// pullers that read the data.
    mailbox: Rc<RefCell<Mailbox>>,
    /// The progress batches of the last mailbox drain, waiting to be
    /// applied (kept for its capacity).
    inbound: Vec<ProgressFrame>,
    dataflows: Vec<DataflowRuntime>,
    next_dataflow: usize,
    /// Whether the previous step processed anything, used to decide when
    /// the worker may block briefly instead of spinning.
    last_step_worked: bool,
    /// Cores of dataflows this worker has not built yet (peers construct
    /// concurrently), stashing the batches that arrived for them until
    /// construction registers the graph.
    early: HashMap<usize, TrackerCell>,
    /// When the current idle spell began, for the stall watchdog. `None`
    /// whenever the last step worked or every dataflow is complete.
    stall_since: Option<Instant>,
    /// Scheduling rounds completed, reported in stall dumps.
    steps: u64,
    /// Structured telemetry ([`crate::telemetry`]); disabled (all calls
    /// are single branches) unless `Config::telemetry` or `NAIAD_DEBUG`
    /// asks for it.
    recorder: Recorder,
    /// Monotone per-worker scheduling-slice sequence, shared by the
    /// Start/Stop pair of each slice.
    schedule_seq: u64,
    /// This worker's overload state, shared with its pushers (shed path);
    /// `None` when flow control is off.
    overload: Option<Arc<OverloadFlag>>,
    /// The overload detector driving [`Worker::overload`].
    monitor: Option<OverloadMonitor>,
    /// Credit returns seen at the last watchdog check, to distinguish
    /// `Backpressured` (credits still moving) from a real stall.
    last_flow_returns: u64,
    /// Credit waits seen at the last overload poll.
    last_flow_waits: u64,
}

impl Worker {
    pub(crate) fn new(
        index: usize,
        process: Arc<Process>,
        bringup: Arc<Bringup>,
        mailbox: NetReceiver,
    ) -> Self {
        let config = &bringup.config;
        // `NAIAD_DEBUG` enables recording even when the config does not,
        // so the structured state dump always has events to print.
        let recorder = if config.telemetry || std::env::var_os("NAIAD_DEBUG").is_some() {
            Recorder::with_capacity(config.telemetry_capacity)
        } else {
            Recorder::disabled()
        };
        recorder.set_worker(index);
        let flow = bringup.flow.as_ref();
        let overload = flow.map(|_| Arc::new(OverloadFlag::default()));
        let monitor = flow.map(|f| OverloadMonitor::new(f.config()));
        Worker {
            index,
            process,
            bringup,
            mailbox: Rc::new(RefCell::new(Mailbox::new(mailbox))),
            inbound: Vec::new(),
            dataflows: Vec::new(),
            next_dataflow: 0,
            last_step_worked: true,
            early: HashMap::new(),
            stall_since: None,
            steps: 0,
            recorder,
            schedule_seq: 0,
            overload,
            monitor,
            last_flow_returns: 0,
            last_flow_waits: 0,
        }
    }

    /// A clone of this worker's recorder (for the introspection harness,
    /// which taps it, and the run coordinator, which records events of its
    /// own in this worker's log).
    pub(crate) fn recorder(&self) -> Recorder {
        self.recorder.clone()
    }

    /// Drains this worker's telemetry into a harvest for the registry
    /// (`None` when recording is disabled).
    pub(crate) fn take_telemetry(&self) -> Option<WorkerTelemetry> {
        self.recorder.harvest(self.index)
    }

    /// This worker's global index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Total number of workers in the computation.
    pub fn peers(&self) -> usize {
        self.bringup.config.total_workers()
    }

    /// The process hosting this worker.
    pub fn process(&self) -> usize {
        self.process.index
    }

    /// A handle for injecting faults into the fabric at runtime: crash or
    /// revive processes, sever or heal links.
    pub fn fault_controller(&self) -> FaultController {
        self.process.net.lock().fault_controller()
    }

    /// Crashes this worker's own process and unwinds (this function does
    /// not return): every subsequent fabric send from or to the process
    /// fails, every peer worker unwinds via the escalation cell — the
    /// paper's failure model, where one process loss triggers a
    /// coordinated rollback of the whole computation (§3.4) — and
    /// [`execute`](crate::runtime::execute::execute) reports
    /// [`ExecuteError::ProcessCrashed`](crate::runtime::execute::ExecuteError::ProcessCrashed).
    /// Drivers of a resilient run
    /// ([`Execution::resilient`](crate::runtime::Execution::resilient))
    /// use this to emulate a mid-computation process loss at a precise
    /// point in the input stream.
    pub fn inject_crash(&self) -> ! {
        self.fault_controller().crash(self.process.index);
        let kind = FaultKind::ProcessCrashed {
            process: self.process.index,
        };
        self.recorder.record(TelemetryEvent::FaultEscalated { kind });
        escalate(&self.bringup.escalation, kind)
    }

    /// Builds a dataflow. Every worker must call `dataflow` the same
    /// number of times with structurally identical graphs — the usual
    /// SPMD contract (§3.1's logical graph is shared; each worker
    /// instantiates its own vertices).
    ///
    /// The constructed graph is validated *and* statically analyzed (see
    /// [`crate::analysis`]) with the default [`AnalysisConfig`] before any
    /// vertex runs; use [`Worker::dataflow_with_report`] to customize the
    /// analyzer or inspect its findings.
    ///
    /// # Panics
    ///
    /// Panics if the constructed graph fails validation (invalid cycle,
    /// unconnected input, cross-context connector, …) or carries an
    /// analyzer diagnostic at `Error` severity.
    pub fn dataflow<R>(&mut self, construct: impl FnOnce(&mut Scope) -> R) -> R {
        let mut analysis = AnalysisConfig::default();
        if self.bringup.certify_rescale {
            analysis = analysis.with_rescale_contracts();
        }
        self.dataflow_with_report(&analysis, construct).0
    }

    /// Like [`Worker::dataflow`], but analyzes the graph under `config`
    /// and returns the full [`AnalysisReport`] alongside the construction
    /// closure's result. The report (error/warning/info counts) is also
    /// recorded as a telemetry event when telemetry is enabled.
    ///
    /// # Panics
    ///
    /// Panics if the graph fails validation or carries a diagnostic at or
    /// above `config.deny` severity.
    pub fn dataflow_with_report<R>(
        &mut self,
        config: &AnalysisConfig,
        construct: impl FnOnce(&mut Scope) -> R,
    ) -> (R, AnalysisReport) {
        let id = self.next_dataflow;
        self.next_dataflow += 1;
        let journal: Journal = Rc::new(RefCell::new(Vec::new()));
        let core = self
            .early
            .remove(&id)
            .unwrap_or_else(|| new_core(id, self.index));
        let routing = RoutingContext {
            dataflow: id,
            my_index: self.index,
            process: self.process.clone(),
            bringup: self.bringup.clone(),
            mailbox: self.mailbox.clone(),
            recorder: self.recorder.clone(),
            overload: self.overload.clone(),
        };
        let mut scope = Scope::new(routing, journal.clone(), core.clone());
        let result = construct(&mut scope);

        let (graph, ops, states, requests, report) = scope.finalize(config);
        let graph = Arc::new(graph);
        self.bringup.register_dataflow(id, graph.clone());
        if self.recorder.enabled() {
            let operators = ops
                .iter()
                .filter_map(|op| {
                    let stage = graph.stages().get(op.stage().0)?;
                    Some((op.stage(), stage.name.clone()))
                })
                .collect();
            self.recorder.register_dataflow(id, &graph, operators);
            self.recorder.record(TelemetryEvent::AnalysisReport {
                dataflow: id as u32,
                errors: report.error_count() as u32,
                warnings: report.warning_count() as u32,
                infos: report.info_count() as u32,
            });
        }
        // Batches that raced ahead of construction apply now.
        for batch in core.borrow_mut().register(graph, self.peers()) {
            self.record_applied(&batch);
        }
        self.dataflows.push(DataflowRuntime {
            id,
            core,
            journal,
            requests,
            ops,
            states,
            complete: false,
            last_probe: None,
            last_epoch: 0,
        });
        (result, report)
    }

    /// Serializes every registered vertex state of every dataflow (§3.4).
    ///
    /// Call at a quiescent point — e.g. after
    /// [`ProbeHandle::done_through`](crate::dataflow::ProbeHandle::done_through)
    /// reports the epochs you want captured — so the snapshot is
    /// consistent: no messages for the captured epochs remain in flight.
    /// The returned blob is sealed with a versioned header and checksum
    /// ([`seal_blob`]); [`Worker::try_restore`] verifies both, so storage
    /// corruption is caught before any state is touched.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut out = Vec::new();
        // Version 2 payloads open with the worker count that partitioned
        // the snapshot, so restoring into a different cluster size is a
        // typed error instead of a silent wrong-routing hazard.
        naiad_wire::Wire::encode(&self.peers(), &mut out);
        self.encode_states(&mut out, StateHandle::checkpoint);
        let sealed = seal_blob(&out);
        self.recorder.record(TelemetryEvent::CheckpointTaken {
            bytes: sealed.len() as u64,
        });
        sealed
    }

    /// Every registered state of every dataflow with its dataflow's
    /// index, in the order [`Worker::encode_states`] writes them.
    fn all_states(&self) -> impl Iterator<Item = (usize, StageId, StateHandle)> + '_ {
        self.dataflows.iter().enumerate().flat_map(|(index, df)| {
            let states = df.states.borrow();
            let states = states.iter().map(|(stage, state)| (index, *stage, state.clone()));
            states.collect::<Vec<_>>()
        })
    }

    /// Appends the dataflows' registered states to `out`: the
    /// dataflow count, then per dataflow its state count and one
    /// length-prefixed blob per state, filled by `write`.
    fn encode_states(&self, out: &mut Vec<u8>, write: impl Fn(&StateHandle, &mut Vec<u8>)) {
        naiad_wire::Wire::encode(&self.dataflows.len(), out);
        for df in &self.dataflows {
            let states = df.states.borrow();
            naiad_wire::Wire::encode(&states.len(), out);
            for (_stage, state) in states.iter() {
                let mut blob = Vec::new();
                write(state, &mut blob);
                naiad_wire::Wire::encode(&blob, out);
            }
        }
    }

    /// Reads what [`Worker::encode_states`] wrote — one blob per state, in
    /// [`Worker::all_states`] order — validating its shape against the
    /// constructed dataflows, so callers touch no state until every blob
    /// is in hand.
    fn decode_states(&self, input: &mut &[u8]) -> Result<Vec<Vec<u8>>, RestoreError> {
        let expect = |what, expected, found| {
            if expected == found {
                Ok(())
            } else {
                Err(RestoreError::ShapeMismatch {
                    what,
                    expected,
                    found,
                })
            }
        };
        let dataflows = <usize as naiad_wire::Wire>::decode(input)
            .map_err(|_| RestoreError::Truncated("dataflow count"))?;
        expect("dataflow count", self.dataflows.len(), dataflows)?;
        let mut blobs = Vec::new();
        for df in &self.dataflows {
            let count = <usize as naiad_wire::Wire>::decode(input)
                .map_err(|_| RestoreError::Truncated("registered-state count"))?;
            expect("registered-state count", df.states.borrow().len(), count)?;
            for _ in 0..count {
                let blob = <Vec<u8> as naiad_wire::Wire>::decode(input)
                    .map_err(|_| RestoreError::Truncated("state blob"))?;
                blobs.push(blob);
            }
        }
        Ok(blobs)
    }

    /// Serializes registered vertex state as `parts` sealed *shard* blobs:
    /// shard `p` holds, for every keyed state, exactly the entries worker
    /// `p` of a `parts`-worker cluster would own under the exchange
    /// contract. The run coordinator
    /// ([`Execution::elastic`](crate::runtime::Execution::elastic))
    /// sends shard `p` from every old worker to new worker `p`, which
    /// absorbs them with [`Worker::restore_shards`].
    ///
    /// Fails with [`RescaleError::UnmigratableState`] if any dataflow
    /// registered opaque (non-keyed) state — such state has no
    /// partitioning the coordinator could re-route.
    pub fn checkpoint_partitioned(&self, parts: usize) -> Result<Vec<Vec<u8>>, RescaleError> {
        if let Some((dataflow, stage, _)) = self.all_states().find(|(_, _, s)| !s.is_keyed()) {
            return Err(RescaleError::UnmigratableState {
                dataflow,
                stage: stage.0,
            });
        }
        let shard = |part: usize| {
            let mut out = Vec::new();
            naiad_wire::Wire::encode(&parts, &mut out);
            naiad_wire::Wire::encode(&part, &mut out);
            naiad_wire::Wire::encode(&self.index, &mut out);
            self.encode_states(&mut out, |state, blob| {
                // lint-allow(NS0004): the validation pass above already
                // returned Err for non-keyed state.
                let keyed = state.keyed().expect("checked keyed above");
                keyed.borrow().export_part(part, parts, blob);
            });
            seal_blob(&out)
        };
        Ok((0..parts).map(shard).collect())
    }

    /// Rebuilds keyed vertex state from migration shards produced by
    /// [`Worker::checkpoint_partitioned`] on the *previous* membership:
    /// one shard per old worker, each carrying this worker's partition.
    ///
    /// Validates every shard (seal, partition arity, target partition,
    /// dataflow/state shape) before any state is touched; only then clears
    /// the keyed maps and absorbs the shards, so a corrupt shard can never
    /// leave the worker half-migrated.
    pub fn restore_shards(&mut self, shards: &[Vec<u8>]) -> Result<(), RestoreError> {
        let mut keyed = Vec::new();
        for (_, _, state) in self.all_states() {
            let Some(state) = state.keyed() else {
                return Err(RestoreError::ShapeMismatch {
                    what: "keyed-state registration",
                    expected: 1,
                    found: 0,
                });
            };
            keyed.push(state.clone());
        }
        let mut payloads = Vec::with_capacity(shards.len());
        for shard in shards {
            let mut payload = open_blob(shard)?;
            let input = &mut payload;
            let parts = <usize as naiad_wire::Wire>::decode(input)
                .map_err(|_| RestoreError::Truncated("shard partition arity"))?;
            if parts != self.peers() {
                return Err(RestoreError::PartitionCountMismatch {
                    checkpointed: parts,
                    restoring: self.peers(),
                });
            }
            let part = <usize as naiad_wire::Wire>::decode(input)
                .map_err(|_| RestoreError::Truncated("shard partition index"))?;
            if part != self.index {
                return Err(RestoreError::ShapeMismatch {
                    what: "shard partition index",
                    expected: self.index,
                    found: part,
                });
            }
            let source = <usize as naiad_wire::Wire>::decode(input)
                .map_err(|_| RestoreError::Truncated("shard source worker"))?;
            payloads.push((source, self.decode_states(input)?));
        }
        // Every shard validated: now mutate, once, in one pass.
        for state in &keyed {
            state.borrow_mut().clear();
        }
        for (source, blobs) in payloads {
            let mut migrated = 0u64;
            for (state, blob) in keyed.iter().zip(&blobs) {
                state.borrow_mut().absorb_part(&mut &blob[..]);
                migrated += blob.len() as u64;
            }
            self.recorder.record(TelemetryEvent::PartitionMigrated {
                from_worker: source as u32,
                bytes: migrated,
            });
        }
        Ok(())
    }

    /// The migration frontier barrier (§3.3 applied to rescaling): `true`
    /// when, in every dataflow, no active pointstamp carries an epoch at
    /// or below `epoch`. The rescale coordinator requires this of the
    /// fence's predecessor before sharding state — a still-draining epoch
    /// would make the snapshot miss in-flight records.
    pub fn frontier_closed_through(&self, epoch: u64) -> bool {
        self.dataflows
            .iter()
            .all(|df| df.core.borrow().table().closed_through(epoch))
    }

    /// Steps until [`Worker::frontier_closed_through`] holds for `epoch`:
    /// the quiesce step of the rescale protocol. A probe only certifies
    /// drainage *upstream* of its point — sinks, captures, and remote
    /// workers may still hold pointstamps at the epoch — so the fence
    /// snapshot drains every location first. The stall watchdog bounds
    /// this loop like any other step loop.
    pub fn step_until_closed_through(&mut self, epoch: u64) {
        while !self.frontier_closed_through(epoch) {
            self.step();
            self.idle_wait();
        }
    }

    /// Restores vertex states captured by [`Worker::checkpoint`] into the
    /// structurally identical dataflows this worker has constructed.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's shape does not match the constructed
    /// dataflows (different dataflow count or registered-state count) or
    /// the bytes are corrupt. Use [`Worker::try_restore`] for a fallible
    /// variant.
    pub fn restore(&mut self, snapshot: &[u8]) {
        if let Err(e) = self.try_restore(snapshot) {
            panic!("snapshot restore failed: {e}");
        }
    }

    /// Fallible variant of [`Worker::restore`]: validates the snapshot's
    /// shape against the constructed dataflows and reports corruption as a
    /// typed [`RestoreError`] instead of panicking.
    pub fn try_restore(&mut self, snapshot: &[u8]) -> Result<(), RestoreError> {
        let mut payload = open_blob(snapshot)?;
        let input = &mut payload;
        let checkpointed = <usize as naiad_wire::Wire>::decode(input)
            .map_err(|_| RestoreError::Truncated("snapshot worker count"))?;
        if checkpointed != self.peers() {
            // A snapshot partitions keyed state by `hash % peers`; loading
            // it into a different worker count would silently violate the
            // exchange contract. The rescale path re-partitions instead.
            return Err(RestoreError::PartitionCountMismatch {
                checkpointed,
                restoring: self.peers(),
            });
        }
        let blobs = self.decode_states(input)?;
        for ((_, _, state), blob) in self.all_states().zip(&blobs) {
            state.restore(&mut &blob[..]);
        }
        self.recorder.record(TelemetryEvent::CheckpointRestored {
            bytes: snapshot.len() as u64,
        });
        Ok(())
    }

    /// Runs one scheduling round: pumps vertices, delivers ready
    /// notifications, flushes progress updates, and applies incoming ones.
    /// Returns whether any dataflow is still live.
    pub fn step(&mut self) -> bool {
        // If any thread escalated an injected fault, unwind too: peers of
        // a crashed process would otherwise block forever waiting for its
        // progress updates.
        if let Some(kind) = self.bringup.escalation.check() {
            escalate(&self.bringup.escalation, kind);
        }
        self.recorder.record_step();
        self.steps += 1;
        self.drain_liveness_transitions();
        self.poll_overload();
        self.last_step_worked = false;
        self.drain_mailbox();
        for df in 0..self.dataflows.len() {
            self.step_dataflow(df);
        }
        self.drain_mailbox();
        if self.recorder.enabled() {
            self.probe_frontiers();
        }
        self.dataflows.iter().any(|df| !df.complete)
    }

    /// Feeds the overload detector one observation per step (two atomic
    /// loads when flow control is on, nothing otherwise) and publishes
    /// transitions to this worker's pushers and telemetry.
    fn poll_overload(&mut self) {
        let (Some(flow), Some(monitor), Some(flag)) =
            (&self.bringup.flow, &mut self.monitor, &self.overload)
        else {
            return;
        };
        let ratio = flow.in_flight_bytes() as f64 / flow.config().budget as f64;
        let waits = flow.credit_waits();
        let waited = waits != self.last_flow_waits;
        self.last_flow_waits = waits;
        if let Some((from, to)) = monitor.observe(ratio, waited) {
            flag.set(to);
            self.recorder.record(TelemetryEvent::OverloadTransition {
                from: from.as_u8(),
                to: to.as_u8(),
            });
        }
    }

    /// Surfaces failure-detector state changes (raised by this process's
    /// liveness thread) as telemetry events in this worker's log.
    fn drain_liveness_transitions(&mut self) {
        let Some(live) = &self.process.liveness else {
            return;
        };
        if !self.recorder.enabled() {
            live.drain_transitions();
            return;
        }
        for transition in live.drain_transitions() {
            let event = match transition {
                LivenessTransition::Suspected { peer, silent_ns } => {
                    TelemetryEvent::PeerSuspected {
                        peer: peer as u32,
                        silent_ms: silent_ns / 1_000_000,
                    }
                }
                LivenessTransition::Cleared { peer } => {
                    TelemetryEvent::PeerCleared { peer: peer as u32 }
                }
                LivenessTransition::Failed { peer, silent_ns } => TelemetryEvent::PeerFailed {
                    peer: peer as u32,
                    silent_ms: silent_ns / 1_000_000,
                },
            };
            self.recorder.record(event);
        }
    }

    /// Samples each dataflow's frontier (active pointstamps + minimum
    /// open input epoch) and records a [`TelemetryEvent::FrontierProbe`]
    /// whenever the sample changed since the last step. Per worker the
    /// sampled input epoch is monotone (§3.3: local views never move
    /// backwards).
    fn probe_frontiers(&mut self) {
        for runtime in &mut self.dataflows {
            let sample = {
                let core = runtime.core.borrow();
                let tracker = core.table();
                (
                    tracker.active_count() as u32,
                    tracker.input_frontier_epoch(),
                )
            };
            if runtime.last_probe != Some(sample) {
                runtime.last_probe = Some(sample);
                self.recorder.record(TelemetryEvent::FrontierProbe {
                    dataflow: runtime.id as u32,
                    active: sample.0,
                    input_epoch: sample.1,
                });
            }
        }
    }

    /// Steps until every installed dataflow completes.
    ///
    /// Completion requires all inputs to be closed (dropping an
    /// [`InputHandle`](crate::dataflow::InputHandle) closes it).
    pub fn step_until_done(&mut self) {
        let debug = std::env::var_os("NAIAD_DEBUG").is_some();
        while self.step() {
            self.idle_wait();
            if debug && self.steps.is_multiple_of(5_000) {
                eprint!("{}", self.state_dump());
            }
        }
    }

    /// Builds the structured state dump used for hang diagnosis
    /// (`NAIAD_DEBUG` prints it periodically; the stall watchdog attaches
    /// it to [`ExecuteError::Stalled`](super::execute::ExecuteError::Stalled)):
    /// one JSON line of tracker state per dataflow, followed by the tail
    /// of the worker's event log (the same JSON-lines encoding as
    /// [`TelemetrySnapshot::events_json_lines`](crate::telemetry::TelemetrySnapshot::events_json_lines)).
    fn state_dump(&self) -> String {
        use std::fmt::Write as _;
        let steps = self.steps;
        let mut out = String::new();
        for df in &self.dataflows {
            let core = df.core.borrow();
            let tracker = core.table();
            let _ = write!(
                out,
                "{{\"w\":{},\"ev\":\"state\",\"step\":{steps},\"df\":{},\"complete\":{},\"active\":{},\"journal\":{}",
                self.index,
                df.id,
                df.complete,
                tracker.active_count(),
                df.journal.borrow().len(),
            );
            match tracker.input_frontier_epoch() {
                Some(e) => {
                    let _ = write!(out, ",\"input_epoch\":{e}");
                }
                None => out.push_str(",\"input_epoch\":null"),
            }
            let frontier = tracker.frontier();
            let _ = write!(out, ",\"frontier_len\":{}", frontier.len());
            if let Some(p) = frontier.first() {
                let _ = write!(out, ",\"frontier_min\":\"{p:?}\"");
            }
            // What waits on the frontier: the pending requests.
            let requests = df.requests.borrow();
            let pending = requests.pending();
            let least = pending.first().map(|(p, _)| format!("\"{p:?}\""));
            let _ = write!(
                out,
                ",\"notifications\":{},\"notification_min\":{}",
                pending.len(),
                least.as_deref().unwrap_or("null"),
            );
            out.push_str("}\n");
        }
        // Remote data that reached this worker and has gone no further: read
        // by no puller (`due`), or held back by the fabric's latency model,
        // as of the last drain (`step`, `idle_wait`); the dump moves nothing.
        let (due, not_yet_due) = self.mailbox.borrow().backlog();
        let _ = writeln!(
            out,
            "{{\"w\":{},\"ev\":\"mailbox\",\"due\":{due},\"not_yet_due\":{not_yet_due}}}",
            self.index
        );
        if let Some(flow) = &self.bringup.flow {
            let status = if self.backpressured() {
                "backpressured"
            } else {
                "idle"
            };
            let overload = self
                .overload
                .as_ref()
                .map_or("normal", |flag| flag.get().name());
            let _ = write!(
                out,
                "{{\"w\":{},\"ev\":\"flow\",\"status\":\"{status}\",\"overload\":\"{overload}\",\
                 \"in_flight_bytes\":{},\"peak_in_flight_bytes\":{},\"parked\":{},\
                 \"credit_waits\":{},\"overdrafts\":{},\"shed_records\":{}}}",
                self.index,
                flow.in_flight_bytes(),
                flow.peak_in_flight_bytes(),
                flow.parked_senders(),
                flow.credit_waits(),
                flow.overdrafts(),
                flow.shed_records(),
            );
            out.push('\n');
            // Per-cell ledgers, via try_lock end to end: the dump runs
            // from the watchdog while senders may be parked mid-protocol
            // on these very mutexes, and a diagnostic must never deadlock
            // on the state it is reporting (tests/liveness.rs pins this).
            let _ = write!(
                out,
                "{{\"w\":{},\"ev\":\"flow_cells\",\"cells\":{}}}",
                self.index,
                flow.dump_cells(),
            );
            out.push('\n');
        }
        for record in self.recorder.recent(16) {
            out.push_str(&record.to_json(self.index));
            out.push('\n');
        }
        out
    }

    /// Whether the cluster is visibly backpressured right now: a sender
    /// is parked on a credit wait, or credits have been returned since
    /// the last watchdog check.
    fn backpressured(&self) -> bool {
        self.bringup.flow.as_ref().is_some_and(|flow| {
            flow.parked_senders() > 0 || flow.returns() != self.last_flow_returns
        })
    }

    /// Steps while `condition` holds and work remains.
    pub fn step_while(&mut self, mut condition: impl FnMut() -> bool) {
        while condition() && self.step() {
            self.idle_wait();
        }
    }

    /// Blocks on the mailbox for at most one [`IDLE_TICK`], so idle
    /// workers neither spin nor miss a frame; a worker with frames in its
    /// mailbox does not park at all.
    /// Consecutive fruitless waits while pointstamps are outstanding feed
    /// the stall watchdog.
    pub(crate) fn idle_wait(&mut self) {
        if self.last_step_worked {
            self.stall_since = None;
            return;
        }
        let mut inbound = std::mem::take(&mut self.inbound);
        let frames = {
            let mut mailbox = self.mailbox.borrow_mut();
            match mailbox.drain(&self.recorder, &mut inbound) {
                0 => mailbox.wait(IDLE_TICK, &self.recorder, &mut inbound),
                frames => frames,
            }
        };
        self.apply_inbound(inbound);
        if frames > 0 {
            self.stall_since = None;
        } else {
            self.check_stall();
        }
    }

    /// The stall watchdog (§3.3's progress invariant, operationalized):
    /// if pointstamps are outstanding but nothing — no vertex work, no
    /// progress traffic — has happened for
    /// [`Config::stall_timeout`], the computation can never complete on
    /// its own. Rather than hang, declare a global stall: capture the
    /// structured state dump, park it on the escalation cell, and unwind
    /// every worker into
    /// [`ExecuteError::Stalled`](super::execute::ExecuteError::Stalled).
    fn check_stall(&mut self) {
        let Some(timeout) = self.bringup.config.stall_timeout else {
            return;
        };
        // Only armed while a dataflow is incomplete: an idle worker whose
        // dataflows all finished is just waiting for the closure to move
        // on, not stuck.
        if self.dataflows.iter().all(|df| df.complete) {
            self.stall_since = None;
            return;
        }
        let since = *self.stall_since.get_or_insert_with(Instant::now);
        if since.elapsed() < timeout {
            return;
        }
        // Backpressure is not a stall. While credits are being returned
        // anywhere in the cluster, or a sender is parked on a (bounded)
        // credit wait, the computation is still moving — the frontier
        // just cannot show it yet because the parked sender's journal has
        // not flushed. Extend the clock and report `backpressured` in the
        // state dump instead of unwinding into `ExecuteError::Stalled`.
        // A real wedge drains through here: parked waits are bounded by
        // `FlowConfig::credit_wait`, so a dead cluster stops returning
        // credits within one wait and the next timeout window fires.
        if self.backpressured() {
            if let Some(flow) = &self.bringup.flow {
                self.last_flow_returns = flow.returns();
            }
            self.stall_since = Some(Instant::now());
            return;
        }
        let active: u32 = self
            .dataflows
            .iter()
            .map(|df| df.core.borrow().table().active_count() as u32)
            .sum();
        let idle_ms = since.elapsed().as_millis() as u64;
        self.recorder
            .record(TelemetryEvent::Stalled { idle_ms, active });
        let dump = self.state_dump();
        let first = self
            .bringup
            .escalation
            .raise_with_detail(FaultKind::Stalled { worker: self.index }, dump);
        std::panic::panic_any(FaultPanic(first));
    }

    // lint-allow(NS0004): `df` is the worker's own loop index over
    // `0..self.dataflows.len()`; splitting `self` borrows field-by-field
    // forces repeated indexing here, and the bound cannot move mid-step.
    fn step_dataflow(&mut self, df: usize) {
        if self.dataflows[df].complete {
            return;
        }
        // Pump vertices until locally quiet (bounded to stay responsive to
        // progress traffic).
        let telemetry = self.recorder.enabled();
        let dataflow = self.dataflows[df].id as u32;
        // Attribute this round's slices to the oldest open epoch in the
        // dataflow's tracker (monotone per worker, §3.3); once every
        // pointstamp has drained, fall back to the last seen epoch.
        let epoch = if telemetry {
            let min = self.dataflows[df].core.borrow().table().min_epoch();
            match min {
                Some(e) => {
                    self.dataflows[df].last_epoch = e;
                    e
                }
                None => self.dataflows[df].last_epoch,
            }
        } else {
            0
        };
        for _round in 0..8 {
            let mut worked = false;
            for op in &mut self.dataflows[df].ops {
                if telemetry {
                    let stage = op.stage().0 as u32;
                    let seq = self.schedule_seq;
                    self.schedule_seq += 1;
                    let start = Instant::now();
                    let w = op.pump();
                    self.recorder.record(TelemetryEvent::ScheduleStop {
                        dataflow,
                        stage,
                        nanos: start.elapsed().as_nanos() as u64,
                        worked: w,
                        epoch,
                        seq,
                    });
                    worked |= w;
                } else {
                    worked |= op.pump();
                }
            }
            self.last_step_worked |= worked;
            if !worked {
                break;
            }
        }
        self.deliver_notifications(df);
        self.flush_progress(df);
        self.check_complete(df);
    }

    /// Delivers the dataflow's ready requests to the vertices of their
    /// stages, in the set's order; a blocking one retires after its
    /// `OnNotify` completes (§2.3).
    fn deliver_notifications(&mut self, df: usize) {
        let Some(runtime) = self.dataflows.get_mut(df) else {
            return;
        };
        let due = runtime.requests.borrow_mut().drain_due(&runtime.core);
        for (p, purge) in due {
            let vertex_of = |op: &&mut Vertex| p.location == Location::Vertex(op.stage());
            let Some(op) = runtime.ops.iter_mut().find(vertex_of) else {
                continue;
            };
            op.deliver(p.time);
            if !purge {
                journal_update(&runtime.journal, p, -1);
            }
            if self.recorder.enabled() {
                self.recorder.record(TelemetryEvent::NotificationDelivered {
                    dataflow: runtime.id as u32,
                    stage: op.stage().0 as u32,
                    epoch: p.time.epoch,
                    blocking: !purge,
                });
            }
        }
    }

    /// Hands this step's journal to the protocol, along the worker's hop
    /// of the progress mode's topology (§3.3). Local views are fed
    /// exclusively by the protocol: this worker's own updates come back
    /// through its mailbox like everyone else's, put there by whichever
    /// thread flushed them ([`Process::send_progress`]).
    // lint-allow(NS0004): `df` is the worker's own loop index over
    // `0..self.dataflows.len()`.
    fn flush_progress(&mut self, df: usize) {
        let updates: Vec<ProgressUpdate> =
            std::mem::take(&mut *self.dataflows[df].journal.borrow_mut());
        if updates.is_empty() {
            return;
        }
        let dataflow = self.dataflows[df].id;
        let hop = self.bringup.config.progress_mode.hop(Role::Worker);
        if hop == Hop::OwnAccumulator {
            self.recorder.record(TelemetryEvent::ProgressDeposited {
                dataflow: dataflow as u32,
                updates: updates.len() as u32,
            });
            self.process.deposit(&self.bringup, dataflow, updates);
            return;
        }
        let batches = self.dataflows[df].core.borrow_mut().emit_for(hop, updates);
        for batch in batches {
            self.recorder.record(TelemetryEvent::ProgressBatchSent {
                dataflow: batch.dataflow,
                seq: batch.seq,
                updates: batch.updates.len() as u32,
            });
            let bytes: Bytes = encode_to_vec(&batch).into();
            // Escalates a fault the links' retry budget cannot mask.
            if let Err(err) = self.process.send_progress(&self.bringup, hop, &bytes) {
                let kind = FaultKind::from_send_error(err);
                self.recorder.record(TelemetryEvent::FaultEscalated { kind });
                escalate(&self.bringup.escalation, kind);
            }
        }
    }

    /// Drains the mailbox: remote data frames into their channels' queues,
    /// and every progress batch applied to the relevant tracker.
    fn drain_mailbox(&mut self) {
        let mut inbound = std::mem::take(&mut self.inbound);
        self.mailbox
            .borrow_mut()
            .drain(&self.recorder, &mut inbound);
        self.apply_inbound(inbound);
    }

    /// Applies the progress batches of a mailbox drain, in arrival order,
    /// and keeps the emptied buffer.
    fn apply_inbound(&mut self, mut inbound: Vec<ProgressFrame>) {
        if !inbound.is_empty() {
            self.last_step_worked = true;
        }
        for (src, bytes) in inbound.drain(..) {
            self.apply_progress(src, &bytes);
        }
        self.inbound = inbound;
    }

    /// Applies one progress batch from fabric endpoint `src`. A batch from
    /// another endpoint is first handed to this process's accumulator, if
    /// it has one (§3.3: an accumulator's view must have observed every
    /// batch any of its workers has applied, or it could hold an update
    /// that the workers' views no longer cover). The accumulator observes
    /// the first hand-off of each batch and ignores the rest.
    fn apply_progress(&mut self, src: usize, bytes: &Bytes) {
        let batch: ProgressBatch = naiad_wire::decode_from_slice(bytes).unwrap_or_else(|e| {
            panic!(
                "worker {}: undecodable progress batch ({} bytes) — wire corruption \
                 or a sender running a different protocol version: {e:?}",
                self.index,
                bytes.len()
            )
        });
        if src != self.process.index {
            self.process.observe(&self.bringup, &batch);
        }
        // A batch can arrive for a dataflow this worker has not built yet
        // (peers construct concurrently): its core stashes it for
        // construction rather than dropping counts on the floor.
        let dataflow = batch.dataflow as usize;
        let built = self.dataflows.iter().find(|d| d.id == dataflow);
        let core = match built {
            Some(runtime) => &runtime.core,
            None => self
                .early
                .entry(dataflow)
                .or_insert_with(|| new_core(dataflow, self.index)),
        };
        // FIFO per sender (the fabric guarantees it; broken FIFO would
        // silently corrupt frontiers, so fail loudly).
        if let Err(violation) = core.borrow_mut().apply(&batch) {
            panic!("worker {}: {}", self.index, violation);
        }
        if let Some(runtime) = built {
            runtime.requests.borrow_mut().dirty = true;
            self.record_applied(&batch);
        }
    }

    fn record_applied(&self, batch: &ProgressBatch) {
        if self.recorder.enabled() {
            self.recorder.record(TelemetryEvent::ProgressApplied {
                dataflow: batch.dataflow,
                sender: batch.sender,
                seq: batch.seq,
                updates: batch.updates.len() as u32,
                net: batch.updates.iter().map(|(_, d)| *d).sum(),
            });
        }
    }

    fn check_complete(&mut self, df: usize) {
        let Some(runtime) = self.dataflows.get_mut(df) else {
            return;
        };
        if runtime.complete {
            return;
        }
        let tracker_empty = runtime.core.borrow().table().is_empty();
        let journal_empty = runtime.journal.borrow().is_empty();
        // The tracker starts with the a-priori input pointstamps, and
        // queued batches and pending blocking notifications all hold
        // occurrence counts, so "empty" subsumes every form of outstanding
        // work; see the progress module docs for why FIFO +
        // consequence-before-retirement ordering makes this sound.
        if tracker_empty && journal_empty {
            runtime.complete = true;
        }
    }
}

#[cfg(test)]
mod tests {
    // Worker behaviour is exercised end-to-end in the runtime integration
    // tests (`runtime::execute` and the crate-level tests); unit tests here
    // would need the full fabric anyway.
}
