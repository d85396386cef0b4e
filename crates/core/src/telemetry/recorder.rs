//! The per-worker event recorder.
//!
//! Each worker owns one [`Recorder`]; pushers and pullers hold clones
//! (they live on the worker's thread, so the handle is an `Rc`). When
//! telemetry is disabled the handle is empty: no buffer is allocated and
//! every call is a single `Option` branch — the near-zero-cost-off
//! property the benchmarks depend on.
//!
//! The buffer keeps the *first* `capacity` events of a run (a prefix).
//! Beside it the recorder keeps a ring of the newest 16 events, for the
//! stall dump, and *aggregate counters* (per worker and per
//! operator) that every record call updates, so the registry's totals
//! stay exact no matter how long the run.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use crate::graph::StageId;
use crate::introspect::Fold;

use super::event::{EventRecord, TelemetryEvent};

/// Worker-level scheduler counters, maintained even when the event
/// buffer is full.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerCounters {
    /// Scheduling rounds ([`Worker::step`](crate::runtime::Worker::step)).
    pub steps: u64,
    /// Operator scheduling slices run.
    pub schedules: u64,
    /// Nanoseconds spent inside operator slices.
    pub busy_nanos: u64,
    /// Notifications delivered (blocking + purge).
    pub notifications: u64,
    /// Data batches emitted by this worker's pushers.
    pub messages_sent: u64,
    /// Records emitted by this worker's pushers.
    pub records_sent: u64,
    /// Data batches pulled by this worker's vertices.
    pub messages_received: u64,
    /// Records pulled by this worker's vertices.
    pub records_received: u64,
    /// Data frames from other processes drained from this worker's fabric
    /// mailbox (one per remote `MessageSent` addressed to it).
    pub remote_frames: u64,
    /// Progress batches drained from the same mailbox (one per progress
    /// message the fabric metered into this worker's process).
    pub progress_frames: u64,
    /// High-water mark of the mailbox's depth at a poll: frames waiting to
    /// be drained plus frames a latency model was still holding back.
    pub mailbox_depth: u64,
    /// Progress batches this worker put on the wire.
    pub progress_batches_sent: u64,
    /// Progress updates inside those batches.
    pub progress_updates_sent: u64,
    /// Progress updates deposited into a process-local accumulator.
    pub progress_updates_deposited: u64,
    /// Progress batches applied to this worker's trackers.
    pub progress_batches_applied: u64,
    /// Progress updates inside those batches.
    pub progress_updates_applied: u64,
    /// Net occurrence-count delta applied via the protocol (Σ `net`).
    pub net_delta_applied: i64,
    /// Frontier-probe samples recorded.
    pub frontier_samples: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Checkpoints restored.
    pub restores: u64,
    /// Faults escalated from this worker's thread.
    pub faults: u64,
    /// Peer-suspected transitions observed by this worker.
    pub suspicions: u64,
    /// Peer-failed declarations observed by this worker.
    pub peer_failures: u64,
    /// Global stalls declared by this worker's watchdog.
    pub stalls: u64,
    /// Elastic rescales this worker participated in (started).
    pub rescales: u64,
    /// Migration shards absorbed into this worker's keyed state.
    pub partitions_migrated: u64,
    /// Bytes of keyed state absorbed across those shards.
    pub migrated_bytes: u64,
    /// Times a pusher on this worker parked waiting for credit.
    pub credit_waits: u64,
    /// Cumulative nanoseconds those pushers spent parked.
    pub credit_wait_nanos: u64,
    /// Overload-state transitions on this worker.
    pub overload_transitions: u64,
    /// Data batches dropped by the shedding policy.
    pub batches_shed: u64,
    /// Records inside those dropped batches.
    pub records_shed: u64,
    /// Static-analyzer reports recorded (one per built dataflow).
    pub analysis_reports: u64,
    /// Warning-severity analyzer diagnostics across those reports.
    pub analysis_warnings: u64,
}

/// Per-operator (dataflow, stage) aggregates: scheduling, and the data
/// batches the operator sent and received.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// Scheduling slices run.
    pub schedules: u64,
    /// Slices that processed at least one batch.
    pub worked: u64,
    /// Cumulative nanoseconds inside the operator.
    pub busy_nanos: u64,
    /// Notifications delivered to the operator.
    pub notifications: u64,
    /// Batches the operator emitted on its outgoing connectors.
    pub messages_out: u64,
    /// Records emitted.
    pub records_out: u64,
    /// Serialized bytes emitted (remote routes only).
    pub bytes_out: u64,
    /// Batches the operator pulled from its incoming connectors.
    pub messages_in: u64,
    /// Records received.
    pub records_in: u64,
}

/// The names of one dataflow's operators, captured at construction so the
/// registry can label per-operator rows.
#[derive(Debug, Clone)]
pub struct DataflowDirectory {
    /// The dataflow id.
    pub dataflow: u32,
    /// `(stage, name)` for every vertex this worker instantiated, in
    /// stage order.
    pub operators: Vec<(u32, String)>,
}

/// How many of the newest events [`Recorder::recent`] can return.
const RECENT: usize = 16;

/// Everything harvested from one worker after its closure returns.
#[derive(Debug, Clone)]
pub struct WorkerTelemetry {
    /// The worker's global index.
    pub worker: usize,
    /// The first recorded events, in order: a prefix of the run, as long
    /// as the buffer's capacity.
    pub events: Vec<EventRecord>,
    /// Events recorded after the buffer filled, counted but not kept.
    pub dropped: u64,
    /// Worker-level counters.
    pub counters: WorkerCounters,
    /// Per-operator aggregates, keyed by `(dataflow, stage)`.
    pub ops: Vec<((u32, u32), OpCounters)>,
    /// Operator names of every dataflow the worker built.
    pub directory: Vec<DataflowDirectory>,
}

struct EventLog {
    base: Instant,
    events: Vec<EventRecord>,
    capacity: usize,
    /// A ring of the newest `RECENT` records.
    recent: Vec<EventRecord>,
    /// The ring slot the next record takes: the oldest's once it is full.
    recent_next: usize,
    dropped: u64,
    warned: bool,
    worker: usize,
    counters: WorkerCounters,
    ops: HashMap<(u32, u32), OpCounters>,
    directory: Vec<DataflowDirectory>,
    /// The introspection fold ([`crate::introspect`]), fed every event
    /// as it is recorded, whether or not the buffer has room for it.
    tap: Option<Fold>,
}

impl EventLog {
    fn new(capacity: usize) -> Self {
        EventLog {
            base: Instant::now(),
            events: Vec::with_capacity(capacity),
            capacity,
            recent: Vec::with_capacity(RECENT),
            recent_next: 0,
            dropped: 0,
            warned: false,
            worker: usize::MAX,
            counters: WorkerCounters::default(),
            ops: HashMap::new(),
            directory: Vec::new(),
            tap: None,
        }
    }

    fn record(&mut self, event: TelemetryEvent) {
        self.count(&event);
        let record = EventRecord {
            nanos: self.base.elapsed().as_nanos() as u64,
            event,
        };
        if let Some(fold) = &mut self.tap {
            fold.push(&record);
        }
        match self.recent.get_mut(self.recent_next) {
            Some(slot) => *slot = record,
            None => self.recent.push(record),
        }
        self.recent_next = (self.recent_next + 1) % RECENT;
        if self.events.len() < self.capacity {
            self.events.push(record);
        } else {
            self.dropped += 1;
            if !self.warned {
                self.warned = true;
                let worker = self.worker;
                let capacity = self.capacity;
                eprintln!(
                    "naiad: telemetry buffer full (worker {worker}, capacity {capacity}); \
                     further events are counted but not recorded"
                );
            }
        }
    }

    fn count(&mut self, event: &TelemetryEvent) {
        let c = &mut self.counters;
        match *event {
            TelemetryEvent::ScheduleStop {
                dataflow,
                stage,
                nanos,
                worked,
                ..
            } => {
                c.schedules += 1;
                c.busy_nanos += nanos;
                let op = self.ops.entry((dataflow, stage)).or_default();
                op.schedules += 1;
                op.busy_nanos += nanos;
                op.worked += u64::from(worked);
            }
            TelemetryEvent::MessageSent {
                dataflow,
                stage,
                records,
                bytes,
                ..
            } => {
                c.messages_sent += 1;
                c.records_sent += u64::from(records);
                let op = self.ops.entry((dataflow, stage)).or_default();
                op.messages_out += 1;
                op.records_out += u64::from(records);
                op.bytes_out += u64::from(bytes);
            }
            TelemetryEvent::MessageReceived {
                dataflow,
                stage,
                records,
                ..
            } => {
                c.messages_received += 1;
                c.records_received += u64::from(records);
                let op = self.ops.entry((dataflow, stage)).or_default();
                op.messages_in += 1;
                op.records_in += u64::from(records);
            }
            TelemetryEvent::ProgressBatchSent { updates, .. } => {
                c.progress_batches_sent += 1;
                c.progress_updates_sent += u64::from(updates);
            }
            TelemetryEvent::ProgressDeposited { updates, .. } => {
                c.progress_updates_deposited += u64::from(updates);
            }
            TelemetryEvent::ProgressApplied { updates, net, .. } => {
                c.progress_batches_applied += 1;
                c.progress_updates_applied += u64::from(updates);
                c.net_delta_applied += net;
            }
            TelemetryEvent::NotificationDelivered {
                dataflow, stage, ..
            } => {
                c.notifications += 1;
                self.ops.entry((dataflow, stage)).or_default().notifications += 1;
            }
            TelemetryEvent::FrontierProbe { .. } => c.frontier_samples += 1,
            TelemetryEvent::CheckpointTaken { .. } => c.checkpoints += 1,
            TelemetryEvent::CheckpointRestored { .. } => c.restores += 1,
            TelemetryEvent::FaultEscalated { .. } => c.faults += 1,
            TelemetryEvent::PeerSuspected { .. } => c.suspicions += 1,
            TelemetryEvent::PeerCleared { .. } => {}
            TelemetryEvent::PeerFailed { .. } => c.peer_failures += 1,
            TelemetryEvent::Stalled { .. } => c.stalls += 1,
            TelemetryEvent::RescaleStarted { .. } => c.rescales += 1,
            TelemetryEvent::PartitionMigrated { bytes, .. } => {
                c.partitions_migrated += 1;
                c.migrated_bytes += bytes;
            }
            TelemetryEvent::RescaleCompleted { .. } => {}
            TelemetryEvent::CreditWait { waited_ns, .. } => {
                c.credit_waits += 1;
                c.credit_wait_nanos += waited_ns;
            }
            TelemetryEvent::OverloadTransition { .. } => c.overload_transitions += 1,
            TelemetryEvent::MessagesShed { records, .. } => {
                c.batches_shed += 1;
                c.records_shed += u64::from(records);
            }
            TelemetryEvent::AnalysisReport { warnings, .. } => {
                c.analysis_reports += 1;
                c.analysis_warnings += u64::from(warnings);
            }
        }
    }
}

/// A cheap, cloneable handle to a worker's event log. Empty (all calls
/// no-ops) when telemetry is disabled.
#[derive(Clone)]
pub struct Recorder {
    inner: Option<Rc<RefCell<EventLog>>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Recorder {
    /// A disabled recorder: allocates nothing, records nothing.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// An enabled recorder with an event buffer of `capacity` records.
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            inner: Some(Rc::new(RefCell::new(EventLog::new(capacity)))),
        }
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event (no-op when disabled).
    #[inline]
    pub fn record(&self, event: TelemetryEvent) {
        if let Some(log) = &self.inner {
            log.borrow_mut().record(event);
        }
    }

    /// Labels the recorder with its worker's global index (used by the
    /// warn-once drop message).
    pub(crate) fn set_worker(&self, worker: usize) {
        if let Some(log) = &self.inner {
            log.borrow_mut().worker = worker;
        }
    }

    /// Installs an introspection tap: `fold` sees every event recorded
    /// from now on. At most one tap is active; a second install replaces
    /// the first.
    pub(crate) fn install_tap(&self, fold: Fold) {
        if let Some(log) = &self.inner {
            log.borrow_mut().tap = Some(fold);
        }
    }

    /// Removes the introspection tap and hands back what it folded.
    pub(crate) fn take_tap(&self) -> Option<Fold> {
        self.inner.as_ref()?.borrow_mut().tap.take()
    }

    /// Counts one scheduling round.
    #[inline]
    pub fn record_step(&self) {
        if let Some(log) = &self.inner {
            log.borrow_mut().counters.steps += 1;
        }
    }

    /// Counts `data` data frames and `progress` progress batches drained
    /// from the worker's fabric mailbox, which held `depth` when polled.
    #[inline]
    pub(crate) fn record_mailbox(&self, data: usize, progress: usize, depth: usize) {
        if let Some(log) = &self.inner {
            let counters = &mut log.borrow_mut().counters;
            counters.remote_frames += data as u64;
            counters.progress_frames += progress as u64;
            counters.mailbox_depth = counters.mailbox_depth.max(depth as u64);
        }
    }

    /// Registers this worker's vertex names for a dataflow, so the
    /// registry can label per-operator rows.
    pub fn register_dataflow(&self, dataflow: usize, operators: Vec<(StageId, String)>) {
        let Some(log) = &self.inner else { return };
        log.borrow_mut().directory.push(DataflowDirectory {
            dataflow: dataflow as u32,
            operators: operators
                .into_iter()
                .map(|(s, n)| (s.0 as u32, n))
                .collect(),
        });
    }

    /// The newest `n` recorded events, oldest first, at most 16 of them:
    /// the tail of the run even after the buffer filled (diagnostic
    /// surface for the `NAIAD_DEBUG` structured dump).
    pub fn recent(&self, n: usize) -> Vec<EventRecord> {
        let Some(log) = &self.inner else {
            return Vec::new();
        };
        let log = log.borrow();
        let (newer, older) = log.recent.split_at(log.recent_next.min(log.recent.len()));
        let ring = older.iter().chain(newer);
        ring.skip(log.recent.len().saturating_sub(n))
            .copied()
            .collect()
    }

    /// Drains the log into a [`WorkerTelemetry`] for the registry.
    /// Returns `None` when disabled. The recorder stays usable (further
    /// events land in the emptied buffer).
    pub fn harvest(&self, worker: usize) -> Option<WorkerTelemetry> {
        let log = self.inner.as_ref()?;
        let mut log = log.borrow_mut();
        let mut ops: Vec<_> = log.ops.drain().collect();
        ops.sort_by_key(|(k, _)| *k);
        log.recent.clear();
        log.recent_next = 0;
        Some(WorkerTelemetry {
            worker,
            events: std::mem::take(&mut log.events),
            dropped: std::mem::take(&mut log.dropped),
            counters: std::mem::take(&mut log.counters),
            ops,
            directory: std::mem::take(&mut log.directory),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_allocates_and_records_nothing() {
        let r = Recorder::disabled();
        assert!(!r.enabled());
        r.record(TelemetryEvent::ScheduleStop {
            dataflow: 0,
            stage: 0,
            nanos: 0,
            worked: false,
            epoch: 0,
            seq: 0,
        });
        r.record_step();
        assert!(r.recent(10).is_empty());
        assert!(r.harvest(0).is_none());
    }

    #[test]
    fn counters_survive_a_full_buffer() {
        let r = Recorder::with_capacity(2);
        for i in 0..5u64 {
            r.record(TelemetryEvent::ScheduleStop {
                dataflow: 0,
                stage: 1,
                nanos: i,
                worked: i % 2 == 0,
                epoch: 0,
                seq: i,
            });
        }
        let t = r.harvest(3).unwrap();
        assert_eq!(t.worker, 3);
        assert_eq!(t.events.len(), 2, "buffer capped at capacity");
        assert_eq!(t.dropped, 3);
        assert_eq!(t.counters.schedules, 5, "aggregates keep counting");
        assert_eq!(t.counters.busy_nanos, 1 + 2 + 3 + 4);
        let (&key, op) = t
            .ops
            .iter()
            .map(|(k, v)| (k, v))
            .next()
            .expect("one operator");
        assert_eq!(key, (0, 1));
        assert_eq!(op.schedules, 5);
        assert_eq!(op.worked, 3);
    }

    #[test]
    fn message_counters_credit_the_sending_and_receiving_stages() {
        let r = Recorder::with_capacity(16);
        r.record(TelemetryEvent::MessageSent {
            dataflow: 0,
            connector: 2,
            stage: 1,
            target: 1,
            records: 10,
            bytes: 80,
            remote: true,
        });
        r.record(TelemetryEvent::MessageReceived {
            dataflow: 0,
            connector: 2,
            stage: 3,
            records: 4,
            remote: false,
        });
        let t = r.harvest(0).unwrap();
        assert_eq!(t.counters.records_sent, 10);
        assert_eq!(t.counters.records_received, 4);
        let [((0, 1), sender), ((0, 3), receiver)] = t.ops[..] else {
            panic!("one row per stage: {:?}", t.ops);
        };
        assert_eq!(
            (sender.messages_out, sender.records_out, sender.bytes_out),
            (1, 10, 80)
        );
        assert_eq!((sender.messages_in, sender.records_in), (0, 0));
        assert_eq!((receiver.messages_in, receiver.records_in), (1, 4));
        assert_eq!(receiver.messages_out, 0);
    }

    #[test]
    fn recent_returns_the_newest_events_past_a_full_buffer() {
        let r = Recorder::with_capacity(4);
        let record = |seqs: std::ops::Range<u64>| {
            for seq in seqs {
                r.record(TelemetryEvent::ProgressBatchSent {
                    dataflow: 0,
                    seq,
                    updates: 1,
                });
            }
        };
        let seqs = |records: Vec<EventRecord>| -> Vec<u64> {
            records
                .iter()
                .map(|r| match r.event {
                    TelemetryEvent::ProgressBatchSent { seq, .. } => seq,
                    _ => unreachable!(),
                })
                .collect()
        };
        record(0..10);
        assert_eq!(seqs(r.recent(3)), vec![7, 8, 9]);
        // Past the ring's 16 slots it keeps the newest 16.
        record(10..20);
        assert_eq!(seqs(r.recent(3)), vec![17, 18, 19]);
        assert_eq!(seqs(r.recent(100)), (4..20).collect::<Vec<_>>());
        let t = r.harvest(0).unwrap();
        assert_eq!(seqs(t.events), vec![0, 1, 2, 3], "the log keeps a prefix");
        assert_eq!(t.counters.progress_batches_sent, 20);
        assert!(r.recent(4).is_empty(), "harvest drains the ring");
    }

    #[test]
    fn flow_counters_accumulate_waits_and_sheds() {
        let r = Recorder::with_capacity(16);
        r.record(TelemetryEvent::CreditWait {
            dataflow: 0,
            connector: 1,
            waited_ns: 500,
            bytes: 64,
        });
        r.record(TelemetryEvent::CreditWait {
            dataflow: 0,
            connector: 1,
            waited_ns: 700,
            bytes: 64,
        });
        r.record(TelemetryEvent::OverloadTransition { from: 0, to: 1 });
        r.record(TelemetryEvent::MessagesShed {
            dataflow: 0,
            connector: 1,
            records: 8,
            bytes: 64,
        });
        let t = r.harvest(0).unwrap();
        assert_eq!(t.counters.credit_waits, 2);
        assert_eq!(t.counters.credit_wait_nanos, 1200);
        assert_eq!(t.counters.overload_transitions, 1);
        assert_eq!(t.counters.batches_shed, 1);
        assert_eq!(t.counters.records_shed, 8);
    }

    #[test]
    fn tap_folds_every_attributable_event_even_past_a_full_buffer() {
        let r = Recorder::with_capacity(2);
        r.install_tap(Fold::new(0));
        // A frontier probe is not attributable; six worked slices are,
        // and four of them arrive after the buffer filled.
        r.record(TelemetryEvent::FrontierProbe {
            dataflow: 0,
            active: 0,
            input_epoch: None,
        });
        for seq in 0..6u64 {
            r.record(TelemetryEvent::ScheduleStop {
                dataflow: 0,
                stage: 0,
                nanos: 1,
                worked: true,
                epoch: seq % 2,
                seq,
            });
        }
        let mut epochs = std::collections::BTreeMap::new();
        r.take_tap()
            .expect("the tap was installed")
            .merge_into(&mut epochs);
        let samples: Vec<(u64, u64)> = epochs
            .iter()
            .map(|(epoch, acc)| (*epoch, acc.finish(*epoch).samples))
            .collect();
        assert_eq!(samples, vec![(0, 3), (1, 3)]);
        assert!(r.take_tap().is_none(), "taking the tap removes it");
        // The buffer kept its prefix and counted the rest, tap or no tap.
        let t = r.harvest(0).unwrap();
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.dropped, 5);
    }
}
