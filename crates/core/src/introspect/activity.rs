//! The program-activity graph: telemetry events attributed to epochs.
//!
//! Following SnailTrail's model, every attributable telemetry event
//! becomes one [`ActivitySample`] — a span of worker activity (operator
//! scheduling, message transit, progress traffic, notification delivery)
//! tagged with the *source epoch* it served. [`EpochAccumulator`] folds
//! the samples of one epoch into a [`CriticalPathSummary`].
//!
//! `Fold` is the whole pipeline for one worker's event stream: the
//! event→sample mapping ([`AttributionState`]) into one accumulator per
//! epoch. The same code runs online (the recorder's tap, fed as events
//! are recorded) and offline ([`offline_reference`] over harvested
//! [`WorkerTelemetry`] logs) — the golden test's equality is by
//! construction, not by coincidence.
//!
//! All arithmetic is integer-only so summaries are bit-identical across
//! runs, platforms, and the online/offline split.

use std::collections::{BTreeMap, HashMap};

use crate::telemetry::{EventRecord, TelemetryEvent, WorkerTelemetry};

/// The kind of activity a sample attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivityKind {
    /// An operator scheduling slice that processed work (`worked == true`).
    Schedule,
    /// A data batch emitted on a connector.
    TransitOut,
    /// A data batch pulled by the receiving vertex.
    TransitIn,
    /// Progress-protocol traffic (batch sent, deposited, or applied).
    Progress,
    /// A notification delivered to an operator.
    Notify,
    /// A sender parked waiting for data-plane credit (backpressure).
    CreditWait,
}

/// One node of the program-activity graph: a span of attributable worker
/// activity, tagged with the source epoch it served.
///
/// The samples of one epoch, from every worker, fold into one summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivitySample {
    /// Global index of the worker the activity ran on.
    pub worker: u32,
    /// Source epoch the activity is attributed to.
    pub epoch: u64,
    /// What kind of activity this is.
    pub kind: ActivityKind,
    /// Start of the span, nanoseconds on the worker's own clock.
    pub start_ns: u64,
    /// Span duration (zero for instantaneous events like transit).
    pub duration_ns: u64,
    /// Records carried (batch records, progress updates), if any.
    pub records: u32,
    /// Serialized bytes carried, if any.
    pub bytes: u32,
    /// Stage or connector the activity belongs to.
    pub stage: u32,
    /// Originating sequence number (schedule slice or progress batch).
    pub seq: u64,
}

/// Incremental event→sample attribution for one worker's event stream.
///
/// Fed event records in log order; returns the sample each attributable
/// event maps to. Non-attributable events (frontier probes, checkpoints,
/// faults, …) return `None` and leave the state
/// untouched.
///
/// Epoch attribution: `ScheduleStop` carries the tracker's minimum open
/// epoch, which becomes the running attribution epoch for subsequent
/// transit and progress events (they serve the oldest open work).
/// Notifications carry their own epoch.
#[derive(Debug)]
pub struct AttributionState {
    worker: u32,
    last_epoch: u64,
}

impl AttributionState {
    /// New state for the given worker, starting at epoch 0.
    pub fn new(worker: u32) -> Self {
        AttributionState {
            worker,
            last_epoch: 0,
        }
    }

    /// Attributes one event record; `None` for non-attributable events.
    pub fn push(&mut self, record: &EventRecord) -> Option<ActivitySample> {
        let worker = self.worker;
        match record.event {
            TelemetryEvent::ScheduleStop {
                stage,
                nanos,
                worked,
                epoch,
                seq,
                ..
            } => {
                self.last_epoch = epoch;
                worked.then(|| ActivitySample {
                    worker,
                    epoch,
                    kind: ActivityKind::Schedule,
                    start_ns: record.nanos.saturating_sub(nanos),
                    duration_ns: nanos,
                    records: 0,
                    bytes: 0,
                    stage,
                    seq,
                })
            }
            TelemetryEvent::MessageSent {
                connector,
                records,
                bytes,
                ..
            } => Some(ActivitySample {
                worker,
                epoch: self.last_epoch,
                kind: ActivityKind::TransitOut,
                start_ns: record.nanos,
                duration_ns: 0,
                records,
                bytes,
                stage: connector,
                seq: 0,
            }),
            TelemetryEvent::MessageReceived {
                connector, records, ..
            } => Some(ActivitySample {
                worker,
                epoch: self.last_epoch,
                kind: ActivityKind::TransitIn,
                start_ns: record.nanos,
                duration_ns: 0,
                records,
                bytes: 0,
                stage: connector,
                seq: 0,
            }),
            TelemetryEvent::ProgressBatchSent { seq, updates, .. } => Some(ActivitySample {
                worker,
                epoch: self.last_epoch,
                kind: ActivityKind::Progress,
                start_ns: record.nanos,
                duration_ns: 0,
                records: updates,
                bytes: 0,
                stage: 0,
                seq,
            }),
            TelemetryEvent::ProgressDeposited { updates, .. } => Some(ActivitySample {
                worker,
                epoch: self.last_epoch,
                kind: ActivityKind::Progress,
                start_ns: record.nanos,
                duration_ns: 0,
                records: updates,
                bytes: 0,
                stage: 0,
                seq: 0,
            }),
            TelemetryEvent::ProgressApplied { seq, updates, .. } => Some(ActivitySample {
                worker,
                epoch: self.last_epoch,
                kind: ActivityKind::Progress,
                start_ns: record.nanos,
                duration_ns: 0,
                records: updates,
                bytes: 0,
                stage: 0,
                seq,
            }),
            TelemetryEvent::NotificationDelivered { stage, epoch, .. } => Some(ActivitySample {
                worker,
                epoch,
                kind: ActivityKind::Notify,
                start_ns: record.nanos,
                duration_ns: 0,
                records: 0,
                bytes: 0,
                stage,
                seq: 0,
            }),
            TelemetryEvent::CreditWait {
                connector,
                waited_ns,
                bytes,
                ..
            } => Some(ActivitySample {
                worker,
                epoch: self.last_epoch,
                kind: ActivityKind::CreditWait,
                start_ns: record.nanos.saturating_sub(waited_ns),
                duration_ns: waited_ns,
                records: 0,
                bytes,
                stage: connector,
                seq: 0,
            }),
            _ => None,
        }
    }
}

/// Per-worker activity extent within one epoch.
#[derive(Debug, Clone, Copy)]
struct WorkerExtent {
    busy_ns: u64,
    first_ns: u64,
    last_ns: u64,
}

impl Default for WorkerExtent {
    fn default() -> Self {
        WorkerExtent {
            busy_ns: 0,
            first_ns: u64::MAX,
            last_ns: 0,
        }
    }
}

impl WorkerExtent {
    fn span_ns(&self) -> u64 {
        if self.first_ns == u64::MAX {
            0
        } else {
            self.last_ns.saturating_sub(self.first_ns)
        }
    }
}

/// Folds the [`ActivitySample`]s of one epoch into a
/// [`CriticalPathSummary`].
///
/// Accumulation is commutative (sums, minima, maxima, counts), so the
/// result is independent of sample order and of how the samples were
/// split between accumulators before [`EpochAccumulator::absorb`] joined
/// them — per-worker folds merged in any order match the offline
/// reference.
#[derive(Debug, Default)]
pub struct EpochAccumulator {
    per_worker: HashMap<u32, WorkerExtent>,
    transit_msgs: u64,
    transit_records: u64,
    transit_bytes: u64,
    progress_batches: u64,
    progress_updates: u64,
    notifications: u64,
    credit_waits: u64,
    credit_wait_ns: u64,
    samples: u64,
}

impl EpochAccumulator {
    /// Folds one sample in.
    pub fn push(&mut self, sample: &ActivitySample) {
        self.samples += 1;
        let extent = self.per_worker.entry(sample.worker).or_default();
        extent.first_ns = extent.first_ns.min(sample.start_ns);
        extent.last_ns = extent
            .last_ns
            .max(sample.start_ns.saturating_add(sample.duration_ns));
        match sample.kind {
            ActivityKind::Schedule => extent.busy_ns += sample.duration_ns,
            ActivityKind::TransitOut => {
                self.transit_msgs += 1;
                self.transit_records += u64::from(sample.records);
                self.transit_bytes += u64::from(sample.bytes);
            }
            ActivityKind::TransitIn => {}
            ActivityKind::Progress => {
                self.progress_batches += 1;
                self.progress_updates += u64::from(sample.records);
            }
            ActivityKind::Notify => self.notifications += 1,
            ActivityKind::CreditWait => {
                self.credit_waits += 1;
                self.credit_wait_ns += sample.duration_ns;
            }
        }
    }

    /// Folds in everything `other` accumulated, as if its samples had
    /// been pushed here: extents of the same worker widen and their busy
    /// times add (per-worker folds never share a worker, so there they
    /// are disjoint), and every counter sums.
    pub fn absorb(&mut self, other: EpochAccumulator) {
        for (worker, theirs) in other.per_worker {
            let extent = self.per_worker.entry(worker).or_default();
            extent.busy_ns += theirs.busy_ns;
            extent.first_ns = extent.first_ns.min(theirs.first_ns);
            extent.last_ns = extent.last_ns.max(theirs.last_ns);
        }
        self.transit_msgs += other.transit_msgs;
        self.transit_records += other.transit_records;
        self.transit_bytes += other.transit_bytes;
        self.progress_batches += other.progress_batches;
        self.progress_updates += other.progress_updates;
        self.notifications += other.notifications;
        self.credit_waits += other.credit_waits;
        self.credit_wait_ns += other.credit_wait_ns;
        self.samples += other.samples;
    }

    /// Closes the epoch and produces its summary.
    ///
    /// The critical worker is the one with the largest busy time (lowest
    /// index breaks ties, so the choice is deterministic); the critical
    /// path is that worker's activity span, and idle time is the epoch's
    /// overall span minus the critical worker's busy time — the
    /// wall-clock residual not spent on critical work (transit, progress
    /// traffic, notification wait). `busy_max_ns + idle_ns == span_ns`
    /// by construction: the summary fully accounts for the epoch.
    #[must_use]
    pub fn finish(&self, epoch: u64) -> CriticalPathSummary {
        let mut workers: Vec<(u32, WorkerExtent)> =
            self.per_worker.iter().map(|(w, e)| (*w, *e)).collect();
        workers.sort_by_key(|(w, _)| *w);

        let mut busy_total_ns = 0u64;
        let mut busy_max_ns = 0u64;
        let mut busy_min_ns = u64::MAX;
        let mut span_ns = 0u64;
        // Ascending worker order plus strict comparison: the lowest index
        // wins busy-time ties, deterministically.
        let mut critical: Option<(u32, WorkerExtent)> = None;
        for (worker, extent) in &workers {
            busy_total_ns += extent.busy_ns;
            busy_max_ns = busy_max_ns.max(extent.busy_ns);
            busy_min_ns = busy_min_ns.min(extent.busy_ns);
            span_ns = span_ns.max(extent.span_ns());
            if critical.is_none_or(|(_, c)| extent.busy_ns > c.busy_ns) {
                critical = Some((*worker, *extent));
            }
        }
        let (critical_worker, critical_extent) = critical.unwrap_or((0, WorkerExtent::default()));
        let critical_path_ns = critical_extent.span_ns();
        let worker_count = workers.len() as u64;
        if busy_min_ns == u64::MAX {
            busy_min_ns = 0;
        }
        let busy_mean_ns = busy_total_ns.checked_div(worker_count).unwrap_or(0);
        let skew_milli = busy_max_ns.saturating_mul(1000) / busy_mean_ns.max(1);

        CriticalPathSummary {
            epoch,
            workers: u32::try_from(worker_count).unwrap_or(u32::MAX),
            span_ns,
            critical_worker,
            critical_path_ns,
            busy_total_ns,
            busy_max_ns,
            busy_min_ns,
            idle_ns: span_ns.saturating_sub(critical_extent.busy_ns),
            skew_milli,
            transit_msgs: self.transit_msgs,
            transit_records: self.transit_records,
            transit_bytes: self.transit_bytes,
            progress_batches: self.progress_batches,
            progress_updates: self.progress_updates,
            notifications: self.notifications,
            credit_waits: self.credit_waits,
            credit_wait_ns: self.credit_wait_ns,
            samples: self.samples,
        }
    }
}

/// The per-epoch critical-path analysis result.
///
/// All fields are integers; the summary is a pure fold over the epoch's
/// [`ActivitySample`]s, so the online fold and the offline reference
/// produce bit-identical values from the same samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CriticalPathSummary {
    /// The source epoch summarized.
    pub epoch: u64,
    /// Distinct workers that contributed samples.
    pub workers: u32,
    /// Maximum per-worker activity span (first sample to last), in
    /// nanoseconds — the epoch's measured wall clock.
    pub span_ns: u64,
    /// The straggler: the worker with the largest busy time.
    pub critical_worker: u32,
    /// The critical worker's activity span.
    pub critical_path_ns: u64,
    /// Total busy (schedule) nanoseconds across workers.
    pub busy_total_ns: u64,
    /// Largest per-worker busy time.
    pub busy_max_ns: u64,
    /// Smallest per-worker busy time.
    pub busy_min_ns: u64,
    /// Epoch span minus the critical worker's busy time: the wall-clock
    /// residual not spent on critical work (transit, progress traffic,
    /// notification wait). `busy_max_ns + idle_ns == span_ns`.
    pub idle_ns: u64,
    /// Busy-time skew: `busy_max / busy_mean`, in thousandths. 1000
    /// means perfectly balanced; 2000 means the straggler did twice the
    /// mean work.
    pub skew_milli: u64,
    /// Data batches emitted during the epoch.
    pub transit_msgs: u64,
    /// Records in those batches.
    pub transit_records: u64,
    /// Serialized bytes in those batches (0 for intra-process batches).
    pub transit_bytes: u64,
    /// Progress-protocol batches (sent, deposited, and applied).
    pub progress_batches: u64,
    /// Progress updates in those batches.
    pub progress_updates: u64,
    /// Notifications delivered.
    pub notifications: u64,
    /// Times a sender parked waiting for data-plane credit.
    pub credit_waits: u64,
    /// Cumulative nanoseconds senders spent parked — the backpressure
    /// share of the epoch.
    pub credit_wait_ns: u64,
    /// Total samples folded in.
    pub samples: u64,
}

impl CriticalPathSummary {
    /// Encodes the summary as one JSON object (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{\"epoch\":{},\"workers\":{},\"span_ns\":{},\"critical_worker\":{},\
             \"critical_path_ns\":{},\"busy_total_ns\":{},\"busy_max_ns\":{},\
             \"busy_min_ns\":{},\"idle_ns\":{},\"skew_milli\":{},\"transit_msgs\":{},\
             \"transit_records\":{},\"transit_bytes\":{},\"progress_batches\":{},\
             \"progress_updates\":{},\"notifications\":{},\"credit_waits\":{},\
             \"credit_wait_ns\":{},\"samples\":{}}}",
            self.epoch,
            self.workers,
            self.span_ns,
            self.critical_worker,
            self.critical_path_ns,
            self.busy_total_ns,
            self.busy_max_ns,
            self.busy_min_ns,
            self.idle_ns,
            self.skew_milli,
            self.transit_msgs,
            self.transit_records,
            self.transit_bytes,
            self.progress_batches,
            self.progress_updates,
            self.notifications,
            self.credit_waits,
            self.credit_wait_ns,
            self.samples,
        );
        s
    }
}

/// One worker's event stream folded by epoch: each attributable event
/// becomes a sample ([`AttributionState`]) and lands in its epoch's
/// [`EpochAccumulator`].
#[derive(Debug)]
pub(crate) struct Fold {
    attribution: AttributionState,
    epochs: BTreeMap<u64, EpochAccumulator>,
}

impl Fold {
    /// An empty fold of worker `worker`'s events.
    pub(crate) fn new(worker: u32) -> Self {
        Fold {
            attribution: AttributionState::new(worker),
            epochs: BTreeMap::new(),
        }
    }

    /// Folds one event record in (non-attributable events change nothing).
    pub(crate) fn push(&mut self, record: &EventRecord) {
        if let Some(sample) = self.attribution.push(record) {
            self.epochs.entry(sample.epoch).or_default().push(&sample);
        }
    }

    /// Absorbs every epoch of this fold into `into`.
    pub(crate) fn merge_into(self, into: &mut BTreeMap<u64, EpochAccumulator>) {
        for (epoch, accumulator) in self.epochs {
            into.entry(epoch).or_default().absorb(accumulator);
        }
    }
}

/// Recomputes the per-epoch critical-path summaries from harvested event
/// logs — the offline reference the golden test checks the online fold
/// against.
///
/// Runs each worker's log through the same `Fold` the recorder's tap
/// feeds and merges the folds; summaries come back sorted by epoch.
#[must_use]
pub fn offline_reference(logs: &[WorkerTelemetry]) -> Vec<CriticalPathSummary> {
    let mut epochs: BTreeMap<u64, EpochAccumulator> = BTreeMap::new();
    for log in logs {
        let mut fold = Fold::new(u32::try_from(log.worker).unwrap_or(u32::MAX));
        for record in &log.events {
            fold.push(record);
        }
        fold.merge_into(&mut epochs);
    }
    epochs
        .iter()
        .map(|(epoch, acc)| acc.finish(*epoch))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(nanos: u64, event: TelemetryEvent) -> EventRecord {
        EventRecord { nanos, event }
    }

    #[test]
    fn attribution_maps_schedule_transit_and_notify() {
        let mut state = AttributionState::new(1);
        // An idle slice produces no sample but still tracks the epoch.
        assert!(state
            .push(&record(
                100,
                TelemetryEvent::ScheduleStop {
                    dataflow: 1,
                    stage: 2,
                    nanos: 50,
                    worked: false,
                    epoch: 3,
                    seq: 8,
                },
            ))
            .is_none());
        // A worked slice becomes a Schedule sample at the slice's epoch.
        let s = state
            .push(&record(
                200,
                TelemetryEvent::ScheduleStop {
                    dataflow: 1,
                    stage: 2,
                    nanos: 60,
                    worked: true,
                    epoch: 3,
                    seq: 9,
                },
            ))
            .unwrap();
        assert_eq!(s.kind, ActivityKind::Schedule);
        assert_eq!(s.epoch, 3);
        assert_eq!(s.start_ns, 140);
        assert_eq!(s.duration_ns, 60);
        // Transit inherits the running epoch.
        let s = state
            .push(&record(
                210,
                TelemetryEvent::MessageSent {
                    dataflow: 1,
                    connector: 4,
                    target: 0,
                    records: 10,
                    bytes: 80,
                    remote: true,
                },
            ))
            .unwrap();
        assert_eq!(s.kind, ActivityKind::TransitOut);
        assert_eq!(s.epoch, 3);
        assert_eq!((s.records, s.bytes), (10, 80));
        // Notifications carry their own epoch.
        let s = state
            .push(&record(
                220,
                TelemetryEvent::NotificationDelivered {
                    dataflow: 1,
                    stage: 2,
                    epoch: 5,
                    blocking: true,
                },
            ))
            .unwrap();
        assert_eq!(s.kind, ActivityKind::Notify);
        assert_eq!(s.epoch, 5);
        // Non-attributable events are ignored.
        assert!(state
            .push(&record(
                230,
                TelemetryEvent::FrontierProbe {
                    dataflow: 1,
                    active: 1,
                    input_epoch: Some(3),
                },
            ))
            .is_none());
    }

    #[test]
    fn credit_waits_attribute_to_the_running_epoch() {
        let mut state = AttributionState::new(2);
        state.push(&record(
            100,
            TelemetryEvent::ScheduleStop {
                dataflow: 1,
                stage: 0,
                nanos: 10,
                worked: false,
                epoch: 4,
                seq: 0,
            },
        ));
        let s = state
            .push(&record(
                500,
                TelemetryEvent::CreditWait {
                    dataflow: 1,
                    connector: 3,
                    waited_ns: 200,
                    bytes: 1024,
                },
            ))
            .unwrap();
        assert_eq!(s.kind, ActivityKind::CreditWait);
        assert_eq!(s.epoch, 4, "inherits the running epoch");
        assert_eq!((s.start_ns, s.duration_ns), (300, 200));
        assert_eq!(s.bytes, 1024);

        let mut acc = EpochAccumulator::default();
        acc.push(&s);
        let summary = acc.finish(4);
        assert_eq!(summary.credit_waits, 1);
        assert_eq!(summary.credit_wait_ns, 200);
        let json = summary.to_json();
        assert!(json.contains("\"credit_wait_ns\":200"), "{json}");
    }

    #[test]
    fn accumulator_attributes_the_straggler_and_accounts_the_span() {
        let mut acc = EpochAccumulator::default();
        // Worker 0: busy 100ns spanning [0, 100].
        acc.push(&ActivitySample {
            worker: 0,
            epoch: 1,
            kind: ActivityKind::Schedule,
            start_ns: 0,
            duration_ns: 100,
            records: 0,
            bytes: 0,
            stage: 1,
            seq: 0,
        });
        // Worker 1: busy 300ns spanning [50, 350], plus a notify at 400.
        acc.push(&ActivitySample {
            worker: 1,
            epoch: 1,
            kind: ActivityKind::Schedule,
            start_ns: 50,
            duration_ns: 300,
            records: 0,
            bytes: 0,
            stage: 1,
            seq: 1,
        });
        acc.push(&ActivitySample {
            worker: 1,
            epoch: 1,
            kind: ActivityKind::Notify,
            start_ns: 400,
            duration_ns: 0,
            records: 0,
            bytes: 0,
            stage: 1,
            seq: 0,
        });
        let summary = acc.finish(1);
        assert_eq!(summary.workers, 2);
        assert_eq!(summary.critical_worker, 1);
        assert_eq!(summary.span_ns, 350); // worker 1: [50, 400]
        assert_eq!(summary.critical_path_ns, 350);
        assert_eq!(summary.busy_total_ns, 400);
        assert_eq!(summary.busy_max_ns, 300);
        assert_eq!(summary.busy_min_ns, 100);
        assert_eq!(summary.idle_ns, 50); // 350 span − 300 busy
        assert_eq!(summary.skew_milli, 1500); // 300 / 200 mean
        assert_eq!(summary.notifications, 1);
        assert_eq!(summary.samples, 3);
        // The summary fully accounts the epoch: busy + idle == span, by
        // construction.
        assert_eq!(summary.busy_max_ns + summary.idle_ns, summary.span_ns);
    }

    #[test]
    fn accumulation_is_order_insensitive() {
        let samples = [
            ActivitySample {
                worker: 0,
                epoch: 2,
                kind: ActivityKind::Schedule,
                start_ns: 10,
                duration_ns: 90,
                records: 0,
                bytes: 0,
                stage: 1,
                seq: 0,
            },
            ActivitySample {
                worker: 1,
                epoch: 2,
                kind: ActivityKind::TransitOut,
                start_ns: 30,
                duration_ns: 0,
                records: 7,
                bytes: 64,
                stage: 2,
                seq: 0,
            },
            ActivitySample {
                worker: 1,
                epoch: 2,
                kind: ActivityKind::Progress,
                start_ns: 60,
                duration_ns: 0,
                records: 4,
                bytes: 0,
                stage: 0,
                seq: 1,
            },
        ];
        let mut forward = EpochAccumulator::default();
        let mut reverse = EpochAccumulator::default();
        for s in &samples {
            forward.push(s);
        }
        for s in samples.iter().rev() {
            reverse.push(s);
        }
        assert_eq!(forward.finish(2), reverse.finish(2));

        // Split at every point, fold each side apart, then absorb: the
        // per-worker merge the online fold does must change nothing.
        for split in 0..=samples.len() {
            let (left, right) = samples.split_at(split);
            let mut joined = EpochAccumulator::default();
            let mut other = EpochAccumulator::default();
            for s in left {
                joined.push(s);
            }
            for s in right {
                other.push(s);
            }
            joined.absorb(other);
            assert_eq!(joined.finish(2), forward.finish(2), "split at {split}");
        }
    }

    #[test]
    fn offline_reference_folds_every_worker_and_dataflow() {
        let log = |worker: usize, dataflow: u32| WorkerTelemetry {
            worker,
            events: vec![record(
                100,
                TelemetryEvent::ScheduleStop {
                    dataflow,
                    stage: 1,
                    nanos: 40,
                    worked: true,
                    epoch: 0,
                    seq: 0,
                },
            )],
            dropped: 0,
            counters: crate::telemetry::WorkerCounters::default(),
            ops: Vec::new(),
            connectors: Vec::new(),
            directory: Vec::new(),
        };
        let summaries = offline_reference(&[log(0, 0), log(1, 1)]);
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].workers, 2);
        assert_eq!(summaries[0].samples, 2);
        assert_eq!(summaries[0].busy_total_ns, 80);
    }
}
