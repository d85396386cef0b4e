//! The program-activity graph: telemetry events attributed to epochs.
//!
//! Following SnailTrail's model, every attributable telemetry event
//! becomes one [`ActivitySample`] — a span of worker activity (operator
//! scheduling, message transit, progress traffic, notification delivery)
//! tagged with the *source epoch* it served. Samples are what flow into
//! the observer dataflow; [`EpochAccumulator`] folds the samples of one
//! epoch into a [`CriticalPathSummary`].
//!
//! The event→sample mapping lives in [`AttributionState`] and is shared
//! verbatim between the online path (the step hook draining the recorder
//! tap) and the offline reference ([`offline_reference`] over a harvested
//! [`WorkerTelemetry`] log) — the golden test's equality is by
//! construction, not by coincidence.
//!
//! All arithmetic is integer-only so summaries are bit-identical across
//! runs, platforms, and the online/offline split.

use std::collections::{BTreeMap, HashMap};

use naiad_wire::{Wire, WireError};

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

impl ActivityKind {
    fn code(self) -> u8 {
        match self {
            ActivityKind::Schedule => 0,
            ActivityKind::TransitOut => 1,
            ActivityKind::TransitIn => 2,
            ActivityKind::Progress => 3,
            ActivityKind::Notify => 4,
            ActivityKind::CreditWait => 5,
        }
    }
}

impl Wire for ActivityKind {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(self.code());
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let code = u8::decode(input)?;
        match code {
            0 => Ok(ActivityKind::Schedule),
            1 => Ok(ActivityKind::TransitOut),
            2 => Ok(ActivityKind::TransitIn),
            3 => Ok(ActivityKind::Progress),
            4 => Ok(ActivityKind::Notify),
            5 => Ok(ActivityKind::CreditWait),
            other => Err(WireError::InvalidTag(other)),
        }
    }

    fn encoded_len(&self) -> usize {
        1
    }
}

/// One node of the program-activity graph: a span of attributable worker
/// activity, tagged with the source epoch it served.
///
/// Samples are exchanged between workers by `epoch`, so the summary for
/// one epoch is assembled at exactly one analysis vertex.
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

impl Wire for ActivitySample {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.worker.encode(buf);
        self.epoch.encode(buf);
        self.kind.encode(buf);
        self.start_ns.encode(buf);
        self.duration_ns.encode(buf);
        self.records.encode(buf);
        self.bytes.encode(buf);
        self.stage.encode(buf);
        self.seq.encode(buf);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(ActivitySample {
            worker: u32::decode(input)?,
            epoch: u64::decode(input)?,
            kind: ActivityKind::decode(input)?,
            start_ns: u64::decode(input)?,
            duration_ns: u64::decode(input)?,
            records: u32::decode(input)?,
            bytes: u32::decode(input)?,
            stage: u32::decode(input)?,
            seq: u64::decode(input)?,
        })
    }
}

/// Incremental event→sample attribution for one worker's event stream.
///
/// Fed event records in log order; returns the sample each attributable
/// event maps to. Non-attributable events (frontier probes, checkpoints,
/// faults, `ScheduleStart`, …) return `None` and leave the state
/// untouched, so feeding the *full* log and feeding the tap's filtered
/// subsequence produce identical samples.
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

    /// The running attribution epoch: the smallest epoch any *future*
    /// inherited sample can carry. The tracker's minimum open epoch is
    /// monotone per worker, so this never regresses. The step hook uses
    /// it as a clamp on the observer clock: the observer input must not
    /// advance past it, or a transit/progress sample attributed to it
    /// could be introduced behind the observer frontier.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.last_epoch
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
/// result is independent of sample arrival order — the online exchange
/// may interleave workers arbitrarily and still match the offline
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
/// [`ActivitySample`]s, so the self-hosted dataflow and the offline
/// reference produce bit-identical values from the same samples.
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

impl Wire for CriticalPathSummary {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.epoch.encode(buf);
        self.workers.encode(buf);
        self.span_ns.encode(buf);
        self.critical_worker.encode(buf);
        self.critical_path_ns.encode(buf);
        self.busy_total_ns.encode(buf);
        self.busy_max_ns.encode(buf);
        self.busy_min_ns.encode(buf);
        self.idle_ns.encode(buf);
        self.skew_milli.encode(buf);
        self.transit_msgs.encode(buf);
        self.transit_records.encode(buf);
        self.transit_bytes.encode(buf);
        self.progress_batches.encode(buf);
        self.progress_updates.encode(buf);
        self.notifications.encode(buf);
        self.credit_waits.encode(buf);
        self.credit_wait_ns.encode(buf);
        self.samples.encode(buf);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(CriticalPathSummary {
            epoch: u64::decode(input)?,
            workers: u32::decode(input)?,
            span_ns: u64::decode(input)?,
            critical_worker: u32::decode(input)?,
            critical_path_ns: u64::decode(input)?,
            busy_total_ns: u64::decode(input)?,
            busy_max_ns: u64::decode(input)?,
            busy_min_ns: u64::decode(input)?,
            idle_ns: u64::decode(input)?,
            skew_milli: u64::decode(input)?,
            transit_msgs: u64::decode(input)?,
            transit_records: u64::decode(input)?,
            transit_bytes: u64::decode(input)?,
            progress_batches: u64::decode(input)?,
            progress_updates: u64::decode(input)?,
            notifications: u64::decode(input)?,
            credit_waits: u64::decode(input)?,
            credit_wait_ns: u64::decode(input)?,
            samples: u64::decode(input)?,
        })
    }
}

/// Recomputes the per-epoch critical-path summaries from harvested event
/// logs — the offline reference the golden test checks the self-hosted
/// dataflow against.
///
/// Runs the same [`AttributionState`] over each worker's log (skipping
/// events of `exclude_dataflow`, exactly as the recorder tap does) and
/// folds the samples through the same [`EpochAccumulator`]; summaries
/// come back sorted by epoch.
#[must_use]
pub fn offline_reference(
    logs: &[WorkerTelemetry],
    exclude_dataflow: Option<u32>,
) -> Vec<CriticalPathSummary> {
    let mut epochs: BTreeMap<u64, EpochAccumulator> = BTreeMap::new();
    for log in logs {
        let worker = u32::try_from(log.worker).unwrap_or(u32::MAX);
        let mut attribution = AttributionState::new(worker);
        for record in &log.events {
            if record.event.dataflow_id() == exclude_dataflow && exclude_dataflow.is_some() {
                continue;
            }
            if let Some(sample) = attribution.push(record) {
                epochs.entry(sample.epoch).or_default().push(&sample);
            }
        }
    }
    epochs
        .iter()
        .map(|(epoch, acc)| acc.finish(*epoch))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use naiad_wire::{decode_from_slice, encode_to_vec};

    fn record(nanos: u64, event: TelemetryEvent) -> EventRecord {
        EventRecord { nanos, event }
    }

    #[test]
    fn samples_round_trip_over_the_wire() {
        let sample = ActivitySample {
            worker: 3,
            epoch: 7,
            kind: ActivityKind::TransitOut,
            start_ns: 123_456,
            duration_ns: 0,
            records: 42,
            bytes: 512,
            stage: 9,
            seq: 17,
        };
        let bytes = encode_to_vec(&sample);
        let back: ActivitySample = decode_from_slice(&bytes).unwrap();
        assert_eq!(sample, back);

        let summary = EpochAccumulator::default().finish(5);
        let bytes = encode_to_vec(&summary);
        let back: CriticalPathSummary = decode_from_slice(&bytes).unwrap();
        assert_eq!(summary, back);
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

        let bytes = encode_to_vec(&summary);
        let back: CriticalPathSummary = decode_from_slice(&bytes).unwrap();
        assert_eq!(summary, back);
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
    }

    #[test]
    fn offline_reference_excludes_the_observer_dataflow() {
        let log = WorkerTelemetry {
            worker: 0,
            events: vec![
                record(
                    100,
                    TelemetryEvent::ScheduleStop {
                        dataflow: 0, // observer: excluded
                        stage: 1,
                        nanos: 40,
                        worked: true,
                        epoch: 0,
                        seq: 0,
                    },
                ),
                record(
                    200,
                    TelemetryEvent::ScheduleStop {
                        dataflow: 1,
                        stage: 1,
                        nanos: 40,
                        worked: true,
                        epoch: 0,
                        seq: 1,
                    },
                ),
            ],
            dropped: 0,
            counters: crate::telemetry::WorkerCounters::default(),
            ops: Vec::new(),
            connectors: Vec::new(),
            directory: Vec::new(),
        };
        let summaries = offline_reference(&[log], Some(0));
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].samples, 1);
        assert_eq!(summaries[0].busy_total_ns, 40);
    }
}
