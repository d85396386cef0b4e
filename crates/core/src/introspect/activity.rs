//! The program-activity graph: telemetry events attributed to epochs.
//!
//! Following SnailTrail's model, every attributable telemetry event is a
//! span of worker activity (operator scheduling, message transit,
//! progress traffic, notification delivery, a credit wait) tagged with
//! the *source epoch* it served. `Fold` reads one worker's events and
//! folds each into its epoch's [`EpochAccumulator`]; finishing an
//! accumulator gives the epoch's [`CriticalPathSummary`].
//!
//! The same `Fold` runs online (the recorder's tap, fed as events are
//! recorded) and offline ([`offline_reference`] over harvested
//! [`WorkerTelemetry`] logs) — the golden test's equality is by
//! construction, not by coincidence.
//!
//! All arithmetic is integer-only so summaries are bit-identical across
//! runs, platforms, and the online/offline split.

use std::collections::{BTreeMap, HashMap};

use crate::telemetry::{EventRecord, TelemetryEvent, WorkerTelemetry};

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

/// What one epoch's events add up to, on their way to a
/// [`CriticalPathSummary`].
///
/// Accumulation is commutative (sums, minima, maxima, counts), so the
/// result is independent of event order across workers and of how the
/// events were split between accumulators before
/// [`EpochAccumulator::absorb`] joined them — per-worker folds merged in
/// any order match the offline reference.
#[derive(Debug, Default)]
pub(crate) struct EpochAccumulator {
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
    /// Counts one sample on `worker` spanning `duration_ns` from
    /// `start_ns`, and returns the worker's extent.
    fn sample(&mut self, worker: u32, start_ns: u64, duration_ns: u64) -> &mut WorkerExtent {
        self.samples += 1;
        let extent = self.per_worker.entry(worker).or_default();
        extent.first_ns = extent.first_ns.min(start_ns);
        extent.last_ns = extent.last_ns.max(start_ns.saturating_add(duration_ns));
        extent
    }

    /// Folds in everything `other` accumulated, as if its events had
    /// been folded here: extents of the same worker widen and their busy
    /// times add (per-worker folds never share a worker, so there they
    /// are disjoint), and every counter sums.
    pub(crate) fn absorb(&mut self, other: EpochAccumulator) {
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
    pub(crate) fn finish(&self, epoch: u64) -> CriticalPathSummary {
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
/// events, so the online fold and the offline reference produce
/// bit-identical values from the same events.
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
    /// Attributable events folded in (unworked slices are not).
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
/// lands in its epoch's [`EpochAccumulator`].
///
/// A `ScheduleStop` carries the tracker's minimum open epoch, which
/// becomes the running epoch: transit, progress and credit-wait events
/// after it serve the oldest open work and count there. An unworked slice
/// moves the running epoch but is not itself a sample. A notification
/// counts at its own epoch and leaves the running one alone.
#[derive(Debug)]
pub(crate) struct Fold {
    worker: u32,
    running: u64,
    epochs: BTreeMap<u64, EpochAccumulator>,
}

impl Fold {
    /// An empty fold of worker `worker`'s events, running at epoch 0.
    pub(crate) fn new(worker: u32) -> Self {
        Fold {
            worker,
            running: 0,
            epochs: BTreeMap::new(),
        }
    }

    /// Folds one event record in (non-attributable events change nothing).
    pub(crate) fn push(&mut self, record: &EventRecord) {
        let (worker, now, running) = (self.worker, record.nanos, self.running);
        match record.event {
            TelemetryEvent::ScheduleStop {
                nanos,
                worked,
                epoch,
                ..
            } => {
                self.running = epoch;
                if worked {
                    let start = now.saturating_sub(nanos);
                    self.at(epoch).sample(worker, start, nanos).busy_ns += nanos;
                }
            }
            TelemetryEvent::MessageSent { records, bytes, .. } => {
                let acc = self.at(running);
                acc.sample(worker, now, 0);
                acc.transit_msgs += 1;
                acc.transit_records += u64::from(records);
                acc.transit_bytes += u64::from(bytes);
            }
            TelemetryEvent::MessageReceived { .. } => {
                self.at(running).sample(worker, now, 0);
            }
            TelemetryEvent::ProgressBatchSent { updates, .. }
            | TelemetryEvent::ProgressDeposited { updates, .. }
            | TelemetryEvent::ProgressApplied { updates, .. } => {
                let acc = self.at(running);
                acc.sample(worker, now, 0);
                acc.progress_batches += 1;
                acc.progress_updates += u64::from(updates);
            }
            TelemetryEvent::NotificationDelivered { epoch, .. } => {
                let acc = self.at(epoch);
                acc.sample(worker, now, 0);
                acc.notifications += 1;
            }
            TelemetryEvent::CreditWait { waited_ns, .. } => {
                let acc = self.at(running);
                acc.sample(worker, now.saturating_sub(waited_ns), waited_ns);
                acc.credit_waits += 1;
                acc.credit_wait_ns += waited_ns;
            }
            _ => {}
        }
    }

    fn at(&mut self, epoch: u64) -> &mut EpochAccumulator {
        self.epochs.entry(epoch).or_default()
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
    use crate::telemetry::WorkerCounters;

    type Log<'a> = &'a [(u64, TelemetryEvent)];

    /// Worker `worker`'s harvest holding `events` as `(nanos, event)`.
    fn log(worker: usize, events: Log) -> WorkerTelemetry {
        WorkerTelemetry {
            worker,
            events: events
                .iter()
                .map(|&(nanos, event)| EventRecord { nanos, event })
                .collect(),
            dropped: 0,
            counters: WorkerCounters::default(),
            ops: Vec::new(),
            directory: Vec::new(),
        }
    }

    fn slice(nanos: u64, worked: bool, epoch: u64) -> TelemetryEvent {
        TelemetryEvent::ScheduleStop {
            dataflow: 0,
            stage: 1,
            nanos,
            worked,
            epoch,
            seq: 0,
        }
    }

    fn sent(records: u32, bytes: u32) -> TelemetryEvent {
        TelemetryEvent::MessageSent {
            dataflow: 0,
            connector: 4,
            stage: 1,
            target: 0,
            records,
            bytes,
            remote: true,
        }
    }

    fn notify(epoch: u64) -> TelemetryEvent {
        TelemetryEvent::NotificationDelivered {
            dataflow: 0,
            stage: 2,
            epoch,
            blocking: true,
        }
    }

    fn credit_wait(waited_ns: u64) -> TelemetryEvent {
        TelemetryEvent::CreditWait {
            dataflow: 0,
            connector: 3,
            waited_ns,
            bytes: 1024,
        }
    }

    /// Folds `event` at t = 500, after an unworked slice at epoch 3, and
    /// returns the one summary that makes.
    fn lone(event: TelemetryEvent) -> CriticalPathSummary {
        let summaries = offline_reference(&[log(0, &[(100, slice(10, false, 3)), (500, event)])]);
        let [summary] = summaries[..] else {
            panic!("one epoch: {summaries:?}");
        };
        assert_eq!((summary.workers, summary.samples), (1, 1));
        summary
    }

    #[test]
    fn each_attributable_kind_counts_in_its_epoch() {
        let s = lone(slice(60, true, 3));
        assert_eq!((s.epoch, s.busy_total_ns, s.span_ns), (3, 60, 60));
        let s = lone(sent(10, 80));
        assert_eq!(
            (s.epoch, s.transit_msgs, s.transit_records, s.transit_bytes),
            (3, 1, 10, 80)
        );
        let s = lone(TelemetryEvent::MessageReceived {
            dataflow: 0,
            connector: 4,
            stage: 2,
            records: 10,
            remote: true,
        });
        assert_eq!((s.epoch, s.transit_msgs, s.span_ns), (3, 0, 0));
        for (event, updates) in [
            (
                TelemetryEvent::ProgressBatchSent {
                    dataflow: 0,
                    seq: 1,
                    updates: 5,
                },
                5,
            ),
            (
                TelemetryEvent::ProgressDeposited {
                    dataflow: 0,
                    updates: 6,
                },
                6,
            ),
            (
                TelemetryEvent::ProgressApplied {
                    dataflow: 0,
                    sender: 1,
                    seq: 1,
                    updates: 7,
                    net: 0,
                },
                7,
            ),
        ] {
            let s = lone(event);
            assert_eq!(
                (s.epoch, s.progress_batches, s.progress_updates),
                (3, 1, updates)
            );
        }
        let s = lone(notify(5));
        assert_eq!((s.epoch, s.notifications), (5, 1));
        let s = lone(credit_wait(200));
        assert_eq!((s.epoch, s.credit_waits, s.credit_wait_ns), (3, 1, 200));
        // Other events are not attributable.
        let probe = TelemetryEvent::FrontierProbe {
            dataflow: 0,
            active: 1,
            input_epoch: Some(3),
        };
        assert!(offline_reference(&[log(0, &[(100, probe)])]).is_empty());
    }

    #[test]
    fn an_unworked_slice_moves_the_running_epoch_but_adds_no_sample() {
        let idle = [(100, slice(50, false, 2)), (200, slice(50, false, 4))];
        assert!(offline_reference(&[log(0, &idle)]).is_empty());
        let summaries = offline_reference(&[log(0, &[idle[0], idle[1], (300, sent(1, 8))])]);
        let epochs: Vec<(u64, u64)> = summaries.iter().map(|s| (s.epoch, s.samples)).collect();
        assert_eq!(epochs, vec![(4, 1)]);
    }

    #[test]
    fn a_notification_counts_at_its_own_epoch_and_keeps_the_running_one() {
        let events = [
            (100, slice(10, false, 3)),
            (200, notify(5)),
            (300, sent(1, 8)),
        ];
        let summaries = offline_reference(&[log(0, &events)]);
        let epochs: Vec<(u64, u64, u64)> = summaries
            .iter()
            .map(|s| (s.epoch, s.transit_msgs, s.notifications))
            .collect();
        assert_eq!(epochs, vec![(3, 1, 0), (5, 0, 1)]);
    }

    #[test]
    fn a_credit_wait_starts_waited_ns_before_its_record() {
        let events = [
            (100, slice(10, false, 4)),
            (500, credit_wait(200)),
            (600, sent(1, 8)),
        ];
        let summaries = offline_reference(&[log(0, &events)]);
        let [summary] = summaries[..] else {
            panic!("one epoch: {summaries:?}");
        };
        assert_eq!(summary.span_ns, 300, "the wait spans [300, 500]");
        let json = summary.to_json();
        assert!(json.contains("\"credit_wait_ns\":200"), "{json}");
    }

    #[test]
    fn the_straggler_is_the_busiest_worker_and_the_span_is_accounted() {
        // Worker 0: busy 100ns over [0, 100]. Worker 1: busy 300ns over
        // [50, 350], then a notification at 400.
        let summaries = offline_reference(&[
            log(0, &[(100, slice(100, true, 1))]),
            log(1, &[(350, slice(300, true, 1)), (400, notify(1))]),
        ]);
        let [summary] = summaries[..] else {
            panic!("one epoch: {summaries:?}");
        };
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
    fn folds_merge_in_any_order() {
        let a = [(100, slice(90, true, 2)), (130, sent(7, 64))];
        let b = [(60, slice(40, true, 2)), (90, credit_wait(20))];
        assert_eq!(
            offline_reference(&[log(0, &a), log(1, &b)]),
            offline_reference(&[log(1, &b), log(0, &a)])
        );
        // Slices and notifications carry their own epochs, so a log of
        // them may be split anywhere, each part folded apart and the parts
        // absorbed: the per-worker merge the online fold does changes
        // nothing.
        let events = [
            (100, slice(90, true, 2)),
            (150, notify(2)),
            (220, slice(50, true, 2)),
            (300, notify(3)),
        ];
        let whole = offline_reference(&[log(0, &events)]);
        for split in 0..=events.len() {
            let mut epochs = BTreeMap::new();
            for part in [&events[..split], &events[split..]] {
                let mut fold = Fold::new(0);
                for &(nanos, event) in part {
                    fold.push(&EventRecord { nanos, event });
                }
                fold.merge_into(&mut epochs);
            }
            let merged: Vec<CriticalPathSummary> =
                epochs.iter().map(|(e, acc)| acc.finish(*e)).collect();
            assert_eq!(merged, whole, "split at {split}");
        }
    }

    #[test]
    fn offline_reference_folds_every_worker_and_dataflow() {
        let other_dataflow = TelemetryEvent::ScheduleStop {
            dataflow: 1,
            stage: 1,
            nanos: 40,
            worked: true,
            epoch: 0,
            seq: 0,
        };
        let summaries = offline_reference(&[
            log(0, &[(100, slice(40, true, 0))]),
            log(1, &[(100, other_dataflow)]),
        ]);
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].workers, 2);
        assert_eq!(summaries[0].samples, 2);
        assert_eq!(summaries[0].busy_total_ns, 80);
    }
}
