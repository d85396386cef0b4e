//! Event-log invariants across a real multi-worker run.
//!
//! Runs a 4-worker (2 processes × 2 workers) exchange-and-notify
//! workload with telemetry enabled and checks the structural properties
//! the registry depends on: schedule start/stop pairing, monotone
//! frontier probes, and progress events consistent with the tracker's
//! seeded state.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use naiad::dataflow::{InputPort, OutputPort};
use naiad::progress::ProgressMode;
use naiad::runtime::Pact;
use naiad::telemetry::TelemetryEvent;
use naiad::{execute_with_telemetry, Config, TelemetrySnapshot, Timestamp};

const PROCESSES: usize = 2;
const WORKERS_PER_PROCESS: usize = 2;
const TOTAL_WORKERS: usize = PROCESSES * WORKERS_PER_PROCESS;
const EPOCHS: u64 = 3;
const RECORDS_PER_EPOCH: u64 = 25;

/// Runs the shared workload once and returns its snapshot.
fn run_workload() -> TelemetrySnapshot {
    let config = Config::processes_and_workers(PROCESSES, WORKERS_PER_PROCESS)
        .progress_mode(ProgressMode::Broadcast)
        .telemetry_capacity(1 << 16);
    let (sums, snapshot) = execute_with_telemetry(config, |worker| {
        let (mut input, sums) = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<u64>();
            let sums: Rc<RefCell<HashMap<u64, u64>>> = Rc::new(RefCell::new(HashMap::new()));
            let recv = sums.clone();
            let out = sums.clone();
            stream
                .unary_notify(
                    Pact::exchange(|x: &u64| *x),
                    "SumPerEpoch",
                    move |_info| {
                        (
                            move |input: &mut InputPort<u64>,
                                  _output: &mut OutputPort<u64>,
                                  notify: &naiad::dataflow::Notify| {
                                input.for_each(|time, data| {
                                    notify.notify_at(time);
                                    *recv.borrow_mut().entry(time.epoch).or_insert(0) +=
                                        data.iter().sum::<u64>();
                                });
                            },
                            move |time: Timestamp,
                                  output: &mut OutputPort<u64>,
                                  _notify: &naiad::dataflow::Notify| {
                                if let Some(sum) = out.borrow_mut().remove(&time.epoch) {
                                    output.session(time).give(sum);
                                }
                            },
                        )
                    },
                )
                .probe();
            (input, sums)
        });
        let index = worker.index() as u64;
        for epoch in 0..EPOCHS {
            // Keys cover every residue mod TOTAL_WORKERS, so the exchange
            // routes records to all workers — including across processes.
            input.send_batch((0..RECORDS_PER_EPOCH).map(|i| i + index + 1000 * epoch));
            if epoch + 1 < EPOCHS {
                input.advance_to(epoch + 1);
            }
        }
        input.close();
        worker.step_until_done();
        let total: u64 = sums.borrow().values().sum();
        total
    })
    .unwrap();
    // Sanity: the workload itself computed (notifications fired and
    // consumed the per-epoch sums, so remainders are zero).
    assert_eq!(sums.len(), TOTAL_WORKERS);
    assert_eq!(sums.iter().sum::<u64>(), 0, "OnNotify drained every epoch");
    snapshot
}

#[test]
fn event_log_invariants_hold_on_a_four_worker_run() {
    let snap = run_workload();

    // Every worker harvested, in index order, with no dropped events.
    assert_eq!(snap.workers.len(), TOTAL_WORKERS);
    assert_eq!(snap.logs.len(), TOTAL_WORKERS);
    for (i, w) in snap.workers.iter().enumerate() {
        assert_eq!(w.worker, i, "summaries sorted by worker index");
        assert_eq!(w.events_dropped, 0, "buffer sized for the run");
        assert!(w.events_recorded > 0);
        assert!(w.counters.steps > 0);
        assert!(w.counters.schedules > 0);
    }

    // --- Scheduling slices ---------------------------------------------
    // Workers are single-threaded and record one ScheduleStop as each
    // slice ends, so a slice begins at its record's timestamp minus its
    // duration: never before the previous slice ended (1 ns of slack for
    // rounding), with slice numbers strictly increasing. Other events may
    // fall between slices or inside one.
    for log in &snap.logs {
        let mut stops = 0u64;
        let mut last_nanos = 0u64;
        let mut prev_stop: Option<(u64, u64)> = None;
        for record in &log.events {
            assert!(
                record.nanos >= last_nanos,
                "worker {} event timestamps regress",
                log.worker
            );
            last_nanos = record.nanos;
            if let TelemetryEvent::ScheduleStop { nanos, seq, .. } = record.event {
                if let Some((prev_seq, prev_end)) = prev_stop {
                    assert!(seq > prev_seq, "worker {}: slice seq regresses", log.worker);
                    assert!(
                        record.nanos.saturating_sub(nanos) + 1 >= prev_end,
                        "worker {}: slice {seq} starts before slice {prev_seq} stopped",
                        log.worker
                    );
                }
                prev_stop = Some((seq, record.nanos));
                stops += 1;
            }
        }
        assert_eq!(
            stops, log.counters.schedules,
            "worker {}: aggregate schedule count matches the event stream",
            log.worker
        );
    }

    // --- Monotone frontier probes ------------------------------------
    // Per (worker, dataflow): the minimum open input epoch never
    // retreats, never resurrects after closing, and ends closed with
    // zero active pointstamps.
    let mut last_probe: HashMap<(usize, u32), &naiad::telemetry::FrontierSample> = HashMap::new();
    for sample in &snap.frontier {
        if let Some(prev) = last_probe.get(&(sample.worker, sample.dataflow)) {
            match (prev.input_epoch, sample.input_epoch) {
                (Some(a), Some(b)) => assert!(
                    b >= a,
                    "worker {} frontier retreated {a} -> {b}",
                    sample.worker
                ),
                (None, Some(_)) => {
                    panic!("worker {} input frontier reopened", sample.worker)
                }
                _ => {}
            }
        }
        last_probe.insert((sample.worker, sample.dataflow), sample);
    }
    assert_eq!(last_probe.len(), TOTAL_WORKERS, "every worker probed");
    for ((worker, _), sample) in &last_probe {
        assert_eq!(
            sample.input_epoch, None,
            "worker {worker}: inputs closed at completion"
        );
        assert_eq!(sample.active, 0, "worker {worker}: tracker drained");
    }

    // --- Progress events consistent with tracker state ---------------
    // Every tracker is seeded with `TOTAL_WORKERS` occurrences per input
    // stage and every later delta flows through the protocol, so each
    // worker's applied net must be exactly the negation of the seed
    // (one input stage here) once its tracker has drained.
    let total_batches_sent: u64 = snap
        .workers
        .iter()
        .map(|w| w.counters.progress_batches_sent)
        .sum();
    assert!(total_batches_sent > 0);
    for w in &snap.workers {
        let c = &w.counters;
        assert_eq!(
            c.net_delta_applied,
            -(TOTAL_WORKERS as i64),
            "worker {}: applied net offsets the seeded input pointstamps",
            w.worker
        );
        // Broadcast mode: every batch reaches every worker exactly once.
        assert_eq!(
            c.progress_batches_applied, total_batches_sent,
            "worker {}: broadcast delivers every batch",
            w.worker
        );
        // Aggregate counters agree with the retained event stream.
        let applied_events = snap.logs[w.worker]
            .events
            .iter()
            .filter(|r| matches!(r.event, TelemetryEvent::ProgressApplied { .. }))
            .count() as u64;
        assert_eq!(c.progress_batches_applied, applied_events);
    }

    // --- Per-operator rows -------------------------------------------
    // The named operator was scheduled, notified once per epoch per
    // worker, and received every record exactly once.
    assert!(!snap.operators.is_empty());
    let sum_op = snap
        .operators
        .iter()
        .find(|o| o.name == "SumPerEpoch")
        .expect("named operator surfaced in the registry");
    assert!(sum_op.schedules > 0);
    assert!(sum_op.worked > 0);
    assert_eq!(
        sum_op.notifications,
        EPOCHS * TOTAL_WORKERS as u64,
        "one notification per epoch per worker"
    );
    assert_eq!(
        sum_op.records_in,
        EPOCHS * RECORDS_PER_EPOCH * TOTAL_WORKERS as u64,
        "every record crossed the exchange exactly once"
    );
    for op in &snap.operators {
        assert!(
            op.schedules > 0 || op.records_out > 0 || op.records_in > 0,
            "operator ({}, {}) '{}' left no trace",
            op.dataflow,
            op.stage,
            op.name
        );
    }

    // --- Traffic ------------------------------------------------------
    // Two processes under Broadcast: both classes crossed the network,
    // and worker-side record counts agree with each other.
    assert!(snap.traffic.progress_network.bytes > 0);
    assert!(snap.data_bytes(false) > 0, "exchange crossed processes");
    assert!(snap.progress_bytes(true) >= snap.progress_bytes(false));
    let sent: u64 = snap.workers.iter().map(|w| w.counters.records_sent).sum();
    let received: u64 = snap
        .workers
        .iter()
        .map(|w| w.counters.records_received)
        .sum();
    assert_eq!(sent, received, "no records lost between push and pull");
    assert_eq!(snap.total_steps(), snap.workers.iter().map(|w| w.counters.steps).sum());

    // --- Exporters ----------------------------------------------------
    let jsonl = snap.events_json_lines();
    let total_events: usize = snap.workers.iter().map(|w| w.events_recorded).sum();
    // One schema-version header line, then one line per event.
    assert_eq!(jsonl.lines().count(), total_events + 1);
    assert!(jsonl.lines().next().unwrap().contains("\"schema\":\"naiad-telemetry\""));
    assert!(jsonl
        .lines()
        .all(|l| l.starts_with('{') && l.ends_with('}')));
    let table = snap.summary_table();
    assert!(table.contains("SumPerEpoch"));
    assert!(table.contains("== frontier =="));
}
