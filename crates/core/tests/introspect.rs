//! End-to-end tests for online critical-path analysis: the golden
//! online-vs-offline equality, straggler attribution and wall-clock
//! accounting, buffer overflow behavior, result and dataflow
//! transparency, and the recorder-overhead regression bound.

use std::time::Instant;

use naiad::dataflow::{InputPort, OutputPort};
use naiad::introspect::offline_reference;
use naiad::runtime::Pact;
use naiad::telemetry::{Recorder, TelemetryEvent};
use naiad::{execute, execute_with_telemetry, Config, Execution, Worker};

/// The shared fixture: records exchange to worker 0 (the deliberate
/// straggler), which folds each into a per-epoch sum emitted when the
/// epoch closes. Returns the per-epoch `(epoch, sums)` capture.
fn skewed_sums(worker: &mut Worker, epochs: u64, records_per_epoch: u64) -> Vec<(u64, Vec<u64>)> {
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::rc::Rc;

    let index = worker.index() as u64;
    let (mut input, captured) = worker.dataflow(|scope| {
        let (input, stream) = scope.new_input::<u64>();
        let sums = stream.unary_notify(Pact::exchange(|_| 0), "SkewedSum", |_info| {
            let table: Rc<RefCell<HashMap<u64, u64>>> = Rc::default();
            let flush = Rc::clone(&table);
            (
                move |input: &mut InputPort<u64>,
                      _output: &mut OutputPort<u64>,
                      notify: &naiad::dataflow::Notify| {
                    input.for_each(|time, data| {
                        notify.notify_at(time);
                        let mut table = table.borrow_mut();
                        for x in data {
                            // A nontrivial per-record cost so worker
                            // 0's busy time visibly dominates.
                            let cost: u64 = (0..x % 97).sum();
                            *table.entry(time.epoch).or_default() += x + cost % 2;
                        }
                    });
                },
                move |time: naiad::Timestamp,
                      output: &mut OutputPort<u64>,
                      _notify: &naiad::dataflow::Notify| {
                    if let Some(sum) = flush.borrow_mut().remove(&time.epoch) {
                        output.session(time).give(sum);
                    }
                },
            )
        });
        (input, sums.capture())
    });

    for epoch in 0..epochs {
        // Worker 0 contributes nothing; the others send a slice each, and
        // everything routes to worker 0.
        if index != 0 {
            input.send_batch((0..records_per_epoch).map(|r| epoch * 1000 + index * 100 + r));
        }
        // Process each epoch while it is the oldest open work, so its
        // schedule slices attribute to it rather than piling onto the
        // first epoch. The final epoch closes via `close` below.
        if epoch + 1 < epochs {
            input.advance_to(epoch + 1);
            worker.step_until_closed_through(epoch);
        }
    }
    input.close();
    worker.step_until_done();
    let result = captured.borrow().clone();
    result
}

/// Golden test: the summaries the workers fold *while the run goes* equal
/// the offline reference recomputed from the harvested event logs
/// through the same attribution code.
#[test]
fn online_summaries_match_the_offline_reference() {
    let config = Config::single_process(2).telemetry_capacity(1 << 20);
    let report = Execution::new(config)
        .introspect()
        .run(|worker, _| skewed_sums(worker, 4, 64))
        .unwrap();
    let snapshot = report
        .telemetry
        .as_ref()
        .expect("introspection forces telemetry on");
    assert_eq!(report.phases[0].results.len(), 2);
    assert_eq!(
        snapshot.total_events_dropped(),
        0,
        "golden run must not drop buffer events"
    );

    let reference = offline_reference(&snapshot.logs);
    assert!(!report.summaries.is_empty());
    assert_eq!(
        report.summaries, reference,
        "online summaries must be bit-identical to the offline reference"
    );
    assert_eq!(snapshot.critical_paths, report.summaries);
}

/// Multi-process, unfenced epochs: workers advance their inputs without
/// waiting for the previous epoch to close, so transit and progress
/// events can be recorded one step after the frontier moved and are
/// attributed to an epoch other workers have moved past. Each epoch must
/// still get exactly one summary, and the result must still equal the
/// offline reference.
#[test]
fn unfenced_multi_process_epochs_get_exactly_one_summary() {
    let config = Config::processes_and_workers(2, 2).telemetry_capacity(1 << 20);
    let report = Execution::new(config)
        .introspect()
        .run(|worker, _| {
            let index = worker.index() as u64;
            let (mut input, probe) = worker.dataflow(|scope| {
                let (input, stream) = scope.new_input::<u64>();
                let probe = stream
                    .unary(Pact::exchange(|_| 0), "HotKey", |_info| {
                        |input: &mut InputPort<u64>, output: &mut OutputPort<u64>| {
                            input.for_each(|time, data| {
                                let folded = data.iter().map(|x| x % 1001).sum();
                                output.session(time).give(folded);
                            });
                        }
                    })
                    .probe();
                (input, probe)
            });
            for epoch in 0..4u64 {
                if worker.index() != 0 {
                    input.send_batch((0..256).map(|r| epoch * 10_000 + index * 1000 + r));
                }
                // No epoch fencing: only wait on the probe, letting the
                // next epoch's sends race the previous epoch's close.
                input.advance_to(epoch + 1);
                worker.step_while(|| !probe.done_through(epoch));
            }
            input.close();
            worker.step_until_done();
        })
        .unwrap();
    let snapshot = report
        .telemetry
        .as_ref()
        .expect("introspection forces telemetry on");

    let mut epochs: Vec<u64> = report.summaries.iter().map(|s| s.epoch).collect();
    let before = epochs.len();
    epochs.dedup();
    assert_eq!(
        epochs.len(),
        before,
        "an epoch was split into two summaries"
    );
    for e in 0..4 {
        assert!(epochs.contains(&e), "epoch {e} has no summary");
    }
    let reference = offline_reference(&snapshot.logs);
    assert_eq!(report.summaries, reference);
}

/// Four workers, skewed load: every closed epoch yields a summary whose
/// critical path fully accounts for the straggler's wall clock (busy +
/// attributed wait ≥ 95% of the epoch's span), and the straggler is the
/// overloaded worker.
#[test]
fn four_workers_attribute_the_straggler_and_account_the_span() {
    const EPOCHS: u64 = 5;
    let config = Config::single_process(4).telemetry_capacity(1 << 20);
    let report = Execution::new(config)
        .introspect()
        .run(|worker, _| skewed_sums(worker, EPOCHS, 256))
        .unwrap();

    let epochs: Vec<u64> = report.summaries.iter().map(|s| s.epoch).collect();
    assert_eq!(
        epochs,
        (0..EPOCHS).collect::<Vec<_>>(),
        "one summary per epoch"
    );

    for summary in &report.summaries {
        assert!(summary.workers >= 1 && summary.workers <= 4);
        assert!(summary.span_ns > 0, "epoch {} has zero span", summary.epoch);
        assert!(summary.critical_path_ns <= summary.span_ns);
        assert!(
            summary.busy_max_ns > 0,
            "epoch {} saw no busy time",
            summary.epoch
        );
        assert!(summary.busy_max_ns >= summary.busy_min_ns);
        assert!(summary.busy_total_ns >= summary.busy_max_ns);
        assert!(summary.samples > 0);
        // The accounting guarantee: the critical worker's busy time plus
        // the attributed wait residual covers at least 95% of the
        // epoch's measured wall clock.
        let accounted = summary.busy_max_ns + summary.idle_ns;
        assert!(
            accounted * 100 >= summary.span_ns * 95,
            "epoch {}: accounted {} of span {}",
            summary.epoch,
            accounted,
            summary.span_ns
        );
        // Skew: all records route to one worker, so the straggler does
        // more than the mean.
        assert!(summary.skew_milli >= 1000);
    }
    // Straggler attribution: worker 0 receives every record, so it is
    // the critical worker in at least half the epochs (scheduling noise
    // may flip an individual epoch).
    let attributed = report
        .summaries
        .iter()
        .filter(|s| s.critical_worker == 0)
        .count();
    assert!(
        attributed * 2 >= report.summaries.len(),
        "worker 0 attributed in only {attributed} of {} epochs",
        report.summaries.len()
    );
}

/// Recorder-buffer overflow is counted, surfaced in the snapshot and the
/// export header, and never fatal.
#[test]
fn buffer_overflow_is_counted_and_surfaced() {
    let (_, snapshot) =
        execute_with_telemetry(Config::single_process(2).telemetry_capacity(32), |worker| {
            skewed_sums(worker, 3, 64)
        })
        .unwrap();
    let dropped = snapshot.total_events_dropped();
    assert!(dropped > 0, "a 32-event buffer must overflow");
    assert!(snapshot.workers.iter().any(|w| w.events_dropped > 0));
    // Recorded + dropped covers every record call; the log holds exactly
    // the recorded prefix.
    for (summary, log) in snapshot.workers.iter().zip(&snapshot.logs) {
        assert_eq!(summary.events_recorded, log.events.len());
    }
    let header = snapshot.events_json_lines();
    let header = header.lines().next().unwrap().to_string();
    assert!(header.contains("\"schema\":\"naiad-telemetry\""));
    assert!(header.contains(&format!("\"dropped\":{dropped}")));
}

/// Introspection is observation only: user results are identical to an
/// uninstrumented run.
#[test]
fn introspection_does_not_perturb_results() {
    let plain = execute(Config::single_process(2), |worker| {
        skewed_sums(worker, 4, 32)
    })
    .unwrap();
    let report = Execution::new(Config::single_process(2))
        .introspect()
        .run(|worker, _| skewed_sums(worker, 4, 32))
        .unwrap();
    assert_eq!(plain, report.into_results());
}

/// Introspection adds no dataflow: the workers of an introspected run
/// build exactly the closure's dataflows, under the same ids as a plain
/// run's.
#[test]
fn introspection_builds_only_the_user_dataflows() {
    fn analyzed(snapshot: &naiad::TelemetrySnapshot) -> Vec<(usize, u32)> {
        snapshot
            .logs
            .iter()
            .flat_map(|log| {
                log.events
                    .iter()
                    .filter_map(move |record| match record.event {
                        TelemetryEvent::AnalysisReport { dataflow, .. } => {
                            Some((log.worker, dataflow))
                        }
                        _ => None,
                    })
            })
            .collect()
    }
    let config = Config::single_process(2).telemetry_capacity(1 << 20);
    let (_, plain) =
        execute_with_telemetry(config.clone(), |worker| skewed_sums(worker, 2, 16)).unwrap();
    let report = Execution::new(config)
        .introspect()
        .run(|worker, _| skewed_sums(worker, 2, 16))
        .unwrap();
    let introspected = report
        .telemetry
        .as_ref()
        .expect("introspection forces telemetry on");
    assert_eq!(analyzed(&plain), vec![(0, 0), (1, 0)]);
    assert_eq!(analyzed(introspected), analyzed(&plain));
}

/// Overhead regression: a disabled recorder is a single branch per call;
/// an enabled one stays within a generous bound.
#[test]
fn recorder_overhead_is_bounded() {
    const CALLS: u64 = 1_000_000;
    let event = TelemetryEvent::ProgressDeposited {
        dataflow: 1,
        updates: 4,
    };

    let disabled = Recorder::disabled();
    let start = Instant::now();
    for _ in 0..CALLS {
        disabled.record(event);
    }
    let off = start.elapsed();

    let enabled = Recorder::with_capacity(CALLS as usize);
    let start = Instant::now();
    for _ in 0..CALLS {
        enabled.record(event);
    }
    let on = start.elapsed();

    assert!(
        off.as_millis() < 100,
        "disabled recorder took {off:?} for {CALLS} calls"
    );
    assert!(
        on.as_secs() < 2,
        "enabled recorder took {on:?} for {CALLS} calls"
    );
}
