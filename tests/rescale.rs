//! Elastic rescaling end-to-end (§3.4 generalized to membership change):
//! grow and shrink the worker set at closed-epoch fences and demand the
//! output stay **bit-identical** to a fixed-membership run.
//!
//! The contract mirrors the chaos soak's: a rescale either completes
//! (state re-partitioned along the exchange contract, no record lost or
//! duplicated), aborts cleanly with a typed [`RescaleError`] while the
//! old membership finishes the job, or — with rollback disabled — fails
//! the run with [`ExecuteError::RescaleFailed`] carrying the
//! migration-phase dump. Never a hang: every test runs under a watchdog
//! deadline.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use naiad::dataflow::{InputPort, OutputPort};
use naiad::{
    execute, Config, ElasticOptions, ExecuteError, Execution, Pact, RescaleError, RescaleOutcome,
    RescaleStep, RunReport, Scope,
};
use naiad_examples::my_share;

/// Per-epoch captured output of the keyed-min dataflow.
type Out = Vec<(u64, Vec<(u64, u64)>)>;
type Captured = Rc<RefCell<Out>>;

const EPOCHS: u64 = 4;

fn inputs() -> Vec<Vec<(u64, u64)>> {
    vec![
        vec![
            (0, 90),
            (1, 80),
            (2, 70),
            (3, 60),
            (4, 50),
            (5, 40),
            (6, 30),
            (7, 20),
        ],
        vec![(0, 95), (1, 40), (2, 75), (3, 30), (4, 55), (5, 45)],
        vec![(0, 10), (2, 20), (6, 5), (7, 25)],
        vec![(1, 35), (3, 25), (4, 15), (5, 50), (6, 1)],
    ]
}

/// Keyed monotonic minimum with *keyed* state registration: the route
/// matches the exchange contract, so the coordinator can re-partition the
/// accumulator onto any worker set.
fn build(scope: &mut Scope) -> (naiad::InputHandle<(u64, u64)>, naiad::ProbeHandle, Captured) {
    let (input, stream) = scope.new_input::<(u64, u64)>();
    let mins = stream.unary(
        Pact::exchange(|(k, _): &(u64, u64)| *k),
        "KeyedMin",
        |info| {
            let acc: Rc<RefCell<HashMap<u64, u64>>> = Rc::new(RefCell::new(HashMap::new()));
            info.register_keyed_state(acc.clone(), |k: &u64| *k);
            let acc2 = acc;
            move |input: &mut InputPort<(u64, u64)>, output: &mut OutputPort<(u64, u64)>| {
                input.for_each(|time, data| {
                    let mut acc = acc2.borrow_mut();
                    let mut session = output.session(time);
                    for (k, v) in data {
                        let best = acc.entry(k).or_insert(u64::MAX);
                        if v < *best {
                            *best = v;
                            session.give((k, v));
                        }
                    }
                });
            }
        },
    );
    (input, mins.probe(), mins.capture())
}

/// The same computation with *opaque* state registration: correct under
/// crash recovery, but carrying no partitioning the rescale coordinator
/// could re-route.
fn build_opaque(
    scope: &mut Scope,
) -> (naiad::InputHandle<(u64, u64)>, naiad::ProbeHandle, Captured) {
    let (input, stream) = scope.new_input::<(u64, u64)>();
    let mins = stream.unary(
        Pact::exchange(|(k, _): &(u64, u64)| *k),
        "KeyedMin",
        |info| {
            let acc: Rc<RefCell<HashMap<u64, u64>>> = Rc::new(RefCell::new(HashMap::new()));
            info.register_state(acc.clone());
            let acc2 = acc;
            move |input: &mut InputPort<(u64, u64)>, output: &mut OutputPort<(u64, u64)>| {
                input.for_each(|time, data| {
                    let mut acc = acc2.borrow_mut();
                    let mut session = output.session(time);
                    for (k, v) in data {
                        let best = acc.entry(k).or_insert(u64::MAX);
                        if v < *best {
                            *best = v;
                            session.give((k, v));
                        }
                    }
                });
            }
        },
    );
    (input, mins.probe(), mins.capture())
}

/// Anti-hang watchdog, as in the chaos soak.
fn with_deadline<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(v) => {
            let _ = handle.join();
            v
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => match handle.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("sender dropped without sending yet the closure returned"),
        },
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("rescale test exceeded its {secs}s deadline — a run hung")
        }
    }
}

/// The fixed-membership reference: per-epoch sorted output.
fn baseline() -> Vec<Vec<(u64, u64)>> {
    let all = Arc::new(inputs());
    let results = execute(Config::single_process(2), move |worker| {
        let (mut input, probe, captured) = worker.dataflow(build);
        for epoch in 0..EPOCHS {
            for r in my_share(&all[epoch as usize], worker.index(), worker.peers()) {
                input.send(r);
            }
            input.advance_to(epoch + 1);
            worker.step_while(|| !probe.done_through(epoch));
        }
        input.close();
        worker.step_until_done();
        let result = captured.borrow().clone();
        result
    })
    .expect("fixed-membership baseline");
    let merged: Out = results.into_iter().flatten().collect();
    (0..EPOCHS)
        .map(|e| {
            let mut v: Vec<(u64, u64)> = merged
                .iter()
                .filter(|(epoch, _)| *epoch == e)
                .flat_map(|(_, d)| d.iter().copied())
                .collect();
            v.sort();
            v
        })
        .collect()
}

/// The standard elastic driver: construct, restore, feed this phase's
/// logical epochs (replaying the input log where it has them), checkpoint
/// at every boundary the session names.
fn elastic_run(run: Execution, opaque: bool) -> Result<RunReport<Out>, ExecuteError> {
    let all = Arc::new(inputs());
    run.run(move |worker, session| {
        let (mut input, probe, captured) = if opaque {
            worker.dataflow(build_opaque)
        } else {
            worker.dataflow(build)
        };
        session.restore_into(worker);
        if session.resume_epoch() > 0 {
            input.advance_to(session.resume_epoch());
        }
        for epoch in session.resume_epoch()..session.stop_epoch() {
            let records = match session.logged_input::<(u64, u64)>(epoch, worker.index(), 0) {
                Some(records) => records,
                None => {
                    let records = my_share(&all[epoch as usize], worker.index(), worker.peers());
                    session.log_input(epoch, worker.index(), 0, &records);
                    records
                }
            };
            for r in records {
                input.send(r);
            }
            input.advance_to(epoch + 1);
            worker.step_while(|| !probe.done_through(epoch));
            if session.should_checkpoint(epoch) {
                session.checkpoint(worker, epoch);
            }
        }
        input.close();
        worker.step_until_done();
        let result = captured.borrow().clone();
        result
    })
}

/// Bit-identical check across every membership phase: each epoch's merged,
/// sorted output must equal the fixed-membership reference.
fn assert_identical(report: &RunReport<Out>, reference: &[Vec<(u64, u64)>]) {
    let merged: Out = report
        .phases
        .iter()
        .flat_map(|phase| phase.results.iter().flatten().cloned())
        .collect();
    for epoch in 0..EPOCHS {
        let mut got: Vec<(u64, u64)> = merged
            .iter()
            .filter(|(e, _)| *e == epoch)
            .flat_map(|(_, d)| d.iter().copied())
            .collect();
        got.sort();
        assert_eq!(
            got, reference[epoch as usize],
            "epoch {epoch} diverged across the rescale"
        );
    }
}

/// Growing 2 → 3 workers at a fence preserves the output bit-for-bit,
/// reports a committed outcome, and records the rescale telemetry on
/// every post-fence worker.
#[test]
fn grow_is_bit_identical_and_completes() {
    with_deadline(120, || {
        let reference = baseline();
        let run = Execution::new(Config::single_process(2).telemetry(true)).elastic(
            &[RescaleStep::new(2, 1, 3)],
            EPOCHS,
            ElasticOptions::default(),
        );
        let report = elastic_run(run, false).expect("clean grow");

        assert_eq!(report.phases.len(), 2, "one membership change, two phases");
        assert_eq!(report.phases[0].workers, 2);
        assert_eq!(report.phases[0].start_epoch, 0);
        assert_eq!(report.phases[0].stop_epoch, 2);
        assert_eq!(report.phases[0].generation, 0);
        assert_eq!(report.phases[1].workers, 3);
        assert_eq!(report.phases[1].start_epoch, 2);
        assert_eq!(report.phases[1].stop_epoch, EPOCHS);
        assert_eq!(report.phases[1].generation, 1);
        assert!(
            matches!(
                report.outcomes[..],
                [RescaleOutcome::Completed {
                    fence: 2,
                    from_workers: 2,
                    to_workers: 3,
                    ..
                }]
            ),
            "unexpected outcomes: {:?}",
            report.outcomes
        );

        let telemetry = report.telemetry.as_ref().expect("telemetry enabled");
        let rescales: u64 = telemetry.workers.iter().map(|w| w.counters.rescales).sum();
        let migrated: u64 = telemetry
            .workers
            .iter()
            .map(|w| w.counters.partitions_migrated)
            .sum();
        assert_eq!(rescales, 3, "every post-fence worker restores a bundle");
        assert!(migrated > 0, "some shard must carry keyed state");

        assert_identical(&report, &reference);
    });
}

/// Shrinking 2 processes × 1 worker down to a single worker — membership
/// change across process boundaries — is the same operation as growing,
/// and equally lossless.
#[test]
fn shrink_across_processes_is_bit_identical() {
    with_deadline(120, || {
        let reference = baseline();
        let run = Execution::new(Config::processes_and_workers(2, 1)).elastic(
            &[RescaleStep::new(2, 1, 1)],
            EPOCHS,
            ElasticOptions::default(),
        );
        let report = elastic_run(run, false).expect("clean shrink");

        assert_eq!(report.phases.len(), 2);
        assert_eq!(report.phases[0].workers, 2);
        assert_eq!(report.phases[1].workers, 1);
        assert!(
            matches!(
                report.outcomes[..],
                [RescaleOutcome::Completed {
                    fence: 2,
                    from_workers: 2,
                    to_workers: 1,
                    ..
                }]
            ),
            "unexpected outcomes: {:?}",
            report.outcomes
        );
        assert_identical(&report, &reference);
    });
}

/// Two fences in one run — grow 2 → 4 then shrink back 4 → 2 — commit
/// independently, bumping the membership generation each time.
#[test]
fn grow_then_shrink_round_trip() {
    with_deadline(120, || {
        let reference = baseline();
        let run = Execution::new(Config::single_process(2)).elastic(
            &[RescaleStep::new(1, 1, 4), RescaleStep::new(3, 1, 2)],
            EPOCHS,
            ElasticOptions::default(),
        );
        let report = elastic_run(run, false).expect("round trip");

        let shape: Vec<(u64, usize, u64, u64)> = report
            .phases
            .iter()
            .map(|p| (p.generation, p.workers, p.start_epoch, p.stop_epoch))
            .collect();
        assert_eq!(shape, vec![(0, 2, 0, 1), (1, 4, 1, 3), (2, 2, 3, 4)]);
        assert!(
            matches!(
                report.outcomes[..],
                [
                    RescaleOutcome::Completed {
                        fence: 1,
                        from_workers: 2,
                        to_workers: 4,
                        ..
                    },
                    RescaleOutcome::Completed {
                        fence: 3,
                        from_workers: 4,
                        to_workers: 2,
                        ..
                    }
                ]
            ),
            "unexpected outcomes: {:?}",
            report.outcomes
        );
        assert_identical(&report, &reference);
    });
}

/// Opaque (non-keyed) state cannot migrate: with certification off, the
/// snapshot step aborts with the typed reason, membership never changes,
/// and the old worker set finishes the run bit-identically.
#[test]
fn opaque_state_aborts_cleanly_and_the_run_completes() {
    with_deadline(120, || {
        let reference = baseline();
        let run = Execution::new(Config::single_process(2)).elastic(
            &[RescaleStep::new(2, 1, 3)],
            EPOCHS,
            ElasticOptions::default().certify(false),
        );
        let report = elastic_run(run, true).expect("an aborted rescale must not kill the run");

        assert!(
            matches!(
                report.outcomes[..],
                [RescaleOutcome::Aborted {
                    fence: 2,
                    error: RescaleError::UnmigratableState { .. },
                }]
            ),
            "unexpected outcomes: {:?}",
            report.outcomes
        );
        for phase in &report.phases {
            assert_eq!(phase.workers, 2, "an aborted rescale keeps membership");
        }
        assert_identical(&report, &reference);
    });
}

/// With rollback disabled, the same abort becomes a typed
/// [`ExecuteError::RescaleFailed`] whose dump names the protocol phase
/// that died.
#[test]
fn rollback_disabled_surfaces_rescale_failed_with_phase_dump() {
    with_deadline(120, || {
        let options = ElasticOptions::default()
            .certify(false)
            .rollback_on_abort(false);
        let run = Execution::new(Config::single_process(2)).elastic(
            &[RescaleStep::new(2, 1, 3)],
            EPOCHS,
            options,
        );
        let err = elastic_run(run, true).expect_err("rollback disabled must fail");
        match err {
            ExecuteError::RescaleFailed {
                epoch,
                from_workers,
                to_workers,
                dump,
            } => {
                assert_eq!((epoch, from_workers, to_workers), (2, 2, 3));
                assert!(
                    dump.contains("phase=snapshot"),
                    "dump must name the protocol phase: {dump}"
                );
                assert!(
                    dump.contains("opaque state"),
                    "dump must carry the underlying error: {dump}"
                );
            }
            other => panic!("expected RescaleFailed, got {other:?}"),
        }
    });
}

/// With certification on (the default), an elastic plan over a graph with
/// opaque state never reaches the fence: the `NA0006` rescale-safe
/// certification denies the graph at construction.
#[test]
fn certification_denies_opaque_state_at_build_time() {
    with_deadline(120, || {
        let run = Execution::new(Config::single_process(2)).elastic(
            &[RescaleStep::new(2, 1, 3)],
            EPOCHS,
            ElasticOptions::default(),
        );
        let err = elastic_run(run, true).expect_err("certification must deny opaque state");
        assert!(
            matches!(err, ExecuteError::WorkerPanic(_)),
            "build-time denial surfaces as the constructing worker's panic, got {err:?}"
        );
    });
}
