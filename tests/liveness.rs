//! Failure detection and liveness, end to end (§3.4/§3.5):
//!
//! * a process that dies *silently* — crashed or partitioned while no
//!   data moves on its links — is detected by the heartbeat machinery
//!   within the configured bound and absorbed by coordinated rollback,
//!   with output bit-identical to a fault-free run;
//! * the same scenarios with heartbeats disabled end in a typed
//!   [`ExecuteError::Stalled`] carrying a structured state dump, never a
//!   hang.
//!
//! Before this machinery existed, every one of these runs wedged forever:
//! fault detection rode exclusively on send errors, so a failure on a
//! quiet link was invisible.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use naiad::dataflow::{InputPort, OutputPort};
use naiad::{
    execute, execute_with_metrics, execute_with_telemetry, Config, ElasticOptions, ExecuteError,
    Execution, FlowConfig, Pact, PhaseReport, RecoveryOptions, RescaleOutcome, RescaleStep,
    RunReport, Scope, Stream, Worker,
};
use naiad_examples::my_share;

/// Per-epoch captured output of the keyed-min dataflow.
type Out = Vec<(u64, Vec<(u64, u64)>)>;
type Captured = Rc<RefCell<Out>>;

const EPOCHS: u64 = 2;

fn inputs() -> Vec<Vec<(u64, u64)>> {
    vec![
        vec![(2, 50), (4, 60), (6, 70)],
        vec![(2, 45), (4, 20), (6, 75)], // only 2 and 4 improve
    ]
}

/// Keyed monotonic minimum with ALL records exchanged to worker 0: the
/// workers on process 1 are receive-only for data, so links into and out
/// of process 1 carry progress and heartbeats but never data — the
/// configuration where send-error-based detection is blind.
fn build(scope: &mut Scope) -> (naiad::InputHandle<(u64, u64)>, naiad::ProbeHandle, Captured) {
    let (input, stream) = scope.new_input::<(u64, u64)>();
    let (probe, captured) = min_at_zero(&stream);
    (input, probe, captured)
}

/// The keyed minimum of [`build`], over any stream.
fn min_at_zero(stream: &Stream<(u64, u64)>) -> (naiad::ProbeHandle, Captured) {
    let mins = stream.unary(Pact::exchange(|_: &(u64, u64)| 0), "MinAtZero", |info| {
        let acc: Rc<RefCell<HashMap<u64, u64>>> = Rc::new(RefCell::new(HashMap::new()));
        info.register_keyed_state(acc.clone(), |_: &u64| 0);
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
    });
    (mins.probe(), mins.capture())
}

/// Runs `f` on a helper thread and panics if it exceeds `secs` — the
/// watchdog the whole issue is about: liveness failures must surface as
/// typed errors, not wedged test runs.
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
        // The closure panicked: the sender dropped without a value.
        // Re-raise the original panic instead of blaming the deadline.
        Err(mpsc::RecvTimeoutError::Disconnected) => match handle.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("sender dropped without sending yet the closure returned"),
        },
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("test exceeded its {secs}s deadline — liveness machinery failed")
        }
    }
}

fn detect_config(heartbeats: bool) -> Config {
    let config = Config::processes_and_workers(2, 1);
    if heartbeats {
        config
            .heartbeats(true)
            .heartbeat_interval(Duration::from_millis(5))
            .heartbeat_timeouts(Duration::from_millis(25), Duration::from_millis(120))
    } else {
        config
    }
}

/// The two silent-failure flavours: a fail-stop crash during an idle
/// phase, and a one-way partition cutting the victim's outgoing link
/// before any data flows.
#[derive(Clone, Copy, PartialEq)]
enum Silent {
    Crash,
    Partition,
}

/// Lets in-flight progress broadcasts drain before the victim dies.
/// Without this the crash races the epoch-0 completion broadcast: a
/// straggling send into the freshly dead process would surface a send
/// error, and the scenario would no longer be *silent*.
fn drain_fabric() {
    thread::sleep(Duration::from_millis(300));
}

/// Emulates fail-silent death: the fabric state is already flipped
/// (crashed or severed); the worker thread keeps stepping — sending
/// nothing, journal empty — until cluster-wide detection (or a stall
/// declaration) unwinds it.
fn play_dead(worker: &mut Worker) -> ! {
    worker.step_while(|| true);
    unreachable!("a silent worker only leaves by unwinding");
}

/// Feeds every epoch through the dataflow `build` makes, one epoch in
/// flight, and returns what the worker captured.
fn drive(
    worker: &mut Worker,
    build: impl FnOnce(&mut Scope) -> (naiad::InputHandle<(u64, u64)>, naiad::ProbeHandle, Captured),
) -> Out {
    let all = inputs();
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
}

/// Every worker's captures, merged and sorted per epoch.
fn by_epoch(results: Vec<Out>) -> Vec<Vec<(u64, u64)>> {
    let mut merged: Out = results.into_iter().flatten().collect();
    merged.sort();
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

/// The fault-free reference: output per epoch, plus the fabric meters
/// proving the victim's incoming link never carries data.
fn reference_run() -> (Vec<Vec<(u64, u64)>>, u64) {
    let (results, metrics) =
        execute_with_metrics(detect_config(false), |worker| drive(worker, build))
            .expect("fault-free reference");
    let data_into_victim = metrics.link_counters(0, 1).data.messages;
    (by_epoch(results), data_into_victim)
}

/// The silent-failure scenario under coordinated recovery. Attempt 0
/// suffers the fault mid-run; later attempts are healthy. Returns the
/// run's single phase.
fn silent_failure_report(fault: Silent, config: Config) -> PhaseReport<(u64, Out)> {
    let all = Arc::new(inputs());
    Execution::new(config)
        .resilient(
            RecoveryOptions::default()
                .max_attempts(3)
                .checkpoint_every(1),
        )
        .run(move |worker, recovery| {
            let (mut input, probe, captured) = worker.dataflow(build);
            recovery.restore_into(worker);
            // Partition flavour: the victim's outgoing link dies before
            // any data flows, and the victim never speaks again.
            if recovery.attempt() == 0 && fault == Silent::Partition && worker.index() == 1 {
                worker.fault_controller().sever(1, 0);
                play_dead(worker);
            }
            let resume = recovery.resume_epoch();
            for (local, epoch) in (resume..EPOCHS).enumerate() {
                let local = local as u64;
                let records = match recovery.logged_input::<(u64, u64)>(epoch, worker.index(), 0) {
                    Some(records) => records,
                    None => {
                        let records =
                            my_share(&all[epoch as usize], worker.index(), worker.peers());
                        recovery.log_input(epoch, worker.index(), 0, &records);
                        records
                    }
                };
                for r in records {
                    input.send(r);
                }
                input.advance_to(local + 1);
                worker.step_while(|| !probe.done_through(local));
                if recovery.should_checkpoint(epoch) {
                    recovery.checkpoint(worker, epoch);
                }
                // Crash flavour: epoch 0 is durably done; the cluster goes
                // idle; the victim dies without a word.
                if recovery.attempt() == 0 && epoch == 0 && fault == Silent::Crash {
                    if worker.index() == 1 {
                        drain_fabric();
                        worker.fault_controller().crash(1);
                        play_dead(worker);
                    } else {
                        // The survivor idles on an epoch that can only
                        // complete with the victim's participation; it
                        // sends nothing, so only liveness machinery (or a
                        // stall declaration) can end the wait.
                        worker.step_while(|| !probe.done_through(EPOCHS));
                    }
                }
            }
            input.close();
            worker.step_until_done();
            let result = (resume, captured.borrow().clone());
            result
        })
        .expect("silent failure must be detected and recovered")
        .phases
        .pop()
        .expect("a run without rescale steps has one phase")
}

/// Checks a recovered report's output against the reference, epoch by
/// epoch from the cluster-wide resume point. Captures are merged across
/// workers first: the exchange routes every record to worker 0, so the
/// other workers' captures are legitimately empty.
fn assert_bit_identical(report: &PhaseReport<(u64, Out)>, reference: &[Vec<(u64, u64)>]) {
    let resume = report.results[0].0;
    for (r, _) in &report.results {
        assert_eq!(*r, resume, "the resume epoch is a cluster-wide decision");
    }
    let merged: Out = report
        .results
        .iter()
        .flat_map(|(_, captured)| captured.iter().cloned())
        .collect();
    for local in 0..(EPOCHS - resume) {
        let mut got: Vec<(u64, u64)> = merged
            .iter()
            .filter(|(epoch, _)| *epoch == local)
            .flat_map(|(_, d)| d.iter().copied())
            .collect();
        got.sort();
        assert_eq!(
            got,
            reference[(resume + local) as usize],
            "epoch {} diverged after recovery",
            resume + local
        );
    }
}

/// The plain (non-recovering) silent-failure run: returns the typed error.
fn silent_failure_error(fault: Silent, config: Config) -> ExecuteError {
    let all = Arc::new(inputs());
    execute(config, move |worker| {
        let (mut input, probe, _captured) = worker.dataflow(build);
        if fault == Silent::Partition && worker.index() == 1 {
            worker.fault_controller().sever(1, 0);
            play_dead(worker);
        }
        for epoch in 0..EPOCHS {
            for r in my_share(&all[epoch as usize], worker.index(), worker.peers()) {
                input.send(r);
            }
            input.advance_to(epoch + 1);
            worker.step_while(|| !probe.done_through(epoch));
            if epoch == 0 && fault == Silent::Crash {
                if worker.index() == 1 {
                    drain_fabric();
                    worker.fault_controller().crash(1);
                    play_dead(worker);
                } else {
                    worker.step_while(|| !probe.done_through(EPOCHS));
                }
            }
        }
        input.close();
        worker.step_until_done();
    })
    .expect_err("a silent failure must surface as a typed error")
}

/// Silent-failure e2e, crash flavour: process 1 dies mid-idle with zero
/// data ever sent on its incoming link; heartbeats detect it, recovery
/// rolls back to the epoch-0 checkpoint, and the recovered output matches
/// the fault-free run exactly.
#[test]
fn heartbeats_detect_silent_crash_and_recover() {
    with_deadline(120, || {
        let (reference, data_into_victim) = reference_run();
        assert_eq!(
            data_into_victim, 0,
            "scenario invariant: the victim's incoming link never carries data"
        );
        let report = silent_failure_report(Silent::Crash, detect_config(true));
        assert_eq!(report.attempts, 2, "one failure, one clean re-run");
        assert_eq!(
            report.recovered_from,
            vec![ExecuteError::ProcessCrashed { process: 1 }]
        );
        // Epoch 0 was durably checkpointed before the crash.
        assert_eq!(report.results[0].0, 1, "resumed from the checkpoint");
        assert_bit_identical(&report, &reference);
    });
}

/// Regression for the pre-heartbeat hang (satellite of the issue):
/// partition the receive-only worker's outgoing link *before any data
/// flows*. Detection now comes from the receive-side silence timeout and
/// recovery replays from scratch.
#[test]
fn partition_before_data_flows_is_detected_and_recovered() {
    with_deadline(120, || {
        let (reference, _) = reference_run();
        let report = silent_failure_report(Silent::Partition, detect_config(true));
        assert_eq!(report.attempts, 2);
        assert_eq!(
            report.recovered_from,
            vec![ExecuteError::ProcessCrashed { process: 1 }],
            "silence past the failure threshold declares the peer dead"
        );
        // The fault struck before any checkpoint: full replay.
        assert_eq!(report.results[0].0, 0);
        assert_bit_identical(&report, &reference);
    });
}

/// Detection latency is bounded by the configured thresholds, not by the
/// workload: with a 120 ms failure threshold the error arrives within
/// seconds even though no data would ever flow again.
#[test]
fn detection_latency_is_bounded() {
    with_deadline(60, || {
        let start = std::time::Instant::now();
        let err = silent_failure_error(Silent::Partition, detect_config(true).no_stall_timeout());
        assert_eq!(err, ExecuteError::ProcessCrashed { process: 1 });
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "detection took {:?}, bound is ~120 ms + scheduling slack",
            start.elapsed()
        );
    });
}

/// With heartbeats off, the same silent crash is caught by the stall
/// watchdog instead of hanging: a typed error carrying the structured
/// state dump.
#[test]
fn silent_crash_without_heartbeats_stalls_with_dump() {
    with_deadline(120, || {
        let config = detect_config(false).stall_timeout(Duration::from_millis(500));
        match silent_failure_error(Silent::Crash, config) {
            ExecuteError::Stalled { dump, .. } => {
                assert!(!dump.is_empty(), "the stall dump must carry state");
                assert!(dump.contains("\"active\""), "dump lists live pointstamps");
                assert!(
                    dump.contains("\"ev\":\"mailbox\",\"due\":")
                        && dump.contains("\"not_yet_due\":"),
                    "dump reports the data parked in the worker's mailbox: {dump}"
                );
                assert!(
                    dump.contains("\"notifications\":") && dump.contains("\"notification_min\":"),
                    "dump reports the pending notification requests: {dump}"
                );
            }
            other => panic!("expected a stall declaration, got {other:?}"),
        }
    });
}

/// Same for the quiet partition: no heartbeats, no hang — a stall.
#[test]
fn silent_partition_without_heartbeats_stalls() {
    with_deadline(120, || {
        let config = detect_config(false).stall_timeout(Duration::from_millis(500));
        let err = silent_failure_error(Silent::Partition, config);
        assert!(
            matches!(err, ExecuteError::Stalled { .. }),
            "expected a stall declaration, got {err:?}"
        );
        let shown = err.to_string();
        assert!(shown.contains("global stall"), "display: {shown}");
    });
}

/// Regression for the watchdog's credit-ledger dump: with flow control
/// configured, the stall dump carries a `flow_cells` line listing every
/// credit cell's in-flight gauge. The dump path uses `try_lock` end to
/// end (`FlowRegistry::dump_cells`) because the watchdog fires while
/// senders may be parked mid-protocol on those very mutexes — a
/// diagnostic must never deadlock on the state it is reporting.
#[test]
fn stall_dump_reports_flow_cells_without_blocking() {
    with_deadline(120, || {
        let config = detect_config(false)
            .stall_timeout(Duration::from_millis(500))
            .flow(FlowConfig::default().budget(1 << 20));
        match silent_failure_error(Silent::Crash, config) {
            ExecuteError::Stalled { dump, .. } => {
                assert!(
                    dump.contains("\"ev\":\"flow_cells\""),
                    "dump must carry the per-cell credit ledger: {dump}"
                );
                assert!(
                    dump.contains("\"cells\":["),
                    "the ledger must render as a JSON list, not a placeholder: {dump}"
                );
            }
            other => panic!("expected a stall declaration, got {other:?}"),
        }
    });
}

/// A declared stall is recoverable: rollback gives the computation a
/// fresh fabric, and the recovered output still matches the reference.
#[test]
fn stall_declarations_feed_coordinated_recovery() {
    with_deadline(120, || {
        let (reference, _) = reference_run();
        let config = detect_config(false).stall_timeout(Duration::from_millis(500));
        let report = silent_failure_report(Silent::Crash, config);
        assert_eq!(report.attempts, 2);
        assert_eq!(report.recovered_from.len(), 1);
        assert!(
            matches!(report.recovered_from[0], ExecuteError::Stalled { .. }),
            "recovered from {:?}",
            report.recovered_from[0]
        );
        assert_bit_identical(&report, &reference);
    });
}

/// An elastic run whose *migration window* wedges: the post-fence phase
/// (membership generation 1) has a worker go silent, so the fence-epoch
/// replay can never complete. The migration deadline is installed as the
/// window's stall watchdog, bounding the wedge.
fn wedged_migration_run(options: ElasticOptions) -> Result<RunReport<Out>, ExecuteError> {
    let all = Arc::new(inputs());
    Execution::new(Config::single_process(2))
        .elastic(&[RescaleStep::new(1, 1, 3)], EPOCHS, options)
        .run(move |worker, session| {
            let (mut input, probe, captured) = worker.dataflow(build);
            session.restore_into(worker);
            // Generation 1 is the provisional post-rescale membership; its
            // first attempt wedges. A rollback re-runs under generation 2,
            // healthy.
            if session.generation() == 1 && worker.index() == 0 {
                play_dead(worker);
            }
            if session.resume_epoch() > 0 {
                input.advance_to(session.resume_epoch());
            }
            for epoch in session.resume_epoch()..session.stop_epoch() {
                let records = match session.logged_input::<(u64, u64)>(epoch, worker.index(), 0) {
                    Some(records) => records,
                    None => {
                        let records =
                            my_share(&all[epoch as usize], worker.index(), worker.peers());
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

/// Regression: a migration window that overruns its deadline with
/// rollback disabled dies with a typed [`ExecuteError::RescaleFailed`]
/// whose dump names the protocol phase, the consumed budget, and the
/// underlying stall — never a hang.
#[test]
fn overrunning_migration_fails_typed_with_phase_dump() {
    with_deadline(120, || {
        let options = ElasticOptions::default()
            .recovery(
                RecoveryOptions::default()
                    .max_attempts(1)
                    .checkpoint_every(1),
            )
            .migration_deadline(Duration::from_millis(500))
            .rollback_on_abort(false);
        match wedged_migration_run(options) {
            Err(ExecuteError::RescaleFailed {
                epoch,
                from_workers,
                to_workers,
                dump,
            }) => {
                assert_eq!((epoch, from_workers, to_workers), (1, 2, 3));
                assert!(
                    dump.contains("phase=resume") && dump.contains("attempts=1"),
                    "dump must name the protocol phase and budget: {dump}"
                );
                assert!(
                    dump.contains("global stall"),
                    "dump must carry the underlying stall: {dump}"
                );
            }
            other => panic!("expected RescaleFailed, got {other:?}"),
        }
    });
}

/// The same wedge with rollback enabled: the run reverts to the
/// pre-rescale membership at the fence, finishes bit-identically to the
/// fault-free reference, and reports the rollback with its stall cause.
#[test]
fn overrunning_migration_rolls_back_and_completes() {
    with_deadline(120, || {
        let (reference, _) = reference_run();
        let options = ElasticOptions::default()
            .recovery(
                RecoveryOptions::default()
                    .max_attempts(1)
                    .checkpoint_every(1),
            )
            .migration_deadline(Duration::from_millis(500));
        let report = wedged_migration_run(options).expect("rollback must save the run");
        assert!(
            matches!(
                &report.outcomes[..],
                [RescaleOutcome::RolledBack {
                    fence: 1,
                    to_workers: 3,
                    cause: ExecuteError::Stalled { .. },
                }]
            ),
            "unexpected outcomes: {:?}",
            report.outcomes
        );
        for phase in &report.phases {
            assert_eq!(phase.workers, 2, "a rolled-back rescale keeps membership");
        }
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
                "epoch {epoch} diverged after the rollback"
            );
        }
    });
}

/// Regression: a worker parked on a credit wait is *backpressured*, not
/// stalled. A slow consumer plus a tiny credit budget keeps the cluster's
/// frontier silent for far longer than the stall timeout — before the
/// watchdog learned to read the credit gauges, the idle third worker
/// declared `ExecuteError::Stalled` here. Credits keep moving (returns on
/// every consumed batch, senders parked on bounded waits), so the run
/// must complete losslessly instead.
#[test]
fn backpressured_worker_is_not_declared_stalled() {
    with_deadline(120, || {
        const SLOW_EPOCHS: u64 = 24;
        const PER_EPOCH: u64 = 48;
        let config = Config::single_process(3)
            .batch_size(32)
            .stall_timeout(Duration::from_millis(300))
            .flow(
                FlowConfig::default()
                    .budget(1024)
                    .credit_wait(Duration::from_millis(20)),
            );
        let (results, snapshot) = execute_with_telemetry(config, |worker| {
            let (mut input, probe, captured) = worker.dataflow(|scope: &mut Scope| {
                let (input, stream) = scope.new_input::<(u64, u64)>();
                // Everything lands at worker 1, whose vertex dawdles: the
                // backlog parks the sender while epochs stay open.
                let out = stream.unary(Pact::exchange(|_: &(u64, u64)| 1), "Dawdle", |_info| {
                    move |input: &mut InputPort<(u64, u64)>, output: &mut OutputPort<(u64, u64)>| {
                        input.for_each(|time, data| {
                            thread::sleep(Duration::from_millis(25));
                            let mut session = output.session(time);
                            for r in data {
                                session.give(r);
                            }
                        });
                    }
                });
                (input, out.probe(), out.capture())
            });
            if worker.index() == 0 {
                for epoch in 0..SLOW_EPOCHS {
                    for i in 0..PER_EPOCH {
                        input.send((epoch, i));
                    }
                    input.advance_to(epoch + 1);
                }
            }
            input.close();
            worker.step_while(|| !probe.done_through(SLOW_EPOCHS - 1));
            worker.step_until_done();
            let count: u64 = captured.borrow().iter().map(|(_, d)| d.len() as u64).sum();
            count
        })
        .expect("backpressure must extend the stall clock, not trip it");
        assert_eq!(
            results.iter().sum::<u64>(),
            SLOW_EPOCHS * PER_EPOCH,
            "the backpressured run is lossless"
        );
        assert!(
            snapshot.flow.credit_waits > 0,
            "the scenario must actually park a sender"
        );
    });
}

/// Healthy clusters with heartbeats on: beats flow, nobody is declared
/// failed, and the telemetry snapshot accounts for the control plane.
#[test]
fn healthy_heartbeats_are_benign_and_metered() {
    with_deadline(120, || {
        let all = Arc::new(inputs());
        let (results, snapshot) = execute_with_telemetry(detect_config(true), move |worker| {
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
        .expect("healthy run must not be disturbed by heartbeats");
        assert!(!results.is_empty());
        assert!(
            snapshot.hub.heartbeats_sent > 0,
            "standalone beats must flow between processes"
        );
        assert_eq!(snapshot.hub.peer_failures, 0, "nobody died");
        assert!(
            snapshot.traffic.control_total.messages >= snapshot.hub.heartbeats_sent,
            "control class meters the heartbeat channel: {} metered, {} sent",
            snapshot.traffic.control_total.messages,
            snapshot.hub.heartbeats_sent
        );
    });
}

/// A busy process is not a dead one: process 1's only worker spends
/// 400 ms — over three failure thresholds — inside one operator call in
/// epoch 1. Its process keeps beating all the while, because the detector
/// runs on a thread of its own rather than on the steps of the worker it
/// vouches for: nobody is declared failed, and the output matches the
/// fault-free reference.
#[test]
fn a_long_operator_is_not_a_dead_process() {
    with_deadline(120, || {
        let (reference, _) = reference_run();
        let (results, snapshot) = execute_with_telemetry(detect_config(true), |worker| {
            let dawdler = worker.index() == 1;
            drive(worker, |scope: &mut Scope| {
                let (input, stream) = scope.new_input::<(u64, u64)>();
                let stream = stream.unary(Pact::Pipeline, "Dawdle", move |_info| {
                    move |input: &mut InputPort<(u64, u64)>, output: &mut OutputPort<(u64, u64)>| {
                        input.for_each(|time, data| {
                            if dawdler && time.epoch == 1 {
                                thread::sleep(Duration::from_millis(400));
                            }
                            output.session(time).give_vec(data);
                        });
                    }
                });
                let (probe, captured) = min_at_zero(&stream);
                (input, probe, captured)
            })
        })
        .expect("a long operator call is not a fault");
        assert!(snapshot.hub.heartbeats_sent > 0);
        assert_eq!(snapshot.hub.peer_failures, 0, "nobody died");
        assert_eq!(by_epoch(results), reference);
    });
}
