//! End-to-end credit-based flow control (DESIGN.md §15).
//!
//! A credited run must be indistinguishable from an uncredited one in
//! *what* it computes — `Block` policy is lossless, `Shed` accounts for
//! every dropped record exactly — while bounding *how much* data sits in
//! flight. Every test also checks the conservation invariant: once the
//! cluster joins, all spent credits have been returned (`in_flight == 0`).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use naiad::dataflow::{InputPort, OutputPort};
use naiad::{
    execute_with_telemetry, Config, FlowConfig, Pact, Scope, ShedPolicy, TelemetrySnapshot,
};
use naiad_examples::my_share;

/// Per-epoch captured output of the pass-through dataflow.
type Out = Vec<(u64, Vec<(u64, u64)>)>;
type Captured = Rc<RefCell<Out>>;

const EPOCHS: u64 = 4;
const RECORDS_PER_EPOCH: u64 = 500;

fn records(epoch: u64) -> Vec<(u64, u64)> {
    (0..RECORDS_PER_EPOCH)
        .map(|i| ((i * 7 + epoch) % 64, i))
        .collect()
}

/// Exchange-by-key pass-through: every record crosses a worker boundary
/// (whenever its key hashes elsewhere), so the credited queues carry the
/// full workload.
fn build(scope: &mut Scope) -> (naiad::InputHandle<(u64, u64)>, naiad::ProbeHandle, Captured) {
    build_routed(scope, |r| r.0)
}

/// [`build`] with the exchange routing every record by `route`.
fn build_routed(
    scope: &mut Scope,
    route: fn(&(u64, u64)) -> u64,
) -> (naiad::InputHandle<(u64, u64)>, naiad::ProbeHandle, Captured) {
    let (input, stream) = scope.new_input::<(u64, u64)>();
    let routed = stream.unary(Pact::exchange(route), "Route", |_info| {
        move |input: &mut InputPort<(u64, u64)>, output: &mut OutputPort<(u64, u64)>| {
            input.for_each(|time, data| {
                let mut session = output.session(time);
                for r in data {
                    session.give(r);
                }
            });
        }
    });
    (input, routed.probe(), routed.capture())
}

/// Runs the pass-through dataflow under `config`, returning the captured
/// records merged across workers and sorted per epoch, plus the snapshot.
fn run(config: Config) -> (Vec<Vec<(u64, u64)>>, TelemetrySnapshot) {
    run_routed(config, |r| r.0)
}

/// [`run`] with the exchange routing every record by `route`.
fn run_routed(
    config: Config,
    route: fn(&(u64, u64)) -> u64,
) -> (Vec<Vec<(u64, u64)>>, TelemetrySnapshot) {
    let (results, snapshot) = execute_with_telemetry(config, move |worker| {
        let (mut input, probe, captured) = worker.dataflow(|scope| build_routed(scope, route));
        for epoch in 0..EPOCHS {
            for r in my_share(&records(epoch), worker.index(), worker.peers()) {
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
    .expect("flow-controlled run completes");
    let merged: Out = results.into_iter().flatten().collect();
    let by_epoch = (0..EPOCHS)
        .map(|e| {
            let mut v: Vec<(u64, u64)> = merged
                .iter()
                .filter(|(epoch, _)| *epoch == e)
                .flat_map(|(_, d)| d.iter().copied())
                .collect();
            v.sort_unstable();
            v
        })
        .collect();
    (by_epoch, snapshot)
}

/// Deadline wrapper: a flow-control bug must fail the test, not wedge it.
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
            panic!("test exceeded its {secs}s deadline — flow control wedged the cluster")
        }
    }
}

/// Credited runs over both queue flavours (intra-process typed queues and
/// the serialized remote path) are bit-identical to the uncredited
/// reference, and all in-flight credits drain by the join.
#[test]
fn credited_run_is_bit_identical_and_drains() {
    with_deadline(120, || {
        let (reference, baseline) = run(Config::processes_and_workers(2, 2));
        assert!(!baseline.flow.enabled, "flow gauges default off");
        let (credited, snapshot) =
            run(Config::processes_and_workers(2, 2).flow(FlowConfig::default().budget(64 << 10)));
        assert_eq!(credited, reference, "flow control must not change output");
        let flow = snapshot.flow;
        assert!(flow.enabled);
        assert!(
            flow.credit_returns > 0,
            "data moved through credited queues"
        );
        assert_eq!(flow.in_flight_bytes, 0, "all spent credits were returned");
        assert_eq!(flow.shed_records, 0, "Block policy is lossless");
    });
}

/// A budget far below the working set forces real credit waits (or
/// overdrafts after the bounded wait) yet loses nothing: `Block` degrades
/// throughput before memory, never correctness.
#[test]
fn tiny_budget_block_policy_is_lossless_under_contention() {
    with_deadline(120, || {
        let (reference, _) = run(Config::processes_and_workers(1, 2));
        // Small batches so each epoch flushes many of them: the queue is
        // non-empty when later batches arrive, which is what makes the
        // budget bind (an empty queue always admits).
        let (credited, snapshot) = run(Config::processes_and_workers(1, 2).batch_size(32).flow(
            FlowConfig::default()
                .budget(512)
                .credit_wait(Duration::from_millis(5)),
        ));
        assert_eq!(credited, reference, "contention must not change output");
        let flow = snapshot.flow;
        assert!(
            flow.credit_waits > 0 || flow.overdrafts > 0,
            "a 512-byte budget against {} records per epoch must contend",
            RECORDS_PER_EPOCH
        );
        assert_eq!(flow.in_flight_bytes, 0);
        assert_eq!(flow.shed_records, 0);
    });
}

/// A sender parked on a remote credit wait is repaid by the consumer,
/// with no thread in the sender's process reading the return. Every key
/// goes to worker 1, so process 0's only worker is the only remote sender,
/// and a budget under one 32-record frame parks it behind every frame it
/// has in flight. Were its returns waiting for a reader in process 0 — the
/// parked worker itself — every wait would run out its 5 s and overdraw.
#[test]
fn a_parked_sender_is_repaid_without_a_reader() {
    with_deadline(120, || {
        let to_worker_1 = |_: &(u64, u64)| 1;
        let config = Config::processes_and_workers(2, 1).batch_size(32);
        let (reference, _) = run_routed(config.clone(), to_worker_1);
        let (credited, snapshot) = run_routed(
            config.flow(
                FlowConfig::default()
                    .budget(64)
                    .credit_wait(Duration::from_secs(5))
                    .policy(ShedPolicy::Block),
            ),
            to_worker_1,
        );
        assert_eq!(credited, reference, "Block is lossless");
        let flow = snapshot.flow;
        assert!(flow.credit_waits > 0, "the sender must park");
        assert_eq!(flow.overdrafts, 0, "every wait ends in a repayment");
        assert_eq!(flow.in_flight_bytes, 0);
    });
}

/// `Shed` policy: the run always completes (shed batches retire their
/// pointstamps, so progress stays sound), and the ledger accounts for
/// every record — captured plus shed equals sent, exactly.
#[test]
fn shed_policy_accounts_for_every_record() {
    with_deadline(120, || {
        let (by_epoch, snapshot) = run(Config::processes_and_workers(1, 2).batch_size(32).flow(
            FlowConfig::default()
                .budget(512)
                .credit_wait(Duration::from_millis(2))
                .policy(ShedPolicy::Shed)
                .thresholds(0.05, 0.1),
        ));
        let sent: u64 = EPOCHS * RECORDS_PER_EPOCH;
        let captured: u64 = by_epoch.iter().map(|v| v.len() as u64).sum();
        let flow = snapshot.flow;
        assert_eq!(
            captured + flow.shed_records,
            sent,
            "every sent record is either delivered or counted as shed"
        );
        if flow.shed_batches == 0 {
            let (reference, _) = run(Config::processes_and_workers(1, 2));
            assert_eq!(by_epoch, reference, "no shedding means bit-identical");
        }
        assert_eq!(flow.in_flight_bytes, 0);
    });
}

/// Ingress admission control: with a one-epoch window, `try_advance_to`
/// denies an epoch that would run ahead of the frontier, the blessed
/// `while !try_advance_to { step }` pattern drains it through, and the
/// producer never holds more than the window open.
#[test]
fn admission_window_bounds_open_epochs() {
    with_deadline(120, || {
        let config = Config::single_process(1).flow(FlowConfig::default().max_open_epochs(1));
        let (results, _snapshot) = execute_with_telemetry(config, |worker| {
            let (mut input, probe, captured) = worker.dataflow(build);
            assert_eq!(
                input.admission_window(),
                Some(1),
                "the handle inherits the flow config's window"
            );
            let mut denied = false;
            for epoch in 0..EPOCHS {
                for r in records(epoch) {
                    input.send(r);
                }
                let next = epoch + 1;
                if !input.try_advance_to(next) {
                    denied = true;
                    while !input.try_advance_to(next) {
                        worker.step();
                    }
                }
                assert!(
                    input.open_epochs() <= 1,
                    "the window caps epochs open beyond the frontier"
                );
            }
            assert!(
                denied,
                "advancing without stepping must trip the window at least once"
            );
            input.close();
            worker.step_while(|| !probe.done_through(EPOCHS - 1));
            worker.step_until_done();
            let count: usize = captured.borrow().iter().map(|(_, d)| d.len()).sum();
            count
        })
        .expect("windowed run completes");
        assert_eq!(
            results[0] as u64,
            EPOCHS * RECORDS_PER_EPOCH,
            "admission control delays epochs, never records"
        );
    });
}
