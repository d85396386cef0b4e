//! Who delivers a progress batch (DESIGN.md §10): the thread that
//! flushes it puts one copy per process into the mailboxes of all that
//! process's workers — its own process included — and each worker applies
//! the batches it drains from its own mailbox. The own-process copy is
//! still a fabric send — fault schedules, Fig 6c bytes — but it never
//! leaves the process, so a latency model does not delay it.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use naiad::dataflow::{InputPort, Notify, OutputPort};
use naiad::graph::ContextId;
use naiad::progress::ProgressMode;
use naiad::telemetry::TelemetryEvent;
use naiad::{
    execute, execute_with_telemetry, Config, ExecuteError, Pact, Scope, TelemetrySnapshot,
    Timestamp,
};
use naiad_examples::my_share;
use naiad_netsim::{FaultPlan, LatencyModel};

const EPOCHS: u64 = 5;

/// Per-epoch sorted `(key, sum)` rows.
type Output = Vec<Vec<(u64, u64)>>;
/// What one worker captured: `(epoch, rows)` in emission order.
type WorkerRows = Vec<(u64, Vec<(u64, u64)>)>;
type Captured = Rc<RefCell<WorkerRows>>;

fn inputs() -> Vec<Vec<(u64, u64)>> {
    (0..EPOCHS)
        .map(|e| (0..24).map(|i| (i % 7, 10 * e + i)).collect())
        .collect()
}

/// Sum per key per epoch, exchanged by key: the sums are emitted from
/// `OnNotify`, so every epoch's output waits on the progress protocol.
fn build(scope: &mut Scope) -> (naiad::InputHandle<(u64, u64)>, naiad::ProbeHandle, Captured) {
    let (input, stream) = scope.new_input::<(u64, u64)>();
    let sums = stream.unary_notify(Pact::exchange(|(k, _): &(u64, u64)| *k), "KeyedSum", |_| {
        let pending: Rc<RefCell<HashMap<Timestamp, HashMap<u64, u64>>>> = Rc::default();
        let recv = pending.clone();
        (
            move |input: &mut InputPort<(u64, u64)>,
                  _output: &mut OutputPort<(u64, u64)>,
                  notify: &Notify| {
                input.for_each(|time, data| {
                    let mut pending = recv.borrow_mut();
                    let sums = pending.entry(time).or_insert_with(|| {
                        notify.notify_at(time);
                        HashMap::new()
                    });
                    for (k, v) in data {
                        *sums.entry(k).or_insert(0) += v;
                    }
                });
            },
            move |time: Timestamp, output: &mut OutputPort<(u64, u64)>, _notify: &Notify| {
                if let Some(sums) = pending.borrow_mut().remove(&time) {
                    let mut rows: Vec<_> = sums.into_iter().collect();
                    rows.sort_unstable();
                    output.session(time).give_iterator(rows);
                }
            },
        )
    });
    (input, sums.probe(), sums.capture())
}

/// The worker closure: a closed loop, one epoch in flight.
fn drive(worker: &mut naiad::Worker) -> WorkerRows {
    let all = inputs();
    let (mut input, probe, captured) = worker.dataflow(build);
    for epoch in 0..EPOCHS {
        for record in my_share(&all[epoch as usize], worker.index(), worker.peers()) {
            input.send(record);
        }
        input.advance_to(epoch + 1);
        worker.step_while(|| !probe.done_through(epoch));
    }
    input.close();
    worker.step_until_done();
    let rows = captured.borrow().clone();
    rows
}

fn merge(per_worker: Vec<WorkerRows>) -> Output {
    let mut out = vec![Vec::new(); EPOCHS as usize];
    for (epoch, rows) in per_worker.into_iter().flatten() {
        out[epoch as usize].extend(rows);
    }
    for rows in &mut out {
        rows.sort_unstable();
    }
    out
}

fn run(config: Config) -> Output {
    merge(execute(config, drive).expect("fault-free run"))
}

fn run_traced(config: Config) -> (Output, TelemetrySnapshot) {
    let (rows, snapshot) =
        execute_with_telemetry(config.telemetry_capacity(1 << 16), drive).expect("fault-free run");
    (merge(rows), snapshot)
}

fn reference() -> Output {
    run(Config::single_process(1))
}

/// The distinct `(sender, seq)` batches one worker applied.
fn batches_applied(snapshot: &TelemetrySnapshot, worker: usize) -> BTreeSet<(u32, u64)> {
    snapshot.logs[worker]
        .events
        .iter()
        .filter_map(|r| match r.event {
            TelemetryEvent::ProgressApplied { sender, seq, .. } => Some((sender, seq)),
            _ => None,
        })
        .collect()
}

/// Each worker's mailbox drains exactly the batches the fabric metered
/// into its process: one frame per batch, whoever flushed it.
fn assert_every_worker_drained(snapshot: &TelemetrySnapshot, frames: u64, label: &str) {
    for worker in &snapshot.workers {
        assert_eq!(
            worker.counters.progress_frames, frames,
            "{label}: worker {} drained its process's batches",
            worker.worker
        );
    }
}

/// One process, two workers: every batch stays in the process, so the
/// flushing thread puts each into both workers' mailboxes, and the
/// loopback link meters each exactly once.
#[test]
fn own_process_batches_ride_the_mailbox_and_are_metered_once() {
    for mode in [ProgressMode::Local, ProgressMode::Broadcast] {
        let (rows, snapshot) = run_traced(Config::single_process(2).progress_mode(mode));
        assert_eq!(rows, reference(), "{mode:?}");

        let batches = batches_applied(&snapshot, 0);
        assert!(!batches.is_empty(), "{mode:?}: the run made progress");
        assert_eq!(
            batches,
            batches_applied(&snapshot, 1),
            "{mode:?}: both workers see every batch"
        );
        let emitted = batches.len() as u64;
        assert_every_worker_drained(&snapshot, emitted, &format!("{mode:?}"));

        let hub = snapshot.hub;
        assert_eq!(hub.progress_local_deliveries, emitted, "{mode:?}");

        let traffic = snapshot.traffic;
        assert_eq!(
            traffic.progress_total.messages, emitted,
            "{mode:?}: loopback metered once per batch — not zero, not twice"
        );
        assert!(traffic.progress_total.bytes > 0, "{mode:?}");
        assert_eq!(
            traffic.progress_network.messages, 0,
            "{mode:?}: one process has no network links"
        );
    }
}

/// The own-process copy never leaves the process, so a latency model on
/// the fabric does not delay it (netsim's
/// `a_fan_out_is_admitted_and_metered_once` pins the undelayed delivery):
/// it is metered once and drained by every worker, as without a model.
#[test]
fn latency_model_does_not_reroute_the_own_process_copy() {
    let model = LatencyModel::constant(Duration::from_millis(3));
    let (rows, snapshot) = run_traced(Config::single_process(2).latency(model));
    assert_eq!(rows, reference());
    let emitted = batches_applied(&snapshot, 0).len() as u64;
    assert_eq!(snapshot.hub.progress_local_deliveries, emitted);
    assert_eq!(snapshot.traffic.progress_total.messages, emitted);
    assert_every_worker_drained(&snapshot, emitted, "latency");
}

/// A scheduled crash (`FaultPlan::crash(process, after_sends)`, what the
/// chaos soak's plans carry) counts fabric send attempts, own-process
/// progress batches included. On one process and one worker the attempt
/// sequence is a pure function of the program, so the crash point has a
/// sharp edge: scheduled at the run's last attempt it fires, one later it
/// never does.
#[test]
fn scheduled_crash_counts_own_process_batches_as_sends() {
    let (_, snapshot) = run_traced(Config::single_process(1));
    let attempts = snapshot.traffic.progress_total.messages;
    assert!(attempts > 0, "own-process batches count as send attempts");

    let crash_at = |after_sends| {
        let plan = FaultPlan::seeded(5).crash(0, after_sends);
        execute(Config::single_process(1).faults(plan), drive).map(merge)
    };
    assert_eq!(
        crash_at(attempts - 1),
        Err(ExecuteError::ProcessCrashed { process: 0 }),
        "a crash scheduled at the last attempt fires on it"
    );
    assert_eq!(crash_at(attempts), Ok(reference()), "one later never fires");
}

/// Two processes of two workers: the own-process copy skips the latency
/// of a link, the other process's crosses one; the output does not care,
/// in any accumulation mode.
#[test]
fn mixed_delivery_is_bit_identical_to_the_single_worker_reference() {
    let reference = Arc::new(reference());
    for mode in [
        ProgressMode::Local,
        ProgressMode::Broadcast,
        ProgressMode::LocalGlobal,
        ProgressMode::Global,
    ] {
        let (rows, snapshot) = run_traced(Config::processes_and_workers(2, 2).progress_mode(mode));
        assert_eq!(rows, *reference, "{mode:?}");
        assert!(
            snapshot.traffic.progress_network.messages > 0,
            "{mode:?}: copies cross processes"
        );
        assert!(
            snapshot
                .workers
                .iter()
                .all(|w| w.counters.progress_frames > 0),
            "{mode:?}: every worker drains progress from its mailbox"
        );
        let hub = snapshot.hub;
        // With a central accumulator every broadcast originates at the
        // extra endpoint, so no process ever addresses itself.
        assert_eq!(
            hub.progress_local_deliveries > 0,
            !mode.global(),
            "{mode:?}: local deliveries"
        );
    }
}

/// Sends this worker's share of `epoch` and moves the input past it.
fn feed(input: &mut naiad::InputHandle<(u64, u64)>, worker: &naiad::Worker, epoch: u64) {
    for record in my_share(&inputs()[epoch as usize], worker.index(), worker.peers()) {
        input.send(record);
    }
    input.advance_to(epoch + 1);
}

/// Two dataflows per worker, the second built while the first is
/// streaming — and by the last worker only once its peers' first batches
/// for it have reached that worker, which can then only stash them.
fn drive_two(worker: &mut naiad::Worker) -> (WorkerRows, WorkerRows) {
    let late = worker.index() + 1 == worker.peers();
    let (mut first, first_probe, first_rows) = worker.dataflow(build);
    feed(&mut first, worker, 0);
    worker.step_while(|| !first_probe.done_through(0));
    let mut second = None;
    if !late {
        let (mut input, probe, rows) = worker.dataflow(build);
        feed(&mut input, worker, 0);
        // The batch retiring the second dataflow's epoch 0 leaves in this
        // step, before the first dataflow's next one is journaled.
        worker.step();
        second = Some((input, probe, rows));
    }
    feed(&mut first, worker, 1);
    // Senders are FIFO, and an input's retirement is held by no process
    // accumulator of a two-process run: when every peer's epoch-1
    // retirement of the first dataflow has been applied here, their
    // batches for the second dataflow arrived before it. (The global
    // modes' central accumulator is sole: it holds those batches' input
    // retirements while this worker's a-priori stamp keeps the input
    // active, so there nothing outruns the construction.)
    worker.step_while(|| !first_probe.done_through(1));
    let (mut second, second_probe, second_rows) = second.unwrap_or_else(|| {
        let (mut input, probe, rows) = worker.dataflow(build);
        feed(&mut input, worker, 0);
        (input, probe, rows)
    });
    for epoch in 1..EPOCHS {
        feed(&mut second, worker, epoch);
        // The first dataflow runs one epoch ahead, and so finishes first.
        let ahead = (epoch + 1).min(EPOCHS - 1);
        if ahead > epoch {
            feed(&mut first, worker, ahead);
        }
        worker.step_while(|| !second_probe.done_through(epoch) || !first_probe.done_through(ahead));
    }
    first.close();
    second.close();
    worker.step_until_done();
    let rows = (first_rows.borrow().clone(), second_rows.borrow().clone());
    rows
}

/// Every progress mode on two processes of two workers: both dataflows
/// equal the single-worker reference, nothing applies to a dataflow
/// before it is built, and under `Local` the late worker applied its
/// peers' stashed batches when it built the second dataflow.
#[test]
fn a_dataflow_built_late_replays_the_batches_that_outran_it() {
    let reference = reference();
    let both = |per_worker: Vec<(WorkerRows, WorkerRows)>| {
        let (first, second): (Vec<_>, Vec<_>) = per_worker.into_iter().unzip();
        (merge(first), merge(second))
    };
    let alone = execute(Config::single_process(1), drive_two).expect("fault-free run");
    assert_eq!(both(alone), (reference.clone(), reference.clone()));
    for mode in [
        ProgressMode::Local,
        ProgressMode::Broadcast,
        ProgressMode::LocalGlobal,
        ProgressMode::Global,
    ] {
        let config = Config::processes_and_workers(2, 2)
            .progress_mode(mode)
            .telemetry_capacity(1 << 16);
        let (rows, snapshot) = execute_with_telemetry(config, drive_two).expect("fault-free run");
        assert_eq!(
            both(rows),
            (reference.clone(), reference.clone()),
            "{mode:?}"
        );

        // The late worker's log: `(position, dataflow, sender, seq)` of
        // every batch it applied, and where it built the second dataflow.
        let events = &snapshot.logs[3].events;
        let built = events
            .iter()
            .position(|r| matches!(r.event, TelemetryEvent::AnalysisReport { dataflow: 1, .. }))
            .expect("the late worker built the second dataflow");
        let applied: Vec<_> = events
            .iter()
            .enumerate()
            .filter_map(|(at, r)| match r.event {
                TelemetryEvent::ProgressApplied {
                    dataflow,
                    sender,
                    seq,
                    ..
                } => Some((at, dataflow, sender, seq)),
                _ => None,
            })
            .collect();
        assert!(
            applied
                .iter()
                .all(|&(at, dataflow, ..)| dataflow == 0 || at > built),
            "{mode:?}: nothing applies to a dataflow before it is built"
        );
        // Accumulators number their batches across dataflows, so a batch
        // applied after a later one from the same sender sat in the stash.
        // (Workers, the senders of Broadcast mode, number per dataflow:
        // there the order of arrival leaves no trace in the log.) The
        // global modes' sole central accumulator sends nothing for the
        // second dataflow before the late worker takes part (`drive_two`).
        let overtaken = applied.iter().any(|&(at, dataflow, sender, seq)| {
            dataflow == 1
                && applied
                    .iter()
                    .any(|&(before, _, s, later)| before < at && s == sender && later > seq)
        });
        match mode {
            ProgressMode::Local => assert!(overtaken, "{mode:?}: nothing was stashed"),
            ProgressMode::Broadcast => {}
            ProgressMode::Global | ProgressMode::LocalGlobal => {
                assert!(!overtaken, "{mode:?}: a held batch outran the construction");
            }
        }
    }
}

/// A request that no progress follows is still delivered. One worker, its
/// input advanced to epoch 10 and left open, one record at epoch 0: the
/// sink purges at the record's time, and each purge below epoch 4 requests
/// a purge at the next epoch, already complete. Purge deliveries journal
/// nothing, so no batch follows them; only the request itself can prompt
/// the worker to test its requests again.
#[test]
fn a_request_that_no_progress_follows_is_still_delivered() {
    let delivered = execute(Config::single_process(1), |worker| {
        let delivered: Rc<RefCell<Vec<u64>>> = Rc::default();
        let log = delivered.clone();
        let mut input = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<u64>();
            stream.sink_notify(Pact::Pipeline, "PurgeChain", |_| {
                (
                    |input: &mut InputPort<u64>, notify: &Notify| {
                        input.for_each(|time, _data| notify.notify_at_purge(time));
                    },
                    move |time: Timestamp, notify: &Notify| {
                        log.borrow_mut().push(time.epoch);
                        if time.epoch < 4 {
                            notify.notify_at_purge(Timestamp::new(time.epoch + 1));
                        }
                    },
                )
            });
            input
        });
        input.send(7);
        input.advance_to(10);
        for _ in 0..200 {
            worker.step();
        }
        let epochs = delivered.borrow().clone();
        epochs
    })
    .expect("fault-free run");
    assert_eq!(delivered, vec![vec![0, 1, 2, 3, 4]]);
}

/// Figure 6b's barrier round: one token per worker circles a loop whose
/// one stage requests a notification for each round it sees and passes
/// the token on from `OnNotify`, through round `rounds - 1`. Returns the
/// rounds each worker was notified of, and the run's telemetry.
fn barrier(config: Config, rounds: u64) -> (Vec<Vec<u64>>, TelemetrySnapshot) {
    let config = config.telemetry_capacity(1 << 10);
    execute_with_telemetry(config, move |worker| {
        let notified: Rc<RefCell<Vec<u64>>> = Rc::default();
        let log = notified.clone();
        let mut input = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<u64>();
            let mut inner = stream.scope();
            let lc = inner.loop_context(ContextId::ROOT);
            let entered = lc.enter(&stream);
            let (handle, cycle) = lc.feedback::<u64>(None);
            let stepped =
                entered.binary_notify(&cycle, Pact::Pipeline, Pact::Pipeline, "Barrier", |_| {
                    (
                        |seed: &mut InputPort<u64>,
                         loopback: &mut InputPort<u64>,
                         _output: &mut OutputPort<u64>,
                         notify: &Notify| {
                            seed.for_each(|time, _| notify.notify_at(time));
                            loopback.for_each(|time, _| notify.notify_at(time));
                        },
                        move |time: Timestamp, output: &mut OutputPort<u64>, _notify: &Notify| {
                            let round = *time.counters.as_slice().last().expect("loop counter");
                            log.borrow_mut().push(round);
                            if round + 1 < rounds {
                                output.session(time).give(0);
                            }
                        },
                    )
                });
            handle.connect(&stepped);
            let _ = lc.leave(&stepped);
            input
        });
        input.send(0);
        input.close();
        worker.step_until_done();
        let rounds = notified.borrow().clone();
        rounds
    })
    .expect("fault-free run")
}

/// A notification's output moves in the step that delivered it, so the
/// round it starts is journalled with the retirement that started it: on
/// one worker in the default mode a barrier round costs one progress
/// frame, not two. On one process of two workers every worker is notified
/// of every round.
#[test]
fn a_barrier_round_costs_one_progress_frame() {
    const ROUNDS: u64 = 200;
    let (notified, snapshot) = barrier(Config::single_process(1), ROUNDS);
    assert_eq!(notified, vec![(0..ROUNDS).collect::<Vec<_>>()]);
    let frames = snapshot.hub.progress_local_deliveries;
    assert!(
        frames <= ROUNDS + 2,
        "{frames} progress frames for {ROUNDS} rounds: a delivery's output waited a step"
    );

    let (notified, _) = barrier(Config::single_process(2), ROUNDS);
    assert_eq!(notified, vec![(0..ROUNDS).collect::<Vec<_>>(); 2]);
}

/// On one process of two workers the process accumulator is sole: it
/// holds the first worker's retirement of a round's notification, which
/// the other worker's request still keeps active, and flushes both
/// workers' rounds in one frame. So a round costs one progress frame,
/// not one per worker.
#[test]
fn two_workers_share_one_progress_frame_per_barrier_round() {
    const ROUNDS: u64 = 200;
    let (notified, snapshot) = barrier(Config::single_process(2), ROUNDS);
    assert_eq!(notified, vec![(0..ROUNDS).collect::<Vec<_>>(); 2]);
    let frames = snapshot.hub.progress_local_deliveries;
    assert!(
        frames <= ROUNDS + 2,
        "{frames} progress frames for {ROUNDS} rounds on two workers: \
         each worker's retirement flushed on its own"
    );
}
