//! Who delivers a data frame (DESIGN.md §10): the fabric puts it into the
//! mailbox of the worker that will read it, and that worker drains its own
//! mailbox at the top of every step. No other thread touches it, a frame
//! waits for a dataflow that is not built yet, and a mailbox accepts frames
//! for as long as the fabric exists.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Barrier, Mutex};

use naiad::dataflow::{InputPort, OutputPort};
use naiad::telemetry::TelemetryEvent;
use naiad::{
    execute, execute_with_metrics, Config, Execution, FlowConfig, InputHandle, Pact, Worker,
};
use naiad_netsim::FaultCounters;

const KEYS: u64 = 5_000;

type Seen = Rc<RefCell<Vec<u64>>>;

/// One exchange of `u64` keys by `route`. The receiving vertex notes each
/// key the moment it is handed the batch, so what a worker has `seen`
/// depends on nobody's progress updates.
fn build(worker: &mut Worker, route: fn(&u64) -> u64) -> (InputHandle<u64>, Seen) {
    worker.dataflow(|scope| {
        let (input, stream) = scope.new_input::<u64>();
        let seen = Seen::default();
        let sink = seen.clone();
        stream
            .unary(Pact::exchange(route), "Route", move |_info| {
                move |input: &mut InputPort<u64>, output: &mut OutputPort<u64>| {
                    input.for_each(|time, data| {
                        sink.borrow_mut().extend(&data);
                        output.session(time).give_vec(data);
                    });
                }
            })
            .probe();
        (input, seen)
    })
}

fn sorted(seen: &Seen) -> Vec<u64> {
    let mut keys = seen.borrow().clone();
    keys.sort_unstable();
    keys
}

/// Nothing but workers reads a process endpoint: every frame the fabric
/// meters into a process is drained by that process's workers from their
/// own mailboxes. Per worker, the data frames drained are the remote
/// `MessageSent`s addressed to it, and the progress frames drained are the
/// progress messages into its process — every one of them, in every
/// worker. With heartbeats off the control plane carries credit returns,
/// settled on admission, and nothing else.
#[test]
fn nothing_but_workers_reads_a_process_endpoint() {
    const WORKERS_PER_PROCESS: usize = 2;
    let plain = Config::processes_and_workers(2, WORKERS_PER_PROCESS)
        .telemetry(true)
        .telemetry_capacity(1 << 16);
    let credited = plain.clone().flow(FlowConfig::default().budget(1 << 20));
    for config in [plain, credited] {
        let credited = config.flow.is_some();
        // Once every worker is done no one sends again; one more step
        // drains whatever reached a worker after it finished.
        let finished = Arc::new(Barrier::new(config.total_workers()));
        let report = Execution::new(config)
            .run(move |worker, _session| {
                let (mut input, seen) = build(worker, |k| *k / 4);
                for epoch in 0..4 {
                    let share =
                        (0..KEYS).filter(|k| *k as usize % worker.peers() == worker.index());
                    input.send_batch(share);
                    input.advance_to(epoch + 1);
                }
                input.close();
                worker.step_until_done();
                finished.wait();
                worker.step();
                let seen = seen.borrow().len() as u64;
                seen
            })
            .expect("fault-free run");
        let snapshot = report.telemetry.as_ref().expect("telemetry on");
        let metrics = &report.metrics;
        assert_eq!(
            report.phases[0].results.iter().sum::<u64>(),
            4 * KEYS,
            "every key of every epoch, once"
        );
        assert_eq!(snapshot.total_events_dropped(), 0);

        let traffic = snapshot.traffic;
        assert_eq!(
            traffic.control_network.messages > 0,
            credited,
            "credited = {credited}: credit returns, and nothing else, ride the control plane"
        );
        let sent_remote = |target: Option<usize>| {
            snapshot
                .logs
                .iter()
                .flat_map(|log| &log.events)
                .filter(|r| match r.event {
                    TelemetryEvent::MessageSent {
                        remote: true,
                        target: to,
                        ..
                    } => target.is_none_or(|t| t == to as usize),
                    _ => false,
                })
                .count() as u64
        };
        assert!(sent_remote(None) > 0);
        assert_eq!(traffic.data_network.messages, sent_remote(None));
        for worker in &snapshot.workers {
            let counters = worker.counters;
            assert_eq!(
                counters.remote_frames,
                sent_remote(Some(worker.worker)),
                "credited = {credited}: worker {}'s data frames",
                worker.worker
            );
            let process = worker.worker / WORKERS_PER_PROCESS;
            let into_process: u64 = (0..2)
                .map(|src| metrics.link_counters(src, process).progress.messages)
                .sum();
            assert!(into_process > 0);
            assert_eq!(
                counters.progress_frames, into_process,
                "credited = {credited}: worker {}'s progress frames",
                worker.worker
            );
            let depth = counters.mailbox_depth;
            assert!(
                (1..=counters.remote_frames + counters.progress_frames).contains(&depth),
                "worker {}: high-water depth {depth}",
                worker.worker
            );
        }
    }
}

/// Worker 0 puts every frame on the fabric and then blocks; only then does
/// worker 1 build the dataflow the frames belong to. It finds all of them.
#[test]
fn frames_that_outrun_dataflow_construction_are_all_delivered() {
    let (sent_tx, sent_rx) = channel::<()>();
    let (read_tx, read_rx) = channel::<()>();
    let (sent_rx, read_rx) = (Mutex::new(sent_rx), Mutex::new(read_rx));
    let rows = execute(Config::processes_and_workers(2, 1), move |worker| {
        if worker.index() == 1 {
            sent_rx.lock().unwrap().recv().unwrap();
            // The frames sit in this worker's mailbox. This step sorts them
            // into the queue of a channel that has no puller yet.
            worker.step();
        }
        let (mut input, seen) = build(worker, |_| 1);
        if worker.index() == 0 {
            // The input feeds the exchange directly: when `close` returns,
            // every frame has been handed to the fabric.
            input.send_batch(0..KEYS);
            input.close();
            worker.step();
            sent_tx.send(()).unwrap();
            read_rx.lock().unwrap().recv().unwrap();
        } else {
            input.close();
            // Worker 0 is blocked, so whatever this step reads was sent
            // before this dataflow existed.
            worker.step();
            let found = sorted(&seen);
            read_tx.send(()).unwrap();
            assert_eq!(found, (0..KEYS).collect::<Vec<_>>());
        }
        worker.step_until_done();
        let seen = seen.borrow().len() as u64;
        seen
    })
    .expect("fault-free run");
    assert_eq!(rows, [0, KEYS]);
}

/// Signals when the thread that owns it exits: thread-local destructors run
/// after the thread's closure has returned and dropped its `Worker`.
struct SignalAtThreadExit(Sender<()>);

impl Drop for SignalAtThreadExit {
    fn drop(&mut self) {
        let _ = self.0.send(());
    }
}

thread_local! {
    static AT_THREAD_EXIT: RefCell<Option<SignalAtThreadExit>> = const { RefCell::new(None) };
}

/// Worker 1 returns at once; worker 0 waits until worker 1's thread is
/// gone, mailbox reader included, and then sends it data. The frames are
/// accepted and metered, nothing escalates, the run ends cleanly.
#[test]
fn a_late_frame_to_a_finished_worker_does_not_escalate() {
    let (gone_tx, gone_rx) = channel::<()>();
    let (gone_tx, gone_rx) = (Mutex::new(gone_tx), Mutex::new(gone_rx));
    let config = Config::processes_and_workers(2, 1);
    let (_, metrics) = execute_with_metrics(config, move |worker| {
        if worker.index() == 1 {
            let signal = SignalAtThreadExit(gone_tx.lock().unwrap().clone());
            AT_THREAD_EXIT.with(|slot| *slot.borrow_mut() = Some(signal));
            return;
        }
        gone_rx.lock().unwrap().recv().unwrap();
        let (mut input, _seen) = build(worker, |_| 1);
        input.send_batch(0..KEYS);
        input.close();
        // The dataflow cannot complete without worker 1; a few rounds show
        // that stepping past the sends raises nothing either.
        for _ in 0..8 {
            worker.step();
        }
    })
    .expect("a frame nobody will read is not a fault");
    let data = metrics.link_counters(0, 1).data;
    assert!(data.messages >= KEYS / 1024, "{} frames", data.messages);
    assert_eq!(metrics.faults(), FaultCounters::default());
}
