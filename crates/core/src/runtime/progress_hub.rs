//! Transport shell for the progress protocol (§3.3): process-level and
//! cluster-level accumulation behind the fabric.
//!
//! The protocol itself — buffering policy, batch sequencing, stash-until-
//! registration — lives in the pure [`GroupCore`] state machine
//! ([`crate::progress::protocol`]), which the deterministic model-checker
//! (the `naiad-check` crate) drives over virtual links. This
//! module only wires cores to the fabric: encode, retry, escalate.
//!
//! By default Naiad accumulates updates at the process level and at the
//! cluster level: each process sends accumulated updates to a central
//! accumulator, which broadcasts their net effect to all workers. Each
//! fabric endpoint's accumulator is part of its [`Process`], which the
//! endpoint's threads share: a process's workers [deposit](Process::deposit)
//! their journals into it, and each [hands it](Process::observe) every batch
//! from another endpoint before applying the batch itself. The central
//! accumulator runs on its own thread behind an extra fabric endpoint and
//! deposits what the processes send it the same way.
//!
//! Who delivers a progress batch ([`Process::send_progress`]): the thread
//! that flushes it. A batch for a process is one
//! [fan-out](naiad_netsim::NetSender::fan_out) into the mailboxes of all
//! that process's workers — its own process included, where the bytes skip
//! the latency model — so no thread sits between the flush and the worker
//! that applies it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use naiad_netsim::{NetReceiver, RecvError, SendError, TrafficClass};
use naiad_wire::{encode_to_vec, Bytes};

use crate::progress::{Endpoint, GroupCore, Hop, ProgressBatch, ProgressUpdate};

use super::channels::{CENTRAL_TAG, PROGRESS_TAG};
use super::execute::{Bringup, Process};
use super::retry::{escalate, send_with_retry, with_retry, FaultKind};

pub(crate) use crate::progress::protocol::{CENTRAL_SENDER, PROC_ACC_SENDER_BASE};

/// Counters for the progress hub, surfaced through
/// [`HubCounters`](crate::telemetry::HubCounters).
///
/// Each idle tick of the central accumulator is one *bounded-backoff*
/// receive timeout: its loop doubles the wait from [`IDLE_WAIT_BASE`] up
/// to [`IDLE_WAIT_MAX`] while quiet and snaps back on traffic, so an idle
/// cluster costs a handful of wakeups per second instead of a tight 5 ms
/// re-loop.
// A cache line of its own: these counters are written on every local
// delivery, and the rest of the bring-up is read by every worker each step.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct HubStats {
    pub(crate) central_idle_ticks: AtomicU64,
    /// Progress batches a process addressed to its own workers
    /// ([`Process::send_progress`]).
    pub(crate) progress_local_deliveries: AtomicU64,
}

/// First idle wait after traffic.
const IDLE_WAIT_BASE: Duration = Duration::from_millis(5);
/// Backoff ceiling; also bounds shutdown-observation latency (the loop
/// only checks the shutdown flag on the timeout arm).
const IDLE_WAIT_MAX: Duration = Duration::from_millis(20);

/// Lazily registers `dataflow`'s graph with a [`GroupCore`], looking the
/// graph up in the graph directory (a peer's broadcast can outrun every
/// construction, in which case the core stashes the observation itself).
fn ensure_registered(core: &mut GroupCore, bringup: &Bringup, dataflow: usize) {
    if !core.is_registered(dataflow as u32) {
        if let Some(graph) = bringup.dataflow_graph(dataflow) {
            core.register(dataflow as u32, graph);
        }
    }
}

impl Process {
    /// Sends one encoded batch from this endpoint along `hop`
    /// ([`ProgressMode::hop`](crate::progress::ProgressMode::hop)). Each
    /// endpoint's link retries transient failures on its own, so a flaky
    /// link never re-sends to links that already accepted the batch —
    /// re-delivery would violate the per-sender FIFO sequence check.
    ///
    /// A process receives the batch in every worker's mailbox at once
    /// ([`NetSender::fan_out`](naiad_netsim::NetSender::fan_out)): one
    /// fabric send, so fault schedules fire at the same send and Fig 6c
    /// counts one frame per `(src, dst)` link, the own process's loopback
    /// copy included — which no latency model delays.
    ///
    /// A sender's batches must reach every mailbox in `seq` order: callers
    /// emit and send under one lock (the accumulator's) or from the one
    /// thread that owns the emitter (a worker's).
    pub(crate) fn send_progress(
        &self,
        bringup: &Bringup,
        hop: Hop,
        bytes: &Bytes,
    ) -> Result<(), SendError> {
        let processes = bringup.config.processes;
        hop.endpoints(processes).try_for_each(|endpoint| {
            let Endpoint::Process(process) = endpoint else {
                return send_with_retry(&self.net, bringup.policy, processes, CENTRAL_TAG, bytes);
            };
            with_retry(bringup.policy, || {
                self.net.lock().fan_out(
                    process,
                    PROGRESS_TAG,
                    TrafficClass::Progress,
                    bytes.clone(),
                )
            })?;
            if process == self.index {
                bringup
                    .hub_stats
                    .progress_local_deliveries
                    .fetch_add(1, Ordering::Relaxed);
            }
            Ok(())
        })
    }

    /// Deposits a journal into this endpoint's accumulator — a worker's,
    /// or a process's batch at the central one — and forwards a flush if
    /// the §3.3 condition requires one.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint has no accumulator: only the local progress
    /// modes deposit at a process, and they give every process one.
    pub(crate) fn deposit(&self, bringup: &Bringup, dataflow: usize, updates: Vec<ProgressUpdate>) {
        let Some(accumulator) = &self.accumulator else {
            unreachable!("endpoint {} deposits without an accumulator", self.index);
        };
        let mut core = accumulator.lock();
        ensure_registered(&mut core, bringup, dataflow);
        if let Some(batch) = core.deposit(dataflow as u32, updates) {
            self.forward(bringup, core.hop(), &batch);
        }
    }

    /// The tee: observes a broadcast from another endpoint (another
    /// process's accumulator or the central accumulator) that a local
    /// worker is about to apply; forwards a flush if the buffered updates
    /// are no longer safe to hold. Every local worker calls this before it
    /// applies such a batch, and the core observes each batch the first
    /// time only — so the accumulator has observed every batch before any
    /// local worker applies it. Without an accumulator there is nothing to
    /// observe.
    pub(crate) fn observe(&self, bringup: &Bringup, batch: &ProgressBatch) {
        let Some(accumulator) = &self.accumulator else {
            return;
        };
        let mut core = accumulator.lock();
        ensure_registered(&mut core, bringup, batch.dataflow as usize);
        if let Some(flushed) = core.observe(batch) {
            self.forward(bringup, core.hop(), &flushed);
        }
    }

    /// Sends an accumulator's flush along its `hop`, escalating a fault the
    /// retry budget cannot mask. A copy for this process is in its
    /// mailboxes before this returns, under the accumulator lock the
    /// caller holds.
    fn forward(&self, bringup: &Bringup, hop: Hop, batch: &ProgressBatch) {
        let bytes: Bytes = encode_to_vec(batch).into();
        if let Err(err) = self.send_progress(bringup, hop, &bytes) {
            escalate(&bringup.escalation, FaultKind::from_send_error(err));
        }
    }
}

/// The cluster-level accumulator thread body (§3.3): receives batches on
/// the extra fabric endpoint `central`, deposits them into its
/// accumulator, which broadcasts net effects to every process.
///
/// It keeps a thread of its own — the one thread in a run that is not a
/// worker — because it is the paper's separate cluster-level endpoint: no
/// worker lives at it to drive it.
pub(crate) fn run_central_accumulator(mut rx: NetReceiver, central: &Process, bringup: &Bringup) {
    let mut wait = IDLE_WAIT_BASE;
    loop {
        match rx.recv_deadline(Some(wait)) {
            Ok(env) => {
                wait = IDLE_WAIT_BASE;
                debug_assert_eq!(env.channel, CENTRAL_TAG);
                let batch: ProgressBatch = naiad_wire::decode_from_slice(&env.payload)
                    .unwrap_or_else(|e| {
                        panic!(
                            "central accumulator: undecodable progress batch from \
                             endpoint {} ({} bytes) — wire corruption or protocol \
                             mismatch: {e:?}",
                            env.src,
                            env.payload.len()
                        )
                    });
                central.deposit(bringup, batch.dataflow as usize, batch.updates);
            }
            Err(RecvError::Timeout) => {
                bringup
                    .hub_stats
                    .central_idle_ticks
                    .fetch_add(1, Ordering::Relaxed);
                if bringup.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Bounded backoff: quiet periods cost progressively fewer
                // wakeups instead of a tight re-loop.
                wait = (wait * 2).min(IDLE_WAIT_MAX);
            }
            Err(RecvError::Disconnected) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::Arc;

    use naiad_netsim::NetSender;
    use naiad_wire::sync::Mutex;

    use crate::graph::{ContextId, GraphBuilder, StageId, StageKind};
    use crate::progress::{Pointstamp, ProgressMode};
    use crate::runtime::config::Config;
    use crate::runtime::retry::RetryPolicy;
    use crate::time::Timestamp;

    /// Process 0 of a Local-mode cluster of `processes` processes with
    /// `workers` workers each, over the graph input(0) → sink(1), already
    /// registered with process 0's accumulator.
    struct Hub {
        process: Arc<Process>,
        bringup: Arc<Bringup>,
        /// Every local worker's mailbox.
        mailboxes: Vec<NetReceiver>,
        /// Process 1's send half, when there is a process 1.
        peer: Option<NetSender>,
    }

    fn hub(processes: usize, workers: usize) -> Hub {
        let mut g = GraphBuilder::new();
        let input = g.add_stage("in", StageKind::Input, ContextId::ROOT, 0, 1);
        let sink = g.add_stage("sink", StageKind::Regular, ContextId::ROOT, 1, 0);
        g.connect(input, 0, sink, 0);
        let graph = Arc::new(g.build().expect("two-stage chain is valid"));

        let config =
            Config::processes_and_workers(processes, workers).progress_mode(ProgressMode::Local);
        let mut bringup = Bringup::new(&config, false);
        bringup.policy = RetryPolicy {
            retries: 0,
            backoff: Duration::ZERO,
        };
        bringup.register_dataflow(0, graph);
        let mut endpoints = naiad_netsim::Fabric::builder(processes)
            .mailboxes(workers)
            .build()
            .into_iter()
            .map(naiad_netsim::Endpoint::split_mailboxes);
        let (tx, _merged, mailboxes) = endpoints.next().expect("process 0");
        let peer = endpoints.next().map(|(tx, _, _)| tx);
        let process = Process::new(0, tx, &bringup, None);
        // A +1/−1 pair cancels in the buffer and flushes nothing; it makes
        // the accumulator look the graph up now, so later deposits do not
        // take the directory lock.
        let sink_at_0 = Pointstamp::at_vertex(Timestamp::new(0), StageId(1));
        process.deposit(&bringup, 0, vec![(sink_at_0, 1), (sink_at_0, -1)]);
        Hub {
            process: Arc::new(process),
            bringup: Arc::new(bringup),
            mailboxes,
            peer,
        }
    }

    /// Process 0's accumulator core.
    fn accumulator(process: &Process) -> &Mutex<GroupCore> {
        process
            .accumulator
            .as_ref()
            .expect("Local mode gives every process an accumulator")
    }

    /// `workers` input stamps moving from `epoch` to the next. While no
    /// worker lags behind `epoch`, the retired pointstamp is at the
    /// frontier and covered by nothing, so the deposit flushes a batch.
    fn advance_input(epoch: u64, workers: i64) -> Vec<ProgressUpdate> {
        vec![
            (
                Pointstamp::at_vertex(Timestamp::new(epoch + 1), StageId(0)),
                workers,
            ),
            (
                Pointstamp::at_vertex(Timestamp::new(epoch), StageId(0)),
                -workers,
            ),
        ]
    }

    fn decode(bytes: &Bytes) -> ProgressBatch {
        naiad_wire::decode_from_slice(bytes).expect("hub delivers encoded batches")
    }

    /// Every batch a mailbox holds right now, decoded.
    fn received(mailbox: &mut NetReceiver) -> Vec<ProgressBatch> {
        std::iter::from_fn(|| mailbox.try_recv())
            .map(|env| decode(&env.payload))
            .collect()
    }

    /// Fig 6c's definition survives the fan-out: the loopback link meters
    /// each own-process batch once, at its encoded length, and every local
    /// worker's mailbox is handed those same bytes.
    #[test]
    fn own_process_copy_is_metered_once_at_its_encoded_length() {
        let mut hub = hub(1, 2);
        let batches = 200u64;
        for epoch in 0..batches / 2 {
            for _worker in 0..2 {
                hub.process
                    .deposit(&hub.bringup, 0, advance_input(epoch, 1));
            }
        }
        let delivered: Vec<Vec<Bytes>> = hub
            .mailboxes
            .iter_mut()
            .map(|mailbox| std::iter::from_fn(|| mailbox.try_recv().map(|e| e.payload)).collect())
            .collect();
        assert_eq!(delivered[0], delivered[1], "workers share one encoding");
        let seqs: Vec<u64> = delivered[0].iter().map(|b| decode(b).seq).collect();
        assert_eq!(seqs, (0..batches).collect::<Vec<_>>());
        let encoded: usize = delivered[0].iter().map(|b| b.len()).sum();

        let metrics = hub.process.net.lock().metrics().clone();
        let loopback = metrics.link_counters(0, 0).progress;
        assert_eq!(
            (loopback.messages, loopback.bytes),
            (batches, encoded as u64)
        );
        assert_eq!(metrics.total(TrafficClass::Progress, true), loopback);
        assert_eq!(
            hub.bringup
                .hub_stats
                .progress_local_deliveries
                .load(Ordering::Relaxed),
            batches
        );
    }

    /// A worker parked on its mailbox while a peer's deposit flushes under
    /// the accumulator lock is woken with the batch. (The mailbox is a
    /// `std::sync::mpsc` queue, which the `--cfg loom` explorer cannot
    /// schedule, so this runs on real threads.)
    #[test]
    fn a_parked_worker_is_woken_by_a_local_delivery() {
        for _ in 0..20 {
            let Hub {
                process,
                bringup,
                mut mailboxes,
                ..
            } = hub(1, 1);
            let mut mailbox = mailboxes.remove(0);
            let parked = std::thread::spawn(move || {
                mailbox
                    .recv_deadline(Some(Duration::from_secs(5)))
                    .map(|env| decode(&env.payload).seq)
            });
            process.deposit(&bringup, 0, advance_input(0, 1));
            assert_eq!(parked.join().expect("parked worker"), Ok(0));
        }
    }

    type Body = Box<dyn FnOnce() + Send>;

    /// Runs a scenario's threads once, on the OS scheduler (the `--cfg
    /// loom` tests below explore the same scenarios in every schedule).
    fn run_threads(bodies: Vec<Body>) {
        let threads: Vec<_> = bodies.into_iter().map(std::thread::spawn).collect();
        for thread in threads {
            if let Err(panic) = thread.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }

    /// Two workers depositing concurrently: whichever order the
    /// accumulator serves them in, every mailbox receives the
    /// accumulator's batches in `seq` order. (The mailboxes are read once
    /// both deposits are done: the explorer cannot park on them.)
    fn concurrent_depositors() -> Vec<Body> {
        use std::sync::atomic::AtomicUsize;
        let Hub {
            process,
            bringup,
            mailboxes,
            ..
        } = hub(1, 2);
        let mailboxes = Arc::new(std::sync::Mutex::new(mailboxes));
        let done = Arc::new(AtomicUsize::new(0));
        let depositor = || {
            let (process, bringup) = (process.clone(), bringup.clone());
            let mailboxes = mailboxes.clone();
            let done = done.clone();
            Box::new(move || {
                process.deposit(&bringup, 0, advance_input(0, 1));
                if done.fetch_add(1, Ordering::SeqCst) == 1 {
                    let mut mailboxes = mailboxes.lock().expect("one reader");
                    for (worker, mailbox) in mailboxes.iter_mut().enumerate() {
                        let seqs: Vec<u64> = received(mailbox).iter().map(|b| b.seq).collect();
                        assert_eq!(seqs, [0, 1], "mailbox {worker} out of order");
                    }
                }
            }) as Body
        };
        vec![depositor(), depositor()]
    }

    #[test]
    fn concurrent_depositors_deliver_in_seq_order() {
        for _ in 0..20 {
            run_threads(concurrent_depositors());
        }
    }

    #[cfg(loom)]
    #[test]
    fn loom_concurrent_depositors_deliver_in_seq_order() {
        let schedules = naiad_wire::sync::interleave::explore(concurrent_depositors);
        assert!(schedules > 1, "the explorer must branch, got {schedules}");
    }

    /// The tee: two local workers each take the same two batches from
    /// another process's accumulator out of their mailboxes, hand each to
    /// the process accumulator and apply it. The accumulator has observed a
    /// batch before either worker applies it, and observes each exactly
    /// once, in `seq` order — its view ends with the remote workers' input
    /// stamps moved exactly twice.
    fn two_workers_tee_external_batches() -> Vec<Body> {
        use crate::progress::WorkerCore;
        use std::sync::atomic::AtomicUsize;
        let Hub {
            process,
            bringup,
            mailboxes,
            peer,
        } = hub(2, 2);
        let mut peer = peer.expect("process 1");
        let remote = PROC_ACC_SENDER_BASE + 1;
        for seq in 0..2 {
            let batch = ProgressBatch {
                sender: remote,
                seq,
                dataflow: 0,
                updates: advance_input(seq, 2),
            };
            let bytes: Bytes = encode_to_vec(&batch).into();
            peer.fan_out(0, PROGRESS_TAG, TrafficClass::Progress, bytes)
                .expect("fault-free fabric");
        }
        let graph = bringup.dataflow_graph(0).expect("registered graph");
        let done = Arc::new(AtomicUsize::new(0));
        mailboxes
            .into_iter()
            .enumerate()
            .map(|(worker, mut mailbox)| {
                let (process, bringup) = (process.clone(), bringup.clone());
                let done = done.clone();
                let mut core = WorkerCore::new(graph.clone(), 0, worker as u32, 4);
                Box::new(move || {
                    for batch in received(&mut mailbox) {
                        process.observe(&bringup, &batch);
                        let observed = accumulator(&process).lock().observed_through(remote, 0);
                        assert!(
                            observed >= Some(batch.seq),
                            "worker {worker} applies seq {} before the accumulator \
                             observed it ({observed:?})",
                            batch.seq
                        );
                        core.apply(&batch).expect("per-sender FIFO");
                    }
                    if done.fetch_add(1, Ordering::SeqCst) == 1 {
                        let acc = accumulator(&process).lock();
                        let view = acc.view(0).expect("registered");
                        let input_at =
                            |epoch| Pointstamp::at_vertex(Timestamp::new(epoch), StageId(0));
                        // Four input stamps at epoch 0; the remote two moved
                        // to 1, then to 2 — once each.
                        assert_eq!(
                            [0, 1, 2].map(|e| view.occurrence(&input_at(e))),
                            [2, 0, 2],
                            "each external batch observed exactly once"
                        );
                    }
                }) as Body
            })
            .collect()
    }

    #[test]
    fn two_workers_tee_an_external_batch_once_before_applying() {
        for _ in 0..20 {
            run_threads(two_workers_tee_external_batches());
        }
    }

    #[cfg(loom)]
    #[test]
    fn loom_two_workers_tee_an_external_batch_once_before_applying() {
        let schedules = naiad_wire::sync::interleave::explore(two_workers_tee_external_batches);
        assert!(schedules > 1, "the explorer must branch, got {schedules}");
    }
}
