//! `barrier_loop` — Figure 6b's coordination microbenchmark: a cyclic
//! dataflow whose single stage exchanges no data and requests one
//! notification per iteration. Every round is a global barrier, so this
//! is pure coordination: tracker, protocol, progress hub, the step pump
//! and the idle wait. The data paths of `wire` and `channels` are idle.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use naiad::dataflow::{InputPort, Notify, OutputPort};
use naiad::graph::ContextId;
use naiad::runtime::Pact;
use naiad::{Config, Timestamp};

use super::Outcome;
use super::{drain, finish, launch, ClientLog, Length, Pace, Params, Shared, WorkerOut};
use crate::probe::Probes;
use crate::runner::peak_rss_mb;
use crate::trace::Kind;

const WORKERS: usize = 2;
/// `k` is the single circulating token; `warmup` is in rounds.
const PACE: Pace = Pace {
    k: 1,
    warmup: 2000,
    op_deadline: Duration::from_secs(1),
    speed_share: 1.0,
};

/// The iteration of a time inside the barrier loop.
fn round_of(time: &Timestamp) -> u64 {
    *time.counters.as_slice().last().expect("loop counter")
}

pub fn run(params: Params) -> Result<Outcome, String> {
    let rep_start = Instant::now();
    let shared = Shared::new(params);
    let launched = launch(
        Config::single_process(WORKERS),
        params.traced,
        move |worker| {
            let mut tr = shared.tracer();
            // Notification instants at this worker, one per round; reserved
            // up front so that no round pays for a reallocation.
            let stamps = Rc::new(RefCell::new(Vec::<Instant>::with_capacity(1 << 21)));
            let sink = stamps.clone();
            // When each round started: its predecessor's notification, or
            // the end of the speed probe that followed it.
            let starts = Rc::new(RefCell::new(Vec::<Instant>::with_capacity(1 << 21)));
            let starts_sink = starts.clone();
            let probes = Rc::new(RefCell::new(Probes::default()));
            let probes_sink = probes.clone();
            let stop = shared.clone();
            let rss_at_open = Rc::new(Cell::new(0.0));
            let rss_sink = rss_at_open.clone();
            let mut input = tr.span(Kind::Build, 0, || {
                worker.dataflow(|scope| {
                    let (input, stream) = scope.new_input::<u64>();
                    let mut inner = stream.scope();
                    let lc = inner.loop_context(ContextId::ROOT);
                    let entered = lc.enter(&stream);
                    let (handle, cycle) = lc.feedback::<u64>(None);
                    let stepped = entered.binary_notify(
                        &cycle,
                        Pact::Pipeline,
                        Pact::Pipeline,
                        "Barrier",
                        move |info| {
                            let client = info.worker_index == 0;
                            let mut deadline: Option<Instant> = None;
                            (
                                move |seed: &mut InputPort<u64>,
                                      loopback: &mut InputPort<u64>,
                                      _out: &mut OutputPort<u64>,
                                      notify: &Notify| {
                                    seed.for_each(|time, _| notify.notify_at(time));
                                    loopback.for_each(|time, _| notify.notify_at(time));
                                },
                                move |time: Timestamp,
                                      out: &mut OutputPort<u64>,
                                      _notify: &Notify| {
                                    let now = Instant::now();
                                    let round = round_of(&time);
                                    sink.borrow_mut().push(now);
                                    if client {
                                        if let (true, Length::Seconds(seconds)) =
                                            (round + 1 == PACE.warmup, params.length)
                                        {
                                            deadline = Some(now + Duration::from_secs_f64(seconds));
                                            rss_sink.set(peak_rss_mb().unwrap_or(0.0));
                                        }
                                        // Worker 0 still holds this round's
                                        // pointstamp, so no worker can have been
                                        // notified of round + 1 yet: every worker
                                        // reads the store below before deciding
                                        // there, and all stop after the same round.
                                        if deadline.is_some_and(|d| now >= d)
                                            && stop.stop_at.load(Ordering::SeqCst) == u64::MAX
                                        {
                                            stop.stop_at.store(round + 1, Ordering::SeqCst);
                                        }
                                    }
                                    // One token per worker circulates: each
                                    // notification is one fully-coordinated round.
                                    if round < stop.stop_at.load(Ordering::SeqCst) {
                                        out.session(time).give(0);
                                    }
                                    // The probe is not part of the next round.
                                    let probed = probes_sink.borrow_mut().maybe(now);
                                    starts_sink.borrow_mut().push(if probed {
                                        Instant::now()
                                    } else {
                                        now
                                    });
                                },
                            )
                        },
                    );
                    handle.connect(&stepped);
                    let _ = lc.leave(&stepped);
                    input
                })
            });
            let built_at = Instant::now();
            // The token; none for a set-up-only repetition.
            if shared.stop_at.load(Ordering::SeqCst) > 0 {
                tr.span(Kind::Feed, 0, || input.send(0));
            }
            input.close();
            drain(worker, &mut tr, 0);
            let stamps = stamps.take();
            // Round r starts when round r - 1 is notified (see `starts`).
            let log = ClientLog {
                started_at: starts.take()[..stamps.len().saturating_sub(1)].to_vec(),
                done_at: stamps[1.min(stamps.len())..].to_vec(),
                last_timed: (stamps.len() as u64).saturating_sub(3),
                epochs: stamps.len() as u64,
                rss_at_open_mb: rss_at_open.get(),
                probes: probes.take(),
            };
            WorkerOut {
                built_at,
                spans: tr.into_spans(),
                log,
                check: (),
            }
        },
    )?;

    finish(rep_start, params, launched, PACE, |outs, rounds| {
        // Every worker saw exactly the same number of notifications.
        let agree = outs.iter().all(|o| o.log.epochs == rounds);
        (if agree { 0 } else { rounds }, 0.0)
    })
}
