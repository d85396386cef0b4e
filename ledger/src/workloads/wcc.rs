//! `wcc_stream_k1` and `wcc_stream_k128` — Figure 8's application: a
//! tweet stream's mention edges feed incremental connected components,
//! and worker 0 waits for each epoch's labels ("fresh" answers). The
//! "stale" answer is a hash lookup (< 1 µs) and is not measured.
//!
//! Same dataflow, two regimes. With one epoch in flight a handful of
//! pointstamps are live and the wake-up chain sets the pace; with 128 in
//! flight hundreds are live and the tracker and scheduler costs that
//! grow with them set it.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use naiad::Config;
use naiad_algorithms::datasets::tweet_stream;
use naiad_algorithms::wcc::{connected_components, wcc_reference};
use naiad_rng::Xorshift;

use super::Outcome;
use super::{closed_loop, drain, finish, launch, Pace, Params, Shared, WorkerOut};
use crate::trace::Kind;

const WORKERS: usize = 2;
const TOPICS: u64 = 100;
const CHUNK: usize = 1024;

pub struct Regime {
    pub users: u64,
    pub tweets_per_epoch: usize,
    /// Epoch 0 carries this many epochs' worth of the stream in one
    /// batch; see [`edges_of`].
    pub preload_epochs: usize,
    pub pace: Pace,
}

pub const K1: Regime = Regime {
    users: 500_000,
    tweets_per_epoch: 1000,
    preload_epochs: 1000,
    pace: Pace {
        k: 1,
        warmup: 32,
        op_deadline: Duration::from_secs(2),
        speed_share: 1.0,
    },
};

pub const K128: Regime = Regime {
    users: 100_000,
    tweets_per_epoch: 400,
    preload_epochs: 1000,
    pace: Pace {
        k: 128,
        warmup: 256,
        op_deadline: Duration::from_secs(20),
        speed_share: 1.0,
    },
};

/// The mention edges worker `worker` feeds in `epoch`. Each worker
/// generates its own share, in the loop, from `(seed, epoch, worker)`:
/// the stream has no length fixed in advance, and the reference
/// regenerates exactly the epochs that ran.
fn edges_of(regime: &Regime, seed: u64, epoch: u64, worker: usize) -> Vec<(u64, u64)> {
    let epochs = if epoch == 0 { regime.preload_epochs } else { 1 };
    tweet_stream(
        epochs * regime.tweets_per_epoch / WORKERS,
        regime.users,
        TOPICS,
        Xorshift::with_salt(seed, epoch * WORKERS as u64 + worker as u64).next_u64(),
    )
    .into_iter()
    .flat_map(|t| t.mentions.into_iter().map(move |m| (t.user, m)))
    .collect()
}

pub fn run(regime: &'static Regime, params: Params) -> Result<Outcome, String> {
    let rep_start = Instant::now();
    let shared = Shared::new(params);
    let launched = launch(
        Config::single_process(WORKERS),
        params.traced,
        move |worker| {
            let mut tr = shared.tracer();
            // Serving state mirrored from the label improvements, as an
            // application answering component queries would keep it.
            let labels = Rc::new(RefCell::new(HashMap::<u64, u64>::new()));
            let sink = labels.clone();
            let (mut input, probe) = tr.span(Kind::Build, 0, || {
                worker.dataflow(|scope| {
                    let (input, edges) = scope.new_input::<(u64, u64)>();
                    let probe = connected_components(&edges)
                        .inspect(move |_time, (node, label)| {
                            let mut labels = sink.borrow_mut();
                            let best = labels.entry(*node).or_insert(*label);
                            *best = (*best).min(*label);
                        })
                        .probe();
                    (input, probe)
                })
            });
            let built_at = Instant::now();
            let log = {
                let me = worker.index();
                let input = RefCell::new(&mut input);
                closed_loop(
                    worker,
                    &mut tr,
                    &probe,
                    regime.pace,
                    &shared,
                    |worker, tr, epoch| {
                        let edges = tr.span(Kind::Generate, epoch, || {
                            edges_of(regime, params.seed, epoch, me)
                        });
                        for chunk in edges.chunks(CHUNK) {
                            tr.span(Kind::Feed, epoch, || {
                                let mut input = input.borrow_mut();
                                for edge in chunk {
                                    input.send(*edge);
                                }
                            });
                            tr.step(worker, epoch);
                        }
                    },
                    |tr, to| tr.span(Kind::Advance, to - 1, || input.borrow_mut().advance_to(to)),
                )
            };
            input.close();
            drain(worker, &mut tr, log.epochs);
            drop(probe);
            let check = labels.take();
            WorkerOut {
                built_at,
                spans: tr.into_spans(),
                log,
                check,
            }
        },
    )?;

    finish(rep_start, params, launched, regime.pace, |outs, epochs| {
        let mut all = Vec::new();
        for epoch in 0..epochs {
            for worker in 0..WORKERS {
                all.extend(edges_of(regime, params.seed, epoch, worker));
            }
        }
        let records_per_op = all.len() as f64 / epochs as f64;
        // Nodes are partitioned across workers, so the maps are disjoint.
        let mut got: HashMap<u64, u64> = HashMap::new();
        for out in outs {
            got.extend(out.check.iter());
        }
        let failed = if got == wcc_reference(&all) {
            0
        } else {
            epochs
        };
        (failed, records_per_op)
    })
}
