//! `exchange_u64` — Figure 6a on the real runtime: every worker feeds
//! uniform 64-bit keys through one exchange. The codec, the slab pool,
//! the fabric hop and the channel layer do nearly all the work; progress
//! tracking sees one epoch per two million records.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use naiad::dataflow::{InputPort, OutputPort};
use naiad::runtime::Pact;
use naiad::Config;
use naiad_rng::Xorshift;

use super::{closed_loop, drain, finish, launch, Outcome, Pace, Params, Shared, WorkerOut};
use crate::trace::Kind;

const WORKERS: u64 = 2;
const RECORDS_PER_WORKER_EPOCH: usize = 1_000_000;
/// Feed and step are interleaved at this grain; queueing a whole epoch
/// before the first step is what hangs under a credit budget.
const CHUNK: usize = 1024;
const PACE: Pace = Pace {
    k: 2,
    warmup: 4,
    op_deadline: Duration::from_secs(5),
    speed_share: 0.6,
};

/// Wrapping sum and count of one epoch's keys, on either side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    sum: u64,
    count: u64,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.sum = self.sum.wrapping_add(other.sum);
        self.count += other.count;
    }
}

fn tally_at(tallies: &mut Vec<Tally>, epoch: u64) -> &mut Tally {
    let epoch = epoch as usize;
    if tallies.len() <= epoch {
        tallies.resize(epoch + 1, Tally::default());
    }
    &mut tallies[epoch]
}

/// What a worker generated and what its vertex received, per epoch.
struct Evidence {
    sent: Vec<Tally>,
    received: Vec<Tally>,
}

pub fn run(params: Params) -> Result<Outcome, String> {
    run_with(params, Config::processes_and_workers(2, 1))
}

/// Also the body of `flow.credit_tax_pct`, which runs the same exchange
/// under a credit budget.
pub fn run_with(params: Params, config: Config) -> Result<Outcome, String> {
    let rep_start = Instant::now();
    let shared = Shared::new(params);
    let launched = launch(config, params.traced, move |worker| {
        let mut tr = shared.tracer();
        let received = Rc::new(RefCell::new(Vec::<Tally>::new()));
        let sink = received.clone();
        let (mut input, probe) = tr.span(Kind::Build, 0, || {
            worker.dataflow(|scope| {
                let (input, stream) = scope.new_input::<u64>();
                let probe = stream
                    .unary(Pact::exchange(|x: &u64| *x), "Scatter", |_info| {
                        move |input: &mut InputPort<u64>, output: &mut OutputPort<u64>| {
                            input.for_each_batch(|time, data| {
                                let mut tallies = sink.borrow_mut();
                                let tally = tally_at(&mut tallies, time.epoch);
                                for key in data.iter() {
                                    tally.sum = tally.sum.wrapping_add(*key);
                                }
                                tally.count += data.len() as u64;
                                output.session(time).give_container(data);
                            });
                        }
                    })
                    .probe();
                (input, probe)
            })
        });
        let built_at = Instant::now();
        let mut sent = Vec::<Tally>::new();
        let log = {
            let mut rng = Xorshift::with_salt(params.seed, worker.index() as u64);
            // The buffer's storage is swapped into the channel layer and
            // comes back, so the steady state allocates nothing.
            let mut buf: Vec<u64> = Vec::with_capacity(CHUNK);
            let input = RefCell::new(&mut input);
            closed_loop(
                worker,
                &mut tr,
                &probe,
                PACE,
                &shared,
                |worker, tr, epoch| {
                    let mut left = RECORDS_PER_WORKER_EPOCH;
                    let mut tally = Tally::default();
                    while left > 0 {
                        let n = left.min(CHUNK);
                        tr.span(Kind::Generate, epoch, || {
                            for _ in 0..n {
                                let key = rng.next_u64();
                                tally.sum = tally.sum.wrapping_add(key);
                                buf.push(key);
                            }
                        });
                        tally.count += n as u64;
                        left -= n;
                        tr.span(Kind::Feed, epoch, || {
                            input.borrow_mut().send_container(&mut buf)
                        });
                        tr.step(worker, epoch);
                    }
                    *tally_at(&mut sent, epoch) = tally;
                },
                |tr, to| tr.span(Kind::Advance, to - 1, || input.borrow_mut().advance_to(to)),
            )
        };
        input.close();
        drain(worker, &mut tr, log.epochs);
        drop(probe);
        let received = received.borrow().clone();
        WorkerOut {
            built_at,
            spans: tr.into_spans(),
            log,
            check: Evidence { sent, received },
        }
    })?;

    finish(rep_start, params, launched, PACE, |outs, epochs| {
        // Per epoch, what all generators sent must be what all vertices got.
        let expected = WORKERS * RECORDS_PER_WORKER_EPOCH as u64;
        let mut wrong = 0;
        for e in 0..epochs as usize {
            let mut sent = Tally::default();
            let mut received = Tally::default();
            for out in outs {
                sent.add(out.check.sent.get(e).copied().unwrap_or_default());
                received.add(out.check.received.get(e).copied().unwrap_or_default());
            }
            if sent != received || sent.count != expected {
                wrong += 1;
            }
        }
        (wrong, expected as f64)
    })
}
