//! `wordcount_text` — §5.4's word count over Zipf text. The same wire and
//! channel layers as `exchange_u64`, used differently: variable-length
//! `(String, u64)` rows, a combiner, and a keyed `reduce` with one
//! notification per epoch. Operator cost dominates.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use naiad::Config;
use naiad_algorithms::datasets::zipf_words;
use naiad_algorithms::wordcount::wordcount;
use naiad_operators::hash_of;

use super::{closed_loop, drain, finish, launch, Outcome, Pace, Params, Shared, WorkerOut};
use crate::trace::Kind;

const WORKERS: usize = 2;
const LINES_PER_EPOCH: usize = 20_000;
const WORDS_PER_LINE: usize = 10;
const VOCABULARY: u64 = 100_000;
/// Distinct epochs of text generated at set-up; epoch `e` feeds slot
/// `e % POOL_EPOCHS`. Word count keeps no state across epochs, so
/// reusing text does not change the work.
const POOL_EPOCHS: usize = 8;
const CHUNK: usize = 1024;
const PACE: Pace = Pace {
    k: 1,
    warmup: 3,
    op_deadline: Duration::from_secs(3),
    speed_share: 1.0,
};

/// An order-independent digest of one epoch's `(word, count)` output.
/// Each worker holds a partition of the words, so digests add.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Digest {
    hash: u64,
    words: u64,
    distinct: u64,
}

impl Digest {
    fn add_row(&mut self, word: &str, count: u64) {
        self.hash = self.hash.wrapping_add(hash_of(word).wrapping_mul(count));
        self.words += count;
        self.distinct += 1;
    }

    fn add(&mut self, other: Digest) {
        self.hash = self.hash.wrapping_add(other.hash);
        self.words += other.words;
        self.distinct += other.distinct;
    }
}

struct Pool {
    /// `lines[slot][worker]`: the lines that worker feeds.
    lines: Vec<Vec<Vec<String>>>,
    /// Reference digest per slot, from a plain `HashMap` count.
    reference: Vec<Digest>,
}

/// The pool for `seed`, generated once per process. Generation is the
/// benchmark's own work, and page-fault-bound (0.33 or 0.48 s on the
/// reference VM, bimodal), so it is kept out of `setup_s`, whose
/// set-up-only repetitions reuse the pool.
fn pool(seed: u64) -> Arc<Pool> {
    static CACHE: Mutex<Option<(u64, Arc<Pool>)>> = Mutex::new(None);
    let mut cache = CACHE.lock().expect("pool generation does not panic");
    match &*cache {
        Some((cached, pool)) if *cached == seed => pool.clone(),
        _ => {
            let pool = Arc::new(generate(seed));
            *cache = Some((seed, pool.clone()));
            pool
        }
    }
}

fn generate(seed: u64) -> Pool {
    let words = zipf_words(
        POOL_EPOCHS * LINES_PER_EPOCH * WORDS_PER_LINE,
        VOCABULARY,
        seed,
    );
    let mut lines = Vec::with_capacity(POOL_EPOCHS);
    let mut reference = Vec::with_capacity(POOL_EPOCHS);
    for slot in words.chunks(LINES_PER_EPOCH * WORDS_PER_LINE) {
        let mut counts: HashMap<&str, u64> = HashMap::new();
        for word in slot {
            *counts.entry(word).or_insert(0) += 1;
        }
        let mut digest = Digest::default();
        for (word, count) in counts {
            digest.add_row(word, count);
        }
        reference.push(digest);
        let mut per_worker = vec![Vec::new(); WORKERS];
        for (i, line) in slot.chunks(WORDS_PER_LINE).enumerate() {
            per_worker[i % WORKERS].push(line.join(" "));
        }
        lines.push(per_worker);
    }
    Pool { lines, reference }
}

pub fn run(params: Params) -> Result<Outcome, String> {
    let pool = pool(params.seed);
    let rep_start = Instant::now();
    let shared = Shared::new(params);
    let feed_pool = pool.clone();
    let launched = launch(
        Config::processes_and_workers(2, 1),
        params.traced,
        move |worker| {
            let mut tr = shared.tracer();
            let digests = Rc::new(RefCell::new(Vec::<Digest>::new()));
            let sink = digests.clone();
            let (mut input, probe) = tr.span(Kind::Build, 0, || {
                worker.dataflow(|scope| {
                    let (input, lines) = scope.new_input::<String>();
                    let probe = wordcount(&lines)
                        .inspect(move |time, (word, count)| {
                            let mut digests = sink.borrow_mut();
                            let epoch = time.epoch as usize;
                            if digests.len() <= epoch {
                                digests.resize(epoch + 1, Digest::default());
                            }
                            digests[epoch].add_row(word, *count);
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
                    PACE,
                    &shared,
                    |worker, tr, epoch| {
                        let mine = &feed_pool.lines[epoch as usize % POOL_EPOCHS][me];
                        for chunk in mine.chunks(CHUNK) {
                            tr.span(Kind::Feed, epoch, || {
                                let mut input = input.borrow_mut();
                                for line in chunk {
                                    input.send(line.clone());
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
            let check = digests.borrow().clone();
            WorkerOut {
                built_at,
                spans: tr.into_spans(),
                log,
                check,
            }
        },
    )?;

    finish(rep_start, params, launched, PACE, |outs, epochs| {
        let mut wrong = 0;
        for e in 0..epochs as usize {
            let mut got = Digest::default();
            for out in outs {
                got.add(out.check.get(e).copied().unwrap_or_default());
            }
            if got != pool.reference[e % POOL_EPOCHS] {
                wrong += 1;
            }
        }
        (wrong, (LINES_PER_EPOCH * WORDS_PER_LINE) as f64)
    })
}
