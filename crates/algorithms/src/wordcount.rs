//! WordCount (§5.4): the embarrassingly parallel MapReduce benchmark.
//!
//! Worker-local pre-aggregation (the *combiner* the paper credits for
//! WordCount's good weak scaling) runs before the exchange, so the data
//! crossing workers is one partial count per distinct word per epoch
//! rather than one record per occurrence.

use naiad::dataflow::Notify;
use naiad::runtime::Pact;
use naiad::Stream;
use naiad_operators::prelude::*;
use naiad_operators::{per_time, KeyMap};

/// Counts words per epoch, with a local combiner before the exchange.
pub fn wordcount(lines: &Stream<String>) -> Stream<(String, u64)> {
    let partials = lines.unary_notify(Pact::Pipeline, "Combiner", |_info| {
        let (opener, closer) = per_time::states::<KeyMap<String, u64>>(Notify::notify_at);
        (
            move |input, _output, notify| {
                input.for_each_batch(|time, lines| {
                    // Combine across the epoch's batches: this is where the
                    // paper's combiners collapse the Zipf head before any
                    // exchange.
                    let mut counts = opener.open(time, notify);
                    for line in lines.iter() {
                        for word in line.split_whitespace() {
                            if let Some(n) = counts.get_mut(word) {
                                *n += 1;
                            } else {
                                counts.insert(word.to_string(), 1);
                            }
                        }
                    }
                });
            },
            move |time, output, _notify| {
                closer.close(time, |counts| {
                    output.session(time).give_iterator(counts.drain())
                });
            },
        )
    });
    partials.reduce(|| 0u64, |_w, acc, n| *acc += n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::zipf_words;
    use naiad::{execute, execute_with_telemetry, Config, Worker};
    use std::collections::{HashMap, HashSet};

    const EPOCHS: u64 = 4;
    const CHUNKS: usize = 3;

    /// Worker `worker`'s lines in `epoch`: Zipf text, ten words a line.
    fn lines(worker: usize, epoch: u64) -> Vec<String> {
        zipf_words(600, 200, 1 + epoch * 16 + worker as u64)
            .chunks(10)
            .map(|line| line.join(" "))
            .collect()
    }

    /// Feeds each epoch in `CHUNKS` chunks with a step after each, so that,
    /// at a small `batch_size`, the combiner sees several batches per
    /// epoch; returns the counts as emitted, `(epoch, word, count)`.
    fn count_in_chunks(worker: &mut Worker) -> Vec<(u64, String, u64)> {
        let (mut input, captured) = worker.dataflow(|scope| {
            let (input, lines) = scope.new_input::<String>();
            (input, wordcount(&lines).capture())
        });
        for epoch in 0..EPOCHS {
            if epoch > 0 {
                input.advance_to(epoch);
            }
            let mine = lines(worker.index(), epoch);
            for chunk in mine.chunks(mine.len().div_ceil(CHUNKS)) {
                input.send_batch(chunk.iter().cloned());
                worker.step();
            }
        }
        input.close();
        worker.step_until_done();
        let emitted = captured
            .borrow()
            .iter()
            .flat_map(|(e, rows)| rows.iter().map(|(w, n)| (*e, w.clone(), *n)))
            .collect();
        emitted
    }

    #[test]
    fn chunked_epochs_match_a_hashmap_count() {
        for config in [
            Config::processes_and_workers(2, 1).batch_size(8),
            Config::single_process(2).batch_size(8),
        ] {
            let mut reference: HashMap<(u64, String), u64> = HashMap::new();
            for worker in 0..2 {
                for epoch in 0..EPOCHS {
                    for line in lines(worker, epoch) {
                        for word in line.split_whitespace() {
                            *reference.entry((epoch, word.to_string())).or_insert(0) += 1;
                        }
                    }
                }
            }
            let mut expected: Vec<(u64, String, u64)> =
                reference.into_iter().map(|((e, w), n)| (e, w, n)).collect();
            expected.sort();
            let mut got: Vec<_> = execute(config, count_in_chunks)
                .unwrap()
                .into_iter()
                .flatten()
                .collect();
            got.sort();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn the_combiner_emits_each_workers_distinct_words_once_per_epoch() {
        let config = Config::processes_and_workers(2, 1).batch_size(8);
        let (_, telemetry) = execute_with_telemetry(config, count_in_chunks).unwrap();
        let distinct: usize = (0..2)
            .flat_map(|worker| (0..EPOCHS).map(move |epoch| (worker, epoch)))
            .map(|(worker, epoch)| {
                let words: HashSet<String> = lines(worker, epoch)
                    .iter()
                    .flat_map(|line| line.split_whitespace().map(str::to_string))
                    .collect();
                words.len()
            })
            .sum();
        let combiner = telemetry
            .operators
            .iter()
            .find(|op| op.name == "Combiner")
            .expect("the combiner is a stage");
        assert_eq!(combiner.records_out, distinct as u64);
    }

    #[test]
    fn counts_words_across_workers_and_epochs() {
        let results = execute(Config::processes_and_workers(2, 1), |worker| {
            let (mut input, captured) = worker.dataflow(|scope| {
                let (input, lines) = scope.new_input::<String>();
                (input, wordcount(&lines).capture())
            });
            match worker.index() {
                0 => {
                    input.send("the quick brown fox the".to_string());
                    input.advance_to(1);
                    input.send("the end".to_string());
                }
                _ => {
                    input.send("quick quick".to_string());
                    input.advance_to(1);
                }
            }
            input.close();
            worker.step_until_done();
            let result = captured.borrow().clone();
            result
        })
        .unwrap();
        let mut all: Vec<(u64, String, u64)> = results
            .into_iter()
            .flatten()
            .flat_map(|(e, d)| d.into_iter().map(move |(w, n)| (e, w, n)))
            .collect();
        all.sort();
        assert_eq!(
            all,
            vec![
                (0, "brown".to_string(), 1),
                (0, "fox".to_string(), 1),
                (0, "quick".to_string(), 3),
                (0, "the".to_string(), 2),
                (1, "end".to_string(), 1),
                (1, "the".to_string(), 1),
            ]
        );
    }
}
