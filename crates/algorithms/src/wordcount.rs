//! WordCount (§5.4): the embarrassingly parallel MapReduce benchmark.
//!
//! Worker-local pre-aggregation (the *combiner* the paper credits for
//! WordCount's good weak scaling) runs before the exchange, so the data
//! crossing workers is one partial count per distinct word per input
//! batch rather than one record per occurrence.

use naiad::dataflow::{InputPort, OutputPort};
use naiad::runtime::Pact;
use naiad::Stream;
use naiad_operators::prelude::*;
use naiad_operators::KeyMap;

/// Counts words per epoch, with a local combiner before the exchange.
pub fn wordcount(lines: &Stream<String>) -> Stream<(String, u64)> {
    let partials = lines.unary(Pact::Pipeline, "Combiner", |_info| {
        // One table for every batch: drained after each, its storage kept.
        let mut counts: KeyMap<String, u64> = KeyMap::default();
        move |input: &mut InputPort<String>, output: &mut OutputPort<(String, u64)>| {
            input.for_each_batch(|time, lines| {
                // Combine within the batch: this is where the paper's
                // combiners collapse the Zipf head before any exchange.
                for line in lines.iter() {
                    for word in line.split_whitespace() {
                        if let Some(n) = counts.get_mut(word) {
                            *n += 1;
                        } else {
                            counts.insert(word.to_string(), 1);
                        }
                    }
                }
                output.session(time).give_iterator(counts.drain());
            });
        }
    });
    partials.reduce(|| 0u64, |_w, acc, n| *acc += n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use naiad::{execute, Config};

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
