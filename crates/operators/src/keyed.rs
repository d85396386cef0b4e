//! Blocking keyed operators: `group_by` (LINQ `GroupBy`), `reduce`,
//! `count`, and `distinct_count` (the Figure 4 vertex).
//!
//! These buffer records per timestamp and emit from `OnNotify`, producing
//! exactly one output per key per completed time — the coordination-using
//! style §2.4 recommends at the boundary of composable sub-computations.

use std::hash::Hash;

use naiad::dataflow::{InputPort, Notify, OutputPort};
use naiad::runtime::Pact;
use naiad::Stream;
use naiad_wire::ExchangeData;

use crate::per_time;
use crate::{hash_of, KeyMap};

/// A key type: hashable, comparable, exchangeable.
pub trait ExchangeKey: ExchangeData + Hash + Eq {}
impl<K: ExchangeData + Hash + Eq> ExchangeKey for K {}

/// Keyed blocking operators over `(key, value)` streams.
pub trait KeyedOps<K: ExchangeKey, V: ExchangeData> {
    /// Collates values by key within each time, then applies `reduce` to
    /// each group once the time completes (LINQ `GroupBy`).
    fn group_by<R: ExchangeData, I: IntoIterator<Item = R>>(
        &self,
        reduce: impl FnMut(&K, Vec<V>) -> I + 'static,
    ) -> Stream<R>;

    /// Folds each key's values within each time, emitting `(key, fold)`
    /// when the time completes.
    fn reduce<A: ExchangeData>(
        &self,
        init: impl Fn() -> A + 'static,
        fold: impl FnMut(&K, &mut A, V) + 'static,
    ) -> Stream<(K, A)>;

    /// Counts occurrences per key within each time.
    fn count(&self) -> Stream<(K, u64)>;
}

impl<K: ExchangeKey, V: ExchangeData> KeyedOps<K, V> for Stream<(K, V)> {
    fn group_by<R: ExchangeData, I: IntoIterator<Item = R>>(
        &self,
        mut reduce: impl FnMut(&K, Vec<V>) -> I + 'static,
    ) -> Stream<R> {
        self.unary_notify(
            Pact::exchange(|(k, _): &(K, V)| hash_of(k)),
            "GroupBy",
            move |_info| {
                let (opener, closer) = per_time::states::<KeyMap<K, Vec<V>>>(Notify::notify_at);
                (
                    move |input, _output, notify| {
                        input.for_each_batch(|time, data| {
                            let mut groups = opener.open(time, notify);
                            for (k, v) in data.drain(..) {
                                groups.entry(k).or_default().push(v);
                            }
                        });
                    },
                    move |time, output, _notify| {
                        closer.close(time, |groups| {
                            let mut session = output.session(time);
                            for (k, vs) in groups.drain() {
                                session.give_iterator(reduce(&k, vs));
                            }
                        });
                    },
                )
            },
        )
    }

    fn reduce<A: ExchangeData>(
        &self,
        init: impl Fn() -> A + 'static,
        mut fold: impl FnMut(&K, &mut A, V) + 'static,
    ) -> Stream<(K, A)> {
        // Unlike group_by, reduce folds eagerly on receipt, keeping one
        // accumulator per key instead of buffering every value.
        self.unary_notify(
            Pact::exchange(|(k, _): &(K, V)| hash_of(k)),
            "Reduce",
            move |_info| {
                let (opener, closer) = per_time::states::<KeyMap<K, A>>(Notify::notify_at);
                (
                    move |input, _output, notify| {
                        input.for_each_batch(|time, data| {
                            let mut accs = opener.open(time, notify);
                            for (k, v) in data.drain(..) {
                                if let Some(acc) = accs.get_mut(&k) {
                                    fold(&k, acc, v);
                                } else {
                                    let mut acc = init();
                                    fold(&k, &mut acc, v);
                                    accs.insert(k, acc);
                                }
                            }
                        });
                    },
                    move |time, output, _notify| {
                        closer.close(time, |accs| {
                            output.session(time).give_iterator(accs.drain())
                        });
                    },
                )
            },
        )
    }

    fn count(&self) -> Stream<(K, u64)> {
        self.reduce(|| 0u64, |_k, acc, _v| *acc += 1)
    }
}

/// The Figure 4 vertex: one input, two conceptual outputs — distinct
/// records as soon as they are seen, per-record counts once the time is
/// complete.
pub trait DistinctCountOps<D: ExchangeData> {
    /// Returns `(distinct, counts)` streams.
    fn distinct_count(&self) -> (Stream<D>, Stream<(D, u64)>);
}

impl<D: ExchangeData + Hash + Eq> DistinctCountOps<D> for Stream<D> {
    fn distinct_count(&self) -> (Stream<D>, Stream<(D, u64)>) {
        // The paper's vertex has two outputs; we realize it as one stage
        // emitting an Either-style tag, split by two filters downstream —
        // equivalent dataflow, same notification structure.
        let tagged: Stream<(D, u64)> = self.unary_notify(
            Pact::exchange(|d: &D| hash_of(d)),
            "DistinctCount",
            |_info| {
                let (opener, closer) = per_time::states::<KeyMap<D, u64>>(Notify::notify_at);
                (
                    move |input, output, notify| {
                        input.for_each_batch(|time, data| {
                            let mut counts = opener.open(time, notify);
                            let mut session = output.session(time);
                            for record in data.drain(..) {
                                if let Some(n) = counts.get_mut(&record) {
                                    *n += 1;
                                } else {
                                    // Output 1: distinct records may be sent
                                    // as soon as they are seen (count tag 0).
                                    session.give((record.clone(), 0));
                                    counts.insert(record, 1);
                                }
                            }
                        });
                    },
                    // Output 2: counts must wait until all records bearing
                    // this time have been received.
                    move |time, output, _notify| {
                        closer.close(time, |counts| {
                            output.session(time).give_iterator(counts.drain())
                        });
                    },
                )
            },
        );
        let distinct = tagged.unary(Pact::Pipeline, "DistinctPart", |_info| {
            |input: &mut InputPort<(D, u64)>, output: &mut OutputPort<D>| {
                input.for_each(|time, data| {
                    output
                        .session(time)
                        .give_iterator(data.into_iter().filter(|(_, n)| *n == 0).map(|(d, _)| d));
                });
            }
        });
        let counts = tagged.unary(Pact::Pipeline, "CountPart", |_info| {
            |input: &mut InputPort<(D, u64)>, output: &mut OutputPort<(D, u64)>| {
                input.for_each(|time, data| {
                    output
                        .session(time)
                        .give_iterator(data.into_iter().filter(|(_, n)| *n > 0));
                });
            }
        });
        (distinct, counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::run_epochs;

    fn kv(pairs: &[(&str, u64)]) -> Vec<(String, u64)> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn count_counts_per_key_per_epoch() {
        let out = run_epochs(
            2,
            vec![kv(&[("a", 0), ("b", 0), ("a", 0)]), kv(&[("a", 0)])],
            |s| s.count(),
        );
        assert_eq!(
            out,
            vec![
                (0, ("a".to_string(), 2)),
                (0, ("b".to_string(), 1)),
                (1, ("a".to_string(), 1)),
            ]
        );
    }

    #[test]
    fn group_by_collects_all_values() {
        let out = run_epochs(2, vec![kv(&[("x", 1), ("x", 2), ("y", 5)])], |s| {
            s.group_by(|k: &String, mut vs: Vec<u64>| {
                vs.sort_unstable();
                vec![(k.clone(), vs)]
            })
        });
        assert_eq!(
            out,
            vec![
                (0, ("x".to_string(), vec![1, 2])),
                (0, ("y".to_string(), vec![5])),
            ]
        );
    }

    #[test]
    fn reduce_folds_eagerly() {
        let out = run_epochs(2, vec![kv(&[("s", 3), ("s", 4), ("t", 10)])], |s| {
            s.reduce(|| 0u64, |_k, acc, v| *acc += v)
        });
        assert_eq!(
            out,
            vec![(0, ("s".to_string(), 7)), (0, ("t".to_string(), 10))]
        );
    }

    #[test]
    fn distinct_count_splits_outputs() {
        let out = run_epochs(1, vec![vec![7u64, 7, 8]], |s| {
            let (distinct, counts) = s.distinct_count();
            use crate::MapOps;
            let d = distinct.map(|x| (x, 0u64));
            use crate::ConcatOps;
            d.concat(&counts)
        });
        assert_eq!(
            out,
            vec![(0, (7, 0)), (0, (7, 2)), (0, (8, 0)), (0, (8, 1))]
        );
    }
}
