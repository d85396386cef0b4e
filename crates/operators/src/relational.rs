//! Further relational operators in the LINQ style (§4.2): `cogroup`,
//! `semijoin`, `antijoin`, `top_k`, and numeric folds.
//!
//! Like `group_by`, these are blocking operators: they buffer per time and
//! emit once from `OnNotify`, giving the one-value-per-time guarantee that
//! makes them composable at sub-computation boundaries (§2.4).

use naiad::dataflow::Notify;
use naiad::runtime::Pact;
use naiad::Stream;
use naiad_wire::ExchangeData;

use crate::hash_of;
use crate::join::Sides;
use crate::keyed::ExchangeKey;
use crate::per_time;

/// Relational operators over `(key, value)` streams.
pub trait RelationalOps<K: ExchangeKey, V1: ExchangeData> {
    /// Pairs each key's full value lists from both inputs once the time
    /// completes: `reduce(key, lefts, rights)` runs exactly once per key
    /// appearing on either side.
    fn cogroup<V2: ExchangeData, R: ExchangeData, I: IntoIterator<Item = R>>(
        &self,
        other: &Stream<(K, V2)>,
        reduce: impl FnMut(&K, Vec<V1>, Vec<V2>) -> I + 'static,
    ) -> Stream<R>;

    /// Keeps `(k, v)` records whose key appears in `keys` at the same
    /// time.
    fn semijoin(&self, keys: &Stream<K>) -> Stream<(K, V1)>;

    /// Keeps `(k, v)` records whose key does *not* appear in `keys` at
    /// the same time.
    fn antijoin(&self, keys: &Stream<K>) -> Stream<(K, V1)>;

    /// The `k` largest values per key per time, descending.
    fn top_k(&self, k: usize) -> Stream<(K, Vec<V1>)>
    where
        V1: Ord;
}

impl<K: ExchangeKey, V1: ExchangeData> RelationalOps<K, V1> for Stream<(K, V1)> {
    fn cogroup<V2: ExchangeData, R: ExchangeData, I: IntoIterator<Item = R>>(
        &self,
        other: &Stream<(K, V2)>,
        mut reduce: impl FnMut(&K, Vec<V1>, Vec<V2>) -> I + 'static,
    ) -> Stream<R> {
        self.binary_notify(
            other,
            Pact::exchange(|(k, _): &(K, V1)| hash_of(k)),
            Pact::exchange(|(k, _): &(K, V2)| hash_of(k)),
            "CoGroup",
            move |_info| {
                let (opener, closer) = per_time::states::<Sides<K, V1, V2>>(Notify::notify_at);
                (
                    move |left, right, _output, notify| {
                        left.for_each(|time, data| {
                            let mut groups = opener.open(time, notify);
                            for (k, v) in data {
                                groups.entry(k).or_default().0.push(v);
                            }
                        });
                        right.for_each(|time, data| {
                            let mut groups = opener.open(time, notify);
                            for (k, v) in data {
                                groups.entry(k).or_default().1.push(v);
                            }
                        });
                    },
                    move |time, output, _notify| {
                        closer.close(time, |groups| {
                            let mut session = output.session(time);
                            for (k, (lefts, rights)) in groups.drain() {
                                session.give_iterator(reduce(&k, lefts, rights));
                            }
                        });
                    },
                )
            },
        )
    }

    fn semijoin(&self, keys: &Stream<K>) -> Stream<(K, V1)> {
        keep_by_key(self, keys, true)
    }

    fn antijoin(&self, keys: &Stream<K>) -> Stream<(K, V1)> {
        keep_by_key(self, keys, false)
    }

    fn top_k(&self, k: usize) -> Stream<(K, Vec<V1>)>
    where
        V1: Ord,
    {
        use crate::keyed::KeyedOps;
        self.group_by(move |key: &K, mut values: Vec<V1>| {
            values.sort_unstable_by(|a, b| b.cmp(a));
            values.truncate(k);
            vec![(key.clone(), values)]
        })
    }
}

/// The records whose key appears in `keys` at the same time, if
/// `present`, or those whose key does not.
fn keep_by_key<K: ExchangeKey, V: ExchangeData>(
    records: &Stream<(K, V)>,
    keys: &Stream<K>,
    present: bool,
) -> Stream<(K, V)> {
    use crate::map::MapOps;
    let units = keys.map(|k| (k, ()));
    records.cogroup(&units, move |k: &K, values: Vec<V>, units: Vec<()>| {
        let keep = units.is_empty() != present;
        values
            .into_iter()
            .filter(|_| keep)
            .map(|v| (k.clone(), v))
            .collect::<Vec<_>>()
    })
}

/// Numeric folds over unkeyed streams.
pub trait NumericOps {
    /// Per-epoch sum, at one worker.
    fn sum(&self) -> Stream<f64>;
    /// Per-epoch arithmetic mean, at one worker.
    fn mean(&self) -> Stream<f64>;
}

impl NumericOps for Stream<f64> {
    fn sum(&self) -> Stream<f64> {
        use crate::reduction::ReductionOps;
        self.fold_all(|| 0.0f64, |acc, x| *acc += x)
    }

    fn mean(&self) -> Stream<f64> {
        use crate::map::MapOps;
        use crate::reduction::ReductionOps;
        self.fold_all(
            || (0.0f64, 0u64),
            |acc, x| {
                acc.0 += x;
                acc.1 += 1;
            },
        )
        .map(|(sum, n)| if n == 0 { 0.0 } else { sum / n as f64 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::run_epochs;

    fn kv(pairs: &[(u64, u64)]) -> Vec<(u64, u64)> {
        pairs.to_vec()
    }

    #[test]
    fn cogroup_sees_both_sides_and_absent_sides() {
        let out = run_epochs(2, vec![kv(&[(1, 10), (1, 11), (2, 20)])], |s| {
            use crate::map::MapOps;
            let rights = s.filter_map(|(k, v)| (k == 1).then_some((k, v + 100)));
            s.cogroup(&rights, |k, lefts, rights| {
                vec![(*k, lefts.len() as u64, rights.len() as u64)]
            })
        });
        let mut rows: Vec<(u64, u64, u64)> = out.into_iter().map(|(_, r)| r).collect();
        rows.sort();
        assert_eq!(rows, vec![(1, 2, 2), (2, 1, 0)]);
    }

    #[test]
    fn semijoin_and_antijoin_partition() {
        let out = run_epochs(2, vec![kv(&[(1, 10), (2, 20), (3, 30)])], |s| {
            use crate::map::MapOps;
            let keys = s.filter_map(|(k, _)| (k != 2).then_some(k));
            let semi = s.semijoin(&keys).map(|(k, v)| (k, v, true));
            let anti = s.antijoin(&keys).map(|(k, v)| (k, v, false));
            use crate::concat::ConcatOps;
            semi.concat(&anti)
        });
        let mut rows: Vec<(u64, u64, bool)> = out.into_iter().map(|(_, r)| r).collect();
        rows.sort();
        assert_eq!(rows, vec![(1, 10, true), (2, 20, false), (3, 30, true)]);
    }

    #[test]
    fn top_k_orders_and_truncates() {
        let out = run_epochs(
            1,
            vec![kv(&[(7, 3), (7, 9), (7, 1), (7, 9), (8, 2)])],
            |s| s.top_k(2),
        );
        let mut rows: Vec<(u64, Vec<u64>)> = out.into_iter().map(|(_, r)| r).collect();
        rows.sort();
        assert_eq!(rows, vec![(7, vec![9, 9]), (8, vec![2])]);
    }

    #[test]
    fn sum_and_mean_fold_per_epoch() {
        // run_epochs sorts outputs, so emit tenths as integers.
        let out = run_epochs(3, vec![vec![1.0f64, 2.0, 3.0], vec![10.0]], |s| {
            use crate::concat::ConcatOps;
            use crate::map::MapOps;
            s.sum().concat(&s.mean()).map(|x| (x * 10.0).round() as u64)
        });
        let epoch0: Vec<u64> = out
            .iter()
            .filter(|(e, _)| *e == 0)
            .map(|(_, v)| *v)
            .collect();
        assert!(epoch0.contains(&60) && epoch0.contains(&20), "{epoch0:?}");
        let epoch1: Vec<u64> = out
            .iter()
            .filter(|(e, _)| *e == 1)
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(epoch1, vec![100, 100]);
    }
}
