//! Joins: the asynchronous per-time equijoin of §4.2 (suitable for
//! Datalog-style loops) and an accumulating variant for continually
//! growing relations (the Kineograph-style workloads of §6.3–§6.4).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use naiad::dataflow::{InputPort, Notify, OutputPort};
use naiad::runtime::Pact;
use naiad::{Stream, Timestamp};
use naiad_wire::ExchangeData;

use crate::keyed::ExchangeKey;
use crate::per_time;
use crate::{hash_of, KeyMap};

/// Each key's values from both inputs of a per-time binary operator.
pub(crate) type Sides<K, V1, V2> = KeyMap<K, (Vec<V1>, Vec<V2>)>;

/// One side of [`JoinOps::join_accumulate`]'s relation: each key's values
/// with the epoch each arrived at. Registered for checkpoints, so it is
/// the `std` map core's state registration takes.
type Relation<K, V> = Rc<RefCell<HashMap<K, Vec<(V, u64)>>>>;

/// Join operators over `(key, value)` streams.
pub trait JoinOps<K: ExchangeKey, V1: ExchangeData> {
    /// Per-time equijoin: pairs `(k, v1)` with every `(k, v2)` bearing the
    /// *same timestamp*. Matches are emitted from `OnRecv` as records
    /// arrive (no coordination); per-time state is freed by a purge
    /// notification.
    fn join<V2: ExchangeData, R: ExchangeData>(
        &self,
        other: &Stream<(K, V2)>,
        result: impl FnMut(&K, &V1, &V2) -> R + 'static,
    ) -> Stream<R>;

    /// Accumulating equijoin over top-level streams: pairs `(k, v1)` with
    /// every `(k, v2)` of any epoch, on either side. State grows
    /// monotonically — the paper's incremental applications (§6.4) join
    /// fresh records against an ever-growing relation, without retraction.
    ///
    /// Each match is emitted exactly once, at the *later* of the two
    /// records' epochs, so per-epoch outputs reflect exactly the matches
    /// that epoch completes.
    fn join_accumulate<V2: ExchangeData, R: ExchangeData>(
        &self,
        other: &Stream<(K, V2)>,
        result: impl FnMut(&K, &V1, &V2) -> R + 'static,
    ) -> Stream<R>;
}

impl<K: ExchangeKey, V1: ExchangeData> JoinOps<K, V1> for Stream<(K, V1)> {
    fn join<V2: ExchangeData, R: ExchangeData>(
        &self,
        other: &Stream<(K, V2)>,
        mut result: impl FnMut(&K, &V1, &V2) -> R + 'static,
    ) -> Stream<R> {
        self.binary_notify(
            other,
            Pact::exchange(|(k, _): &(K, V1)| hash_of(k)),
            Pact::exchange(|(k, _): &(K, V2)| hash_of(k)),
            "Join",
            move |_info| {
                let (opener, closer) =
                    per_time::states::<Sides<K, V1, V2>>(Notify::notify_at_purge);
                (
                    move |left, right, output, notify| {
                        left.for_each(|time, data| {
                            let mut sides = opener.open(time, notify);
                            let mut session = output.session(time);
                            for (k, v1) in data {
                                if let Some((_, v2s)) = sides.get(&k) {
                                    session.give_iterator(v2s.iter().map(|v2| result(&k, &v1, v2)));
                                }
                                sides.entry(k).or_default().0.push(v1);
                            }
                        });
                        right.for_each(|time, data| {
                            let mut sides = opener.open(time, notify);
                            let mut session = output.session(time);
                            for (k, v2) in data {
                                if let Some((v1s, _)) = sides.get(&k) {
                                    session.give_iterator(v1s.iter().map(|v1| result(&k, v1, &v2)));
                                }
                                sides.entry(k).or_default().1.push(v2);
                            }
                        });
                    },
                    // Purge: the time is complete everywhere, free its sides.
                    move |time, _output, _notify| closer.close(time, |_| {}),
                )
            },
        )
    }

    fn join_accumulate<V2: ExchangeData, R: ExchangeData>(
        &self,
        other: &Stream<(K, V2)>,
        mut result: impl FnMut(&K, &V1, &V2) -> R + 'static,
    ) -> Stream<R> {
        self.binary(
            other,
            Pact::exchange(|(k, _): &(K, V1)| hash_of(k)),
            Pact::exchange(|(k, _): &(K, V2)| hash_of(k)),
            "JoinAccumulate",
            move |info| {
                let lefts: Relation<K, V1> = Rc::default();
                let rights: Relation<K, V2> = Rc::default();
                // The accumulated relation persists across epochs, so both
                // sides are registered for checkpointing (§3.4) — keyed by
                // the exchange hash, so rescales can re-partition them.
                info.register_keyed_state(lefts.clone(), |k: &K| hash_of(k));
                info.register_keyed_state(rights.clone(), |k: &K| hash_of(k));
                move |left: &mut InputPort<(K, V1)>,
                      right: &mut InputPort<(K, V2)>,
                      output: &mut OutputPort<R>| {
                    let mut lefts = lefts.borrow_mut();
                    let mut rights = rights.borrow_mut();
                    left.for_each(|time, data| {
                        for (k, v1) in data {
                            if let Some(v2s) = rights.get(&k) {
                                for (v2, e2) in v2s {
                                    // A match belongs to the epoch that
                                    // completed it, not the epoch of
                                    // whichever record arrived second.
                                    let epoch = time.epoch.max(*e2);
                                    output
                                        .session(Timestamp::new(epoch))
                                        .give(result(&k, &v1, v2));
                                }
                            }
                            lefts.entry(k).or_default().push((v1, time.epoch));
                        }
                    });
                    right.for_each(|time, data| {
                        for (k, v2) in data {
                            if let Some(v1s) = lefts.get(&k) {
                                for (v1, e1) in v1s {
                                    let epoch = time.epoch.max(*e1);
                                    output
                                        .session(Timestamp::new(epoch))
                                        .give(result(&k, v1, &v2));
                                }
                            }
                            rights.entry(k).or_default().push((v2, time.epoch));
                        }
                    });
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use naiad::{execute, Config};

    #[test]
    fn per_time_join_matches_within_epoch_only() {
        let results = execute(Config::single_process(2), |worker| {
            let (mut names, mut ages, captured) = worker.dataflow(|scope| {
                let (names_in, names) = scope.new_input::<(u64, String)>();
                let (ages_in, ages) = scope.new_input::<(u64, u64)>();
                let joined = names.join(&ages, |k, name, age| (*k, name.clone(), *age));
                (names_in, ages_in, joined.capture())
            });
            if worker.index() == 0 {
                names.send((1, "ann".into()));
                names.send((2, "bob".into()));
                ages.send((1, 30));
                names.advance_to(1);
                ages.advance_to(1);
                // Epoch 1: the age for key 2 arrives too late to meet the
                // epoch-0 name.
                ages.send((2, 40));
            }
            names.close();
            ages.close();
            worker.step_until_done();
            let result = captured.borrow().clone();
            result
        })
        .unwrap();
        let all: Vec<_> = results.into_iter().flatten().flat_map(|(_, d)| d).collect();
        assert_eq!(all, vec![(1, "ann".to_string(), 30)]);
    }

    #[test]
    fn accumulating_join_matches_across_epochs() {
        let results = execute(Config::single_process(2), |worker| {
            let (mut names, mut ages, captured) = worker.dataflow(|scope| {
                let (names_in, names) = scope.new_input::<(u64, String)>();
                let (ages_in, ages) = scope.new_input::<(u64, u64)>();
                let joined = names.join_accumulate(&ages, |k, name, age| (*k, name.clone(), *age));
                (names_in, ages_in, joined.capture())
            });
            if worker.index() == 0 {
                names.send((1, "ann".into()));
                names.send((2, "bob".into()));
                names.advance_to(1);
                ages.advance_to(1);
                ages.send((2, 40));
                ages.send((1, 30));
            }
            names.close();
            ages.close();
            worker.step_until_done();
            let result = captured.borrow().clone();
            result
        })
        .unwrap();
        let mut all: Vec<_> = results.into_iter().flatten().flat_map(|(_, d)| d).collect();
        all.sort();
        assert_eq!(
            all,
            vec![(1, "ann".to_string(), 30), (2, "bob".to_string(), 40)]
        );
    }
}
