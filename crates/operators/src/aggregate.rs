//! Monotonic aggregation (BloomL-style, §4.2): emit a key's aggregate the
//! moment it improves, with no coordination.
//!
//! Inside a loop this allows fast uncoordinated iteration at the cost of
//! emitting intermediate values (§2.4's trade-off); compose with a
//! blocking operator at the loop boundary when a single final value is
//! needed.
//!
//! Emission is eager, but the state a checkpoint captures is not: it holds
//! only what completed times folded (DESIGN.md §13's consistency
//! contract). A peer may already feed time `e + 1` while this worker
//! checkpoints `e`; those values wait, unregistered, until `e + 1`'s
//! notification folds them in, so the checkpoint of `e` never holds them
//! and a replay of `e + 1` from it emits what the first run did.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use naiad::dataflow::{InputPort, Notify};
use naiad::runtime::Pact;
use naiad::Stream;
use naiad_wire::ExchangeData;

use crate::hash_of;
use crate::keyed::ExchangeKey;
use crate::per_time;

/// Monotonic aggregation operators.
pub trait AggregateOps<K: ExchangeKey, V: ExchangeData> {
    /// Keeps one aggregate per key across *all* times; `improve` merges a
    /// new value into the aggregate and reports whether it changed. Emits
    /// `(key, aggregate)` on every improvement.
    fn aggregate_monotonic<A: ExchangeData>(
        &self,
        init: impl Fn(&V) -> A + 'static,
        improve: impl FnMut(&mut A, V) -> bool + 'static,
    ) -> Stream<(K, A)>;

    /// Monotonic minimum per key.
    fn min_monotonic(&self) -> Stream<(K, V)>
    where
        V: Ord;
}

impl<K: ExchangeKey, V: ExchangeData> AggregateOps<K, V> for Stream<(K, V)> {
    fn aggregate_monotonic<A: ExchangeData>(
        &self,
        init: impl Fn(&V) -> A + 'static,
        improve: impl FnMut(&mut A, V) -> bool + 'static,
    ) -> Stream<(K, A)> {
        self.unary_notify(
            Pact::exchange(|(k, _): &(K, V)| hash_of(k)),
            "AggregateMonotonic",
            move |info| {
                // What completed times folded: the cross-time state
                // checkpoints capture and elastic rescales re-partition,
                // keyed by the exchange hash above.
                let folded: Rc<RefCell<HashMap<K, A>>> = Rc::new(RefCell::new(HashMap::new()));
                info.register_keyed_state(folded.clone(), |k: &K| hash_of(k));
                let fold = Rc::new(RefCell::new(Fold { init, improve }));
                // The aggregate over everything received, which decides
                // what to emit; a key restored into `folded` enters it on
                // its first new value.
                let mut seen: HashMap<K, A> = HashMap::new();
                let (recv_folded, recv_fold) = (folded.clone(), fold.clone());
                // Each open time's state is the values it received, until
                // its notification folds them in. Not registered: a replay
                // rebuilds them.
                let (opener, closer) = per_time::states::<Vec<(K, V)>>(Notify::notify_at);
                (
                    move |input: &mut InputPort<(K, V)>, output, notify| {
                        let (folded, mut fold) = (recv_folded.borrow(), recv_fold.borrow_mut());
                        input.for_each(|time, data| {
                            let mut session = output.session(time);
                            let mut pending = opener.open(time, notify);
                            for (k, v) in data {
                                if !seen.contains_key(&k) {
                                    if let Some(a) = folded.get(&k) {
                                        seen.insert(k.clone(), a.clone());
                                    }
                                }
                                if let Some(a) = fold.apply(&mut seen, k.clone(), v.clone()) {
                                    session.give((k.clone(), a.clone()));
                                }
                                pending.push((k, v));
                            }
                        });
                    },
                    move |time, _output, _notify| {
                        let (mut folded, mut fold) = (folded.borrow_mut(), fold.borrow_mut());
                        closer.close(time, |values| {
                            for (k, v) in values.drain(..) {
                                fold.apply(&mut folded, k, v);
                            }
                        });
                    },
                )
            },
        )
    }

    fn min_monotonic(&self) -> Stream<(K, V)>
    where
        V: Ord,
    {
        self.aggregate_monotonic(
            |v| v.clone(),
            |a, v| {
                if v < *a {
                    *a = v;
                    true
                } else {
                    false
                }
            },
        )
    }
}

/// An aggregate's two user functions, shared by the operator's receive
/// and notification halves.
struct Fold<I, F> {
    init: I,
    improve: F,
}

impl<I, F> Fold<I, F> {
    /// Folds `v` into `k`'s aggregate in `map`, returning the aggregate if
    /// it changed.
    fn apply<'m, K: ExchangeKey, V, A>(
        &mut self,
        map: &'m mut HashMap<K, A>,
        k: K,
        v: V,
    ) -> Option<&'m A>
    where
        I: Fn(&V) -> A,
        F: FnMut(&mut A, V) -> bool,
    {
        match map.entry(k) {
            std::collections::hash_map::Entry::Vacant(slot) => Some(slot.insert((self.init)(&v))),
            std::collections::hash_map::Entry::Occupied(slot) => {
                let a = slot.into_mut();
                (self.improve)(a, v).then_some(&*a)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::run_epochs;

    #[test]
    fn min_emits_only_improvements() {
        let out = run_epochs(1, vec![vec![(1u64, 5u64), (1, 7), (1, 3), (1, 4)]], |s| {
            s.min_monotonic()
        });
        // 5 first seen, 7 ignored, 3 improves, 4 ignored.
        assert_eq!(out, vec![(0, (1, 3)), (0, (1, 5))]);
    }

    #[test]
    fn aggregates_persist_across_epochs() {
        let out = run_epochs(
            2,
            vec![vec![(1u64, 5u64)], vec![(1, 9)], vec![(1, 2)]],
            |s| s.min_monotonic(),
        );
        // Epoch 1's 9 does not improve on 5; epoch 2's 2 does.
        assert_eq!(out, vec![(0, (1, 5)), (2, (1, 2))]);
    }
}
