//! Epoch-based windows: tumbling and sliding aggregates over streams.
//!
//! The paper's streaming applications (§6.3–§6.4) aggregate per epoch;
//! windowing generalizes that to aggregates over *ranges* of epochs, using
//! the same notification machinery: a window's result is emitted at its
//! closing epoch, when the frontier guarantees every contributing epoch is
//! complete. (The paper notes Naiad can even express sliding-window
//! connected components; these operators are the keyed-aggregate
//! building blocks of that style.)

use naiad::dataflow::Notify;
use naiad::runtime::Pact;
use naiad::{Stream, Timestamp};
use naiad_wire::ExchangeData;

use crate::keyed::ExchangeKey;
use crate::per_time;
use crate::{hash_of, KeyMap};

/// Windowed aggregation over `(key, value)` streams at the top level.
///
/// Windows are measured in epochs. Results for a window are emitted at
/// its last epoch; epochs with no records for any key advance windows only
/// once a later data-bearing epoch closes (windows are data-driven, like
/// the rest of the dataflow).
pub trait WindowOps<K: ExchangeKey, V: ExchangeData> {
    /// Sums `fold`-ed values per key over consecutive disjoint windows of
    /// `width` epochs: window `w` covers epochs `[w·width, (w+1)·width)`,
    /// and `(key, w, aggregate)` is emitted at the window's final epoch.
    fn tumbling_fold<A: ExchangeData>(
        &self,
        width: u64,
        init: impl Fn() -> A + 'static,
        fold: impl FnMut(&mut A, V) + 'static,
    ) -> Stream<(K, u64, A)>;

    /// Per-epoch counts per key over the trailing `width` epochs:
    /// `(key, count)` emitted at every data-bearing epoch `e`, counting
    /// records with epochs in `(e − width, e]`.
    fn sliding_count(&self, width: u64) -> Stream<(K, u64)>;
}

impl<K: ExchangeKey, V: ExchangeData> WindowOps<K, V> for Stream<(K, V)> {
    fn tumbling_fold<A: ExchangeData>(
        &self,
        width: u64,
        init: impl Fn() -> A + 'static,
        mut fold: impl FnMut(&mut A, V) + 'static,
    ) -> Stream<(K, u64, A)> {
        assert!(width > 0, "window width must be positive");
        self.unary_notify(
            Pact::exchange(|(k, _): &(K, V)| hash_of(k)),
            "TumblingFold",
            move |_info| {
                // Partial aggregates per key, under the window's closing
                // epoch: the time the window is notified at.
                let (opener, closer) = per_time::states::<KeyMap<K, A>>(Notify::notify_at);
                (
                    move |input, _output, notify| {
                        input.for_each(|time, data| {
                            let close = (time.epoch / width) * width + width - 1;
                            let mut per_key = opener.open(Timestamp::new(close), notify);
                            for (k, v) in data {
                                fold(per_key.entry(k).or_insert_with(&init), v);
                            }
                        });
                    },
                    move |time, output, _notify| {
                        let window = time.epoch / width;
                        closer.close(time, |per_key| {
                            let rows = per_key.drain().map(|(k, acc)| (k, window, acc));
                            output.session(time).give_iterator(rows);
                        });
                    },
                )
            },
        )
    }

    fn sliding_count(&self, width: u64) -> Stream<(K, u64)> {
        assert!(width > 0, "window width must be positive");
        self.unary_notify(
            Pact::exchange(|(k, _): &(K, V)| hash_of(k)),
            "SlidingCount",
            move |_info| {
                // The counts of the notified epochs a later window may
                // still read, oldest first, and the window being summed.
                let mut recent: Vec<(u64, KeyMap<K, u64>)> = Vec::new();
                let mut totals: KeyMap<K, u64> = KeyMap::default();
                let (opener, closer) = per_time::states::<KeyMap<K, u64>>(Notify::notify_at);
                (
                    move |input, _output, notify| {
                        input.for_each(|time, data| {
                            let mut per_key = opener.open(time, notify);
                            for (k, _v) in data {
                                *per_key.entry(k).or_insert(0) += 1;
                            }
                        });
                    },
                    move |time, output, _notify| {
                        let e = time.epoch;
                        closer.close(time, |counts| recent.push((e, std::mem::take(counts))));
                        for (_, per_key) in recent.iter().filter(|(epoch, _)| epoch + width > e) {
                            for (k, n) in per_key {
                                *totals.entry(k.clone()).or_insert(0) += n;
                            }
                        }
                        output.session(time).give_iterator(totals.drain());
                        // Blocking notifications arrive in time order, so
                        // no later window reads an epoch at or before
                        // `e + 1 − width`.
                        recent.retain(|(epoch, _)| epoch + width > e + 1);
                    },
                )
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::run_epochs;

    #[test]
    fn tumbling_folds_disjoint_windows() {
        // Width 2: epochs {0,1} → window 0, {2,3} → window 1.
        let out = run_epochs(
            2,
            vec![
                vec![(1u64, 5u64)],
                vec![(1, 7), (2, 1)],
                vec![(1, 100)],
                vec![],
            ],
            |s| s.tumbling_fold(2, || 0u64, |acc, v| *acc += v),
        );
        let mut rows: Vec<(u64, u64, u64)> = out.into_iter().map(|(_, r)| r).collect();
        rows.sort();
        assert_eq!(rows, vec![(1, 0, 12), (1, 1, 100), (2, 0, 1)]);
    }

    #[test]
    fn sliding_counts_trailing_epochs() {
        let out = run_epochs(
            1,
            vec![vec![(9u64, ())], vec![(9, ()), (9, ())], vec![(9, ())]],
            |s| s.sliding_count(2),
        );
        // Epoch 0: 1; epoch 1: 1+2 = 3; epoch 2: 2+1 = 3.
        assert_eq!(out, vec![(0, (9, 1)), (1, (9, 3)), (2, (9, 3))]);
    }

    #[test]
    fn windows_are_keyed() {
        // Single worker: windows are evaluated at data-bearing epochs of
        // the worker's whole partition, so key 2's trailing count appears
        // at epoch 1 even though only key 1 has epoch-1 records.
        let out = run_epochs(1, vec![vec![(1u64, ()), (2u64, ())], vec![(1, ())]], |s| {
            s.sliding_count(2)
        });
        let mut rows: Vec<(u64, (u64, u64))> = out;
        rows.sort();
        assert_eq!(
            rows,
            vec![(0, (1, 1)), (0, (2, 1)), (1, (1, 2)), (1, (2, 1))]
        );
    }
}
