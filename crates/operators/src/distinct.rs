//! `distinct`: emit each record the first time it is seen at a time.
//!
//! This is the asynchronous specialization §4.2 calls out: a record is
//! forwarded from `OnRecv` the moment it is first observed, so `distinct`
//! adds no coordination — which is what lets Datalog-style loops built
//! from `Where`/`Concat`/`Distinct`/`Join` run fully asynchronously.
//! Per-time state is reclaimed by a purge notification (§2.4) that never
//! holds back the frontier.

use naiad::dataflow::Notify;
use naiad::runtime::Pact;
use naiad::Stream;
use naiad_wire::ExchangeData;

use crate::per_time;
use crate::{hash_of, KeyMap};

/// Deduplication operators.
pub trait DistinctOps<D: ExchangeData> {
    /// Emits each distinct record once per timestamp, at first sight.
    ///
    /// Records are exchanged by hash so all copies of a record meet at one
    /// worker. Works inside loop contexts: distinctness is per full
    /// timestamp (epoch and loop counters), which is what fixed-point
    /// loops rely on for termination.
    fn distinct(&self) -> Stream<D>;
}

impl<D: ExchangeData + std::hash::Hash + Eq> DistinctOps<D> for Stream<D> {
    fn distinct(&self) -> Stream<D> {
        self.unary_notify(Pact::exchange(|d: &D| hash_of(d)), "Distinct", |_info| {
            let (opener, closer) = per_time::states::<KeyMap<D, ()>>(Notify::notify_at_purge);
            (
                move |input, output, notify| {
                    input.for_each_batch(|time, data| {
                        let mut seen = opener.open(time, notify);
                        let mut session = output.session(time);
                        for record in data.drain(..) {
                            if !seen.contains_key(&record) {
                                seen.insert(record.clone(), ());
                                session.give(record);
                            }
                        }
                    });
                },
                // Purge: the time is complete everywhere, free its set.
                move |time, _output, _notify| closer.close(time, |_| {}),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::run_epochs;

    #[test]
    fn distinct_dedupes_within_epoch() {
        let out = run_epochs(2, vec![vec![1u64, 2, 1, 1, 2, 3], vec![1, 1]], |s| {
            s.distinct()
        });
        assert_eq!(out, vec![(0, 1), (0, 2), (0, 3), (1, 1)]);
    }

    #[test]
    fn distinct_keeps_epochs_separate() {
        let out = run_epochs(1, vec![vec![5u64], vec![5], vec![5]], |s| s.distinct());
        assert_eq!(out, vec![(0, 5), (1, 5), (2, 5)]);
    }
}
