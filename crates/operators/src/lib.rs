//! The Naiad operator library (§4.2): LINQ-like incremental operators and
//! Bloom-style asynchronous operators, built entirely on the public timely
//! dataflow API — no private runtime hooks, exactly as the paper argues
//! libraries should be layered.
//!
//! Most operators come in two flavours, mirroring §2.4's discussion:
//!
//! * *asynchronous* operators ([`distinct`](DistinctOps::distinct),
//!   [`join`](JoinOps::join), [`concat`](ConcatOps::concat), monotonic
//!   [`aggregate`](AggregateOps::aggregate_monotonic)) emit from `OnRecv`
//!   without any coordination; `distinct` and `join` free each time's
//!   state with a purge notification, which holds nothing back;
//! * *blocking* operators ([`count`](KeyedOps::count),
//!   [`group_by`](KeyedOps::group_by), [`reduce`](KeyedOps::reduce)) use
//!   `OnNotify` to emit once per completed time, giving the
//!   single-value-per-time guarantee that makes sub-computations
//!   composable.
//!
//! Every operator that keeps state per time keeps it in one shape,
//! [`per_time`]: a time's state opens with the time's first record, which
//! requests the time's notification, blocking or purge, and that
//! notification hands the state to the operator's completion logic and
//! frees it for reuse.
//!
//! # Examples
//!
//! An incrementally updatable MapReduce, following §4.1's prototypical
//! program:
//!
//! ```
//! use naiad::{execute, Config};
//! use naiad_operators::prelude::*;
//!
//! let counts = execute(Config::single_process(2), |worker| {
//!     let (mut input, captured) = worker.dataflow(|scope| {
//!         let (input, lines) = scope.new_input::<String>();
//!         let counts = lines
//!             .flat_map(|line: String| {
//!                 line.split_whitespace()
//!                     .map(|w| (w.to_string(), 1u64))
//!                     .collect::<Vec<_>>()
//!             })
//!             .count();
//!         (input, counts.capture())
//!     });
//!     if worker.index() == 0 {
//!         input.send("a b a".to_string());
//!     }
//!     input.close();
//!     worker.step_until_done();
//!     let result = captured.borrow().clone();
//!     result
//! })
//! .unwrap();
//! let mut all: Vec<_> = counts.into_iter().flatten().flat_map(|(_, d)| d).collect();
//! all.sort();
//! assert_eq!(all, vec![("a".to_string(), 2), ("b".to_string(), 1)]);
//! ```

#![forbid(unsafe_code)]

mod aggregate;
mod concat;
mod distinct;
mod exchange;
mod iterate;
mod join;
mod keyed;
mod map;
pub mod per_time;
mod reduction;
mod relational;
mod staleness;
mod windows;

pub use aggregate::AggregateOps;
pub use concat::ConcatOps;
pub use distinct::DistinctOps;
pub use exchange::ExchangeOps;
pub use iterate::IterateOps;
pub use join::JoinOps;
pub use keyed::{DistinctCountOps, ExchangeKey, KeyedOps};
pub use map::MapOps;
pub use naiad_wire::hash::{hash_of, KeyHasher, KeyMap};
pub use reduction::{AllReduceOps, ReductionOps};
pub use relational::{NumericOps, RelationalOps};
pub use staleness::StalenessOps;
pub use windows::WindowOps;

/// Everything, for glob import.
pub mod prelude {
    pub use crate::{
        hash_of, AggregateOps, AllReduceOps, ConcatOps, DistinctCountOps, DistinctOps, ExchangeOps,
        IterateOps, JoinOps, KeyedOps, MapOps, NumericOps, ReductionOps, RelationalOps,
        StalenessOps, WindowOps,
    };
    pub use naiad::runtime::Pact;
}

#[cfg(test)]
pub(crate) mod testing {
    //! Shared helpers for operator tests.

    use naiad::{execute, Config};
    use naiad_wire::ExchangeData;

    /// Runs a single-input dataflow on `workers` workers, feeding each
    /// worker its slice of `epochs` (a list of per-epoch record batches),
    /// and returns the merged, sorted `(epoch, record)` outputs of all
    /// workers.
    pub fn run_epochs<D, D2>(
        workers: usize,
        epochs: Vec<Vec<D>>,
        build: impl Fn(&naiad::Stream<D>) -> naiad::Stream<D2> + Send + Sync + 'static,
    ) -> Vec<(u64, D2)>
    where
        D: ExchangeData + Sync,
        D2: ExchangeData + Ord,
    {
        let epochs_shared = std::sync::Arc::new(epochs);
        let results = execute(Config::single_process(workers), move |worker| {
            let (mut input, captured) = worker.dataflow(|scope| {
                let (input, stream) = scope.new_input::<D>();
                let out = build(&stream);
                (input, out.capture())
            });
            let peers = worker.peers();
            let index = worker.index();
            for (e, records) in epochs_shared.iter().enumerate() {
                for (i, r) in records.iter().enumerate() {
                    if i % peers == index {
                        input.send(r.clone());
                    }
                }
                if e + 1 < epochs_shared.len() {
                    input.advance_to(e as u64 + 1);
                }
            }
            input.close();
            worker.step_until_done();
            let result = captured.borrow().clone();
            result
        })
        .unwrap();
        let mut merged: Vec<(u64, D2)> = results
            .into_iter()
            .flatten()
            .flat_map(|(epoch, data)| data.into_iter().map(move |d| (epoch, d)))
            .collect();
        merged.sort();
        merged
    }
}
