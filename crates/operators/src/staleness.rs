//! Bounded staleness (§2.4): notifications with a capability time *before*
//! the guarantee time, used to constrain otherwise asynchronous loops.
//!
//! The paper observes that a notification's guarantee time `tg` and
//! capability time `tc` can be decoupled; with `tc < tg` one can implement
//! "bounded staleness", guaranteeing the system does not proceed more than
//! a defined number of iterations beyond any incomplete iteration. This
//! operator realizes that: records of iteration `c ≥ k` are withheld until
//! iteration `c − k` has completed, turning a free-running asynchronous
//! loop into a `k`-bounded one.

use naiad::dataflow::Notify;
use naiad::runtime::Pact;
use naiad::{Stream, Timestamp};
use naiad_wire::ExchangeData;

use crate::per_time;

/// Staleness control for loop streams.
pub trait StalenessOps<D: ExchangeData> {
    /// Forwards records of loop iteration `c` only once iteration `c − k`
    /// is complete. `k = 1` yields fully synchronous iterations; larger
    /// `k` permits bounded pipelining (the "bounded staleness" of §2.4).
    ///
    /// # Panics
    ///
    /// Panics (at runtime, when data flows) if the stream is not inside a
    /// loop context, or if `k` is zero.
    fn bounded_staleness(&self, k: u64) -> Stream<D>;
}

impl<D: ExchangeData> StalenessOps<D> for Stream<D> {
    fn bounded_staleness(&self, k: u64) -> Stream<D> {
        assert!(k > 0, "a staleness bound of zero would deadlock the loop");
        self.unary_notify(Pact::Pipeline, "BoundedStaleness", move |_info| {
            // Held records live under their gate: the iteration whose
            // completion releases them.
            let (opener, closer) = per_time::states::<Vec<D>>(Notify::notify_at);
            (
                move |input, output, notify| {
                    input.for_each(|time, data| {
                        let c = *time
                            .counters
                            .as_slice()
                            .last()
                            .expect("bounded_staleness requires a loop context");
                        if c < k {
                            // Within the allowed lead: pass through.
                            output.session(time).give_vec(data);
                        } else {
                            // Hold until iteration c − k completes. The
                            // notification's guarantee time is the earlier
                            // iteration; its "capability" is exercised at
                            // the later time we emit at — tc > tg is always
                            // legal, and here it is what bounds the lead.
                            let gate = with_iteration(time, c - k);
                            opener.open(gate, notify).extend(data);
                        }
                    });
                },
                move |gate, output, _notify| {
                    // Iteration `gate` is complete: release `gate + k`.
                    let c = *gate
                        .counters
                        .as_slice()
                        .last()
                        .expect("loop counter present");
                    let release = with_iteration(gate, c + k);
                    closer.close(gate, |held| output.session(release).give_container(held));
                },
            )
        })
    }
}

/// `time` at loop iteration `c` of its innermost loop.
fn with_iteration(mut time: Timestamp, c: u64) -> Timestamp {
    time.counters = time
        .counters
        .popped()
        .expect("loop counter present")
        .pushed(c);
    time
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use naiad::{execute, Config};

    /// A free-running doubling loop, bounded to one-iteration lead: the
    /// output must be correct, and downstream must observe iteration
    /// counters in non-decreasing order (the synchronization the bound
    /// buys).
    #[test]
    fn bounded_loop_is_ordered_and_correct() {
        let results = execute(Config::single_process(2), |worker| {
            let (mut input, order, captured) = worker.dataflow(|scope| {
                let (input, stream) = scope.new_input::<u64>();
                let order = std::rc::Rc::new(std::cell::RefCell::new(Vec::<u64>::new()));
                let seen = order.clone();
                let out = stream.iterate(Some(32), |inner| {
                    let bounded = inner.bounded_staleness(1);
                    bounded
                        .inspect(move |time, _| {
                            seen.borrow_mut()
                                .push(*time.counters.as_slice().last().unwrap());
                        })
                        .map(|x| if x < 64 { x * 2 } else { x })
                        .distinct()
                });
                let captured = out.filter(|&x| x >= 64).distinct().capture();
                (input, order, captured)
            });
            if worker.index() == 0 {
                input.send_batch([3, 5]);
            }
            input.close();
            worker.step_until_done();
            let result = (order.borrow().clone(), captured.borrow().clone());
            result
        })
        .unwrap();
        let mut finals: Vec<u64> = results
            .iter()
            .flat_map(|(_, cap)| cap.iter().flat_map(|(_, d)| d.iter().copied()))
            .collect();
        finals.sort_unstable();
        assert_eq!(finals, vec![80, 96]);
        for (order, _) in &results {
            for pair in order.windows(2) {
                assert!(
                    pair[0] <= pair[1],
                    "iteration counters regressed under k = 1: {order:?}"
                );
            }
        }
    }

    #[test]
    fn zero_bound_is_rejected() {
        // The assertion fires on the worker thread, which `execute`
        // surfaces as a WorkerPanic.
        let result = execute(Config::single_process(1), |worker| {
            worker.dataflow(|scope| {
                let (input, stream) = scope.new_input::<u64>();
                let out = stream.iterate(Some(4), |inner| inner.bounded_staleness(0));
                let _ = out.probe();
                input
            });
        });
        assert!(matches!(
            result,
            Err(naiad::runtime::ExecuteError::WorkerPanic(0))
        ));
    }
}
