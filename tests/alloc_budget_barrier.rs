//! Allocation budget for a coordination round: Figure 6b's barrier loop.
//!
//! A counting global allocator wraps the system allocator and the test
//! runs the `barrier_loop` shape — one `binary_notify` in a loop context,
//! one token per worker passed on from `OnNotify` — for 2,000 and for
//! 20,000 rounds, on one process of two workers and on two processes of
//! one. The difference, over the 18,000 extra rounds, is what one round
//! allocates: no data moves, so all of it is coordination — progress
//! frames, their decode and encode, the journal, the notification path.
//! The budget is the count measured when it was set, rounded up; the aim
//! is at most one allocation per round, and then none.
//!
//! This file holds exactly one `#[test]` so the counter is never shared
//! with concurrently running tests. Like `tests/alloc_budget.rs`, it
//! implements the unsafe `GlobalAlloc` trait outside the `src crates
//! examples` scope of verify.sh's unsafe-free gate, and only forwards to
//! `System`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use naiad::dataflow::{InputPort, Notify, OutputPort};
use naiad::graph::ContextId;
use naiad::{execute, Config, Pact, Timestamp};

/// Allocations observed process-wide since start (allocs + reallocs).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: forwards every call verbatim to `System`; the counter update
// is an atomic add with no allocation of its own.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

const SHORT: u64 = 2_000;
const LONG: u64 = 20_000;

/// Allocations per round, at most, per shape `(processes, workers)`. On
/// 1 × 2 the process accumulator flushes both workers' rounds as one
/// frame, so a round encodes, sends and decodes half as many; 2 × 1 has
/// two accumulators, each flushing its own worker's round. 1 × 2 read
/// 7.27 and 2 × 1 12.53 when these budgets were set (12.53–12.55 for both
/// while every deposit flushed, 30–34 while a notification's output
/// waited a step to move).
const BUDGETS: [((usize, usize), f64); 2] = [((1, 2), 8.0), ((2, 1), 13.0)];

/// Runs `rounds` barrier rounds on `config` and returns the allocations
/// the whole run cost.
fn barrier_run(config: Config, rounds: u64) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let notified = execute(config, move |worker| {
        let notified = Rc::new(Cell::new(0u64));
        let count = notified.clone();
        let mut input = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<u64>();
            let mut inner = stream.scope();
            let lc = inner.loop_context(ContextId::ROOT);
            let entered = lc.enter(&stream);
            let (handle, cycle) = lc.feedback::<u64>(None);
            let stepped =
                entered.binary_notify(&cycle, Pact::Pipeline, Pact::Pipeline, "Barrier", |_| {
                    (
                        |seed: &mut InputPort<u64>,
                         loopback: &mut InputPort<u64>,
                         _output: &mut OutputPort<u64>,
                         notify: &Notify| {
                            seed.for_each(|time, _| notify.notify_at(time));
                            loopback.for_each(|time, _| notify.notify_at(time));
                        },
                        move |time: Timestamp, output: &mut OutputPort<u64>, _notify: &Notify| {
                            count.set(count.get() + 1);
                            if count.get() < rounds {
                                output.session(time).give(0);
                            }
                        },
                    )
                });
            handle.connect(&stepped);
            let _ = lc.leave(&stepped);
            input
        });
        input.send(0);
        input.close();
        worker.step_until_done();
        notified.get()
    })
    .unwrap();
    assert_eq!(
        notified,
        vec![rounds; notified.len()],
        "every worker saw every round"
    );
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn a_barrier_round_stays_within_its_allocation_budget() {
    for ((processes, workers), budget) in BUDGETS {
        let config = || Config::processes_and_workers(processes, workers);
        // Warm-up run: first-touch costs that belong to the process.
        let _ = barrier_run(config(), SHORT);
        let short = barrier_run(config(), SHORT);
        let long = barrier_run(config(), LONG);
        let per_round = long.saturating_sub(short) as f64 / (LONG - SHORT) as f64;
        println!("{processes}x{workers}: {SHORT} rounds {short}, {LONG} rounds {long}: {per_round:.2} allocations per round");
        assert!(
            per_round <= budget,
            "{processes}x{workers}: a barrier round costs {per_round:.2} allocations \
             (budget {budget}) — an allocation joined the coordination round"
        );
    }
}
