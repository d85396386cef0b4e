//! Allocation budget for a text workload: word count (§5.4) with the
//! combiner and keyed `reduce` of `naiad_algorithms::wordcount`.
//!
//! A counting global allocator wraps the system allocator and the test
//! runs word count over a fixed 64-word vocabulary on 2 processes × 1
//! worker at 1×/4×/16× word volume. What a word legitimately costs is
//! shared by many: a line `String` per 64 words, one partial-count `String`
//! per distinct word per combiner epoch, one decoded key per remote row.
//! Anything per *word* — a `String` for every occurrence, a table rebuilt
//! per batch or per epoch — shows up as growth with volume and trips the
//! gate below.
//!
//! This file holds exactly one `#[test]` so the counter is never shared
//! with concurrently running tests. Like `tests/alloc_budget.rs`, it
//! implements the unsafe `GlobalAlloc` trait outside the `src crates
//! examples` scope of verify.sh's unsafe-free gate, and only forwards to
//! `System`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use naiad::{execute, Config};
use naiad_algorithms::wordcount::wordcount;

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

const VOCABULARY: usize = 64;
const WORKERS: u64 = 2;
/// Lines each worker feeds per epoch; every line holds each word once.
const LINES_PER_EPOCH: usize = 512;
/// Epochs at 1× volume; volume scales the epoch count.
const BASE_EPOCHS: u64 = 2;
/// Epochs a worker may feed beyond the last one its output completed:
/// steady state means bounded in-flight depth, not queue growth.
const IN_FLIGHT: u64 = 2;

fn words_per_run(volume: u64) -> u64 {
    volume * BASE_EPOCHS * WORKERS * (LINES_PER_EPOCH * VOCABULARY) as u64
}

/// Runs word count at `volume`× and returns the allocations the whole
/// run cost, checking every epoch's counts on the way.
fn wordcount_run(lines: &Arc<Vec<String>>, volume: u64) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let lines = lines.clone();
    let epochs = volume * BASE_EPOCHS;
    let results = execute(Config::processes_and_workers(2, 1), move |worker| {
        let (mut input, probe, totals) = worker.dataflow(|scope| {
            let (input, text) = scope.new_input::<String>();
            let totals = std::rc::Rc::new(std::cell::Cell::new((0u64, 0u64)));
            let sink = totals.clone();
            let probe = wordcount(&text)
                .inspect(move |_time, (_word, count)| {
                    let (rows, words) = sink.get();
                    sink.set((rows + 1, words + count));
                })
                .probe();
            (input, probe, totals)
        });
        for epoch in 0..epochs {
            if epoch > 0 {
                input.advance_to(epoch);
            }
            for i in 0..LINES_PER_EPOCH {
                input.send(lines[i % lines.len()].clone());
            }
            while epoch >= IN_FLIGHT && !probe.done_through(epoch - IN_FLIGHT) {
                worker.step();
            }
        }
        input.close();
        worker.step_until_done();
        totals.get()
    })
    .unwrap();
    let after = ALLOCS.load(Ordering::Relaxed);
    let (rows, words) = results
        .iter()
        .fold((0, 0), |(r, w), &(rows, words)| (r + rows, w + words));
    assert_eq!(words, words_per_run(volume), "every word counted once");
    assert_eq!(
        rows,
        epochs * VOCABULARY as u64,
        "one row per word per epoch"
    );
    after - before
}

#[test]
fn steady_state_allocations_per_word_round_to_zero() {
    let vocabulary: Vec<String> = (0..VOCABULARY).map(|i| format!("word{i}")).collect();
    // Every rotation of the vocabulary, so lines differ but each holds
    // every word once.
    let lines: Arc<Vec<String>> = Arc::new(
        (0..VOCABULARY)
            .map(|r| {
                let (head, tail) = vocabulary.split_at(r);
                [tail, head].concat().join(" ")
            })
            .collect(),
    );
    // Warm-up run: first-touch costs that belong to the process.
    let _ = wordcount_run(&lines, 1);

    let at_1x = wordcount_run(&lines, 1);
    let at_4x = wordcount_run(&lines, 4);
    let at_16x = wordcount_run(&lines, 16);
    println!("allocations: 1x={at_1x} 4x={at_4x} 16x={at_16x}");

    for (volume, at) in [(4, at_4x), (16, at_16x)] {
        let extra_words = words_per_run(volume) - words_per_run(1);
        let per_word = at.saturating_sub(at_1x) as f64 / extra_words as f64;
        println!("{volume}x: {per_word:.4} allocations per extra word");
        assert!(
            per_word <= 0.05,
            "{volume}x word count costs {per_word:.3} allocations per word \
             (1x={at_1x}, {volume}x={at}) — a per-word allocation is back in \
             the combiner, the keyed reduce or the data plane"
        );
    }
}
