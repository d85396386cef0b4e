//! Overload trade-off: throughput and peak in-flight bytes at 1x/2x/4x
//! offered load, with and without a binding credit budget (DESIGN.md §15).
//!
//! A producer offers 64-record chunks at a multiple of the consumer's
//! drain rate (the consumer dawdles one tick per batch). At 1x the
//! pipeline is balanced; at 2x and 4x the producer runs ahead and the
//! exchange queue must absorb the excess. Both arms run under flow
//! control so the peak gauge is metered — the "unbounded" arm uses a
//! budget that can never bind (pure metering), the "credited" arm a
//! 4 KiB budget with lossless `Block` policy.
//!
//! The story the table tells: end-to-end throughput is pinned to the
//! consumer in every cell (backpressure costs nothing you could have
//! kept), while the peak in-flight bytes grow with the load multiplier
//! unbounded and stay flat at the budget when credited.
//!
//! Run with: `cargo bench -p naiad-bench --bench overload_flow`

use std::cell::RefCell;
use std::rc::Rc;
use std::thread;
use std::time::{Duration, Instant};

use naiad::dataflow::{InputPort, OutputPort};
use naiad::runtime::Pact;
use naiad::{execute_with_telemetry, Config, FlowConfig};
use naiad_bench::{header, scaled};

const CHUNK: usize = 64;
// Slow enough that the consumer is unambiguously the bottleneck: the
// producer can serialize and flush a chunk in well under a tick.
const DAWDLE: Duration = Duration::from_millis(4);
const CREDITED_BUDGET: usize = 4 << 10;
/// Large enough that the credit layer only meters, never parks.
const UNBOUNDED_BUDGET: usize = 1 << 30;

/// One run: `chunks` chunks offered at `load` times the drain rate.
/// Returns (delivered records, wall seconds, peak in-flight bytes,
/// credit waits).
fn run(chunks: usize, load: u32, budget: usize) -> (u64, f64, u64, u64) {
    let flow = FlowConfig::default()
        .budget(budget)
        .credit_wait(Duration::from_secs(5));
    let config = Config::processes_and_workers(1, 2)
        .batch_size(CHUNK)
        .flow(flow);
    // Producer pacing: the consumer drains one chunk per DAWDLE tick,
    // so offering `load` chunks per tick is a `load`x overload.
    let ticks = chunks / load as usize;

    let (results, snapshot) = execute_with_telemetry(config, move |worker| {
        let (mut input, probe, seen) = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<(u64, u64)>();
            let seen: Rc<RefCell<u64>> = Rc::default();
            let sink = Rc::clone(&seen);
            let stream = stream.unary(
                Pact::exchange(|_: &(u64, u64)| 1),
                "DawdlingSink",
                move |_info| {
                    move |input: &mut InputPort<(u64, u64)>,
                          _output: &mut OutputPort<(u64, u64)>| {
                        input.for_each(|_time, data| {
                            thread::sleep(DAWDLE);
                            *sink.borrow_mut() += data.len() as u64;
                        });
                    }
                },
            );
            (input, stream.probe(), seen)
        });

        let start = Instant::now();
        if worker.index() == 0 {
            for tick in 0..ticks {
                for c in 0..load as usize {
                    let chunk = (tick * load as usize + c) as u64;
                    for i in 0..CHUNK as u64 {
                        input.send((chunk, i));
                    }
                }
                // No step between ticks: flushes happen inside send,
                // and a credit park there is the backpressure under
                // test (worker 1's releases wake the producer).
                thread::sleep(DAWDLE);
            }
        }
        input.close();
        worker.step_while(|| !probe.done_through(0));
        worker.step_until_done();
        let delivered = *seen.borrow();
        (delivered, start.elapsed().as_secs_f64())
    })
    .expect("overloaded run completes");

    let delivered: u64 = results.iter().map(|(d, _)| d).sum();
    let wall = results.iter().fold(0.0f64, |a, (_, t)| a.max(*t));
    let flow = snapshot.flow;
    assert_eq!(flow.shed_records, 0, "Block policy is lossless");
    assert_eq!(flow.in_flight_bytes, 0, "credits drain by the join");
    (
        delivered,
        wall,
        flow.peak_in_flight_bytes,
        flow.credit_waits,
    )
}

fn main() {
    header(
        "Overload",
        "throughput vs peak in-flight bytes at 1x/2x/4x load (DESIGN.md §15)",
    );
    let chunks = scaled(160);
    println!(
        "\n{} chunks of {CHUNK} records, consumer drains one chunk per {DAWDLE:?};\n\
         'unbounded' meters under a budget that never binds, 'credited' blocks\n\
         at {CREDITED_BUDGET} bytes:\n",
        chunks
    );
    println!(
        "{:>6} {:>11} {:>11} {:>13} {:>13} {:>13} {:>12}",
        "load", "arm", "delivered", "seconds", "krec/s", "peak bytes", "credit waits"
    );
    for load in [1, 2, 4] {
        for (arm, budget) in [
            ("unbounded", UNBOUNDED_BUDGET),
            ("credited", CREDITED_BUDGET),
        ] {
            let (delivered, wall, peak, waits) = run(chunks, load, budget);
            assert_eq!(delivered, (chunks * CHUNK) as u64, "lossless in every cell");
            if budget == CREDITED_BUDGET {
                assert!(
                    peak <= CREDITED_BUDGET as u64,
                    "peak {peak} exceeded the credit budget"
                );
            }
            println!(
                "{load:>5}x {arm:>11} {delivered:>11} {wall:>13.3} {:>13.1} {peak:>13} {waits:>12}",
                delivered as f64 / wall / 1e3
            );
        }
    }
    println!(
        "\nShape check: throughput is consumer-bound in every cell; the peak\n\
         grows with the load multiplier when unbounded and is capped at the\n\
         budget when credited — backpressure trades memory for wait time."
    );
}
