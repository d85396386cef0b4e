//! Overload report: a skewed word count driven past what its hottest
//! consumer can absorb, under credit-based flow control (DESIGN.md §15).
//!
//! One worker produces word batches where a single hot key carries most
//! of the volume, so the exchange funnels ~85% of all records at the
//! worker that counts them — and that worker dawdles, draining at
//! roughly half the offered rate (2× overload). With a small credit
//! budget the flow layer must absorb the mismatch: senders park on
//! exhausted credit cells, the overload monitor walks its state
//! machine, and the run still completes lossless under `Block` policy.
//!
//! The report prints three things the soak tests only assert on:
//!
//! 1. the cluster-wide flow gauges (peak in-flight vs. budget),
//! 2. the overload-state timeline (every `Normal → Throttled →
//!    Shedding` transition, per worker, with timestamps),
//! 3. credit-wait attribution: which connector senders blocked on,
//!    how often, and for how long.
//!
//! The invariants double as a CI gate (scripts/verify.sh runs this):
//! every offered record is delivered or counted as shed, all spent
//! credits drain by the join, and the overload machinery actually
//! engaged. Any violation panics, so the process exits non-zero.
//!
//! Run with: `cargo run --release --example overload_report`

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::thread;
use std::time::Duration;

use naiad::dataflow::{InputPort, OutputPort};
use naiad::telemetry::TelemetryEvent;
use naiad::{execute_with_telemetry, Config, FlowConfig, Pact};

const EPOCHS: u64 = 6;
const WORDS_PER_EPOCH: usize = 3_000;
const BUDGET: usize = 8 << 10;

/// ~85% of each epoch is the hot word, the rest cycles a cold tail.
fn skewed_words(epoch: u64) -> Vec<String> {
    const TAIL: [&str; 6] = ["fox", "dog", "jumps", "over", "lazy", "quick"];
    (0..WORDS_PER_EPOCH)
        .map(|i| {
            if (i + epoch as usize) % 100 < 85 {
                "the".to_string()
            } else {
                TAIL[i % TAIL.len()].to_string()
            }
        })
        .collect()
}

fn state_name(s: u8) -> &'static str {
    match s {
        0 => "Normal",
        1 => "Throttled",
        2 => "Shedding",
        _ => "?",
    }
}

fn main() {
    let flow = FlowConfig::default()
        .budget(BUDGET)
        .credit_wait(Duration::from_millis(500))
        .thresholds(0.05, 0.1);
    let config = Config::processes_and_workers(1, 2)
        .batch_size(64)
        .telemetry(true)
        .flow(flow);

    let (counts, snapshot) = execute_with_telemetry(config, |worker| {
        let (mut input, probe, counted) = worker.dataflow(|scope| {
            let (input, words) = scope.new_input::<String>();
            let counted: Rc<RefCell<BTreeMap<String, u64>>> = Rc::default();
            let sink = Rc::clone(&counted);
            // Route the hot word to worker 1 so the skew is guaranteed,
            // and dawdle there: the counter drains at roughly half the
            // rate the producer offers, which is the overload under test.
            let route = Pact::exchange(|w: &String| if w == "the" { 1 } else { w.len() as u64 });
            let stream = words.unary(route, "Count", move |_info| {
                move |input: &mut InputPort<String>, _output: &mut OutputPort<String>| {
                    input.for_each(|_time, data| {
                        thread::sleep(Duration::from_millis(2));
                        let mut counts = sink.borrow_mut();
                        for w in data {
                            *counts.entry(w).or_insert(0) += 1;
                        }
                    });
                }
            });
            (input, stream.probe(), counted)
        });

        for epoch in 0..EPOCHS {
            if worker.index() == 0 {
                for w in skewed_words(epoch) {
                    input.send(w);
                }
            }
            input.advance_to(epoch + 1);
            worker.step_while(|| !probe.done_through(epoch));
        }
        input.close();
        worker.step_until_done();
        let result = counted.borrow().clone();
        result
    })
    .expect("overloaded run completes: backpressure degrades throughput, not liveness");

    let mut merged: BTreeMap<String, u64> = BTreeMap::new();
    for per_worker in counts {
        for (w, n) in per_worker {
            *merged.entry(w).or_insert(0) += n;
        }
    }
    let delivered: u64 = merged.values().sum();
    let offered = EPOCHS * WORDS_PER_EPOCH as u64;
    let flow = snapshot.flow;

    println!("== overload report: skewed word count at ~2x load ==");
    println!(
        "offered {offered} records over {EPOCHS} epochs; delivered {delivered}, shed {}",
        flow.shed_records
    );
    println!(
        "hot key 'the': {} records",
        merged.get("the").copied().unwrap_or(0)
    );

    println!("\n== flow gauges ==");
    println!("budget                {BUDGET} bytes");
    println!("peak in-flight        {} bytes", flow.peak_in_flight_bytes);
    println!("in-flight after join  {} bytes", flow.in_flight_bytes);
    println!("credit waits          {}", flow.credit_waits);
    println!(
        "credit wait time      {:.1} ms",
        flow.credit_wait_ns as f64 / 1e6
    );
    println!("credit returns        {}", flow.credit_returns);
    println!("overdrafts            {}", flow.overdrafts);

    // Overload-state timeline: every monitor transition, in per-worker
    // recording order (per-worker clocks, so times compare within a row).
    println!("\n== overload-state timeline ==");
    let mut transitions = 0usize;
    for log in &snapshot.logs {
        for rec in &log.events {
            if let TelemetryEvent::OverloadTransition { from, to } = rec.event {
                transitions += 1;
                println!(
                    "t+{:>8.2} ms  worker {}  {} -> {}",
                    rec.nanos as f64 / 1e6,
                    log.worker,
                    state_name(from),
                    state_name(to)
                );
            }
        }
    }
    if transitions == 0 {
        println!("(no transitions recorded)");
    }

    // Credit-wait attribution: which connector the parked senders were
    // trying to push into, resolved to stage names through the stages
    // the message events on that connector name.
    println!("\n== credit-wait attribution ==");
    let mut by_conn: BTreeMap<(u32, u32), (u64, u64, u64)> = BTreeMap::new();
    let mut ends: BTreeMap<(u32, u32), (Option<u32>, Option<u32>)> = BTreeMap::new();
    for log in &snapshot.logs {
        for rec in &log.events {
            match rec.event {
                TelemetryEvent::CreditWait {
                    dataflow,
                    connector,
                    waited_ns,
                    bytes,
                } => {
                    let e = by_conn.entry((dataflow, connector)).or_insert((0, 0, 0));
                    e.0 += 1;
                    e.1 += waited_ns;
                    e.2 += u64::from(bytes);
                }
                TelemetryEvent::MessageSent {
                    dataflow,
                    connector,
                    stage,
                    ..
                } => ends.entry((dataflow, connector)).or_default().0 = Some(stage),
                TelemetryEvent::MessageReceived {
                    dataflow,
                    connector,
                    stage,
                    ..
                } => ends.entry((dataflow, connector)).or_default().1 = Some(stage),
                _ => {}
            }
        }
    }
    for (&(dataflow, connector), &(waits, ns, bytes)) in &by_conn {
        // Only scheduled operators carry names; an unnamed stage is an
        // ingress or capture vertex.
        let stage = |s: Option<u32>| {
            let Some(s) = s else { return "?".to_string() };
            snapshot
                .logs
                .iter()
                .flat_map(|l| l.directory.iter())
                .filter(|d| d.dataflow == dataflow)
                .flat_map(|d| d.operators.iter())
                .find(|(id, _)| *id == s)
                .map_or_else(|| format!("stage {s}"), |(_, n)| n.clone())
        };
        let (src, dst) = ends
            .get(&(dataflow, connector))
            .copied()
            .unwrap_or_default();
        let name = format!("{} -> {}", stage(src), stage(dst));
        println!(
            "df {dataflow} conn {connector} ({name}): {waits} waits, {:.1} ms total, {bytes} bytes delayed",
            ns as f64 / 1e6
        );
    }
    if by_conn.is_empty() {
        println!("(no credit waits recorded)");
    }

    // The gate: exact accounting, clean drain, and the flow layer must
    // actually have engaged — a silent run means the overload never
    // materialized and the report proved nothing.
    assert_eq!(
        delivered + flow.shed_records,
        offered,
        "every offered record is delivered or counted as shed"
    );
    assert_eq!(
        flow.in_flight_bytes, 0,
        "all spent credits drain by the join"
    );
    assert_eq!(flow.shed_records, 0, "Block policy is lossless");
    assert!(flow.credit_waits > 0, "the budget must bind under 2x load");
    assert!(
        transitions > 0,
        "the overload monitor must leave Normal under 2x load"
    );
    println!("\nok: lossless under 2x overload, credits drained, monitor engaged");
}
