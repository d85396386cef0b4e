//! Online critical-path analysis over the in-repo workload catalog.
//!
//! Runs representative dataflows — the §5.4 WordCount benchmark and a
//! deliberately skewed exchange — under `Execution::introspect`: every
//! worker folds its telemetry stream into per-epoch activity as it is
//! recorded, and the run reports each epoch's straggler and prints the
//! versioned critical-path JSON-lines export. The final
//! workload repeats the skewed exchange with 16-record batches, where
//! transit and progress traffic, not operator time, fill the epoch.
//!
//! Usage:
//!
//! ```text
//! cargo run --example critical_path_report
//! ```
//!
//! Exit status is non-zero if any workload fails its introspection
//! contract (one summary per closed epoch, none twice, ≥95% wall-clock
//! accounting) — `scripts/verify.sh` runs this as a gate.

use naiad::{Config, Execution, RunReport, Worker};
use naiad_algorithms::wordcount::wordcount;

const EPOCHS: u64 = 4;

/// WordCount over repeated Zipf-ish lines, multi-epoch.
fn run_wordcount(worker: &mut Worker) {
    let (mut input, probe) = worker.dataflow(|scope| {
        let (input, lines) = scope.new_input::<String>();
        let probe = wordcount(&lines).probe();
        (input, probe)
    });
    let texts = [
        "the quick brown fox jumps over the lazy dog",
        "the dog barks and the fox runs from the dog",
        "no dog and no fox only words and more words",
        "the end of the stream is the end of the words",
    ];
    for epoch in 0..EPOCHS {
        if worker.index() == 0 {
            for _ in 0..64 {
                input.send(texts[epoch as usize].to_string());
            }
        }
        input.advance_to(epoch + 1);
        worker.step_while(|| !probe.done_through(epoch));
    }
    input.close();
    worker.step_until_done();
}

/// A skewed exchange: every record routes to worker 0, the deliberate
/// straggler the analysis should attribute.
fn run_skewed(worker: &mut Worker) {
    use naiad::dataflow::{InputPort, OutputPort};
    use naiad::runtime::Pact;

    let (mut input, probe) = worker.dataflow(|scope| {
        let (input, stream) = scope.new_input::<u64>();
        let probe = stream
            .unary(Pact::exchange(|_| 0), "HotKey", |_info| {
                |input: &mut InputPort<u64>, output: &mut OutputPort<u64>| {
                    input.for_each(|time, data| {
                        let folded = data.iter().map(|x| x % 1001).sum();
                        output.session(time).give(folded);
                    });
                }
            })
            .probe();
        (input, probe)
    });
    let index = worker.index() as u64;
    for epoch in 0..EPOCHS {
        if worker.index() != 0 {
            input.send_batch((0..512).map(|r| epoch * 10_000 + index * 1000 + r));
        }
        input.advance_to(epoch + 1);
        worker.step_while(|| !probe.done_through(epoch));
    }
    input.close();
    worker.step_until_done();
}

/// Checks the introspection contract and prints one workload's report.
fn report(name: &str, report: &RunReport<()>) {
    let snapshot = report
        .telemetry
        .as_ref()
        .expect("introspection forces telemetry on");
    println!("== {name} ==");
    println!("{}", snapshot.critical_path_json_lines());

    assert!(
        !report.summaries.is_empty(),
        "{name}: no critical-path summaries were produced"
    );
    let epochs: Vec<u64> = report.summaries.iter().map(|s| s.epoch).collect();
    for e in 0..EPOCHS {
        assert!(epochs.contains(&e), "{name}: epoch {e} has no summary");
    }
    let mut unique = epochs.clone();
    unique.dedup();
    assert_eq!(
        unique.len(),
        epochs.len(),
        "{name}: an epoch has two summaries"
    );

    println!("epoch  straggler  skew     busy(ms)  wait(ms)  transit(rec)  progress(upd)");
    for s in &report.summaries {
        // The accounting contract: straggler busy + attributed wait
        // covers ≥95% of the epoch's measured wall clock.
        let accounted = s.busy_max_ns + s.idle_ns;
        assert!(
            accounted * 100 >= s.span_ns * 95,
            "{name}: epoch {} accounts only {accounted} of {} ns",
            s.epoch,
            s.span_ns
        );
        println!(
            "{:>5}  w{:<8}  {:>4}.{:01}x  {:>8.3}  {:>8.3}  {:>12}  {:>13}",
            s.epoch,
            s.critical_worker,
            s.skew_milli / 1000,
            (s.skew_milli % 1000) / 100,
            s.busy_max_ns as f64 / 1e6,
            s.idle_ns as f64 / 1e6,
            s.transit_records,
            s.progress_updates,
        );
    }
    println!();
}

fn main() {
    let catalog_config = || {
        Config::processes_and_workers(2, 2)
            .telemetry_capacity(1 << 20)
            .batch_size(256)
    };

    let wc = Execution::new(catalog_config())
        .introspect()
        .run(|worker, _| run_wordcount(worker))
        .expect("wordcount under introspection");
    report("wordcount (2 processes x 2 workers)", &wc);

    let skew = Execution::new(catalog_config())
        .introspect()
        .run(|worker, _| run_skewed(worker))
        .expect("skewed exchange under introspection");
    report("skewed exchange (hot key on worker 0)", &skew);
    assert!(
        skew.summaries
            .iter()
            .filter(|s| s.critical_worker == 0)
            .count()
            * 2
            >= skew.summaries.len(),
        "the hot-key workload should attribute worker 0 as the straggler"
    );

    let small = Execution::new(catalog_config().batch_size(16))
        .introspect()
        .run(|worker, _| run_skewed(worker))
        .expect("small-batch skewed exchange under introspection");
    report("skewed exchange, small batches (batch=16)", &small);

    println!("critical-path report: OK");
}
