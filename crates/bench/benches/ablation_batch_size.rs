//! Ablation: exchange batch size (§3.5's application-level aggregation).
//!
//! Naiad aggregates records into batches before the exchange; the paper
//! credits this for sustaining throughput despite aggressive TCP timer
//! settings. This ablation varies the batch size on a fixed exchange-heavy
//! workload and reports wall time, network bytes, and data messages: tiny
//! batches pay per-message overheads and per-batch progress updates, while
//! past a point larger batches stop helping.

use naiad::dataflow::{InputPort, OutputPort};
use naiad::runtime::Pact;
use naiad::{
    execute_with_metrics, Config, Execution, IntrospectOptions, TuningDecision,
};
use naiad_bench::{header, scaled, timed};
use naiad_netsim::TrafficClass;

fn run(batch: usize, records: usize) -> (f64, u64, u64, u64) {
    let config = Config::processes_and_workers(2, 2).batch_size(batch);
    let (times, metrics) = execute_with_metrics(config, move |worker| {
        let (mut input, probe) = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<u64>();
            let probe = stream
                .unary(Pact::exchange(|x: &u64| *x), "Shuffle", |_info| {
                    |input: &mut InputPort<u64>, output: &mut OutputPort<u64>| {
                        input.for_each(|time, data| {
                            output.session(time).give_vec(data);
                        });
                    }
                })
                .probe();
            (input, probe)
        });
        let t = timed(|| {
            for i in 0..records as u64 {
                input.send(i * 17 + worker.index() as u64);
            }
            input.close();
            worker.step_until_done();
        })
        .1;
        drop(probe);
        t
    })
    .unwrap();
    let elapsed = times.into_iter().fold(0.0f64, f64::max);
    let data = metrics.total(TrafficClass::Data, false);
    let progress = metrics.network_bytes(TrafficClass::Progress);
    (elapsed, data.bytes, data.messages, progress)
}

/// The same shuffle, streamed over `epochs` epochs with the self-hosted
/// autotuner closing the loop on the exchange batch size. Returns the
/// wall time, the tuner's moves, and the batch size it settled on.
fn run_autotuned(
    start_batch: usize,
    records: usize,
    epochs: u64,
) -> (f64, Vec<TuningDecision>, u64) {
    let config = Config::processes_and_workers(2, 2)
        .batch_size(start_batch)
        .telemetry_capacity(1 << 21);
    let report = Execution::new(config)
        .introspect(IntrospectOptions::default().autotune(true).tap_capacity(1 << 21))
        .run(move |worker, _| {
            let (mut input, probe) = worker.dataflow(|scope| {
                let (input, stream) = scope.new_input::<u64>();
                let probe = stream
                    .unary(Pact::exchange(|x: &u64| *x), "Shuffle", |_info| {
                        |input: &mut InputPort<u64>, output: &mut OutputPort<u64>| {
                            input.for_each(|time, data| {
                                output.session(time).give_vec(data);
                            });
                        }
                    })
                    .probe();
                (input, probe)
            });
            timed(|| {
                for epoch in 0..epochs {
                    for i in 0..records as u64 {
                        input.send(epoch * 1_000_000 + i * 17 + worker.index() as u64);
                    }
                    input.advance_to(epoch + 1);
                    worker.step_while(|| !probe.done_through(epoch));
                }
                input.close();
                worker.step_until_done();
            })
            .1
        })
        .unwrap();
    let elapsed = report.phases[0].results.iter().copied().fold(0.0f64, f64::max);
    let settled = report
        .decisions
        .iter()
        .rev()
        .find(|d| d.knob.name() == "batch_size")
        .map_or(start_batch as u64, |d| d.to);
    (elapsed, report.decisions, settled)
}

fn main() {
    header(
        "Ablation",
        "exchange batch size vs time, bytes, messages, progress traffic",
    );
    let records = scaled(50_000);
    println!("workload: {records} records/worker, 2 processes x 2 workers\n");
    println!(
        "{:>10} {:>10} {:>14} {:>12} {:>16}",
        "batch", "seconds", "data bytes", "data msgs", "progress bytes"
    );
    for batch in [1usize, 8, 64, 512, 4096] {
        let (t, bytes, msgs, progress) = run(batch, records);
        println!("{batch:>10} {t:>10.3} {bytes:>14} {msgs:>12} {progress:>16}");
    }
    println!(
        "\nShape check: batches amortize per-message costs and collapse\n\
         per-batch progress updates; returns diminish once batches exceed\n\
         the typical per-step record volume (§3.5)."
    );

    header(
        "Ablation (autotuned)",
        "the self-hosted critical-path loop re-tunes the batch size online",
    );
    let epochs = 16u64;
    let per_epoch = scaled(5_000);
    println!("workload: {per_epoch} records/worker/epoch x {epochs} epochs\n");
    println!("{:>10} {:>10} {:>12} {:>8}", "start", "seconds", "settled", "moves");
    for start in [1usize, 4096] {
        let (t, decisions, settled) = run_autotuned(start, per_epoch, epochs);
        let moves = decisions
            .iter()
            .filter(|d| d.knob.name() == "batch_size")
            .count();
        println!("{start:>10} {t:>10.3} {settled:>12} {moves:>8}");
        for d in &decisions {
            println!("           epoch {:>3}: {} {} -> {}", d.epoch, d.knob.name(), d.from, d.to);
        }
    }
    println!(
        "\nShape check: from either extreme the tuner walks the batch size\n\
         toward the hand-swept optimum above (windowed span cost, 5%\n\
         hysteresis, x2/:2 steps) and settles without oscillating."
    );
}
