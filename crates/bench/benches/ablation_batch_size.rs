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
use naiad::{execute_with_metrics, Config};
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
}
