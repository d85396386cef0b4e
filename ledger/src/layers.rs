//! The per-layer suite: each public function of a layer timed in
//! isolation, from outside the program. `naiad-bench layers` runs it at
//! full sampling; a traced workload run repeats it quickly, because the
//! reconciliation prices traced counts with these costs.

use std::sync::Arc;

use naiad::graph::{ContextId, GraphBuilder, LogicalGraph, StageId, StageKind};
use naiad::progress::{Accumulator, Pointstamp, PointstampTable, ProgressBatch, WorkerCore};
use naiad::{execute, Antichain, Config, FlowConfig, Timestamp};
use naiad_netsim::{Fabric, TrafficClass};
use naiad_operators::prelude::*;
use naiad_rng::Xorshift;
use naiad_wire::{
    decode_from_slice, decode_ref_from_slice, encode_to_vec, Bytes, KeyedBatch, KeyedBatchView,
    SeqView, SlabPool, Wire,
};

use crate::runner::{measure, Sampling, Summary};
use crate::workloads::{exchange, Length, Params};

/// Records per codec batch, the runtime's default exchange batch.
const BATCH: usize = 1024;

/// The loop graph the tracker and protocol cases reason over:
/// `in → I → body ⇄ F, body → E → out`.
fn loop_graph() -> LogicalGraph {
    let mut g = GraphBuilder::new();
    let input = g.add_stage("in", StageKind::Input, ContextId::ROOT, 0, 1);
    let ctx = g.add_context(ContextId::ROOT);
    let ingress = g.add_ingress("I", ctx);
    let feedback = g.add_feedback("F", ctx);
    let body = g.add_stage("body", StageKind::Regular, ctx, 2, 1);
    let egress = g.add_egress("E", ctx);
    let out = g.add_stage("out", StageKind::Regular, ContextId::ROOT, 1, 0);
    g.connect(input, 0, ingress, 0);
    g.connect(ingress, 0, body, 0);
    g.connect(feedback, 0, body, 1);
    g.connect(body, 0, feedback, 0);
    g.connect(body, 0, egress, 0);
    g.connect(egress, 0, out, 0);
    g.build().expect("the loop graph is valid")
}

/// The loop body of [`loop_graph`].
const BODY: StageId = StageId(3);

fn body_at(iteration: u64) -> Pointstamp {
    Pointstamp::at_vertex(Timestamp::with_counters(0, &[iteration]), BODY)
}

/// Every `layers`-sourced metric, by name, in `spec::PER_LAYER` order.
/// `exchange_seconds` is the length of each arm of the credit-tax pair.
pub fn run(
    sampling: Sampling,
    exchange_seconds: f64,
) -> Result<Vec<(&'static str, Summary)>, String> {
    let mut out = Vec::new();
    wire(sampling, &mut out);
    netsim(sampling, &mut out);
    out.push(("flow.credit_tax_pct", credit_tax(exchange_seconds)?));
    tracker(sampling, &mut out);
    protocol(sampling, &mut out);
    for (name, ops) in [
        ("worker.step_idle_ns.ops16", 16),
        ("worker.step_idle_ns.ops128", 128),
        ("worker.step_idle_ns.ops256", 256),
    ] {
        let (step, build_ms) = idle_step(sampling, ops)?;
        out.push((name, step));
        if ops == 256 {
            out.push(("graph.chain_build_ms.ops256", Summary::single(build_ms)));
        }
    }
    let graph = measure(sampling, || {
        std::hint::black_box(loop_graph());
    });
    out.push(("graph.summary_build_us", scaled(graph, 1e-3)));
    let antichain = measure(sampling, || {
        let mut a = Antichain::new();
        for e in (0..64u64).rev() {
            a.insert(Timestamp::new(e));
        }
        std::hint::black_box(a.len());
    });
    out.push(("order.antichain_insert_ns", scaled(antichain, 1.0 / 64.0)));
    Ok(out)
}

fn scaled(s: Summary, factor: f64) -> Summary {
    Summary {
        median: s.median * factor,
        min: s.min * factor,
        max: s.max * factor,
        mad: s.mad * factor,
        samples: s.samples,
    }
}

fn per_record(s: Summary) -> Summary {
    scaled(s, 1.0 / BATCH as f64)
}

fn wire(sampling: Sampling, out: &mut Vec<(&'static str, Summary)>) {
    // Uniform 64-bit keys, as exchange_u64 sends them.
    let mut rng = Xorshift::new(11);
    let keys: Vec<u64> = (0..BATCH).map(|_| rng.next_u64()).collect();
    let mut buf = Vec::new();
    let encode = measure(sampling, || {
        buf.clear();
        keys.encode(&mut buf);
        std::hint::black_box(buf.len());
    });
    let bytes = encode_to_vec(&keys);
    let decode = measure(sampling, || {
        let back = decode_from_slice::<Vec<u64>>(&bytes).expect("round trip");
        std::hint::black_box(back.len());
    });
    out.push(("wire.u64.encode_ns_per_rec", per_record(encode)));
    out.push(("wire.u64.decode_ns_per_rec", per_record(decode)));
    out.push((
        "wire.u64.bytes_per_rec",
        Summary::single(bytes.len() as f64 / BATCH as f64),
    ));

    // Variable-length rows, as wordcount_text sends them.
    let rows: Vec<(u64, String)> = (0..BATCH as u64)
        .map(|i| (i, format!("record-{i}")))
        .collect();
    let encode = measure(sampling, || {
        buf.clear();
        rows.encode(&mut buf);
        std::hint::black_box(buf.len());
    });
    let bytes = encode_to_vec(&rows);
    let decode_owned = measure(sampling, || {
        let back = decode_from_slice::<Vec<(u64, String)>>(&bytes).expect("round trip");
        std::hint::black_box(back.len());
    });
    let decode_ref = measure(sampling, || {
        let view = SeqView::<(u64, &str)>::tail(&bytes).expect("round trip");
        let mut n = 0usize;
        for item in view.iter() {
            let (_, s) = item.expect("round trip");
            n += s.len();
        }
        std::hint::black_box(n);
    });
    out.push(("wire.kv_row.encode_ns_per_rec", per_record(encode)));
    out.push((
        "wire.kv_row.decode_owned_ns_per_rec",
        per_record(decode_owned),
    ));
    out.push(("wire.kv_row.decode_ref_ns_per_rec", per_record(decode_ref)));

    let mut batch = KeyedBatch::<u64>::new();
    for (k, s) in &rows {
        batch.push(*k, s);
    }
    let encode = measure(sampling, || {
        buf.clear();
        batch.encode(&mut buf);
        std::hint::black_box(buf.len());
    });
    let bytes = encode_to_vec(&batch);
    let decode_ref = measure(sampling, || {
        let view = decode_ref_from_slice::<KeyedBatchView<u64>>(&bytes).expect("round trip");
        let mut n = 0usize;
        view.try_for_each(|_, s| n += s.len()).expect("round trip");
        std::hint::black_box(n);
    });
    out.push(("wire.kv_col.encode_ns_per_rec", per_record(encode)));
    out.push(("wire.kv_col.decode_ref_ns_per_rec", per_record(decode_ref)));
    out.push((
        "wire.kv_col.bytes_per_rec",
        Summary::single(bytes.len() as f64 / BATCH as f64),
    ));

    let pool = Arc::new(SlabPool::default());
    let page = [0u8; 4096];
    let cycle = measure(sampling, || {
        let mut slab = pool.get(page.len());
        slab.buffer().extend_from_slice(&page);
        std::hint::black_box(slab.freeze());
    });
    out.push(("wire.slab.cycle_ns", cycle));
}

fn netsim(sampling: Sampling, out: &mut Vec<(&'static str, Summary)>) {
    for (name, size) in [("netsim.hop_ns.4k", 4096), ("netsim.hop_ns.64b", 64)] {
        let mut endpoints = Fabric::builder(2).build();
        let mut b = endpoints.pop().expect("two endpoints");
        let mut a = endpoints.pop().expect("two endpoints");
        let payload = Bytes::from(vec![7u8; size]);
        let hop = measure(sampling, || {
            a.send(1, 7, TrafficClass::Data, payload.clone())
                .expect("no faults installed");
            std::hint::black_box(b.try_recv().expect("delivered").payload.len());
        });
        out.push((name, hop));
    }
}

/// The same exchange as `exchange_u64` with and without a credit budget
/// that never binds: what flow control costs when it is merely on.
fn credit_tax(seconds: f64) -> Result<Summary, String> {
    let rate = |config: Config| {
        let params = Params {
            seed: 3,
            length: Length::Seconds(seconds),
            traced: false,
        };
        exchange::run_with(params, config).map(|o| o.ops_timed as f64 / o.wall_s)
    };
    let plain = rate(Config::processes_and_workers(2, 1))?;
    let credited =
        rate(Config::processes_and_workers(2, 1).flow(FlowConfig::default().budget(1 << 20)))?;
    Ok(Summary::single((plain / credited - 1.0) * 100.0))
}

fn tracker(sampling: Sampling, out: &mut Vec<(&'static str, Summary)>) {
    let graph = Arc::new(loop_graph());
    for (name, live) in [
        ("progress.tracker.update_ns.live16", 16u64),
        ("progress.tracker.update_ns.live256", 256),
        ("progress.tracker.update_ns.live4096", 4096),
    ] {
        let mut table = PointstampTable::initialized(graph.clone(), 2);
        for i in 0..live {
            table.update(body_at(i), 1);
        }
        // One more pointstamp becomes active and retires again.
        let p = body_at(live);
        let pair = measure(sampling, || {
            table.update(p, 1);
            table.update(p, -1);
        });
        out.push((name, pair));
        if live == 256 {
            let frontier = measure(sampling, || {
                std::hint::black_box(table.frontier().len());
            });
            out.push(("progress.tracker.frontier_ns.live256", frontier));
        }
    }
}

fn protocol(sampling: Sampling, out: &mut Vec<(&'static str, Summary)>) {
    let graph = Arc::new(loop_graph());
    let mut acc = Accumulator::new(graph.clone(), 2);
    let p = body_at(1);
    let deposit = measure(sampling, || {
        // A +1 covered by the input's a-priori pointstamp, then its -1:
        // the buffer stays safe, so nothing is flushed.
        std::hint::black_box(acc.deposit([(p, 1), (p, -1)]).is_none());
    });
    out.push(("progress.protocol.deposit_ns", deposit));

    let mut sender = WorkerCore::new(graph.clone(), 0, 0, 2);
    let mut receiver = WorkerCore::new(graph, 0, 1, 2);
    // Sixteen updates that cancel, so the receiver's table is the same
    // before every iteration.
    let updates: Vec<_> = (0..8)
        .map(|i| (body_at(i), 1))
        .chain((0..8).map(|i| (body_at(i), -1)))
        .collect();
    let emit_apply = measure(sampling, || {
        let batch = sender.emit(updates.clone());
        let bytes = encode_to_vec(&batch);
        let back = decode_from_slice::<ProgressBatch>(&bytes).expect("round trip");
        receiver.apply(&back).expect("FIFO holds");
    });
    out.push(("progress.protocol.emit_apply_ns", emit_apply));
}

/// `Worker::step` on a chain of `ops` `map` stages with nothing pending,
/// inside a one-worker `execute`; also how long `Worker::dataflow` took
/// to build the chain, in milliseconds. The chain stops at 256 stages:
/// construction is cubic in the stage count on the seed (a 1024-stage
/// chain takes three minutes to build), which is what the build time
/// is reported for.
fn idle_step(sampling: Sampling, ops: usize) -> Result<(Summary, f64), String> {
    let results = execute(Config::single_process(1), move |worker| {
        let build = std::time::Instant::now();
        let mut input = worker.dataflow(|scope| {
            let (input, mut stream) = scope.new_input::<u64>();
            for _ in 0..ops {
                stream = stream.map(|x| x);
            }
            stream.probe();
            input
        });
        let build_ms = build.elapsed().as_secs_f64() * 1e3;
        let summary = measure(sampling, || {
            worker.step();
        });
        input.close();
        worker.step_until_done();
        (summary, build_ms)
    })
    .map_err(|e| e.to_string())?;
    results
        .into_iter()
        .next()
        .ok_or_else(|| "no worker result".to_string())
}
