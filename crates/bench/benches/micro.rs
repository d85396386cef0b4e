//! Micro-benchmarks for the coordination machinery the paper's §2.3/§3.3
//! performance claims rest on.
//!
//! Dependency-free harness: each case runs a warm-up pass, then a timed
//! pass of `iters` iterations, and prints mean ns/iter. Scale iteration
//! counts with `NAIAD_BENCH_SCALE`.

use std::sync::Arc;

use naiad::graph::{ContextId, GraphBuilder, StageKind};
use naiad::progress::{Accumulator, Pointstamp, PointstampTable};
use naiad::{Antichain, Timestamp};
use naiad_bench::{header, scaled, timed};
use naiad_wire::{
    decode_from_slice, decode_ref_from_slice, encode_to_vec, KeyedBatch, KeyedBatchView, SeqView,
    Wire,
};

fn loop_graph() -> Arc<naiad::graph::LogicalGraph> {
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
    Arc::new(g.build().unwrap())
}

/// Runs `f` for `iters` iterations (after `iters / 10 + 1` warm-up
/// iterations) and prints mean ns/iter.
fn bench_case(name: &str, iters: usize, mut f: impl FnMut()) {
    for _ in 0..(iters / 10 + 1) {
        f();
    }
    let ((), secs) = timed(|| {
        for _ in 0..iters {
            f();
        }
    });
    let ns_per_iter = secs * 1e9 / iters as f64;
    println!("{name:<32} {ns_per_iter:>12.1} ns/iter   ({iters} iters)");
}

fn bench_tracker() {
    let graph = loop_graph();
    let mut table = PointstampTable::initialized(graph, 4);
    let body = naiad::graph::StageId(3);
    bench_case("tracker_update_cycle", scaled(20_000), || {
        for i in 0..16u64 {
            let p = Pointstamp::at_vertex(Timestamp::with_counters(0, &[i]), body);
            table.update(p, 1);
            table.update(p, -1);
        }
    });
    bench_case("graph_build", scaled(2_000), || {
        let _ = loop_graph();
    });
}

fn bench_protocol() {
    let graph = loop_graph();
    let mut acc = Accumulator::new(graph, 4);
    let body = naiad::graph::StageId(3);
    bench_case("accumulator_covered_churn", scaled(100_000), || {
        let p = Pointstamp::at_vertex(Timestamp::with_counters(0, &[1]), body);
        let flushed = acc.deposit([(p, 1), (p, -1)]);
        assert!(flushed.is_none());
    });
}

fn bench_wire() {
    let records: Vec<(u64, String)> = (0..1024).map(|i| (i, format!("record-{i}"))).collect();
    bench_case("wire_encode_1k_records", scaled(2_000), || {
        let bytes = encode_to_vec(&records);
        assert!(!bytes.is_empty());
    });
    let bytes = encode_to_vec(&records);
    bench_case("wire_decode_1k_records", scaled(2_000), || {
        let back = decode_from_slice::<Vec<(u64, String)>>(&bytes).unwrap();
        assert_eq!(back.len(), 1024);
    });
    // Borrowed decode: same frame, zero copies. The DESIGN.md §16
    // acceptance bar is borrowed decode ≤ 2× encode on this workload.
    bench_case("wire_decode_ref_1k_records", scaled(2_000), || {
        // `tail` wraps the frame-final sequence without a validation
        // walk; the single pass below decodes each element once.
        let view = SeqView::<(u64, &str)>::tail(&bytes).unwrap();
        let mut n = 0usize;
        for item in view.iter() {
            let (_, s) = item.unwrap();
            n += usize::from(!s.is_empty());
        }
        assert_eq!(n, 1024);
    });
    // Columnar keyed batch: one UTF-8 validation for the whole text
    // column instead of one per record. This is the layout the §16
    // decode ≤ 2× encode acceptance bar is scored on.
    let mut batch = KeyedBatch::<u64>::new();
    for (k, s) in &records {
        batch.push(*k, s);
    }
    bench_case("columnar_encode_1k_records", scaled(2_000), || {
        let bytes = encode_to_vec(&batch);
        assert!(!bytes.is_empty());
    });
    let col_bytes = encode_to_vec(&batch);
    bench_case("columnar_decode_ref_1k", scaled(2_000), || {
        let view = decode_ref_from_slice::<KeyedBatchView<u64>>(&col_bytes).unwrap();
        let mut n = 0usize;
        view.try_for_each(|_, s| n += usize::from(!s.is_empty()))
            .unwrap();
        assert_eq!(n, 1024);
    });
    // A recycled-container decode, the runtime's remote hot path: owned
    // records, but the Vec's storage is reused across frames.
    let mut spare: Vec<(u64, String)> = Vec::new();
    bench_case("wire_decode_recycled_1k", scaled(2_000), || {
        let mut input = &bytes[..];
        let len = usize::decode(&mut input).unwrap();
        spare.clear();
        spare.reserve(len);
        for _ in 0..len {
            spare.push(<(u64, String)>::decode(&mut input).unwrap());
        }
        assert_eq!(spare.len(), 1024);
    });
}

fn bench_antichain() {
    bench_case("antichain_insert_timestamps", scaled(20_000), || {
        let mut a = Antichain::new();
        for e in (0..64u64).rev() {
            a.insert(Timestamp::new(e));
        }
        assert_eq!(a.len(), 1);
    });
}

fn main() {
    header("micro", "coordination-machinery micro-benchmarks");
    bench_tracker();
    bench_protocol();
    bench_wire();
    bench_antichain();
}
