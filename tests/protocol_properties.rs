//! Randomized tests over the progress machinery: the invariants of §2.3
//! must hold for arbitrary graphs, timestamps, and update sequences.
//! Deterministic seeded generation (`naiad-rng`) replaces an external
//! property-testing framework — each case fixes its seed, so failures
//! reproduce exactly.

use std::sync::Arc;

use naiad::graph::{
    ConnectorId, ContextId, GraphBuilder, Location, LogicalGraph, StageId, StageKind,
};
use naiad::progress::{
    consolidate, Accumulator, Pointstamp, PointstampTable, ProgressBatch, ProgressUpdate,
};
use naiad::summary::Summary;
use naiad::{Antichain, PartialOrder, Timestamp};
use naiad_rng::Xorshift;

const CASES: usize = 64;

/// Splices a loop context under `parent` fed by `entry`, returning the
/// egress stage. `nested` more loops are spliced *inside* the body, one
/// within the other, giving contexts `1 + nested` deep (lexicographic
/// counter timestamps).
fn gen_loop(
    g: &mut GraphBuilder,
    parent: ContextId,
    entry: StageId,
    depth: usize,
    nested: usize,
) -> StageId {
    let ctx = g.add_context(parent);
    let ingress = g.add_ingress(&format!("I{depth}"), ctx);
    let feedback = g.add_feedback(&format!("F{depth}"), ctx);
    let body = g.add_stage(&format!("body{depth}"), StageKind::Regular, ctx, 2, 1);
    let egress = g.add_egress(&format!("E{depth}"), ctx);
    g.connect(entry, 0, ingress, 0);
    g.connect(ingress, 0, body, 0);
    g.connect(feedback, 0, body, 1);
    let exit = if nested > 0 {
        gen_loop(g, ctx, body, depth + 1, nested - 1)
    } else {
        body
    };
    g.connect(exit, 0, feedback, 0);
    g.connect(exit, 0, egress, 0);
    egress
}

/// A random but *valid* timely graph: a chain of stages in the root
/// context, an optional diamond (fan-out into two branches re-joined at
/// a two-input stage), and an optional loop context — itself optionally
/// holding *nested* loops, up to three contexts deep.
fn gen_graph(rng: &mut Xorshift) -> Arc<LogicalGraph> {
    let chain = 1 + rng.below_usize(3);
    let with_diamond = rng.chance(0.5);
    let with_loop = rng.chance(0.5);
    let mut g = GraphBuilder::new();
    let input = g.add_stage("in", StageKind::Input, ContextId::ROOT, 0, 1);
    let mut prev = input;
    for i in 0..chain {
        let s = g.add_stage(&format!("s{i}"), StageKind::Regular, ContextId::ROOT, 1, 1);
        g.connect(prev, 0, s, 0);
        prev = s;
    }
    if with_diamond {
        let split = g.add_stage("split", StageKind::Regular, ContextId::ROOT, 1, 2);
        let left = g.add_stage("left", StageKind::Regular, ContextId::ROOT, 1, 1);
        let right = g.add_stage("right", StageKind::Regular, ContextId::ROOT, 1, 1);
        let join = g.add_stage("join", StageKind::Regular, ContextId::ROOT, 2, 1);
        g.connect(prev, 0, split, 0);
        g.connect(split, 0, left, 0);
        g.connect(split, 1, right, 0);
        g.connect(left, 0, join, 0);
        g.connect(right, 0, join, 1);
        prev = join;
    }
    if with_loop {
        // No loop inside it half the time; else one, or two nested.
        let nested = [2, 1, 0, 0][rng.below_usize(4)];
        prev = gen_loop(&mut g, ContextId::ROOT, prev, 1, nested);
    }
    let tail = g.add_stage("tail", StageKind::Regular, ContextId::ROOT, 1, 0);
    g.connect(prev, 0, tail, 0);
    Arc::new(g.build().expect("constructed graphs are valid"))
}

/// The generator actually produces the advertised variety: diamonds,
/// multi-input stages, and loop contexts nested two and three deep all
/// appear.
#[test]
fn generator_covers_the_topology_matrix() {
    let mut rng = Xorshift::new(0xB0);
    let (mut saw_diamond, mut saw_nested, mut saw_multi_input) = (false, false, false);
    let mut saw_three_deep = false;
    for _ in 0..CASES {
        let graph = gen_graph(&mut rng);
        let max_depth = graph.contexts().iter().map(|c| c.depth).max().unwrap_or(0);
        saw_nested |= max_depth >= 2;
        saw_three_deep |= max_depth >= 3;
        saw_diamond |= graph.stages().iter().any(|s| s.name == "join");
        saw_multi_input |= graph
            .stages()
            .iter()
            .any(|s| s.kind == StageKind::Regular && s.inputs >= 2);
    }
    assert!(saw_diamond, "no diamond generated in {CASES} cases");
    assert!(saw_nested, "no nested loop generated in {CASES} cases");
    assert!(
        saw_three_deep,
        "no loop three contexts deep generated in {CASES} cases"
    );
    assert!(
        saw_multi_input,
        "no multi-input stage generated in {CASES} cases"
    );
}

/// A pointstamp at every vertex of the graph with a depth-correct time.
fn all_pointstamps(graph: &Arc<LogicalGraph>, epoch: u64, counter: u64) -> Vec<Pointstamp> {
    (0..graph.stages().len())
        .map(|s| {
            let stage = StageId(s);
            let depth = graph.stage_input_depth(stage);
            let time = if depth == 0 {
                Timestamp::new(epoch)
            } else {
                Timestamp::with_counters(epoch, &vec![counter; depth])
            };
            Pointstamp::at_vertex(time, stage)
        })
        .collect()
}

/// could-result-in is transitive: the foundation of frontier safety.
#[test]
fn could_result_in_is_transitive() {
    let mut rng = Xorshift::new(0xB1);
    for _ in 0..CASES {
        let graph = gen_graph(&mut rng);
        let ps1 = all_pointstamps(&graph, rng.below(3), rng.below(3));
        let ps2 = all_pointstamps(&graph, rng.below(3), rng.below(3));
        let ps3 = all_pointstamps(&graph, rng.below(3), rng.below(3));
        for a in &ps1 {
            for b in &ps2 {
                for c in &ps3 {
                    let ab = graph.could_result_in(&a.time, a.location, &b.time, b.location);
                    let bc = graph.could_result_in(&b.time, b.location, &c.time, c.location);
                    if ab && bc {
                        assert!(
                            graph.could_result_in(&a.time, a.location, &c.time, c.location),
                            "transitivity violated: {a:?} → {b:?} → {c:?}"
                        );
                    }
                }
            }
        }
    }
}

/// could-result-in is reflexive at any location (the identity path).
#[test]
fn could_result_in_is_reflexive() {
    let mut rng = Xorshift::new(0xB2);
    for _ in 0..CASES {
        let graph = gen_graph(&mut rng);
        for p in all_pointstamps(&graph, rng.below(3), rng.below(3)) {
            assert!(graph.could_result_in(&p.time, p.location, &p.time, p.location));
        }
    }
}

/// Later timestamps at the same location are always reachable, earlier
/// ones never (messages cannot flow backwards in time).
#[test]
fn time_moves_forward_only() {
    let mut rng = Xorshift::new(0xB3);
    for _ in 0..CASES {
        let graph = gen_graph(&mut rng);
        let c = rng.below(3);
        for p in all_pointstamps(&graph, rng.below(3), c) {
            let later = Timestamp::new(p.time.epoch + 1);
            // Same location, later epoch: reachable via identity.
            assert!(
                graph.could_result_in(
                    &p.time,
                    p.location,
                    &Timestamp::with_counters(later.epoch, &vec![0; p.time.depth()]),
                    p.location
                ) || p.time.depth() > 0,
                "later epoch unreachable from {p:?}"
            );
            if p.time.epoch > 0 {
                let earlier = Timestamp::with_counters(p.time.epoch - 1, &vec![c; p.time.depth()]);
                assert!(
                    !graph.could_result_in(&p.time, p.location, &earlier, p.location),
                    "earlier epoch reachable from {p:?}"
                );
            }
        }
    }
}

/// Applying and retracting arbitrary update sequences leaves the tracker
/// empty: counts are conserved.
#[test]
fn tracker_updates_conserve() {
    let mut rng = Xorshift::new(0xB4);
    for _ in 0..CASES {
        let graph = gen_graph(&mut rng);
        let mut table = PointstampTable::new(graph.clone());
        let mut applied = Vec::new();
        for _ in 0..rng.below_usize(20) {
            let stage = StageId(rng.below_usize(graph.stages().len()));
            let depth = graph.stage_input_depth(stage);
            let time = Timestamp::with_counters(rng.below(3), &vec![rng.below(3); depth]);
            let delta = 1 + rng.below(3) as i64;
            let p = Pointstamp::at_vertex(time, stage);
            table.update(p, delta);
            applied.push((p, delta));
        }
        // Retract in reverse order.
        for (p, delta) in applied.into_iter().rev() {
            table.update(p, -delta);
        }
        assert!(table.is_empty(), "counts must conserve to empty");
    }
}

/// Every frontier element is active, and no other active pointstamp
/// could-result-in it.
#[test]
fn frontier_elements_are_minimal() {
    let mut rng = Xorshift::new(0xB5);
    for _ in 0..CASES {
        let graph = gen_graph(&mut rng);
        let mut table = PointstampTable::new(graph.clone());
        for _ in 0..(1 + rng.below_usize(15)) {
            let stage = StageId(rng.below_usize(graph.stages().len()));
            let depth = graph.stage_input_depth(stage);
            let time = Timestamp::with_counters(rng.below(3), &vec![rng.below(3); depth]);
            table.update(Pointstamp::at_vertex(time, stage), 1);
        }
        let frontier = table.frontier();
        for p in &frontier {
            assert!(table.is_active(p));
            for q in &frontier {
                if p != q {
                    // Frontier elements may relate only symmetrically via
                    // identity (equal pointstamps are deduplicated), so a
                    // one-way could-result-in would contradict minimality.
                    let pq = graph.could_result_in(&p.time, p.location, &q.time, q.location);
                    let qp = graph.could_result_in(&q.time, q.location, &p.time, p.location);
                    assert!(!(pq ^ qp), "frontier not an antichain: {p:?} vs {q:?}");
                }
            }
        }
    }
}

/// The accumulator conserves deltas: everything deposited is either still
/// buffered or has been flushed, with identical net sums.
#[test]
fn accumulator_conserves_deltas() {
    let mut rng = Xorshift::new(0xB6);
    for _ in 0..CASES {
        let graph = gen_graph(&mut rng);
        let mut acc = Accumulator::new(graph.clone(), 2);
        let mut deposited: std::collections::HashMap<Pointstamp, i64> = Default::default();
        let mut flushed: std::collections::HashMap<Pointstamp, i64> = Default::default();
        for _ in 0..(1 + rng.below_usize(23)) {
            let delta = rng.below(5) as i64 - 2;
            if delta == 0 {
                continue;
            }
            let stage = StageId(rng.below_usize(graph.stages().len()));
            let depth = graph.stage_input_depth(stage);
            let time = Timestamp::with_counters(rng.below(3), &vec![0; depth]);
            let p = Pointstamp::at_vertex(time, stage);
            *deposited.entry(p).or_insert(0) += delta;
            if let Some(out) = acc.deposit([(p, delta)]) {
                for (q, d) in out {
                    *flushed.entry(q).or_insert(0) += d;
                }
            }
        }
        for (q, d) in acc.flush() {
            *flushed.entry(q).or_insert(0) += d;
        }
        deposited.retain(|_, d| *d != 0);
        flushed.retain(|_, d| *d != 0);
        assert_eq!(deposited, flushed, "deltas must be conserved");
    }
}

/// Positive-before-negative flush ordering holds for arbitrary buffered
/// contents.
#[test]
fn flushes_order_positives_first() {
    let mut rng = Xorshift::new(0xB7);
    for _ in 0..CASES {
        let graph = gen_graph(&mut rng);
        let mut acc = Accumulator::new(graph.clone(), 2);
        for _ in 0..(1 + rng.below_usize(23)) {
            let delta = rng.below(5) as i64 - 2;
            if delta == 0 {
                continue;
            }
            let stage = StageId(rng.below_usize(graph.stages().len()));
            let depth = graph.stage_input_depth(stage);
            let time = Timestamp::with_counters(rng.below(3), &vec![0; depth]);
            let _ = acc.deposit([(Pointstamp::at_vertex(time, stage), delta)]);
        }
        let out = acc.flush();
        let first_negative = out.iter().position(|(_, d)| *d < 0).unwrap_or(out.len());
        assert!(out[first_negative..].iter().all(|(_, d)| *d < 0));
    }
}

/// A flush is canonical: the same deposits in another order, with `+1`/`−1`
/// pairs that cancel in the buffer and behind another history of churn,
/// flush equal updates that encode to identical bytes.
#[test]
fn flushes_are_canonical_whatever_the_deposit_order() {
    let mut rng = Xorshift::new(0xBB);
    for _ in 0..CASES {
        let graph = gen_graph(&mut rng);
        let pool = gen_pool(&graph, &mut rng);
        let mut deposits: Vec<ProgressUpdate> = Vec::new();
        for _ in 0..(1 + rng.below_usize(23)) {
            let p = pool[rng.below_usize(pool.len())];
            deposits.push((p, gen_delta(&mut rng)));
            if rng.chance(0.3) {
                deposits.extend([(p, 1), (p, -1)]);
            }
        }
        let flush_of = |order: &[ProgressUpdate], rng: &mut Xorshift| {
            let mut acc = Accumulator::new(graph.clone(), 2);
            // Churn that cancels within one deposit leaves the buffer empty,
            // and its table with a history of its own.
            let churn: Vec<_> = pool.iter().filter(|_| rng.chance(0.5)).copied().collect();
            let cancelled = churn
                .iter()
                .map(|&p| (p, 1))
                .chain(churn.iter().map(|&p| (p, -1)));
            assert!(acc.deposit(cancelled).is_none());
            let updates = acc
                .deposit(order.iter().copied())
                .unwrap_or_else(|| acc.flush());
            let batch = ProgressBatch {
                sender: 1,
                seq: 0,
                dataflow: 0,
                updates,
            };
            (naiad::wire::encode_to_vec(&batch), batch.updates)
        };
        let first = flush_of(&deposits, &mut rng);
        for i in (1..deposits.len()).rev() {
            deposits.swap(i, rng.below_usize(i + 1));
        }
        assert_eq!(flush_of(&deposits, &mut rng), first);
    }
}

/// Fan-in completeness (§2.3): a two-input join is only done through a
/// time once *both* upstream branches have passed it — the frontier
/// waits for the slower branch, and unblocks when it retires.
#[test]
fn fan_in_waits_for_the_slower_branch() {
    let mut g = GraphBuilder::new();
    let input = g.add_stage("in", StageKind::Input, ContextId::ROOT, 0, 1);
    let split = g.add_stage("split", StageKind::Regular, ContextId::ROOT, 1, 2);
    let left = g.add_stage("left", StageKind::Regular, ContextId::ROOT, 1, 1);
    let right = g.add_stage("right", StageKind::Regular, ContextId::ROOT, 1, 1);
    let join = g.add_stage("join", StageKind::Regular, ContextId::ROOT, 2, 1);
    let out = g.add_stage("out", StageKind::Regular, ContextId::ROOT, 1, 0);
    g.connect(input, 0, split, 0);
    g.connect(split, 0, left, 0);
    g.connect(split, 1, right, 0);
    g.connect(left, 0, join, 0);
    g.connect(right, 0, join, 1);
    g.connect(join, 0, out, 0);
    let graph = Arc::new(g.build().expect("diamond is valid"));

    let mut table = PointstampTable::new(graph);
    let slow = Pointstamp::at_vertex(Timestamp::new(1), right);
    table.update(Pointstamp::at_vertex(Timestamp::new(5), left), 1);
    table.update(slow, 1);
    let at_join = Location::Vertex(join);
    // Fully done before either branch's stamp, blocked from epoch 1 on.
    assert!(table.done_through(&Timestamp::new(0), at_join));
    assert!(!table.done_through(&Timestamp::new(1), at_join));
    // Epoch 4 is blocked *only* by the slower branch: retiring it must
    // unblock the join up to (but not through) the faster branch.
    assert!(!table.done_through(&Timestamp::new(4), at_join));
    table.update(slow, -1);
    assert!(table.done_through(&Timestamp::new(4), at_join));
    assert!(!table.done_through(&Timestamp::new(5), at_join));
}

/// Nested-loop reachability (§2.3): with contexts two deep, timestamps
/// order lexicographically — the inner counter advances freely, an
/// outer iteration resets it, and neither counter ever runs backwards.
#[test]
fn nested_loop_counters_order_lexicographically() {
    let mut g = GraphBuilder::new();
    let input = g.add_stage("in", StageKind::Input, ContextId::ROOT, 0, 1);
    let outer_ctx = g.add_context(ContextId::ROOT);
    let i1 = g.add_ingress("I1", outer_ctx);
    let f1 = g.add_feedback("F1", outer_ctx);
    let merge = g.add_stage("merge", StageKind::Regular, outer_ctx, 2, 1);
    let inner_ctx = g.add_context(outer_ctx);
    let i2 = g.add_ingress("I2", inner_ctx);
    let f2 = g.add_feedback("F2", inner_ctx);
    let body = g.add_stage("body", StageKind::Regular, inner_ctx, 2, 1);
    let e2 = g.add_egress("E2", inner_ctx);
    let e1 = g.add_egress("E1", outer_ctx);
    let out = g.add_stage("out", StageKind::Regular, ContextId::ROOT, 1, 0);
    g.connect(input, 0, i1, 0);
    g.connect(i1, 0, merge, 0);
    g.connect(f1, 0, merge, 1);
    g.connect(merge, 0, i2, 0);
    g.connect(i2, 0, body, 0);
    g.connect(f2, 0, body, 1);
    g.connect(body, 0, f2, 0);
    g.connect(body, 0, e2, 0);
    g.connect(e2, 0, f1, 0);
    g.connect(e2, 0, e1, 0);
    g.connect(e1, 0, out, 0);
    let graph = Arc::new(g.build().expect("nested loop is valid"));
    let at = |counters: &[u64]| {
        (
            Timestamp::with_counters(0, counters),
            Location::Vertex(body),
        )
    };
    let cri = |a: &[u64], b: &[u64]| {
        let (ta, la) = at(a);
        let (tb, lb) = at(b);
        graph.could_result_in(&ta, la, &tb, lb)
    };
    // The inner feedback advances the innermost counter.
    assert!(cri(&[1, 2], &[1, 3]));
    // An outer iteration increments the outer counter and resets the
    // inner one: [1,2] reaches [2,0] even though 0 < 2 pointwise.
    assert!(cri(&[1, 2], &[2, 0]));
    // Lexicographically earlier times are unreachable in both senses.
    assert!(!cri(&[1, 2], &[1, 1]));
    assert!(!cri(&[2, 0], &[1, 5]));
    // The epoch dominates every loop counter lexicographically: a later
    // epoch is reachable from any counter state, never the reverse.
    let (t0, l0) = at(&[1, 2]);
    let next_epoch = Timestamp::with_counters(1, &[0, 0]);
    assert!(graph.could_result_in(&t0, l0, &next_epoch, l0));
    assert!(!graph.could_result_in(&next_epoch, l0, &t0, l0));
    // But the input's initial stamp reaches every loop iterate.
    assert!(graph.could_result_in(
        &Timestamp::new(0),
        Location::Vertex(input),
        &Timestamp::with_counters(0, &[3, 7]),
        Location::Vertex(body)
    ));
}

/// done_through is monotone: once complete through t, also complete
/// through every earlier time.
#[test]
fn done_through_is_monotone() {
    let mut rng = Xorshift::new(0xB8);
    for _ in 0..CASES {
        let graph = gen_graph(&mut rng);
        let epoch = 1 + rng.below(3);
        let stage = StageId(rng.below_usize(graph.stages().len()));
        let mut table = PointstampTable::initialized(graph.clone(), 1);
        // Retire the input's initial pointstamp so some times complete.
        let input = graph.input_stages().next().expect("has an input");
        table.update(Pointstamp::at_vertex(Timestamp::new(0), input), -1);
        let loc = Location::Vertex(stage);
        let depth = graph.stage_input_depth(stage);
        let t = Timestamp::with_counters(epoch, &vec![0; depth]);
        if table.done_through(&t, loc) {
            for e in 0..epoch {
                let earlier = Timestamp::with_counters(e, &vec![0; depth]);
                assert!(earlier.less_equal(&t));
                assert!(
                    table.done_through(&earlier, loc),
                    "done through {t:?} but not {earlier:?}"
                );
            }
        }
    }
}

/// The all-pairs path summaries Ψ of §2.3, the test-side reference for
/// could-result-in: for every ordered pair of locations, the minimal
/// summaries of every path between them, the empty path included. Built
/// by relaxation — extend every known path by every arc until nothing
/// changes — over a row-major `L × L` table, independently of the
/// library's reachability query that it is compared against.
struct Psi {
    stages: usize,
    locations: usize,
    cells: Vec<Antichain<Summary>>,
}

impl Psi {
    fn of(graph: &LogicalGraph) -> Psi {
        let stages = graph.stages().len();
        let locations = stages + graph.connectors().len();
        // The location graph's arcs: a stage's action from its vertex to
        // each outgoing edge, and delivery (identity) from an edge to its
        // destination vertex.
        let mut arcs: Vec<(usize, usize, Summary)> = Vec::new();
        for (ci, c) in graph.connectors().iter().enumerate() {
            let depth = graph.connector_depth(ConnectorId(ci));
            arcs.push((stages + ci, c.dst.0 .0, Summary::identity(depth)));
            arcs.push((c.src.0 .0, stages + ci, graph.stage_summary(c.src.0)));
        }
        let mut psi = Psi {
            stages,
            locations,
            cells: vec![Antichain::new(); locations * locations],
        };
        for l in 0..locations {
            let depth = graph.location_depth(psi.location(l));
            psi.cells[l * locations + l].insert(Summary::identity(depth));
        }
        // Same-`keep` summaries are totally ordered and every cycle
        // strictly advances one, so the antichains reject repeat visits
        // and the relaxation reaches a fixpoint.
        let mut changed = true;
        while changed {
            changed = false;
            for &(a, b, step) in &arcs {
                for from in 0..locations {
                    let extended: Vec<Summary> = psi.cells[from * locations + a]
                        .elements()
                        .iter()
                        .map(|s| s.then(&step))
                        .collect();
                    for s in extended {
                        changed |= psi.cells[from * locations + b].insert(s);
                    }
                }
            }
        }
        psi
    }

    fn location(&self, index: usize) -> Location {
        if index < self.stages {
            Location::Vertex(StageId(index))
        } else {
            Location::Edge(ConnectorId(index - self.stages))
        }
    }

    fn index(&self, location: Location) -> usize {
        match location {
            Location::Vertex(s) => s.0,
            Location::Edge(c) => self.stages + c.0,
        }
    }

    /// Some path summary from `l1` to `l2` maps `t1` at or before `t2`.
    fn could_result_in(&self, t1: &Timestamp, l1: Location, t2: &Timestamp, l2: Location) -> bool {
        self.cells[self.index(l1) * self.locations + self.index(l2)]
            .elements()
            .iter()
            .any(|s| s.apply(t1).less_equal(t2))
    }
}

/// The reachability query agrees with the all-pairs reference for every
/// ordered pair of vertex *and* edge locations, on random depth-correct
/// times at both ends.
#[test]
fn could_result_in_matches_the_all_pairs_reference() {
    let mut rng = Xorshift::new(0xBB);
    let (mut agreed_yes, mut agreed_no) = (0, 0);
    for _ in 0..CASES {
        let graph = gen_graph(&mut rng);
        let psi = Psi::of(&graph);
        let locations = graph.stages().len() + graph.connectors().len();
        for l1 in (0..locations).map(|i| psi.location(i)) {
            for l2 in (0..locations).map(|i| psi.location(i)) {
                for _ in 0..4 {
                    let mut time_at = |l: Location| {
                        let counters: Vec<u64> =
                            (0..graph.location_depth(l)).map(|_| rng.below(3)).collect();
                        Timestamp::with_counters(rng.below(2), &counters)
                    };
                    let (t1, t2) = (time_at(l1), time_at(l2));
                    let expected = psi.could_result_in(&t1, l1, &t2, l2);
                    assert_eq!(
                        graph.could_result_in(&t1, l1, &t2, l2),
                        expected,
                        "({t1:?}, {l1:?}) could-result-in ({t2:?}, {l2:?})"
                    );
                    agreed_yes += usize::from(expected);
                    agreed_no += usize::from(!expected);
                }
            }
        }
    }
    assert!(
        agreed_yes > 1000 && agreed_no > 1000,
        "both answers exercised: {agreed_yes} yes, {agreed_no} no"
    );
}

/// The reference the one-table tracker is checked against: counts in a
/// map, and every query the all-pairs definition of §2.3 / §3.3 written
/// out longhand, with the canonical order spelled as a sort key.
struct Oracle {
    psi: Psi,
    counts: std::collections::HashMap<Pointstamp, i64>,
}

impl Oracle {
    fn update(&mut self, p: Pointstamp, delta: i64) {
        *self.counts.entry(p).or_insert(0) += delta;
    }
    fn count(&self, p: &Pointstamp) -> i64 {
        self.counts.get(p).copied().unwrap_or(0)
    }
    /// Whether an active pointstamp — `p` itself too, if `or_self` —
    /// could-result-in `p`.
    fn reached(&self, p: &Pointstamp, or_self: bool) -> bool {
        self.counts.iter().any(|(q, &c)| {
            c > 0
                && (or_self || q != p)
                && self
                    .psi
                    .could_result_in(&q.time, q.location, &p.time, p.location)
        })
    }
    fn in_frontier(&self, p: &Pointstamp) -> bool {
        self.count(p) > 0 && !self.reached(p, false)
    }
    fn sort_key(p: &Pointstamp) -> (Location, u64, [u64; naiad::time::MAX_LOOP_DEPTH]) {
        let mut counters = [0u64; naiad::time::MAX_LOOP_DEPTH];
        counters[..p.time.depth()].copy_from_slice(p.time.counters.as_slice());
        (p.location, p.time.epoch, counters)
    }
    fn frontier(&self) -> Vec<Pointstamp> {
        let mut out: Vec<_> = self
            .counts
            .keys()
            .filter(|p| self.in_frontier(p))
            .copied()
            .collect();
        out.sort_by_key(Oracle::sort_key);
        out
    }
    /// §3.3's holding rule for one buffered update against this view, at
    /// a sole accumulator or not.
    fn covers(&self, p: &Pointstamp, delta: i64, sole: bool) -> bool {
        (delta > 0 && self.count(p) > 0)
            || (sole && delta < 0 && self.count(p) + delta > 0)
            || self.reached(p, false)
    }
}

/// A handful of depth-correct pointstamps at random vertices *and*
/// connectors of `graph`, so update sequences revisit them.
fn gen_pool(graph: &Arc<LogicalGraph>, rng: &mut Xorshift) -> Vec<Pointstamp> {
    (0..4 + rng.below_usize(8))
        .map(|_| {
            let location = if rng.chance(0.5) {
                Location::Vertex(StageId(rng.below_usize(graph.stages().len())))
            } else {
                Location::Edge(ConnectorId(rng.below_usize(graph.connectors().len())))
            };
            let counters: Vec<u64> = (0..graph.location_depth(location))
                .map(|_| rng.below(3))
                .collect();
            Pointstamp {
                time: Timestamp::with_counters(rng.below(3), &counters),
                location,
            }
        })
        .collect()
}

/// A nonzero delta in −2..=2: retirements regularly outrun creations.
fn gen_delta(rng: &mut Xorshift) -> i64 {
    [-2, -1, 1, 2][rng.below_usize(4)]
}

/// The table's three derived queries equal the brute-force oracle after
/// every update of random sequences with transient negatives.
#[test]
fn tracker_queries_match_the_all_pairs_oracle() {
    let mut rng = Xorshift::new(0xB9);
    let mut saw_negative = false;
    for _ in 0..CASES {
        let graph = gen_graph(&mut rng);
        let pool = gen_pool(&graph, &mut rng);
        let mut table = PointstampTable::new(graph.clone());
        let mut oracle = Oracle {
            psi: Psi::of(&graph),
            counts: Default::default(),
        };
        for _ in 0..40 {
            let (p, delta) = (pool[rng.below_usize(pool.len())], gen_delta(&mut rng));
            table.update(p, delta);
            oracle.update(p, delta);
            saw_negative |= oracle.count(&p) < 0;
            for q in &pool {
                assert_eq!(table.occurrence(q), oracle.count(q));
                assert_eq!(
                    table.in_frontier(q),
                    oracle.in_frontier(q),
                    "in_frontier({q:?})"
                );
                assert_eq!(
                    table.done_through(&q.time, q.location),
                    !oracle.reached(q, true),
                    "done_through({q:?})"
                );
            }
            assert_eq!(table.frontier(), oracle.frontier());
            assert_eq!(table.is_empty(), oracle.counts.values().all(|&c| c == 0));
        }
    }
    assert!(saw_negative, "the sequences never drove a count negative");
}

/// The accumulator holds or flushes exactly when the oracle's holding
/// rule says, flushes exactly the combined buffer in canonical order,
/// and keeps its view in step (flushes fold, observations refine) —
/// marked sole or not, over the same update sequences.
#[test]
fn accumulator_decisions_match_the_all_pairs_oracle() {
    let mut rng = Xorshift::new(0xBA);
    let (mut held, mut flushed, mut held_as_sole) = (0, 0, 0);
    for case in 0..2 * CASES {
        let sole = case % 2 == 1;
        let graph = gen_graph(&mut rng);
        let pool = gen_pool(&graph, &mut rng);
        let acc = Accumulator::new(graph.clone(), 2);
        let mut acc = if sole { acc.sole() } else { acc };
        let mut view = Oracle {
            psi: Psi::of(&graph),
            counts: Default::default(),
        };
        for stage in graph.input_stages() {
            view.update(Pointstamp::at_vertex(Timestamp::new(0), stage), 2);
        }
        let mut buffer: std::collections::HashMap<Pointstamp, i64> = Default::default();
        for _ in 0..40 {
            let update = (pool[rng.below_usize(pool.len())], gen_delta(&mut rng));
            let got = if rng.chance(0.7) {
                *buffer.entry(update.0).or_insert(0) += update.1;
                acc.deposit([update])
            } else {
                view.update(update.0, update.1);
                acc.observe(&[update])
            };
            buffer.retain(|_, d| *d != 0);
            let expected = if buffer.iter().all(|(p, &d)| view.covers(p, d, sole)) {
                held_as_sole += usize::from(
                    !buffer.is_empty() && !buffer.iter().all(|(p, &d)| view.covers(p, d, false)),
                );
                None
            } else {
                let mut out: Vec<_> = buffer.drain().collect();
                out.sort_by_key(|(p, d)| (*d < 0, Oracle::sort_key(p)));
                for &(p, d) in &out {
                    view.update(p, d);
                }
                Some(out)
            };
            held += usize::from(expected.is_none() && !buffer.is_empty());
            flushed += usize::from(expected.is_some());
            assert_eq!(got, expected);
            assert_eq!(acc.buffered_len(), buffer.len());
        }
    }
    assert!(
        held > 50 && flushed > 50 && held_as_sole > 20,
        "both decisions exercised: {held} held ({held_as_sole} only as sole), {flushed} flushed"
    );
}

/// A consolidated journal is merged (one update per pointstamp), free of
/// zero deltas, sorted, and the same whatever order the journal was in —
/// with the same net delta at every pointstamp as the journal.
#[test]
fn consolidated_journals_are_merged_zero_free_and_canonical() {
    let mut rng = Xorshift::new(0xBC);
    let mut cancelled = 0;
    for _ in 0..CASES {
        let graph = gen_graph(&mut rng);
        let pool = gen_pool(&graph, &mut rng);
        let mut journal: Vec<ProgressUpdate> = Vec::new();
        for _ in 0..rng.below_usize(24) {
            let p = pool[rng.below_usize(pool.len())];
            journal.push((p, gen_delta(&mut rng)));
            if rng.chance(0.3) {
                journal.extend([(p, 1), (p, -1)]);
            }
        }
        let mut net: std::collections::HashMap<Pointstamp, i64> = Default::default();
        for &(p, d) in &journal {
            *net.entry(p).or_insert(0) += d;
        }
        net.retain(|_, d| *d != 0);
        let mut first = journal.clone();
        consolidate(&mut first);
        assert!(first.iter().all(|&(_, d)| d != 0), "zero-free: {first:?}");
        assert!(
            first
                .windows(2)
                .all(|w| Oracle::sort_key(&w[0].0) < Oracle::sort_key(&w[1].0)),
            "sorted, one update per pointstamp: {first:?}"
        );
        let merged: std::collections::HashMap<_, _> = first.iter().copied().collect();
        assert_eq!(merged, net);
        cancelled += journal.len() - first.len();
        for i in (1..journal.len()).rev() {
            journal.swap(i, rng.below_usize(i + 1));
        }
        consolidate(&mut journal);
        assert_eq!(journal, first, "canonical whatever the order");
    }
    assert!(
        cancelled > CASES,
        "consolidation merged only {cancelled} updates"
    );
}
