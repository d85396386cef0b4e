//! All-pairs path summaries Ψ and the could-result-in relation (§2.3).

use super::{Connector, Location, LogicalGraph, StageId};
use crate::order::Antichain;
use crate::summary::Summary;
use crate::time::Timestamp;

/// All-pairs minimal path summaries over `n` nodes, as a row-major
/// `n × n` table: starts from `seeds` and extends every known path by
/// every arc until nothing changes. Seeds and arcs are `(from, to,
/// summary)` triples.
///
/// The seeds decide which paths count. Identities on the diagonal give Ψ
/// (the empty path included), what could-result-in wants. Seeding with the
/// arcs themselves gives Ψ⁺, summaries of paths with at least one arc, so
/// a cell `(v, v)` holds precisely the cycle summaries through `v` that
/// a diagonal identity would dominate.
///
/// Dominated summaries are discarded by the antichains, which bounds the
/// iteration: same-`keep` summaries are totally ordered, so each cell
/// holds at most one summary per `keep` value, of which there are at most
/// `MAX_LOOP_DEPTH + 1` (see the summary module docs).
pub(crate) fn relax(
    n: usize,
    seeds: &[(usize, usize, Summary)],
    arcs: &[(usize, usize, Summary)],
) -> Vec<Antichain<Summary>> {
    let mut cells: Vec<Antichain<Summary>> = vec![Antichain::new(); n * n];
    let mut changed = false;
    for &(a, b, s) in seeds {
        changed |= cells[a * n + b].insert(s);
    }
    while changed {
        changed = false;
        for &(a, b, step) in arcs {
            for l1 in 0..n {
                let from = l1 * n + a;
                if cells[from].is_empty() {
                    continue;
                }
                let candidates: Vec<Summary> = cells[from]
                    .elements()
                    .iter()
                    .map(|s| s.then(&step))
                    .collect();
                let to = l1 * n + b;
                for c in candidates {
                    changed |= cells[to].insert(c);
                }
            }
        }
    }
    cells
}

/// The minimal path summaries between every pair of locations.
///
/// `could-result-in((t₁, l₁), (t₂, l₂))` holds iff some summary
/// `s ∈ Ψ[l₁, l₂]` satisfies `s(t₁) ≤ t₂`. The matrix is dense over
/// locations (stages then connectors), which is affordable because it is
/// built for the *logical* graph (§3.1): its size is independent of the
/// number of workers.
#[derive(Debug, Clone)]
pub struct SummaryMatrix {
    stages: usize,
    locations: usize,
    cells: Vec<Antichain<Summary>>,
}

impl SummaryMatrix {
    pub(crate) fn empty() -> Self {
        SummaryMatrix {
            stages: 0,
            locations: 0,
            cells: Vec::new(),
        }
    }

    /// Index of a location in the matrix.
    fn index(&self, location: Location) -> usize {
        match location {
            Location::Vertex(s) => s.0,
            Location::Edge(c) => self.stages + c.0,
        }
    }

    /// Computes the matrix by [`relax`]ing the location graph: each
    /// connector contributes an identity arc from its edge location to the
    /// destination vertex, and each stage contributes its timestamp-action
    /// arc from its vertex location to every outgoing edge location.
    pub(crate) fn compute(graph: &LogicalGraph) -> Self {
        let stages = graph.stages.len();
        let locations = stages + graph.connectors.len();

        // Arcs of the location graph, each with its summary.
        let mut arcs: Vec<(usize, usize, Summary)> = Vec::new();
        for (ci, Connector { src, dst }) in graph.connectors.iter().enumerate() {
            let edge_loc = stages + ci;
            // Message delivery: edge → destination vertex, identity.
            arcs.push((
                edge_loc,
                dst.0 .0,
                Summary::identity(graph.connector_depth(super::ConnectorId(ci))),
            ));
            // Stage action: source vertex → this edge.
            arcs.push((src.0 .0, edge_loc, graph.stage_summary(src.0)));
        }

        // Seed the diagonal with identities: the empty path counts for
        // could-result-in.
        let diagonal: Vec<(usize, usize, Summary)> = (0..locations)
            .map(|loc| {
                let depth = if loc < stages {
                    graph.stage_input_depth(StageId(loc))
                } else {
                    graph.connector_depth(super::ConnectorId(loc - stages))
                };
                (loc, loc, Summary::identity(depth))
            })
            .collect();

        SummaryMatrix {
            stages,
            locations,
            cells: relax(locations, &diagonal, &arcs),
        }
    }

    /// The minimal summaries from `from` to `to`; empty if no path exists.
    pub fn between(&self, from: Location, to: Location) -> &Antichain<Summary> {
        &self.cells[self.index(from) * self.locations + self.index(to)]
    }

    /// Whether an event at `(t1, l1)` could result in an event at
    /// `(t2, l2)` (§2.3): some path summary maps `t1` to a timestamp at or
    /// before `t2`.
    pub fn could_result_in(
        &self,
        t1: &Timestamp,
        l1: Location,
        t2: &Timestamp,
        l2: Location,
    ) -> bool {
        self.between(l1, l2).elements().iter().any(|s| {
            use crate::order::PartialOrder;
            s.apply(t1).less_equal(t2)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ContextId, GraphBuilder, StageKind};

    fn ts(epoch: u64, counters: &[u64]) -> Timestamp {
        Timestamp::with_counters(epoch, counters)
    }

    /// input(0) → ingress(1) → body(3) ⇄ feedback(2); body → egress(4) → out(5).
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
        g.build().unwrap()
    }

    const INPUT: Location = Location::Vertex(StageId(0));
    const BODY: Location = Location::Vertex(StageId(3));
    const OUT: Location = Location::Vertex(StageId(5));

    #[test]
    fn forward_paths_exist() {
        let g = loop_graph();
        let m = g.summaries();
        // Input at epoch 0 could result in body work at iteration 0.
        assert!(m.could_result_in(&ts(0, &[]), INPUT, &ts(0, &[0]), BODY));
        // ... and at any later iteration.
        assert!(m.could_result_in(&ts(0, &[]), INPUT, &ts(0, &[7]), BODY));
        // ... and at downstream output.
        assert!(m.could_result_in(&ts(0, &[]), INPUT, &ts(0, &[]), OUT));
        // But not at an earlier epoch.
        assert!(!m.could_result_in(&ts(1, &[]), INPUT, &ts(0, &[5]), BODY));
    }

    #[test]
    fn feedback_advances_iterations() {
        let g = loop_graph();
        let m = g.summaries();
        // Body work at iteration 3 could cause body work at iteration 4
        // (via feedback) but not at iteration 3 again or earlier.
        assert!(m.could_result_in(&ts(0, &[3]), BODY, &ts(0, &[4]), BODY));
        assert!(m.could_result_in(&ts(0, &[3]), BODY, &ts(0, &[3]), BODY));
        assert!(!m.could_result_in(&ts(0, &[4]), BODY, &ts(0, &[3]), BODY));
    }

    #[test]
    fn self_summary_is_identity_plus_cycle() {
        let g = loop_graph();
        let m = g.summaries();
        let around = m.between(BODY, BODY);
        // The feedback cycle's summary (inc 1) is dominated by the
        // identity — could-result-in only needs the minimal summary — so
        // the antichain holds exactly the identity.
        assert_eq!(around.len(), 1);
        assert!(around.elements()[0].is_identity_at(1));
    }

    #[test]
    fn no_backward_paths() {
        let g = loop_graph();
        let m = g.summaries();
        assert!(m.between(OUT, INPUT).is_empty());
        assert!(m.between(BODY, INPUT).is_empty());
        assert!(!m.could_result_in(&ts(0, &[]), OUT, &ts(9, &[]), INPUT));
    }

    #[test]
    fn egress_projects_iterations_away() {
        let g = loop_graph();
        let m = g.summaries();
        // Work inside the loop at any iteration could reach the output at
        // the same epoch.
        assert!(m.could_result_in(&ts(2, &[9]), BODY, &ts(2, &[]), OUT));
        assert!(!m.could_result_in(&ts(2, &[9]), BODY, &ts(1, &[]), OUT));
    }

    #[test]
    fn edge_locations_participate() {
        let g = loop_graph();
        let m = g.summaries();
        // Connector 0 is input→ingress at depth 0.
        let edge = Location::Edge(crate::graph::ConnectorId(0));
        assert!(m.could_result_in(&ts(0, &[]), edge, &ts(0, &[0]), BODY));
        assert!(!m.could_result_in(&ts(1, &[]), edge, &ts(0, &[0]), BODY));
    }

    #[test]
    fn nested_loop_summaries() {
        // Two nested loops; check that inner iterations project to outer.
        let mut g = GraphBuilder::new();
        let input = g.add_stage("in", StageKind::Input, ContextId::ROOT, 0, 1);
        let outer = g.add_context(ContextId::ROOT);
        let inner = g.add_context(outer);
        let i1 = g.add_ingress("I1", outer);
        let i2 = g.add_ingress("I2", inner);
        let f1 = g.add_feedback("F1", outer);
        let f2 = g.add_feedback("F2", inner);
        let ob = g.add_stage("outer_body", StageKind::Regular, outer, 2, 1);
        let ib = g.add_stage("inner_body", StageKind::Regular, inner, 2, 1);
        let e2 = g.add_egress("E2", inner);
        let e1 = g.add_egress("E1", outer);
        let out = g.add_stage("out", StageKind::Regular, ContextId::ROOT, 1, 0);
        g.connect(input, 0, i1, 0);
        g.connect(i1, 0, ob, 0);
        g.connect(f1, 0, ob, 1);
        g.connect(ob, 0, i2, 0);
        g.connect(i2, 0, ib, 0);
        g.connect(f2, 0, ib, 1);
        g.connect(ib, 0, f2, 0);
        g.connect(ib, 0, e2, 0);
        g.connect(e2, 0, f1, 0);
        g.connect(e2, 0, e1, 0);
        g.connect(e1, 0, out, 0);
        let graph = g.build().unwrap();
        let m = graph.summaries();
        let ib_loc = Location::Vertex(ib);
        // Inner work at (outer 2, inner 5) can reach (outer 2, inner 6)
        // and (outer 3, inner 0), but not (outer 2, inner 4).
        assert!(m.could_result_in(&ts(0, &[2, 5]), ib_loc, &ts(0, &[2, 6]), ib_loc));
        assert!(m.could_result_in(&ts(0, &[2, 5]), ib_loc, &ts(0, &[3, 0]), ib_loc));
        assert!(!m.could_result_in(&ts(0, &[2, 5]), ib_loc, &ts(0, &[2, 4]), ib_loc));
        // And it can exit entirely.
        assert!(m.could_result_in(&ts(0, &[2, 5]), ib_loc, &ts(0, &[]), Location::Vertex(out)));
    }
}
