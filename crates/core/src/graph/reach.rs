//! Could-result-in by reachability (§2.3): seeds pushed forward along the
//! location graph's per-arc summaries.

use super::{ConnectorId, Location, LogicalGraph};
use crate::order::{Antichain, PartialOrder};
use crate::summary::Summary;
use crate::time::Timestamp;

/// What [`LogicalGraph::propagate`] carries along an arc: a timestamp,
/// which the arc's summary moves (the tracker, NA0003), or a path summary,
/// which the arc's summary extends (NA0001).
pub(crate) trait FollowArc: Clone {
    /// What a location keeps of the elements that reach it: the minimal.
    type Minimal: Clone + Default;

    /// `self` after crossing an arc whose summary is `arc`.
    #[must_use]
    fn follow(&self, arc: &Summary) -> Self;

    /// Keeps `self` unless a kept element is at or before it; whether kept.
    fn keep_in(self, minimal: &mut Self::Minimal) -> bool;
}

impl FollowArc for Timestamp {
    /// Times at one location share its depth, where they are totally
    /// ordered: the minimal one is the minimum.
    type Minimal = Option<Timestamp>;

    fn follow(&self, arc: &Summary) -> Self {
        arc.apply(self)
    }

    fn keep_in(self, minimal: &mut Option<Timestamp>) -> bool {
        let kept = !minimal.is_some_and(|m| m.less_equal(&self));
        if kept {
            *minimal = Some(self);
        }
        kept
    }
}

impl FollowArc for Summary {
    /// Summaries of different `keep` are incomparable.
    type Minimal = Antichain<Summary>;

    fn follow(&self, arc: &Summary) -> Self {
        self.then(arc)
    }

    fn keep_in(self, minimal: &mut Antichain<Summary>) -> bool {
        minimal.insert(self)
    }
}

impl LogicalGraph {
    /// The out-arcs of every location, indexed like
    /// [`LogicalGraph::location_index`]: a vertex has an arc to each
    /// outgoing edge location carrying the stage's summary, and an edge an
    /// identity arc to its destination vertex.
    pub(super) fn out_arcs(&self) -> Vec<Vec<(usize, Summary)>> {
        let stages = self.stages.len();
        let mut arcs = vec![Vec::new(); stages + self.connectors.len()];
        for (ci, c) in self.connectors.iter().enumerate() {
            let src = c.src.0;
            arcs[src.0].push((stages + ci, self.stage_summary(src)));
            let depth = self.connector_depth(ConnectorId(ci));
            arcs[stages + ci].push((c.dst.0 .0, Summary::identity(depth)));
        }
        arcs
    }

    /// Where a location's entry sits in [`LogicalGraph::propagate`]'s
    /// result: stages first, then connectors.
    pub(crate) fn location_index(&self, location: Location) -> usize {
        match location {
            Location::Vertex(s) => s.0,
            Location::Edge(c) => self.stages.len() + c.0,
        }
    }

    /// Pushes every seed `(location, element)` forward along the arcs and
    /// returns, per [`location_index`](LogicalGraph::location_index), the
    /// minimal elements that arrive through *at least one* arc: a seed's
    /// own entry holds what comes back to it around a cycle, not the seed.
    pub(crate) fn propagate<T: FollowArc>(
        &self,
        seeds: impl IntoIterator<Item = (Location, T)>,
    ) -> Vec<T::Minimal> {
        let mut reached = vec![T::Minimal::default(); self.arcs.len()];
        let mut work = seeds
            .into_iter()
            .map(|(location, t)| (self.location_index(location), t))
            .collect();
        self.propagate_into(&mut work, &mut reached);
        reached
    }

    /// [`LogicalGraph::propagate`] from the `(location_index, element)`
    /// seeds in `work`, which it empties, into what earlier seeds reached.
    /// An element goes on only where kept, which bounds the walk: elements
    /// of one depth or `keep` are well-ordered, and a cycle that maps one
    /// to itself is dominated on the second trip. Stopping at a dominated
    /// arrival is sound because summaries are monotone.
    pub(crate) fn propagate_into<T: FollowArc>(
        &self,
        work: &mut Vec<(usize, T)>,
        reached: &mut [T::Minimal],
    ) {
        while let Some((from, t)) = work.pop() {
            for (to, arc) in &self.arcs[from] {
                let next = t.follow(arc);
                if next.clone().keep_in(&mut reached[*to]) {
                    work.push((*to, next));
                }
            }
        }
    }

    /// Whether an event at `(t1, l1)` could result in an event at
    /// `(t2, l2)` (§2.3): `t1 ≤ t2` at one location (the empty path), or
    /// some path's summary maps `t1` to a timestamp at or before `t2`.
    pub fn could_result_in(
        &self,
        t1: &Timestamp,
        l1: Location,
        t2: &Timestamp,
        l2: Location,
    ) -> bool {
        (l1 == l2 && t1.less_equal(t2))
            || self.propagate([(l1, *t1)])[self.location_index(l2)]
                .is_some_and(|t| t.less_equal(t2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ContextId, GraphBuilder, StageId, StageKind};

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
        // Input at epoch 0 could result in body work at iteration 0.
        assert!(g.could_result_in(&ts(0, &[]), INPUT, &ts(0, &[0]), BODY));
        // ... and at any later iteration.
        assert!(g.could_result_in(&ts(0, &[]), INPUT, &ts(0, &[7]), BODY));
        // ... and at downstream output.
        assert!(g.could_result_in(&ts(0, &[]), INPUT, &ts(0, &[]), OUT));
        // But not at an earlier epoch.
        assert!(!g.could_result_in(&ts(1, &[]), INPUT, &ts(0, &[5]), BODY));
    }

    #[test]
    fn feedback_advances_iterations() {
        let g = loop_graph();
        // Body work at iteration 3 could cause body work at iteration 4
        // (via feedback) but not at iteration 3 again or earlier.
        assert!(g.could_result_in(&ts(0, &[3]), BODY, &ts(0, &[4]), BODY));
        assert!(g.could_result_in(&ts(0, &[3]), BODY, &ts(0, &[3]), BODY));
        assert!(!g.could_result_in(&ts(0, &[4]), BODY, &ts(0, &[3]), BODY));
    }

    #[test]
    fn the_cycle_returns_one_iteration_later() {
        let g = loop_graph();
        // What comes back to the body through at least one arc is the
        // feedback cycle, which increments the loop counter once; the
        // empty path is not an arc, so no identity is there to dominate it.
        let around = &g.propagate([(BODY, Summary::identity(1))])[g.location_index(BODY)];
        assert_eq!(around.elements(), &[Summary::feedback(1)]);
        let returned = g.propagate([(BODY, ts(0, &[3]))])[g.location_index(BODY)];
        assert_eq!(returned, Some(ts(0, &[4])));
    }

    #[test]
    fn no_backward_paths() {
        let g = loop_graph();
        let from_out = g.propagate([(OUT, ts(0, &[]))]);
        assert!(from_out.iter().all(Option::is_none));
        let from_body = g.propagate([(BODY, ts(0, &[0]))]);
        assert!(from_body[g.location_index(INPUT)].is_none());
        assert!(!g.could_result_in(&ts(0, &[]), OUT, &ts(9, &[]), INPUT));
    }

    #[test]
    fn egress_projects_iterations_away() {
        let g = loop_graph();
        // Work inside the loop at any iteration could reach the output at
        // the same epoch.
        assert!(g.could_result_in(&ts(2, &[9]), BODY, &ts(2, &[]), OUT));
        assert!(!g.could_result_in(&ts(2, &[9]), BODY, &ts(1, &[]), OUT));
    }

    #[test]
    fn edge_locations_participate() {
        let g = loop_graph();
        // Connector 0 is input→ingress at depth 0.
        let edge = Location::Edge(ConnectorId(0));
        assert!(g.could_result_in(&ts(0, &[]), edge, &ts(0, &[0]), BODY));
        assert!(!g.could_result_in(&ts(1, &[]), edge, &ts(0, &[0]), BODY));
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
        let ib_loc = Location::Vertex(ib);
        let cri =
            |t1: &[u64], t2: &[u64]| graph.could_result_in(&ts(0, t1), ib_loc, &ts(0, t2), ib_loc);
        // Inner work at (outer 2, inner 5) can reach (outer 2, inner 6)
        // and (outer 3, inner 0), but not (outer 2, inner 4).
        assert!(cri(&[2, 5], &[2, 6]));
        assert!(cri(&[2, 5], &[3, 0]));
        assert!(!cri(&[2, 5], &[2, 4]));
        // And it can exit entirely.
        assert!(graph.could_result_in(&ts(0, &[2, 5]), ib_loc, &ts(0, &[]), Location::Vertex(out)));
        // Two cycles return to the inner body, of different `keep`: the
        // inner feedback's, and the outer one that resets the inner
        // counter. Neither dominates the other.
        let around =
            &graph.propagate([(ib_loc, Summary::identity(2))])[graph.location_index(ib_loc)];
        assert_eq!(around.len(), 2, "{around:?}");
    }
}
