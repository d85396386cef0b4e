//! The model-checker's dataflow topologies.
//!
//! Three shapes stress different corners of the could-result-in relation:
//! a straight [`Topology::Chain`] (pure pipeline ordering), a
//! [`Topology::Diamond`] (fan-out plus a two-input fan-in stage, where a
//! frontier must wait for the *slower* branch), and a
//! [`Topology::NestedLoop`] (two loop contexts deep, exercising
//! ingress/egress/feedback summaries and lexicographic counter order).

use std::sync::Arc;

use naiad::graph::{ContextId, GraphBuilder, LogicalGraph, StageKind};

/// A model topology (the minimum matrix: chain, diamond, nested loop).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Topology {
    /// `input → a → b → out`.
    Chain,
    /// `input → split → {left, right} → join(2 inputs) → out`.
    Diamond,
    /// `input → I₁ → outer(2in) → I₂ → inner(2in) ⇄ F₂; inner → E₂ →
    /// back(1in) → {F₁ → outer, E₁ → out}`: a loop nested inside a loop.
    NestedLoop,
}

impl Topology {
    /// All topologies, for matrix drivers.
    pub const ALL: [Topology; 3] = [Topology::Chain, Topology::Diamond, Topology::NestedLoop];

    /// A short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Topology::Chain => "chain",
            Topology::Diamond => "diamond",
            Topology::NestedLoop => "nested-loop",
        }
    }

    /// Builds the logical graph.
    pub fn graph(&self) -> Arc<LogicalGraph> {
        let mut g = GraphBuilder::new();
        match self {
            Topology::Chain => {
                let input = g.add_stage("in", StageKind::Input, ContextId::ROOT, 0, 1);
                let a = g.add_stage("a", StageKind::Regular, ContextId::ROOT, 1, 1);
                let b = g.add_stage("b", StageKind::Regular, ContextId::ROOT, 1, 1);
                let out = g.add_stage("out", StageKind::Regular, ContextId::ROOT, 1, 0);
                g.connect(input, 0, a, 0);
                g.connect(a, 0, b, 0);
                g.connect(b, 0, out, 0);
            }
            Topology::Diamond => {
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
            }
            Topology::NestedLoop => {
                let input = g.add_stage("in", StageKind::Input, ContextId::ROOT, 0, 1);
                let outer_ctx = g.add_context(ContextId::ROOT);
                let i1 = g.add_ingress("I1", outer_ctx);
                let f1 = g.add_feedback("F1", outer_ctx);
                let outer = g.add_stage("outer", StageKind::Regular, outer_ctx, 2, 1);
                let inner_ctx = g.add_context(outer_ctx);
                let i2 = g.add_ingress("I2", inner_ctx);
                let f2 = g.add_feedback("F2", inner_ctx);
                let inner = g.add_stage("inner", StageKind::Regular, inner_ctx, 2, 1);
                let e2 = g.add_egress("E2", inner_ctx);
                let back = g.add_stage("back", StageKind::Regular, outer_ctx, 1, 1);
                let e1 = g.add_egress("E1", outer_ctx);
                let out = g.add_stage("out", StageKind::Regular, ContextId::ROOT, 1, 0);
                g.connect(input, 0, i1, 0);
                g.connect(i1, 0, outer, 0);
                g.connect(f1, 0, outer, 1);
                g.connect(outer, 0, i2, 0);
                g.connect(i2, 0, inner, 0);
                g.connect(f2, 0, inner, 1);
                g.connect(inner, 0, f2, 0);
                g.connect(inner, 0, e2, 0);
                g.connect(e2, 0, back, 0);
                g.connect(back, 0, f1, 0);
                g.connect(back, 0, e1, 0);
                g.connect(e1, 0, out, 0);
            }
        }
        Arc::new(g.build().expect("model topologies are well formed"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_topologies_build() {
        for t in Topology::ALL {
            let graph = t.graph();
            assert_eq!(graph.input_stages().count(), 1, "{}", t.label());
        }
    }

    #[test]
    fn nested_loop_is_two_deep() {
        let graph = Topology::NestedLoop.graph();
        let max_depth = graph.contexts().iter().map(|c| c.depth).max().unwrap();
        assert_eq!(max_depth, 2);
    }
}
