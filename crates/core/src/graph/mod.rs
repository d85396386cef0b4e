//! Logical dataflow graphs (§2.1, §3.1).
//!
//! A program describes its computation as a *logical* graph of stages
//! linked by connectors; at execution time every worker instantiates one
//! vertex per stage (the *physical* expansion). Progress tracking operates
//! on the logical graph throughout: pointstamps are projected to stages and
//! connectors (§3.1), which keeps the could-result-in machinery independent
//! of the degree of parallelism.
//!
//! Stages live in possibly nested *loop contexts*. Edges enter a context
//! through an ingress stage, leave through an egress stage, and every cycle
//! must pass through the feedback stage of its innermost context —
//! [`GraphBuilder::build`] validates this structure.

mod builder;
mod reach;

pub use builder::{GraphBuilder, GraphError};
pub(crate) use reach::FollowArc;

pub use crate::analysis::{AnalysisConfig, AnalysisReport};

use crate::summary::Summary;

/// Identifies a stage in a logical graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct StageId(pub usize);

/// Identifies a connector (logical edge) in a logical graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ConnectorId(pub usize);

/// Identifies a loop context; context 0 is the top-level streaming context.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ContextId(pub usize);

impl ContextId {
    /// The top-level streaming context.
    pub const ROOT: ContextId = ContextId(0);
}

/// What a stage does to timestamps, which determines its path summary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StageKind {
    /// A user stage: timestamps pass through unchanged.
    Regular,
    /// An input stage fed by an external producer (no dataflow inputs).
    Input,
    /// System stage pushing a zero loop counter on entry to a context.
    Ingress,
    /// System stage popping the loop counter on exit from a context.
    Egress,
    /// System stage incrementing the loop counter; the only stage whose
    /// output may be connected before its input.
    Feedback,
}

/// A stage of the logical graph.
#[derive(Clone, Debug)]
pub struct Stage {
    /// Debug name (shown in errors and traces).
    pub name: String,
    /// Timestamp behaviour.
    pub kind: StageKind,
    /// The context the stage belongs to. For ingress this is the *child*
    /// context being entered; for egress, the child being left.
    pub context: ContextId,
    /// Number of input ports.
    pub inputs: usize,
    /// Number of output ports.
    pub outputs: usize,
}

/// A connector between an output port and an input port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Connector {
    /// Source stage and output port.
    pub src: (StageId, usize),
    /// Destination stage and input port.
    pub dst: (StageId, usize),
}

/// The partitioning contract of a connector, as far as the static
/// analyzer needs to know it (the data-typed routing function itself
/// lives in the runtime's `Pact`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PactKind {
    /// Records stay on the producing worker.
    #[default]
    Pipeline,
    /// Records are routed by a data-determined partitioning function.
    Exchange,
    /// Every worker receives a copy of every record.
    Broadcast,
}

/// A loop context.
#[derive(Clone, Copy, Debug)]
pub struct Context {
    /// Enclosing context (`None` for the root).
    pub parent: Option<ContextId>,
    /// Loop nesting depth: 0 for the root, 1 for a top-level loop, …
    pub depth: usize,
}

/// A place where an unprocessed event can reside: a notification at a
/// stage or a message on a connector (§2.3, projected to the logical
/// graph per §3.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Location {
    /// A (projected) vertex location.
    Vertex(StageId),
    /// A (projected) edge location.
    Edge(ConnectorId),
}

/// A validated logical graph with each location's out-arcs.
#[derive(Debug)]
pub struct LogicalGraph {
    pub(crate) stages: Vec<Stage>,
    pub(crate) connectors: Vec<Connector>,
    pub(crate) contexts: Vec<Context>,
    /// Each location's out-arcs with their summaries, built once by
    /// [`GraphBuilder::build`]; the only adjacency could-result-in walks.
    pub(crate) arcs: Vec<Vec<(usize, Summary)>>,
    /// Per-connector partitioning contract, parallel to `connectors`.
    pub(crate) pacts: Vec<PactKind>,
    /// Notification interests declared at construction time, consumed by
    /// the static analyzer (`NA0003`).
    pub(crate) notification_requests: Vec<(StageId, crate::time::Timestamp)>,
    /// Stages that registered checkpointable state, with whether the
    /// state is keyed; consumed by NA0006's rescale-contracts mode.
    pub(crate) stateful: Vec<(StageId, bool)>,
}

impl LogicalGraph {
    /// The stages, indexed by [`StageId`].
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// The debug name of a stage (shown in diagnostics).
    pub fn stage_name(&self, stage: StageId) -> &str {
        &self.stages[stage.0].name
    }

    /// The partitioning contract recorded for a connector.
    pub fn connector_pact(&self, connector: ConnectorId) -> PactKind {
        self.pacts
            .get(connector.0)
            .copied()
            .unwrap_or(PactKind::Pipeline)
    }

    /// Notification interests declared while the graph was built (via
    /// [`GraphBuilder::declare_notification`] or construction-time
    /// `notify_at` calls).
    pub fn notification_requests(&self) -> &[(StageId, crate::time::Timestamp)] {
        &self.notification_requests
    }

    /// State registrations declared while the graph was built (via
    /// [`GraphBuilder::declare_stateful`] or operator
    /// `register_state`/`register_keyed_state` calls): `(stage, keyed)`.
    pub fn stateful_stages(&self) -> &[(StageId, bool)] {
        &self.stateful
    }

    /// The connectors, indexed by [`ConnectorId`].
    pub fn connectors(&self) -> &[Connector] {
        &self.connectors
    }

    /// The contexts, indexed by [`ContextId`].
    pub fn contexts(&self) -> &[Context] {
        &self.contexts
    }

    /// The loop depth of a stage's *input* ports (notification times at
    /// the stage use this depth).
    pub fn stage_input_depth(&self, stage: StageId) -> usize {
        let s = &self.stages[stage.0];
        let d = self.contexts[s.context.0].depth;
        match s.kind {
            // An ingress's input arrives from the parent context.
            StageKind::Ingress => d - 1,
            _ => d,
        }
    }

    /// The loop depth of a stage's *output* ports.
    pub fn stage_output_depth(&self, stage: StageId) -> usize {
        let s = &self.stages[stage.0];
        let d = self.contexts[s.context.0].depth;
        match s.kind {
            // An egress's output leaves into the parent context.
            StageKind::Egress => d - 1,
            _ => d,
        }
    }

    /// The loop depth of timestamps carried by a connector.
    pub fn connector_depth(&self, connector: ConnectorId) -> usize {
        self.stage_output_depth(self.connectors[connector.0].src.0)
    }

    /// The loop depth of timestamps at a location.
    pub fn location_depth(&self, location: Location) -> usize {
        match location {
            Location::Vertex(s) => self.stage_input_depth(s),
            Location::Edge(c) => self.connector_depth(c),
        }
    }

    /// The timestamp action a stage applies between its input and output
    /// ports, as a path summary.
    pub fn stage_summary(&self, stage: StageId) -> Summary {
        let in_depth = self.stage_input_depth(stage);
        match self.stages[stage.0].kind {
            StageKind::Regular | StageKind::Input => Summary::identity(in_depth),
            StageKind::Ingress => Summary::ingress(in_depth),
            StageKind::Egress => Summary::egress(in_depth),
            StageKind::Feedback => Summary::feedback(in_depth),
        }
    }

    /// Connectors leaving any output port of `stage`, in connection order.
    pub fn outgoing(&self, stage: StageId) -> impl Iterator<Item = (ConnectorId, &Connector)> {
        self.arcs[stage.0].iter().map(|&(edge, _)| {
            let id = ConnectorId(edge - self.stages.len());
            (id, &self.connectors[id.0])
        })
    }

    /// The input stages of the graph.
    pub fn input_stages(&self) -> impl Iterator<Item = StageId> + '_ {
        self.stages
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind == StageKind::Input)
            .map(|(i, _)| StageId(i))
    }
}
