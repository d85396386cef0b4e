//! Graph construction and structural validation (§4.3).

use super::{
    Connector, ConnectorId, Context, ContextId, LogicalGraph, PactKind, Stage, StageId, StageKind,
};
use crate::analysis::{self, AnalysisConfig, AnalysisReport, Diagnostic};
use crate::time::{Timestamp, MAX_LOOP_DEPTH};

/// Errors detected while assembling or validating a logical graph.
///
/// Every variant carries the human-readable stage *name* (as passed to
/// [`GraphBuilder::add_stage`] and friends) alongside the numeric id, so
/// error messages point at the user's own vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A port index was out of range for its stage.
    PortOutOfRange {
        stage: StageId,
        name: String,
        port: usize,
        output: bool,
    },
    /// A connector joins ports in different loop contexts.
    ContextMismatch {
        src: StageId,
        src_name: String,
        dst: StageId,
        dst_name: String,
    },
    /// An input port has no connector (every stage input must be fed).
    UnconnectedInput {
        stage: StageId,
        name: String,
        port: usize,
    },
    /// An input port has more than one incoming connector.
    MultiplyConnectedInput {
        stage: StageId,
        name: String,
        port: usize,
    },
    /// A cycle does not pass through a feedback stage of its context
    /// (§2.1's structural constraint), so progress could never be made.
    InvalidCycle { stage: StageId, name: String },
    /// Loop contexts nest deeper than [`MAX_LOOP_DEPTH`].
    TooDeep,
    /// The static analyzer ([`crate::analysis`]) denied the graph: the
    /// first deny-severity diagnostic, with the full report attached.
    /// Boxed so the error stays pointer-sized next to the structural
    /// variants (clippy: `result_large_err`).
    Analysis {
        /// The denying diagnostic.
        diagnostic: Box<Diagnostic>,
        /// Every diagnostic the analyzer produced.
        report: Box<AnalysisReport>,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::PortOutOfRange {
                stage,
                name,
                port,
                output,
            } => {
                let dir = if *output { "output" } else { "input" };
                write!(
                    f,
                    "{dir} port {port} out of range for stage '{name}' ({stage:?})"
                )
            }
            GraphError::ContextMismatch {
                src,
                src_name,
                dst,
                dst_name,
            } => write!(
                f,
                "connector from '{src_name}' ({src:?}) to '{dst_name}' ({dst:?}) \
                 crosses loop contexts without ingress/egress"
            ),
            GraphError::UnconnectedInput { stage, name, port } => {
                write!(
                    f,
                    "input port {port} of stage '{name}' ({stage:?}) is not connected"
                )
            }
            GraphError::MultiplyConnectedInput { stage, name, port } => {
                write!(
                    f,
                    "input port {port} of stage '{name}' ({stage:?}) has multiple connectors"
                )
            }
            GraphError::InvalidCycle { stage, name } => write!(
                f,
                "cycle through stage '{name}' ({stage:?}) does not pass a feedback \
                 stage of its context"
            ),
            GraphError::TooDeep => {
                write!(
                    f,
                    "loop contexts nest deeper than MAX_LOOP_DEPTH ({MAX_LOOP_DEPTH})"
                )
            }
            GraphError::Analysis { diagnostic, report } => {
                write!(
                    f,
                    "static analysis denied the dataflow: {diagnostic} \
                     ({} error(s), {} warning(s) in total)",
                    report.error_count(),
                    report.warning_count()
                )
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Assembles a logical graph: stages, connectors, and loop contexts.
///
/// # Examples
///
/// ```
/// use naiad::graph::{GraphBuilder, ContextId, StageKind};
///
/// let mut g = GraphBuilder::new();
/// let input = g.add_stage("input", StageKind::Input, ContextId::ROOT, 0, 1);
/// let ctx = g.add_context(ContextId::ROOT);
/// let ingress = g.add_ingress("enter", ctx);
/// let feedback = g.add_feedback("loop", ctx);
/// let body = g.add_stage("body", StageKind::Regular, ctx, 2, 1);
/// let egress = g.add_egress("leave", ctx);
/// g.connect(input, 0, ingress, 0);
/// g.connect(ingress, 0, body, 0);
/// g.connect(feedback, 0, body, 1);
/// g.connect(body, 0, feedback, 0);
/// g.connect(body, 0, egress, 0);
/// let graph = g.build().unwrap();
/// assert_eq!(graph.stages().len(), 5);
/// ```
#[derive(Debug, Default)]
pub struct GraphBuilder {
    stages: Vec<Stage>,
    connectors: Vec<Connector>,
    /// Per-connector partitioning contract, parallel to `connectors`.
    pacts: Vec<PactKind>,
    contexts: Vec<Context>,
    /// Notification interests declared during construction, handed to the
    /// static analyzer.
    notification_requests: Vec<(StageId, Timestamp)>,
    /// Stages that registered checkpointable state, with whether the state
    /// is keyed (partitionable across a worker-count change). Handed to
    /// NA0006's rescale-contracts mode.
    stateful: Vec<(StageId, bool)>,
}

impl GraphBuilder {
    /// A builder holding only the root streaming context.
    pub fn new() -> Self {
        GraphBuilder {
            stages: Vec::new(),
            connectors: Vec::new(),
            pacts: Vec::new(),
            contexts: vec![Context {
                parent: None,
                depth: 0,
            }],
            notification_requests: Vec::new(),
            stateful: Vec::new(),
        }
    }

    /// The parent of a context (`None` for the root).
    pub fn context_parent(&self, context: ContextId) -> Option<ContextId> {
        self.contexts[context.0].parent
    }

    /// Adds a loop context nested within `parent`.
    pub fn add_context(&mut self, parent: ContextId) -> ContextId {
        assert!(parent.0 < self.contexts.len(), "unknown parent context");
        let depth = self.contexts[parent.0].depth + 1;
        self.contexts.push(Context {
            parent: Some(parent),
            depth,
        });
        ContextId(self.contexts.len() - 1)
    }

    /// Adds a stage with the given port counts.
    ///
    /// # Panics
    ///
    /// Panics if `context` is unknown, or if `kind` is a system kind —
    /// use [`GraphBuilder::add_ingress`] and friends for those.
    pub fn add_stage(
        &mut self,
        name: &str,
        kind: StageKind,
        context: ContextId,
        inputs: usize,
        outputs: usize,
    ) -> StageId {
        assert!(context.0 < self.contexts.len(), "unknown context");
        assert!(
            matches!(kind, StageKind::Regular | StageKind::Input),
            "system stages are added via add_ingress/add_egress/add_feedback"
        );
        assert!(
            kind != StageKind::Input || inputs == 0,
            "input stages take no dataflow inputs"
        );
        self.push_stage(name, kind, context, inputs, outputs)
    }

    /// Adds the ingress stage entering `context`.
    pub fn add_ingress(&mut self, name: &str, context: ContextId) -> StageId {
        assert!(
            self.contexts[context.0].parent.is_some(),
            "cannot ingress into the root context"
        );
        self.push_stage(name, StageKind::Ingress, context, 1, 1)
    }

    /// Adds the egress stage leaving `context`.
    pub fn add_egress(&mut self, name: &str, context: ContextId) -> StageId {
        assert!(
            self.contexts[context.0].parent.is_some(),
            "cannot egress from the root context"
        );
        self.push_stage(name, StageKind::Egress, context, 1, 1)
    }

    /// Adds the feedback stage of `context`.
    pub fn add_feedback(&mut self, name: &str, context: ContextId) -> StageId {
        assert!(
            self.contexts[context.0].parent.is_some(),
            "feedback requires a loop context"
        );
        self.push_stage(name, StageKind::Feedback, context, 1, 1)
    }

    fn push_stage(
        &mut self,
        name: &str,
        kind: StageKind,
        context: ContextId,
        inputs: usize,
        outputs: usize,
    ) -> StageId {
        self.stages.push(Stage {
            name: name.to_string(),
            kind,
            context,
            inputs,
            outputs,
        });
        StageId(self.stages.len() - 1)
    }

    /// Adds one input port to a regular stage, returning its index.
    ///
    /// Used by the generic operator builder, which discovers its port
    /// count as inputs are attached.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is not a regular stage.
    pub fn add_input_port(&mut self, stage: StageId) -> usize {
        let s = &mut self.stages[stage.0];
        assert_eq!(
            s.kind,
            StageKind::Regular,
            "ports grow on regular stages only"
        );
        s.inputs += 1;
        s.inputs - 1
    }

    /// Adds one output port to a regular stage, returning its index.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is not a regular stage.
    pub fn add_output_port(&mut self, stage: StageId) -> usize {
        let s = &mut self.stages[stage.0];
        assert_eq!(
            s.kind,
            StageKind::Regular,
            "ports grow on regular stages only"
        );
        s.outputs += 1;
        s.outputs - 1
    }

    /// The context in which an output port's records are observed.
    fn output_context(&self, stage: StageId) -> ContextId {
        let s = &self.stages[stage.0];
        match s.kind {
            StageKind::Egress => self.contexts[s.context.0]
                .parent
                .expect("egress stages require a parent context"),
            _ => s.context,
        }
    }

    /// The context in which an input port's records are produced.
    fn input_context(&self, stage: StageId) -> ContextId {
        let s = &self.stages[stage.0];
        match s.kind {
            StageKind::Ingress => self.contexts[s.context.0]
                .parent
                .expect("ingress stages require a parent context"),
            _ => s.context,
        }
    }

    /// Connects `src`'s output port to `dst`'s input port with a
    /// [`PactKind::Pipeline`] contract.
    ///
    /// Errors are deferred to [`GraphBuilder::build`] so construction code
    /// can stay straight-line; this method only records the connector.
    pub fn connect(
        &mut self,
        src: StageId,
        src_port: usize,
        dst: StageId,
        dst_port: usize,
    ) -> ConnectorId {
        self.connect_with(src, src_port, dst, dst_port, PactKind::Pipeline)
    }

    /// Connects `src`'s output port to `dst`'s input port, recording the
    /// partitioning contract for the static analyzer.
    pub fn connect_with(
        &mut self,
        src: StageId,
        src_port: usize,
        dst: StageId,
        dst_port: usize,
        pact: PactKind,
    ) -> ConnectorId {
        self.connectors.push(Connector {
            src: (src, src_port),
            dst: (dst, dst_port),
        });
        self.pacts.push(pact);
        ConnectorId(self.connectors.len() - 1)
    }

    /// Declares that `stage` will request a notification at `time` once
    /// running. The runtime records construction-time `notify_at` calls
    /// here automatically; hand-built graphs may declare interests
    /// directly so the analyzer's `NA0003` rule can check them.
    pub fn declare_notification(&mut self, stage: StageId, time: Timestamp) {
        self.notification_requests.push((stage, time));
    }

    /// Declares that `stage` holds checkpointable state; `keyed` records
    /// whether the state is partitioned by the operator's exchange key
    /// (and can therefore migrate across a worker-count change). The
    /// runtime records `register_state`/`register_keyed_state` calls here
    /// automatically; NA0006's rescale-contracts mode consumes the facts.
    pub fn declare_stateful(&mut self, stage: StageId, keyed: bool) {
        self.stateful.push((stage, keyed));
    }

    /// The debug name of a stage added so far (diagnostics).
    pub(crate) fn stage_name(&self, stage: StageId) -> &str {
        &self.stages[stage.0].name
    }

    /// Validates the structure and records each location's out-arcs.
    pub fn build(self) -> Result<LogicalGraph, GraphError> {
        self.validate_ports()?;
        self.validate_contexts()?;
        self.validate_inputs()?;
        self.validate_cycles()?;
        if self.contexts.iter().any(|c| c.depth > MAX_LOOP_DEPTH) {
            return Err(GraphError::TooDeep);
        }
        let mut graph = LogicalGraph {
            stages: self.stages,
            connectors: self.connectors,
            contexts: self.contexts,
            arcs: Vec::new(),
            pacts: self.pacts,
            notification_requests: self.notification_requests,
            stateful: self.stateful,
        };
        graph.arcs = graph.out_arcs();
        Ok(graph)
    }

    /// Like [`GraphBuilder::build`], then runs the static analyzer
    /// ([`crate::analysis`]) over the validated graph. Diagnostics at or above
    /// [`AnalysisConfig::deny`](crate::analysis::AnalysisConfig) severity
    /// reject the graph with [`GraphError::Analysis`]; the full
    /// [`AnalysisReport`] is returned alongside the graph otherwise.
    pub fn build_checked(
        self,
        config: &AnalysisConfig,
    ) -> Result<(LogicalGraph, AnalysisReport), GraphError> {
        let graph = self.build()?;
        let report = analysis::analyze(&graph, config);
        if let Some(diagnostic) = report.first_denied(config) {
            return Err(GraphError::Analysis {
                diagnostic: Box::new(diagnostic.clone()),
                report: Box::new(report),
            });
        }
        Ok((graph, report))
    }

    fn validate_ports(&self) -> Result<(), GraphError> {
        for c in &self.connectors {
            let (src, sp) = c.src;
            let (dst, dp) = c.dst;
            if sp >= self.stages[src.0].outputs {
                return Err(GraphError::PortOutOfRange {
                    stage: src,
                    name: self.stage_name(src).to_string(),
                    port: sp,
                    output: true,
                });
            }
            if dp >= self.stages[dst.0].inputs {
                return Err(GraphError::PortOutOfRange {
                    stage: dst,
                    name: self.stage_name(dst).to_string(),
                    port: dp,
                    output: false,
                });
            }
        }
        Ok(())
    }

    fn validate_contexts(&self) -> Result<(), GraphError> {
        for c in &self.connectors {
            if self.output_context(c.src.0) != self.input_context(c.dst.0) {
                return Err(GraphError::ContextMismatch {
                    src: c.src.0,
                    src_name: self.stage_name(c.src.0).to_string(),
                    dst: c.dst.0,
                    dst_name: self.stage_name(c.dst.0).to_string(),
                });
            }
        }
        Ok(())
    }

    fn validate_inputs(&self) -> Result<(), GraphError> {
        // Connectors per input port (`validate_ports` has range-checked them).
        let mut fed: Vec<Vec<usize>> = self.stages.iter().map(|s| vec![0; s.inputs]).collect();
        for c in &self.connectors {
            fed[c.dst.0 .0][c.dst.1] += 1;
        }
        for (i, (stage, ports)) in self.stages.iter().zip(&fed).enumerate() {
            for (port, &count) in ports.iter().enumerate() {
                if count == 0 {
                    return Err(GraphError::UnconnectedInput {
                        stage: StageId(i),
                        name: stage.name.clone(),
                        port,
                    });
                }
                if count > 1 {
                    return Err(GraphError::MultiplyConnectedInput {
                        stage: StageId(i),
                        name: stage.name.clone(),
                        port,
                    });
                }
            }
        }
        Ok(())
    }

    /// With feedback stages' internal input→output path removed, the stage
    /// graph must be acyclic: then every cycle in the full graph passes a
    /// feedback stage, and (because connectors cannot cross contexts) that
    /// feedback belongs to the cycle's own innermost context — §2.1's
    /// requirement.
    fn validate_cycles(&self) -> Result<(), GraphError> {
        let n = self.stages.len();
        let mut adj = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        for c in &self.connectors {
            if self.stages[c.dst.0 .0].kind == StageKind::Feedback {
                continue; // Cut the graph at feedback inputs.
            }
            adj[c.src.0 .0].push(c.dst.0 .0);
            indeg[c.dst.0 .0] += 1;
        }
        // Kahn's algorithm; any residue is an invalid cycle.
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(u) = queue.pop() {
            seen += 1;
            for &v in &adj[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push(v);
                }
            }
        }
        if seen == n {
            Ok(())
        } else {
            let stage = (0..n)
                .find(|&i| indeg[i] > 0)
                .map(StageId)
                .expect("residue implies a positive in-degree stage");
            Err(GraphError::InvalidCycle {
                stage,
                name: self.stage_name(stage).to_string(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loop_graph() -> GraphBuilder {
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
        g
    }

    #[test]
    fn valid_loop_builds() {
        let graph = loop_graph().build().unwrap();
        assert_eq!(graph.stages().len(), 6);
        assert_eq!(graph.connectors().len(), 6);
        assert_eq!(graph.contexts().len(), 2);
    }

    #[test]
    fn depths_follow_contexts() {
        let graph = loop_graph().build().unwrap();
        // Stage ids in construction order: input=0, ingress=1,
        // feedback=2, body=3, egress=4, out=5.
        assert_eq!(graph.stage_input_depth(StageId(1)), 0, "ingress input");
        assert_eq!(graph.stage_output_depth(StageId(1)), 1, "ingress output");
        assert_eq!(graph.stage_input_depth(StageId(4)), 1, "egress input");
        assert_eq!(graph.stage_output_depth(StageId(4)), 0, "egress output");
        assert_eq!(graph.stage_input_depth(StageId(3)), 1, "body");
        assert_eq!(graph.stage_input_depth(StageId(0)), 0, "input");
    }

    #[test]
    fn cycle_without_feedback_is_rejected() {
        let mut g = GraphBuilder::new();
        let ctx = g.add_context(ContextId::ROOT);
        let a = g.add_stage("a", StageKind::Regular, ctx, 1, 1);
        let b = g.add_stage("b", StageKind::Regular, ctx, 1, 1);
        g.connect(a, 0, b, 0);
        g.connect(b, 0, a, 0);
        assert!(matches!(g.build(), Err(GraphError::InvalidCycle { .. })));
    }

    #[test]
    fn cross_context_connector_is_rejected() {
        let mut g = GraphBuilder::new();
        let a = g.add_stage("a", StageKind::Input, ContextId::ROOT, 0, 1);
        let ctx = g.add_context(ContextId::ROOT);
        let b = g.add_stage("b", StageKind::Regular, ctx, 1, 0);
        g.connect(a, 0, b, 0);
        assert!(matches!(g.build(), Err(GraphError::ContextMismatch { .. })));
    }

    #[test]
    fn sibling_contexts_do_not_connect() {
        let mut g = GraphBuilder::new();
        let ctx_a = g.add_context(ContextId::ROOT);
        let ctx_b = g.add_context(ContextId::ROOT);
        let a = g.add_stage("a", StageKind::Regular, ctx_a, 0, 1);
        let b = g.add_stage("b", StageKind::Regular, ctx_b, 1, 0);
        g.connect(a, 0, b, 0);
        assert!(matches!(g.build(), Err(GraphError::ContextMismatch { .. })));
    }

    #[test]
    fn unconnected_input_is_rejected() {
        let mut g = GraphBuilder::new();
        let _a = g.add_stage("a", StageKind::Regular, ContextId::ROOT, 1, 0);
        assert!(matches!(
            g.build(),
            Err(GraphError::UnconnectedInput { .. })
        ));
    }

    #[test]
    fn doubly_connected_input_is_rejected() {
        let mut g = GraphBuilder::new();
        let a = g.add_stage("a", StageKind::Input, ContextId::ROOT, 0, 1);
        let b = g.add_stage("b", StageKind::Input, ContextId::ROOT, 0, 1);
        let c = g.add_stage("c", StageKind::Regular, ContextId::ROOT, 1, 0);
        g.connect(a, 0, c, 0);
        g.connect(b, 0, c, 0);
        assert!(matches!(
            g.build(),
            Err(GraphError::MultiplyConnectedInput { .. })
        ));
    }

    #[test]
    fn bad_port_is_rejected() {
        let mut g = GraphBuilder::new();
        let a = g.add_stage("a", StageKind::Input, ContextId::ROOT, 0, 1);
        let b = g.add_stage("b", StageKind::Regular, ContextId::ROOT, 1, 0);
        g.connect(a, 1, b, 0);
        assert!(matches!(
            g.build(),
            Err(GraphError::PortOutOfRange { output: true, .. })
        ));
    }

    #[test]
    fn nested_contexts_build() {
        let mut g = GraphBuilder::new();
        let input = g.add_stage("in", StageKind::Input, ContextId::ROOT, 0, 1);
        let outer = g.add_context(ContextId::ROOT);
        let inner = g.add_context(outer);
        let i1 = g.add_ingress("I1", outer);
        let i2 = g.add_ingress("I2", inner);
        let f2 = g.add_feedback("F2", inner);
        let body = g.add_stage("body", StageKind::Regular, inner, 2, 1);
        let e2 = g.add_egress("E2", inner);
        let e1 = g.add_egress("E1", outer);
        g.connect(input, 0, i1, 0);
        g.connect(i1, 0, i2, 0);
        g.connect(i2, 0, body, 0);
        g.connect(f2, 0, body, 1);
        g.connect(body, 0, f2, 0);
        g.connect(body, 0, e2, 0);
        g.connect(e2, 0, e1, 0);
        let graph = g.build().unwrap();
        assert_eq!(graph.stage_input_depth(body), 2);
        assert_eq!(graph.stage_output_depth(e1), 0);
    }

    #[test]
    fn too_deep_nesting_is_rejected() {
        let mut g = GraphBuilder::new();
        let mut ctx = ContextId::ROOT;
        for _ in 0..=MAX_LOOP_DEPTH {
            ctx = g.add_context(ctx);
        }
        // A stage so validation has something to traverse.
        let _ = g.add_stage("a", StageKind::Regular, ctx, 0, 0);
        assert_eq!(g.build().unwrap_err(), GraphError::TooDeep);
    }
}
