//! Fixture tests for the static dataflow analyzer (`naiad::analysis`,
//! DESIGN.md §12): for every rule, one graph that triggers it (asserting
//! the exact diagnostic code) and a neighboring graph that passes.

use naiad::analysis::{analyze, AnalysisConfig, Code, Severity};
use naiad::dataflow::{InputPort, Notify, OutputPort};
use naiad::graph::{ContextId, GraphBuilder, GraphError, PactKind, StageKind};
use naiad::{Pact, Timestamp};

fn codes(report: &naiad::analysis::AnalysisReport) -> Vec<Code> {
    report.diagnostics().iter().map(|d| d.code).collect()
}

// ---------------------------------------------------------------------------
// NA0001: zero-delay cycle
// ---------------------------------------------------------------------------

/// A cycle that passes *through* a loop context — ingress, body, feedback,
/// egress — and composes to the identity at the parent depth: the
/// feedback's increment is popped by the egress before the cycle closes.
/// `build()` accepts it (the cycle validator cuts the graph exactly at
/// feedback inputs, and the cycle traverses one), but a record on it can
/// circulate forever; the analyzer must reject it before a worker starts.
fn zero_delay_loop() -> GraphBuilder {
    let mut g = GraphBuilder::new();
    let input = g.add_stage("in", StageKind::Input, ContextId::ROOT, 0, 1);
    let p = g.add_stage("pump", StageKind::Regular, ContextId::ROOT, 2, 1);
    let ctx = g.add_context(ContextId::ROOT);
    let i = g.add_ingress("I", ctx);
    let b = g.add_stage("body", StageKind::Regular, ctx, 1, 1);
    let f = g.add_feedback("F", ctx);
    let e = g.add_egress("E", ctx);
    g.connect(input, 0, p, 0);
    g.connect(p, 0, i, 0);
    g.connect(i, 0, b, 0);
    g.connect(b, 0, f, 0);
    g.connect(f, 0, e, 0);
    g.connect(e, 0, p, 1);
    g
}

#[test]
fn zero_delay_cycle_triggers_na0001() {
    // The plain build accepts the graph — that is precisely the gap.
    assert!(zero_delay_loop().build().is_ok());

    let report = analyze(
        &zero_delay_loop().build().unwrap(),
        &AnalysisConfig::default(),
    );
    let hits: Vec<_> = report.with_code(Code::ZeroDelayCycle).collect();
    assert_eq!(hits.len(), 1, "one diagnostic per cycle: {report:?}");
    assert_eq!(hits[0].severity, Severity::Error);
    assert_eq!(hits[0].code.as_str(), "NA0001");
}

#[test]
fn zero_delay_cycle_is_rejected_at_build_checked() {
    // The acceptance contract: rejected before any worker starts, with
    // the structured diagnostic attached.
    let err = zero_delay_loop()
        .build_checked(&AnalysisConfig::default())
        .unwrap_err();
    match err {
        GraphError::Analysis { diagnostic, report } => {
            assert_eq!(diagnostic.code, Code::ZeroDelayCycle);
            assert_eq!(diagnostic.code.as_str(), "NA0001");
            assert_eq!(diagnostic.severity, Severity::Error);
            assert!(!report.is_error_clean());
            // The rendered error names stages, not just ids.
            let text = diagnostic.to_string();
            assert!(text.contains("NA0001"), "{text}");
            assert!(text.contains('\''), "names quoted in message: {text}");
        }
        other => panic!("expected an analysis rejection, got {other:?}"),
    }
}

#[test]
fn proper_loop_passes_na0001() {
    // The §2.1 shape: the cycle goes through the feedback, which
    // increments the loop counter every trip.
    let mut g = GraphBuilder::new();
    let input = g.add_stage("in", StageKind::Input, ContextId::ROOT, 0, 1);
    let ctx = g.add_context(ContextId::ROOT);
    let i = g.add_ingress("I", ctx);
    let b = g.add_stage("body", StageKind::Regular, ctx, 2, 1);
    let f = g.add_feedback("F", ctx);
    let e = g.add_egress("E", ctx);
    let out = g.add_stage("out", StageKind::Regular, ContextId::ROOT, 1, 0);
    g.connect(input, 0, i, 0);
    g.connect(i, 0, b, 0);
    g.connect(f, 0, b, 1);
    g.connect(b, 0, f, 0);
    g.connect(b, 0, e, 0);
    g.connect(e, 0, out, 0);
    let (graph, report) = g.build_checked(&AnalysisConfig::default()).unwrap();
    assert!(report.with_code(Code::ZeroDelayCycle).next().is_none());
    assert!(report.diagnostics().is_empty(), "{:?}", codes(&report));
    assert_eq!(graph.stages().len(), 6);
}

#[test]
fn zero_delay_cycle_can_be_suppressed() {
    let config = AnalysisConfig::default().allow(Code::ZeroDelayCycle);
    let (_, report) = zero_delay_loop().build_checked(&config).unwrap();
    assert!(report.with_code(Code::ZeroDelayCycle).next().is_none());

    // Demoting below the deny threshold also lets the graph through,
    // while keeping the finding visible.
    let config = AnalysisConfig::default().set_severity(Code::ZeroDelayCycle, Severity::Warning);
    let (_, report) = zero_delay_loop().build_checked(&config).unwrap();
    let hit = report.with_code(Code::ZeroDelayCycle).next().unwrap();
    assert_eq!(hit.severity, Severity::Warning);
}

// ---------------------------------------------------------------------------
// NA0002: dead vertex
// ---------------------------------------------------------------------------

#[test]
fn orphan_loop_triggers_na0002_unreachable() {
    let mut g = GraphBuilder::new();
    let input = g.add_stage("in", StageKind::Input, ContextId::ROOT, 0, 1);
    let sink = g.add_stage("sink", StageKind::Regular, ContextId::ROOT, 1, 0);
    g.connect(input, 0, sink, 0);
    // An orphan feedback loop: nothing feeds it.
    let ctx = g.add_context(ContextId::ROOT);
    let b = g.add_stage("orphan_body", StageKind::Regular, ctx, 1, 1);
    let f = g.add_feedback("orphan_F", ctx);
    g.connect(f, 0, b, 0);
    g.connect(b, 0, f, 0);
    let report = analyze(&g.build().unwrap(), &AnalysisConfig::default());
    let dead: Vec<_> = report.with_code(Code::DeadVertex).collect();
    assert!(
        dead.iter().any(|d| d.message.contains("orphan_body")),
        "{dead:?}"
    );
    assert!(dead.iter().all(|d| d.severity == Severity::Warning));
}

#[test]
fn dropped_output_triggers_na0002_no_sink_path() {
    let mut g = GraphBuilder::new();
    let input = g.add_stage("in", StageKind::Input, ContextId::ROOT, 0, 1);
    let keep = g.add_stage("keep", StageKind::Regular, ContextId::ROOT, 1, 1);
    let sink = g.add_stage("sink", StageKind::Regular, ContextId::ROOT, 1, 0);
    let drop_ = g.add_stage("dropped", StageKind::Regular, ContextId::ROOT, 1, 1);
    g.connect(input, 0, keep, 0);
    g.connect(keep, 0, sink, 0);
    g.connect(input, 0, drop_, 0); // output of `dropped` goes nowhere
    let report = analyze(&g.build().unwrap(), &AnalysisConfig::default());
    let dead: Vec<_> = report.with_code(Code::DeadVertex).collect();
    assert_eq!(dead.len(), 1, "{dead:?}");
    assert!(dead[0].message.contains("dropped"), "{:?}", dead[0]);
}

#[test]
fn fully_observed_pipeline_passes_na0002() {
    let mut g = GraphBuilder::new();
    let input = g.add_stage("in", StageKind::Input, ContextId::ROOT, 0, 1);
    let map = g.add_stage("map", StageKind::Regular, ContextId::ROOT, 1, 1);
    let sink = g.add_stage("probe", StageKind::Regular, ContextId::ROOT, 1, 0);
    g.connect(input, 0, map, 0);
    g.connect(map, 0, sink, 0);
    let report = analyze(&g.build().unwrap(), &AnalysisConfig::default());
    assert!(report.with_code(Code::DeadVertex).next().is_none());
    assert!(report.diagnostics().is_empty(), "{:?}", codes(&report));
}

// ---------------------------------------------------------------------------
// NA0003: unreachable notification
// ---------------------------------------------------------------------------

#[test]
fn wrong_depth_notification_triggers_na0003() {
    let mut g = GraphBuilder::new();
    let input = g.add_stage("in", StageKind::Input, ContextId::ROOT, 0, 1);
    let a = g.add_stage("agg", StageKind::Regular, ContextId::ROOT, 1, 0);
    g.connect(input, 0, a, 0);
    // `agg` sits at loop depth 0 but requests a depth-1 time.
    g.declare_notification(a, Timestamp::with_counters(0, &[3]));
    let report = analyze(&g.build().unwrap(), &AnalysisConfig::default());
    let hits: Vec<_> = report.with_code(Code::UnreachableNotification).collect();
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].severity, Severity::Error);
    assert!(hits[0].message.contains("agg"), "{:?}", hits[0]);
}

#[test]
fn notification_with_no_input_path_triggers_na0003() {
    let mut g = GraphBuilder::new();
    let input = g.add_stage("in", StageKind::Input, ContextId::ROOT, 0, 1);
    let sink = g.add_stage("sink", StageKind::Regular, ContextId::ROOT, 1, 0);
    g.connect(input, 0, sink, 0);
    // A generator chain never fed by any input stage.
    let gen = g.add_stage("gen", StageKind::Regular, ContextId::ROOT, 0, 1);
    let lonely = g.add_stage("lonely", StageKind::Regular, ContextId::ROOT, 1, 0);
    g.connect(gen, 0, lonely, 0);
    g.declare_notification(lonely, Timestamp::new(2));
    let report = analyze(&g.build().unwrap(), &AnalysisConfig::default());
    let hits: Vec<_> = report.with_code(Code::UnreachableNotification).collect();
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].message.contains("lonely"), "{:?}", hits[0]);
}

#[test]
fn reachable_notification_passes_na0003() {
    let mut g = GraphBuilder::new();
    let input = g.add_stage("in", StageKind::Input, ContextId::ROOT, 0, 1);
    let a = g.add_stage("agg", StageKind::Regular, ContextId::ROOT, 1, 0);
    g.connect(input, 0, a, 0);
    g.declare_notification(a, Timestamp::new(7));
    let report = analyze(&g.build().unwrap(), &AnalysisConfig::default());
    assert!(report
        .with_code(Code::UnreachableNotification)
        .next()
        .is_none());
    assert!(report.is_error_clean());
}

/// A `notify_at` made while a worker builds the dataflow reaches `NA0003`:
/// the dataflow's request set holds it when the scope finalizes.
#[test]
fn construction_time_request_reaches_na0003_through_the_runtime() {
    let hits = naiad::execute(naiad::Config::single_process(1), |worker| {
        let config = AnalysisConfig {
            deny: Severity::Never,
            ..AnalysisConfig::default()
        };
        let ((), report) = worker.dataflow_with_report(&config, |scope| {
            let (_input, stream) = scope.new_input::<u64>();
            stream.unary_notify(Pact::Pipeline, "agg", |info| {
                // `agg` sits at loop depth 0 but requests a depth-1 time.
                info.notify.notify_at(Timestamp::with_counters(0, &[3]));
                (
                    |_input: &mut InputPort<u64>,
                     _output: &mut OutputPort<u64>,
                     _notify: &Notify| {},
                    |_time: Timestamp, _output: &mut OutputPort<u64>, _notify: &Notify| {},
                )
            });
        });
        report.with_code(Code::UnreachableNotification).count()
    })
    .expect("fault-free run");
    assert_eq!(hits, vec![1]);
}

// ---------------------------------------------------------------------------
// NA0004: ingress/egress imbalance
// ---------------------------------------------------------------------------

#[test]
fn ingress_without_egress_triggers_na0004() {
    let mut g = GraphBuilder::new();
    let input = g.add_stage("in", StageKind::Input, ContextId::ROOT, 0, 1);
    let ctx = g.add_context(ContextId::ROOT);
    let i = g.add_ingress("I", ctx);
    let b = g.add_stage("body", StageKind::Regular, ctx, 2, 1);
    let f = g.add_feedback("F", ctx);
    g.connect(input, 0, i, 0);
    g.connect(i, 0, b, 0);
    g.connect(f, 0, b, 1);
    g.connect(b, 0, f, 0);
    // No egress: records that enter never leave.
    let report = analyze(&g.build().unwrap(), &AnalysisConfig::default());
    let hits: Vec<_> = report.with_code(Code::LoopImbalance).collect();
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].severity, Severity::Error);

    // ... and build_checked denies it under the default config.
    assert!(matches!(
        regraph_ingress_without_egress().build_checked(&AnalysisConfig::default()),
        Err(GraphError::Analysis { diagnostic, .. }) if diagnostic.code == Code::LoopImbalance
    ));
}

/// Same graph as [`ingress_without_egress_triggers_na0004`], rebuilt
/// (builders are consumed by `build`).
fn regraph_ingress_without_egress() -> GraphBuilder {
    let mut g = GraphBuilder::new();
    let input = g.add_stage("in", StageKind::Input, ContextId::ROOT, 0, 1);
    let ctx = g.add_context(ContextId::ROOT);
    let i = g.add_ingress("I", ctx);
    let b = g.add_stage("body", StageKind::Regular, ctx, 2, 1);
    let f = g.add_feedback("F", ctx);
    g.connect(input, 0, i, 0);
    g.connect(i, 0, b, 0);
    g.connect(f, 0, b, 1);
    g.connect(b, 0, f, 0);
    g
}

#[test]
fn trapped_ingress_triggers_na0004_warning() {
    // Two entries into one context; only the second can reach the egress.
    let mut g = GraphBuilder::new();
    let in1 = g.add_stage("in1", StageKind::Input, ContextId::ROOT, 0, 1);
    let in2 = g.add_stage("in2", StageKind::Input, ContextId::ROOT, 0, 1);
    let ctx = g.add_context(ContextId::ROOT);
    let i1 = g.add_ingress("I1", ctx);
    let i2 = g.add_ingress("I2", ctx);
    let b1 = g.add_stage("spin", StageKind::Regular, ctx, 2, 1);
    let f = g.add_feedback("F", ctx);
    let b2 = g.add_stage("through", StageKind::Regular, ctx, 1, 1);
    let e = g.add_egress("E", ctx);
    let out = g.add_stage("out", StageKind::Regular, ContextId::ROOT, 1, 0);
    g.connect(in1, 0, i1, 0);
    g.connect(i1, 0, b1, 0);
    g.connect(f, 0, b1, 1);
    g.connect(b1, 0, f, 0); // i1's records spin forever
    g.connect(in2, 0, i2, 0);
    g.connect(i2, 0, b2, 0);
    g.connect(b2, 0, e, 0);
    g.connect(e, 0, out, 0);
    let report = analyze(&g.build().unwrap(), &AnalysisConfig::default());
    let hits: Vec<_> = report.with_code(Code::LoopImbalance).collect();
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].severity, Severity::Warning);
    assert!(hits[0].message.contains("I1"), "{:?}", hits[0]);
}

#[test]
fn balanced_loop_passes_na0004() {
    let mut g = GraphBuilder::new();
    let input = g.add_stage("in", StageKind::Input, ContextId::ROOT, 0, 1);
    let ctx = g.add_context(ContextId::ROOT);
    let i = g.add_ingress("I", ctx);
    let b = g.add_stage("body", StageKind::Regular, ctx, 2, 1);
    let f = g.add_feedback("F", ctx);
    let e = g.add_egress("E", ctx);
    let out = g.add_stage("out", StageKind::Regular, ContextId::ROOT, 1, 0);
    g.connect(input, 0, i, 0);
    g.connect(i, 0, b, 0);
    g.connect(f, 0, b, 1);
    g.connect(b, 0, f, 0);
    g.connect(b, 0, e, 0);
    g.connect(e, 0, out, 0);
    let report = analyze(&g.build().unwrap(), &AnalysisConfig::default());
    assert!(report.with_code(Code::LoopImbalance).next().is_none());
}

// ---------------------------------------------------------------------------
// NA0005: re-entrancy hazard
// ---------------------------------------------------------------------------

#[test]
fn feedback_self_loop_triggers_na0005() {
    let mut g = GraphBuilder::new();
    let input = g.add_stage("in", StageKind::Input, ContextId::ROOT, 0, 1);
    let sink = g.add_stage("sink", StageKind::Regular, ContextId::ROOT, 1, 0);
    g.connect(input, 0, sink, 0);
    let ctx = g.add_context(ContextId::ROOT);
    let f = g.add_feedback("tight", ctx);
    g.connect(f, 0, f, 0); // a pipeline self-delivery cycle of length 1
    let report = analyze(&g.build().unwrap(), &AnalysisConfig::default());
    let hits: Vec<_> = report.with_code(Code::ReentrancyHazard).collect();
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].severity, Severity::Warning);
    assert!(hits[0].message.contains("length 1"), "{:?}", hits[0]);
}

#[test]
fn raised_bound_flags_ordinary_loops() {
    // The standard body ⇄ feedback loop has local cycle length 2: clean
    // under the default bound, flagged when the bound is raised to 3.
    let build = || {
        let mut g = GraphBuilder::new();
        let input = g.add_stage("in", StageKind::Input, ContextId::ROOT, 0, 1);
        let ctx = g.add_context(ContextId::ROOT);
        let i = g.add_ingress("I", ctx);
        let b = g.add_stage("body", StageKind::Regular, ctx, 2, 1);
        let f = g.add_feedback("F", ctx);
        let e = g.add_egress("E", ctx);
        let out = g.add_stage("out", StageKind::Regular, ContextId::ROOT, 1, 0);
        g.connect(input, 0, i, 0);
        g.connect(i, 0, b, 0);
        g.connect(f, 0, b, 1);
        g.connect(b, 0, f, 0);
        g.connect(b, 0, e, 0);
        g.connect(e, 0, out, 0);
        g.build().unwrap()
    };
    let default = analyze(&build(), &AnalysisConfig::default());
    assert!(default.with_code(Code::ReentrancyHazard).next().is_none());

    let strict = analyze(
        &build(),
        &AnalysisConfig::default().with_reentrancy_bound(3),
    );
    assert_eq!(strict.with_code(Code::ReentrancyHazard).count(), 1);
}

#[test]
fn exchange_breaks_reentrancy_cycle() {
    // The same tight loop, but the back edge re-partitions: deliveries
    // are no longer guaranteed local, so NA0005 stays quiet.
    let mut g = GraphBuilder::new();
    let input = g.add_stage("in", StageKind::Input, ContextId::ROOT, 0, 1);
    let sink = g.add_stage("sink", StageKind::Regular, ContextId::ROOT, 1, 0);
    g.connect(input, 0, sink, 0);
    let ctx = g.add_context(ContextId::ROOT);
    let f = g.add_feedback("tight", ctx);
    g.connect_with(f, 0, f, 0, PactKind::Exchange);
    let report = analyze(&g.build().unwrap(), &AnalysisConfig::default());
    assert!(report.with_code(Code::ReentrancyHazard).next().is_none());
}

// ---------------------------------------------------------------------------
// NA0006: exchange-contract violation
// ---------------------------------------------------------------------------

#[test]
fn mixed_exchange_and_variant_pipeline_triggers_na0006() {
    let mut g = GraphBuilder::new();
    let in1 = g.add_stage("edges", StageKind::Input, ContextId::ROOT, 0, 1);
    let in2 = g.add_stage("marks", StageKind::Input, ContextId::ROOT, 0, 1);
    let pre = g.add_stage("local_prep", StageKind::Regular, ContextId::ROOT, 1, 1);
    let join = g.add_stage("join", StageKind::Regular, ContextId::ROOT, 2, 1);
    let sink = g.add_stage("sink", StageKind::Regular, ContextId::ROOT, 1, 0);
    g.connect(in2, 0, pre, 0);
    g.connect_with(in1, 0, join, 0, PactKind::Exchange);
    // `local_prep` inherits worker-variant placement from the raw input
    // and feeds the keyed join pipelined — a placement-dependent join.
    g.connect_with(pre, 0, join, 1, PactKind::Pipeline);
    g.connect(join, 0, sink, 0);
    let report = analyze(&g.build().unwrap(), &AnalysisConfig::default());
    let hits: Vec<_> = report.with_code(Code::ExchangeContract).collect();
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].severity, Severity::Error);
    assert!(hits[0].message.contains("local_prep"), "{:?}", hits[0]);
}

#[test]
fn doubly_exchanged_join_passes_na0006() {
    let mut g = GraphBuilder::new();
    let in1 = g.add_stage("edges", StageKind::Input, ContextId::ROOT, 0, 1);
    let in2 = g.add_stage("marks", StageKind::Input, ContextId::ROOT, 0, 1);
    let pre = g.add_stage("local_prep", StageKind::Regular, ContextId::ROOT, 1, 1);
    let join = g.add_stage("join", StageKind::Regular, ContextId::ROOT, 2, 1);
    let sink = g.add_stage("sink", StageKind::Regular, ContextId::ROOT, 1, 0);
    g.connect(in2, 0, pre, 0);
    g.connect_with(in1, 0, join, 0, PactKind::Exchange);
    g.connect_with(pre, 0, join, 1, PactKind::Exchange);
    g.connect(join, 0, sink, 0);
    let report = analyze(&g.build().unwrap(), &AnalysisConfig::default());
    assert!(report.with_code(Code::ExchangeContract).next().is_none());
    assert!(report.is_error_clean());
}

#[test]
fn pipeline_from_aligned_stage_passes_na0006() {
    // A pipelined side-input is fine when its source was itself exchanged:
    // its placement is key-determined, matching the join's contract.
    let mut g = GraphBuilder::new();
    let in1 = g.add_stage("edges", StageKind::Input, ContextId::ROOT, 0, 1);
    let in2 = g.add_stage("marks", StageKind::Input, ContextId::ROOT, 0, 1);
    let pre = g.add_stage("keyed_prep", StageKind::Regular, ContextId::ROOT, 1, 1);
    let join = g.add_stage("join", StageKind::Regular, ContextId::ROOT, 2, 1);
    let sink = g.add_stage("sink", StageKind::Regular, ContextId::ROOT, 1, 0);
    g.connect_with(in2, 0, pre, 0, PactKind::Exchange);
    g.connect_with(in1, 0, join, 0, PactKind::Exchange);
    g.connect_with(pre, 0, join, 1, PactKind::Pipeline);
    g.connect(join, 0, sink, 0);
    let report = analyze(&g.build().unwrap(), &AnalysisConfig::default());
    assert!(report.with_code(Code::ExchangeContract).next().is_none());
}

// ---------------------------------------------------------------------------
// Report plumbing
// ---------------------------------------------------------------------------

#[test]
fn reports_render_text_and_json() {
    let report = analyze(
        &zero_delay_loop().build().unwrap(),
        &AnalysisConfig::default(),
    );
    let text = report.render_text("fixture");
    assert!(text.contains("error[NA0001]"), "{text}");
    assert!(text.contains("§2.1"), "{text}");
    let json = report.render_json("fixture");
    assert!(json.contains("\"code\":\"NA0001\""), "{json}");
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
}

#[test]
fn diagnostics_sort_most_severe_first() {
    // A graph with both an Error (NA0001) and a Warning (NA0002): the
    // side chain observes `aux` through a probe-like sink, but `dead_end`'s
    // output reaches nothing.
    let mut g = zero_delay_loop();
    let aux = g.add_stage("aux", StageKind::Input, ContextId::ROOT, 0, 1);
    let dead = g.add_stage("dead_end", StageKind::Regular, ContextId::ROOT, 1, 1);
    let sink = g.add_stage("sink", StageKind::Regular, ContextId::ROOT, 1, 0);
    g.connect(aux, 0, dead, 0);
    g.connect(aux, 0, sink, 0);
    let report = analyze(&g.build().unwrap(), &AnalysisConfig::default());
    assert!(report.error_count() >= 1 && report.warning_count() >= 1);
    let severities: Vec<_> = report.diagnostics().iter().map(|d| d.severity).collect();
    let mut sorted = severities.clone();
    sorted.sort_by(|a, b| b.cmp(a));
    assert_eq!(severities, sorted, "most severe first: {severities:?}");
    assert_eq!(
        report
            .first_denied(&AnalysisConfig::default())
            .unwrap()
            .code,
        Code::ZeroDelayCycle
    );
}

#[test]
fn graph_errors_carry_stage_names() {
    // The satellite contract: validation errors name stages, not just ids.
    let mut g = GraphBuilder::new();
    let a = g.add_stage("producer", StageKind::Regular, ContextId::ROOT, 0, 1);
    let b = g.add_stage("consumer", StageKind::Regular, ContextId::ROOT, 1, 0);
    g.connect(a, 2, b, 0); // output port 2 does not exist
    let err = g.build().unwrap_err();
    let text = err.to_string();
    assert!(text.contains("producer"), "{text}");
}

// ---------------------------------------------------------------------------
// NA0006 rescale-safe certification (AnalysisConfig::rescale_contracts)
// ---------------------------------------------------------------------------

/// An exchange-fed keyed aggregation feeding a sink — the canonical
/// rescale-safe shape, before any state is declared.
fn keyed_pipeline() -> (GraphBuilder, naiad::graph::StageId) {
    let mut g = GraphBuilder::new();
    let input = g.add_stage("input", StageKind::Input, ContextId::ROOT, 0, 1);
    let agg = g.add_stage("keyed_min", StageKind::Regular, ContextId::ROOT, 1, 1);
    let sink = g.add_stage("sink", StageKind::Regular, ContextId::ROOT, 1, 0);
    g.connect_with(input, 0, agg, 0, PactKind::Exchange);
    g.connect(agg, 0, sink, 0);
    (g, agg)
}

#[test]
fn opaque_state_triggers_rescale_certification() {
    // Opaque (non-keyed) state cannot be split across a new partition
    // count, so certification denies it — but only when asked: the same
    // graph is clean under the default config, where a fixed worker set
    // makes opaque state perfectly fine.
    let (mut g, agg) = keyed_pipeline();
    g.declare_stateful(agg, false);
    let graph = g.build().unwrap();
    let report = analyze(&graph, &AnalysisConfig::default().with_rescale_contracts());
    let hits: Vec<_> = report.with_code(Code::ExchangeContract).collect();
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].severity, Severity::Error);
    assert!(hits[0].message.contains("opaque"), "{:?}", hits[0]);
    assert!(hits[0].message.contains("keyed_min"), "{:?}", hits[0]);
    assert!(
        hits[0].suggestion.contains("register_keyed_state"),
        "{:?}",
        hits[0]
    );
    let relaxed = analyze(&graph, &AnalysisConfig::default());
    assert!(relaxed.is_error_clean(), "{relaxed:?}");
}

#[test]
fn keyed_state_at_worker_variant_placement_triggers_certification() {
    // Keyed state only re-partitions soundly when the stage's records were
    // routed by that key in the first place. A stage fed pipelined from a
    // raw input holds whatever its local worker happened to produce.
    let mut g = GraphBuilder::new();
    let input = g.add_stage("input", StageKind::Input, ContextId::ROOT, 0, 1);
    let agg = g.add_stage("local_acc", StageKind::Regular, ContextId::ROOT, 1, 1);
    let sink = g.add_stage("sink", StageKind::Regular, ContextId::ROOT, 1, 0);
    g.connect_with(input, 0, agg, 0, PactKind::Pipeline);
    g.connect(agg, 0, sink, 0);
    g.declare_stateful(agg, true);
    let report = analyze(
        &g.build().unwrap(),
        &AnalysisConfig::default().with_rescale_contracts(),
    );
    let hits: Vec<_> = report.with_code(Code::ExchangeContract).collect();
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].severity, Severity::Error);
    assert!(hits[0].message.contains("worker-variant"), "{:?}", hits[0]);
}

#[test]
fn keyed_state_at_exchanged_stage_passes_certification() {
    let (mut g, agg) = keyed_pipeline();
    g.declare_stateful(agg, true);
    let report = analyze(
        &g.build().unwrap(),
        &AnalysisConfig::default().with_rescale_contracts(),
    );
    assert!(
        report.with_code(Code::ExchangeContract).next().is_none(),
        "{report:?}"
    );
    assert!(report.is_error_clean());
}

#[test]
fn certification_composes_with_severity_overrides() {
    // A migration escape hatch: demote NA0006 to Warning and the denial
    // disappears while the finding remains visible.
    let (mut g, agg) = keyed_pipeline();
    g.declare_stateful(agg, false);
    let config = AnalysisConfig::default()
        .with_rescale_contracts()
        .set_severity(Code::ExchangeContract, Severity::Warning);
    let report = analyze(&g.build().unwrap(), &config);
    assert!(report.is_error_clean());
    assert_eq!(report.with_code(Code::ExchangeContract).count(), 1);
    assert!(report.first_denied(&config).is_none());
}
