//! The analyzer's rule implementations.
//!
//! Every rule consumes the validated [`LogicalGraph`] (including its
//! all-pairs path summaries Ψ, §2.3) and returns structured
//! [`Diagnostic`]s at the rule's *default* severity; the caller
//! ([`super::analyze`]) applies configured overrides and suppression.

use super::{AnalysisConfig, Code, Diagnostic, Locus, Severity};
use crate::graph::{
    relax, Connector, ConnectorId, Location, LogicalGraph, PactKind, StageId, StageKind,
};
use crate::order::{Antichain, PartialOrder};
use crate::summary::Summary;
use crate::time::Timestamp;

/// Runs every rule in code order.
pub(super) fn run_all(graph: &LogicalGraph, config: &AnalysisConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    zero_delay_cycles(graph, &mut out);
    dead_vertices(graph, &mut out);
    unreachable_notifications(graph, &mut out);
    loop_imbalance(graph, &mut out);
    reentrancy_hazards(graph, config, &mut out);
    exchange_contract(graph, &mut out);
    if config.rescale_contracts {
        rescale_contracts(graph, &mut out);
    }
    out
}

// ---------------------------------------------------------------------------
// NA0001: zero-delay cycle (§2.1/§2.3)
// ---------------------------------------------------------------------------

/// All-pairs summaries over *non-empty* stage-to-stage paths (Ψ⁺): the
/// relaxation [`SummaryMatrix`](crate::graph::SummaryMatrix) runs, seeded
/// with the arcs instead of diagonal identities, so a cell `(v, v)` holds
/// precisely the cycle summaries through `v` (see [`relax`]).
fn plus_matrix(graph: &LogicalGraph) -> Vec<Antichain<Summary>> {
    // Stage-level arcs: a connector moves a timestamp from the source
    // stage's input to the destination stage's input by applying the
    // source stage's timestamp action (the connector itself is identity).
    let arcs: Vec<(usize, usize, Summary)> = graph
        .connectors()
        .iter()
        .map(|c| (c.src.0 .0, c.dst.0 .0, graph.stage_summary(c.src.0)))
        .collect();
    relax(graph.stages().len(), &arcs, &arcs)
}

/// Whether a cycle summary admits a stationary timestamp, i.e. fails to
/// strictly advance any coordinate.
///
/// A canonical summary maps `(e, c₁…c_d)` to `(e, c₁…c_keep + inc, push…)`.
/// If `inc > 0` the last kept coordinate strictly increases for *every*
/// timestamp (timestamps are compared lexicographically), so no stationary
/// time exists. If `inc == 0` the witness `t = (0, 0^keep ++ push)` maps to
/// itself exactly.
fn is_zero_delay(summary: &Summary) -> bool {
    summary.inc() == 0
}

/// The stationary witness timestamp of a zero-delay cycle summary.
fn zero_delay_witness(summary: &Summary) -> Timestamp {
    let mut counters = vec![0u64; summary.keep()];
    counters.extend_from_slice(summary.push());
    let witness = Timestamp::with_counters(0, &counters);
    debug_assert!(summary.apply(&witness).less_equal(&witness));
    witness
}

fn zero_delay_cycles(graph: &LogicalGraph, out: &mut Vec<Diagnostic>) {
    let n = graph.stages().len();
    let plus = plus_matrix(graph);

    // Stages that sit on at least one zero-delay cycle, with the witness.
    let mut offenders: Vec<(StageId, Summary)> = Vec::new();
    for v in 0..n {
        if let Some(s) = plus[v * n + v]
            .elements()
            .iter()
            .find(|s| is_zero_delay(s))
        {
            offenders.push((StageId(v), *s));
        }
    }

    // One diagnostic per cycle, not per member: report a stage only if no
    // earlier-reported offender lies on a common cycle with it (mutual
    // non-empty Ψ⁺ paths).
    let mut reported: Vec<StageId> = Vec::new();
    for &(v, summary) in &offenders {
        let duplicate = reported.iter().any(|&r| {
            !plus[r.0 * n + v.0].is_empty() && !plus[v.0 * n + r.0].is_empty()
        });
        if duplicate {
            continue;
        }
        reported.push(v);
        let members: Vec<&str> = offenders
            .iter()
            .filter(|(u, _)| {
                *u == v || (!plus[v.0 * n + u.0].is_empty() && !plus[u.0 * n + v.0].is_empty())
            })
            .map(|(u, _)| graph.stage_name(*u))
            .collect();
        let witness = zero_delay_witness(&summary);
        out.push(Diagnostic {
            code: Code::ZeroDelayCycle,
            severity: Severity::Error,
            locus: Locus::stage(graph, v),
            message: format!(
                "cycle through {} has a path summary that does not strictly \
                 advance any timestamp coordinate; a record at {witness:?} can \
                 circulate forever and the frontier never passes it",
                join_names(&members),
            ),
            suggestion: "route the cycle through the feedback stage of a loop \
                         context so every trip increments a loop counter \
                         (§2.1); if the cycle is intentional, gate it behind \
                         AnalysisConfig::allow(Code::ZeroDelayCycle)"
                .to_string(),
        });
    }
}

fn join_names(names: &[&str]) -> String {
    const SHOWN: usize = 4;
    let mut quoted: Vec<String> = names.iter().take(SHOWN).map(|n| format!("'{n}'")).collect();
    if names.len() > SHOWN {
        quoted.push(format!("… ({} stages total)", names.len()));
    }
    quoted.join(", ")
}

// ---------------------------------------------------------------------------
// NA0002: dead vertex (§2.1)
// ---------------------------------------------------------------------------

fn dead_vertices(graph: &LogicalGraph, out: &mut Vec<Diagnostic>) {
    let n = graph.stages().len();

    // Roots: externally fed stages. Sinks: stages with no output ports
    // (probes, captures, subscriptions — the graph's observation points).
    let roots: Vec<usize> = graph
        .stages()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.kind == StageKind::Input || s.inputs == 0)
        .map(|(i, _)| i)
        .collect();
    let sinks: Vec<usize> = graph
        .stages()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.outputs == 0)
        .map(|(i, _)| i)
        .collect();

    let forward = reach(graph, &roots, false);
    for (v, reached) in forward.iter().enumerate() {
        if !reached {
            out.push(Diagnostic {
                code: Code::DeadVertex,
                severity: Severity::Warning,
                locus: Locus::stage(graph, StageId(v)),
                message: format!(
                    "stage '{}' is unreachable from any input stage; it can \
                     never receive a record or a notification",
                    graph.stage_name(StageId(v)),
                ),
                suggestion: "connect the stage (transitively) to an input, or \
                             remove it from the dataflow"
                    .to_string(),
            });
        }
    }

    // Only meaningful when the graph observes anything at all.
    if sinks.is_empty() {
        return;
    }
    let backward = reach(graph, &sinks, true);
    for v in 0..n {
        if forward[v] && !backward[v] {
            out.push(Diagnostic {
                code: Code::DeadVertex,
                severity: Severity::Warning,
                locus: Locus::stage(graph, StageId(v)),
                message: format!(
                    "no path from stage '{}' reaches any output, probe, or \
                     capture; records it produces are silently dropped",
                    graph.stage_name(StageId(v)),
                ),
                suggestion: "connect the stage's output toward a probe or \
                             capture, or remove the stage"
                    .to_string(),
            });
        }
    }
}

/// Multi-source BFS over stage adjacency; `backward` follows connectors in
/// reverse.
fn reach(graph: &LogicalGraph, sources: &[usize], backward: bool) -> Vec<bool> {
    let n = graph.stages().len();
    let mut seen = vec![false; n];
    let mut queue: Vec<usize> = Vec::new();
    for &s in sources {
        if !seen[s] {
            seen[s] = true;
            queue.push(s);
        }
    }
    while let Some(v) = queue.pop() {
        for Connector { src, dst } in graph.connectors() {
            let (from, to) = if backward {
                (dst.0 .0, src.0 .0)
            } else {
                (src.0 .0, dst.0 .0)
            };
            if from == v && !seen[to] {
                seen[to] = true;
                queue.push(to);
            }
        }
    }
    seen
}

// ---------------------------------------------------------------------------
// NA0003: unreachable notification (§2.3)
// ---------------------------------------------------------------------------

fn unreachable_notifications(graph: &LogicalGraph, out: &mut Vec<Diagnostic>) {
    for (stage, time) in graph.notification_requests() {
        let expected = graph.stage_input_depth(*stage);
        if time.depth() != expected {
            out.push(Diagnostic {
                code: Code::UnreachableNotification,
                severity: Severity::Error,
                locus: Locus::stage(graph, *stage),
                message: format!(
                    "stage '{}' requests a notification at {time:?} (loop \
                     depth {}), but its input ports carry timestamps of loop \
                     depth {expected}; the requested time is outside the \
                     stage's time domain",
                    graph.stage_name(*stage),
                    time.depth(),
                ),
                suggestion: format!(
                    "request a time of loop depth {expected} (the depth of \
                     the stage's enclosing loop contexts)"
                ),
            });
            continue;
        }

        // Could any input still result in this (time, stage) pointstamp?
        // Inputs start delivering at epoch 0 with all loop counters zero.
        let reachable = graph.input_stages().any(|input| {
            let t0 = Timestamp::with_counters(
                0,
                &vec![0u64; graph.stage_input_depth(input)],
            );
            graph.summaries().could_result_in(
                &t0,
                Location::Vertex(input),
                time,
                Location::Vertex(*stage),
            )
        });
        if !reachable {
            out.push(Diagnostic {
                code: Code::UnreachableNotification,
                severity: Severity::Error,
                locus: Locus::stage(graph, *stage),
                message: format!(
                    "stage '{}' requests a notification at {time:?}, but no \
                     path summary from any input stage could result in that \
                     pointstamp (§2.3); the notification would fire \
                     immediately with no work preceding it",
                    graph.stage_name(*stage),
                ),
                suggestion: "request a time some input can still produce, or \
                             connect the stage to an input whose summaries \
                             reach the requested time"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// NA0004: ingress/egress imbalance (§2.1)
// ---------------------------------------------------------------------------

fn loop_imbalance(graph: &LogicalGraph, out: &mut Vec<Diagnostic>) {
    for (ctx_idx, _ctx) in graph.contexts().iter().enumerate().skip(1) {
        let members = |kind: StageKind| -> Vec<StageId> {
            graph
                .stages()
                .iter()
                .enumerate()
                .filter(|(_, s)| s.kind == kind && s.context.0 == ctx_idx)
                .map(|(i, _)| StageId(i))
                .collect()
        };
        let ingresses = members(StageKind::Ingress);
        let egresses = members(StageKind::Egress);

        if !ingresses.is_empty() && egresses.is_empty() {
            out.push(Diagnostic {
                code: Code::LoopImbalance,
                severity: Severity::Error,
                locus: Locus::stage(graph, ingresses[0]),
                message: format!(
                    "loop context #{ctx_idx} is entered through {} but has no \
                     egress stage; records that enter can never leave and \
                     downstream frontiers never advance past the loop",
                    join_names(
                        &ingresses
                            .iter()
                            .map(|&i| graph.stage_name(i))
                            .collect::<Vec<_>>(),
                    ),
                ),
                suggestion: "add a matching leave()/egress for the context, \
                             or drop the enter() if the loop is unused"
                    .to_string(),
            });
            continue;
        }
        if ingresses.is_empty() && !egresses.is_empty() {
            out.push(Diagnostic {
                code: Code::LoopImbalance,
                severity: Severity::Warning,
                locus: Locus::stage(graph, egresses[0]),
                message: format!(
                    "loop context #{ctx_idx} has egress stage {} but no \
                     ingress; nothing can ever enter the context",
                    join_names(
                        &egresses
                            .iter()
                            .map(|&e| graph.stage_name(e))
                            .collect::<Vec<_>>(),
                    ),
                ),
                suggestion: "add a matching enter()/ingress for the context, \
                             or remove the egress"
                    .to_string(),
            });
            continue;
        }

        // Path-level: every entry point must be able to reach some exit of
        // the same context, else data entering there is trapped.
        for &ingress in &ingresses {
            let escapes = egresses.iter().any(|&egress| {
                !graph
                    .summaries()
                    .between(Location::Vertex(ingress), Location::Vertex(egress))
                    .is_empty()
            });
            if !escapes {
                out.push(Diagnostic {
                    code: Code::LoopImbalance,
                    severity: Severity::Warning,
                    locus: Locus::stage(graph, ingress),
                    message: format!(
                        "records entering loop context #{ctx_idx} through \
                         '{}' cannot reach any of its egress stages; they \
                         are trapped in the loop",
                        graph.stage_name(ingress),
                    ),
                    suggestion: "connect the entered stream (transitively) to \
                                 the stream passed to leave()"
                        .to_string(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// NA0005: re-entrancy hazard (§2.2/§3.2)
// ---------------------------------------------------------------------------

fn reentrancy_hazards(graph: &LogicalGraph, config: &AnalysisConfig, out: &mut Vec<Diagnostic>) {
    let n = graph.stages().len();

    // Pipeline-only stage adjacency: these deliveries stay on the producing
    // worker, so a short cycle re-enters the same operator while an earlier
    // invocation may still be on the stack (or its state mid-update).
    let local_arcs: Vec<(usize, usize)> = graph
        .connectors()
        .iter()
        .enumerate()
        .filter(|(ci, _)| graph.connector_pact(ConnectorId(*ci)) == PactKind::Pipeline)
        .map(|(_, c)| (c.src.0 .0, c.dst.0 .0))
        .collect();

    // Shortest local cycle through each stage, by BFS.
    let mut flagged: Vec<(usize, usize)> = Vec::new(); // (stage, cycle length)
    for v in 0..n {
        if let Some(len) = shortest_cycle(n, &local_arcs, v) {
            if len < config.reentrancy_bound {
                flagged.push((v, len));
            }
        }
    }

    // Report each cycle once, at its lowest-numbered member.
    let mut reported: Vec<usize> = Vec::new();
    for &(v, len) in &flagged {
        let duplicate = reported.iter().any(|&r| {
            local_reachable(n, &local_arcs, r, v) && local_reachable(n, &local_arcs, v, r)
        });
        if duplicate {
            continue;
        }
        reported.push(v);
        out.push(Diagnostic {
            code: Code::ReentrancyHazard,
            severity: Severity::Warning,
            locus: Locus::stage(graph, StageId(v)),
            message: format!(
                "stage '{}' sits on an all-local (pipeline) delivery cycle of \
                 length {len}, below the configured re-entrancy bound of {}; \
                 its handler can be re-entered before a prior invocation's \
                 effects are visible",
                graph.stage_name(StageId(v)),
                config.reentrancy_bound,
            ),
            suggestion: "break the cycle with an exchange contract or route \
                         it through a feedback stage; or raise/lower the \
                         bound with AnalysisConfig::with_reentrancy_bound"
                .to_string(),
        });
    }
}

/// Length (in arcs) of the shortest cycle through `v`, if any.
fn shortest_cycle(n: usize, arcs: &[(usize, usize)], v: usize) -> Option<usize> {
    let mut dist = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    // Start from v's successors at distance 1, looking to return to v.
    for &(a, b) in arcs {
        if a == v {
            if b == v {
                return Some(1);
            }
            if dist[b] == usize::MAX {
                dist[b] = 1;
                queue.push_back(b);
            }
        }
    }
    while let Some(u) = queue.pop_front() {
        for &(a, b) in arcs {
            if a != u {
                continue;
            }
            if b == v {
                return Some(dist[u] + 1);
            }
            if dist[b] == usize::MAX {
                dist[b] = dist[u] + 1;
                queue.push_back(b);
            }
        }
    }
    None
}

/// Whether `to` is reachable from `from` over the given arcs.
fn local_reachable(n: usize, arcs: &[(usize, usize)], from: usize, to: usize) -> bool {
    if from == to {
        return true;
    }
    let mut seen = vec![false; n];
    seen[from] = true;
    let mut queue = vec![from];
    while let Some(u) = queue.pop() {
        for &(a, b) in arcs {
            if a == u && !seen[b] {
                if b == to {
                    return true;
                }
                seen[b] = true;
                queue.push(b);
            }
        }
    }
    false
}

// ---------------------------------------------------------------------------
// NA0006: exchange-contract violation (§4.2)
// ---------------------------------------------------------------------------

/// Greatest-fixpoint "worker-invariant placement" status per stage:
/// records at a partition-aligned stage sit on a worker determined by
/// the data (or on every worker), not by which worker happened to
/// produce them. Exchange and broadcast connectors (re-)establish
/// alignment; pipeline connectors inherit the source's status; input
/// stages are externally fed, i.e. worker-variant.
fn partition_alignment(graph: &LogicalGraph) -> Vec<bool> {
    let n = graph.stages().len();
    let mut aligned = vec![true; n];
    for (i, s) in graph.stages().iter().enumerate() {
        if s.kind == StageKind::Input || s.inputs == 0 {
            aligned[i] = false;
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for v in 0..n {
            if !aligned[v] || graph.stages()[v].kind == StageKind::Input {
                continue;
            }
            let ok = incoming(graph, v).all(|(ci, c)| match graph.connector_pact(ci) {
                PactKind::Exchange | PactKind::Broadcast => true,
                PactKind::Pipeline => aligned[c.src.0 .0],
            });
            if !ok {
                aligned[v] = false;
                changed = true;
            }
        }
    }
    aligned
}

fn exchange_contract(graph: &LogicalGraph, out: &mut Vec<Diagnostic>) {
    let n = graph.stages().len();
    let aligned = partition_alignment(graph);

    // Violation: a stage that keys one input by exchange while another
    // input arrives pipelined from a worker-variant source. The exchanged
    // records land on the key's worker; the pipelined records stay wherever
    // they were produced — so whether the two meet depends on the worker
    // count and placement, not on the data.
    for v in 0..n {
        let has_exchange = incoming(graph, v)
            .any(|(ci, _)| graph.connector_pact(ci) == PactKind::Exchange);
        if !has_exchange {
            continue;
        }
        for (ci, c) in incoming(graph, v) {
            if graph.connector_pact(ci) == PactKind::Pipeline && !aligned[c.src.0 .0] {
                out.push(Diagnostic {
                    code: Code::ExchangeContract,
                    severity: Severity::Error,
                    locus: Locus::connector(graph, ci),
                    message: format!(
                        "stage '{}' keys input(s) by an exchange contract, \
                         but input port {} arrives pipelined from '{}' whose \
                         placement is worker-variant; which records meet \
                         depends on worker placement, not on the data",
                        graph.stage_name(c.dst.0),
                        c.dst.1,
                        graph.stage_name(c.src.0),
                    ),
                    suggestion: "exchange (or broadcast) this input by the \
                                 same key as the other inputs, so co-located \
                                 records are determined by the data"
                        .to_string(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// NA0006 (rescale certification): stateful stages must be migratable
// ---------------------------------------------------------------------------

/// Certifies the graph *rescale-safe* (enabled by
/// [`AnalysisConfig::rescale_contracts`]): an elastic rescale snapshots
/// every stage's cross-epoch state at an epoch fence and re-partitions it
/// by key onto a different worker set. That is only meaning-preserving
/// when (a) the state is registered *keyed* — opaque blobs cannot be
/// split across a new partition count — and (b) the stage's placement is
/// worker-invariant, so the records a key's state summarizes are exactly
/// the records the exchange contract routes to that key's worker under
/// *any* worker count.
fn rescale_contracts(graph: &LogicalGraph, out: &mut Vec<Diagnostic>) {
    let aligned = partition_alignment(graph);
    for &(stage, keyed) in graph.stateful_stages() {
        if !keyed {
            out.push(Diagnostic {
                code: Code::ExchangeContract,
                severity: Severity::Error,
                locus: Locus::stage(graph, stage),
                message: format!(
                    "stage '{}' registers opaque (non-keyed) cross-epoch state; \
                     an elastic rescale cannot re-partition it onto a different \
                     worker set",
                    graph.stage_name(stage),
                ),
                suggestion: "register the state with register_keyed_state, \
                             routing by the same key as the stage's exchange \
                             contract; or run with a fixed worker set"
                    .to_string(),
            });
        } else if !aligned[stage.0] {
            out.push(Diagnostic {
                code: Code::ExchangeContract,
                severity: Severity::Error,
                locus: Locus::stage(graph, stage),
                message: format!(
                    "stage '{}' registers keyed state but its placement is \
                     worker-variant; re-partitioning that state by key would \
                     move records the exchange contract never routed by that \
                     key",
                    graph.stage_name(stage),
                ),
                suggestion: "feed every input of this stage through an \
                             exchange (or broadcast) contract so its placement \
                             is determined by the data"
                    .to_string(),
            });
        }
    }
}

/// The incoming connectors of a stage.
fn incoming(
    graph: &LogicalGraph,
    stage: usize,
) -> impl Iterator<Item = (ConnectorId, &Connector)> {
    graph
        .connectors()
        .iter()
        .enumerate()
        .filter(move |(_, c)| c.dst.0 .0 == stage)
        .map(|(i, c)| (ConnectorId(i), c))
}
