//! The analyzer's rule implementations.
//!
//! Every rule consumes the validated [`LogicalGraph`] and returns
//! structured [`Diagnostic`]s at the rule's *default* severity; the caller
//! ([`super::analyze`]) applies configured overrides and suppression.
//!
//! No rule keeps a table of its own over pairs of stages or locations.
//! The rules that ask about path summaries (§2.3) run the graph's one
//! forward propagation over its per-arc summaries: NA0001 pushes summaries
//! from each feedback stage back around to itself, NA0003 pushes the
//! inputs' first timestamps everywhere. The rest need only plain
//! reachability, a walk over per-stage connector lists.

use super::{AnalysisConfig, Code, Diagnostic, Locus, Severity};
use crate::graph::{ConnectorId, Location, LogicalGraph, PactKind, StageId, StageKind};
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
    // Every cycle passes a feedback stage (`GraphBuilder::build` checks
    // it), so the summaries that come back around to the feedback stages
    // are those of every cycle. A feedback stage offends when one of its
    // cycles has zero delay; what its propagation reached says which other
    // offenders share a cycle with it.
    let mut offenders: Vec<(StageId, Summary, Vec<Antichain<Summary>>)> = Vec::new();
    for (v, stage) in graph.stages().iter().enumerate() {
        if stage.kind != StageKind::Feedback {
            continue;
        }
        let identity = Summary::identity(graph.stage_input_depth(StageId(v)));
        let reached = graph.propagate([(Location::Vertex(StageId(v)), identity)]);
        if let Some(s) = reached[v].elements().iter().find(|s| is_zero_delay(s)) {
            offenders.push((StageId(v), *s, reached));
        }
    }
    let share_a_cycle = |a: usize, b: usize| {
        let ((u, _, from_u), (v, _, from_v)) = (&offenders[a], &offenders[b]);
        a == b || (!from_u[v.0].is_empty() && !from_v[u.0].is_empty())
    };

    // One diagnostic per cycle, not per feedback stage on it: report an
    // offender only if no earlier-reported one shares a cycle with it.
    let mut reported: Vec<usize> = Vec::new();
    for (i, &(v, summary, _)) in offenders.iter().enumerate() {
        if reported.iter().any(|&r| share_a_cycle(r, i)) {
            continue;
        }
        reported.push(i);
        let members: Vec<&str> = (0..offenders.len())
            .filter(|&j| share_a_cycle(i, j))
            .map(|j| graph.stage_name(offenders[j].0))
            .collect();
        let witness = zero_delay_witness(&summary);
        out.push(Diagnostic {
            code: Code::ZeroDelayCycle,
            severity: Severity::Error,
            locus: Locus::stage(graph, v),
            message: format!(
                "cycle through feedback stage {} has a path summary that does \
                 not strictly advance any timestamp coordinate; a record at \
                 {witness:?} can circulate forever and the frontier never \
                 passes it",
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

    let forward = reach(n, &roots, |v| successors(graph, v));
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
    let incoming = incoming(graph);
    let backward = reach(n, &sinks, |v| {
        incoming[v].iter().map(|c| graph.connectors()[c.0].src.0 .0)
    });
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

/// The stages among `n` reachable from `sources` (themselves included),
/// stepping from a stage to the stages `next` lists for it.
fn reach<I: IntoIterator<Item = usize>>(
    n: usize,
    sources: &[usize],
    next: impl Fn(usize) -> I,
) -> Vec<bool> {
    let mut seen = vec![false; n];
    let mut queue: Vec<usize> = Vec::new();
    for &s in sources {
        if !seen[s] {
            seen[s] = true;
            queue.push(s);
        }
    }
    while let Some(v) = queue.pop() {
        for to in next(v) {
            if !seen[to] {
                seen[to] = true;
                queue.push(to);
            }
        }
    }
    seen
}

/// The stages `stage`'s connectors feed.
fn successors(graph: &LogicalGraph, stage: usize) -> impl Iterator<Item = usize> + '_ {
    graph.outgoing(StageId(stage)).map(|(_, c)| c.dst.0 .0)
}

// ---------------------------------------------------------------------------
// NA0003: unreachable notification (§2.3)
// ---------------------------------------------------------------------------

fn unreachable_notifications(graph: &LogicalGraph, out: &mut Vec<Diagnostic>) {
    // Inputs start delivering at epoch 0 with all loop counters zero; one
    // propagation carries those times everywhere they can go.
    let first = |input| Timestamp::with_counters(0, &vec![0; graph.stage_input_depth(input)]);
    let starts: Vec<_> = graph
        .input_stages()
        .map(|input| (Location::Vertex(input), first(input)))
        .collect();
    let reached = graph.propagate(starts.iter().copied());
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
        // At the input itself through the empty path, or anywhere else
        // through what the inputs' first times reach.
        let at = Location::Vertex(*stage);
        let reachable = starts
            .iter()
            .any(|(input, t0)| *input == at && t0.less_equal(time))
            || reached[graph.location_index(at)].is_some_and(|t| t.less_equal(time));
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
            let reached = reach(graph.stages().len(), &[ingress.0], |v| successors(graph, v));
            let escapes = egresses.iter().any(|egress| reached[egress.0]);
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
    let mut local: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ci, c) in graph.connectors().iter().enumerate() {
        if graph.connector_pact(ConnectorId(ci)) == PactKind::Pipeline {
            local[c.src.0 .0].push(c.dst.0 .0);
        }
    }
    let reaches = |from: usize, to: usize| reach(n, &[from], |u| local[u].iter().copied())[to];

    // Shortest local cycle through each stage below the bound, by BFS.
    let mut flagged: Vec<(usize, usize)> = Vec::new(); // (stage, cycle length)
    for v in 0..n {
        if let Some(len) = short_cycle(&local, v, config.reentrancy_bound) {
            flagged.push((v, len));
        }
    }

    // Report each cycle once, at its lowest-numbered member.
    let mut reported: Vec<usize> = Vec::new();
    for &(v, len) in &flagged {
        let duplicate = reported.iter().any(|&r| reaches(r, v) && reaches(v, r));
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

/// Length (in arcs) of the shortest cycle through `v` over the successor
/// lists `next`, if it is shorter than `bound`. The search stops at that
/// depth, so it costs what the stages within `bound` arcs of `v` do.
fn short_cycle(next: &[Vec<usize>], v: usize, bound: usize) -> Option<usize> {
    let mut seen = std::collections::HashSet::from([v]);
    let mut queue = std::collections::VecDeque::from([(v, 0)]);
    while let Some((u, dist)) = queue.pop_front() {
        if dist + 1 >= bound {
            return None;
        }
        for &b in &next[u] {
            if b == v {
                return Some(dist + 1);
            }
            if seen.insert(b) {
                queue.push_back((b, dist + 1));
            }
        }
    }
    None
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
fn partition_alignment(graph: &LogicalGraph, incoming: &[Vec<ConnectorId>]) -> Vec<bool> {
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
            let ok = incoming[v]
                .iter()
                .all(|&ci| match graph.connector_pact(ci) {
                    PactKind::Exchange | PactKind::Broadcast => true,
                    PactKind::Pipeline => aligned[graph.connectors()[ci.0].src.0 .0],
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
    let incoming = incoming(graph);
    let aligned = partition_alignment(graph, &incoming);

    // Violation: a stage that keys one input by exchange while another
    // input arrives pipelined from a worker-variant source. The exchanged
    // records land on the key's worker; the pipelined records stay wherever
    // they were produced — so whether the two meet depends on the worker
    // count and placement, not on the data.
    for into_v in &incoming {
        let has_exchange = into_v
            .iter()
            .any(|&ci| graph.connector_pact(ci) == PactKind::Exchange);
        if !has_exchange {
            continue;
        }
        for &ci in into_v {
            let c = &graph.connectors()[ci.0];
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
    let aligned = partition_alignment(graph, &incoming(graph));
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

/// Each stage's incoming connectors, listed once so walks need not
/// rescan every connector per stage.
fn incoming(graph: &LogicalGraph) -> Vec<Vec<ConnectorId>> {
    let mut lists = vec![Vec::new(); graph.stages().len()];
    for (i, c) in graph.connectors().iter().enumerate() {
        lists[c.dst.0 .0].push(ConnectorId(i));
    }
    lists
}
