//! Strongly connected components (Table 1), with *nested* loop contexts.
//!
//! The algorithm is the forward–backward label partition refinement: in
//! each outer round, propagate minimum labels along forward edges and
//! along reversed edges (two inner loops); a node whose forward and
//! backward labels agree is strongly connected to that label's node and
//! settles, while edges joining nodes with different label pairs can never
//! sit inside an SCC and are discarded. Remaining edges go around the
//! outer feedback for another round. Every round settles at least the
//! component of the smallest remaining node, so the outer loop terminates.
//!
//! This is the paper's point about cheap iteration: the inner loops are
//! asynchronous min propagations and the outer loop re-launches them on an
//! ever-shrinking edge set — 161 lines of non-library code in the paper,
//! and the only Table 1 workload that needs loop nesting.

use std::collections::HashMap;

use naiad::dataflow::{InputPort, LoopContext, OutputPort};
use naiad::runtime::Pact;
use naiad::{Stream, Timestamp};
use naiad_operators::prelude::*;
use naiad_operators::{hash_of, KeyMap};

/// Key identifying one propagation instance: (epoch, outer round).
fn round_key(time: &Timestamp) -> (u64, u64) {
    (time.epoch, time.counters.as_slice()[0])
}

/// Asynchronous min-label propagation along `edges` (directed), scoped to
/// each (epoch, outer round): returns each node's final label once per
/// round. Runs in an inner loop nested inside `outer`.
fn propagate_min(outer: &LoopContext, edges: &Stream<(u64, u64)>) -> Stream<(u64, u64)> {
    let mut scope = edges.scope();
    let lc = scope.loop_context(outer.context());
    let entered = lc.enter(edges);
    let (handle, cycle) = lc.feedback::<(u64, u64)>(None);

    let improvements: Stream<(u64, u64)> = entered.binary(
        &cycle,
        Pact::exchange(|(a, _): &(u64, u64)| hash_of(a)),
        Pact::exchange(|(n, _): &(u64, u64)| hash_of(n)),
        "SccPropagate",
        |_info| {
            // State per (epoch, outer round): this operator is shared by
            // every outer iteration, so scoping by round is what makes the
            // nested loop correct.
            let mut adjacency: KeyMap<(u64, u64), KeyMap<u64, Vec<u64>>> = KeyMap::default();
            let mut labels: KeyMap<(u64, u64), KeyMap<u64, u64>> = KeyMap::default();
            move |edges: &mut InputPort<(u64, u64)>,
                  msgs: &mut InputPort<(u64, u64)>,
                  output: &mut OutputPort<(u64, u64)>| {
                edges.for_each(|time, data| {
                    let key = round_key(&time);
                    let adj = adjacency.entry(key).or_default();
                    let lab = labels.entry(key).or_default();
                    let mut session = output.session(time);
                    for (a, b) in data {
                        adj.entry(a).or_default().push(b);
                        let la = *lab.entry(a).or_insert(a);
                        session.give((b, la));
                        session.give((a, la));
                        session.give((b, b));
                    }
                });
                msgs.for_each(|time, data| {
                    let key = round_key(&time);
                    let adj = adjacency.entry(key).or_default();
                    let lab = labels.entry(key).or_default();
                    let mut session = output.session(time);
                    for (n, candidate) in data {
                        let label = lab.entry(n).or_insert(n);
                        if candidate < *label {
                            *label = candidate;
                            for neighbour in adj.get(&n).into_iter().flatten() {
                                session.give((*neighbour, candidate));
                            }
                        }
                    }
                });
            }
        },
    );

    handle.connect(&improvements);
    // Collapse the round's churn to the final labels at (epoch, round).
    lc.leave(&improvements)
        .reduce(|| u64::MAX, |_n, acc, l| *acc = (*acc).min(l))
}

/// Strongly connected components: returns `(node, component)` per epoch,
/// where the component id is its smallest member. `max_rounds` bounds the
/// outer refinement (each round settles at least one component; the node
/// count is always a safe bound).
pub fn strongly_connected_components(
    edges: &Stream<(u64, u64)>,
    max_rounds: u64,
) -> Stream<(u64, u64)> {
    let mut scope = edges.scope();
    let lc = scope.loop_context(edges.context());
    let entered = lc.enter(edges);
    let (handle, cycle) = lc.feedback::<(u64, u64)>(Some(max_rounds));
    let round_edges = naiad::dataflow::ops::concatenate(&entered, &cycle);

    // Two inner propagations: forward and (on reversed edges) backward.
    let forward = propagate_min(&lc, &round_edges);
    let backward = propagate_min(&lc, &round_edges.map(|(a, b)| (b, a)));

    // Pair each node's labels: (node, (fwd, bwd)). Per-time join — both
    // streams sit at (epoch, round).
    let pairs: Stream<(u64, u64, u64)> = forward.join(&backward, |n, f, b| (*n, *f, *b));

    // Settled nodes: forward label equals backward label.
    let settled = pairs.filter_map(|(n, f, b)| (f == b).then_some((n, f)));

    // Surviving edges: both endpoints unsettled with identical label
    // pairs. Per-time join of edges against pairs, twice.
    let by_src = round_edges
        .map(|(a, b)| (a, b))
        .join(&pairs.map(|(n, f, b)| (n, (f, b))), |a, b, fb| {
            (*b, (*a, fb.0, fb.1))
        });
    let survivors = by_src.join(
        &pairs.map(|(n, f, b)| (n, (f, b))),
        |b, (a, fa, ba), (fb, bb)| {
            if fa == fb && ba == bb && fa != ba {
                (*a, *b)
            } else {
                (u64::MAX, u64::MAX)
            }
        },
    );
    let survivors = survivors.filter(|&(a, _)| a != u64::MAX);

    // Unsettled nodes whose edges were all discarded must still settle in
    // a later round: keep them alive as self-loops (a self-loop never
    // changes a node's labels, and a node with only a self-loop settles as
    // its own singleton component next round).
    let keepalive = pairs.filter_map(|(n, f, b)| (f != b).then_some((n, n)));
    let survivors = naiad::dataflow::ops::concatenate(&survivors, &keepalive);

    handle.connect(&survivors);
    lc.leave(&settled)
}

/// Sequential Tarjan reference (iterative), components labelled by their
/// smallest member.
pub fn scc_reference(edges: &[(u64, u64)]) -> HashMap<u64, u64> {
    let mut adjacency: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut nodes: Vec<u64> = Vec::new();
    for &(a, b) in edges {
        adjacency.entry(a).or_default().push(b);
        for n in [a, b] {
            if !adjacency.contains_key(&n) {
                adjacency.entry(n).or_default();
            }
        }
    }
    let mut keys: Vec<u64> = adjacency.keys().copied().collect();
    keys.sort_unstable();
    nodes.extend(keys);

    // Iterative Tarjan.
    #[derive(Default, Clone)]
    struct Info {
        index: Option<usize>,
        lowlink: usize,
        on_stack: bool,
    }
    let mut info: HashMap<u64, Info> = nodes.iter().map(|&n| (n, Info::default())).collect();
    let mut stack: Vec<u64> = Vec::new();
    let mut next_index = 0usize;
    let mut out: HashMap<u64, u64> = HashMap::new();

    for &root in &nodes {
        if info[&root].index.is_some() {
            continue;
        }
        // Explicit DFS stack: (node, child cursor).
        let mut dfs: Vec<(u64, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut cursor)) = dfs.last_mut() {
            if *cursor == 0 {
                let e = info.get_mut(&v).expect("known node");
                e.index = Some(next_index);
                e.lowlink = next_index;
                e.on_stack = true;
                next_index += 1;
                stack.push(v);
            }
            let children = adjacency.get(&v).cloned().unwrap_or_default();
            if let Some(&w) = children.get(*cursor) {
                *cursor += 1;
                match info[&w].index {
                    None => dfs.push((w, 0)),
                    Some(wi) if info[&w].on_stack => {
                        let low = info[&v].lowlink.min(wi);
                        info.get_mut(&v).expect("known").lowlink = low;
                    }
                    _ => {}
                }
            } else {
                // Post-order: pop component if root, fold lowlink upward.
                if info[&v].lowlink == info[&v].index.expect("visited") {
                    let mut members = Vec::new();
                    loop {
                        let w = stack.pop().expect("stack nonempty");
                        info.get_mut(&w).expect("known").on_stack = false;
                        members.push(w);
                        if w == v {
                            break;
                        }
                    }
                    let label = members.iter().min().copied().expect("nonempty");
                    for w in members {
                        out.insert(w, label);
                    }
                }
                dfs.pop();
                if let Some(&mut (parent, _)) = dfs.last_mut() {
                    let low = info[&parent].lowlink.min(info[&v].lowlink);
                    info.get_mut(&parent).expect("known").lowlink = low;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use naiad::{execute, Config};
    use std::sync::Arc;

    fn run_scc(workers: usize, edges: Vec<(u64, u64)>) -> HashMap<u64, u64> {
        let edges = Arc::new(edges);
        let results = execute(Config::single_process(workers), move |worker| {
            let (mut input, captured) = worker.dataflow(|scope| {
                let (input, stream) = scope.new_input::<(u64, u64)>();
                (input, strongly_connected_components(&stream, 64).capture())
            });
            for (i, e) in edges.iter().enumerate() {
                if i % worker.peers() == worker.index() {
                    input.send(*e);
                }
            }
            input.close();
            worker.step_until_done();
            let result = captured.borrow().clone();
            result
        })
        .unwrap();
        results.into_iter().flatten().flat_map(|(_, d)| d).collect()
    }

    #[test]
    fn two_cycles_and_a_bridge() {
        // 0→1→2→0 and 3→4→3, bridged by 2→3.
        let edges = vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 3), (2, 3)];
        let reference = scc_reference(&edges);
        for workers in [1, 2] {
            let ours = run_scc(workers, edges.clone());
            assert_eq!(ours, reference, "workers={workers}");
        }
    }

    #[test]
    fn matches_tarjan_on_random_graphs() {
        for seed in [1u64, 2, 3] {
            let edges = crate::datasets::random_graph(40, 80, seed);
            let reference = scc_reference(&edges);
            let ours = run_scc(2, edges);
            assert_eq!(ours, reference, "seed={seed}");
        }
    }

    #[test]
    fn dag_yields_singletons() {
        let edges = vec![(0, 1), (1, 2), (0, 2)];
        let ours = run_scc(1, edges.clone());
        assert_eq!(ours, scc_reference(&edges));
        assert!(
            ours.iter().all(|(n, c)| n == c),
            "DAG nodes are their own SCCs"
        );
    }
}
