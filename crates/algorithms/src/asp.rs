//! Approximate shortest paths (Table 1): exact BFS distances from a small
//! sample of source nodes, propagated asynchronously.
//!
//! The paper's ASP computes distances from sampled sources to approximate
//! all-pairs shortest paths; like WCC it benefits from Naiad's cheap
//! iterations because the frontier becomes very sparse near convergence.

use std::collections::HashMap;

use naiad::dataflow::{InputPort, OutputPort};
use naiad::runtime::Pact;
use naiad::Stream;
use naiad_operators::prelude::*;
use naiad_operators::{hash_of, KeyMap};

/// Distances from each of `sources` to every reachable node, per epoch:
/// emits `(node, source, distance)` improvements; the minimum per
/// `(node, source)` is the true distance. Edges are treated as undirected.
pub fn approximate_shortest_paths(
    edges: &Stream<(u64, u64)>,
    sources: Vec<u64>,
) -> Stream<(u64, u64, u64)> {
    let mut scope = edges.scope();
    let sym = edges.flat_map(|(a, b)| vec![(a, b), (b, a)]);

    let lc = scope.loop_context(edges.context());
    let entered = lc.enter(&sym);
    // Messages: (node, source, candidate distance).
    let (handle, cycle) = lc.feedback::<(u64, u64, u64)>(None);

    let improvements: Stream<(u64, u64, u64)> = entered.binary(
        &cycle,
        Pact::exchange(|(a, _): &(u64, u64)| hash_of(a)),
        Pact::exchange(|(n, _, _): &(u64, u64, u64)| hash_of(n)),
        "AspPropagate",
        move |_info| {
            let mut adjacency: KeyMap<u64, Vec<u64>> = KeyMap::default();
            // dist[(node, source)] = best known distance.
            let mut dist: KeyMap<(u64, u64), u64> = KeyMap::default();
            move |edges: &mut InputPort<(u64, u64)>,
                  msgs: &mut InputPort<(u64, u64, u64)>,
                  output: &mut OutputPort<(u64, u64, u64)>| {
                edges.for_each(|time, data| {
                    let mut session = output.session(time);
                    for (a, b) in data {
                        adjacency.entry(a).or_default().push(b);
                        if sources.contains(&a) && !dist.contains_key(&(a, a)) {
                            // Seed the source itself (reported as an
                            // improvement so it reaches the output) and
                            // offer distance 1 to the new neighbour.
                            dist.insert((a, a), 0);
                            session.give((a, a, 0));
                        }
                        if sources.contains(&a) {
                            session.give((b, a, 1));
                        }
                        // Offer every known distance through the new edge.
                        for &s in &sources {
                            if let Some(d) = dist.get(&(a, s)) {
                                session.give((b, s, d + 1));
                            }
                        }
                    }
                });
                msgs.for_each(|time, data| {
                    let mut session = output.session(time);
                    for (n, s, d) in data {
                        let best = dist.entry((n, s)).or_insert(u64::MAX);
                        if d < *best {
                            *best = d;
                            for neighbour in adjacency.get(&n).into_iter().flatten() {
                                session.give((*neighbour, s, d + 1));
                            }
                        }
                    }
                });
            }
        },
    );

    handle.connect(&improvements);
    lc.leave(&improvements)
        .map(|(n, s, d)| ((n, s), d))
        .reduce(|| u64::MAX, |_k, acc, d| *acc = (*acc).min(d))
        .map(|((n, s), d)| (n, s, d))
}

/// Sequential BFS reference.
pub fn asp_reference(edges: &[(u64, u64)], sources: &[u64]) -> HashMap<(u64, u64), u64> {
    let mut adjacency: HashMap<u64, Vec<u64>> = HashMap::new();
    for &(a, b) in edges {
        adjacency.entry(a).or_default().push(b);
        adjacency.entry(b).or_default().push(a);
    }
    let mut out = HashMap::new();
    for &s in sources {
        let mut queue = std::collections::VecDeque::from([(s, 0u64)]);
        let mut seen = std::collections::HashSet::from([s]);
        while let Some((n, d)) = queue.pop_front() {
            out.insert((n, s), d);
            for &m in adjacency.get(&n).into_iter().flatten() {
                if seen.insert(m) {
                    queue.push_back((m, d + 1));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::random_graph;
    use naiad::{execute, Config};
    use std::sync::Arc;

    #[test]
    fn matches_bfs_reference() {
        let edges = random_graph(120, 240, 21);
        let sources = vec![0, 5, 17];
        let reference = asp_reference(&edges, &sources);
        for workers in [1, 2] {
            let edges_in = Arc::new(edges.clone());
            let srcs = sources.clone();
            let results = execute(Config::single_process(workers), move |worker| {
                let srcs = srcs.clone();
                let (mut input, captured) = worker.dataflow(move |scope| {
                    let (input, stream) = scope.new_input::<(u64, u64)>();
                    (input, approximate_shortest_paths(&stream, srcs).capture())
                });
                for (i, e) in edges_in.iter().enumerate() {
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
            let mut ours: HashMap<(u64, u64), u64> = HashMap::new();
            for (_, data) in results.into_iter().flatten() {
                for (n, s, d) in data {
                    let e = ours.entry((n, s)).or_insert(d);
                    *e = (*e).min(d);
                }
            }
            assert_eq!(ours, reference, "workers={workers}");
        }
    }
}
