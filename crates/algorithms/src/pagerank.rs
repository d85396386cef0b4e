//! PageRank (§6.1): three implementations with different partitionings.
//!
//! * [`pagerank_vertex`] — "Naiad Vertex": edges partitioned by source
//!   vertex; one exchange per iteration (30 lines in the paper).
//! * [`pagerank_edge`] — "Naiad Edge": edges partitioned over a 2-D grid
//!   keyed by `(src block, dst block)` (the paper uses a space-filling
//!   curve with the same intent): each rank share travels to one grid
//!   *row* and each partial sum down one *column*, trading an extra stage
//!   for less data movement on skewed graphs — the idea behind
//!   PowerGraph's vertex cuts.
//! * [`pagerank_pregel`] — the same computation on the Pregel port
//!   (38 lines in the paper).
//!
//! All variants run a fixed number of synchronous iterations, using
//! notifications as the per-iteration barrier, and emit `(node, rank)`
//! after the final iteration, once per epoch.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use naiad::dataflow::{InputPort, Notify, OutputPort};
use naiad::runtime::Pact;
use naiad::{Stream, Timestamp};
use naiad_operators::prelude::*;
use naiad_operators::{hash_of, KeyMap};
use naiad_pregel::{pregel, Compute, VertexProgram};

const DAMPING: f64 = 0.85;

fn iteration_of(time: &Timestamp) -> u64 {
    *time
        .counters
        .as_slice()
        .last()
        .expect("loop times carry an iteration counter")
}

/// Vertex-partitioned PageRank over the edges of each epoch.
pub fn pagerank_vertex(edges: &Stream<(u64, u64)>, iterations: u64) -> Stream<(u64, f64)> {
    let mut scope = edges.scope();
    let lc = scope.loop_context(edges.context());
    let entered = lc.enter(edges);
    let (handle, cycle) = lc.feedback::<(u64, f64)>(Some(iterations + 1));

    struct Node {
        rank: f64,
        edges: Vec<u64>,
    }
    #[derive(Default)]
    struct Run {
        nodes: KeyMap<u64, Node>,
        sums: KeyMap<u64, KeyMap<u64, f64>>,
    }
    fn new_node() -> Node {
        Node {
            rank: 1.0,
            edges: Vec::new(),
        }
    }

    let out: Stream<(u64, f64)> = entered.binary_notify(
        &cycle,
        Pact::exchange(|(src, _): &(u64, u64)| hash_of(src)),
        Pact::exchange(|(n, _): &(u64, f64)| hash_of(n)),
        "PageRankVertex",
        move |_info| {
            let runs: Rc<RefCell<KeyMap<u64, Run>>> = Rc::default();
            let recv_runs = runs.clone();
            (
                move |edges: &mut InputPort<(u64, u64)>,
                      ranks: &mut InputPort<(u64, f64)>,
                      _output: &mut OutputPort<(u64, f64)>,
                      notify: &Notify| {
                    let mut runs = recv_runs.borrow_mut();
                    edges.for_each(|time, data| {
                        notify.notify_at(time);
                        let run = runs.entry(time.epoch).or_default();
                        for (src, dst) in data {
                            run.nodes
                                .entry(src)
                                .or_insert_with(new_node)
                                .edges
                                .push(dst);
                        }
                    });
                    ranks.for_each(|time, data| {
                        let run = runs.entry(time.epoch).or_default();
                        let sums = run.sums.entry(iteration_of(&time)).or_default();
                        for (n, v) in data {
                            *sums.entry(n).or_insert(0.0) += v;
                        }
                    });
                },
                move |time: Timestamp, output: &mut OutputPort<(u64, f64)>, notify: &Notify| {
                    let mut runs = runs.borrow_mut();
                    let Some(run) = runs.get_mut(&time.epoch) else {
                        return;
                    };
                    let iter = iteration_of(&time);
                    if iter > 0 {
                        let sums = run.sums.remove(&iter).unwrap_or_default();
                        // Destinations with no out-edges materialize on
                        // first contribution.
                        for n in sums.keys() {
                            run.nodes.entry(*n).or_insert_with(new_node);
                        }
                        for (node, data) in run.nodes.iter_mut() {
                            data.rank =
                                (1.0 - DAMPING) + DAMPING * sums.get(node).copied().unwrap_or(0.0);
                        }
                    }
                    let mut session = output.session(time);
                    if iter == iterations {
                        for (node, data) in &run.nodes {
                            session.give((*node, data.rank));
                        }
                        runs.remove(&time.epoch);
                    } else {
                        for data in run.nodes.values() {
                            if !data.edges.is_empty() {
                                let share = data.rank / data.edges.len() as f64;
                                for &dst in &data.edges {
                                    session.give((dst, share));
                                }
                            }
                        }
                        // Self-scheduled barrier: the next iteration's
                        // notification fires even if no shares flow.
                        if let Some(next) = time.incremented() {
                            notify.notify_at(next);
                        }
                    }
                },
            )
        },
    );

    handle.connect(&out);
    filter_final(&lc, &out, iterations)
}

/// Keeps only records of the final loop iteration and leaves the loop.
///
/// Intermediate shares circulate on the feedback edge *and* reach the
/// egress; this filter is what separates "rank shares" from "final ranks"
/// without a second output port.
fn filter_final(
    lc: &naiad::dataflow::LoopContext,
    stream: &Stream<(u64, f64)>,
    iterations: u64,
) -> Stream<(u64, f64)> {
    let only_final = stream.unary(Pact::Pipeline, "FinalIteration", move |_info| {
        move |input: &mut InputPort<(u64, f64)>, output: &mut OutputPort<(u64, f64)>| {
            input.for_each(|time, data| {
                if iteration_of(&time) == iterations {
                    output.session(time).give_vec(data);
                }
            });
        }
    });
    lc.leave(&only_final)
}

/// Edge-partitioned PageRank on a `rows × cols` worker grid.
pub fn pagerank_edge(
    edges: &Stream<(u64, u64)>,
    iterations: u64,
    workers: usize,
) -> Stream<(u64, f64)> {
    let rows = (workers as f64).sqrt().floor().max(1.0) as u64;
    let cols = (workers as u64 / rows).max(1);

    let mut scope = edges.scope();
    let lc = scope.loop_context(edges.context());

    // Place each edge in its grid cell.
    let placed = edges.map(move |(src, dst)| {
        let cell = (hash_of(&src) % rows) * cols + (hash_of(&dst) % cols);
        (cell, src, dst)
    });
    let entered = lc.enter(&placed);

    // Node owners learn degrees (and the node set) at iteration 0.
    let degrees = entered
        .flat_map(|(_, src, dst)| vec![(src, 1u64), (dst, 0u64)])
        .reduce(|| 0u64, |_n, acc, d| *acc += d);

    // Feedback carries partial sums back to node owners.
    let (handle, cycle) = lc.feedback::<(u64, f64)>(Some(iterations + 1));

    // Stage A — node owners: apply sums, emit one share per (src, column)
    // across the source's grid row, or final ranks tagged cell = u64::MAX.
    let shares: Stream<(u64, u64, f64)> = degrees.binary_notify(
        &cycle,
        Pact::exchange(|(n, _): &(u64, u64)| hash_of(n)),
        Pact::exchange(|(n, _): &(u64, f64)| hash_of(n)),
        "PageRankNodes",
        move |_info| {
            #[derive(Default)]
            struct Run {
                nodes: KeyMap<u64, (f64, u64)>,
                sums: KeyMap<u64, KeyMap<u64, f64>>,
            }
            let runs: Rc<RefCell<KeyMap<u64, Run>>> = Rc::default();
            let recv_runs = runs.clone();
            (
                move |degrees: &mut InputPort<(u64, u64)>,
                      partials: &mut InputPort<(u64, f64)>,
                      _output: &mut OutputPort<(u64, u64, f64)>,
                      notify: &Notify| {
                    let mut runs = recv_runs.borrow_mut();
                    degrees.for_each(|time, data| {
                        notify.notify_at(time);
                        let run = runs.entry(time.epoch).or_default();
                        for (n, deg) in data {
                            let e = run.nodes.entry(n).or_insert((1.0, 0));
                            e.1 += deg;
                        }
                    });
                    partials.for_each(|time, data| {
                        let run = runs.entry(time.epoch).or_default();
                        let sums = run.sums.entry(iteration_of(&time)).or_default();
                        for (n, v) in data {
                            *sums.entry(n).or_insert(0.0) += v;
                        }
                    });
                },
                move |time: Timestamp,
                      output: &mut OutputPort<(u64, u64, f64)>,
                      notify: &Notify| {
                    let mut runs = runs.borrow_mut();
                    let Some(run) = runs.get_mut(&time.epoch) else {
                        return;
                    };
                    let iter = iteration_of(&time);
                    if iter > 0 {
                        let sums = run.sums.remove(&iter).unwrap_or_default();
                        for (node, state) in run.nodes.iter_mut() {
                            state.0 =
                                (1.0 - DAMPING) + DAMPING * sums.get(node).copied().unwrap_or(0.0);
                        }
                    }
                    let mut session = output.session(time);
                    if iter == iterations {
                        for (node, (rank, _)) in &run.nodes {
                            session.give((u64::MAX, *node, *rank));
                        }
                        runs.remove(&time.epoch);
                    } else {
                        for (node, (rank, degree)) in &run.nodes {
                            if *degree > 0 {
                                let share = rank / *degree as f64;
                                let row = hash_of(node) % rows;
                                for col in 0..cols {
                                    session.give((row * cols + col, *node, share));
                                }
                            }
                        }
                        if let Some(next) = time.incremented() {
                            notify.notify_at(next);
                        }
                    }
                },
            )
        },
    );

    // Stage B — grid cells: scatter shares along local edges; one partial
    // sum per destination per iteration flows back to the node owners.
    let partials: Stream<(u64, f64)> = entered.binary_notify(
        &shares,
        Pact::exchange(|(cell, _, _): &(u64, u64, u64)| *cell),
        Pact::exchange(|(cell, _, _): &(u64, u64, f64)| *cell),
        "PageRankCells",
        move |_info| {
            #[derive(Default)]
            struct Cell {
                by_src: KeyMap<u64, Vec<u64>>,
                partial: KeyMap<u64, KeyMap<u64, f64>>,
            }
            let cells: Rc<RefCell<KeyMap<u64, Cell>>> = Rc::default();
            let recv_cells = cells.clone();
            (
                move |edges: &mut InputPort<(u64, u64, u64)>,
                      shares: &mut InputPort<(u64, u64, f64)>,
                      _output: &mut OutputPort<(u64, f64)>,
                      notify: &Notify| {
                    let mut cells = recv_cells.borrow_mut();
                    edges.for_each(|time, data| {
                        let cell = cells.entry(time.epoch).or_default();
                        for (_c, src, dst) in data {
                            cell.by_src.entry(src).or_default().push(dst);
                        }
                    });
                    shares.for_each(|time, data| {
                        let cell = cells.entry(time.epoch).or_default();
                        let iter = iteration_of(&time);
                        let first = !cell.partial.contains_key(&iter);
                        let mut any = false;
                        let partial = cell.partial.entry(iter).or_default();
                        for (grid_cell, src, share) in data {
                            if grid_cell == u64::MAX {
                                continue; // Final ranks bypass this stage.
                            }
                            any = true;
                            for dst in cell.by_src.get(&src).into_iter().flatten() {
                                *partial.entry(*dst).or_insert(0.0) += share;
                            }
                        }
                        if first && any {
                            notify.notify_at(time);
                        }
                    });
                },
                move |time: Timestamp, output: &mut OutputPort<(u64, f64)>, _notify: &Notify| {
                    let mut cells = cells.borrow_mut();
                    let Some(cell) = cells.get_mut(&time.epoch) else {
                        return;
                    };
                    let iter = iteration_of(&time);
                    if let Some(partial) = cell.partial.remove(&iter) {
                        output.session(time).give_iterator(partial);
                    }
                    if iter >= iterations {
                        cells.remove(&time.epoch);
                    }
                },
            )
        },
    );

    handle.connect(&partials);
    // Final ranks leave via the shares stream, tagged with cell u64::MAX.
    let finals = shares.filter_map(|(cell, node, rank)| (cell == u64::MAX).then_some((node, rank)));
    lc.leave(&finals)
}

/// PageRank as a Pregel vertex program ("Naiad Pregel" in Figure 7a).
pub struct PageRankProgram {
    /// Total iterations to run.
    pub iterations: u64,
}

impl VertexProgram for PageRankProgram {
    type State = f64;
    type Msg = f64;
    fn compute(&mut self, ctx: &mut Compute<'_, Self>) {
        if ctx.superstep() > 0 {
            let sum: f64 = ctx.messages().iter().sum();
            *ctx.state_mut() = (1.0 - DAMPING) + DAMPING * sum;
        }
        if ctx.superstep() < self.iterations {
            let share = *ctx.state() / ctx.edges().len().max(1) as f64;
            ctx.send_to_all(share);
        } else {
            ctx.vote_to_halt();
        }
    }
    fn combine(&self, a: f64, b: f64) -> Option<f64> {
        Some(a + b)
    }
}

/// Runs PageRank through the Pregel port; seeds are
/// `(node, (1.0, out-neighbours))`.
pub fn pagerank_pregel(
    seeds: &Stream<(u64, (f64, Vec<u64>))>,
    iterations: u64,
) -> Stream<(u64, f64)> {
    pregel(seeds, PageRankProgram { iterations }, iterations)
}

/// Sequential reference implementation for validation.
pub fn pagerank_reference(edges: &[(u64, u64)], iterations: u64) -> HashMap<u64, f64> {
    let mut adjacency: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut nodes: std::collections::HashSet<u64> = Default::default();
    for &(a, b) in edges {
        adjacency.entry(a).or_default().push(b);
        nodes.insert(a);
        nodes.insert(b);
    }
    let mut ranks: HashMap<u64, f64> = nodes.iter().map(|&n| (n, 1.0)).collect();
    for _ in 0..iterations {
        let mut sums: HashMap<u64, f64> = HashMap::new();
        for (&src, dsts) in &adjacency {
            let share = ranks[&src] / dsts.len() as f64;
            for &dst in dsts {
                *sums.entry(dst).or_insert(0.0) += share;
            }
        }
        for (&n, r) in ranks.iter_mut() {
            *r = (1.0 - DAMPING) + DAMPING * sums.get(&n).copied().unwrap_or(0.0);
        }
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::powerlaw_graph;
    use naiad::{execute, Config};
    use std::sync::Arc;

    fn run_vertex(workers: usize, edges: Vec<(u64, u64)>, iters: u64) -> HashMap<u64, f64> {
        let edges = Arc::new(edges);
        let results = execute(Config::single_process(workers), move |worker| {
            let (mut input, captured) = worker.dataflow(|scope| {
                let (input, stream) = scope.new_input::<(u64, u64)>();
                (input, pagerank_vertex(&stream, iters).capture())
            });
            let peers = worker.peers();
            for (i, e) in edges.iter().enumerate() {
                if i % peers == worker.index() {
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

    fn run_edge(workers: usize, edges: Vec<(u64, u64)>, iters: u64) -> HashMap<u64, f64> {
        let edges = Arc::new(edges);
        let results = execute(Config::single_process(workers), move |worker| {
            let peers = worker.peers();
            let (mut input, captured) = worker.dataflow(|scope| {
                let (input, stream) = scope.new_input::<(u64, u64)>();
                (input, pagerank_edge(&stream, iters, peers).capture())
            });
            for (i, e) in edges.iter().enumerate() {
                if i % peers == worker.index() {
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

    fn assert_close(a: &HashMap<u64, f64>, b: &HashMap<u64, f64>, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: node sets differ");
        for (n, r) in a {
            let rb = b
                .get(n)
                .unwrap_or_else(|| panic!("{what}: missing node {n}"));
            assert!(
                (r - rb).abs() < 1e-9,
                "{what}: rank mismatch at {n}: {r} vs {rb}"
            );
        }
    }

    #[test]
    fn vertex_variant_matches_reference() {
        let edges = powerlaw_graph(50, 200, 11);
        let reference = pagerank_reference(&edges, 5);
        for workers in [1, 2] {
            let ours = run_vertex(workers, edges.clone(), 5);
            assert_close(&ours, &reference, &format!("vertex w={workers}"));
        }
    }

    #[test]
    fn edge_variant_matches_reference() {
        let edges = powerlaw_graph(50, 200, 12);
        let reference = pagerank_reference(&edges, 4);
        for workers in [1, 4] {
            let ours = run_edge(workers, edges.clone(), 4);
            assert_close(&ours, &reference, &format!("edge w={workers}"));
        }
    }

    #[test]
    fn pregel_variant_matches_reference() {
        let edges = powerlaw_graph(40, 150, 13);
        let reference = pagerank_reference(&edges, 4);
        let edges_in = Arc::new(edges);
        let results = execute(Config::single_process(2), move |worker| {
            let (mut seeds, captured) = worker.dataflow(|scope| {
                let (input, seed_stream) = scope.new_input::<(u64, (f64, Vec<u64>))>();
                (input, pagerank_pregel(&seed_stream, 4).capture())
            });
            if worker.index() == 0 {
                let mut adjacency: HashMap<u64, Vec<u64>> = HashMap::new();
                let mut nodes: std::collections::HashSet<u64> = Default::default();
                for &(a, b) in edges_in.iter() {
                    adjacency.entry(a).or_default().push(b);
                    nodes.insert(a);
                    nodes.insert(b);
                }
                for n in nodes {
                    seeds.send((n, (1.0, adjacency.remove(&n).unwrap_or_default())));
                }
            }
            seeds.close();
            worker.step_until_done();
            let result = captured.borrow().clone();
            result
        })
        .unwrap();
        let ours: HashMap<u64, f64> = results.into_iter().flatten().flat_map(|(_, d)| d).collect();
        assert_close(&ours, &reference, "pregel");
    }
}
