//! A Pregel port as a Naiad library (§4.2).
//!
//! The paper bases its Pregel implementation on a custom vertex with
//! several strongly typed inputs and outputs connected via feedback edges.
//! This crate does the same: a vertex stage inside a loop context receives
//! graph *seeds* through the ingress and *messages* through the feedback
//! edge; notifications delimit supersteps (a superstep is one loop
//! iteration, and `OnNotify` at iteration `s` fires only when every
//! message of superstep `s` has been delivered — the bulk-synchronous
//! barrier for free); state updates leave through the egress.
//!
//! Message *combiners* are applied at the sending vertex, and each epoch's
//! state is reclaimed when its run ends.
//!
//! # Examples
//!
//! Single-source shortest paths, the classic Pregel program:
//!
//! ```
//! use naiad::{execute, Config};
//! use naiad_pregel::{pregel, Compute, VertexProgram};
//!
//! struct ShortestPaths;
//! impl VertexProgram for ShortestPaths {
//!     type State = u64; // distance from source
//!     type Msg = u64;
//!     fn compute(&mut self, ctx: &mut Compute<'_, Self>) {
//!         let best = ctx.messages().iter().copied().min();
//!         let improved = match best {
//!             Some(d) if d < *ctx.state() => {
//!                 *ctx.state_mut() = d;
//!                 true
//!             }
//!             _ => ctx.superstep() == 0 && *ctx.state() == 0,
//!         };
//!         if improved {
//!             let d = *ctx.state();
//!             ctx.send_to_all(d + 1);
//!         }
//!         ctx.vote_to_halt();
//!     }
//!     fn combine(&self, a: u64, b: u64) -> Option<u64> {
//!         Some(a.min(b))
//!     }
//! }
//!
//! let results = execute(Config::single_process(2), |worker| {
//!     let (mut seeds, captured) = worker.dataflow(|scope| {
//!         let (input, seed_stream) = scope.new_input::<(u64, (u64, Vec<u64>))>();
//!         let final_states = pregel(&seed_stream, ShortestPaths, 10);
//!         (input, final_states.capture())
//!     });
//!     if worker.index() == 0 {
//!         // A path 0 → 1 → 2; vertex 0 is the source (distance 0).
//!         seeds.send((0, (0, vec![1])));
//!         seeds.send((1, (u64::MAX, vec![2])));
//!         seeds.send((2, (u64::MAX, vec![])));
//!     }
//!     seeds.close();
//!     worker.step_until_done();
//!     let result = captured.borrow().clone();
//!     result
//! })
//! .unwrap();
//! let mut dists: Vec<_> = results.into_iter().flatten().flat_map(|(_, d)| d).collect();
//! dists.sort();
//! assert_eq!(dists, vec![(0, 0), (1, 1), (2, 2)]);
//! ```

#![forbid(unsafe_code)]
// Dataflow state cells are inherently nested (`Rc<RefCell<KeyMap<…>>>`);
// naming each shape would add indirection without clarity.
#![allow(clippy::type_complexity)]

use std::cell::RefCell;
use std::rc::Rc;

use naiad::dataflow::{InputPort, Notify, OutputPort};
use naiad::runtime::Pact;
use naiad::{Stream, Timestamp};
use naiad_operators::prelude::*;
use naiad_operators::{hash_of, KeyMap};
use naiad_wire::{ExchangeData, Wire, WireError};

/// A Pregel vertex program.
pub trait VertexProgram: Sized + 'static {
    /// Per-vertex state (Pregel's vertex value).
    type State: ExchangeData;
    /// Messages exchanged along edges.
    type Msg: ExchangeData;

    /// Runs once per active vertex per superstep. Following Pregel's
    /// semantics, every vertex is active at superstep 0 and stays active
    /// until it calls [`Compute::vote_to_halt`]; a message reactivates a
    /// halted vertex for the superstep it is delivered in.
    fn compute(&mut self, ctx: &mut Compute<'_, Self>);

    /// Combines two messages addressed to the same vertex (Pregel's
    /// combiner); return `None` to keep both.
    fn combine(&self, _a: Self::Msg, _b: Self::Msg) -> Option<Self::Msg> {
        None
    }
}

/// The per-vertex, per-superstep execution context.
pub struct Compute<'a, P: VertexProgram> {
    superstep: u64,
    vertex: u64,
    state: &'a mut P::State,
    changed: &'a mut bool,
    halted: &'a mut bool,
    edges: &'a [u64],
    messages: &'a [P::Msg],
    outbox: &'a mut Vec<(u64, P::Msg)>,
    mutations: &'a mut Vec<Mutation>,
}

/// A topology mutation requested during a superstep, applied before the
/// next one (Pregel's graph-mutation semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mutation {
    AddEdge { from: u64, to: u64 },
    RemoveEdge { from: u64, to: u64 },
}

impl<P: VertexProgram> Compute<'_, P> {
    /// The current superstep (0-based).
    pub fn superstep(&self) -> u64 {
        self.superstep
    }

    /// This vertex's identifier.
    pub fn vertex(&self) -> u64 {
        self.vertex
    }

    /// The vertex state.
    pub fn state(&self) -> &P::State {
        self.state
    }

    /// Mutable access to the vertex state; marks it changed, so the final
    /// output reflects it.
    pub fn state_mut(&mut self) -> &mut P::State {
        *self.changed = true;
        self.state
    }

    /// Outgoing edge targets.
    pub fn edges(&self) -> &[u64] {
        self.edges
    }

    /// Messages delivered to this vertex this superstep.
    pub fn messages(&self) -> &[P::Msg] {
        self.messages
    }

    /// Sends a message, delivered at the next superstep.
    pub fn send(&mut self, target: u64, message: P::Msg) {
        self.outbox.push((target, message));
    }

    /// Sends a copy of `message` to every out-neighbour; the last
    /// neighbour consumes the original.
    pub fn send_to_all(&mut self, message: P::Msg) {
        let last = self.edges.len().saturating_sub(1);
        let mut message = Some(message);
        for (i, &e) in self.edges.iter().enumerate() {
            let msg = if i == last {
                message.take().expect("message moved once")
            } else {
                message.clone().expect("message present until last")
            };
            self.outbox.push((e, msg));
        }
    }

    /// Votes to halt: the vertex will not run again unless a message
    /// arrives for it. The computation ends when every vertex has halted
    /// and no messages are in flight.
    pub fn vote_to_halt(&mut self) {
        *self.halted = true;
    }

    /// Adds an out-edge from this vertex to `target`, visible from the
    /// next superstep (Pregel's graph mutation, which the paper's port
    /// supports through its extra inputs).
    pub fn add_edge(&mut self, target: u64) {
        self.mutations.push(Mutation::AddEdge {
            from: self.vertex,
            to: target,
        });
    }

    /// Removes every out-edge from this vertex to `target`, effective
    /// from the next superstep.
    pub fn remove_edge(&mut self, target: u64) {
        self.mutations.push(Mutation::RemoveEdge {
            from: self.vertex,
            to: target,
        });
    }
}

/// Loop payload: either a message or a state report leaving the loop.
#[derive(Clone, Debug)]
enum Payload<M, S> {
    /// `(target, message)` riding the feedback edge.
    Msg(u64, M),
    /// `(vertex, superstep, state)` heading for the egress.
    State(u64, u64, S),
}

impl<M: Wire, S: Wire> Wire for Payload<M, S> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Payload::Msg(t, m) => {
                buf.push(0);
                t.encode(buf);
                m.encode(buf);
            }
            Payload::State(v, s, st) => {
                buf.push(1);
                v.encode(buf);
                s.encode(buf);
                st.encode(buf);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let (&tag, rest) = input.split_first().ok_or(WireError::UnexpectedEof)?;
        *input = rest;
        match tag {
            0 => Ok(Payload::Msg(u64::decode(input)?, M::decode(input)?)),
            1 => Ok(Payload::State(
                u64::decode(input)?,
                u64::decode(input)?,
                S::decode(input)?,
            )),
            other => Err(WireError::InvalidTag(other)),
        }
    }
}

struct VertexData<P: VertexProgram> {
    state: P::State,
    edges: Vec<u64>,
    halted: bool,
}

struct EpochRun<P: VertexProgram> {
    vertices: KeyMap<u64, VertexData<P>>,
    /// Messages gathered per superstep, keyed by target vertex.
    inboxes: KeyMap<u64, KeyMap<u64, Vec<P::Msg>>>,
}

impl<P: VertexProgram> Default for EpochRun<P> {
    fn default() -> Self {
        EpochRun {
            vertices: KeyMap::default(),
            inboxes: KeyMap::default(),
        }
    }
}

/// Runs `program` over the graph described by `seeds` for at most
/// `max_supersteps`, returning each vertex's final state, once per epoch.
///
/// Each seed record is `(vertex, (initial state, out-neighbours))`,
/// partitioned by vertex id. Every epoch of seeds is an independent Pregel
/// run.
pub fn pregel<P: VertexProgram>(
    seeds: &Stream<(u64, (P::State, Vec<u64>))>,
    program: P,
    max_supersteps: u64,
) -> Stream<(u64, P::State)> {
    let mut scope = seeds.scope();
    let lc = scope.loop_context(seeds.context());
    let entered = lc.enter(seeds);
    let (handle, cycle) = lc.feedback::<Payload<P::Msg, P::State>>(Some(max_supersteps + 1));

    // The custom vertex: input 0 carries seeds, input 1 carries loop
    // payloads.
    let out: Stream<Payload<P::Msg, P::State>> = entered.binary_notify(
        &cycle,
        Pact::exchange(|(v, _): &(u64, (P::State, Vec<u64>))| hash_of(v)),
        Pact::exchange(|p: &Payload<P::Msg, P::State>| match p {
            Payload::Msg(t, _) => hash_of(t),
            Payload::State(v, _, _) => hash_of(v),
        }),
        "PregelVertex",
        move |_info| {
            let mut program = program;
            let runs: Rc<RefCell<KeyMap<u64, EpochRun<P>>>> = Rc::default();
            let recv_runs = runs.clone();
            (
                move |seeds: &mut InputPort<(u64, (P::State, Vec<u64>))>,
                      loopback: &mut InputPort<Payload<P::Msg, P::State>>,
                      _output: &mut OutputPort<Payload<P::Msg, P::State>>,
                      notify: &Notify| {
                    let mut runs = recv_runs.borrow_mut();
                    seeds.for_each(|time, data| {
                        // Superstep 0 for this epoch: run compute for every
                        // seeded vertex once the seeds are complete.
                        notify.notify_at(time);
                        let run = runs.entry(time.epoch).or_default();
                        for (v, (state, edges)) in data {
                            run.vertices.insert(
                                v,
                                VertexData {
                                    state,
                                    edges,
                                    halted: false,
                                },
                            );
                        }
                    });
                    loopback.for_each(|time, data| {
                        let run = runs.entry(time.epoch).or_default();
                        let superstep = superstep_of(&time);
                        let first = !run.inboxes.contains_key(&superstep);
                        let inbox = run.inboxes.entry(superstep).or_default();
                        for payload in data {
                            if let Payload::Msg(target, msg) = payload {
                                inbox.entry(target).or_default().push(msg);
                            }
                        }
                        if first {
                            // The superstep barrier: OnNotify fires once all
                            // of this iteration's messages are in.
                            notify.notify_at(time);
                        }
                    });
                },
                move |time: Timestamp,
                      output: &mut OutputPort<Payload<P::Msg, P::State>>,
                      notify_handle: &Notify| {
                    let mut runs = runs.borrow_mut();
                    let superstep = superstep_of(&time);
                    let Some(run) = runs.get_mut(&time.epoch) else {
                        return;
                    };
                    let inbox = run.inboxes.remove(&superstep).unwrap_or_default();
                    // Pregel activation: non-halted vertices plus any
                    // vertex with mail.
                    let mut active: Vec<u64> = run
                        .vertices
                        .iter()
                        .filter(|(v, d)| !d.halted || inbox.contains_key(v))
                        .map(|(v, _)| *v)
                        .collect();
                    // Deterministic order keeps runs reproducible.
                    active.sort_unstable();
                    let mut outbox: Vec<(u64, P::Msg)> = Vec::new();
                    let mut mutations: Vec<Mutation> = Vec::new();
                    let mut session = output.session(time);
                    let empty: Vec<P::Msg> = Vec::new();
                    for v in active {
                        let Some(data) = run.vertices.get_mut(&v) else {
                            continue; // Message to an unseeded vertex.
                        };
                        let messages = inbox.get(&v).map_or(&empty, |m| m);
                        let mut changed = false;
                        // Receiving mail reactivates a halted vertex.
                        data.halted = false;
                        let mut ctx = Compute::<P> {
                            superstep,
                            vertex: v,
                            state: &mut data.state,
                            changed: &mut changed,
                            halted: &mut data.halted,
                            edges: &data.edges,
                            messages,
                            outbox: &mut outbox,
                            mutations: &mut mutations,
                        };
                        program.compute(&mut ctx);
                        if changed || superstep == 0 {
                            session.give(Payload::State(v, superstep, data.state.clone()));
                        }
                    }
                    // Apply topology mutations before the next superstep;
                    // all mutating vertices live on this worker, so no
                    // extra exchange is needed for the out-edge list.
                    for mutation in mutations.drain(..) {
                        match mutation {
                            Mutation::AddEdge { from, to } => {
                                if let Some(data) = run.vertices.get_mut(&from) {
                                    data.edges.push(to);
                                }
                            }
                            Mutation::RemoveEdge { from, to } => {
                                if let Some(data) = run.vertices.get_mut(&from) {
                                    data.edges.retain(|&e| e != to);
                                }
                            }
                        }
                    }
                    // Apply the combiner per target before emitting.
                    let mut combined: KeyMap<u64, Vec<P::Msg>> = KeyMap::default();
                    for (target, msg) in outbox {
                        let entry = combined.entry(target).or_default();
                        match entry.pop() {
                            None => entry.push(msg),
                            Some(prev) => match program.combine(prev.clone(), msg.clone()) {
                                Some(merged) => entry.push(merged),
                                None => {
                                    entry.push(prev);
                                    entry.push(msg);
                                }
                            },
                        }
                    }
                    for (target, msgs) in combined {
                        for msg in msgs {
                            session.give(Payload::Msg(target, msg));
                        }
                    }
                    // If vertices remain un-halted, self-schedule the next
                    // superstep's barrier so they run even without mail.
                    let any_live = run.vertices.values().any(|d| !d.halted);
                    if any_live && superstep < max_supersteps {
                        if let Some(next) = time.incremented() {
                            notify_handle.notify_at(next);
                        }
                    }
                    // Reclaim the run once its loop cannot continue.
                    if superstep >= max_supersteps {
                        runs.remove(&time.epoch);
                    }
                },
            )
        },
    );

    handle.connect(&out);
    let left = lc.leave(&out);

    // Keep each vertex's latest state report per epoch.
    left.filter_map(|p| match p {
        Payload::State(v, superstep, state) => Some((v, (superstep, state))),
        Payload::Msg(..) => None,
    })
    .reduce(
        || None::<(u64, P::State)>,
        |_v, acc, (superstep, state)| {
            if acc.as_ref().is_none_or(|(s, _)| superstep >= *s) {
                *acc = Some((superstep, state));
            }
        },
    )
    .filter_map(|(v, latest)| latest.map(|(_, state)| (v, state)))
}

fn superstep_of(time: &Timestamp) -> u64 {
    *time
        .counters
        .as_slice()
        .last()
        .expect("loop times carry a superstep counter")
}

/// Builds Pregel seeds from separate vertex-state and edge streams: each
/// vertex state is paired with its out-edges at the same time, or with an
/// empty list when it has none. Edges of a vertex with no state seed
/// nothing.
pub fn seeds_from<S: ExchangeData>(
    states: &Stream<(u64, S)>,
    edges: &Stream<(u64, u64)>,
) -> Stream<(u64, (S, Vec<u64>))> {
    states.cogroup(edges, |v: &u64, states: Vec<S>, dsts: Vec<u64>| {
        let v = *v;
        states
            .into_iter()
            .map(move |s| (v, (s, dsts.clone())))
            .collect::<Vec<_>>()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use naiad::{execute, Config};
    use std::collections::HashMap;

    /// Propagate the minimum label (connected components by min-id).
    struct MinLabel;
    impl VertexProgram for MinLabel {
        type State = u64;
        type Msg = u64;
        fn compute(&mut self, ctx: &mut Compute<'_, Self>) {
            let incoming = ctx.messages().iter().copied().min();
            let improved = match incoming {
                Some(l) if l < *ctx.state() => {
                    *ctx.state_mut() = l;
                    true
                }
                _ => ctx.superstep() == 0,
            };
            if improved {
                let label = *ctx.state();
                ctx.send_to_all(label);
            }
            ctx.vote_to_halt();
        }
        fn combine(&self, a: u64, b: u64) -> Option<u64> {
            Some(a.min(b))
        }
    }

    fn run_min_label(workers: usize, edges: Vec<(u64, u64)>, n: u64) -> Vec<(u64, u64)> {
        let edges = std::sync::Arc::new(edges);
        let results = execute(Config::single_process(workers), move |worker| {
            let (mut seeds, captured) = worker.dataflow(|scope| {
                let (input, seed_stream) = scope.new_input::<(u64, (u64, Vec<u64>))>();
                let out = pregel(&seed_stream, MinLabel, 32);
                (input, out.capture())
            });
            if worker.index() == 0 {
                // Symmetrize and seed every vertex with its own id.
                let mut adj: HashMap<u64, Vec<u64>> = HashMap::new();
                for &(a, b) in edges.iter() {
                    adj.entry(a).or_default().push(b);
                    adj.entry(b).or_default().push(a);
                }
                for v in 0..n {
                    let neighbours = adj.remove(&v).unwrap_or_default();
                    seeds.send((v, (v, neighbours)));
                }
            }
            seeds.close();
            worker.step_until_done();
            let result = captured.borrow().clone();
            result
        })
        .unwrap();
        let mut all: Vec<(u64, u64)> = results.into_iter().flatten().flat_map(|(_, d)| d).collect();
        all.sort();
        all
    }

    #[test]
    fn min_label_finds_components() {
        for workers in [1, 2] {
            let labels = run_min_label(workers, vec![(0, 1), (1, 2), (3, 4)], 6);
            assert_eq!(
                labels,
                vec![(0, 0), (1, 0), (2, 0), (3, 3), (4, 3), (5, 5)],
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn epochs_are_independent_runs() {
        let results = execute(Config::single_process(1), |worker| {
            let (mut seeds, captured) = worker.dataflow(|scope| {
                let (input, seed_stream) = scope.new_input::<(u64, (u64, Vec<u64>))>();
                let out = pregel(&seed_stream, MinLabel, 8);
                (input, out.capture())
            });
            // Epoch 0: two vertices linked; epoch 1: the same ids isolated.
            seeds.send((0, (0, vec![1])));
            seeds.send((1, (1, vec![0])));
            seeds.advance_to(1);
            seeds.send((0, (0, vec![])));
            seeds.send((1, (1, vec![])));
            seeds.close();
            worker.step_until_done();
            let result = captured.borrow().clone();
            result
        })
        .unwrap();
        let mut by_epoch: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for (epoch, data) in results.into_iter().flatten() {
            by_epoch.entry(epoch).or_default().extend(data);
        }
        let mut e0 = by_epoch.remove(&0).unwrap();
        let mut e1 = by_epoch.remove(&1).unwrap();
        e0.sort();
        e1.sort();
        assert_eq!(e0, vec![(0, 0), (1, 0)]);
        assert_eq!(e1, vec![(0, 0), (1, 1)], "epoch 1 vertices are isolated");
    }

    /// A program that rewires the graph while it runs: vertex 0 starts
    /// pointing at 1, swings its edge to 2 at superstep 0, then floods;
    /// only 2 must hear it.
    struct Rewire;
    impl VertexProgram for Rewire {
        type State = u64; // number of messages ever received
        type Msg = u64;
        fn compute(&mut self, ctx: &mut Compute<'_, Self>) {
            if !ctx.messages().is_empty() {
                *ctx.state_mut() += ctx.messages().len() as u64;
            }
            match ctx.superstep() {
                0 if ctx.vertex() == 0 => {
                    ctx.remove_edge(1);
                    ctx.add_edge(2);
                }
                1 if ctx.vertex() == 0 => {
                    ctx.send_to_all(7);
                }
                _ => {}
            }
            // Vertex 0 stays live through superstep 1 so it can flood
            // after its mutation takes effect; everyone else halts (and
            // reactivates on mail).
            if ctx.vertex() != 0 || ctx.superstep() >= 1 {
                ctx.vote_to_halt();
            }
        }
    }

    #[test]
    fn graph_mutations_apply_before_the_next_superstep() {
        let results = execute(Config::single_process(2), |worker| {
            let (mut seeds, captured) = worker.dataflow(|scope| {
                let (input, seed_stream) = scope.new_input::<(u64, (u64, Vec<u64>))>();
                let out = pregel(&seed_stream, Rewire, 8);
                (input, out.capture())
            });
            if worker.index() == 0 {
                seeds.send((0, (0, vec![1])));
                seeds.send((1, (0, vec![])));
                seeds.send((2, (0, vec![])));
            }
            seeds.close();
            worker.step_until_done();
            let result = captured.borrow().clone();
            result
        })
        .unwrap();
        let mut counts: Vec<(u64, u64)> =
            results.into_iter().flatten().flat_map(|(_, d)| d).collect();
        counts.sort();
        assert_eq!(counts, vec![(0, 0), (1, 0), (2, 1)]);
    }

    #[test]
    fn seeds_from_joins_states_and_edges() {
        let results = execute(Config::single_process(2), |worker| {
            let (mut states, mut edges, captured) = worker.dataflow(|scope| {
                let (s_in, states) = scope.new_input::<(u64, u64)>();
                let (e_in, edges) = scope.new_input::<(u64, u64)>();
                let seeds = seeds_from(&states, &edges);
                (s_in, e_in, seeds.capture())
            });
            if worker.index() == 0 {
                states.send_batch([(0, 100), (1, 101), (2, 102)]);
                edges.send_batch([(0, 1), (0, 2)]);
            }
            states.close();
            edges.close();
            worker.step_until_done();
            let result = captured.borrow().clone();
            result
        })
        .unwrap();
        let mut all: Vec<(u64, (u64, Vec<u64>))> =
            results.into_iter().flatten().flat_map(|(_, d)| d).collect();
        all.sort();
        for (_, (_, edges)) in all.iter_mut() {
            edges.sort_unstable();
        }
        assert_eq!(
            all,
            vec![
                (0, (100, vec![1, 2])),
                (1, (101, vec![])),
                (2, (102, vec![])),
            ]
        );
    }
}
