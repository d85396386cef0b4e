//! Weakly connected components (§5.3, §5.4, Table 1, §6.4).
//!
//! An *asynchronous* min-label propagation in the Bloom style §4.2
//! describes: the loop vertex never requests a blocking notification, so
//! iterations run without coordination and the loop drains as soon as no
//! label improves — exactly the sparse, latency-bound tail the paper uses
//! WCC to stress.
//!
//! The vertex state persists across epochs, and labels only ever decrease
//! under edge additions, so feeding more edges in later epochs yields
//! *incremental* connected components: each epoch's output is exactly the
//! set of label changes it causes (§6.4's streaming analysis). To keep
//! per-epoch outputs consistent, state is *versioned*: adjacency entries
//! remember the epoch that introduced them, and each node keeps a small
//! staircase of `(epoch, label)` versions, so an epoch's propagation never
//! observes a later epoch's edges — the multi-version discipline the
//! paper's incremental library [McSherry et al., CIDR 2013] formalizes.

use std::collections::HashMap;

use naiad::dataflow::{InputPort, Notify, OutputPort};
use naiad::runtime::Pact;
use naiad::{Stream, Timestamp};
use naiad_operators::per_time;
use naiad_operators::prelude::*;
use naiad_operators::{hash_of, KeyMap};

/// A node's label history: `(epoch, label)` with strictly increasing
/// epochs and strictly decreasing labels.
#[derive(Debug, Default, Clone)]
struct Versions(Vec<(u64, u64)>);

impl Versions {
    /// The label as of `epoch` (`None` if the node is unknown then).
    fn at(&self, epoch: u64) -> Option<u64> {
        self.0
            .iter()
            .take_while(|(e, _)| *e <= epoch)
            .map(|(_, l)| *l)
            .last()
    }

    /// Records `label` at `epoch` if it improves that epoch's value.
    /// Returns whether anything changed.
    fn improve(&mut self, epoch: u64, label: u64) -> bool {
        if self.at(epoch).is_some_and(|cur| cur <= label) {
            return false;
        }
        // Drop superseded later-or-equal versions, then insert in order.
        self.0.retain(|(e, l)| *e < epoch || *l < label);
        let pos = self.0.partition_point(|(e, _)| *e < epoch);
        self.0.insert(pos, (epoch, label));
        true
    }
}

/// Connected components by asynchronous min-label propagation.
///
/// `edges` are undirected (symmetrized internally). Returns the label
/// *improvements* `(node, label)` of each epoch; a node's component is the
/// last label it was assigned in any epoch so far. For a single-epoch
/// input, reduce per node with `min` to obtain the component map.
pub fn connected_components(edges: &Stream<(u64, u64)>) -> Stream<(u64, u64)> {
    let mut scope = edges.scope();
    // Symmetrize: deliver each edge to both endpoints' owners.
    let sym = edges.flat_map(|(a, b)| vec![(a, b), (b, a)]);

    let lc = scope.loop_context(edges.context());
    let entered = lc.enter(&sym);
    let (handle, cycle) = lc.feedback::<(u64, u64)>(None);

    let improvements: Stream<(u64, u64)> = entered.binary(
        &cycle,
        Pact::exchange(|(a, _): &(u64, u64)| hash_of(a)),
        Pact::exchange(|(n, _): &(u64, u64)| hash_of(n)),
        "MinLabelPropagate",
        |_info| {
            // Adjacency entries remember the epoch that introduced them.
            let mut adjacency: KeyMap<u64, Vec<(u64, u64)>> = KeyMap::default();
            let mut labels: KeyMap<u64, Versions> = KeyMap::default();
            // Offers to later epochs' first iterations, sent after the
            // batch's own session closes.
            let mut later: Vec<(u64, (u64, u64))> = Vec::new();
            move |edges: &mut InputPort<(u64, u64)>,
                  msgs: &mut InputPort<(u64, u64)>,
                  output: &mut OutputPort<(u64, u64)>| {
                edges.for_each(|time, data| {
                    let mut session = output.session(time);
                    for (a, b) in data {
                        adjacency.entry(a).or_default().push((b, time.epoch));
                        let versions = labels.entry(a).or_default();
                        versions.improve(time.epoch, a);
                        let la = versions.at(time.epoch).expect("just seeded");
                        // Offer `a`'s label *as of this epoch* to the new
                        // neighbour; its owner keeps the minimum.
                        session.give((b, la));
                        // Report `a` itself so singletons get labels.
                        session.give((a, la));
                    }
                });
                msgs.for_each(|time, data| {
                    let mut session = output.session(time);
                    for (n, candidate) in data {
                        let versions = labels.entry(n).or_default();
                        if versions.improve(time.epoch, candidate) {
                            for &(neighbour, edge_epoch) in adjacency.get(&n).into_iter().flatten()
                            {
                                if edge_epoch <= time.epoch {
                                    // Propagate within this epoch's loop.
                                    session.give((neighbour, candidate));
                                } else {
                                    // The edge belongs to a later epoch:
                                    // re-offer the improvement there, at
                                    // that epoch's first iteration.
                                    later.push((edge_epoch, (neighbour, candidate)));
                                }
                            }
                        }
                    }
                    drop(session);
                    for (epoch, offer) in later.drain(..) {
                        output.give(Timestamp::with_counters(epoch, &[0]), offer);
                    }
                });
            }
        },
    );

    handle.connect(&improvements);
    // Outside the loop: fold each epoch's offer churn to the minimal
    // candidate per node, then emit only labels that improve on earlier
    // epochs — clean per-epoch deltas for incremental consumers (§6.4).
    // Epochs are processed in notification order, which the frontier
    // guarantees is epoch order, so the cross-epoch filter is sound.
    lc.leave(&improvements).unary_notify(
        Pact::exchange(|(n, _): &(u64, u64)| hash_of(n)),
        "ImprovementFilter",
        |_info| {
            let mut best: KeyMap<u64, u64> = KeyMap::default();
            let (opener, closer) = per_time::states::<KeyMap<u64, u64>>(Notify::notify_at);
            (
                move |input, _output, notify| {
                    input.for_each(|time, data| {
                        let mut epoch = opener.open(time, notify);
                        for (n, label) in data {
                            let e = epoch.entry(n).or_insert(label);
                            *e = (*e).min(label);
                        }
                    });
                },
                move |time, output, _notify| {
                    closer.close(time, |epoch| {
                        let mut session = output.session(time);
                        for (n, label) in epoch.drain() {
                            match best.get_mut(&n) {
                                None => {
                                    best.insert(n, label);
                                    session.give((n, label));
                                }
                                Some(b) if label < *b => {
                                    *b = label;
                                    session.give((n, label));
                                }
                                _ => {}
                            }
                        }
                    });
                },
            )
        },
    )
}

/// Runs [`connected_components`] to completion on a static edge list and
/// returns the full component map — a harness used by tests, benchmarks,
/// and Table 1.
pub fn wcc_once(config: naiad::Config, edges: Vec<(u64, u64)>) -> HashMap<u64, u64> {
    let edges = std::sync::Arc::new(edges);
    let results = naiad::execute(config, move |worker| {
        let (mut input, captured) = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<(u64, u64)>();
            (input, connected_components(&stream).capture())
        });
        let peers = worker.peers();
        let index = worker.index();
        for (i, e) in edges.iter().enumerate() {
            if i % peers == index {
                input.send(*e);
            }
        }
        input.close();
        worker.step_until_done();
        let result = captured.borrow().clone();
        result
    })
    .unwrap();
    let mut map = HashMap::new();
    for (_, data) in results.into_iter().flatten() {
        for (n, l) in data {
            let e = map.entry(n).or_insert(l);
            *e = (*e).min(l);
        }
    }
    map
}

/// Reference sequential union-find, for validation.
pub fn wcc_reference(edges: &[(u64, u64)]) -> HashMap<u64, u64> {
    let mut parent: HashMap<u64, u64> = HashMap::new();
    fn find(parent: &mut HashMap<u64, u64>, x: u64) -> u64 {
        let p = *parent.entry(x).or_insert(x);
        if p == x {
            x
        } else {
            let root = find(parent, p);
            parent.insert(x, root);
            root
        }
    }
    for &(a, b) in edges {
        let ra = find(&mut parent, a);
        let rb = find(&mut parent, b);
        if ra != rb {
            parent.insert(ra.max(rb), ra.min(rb));
        }
    }
    let keys: Vec<u64> = parent.keys().copied().collect();
    keys.into_iter()
        .map(|k| {
            let root = find(&mut parent, k);
            (k, root)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::random_graph;
    use naiad::Config;

    #[test]
    fn matches_union_find_on_random_graphs() {
        for (workers, seed) in [(1, 1), (2, 2), (3, 3)] {
            let edges = random_graph(200, 300, seed);
            let ours = wcc_once(Config::single_process(workers), edges.clone());
            let reference = wcc_reference(&edges);
            assert_eq!(ours, reference, "workers={workers} seed={seed}");
        }
    }

    #[test]
    fn multi_process_agrees() {
        let edges = random_graph(100, 150, 9);
        let ours = wcc_once(Config::processes_and_workers(2, 2), edges.clone());
        assert_eq!(ours, wcc_reference(&edges));
    }

    #[test]
    fn an_earlier_epoch_improving_drops_the_later_versions_it_beats() {
        let mut versions = Versions(vec![(0, 5), (2, 3)]);
        assert!(versions.improve(1, 2));
        assert_eq!(versions.0, [(0, 5), (1, 2)]);
        assert_eq!(versions.at(2), Some(2));
        assert!(!versions.improve(2, 4), "epoch 2 already reads 2");
    }

    #[test]
    fn a_later_epoch_improving_leaves_the_earlier_label_readable() {
        let mut versions = Versions(vec![(0, 5)]);
        assert!(versions.improve(2, 3));
        assert_eq!(versions.0, [(0, 5), (2, 3)]);
        assert_eq!(versions.at(0), Some(5));
        assert_eq!(versions.at(1), Some(5));
        assert_eq!(versions.at(2), Some(3));
        assert_eq!(Versions::default().at(0), None);
    }

    /// Every epoch of `epochs` fed before the first step, edges dealt
    /// round-robin over the workers: each epoch's output, sorted.
    fn run_in_flight(config: Config, epochs: &[Vec<(u64, u64)>]) -> Vec<Vec<(u64, u64)>> {
        let mut by_epoch = vec![Vec::new(); epochs.len()];
        let epochs = std::sync::Arc::new(epochs.to_vec());
        let results = naiad::execute(config, move |worker| {
            let (mut input, captured) = worker.dataflow(|scope| {
                let (input, stream) = scope.new_input::<(u64, u64)>();
                (input, connected_components(&stream).capture())
            });
            let (peers, index) = (worker.peers(), worker.index());
            for (epoch, edges) in epochs.iter().enumerate() {
                if epoch > 0 {
                    input.advance_to(epoch as u64);
                }
                input.send_batch(edges.iter().skip(index).step_by(peers).copied());
            }
            input.close();
            worker.step_until_done();
            let result = captured.borrow().clone();
            result
        })
        .unwrap();
        for (epoch, data) in results.into_iter().flatten() {
            by_epoch[epoch as usize].extend(data);
        }
        for output in &mut by_epoch {
            output.sort_unstable();
        }
        by_epoch
    }

    /// The labels each epoch changes, by [`wcc_reference`] over the
    /// prefix of epochs that ends with it.
    fn reference_deltas(epochs: &[Vec<(u64, u64)>]) -> Vec<Vec<(u64, u64)>> {
        let mut prefix = Vec::new();
        let mut before = HashMap::new();
        epochs
            .iter()
            .map(|edges| {
                prefix.extend_from_slice(edges);
                let after = wcc_reference(&prefix);
                let mut delta: Vec<(u64, u64)> = after
                    .iter()
                    .filter(|&(n, l)| before.get(n) != Some(l))
                    .map(|(&n, &l)| (n, l))
                    .collect();
                delta.sort_unstable();
                before = after;
                delta
            })
            .collect()
    }

    #[test]
    fn two_epochs_in_flight_each_report_their_own_delta() {
        // Epoch 0: {1, 2, 5, 7} and {3, 4, 6, 8}; epoch 1 bridges them.
        let epochs = [
            vec![(1, 2), (2, 5), (7, 5), (4, 3), (4, 6), (8, 6)],
            vec![(7, 8)],
        ];
        let expected = reference_deltas(&epochs);
        assert_eq!(expected[1], [(3, 1), (4, 1), (6, 1), (8, 1)]);
        for (shape, config) in [
            ("1 process x 2 workers", Config::single_process(2)),
            (
                "2 processes x 1 worker",
                Config::processes_and_workers(2, 1),
            ),
        ] {
            assert_eq!(run_in_flight(config, &epochs), expected, "{shape}");
        }
    }

    #[test]
    fn incremental_epochs_report_only_changes() {
        let results = naiad::execute(Config::single_process(1), |worker| {
            let (mut input, captured) = worker.dataflow(|scope| {
                let (input, stream) = scope.new_input::<(u64, u64)>();
                (input, connected_components(&stream).capture())
            });
            // Epoch 0: 1–2 and 3–4 as separate components.
            input.send_batch([(1, 2), (3, 4)]);
            input.advance_to(1);
            // Epoch 1: bridge them; only 3 and 4 change label.
            input.send((2, 3));
            input.close();
            worker.step_until_done();
            let result = captured.borrow().clone();
            result
        })
        .unwrap();
        let mut by_epoch: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for (e, data) in results.into_iter().flatten() {
            by_epoch.entry(e).or_default().extend(data);
        }
        let mut e0 = by_epoch.remove(&0).unwrap();
        e0.sort();
        assert_eq!(e0, vec![(1, 1), (2, 1), (3, 3), (4, 3)]);
        let mut e1 = by_epoch.remove(&1).unwrap();
        e1.sort();
        // The bridge relabels 3 and 4 to component 1; 1 and 2 are silent.
        assert_eq!(e1, vec![(3, 1), (4, 1)]);
    }
}
