//! Cross-crate integration tests: the operator library, Pregel port,
//! algorithms, and baselines must agree with each other end to end.

use naiad::progress::ProgressMode;
use naiad::{execute, Config};
use naiad_algorithms::datasets::{random_graph, tweet_stream};
use naiad_algorithms::kexposure::k_exposure;
use naiad_algorithms::wcc::{wcc_once, wcc_reference};
use naiad_baselines::snapshot::{SnapshotEngine, Update};
use naiad_baselines::tree::tree_all_reduce_sum;
use naiad_examples::my_share;
use naiad_operators::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// WCC across process boundaries under every progress mode must match the
/// sequential union-find.
#[test]
fn wcc_agrees_under_every_progress_mode() {
    let edges = random_graph(150, 220, 77);
    let reference = wcc_reference(&edges);
    for mode in [
        ProgressMode::Broadcast,
        ProgressMode::Local,
        ProgressMode::Global,
        ProgressMode::LocalGlobal,
    ] {
        let config = Config::processes_and_workers(2, 2).progress_mode(mode);
        let ours = wcc_once(config, edges.clone());
        assert_eq!(ours, reference, "mode {mode:?}");
    }
}

/// The Naiad k-exposure dataflow and the Kineograph-like snapshot engine
/// compute identical exposure tables on the same stream.
#[test]
fn kexposure_matches_snapshot_engine() {
    let tweets = tweet_stream(400, 100, 20, 5);

    // Naiad: stream everything in one epoch, capture the counts.
    let tweets_in = Arc::new(tweets.clone());
    let results = execute(Config::single_process(2), move |worker| {
        let (mut input, captured) = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<naiad_algorithms::datasets::Tweet>();
            (input, k_exposure(&stream).capture())
        });
        for t in my_share(&tweets_in, worker.index(), worker.peers()) {
            input.send(t);
        }
        input.close();
        worker.step_until_done();
        let result = captured.borrow().clone();
        result
    })
    .unwrap();
    let mut ours: HashMap<(u64, u64), u64> = HashMap::new();
    for (_, data) in results.into_iter().flatten() {
        for ((user, topic), k) in data {
            *ours.entry((user, topic)).or_insert(0) += k;
        }
    }

    // Baseline: everything in one snapshot.
    let mut engine = SnapshotEngine::new();
    for t in tweets {
        engine.ingest(Update {
            user: t.user,
            hashtags: t.hashtags,
            mentions: t.mentions,
        });
    }
    let (reference, _) = engine.snapshot_and_compute();
    assert_eq!(ours, reference);
}

/// The butterfly (VW-style) and data-parallel AllReduce produce the same
/// sums, per epoch, on every worker, across processes.
#[test]
fn allreduce_implementations_agree() {
    let config = Config::processes_and_workers(2, 2);
    let results = execute(config, |worker| {
        let (mut input, dp_cap, tree_cap) = worker.dataflow(|scope| {
            let (input, vectors) = scope.new_input::<Vec<f64>>();
            let dp = vectors.all_reduce_sum().capture();
            let tree = tree_all_reduce_sum(&vectors).capture();
            (input, dp, tree)
        });
        let me = worker.index() as f64;
        for epoch in 0..3u64 {
            input.send(vec![me + epoch as f64, 2.0 * me, 7.0]);
            if epoch < 2 {
                input.advance_to(epoch + 1);
            }
        }
        input.close();
        worker.step_until_done();
        let result = (dp_cap.borrow().clone(), tree_cap.borrow().clone());
        result
    })
    .unwrap();
    for (worker_idx, (dp, tree)) in results.into_iter().enumerate() {
        assert_eq!(dp.len(), 3, "worker {worker_idx} dp epochs");
        assert_eq!(tree.len(), 3, "worker {worker_idx} tree epochs");
        let flat = |v: Vec<(u64, Vec<Vec<f64>>)>| {
            let mut v = v;
            v.sort_by_key(|(e, _)| *e);
            v.into_iter().map(|(_, d)| d).collect::<Vec<_>>()
        };
        assert_eq!(flat(dp), flat(tree), "worker {worker_idx}");
    }
}

/// A dataflow with two independent inputs and a per-time join behaves
/// consistently across multiple dataflows in one worker session.
#[test]
fn multiple_dataflows_share_a_worker() {
    let results = execute(Config::single_process(2), |worker| {
        // Dataflow 1: squares.
        let (mut in1, cap1) = worker.dataflow(|scope| {
            let (input, s) = scope.new_input::<u64>();
            (input, s.map(|x| x * x).capture())
        });
        // Dataflow 2: a keyed count.
        let (mut in2, cap2) = worker.dataflow(|scope| {
            let (input, s) = scope.new_input::<u64>();
            (input, s.map(|x| (x % 3, x)).count().capture())
        });
        if worker.index() == 0 {
            in1.send_batch([1, 2, 3]);
            in2.send_batch([0, 1, 2, 3, 4, 5]);
        }
        in1.close();
        in2.close();
        worker.step_until_done();
        let result = (cap1.borrow().clone(), cap2.borrow().clone());
        result
    })
    .unwrap();
    let mut squares: Vec<u64> = results
        .iter()
        .flat_map(|(c1, _)| c1.iter().flat_map(|(_, d)| d.iter().copied()))
        .collect();
    squares.sort_unstable();
    assert_eq!(squares, vec![1, 4, 9]);
    let mut counts: Vec<(u64, u64)> = results
        .iter()
        .flat_map(|(_, c2)| c2.iter().flat_map(|(_, d)| d.iter().copied()))
        .collect();
    counts.sort_unstable();
    assert_eq!(counts, vec![(0, 2), (1, 2), (2, 2)]);
}

/// A deep graph: a chain of 1,024 `map` stages builds through
/// `Worker::dataflow` (validation, analysis and the progress tracker's
/// arcs are all linear in the graph's size) and carries an epoch end to
/// end, across two workers.
#[test]
fn a_thousand_stage_chain_builds_and_runs_an_epoch() {
    const STAGES: u64 = 1024;
    let results = execute(Config::single_process(2), |worker| {
        let (mut input, captured) = worker.dataflow(|scope| {
            let (input, mut stream) = scope.new_input::<u64>();
            for _ in 0..STAGES {
                stream = stream.map(|x| x + 1);
            }
            (input, stream.capture())
        });
        input.send_batch(my_share(&[0, 1000], worker.index(), worker.peers()));
        input.close();
        worker.step_until_done();
        let result = captured.borrow().clone();
        result
    })
    .unwrap();
    let mut out: Vec<(u64, u64)> = results
        .into_iter()
        .flatten()
        .flat_map(|(epoch, data)| data.into_iter().map(move |x| (epoch, x)))
        .collect();
    out.sort_unstable();
    assert_eq!(out, vec![(0, STAGES), (0, 1000 + STAGES)]);
}

/// Iteration nested in streaming: per-epoch fixpoints stay separated even
/// when epochs are pipelined into the loop without waiting.
#[test]
fn pipelined_epochs_keep_loop_results_separate() {
    let results = execute(Config::single_process(2), |worker| {
        let (mut input, captured) = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<u64>();
            let doubled_to_limit = stream.iterate(Some(32), |inner| {
                inner.map(|x| if x < 100 { x * 2 } else { x }).distinct()
            });
            let out = doubled_to_limit.filter(|&x| x >= 100).distinct();
            (input, out.capture())
        });
        if worker.index() == 0 {
            for epoch in 0..4u64 {
                input.send(epoch + 3);
                if epoch < 3 {
                    input.advance_to(epoch + 1);
                }
            }
        } else {
            for epoch in 0..3u64 {
                input.advance_to(epoch + 1);
            }
        }
        input.close();
        worker.step_until_done();
        let result = captured.borrow().clone();
        result
    })
    .unwrap();
    let mut by_epoch: HashMap<u64, Vec<u64>> = HashMap::new();
    for (epoch, data) in results.into_iter().flatten() {
        by_epoch.entry(epoch).or_default().extend(data);
    }
    // Seed e+3 doubles until ≥ 100: 3→192? no: 3,6,12,24,48,96,192.
    assert_eq!(by_epoch[&0], vec![192]);
    assert_eq!(by_epoch[&1], vec![128]);
    assert_eq!(by_epoch[&2], vec![160]);
    assert_eq!(by_epoch[&3], vec![192]);
}

/// A keyed aggregation across three processes survives 10% message drops
/// and 5% duplicate deliveries: the runtime's retry layer masks the
/// drops (as TCP retransmission would) and the fabric suppresses the
/// duplicates, so results are exactly those of a clean run — while the
/// fault counters prove the faults actually fired.
#[test]
fn lossy_links_preserve_results_under_ten_percent_drop() {
    use naiad::execute_with_metrics;
    use naiad_netsim::FaultPlan;

    let records: Vec<u64> = (0..600).collect();
    let plan = FaultPlan::seeded(0xD0_5E)
        .drop_probability(0.10)
        .duplicate_probability(0.05);
    // Small batches force plenty of cross-process fabric messages.
    let config = Config::processes_and_workers(3, 1)
        .batch_size(8)
        .faults(plan);
    let all = Arc::new(records);
    let (results, metrics) = execute_with_metrics(config, move |worker| {
        let (mut input, captured) = worker.dataflow(|scope| {
            let (input, s) = scope.new_input::<u64>();
            (input, s.map(|x| (x % 30, x)).count().capture())
        });
        for r in my_share(&all, worker.index(), worker.peers()) {
            input.send(r);
        }
        input.close();
        worker.step_until_done();
        let result = captured.borrow().clone();
        result
    })
    .unwrap();

    let mut counts: Vec<(u64, u64)> = results.into_iter().flatten().flat_map(|(_, d)| d).collect();
    counts.sort_unstable();
    let expected: Vec<(u64, u64)> = (0..30).map(|k| (k, 20)).collect();
    assert_eq!(counts, expected, "lossy links corrupted the aggregation");

    let faults = metrics.faults();
    assert!(faults.dropped > 0, "no drops fired: {faults:?}");
    assert!(faults.duplicated > 0, "no duplicates fired: {faults:?}");
    assert!(
        faults.duplicates_suppressed > 0,
        "duplicates were never suppressed: {faults:?}"
    );
    assert_eq!(faults.crashes, 0);
}

/// A sliding count forgets each epoch once no later window reads it, and
/// still counts every window exactly: two workers, 300 epochs, width 3,
/// every key in every epoch, against a brute-force count over
/// `(e − width, e]`.
#[test]
fn sliding_counts_match_brute_force_over_a_long_run() {
    const EPOCHS: u64 = 300;
    const WIDTH: u64 = 3;
    // Key `k` appears `1 + (e + k) % 3` times in epoch `e`, so a window
    // holding one epoch too many or too few changes some total.
    fn times(e: u64, k: u64) -> u64 {
        1 + (e + k) % 3
    }
    let results = execute(Config::single_process(2), |worker| {
        let (mut input, captured) = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<(u64, ())>();
            (input, stream.sliding_count(WIDTH).capture())
        });
        for e in 0..EPOCHS {
            if e > 0 {
                input.advance_to(e);
            }
            for k in (0..8u64).filter(|k| *k as usize % worker.peers() == worker.index()) {
                input.send_batch((0..times(e, k)).map(|_| (k, ())));
            }
        }
        input.close();
        worker.step_until_done();
        let result = captured.borrow().clone();
        result
    })
    .unwrap();
    let mut counts: Vec<(u64, u64, u64)> = results
        .into_iter()
        .flatten()
        .flat_map(|(e, rows)| rows.into_iter().map(move |(k, n)| (e, k, n)))
        .collect();
    counts.sort_unstable();
    let expected: Vec<(u64, u64, u64)> = (0..EPOCHS)
        .flat_map(|e| {
            (0..8u64).map(move |k| {
                let window = e.saturating_sub(WIDTH - 1)..=e;
                (e, k, window.map(|epoch| times(epoch, k)).sum())
            })
        })
        .collect();
    assert_eq!(counts, expected);
}

/// One worker's graph outputs repeat run to run: the same records in the
/// same order, PageRank's ranks bit for bit. A vertex's tables iterate
/// in an order fixed by its operations, so its emissions, and the order
/// its float shares are summed in, do not vary between runs. The same
/// holds for the library's notified operators' per-time tables, for
/// graph computations whose epochs' notifications are ready together,
/// and for word count fed each epoch in several chunks.
#[test]
fn graph_outputs_repeat_run_to_run() {
    use naiad_algorithms::datasets::{powerlaw_graph, zipf_words};
    use naiad_algorithms::pagerank::{pagerank_edge, pagerank_pregel, pagerank_vertex};
    use naiad_algorithms::scc::strongly_connected_components;
    use naiad_algorithms::wcc::connected_components;
    use naiad_algorithms::wordcount::wordcount;
    use std::collections::BTreeMap;

    /// PageRank's `(node, rank bits)` and WCC's `(node, label)`, as emitted.
    type Outputs = (Vec<(u64, u64)>, Vec<(u64, u64)>);

    fn run_once(edges: &[(u64, u64)]) -> Outputs {
        let edges = Arc::new(edges.to_vec());
        let mut results = execute(Config::single_process(1), move |worker| {
            let (mut input, ranks, labels) = worker.dataflow(|scope| {
                let (input, stream) = scope.new_input::<(u64, u64)>();
                let ranks = pagerank_vertex(&stream, 5).capture();
                (input, ranks, connected_components(&stream).capture())
            });
            input.send_batch(edges.iter().copied());
            input.close();
            worker.step_until_done();
            let ranks: Vec<(u64, u64)> = ranks
                .borrow()
                .iter()
                .flat_map(|(_, data)| data.iter().map(|&(n, r)| (n, r.to_bits())))
                .collect();
            let labels: Vec<(u64, u64)> = labels
                .borrow()
                .iter()
                .flat_map(|(_, data)| data.clone())
                .collect();
            (ranks, labels)
        })
        .unwrap();
        results.pop().expect("one worker")
    }

    /// One operator's `(epoch, row)`s, as emitted.
    type Rows = Vec<(u64, (u64, u64, u64))>;

    /// The notified library operators' outputs over a few hundred keys
    /// and six epochs.
    fn run_operators_once() -> Vec<Rows> {
        let mut results = execute(Config::single_process(1), |worker| {
            let (mut input, captures) = worker.dataflow(|scope| {
                let (input, pairs) = scope.new_input::<(u64, u64)>();
                let thirds = pairs.filter_map(|(k, v)| (k % 3 == 0).then_some((k, v + 1)));
                let evens = pairs.filter_map(|(k, _)| (k % 2 == 0).then_some(k));
                let (distinct, counts) = pairs.distinct_count();
                let captures = vec![
                    pairs
                        .cogroup(&thirds, |k, l: Vec<u64>, r: Vec<u64>| {
                            vec![(*k, l.len() as u64, r.iter().sum())]
                        })
                        .capture(),
                    pairs.antijoin(&evens).map(|(k, v)| (k, v, 0)).capture(),
                    pairs
                        .tumbling_fold(2, || 0u64, |acc, v| *acc += v)
                        .capture(),
                    pairs.sliding_count(3).map(|(k, n)| (k, n, 0)).capture(),
                    distinct.map(|(k, v)| (k, v, 0)).capture(),
                    counts.map(|((k, v), n)| (k, v, n)).capture(),
                ];
                (input, captures)
            });
            for epoch in 0..6u64 {
                if epoch > 0 {
                    input.advance_to(epoch);
                }
                input.send_batch(
                    (0..300u64)
                        .filter(|k| (k + epoch) % 4 != 0)
                        .map(|k| (k, (k * epoch) % 7)),
                );
            }
            input.close();
            worker.step_until_done();
            captures
                .iter()
                .map(|captured| {
                    captured
                        .borrow()
                        .iter()
                        .flat_map(|(epoch, data)| data.iter().map(|row| (*epoch, *row)))
                        .collect()
                })
                .collect::<Vec<_>>()
        })
        .unwrap();
        results.pop().expect("one worker")
    }

    /// One computation's `(epoch, node, value)`s, as emitted: rank bits
    /// or a component label.
    type Emitted = Vec<(u64, u64, u64)>;

    /// Edge-partitioned and Pregel PageRank and SCC over `edges` split
    /// across three epochs, all sent before the first step: incomparable
    /// times whose notifications are ready together.
    fn run_epochs_once(edges: &[(u64, u64)]) -> Vec<Emitted> {
        let edges = Arc::new(edges.to_vec());
        let mut results = execute(Config::single_process(1), move |worker| {
            let (mut input, mut seeds, captures) = worker.dataflow(|scope| {
                let (input, stream) = scope.new_input::<(u64, u64)>();
                let (seeds, seed_stream) = scope.new_input::<(u64, (f64, Vec<u64>))>();
                let bits = |(n, rank): (u64, f64)| (n, rank.to_bits());
                let captures = vec![
                    pagerank_edge(&stream, 4, 1).map(bits).capture(),
                    pagerank_pregel(&seed_stream, 4).map(bits).capture(),
                    strongly_connected_components(&stream, 6).capture(),
                ];
                (input, seeds, captures)
            });
            for (epoch, part) in edges.chunks(edges.len().div_ceil(3)).enumerate() {
                if epoch > 0 {
                    input.advance_to(epoch as u64);
                    seeds.advance_to(epoch as u64);
                }
                let mut adjacency: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
                for &(a, b) in part {
                    adjacency.entry(a).or_default().push(b);
                    adjacency.entry(b).or_default();
                }
                input.send_batch(part.iter().copied());
                seeds.send_batch(adjacency.into_iter().map(|(n, outs)| (n, (1.0, outs))));
            }
            input.close();
            seeds.close();
            worker.step_until_done();
            captures
                .iter()
                .map(|captured| {
                    captured
                        .borrow()
                        .iter()
                        .flat_map(|(epoch, data)| data.iter().map(|&(n, v)| (*epoch, n, v)))
                        .collect()
                })
                .collect::<Vec<_>>()
        })
        .unwrap();
        results.pop().expect("one worker")
    }

    /// Word count's `(epoch, word, count)`s, as emitted, over six epochs
    /// of Zipf text, each fed in three chunks with a step after each.
    fn run_wordcount_once() -> Vec<(u64, String, u64)> {
        let mut results = execute(Config::single_process(1), |worker| {
            let (mut input, captured) = worker.dataflow(|scope| {
                let (input, lines) = scope.new_input::<String>();
                (input, wordcount(&lines).capture())
            });
            for epoch in 0..6u64 {
                if epoch > 0 {
                    input.advance_to(epoch);
                }
                let words = zipf_words(900, 150, 40 + epoch);
                for chunk in words.chunks(300) {
                    input.send_batch(chunk.chunks(10).map(|line| line.join(" ")));
                    worker.step();
                }
            }
            input.close();
            worker.step_until_done();
            let emitted = captured
                .borrow()
                .iter()
                .flat_map(|(epoch, rows)| rows.iter().map(|(w, n)| (*epoch, w.clone(), *n)))
                .collect::<Vec<_>>();
            emitted
        })
        .unwrap();
        results.pop().expect("one worker")
    }

    let edges = powerlaw_graph(500, 3_000, 31);
    let first = run_epochs_once(&edges);
    assert!(
        first.iter().all(|emitted| {
            let epochs: std::collections::BTreeSet<u64> = emitted.iter().map(|e| e.0).collect();
            epochs.len() == 3
        }),
        "every computation emitted in every epoch"
    );
    assert_eq!(run_epochs_once(&edges), first);

    let first = run_once(&edges);
    assert_eq!(first.0.len(), 500, "every node ranked");
    assert_eq!(run_once(&edges), first);

    let first = run_operators_once();
    assert!(
        first.iter().all(|rows| !rows.is_empty()),
        "every operator emitted"
    );
    assert_eq!(run_operators_once(), first);

    let first = run_wordcount_once();
    let epochs: std::collections::BTreeSet<u64> = first.iter().map(|row| row.0).collect();
    assert_eq!(epochs.len(), 6, "word count emitted in every epoch");
    assert_eq!(run_wordcount_once(), first);
}
