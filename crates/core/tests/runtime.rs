//! End-to-end runtime tests: single worker, multi-worker, multi-process,
//! loops, notifications, and all four progress-protocol modes.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use naiad::dataflow::{InputPort, OutputPort};
use naiad::progress::ProgressMode;
use naiad::runtime::Pact;
use naiad::{execute, Config, ExchangeData, Timestamp};
use naiad_netsim::{FaultPlan, LatencyModel};

/// Doubles every record on one worker; checks epoch grouping.
#[test]
fn single_worker_map_and_capture() {
    let results = execute(Config::single_process(1), |worker| {
        let (mut input, captured) = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<u64>();
            let doubled = stream.unary(Pact::Pipeline, "Double", |_info| {
                |input: &mut InputPort<u64>, output: &mut OutputPort<u64>| {
                    input.for_each(|time, data| {
                        output
                            .session(time)
                            .give_iterator(data.into_iter().map(|x| x * 2));
                    });
                }
            });
            let captured = doubled.capture();
            (input, captured)
        });
        input.send_batch([1, 2, 3]);
        input.advance_to(1);
        input.send_batch([10]);
        input.close();
        worker.step_until_done();
        let result = captured.borrow().clone();
        result
    })
    .unwrap();
    assert_eq!(results[0], vec![(0, vec![2, 4, 6]), (1, vec![20])],);
}

/// Exchanges records by parity across two workers.
#[test]
fn two_workers_exchange_by_key() {
    let results = execute(Config::single_process(2), |worker| {
        let index = worker.index();
        let (mut input, seen) = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<u64>();
            let seen = Rc::new(RefCell::new(Vec::new()));
            let sink = seen.clone();
            stream
                .unary(Pact::exchange(|x: &u64| *x), "Route", move |_info| {
                    move |input: &mut InputPort<u64>, output: &mut OutputPort<u64>| {
                        input.for_each(|time, data| {
                            sink.borrow_mut().extend(data.iter().copied());
                            output.session(time).give_vec(data);
                        });
                    }
                })
                .probe();
            (input, seen)
        });
        // Each worker feeds a disjoint slice; records route by parity.
        if index == 0 {
            input.send_batch([0, 1, 2, 3]);
        } else {
            input.send_batch([4, 5, 6, 7]);
        }
        input.close();
        worker.step_until_done();
        let mut seen = seen.borrow().clone();
        seen.sort_unstable();
        seen
    })
    .unwrap();
    assert_eq!(results[0], vec![0, 2, 4, 6], "worker 0 sees evens");
    assert_eq!(results[1], vec![1, 3, 5, 7], "worker 1 sees odds");
}

/// Two processes × two workers: serialized cross-process exchange.
#[test]
fn multi_process_exchange() {
    let results = execute(Config::processes_and_workers(2, 2), |worker| {
        let (mut input, seen) = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<u64>();
            let seen = Rc::new(RefCell::new(0u64));
            let sink = seen.clone();
            stream
                .unary(Pact::exchange(|x: &u64| *x), "Collect", move |_info| {
                    move |input: &mut InputPort<u64>, output: &mut OutputPort<u64>| {
                        input.for_each(|time, data| {
                            *sink.borrow_mut() += data.iter().sum::<u64>();
                            output.session(time).give_vec(data);
                        });
                    }
                })
                .probe();
            (input, seen)
        });
        let index = worker.index() as u64;
        input.send_batch((0..100).map(|i| i * 4 + index));
        input.close();
        worker.step_until_done();
        let sum = *seen.borrow();
        sum
    })
    .unwrap();
    // Every record arrives exactly once somewhere: total preserved.
    let total: u64 = results.iter().sum();
    let expected: u64 = (0..100u64)
        .flat_map(|i| (0..4u64).map(move |w| i * 4 + w))
        .sum();
    assert_eq!(total, expected);
    // Exchange by value: worker w received exactly values ≡ w (mod 4).
    for (w, sum) in results.iter().enumerate() {
        let expect: u64 = (0..100).map(|i| i * 4 + w as u64).sum();
        assert_eq!(*sum, expect, "worker {w} got the wrong partition");
    }
}

/// Feeds `epochs[e]` at epoch `e` — each worker its share — through one
/// exchange and returns what arrived, per epoch, in a canonical order.
fn exchange_keys<K>(config: Config, epochs: &[Vec<K>], hash: fn(&K) -> u64) -> Vec<(u64, Vec<K>)>
where
    K: ExchangeData + Ord + Sync,
{
    let count = epochs.len();
    let epochs = std::sync::Arc::new(epochs.to_vec());
    let results = execute(config, move |worker| {
        let (mut input, captured) = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<K>();
            let routed = stream.unary(Pact::exchange(hash), "Route", |_info| {
                |input: &mut InputPort<K>, output: &mut OutputPort<K>| {
                    input.for_each(|time, data| output.session(time).give_vec(data));
                }
            });
            (input, routed.capture())
        });
        for (e, keys) in epochs.iter().enumerate() {
            input.send_batch(
                keys.iter()
                    .skip(worker.index())
                    .step_by(worker.peers())
                    .cloned(),
            );
            input.advance_to(e as u64 + 1);
        }
        input.close();
        worker.step_until_done();
        let result = captured.borrow().clone();
        result
    })
    .unwrap();
    let mut merged = vec![Vec::new(); count];
    for (epoch, data) in results.into_iter().flatten() {
        merged[epoch as usize].extend(data);
    }
    merged
        .into_iter()
        .enumerate()
        .map(|(e, mut keys)| {
            keys.sort();
            (e as u64, keys)
        })
        .collect()
}

/// Integer keys cross processes as width-packed columns. Whatever width
/// an epoch's batches pack to — one byte, the type's full width, or one
/// wide key among narrow ones — two processes × two workers deliver
/// exactly the keys one worker, which never encodes, delivers: over a
/// clean fabric, and over one that drops, duplicates and delays the frames
/// on their way into the workers' mailboxes.
#[test]
fn integer_keys_cross_processes_bit_identically() {
    fn check<K: ExchangeData + Ord + Sync + std::fmt::Debug>(
        epochs: &[Vec<K>],
        hash: fn(&K) -> u64,
    ) {
        let reference = exchange_keys(Config::single_process(1), epochs, hash);
        assert!(reference.iter().all(|(_, keys)| !keys.is_empty()));
        let clean = Config::processes_and_workers(2, 2);
        let plan = FaultPlan::seeded(0x18)
            .drop_probability(0.05)
            .duplicate_probability(0.1);
        let model =
            LatencyModel::lossy(Duration::from_micros(50), 0.1, Duration::from_millis(1), 7);
        let faulted = clean.clone().faults(plan).latency(model);
        for config in [clean, faulted] {
            assert_eq!(exchange_keys(config, epochs, hash), reference);
        }
    }
    let mut rng = naiad_rng::Xorshift::new(0x6A);
    let mut random = |n: usize| -> Vec<u64> { (0..n).map(|_| rng.next_u64()).collect() };
    let wide = random(4096);
    check::<u64>(
        &[
            (0..300).collect(),
            vec![
                0xff,
                0x100,
                0xffff,
                0x1_0000,
                0xffff_ffff,
                0x1_0000_0000,
                u64::MAX,
                0,
            ],
            (0..2000)
                .map(|i| if i == 1234 { u64::MAX - 1 } else { i % 7 })
                .collect(),
            wide.clone(),
        ],
        |k| *k,
    );
    check::<i64>(
        &[
            (-150..150).collect(),
            vec![i64::MIN, i64::MAX, -1, 0, 1, -129, 128, i64::from(i32::MIN)],
            wide.iter().map(|&k| k as i64).collect(),
        ],
        |k| *k as u64,
    );
    check::<u32>(
        &[
            (0..300).collect(),
            vec![0xff, 0x100, 0xffff, 0x1_0000, u32::MAX, 0],
            wide.iter().map(|&k| k as u32).collect(),
        ],
        |k| u64::from(*k),
    );
}

/// The Figure 4 vertex: distinct records emitted from OnRecv, counts from
/// OnNotify — counts must wait for epoch completion.
#[test]
fn distinct_count_uses_notifications() {
    let results = execute(Config::single_process(2), |worker| {
        let (mut input, distinct_out, counts_out) = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<String>();
            let counts: Rc<RefCell<HashMap<u64, HashMap<String, u64>>>> =
                Rc::new(RefCell::new(HashMap::new()));
            let recv_counts = counts.clone();
            let pairs = stream.unary_notify(
                Pact::exchange(|s: &String| s.len() as u64),
                "DistinctCount",
                move |_info| {
                    (
                        move |input: &mut InputPort<String>,
                              output: &mut OutputPort<(String, u64)>,
                              notify: &naiad::dataflow::Notify| {
                            input.for_each(|time, data| {
                                let mut counts = recv_counts.borrow_mut();
                                let per_time = counts.entry(time.epoch).or_insert_with(|| {
                                    notify.notify_at(time);
                                    HashMap::new()
                                });
                                for record in data {
                                    let n = per_time.entry(record.clone()).or_insert(0);
                                    if *n == 0 {
                                        // First sighting: emit immediately.
                                        output.session(time).give((record, 0));
                                    }
                                    *n += 1;
                                }
                            });
                        },
                        move |time: Timestamp,
                              output: &mut OutputPort<(String, u64)>,
                              _notify: &naiad::dataflow::Notify| {
                            let per_time =
                                counts.borrow_mut().remove(&time.epoch).unwrap_or_default();
                            for (record, n) in per_time {
                                output.session(time).give((record, n));
                            }
                        },
                    )
                },
            );
            let distinct_out = Rc::new(RefCell::new(Vec::new()));
            let counts_out = Rc::new(RefCell::new(Vec::new()));
            let d = distinct_out.clone();
            let c = counts_out.clone();
            pairs.subscribe(move |epoch, data| {
                for (record, n) in data {
                    if n == 0 {
                        d.borrow_mut().push((epoch, record));
                    } else {
                        c.borrow_mut().push((epoch, record, n));
                    }
                }
            });
            (input, distinct_out, counts_out)
        });
        if worker.index() == 0 {
            input.send_batch(["a", "bb", "a", "bb", "a"].map(String::from));
        } else {
            input.send_batch(["bb", "ccc"].map(String::from));
        }
        input.close();
        worker.step_until_done();
        let mut d = distinct_out.borrow().clone();
        let mut c = counts_out.borrow().clone();
        d.sort();
        c.sort();
        (d, c)
    })
    .unwrap();
    // Combine both workers' partitions (exchange routes by length).
    let mut distincts: Vec<_> = results.iter().flat_map(|(d, _)| d.clone()).collect();
    let mut counts: Vec<_> = results.iter().flat_map(|(_, c)| c.clone()).collect();
    distincts.sort();
    counts.sort();
    assert_eq!(
        distincts,
        vec![
            (0, "a".to_string()),
            (0, "bb".to_string()),
            (0, "ccc".to_string())
        ]
    );
    assert_eq!(
        counts,
        vec![
            (0, "a".to_string(), 3),
            (0, "bb".to_string(), 3),
            (0, "ccc".to_string(), 1)
        ]
    );
}

/// A loop that increments records until they reach a threshold: exercises
/// ingress, feedback, egress, and progress around a cycle.
#[test]
fn loop_iterates_to_fixed_point() {
    for workers in [1, 2] {
        let results = execute(Config::single_process(workers), move |worker| {
            let (mut input, captured) = worker.dataflow(|scope| {
                let (input, stream) = scope.new_input::<u64>();
                let lc = scope.loop_context(naiad::graph::ContextId::ROOT);
                let entered = lc.enter(&stream);
                let (handle, cycle) = lc.feedback::<u64>(Some(100));
                let merged = naiad::dataflow::ops::concatenate(&entered, &cycle);
                // Records below 10 go around again incremented; others exit.
                let advanced =
                    merged.unary(Pact::exchange(|x: &u64| *x), "AdvanceSmall", |_info| {
                        |input: &mut InputPort<u64>, output: &mut OutputPort<u64>| {
                            input.for_each(|time, data| {
                                output.session(time).give_iterator(
                                    data.into_iter().filter(|x| *x < 10).map(|x| x + 1),
                                );
                            });
                        }
                    });
                let finished = merged.unary(Pact::Pipeline, "KeepDone", |_info| {
                    |input: &mut InputPort<u64>, output: &mut OutputPort<u64>| {
                        input.for_each(|time, data| {
                            output
                                .session(time)
                                .give_iterator(data.into_iter().filter(|x| *x >= 10));
                        });
                    }
                });
                handle.connect(&advanced);
                let out = lc.leave(&finished);
                let captured = out.capture();
                (input, captured)
            });
            if worker.index() == 0 {
                input.send_batch([3, 7, 12]);
            }
            input.close();
            worker.step_until_done();
            let result = captured.borrow().clone();
            result
        })
        .unwrap();
        let mut all: Vec<u64> = results
            .into_iter()
            .flatten()
            .flat_map(|(_, data)| data)
            .collect();
        all.sort_unstable();
        // 3 and 7 climb to 10; 12 passes straight through.
        assert_eq!(all, vec![10, 10, 12], "workers = {workers}");
    }
}

/// All four §3.3 progress modes compute identical results.
#[test]
fn progress_modes_agree() {
    let mut outcomes = Vec::new();
    for mode in [
        ProgressMode::Broadcast,
        ProgressMode::Local,
        ProgressMode::Global,
        ProgressMode::LocalGlobal,
    ] {
        let config = Config::processes_and_workers(2, 2).progress_mode(mode);
        let results = execute(config, |worker| {
            let (mut input, captured) = worker.dataflow(|scope| {
                let (input, stream) = scope.new_input::<u64>();
                let summed =
                    stream.unary_notify(Pact::exchange(|x: &u64| *x % 2), "SumPerEpoch", |_info| {
                        let sums: Rc<RefCell<HashMap<u64, u64>>> =
                            Rc::new(RefCell::new(HashMap::new()));
                        let recv_sums = sums.clone();
                        (
                            move |input: &mut InputPort<u64>,
                                  _output: &mut OutputPort<u64>,
                                  notify: &naiad::dataflow::Notify| {
                                input.for_each(|time, data| {
                                    notify.notify_at(time);
                                    *recv_sums.borrow_mut().entry(time.epoch).or_insert(0) +=
                                        data.iter().sum::<u64>();
                                });
                            },
                            move |time: Timestamp,
                                  output: &mut OutputPort<u64>,
                                  _notify: &naiad::dataflow::Notify| {
                                if let Some(sum) = sums.borrow_mut().remove(&time.epoch) {
                                    output.session(time).give(sum);
                                }
                            },
                        )
                    });
                let captured = summed.capture();
                (input, captured)
            });
            for epoch in 0..3u64 {
                input.send_batch((0..50).map(|i| i + 1000 * epoch + worker.index() as u64));
                if epoch < 2 {
                    input.advance_to(epoch + 1);
                }
            }
            input.close();
            worker.step_until_done();
            let data = captured.borrow().clone();
            data
        })
        .unwrap();
        let mut per_epoch: HashMap<u64, u64> = HashMap::new();
        for (epoch, sums) in results.into_iter().flatten() {
            *per_epoch.entry(epoch).or_insert(0) += sums.iter().sum::<u64>();
        }
        let mut sorted: Vec<_> = per_epoch.into_iter().collect();
        sorted.sort_unstable();
        outcomes.push((mode, sorted));
    }
    let reference = outcomes[0].1.clone();
    assert_eq!(reference.len(), 3, "three epochs with data");
    for (mode, result) in &outcomes {
        assert_eq!(result, &reference, "mode {mode:?} diverged");
    }
}

/// Probes report per-epoch completion while the computation streams.
#[test]
fn probe_tracks_epochs() {
    execute(Config::single_process(1), |worker| {
        let (mut input, probe, captured) = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<u64>();
            let out = stream.inspect(|_, _| {});
            let probe = out.probe();
            let captured = out.capture();
            (input, probe, captured)
        });
        input.send(1);
        // Wait for the input's initial pointstamp to circulate: until
        // then the local view is vacuously complete.
        worker.step_while(|| probe.done_through(0));
        assert!(!probe.done_through(0));
        input.advance_to(1);
        worker.step_while(|| !probe.done_through(0));
        assert!(probe.done_through(0));
        assert!(!probe.done_through(1));
        // The subscribe callback fires on its own notification; give it
        // its step.
        worker.step_while(|| captured.borrow().is_empty());
        assert_eq!(captured.borrow().len(), 1);
        input.send(2);
        input.close();
        worker.step_until_done();
        assert!(probe.done_through(1));
        assert_eq!(captured.borrow().len(), 2);
    })
    .unwrap();
}

/// Purge notifications (§2.4) fire without holding the frontier.
#[test]
fn purge_notifications_fire_after_frontier_passes() {
    let fired = execute(Config::single_process(1), |worker| {
        let (mut input, fired) = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<u64>();
            let fired = Rc::new(RefCell::new(Vec::new()));
            let log = fired.clone();
            stream.sink_notify(Pact::Pipeline, "Purger", move |_info| {
                (
                    move |input: &mut InputPort<u64>, notify: &naiad::dataflow::Notify| {
                        input.for_each(|time, _data| {
                            notify.notify_at_purge(time);
                        });
                    },
                    move |time: Timestamp, _notify: &naiad::dataflow::Notify| {
                        log.borrow_mut().push(time.epoch);
                    },
                )
            });
            (input, fired)
        });
        input.send(7);
        input.advance_to(1);
        input.send(8);
        input.close();
        worker.step_until_done();
        let fired = fired.borrow().clone();
        fired
    })
    .unwrap();
    assert_eq!(fired[0], vec![0, 1]);
}

/// Broadcast pact delivers a copy to every worker.
#[test]
fn broadcast_pact_reaches_every_worker() {
    let results = execute(Config::processes_and_workers(2, 1), |worker| {
        let (mut input, seen) = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<u64>();
            let seen = Rc::new(RefCell::new(Vec::new()));
            let sink = seen.clone();
            stream.sink(Pact::Broadcast, "SeeAll", move |_info| {
                move |input: &mut InputPort<u64>| {
                    input.for_each(|_, data| sink.borrow_mut().extend(data));
                }
            });
            (input, seen)
        });
        if worker.index() == 0 {
            input.send_batch([1, 2, 3]);
        }
        input.close();
        worker.step_until_done();
        let mut v = seen.borrow().clone();
        v.sort_unstable();
        v
    })
    .unwrap();
    assert_eq!(results[0], vec![1, 2, 3]);
    assert_eq!(results[1], vec![1, 2, 3]);
}

/// How one step of [`buffered_outputs_keep_record_order`]'s script hands
/// its records to the output.
#[derive(Clone, Copy)]
enum Give {
    Record,
    Iterator,
    Container,
    PortRecord,
}

/// Records given singly, from iterators and as whole containers, mixed
/// and at two interleaved times, reach a Pipeline and an Exchange
/// consumer in the order given at each time, with a batch size small
/// enough that singly given records fill and flush containers mid-script.
#[test]
fn buffered_outputs_keep_record_order() {
    let script: std::sync::Arc<Vec<(u64, Give, Vec<u64>)>> = std::sync::Arc::new(vec![
        (0, Give::Record, vec![0]),
        (0, Give::Iterator, (1..6).collect()),
        (0, Give::Container, (6..9).collect()),
        (1, Give::PortRecord, vec![9]),
        (0, Give::Record, vec![10]),
        (0, Give::Container, (11..20).collect()),
        (1, Give::Iterator, (20..23).collect()),
        (1, Give::Container, (23..25).collect()),
        (0, Give::Iterator, (25..27).collect()),
        (1, Give::Record, vec![27, 28, 29, 30, 31]),
        (0, Give::PortRecord, vec![32, 33]),
    ]);
    let given = |epoch: u64| -> Vec<u64> {
        script
            .iter()
            .filter(|(e, _, _)| *e == epoch)
            .flat_map(|(_, _, records)| records.iter().copied())
            .collect()
    };
    let expected_pipeline = vec![(0, given(0)), (1, given(1))];
    let owned_by = |worker: u64| -> Vec<(u64, Vec<u64>)> {
        let owned = |e: u64| given(e).into_iter().filter(|x| x % 2 == worker).collect();
        (0..2).map(|e| (e, owned(e))).collect()
    };

    let feed = script.clone();
    let results = execute(Config::single_process(2).batch_size(4), move |worker| {
        let script = feed.clone();
        let (mut input, pipeline, exchange) = worker.dataflow(|scope| {
            let (input, trigger) = scope.new_input::<u64>();
            let out = trigger.unary(Pact::Pipeline, "Script", move |_info| {
                move |input: &mut InputPort<u64>, output: &mut OutputPort<u64>| {
                    input.for_each(|_, _| {
                        for (epoch, how, records) in script.iter() {
                            let time = Timestamp::new(*epoch);
                            match how {
                                Give::Record => {
                                    let mut session = output.session(time);
                                    for &r in records {
                                        session.give(r);
                                    }
                                }
                                Give::Iterator => {
                                    output.session(time).give_iterator(records.iter().copied());
                                }
                                Give::Container => {
                                    output.session(time).give_container(&mut records.clone());
                                }
                                Give::PortRecord => {
                                    for &r in records {
                                        output.give(time, r);
                                    }
                                }
                            }
                        }
                    });
                }
            });
            let routed = out.unary(Pact::exchange(|x: &u64| *x), "Route", |_info| {
                |input: &mut InputPort<u64>, output: &mut OutputPort<u64>| {
                    input.for_each_batch(|time, data| output.session(time).give_container(data));
                }
            });
            (input, out.capture(), routed.capture())
        });
        if worker.index() == 0 {
            input.send(0);
        }
        input.close();
        worker.step_until_done();
        let result = (pipeline.borrow().clone(), exchange.borrow().clone());
        result
    })
    .unwrap();
    assert_eq!(results[0].0, expected_pipeline, "Pipeline consumer");
    assert!(results[1].0.is_empty(), "Pipeline stays on worker 0");
    for (w, (_, exchange)) in results.iter().enumerate() {
        assert_eq!(exchange, &owned_by(w as u64), "Exchange, worker {w}");
    }
}
