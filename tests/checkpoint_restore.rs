//! Fault-tolerance round trip (§3.4): checkpoint a running computation at
//! an epoch boundary, "fail", rebuild the dataflow in a fresh cluster,
//! restore, and continue — the resumed run must match an uninterrupted
//! one exactly.

use naiad::{execute, Config, ExecuteError, Execution, RecoveryOptions, Worker};
use naiad_examples::my_share;
use naiad_operators::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{mpsc, Arc, Mutex};

/// Cross-epoch state: monotonic minimum per key. Epochs 0–2 establish
/// state; epochs 3–5 only emit improvements relative to it.
fn inputs() -> Vec<Vec<(u64, u64)>> {
    vec![
        vec![(1, 50), (2, 60), (3, 70)],
        vec![(1, 40), (2, 90)],
        vec![(3, 30)],
        vec![(1, 45), (2, 50), (3, 35)], // only (2, 50) improves
        vec![(1, 10)],
        vec![(2, 20), (3, 5)],
    ]
}

type Out = Vec<(u64, Vec<(u64, u64)>)>;

/// Runs epochs `[from, to)`, optionally restoring `snapshot` first, and
/// returns (captured outputs, checkpoint taken after the last epoch).
fn run(from: u64, to: u64, snapshot: Option<Vec<Vec<u8>>>) -> (Out, Vec<u8>) {
    run_observed(false, from, to, snapshot)
}

/// [`run`], under [`Execution::introspect`] when `observed`.
/// `snapshot` holds one blob per worker.
fn run_observed(
    observed: bool,
    from: u64,
    to: u64,
    snapshot: Option<Vec<Vec<u8>>>,
) -> (Out, Vec<u8>) {
    let all = Arc::new(inputs());
    let snapshot = Arc::new(snapshot);
    let segment = move |worker: &mut Worker| {
        let (mut input, probe, captured) = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<(u64, u64)>();
            let mins = stream.min_monotonic();
            let captured = mins.capture();
            (input, mins.probe(), captured)
        });
        if let Some(snapshot) = snapshot.as_ref() {
            worker.restore(&snapshot[worker.index()]);
        }
        // Resumed runs re-number epochs from zero; the driver offsets.
        for (local, epoch) in (from..to).enumerate() {
            for r in my_share(&all[epoch as usize], worker.index(), worker.peers()) {
                input.send(r);
            }
            input.advance_to(local as u64 + 1);
            worker.step_while(|| !probe.done_through(local as u64));
        }
        let snapshot = worker.checkpoint();
        input.close();
        worker.step_until_done();
        let result = (captured.borrow().clone(), snapshot);
        result
    };
    let config = Config::single_process(2);
    let results = if observed {
        Execution::new(config)
            .introspect()
            .run(move |worker, _| segment(worker))
            .map(|report| report.into_results())
    } else {
        execute(config, segment)
    }
    .unwrap();
    let mut merged: Out = Vec::new();
    let mut snapshot = Vec::new();
    for (cap, snap) in results {
        merged.extend(cap);
        if !snap.is_empty() {
            // Single-process: all workers share one address space, but
            // each worker snapshots only its own vertex partition; the
            // test concatenates per-worker snapshots like a process-level
            // checkpoint file would.
            snapshot.push(snap);
        }
    }
    merged.sort();
    for (_, data) in merged.iter_mut() {
        data.sort();
    }
    let combined = naiad_wire::encode_to_vec(&snapshot);
    (merged, combined)
}

fn restore_shape(bytes: &[u8]) -> Vec<Vec<u8>> {
    naiad_wire::decode_from_slice(bytes).expect("per-worker snapshot vector")
}

#[test]
fn resumed_run_matches_uninterrupted_run() {
    // Uninterrupted reference over all six epochs.
    let (reference, _) = run(0, 6, None);

    // Interrupted run: epochs 0–2, checkpoint, then a fresh cluster
    // resumes 3–5 from the snapshot.
    let (prefix, snapshot) = run(0, 3, None);
    let per_worker = restore_shape(&snapshot);
    assert_eq!(per_worker.len(), 2, "one snapshot per worker");

    // Feed each worker its own snapshot back.
    let all = Arc::new(inputs());
    let per_worker = Arc::new(per_worker);
    let results = execute(Config::single_process(2), move |worker| {
        let (mut input, probe, captured) = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<(u64, u64)>();
            let mins = stream.min_monotonic();
            let captured = mins.capture();
            (input, mins.probe(), captured)
        });
        worker.restore(&per_worker[worker.index()]);
        for (local, epoch) in (3u64..6).enumerate() {
            for r in my_share(&all[epoch as usize], worker.index(), worker.peers()) {
                input.send(r);
            }
            input.advance_to(local as u64 + 1);
            worker.step_while(|| !probe.done_through(local as u64));
        }
        input.close();
        worker.step_until_done();
        let result = captured.borrow().clone();
        result
    })
    .unwrap();
    let mut resumed: Out = results.into_iter().flatten().collect();
    resumed.sort();
    for (_, data) in resumed.iter_mut() {
        data.sort();
    }

    // Stitch: reference epochs 3..6 must equal resumed epochs 0..3.
    let tail_reference: Vec<Vec<(u64, u64)>> = (3..6)
        .map(|e| {
            let mut v: Vec<(u64, u64)> = reference
                .iter()
                .filter(|(epoch, _)| *epoch == e)
                .flat_map(|(_, d)| d.iter().copied())
                .collect();
            v.sort();
            v
        })
        .collect();
    let tail_resumed: Vec<Vec<(u64, u64)>> = (0..3)
        .map(|e| {
            let mut v: Vec<(u64, u64)> = resumed
                .iter()
                .filter(|(epoch, _)| *epoch == e)
                .flat_map(|(_, d)| d.iter().copied())
                .collect();
            v.sort();
            v
        })
        .collect();
    assert_eq!(tail_resumed, tail_reference, "restore changed the future");

    // And the prefix run saw exactly the reference's first three epochs.
    let head_reference: Vec<_> = reference.iter().filter(|(e, _)| *e < 3).cloned().collect();
    assert_eq!(prefix, head_reference);
}

/// Introspection is not part of the computation's state: a blob
/// checkpointed by an introspected run restores in a plain run, and the
/// reverse — the resumed epochs match the uninterrupted reference either
/// way.
#[test]
fn checkpoints_cross_the_introspection_boundary() {
    fn epochs(out: &Out, range: std::ops::Range<u64>) -> Vec<Vec<(u64, u64)>> {
        range
            .map(|e| {
                let mut v: Vec<(u64, u64)> = out
                    .iter()
                    .filter(|(epoch, _)| *epoch == e)
                    .flat_map(|(_, d)| d.iter().copied())
                    .collect();
                v.sort();
                v
            })
            .collect()
    }
    let (reference, _) = run(0, 6, None);
    let tail_reference = epochs(&reference, 3..6);
    for observed_first in [true, false] {
        let (_, snapshot) = run_observed(observed_first, 0, 3, None);
        let (resumed, _) = run_observed(!observed_first, 3, 6, Some(restore_shape(&snapshot)));
        assert_eq!(
            epochs(&resumed, 0..3),
            tail_reference,
            "checkpoint {} introspection, restore {} it",
            if observed_first { "with" } else { "without" },
            if observed_first { "without" } else { "with" },
        );
    }
}

/// Restoring into a structurally different dataflow must fail loudly, not
/// corrupt state.
#[test]
fn restore_rejects_mismatched_shape() {
    let (_, snapshot) = run(0, 2, None);
    let per_worker = restore_shape(&snapshot);
    let blob = Arc::new(per_worker[0].clone());
    let result = execute(Config::single_process(1), move |worker| {
        // Two stateful operators instead of one: shape mismatch.
        let (_input, _probe) = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<(u64, u64)>();
            let a = stream.min_monotonic();
            let b = a.min_monotonic();
            (input, b.probe())
        });
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            worker.restore(&blob);
        }));
        caught.is_err()
    })
    .unwrap();
    assert!(result[0], "mismatched restore must panic");
}

/// Corrupt checkpoint bytes surface as typed errors, not decoding panics.
#[test]
fn try_restore_reports_corruption() {
    use naiad::runtime::RestoreError;

    let (_, snapshot) = run(0, 2, None);
    let per_worker = Arc::new(restore_shape(&snapshot));
    let errors = execute(Config::single_process(2), move |worker| {
        let (_input, _probe) = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<(u64, u64)>();
            let mins = stream.min_monotonic();
            (input, mins.probe())
        });
        let blob = per_worker[worker.index()].clone();
        // Not a checkpoint at all.
        let garbage = worker.try_restore(b"definitely not a checkpoint");
        // A flipped payload bit fails the checksum before any state moves.
        let mut flipped = blob.clone();
        *flipped.last_mut().unwrap() ^= 1;
        let corrupt = worker.try_restore(&flipped);
        // A blob sealed as format version 3 — intact magic, length and
        // checksum — was cut by the old key hash: it is refused by
        // version, never handed to the state decoders.
        let mut sealed_v3 = blob.clone();
        sealed_v3[4..6].copy_from_slice(&3u16.to_le_bytes());
        let stale = worker.try_restore(&sealed_v3);
        // The pristine blob restores cleanly afterwards.
        let clean = worker.try_restore(&blob);
        (garbage, corrupt, stale, clean)
    })
    .unwrap();
    for (garbage, corrupt, stale, clean) in &errors {
        assert_eq!(garbage, &Err(RestoreError::BadMagic));
        assert!(matches!(
            corrupt,
            Err(RestoreError::ChecksumMismatch { .. })
        ));
        assert_eq!(stale, &Err(RestoreError::UnsupportedVersion(3)));
        assert_eq!(clean, &Ok(()));
    }
}

/// A whole-state snapshot is pinned to its worker count: loading it into
/// a different-arity cluster is the typed mismatch, because its keyed
/// partitions would silently violate the exchange contract — the rescale
/// path re-partitions instead.
#[test]
fn try_restore_rejects_worker_count_mismatch() {
    use naiad::runtime::RestoreError;

    let (_, snapshot) = run(0, 2, None);
    let per_worker = restore_shape(&snapshot);
    let blob = Arc::new(per_worker[0].clone());
    let outcomes = execute(Config::single_process(1), move |worker| {
        let (_input, _probe) = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<(u64, u64)>();
            let mins = stream.min_monotonic();
            (input, mins.probe())
        });
        worker.try_restore(&blob)
    })
    .unwrap();
    assert_eq!(
        outcomes[0],
        Err(RestoreError::PartitionCountMismatch {
            checkpointed: 2,
            restoring: 1
        })
    );
}

/// Runs epochs `[0, split)` on `from` workers and returns the captured
/// prefix plus the migration bundles for a `to`-worker successor: bundle
/// `p` holds shard `p` from every old worker, in worker order — exactly
/// what the rescale coordinator assembles.
fn run_and_shard(from: usize, to: usize, split: u64) -> (Out, Vec<Vec<Vec<u8>>>) {
    let all = Arc::new(inputs());
    let results = execute(Config::single_process(from), move |worker| {
        let (mut input, probe, captured) = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<(u64, u64)>();
            let mins = stream.min_monotonic();
            let captured = mins.capture();
            (input, mins.probe(), captured)
        });
        for epoch in 0..split {
            for r in my_share(&all[epoch as usize], worker.index(), worker.peers()) {
                input.send(r);
            }
            input.advance_to(epoch + 1);
            worker.step_while(|| !probe.done_through(epoch));
        }
        worker.step_until_closed_through(split - 1);
        let shards = worker
            .checkpoint_partitioned(to)
            .expect("keyed state shards for the new membership");
        input.close();
        worker.step_until_done();
        let result = (captured.borrow().clone(), shards);
        result
    })
    .unwrap();
    let mut merged: Out = Vec::new();
    let mut bundles = vec![Vec::new(); to];
    for (cap, shards) in results {
        merged.extend(cap);
        assert_eq!(shards.len(), to, "one shard per new worker");
        for (bundle, shard) in bundles.iter_mut().zip(shards) {
            bundle.push(shard);
        }
    }
    merged.sort();
    for (_, data) in merged.iter_mut() {
        data.sort();
    }
    (merged, bundles)
}

/// Resumes epochs `[split, 6)` on `to` workers from migration `bundles`
/// and returns the merged, sorted tail (locally renumbered from zero).
fn resume_from_shards(to: usize, split: u64, bundles: Vec<Vec<Vec<u8>>>) -> Out {
    let all = Arc::new(inputs());
    let bundles = Arc::new(bundles);
    let results = execute(Config::single_process(to), move |worker| {
        let (mut input, probe, captured) = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<(u64, u64)>();
            let mins = stream.min_monotonic();
            let captured = mins.capture();
            (input, mins.probe(), captured)
        });
        worker
            .restore_shards(&bundles[worker.index()])
            .expect("migration shards restore on the new membership");
        for (local, epoch) in (split..6).enumerate() {
            for r in my_share(&all[epoch as usize], worker.index(), worker.peers()) {
                input.send(r);
            }
            input.advance_to(local as u64 + 1);
            worker.step_while(|| !probe.done_through(local as u64));
        }
        input.close();
        worker.step_until_done();
        let result = captured.borrow().clone();
        result
    })
    .unwrap();
    let mut resumed: Out = results.into_iter().flatten().collect();
    resumed.sort();
    for (_, data) in resumed.iter_mut() {
        data.sort();
    }
    resumed
}

/// N→M migration round trips: shard keyed state on `from` workers,
/// reassemble by new owner, restore on `to` workers, and the remaining
/// epochs must match the uninterrupted reference — grow, shrink, and the
/// degenerate single-worker cases alike.
#[test]
fn partitioned_round_trip_matches_across_worker_counts() {
    let split = 3u64;
    let (reference, _) = run(0, 6, None);
    let tail_reference: Vec<Vec<(u64, u64)>> = (split..6)
        .map(|e| {
            let mut v: Vec<(u64, u64)> = reference
                .iter()
                .filter(|(epoch, _)| *epoch == e)
                .flat_map(|(_, d)| d.iter().copied())
                .collect();
            v.sort();
            v
        })
        .collect();

    let head_reference: Vec<Vec<(u64, u64)>> = (0..split)
        .map(|e| {
            let mut v: Vec<(u64, u64)> = reference
                .iter()
                .filter(|(epoch, _)| *epoch == e)
                .flat_map(|(_, d)| d.iter().copied())
                .collect();
            v.sort();
            v
        })
        .collect();

    for (from, to) in [(2usize, 3usize), (3, 2), (2, 1), (1, 2)] {
        let (prefix, bundles) = run_and_shard(from, to, split);
        let head_prefix: Vec<Vec<(u64, u64)>> = (0..split)
            .map(|e| {
                let mut v: Vec<(u64, u64)> = prefix
                    .iter()
                    .filter(|(epoch, _)| *epoch == e)
                    .flat_map(|(_, d)| d.iter().copied())
                    .collect();
                v.sort();
                v
            })
            .collect();
        assert_eq!(
            head_prefix, head_reference,
            "{from} -> {to}: prefix diverged"
        );

        let resumed = resume_from_shards(to, split, bundles);
        let tail_resumed: Vec<Vec<(u64, u64)>> = (0..(6 - split))
            .map(|e| {
                let mut v: Vec<(u64, u64)> = resumed
                    .iter()
                    .filter(|(epoch, _)| *epoch == e)
                    .flat_map(|(_, d)| d.iter().copied())
                    .collect();
                v.sort();
                v
            })
            .collect();
        assert_eq!(
            tail_resumed, tail_reference,
            "{from} -> {to}: migration changed the future"
        );
    }
}

/// Corrupt, truncated, or wrong-arity migration shards surface as typed
/// errors before any state moves: a failed restore leaves the worker
/// able to absorb the pristine bundle afterwards.
#[test]
fn restore_shards_rejects_corruption_with_typed_errors() {
    use naiad::runtime::RestoreError;

    let (_, bundles) = run_and_shard(2, 2, 3);
    let bundles = Arc::new(bundles);
    let outcomes = execute(Config::single_process(2), move |worker| {
        let (_input, _probe) = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<(u64, u64)>();
            let mins = stream.min_monotonic();
            (input, mins.probe())
        });
        let mine = bundles[worker.index()].clone();

        // Not a sealed blob at all.
        let garbage = worker.restore_shards(&[b"not a shard".to_vec(), mine[1].clone()]);
        // A flipped payload bit fails the seal's checksum.
        let mut flipped = mine.clone();
        *flipped[0].last_mut().unwrap() ^= 1;
        let corrupt = worker.restore_shards(&flipped);
        // Truncating a shard mid-payload fails before any state is
        // touched.
        let mut short = mine.clone();
        let half = short[1].len() / 2;
        short[1].truncate(half);
        let truncated = worker.restore_shards(&short);
        // The pristine bundle still restores cleanly afterwards.
        let clean = worker.restore_shards(&mine);
        (garbage, corrupt, truncated, clean)
    })
    .unwrap();
    for (garbage, corrupt, truncated, clean) in outcomes {
        assert_eq!(garbage, Err(RestoreError::BadMagic));
        assert!(matches!(
            corrupt,
            Err(RestoreError::ChecksumMismatch { .. })
        ));
        assert!(truncated.is_err(), "truncated shard must fail typed");
        assert_eq!(clean, Ok(()));
    }
}

/// A shard bundle cut for one worker count cannot restore into another:
/// the arity is sealed into every shard and checked first.
#[test]
fn restore_shards_rejects_partition_count_mismatch() {
    use naiad::runtime::RestoreError;

    // Shards cut for a 3-worker successor...
    let (_, bundles) = run_and_shard(2, 3, 3);
    let bundle = Arc::new(bundles.into_iter().next().unwrap());
    // ...offered to a 1-worker cluster.
    let outcomes = execute(Config::single_process(1), move |worker| {
        let (_input, _probe) = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<(u64, u64)>();
            let mins = stream.min_monotonic();
            (input, mins.probe())
        });
        worker.restore_shards(&bundle)
    })
    .unwrap();
    assert!(
        matches!(
            outcomes[0],
            Err(RestoreError::PartitionCountMismatch { .. })
        ),
        "got {:?}",
        outcomes[0]
    );
}

/// The records of one epoch, sorted.
fn records_at(out: &Out, epoch: u64) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = out
        .iter()
        .filter(|(e, _)| *e == epoch)
        .flat_map(|(_, d)| d.iter().copied())
        .collect();
    v.sort();
    v
}

/// A peer that runs ahead feeds epoch 1 into a worker's aggregate before
/// that worker checkpoints epoch 0. The checkpoint must hold only what
/// closed epochs folded (DESIGN.md §13), so replaying epoch 1 from it
/// emits what the first run did. The two workers are sequenced by a
/// channel handshake, not by timing.
#[test]
fn checkpoint_holds_only_what_closed_epochs_folded() {
    // Epoch 0 sets every key's minimum to 50; epoch 1 lowers each to 10.
    let first: Vec<(u64, u64)> = (0..16).map(|k| (k, 50)).collect();
    let second: Arc<Vec<(u64, u64)>> = Arc::new((0..16).map(|k| (k, 10)).collect());
    let (fed, wait_fed) = mpsc::channel::<()>();
    let wait_fed = Mutex::new(wait_fed);
    let epoch_one = second.clone();
    let results = execute(Config::single_process(2), move |worker| {
        let ahead = Rc::new(RefCell::new(0usize));
        let (mut input, probe, captured) = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<(u64, u64)>();
            let seen = ahead.clone();
            let mins = stream.min_monotonic().inspect(move |time, _| {
                *seen.borrow_mut() += usize::from(time.epoch == 1);
            });
            (input, mins.probe(), mins.capture())
        });
        for r in my_share(&first, worker.index(), worker.peers()) {
            input.send(r);
        }
        input.advance_to(1);
        worker.step_while(|| !probe.done_through(0));
        let blob = if worker.index() == 1 {
            // Checkpoint epoch 0, then run ahead with all of epoch 1.
            let blob = worker.checkpoint();
            for &r in epoch_one.iter() {
                input.send(r);
            }
            input.advance_to(2);
            fed.send(()).expect("worker 0 waits for the handshake");
            blob
        } else {
            // Checkpoint epoch 0 only once the peer's epoch 1 has reached
            // this worker's aggregate and improved a key.
            wait_fed
                .lock()
                .unwrap()
                .recv()
                .expect("worker 1 feeds epoch 1");
            worker.step_while(|| *ahead.borrow() == 0);
            let blob = worker.checkpoint();
            input.advance_to(2);
            blob
        };
        input.close();
        worker.step_until_done();
        let result = (blob, captured.borrow().clone());
        result
    })
    .unwrap();
    let (blobs, outputs): (Vec<Vec<u8>>, Vec<Out>) = results.into_iter().unzip();
    let first_run: Out = outputs.into_iter().flatten().collect();

    // Restore both checkpoints and replay epoch 1, renumbered from zero.
    let blobs = Arc::new(blobs);
    let replayed = execute(Config::single_process(2), move |worker| {
        let (mut input, captured) = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<(u64, u64)>();
            (input, stream.min_monotonic().capture())
        });
        worker.restore(&blobs[worker.index()]);
        if worker.index() == 1 {
            for &r in second.iter() {
                input.send(r);
            }
        }
        input.close();
        worker.step_until_done();
        let result = captured.borrow().clone();
        result
    })
    .unwrap();
    let replayed: Out = replayed.into_iter().flatten().collect();
    assert_eq!(
        records_at(&first_run, 1).len(),
        16,
        "epoch 1 improves every key"
    );
    assert_eq!(
        records_at(&replayed, 0),
        records_at(&first_run, 1),
        "replaying epoch 1 from the epoch-0 checkpoints changed its output"
    );
}

/// Coordinated rollback recovery (§3.4): crash a worker's process at
/// *every* possible epoch in turn; the recovered run must produce output
/// identical to the fault-free reference from its resume point onward.
#[test]
fn recovery_matches_fault_free_run_at_every_crash_epoch() {
    let total_epochs = inputs().len() as u64;
    let (reference, _) = run(0, total_epochs, None);
    let reference_by_epoch: Vec<Vec<(u64, u64)>> = (0..total_epochs)
        .map(|e| {
            let mut v: Vec<(u64, u64)> = reference
                .iter()
                .filter(|(epoch, _)| *epoch == e)
                .flat_map(|(_, d)| d.iter().copied())
                .collect();
            v.sort();
            v
        })
        .collect();

    for crash_epoch in 0..total_epochs {
        let all = Arc::new(inputs());
        let report = Execution::new(Config::single_process(2))
            .resilient(
                RecoveryOptions::default()
                    .max_attempts(3)
                    .checkpoint_every(2),
            )
            .run(move |worker, recovery| {
                let (mut input, probe, captured) = worker.dataflow(|scope| {
                    let (input, stream) = scope.new_input::<(u64, u64)>();
                    let mins = stream.min_monotonic();
                    let captured = mins.capture();
                    (input, mins.probe(), captured)
                });
                recovery.restore_into(worker);
                let resume = recovery.resume_epoch();
                for (local, epoch) in (resume..total_epochs).enumerate() {
                    if recovery.attempt() == 0 && epoch == crash_epoch && worker.index() == 1 {
                        worker.inject_crash();
                    }
                    // Replay the input log where it exists; read (and log)
                    // the source otherwise.
                    let records =
                        match recovery.logged_input::<(u64, u64)>(epoch, worker.index(), 0) {
                            Some(records) => records,
                            None => {
                                let records =
                                    my_share(&all[epoch as usize], worker.index(), worker.peers());
                                recovery.log_input(epoch, worker.index(), 0, &records);
                                records
                            }
                        };
                    for r in records {
                        input.send(r);
                    }
                    input.advance_to(local as u64 + 1);
                    worker.step_while(|| !probe.done_through(local as u64));
                    if recovery.should_checkpoint(epoch) {
                        recovery.checkpoint(worker, epoch);
                    }
                }
                input.close();
                worker.step_until_done();
                let result = (recovery.resume_epoch(), captured.borrow().clone());
                result
            })
            .expect("recovery absorbs the injected crash");

        assert_eq!(report.phases.len(), 1, "no rescale step, one phase");
        let report = report.phases.into_iter().next().unwrap();
        assert_eq!(report.attempts, 2, "crash at epoch {crash_epoch}");
        assert_eq!(
            report.recovered_from,
            vec![ExecuteError::ProcessCrashed { process: 0 }],
            "crash at epoch {crash_epoch}"
        );

        let resume = report.results[0].0;
        assert!(
            resume <= crash_epoch,
            "rolled back past the crash point: resume {resume}, crash {crash_epoch}"
        );
        let mut recovered: Out = report
            .results
            .into_iter()
            .flat_map(|(_, cap)| cap)
            .collect();
        recovered.sort();
        for local in 0..(total_epochs - resume) {
            let mut got: Vec<(u64, u64)> = recovered
                .iter()
                .filter(|(epoch, _)| *epoch == local)
                .flat_map(|(_, d)| d.iter().copied())
                .collect();
            got.sort();
            assert_eq!(
                got,
                reference_by_epoch[(resume + local) as usize],
                "crash at epoch {crash_epoch}: epoch {} diverged after recovery",
                resume + local
            );
        }
    }
}

/// Under introspection, a crashed attempt keeps the summaries of the
/// epochs it closed: the retry resumes past them and recomputes only the
/// rest, so every epoch ends with exactly one critical-path summary, and
/// the recovered results still match the fault-free run.
#[test]
fn a_crashed_attempt_keeps_the_summaries_of_its_closed_epochs() {
    const CRASH_EPOCH: u64 = 3;
    let total_epochs = inputs().len() as u64;
    let (reference, _) = run(0, total_epochs, None);
    let all = Arc::new(inputs());
    let report = Execution::new(Config::single_process(2))
        .resilient(
            RecoveryOptions::default()
                .max_attempts(3)
                .checkpoint_every(1),
        )
        .introspect()
        .run(move |worker, recovery| {
            let (mut input, probe, captured) = worker.dataflow(|scope| {
                let (input, stream) = scope.new_input::<(u64, u64)>();
                let mins = stream.min_monotonic();
                let captured = mins.capture();
                (input, mins.probe(), captured)
            });
            recovery.restore_into(worker);
            let resume = recovery.resume_epoch();
            // Logical epochs, so the retry's summaries line up with the
            // crashed attempt's.
            if resume > 0 {
                input.advance_to(resume);
            }
            for epoch in resume..total_epochs {
                if recovery.attempt() == 0 && epoch == CRASH_EPOCH && worker.index() == 1 {
                    worker.inject_crash();
                }
                let records = match recovery.logged_input::<(u64, u64)>(epoch, worker.index(), 0) {
                    Some(records) => records,
                    None => {
                        let records =
                            my_share(&all[epoch as usize], worker.index(), worker.peers());
                        recovery.log_input(epoch, worker.index(), 0, &records);
                        records
                    }
                };
                for r in records {
                    input.send(r);
                }
                // The final epoch closes via `close` below: advancing past
                // it would open an epoch with no input, which the fold
                // could summarize too.
                if epoch + 1 < total_epochs {
                    input.advance_to(epoch + 1);
                    worker.step_while(|| !probe.done_through(epoch));
                    if recovery.should_checkpoint(epoch) {
                        recovery.checkpoint(worker, epoch);
                    }
                }
            }
            input.close();
            worker.step_until_done();
            let result = (resume, captured.borrow().clone());
            result
        })
        .expect("recovery absorbs the injected crash");

    let epochs: Vec<u64> = report.summaries.iter().map(|s| s.epoch).collect();
    assert_eq!(
        epochs,
        (0..total_epochs).collect::<Vec<_>>(),
        "one summary per epoch"
    );
    let phase = &report.phases[0];
    assert_eq!(phase.attempts, 2, "the crash struck once");
    let resume = phase.results[0].0;
    assert!(
        resume > 0 && resume <= CRASH_EPOCH,
        "the retry resumes past the closed epochs, at {resume}"
    );
    let mut recovered: Out = report
        .into_results()
        .into_iter()
        .flat_map(|(_, cap)| cap)
        .collect();
    recovered.sort();
    for (_, data) in recovered.iter_mut() {
        data.sort();
    }
    let tail: Out = reference
        .into_iter()
        .filter(|(e, _)| *e >= resume)
        .collect();
    assert_eq!(
        recovered, tail,
        "recovered results diverge from the plain run"
    );
}

/// A crash that strikes while an input still buffers records (sent, not
/// yet flushed by an `advance_to`) unwinds to the typed error: dropping
/// the handle mid-unwind must not flush into the dead fabric.
#[test]
fn crash_with_buffered_input_unwinds_to_the_typed_error() {
    let outcome = execute(Config::processes_and_workers(2, 1), |worker| {
        let (mut input, _probe) = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<(u64, u64)>();
            (input, stream.min_monotonic().probe())
        });
        // Keys for both workers, so the buffer holds remote-bound records.
        for key in 0..8 {
            input.send((key, key));
        }
        if worker.index() == 0 {
            worker.inject_crash();
        }
        input.close();
        worker.step_until_done();
    });
    assert_eq!(outcome, Err(ExecuteError::ProcessCrashed { process: 0 }));
}
