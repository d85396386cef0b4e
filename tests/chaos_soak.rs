//! Deterministic chaos soak (§3.4/§3.5 robustness): composite seeded
//! fault schedules — message drops, duplicate deliveries, partition
//! windows, and scheduled process crashes — derived from 32 base seeds
//! (more via `CHAOS_SOAK_SEEDS`; `SLAB_SOAK_SEEDS` runs the same plans
//! with container-fed inputs over the slab-backed remote path). Further
//! matrices add a mid-run rescale, introspection, overload,
//! and — the composed soak — all of those layers in one run.
//!
//! The contract under chaos is binary and typed:
//!
//! * a run that completes produces output **bit-identical** to the
//!   fault-free baseline — faults may cost retries, rollbacks, and
//!   replays, but never records;
//! * a run that exhausts its attempt budget fails with a typed
//!   [`ExecuteError`], never a hang — every test body runs under a hard
//!   watchdog deadline.
//!
//! Fault plans are pure functions of the seed (asserted below), so any
//! failing seed reproduces exactly.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use naiad::dataflow::{InputPort, Notify, OutputPort};
use naiad::{
    execute, execute_with_telemetry, Config, ElasticOptions, ExecuteError, Execution, FlowConfig,
    Pact, PhaseReport, RecoveryOptions, RescaleOutcome, RescaleStep, RunReport, Scope, ShedPolicy,
    TelemetrySnapshot, Timestamp,
};
use naiad_examples::my_share;
use naiad_netsim::FaultPlan;

/// Per-epoch captured output of the keyed-min dataflow.
type Out = Vec<(u64, Vec<(u64, u64)>)>;
type Captured = Rc<RefCell<Out>>;
/// The keyed-min operator's unregistered in-flight buffer: records by
/// epoch, folded into the registered accumulator at notification.
type PendingByEpoch = Rc<RefCell<HashMap<Timestamp, Vec<(u64, u64)>>>>;

const EPOCHS: u64 = 4;
const PROCESSES: usize = 2;

fn inputs() -> Vec<Vec<(u64, u64)>> {
    vec![
        vec![
            (0, 90),
            (1, 80),
            (2, 70),
            (3, 60),
            (4, 50),
            (5, 40),
            (6, 30),
            (7, 20),
        ],
        vec![(0, 95), (1, 40), (2, 75), (3, 30), (4, 55), (5, 45)],
        vec![(0, 10), (2, 20), (6, 5), (7, 25)],
        vec![(1, 35), (3, 25), (4, 15), (5, 50), (6, 1)],
    ]
}

/// Keyed monotonic minimum, exchanged by key so both directions of every
/// cross-process link carry data. State registers for checkpointing.
///
/// Records buffer per time in `OnRecv` and fold into the registered
/// accumulator only in `OnNotify`, once the epoch is complete. That makes
/// the checkpointed state a function of *closed* epochs alone — the
/// consistency contract checkpoint/restore depends on (DESIGN.md §13).
/// Folding eagerly in `OnRecv` would let a pipelined future-epoch record
/// (a faster peer feeds epoch e+1 while this worker still awaits its
/// local view of epoch e closing) leak into the epoch-e checkpoint, and a
/// post-fault replay of e+1 against that contaminated state would drop
/// the emission the baseline made. The in-flight buffer is deliberately
/// *not* registered: replay, not the checkpoint, reconstructs it.
fn build(scope: &mut Scope) -> (naiad::InputHandle<(u64, u64)>, naiad::ProbeHandle, Captured) {
    let (input, stream) = scope.new_input::<(u64, u64)>();
    let mins = stream.unary_notify(
        Pact::exchange(|(k, _): &(u64, u64)| *k),
        "KeyedMin",
        |info| {
            let acc: Rc<RefCell<HashMap<u64, u64>>> = Rc::new(RefCell::new(HashMap::new()));
            info.register_keyed_state(acc.clone(), |k: &u64| *k);
            let pending: PendingByEpoch = Rc::new(RefCell::new(HashMap::new()));
            let recv_pending = pending.clone();
            (
                move |input: &mut InputPort<(u64, u64)>,
                      _output: &mut OutputPort<(u64, u64)>,
                      notify: &Notify| {
                    input.for_each(|time, data| {
                        let mut pending = recv_pending.borrow_mut();
                        let slot = pending.entry(time).or_insert_with(|| {
                            notify.notify_at(time);
                            Vec::new()
                        });
                        slot.extend(data);
                    });
                },
                move |time: Timestamp, output: &mut OutputPort<(u64, u64)>, _notify: &Notify| {
                    let Some(mut records) = pending.borrow_mut().remove(&time) else {
                        return;
                    };
                    // Sorted fold: at most one emission per improved key per
                    // epoch, independent of cross-sender arrival interleaving.
                    records.sort_unstable();
                    let mut acc = acc.borrow_mut();
                    let mut session = output.session(time);
                    for (k, v) in records {
                        let best = acc.entry(k).or_insert(u64::MAX);
                        if v < *best {
                            *best = v;
                            session.give((k, v));
                        }
                    }
                },
            )
        },
    );
    (input, mins.probe(), mins.capture())
}

/// Runs `f` on a helper thread and panics if it exceeds `secs`: the
/// anti-hang watchdog. A panicking closure re-raises its own panic.
fn with_deadline<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(v) => {
            let _ = handle.join();
            v
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => match handle.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("sender dropped without sending yet the closure returned"),
        },
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("chaos soak exceeded its {secs}s deadline — a run hung")
        }
    }
}

/// splitmix64: the bit mixer deriving plan parameters from a seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps 64 mixed bits onto [0, 1).
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// The composite fault plan for `seed` — a pure function of the seed:
/// always-lossy links (1–8% drops, 0–5% duplicates), sometimes a
/// partition window per direction, sometimes a scheduled crash.
fn plan_for_seed(seed: u64) -> FaultPlan {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC4A0_5CA7;
    let mut plan = FaultPlan::seeded(seed.max(1))
        .drop_probability(0.01 + 0.07 * unit(splitmix(&mut s)))
        .duplicate_probability(0.05 * unit(splitmix(&mut s)));
    for src in 0..PROCESSES {
        for dst in 0..PROCESSES {
            if src != dst && splitmix(&mut s).is_multiple_of(3) {
                let from = splitmix(&mut s) % 150;
                let until = from + 1 + splitmix(&mut s) % 120;
                plan = plan.partition(src, dst, from, until);
            }
        }
    }
    if splitmix(&mut s).is_multiple_of(2) {
        let process = (splitmix(&mut s) % PROCESSES as u64) as usize;
        let after_sends = 30 + splitmix(&mut s) % 250;
        plan = plan.crash(process, after_sends);
    }
    plan
}

/// The cluster under test: heartbeats on with tight bounds plus a stall
/// watchdog, so every failure mode the plans can produce has a detector.
fn chaos_config() -> Config {
    Config::processes_and_workers(PROCESSES, 1)
        .batch_size(8)
        .heartbeats(true)
        .heartbeat_interval(Duration::from_millis(5))
        .heartbeat_timeouts(Duration::from_millis(40), Duration::from_millis(200))
        .stall_timeout(Duration::from_secs(2))
}

/// The fault-free baseline: per-epoch sorted output.
fn baseline() -> Vec<Vec<(u64, u64)>> {
    let all = Arc::new(inputs());
    let results = execute(
        Config::processes_and_workers(PROCESSES, 1).batch_size(8),
        move |worker| {
            let (mut input, probe, captured) = worker.dataflow(build);
            for epoch in 0..EPOCHS {
                for r in my_share(&all[epoch as usize], worker.index(), worker.peers()) {
                    input.send(r);
                }
                input.advance_to(epoch + 1);
                worker.step_while(|| !probe.done_through(epoch));
            }
            input.close();
            worker.step_until_done();
            let result = captured.borrow().clone();
            result
        },
    )
    .expect("fault-free baseline");
    let merged: Out = results.into_iter().flatten().collect();
    (0..EPOCHS)
        .map(|e| {
            let mut v: Vec<(u64, u64)> = merged
                .iter()
                .filter(|(epoch, _)| *epoch == e)
                .flat_map(|(_, d)| d.iter().copied())
                .collect();
            v.sort();
            v
        })
        .collect()
}

/// One chaotic run under coordinated recovery. The driver follows the
/// standard resilient protocol: restore a snapshot if resuming, replay
/// logged inputs, checkpoint at every quiescent epoch boundary.
///
/// `batched` picks the input feed: per-record `send` (the seed matrix's
/// historical shape) or whole-container `send_container`, which rides the
/// slab-backed batch path end to end — radix-grouped containers, pooled
/// encode slabs, recycled decode containers (DESIGN.md §16). Both feeds
/// must land bit-identically on the same fault-free reference. Returns
/// the run's single phase.
fn chaos_run(seed: u64, batched: bool) -> Result<PhaseReport<(u64, Out)>, ExecuteError> {
    let all = Arc::new(inputs());
    Execution::new(chaos_config().faults(plan_for_seed(seed)))
        .resilient(
            RecoveryOptions::default()
                .max_attempts(6)
                .checkpoint_every(1),
        )
        .run(move |worker, recovery| {
            let (mut input, probe, captured) = worker.dataflow(build);
            recovery.restore_into(worker);
            let resume = recovery.resume_epoch();
            for (local, epoch) in (resume..EPOCHS).enumerate() {
                let local = local as u64;
                let records = match recovery.logged_input::<(u64, u64)>(epoch, worker.index(), 0) {
                    Some(records) => records,
                    None => {
                        let records =
                            my_share(&all[epoch as usize], worker.index(), worker.peers());
                        recovery.log_input(epoch, worker.index(), 0, &records);
                        records
                    }
                };
                if batched {
                    let mut container = records;
                    input.send_container(&mut container);
                } else {
                    for r in records {
                        input.send(r);
                    }
                }
                input.advance_to(local + 1);
                worker.step_while(|| !probe.done_through(local));
                if recovery.should_checkpoint(epoch) {
                    recovery.checkpoint(worker, epoch);
                }
            }
            input.close();
            worker.step_until_done();
            let result = (resume, captured.borrow().clone());
            result
        })
        .map(|mut report| report.phases.pop().expect("no rescale step, one phase"))
}

/// Soaks `seeds`, asserting the binary contract for each: bit-identical
/// output on success, a typed error otherwise. Returns how many seeds
/// recovered from at least one injected fault.
fn soak(seeds: std::ops::Range<u64>, reference: &[Vec<(u64, u64)>]) -> usize {
    soak_with_feed(seeds, reference, false)
}

/// The same fault plans with inputs fed as whole containers, so every
/// remote hop runs the slab-backed batch path. Output must stay
/// bit-identical to the *same* per-record reference: the data plane's
/// representation is not allowed to be observable.
fn slab_soak(seeds: std::ops::Range<u64>, reference: &[Vec<(u64, u64)>]) -> usize {
    soak_with_feed(seeds, reference, true)
}

fn soak_with_feed(
    seeds: std::ops::Range<u64>,
    reference: &[Vec<(u64, u64)>],
    batched: bool,
) -> usize {
    let mut eventful = 0;
    for seed in seeds {
        match chaos_run(seed, batched) {
            Ok(report) => {
                if !report.recovered_from.is_empty() {
                    eventful += 1;
                }
                for err in &report.recovered_from {
                    assert!(
                        matches!(
                            err,
                            ExecuteError::ProcessCrashed { .. }
                                | ExecuteError::LinkFailed { .. }
                                | ExecuteError::Stalled { .. }
                        ),
                        "seed {seed}: recovered from a non-fault error {err:?}"
                    );
                }
                assert_identical(seed, &report, reference);
            }
            Err(err) => {
                eventful += 1;
                // Exhausting the attempt budget is an acceptable outcome;
                // anything else (a worker panic, a hang converted by the
                // deadline) is a bug.
                assert!(
                    matches!(err, ExecuteError::RecoveryFailed { .. }),
                    "seed {seed}: chaos must end in recovery or a typed budget exhaustion, got {err:?}"
                );
            }
        }
    }
    eventful
}

/// Bit-identical check: merge worker captures, compare per epoch from the
/// cluster-wide resume point.
fn assert_identical(seed: u64, report: &PhaseReport<(u64, Out)>, reference: &[Vec<(u64, u64)>]) {
    let resume = report.results[0].0;
    for (r, _) in &report.results {
        assert_eq!(*r, resume, "seed {seed}: resume epoch must be cluster-wide");
    }
    let merged: Out = report
        .results
        .iter()
        .flat_map(|(_, captured)| captured.iter().cloned())
        .collect();
    for local in 0..(EPOCHS - resume) {
        let mut got: Vec<(u64, u64)> = merged
            .iter()
            .filter(|(epoch, _)| *epoch == local)
            .flat_map(|(_, d)| d.iter().copied())
            .collect();
        got.sort();
        assert_eq!(
            got,
            reference[(resume + local) as usize],
            "seed {seed}: epoch {} diverged under chaos",
            resume + local
        );
    }
}

/// The membership change seed `seed` attempts mid-run: even seeds grow
/// the cluster (2 → 4 workers across both processes), odd seeds shrink it
/// to a single worker — so the matrix soaks both directions under the
/// same fault plans as the fixed-membership soak.
fn rescale_step_for_seed(seed: u64) -> RescaleStep {
    if seed.is_multiple_of(2) {
        RescaleStep::new(2, PROCESSES, 2)
    } else {
        RescaleStep::new(2, 1, 1)
    }
}

/// One chaotic *elastic* run: the same fault plan as [`chaos_run`], with
/// a membership change fenced at epoch 2 — so scheduled crashes and
/// partition windows can strike before, during, or after the migration.
/// The driver follows the standard elastic protocol and returns each
/// attempt's resume epoch with its captures, as [`chaos_run`] does.
fn rescale_chaos_run(seed: u64) -> Result<RunReport<(u64, Out)>, ExecuteError> {
    let options = ElasticOptions::default().recovery(
        RecoveryOptions::default()
            .max_attempts(6)
            .checkpoint_every(1),
    );
    elastic_driver(
        Execution::new(chaos_config().faults(plan_for_seed(seed))).elastic(
            &[rescale_step_for_seed(seed)],
            EPOCHS,
            options,
        ),
    )
}

/// The standard elastic driver over the keyed-min dataflow: restore,
/// feed this phase's logical epochs (replaying the input log where it has
/// them), checkpoint at every boundary the session names. Each worker
/// returns its attempt's resume epoch with its captures.
fn elastic_driver(run: Execution) -> Result<RunReport<(u64, Out)>, ExecuteError> {
    let all = Arc::new(inputs());
    run.run(move |worker, session| {
        let (mut input, probe, captured) = worker.dataflow(build);
        session.restore_into(worker);
        if session.resume_epoch() > 0 {
            input.advance_to(session.resume_epoch());
        }
        for epoch in session.resume_epoch()..session.stop_epoch() {
            let records = match session.logged_input::<(u64, u64)>(epoch, worker.index(), 0) {
                Some(records) => records,
                None => {
                    let records = my_share(&all[epoch as usize], worker.index(), worker.peers());
                    session.log_input(epoch, worker.index(), 0, &records);
                    records
                }
            };
            for r in records {
                input.send(r);
            }
            input.advance_to(epoch + 1);
            worker.step_while(|| !probe.done_through(epoch));
            if session.should_checkpoint(epoch) {
                session.checkpoint(worker, epoch);
            }
        }
        input.close();
        worker.step_until_done();
        let result = (session.resume_epoch(), captured.borrow().clone());
        result
    })
}

/// Soaks the rescale-under-fault matrix: for every seed the binary
/// contract holds — a run that completes (rescale committed, aborted, or
/// rolled back) is bit-identical to the fault-free fixed-membership
/// baseline; a run that gives up fails with a typed error. Returns how
/// many seeds hit at least one fault or non-committed rescale.
fn rescale_soak(seeds: std::ops::Range<u64>, reference: &[Vec<(u64, u64)>]) -> usize {
    let mut eventful = 0;
    for seed in seeds {
        match rescale_chaos_run(seed) {
            Ok(report) => {
                let recovered: usize = report.phases.iter().map(|p| p.recovered_from.len()).sum();
                let uncommitted = report
                    .outcomes
                    .iter()
                    .filter(|o| !matches!(o, RescaleOutcome::Completed { .. }))
                    .count();
                if recovered + uncommitted > 0 {
                    eventful += 1;
                }
                for phase in &report.phases {
                    for err in &phase.recovered_from {
                        assert!(
                            matches!(
                                err,
                                ExecuteError::ProcessCrashed { .. }
                                    | ExecuteError::LinkFailed { .. }
                                    | ExecuteError::Stalled { .. }
                            ),
                            "seed {seed}: phase recovered from a non-fault error {err:?}"
                        );
                    }
                }
                assert_rescale_identical(seed, &report, reference);
            }
            Err(err) => {
                eventful += 1;
                assert!(
                    matches!(
                        err,
                        ExecuteError::RecoveryFailed { .. } | ExecuteError::RescaleFailed { .. }
                    ),
                    "seed {seed}: an elastic chaos run must end in a typed budget \
                     exhaustion or rescale failure, got {err:?}"
                );
            }
        }
    }
    eventful
}

/// Bit-identical check for elastic runs: within each committed phase,
/// compare from the successful attempt's resume point (earlier epochs
/// were delivered by a failed attempt whose captures are gone, exactly
/// as in [`assert_identical`]). The elastic driver feeds logical epochs,
/// so captured times index the reference directly.
fn assert_rescale_identical(
    seed: u64,
    report: &RunReport<(u64, Out)>,
    reference: &[Vec<(u64, u64)>],
) {
    for phase in &report.phases {
        let resume = phase.results[0].0;
        for (r, _) in &phase.results {
            assert_eq!(*r, resume, "seed {seed}: resume epoch must be phase-wide");
        }
        let merged: Out = phase
            .results
            .iter()
            .flat_map(|(_, captured)| captured.iter().cloned())
            .collect();
        for epoch in resume..phase.stop_epoch {
            let mut got: Vec<(u64, u64)> = merged
                .iter()
                .filter(|(e, _)| *e == epoch)
                .flat_map(|(_, d)| d.iter().copied())
                .collect();
            got.sort();
            assert_eq!(
                got, reference[epoch as usize],
                "seed {seed}: epoch {epoch} diverged under chaos + rescale"
            );
        }
    }
}

/// Fault plans are pure functions of the seed, and the 32-seed base
/// population actually exercises every fault class.
#[test]
fn fault_plans_are_pure_functions_of_the_seed() {
    let (mut with_crash, mut with_partition) = (0, 0);
    for seed in 0..64 {
        let a = plan_for_seed(seed);
        let b = plan_for_seed(seed);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.drop_probability.to_bits(), b.drop_probability.to_bits());
        assert_eq!(
            a.duplicate_probability.to_bits(),
            b.duplicate_probability.to_bits()
        );
        assert_eq!(a.partitions, b.partitions);
        assert_eq!(a.crashes, b.crashes);
        assert!(a.drop_probability >= 0.01, "every plan is at least lossy");
        if seed < 32 {
            with_crash += usize::from(!a.crashes.is_empty());
            with_partition += usize::from(!a.partitions.is_empty());
        }
    }
    assert!(with_crash > 4, "crash coverage too thin: {with_crash}/32");
    assert!(
        with_partition > 4,
        "partition coverage too thin: {with_partition}/32"
    );
}

#[test]
fn chaos_soak_seeds_00_07() {
    with_deadline(300, || {
        let reference = baseline();
        soak(0..8, &reference);
    });
}

#[test]
fn chaos_soak_seeds_08_15() {
    with_deadline(300, || {
        let reference = baseline();
        soak(8..16, &reference);
    });
}

#[test]
fn chaos_soak_seeds_16_23() {
    with_deadline(300, || {
        let reference = baseline();
        soak(16..24, &reference);
    });
}

/// The last base batch also checks the population was eventful: across
/// its seeds at least one run had to recover from an injected fault
/// (the per-seed plans are deterministic, so this cannot flake).
#[test]
fn chaos_soak_seeds_24_31() {
    with_deadline(300, || {
        let reference = baseline();
        let eventful = soak(24..32, &reference);
        assert!(
            eventful > 0,
            "no seed in 24..32 injected a recoverable fault — the soak is not soaking"
        );
    });
}

/// Base slab-path batch: the same fault plans as seeds 24..32 (the
/// eventful batch), fed through whole containers so drops, duplicates,
/// partitions, and crashes strike slab-encoded frames — and the output
/// still lands bit-identical on the per-record reference.
#[test]
fn slab_soak_base_seeds() {
    with_deadline(300, || {
        let reference = baseline();
        let eventful = slab_soak(24..32, &reference);
        assert!(
            eventful > 0,
            "no slab-path seed injected a recoverable fault — the soak is not soaking"
        );
    });
}

/// CI's extended slab soak: `SLAB_SOAK_SEEDS=n` runs `n` extra seeds of
/// the container-fed matrix past the base batch. A no-op when unset.
#[test]
fn extended_slab_soak_honours_env() {
    let extra: u64 = std::env::var("SLAB_SOAK_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    if extra == 0 {
        return;
    }
    with_deadline(120 + 40 * extra, move || {
        let reference = baseline();
        slab_soak(32..32 + extra, &reference);
    });
}

#[test]
fn rescale_soak_seeds_00_07() {
    with_deadline(300, || {
        let reference = baseline();
        rescale_soak(0..8, &reference);
    });
}

#[test]
fn rescale_soak_seeds_08_15() {
    with_deadline(300, || {
        let reference = baseline();
        rescale_soak(8..16, &reference);
    });
}

#[test]
fn rescale_soak_seeds_16_23() {
    with_deadline(300, || {
        let reference = baseline();
        rescale_soak(16..24, &reference);
    });
}

/// As with the plain soak, the last base batch checks the matrix was
/// eventful: at least one seed in 24..32 forced a recovery, abort, or
/// rollback around its membership change.
#[test]
fn rescale_soak_seeds_24_31() {
    with_deadline(300, || {
        let reference = baseline();
        let eventful = rescale_soak(24..32, &reference);
        assert!(
            eventful > 0,
            "no seed in 24..32 stressed its rescale — the matrix is not soaking"
        );
    });
}

/// CI's extended rescale soak: `RESCALE_SOAK_SEEDS=n` runs `n` extra
/// seeds past the base 32. A no-op when the variable is unset.
#[test]
fn extended_rescale_soak_honours_env() {
    let extra: u64 = std::env::var("RESCALE_SOAK_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    if extra == 0 {
        return;
    }
    with_deadline(120 + 40 * extra, move || {
        let reference = baseline();
        rescale_soak(32..32 + extra, &reference);
    });
}

// --- Introspection soak ---------------------------------------------
//
// Online critical-path analysis must be observation only: a lossy run
// with introspection enabled produces output bit-identical to the
// fault-free, uninstrumented baseline.

/// A lossy-but-crashless plan for the introspection soak: drops and
/// duplicates ride the retry layer (the composed soak below adds the
/// crash).
fn introspect_plan_for_seed(seed: u64) -> FaultPlan {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1D7A_0B5E;
    FaultPlan::seeded(seed.max(1))
        .drop_probability(0.01 + 0.03 * unit(splitmix(&mut s)))
        .duplicate_probability(0.03 * unit(splitmix(&mut s)))
}

/// One lossy run under introspection; returns the per-epoch
/// sorted output plus the introspection report.
fn introspect_run(seed: u64) -> (Vec<Vec<(u64, u64)>>, RunReport<Out>) {
    let all = Arc::new(inputs());
    let config = Config::processes_and_workers(PROCESSES, 1)
        .batch_size(8)
        .faults(introspect_plan_for_seed(seed))
        .send_retries(16);
    let report = Execution::new(config)
        .introspect()
        .run(move |worker, _session| {
            let (mut input, probe, captured) = worker.dataflow(build);
            for epoch in 0..EPOCHS {
                for r in my_share(&all[epoch as usize], worker.index(), worker.peers()) {
                    input.send(r);
                }
                input.advance_to(epoch + 1);
                worker.step_while(|| !probe.done_through(epoch));
            }
            input.close();
            worker.step_until_done();
            let result = captured.borrow().clone();
            result
        })
        .expect("introspected lossy run");
    let merged: Out = report.phases[0].results.iter().flatten().cloned().collect();
    let per_epoch = (0..EPOCHS)
        .map(|e| {
            let mut v: Vec<(u64, u64)> = merged
                .iter()
                .filter(|(epoch, _)| *epoch == e)
                .flat_map(|(_, d)| d.iter().copied())
                .collect();
            v.sort();
            v
        })
        .collect();
    (per_epoch, report)
}

fn introspect_soak(seeds: std::ops::Range<u64>, reference: &[Vec<(u64, u64)>]) {
    for seed in seeds {
        let (per_epoch, report) = introspect_run(seed);
        assert_eq!(
            per_epoch, reference,
            "seed {seed}: introspected output diverges from the baseline"
        );
        // Every closed source epoch yielded a summary.
        let epochs: Vec<u64> = report.summaries.iter().map(|s| s.epoch).collect();
        for e in 0..EPOCHS {
            assert!(
                epochs.contains(&e),
                "seed {seed}: epoch {e} has no critical-path summary"
            );
        }
    }
}

/// Introspection on vs off, under seeded lossy fabrics: bit-identical
/// output, and a critical-path summary for every epoch.
#[test]
fn introspection_soak_is_bit_identical() {
    with_deadline(300, || {
        let reference = baseline();
        introspect_soak(0..4, &reference);
    });
}

/// CI's extended introspection soak: `INTROSPECT_SOAK_SEEDS=n` runs `n`
/// extra seeds past the base 4. A no-op when the variable is unset.
#[test]
fn extended_introspect_soak_honours_env() {
    let extra: u64 = std::env::var("INTROSPECT_SOAK_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    if extra == 0 {
        return;
    }
    with_deadline(120 + 40 * extra, move || {
        let reference = baseline();
        introspect_soak(4..4 + extra, &reference);
    });
}

// --- Composed soak ----------------------------------------------------
//
// Recovery × elasticity × flow control × introspection in one run: each
// layer has its own matrix above; this one runs them together, so a
// rollback happens under introspection, with credits in flight and a
// rescale fence in the plan.

/// The composite plan of composed seed `seed`, a pure function of it:
/// lossy links, one partition window, one scheduled crash.
fn composed_plan_for_seed(seed: u64) -> FaultPlan {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC04D_05ED;
    let src = (splitmix(&mut s) % PROCESSES as u64) as usize;
    let from = splitmix(&mut s) % 150;
    let until = from + 1 + splitmix(&mut s) % 120;
    let victim = (splitmix(&mut s) % PROCESSES as u64) as usize;
    FaultPlan::seeded(seed.max(1))
        .drop_probability(0.01 + 0.04 * unit(splitmix(&mut s)))
        .duplicate_probability(0.03 * unit(splitmix(&mut s)))
        .partition(src, 1 - src, from, until)
        .crash(victim, 10 + splitmix(&mut s) % 100)
}

/// One composed run: the elastic driver under the composite plan, with
/// `Block` flow control on a budget small enough that credits circulate,
/// and introspection on.
fn composed_run(seed: u64) -> Result<RunReport<(u64, Out)>, ExecuteError> {
    let config = chaos_config()
        .faults(composed_plan_for_seed(seed))
        .flow(FlowConfig::default().budget(1 << 10));
    elastic_driver(
        Execution::new(config)
            .resilient(
                RecoveryOptions::default()
                    .max_attempts(6)
                    .checkpoint_every(1),
            )
            .elastic(
                &[rescale_step_for_seed(seed)],
                EPOCHS,
                ElasticOptions::default(),
            )
            .introspect(),
    )
}

/// Soaks the composed matrix. A run that completes is bit-identical to
/// the fault-free fixed-membership baseline, ends its one fence in a typed
/// outcome, and reports exactly one critical-path summary for every epoch
/// the final attempt of each phase computed — never two for an epoch that
/// a failed attempt had already summarized. A run that gives up fails
/// typed. Returns how many seeds recovered from at least one fault.
fn composed_soak(seeds: std::ops::Range<u64>, reference: &[Vec<(u64, u64)>]) -> usize {
    let mut eventful = 0;
    for seed in seeds {
        let report = match composed_run(seed) {
            Ok(report) => report,
            Err(err) => {
                assert!(
                    matches!(
                        err,
                        ExecuteError::RecoveryFailed { .. } | ExecuteError::RescaleFailed { .. }
                    ),
                    "seed {seed}: a composed run must end in a typed budget exhaustion \
                     or rescale failure, got {err:?}"
                );
                continue;
            }
        };
        assert_rescale_identical(seed, &report, reference);
        assert!(
            matches!(
                report.outcomes[..],
                [RescaleOutcome::Completed { fence: 2, .. }
                    | RescaleOutcome::Aborted { fence: 2, .. }
                    | RescaleOutcome::RolledBack { fence: 2, .. }]
            ),
            "seed {seed}: one fence, one typed outcome, got {:?}",
            report.outcomes
        );
        let summarized: Vec<u64> = report.summaries.iter().map(|s| s.epoch).collect();
        assert!(
            summarized.windows(2).all(|w| w[0] < w[1]),
            "seed {seed}: an epoch was summarized twice: {summarized:?}"
        );
        for phase in &report.phases {
            for epoch in phase.results[0].0..phase.stop_epoch {
                assert!(
                    summarized.contains(&epoch),
                    "seed {seed}: epoch {epoch} has no critical-path summary ({summarized:?})"
                );
            }
        }
        if report.phases.iter().any(|p| !p.recovered_from.is_empty()) {
            eventful += 1;
        }
    }
    eventful
}

/// The composed base batch. Every plan schedules a crash, so the batch
/// must have rolled back at least once with every layer installed.
#[test]
fn composed_soak_base_seeds() {
    with_deadline(300, || {
        let reference = baseline();
        let eventful = composed_soak(0..8, &reference);
        assert!(
            eventful > 0,
            "no composed seed recovered from a fault — the soak is not soaking"
        );
    });
}

// --- Overload soak ---------------------------------------------------
//
// Credit-based flow control under sustained overload (DESIGN.md §15): a
// single hot exchange queue is offered load far beyond what its dawdling
// consumer drains — the producer generates batches unthrottled while the
// consumer's service rate is capped by a per-delivery sleep, so offered
// load is at least twice the drain rate on any plausible machine. The
// contract per seed:
//
// * `Block` policy: the run completes **losslessly**, no overdraft ever
//   fires at a generous credit wait, and peak in-flight data-plane bytes
//   never exceed the configured budget (the memory oracle);
// * `Shed` policy: the run completes, and the ledger accounts exactly —
//   delivered + shed == offered, record for record.
//
// The topology is chosen so exactly one credited queue exists (one
// producer, one pure-sink consumer, no downstream emission): the
// cluster-wide peak gauge then *is* the per-queue bound the budget
// promises.

/// Per-queue byte budget for the overload soak; the offered load per
/// seed is several times larger.
const OVERLOAD_BUDGET: usize = 16 << 10;
const OVERLOAD_EPOCHS: u64 = 3;

/// The seed-varied offered load: 3000–5000 records per epoch, far above
/// the budget in encoded bytes.
fn overload_records(seed: u64) -> Vec<(u64, u64)> {
    let mut s = seed ^ 0x000F_10AD;
    let count = 3_000 + splitmix(&mut s) % 2_000;
    (0..count).map(|i| (i % 97, i)).collect()
}

/// One overload run: worker 0 produces, worker 1 is a dawdling pure sink
/// (2 ms per delivery, no output). Returns the records the sink counted
/// and the telemetry snapshot with the flow gauges.
fn overload_run(seed: u64, policy: ShedPolicy) -> (u64, TelemetrySnapshot) {
    let offered = Arc::new(overload_records(seed));
    let flow = match policy {
        // Generous wait: `Block` must bound memory without ever needing
        // the overdraft escape hatch.
        ShedPolicy::Block => FlowConfig::default()
            .budget(OVERLOAD_BUDGET)
            .credit_wait(Duration::from_secs(2)),
        // Tight wait and low thresholds so the overload detector reaches
        // `Shedding` and timed-out batches actually drop.
        ShedPolicy::Shed => FlowConfig::default()
            .budget(OVERLOAD_BUDGET)
            .credit_wait(Duration::from_millis(2))
            .policy(ShedPolicy::Shed)
            .thresholds(0.05, 0.1),
    };
    let config = Config::processes_and_workers(1, 2)
        .batch_size(64)
        .flow(flow);
    let (results, snapshot) = execute_with_telemetry(config, move |worker| {
        let (mut input, probe, counted) = worker.dataflow(|scope: &mut Scope| {
            let (input, stream) = scope.new_input::<(u64, u64)>();
            let counted: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
            let sink_count = counted.clone();
            let sink = stream.unary(
                Pact::exchange(|_: &(u64, u64)| 1),
                "DawdlingSink",
                |_info| {
                    move |input: &mut InputPort<(u64, u64)>,
                          _output: &mut OutputPort<(u64, u64)>| {
                        input.for_each(|_time, data| {
                            thread::sleep(Duration::from_millis(2));
                            *sink_count.borrow_mut() += data.len() as u64;
                        });
                    }
                },
            );
            (input, sink.probe(), counted)
        });
        if worker.index() == 0 {
            for epoch in 0..OVERLOAD_EPOCHS {
                for chunk in offered.chunks(256) {
                    for r in chunk {
                        input.send(*r);
                    }
                    // Stepping between chunks lets the producer's overload
                    // detector observe the climbing gauges (the shed path
                    // reads the *sender's* state).
                    worker.step();
                }
                input.advance_to(epoch + 1);
            }
        }
        input.close();
        worker.step_while(|| !probe.done_through(OVERLOAD_EPOCHS - 1));
        worker.step_until_done();
        let count = *counted.borrow();
        count
    })
    .expect("overloaded run must complete, not wedge");
    (results.iter().sum(), snapshot)
}

/// Soaks `seeds` under both policies, asserting the overload contract.
fn overload_soak(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let offered = OVERLOAD_EPOCHS * overload_records(seed).len() as u64;

        let (delivered, snapshot) = overload_run(seed, ShedPolicy::Block);
        let flow = snapshot.flow;
        assert_eq!(delivered, offered, "seed {seed}: Block policy lost records");
        assert_eq!(
            flow.shed_records, 0,
            "seed {seed}: Block policy must not shed"
        );
        assert_eq!(
            flow.overdrafts, 0,
            "seed {seed}: a 2s credit wait against a 2ms dawdle must never time out"
        );
        assert!(
            flow.peak_in_flight_bytes <= OVERLOAD_BUDGET as u64,
            "seed {seed}: peak in-flight {} exceeds the {} budget",
            flow.peak_in_flight_bytes,
            OVERLOAD_BUDGET
        );
        assert!(
            flow.credit_waits > 0,
            "seed {seed}: the overload must actually park the producer"
        );
        assert_eq!(flow.in_flight_bytes, 0, "seed {seed}: credits must drain");

        let (delivered, snapshot) = overload_run(seed, ShedPolicy::Shed);
        let flow = snapshot.flow;
        assert_eq!(
            delivered + flow.shed_records,
            offered,
            "seed {seed}: Shed policy must account for every record exactly \
             (delivered {delivered}, shed {})",
            flow.shed_records
        );
        assert_eq!(flow.in_flight_bytes, 0, "seed {seed}: credits must drain");
    }
}

/// The base overload soak: every seed completes under both policies with
/// the memory bound held and the ledger exact.
#[test]
fn overload_soak_base_seeds() {
    with_deadline(300, || {
        overload_soak(0..2);
    });
}

/// CI's extended overload soak: `OVERLOAD_SOAK_SEEDS=n` runs `n` extra
/// seeds past the base 2. A no-op when the variable is unset.
#[test]
fn extended_overload_soak_honours_env() {
    let extra: u64 = std::env::var("OVERLOAD_SOAK_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    if extra == 0 {
        return;
    }
    with_deadline(120 + 60 * extra, move || {
        overload_soak(2..2 + extra);
    });
}

/// CI's extended soak: `CHAOS_SOAK_SEEDS=n` runs `n` extra seeds past
/// the base 32, and `n` extra composed seeds past the base 8. A no-op
/// when the variable is unset, so the default test run stays fast.
#[test]
fn extended_soak_honours_env() {
    let extra: u64 = std::env::var("CHAOS_SOAK_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    if extra == 0 {
        return;
    }
    with_deadline(120 + 80 * extra, move || {
        let reference = baseline();
        soak(32..32 + extra, &reference);
        composed_soak(8..8 + extra, &reference);
    });
}
