//! Slab-pool hygiene (DESIGN.md §16): checked-out slabs always come back,
//! come back exactly once, and a crashed-and-recovered cluster ends with
//! no slab still in flight and a bounded free list.
//!
//! The double-return hazard is impossible *by construction* — a slab's
//! storage is owned by one `BytesSlab` or one refcounted `Shared` whose
//! `Drop` runs once — so these tests assert the observable consequence:
//! under arbitrary clone/slice/drop churn the gauges always satisfy the
//! conservation law `allocs + reuses == returns + discards + in_use`.

use std::sync::Arc;

use naiad::dataflow::{InputPort, OutputPort};
use naiad::runtime::Pact;
use naiad::{Config, Execution, RecoveryOptions};
use naiad_netsim::FaultPlan;
use naiad_rng::Xorshift;
use naiad_wire::{SlabGauges, SlabPool};

/// `allocs + reuses == returns + discards + in_use`: every checkout is
/// accounted for exactly once. Violated low means a leak; violated high
/// would mean a double return.
fn assert_conserved(g: SlabGauges) {
    assert_eq!(
        g.slab_allocs + g.slab_reuses,
        g.slab_returns + g.slab_discards + g.in_use_slabs,
        "slab conservation violated: {g:?}"
    );
}

#[test]
fn dropping_an_unfrozen_slab_returns_it() {
    let pool = Arc::new(SlabPool::with_resident_cap(1 << 20));
    let mut slab = pool.get(100);
    slab.buffer()
        .extend_from_slice(b"scratch work, never frozen");
    drop(slab);
    let g = pool.gauges();
    assert_eq!(g.slab_returns, 1);
    assert_eq!(g.in_use_slabs, 0);
    assert_eq!(g.resident_slabs, 1);
    assert_conserved(g);
    // And the returned buffer is served again, not re-allocated.
    let _slab = pool.get(100);
    let g = pool.gauges();
    assert_eq!((g.slab_allocs, g.slab_reuses), (1, 1));
}

#[test]
fn clones_and_slices_return_exactly_once() {
    let pool = Arc::new(SlabPool::with_resident_cap(1 << 20));
    let mut slab = pool.get(64);
    slab.buffer().extend_from_slice(&[7u8; 64]);
    let bytes = slab.freeze();
    // Fan the refcount out hard: clones of clones, nested sub-slices.
    let mut handles = vec![bytes.clone(), bytes.slice(1..60)];
    for i in 0..30 {
        let src = handles[i % handles.len()].clone();
        let end = src.len();
        handles.push(src.slice(0..end.min(8)));
    }
    drop(bytes);
    assert_eq!(pool.gauges().slab_returns, 0, "handles still pin the slab");
    handles.clear();
    let g = pool.gauges();
    assert_eq!(g.slab_returns, 1, "one slab, one return — never more");
    assert_eq!(g.in_use_slabs, 0);
    assert_conserved(g);
}

#[test]
fn random_churn_conserves_every_slab() {
    let mut rng = Xorshift::new(0x51AB);
    let pool = Arc::new(SlabPool::with_resident_cap(256 << 10));
    let mut live: Vec<naiad_wire::Bytes> = Vec::new();
    for _ in 0..2_000 {
        match rng.below(3) {
            0 => {
                // Check out a random size class (some oversize).
                let size = 1usize << (6 + rng.below_usize(17));
                let mut slab = pool.get(size);
                slab.buffer().resize(size.min(1 << 16), 0xAB);
                live.push(slab.freeze());
            }
            1 if !live.is_empty() => {
                // Clone or sub-slice an existing handle.
                let i = rng.below_usize(live.len());
                let src = live[i].clone();
                let cut = rng.below_usize(src.len() + 1);
                live.push(src.slice(cut..));
            }
            _ if !live.is_empty() => {
                let i = rng.below_usize(live.len());
                live.swap_remove(i);
            }
            _ => {}
        }
        assert_conserved(pool.gauges());
    }
    live.clear();
    let g = pool.gauges();
    assert_eq!(g.in_use_slabs, 0, "all churn handles dropped: {g:?}");
    assert!(g.pool_resident_bytes <= 256 << 10, "cap respected: {g:?}");
    assert_conserved(g);
}

/// A worker crash mid-run (injected, then recovered by rollback) must not
/// leak slabs: the final attempt's pool ends with nothing in flight and
/// a free list within the resident cap, and its gauges still balance.
#[test]
fn recovery_from_a_crash_leaks_no_slabs() {
    const EPOCHS: u64 = 3;
    const RECORDS: u64 = 2_048;
    let report = Execution::new(
        Config::processes_and_workers(2, 2)
            .telemetry(true)
            .faults(FaultPlan::seeded(0x51AB).crash(1, 5)),
    )
    .resilient(
        RecoveryOptions::default()
            .max_attempts(4)
            .checkpoint_every(1),
    )
    .run(|worker, recovery| {
        let (mut input, probe) = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<(u64, u64)>();
            let probe = stream
                .unary(
                    Pact::exchange(|(k, _): &(u64, u64)| *k),
                    "Scatter",
                    |_info| {
                        |input: &mut InputPort<(u64, u64)>, output: &mut OutputPort<(u64, u64)>| {
                            input.for_each_batch(|time, data| {
                                output.session(time).give_container(data);
                            });
                        }
                    },
                )
                .probe();
            (input, probe)
        });
        recovery.restore_into(worker);
        let resume = recovery.resume_epoch();
        let base = worker.index() as u64;
        for (local, epoch) in (resume..EPOCHS).enumerate() {
            // Stateless dataflow: inputs are a pure function of
            // (worker, epoch), so replay regenerates them and the
            // input log is not needed for determinism.
            let mut batch: Vec<(u64, u64)> = (0..RECORDS)
                .map(|i| (base.wrapping_mul(31).wrapping_add(i), epoch))
                .collect();
            input.send_container(&mut batch);
            input.advance_to(local as u64 + 1);
            worker.step_while(|| !probe.done_through(local as u64));
            if recovery.should_checkpoint(epoch) {
                recovery.checkpoint(worker, epoch);
            }
        }
        input.close();
        worker.step_until_done();
    })
    .expect("recovery succeeds within the attempt budget");

    assert!(
        !report.phases[0].recovered_from.is_empty(),
        "the scheduled crash fired and was recovered from"
    );
    let snap = report.telemetry.expect("telemetry enabled");
    let g = snap.slab;
    assert!(
        g.slab_allocs + g.slab_reuses > 0,
        "the remote path actually exercised the pool: {g:?}"
    );
    assert_eq!(g.in_use_slabs, 0, "no slab leaked past shutdown: {g:?}");
    assert_conserved(g);
    // Default resident cap (Config knobs): 32 MiB.
    assert!(
        g.pool_resident_bytes <= 32 << 20,
        "free list within the resident cap: {g:?}"
    );
}
