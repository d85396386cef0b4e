//! A miniature loom: exhaustive, preemption-bounded exploration of
//! thread interleavings over the [`sync`](super) shims.
//!
//! Compiled only under `--cfg loom`. The workspace is dependency-free,
//! so instead of the `loom` crate this module carries its own explorer:
//! real OS threads driven by a cooperative token scheduler. Exactly one
//! thread runs at a time; every shim operation (atomic access, mutex
//! acquire/release, condvar wait/notify) is a *yield point* where the
//! scheduler may hand the token to a different runnable thread. The
//! driver enumerates schedules depth-first: each run records the choice
//! made at every yield point, and the next run replays a prefix and
//! bends the last bendable choice.
//!
//! **Preemption bounding.** Unbounded exploration of even two threads
//! with ~15 yield points each is ~C(30,15) ≈ 155M schedules. Bounding
//! the number of *involuntary* switches (taking the token from a thread
//! that could have continued) to a small constant cuts that to a few
//! thousand while still covering every bug reachable with that many
//! preemptions — most real races, including the runtime credit cell's
//! gauge-ordering race, need exactly one. Voluntary switches (the running
//! thread blocked or finished) are free.
//!
//! **Timeouts.** The model ignores wall-clock durations: every condvar
//! wait is timed (the shims offer no other), so a waiter is *rescuable* —
//! if every thread is blocked, condvar waiters are woken as timed-out,
//! which models timeout expiry without real sleeps. If no thread is
//! rescuable the schedule is a genuine deadlock and the explorer panics
//! with the choice trace as a witness.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdGuard,
    PoisonError};

thread_local! {
    /// The model-thread index of the current OS thread, if the explorer
    /// spawned it.
    static TID: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The exploration currently driving model threads, if any. Read by
/// every shim operation; `None` (or a thread with no [`TID`]) means
/// passthrough.
static ACTIVE: StdMutex<Option<Arc<Sched>>> = StdMutex::new(None);

/// Serializes explorations: the shims route through one global
/// [`ACTIVE`] slot, so two concurrent `explore` calls (cargo's parallel
/// test threads) must take turns.
static EXPLORE_SERIAL: StdMutex<()> = StdMutex::new(());

static NEXT_OBJECT: AtomicUsize = AtomicUsize::new(0);

/// A fresh model identity for a mutex or condvar.
pub(crate) fn next_object_id() -> usize {
    NEXT_OBJECT.fetch_add(1, Ordering::Relaxed)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Run {
    Runnable,
    Blocked,
    Finished,
}

struct State {
    run: Vec<Run>,
    /// The thread holding the execution token; `None` while the
    /// controller picks the next one.
    current: Option<usize>,
    /// The last thread scheduled (preemption accounting).
    prev: Option<usize>,
    preemptions: usize,
    bound: usize,
    /// Yield points consumed so far this schedule.
    step: usize,
    /// Choices to replay from the previous schedule's prefix.
    replay: Vec<usize>,
    /// `(choice index, options available)` per yield point, recorded for
    /// backtracking and as the witness trace.
    taken: Vec<(usize, usize)>,
    mutex_owner: HashMap<usize, usize>,
    mutex_waiters: HashMap<usize, Vec<usize>>,
    /// Threads parked per condvar; all can be rescued (woken as timed
    /// out) when the schedule would otherwise deadlock.
    cv_waiters: HashMap<usize, Vec<usize>>,
    /// Per-thread flag handed back by `condvar_wait`: the wake was a
    /// rescue (modeled timeout), not a notification.
    timed_out: Vec<bool>,
    rescues: usize,
    /// A model thread panicked (a real finding, or a cascading abort);
    /// the controller then force-wakes the rest so joins terminate.
    failed: bool,
    /// The controller gave up (deadlock/livelock); threads must unwind.
    shutdown: bool,
}

pub(crate) struct Sched {
    m: StdMutex<State>,
    cv: StdCondvar,
}

// lint-allow(NS0004): explorer state vectors are sized to the thread
// count at construction and indexed only by controller-issued tids.
impl Sched {
    fn new(threads: usize, bound: usize, replay: Vec<usize>) -> Self {
        Sched {
            m: StdMutex::new(State {
                run: vec![Run::Runnable; threads],
                current: None,
                prev: None,
                preemptions: 0,
                bound,
                step: 0,
                replay,
                taken: Vec::new(),
                mutex_owner: HashMap::new(),
                mutex_waiters: HashMap::new(),
                cv_waiters: HashMap::new(),
                timed_out: vec![false; threads],
                rescues: 0,
                failed: false,
                shutdown: false,
            }),
            cv: StdCondvar::new(),
        }
    }

    fn state(&self) -> StdGuard<'_, State> {
        self.m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks the calling model thread until the controller grants it
    /// the token (or shuts the exploration down).
    fn wait_for_grant<'a>(&'a self, mut st: StdGuard<'a, State>, tid: usize) -> StdGuard<'a, State> {
        loop {
            if st.shutdown {
                drop(st);
                panic!("interleave: exploration shut down");
            }
            if st.current == Some(tid) {
                return st;
            }
            st = match self.cv.wait(st) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Yield point: hand the token back and wait to be rescheduled.
    fn pause(&self, tid: usize) {
        let mut st = self.state();
        if st.current != Some(tid) {
            // Shim op on a model thread the controller has not granted
            // yet (e.g. inside thread-startup glue): wait for the first
            // grant instead of yielding one we do not hold.
            let _st = self.wait_for_grant(st, tid);
            return;
        }
        st.current = None;
        self.cv.notify_all();
        let _st = self.wait_for_grant(st, tid);
    }

    /// Marks the calling thread blocked (caller already registered it on
    /// a waiter list), releases the token, and waits to be rescheduled.
    fn block<'a>(&'a self, mut st: StdGuard<'a, State>, tid: usize) -> StdGuard<'a, State> {
        st.run[tid] = Run::Blocked;
        st.current = None;
        self.cv.notify_all();
        self.wait_for_grant(st, tid)
    }

    /// The controller loop: waits for the token to come home, picks the
    /// next runnable thread (replaying recorded choices, then defaulting
    /// to "continue the previous thread"), and records every decision.
    fn drive(&self) -> Result<Vec<(usize, usize)>, String> {
        let mut st = self.state();
        let mut iterations = 0usize;
        loop {
            while st.current.is_some() {
                st = match self.cv.wait(st) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
            if st.run.iter().all(|r| *r == Run::Finished) {
                return Ok(st.taken.clone());
            }
            iterations += 1;
            if iterations > 200_000 {
                st.shutdown = true;
                self.cv.notify_all();
                return Err("interleave: schedule exceeded 200k steps (livelock?)".into());
            }
            let mut options: Vec<usize> = (0..st.run.len())
                .filter(|&t| st.run[t] == Run::Runnable)
                .collect();
            if options.is_empty() {
                if !self.rescue(&mut st) {
                    let trace = st.taken.clone();
                    st.shutdown = true;
                    self.cv.notify_all();
                    return Err(format!(
                        "interleave: deadlock — all threads blocked, none rescuable \
                         (witness schedule {trace:?})"
                    ));
                }
                continue;
            }
            // Continuing the previous thread is choice 0 (free); any
            // other pick while it could continue costs a preemption.
            let prev_runnable = match st.prev {
                Some(p) => {
                    if let Some(pos) = options.iter().position(|&t| t == p) {
                        options.remove(pos);
                        options.insert(0, p);
                        true
                    } else {
                        false
                    }
                }
                None => false,
            };
            if prev_runnable && st.preemptions >= st.bound {
                options.truncate(1);
            }
            let choice = if st.step < st.replay.len() {
                st.replay[st.step]
            } else {
                0
            };
            if choice >= options.len() {
                let trace = st.taken.clone();
                st.shutdown = true;
                self.cv.notify_all();
                return Err(format!(
                    "interleave: replay diverged at step {} (choice {choice} of {} options, \
                     prefix {trace:?})",
                    st.step,
                    options.len()
                ));
            }
            let tid = options[choice];
            if prev_runnable && choice != 0 {
                st.preemptions += 1;
            }
            st.step += 1;
            st.taken.push((choice, options.len()));
            st.prev = Some(tid);
            st.current = Some(tid);
            self.cv.notify_all();
        }
    }

    /// Wakes blocked threads when nothing is runnable: every condvar
    /// waiter wakes as timed-out (modeled timeout expiry), which also
    /// lets a run unwind after a thread panic. Returns whether anyone
    /// woke.
    fn rescue(&self, st: &mut State) -> bool {
        st.rescues += 1;
        if st.rescues > 1_000 {
            return false;
        }
        let waiters: Vec<usize> = st.cv_waiters.drain().flat_map(|(_, ws)| ws).collect();
        for &tid in &waiters {
            st.run[tid] = Run::Runnable;
            st.timed_out[tid] = true;
        }
        !waiters.is_empty()
    }
}

/// Restores scheduler invariants when a model thread exits — normally or
/// by panic. On panic it releases the thread's model mutexes (their
/// state is torn, but the run is aborting and the payload is re-thrown)
/// so the surviving threads can unwind instead of deadlocking the join.
struct Finisher {
    sched: Arc<Sched>,
    tid: usize,
}

// lint-allow(NS0004): indices are controller-issued tids, in range by
// construction.
impl Drop for Finisher {
    fn drop(&mut self) {
        let mut st = self.sched.state();
        st.run[self.tid] = Run::Finished;
        if std::thread::panicking() && !st.shutdown {
            st.failed = true;
            let owned: Vec<usize> = st
                .mutex_owner
                .iter()
                .filter(|&(_, &owner)| owner == self.tid)
                .map(|(&id, _)| id)
                .collect();
            for id in owned {
                st.mutex_owner.remove(&id);
                if let Some(ws) = st.mutex_waiters.remove(&id) {
                    for w in ws {
                        st.run[w] = Run::Runnable;
                    }
                }
            }
        }
        if st.current == Some(self.tid) {
            st.current = None;
        }
        self.sched.cv.notify_all();
    }
}

/// The exploration's scheduler handle for the calling thread, when it is
/// a model thread of an active exploration.
fn scheduler() -> Option<(Arc<Sched>, usize)> {
    let tid = TID.with(Cell::get)?;
    let sched = ACTIVE
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()?;
    Some((sched, tid))
}

/// Whether the calling thread is owned by an active exploration.
pub(crate) fn on_model_thread() -> bool {
    scheduler().is_some()
}

/// A plain schedule point: the shims call this before every atomic
/// access. No-op off the model.
pub(crate) fn yield_point() {
    if let Some((sched, tid)) = scheduler() {
        sched.pause(tid);
    }
}

/// Model-acquires mutex `id`, blocking (in model time) while held.
pub(crate) fn mutex_lock(id: usize) {
    let Some((sched, tid)) = scheduler() else {
        return;
    };
    loop {
        sched.pause(tid);
        let mut st = sched.state();
        if st.mutex_owner.contains_key(&id) {
            st.mutex_waiters.entry(id).or_default().push(tid);
            drop(sched.block(st, tid));
            // Woken by the release; loop and race the other waiters
            // (the schedule decides who wins).
        } else {
            st.mutex_owner.insert(id, tid);
            return;
        }
    }
}

/// Model-acquires mutex `id` only if free right now. Off-model this
/// answers `true` (the std try_lock decides).
pub(crate) fn mutex_try_lock(id: usize) -> bool {
    let Some((sched, tid)) = scheduler() else {
        return true;
    };
    sched.pause(tid);
    let mut st = sched.state();
    if st.mutex_owner.contains_key(&id) {
        false
    } else {
        st.mutex_owner.insert(id, tid);
        true
    }
}

/// Model-releases mutex `id` and wakes its waiters; the release is a
/// schedule point.
// lint-allow(NS0004): waiter tids come off the scheduler's own lists,
// in range by construction.
pub(crate) fn mutex_unlock(id: usize) {
    let Some((sched, tid)) = scheduler() else {
        return;
    };
    {
        let mut st = sched.state();
        st.mutex_owner.remove(&id);
        if let Some(ws) = st.mutex_waiters.remove(&id) {
            for w in ws {
                st.run[w] = Run::Runnable;
            }
        }
    }
    sched.pause(tid);
}

/// Atomically (under the schedule token) releases mutex `mutex_id` and
/// parks on condvar `cv_id`. Returns whether the wake was a modeled
/// timeout. The caller re-acquires the mutex afterwards.
// lint-allow(NS0004): tids come off the scheduler's own lists, in range
// by construction.
pub(crate) fn condvar_wait(cv_id: usize, mutex_id: usize) -> bool {
    let Some((sched, tid)) = scheduler() else {
        return false;
    };
    let mut st = sched.state();
    st.mutex_owner.remove(&mutex_id);
    if let Some(ws) = st.mutex_waiters.remove(&mutex_id) {
        for w in ws {
            st.run[w] = Run::Runnable;
        }
    }
    st.cv_waiters.entry(cv_id).or_default().push(tid);
    st.timed_out[tid] = false;
    let mut st = sched.block(st, tid);
    let timed_out = st.timed_out[tid];
    st.timed_out[tid] = false;
    timed_out
}

/// Model-notifies every waiter on condvar `cv_id`; a schedule point.
// lint-allow(NS0004): woken tids come off the scheduler's own lists, in
// range by construction.
pub(crate) fn condvar_notify_all(cv_id: usize) {
    let Some((sched, tid)) = scheduler() else {
        return;
    };
    sched.pause(tid);
    let mut st = sched.state();
    for w in st.cv_waiters.remove(&cv_id).unwrap_or_default() {
        st.run[w] = Run::Runnable;
    }
}

/// Exploration parameters.
pub(crate) struct Explore {
    /// Involuntary context switches allowed per schedule.
    pub(crate) preemption_bound: usize,
    /// Hard cap on schedules explored (runaway-state-space backstop).
    pub(crate) max_schedules: usize,
}

impl Default for Explore {
    fn default() -> Self {
        Explore {
            preemption_bound: 2,
            max_schedules: 100_000,
        }
    }
}

/// Runs `factory`'s threads under every schedule reachable within the
/// default preemption bound. Panics (with the witness trace) if any
/// schedule panics or deadlocks. Returns the number of schedules
/// explored.
pub fn explore(factory: impl Fn() -> Vec<Box<dyn FnOnce() + Send>>) -> usize {
    explore_with(&Explore::default(), factory)
}

/// [`explore`] with explicit parameters.
pub(crate) fn explore_with(
    opts: &Explore,
    factory: impl Fn() -> Vec<Box<dyn FnOnce() + Send>>,
) -> usize {
    let _serial = EXPLORE_SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let mut replay: Vec<usize> = Vec::new();
    let mut schedules = 0usize;
    loop {
        let taken = run_schedule(opts, &replay, factory());
        schedules += 1;
        assert!(
            schedules < opts.max_schedules,
            "interleave: {schedules} schedules without exhausting the space \
             (raise max_schedules or lower the preemption bound)"
        );
        // Depth-first backtrack: bend the deepest bendable choice.
        let mut prefix = taken;
        loop {
            match prefix.pop() {
                None => return schedules,
                Some((idx, n)) if idx + 1 < n => {
                    prefix.push((idx + 1, n));
                    break;
                }
                Some(_) => {}
            }
        }
        replay = prefix.iter().map(|&(idx, _)| idx).collect();
    }
}

fn run_schedule(
    opts: &Explore,
    replay: &[usize],
    bodies: Vec<Box<dyn FnOnce() + Send>>,
) -> Vec<(usize, usize)> {
    let sched = Arc::new(Sched::new(bodies.len(), opts.preemption_bound, replay.to_vec()));
    *ACTIVE.lock().unwrap_or_else(PoisonError::into_inner) = Some(sched.clone());
    let handles: Vec<_> = bodies
        .into_iter()
        .enumerate()
        .map(|(tid, body)| {
            let sched = sched.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("loom-{tid}"))
                .spawn(move || {
                    TID.with(|slot| slot.set(Some(tid)));
                    let _finisher = Finisher {
                        sched: sched.clone(),
                        tid,
                    };
                    {
                        let st = sched.state();
                        drop(sched.wait_for_grant(st, tid));
                    }
                    body();
                });
            match spawned {
                Ok(handle) => handle,
                Err(e) => panic!("interleave: thread spawn failed: {e}"),
            }
        })
        .collect();
    let drive_result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sched.drive()));
    let mut thread_payload = None;
    for handle in handles {
        if let Err(payload) = handle.join() {
            if thread_payload.is_none() {
                thread_payload = Some(payload);
            }
        }
    }
    *ACTIVE.lock().unwrap_or_else(PoisonError::into_inner) = None;
    let failed = sched.state().failed;
    if failed {
        if let Some(payload) = thread_payload {
            // A model thread's own assertion is the finding; re-throw it
            // over any secondary controller error.
            std::panic::resume_unwind(payload);
        }
    }
    match drive_result {
        Ok(Ok(taken)) => {
            if let Some(payload) = thread_payload {
                std::panic::resume_unwind(payload);
            }
            taken
        }
        Ok(Err(msg)) => panic!("{msg}"),
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering};

    use crate::sync::{AtomicU64, Condvar, Mutex};

    /// Two threads incrementing through a model mutex: every schedule
    /// must end at 2, and with two yield-heavy bodies the bounded DFS
    /// still visits more than one schedule.
    #[test]
    fn loom_mutex_exclusion_across_all_schedules() {
        let schedules = explore(|| {
            let counter = std::sync::Arc::new(Mutex::new(0u32));
            let done = std::sync::Arc::new(StdAtomicUsize::new(0));
            (0..2)
                .map(|_| {
                    let counter = counter.clone();
                    let done = done.clone();
                    Box::new(move || {
                        let mut g = counter.lock();
                        let v = *g;
                        *g = v + 1;
                        drop(g);
                        if done.fetch_add(1, Ordering::SeqCst) == 1 {
                            assert_eq!(*counter.lock(), 2, "lost update");
                        }
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect()
        });
        assert!(schedules > 1, "explorer must branch, got {schedules}");
    }

    /// A torn non-atomic-style update through *separate* shim atomics
    /// (read, then write) IS found: some schedule loses an update, and
    /// the explorer surfaces the assertion. This is the explorer's
    /// self-test that it actually interleaves at shim granularity.
    #[test]
    fn loom_explorer_finds_a_seeded_lost_update() {
        let found = std::panic::catch_unwind(|| {
            explore(|| {
                let cell = std::sync::Arc::new(AtomicU64::new(0));
                let done = std::sync::Arc::new(StdAtomicUsize::new(0));
                (0..2)
                    .map(|_| {
                        let cell = cell.clone();
                        let done = done.clone();
                        Box::new(move || {
                            // Deliberately racy read-modify-write.
                            let v = cell.load(Ordering::SeqCst);
                            cell.store(v + 1, Ordering::SeqCst);
                            if done.fetch_add(1, Ordering::SeqCst) == 1 {
                                assert_eq!(
                                    cell.load(Ordering::SeqCst),
                                    2,
                                    "seeded lost update"
                                );
                            }
                        }) as Box<dyn FnOnce() + Send>
                    })
                    .collect()
            });
        });
        assert!(
            found.is_err(),
            "the seeded read/store race must be caught by some schedule"
        );
    }

    /// Condvar protocol under the model: a consumer parks, a producer
    /// flips the flag and notifies; every schedule terminates and the
    /// consumer always observes the flag.
    #[test]
    fn loom_condvar_handshake_terminates_everywhere() {
        explore(|| {
            let shared = std::sync::Arc::new((Mutex::new(false), Condvar::new()));
            let consumer = shared.clone();
            let producer = shared;
            vec![
                Box::new(move || {
                    let (m, cv) = (&consumer.0, &consumer.1);
                    let mut g = m.lock();
                    while !*g {
                        let (g2, _timed_out) =
                            cv.wait_timeout(g, std::time::Duration::from_secs(1));
                        g = g2;
                    }
                }) as Box<dyn FnOnce() + Send>,
                Box::new(move || {
                    let (m, cv) = (&producer.0, &producer.1);
                    *m.lock() = true;
                    cv.notify_all();
                }) as Box<dyn FnOnce() + Send>,
            ]
        });
    }

    /// SlabPool conservation under concurrent returns: two pooled
    /// payloads dropped from two threads — in every interleaving the
    /// pool ends with nothing in use and both buffers accounted for
    /// (returned or discarded), never double-returned. The pool locks
    /// and counts through the [`sync`](crate::sync) shims, so every
    /// free-list lock and counter update is a schedule point.
    #[test]
    fn loom_slab_pool_returns_exactly_once() {
        let schedules = explore(|| {
            let pool = std::sync::Arc::new(crate::SlabPool::default());
            let a = {
                let mut slab = pool.get(64);
                slab.buffer().extend_from_slice(&[1u8; 16]);
                slab.freeze()
            };
            let b = {
                let mut slab = pool.get(64);
                slab.buffer().extend_from_slice(&[2u8; 16]);
                slab.freeze()
            };
            let pool_after = pool.clone();
            let done = std::sync::Arc::new(StdAtomicUsize::new(0));
            let done2 = done.clone();
            vec![
                Box::new(move || {
                    drop(a);
                    if done.fetch_add(1, Ordering::SeqCst) == 1 {
                        check_conserved(&pool_after);
                    }
                }) as Box<dyn FnOnce() + Send>,
                Box::new(move || {
                    drop(b);
                    if done2.fetch_add(1, Ordering::SeqCst) == 1 {
                        check_conserved(&pool);
                    }
                }) as Box<dyn FnOnce() + Send>,
            ]
        });
        assert!(schedules > 1, "explorer must branch, got {schedules}");
    }

    fn check_conserved(pool: &crate::SlabPool) {
        let g = pool.gauges();
        assert_eq!(g.in_use_slabs, 0, "every checkout must be closed");
        assert_eq!(
            g.slab_returns + g.slab_discards,
            2,
            "each buffer returns or discards exactly once: {g:?}"
        );
        assert_eq!(g.resident_slabs, g.slab_returns, "free lists match returns");
    }
}
