//! Synchronization shims: `parking_lot`-style ergonomics over `std::sync`
//! (`lock()` without an `unwrap` at every call site, a `try_lock` that
//! answers `Option`), plus the seam the interleaving explorer
//! ([`interleave`]) hooks into. The runtime's concurrency kernels (credit
//! cells, registries, the [`queue`] rings) and this crate's slab pool
//! lock and count through these types.
//!
//! Poisoning is deliberately ignored: worker panics are part of normal
//! control flow for the runtime's fault-injection machinery, and the
//! values guarded here (net senders, channel registries, accumulators,
//! credit ledgers, slab free lists) remain structurally valid after a
//! panicked critical section — the recovery coordinator rebuilds the
//! whole cluster anyway.
//!
//! Under `--cfg loom` every type here gains a model identity and routes
//! acquisition/blocking through the cooperative scheduler, so the
//! explorer can enumerate interleavings of code written against this
//! module without that code changing. Without an active exploration (or
//! on threads the explorer does not own) the loom build passes straight
//! through to `std`, so ordinary unit tests still run under
//! `--cfg loom`.

#[cfg(loom)]
pub mod interleave;
pub mod queue;

#[cfg(not(loom))]
mod imp {
    use std::time::Duration;

    /// Atomics pass straight through outside loom builds; their users
    /// import them from here so the loom build can substitute
    /// schedulable wrappers.
    pub use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize};

    /// A mutual-exclusion lock whose `lock` never reports poisoning.
    pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

    /// A held lock; releases on drop. A thin newtype so the loom build
    /// can substitute a guard that reports the release to the scheduler.
    pub struct MutexGuard<'a, T: ?Sized> {
        inner: std::sync::MutexGuard<'a, T>,
    }

    impl<T> Mutex<T> {
        pub fn new(value: T) -> Self {
            Mutex(std::sync::Mutex::new(value))
        }
    }

    impl<T: ?Sized> Mutex<T> {
        pub fn lock(&self) -> MutexGuard<'_, T> {
            let inner = match self.0.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            MutexGuard { inner }
        }

        /// Acquires the lock only if it is free right now. `None` means
        /// *currently held*, never poisoned — a poisoned-but-free mutex
        /// is claimed like `lock()` claims it.
        pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
            match self.0.try_lock() {
                Ok(inner) => Some(MutexGuard { inner }),
                Err(std::sync::TryLockError::Poisoned(poisoned)) => Some(MutexGuard {
                    inner: poisoned.into_inner(),
                }),
                Err(std::sync::TryLockError::WouldBlock) => None,
            }
        }
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Self {
            Mutex::new(T::default())
        }
    }

    impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.0.fmt(f)
        }
    }

    impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    /// Condition variable paired with [`Mutex`]; poison-ignoring, and
    /// timeouts answer a plain `bool` instead of a `WaitTimeoutResult`.
    #[derive(Default)]
    pub struct Condvar(std::sync::Condvar);

    impl Condvar {
        #[inline]
        pub fn new() -> Self {
            Condvar(std::sync::Condvar::new())
        }

        /// Blocks up to `timeout`; the `bool` is `true` when the wait
        /// timed out rather than being notified.
        pub fn wait_timeout<'a, T>(
            &self,
            guard: MutexGuard<'a, T>,
            timeout: Duration,
        ) -> (MutexGuard<'a, T>, bool) {
            let (inner, result) = match self.0.wait_timeout(guard.inner, timeout) {
                Ok(pair) => pair,
                Err(poisoned) => poisoned.into_inner(),
            };
            (MutexGuard { inner }, result.timed_out())
        }

        #[inline]
        pub fn notify_all(&self) {
            self.0.notify_all();
        }
    }
}

#[cfg(loom)]
mod imp {
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    use super::interleave;

    pub struct Mutex<T: ?Sized> {
        id: usize,
        inner: std::sync::Mutex<T>,
    }

    pub struct MutexGuard<'a, T: ?Sized> {
        /// `Some` while the std lock is held; the condvar protocol takes
        /// it out to sleep and `Drop` skips the model release when it is
        /// already gone.
        held: Option<std::sync::MutexGuard<'a, T>>,
        mutex: &'a Mutex<T>,
    }

    impl<T> Mutex<T> {
        pub fn new(value: T) -> Self {
            Mutex {
                id: interleave::next_object_id(),
                inner: std::sync::Mutex::new(value),
            }
        }
    }

    impl<T: ?Sized> Mutex<T> {
        fn raw_lock(&self) -> std::sync::MutexGuard<'_, T> {
            match self.inner.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            }
        }

        pub fn lock(&self) -> MutexGuard<'_, T> {
            // Model exclusivity first: among explored threads the std
            // lock below is then uncontended, so the *schedule* decides
            // who wins, not the OS.
            interleave::mutex_lock(self.id);
            MutexGuard {
                held: Some(self.raw_lock()),
                mutex: self,
            }
        }

        pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
            if !interleave::mutex_try_lock(self.id) {
                return None;
            }
            match self.inner.try_lock() {
                Ok(inner) => Some(MutexGuard {
                    held: Some(inner),
                    mutex: self,
                }),
                Err(std::sync::TryLockError::Poisoned(poisoned)) => Some(MutexGuard {
                    held: Some(poisoned.into_inner()),
                    mutex: self,
                }),
                Err(std::sync::TryLockError::WouldBlock) => {
                    // A non-model thread holds the std lock; undo the
                    // model claim and report busy.
                    interleave::mutex_unlock(self.id);
                    None
                }
            }
        }
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Self {
            Mutex::new(T::default())
        }
    }

    impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.inner.fmt(f)
        }
    }

    impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            match &self.held {
                Some(g) => g,
                None => unreachable!("guard deref after condvar handoff"),
            }
        }
    }

    impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            match &mut self.held {
                Some(g) => g,
                None => unreachable!("guard deref after condvar handoff"),
            }
        }
    }

    impl<T: ?Sized> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            if self.held.take().is_some() {
                interleave::mutex_unlock(self.mutex.id);
            }
        }
    }

    pub struct Condvar {
        id: usize,
        inner: std::sync::Condvar,
    }

    impl Default for Condvar {
        fn default() -> Self {
            Condvar::new()
        }
    }

    impl Condvar {
        pub fn new() -> Self {
            Condvar {
                id: interleave::next_object_id(),
                inner: std::sync::Condvar::new(),
            }
        }

        fn model_wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> (MutexGuard<'a, T>, bool) {
            let mutex = guard.mutex;
            // Drop the std lock, then atomically (we hold the schedule
            // token until the next yield point, so nothing runs between)
            // release the model mutex and park on the model condvar.
            drop(guard.held.take());
            let timed_out = interleave::condvar_wait(self.id, mutex.id);
            interleave::mutex_lock(mutex.id);
            (
                MutexGuard {
                    held: Some(mutex.raw_lock()),
                    mutex,
                },
                timed_out,
            )
        }

        pub fn wait_timeout<'a, T>(
            &self,
            guard: MutexGuard<'a, T>,
            timeout: Duration,
        ) -> (MutexGuard<'a, T>, bool) {
            if interleave::on_model_thread() {
                // The model ignores wall-clock durations: a timed waiter
                // is simply *rescuable* when the schedule would otherwise
                // deadlock, which models timeout expiry.
                return self.model_wait(guard);
            }
            let mut guard = guard;
            let Some(held) = guard.held.take() else {
                unreachable!("wait on a guard mid-handoff")
            };
            let mutex = guard.mutex;
            let (inner, result) = match self.inner.wait_timeout(held, timeout) {
                Ok(pair) => pair,
                Err(poisoned) => poisoned.into_inner(),
            };
            (
                MutexGuard {
                    held: Some(inner),
                    mutex,
                },
                result.timed_out(),
            )
        }

        pub fn notify_all(&self) {
            interleave::condvar_notify_all(self.id);
            self.inner.notify_all();
        }
    }

    /// Declares one schedulable atomic wrapper: same method names as the
    /// std atomic, with a yield point before every access so the
    /// explorer can interleave around the operation.
    macro_rules! model_atomic {
        ($name:ident, $std:ty, $prim:ty) => {
            pub struct $name($std);

            // The wrappers mirror the std surface their users touch, so
            // code reads the same against either build.
            impl $name {
                pub const fn new(v: $prim) -> Self {
                    $name(<$std>::new(v))
                }

                pub fn load(&self, order: Ordering) -> $prim {
                    interleave::yield_point();
                    self.0.load(order)
                }

                pub fn store(&self, v: $prim, order: Ordering) {
                    interleave::yield_point();
                    self.0.store(v, order);
                }

                pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                    interleave::yield_point();
                    self.0.swap(v, order)
                }

                pub fn fetch_add(&self, v: $prim, order: Ordering) -> $prim {
                    interleave::yield_point();
                    self.0.fetch_add(v, order)
                }

                pub fn fetch_sub(&self, v: $prim, order: Ordering) -> $prim {
                    interleave::yield_point();
                    self.0.fetch_sub(v, order)
                }

                pub fn fetch_max(&self, v: $prim, order: Ordering) -> $prim {
                    interleave::yield_point();
                    self.0.fetch_max(v, order)
                }
            }

            impl Default for $name {
                fn default() -> Self {
                    $name::new(0)
                }
            }
        };
    }

    model_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    model_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
    model_atomic!(AtomicU8, std::sync::atomic::AtomicU8, u8);
}

pub use imp::{AtomicU64, AtomicU8, AtomicUsize, Condvar, Mutex, MutexGuard};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn survives_a_poisoning_panic() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 7, "lock must recover from poisoning");
    }

    #[test]
    fn try_lock_reports_contention_and_recovers_poison() {
        let m = Mutex::new(1u32);
        {
            let _held = m.lock();
            assert!(m.try_lock().is_none(), "held lock must refuse try_lock");
        }
        match m.try_lock() {
            Some(mut g) => *g += 1,
            None => panic!("free lock must grant"),
        }
        assert_eq!(*m.lock(), 2);

        let m = Arc::new(Mutex::new(5u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison it");
        })
        .join();
        assert!(
            m.try_lock().is_some(),
            "poisoned-but-free mutex must still grant try_lock"
        );
    }

    #[test]
    fn condvar_wait_timeout_times_out_and_wakes() {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        let (g, timed_out) = cv.wait_timeout(m.lock(), Duration::from_millis(5));
        assert!(timed_out);
        assert!(!*g);
        drop(g);

        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let s2 = shared.clone();
        let t = std::thread::spawn(move || {
            let (m, cv) = (&s2.0, &s2.1);
            let mut g = m.lock();
            while !*g {
                let (g2, _) = cv.wait_timeout(g, Duration::from_secs(5));
                g = g2;
            }
            true
        });
        std::thread::sleep(Duration::from_millis(5));
        *shared.0.lock() = true;
        shared.1.notify_all();
        assert!(t.join().unwrap());
    }
}
