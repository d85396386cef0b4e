//! Intra-process ring queues for the data plane.
//!
//! `std::sync::mpsc` allocates a fresh node for every send; on the
//! exchange hot path that is one heap allocation per batch per hop,
//! which the allocation-regression harness (`tests/alloc_budget.rs`)
//! forbids. These queues are a `VecDeque` behind a mutex: the deque's ring
//! storage is *retained* across pops, so a warmed-up queue moves batches
//! with zero allocations (DESIGN.md §16).
//!
//! The API is the slice of `mpsc` the runtime uses — `send` and
//! `try_recv` — with an `Option` result instead of disconnect errors:
//! queue lifetime is governed by the worker shutdown protocol (liveness
//! watchdog + epoch fences), not by sender drops, so a disconnect signal
//! would have no consumer. Nothing blocks on a ring: a worker polls its
//! rings every step and parks on its fabric mailbox.

use std::collections::VecDeque;
use std::sync::Arc;

use super::sync::Mutex;

/// The sending handle of a ring queue; clone freely.
pub(crate) struct RingSender<T> {
    ring: Arc<Mutex<VecDeque<T>>>,
}

impl<T> Clone for RingSender<T> {
    fn clone(&self) -> Self {
        RingSender {
            ring: self.ring.clone(),
        }
    }
}

impl<T> RingSender<T> {
    /// Enqueues `value`. Never blocks and never fails; backpressure is the
    /// credit layer's job (`runtime::flow`), not the queue's.
    pub(crate) fn send(&self, value: T) {
        self.ring.lock().push_back(value);
    }
}

/// The receiving handle of a ring queue.
pub(crate) struct RingReceiver<T> {
    ring: Arc<Mutex<VecDeque<T>>>,
}

impl<T> RingReceiver<T> {
    /// Dequeues the next value if one is ready.
    pub(crate) fn try_recv(&self) -> Option<T> {
        self.ring.lock().pop_front()
    }
}

/// Creates a connected sender/receiver pair.
pub(crate) fn ring<T>() -> (RingSender<T>, RingReceiver<T>) {
    let ring = Arc::new(Mutex::new(VecDeque::new()));
    (RingSender { ring: ring.clone() }, RingReceiver { ring })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_try_recv() {
        let (tx, rx) = ring::<u32>();
        assert_eq!(rx.try_recv(), None);
        tx.send(1);
        tx.send(2);
        assert_eq!(rx.try_recv(), Some(1));
        assert_eq!(rx.try_recv(), Some(2));
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn steady_state_sends_reuse_ring_storage() {
        let (tx, rx) = ring::<u64>();
        // Warm up to some capacity, then cycle: the deque never grows.
        for i in 0..64 {
            tx.send(i);
        }
        for _ in 0..64 {
            rx.try_recv().unwrap();
        }
        let cap_probe = |r: &RingReceiver<u64>| r.ring.lock().capacity();
        let warmed = cap_probe(&rx);
        for round in 0..1000u64 {
            tx.send(round);
            rx.try_recv().unwrap();
        }
        assert_eq!(cap_probe(&rx), warmed, "steady state must not reallocate");
    }
}
