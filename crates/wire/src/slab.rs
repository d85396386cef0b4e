//! Pool-recycled byte slabs for the zero-copy data plane.
//!
//! Every remote batch the runtime emits is serialized into a byte buffer
//! that lives exactly as long as the fabric and the receiving endpoint
//! need it. Allocating that buffer fresh per batch made allocation count
//! scale with traffic (DESIGN.md §16); a [`SlabPool`] breaks the link by
//! recycling buffers through size-classed free lists. A [`BytesSlab`] is
//! a writable arena checked out of the pool; freezing it yields a
//! [`Bytes`](crate::Bytes) whose *last* clone returns the backing buffer
//! to the pool when dropped. Double-return is impossible by construction:
//! the buffer is moved out of the shared allocation exactly once, inside
//! `Drop`.
//!
//! The pool is all safe code, honouring the workspace-wide
//! `forbid(unsafe_code)`: recycling is `Mutex<Vec<Vec<u8>>>` free lists,
//! sharing is `Arc`, and the return path is an ordinary `Drop` impl. The
//! locks and counters are the [`sync`](crate::sync) shims, so under
//! `--cfg loom` the interleaving explorer schedules around each of them.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::sync::{AtomicU64, AtomicUsize, Mutex, MutexGuard};
use crate::Bytes;

/// Capacity of the smallest size class (4 KiB).
const MIN_CLASS_BYTES: usize = 1 << 12;
/// Capacity of the largest pooled size class (4 MiB); larger slabs are
/// handed out exactly sized and dropped on return instead of pooled.
const MAX_CLASS_BYTES: usize = 1 << 22;
/// Number of power-of-two size classes between the bounds above.
const CLASSES: usize = (MAX_CLASS_BYTES / MIN_CLASS_BYTES).trailing_zeros() as usize + 1;

/// Point-in-time counters for one [`SlabPool`] (telemetry surface; the
/// runtime folds these into its snapshot as `SlabGauges`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlabGauges {
    /// Slabs allocated fresh because no pooled buffer fit.
    pub slab_allocs: u64,
    /// Slabs served from a free list instead of the allocator.
    pub slab_reuses: u64,
    /// Buffers returned to a free list.
    pub slab_returns: u64,
    /// Buffers dropped on return (over the resident cap or oversized).
    pub slab_discards: u64,
    /// Bytes currently held in free lists, ready for reuse.
    pub pool_resident_bytes: u64,
    /// Buffers currently held in free lists.
    pub resident_slabs: u64,
    /// Slabs checked out and not yet returned or discarded.
    pub in_use_slabs: u64,
}

/// A per-process pool of reusable byte buffers, size-classed by powers of
/// two from 4 KiB to 4 MiB.
///
/// `get` serves the smallest class that fits (allocating only on a pool
/// miss); buffers come back automatically when the last
/// [`Bytes`](crate::Bytes) clone referencing them drops, or when an
/// unfrozen [`BytesSlab`] drops. Free-list growth is bounded by the
/// resident-byte cap: returns past the cap are dropped, so a traffic
/// spike cannot permanently pin its high-water mark in memory.
pub struct SlabPool {
    classes: [Mutex<Vec<Vec<u8>>>; CLASSES],
    resident_bytes: AtomicUsize,
    resident_cap: usize,
    allocs: AtomicU64,
    reuses: AtomicU64,
    returns: AtomicU64,
    discards: AtomicU64,
    in_use: AtomicU64,
}

impl Default for SlabPool {
    fn default() -> Self {
        // 32 MiB of resident slack: enough to absorb the steady-state
        // working set of every in-repo benchmark without pinning a
        // burst's worth of slabs forever.
        SlabPool::with_resident_cap(32 << 20)
    }
}

impl SlabPool {
    /// A pool that keeps at most `cap` bytes resident in free lists.
    pub fn with_resident_cap(cap: usize) -> Self {
        SlabPool {
            classes: std::array::from_fn(|_| Mutex::new(Vec::new())),
            resident_bytes: AtomicUsize::new(0),
            resident_cap: cap,
            allocs: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
            returns: AtomicU64::new(0),
            discards: AtomicU64::new(0),
            in_use: AtomicU64::new(0),
        }
    }

    /// The resident-byte cap the pool was built with.
    pub fn resident_cap(&self) -> usize {
        self.resident_cap
    }

    /// The smallest class index whose capacity is at least `capacity`,
    /// or `None` if the request exceeds the largest pooled class.
    fn class_for(capacity: usize) -> Option<usize> {
        if capacity > MAX_CLASS_BYTES {
            return None;
        }
        let wanted = capacity.max(MIN_CLASS_BYTES).next_power_of_two();
        Some((wanted / MIN_CLASS_BYTES).trailing_zeros() as usize)
    }

    fn free_list(&self, class: usize) -> MutexGuard<'_, Vec<Vec<u8>>> {
        self.classes[class].lock()
    }

    /// Checks a writable slab with at least `capacity_hint` bytes of room
    /// out of the pool. The hint is a sizing heuristic, not a bound: the
    /// slab grows like any `Vec` if the payload runs larger, and the
    /// grown buffer re-enters the pool at its new class on return.
    pub fn get(self: &Arc<Self>, capacity_hint: usize) -> BytesSlab {
        self.in_use.fetch_add(1, Ordering::Relaxed);
        let buf = match Self::class_for(capacity_hint) {
            Some(class) => {
                let recycled = self.free_list(class).pop();
                match recycled {
                    Some(buf) => {
                        self.reuses.fetch_add(1, Ordering::Relaxed);
                        self.resident_bytes
                            .fetch_sub(buf.capacity(), Ordering::Relaxed);
                        buf
                    }
                    None => {
                        self.allocs.fetch_add(1, Ordering::Relaxed);
                        Vec::with_capacity(MIN_CLASS_BYTES << class)
                    }
                }
            }
            None => {
                self.allocs.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(capacity_hint)
            }
        };
        BytesSlab {
            buf,
            pool: self.clone(),
            frozen: false,
        }
    }

    /// Returns a spent buffer to its size class, or drops it if it is
    /// oversized or the pool is at its resident cap. Called exactly once
    /// per checked-out slab, from `Drop` glue — never directly — which is
    /// what makes double-return unrepresentable.
    pub(crate) fn put(&self, mut buf: Vec<u8>) {
        self.in_use.fetch_sub(1, Ordering::Relaxed);
        let capacity = buf.capacity();
        if capacity == 0 {
            return;
        }
        // A grown buffer files under the largest class it can fully
        // serve (round down), so `get` never yields a smaller slab than
        // the class promises.
        let class = match Self::class_for(capacity) {
            Some(class) if (MIN_CLASS_BYTES << class) == capacity => Some(class),
            Some(class) => class.checked_sub(1),
            None => None,
        };
        let Some(class) = class else {
            self.discards.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let resident = self.resident_bytes.load(Ordering::Relaxed);
        if resident + capacity > self.resident_cap() {
            self.discards.fetch_add(1, Ordering::Relaxed);
            return;
        }
        buf.clear();
        self.resident_bytes.fetch_add(capacity, Ordering::Relaxed);
        self.returns.fetch_add(1, Ordering::Relaxed);
        self.free_list(class).push(buf);
    }

    /// Current pool counters.
    pub fn gauges(&self) -> SlabGauges {
        let resident_slabs = self
            .classes
            .iter()
            .map(|c| c.lock().len() as u64)
            .sum();
        SlabGauges {
            slab_allocs: self.allocs.load(Ordering::Relaxed),
            slab_reuses: self.reuses.load(Ordering::Relaxed),
            slab_returns: self.returns.load(Ordering::Relaxed),
            slab_discards: self.discards.load(Ordering::Relaxed),
            pool_resident_bytes: self.resident_bytes.load(Ordering::Relaxed) as u64,
            resident_slabs,
            in_use_slabs: self.in_use.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for SlabPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.gauges();
        write!(
            f,
            "SlabPool(resident {} B / cap {} B, {} in use, {} allocs, {} reuses)",
            g.pool_resident_bytes,
            self.resident_cap(),
            g.in_use_slabs,
            g.slab_allocs,
            g.slab_reuses
        )
    }
}

/// A writable byte arena checked out of a [`SlabPool`].
///
/// Encode into [`BytesSlab::buffer`], then [`BytesSlab::freeze`] into an
/// immutable, cheaply-cloneable [`Bytes`]. Dropping an unfrozen slab
/// returns its buffer to the pool untouched.
pub struct BytesSlab {
    buf: Vec<u8>,
    pool: Arc<SlabPool>,
    frozen: bool,
}

impl BytesSlab {
    /// The writable buffer (append encoded bytes here).
    pub fn buffer(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// The backing buffer's capacity.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Seals the slab into an immutable [`Bytes`]. The backing buffer
    /// returns to the pool when the last clone of the result drops.
    pub fn freeze(mut self) -> Bytes {
        self.frozen = true;
        let buf = std::mem::take(&mut self.buf);
        Bytes::pooled(buf, self.pool.clone())
    }
}

impl Drop for BytesSlab {
    fn drop(&mut self) {
        if !self.frozen {
            self.pool.put(std::mem::take(&mut self.buf));
        }
    }
}

impl std::fmt::Debug for BytesSlab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BytesSlab({} bytes written)", self.buf.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_allocates_then_reuses() {
        let pool = Arc::new(SlabPool::default());
        let slab = pool.get(100);
        assert!(slab.capacity() >= MIN_CLASS_BYTES);
        drop(slab); // unfrozen: straight back to the pool
        let g = pool.gauges();
        assert_eq!((g.slab_allocs, g.slab_returns, g.in_use_slabs), (1, 1, 0));
        let slab = pool.get(100);
        assert_eq!(pool.gauges().slab_reuses, 1);
        drop(slab);
    }

    #[test]
    fn freeze_returns_via_last_bytes_drop() {
        let pool = Arc::new(SlabPool::default());
        let mut slab = pool.get(16);
        slab.buffer().extend_from_slice(b"hello");
        let bytes = slab.freeze();
        assert_eq!(&bytes[..], b"hello");
        let clone = bytes.clone();
        drop(bytes);
        assert_eq!(pool.gauges().in_use_slabs, 1, "a clone still holds the slab");
        drop(clone);
        let g = pool.gauges();
        assert_eq!((g.in_use_slabs, g.slab_returns), (0, 1));
        assert!(g.pool_resident_bytes >= MIN_CLASS_BYTES as u64);
    }

    #[test]
    fn size_classes_round_up_on_get_and_down_on_put() {
        assert_eq!(SlabPool::class_for(0), Some(0));
        assert_eq!(SlabPool::class_for(MIN_CLASS_BYTES), Some(0));
        assert_eq!(SlabPool::class_for(MIN_CLASS_BYTES + 1), Some(1));
        assert_eq!(SlabPool::class_for(MAX_CLASS_BYTES), Some(CLASSES - 1));
        assert_eq!(SlabPool::class_for(MAX_CLASS_BYTES + 1), None);
        // A grown (odd-capacity) buffer re-enters one class down, so the
        // class's capacity promise holds.
        let pool = Arc::new(SlabPool::default());
        let mut slab = pool.get(MIN_CLASS_BYTES);
        slab.buffer().reserve_exact(3 * MIN_CLASS_BYTES / 2);
        drop(slab);
        let recycled = pool.get(MIN_CLASS_BYTES);
        assert!(recycled.capacity() >= MIN_CLASS_BYTES);
        assert_eq!(pool.gauges().slab_reuses, 1);
    }

    #[test]
    fn resident_cap_bounds_the_pool() {
        let pool = Arc::new(SlabPool::with_resident_cap(MIN_CLASS_BYTES));
        let a = pool.get(16);
        let b = pool.get(16);
        drop(a);
        drop(b);
        let g = pool.gauges();
        assert_eq!(g.slab_returns, 1, "second return exceeds the cap");
        assert_eq!(g.slab_discards, 1);
        assert!(g.pool_resident_bytes <= MIN_CLASS_BYTES as u64);
        // Under a larger cap both returns land.
        let pool = Arc::new(SlabPool::with_resident_cap(64 << 10));
        let a = pool.get(16);
        let b = pool.get(16);
        drop(a);
        drop(b);
        assert_eq!(pool.gauges().slab_returns, 2);
    }

    #[test]
    fn oversize_requests_are_exact_and_never_pooled() {
        let pool = Arc::new(SlabPool::default());
        let slab = pool.get(MAX_CLASS_BYTES + 1);
        assert!(slab.capacity() > MAX_CLASS_BYTES);
        drop(slab);
        let g = pool.gauges();
        assert_eq!((g.slab_discards, g.resident_slabs), (1, 0));
    }

    #[test]
    fn growth_past_the_hint_is_absorbed() {
        let pool = Arc::new(SlabPool::default());
        let mut slab = pool.get(16);
        slab.buffer().extend(std::iter::repeat_n(7u8, 2 * MIN_CLASS_BYTES));
        let bytes = slab.freeze();
        assert_eq!(bytes.len(), 2 * MIN_CLASS_BYTES);
        drop(bytes);
        // The grown buffer re-entered the pool and can serve its class.
        let slab = pool.get(2 * MIN_CLASS_BYTES);
        assert!(slab.capacity() >= 2 * MIN_CLASS_BYTES);
        assert_eq!(pool.gauges().slab_reuses, 1);
    }
}
