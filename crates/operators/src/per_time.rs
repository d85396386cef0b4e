//! The one per-time state shape of the notified operators (§2.4, §4.2).
//!
//! A time's state opens with the first record that needs it, and opening
//! it requests the time's notification: blocking (`notify_at`) for the
//! operators that emit when the time completes, purge (`notify_at_purge`)
//! for `distinct` and `join`, which emit on receipt and only free their
//! state. The notification closes the time, handing its state to the
//! operator's completion logic. State is keyed by the time the operator is
//! notified at, which need not be the records' time (a tumbling window's
//! closing epoch, a staleness gate's iteration), on the one fixed hash.

use std::cell::{RefCell, RefMut};
use std::hash::Hash;
use std::rc::Rc;

use naiad::dataflow::Notify;
use naiad::Timestamp;

use crate::KeyMap;

/// State whose storage outlives the time that filled it. A closed time's
/// state is cleared and serves the next time to open, unless its capacity
/// is more than four times what the closed time used: clearing costs the
/// whole capacity, so one large time must not tax every small one after
/// it.
pub trait Recycle: Default {
    /// The entries held, and the entries the storage holds without
    /// growing; none by default, for state with no storage to keep.
    fn fill(&self) -> (usize, usize) {
        (0, 0)
    }
    /// Empties the state, keeping its storage.
    fn clear(&mut self) {
        *self = Self::default();
    }
}

impl<K: Hash + Eq, V> Recycle for KeyMap<K, V> {
    fn fill(&self) -> (usize, usize) {
        (self.len(), self.capacity())
    }
    fn clear(&mut self) {
        self.clear();
    }
}

impl<T> Recycle for Vec<T> {
    fn fill(&self) -> (usize, usize) {
        (self.len(), self.capacity())
    }
    fn clear(&mut self) {
        self.clear();
    }
}

/// One value per time, held inline.
impl<T> Recycle for Option<T> {}

/// The open times' states, and the storage closed times left behind.
#[derive(Default)]
struct PerTime<S> {
    open: KeyMap<Timestamp, S>,
    spare: Vec<S>,
}

impl<S: Recycle> PerTime<S> {
    /// The state of `time`; `on_open` runs if this opens it.
    fn open(&mut self, time: Timestamp, on_open: impl FnOnce()) -> &mut S {
        let spare = &mut self.spare;
        self.open.entry(time).or_insert_with(|| {
            on_open();
            spare.pop().unwrap_or_default()
        })
    }

    /// Hands `time`'s state to `complete`, then keeps its storage under
    /// [`Recycle`]'s rule.
    fn close(&mut self, time: Timestamp, complete: impl FnOnce(&mut S)) {
        let Some(mut state) = self.open.remove(&time) else {
            return;
        };
        let (used, _) = state.fill();
        complete(&mut state);
        state.clear();
        if state.fill().1 <= 4 * used {
            self.spare.push(state);
        }
    }
}

/// An operator's per-time states, split between its receive logic, which
/// opens times, and its notification logic, which closes them. `request`
/// is how opening a time requests its notification: `Notify::notify_at`
/// or `Notify::notify_at_purge`.
pub fn states<S: Recycle>(request: fn(&Notify, Timestamp)) -> (Opener<S>, Closer<S>) {
    let states: Rc<RefCell<PerTime<S>>> = Rc::default();
    let opener = Opener {
        states: states.clone(),
        request,
    };
    (opener, Closer(states))
}

/// The receive logic's half of [`states`].
pub struct Opener<S> {
    states: Rc<RefCell<PerTime<S>>>,
    request: fn(&Notify, Timestamp),
}

impl<S: Recycle> Opener<S> {
    /// The state of `time`, opened, and its notification requested
    /// through `notify`, if this is its first use.
    pub fn open(&self, time: Timestamp, notify: &Notify) -> RefMut<'_, S> {
        let request = self.request;
        RefMut::map(self.states.borrow_mut(), |states| {
            states.open(time, || request(notify, time))
        })
    }
}

/// The notification logic's half of [`states`].
pub struct Closer<S>(Rc<RefCell<PerTime<S>>>);

impl<S: Recycle> Closer<S> {
    /// Hands the state of the notified `time`, if it opened, to
    /// `complete`, and frees it.
    pub fn close(&self, time: Timestamp, complete: impl FnOnce(&mut S)) {
        self.0.borrow_mut().close(time, complete);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_large_times_table_is_not_reused_after_a_small_one() {
        let mut tables = PerTime::<KeyMap<u64, u64>>::default();
        let mut opened = 0;
        let large = tables.open(Timestamp::new(0), || opened += 1);
        large.extend((0..1_000).map(|k| (k, k)));
        let capacity = large.capacity();
        let mut drained = 0;
        tables.close(Timestamp::new(0), |entries| {
            drained = entries.drain().count()
        });
        assert_eq!(drained, 1_000);

        // Kept: the next time drains into the same storage.
        let small = tables.open(Timestamp::new(1), || opened += 1);
        assert!(small.is_empty());
        assert_eq!(small.capacity(), capacity);
        small.insert(7, 1);
        let mut entries = Vec::new();
        tables.close(Timestamp::new(1), |drain| entries.extend(drain.drain()));
        assert_eq!(entries, vec![(7, 1)]);

        // Dropped: more than four times the one entry its last time used.
        let fresh = tables.open(Timestamp::new(2), || opened += 1);
        assert_eq!(fresh.capacity(), 0);
        assert_eq!(opened, 3);
    }
}
