//! Partial orders and antichains.
//!
//! Progress tracking reasons about *sets* of mutually incomparable
//! timestamps and path summaries. An [`Antichain`] maintains the minimal
//! elements of everything inserted into it. (Counted pointstamps that come
//! and go are [`crate::progress::PointstampTable`]'s job.)

/// A reflexive, transitive, antisymmetric comparison.
pub trait PartialOrder {
    /// True iff `self` precedes or equals `other`.
    fn less_equal(&self, other: &Self) -> bool;

    /// True iff `self` strictly precedes `other`.
    fn less_than(&self, other: &Self) -> bool {
        self.less_equal(other) && !other.less_equal(self)
    }
}

impl PartialOrder for u64 {
    fn less_equal(&self, other: &Self) -> bool {
        self <= other
    }
}

/// A set of mutually incomparable elements: inserting an element strictly
/// dominated by an existing one is a no-op, and inserting a new minimal
/// element evicts everything it dominates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Antichain<T> {
    elements: Vec<T>,
}

impl<T> Default for Antichain<T> {
    fn default() -> Self {
        Antichain {
            elements: Vec::new(),
        }
    }
}

impl<T: PartialOrder> Antichain<T> {
    /// An empty antichain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `element` unless some existing element already
    /// `less_equal`s it. Returns whether the element was inserted.
    pub fn insert(&mut self, element: T) -> bool {
        if self.elements.iter().any(|e| e.less_equal(&element)) {
            return false;
        }
        self.elements.retain(|e| !element.less_equal(e));
        self.elements.push(element);
        true
    }

    /// True iff some element of the antichain `less_equal`s `time`.
    pub fn less_equal(&self, time: &T) -> bool {
        self.elements.iter().any(|e| e.less_equal(time))
    }

    /// True iff some element of the antichain is strictly less than `time`.
    pub fn less_than(&self, time: &T) -> bool {
        self.elements.iter().any(|e| e.less_than(time))
    }

    /// The elements, in insertion order.
    pub fn elements(&self) -> &[T] {
        &self.elements
    }

    /// Whether the antichain is empty.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }
}

impl<T: PartialOrder> FromIterator<T> for Antichain<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = Antichain::new();
        for item in iter {
            out.insert(item);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;

    fn ts(epoch: u64, counters: &[u64]) -> Timestamp {
        Timestamp::with_counters(epoch, counters)
    }

    #[test]
    fn antichain_keeps_minimal_elements() {
        let mut a = Antichain::new();
        assert!(a.insert(ts(3, &[])));
        assert!(!a.insert(ts(5, &[])), "dominated element rejected");
        assert!(a.insert(ts(1, &[])), "smaller element evicts");
        assert_eq!(a.elements(), &[ts(1, &[])]);
    }

    #[test]
    fn antichain_holds_incomparable_elements() {
        let mut a = Antichain::new();
        // Counters move one way, epochs the other at equal depth 1 within
        // a loop: (0,[5]) vs (1,[0]) — by §2.1 epoch dominates, so use true
        // incomparables from summaries later; here use u64 pairs instead.
        let mut b: Antichain<PairMin> = Antichain::new();
        assert!(b.insert(PairMin(0, 5)));
        assert!(b.insert(PairMin(5, 0)));
        assert_eq!(b.len(), 2);
        assert!(b.less_equal(&PairMin(5, 5)));
        assert!(!b.less_equal(&PairMin(4, 4)));
        a.insert(ts(0, &[]));
        assert!(a.less_than(&ts(1, &[])));
        assert!(!a.less_than(&ts(0, &[])));
    }

    /// Product order on pairs: genuinely partial.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct PairMin(u64, u64);
    impl PartialOrder for PairMin {
        fn less_equal(&self, other: &Self) -> bool {
            self.0 <= other.0 && self.1 <= other.1
        }
    }

    #[test]
    fn from_iterator_minimizes() {
        let a: Antichain<Timestamp> = [ts(4, &[]), ts(2, &[]), ts(9, &[])].into_iter().collect();
        assert_eq!(a.elements(), &[ts(2, &[])]);
    }
}
