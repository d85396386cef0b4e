//! Logical timestamps for timely dataflow (§2.1).
//!
//! A timestamp pairs an input *epoch* with one loop counter per enclosing
//! loop context: `(e ∈ N, ⟨c₁, …, cₖ⟩ ∈ Nᵏ)`. The system ingress, egress,
//! and feedback vertices rewrite these counters as messages cross loop
//! boundaries, and the partial order on timestamps is what the progress
//! tracker reasons about.

use naiad_wire::{Wire, WireError};

use crate::order::PartialOrder;

/// Maximum loop nesting depth supported by the inline counter stack.
///
/// Keeping counters inline makes `Timestamp` a `Copy` value of fixed size:
/// timestamps are compared and hashed on every progress-tracking operation,
/// so they must not allocate. Four levels is twice what any computation in
/// the paper uses (SCC nests two loops).
pub const MAX_LOOP_DEPTH: usize = 4;

/// A fixed-capacity stack of loop counters.
///
/// The stack grows by one when a message enters a loop context (ingress),
/// shrinks by one when it leaves (egress), and its top element is
/// incremented by feedback vertices.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CounterStack {
    len: u8,
    vals: [u64; MAX_LOOP_DEPTH],
}

impl CounterStack {
    /// The empty stack (a timestamp outside any loop context).
    pub const EMPTY: CounterStack = CounterStack {
        len: 0,
        vals: [0; MAX_LOOP_DEPTH],
    };

    /// Builds a stack from a slice of counters, outermost first.
    ///
    /// # Panics
    ///
    /// Panics if `counters` has more than [`MAX_LOOP_DEPTH`] entries.
    pub fn from_slice(counters: &[u64]) -> Self {
        assert!(
            counters.len() <= MAX_LOOP_DEPTH,
            "loop nesting deeper than MAX_LOOP_DEPTH ({MAX_LOOP_DEPTH})"
        );
        let mut vals = [0; MAX_LOOP_DEPTH];
        vals[..counters.len()].copy_from_slice(counters);
        CounterStack {
            len: counters.len() as u8,
            vals,
        }
    }

    /// The number of counters (current loop nesting depth).
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The counters as a slice, outermost first.
    pub fn as_slice(&self) -> &[u64] {
        &self.vals[..self.len()]
    }

    /// Returns the stack with `value` pushed.
    ///
    /// # Panics
    ///
    /// Panics if the stack is already at [`MAX_LOOP_DEPTH`].
    #[must_use]
    pub fn pushed(mut self, value: u64) -> Self {
        assert!(
            self.len() < MAX_LOOP_DEPTH,
            "loop nesting deeper than MAX_LOOP_DEPTH ({MAX_LOOP_DEPTH})"
        );
        self.vals[self.len()] = value;
        self.len += 1;
        self
    }

    /// Returns the stack with its top counter removed, or `None` if empty.
    #[must_use]
    pub fn popped(mut self) -> Option<Self> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        self.vals[self.len()] = 0;
        Some(self)
    }

    /// Returns the stack with `amount` added to its top counter, or `None`
    /// if the stack is empty.
    #[must_use]
    pub fn incremented(mut self, amount: u64) -> Option<Self> {
        if self.len == 0 {
            return None;
        }
        let top = self.len() - 1;
        self.vals[top] = self.vals[top].saturating_add(amount);
        Some(self)
    }
}

impl std::fmt::Debug for CounterStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl Wire for CounterStack {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(self.len);
        for v in self.as_slice() {
            v.encode(buf);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let (&len, rest) = input.split_first().ok_or(WireError::UnexpectedEof)?;
        *input = rest;
        if usize::from(len) > MAX_LOOP_DEPTH {
            return Err(WireError::InvalidValue);
        }
        let mut out = CounterStack::EMPTY;
        for _ in 0..len {
            out = out.pushed(u64::decode(input)?);
        }
        Ok(out)
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_slice().iter().map(Wire::encoded_len).sum::<usize>()
    }
}

/// A logical timestamp: input epoch plus loop counters (§2.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Timestamp {
    /// Input epoch assigned by the external producer.
    pub epoch: u64,
    /// One counter per enclosing loop context, outermost first.
    pub counters: CounterStack,
}

impl Timestamp {
    /// A timestamp in the top-level streaming context.
    pub fn new(epoch: u64) -> Self {
        Timestamp {
            epoch,
            counters: CounterStack::EMPTY,
        }
    }

    /// A timestamp with explicit loop counters, outermost first.
    ///
    /// # Panics
    ///
    /// Panics if `counters` has more than [`MAX_LOOP_DEPTH`] entries.
    pub fn with_counters(epoch: u64, counters: &[u64]) -> Self {
        Timestamp {
            epoch,
            counters: CounterStack::from_slice(counters),
        }
    }

    /// Loop nesting depth of this timestamp.
    pub fn depth(&self) -> usize {
        self.counters.len()
    }

    /// The ingress adjustment: `(e, ⟨c₁…cₖ⟩) → (e, ⟨c₁…cₖ, 0⟩)`.
    ///
    /// # Panics
    ///
    /// Panics if the timestamp is already at [`MAX_LOOP_DEPTH`].
    #[must_use]
    pub fn entered(mut self) -> Self {
        self.counters = self.counters.pushed(0);
        self
    }

    /// The egress adjustment: `(e, ⟨c₁…cₖ₊₁⟩) → (e, ⟨c₁…cₖ⟩)`, or `None`
    /// at the top level.
    #[must_use]
    pub fn left(mut self) -> Option<Self> {
        self.counters = self.counters.popped()?;
        Some(self)
    }

    /// The feedback adjustment: `(e, ⟨c₁…cₖ⟩) → (e, ⟨c₁…cₖ + 1⟩)`, or
    /// `None` at the top level.
    #[must_use]
    pub fn incremented(mut self) -> Option<Self> {
        self.counters = self.counters.incremented(1)?;
        Some(self)
    }

    /// The least timestamp after this one at its depth (`None` for the
    /// greatest), so `s < t` exactly when `s.successor() ≤ t`: the last
    /// coordinate below `u64::MAX` goes up by one, later ones restart at 0.
    #[must_use]
    pub(crate) fn successor(&self) -> Option<Timestamp> {
        let depth = self.depth();
        let mut next = *self;
        match self.counters.as_slice().iter().rposition(|&c| c < u64::MAX) {
            Some(i) => {
                next.counters.vals[i] += 1;
                next.counters.vals[i + 1..depth].fill(0);
            }
            None => {
                next.epoch = self.epoch.checked_add(1)?;
                next.counters.vals[..depth].fill(0);
            }
        }
        Some(next)
    }

    /// The "end of time" for a given depth, used by bounded feedback stages
    /// to discard messages past an iteration limit.
    pub fn max_for_depth(depth: usize) -> Self {
        let mut counters = CounterStack::EMPTY;
        for _ in 0..depth {
            counters = counters.pushed(u64::MAX);
        }
        Timestamp {
            epoch: u64::MAX,
            counters,
        }
    }
}

impl PartialOrder for Timestamp {
    /// §2.1: `t₁ ≤ t₂` iff `e₁ ≤ e₂` and the counter stacks compare
    /// lexicographically.
    ///
    /// Timestamps of different depths arise when comparing across loop
    /// contexts; the shorter stack is treated as zero-extended (entering a
    /// context starts at iteration 0), which keeps the relation
    /// transitive. At equal depth the order is antisymmetric; across
    /// depths it is a preorder — `(e, ⟨⟩)` and `(e, ⟨0⟩)` bound each
    /// other. The progress machinery itself only ever compares timestamps
    /// of one location's depth.
    fn less_equal(&self, other: &Self) -> bool {
        if self.epoch != other.epoch {
            // The producer's epochs are totally ordered and dominate.
            return self.epoch < other.epoch;
        }
        let lhs = self.counters.as_slice();
        let rhs = other.counters.as_slice();
        let d = lhs.len().min(rhs.len());
        match lhs[..d].cmp(&rhs[..d]) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            // Equal common prefix: `self` precedes iff its surplus
            // counters are all zero (it equals the zero-extension).
            std::cmp::Ordering::Equal => lhs[d..].iter().all(|&c| c == 0),
        }
    }
}

impl PartialOrd for Timestamp {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        match (self.less_equal(other), other.less_equal(self)) {
            (true, true) => Some(std::cmp::Ordering::Equal),
            (true, false) => Some(std::cmp::Ordering::Less),
            (false, true) => Some(std::cmp::Ordering::Greater),
            (false, false) => None,
        }
    }
}

impl std::fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {:?})", self.epoch, self.counters)
    }
}

impl Wire for Timestamp {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.epoch.encode(buf);
        self.counters.encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Timestamp {
            epoch: u64::decode(input)?,
            counters: CounterStack::decode(input)?,
        })
    }
    fn encoded_len(&self) -> usize {
        self.epoch.encoded_len() + self.counters.encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(epoch: u64, counters: &[u64]) -> Timestamp {
        Timestamp::with_counters(epoch, counters)
    }

    #[test]
    fn counter_stack_push_pop_inc() {
        let s = CounterStack::EMPTY.pushed(3).pushed(5);
        assert_eq!(s.as_slice(), &[3, 5]);
        assert_eq!(s.incremented(2).unwrap().as_slice(), &[3, 7]);
        assert_eq!(s.popped().unwrap().as_slice(), &[3]);
        assert_eq!(CounterStack::EMPTY.popped(), None);
        assert_eq!(CounterStack::EMPTY.incremented(1), None);
    }

    #[test]
    #[should_panic(expected = "MAX_LOOP_DEPTH")]
    fn counter_stack_overflow_panics() {
        let mut s = CounterStack::EMPTY;
        for i in 0..=MAX_LOOP_DEPTH as u64 {
            s = s.pushed(i);
        }
    }

    #[test]
    fn system_vertex_adjustments_match_the_table() {
        // §2.1's table: ingress pushes 0, egress pops, feedback increments.
        let t = ts(2, &[7]);
        assert_eq!(t.entered(), ts(2, &[7, 0]));
        assert_eq!(t.left().unwrap(), ts(2, &[]));
        assert_eq!(t.incremented().unwrap(), ts(2, &[8]));
        assert_eq!(Timestamp::new(1).left(), None);
        assert_eq!(Timestamp::new(1).incremented(), None);
    }

    #[test]
    fn order_is_product_of_epoch_and_lexicographic_counters() {
        assert!(ts(0, &[5]).less_equal(&ts(1, &[0])));
        assert!(!ts(1, &[0]).less_equal(&ts(0, &[5])));
        assert!(ts(1, &[2, 9]).less_equal(&ts(1, &[3, 0])));
        assert!(ts(1, &[2, 9]).less_equal(&ts(1, &[2, 9])));
        assert!(!ts(1, &[3, 0]).less_equal(&ts(1, &[2, 9])));
    }

    #[test]
    fn epoch_dominates_counters() {
        // An earlier epoch precedes a later epoch even with larger counters:
        // the producer's epochs are totally ordered.
        assert!(ts(0, &[100, 100]).less_equal(&ts(1, &[0, 0])));
    }

    #[test]
    fn mixed_depth_comparison_zero_extends() {
        // A time at the enclosing context bounds the iterations within it
        // (entering starts at counter 0) …
        assert!(ts(1, &[2]).less_equal(&ts(1, &[2, 5])));
        assert!(ts(1, &[1]).less_equal(&ts(1, &[2, 5])));
        assert!(!ts(1, &[3]).less_equal(&ts(1, &[2, 5])));
        // … but a nonzero inner iteration does not precede the outer time.
        assert!(!ts(1, &[2, 5]).less_equal(&ts(1, &[2])));
        assert!(ts(1, &[2, 0]).less_equal(&ts(1, &[2])));
        // Transitivity holds across depths (regression for a bug found by
        // the order-laws property test): [2] ≰ [] since [2] ≠ zero-ext.
        assert!(!ts(4, &[2]).less_equal(&ts(4, &[])));
        assert!(ts(4, &[]).less_equal(&ts(4, &[0])));
    }

    #[test]
    fn partial_ord_agrees_with_less_equal() {
        use std::cmp::Ordering;
        assert_eq!(ts(0, &[]).partial_cmp(&ts(1, &[])), Some(Ordering::Less));
        assert_eq!(ts(1, &[1]).partial_cmp(&ts(1, &[1])), Some(Ordering::Equal));
        assert_eq!(ts(2, &[]).partial_cmp(&ts(1, &[])), Some(Ordering::Greater));
        // Incomparable pair: epoch advanced one way, counters the other.
        assert_eq!(ts(0, &[5]).partial_cmp(&ts(1, &[0])), Some(Ordering::Less));
    }

    #[test]
    fn timestamps_roundtrip_on_the_wire() {
        for t in [ts(0, &[]), ts(5, &[1]), ts(u64::MAX, &[3, 0, 9, 2])] {
            let bytes = naiad_wire::encode_to_vec(&t);
            assert_eq!(bytes.len(), t.encoded_len());
            assert_eq!(
                naiad_wire::decode_from_slice::<Timestamp>(&bytes).unwrap(),
                t
            );
        }
    }

    #[test]
    fn wire_rejects_overdeep_stacks() {
        let bytes = [9u8];
        assert!(naiad_wire::decode_from_slice::<CounterStack>(&bytes).is_err());
    }

    #[test]
    fn successor_is_the_least_later_time() {
        assert_eq!(ts(4, &[]).successor(), Some(ts(5, &[])));
        assert_eq!(ts(4, &[2, 7]).successor(), Some(ts(4, &[2, 8])));
        assert_eq!(ts(4, &[2, u64::MAX]).successor(), Some(ts(4, &[3, 0])));
        assert_eq!(ts(4, &[u64::MAX]).successor(), Some(ts(5, &[0])));
        assert_eq!(Timestamp::max_for_depth(2).successor(), None);
    }

    #[test]
    fn max_for_depth_dominates() {
        let top = Timestamp::max_for_depth(2);
        assert!(ts(3, &[100, 200]).less_equal(&top));
        assert!(!top.less_equal(&ts(3, &[100, 200])));
    }
}
