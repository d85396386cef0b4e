//! Path summaries (§2.3).
//!
//! A path through a timely dataflow graph transforms timestamps as it
//! crosses ingress (push a zero counter), egress (pop), and feedback
//! (increment the top counter) vertices. Any such composite reduces to a
//! canonical form: *keep* a prefix of the original counters, *increment*
//! the last kept counter, then *push* a stack of constants:
//!
//! ```text
//! (e, ⟨c₁ … c_d⟩)  ↦  (e, ⟨c₁ … c_{keep} + inc, p₁ … p_m⟩)
//! ```
//!
//! The could-result-in relation asks whether *some* path summary maps one
//! pointstamp at or before another, so a propagation of summaries keeps an
//! [`Antichain`](crate::order::Antichain) of minimal ones. Summaries
//! with equal `keep` are totally ordered (lexicographically by
//! `(inc, push)`); summaries with different `keep` are treated as
//! incomparable, which may retain a dominated summary but never changes
//! the ∃-summary test — a sound, conservative choice.

use crate::order::PartialOrder;
use crate::time::{CounterStack, Timestamp, MAX_LOOP_DEPTH};

/// The canonical summary of a path between two locations.
///
/// `keep` counts how many of the source timestamp's loop counters survive;
/// `inc` is added to the last surviving counter; `push` is appended. The
/// destination depth is always `keep + push.len()`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Summary {
    keep: u8,
    inc: u64,
    push: CounterStack,
}

impl Summary {
    /// The identity summary at loop depth `depth`.
    pub fn identity(depth: usize) -> Self {
        Summary {
            keep: depth as u8,
            inc: 0,
            push: CounterStack::EMPTY,
        }
    }

    /// The summary of an ingress vertex whose input sits at `depth`.
    pub fn ingress(depth: usize) -> Self {
        assert!(
            depth < MAX_LOOP_DEPTH,
            "ingress would exceed MAX_LOOP_DEPTH"
        );
        Summary {
            keep: depth as u8,
            inc: 0,
            push: CounterStack::EMPTY.pushed(0),
        }
    }

    /// The summary of an egress vertex whose input sits at `depth ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero: nothing encloses the streaming context.
    pub fn egress(depth: usize) -> Self {
        assert!(depth >= 1, "egress from the top-level streaming context");
        Summary {
            keep: (depth - 1) as u8,
            inc: 0,
            push: CounterStack::EMPTY,
        }
    }

    /// The summary of a feedback vertex at `depth ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero: feedback requires a loop context.
    pub fn feedback(depth: usize) -> Self {
        assert!(depth >= 1, "feedback outside any loop context");
        Summary {
            keep: depth as u8,
            inc: 1,
            push: CounterStack::EMPTY,
        }
    }

    /// Number of source counters that survive.
    pub fn keep(&self) -> usize {
        usize::from(self.keep)
    }

    /// Increment applied to the last surviving counter.
    pub fn inc(&self) -> u64 {
        self.inc
    }

    /// Constants appended after the surviving counters.
    pub fn push(&self) -> &[u64] {
        self.push.as_slice()
    }

    /// The destination loop depth of timestamps this summary produces.
    pub fn target_depth(&self) -> usize {
        self.keep() + self.push.len()
    }

    /// Applies the summary to a timestamp.
    ///
    /// # Panics
    ///
    /// Panics if the timestamp is shallower than `keep` — summaries are
    /// only ever applied to timestamps at their source location, whose
    /// depth the graph fixes.
    pub fn apply(&self, time: &Timestamp) -> Timestamp {
        let keep = self.keep();
        assert!(
            time.depth() >= keep,
            "summary {self:?} applied to too-shallow timestamp {time:?}"
        );
        if keep == time.depth() && self.inc == 0 && self.push.is_empty() {
            return *time; // The identity, as most arcs a propagation follows are.
        }
        let mut counters = CounterStack::from_slice(&time.counters.as_slice()[..keep]);
        if self.inc > 0 {
            counters = counters
                .incremented(self.inc)
                .expect("inc > 0 implies keep > 0 in valid graphs");
        }
        for &p in self.push.as_slice() {
            counters = counters.pushed(p);
        }
        Timestamp {
            epoch: time.epoch,
            counters,
        }
    }

    /// Composes two summaries: `other.compose_after(self)` describes first
    /// traversing `self`'s path, then `other`'s.
    #[must_use]
    pub fn then(&self, other: &Summary) -> Summary {
        let k1 = self.keep();
        let k2 = other.keep();
        if k2 <= k1 {
            // `other` keeps only original counters (possibly fewer).
            let inc = if k2 == k1 {
                self.inc + other.inc
            } else {
                other.inc
            };
            Summary {
                keep: k2 as u8,
                inc,
                push: other.push,
            }
        } else {
            // `other` keeps all of `self`'s surviving counters plus a
            // prefix of `self`'s pushed constants.
            let taken = k2 - k1;
            assert!(
                taken <= self.push.len(),
                "composition deeper than intermediate location: {self:?} then {other:?}"
            );
            let mut push = CounterStack::EMPTY;
            for (i, &p) in self.push.as_slice()[..taken].iter().enumerate() {
                let p = if i == taken - 1 { p + other.inc } else { p };
                push = push.pushed(p);
            }
            for &p in other.push.as_slice() {
                push = push.pushed(p);
            }
            Summary {
                keep: self.keep,
                inc: self.inc,
                push,
            }
        }
    }
}

impl PartialOrder for Summary {
    /// Domination test: `s₁ ≤ s₂` iff `s₁.apply(t) ≤ s₂.apply(t)` for every
    /// timestamp `t`. With equal `keep` this reduces to a lexicographic
    /// comparison of `(inc, push)`; across different `keep` values the test
    /// conservatively reports incomparable (see module docs).
    fn less_equal(&self, other: &Self) -> bool {
        self.keep == other.keep
            && (self.inc, self.push.as_slice()) <= (other.inc, other.push.as_slice())
    }
}

impl std::fmt::Debug for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Summary(keep {}, +{}, push {:?})",
            self.keep,
            self.inc,
            self.push.as_slice()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(epoch: u64, counters: &[u64]) -> Timestamp {
        Timestamp::with_counters(epoch, counters)
    }

    #[test]
    fn system_vertex_summaries_match_the_paper_table() {
        let t = ts(3, &[7, 2]);
        assert_eq!(Summary::ingress(2).apply(&t), ts(3, &[7, 2, 0]));
        assert_eq!(Summary::egress(2).apply(&t), ts(3, &[7]));
        assert_eq!(Summary::feedback(2).apply(&t), ts(3, &[7, 3]));
        assert_eq!(Summary::identity(2).apply(&t), t);
    }

    #[test]
    fn composition_matches_sequential_application() {
        let t = ts(1, &[4]);
        let cases = [
            (Summary::ingress(1), Summary::feedback(2)),
            (Summary::ingress(1), Summary::egress(2)),
            (Summary::feedback(1), Summary::feedback(1)),
            (Summary::egress(1), Summary::ingress(0)),
            (Summary::feedback(1), Summary::ingress(1)),
        ];
        for (a, b) in cases {
            let composed = a.then(&b);
            assert_eq!(
                composed.apply(&t),
                b.apply(&a.apply(&t)),
                "compose {a:?} then {b:?}"
            );
        }
    }

    #[test]
    fn exit_and_reenter_via_outer_feedback() {
        // A cycle that leaves an inner loop, takes the outer feedback, and
        // re-enters: (e, c₁, c₂) → (e, c₁ + 1, 0).
        let s = Summary::egress(2)
            .then(&Summary::feedback(1))
            .then(&Summary::ingress(1));
        assert_eq!(s.apply(&ts(0, &[3, 9])), ts(0, &[4, 0]));
        assert_eq!(s.keep(), 1);
        assert_eq!(s.inc(), 1);
        assert_eq!(s.push(), &[0]);
    }

    #[test]
    fn same_keep_summaries_totally_ordered() {
        let once = Summary::feedback(1);
        let twice = once.then(&once);
        assert!(once.less_equal(&twice));
        assert!(!twice.less_equal(&once));
        assert!(once.less_than(&twice));
        assert!(once.less_equal(&once));
    }

    #[test]
    fn different_keep_summaries_incomparable() {
        let inner_cycle = Summary::feedback(2);
        let outer_cycle = Summary::egress(2)
            .then(&Summary::feedback(1))
            .then(&Summary::ingress(1));
        assert!(!inner_cycle.less_equal(&outer_cycle));
        assert!(!outer_cycle.less_equal(&inner_cycle));
    }

    #[test]
    fn push_constants_compare_lexicographically() {
        // Going around an inner loop before stabilizing pushes a larger
        // constant; the plain entry dominates it.
        let enter = Summary::ingress(1);
        let enter_then_spin = enter.then(&Summary::feedback(2));
        assert_eq!(enter_then_spin.push(), &[1]);
        assert!(enter.less_equal(&enter_then_spin));
        assert!(!enter_then_spin.less_equal(&enter));
    }

    #[test]
    fn antichain_of_summaries_discards_dominated_cycles() {
        use crate::order::Antichain;
        let mut a = Antichain::new();
        let fb = Summary::feedback(1);
        assert!(a.insert(Summary::identity(1)));
        assert!(!a.insert(fb), "one trip around the loop is dominated");
        assert!(!a.insert(fb.then(&fb)));
        assert_eq!(a.len(), 1);
    }

    #[test]
    #[should_panic(expected = "too-shallow")]
    fn apply_rejects_shallow_timestamps() {
        // egress(2) keeps one counter; a depth-0 timestamp cannot supply it.
        let _ = Summary::egress(2).apply(&ts(0, &[]));
    }

    #[test]
    fn target_depth_is_consistent() {
        assert_eq!(Summary::ingress(1).target_depth(), 2);
        assert_eq!(Summary::egress(2).target_depth(), 1);
        assert_eq!(Summary::feedback(3).target_depth(), 3);
    }
}
