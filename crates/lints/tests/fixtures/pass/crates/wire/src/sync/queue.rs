//! NS0004 pass: the queue answers `Option` instead of panicking, and the
//! one index it keeps is justified by a lint-allow.

use std::collections::VecDeque;

pub fn pop_head(ring: &mut VecDeque<u64>) -> Option<u64> {
    ring.pop_front()
}

pub fn slot(slots: &[u64; 2], parity: bool) -> u64 {
    // lint-allow(NS0004): a bool indexes a two-slot array, in range by
    // construction.
    slots[usize::from(parity)]
}
