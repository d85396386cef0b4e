//! NS0004 trigger: the sync kernel is runtime code, so an `expect` on a
//! queue's head is an implicit panic path outside `#[cfg(test)]`.

use std::collections::VecDeque;

pub fn pop_head(ring: &mut VecDeque<u64>) -> u64 {
    ring.pop_front().expect("ring is never empty")
}
