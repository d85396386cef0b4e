//! NS0003 pass: the links live in an ordered map, so the first pending
//! link is the same on every run and a seed's schedule replays exactly.

use std::collections::BTreeMap;

pub fn next_link(pending: &BTreeMap<u32, u64>) -> Option<u32> {
    pending.keys().next().copied()
}
