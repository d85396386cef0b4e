//! NS0003 trigger: the model-checker picks its next event by iterating a
//! `std` map, whose order varies per process, so a seed's schedule would
//! not replay bit-identically.

use std::collections::HashMap;

pub fn next_link(pending: &HashMap<u32, u64>) -> Option<u32> {
    let links: HashMap<u32, u64> = pending.clone();
    for (link, _) in links.iter() {
        return Some(*link);
    }
    None
}
