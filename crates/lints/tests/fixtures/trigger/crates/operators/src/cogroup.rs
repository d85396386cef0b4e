//! NS0003 trigger: an operator emits a time's keys in the iteration order
//! of a `std` map, which varies per process, so its output order does too.

use std::collections::HashMap;

pub fn emit_keys(lefts: &HashMap<u64, u64>, out: &mut Vec<u64>) {
    let keys: HashMap<u64, u64> = lefts.clone();
    for k in keys.keys() {
        out.push(*k);
    }
}
