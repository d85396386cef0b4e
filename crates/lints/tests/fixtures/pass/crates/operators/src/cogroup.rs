//! NS0003 pass: the operator's per-time table is a `KeyMap`, hashed by the
//! one fixed hash, so it iterates in the same order on every run.

use naiad_wire::hash::KeyMap;

pub fn emit_keys(lefts: &KeyMap<u64, u64>, out: &mut Vec<u64>) {
    let keys: KeyMap<u64, u64> = lefts.clone();
    for k in keys.keys() {
        out.push(*k);
    }
}
