//! The progress frame on the wire: every batch a sender of any role can
//! emit decodes to itself, and no truncated batch decodes at all.
//! Deterministic seeded generation (`naiad-rng`), as in
//! `protocol_properties.rs`.

use naiad::graph::{ConnectorId, StageId};
use naiad::progress::protocol::{CENTRAL_SENDER, PROC_ACC_SENDER_BASE};
use naiad::progress::{Pointstamp, ProgressBatch};
use naiad::time::MAX_LOOP_DEPTH;
use naiad::Timestamp;
use naiad_rng::Xorshift;
use naiad_wire::{decode_from_slice, encode_to_vec};

/// A value below `2^bits` for a random `bits` up to `max_bits`, so
/// varints of every width up to `max_bits` come up.
fn spread(rng: &mut Xorshift, max_bits: u64) -> u64 {
    let bits = rng.range_u64(1, max_bits + 1);
    rng.below(1 << bits)
}

/// A batch from a worker, a process accumulator or the central
/// accumulator, at indices, depths (0 to `MAX_LOOP_DEPTH`), epochs and
/// seqs from one to several varint bytes wide.
fn random_batch(rng: &mut Xorshift) -> ProgressBatch {
    let role = [0, PROC_ACC_SENDER_BASE, CENTRAL_SENDER][rng.below_usize(3)];
    let updates = (0..rng.below_usize(6))
        .map(|_| {
            let depth = rng.below_usize(MAX_LOOP_DEPTH + 1);
            let counters: Vec<u64> = (0..depth).map(|_| spread(rng, 40)).collect();
            let time = Timestamp::with_counters(spread(rng, 48), &counters);
            let at = spread(rng, 20) as usize;
            let p = if rng.chance(0.5) {
                Pointstamp::at_vertex(time, StageId(at))
            } else {
                Pointstamp::on_edge(time, ConnectorId(at))
            };
            (p, spread(rng, 30) as i64 - (1 << 29))
        })
        .collect();
    ProgressBatch {
        sender: role + spread(rng, 20) as u32,
        seq: spread(rng, 48),
        dataflow: spread(rng, 8) as u32,
        updates,
    }
}

#[test]
fn random_batches_roundtrip_on_the_wire() {
    let mut rng = Xorshift::new(0x5EED);
    for _ in 0..2_000 {
        let batch = random_batch(&mut rng);
        let bytes = encode_to_vec(&batch);
        assert_eq!(decode_from_slice::<ProgressBatch>(&bytes).unwrap(), batch);
    }
}

#[test]
fn every_strict_prefix_of_a_batch_is_refused() {
    let mut rng = Xorshift::new(0x9F1C);
    for _ in 0..200 {
        let bytes = encode_to_vec(&random_batch(&mut rng));
        for end in 0..bytes.len() {
            assert!(
                decode_from_slice::<ProgressBatch>(&bytes[..end]).is_err(),
                "a {end}-byte prefix of a {}-byte batch decoded",
                bytes.len()
            );
        }
    }
}
