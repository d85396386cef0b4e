//! Property tests for the codec laws the zero-copy data plane rests on
//! (DESIGN.md §16), over every `Wire` and `WireRef` implementation:
//!
//! 1. **Prefix-freedom** — no strict prefix of a valid encoding decodes;
//!    truncation anywhere fails with a typed error, never a panic.
//! 2. **Owned == borrowed** — `decode_ref` views agree byte-for-byte and
//!    value-for-value with the owned `decode` of the same frame.
//! 3. **Hostile input never panics** — random bytes thrown at every
//!    decoder (owned and borrowed) fail cleanly or round-trip.
//! 4. **Varint boundaries** — exact widths at every 7-bit threshold,
//!    overflow and truncation rejection, zigzag involution.
//! 5. **Integer columns** — a batch of integers is packed at the narrowest
//!    of 1/2/4/8 bytes that holds it, at every width boundary, and laws
//!    1–3 hold for that layout too.
//!
//! Deterministic seeded generation (`naiad-rng`) stands in for an
//! external property-testing framework: each case fixes a seed, so any
//! failure reproduces exactly.

use std::collections::{HashMap, HashSet};

use naiad_rng::Xorshift;
use naiad_wire::varint::{decode_u64, encode_u64, len_u64, unzigzag, zigzag};
use naiad_wire::{
    decode_from_slice, decode_ref_from_slice, encode_to_vec, KeyedBatch, KeyedBatchView, SeqView,
    Wire, WireError, WireRef,
};

const CASES: usize = 256;

fn gen_u64(rng: &mut Xorshift) -> u64 {
    let width = rng.below(65) as u32;
    if width == 0 {
        0
    } else {
        rng.next_u64() >> (64 - width)
    }
}

fn gen_string(rng: &mut Xorshift) -> String {
    let len = rng.below_usize(24);
    (0..len)
        .map(|_| match rng.below(4) {
            0..=2 => char::from(b' ' + rng.below(95) as u8),
            _ => char::from_u32(0x00A1 + rng.below(0x500) as u32).unwrap_or('λ'),
        })
        .collect()
}

fn gen_vec<T>(rng: &mut Xorshift, mut f: impl FnMut(&mut Xorshift) -> T) -> Vec<T> {
    let len = rng.below_usize(12);
    (0..len).map(|_| f(rng)).collect()
}

fn gen_batch(rng: &mut Xorshift) -> KeyedBatch<u64> {
    let mut batch = KeyedBatch::new();
    for _ in 0..rng.below_usize(12) {
        let s = gen_string(rng);
        batch.push(gen_u64(rng), &s);
    }
    batch
}

/// Law 1: every strict prefix of a valid encoding fails to decode, and a
/// valid encoding with trailing junk reports `TrailingBytes`. Neither
/// ever panics (a panic aborts the test, so running IS the assertion).
fn prefix_law<T: Wire>(value: &T) {
    let bytes = encode_to_vec(value);
    assert_eq!(bytes.len(), value.encoded_len());
    for cut in 0..bytes.len() {
        assert!(
            decode_from_slice::<T>(&bytes[..cut]).is_err(),
            "a strict {cut}-byte prefix of a {}-byte encoding decoded",
            bytes.len()
        );
    }
    let mut extended = bytes;
    extended.push(0);
    assert!(matches!(
        decode_from_slice::<T>(&extended),
        Err(WireError::TrailingBytes(1))
    ));
}

#[test]
fn every_impl_is_prefix_free_under_truncation() {
    let mut rng = Xorshift::new(0xA1);
    for _ in 0..CASES {
        prefix_law(&(gen_u64(&mut rng) as u8));
        prefix_law(&(gen_u64(&mut rng) as u16));
        prefix_law(&(gen_u64(&mut rng) as u32));
        prefix_law(&gen_u64(&mut rng));
        prefix_law(&(gen_u64(&mut rng) as usize));
        prefix_law(&(gen_u64(&mut rng) as i8));
        prefix_law(&(gen_u64(&mut rng) as i16));
        prefix_law(&(gen_u64(&mut rng) as i32));
        prefix_law(&(gen_u64(&mut rng) as i64));
        prefix_law(&(gen_u64(&mut rng) as isize));
        prefix_law(&rng.chance(0.5));
        prefix_law(&f32::from_bits(rng.next_u64() as u32));
        prefix_law(&f64::from_bits(rng.next_u64()));
        prefix_law(&gen_string(&mut rng));
        prefix_law(&gen_vec(&mut rng, gen_u64));
        prefix_law(&gen_vec(&mut rng, |rng| gen_u64(rng) as u8));
        prefix_law(&gen_vec(&mut rng, |rng| gen_u64(rng) as i32));
        prefix_law(&gen_vec(&mut rng, gen_string));
        prefix_law(&if rng.chance(0.5) {
            Some(gen_string(&mut rng))
        } else {
            None
        });
        prefix_law(&(gen_u64(&mut rng), gen_string(&mut rng), rng.chance(0.5)));
        prefix_law(&gen_batch(&mut rng));
    }
    // Char: drawn from valid scalar values only (surrogates don't exist
    // as `char`), plus the extremes.
    for c in ['\0', 'a', 'λ', '\u{D7FF}', '\u{E000}', char::MAX] {
        prefix_law(&c);
    }
    // Keyed collections, fixed small cases (iteration order is unordered
    // but the law only cuts bytes).
    let map: HashMap<u64, String> = [(1, "a".into()), (900, "bb".into())].into();
    prefix_law(&map);
    let set: HashSet<u32> = [3, 5, 70_000].into();
    prefix_law(&set);
    prefix_law(&[7u32, 8, 9, 10]);
}

/// Law 2 for scalar views: `decode_ref` must agree with `decode`.
fn scalar_view_law<T>(value: &T)
where
    T: Wire + PartialEq + std::fmt::Debug + for<'a> WireRef<'a>,
{
    let bytes = encode_to_vec(value);
    let view: T = decode_ref_from_slice(&bytes).unwrap();
    assert_eq!(&view, value);
}

#[test]
fn borrowed_decode_agrees_with_owned_decode() {
    let mut rng = Xorshift::new(0xB2);
    for _ in 0..CASES {
        scalar_view_law(&(gen_u64(&mut rng) as u8));
        scalar_view_law(&(gen_u64(&mut rng) as u32));
        scalar_view_law(&gen_u64(&mut rng));
        scalar_view_law(&(gen_u64(&mut rng) as i64));
        scalar_view_law(&rng.chance(0.5));
        scalar_view_law(&(gen_u64(&mut rng) as usize));

        // String ↔ &str share one framing: length prefix + raw UTF-8.
        let s = gen_string(&mut rng);
        let bytes = encode_to_vec(&s);
        let view: &str = decode_ref_from_slice(&bytes).unwrap();
        assert_eq!(view, s);
        // ... and `&[u8]` is the raw-bytes reading of that same framing.
        let raw: &[u8] = decode_ref_from_slice(&bytes).unwrap();
        assert_eq!(raw, s.as_bytes());

        // Options and tuples compose views exactly as owned decode does.
        let opt = if rng.chance(0.5) {
            Some(s.clone())
        } else {
            None
        };
        let bytes = encode_to_vec(&opt);
        let view: Option<&str> = decode_ref_from_slice(&bytes).unwrap();
        assert_eq!(view, opt.as_deref());

        let tup = (gen_u64(&mut rng), gen_string(&mut rng), rng.chance(0.5));
        let bytes = encode_to_vec(&tup);
        let view: (u64, &str, bool) = decode_ref_from_slice(&bytes).unwrap();
        assert_eq!(view, (tup.0, tup.1.as_str(), tup.2));

        // Sequences: a SeqView iterates the same records Vec decodes.
        let records: Vec<(u64, String)> = gen_vec(&mut rng, |rng| (gen_u64(rng), gen_string(rng)));
        let bytes = encode_to_vec(&records);
        let owned: Vec<(u64, String)> = decode_from_slice(&bytes).unwrap();
        let view: SeqView<(u64, &str)> = decode_ref_from_slice(&bytes).unwrap();
        assert_eq!(view.len(), owned.len());
        let viewed: Vec<(u64, String)> = view
            .iter()
            .map(|item| item.map(|(k, s)| (k, s.to_owned())))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(viewed, owned);

        // Columnar batches: the view yields the rows the owned batch holds.
        let batch = gen_batch(&mut rng);
        let bytes = encode_to_vec(&batch);
        let owned: KeyedBatch<u64> = decode_from_slice(&bytes).unwrap();
        assert_eq!(owned, batch);
        let view: KeyedBatchView<u64> = decode_ref_from_slice(&bytes).unwrap();
        assert_eq!(view.len(), batch.len());
        let mut rows = Vec::new();
        view.try_for_each(|k, s| rows.push((k, s.to_owned())))
            .unwrap();
        let expect: Vec<(u64, String)> = batch.iter().map(|(k, s)| (*k, s.to_owned())).collect();
        assert_eq!(rows, expect);
    }
}

#[test]
fn hostile_bytes_never_panic_any_decoder() {
    let mut rng = Xorshift::new(0xC3);
    for _ in 0..CASES {
        let len = rng.below_usize(48);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // Owned decoders.
        let _ = decode_from_slice::<Vec<(u64, String)>>(&bytes);
        let _ = decode_from_slice::<HashMap<u64, Vec<i32>>>(&bytes);
        let _ = decode_from_slice::<KeyedBatch<u64>>(&bytes);
        let _ = decode_from_slice::<char>(&bytes);
        let _ = decode_from_slice::<[u16; 3]>(&bytes);
        let _ = decode_from_slice::<Vec<u64>>(&bytes);
        let _ = decode_from_slice::<(Vec<i16>, Vec<u8>)>(&bytes);
        // Borrowed decoders — including the lazy iterators, which must
        // surface corruption as `Err` items, not panics.
        let _ = decode_ref_from_slice::<&str>(&bytes);
        let _ = decode_ref_from_slice::<(u64, &str, Option<&[u8]>)>(&bytes);
        if let Ok(view) = decode_ref_from_slice::<SeqView<(u64, &str)>>(&bytes) {
            for item in view.iter() {
                let _ = item;
            }
        }
        if let Ok(view) = decode_ref_from_slice::<KeyedBatchView<u64>>(&bytes) {
            for row in view.iter() {
                let _ = row;
            }
        }
        if let Ok(view) = SeqView::<i32>::tail(&bytes) {
            for item in view.iter() {
                let _ = item;
            }
        }
    }
}

/// Law 5 for one batch: it encodes as length, one width byte and
/// `len × width` bytes; it round-trips; no prefix decodes; and a
/// `SeqView` — built mid-frame or with `tail` — reads the same values.
fn column_law<T>(items: &[T], width: usize)
where
    T: Wire + Copy + PartialEq + std::fmt::Debug + for<'a> WireRef<'a>,
{
    let items = items.to_vec();
    let bytes = encode_to_vec(&items);
    let header = len_u64(items.len() as u64) + 1;
    assert_eq!(bytes.len(), header + items.len() * width, "{items:?}");
    assert_eq!(usize::from(bytes[header - 1]), width, "{items:?}");
    assert_eq!(decode_from_slice::<Vec<T>>(&bytes).unwrap(), items);
    prefix_law(&items);

    let framed = encode_to_vec(&(items.clone(), 7u8));
    let (view, after): (SeqView<T>, u8) = decode_ref_from_slice(&framed).unwrap();
    assert_eq!(after, 7);
    assert_eq!(view.iter().collect::<Result<Vec<T>, _>>().unwrap(), items);
    let mut seen = Vec::new();
    SeqView::<T>::tail(&bytes)
        .unwrap()
        .try_for_each(|item| seen.push(item))
        .unwrap();
    assert_eq!(seen, items);
}

#[test]
fn integer_columns_pack_at_the_narrowest_width_that_holds_the_batch() {
    // Unsigned: the width steps exactly at 2⁸, 2¹⁶ and 2³².
    for (value, width) in [
        (0u64, 1),
        (0xff, 1),
        (0x100, 2),
        (0x101, 2),
        (0xffff, 2),
        (0x1_0000, 4),
        (0x1_0001, 4),
        (0xffff_ffff, 4),
        (0x1_0000_0000, 8),
        (0x1_0000_0001, 8),
        (u64::MAX, 8),
    ] {
        column_law(&[value], width);
        column_law(&[value as usize], width);
        // One wide value among narrow ones sets the width of all.
        column_law(&[1, 2, value, 3], width);
    }
    column_law::<u64>(&[], 1);
    column_law(&[0u8, u8::MAX], 1);
    column_law(&[0xffu16, 0x100], 2);
    column_law(&[0xffffu32, 0x1_0001], 4);
    // Signed values are zigzag-mapped first, so the steps sit at ±2⁷,
    // ±2¹⁵ and ±2³¹, and each type's extremes fill its own width.
    for (value, width) in [
        (0i64, 1),
        (-1, 1),
        (127, 1),
        (-128, 1),
        (128, 2),
        (-129, 2),
        (i64::from(i16::MAX), 2),
        (i64::from(i16::MIN), 2),
        (i64::from(i16::MAX) + 1, 4),
        (i64::from(i32::MIN), 4),
        (i64::from(i32::MAX) + 1, 8),
        (i64::MIN, 8),
        (i64::MAX, 8),
    ] {
        column_law(&[value], width);
        column_law(&[value as isize], width);
        column_law(&[-1, value, 1], width);
    }
    column_law::<i64>(&[], 1);
    column_law(&[i8::MIN, i8::MAX], 1);
    column_law(&[i16::MIN, i16::MAX], 2);
    column_law(&[i32::MIN, i32::MAX], 4);

    // Random batches: the width is that of the widest member.
    let mut rng = Xorshift::new(0xE5);
    for _ in 0..CASES {
        let items = gen_vec(&mut rng, gen_u64);
        let widest = items.iter().copied().max().unwrap_or(0);
        let width = [1, 2, 4].into_iter().find(|w| widest >> (8 * w) == 0);
        column_law(&items, width.unwrap_or(8));
        let signed: Vec<i64> = items.iter().map(|&v| unzigzag(v)).collect();
        column_law(&signed, width.unwrap_or(8));
    }

    // Fig 6a's case: uniform 64-bit keys cost eight bytes each plus a
    // constant — where per-key varints cost ~9.5.
    let keys: Vec<u64> = (0..1024).map(|_| rng.next_u64()).collect();
    assert!(encode_to_vec(&keys).len() <= 8 * 1024 + 4);
}

#[test]
fn hostile_column_headers_are_refused_before_anything_is_reserved() {
    fn refused<T: Wire>(frame: &[u8], len: usize) -> WireError {
        let mut out = Vec::<T>::new();
        let err = T::decode_batch(&mut &frame[..], len, &mut out).unwrap_err();
        assert_eq!(out.capacity(), 0, "reserved for a refused column");
        err
    }
    // A width byte no encoder writes.
    for width in [0u8, 3, 5, 6, 7, 9, 16, 0x80, 0xff] {
        let frame = [width, 1, 2, 3, 4, 5, 6, 7, 8, 9];
        assert_eq!(refused::<u64>(&frame, 1), WireError::InvalidTag(width));
        assert_eq!(refused::<i8>(&frame, 1), WireError::InvalidTag(width));
    }
    // A legal width the element type cannot hold.
    assert_eq!(refused::<u8>(&[2, 0, 1], 1), WireError::VarintOverflow);
    assert_eq!(refused::<i32>(&[8; 9], 1), WireError::VarintOverflow);
    // `len × width` overrunning the input, by one byte or by overflow.
    for len in [2, usize::MAX / 8 + 1, usize::MAX] {
        let frame = [8u8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];
        assert!(matches!(
            refused::<u64>(&frame, len),
            WireError::LengthOverrun { declared, remaining: 15 } if declared == len
        ));
    }
    assert_eq!(refused::<u64>(&[], 0), WireError::UnexpectedEof);
    // The same headers reach `Vec` and `SeqView` through the length prefix.
    let mut frame = Vec::new();
    encode_u64(u64::MAX >> 1, &mut frame);
    frame.extend_from_slice(&[8, 0, 0, 0, 0, 0, 0, 0, 0]);
    assert!(matches!(
        decode_from_slice::<Vec<u64>>(&frame),
        Err(WireError::LengthOverrun { .. })
    ));
    assert!(matches!(
        SeqView::<u64>::tail(&frame),
        Err(WireError::LengthOverrun { .. })
    ));
    assert!(matches!(
        decode_ref_from_slice::<SeqView<u64>>(&frame),
        Err(WireError::LengthOverrun { .. })
    ));
}

#[test]
fn varint_widths_step_at_every_seven_bit_boundary() {
    for k in 1..=9u32 {
        let boundary = 1u64 << (7 * k);
        for v in [boundary - 1, boundary] {
            let mut buf = Vec::new();
            encode_u64(v, &mut buf);
            let expect = if v < boundary {
                k as usize
            } else {
                k as usize + 1
            };
            assert_eq!(buf.len(), expect, "width of {v:#x}");
            assert_eq!(len_u64(v), expect);
            let mut slice = &buf[..];
            assert_eq!(decode_u64(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }
    let mut buf = Vec::new();
    encode_u64(u64::MAX, &mut buf);
    assert_eq!(buf.len(), 10);
}

#[test]
fn varint_rejects_overflow_and_truncation_at_boundaries() {
    // Ten continuation bytes: valid length, but the tenth byte may carry
    // at most one payload bit.
    let mut bytes = [0x80u8; 10];
    bytes[9] = 0x01; // payload bit 63 — the last representable bit
    let mut slice = &bytes[..];
    assert!(decode_u64(&mut slice).is_ok());
    bytes[9] = 0x02; // payload bit 64 → overflow
    let mut slice = &bytes[..];
    assert_eq!(decode_u64(&mut slice), Err(WireError::VarintOverflow));
    // Every truncated all-continuation run is UnexpectedEof.
    let run = [0x80u8; 9];
    for cut in 0..=run.len() {
        let mut slice = &run[..cut];
        assert_eq!(decode_u64(&mut slice), Err(WireError::UnexpectedEof));
    }
    // Narrow integer types reject values that fit u64 but not themselves.
    let mut buf = Vec::new();
    encode_u64(256, &mut buf);
    assert_eq!(
        decode_from_slice::<u8>(&buf),
        Err(WireError::VarintOverflow)
    );
}

#[test]
fn zigzag_is_an_involution_and_orders_by_magnitude() {
    let mut rng = Xorshift::new(0xD4);
    for _ in 0..CASES {
        let v = rng.next_u64() as i64;
        assert_eq!(unzigzag(zigzag(v)), v);
    }
    for (v, expect) in [(0i64, 0u64), (-1, 1), (1, 2), (-2, 3), (2, 4)] {
        assert_eq!(zigzag(v), expect);
    }
    assert_eq!(zigzag(i64::MIN), u64::MAX);
    // Small magnitudes stay in one byte either sign.
    for v in -64i64..64 {
        assert_eq!(len_u64(zigzag(v)), 1, "width of {v}");
    }
}
