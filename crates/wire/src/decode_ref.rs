//! Borrowed (zero-copy) decoding.
//!
//! [`Wire::decode`](crate::Wire::decode) materializes owned values —
//! every `String` copies its bytes out of the frame and every `Vec`
//! allocates. That made decode ~6× the cost of encode on the keyed-record
//! microbench (EXPERIMENTS.md). [`WireRef`] is the borrowing counterpart:
//! a `WireRef<'a>` value is a *view* into the encoded frame, valid for as
//! long as the frame (`'a`), decoded without copying payload bytes.
//!
//! The pairing rules (DESIGN.md §16):
//!
//! * scalars decode by value exactly as [`Wire`](crate::Wire) does,
//! * `&'a str` is the borrowed view of `String` framing,
//! * `&'a [u8]` is the borrowed view of the same length-prefixed raw-byte
//!   framing (`String` without the UTF-8 check) — note this is *not* the
//!   `Vec<u8>` encoding, which puts a column-width byte after the length,
//! * [`SeqView`] is the borrowed view of `Vec<T>` framing: it holds the
//!   batch bytes — elements back to back, or a width-packed integer
//!   column — and decodes elements lazily on iteration,
//! * tuples and `Option` concatenate views just like their owned duals.
//!
//! Borrowed and owned decode of the same frame must agree; the property
//! suite in `crates/wire/tests/properties.rs` pins that law for every
//! implementation.

use std::marker::PhantomData;

use crate::{Wire, WireError};

/// A type decodable as a borrowed view of an encoded frame.
///
/// Like [`Wire::decode`](crate::Wire::decode), `decode_ref` consumes
/// exactly the bytes of one value and advances the input past them, so
/// views concatenate the same way owned values do.
pub trait WireRef<'a>: Sized {
    /// Decodes a view from the front of `input`, advancing it past the
    /// consumed bytes.
    ///
    /// Returns an error if the input is truncated or malformed; `input`
    /// is left in an unspecified position on error.
    fn decode_ref(input: &mut &'a [u8]) -> Result<Self, WireError>;

    /// Reads whatever header the batch layout of `len` elements carries
    /// ([`Wire::encode_batch`]) and returns the fixed element width it
    /// declares, or 0 when elements delimit themselves. Like
    /// [`Wire::decode_batch`] it bounds `len` by the bytes present.
    #[inline]
    fn batch_width(input: &mut &'a [u8], len: usize) -> Result<usize, WireError> {
        if len > input.len() {
            // Cheapest sound bound: every element is at least one byte.
            return Err(WireError::LengthOverrun {
                declared: len,
                remaining: input.len(),
            });
        }
        Ok(0)
    }

    /// Decodes the next element of a batch whose header declared `width`.
    #[inline]
    fn decode_ref_in_batch(input: &mut &'a [u8], _width: usize) -> Result<Self, WireError> {
        Self::decode_ref(input)
    }
}

/// Decodes a borrowed view from a slice, requiring every byte be consumed.
pub fn decode_ref_from_slice<'a, T: WireRef<'a>>(mut input: &'a [u8]) -> Result<T, WireError> {
    let value = T::decode_ref(&mut input)?;
    if input.is_empty() {
        Ok(value)
    } else {
        Err(WireError::TrailingBytes(input.len()))
    }
}

/// Scalars have no payload to borrow; the view *is* the value. (The
/// integers' impls sit with their column layout in `primitives.rs`.)
macro_rules! wire_ref_by_value {
    ($($t:ty),* $(,)?) => {$(
        impl<'a> WireRef<'a> for $t {
            fn decode_ref(input: &mut &'a [u8]) -> Result<Self, WireError> {
                <$t as Wire>::decode(input)
            }
        }
    )*};
}

wire_ref_by_value!(bool, f32, f64, char, ());

impl<'a> WireRef<'a> for &'a str {
    fn decode_ref(input: &mut &'a [u8]) -> Result<Self, WireError> {
        let bytes = <&'a [u8]>::decode_ref(input)?;
        std::str::from_utf8(bytes).map_err(|_| WireError::InvalidValue)
    }
}

impl<'a> WireRef<'a> for &'a [u8] {
    fn decode_ref(input: &mut &'a [u8]) -> Result<Self, WireError> {
        let len = usize::decode(input)?;
        if len > input.len() {
            return Err(WireError::LengthOverrun {
                declared: len,
                remaining: input.len(),
            });
        }
        let (head, rest) = input.split_at(len);
        *input = rest;
        Ok(head)
    }
}

impl<'a, T: WireRef<'a>> WireRef<'a> for Option<T> {
    fn decode_ref(input: &mut &'a [u8]) -> Result<Self, WireError> {
        let (&tag, rest) = input.split_first().ok_or(WireError::UnexpectedEof)?;
        *input = rest;
        match tag {
            0 => Ok(None),
            1 => Ok(Some(T::decode_ref(input)?)),
            other => Err(WireError::InvalidTag(other)),
        }
    }
}

macro_rules! wire_ref_tuple {
    ($(($($name:ident),+))+) => {$(
        impl<'a, $($name: WireRef<'a>),+> WireRef<'a> for ($($name,)+) {
            fn decode_ref(input: &mut &'a [u8]) -> Result<Self, WireError> {
                Ok(($($name::decode_ref(input)?,)+))
            }
        }
    )+};
}

wire_ref_tuple! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
    (A, B, C, D, E, F, G)
    (A, B, C, D, E, F, G, H)
}

/// A lazy, borrowed view of `Vec<T>` framing: the element count plus the
/// raw bytes of the batch, decoded one element at a time on iteration
/// instead of materialized up front.
///
/// [`WireRef::decode_ref`] must honor the concatenation law — a view
/// consumes exactly its value's bytes — so constructing a `SeqView` in
/// the middle of a frame walks (and thereby validates) the elements once
/// to find where they end, without allocating. When the sequence is the
/// *last* field of a frame, [`SeqView::tail`] skips even that walk; its
/// iterator then reports any malformed element lazily.
pub struct SeqView<'a, T> {
    len: usize,
    /// What [`WireRef::batch_width`] read off the batch header.
    width: usize,
    bytes: &'a [u8],
    _marker: PhantomData<fn() -> T>,
}

// Derived Clone/Copy would bound T; views are copyable regardless of T.
impl<T> Clone for SeqView<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SeqView<'_, T> {}

impl<'a, T: WireRef<'a>> SeqView<'a, T> {
    /// Wraps an entire remaining frame (`varint` count + elements) as a
    /// sequence view without walking the elements.
    ///
    /// Consumes all of `input`; malformed elements surface as `Err` items
    /// during iteration rather than here.
    pub fn tail(mut input: &'a [u8]) -> Result<Self, WireError> {
        let len = usize::decode(&mut input)?;
        let width = T::batch_width(&mut input, len)?;
        Ok(SeqView {
            len,
            width,
            bytes: input,
            _marker: PhantomData,
        })
    }

    /// The number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Decodes every element in order, passing each to `f`; stops at the
    /// first malformed element and returns its error.
    ///
    /// Internal iteration: unlike [`SeqView::iter`] there is no per-item
    /// `Result` to unwrap, which is measurably faster on the microbench
    /// hot path (EXPERIMENTS.md).
    #[inline]
    pub fn try_for_each(&self, mut f: impl FnMut(T)) -> Result<(), WireError> {
        let mut rest = self.bytes;
        for _ in 0..self.len {
            f(T::decode_ref_in_batch(&mut rest, self.width)?);
        }
        Ok(())
    }

    /// Iterates the elements, decoding each lazily.
    ///
    /// Items are `Err` only for views built with [`SeqView::tail`];
    /// views from [`WireRef::decode_ref`] were validated on construction.
    pub fn iter(&self) -> SeqViewIter<'a, T> {
        SeqViewIter {
            remaining: self.len,
            width: self.width,
            rest: self.bytes,
            _marker: PhantomData,
        }
    }
}

impl<'a, T: WireRef<'a>> WireRef<'a> for SeqView<'a, T> {
    fn decode_ref(input: &mut &'a [u8]) -> Result<Self, WireError> {
        let len = usize::decode(input)?;
        let width = T::batch_width(input, len)?;
        // Walk the elements once to find the frame boundary; this both
        // validates them and lets the view consume exactly its bytes.
        let start = *input;
        for _ in 0..len {
            T::decode_ref_in_batch(input, width)?;
        }
        let consumed = start.len() - input.len();
        Ok(SeqView {
            len,
            width,
            bytes: &start[..consumed],
            _marker: PhantomData,
        })
    }
}

impl<'a, T: WireRef<'a>> IntoIterator for &SeqView<'a, T> {
    type Item = Result<T, WireError>;
    type IntoIter = SeqViewIter<'a, T>;
    fn into_iter(self) -> SeqViewIter<'a, T> {
        self.iter()
    }
}

/// Iterator over a [`SeqView`], decoding one element per step.
pub struct SeqViewIter<'a, T> {
    remaining: usize,
    width: usize,
    rest: &'a [u8],
    _marker: PhantomData<fn() -> T>,
}

impl<'a, T: WireRef<'a>> Iterator for SeqViewIter<'a, T> {
    type Item = Result<T, WireError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        match T::decode_ref_in_batch(&mut self.rest, self.width) {
            Ok(item) => Some(Ok(item)),
            Err(e) => {
                // Poisoned: stop after reporting the malformed element.
                self.remaining = 0;
                Some(Err(e))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.remaining))
    }
}

impl<T> std::fmt::Debug for SeqView<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SeqView({} elements, {} bytes)",
            self.len,
            self.bytes.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode_to_vec, varint};

    #[test]
    fn str_view_borrows_the_frame() {
        let frame = encode_to_vec(&String::from("naiad"));
        let view: &str = decode_ref_from_slice(&frame).unwrap();
        assert_eq!(view, "naiad");
        // Zero-copy: the view points into the frame itself.
        let payload_start = frame.len() - view.len();
        assert!(std::ptr::eq(view.as_ptr(), frame[payload_start..].as_ptr()));
    }

    #[test]
    fn str_view_rejects_invalid_utf8() {
        let mut frame = Vec::new();
        varint::encode_u64(2, &mut frame);
        frame.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(
            decode_ref_from_slice::<&str>(&frame),
            Err(WireError::InvalidValue)
        );
    }

    #[test]
    fn scalars_and_tuples_match_owned_decode() {
        let record = (42u64, String::from("key"), -7i32);
        let frame = encode_to_vec(&record);
        let (n, s, i): (u64, &str, i32) = decode_ref_from_slice(&frame).unwrap();
        assert_eq!((n, s, i), (42, "key", -7));
    }

    #[test]
    fn option_views_roundtrip() {
        let frame = encode_to_vec(&Some(String::from("x")));
        let view: Option<&str> = decode_ref_from_slice(&frame).unwrap();
        assert_eq!(view, Some("x"));
        let frame = encode_to_vec(&None::<String>);
        let view: Option<&str> = decode_ref_from_slice(&frame).unwrap();
        assert_eq!(view, None);
    }

    #[test]
    fn seq_view_iterates_without_materializing() {
        let records: Vec<(u64, String)> = (0..100).map(|i| (i, format!("record-{i}"))).collect();
        let frame = encode_to_vec(&records);
        let view: SeqView<'_, (u64, &str)> = decode_ref_from_slice(&frame).unwrap();
        assert_eq!(view.len(), 100);
        assert!(!view.is_empty());
        for (i, item) in view.iter().enumerate() {
            let (n, s) = item.unwrap();
            assert_eq!(n, i as u64);
            assert_eq!(s, format!("record-{i}"));
        }
    }

    #[test]
    fn seq_view_honors_concatenation() {
        // A sequence in the *middle* of a frame must consume exactly its
        // bytes so the field after it decodes correctly.
        let value = (vec![1u32, 2, 3], String::from("after"));
        let frame = encode_to_vec(&value);
        let (seq, tail): (SeqView<'_, u32>, &str) = decode_ref_from_slice(&frame).unwrap();
        let items: Vec<u32> = seq.iter().collect::<Result<_, _>>().unwrap();
        assert_eq!(items, vec![1, 2, 3]);
        assert_eq!(tail, "after");
    }

    #[test]
    fn seq_view_mid_frame_validates_elements() {
        // Truncated element inside a mid-frame sequence fails at
        // construction, not iteration.
        let mut frame = Vec::new();
        varint::encode_u64(2, &mut frame); // two elements promised
        String::from("ok").encode(&mut frame);
        varint::encode_u64(40, &mut frame); // claims 40 bytes, one follows
        frame.push(7);
        let r = decode_ref_from_slice::<(SeqView<'_, &str>, u8)>(&frame);
        assert!(r.is_err());
    }

    #[test]
    fn tail_skips_the_walk_and_reports_errors_lazily() {
        let records: Vec<String> = (0..4).map(|i| format!("s{i}")).collect();
        let frame = encode_to_vec(&records);
        let view: SeqView<'_, &str> = SeqView::tail(&frame).unwrap();
        let items: Vec<&str> = view.iter().collect::<Result<_, _>>().unwrap();
        assert_eq!(items, vec!["s0", "s1", "s2", "s3"]);

        // Truncated element: construction succeeds, iteration errors once.
        let mut bad = Vec::new();
        varint::encode_u64(2, &mut bad);
        String::from("ok").encode(&mut bad);
        varint::encode_u64(40, &mut bad); // claims 40 bytes, none follow
        let view: SeqView<'_, &str> = SeqView::tail(&bad).unwrap();
        let mut it = view.iter();
        assert_eq!(it.next(), Some(Ok("ok")));
        assert!(matches!(it.next(), Some(Err(_))));
        assert_eq!(it.next(), None);
    }

    #[test]
    fn tail_rejects_absurd_lengths() {
        let mut bad = Vec::new();
        varint::encode_u64(1_000_000, &mut bad);
        bad.push(1); // as a column: width 1, no values
        assert!(matches!(
            SeqView::<'_, u64>::tail(&bad),
            Err(WireError::LengthOverrun { .. })
        ));
        assert!(matches!(
            SeqView::<'_, &str>::tail(&bad),
            Err(WireError::LengthOverrun { .. })
        ));
    }

    #[test]
    fn byte_view_reads_raw_framing() {
        // &[u8] shares String's framing: varint length + raw bytes.
        let frame = encode_to_vec(&String::from("ab"));
        let view: &[u8] = decode_ref_from_slice(&frame).unwrap();
        assert_eq!(view, b"ab");
    }
}
