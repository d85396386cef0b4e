//! A compact binary codec with exact byte accounting.
//!
//! Naiad exchanges typed records between workers in different processes and
//! broadcasts progress-protocol updates; both paths must be metered in bytes
//! to regenerate the paper's Figures 6a and 6c. This crate provides the
//! [`Wire`] trait — a small, deterministic, self-contained encoding — so the
//! runtime controls every encoded byte rather than delegating to an opaque
//! serializer.
//!
//! The encoding rules are:
//!
//! * unsigned integers use LEB128 variable-length encoding ([`varint`]),
//! * signed integers are zigzag-mapped to unsigned first,
//! * floating-point values are little-endian IEEE-754 bit patterns,
//! * sequences are a varint length followed by the element type's *batch
//!   layout* ([`Wire::encode_batch`]): by default the elements back to
//!   back, each encoded as above,
//! * a batch of integers is instead a width-packed column: one header byte
//!   `w ∈ {1, 2, 4, 8}` — the narrowest width that holds the bitwise OR of
//!   the (zigzag-mapped, if signed) values — then every value as `w`
//!   little-endian bytes,
//! * tuples and `Option` concatenate their parts (with a one-byte tag for
//!   `Option`).
//!
//! # Examples
//!
//! ```
//! use naiad_wire::{decode_from_slice, encode_to_vec};
//!
//! let record = (42u64, String::from("naiad"), vec![1u32, 2, 3]);
//! let bytes = encode_to_vec(&record);
//! let back: (u64, String, Vec<u32>) = decode_from_slice(&bytes).unwrap();
//! assert_eq!(record, back);
//! ```

#![forbid(unsafe_code)]

mod bytes;
mod collections;
mod columnar;
mod decode_ref;
mod error;
pub mod hash;
mod primitives;
mod slab;
mod tuples;
pub mod varint;

pub use bytes::Bytes;
pub use columnar::{KeyedBatch, KeyedBatchIter, KeyedBatchView};
pub use decode_ref::{decode_ref_from_slice, SeqView, SeqViewIter, WireRef};
pub use error::WireError;
pub use slab::{BytesSlab, SlabGauges, SlabPool};
#[cfg(loom)]
pub use slab::slab_loom_hook;

/// A type with a deterministic binary encoding.
///
/// Implementations must round-trip: decoding the bytes produced by
/// [`Wire::encode`] yields a value equal to the original, and consumes
/// exactly the bytes that were written (so values can be concatenated).
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes a value from the front of `input`, advancing it past the
    /// consumed bytes.
    ///
    /// Returns an error if the input is truncated or malformed; `input` is
    /// left in an unspecified position on error.
    fn decode(input: &mut &[u8]) -> Result<Self, WireError>;

    /// The number of bytes [`Wire::encode`] would append.
    ///
    /// The default implementation encodes into a scratch buffer; impls
    /// override it with a direct computation where that is cheap.
    fn encoded_len(&self) -> usize {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf.len()
    }

    /// Appends the batch layout of `items` to `buf`: what follows the
    /// length prefix of a `Vec<Self>`, and of every data-plane message.
    ///
    /// The default is the elements back to back. Integer types override
    /// the three batch hooks together with a width-packed column, so a
    /// whole batch is written and read in one pass each.
    #[inline]
    fn encode_batch(items: &[Self], buf: &mut Vec<u8>) {
        for item in items {
            item.encode(buf);
        }
    }

    /// Decodes the batch layout of `len` elements from the front of
    /// `input`, appending them to `out` (whose storage callers recycle).
    ///
    /// `len` comes off the wire: implementations must check it against
    /// the bytes actually present before reserving anything.
    #[inline]
    fn decode_batch(input: &mut &[u8], len: usize, out: &mut Vec<Self>) -> Result<(), WireError> {
        if len > input.len() {
            // Sound bound: every element encodes to at least one byte.
            return Err(WireError::LengthOverrun {
                declared: len,
                remaining: input.len(),
            });
        }
        out.reserve(len);
        for _ in 0..len {
            out.push(Self::decode(input)?);
        }
        Ok(())
    }

    /// The number of bytes [`Wire::encode_batch`] would append.
    #[inline]
    fn batch_len(items: &[Self]) -> usize {
        items.iter().map(Wire::encoded_len).sum()
    }
}

/// Encodes a value into a fresh byte vector.
pub fn encode_to_vec<T: Wire>(value: &T) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16);
    value.encode(&mut buf);
    buf
}

/// Decodes a value from a slice, requiring that every byte is consumed.
///
/// Use [`Wire::decode`] directly to decode a prefix of a longer buffer.
pub fn decode_from_slice<T: Wire>(mut input: &[u8]) -> Result<T, WireError> {
    let value = T::decode(&mut input)?;
    if input.is_empty() {
        Ok(value)
    } else {
        Err(WireError::TrailingBytes(input.len()))
    }
}

/// Marker for record types that can cross worker boundaries.
///
/// This is the bound Naiad places on data flowing over exchange connectors:
/// the value must be sendable to another worker thread, clonable for
/// broadcast connectors, and encodable for inter-process links.
pub trait ExchangeData: Clone + Send + 'static + Wire {}
impl<T: Clone + Send + 'static + Wire> ExchangeData for T {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_to_vec_matches_manual_encode() {
        let v = 12345u64;
        let mut manual = Vec::new();
        v.encode(&mut manual);
        assert_eq!(encode_to_vec(&v), manual);
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut bytes = encode_to_vec(&7u32);
        bytes.push(0xff);
        let err = decode_from_slice::<u32>(&bytes).unwrap_err();
        assert!(matches!(err, WireError::TrailingBytes(1)));
    }

    #[test]
    fn default_encoded_len_matches_encoding() {
        let value = (1u8, String::from("xyz"));
        assert_eq!(value.encoded_len(), encode_to_vec(&value).len());
    }
}
