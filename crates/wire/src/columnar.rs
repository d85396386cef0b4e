//! Columnar keyed-record batches (DESIGN.md §16).
//!
//! Row-major `Vec<(K, String)>` framing interleaves varints and string
//! payloads, so a borrowed decode must validate UTF-8 once per record —
//! and short-slice validation dominates the decode cost (EXPERIMENTS.md).
//! [`KeyedBatch`] stores the same records as three columns:
//!
//! * the keys, varint-encoded back to back,
//! * the *end offset* of each payload in the text column,
//! * one contiguous text blob holding every payload.
//!
//! Each column is length-prefixed as raw bytes, so [`KeyedBatchView`]
//! decodes in `O(1)` plus a single UTF-8 validation of the whole blob —
//! which takes the word-at-a-time fast path instead of the byte-at-a-time
//! short-string path. Iteration walks the key and offset varints and
//! slices the already-validated text.

use std::marker::PhantomData;

use crate::{varint, Wire, WireError, WireRef};

/// An owned columnar batch of `(key, text payload)` records.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KeyedBatch<K> {
    keys: Vec<K>,
    /// `ends[i]` is the byte offset one past record `i`'s payload in
    /// `text`; strictly for `i == 0`, `ends[i - 1]..ends[i]` is record
    /// `i`'s payload.
    ends: Vec<usize>,
    text: String,
}

impl<K: Wire> KeyedBatch<K> {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        KeyedBatch {
            // slab-exempt: zero-capacity columns never touch the
            // allocator; growth is amortized across reused batches.
            keys: Vec::new(),
            // slab-exempt: as above.
            ends: Vec::new(),
            text: String::new(),
        }
    }

    /// Appends one record.
    pub fn push(&mut self, key: K, payload: &str) {
        self.text.push_str(payload);
        self.ends.push(self.text.len());
        self.keys.push(key);
    }

    /// The number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the batch holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Empties the batch, retaining all three columns' capacity.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.ends.clear();
        self.text.clear();
    }

    /// Iterates the records as `(&key, payload)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &str)> {
        self.keys
            .iter()
            .zip(self.ends.iter().scan(0usize, |pos, &end| {
                let start = std::mem::replace(pos, end);
                Some(&self.text[start..end])
            }))
    }
}

/// Encodes one varint-composed column as length-prefixed raw bytes.
fn encode_column(byte_len: usize, buf: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) {
    varint::encode_u64(byte_len as u64, buf);
    let start = buf.len();
    fill(buf);
    debug_assert_eq!(buf.len() - start, byte_len, "column length mismatch");
}

impl<K: Wire> Wire for KeyedBatch<K> {
    fn encode(&self, buf: &mut Vec<u8>) {
        varint::encode_u64(self.keys.len() as u64, buf);
        let keys_len: usize = self.keys.iter().map(Wire::encoded_len).sum();
        encode_column(keys_len, buf, |buf| {
            for key in &self.keys {
                key.encode(buf);
            }
        });
        let ends_len: usize = self.ends.iter().map(Wire::encoded_len).sum();
        encode_column(ends_len, buf, |buf| {
            for &end in &self.ends {
                varint::encode_u64(end as u64, buf);
            }
        });
        self.text.encode(buf);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = usize::decode(input)?;
        let mut keys_col = <&[u8]>::decode_ref(input)?;
        let mut ends_col = <&[u8]>::decode_ref(input)?;
        let text = String::decode(input)?;
        if len > keys_col.len() || len > ends_col.len() {
            // Sound bound: every varint is at least one byte.
            return Err(WireError::LengthOverrun {
                declared: len,
                remaining: keys_col.len().min(ends_col.len()),
            });
        }
        // slab-exempt: decode materializes owned columns once per
        // received batch, sized exactly from the validated header; the
        // zero-copy path is `KeyedBatchRef`, which borrows instead.
        let mut keys = Vec::with_capacity(len);
        // slab-exempt: as above.
        let mut ends = Vec::with_capacity(len);
        let mut pos = 0usize;
        for _ in 0..len {
            keys.push(K::decode(&mut keys_col)?);
            let end = usize::decode(&mut ends_col)?;
            if end < pos || !text.is_char_boundary(end) {
                return Err(WireError::InvalidValue);
            }
            pos = end;
            ends.push(end);
        }
        if !keys_col.is_empty() || !ends_col.is_empty() {
            return Err(WireError::TrailingBytes(keys_col.len() + ends_col.len()));
        }
        if pos != text.len() {
            // Text not covered by any record is framing garbage.
            return Err(WireError::TrailingBytes(text.len() - pos));
        }
        Ok(KeyedBatch { keys, ends, text })
    }

    fn encoded_len(&self) -> usize {
        let keys_len: usize = self.keys.iter().map(Wire::encoded_len).sum();
        let ends_len: usize = self.ends.iter().map(Wire::encoded_len).sum();
        varint::len_u64(self.keys.len() as u64)
            + varint::len_u64(keys_len as u64)
            + keys_len
            + varint::len_u64(ends_len as u64)
            + ends_len
            + self.text.encoded_len()
    }
}

/// The borrowed view of [`KeyedBatch`] framing: three column slices into
/// the frame, constructed in `O(1)` plus one whole-blob UTF-8 check.
pub struct KeyedBatchView<'a, K> {
    len: usize,
    keys: &'a [u8],
    ends: &'a [u8],
    text: &'a str,
    _marker: PhantomData<fn() -> K>,
}

impl<K> Clone for KeyedBatchView<'_, K> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K> Copy for KeyedBatchView<'_, K> {}

impl<'a, K: WireRef<'a>> KeyedBatchView<'a, K> {
    /// The number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the records, decoding key and offset varints lazily and
    /// slicing the pre-validated text column.
    ///
    /// Items are `Err` if a column is malformed (truncated varints,
    /// non-monotone offsets, offsets off a char boundary).
    pub fn iter(&self) -> KeyedBatchIter<'a, K> {
        KeyedBatchIter {
            remaining: self.len,
            keys: self.keys,
            ends: self.ends,
            text: self.text,
            pos: 0,
            _marker: PhantomData,
        }
    }

    /// Decodes every record in order, passing each to `f`; stops at the
    /// first malformed record and returns its error.
    ///
    /// Internal iteration: no per-item `Result` to unwrap, which is
    /// measurably faster than [`KeyedBatchView::iter`] on the microbench
    /// hot path (EXPERIMENTS.md).
    #[inline]
    pub fn try_for_each(&self, mut f: impl FnMut(K, &'a str)) -> Result<(), WireError> {
        let mut keys = self.keys;
        let mut ends = self.ends;
        let mut pos = 0usize;
        for _ in 0..self.len {
            let key = K::decode_ref(&mut keys)?;
            let end = usize::decode(&mut ends)?;
            let payload = self.text.get(pos..end).ok_or(WireError::InvalidValue)?;
            pos = end;
            f(key, payload);
        }
        Ok(())
    }
}

impl<'a, K: WireRef<'a>> WireRef<'a> for KeyedBatchView<'a, K> {
    fn decode_ref(input: &mut &'a [u8]) -> Result<Self, WireError> {
        let len = usize::decode(input)?;
        let keys = <&'a [u8]>::decode_ref(input)?;
        let ends = <&'a [u8]>::decode_ref(input)?;
        let blob = <&'a [u8]>::decode_ref(input)?;
        // One validation for the whole text column: this is the entire
        // point of the columnar layout.
        let text = std::str::from_utf8(blob).map_err(|_| WireError::InvalidValue)?;
        if len > keys.len() || len > ends.len() {
            // Sound bound: every varint is at least one byte.
            return Err(WireError::LengthOverrun {
                declared: len,
                remaining: keys.len().min(ends.len()),
            });
        }
        Ok(KeyedBatchView {
            len,
            keys,
            ends,
            text,
            _marker: PhantomData,
        })
    }
}

impl<'a, K: WireRef<'a>> IntoIterator for &KeyedBatchView<'a, K> {
    type Item = Result<(K, &'a str), WireError>;
    type IntoIter = KeyedBatchIter<'a, K>;
    fn into_iter(self) -> KeyedBatchIter<'a, K> {
        self.iter()
    }
}

/// Iterator over a [`KeyedBatchView`], decoding one record per step.
pub struct KeyedBatchIter<'a, K> {
    remaining: usize,
    keys: &'a [u8],
    ends: &'a [u8],
    text: &'a str,
    pos: usize,
    _marker: PhantomData<fn() -> K>,
}

impl<'a, K: WireRef<'a>> KeyedBatchIter<'a, K> {
    #[inline]
    fn next_record(&mut self) -> Option<Result<(K, &'a str), WireError>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let key = match K::decode_ref(&mut self.keys) {
            Ok(key) => key,
            Err(e) => {
                self.remaining = 0; // poisoned
                return Some(Err(e));
            }
        };
        let end = match usize::decode(&mut self.ends) {
            Ok(end) => end,
            Err(e) => {
                self.remaining = 0;
                return Some(Err(e));
            }
        };
        // `get` rejects non-monotone offsets, overruns, and offsets off
        // a char boundary in one bounds-checked slice.
        let Some(payload) = self.text.get(self.pos..end) else {
            self.remaining = 0;
            return Some(Err(WireError::InvalidValue));
        };
        self.pos = end;
        Some(Ok((key, payload)))
    }
}

impl<'a, K: WireRef<'a>> Iterator for KeyedBatchIter<'a, K> {
    type Item = Result<(K, &'a str), WireError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode_from_slice, decode_ref_from_slice, encode_to_vec};

    fn sample(n: u64) -> KeyedBatch<u64> {
        let mut batch = KeyedBatch::new();
        for i in 0..n {
            batch.push(i, &format!("record-{i}"));
        }
        batch
    }

    #[test]
    fn owned_roundtrip() {
        let batch = sample(100);
        let bytes = encode_to_vec(&batch);
        assert_eq!(bytes.len(), batch.encoded_len());
        let back: KeyedBatch<u64> = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, batch);
    }

    #[test]
    fn view_matches_owned_records() {
        let batch = sample(50);
        let bytes = encode_to_vec(&batch);
        let view: KeyedBatchView<'_, u64> = decode_ref_from_slice(&bytes).unwrap();
        assert_eq!(view.len(), 50);
        assert!(!view.is_empty());
        for (got, (key, payload)) in view.iter().zip(batch.iter()) {
            let (k, p) = got.unwrap();
            assert_eq!(k, *key);
            assert_eq!(p, payload);
        }
    }

    #[test]
    fn view_borrows_the_frame() {
        let batch = sample(3);
        let bytes = encode_to_vec(&batch);
        let view: KeyedBatchView<'_, u64> = decode_ref_from_slice(&bytes).unwrap();
        let (_, first) = view.iter().next().unwrap().unwrap();
        let frame = bytes.as_ptr() as usize;
        let payload = first.as_ptr() as usize;
        assert!(payload >= frame && payload < frame + bytes.len());
    }

    #[test]
    fn empty_batch_roundtrips() {
        let batch = KeyedBatch::<u64>::new();
        let bytes = encode_to_vec(&batch);
        let view: KeyedBatchView<'_, u64> = decode_ref_from_slice(&bytes).unwrap();
        assert!(view.is_empty());
        assert_eq!(view.iter().count(), 0);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut batch = sample(10);
        let cap = batch.text.capacity();
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.text.capacity(), cap);
        batch.push(1, "again");
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn invalid_utf8_blob_is_rejected_at_construction() {
        let batch = sample(2);
        let mut bytes = encode_to_vec(&batch);
        // Corrupt the final byte, which lies inside the text column.
        *bytes.last_mut().unwrap() = 0xff;
        assert!(matches!(
            decode_ref_from_slice::<KeyedBatchView<'_, u64>>(&bytes),
            Err(WireError::InvalidValue)
        ));
        assert!(matches!(
            decode_from_slice::<KeyedBatch<u64>>(&bytes),
            Err(WireError::InvalidValue)
        ));
    }

    #[test]
    fn non_monotone_offsets_error_lazily() {
        let mut bad = Vec::new();
        varint::encode_u64(2, &mut bad); // two records
        encode_column(2, &mut bad, |b| {
            varint::encode_u64(7, b);
            varint::encode_u64(8, b);
        });
        encode_column(2, &mut bad, |b| {
            varint::encode_u64(2, b); // end 2
            varint::encode_u64(1, b); // end 1 < 2: not monotone
        });
        String::from("ab").encode(&mut bad);
        let view: KeyedBatchView<'_, u64> = decode_ref_from_slice(&bad).unwrap();
        let mut it = view.iter();
        assert_eq!(it.next(), Some(Ok((7, "ab"))));
        assert!(matches!(it.next(), Some(Err(WireError::InvalidValue))));
        assert_eq!(it.next(), None, "iterator poisons after an error");
    }

    #[test]
    fn truncated_input_never_panics() {
        let batch = sample(20);
        let bytes = encode_to_vec(&batch);
        for cut in 0..bytes.len() {
            // Either an Err, or (for prefixes that happen to parse) a
            // view whose iteration errors; never a panic.
            if let Ok(view) = decode_ref_from_slice::<KeyedBatchView<'_, u64>>(&bytes[..cut]) {
                let _ = view.iter().collect::<Vec<_>>();
            }
        }
    }

    #[test]
    fn absurd_count_is_rejected() {
        let mut bad = Vec::new();
        varint::encode_u64(1_000_000, &mut bad);
        encode_column(1, &mut bad, |b| b.push(0));
        encode_column(1, &mut bad, |b| b.push(0));
        String::new().encode(&mut bad);
        assert!(matches!(
            decode_ref_from_slice::<KeyedBatchView<'_, u64>>(&bad),
            Err(WireError::LengthOverrun { .. })
        ));
    }

    #[test]
    fn try_for_each_matches_iter() {
        let batch = sample(30);
        let bytes = encode_to_vec(&batch);
        let view: KeyedBatchView<'_, u64> = decode_ref_from_slice(&bytes).unwrap();
        let mut collected = Vec::new();
        view.try_for_each(|k, p| collected.push((k, p.to_string())))
            .unwrap();
        assert_eq!(collected.len(), 30);
        assert_eq!(collected[7], (7, "record-7".to_string()));
    }
}
