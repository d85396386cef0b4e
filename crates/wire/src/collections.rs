//! [`Wire`] implementations for sequences, strings, options, and maps.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;

use crate::varint;
use crate::{Wire, WireError};

/// Checks a decoded length against the bytes actually remaining so a
/// malicious or corrupt length prefix cannot trigger a huge allocation.
///
/// Every element encodes to at least one byte except `()`-like zero-width
/// types; for those the bound below is still sound because we cap by the
/// declared length itself only when elements are zero-width.
fn check_len(declared: usize, remaining: usize, min_elem_bytes: usize) -> Result<(), WireError> {
    if min_elem_bytes > 0 && declared > remaining / min_elem_bytes {
        Err(WireError::LengthOverrun {
            declared,
            remaining,
        })
    } else {
        Ok(())
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        varint::encode_u64(self.len() as u64, buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = usize::decode(input)?;
        if len > input.len() {
            return Err(WireError::LengthOverrun {
                declared: len,
                remaining: input.len(),
            });
        }
        let (head, rest) = input.split_at(len);
        *input = rest;
        String::from_utf8(head.to_vec()).map_err(|_| WireError::InvalidValue)
    }
    fn encoded_len(&self) -> usize {
        varint::len_u64(self.len() as u64) + self.len()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        varint::encode_u64(self.len() as u64, buf);
        T::encode_batch(self, buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = usize::decode(input)?;
        let mut out = Vec::new();
        T::decode_batch(input, len, &mut out)?;
        Ok(out)
    }
    fn encoded_len(&self) -> usize {
        varint::len_u64(self.len() as u64) + T::batch_len(self)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let (&tag, rest) = input.split_first().ok_or(WireError::UnexpectedEof)?;
        *input = rest;
        match tag {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            other => Err(WireError::InvalidTag(other)),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::encoded_len)
    }
}

impl<K: Wire + Eq + Hash, V: Wire> Wire for HashMap<K, V> {
    fn encode(&self, buf: &mut Vec<u8>) {
        // Iteration order is nondeterministic; that is acceptable because
        // decoding rebuilds the same map regardless of entry order. Callers
        // needing canonical bytes should encode sorted pairs instead.
        varint::encode_u64(self.len() as u64, buf);
        for (k, v) in self {
            k.encode(buf);
            v.encode(buf);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = usize::decode(input)?;
        check_len(len, input.len(), 2)?;
        let mut out = HashMap::with_capacity(len);
        for _ in 0..len {
            let k = K::decode(input)?;
            let v = V::decode(input)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Wire + Eq + Hash> Wire for HashSet<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        // Like HashMap: order is nondeterministic but decoding rebuilds
        // the same set.
        varint::encode_u64(self.len() as u64, buf);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = usize::decode(input)?;
        check_len(len, input.len(), 1)?;
        let mut out = HashSet::with_capacity(len);
        for _ in 0..len {
            out.insert(T::decode(input)?);
        }
        Ok(out)
    }
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    fn encode(&self, buf: &mut Vec<u8>) {
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        // Build into a Vec first; `try_into` cannot fail since we push N items.
        let mut items = Vec::with_capacity(N);
        for _ in 0..N {
            items.push(T::decode(input)?);
        }
        items.try_into().map_err(|_| WireError::InvalidValue)
    }
    fn encoded_len(&self) -> usize {
        self.iter().map(Wire::encoded_len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode_from_slice, encode_to_vec};

    #[test]
    fn string_roundtrips() {
        for s in ["", "a", "héllo wörld", "🦀🦀🦀"] {
            let v = s.to_string();
            let bytes = encode_to_vec(&v);
            assert_eq!(bytes.len(), v.encoded_len());
            assert_eq!(decode_from_slice::<String>(&bytes).unwrap(), v);
        }
    }

    #[test]
    fn string_rejects_invalid_utf8() {
        let mut bytes = Vec::new();
        varint::encode_u64(2, &mut bytes);
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(
            decode_from_slice::<String>(&bytes),
            Err(WireError::InvalidValue)
        );
    }

    #[test]
    fn vec_roundtrips() {
        let v: Vec<u32> = (0..1000).collect();
        let bytes = encode_to_vec(&v);
        assert_eq!(bytes.len(), v.encoded_len());
        assert_eq!(decode_from_slice::<Vec<u32>>(&bytes).unwrap(), v);
    }

    #[test]
    fn nested_vec_roundtrips() {
        let v = vec![vec![1u8, 2], vec![], vec![3]];
        let bytes = encode_to_vec(&v);
        assert_eq!(decode_from_slice::<Vec<Vec<u8>>>(&bytes).unwrap(), v);
    }

    #[test]
    fn length_overrun_is_rejected_without_allocation() {
        let mut bytes = Vec::new();
        varint::encode_u64(u32::MAX as u64, &mut bytes);
        bytes.extend_from_slice(&[8, 7]); // column width 8, then one byte
        let err = decode_from_slice::<Vec<u64>>(&bytes).unwrap_err();
        assert!(matches!(err, WireError::LengthOverrun { .. }));
        // Row-major element types take the same check.
        let err = decode_from_slice::<Vec<bool>>(&bytes).unwrap_err();
        assert!(matches!(err, WireError::LengthOverrun { .. }));
    }

    #[test]
    fn option_roundtrips() {
        for v in [None, Some(42u64)] {
            let bytes = encode_to_vec(&v);
            assert_eq!(bytes.len(), v.encoded_len());
            assert_eq!(decode_from_slice::<Option<u64>>(&bytes).unwrap(), v);
        }
    }

    #[test]
    fn option_rejects_bad_tag() {
        assert_eq!(
            decode_from_slice::<Option<u8>>(&[9]),
            Err(WireError::InvalidTag(9))
        );
    }

    #[test]
    fn hashmap_roundtrips() {
        let mut m = HashMap::new();
        m.insert("a".to_string(), 1u32);
        m.insert("b".to_string(), 2u32);
        let bytes = encode_to_vec(&m);
        assert_eq!(
            decode_from_slice::<HashMap<String, u32>>(&bytes).unwrap(),
            m
        );
    }

    #[test]
    fn hashset_roundtrips() {
        let s: HashSet<u64> = [3, 1, 4, 1, 5].into_iter().collect();
        let bytes = encode_to_vec(&s);
        assert_eq!(decode_from_slice::<HashSet<u64>>(&bytes).unwrap(), s);
    }

    #[test]
    fn array_roundtrips() {
        let v = [3u16, 1, 4, 1, 5];
        let bytes = encode_to_vec(&v);
        assert_eq!(bytes.len(), v.encoded_len());
        assert_eq!(decode_from_slice::<[u16; 5]>(&bytes).unwrap(), v);
    }
}
