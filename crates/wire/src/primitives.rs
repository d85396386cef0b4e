//! [`Wire`] implementations for scalar types.

use crate::varint;
use crate::{Wire, WireError, WireRef};

/// The narrowest column width in bytes that holds every item's bits:
/// one OR-scan, no encoding.
#[inline]
fn column_width<T: Copy>(items: &[T], bits: impl Fn(T) -> u64) -> usize {
    match items.iter().fold(0, |or, &item| or | bits(item)) {
        0..=0xff => 1,
        0x100..=0xffff => 2,
        0x1_0000..=0xffff_ffff => 4,
        _ => 8,
    }
}

/// Writes the low `W` bytes of each item's bits into `column`.
#[inline]
fn pack<const W: usize, T: Copy>(items: &[T], bits: impl Fn(T) -> u64, column: &mut [u8]) {
    for (chunk, &item) in column.chunks_exact_mut(W).zip(items) {
        chunk.copy_from_slice(&bits(item).to_le_bytes()[..W]);
    }
}

/// Zero-extends each `W`-byte chunk of `column` and appends its value.
#[inline]
fn unpack<const W: usize, T>(column: &[u8], value: impl Fn(u64) -> T, out: &mut Vec<T>) {
    out.extend(column.chunks_exact(W).map(|chunk| {
        let mut le = [0u8; 8];
        le[..W].copy_from_slice(chunk);
        value(u64::from_le_bytes(le))
    }));
}

/// The integer batch layout: a header byte `w`, the narrowest of
/// {1, 2, 4, 8} that holds the OR of every item's bits, then each item
/// as `w` little-endian bytes.
#[inline]
fn encode_column<T: Copy>(items: &[T], bits: impl Fn(T) -> u64 + Copy, buf: &mut Vec<u8>) {
    let width = column_width(items, bits);
    buf.push(width as u8);
    let start = buf.len();
    buf.resize(start + items.len() * width, 0);
    let column = &mut buf[start..];
    match width {
        1 => pack::<1, T>(items, bits, column),
        2 => pack::<2, T>(items, bits, column),
        4 => pack::<4, T>(items, bits, column),
        _ => pack::<8, T>(items, bits, column),
    }
}

/// Reads the header byte of a `len`-item column whose items are at most
/// `max_width` bytes wide, leaving `input` at the column's first byte.
/// Refuses a width no encoder writes, and a `len` whose `len × width`
/// bytes the input does not hold.
fn column_header(input: &mut &[u8], len: usize, max_width: usize) -> Result<usize, WireError> {
    let (&header, rest) = input.split_first().ok_or(WireError::UnexpectedEof)?;
    let width = usize::from(header);
    if !matches!(width, 1 | 2 | 4 | 8) {
        return Err(WireError::InvalidTag(header));
    }
    if width > max_width {
        return Err(WireError::VarintOverflow);
    }
    if len
        .checked_mul(width)
        .is_none_or(|bytes| bytes > rest.len())
    {
        return Err(WireError::LengthOverrun {
            declared: len,
            remaining: rest.len(),
        });
    }
    *input = rest;
    Ok(width)
}

/// [`Wire`] and [`WireRef`] for an integer type: a varint alone, a
/// width-packed column in a batch. `$bits`/`$value` map to and from the
/// unsigned bits both layouts carry.
macro_rules! wire_integer {
    ($bits:expr, $value:expr => $($t:ty),*) => {$(
        // One body serves the 64-bit types and the narrower ones.
        #[allow(clippy::unnecessary_cast)]
        impl Wire for $t {
            #[inline]
            fn encode(&self, buf: &mut Vec<u8>) {
                varint::encode_u64($bits(*self), buf);
            }
            #[inline]
            fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
                let bits = varint::decode_u64(input)?;
                <$t>::try_from($value(bits)).map_err(|_| WireError::VarintOverflow)
            }
            #[inline]
            fn encoded_len(&self) -> usize {
                varint::len_u64($bits(*self))
            }
            #[inline]
            fn encode_batch(items: &[Self], buf: &mut Vec<u8>) {
                encode_column(items, $bits, buf);
            }
            #[inline]
            fn decode_batch(
                input: &mut &[u8],
                len: usize,
                out: &mut Vec<Self>,
            ) -> Result<(), WireError> {
                let width = column_header(input, len, std::mem::size_of::<$t>())?;
                let (column, rest) = input.split_at(len * width);
                *input = rest;
                // `width` fits the type, so the narrowing cast is exact.
                let value = |bits| $value(bits) as $t;
                match width {
                    1 => unpack::<1, $t>(column, value, out),
                    2 => unpack::<2, $t>(column, value, out),
                    4 => unpack::<4, $t>(column, value, out),
                    _ => unpack::<8, $t>(column, value, out),
                }
                Ok(())
            }
            #[inline]
            fn batch_len(items: &[Self]) -> usize {
                1 + items.len() * column_width(items, $bits)
            }
        }

        #[allow(clippy::unnecessary_cast)]
        impl<'a> WireRef<'a> for $t {
            fn decode_ref(input: &mut &'a [u8]) -> Result<Self, WireError> {
                <$t as Wire>::decode(input)
            }
            #[inline]
            fn batch_width(input: &mut &'a [u8], len: usize) -> Result<usize, WireError> {
                column_header(input, len, std::mem::size_of::<$t>())
            }
            #[inline]
            fn decode_ref_in_batch(input: &mut &'a [u8], width: usize) -> Result<Self, WireError> {
                let (slot, rest) = input.split_at_checked(width).ok_or(WireError::UnexpectedEof)?;
                let mut le = [0u8; 8];
                le.get_mut(..width).ok_or(WireError::InvalidValue)?.copy_from_slice(slot);
                *input = rest;
                Ok($value(u64::from_le_bytes(le)) as $t)
            }
        }
    )*};
}

wire_integer!(|v| v as u64, |bits: u64| bits => u8, u16, u32, u64, usize);
wire_integer!(|v| varint::zigzag(v as i64), varint::unzigzag => i8, i16, i32, i64, isize);

impl Wire for bool {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let (&byte, rest) = input.split_first().ok_or(WireError::UnexpectedEof)?;
        *input = rest;
        match byte {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::InvalidTag(other)),
        }
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Wire for f32 {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        if input.len() < 4 {
            return Err(WireError::UnexpectedEof);
        }
        let (head, rest) = input.split_at(4);
        *input = rest;
        Ok(f32::from_le_bytes(head.try_into().expect("split_at(4)")))
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        4
    }
}

impl Wire for f64 {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        if input.len() < 8 {
            return Err(WireError::UnexpectedEof);
        }
        let (head, rest) = input.split_at(8);
        *input = rest;
        Ok(f64::from_le_bytes(head.try_into().expect("split_at(8)")))
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Wire for char {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        varint::encode_u64(u64::from(u32::from(*self)), buf);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let v = u32::decode(input)?;
        char::from_u32(v).ok_or(WireError::InvalidValue)
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        varint::len_u64(u64::from(u32::from(*self)))
    }
}

impl Wire for () {
    #[inline]
    fn encode(&self, _buf: &mut Vec<u8>) {}
    #[inline]
    fn decode(_input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(())
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use crate::{decode_from_slice, encode_to_vec, Wire, WireError};

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = encode_to_vec(v);
        assert_eq!(bytes.len(), v.encoded_len());
        assert_eq!(decode_from_slice::<T>(&bytes).unwrap(), *v);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(&0u8);
        roundtrip(&255u8);
        roundtrip(&u16::MAX);
        roundtrip(&u32::MAX);
        roundtrip(&u64::MAX);
        roundtrip(&usize::MAX);
        roundtrip(&i8::MIN);
        roundtrip(&i16::MIN);
        roundtrip(&i32::MIN);
        roundtrip(&i64::MIN);
        roundtrip(&isize::MIN);
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&1.5f32);
        roundtrip(&-0.0f64);
        roundtrip(&'é');
        roundtrip(&'\u{10FFFF}');
        roundtrip(&());
    }

    #[test]
    fn narrow_types_reject_wide_values() {
        let bytes = encode_to_vec(&300u64);
        assert_eq!(
            decode_from_slice::<u8>(&bytes),
            Err(WireError::VarintOverflow)
        );
        let bytes = encode_to_vec(&(-200i64));
        assert_eq!(
            decode_from_slice::<i8>(&bytes),
            Err(WireError::VarintOverflow)
        );
    }

    #[test]
    fn bool_rejects_other_tags() {
        assert_eq!(
            decode_from_slice::<bool>(&[2]),
            Err(WireError::InvalidTag(2))
        );
    }

    #[test]
    fn char_rejects_surrogates() {
        let bytes = encode_to_vec(&0xD800u32);
        assert_eq!(
            decode_from_slice::<char>(&bytes),
            Err(WireError::InvalidValue)
        );
    }

    #[test]
    fn nan_roundtrips_bitwise() {
        let v = f64::NAN;
        let bytes = encode_to_vec(&v);
        let back = decode_from_slice::<f64>(&bytes).unwrap();
        assert_eq!(v.to_bits(), back.to_bits());
    }
}
