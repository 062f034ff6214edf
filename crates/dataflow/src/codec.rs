//! A small binary codec for checkpointing.
//!
//! Rollback recovery writes iteration state to stable storage. Rather than
//! forcing `serde` derives onto every record type, the engine ships a compact
//! hand-rolled codec: fixed-width little-endian scalars, length-prefixed
//! containers. Implementations exist for the primitive types, `char`,
//! `String`, `Option`, `Vec`, and tuples up to arity six — enough to cover
//! the record types of every algorithm in this repository, and custom
//! structs implement the two-method [`Codec`] trait by composing these.
//!
//! A `Vec` whose element type has a fixed encoded width ([`Codec::WIDTH`]:
//! the integer and float scalars and tuples of them) takes a bulk path — one
//! exact reservation and a loop over `chunks_exact` with no per-element
//! length or capacity check — that produces and accepts the same bytes as
//! the per-element loop every other element type keeps.

use crate::error::{EngineError, Result};

/// Types that can be written to / read from a byte stream.
pub trait Codec: Sized {
    /// `Some(w)`, `w > 0`, when every value of the type encodes to exactly
    /// `w` bytes and every `w`-byte string decodes to a value: the integer
    /// and float scalars and tuples of them. A `Vec` of such a type takes
    /// the bulk path of [`encode_slice`] and `Vec::decode`; a type that
    /// declares a width must also provide [`Self::write_fixed`] and
    /// [`Self::read_fixed`], producing and accepting the same bytes as
    /// [`Self::encode`] and [`Self::decode`].
    const WIDTH: Option<usize> = None;
    /// Append the encoded representation to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode one value from the front of `input`, advancing it.
    fn decode(input: &mut &[u8]) -> Result<Self>;
    /// Write the encoded representation into `dst`, which is exactly
    /// [`Self::WIDTH`] bytes long. Only called when a width is declared.
    fn write_fixed(&self, _dst: &mut [u8]) {
        unreachable!("write_fixed on a type that declares no WIDTH")
    }
    /// Decode a value from `src`, which is exactly [`Self::WIDTH`] bytes
    /// long. Only called when a width is declared.
    fn read_fixed(_src: &[u8]) -> Self {
        unreachable!("read_fixed on a type that declares no WIDTH")
    }
}

fn short_input(what: &str) -> EngineError {
    EngineError::Codec(format!("input too short while decoding {what}"))
}

/// Read `N` bytes off the front of `input`.
fn take<const N: usize>(input: &mut &[u8], what: &str) -> Result<[u8; N]> {
    if input.len() < N {
        return Err(short_input(what));
    }
    let (head, rest) = input.split_at(N);
    *input = rest;
    let mut buf = [0u8; N];
    buf.copy_from_slice(head);
    Ok(buf)
}

macro_rules! impl_scalar_codec {
    ($($ty:ty),*) => {$(
        impl Codec for $ty {
            const WIDTH: Option<usize> = Some(std::mem::size_of::<$ty>());
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(input: &mut &[u8]) -> Result<Self> {
                Ok(<$ty>::from_le_bytes(take(input, stringify!($ty))?))
            }
            #[inline]
            fn write_fixed(&self, dst: &mut [u8]) {
                dst.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_fixed(src: &[u8]) -> Self {
                <$ty>::from_le_bytes(src.try_into().expect("src is WIDTH bytes"))
            }
        }
    )*};
}

impl_scalar_codec!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128, f32, f64);

impl Codec for usize {
    const WIDTH: Option<usize> = u64::WIDTH;
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        Ok(u64::decode(input)? as usize)
    }
    #[inline]
    fn write_fixed(&self, dst: &mut [u8]) {
        (*self as u64).write_fixed(dst);
    }
    #[inline]
    fn read_fixed(src: &[u8]) -> Self {
        u64::read_fixed(src) as usize
    }
}

impl Codec for char {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u32).encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        let raw = u32::decode(input)?;
        char::from_u32(raw)
            .ok_or_else(|| EngineError::Codec(format!("invalid char scalar {raw:#x}")))
    }
}

impl Codec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        match take::<1>(input, "bool")?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(EngineError::Codec(format!("invalid bool byte {other}"))),
        }
    }
}

impl Codec for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_input: &mut &[u8]) -> Result<Self> {
        Ok(())
    }
}

/// Encode `s` as a `String` would be: a `u64` byte count, then the bytes.
pub fn encode_str(s: &str, out: &mut Vec<u8>) {
    (s.len() as u64).encode(out);
    out.extend_from_slice(s.as_bytes());
}

impl Codec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_str(self, out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        let len = u64::decode(input)? as usize;
        if input.len() < len {
            return Err(short_input("String"));
        }
        let (head, rest) = input.split_at(len);
        let s = std::str::from_utf8(head)
            .map_err(|e| EngineError::Codec(format!("invalid utf-8 in String: {e}")))?
            .to_string();
        *input = rest;
        Ok(s)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        match take::<1>(input, "Option tag")?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            other => Err(EngineError::Codec(format!("invalid Option tag {other}"))),
        }
    }
}

/// Encode `items` as a `Vec` would be: a `u64` element count, then the
/// elements. Fixed-width element types ([`Codec::WIDTH`]) are written with
/// one exact reservation and no per-element capacity check.
pub fn encode_slice<T: Codec>(items: &[T], out: &mut Vec<u8>) {
    match T::WIDTH {
        Some(width) => {
            out.reserve(8 + items.len() * width);
            (items.len() as u64).encode(out);
            let start = out.len();
            out.resize(start + items.len() * width, 0);
            for (item, dst) in items.iter().zip(out[start..].chunks_exact_mut(width)) {
                item.write_fixed(dst);
            }
        }
        None => {
            (items.len() as u64).encode(out);
            for item in items {
                item.encode(out);
            }
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_slice(self, out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        let len = u64::decode(input)? as usize;
        if let Some(width) = T::WIDTH {
            // The count is checked against the bytes present before anything
            // is allocated, so a corrupt count cannot over-allocate.
            let bytes =
                len.checked_mul(width).filter(|&bytes| bytes <= input.len()).ok_or_else(|| {
                    EngineError::Codec(format!(
                        "Vec length prefix {len} of {width}-byte elements exceeds remaining input {}",
                        input.len()
                    ))
                })?;
            let (head, rest) = input.split_at(bytes);
            *input = rest;
            return Ok(head.chunks_exact(width).map(T::read_fixed).collect());
        }
        // Guard against corrupt length prefixes: each element takes >= 1 byte
        // except zero-sized ones, for which a conservative cap still applies.
        if len > input.len() && std::mem::size_of::<T>() > 0 {
            return Err(EngineError::Codec(format!(
                "Vec length prefix {len} exceeds remaining input {}",
                input.len()
            )));
        }
        let mut out = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            out.push(T::decode(input)?);
        }
        Ok(out)
    }
}

macro_rules! impl_tuple_codec {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Codec),+> Codec for ($($name,)+) {
            const WIDTH: Option<usize> = {
                let mut total = Some(0);
                $(total = match (total, $name::WIDTH) {
                    (Some(total), Some(width)) => Some(total + width),
                    _ => None,
                };)+
                total
            };
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$idx.encode(out);)+
            }
            fn decode(input: &mut &[u8]) -> Result<Self> {
                Ok(($($name::decode(input)?,)+))
            }
            fn write_fixed(&self, dst: &mut [u8]) {
                let mut end = 0;
                $(
                    let start = end;
                    end += $name::WIDTH.expect("a fixed-width tuple has fixed-width fields");
                    self.$idx.write_fixed(&mut dst[start..end]);
                )+
            }
            fn read_fixed(src: &[u8]) -> Self {
                let mut end = 0;
                ($({
                    let start = end;
                    end += $name::WIDTH.expect("a fixed-width tuple has fixed-width fields");
                    $name::read_fixed(&src[start..end])
                },)+)
            }
        }
    )*};
}

impl_tuple_codec! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, G: 5)
}

/// Encode a value into a fresh buffer.
pub fn encode_to_vec<T: Codec>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decode a value from a buffer, requiring the buffer to be fully consumed.
pub fn decode_exact<T: Codec>(mut input: &[u8]) -> Result<T> {
    let value = T::decode(&mut input)?;
    if !input.is_empty() {
        return Err(EngineError::Codec(format!("{} trailing bytes after decode", input.len())));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-element encoding every `Vec` had before the bulk path.
    fn encode_per_element<T: Codec>(items: &[T]) -> Vec<u8> {
        let mut out = Vec::new();
        (items.len() as u64).encode(&mut out);
        items.iter().for_each(|item| item.encode(&mut out));
        out
    }

    /// The per-element decoding every `Vec` had before the bulk path.
    fn decode_per_element<T: Codec>(mut input: &[u8]) -> Result<Vec<T>> {
        let len = u64::decode(&mut input)?;
        let items = (0..len).map(|_| T::decode(&mut input)).collect::<Result<Vec<T>>>()?;
        if input.is_empty() {
            Ok(items)
        } else {
            Err(short_input("trailing bytes"))
        }
    }

    /// Bulk and per-element paths agree on `items`, on every truncation of
    /// their encoding, and on an element count that claims one more or one
    /// fewer than the bytes hold.
    fn assert_bulk_matches_per_element<T>(items: Vec<T>)
    where
        T: Codec + PartialEq + std::fmt::Debug,
    {
        let bytes = encode_to_vec(&items);
        assert_eq!(bytes, encode_per_element(&items));
        assert_eq!(decode_exact::<Vec<T>>(&bytes).unwrap(), items);
        assert_eq!(decode_per_element::<T>(&bytes).unwrap(), items);
        for cut in 0..bytes.len() {
            assert!(decode_exact::<Vec<T>>(&bytes[..cut]).is_err(), "truncated at {cut}");
        }
        for count in [items.len() as u64 + 1, (items.len() as u64).wrapping_sub(1)] {
            let mut corrupt = bytes.clone();
            corrupt[..8].copy_from_slice(&count.to_le_bytes());
            assert_eq!(
                decode_exact::<Vec<T>>(&corrupt).ok(),
                decode_per_element::<T>(&corrupt).ok(),
                "count {count} over {} elements",
                items.len()
            );
        }
    }

    proptest! {
        #[test]
        fn bulk_vec_codec_equals_the_per_element_loop(
            scalars in prop::collection::vec(any::<u64>(), 0..40),
            records in prop::collection::vec((any::<u64>(), any::<u64>()), 0..40),
            msgs in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..40),
            spans in prop::collection::vec(
                (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 0..20),
            rows in prop::collection::vec(
                (any::<u64>(), prop::collection::vec(any::<u64>(), 0..5)), 0..10),
        ) {
            assert_bulk_matches_per_element(scalars);
            assert_bulk_matches_per_element(records);
            assert_bulk_matches_per_element(msgs);
            assert_bulk_matches_per_element(spans);
            // Variable-width elements stay on the per-element default.
            assert_bulk_matches_per_element(rows);
        }
    }

    #[test]
    fn only_scalars_and_tuples_of_them_have_a_width() {
        assert_eq!(<(u64, u64, u64)>::WIDTH, Some(24));
        assert_eq!(<(u8, u16, (u32, f64))>::WIDTH, Some(15));
        assert_eq!(usize::WIDTH, Some(8));
        assert_eq!(<(u64, Vec<u64>)>::WIDTH, None);
        assert_eq!(<(u64, String)>::WIDTH, None);
        // Not every byte is a `bool`, not every `u32` a `char`.
        assert_eq!(bool::WIDTH, None);
        assert_eq!(char::WIDTH, None);
    }

    #[test]
    fn mixed_width_tuples_take_the_bulk_path_in_field_order() {
        assert_bulk_matches_per_element(vec![(1u8, -2i16, 3.5f32, u128::MAX), (9, 8, -0.0, 7)]);
        assert_bulk_matches_per_element(vec![((1u64, 2u32), 3usize), ((4, 5), 6)]);
    }

    #[test]
    fn a_hostile_element_count_allocates_nothing() {
        // 2^40 twenty-four-byte elements "follow" in sixteen bytes of input:
        // the count is checked against the bytes present, not trusted.
        let mut bytes = encode_to_vec(&(1u64 << 40));
        bytes.extend_from_slice(&[0u8; 16]);
        let err = decode_exact::<Vec<(u64, u64, u64)>>(&bytes).unwrap_err();
        assert!(err.to_string().contains("exceeds remaining input"), "{err}");
    }

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_to_vec(&v);
        let back: T = decode_exact(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(-123i64);
        roundtrip(3.25f64);
        roundtrip(f64::NEG_INFINITY);
        roundtrip(true);
        roundtrip(usize::MAX);
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(String::from("höhenzug"));
        roundtrip(String::new());
        roundtrip(Option::<u64>::None);
        roundtrip(Some(9u32));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<f64>::new());
        roundtrip(vec![vec![1u8], vec![], vec![2, 3]]);
    }

    #[test]
    fn tuples_roundtrip() {
        roundtrip((1u64,));
        roundtrip((1u64, 2.5f64));
        roundtrip((1u64, String::from("x"), false));
        roundtrip((1u8, 2u16, 3u32, 4u64));
        roundtrip((1u8, 2u16, 3u32, 4u64, 5i64));
        roundtrip((1u8, 2u16, 3u32, 4u64, 5i64, 6.5f32));
    }

    #[test]
    fn wide_scalars_and_chars_roundtrip() {
        roundtrip(u128::MAX);
        roundtrip(i128::MIN);
        roundtrip('λ');
        roundtrip('\u{1F680}');
        // An invalid char scalar (a surrogate) must be rejected.
        let bytes = encode_to_vec(&0xD800u32);
        assert!(decode_exact::<char>(&bytes).is_err());
    }

    #[test]
    fn nan_roundtrips_as_nan() {
        let bytes = encode_to_vec(&f64::NAN);
        let back: f64 = decode_exact(&bytes).unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let bytes = encode_to_vec(&(1u64, 2u64));
        assert!(decode_exact::<(u64, u64)>(&bytes[..10]).is_err());
        assert!(decode_exact::<(u64, u64)>(&[]).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_to_vec(&7u64);
        bytes.push(0);
        assert!(decode_exact::<u64>(&bytes).is_err());
    }

    #[test]
    fn corrupt_length_prefix_rejected() {
        // A Vec claiming u64::MAX elements must not attempt the allocation.
        let bytes = encode_to_vec(&u64::MAX);
        assert!(decode_exact::<Vec<u64>>(&bytes).is_err());
    }

    #[test]
    fn invalid_bool_and_option_tags_rejected() {
        assert!(decode_exact::<bool>(&[7]).is_err());
        assert!(decode_exact::<Option<u8>>(&[9]).is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut bytes = encode_to_vec(&2u64);
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert!(decode_exact::<String>(&bytes).is_err());
    }
}
