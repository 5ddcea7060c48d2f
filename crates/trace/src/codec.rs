//! Binary codec primitives: the one encoding of every binary byte the
//! daemon reads or writes.
//!
//! A binary type implements [`Codec`] next to its definition,
//! appending its fields in declaration order — most of them through
//! [`crate::codec_struct!`] and [`crate::codec_tags!`], which expand
//! encode and decode from one field or variant list. The encodings are
//! fixed:
//!
//! - ids, counts, and other integers are unsigned LEB128 varints:
//!   [`put_varint`] writes them and [`Reader::varint`], the one varint
//!   decoder, reads them back;
//! - an `f64` is its 8 little-endian bytes, so values round-trip
//!   bit-exact;
//! - a string is its byte length as a varint, then its UTF-8 bytes;
//! - a `bool` is one byte, 0 or 1; a fieldless enum is one tag byte;
//! - a slice or `Vec` is its length as a varint, then its items;
//! - a [`crate::TraceEvent`] is a tag byte, then varints (its impl has
//!   the layout).
//!
//! Events cross the socket and the write-ahead log as a sequence of
//! `TraceEvent`s, after a flags byte: the wire's binary events frame
//! ([`crate::wire::put_events_payload`]) and the log's batch record both
//! carry them. The log's intern records and the engine snapshots are
//! built from the same primitives.
//!
//! Decoding reads through a [`Reader`], which bounds every count by the
//! bytes left before allocating for it, so damaged or hostile input is a
//! [`DecodeError`], never a panic or an outsized allocation.

use crate::ids::{Fd, FileId, Pid, RawPathId, Seq};
use crate::time::Timestamp;
use std::fmt;

/// Slicing-by-8 tables for [`crc32`]: `T[0]` is the classic bytewise
/// table, and `T[k][i]` advances `T[k - 1][i]` by one more zero byte.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), eight bytes a step: the
/// checksum every persistent frame carries over its payload.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFF_u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(w[4])]
            ^ t[2][usize::from(w[5])]
            ^ t[1][usize::from(w[6])]
            ^ t[0][usize::from(w[7])];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Why a payload did not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError(pub &'static str);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Appends `v` as an unsigned LEB128 varint: seven bits a byte, low
/// bits first, the high bit set on every byte but the last.
#[inline]
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

/// A bounds-checked cursor over an encoded payload.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { rest: buf }
    }

    /// The next `n` raw bytes.
    ///
    /// # Errors
    ///
    /// When fewer than `n` bytes are left.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.rest.len() {
            return Err(DecodeError("payload truncated"));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    /// The next byte.
    ///
    /// # Errors
    ///
    /// When no byte is left.
    #[inline]
    pub fn byte(&mut self) -> Result<u8, DecodeError> {
        let (&b, rest) = self
            .rest
            .split_first()
            .ok_or(DecodeError("payload truncated"))?;
        self.rest = rest;
        Ok(b)
    }

    /// The next varint, as [`put_varint`] writes it.
    ///
    /// # Errors
    ///
    /// When the payload ends mid-varint or the varint overflows a `u64`.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let (mut v, mut shift) = (0u64, 0u32);
        loop {
            let b = self.byte()?;
            // A tenth byte above 1 overflows; one of 0 or 1 ends the varint.
            if shift == 63 && b > 1 {
                return Err(DecodeError("varint overflows a u64"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// A count of items that each take at least `min_bytes`, checked
    /// against the bytes left so no allocation outgrows the input.
    ///
    /// # Errors
    ///
    /// When the count is malformed or claims more items than fit.
    pub fn count(&mut self, min_bytes: usize) -> Result<usize, DecodeError> {
        let n = usize::try_from(self.varint()?).map_err(|_| DecodeError("count overflows"))?;
        if n > self.rest.len() / min_bytes.max(1) {
            return Err(DecodeError("count exceeds the payload"));
        }
        Ok(n)
    }

    /// Ends decoding: every byte must have been read.
    ///
    /// # Errors
    ///
    /// When bytes are left over.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(DecodeError("trailing bytes after the payload"))
        }
    }
}

/// A type with a fixed binary encoding (see the module docs).
pub trait Codec {
    /// The fewest bytes one encoded value takes; bounds decoded counts.
    const MIN_BYTES: usize = 1;

    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Reads one value back.
    ///
    /// # Errors
    ///
    /// When the input is truncated or does not hold a valid value.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>
    where
        Self: Sized;
}

impl Codec for u64 {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, *self);
    }

    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<u64, DecodeError> {
        r.varint()
    }
}

impl Codec for u32 {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, u64::from(*self));
    }

    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<u32, DecodeError> {
        u32::try_from(r.varint()?).map_err(|_| DecodeError("varint exceeds a u32"))
    }
}

impl Codec for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, *self as u64);
    }

    fn decode(r: &mut Reader<'_>) -> Result<usize, DecodeError> {
        usize::try_from(r.varint()?).map_err(|_| DecodeError("varint exceeds a usize"))
    }
}

impl Codec for f64 {
    const MIN_BYTES: usize = 8;

    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<f64, DecodeError> {
        let b = r.bytes(8)?;
        Ok(f64::from_le_bytes(b.try_into().expect("eight bytes")))
    }
}

impl Codec for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }

    fn decode(r: &mut Reader<'_>) -> Result<bool, DecodeError> {
        match r.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError("bool is neither 0 nor 1")),
        }
    }
}

/// Encode-only; it decodes as a `String`.
impl Codec for str {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.len() as u64);
        buf.extend_from_slice(self.as_bytes());
    }
}

impl Codec for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.as_str().encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Result<String, DecodeError> {
        let len = r.count(1)?;
        let bytes = r.bytes(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| DecodeError("string is not UTF-8"))
    }
}

/// Implements [`Codec`] for single-field id types as their integer.
macro_rules! codec_newtype {
    ($($ty:ident($int:ty)),+ $(,)?) => {$(
        impl Codec for $ty {
            #[inline]
            fn encode(&self, buf: &mut Vec<u8>) {
                self.0.encode(buf);
            }

            #[inline]
            fn decode(r: &mut Reader<'_>) -> Result<$ty, DecodeError> {
                <$int>::decode(r).map($ty)
            }
        }
    )+};
}

codec_newtype!(
    FileId(u32),
    RawPathId(u32),
    Pid(u32),
    Fd(u32),
    Seq(u64),
    Timestamp(u64),
);

impl<A: Codec, B: Codec> Codec for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;

    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Result<(A, B), DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES + C::MIN_BYTES;

    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Result<(A, B, C), DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

/// Encode-only, so a borrowed batch is written without a copy; it
/// decodes as a `Vec`.
impl<T: Codec> Codec for [T] {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.as_slice().encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Vec<T>, DecodeError> {
        let n = r.count(T::MIN_BYTES)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

/// Implements [`Codec`] for a struct as its fields in the listed order,
/// which must be the declaration order; encode and decode expand from
/// the one list, so they cannot drift apart. `min_bytes = N` overrides
/// [`Codec::MIN_BYTES`].
#[macro_export]
macro_rules! codec_struct {
    ($ty:ident { $($field:ident),+ $(,)? } $(min_bytes = $min:expr)?) => {
        impl $crate::codec::Codec for $ty {
            $(const MIN_BYTES: usize = $min;)?

            fn encode(&self, buf: &mut Vec<u8>) {
                $($crate::codec::Codec::encode(&self.$field, buf);)+
            }

            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<$ty, $crate::codec::DecodeError> {
                Ok($ty {
                    $($field: $crate::codec::Codec::decode(r)?,)+
                })
            }
        }
    };
}

/// Implements [`Codec`] for a fieldless enum as one tag byte per
/// variant; any other byte is a [`DecodeError`].
#[macro_export]
macro_rules! codec_tags {
    ($ty:ident { $($variant:ident = $tag:literal),+ $(,)? }) => {
        impl $crate::codec::Codec for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.push(match self {
                    $($ty::$variant => $tag,)+
                });
            }

            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<$ty, $crate::codec::DecodeError> {
                match r.byte()? {
                    $($tag => Ok($ty::$variant),)+
                    _ => Err($crate::codec::DecodeError(concat!(
                        "unknown ",
                        stringify!($ty),
                        " tag"
                    ))),
                }
            }
        }
    };
}

/// Decodes one `T` that must span all of `payload`.
///
/// # Errors
///
/// When the payload does not decode or bytes are left over.
pub fn decode_all<T: Codec>(payload: &[u8]) -> Result<T, DecodeError> {
    let mut r = Reader::new(payload);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Codec + PartialEq + fmt::Debug>(value: T) {
        let mut buf = Vec::new();
        value.encode(&mut buf);
        assert!(buf.len() >= T::MIN_BYTES);
        assert_eq!(decode_all::<T>(&buf), Ok(value));
    }

    #[test]
    fn crc32_matches_the_bitwise_definition() {
        fn bitwise(data: &[u8]) -> u32 {
            let mut c = 0xFFFF_FFFF_u32;
            for &b in data {
                c ^= u32::from(b);
                for _ in 0..8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
            }
            c ^ 0xFFFF_FFFF
        }
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        let data: Vec<u8> = (0..100u32).map(|i| (i * 37 % 251) as u8).collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), bitwise(&data[..len]), "length {len}");
        }
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u64);
        round_trip(u64::MAX);
        round_trip(u32::MAX);
        round_trip(7usize);
        round_trip(true);
        round_trip(String::from("/home/user/é.c"));
        round_trip(FileId(42));
        round_trip((Seq(9), Timestamp(1 << 40)));
        round_trip((FileId(1), 0.25f64, 3u32));
        round_trip(vec![(FileId(3), 5u64), (FileId(4), 0)]);
    }

    #[test]
    fn floats_are_bit_exact() {
        for v in [0.1f64, -0.0, f64::MIN_POSITIVE, 1e308, f64::NAN] {
            let mut buf = Vec::new();
            v.encode(&mut buf);
            let back = decode_all::<f64>(&buf).expect("decodes");
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left() {
        // A claimed billion strings in a four-byte payload.
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 30);
        assert!(decode_all::<Vec<String>>(&buf).is_err());
        // Eight f64s need 64 bytes; seven are not enough.
        let mut buf = Vec::new();
        put_varint(&mut buf, 8);
        buf.extend_from_slice(&[0; 56]);
        assert!(decode_all::<Vec<f64>>(&buf).is_err());
    }

    #[test]
    fn varints_end_by_their_tenth_byte() {
        let mut max = vec![0xff; 9];
        max.push(0x01);
        assert_eq!(decode_all::<u64>(&max), Ok(u64::MAX));
        // A tenth byte above 1 carries bits past the 64th.
        *max.last_mut().expect("ten bytes") = 0x02;
        assert!(decode_all::<u64>(&max).is_err());
        let mut long = vec![0x80; 10];
        long.push(0x00);
        assert!(decode_all::<u64>(&long).is_err());
        assert!(decode_all::<u64>(&[0x80]).is_err());
    }

    #[test]
    fn trailing_bytes_and_bad_values_are_refused() {
        assert!(decode_all::<u64>(&[1, 0]).is_err());
        assert!(decode_all::<bool>(&[2]).is_err());
        assert!(decode_all::<String>(&[2, 0xff, 0xfe]).is_err());
        assert!(decode_all::<u32>(&[0xff, 0xff, 0xff, 0xff, 0x7f]).is_err());
    }
}
