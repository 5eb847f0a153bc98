//! Byte-level wire primitives: a growable [`Writer`], a bounds-checked
//! [`Reader`], the word-at-a-time content [`checksum`] and the FNV-1a
//! source hash.
//!
//! Everything is little-endian and length-prefixed. The reader is the
//! robustness boundary of the whole crate: every access is
//! bounds-checked, every length is sanity-checked against the bytes
//! actually remaining (so a bit-flipped length field cannot drive a
//! multi-gigabyte allocation), and every failure is a typed
//! [`DecodeError`] — never a panic. Arbitrary bytes fed to any decoder
//! in this crate must produce `Err`, not undefined structure.

use std::fmt;

/// Why a decode was rejected. Any variant means "treat as cache miss".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the structure did.
    Truncated,
    /// The file does not start with the format magic.
    BadMagic,
    /// The format version is not the one this build writes.
    BadVersion(u32),
    /// The crate-version stamp differs — a different build wrote this.
    BadStamp(String),
    /// The `CheckOptions` fingerprint differs from the reader's.
    BadFingerprint,
    /// The raw-source hash in the header does not match the source the
    /// reader is loading (a key collision or a misfiled entry).
    BadSourceHash,
    /// The trailing content checksum does not match the bytes.
    BadChecksum,
    /// A structurally impossible value (bad tag, bad UTF-8, oversized
    /// length, out-of-range index).
    Malformed(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("entry truncated"),
            DecodeError::BadMagic => f.write_str("bad format magic"),
            DecodeError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::BadStamp(s) => write!(f, "written by a different build ({s})"),
            DecodeError::BadFingerprint => f.write_str("check-options fingerprint mismatch"),
            DecodeError::BadSourceHash => f.write_str("raw-source hash mismatch"),
            DecodeError::BadChecksum => f.write_str("content checksum mismatch"),
            DecodeError::Malformed(what) => write!(f, "malformed entry: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Whether a failed decode indicts the file itself (corruption or
/// version skew — quarantine it) or only this read (leave it alone).
impl DecodeError {
    /// `true` when the on-disk file is bad for every possible reader
    /// and should be quarantined; `false` for [`DecodeError::BadSourceHash`],
    /// where the file may be a perfectly healthy entry for a *different*
    /// source that collided on the same key.
    pub fn indicts_file(&self) -> bool {
        !matches!(self, DecodeError::BadSourceHash)
    }
}

/// 64-bit FNV-1a over `bytes`: the header's independent hash of the raw
/// source text.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The odd multiplier of [`checksum`]'s rounds: 2⁶⁴ over the golden
/// ratio, rounded to odd.
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// The trailing content checksum of an entry image, eight bytes per
/// round.
///
/// The state starts from the length, then absorbs the input one
/// little-endian word at a time (the last word zero-padded), and ends
/// in a final mix. For a fixed word every round is a bijection of the
/// state, and so is the final mix, so two inputs of one length that
/// differ only within one aligned 8-byte word never share a sum: every
/// single-byte and single-bit change is caught.
pub fn checksum(bytes: &[u8]) -> u64 {
    // The offset keeps the empty input's sum off zero.
    let mut state = (bytes.len() as u64).wrapping_mul(MIX) ^ 0x5155_4e49_5453_5455;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        state = round(state ^ u64::from_le_bytes(word.try_into().expect("8-byte word")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        state = round(state ^ u64::from_le_bytes(last));
    }
    // Multiplying by an odd constant and xor-ing in a right shift are
    // both invertible, so the final mix is a bijection too.
    state ^= state >> 31;
    state = state.wrapping_mul(0xd6e8_feb8_6659_fd93);
    round(state)
}

/// One round of [`checksum`]: an odd multiply, then the high half folded
/// into the low half. Both steps are invertible.
fn round(state: u64) -> u64 {
    let state = state.wrapping_mul(MIX);
    state ^ (state >> 32)
}

/// An append-only encode buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` before the first write.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Raw bytes, unprefixed.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A `usize` widened to `u64` (indexes, tags, arities).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// A boolean as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// A collection length (`u64`).
    pub fn len_of(&mut self, len: usize) {
        self.usize(len);
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.len_of(s.len());
        self.bytes(s.as_bytes());
    }
}

/// A bounds-checked decode cursor over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The current cursor position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Takes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(DecodeError::Truncated);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("take(4)")))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("take(8)")))
    }

    /// A little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("take(8)")))
    }

    /// A `u64` narrowed back to `usize`, rejecting overflow.
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.u64()?).map_err(|_| DecodeError::Malformed("usize overflow"))
    }

    /// A strict boolean: exactly 0 or 1.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Malformed("bad bool")),
        }
    }

    /// A collection length, sanity-bounded by the bytes remaining:
    /// every element of every sequence in this format occupies at least
    /// one byte, so a length exceeding `remaining()` is corruption —
    /// reject it *before* any allocation sized by it.
    pub fn len_of(&mut self) -> Result<usize, DecodeError> {
        let len = self.usize()?;
        if len > self.remaining() {
            return Err(DecodeError::Malformed("length exceeds remaining bytes"));
        }
        Ok(len)
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.len_of()?;
        std::str::from_utf8(self.take(len)?).map_err(|_| DecodeError::Malformed("bad utf-8"))
    }

    /// Succeeds only when every byte has been consumed — trailing
    /// garbage is corruption, not padding.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::Malformed("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(123_456_789);
        w.u64(u64::MAX);
        w.i64(i64::MIN);
        w.bool(true);
        w.str("héllo");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 123_456_789);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), i64::MIN);
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_a_typed_error_at_every_prefix() {
        let mut w = Writer::new();
        w.u64(99);
        w.str("abcdef");
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let outcome = r.u64().and_then(|_| r.str().map(str::to_string));
            assert!(outcome.is_err(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut w = Writer::new();
        w.u64(u64::MAX); // an absurd length field
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.len_of().unwrap_err(), DecodeError::Malformed(_)));
        let mut w = Writer::new();
        w.u64(1_000_000); // plausible but bigger than the buffer
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(
            r.len_of().unwrap_err(),
            DecodeError::Malformed("length exceeds remaining bytes")
        );
    }

    #[test]
    fn non_canonical_bools_are_rejected() {
        let mut r = Reader::new(&[2]);
        assert_eq!(r.bool().unwrap_err(), DecodeError::Malformed("bad bool"));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn checksum_is_pinned_on_fixed_inputs() {
        // A change here changes every stored image: bump FORMAT_VERSION.
        assert_eq!(checksum(b""), 0x1c09_b837_1499_329e);
        assert_eq!(checksum(b"a"), 0x4f76_22de_4c89_d34b);
        assert_eq!(checksum(b"UNITCACH units-store checksum"), 0x2735_12b1_50fa_c438);
    }

    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        let zeros = [0u8; 64];
        let ones = [0xffu8; 64];
        let ramp: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        for buf in [&zeros[..], &ones[..], &ramp[..]] {
            let sum = checksum(buf);
            for bit in 0..buf.len() * 8 {
                let mut flipped = buf.to_vec();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum(&flipped), sum, "flipping bit {bit} of {buf:?} kept the sum");
            }
        }
    }

    #[test]
    fn trailing_bytes_are_corruption() {
        let mut w = Writer::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        r.u8().unwrap();
        assert!(r.finish().is_err());
    }
}
