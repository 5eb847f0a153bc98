//! Crash-safe persistent artifact store for the Units engine.
//!
//! This crate gives compiled artifacts a life beyond the process: a
//! from-scratch binary serialization format for checked+resolved
//! kernel terms and lowered bytecode [`Chunk`]s, plus an on-disk cache
//! directory ([`Store`]) keyed by the engine's existing content
//! hashes. A fresh engine pointed at a warm directory skips parsing,
//! checking, resolution, and lowering entirely — §4.1.6's "one copy of
//! the code", now one copy *on disk* too.
//!
//! Robustness is the design center, not a bolt-on:
//!
//! * **Crash-safe writes** — temp file + `fsync` + atomic rename; a
//!   crash mid-write leaves only swept-on-open garbage ([`Store`]).
//! * **Verified reads** — format magic, format version, a
//!   crate-version build stamp, the engine's `CheckOptions`
//!   fingerprint, an independent hash of the raw source, and a
//!   trailing FNV-1a content checksum all have to agree before a byte
//!   of payload is trusted; structural decode is fully bounds-checked
//!   on top ([`decode_entry`]).
//! * **Typed degradation** — every failure is a cache miss (corrupt
//!   files are quarantined to `corrupt/`), never a panic and never a
//!   wrong answer.
//! * **Concurrent sharing** — lock-free readers, one advisory-locked
//!   writer per directory, losers degrade to read-only.
//!
//! # Entry layout
//!
//! ```text
//! magic        8 bytes   b"UNITCACH"
//! version      u32       FORMAT_VERSION
//! stamp        str       env!("CARGO_PKG_VERSION") of the writer
//! fingerprint  u64       engine CheckOptions/resolved-form fingerprint
//! source_fnv   u64       FNV-1a of the raw source text
//! payload      u64+bytes length-prefixed sections (terms, chunk)
//! checksum     u64       FNV-1a over everything above
//! ```
//!
//! Like `units-serve`'s JSON layer, everything here is from scratch on
//! `std` — no serialization framework, no external hash crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chunk;
mod store;
mod term;
mod wire;

use units_kernel::{Expr, Ty};
use units_runtime::Chunk;

pub use store::{Lookup, Store};
pub use wire::{fnv1a_64, DecodeError, Reader, Writer};

/// The 8-byte format magic at offset 0 of every entry.
pub const MAGIC: &[u8; 8] = b"UNITCACH";

/// The serialization format version this build reads and writes.
/// Version 2 widened the address operands of lowered ops to `u32`,
/// dropped the by-name ops and the `let` frames' binder names, so a
/// version-1 entry reads as a miss. Version 3 widened the argument
/// counts of calls and the widths of tuples to `u32`, and projection
/// indices to the term's own `usize`.
pub const FORMAT_VERSION: u32 = 3;

/// The build stamp written into every entry: artifacts do not cross
/// crate versions (hash functions, term shapes, and opcode sets may
/// all have changed), so a stamp mismatch is version skew.
pub const BUILD_STAMP: &str = env!("CARGO_PKG_VERSION");

/// One persisted artifact: everything the engine computes between
/// parsing and execution.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The checked program term.
    pub expr: Expr,
    /// Its type, for typed levels.
    pub ty: Option<Ty>,
    /// The lexical-address-resolved form. A writer that did not resolve
    /// leaves it `None`, and the engine resolves such an entry at load.
    pub resolved: Option<Expr>,
    /// The lowered bytecode, when the writer had lowered it.
    pub chunk: Option<Chunk>,
}

/// Encodes `entry` into a self-verifying byte image.
///
/// `source_fnv` is the FNV-1a of the raw source this artifact was
/// compiled from (guards the key→entry association against u64 key
/// collisions); `fingerprint` is the engine's check-options
/// fingerprint (guards against two configurations sharing a key
/// space).
pub fn encode_entry(entry: &Entry, source_fnv: u64, fingerprint: u64) -> Vec<u8> {
    let mut payload = Writer::new();
    term::write_expr(&mut payload, &entry.expr);
    match &entry.ty {
        None => payload.u8(0),
        Some(ty) => {
            payload.u8(1);
            term::write_ty(&mut payload, ty);
        }
    }
    match &entry.resolved {
        None => payload.u8(0),
        Some(resolved) => {
            payload.u8(1);
            term::write_expr(&mut payload, resolved);
        }
    }
    match &entry.chunk {
        None => payload.u8(0),
        Some(chunk) => {
            payload.u8(1);
            chunk::write_chunk(&mut payload, chunk);
        }
    }
    let payload = payload.into_bytes();

    let mut w = Writer::new();
    w.bytes(MAGIC);
    w.u32(FORMAT_VERSION);
    w.str(BUILD_STAMP);
    w.u64(fingerprint);
    w.u64(source_fnv);
    w.len_of(payload.len());
    w.bytes(&payload);
    let mut bytes = w.into_bytes();
    let sum = fnv1a_64(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

/// Decodes and fully verifies an entry image.
///
/// Verification order: magic, format version (both readable in any
/// future layout), trailing checksum over the whole image, then build
/// stamp, fingerprint, source hash, and finally the structural decode
/// of the payload — which must consume every payload byte.
///
/// # Errors
///
/// A typed [`DecodeError`]; [`DecodeError::indicts_file`] says whether
/// the file itself is bad (quarantine) or merely not the entry the
/// caller wanted (plain miss).
pub fn decode_entry(
    bytes: &[u8],
    source_fnv: u64,
    fingerprint: u64,
) -> Result<Entry, DecodeError> {
    let mut r = Reader::new(bytes);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    // Checksum next: nothing beyond the fixed prefix is interpreted
    // until the image as a whole proves intact.
    if bytes.len() < 8 {
        return Err(DecodeError::Truncated);
    }
    let body = &bytes[..bytes.len() - 8];
    let stored: [u8; 8] = bytes[bytes.len() - 8..].try_into().expect("8-byte tail");
    if fnv1a_64(body) != u64::from_le_bytes(stored) {
        return Err(DecodeError::BadChecksum);
    }
    let stamp = r.str()?;
    if stamp != BUILD_STAMP {
        return Err(DecodeError::BadStamp(stamp.to_string()));
    }
    if r.u64()? != fingerprint {
        return Err(DecodeError::BadFingerprint);
    }
    if r.u64()? != source_fnv {
        return Err(DecodeError::BadSourceHash);
    }
    let payload_len = r.len_of()?;
    if payload_len != r.remaining().saturating_sub(8) {
        return Err(DecodeError::Malformed("payload length disagrees with image size"));
    }
    let mut p = Reader::new(r.take(payload_len)?);
    let expr = term::read_expr(&mut p)?;
    let ty = match p.u8()? {
        0 => None,
        1 => Some(term::read_ty(&mut p)?),
        _ => return Err(DecodeError::Malformed("bad ty presence tag")),
    };
    let resolved = match p.u8()? {
        0 => None,
        1 => Some(term::read_expr(&mut p)?),
        _ => return Err(DecodeError::Malformed("bad resolved presence tag")),
    };
    let chunk = match p.u8()? {
        0 => None,
        1 => Some(chunk::read_chunk(&mut p)?),
        _ => return Err(DecodeError::Malformed("bad chunk presence tag")),
    };
    p.finish()?;
    Ok(Entry { expr, ty, resolved, chunk })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry() -> Entry {
        let src = "(invoke (unit (import) (export) (init ((lambda (n) (* n n)) 9))))";
        let expr = units_syntax::parse_expr(src).unwrap();
        let resolved = units_compile::resolve_program(&expr);
        let chunk = units_compile::lower_program(&resolved);
        Entry {
            expr,
            ty: Some(Ty::Int),
            resolved: Some(resolved),
            chunk: Some((*chunk).clone()),
        }
    }

    #[test]
    fn entries_round_trip_through_the_full_image() {
        let entry = sample_entry();
        let image = encode_entry(&entry, 111, 222);
        let back = decode_entry(&image, 111, 222).expect("verified decode");
        assert_eq!(back.expr, entry.expr);
        assert_eq!(back.ty, entry.ty);
        assert_eq!(back.resolved, entry.resolved);
        let (a, b) = (back.chunk.unwrap(), entry.chunk.unwrap());
        assert_eq!(a.code, b.code);
        assert_eq!(a.entry, b.entry);
    }

    #[test]
    fn wrong_source_and_wrong_fingerprint_are_typed() {
        let entry = sample_entry();
        let image = encode_entry(&entry, 111, 222);
        assert_eq!(decode_entry(&image, 999, 222).unwrap_err(), DecodeError::BadSourceHash);
        assert!(!DecodeError::BadSourceHash.indicts_file());
        assert_eq!(decode_entry(&image, 111, 999).unwrap_err(), DecodeError::BadFingerprint);
        assert!(DecodeError::BadFingerprint.indicts_file());
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let entry = sample_entry();
        let image = encode_entry(&entry, 111, 222);
        for i in 0..image.len() {
            for mask in [0x01, 0x80] {
                let mut mutated = image.clone();
                mutated[i] ^= mask;
                assert!(
                    decode_entry(&mutated, 111, 222).is_err(),
                    "flip {mask:#x} at byte {i}/{} verified",
                    image.len()
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let entry = sample_entry();
        let image = encode_entry(&entry, 111, 222);
        for cut in 0..image.len() {
            assert!(decode_entry(&image[..cut], 111, 222).is_err(), "{cut}-byte prefix");
        }
        // Zero-length files and pure garbage too.
        assert_eq!(decode_entry(&[], 0, 0).unwrap_err(), DecodeError::Truncated);
        assert!(decode_entry(&[0xff; 64], 0, 0).is_err());
    }

    #[test]
    fn version_skew_is_bad_version() {
        let entry = sample_entry();
        let mut image = encode_entry(&entry, 1, 2);
        // Bump the version field in place and re-stamp the checksum so
        // only the version disagrees.
        let at = MAGIC.len();
        image[at..at + 4].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let body_len = image.len() - 8;
        let sum = fnv1a_64(&image[..body_len]);
        image[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            decode_entry(&image, 1, 2).unwrap_err(),
            DecodeError::BadVersion(FORMAT_VERSION + 1)
        );
    }
}
