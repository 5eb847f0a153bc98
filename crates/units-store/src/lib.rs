//! Crash-safe persistent artifact store for the Units engine.
//!
//! This crate gives compiled artifacts a life beyond the process: a
//! from-scratch binary serialization format for one checked program,
//! stored as its lexical-address-resolved kernel term and its type, plus
//! an on-disk cache directory ([`Store`]) keyed by the engine's existing
//! content hashes. A fresh engine pointed at a warm directory skips
//! parsing, checking and resolution entirely — §4.1.6's "one copy of
//! the code", now one copy *on disk* too.
//!
//! Robustness is the design center, not a bolt-on:
//!
//! * **Crash-safe writes** — temp file + `fsync` + atomic rename; a
//!   crash mid-write leaves only swept-on-open garbage ([`Store`]).
//! * **Verified reads** — format magic, format version, a
//!   crate-version build stamp, the engine's `CheckOptions`
//!   fingerprint, an independent hash of the raw source, and a
//!   trailing word-at-a-time content [`checksum`] all have to agree
//!   before a byte of payload is trusted; structural decode is fully
//!   bounds-checked on top ([`decode_entry`]).
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
//! payload      u64+bytes length-prefixed: the type, then one tagged term
//! checksum     u64       checksum() over everything above
//! ```
//!
//! The term is the resolved form (tag 1) whenever the writer resolved,
//! and the checked term (tag 0) only when it did not. No bytecode is
//! stored: lowering a resolved program costs less than decoding its
//! chunk would.
//!
//! Like `units-serve`'s JSON layer, everything here is from scratch on
//! `std` — no serialization framework, no external hash crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod store;
mod term;
mod wire;

use units_kernel::{Expr, Ty};
use units_runtime::Chunk;

pub use store::{Lookup, Store};
pub use wire::{checksum, fnv1a_64, DecodeError, Reader, Writer};

/// The 8-byte format magic at offset 0 of every entry.
pub const MAGIC: &[u8; 8] = b"UNITCACH";

/// The serialization format version this build reads and writes.
/// Version 2 widened the address operands of lowered ops to `u32`,
/// dropped the by-name ops and the `let` frames' binder names, so a
/// version-1 entry reads as a miss. Version 3 widened the argument
/// counts of calls and the widths of tuples to `u32`, and projection
/// indices to the term's own `usize`. Version 4 stores one term (the
/// resolved form, or the checked term when the writer did not resolve)
/// after the type, no chunk, and a word-at-a-time [`checksum`] in place
/// of FNV-1a.
pub const FORMAT_VERSION: u32 = 4;

/// The build stamp written into every entry: artifacts do not cross
/// crate versions, so a stamp mismatch is version skew. Every crate in
/// this workspace shares one version, so the stamp does not catch a
/// codec change within it; the golden-image test does, and asks for a
/// [`FORMAT_VERSION`] bump.
pub const BUILD_STAMP: &str = env!("CARGO_PKG_VERSION");

/// The payload tag of a checked term, stored only when the writer did
/// not resolve.
const CHECKED: u8 = 0;
/// The payload tag of a resolved term.
const RESOLVED: u8 = 1;

/// One persisted artifact: a program's type and its term.
///
/// An image holds one term: the resolved form when there is one, the
/// checked term otherwise. Decoding a resolved image returns that term
/// as both `resolved` and `expr` (a clone, which shares every `Arc`
/// node of the tree), and `chunk` always decodes as `None`. `expr` and
/// `chunk` keep their types so that code building or reading entries
/// keeps compiling.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The checked program term. Stored only when `resolved` is `None`;
    /// after decoding a resolved image it is the resolved term.
    pub expr: Expr,
    /// Its type, for typed levels.
    pub ty: Option<Ty>,
    /// The lexical-address-resolved form, the term an image stores. A
    /// writer that did not resolve leaves it `None`, and the engine
    /// resolves such an entry at load.
    pub resolved: Option<Expr>,
    /// Never stored, and `None` after every decode: the engine lowers
    /// the resolved form on its first bytecode run.
    pub chunk: Option<Chunk>,
}

/// Encodes `entry` into a self-verifying byte image: the type, then the
/// resolved term, or the checked term when there is no resolved one.
///
/// `source_fnv` is the FNV-1a of the raw source this artifact was
/// compiled from (guards the key→entry association against u64 key
/// collisions); `fingerprint` is the engine's check-options
/// fingerprint (guards against two configurations sharing a key
/// space).
pub fn encode_entry(entry: &Entry, source_fnv: u64, fingerprint: u64) -> Vec<u8> {
    let mut payload = Writer::new();
    match &entry.ty {
        None => payload.u8(0),
        Some(ty) => {
            payload.u8(1);
            term::write_ty(&mut payload, ty);
        }
    }
    match &entry.resolved {
        Some(resolved) => {
            payload.u8(RESOLVED);
            term::write_expr(&mut payload, resolved);
        }
        None => {
            payload.u8(CHECKED);
            term::write_expr(&mut payload, &entry.expr);
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
    let sum = checksum(&bytes);
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
pub fn decode_entry(bytes: &[u8], source_fnv: u64, fingerprint: u64) -> Result<Entry, DecodeError> {
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
    if checksum(body) != u64::from_le_bytes(stored) {
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
    let ty = match p.u8()? {
        0 => None,
        1 => Some(term::read_ty(&mut p)?),
        _ => return Err(DecodeError::Malformed("bad ty presence tag")),
    };
    let entry = match p.u8()? {
        RESOLVED => {
            let resolved = term::read_expr(&mut p)?;
            Entry { expr: resolved.clone(), ty, resolved: Some(resolved), chunk: None }
        }
        CHECKED => Entry { expr: term::read_expr(&mut p)?, ty, resolved: None, chunk: None },
        _ => return Err(DecodeError::Malformed("bad term tag")),
    };
    p.finish()?;
    Ok(entry)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry() -> Entry {
        let src = "(invoke (unit (import) (export) (init ((lambda (n) (* n n)) 9))))";
        let expr = units_syntax::parse_expr(src).unwrap();
        let resolved = units_compile::resolve_program(&expr);
        let chunk = units_compile::lower_program(&resolved);
        Entry { expr, ty: Some(Ty::Int), resolved: Some(resolved), chunk: Some((*chunk).clone()) }
    }

    #[test]
    fn entries_round_trip_through_the_full_image() {
        let entry = sample_entry();
        let image = encode_entry(&entry, 111, 222);
        let back = decode_entry(&image, 111, 222).expect("verified decode");
        assert_eq!(back.ty, entry.ty);
        assert_eq!(back.resolved, entry.resolved);
        // The image stores one term; a resolved one comes back as both.
        assert_eq!(Some(&back.expr), entry.resolved.as_ref());
        assert!(back.chunk.is_none(), "no chunk is stored");

        // A writer that did not resolve stores its checked term.
        let unresolved = Entry { resolved: None, chunk: None, ..sample_entry() };
        let image = encode_entry(&unresolved, 111, 222);
        let back = decode_entry(&image, 111, 222).expect("verified decode");
        assert_eq!(back.expr, unresolved.expr);
        assert_eq!(back.ty, unresolved.ty);
        assert!(back.resolved.is_none() && back.chunk.is_none());
    }

    #[test]
    fn an_image_holds_only_the_resolved_term() {
        let entry = sample_entry();
        let image = encode_entry(&entry, 111, 222);
        let other_expr = Entry { expr: Expr::int(0), ..entry.clone() };
        assert_eq!(encode_entry(&other_expr, 111, 222), image, "the checked term was stored");
        let no_chunk = Entry { chunk: None, ..entry };
        assert_eq!(encode_entry(&no_chunk, 111, 222), image, "the chunk was stored");
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
        let sum = checksum(&image[..body_len]);
        image[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            decode_entry(&image, 1, 2).unwrap_err(),
            DecodeError::BadVersion(FORMAT_VERSION + 1)
        );
    }

    /// A typed program with a sealed, `define`-bound constituent (so its
    /// compound survives flattening), a `letrec` and a datatype.
    const GOLDEN_SOURCE: &str = "\
(define Sq (seal (unit (import) (export (sq (-> int int)))
                   (define sq (-> int int) (lambda ((n int)) (* n n)))
                   (init void))
                 (sig (import) (export (sq (-> int int))) (init void))))
(invoke
  (compound (import) (export)
    (link (Sq (with) (provides (sq (-> int int))))
          ((unit (import (sq (-> int int))) (export)
             (init (letrec ((datatype num (box unbox int) num?)
                            (define fact (-> int int)
                              (lambda ((k int)) (if (= k 0) 1 (* k (fact (- k 1)))))))
                     (+ (fact 5) (sq (unbox (box 3)))))))
           (with (sq (-> int int))) (provides)))))";

    /// The checksum of [`GOLDEN_SOURCE`]'s image, and a hash of
    /// `ALL_PRIMS`'s names in order.
    const GOLDEN_IMAGE_SUM: u64 = 0xab4f_1097_2314_a94e;
    const GOLDEN_PRIMS_FNV: u64 = 0x8949_4547_29a2_4633;

    /// `BUILD_STAMP` is one version for every build of this workspace, so
    /// it cannot tell an old image from a new one; this pins what an
    /// image of one fixed program is. A prim is stored as its index in
    /// `ALL_PRIMS`, so a reorder there changes what old images decode to.
    #[test]
    fn the_golden_image_is_pinned() {
        let names: Vec<&str> = units_kernel::ALL_PRIMS.iter().map(|p| p.name()).collect();
        let prims = fnv1a_64(names.join("\0").as_bytes());
        assert_eq!(
            prims, GOLDEN_PRIMS_FNV,
            "ALL_PRIMS changed ({prims:#018x}): stored images name prims by index, so bump \
             FORMAT_VERSION, then re-pin GOLDEN_PRIMS_FNV"
        );
        let expr = units_syntax::parse_file(GOLDEN_SOURCE).unwrap();
        let opts = units_check::CheckOptions {
            level: units_check::Level::Constructed,
            strictness: units_check::Strictness::Paper,
        };
        let ty = units_check::check_program(&expr, opts).unwrap();
        let resolved = units_compile::resolve_program(&expr);
        let printed = units_syntax::pretty_expr(&resolved);
        for form in ["(compound", "(seal", "(letrec"] {
            assert!(printed.contains(form), "no {form} survives resolution: {printed}");
        }
        let entry = Entry { expr, ty, resolved: Some(resolved), chunk: None };
        let image = encode_entry(&entry, 0x5eed, 0xf1a9);
        let sum = checksum(&image);
        assert_eq!(
            sum, GOLDEN_IMAGE_SUM,
            "the image of the golden program changed ({sum:#018x}, format {FORMAT_VERSION}, \
             stamp {BUILD_STAMP}): a codec change must bump FORMAT_VERSION, a change to the \
             resolved form must bump units_compile::RESOLVED_FORM; then re-pin GOLDEN_IMAGE_SUM"
        );
    }
}
