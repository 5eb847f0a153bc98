//! Chaos tests for the persistent artifact store: warm starts, torn
//! and corrupted entries, version skew, concurrent directories, and
//! injected I/O faults.
//!
//! The invariant under test everywhere: **no corruption schedule ever
//! panics or changes an answer**. A damaged cache degrades to a typed
//! miss and a recompile whose observable outcome is byte-identical to
//! a cold engine's.

use std::fs;
use std::path::{Path, PathBuf};

use units::{Backend, Engine, Level, Observation, Strictness};

const PROGRAM: &str = "\
(define main (unit (import) (export)
  (define square (lambda (n) (* n n)))
  (init (+ (square 9) (square 4)))))
(invoke main)";

const OTHER: &str = "(invoke (unit (import) (export) (init (* 6 7))))";

/// A compound of two unit literals, which resolution flattens into one
/// unit; its annotations check at every level.
const FLATTENED: &str = "\
(invoke
  (compound (import) (export)
    (link ((unit (import) (export (double (-> int int)))
             (define double (-> int int) (lambda ((n int)) (* 2 n)))
             (init void))
           (with) (provides (double (-> int int))))
          ((unit (import (double (-> int int))) (export)
             (init (double 21)))
           (with (double (-> int int))) (provides)))))";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("units-store-test-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn warm_engine(dir: &Path, backend: Backend) -> Engine {
    Engine::builder().backend(backend).cache_dir(dir).build()
}

/// The answer an engine with no disk cache computes — the ground truth
/// every corrupted-cache run must reproduce.
fn cold_answer(source: &str, backend: Backend) -> Observation {
    Engine::builder().backend(backend).build().invoke(source).unwrap().value
}

/// The single `<key>.unit` entry file in `dir`.
fn entry_file(dir: &Path) -> PathBuf {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "unit"))
        .collect();
    assert_eq!(entries.len(), 1, "expected exactly one cache entry in {}", dir.display());
    entries.pop().unwrap()
}

fn quarantine_count(dir: &Path) -> usize {
    fs::read_dir(dir.join("corrupt")).map(|d| d.flatten().count()).unwrap_or(0)
}

#[test]
fn warm_start_skips_parsing_entirely() {
    let dir = temp_dir("warm");
    let cold = cold_answer(PROGRAM, Backend::Compiled);
    {
        let writer = warm_engine(&dir, Backend::Compiled);
        assert_eq!(writer.invoke(PROGRAM).unwrap().value, cold);
        let snap = writer.metrics_snapshot();
        assert_eq!(snap.store.writes, 1, "fresh admission writes through");
        assert_eq!(snap.store.hits, 0);
    }
    // A brand-new engine — the in-process stand-in for a second
    // process — answers from disk without parsing anything.
    let warm = warm_engine(&dir, Backend::Compiled);
    assert_eq!(warm.invoke(PROGRAM).unwrap().value, cold);
    let snap = warm.metrics_snapshot();
    assert_eq!(snap.cache.parses, 0, "warm start must not re-parse");
    assert_eq!(snap.store.hits, 1);
    assert_eq!(snap.store.corrupt, 0);
    let _ = fs::remove_dir_all(&dir);
}

/// A bytecode warm start: the entry holds no chunk, so the VM lowers the
/// decoded resolved form on its first run, and nothing is parsed.
#[test]
fn warm_start_carries_lowered_bytecode() {
    let dir = temp_dir("warm-vm");
    let cold = cold_answer(PROGRAM, Backend::Bytecode);
    {
        let writer = warm_engine(&dir, Backend::Bytecode);
        assert_eq!(writer.invoke(PROGRAM).unwrap().value, cold);
    }
    let warm = warm_engine(&dir, Backend::Bytecode);
    assert_eq!(warm.invoke(PROGRAM).unwrap().value, cold);
    let snap = warm.metrics_snapshot();
    assert_eq!((snap.cache.parses, snap.store.hits), (0, 1));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncation_is_a_typed_miss_and_an_identical_recompile() {
    let dir = temp_dir("trunc");
    let cold = cold_answer(PROGRAM, Backend::Compiled);
    warm_engine(&dir, Backend::Compiled).invoke(PROGRAM).unwrap();
    let path = entry_file(&dir);
    let pristine = fs::read(&path).unwrap();
    // A spread of cut points across the whole image (the store crate
    // fuzzes every single length; here the engine-level contract is
    // what matters).
    let cuts: Vec<usize> = (0..pristine.len())
        .step_by((pristine.len() / 24).max(1))
        .chain([pristine.len() - 1])
        .collect();
    for cut in cuts {
        fs::write(&path, &pristine[..cut]).unwrap();
        let engine = warm_engine(&dir, Backend::Compiled);
        assert_eq!(
            engine.invoke(PROGRAM).unwrap().value,
            cold,
            "{cut}-byte prefix changed the answer"
        );
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.store.hits, 0, "{cut}-byte prefix verified as a hit");
        assert_eq!(snap.store.misses, 1);
        assert_eq!(snap.cache.parses, 1, "the miss recompiles exactly once");
        // The recompile wrote a fresh entry; restore the broken one for
        // the next round. (Quarantine grows only on indicting failures.)
        assert!(path.exists(), "recompile must write the entry back");
    }
    assert!(quarantine_count(&dir) > 0, "truncated entries should be quarantined");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bit_flips_never_change_the_answer() {
    let dir = temp_dir("flip");
    let cold = cold_answer(PROGRAM, Backend::Compiled);
    warm_engine(&dir, Backend::Compiled).invoke(PROGRAM).unwrap();
    let path = entry_file(&dir);
    let pristine = fs::read(&path).unwrap();
    // Sample positions across header, payload, and checksum.
    let positions: Vec<usize> = (0..pristine.len()).step_by((pristine.len() / 16).max(1)).collect();
    for at in positions {
        for mask in [0x01u8, 0x80] {
            let mut mutated = pristine.clone();
            mutated[at] ^= mask;
            fs::write(&path, &mutated).unwrap();
            let engine = warm_engine(&dir, Backend::Compiled);
            assert_eq!(
                engine.invoke(PROGRAM).unwrap().value,
                cold,
                "flip {mask:#x} at byte {at} changed the answer"
            );
            let snap = engine.metrics_snapshot();
            assert_eq!(snap.store.hits, 0, "flip {mask:#x} at byte {at} verified as a hit");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn zero_length_entries_recompile_correctly() {
    let dir = temp_dir("zero");
    let cold = cold_answer(PROGRAM, Backend::Compiled);
    warm_engine(&dir, Backend::Compiled).invoke(PROGRAM).unwrap();
    let path = entry_file(&dir);
    fs::write(&path, b"").unwrap();
    let engine = warm_engine(&dir, Backend::Compiled);
    assert_eq!(engine.invoke(PROGRAM).unwrap().value, cold);
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.store.corrupt, 1, "an empty entry indicts the file");
    assert_eq!(snap.cache.parses, 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn version_skew_quarantines_and_recompiles() {
    let dir = temp_dir("skew");
    let cold = cold_answer(PROGRAM, Backend::Compiled);
    warm_engine(&dir, Backend::Compiled).invoke(PROGRAM).unwrap();
    let path = entry_file(&dir);
    let mut image = fs::read(&path).unwrap();
    // Bump the on-disk format version in place and re-stamp the
    // trailing checksum, simulating an entry from a future build whose
    // *only* disagreement is the version field.
    let at = b"UNITCACH".len();
    let version = u32::from_le_bytes(image[at..at + 4].try_into().unwrap());
    image[at..at + 4].copy_from_slice(&(version + 1).to_le_bytes());
    let body = image.len() - 8;
    let sum = units_store::checksum(&image[..body]);
    image[body..].copy_from_slice(&sum.to_le_bytes());
    fs::write(&path, &image).unwrap();

    let engine = warm_engine(&dir, Backend::Compiled);
    assert_eq!(engine.invoke(PROGRAM).unwrap().value, cold);
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.store.corrupt, 1, "version skew indicts the file");
    assert_eq!(snap.store.hits, 0);
    assert!(quarantine_count(&dir) > 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn two_engines_share_one_directory_without_interference() {
    let dir = temp_dir("shared");
    let first = warm_engine(&dir, Backend::Compiled);
    let second = warm_engine(&dir, Backend::Compiled);

    // The first opener holds the write lock; the second degrades to a
    // reader but keeps answering correctly from its in-memory cache.
    assert_eq!(first.invoke(PROGRAM).unwrap().value, Observation::Int(97));
    assert_eq!(second.invoke(OTHER).unwrap().value, Observation::Int(42));
    assert_eq!(second.metrics_snapshot().store.writes, 0, "the lock loser must not write");

    // Lock-free reads: the second engine picks the first's entry up
    // from disk (writes are atomic renames, so it sees all or nothing).
    assert_eq!(second.invoke(PROGRAM).unwrap().value, Observation::Int(97));
    let snap = second.metrics_snapshot();
    assert_eq!(snap.store.hits, 1);
    assert_eq!(snap.store.corrupt, 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn an_unusable_cache_directory_degrades_to_in_memory() {
    let blocker =
        std::env::temp_dir().join(format!("units-store-test-{}-blocker", std::process::id()));
    fs::write(&blocker, b"a file where a directory should be").unwrap();
    // `cache_dir` pointing at a plain file cannot be opened as a store;
    // the engine must build and answer as if no cache was configured.
    let engine = Engine::builder().cache_dir(blocker.join("sub")).build();
    assert_eq!(engine.invoke(PROGRAM).unwrap().value, Observation::Int(97));
    let snap = engine.metrics_snapshot();
    assert_eq!((snap.store.hits, snap.store.misses, snap.store.writes), (0, 0, 0));
    let _ = fs::remove_file(&blocker);
}

#[test]
fn cache_entries_do_not_cross_engine_configurations() {
    let dir = temp_dir("configs");
    {
        let mzscheme = Engine::builder().strictness(Strictness::MzScheme).cache_dir(&dir).build();
        mzscheme.invoke(PROGRAM).unwrap();
    }
    // A different configuration hashes to a different source key *and*
    // a different store fingerprint, so the default-strictness engine
    // cannot pick up the other configuration's artifact.
    let paper = Engine::builder().cache_dir(&dir).build();
    assert_eq!(paper.invoke(PROGRAM).unwrap().value, Observation::Int(97));
    let snap = paper.metrics_snapshot();
    assert_eq!(snap.store.hits, 0, "configurations must not share artifacts");
    assert_eq!(snap.cache.parses, 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn an_entry_without_its_resolved_form_is_resolved_at_load() {
    let dir = temp_dir("unresolved");
    warm_engine(&dir, Backend::Bytecode).invoke(PROGRAM).unwrap();
    // Rewrite the engine's entry as a writer that did not resolve would:
    // no resolved form, and a chunk lowered from the checked term, whose
    // free-variable ops would fail if run. The image stores no chunk, so
    // only the checked term lands.
    let path = entry_file(&dir);
    let key = u64::from_str_radix(path.file_stem().unwrap().to_str().unwrap(), 16).unwrap();
    let image = fs::read(&path).unwrap();
    let mut header = units_store::Reader::new(&image);
    header.take(units_store::MAGIC.len()).unwrap();
    header.u32().unwrap();
    header.str().unwrap();
    let fingerprint = header.u64().unwrap();
    let expr = units::parse_file(PROGRAM).unwrap();
    let chunk = (*units_compile::lower_program(&expr)).clone();
    let entry = units_store::Entry { expr, ty: None, resolved: None, chunk: Some(chunk) };
    assert!(units_store::Store::open(&dir, fingerprint).unwrap().write(key, PROGRAM, &entry));

    let warm = warm_engine(&dir, Backend::Bytecode);
    assert_eq!(warm.invoke(PROGRAM).unwrap().value, Observation::Int(97));
    let snap = warm.metrics_snapshot();
    assert_eq!((snap.store.hits, snap.cache.parses), (1, 0));
    let _ = fs::remove_dir_all(&dir);
}

/// A store entry holds only the resolved term, in which the compound is
/// flattened. On a warm engine the program as written is still what
/// `Loaded::expr` returns and the reducer runs: the kept source is
/// parsed once, on first use, off the load path.
#[test]
fn a_warm_start_keeps_the_program_as_written() {
    let as_written = units::parse_file(FLATTENED).unwrap();
    for level in [Level::Untyped, Level::Constructed] {
        for backend in [Backend::Compiled, Backend::Bytecode, Backend::Reducer] {
            let dir = temp_dir(&format!("as-written-{level:?}-{backend:?}"));
            let build = |cache: bool| {
                let builder = Engine::builder().level(level).backend(backend);
                if cache { builder.cache_dir(&dir) } else { builder }.build()
            };
            let cold_engine = build(false);
            let cold = cold_engine.load(FLATTENED).unwrap();
            let answer = cold.run().unwrap();
            assert_eq!(answer.value, Observation::Int(42));
            assert!(
                !units::pretty_expr(cold.resolved()).contains("(compound"),
                "resolution did not flatten the compound"
            );
            build(true).load(FLATTENED).unwrap();

            let warm = build(true);
            let loaded = warm.load(FLATTENED).unwrap();
            let snap = warm.metrics_snapshot();
            assert_eq!((snap.store.hits, snap.cache.parses), (1, 0), "{level:?}/{backend:?}");
            assert_eq!(loaded.resolved(), cold.resolved(), "{level:?}/{backend:?}");
            assert_eq!(loaded.run().unwrap(), answer, "{level:?}/{backend:?}");
            assert_eq!(loaded.expr(), &as_written, "{level:?}/{backend:?}");
            assert!(std::ptr::eq(loaded.expr(), loaded.expr()), "parsed once, on first use");
            assert_eq!(warm.metrics_snapshot().cache.parses, 0, "{level:?}/{backend:?}");
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

mod faults {
    use super::*;
    use units::trace::faults::{arm, disarm, FaultPlane};

    #[test]
    fn an_injected_read_fault_is_a_transparent_miss() {
        let dir = temp_dir("fault-read");
        let cold = cold_answer(PROGRAM, Backend::Compiled);
        warm_engine(&dir, Backend::Compiled).invoke(PROGRAM).unwrap();

        arm(FaultPlane::seeded(7).trigger("store/read", 1));
        let engine = warm_engine(&dir, Backend::Compiled);
        let value = engine.invoke(PROGRAM).unwrap().value;
        disarm();

        assert_eq!(value, cold, "a flaky read changed the answer");
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.store.hits, 0);
        assert_eq!(snap.store.misses, 1);
        assert_eq!(snap.store.corrupt, 0, "transient I/O must not quarantine");
        // The entry survives for the next, healthy engine.
        let healthy = warm_engine(&dir, Backend::Compiled);
        assert_eq!(healthy.invoke(PROGRAM).unwrap().value, cold);
        assert_eq!(healthy.metrics_snapshot().store.hits, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_crash_between_write_and_rename_leaves_only_swept_garbage() {
        let dir = temp_dir("fault-write");
        let cold = cold_answer(PROGRAM, Backend::Compiled);

        // The `store/write` site sits between the synced temp write and
        // the atomic rename — firing it is a simulated writer crash.
        arm(FaultPlane::seeded(7).trigger("store/write", 1));
        let engine = warm_engine(&dir, Backend::Compiled);
        let value = engine.invoke(PROGRAM).unwrap().value;
        disarm();

        assert_eq!(value, cold, "a failed persist changed the answer");
        assert_eq!(engine.metrics_snapshot().store.writes, 0);
        let tmp_files = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|ext| ext == "tmp"))
            .count();
        assert_eq!(tmp_files, 1, "the crash window leaves the temp file behind");
        drop(engine);

        // The next opener sweeps the wreckage, misses (the rename never
        // happened), and recompiles to the same answer.
        let next = warm_engine(&dir, Backend::Compiled);
        assert_eq!(next.invoke(PROGRAM).unwrap().value, cold);
        let snap = next.metrics_snapshot();
        assert_eq!((snap.store.hits, snap.store.misses), (0, 1));
        let leftovers = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|ext| ext == "tmp"))
            .count();
        assert_eq!(leftovers, 0, "open must sweep crashed-writer temp files");
        let _ = fs::remove_dir_all(&dir);
    }
}
