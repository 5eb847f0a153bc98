//! The on-disk cache directory: crash-safe writes, verified reads,
//! quarantine, and multi-process sharing.
//!
//! # Atomicity
//!
//! A write goes to a process-unique `<key>.<pid>.tmp` sibling, is
//! `fsync`ed, and then renamed over the final `<key>.unit` name — the
//! only mutation a concurrent reader can ever observe is the atomic
//! rename, so a reader sees either no entry or a complete one. A crash
//! mid-write leaves only a garbage temp file, which [`Store::open`]
//! sweeps. The `store/write` fault site sits *between* the temp write
//! and the rename, simulating exactly that crash.
//!
//! # Verification and quarantine
//!
//! Every read re-verifies the whole entry (magic, format version,
//! build stamp, options fingerprint, raw-source hash, trailing
//! checksum, and full structural decode). Any failure that indicts the
//! file is a [`Lookup::Corrupt`]: the file is renamed into the
//! `corrupt/` subdirectory for post-mortem and the caller counts a
//! miss. A raw-source hash mismatch (a key collision: the entry is
//! healthy, just not for this source) is a plain [`Lookup::Miss`] and
//! the file is left alone.
//!
//! # Concurrent writers
//!
//! Readers take no lock — they only ever see complete files (see
//! above). Writers hold a process-wide advisory `flock` on the
//! directory's `.lock` file, taken non-blockingly at open: the loser
//! degrades to a read-only view of the store ([`Store::writable`]
//! returns `false`) and the engine keeps its in-memory cache as the
//! only write path. The lock dies with the process, so a crashed
//! writer cannot wedge the directory.

use std::fs::{self, File};
use std::io;
use std::path::{Path, PathBuf};

use units_trace::faults;

use crate::wire::fnv1a_64;
use crate::{decode_entry, encode_entry, Entry};

/// The result of probing the store for a key.
#[derive(Debug)]
pub enum Lookup {
    /// A verified entry.
    Hit(Box<Entry>),
    /// No entry (or an injected/transient read failure, or an entry
    /// for a different source that collided on the key).
    Miss,
    /// The entry failed verification and was quarantined.
    Corrupt,
}

/// One cache directory, opened by an engine session.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    fingerprint: u64,
    writable: bool,
    // Held for the lifetime of the store; dropping releases the
    // advisory write lock.
    _lock: Option<File>,
}

impl Store {
    /// Opens (creating if needed) the cache directory.
    ///
    /// Sweeps temp files left by crashed writers, ensures the
    /// `corrupt/` quarantine subdirectory exists, and tries the
    /// advisory write lock; on contention the store opens read-only
    /// rather than failing.
    ///
    /// # Errors
    ///
    /// Only genuinely unusable directories (cannot create, cannot
    /// stat) error — the caller is expected to degrade to in-memory
    /// operation.
    pub fn open(dir: impl Into<PathBuf>, fingerprint: u64) -> io::Result<Store> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        fs::create_dir_all(dir.join("corrupt"))?;
        sweep_temp_files(&dir);
        let lock_file = fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(dir.join(".lock"))?;
        let writable = lock_file.try_lock().is_ok();
        units_trace::count("store/open", 1);
        Ok(Store { dir, fingerprint, writable, _lock: writable.then_some(lock_file) })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// `false` when another live process holds the write lock: reads
    /// still work, writes silently no-op.
    pub fn writable(&self) -> bool {
        self.writable
    }

    /// The on-disk path for `key`.
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.unit"))
    }

    /// The quarantine subdirectory.
    pub fn corrupt_dir(&self) -> PathBuf {
        self.dir.join("corrupt")
    }

    /// Probes the store for `key`, verifying the entry end to end
    /// against `source` before trusting it.
    pub fn read(&self, key: u64, source: &str) -> Lookup {
        // An injected read fault models a transient I/O error: the
        // entry itself is (presumably) fine, so miss without
        // quarantining.
        if faults::trip("store/read").is_err() {
            return Lookup::Miss;
        }
        let path = self.entry_path(key);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(_) => return Lookup::Miss,
        };
        match decode_entry(&bytes, fnv1a_64(source.as_bytes()), self.fingerprint) {
            Ok(entry) => Lookup::Hit(Box::new(entry)),
            Err(e) if e.indicts_file() => {
                units_trace::emit(
                    units_trace::Phase::Engine,
                    "store/corrupt",
                    None,
                    || format!("{}: {e}", path.display()),
                    &[("store/corrupt", 1)],
                );
                self.quarantine(&path);
                Lookup::Corrupt
            }
            Err(_) => Lookup::Miss,
        }
    }

    /// Writes `entry` under `key` with temp-file + fsync + atomic
    /// rename. Returns `true` when the entry landed; `false` for a
    /// read-only store, an injected fault, or any I/O failure — a
    /// store write must never surface as an engine error.
    pub fn write(&self, key: u64, source: &str, entry: &Entry) -> bool {
        if !self.writable {
            return false;
        }
        let bytes = encode_entry(entry, fnv1a_64(source.as_bytes()), self.fingerprint);
        let tmp = self.dir.join(format!("{key:016x}.{}.tmp", std::process::id()));
        if write_synced(&tmp, &bytes).is_err() {
            let _ = fs::remove_file(&tmp);
            return false;
        }
        // The crash window: a fault here leaves the temp file behind,
        // exactly like a process dying between write and rename.
        if faults::trip("store/write").is_err() {
            return false;
        }
        if fs::rename(&tmp, self.entry_path(key)).is_err() {
            let _ = fs::remove_file(&tmp);
            return false;
        }
        true
    }

    /// Moves a failed entry into `corrupt/`, falling back to deletion
    /// so a bad entry can never be re-read either way.
    fn quarantine(&self, path: &Path) {
        let Some(name) = path.file_name() else { return };
        let dest = self.corrupt_dir().join(name);
        if fs::rename(path, &dest).is_err() {
            let _ = fs::remove_file(path);
        }
    }
}

/// Deletes stragglers from crashed writers. Only `*.tmp` files are
/// touched; a concurrent writer's live temp file may be swept too,
/// which that writer observes as a failed rename — a lost write, never
/// a torn one.
fn sweep_temp_files(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|ext| ext == "tmp") {
            let _ = fs::remove_file(&path);
        }
    }
}

fn write_synced(path: &Path, bytes: &[u8]) -> io::Result<()> {
    use std::io::Write;
    let mut file = File::create(path)?;
    file.write_all(bytes)?;
    file.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use units_kernel::Expr;

    fn temp_store_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("units-store-unit-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn entry() -> Entry {
        Entry { expr: Expr::int(42), ty: None, resolved: Some(Expr::int(42)), chunk: None }
    }

    #[test]
    fn write_then_read_hits() {
        let dir = temp_store_dir("rw");
        let store = Store::open(&dir, 7).unwrap();
        assert!(store.writable());
        assert!(store.write(1, "src", &entry()));
        match store.read(1, "src") {
            Lookup::Hit(e) => assert_eq!(e.expr, Expr::int(42)),
            other => panic!("expected hit, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_source_is_a_miss_not_a_quarantine() {
        let dir = temp_store_dir("collide");
        let store = Store::open(&dir, 7).unwrap();
        store.write(1, "src", &entry());
        assert!(matches!(store.read(1, "other source"), Lookup::Miss));
        // The entry survives for its rightful owner.
        assert!(matches!(store.read(1, "src"), Lookup::Hit(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_skew_quarantines() {
        let dir = temp_store_dir("fp");
        {
            let store = Store::open(&dir, 7).unwrap();
            store.write(1, "src", &entry());
        }
        let store = Store::open(&dir, 8).unwrap();
        assert!(matches!(store.read(1, "src"), Lookup::Corrupt));
        assert!(!store.entry_path(1).exists());
        assert!(store.corrupt_dir().join("0000000000000001.unit").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flips_anywhere_quarantine_and_never_panic() {
        let dir = temp_store_dir("flip");
        let store = Store::open(&dir, 7).unwrap();
        store.write(1, "src", &entry());
        let path = store.entry_path(1);
        let pristine = fs::read(&path).unwrap();
        for i in 0..pristine.len() {
            let mut mutated = pristine.clone();
            mutated[i] ^= 0x20;
            fs::write(&path, &mutated).unwrap();
            match store.read(1, "src") {
                Lookup::Corrupt => {
                    assert!(!path.exists(), "byte {i}: quarantine left the file");
                }
                Lookup::Miss => {} // a flip inside the source-hash field
                Lookup::Hit(_) => panic!("byte {i}: mutated entry verified"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_at_every_length_is_corrupt_or_miss() {
        let dir = temp_store_dir("trunc");
        let store = Store::open(&dir, 7).unwrap();
        store.write(1, "src", &entry());
        let path = store.entry_path(1);
        let pristine = fs::read(&path).unwrap();
        for cut in 0..pristine.len() {
            fs::write(&path, &pristine[..cut]).unwrap();
            match store.read(1, "src") {
                Lookup::Hit(_) => panic!("{cut}-byte prefix verified"),
                Lookup::Corrupt | Lookup::Miss => {}
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_crashed_writer_temp_files() {
        let dir = temp_store_dir("sweep");
        fs::create_dir_all(&dir).unwrap();
        let straggler = dir.join("00000000000000aa.9999.tmp");
        fs::write(&straggler, b"half-written garbage").unwrap();
        let _store = Store::open(&dir, 7).unwrap();
        assert!(!straggler.exists(), "open left the temp file");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_opener_degrades_to_read_only() {
        let dir = temp_store_dir("lock");
        let first = Store::open(&dir, 7).unwrap();
        assert!(first.writable());
        let second = Store::open(&dir, 7).unwrap();
        assert!(!second.writable(), "two live writers on one directory");
        first.write(1, "src", &entry());
        assert!(matches!(second.read(1, "src"), Lookup::Hit(_)));
        assert!(!second.write(2, "other", &entry()));
        drop(first);
        let third = Store::open(&dir, 7).unwrap();
        assert!(third.writable(), "lock must die with its holder");
        let _ = fs::remove_dir_all(&dir);
    }
}
