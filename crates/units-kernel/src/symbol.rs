//! Interned identifiers and fresh-name generation.
//!
//! The calculi distinguish *value variables* (`x` in the paper) from *type
//! variables* (`t`), but both are represented by [`Symbol`]: a cheaply
//! clonable, hashable name. The two namespaces are kept apart by the data
//! structures that contain them, exactly as in the paper's grammars.
//!
//! Fresh names are produced by [`NameGen`], which appends `#N` to a base
//! name. The surface lexer rejects `#` inside identifiers, so generated
//! names can never collide with source names.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{LazyLock, OnceLock, RwLock};

/// Entries in the first chunk of the index → text table. Chunk `c` holds
/// `FIRST_CHUNK << c` entries, so [`CHUNKS`] chunks cover every `u32`
/// index and the table never has to grow by copying.
const FIRST_CHUNK: usize = 64;
const CHUNKS: usize = 27;

/// The process-wide symbol table, append-only and thread-safe.
///
/// Interning goes through [`MAP`] (text → index) under a lock.
/// Resolution reads `TABLE` (index → text) without one: each chunk is
/// allocated once and never moved, and each entry is set once, by the
/// interning thread while it holds the write lock, before the index
/// escapes. Interned strings are leaked (their number is bounded by the
/// program's source names plus generated fresh names), which lets
/// [`Symbol::as_str`] hand out `&'static str`.
static TABLE: [OnceLock<Box<[OnceLock<&'static str>]>>; CHUNKS] =
    [const { OnceLock::new() }; CHUNKS];

/// Text → index, for interning; its length is the next free index.
static MAP: LazyLock<RwLock<HashMap<&'static str, u32>>> = LazyLock::new(Default::default);

/// The chunk and offset of `id` in [`TABLE`].
fn slot(id: u32) -> (usize, usize) {
    let j = id as usize / FIRST_CHUNK + 1;
    let chunk = j.ilog2() as usize;
    (chunk, id as usize - FIRST_CHUNK * ((1 << chunk) - 1))
}

fn intern(name: &str) -> u32 {
    if let Some(&id) = MAP.read().expect("interner poisoned").get(name) {
        return id;
    }
    let mut w = MAP.write().expect("interner poisoned");
    // Another thread may have interned `name` between our read and write.
    if let Some(&id) = w.get(name) {
        return id;
    }
    let id = u32::try_from(w.len()).expect("interner overflow");
    let (chunk, offset) = slot(id);
    let entries =
        TABLE[chunk].get_or_init(|| (0..FIRST_CHUNK << chunk).map(|_| OnceLock::new()).collect());
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    entries[offset].set(leaked).expect("interner slot filled twice");
    w.insert(leaked, id);
    id
}

fn resolve(id: u32) -> &'static str {
    let (chunk, offset) = slot(id);
    TABLE[chunk]
        .get()
        .and_then(|entries| entries[offset].get())
        .expect("a symbol's index is interned before the symbol exists")
}

/// An identifier in the unit language (value variable, type variable,
/// datatype constructor, signature port name, ...).
///
/// `Symbol` is a `u32` index into a process-wide, append-only interner:
/// cloning is a register copy, and equality/hashing are single integer
/// operations — the hot operations of environment lookup, substitution,
/// free-variable sets, and signature subtyping never touch string data.
/// Interning the same text twice yields the same index on every thread
/// (and therefore the same `&'static str` from [`Symbol::as_str`]), and
/// [`Symbol::as_str`] takes no lock.
///
/// Ordering remains *lexicographic* on the underlying text (with an
/// integer fast path for equal symbols), so `BTreeSet<Symbol>` iteration
/// is deterministic by name and str-keyed BTree lookups through
/// [`Borrow<str>`] stay consistent. Note that `Hash` is index-based, so
/// hash-table lookups keyed by `Symbol` must use a `Symbol` (not a `&str`)
/// as the probe.
///
/// # Examples
///
/// ```
/// use units_kernel::Symbol;
/// let a = Symbol::new("insert");
/// let b = Symbol::from("insert");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "insert");
/// // Equal text interns to the identical static string.
/// assert!(std::ptr::eq(a.as_str(), b.as_str()));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// Creates (or finds) the symbol for the given text.
    pub fn new(name: impl AsRef<str>) -> Self {
        Symbol(intern(name.as_ref()))
    }

    /// Returns the symbol's textual name.
    pub fn as_str(&self) -> &'static str {
        resolve(self.0)
    }

    /// Returns this symbol's index in the process-wide interner.
    pub fn index(&self) -> u32 {
        self.0
    }

    /// Returns `true` if this symbol was produced by a [`NameGen`]
    /// (contains the reserved `#` character).
    pub fn is_generated(&self) -> bool {
        self.as_str().contains('#')
    }

    /// Returns the base name of a generated symbol (the part before `#`),
    /// or the whole name for a source symbol.
    ///
    /// ```
    /// use units_kernel::{NameGen, Symbol};
    /// let mut gen = NameGen::new();
    /// let fresh = gen.fresh(&Symbol::new("db"));
    /// assert_eq!(fresh.base(), "db");
    /// ```
    pub fn base(&self) -> &'static str {
        let s = self.as_str();
        match s.find('#') {
            Some(i) => &s[..i],
            None => s,
        }
    }
}

/// Builds the hasher of maps and sets keyed by [`Symbol`]. A symbol
/// hashes as its interner index, which one multiply mixes well enough;
/// the default SipHash spends tens of nanoseconds on the same four bytes.
pub type SymbolHash = BuildHasherDefault<SymbolHasher>;

/// The hasher [`SymbolHash`] builds: FxHash's rotate, xor and multiply
/// per word.
#[derive(Debug, Default, Clone, Copy)]
pub struct SymbolHasher(u64);

impl Hasher for SymbolHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(n)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}`", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::new(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol::new(s.as_str())
    }
}

impl Borrow<str> for Symbol {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

/// A generator of names guaranteed not to clash with source identifiers.
///
/// Used by the `compound` reduction (Fig. 11) to α-rename a constituent
/// unit's internal definitions before merging, and by capture-avoiding
/// substitution. A generator made with [`NameGen::tagged`] writes its tag
/// before the counter, so its names never meet those of a generator with
/// another tag: a term the compiler merged can go on to the reducer,
/// whose own generator starts again at one.
///
/// # Examples
///
/// ```
/// use units_kernel::{NameGen, Symbol};
/// let mut gen = NameGen::new();
/// let x = Symbol::new("x");
/// let x1 = gen.fresh(&x);
/// let x2 = gen.fresh(&x);
/// assert_ne!(x1, x2);
/// assert!(x1.is_generated());
/// ```
#[derive(Debug, Default, Clone)]
pub struct NameGen {
    counter: u64,
    tag: &'static str,
}

impl NameGen {
    /// Creates a generator starting at zero.
    pub fn new() -> Self {
        NameGen::default()
    }

    /// Creates a generator starting at zero whose names read
    /// `base#{tag}N`. `tag` must not start with a digit.
    ///
    /// ```
    /// use units_kernel::{NameGen, Symbol};
    /// let x = Symbol::new("x");
    /// assert_ne!(NameGen::tagged("m").fresh(&x), NameGen::new().fresh(&x));
    /// ```
    pub fn tagged(tag: &'static str) -> Self {
        NameGen { counter: 0, tag }
    }

    /// Produces a fresh symbol derived from `base`. Two calls never return
    /// the same symbol, and no returned symbol can be written in source
    /// syntax.
    pub fn fresh(&mut self, base: &Symbol) -> Symbol {
        self.fresh_named(base.base())
    }

    /// Produces a fresh symbol with a literal base name.
    pub fn fresh_named(&mut self, base: &str) -> Symbol {
        self.counter += 1;
        Symbol::new(format!("{base}#{}{}", self.tag, self.counter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashSet};

    #[test]
    fn symbols_compare_by_content() {
        assert_eq!(Symbol::new("a"), Symbol::from("a".to_string()));
        assert_ne!(Symbol::new("a"), Symbol::new("b"));
    }

    #[test]
    fn symbols_order_lexicographically() {
        assert!(Symbol::new("aa") < Symbol::new("ab"));
        // Interning order must not leak into the ordering.
        let late = Symbol::new("zz-definitely-interned-later");
        assert!(Symbol::new("aa") < late);
        assert!(late > Symbol::new("ab"));
    }

    #[test]
    fn equal_text_interns_to_the_same_index() {
        let a = Symbol::new("same-text");
        let b = Symbol::from("same-text".to_string());
        assert_eq!(a.index(), b.index());
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
    }

    #[test]
    fn generated_names_are_unique() {
        let mut gen = NameGen::new();
        let base = Symbol::new("v");
        let names: HashSet<_> = (0..1000).map(|_| gen.fresh(&base)).collect();
        assert_eq!(names.len(), 1000);
    }

    #[test]
    fn generated_base_strips_counter_even_when_refreshed() {
        let mut gen = NameGen::new();
        let a = gen.fresh_named("db");
        let b = gen.fresh(&a);
        assert_eq!(b.base(), "db");
        assert!(!b.as_str().contains("##"));
    }

    #[test]
    fn borrow_str_allows_btree_lookup() {
        // `Ord` is lexicographic, so ordered collections can be probed
        // with a plain `&str`. (Hash collections cannot: `Hash` is
        // index-based for speed.)
        let mut set = BTreeSet::new();
        set.insert(Symbol::new("key"));
        assert!(set.contains("key"));
        assert!(!set.contains("other"));
    }

    #[test]
    fn display_is_plain_name() {
        assert_eq!(Symbol::new("odd").to_string(), "odd");
        assert_eq!(format!("{:?}", Symbol::new("odd")), "`odd`");
    }

    #[test]
    fn interning_is_thread_safe() {
        use std::sync::{mpsc, Arc, Barrier};

        const WRITERS: usize = 4;
        const READERS: usize = 4;
        const NAMES: usize = 300;
        // Every reader resolves a symbol before any writer starts, so
        // each name below is interned after some reader's first lookup.
        let start = Arc::new(Barrier::new(WRITERS + READERS));
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..READERS).map(|_| mpsc::channel::<(Symbol, String)>()).unzip();
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let start = start.clone();
                let senders = senders.clone();
                std::thread::spawn(move || {
                    start.wait();
                    (0..NAMES)
                        .map(|i| {
                            // Half the names are shared by every writer,
                            // half are this writer's own.
                            let text = if i % 2 == 0 {
                                format!("threaded-shared-{}", i / 2)
                            } else {
                                format!("threaded-{w}-{i}")
                            };
                            let sym = Symbol::new(text.as_str());
                            for tx in &senders {
                                tx.send((sym.clone(), text.clone())).unwrap();
                            }
                            (sym.index(), text)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        drop(senders);
        let readers: Vec<_> = receivers
            .into_iter()
            .map(|rx| {
                let start = start.clone();
                std::thread::spawn(move || {
                    let probe = Symbol::new("threaded-probe");
                    assert_eq!(probe.as_str(), "threaded-probe");
                    start.wait();
                    rx.into_iter()
                        .map(|(sym, text)| {
                            assert_eq!(sym.as_str(), text);
                            assert_eq!(sym.to_string(), text);
                            assert_eq!(sym.cmp(&probe), text.as_str().cmp("threaded-probe"));
                            (sym.index(), text)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        // Every thread resolves every index to the same text, and equal
        // text interned on different threads got one index.
        let mut seen: HashMap<u32, String> = HashMap::new();
        for handle in writers.into_iter().chain(readers) {
            for (index, text) in handle.join().unwrap() {
                assert_eq!(seen.entry(index).or_insert_with(|| text.clone()), &text);
            }
        }
        assert_eq!(seen.len(), NAMES / 2 + WRITERS * NAMES / 2);
        for (index, text) in &seen {
            assert_eq!(Symbol::new(text.as_str()).index(), *index);
        }
    }

    #[test]
    fn slots_tile_the_index_space() {
        assert_eq!(slot(0), (0, 0));
        assert_eq!(slot(63), (0, 63));
        assert_eq!(slot(64), (1, 0));
        assert_eq!(slot(191), (1, 127));
        assert_eq!(slot(192), (2, 0));
        // The last index lands inside the last chunk.
        let (chunk, offset) = slot(u32::MAX);
        assert_eq!(chunk, CHUNKS - 1);
        assert!(offset < FIRST_CHUNK << chunk);
        // Each chunk starts where the previous one ends.
        for chunk in 1..CHUNKS {
            let first = FIRST_CHUNK * ((1 << chunk) - 1);
            assert_eq!(slot(first as u32 - 1), (chunk - 1, (FIRST_CHUNK << (chunk - 1)) - 1));
            assert_eq!(slot(first as u32), (chunk, 0));
        }
    }
}
