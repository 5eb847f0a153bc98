//! Properties of the global symbol interner, exercised from outside the
//! kernel crate: interning round-trips, equal text shares storage, and —
//! the property Fig. 11's α-renaming depends on — `NameGen::fresh` never
//! collides with a previously interned source name.

use bench::rng::SplitMix64;

use units::{Backend, Engine, Strictness, Symbol};
use units_kernel::NameGen;

/// Interning round-trips: `Symbol::new(s).as_str() == s` for arbitrary
/// strings, including ones containing the reserved `#`.
#[test]
fn interning_round_trips_arbitrary_text() {
    let mut rng = SplitMix64::seed_from_u64(0x1A7E);
    const ALPHABET: &[char] = &['a', 'z', '-', '!', '?', '#', '0', '9', 'λ', ' '];
    for _ in 0..2000 {
        let n = rng.gen_range(1, 12);
        let s: String = (0..n).map(|_| ALPHABET[rng.gen_range(0, ALPHABET.len())]).collect();
        let sym = Symbol::new(s.as_str());
        assert_eq!(sym.as_str(), s);
        assert_eq!(sym, Symbol::from(s.clone()));
    }
}

/// Equal text interns to pointer-equal storage: `as_str` on two symbols
/// built from equal strings returns the *same* `&'static str`.
#[test]
fn equal_text_shares_interned_storage() {
    let mut rng = SplitMix64::seed_from_u64(0x1A7F);
    for _ in 0..500 {
        let s = format!("name-{}", rng.gen_range(0, 64));
        let a = Symbol::new(s.as_str());
        let b = Symbol::new(s.as_str());
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.as_str(), b.as_str()), "`{s}` interned twice");
    }
}

/// The freshness guarantee behind Fig. 11's capture-free substitution:
/// names produced by `NameGen::fresh` never collide with any name
/// interned before — source programs cannot forge a generated name
/// because `#` is reserved by the lexer, and the counter never repeats.
#[test]
fn fresh_names_never_collide_with_interned_source_names() {
    // Intern a corpus of plausible source names first, including some
    // that *look* adversarially close to generated ones.
    let mut source: std::collections::BTreeSet<Symbol> = std::collections::BTreeSet::new();
    for base in ["x", "y", "tmp", "x#zzz", "#1", "fresh"] {
        for i in 0..50 {
            source.insert(Symbol::new(format!("{base}{i}").as_str()));
        }
        source.insert(Symbol::new(base));
    }
    let mut gen = NameGen::new();
    let mut generated = std::collections::BTreeSet::new();
    for i in 0..1000 {
        let f = if i % 2 == 0 { gen.fresh(&Symbol::new("tmp")) } else { gen.fresh_named("x") };
        assert!(f.is_generated(), "{f} must be marked generated");
        assert!(!source.contains(&f), "fresh name {f} collides with a source name");
        assert!(generated.insert(f.clone()), "fresh name {f} repeated");
    }
}

/// End to end: a program whose evaluation forces the reducer's
/// α-renaming still works when the source already uses the textual base
/// names the renamer starts from — the interner keeps generated and
/// source names distinct identities.
#[test]
fn alpha_renaming_stays_fresh_under_interning() {
    // The reducer substitutes the unit body and must rename `n` away
    // from the argument's free `n`.
    let src = r#"
      (let ((n 3))
        (invoke (unit (import k) (export)
                  (define n 10)
                  (init (+ n (k))))
                (val k (lambda () n))))
    "#;
    let engine = Engine::builder().strictness(Strictness::MzScheme).build();
    let program = engine.load(src).unwrap();
    let reduced = program.run_on(Backend::Reducer).unwrap();
    let compiled = program.run_on(Backend::Compiled).unwrap();
    assert_eq!(reduced, compiled);
}

/// `base()` strips the generated counter so diagnostics print the
/// original source spelling.
#[test]
fn generated_symbols_report_their_source_base() {
    let mut gen = NameGen::new();
    let f = gen.fresh_named("acc");
    assert_eq!(f.base(), "acc");
    let g = gen.fresh(&f);
    assert_eq!(g.base(), "acc");
    assert_ne!(f, g);
}
