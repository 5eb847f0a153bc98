//! Property-based tests on the core data structures and invariants:
//! parser/printer round-trips, subtype laws, expansion idempotence,
//! α-equivalence, and substitution.
//!
//! The generators are seeded SplitMix64 loops (no registry crates), so
//! every failure reports a seed that reproduces it forever.

use bench::rng::SplitMix64;

use units::{
    alpha_eq, free_val_vars, parse_expr, parse_ty, pretty_expr, pretty_ty, subtype, ty_equal,
    Equations, Expr, Ports, Signature, Symbol, Ty, TyPort, ValPort,
};
use units_kernel::{subst_vals, Lambda, NameGen, Param};

const NAMES: &[&str] = &["a", "bb", "ccc", "dd", "e2", "f-g", "h!"];
const TY_NAMES: &[&str] = &["t", "u", "vv", "w-x"];

fn pick<T: Copy>(rng: &mut SplitMix64, items: &[T]) -> T {
    items[rng.gen_range(0, items.len())]
}

fn arb_name(rng: &mut SplitMix64) -> &'static str {
    pick(rng, NAMES)
}

fn arb_ty_name(rng: &mut SplitMix64) -> &'static str {
    pick(rng, TY_NAMES)
}

/// A random type of bounded depth (Fig. 13 grammar).
fn arb_ty(rng: &mut SplitMix64, depth: u32) -> Ty {
    if depth == 0 {
        return match rng.gen_range(0, 5) {
            0 => Ty::Int,
            1 => Ty::Bool,
            2 => Ty::Str,
            3 => Ty::Void,
            _ => Ty::var(arb_ty_name(rng)),
        };
    }
    match rng.gen_range(0, 6) {
        0 => {
            let params = (0..rng.gen_range(0, 3)).map(|_| arb_ty(rng, depth - 1)).collect();
            Ty::arrow(params, arb_ty(rng, depth - 1))
        }
        1 => Ty::Tuple((0..rng.gen_range(0, 3)).map(|_| arb_ty(rng, depth - 1)).collect()),
        2 => Ty::hash(arb_ty(rng, depth - 1)),
        _ => arb_ty(rng, 0),
    }
}

fn arb_ports(rng: &mut SplitMix64) -> Ports {
    let tys: std::collections::BTreeSet<&str> =
        (0..rng.gen_range(0, 2)).map(|_| arb_ty_name(rng)).collect();
    let vals: std::collections::BTreeMap<&str, Ty> =
        (0..rng.gen_range(0, 3)).map(|_| (arb_name(rng), arb_ty(rng, 2))).collect();
    Ports {
        types: tys.into_iter().map(TyPort::star).collect(),
        vals: vals.into_iter().map(|(n, t)| ValPort::typed(n, t)).collect(),
    }
}

/// A random well-formed signature: import and export names disjoint.
/// Regenerates on collision, so every call yields a signature.
fn arb_sig(rng: &mut SplitMix64) -> Signature {
    loop {
        let imports = arb_ports(rng);
        let exports = arb_ports(rng);
        let i_tys = imports.ty_names();
        let e_tys = exports.ty_names();
        if i_tys.intersection(&e_tys).next().is_some() {
            continue;
        }
        let i_vals = imports.val_names();
        let e_vals = exports.val_names();
        if i_vals.intersection(&e_vals).next().is_some() {
            continue;
        }
        let init_ty = arb_ty(rng, 2);
        return Signature::new(imports, exports, init_ty);
    }
}

/// A random expression with valid surface syntax (for round-trip
/// testing): only forms the parser can produce, never machine-internal
/// ones.
fn arb_expr(rng: &mut SplitMix64, depth: u32) -> Expr {
    if depth == 0 {
        return match rng.gen_range(0, 5) {
            0 => Expr::int(rng.gen_range_i64(i64::from(i32::MIN), i64::from(i32::MAX) + 1)),
            1 => Expr::bool(rng.gen_bool(0.5)),
            2 => {
                let n = rng.gen_range(0, 7);
                let s: String = (0..n)
                    .map(|_| pick(rng, &[' ', 'a', 'b', 'k', 'q', 'z']))
                    .collect();
                Expr::str(s)
            }
            3 => Expr::void(),
            _ => Expr::var(arb_name(rng)),
        };
    }
    match rng.gen_range(0, 9) {
        0 => {
            let mut seen = std::collections::BTreeSet::new();
            let params = (0..rng.gen_range(0, 3))
                .map(|_| arb_name(rng))
                .filter(|p| seen.insert(*p))
                .map(Param::untyped)
                .collect();
            Expr::lambda(params, arb_expr(rng, depth - 1))
        }
        1 => {
            let f = arb_expr(rng, depth - 1);
            let args = (0..rng.gen_range(0, 3)).map(|_| arb_expr(rng, depth - 1)).collect();
            Expr::app(f, args)
        }
        2 => Expr::if_(
            arb_expr(rng, depth - 1),
            arb_expr(rng, depth - 1),
            arb_expr(rng, depth - 1),
        ),
        3 => Expr::seq((0..rng.gen_range(1, 3)).map(|_| arb_expr(rng, depth - 1)).collect()),
        4 => {
            let bs: std::collections::BTreeMap<&str, Expr> = (0..rng.gen_range(1, 3))
                .map(|_| (arb_name(rng), arb_expr(rng, depth - 1)))
                .collect();
            Expr::Let(
                bs.into_iter()
                    .map(|(name, expr)| units_kernel::Binding { name: name.into(), expr })
                    .collect(),
                Box::new(arb_expr(rng, depth - 1)),
            )
        }
        5 => Expr::Tuple((0..rng.gen_range(0, 3)).map(|_| arb_expr(rng, depth - 1)).collect()),
        6 => Expr::Proj(rng.gen_range(0, 3), Box::new(arb_expr(rng, depth - 1))),
        7 => Expr::set(arb_name(rng), arb_expr(rng, depth - 1)),
        _ => arb_expr(rng, 0),
    }
}

/// Fig. 9 grammar: printing and re-parsing is the identity.
#[test]
fn pretty_parse_round_trips_expressions() {
    let mut rng = SplitMix64::seed_from_u64(0x51AB);
    for case in 0..256 {
        let e = arb_expr(&mut rng, 4);
        let printed = pretty_expr(&e);
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("case {case}: reparse `{printed}`: {err}"));
        assert_eq!(e, reparsed, "case {case}: `{printed}`");
    }
}

/// Fig. 13 grammar: the same for types.
#[test]
fn pretty_parse_round_trips_types() {
    let mut rng = SplitMix64::seed_from_u64(0x51AC);
    for case in 0..256 {
        let t = arb_ty(&mut rng, 3);
        let printed = pretty_ty(&t);
        let reparsed = parse_ty(&printed)
            .unwrap_or_else(|err| panic!("case {case}: reparse `{printed}`: {err}"));
        assert_eq!(t, reparsed, "case {case}: `{printed}`");
    }
}

/// Fig. 14: the subtype relation is reflexive.
#[test]
fn subtype_is_reflexive() {
    let mut rng = SplitMix64::seed_from_u64(0x51AD);
    for case in 0..256 {
        let t = arb_ty(&mut rng, 3);
        assert!(subtype(&Equations::new(), &t, &t).is_ok(), "case {case}: {t:?}");
    }
}

/// Fig. 14: signatures are reflexive too, and `ty_equal` agrees.
#[test]
fn sig_subtype_is_reflexive() {
    let mut rng = SplitMix64::seed_from_u64(0x51AE);
    for case in 0..256 {
        let t = Ty::sig(arb_sig(&mut rng));
        assert!(subtype(&Equations::new(), &t, &t).is_ok(), "case {case}: {t:?}");
        assert!(ty_equal(&Equations::new(), &t, &t), "case {case}: {t:?}");
    }
}

/// Fig. 14 condition 2: dropping an export or adding an unused import
/// *weakens* a signature (produces a supertype).
#[test]
fn weakening_produces_a_supertype() {
    let mut rng = SplitMix64::seed_from_u64(0x51AF);
    for case in 0..256 {
        let sig = arb_sig(&mut rng);
        let specific = Ty::sig(sig.clone());

        let mut fewer_exports = sig.clone();
        let dropped = fewer_exports.exports.vals.pop();
        let general = Ty::sig(fewer_exports.clone());
        assert!(
            subtype(&Equations::new(), &specific, &general).is_ok(),
            "case {case}: dropping an export must weaken"
        );
        if dropped.is_some() {
            // The reverse direction must fail: the supertype is missing
            // an export the subtype demands.
            assert!(
                subtype(&Equations::new(), &general, &specific).is_err(),
                "case {case}: the reverse direction must fail"
            );
        }

        let mut more_imports = sig.clone();
        more_imports.imports.vals.push(ValPort::typed("zz-extra", Ty::Int));
        if more_imports.exports.val_port(&"zz-extra".into()).is_none() {
            let general = Ty::sig(more_imports);
            assert!(
                subtype(&Equations::new(), &specific, &general).is_ok(),
                "case {case}: adding an unused import must weaken"
            );
        }
    }
}

/// Fig. 18: expansion is idempotent for acyclic equation sets.
#[test]
fn expansion_is_idempotent() {
    let mut rng = SplitMix64::seed_from_u64(0x51B0);
    for case in 0..256 {
        let t = arb_ty(&mut rng, 3);
        // Build an acyclic set by only letting TY_NAMES[i] reference
        // strictly later names.
        let mut eqs = Equations::new();
        for i in 0..TY_NAMES.len() {
            let mut body = arb_ty(&mut rng, 3);
            // Erase references to names ≤ i to keep the set acyclic.
            for earlier in &TY_NAMES[..=i] {
                let map = std::collections::HashMap::from([(
                    Symbol::new(*earlier),
                    Ty::Int,
                )]);
                body = units_kernel::subst_ty(&body, &map).unwrap();
            }
            eqs.insert(Symbol::new(TY_NAMES[i]), body);
        }
        assert!(eqs.check_acyclic().is_ok(), "case {case}");
        let once = units::expand_ty(&t, &eqs).unwrap();
        let twice = units::expand_ty(&once, &eqs).unwrap();
        assert_eq!(once, twice, "case {case}");
    }
}

/// α-equivalence is preserved by renaming a λ's parameter.
#[test]
fn alpha_eq_respects_bound_renaming() {
    let mut rng = SplitMix64::seed_from_u64(0x51B1);
    for case in 0..256 {
        let body = arb_expr(&mut rng, 4);
        let original = Expr::Lambda(std::sync::Arc::new(Lambda {
            params: vec![Param::untyped("a")],
            ret_ty: None,
            body: body.clone(),
        }));
        // Rename a → fresh (capture-free because `zq1` is not in NAMES).
        let mut gen = NameGen::new();
        let renamed_body = subst_vals(
            &body,
            &std::collections::HashMap::from([(Symbol::new("a"), Expr::var("zq1"))]),
            &mut gen,
        );
        let renamed = Expr::Lambda(std::sync::Arc::new(Lambda {
            params: vec![Param::untyped("zq1")],
            ret_ty: None,
            body: renamed_body,
        }));
        assert!(alpha_eq(&original, &renamed), "case {case}");
    }
}

/// Substitution eliminates the substituted free variable.
#[test]
fn substitution_removes_the_variable() {
    let mut rng = SplitMix64::seed_from_u64(0x51B2);
    for case in 0..256 {
        let e = arb_expr(&mut rng, 4);
        let mut gen = NameGen::new();
        let target = Symbol::new("a");
        let out = subst_vals(
            &e,
            &std::collections::HashMap::from([(target.clone(), Expr::int(0))]),
            &mut gen,
        );
        assert!(!free_val_vars(&out).contains(&target), "case {case}");
    }
}

/// Substitution only shrinks the free-variable set (closed value).
#[test]
fn substitution_is_monotone_on_free_vars() {
    let mut rng = SplitMix64::seed_from_u64(0x51B3);
    for case in 0..256 {
        let e = arb_expr(&mut rng, 4);
        let mut gen = NameGen::new();
        let before = free_val_vars(&e);
        let out = subst_vals(
            &e,
            &std::collections::HashMap::from([(Symbol::new("a"), Expr::int(1))]),
            &mut gen,
        );
        let after = free_val_vars(&out);
        assert!(after.is_subset(&before), "case {case}");
    }
}

/// A constructed chain sub ≤ mid ≤ sup is transitive: sub ≤ sup.
/// (sub strengthens `mid` by exporting more; sup weakens it by
/// importing more — both directions of Fig. 14's condition 2.)
#[test]
fn subtype_chains_compose() {
    let mut rng = SplitMix64::seed_from_u64(0x51B4);
    let mut checked = 0;
    while checked < 128 {
        let mid = arb_sig(&mut rng);
        // Keep the generated signatures well-formed: the added names must
        // not collide with existing ports.
        if mid.exports.val_port(&"zz-more".into()).is_some()
            || mid.imports.val_port(&"zz-need".into()).is_some()
            || mid.imports.val_port(&"zz-more".into()).is_some()
            || mid.exports.val_port(&"zz-need".into()).is_some()
        {
            continue;
        }
        checked += 1;
        let mut sub = mid.clone();
        sub.exports.vals.push(ValPort::typed("zz-more", Ty::Bool));
        let mut sup = mid.clone();
        sup.imports.vals.push(ValPort::typed("zz-need", Ty::Str));

        let eqs = Equations::new();
        let t_sub = Ty::sig(sub);
        let t_mid = Ty::sig(mid);
        let t_sup = Ty::sig(sup);
        assert!(subtype(&eqs, &t_sub, &t_mid).is_ok());
        assert!(subtype(&eqs, &t_mid, &t_sup).is_ok());
        assert!(subtype(&eqs, &t_sub, &t_sup).is_ok());
    }
}

/// Expansion commutes with substitution-free types: expanding a type
/// with no abbreviation names in it is the identity.
#[test]
fn expansion_is_identity_off_the_domain() {
    let mut rng = SplitMix64::seed_from_u64(0x51B5);
    // Equations over names disjoint from TY_NAMES.
    let eqs = Equations::from([
        ("zq1".into(), Ty::Int),
        ("zq2".into(), Ty::Bool),
    ]);
    for case in 0..128 {
        let t = arb_ty(&mut rng, 3);
        let mut free = std::collections::BTreeSet::new();
        t.free_ty_vars(&mut free);
        if free.contains("zq1") || free.contains("zq2") {
            continue;
        }
        assert_eq!(units::expand_ty(&t, &eqs).unwrap(), t, "case {case}");
    }
}

/// α-equivalence is reflexive and agrees with structural equality on
/// closed-binder-free terms.
#[test]
fn alpha_eq_is_reflexive() {
    let mut rng = SplitMix64::seed_from_u64(0x51B6);
    for case in 0..128 {
        let e = arb_expr(&mut rng, 4);
        assert!(alpha_eq(&e, &e), "case {case}");
    }
}

/// The pretty-printer never emits the reserved `#` character for
/// source-level programs (it is reserved for generated names).
#[test]
fn printer_never_emits_reserved_hash() {
    let mut rng = SplitMix64::seed_from_u64(0x51B7);
    for case in 0..128 {
        let e = arb_expr(&mut rng, 4);
        assert!(!pretty_expr(&e).contains('#'), "case {case}");
    }
}

/// Differential property: both evaluators agree on random *closed*
/// core terms (the open generator is closed by binding every free
/// name to a small integer).
#[test]
fn backends_agree_on_random_closed_terms() {
    use units::{Backend, Engine, Limits, Strictness};
    let engine = Engine::builder()
        .strictness(Strictness::MzScheme)
        .limits(Limits::none().fuel(100_000))
        .build();
    let mut rng = SplitMix64::seed_from_u64(0x51B8);
    for case in 0..96 {
        let e = arb_expr(&mut rng, 4);
        let closed = Expr::app(
            Expr::lambda(NAMES.iter().map(|n| Param::untyped(*n)).collect(), e),
            (0..NAMES.len() as i64).map(Expr::int).collect(),
        );
        let src = units::pretty_expr(&closed);
        // A check rejection hits every backend identically — skip.
        let Ok(program) = engine.load_expr(closed) else { continue };
        let a = program.run_on(Backend::Compiled);
        let b = program.run_on(Backend::Reducer);
        match (a, b) {
            (Ok(x), Ok(y)) => assert_eq!(x, y, "case {case}: {src}"),
            (Err(_), Err(_)) => {}
            (x, y) => panic!("case {case}: disagree: {x:?} vs {y:?}\n{src}"),
        }
    }
}

/// Equations in scope around a subtype judgment, as `(name, body)` sources.
type Outer = &'static [(&'static str, &'static str)];

/// One subtype judgment: its name, the outer equations, `sub`, `sup`,
/// and the verdict — `Err` carries the reason word for word.
type Judgment = (String, Outer, Ty, Ty, Result<(), String>);

fn judgment(name: &str, outer: Outer, sub: Ty, sup: Ty, expected: Result<(), &str>) -> Judgment {
    (name.to_string(), outer, sub, sup, expected.map_err(str::to_string))
}

/// One table of subtype judgments with their verdicts and, for the
/// failing ones, their reasons word for word: `bench::deep_signature`
/// and `bench::wide_signature` sizes, signatures with `where` equations
/// under an outer equation set, expansion failures, and failing pairs
/// for every rule of Figs. 14/17.
#[test]
fn subtype_verdicts_and_reasons_are_pinned() {
    use bench::{deep_signature, wide_signature};

    let ty = |src: &str| parse_ty(src).unwrap_or_else(|e| panic!("{src}: {e}"));
    let exporting = |name: &str, port: Ty| {
        Ty::sig(Signature::new(
            Ports::new(),
            Ports { types: vec![], vals: vec![ValPort::typed(name, port)] },
            Ty::Void,
        ))
    };
    let with_t = |body: &str| ty(&format!("(sig (import) (export (f t)) (where (t {body})))"));
    const NONE: Outer = &[];
    const ENV_FN: Outer = &[("env", "(-> str int)")];
    const ENV_INT: Outer = &[("env", "int")];

    let mut table = Vec::new();
    for depth in [2, 4, 8, 16] {
        let d = deep_signature(depth);
        table.push(judgment(&format!("deep {depth} ≤ itself"), NONE, d.clone(), d, Ok(())));
        let missing = format!("supertype exports `level{}` that the subtype does not", depth - 2);
        table.push(judgment(
            &format!("deep {depth} ≤ one level shallower"),
            NONE,
            deep_signature(depth),
            deep_signature(depth - 1),
            Err(&missing),
        ));
    }
    for width in [4, 16, 64] {
        let wide = Ty::sig(wide_signature(width, 8));
        let narrow = Ty::sig(wide_signature(width, 0));
        let missing = format!("supertype exports `p{width}` that the subtype does not");
        table.push(judgment(
            &format!("wide {width} ≤ narrower"),
            NONE,
            wide.clone(),
            narrow.clone(),
            Ok(()),
        ));
        table.push(judgment(&format!("narrow {width} ≤ wider"), NONE, narrow, wide, Err(&missing)));
    }
    table.extend([
        judgment(
            "deep 16 ≤ a port one level too shallow",
            NONE,
            deep_signature(16),
            exporting("level15", deep_signature(14)),
            Err("export `level15`: supertype exports `level13` that the subtype does not"),
        ),
        judgment(
            "where under outer equations",
            ENV_FN,
            with_t("env"),
            ty("(sig (import) (export (f (-> str int))))"),
            Ok(()),
        ),
        judgment(
            "where under outer equations, mismatched",
            ENV_INT,
            with_t("env"),
            ty("(sig (import) (export (f bool)))"),
            Err("export `f`: int is not a subtype of bool"),
        ),
        judgment(
            "both sides abbreviate alike",
            ENV_FN,
            with_t("env"),
            with_t("(-> str int)"),
            Ok(()),
        ),
        judgment(
            "both sides abbreviate differently",
            ENV_FN,
            with_t("env"),
            with_t("int"),
            Err("abbreviation `t` differs: str→int vs int"),
        ),
        judgment(
            "supertype abbreviates an opaque export",
            NONE,
            ty("(sig (import) (export (type t)))"),
            ty("(sig (import) (export) (where (t int)))"),
            Err("supertype claims `t` is an abbreviation, but the subtype exports it opaquely"),
        ),
        judgment("an abbreviation is transparent", ENV_FN, ty("env"), ty("(-> str int)"), Ok(())),
        judgment("…in both directions", ENV_FN, ty("(-> str int)"), ty("env"), Ok(())),
        judgment(
            "expansion would capture",
            &[("u", "t")],
            ty("(sig (import (type t)) (export (f u)))"),
            ty("(sig (import (type t)) (export (f u)))"),
            Err("type substitution would capture interface name `t`"),
        ),
        judgment(
            "cyclic outer equations",
            &[("a", "b"), ("b", "a")],
            ty("a"),
            ty("int"),
            Err("type equations form a cycle through `a`"),
        ),
        judgment("base types", NONE, ty("int"), ty("bool"), Err("int is not a subtype of bool")),
        judgment(
            "arrow arity",
            NONE,
            ty("(-> int int)"),
            ty("(-> int int int)"),
            Err("function arity differs: 1 vs 2"),
        ),
        judgment(
            "contravariant parameter",
            NONE,
            ty("(-> int int)"),
            ty("(-> bool int)"),
            Err("parameter (contravariant): bool is not a subtype of int"),
        ),
        judgment(
            "tuple width",
            NONE,
            ty("(tuple int)"),
            ty("(tuple int int)"),
            Err("tuple widths differ"),
        ),
        judgment(
            "hash invariance",
            NONE,
            ty("(hash int)"),
            ty("(hash bool)"),
            Err("hash element types must be equal: int vs bool"),
        ),
        judgment(
            "more imports",
            NONE,
            ty("(sig (import (x int)) (export))"),
            ty("(sig (import) (export))"),
            Err("subtype imports `x` that the supertype does not"),
        ),
        judgment(
            "contravariant import",
            NONE,
            ty("(sig (import (x int)) (export))"),
            ty("(sig (import (x bool)) (export))"),
            Err("import `x` (contravariant): bool is not a subtype of int"),
        ),
        judgment(
            "kinds",
            NONE,
            ty("(sig (import (type t)) (export))"),
            ty("(sig (import (type t (=> * *))) (export))"),
            Err("kind of `t` differs: Ω vs Ω→Ω"),
        ),
        judgment(
            "undeclared dependency",
            NONE,
            ty("(sig (import (type i)) (export (type e)) (depends (e i)))"),
            ty("(sig (import (type i)) (export (type e)))"),
            Err("subtype declares dependency `e ↝ i` that the supertype does not"),
        ),
        judgment(
            "initialization type",
            NONE,
            ty("(sig (import) (export) (init int))"),
            ty("(sig (import) (export) (init bool))"),
            Err("initialization type: int is not a subtype of bool"),
        ),
    ]);
    for (name, outer, sub, sup, expected) in table {
        let eqs = Equations::from_pairs(outer.iter().map(|(t, body)| (Symbol::new(*t), ty(body))));
        assert_eq!(subtype(&eqs, &sub, &sup).map_err(|e| e.reason), expected, "{name}");
    }
}
