//! Workload generators for the benchmark harness (see DESIGN.md §5).
//!
//! Each generator builds a family of programs parameterized by size so
//! the benches can sweep and print the series EXPERIMENTS.md records:
//! link graphs of three shapes (chain, star, cycle), counting workloads
//! for the backend comparison, wide/deep signatures for the checker, and
//! alias chains for the UNITe machinery.

use units::{Expr, Ports, Signature, Symbol, Ty, TyPort, UnitExpr, ValPort};
use units_kernel::{
    AliasDefn, CompoundExpr, InvokeExpr, Kind, LinkClause, Param, PrimOp, TypeDefn, ValDefn,
};

pub mod rng;

pub mod harness {
    //! A tiny std-only timing harness: the workspace builds with no
    //! registry access, so the bench binaries print their own series
    //! instead of linking criterion.

    use std::time::Instant;

    /// Median wall-clock microseconds of `runs` executions of `f`.
    pub fn median_us(runs: usize, mut f: impl FnMut()) -> f64 {
        assert!(runs > 0);
        let mut samples = Vec::with_capacity(runs);
        for _ in 0..runs {
            let t = Instant::now();
            f();
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    }

    /// Minimum wall-clock microseconds of `runs` executions of `f` —
    /// the statistic of choice for an A/B microbenchmark, since noise
    /// from scheduling and caches is strictly additive.
    pub fn min_us(runs: usize, mut f: impl FnMut()) -> f64 {
        assert!(runs > 0);
        let mut best = f64::INFINITY;
        for _ in 0..runs {
            let t = Instant::now();
            f();
            best = best.min(t.elapsed().as_secs_f64() * 1e6);
        }
        best
    }

    /// Prints one `name/param: median µs` line in a stable format.
    pub fn report(name: &str, param: impl std::fmt::Display, us: f64) {
        println!("{name}/{param}: {us:.1} µs");
    }
}

fn untyped_unit(
    imports: Vec<&str>,
    exports: Vec<&str>,
    vals: Vec<(String, Expr)>,
    init: Expr,
) -> Expr {
    Expr::unit(UnitExpr {
        imports: Ports::untyped(Vec::<&str>::new(), imports),
        exports: Ports::untyped(Vec::<&str>::new(), exports),
        types: vec![],
        vals: vals
            .into_iter()
            .map(|(name, body)| ValDefn { name: name.into(), ty: None, body })
            .collect(),
        init,
    })
}

fn clause(expr: Expr, with: Vec<String>, provides: Vec<String>) -> LinkClause {
    LinkClause::by_name(
        expr,
        Ports::untyped(Vec::<&str>::new(), with.iter().map(String::as_str)),
        Ports::untyped(Vec::<&str>::new(), provides.iter().map(String::as_str)),
    )
}

/// `invoke` of a compound chaining `n ≥ 1` units: unit 0 exports `f0`,
/// unit i exports `fi(x) = f(i-1)(x) + 1`; the last constituent's
/// initialization calls the end of the chain, so the result is `n - 1`.
pub fn chain_program(n: usize) -> Expr {
    assert!(n >= 1);
    let mut links = Vec::with_capacity(n + 1);
    links.push(clause(
        untyped_unit(
            vec![],
            vec!["f0"],
            vec![("f0".to_string(), Expr::lambda(vec![Param::untyped("x")], Expr::var("x")))],
            Expr::void(),
        ),
        vec![],
        vec!["f0".to_string()],
    ));
    for i in 1..n {
        let prev = format!("f{}", i - 1);
        let name = format!("f{i}");
        let body = Expr::lambda(
            vec![Param::untyped("x")],
            Expr::app(
                Expr::var(prev.as_str()),
                vec![Expr::prim2(PrimOp::Add, Expr::var("x"), Expr::int(1))],
            ),
        );
        links.push(clause(
            untyped_unit(
                vec![prev.as_str()],
                vec![name.as_str()],
                vec![(name.clone(), body)],
                Expr::void(),
            ),
            vec![prev],
            vec![name],
        ));
    }
    let last = format!("f{}", n - 1);
    links.push(clause(
        untyped_unit(
            vec![last.as_str()],
            vec![],
            vec![],
            Expr::app(Expr::var(last.as_str()), vec![Expr::int(0)]),
        ),
        vec![last],
        vec![],
    ));
    Expr::invoke_program(Expr::compound(CompoundExpr::new(Ports::new(), Ports::new(), links)))
}

/// A star: one hub unit exporting `hub`, `n` satellites each importing it
/// and exporting `s{i}`, and a collector that sums every satellite.
pub fn star_program(n: usize) -> Expr {
    let mut links = Vec::with_capacity(n + 2);
    links.push(clause(
        untyped_unit(
            vec![],
            vec!["hub"],
            vec![("hub".to_string(), Expr::lambda(vec![Param::untyped("x")], Expr::var("x")))],
            Expr::void(),
        ),
        vec![],
        vec!["hub".to_string()],
    ));
    let mut sat_names = Vec::with_capacity(n);
    for i in 0..n {
        let name = format!("s{i}");
        links.push(clause(
            untyped_unit(
                vec!["hub"],
                vec![name.as_str()],
                vec![(
                    name.clone(),
                    Expr::thunk(Expr::app(Expr::var("hub"), vec![Expr::int(i as i64)])),
                )],
                Expr::void(),
            ),
            vec!["hub".to_string()],
            vec![name.clone()],
        ));
        sat_names.push(name);
    }
    let sum = sat_names.iter().fold(Expr::int(0), |acc, s| {
        Expr::prim2(PrimOp::Add, acc, Expr::app(Expr::var(s.as_str()), vec![]))
    });
    links.push(clause(
        untyped_unit(sat_names.iter().map(String::as_str).collect(), vec![], vec![], sum),
        sat_names,
        vec![],
    ));
    Expr::invoke_program(Expr::compound(CompoundExpr::new(Ports::new(), Ports::new(), links)))
}

/// A ring of `n ≥ 2` mutually recursive units: `g{i}(k)` returns `i` at
/// `k = 0` and otherwise calls `g{(i+1) mod n}(k - 1)`. The last
/// constituent's initialization starts the ring at `g{n-1}` with
/// `k = n`, so every unit participates and the walk returns to its
/// starting point: the result is `n - 1`.
pub fn cycle_program(n: usize) -> Expr {
    assert!(n >= 2);
    let mut links = Vec::with_capacity(n);
    for i in 0..n {
        let name = format!("g{i}");
        let next = format!("g{}", (i + 1) % n);
        let body = Expr::lambda(
            vec![Param::untyped("k")],
            Expr::if_(
                Expr::prim2(PrimOp::NumEq, Expr::var("k"), Expr::int(0)),
                Expr::int(i as i64),
                Expr::app(
                    Expr::var(next.as_str()),
                    vec![Expr::prim2(PrimOp::Sub, Expr::var("k"), Expr::int(1))],
                ),
            ),
        );
        let init = if i == n - 1 {
            Expr::app(Expr::var(name.as_str()), vec![Expr::int(n as i64)])
        } else {
            Expr::void()
        };
        links.push(clause(
            untyped_unit(vec![next.as_str()], vec![name.as_str()], vec![(name.clone(), body)], init),
            vec![next],
            vec![name],
        ));
    }
    Expr::invoke_program(Expr::compound(CompoundExpr::new(Ports::new(), Ports::new(), links)))
}

/// The even/odd counting workload (Fig. 12) for a given depth: two
/// mutually recursive units counting down from `depth`.
pub fn even_odd_program(depth: i64) -> Expr {
    let count = |this: &str, other: &str, base: bool| {
        Expr::lambda(
            vec![Param::untyped("n")],
            Expr::if_(
                Expr::prim2(PrimOp::NumEq, Expr::var("n"), Expr::int(0)),
                Expr::bool(base),
                Expr::app(
                    Expr::var(other),
                    vec![Expr::prim2(PrimOp::Sub, Expr::var("n"), Expr::int(1))],
                ),
            ),
        )
        .pipe(|body| (this.to_string(), body))
    };
    let even = untyped_unit(
        vec!["odd"],
        vec!["even"],
        vec![count("even", "odd", true)],
        Expr::void(),
    );
    let odd = untyped_unit(
        vec!["even"],
        vec!["odd"],
        vec![count("odd", "even", false)],
        Expr::app(Expr::var("odd"), vec![Expr::int(depth)]),
    );
    Expr::invoke_program(Expr::compound(CompoundExpr::new(
        Ports::new(),
        Ports::new(),
        vec![
            clause(even, vec!["odd".to_string()], vec!["even".to_string()]),
            clause(odd, vec!["even".to_string()], vec!["odd".to_string()]),
        ],
    )))
}

/// `depth` nested `let`s, each binding `width` variables, whose innermost
/// expression sums the first and last binding of *every* level — so the
/// evaluator performs lookups at every frame depth. By-name lookup scans
/// `width` bindings in each of up to `depth` frames per reference; the
/// resolver turns each into a direct `(depth, slot)` access. The value is
/// `depth * (width - 1)`.
pub fn deep_let_program(depth: usize, width: usize) -> Expr {
    assert!(depth >= 1 && width >= 1);
    let mut sum = Expr::int(0);
    for level in 0..depth {
        sum = Expr::prim2(PrimOp::Add, sum, Expr::var(format!("v{level}_0").as_str()));
        sum = Expr::prim2(
            PrimOp::Add,
            sum,
            Expr::var(format!("v{level}_{}", width - 1).as_str()),
        );
    }
    let mut body = sum;
    for level in (0..depth).rev() {
        let bindings = (0..width)
            .map(|k| units_kernel::Binding {
                name: format!("v{level}_{k}").into(),
                expr: Expr::int(k as i64),
            })
            .collect();
        body = Expr::Let(bindings, Box::new(body));
    }
    body
}

/// The even/odd trampoline (Fig. 12) inside *wide* units: each unit
/// additionally defines `extra` inert values, declared after the
/// counting function. Production units export many definitions, and the
/// by-name scan pays for every one of them on every reference that
/// lives in an outer frame — the back-to-front scan of the unit's frame
/// must reject all `extra` pads before reaching the import. Slot
/// resolution indexes past them.
pub fn even_odd_wide_program(depth: i64, extra: usize) -> Expr {
    let count = |this: &str, other: &str, base: bool| {
        Expr::lambda(
            vec![Param::untyped("n")],
            Expr::if_(
                Expr::prim2(PrimOp::NumEq, Expr::var("n"), Expr::int(0)),
                Expr::bool(base),
                Expr::app(
                    Expr::var(other),
                    vec![Expr::prim2(PrimOp::Sub, Expr::var("n"), Expr::int(1))],
                ),
            ),
        )
        .pipe(|body| (this.to_string(), body))
    };
    let pad = |tag: &str, extra: usize| {
        (0..extra).map(move |k| (format!("{tag}_pad{k}"), Expr::int(k as i64))).collect::<Vec<_>>()
    };
    let mut even_vals = vec![count("even", "odd", true)];
    even_vals.extend(pad("e", extra));
    let mut odd_vals = vec![count("odd", "even", false)];
    odd_vals.extend(pad("o", extra));
    let even = untyped_unit(vec!["odd"], vec!["even"], even_vals, Expr::void());
    let odd = untyped_unit(
        vec!["even"],
        vec!["odd"],
        odd_vals,
        Expr::app(Expr::var("odd"), vec![Expr::int(depth)]),
    );
    Expr::invoke_program(Expr::compound(CompoundExpr::new(
        Ports::new(),
        Ports::new(),
        vec![
            clause(even, vec!["odd".to_string()], vec!["even".to_string()]),
            clause(odd, vec!["even".to_string()], vec!["odd".to_string()]),
        ],
    )))
}

/// Tiny pipe helper so the workload builders read top-down.
trait Pipe: Sized {
    fn pipe<R>(self, f: impl FnOnce(Self) -> R) -> R {
        f(self)
    }
}
impl<T> Pipe for T {}

/// A typed unit exporting `width` integer constants — the wide-signature
/// workload for the Fig. 15 checker.
pub fn wide_typed_unit(width: usize) -> Expr {
    let mut exports = Vec::with_capacity(width);
    let mut vals = Vec::with_capacity(width);
    for i in 0..width {
        let name = format!("v{i}");
        exports.push(ValPort::typed(name.as_str(), Ty::Int));
        vals.push(ValDefn { name: name.into(), ty: Some(Ty::Int), body: Expr::int(i as i64) });
    }
    Expr::unit(UnitExpr {
        imports: Ports::new(),
        exports: Ports { types: vec![], vals: exports },
        types: vec![],
        vals,
        init: Expr::void(),
    })
}

/// A signature with `width + extra_exports` arrow-typed value ports, for
/// the Fig. 14 subtype benchmarks.
pub fn wide_signature(width: usize, extra_exports: usize) -> Signature {
    let port_ty = || Ty::arrow(vec![Ty::Int, Ty::Str], Ty::Tuple(vec![Ty::Int, Ty::Bool]));
    let exports: Vec<ValPort> = (0..width + extra_exports)
        .map(|i| ValPort::typed(format!("p{i}").as_str(), port_ty()))
        .collect();
    Signature::new(
        Ports {
            types: vec![TyPort::star("t")],
            vals: vec![ValPort::typed("dep", Ty::arrow(vec![Ty::var("t")], Ty::Void))],
        },
        Ports { types: vec![], vals: exports },
        Ty::Void,
    )
}

/// A nested signature type of the given depth: each level exports a value
/// whose type is the next level's signature.
pub fn deep_signature(depth: usize) -> Ty {
    let mut ty = Ty::Int;
    for i in 0..depth {
        let sig = Signature::new(
            Ports::new(),
            Ports {
                types: vec![],
                vals: vec![ValPort::typed(format!("level{i}").as_str(), ty)],
            },
            Ty::Void,
        );
        ty = Ty::sig(sig);
    }
    ty
}

/// An `Equations` chain `a0 = int`, `a{i} = ⟨a{i-1}⟩` of the given
/// length, for the Fig. 18 expansion benchmarks.
pub fn alias_chain(n: usize) -> units::Equations {
    let mut eqs = units::Equations::new();
    eqs.insert(Symbol::new("a0"), Ty::Int);
    for i in 1..n {
        let prev = Ty::var(format!("a{}", i - 1));
        eqs.insert(Symbol::new(format!("a{i}")), Ty::Tuple(vec![prev]));
    }
    eqs
}

/// A typed UNITe unit whose alias chain of length `n` must be expanded
/// away when deriving its signature.
pub fn alias_chain_unit(n: usize) -> Expr {
    assert!(n >= 1);
    let mut types = vec![TypeDefn::Alias(AliasDefn {
        name: "a0".into(),
        kind: Kind::Star,
        body: Ty::Int,
    })];
    for i in 1..n {
        types.push(TypeDefn::Alias(AliasDefn {
            name: format!("a{i}").into(),
            kind: Kind::Star,
            body: Ty::Tuple(vec![Ty::var(format!("a{}", i - 1))]),
        }));
    }
    let last = format!("a{}", n - 1);
    Expr::unit(UnitExpr {
        imports: Ports::new(),
        exports: Ports {
            types: vec![],
            vals: vec![ValPort::typed("get", Ty::arrow(vec![Ty::var(last.as_str())], Ty::Int))],
        },
        types,
        vals: vec![ValDefn {
            name: "get".into(),
            ty: Some(Ty::arrow(vec![Ty::var(last.as_str())], Ty::Int)),
            body: Expr::lambda(vec![Param::typed("x", Ty::var(last.as_str()))], Expr::int(0)),
        }],
        init: Expr::void(),
    })
}

/// `invoke` the unit bound to `u` a number of times, summing the results
/// so the work cannot be discarded.
pub fn repeated_invoke(unit: Expr, count: usize) -> Expr {
    let uses: Vec<Expr> = (0..count)
        .map(|_| {
            Expr::invoke(InvokeExpr {
                target: Expr::var("u"),
                ty_links: vec![],
                val_links: vec![],
            })
        })
        .collect();
    let sum = uses.into_iter().fold(Expr::int(0), |acc, e| Expr::prim2(PrimOp::Add, acc, e));
    Expr::Let(vec![units_kernel::Binding { name: "u".into(), expr: unit }], Box::new(sum))
}

/// A simple unit whose invocation returns 1 (for [`repeated_invoke`]).
pub fn one_unit() -> Expr {
    untyped_unit(
        vec![],
        vec!["f"],
        vec![("f".to_string(), Expr::thunk(Expr::int(1)))],
        Expr::app(Expr::var("f"), vec![]),
    )
}

/// A loader-plugin source for the dynamic-linking bench.
pub fn plugin_source(i: usize) -> String {
    format!(
        "(unit (import (log (-> str void))) (export)
           (init (lambda ((n int)) (+ n {i}))))"
    )
}

/// The signature every plug-in must satisfy.
pub fn plugin_signature() -> Signature {
    units::parse_signature("(sig (import (log (-> str void))) (export) (init (-> int int)))")
        .expect("static signature parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use units::{Backend, Engine, Observation, Strictness};

    fn run(expr: Expr) -> Observation {
        Engine::builder()
            .strictness(Strictness::MzScheme)
            .build()
            .load_expr(expr)
            .expect("workload checks")
            .run_differential()
            .expect("workload runs")
            .value
    }

    #[test]
    fn chain_counts_its_length() {
        assert_eq!(run(chain_program(1)), Observation::Int(0));
        assert_eq!(run(chain_program(5)), Observation::Int(4));
        assert_eq!(run(chain_program(12)), Observation::Int(11));
    }

    #[test]
    fn star_sums_satellites() {
        assert_eq!(run(star_program(4)), Observation::Int(6));
    }

    #[test]
    fn cycle_walks_the_whole_ring() {
        assert_eq!(run(cycle_program(2)), Observation::Int(1));
        assert_eq!(run(cycle_program(5)), Observation::Int(4));
    }

    #[test]
    fn even_odd_alternates() {
        assert_eq!(run(even_odd_program(10)), Observation::Bool(false));
        assert_eq!(run(even_odd_program(11)), Observation::Bool(true));
    }

    #[test]
    fn deep_let_sums_first_and_last_of_every_level() {
        assert_eq!(run(deep_let_program(1, 1)), Observation::Int(0));
        assert_eq!(run(deep_let_program(3, 4)), Observation::Int(9));
        // And the by-name fallback computes the same thing.
        let engine = Engine::builder().resolution(false).build();
        let p = engine.load_expr(deep_let_program(5, 3)).unwrap();
        assert_eq!(p.run_on(Backend::Compiled).unwrap().value, Observation::Int(10));
    }

    #[test]
    fn typed_workloads_check() {
        use units::{type_of, Level};
        type_of(&wide_typed_unit(32), Level::Constructed).unwrap();
        type_of(&alias_chain_unit(16), Level::Equations).unwrap();
        let deep = deep_signature(8);
        units::subtype(&units::Equations::new(), &deep, &deep).unwrap();
        let wide = Ty::sig(wide_signature(16, 4));
        let narrow = Ty::sig(wide_signature(16, 0));
        units::subtype(&units::Equations::new(), &wide, &narrow).unwrap();
    }

    #[test]
    fn repeated_invocations_sum() {
        let expr = repeated_invoke(one_unit(), 7);
        let engine = Engine::new();
        assert_eq!(
            engine.load_expr(expr).unwrap().run_on(Backend::Compiled).unwrap().value,
            Observation::Int(7)
        );
    }

    #[test]
    fn alias_chain_is_acyclic_and_expands() {
        let eqs = alias_chain(64);
        eqs.check_acyclic().unwrap();
        let t = units::expand_ty(&Ty::var("a63"), &eqs).unwrap();
        assert!(matches!(t, Ty::Tuple(_)));
    }

    #[test]
    fn plugins_load_against_their_signature() {
        use units::{Archive, CheckOptions, Level};
        let mut a = Archive::new();
        a.publish("p0", plugin_source(0));
        a.load("p0", &plugin_signature(), CheckOptions::typed(Level::Constructed)).unwrap();
    }
}

/// Like [`chain_program`], but every constituent defines the *same*
/// internal helper name, forcing the reducer's merge to α-rename at every
/// link — the ablation for the freshening machinery of Fig. 11.
pub fn colliding_chain_program(n: usize) -> Expr {
    assert!(n >= 1);
    let mut links = Vec::with_capacity(n + 1);
    for i in 0..n {
        let name = format!("f{i}");
        let prev = if i == 0 { None } else { Some(format!("f{}", i - 1)) };
        // Every unit has an internal, non-exported `helper` whose body
        // mentions the exported definition (so renaming must substitute).
        let helper = Expr::lambda(
            vec![Param::untyped("x")],
            match &prev {
                Some(p) => Expr::app(
                    Expr::var(p.as_str()),
                    vec![Expr::prim2(PrimOp::Add, Expr::var("x"), Expr::int(1))],
                ),
                None => Expr::var("x"),
            },
        );
        let public = Expr::lambda(
            vec![Param::untyped("x")],
            Expr::app(Expr::var("helper"), vec![Expr::var("x")]),
        );
        links.push(clause(
            untyped_unit(
                prev.iter().map(String::as_str).collect(),
                vec![name.as_str()],
                vec![("helper".to_string(), helper), (name.clone(), public)],
                Expr::void(),
            ),
            prev.into_iter().collect(),
            vec![name],
        ));
    }
    let last = format!("f{}", n - 1);
    links.push(clause(
        untyped_unit(
            vec![last.as_str()],
            vec![],
            vec![],
            Expr::app(Expr::var(last.as_str()), vec![Expr::int(0)]),
        ),
        vec![last],
        vec![],
    ));
    Expr::invoke_program(Expr::compound(CompoundExpr::new(Ports::new(), Ports::new(), links)))
}

#[cfg(test)]
mod ablation_tests {
    use super::*;
    use units::{Engine, Observation, Strictness};

    #[test]
    fn colliding_chain_computes_like_the_plain_chain() {
        let engine = Engine::builder().strictness(Strictness::MzScheme).build();
        for n in [1usize, 3, 7] {
            let v = engine
                .load_expr(colliding_chain_program(n))
                .expect("checks")
                .run_differential()
                .expect("runs")
                .value;
            assert_eq!(v, Observation::Int(n as i64 - 1));
        }
    }
}
