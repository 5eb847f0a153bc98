//! Differential testing: the §4.1.6 cells backend, the Fig. 11
//! substitution reducer, and the flat-bytecode VM against each other,
//! on randomly generated programs.
//!
//! The three evaluators share nothing but the kernel AST, the primitive
//! table, and the error type (the VM additionally shares the wiring
//! layer with the cells backend), so agreement over thousands of random
//! programs — including random unit/compound/invoke topologies — is
//! strong evidence that both compilations implement the rewriting
//! semantics.
//!
//! The same agreement guards the lexical-address resolver: both compiled
//! backends read every variable through the address it computed, with no
//! name check, so an address that misses the runtime's frame layout shows
//! up as a disagreement with the reducer, which never reads addresses.

use bench::rng::SplitMix64;

use units::{Backend, Engine, Error, Limits, Outcome, Strictness};
use units_kernel::{
    Binding, CompoundExpr, Expr, InvokeExpr, LinkClause, LinkRenames, Param, Ports, PrimOp,
    Signature, Symbol, UnitExpr, ValDefn,
};

/// A generator of closed, well-scoped programs.
struct Gen {
    rng: SplitMix64,
    fresh: u32,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen { rng: SplitMix64::seed_from_u64(seed), fresh: 0 }
    }

    fn name(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}{}", self.fresh)
    }

    /// A closed expression of bounded depth, in scope `vars`.
    fn expr(&mut self, depth: u32, vars: &[String]) -> Expr {
        if depth == 0 {
            return self.leaf(vars);
        }
        match self.rng.gen_range(0, 12) {
            0 | 1 => {
                // arithmetic
                const OPS: [PrimOp; 5] =
                    [PrimOp::Add, PrimOp::Sub, PrimOp::Mul, PrimOp::Lt, PrimOp::NumEq];
                let op = OPS[self.rng.gen_range(0, OPS.len())];
                Expr::prim2(op, self.expr(depth - 1, vars), self.expr(depth - 1, vars))
            }
            2 => Expr::if_(
                Expr::prim2(
                    PrimOp::Lt,
                    self.expr(depth - 1, vars),
                    self.expr(depth - 1, vars),
                ),
                self.expr(depth - 1, vars),
                self.expr(depth - 1, vars),
            ),
            3 => {
                // let
                let n = self.rng.gen_range(1, 3);
                let bindings: Vec<Binding> = (0..n)
                    .map(|_| {
                        let name = self.name("x");
                        Binding { name: name.as_str().into(), expr: self.expr(depth - 1, vars) }
                    })
                    .collect();
                let mut inner: Vec<String> = vars.to_vec();
                inner.extend(bindings.iter().map(|b| b.name.as_str().to_string()));
                Expr::Let(bindings, Box::new(self.expr(depth - 1, &inner)))
            }
            4 => {
                // immediately applied lambda (no self application ⇒ no
                // divergence from this rule)
                let n = self.rng.gen_range(1, 3);
                let params: Vec<String> = (0..n).map(|_| self.name("p")).collect();
                let mut inner: Vec<String> = vars.to_vec();
                inner.extend(params.iter().cloned());
                let body = self.expr(depth - 1, &inner);
                let lam = Expr::lambda(
                    params.iter().map(|p| Param::untyped(p.as_str())).collect(),
                    body,
                );
                let args = (0..n).map(|_| self.expr(depth - 1, vars)).collect();
                Expr::app(lam, args)
            }
            5 => {
                let n = self.rng.gen_range(1, 4);
                Expr::Tuple((0..n).map(|_| self.expr(depth - 1, vars)).collect())
            }
            6 => {
                let n = self.rng.gen_range(1, 4);
                let idx = self.rng.gen_range(0, n);
                Expr::Proj(
                    idx,
                    Box::new(Expr::Tuple((0..n).map(|_| self.expr(depth - 1, vars)).collect())),
                )
            }
            7 => Expr::seq(vec![self.expr(depth - 1, vars), self.expr(depth - 1, vars)]),
            8 => Expr::prim2(
                PrimOp::StrAppend,
                Expr::str(self.name("s")),
                Expr::prim1(PrimOp::IntToStr, self.expr(depth - 1, vars)),
            ),
            9 | 10 => self.invoke(depth - 1, vars),
            _ => self.leaf(vars),
        }
    }

    fn leaf(&mut self, vars: &[String]) -> Expr {
        if !vars.is_empty() && self.rng.gen_bool(0.4) {
            let i = self.rng.gen_range(0, vars.len());
            Expr::var(vars[i].as_str())
        } else {
            Expr::int(self.rng.gen_range_i64(-20, 20))
        }
    }

    /// A unit with random imports (drawn from `import_pool`), a few
    /// definitions, and an init expression.
    fn unit(&mut self, depth: u32, vars: &[String], import_pool: &[String]) -> (Expr, UnitExpr) {
        let mut imports = Vec::new();
        for name in import_pool {
            if self.rng.gen_bool(0.5) {
                imports.push(name.clone());
            }
        }
        // Sometimes define a datatype; its operations join the scope.
        let datatype = if self.rng.gen_bool(0.3) {
            let t = self.name("t");
            let ops = (self.name("mk"), self.name("un"), self.name("is"));
            Some((t, ops))
        } else {
            None
        };
        let n_defs = self.rng.gen_range(1, 4);
        let def_names: Vec<String> = (0..n_defs).map(|_| self.name("d")).collect();
        // Definitions are thunks over everything in scope (valuable, and
        // they may read imports lazily).
        let mut def_scope: Vec<String> = vars.to_vec();
        def_scope.extend(imports.iter().cloned());
        def_scope.extend(def_names.iter().cloned());
        let mut types = Vec::new();
        if let Some((t, (mk, un, is))) = &datatype {
            types.push(units_kernel::TypeDefn::Data(units_kernel::DataDefn {
                name: t.as_str().into(),
                variants: vec![
                    units_kernel::DataVariant {
                        ctor: mk.as_str().into(),
                        dtor: un.as_str().into(),
                        payload: units_kernel::Ty::Int,
                    },
                ],
                predicate: is.as_str().into(),
            }));
            // Exercise construct/deconstruct/discriminate in scope.
            def_scope.push(mk.clone());
        }
        let vals: Vec<ValDefn> = def_names
            .iter()
            .map(|name| {
                let body = self.expr(depth.saturating_sub(1), &def_scope);
                ValDefn { name: name.as_str().into(), ty: None, body: Expr::thunk(body) }
            })
            .collect();
        let exports: Vec<String> = def_names
            .iter()
            .filter(|_| self.rng.gen_bool(0.7))
            .cloned()
            .collect();
        // The init expression may call any definition or import.
        let init_scope = def_scope;
        let init = match self.rng.gen_range(0, 3) {
            0 => Expr::app(Expr::var(def_names[0].as_str()), vec![]),
            1 if !init_scope.is_empty() => self.expr(1, &init_scope),
            _ => self.expr(1, vars),
        };
        // Occasionally round-trip a datatype value in the init.
        let init = match &datatype {
            Some((_, (mk, un, _))) if self.rng.gen_bool(0.5) => Expr::app(
                Expr::var(un.as_str()),
                vec![Expr::app(Expr::var(mk.as_str()), vec![init])],
            ),
            _ => init,
        };
        let unit = UnitExpr {
            imports: Ports::untyped(Vec::<&str>::new(), imports.iter().map(String::as_str)),
            exports: Ports::untyped(Vec::<&str>::new(), exports.iter().map(String::as_str)),
            types,
            vals,
            init,
        };
        (Expr::Unit(std::sync::Arc::new(unit.clone())), unit)
    }

    /// `invoke` of either one unit or a two-unit compound, with all
    /// imports satisfied by thunks over in-scope expressions.
    fn invoke(&mut self, depth: u32, vars: &[String]) -> Expr {
        let pool: Vec<String> = (0..self.rng.gen_range(0, 3))
            .map(|_| self.name("imp"))
            .collect();
        let (target, needed) = if self.rng.gen_bool(0.5) {
            let (e, u) = self.unit(depth, vars, &pool);
            (e, names(&u.imports))
        } else {
            let (e, imports, _) = self.pair(depth, vars, &pool, false);
            (e, imports)
        };
        self.supply(target, &needed, vars)
    }

    /// `invoke` of `target`, supplying each `needed` import with a thunk
    /// over an in-scope expression.
    fn supply(&mut self, target: Expr, needed: &[String], vars: &[String]) -> Expr {
        let val_links = needed
            .iter()
            .map(|name| (name.as_str().into(), Expr::thunk(self.expr(1, vars))))
            .collect();
        Expr::Invoke(std::sync::Arc::new(InvokeExpr { target, ty_links: vec![], val_links }))
    }

    /// A two-unit compound linked by name: the second unit may import
    /// what the first provides, plus names from `pool`. Returns the
    /// compound, its imports, and its exports — a random subset of what
    /// it provides when `exported`, else none.
    fn pair(
        &mut self,
        depth: u32,
        vars: &[String],
        pool: &[String],
        exported: bool,
    ) -> (Expr, Vec<String>, Vec<String>) {
        let (e1, u1) = self.unit(depth, vars, pool);
        let provides1 = names(&u1.exports);
        let mut pool2 = pool.to_vec();
        pool2.extend(provides1.iter().cloned());
        let (e2, u2) = self.unit(depth, vars, &pool2);
        let imports1 = names(&u1.imports);
        let imports2 = names(&u2.imports);
        let provides2 = names(&u2.exports);
        // The compound imports whatever is not internally provided.
        let mut compound_imports: Vec<String> = Vec::new();
        for name in imports1.iter().chain(&imports2) {
            if !provides1.contains(name)
                && !provides2.contains(name)
                && !compound_imports.contains(name)
            {
                compound_imports.push(name.clone());
            }
        }
        let exports: Vec<String> = if exported {
            provides1.iter().chain(&provides2).filter(|_| self.rng.gen_bool(0.6)).cloned().collect()
        } else {
            Vec::new()
        };
        let links = vec![
            LinkClause::by_name(e1, ports(&imports1), ports(&provides1)),
            LinkClause::by_name(e2, ports(&imports2), ports(&provides2)),
        ];
        let compound = CompoundExpr::new(ports(&compound_imports), ports(&exports), links);
        (Expr::Compound(std::sync::Arc::new(compound)), compound_imports, exports)
    }

    /// `invoke` of a compound of 3–5 clauses over a random link graph.
    /// A constituent is a unit, a nested compound with exports, a
    /// `seal`ed unit, or a `let`-bound first-class unit. Clauses link
    /// across each other (cycles included) or to compound imports, often
    /// through rename pairs; they list their `with` and `provides` ports
    /// in a shuffled order; and the compound exports some of what it
    /// provides.
    fn linked(&mut self, depth: u32, vars: &[String]) -> Expr {
        self.linked_from(depth, vars, false)
    }

    /// [`Gen::linked`] with every constituent a unit literal or a nested
    /// compound of literals, so resolution can flatten the compound.
    /// Three programs in ten wrap it in an applied `lambda` whose
    /// parameter the constituents may read, and such a constituent is
    /// not closed, so the compound is kept.
    fn literal_linked(&mut self, depth: u32) -> Expr {
        if self.rng.gen_bool(0.3) {
            let param = self.name("p");
            let body = self.linked_from(depth, std::slice::from_ref(&param), true);
            let arg = Expr::int(self.rng.gen_range_i64(-20, 20));
            Expr::app(Expr::lambda(vec![Param::untyped(param.as_str())], body), vec![arg])
        } else {
            self.linked_from(depth, &[], true)
        }
    }

    fn linked_from(&mut self, depth: u32, vars: &[String], literal_only: bool) -> Expr {
        let n = self.rng.gen_range(3, 6);
        let mut bound: Vec<Binding> = Vec::new();
        // Per clause: the constituent and its own imports and exports.
        let mut parts: Vec<(Expr, Vec<String>, Vec<String>)> = Vec::new();
        for _ in 0..n {
            let pool: Vec<String> =
                (0..self.rng.gen_range(0, 3)).map(|_| self.name("in")).collect();
            let kind = if literal_only {
                // A nested compound of literals or a unit literal.
                [0, 3][self.rng.gen_range(0, 2)]
            } else {
                self.rng.gen_range(0, 4)
            };
            let part = match kind {
                0 => self.pair(depth, vars, &pool, true),
                1 => {
                    let (e, u) = self.unit(depth, vars, &pool);
                    let mut visible = names(&u.exports);
                    visible.retain(|_| self.rng.gen_bool(0.7));
                    self.shuffle(&mut visible);
                    let mut sig = Signature::empty();
                    sig.imports = u.imports.clone();
                    sig.exports = ports(&visible);
                    (Expr::seal(e, sig), names(&u.imports), visible)
                }
                2 => {
                    let (e, u) = self.unit(depth, vars, &pool);
                    let name = self.name("u");
                    bound.push(Binding { name: name.as_str().into(), expr: e });
                    (Expr::var(name.as_str()), names(&u.imports), names(&u.exports))
                }
                _ => {
                    let (e, u) = self.unit(depth, vars, &pool);
                    (e, names(&u.imports), names(&u.exports))
                }
            };
            parts.push(part);
        }
        // What each clause provides, as (inner, outer) names.
        let mut provided: Vec<Vec<(String, String)>> = Vec::with_capacity(n);
        for (_, _, exports) in &parts {
            let mut ps = Vec::new();
            for inner in exports {
                if self.rng.gen_bool(0.8) {
                    let outer = if self.rng.gen_bool(0.4) { self.name("o") } else { inner.clone() };
                    ps.push((inner.clone(), outer));
                }
            }
            provided.push(ps);
        }
        let mut compound_imports: Vec<String> = Vec::new();
        let mut links = Vec::with_capacity(n);
        for (i, (expr, imports, _)) in parts.into_iter().enumerate() {
            let elsewhere: Vec<&String> = provided
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .flat_map(|(_, ps)| ps.iter().map(|(_, outer)| outer))
                .collect();
            // Each import is fed by another clause or by a compound import;
            // now and then the clause grants one extra, unused port.
            let mut with: Vec<(String, String)> = Vec::new();
            for inner in imports {
                let outer = if !elsewhere.is_empty() && self.rng.gen_bool(0.6) {
                    elsewhere[self.rng.gen_range(0, elsewhere.len())].clone()
                } else {
                    let outer =
                        if self.rng.gen_bool(0.5) { inner.clone() } else { self.name("imp") };
                    if !compound_imports.contains(&outer) {
                        compound_imports.push(outer.clone());
                    }
                    outer
                };
                with.push((inner, outer));
            }
            if !elsewhere.is_empty() && self.rng.gen_bool(0.2) {
                let outer = elsewhere[self.rng.gen_range(0, elsewhere.len())].clone();
                with.push((self.name("spare"), outer));
            }
            let mut provides = provided[i].clone();
            self.shuffle(&mut with);
            self.shuffle(&mut provides);
            let renamed = |pairs: &[(String, String)]| -> Vec<(Symbol, Symbol)> {
                pairs
                    .iter()
                    .filter(|(inner, outer)| inner != outer)
                    .map(|(inner, outer)| (inner.as_str().into(), outer.as_str().into()))
                    .collect()
            };
            let inner = |pairs: &[(String, String)]| -> Vec<String> {
                pairs.iter().map(|(inner, _)| inner.clone()).collect()
            };
            links.push(LinkClause {
                expr,
                with: ports(&inner(&with)),
                provides: ports(&inner(&provides)),
                renames: LinkRenames {
                    import_vals: renamed(&with),
                    export_vals: renamed(&provides),
                    ..LinkRenames::default()
                },
            });
        }
        let mut exports: Vec<String> =
            provided.iter().flatten().map(|(_, outer)| outer.clone()).collect();
        exports.retain(|_| self.rng.gen_bool(0.3));
        let compound = Expr::Compound(std::sync::Arc::new(CompoundExpr::new(
            ports(&compound_imports),
            ports(&exports),
            links,
        )));
        let target = if bound.is_empty() { compound } else { Expr::Let(bound, Box::new(compound)) };
        self.supply(target, &compound_imports, vars)
    }

    /// A uniform random permutation (Fisher–Yates).
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.rng.gen_range(0, i + 1);
            items.swap(i, j);
        }
    }
}

/// The value-port names of `ports`, in order.
fn names(ports: &Ports) -> Vec<String> {
    ports.vals.iter().map(|p| p.name.as_str().to_string()).collect()
}

/// Untyped value ports with the given names.
fn ports(names: &[String]) -> Ports {
    Ports::untyped(Vec::<&str>::new(), names.iter().map(String::as_str))
}

/// One differential session: MzScheme strictness and a fuel budget.
fn engine(fuel: u64) -> Engine {
    Engine::builder()
        .strictness(Strictness::MzScheme)
        .limits(Limits::none().fuel(fuel))
        .build()
}

fn agree(seed: u64) -> Result<(), String> {
    let mut gen = Gen::new(seed);
    check_three_way(seed, gen.expr(4, &[]))
}

/// Runs `expr` on all three backends and demands agreement. Fuel
/// exhaustion on any backend excuses the comparison (step budgets
/// differ between the semantics); otherwise every pair must agree on
/// success and on the outcome, while joint rejection tolerates
/// differing error classes (those are pinned by a separate test).
fn check_three_way(seed: u64, expr: Expr) -> Result<(), String> {
    let engine = engine(200_000);
    let source = units::pretty_expr_indent(&expr, 78);
    let loaded = engine
        .load_expr(expr)
        .map_err(|e| format!("seed {seed}: load failed: {e}\n program: {source}"))?;
    let runs: Vec<(Backend, Result<Outcome, Error>)> =
        [Backend::Compiled, Backend::Reducer, Backend::Bytecode]
            .into_iter()
            .map(|b| (b, loaded.run_on(b)))
            .collect();
    let fuel =
        |r: &Result<Outcome, Error>| matches!(r, Err(Error::ResourceExhausted { .. }));
    if runs.iter().any(|(_, r)| fuel(r)) {
        return Ok(()); // step budgets differ between the semantics
    }
    let (first_backend, first) = &runs[0];
    for (backend, other) in &runs[1..] {
        match (first, other) {
            (Ok(x), Ok(y)) if x == y => {}
            (Ok(x), Ok(y)) => {
                return Err(format!(
                    "seed {seed}: values differ\n {first_backend:?}: {x:?}\n {backend:?}: {y:?}\n program: {source}"
                ));
            }
            (Err(_), Err(_)) => {} // joint rejection; classes may differ
            (Ok(x), Err(e)) => {
                return Err(format!(
                    "seed {seed}: {first_backend:?}={x:?} but {backend:?} errored: {e}\n program: {source}"
                ));
            }
            (Err(e), Ok(y)) => {
                return Err(format!(
                    "seed {seed}: {backend:?}={y:?} but {first_backend:?} errored: {e}\n program: {source}"
                ));
            }
        }
    }
    Ok(())
}

/// Whether `expr` still holds a `compound` node.
fn has_compound(expr: &Expr) -> bool {
    match expr {
        Expr::Compound(_) => true,
        Expr::Var(_) | Expr::VarAt(..) | Expr::Lit(_) | Expr::Prim(..) | Expr::Loc(_)
        | Expr::CellRef(_) | Expr::Data(_) => false,
        Expr::Lambda(lam) => has_compound(&lam.body),
        Expr::App(f, args) => has_compound(f) || args.iter().any(has_compound),
        Expr::If(c, t, e) => has_compound(c) || has_compound(t) || has_compound(e),
        Expr::Seq(es) | Expr::Tuple(es) => es.iter().any(has_compound),
        Expr::Let(bindings, body) => {
            bindings.iter().any(|b| has_compound(&b.expr)) || has_compound(body)
        }
        Expr::Letrec(lr) => lr.vals.iter().any(|d| has_compound(&d.body)) || has_compound(&lr.body),
        Expr::Set(t, v) => has_compound(t) || has_compound(v),
        Expr::Proj(_, e) | Expr::Seal(e, _) => has_compound(e),
        Expr::Unit(u) => u.vals.iter().any(|d| has_compound(&d.body)) || has_compound(&u.init),
        Expr::Invoke(inv) => {
            has_compound(&inv.target) || inv.val_links.iter().any(|(_, e)| has_compound(e))
        }
        Expr::Variant(v) => has_compound(&v.payload),
    }
}

/// The oracle for compile-time flattening, after Bowman's IL tower: the
/// flattened term is still a kernel term, so the Fig. 11 reducer can run
/// it. Four runs must agree: the reducer on `expr`, the reducer on
/// `resolve_program(expr)` (it reads a `VarAt` as its `Var`), and the
/// tree-walker and the VM, which run the resolved term. Fuel exhaustion
/// on any run excuses the comparison, and joint rejection tolerates
/// differing error classes, as in [`check_three_way`]. Returns whether
/// resolution flattened every compound.
fn check_flattening(seed: u64, expr: Expr) -> Result<bool, String> {
    const FUEL: u64 = 200_000;
    let source = units::pretty_expr_indent(&expr, 78);
    let flat = units_compile::resolve_program(&expr);
    let flattened = !has_compound(&flat);
    let engine = engine(FUEL);
    let loaded = engine
        .load_expr(expr)
        .map_err(|e| format!("seed {seed}: load failed: {e}\n program: {source}"))?;
    let mut reducer = units::Reducer::with_limits(Limits::none().fuel(FUEL));
    let reduced_flat = reducer.reduce_to_value(&flat).map_err(Error::from).map(|v| Outcome {
        value: units::observe_expr(&v),
        output: reducer.machine.take_output(),
    });
    let runs: Vec<(&str, Result<Outcome, Error>)> = vec![
        ("reducer", loaded.run_on(Backend::Reducer)),
        ("reducer on the flattened term", reduced_flat),
        ("tree-walker", loaded.run_on(Backend::Compiled)),
        ("VM", loaded.run_on(Backend::Bytecode)),
    ];
    if runs.iter().any(|(_, r)| matches!(r, Err(Error::ResourceExhausted { .. }))) {
        return Ok(flattened);
    }
    let (first_name, first) = &runs[0];
    for (name, other) in &runs[1..] {
        match (first, other) {
            (Ok(x), Ok(y)) if x == y => {}
            (Err(_), Err(_)) => {}
            (x, y) => {
                return Err(format!(
                    "seed {seed}: {first_name} gave {x:?} but {name} gave {y:?}\n program: {source}"
                ));
            }
        }
    }
    Ok(flattened)
}

#[test]
fn flattening_agrees_with_the_reducer_on_random_literal_topologies() {
    const PROGRAMS: u64 = 600;
    let mut failures = Vec::new();
    let mut flattened = 0;
    for seed in 0..PROGRAMS {
        let mut gen = Gen::new(0xF1A7 ^ seed);
        // Depth 2 puts more invokes of nested units and compounds into
        // the constituents' bodies, where they read their enclosing
        // unit's names, so they are not closed and stay compounds.
        let depth = 1 + (seed % 2) as u32;
        match check_flattening(seed, gen.literal_linked(depth)) {
            Ok(flat) => flattened += u64::from(flat),
            Err(msg) => failures.push(msg),
        }
    }
    assert!(failures.is_empty(), "{} disagreements:\n{}", failures.len(), failures.join("\n\n"));
    println!("flattened {flattened} of {PROGRAMS} literal link topologies");
    // Besides those, about 3 programs in 10 wrap the compound in a
    // lambda whose parameter a constituent may read.
    assert!(flattened * 3 >= PROGRAMS, "only {flattened} of {PROGRAMS} programs flattened");
    assert!(flattened < PROGRAMS, "no program exercised a kept compound");
}

/// Rename pairs that link a constituent to a name a unit nested in it
/// binds. P1 and P2 link through the hidden name `times`, which the merge
/// freshens; in P3 `times` is the compound's own import, so the compound
/// cannot become one unit.
const P1: &str = "(invoke (compound (import) (export)
  (link ((unit (import) (export a) (define a (lambda () 1))) (with) (provides (as a times)))
        ((unit (import f) (export)
           (init (invoke (unit (import) (export) (define times (lambda () 5)) (init (+ (f) (times)))))))
         (with (as f times)) (provides)))))";
const P2: &str = "(invoke (compound (import) (export)
  (link ((unit (import) (export a) (define a (lambda () 1))) (with) (provides (as a times)))
        ((unit (import f) (export)
           (init (invoke (unit (import times) (export) (init (+ (f) times))) (val times 5))))
         (with (as f times)) (provides)))))";
const P3: &str = "(invoke (compound (import times) (export)
  (link ((unit (import f) (export)
           (init (invoke (unit (import times) (export) (init (+ (f) times))) (val times 5))))
         (with (as f times)) (provides))))
  (val times (lambda () 1)))";

#[test]
fn rename_pairs_into_nested_binders_link_or_refuse() {
    let engine = Engine::builder().strictness(Strictness::MzScheme).build();
    for (name, src) in [("P1", P1), ("P2", P2)] {
        let loaded = engine.load(src).unwrap();
        assert!(!has_compound(loaded.resolved()), "{name} is flattened");
        for backend in [Backend::Compiled, Backend::Reducer, Backend::Bytecode] {
            let outcome = loaded.run_on(backend).unwrap();
            assert_eq!(outcome.value.to_string(), "6", "{name} on {backend:?}");
        }
    }
    let loaded = engine.load(P3).unwrap();
    assert!(has_compound(loaded.resolved()), "P3 keeps its compound");
    for backend in [Backend::Compiled, Backend::Bytecode] {
        assert_eq!(loaded.run_on(backend).unwrap().value.to_string(), "6", "P3 on {backend:?}");
    }
    let err = loaded.run_on(Backend::Reducer).unwrap_err();
    let capture = matches!(
        err.as_runtime(),
        Some(units::RuntimeError::LinkCapture { name }) if name.as_str() == "times"
    );
    assert!(capture, "{err:?}");
    assert_eq!(
        err.to_string(),
        "runtime error: compound cannot be merged into one unit: a unit nested in a \
         constituent binds the link name `times`"
    );
}

#[test]
fn backends_agree_on_random_core_programs() {
    let mut failures = Vec::new();
    for seed in 0..600 {
        if let Err(msg) = agree(seed) {
            failures.push(msg);
        }
    }
    assert!(failures.is_empty(), "{} disagreements:\n{}", failures.len(), failures.join("\n\n"));
}

#[test]
fn backends_agree_on_random_unit_programs() {
    // Seeds biased toward invoke/compound generation by starting at the
    // invoke generator directly.
    let mut failures = Vec::new();
    for seed in 0..600 {
        let mut gen = Gen::new(0xC0FFEE ^ seed);
        if let Err(msg) = check_three_way(seed, gen.invoke(3, &[])) {
            failures.push(msg);
        }
    }
    for seed in 0..400 {
        let mut gen = Gen::new(0xBEEF ^ seed);
        if let Err(msg) = check_three_way(0xBEEF ^ seed, gen.invoke(3, &[])) {
            failures.push(msg);
        }
    }
    assert!(failures.is_empty(), "{} disagreements:\n{}", failures.len(), failures.join("\n\n"));
}

#[test]
fn backends_agree_on_random_link_topologies() {
    // Compounds of 3–5 clauses: rename pairs, shuffled ports, nested,
    // sealed and first-class constituents — the link plan's slow paths.
    let mut failures = Vec::new();
    for seed in 0..400 {
        let mut gen = Gen::new(0x5107 ^ seed);
        if let Err(msg) = check_three_way(seed, gen.linked(2, &[])) {
            failures.push(msg);
        }
    }
    for seed in 0..200 {
        let mut gen = Gen::new(0x7091 ^ seed);
        if let Err(msg) = check_three_way(0x7091 ^ seed, gen.linked(2, &[])) {
            failures.push(msg);
        }
    }
    assert!(failures.is_empty(), "{} disagreements:\n{}", failures.len(), failures.join("\n\n"));
}

#[test]
fn backends_agree_on_error_classes_for_key_failures() {
    // For the dynamic errors the paper specifies, all three backends
    // must agree on the *class*, not just fail.
    let cases = [
        ("(invoke (unit (import x) (export) (init x)))", "UnsatisfiedImport"),
        ("(proj 3 (tuple 1 2))", "BadProjection"),
        ("(1 2)", "NotAFunction"),
        ("(/ 1 0)", "DivisionByZero"),
        ("((inst fail void) \"boom\")", "User"),
        (
            "(letrec ((datatype t (mk unmk int) (no unno void) t?)) (unno (mk 1)))",
            "WrongVariant",
        ),
        (
            "(compound (import) (export)
               (link ((unit (import g) (export) (init void)) (with) (provides))))",
            "ExcessImport",
        ),
    ];
    let engine = Engine::builder().strictness(Strictness::MzScheme).build();
    for (src, expected) in cases {
        let loaded = engine.load(src).unwrap();
        for backend in [Backend::Compiled, Backend::Reducer, Backend::Bytecode] {
            let err = loaded.run_on(backend).unwrap_err();
            let rendered = format!("{:?}", err);
            assert!(
                rendered.contains(expected),
                "{backend:?} on {src}: expected {expected}, got {rendered}"
            );
        }
    }
}

#[test]
fn resource_exhaustion_reports_identical_text_on_all_three_backends() {
    // Same program, same fuel: the budget error must render char-for-char
    // identically whichever evaluator hit it — the VM batches fuel via
    // `Machine::charge`, but the reported limit must stay the configured
    // one, naming the same resource.
    let diverging = "(letrec ((define loop (lambda () (loop)))) (loop))";
    let engine = Engine::builder().limits(Limits::none().fuel(5_000)).build();
    let loaded = engine.load(diverging).unwrap();
    let texts: Vec<String> = [Backend::Compiled, Backend::Reducer, Backend::Bytecode]
        .into_iter()
        .map(|backend| {
            let err = loaded.run_on(backend).unwrap_err();
            assert!(
                matches!(err, Error::ResourceExhausted { .. }),
                "{backend:?}: expected fuel exhaustion, got {err:?}"
            );
            err.to_string()
        })
        .collect();
    assert_eq!(texts[0], texts[1], "compiled vs reducer");
    assert_eq!(texts[0], texts[2], "compiled vs bytecode");
    assert!(texts[0].contains("fuel budget of 5000"), "{}", texts[0]);

    // Depth exhaustion carries the same guarantee: the VM checks
    // `max_depth` at the same call-site boundaries the tree-walkers do.
    let deep = "(letrec ((define down (lambda (n) (if (< 0 n) (+ 1 (down (- n 1))) 0)))) (down 500))";
    let engine = Engine::builder().limits(Limits::none().max_depth(40)).build();
    let loaded = engine.load(deep).unwrap();
    let texts: Vec<String> = [Backend::Compiled, Backend::Reducer, Backend::Bytecode]
        .into_iter()
        .map(|backend| loaded.run_on(backend).unwrap_err().to_string())
        .collect();
    assert_eq!(texts[0], texts[1], "compiled vs reducer");
    assert_eq!(texts[0], texts[2], "compiled vs bytecode");
    assert!(texts[0].contains("depth budget of 40"), "{}", texts[0]);
}
