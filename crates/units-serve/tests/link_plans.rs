//! What link plans must not change, and what they share.
//!
//! A compound's wiring is planned once per `compound` node. The plan
//! moves cells around more cheaply; it must not change what a run
//! costs in the engine's accounting — store cells and fuel — on either
//! compiled backend. Every invoke of a published plug-in version runs
//! the version's one artifact, so every invoke, on either backend,
//! wires from the artifact's one plan.
//!
//! A compound of closed unit literals has no plan: resolution merges it
//! into one unit. Each such plug-in here has a `let`-bound twin whose
//! compound keeps its plan.

use std::fmt::Write as _;
use std::sync::Arc;

use units::{Backend, CompoundExpr, Expr, Level, Limits};
use units_serve::Service;

/// A compound with imports `imports` and no exports, over `clauses`:
/// each a constituent unit and its `with` and `provides` ports. Written
/// inline the constituents are closed unit literals, so resolution
/// flattens the compound into one unit. `let`-bound, each clause names a
/// variable instead, so the compound stays and wires from its link plan.
fn compound(imports: &str, clauses: &[(String, String)], let_bound: bool) -> String {
    let mut bindings = String::new();
    let mut links = String::new();
    for (i, (unit, ports)) in clauses.iter().enumerate() {
        let constituent = if let_bound {
            let _ = write!(bindings, "\n (c{i} {unit})");
            format!("c{i}")
        } else {
            unit.clone()
        };
        let _ = write!(links, "\n ({constituent}\n  {ports})");
    }
    let compound = format!("(compound (import {imports}) (export)\n (link{links}))");
    if let_bound {
        format!("(let ({bindings})\n {compound})")
    } else {
        compound
    }
}

/// A chain of `len` units: unit 0 exports `f0 = λx.x`, unit `i` exports
/// `fi = λx. f(i−1)(x + 3)` plus `pads` integer pads that unit `i + 1`
/// imports, and a last unit applies `f(len−1)` to the compound's import
/// `x0`. Calling the plug-in with `n` gives `n + 3·(len − 1)`.
fn chain(len: usize, pads: usize, let_bound: bool) -> String {
    let mut clauses = Vec::new();
    let mut prev = String::new();
    for i in 0..len {
        let mut ports = format!(" f{i}");
        let mut defs = String::new();
        for k in 0..pads {
            let _ = write!(ports, " p{i}_{k}");
            let _ = write!(defs, " (define p{i}_{k} {})", i * pads + k);
        }
        let body = if i == 0 { "x".to_string() } else { format!("(f{} (+ x 3))", i - 1) };
        clauses.push((
            format!(
                "(unit (import{prev}) (export{ports}) (define f{i} (lambda (x) {body})){defs})"
            ),
            format!("(with{prev}) (provides{ports})"),
        ));
        prev = ports;
    }
    let last = len - 1;
    clauses.push((
        format!("(unit (import f{last} x0) (export) (init (f{last} x0)))"),
        format!("(with f{last} x0) (provides)"),
    ));
    format!(
        "(unit (import) (export)
  (init (lambda (n) (invoke {} (val x0 n)))))",
        compound("x0", &clauses, let_bound)
    )
}

/// Fig. 12's even/odd, linked and invoked inside the plug-in at depth
/// `n`: calling it with `n` gives whether `n` is odd.
fn even_odd(let_bound: bool) -> String {
    let clauses = [
        (
            "(unit (import odd) (export even)
   (define even (lambda (k) (if (= k 0) true (odd (- k 1))))))"
                .to_string(),
            "(with odd) (provides even)".to_string(),
        ),
        (
            "(unit (import even depth) (export odd)
   (define odd (lambda (k) (if (= k 0) false (even (- k 1)))))
   (init (odd depth)))"
                .to_string(),
            "(with even depth) (provides odd)".to_string(),
        ),
    ];
    format!(
        "(unit (import) (export)
  (init (lambda (n) (invoke {} (val depth n)))))",
        compound("depth", &clauses, let_bound)
    )
}

/// A phone book of `entries` entries `k{i} ↦ 5550000 + 7i`: calling it
/// with `n` gives the number stored under `k{n}`.
fn phone_book(entries: usize) -> String {
    let mut inserts = String::new();
    for k in 0..entries {
        let _ = write!(inserts, "\n        (insert t \"k{k}\" {})", 5_550_000 + 7 * k);
    }
    format!(
        "(unit (import) (export)
  (define insert (lambda (t k v) (hash-set! t k v)))
  (define lookup (lambda (t k) (hash-get t k)))
  (define has (lambda (t k) (hash-has? t k)))
  (define key (lambda (n) (string-append \"k\" (int->string n))))
  (init (lambda (n)
    (let ((t (hash-new))){inserts}
      (if (has t (key n)) (lookup t (key n)) 0)))))"
    )
}

/// Four clauses: a sealed constituent that hides `secret` and provides
/// `scale` under the outer name `times`; a constituent that imports it
/// back under the inner name `f`; and `bonus` and `result`, which the
/// compound provides but does not export, so their cells are hidden.
/// The compound is `linked(init)`, invoked with `base`.
fn linked(init: &str) -> String {
    format!(
        "(invoke
      (compound (import base) (export)
        (link ((seal (unit (import base) (export scale secret)
                       (define scale (lambda (x) (* x base)))
                       (define secret 7))
                     (sig (import base) (export scale) (init void)))
               (with base) (provides (as scale times)))
              ((unit (import) (export bonus) (define bonus 100))
               (with) (provides bonus))
              ((unit (import f bonus) (export result)
                 (define result (lambda (x) (+ (f x) bonus))))
               (with (as f times) bonus) (provides result))
              ((unit (import result base) (export) (init (result base)))
               (with result base) (provides))))
      (val base {init}))"
    )
}

/// One plug-in and what one call of it must reply and cost.
struct Case {
    name: &'static str,
    source: String,
    arg: i64,
    reply: &'static str,
    /// `(store_cells_peak, fuel_total)` for the call on the compiled
    /// tree-walker, then on the bytecode VM.
    pins: [(u64, u64); 2],
}

fn cases() -> Vec<Case> {
    let case = |name, source, arg, reply, pins| Case { name, source, arg, reply, pins };
    vec![
        // Flattened at resolution: one frame per invoke, and a cell per
        // definition and import.
        case("chain", chain(32, 6, false), 5, "98", [(225, 455), (225, 650)]),
        case("even_odd", even_odd(false), 64, "false", [(3, 725), (3, 472)]),
        // The same compounds over `let`-bound constituents wire from link
        // plans, which also give each provided but hidden name a cell.
        case("chain_let", chain(32, 6, true), 5, "98", [(449, 521), (449, 751)]),
        case("even_odd_let", even_odd(true), 64, "false", [(5, 729), (5, 480)]),
        case("book", phone_book(128), 17, "5550119", [(4, 1324), (4, 1453)]),
        case(
            "linked",
            format!("(unit (import) (export) (init (lambda (n) {})))", linked("n")),
            6,
            "136",
            [(8, 32), (8, 45)],
        ),
    ]
}

#[test]
fn link_plans_leave_fuel_and_cells_unchanged() {
    for (b, backend) in [Backend::Compiled, Backend::Bytecode].into_iter().enumerate() {
        let service = Service::builder().level(Level::Untyped).backend(backend).build();
        let tenant = service.tenant("t");
        for Case { name, source, arg, reply, pins } in cases() {
            tenant.load_plugin(name, &source, None).unwrap();
            service.engine().metrics_reset();
            let outcome = tenant.invoke_with(name, Some(arg), Limits::none()).unwrap();
            assert_eq!(outcome.value.to_string(), reply, "{name} on {backend:?}");
            let runs = service.engine().metrics_snapshot().runs;
            assert_eq!(
                (runs.store_cells_peak, runs.fuel_total),
                pins[b],
                "{name} on {backend:?}: (store_cells_peak, fuel_total)"
            );
        }
    }
}

/// Every invoke's store is reclaimed: after a thousand invokes of each
/// plug-in no cell is still referenced, and each invoke still allocates
/// the pinned cells and burns the pinned fuel.
#[test]
fn a_thousand_invokes_retain_no_cells() {
    const INVOKES: u64 = 1_000;
    for (b, backend) in [Backend::Compiled, Backend::Bytecode].into_iter().enumerate() {
        let service = Service::builder().level(Level::Untyped).backend(backend).build();
        let tenant = service.tenant("t");
        for Case { name, source, arg, reply, pins } in cases() {
            tenant.load_plugin(name, &source, None).unwrap();
            service.engine().metrics_reset();
            for _ in 0..INVOKES {
                let outcome = tenant.invoke_with(name, Some(arg), Limits::none()).unwrap();
                assert_eq!(outcome.value.to_string(), reply, "{name} on {backend:?}");
            }
            let runs = service.engine().metrics_snapshot().runs;
            assert_eq!(runs.cells_retained, 0, "{name} on {backend:?}");
            let (cells, fuel) = pins[b];
            assert_eq!(
                (runs.store_cells_peak, runs.fuel_total),
                (cells, INVOKES * fuel),
                "{name} on {backend:?}: (store_cells_peak, fuel_total)"
            );
        }
    }
}

/// The first `compound` node reached through `invoke` targets and unit
/// initializations.
fn first_compound(expr: &Expr) -> &CompoundExpr {
    match expr {
        Expr::Compound(c) => c,
        Expr::Invoke(inv) => first_compound(&inv.target),
        Expr::Unit(u) => first_compound(&u.init),
        other => panic!("no compound under {other:?}"),
    }
}

#[test]
fn invokes_of_a_plugin_version_share_one_link_plan() {
    let service = Service::builder().level(Level::Untyped).build();
    let tenant = service.tenant("t");
    let source = format!("(unit (import) (export) (init {}))", linked("6"));
    tenant.load_plugin("linked", &source, None).unwrap();
    let version = tenant.plugin("linked").unwrap();
    let compound = first_compound(version.loaded().resolved());
    assert!(compound.plan_if_built().is_none(), "publishing builds no plan");

    // The bytecode VM wires from the plan on the artifact's node...
    let vm = version.loaded().run_on(Backend::Bytecode).unwrap();
    assert_eq!(vm.value.to_string(), "136");
    let plan = Arc::clone(compound.plan_if_built().expect("the first run builds the plan"));

    // ...and so does every invoke of the version on the tree-walker.
    for _ in 0..2 {
        let outcome = tenant.invoke("linked", None).unwrap();
        assert_eq!(outcome.value.to_string(), "136");
        assert!(Arc::ptr_eq(&plan, compound.plan_if_built().unwrap()));
    }
}
