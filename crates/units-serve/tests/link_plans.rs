//! What link plans must not change, and what they share.
//!
//! A compound's wiring is planned once per `compound` node. The plan
//! moves cells around more cheaply; it must not change what a run
//! costs in the engine's accounting — store cells and fuel — on either
//! compiled backend. Every invoke of a published plug-in version runs
//! the version's one artifact, so every invoke, on either backend,
//! wires from the artifact's one plan.

use std::fmt::Write as _;
use std::sync::Arc;

use units::{Backend, CompoundExpr, Expr, Level, Limits};
use units_serve::Service;

/// A chain of `len` units: unit 0 exports `f0 = λx.x`, unit `i` exports
/// `fi = λx. f(i−1)(x + 3)` plus `pads` integer pads that unit `i + 1`
/// imports, and a last unit applies `f(len−1)` to the compound's import
/// `x0`. Calling the plug-in with `n` gives `n + 3·(len − 1)`.
fn chain(len: usize, pads: usize) -> String {
    let mut links = String::new();
    let mut prev = String::new();
    for i in 0..len {
        let mut ports = format!(" f{i}");
        let mut defs = String::new();
        for k in 0..pads {
            let _ = write!(ports, " p{i}_{k}");
            let _ = write!(defs, " (define p{i}_{k} {})", i * pads + k);
        }
        let body = if i == 0 { "x".to_string() } else { format!("(f{} (+ x 3))", i - 1) };
        let _ = write!(
            links,
            "\n ((unit (import{prev}) (export{ports}) (define f{i} (lambda (x) {body})){defs})
   (with{prev}) (provides{ports}))"
        );
        prev = ports;
    }
    let last = len - 1;
    format!(
        "(unit (import) (export)
  (init (lambda (n)
    (invoke
      (compound (import x0) (export)
        (link{links}
         ((unit (import f{last} x0) (export) (init (f{last} x0)))
          (with f{last} x0) (provides))))
      (val x0 n)))))"
    )
}

/// Fig. 12's even/odd, linked and invoked inside the plug-in at depth
/// `n`: calling it with `n` gives whether `n` is odd.
const EVEN_ODD: &str = "(unit (import) (export)
  (init (lambda (n)
    (invoke
      (compound (import depth) (export)
        (link ((unit (import odd) (export even)
                 (define even (lambda (k) (if (= k 0) true (odd (- k 1))))))
               (with odd) (provides even))
              ((unit (import even depth) (export odd)
                 (define odd (lambda (k) (if (= k 0) false (even (- k 1)))))
                 (init (odd depth)))
               (with even depth) (provides odd))))
      (val depth n)))))";

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
        case("chain", chain(32, 6), 5, "98", [(449, 490), (449, 719)]),
        case("even_odd", EVEN_ODD.to_string(), 64, "false", [(5, 729), (5, 479)]),
        case("book", phone_book(128), 17, "5550119", [(4, 1327), (4, 1456)]),
        case(
            "linked",
            format!("(unit (import) (export) (init (lambda (n) {})))", linked("n")),
            6,
            "136",
            [(8, 35), (8, 48)],
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
