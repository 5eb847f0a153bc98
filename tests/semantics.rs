//! Cross-crate semantic tests: behaviours the paper specifies informally,
//! exercised on both evaluators.

use units::{Backend, Engine, Observation, RuntimeError, Strictness};

fn mz() -> Engine {
    Engine::builder().strictness(Strictness::MzScheme).build()
}

fn both(source: &str) -> units::Outcome {
    mz().load(source)
        .unwrap_or_else(|e| panic!("load: {e}"))
        .run_differential()
        .unwrap_or_else(|e| panic!("run: {e}"))
}

fn both_err(source: &str) -> (RuntimeError, RuntimeError) {
    let engine = mz();
    let p = engine.load(source).unwrap();
    let a = p.run_on(Backend::Compiled).unwrap_err();
    let b = p.run_on(Backend::Reducer).unwrap_err();
    (a.as_runtime().unwrap().clone(), b.as_runtime().unwrap().clone())
}

// ---------------------------------------------------------------------
// State and linking
// ---------------------------------------------------------------------

#[test]
fn exported_state_is_shared_with_importers() {
    // An exported definition is a *cell*: assignments inside the
    // defining unit are observed by every linked consumer.
    let src = "(invoke (compound (import) (export)
        (link ((unit (import) (export counter inc)
                 (define counter 0)
                 (define inc (lambda () (set! counter (+ counter 1)))))
               (with) (provides counter inc))
              ((unit (import counter inc) (export)
                 (init (inc) (inc) (inc) counter))
               (with counter inc) (provides)))))";
    assert_eq!(both(src).value, Observation::Int(3));
}

#[test]
fn hash_tables_alias_across_unit_boundaries() {
    let src = "(invoke (compound (import) (export)
        (link ((unit (import) (export table)
                 (define table void)
                 (init (set! table (hash-new))))
               (with) (provides table))
              ((unit (import table) (export)
                 (init (hash-set! table \"k\" 7) (hash-get table \"k\")))
               (with table) (provides)))))";
    assert_eq!(both(src).value, Observation::Int(7));
}

#[test]
fn three_units_initialize_in_link_order() {
    let src = "(invoke (compound (import) (export)
        (link ((unit (import) (export) (init (display \"a\"))) (with) (provides))
              ((unit (import) (export) (init (display \"b\"))) (with) (provides))
              ((unit (import) (export) (init (display \"c\"))) (with) (provides)))))";
    assert_eq!(both(src).output, vec!["a", "b", "c"]);
}

#[test]
fn nested_compounds_three_levels_deep() {
    let src = "(invoke (compound (import) (export)
        (link ((compound (import) (export v2)
                 (link ((compound (import) (export v1)
                          (link ((unit (import) (export v0)
                                   (define v0 (lambda () 1)))
                                 (with) (provides v0))
                                ((unit (import v0) (export v1)
                                   (define v1 (lambda () (+ (v0) 1))))
                                 (with v0) (provides v1))))
                        (with) (provides v1))
                       ((unit (import v1) (export v2)
                          (define v2 (lambda () (+ (v1) 1))))
                        (with v1) (provides v2))))
               (with) (provides v2))
              ((unit (import v2) (export) (init (v2)))
               (with v2) (provides)))))";
    assert_eq!(both(src).value, Observation::Int(3));
}

#[test]
fn compound_import_fans_out_to_several_constituents() {
    let src = "(define app (compound (import base) (export)
        (link ((unit (import base) (export a) (define a (lambda () (+ base 1))))
               (with base) (provides a))
              ((unit (import base a) (export)
                 (init (+ (a) base)))
               (with base a) (provides)))))
       (invoke app (val base 10))";
    assert_eq!(both(src).value, Observation::Int(21));
}

#[test]
fn units_close_over_their_lexical_environment() {
    let src = "(let ((outer 40))
         (invoke (unit (import) (export)
           (define f (lambda () (+ outer 2)))
           (init (f)))))";
    assert_eq!(both(src).value, Observation::Int(42));
}

#[test]
fn a_unit_can_be_linked_into_two_different_programs() {
    // Individual reuse: the same unit value participates in two
    // compounds with different partners.
    let src = "(define shared (unit (import amount) (export bump)
          (define bump (lambda (n) (+ n amount)))))
        (define mk (lambda (k)
          (compound (import) (export)
            (link ((unit (import) (export amount r) (define amount void)
                     (define r void)
                     (init (set! amount k)))
                   (with) (provides amount r))
                  (shared (with amount) (provides bump))
                  ((unit (import bump) (export) (init (bump 100)))
                   (with bump) (provides))))))
        (tuple (invoke (mk 1)) (invoke (mk 2)))";
    assert_eq!(
        both(src).value,
        Observation::Tuple(vec![Observation::Int(101), Observation::Int(102)])
    );
}

#[test]
fn shadowing_between_nested_lets_and_units() {
    let src = "(let ((x 1))
         (let ((x 2))
           (invoke (unit (import) (export)
             (define x 3)
             (init (set! x (+ x 10)) x)))))";
    assert_eq!(both(src).value, Observation::Int(13));
}

// ---------------------------------------------------------------------
// Dynamic errors agree in class across backends
// ---------------------------------------------------------------------

#[test]
fn arity_errors_agree() {
    let (a, b) = both_err("((lambda (x y) x) 1)");
    assert!(matches!(a, RuntimeError::Arity { expected: 2, found: 1 }));
    assert!(matches!(b, RuntimeError::Arity { expected: 2, found: 1 }));
}

#[test]
fn if_requires_boolean_at_runtime() {
    let (a, b) = both_err("(if 7 1 2)");
    assert!(matches!(a, RuntimeError::WrongType { .. }));
    assert!(matches!(b, RuntimeError::WrongType { .. }));
}

#[test]
fn missing_hash_keys_agree() {
    let (a, b) = both_err("(hash-get (hash-new) \"nope\")");
    assert!(matches!(a, RuntimeError::MissingKey { .. }));
    assert!(matches!(b, RuntimeError::MissingKey { .. }));
}

#[test]
fn premature_definition_reads_agree() {
    // MzScheme strictness: reading a definition cell before it is filled.
    let src = "(invoke (unit (import) (export)
        (define a (b))
        (define b (lambda () 1))
        (init a)))";
    // The same read through a renamed link: flattening the compound
    // gives the hidden link name a generated spelling (`g#mN`), which
    // the compiled backends' error must not leak.
    let linked = "(invoke (compound (import) (export)
        (link ((unit (import f) (export a) (define a (lambda () 1)) (define early (f)))
               (with (as f g)) (provides a))
              ((unit (import a) (export g) (define g (lambda () (a))))
               (with a) (provides g)))))";
    for source in [src, linked] {
        let (a, b) = both_err(source);
        assert!(matches!(a, RuntimeError::UndefinedRead { .. }), "{a}");
        assert!(matches!(b, RuntimeError::UndefinedRead { .. }), "{b}");
    }
    // All three backends name the definition the same way.
    let engine = mz();
    for (source, name) in [(src, "b"), (linked, "g")] {
        let loaded = engine.load(source).unwrap();
        for backend in [Backend::Compiled, Backend::Bytecode, Backend::Reducer] {
            let text = loaded.run_on(backend).unwrap_err().to_string();
            assert_eq!(
                text,
                format!("runtime error: definition `{name}` read before initialization"),
                "{backend:?}"
            );
        }
    }
}

#[test]
fn invoking_a_non_unit_agrees() {
    // Both backends name the Fig. 11 rule that was applied to the
    // non-unit, not just a generic shape mismatch.
    let (a, b) = both_err("(invoke 42)");
    assert!(matches!(a, RuntimeError::NotAUnit { rule: "invoke", .. }), "{a}");
    assert!(matches!(b, RuntimeError::NotAUnit { rule: "invoke", .. }), "{b}");
}

#[test]
fn sealing_a_non_unit_agrees() {
    let (a, b) = both_err("(seal 42 (sig (import) (export) (init void)))");
    assert!(matches!(a, RuntimeError::NotAUnit { rule: "seal", .. }), "{a}");
    assert!(matches!(b, RuntimeError::NotAUnit { rule: "seal", .. }), "{b}");
}

#[test]
fn user_errors_carry_their_message() {
    let (a, b) = both_err("((inst fail void) \"the-message\")");
    assert!(matches!(&a, RuntimeError::User { message } if message == "the-message"));
    assert_eq!(a, b);
}

// ---------------------------------------------------------------------
// Valuability strictness (§4.1.1)
// ---------------------------------------------------------------------

#[test]
fn paper_strictness_rejects_what_mzscheme_permits() {
    // `(define a (b))` calls a definition during the definition phase.
    let src = "(invoke (unit (import) (export)
        (define b (lambda () 1))
        (define a (b))
        (init a)))";
    // Paper mode: statically rejected (application is not valuable).
    let err = Engine::new().load(src).unwrap_err();
    assert!(err.as_check().is_some());
    // MzScheme mode: runs, because `b` is already determined.
    let outcome = mz().load(src).unwrap().run_differential().unwrap();
    assert_eq!(outcome.value, Observation::Int(1));
}

#[test]
fn paper_strictness_accepts_references_to_earlier_definitions() {
    // The refinement documented in DESIGN.md: earlier definitions are
    // determined, so a bare reference to one is valuable.
    let src = "(invoke (unit (import) (export)
        (define first (lambda () 1))
        (define synonym first)
        (init (synonym))))";
    let outcome = Engine::new().load(src).unwrap().run_differential().unwrap();
    assert_eq!(outcome.value, Observation::Int(1));
    // Mutual references still need λ-protection.
    let bad = "(invoke (unit (import) (export)
        (define synonym first)
        (define first (lambda () 1))
        (init (synonym))))";
    let err = Engine::new().load(bad).unwrap_err();
    assert!(err.as_check().is_some());
}

// ---------------------------------------------------------------------
// Invoke details
// ---------------------------------------------------------------------

#[test]
fn invoke_ignores_exports_and_extra_links() {
    let src = "(invoke (unit (import) (export x) (define x 5) (init 1))
                       (val unused 99))";
    assert_eq!(both(src).value, Observation::Int(1));
}

#[test]
fn invoke_result_is_last_init_of_the_link_order() {
    let src = "(invoke (compound (import) (export)
        (link ((unit (import) (export) (init 10)) (with) (provides))
              ((unit (import) (export) (init 20)) (with) (provides)))))";
    assert_eq!(both(src).value, Observation::Int(20));
}

#[test]
fn invocation_is_repeatable_with_fresh_state() {
    let src = "(define u (unit (import) (export)
          (define log void)
          (init (set! log (hash-new))
                (hash-set! log \"n\" 1)
                (hash-count log))))
        (tuple (invoke u) (invoke u) (invoke u))";
    assert_eq!(
        both(src).value,
        Observation::Tuple(vec![Observation::Int(1), Observation::Int(1), Observation::Int(1)])
    );
}

// ---------------------------------------------------------------------
// The Fig. 11 reduction story, step by step
// ---------------------------------------------------------------------

#[test]
fn golden_reduction_sequence_for_a_linked_invocation() {
    use units::{parse_expr, Reducer};
    use units_kernel::Expr;

    // invoke (compound … link u1 u2) — the paper's two rules fire in
    // order: first the compound merges (Fig. 8), then invoke becomes a
    // letrec with imports substituted, then the letrec allocates cells.
    let program = parse_expr(
        "(invoke (compound (import) (export)
           (link ((unit (import) (export f) (define f (lambda (x) x)))
                  (with) (provides f))
                 ((unit (import f) (export) (init (f 42)))
                  (with f) (provides)))))",
    )
    .unwrap();
    let mut reducer = Reducer::new();
    let states = reducer.trace(&program).unwrap();

    // State 1: the original invoke-of-compound.
    assert!(matches!(&states[0], Expr::Invoke(_)));
    // State 2: the compound has merged into an atomic unit value inside
    // the invoke (one step, exactly as Fig. 8 draws it).
    match &states[1] {
        Expr::Invoke(inv) => assert!(matches!(inv.target, Expr::Unit(_))),
        other => panic!("state 2 should still be an invoke, got {other:?}"),
    }
    // State 3: the invoke rule produced a letrec (Fig. 11's
    // [v̄/x̄](letrec … in e_b) with no imports to substitute here).
    assert!(matches!(&states[2], Expr::Letrec(_)), "{:?}", states[2]);
    // State 4: the letrec allocated cells and became a sequence of cell
    // initializations followed by the body.
    assert!(matches!(&states[3], Expr::Seq(_)), "{:?}", states[3]);
    // Final state: the answer.
    assert_eq!(states.last().unwrap(), &Expr::int(42));
    // The whole computation is short and deterministic.
    assert!(states.len() < 20, "unexpectedly long trace: {}", states.len());
}

#[test]
fn reduction_and_evaluation_step_counts_scale_together() {
    // Sanity check on machine-step accounting: both backends' step
    // counts grow linearly in the workload, with the reducer's constant
    // factor larger (the EXPERIMENTS.md B.2 claim, at test scale).
    use units::{Backend, Limits};
    let steps = |src: &str, backend: Backend| -> u64 {
        let mut lo = 1u64;
        let mut hi = 1_000_000;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let ok = Engine::builder()
                .strictness(Strictness::MzScheme)
                .limits(Limits::none().fuel(mid))
                .build()
                .load(src)
                .unwrap()
                .run_on(backend)
                .is_ok();
            if ok {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    };
    let program = |n: i64| {
        format!(
            "(invoke (unit (import) (export)
               (define count (lambda (n) (if (= n 0) 0 (count (- n 1)))))
               (init (count {n}))))"
        )
    };
    for backend in [Backend::Compiled, Backend::Reducer] {
        let s10 = steps(&program(10), backend);
        let s100 = steps(&program(100), backend);
        let ratio = s100 as f64 / s10 as f64;
        assert!((5.0..20.0).contains(&ratio), "{backend:?}: steps {s10} → {s100} (ratio {ratio})");
    }
}
