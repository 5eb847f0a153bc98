//! Corner cases and failure injection across the whole pipeline.

use units::{Backend, CheckError, Engine, Level, Observation, RuntimeError, Strictness, Ty};

fn mz() -> Engine {
    Engine::builder().strictness(Strictness::MzScheme).build()
}

fn at(level: Level) -> Engine {
    Engine::builder().level(level).build()
}

fn both(source: &str) -> units::Outcome {
    mz().load(source)
        .unwrap_or_else(|e| panic!("load: {e}"))
        .run_differential()
        .unwrap_or_else(|e| panic!("run: {e}"))
}

// ---------------------------------------------------------------------
// Degenerate units
// ---------------------------------------------------------------------

#[test]
fn the_empty_unit_invokes_to_void() {
    assert_eq!(both("(invoke (unit (import) (export)))").value, Observation::Void);
}

#[test]
fn the_empty_compound_invokes_to_void() {
    assert_eq!(both("(invoke (compound (import) (export) (link)))").value, Observation::Void);
}

#[test]
fn a_type_only_unit_links_and_invokes() {
    let src = "(invoke (compound (import) (export)
        (link ((unit (import) (export mk)
                 (datatype t (mk unmk int) t?))
               (with) (provides mk))
              ((unit (import mk) (export) (init (mk 3) 1))
               (with mk) (provides)))))";
    assert_eq!(both(src).value, Observation::Int(1));
}

#[test]
fn unit_with_only_init_behaves_like_a_thunk() {
    let src = "(define u (unit (import) (export) (init (display \"ran\") 2)))
        (+ (invoke u) (invoke u))";
    let outcome = both(src);
    assert_eq!(outcome.value, Observation::Int(4));
    assert_eq!(outcome.output, vec!["ran", "ran"]);
}

// ---------------------------------------------------------------------
// Units as first-class values
// ---------------------------------------------------------------------

#[test]
fn units_travel_through_tuples_and_closures() {
    let src = "(let ((pair (tuple 1 (unit (import) (export) (init 7)))))
         (let ((pick (lambda (p) (proj 1 p))))
           (invoke (pick pair))))";
    assert_eq!(both(src).value, Observation::Int(7));
}

#[test]
fn units_stored_in_hash_tables_and_invoked_later() {
    let src = "(let ((registry (hash-new)))
         (hash-set! registry \"boot\" (unit (import) (export) (init 11)))
         (invoke (hash-get registry \"boot\")))";
    assert_eq!(both(src).value, Observation::Int(11));
}

#[test]
fn higher_order_linking_functions() {
    // A function that takes two units and links them in either order.
    let src = "(let ((pipe (lambda (a b)
           (compound (import) (export)
             (link (a (with) (provides out))
                   (b (with out) (provides)))))))
         (invoke (pipe (unit (import) (export out) (define out 5))
                       (unit (import out) (export) (init (* out 2))))))";
    assert_eq!(both(src).value, Observation::Int(10));
}

// ---------------------------------------------------------------------
// Deep structures
// ---------------------------------------------------------------------

#[test]
fn seal_chains_narrow_monotonically() {
    let src = "(invoke (compound (import) (export)
        (link ((seal (seal (unit (import) (export a b c)
                             (define a 1) (define b 2) (define c 3))
                           (sig (import) (export a b) (init void)))
                     (sig (import) (export a) (init void)))
               (with) (provides a))
              ((unit (import a) (export) (init a))
               (with a) (provides)))))";
    assert_eq!(both(src).value, Observation::Int(1));
    // b was stripped by the outer seal even though the inner kept it.
    let bad = src
        .replace("(provides a)", "(provides b)")
        .replace("import a", "import b")
        .replace("(with a)", "(with b)")
        .replace("(init a)", "(init b)");
    let err = mz().load(&bad).unwrap().run().unwrap_err();
    assert!(
        matches!(err.as_runtime(), Some(RuntimeError::MissingProvide { name }) if name.as_str() == "b")
    );
}

#[test]
fn eight_levels_of_nested_compounds() {
    let mut inner = "(unit (import) (export v) (define v (lambda () 1)))".to_string();
    for _ in 0..8 {
        inner = format!("(compound (import) (export v) (link ({inner} (with) (provides v))))");
    }
    let src = format!(
        "(invoke (compound (import) (export)
           (link ({inner} (with) (provides v))
                 ((unit (import v) (export) (init (v))) (with v) (provides)))))"
    );
    assert_eq!(both(&src).value, Observation::Int(1));
}

#[test]
fn many_variant_datatypes_generalize_the_papers_two() {
    // The paper fixes exactly two variants "for simplicity"; the
    // implementation allows any positive number, with the predicate true
    // exactly for the first.
    let src = "(letrec ((datatype shape
                  (circle uncircle int)
                  (square unsquare int)
                  (tri untri int)
                  first?))
         (tuple (first? (circle 1)) (first? (square 2)) (first? (tri 3))
                (untri (tri 9))))";
    assert_eq!(
        both(src).value,
        Observation::Tuple(vec![
            Observation::Bool(true),
            Observation::Bool(false),
            Observation::Bool(false),
            Observation::Int(9),
        ])
    );
}

// ---------------------------------------------------------------------
// Invoking partial programs (dynamic linking of compounds)
// ---------------------------------------------------------------------

#[test]
fn compounds_with_imports_are_dynamically_linkable() {
    let src = "(define partial (compound (import base) (export)
          (link ((unit (import base) (export mid)
                   (define mid (lambda () (* base 2))))
                 (with base) (provides mid))
                ((unit (import mid) (export) (init (mid)))
                 (with mid) (provides)))))
        (invoke partial (val base 21))";
    assert_eq!(both(src).value, Observation::Int(42));
}

#[test]
fn invoke_inside_a_unit_body_nests_machines_correctly() {
    let src = "(invoke (unit (import) (export)
        (define inner (unit (import k) (export) (init (+ k 1))))
        (init (invoke inner (val k (invoke inner (val k 40)))))))";
    assert_eq!(both(src).value, Observation::Int(42));
}

// ---------------------------------------------------------------------
// Checker corner cases
// ---------------------------------------------------------------------

#[test]
fn duplicate_signature_ports_are_rejected() {
    let err = at(Level::Constructed)
        .load(
            "(seal (unit (import) (export))
                   (sig (import (x int) (x str)) (export) (init void)))",
        )
        .unwrap_err();
    let errs = err.as_check().unwrap();
    assert!(
        errs.iter()
            .any(|e| matches!(e, CheckError::Duplicate { name, .. } if name.as_str() == "x")),
        "{errs:?}"
    );
}

#[test]
fn signature_types_must_be_bound() {
    let err = at(Level::Constructed)
        .load(
            "(seal (unit (import) (export))
                   (sig (import (x mystery)) (export) (init void)))",
        )
        .unwrap_err();
    let errs = err.as_check().unwrap();
    assert!(
        errs.iter()
            .any(|e| matches!(e, CheckError::UnboundTy { name } if name.as_str() == "mystery")),
        "{errs:?}"
    );
}

#[test]
fn depends_endpoints_must_be_interface_types() {
    for sig in [
        "(sig (import (type i)) (export) (init void) (depends (ghost i)))",
        "(sig (import) (export (type e)) (init void) (depends (e ghost)))",
    ] {
        let err = at(Level::Equations)
            .load(&format!("(seal (unit (import) (export)) {sig})"))
            .unwrap_err();
        assert!(err.as_check().is_some(), "{sig}");
    }
}

#[test]
fn unite_forms_are_rejected_at_unitc() {
    let err = at(Level::Constructed)
        .load(
            "(seal (unit (import) (export))
                   (sig (import (type i)) (export (type e)) (init void) (depends (e i))))",
        )
        .unwrap_err();
    let errs = err.as_check().unwrap();
    assert!(errs.iter().any(|e| matches!(e, CheckError::UnsupportedAtLevel { .. })), "{errs:?}");
}

#[test]
fn projection_type_errors_are_static_at_typed_levels() {
    let err = at(Level::Constructed).load("(proj 2 (tuple 1 2))").unwrap_err();
    assert!(err.as_check().is_some());
    // And the same program is a *runtime* error at the untyped level.
    let err = Engine::new().invoke("(proj 2 (tuple 1 2))").unwrap_err();
    assert!(matches!(err.as_runtime(), Some(RuntimeError::BadProjection { .. })));
}

#[test]
fn if_branches_join_through_subtyping_of_signatures() {
    // Two units with different (but subtype-related) signatures in the
    // branches of an `if`: the join is the more general signature.
    let src = "(if true
         (unit (import) (export (a int) (b int)) (define a int 1) (define b int 2))
         (unit (import) (export (a int)) (define a int 1)))";
    let engine = at(Level::Constructed);
    let loaded = engine.load(src).unwrap();
    let ty = loaded.ty().unwrap();
    let sig = ty.as_sig().unwrap();
    assert!(sig.exports.val_port(&"a".into()).is_some());
    assert!(sig.exports.val_port(&"b".into()).is_none(), "join is the supertype");
}

#[test]
fn init_type_may_be_a_signature() {
    // A unit whose initialization value is itself a unit — programs that
    // produce programs.
    let src = "(invoke (invoke (unit (import) (export)
        (init (unit (import) (export) (init 9))))))";
    assert_eq!(both(src).value, Observation::Int(9));
    let engine = at(Level::Constructed);
    let loaded = engine.load(src).unwrap();
    assert_eq!(loaded.ty(), Some(&Ty::Int));
}

// ---------------------------------------------------------------------
// Failure injection
// ---------------------------------------------------------------------

#[test]
fn errors_inside_definitions_abort_the_whole_invocation() {
    let src = "(invoke (compound (import) (export)
        (link ((unit (import) (export) (define x ((inst fail void) \"defs\")) (init 1))
               (with) (provides))
              ((unit (import) (export) (init (display \"never\")))
               (with) (provides)))))";
    let engine = mz();
    let p = engine.load(src).unwrap();
    for backend in [Backend::Compiled, Backend::Reducer, Backend::Bytecode] {
        let err = p.run_on(backend).unwrap_err();
        assert!(
            matches!(err.as_runtime(), Some(RuntimeError::User { message }) if message == "defs"),
            "{backend:?}: {err}"
        );
    }
}

#[test]
fn errors_in_an_early_init_prevent_later_inits() {
    let src = "(invoke (compound (import) (export)
        (link ((unit (import) (export) (init ((inst fail void) \"init1\")))
               (with) (provides))
              ((unit (import) (export) (init (display \"unreached\")))
               (with) (provides)))))";
    let engine = mz();
    let p = engine.load(src).unwrap();
    for backend in [Backend::Compiled, Backend::Reducer, Backend::Bytecode] {
        let err = p.run_on(backend).unwrap_err();
        assert!(err.as_runtime().is_some(), "{backend:?}");
    }
}

#[test]
fn invoke_of_a_failing_link_expression_propagates() {
    let src = "(invoke (compound (import) (export)
        (link (((inst fail void) \"no unit here\") (with) (provides)))))";
    let engine = mz();
    let p = engine.load(src).unwrap();
    for backend in [Backend::Compiled, Backend::Reducer, Backend::Bytecode] {
        let err = p.run_on(backend).unwrap_err();
        assert!(matches!(err.as_runtime(), Some(RuntimeError::User { .. })), "{backend:?}: {err}");
    }
}

#[test]
fn an_early_init_reads_a_later_units_definition() {
    // All definitions run before all inits, so the first constituent's
    // init can read the second's export; the invocation *result* is the
    // last init's value.
    let src = "(invoke (compound (import) (export)
        (link ((unit (import slot) (export) (init (display (int->string slot))))
               (with slot) (provides))
              ((unit (import) (export slot) (define slot 5) (init 7))
               (with) (provides slot)))))";
    let outcome = both(src);
    assert_eq!(outcome.output, vec!["5"]);
    assert_eq!(outcome.value, Observation::Int(7));
}

#[test]
fn wrong_instance_errors_name_the_type() {
    let src = "(define mk-unit (unit (import) (export mk)
          (datatype point (mk unmk int) point?)))
        (define un-unit (unit (import) (export unmk)
          (datatype point (mk unmk int) point?)))
        (invoke (compound (import) (export)
          (link (mk-unit (with) (provides mk))
                (un-unit (with) (provides unmk))
                ((unit (import mk unmk) (export) (init (unmk (mk 1))))
                 (with mk unmk) (provides)))))";
    let engine = mz();
    let p = engine.load(src).unwrap();
    for backend in [Backend::Compiled, Backend::Reducer, Backend::Bytecode] {
        let err = p.run_on(backend).unwrap_err();
        assert!(
            matches!(
                err.as_runtime(),
                Some(RuntimeError::ForeignInstance { ty_name }) if ty_name.as_str() == "point"
            ),
            "{backend:?}: {err}"
        );
    }
}

#[test]
fn display_output_interleaves_identically_across_backends() {
    let src = "(invoke (compound (import) (export)
        (link ((unit (import later) (export early)
                 (define early (lambda () (display \"early-called\") 1)))
               (with later) (provides early))
              ((unit (import early) (export later)
                 (define later (lambda () (display \"later-called\") 2))
                 (init (display \"init\") (+ (early) (later))))
               (with early) (provides later)))))";
    let outcome = both(src);
    assert_eq!(outcome.value, Observation::Int(3));
    assert_eq!(outcome.output, vec!["init", "early-called", "later-called"]);
}

// ---------------------------------------------------------------------
// Addresses: every read goes through the resolver's (depth, slot)
// ---------------------------------------------------------------------

/// Runs a term on the tree-walker and on the VM exactly as given, with
/// no resolution pass in between.
fn compiled_errors(expr: &units::Expr) -> [String; 2] {
    let walked = units::evaluate_program(expr, &mut units::Machine::new());
    let chunk = units_compile::lower_program(expr);
    let vm = units_runtime::execute(&chunk, &mut units::Machine::new());
    [walked, vm].map(|r| r.expect_err("the term must fail").to_string())
}

#[test]
fn an_address_past_the_environment_is_unbound_on_both_compiled_backends() {
    use units::{Expr, Param};
    use units_kernel::LexAddr;
    let ghost = |depth, slot| Expr::VarAt("ghost".into(), LexAddr { depth, slot });
    // Inside a unary call: one frame of one slot. Depth 7 takes the VM's
    // frame display, depth 2 its direct walk.
    let in_call =
        |body| Expr::app(Expr::lambda(vec![Param::untyped("x")], body), vec![Expr::int(1)]);
    for (depth, slot) in [(0, 1), (0, 70_000), (2, 0), (7, 0), (u32::MAX, u32::MAX)] {
        let read = in_call(ghost(depth, slot));
        let set = in_call(Expr::Set(Box::new(ghost(depth, slot)), Box::new(Expr::int(2))));
        for expr in [ghost(depth, slot), read, set] {
            for text in compiled_errors(&expr) {
                assert_eq!(text, "unbound variable `ghost`", "({depth}, {slot})");
            }
        }
    }
}

#[test]
fn a_free_variable_is_unbound_on_every_backend() {
    use units::{Expr, Reducer};
    // The checker rejects both terms, so each backend runs them directly.
    for expr in [Expr::var("nope"), Expr::set("nope", Expr::int(1))] {
        let mut texts = compiled_errors(&units::resolve_program(&expr)).to_vec();
        texts.push(Reducer::new().reduce_to_value(&expr).unwrap_err().to_string());
        for text in texts {
            assert_eq!(text, "unbound variable `nope`");
        }
    }
    // Every backend evaluates a `set!`'s value before it fails on its
    // free target.
    let failing_value = Expr::set("nope", units::parse_expr("(proj 5 (tuple 1))").unwrap());
    let mut texts = compiled_errors(&units::resolve_program(&failing_value)).to_vec();
    texts.push(Reducer::new().reduce_to_value(&failing_value).unwrap_err().to_string());
    for text in texts {
        assert!(text.starts_with("projection 5 out of range"), "{text}");
    }
}

#[test]
fn tuples_and_calls_wider_than_sixteen_bits_agree_on_every_backend() {
    const WIDTH: usize = 70_000;
    let last = WIDTH - 1;
    let numbers = (0..WIDTH).map(|i| i.to_string()).collect::<Vec<_>>().join(" ");
    let params = (0..WIDTH).map(|i| format!("x{i}")).collect::<Vec<_>>().join(" ");
    let cases = [
        (format!("(proj {last} (tuple {numbers}))"), Ok(Observation::Int(last as i64))),
        (format!("((lambda ({params}) x{last}) {numbers})"), Ok(Observation::Int(last as i64))),
        (
            format!("(+ {})", vec!["1"; WIDTH].join(" ")),
            Err(format!("runtime error: arity mismatch: expected 2 argument(s), got {WIDTH}")),
        ),
        // An index wider than 32 bits, on a narrow tuple.
        (
            "(proj 4294967296 (tuple 7 8))".to_string(),
            Err("runtime error: projection 4294967296 out of range for width-2 tuple".to_string()),
        ),
    ];
    let engine = Engine::new();
    for (source, expected) in cases {
        let loaded = engine.load(&source).unwrap();
        for backend in [Backend::Compiled, Backend::Bytecode, Backend::Reducer] {
            let outcome = loaded.run_on(backend).map(|o| o.value).map_err(|e| e.to_string());
            assert_eq!(outcome, expected, "{backend:?} on {source:.40}");
        }
    }
}

#[test]
fn frames_wider_than_sixteen_bits_read_their_last_slot() {
    use std::sync::Arc;
    use units::Expr;
    use units_kernel::{Binding, LetrecExpr, PrimOp, ValDefn};
    const WIDTH: i64 = 70_000;
    let name = |i: i64| units::Symbol::new(format!("x{i}"));
    let first_and_last = Expr::prim2(PrimOp::Add, Expr::Var(name(1)), Expr::Var(name(WIDTH - 1)));
    let wide_let = Expr::Let(
        (0..WIDTH).map(|i| Binding { name: name(i), expr: Expr::int(i) }).collect(),
        Box::new(first_and_last.clone()),
    );
    let wide_letrec = Expr::Letrec(Arc::new(LetrecExpr {
        types: Vec::new(),
        vals: (0..WIDTH).map(|i| ValDefn { name: name(i), ty: None, body: Expr::int(i) }).collect(),
        body: first_and_last,
    }));
    for expr in [wide_let, wide_letrec] {
        let resolved = units::resolve_program(&expr);
        let walked = units::evaluate_program(&resolved, &mut units::Machine::new()).unwrap();
        let chunk = units_compile::lower_program(&resolved);
        let vm = units_runtime::execute(&chunk, &mut units::Machine::new()).unwrap();
        for v in [walked, vm] {
            assert!(v.observably_eq(&units::Value::Int(WIDTH)), "{v}");
        }
    }
}
