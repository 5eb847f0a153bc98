//! MzScheme-style source/destination linking (paper §4.1.2: "MzScheme's
//! syntax … links imports and exports via source and destination name
//! pairs, rather than requiring the same name at both ends of a
//! linkage").
//!
//! Surface syntax: inside a `with`/`provides` clause, `(as inner outer
//! [τ])` links the constituent's `inner` port to the compound's `outer`
//! name; `(as-type inner outer [κ])` does the same for type ports.

use units::{parse_expr, pretty_expr, Engine, Level, Observation, Strictness};

fn both(source: &str) -> units::Outcome {
    Engine::builder()
        .strictness(Strictness::MzScheme)
        .build()
        .load(source)
        .unwrap_or_else(|e| panic!("load: {e}"))
        .run_differential()
        .unwrap_or_else(|e| panic!("run: {e}"))
}

#[test]
fn two_units_with_clashing_exports_link_under_different_outer_names() {
    // Both constituents export `result`; renames give them distinct outer
    // names, which by-name linking cannot do.
    let src = "(invoke (compound (import) (export)
        (link ((unit (import) (export result) (define result 1))
               (with) (provides (as result result-a)))
              ((unit (import) (export result) (define result 2))
               (with) (provides (as result result-b)))
              ((unit (import result-a result-b) (export)
                 (init (+ result-a result-b)))
               (with result-a result-b) (provides)))))";
    assert_eq!(both(src).value, Observation::Int(3));
}

#[test]
fn imports_can_be_fed_from_differently_named_sources() {
    // The consumer's inner name `f` is fed from the outer name `g`.
    let src = "(invoke (compound (import) (export)
        (link ((unit (import) (export g) (define g (lambda (n) (* n 10))))
               (with) (provides g))
              ((unit (import f) (export) (init (f 4)))
               (with (as f g)) (provides)))))";
    assert_eq!(both(src).value, Observation::Int(40));
}

#[test]
fn cyclic_links_work_through_renames() {
    // even/odd where each unit names its partner differently.
    let src = "(invoke (compound (import) (export)
        (link ((unit (import partner) (export even)
                 (define even (lambda (n) (if (= n 0) true (partner (- n 1))))))
               (with (as partner odd-fn)) (provides (as even even-fn)))
              ((unit (import partner) (export odd)
                 (define odd (lambda (n) (if (= n 0) false (partner (- n 1)))))
                 (init (odd 13)))
               (with (as partner even-fn)) (provides (as odd odd-fn))))))";
    assert_eq!(both(src).value, Observation::Bool(true));
}

#[test]
fn renamed_exports_respect_hiding() {
    // Only the outer name exists; the inner name is not linkable.
    let src = "(invoke (compound (import) (export)
        (link ((unit (import) (export secret) (define secret 9))
               (with) (provides (as secret public)))
              ((unit (import secret) (export) (init secret))
               (with secret) (provides)))))";
    let err = Engine::new().load(src).unwrap_err();
    let errs = err.as_check().expect("context check rejects");
    assert!(
        errs.iter().any(|e| matches!(
            e,
            units::CheckError::UnsatisfiedLink { name, .. } if name.as_str() == "secret"
        )),
        "{errs:?}"
    );
}

#[test]
fn duplicate_outer_names_are_rejected() {
    let src = "(compound (import) (export)
        (link ((unit (import) (export a) (define a 1))
               (with) (provides (as a shared)))
              ((unit (import) (export b) (define b 2))
               (with) (provides (as b shared)))))";
    let err = Engine::new().load(src).unwrap_err();
    let errs = err.as_check().expect("context check rejects");
    assert!(
        errs.iter().any(|e| matches!(
            e,
            units::CheckError::Duplicate { name, .. } if name.as_str() == "shared"
        )),
        "{errs:?}"
    );
}

#[test]
fn typed_linking_translates_value_port_types() {
    // Provider exports inc : int→int under outer name bump; consumer
    // imports step : int→int from bump. All annotations use inner names.
    let src = "(invoke (compound (import) (export)
        (link ((unit (import) (export (inc (-> int int)))
                 (define inc (-> int int) (lambda ((n int)) (+ n 1))))
               (with) (provides (as inc bump (-> int int))))
              ((unit (import (step (-> int int))) (export)
                 (init (step 41)))
               (with (as step bump (-> int int))) (provides)))))";
    let engine = Engine::builder().level(Level::Constructed).build();
    let ty = engine.load(src).unwrap().ty().cloned().unwrap();
    assert_eq!(ty, units::Ty::Int);
    assert_eq!(both(src).value, Observation::Int(42));
}

#[test]
fn typed_linking_translates_type_ports() {
    // Two *different* database types coexist in one compound under outer
    // names db1/db2 — the renamed-type cure for Fig. 4's name collision.
    let src = "(compound (import) (export (type db1) (type db2))
        (link ((unit (import) (export (type db) (mk1 (-> int db)))
                 (datatype db (mka una int) db?)
                 (define mk1 (-> int db) (lambda ((n int)) (mka n))))
               (with)
               (provides (as-type db db1) (as mk1 mk1 (-> int db))))
              ((unit (import) (export (type db) (mk2 (-> int db)))
                 (datatype db (mkb unb int) dbx?)
                 (define mk2 (-> int db) (lambda ((n int)) (mkb n))))
               (with)
               (provides (as-type db db2) (as mk2 mk2 (-> int db))))))";
    let engine = Engine::builder().level(Level::Constructed).build();
    let loaded = engine.load(src).unwrap();
    let sig = loaded.ty().unwrap().as_sig().unwrap();
    assert!(sig.exports.ty_port(&"db1".into()).is_some());
    assert!(sig.exports.ty_port(&"db2".into()).is_some());
    // And the two mk functions have distinct outer types.
    // (The derived export types are stated over outer names.)
}

#[test]
fn typed_mismatch_through_renames_is_still_caught() {
    // The source has type int→int but the consumer expects str→str.
    let src = "(compound (import) (export)
        (link ((unit (import) (export (inc (-> int int)))
                 (define inc (-> int int) (lambda ((n int)) n)))
               (with) (provides (as inc bump (-> int int))))
              ((unit (import (step (-> str str))) (export))
               (with (as step bump (-> str str))) (provides))))";
    let err = Engine::builder().level(Level::Constructed).build().load(src).unwrap_err();
    let errs = err.as_check().unwrap();
    assert!(errs.iter().any(|e| matches!(e, units::CheckError::Mismatch { .. })), "{errs:?}");
}

#[test]
fn renamed_clauses_round_trip_through_the_printer() {
    let src = "(compound (import) (export)
        (link ((unit (import f) (export g) (define g 1))
               (with (as f outer-f)) (provides (as g outer-g)))))";
    let e = parse_expr(src).unwrap();
    let printed = pretty_expr(&e);
    assert!(printed.contains("(as f outer-f)"), "{printed}");
    assert!(printed.contains("(as g outer-g)"), "{printed}");
    assert_eq!(parse_expr(&printed).unwrap(), e);
}

#[test]
fn reducer_merge_uses_outer_names() {
    // After one reduction step, the merged unit's definitions carry the
    // outer names and the interface matches the compound's.
    use units::{Reducer, Step};
    let compound = parse_expr(
        "(compound (import) (export visible)
           (link ((unit (import) (export inner) (define inner 5))
                  (with) (provides (as inner visible)))))",
    )
    .unwrap();
    let mut reducer = Reducer::new();
    let merged = match reducer.step(&compound).unwrap() {
        Step::Reduced(e) => e,
        Step::Value => panic!("must step"),
    };
    match &merged {
        units::Expr::Unit(u) => {
            assert!(u.exports.val_port(&"visible".into()).is_some());
            assert_eq!(u.vals[0].name.as_str(), "visible");
        }
        other => panic!("expected unit, got {other:?}"),
    }
}

#[test]
fn same_unit_linked_twice_under_different_outer_names() {
    // Individual reuse with renames: one unit value, two instances in the
    // same compound, distinguished purely by outer naming.
    let src = "(define counter (unit (import) (export get)
          (define state 0)
          (define get (lambda () (set! state (+ state 1)) state))))
        (invoke (compound (import) (export)
          (link (counter (with) (provides (as get get-a)))
                (counter (with) (provides (as get get-b)))
                ((unit (import get-a get-b) (export)
                   (init (tuple (get-a) (get-a) (get-b))))
                 (with get-a get-b) (provides)))))";
    // Two instances: independent state.
    assert_eq!(
        both(src).value,
        Observation::Tuple(vec![Observation::Int(1), Observation::Int(2), Observation::Int(1)])
    );
}
