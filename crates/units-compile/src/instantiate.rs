//! Wiring and invocation: the cells protocol of §4.1.6.
//!
//! Invoking a unit proceeds in three phases, mirroring the merged-`letrec`
//! semantics of Fig. 11:
//!
//! 1. **wire** — walk the link graph handing out cells: import cells come
//!    from the invoker; each compound lays out one slot per linked name
//!    as its cached link plan says, reusing the caller's cells for its
//!    wanted exports and "creating new cells … for variables … hidden by
//!    the compound unit"; each atomic constituent gets one frame of
//!    import cells, datatype operations and definition cells, where an
//!    exported definition's cell *is* the cell its consumers read;
//! 2. **run definitions** — every constituent's definitions evaluate in
//!    link order, filling their cells (mutually recursive references work
//!    because λ-bodies read cells lazily);
//! 3. **run initializations** — every initialization expression runs in
//!    link order; the last one's value is the result of the invocation.

use std::collections::HashMap;

use units_kernel::Symbol;
use units_runtime::{
    emit_invoke_event, import_cells, wire, Machine, RuntimeError, UnitValue, Value, WiredUnit,
};

use crate::eval::eval;

/// Invokes a unit, satisfying its imports from `supplied` (empty for a
/// complete program). Returns the last initialization expression's value;
/// exports are ignored ("The variables exported by a program are
/// ignored").
///
/// The wiring itself lives in [`units_runtime::wiring`], shared with the
/// bytecode VM; this function supplies the tree-walking definition/init
/// phases over the wired constituents.
///
/// # Errors
///
/// [`RuntimeError::UnsatisfiedImport`] when `supplied` misses an import;
/// any error the definitions or initializations raise.
pub fn invoke_unit(
    unit: &UnitValue,
    supplied: &HashMap<Symbol, Value>,
    machine: &mut Machine,
) -> Result<Value, RuntimeError> {
    let _timer = units_trace::time("link");
    units_trace::faults::trip("compile/instantiate")?;
    let cells = import_cells(unit, supplied, machine)?;
    let mut wired: Vec<WiredUnit> = Vec::new();
    wire(unit, &cells, &[], machine, &mut wired)?;
    emit_invoke_event(unit, wired.len());
    // All definitions in link order, then all initializations in link
    // order (Fig. 11's merged letrec); the last init value is the result.
    for w in &wired {
        for (i, defn) in w.source.vals.iter().enumerate() {
            let v = eval(&defn.body, &w.env, machine)?;
            w.define(i, v);
        }
    }
    let mut result = Value::Void;
    for w in &wired {
        result = eval(&w.source.init, &w.env, machine)?;
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_program;
    use std::sync::Arc;
    use units_syntax::parse_expr;

    fn run(src: &str) -> Result<Value, RuntimeError> {
        let e = parse_expr(src).unwrap_or_else(|err| panic!("parse: {err}"));
        evaluate_program(&e, &mut Machine::new())
    }

    fn run_int(src: &str) -> i64 {
        match run(src) {
            Ok(Value::Int(n)) => n,
            other => panic!("expected an int, got {other:?}"),
        }
    }

    #[test]
    fn invoking_an_atomic_program() {
        assert_eq!(run_int("(invoke (unit (import) (export) (init (+ 40 2))))"), 42);
    }

    #[test]
    fn definitions_fill_cells_before_init_runs() {
        assert_eq!(
            run_int(
                "(invoke (unit (import) (export)
                   (define f (lambda (n) (* n n)))
                   (init (f 9))))"
            ),
            81
        );
    }

    #[test]
    fn dynamic_linking_supplies_imports() {
        assert_eq!(
            run_int(
                "(invoke (unit (import base) (export) (init (+ base 2)))
                         (val base 40))"
            ),
            42
        );
    }

    #[test]
    fn missing_imports_are_a_runtime_error() {
        let err = run("(invoke (unit (import x) (export) (init x)))").unwrap_err();
        assert!(matches!(err, RuntimeError::UnsatisfiedImport { name } if name.as_str() == "x"));
    }

    #[test]
    fn fig12_even_odd_mutual_recursion_across_units() {
        // The even unit and the odd unit import each other's export; the
        // compound links them cyclically (Fig. 12's example, split in two).
        let src = "(invoke (compound (import) (export)
            (link ((unit (import odd) (export even)
                     (define even (lambda (n) (if (= n 0) true (odd (- n 1)))))
                     (init void))
                   (with odd) (provides even))
                  ((unit (import even) (export odd)
                     (define odd (lambda (n) (if (= n 0) false (even (- n 1)))))
                     (init (odd 13)))
                   (with even) (provides odd)))))";
        match run(src) {
            Ok(Value::Bool(true)) => {}
            other => panic!("odd(13) should be true, got {other:?}"),
        }
    }

    #[test]
    fn initialization_expressions_run_in_link_order_after_all_definitions() {
        let src = "(invoke (compound (import) (export)
            (link ((unit (import later) (export)
                     (init (display \"first\") (later)))
                   (with later) (provides))
                  ((unit (import) (export later)
                     (define later (lambda () (display \"from-later\") void))
                     (init (display \"second\")))
                   (with) (provides later)))))";
        let mut machine = Machine::new();
        let e = parse_expr(src).unwrap();
        evaluate_program(&e, &mut machine).unwrap();
        // Unit 1's init runs before unit 2's, and can already call unit
        // 2's definition (all definitions precede all initializations).
        assert_eq!(machine.output(), ["first", "from-later", "second"]);
    }

    #[test]
    fn invocation_result_is_last_initialization_value() {
        assert_eq!(
            run_int(
                "(invoke (compound (import) (export)
                   (link ((unit (import) (export) (init 1)) (with) (provides))
                         ((unit (import) (export) (init 2)) (with) (provides)))))"
            ),
            2
        );
    }

    #[test]
    fn hidden_exports_are_invisible_but_usable_internally() {
        // The inner compound hides delete (Fig. 2's PhoneBook hides
        // Database's delete), yet its sibling use still calls it, and
        // the caller reaches use through the compound's exports.
        let pb = "(compound (import) (export get use)
             (link ((unit (import) (export get delete)
                      (define get (lambda () 10))
                      (define delete (lambda () 99)))
                    (with) (provides get delete))
                   ((unit (import delete) (export use)
                      (define use (lambda () (delete))))
                    (with delete) (provides use))))";
        let call = |init: &str| {
            run_int(&format!(
                "(invoke (compound (import) (export)
                   (link ({pb} (with) (provides get use))
                         ((unit (import get use) (export) (init {init}))
                          (with get use) (provides)))))"
            ))
        };
        assert_eq!(call("(get)"), 10);
        assert_eq!(call("(use)"), 99);
    }

    #[test]
    fn linking_against_a_hidden_export_fails() {
        let err = run(
            "(invoke (compound (import) (export)
               (link ((compound (import) (export get)
                        (link ((unit (import) (export get delete)
                                 (define get (lambda () 10))
                                 (define delete (lambda () 99)))
                               (with) (provides get delete))))
                      (with) (provides get delete))
                     ((unit (import delete) (export) (init (delete)))
                      (with delete) (provides)))))",
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::MissingProvide { name } if name.as_str() == "delete"));
    }

    #[test]
    fn excess_imports_are_rejected_at_link_time() {
        let err = run(
            "(compound (import) (export)
               (link ((unit (import ghost) (export) (init void))
                      (with) (provides))))",
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::ExcessImport { name } if name.as_str() == "ghost"));
    }

    #[test]
    fn multiple_invocations_create_independent_instances() {
        // Each invocation gets fresh cells: the counter does not persist.
        let src = "(define u (unit (import) (export)
                      (define counter 0)
                      (init (set! counter (+ counter 1)) counter)))
                   (tuple (invoke u) (invoke u))";
        let e = units_syntax::parse_file(src).unwrap();
        let v = evaluate_program(&e, &mut Machine::new()).unwrap();
        match v {
            Value::Tuple(items) => {
                assert!(items[0].observably_eq(&Value::Int(1)));
                assert!(items[1].observably_eq(&Value::Int(1)));
            }
            other => panic!("expected tuple, got {other}"),
        }
    }

    #[test]
    fn code_is_shared_across_instances() {
        // §4.1.6: one copy of the code regardless of how many times the
        // unit is linked or invoked.
        let e = units_syntax::parse_expr(
            "(unit (import) (export) (define f (lambda () 1)) (init (f)))",
        )
        .unwrap();
        let mut machine = Machine::new();
        let v1 = evaluate_program(&e, &mut machine).unwrap();
        let v2 = evaluate_program(&e, &mut machine).unwrap();
        match (v1, v2) {
            (Value::Unit(u1), Value::Unit(u2)) => {
                assert!(Arc::ptr_eq(
                    u1.atomic_source().unwrap(),
                    u2.atomic_source().unwrap()
                ));
            }
            other => panic!("expected units, got {other:?}"),
        }
    }

    #[test]
    fn datatype_instances_do_not_mix() {
        // §5.3: two instances of `symbol` cannot unify their types.
        let src = "(define symbol (unit (import) (export mk unmk)
                      (datatype sym (mk unmk str) sym?)
                      (init (tuple mk unmk))))
                   (let ((a (invoke symbol)) (b (invoke symbol)))
                     ((proj 1 b) ((proj 0 a) \"x\")))";
        let e = units_syntax::parse_file(src).unwrap();
        let err = evaluate_program(&e, &mut Machine::new()).unwrap_err();
        assert!(matches!(err, RuntimeError::ForeignInstance { ty_name } if ty_name.as_str() == "sym"));
    }

    #[test]
    fn seal_hides_exports_at_runtime() {
        let err = run(
            "(invoke (compound (import) (export)
               (link ((seal (unit (import) (export a b)
                              (define a 1) (define b 2))
                            (sig (import) (export b) (init void)))
                      (with) (provides a)))))",
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::MissingProvide { name } if name.as_str() == "a"));
    }
}
