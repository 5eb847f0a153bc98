//! The *valuable* judgment of §4.1.1 (after Harper–Stone).
//!
//! A unit definition `val x = e` must be valuable: "evaluating the
//! expression terminates, does not incur any computational effects
//! (divergence, printing, etc.), and does not refer to variables whose
//! values may still be undetermined (due to an ordering of the mutually
//! recursive definitions)" — "with the restriction that imported and
//! defined variable names are not considered valuable".
//!
//! The judgment is syntactic and conservative: literals, λ-abstractions,
//! primitives, units, tuples of valuables, and variables bound *outside*
//! the recursive block are valuable; applications, conditionals, and
//! anything that can run code are not. A `compound` of valuable
//! constituents is valuable (linking merges text without evaluating it).

use std::collections::BTreeSet;

use units_kernel::{Expr, Symbol};

/// Returns `true` when `expr` is valuable given the set of names whose
/// values may still be undetermined (the enclosing block's imports and
/// definitions).
///
/// # Examples
///
/// ```
/// use std::collections::BTreeSet;
/// use units_check::is_valuable;
/// use units_kernel::{Expr, Param};
///
/// let forbidden: BTreeSet<_> = [units_kernel::Symbol::new("even")].into();
/// // A λ may mention `even` — it is not evaluated yet.
/// let lam = Expr::lambda(vec![Param::untyped("n")], Expr::var("even"));
/// assert!(is_valuable(&lam, &forbidden));
/// // A bare reference to `even` is not valuable.
/// assert!(!is_valuable(&Expr::var("even"), &forbidden));
/// ```
pub fn is_valuable(expr: &Expr, forbidden: &BTreeSet<Symbol>) -> bool {
    // The forbidden set contains the names whose cells may still be
    // undetermined when this expression runs: the block's imports (a
    // linked import may be another constituent's definition that runs
    // *later* in the merged order) and the definitions at or after the
    // current one. Earlier definitions are already determined, so
    // referring to them is valuable — a faithful-to-intent refinement of
    // the paper's blanket rule (documented in DESIGN.md §1).
    match expr {
        Expr::Lit(_) | Expr::Lambda(_) | Expr::Prim(..) | Expr::Unit(_) | Expr::Data(_)
        | Expr::Loc(_) => true,
        Expr::Var(x) | Expr::VarAt(x, _) => !forbidden.contains(x),
        Expr::Tuple(items) => items.iter().all(|e| is_valuable(e, forbidden)),
        Expr::Variant(v) => is_valuable(&v.payload, forbidden),
        Expr::Seal(e, _) => is_valuable(e, forbidden),
        Expr::Compound(c) => c.links.iter().all(|l| is_valuable(&l.expr, forbidden)),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use units_kernel::{CompoundExpr, Ports, PrimOp};

    fn forbid(names: &[&str]) -> BTreeSet<Symbol> {
        names.iter().map(Symbol::new).collect()
    }

    #[test]
    fn literals_and_prims_are_valuable() {
        let none = forbid(&[]);
        assert!(is_valuable(&Expr::int(1), &none));
        assert!(is_valuable(&Expr::str("s"), &none));
        assert!(is_valuable(&Expr::prim(PrimOp::Add), &none));
    }

    #[test]
    fn applications_are_never_valuable() {
        let none = forbid(&[]);
        let app = Expr::prim2(PrimOp::Add, Expr::int(1), Expr::int(2));
        assert!(!is_valuable(&app, &none));
    }

    #[test]
    fn outer_variables_are_valuable_defined_ones_are_not() {
        let forbidden = forbid(&["defined"]);
        assert!(is_valuable(&Expr::var("outer"), &forbidden));
        assert!(!is_valuable(&Expr::var("defined"), &forbidden));
    }

    #[test]
    fn tuples_are_valuable_pointwise() {
        let forbidden = forbid(&["d"]);
        assert!(is_valuable(&Expr::Tuple(vec![Expr::int(1), Expr::var("ok")]), &forbidden));
        assert!(!is_valuable(&Expr::Tuple(vec![Expr::int(1), Expr::var("d")]), &forbidden));
    }

    #[test]
    fn compound_of_valuables_is_valuable() {
        let mk = |e: Expr| {
            Expr::compound(CompoundExpr::new(
                Ports::new(),
                Ports::new(),
                vec![units_kernel::LinkClause::by_name(e, Ports::new(), Ports::new())],
            ))
        };
        let forbidden = forbid(&["u"]);
        assert!(is_valuable(&mk(Expr::var("outer_unit")), &forbidden));
        assert!(!is_valuable(&mk(Expr::var("u")), &forbidden));
    }
}
