//! The `compound` reduction (paper Fig. 11, illustrated graphically in
//! Fig. 8): once every constituent is a unit value, the units merge into
//! one. The merge itself is [`units_kernel::merge_compound`], which the
//! compiler shares; its refusals convert to [`RuntimeError`]s.

use units_kernel::{Expr, UnitExpr};
use units_runtime::RuntimeError;

/// Extracts the constituent unit values a `compound` is about to merge.
///
/// The Fig. 11 `compound` rule only fires once every linked constituent
/// has reduced to an atomic unit value; a non-unit constituent is the
/// typed [`RuntimeError::NotAUnit`] naming the rule mid-fire, never a
/// panic.
///
/// # Errors
///
/// [`RuntimeError::NotAUnit`] for the first non-unit constituent.
pub fn constituent_units(
    compound: &units_kernel::CompoundExpr,
) -> Result<Vec<std::sync::Arc<UnitExpr>>, RuntimeError> {
    compound
        .links
        .iter()
        .map(|l| match &l.expr {
            Expr::Unit(u) => Ok(u.clone()),
            other => Err(RuntimeError::NotAUnit { rule: "compound", found: crate::render(other) }),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use units_kernel::{alpha_eq, merge_compound, MergeError, NameGen, TypeDefn};
    use units_syntax::parse_expr;

    fn compound_parts(src: &str) -> (units_kernel::CompoundExpr, Vec<std::sync::Arc<UnitExpr>>) {
        let compound = match parse_expr(src).unwrap() {
            Expr::Compound(c) => (*c).clone(),
            ref other => {
                panic!("test source must parse to a compound, got {}", crate::render(other))
            }
        };
        let units = constituent_units(&compound).unwrap();
        (compound, units)
    }

    #[test]
    fn fig8_merge_matches_the_expected_unit() {
        // compound(Database-like, NumberInfo-like) reduces to the merged
        // atomic unit of Fig. 8 (modulo α-renaming of internals).
        let (c, units) = compound_parts(
            "(compound (import error) (export new numInfo)
               (link ((unit (import mkinfo error) (export new)
                        (define helper (lambda () (mkinfo 1)))
                        (define new (lambda () (helper)))
                        (init (display \"db-up\")))
                      (with mkinfo error) (provides new))
                     ((unit (import) (export mkinfo numInfo)
                        (define mkinfo (lambda (n) n))
                        (define numInfo (lambda (n) (mkinfo n))))
                      (with) (provides mkinfo numInfo))))",
        );
        let mut gen = NameGen::new();
        let merged = merge_compound(&c, &units, &mut gen).unwrap();

        let expected = match parse_expr(
            "(unit (import error) (export new numInfo)
               (define h2 (lambda () (mkinfo 1)))
               (define new (lambda () (h2)))
               (define mkinfo (lambda (n) n))
               (define numInfo (lambda (n) (mkinfo n)))
               (init (begin (display \"db-up\") void)))",
        )
        .unwrap()
        {
            Expr::Unit(u) => u,
            _ => unreachable!(),
        };
        // The merged init is Seq([init1, init2]); the expected text mirrors
        // that shape.
        assert!(
            alpha_eq(&Expr::Unit(merged.clone().into()), &Expr::Unit(expected)),
            "merged unit differs:\n{merged:#?}"
        );
    }

    #[test]
    fn colliding_internal_names_are_freshened() {
        let (c, units) = compound_parts(
            "(compound (import) (export a b)
               (link ((unit (import) (export a)
                        (define helper (lambda () 1))
                        (define a (lambda () (helper))))
                      (with) (provides a))
                     ((unit (import) (export b)
                        (define helper (lambda () 2))
                        (define b (lambda () (helper))))
                      (with) (provides b))))",
        );
        let mut gen = NameGen::new();
        let merged = merge_compound(&c, &units, &mut gen).unwrap();
        let names: Vec<&str> = merged.vals.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names.len(), 4);
        let uniq: BTreeSet<&&str> = names.iter().collect();
        assert_eq!(uniq.len(), 4, "names not distinct: {names:?}");
        // The second helper's use site was renamed consistently.
        let b_defn = merged.vals.iter().find(|d| d.name.as_str() == "b").unwrap();
        match &b_defn.body {
            Expr::Lambda(lam) => match &lam.body {
                Expr::App(f, _) => match &**f {
                    Expr::Var(v) => {
                        assert_ne!(v.as_str(), "helper");
                        assert_eq!(v.base(), "helper");
                    }
                    other => panic!("unexpected {other:?}"),
                },
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn missing_provides_and_excess_imports_error() {
        let (c, units) = compound_parts(
            "(compound (import) (export)
               (link ((unit (import) (export)) (with) (provides ghost))))",
        );
        let mut gen = NameGen::new();
        assert!(matches!(
            merge_compound(&c, &units, &mut gen),
            Err(MergeError::MissingProvide { name }) if name.as_str() == "ghost"
        ));

        let (c, units) = compound_parts(
            "(compound (import) (export)
               (link ((unit (import x) (export) (init void)) (with) (provides))))",
        );
        assert!(matches!(
            merge_compound(&c, &units, &mut gen),
            Err(MergeError::ExcessImport { name }) if name.as_str() == "x"
        ));
    }

    #[test]
    fn datatype_operations_rename_with_their_unit() {
        let (c, units) = compound_parts(
            "(compound (import) (export go)
               (link ((unit (import) (export go)
                        (datatype t (mk unmk int) t?)
                        (define go (lambda () (unmk (mk 3)))))
                      (with) (provides go))
                     ((unit (import) (export)
                        (datatype t (mk unmk int) t?)
                        (define local (lambda () (mk 1))))
                      (with) (provides))))",
        );
        let mut gen = NameGen::new();
        let merged = merge_compound(&c, &units, &mut gen).unwrap();
        assert_eq!(merged.types.len(), 2);
        // All datatype operation names in the merged unit are distinct.
        let mut ops = Vec::new();
        for td in &merged.types {
            if let TypeDefn::Data(d) = td {
                ops.extend(d.bound_val_names());
            }
        }
        let uniq: BTreeSet<_> = ops.iter().collect();
        assert_eq!(uniq.len(), ops.len(), "ops not distinct: {ops:?}");
    }
}
