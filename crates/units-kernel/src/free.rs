//! Free-variable computation for value variables.
//!
//! The binding structure follows the paper's grammars:
//!
//! * `fn (x…) ⇒ e` binds `x…` in `e`;
//! * `let x = e in b` binds `x…` in `b` only;
//! * `letrec` binds every defined value name (including datatype
//!   constructors/deconstructors/predicates) in every definition body and
//!   the block body;
//! * a `unit` binds its imported value names and defined value names in its
//!   definitions and initialization expression;
//! * `compound`/`invoke` `with`/`provides` name lists are port labels, not
//!   variable occurrences.

use std::collections::BTreeSet;

use crate::symbol::Symbol;
use crate::term::{Expr, TypeDefn, UnitExpr, ValDefn};

/// Returns the free *value* variables of an expression.
///
/// # Examples
///
/// ```
/// use units_kernel::{free_val_vars, Expr, Param};
/// let e = Expr::lambda(vec![Param::untyped("x")],
///                      Expr::app(Expr::var("f"), vec![Expr::var("x")]));
/// let free = free_val_vars(&e);
/// assert!(free.contains("f"));
/// assert!(!free.contains("x"));
/// ```
pub fn free_val_vars(expr: &Expr) -> BTreeSet<Symbol> {
    let mut out = BTreeSet::new();
    collect_val(expr, &mut BTreeSet::new(), &mut out);
    out
}

fn collect_val(expr: &Expr, bound: &mut BTreeSet<Symbol>, out: &mut BTreeSet<Symbol>) {
    match expr {
        Expr::Var(x) | Expr::VarAt(x, _) => {
            if !bound.contains(x) {
                out.insert(x.clone());
            }
        }
        Expr::Lit(_) | Expr::Prim(..) | Expr::Loc(_) | Expr::CellRef(_) | Expr::Data(_) => {}
        Expr::Lambda(lam) => {
            with_bound(bound, lam.params.iter().map(|p| p.name.clone()), |bound| {
                collect_val(&lam.body, bound, out);
            });
        }
        Expr::App(func, args) => {
            collect_val(func, bound, out);
            for a in args {
                collect_val(a, bound, out);
            }
        }
        Expr::If(c, t, e) => {
            collect_val(c, bound, out);
            collect_val(t, bound, out);
            collect_val(e, bound, out);
        }
        Expr::Seq(es) | Expr::Tuple(es) => {
            for e in es {
                collect_val(e, bound, out);
            }
        }
        Expr::Let(bindings, body) => {
            for b in bindings {
                collect_val(&b.expr, bound, out);
            }
            with_bound(bound, bindings.iter().map(|b| b.name.clone()), |bound| {
                collect_val(body, bound, out);
            });
        }
        Expr::Letrec(lr) => {
            let mut names: Vec<Symbol> = lr.vals.iter().map(|d| d.name.clone()).collect();
            for td in &lr.types {
                if let TypeDefn::Data(d) = td {
                    names.extend(d.bound_val_names());
                }
            }
            with_bound(bound, names, |bound| {
                for d in &lr.vals {
                    collect_val(&d.body, bound, out);
                }
                collect_val(&lr.body, bound, out);
            });
        }
        Expr::Set(target, value) => {
            collect_val(target, bound, out);
            collect_val(value, bound, out);
        }
        Expr::Proj(_, e) => collect_val(e, bound, out),
        Expr::Unit(u) => collect_unit_val(u, bound, out),
        Expr::Compound(c) => {
            for link in &c.links {
                collect_val(&link.expr, bound, out);
            }
        }
        Expr::Invoke(inv) => {
            collect_val(&inv.target, bound, out);
            for (_, e) in &inv.val_links {
                collect_val(e, bound, out);
            }
        }
        Expr::Seal(e, _) => collect_val(e, bound, out),
        Expr::Variant(v) => collect_val(&v.payload, bound, out),
    }
}

fn collect_unit_val(u: &UnitExpr, bound: &mut BTreeSet<Symbol>, out: &mut BTreeSet<Symbol>) {
    let mut names: Vec<Symbol> = u.imports.vals.iter().map(|p| p.name.clone()).collect();
    names.extend(u.defined_val_names());
    with_bound(bound, names, |bound| {
        for d in &u.vals {
            collect_val(&d.body, bound, out);
        }
        collect_val(&u.init, bound, out);
    });
}

fn with_bound<I>(bound: &mut BTreeSet<Symbol>, names: I, f: impl FnOnce(&mut BTreeSet<Symbol>))
where
    I: IntoIterator<Item = Symbol>,
{
    let added: Vec<Symbol> = names.into_iter().filter(|n| bound.insert(n.clone())).collect();
    f(bound);
    for n in added {
        bound.remove(&n);
    }
}

/// Returns `true` when `expr` has no free value variables, i.e. when
/// [`free_val_vars`] would be empty. One walk that stops at the first
/// free variable and builds no set: the names in scope are a stack.
///
/// ```
/// use units_kernel::{is_closed, Expr, Param};
/// let id = Expr::lambda(vec![Param::untyped("x")], Expr::var("x"));
/// assert!(is_closed(&id));
/// assert!(!is_closed(&Expr::lambda(vec![], Expr::var("x"))));
/// ```
pub fn is_closed(expr: &Expr) -> bool {
    closed(expr, &mut Vec::new())
}

fn closed(expr: &Expr, bound: &mut Vec<Symbol>) -> bool {
    match expr {
        Expr::Var(x) | Expr::VarAt(x, _) => bound.contains(x),
        Expr::Lit(_) | Expr::Prim(..) | Expr::Loc(_) | Expr::CellRef(_) | Expr::Data(_) => true,
        Expr::Lambda(lam) => scoped(bound, |bound| {
            bound.extend(lam.params.iter().map(|p| p.name.clone()));
            closed(&lam.body, bound)
        }),
        Expr::App(func, args) => closed(func, bound) && args.iter().all(|a| closed(a, bound)),
        Expr::If(c, t, e) => closed(c, bound) && closed(t, bound) && closed(e, bound),
        Expr::Seq(es) | Expr::Tuple(es) => es.iter().all(|e| closed(e, bound)),
        Expr::Let(bindings, body) => {
            bindings.iter().all(|b| closed(&b.expr, bound))
                && scoped(bound, |bound| {
                    bound.extend(bindings.iter().map(|b| b.name.clone()));
                    closed(body, bound)
                })
        }
        Expr::Letrec(lr) => scoped(bound, |bound| {
            push_defined(bound, &lr.types, &lr.vals);
            lr.vals.iter().all(|d| closed(&d.body, bound)) && closed(&lr.body, bound)
        }),
        Expr::Set(target, value) => closed(target, bound) && closed(value, bound),
        Expr::Proj(_, e) | Expr::Seal(e, _) => closed(e, bound),
        Expr::Unit(u) => scoped(bound, |bound| {
            bound.extend(u.imports.vals.iter().map(|p| p.name.clone()));
            push_defined(bound, &u.types, &u.vals);
            u.vals.iter().all(|d| closed(&d.body, bound)) && closed(&u.init, bound)
        }),
        Expr::Compound(c) => c.links.iter().all(|link| closed(&link.expr, bound)),
        Expr::Invoke(inv) => {
            closed(&inv.target, bound) && inv.val_links.iter().all(|(_, e)| closed(e, bound))
        }
        Expr::Variant(v) => closed(&v.payload, bound),
    }
}

/// Runs `f` on `bound`, then drops whatever `f` pushed.
fn scoped(bound: &mut Vec<Symbol>, f: impl FnOnce(&mut Vec<Symbol>) -> bool) -> bool {
    let depth = bound.len();
    let closed = f(bound);
    bound.truncate(depth);
    closed
}

/// Pushes the value names a block of definitions binds: datatype
/// operations and value definitions.
fn push_defined(bound: &mut Vec<Symbol>, types: &[TypeDefn], vals: &[ValDefn]) {
    for td in types {
        if let TypeDefn::Data(d) = td {
            for v in &d.variants {
                bound.push(v.ctor.clone());
                bound.push(v.dtor.clone());
            }
            bound.push(d.predicate.clone());
        }
    }
    bound.extend(vals.iter().map(|d| d.name.clone()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sig::Ports;
    use crate::term::{Binding, DataDefn, DataVariant, LetrecExpr, Param, ValDefn};
    use crate::ty::Ty;

    fn names(set: &BTreeSet<Symbol>) -> Vec<&str> {
        set.iter().map(|s| s.as_str()).collect()
    }

    #[test]
    fn lambda_binds_parameters() {
        let e = Expr::lambda(
            vec![Param::untyped("x"), Param::untyped("y")],
            Expr::app(Expr::var("f"), vec![Expr::var("x"), Expr::var("y"), Expr::var("z")]),
        );
        assert_eq!(names(&free_val_vars(&e)), vec!["f", "z"]);
    }

    #[test]
    fn let_bindings_scope_only_over_body() {
        let e = Expr::Let(
            vec![Binding { name: "x".into(), expr: Expr::var("x") }],
            Box::new(Expr::var("x")),
        );
        // The right-hand side `x` is free (let is not recursive); the body
        // `x` is bound.
        assert_eq!(names(&free_val_vars(&e)), vec!["x"]);
    }

    #[test]
    fn letrec_binds_in_definitions_and_body() {
        let e = Expr::Letrec(std::sync::Arc::new(LetrecExpr {
            types: vec![],
            vals: vec![ValDefn {
                name: "odd".into(),
                ty: None,
                body: Expr::lambda(vec![Param::untyped("n")], Expr::var("even")),
            }],
            body: Expr::var("odd"),
        }));
        assert_eq!(names(&free_val_vars(&e)), vec!["even"]);
    }

    #[test]
    fn letrec_datatype_operations_are_bound() {
        let e = Expr::Letrec(std::sync::Arc::new(LetrecExpr {
            types: vec![TypeDefn::Data(DataDefn {
                name: "t".into(),
                variants: vec![DataVariant {
                    ctor: "mk".into(),
                    dtor: "unmk".into(),
                    payload: Ty::Int,
                }],
                predicate: "t?".into(),
            })],
            vals: vec![],
            body: Expr::app(Expr::var("mk"), vec![Expr::var("free")]),
        }));
        assert_eq!(names(&free_val_vars(&e)), vec!["free"]);
    }

    #[test]
    fn unit_binds_imports_and_definitions() {
        let u = Expr::unit(crate::term::UnitExpr {
            imports: Ports::untyped(Vec::<&str>::new(), ["error"]),
            exports: Ports::untyped(Vec::<&str>::new(), ["go"]),
            types: vec![],
            vals: vec![ValDefn {
                name: "go".into(),
                ty: None,
                body: Expr::thunk(Expr::app(Expr::var("error"), vec![Expr::var("outer")])),
            }],
            init: Expr::var("go"),
        });
        assert_eq!(names(&free_val_vars(&u)), vec!["outer"]);
    }

    #[test]
    fn invoke_link_names_are_labels_not_occurrences() {
        let e = Expr::invoke(crate::term::InvokeExpr {
            target: Expr::var("u"),
            ty_links: vec![],
            val_links: vec![("error".into(), Expr::var("handler"))],
        });
        assert_eq!(names(&free_val_vars(&e)), vec!["handler", "u"]);
    }
}
