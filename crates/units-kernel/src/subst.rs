//! Capture-avoiding substitution, for values and for types.
//!
//! Value substitution implements the `[v̄/x̄]e` operation of the paper's
//! reduction rules (Fig. 11). Binders that the language allows to be
//! α-renamed (λ-parameters, `let`/`letrec` definitions) are renamed on
//! demand; a unit's import and export names are part of its *linking
//! interface* and cannot be renamed ("UNITd does not allow α-renaming for a
//! unit's imported and exported variables"), so attempted capture there is
//! an invariant violation — the reducer only ever substitutes closed
//! values, which makes capture impossible for well-formed programs.
//!
//! Type substitution implements `[τ̄/t̄]` as used by the UNITc/UNITe typing
//! rules and the Fig. 18 expansion operator. Because signature port names
//! are likewise non-renamable, capture there surfaces as a
//! [`CaptureError`] that the checker converts into a diagnostic.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use crate::free::free_val_vars;
use crate::sig::{Ports, Signature};
use crate::symbol::{NameGen, Symbol};
use crate::term::{
    Binding, DataDefn, DataVariant, Expr, Lambda, LetrecExpr, TypeDefn, UnitExpr, ValDefn,
    VariantVal,
};
use crate::ty::Ty;

/// Substitution attempted to capture a variable under a binder that the
/// language forbids renaming (a unit or signature interface name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaptureError {
    /// The interface name that would capture a free variable.
    pub binder: Symbol,
}

impl std::fmt::Display for CaptureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "substitution would capture interface name `{}`, which cannot be renamed", self.binder)
    }
}

impl std::error::Error for CaptureError {}

#[derive(Clone)]
struct SubstVal {
    expr: Expr,
    fvs: Arc<BTreeSet<Symbol>>,
}

/// A prepared value substitution `[v̄/x̄]`.
///
/// # Examples
///
/// ```
/// use std::collections::HashMap;
/// use units_kernel::{Expr, NameGen, ValSubst};
/// let map = HashMap::from([("x".into(), Expr::int(7))]);
/// let subst = ValSubst::new(&map);
/// let mut gen = NameGen::new();
/// let out = subst.apply(&Expr::var("x"), &mut gen);
/// assert_eq!(out, Expr::int(7));
/// ```
pub struct ValSubst {
    entries: HashMap<Symbol, SubstVal>,
}

impl ValSubst {
    /// Prepares a substitution from a name → value map, precomputing the
    /// free variables of each replacement.
    pub fn new(map: &HashMap<Symbol, Expr>) -> ValSubst {
        let entries = map
            .iter()
            .map(|(k, v)| {
                (k.clone(), SubstVal { expr: v.clone(), fvs: Arc::new(free_val_vars(v)) })
            })
            .collect();
        ValSubst { entries }
    }

    /// Applies the substitution, renaming renamable binders as needed.
    ///
    /// # Panics
    ///
    /// Panics if capture would occur under a unit's interface binder; this
    /// cannot happen when every replacement is closed (the reducer's
    /// invariant).
    pub fn apply(&self, expr: &Expr, gen: &mut NameGen) -> Expr {
        go(expr, &self.entries, gen)
    }
}

/// One-shot convenience for [`ValSubst`].
pub fn subst_vals(expr: &Expr, map: &HashMap<Symbol, Expr>, gen: &mut NameGen) -> Expr {
    units_trace::count("kernel/subst_calls", 1);
    units_trace::count("kernel/subst_bindings", map.len() as u64);
    ValSubst::new(map).apply(expr, gen)
}

/// Splits `map` at a binder: removes shadowed entries and determines which
/// binder names must be renamed to avoid capturing a replacement's free
/// variable. Returns `None` when nothing is left to substitute.
fn at_binder(
    map: &HashMap<Symbol, SubstVal>,
    binders: &[Symbol],
    renamable: bool,
    gen: &mut NameGen,
) -> Option<(HashMap<Symbol, SubstVal>, HashMap<Symbol, Symbol>)> {
    let mut live: HashMap<Symbol, SubstVal> =
        map.iter().filter(|(k, _)| !binders.contains(k)).map(|(k, v)| (k.clone(), v.clone())).collect();
    if live.is_empty() {
        return None;
    }
    let mut renames = HashMap::new();
    for b in binders {
        let captured = live.values().any(|v| v.fvs.contains(b));
        if captured {
            if !renamable {
                panic!(
                    "substitution would capture non-renamable interface name `{b}` \
                     (reducer invariant: replacements must be closed)"
                );
            }
            let fresh = gen.fresh(b);
            renames.insert(b.clone(), fresh.clone());
            live.insert(
                b.clone(),
                SubstVal {
                    expr: Expr::Var(fresh.clone()),
                    fvs: Arc::new(BTreeSet::from([fresh])),
                },
            );
        }
    }
    Some((live, renames))
}

fn rename(renames: &HashMap<Symbol, Symbol>, name: &Symbol) -> Symbol {
    renames.get(name).cloned().unwrap_or_else(|| name.clone())
}

fn go(expr: &Expr, map: &HashMap<Symbol, SubstVal>, gen: &mut NameGen) -> Expr {
    if map.is_empty() {
        return expr.clone();
    }
    match expr {
        Expr::Var(x) => match map.get(x) {
            Some(v) => v.expr.clone(),
            None => expr.clone(),
        },
        // A resolved occurrence whose binder is substituted away loses its
        // (now meaningless) address along with the name.
        Expr::VarAt(x, _) => match map.get(x) {
            Some(v) => v.expr.clone(),
            None => expr.clone(),
        },
        Expr::Lit(_) | Expr::Prim(..) | Expr::Loc(_) | Expr::CellRef(_) | Expr::Data(_) => {
            expr.clone()
        }
        Expr::Lambda(lam) => {
            let binders: Vec<Symbol> = lam.params.iter().map(|p| p.name.clone()).collect();
            match at_binder(map, &binders, true, gen) {
                None => expr.clone(),
                Some((live, renames)) => {
                    let params = lam
                        .params
                        .iter()
                        .map(|p| crate::term::Param {
                            name: rename(&renames, &p.name),
                            ty: p.ty.clone(),
                        })
                        .collect();
                    Expr::Lambda(Arc::new(Lambda {
                        params,
                        ret_ty: lam.ret_ty.clone(),
                        body: go(&lam.body, &live, gen),
                    }))
                }
            }
        }
        Expr::App(f, args) => Expr::App(
            Box::new(go(f, map, gen)),
            args.iter().map(|a| go(a, map, gen)).collect(),
        ),
        Expr::If(c, t, e) => Expr::If(
            Box::new(go(c, map, gen)),
            Box::new(go(t, map, gen)),
            Box::new(go(e, map, gen)),
        ),
        Expr::Seq(es) => Expr::Seq(es.iter().map(|e| go(e, map, gen)).collect()),
        Expr::Tuple(es) => Expr::Tuple(es.iter().map(|e| go(e, map, gen)).collect()),
        Expr::Let(bindings, body) => {
            let new_rhs: Vec<Expr> = bindings.iter().map(|b| go(&b.expr, map, gen)).collect();
            let binders: Vec<Symbol> = bindings.iter().map(|b| b.name.clone()).collect();
            match at_binder(map, &binders, true, gen) {
                None => Expr::Let(
                    bindings
                        .iter()
                        .zip(new_rhs)
                        .map(|(b, expr)| Binding { name: b.name.clone(), expr })
                        .collect(),
                    Box::new((**body).clone()),
                ),
                Some((live, renames)) => Expr::Let(
                    bindings
                        .iter()
                        .zip(new_rhs)
                        .map(|(b, expr)| Binding { name: rename(&renames, &b.name), expr })
                        .collect(),
                    Box::new(go(body, &live, gen)),
                ),
            }
        }
        Expr::Letrec(lr) => {
            let mut binders: Vec<Symbol> = lr.vals.iter().map(|d| d.name.clone()).collect();
            for td in &lr.types {
                if let TypeDefn::Data(d) = td {
                    binders.extend(d.bound_val_names());
                }
            }
            match at_binder(map, &binders, true, gen) {
                None => expr.clone(),
                Some((live, renames)) => {
                    let types = lr
                        .types
                        .iter()
                        .map(|td| rename_typedefn_ops(td, &renames))
                        .collect();
                    let vals = lr
                        .vals
                        .iter()
                        .map(|d| ValDefn {
                            name: rename(&renames, &d.name),
                            ty: d.ty.clone(),
                            body: go(&d.body, &live, gen),
                        })
                        .collect();
                    Expr::Letrec(Arc::new(LetrecExpr { types, vals, body: go(&lr.body, &live, gen) }))
                }
            }
        }
        Expr::Set(target, value) => Expr::Set(
            Box::new(go(target, map, gen)),
            Box::new(go(value, map, gen)),
        ),
        Expr::Proj(i, e) => Expr::Proj(*i, Box::new(go(e, map, gen))),
        Expr::Unit(u) => {
            let mut binders: Vec<Symbol> =
                u.imports.vals.iter().map(|p| p.name.clone()).collect();
            binders.extend(u.defined_val_names());
            // Unit interface names (imports and exports) are not renamable;
            // internal definition names are, but renaming them would also
            // have to preserve exports, so we conservatively treat the whole
            // unit as non-renamable. Capture is impossible for closed
            // replacements.
            match at_binder(map, &binders, false, gen) {
                None => expr.clone(),
                Some((live, _)) => Expr::Unit(Arc::new(UnitExpr {
                    imports: u.imports.clone(),
                    exports: u.exports.clone(),
                    types: u.types.clone(),
                    vals: u
                        .vals
                        .iter()
                        .map(|d| ValDefn {
                            name: d.name.clone(),
                            ty: d.ty.clone(),
                            body: go(&d.body, &live, gen),
                        })
                        .collect(),
                    init: go(&u.init, &live, gen),
                })),
            }
        }
        Expr::Compound(c) => {
            let links = c
                .links
                .iter()
                .map(|l| crate::term::LinkClause {
                    expr: go(&l.expr, map, gen),
                    with: l.with.clone(),
                    provides: l.provides.clone(),
                    renames: l.renames.clone(),
                })
                .collect();
            Expr::Compound(Arc::new(crate::term::CompoundExpr::new(
                c.imports.clone(),
                c.exports.clone(),
                links,
            )))
        }
        Expr::Invoke(inv) => Expr::Invoke(Arc::new(crate::term::InvokeExpr {
            target: go(&inv.target, map, gen),
            ty_links: inv.ty_links.clone(),
            val_links: inv
                .val_links
                .iter()
                .map(|(n, e)| (n.clone(), go(e, map, gen)))
                .collect(),
        })),
        Expr::Seal(e, sig) => Expr::Seal(Box::new(go(e, map, gen)), sig.clone()),
        Expr::Variant(v) => Expr::Variant(Arc::new(VariantVal {
            ty_name: v.ty_name.clone(),
            instance: v.instance,
            tag: v.tag,
            payload: go(&v.payload, map, gen),
        })),
    }
}

fn rename_typedefn_ops(td: &TypeDefn, renames: &HashMap<Symbol, Symbol>) -> TypeDefn {
    match td {
        TypeDefn::Data(d) => TypeDefn::Data(DataDefn {
            name: d.name.clone(),
            variants: d
                .variants
                .iter()
                .map(|v| DataVariant {
                    ctor: rename(renames, &v.ctor),
                    dtor: rename(renames, &v.dtor),
                    payload: v.payload.clone(),
                })
                .collect(),
            predicate: rename(renames, &d.predicate),
        }),
        TypeDefn::Alias(a) => TypeDefn::Alias(a.clone()),
    }
}

// ---------------------------------------------------------------------------
// Type substitution
// ---------------------------------------------------------------------------

/// Applies `[τ̄/t̄]` to a type expression.
///
/// # Errors
///
/// Returns [`CaptureError`] if a replacement's free type variable would be
/// captured by a signature's bound (interface) type names, which the
/// language forbids renaming.
///
/// # Examples
///
/// ```
/// use std::collections::HashMap;
/// use units_kernel::{subst_ty, Ty};
/// let map = HashMap::from([("info".into(), Ty::Int)]);
/// let t = subst_ty(&Ty::arrow(vec![Ty::var("info")], Ty::Void), &map).unwrap();
/// assert_eq!(t, Ty::arrow(vec![Ty::Int], Ty::Void));
/// ```
pub fn subst_ty(ty: &Ty, map: &HashMap<Symbol, Ty>) -> Result<Ty, CaptureError> {
    if map.is_empty() {
        return Ok(ty.clone());
    }
    Ok(match ty {
        Ty::Var(t) => match map.get(t) {
            Some(replacement) => replacement.clone(),
            None => ty.clone(),
        },
        Ty::Int | Ty::Bool | Ty::Str | Ty::Void => ty.clone(),
        Ty::Arrow(params, ret) => Ty::Arrow(
            params.iter().map(|p| subst_ty(p, map)).collect::<Result<_, _>>()?,
            Box::new(subst_ty(ret, map)?),
        ),
        Ty::Tuple(items) => {
            Ty::Tuple(items.iter().map(|i| subst_ty(i, map)).collect::<Result<_, _>>()?)
        }
        Ty::Hash(elem) => Ty::Hash(Box::new(subst_ty(elem, map)?)),
        Ty::Sig(sig) => Ty::Sig(Box::new(subst_ty_in_sig(sig, map)?)),
    })
}

/// Applies `[τ̄/t̄]` to a signature, respecting its bound type variables.
///
/// # Errors
///
/// Returns [`CaptureError`] if a replacement mentions a type variable that
/// the signature itself binds.
pub fn subst_ty_in_sig(
    sig: &Signature,
    map: &HashMap<Symbol, Ty>,
) -> Result<Signature, CaptureError> {
    let bound = sig.bound_ty_vars();
    let live: HashMap<Symbol, Ty> =
        map.iter().filter(|(k, _)| !bound.contains(*k)).map(|(k, v)| (k.clone(), v.clone())).collect();
    if live.is_empty() {
        return Ok(sig.clone());
    }
    for b in &bound {
        for replacement in live.values() {
            let mut fvs = BTreeSet::new();
            replacement.free_ty_vars(&mut fvs);
            if fvs.contains(b) {
                return Err(CaptureError { binder: b.clone() });
            }
        }
    }
    let subst_ports = |ports: &Ports| -> Result<Ports, CaptureError> {
        Ok(Ports {
            types: ports.types.clone(),
            vals: ports
                .vals
                .iter()
                .map(|p| {
                    Ok(crate::sig::ValPort {
                        name: p.name.clone(),
                        ty: p.ty.as_ref().map(|t| subst_ty(t, &live)).transpose()?,
                    })
                })
                .collect::<Result<_, CaptureError>>()?,
        })
    };
    Ok(Signature {
        imports: subst_ports(&sig.imports)?,
        exports: subst_ports(&sig.exports)?,
        depends: sig.depends.clone(),
        equations: sig
            .equations
            .iter()
            .map(|eq| {
                Ok(crate::sig::SigEquation {
                    name: eq.name.clone(),
                    kind: eq.kind.clone(),
                    body: subst_ty(&eq.body, &live)?,
                })
            })
            .collect::<Result<_, CaptureError>>()?,
        init_ty: subst_ty(&sig.init_ty, &live)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sig::{TyPort, ValPort};
    use crate::term::Param;

    fn one(name: &str, v: Expr) -> HashMap<Symbol, Expr> {
        HashMap::from([(Symbol::new(name), v)])
    }

    #[test]
    fn substitutes_free_occurrences_only() {
        let e = Expr::lambda(vec![Param::untyped("x")], Expr::var("y"));
        let mut gen = NameGen::new();
        let out = subst_vals(&e, &one("y", Expr::int(1)), &mut gen);
        match out {
            Expr::Lambda(lam) => assert_eq!(lam.body, Expr::int(1)),
            other => panic!("expected lambda, got {other:?}"),
        }
    }

    #[test]
    fn shadowed_variables_are_untouched() {
        let e = Expr::lambda(vec![Param::untyped("x")], Expr::var("x"));
        let mut gen = NameGen::new();
        let out = subst_vals(&e, &one("x", Expr::int(1)), &mut gen);
        assert_eq!(out, e);
    }

    #[test]
    fn capture_is_avoided_by_renaming() {
        // [y := x] (fn (x) ⇒ y)  must not capture the free x.
        let e = Expr::lambda(vec![Param::untyped("x")], Expr::var("y"));
        let mut gen = NameGen::new();
        let out = subst_vals(&e, &one("y", Expr::var("x")), &mut gen);
        match out {
            Expr::Lambda(lam) => {
                assert_ne!(lam.params[0].name.as_str(), "x", "binder must be renamed");
                assert_eq!(lam.body, Expr::var("x"), "free x must remain free");
            }
            other => panic!("expected lambda, got {other:?}"),
        }
    }

    #[test]
    fn set_targets_are_substituted() {
        let e = Expr::set("cell", Expr::int(5));
        let mut gen = NameGen::new();
        let out = subst_vals(&e, &one("cell", Expr::CellRef(crate::term::Loc(3))), &mut gen);
        match out {
            Expr::Set(target, _) => assert_eq!(*target, Expr::CellRef(crate::term::Loc(3))),
            other => panic!("expected set, got {other:?}"),
        }
    }

    #[test]
    fn letrec_shadowing_blocks_substitution_in_bodies() {
        let e = Expr::Letrec(Arc::new(LetrecExpr {
            types: vec![],
            vals: vec![ValDefn { name: "f".into(), ty: None, body: Expr::var("f") }],
            body: Expr::var("f"),
        }));
        let mut gen = NameGen::new();
        let out = subst_vals(&e, &one("f", Expr::int(9)), &mut gen);
        assert_eq!(out, e);
    }

    #[test]
    fn ty_subst_replaces_variables() {
        let map = HashMap::from([(Symbol::new("t"), Ty::Int)]);
        let out = subst_ty(&Ty::Tuple(vec![Ty::var("t"), Ty::var("u")]), &map).unwrap();
        assert_eq!(out, Ty::Tuple(vec![Ty::Int, Ty::var("u")]));
    }

    #[test]
    fn ty_subst_respects_sig_binders() {
        let sig = Signature {
            imports: Ports { types: vec![TyPort::star("t")], vals: vec![] },
            exports: Ports {
                types: vec![],
                vals: vec![ValPort::typed("x", Ty::var("t"))],
            },
            depends: vec![],
            equations: vec![],
            init_ty: Ty::Void,
        };
        let map = HashMap::from([(Symbol::new("t"), Ty::Int)]);
        let out = subst_ty_in_sig(&sig, &map).unwrap();
        // `t` is bound by the signature, so nothing changes.
        assert_eq!(out, sig);
    }

    #[test]
    fn ty_subst_reports_interface_capture() {
        let sig = Signature {
            imports: Ports { types: vec![TyPort::star("t")], vals: vec![] },
            exports: Ports {
                types: vec![],
                vals: vec![ValPort::typed("x", Ty::var("u"))],
            },
            depends: vec![],
            equations: vec![],
            init_ty: Ty::Void,
        };
        // Substituting u ↦ t would capture `t` under the signature binder.
        let map = HashMap::from([(Symbol::new("u"), Ty::var("t"))]);
        let err = subst_ty_in_sig(&sig, &map).unwrap_err();
        assert_eq!(err.binder.as_str(), "t");
    }

    #[test]
    fn substitution_into_unit_bodies_reaches_free_imports_of_context() {
        // unit import () export (go) val go = fn () ⇒ outer in go
        let u = Expr::unit(UnitExpr {
            imports: Ports::new(),
            exports: Ports::untyped(Vec::<&str>::new(), ["go"]),
            types: vec![],
            vals: vec![ValDefn {
                name: "go".into(),
                ty: None,
                body: Expr::thunk(Expr::var("outer")),
            }],
            init: Expr::var("go"),
        });
        let mut gen = NameGen::new();
        let out = subst_vals(&u, &one("outer", Expr::int(42)), &mut gen);
        match out {
            Expr::Unit(unit) => match &unit.vals[0].body {
                Expr::Lambda(lam) => assert_eq!(lam.body, Expr::int(42)),
                other => panic!("expected lambda, got {other:?}"),
            },
            other => panic!("expected unit, got {other:?}"),
        }
    }
}
