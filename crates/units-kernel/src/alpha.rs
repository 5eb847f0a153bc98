//! α-equivalence of terms.
//!
//! The `compound` reduction (Fig. 11) renames a constituent's internal
//! definitions with fresh names, so tests that compare a reduced compound
//! against the expected merged unit (Fig. 8) must compare *up to consistent
//! renaming of bound names*. Interface names — a unit's imports and
//! exports, a signature's ports — are not renamable and must match
//! literally, exactly as in the paper.

use crate::sig::{Ports, Signature};
use crate::symbol::Symbol;
use crate::term::{Expr, TypeDefn};
use crate::ty::Ty;

/// Tracks the correspondence between bound names on the two sides.
#[derive(Default)]
struct AlphaEnv {
    vals: Vec<(Symbol, Symbol)>,
    tys: Vec<(Symbol, Symbol)>,
}

impl AlphaEnv {
    fn with_vals<R>(&mut self, pairs: Vec<(Symbol, Symbol)>, f: impl FnOnce(&mut Self) -> R) -> R {
        let depth = self.vals.len();
        self.vals.extend(pairs);
        let r = f(self);
        self.vals.truncate(depth);
        r
    }

    fn with_tys<R>(&mut self, pairs: Vec<(Symbol, Symbol)>, f: impl FnOnce(&mut Self) -> R) -> R {
        let depth = self.tys.len();
        self.tys.extend(pairs);
        let r = f(self);
        self.tys.truncate(depth);
        r
    }

    fn val_eq(&self, a: &Symbol, b: &Symbol) -> bool {
        for (l, r) in self.vals.iter().rev() {
            if l == a || r == b {
                return l == a && r == b;
            }
        }
        a == b
    }

    fn ty_eq(&self, a: &Symbol, b: &Symbol) -> bool {
        for (l, r) in self.tys.iter().rev() {
            if l == a || r == b {
                return l == a && r == b;
            }
        }
        a == b
    }
}

/// Returns `true` when the two expressions are equal up to consistent
/// renaming of bound (non-interface) names.
///
/// # Examples
///
/// ```
/// use units_kernel::{alpha_eq, Expr, Param};
/// let f = Expr::lambda(vec![Param::untyped("x")], Expr::var("x"));
/// let g = Expr::lambda(vec![Param::untyped("y")], Expr::var("y"));
/// assert!(alpha_eq(&f, &g));
/// let h = Expr::lambda(vec![Param::untyped("x")], Expr::var("z"));
/// assert!(!alpha_eq(&f, &h));
/// ```
pub fn alpha_eq(a: &Expr, b: &Expr) -> bool {
    eq_expr(a, b, &mut AlphaEnv::default())
}

fn eq_opt_ty(a: &Option<Ty>, b: &Option<Ty>, env: &mut AlphaEnv) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => eq_ty(a, b, env),
        _ => false,
    }
}

fn eq_ty(a: &Ty, b: &Ty, env: &mut AlphaEnv) -> bool {
    match (a, b) {
        (Ty::Var(x), Ty::Var(y)) => env.ty_eq(x, y),
        (Ty::Int, Ty::Int) | (Ty::Bool, Ty::Bool) | (Ty::Str, Ty::Str) | (Ty::Void, Ty::Void) => {
            true
        }
        (Ty::Arrow(p1, r1), Ty::Arrow(p2, r2)) => {
            p1.len() == p2.len()
                && p1.iter().zip(p2).all(|(x, y)| eq_ty(x, y, env))
                && eq_ty(r1, r2, env)
        }
        (Ty::Tuple(x), Ty::Tuple(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(x, y)| eq_ty(x, y, env))
        }
        (Ty::Hash(x), Ty::Hash(y)) => eq_ty(x, y, env),
        (Ty::Sig(s1), Ty::Sig(s2)) => eq_sig(s1, s2, env),
        _ => false,
    }
}

fn eq_sig(a: &Signature, b: &Signature, env: &mut AlphaEnv) -> bool {
    let bound_a = a.bound_ty_vars();
    let bound_b = b.bound_ty_vars();
    if bound_a != bound_b {
        return false;
    }
    let identity: Vec<(Symbol, Symbol)> = bound_a.iter().map(|t| (t.clone(), t.clone())).collect();
    env.with_tys(identity, |env| {
        eq_ports(&a.imports, &b.imports, env)
            && eq_ports(&a.exports, &b.exports, env)
            && a.depend_set() == b.depend_set()
            && a.equations.len() == b.equations.len()
            && a.equations
                .iter()
                .zip(&b.equations)
                .all(|(x, y)| x.name == y.name && x.kind == y.kind && eq_ty(&x.body, &y.body, env))
            && eq_ty(&a.init_ty, &b.init_ty, env)
    })
}

fn eq_ports(a: &Ports, b: &Ports, env: &mut AlphaEnv) -> bool {
    a.types.len() == b.types.len()
        && a.vals.len() == b.vals.len()
        && a.types.iter().zip(&b.types).all(|(x, y)| x.name == y.name && x.kind == y.kind)
        && a.vals.iter().zip(&b.vals).all(|(x, y)| x.name == y.name && eq_opt_ty(&x.ty, &y.ty, env))
}

/// Pairs of corresponding bound names on the two sides.
type NamePairs = Vec<(Symbol, Symbol)>;

fn typedefn_pairs(a: &[TypeDefn], b: &[TypeDefn]) -> Option<(NamePairs, NamePairs)> {
    if a.len() != b.len() {
        return None;
    }
    let mut ty_pairs = Vec::new();
    let mut val_pairs = Vec::new();
    for (x, y) in a.iter().zip(b) {
        match (x, y) {
            (TypeDefn::Data(dx), TypeDefn::Data(dy)) => {
                if dx.variants.len() != dy.variants.len() {
                    return None;
                }
                ty_pairs.push((dx.name.clone(), dy.name.clone()));
                for (vx, vy) in dx.variants.iter().zip(&dy.variants) {
                    val_pairs.push((vx.ctor.clone(), vy.ctor.clone()));
                    val_pairs.push((vx.dtor.clone(), vy.dtor.clone()));
                }
                val_pairs.push((dx.predicate.clone(), dy.predicate.clone()));
            }
            (TypeDefn::Alias(ax), TypeDefn::Alias(ay)) => {
                if ax.kind != ay.kind {
                    return None;
                }
                ty_pairs.push((ax.name.clone(), ay.name.clone()));
            }
            _ => return None,
        }
    }
    Some((ty_pairs, val_pairs))
}

fn eq_typedefn_bodies(a: &[TypeDefn], b: &[TypeDefn], env: &mut AlphaEnv) -> bool {
    a.iter().zip(b).all(|(x, y)| match (x, y) {
        (TypeDefn::Data(dx), TypeDefn::Data(dy)) => dx
            .variants
            .iter()
            .zip(&dy.variants)
            .all(|(vx, vy)| eq_ty(&vx.payload, &vy.payload, env)),
        (TypeDefn::Alias(ax), TypeDefn::Alias(ay)) => eq_ty(&ax.body, &ay.body, env),
        _ => false,
    })
}

fn eq_expr(a: &Expr, b: &Expr, env: &mut AlphaEnv) -> bool {
    match (a, b) {
        (Expr::Var(x), Expr::Var(y)) => env.val_eq(x, y),
        // Addresses are derived data; α-equivalence compares the names.
        (Expr::VarAt(x, _), Expr::VarAt(y, _))
        | (Expr::VarAt(x, _), Expr::Var(y))
        | (Expr::Var(x), Expr::VarAt(y, _)) => env.val_eq(x, y),
        (Expr::Lit(x), Expr::Lit(y)) => x == y,
        (Expr::Prim(px, tx), Expr::Prim(py, ty)) => {
            px == py && tx.len() == ty.len() && tx.iter().zip(ty).all(|(x, y)| eq_ty(x, y, env))
        }
        (Expr::Lambda(la), Expr::Lambda(lb)) => {
            la.params.len() == lb.params.len()
                && la.params.iter().zip(&lb.params).all(|(x, y)| eq_opt_ty(&x.ty, &y.ty, env))
                && eq_opt_ty(&la.ret_ty, &lb.ret_ty, env)
                && {
                    let pairs = la
                        .params
                        .iter()
                        .zip(&lb.params)
                        .map(|(x, y)| (x.name.clone(), y.name.clone()))
                        .collect();
                    env.with_vals(pairs, |env| eq_expr(&la.body, &lb.body, env))
                }
        }
        (Expr::App(f1, a1), Expr::App(f2, a2)) => {
            eq_expr(f1, f2, env)
                && a1.len() == a2.len()
                && a1.iter().zip(a2).all(|(x, y)| eq_expr(x, y, env))
        }
        (Expr::If(c1, t1, e1), Expr::If(c2, t2, e2)) => {
            eq_expr(c1, c2, env) && eq_expr(t1, t2, env) && eq_expr(e1, e2, env)
        }
        (Expr::Seq(x), Expr::Seq(y)) | (Expr::Tuple(x), Expr::Tuple(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(x, y)| eq_expr(x, y, env))
        }
        (Expr::Let(b1, body1), Expr::Let(b2, body2)) => {
            b1.len() == b2.len()
                && b1.iter().zip(b2).all(|(x, y)| eq_expr(&x.expr, &y.expr, env))
                && {
                    let pairs =
                        b1.iter().zip(b2).map(|(x, y)| (x.name.clone(), y.name.clone())).collect();
                    env.with_vals(pairs, |env| eq_expr(body1, body2, env))
                }
        }
        (Expr::Letrec(l1), Expr::Letrec(l2)) => {
            if l1.vals.len() != l2.vals.len() {
                return false;
            }
            let Some((ty_pairs, mut val_pairs)) = typedefn_pairs(&l1.types, &l2.types) else {
                return false;
            };
            val_pairs.extend(
                l1.vals.iter().zip(&l2.vals).map(|(x, y)| (x.name.clone(), y.name.clone())),
            );
            env.with_tys(ty_pairs, |env| {
                env.with_vals(val_pairs, |env| {
                    eq_typedefn_bodies(&l1.types, &l2.types, env)
                        && l1.vals.iter().zip(&l2.vals).all(|(x, y)| {
                            eq_opt_ty(&x.ty, &y.ty, env) && eq_expr(&x.body, &y.body, env)
                        })
                        && eq_expr(&l1.body, &l2.body, env)
                })
            })
        }
        (Expr::Set(t1, v1), Expr::Set(t2, v2)) => eq_expr(t1, t2, env) && eq_expr(v1, v2, env),
        (Expr::Proj(i1, e1), Expr::Proj(i2, e2)) => i1 == i2 && eq_expr(e1, e2, env),
        (Expr::Unit(u1), Expr::Unit(u2)) => {
            if u1.vals.len() != u2.vals.len() {
                return false;
            }
            // Interface names must match literally.
            if !eq_ports(&u1.imports, &u2.imports, env) || !eq_ports(&u1.exports, &u2.exports, env)
            {
                return false;
            }
            let Some((ty_pairs, mut val_pairs)) = typedefn_pairs(&u1.types, &u2.types) else {
                return false;
            };
            // Imported names are part of the interface: identity pairs.
            let mut pairs: Vec<(Symbol, Symbol)> =
                u1.imports.vals.iter().map(|p| (p.name.clone(), p.name.clone())).collect();
            val_pairs.extend(
                u1.vals.iter().zip(&u2.vals).map(|(x, y)| (x.name.clone(), y.name.clone())),
            );
            // Exported definitions keep their interface names: a pair
            // (a, b) with a ≠ b where either is exported is a mismatch.
            let exported = u1.exports.val_names();
            for (x, y) in &val_pairs {
                if (exported.contains(x) || exported.contains(y)) && x != y {
                    return false;
                }
            }
            pairs.extend(val_pairs);
            let mut ty_pairs_all: Vec<(Symbol, Symbol)> =
                u1.imports.types.iter().map(|p| (p.name.clone(), p.name.clone())).collect();
            let exported_tys = u1.exports.ty_names();
            for (x, y) in &ty_pairs {
                if (exported_tys.contains(x) || exported_tys.contains(y)) && x != y {
                    return false;
                }
            }
            ty_pairs_all.extend(ty_pairs);
            env.with_tys(ty_pairs_all, |env| {
                env.with_vals(pairs, |env| {
                    eq_typedefn_bodies(&u1.types, &u2.types, env)
                        && u1.vals.iter().zip(&u2.vals).all(|(x, y)| {
                            eq_opt_ty(&x.ty, &y.ty, env) && eq_expr(&x.body, &y.body, env)
                        })
                        && eq_expr(&u1.init, &u2.init, env)
                })
            })
        }
        (Expr::Compound(c1), Expr::Compound(c2)) => {
            eq_ports(&c1.imports, &c2.imports, env)
                && eq_ports(&c1.exports, &c2.exports, env)
                && c1.links.len() == c2.links.len()
                && c1.links.iter().zip(&c2.links).all(|(x, y)| {
                    eq_ports(&x.with, &y.with, env)
                        && eq_ports(&x.provides, &y.provides, env)
                        && eq_expr(&x.expr, &y.expr, env)
                })
        }
        (Expr::Invoke(i1), Expr::Invoke(i2)) => {
            eq_expr(&i1.target, &i2.target, env)
                && i1.ty_links.len() == i2.ty_links.len()
                && i1
                    .ty_links
                    .iter()
                    .zip(&i2.ty_links)
                    .all(|((n1, t1), (n2, t2))| n1 == n2 && eq_ty(t1, t2, env))
                && i1.val_links.len() == i2.val_links.len()
                && i1
                    .val_links
                    .iter()
                    .zip(&i2.val_links)
                    .all(|((n1, e1), (n2, e2))| n1 == n2 && eq_expr(e1, e2, env))
        }
        (Expr::Seal(e1, s1), Expr::Seal(e2, s2)) => eq_expr(e1, e2, env) && eq_sig(s1, s2, env),
        (Expr::Loc(l1), Expr::Loc(l2)) => l1 == l2,
        (Expr::CellRef(l1), Expr::CellRef(l2)) => l1 == l2,
        (Expr::Data(d1), Expr::Data(d2)) => {
            d1.role == d2.role && d1.instance == d2.instance && d1.ty_name == d2.ty_name
        }
        (Expr::Variant(v1), Expr::Variant(v2)) => {
            v1.instance == v2.instance
                && v1.tag == v2.tag
                && v1.ty_name == v2.ty_name
                && eq_expr(&v1.payload, &v2.payload, env)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sig::Ports;
    use crate::term::{Param, UnitExpr, ValDefn};

    #[test]
    fn identical_terms_are_alpha_equal() {
        let e = Expr::app(Expr::var("f"), vec![Expr::int(1)]);
        assert!(alpha_eq(&e, &e));
    }

    #[test]
    fn bound_renaming_is_equal_free_renaming_is_not() {
        let f = Expr::lambda(vec![Param::untyped("a")], Expr::var("a"));
        let g = Expr::lambda(vec![Param::untyped("b")], Expr::var("b"));
        assert!(alpha_eq(&f, &g));
        assert!(!alpha_eq(&Expr::var("a"), &Expr::var("b")));
    }

    #[test]
    fn inconsistent_renaming_is_rejected() {
        // fn (x y) ⇒ x   vs   fn (a b) ⇒ b
        let f = Expr::lambda(vec![Param::untyped("x"), Param::untyped("y")], Expr::var("x"));
        let g = Expr::lambda(vec![Param::untyped("a"), Param::untyped("b")], Expr::var("b"));
        assert!(!alpha_eq(&f, &g));
    }

    #[test]
    fn unit_internal_definitions_rename_but_interfaces_do_not() {
        let mk = |def: &str| {
            Expr::unit(UnitExpr {
                imports: Ports::new(),
                exports: Ports::untyped(Vec::<&str>::new(), ["go"]),
                types: vec![],
                vals: vec![
                    ValDefn { name: def.into(), ty: None, body: Expr::thunk(Expr::int(1)) },
                    ValDefn {
                        name: "go".into(),
                        ty: None,
                        body: Expr::thunk(Expr::app(Expr::var(def), vec![])),
                    },
                ],
                init: Expr::void(),
            })
        };
        assert!(alpha_eq(&mk("helper"), &mk("helper#1")));

        // Renaming the *export* is an interface change.
        let other = Expr::unit(UnitExpr {
            imports: Ports::new(),
            exports: Ports::untyped(Vec::<&str>::new(), ["run"]),
            types: vec![],
            vals: vec![
                ValDefn { name: "h".into(), ty: None, body: Expr::thunk(Expr::int(1)) },
                ValDefn {
                    name: "run".into(),
                    ty: None,
                    body: Expr::thunk(Expr::app(Expr::var("h"), vec![])),
                },
            ],
            init: Expr::void(),
        });
        assert!(!alpha_eq(&mk("helper"), &other));
    }

    #[test]
    fn shadowing_is_tracked_lexically() {
        // fn (x) ⇒ fn (x) ⇒ x   vs   fn (a) ⇒ fn (b) ⇒ b
        let f = Expr::lambda(
            vec![Param::untyped("x")],
            Expr::lambda(vec![Param::untyped("x")], Expr::var("x")),
        );
        let g = Expr::lambda(
            vec![Param::untyped("a")],
            Expr::lambda(vec![Param::untyped("b")], Expr::var("b")),
        );
        assert!(alpha_eq(&f, &g));

        // fn (a) ⇒ fn (b) ⇒ a is different.
        let h = Expr::lambda(
            vec![Param::untyped("a")],
            Expr::lambda(vec![Param::untyped("b")], Expr::var("a")),
        );
        assert!(!alpha_eq(&f, &h));
    }

    #[test]
    fn sig_types_require_matching_interface_names() {
        let s1 = Signature::new(Ports::untyped(["t"], Vec::<&str>::new()), Ports::new(), Ty::Void);
        let s2 = Signature::new(Ports::untyped(["u"], Vec::<&str>::new()), Ports::new(), Ty::Void);
        let sealed = |sig: &Signature| Expr::seal(Expr::var("u"), sig.clone());
        assert!(alpha_eq(&sealed(&s1), &sealed(&s1)));
        assert!(!alpha_eq(&sealed(&s1), &sealed(&s2)));
    }
}
