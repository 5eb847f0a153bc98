//! α-invariant hashing of terms.
//!
//! [`alpha_hash`] computes a hash that is *consistent with*
//! [`crate::alpha_eq`]: two α-equivalent terms always hash alike, so the
//! hash can key a table of terms up to α-renaming, with
//! [`crate::alpha_eq`] as the collision-confirming comparison. The
//! traversal mirrors `alpha.rs` exactly: bound (renamable) names hash
//! by their position in the lexical scope stack, while free names and
//! interface names — ports, signature type variables — hash by symbol.
//!
//! The hash is only stable within one process (it hashes interned
//! [`Symbol`]s); it is not a serialization format.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use crate::sig::{Ports, Signature};
use crate::symbol::Symbol;
use crate::term::{Expr, TypeDefn};
use crate::ty::Ty;

/// The lexical scope stack: one side of `alpha.rs`'s `AlphaEnv`.
#[derive(Default)]
struct Scope {
    vals: Vec<Symbol>,
    tys: Vec<Symbol>,
}

impl Scope {
    fn with_vals<R>(&mut self, names: Vec<Symbol>, f: impl FnOnce(&mut Self) -> R) -> R {
        let depth = self.vals.len();
        self.vals.extend(names);
        let r = f(self);
        self.vals.truncate(depth);
        r
    }

    fn with_tys<R>(&mut self, names: Vec<Symbol>, f: impl FnOnce(&mut Self) -> R) -> R {
        let depth = self.tys.len();
        self.tys.extend(names);
        let r = f(self);
        self.tys.truncate(depth);
        r
    }

    /// Hashes a value-variable occurrence: the innermost binding's stack
    /// index when bound (the same frame `AlphaEnv::val_eq` resolves to),
    /// the symbol itself when free.
    fn hash_val(&self, name: &Symbol, h: &mut impl Hasher) {
        match self.vals.iter().rposition(|n| n == name) {
            Some(i) => (0u8, i).hash(h),
            None => (1u8, name).hash(h),
        }
    }

    fn hash_ty_var(&self, name: &Symbol, h: &mut impl Hasher) {
        match self.tys.iter().rposition(|n| n == name) {
            Some(i) => (0u8, i).hash(h),
            None => (1u8, name).hash(h),
        }
    }
}

/// Hashes `expr` up to consistent renaming of bound (non-interface)
/// names: `alpha_eq(a, b)` implies `alpha_hash(a) == alpha_hash(b)`.
/// The converse is not guaranteed — callers confirm candidate matches
/// with [`crate::alpha_eq`].
///
/// # Examples
///
/// ```
/// use units_kernel::{alpha_hash, Expr, Param};
/// let f = Expr::lambda(vec![Param::untyped("x")], Expr::var("x"));
/// let g = Expr::lambda(vec![Param::untyped("y")], Expr::var("y"));
/// assert_eq!(alpha_hash(&f), alpha_hash(&g));
/// ```
pub fn alpha_hash(expr: &Expr) -> u64 {
    let mut h = DefaultHasher::new();
    hash_expr(expr, &mut Scope::default(), &mut h);
    h.finish()
}

fn hash_opt_ty(ty: &Option<Ty>, env: &mut Scope, h: &mut impl Hasher) {
    match ty {
        None => 0u8.hash(h),
        Some(t) => {
            1u8.hash(h);
            hash_ty(t, env, h);
        }
    }
}

fn hash_ty(ty: &Ty, env: &mut Scope, h: &mut impl Hasher) {
    match ty {
        Ty::Var(x) => {
            0u8.hash(h);
            env.hash_ty_var(x, h);
        }
        Ty::Int => 1u8.hash(h),
        Ty::Bool => 2u8.hash(h),
        Ty::Str => 3u8.hash(h),
        Ty::Void => 4u8.hash(h),
        Ty::Arrow(params, ret) => {
            (5u8, params.len()).hash(h);
            for p in params {
                hash_ty(p, env, h);
            }
            hash_ty(ret, env, h);
        }
        Ty::Tuple(items) => {
            (6u8, items.len()).hash(h);
            for t in items {
                hash_ty(t, env, h);
            }
        }
        Ty::Hash(t) => {
            7u8.hash(h);
            hash_ty(t, env, h);
        }
        Ty::Sig(sig) => {
            8u8.hash(h);
            hash_sig(sig, env, h);
        }
    }
}

fn hash_sig(sig: &Signature, env: &mut Scope, h: &mut impl Hasher) {
    // Signature-bound type names must match literally under α-equivalence
    // (`eq_sig` rejects differing `bound_ty_vars` sets), so hash the set
    // itself and push the names as in-scope identities.
    let bound = sig.bound_ty_vars();
    bound.hash(h);
    env.with_tys(bound.into_iter().collect(), |env| {
        hash_ports(&sig.imports, env, h);
        hash_ports(&sig.exports, env, h);
        sig.depend_set().hash(h);
        sig.equations.len().hash(h);
        for eq in &sig.equations {
            (&eq.name, &eq.kind).hash(h);
            hash_ty(&eq.body, env, h);
        }
        hash_ty(&sig.init_ty, env, h);
    });
}

fn hash_ports(ports: &Ports, env: &mut Scope, h: &mut impl Hasher) {
    // Interface names are not renamable: hash them literally.
    ports.types.len().hash(h);
    for p in &ports.types {
        (&p.name, &p.kind).hash(h);
    }
    ports.vals.len().hash(h);
    for p in &ports.vals {
        p.name.hash(h);
        hash_opt_ty(&p.ty, env, h);
    }
}

/// The names a typedefn list binds, split as (type names, value names) —
/// the single-sided form of `alpha.rs`'s `typedefn_pairs`, including the
/// structural facts (`variants.len()`, alias kinds) that `typedefn_pairs`
/// checks while pairing.
fn typedefn_names(defns: &[TypeDefn], h: &mut impl Hasher) -> (Vec<Symbol>, Vec<Symbol>) {
    let mut ty_names = Vec::new();
    let mut val_names = Vec::new();
    defns.len().hash(h);
    for d in defns {
        match d {
            TypeDefn::Data(d) => {
                (0u8, d.variants.len()).hash(h);
                ty_names.push(d.name.clone());
                for v in &d.variants {
                    val_names.push(v.ctor.clone());
                    val_names.push(v.dtor.clone());
                }
                val_names.push(d.predicate.clone());
            }
            TypeDefn::Alias(a) => {
                (1u8, &a.kind).hash(h);
                ty_names.push(a.name.clone());
            }
        }
    }
    (ty_names, val_names)
}

fn hash_typedefn_bodies(defns: &[TypeDefn], env: &mut Scope, h: &mut impl Hasher) {
    for d in defns {
        match d {
            TypeDefn::Data(d) => {
                for v in &d.variants {
                    hash_ty(&v.payload, env, h);
                }
            }
            TypeDefn::Alias(a) => hash_ty(&a.body, env, h),
        }
    }
}

fn hash_expr(expr: &Expr, env: &mut Scope, h: &mut impl Hasher) {
    match expr {
        // `Var` and `VarAt` are α-equivalent when the names correspond
        // (addresses are derived data), so they share a tag and the
        // address is not hashed.
        Expr::Var(x) | Expr::VarAt(x, _) => {
            0u8.hash(h);
            env.hash_val(x, h);
        }
        Expr::Lit(l) => {
            1u8.hash(h);
            match l {
                crate::term::Lit::Int(n) => (0u8, n).hash(h),
                crate::term::Lit::Bool(b) => (1u8, b).hash(h),
                crate::term::Lit::Str(s) => (2u8, &**s).hash(h),
                crate::term::Lit::Void => 3u8.hash(h),
            }
        }
        Expr::Prim(op, tys) => {
            (2u8, op, tys.len()).hash(h);
            for t in tys {
                hash_ty(t, env, h);
            }
        }
        Expr::Lambda(l) => {
            (3u8, l.params.len()).hash(h);
            for p in &l.params {
                hash_opt_ty(&p.ty, env, h);
            }
            hash_opt_ty(&l.ret_ty, env, h);
            let names = l.params.iter().map(|p| p.name.clone()).collect();
            env.with_vals(names, |env| hash_expr(&l.body, env, h));
        }
        Expr::App(f, args) => {
            (4u8, args.len()).hash(h);
            hash_expr(f, env, h);
            for a in args {
                hash_expr(a, env, h);
            }
        }
        Expr::If(c, t, e) => {
            5u8.hash(h);
            hash_expr(c, env, h);
            hash_expr(t, env, h);
            hash_expr(e, env, h);
        }
        Expr::Seq(items) => {
            (6u8, items.len()).hash(h);
            for e in items {
                hash_expr(e, env, h);
            }
        }
        Expr::Tuple(items) => {
            (7u8, items.len()).hash(h);
            for e in items {
                hash_expr(e, env, h);
            }
        }
        Expr::Let(bindings, body) => {
            (8u8, bindings.len()).hash(h);
            for b in bindings {
                hash_expr(&b.expr, env, h);
            }
            let names = bindings.iter().map(|b| b.name.clone()).collect();
            env.with_vals(names, |env| hash_expr(body, env, h));
        }
        Expr::Letrec(l) => {
            (9u8, l.vals.len()).hash(h);
            let (ty_names, mut val_names) = typedefn_names(&l.types, h);
            val_names.extend(l.vals.iter().map(|v| v.name.clone()));
            env.with_tys(ty_names, |env| {
                env.with_vals(val_names, |env| {
                    hash_typedefn_bodies(&l.types, env, h);
                    for v in &l.vals {
                        hash_opt_ty(&v.ty, env, h);
                        hash_expr(&v.body, env, h);
                    }
                    hash_expr(&l.body, env, h);
                })
            });
        }
        Expr::Set(target, value) => {
            10u8.hash(h);
            hash_expr(target, env, h);
            hash_expr(value, env, h);
        }
        Expr::Proj(i, e) => {
            (11u8, i).hash(h);
            hash_expr(e, env, h);
        }
        Expr::Unit(u) => {
            (12u8, u.vals.len()).hash(h);
            hash_ports(&u.imports, env, h);
            hash_ports(&u.exports, env, h);
            let (ty_names, mut val_names) = typedefn_names(&u.types, h);
            val_names.extend(u.vals.iter().map(|v| v.name.clone()));
            let mut vals_in_scope: Vec<Symbol> =
                u.imports.vals.iter().map(|p| p.name.clone()).collect();
            vals_in_scope.extend(val_names);
            let mut tys_in_scope: Vec<Symbol> =
                u.imports.types.iter().map(|p| p.name.clone()).collect();
            tys_in_scope.extend(ty_names);
            env.with_tys(tys_in_scope, |env| {
                env.with_vals(vals_in_scope, |env| {
                    hash_typedefn_bodies(&u.types, env, h);
                    for v in &u.vals {
                        hash_opt_ty(&v.ty, env, h);
                        hash_expr(&v.body, env, h);
                    }
                    hash_expr(&u.init, env, h);
                })
            });
        }
        Expr::Compound(c) => {
            (13u8, c.links.len()).hash(h);
            hash_ports(&c.imports, env, h);
            hash_ports(&c.exports, env, h);
            for link in &c.links {
                hash_ports(&link.with, env, h);
                hash_ports(&link.provides, env, h);
                hash_expr(&link.expr, env, h);
            }
        }
        Expr::Invoke(i) => {
            (14u8, i.ty_links.len(), i.val_links.len()).hash(h);
            hash_expr(&i.target, env, h);
            for (name, ty) in &i.ty_links {
                name.hash(h);
                hash_ty(ty, env, h);
            }
            for (name, e) in &i.val_links {
                name.hash(h);
                hash_expr(e, env, h);
            }
        }
        Expr::Seal(e, sig) => {
            15u8.hash(h);
            hash_expr(e, env, h);
            hash_sig(sig, env, h);
        }
        Expr::Loc(l) => (16u8, l).hash(h),
        Expr::CellRef(l) => (17u8, l).hash(h),
        Expr::Data(d) => (18u8, &d.role, d.instance, &d.ty_name).hash(h),
        Expr::Variant(v) => {
            (19u8, v.instance, v.tag, &v.ty_name).hash(h);
            hash_expr(&v.payload, env, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alpha::alpha_eq;
    use crate::sig::Ports;
    use crate::term::{Param, UnitExpr, ValDefn};

    #[test]
    fn alpha_equal_terms_hash_alike() {
        let f = Expr::lambda(vec![Param::untyped("x")], Expr::var("x"));
        let g = Expr::lambda(vec![Param::untyped("y")], Expr::var("y"));
        assert!(alpha_eq(&f, &g));
        assert_eq!(alpha_hash(&f), alpha_hash(&g));
    }

    #[test]
    fn free_variable_renaming_changes_the_hash() {
        assert_ne!(alpha_hash(&Expr::var("a")), alpha_hash(&Expr::var("b")));
    }

    #[test]
    fn inconsistent_renaming_is_distinguished() {
        // fn (x y) ⇒ x   vs   fn (a b) ⇒ b
        let f = Expr::lambda(vec![Param::untyped("x"), Param::untyped("y")], Expr::var("x"));
        let g = Expr::lambda(vec![Param::untyped("a"), Param::untyped("b")], Expr::var("b"));
        assert_ne!(alpha_hash(&f), alpha_hash(&g));
    }

    #[test]
    fn shadowing_resolves_to_the_innermost_binder() {
        let f = Expr::lambda(
            vec![Param::untyped("x")],
            Expr::lambda(vec![Param::untyped("x")], Expr::var("x")),
        );
        let g = Expr::lambda(
            vec![Param::untyped("a")],
            Expr::lambda(vec![Param::untyped("b")], Expr::var("b")),
        );
        assert!(alpha_eq(&f, &g));
        assert_eq!(alpha_hash(&f), alpha_hash(&g));
        let h = Expr::lambda(
            vec![Param::untyped("a")],
            Expr::lambda(vec![Param::untyped("b")], Expr::var("a")),
        );
        assert_ne!(alpha_hash(&f), alpha_hash(&h));
    }

    #[test]
    fn unit_internal_renaming_hashes_alike_interface_renaming_does_not() {
        let mk = |def: &str, export: &str| {
            Expr::unit(UnitExpr {
                imports: Ports::new(),
                exports: Ports::untyped(Vec::<&str>::new(), [export]),
                types: vec![],
                vals: vec![
                    ValDefn { name: def.into(), ty: None, body: Expr::thunk(Expr::int(1)) },
                    ValDefn {
                        name: export.into(),
                        ty: None,
                        body: Expr::thunk(Expr::app(Expr::var(def), vec![])),
                    },
                ],
                init: Expr::void(),
            })
        };
        assert_eq!(alpha_hash(&mk("helper", "go")), alpha_hash(&mk("helper#1", "go")));
        assert_ne!(alpha_hash(&mk("helper", "go")), alpha_hash(&mk("helper", "run")));
    }

    #[test]
    fn var_and_varat_hash_alike() {
        use crate::term::LexAddr;
        let plain = Expr::lambda(vec![Param::untyped("x")], Expr::var("x"));
        let addressed = Expr::lambda(
            vec![Param::untyped("x")],
            Expr::VarAt("x".into(), LexAddr { depth: 0, slot: 0 }),
        );
        assert!(alpha_eq(&plain, &addressed));
        assert_eq!(alpha_hash(&plain), alpha_hash(&addressed));
    }
}
