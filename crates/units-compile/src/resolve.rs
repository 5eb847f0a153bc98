//! Lexical-address resolution: the production backend's static prepass.
//!
//! The cells evaluator (§4.1.6) represents scopes as a linked list of
//! frames, and the seed implementation looked every variable up by
//! scanning that list name-by-name. But a variable's binding frame and
//! slot are fully determined by the program's *binder structure* — lambda
//! parameter lists, `let` bindings, `letrec`/unit definition blocks and
//! unit import clauses — so they can be computed once, before evaluation,
//! exactly the way a production compiler assigns stack slots.
//!
//! [`resolve_program`] walks an [`Expr`] maintaining a compile-time mirror
//! of the runtime frame stack and rewrites every [`Expr::Var`] whose
//! binder it can see into an [`Expr::VarAt`] carrying a [`LexAddr`]
//! `(depth, slot)`. The evaluator then reads the binding with
//! [`units_runtime::Env::lookup_at`] — a pointer walk plus one index —
//! instead of a scan.
//!
//! **The by-name fallback contract.** Resolution is an optimization, never
//! a semantic requirement:
//!
//! * variables whose binder is not statically visible (free variables of
//!   dynamically linked plug-in bodies, archive-loaded code that never
//!   went through this pass) stay plain [`Expr::Var`] and evaluate through
//!   the by-name scan, unchanged;
//! * every [`Expr::VarAt`] keeps its symbol, and the runtime *verifies*
//!   the addressed slot holds that name (one interned-id compare),
//!   degrading to the by-name scan on any mismatch — a stale address
//!   costs time, and can bind wrongly only by landing on a shadowed
//!   binding of the same name, which [`FRAME_LAYOUT`] keeps persisted
//!   code from doing;
//! * the substitution reducer (`units-reduce`) never consumes resolved
//!   code; its defensive `VarAt` arms treat the form exactly like `Var`.
//!
//! The compile-time frame mirror must match [`crate::eval`] and
//! [`crate::instantiate`] frame-for-frame:
//!
//! * `let` pushes one frame of its binders (right-hand sides resolve in
//!   the outer scope);
//! * `letrec` pushes one frame: per datatype, constructor and
//!   deconstructor per variant then the predicate, followed by one slot
//!   per value definition (the order `bind_letrec_frame` builds);
//! * closure application pushes one frame of the lambda's parameters;
//! * invoking an atomic unit pushes one frame (see `wire`): the import
//!   cells, then the datatype operations and one slot per value
//!   definition in `letrec` order. An exported definition's slot holds
//!   the cell its consumers read, so no frame rebinds exports.

use std::sync::Arc;

use units_kernel::{
    Binding, CompoundExpr, Expr, InvokeExpr, Lambda, LetrecExpr, LexAddr, LinkClause, Symbol,
    TypeDefn, UnitExpr, ValDefn,
};

/// The version of the frame layout that resolved addresses assume. Code
/// resolved under one layout must not run under another: a stale
/// address can land on a shadowed binding of the same name, which the
/// runtime's name check cannot tell apart. Whatever persists resolved
/// code keys it by this number.
pub const FRAME_LAYOUT: u32 = 2;

/// The compile-time mirror of the runtime frame stack.
#[derive(Default)]
struct Scope {
    frames: Vec<Vec<Symbol>>,
}

impl Scope {
    fn push(&mut self, names: Vec<Symbol>) {
        self.frames.push(names);
    }

    fn pop(&mut self) {
        self.frames.pop();
    }

    /// The address of `name`'s binding, innermost frame first. Within a
    /// frame later bindings shadow earlier ones (the runtime scans each
    /// frame back-to-front), hence `rposition`.
    fn resolve(&self, name: &Symbol) -> Option<LexAddr> {
        for (depth, frame) in self.frames.iter().rev().enumerate() {
            if let Some(slot) = frame.iter().rposition(|n| n == name) {
                return Some(LexAddr { depth: depth as u32, slot: slot as u32 });
            }
        }
        None
    }
}

/// The names `bind_letrec_frame` binds, in its frame order: per datatype,
/// each variant's constructor then deconstructor, then the predicate;
/// after all datatypes, one slot per value definition.
fn letrec_frame_names(types: &[TypeDefn], vals: &[ValDefn]) -> Vec<Symbol> {
    let mut names = Vec::new();
    for td in types {
        if let TypeDefn::Data(d) = td {
            for v in &d.variants {
                names.push(v.ctor.clone());
                names.push(v.dtor.clone());
            }
            names.push(d.predicate.clone());
        }
    }
    names.extend(vals.iter().map(|d| d.name.clone()));
    names
}

/// Resolves every statically addressable variable in a closed program.
/// Idempotent; free variables and machine-internal forms pass through
/// unchanged.
pub fn resolve_program(expr: &Expr) -> Expr {
    let _timer = units_trace::time("resolve");
    go(expr, &mut Scope::default())
}

fn go(expr: &Expr, scope: &mut Scope) -> Expr {
    match expr {
        Expr::Var(x) => match scope.resolve(x) {
            Some(addr) => {
                units_trace::count("resolve/resolved", 1);
                Expr::VarAt(x.clone(), addr)
            }
            None => {
                units_trace::count("resolve/free", 1);
                expr.clone()
            }
        },
        // Re-resolving resolved code recomputes the address in the
        // current scope (making the pass idempotent at the top level).
        Expr::VarAt(x, _) => match scope.resolve(x) {
            Some(addr) => Expr::VarAt(x.clone(), addr),
            None => Expr::Var(x.clone()),
        },
        Expr::Lit(_) | Expr::Prim(..) | Expr::Loc(_) | Expr::CellRef(_) | Expr::Data(_)
        | Expr::Variant(_) => expr.clone(),
        Expr::Lambda(lam) => {
            scope.push(lam.params.iter().map(|p| p.name.clone()).collect());
            let body = go(&lam.body, scope);
            scope.pop();
            Expr::Lambda(Arc::new(Lambda {
                params: lam.params.clone(),
                ret_ty: lam.ret_ty.clone(),
                body,
            }))
        }
        Expr::App(f, args) => Expr::App(
            Box::new(go(f, scope)),
            args.iter().map(|a| go(a, scope)).collect(),
        ),
        Expr::If(c, t, e) => Expr::If(
            Box::new(go(c, scope)),
            Box::new(go(t, scope)),
            Box::new(go(e, scope)),
        ),
        Expr::Seq(es) => Expr::Seq(es.iter().map(|e| go(e, scope)).collect()),
        Expr::Let(bindings, body) => {
            let new_bindings: Vec<Binding> = bindings
                .iter()
                .map(|b| Binding { name: b.name.clone(), expr: go(&b.expr, scope) })
                .collect();
            scope.push(bindings.iter().map(|b| b.name.clone()).collect());
            let body = go(body, scope);
            scope.pop();
            Expr::Let(new_bindings, Box::new(body))
        }
        Expr::Letrec(lr) => {
            scope.push(letrec_frame_names(&lr.types, &lr.vals));
            let vals = resolve_vals(&lr.vals, scope);
            let body = go(&lr.body, scope);
            scope.pop();
            Expr::Letrec(Arc::new(LetrecExpr { types: lr.types.clone(), vals, body }))
        }
        Expr::Set(target, value) => Expr::Set(
            Box::new(go(target, scope)),
            Box::new(go(value, scope)),
        ),
        Expr::Tuple(items) => Expr::Tuple(items.iter().map(|e| go(e, scope)).collect()),
        Expr::Proj(i, e) => Expr::Proj(*i, Box::new(go(e, scope))),
        Expr::Unit(u) => {
            // Mirror `wire` on an atomic unit: one frame of the imports,
            // then the datatype operations and definitions in `letrec`
            // order.
            let mut frame: Vec<Symbol> = u.imports.vals.iter().map(|p| p.name.clone()).collect();
            frame.extend(letrec_frame_names(&u.types, &u.vals));
            scope.push(frame);
            let vals = resolve_vals(&u.vals, scope);
            let init = go(&u.init, scope);
            scope.pop();
            Expr::Unit(Arc::new(UnitExpr {
                imports: u.imports.clone(),
                exports: u.exports.clone(),
                types: u.types.clone(),
                vals,
                init,
            }))
        }
        Expr::Compound(c) => Expr::Compound(Arc::new(CompoundExpr::new(
            c.imports.clone(),
            c.exports.clone(),
            c.links
                .iter()
                .map(|l| LinkClause {
                    expr: go(&l.expr, scope),
                    with: l.with.clone(),
                    provides: l.provides.clone(),
                    renames: l.renames.clone(),
                })
                .collect(),
        ))),
        Expr::Invoke(inv) => Expr::Invoke(Arc::new(InvokeExpr {
            target: go(&inv.target, scope),
            ty_links: inv.ty_links.clone(),
            val_links: inv
                .val_links
                .iter()
                .map(|(n, e)| (n.clone(), go(e, scope)))
                .collect(),
        })),
        Expr::Seal(e, sig) => Expr::Seal(Box::new(go(e, scope)), sig.clone()),
    }
}

/// Resolves definition bodies in the scope already pushed by the caller.
fn resolve_vals(vals: &[ValDefn], scope: &mut Scope) -> Vec<ValDefn> {
    vals.iter()
        .map(|d| ValDefn { name: d.name.clone(), ty: d.ty.clone(), body: go(&d.body, scope) })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use units_kernel::Param;

    fn addr(depth: u32, slot: u32) -> LexAddr {
        LexAddr { depth, slot }
    }

    #[test]
    fn free_variables_stay_by_name() {
        let e = Expr::var("loose");
        assert_eq!(resolve_program(&e), Expr::var("loose"));
    }

    #[test]
    fn lambda_params_resolve_at_depth_zero() {
        let e = Expr::lambda(
            vec![Param::untyped("a"), Param::untyped("b")],
            Expr::Tuple(vec![Expr::var("b"), Expr::var("a"), Expr::var("free")]),
        );
        let Expr::Lambda(lam) = resolve_program(&e) else { panic!() };
        let Expr::Tuple(items) = &lam.body else { panic!() };
        assert_eq!(items[0], Expr::VarAt("b".into(), addr(0, 1)));
        assert_eq!(items[1], Expr::VarAt("a".into(), addr(0, 0)));
        assert_eq!(items[2], Expr::var("free"));
    }

    #[test]
    fn let_rhs_sees_outer_scope_only() {
        // (fn (x) ⇒ let x = x in x): the RHS `x` is the parameter
        // (depth 0 from the RHS's view), the body `x` is the let binding.
        let e = Expr::lambda(
            vec![Param::untyped("x")],
            Expr::Let(
                vec![Binding { name: "x".into(), expr: Expr::var("x") }],
                Box::new(Expr::var("x")),
            ),
        );
        let Expr::Lambda(lam) = resolve_program(&e) else { panic!() };
        let Expr::Let(bindings, body) = &lam.body else { panic!() };
        assert_eq!(bindings[0].expr, Expr::VarAt("x".into(), addr(0, 0)));
        assert_eq!(**body, Expr::VarAt("x".into(), addr(0, 0)));
    }

    #[test]
    fn same_frame_shadowing_takes_the_last_slot() {
        let e = Expr::Let(
            vec![
                Binding { name: "x".into(), expr: Expr::int(1) },
                Binding { name: "x".into(), expr: Expr::int(2) },
            ],
            Box::new(Expr::var("x")),
        );
        let Expr::Let(_, body) = resolve_program(&e) else { panic!() };
        assert_eq!(*body, Expr::VarAt("x".into(), addr(0, 1)));
    }

    #[test]
    fn resolution_is_idempotent() {
        let e = Expr::lambda(vec![Param::untyped("x")], Expr::var("x"));
        let once = resolve_program(&e);
        assert_eq!(resolve_program(&once), once);
    }

    #[test]
    fn unit_bodies_resolve_under_one_frame() {
        // unit (import base) (export f) (define f (fn () ⇒ base)) (init f):
        // from the init's view, frame 0 holds the import base, then the
        // definition f.
        let src = "(unit (import base) (export f)
                     (define f (lambda () base))
                     (init f))";
        let e = units_syntax::parse_expr(src).unwrap();
        let Expr::Unit(u) = resolve_program(&e) else { panic!() };
        assert_eq!(u.init, Expr::VarAt("f".into(), addr(0, 1)));
        let Expr::Lambda(lam) = &u.vals[0].body else { panic!() };
        // Inside the lambda one more frame is pushed at application time.
        assert_eq!(lam.body, Expr::VarAt("base".into(), addr(1, 0)));
    }

    #[test]
    fn letrec_frame_orders_data_ops_before_vals() {
        let src = "(letrec ((datatype t (mk unmk int) t?)
                            (define v 1))
                     (tuple mk unmk t? v))";
        let e = units_syntax::parse_expr(src).unwrap();
        let Expr::Letrec(lr) = resolve_program(&e) else { panic!() };
        let Expr::Tuple(items) = &lr.body else { panic!() };
        assert_eq!(items[0], Expr::VarAt("mk".into(), addr(0, 0)));
        assert_eq!(items[1], Expr::VarAt("unmk".into(), addr(0, 1)));
        assert_eq!(items[2], Expr::VarAt("t?".into(), addr(0, 2)));
        assert_eq!(items[3], Expr::VarAt("v".into(), addr(0, 3)));
    }
}
