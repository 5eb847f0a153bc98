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
//! [`units_runtime::Env::lookup_at`] — a pointer walk plus one index.
//!
//! **Resolution is total.** Both compiled backends run only this pass's
//! output, and their frames hold no names:
//!
//! * every bound variable becomes a [`Expr::VarAt`], which keeps its
//!   symbol for error messages only; within a frame a later binding of a
//!   name shadows an earlier one, so the address is its last slot;
//! * a variable the pass leaves as [`Expr::Var`] has no binder in scope:
//!   it is free, and reading or assigning it fails with `Unbound`;
//! * persisted addresses are guarded by [`RESOLVED_FORM`] and the store's
//!   checksum, and an address past the environment reads as `Unbound`;
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
//!
//! **Compile-time flattening.** The same walk runs Fig. 11's `compound`
//! rule ([`units_kernel::merge_compound`]) once per artifact: a compound
//! whose constituents are all closed unit literals becomes the one merged
//! unit before its addresses are assigned, so every run wires one frame
//! instead of a link plan's slots and a frame per constituent. A nested
//! compound counts as a literal once it has merged. Every other compound
//! — a sealed, `let`-bound or first-class constituent, a constituent with
//! free variables, a link graph the checkers would reject, a failed side
//! condition, a rename pair that would be captured — stays as written and
//! wires from its link plan, with its run-time errors unchanged.

use std::sync::Arc;

use units_check::compound_link_errors;
use units_kernel::{
    is_closed, merge_compound, Binding, CompoundExpr, Expr, InvokeExpr, Lambda, LetrecExpr,
    LexAddr, LinkClause, NameGen, Symbol, TypeDefn, UnitExpr, ValDefn,
};

/// The version of the resolved form: the frame layout its addresses
/// assume and the rewrites (compound flattening) that produced it. Code
/// resolved under one layout must not run under another: frames hold no
/// names, so a stale address reads whatever binding its slot now holds.
/// Whatever persists resolved code keys it by this number.
pub const RESOLVED_FORM: u32 = 3;

/// The compile-time mirror of the runtime frame stack, and the fresh
/// names of the compounds the walk merges.
struct Scope {
    frames: Vec<Vec<Symbol>>,
    gen: NameGen,
}

impl Scope {
    fn push(&mut self, names: Vec<Symbol>) {
        self.frames.push(names);
    }

    fn pop(&mut self) {
        self.frames.pop();
    }

    /// The address of `name`'s binding, innermost frame first. Within a
    /// frame later bindings shadow earlier ones, hence `rposition`.
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

/// Flattens every compound of closed unit literals and resolves every
/// bound variable in a program: the form both compiled backends run.
/// Idempotent; free variables and machine-internal forms pass through
/// unchanged.
pub fn resolve_program(expr: &Expr) -> Expr {
    let _timer = units_trace::time("resolve");
    // Tagged, so the merged names never meet the reducer's own.
    go(expr, &mut Scope { frames: Vec::new(), gen: NameGen::tagged("m") })
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
        Expr::Lit(_)
        | Expr::Prim(..)
        | Expr::Loc(_)
        | Expr::CellRef(_)
        | Expr::Data(_)
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
        Expr::App(f, args) => {
            Expr::App(Box::new(go(f, scope)), args.iter().map(|a| go(a, scope)).collect())
        }
        Expr::If(c, t, e) => {
            Expr::If(Box::new(go(c, scope)), Box::new(go(t, scope)), Box::new(go(e, scope)))
        }
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
        Expr::Set(target, value) => {
            Expr::Set(Box::new(go(target, scope)), Box::new(go(value, scope)))
        }
        Expr::Tuple(items) => Expr::Tuple(items.iter().map(|e| go(e, scope)).collect()),
        Expr::Proj(i, e) => Expr::Proj(*i, Box::new(go(e, scope))),
        Expr::Unit(u) => resolve_unit(u, scope),
        Expr::Compound(c) => match flatten(c, &mut scope.gen) {
            Ok(merged) => {
                units_trace::count("resolve/flattened", 1);
                resolve_unit(&merged, scope)
            }
            Err(kept) => resolve_compound(&kept, scope),
        },
        Expr::Invoke(inv) => Expr::Invoke(Arc::new(InvokeExpr {
            target: go(&inv.target, scope),
            ty_links: inv.ty_links.clone(),
            val_links: inv.val_links.iter().map(|(n, e)| (n.clone(), go(e, scope))).collect(),
        })),
        Expr::Seal(e, sig) => Expr::Seal(Box::new(go(e, scope)), sig.clone()),
    }
}

/// Mirrors `wire` on an atomic unit: one frame of the imports, then the
/// datatype operations and definitions in `letrec` order.
fn resolve_unit(u: &UnitExpr, scope: &mut Scope) -> Expr {
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

/// Resolves a compound [`flatten`] kept. Its nested compounds are
/// flattened already, so they are resolved as they stand.
fn resolve_compound(c: &CompoundExpr, scope: &mut Scope) -> Expr {
    let links = c
        .links
        .iter()
        .map(|l| LinkClause {
            expr: match &l.expr {
                Expr::Compound(inner) => resolve_compound(inner, scope),
                other => go(other, scope),
            },
            with: l.with.clone(),
            provides: l.provides.clone(),
            renames: l.renames.clone(),
        })
        .collect();
    Expr::Compound(Arc::new(CompoundExpr::new(c.imports.clone(), c.exports.clone(), links)))
}

/// Fig. 11's `compound` rule at compile time. Nested compounds first: one
/// that merges counts as a literal. Then the compound merges when every
/// constituent is a closed unit literal, its linking passes the checkers'
/// own conditions ([`compound_link_errors`]: the merge assumes they hold,
/// and `resolve_program` also meets unchecked terms) and
/// [`merge_compound`] does not refuse. Otherwise it is kept, with its
/// nested compounds flattened.
fn flatten(c: &Arc<CompoundExpr>, gen: &mut NameGen) -> Result<UnitExpr, Arc<CompoundExpr>> {
    let mut links: Option<Vec<LinkClause>> = None;
    for (i, link) in c.links.iter().enumerate() {
        if let Expr::Compound(inner) = &link.expr {
            let flat = match flatten(inner, gen) {
                Ok(merged) => Expr::Unit(Arc::new(merged)),
                Err(kept) if Arc::ptr_eq(&kept, inner) => continue,
                Err(kept) => Expr::Compound(kept),
            };
            links.get_or_insert_with(|| c.links.clone())[i].expr = flat;
        }
    }
    let flat = match links {
        Some(links) => Arc::new(CompoundExpr::new(c.imports.clone(), c.exports.clone(), links)),
        None => c.clone(),
    };
    let units: Option<Vec<Arc<UnitExpr>>> = flat
        .links
        .iter()
        .map(|l| match &l.expr {
            Expr::Unit(u) => Some(u.clone()),
            _ => None,
        })
        .collect();
    let Some(units) = units else { return Err(flat) };
    // A merged nested compound is closed: its constituents were.
    let closed = c.links.iter().all(|l| matches!(l.expr, Expr::Compound(_)) || is_closed(&l.expr));
    if !closed || !compound_link_errors(&flat).is_empty() {
        return Err(flat);
    }
    merge_compound(&flat, &units, gen).map_err(|_| flat)
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

    /// Counts the `compound` nodes left in `e`.
    fn compounds(e: &Expr) -> usize {
        let mut n = 0;
        let mut stack = vec![e];
        while let Some(e) = stack.pop() {
            match e {
                Expr::Compound(c) => {
                    n += 1;
                    stack.extend(c.links.iter().map(|l| &l.expr));
                }
                Expr::Unit(u) => {
                    stack.extend(u.vals.iter().map(|d| &d.body));
                    stack.push(&u.init);
                }
                Expr::Lambda(lam) => stack.push(&lam.body),
                Expr::Let(bindings, body) => {
                    stack.extend(bindings.iter().map(|b| &b.expr));
                    stack.push(body);
                }
                Expr::Invoke(inv) => {
                    stack.push(&inv.target);
                    stack.extend(inv.val_links.iter().map(|(_, e)| e));
                }
                Expr::Seal(e, _) => stack.push(e),
                Expr::App(f, args) => {
                    stack.push(f);
                    stack.extend(args);
                }
                _ => {}
            }
        }
        n
    }

    fn resolved(src: &str) -> Expr {
        resolve_program(&units_syntax::parse_expr(src).unwrap())
    }

    #[test]
    fn compounds_of_closed_literals_flatten_bottom_up() {
        // The inner compound merges first, then counts as a literal.
        let e = resolved(
            "(invoke (compound (import) (export)
               (link ((compound (import) (export a)
                        (link ((unit (import) (export a) (define a 1)) (with) (provides a))))
                      (with) (provides a))
                     ((unit (import a) (export) (init a)) (with a) (provides)))))",
        );
        let Expr::Invoke(inv) = &e else { panic!() };
        let Expr::Unit(u) = &inv.target else { panic!("not flattened: {e:?}") };
        assert_eq!(u.vals.len(), 1);
        // One frame: the definition `a`, which the second init reads.
        assert_eq!(u.init, Expr::Seq(vec![Expr::void(), Expr::VarAt("a".into(), addr(0, 0))]));
    }

    #[test]
    fn compounds_that_cannot_merge_keep_their_link_plans() {
        for src in [
            // A constituent reads the enclosing lambda's parameter.
            "(lambda (n) (compound (import) (export)
               (link ((unit (import) (export) (init n)) (with) (provides)))))",
            // A sealed constituent.
            "(compound (import) (export)
               (link ((seal (unit (import) (export a) (define a 1))
                            (sig (import) (export a) (init void)))
                      (with) (provides a))))",
            // A `with` port nothing supplies (the checkers reject this).
            "(compound (import) (export)
               (link ((unit (import x) (export) (init x)) (with x) (provides))))",
            // A failed Fig. 11 side condition: an excess import.
            "(compound (import g) (export)
               (link ((unit (import g) (export) (init g)) (with) (provides))))",
            // A rename pair to the compound's import `times`, which a
            // nested unit binds.
            "(compound (import times) (export)
               (link ((unit (import f) (export)
                        (init (invoke (unit (import times) (export) (init (+ (f) times)))
                                      (val times 5))))
                      (with (as f times)) (provides))))",
        ] {
            assert_eq!(compounds(&resolved(src)), 1, "{src}");
        }
    }

    #[test]
    fn a_kept_compound_still_flattens_its_nested_compounds() {
        let e = resolved(
            "(lambda (n) (compound (import) (export)
               (link ((compound (import) (export a)
                        (link ((unit (import) (export a) (define a 1)) (with) (provides a))))
                      (with) (provides a))
                     ((unit (import a) (export) (init (+ a n))) (with a) (provides)))))",
        );
        assert_eq!(compounds(&e), 1);
        let Expr::Lambda(lam) = &e else { panic!() };
        let Expr::Compound(c) = &lam.body else { panic!() };
        assert!(matches!(c.links[0].expr, Expr::Unit(_)));
    }

    #[test]
    fn a_hidden_link_name_is_freshened_against_nested_binders() {
        // `times` is hidden, so the link gets a fresh name that the
        // nested unit's `times` cannot capture.
        let e = resolved(
            "(compound (import) (export)
               (link ((unit (import) (export a) (define a (lambda () 1)))
                      (with) (provides (as a times)))
                     ((unit (import f) (export)
                        (init (invoke (unit (import) (export)
                                        (define times (lambda () 5))
                                        (init (+ (f) (times)))))))
                      (with (as f times)) (provides))))",
        );
        let Expr::Unit(u) = &e else { panic!("not flattened: {e:?}") };
        assert!(u.vals[0].name.is_generated());
        assert_eq!(u.vals[0].name.base(), "times");
    }

    #[test]
    fn resolution_is_idempotent_on_compounds() {
        for src in [
            "(invoke (compound (import) (export)
               (link ((unit (import) (export a) (define a 1) (define h 2))
                      (with) (provides a))
                     ((unit (import a) (export) (define h 3) (init (+ a h)))
                      (with a) (provides)))))",
            "(lambda (n) (compound (import) (export)
               (link ((compound (import) (export a)
                        (link ((unit (import) (export a) (define a 1)) (with) (provides a))))
                      (with) (provides a))
                     ((unit (import a) (export) (init (+ a n))) (with a) (provides)))))",
        ] {
            let once = resolved(src);
            assert_eq!(resolve_program(&once), once, "{src}");
        }
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
