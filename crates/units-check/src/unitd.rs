//! Context-sensitive checking for UNITd (paper Fig. 10).
//!
//! These checks apply to *every* level — the typed checkers run them
//! first. They ensure that
//!
//! * no name is multiply defined, imported, or exported;
//! * every exported name is defined;
//! * every variable occurrence is bound;
//! * the `link` clause of a `compound` is locally consistent: each
//!   constituent's `with` names are covered by the compound's imports or
//!   another constituent's `provides`, and the compound's exports are all
//!   provided;
//! * `set!` targets a definition-bound (mutable) variable;
//! * under [`Strictness::Paper`], every definition body is *valuable*.
//!
//! A compound's link conditions read its linking namespace
//! ([`units_kernel::LinkPlan`], built once per node and cached on it),
//! which lists every binder of each outer name, so checking a compound
//! looks each port up once instead of searching every clause for it.
//! [`compound_link_errors`] applies the same conditions to one node:
//! compile-time flattening merges only a compound that passes them.

use std::collections::{BTreeSet, HashMap, HashSet};

use units_kernel::{CompoundExpr, Expr, Symbol, SymbolHash, TypeDefn, ValDefn};

use crate::diag::CheckError;
use crate::valuable::is_valuable;

/// Whether to enforce the paper's static valuability restriction or
/// MzScheme's dynamic alternative (§4.1.1 and its footnote: "it can be
/// lifted for an implementation, as in MzScheme, where accessing an
/// undefined variable returns a default value or signals a run-time
/// error").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Strictness {
    /// Enforce valuability of definitions statically (the calculi).
    #[default]
    Paper,
    /// Allow arbitrary definition expressions; reading a definition before
    /// it is initialized is a run-time error (the implementation).
    MzScheme,
}

/// Runs the Fig. 10 context-sensitive checks on a whole program (a closed
/// expression).
///
/// # Errors
///
/// Returns every violation found, in source order.
pub fn context_check(expr: &Expr, strictness: Strictness) -> Result<(), Vec<CheckError>> {
    let mut ck = Checker { strictness, errors: Vec::new() };
    let mut scope = Scope::default();
    ck.expr(expr, &mut scope);
    if ck.errors.is_empty() {
        Ok(())
    } else {
        Err(ck.errors)
    }
}

#[derive(Default)]
struct Scope {
    /// Every bound value variable, with how many binders bind it.
    bound: HashMap<Symbol, usize, SymbolHash>,
    /// The subset of `bound` that is assignable (`letrec`/unit definitions).
    mutable: BTreeSet<Symbol>,
}

impl Scope {
    fn contains(&self, name: &Symbol) -> bool {
        self.bound.contains_key(name)
    }

    fn with<R>(
        &mut self,
        names: &[Symbol],
        mutable: &[Symbol],
        f: impl FnOnce(&mut Scope) -> R,
    ) -> R {
        for name in names {
            *self.bound.entry(name.clone()).or_default() += 1;
        }
        let newly_mutable: Vec<Symbol> =
            mutable.iter().filter(|m| self.mutable.insert((*m).clone())).cloned().collect();
        let r = f(self);
        for name in names {
            let count = self.bound.get_mut(name).expect("bound on entry");
            *count -= 1;
            if *count == 0 {
                self.bound.remove(name);
            }
        }
        for m in newly_mutable {
            self.mutable.remove(&m);
        }
        r
    }
}

struct Checker {
    strictness: Strictness,
    errors: Vec<CheckError>,
}

impl Checker {
    fn duplicate_check<'a>(&mut self, names: impl IntoIterator<Item = &'a Symbol>, context: &str) {
        let mut seen = BTreeSet::new();
        for name in names {
            if !seen.insert(name.clone()) {
                self.errors
                    .push(CheckError::Duplicate { name: name.clone(), context: context.into() });
            }
        }
    }

    fn expr(&mut self, expr: &Expr, scope: &mut Scope) {
        units_trace::count("check/fig10/exprs", 1);
        match expr {
            Expr::Unit(_) => units_trace::count("check/fig10/unit", 1),
            Expr::Compound(_) => units_trace::count("check/fig10/compound", 1),
            Expr::Invoke(_) => units_trace::count("check/fig10/invoke", 1),
            _ => {}
        }
        match expr {
            Expr::Var(x) | Expr::VarAt(x, _) => {
                if !scope.contains(x) {
                    self.errors.push(CheckError::Unbound { name: x.clone() });
                }
            }
            Expr::Lit(_) | Expr::Prim(..) | Expr::Loc(_) | Expr::CellRef(_) | Expr::Data(_) => {}
            Expr::Lambda(lam) => {
                let params: Vec<Symbol> = lam.params.iter().map(|p| p.name.clone()).collect();
                self.duplicate_check(params.iter(), "lambda parameters");
                scope.with(&params, &[], |scope| self.expr(&lam.body, scope));
            }
            Expr::App(f, args) => {
                self.expr(f, scope);
                for a in args {
                    self.expr(a, scope);
                }
            }
            Expr::If(c, t, e) => {
                self.expr(c, scope);
                self.expr(t, scope);
                self.expr(e, scope);
            }
            Expr::Seq(es) | Expr::Tuple(es) => {
                for e in es {
                    self.expr(e, scope);
                }
            }
            Expr::Let(bindings, body) => {
                let names: Vec<Symbol> = bindings.iter().map(|b| b.name.clone()).collect();
                self.duplicate_check(names.iter(), "let bindings");
                for b in bindings {
                    self.expr(&b.expr, scope);
                }
                scope.with(&names, &[], |scope| self.expr(body, scope));
            }
            Expr::Letrec(lr) => {
                let val_names: Vec<Symbol> = lr.vals.iter().map(|d| d.name.clone()).collect();
                let mut all_names = val_names.clone();
                for td in &lr.types {
                    if let TypeDefn::Data(d) = td {
                        all_names.extend(d.bound_val_names());
                    }
                }
                self.duplicate_check(all_names.iter(), "letrec definitions");
                self.duplicate_check(lr.types.iter().map(|t| t.name()), "letrec type definitions");
                scope.with(&all_names, &val_names, |scope| {
                    // Datatype operations are determined from the start.
                    self.definitions(&lr.vals, &[], scope);
                    self.expr(&lr.body, scope);
                });
            }
            Expr::Set(target, value) => {
                match &**target {
                    Expr::Var(x) | Expr::VarAt(x, _) => {
                        if !scope.contains(x) {
                            self.errors.push(CheckError::Unbound { name: x.clone() });
                        } else if !scope.mutable.contains(x) {
                            self.errors.push(CheckError::Duplicate {
                                name: x.clone(),
                                context: "set! of a non-definition variable (only letrec/unit \
                                          definitions are assignable)"
                                    .into(),
                            });
                        }
                    }
                    Expr::CellRef(_) => {}
                    other => self.expr(other, scope),
                }
                self.expr(value, scope);
            }
            Expr::Proj(_, e) => self.expr(e, scope),
            Expr::Unit(u) => self.unit(u, scope),
            Expr::Compound(c) => {
                self.compound(c);
                for link in &c.links {
                    self.expr(&link.expr, scope);
                }
            }
            Expr::Invoke(inv) => {
                self.expr(&inv.target, scope);
                self.duplicate_check(inv.ty_links.iter().map(|(n, _)| n), "invoke type links");
                self.duplicate_check(inv.val_links.iter().map(|(n, _)| n), "invoke value links");
                for (_, e) in &inv.val_links {
                    self.expr(e, scope);
                }
            }
            Expr::Seal(e, _) => self.expr(e, scope),
            Expr::Variant(v) => self.expr(&v.payload, scope),
        }
    }

    fn unit(&mut self, u: &units_kernel::UnitExpr, scope: &mut Scope) {
        let defined_vals = u.defined_val_names();
        let defined_tys = u.defined_ty_names();
        // Imports and definitions must be pairwise distinct.
        let import_vals: Vec<Symbol> = u.imports.vals.iter().map(|p| p.name.clone()).collect();
        let import_tys: Vec<Symbol> = u.imports.types.iter().map(|p| p.name.clone()).collect();
        self.duplicate_check(
            import_vals.iter().chain(defined_vals.iter()),
            "unit imports and definitions",
        );
        self.duplicate_check(
            import_tys.iter().chain(defined_tys.iter()),
            "unit type imports and type definitions",
        );
        self.duplicate_check(u.exports.names(), "unit exports");
        // Every export must be defined: the definitions are hashed once,
        // not scanned per export.
        let defined: HashSet<&Symbol, SymbolHash> = defined_vals.iter().collect();
        for port in &u.exports.vals {
            if !defined.contains(&port.name) {
                self.errors
                    .push(CheckError::ExportUndefined { name: port.name.clone(), is_type: false });
            }
        }
        for port in &u.exports.types {
            if !defined_tys.contains(&port.name) {
                self.errors
                    .push(CheckError::ExportUndefined { name: port.name.clone(), is_type: true });
            }
        }
        // Definitions and the initialization expression see imports and
        // definitions (plus the outer scope — units close over it).
        let mut names = import_vals.clone();
        names.extend(defined_vals.iter().cloned());
        let val_defn_names: Vec<Symbol> = u.vals.iter().map(|d| d.name.clone()).collect();
        scope.with(&names, &val_defn_names, |scope| {
            // Imports are always undetermined for valuability: a linked
            // import may be a sibling constituent's definition that runs
            // later in the merged order.
            self.definitions(&u.vals, &import_vals, scope);
            self.expr(&u.init, scope);
        });
    }

    /// Checks a recursive block's definitions in order. While a
    /// definition is checked, the names still undetermined are the
    /// block's `imports` and every definition at or after it: a name
    /// leaves the set once its last definition has been checked.
    fn definitions(&mut self, vals: &[ValDefn], imports: &[Symbol], scope: &mut Scope) {
        let mut undetermined: BTreeSet<Symbol> = imports.iter().cloned().collect();
        // Inserted back to front, a name is new at its last definition
        // unless it is an import.
        let mut last: Vec<bool> =
            vals.iter().rev().map(|d| undetermined.insert(d.name.clone())).collect();
        last.reverse();
        for (d, last) in vals.iter().zip(last) {
            if self.strictness == Strictness::Paper && !is_valuable(&d.body, &undetermined) {
                self.errors.push(CheckError::NotValuable { name: d.name.clone() });
            }
            if last {
                undetermined.remove(&d.name);
            }
            self.expr(&d.body, scope);
        }
    }

    /// Fig. 10's conditions on a compound's own linking, not on its
    /// constituents. Linking happens in the compound's *outer* namespace,
    /// which its plan resolves: a provide named `x` inside a constituent
    /// occupies the outer name chosen by its clause's rename pairs (or `x`
    /// itself).
    fn compound(&mut self, c: &CompoundExpr) {
        let plan = c.plan();
        // Imports and every provides set must be pairwise distinct there,
        // per namespace.
        for (names, kind) in [(&plan.vals, "values"), (&plan.tys, "types")] {
            for name in names.twice() {
                let context = format!("compound imports and provided {kind}");
                self.errors.push(CheckError::Duplicate { name: name.clone(), context });
            }
        }
        self.duplicate_check(c.exports.names(), "compound exports");

        // Each constituent's `with` must be satisfied — through its
        // rename pairs — by the compound's imports or by another
        // constituent's provides.
        for (i, link) in c.links.iter().enumerate() {
            let r = &link.renames;
            let vals = link.with.vals.iter().map(|p| (&plan.vals, r.outer_import_val(&p.name)));
            let tys = link.with.types.iter().map(|p| (&plan.tys, r.outer_import_ty(&p.name)));
            for (names, outer) in vals.chain(tys) {
                if names.supplier(outer, i).is_none() {
                    self.errors
                        .push(CheckError::UnsatisfiedLink { name: outer.clone(), clause: i });
                }
            }
            self.duplicate_check(link.with.names(), "link clause `with`");
            self.duplicate_check(link.provides.names(), "link clause `provides`");
        }

        // Exports must be provided (under outer names).
        let vals = c.exports.vals.iter().map(|p| (&plan.vals, &p.name));
        let tys = c.exports.types.iter().map(|p| (&plan.tys, &p.name));
        for (names, name) in vals.chain(tys) {
            if names.provider(name).is_none() {
                self.errors.push(CheckError::ExportNotProvided { name: name.clone() });
            }
        }
    }
}

/// Fig. 10's conditions on one `compound`'s linking, not on its
/// constituents: the errors [`context_check`] reports for the node, in
/// its order. Compile-time flattening merges only a compound with none.
pub fn compound_link_errors(c: &CompoundExpr) -> Vec<CheckError> {
    let mut ck = Checker { strictness: Strictness::Paper, errors: Vec::new() };
    ck.compound(c);
    ck.errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use units_syntax::parse_expr;

    fn check(src: &str) -> Result<(), Vec<CheckError>> {
        context_check(&parse_expr(src).unwrap(), Strictness::Paper)
    }

    fn check_lax(src: &str) -> Result<(), Vec<CheckError>> {
        context_check(&parse_expr(src).unwrap(), Strictness::MzScheme)
    }

    #[test]
    fn accepts_the_even_odd_unit() {
        check(
            "(unit (import even) (export odd)
               (define odd (lambda (n) (if (= n 0) false (even (- n 1)))))
               (init (odd 13)))",
        )
        .unwrap();
    }

    #[test]
    fn rejects_unbound_variables() {
        let errs = check("(+ x 1)").unwrap_err();
        assert!(matches!(&errs[0], CheckError::Unbound { name } if name.as_str() == "x"));
    }

    #[test]
    fn rejects_duplicate_definitions() {
        let errs = check("(unit (import) (export) (define x 1) (define x 2))").unwrap_err();
        assert!(matches!(&errs[0], CheckError::Duplicate { name, .. } if name.as_str() == "x"));
    }

    #[test]
    fn rejects_import_definition_clash() {
        let errs = check("(unit (import x) (export) (define x 1))").unwrap_err();
        assert!(matches!(&errs[0], CheckError::Duplicate { name, .. } if name.as_str() == "x"));
    }

    #[test]
    fn rejects_undefined_exports() {
        let errs = check("(unit (import) (export ghost))").unwrap_err();
        assert!(
            matches!(&errs[0], CheckError::ExportUndefined { name, .. } if name.as_str() == "ghost")
        );
    }

    #[test]
    fn rejects_unprovided_compound_exports() {
        let errs = check(
            "(compound (import) (export missing)
               (link ((unit (import) (export)) (with) (provides))))",
        )
        .unwrap_err();
        assert!(
            matches!(&errs[0], CheckError::ExportNotProvided { name } if name.as_str() == "missing")
        );
    }

    #[test]
    fn rejects_unsatisfiable_with_clause() {
        let errs = check(
            "(compound (import) (export)
               (link ((unit (import x) (export)) (with x) (provides))))",
        )
        .unwrap_err();
        assert!(
            matches!(&errs[0], CheckError::UnsatisfiedLink { name, clause: 0 } if name.as_str() == "x")
        );
    }

    /// One compound breaks every linking condition of Fig. 10 once, with
    /// rename pairs on both sides; the whole error list is pinned, in
    /// order: names bound twice (values, then types), each clause's
    /// unsatisfied `with` ports (values, then types), then unprovided
    /// exports (values, then types). A clause's own provide does not
    /// satisfy its `with`.
    #[test]
    fn a_compound_reports_its_linking_errors_in_order() {
        let errs = check(
            "(compound (import) (export v (type t) ghost (type gt))
               (link ((unit (import) (export v) (define v 1))
                      (with) (provides v (type t)))
                     ((unit (import) (export v2) (define v2 2))
                      (with) (provides (as v2 v) (as-type t2 t)))
                     ((unit (import w) (export x) (define x (lambda () w)))
                      (with (as w own) (type u)) (provides (as x own)))))",
        )
        .unwrap_err();
        let dup = |name: &str, context: &str| CheckError::Duplicate {
            name: name.into(),
            context: context.into(),
        };
        assert_eq!(
            errs,
            vec![
                dup("v", "compound imports and provided values"),
                dup("t", "compound imports and provided types"),
                CheckError::UnsatisfiedLink { name: "own".into(), clause: 2 },
                CheckError::UnsatisfiedLink { name: "u".into(), clause: 2 },
                CheckError::ExportNotProvided { name: "ghost".into() },
                CheckError::ExportNotProvided { name: "gt".into() },
            ]
        );
    }

    #[test]
    fn accepts_cyclic_linking() {
        // Links may flow in both directions (paper §3.2: "Linking can
        // connect units in a mutually recursive manner").
        check(
            "(compound (import) (export)
               (link ((unit (import b) (export a) (define a (lambda () (b))))
                      (with b) (provides a))
                     ((unit (import a) (export b) (define b (lambda () (a))))
                      (with a) (provides b))))",
        )
        .unwrap();
    }

    #[test]
    fn rejects_nonvaluable_definitions_in_paper_mode() {
        let errs = check("(unit (import) (export) (define x (+ 1 2)))").unwrap_err();
        assert!(matches!(&errs[0], CheckError::NotValuable { name } if name.as_str() == "x"));
        // MzScheme mode permits it.
        check_lax("(unit (import) (export) (define x (+ 1 2)))").unwrap();
    }

    #[test]
    fn rejects_forward_reference_in_definition_position() {
        let errs = check("(unit (import) (export) (define x y) (define y 1))").unwrap_err();
        assert!(matches!(&errs[0], CheckError::NotValuable { name } if name.as_str() == "x"));
        // A name stays undetermined until its last definition, and an
        // import for the whole unit.
        for src in [
            "(unit (import) (export) (define y 1) (define x y) (define y 2))",
            "(unit (import y) (export) (define x y))",
        ] {
            let errs = check(src).unwrap_err();
            assert!(
                errs.iter()
                    .any(|e| matches!(e, CheckError::NotValuable { name } if name.as_str() == "x")),
                "{src}: {errs:?}"
            );
        }
    }

    /// Checking grows in n log n with a unit's definitions, whether it
    /// exports none or all of them, and with a compound's clauses: each
    /// block builds its undetermined set once, scope lookups are hashed,
    /// exports are looked up in the unit's hashed definitions, and a
    /// compound's linking namespace is resolved once. Rebuilding the set
    /// per definition took about 4 s on the unexported unit in a release
    /// build, at UNITd and UNITc alike, and scanning per export took
    /// 85 ms (UNITd) and 213 ms (UNITc) on the exported one there.
    /// Searching every clause for every `with` port and export took
    /// 1.2-1.4 s (UNITd) and 3.9-4.3 s (UNITc) on the chains.
    #[test]
    fn sixteen_thousand_definitions_or_clauses_check_in_bounded_time() {
        use crate::{check_program, CheckOptions, Level};

        const N: usize = 16_000;
        let defs: String = (0..N).map(|i| format!(" (define d{i} {i})")).collect();
        let names: String = (0..N).map(|i| format!(" d{i}")).collect();
        let units = ["", names.as_str()]
            .map(|exports| format!("(unit (import) (export{exports}){defs} (init 0))"));
        // A chain: clause i imports f(i-1) and provides fi, plain and
        // with every provided name exported; the typed variant
        // annotates every port.
        let chain = |typed: bool, exporting: bool| {
            let (ty, param) = if typed { (" (-> int int)", "(x int)") } else { ("", "x") };
            let port = |i: usize| match typed {
                true => format!("(f{i}{ty})"),
                false => format!("f{i}"),
            };
            let mut links = String::new();
            for i in 0..N {
                let (with, body) = match i {
                    0 => (String::new(), "x".to_string()),
                    _ => (port(i - 1), format!("(f{} x)", i - 1)),
                };
                links.push_str(&format!(
                    " ((unit (import {with}) (export {p}) (define f{i}{ty} (lambda ({param}) {body}))) \
                     (with {with}) (provides {p}))",
                    p = port(i),
                ));
            }
            let exports: String = match exporting {
                true => (0..N).map(|i| format!(" {}", port(i))).collect(),
                false => String::new(),
            };
            format!("(compound (import) (export{exports}) (link{links}))")
        };
        let untyped = CheckOptions::untyped();
        let typed = CheckOptions::typed(Level::Constructed);
        let mut inputs = Vec::new();
        for (exporting, unit) in [false, true].into_iter().zip(&units) {
            inputs.push((format!("unit, exporting {exporting}"), unit.clone(), untyped));
            inputs.push((format!("unit, exporting {exporting}"), unit.clone(), typed));
            inputs.push((
                format!("chain, exporting {exporting}"),
                chain(false, exporting),
                untyped,
            ));
            inputs.push((format!("chain, exporting {exporting}"), chain(true, exporting), typed));
        }
        for (what, src, opts) in inputs {
            let program = parse_expr(&src).unwrap();
            let start = std::time::Instant::now();
            check_program(&program, opts).unwrap();
            let took = start.elapsed();
            assert!(took.as_secs() < 2, "{:?}, {what}: {took:?}", opts.level);
        }
    }

    #[test]
    fn set_requires_a_definition_variable() {
        // OK: assigning a unit definition from the init expression.
        check("(unit (import) (export) (define x 1) (init (set! x 2)))").unwrap();
        // Not OK: assigning a lambda parameter.
        assert!(check("(lambda (p) (set! p 1))").is_err());
        // Not OK: assigning a let binding.
        assert!(check("(let ((x 1)) (set! x 2))").is_err());
    }

    #[test]
    fn units_close_over_outer_scope() {
        check(
            "(lambda (outer)
               (unit (import) (export) (define f (lambda () outer))))",
        )
        .unwrap();
    }

    #[test]
    fn invoke_link_names_must_be_distinct() {
        let errs = check("(invoke (unit (import x) (export)) (val x 1) (val x 2))").unwrap_err();
        assert!(matches!(&errs[0], CheckError::Duplicate { name, .. } if name.as_str() == "x"));
    }

    #[test]
    fn multiple_errors_are_accumulated() {
        let errs = check("(unit (import) (export ghost1 ghost2))").unwrap_err();
        assert_eq!(errs.len(), 2);
    }

    #[test]
    fn datatype_operation_names_count_as_definitions() {
        let errs = check(
            "(unit (import) (export)
               (datatype t (mk unmk int) t?)
               (define mk 1))",
        )
        .unwrap_err();
        assert!(matches!(&errs[0], CheckError::Duplicate { name, .. } if name.as_str() == "mk"));
    }
}
