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

use std::collections::{BTreeSet, HashMap};

use units_kernel::{Expr, Symbol, SymbolHash, TypeDefn, ValDefn};

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
            Expr::Compound(c) => self.compound(c, scope),
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
        // Every export must be defined.
        for port in &u.exports.vals {
            if !defined_vals.contains(&port.name) {
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

    fn compound(&mut self, c: &units_kernel::CompoundExpr, scope: &mut Scope) {
        // Linking happens in the compound's *outer* namespace: a provide
        // named `x` inside a constituent occupies the outer name chosen by
        // its clause's rename pairs (or `x` itself). Imports and every
        // provides set must be pairwise distinct there, per namespace.
        let val_space: Vec<Symbol> = c
            .imports
            .vals
            .iter()
            .map(|p| p.name.clone())
            .chain(c.links.iter().flat_map(|l| {
                l.provides.vals.iter().map(|p| l.renames.outer_export_val(&p.name).clone())
            }))
            .collect();
        self.duplicate_check(val_space.iter(), "compound imports and provided values");
        let ty_space: Vec<Symbol> = c
            .imports
            .types
            .iter()
            .map(|p| p.name.clone())
            .chain(c.links.iter().flat_map(|l| {
                l.provides.types.iter().map(|p| l.renames.outer_export_ty(&p.name).clone())
            }))
            .collect();
        self.duplicate_check(ty_space.iter(), "compound imports and provided types");
        self.duplicate_check(c.exports.names(), "compound exports");

        // Each constituent's `with` must be satisfied — through its
        // rename pairs — by the compound's imports or by another
        // constituent's provides.
        for (i, link) in c.links.iter().enumerate() {
            let satisfiable_val = |outer: &Symbol| {
                c.imports.val_port(outer).is_some()
                    || c.links.iter().enumerate().any(|(j, other)| {
                        j != i
                            && other
                                .provides
                                .vals
                                .iter()
                                .any(|p| other.renames.outer_export_val(&p.name) == outer)
                    })
            };
            let satisfiable_ty = |outer: &Symbol| {
                c.imports.ty_port(outer).is_some()
                    || c.links.iter().enumerate().any(|(j, other)| {
                        j != i
                            && other
                                .provides
                                .types
                                .iter()
                                .any(|p| other.renames.outer_export_ty(&p.name) == outer)
                    })
            };
            for port in &link.with.vals {
                let outer = link.renames.outer_import_val(&port.name);
                if !satisfiable_val(outer) {
                    self.errors
                        .push(CheckError::UnsatisfiedLink { name: outer.clone(), clause: i });
                }
            }
            for port in &link.with.types {
                let outer = link.renames.outer_import_ty(&port.name);
                if !satisfiable_ty(outer) {
                    self.errors
                        .push(CheckError::UnsatisfiedLink { name: outer.clone(), clause: i });
                }
            }
            self.duplicate_check(link.with.names(), "link clause `with`");
            self.duplicate_check(link.provides.names(), "link clause `provides`");
        }

        // Exports must be provided (under outer names).
        let provided_vals: BTreeSet<Symbol> = c
            .links
            .iter()
            .flat_map(|l| {
                l.provides
                    .vals
                    .iter()
                    .map(|p| l.renames.outer_export_val(&p.name).clone())
                    .collect::<Vec<_>>()
            })
            .collect();
        let provided_tys: BTreeSet<Symbol> = c
            .links
            .iter()
            .flat_map(|l| {
                l.provides
                    .types
                    .iter()
                    .map(|p| l.renames.outer_export_ty(&p.name).clone())
                    .collect::<Vec<_>>()
            })
            .collect();
        for port in &c.exports.vals {
            if !provided_vals.contains(&port.name) {
                self.errors.push(CheckError::ExportNotProvided { name: port.name.clone() });
            }
        }
        for port in &c.exports.types {
            if !provided_tys.contains(&port.name) {
                self.errors.push(CheckError::ExportNotProvided { name: port.name.clone() });
            }
        }

        for link in &c.links {
            self.expr(&link.expr, scope);
        }
    }
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

    /// Checking grows with a unit's definitions in n log n: each block
    /// builds its undetermined set once, and scope lookups are hashed.
    /// Rebuilding the set per definition took about 4 s on this unit in
    /// a release build, at UNITd and UNITc alike; a debug build now
    /// takes about 0.15 s.
    #[test]
    fn a_unit_of_sixteen_thousand_definitions_checks_in_bounded_time() {
        use crate::{check_program, CheckOptions, Level};

        let defs: String = (0..16_000).map(|i| format!(" (define d{i} {i})")).collect();
        let unit = parse_expr(&format!("(unit (import) (export){defs} (init 0))")).unwrap();
        for opts in [CheckOptions::untyped(), CheckOptions::typed(Level::Constructed)] {
            let start = std::time::Instant::now();
            check_program(&unit, opts).unwrap();
            let took = start.elapsed();
            assert!(took.as_secs() < 2, "{:?} took {took:?}", opts.level);
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
