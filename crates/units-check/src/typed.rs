//! Type checking for UNITc (Fig. 15) and UNITe (Fig. 19).
//!
//! One checker covers both calculi, gated by [`Level`]:
//!
//! * [`Level::Constructed`] — UNITc: datatype definitions, signature
//!   subtyping, no type equations;
//! * [`Level::Equations`] — UNITe: adds type equations (`alias`),
//!   `depends` tracking in derived signatures, and the cyclic-link test in
//!   the `compound` rule.
//!
//! Derived unit signatures never carry `where` equations: a unit's
//! non-exported abbreviations are expanded away in its interface types,
//! exactly as §5.1 observes ("the resulting unit and signature are
//! equivalent to the unit and signature that expands env in all type
//! expressions"). Translucent signatures arise only where the programmer
//! writes them (`seal`, annotations), and subtyping treats them
//! transparently.
//!
//! Run [`crate::context_check`] first; this checker assumes the Fig. 10
//! conditions (distinctness, exports-defined, scoping) already hold.

use std::collections::{BTreeSet, HashMap};

use units_kernel::{
    Depend, Expr, Kind, Ports, Signature, Symbol, Ty, TyPort, TypeDefn, UnitExpr, ValPort,
};

use crate::diag::CheckError;
use crate::env::Env;
use crate::expand::{expand_owned, expand_ty, reachable_tys, Equations};
use crate::subtype::subtype;

/// Which calculus a program is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Level {
    /// UNITd — dynamically typed; only [`crate::context_check`] applies.
    Untyped,
    /// UNITc — constructed types (Fig. 15).
    #[default]
    Constructed,
    /// UNITe — type equations and dependencies (Fig. 19).
    Equations,
}

impl Level {
    /// The level's display name, used in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Level::Untyped => "UNITd",
            Level::Constructed => "UNITc",
            Level::Equations => "UNITe",
        }
    }
}

/// Infers the type of a closed, context-checked expression.
///
/// # Errors
///
/// Returns the first [`CheckError`] encountered, mapped onto the failing
/// rule of Fig. 15/19.
pub fn type_of(expr: &Expr, level: Level) -> Result<Ty, CheckError> {
    let mut env = Env::new();
    type_of_in(expr, level, &mut env)
}

/// Infers a type in a caller-supplied environment (used by the facade to
/// type-check against preludes).
///
/// # Errors
///
/// Returns the first [`CheckError`] encountered.
pub fn type_of_in(expr: &Expr, level: Level, env: &mut Env) -> Result<Ty, CheckError> {
    let mut ck = Typer { level, pending: Vec::new() };
    ck.infer(env, expr)
}

struct Typer {
    level: Level,
    /// Names of definitions currently being processed whose types are not
    /// yet known (unannotated `letrec`/unit definitions).
    pending: Vec<Symbol>,
}

impl Typer {
    fn eqs(&self, env: &Env) -> Equations {
        Equations::from_pairs(env.equations().iter().cloned())
    }

    /// `found ≤ expected`, or an error naming the position that required
    /// it. `context` renders that position only when the check fails.
    fn check_sub(
        &self,
        env: &Env,
        found: &Ty,
        expected: &Ty,
        context: impl FnOnce() -> String,
    ) -> Result<(), CheckError> {
        subtype(&self.eqs(env), found, expected).map_err(|e| {
            if let Ty::Sig(_) = expected {
                e.into_check_error(context())
            } else {
                CheckError::Mismatch {
                    expected: expected.clone(),
                    found: found.clone(),
                    context: context(),
                }
            }
        })
    }

    /// Well-formedness `Γ ⊢ τ :: Ω`.
    fn wf_ty(&mut self, env: &mut Env, ty: &Ty) -> Result<(), CheckError> {
        match ty {
            Ty::Var(t) => match env.ty_kind(t) {
                Some(k) if k.is_star() => Ok(()),
                Some(k) => Err(CheckError::KindMismatch {
                    name: t.clone(),
                    expected: Kind::Star,
                    found: k.clone(),
                }),
                None => Err(CheckError::UnboundTy { name: t.clone() }),
            },
            Ty::Int | Ty::Bool | Ty::Str | Ty::Void => Ok(()),
            Ty::Arrow(params, ret) => {
                for p in params {
                    self.wf_ty(env, p)?;
                }
                self.wf_ty(env, ret)
            }
            Ty::Tuple(items) => items.iter().try_for_each(|i| self.wf_ty(env, i)),
            Ty::Hash(elem) => self.wf_ty(env, elem),
            Ty::Sig(sig) => self.wf_sig(env, sig),
        }
    }

    /// Well-formedness of a signature (Fig. 15's first rule, extended with
    /// equations and depends for UNITe).
    fn wf_sig(&mut self, env: &mut Env, sig: &Signature) -> Result<(), CheckError> {
        if (!sig.depends.is_empty() || !sig.equations.is_empty())
            && self.level != Level::Equations
        {
            return Err(CheckError::UnsupportedAtLevel {
                form: "a signature with `depends` or `where` clauses".into(),
                level: self.level.name().into(),
            });
        }
        let mark = env.mark();
        let result = (|| {
            // Fig. 15's first rule: the signature's port names must be
            // distinct per namespace.
            let mut seen_tys = BTreeSet::new();
            for tp in sig
                .imports
                .types
                .iter()
                .chain(&sig.exports.types)
                .map(|p| &p.name)
                .chain(sig.equations.iter().map(|e| &e.name))
            {
                if !seen_tys.insert(tp.clone()) {
                    return Err(CheckError::Duplicate {
                        name: tp.clone(),
                        context: "signature type ports".into(),
                    });
                }
            }
            let mut seen_vals = BTreeSet::new();
            for vp in sig.imports.vals.iter().chain(&sig.exports.vals) {
                if !seen_vals.insert(vp.name.clone()) {
                    return Err(CheckError::Duplicate {
                        name: vp.name.clone(),
                        context: "signature value ports".into(),
                    });
                }
            }
            for tp in sig.imports.types.iter().chain(&sig.exports.types) {
                env.bind_ty(tp.name.clone(), tp.kind.clone());
            }
            // Equation names are bound and transparent within the signature.
            let local =
                Equations::from_pairs(sig.equations.iter().map(|e| (e.name.clone(), e.body.clone())));
            local.check_acyclic()?;
            for eq in &sig.equations {
                env.bind_ty(eq.name.clone(), eq.kind.clone());
            }
            for eq in &sig.equations {
                self.wf_ty(env, &eq.body)?;
            }
            for (ports, side) in [(&sig.imports, "import"), (&sig.exports, "export")] {
                for vp in &ports.vals {
                    let Some(ty) = &vp.ty else {
                        return Err(CheckError::MissingAnnotation {
                            what: format!("signature {side} port"),
                            name: vp.name.clone(),
                        });
                    };
                    self.wf_ty(env, ty)?;
                }
            }
            self.wf_ty(env, &sig.init_ty)?;
            // The initialization type cannot depend on exported types.
            let expanded_init = expand_ty(&sig.init_ty, &local)?;
            let mut fvs = BTreeSet::new();
            expanded_init.free_ty_vars(&mut fvs);
            for te in &sig.exports.types {
                if fvs.contains(&te.name) {
                    return Err(CheckError::InitTypeEscape { name: te.name.clone() });
                }
            }
            // Depends endpoints must be interface types.
            for d in &sig.depends {
                if sig.exports.ty_port(&d.export).is_none()
                    && !sig.equations.iter().any(|e| e.name == d.export)
                {
                    return Err(CheckError::UnboundTy { name: d.export.clone() });
                }
                if sig.imports.ty_port(&d.import).is_none() {
                    return Err(CheckError::UnboundTy { name: d.import.clone() });
                }
            }
            Ok(())
        })();
        env.restore(mark);
        result
    }

    fn infer(&mut self, env: &mut Env, expr: &Expr) -> Result<Ty, CheckError> {
        // One typing rule fires per node: Fig. 15 for UNITc, Fig. 19
        // for UNITe (UNITd never reaches the typer).
        units_trace::count(
            match self.level {
                Level::Equations => "check/fig19/rules",
                _ => "check/fig15/rules",
            },
            1,
        );
        match expr {
            Expr::Var(x) => match env.val_ty(x) {
                Some(ty) => Ok(ty.clone()),
                None if self.pending.contains(x) => Err(CheckError::MissingAnnotation {
                    what: "recursively used definition".into(),
                    name: x.clone(),
                }),
                None => Err(CheckError::Unbound { name: x.clone() }),
            },
            Expr::Lit(lit) => Ok(lit.ty()),
            Expr::Prim(op, ty_args) => {
                for t in ty_args {
                    self.wf_ty(env, t)?;
                }
                match op.instantiate(ty_args) {
                    Some((params, ret)) => Ok(Ty::arrow(params, ret)),
                    None => Err(CheckError::PrimInstantiation {
                        prim: op.name(),
                        expected: op.ty_arity(),
                        found: ty_args.len(),
                    }),
                }
            }
            Expr::Lambda(lam) => {
                let mark = env.mark();
                let result = (|| {
                    let mut params = Vec::with_capacity(lam.params.len());
                    for p in &lam.params {
                        let Some(ty) = &p.ty else {
                            return Err(CheckError::MissingAnnotation {
                                what: "parameter".into(),
                                name: p.name.clone(),
                            });
                        };
                        self.wf_ty(env, ty)?;
                        env.bind_val(p.name.clone(), ty.clone());
                        params.push(ty.clone());
                    }
                    let body_ty = self.infer(env, &lam.body)?;
                    let ret = match &lam.ret_ty {
                        Some(declared) => {
                            self.wf_ty(env, declared)?;
                            self.check_sub(env, &body_ty, declared, || {
                                "declared result type".into()
                            })?;
                            declared.clone()
                        }
                        None => body_ty,
                    };
                    Ok(Ty::arrow(params, ret))
                })();
                env.restore(mark);
                result
            }
            Expr::App(f, args) => {
                let f_ty = self.infer(env, f)?;
                let f_ty = expand_owned(f_ty, &self.eqs(env))?;
                let Ty::Arrow(params, ret) = f_ty else {
                    return Err(CheckError::NotAFunction { found: f_ty });
                };
                if params.len() != args.len() {
                    return Err(CheckError::Arity { expected: params.len(), found: args.len() });
                }
                for (i, (arg, param)) in args.iter().zip(&params).enumerate() {
                    let arg_ty = self.infer(env, arg)?;
                    self.check_sub(env, &arg_ty, param, || format!("argument {}", i + 1))?;
                }
                Ok(*ret)
            }
            Expr::If(c, t, e) => {
                let c_ty = self.infer(env, c)?;
                self.check_sub(env, &c_ty, &Ty::Bool, || "if condition".into())?;
                let t_ty = self.infer(env, t)?;
                let e_ty = self.infer(env, e)?;
                let eqs = self.eqs(env);
                if subtype(&eqs, &t_ty, &e_ty).is_ok() {
                    Ok(e_ty)
                } else if subtype(&eqs, &e_ty, &t_ty).is_ok() {
                    Ok(t_ty)
                } else {
                    Err(CheckError::Mismatch {
                        expected: t_ty,
                        found: e_ty,
                        context: "if branches".into(),
                    })
                }
            }
            Expr::Seq(es) => {
                let mut last = Ty::Void;
                for e in es {
                    last = self.infer(env, e)?;
                }
                Ok(last)
            }
            Expr::Let(bindings, body) => {
                let tys: Vec<Ty> = bindings
                    .iter()
                    .map(|b| self.infer(env, &b.expr))
                    .collect::<Result<_, _>>()?;
                let mark = env.mark();
                for (b, ty) in bindings.iter().zip(tys) {
                    env.bind_val(b.name.clone(), ty);
                }
                let result = self.infer(env, body);
                env.restore(mark);
                result
            }
            Expr::Letrec(lr) => {
                let mark = env.mark();
                let result = (|| {
                    self.bind_type_defns(env, &lr.types)?;
                    self.bind_val_defns(env, &lr.vals)?;
                    self.infer(env, &lr.body)
                })();
                env.restore(mark);
                result
            }
            Expr::Set(target, value) => {
                let Expr::Var(x) = &**target else {
                    return Err(CheckError::UnsupportedAtLevel {
                        form: "machine-internal assignment target".into(),
                        level: self.level.name().into(),
                    });
                };
                let Some(var_ty) = env.val_ty(x).cloned() else {
                    return Err(CheckError::Unbound { name: x.clone() });
                };
                let val_ty = self.infer(env, value)?;
                self.check_sub(env, &val_ty, &var_ty, || format!("assignment to `{x}`"))?;
                Ok(Ty::Void)
            }
            Expr::Tuple(items) => Ok(Ty::Tuple(
                items.iter().map(|i| self.infer(env, i)).collect::<Result<_, _>>()?,
            )),
            Expr::Proj(i, e) => {
                let ty = self.infer(env, e)?;
                let ty = expand_owned(ty, &self.eqs(env))?;
                let Ty::Tuple(items) = ty else {
                    return Err(CheckError::NotATuple { found: ty });
                };
                items
                    .get(*i)
                    .cloned()
                    .ok_or(CheckError::Arity { expected: items.len(), found: *i })
            }
            Expr::Unit(u) => self.infer_unit(env, u),
            Expr::Compound(c) => self.infer_compound(env, c),
            Expr::Invoke(inv) => self.infer_invoke(env, inv),
            Expr::Seal(e, sig) => {
                self.wf_sig(env, sig)?;
                let ty = self.infer(env, e)?;
                self.check_sub(env, &ty, &Ty::Sig(sig.clone()), || "seal".into())?;
                Ok(Ty::Sig(sig.clone()))
            }
            Expr::Loc(_) | Expr::CellRef(_) | Expr::Data(_) | Expr::Variant(_)
            | Expr::VarAt(..) => {
                Err(CheckError::UnsupportedAtLevel {
                    form: "a machine-internal form".into(),
                    level: self.level.name().into(),
                })
            }
        }
    }

    /// Binds a block's type definitions: datatype names, their operations'
    /// types, and (UNITe) alias equations. Returns the equation set the
    /// block introduces.
    fn bind_type_defns(
        &mut self,
        env: &mut Env,
        types: &[TypeDefn],
    ) -> Result<Equations, CheckError> {
        // All defined type names are in scope in every definition
        // (mutual recursion).
        for td in types {
            match td {
                TypeDefn::Data(d) => env.bind_ty(d.name.clone(), Kind::Star),
                TypeDefn::Alias(a) => {
                    if self.level != Level::Equations {
                        return Err(CheckError::UnsupportedAtLevel {
                            form: format!("type equation `{}`", a.name),
                            level: self.level.name().into(),
                        });
                    }
                    env.bind_eq(a.name.clone(), a.kind.clone(), a.body.clone());
                }
            }
        }
        let eqs = Equations::from_pairs(types.iter().filter_map(|td| match td {
            TypeDefn::Alias(a) => Some((a.name.clone(), a.body.clone())),
            TypeDefn::Data(_) => None,
        }));
        eqs.check_acyclic()?;
        for td in types {
            match td {
                TypeDefn::Data(d) => {
                    let t = Ty::Var(d.name.clone());
                    for v in &d.variants {
                        self.wf_ty(env, &v.payload)?;
                        env.bind_val(
                            v.ctor.clone(),
                            Ty::arrow(vec![v.payload.clone()], t.clone()),
                        );
                        env.bind_val(
                            v.dtor.clone(),
                            Ty::arrow(vec![t.clone()], v.payload.clone()),
                        );
                    }
                    env.bind_val(d.predicate.clone(), Ty::arrow(vec![t.clone()], Ty::Bool));
                }
                TypeDefn::Alias(a) => self.wf_ty(env, &a.body)?,
            }
        }
        Ok(eqs)
    }

    /// Binds a block's value definitions: annotated ones first, then
    /// unannotated ones in order, then re-checks annotated bodies.
    fn bind_val_defns(
        &mut self,
        env: &mut Env,
        vals: &[units_kernel::ValDefn],
    ) -> Result<(), CheckError> {
        for d in vals {
            if let Some(ty) = &d.ty {
                self.wf_ty(env, ty)?;
                env.bind_val(d.name.clone(), ty.clone());
            }
        }
        let pending_base = self.pending.len();
        self.pending
            .extend(vals.iter().filter(|d| d.ty.is_none()).map(|d| d.name.clone()));
        let result = (|| {
            for d in vals {
                if d.ty.is_none() {
                    let inferred = self.infer(env, &d.body)?;
                    env.bind_val(d.name.clone(), inferred);
                    self.pending.retain(|p| p != &d.name);
                }
            }
            for d in vals {
                if let Some(ty) = &d.ty {
                    let body_ty = self.infer(env, &d.body)?;
                    self.check_sub(env, &body_ty, ty, || format!("definition of `{}`", d.name))?;
                }
            }
            Ok(())
        })();
        self.pending.truncate(pending_base);
        result
    }

    /// The Fig. 15/19 `unit` rule.
    fn infer_unit(&mut self, env: &mut Env, u: &UnitExpr) -> Result<Ty, CheckError> {
        let mark = env.mark();
        let result = (|| {
            for tp in &u.imports.types {
                env.bind_ty(tp.name.clone(), tp.kind.clone());
            }
            let eqs = self.bind_type_defns(env, &u.types)?;
            // Import value ports must be annotated and well-formed.
            for vp in &u.imports.vals {
                let Some(ty) = &vp.ty else {
                    return Err(CheckError::MissingAnnotation {
                        what: "unit import".into(),
                        name: vp.name.clone(),
                    });
                };
                self.wf_ty(env, ty)?;
                env.bind_val(vp.name.clone(), ty.clone());
            }
            self.bind_val_defns(env, &u.vals)?;
            let init_ty = self.infer(env, &u.init)?;

            // Assemble the derived signature. Abbreviations are expanded
            // away; only imported types and exported (generative or
            // alias-exported) types may survive in interface positions.
            let exported_ty_names: BTreeSet<Symbol> = u.exports.ty_names();
            let import_ty_names: BTreeSet<Symbol> = u.imports.ty_names();
            let datatype_names: BTreeSet<Symbol> = u
                .types
                .iter()
                .filter_map(|td| match td {
                    TypeDefn::Data(d) => Some(d.name.clone()),
                    TypeDefn::Alias(_) => None,
                })
                .collect();

            let surviving = |name: &Symbol| {
                import_ty_names.contains(name) || exported_ty_names.contains(name)
            };

            // An alias that is itself exported stays opaque in the derived
            // interface; only non-exported abbreviations are expanded away.
            let eqs_visible = eqs.without(&exported_ty_names);

            let mut export_vals = Vec::with_capacity(u.exports.vals.len());
            for port in &u.exports.vals {
                let defined_ty = env
                    .val_ty(&port.name)
                    .cloned()
                    .ok_or_else(|| CheckError::Unbound { name: port.name.clone() })?;
                let ty = match &port.ty {
                    Some(declared) => {
                        self.wf_ty(env, declared)?;
                        self.check_sub(env, &defined_ty, declared, || {
                            format!("export `{}`", port.name)
                        })?;
                        declared.clone()
                    }
                    None => defined_ty,
                };
                let ty = expand_owned(ty, &eqs_visible)?;
                let mut fvs = BTreeSet::new();
                ty.free_ty_vars(&mut fvs);
                for fv in &fvs {
                    if datatype_names.contains(fv) && !surviving(fv) {
                        return Err(CheckError::TypeEscape {
                            name: fv.clone(),
                            export: port.name.clone(),
                        });
                    }
                }
                export_vals.push(ValPort::typed(port.name.clone(), ty));
            }

            // Exported types: datatypes are generative; exported aliases
            // become opaque with computed dependencies (UNITe).
            let mut depends = Vec::new();
            let mut export_tys = Vec::with_capacity(u.exports.types.len());
            for port in &u.exports.types {
                export_tys.push(TyPort { name: port.name.clone(), kind: Kind::Star });
                if let Some(body) = eqs.get(&port.name) {
                    for ti in reachable_tys(body, &eqs) {
                        if import_ty_names.contains(&ti) {
                            depends.push(Depend { export: port.name.clone(), import: ti });
                        }
                    }
                }
            }

            // The initialization type expands *all* abbreviations (even
            // exported ones): it cannot depend on exported types, but an
            // abbreviation's body made of imports is fine.
            let init_ty = expand_owned(init_ty, &eqs)?;
            let mut fvs = BTreeSet::new();
            init_ty.free_ty_vars(&mut fvs);
            for fv in &fvs {
                if !import_ty_names.contains(fv) {
                    return Err(CheckError::InitTypeEscape { name: fv.clone() });
                }
            }

            let sig = Signature {
                imports: u.imports.clone(),
                exports: Ports { types: export_tys, vals: export_vals },
                depends,
                equations: Vec::new(),
                init_ty,
            };
            Ok(Ty::Sig(Box::new(sig)))
        })();
        env.restore(mark);
        result
    }

    /// The Fig. 15/19 `compound` rule.
    fn infer_compound(
        &mut self,
        env: &mut Env,
        c: &units_kernel::CompoundExpr,
    ) -> Result<Ty, CheckError> {
        // Constituent unit expressions are typed in the *outer*
        // environment (they are ordinary core expressions).
        let mut actual_sigs = Vec::with_capacity(c.links.len());
        for link in &c.links {
            let ty = self.infer(env, &link.expr)?;
            let ty = expand_owned(ty, &self.eqs(env))?;
            let Ty::Sig(sig) = ty else {
                return Err(CheckError::NotAUnit { found: ty });
            };
            actual_sigs.push(*sig);
        }

        let mark = env.mark();
        let result = (|| {
            // Compound imports and every constituent's provided types are
            // in scope for the clause annotations.
            for tp in &c.imports.types {
                env.bind_ty(tp.name.clone(), tp.kind.clone());
            }
            for link in &c.links {
                for tp in &link.provides.types {
                    env.bind_ty(link.renames.outer_export_ty(&tp.name).clone(), tp.kind.clone());
                }
            }
            for vp in &c.imports.vals {
                let Some(ty) = &vp.ty else {
                    return Err(CheckError::MissingAnnotation {
                        what: "compound import".into(),
                        name: vp.name.clone(),
                    });
                };
                self.wf_ty(env, ty)?;
            }

            // Check each constituent against its clause's expected
            // signature (actual ≤ expected). Clause annotations are
            // written over the constituent's *inner* type names, which are
            // bound for the duration of the clause.
            for (i, (link, actual)) in c.links.iter().zip(&actual_sigs).enumerate() {
                let clause_mark = env.mark();
                for tp in link.with.types.iter().chain(&link.provides.types) {
                    env.bind_ty(tp.name.clone(), tp.kind.clone());
                }
                let result = (|| {
                    let expected = self.clause_signature(env, link, actual, i)?;
                    let eqs = self.eqs(env);
                    subtype(
                        &eqs,
                        &Ty::Sig(Box::new(actual.clone())),
                        &Ty::Sig(Box::new(expected)),
                    )
                    .map_err(|e| e.into_check_error(format!("link clause {i}")))
                })();
                env.restore(clause_mark);
                result?;
            }

            // Linking types: every `with` port must be satisfied by its
            // source — a compound import or another constituent's
            // `provides`, resolved through the clauses' rename pairs — at
            // a compatible type (the ⊆ conditions of the compound rule,
            // Fig. 15).
            for (i, link) in c.links.iter().enumerate() {
                for tp in &link.with.types {
                    let outer = link.renames.outer_import_ty(&tp.name);
                    let source_kind = c
                        .imports
                        .ty_port(outer)
                        .map(|p| &p.kind)
                        .or_else(|| {
                            c.links.iter().enumerate().find_map(|(j, other)| {
                                (j != i)
                                    .then(|| {
                                        other.provides.types.iter().find(|p| {
                                            other.renames.outer_export_ty(&p.name) == outer
                                        })
                                    })
                                    .flatten()
                                    .map(|p| &p.kind)
                            })
                        })
                        .ok_or_else(|| CheckError::UnsatisfiedLink {
                            name: outer.clone(),
                            clause: i,
                        })?;
                    if *source_kind != tp.kind {
                        return Err(CheckError::KindMismatch {
                            name: tp.name.clone(),
                            expected: tp.kind.clone(),
                            found: source_kind.clone(),
                        });
                    }
                }
                for vp in &link.with.vals {
                    let outer = link.renames.outer_import_val(&vp.name);
                    let source_ty = c
                        .imports
                        .val_port(outer)
                        .map(|p| p.ty.clone())
                        .or_else(|| {
                            c.links.iter().enumerate().find_map(|(j, other)| {
                                (j != i)
                                    .then(|| {
                                        other.provides.vals.iter().find(|p| {
                                            other.renames.outer_export_val(&p.name) == outer
                                        })
                                    })
                                    .flatten()
                                    .map(|p| p.ty.clone())
                            })
                        })
                        .ok_or_else(|| CheckError::UnsatisfiedLink {
                            name: outer.clone(),
                            clause: i,
                        })?;
                    if let (Some(source), Some(wanted)) = (source_ty, &vp.ty) {
                        // Find which clause supplied the source so its
                        // annotation can be translated to outer names.
                        let source = match c.links.iter().enumerate().find(|(j, other)| {
                            *j != i
                                && other
                                    .provides
                                    .vals
                                    .iter()
                                    .any(|p| other.renames.outer_export_val(&p.name) == outer)
                        }) {
                            Some((_, provider)) => self.to_outer_ty(provider, &source)?,
                            None => source, // a compound import: already outer
                        };
                        let wanted = self.to_outer_ty(link, wanted)?;
                        self.check_sub(env, &source, &wanted, || {
                            format!("link of `{}` into clause {i}", vp.name)
                        })?;
                    }
                }
            }

            // UNITe: linking must not create a cyclic type definition.
            let depends = self.compound_depends(c, &actual_sigs)?;

            // Exports: each must be provided; derive or check its type.
            let mut export_vals = Vec::with_capacity(c.exports.vals.len());
            for port in &c.exports.vals {
                let (provider, provided) = c
                    .links
                    .iter()
                    .find_map(|l| {
                        l.provides
                            .vals
                            .iter()
                            .find(|p| l.renames.outer_export_val(&p.name) == &port.name)
                            .map(|p| (l, p))
                    })
                    .ok_or_else(|| CheckError::ExportNotProvided { name: port.name.clone() })?;
                let provided_ty = provided.ty.clone().ok_or_else(|| {
                    CheckError::MissingAnnotation {
                        what: "link clause `provides` port".into(),
                        name: port.name.clone(),
                    }
                })?;
                let provided_ty = self.to_outer_ty(provider, &provided_ty)?;
                let ty = match &port.ty {
                    Some(declared) => {
                        self.wf_ty(env, declared)?;
                        self.check_sub(env, &provided_ty, declared, || {
                            format!("compound export `{}`", port.name)
                        })?;
                        declared.clone()
                    }
                    None => provided_ty,
                };
                export_vals.push(ValPort::typed(port.name.clone(), ty));
            }
            let export_tys: Vec<TyPort> = c
                .exports
                .types
                .iter()
                .map(|p| TyPort { name: p.name.clone(), kind: p.kind.clone() })
                .collect();

            // The compound's interface may only mention its own imports
            // and exports: a hidden provided type leaking into an exported
            // value's type is an escape.
            let visible: BTreeSet<Symbol> = c
                .imports
                .ty_names()
                .into_iter()
                .chain(export_tys.iter().map(|p| p.name.clone()))
                .collect();
            for port in &export_vals {
                let mut fvs = BTreeSet::new();
                if let Some(ty) = &port.ty {
                    ty.free_ty_vars(&mut fvs);
                }
                for fv in fvs {
                    if !visible.contains(&fv) {
                        return Err(CheckError::TypeEscape {
                            name: fv,
                            export: port.name.clone(),
                        });
                    }
                }
            }

            // Initialization expressions are sequenced; the value is the
            // last constituent's.
            let init_ty = match actual_sigs.last() {
                Some(sig) => {
                    let ty = sig.init_ty.clone();
                    let mut fvs = BTreeSet::new();
                    ty.free_ty_vars(&mut fvs);
                    for fv in fvs {
                        if !visible.contains(&fv) {
                            return Err(CheckError::InitTypeEscape { name: fv });
                        }
                    }
                    ty
                }
                None => Ty::Void,
            };

            Ok(Ty::Sig(Box::new(Signature {
                imports: c.imports.clone(),
                exports: Ports { types: export_tys, vals: export_vals },
                depends,
                equations: Vec::new(),
                init_ty,
            })))
        })();
        env.restore(mark);
        result
    }

    /// Translates a clause-annotation type from the constituent's inner
    /// type namespace into the compound's outer linking namespace, using
    /// the clause's rename pairs.
    fn to_outer_ty(
        &self,
        link: &units_kernel::LinkClause,
        ty: &Ty,
    ) -> Result<Ty, CheckError> {
        if link.renames.is_empty() {
            return Ok(ty.clone());
        }
        let mut map: HashMap<Symbol, Ty> = HashMap::new();
        for tp in &link.with.types {
            let outer = link.renames.outer_import_ty(&tp.name);
            if outer != &tp.name {
                map.insert(tp.name.clone(), Ty::Var(outer.clone()));
            }
        }
        for tp in &link.provides.types {
            let outer = link.renames.outer_export_ty(&tp.name);
            if outer != &tp.name {
                map.insert(tp.name.clone(), Ty::Var(outer.clone()));
            }
        }
        Ok(units_kernel::subst_ty(ty, &map)?)
    }

    /// Builds the expected signature `sig[w, p, b]` for one link clause.
    fn clause_signature(
        &mut self,
        env: &mut Env,
        link: &units_kernel::LinkClause,
        actual: &Signature,
        index: usize,
    ) -> Result<Signature, CheckError> {
        let mut imports = Ports { types: link.with.types.clone(), vals: Vec::new() };
        for vp in &link.with.vals {
            let Some(ty) = &vp.ty else {
                return Err(CheckError::MissingAnnotation {
                    what: format!("link clause {index} `with` port"),
                    name: vp.name.clone(),
                });
            };
            self.wf_ty(env, ty)?;
            imports.vals.push(ValPort::typed(vp.name.clone(), ty.clone()));
        }
        let mut exports = Ports { types: link.provides.types.clone(), vals: Vec::new() };
        for vp in &link.provides.vals {
            let Some(ty) = &vp.ty else {
                return Err(CheckError::MissingAnnotation {
                    what: format!("link clause {index} `provides` port"),
                    name: vp.name.clone(),
                });
            };
            self.wf_ty(env, ty)?;
            exports.vals.push(ValPort::typed(vp.name.clone(), ty.clone()));
        }
        Ok(Signature {
            imports,
            exports,
            // The clause inherits the constituent's declared dependencies;
            // the explicit link-graph cycle test below does the real work.
            depends: actual.depends.clone(),
            equations: Vec::new(),
            init_ty: actual.init_ty.clone(),
        })
    }

    /// Traces dependencies through the link graph: detects cyclic type
    /// definitions (UNITe compound rule) and computes the compound's own
    /// `depends` declarations.
    fn compound_depends(
        &self,
        c: &units_kernel::CompoundExpr,
        actual_sigs: &[Signature],
    ) -> Result<Vec<Depend>, CheckError> {
        // Nodes are type names (linking is by name, so a constituent's
        // import `t` and another's export `t` are the same node). Edges
        // point from an exported type to an imported type it depends on.
        let mut edges: HashMap<Symbol, BTreeSet<Symbol>> = HashMap::new();
        for (link, sig) in c.links.iter().zip(actual_sigs) {
            for d in &sig.depends {
                // A constituent's dependency is stated over its inner
                // interface names; linking identifies them with outer
                // names through the clause's rename pairs.
                let export = link.renames.outer_export_ty(&d.export).clone();
                let import = link.renames.outer_import_ty(&d.import).clone();
                edges.entry(export).or_default().insert(import);
            }
        }
        // Cycle detection over the dependency edges.
        #[derive(Clone, Copy, PartialEq)]
        enum State {
            Visiting,
            Done,
        }
        fn visit(
            node: &Symbol,
            edges: &HashMap<Symbol, BTreeSet<Symbol>>,
            states: &mut HashMap<Symbol, State>,
        ) -> Result<(), CheckError> {
            match states.get(node) {
                Some(State::Done) => return Ok(()),
                Some(State::Visiting) => {
                    return Err(CheckError::CyclicLink { name: node.clone() })
                }
                None => {}
            }
            states.insert(node.clone(), State::Visiting);
            if let Some(next) = edges.get(node) {
                for n in next {
                    visit(n, edges, states)?;
                }
            }
            states.insert(node.clone(), State::Done);
            Ok(())
        }
        let mut states = HashMap::new();
        for node in edges.keys() {
            visit(node, &edges, &mut states)?;
        }
        // The compound depends on `te ↝ ti` when an exported type reaches
        // an imported type through the graph.
        let import_tys = c.imports.ty_names();
        let mut out = Vec::new();
        for te in &c.exports.types {
            let mut seen = BTreeSet::new();
            let mut work = vec![te.name.clone()];
            while let Some(node) = work.pop() {
                if !seen.insert(node.clone()) {
                    continue;
                }
                if let Some(next) = edges.get(&node) {
                    work.extend(next.iter().cloned());
                }
            }
            for ti in &import_tys {
                if seen.contains(ti) && *ti != te.name {
                    out.push(Depend { export: te.name.clone(), import: ti.clone() });
                }
            }
        }
        Ok(out)
    }

    /// The Fig. 15/19 `invoke` rule.
    fn infer_invoke(
        &mut self,
        env: &mut Env,
        inv: &units_kernel::InvokeExpr,
    ) -> Result<Ty, CheckError> {
        let target_ty = self.infer(env, &inv.target)?;
        let target_ty = expand_owned(target_ty, &self.eqs(env))?;
        let Ty::Sig(sig) = target_ty else {
            return Err(CheckError::NotAUnit { found: target_ty });
        };

        // Supplied types must cover the unit's type imports.
        let mut ty_map: HashMap<Symbol, Ty> = HashMap::new();
        for (name, ty) in &inv.ty_links {
            self.wf_ty(env, ty)?;
            ty_map.insert(name.clone(), expand_ty(ty, &self.eqs(env))?);
        }
        for tp in &sig.imports.types {
            if !ty_map.contains_key(&tp.name) {
                return Err(CheckError::MissingInvokeLink {
                    name: tp.name.clone(),
                    is_type: true,
                });
            }
        }

        // Supplied values must cover the unit's value imports, at the
        // substituted types.
        let export_tys = sig.exports.ty_names();
        for vp in &sig.imports.vals {
            let Some((_, supplied)) = inv.val_links.iter().find(|(n, _)| n == &vp.name) else {
                return Err(CheckError::MissingInvokeLink {
                    name: vp.name.clone(),
                    is_type: false,
                });
            };
            let declared = vp.ty.clone().ok_or_else(|| CheckError::MissingAnnotation {
                what: "unit import".into(),
                name: vp.name.clone(),
            })?;
            let mut fvs = BTreeSet::new();
            declared.free_ty_vars(&mut fvs);
            if let Some(escapee) = fvs.iter().find(|fv| export_tys.contains(*fv)) {
                return Err(CheckError::TypeEscape {
                    name: escapee.clone(),
                    export: vp.name.clone(),
                });
            }
            let expected = units_kernel::subst_ty(&declared, &ty_map)?;
            let supplied_ty = self.infer(env, supplied)?;
            self.check_sub(env, &supplied_ty, &expected, || format!("invoke link `{}`", vp.name))?;
        }

        // Extra value links are typed (they may have effects) and ignored.
        for (name, e) in &inv.val_links {
            if sig.imports.val_port(name).is_none() {
                self.infer(env, e)?;
            }
        }

        // The result is the initialization type under the supplied types
        // (invocation "immediately expands all type abbreviations").
        Ok(units_kernel::subst_ty(&sig.init_ty, &ty_map)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::CheckError;
    use units_syntax::parse_expr;

    fn infer(src: &str, level: Level) -> Result<Ty, CheckError> {
        let e = parse_expr(src).unwrap_or_else(|err| panic!("parse: {err}"));
        type_of(&e, level)
    }

    fn infer_c(src: &str) -> Result<Ty, CheckError> {
        infer(src, Level::Constructed)
    }

    fn infer_e(src: &str) -> Result<Ty, CheckError> {
        infer(src, Level::Equations)
    }

    fn sig_of(src: &str, level: Level) -> Signature {
        match infer(src, level) {
            Ok(Ty::Sig(sig)) => *sig,
            other => panic!("expected a signature, got {other:?}"),
        }
    }

    /// Every position `check_sub` guards names itself in the message of
    /// an ill-typed program, word for word.
    #[test]
    fn every_subtype_check_names_its_position() {
        let link_clash = "(compound (import) (export)
             (link ((unit (import) (export (v int)) (define v int 1)) (with) (provides (v int)))
                   ((unit (import (v bool)) (export) (init v)) (with (v bool)) (provides))))";
        let export_clash = "(compound (import) (export (p bool))
             (link ((unit (import) (export (p int)) (define p int 1)) (with) (provides (p int)))))";
        let rows = [
            ("((lambda ((x int)) x) true)", "type mismatch in argument 1: expected int, found bool"),
            ("(if 1 2 3)", "type mismatch in if condition: expected bool, found int"),
            (
                "(letrec ((define x int 1)) (set! x true))",
                "type mismatch in assignment to `x`: expected int, found bool",
            ),
            (
                "(seal (unit (import) (export) (init 1)) (sig (import) (export) (init bool)))",
                "signature mismatch in seal: initialization type: int is not a subtype of bool",
            ),
            (
                "(letrec ((define d int true)) d)",
                "type mismatch in definition of `d`: expected int, found bool",
            ),
            (
                "(unit (import) (export (p bool)) (define p int 1))",
                "type mismatch in export `p`: expected bool, found int",
            ),
            (link_clash, "type mismatch in link of `v` into clause 1: expected bool, found int"),
            (export_clash, "type mismatch in compound export `p`: expected bool, found int"),
            (
                "(invoke (unit (import (v int)) (export) (init v)) (val v true))",
                "type mismatch in invoke link `v`: expected int, found bool",
            ),
            (
                "(compound (import) (export)
                   (link ((unit (import) (export (v int)) (define v int 1)) (with) (provides (v bool)))))",
                "signature mismatch in link clause 0: export `v`: int is not a subtype of bool",
            ),
        ];
        for (src, message) in rows {
            assert_eq!(infer_c(src).unwrap_err().to_string(), message, "{src}");
        }
        // A declared result type has no surface syntax of its own.
        let lam = Expr::lambda_ret(vec![], Ty::Int, Expr::bool(true));
        assert_eq!(
            type_of(&lam, Level::Constructed).unwrap_err().to_string(),
            "type mismatch in declared result type: expected int, found bool"
        );
    }

    #[test]
    fn literals_and_prims() {
        assert_eq!(infer_c("42").unwrap(), Ty::Int);
        assert_eq!(infer_c("(+ 1 2)").unwrap(), Ty::Int);
        assert_eq!(infer_c("(string-append \"a\" \"b\")").unwrap(), Ty::Str);
        assert!(matches!(infer_c("(+ 1 true)"), Err(CheckError::Mismatch { .. })));
        assert!(matches!(infer_c("(+ 1)"), Err(CheckError::Arity { .. })));
        assert!(matches!(infer_c("(1 2)"), Err(CheckError::NotAFunction { .. })));
    }

    #[test]
    fn lambdas_require_annotations() {
        assert_eq!(
            infer_c("(lambda ((n int)) (+ n 1))").unwrap(),
            Ty::arrow(vec![Ty::Int], Ty::Int)
        );
        assert!(matches!(
            infer_c("(lambda (n) n)"),
            Err(CheckError::MissingAnnotation { .. })
        ));
    }

    #[test]
    fn if_requires_bool_and_joins_branches() {
        assert_eq!(infer_c("(if true 1 2)").unwrap(), Ty::Int);
        assert!(matches!(infer_c("(if 1 2 3)"), Err(CheckError::Mismatch { .. })));
        assert!(matches!(infer_c("(if true 1 \"s\")"), Err(CheckError::Mismatch { .. })));
    }

    #[test]
    fn tuples_and_projections() {
        assert_eq!(
            infer_c("(proj 1 (tuple 1 \"a\"))").unwrap(),
            Ty::Str
        );
        assert!(matches!(infer_c("(proj 5 (tuple 1))"), Err(CheckError::Arity { .. })));
        assert!(matches!(infer_c("(proj 0 1)"), Err(CheckError::NotATuple { .. })));
    }

    #[test]
    fn unit_rule_derives_signature() {
        let sig = sig_of(
            "(unit (import (type info) (error (-> str void)))
                   (export (new (-> int)))
                   (define new (-> int) (lambda () 7))
                   (init (new)))",
            Level::Constructed,
        );
        assert_eq!(sig.imports.types.len(), 1);
        assert_eq!(sig.exports.vals[0].ty, Some(Ty::thunk(Ty::Int)));
        assert_eq!(sig.init_ty, Ty::Int);
    }

    #[test]
    fn datatype_operations_are_typed() {
        let sig = sig_of(
            "(unit (import) (export (type db) (mk (-> int db)) (db? (-> db bool)))
                   (datatype db (mk unmk int) (no unno void) db?)
                   (init void))",
            Level::Constructed,
        );
        assert!(sig.exports.ty_port(&"db".into()).is_some());
        assert_eq!(
            sig.exports.val_port(&"mk".into()).unwrap().ty,
            Some(Ty::arrow(vec![Ty::Int], Ty::var("db")))
        );
    }

    #[test]
    fn recursive_datatypes_are_fine() {
        infer_c(
            "(unit (import) (export (type tree))
               (datatype tree (node unnode (tuple tree tree)) (leaf unleaf int) tree?)
               (init void))",
        )
        .unwrap();
    }

    #[test]
    fn init_type_cannot_mention_local_or_exported_types() {
        // Exported datatype in init position.
        let err = infer_c(
            "(unit (import) (export (type db) (mk (-> int db)))
               (datatype db (mk unmk int) db?)
               (init (mk 1)))",
        )
        .unwrap_err();
        assert!(matches!(err, CheckError::InitTypeEscape { name } if name.as_str() == "db"));
        // Local (non-exported) datatype too.
        let err = infer_c(
            "(unit (import) (export)
               (datatype secret (mk unmk int) secret?)
               (init (mk 1)))",
        )
        .unwrap_err();
        assert!(matches!(err, CheckError::InitTypeEscape { .. }));
    }

    #[test]
    fn export_types_cannot_leak_local_datatypes() {
        let err = infer_c(
            "(unit (import) (export (get (-> secret)))
               (datatype secret (mk unmk int) secret?)
               (define get (-> secret) (lambda () (mk 1)))
               (init void))",
        )
        .unwrap_err();
        assert!(matches!(err, CheckError::TypeEscape { name, .. } if name.as_str() == "secret"));
    }

    #[test]
    fn compound_links_types_between_constituents() {
        // A provides type t and f : →t; B consumes them.
        let sig = sig_of(
            "(compound (import) (export (g (-> t bool)) (type t))
               (link ((unit (import) (export (type t) (f (-> t)))
                        (datatype t (mk unmk int) t?)
                        (define f (-> t) (lambda () (mk 1))))
                      (with) (provides (type t) (f (-> t))))
                     ((unit (import (type t) (f (-> t)))
                            (export (g (-> t bool)))
                        (define g (-> t bool) (lambda ((x t)) true)))
                      (with (type t) (f (-> t))) (provides (g (-> t bool))))))",
            Level::Constructed,
        );
        assert!(sig.exports.ty_port(&"t".into()).is_some());
        assert!(sig.is_program());
    }

    #[test]
    fn fig4_bad_type_mismatch_is_rejected() {
        // Gui exports openBook over its *own* opaque db2; Main expects
        // openBook over PhoneBook's db. The subtype check on Main's with
        // clause fails — "db and openBook:db→bool refer to types named db
        // that originate from different units".
        let err = infer_c(
            "(compound (import) (export)
               (link ((unit (import) (export (type db) (new (-> db)))
                        (datatype db (mkdb undb int) db?)
                        (define new (-> db) (lambda () (mkdb 0))))
                      (with) (provides (type db) (new (-> db))))
                     ((unit (import) (export (type db2) (openBook (-> db2 bool)))
                        (datatype db2 (mkg ung int) g?)
                        (define openBook (-> db2 bool) (lambda ((x db2)) true)))
                      (with) (provides (type db2) (openBook (-> db2 bool))))
                     ((unit (import (type db) (new (-> db)) (openBook (-> db bool)))
                            (export)
                        (init (openBook (new))))
                      (with (type db) (new (-> db)) (openBook (-> db bool)))
                      (provides))))",
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                CheckError::Mismatch { .. }
                    | CheckError::UnsatisfiedLink { .. }
                    | CheckError::NotSubsignature { .. }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn fig4_bad_duplicate_db_is_rejected_by_distinctness() {
        // The other reading of Fig. 4: both units provide a type named
        // `db`. The by-name calculus rejects this via the distinctness
        // side condition (checked by context_check).
        let e = parse_expr(
            "(compound (import) (export)
               (link ((unit (import) (export (type db)) (datatype db (a b int) p?))
                      (with) (provides (type db)))
                     ((unit (import) (export (type db)) (datatype db (c d int) q?))
                      (with) (provides (type db)))))",
        )
        .unwrap();
        let errs = crate::context_check(&e, crate::Strictness::Paper).unwrap_err();
        assert!(matches!(&errs[0], CheckError::Duplicate { name, .. } if name.as_str() == "db"));
    }

    #[test]
    fn invoke_complete_program_yields_init_type() {
        assert_eq!(
            infer_c("(invoke (unit (import) (export) (init 42)))").unwrap(),
            Ty::Int
        );
    }

    #[test]
    fn invoke_substitutes_supplied_types() {
        let ty = infer_c(
            "(invoke (unit (import (type info) (get (-> info))) (export)
                       (init (get)))
                     (type info int)
                     (val get (lambda () 9)))",
        )
        .unwrap();
        assert_eq!(ty, Ty::Int);
    }

    #[test]
    fn invoke_missing_links_are_rejected() {
        let err = infer_c(
            "(invoke (unit (import (x int)) (export) (init x)))",
        )
        .unwrap_err();
        assert!(matches!(err, CheckError::MissingInvokeLink { name, is_type: false } if name.as_str() == "x"));
        let err = infer_c(
            "(invoke (unit (import (type t)) (export) (init void)))",
        )
        .unwrap_err();
        assert!(matches!(err, CheckError::MissingInvokeLink { is_type: true, .. }));
    }

    #[test]
    fn invoke_link_type_mismatch_is_rejected() {
        let err = infer_c(
            "(invoke (unit (import (x int)) (export) (init x)) (val x true))",
        )
        .unwrap_err();
        assert!(matches!(err, CheckError::Mismatch { .. }));
    }

    #[test]
    fn aliases_are_unitc_illegal_unite_legal() {
        let src = "(unit (import) (export (f (-> str int)))
                     (alias env (-> str int))
                     (define f env (lambda ((s str)) 0))
                     (init void))";
        assert!(matches!(
            infer_c(src),
            Err(CheckError::UnsupportedAtLevel { .. })
        ));
        // UNITe: ok, and the alias is expanded away in the interface.
        let sig = sig_of(src, Level::Equations);
        assert_eq!(
            sig.exports.val_port(&"f".into()).unwrap().ty,
            Some(Ty::arrow(vec![Ty::Str], Ty::Int))
        );
    }

    #[test]
    fn exported_alias_is_opaque_with_computed_depends() {
        let sig = sig_of(
            "(unit (import (type name) (type value)) (export (type env) (empty env))
               (alias env (-> name value))
               (define empty env (lambda ((n name)) ((inst fail value) \"empty\")))
               (init void))",
            Level::Equations,
        );
        assert!(sig.exports.ty_port(&"env".into()).is_some());
        let deps = sig.depend_set();
        assert!(deps.contains(&Depend::new("env", "name")), "deps: {deps:?}");
        assert!(deps.contains(&Depend::new("env", "value")), "deps: {deps:?}");
        // The exported alias stays opaque in export value types.
        assert_eq!(
            sig.exports.val_port(&"empty".into()).unwrap().ty,
            Some(Ty::var("env"))
        );
    }

    #[test]
    fn cyclic_aliases_are_rejected() {
        let err = infer_e(
            "(letrec ((alias a b) (alias b a)) void)",
        )
        .unwrap_err();
        assert!(matches!(err, CheckError::CyclicTypeEquation { .. }));
    }

    #[test]
    fn cyclic_link_of_type_dependencies_is_rejected() {
        // Unit 1: exports alias a = i1 → i1 where i1 is imported (a ↝ i1).
        // Unit 2: exports alias b = i2 → i2 (b ↝ i2). Linking a→i2's
        // position and b→i1's position creates a definitional cycle.
        let err = infer_e(
            "(compound (import) (export)
               (link ((unit (import (type b)) (export (type a))
                        (alias a (-> b b)))
                      (with (type b)) (provides (type a)))
                     ((unit (import (type a)) (export (type b))
                        (alias b (-> a a)))
                      (with (type a)) (provides (type b)))))",
        )
        .unwrap_err();
        assert!(matches!(err, CheckError::CyclicLink { .. }), "got {err:?}");
    }

    #[test]
    fn acyclic_type_links_propagate_depends() {
        let sig = sig_of(
            "(compound (import (type base)) (export (type a))
               (link ((unit (import (type b)) (export (type a))
                        (alias a (-> b b)))
                      (with (type b)) (provides (type a)))
                     ((unit (import (type base)) (export (type b))
                        (alias b (-> base base)))
                      (with (type base)) (provides (type b)))))",
            Level::Equations,
        );
        assert!(sig.depend_set().contains(&Depend::new("a", "base")), "{:?}", sig.depends);
    }

    #[test]
    fn seal_restricts_a_signature() {
        let ty = infer_c(
            "(seal (unit (import) (export (one int) (two int))
                     (define one int 1) (define two int 2))
                   (sig (import) (export (one int)) (init void)))",
        )
        .unwrap();
        let sig = ty.as_sig().unwrap();
        assert!(sig.exports.val_port(&"one".into()).is_some());
        assert!(sig.exports.val_port(&"two".into()).is_none());
    }

    #[test]
    fn seal_cannot_invent_exports() {
        let err = infer_c(
            "(seal (unit (import) (export))
                   (sig (import) (export (ghost int)) (init void)))",
        )
        .unwrap_err();
        assert!(matches!(err, CheckError::NotSubsignature { .. }));
    }

    #[test]
    fn set_is_typed() {
        infer_c(
            "(unit (import) (export)
               (define counter int 0)
               (init (set! counter (+ counter 1))))",
        )
        .unwrap();
        let err = infer_c(
            "(unit (import) (export)
               (define counter int 0)
               (init (set! counter \"no\")))",
        )
        .unwrap_err();
        assert!(matches!(err, CheckError::Mismatch { .. }));
    }

    #[test]
    fn unannotated_definitions_are_inferred_in_order() {
        let sig = sig_of(
            "(unit (import) (export (a int))
               (define a 1)
               (define b (tuple a 2))
               (init void))",
            Level::Constructed,
        );
        // Hmm: `b = (tuple a 2)` reads `a`… which is forbidden by
        // valuability but typable; typing is what we test here.
        assert_eq!(sig.exports.val_port(&"a".into()).unwrap().ty, Some(Ty::Int));
    }

    #[test]
    fn recursive_unannotated_definitions_need_annotations() {
        let err = infer_c(
            "(letrec ((define f (lambda ((n int)) (f n)))) (f 1))",
        )
        .unwrap_err();
        assert!(matches!(err, CheckError::MissingAnnotation { .. }));
        // With an annotation the recursion checks.
        infer_c(
            "(letrec ((define f (-> int int) (lambda ((n int)) (f n)))) (f 1))",
        )
        .unwrap();
    }

    #[test]
    fn hash_prims_are_typed_via_instantiation() {
        assert_eq!(infer_c("((inst hash-new int))").unwrap(), Ty::hash(Ty::Int));
        assert_eq!(
            infer_c("((inst hash-get int) ((inst hash-new int)) \"k\")").unwrap(),
            Ty::Int
        );
        assert!(matches!(
            infer_c("((inst hash-set! int) ((inst hash-new int)) \"k\" true)"),
            Err(CheckError::Mismatch { .. })
        ));
    }
}
