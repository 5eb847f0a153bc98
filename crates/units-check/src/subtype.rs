//! Signature subtyping (paper Figs. 14 and 17) and the §5.2 extension for
//! hiding type information.
//!
//! `sig_s ≤ sig_g` holds when a unit with the specific signature can be
//! used wherever the general one is expected:
//!
//! 1. the initialization type is covariant;
//! 2. the subtype has *fewer imports* and *more exports*;
//! 3. import value types are contravariant, export value types covariant;
//! 4. (Fig. 17) the subtype declares *no more dependencies* than the
//!    supertype — the assumed signature must over-approximate the unit's
//!    real dependencies, otherwise a cyclic type definition could slip
//!    through linking (see DESIGN.md §1 for the soundness note);
//! 5. (§5.2) an opaque exported type in the supertype may be satisfied by
//!    a translucent abbreviation in the subtype, hiding its body — in
//!    which case the supertype must declare the dependencies the hidden
//!    body induces.

use std::borrow::Cow;
use std::fmt;

use units_kernel::{Depend, Kind, Signature, Ty};

use crate::diag::CheckError;
use crate::expand::{expand_ty, reachable_tys, Equations};

/// Why a subtype check failed, in prose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubtypeError {
    /// Human-readable reason (lowercase, no trailing punctuation).
    pub reason: String,
}

impl SubtypeError {
    fn new(reason: impl Into<String>) -> SubtypeError {
        SubtypeError { reason: reason.into() }
    }
}

impl fmt::Display for SubtypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.reason)
    }
}

impl std::error::Error for SubtypeError {}

impl SubtypeError {
    /// Converts into a [`CheckError`] with the position that required the
    /// subtype relation.
    pub fn into_check_error(self, context: impl Into<String>) -> CheckError {
        CheckError::NotSubsignature { reason: self.reason, context: context.into() }
    }
}

/// Checks `sub ≤ sup` under the equation set `D` (paper `≤` judgment,
/// Figs. 14/17). When `D` is not empty both types are expanded with it
/// first, so abbreviations compare transparently.
///
/// # Errors
///
/// Returns a [`SubtypeError`] naming the first failing condition. Cyclic
/// equations surface as an error mentioning the cycle.
///
/// # Examples
///
/// ```
/// use units_check::{subtype, Equations};
/// use units_kernel::Ty;
/// // int→int ≤ int→int, but not int→int ≤ bool→int
/// subtype(&Equations::new(), &Ty::arrow(vec![Ty::Int], Ty::Int),
///         &Ty::arrow(vec![Ty::Int], Ty::Int)).unwrap();
/// assert!(subtype(&Equations::new(), &Ty::arrow(vec![Ty::Int], Ty::Int),
///                 &Ty::arrow(vec![Ty::Bool], Ty::Int)).is_err());
/// ```
pub fn subtype(eqs: &Equations, sub: &Ty, sup: &Ty) -> Result<(), SubtypeError> {
    let sub = expanded(sub, eqs)?;
    let sup = expanded(sup, eqs)?;
    units_trace::count("check/fig14/subtype", 1);
    st(&sub, &sup)
}

/// `⌊ty⌋_D`, borrowed when `D` is empty: expansion is then the identity
/// and cannot fail, so there is nothing to copy.
fn expanded<'t>(ty: &'t Ty, eqs: &Equations) -> Result<Cow<'t, Ty>, SubtypeError> {
    if eqs.is_empty() {
        Ok(Cow::Borrowed(ty))
    } else {
        expand_ty(ty, eqs).map(Cow::Owned).map_err(|e| SubtypeError::new(e.to_string()))
    }
}

/// Type equality under `D`: `a ≤ b` and `b ≤ a`.
pub fn ty_equal(eqs: &Equations, a: &Ty, b: &Ty) -> bool {
    subtype(eqs, a, b).is_ok() && subtype(eqs, b, a).is_ok()
}

fn st(sub: &Ty, sup: &Ty) -> Result<(), SubtypeError> {
    units_trace::count("check/fig14/st", 1);
    match (sub, sup) {
        (Ty::Var(a), Ty::Var(b)) if a == b => Ok(()),
        (Ty::Int, Ty::Int) | (Ty::Bool, Ty::Bool) | (Ty::Str, Ty::Str) | (Ty::Void, Ty::Void) => {
            Ok(())
        }
        (Ty::Arrow(p1, r1), Ty::Arrow(p2, r2)) => {
            if p1.len() != p2.len() {
                return Err(SubtypeError::new(format!(
                    "function arity differs: {} vs {}",
                    p1.len(),
                    p2.len()
                )));
            }
            for (a, b) in p1.iter().zip(p2) {
                st(b, a).map_err(|e| {
                    SubtypeError::new(format!("parameter (contravariant): {e}"))
                })?;
            }
            st(r1, r2)
        }
        (Ty::Tuple(a), Ty::Tuple(b)) => {
            if a.len() != b.len() {
                return Err(SubtypeError::new("tuple widths differ"));
            }
            for (x, y) in a.iter().zip(b) {
                st(x, y)?;
            }
            Ok(())
        }
        (Ty::Hash(a), Ty::Hash(b)) => {
            // Mutable containers are invariant.
            st(a, b).and_then(|_| st(b, a)).map_err(|_| {
                SubtypeError::new(format!("hash element types must be equal: {a} vs {b}"))
            })
        }
        (Ty::Sig(sub), Ty::Sig(sup)) => sig_subtype(sub, sup),
        _ => Err(SubtypeError::new(format!("{sub} is not a subtype of {sup}"))),
    }
}

fn kind_eq(name: &units_kernel::Symbol, a: &Kind, b: &Kind) -> Result<(), SubtypeError> {
    if a == b {
        Ok(())
    } else {
        Err(SubtypeError::new(format!("kind of `{name}` differs: {a} vs {b}")))
    }
}

fn sig_subtype(sub: &Signature, sup: &Signature) -> Result<(), SubtypeError> {
    // Equations are transparent: both sides' port types are compared under
    // the *merged* abbreviation set, so a translucent `env = name→value`
    // in either signature matches its expansion in the other (Fig. 20).
    // Where both sides define the same abbreviation, the bodies must agree;
    // a supertype abbreviation must not claim transparency for a type the
    // subtype exports opaquely (a generative datatype is never an
    // abbreviation).
    let mut local = Equations::new();
    for eq in sub.equations.iter().chain(&sup.equations) {
        local.insert(eq.name.clone(), eq.body.clone());
    }
    for eq in &sup.equations {
        if sub.exports.ty_port(&eq.name).is_some() {
            return Err(SubtypeError::new(format!(
                "supertype claims `{}` is an abbreviation, but the subtype exports it opaquely",
                eq.name
            )));
        }
        if let Some(sub_eq) = sub.equations.iter().find(|e| e.name == eq.name) {
            kind_eq(&eq.name, &sub_eq.kind, &eq.kind)?;
            let a = expanded(&sub_eq.body, &local)?;
            let b = expanded(&eq.body, &local)?;
            st(&a, &b).and_then(|_| st(&b, &a)).map_err(|_| {
                SubtypeError::new(format!(
                    "abbreviation `{}` differs: {} vs {}",
                    eq.name, sub_eq.body, eq.body
                ))
            })?;
        }
    }

    // 1. Initialization type is covariant.
    st(&*expanded(&sub.init_ty, &local)?, &*expanded(&sup.init_ty, &local)?)
        .map_err(|e| SubtypeError::new(format!("initialization type: {e}")))?;

    // 2a. Fewer type imports.
    for tp in &sub.imports.types {
        let Some(sup_tp) = sup.imports.ty_port(&tp.name) else {
            return Err(SubtypeError::new(format!(
                "subtype imports type `{}` that the supertype does not",
                tp.name
            )));
        };
        kind_eq(&tp.name, &tp.kind, &sup_tp.kind)?;
    }
    // 2b. Fewer value imports, contravariantly typed.
    for vp in &sub.imports.vals {
        let Some(sup_vp) = sup.imports.val_port(&vp.name) else {
            return Err(SubtypeError::new(format!(
                "subtype imports `{}` that the supertype does not",
                vp.name
            )));
        };
        match (&vp.ty, &sup_vp.ty) {
            (None, None) => {}
            (Some(t_sub), Some(t_sup)) => {
                st(&*expanded(t_sup, &local)?, &*expanded(t_sub, &local)?).map_err(|e| {
                    SubtypeError::new(format!("import `{}` (contravariant): {e}", vp.name))
                })?;
            }
            _ => {
                return Err(SubtypeError::new(format!(
                    "import `{}` mixes typed and untyped declarations",
                    vp.name
                )))
            }
        }
    }

    // 3a. More type exports; an opaque supertype export may be satisfied by
    // a subtype abbreviation (§5.2).
    for tp in &sup.exports.types {
        if let Some(sub_tp) = sub.exports.ty_port(&tp.name) {
            kind_eq(&tp.name, &sub_tp.kind, &tp.kind)?;
        } else if let Some(eq) = sub.equations.iter().find(|e| e.name == tp.name) {
            kind_eq(&tp.name, &eq.kind, &tp.kind)?;
            // Hiding the body keeps its link-time constraints: every
            // dependency the hidden abbreviation has on an imported type
            // must be declared by the supertype.
            let reach = reachable_tys(&eq.body, &local);
            for ti in &sub.imports.types {
                if reach.contains(&ti.name) {
                    let need = Depend { export: tp.name.clone(), import: ti.name.clone() };
                    if !sup.depends.contains(&need) {
                        return Err(SubtypeError::new(format!(
                            "hiding abbreviation `{}` requires the supertype to declare `{need}`",
                            tp.name
                        )));
                    }
                }
            }
        } else {
            return Err(SubtypeError::new(format!(
                "supertype exports type `{}` that the subtype does not",
                tp.name
            )));
        }
    }
    // 3b. More value exports, covariantly typed.
    for vp in &sup.exports.vals {
        let Some(sub_vp) = sub.exports.val_port(&vp.name) else {
            return Err(SubtypeError::new(format!(
                "supertype exports `{}` that the subtype does not",
                vp.name
            )));
        };
        match (&sub_vp.ty, &vp.ty) {
            (None, None) => {}
            (Some(t_sub), Some(t_sup)) => {
                st(&*expanded(t_sub, &local)?, &*expanded(t_sup, &local)?).map_err(|e| {
                    SubtypeError::new(format!("export `{}`: {e}", vp.name))
                })?;
            }
            _ => {
                return Err(SubtypeError::new(format!(
                    "export `{}` mixes typed and untyped declarations",
                    vp.name
                )))
            }
        }
    }

    // 4. Dependencies: the subtype may declare no more than the supertype
    // (the assumed signature over-approximates; Fig. 17, see DESIGN.md §1).
    let sup_deps = sup.depend_set();
    for d in &sub.depends {
        // A dependency only matters while both ends are part of the
        // supertype's interface.
        let relevant = sup.exports.ty_port(&d.export).is_some()
            && sup.imports.ty_port(&d.import).is_some();
        if relevant && !sup_deps.contains(d) {
            return Err(SubtypeError::new(format!(
                "subtype declares dependency `{d}` that the supertype does not"
            )));
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use units_kernel::{Ports, SigEquation, Symbol, TyPort, ValPort};

    fn sig(imports: Ports, exports: Ports, init: Ty) -> Signature {
        Signature::new(imports, exports, init)
    }

    fn no_eqs() -> Equations {
        Equations::new()
    }

    #[test]
    fn base_and_arrow_rules() {
        let e = no_eqs();
        subtype(&e, &Ty::Int, &Ty::Int).unwrap();
        assert!(subtype(&e, &Ty::Int, &Ty::Bool).is_err());
        // Covariant result, contravariant parameter via sig nesting below.
        subtype(
            &e,
            &Ty::arrow(vec![Ty::Str], Ty::Int),
            &Ty::arrow(vec![Ty::Str], Ty::Int),
        )
        .unwrap();
    }

    #[test]
    fn sig_reflexivity() {
        let s = Ty::sig(sig(
            Ports {
                types: vec![TyPort::star("info")],
                vals: vec![ValPort::typed("error", Ty::arrow(vec![Ty::Str], Ty::Void))],
            },
            Ports {
                types: vec![TyPort::star("db")],
                vals: vec![ValPort::typed("new", Ty::thunk(Ty::var("db")))],
            },
            Ty::Void,
        ));
        subtype(&no_eqs(), &s, &s).unwrap();
    }

    #[test]
    fn fewer_imports_and_more_exports_is_a_subtype() {
        let small_needs = Ty::sig(sig(
            Ports { types: vec![], vals: vec![ValPort::typed("error", Ty::arrow(vec![Ty::Str], Ty::Void))] },
            Ports {
                types: vec![],
                vals: vec![
                    ValPort::typed("new", Ty::thunk(Ty::Int)),
                    ValPort::typed("extra", Ty::Int),
                ],
            },
            Ty::Void,
        ));
        let general = Ty::sig(sig(
            Ports {
                types: vec![],
                vals: vec![
                    ValPort::typed("error", Ty::arrow(vec![Ty::Str], Ty::Void)),
                    ValPort::typed("log", Ty::arrow(vec![Ty::Str], Ty::Void)),
                ],
            },
            Ports { types: vec![], vals: vec![ValPort::typed("new", Ty::thunk(Ty::Int))] },
            Ty::Void,
        ));
        subtype(&no_eqs(), &small_needs, &general).unwrap();
        assert!(subtype(&no_eqs(), &general, &small_needs).is_err());
    }

    #[test]
    fn import_types_are_contravariant_export_types_covariant() {
        // Exports: a unit exporting an int-thunk can serve where a
        // void-accepting consumer... use arrow depth to exercise variance.
        let provides_specific = Ty::sig(sig(
            Ports::new(),
            Ports {
                types: vec![],
                // export f : (str→void)→int
                vals: vec![ValPort::typed(
                    "f",
                    Ty::arrow(vec![Ty::arrow(vec![Ty::Str], Ty::Void)], Ty::Int),
                )],
            },
            Ty::Void,
        ));
        subtype(&no_eqs(), &provides_specific, &provides_specific).unwrap();
    }

    #[test]
    fn depends_must_be_over_approximated_by_the_supertype() {
        let imports = Ports { types: vec![TyPort::star("i")], vals: vec![] };
        let exports = Ports { types: vec![TyPort::star("e")], vals: vec![] };
        let mut with_dep = sig(imports.clone(), exports.clone(), Ty::Void);
        with_dep.depends.push(Depend::new("e", "i"));
        let without_dep = sig(imports, exports, Ty::Void);

        // A unit with no real dependencies may be assumed to have some…
        subtype(&no_eqs(), &Ty::sig(without_dep.clone()), &Ty::sig(with_dep.clone())).unwrap();
        // …but a unit *with* a dependency cannot hide it.
        let err =
            subtype(&no_eqs(), &Ty::sig(with_dep), &Ty::sig(without_dep)).unwrap_err();
        assert!(err.reason.contains("dependency"));
    }

    #[test]
    fn equations_expand_transparently() {
        let eqs = Equations::from([(Symbol::new("env"), Ty::arrow(vec![Ty::Str], Ty::Int))]);
        subtype(&eqs, &Ty::var("env"), &Ty::arrow(vec![Ty::Str], Ty::Int)).unwrap();
        assert!(ty_equal(&eqs, &Ty::var("env"), &Ty::arrow(vec![Ty::Str], Ty::Int)));
    }

    #[test]
    fn hiding_an_abbreviation_requires_declared_dependencies() {
        // Fig. 21: RecEnv exposes `env = name→value` translucent; sealing to
        // an opaque `env` must declare env ↝ name, env ↝ value.
        let imports = Ports {
            types: vec![TyPort::star("name"), TyPort::star("value")],
            vals: vec![],
        };
        let translucent = Signature {
            imports: imports.clone(),
            exports: Ports {
                types: vec![],
                vals: vec![ValPort::typed(
                    "extend",
                    Ty::arrow(
                        vec![Ty::var("env"), Ty::var("name"), Ty::var("value")],
                        Ty::var("env"),
                    ),
                )],
            },
            depends: vec![],
            equations: vec![SigEquation {
                name: "env".into(),
                kind: Kind::Star,
                body: Ty::arrow(vec![Ty::var("name")], Ty::var("value")),
            }],
            init_ty: Ty::Void,
        };
        let opaque_exports = Ports {
            types: vec![TyPort::star("env")],
            vals: vec![ValPort::typed(
                "extend",
                Ty::arrow(
                    vec![Ty::var("env"), Ty::var("name"), Ty::var("value")],
                    Ty::var("env"),
                ),
            )],
        };
        // Without depends: rejected.
        let opaque_missing = sig(imports.clone(), opaque_exports.clone(), Ty::Void);
        let err = subtype(&no_eqs(), &Ty::sig(translucent.clone()), &Ty::sig(opaque_missing))
            .unwrap_err();
        assert!(err.reason.contains("depends") || err.reason.contains("declare"), "{err}");
        // With both depends declared: accepted.
        let mut opaque_ok = sig(imports, opaque_exports, Ty::Void);
        opaque_ok.depends.push(Depend::new("env", "name"));
        opaque_ok.depends.push(Depend::new("env", "value"));
        subtype(&no_eqs(), &Ty::sig(translucent), &Ty::sig(opaque_ok)).unwrap();
    }

    #[test]
    fn hash_is_invariant() {
        let e = no_eqs();
        subtype(&e, &Ty::hash(Ty::Int), &Ty::hash(Ty::Int)).unwrap();
        assert!(subtype(&e, &Ty::hash(Ty::Int), &Ty::hash(Ty::Void)).is_err());
    }
}
