//! Type-abbreviation expansion `⌊τ⌋_D` (paper Fig. 18) and the
//! depends-on relation `∝_D` (paper §4.3.1).
//!
//! Given a set of type equations `D`, expansion replaces every equation
//! name with its (recursively expanded) body. The typing rules guarantee
//! equations are acyclic, so expansion terminates; this module still guards
//! against cycles and reports them rather than looping.

use std::collections::{BTreeSet, HashMap};

use units_kernel::{Ports, Signature, Symbol, Ty};

use crate::diag::CheckError;

/// A set of type equations `D = {t = τ, …}`.
#[derive(Debug, Clone, Default)]
pub struct Equations {
    map: HashMap<Symbol, Ty>,
}

impl Equations {
    /// An empty equation set.
    pub fn new() -> Equations {
        Equations::default()
    }

    /// Builds a set from `(name, body)` pairs.
    pub fn from_pairs<I>(pairs: I) -> Equations
    where
        I: IntoIterator<Item = (Symbol, Ty)>,
    {
        Equations { map: pairs.into_iter().collect() }
    }

    /// Adds an equation, replacing any previous one for the same name.
    pub fn insert(&mut self, name: Symbol, body: Ty) {
        self.map.insert(name, body);
    }

    /// The body for `name`, if it is an abbreviation.
    pub fn get(&self, name: &Symbol) -> Option<&Ty> {
        self.map.get(name)
    }

    /// Number of equations.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when there are no equations.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// A copy with the given names removed (used when entering a `sig`
    /// binder, per Fig. 18's side condition `t ∉ t̄i ∪ t̄e`).
    pub fn without(&self, names: &BTreeSet<Symbol>) -> Equations {
        if names.is_empty() {
            return self.clone();
        }
        Equations {
            map: self
                .map
                .iter()
                .filter(|(k, _)| !names.contains(*k))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Verifies the equations are acyclic (the Fig. 19 side condition
    /// `τ_a ∝ t_i ⇒ τ_i ∝̸ t_a`, generalized to any cycle).
    ///
    /// # Errors
    ///
    /// Returns [`CheckError::CyclicTypeEquation`] naming a variable on the
    /// cycle.
    pub fn check_acyclic(&self) -> Result<(), CheckError> {
        #[derive(Clone, Copy, PartialEq)]
        enum State {
            Visiting,
            Done,
        }
        fn visit(
            name: &Symbol,
            eqs: &HashMap<Symbol, Ty>,
            states: &mut HashMap<Symbol, State>,
        ) -> Result<(), CheckError> {
            match states.get(name) {
                Some(State::Done) => return Ok(()),
                Some(State::Visiting) => {
                    return Err(CheckError::CyclicTypeEquation { name: name.clone() })
                }
                None => {}
            }
            if let Some(body) = eqs.get(name) {
                states.insert(name.clone(), State::Visiting);
                let mut fvs = BTreeSet::new();
                body.free_ty_vars(&mut fvs);
                for fv in &fvs {
                    visit(fv, eqs, states)?;
                }
            }
            states.insert(name.clone(), State::Done);
            Ok(())
        }
        let mut states = HashMap::new();
        for name in self.map.keys() {
            visit(name, &self.map, &mut states)?;
        }
        Ok(())
    }
}

impl<const N: usize> From<[(Symbol, Ty); N]> for Equations {
    fn from(pairs: [(Symbol, Ty); N]) -> Self {
        Equations::from_pairs(pairs)
    }
}

/// Expands every abbreviation in `ty` (Fig. 18's `⌊τ⌋_D`).
///
/// # Errors
///
/// Returns [`CheckError::CyclicTypeEquation`] if the equations are cyclic,
/// or [`CheckError::Capture`] if an expansion would move a type variable
/// under a signature that binds it.
///
/// # Examples
///
/// ```
/// use units_check::{expand_ty, Equations};
/// use units_kernel::Ty;
/// let eqs = Equations::from([("env".into(), Ty::arrow(vec![Ty::Str], Ty::Int))]);
/// let t = expand_ty(&Ty::arrow(vec![Ty::var("env")], Ty::var("env")), &eqs).unwrap();
/// let env = Ty::arrow(vec![Ty::Str], Ty::Int);
/// assert_eq!(t, Ty::arrow(vec![env.clone()], env));
/// ```
pub fn expand_ty(ty: &Ty, eqs: &Equations) -> Result<Ty, CheckError> {
    let mut visiting = BTreeSet::new();
    expand(ty, eqs, &mut visiting)
}

/// [`expand_ty`] of an owned type, which comes back uncopied when `eqs`
/// is empty: expansion is then the identity.
pub(crate) fn expand_owned(ty: Ty, eqs: &Equations) -> Result<Ty, CheckError> {
    if eqs.is_empty() {
        Ok(ty)
    } else {
        expand_ty(&ty, eqs)
    }
}

fn expand(ty: &Ty, eqs: &Equations, visiting: &mut BTreeSet<Symbol>) -> Result<Ty, CheckError> {
    Ok(match ty {
        Ty::Var(t) => match eqs.get(t) {
            Some(body) => {
                if !visiting.insert(t.clone()) {
                    return Err(CheckError::CyclicTypeEquation { name: t.clone() });
                }
                let out = expand(body, eqs, visiting)?;
                visiting.remove(t);
                out
            }
            None => ty.clone(),
        },
        Ty::Int | Ty::Bool | Ty::Str | Ty::Void => ty.clone(),
        Ty::Arrow(params, ret) => Ty::Arrow(
            params.iter().map(|p| expand(p, eqs, visiting)).collect::<Result<_, _>>()?,
            Box::new(expand(ret, eqs, visiting)?),
        ),
        Ty::Tuple(items) => {
            Ty::Tuple(items.iter().map(|i| expand(i, eqs, visiting)).collect::<Result<_, _>>()?)
        }
        Ty::Hash(elem) => Ty::Hash(Box::new(expand(elem, eqs, visiting)?)),
        Ty::Sig(sig) => Ty::Sig(Box::new(expand_sig(sig, eqs)?)),
    })
}

/// Expands abbreviations inside a signature, respecting its binders.
///
/// # Errors
///
/// Returns the same errors as [`expand_ty`].
pub fn expand_sig(sig: &Signature, eqs: &Equations) -> Result<Signature, CheckError> {
    let bound = sig.bound_ty_vars();
    let live = eqs.without(&bound);
    if live.is_empty() {
        return Ok(sig.clone());
    }
    // A live equation whose body mentions one of the signature's bound
    // names would be captured by expansion.
    for b in &bound {
        for (name, body) in live.map.iter() {
            let mut fvs = BTreeSet::new();
            body.free_ty_vars(&mut fvs);
            if fvs.contains(b) {
                let _ = name;
                return Err(CheckError::Capture { binder: b.clone() });
            }
        }
    }
    let mut visiting = BTreeSet::new();
    let expand_ports = |ports: &Ports, visiting: &mut BTreeSet<Symbol>| {
        Ok::<Ports, CheckError>(Ports {
            types: ports.types.clone(),
            vals: ports
                .vals
                .iter()
                .map(|p| {
                    Ok(units_kernel::ValPort {
                        name: p.name.clone(),
                        ty: p.ty.as_ref().map(|t| expand(t, &live, visiting)).transpose()?,
                    })
                })
                .collect::<Result<_, CheckError>>()?,
        })
    };
    Ok(Signature {
        imports: expand_ports(&sig.imports, &mut visiting)?,
        exports: expand_ports(&sig.exports, &mut visiting)?,
        depends: sig.depends.clone(),
        equations: sig
            .equations
            .iter()
            .map(|eq| {
                Ok(units_kernel::SigEquation {
                    name: eq.name.clone(),
                    kind: eq.kind.clone(),
                    body: expand(&eq.body, &live, &mut visiting)?,
                })
            })
            .collect::<Result<_, CheckError>>()?,
        init_ty: expand(&sig.init_ty, &live, &mut visiting)?,
    })
}

/// The set of type variables `τ` depends on through `D`: every `t` with
/// `τ ∝_D t` (paper §4.3.1), i.e. the free variables of `τ` plus
/// everything reachable from them through equation bodies.
///
/// # Examples
///
/// ```
/// use units_check::{reachable_tys, Equations};
/// use units_kernel::Ty;
/// let eqs = Equations::from([("env".into(), Ty::arrow(vec![Ty::var("name")], Ty::var("value")))]);
/// let reach = reachable_tys(&Ty::var("env"), &eqs);
/// assert!(reach.contains("env"));
/// assert!(reach.contains("name"));
/// assert!(reach.contains("value"));
/// ```
pub fn reachable_tys(ty: &Ty, eqs: &Equations) -> BTreeSet<Symbol> {
    let mut out = BTreeSet::new();
    let mut work: Vec<Symbol> = {
        let mut fvs = BTreeSet::new();
        ty.free_ty_vars(&mut fvs);
        fvs.into_iter().collect()
    };
    while let Some(t) = work.pop() {
        if !out.insert(t.clone()) {
            continue;
        }
        if let Some(body) = eqs.get(&t) {
            let mut fvs = BTreeSet::new();
            body.free_ty_vars(&mut fvs);
            work.extend(fvs);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_identity_without_equations() {
        let t = Ty::arrow(vec![Ty::var("a")], Ty::var("b"));
        assert_eq!(expand_ty(&t, &Equations::new()).unwrap(), t);
    }

    #[test]
    fn expansion_chases_chains() {
        let eqs = Equations::from([
            (Symbol::new("a"), Ty::var("b")),
            (Symbol::new("b"), Ty::Int),
        ]);
        assert_eq!(expand_ty(&Ty::var("a"), &eqs).unwrap(), Ty::Int);
    }

    #[test]
    fn cycles_are_detected_not_looped() {
        let eqs = Equations::from([
            (Symbol::new("a"), Ty::var("b")),
            (Symbol::new("b"), Ty::var("a")),
        ]);
        assert!(matches!(
            expand_ty(&Ty::var("a"), &eqs),
            Err(CheckError::CyclicTypeEquation { .. })
        ));
        assert!(matches!(
            eqs.check_acyclic(),
            Err(CheckError::CyclicTypeEquation { .. })
        ));
        // Self-cycle too.
        let selfy = Equations::from([(Symbol::new("t"), Ty::arrow(vec![Ty::var("t")], Ty::Int))]);
        assert!(selfy.check_acyclic().is_err());
    }

    #[test]
    fn acyclic_sets_pass() {
        let eqs = Equations::from([
            (Symbol::new("a"), Ty::var("b")),
            (Symbol::new("b"), Ty::arrow(vec![Ty::var("c")], Ty::Int)),
        ]);
        eqs.check_acyclic().unwrap();
    }

    #[test]
    fn sig_binders_shadow_equations() {
        use units_kernel::{Ports, TyPort, ValPort};
        let eqs = Equations::from([(Symbol::new("t"), Ty::Int)]);
        let sig = Signature {
            imports: Ports { types: vec![TyPort::star("t")], vals: vec![] },
            exports: Ports { types: vec![], vals: vec![ValPort::typed("x", Ty::var("t"))] },
            depends: vec![],
            equations: vec![],
            init_ty: Ty::Void,
        };
        let out = expand_sig(&sig, &eqs).unwrap();
        // Inner `t` is the signature's own import, not the abbreviation.
        assert_eq!(out, sig);
    }

    #[test]
    fn expansion_reports_capture() {
        use units_kernel::{Ports, TyPort, ValPort};
        let eqs = Equations::from([(Symbol::new("u"), Ty::var("t"))]);
        let sig = Signature {
            imports: Ports { types: vec![TyPort::star("t")], vals: vec![] },
            exports: Ports { types: vec![], vals: vec![ValPort::typed("x", Ty::var("u"))] },
            depends: vec![],
            equations: vec![],
            init_ty: Ty::Void,
        };
        assert!(matches!(
            expand_sig(&sig, &eqs),
            Err(CheckError::Capture { binder }) if binder.as_str() == "t"
        ));
    }

    #[test]
    fn reachability_is_transitive() {
        let eqs = Equations::from([
            (Symbol::new("a"), Ty::var("b")),
            (Symbol::new("b"), Ty::var("c")),
            (Symbol::new("unrelated"), Ty::var("z")),
        ]);
        let reach = reachable_tys(&Ty::var("a"), &eqs);
        assert!(reach.contains("b") && reach.contains("c"));
        assert!(!reach.contains("z"));
    }
}
