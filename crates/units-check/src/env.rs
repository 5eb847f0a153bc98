//! Checking environments `Γ`.
//!
//! An [`Env`] carries the three pieces of context the typing rules thread
//! through derivations: kinds of type variables (`t :: κ`), types of value
//! variables (`x : τ`), and the set of type equations `D` in scope (UNITe,
//! Fig. 18/19). Scoping uses save/restore marks: entering a binder pushes
//! entries, leaving truncates back.

use units_kernel::{Kind, Symbol, Ty};

/// A scoping mark returned by [`Env::mark`]; pass to [`Env::restore`].
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    tys: usize,
    vals: usize,
    eqs: usize,
}

/// The checker's environment `Γ` (plus the equation set `D`).
#[derive(Debug, Default, Clone)]
pub struct Env {
    tys: Vec<(Symbol, Kind)>,
    vals: Vec<(Symbol, Ty)>,
    eqs: Vec<(Symbol, Ty)>,
}

impl Env {
    /// An empty environment.
    pub fn new() -> Env {
        Env::default()
    }

    /// Records the current scope depth.
    pub fn mark(&self) -> Mark {
        Mark { tys: self.tys.len(), vals: self.vals.len(), eqs: self.eqs.len() }
    }

    /// Pops every entry added since `mark`.
    pub fn restore(&mut self, mark: Mark) {
        self.tys.truncate(mark.tys);
        self.vals.truncate(mark.vals);
        self.eqs.truncate(mark.eqs);
    }

    /// Binds a type variable `t :: κ`.
    pub fn bind_ty(&mut self, name: Symbol, kind: Kind) {
        self.tys.push((name, kind));
    }

    /// Binds a value variable `x : τ`.
    pub fn bind_val(&mut self, name: Symbol, ty: Ty) {
        self.vals.push((name, ty));
    }

    /// Adds a type equation `t = τ` to `D` (also binds `t`'s kind).
    pub fn bind_eq(&mut self, name: Symbol, kind: Kind, body: Ty) {
        self.tys.push((name.clone(), kind));
        self.eqs.push((name, body));
    }

    /// The kind of a type variable, innermost binding first.
    pub fn ty_kind(&self, name: &Symbol) -> Option<&Kind> {
        self.tys.iter().rev().find(|(n, _)| n == name).map(|(_, k)| k)
    }

    /// The type of a value variable, innermost binding first.
    pub fn val_ty(&self, name: &Symbol) -> Option<&Ty> {
        self.vals.iter().rev().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// The equation body for `t`, if `t` is an abbreviation in scope.
    pub fn equation(&self, name: &Symbol) -> Option<&Ty> {
        self.eqs.iter().rev().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// All equations currently in scope, outermost first.
    pub fn equations(&self) -> &[(Symbol, Ty)] {
        &self.eqs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_prefers_innermost() {
        let mut env = Env::new();
        env.bind_val("x".into(), Ty::Int);
        let m = env.mark();
        env.bind_val("x".into(), Ty::Bool);
        assert_eq!(env.val_ty(&"x".into()), Some(&Ty::Bool));
        env.restore(m);
        assert_eq!(env.val_ty(&"x".into()), Some(&Ty::Int));
    }

    #[test]
    fn restore_pops_all_namespaces() {
        let mut env = Env::new();
        let m = env.mark();
        env.bind_ty("t".into(), Kind::Star);
        env.bind_eq("e".into(), Kind::Star, Ty::Int);
        env.bind_val("x".into(), Ty::Void);
        assert!(env.ty_kind(&"t".into()).is_some());
        assert!(env.ty_kind(&"e".into()).is_some());
        assert_eq!(env.equation(&"e".into()), Some(&Ty::Int));
        env.restore(m);
        assert!(env.ty_kind(&"t".into()).is_none());
        assert!(env.equation(&"e".into()).is_none());
        assert!(env.val_ty(&"x".into()).is_none());
    }

    #[test]
    fn missing_names_are_none() {
        let env = Env::new();
        assert!(env.val_ty(&"nope".into()).is_none());
        assert!(env.ty_kind(&"nope".into()).is_none());
    }
}
