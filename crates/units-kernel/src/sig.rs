//! Signatures — the types of unit values (paper §3.3, Figs. 13 and 16).
//!
//! A signature `sig imports exports [depends] τ` records everything needed
//! to verify a unit's linkage without its definitions: the kinds and types
//! of its imports, the kinds and types of its exports, dependency
//! declarations between exported and imported types (UNITe, Fig. 16), and
//! the type of its initialization expression.
//!
//! UNITe's translucent-type extension (§5.1, Fig. 20) is modelled by an
//! `equations` section: exported type abbreviations whose right-hand side is
//! visible to clients.

use std::collections::BTreeSet;
use std::fmt;

use crate::kind::Kind;
use crate::symbol::Symbol;
use crate::ty::Ty;

/// A declared type port: `t :: κ`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TyPort {
    /// The type variable's name.
    pub name: Symbol,
    /// Its kind (always `Ω` in the paper's calculi).
    pub kind: Kind,
}

impl TyPort {
    /// A port of kind `Ω` with the given name.
    pub fn star(name: impl Into<Symbol>) -> TyPort {
        TyPort { name: name.into(), kind: Kind::Star }
    }
}

/// A declared value port: `x : τ`.
///
/// In the dynamically typed calculus UNITd the type annotation is absent,
/// so `ty` is optional; the UNITc/UNITe checkers require it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ValPort {
    /// The value variable's name.
    pub name: Symbol,
    /// Its declared type; `None` in UNITd programs.
    pub ty: Option<Ty>,
}

impl ValPort {
    /// An untyped (UNITd) port.
    pub fn untyped(name: impl Into<Symbol>) -> ValPort {
        ValPort { name: name.into(), ty: None }
    }

    /// A typed (UNITc/UNITe) port.
    pub fn typed(name: impl Into<Symbol>, ty: Ty) -> ValPort {
        ValPort { name: name.into(), ty: Some(ty) }
    }
}

/// One side of a unit's interface: a set of type ports and value ports.
///
/// Used for unit `import`/`export` clauses, signature `import`/`export`
/// clauses, and compound `with`/`provides` clauses.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Ports {
    /// Type ports `t :: κ`.
    pub types: Vec<TyPort>,
    /// Value ports `x : τ` (or just `x` in UNITd).
    pub vals: Vec<ValPort>,
}

impl Ports {
    /// An empty interface side.
    pub fn new() -> Ports {
        Ports::default()
    }

    /// Builds a side from type names (all of kind `Ω`) and untyped value
    /// names — convenient for UNITd programs and tests.
    pub fn untyped<T, V>(types: T, vals: V) -> Ports
    where
        T: IntoIterator,
        T::Item: Into<Symbol>,
        V: IntoIterator,
        V::Item: Into<Symbol>,
    {
        Ports {
            types: types.into_iter().map(|t| TyPort::star(t.into())).collect(),
            vals: vals.into_iter().map(|v| ValPort::untyped(v.into())).collect(),
        }
    }

    /// True when there are no ports at all.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty() && self.vals.is_empty()
    }

    /// Total number of ports.
    pub fn len(&self) -> usize {
        self.types.len() + self.vals.len()
    }

    /// Looks up a type port by name.
    pub fn ty_port(&self, name: &Symbol) -> Option<&TyPort> {
        self.types.iter().find(|p| &p.name == name)
    }

    /// Looks up a value port by name.
    pub fn val_port(&self, name: &Symbol) -> Option<&ValPort> {
        self.vals.iter().find(|p| &p.name == name)
    }

    /// Iterator over all port names, types first.
    pub fn names(&self) -> impl Iterator<Item = &Symbol> {
        self.types.iter().map(|p| &p.name).chain(self.vals.iter().map(|p| &p.name))
    }

    /// The set of type-port names.
    pub fn ty_names(&self) -> BTreeSet<Symbol> {
        self.types.iter().map(|p| p.name.clone()).collect()
    }

    /// The set of value-port names.
    pub fn val_names(&self) -> BTreeSet<Symbol> {
        self.vals.iter().map(|p| p.name.clone()).collect()
    }
}

/// The first value port that breaks [`check_ports`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortMismatch {
    /// The unit imports a name the context does not grant.
    Import(Symbol),
    /// The context requires an export the unit does not have.
    Export(Symbol),
}

/// In the words of a signature check (§5.2 `seal`, §3.4 dynamic linking).
impl fmt::Display for PortMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortMismatch::Import(name) => write!(f, "unit imports `{name}`, signature does not"),
            PortMismatch::Export(name) => write!(f, "signature exports `{name}`, unit does not"),
        }
    }
}

/// The run-time port rule: a unit with `imports` and `exports` may stand
/// where a context grants `granted` and requires `required` when its
/// imports are among the granted ones and the required exports among its
/// own. Fig. 11's `compound` side conditions (`with` grants, `provides`
/// requires), §5.2's `seal` and §3.4's untyped link check (a signature
/// grants and requires) all make this judgment.
///
/// Evaluation erases types, so only value ports are compared; the typed
/// levels check type ports statically (Figs. 14, 17 and 21).
///
/// # Errors
///
/// The first mismatch, imports checked first.
pub fn check_ports(
    imports: &Ports,
    exports: &Ports,
    granted: &Ports,
    required: &Ports,
) -> Result<(), PortMismatch> {
    if let Some(port) = imports.vals.iter().find(|p| granted.val_port(&p.name).is_none()) {
        return Err(PortMismatch::Import(port.name.clone()));
    }
    match required.vals.iter().find(|p| exports.val_port(&p.name).is_none()) {
        Some(port) => Err(PortMismatch::Export(port.name.clone())),
        None => Ok(()),
    }
}

/// A UNITe dependency declaration `t_e ↝ t_i`: the exported type `export`
/// depends on the imported type `import` (paper §4.3).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Depend {
    /// The exported type that has the dependency.
    pub export: Symbol,
    /// The imported type it depends on.
    pub import: Symbol,
}

impl Depend {
    /// `export ↝ import`.
    pub fn new(export: impl Into<Symbol>, import: impl Into<Symbol>) -> Depend {
        Depend { export: export.into(), import: import.into() }
    }
}

impl fmt::Display for Depend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ↝ {}", self.export, self.import)
    }
}

/// An exported, visible type abbreviation `t :: κ = τ` carried in a
/// signature — the translucent types of §5.1 (Fig. 20).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SigEquation {
    /// The abbreviation's name.
    pub name: Symbol,
    /// Its kind.
    pub kind: Kind,
    /// The visible right-hand side.
    pub body: Ty,
}

/// The type of a unit value: `sig imports exports [depends] [equations] τ_b`.
///
/// # Examples
///
/// ```
/// use units_kernel::{Ports, Signature, Ty, TyPort, ValPort};
/// // sig import info::Ω error:str→void export db::Ω new:void→db  :void
/// let sig = Signature {
///     imports: Ports {
///         types: vec![TyPort::star("info")],
///         vals: vec![ValPort::typed("error", Ty::arrow(vec![Ty::Str], Ty::Void))],
///     },
///     exports: Ports {
///         types: vec![TyPort::star("db")],
///         vals: vec![ValPort::typed("new", Ty::thunk(Ty::var("db")))],
///     },
///     depends: vec![],
///     equations: vec![],
///     init_ty: Ty::Void,
/// };
/// assert!(sig.exports.ty_port(&"db".into()).is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Imported type and value ports.
    pub imports: Ports,
    /// Exported type and value ports.
    pub exports: Ports,
    /// UNITe dependency declarations `t_e ↝ t_i`.
    pub depends: Vec<Depend>,
    /// Translucent exported abbreviations (§5.1).
    pub equations: Vec<SigEquation>,
    /// The type of the unit's initialization expression.
    pub init_ty: Ty,
}

impl Signature {
    /// A signature with empty interfaces and a `void` initialization type.
    pub fn empty() -> Signature {
        Signature {
            imports: Ports::new(),
            exports: Ports::new(),
            depends: Vec::new(),
            equations: Vec::new(),
            init_ty: Ty::Void,
        }
    }

    /// Convenience constructor without dependencies or equations.
    pub fn new(imports: Ports, exports: Ports, init_ty: Ty) -> Signature {
        Signature { imports, exports, depends: Vec::new(), equations: Vec::new(), init_ty }
    }

    /// All type variables bound by this signature: its imported and
    /// exported type ports plus its visible equations.
    pub fn bound_ty_vars(&self) -> BTreeSet<Symbol> {
        let mut bound: BTreeSet<Symbol> = self.imports.ty_names();
        bound.extend(self.exports.ty_names());
        bound.extend(self.equations.iter().map(|eq| eq.name.clone()));
        bound
    }

    /// Collects type variables that occur in the signature's type
    /// expressions but are *not* bound by its own import/export/equation
    /// clauses (cf. Fig. 18's `FTV`).
    pub fn free_ty_vars_unbound(&self, out: &mut BTreeSet<Symbol>) {
        let bound = self.bound_ty_vars();
        let mut occurring = BTreeSet::new();
        for port in self.imports.vals.iter().chain(self.exports.vals.iter()) {
            if let Some(ty) = &port.ty {
                ty.free_ty_vars(&mut occurring);
            }
        }
        for eq in &self.equations {
            eq.body.free_ty_vars(&mut occurring);
        }
        self.init_ty.free_ty_vars(&mut occurring);
        out.extend(occurring.into_iter().filter(|t| !bound.contains(t)));
    }

    /// The depend pairs as a set, for subtype comparisons (Fig. 17).
    pub fn depend_set(&self) -> BTreeSet<Depend> {
        self.depends.iter().cloned().collect()
    }

    /// True when the unit needs nothing from its context — a *program* in
    /// the paper's terminology ("a complete program is a unit without
    /// imports").
    pub fn is_program(&self) -> bool {
        self.imports.is_empty()
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn side(f: &mut fmt::Formatter<'_>, label: &str, ports: &Ports) -> fmt::Result {
            write!(f, " {label}")?;
            for t in &ports.types {
                write!(f, " {}::{}", t.name, t.kind)?;
            }
            for v in &ports.vals {
                match &v.ty {
                    Some(ty) => write!(f, " {}:{}", v.name, ty)?,
                    None => write!(f, " {}", v.name)?,
                }
            }
            Ok(())
        }
        f.write_str("sig")?;
        side(f, "import", &self.imports)?;
        side(f, "export", &self.exports)?;
        if !self.depends.is_empty() {
            f.write_str(" depends")?;
            for d in &self.depends {
                write!(f, " {d}")?;
            }
        }
        if !self.equations.is_empty() {
            f.write_str(" where")?;
            for eq in &self.equations {
                write!(f, " {}::{} = {}", eq.name, eq.kind, eq.body)?;
            }
        }
        write!(f, " :{}", self.init_ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_sig() -> Signature {
        Signature {
            imports: Ports {
                types: vec![TyPort::star("info")],
                vals: vec![ValPort::typed("error", Ty::arrow(vec![Ty::Str], Ty::Void))],
            },
            exports: Ports {
                types: vec![TyPort::star("db")],
                vals: vec![
                    ValPort::typed("new", Ty::thunk(Ty::var("db"))),
                    ValPort::typed(
                        "insert",
                        Ty::arrow(vec![Ty::var("db"), Ty::Str, Ty::var("info")], Ty::Void),
                    ),
                ],
            },
            depends: vec![],
            equations: vec![],
            init_ty: Ty::Void,
        }
    }

    #[test]
    fn bound_vars_cover_both_sides() {
        let sig = db_sig();
        let bound = sig.bound_ty_vars();
        assert!(bound.contains("info"));
        assert!(bound.contains("db"));
    }

    #[test]
    fn sig_with_only_bound_vars_has_no_free_vars() {
        let sig = db_sig();
        let mut free = BTreeSet::new();
        sig.free_ty_vars_unbound(&mut free);
        assert!(free.is_empty(), "unexpected free vars: {free:?}");
    }

    #[test]
    fn sig_reports_leaking_type_variables() {
        let mut sig = db_sig();
        sig.exports.vals.push(ValPort::typed("mystery", Ty::var("elsewhere")));
        let mut free = BTreeSet::new();
        sig.free_ty_vars_unbound(&mut free);
        assert!(free.contains("elsewhere"));
    }

    #[test]
    fn program_means_no_imports() {
        assert!(Signature::empty().is_program());
        assert!(!db_sig().is_program());
    }

    #[test]
    fn display_is_readable() {
        let shown = db_sig().to_string();
        assert!(shown.starts_with("sig import info::Ω error:str→void export db::Ω"));
        assert!(shown.ends_with(":void"));
    }

    #[test]
    fn ports_lookup_by_name() {
        let sig = db_sig();
        assert!(sig.exports.val_port(&"insert".into()).is_some());
        assert!(sig.exports.val_port(&"delete".into()).is_none());
        assert_eq!(sig.exports.len(), 3);
        assert!(!sig.exports.is_empty());
    }

    #[test]
    fn the_port_rule_checks_value_imports_then_value_exports() {
        let none: [&str; 0] = [];
        let unit_imports = Ports::untyped(none, ["a", "b"]);
        let unit_exports = Ports::untyped(["t"], ["x"]);
        let ok = check_ports(
            &unit_imports,
            &unit_exports,
            &Ports::untyped(none, ["b", "a", "spare"]),
            &Ports::untyped(none, ["x"]),
        );
        assert_eq!(ok, Ok(()));
        // Both halves fail: the import is reported.
        let both = check_ports(
            &unit_imports,
            &unit_exports,
            &Ports::untyped(none, ["a"]),
            &Ports::untyped(none, ["y"]),
        );
        assert_eq!(both, Err(PortMismatch::Import("b".into())));
        let export = check_ports(
            &unit_imports,
            &unit_exports,
            &unit_imports,
            &Ports::untyped(none, ["x", "y"]),
        );
        assert_eq!(export, Err(PortMismatch::Export("y".into())));
        assert_eq!(
            [both.unwrap_err().to_string(), export.unwrap_err().to_string()],
            ["unit imports `b`, signature does not", "signature exports `y`, unit does not"]
        );
    }

    #[test]
    fn the_port_rule_ignores_type_ports() {
        let none: [&str; 0] = [];
        // A type the unit imports but the context does not grant, and a
        // type the context requires but the unit does not export.
        let ok = check_ports(
            &Ports::untyped(["u"], ["a"]),
            &Ports::untyped(none, ["x"]),
            &Ports::untyped(none, ["a"]),
            &Ports::untyped(["t"], ["x"]),
        );
        assert_eq!(ok, Ok(()));
    }

    #[test]
    fn untyped_ports_builder() {
        let p = Ports::untyped(["info"], ["error", "print"]);
        assert_eq!(p.types.len(), 1);
        assert_eq!(p.vals.len(), 2);
        assert!(p.vals.iter().all(|v| v.ty.is_none()));
    }
}
