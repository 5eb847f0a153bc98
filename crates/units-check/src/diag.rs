//! Checker diagnostics.
//!
//! Every rejection the checkers can produce is a [`CheckError`]; the
//! variants map onto the side conditions of the paper's rules (Figs. 10,
//! 14, 15, 17, 18, 19) so tests can assert *which* rule fired.

use std::fmt;

use units_kernel::{Kind, Symbol, Ty};

/// Why a program was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckError {
    /// A name is declared twice where the rules require distinctness
    /// (Fig. 10 / Fig. 15 side conditions).
    Duplicate {
        /// The offending name.
        name: Symbol,
        /// Where it was duplicated (e.g. "unit imports and definitions").
        context: String,
    },
    /// An exported name has no definition ("all exported variables must be
    /// defined within the unit").
    ExportUndefined {
        /// The undefined export.
        name: Symbol,
        /// `true` when a type export, `false` for a value export.
        is_type: bool,
    },
    /// A variable occurrence is not bound.
    Unbound {
        /// The unbound variable.
        name: Symbol,
    },
    /// A type variable occurrence is not bound.
    UnboundTy {
        /// The unbound type variable.
        name: Symbol,
    },
    /// A `with` name of a compound link clause is satisfied by neither the
    /// compound's imports nor another constituent's `provides` (Fig. 10's
    /// `x̄w1 ⊆ x̄i ∪ x̄p2` condition).
    UnsatisfiedLink {
        /// The name that nothing supplies.
        name: Symbol,
        /// Index of the link clause that wanted it.
        clause: usize,
    },
    /// A compound export is not provided by any constituent
    /// (`x̄e ⊆ x̄p1 ∪ x̄p2`).
    ExportNotProvided {
        /// The unprovided export.
        name: Symbol,
    },
    /// A definition's right-hand side is not *valuable* (Harper–Stone
    /// restriction of §4.1.1).
    NotValuable {
        /// The definition whose body is rejected.
        name: Symbol,
    },
    /// Two types failed to match where the rules require subtyping.
    Mismatch {
        /// The type required by the context.
        expected: Ty,
        /// The type actually found.
        found: Ty,
        /// Which rule or position required it.
        context: String,
    },
    /// A signature subtype check failed (Fig. 14/17).
    NotSubsignature {
        /// Human-readable reason produced by the subtype checker.
        reason: String,
        /// Which rule or position required it.
        context: String,
    },
    /// Kinds disagree.
    KindMismatch {
        /// The type variable at issue.
        name: Symbol,
        /// The kind required.
        expected: Kind,
        /// The kind found.
        found: Kind,
    },
    /// An application's arity does not match the function type.
    Arity {
        /// Parameters the function type has.
        expected: usize,
        /// Arguments supplied.
        found: usize,
    },
    /// A non-function was applied.
    NotAFunction {
        /// The type in operator position.
        found: Ty,
    },
    /// A non-tuple was projected.
    NotATuple {
        /// The type in projection position.
        found: Ty,
    },
    /// `invoke`/`compound` applied to an expression that is not a unit.
    NotAUnit {
        /// The type found where a signature was required.
        found: Ty,
    },
    /// Static levels require annotations the program omitted.
    MissingAnnotation {
        /// What is missing an annotation (parameter, definition, port…).
        what: String,
        /// The name involved.
        name: Symbol,
    },
    /// A form is not part of the selected language level (e.g. a type
    /// equation in UNITc).
    UnsupportedAtLevel {
        /// Description of the form.
        form: String,
        /// The level's name.
        level: String,
    },
    /// An `invoke` leaves an import unsatisfied.
    MissingInvokeLink {
        /// The unsatisfied import.
        name: Symbol,
        /// `true` when a type import.
        is_type: bool,
    },
    /// The type of a unit's initialization expression mentions a type that
    /// does not survive the unit's boundary (Fig. 15's `FTV(τb) ∩ t̄e = ∅`
    /// condition, extended to local types).
    InitTypeEscape {
        /// The escaping type variable.
        name: Symbol,
    },
    /// A locally defined type occurs in an exported value's type without
    /// being exported itself.
    TypeEscape {
        /// The escaping type variable.
        name: Symbol,
        /// The export whose type mentions it.
        export: Symbol,
    },
    /// Type equations form a cycle (rejected by the Fig. 19 side
    /// condition `τa ∝ ti ⇒ τi ∝̸ ta`).
    CyclicTypeEquation {
        /// A type variable on the cycle.
        name: Symbol,
    },
    /// Linking two units would create a cyclic type definition (the UNITe
    /// compound rule's dependency test).
    CyclicLink {
        /// A type variable on the would-be cycle.
        name: Symbol,
    },
    /// Substitution failed because it would capture an interface name.
    Capture {
        /// The interface name.
        binder: Symbol,
    },
    /// A primitive was used with the wrong number of type arguments.
    PrimInstantiation {
        /// The primitive's name.
        prim: &'static str,
        /// Type arguments required.
        expected: usize,
        /// Type arguments given.
        found: usize,
    },
    /// A fault deliberately fired by an armed
    /// `units_trace::faults::FaultPlane` schedule while the checker
    /// ran. Never occurs where nothing arms a plane, as in `unitsd`.
    Injected {
        /// The injection point that fired (e.g. `"check/program"`).
        site: &'static str,
        /// The 1-based trip count at that site when it fired.
        hit: u64,
    },
}

impl CheckError {
    /// The paper figure (or section) whose rule rejected the program —
    /// the stable rule name `units::Error`'s `Display` reports.
    pub fn figure(&self) -> &'static str {
        match self {
            CheckError::Duplicate { .. }
            | CheckError::ExportUndefined { .. }
            | CheckError::Unbound { .. }
            | CheckError::UnsatisfiedLink { .. }
            | CheckError::ExportNotProvided { .. }
            | CheckError::NotValuable { .. } => "Fig. 10",
            CheckError::NotSubsignature { .. } => "Fig. 14/17",
            CheckError::Mismatch { .. }
            | CheckError::Arity { .. }
            | CheckError::NotAFunction { .. }
            | CheckError::NotATuple { .. }
            | CheckError::NotAUnit { .. }
            | CheckError::MissingAnnotation { .. }
            | CheckError::MissingInvokeLink { .. }
            | CheckError::InitTypeEscape { .. }
            | CheckError::TypeEscape { .. }
            | CheckError::PrimInstantiation { .. }
            | CheckError::UnboundTy { .. } => "Fig. 15",
            CheckError::KindMismatch { .. }
            | CheckError::CyclicTypeEquation { .. }
            | CheckError::CyclicLink { .. } => "Fig. 19",
            CheckError::Capture { .. } => "Fig. 18",
            CheckError::UnsupportedAtLevel { .. } => "§4.1.1",
            // Not a paper rule: the deterministic fault plane
            // (DESIGN.md §10) fired inside the checker.
            CheckError::Injected { .. } => "§fault-plane",
        }
    }
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Duplicate { name, context } => {
                write!(f, "duplicate name `{name}` in {context}")
            }
            CheckError::ExportUndefined { name, is_type } => {
                let what = if *is_type { "type" } else { "value" };
                write!(f, "exported {what} `{name}` is not defined in the unit")
            }
            CheckError::Unbound { name } => write!(f, "unbound variable `{name}`"),
            CheckError::UnboundTy { name } => write!(f, "unbound type variable `{name}`"),
            CheckError::UnsatisfiedLink { name, clause } => write!(
                f,
                "link clause {clause} imports `{name}`, which neither the compound's imports nor another constituent provides"
            ),
            CheckError::ExportNotProvided { name } => {
                write!(f, "compound export `{name}` is not provided by any constituent")
            }
            CheckError::NotValuable { name } => write!(
                f,
                "definition of `{name}` is not valuable (it may diverge, have effects, or read an undetermined definition)"
            ),
            CheckError::Mismatch { expected, found, context } => {
                write!(f, "type mismatch in {context}: expected {expected}, found {found}")
            }
            CheckError::NotSubsignature { reason, context } => {
                write!(f, "signature mismatch in {context}: {reason}")
            }
            CheckError::KindMismatch { name, expected, found } => {
                write!(f, "kind mismatch for `{name}`: expected {expected}, found {found}")
            }
            CheckError::Arity { expected, found } => {
                write!(f, "arity mismatch: function takes {expected} argument(s), found {found}")
            }
            CheckError::NotAFunction { found } => {
                write!(f, "application of a non-function of type {found}")
            }
            CheckError::NotATuple { found } => {
                write!(f, "projection from a non-tuple of type {found}")
            }
            CheckError::NotAUnit { found } => {
                write!(f, "expected a unit (signature type), found {found}")
            }
            CheckError::MissingAnnotation { what, name } => {
                write!(f, "statically typed units require a type annotation on {what} `{name}`")
            }
            CheckError::UnsupportedAtLevel { form, level } => {
                write!(f, "{form} is not part of {level}")
            }
            CheckError::MissingInvokeLink { name, is_type } => {
                let what = if *is_type { "type" } else { "value" };
                write!(f, "invoke does not supply the unit's {what} import `{name}`")
            }
            CheckError::InitTypeEscape { name } => write!(
                f,
                "the initialization expression's type mentions `{name}`, which does not survive the unit boundary"
            ),
            CheckError::TypeEscape { name, export } => write!(
                f,
                "export `{export}`'s type mentions local type `{name}`, which is not exported"
            ),
            CheckError::CyclicTypeEquation { name } => {
                write!(f, "type equations form a cycle through `{name}`")
            }
            CheckError::CyclicLink { name } => {
                write!(f, "linking would create a cyclic type definition through `{name}`")
            }
            CheckError::Capture { binder } => write!(
                f,
                "type substitution would capture interface name `{binder}`"
            ),
            CheckError::PrimInstantiation { prim, expected, found } => write!(
                f,
                "primitive `{prim}` takes {expected} type argument(s), found {found}"
            ),
            CheckError::Injected { site, hit } => {
                write!(f, "injected fault at {site} (hit {hit})")
            }
        }
    }
}

impl std::error::Error for CheckError {}

impl From<units_kernel::CaptureError> for CheckError {
    fn from(err: units_kernel::CaptureError) -> Self {
        CheckError::Capture { binder: err.binder }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = CheckError::Duplicate { name: "db".into(), context: "unit exports".into() };
        assert_eq!(e.to_string(), "duplicate name `db` in unit exports");

        let e = CheckError::Mismatch {
            expected: Ty::Int,
            found: Ty::Bool,
            context: "argument 1".into(),
        };
        assert!(e.to_string().contains("expected int, found bool"));
    }

    #[test]
    fn capture_errors_convert() {
        let e: CheckError = units_kernel::CaptureError { binder: "t".into() }.into();
        assert_eq!(e, CheckError::Capture { binder: "t".into() });
    }
}

#[cfg(test)]
mod display_coverage {
    use super::*;

    /// Every variant renders a non-empty, informative message
    /// (C-DEBUG-NONEMPTY for user-facing errors).
    #[test]
    fn all_variants_display_informatively() {
        let cases: Vec<CheckError> = vec![
            CheckError::Duplicate { name: "x".into(), context: "c".into() },
            CheckError::ExportUndefined { name: "x".into(), is_type: true },
            CheckError::Unbound { name: "x".into() },
            CheckError::UnboundTy { name: "t".into() },
            CheckError::UnsatisfiedLink { name: "x".into(), clause: 1 },
            CheckError::ExportNotProvided { name: "x".into() },
            CheckError::NotValuable { name: "x".into() },
            CheckError::Mismatch { expected: Ty::Int, found: Ty::Bool, context: "c".into() },
            CheckError::NotSubsignature { reason: "r".into(), context: "c".into() },
            CheckError::KindMismatch {
                name: "t".into(),
                expected: Kind::Star,
                found: Kind::arrow(Kind::Star, Kind::Star),
            },
            CheckError::Arity { expected: 2, found: 1 },
            CheckError::NotAFunction { found: Ty::Int },
            CheckError::NotATuple { found: Ty::Int },
            CheckError::NotAUnit { found: Ty::Int },
            CheckError::MissingAnnotation { what: "parameter".into(), name: "x".into() },
            CheckError::UnsupportedAtLevel { form: "f".into(), level: "UNITc".into() },
            CheckError::MissingInvokeLink { name: "x".into(), is_type: false },
            CheckError::InitTypeEscape { name: "t".into() },
            CheckError::TypeEscape { name: "t".into(), export: "x".into() },
            CheckError::CyclicTypeEquation { name: "t".into() },
            CheckError::CyclicLink { name: "t".into() },
            CheckError::Capture { binder: "t".into() },
            CheckError::PrimInstantiation { prim: "fail", expected: 1, found: 0 },
            CheckError::Injected { site: "check/program", hit: 1 },
        ];
        for err in cases {
            let shown = err.to_string();
            assert!(shown.len() > 8, "too terse: {shown}");
            assert!(!shown.ends_with('.'), "no trailing punctuation: {shown}");
            assert_eq!(shown, shown.trim());
            let fig = err.figure();
            assert!(
                fig.starts_with("Fig.") || fig.starts_with('§'),
                "rule name must cite the paper: {fig}"
            );
        }
    }
}
