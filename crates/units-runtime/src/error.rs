//! Run-time errors.
//!
//! The untyped calculus UNITd relies on dynamic checks where UNITc/UNITe
//! use static ones; this module enumerates every dynamic failure the
//! evaluator can signal. Well-typed programs can still raise
//! [`RuntimeError::User`] (the `fail` primitive), [`RuntimeError::WrongVariant`]
//! (deconstructing the wrong variant — the paper makes this a checked
//! run-time error), division by zero, missing hash keys, and — under
//! MzScheme strictness — reads of not-yet-initialized definitions.

use std::fmt;

use units_kernel::{MergeError, Symbol};

/// A bounded resource an evaluator can run out of.
///
/// Budgets are set via [`crate::Limits`]; exhausting one surfaces as
/// [`RuntimeError::ResourceExhausted`] naming the resource, so callers
/// can distinguish "the program loops" (fuel) from "the program is too
/// deep" (depth) from "the program allocates too much" (store cells).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Evaluation steps (β/δ contractions, machine steps).
    Fuel,
    /// Nesting depth of the term being evaluated.
    Depth,
    /// Mutable store cells (letrec frames, import wiring, hash tables).
    StoreCells,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Resource::Fuel => "fuel",
            Resource::Depth => "depth",
            Resource::StoreCells => "store cells",
        })
    }
}

/// A dynamic failure during evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// A variable had no binding (impossible after `context_check`).
    Unbound {
        /// The variable.
        name: Symbol,
    },
    /// A non-function was applied.
    NotAFunction {
        /// Rendering of the value in operator position.
        found: String,
    },
    /// Wrong number of arguments.
    Arity {
        /// Parameters expected.
        expected: usize,
        /// Arguments supplied.
        found: usize,
    },
    /// A value of one shape appeared where another was required
    /// (dynamic typing error in UNITd programs).
    WrongType {
        /// What the operation needed.
        expected: &'static str,
        /// Rendering of what it got.
        found: String,
    },
    /// A deconstructor was applied to the wrong variant ("applying a
    /// deconstructor to the wrong variant signals a run-time error").
    WrongVariant {
        /// The datatype's name.
        ty_name: Symbol,
        /// Variant index the deconstructor wanted.
        expected: usize,
        /// Variant index the value carried.
        found: usize,
    },
    /// A datatype operation received a value from a *different instance*
    /// of the same unit (§5.3: instances do not share types).
    ForeignInstance {
        /// The datatype's name.
        ty_name: Symbol,
    },
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// `hash-get` on an absent key.
    MissingKey {
        /// The key.
        key: String,
    },
    /// The `fail` primitive was invoked.
    User {
        /// The message carried by `fail`.
        message: String,
    },
    /// A definition was read before its defining expression ran
    /// (MzScheme-strictness dynamic check, §4.1.1 footnote).
    UndefinedRead {
        /// The definition's name.
        name: Symbol,
    },
    /// `invoke` did not supply a value for one of the unit's imports
    /// ("otherwise, a run-time error is signalled").
    UnsatisfiedImport {
        /// The import's name.
        name: Symbol,
    },
    /// Linking found a constituent that does not actually export a name
    /// its `provides` clause promised.
    MissingProvide {
        /// The promised name.
        name: Symbol,
    },
    /// Linking found a constituent whose imports exceed its `with` clause.
    ExcessImport {
        /// The undeclared import.
        name: Symbol,
    },
    /// The reducer could not merge a compound into one unit: a rename
    /// pair links a constituent to the compound's interface name `name`,
    /// which a unit nested in the constituent binds
    /// ([`units_kernel::MergeError::Capture`]).
    LinkCapture {
        /// The interface name the nested unit binds.
        name: Symbol,
    },
    /// `seal` (or a signature check at a dynamic-linking boundary) failed.
    SealFailure {
        /// Why.
        reason: String,
    },
    /// Tuple projection out of range.
    BadProjection {
        /// Index requested.
        index: usize,
        /// Tuple width.
        width: usize,
    },
    /// The reducer/evaluator exceeded one of its [`crate::Limits`]
    /// budgets.
    ResourceExhausted {
        /// Which budget ran out.
        resource: Resource,
        /// The configured limit that was hit.
        limit: u64,
    },
    /// A linking rule found a constituent that is not a unit value —
    /// `rule` names the Fig. 11 rule that was mid-fire (`compound`,
    /// `invoke`) when the malformed constituent surfaced.
    NotAUnit {
        /// The Fig. 11 rule that was firing.
        rule: &'static str,
        /// Rendering of the non-unit value.
        found: String,
    },
    /// A fault deliberately fired by an armed
    /// [`units_trace::faults::FaultPlane`] schedule. Never occurs where
    /// nothing arms a plane, as in `unitsd`.
    Injected {
        /// The injection point that fired (e.g. `"reduce/prim"`).
        site: &'static str,
        /// The 1-based trip count at that site when it fired.
        hit: u64,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Unbound { name } => write!(f, "unbound variable `{name}`"),
            RuntimeError::NotAFunction { found } => {
                write!(f, "application of a non-function: {found}")
            }
            RuntimeError::Arity { expected, found } => {
                write!(f, "arity mismatch: expected {expected} argument(s), got {found}")
            }
            RuntimeError::WrongType { expected, found } => {
                write!(f, "expected {expected}, got {found}")
            }
            RuntimeError::WrongVariant { ty_name, expected, found } => write!(
                f,
                "deconstructor for variant {expected} of `{ty_name}` applied to variant {found}"
            ),
            RuntimeError::ForeignInstance { ty_name } => {
                write!(f, "`{ty_name}` value belongs to a different instance of its defining unit")
            }
            RuntimeError::DivisionByZero => f.write_str("division by zero"),
            RuntimeError::MissingKey { key } => write!(f, "hash table has no key {key:?}"),
            RuntimeError::User { message } => write!(f, "error: {message}"),
            RuntimeError::UndefinedRead { name } => {
                write!(f, "definition `{name}` read before initialization")
            }
            RuntimeError::UnsatisfiedImport { name } => {
                write!(f, "invoke does not supply import `{name}`")
            }
            RuntimeError::MissingProvide { name } => {
                write!(f, "constituent does not export promised name `{name}`")
            }
            RuntimeError::ExcessImport { name } => {
                write!(f, "constituent imports `{name}`, which its link clause does not declare")
            }
            RuntimeError::LinkCapture { name } => MergeError::Capture { name: name.clone() }.fmt(f),
            RuntimeError::SealFailure { reason } => write!(f, "signature check failed: {reason}"),
            RuntimeError::BadProjection { index, width } => {
                write!(f, "projection {index} out of range for width-{width} tuple")
            }
            RuntimeError::ResourceExhausted { resource, limit } => {
                write!(f, "evaluation exceeded its {resource} budget of {limit}")
            }
            RuntimeError::NotAUnit { rule, found } => {
                write!(f, "Fig. 11 `{rule}` rule applied to a non-unit constituent: {found}")
            }
            RuntimeError::Injected { site, hit } => {
                write!(f, "injected fault at {site} (hit {hit})")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<MergeError> for RuntimeError {
    fn from(refusal: MergeError) -> RuntimeError {
        match refusal {
            MergeError::ExcessImport { name } => RuntimeError::ExcessImport { name },
            MergeError::MissingProvide { name } => RuntimeError::MissingProvide { name },
            MergeError::Capture { name } => RuntimeError::LinkCapture { name },
        }
    }
}

impl From<units_trace::faults::Injected> for RuntimeError {
    fn from(fault: units_trace::faults::Injected) -> RuntimeError {
        RuntimeError::Injected { site: fault.site, hit: fault.hit }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_name_the_failure() {
        let e = RuntimeError::WrongVariant { ty_name: "db".into(), expected: 0, found: 1 };
        assert!(e.to_string().contains("variant 0"));
        assert!(RuntimeError::DivisionByZero.to_string().contains("zero"));
        let e = RuntimeError::User { message: "boom".into() };
        assert_eq!(e.to_string(), "error: boom");
    }
}
