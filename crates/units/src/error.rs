//! The unified error type of the facade.
//!
//! Every failure between source text and a value — parsing, the static
//! checks of Figs. 10/14/15/19, separate-compilation artifacts (§2),
//! dynamic linking (§3.4), evaluation, and resource budgets — surfaces
//! as one [`Error`]. The [`Display`](fmt::Display) form of a check
//! failure names the figure whose rule fired, and
//! [`source`](std::error::Error::source) chains reach the underlying
//! error for callers that walk causes.

use std::fmt;

use units_check::CheckError;
use units_compile::{ArtifactError, DynlinkError};
use units_runtime::{Resource, RuntimeError};
use units_syntax::ParseError;

/// Anything that can go wrong between source text and a value.
///
/// Marked `#[non_exhaustive]`: downstream matches must keep a wildcard
/// arm, so future failure classes can be added without a breaking
/// release.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// The source does not parse.
    Parse(ParseError),
    /// The program fails context or type checking.
    Check(Vec<CheckError>),
    /// The program signalled a run-time error.
    Runtime(RuntimeError),
    /// Publishing or loading a separate-compilation artifact failed.
    Artifact(ArtifactError),
    /// A dynamic load from an [`Archive`](crate::Archive) was refused.
    Dynlink(DynlinkError),
    /// Evaluation exceeded a configured [`Limits`](crate::Limits) budget.
    ResourceExhausted {
        /// Which budget ran out.
        resource: Resource,
        /// The configured limit.
        limit: u64,
    },
    /// A [`Loaded`](crate::Loaded) handle outlived its
    /// [`Engine`](crate::Engine): the handle owns the artifact, but the
    /// session that holds the cache and limits is gone, so there is
    /// nothing to run on.
    SessionClosed,
    /// A panic escaped a pipeline stage and was caught at the engine's
    /// isolation boundary — the session stays usable, the run does not.
    Internal {
        /// The pipeline stage that panicked: `"load"` or `"run"`.
        stage: &'static str,
        /// The panic payload, rendered.
        message: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(e) => write!(f, "syntax error: {e}"),
            Error::Check(errs) => {
                write!(f, "check error")?;
                for e in errs {
                    write!(f, ": [{}] {e}", e.figure())?;
                }
                Ok(())
            }
            Error::Runtime(e) => write!(f, "runtime error: {e}"),
            Error::Artifact(e) => write!(f, "artifact error: {e}"),
            Error::Dynlink(e) => write!(f, "dynamic-link error: {e}"),
            Error::ResourceExhausted { resource, limit } => {
                write!(f, "evaluation exceeded its {resource} budget of {limit}")
            }
            Error::SessionClosed => {
                write!(f, "engine session closed: the Engine behind this handle was dropped")
            }
            Error::Internal { stage, message } => {
                write!(f, "internal error in {stage}: {message}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Parse(e) => Some(e),
            Error::Check(errs) => errs.first().map(|e| e as _),
            Error::Runtime(e) => Some(e),
            Error::Artifact(e) => Some(e),
            Error::Dynlink(e) => Some(e),
            Error::ResourceExhausted { .. } | Error::SessionClosed | Error::Internal { .. } => {
                None
            }
        }
    }
}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Self {
        Error::Parse(e)
    }
}

impl From<Vec<CheckError>> for Error {
    fn from(e: Vec<CheckError>) -> Self {
        Error::Check(e)
    }
}

impl From<CheckError> for Error {
    fn from(e: CheckError) -> Self {
        Error::Check(vec![e])
    }
}

impl From<RuntimeError> for Error {
    fn from(e: RuntimeError) -> Self {
        match e {
            RuntimeError::ResourceExhausted { resource, limit } => {
                Error::ResourceExhausted { resource, limit }
            }
            other => Error::Runtime(other),
        }
    }
}

impl From<ArtifactError> for Error {
    fn from(e: ArtifactError) -> Self {
        Error::Artifact(e)
    }
}

impl From<DynlinkError> for Error {
    fn from(e: DynlinkError) -> Self {
        Error::Dynlink(e)
    }
}

impl Error {
    /// The runtime error, if this is one (convenient in tests).
    pub fn as_runtime(&self) -> Option<&RuntimeError> {
        match self {
            Error::Runtime(e) => Some(e),
            _ => None,
        }
    }

    /// The check errors, if any.
    pub fn as_check(&self) -> Option<&[CheckError]> {
        match self {
            Error::Check(errs) => Some(errs),
            _ => None,
        }
    }

    /// The exhausted resource and its limit, if a budget ran out.
    pub fn as_resource_exhausted(&self) -> Option<(Resource, u64)> {
        match self {
            Error::ResourceExhausted { resource, limit } => Some((*resource, *limit)),
            _ => None,
        }
    }

    /// The stage and panic payload, if a caught panic produced this error.
    pub fn as_internal(&self) -> Option<(&'static str, &str)> {
        match self {
            Error::Internal { stage, message } => Some((stage, message)),
            _ => None,
        }
    }

    /// Whether this error was deliberately fired by an armed
    /// [`FaultPlane`](units_trace::faults::FaultPlane) schedule — either
    /// as a typed injected error or as an injected panic caught at an
    /// engine boundary.
    pub fn is_injected(&self) -> bool {
        match self {
            Error::Runtime(RuntimeError::Injected { .. }) => true,
            Error::Artifact(ArtifactError::Injected { .. }) => true,
            Error::Dynlink(DynlinkError::Injected { .. }) => true,
            Error::Check(errs) => {
                errs.iter().any(|e| matches!(e, CheckError::Injected { .. }))
            }
            Error::Parse(e) => e.to_string().contains("injected fault at "),
            Error::Internal { message, .. } => message.starts_with("injected panic at "),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: Error = RuntimeError::DivisionByZero.into();
        assert!(e.to_string().contains("division"));
        assert!(e.as_runtime().is_some());
        assert!(e.as_check().is_none());

        let e: Error = CheckError::Unbound { name: "x".into() }.into();
        assert_eq!(e.as_check().map(<[_]>::len), Some(1));
    }

    #[test]
    fn check_display_names_the_figure() {
        let e: Error = CheckError::Unbound { name: "x".into() }.into();
        assert!(e.to_string().contains("[Fig. 10]"), "{e}");
    }

    #[test]
    fn resource_exhaustion_is_its_own_variant() {
        let e: Error =
            RuntimeError::ResourceExhausted { resource: Resource::Fuel, limit: 7 }.into();
        assert_eq!(e.as_resource_exhausted(), Some((Resource::Fuel, 7)));
        assert!(e.as_runtime().is_none());
        assert!(e.to_string().contains("fuel budget of 7"));
    }

    #[test]
    fn internal_errors_carry_stage_and_payload() {
        let e = Error::Internal { stage: "run", message: "index out of bounds".into() };
        assert_eq!(e.as_internal(), Some(("run", "index out of bounds")));
        assert!(e.to_string().contains("internal error in run"));
        assert!(!e.is_injected());
        let e = Error::Internal {
            stage: "run",
            message: "injected panic at reduce/step (hit 3)".into(),
        };
        assert!(e.is_injected());
        let e: Error = RuntimeError::Injected { site: "reduce/step", hit: 1 }.into();
        assert!(e.is_injected());
    }

    #[test]
    fn sources_chain_to_the_underlying_error() {
        use std::error::Error as _;
        let e: Error = RuntimeError::DivisionByZero.into();
        assert!(e.source().is_some());
        let e: Error = units_compile::DynlinkError::NotAUnit.into();
        assert!(matches!(e, Error::Dynlink(_)));
        assert!(e.source().is_some());
    }
}
