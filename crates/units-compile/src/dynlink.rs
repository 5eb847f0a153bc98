//! Dynamic linking (paper §3.4 and Fig. 7).
//!
//! "The core language must provide a syntactic form that retrieves a unit
//! value from an archive, such as the Internet, and checks that the unit
//! satisfies a particular signature. This type-checking must be performed
//! in the correct context to ensure that dynamic linking is type-safe."
//!
//! [`Archive`] is that archive: a name → unit-source store (in memory, or
//! loaded from a directory of `.unit` files — the medium is irrelevant to
//! the semantics). [`Archive::load`] retrieves a unit, checks it *in the
//! loading context* against the expected signature — avoiding the Java
//! class-loader unsoundness the paper cites ("Java's dynamic class loading
//! is broken because it checks types in a type environment that may differ
//! from the environment where the class is used") — and hands back the
//! checked unit expression, ready to `invoke` with imports from the host.

use std::collections::HashMap;
use std::fmt;

#[allow(unused_imports)]
use units_check::Level;
use units_check::{check_program, subtype, CheckError, CheckOptions, Equations};
use units_kernel::{Expr, Signature, Ty};
use units_syntax::{parse_expr, ParseError};

/// Why a dynamic load was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum DynlinkError {
    /// No unit with that name is published.
    NotFound {
        /// The requested name.
        name: String,
    },
    /// The retrieved source does not parse.
    Parse(ParseError),
    /// The retrieved unit fails context or type checking.
    Check(Vec<CheckError>),
    /// The retrieved expression is not a unit.
    NotAUnit,
    /// The unit's signature does not satisfy the expected one.
    Signature {
        /// The subtype checker's explanation.
        reason: String,
    },
    /// A fault deliberately fired by an armed
    /// `units_trace::faults::FaultPlane` schedule during the load.
    Injected {
        /// The injection point that fired.
        site: &'static str,
        /// The 1-based trip count at that site when it fired.
        hit: u64,
    },
}

impl fmt::Display for DynlinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DynlinkError::NotFound { name } => write!(f, "no unit named `{name}` in archive"),
            DynlinkError::Parse(e) => write!(f, "retrieved unit does not parse: {e}"),
            DynlinkError::Check(errs) => {
                write!(f, "retrieved unit fails checking: ")?;
                for (i, e) in errs.iter().enumerate() {
                    if i > 0 {
                        f.write_str("; ")?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
            DynlinkError::NotAUnit => f.write_str("retrieved expression is not a unit"),
            DynlinkError::Signature { reason } => {
                write!(f, "retrieved unit does not satisfy the expected signature: {reason}")
            }
            DynlinkError::Injected { site, hit } => {
                write!(f, "injected fault at {site} (hit {hit})")
            }
        }
    }
}

impl std::error::Error for DynlinkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DynlinkError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

/// A store of named unit sources — the paper's plug-in archive.
///
/// # Examples
///
/// ```
/// use units_compile::Archive;
/// use units_check::{CheckOptions, Level};
/// use units_syntax::parse_signature;
///
/// let mut archive = Archive::new();
/// archive.publish("plus-two", "(unit (import) (export) (init (lambda ((n int)) (+ n 2))))");
/// let expected = parse_signature(
///     "(sig (import) (export) (init (-> int int)))").unwrap();
/// let unit = archive.load("plus-two", &expected, CheckOptions::typed(Level::Constructed)).unwrap();
/// assert!(unit.is_value());
/// ```
#[derive(Debug, Default, Clone)]
pub struct Archive {
    entries: HashMap<String, String>,
}

impl Archive {
    /// An empty archive.
    pub fn new() -> Archive {
        Archive::default()
    }

    /// Publishes (or replaces) a unit source under a name.
    pub fn publish(&mut self, name: impl Into<String>, source: impl Into<String>) {
        self.entries.insert(name.into(), source.into());
    }

    /// Published names, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.entries.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Retrieves a unit and checks it against `expected` in the *current*
    /// context. On success, the returned expression is a checked unit
    /// value ready for `invoke` or `compound`.
    ///
    /// At [`Level::Untyped`] the signature check degenerates to the
    /// interface-name check the dynamic semantics needs: the unit must
    /// import no more names, and export no fewer, than `expected` says.
    ///
    /// # Errors
    ///
    /// Returns a [`DynlinkError`] describing the first failure.
    pub fn load(
        &self,
        name: &str,
        expected: &Signature,
        opts: CheckOptions,
    ) -> Result<Expr, DynlinkError> {
        units_trace::faults::trip("compile/dynlink")
            .map_err(|f| DynlinkError::Injected { site: f.site, hit: f.hit })?;
        let source = self
            .entries
            .get(name)
            .ok_or_else(|| DynlinkError::NotFound { name: name.to_string() })?;
        let expr = parse_expr(source).map_err(DynlinkError::Parse)?;
        let ty = check_program(&expr, opts).map_err(DynlinkError::Check)?;
        match ty {
            Some(actual) => {
                let expected_ty = Ty::Sig(Box::new(expected.clone()));
                if actual.as_sig().is_none() {
                    return Err(DynlinkError::NotAUnit);
                }
                subtype(&Equations::new(), &actual, &expected_ty)
                    .map_err(|e| DynlinkError::Signature { reason: e.to_string() })?;
            }
            None => {
                // Untyped: name-level interface check.
                let Expr::Unit(u) = &expr else {
                    return Err(DynlinkError::NotAUnit);
                };
                for port in &u.imports.vals {
                    if expected.imports.val_port(&port.name).is_none() {
                        return Err(DynlinkError::Signature {
                            reason: format!("unit imports `{}`, signature does not", port.name),
                        });
                    }
                }
                for port in &expected.exports.vals {
                    if u.exports.val_port(&port.name).is_none() {
                        return Err(DynlinkError::Signature {
                            reason: format!("signature exports `{}`, unit does not", port.name),
                        });
                    }
                }
            }
        }
        Ok(expr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use units_check::Strictness;
    use units_syntax::parse_signature;

    fn plugin_sig() -> Signature {
        parse_signature("(sig (import (log (-> str void))) (export) (init (-> int int)))").unwrap()
    }

    fn archive() -> Archive {
        let mut a = Archive::new();
        a.publish(
            "doubler",
            "(unit (import (log (-> str void))) (export)
               (init (lambda ((n int)) (* n 2))))",
        );
        a.publish(
            "liar",
            "(unit (import (log (-> str void))) (export)
               (init \"not a function\"))",
        );
        a.publish("broken", "(unit (import) (export ghost))");
        a.publish("garbage", "(unit (import");
        a
    }

    #[test]
    fn loads_a_conforming_plugin() {
        let unit = archive()
            .load("doubler", &plugin_sig(), CheckOptions::typed(Level::Constructed))
            .unwrap();
        assert!(matches!(unit, Expr::Unit(_)));
    }

    #[test]
    fn rejects_wrong_init_type() {
        let err = archive()
            .load("liar", &plugin_sig(), CheckOptions::typed(Level::Constructed))
            .unwrap_err();
        assert!(matches!(err, DynlinkError::Signature { .. }), "got {err:?}");
    }

    #[test]
    fn rejects_ill_formed_units() {
        let err = archive()
            .load("broken", &plugin_sig(), CheckOptions::typed(Level::Constructed))
            .unwrap_err();
        assert!(matches!(err, DynlinkError::Check(_)));
        let err = archive()
            .load("garbage", &plugin_sig(), CheckOptions::typed(Level::Constructed))
            .unwrap_err();
        assert!(matches!(err, DynlinkError::Parse(_)));
    }

    #[test]
    fn missing_names_are_reported() {
        let err = archive()
            .load("nope", &plugin_sig(), CheckOptions::typed(Level::Constructed))
            .unwrap_err();
        assert!(matches!(err, DynlinkError::NotFound { name } if name == "nope"));
    }

    #[test]
    fn untyped_loading_checks_interface_names() {
        let opts = CheckOptions { level: Level::Untyped, strictness: Strictness::MzScheme };
        archive().load("doubler", &plugin_sig(), opts).unwrap();
        // A unit importing a name the signature does not grant is refused.
        let mut a = archive();
        a.publish("greedy", "(unit (import log net) (export) (init void))");
        let err = a.load("greedy", &plugin_sig(), opts).unwrap_err();
        assert!(matches!(err, DynlinkError::Signature { .. }));
    }
}
