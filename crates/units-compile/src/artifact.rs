//! Separate-compilation artifacts: checked units on disk.
//!
//! The paper's opening requirement is that "a unit's interface provides
//! enough information for the separate compilation of the unit". This
//! module makes that workflow concrete for the file system, the way `.o`
//! files and header files do for C (§2's "traditional view of modules as
//! compilation units"), but with *checked* interfaces:
//!
//! * [`publish_unit`] checks a unit source and writes two files: the unit
//!   itself (`NAME.unit`) and its derived interface (`NAME.usig`, a
//!   pretty-printed signature);
//! * [`load_interface`] reads just the `.usig` — a client can be
//!   developed and checked against the interface while the provider's
//!   source is absent, unfinished, or proprietary;
//! * [`load_unit`] reads and re-checks a `.unit` file at link time,
//!   verifying it still satisfies its published interface (the provider
//!   may have been swapped for a newer build — individual replacement).
//!
//! Interfaces round-trip through the surface syntax rather than a binary
//! format, so they are diffable and human-auditable.

use std::fmt;
use std::path::{Path, PathBuf};

use units_check::{check_program, subtype, CheckError, CheckOptions, Equations, Level};
use units_kernel::{Expr, Signature, Ty};
use units_syntax::{parse_expr, parse_signature, pretty_signature, ParseError};

/// Why publishing or loading an artifact failed.
#[derive(Debug)]
pub enum ArtifactError {
    /// Reading or writing a file failed.
    Io(std::io::Error),
    /// A source or interface file does not parse.
    Parse(ParseError),
    /// The unit fails checking.
    Check(Vec<CheckError>),
    /// The expression is not a unit at a typed level.
    NotAUnit,
    /// The unit no longer satisfies its published interface.
    InterfaceViolation {
        /// The subtype checker's explanation.
        reason: String,
    },
    /// A fault deliberately fired by an armed
    /// `units_trace::faults::FaultPlane` schedule during the operation.
    Injected {
        /// The injection point that fired.
        site: &'static str,
        /// The 1-based trip count at that site when it fired.
        hit: u64,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact I/O failed: {e}"),
            ArtifactError::Parse(e) => write!(f, "artifact does not parse: {e}"),
            ArtifactError::Check(errs) => {
                write!(f, "artifact fails checking")?;
                for e in errs {
                    write!(f, ": {e}")?;
                }
                Ok(())
            }
            ArtifactError::NotAUnit => f.write_str("artifact is not a unit"),
            ArtifactError::InterfaceViolation { reason } => {
                write!(f, "unit no longer satisfies its published interface: {reason}")
            }
            ArtifactError::Injected { site, hit } => {
                write!(f, "injected fault at {site} (hit {hit})")
            }
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            ArtifactError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

impl From<ParseError> for ArtifactError {
    fn from(e: ParseError) -> Self {
        ArtifactError::Parse(e)
    }
}

/// Paths of a published artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Published {
    /// The unit source file (`NAME.unit`).
    pub unit_path: PathBuf,
    /// The interface file (`NAME.usig`).
    pub interface_path: PathBuf,
}

/// Checks `source` at the given level and writes `NAME.unit` plus
/// `NAME.usig` into `dir`.
///
/// # Errors
///
/// Fails if the source does not parse, does not check, is not a unit, or
/// the files cannot be written.
///
/// # Examples
///
/// ```
/// use units_compile::{publish_unit, load_interface};
/// use units_check::{CheckOptions, Level};
/// let dir = std::env::temp_dir().join(format!("units-doc-{}", std::process::id()));
/// std::fs::create_dir_all(&dir).unwrap();
/// let published = publish_unit(
///     &dir, "adder",
///     "(unit (import) (export (add (-> int int int)))
///        (define add (-> int int int) (lambda ((a int) (b int)) (+ a b))))",
///     CheckOptions::typed(Level::Constructed),
/// ).unwrap();
/// let interface = load_interface(&published.interface_path).unwrap();
/// assert!(interface.exports.val_port(&"add".into()).is_some());
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
pub fn publish_unit(
    dir: &Path,
    name: &str,
    source: &str,
    opts: CheckOptions,
) -> Result<Published, ArtifactError> {
    units_trace::faults::trip("compile/artifact")
        .map_err(|f| ArtifactError::Injected { site: f.site, hit: f.hit })?;
    let expr = parse_expr(source)?;
    let sig = signature_of(&expr, opts)?;
    let unit_path = dir.join(format!("{name}.unit"));
    let interface_path = dir.join(format!("{name}.usig"));
    std::fs::write(&unit_path, source)?;
    std::fs::write(&interface_path, pretty_signature(&sig))?;
    Ok(Published { unit_path, interface_path })
}

/// Reads a published interface — all a client needs for its own checking.
///
/// # Errors
///
/// Fails on I/O or parse errors.
pub fn load_interface(path: &Path) -> Result<Signature, ArtifactError> {
    let text = std::fs::read_to_string(path)?;
    Ok(parse_signature(&text)?)
}

/// Reads a `.unit` file, re-checks it, and verifies it (still) satisfies
/// the published interface next to it. Returns the checked unit
/// expression, ready to link.
///
/// # Errors
///
/// Fails if either file is unreadable or unparsable, if the unit no
/// longer checks, or if its derived signature is not a subtype of the
/// published interface.
pub fn load_unit(published: &Published, opts: CheckOptions) -> Result<Expr, ArtifactError> {
    units_trace::faults::trip("compile/artifact")
        .map_err(|f| ArtifactError::Injected { site: f.site, hit: f.hit })?;
    let source = std::fs::read_to_string(&published.unit_path)?;
    let expr = parse_expr(&source)?;
    let actual = signature_of(&expr, opts)?;
    let declared = load_interface(&published.interface_path)?;
    subtype(&Equations::new(), &Ty::Sig(Box::new(actual)), &Ty::Sig(Box::new(declared)))
        .map_err(|e| ArtifactError::InterfaceViolation { reason: e.to_string() })?;
    Ok(expr)
}

/// The derived signature of a unit expression at a typed level; at
/// [`Level::Untyped`] a name-only signature is synthesized from the
/// unit's interface (types are `None`-free in the untyped calculus, so
/// the `.usig` records just the port names).
fn signature_of(expr: &Expr, opts: CheckOptions) -> Result<Signature, ArtifactError> {
    match opts.level {
        Level::Untyped => {
            check_program(expr, opts).map_err(ArtifactError::Check)?;
            let Expr::Unit(u) = expr else {
                return Err(ArtifactError::NotAUnit);
            };
            Ok(Signature::new(u.imports.clone(), u.exports.clone(), Ty::Void))
        }
        _ => {
            let ty = check_program(expr, opts).map_err(ArtifactError::Check)?;
            match ty.and_then(|t| t.as_sig().cloned()) {
                Some(sig) => Ok(sig),
                None => Err(ArtifactError::NotAUnit),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("units-artifact-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const PROVIDER: &str = "(unit (import) (export (add (-> int int int)))
        (define add (-> int int int) (lambda ((a int) (b int)) (+ a b))))";

    #[test]
    fn publish_then_load_round_trips() {
        let dir = tmp("round");
        let published =
            publish_unit(&dir, "adder", PROVIDER, CheckOptions::typed(Level::Constructed)).unwrap();
        let interface = load_interface(&published.interface_path).unwrap();
        assert_eq!(
            interface.exports.val_port(&"add".into()).unwrap().ty,
            Some(Ty::arrow(vec![Ty::Int, Ty::Int], Ty::Int))
        );
        let unit = load_unit(&published, CheckOptions::typed(Level::Constructed)).unwrap();
        assert!(matches!(unit, Expr::Unit(_)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clients_check_against_the_interface_alone() {
        let dir = tmp("client");
        let published =
            publish_unit(&dir, "adder", PROVIDER, CheckOptions::typed(Level::Constructed)).unwrap();
        // Delete the provider source: the interface survives.
        std::fs::remove_file(&published.unit_path).unwrap();
        let interface = load_interface(&published.interface_path).unwrap();
        let add_ty = interface.exports.val_port(&"add".into()).unwrap().ty.clone().unwrap();
        // The client is a unit importing `add` at the published type.
        let client = format!(
            "(unit (import (add {ty})) (export (double (-> int int)))
               (define double (-> int int) (lambda ((n int)) (add n n))))",
            ty = units_syntax::pretty_ty(&add_ty)
        );
        check_program(&parse_expr(&client).unwrap(), CheckOptions::typed(Level::Constructed))
            .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn swapped_providers_are_reverified_at_link_time() {
        let dir = tmp("swap");
        let published =
            publish_unit(&dir, "adder", PROVIDER, CheckOptions::typed(Level::Constructed)).unwrap();
        // A compatible replacement (exports more): accepted.
        std::fs::write(
            &published.unit_path,
            "(unit (import) (export (add (-> int int int)) (zero int))
               (define add (-> int int int) (lambda ((a int) (b int)) (+ a b)))
               (define zero int 0))",
        )
        .unwrap();
        load_unit(&published, CheckOptions::typed(Level::Constructed)).unwrap();
        // An incompatible replacement (wrong type): refused.
        std::fs::write(
            &published.unit_path,
            "(unit (import) (export (add (-> int int)))
               (define add (-> int int) (lambda ((a int)) a)))",
        )
        .unwrap();
        let err = load_unit(&published, CheckOptions::typed(Level::Constructed)).unwrap_err();
        assert!(matches!(err, ArtifactError::InterfaceViolation { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn untyped_artifacts_record_port_names() {
        let dir = tmp("untyped");
        let published = publish_unit(
            &dir,
            "counter",
            "(unit (import seed) (export get)
               (define get (lambda () seed)))",
            CheckOptions::untyped(),
        )
        .unwrap();
        let interface = load_interface(&published.interface_path).unwrap();
        assert!(interface.imports.val_port(&"seed".into()).is_some());
        assert!(interface.exports.val_port(&"get".into()).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn broken_sources_are_refused_at_publish_time() {
        let dir = tmp("broken");
        assert!(matches!(
            publish_unit(&dir, "x", "(unit (import", CheckOptions::untyped()),
            Err(ArtifactError::Parse(_))
        ));
        assert!(matches!(
            publish_unit(&dir, "x", "(unit (import) (export ghost))", CheckOptions::untyped()),
            Err(ArtifactError::Check(_))
        ));
        assert!(matches!(
            publish_unit(&dir, "x", "42", CheckOptions::typed(Level::Constructed)),
            Err(ArtifactError::NotAUnit)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
