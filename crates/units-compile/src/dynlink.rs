//! Linking checked units: §2's separate compilation and §3.4's dynamic
//! linking, which make one judgment.
//!
//! Under separate compilation the integrator re-verifies a provider
//! against the interface it published; under dynamic linking a retrieved
//! unit is checked against "a particular signature … in the correct
//! context". Both ask the same two questions, and one function here
//! answers each:
//!
//! * [`check_unit`]: is this source a unit, and what is its signature?
//!   At the typed levels the source is a unit when its type is a
//!   signature; at UNITd, when it is a `unit` literal, whose signature
//!   then records port names only.
//! * [`satisfies`]: does that signature satisfy an expected one? At the
//!   typed levels this is Fig. 14/17 subtyping; at UNITd the unit must
//!   import no name the signature lacks and export every name it lists.
//!
//! Every caller checks *in the loading context*, which avoids the Java
//! class-loader unsoundness the paper cites ("Java's dynamic class
//! loading is broken because it checks types in a type environment that
//! may differ from the environment where the class is used"):
//!
//! * [`publish_unit`] checks a unit source and writes it (`NAME.unit`)
//!   beside its derived interface (`NAME.usig`, a pretty-printed
//!   signature), the way `.o` and header files serve C, but checked;
//!   [`load_interface`] reads the `.usig` alone, which is all a client
//!   needs to be checked; [`load_unit`] re-verifies the `.unit` against
//!   its `.usig` at link time, since the provider may have been replaced.
//!   Interfaces round-trip through the surface syntax, so they are
//!   diffable and human-auditable.
//! * [`Archive`] is the paper's plug-in archive: an in-memory name →
//!   source store (the medium is irrelevant to the semantics) whose
//!   [`Archive::load`] hands back a checked unit ready to `invoke` with
//!   imports from the host.
//! * `unitsd` calls the two functions directly when a tenant publishes.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

use units_check::{check_program, subtype, CheckError, CheckOptions, Equations, Level};
use units_kernel::{check_ports, Expr, Signature, Ty};
use units_syntax::{parse_expr, parse_signature, pretty_signature, ParseError};
use units_trace::faults::Injected;

/// Why a unit was refused as a separate-compilation artifact or a
/// dynamically linked unit.
#[derive(Debug)]
pub enum DynlinkError {
    /// Reading or writing an artifact file failed.
    Io(std::io::Error),
    /// No unit with that name is in the archive.
    NotFound {
        /// The requested name.
        name: String,
    },
    /// A source or interface does not parse.
    Parse(ParseError),
    /// The source fails context or type checking.
    Check(Vec<CheckError>),
    /// The source is not a unit.
    NotAUnit,
    /// The unit's signature does not satisfy the expected one.
    Signature {
        /// The subtype checker's explanation, or the port at fault.
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

impl fmt::Display for DynlinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DynlinkError::Io(e) => write!(f, "artifact I/O failed: {e}"),
            DynlinkError::NotFound { name } => write!(f, "no unit named `{name}` in archive"),
            DynlinkError::Parse(e) => write!(f, "source does not parse: {e}"),
            DynlinkError::Check(errs) => {
                f.write_str("source fails checking: ")?;
                for (i, e) in errs.iter().enumerate() {
                    if i > 0 {
                        f.write_str("; ")?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
            DynlinkError::NotAUnit => f.write_str("source is not a unit"),
            DynlinkError::Signature { reason } => {
                write!(f, "unit does not satisfy the expected signature: {reason}")
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
            DynlinkError::Io(e) => Some(e),
            DynlinkError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DynlinkError {
    fn from(e: std::io::Error) -> Self {
        DynlinkError::Io(e)
    }
}

impl From<ParseError> for DynlinkError {
    fn from(e: ParseError) -> Self {
        DynlinkError::Parse(e)
    }
}

impl From<Injected> for DynlinkError {
    fn from(f: Injected) -> Self {
        DynlinkError::Injected { site: f.site, hit: f.hit }
    }
}

/// Parses and checks `source` and, when it is a unit, returns it with its
/// signature: its type at the typed levels, its port names at UNITd.
///
/// # Errors
///
/// [`DynlinkError::Parse`], [`DynlinkError::Check`], or
/// [`DynlinkError::NotAUnit`].
pub fn check_unit(source: &str, opts: CheckOptions) -> Result<(Expr, Signature), DynlinkError> {
    let expr = parse_expr(source)?;
    let sig = match (check_program(&expr, opts).map_err(DynlinkError::Check)?, &expr) {
        (Some(Ty::Sig(sig)), _) => *sig,
        (None, Expr::Unit(u)) => Signature::new(u.imports.clone(), u.exports.clone(), Ty::Void),
        _ => return Err(DynlinkError::NotAUnit),
    };
    Ok((expr, sig))
}

/// Whether a unit of signature `actual` may stand where `expected` is
/// required: `actual ≤ expected` at the typed levels; at UNITd, the
/// run-time port rule ([`check_ports`]): `actual` imports no value
/// `expected` lacks and exports every value it lists.
///
/// # Errors
///
/// [`DynlinkError::Signature`], naming the first mismatch.
pub fn satisfies(
    actual: &Signature,
    expected: &Signature,
    level: Level,
) -> Result<(), DynlinkError> {
    let reason = if level == Level::Untyped {
        match check_ports(&actual.imports, &actual.exports, &expected.imports, &expected.exports) {
            Ok(()) => return Ok(()),
            Err(mismatch) => mismatch.to_string(),
        }
    } else {
        let sig = |s: &Signature| Ty::Sig(Box::new(s.clone()));
        match subtype(&Equations::new(), &sig(actual), &sig(expected)) {
            Ok(()) => return Ok(()),
            Err(e) => e.to_string(),
        }
    };
    Err(DynlinkError::Signature { reason })
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
) -> Result<Published, DynlinkError> {
    units_trace::faults::trip("compile/artifact")?;
    let (_, sig) = check_unit(source, opts)?;
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
pub fn load_interface(path: &Path) -> Result<Signature, DynlinkError> {
    Ok(parse_signature(&std::fs::read_to_string(path)?)?)
}

/// Reads a `.unit` file, re-checks it, and verifies it (still) satisfies
/// the published interface next to it. Returns the checked unit
/// expression, ready to link.
///
/// # Errors
///
/// Fails if either file is unreadable or unparsable, if the unit no
/// longer checks, or if it no longer [`satisfies`] the published
/// interface.
pub fn load_unit(published: &Published, opts: CheckOptions) -> Result<Expr, DynlinkError> {
    units_trace::faults::trip("compile/artifact")?;
    let (unit, actual) = check_unit(&std::fs::read_to_string(&published.unit_path)?, opts)?;
    satisfies(&actual, &load_interface(&published.interface_path)?, opts.level)?;
    Ok(unit)
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

    /// Retrieves a unit and checks that it [`satisfies`] `expected` in
    /// the *current* context. On success, the returned expression is a
    /// checked unit ready for `invoke` or `compound`.
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
        units_trace::faults::trip("compile/dynlink")?;
        let source = self
            .entries
            .get(name)
            .ok_or_else(|| DynlinkError::NotFound { name: name.to_string() })?;
        let (unit, actual) = check_unit(source, opts)?;
        satisfies(&actual, expected, opts.level)?;
        Ok(unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use units_check::Strictness;

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
        assert!(matches!(err, DynlinkError::Signature { .. }), "{err}");
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
            Err(DynlinkError::Parse(_))
        ));
        assert!(matches!(
            publish_unit(&dir, "x", "(unit (import) (export ghost))", CheckOptions::untyped()),
            Err(DynlinkError::Check(_))
        ));
        assert!(matches!(
            publish_unit(&dir, "x", "42", CheckOptions::typed(Level::Constructed)),
            Err(DynlinkError::NotAUnit)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

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
