//! One link check. §2's artifacts (`publish_unit`, then `load_unit`
//! against the interface), §3.4's `Archive::load` and a signed
//! `Tenant::load_plugin` must accept or refuse each source against each
//! signature alike: with the same [`DynlinkError`] variant, and the
//! service with that error's text as its reason.

use units::{
    load_unit, publish_unit, Archive, CheckOptions, DynlinkError, Level, Observation, Strictness,
};
use units_serve::{ServeError, Service};

const INT_TO_INT: &str = "(sig (import) (export) (init (-> int int)))";

/// A compound of one typed unit whose init is `int → int`.
const COMPOUND: &str = "(compound (import) (export)
  (link ((unit (import) (export) (init (lambda ((n int)) (* n n)))) (with) (provides))))";

/// A typed adder whose init doubles its argument.
const ADDER: &str = "(unit (import) (export (add (-> int int int)))
  (define add (-> int int int) (lambda ((a int) (b int)) (+ a b)))
  (init (lambda ((n int)) (add n n))))";

/// What a path answered: `None` for accepted, else the refusal's variant
/// and text.
type Answer = Option<(&'static str, String)>;

/// What a row is, its source, the signature it is loaded against, and
/// the refusal expected at UNITd and at UNITc (`None`: accepted).
type Row<'a> = (&'a str, &'a str, &'a str, Option<&'a str>, Option<&'a str>);

fn answer<T>(result: Result<T, DynlinkError>) -> Answer {
    let err = result.err()?;
    let variant = match err {
        DynlinkError::Parse(_) => "parse",
        DynlinkError::Check(_) => "check",
        DynlinkError::NotAUnit => "not-a-unit",
        DynlinkError::Signature { .. } => "signature",
        ref other => panic!("unexpected refusal {other:?}"),
    };
    Some((variant, err.to_string()))
}

fn scratch_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("units-link-check-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn artifacts_archives_and_publishes_share_one_rule() {
    let dir = scratch_dir();
    // The interface a typed publish writes for the adder.
    let adder = publish_unit(&dir, "adder", ADDER, CheckOptions::typed(Level::Constructed));
    let adder_sig = std::fs::read_to_string(adder.unwrap().interface_path).unwrap();

    let with_export = "(sig (import) (export (zero int)) (init (-> int int)))";
    let rows: [Row; 9] = [
        (
            "conforming",
            "(unit (import) (export) (init (lambda ((n int)) (* n n))))",
            INT_TO_INT,
            None,
            None,
        ),
        (
            "wrong init type",
            "(unit (import) (export) (init (lambda ((n int)) (= n 0))))",
            INT_TO_INT,
            None,
            Some("signature"),
        ),
        (
            "import the signature lacks",
            "(unit (import (log (-> str void))) (export) (init (lambda ((n int)) n)))",
            INT_TO_INT,
            Some("signature"),
            Some("signature"),
        ),
        (
            "missing export",
            "(unit (import) (export) (init (lambda ((n int)) n)))",
            with_export,
            Some("signature"),
            Some("signature"),
        ),
        (
            "check error",
            "(unit (import) (export ghost) (init (lambda ((n int)) n)))",
            INT_TO_INT,
            Some("check"),
            Some("check"),
        ),
        ("parse error", "(unit (import", INT_TO_INT, Some("parse"), Some("parse")),
        ("not a unit", "42", INT_TO_INT, Some("not-a-unit"), Some("not-a-unit")),
        ("compound of units", COMPOUND, INT_TO_INT, Some("not-a-unit"), None),
        ("adder against its typed interface", ADDER, &adder_sig, None, None),
    ];

    for level in [Level::Untyped, Level::Constructed] {
        // The service checks with the paper's valuability restriction.
        let opts = CheckOptions { level, strictness: Strictness::Paper };
        let tenant = Service::builder().level(level).build().tenant("t");
        for (i, (what, source, sig, untyped, typed)) in rows.iter().enumerate() {
            let row = format!("{what} at {}", level.name());
            let expected = units::parse_signature(sig).unwrap();

            let mut archive = Archive::new();
            archive.publish("p", *source);
            let archived = answer(archive.load("p", &expected, opts));

            let name = format!("p{i}");
            let artifact = answer(publish_unit(&dir, &name, source, opts).and_then(|published| {
                std::fs::write(&published.interface_path, sig).unwrap();
                load_unit(&published, opts)
            }));

            let served = match tenant.load_plugin(&name, source, Some(sig)) {
                Ok(_) => None,
                Err(ServeError::Rejected { reason, .. }) => Some(reason),
                Err(other) => panic!("{row}: the service answered {other}"),
            };

            let want = if level == Level::Untyped { untyped } else { typed };
            assert_eq!(archived.as_ref().map(|(v, _)| *v), *want, "{row}: Archive::load");
            assert_eq!(artifact.as_ref().map(|(v, _)| *v), *want, "{row}: load_unit");
            assert_eq!(served, archived.map(|(_, text)| text), "{row}: load_plugin");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A typed publish without a signature accepts any source whose type is
/// a signature, as a signed one does.
#[test]
fn an_unsigned_typed_compound_publishes() {
    let tenant = Service::new().tenant("t");
    tenant.load_plugin("square", COMPOUND, None).unwrap();
    assert_eq!(tenant.invoke("square", Some(5)).unwrap().value, Observation::Int(25));
}
