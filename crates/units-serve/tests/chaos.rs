//! Chaos pass for the service: inject deterministic faults into one
//! tenant's requests and hold the service to its isolation contract —
//! every injected failure surfaces as a typed [`ServeError`] on the
//! faulted tenant alone, and the other tenants (and the engine
//! session) keep serving correct answers afterwards.
//!
//! The plane compiles into every build, so plain `cargo test` runs this
//! file.

use units::trace::faults::{self, FaultKind, FaultPlane};
use units::{Level, Observation};
use units_serve::{ServeError, Service};

const SQUARE: &str = "(unit (import) (export) (init (lambda (n) (* n n))))";
const CUBE: &str = "(unit (import) (export) (init (lambda (n) (* n (* n n)))))";

/// One seeded schedule: tenant `victim` runs its requests under an
/// armed fault plane, tenant `bystander` runs clean before and after.
/// Returns how many faults actually fired.
fn chaos_round(service: &Service, seed: u64) -> u64 {
    let victim = service.tenant("victim");
    let bystander = service.tenant("bystander");

    // Clean baseline from the bystander.
    assert_eq!(bystander.invoke("f", Some(4)).unwrap().value, Observation::Int(64));

    let kind = if seed.is_multiple_of(2) { FaultKind::Error } else { FaultKind::Panic };
    faults::arm(FaultPlane::seeded(seed).rate_per_mille(200).budget(2).kind(kind));
    for arg in 0..6 {
        match victim.invoke("f", Some(arg)) {
            Ok(outcome) => assert_eq!(
                outcome.value,
                Observation::Int(arg * arg),
                "seed {seed}: a completed run must still be correct"
            ),
            // A fault anywhere in the pipeline must surface as a typed
            // service error — never an escaped panic (the harness would
            // abort the test) and never a wrong answer.
            Err(e) => assert!(
                matches!(e, ServeError::Engine(_)),
                "seed {seed}: fault surfaced as unexpected {e}"
            ),
        }
    }
    let plane = faults::disarm().expect("the service must leave the test's plane armed");
    let fired = plane.trips();

    // Isolation: the bystander is untouched by the victim's chaos, on
    // the same engine session, right after the storm.
    assert_eq!(bystander.invoke("f", Some(5)).unwrap().value, Observation::Int(125));
    assert_eq!(victim.invoke("f", Some(9)).unwrap().value, Observation::Int(81));
    fired
}

#[test]
fn faulted_tenants_fail_typed_while_bystanders_keep_serving() {
    let service = Service::builder().level(Level::Untyped).build();
    service.tenant("victim").load_plugin("f", SQUARE, None).unwrap();
    service.tenant("bystander").load_plugin("f", CUBE, None).unwrap();

    let mut total_fired = 0;
    for seed in 1..=40 {
        total_fired += chaos_round(&service, seed);
    }
    assert!(total_fired > 0, "the sweep must actually inject faults to prove anything");

    // The counters kept score: every victim failure was recorded,
    // nothing leaked into the bystander's books.
    let stats = service.stats();
    assert_eq!(stats["bystander"].failed, 0);
    assert_eq!(
        stats["victim"].ok + stats["victim"].failed,
        stats["victim"].requests,
        "every request is accounted ok or failed"
    );
}

#[test]
fn faults_during_publish_reject_the_plugin_but_spare_the_slot() {
    let service = Service::builder().level(Level::Untyped).build();
    let tenant = service.tenant("a");
    tenant.load_plugin("f", SQUARE, None).unwrap();

    // A fault on the dynamic-link site makes the swap fail…
    faults::arm(FaultPlane::seeded(7).trigger("compile/dynlink", 1));
    let sig = "(sig (import) (export))";
    let result = tenant.swap_plugin("f", CUBE, Some(sig));
    faults::disarm();
    assert!(result.is_err(), "the armed trigger must fire on the dynlink site");

    // …and the old version keeps serving, still on version 1.
    assert_eq!(tenant.plugin("f").unwrap().version(), 1);
    assert_eq!(tenant.invoke("f", Some(3)).unwrap().value, Observation::Int(9));

    // With the plane gone the same swap goes through.
    let info = tenant.swap_plugin("f", CUBE, Some(sig)).unwrap();
    assert_eq!(info.version, 2);
    assert_eq!(tenant.invoke("f", Some(3)).unwrap().value, Observation::Int(27));
}
