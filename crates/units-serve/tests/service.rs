//! Integration tests for the in-process [`Service`]: the tenant
//! isolation, hot-swap, and admission-control contracts the server
//! relies on, exercised without any socket.

use std::sync::Arc;
use std::time::Instant;

use units::{Expr, Level, Limits, Observation, Resource};
use units_serve::{ServeError, Service};

const SQUARE: &str = "(unit (import) (export) (init (lambda (n) (* n n))))";
const CUBE: &str = "(unit (import) (export) (init (lambda (n) (* n (* n n)))))";

fn untyped() -> Service {
    Service::builder().level(Level::Untyped).build()
}

#[test]
fn tenants_are_isolated_in_namespace_and_budget() {
    let service = untyped();
    let a = service.tenant_with_caps("a", Limits::none().fuel(5));
    let b = service.tenant_with_caps("b", Limits::none().fuel(1_000_000));
    a.load_plugin("sq", SQUARE, None).unwrap();
    b.load_plugin("sq", SQUARE, None).unwrap();

    // Tenant a's tiny cap exhausts; the failure is a's alone — b keeps
    // serving the same plug-in name, unbothered.
    let err = a.invoke("sq", Some(9)).unwrap_err();
    assert_eq!(err.kind(), "resource-exhausted", "{err}");
    assert_eq!(b.invoke("sq", Some(9)).unwrap().value, Observation::Int(81));

    // Counters are per tenant too.
    let stats = service.stats();
    assert_eq!((stats["a"].failed, stats["a"].ok), (1, 0));
    assert_eq!((stats["b"].failed, stats["b"].ok), (0, 1));

    // And a never gains access to a name it did not publish.
    let c = service.tenant("c");
    assert_eq!(c.invoke("sq", Some(2)).unwrap_err().kind(), "plugin-missing");
}

#[test]
fn admission_rejections_are_typed_and_precede_execution() {
    let service = untyped();
    let tenant = service.tenant_with_caps("capped", Limits::none().fuel(10_000).max_depth(100));
    tenant.load_plugin("sq", SQUARE, None).unwrap();

    let err = tenant.invoke_with("sq", Some(2), Limits::none().max_depth(5_000)).unwrap_err();
    let ServeError::AdmissionDenied { tenant: name, resource, requested, cap } = err else {
        panic!("expected AdmissionDenied");
    };
    assert_eq!(name, "capped");
    assert_eq!(resource, Resource::Depth);
    assert_eq!((requested, cap), (5_000, 100));

    // The refusal cost nothing: no ok, no failed, one rejected.
    let snap = tenant.stats();
    assert_eq!((snap.ok, snap.failed, snap.rejected), (0, 0, 1));
    assert_eq!(snap.total_micros, 0, "a rejected request never reaches the engine");
}

#[test]
fn hot_swap_pins_inflight_requests_and_evicts_the_old_artifact() {
    let service = untyped();
    let tenant = service.tenant("a");
    tenant.load_plugin("f", SQUARE, None).unwrap();

    // A request "in flight": it snapshotted the current version and
    // has not finished when the swap lands.
    let inflight = tenant.plugin("f").unwrap();
    assert_eq!(inflight.version(), 1);

    let info = tenant.swap_plugin("f", CUBE, None).unwrap();
    assert_eq!(info.version, 2);

    // The in-flight request completes on the pre-swap artifact …
    let old = tenant.invoke_version(&inflight, Some(4), Limits::none()).unwrap();
    assert_eq!(old.value, Observation::Int(16), "in-flight requests finish on the old version");
    // … while new requests see the new one.
    assert_eq!(tenant.invoke("f", Some(4)).unwrap().value, Observation::Int(64));
    assert_eq!(tenant.plugin("f").unwrap().version(), 2);
}

/// A version owns its artifacts, so none of them reaches the engine's
/// cache: publishes, invokes and swaps leave it empty, and a
/// swapped-out version is freed when the last request holding it ends.
#[test]
fn swapped_out_versions_do_not_linger_in_the_term_cache() {
    let service = untyped();
    let engine = service.engine();
    let tenant = service.tenant("a");
    tenant.load_plugin("f", SQUARE, None).unwrap();
    let old = tenant.plugin("f").unwrap();
    assert_eq!(engine.metrics_snapshot().cache.entries, 0, "publish caches nothing");

    // Artifacts are per version, not per argument: invokes with any
    // argument build nothing, and nothing is cached.
    assert_eq!(tenant.invoke("f", Some(1)).unwrap().value, Observation::Int(1));
    let misses = engine.metrics_snapshot().cache.misses;
    for arg in 2..=5 {
        assert_eq!(tenant.invoke("f", Some(arg)).unwrap().value, Observation::Int(arg * arg));
        let stats = engine.metrics_snapshot().cache;
        assert_eq!((stats.misses, stats.entries), (misses, 0), "argument {arg}");
    }

    tenant.swap_plugin("f", CUBE, None).unwrap();
    assert_eq!(engine.metrics_snapshot().cache.entries, 0);
    assert_eq!(tenant.invoke("f", Some(2)).unwrap().value, Observation::Int(8));
    assert_eq!(engine.metrics_snapshot().cache.entries, 0);

    // The pinned version still runs, and nothing but it holds the old
    // version, so dropping it frees the old artifact.
    assert_eq!(
        tenant.invoke_version(&old, Some(5), Limits::none()).unwrap().value,
        Observation::Int(25)
    );
    assert_eq!(engine.metrics_snapshot().cache.entries, 0);
    let weak = Arc::downgrade(&old);
    assert!(weak.upgrade().is_some());
    drop(old);
    assert!(weak.upgrade().is_none(), "the swapped-out version outlived its last request");
}

#[test]
fn a_version_first_called_after_its_swap_leaves_the_cache() {
    let service = untyped();
    let engine = service.engine();
    let tenant = service.tenant("a");
    tenant.load_plugin("f", SQUARE, None).unwrap();
    // Pinned before any invoke with an argument, so the old version has
    // been called with none when the swap lands.
    let inflight = tenant.plugin("f").unwrap();
    for _ in 0..5 {
        let outcome = tenant.invoke("f", None).unwrap();
        assert!(matches!(outcome.value, Observation::Opaque { shape: "procedure", .. }));
    }
    tenant.swap_plugin("f", CUBE, None).unwrap();
    assert_eq!(engine.metrics_snapshot().cache.entries, 0);

    // The in-flight request calls the old version after the swap; its
    // artifact serves the request and stays out of the cache.
    for arg in [3, 4] {
        let outcome = tenant.invoke_version(&inflight, Some(arg), Limits::none()).unwrap();
        assert_eq!(outcome.value, Observation::Int(arg * arg));
        assert_eq!(engine.metrics_snapshot().cache.entries, 0, "argument {arg}");
    }
    assert_eq!(tenant.invoke("f", Some(2)).unwrap().value, Observation::Int(8));
    assert_eq!(engine.metrics_snapshot().cache.entries, 0);

    // The version holds its artifact, so it leaves with the request.
    let old = Arc::downgrade(&inflight);
    assert!(old.upgrade().is_some());
    drop(inflight);
    assert!(old.upgrade().is_none(), "the swapped-out version outlived its last request");
}

#[test]
fn warm_invokes_never_probe_the_engine_cache() {
    let service = untyped();
    let tenant = service.tenant("a");
    tenant.load_plugin("f", SQUARE, None).unwrap();
    // One invoke with an argument first …
    assert_eq!(tenant.invoke("f", Some(0)).unwrap().value, Observation::Int(0));

    // … and no later one asks the engine's cache for anything, whatever
    // its argument: no hit, no miss, no new entry.
    let before = service.engine().metrics_snapshot();
    for arg in 1..=64 {
        assert_eq!(tenant.invoke("f", Some(arg)).unwrap().value, Observation::Int(arg * arg));
    }
    let after = service.engine().metrics_snapshot();
    let probes =
        |s: &units::MetricsSnapshot| (s.cache.source_hits, s.cache.misses, s.cache.entries);
    assert_eq!(probes(&after), probes(&before), "a warm invoke probed the cache");
    assert_eq!(after.runs.total, before.runs.total + 64, "every invoke still ran");
}

/// An invoke with an argument applies the version's own `(invoke U)`
/// artifact, so not even the first one loads anything.
#[test]
fn the_first_invoke_with_an_argument_loads_nothing() {
    let service = untyped();
    let tenant = service.tenant("a");
    tenant.load_plugin("f", SQUARE, None).unwrap();
    let before = service.engine().metrics_snapshot().cache;
    assert_eq!(tenant.invoke("f", Some(4)).unwrap().value, Observation::Int(16));
    let after = service.engine().metrics_snapshot().cache;
    assert_eq!((after.misses, after.entries), (before.misses, 0));
}

/// At UNITc a plug-in whose init cannot take an `int` still publishes
/// and answers argument-less invokes; an invoke with an argument fails
/// with the check error of the application `((invoke U) n)`.
#[test]
fn typed_inits_that_take_no_int_refuse_arguments_as_the_checker_would() {
    let service = Service::new(); // typed: Level::Constructed
    let tenant = service.tenant("a");
    let inits = [
        ("five", "5"),
        ("string", "(lambda ((s str)) s)"),
        ("pair", "(lambda ((a int) (b int)) a)"),
    ];
    for (name, init) in inits {
        let source = format!("(unit (import) (export) (init {init}))");
        tenant.load_plugin(name, &source, None).unwrap();
        let answered = match tenant.invoke(name, None).unwrap().value {
            Observation::Int(5) => name == "five",
            Observation::Opaque { shape: "procedure", .. } => name != "five",
            _ => false,
        };
        assert!(answered, "{name}");
        let err = tenant.invoke(name, Some(3)).unwrap_err();
        let ServeError::Engine(units::Error::Check(_)) = &err else {
            panic!("{name}: expected a check error, got {err:?}");
        };
        let unit = units::parse_expr(&source).unwrap();
        let applied = Expr::app(Expr::invoke_program(unit), vec![Expr::int(3)]);
        let checker = service.engine().load_expr(applied).unwrap_err();
        assert_eq!(err.to_string(), checker.to_string(), "{name}");
    }
    let source = "(unit (import) (export) (init (lambda ((a int)) a)))";
    tenant.load_plugin("identity", source, None).unwrap();
    assert_eq!(tenant.invoke("identity", Some(3)).unwrap().value, Observation::Int(3));
}

/// A swap compiles its replacement outside the slot's lock, so invokes
/// of the plug-in keep being answered, by the old version or the new
/// one, while the replacement is checked.
#[test]
fn invokes_keep_being_answered_while_a_swap_compiles() {
    let service = untyped();
    let tenant = service.tenant("a");
    tenant.load_plugin("f", SQUARE, None).unwrap();
    // UNITd's context check is quadratic in a unit's definitions: a
    // debug build takes about half a second over these.
    let defs: String = (0..1_500).map(|i| format!(" (define d{i} {i})")).collect();
    let replacement = format!("(unit (import) (export){defs} (init (lambda (n) (* n (* n n)))))");

    let swapper = tenant.clone();
    let swap = std::thread::spawn(move || {
        let start = Instant::now();
        let info = swapper.swap_plugin("f", &replacement, None).unwrap();
        (start, Instant::now(), info.version)
    });
    let mut answers = Vec::new();
    while !swap.is_finished() {
        let value = tenant.invoke("f", Some(3)).unwrap().value;
        answers.push((Instant::now(), value));
    }
    let (start, end, version) = swap.join().unwrap();
    assert_eq!(version, 2);

    // The old version answers until the new one does, and never after.
    let old = answers.iter().take_while(|(_, v)| *v == Observation::Int(9)).count();
    assert!(answers[old..].iter().all(|(_, v)| *v == Observation::Int(27)), "{answers:?}");
    // Holding the slot's lock across the compile would stall every
    // invoke from just after `start` until just before `end`.
    let quarter = (end - start) / 4;
    let inside = answers.iter().filter(|(at, _)| *at > start + quarter && *at < end - quarter);
    assert!(inside.count() > 0, "no invoke was answered in the middle of a {:?} swap", end - start);
    assert_eq!(tenant.invoke("f", Some(3)).unwrap().value, Observation::Int(27));
}

#[test]
fn signature_checked_swaps_reject_interface_breaks() {
    let service = Service::new(); // typed: Level::Constructed
    let tenant = service.tenant("a");
    let sig = "(sig (import) (export) (init (-> int int)))";
    tenant
        .load_plugin("f", "(unit (import) (export) (init (lambda ((n int)) (* n n))))", Some(sig))
        .unwrap();

    // A replacement that breaks the published interface is refused and
    // the old version keeps serving.
    let broken = "(unit (import) (export) (init (lambda ((n int)) (= n 0))))";
    let err = tenant.swap_plugin("f", broken, Some(sig)).unwrap_err();
    assert_eq!(err.kind(), "rejected", "{err}");
    assert_eq!(tenant.plugin("f").unwrap().version(), 1);
    assert_eq!(tenant.invoke("f", Some(5)).unwrap().value, Observation::Int(25));
}

#[test]
fn four_tenants_run_concurrent_differential_invokes() {
    let service = untyped();
    let programs = [
        ("alpha", SQUARE, 6, 36),
        ("beta", CUBE, 3, 27),
        ("gamma", "(unit (import) (export) (init (lambda (n) (+ n 100))))", 11, 111),
        ("delta", "(unit (import) (export) (init (lambda (n) (- 0 n))))", 8, -8),
    ];
    for (tenant, source, _, _) in &programs {
        service.tenant(tenant).load_plugin("main", source, None).unwrap();
    }

    let service = Arc::new(service);
    let handles: Vec<_> = programs
        .into_iter()
        .map(|(name, _, arg, expected)| {
            let service = service.clone();
            std::thread::spawn(move || {
                let tenant = service.tenant(name);
                for round in 0..10 {
                    // Differential: all three backends must agree on
                    // every request, from every tenant, concurrently.
                    let outcome = tenant.invoke_differential("main", Some(arg + round)).unwrap();
                    let Observation::Int(got) = outcome.value else {
                        panic!("tenant {name} got a non-integer")
                    };
                    let want = match name {
                        "alpha" => (arg + round) * (arg + round),
                        "beta" => (arg + round) * (arg + round) * (arg + round),
                        "gamma" => arg + round + 100,
                        _ => -(arg + round),
                    };
                    assert_eq!(got, want, "tenant {name} round {round}");
                    let _ = expected;
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    let stats = service.stats();
    for tenant in ["alpha", "beta", "gamma", "delta"] {
        assert_eq!(stats[tenant].ok, 10, "tenant {tenant}");
        assert_eq!(stats[tenant].failed, 0, "tenant {tenant}");
    }
}

#[test]
fn plugin_invokes_report_printed_output() {
    let service = untyped();
    let tenant = service.tenant("a");
    let printing = "(unit (import) (export)
        (init (begin (display \"init\")
                     (lambda (n) (begin (display (int->string n)) (* n n))))))";
    tenant.load_plugin("p", printing, None).unwrap();
    // The init prints on every invoke (each one instantiates the unit),
    // then the returned function prints its argument.
    for arg in [7, 3] {
        let outcome = tenant.invoke("p", Some(arg)).unwrap();
        assert_eq!(outcome.value, Observation::Int(arg * arg));
        assert_eq!(outcome.output, vec!["init".to_string(), arg.to_string()]);
    }
}
