//! Chaos harness for the deterministic fault plane.
//!
//! Sweeps hundreds of seeded fault schedules — error-kind and
//! panic-kind, across all three calculus levels and all three backends —
//! and holds the engine to its contract: every injected failure
//! surfaces as a *typed* [`units::Error`] (never an escaped panic),
//! and the session stays fully usable afterwards. Each schedule is a
//! pure function of its seed, so any failing combination reported by
//! this file is a reproducible test case.
//!
//! The plane compiles into every build, so plain `cargo test` runs this
//! file; planes armed here make other tests in this binary take the
//! VM's shared prim path, which is observably identical.

use units::trace::faults::{self, FaultKind, FaultPlane};
use units::{Backend, Engine, Level, Limits, Observation};

/// A known-good program per level, with the value it must produce
/// whenever a run manages to complete.
fn program_for(level: Level) -> (&'static str, Observation) {
    match level {
        // Fig. 12's cyclically linked even/odd units: deep enough to
        // offer the stochastic stream plenty of reduce/merge/store/prim
        // trips.
        Level::Untyped => (
            "(invoke (compound (import) (export)
               (link ((unit (import odd) (export even)
                        (define even (lambda (n) (if (= n 0) true (odd (- n 1))))))
                      (with odd) (provides even))
                     ((unit (import even) (export odd)
                        (define odd (lambda (n) (if (= n 0) false (even (- n 1)))))
                        (init (odd 13)))
                      (with even) (provides odd)))))",
            Observation::Bool(true),
        ),
        _ => {
            ("(invoke (unit (import) (export) (init (+ (* 6 6) (* 50 2)))))", Observation::Int(136))
        }
    }
}

/// One seeded schedule against one (level, backend) cell. Returns how
/// many faults the plane fired, so the sweep can prove it injected.
fn chaos_case(seed: u64, level: Level, backend: Backend) -> usize {
    let (source, expected) = program_for(level);
    // Even seeds inject typed errors, odd seeds inject panics — the
    // sweep exercises both error propagation and the unwind boundaries.
    let kind = if seed.is_multiple_of(2) { FaultKind::Error } else { FaultKind::Panic };
    let engine = Engine::builder()
        .level(level)
        .backend(backend)
        .limits(Limits::none().fuel(200_000))
        .build();
    faults::arm(FaultPlane::seeded(seed).rate_per_mille(150).budget(2).kind(kind));
    let result = engine.load(source).and_then(|loaded| loaded.run());
    let plane = faults::disarm().expect("the engine must leave the test's plane armed");
    let context = format!("seed {seed} {level:?} {backend:?} {kind:?}");
    match result {
        Ok(outcome) => assert_eq!(outcome.value, expected, "{context}"),
        Err(err) => {
            assert!(!plane.fired().is_empty(), "{context}: failed with no fault fired: {err}")
        }
    }
    // The session must survive any schedule: with the plane disarmed,
    // the very same engine loads and runs the program correctly.
    let outcome = engine
        .load(source)
        .and_then(|loaded| loaded.run())
        .unwrap_or_else(|e| panic!("{context}: engine unusable after the schedule: {e}"));
    assert_eq!(outcome.value, expected, "{context}: post-schedule run");
    plane.fired().len()
}

#[test]
fn chaos_sweep_is_typed_or_correct_everywhere() {
    faults::install_quiet_hook();
    let levels = [Level::Untyped, Level::Constructed, Level::Equations];
    let backends = [Backend::Compiled, Backend::Reducer, Backend::Bytecode];
    let mut schedules = 0u64;
    let mut fired = 0usize;
    for seed in 0..40 {
        for level in levels {
            for backend in backends {
                fired += chaos_case(seed, level, backend);
                schedules += 1;
            }
        }
    }
    assert!(schedules >= 200, "the sweep must cover at least 200 schedules");
    assert!(
        fired >= schedules as usize / 4,
        "a 150\u{2030} stream must actually inject across {schedules} schedules (got {fired})"
    );
}

#[test]
fn replaying_a_seed_reproduces_its_verdict() {
    faults::install_quiet_hook();
    let verdicts: Vec<String> = (0..2)
        .map(|_| {
            let (source, _) = program_for(Level::Untyped);
            let engine = Engine::new();
            faults::arm(FaultPlane::seeded(1234).rate_per_mille(80).budget(3));
            let result = engine.load(source).and_then(|loaded| loaded.run());
            let plane = faults::disarm().unwrap();
            format!("{result:?} / {:?}", plane.fired())
        })
        .collect();
    assert_eq!(verdicts[0], verdicts[1], "equal seeds, equal schedules, equal outcomes");
}

/// A fault injected into either compiled backend is the run's answer: a
/// typed error, with no re-run on another backend. A typed fault says
/// nothing against the artifact, so it stays cached, and the next run on
/// the same backend is correct.
#[test]
fn injected_backend_faults_surface_typed_and_the_next_run_is_correct() {
    faults::install_quiet_hook();
    let (source, expected) = program_for(Level::Untyped);
    for (backend, site) in [(Backend::Compiled, "compile/eval"), (Backend::Bytecode, "vm/dispatch")]
    {
        let engine = Engine::new();
        let loaded = engine.load(source).unwrap();
        faults::arm(FaultPlane::seeded(77).trigger(site, 1));
        let err = loaded.run_on(backend).expect_err("the injected fault must surface");
        faults::disarm();
        assert!(err.is_injected(), "{backend:?}: {err}");
        assert_eq!(err.to_string(), format!("runtime error: injected fault at {site} (hit 1)"));
        assert_eq!(
            engine.metrics_snapshot().cache.entries,
            1,
            "{backend:?}: the artifact stays cached"
        );
        assert_eq!(loaded.run_on(backend).unwrap().value, expected, "{backend:?}");
    }
}

/// The VM's integer fast paths yield while a plane is armed, so
/// `runtime/prim` fires on a bytecode run whose only primitive is an
/// integer `+`, in the two-operand and in the immediate form.
#[test]
fn an_armed_plane_reaches_the_vms_integer_fast_paths() {
    for init in ["(+ a a)", "(+ a 21)"] {
        let source = format!("(invoke (unit (import) (export) (define a 21) (init {init})))");
        let engine = Engine::new();
        let loaded = engine.load(&source).unwrap();
        faults::arm(FaultPlane::seeded(3).trigger("runtime/prim", 1));
        let err = loaded.run_on(Backend::Bytecode).expect_err(init);
        faults::disarm();
        assert_eq!(err.to_string(), "runtime error: injected fault at runtime/prim (hit 1)");
    }
}

/// A panic inside loading crosses the load's unwind boundary as a typed
/// internal error naming the stage; nothing half-built is admitted, and
/// the session loads and runs the same source once the plane is gone.
#[test]
fn a_panic_inside_load_is_a_typed_internal_error() {
    faults::install_quiet_hook();
    let (source, expected) = program_for(Level::Untyped);
    let engine = Engine::new();
    faults::arm(FaultPlane::seeded(1).kind(FaultKind::Panic).trigger("check/program", 1));
    let err = engine.load(source).expect_err("the injected panic must surface");
    faults::disarm();
    let (stage, _) = err.as_internal().expect("a caught panic is Error::Internal");
    assert_eq!(stage, "load");
    assert_eq!(err.to_string(), "internal error in load: injected panic at check/program (hit 1)");
    assert_eq!(engine.metrics_snapshot().cache.entries, 0, "a panicked load admits nothing");
    let outcome = engine.load(source).and_then(|loaded| loaded.run()).unwrap();
    assert_eq!(outcome.value, expected);
}

/// A seeded schedule that trips inside evaluation leaves a flight-
/// recorder post-mortem on the engine (trace builds carry the ring):
/// the dump names the trip site, ends at the failure, and every line
/// is valid JSON.
#[cfg(feature = "trace")]
#[test]
fn injected_fault_produces_a_flight_dump_naming_the_trip_site() {
    faults::install_quiet_hook();
    let (source, _) = program_for(Level::Untyped);
    let engine = Engine::new();
    let loaded = engine.load(source).unwrap();
    assert_eq!(engine.last_flight_dump(), None, "no dump before any fault");

    faults::arm(FaultPlane::seeded(11).trigger("compile/eval", 1));
    let err = loaded.run_on(Backend::Compiled).expect_err("the fault must surface");
    faults::disarm();
    assert!(err.to_string().contains("injected fault at compile/eval"), "{err}");

    let dump = engine.last_flight_dump().expect("the failure captured a post-mortem");
    assert!(dump.reason.contains("injected fault at compile/eval"), "{}", dump.reason);
    assert!(dump.events > 0, "the ring saw the run");
    let mut lines = dump.json_lines.lines();
    let meta = lines.next().expect("a meta line leads the dump");
    assert!(meta.contains("\"flight\":\"dump\""), "{meta}");
    for line in dump.json_lines.lines() {
        units::trace::json::parse(line).unwrap_or_else(|e| panic!("bad dump line {e:?}: {line}"));
    }
    assert!(
        dump.json_lines.contains("fault/fired") && dump.json_lines.contains("compile/eval"),
        "the dump records the trip itself:\n{}",
        dump.json_lines
    );

    // A later clean run does not overwrite the post-mortem with nothing:
    // the last dump stays until the next machinery fault.
    loaded.run_on(Backend::Compiled).unwrap();
    assert!(engine.last_flight_dump().is_some());
    assert_eq!(engine.metrics_snapshot().flight.dumps, 1);
}
