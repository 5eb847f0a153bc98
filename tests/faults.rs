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
//! Build-gated: `cargo test --features faults` (registered with
//! `required-features`, so plain `cargo test` skips it and pays
//! nothing).

use units::trace::faults::{self, FaultKind, FaultPlane};
use units::{Backend, Engine, FallbackPolicy, Level, Limits, Observation};

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
        _ => (
            "(invoke (unit (import) (export) (init (+ (* 6 6) (* 50 2)))))",
            Observation::Int(136),
        ),
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
        Err(err) => assert!(
            !plane.fired().is_empty(),
            "{context}: failed with no fault fired: {err}"
        ),
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

#[test]
fn injected_compiled_fault_falls_back_byte_identically() {
    faults::install_quiet_hook();
    let (source, _) = program_for(Level::Untyped);
    // The uninjected reference verdict: same program, reducer backend.
    let expected = Engine::builder().backend(Backend::Reducer).build().invoke(source).unwrap();

    let engine =
        Engine::builder().on_failure(FallbackPolicy::reference().diagnose(false)).build();
    let loaded = engine.load(source).unwrap();
    faults::arm(FaultPlane::seeded(77).trigger("compile/eval", 1));
    let outcome = loaded.run_on(Backend::Compiled).unwrap();
    faults::disarm();
    assert_eq!(outcome, expected, "the fallback observation equals the reference run");
    let recovery = engine.last_recovery().expect("the fallback is recorded");
    assert!(recovery.fell_back, "{recovery:?}");
    assert_eq!(recovery.retries, 0);
    assert!(recovery.failure.contains("injected fault at compile/eval"), "{recovery:?}");
}

#[test]
fn injected_vm_fault_falls_back_byte_identically() {
    faults::install_quiet_hook();
    let (source, _) = program_for(Level::Untyped);
    // The uninjected reference verdict: same program, reducer backend.
    let expected = Engine::builder().backend(Backend::Reducer).build().invoke(source).unwrap();

    let engine =
        Engine::builder().on_failure(FallbackPolicy::reference().diagnose(false)).build();
    let loaded = engine.load(source).unwrap();
    faults::arm(FaultPlane::seeded(78).trigger("vm/dispatch", 1));
    let outcome = loaded.run_on(Backend::Bytecode).unwrap();
    faults::disarm();
    assert_eq!(outcome, expected, "the fallback observation equals the reference run");
    let recovery = engine.last_recovery().expect("the fallback is recorded");
    assert!(recovery.fell_back, "{recovery:?}");
    assert_eq!(recovery.retries, 0);
    assert!(recovery.failure.contains("injected fault at vm/dispatch"), "{recovery:?}");
}

#[test]
fn injected_panic_also_falls_back() {
    faults::install_quiet_hook();
    let (source, expected) = program_for(Level::Untyped);
    let engine =
        Engine::builder().on_failure(FallbackPolicy::reference().diagnose(false)).build();
    let loaded = engine.load(source).unwrap();
    faults::arm(FaultPlane::seeded(5).kind(FaultKind::Panic).trigger("runtime/prim", 2));
    let outcome = loaded.run_on(Backend::Compiled).unwrap();
    faults::disarm();
    assert_eq!(outcome.value, expected);
    let recovery = engine.last_recovery().unwrap();
    assert!(recovery.fell_back);
    assert!(recovery.failure.contains("internal error in run"), "{recovery:?}");
}

#[cfg(feature = "trace")]
#[test]
fn fallback_diagnosis_reports_both_verdicts() {
    faults::install_quiet_hook();
    let (source, _) = program_for(Level::Untyped);
    let engine = Engine::builder().on_failure(FallbackPolicy::reference()).build();
    let loaded = engine.load(source).unwrap();
    faults::arm(FaultPlane::seeded(9).trigger("compile/eval", 1));
    loaded.run_on(Backend::Compiled).unwrap();
    faults::disarm();
    let recovery = engine.last_recovery().unwrap();
    let divergence = recovery.divergence.expect("trace builds diagnose the divergence");
    assert!(divergence.contains("divergence report:"), "{divergence}");
    assert!(divergence.contains("outcome"), "{divergence}");
}

#[test]
fn fuel_exhaustion_retries_then_falls_back_under_one_policy() {
    faults::install_quiet_hook();
    // Terminates on both backends, but needs far more than 100 steps.
    let source = "(invoke (compound (import) (export)
       (link ((unit (import odd) (export even)
                (define even (lambda (n) (if (= n 0) true (odd (- n 1))))))
              (with odd) (provides even))
             ((unit (import even) (export odd)
                (define odd (lambda (n) (if (= n 0) false (even (- n 1)))))
                (init (odd 25)))
              (with even) (provides odd)))))";
    let engine = Engine::builder()
        .limits(Limits::none().fuel(100))
        .on_failure(FallbackPolicy::reference().diagnose(false).fuel_retries(8))
        .build();
    let outcome = engine.invoke(source).unwrap();
    assert_eq!(outcome.value, Observation::Bool(true));
    let recovery = engine.last_recovery().unwrap();
    assert!(recovery.retries >= 1, "escalation had to happen: {recovery:?}");
    assert!(!recovery.fell_back, "escalated fuel cures this one before any fallback");
}

#[test]
fn batch_worker_faults_are_isolated_and_deterministic() {
    faults::install_quiet_hook();
    let sources: Vec<String> = (0..24)
        .map(|i| format!("(invoke (unit (import) (export) (init (+ {i} 1))))"))
        .collect();
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let run_pool = || {
        let engine = Engine::builder()
            .threads(4)
            .worker_faults(
                FaultPlane::seeded(31).rate_per_mille(400).kind(FaultKind::Panic),
            )
            .build();
        let verdicts: Vec<Result<Observation, String>> = engine
            .load_batch(&refs)
            .into_iter()
            .map(|r| {
                r.and_then(|loaded| loaded.run())
                    .map(|outcome| outcome.value)
                    .map_err(|e| e.to_string())
            })
            .collect();
        verdicts
    };
    let verdicts = run_pool();
    let mut survived = 0;
    let mut faulted = 0;
    for (i, verdict) in verdicts.iter().enumerate() {
        match verdict {
            Ok(value) => {
                assert_eq!(*value, Observation::Int(i as i64 + 1));
                survived += 1;
            }
            Err(message) => {
                // A worker panic crosses the pool boundary as a typed
                // internal error naming the batch stage — never as a
                // dead thread or a poisoned lock.
                assert!(
                    message.contains("internal error in batch-load")
                        && message.contains("injected panic at"),
                    "job {i}: {message}"
                );
                faulted += 1;
            }
        }
    }
    assert!(faulted > 0, "a 400\u{2030} panic schedule must hit some of 24 jobs");
    assert!(survived > 0, "and must miss some");
    // Per-job reseeding makes the verdict pattern a function of the
    // jobs alone: a second pool (fresh engine, same plane) agrees
    // everywhere, whatever order its threads popped the queue.
    assert_eq!(verdicts, run_pool(), "schedules are scheduling-independent");
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
        units::trace::json::parse(line)
            .unwrap_or_else(|e| panic!("bad dump line {e:?}: {line}"));
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
    assert_eq!(engine.metrics_snapshot().recovery.flight_dumps, 1);
}
