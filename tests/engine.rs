//! Engine-session invariants: the artifact cache must be semantically
//! invisible, and every resource budget must surface as a typed error.
//!
//! The differential tests here are the cache's correctness argument: a
//! warm (cache-hit) load followed by a run must produce an `Outcome`
//! equal to the cold run's, *and* an identical trace-event stream, on
//! both backends at all three levels. Cache accounting goes through
//! metrics counters only, so a hit can never perturb the event stream.

use units::{
    parse_expr, Archive, Backend, Engine, Error, Expr, Level, Limits, Loaded, Observation, Param,
    Strictness, Ty,
};
use units_runtime::Resource;

/// A program that parses at every level: annotations only where the
/// typed checkers need them, none where UNITd would reject them.
fn square_program(level: Level) -> &'static str {
    match level {
        Level::Untyped => {
            "(invoke (unit (import) (export)
                (define square (lambda (n) (* n n)))
                (init (begin (display (int->string (square 12))) (square 12)))))"
        }
        _ => {
            "(invoke (unit (import) (export)
                (define square (-> int int) (lambda ((n int)) (* n n)))
                (init (begin (display (int->string (square 12))) (square 12)))))"
        }
    }
}

/// The core differential property: for every level and backend, the
/// second (cache-hit) load runs byte-identically to the first.
#[test]
fn warm_runs_match_cold_runs_exactly() {
    for level in [Level::Untyped, Level::Constructed, Level::Equations] {
        for backend in [Backend::Compiled, Backend::Reducer] {
            let engine = Engine::builder().level(level).backend(backend).build();
            let source = square_program(level);

            let cold = engine.load(source).unwrap();
            let (cold_outcome, cold_events) =
                units::trace::capture(|| cold.run().unwrap());

            let warm = engine.load(source).unwrap();
            let (warm_outcome, warm_events) =
                units::trace::capture(|| warm.run().unwrap());

            let stats = engine.cache_stats();
            assert_eq!(
                (stats.hits, stats.misses, stats.entries),
                (1, 1, 1),
                "{level:?}/{backend:?}: second load must hit"
            );
            assert_eq!(cold_outcome.value, Observation::Int(144));
            assert_eq!(cold_outcome.output, vec!["144".to_string()]);
            assert_eq!(
                cold_outcome, warm_outcome,
                "{level:?}/{backend:?}: outcomes differ cold vs warm"
            );
            assert_eq!(
                cold_events, warm_events,
                "{level:?}/{backend:?}: trace streams differ cold vs warm"
            );
        }
    }
}

/// A cache-hit load does not even parse: its event stream is empty.
#[test]
fn warm_loads_emit_no_events() {
    let engine = Engine::new();
    engine.load(square_program(Level::Untyped)).unwrap();
    let (result, events) =
        units::trace::capture(|| engine.load(square_program(Level::Untyped)).map(drop));
    result.unwrap();
    assert!(events.is_empty(), "cache hit traced events: {events:?}");
}

/// Typed levels keep the program's type on the cached artifact.
#[test]
fn typed_levels_report_the_program_type() {
    let engine = Engine::builder().level(Level::Constructed).build();
    let loaded = engine.load(square_program(Level::Constructed)).unwrap();
    assert_eq!(loaded.ty().map(ToString::to_string).as_deref(), Some("int"));
    // And at the untyped level there is no type to report.
    let untyped = Engine::new();
    assert!(untyped.load(square_program(Level::Untyped)).unwrap().ty().is_none());
}

/// Fuel exhaustion is a typed error — no panic — on both backends.
#[test]
fn fuel_exhaustion_is_typed_on_both_backends() {
    let engine = Engine::builder()
        .strictness(Strictness::MzScheme)
        .limits(Limits::none().fuel(2_000))
        .build();
    let loaded =
        engine.load("(letrec ((define loop (lambda () (loop)))) (loop))").unwrap();
    for backend in [Backend::Compiled, Backend::Reducer] {
        let err = loaded.run_on(backend).unwrap_err();
        assert!(
            matches!(err, Error::ResourceExhausted { .. }),
            "{backend:?}: {err:?}"
        );
        assert_eq!(err.as_resource_exhausted(), Some((Resource::Fuel, 2_000)));
    }
}

/// Depth exhaustion (deep non-tail recursion) is a typed error — not a
/// stack overflow — on both backends.
#[test]
fn depth_exhaustion_is_typed_on_both_backends() {
    let engine = Engine::builder()
        .strictness(Strictness::MzScheme)
        .limits(Limits::none().max_depth(64))
        .build();
    let loaded = engine
        .load(
            "(letrec ((define down (lambda (n) (if (= n 0) 0 (+ 1 (down (- n 1)))))))
               (down 10000))",
        )
        .unwrap();
    for backend in [Backend::Compiled, Backend::Reducer] {
        let err = loaded.run_on(backend).unwrap_err();
        assert_eq!(
            err.as_resource_exhausted(),
            Some((Resource::Depth, 64)),
            "{backend:?}: {err:?}"
        );
    }
}

/// Store-cell exhaustion (each instantiation allocates one cell per
/// definition, §4.1.6) is a typed error on both backends.
#[test]
fn store_cell_exhaustion_is_typed_on_both_backends() {
    let engine = Engine::builder().limits(Limits::none().max_store_cells(2)).build();
    let loaded = engine
        .load(
            "(invoke (unit (import) (export)
                (define a (lambda () 1))
                (define b (lambda () 2))
                (define c (lambda () 3))
                (init (a))))",
        )
        .unwrap();
    for backend in [Backend::Compiled, Backend::Reducer] {
        let err = loaded.run_on(backend).unwrap_err();
        assert_eq!(
            err.as_resource_exhausted(),
            Some((Resource::StoreCells, 2)),
            "{backend:?}: {err:?}"
        );
    }
}

fn batch_sources() -> Vec<String> {
    (0..8)
        .map(|i| {
            if i == 5 {
                // One deliberate check error in the middle of the batch.
                "(+ nope 1)".to_string()
            } else {
                format!(
                    "(invoke (unit (import) (export)
                        (define f (lambda (n) (* n {i})))
                        (init (f 10))))"
                )
            }
        })
        .collect()
}

/// A parallel batch load returns, per source and in input order, exactly
/// what sequential loading returns.
#[test]
fn parallel_batch_agrees_with_sequential_loading() {
    let sources = batch_sources();
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();

    let parallel = Engine::builder().threads(4).build();
    let sequential = Engine::builder().threads(1).build();
    let par_results = parallel.load_batch(&refs);
    let seq_results = sequential.load_batch(&refs);
    assert_eq!(par_results.len(), refs.len());

    for (i, (par, seq)) in par_results.iter().zip(&seq_results).enumerate() {
        match (par, seq) {
            (Ok(p), Ok(s)) => {
                let (po, so) = (p.run().unwrap(), s.run().unwrap());
                assert_eq!(po, so, "source {i}");
                assert_eq!(po.value, Observation::Int(10 * i as i64), "source {i}");
            }
            // Errors carry no PartialEq; their stable renderings must agree.
            (Err(p), Err(s)) => assert_eq!(p.to_string(), s.to_string(), "source {i}"),
            (p, s) => panic!("source {i}: parallel {p:?} vs sequential {s:?}"),
        }
    }
    // The batch populated the parallel engine's cache: reloading every
    // good source is now pure hits.
    let before = parallel.cache_stats();
    for (i, source) in refs.iter().enumerate() {
        if i != 5 {
            parallel.load(source).unwrap();
        }
    }
    let after = parallel.cache_stats();
    assert_eq!(after.misses, before.misses, "reloads must not re-check");
    assert_eq!(after.hits, before.hits + 7);
}

/// The compile-time guarantee behind the whole parallel pipeline: the
/// engine, its loaded handles, cached-artifact errors, and lowered
/// chunks are all `Send + Sync`. This test "runs" at type-check time —
/// remove an `Arc` anywhere on the artifact spine and it stops
/// compiling.
#[test]
fn engine_artifacts_and_chunks_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<units::EngineBuilder>();
    assert_send_sync::<units_runtime::Chunk>();
    assert_send_sync::<Error>();
    assert_send_sync::<units::Loaded>();
}

/// The owned-handle contract: a `Loaded` can cross threads and outlive
/// its engine, degrading to `Error::SessionClosed` only when asked to
/// run — artifact inspection is always available.
#[test]
fn owned_handles_cross_threads_and_survive_the_engine() {
    let engine = Engine::new();
    let source = square_program(Level::Untyped);
    let loaded = engine.load(source).unwrap();

    // Move a clone into another thread and run it there while the
    // original keeps working here.
    let handle = loaded.clone();
    let remote = std::thread::spawn(move || handle.run().unwrap().value);
    assert_eq!(loaded.run().unwrap().value, Observation::Int(144));
    assert_eq!(remote.join().unwrap(), Observation::Int(144));

    // Drop the engine: the handle still owns the artifact, but the
    // session — limits, cache, policy — is gone.
    drop(engine);
    assert!(!loaded.session_alive());
    assert!(loaded.ty().is_none(), "artifact inspection outlives the session");
    assert!(!loaded.disassemble().is_empty(), "disassembly outlives the session");
    assert!(matches!(loaded.run(), Err(Error::SessionClosed)));
}

/// `run_with` applies per-request limits without touching the session
/// defaults — the admission-control hook a multi-tenant server uses.
#[test]
fn per_request_limits_override_session_limits() {
    let engine = Engine::builder()
        .strictness(Strictness::MzScheme)
        .limits(Limits::none().fuel(1_000_000))
        .build();
    let loaded = engine
        .load("(letrec ((define loop (lambda (n) (if (= n 0) 7 (loop (- n 1)))))) (loop 2000))")
        .unwrap();
    // Tight per-request budget: typed exhaustion naming that budget.
    let err = loaded.run_with(Backend::Compiled, Limits::none().fuel(100)).unwrap_err();
    assert_eq!(err.as_resource_exhausted(), Some((Resource::Fuel, 100)));
    // The same handle under the (generous) session limits succeeds.
    assert_eq!(loaded.run().unwrap().value, Observation::Int(7));
}

/// One engine shared by reference across threads behaves exactly like a
/// cold single-threaded engine: same outcomes, same per-thread trace
/// streams, byte for byte. Trace capture is thread-local, so concurrent
/// runs cannot interleave each other's events.
#[test]
fn shared_engine_runs_identically_across_threads() {
    for backend in [Backend::Compiled, Backend::Reducer, Backend::Bytecode] {
        let source = square_program(Level::Untyped);

        let cold_engine = Engine::new();
        let cold = cold_engine.load(source).unwrap();
        let (cold_outcome, cold_events) =
            units::trace::capture(|| cold.run_on(backend).unwrap());

        let shared = Engine::new();
        shared.load(source).unwrap(); // warm the cache once, deterministically
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let loaded = shared.load(source).unwrap();
                        units::trace::capture(|| loaded.run_on(backend).unwrap())
                    })
                })
                .collect();
            for handle in handles {
                let (outcome, events) = handle.join().unwrap();
                assert_eq!(outcome, cold_outcome, "{backend:?}: outcome drifted");
                assert_eq!(events, cold_events, "{backend:?}: trace drifted");
            }
        });
        let stats = shared.cache_stats();
        assert_eq!((stats.misses, stats.entries), (1, 1), "{backend:?}");
        assert_eq!(stats.hits, 4, "{backend:?}: every thread load is a hit");
    }
}

/// Cold loads of one source that race admit exactly one artifact:
/// threads released together all miss the cache, one wins admission
/// (the one miss and, with a store, the one write), and every other
/// thread shares the winner's artifact as a hit — whether it lost the
/// race under the cache lock or arrived after it.
#[test]
fn racing_cold_loads_of_one_source_admit_one_artifact() {
    const THREADS: usize = 8;
    let source = "(invoke (unit (import) (export) (init (* 6 7))))";
    let dir = std::env::temp_dir().join(format!("units-engine-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for with_store in [false, true] {
        let mut builder = Engine::builder();
        if with_store {
            builder = builder.cache_dir(&dir);
        }
        let engine = builder.build();
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        engine.load(source).unwrap().run().unwrap().value
                    })
                })
                .collect();
            for handle in handles {
                assert_eq!(handle.join().unwrap(), Observation::Int(42));
            }
        });
        let stats = engine.cache_stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.entries),
            (7, 1, 1),
            "store: {with_store}"
        );
        if with_store {
            assert_eq!(engine.metrics_snapshot().store.writes, 1);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Winners are shared, not re-parsed: the parse counter moves once per
/// distinct source and stays flat across every warm path — sequential
/// reload, parallel batch, and archive load alike.
#[test]
fn cache_hits_never_reparse() {
    let engine = Engine::builder().threads(4).build();
    let source = square_program(Level::Untyped);

    engine.load(source).unwrap();
    assert_eq!(engine.metrics_snapshot().cache.parses, 1);

    // Sequential warm load: source-hash hit, no parse.
    engine.load(source).unwrap();
    // Parallel warm batch of duplicates: all answered from cache.
    for result in engine.load_batch(&[source, source, source]) {
        result.unwrap();
    }
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.cache.parses, 1, "warm loads must never re-parse");
    assert_eq!(snap.cache.misses, 1);
    assert_eq!(snap.cache.source_hits, 4);

    // A cold batch parses each distinct source exactly once, even with
    // the same source repeated in the job list.
    let sources = batch_sources();
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let mut doubled = refs.clone();
    doubled.extend(refs.iter().copied());
    for (i, result) in engine.load_batch(&doubled).into_iter().enumerate() {
        if i % refs.len() != 5 {
            result.unwrap();
        }
    }
    let snap = engine.metrics_snapshot();
    // 1 original + 8 batch sources parsed once each; the failing source
    // (index 5) parses on each attempt because failures are not cached.
    assert_eq!(snap.cache.parses, 1 + 8 + 1, "each winner parsed exactly once");
}

/// Archive entries load through the same batch path, keyed by name.
#[test]
fn archives_load_in_name_order() {
    let mut archive = Archive::new();
    archive.publish(
        "answer",
        "(invoke (unit (import) (export) (init (* 6 7))))",
    );
    archive.publish("broken", "(+ nope 1)");
    archive.publish("greeting", r#"(invoke (unit (import) (export) (init "hi")))"#);

    let engine = Engine::builder().threads(4).build();
    let loaded = engine.load_archive(&archive);
    let names: Vec<&str> = loaded.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["answer", "broken", "greeting"]);
    assert_eq!(
        loaded[0].1.as_ref().unwrap().run().unwrap().value,
        Observation::Int(42)
    );
    assert!(loaded[1].1.as_ref().err().and_then(Error::as_check).is_some());
    assert_eq!(
        loaded[2].1.as_ref().unwrap().run().unwrap().value,
        Observation::Str("hi".into())
    );
}

const BACKENDS: [Backend; 3] = [Backend::Compiled, Backend::Bytecode, Backend::Reducer];

/// A plug-in's call artifact, `(lambda (arg) ((invoke unit) arg))` with
/// `arg` typed `int` at typed levels, as a plug-in server builds it.
fn call_artifact(engine: &Engine, unit: &str) -> Result<Loaded, Error> {
    let arg = match engine.level() {
        Level::Untyped => Param::untyped("arg"),
        _ => Param::typed("arg", Ty::Int),
    };
    let unit = parse_expr(unit).unwrap();
    let body = Expr::app(Expr::invoke_program(unit), vec![Expr::var("arg")]);
    engine.load_expr(Expr::lambda(vec![arg], body))
}

/// The oracle a call stands for: the term `((invoke unit) n)`.
fn invoke_applied(engine: &Engine, unit: &str, n: i64) -> Result<Loaded, Error> {
    let unit = parse_expr(unit).unwrap();
    engine.load_expr(Expr::app(Expr::invoke_program(unit), vec![Expr::int(n)]))
}

/// Fig. 12's even/odd units, typed, linked and invoked inside the
/// plug-in with the argument as the depth.
const TYPED_EVEN_ODD: &str = "(unit (import) (export)
  (init (lambda ((n int))
    (invoke
      (compound (import (depth int)) (export)
        (link ((unit (import (odd (-> int bool))) (export (even (-> int bool)))
                 (define even (-> int bool)
                   (lambda ((k int)) (if (= k 0) true (odd (- k 1))))))
               (with (odd (-> int bool))) (provides (even (-> int bool))))
              ((unit (import (even (-> int bool)) (depth int)) (export (odd (-> int bool)))
                 (define odd (-> int bool)
                   (lambda ((k int)) (if (= k 0) false (even (- k 1)))))
                 (init (odd depth)))
               (with (even (-> int bool)) (depth int)) (provides (odd (-> int bool))))))
      (val depth n)))))";

/// Prints in its init (once per invoke) and in the function it returns.
const PRINTING: &str = "(unit (import) (export)
  (init (begin (display \"init\")
               (lambda (n) (begin (display (int->string n)) (* n 10))))))";

/// `Loaded::call_with` is `((invoke unit) n)` without the per-call
/// term: on every backend it yields the oracle's value and printed
/// output, in the oracle's order.
#[test]
fn call_with_matches_the_applied_invoke_on_every_backend() {
    let cases = [
        (Level::Constructed, TYPED_EVEN_ODD, [0, 1, 64, 129]),
        (Level::Untyped, PRINTING, [0, 1, 7, -3]),
    ];
    for (level, unit, args) in cases {
        let engine = Engine::builder().level(level).build();
        let call = call_artifact(&engine, unit).unwrap();
        for n in args {
            let oracle = invoke_applied(&engine, unit, n).unwrap();
            for backend in BACKENDS {
                let want = oracle.run_on(backend).unwrap();
                let got = call.call_with(backend, engine.limits(), n).unwrap();
                assert_eq!(got, want, "{level:?}/{backend:?}, argument {n}");
            }
        }
    }
    // Spot-check the oracle itself, so agreement is not vacuous.
    let engine = Engine::builder().level(Level::Constructed).build();
    let call = call_artifact(&engine, TYPED_EVEN_ODD).unwrap();
    assert_eq!(call.call_differential(129).unwrap().value, Observation::Bool(true));
    let engine = Engine::new();
    let outcome = call_artifact(&engine, PRINTING).unwrap().call_differential(7).unwrap();
    assert_eq!(outcome.value, Observation::Int(70));
    assert_eq!(outcome.output, vec!["init".to_string(), "7".to_string()]);
}

/// A plug-in whose init is not a function fails the call exactly as it
/// fails the applied invoke: a check error at typed levels, the same
/// runtime error at UNITd.
#[test]
fn calling_a_non_function_init_fails_like_the_applied_invoke() {
    let typed = Engine::builder().level(Level::Constructed).build();
    let unit = "(unit (import) (export) (init 5))";
    let call = call_artifact(&typed, unit).unwrap_err();
    let oracle = invoke_applied(&typed, unit, 3).unwrap_err();
    assert!(call.as_check().is_some(), "{call}");
    assert!(oracle.as_check().is_some(), "{oracle}");

    let untyped = Engine::new();
    let call = call_artifact(&untyped, unit).unwrap();
    let oracle = invoke_applied(&untyped, unit, 3).unwrap();
    for backend in BACKENDS {
        let got = call.call_with(backend, untyped.limits(), 3).unwrap_err();
        let want = oracle.run_on(backend).unwrap_err();
        assert!(got.as_runtime().is_some(), "{backend:?}: {got}");
        assert_eq!(got.to_string(), want.to_string(), "{backend:?}");
    }
}

/// A call's budget covers the invoke and the application together: a
/// tight fuel cap is the same typed exhaustion on every backend.
#[test]
fn a_tight_fuel_cap_exhausts_a_call_typed_on_every_backend() {
    let engine = Engine::builder().level(Level::Constructed).build();
    let call = call_artifact(&engine, TYPED_EVEN_ODD).unwrap();
    for backend in BACKENDS {
        let err = call.call_with(backend, Limits::none().fuel(50), 10_000).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted { .. }), "{backend:?}: {err:?}");
        assert_eq!(err.as_resource_exhausted(), Some((Resource::Fuel, 50)), "{backend:?}");
    }
}

/// `n` copies of `open`, then `leaf`, then `n` copies of `close`.
fn nest(open: &str, leaf: &str, close: &str, n: usize) -> String {
    format!("{}{leaf}{}", open.repeat(n), close.repeat(n))
}

/// How many lists deep `source` nests (it holds no string literals).
fn nesting(source: &str) -> usize {
    let mut depth = 0usize;
    let mut deepest = 0;
    for b in source.bytes() {
        match b {
            b'(' => {
                depth += 1;
                deepest = deepest.max(depth);
            }
            b')' => depth -= 1,
            _ => {}
        }
    }
    deepest
}

/// A program nested exactly `MAX_NESTING` lists deep loads, goes through
/// the on-disk store, and runs on every backend at the untyped and a
/// typed level, on a thread with the stack `unitsd` gives its
/// connections. One level deeper is a parse error naming the cap.
#[test]
fn programs_nested_at_the_cap_run_on_every_backend() {
    let cap = units::MAX_NESTING;
    // `(invoke (unit (import) (export) (init …)))` opens three lists a level.
    let unit_levels = (cap - 1) / 3;
    let shapes = [
        ("begin", nest("(begin ", "1", ")", cap), 1),
        ("arithmetic", nest("(+ 1 ", "0", ")", cap), cap as i64),
        ("tuples", nest("(proj 0 (tuple ", "7", "))", cap / 2), 7),
        (
            "units",
            nest(
                "(invoke (unit (import) (export) (init ",
                &nest("(begin ", "5", ")", cap - 3 * unit_levels),
                ")))",
                unit_levels,
            ),
            5,
        ),
    ];
    let dir = std::env::temp_dir().join(format!("units-nesting-cap-{}", std::process::id()));
    let check = move || {
        for (shape, source, value) in &shapes {
            assert_eq!(nesting(source), cap, "{shape}");
            for level in [Level::Untyped, Level::Constructed] {
                for backend in BACKENDS {
                    let _ = std::fs::remove_dir_all(&dir);
                    let engine = |dir: &std::path::Path| {
                        Engine::builder().level(level).backend(backend).cache_dir(dir).build()
                    };
                    // A cold load writes the store entry; a second engine
                    // over the same directory decodes it instead of parsing.
                    for (phase, engine) in [("cold", engine(&dir)), ("warm", engine(&dir))] {
                        let outcome =
                            engine.load(source).and_then(|l| l.run()).unwrap_or_else(|e| {
                                panic!("{shape} {phase} {level:?}/{backend:?}: {e}")
                            });
                        assert_eq!(outcome.value, Observation::Int(*value), "{shape} {phase}");
                        let parses = engine.metrics_snapshot().cache.parses;
                        assert_eq!(parses, u64::from(phase == "cold"), "{shape} {phase}");
                    }
                }
            }
            let err = Engine::new().load(&format!("(begin {source})")).unwrap_err();
            assert!(
                matches!(&err, Error::Parse(e) if e.message == format!("forms nest deeper than {cap} levels")),
                "{shape}: {err}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    };
    std::thread::Builder::new()
        .stack_size(units::PIPELINE_STACK_SIZE)
        .spawn(check)
        .unwrap()
        .join()
        .unwrap();
}

/// A program that builds a structure `n` deep, discards it, and returns
/// 42: `defs` defines `build`, which counts down from `n` and wraps its
/// accumulator, starting from `init`, at each step.
fn deep_program(defs: &str, init: &str, n: usize) -> String {
    format!("(letrec ({defs}) (begin (build {n} {init}) 42))")
}

/// The five deep structures: a datatype list, a tuple chain, a closure
/// chain, a chain of recursive closures (each in its own `letrec` cell),
/// and a chain of hash tables.
fn deep_programs(n: usize) -> [(&'static str, String); 5] {
    let build = |wrap: &str| {
        format!("(define build (lambda (n acc) (if (= n 0) acc (build (- n 1) {wrap}))))")
    };
    [
        (
            "list",
            deep_program(
                &format!(
                    "(datatype lst (cons uncons void) (nil unnil void) cons?) {}",
                    build("(cons (tuple n acc))")
                ),
                "(nil void)",
                n,
            ),
        ),
        ("tuples", deep_program(&build("(tuple n acc)"), "0", n)),
        ("closures", deep_program(&build("(lambda () (acc))"), "(lambda () 0)", n)),
        (
            "cells",
            deep_program(
                &build("(letrec ((define g (lambda () (acc)))) g)"),
                "(lambda () 0)",
                n,
            ),
        ),
        (
            "hashes",
            deep_program(
                &build("(let ((h (hash-new))) (begin (hash-set! h \"next\" acc) h))"),
                "0",
                n,
            ),
        ),
    ]
}

/// The stack a deep-drop program runs on: recursive drops of 200,000
/// nodes overflow it on both compiled backends.
const DEEP_DROP_STACK: usize = 1 << 20;

/// Runs the deep-structure program `name` at 200,000 elements on both
/// compiled backends, on a thread with a 1 MiB stack, and checks that it
/// returns 42 and that its reclaimed store retains no cell.
fn drops_in_bounded_stack(name: &'static str) {
    let check = move || {
        let (_, source) = deep_programs(200_000).into_iter().find(|(n, _)| *n == name).unwrap();
        for backend in [Backend::Compiled, Backend::Bytecode] {
            let engine = Engine::builder().level(Level::Untyped).backend(backend).build();
            let outcome = engine
                .load(&source)
                .and_then(|l| l.run())
                .unwrap_or_else(|e| panic!("{name} on {backend:?}: {e}"));
            assert_eq!(outcome.value, Observation::Int(42), "{name} on {backend:?}");
            assert_eq!(engine.metrics_snapshot().runs.cells_retained, 0, "{name} on {backend:?}");
        }
    };
    std::thread::Builder::new()
        .stack_size(DEEP_DROP_STACK)
        .spawn(check)
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn a_deep_datatype_list_drops_in_bounded_stack() {
    drops_in_bounded_stack("list");
}

#[test]
fn a_deep_tuple_chain_drops_in_bounded_stack() {
    drops_in_bounded_stack("tuples");
}

#[test]
fn a_deep_closure_chain_drops_in_bounded_stack() {
    drops_in_bounded_stack("closures");
}

#[test]
fn a_deep_chain_of_recursive_closures_is_reclaimed_in_bounded_stack() {
    drops_in_bounded_stack("cells");
}

#[test]
fn a_deep_hash_table_chain_drops_in_bounded_stack() {
    drops_in_bounded_stack("hashes");
}

/// Evaluates `source` on a compiled backend with `machine`.
fn evaluate_on(backend: Backend, source: &str, machine: &mut units::Machine) -> units::Value {
    let resolved = units_compile::resolve_program(&parse_expr(source).unwrap());
    let value = match backend {
        Backend::Compiled => units::evaluate_program(&resolved, machine),
        _ => units_runtime::execute(&units_compile::lower_program(&resolved), machine),
    };
    value.unwrap_or_else(|e| panic!("{source} on {backend:?}: {e}"))
}

/// A recursive closure lives in a cell of the frame it captures, a cycle
/// reference counting never frees. Dropping the run's machine empties
/// the cell, so the closure goes with it. A closure used after its
/// machine reclaimed fails with a typed error instead.
#[test]
fn a_dropped_machine_frees_its_recursive_closures() {
    let source = "(letrec ((define f (lambda (n) (f n)))) f)";
    for backend in [Backend::Compiled, Backend::Bytecode] {
        let mut machine = units::Machine::new();
        let units::Value::Closure(f) = evaluate_on(backend, source, &mut machine) else {
            panic!("{backend:?}: not a closure");
        };
        let weak = std::rc::Rc::downgrade(&f);
        drop(f);
        assert!(weak.upgrade().is_some(), "{backend:?}: the cycle holds the closure");
        drop(machine);
        assert!(weak.upgrade().is_none(), "{backend:?}: the closure outlived its machine");

        let mut machine = units::Machine::new();
        let f = evaluate_on(backend, source, &mut machine);
        assert_eq!(machine.reclaim(), 1, "{backend:?}: `f`'s cell is still referenced");
        let apply = match backend {
            Backend::Compiled => units_compile::apply,
            _ => units_runtime::vm::apply,
        };
        let err = apply(f, vec![units::Value::Int(1)], &mut units::Machine::new()).unwrap_err();
        assert!(
            matches!(&err, units::RuntimeError::UndefinedRead { name } if name.as_str() == "f"),
            "{backend:?}: {err}"
        );
    }
}

/// A table that stores a closure over itself is a cycle through the
/// table; dropping the machine empties the table and frees both.
#[test]
fn a_dropped_machine_frees_a_table_that_holds_a_closure_over_itself() {
    let source = "(let ((h (hash-new))) (begin (hash-set! h \"self\" (lambda () h)) h))";
    for backend in [Backend::Compiled, Backend::Bytecode] {
        let mut machine = units::Machine::new();
        let units::Value::Hash(h) = evaluate_on(backend, source, &mut machine) else {
            panic!("{backend:?}: not a table");
        };
        let weak = std::rc::Rc::downgrade(&h);
        drop(h);
        assert!(weak.upgrade().is_some(), "{backend:?}: the cycle holds the table");
        drop(machine);
        assert!(weak.upgrade().is_none(), "{backend:?}: the table outlived its machine");
    }
}
