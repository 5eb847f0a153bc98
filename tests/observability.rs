//! The engine's always-on metrics plane and (with `--features trace`)
//! the bytecode profiler: these tests run in every feature
//! configuration — the snapshot must carry real numbers even when all
//! `units-trace` event hooks are compiled to no-ops.

use units::{Backend, Engine};

const EVEN_ODD: &str = "(invoke (compound (import) (export)
    (link ((unit (import odd) (export even)
             (define even (lambda (n) (if (= n 0) true (odd (- n 1))))))
           (with odd) (provides even))
          ((unit (import even) (export odd)
             (define odd (lambda (n) (if (= n 0) false (even (- n 1)))))
             (init (odd 13)))
           (with even) (provides odd)))))";

/// One load (miss), one reload (source-hash hit), three runs: the
/// snapshot accounts for all of it, in every build.
#[test]
fn metrics_snapshot_counts_cache_runs_fuel_and_latency() {
    let engine = Engine::new();
    let loaded = engine.load(EVEN_ODD).unwrap();
    loaded.run_on(Backend::Compiled).unwrap();
    loaded.run_on(Backend::Reducer).unwrap();
    loaded.run_on(Backend::Bytecode).unwrap();
    engine.load(EVEN_ODD).unwrap();

    let snap = engine.metrics_snapshot();
    assert_eq!(snap.cache.misses, 1);
    assert_eq!(snap.cache.source_hits, 1, "the reload is a raw-source hit");
    assert_eq!(snap.cache.entries, 1);
    assert_eq!(snap.runs.total, 3);
    assert_eq!(snap.runs.failures, 0);
    assert!(snap.runs.fuel_total > 0, "machine steps count in every build");
    assert!(snap.runs.fuel_max <= snap.runs.fuel_total);
    assert!(snap.runs.store_cells_peak > 0, "invoking a unit with defines allocates store cells");

    let lat = snap.invoke_latency;
    assert_eq!(lat.count, 3);
    assert!(lat.min_ns > 0);
    assert!(lat.p50_ns <= lat.p99_ns, "{lat:?}");
    assert!(lat.p99_ns <= lat.max_ns, "{lat:?}");
    assert!(lat.min_ns <= lat.mean_ns && lat.mean_ns <= lat.max_ns, "{lat:?}");

    // The JSON rendering parses back to the same tree and carries the
    // CI-gated keys.
    let json = snap.to_json().render();
    assert_eq!(units::trace::json::parse(&json), Ok(snap.to_json()));
    assert!(json.contains("\"p50_ns\"") && json.contains("\"p99_ns\""), "{json}");

    engine.metrics_reset();
    let zeroed = engine.metrics_snapshot();
    assert_eq!(zeroed.runs.total, 0);
    assert_eq!(zeroed.invoke_latency.count, 0);
    // `entries` comes from the cache itself, which a metrics reset
    // deliberately leaves alone.
    assert_eq!(zeroed.cache.entries, 1);
}

/// A failing run counts as a failure but still contributes latency.
#[test]
fn failed_runs_are_counted() {
    let engine = Engine::builder().limits(units::Limits::none().fuel(10)).build();
    let loaded = engine.load(EVEN_ODD).unwrap();
    assert!(loaded.run_on(Backend::Compiled).is_err(), "10 fuel cannot finish");
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.runs.total, 1);
    assert_eq!(snap.runs.failures, 1);
    assert_eq!(snap.invoke_latency.count, 1);
}

/// A respelled copy of a loaded source is a miss of its own, because
/// the cache keys source text.
#[test]
fn respelled_misses_show_up_in_the_snapshot() {
    let engine = Engine::new();
    let a = "(invoke (unit (import) (export) (init (* 6 7))))";
    let b = "(invoke (unit (import) (export) (init (+ 40 2))))";
    let c = "(invoke (unit (import) (export) (init (- 50 8))))";
    for source in [a, b, c] {
        engine.load(source).unwrap();
    }
    // Same term as `a`, different spelling of the source text.
    let respelled = "(invoke (unit (import) (export) (init (*   6   7))))";
    engine.load(respelled).unwrap();

    let snap = engine.metrics_snapshot();
    assert_eq!(snap.cache.misses, 4, "whitespace changes the source key");
    assert_eq!(snap.cache.source_hits, 0);
}

/// Concurrent invocation on one shared engine: every run from every
/// thread lands in the atomic counters — totals, failures, and the
/// latency reservoir all account for exactly `threads × runs` events.
#[test]
fn concurrent_invocations_are_fully_accounted() {
    const THREADS: usize = 4;
    const RUNS_PER_THREAD: usize = 8;

    let engine = Engine::new();
    engine.load(EVEN_ODD).unwrap(); // one deterministic miss up front
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..RUNS_PER_THREAD {
                    let loaded = engine.load(EVEN_ODD).unwrap();
                    loaded.run_on(Backend::Bytecode).unwrap();
                }
            });
        }
    });

    let total = (THREADS * RUNS_PER_THREAD) as u64;
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.runs.total, total);
    assert_eq!(snap.runs.failures, 0);
    assert_eq!(snap.invoke_latency.count, total);
    assert_eq!(snap.cache.misses, 1, "one artifact serves every thread");
    assert_eq!(snap.cache.source_hits, total, "each thread load is a warm hit");
    assert_eq!(snap.cache.parses, 1, "shared artifact is never re-parsed");
    assert!(snap.runs.fuel_total >= total, "every run burned machine steps");
}

/// With `--features trace` the lowered chunk carries per-op counters: a
/// bytecode run populates them, the profiled listing annotates them,
/// and `ChunkProfile` aggregates by mnemonic.
#[cfg(feature = "trace")]
#[test]
fn chunk_profile_counts_a_bytecode_run() {
    let engine = Engine::new();
    let loaded = engine.load(EVEN_ODD).unwrap();
    loaded.profile_reset();
    loaded.run_on(Backend::Bytecode).unwrap();

    let profile = loaded.chunk_profile();
    assert!(profile.enabled, "trace builds allocate the counters");
    assert!(profile.total_executed > 0);
    assert!(profile.fuel_attributed > 0, "flush points attribute fuel");
    assert!(!profile.hottest(3).is_empty());
    let by_listing = loaded.disassemble_profiled();
    assert!(by_listing.contains("ops executed"), "{by_listing}");
    assert!(by_listing.contains('×'), "per-op annotations present: {by_listing}");

    // A second run doubles the counts; a reset zeroes them.
    let first = profile.total_executed;
    loaded.run_on(Backend::Bytecode).unwrap();
    assert_eq!(loaded.chunk_profile().total_executed, 2 * first);
    loaded.profile_reset();
    assert_eq!(loaded.chunk_profile().total_executed, 0);
}

/// Without the feature the counters do not exist — capture says so
/// instead of fabricating zeros that look like "ran, count 0".
#[cfg(not(feature = "trace"))]
#[test]
fn chunk_profile_is_disabled_without_trace() {
    let engine = Engine::new();
    let loaded = engine.load(EVEN_ODD).unwrap();
    loaded.run_on(Backend::Bytecode).unwrap();
    let profile = loaded.chunk_profile();
    assert!(!profile.enabled);
    assert_eq!(profile.total_executed, 0);
    let listing = loaded.disassemble_profiled();
    assert!(listing.contains("profile: unavailable"), "{listing}");
}
