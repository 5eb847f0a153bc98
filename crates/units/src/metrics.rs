//! The engine's always-on metrics plane.
//!
//! Unlike the event hooks in `units-trace` (feature-gated to no-ops),
//! these are plain per-engine counters — a handful of relaxed atomic
//! bumps and one `Instant` read per invoke — cheap enough to keep in
//! every build, so `Engine::metrics_snapshot` reports cache behaviour,
//! recoveries, worker-pool usage, fuel, store-cell high-water marks,
//! cells a reclaimed run store still found referenced, and invoke
//! latency percentiles whether or not the `trace` feature is compiled.
//!
//! Engines are `Send + Sync` session handles shared across threads, so
//! the counters are `AtomicU64` (relaxed ordering: they are statistics,
//! not synchronization) and the latency histogram sits behind a `Mutex`
//! taken once per run.
//!
//! Latency uses [`units_trace::DurationStats`] (the *types* in
//! `units-trace` always compile): log₂-ns histogram buckets with
//! derived p50/p99.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Duration;

use units_trace::json::Json;
use units_trace::DurationStats;

/// Internal mutable storage, one per [`crate::Engine`]. Worker threads
/// and concurrent invokers bump these directly — no joining required.
#[derive(Debug, Default)]
pub(crate) struct EngineMetrics {
    pub source_hits: AtomicU64,
    pub misses: AtomicU64,
    pub evictions: AtomicU64,
    pub parses: AtomicU64,
    pub pool_batches: AtomicU64,
    pub pool_jobs: AtomicU64,
    pub pool_peak_workers: AtomicU64,
    pub runs: AtomicU64,
    pub run_failures: AtomicU64,
    pub fuel_total: AtomicU64,
    pub fuel_max: AtomicU64,
    pub cells_peak: AtomicU64,
    pub cells_retained: AtomicU64,
    pub fuel_retries: AtomicU64,
    pub fallbacks: AtomicU64,
    pub recovered_runs: AtomicU64,
    pub flight_dumps: AtomicU64,
    pub flight_dump_failures: AtomicU64,
    pub store_hits: AtomicU64,
    pub store_misses: AtomicU64,
    pub store_corrupt: AtomicU64,
    pub store_writes: AtomicU64,
    pub invoke_latency: Mutex<DurationStats>,
}

/// One relaxed increment — the idiom for every counter here.
#[inline]
pub(crate) fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Relaxed);
}

impl EngineMetrics {
    /// Records one completed run (including any recovery work).
    pub fn note_run(&self, latency: Duration, ok: bool) {
        bump(&self.runs);
        if !ok {
            bump(&self.run_failures);
        }
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.invoke_latency.lock().unwrap().record_ns(ns);
    }

    /// Folds one machine's end-of-run resource usage in.
    pub fn note_machine(&self, fuel: u64, cells: u64) {
        self.fuel_total.fetch_add(fuel, Relaxed);
        self.fuel_max.fetch_max(fuel, Relaxed);
        self.cells_peak.fetch_max(cells, Relaxed);
    }

    /// Adds the cells a reclaimed run store found still referenced.
    pub fn note_retained(&self, cells: u64) {
        self.cells_retained.fetch_add(cells, Relaxed);
    }

    /// Records one worker-pool batch of `jobs` jobs on `workers`
    /// threads.
    pub fn note_batch(&self, jobs: u64, workers: u64) {
        bump(&self.pool_batches);
        self.pool_jobs.fetch_add(jobs, Relaxed);
        self.pool_peak_workers.fetch_max(workers, Relaxed);
    }

    /// A structured copy of everything, with `entries` supplied by the
    /// cache (it owns the map).
    pub fn snapshot(&self, entries: usize) -> MetricsSnapshot {
        let lat = self.invoke_latency.lock().unwrap();
        MetricsSnapshot {
            cache: CacheMetrics {
                source_hits: self.source_hits.load(Relaxed),
                misses: self.misses.load(Relaxed),
                evictions: self.evictions.load(Relaxed),
                parses: self.parses.load(Relaxed),
                entries,
            },
            pool: PoolMetrics {
                batches: self.pool_batches.load(Relaxed),
                jobs: self.pool_jobs.load(Relaxed),
                peak_workers: self.pool_peak_workers.load(Relaxed),
            },
            recovery: RecoveryMetrics {
                fuel_retries: self.fuel_retries.load(Relaxed),
                reference_fallbacks: self.fallbacks.load(Relaxed),
                recovered_runs: self.recovered_runs.load(Relaxed),
                flight_dumps: self.flight_dumps.load(Relaxed),
                flight_dump_failures: self.flight_dump_failures.load(Relaxed),
            },
            store: StoreMetrics {
                hits: self.store_hits.load(Relaxed),
                misses: self.store_misses.load(Relaxed),
                corrupt: self.store_corrupt.load(Relaxed),
                writes: self.store_writes.load(Relaxed),
            },
            runs: RunMetrics {
                total: self.runs.load(Relaxed),
                failures: self.run_failures.load(Relaxed),
                fuel_total: self.fuel_total.load(Relaxed),
                fuel_max: self.fuel_max.load(Relaxed),
                store_cells_peak: self.cells_peak.load(Relaxed),
                cells_retained: self.cells_retained.load(Relaxed),
            },
            invoke_latency: LatencyStats {
                count: lat.count,
                min_ns: if lat.count == 0 { 0 } else { lat.min_ns },
                max_ns: lat.max_ns,
                mean_ns: lat.mean_ns(),
                p50_ns: lat.p50_ns(),
                p99_ns: lat.p99_ns(),
            },
        }
    }

    /// Zeroes every counter and the latency histogram.
    pub fn reset(&self) {
        for counter in [
            &self.source_hits,
            &self.misses,
            &self.evictions,
            &self.parses,
            &self.pool_batches,
            &self.pool_jobs,
            &self.pool_peak_workers,
            &self.runs,
            &self.run_failures,
            &self.fuel_total,
            &self.fuel_max,
            &self.cells_peak,
            &self.cells_retained,
            &self.fuel_retries,
            &self.fallbacks,
            &self.recovered_runs,
            &self.flight_dumps,
            &self.flight_dump_failures,
            &self.store_hits,
            &self.store_misses,
            &self.store_corrupt,
            &self.store_writes,
        ] {
            counter.store(0, Relaxed);
        }
        *self.invoke_latency.lock().unwrap() = DurationStats::default();
    }
}

/// Artifact-cache behaviour. The cache is keyed by source text, so
/// every hit is a source hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheMetrics {
    /// Loads answered from the cache by their source text.
    pub source_hits: u64,
    /// Loads that had to check and resolve from scratch.
    pub misses: u64,
    /// Artifacts evicted after a panic poisoned them.
    pub evictions: u64,
    /// Source texts the engine actually parsed. Cache hits skip parsing,
    /// so this stays flat on warm loads — the "winners are shared, not
    /// re-parsed" invariant, measured.
    pub parses: u64,
    /// Artifacts currently cached.
    pub entries: usize,
}

/// Worker-pool activity for `load_batch` / `load_archive`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolMetrics {
    /// Parallel batches dispatched (sequential fallbacks not counted).
    pub batches: u64,
    /// Jobs pushed through those batches (deduplicated uncached
    /// sources — each job runs the full parse→check→resolve pipeline).
    pub jobs: u64,
    /// Widest worker count used by any batch.
    pub peak_workers: u64,
}

/// What the failure-recovery policy did, by stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryMetrics {
    /// Fuel-escalation retry runs.
    pub fuel_retries: u64,
    /// Runs re-executed on the reference reducer.
    pub reference_fallbacks: u64,
    /// Runs that ultimately succeeded only thanks to recovery.
    pub recovered_runs: u64,
    /// Flight-recorder post-mortems captured (trace builds only).
    pub flight_dumps: u64,
    /// `UNITS_FLIGHT_DUMP` file writes that failed (the in-memory dump
    /// still survives; the failure is counted instead of swallowed).
    pub flight_dump_failures: u64,
}

/// Persistent artifact-store behaviour. All zero for an engine built
/// without [`crate::EngineBuilder::cache_dir`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreMetrics {
    /// Loads answered by a verified on-disk entry — parse, check,
    /// resolve, and lowering all skipped.
    pub hits: u64,
    /// Store probes that found nothing usable (includes `corrupt`).
    pub misses: u64,
    /// Entries that failed verification and were quarantined.
    pub corrupt: u64,
    /// Fresh artifacts durably written through to disk.
    pub writes: u64,
}

/// Aggregate run outcomes and resource high-water marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunMetrics {
    /// Runs requested through the engine (`run`, `run_on`, `invoke`).
    pub total: u64,
    /// Runs that returned an error after recovery (if any) was spent.
    pub failures: u64,
    /// Fuel (machine steps) consumed across all runs.
    pub fuel_total: u64,
    /// Most fuel any single run consumed.
    pub fuel_max: u64,
    /// Most store cells any single run allocated.
    pub store_cells_peak: u64,
    /// Store cells still referenced from outside their run's store after
    /// it was reclaimed, summed over runs. A run returns an observation,
    /// not a value, so anything but zero is a leak.
    pub cells_retained: u64,
}

/// Invoke latency derived from a log₂-ns histogram. Percentiles are
/// bucket upper-bound estimates clamped to the observed range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyStats {
    /// How many runs were timed.
    pub count: u64,
    /// Fastest run, in nanoseconds.
    pub min_ns: u64,
    /// Slowest run, in nanoseconds.
    pub max_ns: u64,
    /// Mean run latency, in nanoseconds.
    pub mean_ns: u64,
    /// Median estimate, in nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile estimate, in nanoseconds.
    pub p99_ns: u64,
}

/// Everything [`crate::Engine::metrics_snapshot`] reports, as plain
/// data. [`MetricsSnapshot::to_json`] gives it as a JSON value for
/// `unitsd stats`, the bench harness and CI gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Cache hits, misses, evictions, parses, and entries.
    pub cache: CacheMetrics,
    /// Worker-pool batches, jobs, and peak width.
    pub pool: PoolMetrics,
    /// Recovery actions by policy stage.
    pub recovery: RecoveryMetrics,
    /// Persistent artifact-store hits, misses, corruption, and writes.
    pub store: StoreMetrics,
    /// Run totals, fuel, and store-cell high-water marks.
    pub runs: RunMetrics,
    /// Invoke latency histogram summary (p50/p99).
    pub invoke_latency: LatencyStats,
}

impl MetricsSnapshot {
    /// The snapshot as one JSON object, one nested object per field
    /// above. `unitsd stats` embeds it as its `engine` object.
    pub fn to_json(&self) -> Json {
        let section = |fields: &[(&'static str, u64)]| {
            Json::obj(fields.iter().map(|&(name, n)| (name, Json::from(n))))
        };
        let (cache, pool, recovery) = (&self.cache, &self.pool, &self.recovery);
        let (store, runs, lat) = (&self.store, &self.runs, &self.invoke_latency);
        Json::obj([
            (
                "cache",
                section(&[
                    ("source_hits", cache.source_hits),
                    ("misses", cache.misses),
                    ("evictions", cache.evictions),
                    ("parses", cache.parses),
                    ("entries", cache.entries as u64),
                ]),
            ),
            (
                "pool",
                section(&[
                    ("batches", pool.batches),
                    ("jobs", pool.jobs),
                    ("peak_workers", pool.peak_workers),
                ]),
            ),
            (
                "recovery",
                section(&[
                    ("fuel_retries", recovery.fuel_retries),
                    ("reference_fallbacks", recovery.reference_fallbacks),
                    ("recovered_runs", recovery.recovered_runs),
                    ("flight_dumps", recovery.flight_dumps),
                    ("flight_dump_failures", recovery.flight_dump_failures),
                ]),
            ),
            (
                "store",
                section(&[
                    ("hits", store.hits),
                    ("misses", store.misses),
                    ("corrupt", store.corrupt),
                    ("writes", store.writes),
                ]),
            ),
            (
                "runs",
                section(&[
                    ("total", runs.total),
                    ("failures", runs.failures),
                    ("fuel_total", runs.fuel_total),
                    ("fuel_max", runs.fuel_max),
                    ("store_cells_peak", runs.store_cells_peak),
                    ("cells_retained", runs.cells_retained),
                ]),
            ),
            (
                "invoke_latency",
                section(&[
                    ("count", lat.count),
                    ("min_ns", lat.min_ns),
                    ("max_ns", lat.max_ns),
                    ("mean_ns", lat.mean_ns),
                    ("p50_ns", lat.p50_ns),
                    ("p99_ns", lat.p99_ns),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_is_valid_and_carries_percentiles() {
        let metrics = EngineMetrics::default();
        metrics.note_run(Duration::from_micros(10), true);
        metrics.note_run(Duration::from_micros(20), false);
        metrics.note_machine(100, 7);
        metrics.note_machine(40, 9);
        metrics.note_retained(0);
        metrics.note_retained(2);
        metrics.note_batch(3, 2);
        let snap = metrics.snapshot(5);
        assert_eq!(snap.runs.total, 2);
        assert_eq!(snap.runs.failures, 1);
        assert_eq!(snap.runs.fuel_total, 140);
        assert_eq!(snap.runs.fuel_max, 100);
        assert_eq!(snap.runs.store_cells_peak, 9);
        assert_eq!(snap.runs.cells_retained, 2);
        assert_eq!(snap.pool.jobs, 3);
        assert_eq!(snap.invoke_latency.count, 2);
        assert!(snap.invoke_latency.p50_ns <= snap.invoke_latency.p99_ns);
        assert!(snap.invoke_latency.p99_ns <= snap.invoke_latency.max_ns);
        let json = snap.to_json();
        assert_eq!(units_trace::json::parse(&json.render()), Ok(json.clone()));
        let field = |section: &str, key: &str| json.get(section).and_then(|s| s.get_int(key));
        assert_eq!(field("invoke_latency", "p50_ns"), Some(snap.invoke_latency.p50_ns as i64));
        assert_eq!(field("invoke_latency", "p99_ns"), Some(snap.invoke_latency.p99_ns as i64));
        assert_eq!(field("cache", "entries"), Some(5));
        assert_eq!(field("cache", "parses"), Some(0));
        assert_eq!(field("store", "corrupt"), Some(0));
        assert_eq!(field("recovery", "flight_dump_failures"), Some(0));
        assert_eq!(field("runs", "fuel_total"), Some(140));
        assert_eq!(field("runs", "cells_retained"), Some(2));
        metrics.reset();
        assert_eq!(metrics.snapshot(0), MetricsSnapshot::default());
    }
}
