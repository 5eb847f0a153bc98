//! Engine sessions: cached artifacts, parallel checking, budgeted runs.
//!
//! An [`Engine`] is a long-lived session that owns a cache of checked and
//! slot-resolved unit artifacts. The cache is keyed by a hash of the
//! source text together with the [`CheckOptions`], so loading the same
//! source twice skips parsing, the Fig. 10/15/19 checks and the §4.1.6
//! resolution prepass, and every instantiation shares one compiled copy
//! of the code (the paper's "one copy of the code regardless of how many
//! times the unit is linked or invoked"). [`Engine::load_expr`] has no
//! source text to key by: it compiles a fresh artifact owned by the
//! handle it returns.
//!
//! Independent sources (top-level batches, [`Archive`] entries) run the
//! whole parse → check → resolve → lower pipeline in parallel on a
//! `std::thread` worker pool: the `Arc`-backed kernel terms are `Send`,
//! so workers admit finished artifacts directly into the shared cache —
//! exactly once per program — and the engine itself is `Send + Sync`,
//! so cached artifacts can also be *invoked* from many threads at once.
//! The `UNITS_ENGINE_THREADS` environment variable pins the pool size
//! (1 forces fully sequential, deterministic loading).
//!
//! # Owned handles
//!
//! [`Engine`] is a cheap, cloneable handle onto a shared session: clones
//! share one cache, one metrics plane, one policy. [`Loaded`] — what
//! [`Engine::load`] hands back — is *owned*: it holds the artifact by
//! `Arc` and the session by `Weak` reference, so it can be stored in a
//! struct, sent to another thread, or held across a cache eviction
//! without borrowing the engine. Running a `Loaded` whose engine has
//! been dropped fails with [`Error::SessionClosed`]; everything that
//! needs only the artifact (its type, its term, its disassembly) still
//! works. This is the shape a long-lived server needs: handles that
//! survive swaps, move across worker threads, and keep serving in-flight
//! requests on the artifact they captured.
//!
//! Execution is governed by [`Limits`]: fuel, evaluation depth, and
//! store-cell budgets all surface as [`Error::ResourceExhausted`] instead
//! of a panic or a stack overflow. [`Loaded::run_with`] overrides the
//! session budgets for one run — per-request admission control for a
//! multi-tenant caller — and [`Loaded::call_with`] does the same for a
//! program that evaluates to a procedure, applying it to an argument,
//! so a server loads a plug-in's call artifact once and calls it per
//! request.
//!
//! # The fault plane
//!
//! Every entry point — [`Engine::load`], [`Loaded::run_on`], and the
//! batch workers — sits behind an unwind boundary: a panic anywhere in
//! the pipeline (including one deliberately fired by an armed
//! [`units_trace::faults::FaultPlane`]) is caught and surfaced as
//! [`Error::Internal`] naming the stage, and the artifact a panicking
//! run was using is evicted from the cache. The session itself stays
//! usable. On top of that, [`FallbackPolicy`] adds graceful
//! degradation: bounded retries with escalated fuel when a budget runs
//! out, and — for compiled-backend faults — a clean re-run on the
//! Fig. 11 reference reducer, optionally diagnosed differentially.
//! [`Engine::last_recovery`] reports what the most recent run needed.
//!
//! # Example
//!
//! ```
//! use units::{Engine, Level, Limits, Observation};
//!
//! let engine = Engine::builder()
//!     .level(Level::Untyped)
//!     .limits(Limits::none().fuel(100_000))
//!     .build();
//! let source = "(define hello (unit (import) (export) (init (* 6 7))))
//!               (invoke hello)";
//! let outcome = engine.invoke(source)?;
//! assert_eq!(outcome.value, Observation::Int(42));
//! // A second invocation of the same source text is a cache hit.
//! engine.invoke(source)?;
//! assert_eq!(engine.cache_stats().hits, 1);
//! # Ok::<(), units::Error>(())
//! ```

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

use units_check::{check_program, CheckOptions, Level, Strictness};
use units_compile::{
    apply, evaluate_program, lower_program, resolve_program, Archive, ChunkProfile, FRAME_LAYOUT,
};
use units_kernel::{Expr, Ty};
use units_reduce::Reducer;
use units_runtime::{execute, vm, Chunk, Limits, Machine, Resource, RuntimeError, Value};
use units_store::{Lookup, Store};
use units_syntax::parse_file;
use units_trace::faults::FaultPlane;
use units_trace::{recorder, FlightDump};

use crate::error::Error;
use crate::metrics::{bump, EngineMetrics, MetricsSnapshot};
use crate::observe::{observe_expr, observe_value};
use crate::outcome::{Backend, Outcome};

/// The stack size for a thread that loads and runs programs: 8 MiB, the
/// main thread's default on Linux. Parsing, checking, resolution,
/// lowering, evaluation and dropping a term all recurse once per nesting
/// level, and [`units_syntax::MAX_NESTING`] bounds the levels; this size
/// runs a program nested at that cap on every backend in debug and
/// release builds. The batch pool's workers and `unitsd`'s connection
/// threads get it; a caller loading untrusted source on a thread of its
/// own should give that thread at least as much.
pub const PIPELINE_STACK_SIZE: usize = 8 << 20;

/// A checked (and, for the production backend, slot-resolved) program,
/// shared by every load of the same source text.
#[derive(Debug)]
struct Artifact {
    /// The parsed kernel term, as written.
    expr: Expr,
    /// The program's type at typed levels.
    ty: Option<Ty>,
    /// The lexical-address-resolved form the compiled backend runs.
    resolved: Option<Expr>,
    /// The flat-bytecode chunk the VM backend runs: lowered from the
    /// resolved form on the first bytecode run, then shared by every
    /// later run of this artifact, from any load of its source.
    chunk: OnceLock<Arc<Chunk>>,
}

impl Artifact {
    /// The term the compiled backend runs and the chunk is lowered from.
    fn resolved(&self) -> &Expr {
        self.resolved.as_ref().unwrap_or(&self.expr)
    }

    /// The bytecode chunk, lowering (and caching) it on first use.
    /// `OnceLock` makes concurrent first uses race benignly: one lowering
    /// wins, every thread shares the winner.
    fn chunk(&self) -> Arc<Chunk> {
        self.chunk
            .get_or_init(|| {
                let _timer = units_trace::time("lower");
                lower_program(self.resolved())
            })
            .clone()
    }
}

/// The artifact cache: one entry per source key
/// ([`EngineInner::source_key`]).
type Cache = HashMap<u64, Arc<Artifact>>;

/// Cache counters, for tests and dashboards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Loads satisfied from the cache by their source text.
    pub hits: u64,
    /// Loads that had to check and resolve from scratch.
    pub misses: u64,
    /// Distinct artifacts currently cached.
    pub entries: usize,
}

/// What the engine does about a failed run before giving up.
///
/// The default ([`FallbackPolicy::none`]) surfaces every failure as-is —
/// existing behavior, nothing re-runs. [`FallbackPolicy::reference`]
/// turns on graceful degradation: when a production backend — the
/// compiled tree-walker or the bytecode VM — faults
/// (caught panic, injected fault, exhausted budget), the engine re-runs
/// the program on the Fig. 11 reference reducer — with any armed fault
/// plane suspended, so the recovery itself is clean — and reports that
/// outcome instead. [`FallbackPolicy::fuel_retries`] independently adds
/// bounded re-runs with an escalated fuel budget when fuel runs out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FallbackPolicy {
    reference_fallback: bool,
    fuel_retries: u32,
    fuel_factor: u64,
    diagnose: bool,
}

impl Default for FallbackPolicy {
    fn default() -> FallbackPolicy {
        FallbackPolicy::none()
    }
}

impl FallbackPolicy {
    /// Report failures as-is: no fallback, no retries (the default).
    pub fn none() -> FallbackPolicy {
        FallbackPolicy {
            reference_fallback: false,
            fuel_retries: 0,
            fuel_factor: 2,
            diagnose: false,
        }
    }

    /// Fall back to the reference reducer on production-backend faults
    /// (compiled tree-walker or bytecode VM), with differential
    /// diagnosis of the divergence (in `trace` builds).
    pub fn reference() -> FallbackPolicy {
        FallbackPolicy { reference_fallback: true, fuel_retries: 0, fuel_factor: 2, diagnose: true }
    }

    /// Re-run up to `retries` times with the fuel budget multiplied by
    /// the escalation factor each time, when fuel is what ran out.
    pub fn fuel_retries(mut self, retries: u32) -> FallbackPolicy {
        self.fuel_retries = retries;
        self
    }

    /// Sets the fuel escalation factor (default 2, clamped to ≥ 2).
    pub fn fuel_factor(mut self, factor: u64) -> FallbackPolicy {
        self.fuel_factor = factor.max(2);
        self
    }

    /// Enables or disables the differential diagnosis re-run after a
    /// successful fallback. Only `trace` builds can honor it.
    pub fn diagnose(mut self, on: bool) -> FallbackPolicy {
        self.diagnose = on;
        self
    }
}

/// The engine's record of the most recent [`Loaded::run`] whose primary
/// attempt failed: what the failure was and what the
/// [`FallbackPolicy`] did about it. A run that succeeds outright
/// clears it ([`Engine::last_recovery`] returns `None`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// The primary failure, rendered. When retries changed the error
    /// (or exhausted without curing it), this is the final one.
    pub failure: String,
    /// Fuel-escalation re-runs performed.
    pub retries: u32,
    /// Whether the reference reducer produced the final outcome.
    pub fell_back: bool,
    /// The rendered differential-diagnosis report of the fallback,
    /// when the policy asked for one and the build carries the `trace`
    /// feature.
    pub divergence: Option<String>,
}

/// Configures and constructs an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    level: Level,
    strictness: Strictness,
    backend: Backend,
    limits: Limits,
    resolve: Option<bool>,
    threads: Option<usize>,
    policy: FallbackPolicy,
    worker_faults: Option<FaultPlane>,
    cache_dir: Option<PathBuf>,
}

impl Default for EngineBuilder {
    fn default() -> EngineBuilder {
        EngineBuilder {
            // UNITd: the facade checks statically only when a typed
            // level is asked for.
            level: Level::Untyped,
            strictness: Strictness::default(),
            backend: Backend::default(),
            limits: Limits::default(),
            resolve: None,
            threads: None,
            policy: FallbackPolicy::none(),
            worker_faults: None,
            cache_dir: None,
        }
    }
}

impl EngineBuilder {
    /// Selects the calculus to check against (default [`Level::Untyped`]).
    pub fn level(mut self, level: Level) -> EngineBuilder {
        self.level = level;
        self
    }

    /// Selects paper-strict or MzScheme-strict definition checking.
    pub fn strictness(mut self, strictness: Strictness) -> EngineBuilder {
        self.strictness = strictness;
        self
    }

    /// Selects the default backend for [`Loaded::run`].
    pub fn backend(mut self, backend: Backend) -> EngineBuilder {
        self.backend = backend;
        self
    }

    /// Sets the resource budgets every run is governed by.
    pub fn limits(mut self, limits: Limits) -> EngineBuilder {
        self.limits = limits;
        self
    }

    /// Enables or disables the lexical-address resolution prepass
    /// (`units_compile::resolve_program`). On by default.
    pub fn resolution(mut self, on: bool) -> EngineBuilder {
        self.resolve = Some(on);
        self
    }

    /// Sets the checking worker-pool size. Defaults to the available
    /// parallelism (capped at 8); the `UNITS_ENGINE_THREADS` environment
    /// variable overrides both.
    pub fn threads(mut self, threads: usize) -> EngineBuilder {
        self.threads = Some(threads.max(1));
        self
    }

    /// Sets what runs do about failure — retries and reference-reducer
    /// fallback (default: [`FallbackPolicy::none`], report as-is).
    pub fn on_failure(mut self, policy: FallbackPolicy) -> EngineBuilder {
        self.policy = policy;
        self
    }

    /// Arms a copy of `plane` inside every batch worker job — covering
    /// the job's whole parse → check → resolve → lower pipeline —
    /// reseeded with `plane.seed() ^ job-index` so each job's fault
    /// schedule is deterministic regardless of which worker thread runs
    /// it. (The thread-local plane armed by
    /// [`units_trace::faults::arm`] only covers the calling thread;
    /// this is how a chaos harness reaches the pool.) A no-op schedule
    /// in builds without the `faults` feature.
    pub fn worker_faults(mut self, plane: FaultPlane) -> EngineBuilder {
        self.worker_faults = Some(plane);
        self
    }

    /// Points the engine at a persistent on-disk artifact cache
    /// (`units_store::Store`). Loads that miss the in-memory cache probe
    /// the directory before parsing; fresh admissions are written back
    /// through, so a later engine — including one in a different
    /// process — warm-starts with zero re-parses. Every store failure
    /// (unusable directory, corrupt entry, contended write lock) degrades
    /// to the in-memory-only behaviour of an engine built without this
    /// call; it never surfaces as an [`Error`].
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> EngineBuilder {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Builds the engine.
    pub fn build(self) -> Engine {
        let threads = match std::env::var("UNITS_ENGINE_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            Some(n) if n >= 1 => n,
            _ => self.threads.unwrap_or_else(default_threads),
        };
        let opts = CheckOptions { level: self.level, strictness: self.strictness };
        let resolve = self.resolve.unwrap_or(true);
        let store = self.cache_dir.as_ref().and_then(|dir| {
            // The fingerprint binds on-disk entries to this engine
            // configuration — the same ingredients `source_key` folds in,
            // minus the source itself — and to the frame layout the
            // stored resolved terms address. (`DefaultHasher::new` is
            // keyless and deterministic, so fingerprints agree across
            // processes of the same build; cross-build skew is caught by
            // the store's version stamp.)
            let mut h = DefaultHasher::new();
            opts.hash(&mut h);
            resolve.hash(&mut h);
            FRAME_LAYOUT.hash(&mut h);
            match Store::open(dir, h.finish()) {
                Ok(store) => {
                    if !store.writable() {
                        units_trace::emit(
                            units_trace::Phase::Engine,
                            "engine/store_readonly",
                            None,
                            || format!("{}: write lock held elsewhere", dir.display()),
                            &[],
                        );
                    }
                    Some(store)
                }
                Err(e) => {
                    // Unusable directory: warn and run in-memory-only.
                    units_trace::emit(
                        units_trace::Phase::Engine,
                        "engine/store_unavailable",
                        None,
                        || format!("{}: {e}", dir.display()),
                        &[("engine/store_unavailable", 1)],
                    );
                    None
                }
            }
        });
        Engine {
            inner: Arc::new(EngineInner {
                opts,
                backend: self.backend,
                limits: self.limits,
                resolve,
                threads,
                policy: self.policy,
                worker_faults: self.worker_faults,
                store,
                cache: Mutex::new(Cache::default()),
                metrics: EngineMetrics::default(),
                recovery: Mutex::new(None),
                flight: Mutex::new(None),
            }),
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get().min(8)).unwrap_or(1)
}

/// A session that checks, caches, and runs programs.
///
/// An `Engine` is a cheap handle onto shared session state: cloning it
/// clones an `Arc`, and every clone sees the same artifact cache,
/// metrics plane, recovery record, and policy. Engines are
/// `Send + Sync`: the cache, metrics, and recovery records all sit
/// behind locks or atomics, and the `Arc`-backed kernel terms let one
/// cached artifact serve loads and runs from any number of threads
/// simultaneously (the §4.1.6 "one copy of the code", process-wide).
/// See the [module documentation](self) for the full story.
#[derive(Debug, Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

/// The shared state behind every [`Engine`] clone and (weakly) behind
/// every [`Loaded`] handle.
#[derive(Debug)]
struct EngineInner {
    opts: CheckOptions,
    backend: Backend,
    limits: Limits,
    resolve: bool,
    threads: usize,
    policy: FallbackPolicy,
    worker_faults: Option<FaultPlane>,
    /// The persistent artifact store, when the builder was given a
    /// `cache_dir` and the directory was usable.
    store: Option<Store>,
    cache: Mutex<Cache>,
    metrics: EngineMetrics,
    recovery: Mutex<Option<Recovery>>,
    flight: Mutex<Option<FlightDump>>,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::builder().build()
    }
}

/// Renders a caught panic payload (`&str` and `String` are what `panic!`
/// produces; anything else is opaque).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast_ref::<&str>() {
        Some(s) => (*s).to_string(),
        None => match payload.downcast_ref::<String>() {
            Some(s) => s.clone(),
            None => "non-string panic payload".to_string(),
        },
    }
}

/// Runs `f` behind an unwind boundary: a panic anywhere in the pipeline
/// becomes [`Error::Internal`] naming the stage, and the session stays
/// usable.
fn guard<R>(stage: &'static str, f: impl FnOnce() -> Result<R, Error>) -> Result<R, Error> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => {
            units_trace::count("engine/caught_panics", 1);
            Err(Error::Internal { stage, message: panic_message(payload) })
        }
    }
}

impl Engine {
    /// Starts configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// An engine with all defaults (untyped, compiled backend, no limits).
    pub fn new() -> Engine {
        Engine::default()
    }

    /// The level programs are checked at.
    pub fn level(&self) -> Level {
        self.inner.opts.level
    }

    /// The default backend [`Loaded::run`] uses.
    pub fn backend(&self) -> Backend {
        self.inner.backend
    }

    /// The resource budgets every run is governed by.
    pub fn limits(&self) -> Limits {
        self.inner.limits
    }

    /// The checking worker-pool size.
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// The failure-handling policy every run is governed by.
    pub fn fallback_policy(&self) -> FallbackPolicy {
        self.inner.policy
    }

    /// The [`Recovery`] record of the most recent run whose primary
    /// attempt failed — `None` when the most recent run succeeded
    /// outright (or nothing has run yet).
    pub fn last_recovery(&self) -> Option<Recovery> {
        self.inner.recovery.lock().unwrap().clone()
    }

    /// Cache hit/miss counters and current entry count.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.inner.metrics.source_hits.load(Relaxed),
            misses: self.inner.metrics.misses.load(Relaxed),
            entries: self.inner.cache_entries(),
        }
    }

    /// A structured snapshot of the engine's always-on metrics plane:
    /// cache hits, misses and evictions, worker-pool activity, recovery
    /// actions by policy stage, run totals with fuel and store-cell
    /// high-water marks, and invoke latency percentiles (p50/p99 from
    /// log₂-ns histogram buckets). Available in every build — only the
    /// flight-dump count needs the `trace` feature to be nonzero.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot(self.inner.cache_entries())
    }

    /// Zeroes the metrics plane. Cache contents, recovery records, and
    /// flight dumps are untouched — this resets the counters, not the
    /// session.
    pub fn metrics_reset(&self) {
        self.inner.metrics.reset();
    }

    /// The most recent flight-recorder post-mortem this engine captured
    /// (when a run surfaced [`Error::Internal`], an injected fault, or
    /// [`Error::ResourceExhausted`]). Always `None` without the `trace`
    /// feature — the recorder compiles to a no-op there.
    pub fn last_flight_dump(&self) -> Option<FlightDump> {
        self.inner.flight.lock().unwrap().clone()
    }

    /// Wraps an artifact in an owned handle tied (weakly) to this session.
    fn handle(&self, artifact: Arc<Artifact>) -> Loaded {
        Loaded { engine: Arc::downgrade(&self.inner), artifact }
    }

    /// Parses, checks, and resolves `source` — or retrieves the cached
    /// artifact if the same source text was loaded before under the
    /// same options.
    ///
    /// # Errors
    ///
    /// [`Error::Parse`] or [`Error::Check`]; never a runtime error
    /// (nothing is evaluated yet). A panic inside parsing, checking, or
    /// resolution is caught here and surfaces as [`Error::Internal`].
    pub fn load(&self, source: &str) -> Result<Loaded, Error> {
        recorder::ensure(recorder::DEFAULT_CAPACITY);
        let result = guard("load", || self.inner.load_uncached(source));
        match result {
            Ok(artifact) => Ok(self.handle(artifact)),
            Err(err) => {
                self.inner.flight_on_fault(&err);
                Err(err)
            }
        }
    }

    /// Checks and resolves an already-built expression (no parsing)
    /// into an artifact the returned handle alone owns: there is no
    /// source text to key the cache by, so nothing is cached and every
    /// call counts one miss. A caller that runs the expression again
    /// keeps the handle.
    ///
    /// # Errors
    ///
    /// [`Error::Check`] when the expression does not check.
    pub fn load_expr(&self, expr: Expr) -> Result<Loaded, Error> {
        recorder::ensure(recorder::DEFAULT_CAPACITY);
        let inner = &self.inner;
        let result = guard("load", || {
            let artifact = inner.compile(expr)?;
            bump(&inner.metrics.misses);
            Ok(Arc::new(artifact))
        });
        match result {
            Ok(artifact) => Ok(self.handle(artifact)),
            Err(err) => {
                inner.flight_on_fault(&err);
                Err(err)
            }
        }
    }

    /// [`load`](Engine::load) followed by [`Loaded::run`]: the one-call
    /// parse → check → evaluate pipeline.
    ///
    /// # Errors
    ///
    /// Any load or runtime error.
    pub fn invoke(&self, source: &str) -> Result<Outcome, Error> {
        self.load(source)?.run()
    }

    /// Loads many independent sources, running the full
    /// parse → check → resolve (→ lower, on the bytecode backend)
    /// pipeline for cache misses in parallel on the engine's worker
    /// pool. Accepts anything iterable over string-like items — a
    /// `&[&str]`, a `Vec<String>`, an iterator of `String`s — and
    /// returns one `Result<Loaded, Error>` per source, in input order;
    /// workers admit `Arc`-shared artifacts into the same cache as
    /// [`Engine::load`], exactly once per distinct program — nothing is
    /// parsed twice.
    ///
    /// With one thread (or one job) this degenerates to sequential
    /// [`Engine::load`] calls — the `UNITS_ENGINE_THREADS=1` determinism
    /// mode.
    ///
    /// ```
    /// use units::{Engine, Observation};
    ///
    /// let engine = Engine::new();
    /// let sources: Vec<String> = (1..=3)
    ///     .map(|n| format!("(invoke (unit (import) (export) (init {n})))"))
    ///     .collect();
    /// // One result per source, in input order.
    /// let results: Vec<Result<units::Loaded, units::Error>> =
    ///     engine.load_batch(&sources);
    /// assert_eq!(results.len(), 3);
    /// assert_eq!(results[2].as_ref().unwrap().run()?.value, Observation::Int(3));
    /// # Ok::<(), units::Error>(())
    /// ```
    pub fn load_batch<I>(&self, sources: I) -> Vec<Result<Loaded, Error>>
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let owned: Vec<I::Item> = sources.into_iter().collect();
        let refs: Vec<&str> = owned.iter().map(AsRef::as_ref).collect();
        self.load_batch_refs(&refs)
    }

    /// The monomorphic batch pipeline behind [`Engine::load_batch`].
    fn load_batch_refs(&self, sources: &[&str]) -> Vec<Result<Loaded, Error>> {
        recorder::ensure(recorder::DEFAULT_CAPACITY);
        let inner = &self.inner;
        // One job per distinct uncached source; repeats and warm entries
        // resolve as plain cache hits in the collection pass below.
        let mut seen = HashSet::new();
        let jobs: Vec<(usize, &str)> = {
            let cache = inner.cache.lock().unwrap();
            sources
                .iter()
                .enumerate()
                .filter(|(_, s)| {
                    let key = inner.source_key(s);
                    seen.insert(key) && !cache.contains_key(&key)
                })
                .map(|(i, s)| (i, *s))
                .collect()
        };
        let workers = inner.threads.min(jobs.len());
        if workers <= 1 {
            return sources.iter().map(|s| self.load(s)).collect();
        }
        inner.metrics.note_batch(jobs.len() as u64, workers as u64);
        units_trace::count("engine/pool_workers", workers as u64);
        let queue = Mutex::new(jobs);
        let done: Mutex<HashMap<usize, Result<Arc<Artifact>, Error>>> =
            Mutex::new(HashMap::new());
        let worker_faults = &inner.worker_faults;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let worker = std::thread::Builder::new().stack_size(PIPELINE_STACK_SIZE);
                let spawned = worker.spawn_scoped(scope, || loop {
                    let Some((idx, src)) = queue.lock().unwrap().pop() else { break };
                    if let Some(plane) = worker_faults {
                        // Reseed per job, not per worker: the schedule
                        // each source sees is then a function of the
                        // job alone, not of thread scheduling.
                        units_trace::faults::arm(
                            plane.clone().reseeded(plane.seed() ^ (idx as u64 + 1)),
                        );
                    }
                    // The unwind boundary lives *inside* the worker
                    // loop: a panicking pipeline fails one job, not the
                    // pool (and never poisons the queue/result locks,
                    // which are released while the pipeline runs).
                    let result = guard("batch-load", || {
                        let artifact = inner.load_uncached(src)?;
                        if inner.backend == Backend::Bytecode {
                            // Lower eagerly on the worker so the batch
                            // hands back run-ready artifacts; the
                            // `OnceLock` dedupes against any concurrent
                            // run lowering the same chunk.
                            let _ = artifact.chunk();
                        }
                        Ok(artifact)
                    });
                    units_trace::faults::disarm();
                    done.lock().unwrap().insert(idx, result);
                });
                spawned.expect("the batch pool spawns its workers");
            }
        });
        let mut done = done.into_inner().unwrap();
        sources
            .iter()
            .enumerate()
            .map(|(i, source)| match done.remove(&i) {
                Some(Ok(artifact)) => Ok(self.handle(artifact)),
                Some(Err(err)) => {
                    inner.flight_on_fault(&err);
                    Err(err)
                }
                // A duplicate of some job, or cached before the batch
                // started: a plain (hitting) load.
                None => self.load(source),
            })
            .collect()
    }

    /// Loads every entry of an [`Archive`] (in name order) through
    /// [`Engine::load_batch`]. Returns `(name, result)` pairs — one per
    /// archive entry, in the archive's name order.
    pub fn load_archive(&self, archive: &Archive) -> Vec<(String, Result<Loaded, Error>)> {
        // `names()` comes from the archive's own key set, so every
        // lookup succeeds; `filter_map` keeps the name/source pairing
        // aligned without an `expect` on that invariant.
        let (names, sources): (Vec<&str>, Vec<&str>) = archive
            .names()
            .into_iter()
            .filter_map(|n| archive.get(n).map(|s| (n, s)))
            .unzip();
        let loaded = self.load_batch_refs(&sources);
        names.into_iter().map(String::from).zip(loaded).collect()
    }
}

impl EngineInner {
    /// Captures a flight dump when `err` indicts the machinery rather
    /// than the program (the same classification recovery uses), naming
    /// the failure in the dump's reason line. Set `UNITS_FLIGHT_DUMP=
    /// <path>` to also write the JSON lines to a file, best-effort.
    fn flight_on_fault(&self, err: &Error) {
        let machinery = err.as_internal().is_some()
            || err.is_injected()
            || err.as_resource_exhausted().is_some();
        if !machinery {
            return;
        }
        let Some(dump) = recorder::dump(&err.to_string()) else { return };
        bump(&self.metrics.flight_dumps);
        if let Ok(path) = std::env::var("UNITS_FLIGHT_DUMP") {
            if !path.is_empty() {
                if let Err(e) = std::fs::write(&path, &dump.json_lines) {
                    // Best-effort, but never silent: a post-mortem that
                    // failed to land on disk is itself an observable
                    // event (the in-memory dump below still survives).
                    bump(&self.metrics.flight_dump_failures);
                    units_trace::emit(
                        units_trace::Phase::Engine,
                        "engine/flight_dump_failed",
                        None,
                        || format!("{path}: {e}"),
                        &[("engine/flight_dump_failures", 1)],
                    );
                }
            }
        }
        *self.flight.lock().unwrap() = Some(dump);
    }

    fn cache_entries(&self) -> usize {
        self.cache.lock().unwrap().len()
    }

    fn source_key(&self, source: &str) -> u64 {
        let mut h = DefaultHasher::new();
        source.hash(&mut h);
        self.opts.hash(&mut h);
        self.resolve.hash(&mut h);
        h.finish()
    }

    /// Drops `artifact` from the cache. A run that panicked says nothing
    /// about how far it got before dying, so the artifact it was running
    /// is invalidated rather than trusted on the next load. Handles keep
    /// the artifact they own.
    fn evict_artifact(&self, artifact: &Arc<Artifact>) {
        let mut cache = self.cache.lock().unwrap();
        let before = cache.len();
        cache.retain(|_, a| !Arc::ptr_eq(a, artifact));
        if cache.len() < before {
            bump(&self.metrics.evictions);
        }
    }

    /// Checks and resolves `expr` from scratch, into an artifact nothing
    /// caches yet.
    fn compile(&self, expr: Expr) -> Result<Artifact, Error> {
        let ty = check_program(&expr, self.opts)?;
        let resolved = if self.resolve { Some(resolve_program(&expr)) } else { None };
        Ok(Artifact { expr, ty, resolved, chunk: OnceLock::new() })
    }

    /// Caches `artifact` under `skey`. `compiled_from` is the source a
    /// fresh compile came from; a store hit passes `None`.
    ///
    /// Building an artifact runs outside the cache lock — it is the
    /// expensive part and perfectly parallel. Under the lock the key is
    /// checked again, so when threads race on one source exactly one
    /// artifact is admitted and every loser shares it, counted as a hit
    /// because that is what it observed. Only a fresh compile that wins
    /// counts a miss and writes through to the store.
    fn admit(&self, skey: u64, artifact: Artifact, compiled_from: Option<&str>) -> Arc<Artifact> {
        let mut cache = self.cache.lock().unwrap();
        if let Some(found) = cache.get(&skey).cloned() {
            drop(cache);
            bump(&self.metrics.source_hits);
            return found;
        }
        let artifact = Arc::new(artifact);
        cache.insert(skey, artifact.clone());
        drop(cache);
        if let Some(source) = compiled_from {
            bump(&self.metrics.misses);
            self.store_write(skey, source, &artifact);
        }
        artifact
    }

    /// Probes the persistent store for `source`, rebuilding the artifact
    /// of a verified entry. `None` on any miss — including corruption,
    /// which is quarantined and counted but never an error.
    fn store_probe(&self, skey: u64, source: &str) -> Option<Artifact> {
        let store = self.store.as_ref()?;
        match store.read(skey, source) {
            Lookup::Hit(entry) => {
                bump(&self.metrics.store_hits);
                let entry = *entry;
                let chunk = OnceLock::new();
                if let Some(lowered) = entry.chunk {
                    let _ = chunk.set(Arc::new(lowered));
                }
                Some(Artifact { expr: entry.expr, ty: entry.ty, resolved: entry.resolved, chunk })
            }
            Lookup::Miss => {
                bump(&self.metrics.store_misses);
                None
            }
            Lookup::Corrupt => {
                // Quarantined by the store; for the engine it is a miss
                // with a cause worth counting separately.
                bump(&self.metrics.store_corrupt);
                bump(&self.metrics.store_misses);
                None
            }
        }
    }

    /// Writes a freshly admitted artifact through to the persistent
    /// store, best-effort. On the bytecode backend the chunk is lowered
    /// first so a warm-started process gets run-ready artifacts.
    fn store_write(&self, skey: u64, source: &str, artifact: &Arc<Artifact>) {
        let Some(store) = self.store.as_ref() else { return };
        if !store.writable() {
            return;
        }
        if self.backend == Backend::Bytecode {
            let _ = artifact.chunk();
        }
        let entry = units_store::Entry {
            expr: artifact.expr.clone(),
            ty: artifact.ty.clone(),
            resolved: artifact.resolved.clone(),
            chunk: artifact.chunk.get().map(|c| (**c).clone()),
        };
        if store.write(skey, source, &entry) {
            bump(&self.metrics.store_writes);
        }
    }

    /// The un-guarded load pipeline: the cache probe, the store probe,
    /// then parse → check → resolve → admit. Shared by [`Engine::load`]
    /// and the batch workers — both run the *same* code, the only
    /// difference is which unwind boundary and fault plane wraps it.
    fn load_uncached(&self, source: &str) -> Result<Arc<Artifact>, Error> {
        let skey = self.source_key(source);
        if let Some(artifact) = self.cache.lock().unwrap().get(&skey).cloned() {
            bump(&self.metrics.source_hits);
            return Ok(artifact);
        }
        // The persistent store sits between the in-memory probe and the
        // parser: a verified disk entry skips parse, check, resolve, and
        // (when the writer lowered) the bytecode lowering too.
        if let Some(artifact) = self.store_probe(skey, source) {
            return Ok(self.admit(skey, artifact, None));
        }
        bump(&self.metrics.parses);
        let artifact = self.compile(parse_file(source)?)?;
        Ok(self.admit(skey, artifact, Some(source)))
    }

    /// One governed run of `artifact`: unwind boundary, recovery policy,
    /// latency accounting. `limits` is the budget for this run — the
    /// session default from [`Loaded::run_on`], or a per-request
    /// override from [`Loaded::run_with`]. With `arg`, the program's
    /// value is then applied to `Int(arg)` ([`Loaded::call_with`]).
    fn run_artifact(
        &self,
        artifact: &Arc<Artifact>,
        backend: Backend,
        limits: Limits,
        arg: Option<i64>,
    ) -> Result<Outcome, Error> {
        // Trace builds keep a flight-recorder ring rolling on the run
        // path so a failure below can produce a post-mortem.
        recorder::ensure(recorder::DEFAULT_CAPACITY);
        let start = Instant::now();
        *self.recovery.lock().unwrap() = None;
        let result = match self.run_raw(artifact, backend, limits, arg) {
            Ok(outcome) => Ok(outcome),
            Err(err) => self.recover(artifact, backend, limits, arg, err),
        };
        // Latency covers the whole journey, recovery included — that is
        // what a caller of `run_on` actually waited.
        self.metrics.note_run(start.elapsed(), result.is_ok());
        result
    }

    /// One un-recovered run: the three backends behind the unwind
    /// boundary. With `arg`, the program's value is applied to
    /// `Int(arg)` on the same machine, so fuel, cells, and output cover
    /// both halves. A compiled run's store is reclaimed once its value
    /// has been observed and dropped; a panicking run's machine reclaims
    /// as the unwind drops it.
    fn run_raw(
        &self,
        artifact: &Arc<Artifact>,
        backend: Backend,
        limits: Limits,
        arg: Option<i64>,
    ) -> Result<Outcome, Error> {
        guard("run", || match backend {
            Backend::Compiled => {
                let _timer = units_trace::time("eval");
                let mut machine = Machine::with_limits(limits);
                let expr = artifact.resolved();
                // Account fuel and cells before `?` so even failed runs
                // (e.g. budget exhaustion) land in the metrics plane.
                let value = evaluate_program(expr, &mut machine).and_then(|f| match arg {
                    Some(n) => apply(f, vec![Value::Int(n)], &mut machine),
                    None => Ok(f),
                });
                self.note_machine(&machine);
                self.observed(value, machine)
            }
            Backend::Bytecode => {
                let chunk = artifact.chunk();
                let _timer = units_trace::time("eval");
                let mut machine = Machine::with_limits(limits);
                let value = execute(&chunk, &mut machine).and_then(|f| match arg {
                    Some(n) => vm::apply(f, vec![Value::Int(n)], &mut machine),
                    None => Ok(f),
                });
                self.note_machine(&machine);
                self.observed(value, machine)
            }
            Backend::Reducer => {
                let mut reducer = Reducer::with_limits(limits);
                let value = match arg {
                    Some(n) => {
                        reducer.reduce_owned(Expr::app(artifact.expr.clone(), vec![Expr::int(n)]))
                    }
                    None => reducer.reduce_to_value(&artifact.expr),
                };
                self.note_machine(&reducer.machine);
                let value = value?;
                Ok(Outcome { value: observe_expr(&value), output: reducer.machine.take_output() })
            }
        })
    }

    /// Folds one finished machine's fuel and store-cell usage into the
    /// engine metrics.
    fn note_machine(&self, machine: &Machine) {
        self.metrics.note_machine(machine.steps_taken(), machine.cells_allocated());
    }

    /// A compiled run's outcome: its value observed, then dropped, then
    /// the run's store reclaimed, counting any cell still referenced.
    fn observed(
        &self,
        value: Result<Value, RuntimeError>,
        mut machine: Machine,
    ) -> Result<Outcome, Error> {
        let outcome = value.map(|value| Outcome {
            value: observe_value(&value),
            output: machine.take_output(),
        });
        self.metrics.note_retained(machine.reclaim());
        Ok(outcome?)
    }

    /// The failure path of [`run_artifact`](EngineInner::run_artifact):
    /// evict the artifact after a panic, then apply the engine's
    /// [`FallbackPolicy`] — bounded fuel-escalation re-runs when fuel
    /// ran out, then a clean reference-reducer re-run for
    /// compiled-backend faults — recording the journey for
    /// [`Engine::last_recovery`]. `limits` is the budget the failed run
    /// was governed by; retries and fallbacks stay within it (except
    /// for the deliberate fuel escalation).
    fn recover(
        &self,
        artifact: &Arc<Artifact>,
        backend: Backend,
        limits: Limits,
        arg: Option<i64>,
        mut err: Error,
    ) -> Result<Outcome, Error> {
        if err.as_internal().is_some() {
            self.evict_artifact(artifact);
        }
        // Post-mortem first, while the ring still ends at the failure:
        // the retries below will append their own (re-run) events.
        self.flight_on_fault(&err);
        let policy = self.policy;
        let mut recovery =
            Recovery { failure: err.to_string(), retries: 0, fell_back: false, divergence: None };
        // Escalating fuel cures a program that merely outgrew its
        // budget; a genuinely diverging one fails again, still typed.
        if policy.fuel_retries > 0 {
            if let Some((Resource::Fuel, limit)) = err.as_resource_exhausted() {
                let mut fuel = limit;
                while recovery.retries < policy.fuel_retries {
                    recovery.retries += 1;
                    fuel = fuel.saturating_mul(policy.fuel_factor);
                    crate::metrics::bump(&self.metrics.fuel_retries);
                    let mut escalated = limits;
                    escalated.fuel = Some(fuel);
                    match self.run_raw(artifact, backend, escalated, arg) {
                        Ok(outcome) => {
                            crate::metrics::bump(&self.metrics.recovered_runs);
                            *self.recovery.lock().unwrap() = Some(recovery);
                            return Ok(outcome);
                        }
                        Err(e) => {
                            let still_fuel =
                                matches!(e.as_resource_exhausted(), Some((Resource::Fuel, _)));
                            err = e;
                            recovery.failure = err.to_string();
                            if !still_fuel {
                                break;
                            }
                        }
                    }
                }
            }
        }
        // Graceful degradation, only for failures that indict the
        // backend (caught panic, injected fault, exhausted budget) —
        // a program's own deterministic error is its answer, and
        // re-running could not change it.
        let backend_fault = err.as_internal().is_some()
            || err.is_injected()
            || err.as_resource_exhausted().is_some();
        if policy.reference_fallback && backend != Backend::Reducer && backend_fault {
            crate::metrics::bump(&self.metrics.fallbacks);
            // The fault plane stays suspended for the re-run: recovery
            // must not itself be a fault target.
            let fallback = units_trace::faults::pause(|| {
                self.run_raw(artifact, Backend::Reducer, limits, arg)
            });
            if let Ok(outcome) = fallback {
                crate::metrics::bump(&self.metrics.recovered_runs);
                recovery.fell_back = true;
                recovery.divergence = self.diagnose(artifact, &policy, backend, limits, arg);
                *self.recovery.lock().unwrap() = Some(recovery);
                return Ok(outcome);
            }
        }
        *self.recovery.lock().unwrap() = Some(recovery);
        Err(err)
    }

    /// Re-runs the program differentially and renders where the
    /// backends part ways — the "report both verdicts" half of a
    /// fallback. `None` when the policy does not ask for it or the
    /// build lacks the `trace` feature (event capture is how the
    /// backends are compared).
    #[cfg_attr(not(feature = "trace"), allow(clippy::unused_self))]
    fn diagnose(
        &self,
        artifact: &Arc<Artifact>,
        policy: &FallbackPolicy,
        backend: Backend,
        limits: Limits,
        arg: Option<i64>,
    ) -> Option<String> {
        #[cfg(feature = "trace")]
        if policy.diagnose {
            let report = units_trace::faults::pause(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    crate::observe::diagnose_divergence_with(backend, |b| {
                        self.run_raw(artifact, b, limits, arg)
                    })
                    .to_string()
                }))
            });
            return Some(report.unwrap_or_else(|payload| {
                format!("diagnosis itself panicked: {}", panic_message(payload))
            }));
        }
        #[cfg(not(feature = "trace"))]
        let _ = (artifact, policy, backend, limits, arg);
        None
    }
}

/// A checked program — an owned, thread-safe handle, ready to run under
/// the engine's limits.
///
/// Produced by [`Engine::load`] and [`Engine::load_expr`]. The handle
/// owns the artifact by `Arc` (shared, for a [`Engine::load`], with the
/// session cache and every other load of the same source text) and
/// holds the session by `Weak` reference, so it can be cloned, stored,
/// and sent across threads freely; it neither keeps the engine alive
/// nor borrows it. Running a handle whose engine has
/// been dropped fails with [`Error::SessionClosed`]; methods that only
/// inspect the artifact keep working forever.
#[derive(Debug, Clone)]
pub struct Loaded {
    engine: Weak<EngineInner>,
    artifact: Arc<Artifact>,
}

impl Loaded {
    /// The live session behind this handle, or [`Error::SessionClosed`].
    fn session(&self) -> Result<Arc<EngineInner>, Error> {
        self.engine.upgrade().ok_or(Error::SessionClosed)
    }

    /// Whether the engine behind this handle is still alive. Artifact
    /// inspection works either way; running needs a live session.
    pub fn session_alive(&self) -> bool {
        self.engine.strong_count() > 0
    }

    /// The program's type at typed levels (`None` at UNITd).
    pub fn ty(&self) -> Option<&Ty> {
        self.artifact.ty.as_ref()
    }

    /// The parsed kernel term.
    pub fn expr(&self) -> &Expr {
        &self.artifact.expr
    }

    /// The term the compiled backend runs and the bytecode chunk is
    /// lowered from: the lexical-address-resolved form, or the parsed
    /// term when resolution is off. Its `compound` nodes carry the link
    /// plans every run of this artifact shares.
    pub fn resolved(&self) -> &Expr {
        self.artifact.resolved()
    }

    /// The program's flat-bytecode listing — opcode, operands, and
    /// const-pool references, one instruction per line — lowering (and
    /// caching) the chunk if no bytecode run has happened yet.
    pub fn disassemble(&self) -> String {
        units_runtime::disassemble(&self.artifact.chunk())
    }

    /// [`Loaded::disassemble`] annotated with the bytecode profiler's
    /// per-op execution counts and fuel attribution. Counts accumulate
    /// across bytecode runs of this (cached, shared) chunk in `trace`
    /// builds; elsewhere the header explains they are unavailable.
    pub fn disassemble_profiled(&self) -> String {
        units_runtime::disassemble_profiled(&self.artifact.chunk())
    }

    /// A structured snapshot of the chunk's profiler counters — totals,
    /// per-op counts, and the hottest mnemonics.
    pub fn chunk_profile(&self) -> ChunkProfile {
        ChunkProfile::capture(&self.artifact.chunk())
    }

    /// Zeroes the chunk's profiler counters (the chunk is shared by
    /// every load of this program, so counts otherwise accumulate).
    pub fn profile_reset(&self) {
        self.artifact.chunk().profile.reset();
    }

    /// Runs on the engine's default backend.
    ///
    /// # Errors
    ///
    /// Any runtime error; budget exhaustion surfaces as
    /// [`Error::ResourceExhausted`], and a dropped engine as
    /// [`Error::SessionClosed`].
    pub fn run(&self) -> Result<Outcome, Error> {
        let inner = self.session()?;
        let backend = inner.backend;
        let limits = inner.limits;
        inner.run_artifact(&self.artifact, backend, limits, None)
    }

    /// Runs on a specific backend under the engine's [`Limits`].
    ///
    /// The compiled backend evaluates the cached resolved term in place —
    /// every instantiation shares the one compiled copy (§4.1.6); the
    /// reducer works on the substitution semantics of Fig. 11.
    ///
    /// A panic anywhere in evaluation is caught here and surfaces as
    /// [`Error::Internal`] (the artifact is also dropped from the
    /// cache). When the engine's [`FallbackPolicy`] allows it, a failed
    /// run is retried with escalated fuel and/or re-run on the
    /// reference reducer before the error is reported;
    /// [`Engine::last_recovery`] tells what happened.
    ///
    /// # Errors
    ///
    /// As for [`Loaded::run`].
    pub fn run_on(&self, backend: Backend) -> Result<Outcome, Error> {
        let inner = self.session()?;
        let limits = inner.limits;
        inner.run_artifact(&self.artifact, backend, limits, None)
    }

    /// Runs on a specific backend under *these* [`Limits`] instead of
    /// the session defaults — the per-request budget override a
    /// multi-tenant server applies after admission control. The full
    /// recovery machinery (fuel retries, reference fallback) operates
    /// relative to the given limits.
    ///
    /// # Errors
    ///
    /// As for [`Loaded::run`].
    pub fn run_with(&self, backend: Backend, limits: Limits) -> Result<Outcome, Error> {
        let inner = self.session()?;
        inner.run_artifact(&self.artifact, backend, limits, None)
    }

    /// Runs the program to a value and applies that value to
    /// `Int(arg)`, as one governed run on `backend` under `limits` — the
    /// same unwind boundary, metrics, flight dump, and recovery policy
    /// as [`Loaded::run_with`]. A program that evaluates to a procedure
    /// is checked and resolved once, then called with any number of
    /// arguments without another load: no term to build, hash, or look
    /// up per call. The compiled backend applies through
    /// `units_compile::apply`, the bytecode backend through
    /// `units_runtime::vm::apply`, and the reducer reduces
    /// `(program arg)`.
    ///
    /// # Errors
    ///
    /// As for [`Loaded::run`]; a value that is not a one-argument
    /// procedure fails like the application `(program arg)` would.
    pub fn call_with(&self, backend: Backend, limits: Limits, arg: i64) -> Result<Outcome, Error> {
        let inner = self.session()?;
        inner.run_artifact(&self.artifact, backend, limits, Some(arg))
    }

    /// Runs on *all three* backends and asserts they agree — the
    /// executable form of the paper's implementation-correctness claim,
    /// under the engine's limits and cache. Returns the common outcome.
    ///
    /// # Errors
    ///
    /// When every backend fails, the compiled backend's error (the
    /// program's own answer on the default semantics).
    ///
    /// # Panics
    ///
    /// Panics when any backend disagrees with the compiled tree-walker —
    /// that is a bug in this repository, not in the program.
    pub fn run_differential(&self) -> Result<Outcome, Error> {
        differential(|backend| self.run_on(backend))
    }

    /// [`Loaded::call_with`] on *all three* backends under the engine's
    /// limits, asserting they agree like [`Loaded::run_differential`].
    ///
    /// # Errors
    ///
    /// As for [`Loaded::run_differential`].
    ///
    /// # Panics
    ///
    /// As for [`Loaded::run_differential`].
    pub fn call_differential(&self, arg: i64) -> Result<Outcome, Error> {
        let limits = self.session()?.limits;
        differential(|backend| self.call_with(backend, limits, arg))
    }
}

/// Runs `run` on every backend and returns the compiled tree-walker's
/// result, panicking when any other backend disagrees with it.
fn differential(run: impl Fn(Backend) -> Result<Outcome, Error>) -> Result<Outcome, Error> {
    let compiled = run(Backend::Compiled);
    for backend in [Backend::Bytecode, Backend::Reducer] {
        let other = run(backend);
        match (&compiled, &other) {
            (Ok(a), Ok(b)) if a != b => {
                panic!("backends disagree: Compiled={a:?} vs {backend:?}={b:?}")
            }
            (Ok(a), Err(b)) => {
                panic!("Compiled succeeded ({a:?}) but {backend:?} failed ({b})")
            }
            (Err(a), Ok(b)) => {
                panic!("{backend:?} succeeded ({b:?}) but Compiled failed ({a})")
            }
            _ => {}
        }
    }
    compiled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Observation;

    const SQUARE: &str = "(invoke (unit (import) (export)
        (define square (lambda (n) (* n n)))
        (init (square 12))))";

    #[test]
    fn invoke_runs_and_caches() {
        let engine = Engine::new();
        assert_eq!(engine.invoke(SQUARE).unwrap().value, Observation::Int(144));
        assert_eq!(engine.invoke(SQUARE).unwrap().value, Observation::Int(144));
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn respelled_sources_are_separate_misses() {
        let engine = Engine::new();
        engine.invoke(SQUARE).unwrap();
        // The same program up to α-renaming, spelled differently: the
        // cache keys source text, so this compiles its own artifact.
        let renamed = "(invoke (unit (import) (export)
            (define sq (lambda (m) (* m m)))
            (init (sq 12))))";
        assert_eq!(engine.invoke(renamed).unwrap().value, Observation::Int(144));
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 2));
    }

    #[test]
    fn different_options_do_not_share_artifacts() {
        let untyped = Engine::new();
        untyped.invoke("(invoke (unit (import) (export) (init 5)))").unwrap();
        let typed = Engine::builder().level(Level::Constructed).build();
        let loaded = typed.load("(invoke (unit (import) (export) (init 5)))").unwrap();
        assert_eq!(loaded.ty(), Some(&Ty::Int));
        assert_eq!(typed.cache_stats().misses, 1);
        assert_eq!(typed.cache_stats().hits, 0);
    }

    #[test]
    fn check_errors_surface_before_running() {
        let err = Engine::new().invoke("(+ nope 1)").unwrap_err();
        assert!(err.as_check().is_some());
    }

    #[test]
    fn engine_clones_share_one_session() {
        let engine = Engine::new();
        let clone = engine.clone();
        engine.invoke(SQUARE).unwrap();
        clone.invoke(SQUARE).unwrap();
        // The second invoke hit the cache the first one populated.
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn handles_outlive_the_engine_but_cannot_run() {
        let engine = Engine::new();
        let loaded = engine.load(SQUARE).unwrap();
        assert!(loaded.session_alive());
        drop(engine);
        assert!(!loaded.session_alive());
        // Artifact inspection still works; running does not.
        assert!(loaded.ty().is_none());
        assert!(matches!(loaded.run(), Err(Error::SessionClosed)));
        assert!(matches!(loaded.run_on(Backend::Reducer), Err(Error::SessionClosed)));
    }

    #[test]
    fn run_with_overrides_the_session_limits_per_run() {
        let engine = Engine::builder()
            .strictness(Strictness::MzScheme)
            .limits(Limits::none().fuel(1_000_000))
            .build();
        let loaded = engine
            .load("(letrec ((define loop (lambda () (loop)))) (loop))")
            .unwrap();
        let err = loaded.run_with(Backend::Compiled, Limits::none().fuel(500)).unwrap_err();
        assert_eq!(err.as_resource_exhausted(), Some((Resource::Fuel, 500)));
        // The session default is untouched.
        assert_eq!(engine.limits().fuel, Some(1_000_000));
    }

    #[test]
    fn fuel_exhaustion_is_typed_on_all_backends() {
        let engine = Engine::builder()
            .strictness(Strictness::MzScheme)
            .limits(Limits::none().fuel(5_000))
            .build();
        let loaded = engine
            .load("(letrec ((define loop (lambda () (loop)))) (loop))")
            .unwrap();
        for backend in [Backend::Compiled, Backend::Reducer, Backend::Bytecode] {
            let err = loaded.run_on(backend).unwrap_err();
            assert_eq!(
                err.as_resource_exhausted(),
                Some((units_runtime::Resource::Fuel, 5_000)),
                "{backend:?}: {err}"
            );
        }
    }

    #[test]
    fn bytecode_backend_agrees_and_reuses_the_lowered_chunk() {
        let engine = Engine::new();
        let loaded = engine.load(SQUARE).unwrap();
        assert_eq!(loaded.run_on(Backend::Bytecode).unwrap().value, Observation::Int(144));
        let first = loaded.artifact.chunk();
        assert_eq!(loaded.run_on(Backend::Bytecode).unwrap().value, Observation::Int(144));
        assert!(Arc::ptr_eq(&first, &loaded.artifact.chunk()), "chunk lowered once per artifact");
    }

    #[test]
    fn run_differential_crosses_all_three_backends() {
        let engine = Engine::new();
        let loaded = engine.load(SQUARE).unwrap();
        assert_eq!(loaded.run_differential().unwrap().value, Observation::Int(144));
    }

    // Terminates, but only well past 5_000 steps on either backend.
    const SLOW_COUNTDOWN: &str =
        "(letrec ((define loop (lambda (n) (if (= n 0) 99 (loop (- n 1)))))) (loop 2000))";

    #[test]
    fn fuel_retries_escalate_until_the_run_fits() {
        let engine = Engine::builder()
            .strictness(Strictness::MzScheme)
            .limits(Limits::none().fuel(5_000))
            .on_failure(FallbackPolicy::none().fuel_retries(4))
            .build();
        let outcome = engine.invoke(SLOW_COUNTDOWN).unwrap();
        assert_eq!(outcome.value, Observation::Int(99));
        let recovery = engine.last_recovery().expect("the first attempt ran out of fuel");
        assert!(recovery.retries >= 1, "{recovery:?}");
        assert!(!recovery.fell_back);
        // A clean run afterwards clears the record.
        engine.invoke("(invoke (unit (import) (export) (init 1)))").unwrap();
        assert!(engine.last_recovery().is_none());
    }

    #[test]
    fn exhausted_retries_still_surface_a_typed_error() {
        let engine = Engine::builder()
            .strictness(Strictness::MzScheme)
            .limits(Limits::none().fuel(50))
            .on_failure(FallbackPolicy::none().fuel_retries(2))
            .build();
        let err = engine
            .load("(letrec ((define loop (lambda () (loop)))) (loop))")
            .unwrap()
            .run()
            .unwrap_err();
        // Two retries at factor 2: the final budget was 50 * 4.
        assert_eq!(err.as_resource_exhausted(), Some((Resource::Fuel, 200)));
        let recovery = engine.last_recovery().unwrap();
        assert_eq!(recovery.retries, 2);
        assert!(!recovery.fell_back);
    }

    #[test]
    fn program_errors_are_not_masked_by_the_fallback_policy() {
        let engine = Engine::builder()
            .on_failure(FallbackPolicy::reference().fuel_retries(2))
            .build();
        let err = engine
            .invoke("(invoke (unit (import) (export) (init (/ 1 0))))")
            .unwrap_err();
        assert!(matches!(
            err.as_runtime(),
            Some(units_runtime::RuntimeError::DivisionByZero)
        ));
        let recovery = engine.last_recovery().unwrap();
        assert!(!recovery.fell_back, "deterministic program errors must not re-run");
        assert_eq!(recovery.retries, 0);
    }

    #[cfg(feature = "faults")]
    mod faulted {
        use super::*;
        use units_trace::faults::{self, FaultKind};

        #[test]
        fn injected_compiled_fault_falls_back_to_the_reducer() {
            let engine =
                Engine::builder().on_failure(FallbackPolicy::reference().diagnose(false)).build();
            let loaded = engine.load(SQUARE).unwrap();
            faults::arm(faults::FaultPlane::seeded(11).trigger("compile/eval", 1));
            let outcome = loaded.run_on(Backend::Compiled);
            faults::disarm();
            assert_eq!(outcome.unwrap().value, Observation::Int(144));
            let recovery = engine.last_recovery().unwrap();
            assert!(recovery.fell_back, "{recovery:?}");
            assert!(recovery.failure.contains("injected fault at compile/eval"));
        }

        #[test]
        fn injected_vm_fault_falls_back_to_the_reducer() {
            let engine =
                Engine::builder().on_failure(FallbackPolicy::reference().diagnose(false)).build();
            let loaded = engine.load(SQUARE).unwrap();
            faults::arm(faults::FaultPlane::seeded(11).trigger("vm/dispatch", 1));
            let outcome = loaded.run_on(Backend::Bytecode);
            faults::disarm();
            assert_eq!(outcome.unwrap().value, Observation::Int(144));
            let recovery = engine.last_recovery().unwrap();
            assert!(recovery.fell_back, "{recovery:?}");
            assert!(recovery.failure.contains("injected fault at vm/dispatch"));
        }

        #[test]
        fn injected_panic_is_caught_and_evicts_the_artifact() {
            let engine = Engine::new();
            let loaded = engine.load(SQUARE).unwrap();
            assert_eq!(engine.cache_stats().entries, 1);
            faults::install_quiet_hook();
            faults::arm(
                faults::FaultPlane::seeded(5)
                    .kind(FaultKind::Panic)
                    .trigger("runtime/prim", 1),
            );
            let err = loaded.run().unwrap_err();
            faults::disarm();
            let (stage, message) = err.as_internal().expect("panic surfaces as Internal");
            assert_eq!(stage, "run");
            assert!(message.contains("injected panic at runtime/prim"), "{message}");
            assert_eq!(engine.cache_stats().entries, 0, "failed run's artifact evicted");
            assert_eq!(engine.metrics_snapshot().cache.evictions, 1);
            // The evicted handle still owns its artifact and still runs.
            assert_eq!(loaded.run().unwrap().value, Observation::Int(144));
            // The session is still usable: a reload re-admits (a miss,
            // not a hit) and runs.
            assert_eq!(engine.invoke(SQUARE).unwrap().value, Observation::Int(144));
            assert_eq!(engine.cache_stats().misses, 2);
        }
    }

    #[test]
    fn load_batch_preserves_input_order() {
        let engine = Engine::builder().threads(4).build();
        let sources = [
            "(invoke (unit (import) (export) (init 1)))",
            "(+ nope 1)",
            "(invoke (unit (import) (export) (init 3)))",
        ];
        let results = engine.load_batch(&sources);
        assert_eq!(results[0].as_ref().unwrap().run().unwrap().value, Observation::Int(1));
        assert!(results[1].as_ref().err().and_then(|e| e.as_check()).is_some());
        assert_eq!(results[2].as_ref().unwrap().run().unwrap().value, Observation::Int(3));
    }

    #[test]
    fn load_batch_accepts_owned_strings() {
        let engine = Engine::builder().threads(2).build();
        let sources: Vec<String> = (1..=4)
            .map(|n| format!("(invoke (unit (import) (export) (init {n})))"))
            .collect();
        // By reference and by value: both iterator shapes work.
        let by_ref = engine.load_batch(&sources);
        assert_eq!(by_ref.len(), 4);
        let by_val = engine.load_batch(sources);
        for (n, result) in by_val.iter().enumerate() {
            let outcome = result.as_ref().unwrap().run().unwrap();
            assert_eq!(outcome.value, Observation::Int(n as i64 + 1));
        }
    }

    #[test]
    fn load_expr_caches_nothing() {
        let engine = Engine::new();
        let expr = units_syntax::parse_expr(SQUARE).unwrap();
        engine.load_expr(expr.clone()).unwrap();
        let loaded = engine.load_expr(expr).unwrap();
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 0));
        // The handle owns the artifact the cache never saw.
        assert_eq!(loaded.run().unwrap().value, Observation::Int(144));
    }
}
