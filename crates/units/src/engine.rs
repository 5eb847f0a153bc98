//! Engine sessions: cached artifacts, budgeted runs.
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
//! The `Arc`-backed kernel terms are `Send`, and the engine itself is
//! `Send + Sync`: threads that share one engine (`unitsd`'s connection
//! threads) load into one cache — a source racing on several threads is
//! admitted exactly once — and invoke cached artifacts concurrently.
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
//! so a server loads a plug-in's `(invoke U)` once and calls its value
//! per request.
//!
//! # The fault plane
//!
//! Every entry point — [`Engine::load`], [`Engine::load_expr`] and
//! [`Loaded::run_on`] — sits behind an unwind boundary: a panic
//! anywhere in the pipeline (including one deliberately fired by an
//! armed [`units_trace::faults::FaultPlane`]) is caught and surfaced as
//! [`Error::Internal`] naming the stage, and the artifact a panicking
//! run was using is evicted from the cache. The session itself stays
//! usable. A failed run's typed error is its answer: nothing re-runs it
//! on another backend or under a larger budget. A failure of the
//! machinery leaves a post-mortem in [`Engine::last_flight_dump`].
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
//! assert_eq!(engine.metrics_snapshot().cache.source_hits, 1);
//! # Ok::<(), units::Error>(())
//! ```

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

use units_check::{check_program, CheckOptions, Level, Strictness};
use units_compile::{
    apply, evaluate_program, lower_program, resolve_program, ChunkProfile, RESOLVED_FORM,
};
use units_kernel::{Expr, Ty};
use units_reduce::Reducer;
use units_runtime::{execute, vm, Chunk, Limits, Machine, RuntimeError, Value};
use units_store::{Lookup, Store};
use units_syntax::parse_file;
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
/// release builds. `unitsd`'s connection threads get it; a caller
/// loading untrusted source on a thread of its own should give that
/// thread at least as much.
pub const PIPELINE_STACK_SIZE: usize = 8 << 20;

/// A checked and slot-resolved program, shared by every load of the
/// same source text.
#[derive(Debug)]
struct Artifact {
    /// The kernel term as written, which the reducer runs.
    as_written: AsWritten,
    /// The program's type at typed levels.
    ty: Option<Ty>,
    /// The lexical-address-resolved form both compiled backends run.
    resolved: Expr,
    /// The flat-bytecode chunk the VM backend runs: lowered from the
    /// resolved form on the first bytecode run, then shared by every
    /// later run of this artifact, from any load of its source.
    chunk: OnceLock<Arc<Chunk>>,
}

/// An artifact's term as written. A store entry holds only the resolved
/// form, so a store hit keeps its source and parses it when something
/// asks for the program as written: the reducer, [`Loaded::expr`].
#[derive(Debug)]
enum AsWritten {
    /// A fresh compile's term, filled at once.
    Term(Expr),
    /// A store hit's source, whose FNV-1a matched the entry's header, and
    /// the slot its first parse fills.
    Source(Arc<str>, OnceLock<Expr>),
}

impl Artifact {
    /// The term as written, parsing a store hit's source on first use. A
    /// failed parse fills nothing, so the next call tries again.
    fn expr(&self) -> Result<&Expr, Error> {
        match &self.as_written {
            AsWritten::Term(expr) => Ok(expr),
            AsWritten::Source(source, slot) => {
                if let Some(expr) = slot.get() {
                    return Ok(expr);
                }
                let expr = parse_file(source)?;
                Ok(slot.get_or_init(|| expr))
            }
        }
    }

    /// The bytecode chunk, lowering (and caching) it on first use.
    /// `OnceLock` makes concurrent first uses race benignly: one lowering
    /// wins, every thread shares the winner.
    fn chunk(&self) -> Arc<Chunk> {
        self.chunk
            .get_or_init(|| {
                let _timer = units_trace::time("lower");
                lower_program(&self.resolved)
            })
            .clone()
    }
}

/// The artifact cache: one entry per source key
/// ([`EngineInner::source_key`]).
type Cache = HashMap<u64, Arc<Artifact>>;

/// A policy that holds and sets nothing, kept with
/// `EngineBuilder::on_failure` for the one call the benchmark client
/// (`perfbench/src/replay.rs`) still makes with `none()`. A failed run's
/// typed error is its answer on every path.
#[doc(hidden)]
#[non_exhaustive]
pub struct FallbackPolicy;

impl FallbackPolicy {
    /// The only policy there is: every failure is reported as-is.
    pub fn none() -> FallbackPolicy {
        FallbackPolicy
    }
}

/// Configures and constructs an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    level: Level,
    strictness: Strictness,
    backend: Backend,
    limits: Limits,
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

    /// Does nothing: kept, with the field-less policy it takes, for the
    /// benchmark client's one call.
    #[doc(hidden)]
    pub fn on_failure(self, _policy: FallbackPolicy) -> EngineBuilder {
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
        let opts = CheckOptions { level: self.level, strictness: self.strictness };
        let store = self.cache_dir.as_ref().and_then(|dir| {
            // The fingerprint binds on-disk entries to this engine
            // configuration — the same ingredients `source_key` folds in,
            // minus the source itself — and to the version of the
            // stored resolved form. (`DefaultHasher::new` is
            // keyless and deterministic, so fingerprints agree across
            // processes of the same build; cross-build skew is caught by
            // the store's version stamp.)
            let mut h = DefaultHasher::new();
            opts.hash(&mut h);
            RESOLVED_FORM.hash(&mut h);
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
                store,
                cache: Mutex::new(Cache::default()),
                metrics: EngineMetrics::default(),
                flight: Mutex::new(None),
            }),
        }
    }
}

/// A session that checks, caches, and runs programs.
///
/// An `Engine` is a cheap handle onto shared session state: cloning it
/// clones an `Arc`, and every clone sees the same artifact cache,
/// metrics plane, and flight dump. Engines are `Send + Sync`: the
/// cache, metrics, and flight dump all sit behind locks or atomics, and
/// the `Arc`-backed kernel terms let one cached artifact serve loads
/// and runs from any number of threads simultaneously (the §4.1.6 "one
/// copy of the code", process-wide).
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
    /// The persistent artifact store, when the builder was given a
    /// `cache_dir` and the directory was usable.
    store: Option<Store>,
    cache: Mutex<Cache>,
    metrics: EngineMetrics,
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

    /// A structured snapshot of the engine's always-on metrics plane:
    /// cache hits, misses and evictions, flight dumps, store probes, run
    /// totals with fuel and store-cell high-water marks, and invoke
    /// latency percentiles (p50/p99 from log₂-ns histogram buckets). Available in every build — only the
    /// flight-dump count needs the `trace` feature to be nonzero.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot(self.inner.cache_entries())
    }

    /// Zeroes the metrics plane. Cache contents and the last flight dump
    /// are untouched — this resets the counters, not the session.
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
}

impl EngineInner {
    /// Captures a flight dump when `err` indicts the machinery rather
    /// than the program, naming the failure in the dump's reason line.
    /// Set `UNITS_FLIGHT_DUMP=<path>` to also write the JSON lines to a
    /// file, best-effort.
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
                        &[],
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
        let resolved = resolve_program(&expr);
        Ok(Artifact { as_written: AsWritten::Term(expr), ty, resolved, chunk: OnceLock::new() })
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
    /// of a verified entry from its one term: the resolved form, with
    /// `source` kept to parse the as-written term on first use. `None` on
    /// any miss — including corruption, which is quarantined and counted
    /// but never an error. The chunk slot starts empty: the first bytecode
    /// run lowers the resolved form.
    fn store_probe(&self, skey: u64, source: &str) -> Option<Artifact> {
        let store = self.store.as_ref()?;
        match store.read(skey, source) {
            Lookup::Hit(entry) => {
                bump(&self.metrics.store_hits);
                let units_store::Entry { expr, ty, resolved, .. } = *entry;
                // An entry written without its resolved form holds the
                // checked term, which is resolved here.
                let (as_written, resolved) = match resolved {
                    Some(resolved) => {
                        (AsWritten::Source(Arc::from(source), OnceLock::new()), resolved)
                    }
                    None => {
                        let resolved = resolve_program(&expr);
                        (AsWritten::Term(expr), resolved)
                    }
                };
                Some(Artifact { as_written, ty, resolved, chunk: OnceLock::new() })
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
    /// store, best-effort. The entry stores the type and the resolved
    /// form; no chunk, whatever the backend.
    fn store_write(&self, skey: u64, source: &str, artifact: &Arc<Artifact>) {
        let Some(store) = self.store.as_ref() else { return };
        if !store.writable() {
            return;
        }
        // A fresh compile holds its term as written; the store ignores
        // it next to the resolved form.
        let AsWritten::Term(expr) = &artifact.as_written else { return };
        let entry = units_store::Entry {
            expr: expr.clone(),
            ty: artifact.ty.clone(),
            resolved: Some(artifact.resolved.clone()),
            chunk: None,
        };
        if store.write(skey, source, &entry) {
            bump(&self.metrics.store_writes);
        }
    }

    /// The un-guarded load pipeline behind [`Engine::load`]: the cache
    /// probe, the store probe, then parse → check → resolve → admit.
    fn load_uncached(&self, source: &str) -> Result<Arc<Artifact>, Error> {
        let skey = self.source_key(source);
        if let Some(artifact) = self.cache.lock().unwrap().get(&skey).cloned() {
            bump(&self.metrics.source_hits);
            return Ok(artifact);
        }
        // The persistent store sits between the in-memory probe and the
        // parser: a verified disk entry skips parse, check and resolve.
        if let Some(artifact) = self.store_probe(skey, source) {
            return Ok(self.admit(skey, artifact, None));
        }
        bump(&self.metrics.parses);
        let artifact = self.compile(parse_file(source)?)?;
        Ok(self.admit(skey, artifact, Some(source)))
    }

    /// One governed run of `artifact`: unwind boundary, failure path,
    /// latency accounting. `limits` is the budget for this run — the
    /// session default from [`Loaded::run_on`], or a per-request
    /// override from [`Loaded::run_with`]. With `arg`, the program's
    /// value is then applied to `Int(arg)` ([`Loaded::call_with`]).
    ///
    /// A failed run's typed error is its answer: nothing re-runs it. A
    /// run that panicked says nothing about how far it got, so its
    /// artifact is evicted; a failure of the machinery leaves a flight
    /// dump.
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
        let result = self.run_raw(artifact, backend, limits, arg);
        if let Err(err) = &result {
            if err.as_internal().is_some() {
                self.evict_artifact(artifact);
            }
            self.flight_on_fault(err);
        }
        self.metrics.note_run(start.elapsed(), result.is_ok());
        result
    }

    /// The three backends behind the unwind boundary. With `arg`, the
    /// program's value is applied to `Int(arg)` on the same machine, so
    /// fuel, cells, and output cover both halves. A compiled run's store
    /// is reclaimed once its value has been observed and dropped; a
    /// panicking run's machine reclaims as the unwind drops it.
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
                let expr = &artifact.resolved;
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
                // The as-written term, never the resolved or flattened one.
                let expr = artifact.expr()?;
                let mut reducer = Reducer::with_limits(limits);
                let value = match arg {
                    Some(n) => reducer.reduce_owned(Expr::app(expr.clone(), vec![Expr::int(n)])),
                    None => reducer.reduce_to_value(expr),
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
        let outcome = value
            .map(|value| Outcome { value: observe_value(&value), output: machine.take_output() });
        self.metrics.note_retained(machine.reclaim());
        Ok(outcome?)
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

    /// The kernel term as written, which the reducer backend runs. A
    /// store hit holds only the resolved form, so it parses the source it
    /// was loaded from on first use, here or in a reducer run; that parse
    /// is not on the load path, and the engine's `parses` does not count
    /// it. Only an injected fault can fail it, since the same text parsed
    /// before; the resolved form then stands in, and the next call parses
    /// again.
    pub fn expr(&self) -> &Expr {
        guard("load", || self.artifact.expr()).unwrap_or(&self.artifact.resolved)
    }

    /// The term the compiled backend runs and the bytecode chunk is
    /// lowered from: the lexical-address-resolved form. Its `compound`
    /// nodes carry the link plans every run of this artifact shares.
    pub fn resolved(&self) -> &Expr {
        &self.artifact.resolved
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
    /// cache). A failed run is never re-run: its error is the answer.
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
    /// multi-tenant server applies after admission control.
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
    /// same unwind boundary, metrics, and flight dump as
    /// [`Loaded::run_with`]. A program that evaluates to a procedure
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
        let stats = engine.metrics_snapshot().cache;
        assert_eq!((stats.source_hits, stats.misses, stats.entries), (1, 1, 1));
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
        let stats = engine.metrics_snapshot().cache;
        assert_eq!((stats.source_hits, stats.misses, stats.entries), (0, 2, 2));
    }

    #[test]
    fn different_options_do_not_share_artifacts() {
        let untyped = Engine::new();
        untyped.invoke("(invoke (unit (import) (export) (init 5)))").unwrap();
        let typed = Engine::builder().level(Level::Constructed).build();
        let loaded = typed.load("(invoke (unit (import) (export) (init 5)))").unwrap();
        assert_eq!(loaded.ty(), Some(&Ty::Int));
        assert_eq!(typed.metrics_snapshot().cache.misses, 1);
        assert_eq!(typed.metrics_snapshot().cache.source_hits, 0);
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
        let stats = engine.metrics_snapshot().cache;
        assert_eq!((stats.source_hits, stats.misses, stats.entries), (1, 1, 1));
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
        let loaded = engine.load("(letrec ((define loop (lambda () (loop)))) (loop))").unwrap();
        let err = loaded.run_with(Backend::Compiled, Limits::none().fuel(500)).unwrap_err();
        assert_eq!(err.as_resource_exhausted(), Some((units_runtime::Resource::Fuel, 500)));
        // The session default is untouched.
        assert_eq!(engine.limits().fuel, Some(1_000_000));
    }

    #[test]
    fn fuel_exhaustion_is_typed_on_all_backends() {
        let engine = Engine::builder()
            .strictness(Strictness::MzScheme)
            .limits(Limits::none().fuel(5_000))
            .build();
        let loaded = engine.load("(letrec ((define loop (lambda () (loop)))) (loop))").unwrap();
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

    #[cfg(feature = "faults")]
    mod faulted {
        use super::*;
        use units_trace::faults::{self, FaultKind};

        #[test]
        fn injected_panic_is_caught_and_evicts_the_artifact() {
            let engine = Engine::new();
            let loaded = engine.load(SQUARE).unwrap();
            assert_eq!(engine.metrics_snapshot().cache.entries, 1);
            faults::install_quiet_hook();
            faults::arm(
                faults::FaultPlane::seeded(5).kind(FaultKind::Panic).trigger("runtime/prim", 1),
            );
            let err = loaded.run().unwrap_err();
            faults::disarm();
            let (stage, message) = err.as_internal().expect("panic surfaces as Internal");
            assert_eq!(stage, "run");
            assert!(message.contains("injected panic at runtime/prim"), "{message}");
            assert_eq!(engine.metrics_snapshot().cache.entries, 0, "failed run's artifact evicted");
            assert_eq!(engine.metrics_snapshot().cache.evictions, 1);
            // The evicted handle still owns its artifact and still runs.
            assert_eq!(loaded.run().unwrap().value, Observation::Int(144));
            // The session is still usable: a reload re-admits (a miss,
            // not a hit) and runs.
            assert_eq!(engine.invoke(SQUARE).unwrap().value, Observation::Int(144));
            assert_eq!(engine.metrics_snapshot().cache.misses, 2);
        }
    }

    #[test]
    fn load_expr_caches_nothing() {
        let engine = Engine::new();
        let expr = units_syntax::parse_expr(SQUARE).unwrap();
        engine.load_expr(expr.clone()).unwrap();
        let loaded = engine.load_expr(expr).unwrap();
        let stats = engine.metrics_snapshot().cache;
        assert_eq!((stats.source_hits, stats.misses, stats.entries), (0, 2, 0));
        // The handle owns the artifact the cache never saw.
        assert_eq!(loaded.run().unwrap().value, Observation::Int(144));
    }
}
