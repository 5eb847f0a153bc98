//! The in-process link-and-invoke service: tenants, plug-ins,
//! admission control, and hot swap.
//!
//! A [`Service`] wraps one shared [`Engine`] session and multiplexes
//! any number of named tenants over it. Each [`Tenant`] owns
//!
//! * a private plug-in namespace — units published by one tenant are
//!   invisible to every other,
//! * a resource cap ([`Limits`]) enforced as *admission control*: a
//!   request asking for more than the cap is refused with a typed
//!   [`ServeError::AdmissionDenied`] before any evaluation starts, and
//!   a request asking for nothing still runs under the cap,
//! * always-on request counters.
//!
//! Plug-ins follow the paper's §3.4 dynamic-linking story: a publish
//! with a signature goes through [`Archive::load`], so the unit is
//! parsed, checked, and signature-matched exactly as a dynamically
//! linked unit would be; a publish without one still requires a
//! closed, checkable unit. [`Tenant::swap_plugin`] replaces the
//! current version atomically behind an `Arc` — in-flight requests
//! holding a [`PluginVersion`] finish on the artifacts they started
//! with, and the swapped-out version is freed when the last of them
//! ends.
//!
//! Each version owns at most two engine artifacts, built with
//! [`Engine::load_expr`] and so never in the engine's cache:
//! `(invoke unit)`, built at publish and run by argument-less invokes,
//! and the *call artifact* `(lambda (arg) ((invoke unit) arg))`, built
//! on the first invoke that carries an argument and then applied to
//! every later argument with [`Loaded::call_with`]. A warm invoke
//! therefore builds, hashes, and looks up no term, whatever its
//! argument.
//!
//! The socket server in [`crate::server`] is a thin wire adapter over
//! this module; tests and benches call it directly and skip the kernel.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use units::{
    parse_expr, parse_signature, Archive, Backend, CheckOptions, DynlinkError, Engine, Expr, Level,
    Limits, Loaded, Outcome, Param, Resource, Strictness, Ty,
};

/// Why the service refused or failed a request.
#[derive(Debug)]
pub enum ServeError {
    /// The request asked for more of a resource than the tenant's cap
    /// allows. Refused at admission — nothing was evaluated.
    AdmissionDenied {
        /// The tenant whose cap applied.
        tenant: String,
        /// The resource that was over-asked.
        resource: Resource,
        /// What the request asked for.
        requested: u64,
        /// The tenant's cap.
        cap: u64,
    },
    /// `load` on a name that already has a plug-in; use `swap`.
    PluginExists {
        /// The occupied name.
        name: String,
    },
    /// `swap` or `invoke` on a name with no plug-in behind it.
    PluginMissing {
        /// The unknown name.
        name: String,
    },
    /// The published source is not an acceptable plug-in: it does not
    /// parse, does not check, is not a unit, or does not satisfy the
    /// signature it was published under.
    Rejected {
        /// The plug-in name the publish targeted.
        name: String,
        /// The checker's explanation.
        reason: String,
    },
    /// The engine failed the request after admission (runtime error,
    /// resource exhaustion under an *admitted* budget, …).
    Engine(units::Error),
}

impl ServeError {
    /// A stable machine-readable tag for the wire protocol.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::AdmissionDenied { .. } => "admission-denied",
            ServeError::PluginExists { .. } => "plugin-exists",
            ServeError::PluginMissing { .. } => "plugin-missing",
            ServeError::Rejected { .. } => "rejected",
            ServeError::Engine(units::Error::ResourceExhausted { .. }) => "resource-exhausted",
            ServeError::Engine(_) => "engine",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::AdmissionDenied { tenant, resource, requested, cap } => write!(
                f,
                "admission denied for tenant `{tenant}`: requested {resource} {requested} \
                 exceeds cap {cap}"
            ),
            ServeError::PluginExists { name } => {
                write!(f, "plug-in `{name}` already loaded; use swap to replace it")
            }
            ServeError::PluginMissing { name } => write!(f, "no plug-in named `{name}`"),
            ServeError::Rejected { name, reason } => {
                write!(f, "plug-in `{name}` rejected: {reason}")
            }
            ServeError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<units::Error> for ServeError {
    fn from(e: units::Error) -> ServeError {
        ServeError::Engine(e)
    }
}

/// Configures a [`Service`] before it starts.
#[derive(Debug, Default)]
pub struct ServiceBuilder {
    level: Level,
    backend: Backend,
    caps: Limits,
    cache_dir: Option<std::path::PathBuf>,
}

impl ServiceBuilder {
    /// Sets the calculus level plug-ins are checked at.
    pub fn level(mut self, level: Level) -> ServiceBuilder {
        self.level = level;
        self
    }

    /// Sets the default execution backend.
    pub fn backend(mut self, backend: Backend) -> ServiceBuilder {
        self.backend = backend;
        self
    }

    /// Sets the default per-tenant resource cap. Tenants created
    /// without an explicit cap inherit this one; `Limits::none()`
    /// (the default) means uncapped.
    pub fn caps(mut self, caps: Limits) -> ServiceBuilder {
        self.caps = caps;
        self
    }

    /// Points the engine at a persistent on-disk artifact cache
    /// (`units::EngineBuilder::cache_dir`): a restarted daemon over the
    /// same directory warm-starts without re-parsing. Store failures
    /// degrade to in-memory-only operation, never to request errors.
    pub fn cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> ServiceBuilder {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Builds the service and its engine session.
    pub fn build(self) -> Service {
        let mut engine = Engine::builder().level(self.level).backend(self.backend);
        if let Some(dir) = self.cache_dir {
            engine = engine.cache_dir(dir);
        }
        Service {
            inner: Arc::new(ServiceInner {
                engine: engine.build(),
                default_caps: self.caps,
                tenants: Mutex::new(BTreeMap::new()),
            }),
        }
    }
}

/// The multi-tenant link-and-invoke service. Cheap to clone; clones
/// share the engine session and the tenant table.
#[derive(Debug, Clone)]
pub struct Service {
    inner: Arc<ServiceInner>,
}

#[derive(Debug)]
struct ServiceInner {
    engine: Engine,
    default_caps: Limits,
    tenants: Mutex<BTreeMap<String, Arc<TenantState>>>,
}

#[derive(Debug)]
struct TenantState {
    name: String,
    caps: Limits,
    plugins: Mutex<BTreeMap<String, Arc<PluginSlot>>>,
    stats: TenantCounters,
}

/// Which bucket a finished (or refused) request falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RequestOutcome {
    Ok,
    Failed,
    Rejected,
}

#[derive(Debug, Default)]
struct TenantCounters {
    requests: AtomicU64,
    ok: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    total_micros: AtomicU64,
}

/// One plug-in name: the slot the current version sits in.
#[derive(Debug)]
struct PluginSlot {
    current: Mutex<Arc<PluginVersion>>,
}

/// One published version of a plug-in. Its code never changes; its call
/// artifact is built on the first invoke with an argument.
///
/// An invoke snapshots the slot's `Arc<PluginVersion>` and runs on it;
/// a concurrent [`Tenant::swap_plugin`] replaces the slot but cannot
/// touch versions already snapshotted, so in-flight requests complete
/// on the artifacts they started with. The version owns its artifacts,
/// so they are freed with the last snapshot.
#[derive(Debug)]
pub struct PluginVersion {
    name: String,
    version: u64,
    loaded: Loaded,
    /// The call artifact, built on the first invoke with an argument.
    call: OnceLock<Loaded>,
}

impl PluginVersion {
    /// The plug-in name this version was published under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The monotonically increasing publish counter, starting at 1.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The owned engine handle behind this version — the artifact an
    /// argument-less invoke runs. It stays runnable after a swap, for as
    /// long as anything holds it.
    pub fn loaded(&self) -> &Loaded {
        &self.loaded
    }

    /// The call artifact `(lambda (arg) ((invoke unit) arg))`, with
    /// `arg` typed `int` at the typed levels. It is loaded through
    /// [`Engine::load_expr`] — so checked and resolved — on the first
    /// invoke that carries an argument, and every later one reuses it.
    fn call(&self, engine: &Engine) -> Result<&Loaded, units::Error> {
        if let Some(call) = self.call.get() {
            return Ok(call);
        }
        let arg = match engine.level() {
            Level::Untyped => Param::untyped("arg"),
            _ => Param::typed("arg", Ty::Int),
        };
        let body = Expr::app(self.loaded.expr().clone(), vec![Expr::var("arg")]);
        let loaded = engine.load_expr(Expr::lambda(vec![arg], body))?;
        // Racing first invokes may each build one; the first stored wins.
        Ok(self.call.get_or_init(|| loaded))
    }
}

/// What a successful publish reports back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishInfo {
    /// The plug-in name.
    pub name: String,
    /// The version now current.
    pub version: u64,
}

/// A point-in-time view of one tenant's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantSnapshot {
    /// Requests that reached the tenant (admitted or not).
    pub requests: u64,
    /// Requests that completed with a value.
    pub ok: u64,
    /// Admitted requests that failed in the engine.
    pub failed: u64,
    /// Requests refused at admission.
    pub rejected: u64,
    /// Wall-clock microseconds spent in admitted requests.
    pub total_micros: u64,
}

impl Service {
    /// Starts configuring a service.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::default()
    }

    /// A service with all defaults (constructed types, compiled
    /// backend, no caps).
    pub fn new() -> Service {
        Service::builder().build()
    }

    /// The shared engine session behind the service.
    pub fn engine(&self) -> &Engine {
        &self.inner.engine
    }

    /// The tenant named `name`, created with the default cap on first
    /// use. Handles are cheap to clone and [`Send`]; concurrent
    /// requests through clones of one tenant are fine.
    pub fn tenant(&self, name: &str) -> Tenant {
        self.tenant_with_caps(name, self.inner.default_caps)
    }

    /// Like [`Service::tenant`], but a *newly created* tenant gets
    /// `caps` instead of the default. An existing tenant keeps the cap
    /// it was created with — a reconnecting tenant cannot raise its
    /// own budget by asking again.
    pub fn tenant_with_caps(&self, name: &str, caps: Limits) -> Tenant {
        let mut tenants = self.inner.tenants.lock().expect("tenant table poisoned");
        let state = tenants
            .entry(name.to_string())
            .or_insert_with(|| {
                Arc::new(TenantState {
                    name: name.to_string(),
                    caps,
                    plugins: Mutex::new(BTreeMap::new()),
                    stats: TenantCounters::default(),
                })
            })
            .clone();
        Tenant { service: self.inner.clone(), state }
    }

    /// Counters for every tenant the service has seen.
    pub fn stats(&self) -> BTreeMap<String, TenantSnapshot> {
        let tenants = self.inner.tenants.lock().expect("tenant table poisoned");
        tenants.iter().map(|(name, state)| (name.clone(), state.snapshot())).collect()
    }
}

impl Default for Service {
    fn default() -> Service {
        Service::new()
    }
}

impl TenantState {
    fn snapshot(&self) -> TenantSnapshot {
        TenantSnapshot {
            requests: self.stats.requests.load(Ordering::Relaxed),
            ok: self.stats.ok.load(Ordering::Relaxed),
            failed: self.stats.failed.load(Ordering::Relaxed),
            rejected: self.stats.rejected.load(Ordering::Relaxed),
            total_micros: self.stats.total_micros.load(Ordering::Relaxed),
        }
    }
}

/// One tenant's view of the service.
#[derive(Debug, Clone)]
pub struct Tenant {
    service: Arc<ServiceInner>,
    state: Arc<TenantState>,
}

impl Tenant {
    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.state.name
    }

    /// The cap this tenant was created with.
    pub fn caps(&self) -> Limits {
        self.state.caps
    }

    /// This tenant's counters.
    pub fn stats(&self) -> TenantSnapshot {
        self.state.snapshot()
    }

    /// Publishes a new plug-in under `name`.
    ///
    /// With a signature, the publish is a §3.4 dynamic link: the
    /// source goes through [`Archive::load`] against the parsed
    /// signature. Without one, the source must still parse and check
    /// as a closed unit. Either way the unit is compiled up front, so
    /// a bad plug-in is refused at publish time, not at first invoke.
    ///
    /// # Errors
    ///
    /// [`ServeError::PluginExists`] when the name is taken,
    /// [`ServeError::Rejected`] when the source is not an acceptable
    /// plug-in.
    pub fn load_plugin(
        &self,
        name: &str,
        source: &str,
        signature: Option<&str>,
    ) -> Result<PublishInfo, ServeError> {
        {
            let plugins = self.state.plugins.lock().expect("plug-in table poisoned");
            if plugins.contains_key(name) {
                return Err(ServeError::PluginExists { name: name.to_string() });
            }
        }
        let version = self.publish(name, source, signature, 1)?;
        let mut plugins = self.state.plugins.lock().expect("plug-in table poisoned");
        if plugins.contains_key(name) {
            return Err(ServeError::PluginExists { name: name.to_string() });
        }
        plugins
            .insert(name.to_string(), Arc::new(PluginSlot { current: Mutex::new(version) }));
        Ok(PublishInfo { name: name.to_string(), version: 1 })
    }

    /// Hot-swaps the plug-in `name` to a new version.
    ///
    /// The new source is checked and compiled *before* the slot is
    /// touched; a rejected swap leaves the old version serving. The
    /// replacement itself is one `Arc` store: requests that already
    /// snapshotted the old version finish on it, requests arriving
    /// after the swap see the new one. The old version — with a call
    /// artifact its in-flight requests build later — is freed when the
    /// last of them ends.
    ///
    /// # Errors
    ///
    /// [`ServeError::PluginMissing`] when nothing is loaded under
    /// `name`, [`ServeError::Rejected`] for an unacceptable source.
    pub fn swap_plugin(
        &self,
        name: &str,
        source: &str,
        signature: Option<&str>,
    ) -> Result<PublishInfo, ServeError> {
        let slot = self.slot(name)?;
        // Serialize concurrent swaps of one slot: hold the slot lock
        // across the version read *and* the store.
        let mut current = slot.current.lock().expect("plug-in slot poisoned");
        let next_version = current.version + 1;
        *current = self.publish(name, source, signature, next_version)?;
        Ok(PublishInfo { name: name.to_string(), version: next_version })
    }

    /// The currently served version of plug-in `name` — the same
    /// snapshot an in-flight invoke holds. Use it to pin a version
    /// across a swap.
    pub fn plugin(&self, name: &str) -> Option<Arc<PluginVersion>> {
        let slot = {
            let plugins = self.state.plugins.lock().expect("plug-in table poisoned");
            plugins.get(name)?.clone()
        };
        let version = slot.current.lock().expect("plug-in slot poisoned").clone();
        Some(version)
    }

    /// The names of this tenant's plug-ins, sorted.
    pub fn plugin_names(&self) -> Vec<String> {
        let plugins = self.state.plugins.lock().expect("plug-in table poisoned");
        plugins.keys().cloned().collect()
    }

    /// Invokes plug-in `name`: snapshots the current version and runs
    /// it, applying the invoke result to `arg` when one is given (through
    /// the version's call artifact).
    ///
    /// # Errors
    ///
    /// [`ServeError::PluginMissing`], [`ServeError::AdmissionDenied`],
    /// or [`ServeError::Engine`] for failures after admission.
    pub fn invoke(&self, name: &str, arg: Option<i64>) -> Result<Outcome, ServeError> {
        self.invoke_with(name, arg, Limits::none())
    }

    /// Like [`Tenant::invoke`], with a per-request budget. Each field
    /// of `requested` that is set must fit under the tenant's cap
    /// (else [`ServeError::AdmissionDenied`]); fields left `None`
    /// fall back to the cap itself.
    pub fn invoke_with(
        &self,
        name: &str,
        arg: Option<i64>,
        requested: Limits,
    ) -> Result<Outcome, ServeError> {
        let version = self.plugin(name).ok_or_else(|| {
            self.count_request(RequestOutcome::Failed);
            ServeError::PluginMissing { name: name.to_string() }
        })?;
        self.invoke_version(&version, arg, requested)
    }

    /// Invokes a pinned [`PluginVersion`] — what the service itself
    /// does after snapshotting, exposed so a caller can prove swap
    /// semantics or finish a long request on the version it started
    /// with.
    pub fn invoke_version(
        &self,
        version: &PluginVersion,
        arg: Option<i64>,
        requested: Limits,
    ) -> Result<Outcome, ServeError> {
        self.admitted(requested, |tenant, limits| {
            let engine = &tenant.service.engine;
            let outcome = match arg {
                None => version.loaded.run_with(engine.backend(), limits),
                Some(n) => version.call(engine)?.call_with(engine.backend(), limits, n),
            };
            outcome.map_err(ServeError::from)
        })
    }

    /// Runs a raw program (not a published plug-in) under this
    /// tenant's cap — the service equivalent of [`Engine::invoke`].
    ///
    /// # Errors
    ///
    /// [`ServeError::AdmissionDenied`] or [`ServeError::Engine`].
    pub fn run(&self, source: &str, requested: Limits) -> Result<Outcome, ServeError> {
        self.admitted(requested, |tenant, limits| {
            let loaded = tenant.service.engine.load(source)?;
            loaded.run_with(tenant.service.engine.backend(), limits).map_err(ServeError::from)
        })
    }

    /// Invokes plug-in `name` on every backend and checks they agree,
    /// returning the (shared) outcome. Panics on divergence, like
    /// [`Loaded::run_differential`].
    ///
    /// # Errors
    ///
    /// Same as [`Tenant::invoke_with`].
    pub fn invoke_differential(
        &self,
        name: &str,
        arg: Option<i64>,
    ) -> Result<Outcome, ServeError> {
        let version = self.plugin(name).ok_or_else(|| {
            self.count_request(RequestOutcome::Failed);
            ServeError::PluginMissing { name: name.to_string() }
        })?;
        self.admitted(Limits::none(), |tenant, _limits| {
            let outcome = match arg {
                None => version.loaded.run_differential(),
                Some(n) => version.call(&tenant.service.engine)?.call_differential(n),
            };
            outcome.map_err(ServeError::from)
        })
    }

    /// Admission gate: folds `requested` into this tenant's cap or
    /// refuses, then runs `work` under the effective budget, counting
    /// the request either way.
    fn admitted(
        &self,
        requested: Limits,
        work: impl FnOnce(&Tenant, Limits) -> Result<Outcome, ServeError>,
    ) -> Result<Outcome, ServeError> {
        let limits = match self.admit(requested) {
            Ok(limits) => limits,
            Err(denied) => {
                self.count_request(RequestOutcome::Rejected);
                return Err(denied);
            }
        };
        let start = Instant::now();
        let result = work(self, limits);
        let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.state.stats.total_micros.fetch_add(micros, Ordering::Relaxed);
        self.count_request(if result.is_ok() {
            RequestOutcome::Ok
        } else {
            RequestOutcome::Failed
        });
        result
    }

    /// Checks `requested` against the cap; the effective budget is the
    /// admitted request where given, the cap where not.
    fn admit(&self, requested: Limits) -> Result<Limits, ServeError> {
        let caps = self.state.caps;
        let field = |resource: Resource, asked: Option<u64>, cap: Option<u64>| match asked {
            None => Ok(cap),
            Some(asked) => {
                if let Some(cap) = cap {
                    if asked > cap {
                        return Err(ServeError::AdmissionDenied {
                            tenant: self.state.name.clone(),
                            resource,
                            requested: asked,
                            cap,
                        });
                    }
                }
                Ok(Some(asked))
            }
        };
        Ok(Limits {
            fuel: field(Resource::Fuel, requested.fuel, caps.fuel)?,
            max_depth: field(Resource::Depth, requested.max_depth, caps.max_depth)?,
            max_store_cells: field(
                Resource::StoreCells,
                requested.max_store_cells,
                caps.max_store_cells,
            )?,
        })
    }

    /// Bumps the request counters: total always, plus the bucket the
    /// outcome lands in.
    fn count_request(&self, outcome: RequestOutcome) {
        self.state.stats.requests.fetch_add(1, Ordering::Relaxed);
        let bucket = match outcome {
            RequestOutcome::Ok => &self.state.stats.ok,
            RequestOutcome::Failed => &self.state.stats.failed,
            RequestOutcome::Rejected => &self.state.stats.rejected,
        };
        bucket.fetch_add(1, Ordering::Relaxed);
    }

    /// Parses, checks, and compiles a publish into a [`PluginVersion`].
    fn publish(
        &self,
        name: &str,
        source: &str,
        signature: Option<&str>,
        version: u64,
    ) -> Result<Arc<PluginVersion>, ServeError> {
        let rejected = |reason: String| ServeError::Rejected { name: name.to_string(), reason };
        let opts =
            CheckOptions { level: self.service.engine.level(), strictness: Strictness::Paper };
        let unit = match signature {
            Some(sig_src) => {
                // §3.4: publishing under a signature is a dynamic link.
                let sig = parse_signature(sig_src)
                    .map_err(|e| rejected(format!("bad signature: {e}")))?;
                let mut archive = Archive::new();
                archive.publish(name, source);
                archive.load(name, &sig, opts).map_err(|e| match e {
                    DynlinkError::NotAUnit
                    | DynlinkError::Signature { .. }
                    | DynlinkError::Parse(_)
                    | DynlinkError::Check(_) => rejected(e.to_string()),
                    other => ServeError::Engine(units::Error::Dynlink(other)),
                })?
            }
            None => {
                let expr = parse_expr(source).map_err(|e| rejected(format!("{e}")))?;
                if !matches!(expr, Expr::Unit(_)) {
                    return Err(rejected("published expression is not a unit".to_string()));
                }
                units::check_program(&expr, opts).map_err(|errs| {
                    let reasons: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
                    rejected(reasons.join("; "))
                })?;
                expr
            }
        };
        // Compile the no-argument invocation now: a plug-in that cannot
        // even link is refused at publish, and argument-less invokes
        // run a prebuilt artifact. The call artifact waits for the
        // first invoke with an argument, so a plug-in whose init is not
        // a function still publishes.
        let loaded = self
            .service
            .engine
            .load_expr(Expr::invoke_program(unit))
            .map_err(|e| rejected(format!("unit does not link: {e}")))?;
        let call = OnceLock::new();
        Ok(Arc::new(PluginVersion { name: name.to_string(), version, loaded, call }))
    }

    fn slot(&self, name: &str) -> Result<Arc<PluginSlot>, ServeError> {
        let plugins = self.state.plugins.lock().expect("plug-in table poisoned");
        plugins
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::PluginMissing { name: name.to_string() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use units::Observation;

    const SQUARE: &str = "(unit (import) (export) (init (lambda (n) (* n n))))";
    const CUBE: &str = "(unit (import) (export) (init (lambda (n) (* n (* n n)))))";

    fn untyped_service() -> Service {
        Service::builder().level(Level::Untyped).build()
    }

    #[test]
    fn a_plugin_loads_and_serves_invokes() {
        let service = untyped_service();
        let tenant = service.tenant("a");
        let info = tenant.load_plugin("sq", SQUARE, None).unwrap();
        assert_eq!(info.version, 1);
        let outcome = tenant.invoke("sq", Some(7)).unwrap();
        assert_eq!(outcome.value, Observation::Int(49));
        let snap = tenant.stats();
        assert_eq!((snap.requests, snap.ok), (1, 1));
    }

    #[test]
    fn loading_an_occupied_name_is_refused() {
        let service = untyped_service();
        let tenant = service.tenant("a");
        tenant.load_plugin("sq", SQUARE, None).unwrap();
        let err = tenant.load_plugin("sq", CUBE, None).unwrap_err();
        assert!(matches!(err, ServeError::PluginExists { .. }), "{err}");
        assert_eq!(err.kind(), "plugin-exists");
    }

    #[test]
    fn swap_replaces_atomically_and_pins_inflight_versions() {
        let service = untyped_service();
        let tenant = service.tenant("a");
        tenant.load_plugin("f", SQUARE, None).unwrap();
        let inflight = tenant.plugin("f").unwrap();

        let info = tenant.swap_plugin("f", CUBE, None).unwrap();
        assert_eq!(info.version, 2);

        // New requests see the new version; the pinned snapshot still
        // runs the old artifact.
        assert_eq!(tenant.invoke("f", Some(3)).unwrap().value, Observation::Int(27));
        let old = tenant.invoke_version(&inflight, Some(3), Limits::none()).unwrap();
        assert_eq!(old.value, Observation::Int(9), "in-flight finishes on the pre-swap version");
    }

    #[test]
    fn swapping_an_absent_plugin_is_plugin_missing() {
        let service = untyped_service();
        let tenant = service.tenant("a");
        let err = tenant.swap_plugin("ghost", SQUARE, None).unwrap_err();
        assert_eq!(err.kind(), "plugin-missing");
    }

    #[test]
    fn a_rejected_swap_leaves_the_old_version_serving() {
        let service = untyped_service();
        let tenant = service.tenant("a");
        tenant.load_plugin("f", SQUARE, None).unwrap();
        let err = tenant.swap_plugin("f", "(+ 1 2)", None).unwrap_err();
        assert_eq!(err.kind(), "rejected", "{err}");
        assert_eq!(tenant.invoke("f", Some(4)).unwrap().value, Observation::Int(16));
        assert_eq!(tenant.plugin("f").unwrap().version(), 1);
    }

    #[test]
    fn signature_publishes_go_through_dynamic_linking() {
        let service = Service::new(); // Level::Constructed
        let tenant = service.tenant("a");
        let sig = "(sig (import) (export) (init (-> int int)))";
        let typed_square = "(unit (import) (export) (init (lambda ((n int)) (* n n))))";
        tenant.load_plugin("sq", typed_square, Some(sig)).unwrap();
        assert_eq!(tenant.invoke("sq", Some(6)).unwrap().value, Observation::Int(36));

        // A unit whose init is not int -> int fails the signature.
        let bool_unit = "(unit (import) (export) (init (lambda ((n int)) (= n 0))))";
        let err = tenant.load_plugin("nope", bool_unit, Some(sig)).unwrap_err();
        assert_eq!(err.kind(), "rejected", "{err}");
    }

    #[test]
    fn admission_control_refuses_over_cap_requests_before_running() {
        let service = untyped_service();
        let tenant = service.tenant_with_caps("capped", Limits::none().fuel(10_000));
        tenant.load_plugin("sq", SQUARE, None).unwrap();

        let err =
            tenant.invoke_with("sq", Some(5), Limits::none().fuel(1_000_000)).unwrap_err();
        let ServeError::AdmissionDenied { tenant: t, resource, requested, cap } = &err else {
            panic!("expected AdmissionDenied, got {err}");
        };
        assert_eq!((t.as_str(), *resource), ("capped", Resource::Fuel));
        assert_eq!((*requested, *cap), (1_000_000, 10_000));

        // Under-cap requests are admitted; cap applies when unasked.
        assert!(tenant.invoke_with("sq", Some(5), Limits::none().fuel(5_000)).is_ok());
        assert!(tenant.invoke("sq", Some(5)).is_ok());
        let snap = tenant.stats();
        assert_eq!((snap.requests, snap.ok, snap.rejected), (3, 2, 1));
    }

    #[test]
    fn the_cap_itself_bounds_unbudgeted_requests() {
        let service = untyped_service();
        let tenant = service.tenant_with_caps("tiny", Limits::none().fuel(5));
        tenant.load_plugin("sq", SQUARE, None).unwrap();
        let err = tenant.invoke("sq", Some(5)).unwrap_err();
        assert_eq!(err.kind(), "resource-exhausted", "{err}");
        let snap = tenant.stats();
        assert_eq!((snap.requests, snap.failed), (1, 1));
    }

    #[test]
    fn tenants_cannot_see_each_others_plugins() {
        let service = untyped_service();
        let a = service.tenant("a");
        let b = service.tenant("b");
        a.load_plugin("sq", SQUARE, None).unwrap();
        let err = b.invoke("sq", Some(2)).unwrap_err();
        assert_eq!(err.kind(), "plugin-missing");
        assert!(b.plugin_names().is_empty());
        assert_eq!(a.plugin_names(), vec!["sq".to_string()]);
    }

    #[test]
    fn a_reconnecting_tenant_keeps_its_original_cap() {
        let service = untyped_service();
        let first = service.tenant_with_caps("a", Limits::none().fuel(100));
        let again = service.tenant_with_caps("a", Limits::none().fuel(u64::MAX));
        assert_eq!(first.caps(), again.caps());
        assert_eq!(again.caps().fuel, Some(100));
    }

    #[test]
    fn raw_runs_are_capped_too() {
        let service = untyped_service();
        let tenant = service.tenant_with_caps("a", Limits::none().fuel(200_000));
        let outcome = tenant
            .run("(invoke (unit (import) (export) (init (+ 40 2))))", Limits::none())
            .unwrap();
        assert_eq!(outcome.value, Observation::Int(42));
        let err = tenant
            .run("(invoke (unit (import) (export) (init 0)))", Limits::none().fuel(300_000))
            .unwrap_err();
        assert_eq!(err.kind(), "admission-denied");
    }
}
