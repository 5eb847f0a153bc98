//! The socket front end: `unitsd`'s accept loop and per-connection
//! request handling.
//!
//! The server listens on a Unix-domain socket and spawns one thread
//! per connection. A connection speaks the [`crate::proto`] frame
//! protocol: it must `hello` first to bind itself to a tenant, then
//! issues loads, swaps, invokes, and runs against that tenant's slice
//! of the shared [`Service`]. All state lives in the service, so any
//! number of connections may serve one tenant concurrently, and two
//! tenants on two connections cannot observe each other beyond the
//! shared engine's caches.
//!
//! `shutdown` flips a flag and pokes the listener with a throwaway
//! connection so the blocking `accept` wakes up and the loop exits.

use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use units::{Limits, Outcome};

use crate::json::Json;
use crate::proto::{error_response, ok_response, read_frame, write_frame, Request};
use crate::service::{Service, Tenant, TenantSnapshot};

/// A bound-but-not-yet-running server.
#[derive(Debug)]
pub struct Server {
    listener: UnixListener,
    path: PathBuf,
    service: Service,
    stopping: Arc<AtomicBool>,
    idle_timeout: Option<Duration>,
    idle_timeouts: Arc<AtomicU64>,
}

impl Server {
    /// Binds `path` (removing any stale socket file first).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(path: impl AsRef<Path>, service: Service) -> io::Result<Server> {
        let path = path.as_ref().to_path_buf();
        // A previous unclean exit leaves the socket file behind; a
        // fresh bind on the same path must not fail for that.
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        Ok(Server {
            listener,
            path,
            service,
            stopping: Arc::new(AtomicBool::new(false)),
            idle_timeout: None,
            idle_timeouts: Arc::new(AtomicU64::new(0)),
        })
    }

    /// The socket path this server is bound to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Closes connections that sit idle (no complete request) for
    /// `timeout`. A timed-out connection is closed cleanly — no error,
    /// no half-written frame — and counted in the `stats` response's
    /// `idle_timeouts` field. `None` (the default) waits forever.
    pub fn idle_timeout(mut self, timeout: Option<Duration>) -> Server {
        self.idle_timeout = timeout.filter(|t| !t.is_zero());
        self
    }

    /// Accepts connections until a client sends `shutdown`. Each
    /// connection gets its own thread; the threads are detached — a
    /// connection mid-request when shutdown lands finishes that
    /// request, and the process exiting reaps the rest.
    ///
    /// # Errors
    ///
    /// Propagates accept failures other than the shutdown wake-up.
    pub fn run(self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            if self.stopping.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream?;
            let service = self.service.clone();
            let stopping = self.stopping.clone();
            let wake_path = self.path.clone();
            let idle_timeout = self.idle_timeout;
            let idle_timeouts = self.idle_timeouts.clone();
            // Connection threads run whole programs, so they get the
            // pipeline's stack. A connection whose thread cannot start
            // is dropped, which closes it.
            let _ = std::thread::Builder::new().stack_size(units::PIPELINE_STACK_SIZE).spawn(
                move || {
                    let conn = Connection { idle_timeout, idle_timeouts };
                    let _ = conn.serve(stream, &service, &stopping, &wake_path);
                },
            );
        }
        let _ = std::fs::remove_file(&self.path);
        Ok(())
    }
}

/// Per-connection server state: the idle policy and the shared counter
/// it reports into.
struct Connection {
    idle_timeout: Option<Duration>,
    idle_timeouts: Arc<AtomicU64>,
}

impl Connection {
    /// Drives one connection to completion (EOF, idle timeout, I/O
    /// error, or shutdown).
    fn serve(
        &self,
        mut stream: UnixStream,
        service: &Service,
        stopping: &AtomicBool,
        wake_path: &Path,
    ) -> io::Result<()> {
        // A zero timeout is rejected by set_read_timeout, but the
        // builder already filtered it out.
        stream.set_read_timeout(self.idle_timeout)?;
        let mut tenant: Option<Tenant> = None;
        loop {
            let frame = match read_frame(&mut stream) {
                Ok(Some(frame)) => frame,
                Ok(None) => return Ok(()), // clean EOF
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    // The client sat idle past the deadline: count it and
                    // close cleanly, without an error frame the (absent)
                    // client would never read anyway.
                    self.idle_timeouts.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
                Err(e) => return Err(e),
            };
            let request = match Request::from_json(&frame) {
                Ok(request) => request,
                Err(message) => {
                    write_frame(&mut stream, &error_response("bad-request", &message))?;
                    continue;
                }
            };
            let response = match request {
                Request::Hello { tenant: name } => {
                    let bound = service.tenant(&name);
                    let reply = ok_response([("tenant", Json::str(bound.name()))]);
                    tenant = Some(bound);
                    reply
                }
                Request::Stats => {
                    stats_response(service, self.idle_timeouts.load(Ordering::Relaxed))
                }
                Request::Shutdown => {
                    write_frame(&mut stream, &ok_response([("stopping", Json::Bool(true))]))?;
                    stopping.store(true, Ordering::SeqCst);
                    // Wake the accept loop so it notices the flag.
                    let _ = UnixStream::connect(wake_path);
                    return Ok(());
                }
                tenant_op => match &tenant {
                    None => {
                        error_response("no-tenant", "send `hello` before tenant operations")
                    }
                    Some(tenant) => dispatch_tenant_op(tenant, tenant_op),
                },
            };
            write_frame(&mut stream, &response)?;
        }
    }
}

/// Executes one tenant-scoped request and renders the response.
fn dispatch_tenant_op(tenant: &Tenant, request: Request) -> Json {
    let published = |result: Result<crate::service::PublishInfo, crate::service::ServeError>| {
        match result {
            Ok(info) => ok_response([
                ("name", Json::str(info.name)),
                ("version", Json::Int(info.version as i64)),
            ]),
            Err(e) => serve_error_response(&e),
        }
    };
    match request {
        Request::Load { name, source, sig } => {
            published(tenant.load_plugin(&name, &source, sig.as_deref()))
        }
        Request::Swap { name, source, sig } => {
            published(tenant.swap_plugin(&name, &source, sig.as_deref()))
        }
        Request::Invoke { name, arg, limits } => {
            outcome_response(tenant.invoke_with(&name, arg, limits))
        }
        Request::Run { source, limits } => outcome_response(tenant.run(&source, limits)),
        // `hello`, `stats`, and `shutdown` are handled by the caller.
        Request::Hello { .. } | Request::Stats | Request::Shutdown => {
            error_response("bad-request", "not a tenant operation")
        }
    }
}

fn outcome_response(result: Result<Outcome, crate::service::ServeError>) -> Json {
    match result {
        Ok(outcome) => ok_response([
            ("value", Json::str(outcome.value.to_string())),
            ("output", Json::Arr(outcome.output.into_iter().map(Json::Str).collect())),
        ]),
        Err(e) => serve_error_response(&e),
    }
}

/// Renders a [`crate::service::ServeError`] with its typed `kind` and,
/// for admission refusals, the structured resource fields a client
/// needs to retry under the cap.
fn serve_error_response(e: &crate::service::ServeError) -> Json {
    let mut response = error_response(e.kind(), &e.to_string());
    if let crate::service::ServeError::AdmissionDenied { resource, requested, cap, .. } = e {
        if let Json::Obj(map) = &mut response {
            map.insert("resource".to_string(), Json::str(resource.to_string()));
            map.insert("requested".to_string(), Json::Int(*requested as i64));
            map.insert("cap".to_string(), Json::Int(*cap as i64));
        }
    }
    response
}

fn stats_response(service: &Service, idle_timeouts: u64) -> Json {
    let tenants: std::collections::BTreeMap<String, Json> = service
        .stats()
        .into_iter()
        .map(|(name, snap)| (name, snapshot_json(&snap)))
        .collect();
    ok_response([
        ("tenants", Json::Obj(tenants)),
        // The engine's own snapshot: cache, store, recovery, runs.
        ("engine", service.engine().metrics_snapshot().to_json()),
        ("idle_timeouts", Json::from(idle_timeouts)),
    ])
}

fn snapshot_json(snap: &TenantSnapshot) -> Json {
    Json::obj([
        ("requests", Json::from(snap.requests)),
        ("ok", Json::from(snap.ok)),
        ("failed", Json::from(snap.failed)),
        ("rejected", Json::from(snap.rejected)),
        ("total_micros", Json::from(snap.total_micros)),
    ])
}

/// A blocking client for the frame protocol — what the integration
/// tests, the CI smoke test, and embedders poking a live `unitsd` use.
#[derive(Debug)]
pub struct Client {
    stream: UnixStream,
}

impl Client {
    /// Connects to a server socket.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(path: impl AsRef<Path>) -> io::Result<Client> {
        Ok(Client { stream: UnixStream::connect(path)? })
    }

    /// Sends one request and reads one response.
    ///
    /// # Errors
    ///
    /// I/O or framing errors; a server that hangs up mid-exchange
    /// surfaces as `UnexpectedEof`.
    pub fn call(&mut self, request: &Request) -> io::Result<Json> {
        write_frame(&mut self.stream, &request.to_json())?;
        read_frame(&mut self.stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server hung up"))
    }

    /// `hello` — binds this connection to `tenant`.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn hello(&mut self, tenant: &str) -> io::Result<Json> {
        self.call(&Request::Hello { tenant: tenant.to_string() })
    }

    /// `invoke` with an argument and no per-request budget.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn invoke(&mut self, name: &str, arg: i64) -> io::Result<Json> {
        self.call(&Request::Invoke {
            name: name.to_string(),
            arg: Some(arg),
            limits: Limits::none(),
        })
    }
}
