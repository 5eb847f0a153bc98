//! End-to-end smoke test of the `unitsd` binary: spawn the daemon on
//! a fresh socket, drive the whole protocol from two concurrent
//! tenant connections, hot-swap a plug-in, and shut the server down.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use units::{Level, Limits};
use units_serve::proto::Request;
use units_serve::{Client, Server, Service};

const SQUARE: &str = "(unit (import) (export) (init (lambda (n) (* n n))))";
const CUBE: &str = "(unit (import) (export) (init (lambda (n) (* n (* n n)))))";

/// A running daemon that is killed (and its socket removed) on drop,
/// so a failing assertion never leaks a process.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn start(tag: &str, extra_args: &[&str]) -> Daemon {
        let socket =
            std::env::temp_dir().join(format!("unitsd-test-{}-{tag}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(env!("CARGO_BIN_EXE_unitsd"))
            .arg("--socket")
            .arg(&socket)
            .args(extra_args)
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("unitsd must start");
        // Readiness: the socket file appears once the daemon binds.
        let deadline = Instant::now() + Duration::from_secs(30);
        while !socket.exists() {
            assert!(Instant::now() < deadline, "unitsd never bound {}", socket.display());
            std::thread::sleep(Duration::from_millis(20));
        }
        Daemon { child, socket }
    }

    fn connect(&self) -> Client {
        // The socket file appears after bind(2) but fractionally before
        // listen(2); on a loaded host a connect in that window is
        // refused, so retry under a deadline.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match Client::connect(&self.socket) {
                Ok(client) => return client,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => panic!("connect to unitsd: {e}"),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

#[test]
fn the_daemon_serves_two_tenants_loads_swaps_and_shuts_down() {
    let mut daemon = Daemon::start("smoke", &["--level", "untyped", "--fuel", "1000000"]);

    // Two tenants on two concurrent connections.
    let mut alice = daemon.connect();
    let mut bob = daemon.connect();
    assert_eq!(alice.hello("alice").unwrap().get_str("tenant"), Some("alice"));
    assert_eq!(bob.hello("bob").unwrap().get_str("tenant"), Some("bob"));

    let load = |name: &str, source: &str| Request::Load {
        name: name.to_string(),
        source: source.to_string(),
        sig: None,
    };
    let reply = alice.call(&load("f", SQUARE)).unwrap();
    assert_eq!(reply.get_bool("ok"), Some(true), "{reply}");
    assert_eq!(reply.get_int("version"), Some(1));
    let reply = bob.call(&load("f", CUBE)).unwrap();
    assert_eq!(reply.get_bool("ok"), Some(true), "{reply}");

    // Concurrent invokes from both tenants: same plug-in name, private
    // namespaces, different answers.
    let handles: Vec<_> = [("alice", 36i64), ("bob", 216i64)]
        .into_iter()
        .map(|(tenant, expected)| {
            let mut client = daemon.connect();
            std::thread::spawn(move || {
                client.hello(tenant).unwrap();
                for _ in 0..5 {
                    let reply = client.invoke("f", 6).unwrap();
                    assert_eq!(reply.get_bool("ok"), Some(true), "{tenant}: {reply}");
                    assert_eq!(reply.get_str("value"), Some(expected.to_string().as_str()));
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    // Hot swap on alice's connection; bob's plug-in is untouched.
    let reply = alice
        .call(&Request::Swap { name: "f".to_string(), source: CUBE.to_string(), sig: None })
        .unwrap();
    assert_eq!(reply.get_bool("ok"), Some(true), "{reply}");
    assert_eq!(reply.get_int("version"), Some(2));
    assert_eq!(alice.invoke("f", 2).unwrap().get_str("value"), Some("8"));
    assert_eq!(bob.invoke("f", 2).unwrap().get_str("value"), Some("8"));

    // Typed protocol errors, not hangups.
    let reply = alice
        .call(&Request::Invoke { name: "ghost".to_string(), arg: None, limits: Limits::none() })
        .unwrap();
    assert_eq!(reply.get_bool("ok"), Some(false));
    assert_eq!(reply.get_str("kind"), Some("plugin-missing"));

    // Stats cover both tenants.
    let reply = alice.call(&Request::Stats).unwrap();
    let tenants = reply.get("tenants").expect("stats carries tenants");
    assert!(tenants.get("alice").is_some() && tenants.get("bob").is_some(), "{reply}");

    // Shutdown: acknowledged, then the process exits on its own.
    let reply = alice.call(&Request::Shutdown).unwrap();
    assert_eq!(reply.get_bool("ok"), Some(true));
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match daemon.child.try_wait().unwrap() {
            Some(status) => {
                assert!(status.success(), "unitsd exited with {status}");
                break;
            }
            None => {
                assert!(Instant::now() < deadline, "unitsd never exited after shutdown");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

#[test]
fn per_tenant_caps_reach_the_wire_as_admission_denials() {
    let daemon = Daemon::start("caps", &["--level", "untyped", "--fuel", "1000"]);
    let mut client = daemon.connect();
    client.hello("tight").unwrap();
    client
        .call(&Request::Load { name: "f".to_string(), source: SQUARE.to_string(), sig: None })
        .unwrap();

    // Over-asking the daemon-wide cap is refused with the structured
    // admission fields.
    let reply = client
        .call(&Request::Invoke {
            name: "f".to_string(),
            arg: Some(3),
            limits: Limits::none().fuel(1_000_000),
        })
        .unwrap();
    assert_eq!(reply.get_bool("ok"), Some(false), "{reply}");
    assert_eq!(reply.get_str("kind"), Some("admission-denied"));
    assert_eq!(reply.get_int("requested"), Some(1_000_000));
    assert_eq!(reply.get_int("cap"), Some(1_000));

    // Within the cap, the request is served.
    let reply = client.invoke("f", 3).unwrap();
    assert_eq!(reply.get_str("value"), Some("9"), "{reply}");
}

#[test]
fn idle_connections_are_closed_cleanly_and_counted() {
    let daemon = Daemon::start("idle", &["--level", "untyped", "--idle-timeout", "1"]);

    // This connection goes idle past the deadline: the server closes
    // it — our next call sees a clean hangup, not a protocol error.
    let mut idler = daemon.connect();
    idler.hello("idler").unwrap();
    std::thread::sleep(Duration::from_millis(1800));
    let err = idler.call(&Request::Stats).unwrap_err();
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::UnexpectedEof
                | std::io::ErrorKind::BrokenPipe
                | std::io::ErrorKind::ConnectionReset
        ),
        "expected a clean close, got {err}"
    );

    // A fresh, active connection still works, and stats count the kill.
    let mut live = daemon.connect();
    live.hello("live").unwrap();
    let reply = live.call(&Request::Stats).unwrap();
    assert_eq!(reply.get_bool("ok"), Some(true), "{reply}");
    assert_eq!(reply.get_int("idle_timeouts"), Some(1), "{reply}");
    // The stats response also carries the engine's metrics plane.
    let engine = reply.get("engine").expect("stats carries engine metrics");
    assert!(engine.get("cache").is_some() && engine.get("store").is_some(), "{reply}");
}

#[test]
fn warm_started_daemon_serves_runs_without_reparsing() {
    let cache_dir = std::env::temp_dir().join(format!("unitsd-test-{}-cache", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let dir_arg = cache_dir.to_str().unwrap().to_string();
    let run = |source: &str| Request::Run { source: source.to_string(), limits: Limits::none() };
    let program = "(invoke (unit (import) (export) (init (* 21 2))))";

    // First daemon process: a cold run populates the store.
    {
        let mut daemon = Daemon::start("warm1", &["--level", "untyped", "--cache-dir", &dir_arg]);
        let mut client = daemon.connect();
        client.hello("t").unwrap();
        let reply = client.call(&run(program)).unwrap();
        assert_eq!(reply.get_str("value"), Some("42"), "{reply}");
        client.call(&Request::Shutdown).unwrap();
        let _ = daemon.child.wait();
    }

    // Second daemon process over the same directory: the same run is
    // answered from disk — the engine reports zero parses.
    let mut daemon = Daemon::start("warm2", &["--level", "untyped", "--cache-dir", &dir_arg]);
    let mut client = daemon.connect();
    client.hello("t").unwrap();
    let reply = client.call(&run(program)).unwrap();
    assert_eq!(reply.get_str("value"), Some("42"), "{reply}");
    let stats = client.call(&Request::Stats).unwrap();
    let engine = stats.get("engine").expect("stats carries engine metrics");
    let cache = engine.get("cache").expect("engine metrics carry cache");
    assert_eq!(cache.get_int("parses"), Some(0), "warm daemon re-parsed: {stats}");
    let store = engine.get("store").expect("engine metrics carry store");
    assert_eq!(store.get_int("hits"), Some(1), "{stats}");
    client.call(&Request::Shutdown).unwrap();
    let _ = daemon.child.wait();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn the_stats_engine_object_is_the_engine_snapshot() {
    let service = Service::builder().level(Level::Untyped).build();
    let socket =
        std::env::temp_dir().join(format!("unitsd-test-{}-snapshot.sock", std::process::id()));
    let server = Server::bind(&socket, service.clone()).expect("bind");
    let serving = std::thread::spawn(move || server.run());

    let mut client = Client::connect(&socket).expect("connect");
    client.hello("t").unwrap();
    client
        .call(&Request::Load { name: "f".to_string(), source: SQUARE.to_string(), sig: None })
        .unwrap();
    assert_eq!(client.invoke("f", 5).unwrap().get_str("value"), Some("25"));
    let run = Request::Run {
        source: "(invoke (unit (import) (export) (init (* 21 2))))".to_string(),
        limits: Limits::none(),
    };
    assert_eq!(client.call(&run).unwrap().get_str("value"), Some("42"));

    // A `stats` request runs nothing on the engine, so the snapshot
    // taken after it is the one the reply carries, key for key.
    let reply = client.call(&Request::Stats).unwrap();
    let snapshot = service.engine().metrics_snapshot();
    assert!(snapshot.runs.total >= 2, "{snapshot:?}");
    assert_eq!(reply.get("engine"), Some(&snapshot.to_json()), "{reply}");

    client.call(&Request::Shutdown).unwrap();
    serving.join().unwrap().expect("the accept loop exits cleanly");
}

#[test]
fn tenant_operations_before_hello_are_refused() {
    let daemon = Daemon::start("nohello", &["--level", "untyped"]);
    let mut client = daemon.connect();
    let reply = client.invoke("f", 1).unwrap();
    assert_eq!(reply.get_bool("ok"), Some(false));
    assert_eq!(reply.get_str("kind"), Some("no-tenant"));
}

#[test]
fn runs_nested_past_the_cap_are_refused_and_both_tenants_keep_being_served() {
    // Default flags, as the daemon is deployed.
    let daemon = Daemon::start("nesting", &[]);
    let mut a = daemon.connect();
    let mut b = daemon.connect();
    a.hello("a").unwrap();
    b.hello("b").unwrap();
    let run = |source: String| Request::Run { source, limits: Limits::none() };
    let nested = |n: usize| format!("{}1{}", "(begin ".repeat(n), ")".repeat(n));

    // 10,000 levels: an 80 KB frame, far under the frame limit, that
    // used to overflow the connection thread's stack and abort the
    // daemon for every tenant.
    let reply = a.call(&run(nested(10_000))).unwrap();
    assert_eq!(reply.get_bool("ok"), Some(false), "{reply}");
    assert_eq!(reply.get_str("kind"), Some("engine"), "{reply}");
    let limit = format!("forms nest deeper than {} levels", units::MAX_NESTING);
    assert!(reply.get_str("message").is_some_and(|m| m.contains(&limit)), "{reply}");

    // The same connection still answers, and runs a program nested
    // exactly at the cap on its own thread's stack.
    let reply = a.call(&run(nested(units::MAX_NESTING))).unwrap();
    assert_eq!(reply.get_str("value"), Some("1"), "{reply}");
    // So does the other tenant.
    let reply = b.call(&run("(+ 20 22)".to_string())).unwrap();
    assert_eq!(reply.get_str("value"), Some("42"), "{reply}");
}
