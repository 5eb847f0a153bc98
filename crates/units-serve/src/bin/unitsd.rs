//! `unitsd` — the Units link-and-invoke daemon.
//!
//! Binds a Unix-domain socket and serves the length-prefixed JSON
//! protocol in `units_serve::proto` until a client sends `shutdown`.
//!
//! ```text
//! unitsd --socket /tmp/unitsd.sock --level untyped --fuel 1000000
//! ```

use std::process::ExitCode;

use units::{Backend, Level, Limits};
use units_serve::{Server, Service};

const USAGE: &str = "\
unitsd — Units link-and-invoke daemon

USAGE:
    unitsd [OPTIONS]

OPTIONS:
    --socket PATH     socket to bind [default: /tmp/unitsd.sock]
    --level NAME      untyped | constructed | equations [default: constructed]
    --backend NAME    compiled | bytecode | reducer [default: compiled]
    --fuel N          default per-tenant fuel cap [default: none]
    --depth N         default per-tenant depth cap [default: none]
    --cells N         default per-tenant store-cell cap [default: none]
    --cache-dir PATH  persistent artifact cache directory; a restarted
                      daemon over the same directory warm-starts without
                      re-parsing [default: in-memory only]
    --idle-timeout N  close connections idle for N seconds, counted in
                      stats [default: wait forever]
    --help            print this text
";

struct Config {
    socket: String,
    level: Level,
    backend: Backend,
    caps: Limits,
    cache_dir: Option<String>,
    idle_timeout: Option<std::time::Duration>,
}

fn parse_args(args: &[String]) -> Result<Option<Config>, String> {
    let mut config = Config {
        socket: "/tmp/unitsd.sock".to_string(),
        level: Level::Constructed,
        backend: Backend::Compiled,
        caps: Limits::none(),
        cache_dir: None,
        idle_timeout: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--socket" => config.socket = value.clone(),
            "--level" => {
                config.level = match value.as_str() {
                    "untyped" => Level::Untyped,
                    "constructed" => Level::Constructed,
                    "equations" => Level::Equations,
                    other => return Err(format!("unknown level `{other}`")),
                }
            }
            "--backend" => {
                config.backend = match value.as_str() {
                    "compiled" => Backend::Compiled,
                    "bytecode" => Backend::Bytecode,
                    "reducer" => Backend::Reducer,
                    other => return Err(format!("unknown backend `{other}`")),
                }
            }
            "--fuel" | "--depth" | "--cells" => {
                let n: u64 =
                    value.parse().map_err(|_| format!("{flag} needs an integer, got {value}"))?;
                match flag.as_str() {
                    "--fuel" => config.caps.fuel = Some(n),
                    "--depth" => config.caps.max_depth = Some(n),
                    _ => config.caps.max_store_cells = Some(n),
                }
            }
            "--cache-dir" => config.cache_dir = Some(value.clone()),
            "--idle-timeout" => {
                let secs: u64 = value
                    .parse()
                    .map_err(|_| "--idle-timeout needs a whole number of seconds".to_string())?;
                if secs == 0 {
                    return Err("--idle-timeout must be at least 1 second".to_string());
                }
                config.idle_timeout = Some(std::time::Duration::from_secs(secs));
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Some(config))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(Some(config)) => config,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("unitsd: {message}");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let mut builder =
        Service::builder().level(config.level).backend(config.backend).caps(config.caps);
    if let Some(dir) = &config.cache_dir {
        builder = builder.cache_dir(dir);
    }
    let service = builder.build();

    let server = match Server::bind(&config.socket, service) {
        Ok(server) => server.idle_timeout(config.idle_timeout),
        Err(e) => {
            eprintln!("unitsd: cannot bind {}: {e}", config.socket);
            return ExitCode::FAILURE;
        }
    };
    // The readiness line clients and smoke tests wait for.
    println!("unitsd: listening on {}", config.socket);
    use std::io::Write;
    let _ = std::io::stdout().flush();
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("unitsd: server error: {e}");
            ExitCode::FAILURE
        }
    }
}
