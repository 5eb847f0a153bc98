//! `units-repl` — run unit-language programs from the command line.
//!
//! ```text
//! units-repl [OPTIONS] [FILE]
//!   -e, --expr <SRC>       evaluate a source string instead of a file
//!   -i, --interactive      read-eval-print loop (default on a terminal)
//!   -l, --level <d|c|e>    UNITd (default) / UNITc / UNITe
//!   -b, --backend <name>   compiled (default) | reducer | bytecode
//!       --mzscheme         relax the valuability restriction (§4.1.1)
//!       --check-only       parse and check, do not run
//!       --trace <N>        print the first N reduction steps (reducer)
//!       --diagram          print the program's box diagram (Fig. 1 style)
//!       --fuel <N>         bound evaluation to N machine steps
//!       --cache-dir <DIR>  persistent artifact cache shared across runs
//! ```
//!
//! With no file and no `--expr`, reads the program from standard input —
//! or, when standard input is a terminal, starts the interactive loop,
//! which adds the observability commands `:trace on|off|json`, `:stats`,
//! and `:profile <expr>` (live when built with `--features trace`).

use std::io::Read;
use std::process::ExitCode;

use units::{Backend, Engine, Level, Limits, Reducer, Step, Strictness};

mod repl;

struct Options {
    source: Option<String>,
    file: Option<String>,
    interactive: bool,
    level: Level,
    strictness: Strictness,
    backend: Backend,
    check_only: bool,
    diagram: bool,
    trace: Option<usize>,
    fuel: Option<u64>,
    cache_dir: Option<String>,
}

/// One engine per process: the session that checks, caches, and runs.
fn engine_for(opts: &Options) -> Engine {
    let mut builder =
        Engine::builder().level(opts.level).strictness(opts.strictness).backend(opts.backend);
    if let Some(fuel) = opts.fuel {
        builder = builder.limits(Limits::none().fuel(fuel));
    }
    if let Some(dir) = &opts.cache_dir {
        builder = builder.cache_dir(dir);
    }
    builder.build()
}

fn usage() -> &'static str {
    "usage: units-repl [-e EXPR] [-i] [-l d|c|e] [-b compiled|reducer|bytecode] \
     [--mzscheme] [--check-only] [--diagram] [--trace N] [--fuel N] \
     [--cache-dir DIR] [FILE]"
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        source: None,
        file: None,
        interactive: false,
        level: Level::Untyped,
        strictness: Strictness::Paper,
        backend: Backend::Compiled,
        check_only: false,
        diagram: false,
        trace: None,
        fuel: None,
        cache_dir: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-e" | "--expr" => {
                opts.source = Some(args.next().ok_or("--expr needs an argument")?);
            }
            "-i" | "--interactive" => opts.interactive = true,
            "-l" | "--level" => {
                opts.level = match args.next().as_deref() {
                    Some("d") | Some("untyped") => Level::Untyped,
                    Some("c") | Some("constructed") => Level::Constructed,
                    Some("e") | Some("equations") => Level::Equations,
                    other => return Err(format!("unknown level {other:?}")),
                };
            }
            "-b" | "--backend" => {
                opts.backend = match args.next().as_deref() {
                    Some("compiled") => Backend::Compiled,
                    Some("reducer") => Backend::Reducer,
                    Some("bytecode") | Some("vm") => Backend::Bytecode,
                    other => return Err(format!("unknown backend {other:?}")),
                };
            }
            "--mzscheme" => opts.strictness = Strictness::MzScheme,
            "--check-only" => opts.check_only = true,
            "--diagram" => opts.diagram = true,
            "--trace" => {
                let n = args.next().ok_or("--trace needs a count")?;
                opts.trace = Some(n.parse().map_err(|_| format!("bad count {n:?}"))?);
            }
            "--fuel" => {
                let n = args.next().ok_or("--fuel needs a count")?;
                opts.fuel = Some(n.parse().map_err(|_| format!("bad count {n:?}"))?);
            }
            "--cache-dir" => {
                opts.cache_dir = Some(args.next().ok_or("--cache-dir needs a directory")?);
            }
            "-h" | "--help" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other if !other.starts_with('-') => opts.file = Some(other.to_string()),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };

    let want_repl = opts.interactive
        || (opts.source.is_none() && opts.file.is_none() && {
            use std::io::IsTerminal;
            std::io::stdin().is_terminal()
        });
    if want_repl {
        return repl::run(&opts);
    }

    let source = match (&opts.source, &opts.file) {
        (Some(src), _) => src.clone(),
        (None, Some(path)) => match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        (None, None) => {
            let mut buf = String::new();
            if std::io::stdin().read_to_string(&mut buf).is_err() {
                eprintln!("error: cannot read standard input");
                return ExitCode::FAILURE;
            }
            buf
        }
    };

    let engine = engine_for(&opts);
    let loaded = match engine.load(&source) {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(ty) = loaded.ty() {
        println!(";; type: {ty}");
    }
    if opts.diagram {
        // Diagram the program's unit: for `(invoke u)` diagrams u.
        let target = match loaded.expr() {
            units::Expr::Invoke(inv) => inv.target.clone(),
            other => other.clone(),
        };
        println!("{}", units::diagram::render(&target));
    }
    if opts.check_only {
        println!(";; checks passed");
        return ExitCode::SUCCESS;
    }

    if let Some(n) = opts.trace {
        let mut reducer = Reducer::new();
        let mut current = loaded.expr().clone();
        for i in 0..n {
            match reducer.step(&current) {
                Ok(Step::Value) => break,
                Ok(Step::Reduced(next)) => {
                    println!(";; step {:>3}:\n{}", i + 1, units::pretty_expr_indent(&next, 78));
                    current = next;
                }
                Err(e) => {
                    eprintln!("runtime error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    match loaded.run() {
        Ok(outcome) => {
            for line in &outcome.output {
                println!("{line}");
            }
            println!("{}", outcome.value);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
