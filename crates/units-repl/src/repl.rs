//! The interactive read-eval-print loop.
//!
//! Multi-line friendly: input accumulates until its parentheses balance,
//! with a continuation prompt, and the buffer is dropped (with a fresh
//! prompt and an explicit flush) after both parse and runtime errors —
//! an error can never leave half an expression silently queued.
//!
//! Observability commands (`:trace`, `:stats`, `:profile`) are live when
//! the binary is built with `--features trace`; otherwise they explain
//! how to get them.

use std::cell::RefCell;
use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::rc::Rc;
use std::sync::Arc;

use units::trace::{Event, Metrics, TraceSink};
use units::{Backend, Engine, Loaded};

use crate::Options;

/// How events reach the user while the loop runs.
#[derive(Clone, Copy, PartialEq)]
enum TraceMode {
    Off,
    /// Each event printed as readable text.
    On,
    /// Each event printed as one JSON line.
    Json,
}

/// Prints events as `;; trace:`-prefixed text.
struct PrintSink;

impl TraceSink for PrintSink {
    fn event(&mut self, event: &Event) {
        println!(";; trace: {event}");
    }
}

/// Prints events as JSON lines.
struct JsonSink;

impl TraceSink for JsonSink {
    fn event(&mut self, event: &Event) {
        println!("{}", event.to_json());
    }
}

struct Repl {
    /// The session: artifacts loaded at the prompt stay cached, so
    /// re-evaluating a line skips checking and resolution.
    engine: Engine,
    /// Which evaluator `:backend` has selected for this session.
    backend: Backend,
    mode: TraceMode,
    /// Metrics accumulated across the session (what `:stats` prints).
    metrics: Arc<Metrics>,
    /// Flight-recorder dumps already announced, so `evaluate` mentions
    /// each new post-mortem exactly once.
    flight_seen: u64,
}

const HELP: &str = ";; commands:
;;   :help                 this message
;;   :quit                 leave the repl (also Ctrl-D)
;;   :backend compiled|reducer|bytecode
;;                         switch the evaluator (no argument: show current)
;;   :disasm [--profile] <program>
;;                         lower <program> to flat bytecode and print the
;;                         chunk — opcodes, operands, const-pool refs;
;;                         --profile runs it first and annotates each op
;;                         with its execution count (needs --features trace)
;;   :trace on|off|json    stream events per evaluation (text or JSON lines)
;;   :stats                print accumulated counters and phase timings
;;   :metrics [reset]      print (or zero) the engine's always-on metrics
;;                         plane: cache, pool, recovery, fuel, latency p50/p99
;;   :flight               print the last flight-recorder dump, if any
;;   :profile <expr>       run <expr> on all three backends; report per-phase
;;                         durations and the Fig. 11 step count
;;   :faults <seed> [rate‰] [panic]
;;                         arm a deterministic fault-injection plane
;;   :faults off           disarm it and report what fired
;; anything else is evaluated as a program (multi-line until parens balance)";

/// Runs the interactive loop. Returns failure only when standard input
/// cannot be read at all.
pub fn run(opts: &Options) -> ExitCode {
    let mut repl = Repl {
        engine: crate::engine_for(opts),
        backend: opts.backend,
        mode: TraceMode::Off,
        metrics: Arc::new(Metrics::new()),
        flight_seen: 0,
    };
    println!(";; units repl — :help for commands");
    if !units::trace::COMPILED {
        println!(";; (tracing not compiled in; rebuild with --features trace)");
    }
    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    let mut buffer = String::new();
    loop {
        prompt(if buffer.is_empty() { "units> " } else { "  ...> " });
        let line = match lines.next() {
            Some(Ok(line)) => line,
            Some(Err(e)) => {
                eprintln!("error: cannot read standard input: {e}");
                return ExitCode::FAILURE;
            }
            None => {
                println!();
                return ExitCode::SUCCESS;
            }
        };
        if buffer.is_empty() {
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            if let Some(command) = trimmed.strip_prefix(':') {
                if !repl.command(command) {
                    return ExitCode::SUCCESS;
                }
                continue;
            }
        }
        buffer.push_str(&line);
        buffer.push('\n');
        match paren_balance(&buffer) {
            Ok(n) if n > 0 => continue, // still open — keep reading
            Ok(_) => {}
            Err(()) => {} // too many closers: let the parser report it
        }
        let source = std::mem::take(&mut buffer);
        repl.evaluate(&source);
        // An evaluation (or its error report) must never swallow the next
        // prompt: push everything out before reading again.
        flush_all();
    }
}

fn prompt(text: &str) {
    print!("{text}");
    flush_all();
}

fn flush_all() {
    let _ = std::io::stdout().flush();
    let _ = std::io::stderr().flush();
}

/// Net open parentheses, ignoring string literals and `;` comments.
/// `Err(())` means more closers than openers (unbalanced beyond repair).
fn paren_balance(src: &str) -> Result<i64, ()> {
    let mut depth = 0i64;
    let mut chars = src.chars();
    while let Some(c) = chars.next() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth < 0 {
                    return Err(());
                }
            }
            ';' => {
                for c in chars.by_ref() {
                    if c == '\n' {
                        break;
                    }
                }
            }
            '"' => {
                let mut escaped = false;
                for c in chars.by_ref() {
                    match c {
                        _ if escaped => escaped = false,
                        '\\' => escaped = true,
                        '"' => break,
                        _ => {}
                    }
                }
            }
            _ => {}
        }
    }
    Ok(depth)
}

impl Repl {
    /// Handles a `:command`; returns `false` to quit.
    fn command(&mut self, command: &str) -> bool {
        let mut words = command.split_whitespace();
        match words.next() {
            Some("help") | Some("h") => println!("{HELP}"),
            Some("quit") | Some("q") | Some("exit") => return false,
            Some("trace") => self.set_trace(words.next()),
            Some("backend") => self.set_backend(words.next()),
            Some("disasm") => {
                let rest = command.strip_prefix("disasm").unwrap_or("").trim();
                if let Some(source) = rest.strip_prefix("--profile") {
                    let source = source.trim();
                    if source.is_empty() {
                        println!(";; usage: :disasm --profile <program>");
                    } else {
                        self.disasm_profiled(source);
                    }
                } else if rest.is_empty() {
                    println!(";; usage: :disasm [--profile] <program>");
                } else {
                    self.disasm(rest);
                }
            }
            Some("stats") => self.stats(),
            Some("metrics") => self.metrics_plane(words.next()),
            Some("flight") => self.flight(),
            Some("faults") => self.faults(&words.collect::<Vec<_>>()),
            Some("profile") => {
                let rest = command.strip_prefix("profile").unwrap_or("").trim();
                if rest.is_empty() {
                    println!(";; usage: :profile <expr>");
                } else {
                    self.profile(rest);
                }
            }
            Some(other) => println!(";; unknown command :{other} — :help lists commands"),
            None => println!("{HELP}"),
        }
        true
    }

    fn set_trace(&mut self, arg: Option<&str>) {
        if !units::trace::COMPILED {
            println!(";; tracing not compiled in; rebuild with --features trace");
            return;
        }
        match arg {
            Some("on") => self.mode = TraceMode::On,
            Some("off") => self.mode = TraceMode::Off,
            Some("json") => self.mode = TraceMode::Json,
            other => {
                println!(
                    ";; usage: :trace on|off|json (got {})",
                    other.unwrap_or("nothing")
                );
                return;
            }
        }
        println!(
            ";; trace {}",
            match self.mode {
                TraceMode::Off => "off",
                TraceMode::On => "on",
                TraceMode::Json => "json",
            }
        );
    }

    /// Switches the evaluator every later line runs on (the engine's
    /// artifact cache is shared across backends, so switching costs no
    /// re-checking). With no argument, reports the current selection.
    fn set_backend(&mut self, arg: Option<&str>) {
        match arg {
            Some("compiled") => self.backend = Backend::Compiled,
            Some("reducer") => self.backend = Backend::Reducer,
            Some("bytecode") | Some("vm") => self.backend = Backend::Bytecode,
            None => {}
            Some(other) => {
                println!(";; usage: :backend compiled|reducer|bytecode (got {other:?})");
                return;
            }
        }
        println!(
            ";; backend: {}",
            match self.backend {
                Backend::Compiled => "compiled (cells tree-walker, §4.1.6)",
                Backend::Reducer => "reducer (Fig. 11 reference)",
                Backend::Bytecode => "bytecode (flat-chunk dispatch loop)",
            }
        );
    }

    /// Lowers a program to flat bytecode and prints the chunk listing —
    /// the repl's view of what the `bytecode` backend actually runs.
    fn disasm(&self, source: &str) {
        match self.load(source) {
            Ok(loaded) => println!("{}", loaded.disassemble()),
            Err(e) => eprintln!("{e}"),
        }
    }

    /// Runs `source` on the bytecode backend, then prints the chunk with
    /// each op annotated by its execution count, plus a hottest-ops
    /// table. Without `--features trace` the counters do not exist, so
    /// the plain listing is shown with an explanation.
    fn disasm_profiled(&self, source: &str) {
        let loaded = match self.load(source) {
            Ok(loaded) => loaded,
            Err(e) => {
                eprintln!("{e}");
                return;
            }
        };
        if !units::trace::COMPILED {
            println!(
                ";; per-op counters need a build with --features trace; plain listing:"
            );
            println!("{}", loaded.disassemble());
            return;
        }
        loaded.profile_reset();
        match loaded.run_on(Backend::Bytecode) {
            Ok(outcome) => println!(";; ran on bytecode backend: {}", outcome.value),
            Err(e) => println!(";; bytecode run failed ({e}); counts cover the partial run"),
        }
        println!("{}", loaded.disassemble_profiled());
        let profile = loaded.chunk_profile();
        let hottest = profile.hottest(8);
        if !hottest.is_empty() {
            println!(";; hottest ops:");
            for (name, count) in hottest {
                println!(";;   {name:<12} {count:>9}×");
            }
            println!(
                ";; total: {} ops executed, {} fuel attributed",
                profile.total_executed, profile.fuel_attributed
            );
        }
    }

    /// Prints (or with `reset` zeroes) the engine's always-on metrics
    /// plane. Unlike `:stats`, this works in every build.
    fn metrics_plane(&self, arg: Option<&str>) {
        match arg {
            Some("reset") => {
                self.engine.metrics_reset();
                println!(";; engine metrics reset");
                return;
            }
            Some(other) => {
                println!(";; usage: :metrics [reset] (got {other:?})");
                return;
            }
            None => {}
        }
        let snap = self.engine.metrics_snapshot();
        println!(
            ";; cache:    {} source hits, {} misses, {} evictions, {} artifacts",
            snap.cache.source_hits,
            snap.cache.misses,
            snap.cache.evictions,
            snap.cache.entries
        );
        println!(
            ";; pool:     {} batches, {} jobs, peak {} workers",
            snap.pool.batches, snap.pool.jobs, snap.pool.peak_workers
        );
        println!(
            ";; recovery: {} fuel retries, {} reference fallbacks, {} recovered, {} flight dumps",
            snap.recovery.fuel_retries,
            snap.recovery.reference_fallbacks,
            snap.recovery.recovered_runs,
            snap.recovery.flight_dumps
        );
        println!(
            ";; runs:     {} total, {} failures, fuel {} total / {} max, {} store cells peak, \
             {} cells retained",
            snap.runs.total,
            snap.runs.failures,
            snap.runs.fuel_total,
            snap.runs.fuel_max,
            snap.runs.store_cells_peak,
            snap.runs.cells_retained
        );
        let lat = snap.invoke_latency;
        if lat.count == 0 {
            println!(";; latency:  no runs timed yet");
        } else {
            println!(
                ";; latency:  {} runs, min {} / mean {} / p50 {} / p99 {} / max {}",
                lat.count,
                format_ns(lat.min_ns),
                format_ns(lat.mean_ns),
                format_ns(lat.p50_ns),
                format_ns(lat.p99_ns),
                format_ns(lat.max_ns)
            );
        }
    }

    /// Prints the most recent flight-recorder post-mortem, one JSON
    /// line per recorded event.
    fn flight(&self) {
        match self.engine.last_flight_dump() {
            Some(dump) => {
                println!(
                    ";; flight dump — {} ({} of {} events kept, {} dropped):",
                    dump.reason, dump.events, dump.recorded, dump.dropped
                );
                for line in dump.json_lines.lines() {
                    println!("{line}");
                }
            }
            None => {
                if units::trace::COMPILED {
                    println!(";; no flight-recorder dump (no fault has tripped yet)");
                } else {
                    println!(";; flight recorder needs a build with --features trace");
                }
            }
        }
    }

    /// Arms, disarms, or reports the fault-injection plane on the repl
    /// thread. Injected failures surface like any other error — the
    /// loop survives them (panics included: the engine's unwind
    /// boundary turns those into typed internal errors).
    fn faults(&self, args: &[&str]) {
        use units::trace::faults;
        if !faults::COMPILED {
            println!(";; fault injection not compiled in; rebuild with --features faults");
            return;
        }
        match args {
            [] => {
                if faults::active() {
                    println!(";; fault plane armed — :faults off to disarm");
                } else {
                    println!(";; no fault plane armed — :faults <seed> [rate‰] [panic]");
                }
            }
            ["off"] => match faults::disarm() {
                Some(plane) => {
                    println!(
                        ";; fault plane disarmed: {} trips observed, {} fault(s) fired",
                        plane.trips(),
                        plane.fired().len()
                    );
                    for fired in plane.fired() {
                        println!(";;   fired at {} (hit {})", fired.site, fired.hit);
                    }
                }
                None => println!(";; no fault plane armed"),
            },
            [seed, options @ ..] => {
                let Ok(seed) = seed.parse::<u64>() else {
                    println!(";; usage: :faults off | :faults <seed> [rate‰] [panic]");
                    return;
                };
                let mut plane = faults::FaultPlane::seeded(seed);
                for word in options {
                    if let Ok(rate) = word.parse::<u32>() {
                        plane = plane.rate_per_mille(rate);
                    } else if *word == "panic" {
                        plane = plane.kind(faults::FaultKind::Panic);
                    } else {
                        println!(";; usage: :faults off | :faults <seed> [rate‰] [panic]");
                        return;
                    }
                }
                faults::install_quiet_hook();
                faults::arm(plane);
                println!(";; fault plane armed: seed {seed}");
            }
        }
    }

    /// Installs the session for the current trace mode (events to the
    /// chosen sink, metrics into the accumulated registry).
    fn install(&self) {
        let sink: Rc<RefCell<dyn TraceSink>> = match self.mode {
            TraceMode::Off => Rc::new(RefCell::new(units::trace::NullSink)),
            TraceMode::On => Rc::new(RefCell::new(PrintSink)),
            TraceMode::Json => Rc::new(RefCell::new(JsonSink)),
        };
        units::trace::install(sink, Arc::clone(&self.metrics));
    }

    fn load(&self, source: &str) -> Result<Loaded, units::Error> {
        self.engine.load(source)
    }

    fn evaluate(&mut self, source: &str) {
        // Install before loading so the parse and check phases are
        // traced too (a cache hit skips both).
        self.install();
        let result = self.load(source).and_then(|p| p.run_on(self.backend));
        units::trace::uninstall();
        match result {
            Ok(outcome) => {
                for line in &outcome.output {
                    println!("{line}");
                }
                println!("{}", outcome.value);
            }
            Err(e) => eprintln!("{e}"),
        }
        self.report_recovery();
        self.report_flight();
    }

    /// Announces a fresh flight-recorder post-mortem exactly once, so a
    /// faulting evaluation points at `:flight` without spamming later
    /// prompts.
    fn report_flight(&mut self) {
        let dumps = self.engine.metrics_snapshot().recovery.flight_dumps;
        if dumps > self.flight_seen {
            self.flight_seen = dumps;
            println!(";; flight recorder captured a post-mortem — :flight to inspect");
        }
    }

    /// Prints how the engine coped when a run needed retries or a
    /// backend fallback. Silent under the default report-as-is policy,
    /// so plain sessions print exactly what they always did.
    fn report_recovery(&self) {
        let Some(recovery) = self.engine.last_recovery() else { return };
        if !recovery.fell_back && recovery.retries == 0 {
            return;
        }
        println!(";; recovered from: {}", recovery.failure);
        if recovery.retries > 0 {
            println!(";;   fuel-escalation retries: {}", recovery.retries);
        }
        if recovery.fell_back {
            println!(";;   the reference reducer produced this result");
        }
        if let Some(divergence) = &recovery.divergence {
            for line in divergence.lines() {
                println!(";;   {line}");
            }
        }
    }

    fn stats(&self) {
        if units::trace::COMPILED {
            println!(";; trace feature: compiled in");
        } else {
            println!(";; trace feature: NOT compiled in (rebuild with --features trace)");
        }
        if units::trace::COMPILED {
            let counters = self.metrics.counters();
            if counters.is_empty() {
                println!(";; no counters yet — evaluate something first");
            } else {
                println!(";; counters:");
                for (name, value) in &counters {
                    println!(";;   {name:<28} {value}");
                }
            }
        }
        let cache = self.engine.cache_stats();
        println!(
            ";; engine cache: {} hits, {} misses, {} artifacts",
            cache.hits, cache.misses, cache.entries
        );
        print_durations(&self.metrics);
    }

    /// Runs `source` on all three backends under a fresh metrics registry
    /// and reports per-phase durations plus the Fig. 11 step count.
    fn profile(&mut self, source: &str) {
        if !units::trace::COMPILED {
            println!(";; tracing not compiled in; rebuild with --features trace");
            return;
        }
        let metrics = Arc::new(Metrics::new());
        units::trace::install(
            Rc::new(RefCell::new(units::trace::NullSink)),
            Arc::clone(&metrics),
        );
        let runs = self.load(source).map(|p| {
            (
                p.run_on(Backend::Compiled),
                p.run_on(Backend::Reducer),
                p.run_on(Backend::Bytecode),
            )
        });
        units::trace::uninstall();
        let (compiled, reduced, bytecode) = match runs {
            Ok(triple) => triple,
            Err(e) => {
                eprintln!("{e}");
                return;
            }
        };
        match (&compiled, &reduced, &bytecode) {
            (Ok(a), Ok(b), Ok(c)) if a == b && b == c => {
                println!(";; all three backends: {}", a.value);
            }
            (Ok(a), Ok(b), Ok(c)) => {
                println!(
                    ";; BACKENDS DISAGREE: compiled={} reduced={} bytecode={}",
                    a.value, b.value, c.value
                );
            }
            (Err(e), _, _) => eprintln!("compiled backend: {e}"),
            (_, Err(e), _) => eprintln!("reducer backend: {e}"),
            (_, _, Err(e)) => eprintln!("bytecode backend: {e}"),
        }
        println!(";; Fig. 11 steps: {}", metrics.counter("reduce/steps"));
        println!(";; prim calls: compiled {}, reducer {}",
            metrics.counter("prim/calls"),
            metrics.counter("reduce/prim_calls"));
        print_durations(&metrics);
        // Fold the profile into the session totals so `:stats` sees it.
        for (name, value) in metrics.counters() {
            self.metrics.add(name, value);
        }
    }
}

fn print_durations(metrics: &Metrics) {
    let durations = metrics.durations();
    if durations.is_empty() {
        return;
    }
    println!(";; phase durations:");
    println!(";;   {:<10} {:>6} {:>12} {:>12}", "phase", "count", "total", "mean");
    for (name, stats) in &durations {
        println!(
            ";;   {:<10} {:>6} {:>12} {:>12}",
            name,
            stats.count,
            format_ns(stats.total_ns),
            format_ns(stats.mean_ns())
        );
    }
}

/// Renders nanoseconds with a human unit.
fn format_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns}ns"),
        10_000..=9_999_999 => format!("{}µs", ns / 1_000),
        10_000_000..=9_999_999_999 => format!("{}ms", ns / 1_000_000),
        _ => format!("{}s", ns / 1_000_000_000),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paren_balance_tracks_strings_and_comments() {
        assert_eq!(paren_balance("(+ 1 2)"), Ok(0));
        assert_eq!(paren_balance("(define x"), Ok(1));
        assert_eq!(paren_balance("((("), Ok(3));
        assert_eq!(paren_balance("\"(((\""), Ok(0));
        assert_eq!(paren_balance("; (((\n"), Ok(0));
        assert_eq!(paren_balance("(display \"a)b\")"), Ok(0));
        assert_eq!(paren_balance("(f \"esc\\\")\")"), Ok(0));
        assert_eq!(paren_balance(")("), Err(()));
    }

    #[test]
    fn format_ns_picks_units() {
        assert_eq!(format_ns(5), "5ns");
        assert_eq!(format_ns(25_000), "25µs");
        assert_eq!(format_ns(42_000_000), "42ms");
        assert_eq!(format_ns(12_000_000_000), "12s");
    }
}
