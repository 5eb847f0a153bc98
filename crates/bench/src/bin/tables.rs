//! Prints every experiment's series as aligned text tables — the
//! numbers recorded in EXPERIMENTS.md: who wins, by what factor, and how
//! each system scales.
//!
//! Run with: `cargo run --release -p bench --bin tables`
//!
//! Flags:
//!
//! * `--json`  — also write every record (plus, with the `trace`
//!   feature, a pipeline metrics snapshot of the even/odd example, and
//!   in every build the engine's always-on metrics snapshot with invoke
//!   p50/p99) to `BENCH_trace.json`, self-validated with
//!   `units_trace::json`, so the perf trajectory is machine-readable
//!   run over run;
//! * `--chrome-trace` — write the pipeline phase spans of the even/odd
//!   example as `CHROME_trace.json` (Chrome/Perfetto `traceEvents`
//!   format; empty but valid without `--features trace`);
//! * `--quick` — smaller sizes and fewer repetitions (CI smoke mode).

use std::time::Instant;

use bench::{
    alias_chain, alias_chain_unit, chain_program, cycle_program, deep_let_program, deep_signature,
    even_odd_program, one_unit, plugin_signature, plugin_source, repeated_invoke, star_program,
    wide_signature, wide_typed_unit,
};
use units::{
    check_program, expand_ty, subtype, type_of, Archive, Backend, CheckOptions, Engine, Equations,
    Level, Strictness, Ty,
};

/// Median wall time of `runs` executions, in microseconds.
fn time_us(runs: u32, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Minimum wall time of `runs` executions, in microseconds — the
/// statistic for an A/B point, since noise from scheduling and caches
/// is strictly additive.
fn min_us(runs: u32, mut f: impl FnMut()) -> f64 {
    (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

/// A warm evaluation session: checks and resolution are paid once at
/// `load_expr`; each timed `run_on` then measures evaluation alone.
fn session() -> Engine {
    Engine::builder().strictness(Strictness::MzScheme).build()
}

/// Times `backend` on an already-loaded artifact, after one untimed
/// warm-up run (the warm-up pays the lazy chunk lowering for the
/// bytecode backend — §4.1.6's one-copy-of-the-code invariant means
/// that cost is per-program, not per-run).
fn time_backend(runs: u32, loaded: &units::Loaded, backend: Backend) -> f64 {
    loaded.run_on(backend).unwrap();
    time_us(runs, || {
        loaded.run_on(backend).unwrap();
    })
}

fn header(title: &str) {
    println!("\n== {title} {}", "=".repeat(60usize.saturating_sub(title.len())));
}

/// One measured point: which experiment/series, at what size, and the
/// measured columns (name → microseconds or ratio).
struct Record {
    experiment: &'static str,
    series: String,
    size: String,
    values: Vec<(&'static str, f64)>,
}

/// Collects records for the `--json` summary while the tables print.
#[derive(Default)]
struct Recorder {
    records: Vec<Record>,
}

impl Recorder {
    fn push(
        &mut self,
        experiment: &'static str,
        series: impl Into<String>,
        size: impl ToString,
        values: Vec<(&'static str, f64)>,
    ) {
        self.records.push(Record {
            experiment,
            series: series.into(),
            size: size.to_string(),
            values,
        });
    }

    /// The whole run as one JSON document, with `pipeline_metrics` the
    /// traced registry's snapshot. Floats are rendered with three
    /// decimals (µs resolution is noise beyond that).
    fn to_json(&self, quick: bool, pipeline_metrics: &str) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"bench\":\"tables\",\"quick\":{quick},\"host_parallelism\":{},\"trace_compiled\":{},",
            host_parallelism(),
            units_trace::COMPILED
        ));
        out.push_str("\"records\":[");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"experiment\":{},\"series\":{},\"size\":{}",
                units_trace::json::escape(r.experiment),
                units_trace::json::escape(&r.series),
                units_trace::json::escape(&r.size)
            ));
            for (name, value) in &r.values {
                out.push_str(&format!(",{}:{value:.3}", units_trace::json::escape(name)));
            }
            out.push('}');
        }
        out.push_str("],");
        out.push_str(&format!("\"engine_metrics\":{},", engine_metrics_json()));
        out.push_str(&format!("\"pipeline_metrics\":{pipeline_metrics}"));
        out.push('}');
        out
    }
}

/// What the machine can actually run in parallel. Recorded in the JSON
/// header so the thread-count series (B.9, B.10) can be read against
/// the host's cores: on a 1-core runner a wall-clock speedup is
/// physically impossible.
fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The engine's always-on metrics plane over a short warm session:
/// even/odd on all three backends plus one repeated load (a cache
/// hit). Works identically with and without the `trace` feature — the
/// invoke-latency percentiles in particular are present in every build.
fn engine_metrics_json() -> String {
    let engine = session();
    let src = units::pretty_expr(&even_odd_program(100));
    let p = engine.load(&src).unwrap();
    p.run_on(Backend::Compiled).unwrap();
    p.run_on(Backend::Reducer).unwrap();
    p.run_on(Backend::Bytecode).unwrap();
    // The same source text again: a recorded hit.
    engine.load(&src).unwrap();
    engine.metrics_snapshot().to_json().render()
}

/// Runs the even/odd example once on each backend under a fresh
/// metrics registry and returns it: its counters and durations go into
/// `BENCH_trace.json` (the bytecode run contributes its per-opcode
/// `vm/op/…` counters) and its phase spans into `CHROME_trace.json`.
/// Without the `trace` feature the hooks are no-ops and the registry
/// stays empty, so both views are empty but valid.
fn traced_even_odd() -> std::sync::Arc<units_trace::Metrics> {
    let metrics = std::sync::Arc::new(units_trace::Metrics::new());
    units_trace::install(
        std::rc::Rc::new(std::cell::RefCell::new(units_trace::NullSink)),
        std::sync::Arc::clone(&metrics),
    );
    let engine = session();
    let p = engine.load_expr(even_odd_program(100)).unwrap();
    p.run_on(Backend::Compiled).unwrap();
    p.run_on(Backend::Reducer).unwrap();
    p.run_on(Backend::Bytecode).unwrap();
    units_trace::uninstall();
    metrics
}

fn main() {
    let mut json = false;
    let mut quick = false;
    let mut chrome = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--quick" => quick = true,
            "--chrome-trace" => chrome = true,
            other => {
                eprintln!(
                    "unknown flag {other:?}; usage: tables [--json] [--chrome-trace] [--quick]"
                );
                std::process::exit(2);
            }
        }
    }
    let mut rec = Recorder::default();
    let runs = if quick { 3 } else { 9 };

    header("link_reduction (Figs. 8/11): linking time vs. graph size");
    println!(
        "{:>6} {:>8} {:>14} {:>14} {:>8}",
        "shape", "units", "compiled µs", "reducer µs", "ratio"
    );
    for (shape, make) in [
        ("chain", chain_program as fn(usize) -> units::Expr),
        ("star", star_program as fn(usize) -> units::Expr),
        ("cycle", cycle_program as fn(usize) -> units::Expr),
    ] {
        for n in if quick { &[2usize, 4][..] } else { &[2usize, 4, 8, 16][..] } {
            let engine = session();
            let p = engine.load_expr(make(*n)).unwrap();
            let c = time_backend(runs, &p, Backend::Compiled);
            let r = time_backend(runs, &p, Backend::Reducer);
            println!("{shape:>6} {n:>8} {c:>14.1} {r:>14.1} {:>8.1}", r / c);
            rec.push(
                "link_reduction",
                shape,
                n,
                vec![("compiled_us", c), ("reducer_us", r), ("ratio", r / c)],
            );
        }
    }

    header("invoke_backends (§4.1.6): compiled vs. substitution vs. bytecode");
    println!(
        "{:>8} {:>13} {:>12} {:>13} {:>7} {:>7}",
        "depth", "compiled µs", "reducer µs", "bytecode µs", "r/c", "c/vm"
    );
    for depth in if quick { &[25i64, 100][..] } else { &[25i64, 100, 400, 1600][..] } {
        let engine = session();
        let p = engine.load_expr(even_odd_program(*depth)).unwrap();
        let c = time_backend(runs, &p, Backend::Compiled);
        let r = time_backend(runs, &p, Backend::Reducer);
        let b = time_backend(runs, &p, Backend::Bytecode);
        println!("{depth:>8} {c:>13.1} {r:>12.1} {b:>13.1} {:>7.1} {:>6.2}x", r / c, c / b);
        rec.push(
            "invoke_backends",
            "even_odd",
            depth,
            vec![
                ("compiled_us", c),
                ("reducer_us", r),
                ("bytecode_us", b),
                ("ratio", r / c),
                ("vm_speedup", c / b),
            ],
        );
    }

    header("invoke_bytecode (B.2): flat-chunk dispatch vs. compiled tree-walk");
    println!(
        "{:>14} {:>8} {:>13} {:>13} {:>8}",
        "series", "size", "compiled µs", "bytecode µs", "speedup"
    );
    // Minimum over many runs: the workloads are warm single-artifact
    // evaluations, so scheduling noise dominates a median at these run
    // times.
    let vm_runs = if quick { 10 } else { 40 };
    let vm_point = |rec: &mut Recorder, series: &'static str, size: String, expr: units::Expr| {
        let engine = session();
        let p = engine.load_expr(expr).unwrap();
        p.run_on(Backend::Compiled).unwrap();
        p.run_on(Backend::Bytecode).unwrap();
        let c = min_us(vm_runs, || {
            p.run_on(Backend::Compiled).unwrap();
        });
        let b = min_us(vm_runs, || {
            p.run_on(Backend::Bytecode).unwrap();
        });
        println!("{series:>14} {size:>8} {c:>13.1} {b:>13.1} {:>7.2}x", c / b);
        rec.push(
            "invoke_backends",
            format!("invoke_bytecode/{series}"),
            size,
            vec![("compiled_us", c), ("bytecode_us", b), ("speedup", c / b)],
        );
    };
    for depth in if quick { &[100i64][..] } else { &[100i64, 400, 1600][..] } {
        vm_point(&mut rec, "even_odd", depth.to_string(), even_odd_program(*depth));
    }
    for (d, w) in
        if quick { &[(64usize, 8usize)][..] } else { &[(128usize, 8usize), (256, 16)][..] }
    {
        vm_point(&mut rec, "deep_let", format!("{d}x{w}"), deep_let_program(*d, *w));
    }
    for count in if quick { &[100usize][..] } else { &[100usize, 1000][..] } {
        vm_point(&mut rec, "repeat_invoke", count.to_string(), repeated_invoke(one_unit(), *count));
    }

    header("instantiation (§4.1.6): per-instance cost stays flat");
    println!("{:>10} {:>14} {:>16}", "instances", "total µs", "per-instance µs");
    for count in if quick { &[1usize, 10][..] } else { &[1usize, 10, 100, 1000][..] } {
        let engine = session();
        let p = engine.load_expr(repeated_invoke(one_unit(), *count)).unwrap();
        let t = time_backend(runs, &p, Backend::Compiled);
        println!("{count:>10} {t:>14.1} {:>16.3}", t / *count as f64);
        rec.push(
            "instantiation",
            "repeated_invoke",
            count,
            vec![("total_us", t), ("per_instance_us", t / *count as f64)],
        );
    }

    header("repeat_invoke (engine): cold pipeline vs. warm artifact cache");
    println!("{:>8} {:>14} {:>14} {:>8}", "depth", "cold µs", "warm µs", "speedup");
    for depth in if quick { &[25i64, 100][..] } else { &[25i64, 100, 400][..] } {
        let src = units::pretty_expr(&even_odd_program(*depth));
        // Cold: a fresh engine per run pays parse + Fig. 10 checks +
        // resolution every time.
        let cold = time_us(runs, || {
            let engine = Engine::builder().strictness(Strictness::MzScheme).build();
            engine.invoke(&src).unwrap();
        });
        // Warm: one session; repeated invokes hit the artifact cache and
        // only pay evaluation.
        let engine = Engine::builder().strictness(Strictness::MzScheme).build();
        engine.invoke(&src).unwrap();
        let warm = time_us(runs, || {
            engine.invoke(&src).unwrap();
        });
        println!("{depth:>8} {cold:>14.1} {warm:>14.1} {:>7.2}x", cold / warm);
        rec.push(
            "repeat_invoke",
            "even_odd",
            depth,
            vec![("cold_us", cold), ("warm_us", warm), ("speedup", cold / warm)],
        );
    }

    header("store_warm_start (B.11): cold pipeline vs. disk-warmed fresh engine");
    println!("{:>8} {:>14} {:>14} {:>8}", "depth", "cold µs", "disk µs", "speedup");
    for depth in if quick { &[25i64, 100][..] } else { &[25i64, 100, 400][..] } {
        let src = units::pretty_expr(&even_odd_program(*depth));
        let dir =
            std::env::temp_dir().join(format!("units-bench-store-{}-{depth}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Pre-warm the directory, then drop the writer so each timed
        // engine takes the write lock cleanly.
        {
            let writer = Engine::builder().strictness(Strictness::MzScheme).cache_dir(&dir).build();
            writer.invoke(&src).unwrap();
        }
        // Cold: a fresh engine per run pays the whole pipeline.
        let cold = time_us(runs, || {
            let engine = Engine::builder().strictness(Strictness::MzScheme).build();
            engine.invoke(&src).unwrap();
        });
        // Disk-warm: a fresh engine per run — the cross-process restart
        // shape — answers from the verified on-disk artifact instead of
        // parsing, checking, and resolving.
        let disk = time_us(runs, || {
            let engine = Engine::builder().strictness(Strictness::MzScheme).cache_dir(&dir).build();
            engine.invoke(&src).unwrap();
        });
        println!("{depth:>8} {cold:>14.1} {disk:>14.1} {:>7.2}x", cold / disk);
        rec.push(
            "store_warm_start",
            "even_odd",
            depth,
            vec![("cold_us", cold), ("disk_us", disk), ("speedup", cold / disk)],
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    header("typecheck (Fig. 15): cost vs. interface width / graph size");
    println!("{:>14} {:>8} {:>12}", "series", "size", "µs");
    for width in if quick { &[4usize, 16][..] } else { &[4usize, 16, 64, 256][..] } {
        let unit = wide_typed_unit(*width);
        let t = time_us(runs, || {
            type_of(&unit, Level::Constructed).unwrap();
        });
        println!("{:>14} {width:>8} {t:>12.1}", "unit_width");
        rec.push("typecheck", "unit_width", width, vec![("us", t)]);
    }
    for n in if quick { &[4usize, 16][..] } else { &[4usize, 16, 64][..] } {
        let program = chain_program(*n);
        let t = time_us(runs, || {
            check_program(
                &program,
                CheckOptions { level: Level::Untyped, strictness: Strictness::MzScheme },
            )
            .unwrap();
        });
        println!("{:>14} {n:>8} {t:>12.1}", "context_chain");
        rec.push("typecheck", "context_chain", n, vec![("us", t)]);
    }

    header("ablation: valuability analysis / merge α-renaming");
    println!("{:>22} {:>8} {:>12}", "series", "size", "µs");
    for n in if quick { &[16usize][..] } else { &[16usize, 64][..] } {
        let program = chain_program(*n);
        for (label, strictness) in
            [("paper", Strictness::Paper), ("mzscheme", Strictness::MzScheme)]
        {
            let t = time_us(runs, || {
                check_program(&program, CheckOptions { level: Level::Untyped, strictness })
                    .unwrap();
            });
            println!("{:>22} {n:>8} {t:>12.1}", format!("valuability/{label}"));
            rec.push("ablation", format!("valuability/{label}"), n, vec![("us", t)]);
        }
    }
    for n in if quick { &[4usize, 8][..] } else { &[4usize, 8, 16][..] } {
        for (label, make) in [
            ("merge/disjoint", chain_program as fn(usize) -> units::Expr),
            ("merge/colliding", bench::colliding_chain_program as fn(usize) -> units::Expr),
        ] {
            let engine = session();
            let p = engine.load_expr(make(*n)).unwrap();
            let t = time_backend(runs, &p, Backend::Reducer);
            println!("{:>22} {n:>8} {t:>12.1}", label);
            rec.push("ablation", label, n, vec![("us", t)]);
        }
    }

    header("subtyping (Figs. 14/17): wide and deep signatures");
    println!("{:>8} {:>8} {:>12}", "series", "size", "µs");
    for width in if quick { &[4usize, 16][..] } else { &[4usize, 16, 64, 256][..] } {
        let specific = Ty::sig(wide_signature(*width, 8));
        let general = Ty::sig(wide_signature(*width, 0));
        let t = time_us(runs, || {
            subtype(&Equations::new(), &specific, &general).unwrap();
        });
        println!("{:>8} {width:>8} {t:>12.1}", "width");
        rec.push("subtyping", "width", width, vec![("us", t)]);
    }
    for depth in if quick { &[2usize, 4][..] } else { &[2usize, 4, 8, 16][..] } {
        let ty = deep_signature(*depth);
        let t = time_us(runs, || {
            subtype(&Equations::new(), &ty, &ty).unwrap();
        });
        println!("{:>8} {depth:>8} {t:>12.1}", "depth");
        rec.push("subtyping", "depth", depth, vec![("us", t)]);
    }

    header("dependency_analysis (Figs. 18/19): expansion & UNITe checking");
    println!("{:>12} {:>8} {:>12}", "series", "chain", "µs");
    for n in if quick { &[4usize, 16][..] } else { &[4usize, 16, 64, 256][..] } {
        let eqs = alias_chain(*n);
        let target = Ty::var(format!("a{}", n - 1));
        let t = time_us(runs, || {
            eqs.check_acyclic().unwrap();
            expand_ty(&target, &eqs).unwrap();
        });
        println!("{:>12} {n:>8} {t:>12.1}", "expand");
        rec.push("dependency_analysis", "expand", n, vec![("us", t)]);
    }
    for n in if quick { &[4usize][..] } else { &[4usize, 16, 64][..] } {
        let unit = alias_chain_unit(*n);
        let t = time_us(runs, || {
            type_of(&unit, Level::Equations).unwrap();
        });
        println!("{:>12} {n:>8} {t:>12.1}", "unite_check");
        rec.push("dependency_analysis", "unite_check", n, vec![("us", t)]);
    }

    header("dynlink (Fig. 7 / §3.4): per-load cost of checked loading");
    println!("{:>10} {:>16} {:>16}", "archive", "load+check µs", "load+run µs");
    for count in if quick { &[1usize, 8][..] } else { &[1usize, 8, 64][..] } {
        let mut archive = Archive::new();
        for i in 0..*count {
            archive.publish(format!("p{i}"), plugin_source(i));
        }
        let expected = plugin_signature();
        let t_load = time_us(runs, || {
            archive.load("p0", &expected, CheckOptions::typed(Level::Constructed)).unwrap();
        });
        let run_engine = session();
        let t_run = time_us(runs, || {
            let unit =
                archive.load("p0", &expected, CheckOptions::typed(Level::Constructed)).unwrap();
            let expr = units::Expr::app(
                units::Expr::invoke(units_kernel::InvokeExpr {
                    target: unit,
                    ty_links: vec![],
                    val_links: vec![(
                        "log".into(),
                        units::parse_expr("(lambda (s) void)").unwrap(),
                    )],
                }),
                vec![units::Expr::int(1)],
            );
            run_engine.load_expr(expr).and_then(|p| p.run()).unwrap();
        });
        println!("{count:>10} {t_load:>16.1} {t_run:>16.1}");
        rec.push(
            "dynlink",
            "archive",
            count,
            vec![("load_check_us", t_load), ("load_run_us", t_run)],
        );
    }

    header("parallel_scaling (B.9): threads vs. concurrent invoke");
    println!(
        "{:>17} {:>8} {:>14} {:>8}  (host parallelism: {})",
        "series",
        "threads",
        "µs",
        "speedup",
        host_parallelism()
    );
    // Concurrent invoke: one shared engine, one cached artifact, a fixed
    // total of invocations split across t threads. Invocation is
    // read-only against the shared artifact, so this measures how much
    // the engine's interior locking costs under contention.
    let invoke_src = units::pretty_expr(&even_odd_program(100));
    let invoke_total = if quick { 32usize } else { 128 };
    let shared = session();
    let warm = shared.load(&invoke_src).unwrap();
    warm.run_on(Backend::Bytecode).unwrap(); // pay the one-time lowering
    let mut invoke_base = 0.0f64;
    for threads in [1usize, 2, 4, 8] {
        let per_thread = invoke_total / threads;
        let t = time_us(runs, || {
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        let loaded = shared.load(&invoke_src).unwrap();
                        for _ in 0..per_thread {
                            loaded.run_on(Backend::Bytecode).unwrap();
                        }
                    });
                }
            });
        });
        if threads == 1 {
            invoke_base = t;
        }
        let speedup = invoke_base / t;
        println!("{:>17} {threads:>8} {t:>14.1} {speedup:>7.2}x", "concurrent_invoke");
        rec.push(
            "parallel_scaling",
            "concurrent_invoke",
            threads,
            vec![("us", t), ("speedup", speedup)],
        );
    }

    header("unit_service (B.10): in-process Service requests/sec");
    // The service path adds tenancy bookkeeping, admission control, and
    // the call artifact's application to the argument on top of a bare
    // `run_on`; this series prices that stack and how it holds up under
    // tenant concurrency. In-process on purpose: the socket would only add
    // constant framing cost, and B.10 tracks the service core.
    println!("{:>12} {:>8} {:>12} {:>10} {:>10}", "series", "tenants", "req/s", "p50 µs", "p99 µs");
    let request_total = if quick { 64usize } else { 512 };
    for tenants in [1usize, 2, 4] {
        let service = units_serve::Service::builder()
            .level(Level::Untyped)
            .caps(units::Limits::none().fuel(1_000_000))
            .build();
        let square = "(unit (import) (export) (init (lambda (n) (* n n))))";
        for t in 0..tenants {
            let tenant = service.tenant(&format!("tenant-{t}"));
            tenant.load_plugin("f", square, None).unwrap();
            tenant.invoke("f", Some(1)).unwrap(); // build the call artifact
        }
        let per_tenant = request_total / tenants;
        let start = Instant::now();
        let mut latencies: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..tenants)
                .map(|t| {
                    let tenant = service.tenant(&format!("tenant-{t}"));
                    scope.spawn(move || {
                        let mut micros = Vec::with_capacity(per_tenant);
                        for i in 0..per_tenant {
                            let arg = (i % 50) as i64;
                            let begin = Instant::now();
                            let outcome = tenant.invoke("f", Some(arg)).unwrap();
                            micros.push(begin.elapsed().as_micros() as u64);
                            assert_eq!(
                                outcome.value,
                                units::Observation::Int(arg * arg),
                                "tenant-{t} request {i}"
                            );
                        }
                        micros
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let wall = start.elapsed().as_secs_f64();
        latencies.sort_unstable();
        let total = latencies.len();
        let req_per_s = total as f64 / wall;
        let p50 = latencies[total / 2] as f64;
        let p99 = latencies[(total * 99 / 100).min(total - 1)] as f64;
        println!("{:>12} {tenants:>8} {req_per_s:>12.0} {p50:>10.1} {p99:>10.1}", "throughput");
        rec.push(
            "unit_service",
            "throughput",
            tenants,
            vec![("req_per_s", req_per_s), ("p50_us", p50), ("p99_us", p99)],
        );
    }

    if json || chrome {
        let metrics = traced_even_odd();
        if json {
            let doc = rec.to_json(quick, &metrics.to_json());
            units_trace::json::parse(&doc)
                .unwrap_or_else(|e| panic!("BENCH_trace.json would be invalid at {e:?}"));
            std::fs::write("BENCH_trace.json", &doc).expect("write BENCH_trace.json");
            println!(
                "\nWrote BENCH_trace.json ({} records, pipeline metrics {}).",
                rec.records.len(),
                if units_trace::COMPILED { "included" } else { "empty — built without trace" }
            );
        }
        if chrome {
            let doc = metrics.chrome_trace_json();
            units_trace::json::parse(&doc)
                .unwrap_or_else(|e| panic!("CHROME_trace.json would be invalid at {e:?}"));
            std::fs::write("CHROME_trace.json", &doc).expect("write CHROME_trace.json");
            println!(
                "Wrote CHROME_trace.json ({}).",
                if units_trace::COMPILED {
                    "open in chrome://tracing or Perfetto"
                } else {
                    "empty — built without trace"
                }
            );
        }
    }
    println!("\nDone. Record these series in EXPERIMENTS.md.");
}
