//! Observability invariants: event streams are deterministic, the
//! no-event path changes nothing observable, and the reducer's event
//! stream is an exact account of its Fig. 11 step count.
//!
//! Everything here needs the `trace` cargo feature except the
//! NullSink-identity test, which also pins the no-op build's behavior.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

#[cfg(feature = "trace")]
use units::Backend;
use units::Engine;

/// The stdlib programs these tests replay: the paper's running examples
/// (Figs. 1–8) plus the cyclic even/odd of Fig. 12.
fn stdlib_programs() -> Vec<(&'static str, String)> {
    vec![
        ("ipb", units::stdlib::ipb_program()),
        ("make-ipb-novice", units::stdlib::make_ipb_program(false)),
        ("make-ipb-expert", units::stdlib::make_ipb_program(true)),
        ("plugin", units::stdlib::plugin_program(&units::stdlib::sample_loader_plugin())),
        ("even-odd", EVEN_ODD.to_string()),
    ]
}

const EVEN_ODD: &str = "(invoke (compound (import) (export)
    (link ((unit (import odd) (export even)
             (define even (lambda (n) (if (= n 0) true (odd (- n 1))))))
           (with odd) (provides even))
          ((unit (import even) (export odd)
             (define odd (lambda (n) (if (= n 0) false (even (- n 1)))))
             (init (odd 13)))
           (with even) (provides odd)))))";

/// Running with a `NullSink` installed is observably identical to running
/// with no session at all — in both feature configurations (without
/// `trace`, `install` itself is a no-op and this pins that too).
#[test]
fn null_sink_is_observably_inert() {
    let engine = Engine::new();
    for (name, src) in stdlib_programs() {
        let program = engine.load(&src).unwrap();
        let bare = program.run_differential().unwrap();
        units::trace::install(
            Rc::new(RefCell::new(units::trace::NullSink)),
            Arc::new(units::trace::Metrics::new()),
        );
        let sunk = program.run_differential().unwrap();
        units::trace::uninstall();
        assert_eq!(bare, sunk, "{name}: NullSink changed the outcome");
    }
}

/// The same program run twice produces byte-identical event streams —
/// events carry no wall-clock data, so traces are reproducible.
#[cfg(feature = "trace")]
#[test]
fn event_streams_are_deterministic() {
    for (name, src) in stdlib_programs() {
        for backend in [Backend::Compiled, Backend::Reducer, Backend::Bytecode] {
            let run = || {
                let engine = Engine::new();
                let program = engine.load(&src).unwrap();
                let (outcome, events) = units::trace::capture(|| program.run_on(backend));
                outcome.unwrap();
                events.iter().map(units::trace::Event::to_json).collect::<Vec<_>>()
            };
            let first = run();
            let second = run();
            assert!(!first.is_empty(), "{name}: no events captured");
            assert_eq!(first, second, "{name} ({backend:?}): nondeterministic stream");
        }
    }
}

/// The reducer's Reduce-phase `step/…` events are a complete account of
/// its work: exactly one event per reduction, so the stream length equals
/// [`units::Reducer::steps`], and each payload is the 1-based step index.
#[cfg(feature = "trace")]
#[test]
fn step_events_match_the_reducers_step_count() {
    let engine = Engine::new();
    for (name, src) in stdlib_programs() {
        let program = engine.load(&src).unwrap();
        let mut reducer = units::Reducer::new();
        let (value, events) =
            units::trace::capture(|| reducer.reduce_to_value(program.expr()));
        value.unwrap();
        let step_events: Vec<_> =
            events.iter().filter(|e| e.kind.starts_with("step/")).collect();
        assert!(reducer.steps() > 0, "{name}: no reductions happened");
        assert_eq!(
            step_events.len() as u64,
            reducer.steps(),
            "{name}: {} step events vs {} reported steps",
            step_events.len(),
            reducer.steps()
        );
        for (i, e) in step_events.iter().enumerate() {
            assert_eq!(e.payload, (i as u64 + 1).to_string(), "{name}: step payload");
        }
    }
}

/// Runs `src` with a reducer whose δ-rules are deliberately broken after
/// `diverge_after` steps (trace-only [`units::Reducer`] fault injection),
/// while the production backends stay clean — the modern
/// [`units::diagnose_divergence_with`] closure shape.
#[cfg(feature = "trace")]
fn diverging_run(
    src: &str,
    fuel: u64,
    diverge_after: Option<u64>,
) -> impl Fn(Backend) -> Result<units::Outcome, units::Error> + '_ {
    move |backend| {
        let engine =
            Engine::builder().limits(units::Limits::none().fuel(fuel)).build();
        let program = engine.load(src)?;
        match backend {
            Backend::Reducer => {
                let mut reducer = units::Reducer::with_fuel(fuel);
                if let Some(after) = diverge_after {
                    reducer.inject_divergence_after(after);
                }
                let value = reducer.reduce_to_value(program.expr())?;
                Ok(units::Outcome {
                    value: units::observe_expr(&value),
                    output: reducer.machine.take_output(),
                })
            }
            other => program.run_on(other),
        }
    }
}

/// An injected reducer fault makes the backends disagree, and the
/// divergence report names the exact primitive call and Fig. 11 step
/// where their streams part ways.
#[cfg(feature = "trace")]
#[test]
fn divergence_report_names_the_first_diverging_step() {
    // The fault makes `(- n 1)` come back as `n`, so even/odd would loop
    // forever — fuel bounds the broken reducer run; the streams diverge
    // long before it runs out.
    let report = units::diagnose_divergence_with(
        Backend::Compiled,
        diverging_run(EVEN_ODD, 10_000, Some(0)),
    );
    let call = report.diverging_call.expect("fault injection must diverge the streams");
    let step = report.diverging_step.expect("a diverging call happens during some step");
    assert!(step >= 1, "steps are 1-based");
    assert_ne!(report.compiled_call, report.reduced_call, "renderings must differ");
    let text = report.to_string();
    assert!(
        text.contains(&format!("#{}", call + 1)) && text.contains(&format!("step {step}")),
        "report names call and step: {text}"
    );

    // Sanity: without injection the same program's streams agree.
    let clean = units::diagnose_divergence_with(
        Backend::Compiled,
        diverging_run(EVEN_ODD, 10_000, None),
    );
    assert_eq!(clean.diverging_call, None, "{clean}");
    assert_eq!(clean.prim_calls.0, clean.prim_calls.1);
}

/// The same injected fault diagnosed across every backend pair: both
/// production backends diverge from the broken reducer at the same
/// Fig. 11 step, the step is stable under repeated diagnosis, and the
/// two production backends agree with *each other*.
#[cfg(feature = "trace")]
#[test]
fn divergence_step_is_stable_across_backend_pairs() {
    let run = diverging_run(EVEN_ODD, 10_000, Some(0));

    // Compiled vs broken reducer, and bytecode vs broken reducer: both
    // lefts are clean, so both must part ways from the same broken
    // right-hand stream at the same call and step.
    let cr = units::diagnose_divergence_between(Backend::Compiled, Backend::Reducer, &run);
    let br = units::diagnose_divergence_between(Backend::Bytecode, Backend::Reducer, &run);
    let call = cr.diverging_call.expect("compiled/reducer diverge");
    let step = cr.diverging_step.expect("the call lands in some step");
    assert_eq!(br.diverging_call, Some(call), "bytecode sees the same diverging call");
    assert_eq!(br.diverging_step, Some(step), "…at the same Fig. 11 step");

    // Diagnosis is a pure replay: running it again names the same step.
    let again = units::diagnose_divergence_between(Backend::Compiled, Backend::Reducer, &run);
    assert_eq!(again.diverging_call, Some(call));
    assert_eq!(again.diverging_step, Some(step));

    // The production pair is untouched by the reducer-side fault.
    let cb = units::diagnose_divergence_between(Backend::Compiled, Backend::Bytecode, &run);
    assert_eq!(cb.diverging_call, None, "{cb}");
    assert_eq!(cb.prim_calls.0, cb.prim_calls.1);

    // And with no injection at all, every pair agrees.
    let clean = diverging_run(EVEN_ODD, 10_000, None);
    for (left, right) in [
        (Backend::Compiled, Backend::Reducer),
        (Backend::Bytecode, Backend::Reducer),
        (Backend::Compiled, Backend::Bytecode),
    ] {
        let report = units::diagnose_divergence_between(left, right, &clean);
        assert_eq!(report.diverging_call, None, "{left:?} vs {right:?}: {report}");
    }
}

/// Adversarial payloads — control characters, quotes, backslashes,
/// astral-plane text — survive the real emit → sink → JSON-line path:
/// every line the zero-dep writer produces parses, and the escaped
/// payload decodes back to the original bytes.
#[cfg(feature = "trace")]
#[test]
fn adversarial_event_payloads_round_trip_through_the_sink() {
    use units::trace::{json, Phase};
    let payloads = [
        "\u{0}\u{1}\u{8}\u{c}\n\r\t\u{1f}".to_string(),
        "quote \" backslash \\ slash / done".to_string(),
        "literal \\u0000 text (already escaped-looking)".to_string(),
        "line\u{2028}and\u{2029}separators, \u{7f}\u{9b}".to_string(),
        "astral 𝄞 and accented é".to_string(),
    ];
    let ((), events) = units::trace::capture(|| {
        for p in &payloads {
            units::trace::emit(Phase::Engine, "test/adversarial", None, || p.clone(), &[]);
        }
    });
    assert_eq!(events.len(), payloads.len());
    for (event, payload) in events.iter().zip(&payloads) {
        assert_eq!(&event.payload, payload, "payload survives the session");
        let line = event.to_json();
        json::parse(&line).unwrap_or_else(|e| panic!("invalid event JSON {e:?}: {line}"));
        let escaped = json::escape(payload);
        assert_eq!(json::parse(&escaped), Ok(json::Json::str(payload.as_str())));
    }
}

/// The span log behind `Metrics::chrome_trace_json` captures the
/// pipeline phases of a real run, and the export is valid JSON in the
/// Chrome `traceEvents` shape.
#[cfg(feature = "trace")]
#[test]
fn chrome_trace_export_is_valid_and_names_the_eval_span() {
    let metrics = Arc::new(units::trace::Metrics::new());
    units::trace::install(
        Rc::new(RefCell::new(units::trace::NullSink)),
        Arc::clone(&metrics),
    );
    let engine = Engine::new();
    engine.load(EVEN_ODD).unwrap().run_on(Backend::Compiled).unwrap();
    units::trace::uninstall();
    let doc = metrics.chrome_trace_json();
    units::trace::json::parse(&doc).expect("chrome trace is valid JSON");
    assert!(doc.contains("\"traceEvents\""), "{doc}");
    assert!(doc.contains("\"name\":\"eval\""), "the eval phase span is present: {doc}");
    assert!(!metrics.spans().is_empty());
}

/// `diagnose_divergence` over an owned handle compares the compiled
/// backend against the reference reducer and reports agreement when the
/// backends agree (the divergence-finding half is covered by the
/// injected-divergence tests elsewhere in this file).
#[cfg(feature = "trace")]
#[test]
fn diagnose_divergence_works_on_loaded_handles() {
    let engine = units::Engine::new();
    let loaded =
        engine.load("(invoke (unit (import) (export) (init (+ 20 22))))").unwrap();
    let report = units::diagnose_divergence(&loaded);
    assert!(report.diverging_call.is_none(), "backends agree: {report}");
    assert_eq!(report.prim_calls.0, report.prim_calls.1);
}

/// Every JSON line the `JsonLinesSink` writes parses, and the metrics
/// snapshot renders as valid JSON too.
#[cfg(feature = "trace")]
#[test]
fn emitted_json_is_valid() {
    let sink = Rc::new(RefCell::new(units::trace::JsonLinesSink::new(Vec::new())));
    let metrics = Arc::new(units::trace::Metrics::new());
    units::trace::install(Rc::clone(&sink) as _, Arc::clone(&metrics));
    Engine::new().load(EVEN_ODD).unwrap().run_differential().unwrap();
    units::trace::uninstall();
    let bytes = Rc::try_unwrap(sink).expect("session dropped").into_inner().into_inner();
    let lines = String::from_utf8(bytes).unwrap();
    assert!(!lines.is_empty(), "no JSON lines written");
    for line in lines.lines() {
        units::trace::json::parse(line)
            .unwrap_or_else(|e| panic!("bad event JSON {e:?}: {line}"));
    }
    units::trace::json::parse(&metrics.to_json()).expect("metrics snapshot is JSON");
    assert!(metrics.counter("reduce/steps") > 0, "step counter folded into metrics");
}
