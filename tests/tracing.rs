//! Observability invariants: event streams are deterministic, the
//! no-event path changes nothing observable, the reducer's event
//! stream is an exact account of its Fig. 11 step count, and the three
//! backends' `prim` streams agree.
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
        let (value, events) = units::trace::capture(|| reducer.reduce_to_value(program.expr()));
        value.unwrap();
        let step_events: Vec<_> = events.iter().filter(|e| e.kind.starts_with("step/")).collect();
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

/// Every backend renders a primitive application with the shared
/// `units_runtime::render_prim_call` formatter, so on programs all three
/// run cleanly the reducer, the tree-walker and the VM emit the same
/// stream of `prim` payloads.
#[cfg(feature = "trace")]
#[test]
fn prim_streams_agree_across_backends() {
    let engine = Engine::new();
    for (name, src) in stdlib_programs() {
        let program = engine.load(&src).unwrap();
        let prims = |backend| {
            let (outcome, events) = units::trace::capture(|| program.run_on(backend));
            outcome.unwrap();
            events.into_iter().filter(|e| e.kind == "prim").map(|e| e.payload).collect::<Vec<_>>()
        };
        let reduced = prims(Backend::Reducer);
        assert!(!reduced.is_empty(), "{name}: no prim calls");
        for backend in [Backend::Compiled, Backend::Bytecode] {
            assert_eq!(prims(backend), reduced, "{name}: {backend:?} vs the reducer");
        }
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
    units::trace::install(Rc::new(RefCell::new(units::trace::NullSink)), Arc::clone(&metrics));
    let engine = Engine::new();
    engine.load(EVEN_ODD).unwrap().run_on(Backend::Compiled).unwrap();
    units::trace::uninstall();
    let doc = metrics.chrome_trace_json();
    units::trace::json::parse(&doc).expect("chrome trace is valid JSON");
    assert!(doc.contains("\"traceEvents\""), "{doc}");
    assert!(doc.contains("\"name\":\"eval\""), "the eval phase span is present: {doc}");
    assert!(!metrics.spans().is_empty());
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
        units::trace::json::parse(line).unwrap_or_else(|e| panic!("bad event JSON {e:?}: {line}"));
    }
    units::trace::json::parse(&metrics.to_json()).expect("metrics snapshot is JSON");
    assert!(metrics.counter("reduce/steps") > 0, "step counter folded into metrics");
}
