//! Structured tracing and metrics for the Units pipeline — the
//! observability layer behind `:trace`/`:stats`/`:profile` and
//! `BENCH_trace.json`.
//!
//! # Architecture
//!
//! * [`Event`] — a deterministic record of one interesting step
//!   (a Fig. 11 redex firing, a prim call, a unit being linked), tagged
//!   with its pipeline [`Phase`] and optional source [`Span`].
//! * [`TraceSink`] — where events go: [`NullSink`] (drop),
//!   [`CollectSink`] (buffer), [`JsonLinesSink`] (stream as JSON).
//! * [`Metrics`] — thread-safe monotonic counters plus duration
//!   histograms (with derived p50/p99) and a bounded span log that
//!   exports as a Chrome-trace timeline. Wall-clock data lives *only*
//!   here; events carry no timestamps so two runs of one program yield
//!   identical streams.
//! * [`recorder`] — the flight recorder: a thread-local ring of the
//!   most recent events, dumped as a JSON-lines post-mortem on failure.
//! * The dispatch layer below — [`install`]/[`uninstall`] bind a sink
//!   and a metrics registry to the current thread; [`emit`], [`count`]
//!   and [`time`] are the hooks the pipeline crates call.
//!
//! # Feature gating
//!
//! The types above always compile. The *hooks* are live only with the
//! `trace` cargo feature; without it they are empty `#[inline]`
//! functions with identical signatures, so instrumented call sites look
//! the same in both builds and cost nothing in release binaries
//! (verified by the `invoke_backends` bench). [`COMPILED`] tells a
//! caller at runtime which build it got.
//!
//! # Example
//!
//! ```
//! use units_trace::{capture, count, emit, Phase};
//!
//! let (result, events) = capture(|| {
//!     count("demo/widgets", 2);
//!     emit(Phase::Eval, "demo", None, || "hello".to_string(), &[("demo/evts", 1)]);
//!     21 * 2
//! });
//! assert_eq!(result, 42);
//! if units_trace::COMPILED {
//!     assert_eq!(events.len(), 1);
//!     assert_eq!(events[0].kind, "demo");
//! } else {
//!     assert!(events.is_empty());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod faults;
pub mod json;
mod metrics;
pub mod recorder;
mod sink;

pub use event::{Event, Phase, Span};
pub use metrics::{DurationStats, Metrics, SpanRecord, DURATION_BUCKETS, SPAN_CAPACITY};
pub use recorder::{FlightDump, FlightRecorder};
pub use sink::{CollectSink, JsonLinesSink, NullSink, TraceSink};

/// `true` when this build carries live instrumentation (the `trace`
/// cargo feature). When `false`, every hook in this module is a no-op
/// regardless of [`install`] calls.
pub const COMPILED: bool = cfg!(feature = "trace");

#[cfg(feature = "trace")]
mod dispatch {
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Arc;
    use std::time::Instant;

    use crate::event::{Event, Phase, Span};
    use crate::metrics::Metrics;
    use crate::sink::{CollectSink, TraceSink};

    struct Session {
        sink: Rc<RefCell<dyn TraceSink>>,
        metrics: Arc<Metrics>,
        wants_events: bool,
    }

    thread_local! {
        static SESSION: RefCell<Option<Session>> = const { RefCell::new(None) };
    }

    /// Binds `sink` and `metrics` to the current thread; subsequent
    /// hook calls on this thread feed them until [`uninstall`].
    pub fn install(sink: Rc<RefCell<dyn TraceSink>>, metrics: Arc<Metrics>) {
        let wants_events = sink.borrow().wants_events();
        SESSION.with(|s| {
            *s.borrow_mut() = Some(Session { sink, metrics, wants_events });
        });
    }

    /// Unbinds the current thread's session, if any.
    pub fn uninstall() {
        SESSION.with(|s| *s.borrow_mut() = None);
    }

    /// Whether a session is installed on this thread.
    pub fn active() -> bool {
        SESSION.with(|s| s.borrow().is_some())
    }

    /// The installed session's metrics registry, if any.
    pub fn metrics() -> Option<Arc<Metrics>> {
        SESSION.with(|s| s.borrow().as_ref().map(|sess| sess.metrics.clone()))
    }

    /// Emits one event and folds its `counters` into the metrics.
    ///
    /// `payload` is only rendered when the sink wants events or the
    /// [`crate::recorder`] is active, so tracing with a
    /// [`crate::NullSink`] skips all string building. The flight
    /// recorder sees events even when no session is installed at all.
    pub fn emit(
        phase: Phase,
        kind: &'static str,
        span: Option<Span>,
        payload: impl FnOnce() -> String,
        counters: &[(&'static str, u64)],
    ) {
        // Clone the handles out so the thread-local borrow is released
        // before user code (payload closure, sink) runs — a sink is
        // free to call `count` without deadlocking the RefCell.
        let session = SESSION.with(|s| {
            s.borrow()
                .as_ref()
                .map(|sess| (sess.sink.clone(), sess.metrics.clone(), sess.wants_events))
        });
        let recording = crate::recorder::is_recording();
        let Some((sink, metrics, wants_events)) = session else {
            if recording {
                let event =
                    Event { phase, kind, span, payload: payload(), counters: counters.to_vec() };
                crate::recorder::record(&event);
            }
            return;
        };
        for &(name, delta) in counters {
            metrics.add(name, delta);
        }
        if wants_events || recording {
            let event =
                Event { phase, kind, span, payload: payload(), counters: counters.to_vec() };
            if recording {
                crate::recorder::record(&event);
            }
            if wants_events {
                sink.borrow_mut().event(&event);
            }
        }
    }

    /// Adds `delta` to the counter `name` on the installed metrics.
    pub fn count(name: &'static str, delta: u64) {
        SESSION.with(|s| {
            if let Some(sess) = s.borrow().as_ref() {
                sess.metrics.add(name, delta);
            }
        });
    }

    /// A running timer; records into the duration histogram on drop.
    #[must_use = "a Timer records its duration when dropped"]
    pub struct Timer {
        running: Option<(Arc<Metrics>, &'static str, Instant)>,
    }

    /// Starts timing `name`. Costs nothing when no session is
    /// installed (no clock read).
    pub fn time(name: &'static str) -> Timer {
        let running = metrics().map(|m| (m, name, Instant::now()));
        Timer { running }
    }

    impl Drop for Timer {
        fn drop(&mut self) {
            if let Some((metrics, name, start)) = self.running.take() {
                let elapsed = start.elapsed();
                metrics.record_duration(name, elapsed);
                metrics.record_span(name, start, elapsed);
            }
        }
    }

    /// Runs `f` under a fresh [`CollectSink`] session and returns its
    /// result together with the captured events. Any previously
    /// installed session is suspended and restored afterwards (also on
    /// panic).
    pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<Event>) {
        struct Restore(Option<Session>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.0.take();
                SESSION.with(|s| *s.borrow_mut() = prev);
            }
        }

        let previous = SESSION.with(|s| s.borrow_mut().take());
        let _restore = Restore(previous);
        let sink = Rc::new(RefCell::new(CollectSink::new()));
        install(sink.clone(), Arc::new(Metrics::new()));
        let result = f();
        uninstall();
        let events = sink.borrow_mut().take_events();
        (result, events)
    }
}

#[cfg(not(feature = "trace"))]
mod dispatch {
    //! No-op hooks: the shapes of the live API with empty bodies.

    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Arc;

    use crate::event::{Event, Phase, Span};
    use crate::metrics::Metrics;
    use crate::sink::TraceSink;

    /// No-op without the `trace` feature.
    #[inline(always)]
    pub fn install(_sink: Rc<RefCell<dyn TraceSink>>, _metrics: Arc<Metrics>) {}

    /// No-op without the `trace` feature.
    #[inline(always)]
    pub fn uninstall() {}

    /// Always `false` without the `trace` feature.
    #[inline(always)]
    pub fn active() -> bool {
        false
    }

    /// Always `None` without the `trace` feature.
    #[inline(always)]
    pub fn metrics() -> Option<Arc<Metrics>> {
        None
    }

    /// No-op without the `trace` feature; `payload` is never called.
    #[inline(always)]
    pub fn emit(
        _phase: Phase,
        _kind: &'static str,
        _span: Option<Span>,
        _payload: impl FnOnce() -> String,
        _counters: &[(&'static str, u64)],
    ) {
    }

    /// No-op without the `trace` feature.
    #[inline(always)]
    pub fn count(_name: &'static str, _delta: u64) {}

    /// Inert timer handle without the `trace` feature.
    pub struct Timer;

    /// No-op without the `trace` feature (no clock read).
    #[inline(always)]
    pub fn time(_name: &'static str) -> Timer {
        Timer
    }

    /// Runs `f`; the event list is always empty without the `trace`
    /// feature.
    #[inline(always)]
    pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<Event>) {
        (f(), Vec::new())
    }
}

pub use dispatch::{active, capture, count, emit, install, metrics, time, uninstall, Timer};

#[cfg(all(test, feature = "trace"))]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Arc;

    use super::*;

    #[test]
    fn hooks_are_inert_without_a_session() {
        assert!(!active());
        assert!(metrics().is_none());
        emit(Phase::Eval, "k", None, || unreachable!("payload must not render"), &[]);
        count("x", 1);
        let _t = time("y");
    }

    #[test]
    fn install_routes_events_and_counters() {
        let sink = Rc::new(RefCell::new(CollectSink::new()));
        let registry = Arc::new(Metrics::new());
        install(sink.clone(), registry.clone());
        emit(Phase::Reduce, "step/beta", None, String::new, &[("reduce/steps", 1)]);
        count("reduce/steps", 2);
        {
            let _t = time("reduce");
        }
        uninstall();
        assert!(!active());
        assert_eq!(sink.borrow().events().len(), 1);
        assert_eq!(registry.counter("reduce/steps"), 3);
        assert_eq!(registry.durations()["reduce"].count, 1);
    }

    #[test]
    fn null_sink_skips_payload_rendering_but_keeps_counters() {
        let registry = Arc::new(Metrics::new());
        install(Rc::new(RefCell::new(NullSink)), registry.clone());
        emit(
            Phase::Eval,
            "prim",
            None,
            || unreachable!("NullSink must not render"),
            &[("prim/calls", 1)],
        );
        uninstall();
        assert_eq!(registry.counter("prim/calls"), 1);
    }

    #[test]
    fn capture_restores_the_previous_session() {
        let outer = Rc::new(RefCell::new(CollectSink::new()));
        install(outer.clone(), Arc::new(Metrics::new()));
        let ((), inner_events) = capture(|| {
            emit(Phase::Eval, "inner", None, String::new, &[]);
        });
        assert_eq!(inner_events.len(), 1);
        assert!(active(), "outer session restored");
        emit(Phase::Eval, "outer", None, String::new, &[]);
        uninstall();
        let outer_kinds: Vec<_> = outer.borrow().events().iter().map(|e| e.kind).collect();
        assert_eq!(outer_kinds, vec!["outer"]);
    }
}
