//! Where events go: the [`TraceSink`] trait and its three stock
//! implementations.

use std::io::Write;

use crate::event::Event;

/// A consumer of trace events.
///
/// Sinks receive events synchronously on the emitting thread, in
/// emission order.
pub trait TraceSink {
    /// Handles one event.
    fn event(&mut self, event: &Event);

    /// Whether this sink actually looks at events. Sinks that return
    /// `false` (like [`NullSink`]) let emitters skip building the
    /// payload entirely, so a trace-enabled build with a null sink does
    /// no per-event work beyond counter updates.
    fn wants_events(&self) -> bool {
        true
    }
}

/// Discards every event. Metrics still accumulate.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn event(&mut self, _event: &Event) {}

    fn wants_events(&self) -> bool {
        false
    }
}

/// Buffers every event in memory, for tests and post-hoc diagnosis.
#[derive(Debug, Default)]
pub struct CollectSink {
    events: Vec<Event>,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> CollectSink {
        CollectSink::default()
    }

    /// The events collected so far.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Removes and returns everything collected so far.
    pub fn take_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }
}

impl TraceSink for CollectSink {
    fn event(&mut self, event: &Event) {
        self.events.push(event.clone());
    }
}

/// Writes each event as one JSON object per line (JSON-lines).
///
/// Write errors are swallowed — tracing must never turn a working
/// program run into a failing one.
#[derive(Debug)]
pub struct JsonLinesSink<W: Write> {
    out: W,
}

impl<W: Write> JsonLinesSink<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> JsonLinesSink<W> {
        JsonLinesSink { out }
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> TraceSink for JsonLinesSink<W> {
    fn event(&mut self, event: &Event) {
        let _ = writeln!(self.out, "{}", event.to_json());
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;

    fn sample(kind: &'static str) -> Event {
        Event { phase: Phase::Eval, kind, span: None, payload: "p".into(), counters: vec![] }
    }

    #[test]
    fn collect_sink_keeps_order() {
        let mut sink = CollectSink::new();
        sink.event(&sample("a"));
        sink.event(&sample("b"));
        let events: Vec<_> = sink.take_events().into_iter().map(|e| e.kind).collect();
        assert_eq!(events, vec!["a", "b"]);
        assert!(sink.events().is_empty());
    }

    #[test]
    fn null_sink_declines_events() {
        assert!(!NullSink.wants_events());
        assert!(CollectSink::new().wants_events());
    }

    #[test]
    fn json_lines_sink_writes_one_valid_line_per_event() {
        let mut sink = JsonLinesSink::new(Vec::new());
        sink.event(&sample("a"));
        sink.event(&sample("b"));
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            crate::json::parse(line).unwrap();
        }
    }
}
