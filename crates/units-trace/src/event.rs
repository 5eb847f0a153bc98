//! Structured events: what happened, where in the pipeline, and at what
//! cost.
//!
//! Events are deliberately *timestamp-free*: two runs of the same
//! program must produce byte-identical event streams (the determinism
//! property `tests/tracing.rs` asserts), so anything wall-clock-shaped
//! lives in [`crate::Metrics`] duration histograms instead.

use std::fmt;

/// A byte range in the source text an event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: u32,
    /// Byte offset one past the last character.
    pub end: u32,
}

impl Span {
    /// A span covering `start..end`.
    pub fn new(start: u32, end: u32) -> Span {
        Span { start, end }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// The pipeline phase an event was emitted from.
///
/// The taxonomy mirrors the paper's architecture: reading surface syntax
/// (Fig. 1–8), context/type checking (Figs. 10/14/15/17/19), the
/// compiled backend's resolution and linking steps (§4.1.6), the
/// reference reduction semantics (Fig. 11), and primitive evaluation
/// shared by both backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// S-expression reading and parsing (`units-syntax`).
    Parse,
    /// Context and type checking (`units-check`).
    Check,
    /// Lexical-address resolution prepass (`units-compile`).
    Resolve,
    /// Unit instantiation and import wiring (`units-compile`).
    Link,
    /// Fig. 11 substitution reduction (`units-reduce`).
    Reduce,
    /// Value-level evaluation and primitives (`units-runtime`).
    Eval,
    /// Artifact caching and worker-pool scheduling (`units::engine`).
    Engine,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 7] = [
        Phase::Parse,
        Phase::Check,
        Phase::Resolve,
        Phase::Link,
        Phase::Reduce,
        Phase::Eval,
        Phase::Engine,
    ];

    /// The lowercase phase name used in event output and metric names.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Check => "check",
            Phase::Resolve => "resolve",
            Phase::Link => "link",
            Phase::Reduce => "reduce",
            Phase::Eval => "eval",
            Phase::Engine => "engine",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One structured trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Which pipeline phase emitted it.
    pub phase: Phase,
    /// A stable, `'static` event kind, e.g. `"step/beta"` or `"prim"`.
    pub kind: &'static str,
    /// Source span, when the emitter knows one.
    pub span: Option<Span>,
    /// Free-form detail; ground-rendered and deterministic.
    pub payload: String,
    /// Counter deltas recorded alongside the event.
    pub counters: Vec<(&'static str, u64)>,
}

impl Event {
    /// Looks up a counter recorded on this event by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The event as a single JSON object (one JSON-lines record).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.payload.len());
        out.push_str("{\"phase\":\"");
        out.push_str(self.phase.name());
        out.push_str("\",\"kind\":");
        out.push_str(&crate::json::escape(self.kind));
        if let Some(span) = self.span {
            out.push_str(&format!(",\"span\":[{},{}]", span.start, span.end));
        }
        if !self.payload.is_empty() {
            out.push_str(",\"payload\":");
            out.push_str(&crate::json::escape(&self.payload));
        }
        if !self.counters.is_empty() {
            out.push_str(",\"counters\":{");
            for (i, (name, value)) in self.counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&crate::json::escape(name));
                out.push(':');
                out.push_str(&value.to_string());
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.phase, self.kind)?;
        if let Some(span) = self.span {
            write!(f, " [{span}]")?;
        }
        if !self.payload.is_empty() {
            write!(f, " {}", self.payload)?;
        }
        for (name, value) in &self.counters {
            write!(f, " {name}={value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_is_valid_and_complete() {
        let event = Event {
            phase: Phase::Reduce,
            kind: "step/beta",
            span: Some(Span::new(3, 17)),
            payload: "quote \"me\"".into(),
            counters: vec![("reduce/steps", 1), ("reduce/store_size", 4)],
        };
        let json = event.to_json();
        crate::json::parse(&json).unwrap();
        assert!(json.contains("\"phase\":\"reduce\""));
        assert!(json.contains("\"span\":[3,17]"));
        assert!(json.contains("\"reduce/store_size\":4"));
    }

    #[test]
    fn minimal_event_json_omits_empty_fields() {
        let event = Event {
            phase: Phase::Parse,
            kind: "file",
            span: None,
            payload: String::new(),
            counters: vec![],
        };
        let json = event.to_json();
        crate::json::parse(&json).unwrap();
        assert_eq!(json, "{\"phase\":\"parse\",\"kind\":\"file\"}");
    }

    #[test]
    fn counter_lookup_finds_by_name() {
        let event = Event {
            phase: Phase::Eval,
            kind: "prim",
            span: None,
            payload: String::new(),
            counters: vec![("reduce/step", 7)],
        };
        assert_eq!(event.counter("reduce/step"), Some(7));
        assert_eq!(event.counter("missing"), None);
    }
}
