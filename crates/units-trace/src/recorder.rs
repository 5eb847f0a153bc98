//! The flight recorder: a fixed-size ring buffer of the most recent
//! trace events, cheap enough to leave on for a whole session.
//!
//! Unlike a sink session (installed via [`crate::install`]), the
//! recorder never renders or writes anything while recording — it just
//! keeps the last `capacity` [`Event`]s on the current thread. When
//! something goes wrong (the engine surfaces an internal error, an
//! injected fault, or resource exhaustion), [`dump`] snapshots
//! the ring as a JSON-lines post-mortem ([`FlightDump`]) whose first
//! line is a metadata record naming the dump reason.
//!
//! Without the `trace` cargo feature every function here is an inlined
//! no-op ([`dump`] returns `None`), so the recorder costs nothing in
//! default builds.

use std::collections::VecDeque;

use crate::event::Event;

/// Ring capacity used by [`ensure`] when no recorder is active yet:
/// enough events to cover several Fig. 11 invoke sequences without
/// making dumps unreadable.
pub const DEFAULT_CAPACITY: usize = 256;

/// A snapshot of the flight recorder taken at failure time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// Why the dump was taken — typically the failing error's display
    /// text, which names the trip site for injected faults.
    pub reason: String,
    /// How many events the dump holds.
    pub events: usize,
    /// Total events ever recorded by the ring (including overwritten).
    pub recorded: u64,
    /// How many older events the ring had already overwritten.
    pub dropped: u64,
    /// The post-mortem: one metadata JSON record, then one JSON object
    /// per event (oldest first), newline-separated.
    pub json_lines: String,
}

/// The ring buffer itself. Usually managed through the thread-local
/// helpers ([`ensure`]/[`record`]/[`dump`]), but constructible directly
/// for tests and custom tooling.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    buf: VecDeque<Event>,
    recorded: u64,
}

impl FlightRecorder {
    /// An empty ring keeping at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder { capacity, buf: VecDeque::with_capacity(capacity), recorded: 0 }
    }

    /// Appends one event, evicting the oldest when full.
    pub fn record(&mut self, event: &Event) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(event.clone());
        self.recorded += 1;
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever recorded, including overwritten ones.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// How many events have been overwritten by newer ones.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.buf.len() as u64
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    /// Snapshots the ring as a [`FlightDump`]. The buffer is left
    /// intact so several failures in a row each get a post-mortem.
    pub fn dump(&self, reason: &str) -> FlightDump {
        let mut json_lines = format!(
            "{{\"flight\":\"dump\",\"reason\":{},\"events\":{},\"recorded\":{},\"dropped\":{}}}",
            crate::json::escape(reason),
            self.buf.len(),
            self.recorded,
            self.dropped()
        );
        for event in &self.buf {
            json_lines.push('\n');
            json_lines.push_str(&event.to_json());
        }
        FlightDump {
            reason: reason.to_string(),
            events: self.buf.len(),
            recorded: self.recorded,
            dropped: self.dropped(),
            json_lines,
        }
    }
}

#[cfg(feature = "trace")]
mod dispatch {
    use std::cell::RefCell;

    use super::{FlightDump, FlightRecorder};
    use crate::event::Event;

    thread_local! {
        static RECORDER: RefCell<Option<FlightRecorder>> = const { RefCell::new(None) };
    }

    /// Starts recording with `capacity` only if no recorder is active —
    /// the engine calls this on its run paths so trace builds always
    /// have a post-mortem ring without clobbering a caller's setup.
    pub fn ensure(capacity: usize) {
        RECORDER.with(|r| {
            let mut slot = r.borrow_mut();
            if slot.is_none() {
                *slot = Some(FlightRecorder::new(capacity));
            }
        });
    }

    /// Whether a recorder is active on this thread.
    pub fn is_recording() -> bool {
        RECORDER.with(|r| r.borrow().is_some())
    }

    /// Appends one event to the active ring (no-op when disabled).
    pub fn record(event: &Event) {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.record(event);
            }
        });
    }

    /// Snapshots the active ring as a post-mortem, or `None` when no
    /// recorder is active. The ring keeps its events.
    pub fn dump(reason: &str) -> Option<FlightDump> {
        RECORDER.with(|r| r.borrow().as_ref().map(|rec| rec.dump(reason)))
    }
}

#[cfg(not(feature = "trace"))]
mod dispatch {
    use super::FlightDump;
    use crate::event::Event;

    /// No-op without the `trace` feature.
    #[inline(always)]
    pub fn ensure(_capacity: usize) {}

    /// Always `false` without the `trace` feature.
    #[inline(always)]
    pub fn is_recording() -> bool {
        false
    }

    /// No-op without the `trace` feature.
    #[inline(always)]
    pub fn record(_event: &Event) {}

    /// Always `None` without the `trace` feature.
    #[inline(always)]
    pub fn dump(_reason: &str) -> Option<FlightDump> {
        None
    }
}

pub use dispatch::{dump, ensure, is_recording, record};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Phase};

    fn event(kind: &'static str, payload: &str) -> Event {
        Event {
            phase: Phase::Engine,
            kind,
            span: None,
            payload: payload.to_string(),
            counters: Vec::new(),
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut rec = FlightRecorder::new(3);
        for i in 0..5 {
            let payloads = ["a", "b", "c", "d", "e"];
            rec.record(&event("tick", payloads[i]));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.recorded(), 5);
        assert_eq!(rec.dropped(), 2);
        let kept: Vec<_> = rec.events().map(|e| e.payload.as_str()).collect();
        assert_eq!(kept, ["c", "d", "e"], "oldest events evicted first");
    }

    #[test]
    fn dump_is_json_lines_with_a_meta_record() {
        let mut rec = FlightRecorder::new(8);
        rec.record(&event("fault/fired", "runtime/prim (hit 1)"));
        rec.record(&event("step/invoke1", "7"));
        let dump = rec.dump("injected fault at runtime/prim (hit 1)");
        assert_eq!(dump.events, 2);
        assert_eq!(dump.dropped, 0);
        let lines: Vec<_> = dump.json_lines.lines().collect();
        assert_eq!(lines.len(), 3, "meta record plus one line per event");
        for line in &lines {
            crate::json::parse(line).unwrap_or_else(|e| panic!("bad line {e:?}: {line}"));
        }
        assert!(lines[0].contains("\"flight\":\"dump\""));
        assert!(lines[0].contains("runtime/prim"), "meta names the trip site");
        assert!(lines[1].contains("fault/fired"));
        // Dumping again still works — the ring is a snapshot source.
        assert_eq!(rec.dump("again").events, 2);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn thread_local_recorder_round_trip() {
        assert!(!is_recording());
        assert_eq!(dump("nothing"), None);
        ensure(4);
        assert!(is_recording());
        ensure(99); // must not clobber the active ring
        record(&event("a", ""));
        record(&event("b", ""));
        let d = dump("post-mortem").expect("recorder active");
        assert_eq!(d.events, 2);
        for payload in ["c", "d", "e"] {
            record(&event("tick", payload));
        }
        let d = dump("past capacity").expect("still active");
        assert_eq!((d.events, d.dropped), (4, 1), "ensure() kept the original capacity");
    }
}
