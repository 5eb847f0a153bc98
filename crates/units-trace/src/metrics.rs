//! A thread-safe registry of monotonic counters, duration histograms,
//! and completed wall-clock spans.
//!
//! Counters are keyed by `'static` names following a `phase/what`
//! convention (`"reduce/steps"`, `"prim/+"`, `"runtime/cells"`).
//! Durations are recorded into per-name statistics with log₂(ns)
//! buckets — wall-clock data lives only here, never in events, so event
//! streams stay deterministic. Each timed duration also lands in a
//! bounded span log ([`SpanRecord`]) relative to the registry's
//! creation instant, which [`Metrics::chrome_trace_json`] exports as a
//! Chrome-trace/Perfetto timeline (`chrome://tracing`, ui.perfetto.dev).

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Number of log₂ nanosecond buckets ([`DurationStats::buckets`]).
/// Bucket `i` counts samples with `floor(log2(ns)) == i`, clamped at
/// the top; bucket 31 therefore holds everything ≥ ~2.1 s.
pub const DURATION_BUCKETS: usize = 32;

/// Aggregated statistics for one named duration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurationStats {
    /// How many samples were recorded.
    pub count: u64,
    /// Sum of all samples, in nanoseconds.
    pub total_ns: u64,
    /// Smallest sample, in nanoseconds.
    pub min_ns: u64,
    /// Largest sample, in nanoseconds.
    pub max_ns: u64,
    /// log₂(ns) histogram; see [`DURATION_BUCKETS`].
    pub buckets: [u64; DURATION_BUCKETS],
}

impl Default for DurationStats {
    fn default() -> DurationStats {
        DurationStats {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            buckets: [0; DURATION_BUCKETS],
        }
    }
}

impl DurationStats {
    /// Records one sample of `ns` nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        let bucket = (63 - ns.max(1).leading_zeros() as usize).min(DURATION_BUCKETS - 1);
        self.buckets[bucket] += 1;
    }

    /// Mean sample duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    /// An estimate of the `p`-quantile (`0.0 < p <= 1.0`) in
    /// nanoseconds, derived from the log₂ histogram: the upper edge of
    /// the bucket holding the quantile sample, clamped to the observed
    /// `[min_ns, max_ns]` range so single-sample and tail queries stay
    /// exact. Returns 0 when no samples were recorded.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = (1u64 << (i + 1)).saturating_sub(1).max(1);
                return upper.clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median sample duration in nanoseconds (bucket estimate).
    pub fn p50_ns(&self) -> u64 {
        self.percentile_ns(0.50)
    }

    /// 99th-percentile sample duration in nanoseconds (bucket estimate).
    pub fn p99_ns(&self) -> u64 {
        self.percentile_ns(0.99)
    }
}

/// One completed wall-clock span, with both endpoints expressed in
/// nanoseconds since the owning [`Metrics`] registry was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The timed scope's name (same key as its duration histogram).
    pub name: &'static str,
    /// Start offset from the registry's epoch, in nanoseconds.
    pub start_ns: u64,
    /// How long the span lasted, in nanoseconds.
    pub dur_ns: u64,
}

/// Most spans kept per registry before new ones are counted as dropped
/// ([`Metrics::spans_dropped`]) — bounds memory on long sessions.
pub const SPAN_CAPACITY: usize = 65_536;

#[derive(Debug, Default)]
struct SpanLog {
    records: Vec<SpanRecord>,
    dropped: u64,
}

/// The registry. Cheap to share (`Arc<Metrics>`) and safe to update
/// from any thread.
#[derive(Debug)]
pub struct Metrics {
    /// When this registry was created — span offsets are relative to it.
    epoch: Instant,
    counters: Mutex<BTreeMap<&'static str, u64>>,
    durations: Mutex<BTreeMap<&'static str, DurationStats>>,
    spans: Mutex<SpanLog>,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics {
            epoch: Instant::now(),
            counters: Mutex::default(),
            durations: Mutex::default(),
            spans: Mutex::default(),
        }
    }
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `delta` to the counter `name` (creating it at zero).
    pub fn add(&self, name: &'static str, delta: u64) {
        let mut counters = self.counters.lock().expect("metrics counter lock");
        *counters.entry(name).or_insert(0) += delta;
    }

    /// Records one sample of the duration `name`.
    pub fn record_duration(&self, name: &'static str, duration: Duration) {
        let ns = u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
        let mut durations = self.durations.lock().expect("metrics duration lock");
        durations.entry(name).or_default().record_ns(ns);
    }

    /// Records one completed span (`name`, started at `start`, lasting
    /// `duration`) into the bounded span log. Spans that started before
    /// this registry existed are clamped to offset 0; once the log holds
    /// [`SPAN_CAPACITY`] records, further spans only bump the dropped
    /// count.
    pub fn record_span(&self, name: &'static str, start: Instant, duration: Duration) {
        let start_ns = start
            .checked_duration_since(self.epoch)
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        let dur_ns = u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
        let mut log = self.spans.lock().expect("metrics span lock");
        if log.records.len() >= SPAN_CAPACITY {
            log.dropped += 1;
        } else {
            log.records.push(SpanRecord { name, start_ns, dur_ns });
        }
    }

    /// The current value of one counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.lock().expect("metrics counter lock").get(name).copied().unwrap_or(0)
    }

    /// A snapshot of every counter.
    pub fn counters(&self) -> BTreeMap<&'static str, u64> {
        self.counters.lock().expect("metrics counter lock").clone()
    }

    /// A snapshot of every duration's statistics.
    pub fn durations(&self) -> BTreeMap<&'static str, DurationStats> {
        self.durations.lock().expect("metrics duration lock").clone()
    }

    /// A snapshot of the span log, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("metrics span lock").records.clone()
    }

    /// How many spans were discarded because the log was full.
    pub fn spans_dropped(&self) -> u64 {
        self.spans.lock().expect("metrics span lock").dropped
    }

    /// Clears all counters, histograms, and spans.
    pub fn reset(&self) {
        self.counters.lock().expect("metrics counter lock").clear();
        self.durations.lock().expect("metrics duration lock").clear();
        let mut log = self.spans.lock().expect("metrics span lock");
        log.records.clear();
        log.dropped = 0;
    }

    /// The span log as a Chrome-trace/Perfetto JSON document — one
    /// complete (`"ph":"X"`) event per span, timestamps in microseconds
    /// with nanosecond fractions. Load the output in `chrome://tracing`
    /// or ui.perfetto.dev for a whole-session timeline. Always a valid
    /// JSON object, even when no spans were recorded.
    pub fn chrome_trace_json(&self) -> String {
        let log = self.spans.lock().expect("metrics span lock");
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in log.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":\"units\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{}.{:03},\"dur\":{}.{:03}}}",
                crate::json::escape(s.name),
                s.start_ns / 1_000,
                s.start_ns % 1_000,
                s.dur_ns / 1_000,
                s.dur_ns % 1_000,
            ));
        }
        out.push_str("]}");
        out
    }

    /// The whole registry as one JSON object: `{"counters": {...},
    /// "durations": {name: {count, total_ns, ...}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, value)) in self.counters().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&crate::json::escape(name));
            out.push(':');
            out.push_str(&value.to_string());
        }
        out.push_str("},\"durations\":{");
        for (i, (name, stats)) in self.durations().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&crate::json::escape(name));
            out.push_str(&format!(
                ":{{\"count\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{},\"mean_ns\":{},\
                 \"p50_ns\":{},\"p99_ns\":{}}}",
                stats.count,
                stats.total_ns,
                if stats.count == 0 { 0 } else { stats.min_ns },
                stats.max_ns,
                stats.mean_ns(),
                stats.p50_ns(),
                stats.p99_ns()
            ));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = Metrics::new();
        m.add("reduce/steps", 2);
        m.add("reduce/steps", 3);
        m.add("prim/+", 1);
        assert_eq!(m.counter("reduce/steps"), 5);
        assert_eq!(m.counter("never"), 0);
        let snap = m.counters();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap["prim/+"], 1);
    }

    #[test]
    fn durations_track_count_min_max_and_buckets() {
        let m = Metrics::new();
        m.record_duration("parse", Duration::from_nanos(100));
        m.record_duration("parse", Duration::from_nanos(1_000_000));
        let stats = &m.durations()["parse"];
        assert_eq!(stats.count, 2);
        assert_eq!(stats.min_ns, 100);
        assert_eq!(stats.max_ns, 1_000_000);
        assert_eq!(stats.total_ns, 1_000_100);
        assert_eq!(stats.buckets.iter().sum::<u64>(), 2);
        // floor(log2(100)) = 6, floor(log2(1e6)) = 19.
        assert_eq!(stats.buckets[6], 1);
        assert_eq!(stats.buckets[19], 1);
    }

    #[test]
    fn reset_clears_everything() {
        let m = Metrics::new();
        m.add("x", 1);
        m.record_duration("y", Duration::from_nanos(5));
        m.reset();
        assert!(m.counters().is_empty());
        assert!(m.durations().is_empty());
    }

    #[test]
    fn metrics_json_is_valid() {
        let m = Metrics::new();
        m.add("prim/+", 4);
        m.record_duration("eval", Duration::from_micros(3));
        let json = m.to_json();
        crate::json::parse(&json).unwrap();
        assert!(json.contains("\"p50_ns\"") && json.contains("\"p99_ns\""));
    }

    #[test]
    fn percentiles_walk_the_buckets() {
        let mut stats = DurationStats::default();
        assert_eq!(stats.percentile_ns(0.5), 0, "empty stats have no quantiles");
        // Half the samples in the [64, 127] bucket, half far above it.
        for _ in 0..50 {
            stats.record_ns(100);
        }
        for _ in 0..50 {
            stats.record_ns(1 << 20);
        }
        assert_eq!(stats.p50_ns(), 127, "median sits at its bucket's upper edge");
        assert!(stats.p50_ns() < stats.p99_ns());
        assert_eq!(stats.percentile_ns(1.0), 1 << 20, "tail clamps to the observed max");
        // A single sample is reported exactly (clamped to [min, max]).
        let mut one = DurationStats::default();
        one.record_ns(42);
        assert_eq!(one.p50_ns(), 42);
        assert_eq!(one.p99_ns(), 42);
    }

    #[test]
    fn spans_are_logged_and_exported_as_chrome_trace() {
        let m = Metrics::new();
        let start = Instant::now();
        m.record_span("eval", start, Duration::from_micros(5));
        m.record_span("check", start, Duration::from_nanos(750));
        let spans = m.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "eval");
        assert_eq!(spans[0].dur_ns, 5_000);
        assert_eq!(m.spans_dropped(), 0);
        let chrome = m.chrome_trace_json();
        crate::json::parse(&chrome).unwrap();
        assert!(chrome.contains("\"traceEvents\""));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"name\":\"check\""));
        m.reset();
        assert!(m.spans().is_empty());
        crate::json::parse(&m.chrome_trace_json()).expect("empty export is still JSON");
    }

    #[test]
    fn span_log_is_bounded() {
        let m = Metrics::new();
        let start = Instant::now();
        for _ in 0..SPAN_CAPACITY + 3 {
            m.record_span("tick", start, Duration::from_nanos(1));
        }
        assert_eq!(m.spans().len(), SPAN_CAPACITY);
        assert_eq!(m.spans_dropped(), 3);
    }
}
