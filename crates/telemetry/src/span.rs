//! Structured spans: RAII guards that time a region of work, record
//! the wall time into the global `pim_span_seconds` histogram
//! (labelled by span name), and — when a trace sink is installed —
//! emit one JSON trace event per span.
//!
//! The trace-event schema is one object per line:
//!
//! ```json
//! {"event":"span","name":"engine.plan_network","seconds":0.0123,"attrs":{"jobs":"4"}}
//! ```
//!
//! `seconds` is the span's wall time; `attrs` holds the string-valued
//! attributes attached via [`SpanGuard::attr`] (or the `span!` macro),
//! in attachment order. Install a sink with [`trace_to_stderr`] (what
//! `vwsdk --trace` does) or [`set_trace_sink`] with a capturing
//! closure in tests.
//!
//! ```
//! use std::sync::{Arc, Mutex};
//!
//! let lines = Arc::new(Mutex::new(Vec::new()));
//! let captured = Arc::clone(&lines);
//! pim_telemetry::set_trace_sink(Some(Arc::new(move |line: &str| {
//!     captured.lock().unwrap().push(line.to_string());
//! })));
//! {
//!     let _guard = pim_telemetry::span!("doc.example", batch = 8);
//! }
//! pim_telemetry::set_trace_sink(None);
//! let lines = lines.lock().unwrap();
//! assert!(lines[0].starts_with("{\"event\":\"span\",\"name\":\"doc.example\""));
//! assert!(lines[0].contains("\"batch\":\"8\""));
//! ```

use std::sync::{Arc, RwLock};
use std::time::Instant;

use crate::registry::Buckets;

/// A trace sink receives one rendered JSON line per finished span.
pub type TraceSink = Arc<dyn Fn(&str) + Send + Sync>;

fn sink_slot() -> &'static RwLock<Option<TraceSink>> {
    static SINK: std::sync::OnceLock<RwLock<Option<TraceSink>>> = std::sync::OnceLock::new();
    SINK.get_or_init(|| RwLock::new(None))
}

/// Installs (`Some`) or removes (`None`) the process-wide trace sink.
/// With no sink installed, spans still record their histograms but emit
/// no trace events — tracing costs nothing when off.
// lint:allow(unused-pub) seam: crates/serve/tests/observation_only.rs captures trace events
pub fn set_trace_sink(sink: Option<TraceSink>) {
    *sink_slot().write().expect("trace sink lock") = sink;
}

/// Installs a sink that writes each trace event as one line on stderr;
/// this is what `vwsdk --trace` enables.
pub fn trace_to_stderr() {
    set_trace_sink(Some(Arc::new(|line: &str| eprintln!("{line}"))));
}

/// RAII span guard: created by [`crate::span()`] or the `span!` macro,
/// it measures wall time from creation to drop. On drop it records the
/// elapsed seconds into `pim_span_seconds{span="<name>"}` and emits a
/// JSON trace event if a sink is installed. Both effects honour the
/// global [`crate::set_enabled`] switch.
pub struct SpanGuard {
    name: &'static str,
    started: Instant,
    attrs: Vec<(&'static str, String)>,
}

impl SpanGuard {
    pub(crate) fn enter(name: &'static str) -> SpanGuard {
        SpanGuard {
            name,
            started: Instant::now(),
            attrs: Vec::new(),
        }
    }

    /// Attaches a string-valued attribute, carried on the trace event
    /// (attributes do not become histogram labels — span cardinality
    /// stays bounded by span names).
    pub fn attr(&mut self, key: &'static str, value: String) {
        self.attrs.push((key, value));
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let seconds = self.started.elapsed().as_secs_f64();
        crate::global()
            .histogram(
                "pim_span_seconds",
                "Wall time of instrumented spans, labelled by span name.",
                &[("span", self.name)],
                Buckets::latency(),
            )
            .observe(seconds);
        if !crate::enabled() {
            return;
        }
        let sink = sink_slot().read().expect("trace sink lock").clone();
        if let Some(sink) = sink {
            let mut line = String::with_capacity(96);
            line.push_str("{\"event\":\"span\",\"name\":\"");
            push_escaped(&mut line, self.name);
            line.push_str("\",\"seconds\":");
            line.push_str(&format!("{seconds}"));
            if !self.attrs.is_empty() {
                line.push_str(",\"attrs\":{");
                for (i, (key, value)) in self.attrs.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    line.push('"');
                    push_escaped(&mut line, key);
                    line.push_str("\":\"");
                    push_escaped(&mut line, value);
                    line.push('"');
                }
                line.push('}');
            }
            line.push('}');
            sink(&line);
        }
    }
}

fn push_escaped(out: &mut String, text: &str) {
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn span_records_histogram() {
        {
            let _g = crate::span("span_test.hist");
        }
        let snap = crate::global().snapshot();
        let sample = snap
            .histograms
            .iter()
            .find(|h| {
                h.name == "pim_span_seconds"
                    && h.labels == vec![("span".to_string(), "span_test.hist".to_string())]
            })
            .expect("span histogram registered");
        assert!(sample.count >= 1);
    }

    #[test]
    fn trace_event_schema() {
        let lines = Arc::new(Mutex::new(Vec::new()));
        let captured = Arc::clone(&lines);
        set_trace_sink(Some(Arc::new(move |line: &str| {
            captured.lock().unwrap().push(line.to_string());
        })));
        {
            let mut g = crate::span("span_test.trace");
            g.attr("jobs", "4".to_string());
            g.attr("quoted", "a\"b".to_string());
        }
        set_trace_sink(None);
        let lines = lines.lock().unwrap();
        let line = lines
            .iter()
            .find(|l| l.contains("span_test.trace"))
            .expect("trace event emitted");
        assert!(line.starts_with("{\"event\":\"span\",\"name\":\"span_test.trace\",\"seconds\":"));
        assert!(
            line.contains("\"attrs\":{\"jobs\":\"4\",\"quoted\":\"a\\\"b\"}"),
            "{line}"
        );
        assert!(line.ends_with('}'));
    }
}
