//! **Process-wide observability** for the VW-SDK serving stack.
//!
//! The repo serves planning, deployment and bit-exact simulation through
//! three frontends, and every subsequent performance PR measures itself
//! against this crate: a std-only metrics registry (atomic counters,
//! gauges and fixed-bucket histograms), a lightweight structured span
//! API whose guard objects record wall time into histograms and can
//! emit JSON trace events to a sink, a hand-rolled Prometheus text
//! serializer for `GET /v1/metrics`, and a small format checker CI uses
//! to validate scrapes.
//!
//! Design constraints, in order:
//!
//! * **Observation only.** Nothing in this crate may change the bytes a
//!   handler answers. Recording is side-effect-free on the measured
//!   computation, and the whole registry can be stubbed out with
//!   [`set_enabled`]`(false)` — the property tests assert response
//!   bytes are identical either way.
//! * **Std-only, lock-light.** The workspace builds offline; counters
//!   and histogram buckets are plain relaxed atomics, and the registry
//!   map takes a write lock only the first time a `(name, labels)` pair
//!   is seen.
//! * **Deterministic rendering.** Metric families and label sets render
//!   in sorted order, so two scrapes of the same state are
//!   byte-identical — the same discipline the JSON wire schema follows.
//!
//! # Example
//!
//! ```
//! use pim_telemetry::{global, Buckets};
//!
//! let requests = global().counter(
//!     "example_requests_total",
//!     "Requests handled.",
//!     &[("endpoint", "/v1/plan")],
//! );
//! requests.inc();
//! let latency = global().histogram(
//!     "example_seconds",
//!     "Latency.",
//!     &[],
//!     Buckets::latency(),
//! );
//! latency.observe(0.003);
//! let text = global().render_prometheus();
//! assert!(text.contains("example_requests_total{endpoint=\"/v1/plan\"} 1"));
//! assert!(pim_telemetry::promcheck::validate(&text).is_ok());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod promcheck;
pub mod registry;
pub mod span;

pub use registry::{
    Buckets, Counter, CounterSample, Gauge, GaugeSample, Histogram, HistogramSample, MetricKind,
    Registry, Snapshot,
};
pub use span::{set_trace_sink, trace_to_stderr, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Whether telemetry recording is live. `true` by default; the
/// observation-only property tests flip it to prove responses do not
/// depend on it.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enables or disables all recording (counters, histograms,
/// spans, trace events). Rendering still works while disabled — it just
/// sees frozen values. This is the "registry stubbed" switch the
/// observation-only guarantee is tested against.
pub fn set_enabled(enabled: bool) {
    // ORDERING: SeqCst makes the toggle a total-order point: the
    // observation-only property tests flip it between measurement
    // phases and must never see a phase straddle the switch. It is
    // called a handful of times per process, so strength is free.
    ENABLED.store(enabled, Ordering::SeqCst);
}

/// Whether recording is currently live.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-wide registry: every layer of the stack — the search
/// cache, the planning engine, the simulator, the HTTP server and the
/// CLI — records into this one instance, so `GET /v1/metrics` and
/// `vwsdk --metrics-dump` both see the whole process.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Opens a span recording into the global registry; see
/// [`span::SpanGuard`]. Prefer the [`span!`] macro, which also attaches
/// attributes.
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard::enter(name)
}

/// Opens a [`SpanGuard`] on the global registry, optionally attaching
/// `key = value` attributes (values go through `ToString`):
///
/// ```
/// let _guard = pim_telemetry::span!("engine.plan_network", jobs = 4);
/// ```
///
/// The guard records its wall time into the `pim_span_seconds` histogram
/// (labelled by span name) when dropped, and emits a JSON trace event if
/// a trace sink is installed.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr $(, $key:ident = $value:expr)+ $(,)?) => {{
        let mut guard = $crate::span($name);
        $(guard.attr(stringify!($key), $value.to_string());)+
        guard
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_one_instance() {
        let a = global() as *const Registry;
        let b = global() as *const Registry;
        assert_eq!(a, b);
    }

    #[test]
    fn span_macro_compiles_with_and_without_attrs() {
        {
            let _g = span!("lib_test.plain");
        }
        {
            let _g = span!("lib_test.attrs", jobs = 4, batch = 2);
        }
        let snap = global().snapshot();
        let spans: Vec<&str> = snap
            .histograms
            .iter()
            .filter(|h| h.name == "pim_span_seconds")
            .flat_map(|h| h.labels.iter())
            .map(|(_, v)| v.as_str())
            .collect();
        assert!(spans.contains(&"lib_test.plain"), "{spans:?}");
        assert!(spans.contains(&"lib_test.attrs"), "{spans:?}");
    }
}
