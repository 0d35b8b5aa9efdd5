//! The metrics registry: named counters, gauges and fixed-bucket
//! histograms backed by relaxed atomics, with deterministic snapshots
//! and a hand-rolled Prometheus text renderer.
//!
//! A metric is identified by `(name, sorted label pairs)`. Registering
//! the same identity twice returns a handle to the same underlying
//! atomics, so call sites can re-register cheaply instead of caching
//! handles. Families (all series sharing a name) must agree on kind;
//! the first registration's help text and buckets win.
//!
//! ```
//! use pim_telemetry::{Buckets, Registry};
//!
//! let reg = Registry::new();
//! reg.counter("jobs_total", "Jobs run.", &[("kind", "plan")]).add(3);
//! let h = reg.histogram("job_seconds", "Job latency.", &[], Buckets::latency());
//! h.observe(0.02);
//! let text = reg.render_prometheus();
//! assert!(text.contains("jobs_total{kind=\"plan\"} 3"));
//! assert!(text.contains("job_seconds_count 1"));
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Instant, SystemTime};

/// What kind of time series a metric family is; decides the Prometheus
/// `# TYPE` line and which snapshot section the family lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing `u64`.
    Counter,
    /// Arbitrary `f64` that can move both ways.
    Gauge,
    /// Fixed-bucket distribution with a count and a sum.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Sorted, finite upper bounds for a histogram; an implicit `+Inf`
/// bucket is always appended.
#[derive(Debug, Clone)]
pub struct Buckets {
    bounds: Arc<Vec<f64>>,
}

impl Buckets {
    /// Builds a bucket layout from finite bounds. Panics if `bounds` is
    /// empty, unsorted, or contains duplicates or non-finite values —
    /// layouts are compile-time-ish constants, so a panic is a bug at
    /// the registration site, not a runtime condition.
    pub fn new(bounds: Vec<f64>) -> Self {
        assert!(
            !bounds.is_empty(),
            "histogram needs at least one bucket bound"
        );
        for pair in bounds.windows(2) {
            assert!(
                pair[0] < pair[1],
                "bucket bounds must be strictly increasing"
            );
        }
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "bucket bounds must be finite (+Inf is implicit)"
        );
        Buckets {
            bounds: Arc::new(bounds),
        }
    }

    /// Default layout for request/search latencies in seconds: 100 µs
    /// through 10 s, roughly 1-2.5-5 per decade.
    pub fn latency() -> Self {
        Buckets::new(vec![
            0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
            2.5, 5.0, 10.0,
        ])
    }

    /// The finite upper bounds, ascending.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }
}

struct CounterInner {
    value: AtomicU64,
}

struct GaugeInner {
    bits: AtomicU64,
}

struct HistogramInner {
    bounds: Arc<Vec<f64>>,
    /// One slot per finite bound plus a trailing overflow (`+Inf`) slot;
    /// per-bucket (non-cumulative) counts.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

/// Handle to a registered counter. Cloning is cheap; all clones share
/// the same atomic.
#[derive(Clone)]
pub struct Counter {
    inner: Arc<CounterInner>,
}

impl Counter {
    /// Adds one. No-op while telemetry is disabled.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. No-op while telemetry is disabled.
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.inner.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.inner.value.load(Ordering::Relaxed)
    }
}

/// Handle to a registered gauge. Cloning is cheap; all clones share the
/// same atomic.
#[derive(Clone)]
pub struct Gauge {
    inner: Arc<GaugeInner>,
}

impl Gauge {
    /// Sets the gauge, enabled or not: the registry's only gauges are its
    /// own process facts, not measurements the switch pauses.
    fn set(&self, value: f64) {
        self.inner.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.inner.bits.load(Ordering::Relaxed))
    }
}

/// Handle to a registered histogram. Cloning is cheap; all clones share
/// the same atomics.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    /// Records one observation with Prometheus `le` semantics: the
    /// value lands in the first bucket whose upper bound is `>=` it, so
    /// an observation exactly on a bound belongs to that bound's
    /// bucket. No-op while telemetry is disabled.
    pub fn observe(&self, value: f64) {
        if !crate::enabled() {
            return;
        }
        let idx = self.inner.bounds.partition_point(|b| *b < value);
        self.inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .inner
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + value).to_bits())
            });
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.inner.sum_bits.load(Ordering::Relaxed))
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) by linear
    /// interpolation inside the bucket holding the target rank — the
    /// same estimate `histogram_quantile` would compute from the
    /// rendered buckets. Returns `0.0` for an empty histogram; ranks
    /// that fall into the overflow bucket clamp to the largest finite
    /// bound.
    pub fn quantile(&self, q: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * count as f64;
        let mut cumulative = 0u64;
        let mut lower = 0.0f64;
        for (i, bound) in self.inner.bounds.iter().enumerate() {
            let in_bucket = self.inner.buckets[i].load(Ordering::Relaxed);
            let next = cumulative + in_bucket;
            if (next as f64) >= rank {
                if in_bucket == 0 {
                    return *bound;
                }
                let fraction = (rank - cumulative as f64) / in_bucket as f64;
                return lower + (bound - lower) * fraction;
            }
            cumulative = next;
            lower = *bound;
        }
        *self.inner.bounds.last().expect("buckets are non-empty")
    }
}

enum MetricInner {
    Counter(Arc<CounterInner>),
    Gauge(Arc<GaugeInner>),
    Histogram(Arc<HistogramInner>),
}

struct MetricEntry {
    help: String,
    kind: MetricKind,
    inner: MetricInner,
}

type MetricId = (String, Vec<(String, String)>);

/// A point-in-time copy of one counter series.
#[derive(Debug, Clone)]
pub struct CounterSample {
    /// Metric family name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Help text of the family.
    pub help: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// A point-in-time copy of one gauge series.
#[derive(Debug, Clone)]
pub struct GaugeSample {
    /// Metric family name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Help text of the family.
    pub help: String,
    /// Value at snapshot time.
    pub value: f64,
}

/// A point-in-time copy of one histogram series.
#[derive(Debug, Clone)]
pub struct HistogramSample {
    /// Metric family name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Help text of the family.
    pub help: String,
    /// Finite upper bounds, ascending.
    pub bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) counts; one per bound plus a
    /// trailing overflow (`+Inf`) slot.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
}

impl HistogramSample {
    /// Quantile estimate from the sampled buckets — the same
    /// interpolation as [`Histogram::quantile`], usable after the live
    /// atomics are gone.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cumulative = 0u64;
        let mut lower = 0.0f64;
        for (i, bound) in self.bounds.iter().enumerate() {
            let in_bucket = self.counts[i];
            let next = cumulative + in_bucket;
            if (next as f64) >= rank {
                if in_bucket == 0 {
                    return *bound;
                }
                let fraction = (rank - cumulative as f64) / in_bucket as f64;
                return lower + (bound - lower) * fraction;
            }
            cumulative = next;
            lower = *bound;
        }
        self.bounds.last().copied().unwrap_or(0.0)
    }
}

/// A deterministic, fully ordered copy of the registry, used by the
/// shared JSON view (`api::metrics_json`) so the wire and the CLI dump
/// serialize identical structures.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// All counter series, sorted by `(name, labels)`.
    pub counters: Vec<CounterSample>,
    /// All gauge series, sorted by `(name, labels)`.
    pub gauges: Vec<GaugeSample>,
    /// All histogram series, sorted by `(name, labels)`.
    pub histograms: Vec<HistogramSample>,
}

/// The metrics registry. Most code uses the process-wide instance via
/// [`crate::global`]; fresh instances exist for tests.
pub struct Registry {
    metrics: RwLock<BTreeMap<MetricId, MetricEntry>>,
    started: Instant,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// Creates an empty registry and stamps its start time, exposed as
    /// the `pim_process_start_seconds` gauge and [`Registry::uptime_seconds`]
    /// (which `/healthz` reports).
    pub fn new() -> Self {
        let started_unix = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0);
        let reg = Registry {
            metrics: RwLock::new(BTreeMap::new()),
            started: Instant::now(),
        };
        reg.gauge(
            "pim_process_start_seconds",
            "Unix timestamp at which this registry (and process) started.",
            &[],
        )
        .set(started_unix);
        reg.gauge(
            "pim_build_info",
            "Constant 1, labelled with the build version.",
            &[("version", env!("CARGO_PKG_VERSION"))],
        )
        .set(1.0);
        reg
    }

    /// Seconds since the registry was created (process start for the
    /// global instance).
    pub fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    fn id(name: &str, labels: &[(&str, &str)]) -> MetricId {
        let mut owned: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        owned.sort();
        (name.to_string(), owned)
    }

    /// Registers (or finds) a counter series and returns its handle.
    /// Panics if `name` is already registered with a different kind.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let id = Registry::id(name, labels);
        if let Some(entry) = self.metrics.read().expect("registry lock").get(&id) {
            return Counter {
                inner: entry.counter_inner(name),
            };
        }
        let mut metrics = self.metrics.write().expect("registry lock");
        let entry = metrics.entry(id).or_insert_with(|| MetricEntry {
            help: help.to_string(),
            kind: MetricKind::Counter,
            inner: MetricInner::Counter(Arc::new(CounterInner {
                value: AtomicU64::new(0),
            })),
        });
        Counter {
            inner: entry.counter_inner(name),
        }
    }

    /// Registers (or finds) a gauge series and returns its handle.
    /// Panics if `name` is already registered with a different kind.
    fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let id = Registry::id(name, labels);
        if let Some(entry) = self.metrics.read().expect("registry lock").get(&id) {
            return Gauge {
                inner: entry.gauge_inner(name),
            };
        }
        let mut metrics = self.metrics.write().expect("registry lock");
        let entry = metrics.entry(id).or_insert_with(|| MetricEntry {
            help: help.to_string(),
            kind: MetricKind::Gauge,
            inner: MetricInner::Gauge(Arc::new(GaugeInner {
                bits: AtomicU64::new(0f64.to_bits()),
            })),
        });
        Gauge {
            inner: entry.gauge_inner(name),
        }
    }

    /// Registers (or finds) a histogram series and returns its handle.
    /// The first registration's bucket layout wins. Panics if `name` is
    /// already registered with a different kind.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        buckets: Buckets,
    ) -> Histogram {
        let id = Registry::id(name, labels);
        if let Some(entry) = self.metrics.read().expect("registry lock").get(&id) {
            return Histogram {
                inner: entry.histogram_inner(name),
            };
        }
        let mut metrics = self.metrics.write().expect("registry lock");
        let entry = metrics.entry(id).or_insert_with(|| {
            let slots = buckets.bounds.len() + 1;
            MetricEntry {
                help: help.to_string(),
                kind: MetricKind::Histogram,
                inner: MetricInner::Histogram(Arc::new(HistogramInner {
                    bounds: Arc::clone(&buckets.bounds),
                    buckets: (0..slots).map(|_| AtomicU64::new(0)).collect(),
                    count: AtomicU64::new(0),
                    sum_bits: AtomicU64::new(0f64.to_bits()),
                })),
            }
        });
        Histogram {
            inner: entry.histogram_inner(name),
        }
    }

    /// Takes a deterministic snapshot of every series, sorted by
    /// `(name, labels)` within each kind.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.read().expect("registry lock");
        let mut snap = Snapshot::default();
        for ((name, labels), entry) in metrics.iter() {
            match &entry.inner {
                MetricInner::Counter(inner) => snap.counters.push(CounterSample {
                    name: name.clone(),
                    labels: labels.clone(),
                    help: entry.help.clone(),
                    value: inner.value.load(Ordering::Relaxed),
                }),
                MetricInner::Gauge(inner) => snap.gauges.push(GaugeSample {
                    name: name.clone(),
                    labels: labels.clone(),
                    help: entry.help.clone(),
                    value: f64::from_bits(inner.bits.load(Ordering::Relaxed)),
                }),
                MetricInner::Histogram(inner) => snap.histograms.push(HistogramSample {
                    name: name.clone(),
                    labels: labels.clone(),
                    help: entry.help.clone(),
                    bounds: inner.bounds.as_ref().clone(),
                    counts: inner
                        .buckets
                        .iter()
                        .map(|b| b.load(Ordering::Relaxed))
                        .collect(),
                    count: inner.count.load(Ordering::Relaxed),
                    sum: f64::from_bits(inner.sum_bits.load(Ordering::Relaxed)),
                }),
            }
        }
        snap
    }

    /// Renders the registry in Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` once per family, series in
    /// sorted order, histograms expanded into cumulative `_bucket`
    /// lines plus `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        let metrics = self.metrics.read().expect("registry lock");
        let mut out = String::new();
        let mut last_family: Option<&str> = None;
        for ((name, labels), entry) in metrics.iter() {
            if last_family != Some(name.as_str()) {
                out.push_str("# HELP ");
                out.push_str(name);
                out.push(' ');
                out.push_str(&escape_help(&entry.help));
                out.push('\n');
                out.push_str("# TYPE ");
                out.push_str(name);
                out.push(' ');
                out.push_str(entry.kind.as_str());
                out.push('\n');
                last_family = Some(name.as_str());
            }
            match &entry.inner {
                MetricInner::Counter(inner) => {
                    render_sample(
                        &mut out,
                        name,
                        labels,
                        None,
                        &format_u64(inner.value.load(Ordering::Relaxed)),
                    );
                }
                MetricInner::Gauge(inner) => {
                    render_sample(
                        &mut out,
                        name,
                        labels,
                        None,
                        &format_f64(f64::from_bits(inner.bits.load(Ordering::Relaxed))),
                    );
                }
                MetricInner::Histogram(inner) => {
                    let bucket_name = format!("{name}_bucket");
                    let mut cumulative = 0u64;
                    for (i, bound) in inner.bounds.iter().enumerate() {
                        cumulative += inner.buckets[i].load(Ordering::Relaxed);
                        render_sample(
                            &mut out,
                            &bucket_name,
                            labels,
                            Some(&format_f64(*bound)),
                            &format_u64(cumulative),
                        );
                    }
                    cumulative += inner.buckets[inner.bounds.len()].load(Ordering::Relaxed);
                    render_sample(
                        &mut out,
                        &bucket_name,
                        labels,
                        Some("+Inf"),
                        &format_u64(cumulative),
                    );
                    render_sample(
                        &mut out,
                        &format!("{name}_sum"),
                        labels,
                        None,
                        &format_f64(f64::from_bits(inner.sum_bits.load(Ordering::Relaxed))),
                    );
                    render_sample(
                        &mut out,
                        &format!("{name}_count"),
                        labels,
                        None,
                        &format_u64(inner.count.load(Ordering::Relaxed)),
                    );
                }
            }
        }
        out
    }
}

impl MetricEntry {
    fn counter_inner(&self, name: &str) -> Arc<CounterInner> {
        match &self.inner {
            MetricInner::Counter(inner) => Arc::clone(inner),
            _ => panic!(
                "metric {name:?} already registered as a {}",
                self.kind.as_str()
            ),
        }
    }

    fn gauge_inner(&self, name: &str) -> Arc<GaugeInner> {
        match &self.inner {
            MetricInner::Gauge(inner) => Arc::clone(inner),
            _ => panic!(
                "metric {name:?} already registered as a {}",
                self.kind.as_str()
            ),
        }
    }

    fn histogram_inner(&self, name: &str) -> Arc<HistogramInner> {
        match &self.inner {
            MetricInner::Histogram(inner) => Arc::clone(inner),
            _ => panic!(
                "metric {name:?} already registered as a {}",
                self.kind.as_str()
            ),
        }
    }
}

fn render_sample(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    le: Option<&str>,
    value: &str,
) {
    out.push_str(name);
    if !labels.is_empty() || le.is_some() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label(v));
            out.push('"');
        }
        if let Some(bound) = le {
            if !first {
                out.push(',');
            }
            out.push_str("le=\"");
            out.push_str(bound);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn format_u64(value: u64) -> String {
    value.to_string()
}

/// Prometheus-compatible float rendering: integral values stay
/// integral-looking via Rust's shortest-roundtrip `{}` formatting.
fn format_f64(value: f64) -> String {
    if value.is_infinite() {
        return if value > 0.0 {
            "+Inf".to_string()
        } else {
            "-Inf".to_string()
        };
    }
    format!("{value}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_add_and_labels_sorted() {
        let reg = Registry::new();
        let c = reg.counter("t_total", "help", &[("b", "2"), ("a", "1")]);
        c.add(5);
        let snap = reg.snapshot();
        let sample = snap.counters.iter().find(|s| s.name == "t_total").unwrap();
        assert_eq!(sample.value, 5);
        assert_eq!(
            sample.labels,
            vec![
                ("a".to_string(), "1".to_string()),
                ("b".to_string(), "2".to_string())
            ]
        );
    }

    #[test]
    fn reregistration_shares_atomics() {
        let reg = Registry::new();
        reg.counter("shared_total", "h", &[]).inc();
        reg.counter("shared_total", "other help ignored", &[]).inc();
        assert_eq!(reg.counter("shared_total", "h", &[]).get(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("mismatch", "h", &[]);
        reg.gauge("mismatch", "h", &[]);
    }

    /// Pins `le` semantics at boundary values: an observation exactly
    /// equal to a bound belongs to that bound's bucket, one ulp above
    /// it spills into the next, and values beyond the last bound land
    /// in the overflow slot.
    #[test]
    fn histogram_bucket_boundaries() {
        let reg = Registry::new();
        let h = reg.histogram("b_seconds", "h", &[], Buckets::new(vec![0.001, 0.01, 0.1]));
        h.observe(0.001); // exactly on first bound -> bucket 0
        h.observe(0.0010000000000000002); // one ulp above -> bucket 1
        h.observe(0.01); // exactly on second bound -> bucket 1
        h.observe(0.1); // exactly on last bound -> bucket 2
        h.observe(0.5); // beyond last bound -> overflow
        h.observe(0.0); // below first bound -> bucket 0
        let snap = reg.snapshot();
        let sample = snap
            .histograms
            .iter()
            .find(|s| s.name == "b_seconds")
            .unwrap();
        assert_eq!(sample.counts, vec![2, 2, 1, 1]);
        assert_eq!(sample.count, 6);
        assert!((sample.sum - 0.612).abs() < 1e-12, "sum={}", sample.sum);
    }

    #[test]
    fn histogram_cumulative_render() {
        let reg = Registry::new();
        let h = reg.histogram("c_seconds", "h", &[], Buckets::new(vec![1.0, 2.0]));
        h.observe(0.5);
        h.observe(1.5);
        h.observe(99.0);
        let text = reg.render_prometheus();
        assert!(text.contains("c_seconds_bucket{le=\"1\"} 1"), "{text}");
        assert!(text.contains("c_seconds_bucket{le=\"2\"} 2"), "{text}");
        assert!(text.contains("c_seconds_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("c_seconds_count 3"), "{text}");
        assert!(text.contains("c_seconds_sum 101"), "{text}");
    }

    #[test]
    fn quantile_interpolates() {
        let reg = Registry::new();
        let h = reg.histogram("q_seconds", "h", &[], Buckets::new(vec![1.0, 2.0, 4.0]));
        for _ in 0..100 {
            h.observe(1.5); // all in (1, 2]
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 1.5).abs() < 1e-9, "p50={p50}");
        assert_eq!(
            reg.histogram("q_empty", "h", &[], Buckets::latency())
                .quantile(0.99),
            0.0
        );
    }

    #[test]
    fn quantile_overflow_clamps_to_last_bound() {
        let reg = Registry::new();
        let h = reg.histogram("o_seconds", "h", &[], Buckets::new(vec![1.0, 2.0]));
        h.observe(50.0);
        assert_eq!(h.quantile(0.99), 2.0);
    }

    #[test]
    fn start_time_and_build_info_present() {
        let reg = Registry::new();
        let snap = reg.snapshot();
        let start = snap
            .gauges
            .iter()
            .find(|g| g.name == "pim_process_start_seconds")
            .expect("start gauge");
        assert!(start.value > 0.0);
        let build = snap
            .gauges
            .iter()
            .find(|g| g.name == "pim_build_info")
            .expect("build gauge");
        assert_eq!(build.value, 1.0);
        assert_eq!(build.labels[0].0, "version");
        assert!(reg.uptime_seconds() >= 0.0);
    }

    #[test]
    fn render_is_deterministic_and_sorted() {
        let reg = Registry::new();
        reg.counter("z_total", "z", &[]).inc();
        reg.counter("a_total", "a", &[("x", "1")]).inc();
        reg.counter("a_total", "a", &[("x", "0")]).inc();
        let one = reg.render_prometheus();
        let two = reg.render_prometheus();
        assert_eq!(one, two);
        let a0 = one.find("a_total{x=\"0\"}").unwrap();
        let a1 = one.find("a_total{x=\"1\"}").unwrap();
        let z = one.find("z_total ").unwrap();
        assert!(a0 < a1 && a1 < z, "{one}");
        let helps = one.matches("# HELP a_total").count();
        assert_eq!(helps, 1, "HELP emitted once per family:\n{one}");
    }

    #[test]
    fn label_values_escaped() {
        let reg = Registry::new();
        reg.counter("esc_total", "h", &[("p", "a\"b\\c\nd")]).inc();
        let text = reg.render_prometheus();
        assert!(
            text.contains("esc_total{p=\"a\\\"b\\\\c\\nd\"} 1"),
            "{text}"
        );
    }
}
