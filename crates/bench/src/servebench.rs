//! Loopback serving throughput plus the telemetry-overhead gate.
//!
//! Two measurements share one report:
//!
//! 1. **Serve smoke**: an in-process [`PlanServer`] on an ephemeral
//!    loopback port, hammered by client threads posting `/v1/plan`
//!    bodies. RPS comes from wall time; p50/p90/p99 come from the
//!    **delta** of the server's own `pim_request_seconds` histogram
//!    between two registry snapshots, so the bench exercises the same
//!    telemetry a Prometheus scrape would read.
//! 2. **Overhead gate**: telemetry must be observation-only in cost,
//!    not just in bytes. A fully cached `vwsdk sweep` workload is timed
//!    with the registry enabled and stubbed
//!    ([`pim_telemetry::set_enabled`]); `--check` fails when the
//!    enabled run is ≥ 2% slower.
//!
//! Consumed by `vwsdk bench serve --emit BENCH_serve.json`, which CI
//! tracks. The overhead measurement flips the **process-global**
//! telemetry switch, so [`run`] must not race other recording — the
//! CLI binary satisfies that trivially; tests use a dedicated
//! integration binary.

use pim_arch::PimArray;
use pim_nets::zoo;
use pim_telemetry::HistogramSample;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;
use vw_sdk::PlanningEngine;
use vw_sdk_serve::PlanServer;

/// Maximum enabled-vs-stubbed slowdown the `--check` gate accepts, in
/// percent.
pub const OVERHEAD_GATE_PCT: f64 = 2.0;

/// What to measure; [`ServeBenchOptions::default`] is the CI smoke
/// configuration (tiny network on 256×256, 200 requests over 4 client
/// threads).
#[derive(Debug, Clone)]
pub struct ServeBenchOptions {
    /// Total `POST /v1/plan` requests across all client threads.
    pub requests: usize,
    /// Client threads issuing them (also the server's worker count).
    pub concurrency: usize,
    /// Zoo network named in every plan body.
    pub network: String,
    /// Array geometry (`RxC`) named in every plan body.
    pub array: String,
    /// Quick mode: fewer overhead samples (CI smoke); otherwise
    /// best-of-five.
    pub quick: bool,
    /// Reuse one connection per client thread (HTTP keep-alive)
    /// instead of a fresh connection per request.
    pub keep_alive: bool,
    /// Extra concurrency levels to measure after the main phase
    /// (empty = no sweep). Each level reruns the same request count.
    pub sweep: Vec<usize>,
}

impl Default for ServeBenchOptions {
    fn default() -> Self {
        Self {
            requests: 200,
            concurrency: 4,
            network: "tiny".to_string(),
            array: "256x256".to_string(),
            quick: false,
            keep_alive: false,
            sweep: Vec::new(),
        }
    }
}

/// The enabled-vs-stubbed timing of the cached-sweep workload.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadProbe {
    /// Cached `sweep_arrays` calls per timed block.
    pub iterations: usize,
    /// Interleaved (enabled, stubbed) block pairs measured.
    pub pairs: usize,
    /// Total seconds across all blocks with the registry recording.
    pub enabled_seconds: f64,
    /// Total seconds across all blocks with the registry stubbed.
    pub disabled_seconds: f64,
    /// Median per-pair enabled-over-stubbed slowdown, in percent;
    /// negative when enabled happened to be faster (timing noise).
    pub overhead_pct: f64,
}

/// Median enabled-over-stubbed slowdown in percent from per-pair block
/// timings. Each pair's two blocks are adjacent in time, so slow drift
/// (thermal/frequency scaling, noisy neighbours) cancels within the
/// pair, and the median discards pairs a scheduler hiccup landed on.
fn overhead_pct_from_pairs(timed_pairs: &[(f64, f64)]) -> f64 {
    let mut ratios: Vec<f64> = timed_pairs
        .iter()
        .filter(|(_, disabled)| *disabled > 0.0)
        .map(|(enabled, disabled)| enabled / disabled)
        .collect();
    if ratios.is_empty() {
        return 0.0;
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let mid = ratios.len() / 2;
    let median = if ratios.len() % 2 == 1 {
        ratios[mid]
    } else {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    };
    (median - 1.0) * 100.0
}

/// One concurrency level of the sweep phase.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Client threads at this level.
    pub concurrency: usize,
    /// Responses with a 2xx status.
    pub ok: u64,
    /// Everything else, including connection failures.
    pub errors: u64,
    /// Wall-clock seconds of the level.
    pub seconds: f64,
    /// Requests per second over the wall clock.
    pub rps: f64,
}

/// The measured smoke run plus the configuration that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBenchReport {
    /// Requests attempted.
    pub requests: usize,
    /// Client threads used.
    pub concurrency: usize,
    /// Network in the plan body.
    pub network: String,
    /// Array geometry in the plan body.
    pub array: String,
    /// Whether quick (fewer-sample) timing was used.
    pub quick: bool,
    /// Whether clients reused connections (HTTP keep-alive).
    pub keep_alive: bool,
    /// Responses with a 2xx status.
    pub ok: u64,
    /// Responses with any other status, plus connection failures.
    pub errors: u64,
    /// `pim_sheds_total` delta across the run (503s from a full queue).
    pub sheds: u64,
    /// Wall-clock seconds of the request phase.
    pub seconds: f64,
    /// Requests per second over the wall clock.
    pub rps: f64,
    /// p50 of `pim_request_seconds{endpoint="/v1/plan"}`, milliseconds.
    pub p50_ms: f64,
    /// p90, milliseconds.
    pub p90_ms: f64,
    /// p99, milliseconds.
    pub p99_ms: f64,
    /// The concurrency sweep, when one was requested.
    pub sweep: Vec<SweepPoint>,
    /// The telemetry-overhead probe.
    pub overhead: OverheadProbe,
}

impl ServeBenchReport {
    /// The `--check` gate: every request answered 2xx, nothing shed,
    /// and the enabled registry within [`OVERHEAD_GATE_PCT`] of stubbed.
    /// Returns the failure descriptions; empty means pass.
    pub fn check_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if self.ok != self.requests as u64 || self.errors != 0 {
            failures.push(format!(
                "{} of {} requests answered 2xx ({} errors, {} shed)",
                self.ok, self.requests, self.errors, self.sheds
            ));
        }
        let pct = self.overhead.overhead_pct;
        if pct >= OVERHEAD_GATE_PCT {
            failures.push(format!(
                "telemetry overhead {pct:.2}% >= {OVERHEAD_GATE_PCT}% on the cached sweep \
                 (enabled {:.4}s vs stubbed {:.4}s)",
                self.overhead.enabled_seconds, self.overhead.disabled_seconds
            ));
        }
        failures
    }

    /// The `BENCH_serve.json` payload: a flat, machine-diffable record.
    /// Keys are stable; numbers carry enough digits to compare runs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"bench\": \"serve-loopback\",\n");
        out.push_str(&format!("  \"network\": \"{}\",\n", self.network));
        out.push_str(&format!("  \"array\": \"{}\",\n", self.array));
        out.push_str(&format!("  \"requests\": {},\n", self.requests));
        out.push_str(&format!("  \"concurrency\": {},\n", self.concurrency));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str(&format!("  \"keep_alive\": {},\n", self.keep_alive));
        out.push_str(&format!("  \"ok\": {},\n", self.ok));
        out.push_str(&format!("  \"errors\": {},\n", self.errors));
        out.push_str(&format!("  \"sheds\": {},\n", self.sheds));
        out.push_str(&format!("  \"seconds\": {:.6},\n", self.seconds));
        out.push_str(&format!("  \"rps\": {:.1},\n", self.rps));
        out.push_str(&format!(
            "  \"latency_ms\": {{\"p50\": {:.4}, \"p90\": {:.4}, \"p99\": {:.4}}},\n",
            self.p50_ms, self.p90_ms, self.p99_ms
        ));
        if !self.sweep.is_empty() {
            out.push_str("  \"sweep\": [\n");
            for (i, point) in self.sweep.iter().enumerate() {
                let comma = if i + 1 < self.sweep.len() { "," } else { "" };
                out.push_str(&format!(
                    "    {{\"concurrency\": {}, \"ok\": {}, \"errors\": {}, \
                     \"seconds\": {:.6}, \"rps\": {:.1}}}{comma}\n",
                    point.concurrency, point.ok, point.errors, point.seconds, point.rps
                ));
            }
            out.push_str("  ],\n");
        }
        out.push_str(&format!(
            "  \"overhead\": {{\"iterations\": {}, \"pairs\": {}, \"enabled_seconds\": {:.6}, \
             \"disabled_seconds\": {:.6}, \"overhead_pct\": {:.3}}}\n",
            self.overhead.iterations,
            self.overhead.pairs,
            self.overhead.enabled_seconds,
            self.overhead.disabled_seconds,
            self.overhead.overhead_pct
        ));
        out.push_str("}\n");
        out
    }

    /// Human-readable summary.
    pub fn render_text(&self) -> String {
        let mut text = format!(
            "serve loopback: {} x POST /v1/plan ({} on {}, {} client threads, {})\n\
             {} ok, {} errors, {} shed in {:.3}s -> {:.0} req/s\n\
             latency (from pim_request_seconds): p50 {:.2}ms  p90 {:.2}ms  p99 {:.2}ms\n\
             telemetry overhead on cached sweep: {:+.2}% \
             (enabled {:.4}s vs stubbed {:.4}s, {} iters x {} paired blocks)\n",
            self.requests,
            self.network,
            self.array,
            self.concurrency,
            if self.keep_alive {
                "keep-alive"
            } else {
                "fresh connections"
            },
            self.ok,
            self.errors,
            self.sheds,
            self.seconds,
            self.rps,
            self.p50_ms,
            self.p90_ms,
            self.p99_ms,
            self.overhead.overhead_pct,
            self.overhead.enabled_seconds,
            self.overhead.disabled_seconds,
            self.overhead.iterations,
            self.overhead.pairs,
        );
        for point in &self.sweep {
            text.push_str(&format!(
                "sweep @ {:>3} threads: {} ok, {} errors in {:.3}s -> {:.0} req/s\n",
                point.concurrency, point.ok, point.errors, point.seconds, point.rps
            ));
        }
        text
    }
}

/// Counter value of `(name, labels)` in a snapshot, 0 when absent.
fn counter_value(snap: &pim_telemetry::Snapshot, name: &str, labels: &[(&str, &str)]) -> u64 {
    snap.counters
        .iter()
        .find(|c| {
            c.name == name
                && c.labels.len() == labels.len()
                && labels
                    .iter()
                    .all(|(k, v)| c.labels.iter().any(|(ck, cv)| ck == k && cv == v))
        })
        .map_or(0, |c| c.value)
}

/// The histogram series `(name, labels)` in a snapshot, if present.
fn find_histogram<'a>(
    snap: &'a pim_telemetry::Snapshot,
    name: &str,
    labels: &[(&str, &str)],
) -> Option<&'a HistogramSample> {
    snap.histograms.iter().find(|h| {
        h.name == name
            && h.labels.len() == labels.len()
            && labels
                .iter()
                .all(|(k, v)| h.labels.iter().any(|(hk, hv)| hk == k && hv == v))
    })
}

/// Subtracts a baseline snapshot from a later one for one histogram
/// series, yielding the distribution of only the observations in
/// between. A missing baseline series means the later counts stand
/// alone; a missing later series means nothing was observed.
fn delta_histogram(
    before: &pim_telemetry::Snapshot,
    after: &pim_telemetry::Snapshot,
    name: &str,
    labels: &[(&str, &str)],
) -> Option<HistogramSample> {
    let late = find_histogram(after, name, labels)?;
    let mut delta = late.clone();
    if let Some(early) = find_histogram(before, name, labels) {
        for (slot, base) in delta.counts.iter_mut().zip(&early.counts) {
            *slot = slot.saturating_sub(*base);
        }
        delta.count = delta.count.saturating_sub(early.count);
        delta.sum -= early.sum;
    }
    Some(delta)
}

/// One `POST /v1/plan` over a fresh `connection: close` connection;
/// returns the status, or `None` when the connection itself failed.
fn post_plan(addr: SocketAddr, body: &str) -> Option<u16> {
    let mut stream = TcpStream::connect(addr).ok()?;
    let raw = format!(
        "POST /v1/plan HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    response.split(' ').nth(1)?.parse().ok()
}

/// A persistent keep-alive connection: requests reuse the socket and
/// responses are consumed by their `content-length` framing.
struct KeepAliveConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl KeepAliveConn {
    fn connect(addr: SocketAddr) -> Option<Self> {
        Some(Self {
            stream: TcpStream::connect(addr).ok()?,
            buf: Vec::new(),
        })
    }

    /// One `POST /v1/plan`; returns the status, or `None` when the
    /// connection died (the caller reconnects).
    fn post_plan(&mut self, body: &str) -> Option<u16> {
        let raw = format!(
            "POST /v1/plan HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(raw.as_bytes()).ok()?;
        let mut chunk = [0u8; 16 * 1024];
        let header_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let n = self.stream.read(&mut chunk).ok()?;
            if n == 0 {
                return None;
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..header_end]).ok()?;
        let status: u16 = head.split(' ').nth(1)?.parse().ok()?;
        let length: usize = head.lines().find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })?;
        while self.buf.len() < header_end + length {
            let n = self.stream.read(&mut chunk).ok()?;
            if n == 0 {
                return None;
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        self.buf.drain(..header_end + length);
        Some(status)
    }
}

/// Fires `requests` `POST /v1/plan` bodies from `concurrency` client
/// threads and returns `(ok, errors, wall seconds)`. With `keep_alive`
/// each thread holds one connection for its whole share, reconnecting
/// only if the server drops it; otherwise every request is a fresh
/// `connection: close` exchange.
fn blast(
    addr: SocketAddr,
    body: &str,
    requests: usize,
    concurrency: usize,
    keep_alive: bool,
) -> (u64, u64, f64) {
    let started = Instant::now();
    let mut ok = 0u64;
    let mut errors = 0u64;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..concurrency)
            .map(|thread| {
                // Distribute the remainder across the first threads.
                let share = requests / concurrency + usize::from(thread < requests % concurrency);
                scope.spawn(move || {
                    let mut ok = 0u64;
                    let mut errors = 0u64;
                    let mut conn: Option<KeepAliveConn> = None;
                    for _ in 0..share {
                        let status = if keep_alive {
                            let alive = match conn.take().or_else(|| KeepAliveConn::connect(addr)) {
                                Some(c) => conn.insert(c),
                                None => {
                                    errors += 1;
                                    continue;
                                }
                            };
                            match alive.post_plan(body) {
                                Some(status) => Some(status),
                                None => {
                                    conn = None; // reconnect next round
                                    None
                                }
                            }
                        } else {
                            post_plan(addr, body)
                        };
                        match status {
                            Some(status) if (200..300).contains(&status) => ok += 1,
                            _ => errors += 1,
                        }
                    }
                    (ok, errors)
                })
            })
            .collect();
        for worker in workers {
            let (o, e) = worker.join().expect("bench client thread panicked");
            ok += o;
            errors += e;
        }
    });
    (ok, errors, started.elapsed().as_secs_f64().max(1e-9))
}

/// Times the cached-sweep workload with the registry enabled vs
/// stubbed. The two conditions run as many short interleaved blocks
/// whose order flips every pair, and the median of the per-pair
/// enabled/stubbed ratios is the estimate: slow clock drift
/// (thermal/frequency scaling) hits both halves of a pair equally and
/// cancels, and the median discards pairs a scheduler burst landed in —
/// a paired design measures a sub-percent difference where independent
/// min-of-N cannot. The whole probe runs twice and the quieter round is
/// reported: a noise burst inflates one round, a real regression
/// inflates both. Leaves telemetry enabled.
pub fn measure_overhead(quick: bool) -> Result<OverheadProbe, String> {
    let networks =
        vec![zoo::by_name("vgg13").ok_or_else(|| "zoo network vgg13 missing".to_string())?];
    let arrays = vec![
        PimArray::new(256, 256).map_err(|e| e.to_string())?,
        PimArray::new(512, 512).map_err(|e| e.to_string())?,
    ];
    let engine = PlanningEngine::new().with_jobs(1);
    // Warm every (shape, array) pair so the timed region is pure cache
    // hits — the workload named by the gate.
    engine
        .sweep_arrays(&networks, &arrays)
        .map_err(|e| e.to_string())?;

    // Calibrate each block to a fixed wall-time budget.
    let calibration_started = Instant::now();
    for _ in 0..5 {
        engine
            .sweep_arrays(&networks, &arrays)
            .map_err(|e| e.to_string())?;
    }
    let per_iteration = (calibration_started.elapsed().as_secs_f64() / 5.0).max(1e-7);
    let block_budget = if quick { 0.008 } else { 0.010 };
    let iterations = ((block_budget / per_iteration).ceil() as usize).clamp(10, 2_000);
    let pairs = if quick { 41 } else { 61 };
    let mut rounds: Vec<OverheadProbe> = Vec::with_capacity(2);
    for _ in 0..2 {
        let mut timed_pairs = Vec::with_capacity(pairs);
        for pair in 0..pairs {
            // Flip the within-pair order so even linear drift cancels.
            let order = if pair % 2 == 0 {
                [false, true]
            } else {
                [true, false]
            };
            let mut enabled_block = 0.0f64;
            let mut disabled_block = 0.0f64;
            for &enabled in &order {
                pim_telemetry::set_enabled(enabled);
                let started = Instant::now();
                for _ in 0..iterations {
                    engine
                        .sweep_arrays(&networks, &arrays)
                        .map_err(|e| e.to_string())?;
                }
                let elapsed = started.elapsed().as_secs_f64();
                if enabled {
                    enabled_block = elapsed;
                } else {
                    disabled_block = elapsed;
                }
            }
            timed_pairs.push((enabled_block, disabled_block));
        }
        rounds.push(OverheadProbe {
            iterations,
            pairs,
            enabled_seconds: timed_pairs.iter().map(|(e, _)| e).sum(),
            disabled_seconds: timed_pairs.iter().map(|(_, d)| d).sum(),
            overhead_pct: overhead_pct_from_pairs(&timed_pairs),
        });
    }
    pim_telemetry::set_enabled(true);
    rounds
        .into_iter()
        .min_by(|a, b| {
            a.overhead_pct
                .partial_cmp(&b.overhead_pct)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .ok_or_else(|| "overhead probe produced no rounds".to_string())
}

/// Runs the loopback smoke plus the overhead probe.
///
/// # Errors
///
/// Returns a message when the server cannot bind, the request workload
/// is empty, or the overhead workload cannot plan.
pub fn run(options: &ServeBenchOptions) -> Result<ServeBenchReport, String> {
    if options.requests == 0 || options.concurrency == 0 {
        return Err("serve bench needs at least one request and one thread".to_string());
    }
    let server = PlanServer::bind("127.0.0.1:0", options.concurrency)
        .map_err(|e| format!("cannot bind loopback: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.spawn();

    let body = format!(
        "{{\"network\": \"{}\", \"array\": \"{}\"}}",
        options.network, options.array
    );
    // One untimed request surfaces config errors (unknown network) and
    // warms the search memo before the clock starts.
    match post_plan(addr, &body) {
        Some(200) => {}
        Some(status) => {
            handle.shutdown();
            return Err(format!(
                "warm-up POST /v1/plan answered {status} for {body} — fix the bench config"
            ));
        }
        None => {
            handle.shutdown();
            return Err("warm-up POST /v1/plan could not connect".to_string());
        }
    }

    let before = pim_telemetry::global().snapshot();
    let (ok, errors, seconds) = blast(
        addr,
        &body,
        options.requests,
        options.concurrency,
        options.keep_alive,
    );
    let after = pim_telemetry::global().snapshot();

    // The sweep reuses the warmed server: each extra concurrency level
    // refires the same request count.
    let mut sweep = Vec::with_capacity(options.sweep.len());
    for &level in &options.sweep {
        if level == 0 {
            handle.shutdown();
            return Err("sweep concurrency levels must be positive".to_string());
        }
        let (ok, errors, seconds) = blast(addr, &body, options.requests, level, options.keep_alive);
        sweep.push(SweepPoint {
            concurrency: level,
            ok,
            errors,
            seconds,
            rps: ok as f64 / seconds,
        });
    }
    handle.shutdown();

    let plan_labels: &[(&str, &str)] = &[("endpoint", "/v1/plan")];
    let latency = delta_histogram(&before, &after, "pim_request_seconds", plan_labels);
    let quantile_ms = |q: f64| latency.as_ref().map_or(0.0, |h| h.quantile(q) * 1000.0);
    let sheds = counter_value(&after, "pim_sheds_total", &[]).saturating_sub(counter_value(
        &before,
        "pim_sheds_total",
        &[],
    ));

    let overhead = measure_overhead(options.quick)?;
    Ok(ServeBenchReport {
        requests: options.requests,
        concurrency: options.concurrency,
        network: options.network.clone(),
        array: options.array.clone(),
        quick: options.quick,
        keep_alive: options.keep_alive,
        ok,
        errors,
        sheds,
        seconds,
        rps: ok as f64 / seconds,
        p50_ms: quantile_ms(0.50),
        p90_ms: quantile_ms(0.90),
        p99_ms: quantile_ms(0.99),
        sweep,
        overhead,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_telemetry::{Buckets, Registry};

    #[test]
    fn delta_histogram_subtracts_the_baseline() {
        let reg = Registry::new();
        let h = reg.histogram("d_seconds", "h", &[("endpoint", "/x")], Buckets::latency());
        h.observe(0.002);
        let before = reg.snapshot();
        h.observe(0.002);
        h.observe(0.002);
        let after = reg.snapshot();
        let delta =
            delta_histogram(&before, &after, "d_seconds", &[("endpoint", "/x")]).expect("series");
        assert_eq!(delta.count, 2);
        assert!((delta.sum - 0.004).abs() < 1e-12, "sum={}", delta.sum);
        assert_eq!(delta.counts.iter().sum::<u64>(), 2);
        assert!(delta_histogram(&before, &after, "d_seconds", &[]).is_none());
    }

    #[test]
    fn json_and_check_gate_shapes() {
        let report = ServeBenchReport {
            requests: 10,
            concurrency: 2,
            network: "tiny".to_string(),
            array: "256x256".to_string(),
            quick: true,
            keep_alive: true,
            ok: 10,
            errors: 0,
            sheds: 0,
            seconds: 0.5,
            rps: 20.0,
            p50_ms: 1.0,
            p90_ms: 2.0,
            p99_ms: 3.0,
            sweep: vec![SweepPoint {
                concurrency: 8,
                ok: 10,
                errors: 0,
                seconds: 0.25,
                rps: 40.0,
            }],
            overhead: OverheadProbe {
                iterations: 20,
                pairs: 3,
                enabled_seconds: 1.0,
                disabled_seconds: 1.0,
                overhead_pct: 0.0,
            },
        };
        for key in [
            "\"bench\": \"serve-loopback\"",
            "\"rps\": 20.0",
            "\"keep_alive\": true",
            "\"latency_ms\": {\"p50\": 1.0000",
            "{\"concurrency\": 8, \"ok\": 10, \"errors\": 0, \"seconds\": 0.250000, \"rps\": 40.0}",
            "\"overhead_pct\": 0.000",
        ] {
            assert!(
                report.to_json().contains(key),
                "missing {key} in {}",
                report.to_json()
            );
        }
        assert!(report.check_failures().is_empty());
        assert!(report.render_text().contains("p99 3.00ms"));

        let mut failing = report.clone();
        failing.errors = 1;
        failing.ok = 9;
        failing.overhead.overhead_pct = 5.0;
        let failures = failing.check_failures();
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[1].contains("overhead"), "{failures:?}");
    }

    #[test]
    fn overhead_median_is_robust_to_outlier_pairs() {
        // Nine clean pairs at +1%, two where the scheduler preempted the
        // enabled block: the median stays at the clean estimate.
        let mut pairs = vec![(1.01, 1.0); 9];
        pairs.push((3.0, 1.0));
        pairs.push((2.5, 1.0));
        let pct = overhead_pct_from_pairs(&pairs);
        assert!((pct - 1.0).abs() < 1e-9, "pct={pct}");
        // Degenerate inputs answer 0 instead of dividing by zero.
        assert_eq!(overhead_pct_from_pairs(&[]), 0.0);
        assert_eq!(overhead_pct_from_pairs(&[(1.0, 0.0)]), 0.0);
        // Even pair counts average the middle two ratios.
        let pct = overhead_pct_from_pairs(&[(1.02, 1.0), (1.04, 1.0)]);
        assert!((pct - 3.0).abs() < 1e-9, "pct={pct}");
    }

    #[test]
    fn empty_workloads_are_rejected() {
        let mut options = ServeBenchOptions {
            requests: 0,
            ..ServeBenchOptions::default()
        };
        assert!(run(&options).is_err());
        options.requests = 1;
        options.concurrency = 0;
        assert!(run(&options).is_err());
    }
}
