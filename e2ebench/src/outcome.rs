//! What a run prints: the environment line, detail lines, and the final
//! one-line JSON result whose metric names and units come from
//! `BENCHMARK.json`, so the two cannot drift apart.

use crate::procfs::{self, StealMonitor};
use crate::stats::{median, Latencies};
use crate::trace::{OpSpan, Tracer};
use crate::Args;
use pim_report::json::JsonValue;
use std::collections::BTreeMap;
use std::time::Instant;
use vw_sdk::EngineStats;

/// In-process set-ups timed before the measured window.
const SETUPS_BEFORE: usize = 5;
/// During the window one more, throwaway set-up is timed between ops
/// whenever this long has passed since the last one. The host this was
/// tuned on changes speed every second or two, so set-ups spread over
/// the window see the same host conditions as the ops; a burst of
/// set-ups before it sees only one moment.
const SETUP_INTERVAL_S: f64 = 0.25;

/// The in-process set-ups of one run, as the span each was timed over;
/// `setup_s` is the median of the quiet ones (see [`report_setups`]).
#[derive(Debug)]
pub struct Setups {
    spans: Vec<(Instant, Instant)>,
    last: Instant,
}

impl Setups {
    /// Times [`SETUPS_BEFORE`] set-ups and keeps the last one built.
    pub fn before<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(Self, T), String> {
        let mut setups = Self {
            spans: Vec::new(),
            last: Instant::now(),
        };
        let mut built = setups.time(&mut setup)?;
        for _ in 1..SETUPS_BEFORE {
            built = setups.time(&mut setup)?;
        }
        Ok((setups, built))
    }

    /// Times one throwaway set-up if [`SETUP_INTERVAL_S`] has passed
    /// since the last; call it between ops, outside their timing.
    pub fn between_ops<T>(
        &mut self,
        setup: impl FnMut() -> Result<T, String>,
    ) -> Result<(), String> {
        if self.last.elapsed().as_secs_f64() >= SETUP_INTERVAL_S {
            self.time(setup)?;
        }
        Ok(())
    }

    fn time<T>(&mut self, mut setup: impl FnMut() -> Result<T, String>) -> Result<T, String> {
        let started = Instant::now();
        let built = setup()?;
        self.last = Instant::now();
        self.spans.push((started, self.last));
        Ok(built)
    }
}

/// The metric names and units `BENCHMARK.json` declares.
#[derive(Debug)]
pub struct Declared {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

impl Declared {
    /// Reads the declared metric lists from the benchmark manifest.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let manifest = JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let list = |key: &str| -> Result<Vec<(String, String)>, String> {
            manifest
                .get(key)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("{path} has no {key:?} list"))?
                .iter()
                .map(|metric| {
                    let field = |f: &str| metric.get(f).and_then(JsonValue::as_str);
                    match (field("name"), field("unit")) {
                        (Some(name), Some(unit)) => Ok((name.to_string(), unit.to_string())),
                        _ => Err(format!("{path}: a {key} entry lacks a name or unit")),
                    }
                })
                .collect()
        };
        Ok(Self {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations started in the measured window.
    pub attempted: u64,
    /// Operations that errored, answered non-2xx, or failed an oracle.
    pub failed: u64,
    /// Metric values by name (end-to-end or per-layer, per the mode).
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable detail lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The lines to print: notes, then the result JSON. End-to-end runs
    /// must supply every declared metric; a traced run reports 0 for a
    /// layer that does no work on the workload.
    pub fn render(mut self, declared: &Declared, trace: bool) -> Result<Vec<String>, String> {
        let list = if trace {
            &declared.per_layer
        } else {
            &declared.end_to_end
        };
        let mut members = Vec::with_capacity(list.len());
        for (name, unit) in list {
            let value = match self.metrics.remove(name) {
                Some(value) => value,
                None if trace => 0.0,
                None => return Err(format!("the workload produced no {name:?}")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name:?} is not finite: {value}"));
            }
            members.push((
                name.clone(),
                JsonValue::object([
                    ("value", JsonValue::Number(value)),
                    ("unit", JsonValue::from(unit.as_str())),
                ]),
            ));
        }
        for (name, value) in &self.metrics {
            self.notes.push(format!("extra {name} = {value}"));
        }
        let correct = self.failed == 0 && self.attempted > 0;
        let result = JsonValue::object([
            ("correct", JsonValue::Bool(correct)),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", JsonValue::Object(members)),
        ]);
        let mut lines = self.notes;
        lines.push(result.render());
        Ok(lines)
    }
}

/// The environment every result is recorded with: cores, toolchain,
/// source identity, build profile and the run's own parameters.
pub fn env_line(args: &Args) -> String {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    let line = JsonValue::object([
        ("nproc", crate::nproc().into()),
        ("rustc", JsonValue::from(env("E2EBENCH_RUSTC"))),
        ("source", JsonValue::from(env("E2EBENCH_SOURCE"))),
        (
            "profile",
            JsonValue::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("workload", JsonValue::from(args.workload.as_str())),
        ("seed", args.seed.into()),
        ("seconds", JsonValue::Number(args.seconds)),
        ("trace", JsonValue::Bool(args.trace)),
    ]);
    format!("env {}", line.render())
}

/// Engine cache counters between two readings.
#[derive(Debug, Default, Clone, Copy)]
pub struct CacheDelta {
    plan_hits: u64,
    plan_misses: u64,
    search_hits: u64,
    search_misses: u64,
}

impl CacheDelta {
    pub fn between(before: &EngineStats, after: &EngineStats) -> Self {
        Self {
            plan_hits: after.plan_hits - before.plan_hits,
            plan_misses: after.plan_misses - before.plan_misses,
            search_hits: after.search_hits - before.search_hits,
            search_misses: after.search_misses - before.search_misses,
        }
    }

    /// Sets the `cost.memo.*` and `core.plan_cache.*` metrics, per op.
    pub fn report(&self, out: &mut Outcome, ops: f64, entries: usize) {
        let frac = |hits: u64, misses: u64| {
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            }
        };
        out.set("cost.memo.hits", self.search_hits as f64 / ops);
        out.set("cost.memo.misses", self.search_misses as f64 / ops);
        out.set(
            "cost.memo.hit_frac",
            frac(self.search_hits, self.search_misses),
        );
        out.set("core.plan_cache.hits", self.plan_hits as f64 / ops);
        out.set("core.plan_cache.misses", self.plan_misses as f64 / ops);
        out.set(
            "core.plan_cache.hit_frac",
            frac(self.plan_hits, self.plan_misses),
        );
        out.set("core.plan_cache.entries", entries as f64);
    }
}

/// Sets the end-to-end metrics every closed-loop workload shares.
pub fn report_closed_loop(
    out: &mut Outcome,
    latencies: &Latencies,
    setups: &Setups,
) -> Result<(), String> {
    latencies.report(out)?;
    out.set("ops_per_s", latencies.closed_loop_ops_per_s());
    out.set("peak_rss_mb", procfs::peak_rss_mb(None)?);
    report_setups(out, &setups.spans);
    Ok(())
}

/// Sets `setup_s` to the median time of the quiet set-ups among `spans`
/// ([`StealMonitor::quiet`]), with a note summarizing all of them.
pub fn report_setups(out: &mut Outcome, spans: &[(Instant, Instant)]) {
    let seconds = |&(from, to): &(Instant, Instant)| to.duration_since(from).as_secs_f64();
    let steal = StealMonitor::global();
    steal.read_now();
    let quiet: Vec<f64> = spans
        .iter()
        .zip(steal.quiet(spans, 1))
        .filter(|(_, keep)| *keep)
        .map(|(span, _)| seconds(span))
        .collect();
    let all: Vec<f64> = spans.iter().map(seconds).collect();
    out.set("setup_s", median(&quiet));
    out.note(format!(
        "setup_s n={} quiet={} quiet median {:.6}; all: min {:.6} median {:.6} max {:.6}",
        all.len(),
        quiet.len(),
        median(&quiet),
        all.iter().copied().fold(f64::INFINITY, f64::min),
        median(&all),
        all.iter().copied().fold(0.0, f64::max),
    ));
}

/// Sets the tracing-health metrics from traced and untraced op times.
pub fn report_trace_health(out: &mut Outcome, traced: &[OpSpan], untraced_s: &[f64]) {
    let total: u64 = traced.iter().map(|op| op.total_ns).sum();
    let unattributed: u64 = traced.iter().map(|op| op.unattributed_ns).sum();
    out.set(
        "trace.unattributed_frac",
        unattributed as f64 / total.max(1) as f64,
    );
    let traced_s: Vec<f64> = traced.iter().map(|op| op.total_ns as f64 / 1e9).collect();
    out.set(
        "trace.overhead_frac",
        median(&traced_s) / median(untraced_s) - 1.0,
    );
}

/// Writes the run's Chrome trace to `.bench_trace/<workload>-seed<N>.json`.
pub fn write_trace(tracer: &Tracer, args: &Args) -> Result<(), String> {
    let path = std::path::PathBuf::from(format!(
        ".bench_trace/{}-seed{}.json",
        args.workload, args.seed
    ));
    tracer.write_chrome(&path)?;
    eprintln!("trace written to {}", path.display());
    Ok(())
}
