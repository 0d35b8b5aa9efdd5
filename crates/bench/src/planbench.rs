//! Cold-search planning throughput: pruned Algorithm 1 vs the
//! paper-form exhaustive scan.
//!
//! The workload is the full sweep surface — every distinct layer shape
//! of the zoo crossed with a set of array geometries — searched cold
//! (no memoized results). The baseline runs the exhaustive sequential
//! scan exactly as the paper writes it; the contender runs the
//! bound-pruned scan through a fresh [`SearchCache`], so per-shape
//! candidate tables are reused across array geometries the way
//! `vwsdk sweep` and the chip deploy optimizer reuse them. Both
//! passes search the same task list, and every task's outcome is
//! compared field-by-field: pruning is only a win if it is lossless.
//!
//! Consumed by the `vwsdk bench plan --emit BENCH_plan.json` emitter
//! that CI tracks; `--check` gates on losslessness and speedup > 1.

use pim_arch::PimArray;
use pim_cost::memo::SearchCache;
use pim_cost::search::{self, SearchOptions, SearchResult};
use pim_nets::{zoo, ConvLayer};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What to sweep; [`PlanBenchOptions::default`] is the CI
/// configuration (every zoo network crossed with four array
/// geometries).
#[derive(Debug, Clone)]
pub struct PlanBenchOptions {
    /// Zoo networks contributing layer shapes.
    pub networks: Vec<String>,
    /// Array geometries every distinct shape is searched against.
    pub arrays: Vec<PimArray>,
    /// Quick mode: one timed pass per side, no warm-up (CI smoke);
    /// otherwise the best of three after a warm-up.
    pub quick: bool,
    /// Worker threads for the pruned pass (0 = all cores). The
    /// exhaustive baseline is always sequential — that is the thing
    /// being replaced.
    pub jobs: usize,
}

impl Default for PlanBenchOptions {
    fn default() -> Self {
        Self {
            networks: zoo::all().iter().map(|n| n.name().to_string()).collect(),
            arrays: vec![
                PimArray::new(512, 512).expect("positive dimensions"),
                PimArray::new(512, 256).expect("positive dimensions"),
                PimArray::new(256, 256).expect("positive dimensions"),
                PimArray::new(128, 128).expect("positive dimensions"),
            ],
            quick: false,
            jobs: 0,
        }
    }
}

/// One timed side of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct PassPoint {
    /// Wall-clock seconds of the fastest run.
    pub seconds: f64,
    /// Completed searches per wall-clock second.
    pub searches_per_s: f64,
    /// Candidates fully evaluated through the cost model, summed over
    /// all tasks.
    pub evaluated: u64,
    /// Candidates skipped by the cycle lower bound, summed over all
    /// tasks (always 0 for the exhaustive side).
    pub pruned: u64,
}

/// The measured comparison plus the configuration that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanBenchReport {
    /// Networks whose layers seeded the shape set.
    pub networks: Vec<String>,
    /// Array geometries, as `RxC`.
    pub arrays: Vec<String>,
    /// Distinct layer shapes found across the networks.
    pub shapes: usize,
    /// Searches performed per pass: distinct shapes × arrays.
    pub tasks: usize,
    /// Whether quick (single-run) timing was used.
    pub quick: bool,
    /// Worker threads requested for the pruned pass (0 = all cores).
    pub jobs: usize,
    /// Worker threads actually used for the pruned pass.
    pub workers: usize,
    /// Timed runs per side (the fastest is kept).
    pub runs: usize,
    /// The exhaustive sequential baseline.
    pub exhaustive: PassPoint,
    /// The pruned, table-sharing, parallel contender.
    pub pruned: PassPoint,
    /// Tasks whose pruned outcome differed from the exhaustive one
    /// (best candidate, its full cost record, the im2col fallback, or
    /// the evaluated+pruned accounting). Must be 0.
    pub mismatches: usize,
}

impl PlanBenchReport {
    /// Exhaustive seconds over pruned seconds: the headline number.
    pub fn speedup(&self) -> f64 {
        if self.pruned.seconds > 0.0 {
            self.exhaustive.seconds / self.pruned.seconds
        } else {
            0.0
        }
    }

    /// Fraction of the exhaustive candidate space the bound skipped.
    pub fn pruned_fraction(&self) -> f64 {
        let total = self.pruned.evaluated + self.pruned.pruned;
        if total > 0 {
            self.pruned.pruned as f64 / total as f64
        } else {
            0.0
        }
    }

    /// `true` when every task's pruned outcome matched the exhaustive
    /// one exactly.
    pub fn lossless(&self) -> bool {
        self.mismatches == 0
    }

    /// The CI gate: pruning must be lossless and measurably faster
    /// than the exhaustive baseline in the same run.
    pub fn passes_check(&self) -> bool {
        self.lossless() && self.speedup() > 1.0
    }

    /// The `BENCH_plan.json` payload: a flat, machine-diffable record
    /// of the comparison. Keys are stable; numbers carry enough digits
    /// to compare runs.
    pub fn to_json(&self) -> String {
        let quoted = |xs: &[String]| {
            xs.iter()
                .map(|x| format!("\"{x}\""))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut out = String::from("{\n");
        out.push_str("  \"bench\": \"plan-cold-search\",\n");
        out.push_str(&format!("  \"networks\": [{}],\n", quoted(&self.networks)));
        out.push_str(&format!("  \"arrays\": [{}],\n", quoted(&self.arrays)));
        out.push_str(&format!("  \"shapes\": {},\n", self.shapes));
        out.push_str(&format!("  \"tasks\": {},\n", self.tasks));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str(&format!("  \"workers\": {},\n", self.workers));
        out.push_str(&format!("  \"runs\": {},\n", self.runs));
        out.push_str(&format!(
            "  \"exhaustive\": {{\"seconds\": {:.6}, \"searches_per_s\": {:.1}, \
             \"candidates_evaluated\": {}}},\n",
            self.exhaustive.seconds, self.exhaustive.searches_per_s, self.exhaustive.evaluated
        ));
        out.push_str(&format!(
            "  \"pruned\": {{\"seconds\": {:.6}, \"searches_per_s\": {:.1}, \
             \"candidates_evaluated\": {}, \"candidates_pruned\": {}, \
             \"pruned_fraction\": {:.4}}},\n",
            self.pruned.seconds,
            self.pruned.searches_per_s,
            self.pruned.evaluated,
            self.pruned.pruned,
            self.pruned_fraction()
        ));
        out.push_str(&format!("  \"speedup\": {:.3},\n", self.speedup()));
        out.push_str(&format!("  \"lossless\": {}\n", self.lossless()));
        out.push_str("}\n");
        out
    }

    /// Human-readable comparison.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "cold plan search: {} tasks ({} shapes x {} arrays), {} run{} per side\n\
             {:>14}  {:>9}  {:>11}  {:>13}  {:>13}\n",
            self.tasks,
            self.shapes,
            self.arrays.len(),
            self.runs,
            if self.runs == 1 { "" } else { "s" },
            "pass",
            "seconds",
            "searches/s",
            "evaluated",
            "pruned",
        );
        out.push_str(&format!(
            "{:>14}  {:>9.4}  {:>11.1}  {:>13}  {:>13}\n",
            "exhaustive x1",
            self.exhaustive.seconds,
            self.exhaustive.searches_per_s,
            self.exhaustive.evaluated,
            self.exhaustive.pruned,
        ));
        out.push_str(&format!(
            "{:>14}  {:>9.4}  {:>11.1}  {:>13}  {:>13}\n",
            format!("pruned x{}", self.workers),
            self.pruned.seconds,
            self.pruned.searches_per_s,
            self.pruned.evaluated,
            self.pruned.pruned,
        ));
        out.push_str(&format!(
            "speedup: {:.2}x, bound skipped {:.1}% of the candidate space, lossless: {}\n",
            self.speedup(),
            100.0 * self.pruned_fraction(),
            if self.lossless() { "yes" } else { "NO" },
        ));
        out
    }
}

/// The deduplicated sweep surface: one representative layer per
/// distinct shape, crossed with every array geometry. Deduplication
/// mirrors what the memoized `PlanningEngine` would do anyway — a
/// repeated shape is a cache hit, not a search — so both passes time
/// pure cold-search work.
fn collect_tasks(
    options: &PlanBenchOptions,
) -> Result<(usize, Vec<(ConvLayer, PimArray)>), String> {
    let mut shapes = std::collections::HashSet::new();
    let mut representatives = Vec::new();
    for name in &options.networks {
        let network = zoo::by_name(name).ok_or_else(|| format!("unknown zoo network {name:?}"))?;
        for layer in network.layers() {
            if shapes.insert(layer.shape()) {
                representatives.push(layer.clone());
            }
        }
    }
    let tasks = representatives
        .iter()
        .flat_map(|layer| {
            options
                .arrays
                .iter()
                .map(move |&array| (layer.clone(), array))
        })
        .collect::<Vec<_>>();
    Ok((representatives.len(), tasks))
}

fn resolved_workers(jobs: usize, tasks: usize) -> usize {
    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
    let requested = if jobs == 0 { hardware } else { jobs };
    requested.min(tasks).max(1)
}

/// One exhaustive sequential pass over every task — the paper-form
/// baseline the pruned path replaces.
fn exhaustive_pass(tasks: &[(ConvLayer, PimArray)]) -> Vec<SearchResult> {
    tasks
        .iter()
        .map(|(layer, array)| search::optimal_window_with(layer, *array, SearchOptions::paper()))
        .collect()
}

/// One cold pruned pass: a fresh [`SearchCache`] (so nothing is
/// memoized going in, but per-shape candidate tables are shared across
/// the array geometries), tasks sharded over `workers` scoped threads.
fn pruned_pass(tasks: &[(ConvLayer, PimArray)], workers: usize) -> Vec<Arc<SearchResult>> {
    let cache = SearchCache::new();
    if workers <= 1 {
        return tasks
            .iter()
            .map(|(layer, array)| cache.optimal_window_with(layer, *array, SearchOptions::pruned()))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Arc<SearchResult>>>> =
        tasks.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                let Some((layer, array)) = tasks.get(index) else {
                    break;
                };
                let result = cache.optimal_window_with(layer, *array, SearchOptions::pruned());
                *slots[index].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every task completed")
        })
        .collect()
}

/// A task's pruned outcome matches the exhaustive one exactly: same
/// winning candidate with the same full cost record, same im2col
/// fallback, and every skipped candidate accounted for.
fn outcomes_match(exhaustive: &SearchResult, pruned: &SearchResult) -> bool {
    exhaustive.best() == pruned.best()
        && exhaustive.im2col() == pruned.im2col()
        && pruned.evaluated() + pruned.pruned() == exhaustive.evaluated()
}

/// Runs the comparison.
///
/// # Errors
///
/// Returns a message for an empty network or array list, or an unknown
/// zoo network name.
pub fn run(options: &PlanBenchOptions) -> Result<PlanBenchReport, String> {
    if options.networks.is_empty() {
        return Err("network list must not be empty".to_string());
    }
    if options.arrays.is_empty() {
        return Err("array list must not be empty".to_string());
    }
    let (shapes, tasks) = collect_tasks(options)?;
    if tasks.is_empty() {
        return Err("the selected networks have no layers to search".to_string());
    }
    let workers = resolved_workers(options.jobs, tasks.len());
    let runs = if options.quick { 1 } else { 3 };

    // One untimed warm-up per side keeps allocator state out of the
    // first measurement (skipped in quick mode).
    if !options.quick {
        exhaustive_pass(&tasks);
        pruned_pass(&tasks, workers);
    }

    let mut exhaustive_seconds = f64::INFINITY;
    let mut exhaustive_results = Vec::new();
    for _ in 0..runs {
        let start = Instant::now();
        let results = exhaustive_pass(&tasks);
        exhaustive_seconds = exhaustive_seconds.min(start.elapsed().as_secs_f64());
        exhaustive_results = results;
    }

    let mut pruned_seconds = f64::INFINITY;
    let mut pruned_results = Vec::new();
    for _ in 0..runs {
        let start = Instant::now();
        let results = pruned_pass(&tasks, workers);
        pruned_seconds = pruned_seconds.min(start.elapsed().as_secs_f64());
        pruned_results = results;
    }

    let mismatches = exhaustive_results
        .iter()
        .zip(&pruned_results)
        .filter(|(exhaustive, pruned)| !outcomes_match(exhaustive, pruned))
        .count();

    let exhaustive_seconds = exhaustive_seconds.max(1e-9);
    let pruned_seconds = pruned_seconds.max(1e-9);
    Ok(PlanBenchReport {
        networks: options.networks.clone(),
        arrays: options.arrays.iter().map(|a| a.to_string()).collect(),
        shapes,
        tasks: tasks.len(),
        quick: options.quick,
        jobs: options.jobs,
        workers,
        runs,
        exhaustive: PassPoint {
            seconds: exhaustive_seconds,
            searches_per_s: tasks.len() as f64 / exhaustive_seconds,
            evaluated: exhaustive_results
                .iter()
                .map(|r| r.evaluated() as u64)
                .sum(),
            pruned: 0,
        },
        pruned: PassPoint {
            seconds: pruned_seconds,
            searches_per_s: tasks.len() as f64 / pruned_seconds,
            evaluated: pruned_results.iter().map(|r| r.evaluated() as u64).sum(),
            pruned: pruned_results.iter().map(|r| r.pruned() as u64).sum(),
        },
        mismatches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_options() -> PlanBenchOptions {
        PlanBenchOptions {
            networks: vec!["lenet5".to_string(), "tiny".to_string()],
            arrays: vec![
                PimArray::new(128, 128).expect("positive"),
                PimArray::new(64, 64).expect("positive"),
            ],
            quick: true,
            jobs: 2,
        }
    }

    #[test]
    fn comparison_is_lossless_and_accounts_every_candidate() {
        let report = run(&tiny_options()).unwrap();
        assert!(report.lossless(), "pruned search diverged from exhaustive");
        assert_eq!(report.tasks, report.shapes * 2);
        assert!(report.exhaustive.evaluated > 0);
        // Every exhaustive candidate is either evaluated or pruned on
        // the pruned side — nothing silently vanishes.
        assert_eq!(
            report.pruned.evaluated + report.pruned.pruned,
            report.exhaustive.evaluated
        );
        assert!(report.pruned.pruned > 0, "bound pruned nothing");
        assert!(report.exhaustive.pruned == 0);
    }

    #[test]
    fn emitted_json_has_the_stable_keys() {
        let report = run(&tiny_options()).unwrap();
        let json = report.to_json();
        for key in [
            "\"bench\": \"plan-cold-search\"",
            "\"networks\": [\"lenet5\", \"tiny\"]",
            "\"shapes\":",
            "\"tasks\":",
            "\"exhaustive\": {\"seconds\":",
            "\"pruned\": {\"seconds\":",
            "\"candidates_pruned\":",
            "\"pruned_fraction\":",
            "\"speedup\":",
            "\"lossless\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(report.render_text().contains("lossless: yes"));
    }

    #[test]
    fn invalid_sweeps_are_rejected() {
        let mut o = tiny_options();
        o.networks = vec![];
        assert!(run(&o).is_err());
        o = tiny_options();
        o.arrays = vec![];
        assert!(run(&o).is_err());
        o = tiny_options();
        o.networks = vec!["no-such-net".to_string()];
        assert!(run(&o).is_err());
    }
}
