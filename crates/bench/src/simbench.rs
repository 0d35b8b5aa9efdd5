//! Batched-simulation throughput: the repo's first perf trajectory.
//!
//! Measures simulated MACs/s of the functional network executor at a
//! sweep of batch sizes. The sequential baseline is the batch-1 point —
//! one `execute_batch(1)` call programs every crossbar and streams one
//! input, exactly what N independent single-IFM simulations cost per
//! image. Rising MACs/s across the batch sweep is the paper's
//! amortization argument made measurable: programming (and layout
//! construction) happen once per deployment while programmed rows are
//! re-read once per *batch* MVM instead of once per input.
//!
//! Consumed by the `vwsdk bench sim --emit BENCH_sim.json` emitter that
//! CI tracks and by the `batch_throughput` example.

use pim_arch::PimArray;
use pim_mapping::{MappingAlgorithm, MappingPlan};
use pim_nets::{zoo, Network};
use pim_sim::{ExecMode, NetworkExecutor, ScalarWidth};
use pim_tensor::{gen, Scalar, Tensor3, Tensor4};
use std::time::Instant;

/// What to measure; [`SimBenchOptions::default`] is the CI
/// configuration (vgg13-sim on the paper's 512×512 array, VW-SDK
/// plans, quantized mode, batches 1/8/64).
#[derive(Debug, Clone)]
pub struct SimBenchOptions {
    /// Zoo network to simulate.
    pub network: String,
    /// Array geometry the plans target.
    pub array: PimArray,
    /// Mapping algorithm for every layer.
    pub algorithm: MappingAlgorithm,
    /// Inter-stage execution mode.
    pub mode: ExecMode,
    /// Batch sizes to sweep, ascending; must start at 1 (the
    /// sequential baseline).
    pub batches: Vec<usize>,
    /// Quick mode: one timed run per point (CI smoke); otherwise the
    /// best of three.
    pub quick: bool,
    /// Worker threads for the stream phase (0 = all cores).
    pub jobs: usize,
    /// Seed of the generated tensors.
    pub seed: u64,
}

impl Default for SimBenchOptions {
    fn default() -> Self {
        Self {
            network: "vgg13-sim".to_string(),
            array: PimArray::new(512, 512).expect("positive dimensions"),
            algorithm: MappingAlgorithm::VwSdk,
            mode: ExecMode::Quantized,
            batches: vec![1, 8, 64],
            quick: false,
            jobs: 1,
            seed: 2024,
        }
    }
}

/// One measured batch size.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPoint {
    /// Inputs streamed per `execute_batch` call.
    pub batch: usize,
    /// Timed runs (the fastest is kept).
    pub runs: usize,
    /// Wall-clock seconds of the fastest run.
    pub seconds: f64,
    /// Simulated MACs per run (batch aggregate across all stages).
    pub macs: u64,
    /// Crossbar programmings per run — constant across batch sizes,
    /// which *is* the amortization.
    pub programmings: u64,
    /// The headline number: simulated MACs per wall-clock second.
    pub macs_per_s: f64,
}

/// The measured trajectory plus the configuration that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct SimBenchReport {
    /// Network name.
    pub network: String,
    /// Array geometry, as `RxC`.
    pub array: String,
    /// Mapping algorithm label.
    pub algorithm: String,
    /// Execution mode label.
    pub mode: String,
    /// Whether quick (single-run) timing was used.
    pub quick: bool,
    /// Stream-phase worker threads requested.
    pub jobs: usize,
    /// One point per measured batch size, in sweep order.
    pub points: Vec<BatchPoint>,
}

impl SimBenchReport {
    /// The point measured at `batch`, if it was in the sweep.
    pub fn point(&self, batch: usize) -> Option<&BatchPoint> {
        self.points.iter().find(|p| p.batch == batch)
    }

    /// MACs/s at `batch` divided by the sequential (batch-1) baseline:
    /// how much faster N inputs stream through one programmed pipeline
    /// than N single-input simulations, each reprogramming everything.
    pub fn speedup_vs_sequential(&self, batch: usize) -> Option<f64> {
        let base = self.point(1)?.macs_per_s;
        let at = self.point(batch)?.macs_per_s;
        (base > 0.0).then(|| at / base)
    }

    /// The largest measured batch size.
    pub fn max_batch(&self) -> usize {
        self.points.iter().map(|p| p.batch).max().unwrap_or(0)
    }

    /// `true` when the largest batch's MACs/s is at least the batch-1
    /// baseline — the CI sanity floor (amortization can't make the
    /// simulator *slower*).
    pub fn passes_sanity_floor(&self) -> bool {
        self.speedup_vs_sequential(self.max_batch())
            .is_some_and(|s| s >= 1.0)
    }

    /// The `BENCH_sim.json` payload: a flat, machine-diffable record of
    /// the trajectory. Keys are stable; numbers carry enough digits to
    /// compare runs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"bench\": \"sim-macs-per-second\",\n");
        out.push_str(&format!("  \"network\": \"{}\",\n", self.network));
        out.push_str(&format!("  \"array\": \"{}\",\n", self.array));
        out.push_str(&format!("  \"algorithm\": \"{}\",\n", self.algorithm));
        out.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"batch\": {}, \"runs\": {}, \"seconds\": {:.6}, \"macs\": {}, \
                 \"programmings\": {}, \"macs_per_s\": {:.1}}}{}\n",
                p.batch,
                p.runs,
                p.seconds,
                p.macs,
                p.programmings,
                p.macs_per_s,
                if i + 1 < self.points.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        let max_batch = self.max_batch();
        out.push_str(&format!(
            "  \"speedup_max_batch_vs_sequential\": {:.3}\n",
            self.speedup_vs_sequential(max_batch).unwrap_or(0.0)
        ));
        out.push_str("}\n");
        out
    }

    /// Human-readable amortization curve.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "simulated MACs/s: {} on {} ({} plans, {} mode, jobs {})\n\
             {:>6}  {:>5}  {:>10}  {:>13}  {:>13}  {:>8}\n",
            self.network,
            self.array,
            self.algorithm,
            self.mode,
            self.jobs,
            "batch",
            "runs",
            "seconds",
            "MACs",
            "MACs/s",
            "speedup"
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:>6}  {:>5}  {:>10.4}  {:>13}  {:>13.0}  {:>7.2}x\n",
                p.batch,
                p.runs,
                p.seconds,
                p.macs,
                p.macs_per_s,
                self.speedup_vs_sequential(p.batch).unwrap_or(0.0),
            ));
        }
        out.push_str(&format!(
            "programmings per run: {} at every batch size (programmed once, streamed N times)\n",
            self.points.first().map_or(0, |p| p.programmings),
        ));
        out
    }
}

/// A network with plans, weights and a pool of input feature maps,
/// ready to execute at any batch size up to the pool — setup is done
/// once, outside the timed region.
pub struct PreparedSim<T> {
    network: Network,
    plans: Vec<MappingPlan>,
    weights: Vec<Tensor4<T>>,
    ifms: Vec<Tensor3<T>>,
    executor: NetworkExecutor,
    jobs: usize,
}

impl<T: Scalar + Send + Sync> PreparedSim<T> {
    /// Plans `network` and generates deterministic tensors for up to
    /// `max_batch` inputs.
    ///
    /// # Errors
    ///
    /// Returns a message when the network is unknown or a layer cannot
    /// be planned.
    pub fn new(options: &SimBenchOptions, max_batch: usize) -> Result<Self, String> {
        let network = zoo_network(&options.network)?;
        let plans = network
            .layers()
            .iter()
            .map(|l| options.algorithm.plan(l, options.array))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let first = network
            .layers()
            .first()
            .ok_or_else(|| "empty network".to_string())?;
        let ifms = (0..max_batch)
            .map(|i| {
                gen::random3::<T>(
                    first.in_channels(),
                    first.input_h(),
                    first.input_w(),
                    options.seed.wrapping_add(i as u64),
                )
            })
            .collect();
        let weights = network
            .layers()
            .iter()
            .enumerate()
            .map(|(i, layer)| {
                gen::random4::<T>(
                    layer.out_channels(),
                    layer.in_channels_per_group(),
                    layer.kernel_h(),
                    layer.kernel_w(),
                    options.seed ^ (i as u64 + 1),
                )
            })
            .collect();
        Ok(Self {
            network,
            plans,
            weights,
            ifms,
            executor: NetworkExecutor::new().with_mode(options.mode),
            jobs: options.jobs,
        })
    }

    /// One program-then-stream execution over the first `batch` inputs;
    /// returns `(macs, programmings)` from the aggregated stage records.
    ///
    /// # Panics
    ///
    /// Panics if `batch` exceeds the prepared pool or execution fails
    /// (a bench harness has no graceful degradation story).
    pub fn execute(&self, batch: usize) -> (u64, u64) {
        let run = self
            .executor
            .execute_batch(
                &self.network,
                &self.plans,
                &self.ifms[..batch],
                &self.weights,
                self.jobs,
            )
            .expect("prepared workload executes");
        let macs = run.stages().iter().map(|s| s.macs).sum();
        let programmings = run.stages().iter().map(|s| s.array_programmings).sum();
        (macs, programmings)
    }
}

/// Runs the trajectory measurement.
///
/// # Errors
///
/// Returns a message for unknown networks, unplannable layers, an
/// empty/descending batch list, or a sweep that does not start at
/// batch 1.
pub fn run(options: &SimBenchOptions) -> Result<SimBenchReport, String> {
    if options.batches.is_empty() {
        return Err("batch sweep must not be empty".to_string());
    }
    if options.batches[0] != 1 {
        return Err("batch sweep must start at 1 (the sequential baseline)".to_string());
    }
    if options.batches.windows(2).any(|w| w[1] <= w[0]) {
        return Err("batch sweep must be strictly ascending".to_string());
    }
    // `simulate` runs each stage in its own width from
    // `ScalarWidth::for_stages`; one `execute_batch` call runs every
    // stage in the widest of them.
    let network = zoo_network(&options.network)?;
    let widths = ScalarWidth::for_stages(&network, options.mode).map_err(|e| e.to_string())?;
    match widths.into_iter().max().unwrap_or(ScalarWidth::I32) {
        ScalarWidth::I32 => run_as::<i32>(options),
        ScalarWidth::I64 => run_as::<i64>(options),
        ScalarWidth::I128 => run_as::<i128>(options),
    }
}

fn zoo_network(name: &str) -> Result<Network, String> {
    zoo::by_name(name).ok_or_else(|| format!("unknown zoo network {name:?}"))
}

fn run_as<T: Scalar + Send + Sync>(options: &SimBenchOptions) -> Result<SimBenchReport, String> {
    let max_batch = *options.batches.last().expect("non-empty sweep");
    let prepared = PreparedSim::<T>::new(options, max_batch)?;
    let runs = if options.quick { 1 } else { 3 };
    let mut points = Vec::with_capacity(options.batches.len());
    for &batch in &options.batches {
        // One untimed warm-up keeps allocator and cache state out of
        // the first measurement (skipped in quick mode).
        if !options.quick {
            prepared.execute(batch);
        }
        let mut best = f64::INFINITY;
        let mut macs = 0;
        let mut programmings = 0;
        for _ in 0..runs {
            let start = Instant::now();
            let (m, p) = prepared.execute(batch);
            let elapsed = start.elapsed().as_secs_f64();
            best = best.min(elapsed);
            macs = m;
            programmings = p;
        }
        let seconds = best.max(1e-9);
        points.push(BatchPoint {
            batch,
            runs,
            seconds,
            macs,
            programmings,
            macs_per_s: macs as f64 / seconds,
        });
    }
    Ok(SimBenchReport {
        network: options.network.clone(),
        array: options.array.to_string(),
        algorithm: options.algorithm.label().to_string(),
        mode: options.mode.to_string(),
        quick: options.quick,
        jobs: options.jobs,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_options() -> SimBenchOptions {
        SimBenchOptions {
            network: "tiny".to_string(),
            array: PimArray::new(64, 64).expect("positive"),
            batches: vec![1, 2],
            quick: true,
            ..SimBenchOptions::default()
        }
    }

    #[test]
    fn trajectory_measures_every_point() {
        let report = run(&tiny_options()).unwrap();
        assert_eq!(report.points.len(), 2);
        let p1 = report.point(1).unwrap();
        let p2 = report.point(2).unwrap();
        // MACs scale with the batch; programmings do not.
        assert_eq!(p2.macs, p1.macs * 2);
        assert_eq!(p2.programmings, p1.programmings);
        assert!(p1.macs_per_s > 0.0);
        assert!(report.speedup_vs_sequential(2).is_some());
    }

    #[test]
    fn emitted_json_has_the_stable_keys() {
        let report = run(&tiny_options()).unwrap();
        let json = report.to_json();
        for key in [
            "\"bench\": \"sim-macs-per-second\"",
            "\"network\": \"tiny\"",
            "\"points\":",
            "\"macs_per_s\":",
            "\"programmings\":",
            "\"speedup_max_batch_vs_sequential\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(report.render_text().contains("programmings per run"));
    }

    #[test]
    fn invalid_sweeps_are_rejected() {
        let mut o = tiny_options();
        o.batches = vec![];
        assert!(run(&o).is_err());
        o.batches = vec![2, 4];
        assert!(run(&o).is_err());
        o.batches = vec![1, 4, 2];
        assert!(run(&o).is_err());
        o.batches = vec![1, 2];
        o.network = "no-such-net".to_string();
        assert!(run(&o).is_err());
    }
}
