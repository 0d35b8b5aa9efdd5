//! The parallel, memoizing planning engine.
//!
//! [`Planner`](crate::Planner) answers "plan this network on this array"
//! one layer at a time. The [`PlanningEngine`] is the substrate beneath
//! it, built for the batch workloads the roadmap cares about — zoo-wide
//! sweeps, array design-space exploration, adaptive-window studies à la
//! TetrisG-SDK — where the same layer shapes are planned over and over:
//!
//! * **Memoization** — Algorithm 1 picks the parallel window from the
//!   layer's shape and the array alone, so its searches are memoized by
//!   `(shape, array, options)` in a [`SearchCache`]
//!   ([`pim_nets::LayerShape`] carries no layer name). That memo is the
//!   engine's only cache: every [`MappingPlan`] is built per call for
//!   the caller's own layer, the variable-window algorithms from the
//!   memoized search and im2col / SMD / SDK / SDK-opt in closed form.
//!   VGG-13 and ResNet-18 repeat shapes heavily, so a network plan
//!   searches far fewer distinct keys than it has layers.
//! * **Parallelism** — layer planning fans out across
//!   `std::thread::scope` workers (`jobs` of them; the dependency policy
//!   stays std-only). Work is claimed from an atomic counter and results
//!   are reassembled by index, so output order — and therefore every
//!   report — is byte-identical to the sequential path no matter the
//!   interleaving.
//! * **Batching** — [`plan_networks`](PlanningEngine::plan_networks) and
//!   [`sweep_arrays`](PlanningEngine::sweep_arrays) plan whole workloads
//!   through one shared memo, which is what the `vw-sdk-bench` sweep,
//!   the ablation driver and the `vwsdk sweep` CLI subcommand consume.
//!
//! # Example
//!
//! ```
//! use vw_sdk::{PlanningEngine, pim_arch::PimArray, pim_nets::zoo};
//! use vw_sdk::pim_mapping::MappingAlgorithm;
//!
//! let engine = PlanningEngine::new().with_jobs(4);
//! let arrays = [PimArray::new(512, 512)?, PimArray::new(256, 256)?];
//! let reports = engine.sweep_arrays(&[zoo::vgg13(), zoo::resnet18_table1()], &arrays)?;
//!
//! // Table I totals on the 512x512 array, straight from the batch API.
//! assert_eq!(reports[0].total_cycles(MappingAlgorithm::VwSdk), Some(77_102));
//! assert_eq!(reports[2].total_cycles(MappingAlgorithm::VwSdk), Some(4_294));
//! // VGG-13 repeats layer shapes, so the search memo answered some layers.
//! assert!(engine.stats().search_hits > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::planner::{LayerComparison, NetworkReport};
use crate::{Result, VwSdkError};
use pim_arch::PimArray;
use pim_cost::memo::SearchCache;
use pim_cost::search::{self, SearchOptions, SearchResult};
use pim_mapping::{MappingAlgorithm, MappingPlan};
use pim_nets::{ConvLayer, Network};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Cache counters of a [`PlanningEngine`] at one point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Always zero: the engine keeps no plan cache. Kept so existing
    /// callers still compile; not rendered by `Display`.
    pub plan_hits: u64,
    /// Always zero (see [`plan_hits`](Self::plan_hits)).
    pub plan_misses: u64,
    /// Always zero (see [`plan_hits`](Self::plan_hits)).
    pub plan_entries: usize,
    /// Algorithm 1 searches answered from the cache.
    pub search_hits: u64,
    /// Algorithm 1 searches computed (and then cached).
    pub search_misses: u64,
    /// Distinct `(shape, array, options)` search results stored.
    pub search_entries: usize,
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "searches: {} hits / {} misses ({} cached)",
            self.search_hits, self.search_misses, self.search_entries
        )
    }
}

/// Parallel, memoizing planner for batch workloads: Algorithm 1
/// searches are memoized by `(shape, array, options)`, layer planning
/// fans out across scoped worker threads, and batch/deployment APIs
/// share one memo.
#[derive(Debug)]
pub struct PlanningEngine {
    algorithms: Vec<MappingAlgorithm>,
    /// Worker threads for fan-out; 0 requests one per available core.
    jobs: usize,
    searches: SearchCache,
}

impl Default for PlanningEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanningEngine {
    /// An engine comparing the paper's three algorithms, planning on the
    /// current thread (`jobs = 1`).
    pub fn new() -> Self {
        Self::with_algorithms(&MappingAlgorithm::paper_trio())
    }

    /// An engine comparing an explicit algorithm set.
    pub fn with_algorithms(algorithms: &[MappingAlgorithm]) -> Self {
        Self {
            algorithms: algorithms.to_vec(),
            jobs: 1,
            searches: SearchCache::new(),
        }
    }

    /// Sets the worker-thread count for batch planning. `0` means "one
    /// worker per available core"; `1` plans inline on the caller's
    /// thread. Parallel and sequential runs produce identical reports.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// The algorithms this engine compares.
    pub fn algorithms(&self) -> &[MappingAlgorithm] {
        &self.algorithms
    }

    /// The configured worker count (`0` = auto).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Worker count actually used for `task_count` tasks.
    fn effective_jobs(&self, task_count: usize) -> usize {
        let requested = if self.jobs == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.jobs
        };
        requested.min(task_count).max(1)
    }

    /// Plans one layer under one algorithm. Search-based algorithms go
    /// through the shared search memo, so a cold herd of one shape
    /// across threads (or serving connections) coalesces onto one
    /// search. Fixed-window algorithms are closed-form.
    ///
    /// # Errors
    ///
    /// Returns [`VwSdkError`] if the algorithm fails to plan (planning
    /// is currently total, so this is reserved for future algorithms).
    pub fn plan(
        &self,
        layer: &ConvLayer,
        array: PimArray,
        algorithm: MappingAlgorithm,
    ) -> Result<MappingPlan> {
        let plan = match algorithm.search_options() {
            Some(options) => {
                let result = self.searches.optimal_window_with(layer, array, options);
                algorithm.plan_with_search(layer, array, &result)?
            }
            None => algorithm.plan(layer, array)?,
        };
        Ok(plan)
    }

    /// Plans one layer under every configured algorithm.
    ///
    /// # Errors
    ///
    /// Propagates the first algorithm failure.
    pub fn plan_layer(&self, layer: &ConvLayer, array: PimArray) -> Result<LayerComparison> {
        self.plan_layer_with(layer, array, &self.algorithms)
    }

    /// Plans one layer under an explicit algorithm set, sharing this
    /// engine's search memo.
    ///
    /// # Errors
    ///
    /// Propagates the first algorithm failure.
    fn plan_layer_with(
        &self,
        layer: &ConvLayer,
        array: PimArray,
        algorithms: &[MappingAlgorithm],
    ) -> Result<LayerComparison> {
        let mut plans = Vec::with_capacity(algorithms.len());
        for &algorithm in algorithms {
            plans.push(self.plan(layer, array, algorithm)?);
        }
        Ok(LayerComparison::from_parts(layer.clone(), plans))
    }

    /// Plans every layer of a network under an explicit algorithm set,
    /// sharing this engine's search memo and fanning out across the
    /// engine's workers. The report is byte-identical to what a
    /// [`crate::Planner`] configured with the same algorithms produces.
    ///
    /// # Errors
    ///
    /// Propagates the first planning failure.
    pub fn plan_network_with(
        &self,
        network: &Network,
        array: PimArray,
        algorithms: &[MappingAlgorithm],
    ) -> Result<NetworkReport> {
        let tasks: Vec<&ConvLayer> = network.layers().iter().collect();
        let _span = pim_telemetry::span!(
            "engine.plan_network",
            jobs = self.effective_jobs(tasks.len()),
            layers = tasks.len()
        );
        let planned = self.parallel_map(&tasks, |&layer| {
            self.plan_layer_with(layer, array, algorithms)
        });
        let mut layers = Vec::with_capacity(network.len());
        for comparison in planned {
            layers.push(comparison?);
        }
        Ok(NetworkReport::from_parts(
            network.name().to_string(),
            array,
            algorithms.to_vec(),
            layers,
        ))
    }

    /// Plans every layer of a network, fanning out across the engine's
    /// workers.
    ///
    /// # Errors
    ///
    /// Propagates the first planning failure.
    pub fn plan_network(&self, network: &Network, array: PimArray) -> Result<NetworkReport> {
        let mut reports = self.sweep_arrays(std::slice::from_ref(network), &[array])?;
        Ok(reports.pop().expect("one network times one array"))
    }

    /// Plans several networks on one array through the shared memo.
    ///
    /// Reports come back in `networks` order.
    ///
    /// # Errors
    ///
    /// Propagates the first planning failure.
    pub fn plan_networks(
        &self,
        networks: &[Network],
        array: PimArray,
    ) -> Result<Vec<NetworkReport>> {
        self.sweep_arrays(networks, &[array])
    }

    /// Plans every network on every array — the design-space sweep — in
    /// one parallel batch over all `(network, array, layer)` tasks.
    ///
    /// Reports come back network-major: all arrays of `networks[0]`,
    /// then all arrays of `networks[1]`, and so on.
    ///
    /// # Errors
    ///
    /// Propagates the first planning failure.
    pub fn sweep_arrays(
        &self,
        networks: &[Network],
        arrays: &[PimArray],
    ) -> Result<Vec<NetworkReport>> {
        self.sweep_arrays_with(networks, arrays, &self.algorithms)
    }

    /// [`sweep_arrays`](Self::sweep_arrays) under an explicit algorithm
    /// set, sharing this engine's search memo — what `vwsdk sweep` and
    /// `POST /v1/sweep` run.
    ///
    /// # Errors
    ///
    /// Propagates the first planning failure.
    pub fn sweep_arrays_with(
        &self,
        networks: &[Network],
        arrays: &[PimArray],
        algorithms: &[MappingAlgorithm],
    ) -> Result<Vec<NetworkReport>> {
        let mut tasks: Vec<(&ConvLayer, PimArray)> = Vec::new();
        for network in networks {
            for &array in arrays {
                for layer in network.layers() {
                    tasks.push((layer, array));
                }
            }
        }
        let _span = pim_telemetry::span!(
            "engine.sweep_arrays",
            jobs = self.effective_jobs(tasks.len()),
            networks = networks.len(),
            arrays = arrays.len(),
            tasks = tasks.len()
        );
        let planned = self.parallel_map(&tasks, |&(layer, array)| {
            self.plan_layer_with(layer, array, algorithms)
        });

        let mut results = planned.into_iter();
        let mut reports = Vec::with_capacity(networks.len() * arrays.len());
        for network in networks {
            for &array in arrays {
                let mut layers = Vec::with_capacity(network.len());
                for _ in 0..network.len() {
                    layers.push(results.next().expect("one comparison per task")?);
                }
                reports.push(NetworkReport::from_parts(
                    network.name().to_string(),
                    array,
                    algorithms.to_vec(),
                    layers,
                ));
            }
        }
        Ok(reports)
    }

    /// Deploys a network onto a many-array chip, letting the
    /// [`pim_chip::optimize`] search pick each layer's algorithm from
    /// the paper trio (im2col / SDK / VW-SDK) and split the array
    /// budget for the minimum pipeline bottleneck.
    ///
    /// # Errors
    ///
    /// Returns [`VwSdkError`] if the chip has fewer arrays than the
    /// network has layers, or planning fails.
    pub fn deploy_network(
        &self,
        network: &Network,
        chip: &pim_chip::ChipConfig,
    ) -> Result<pim_chip::allocate::Deployment> {
        self.deploy_network_with(network, chip, &MappingAlgorithm::paper_trio())
    }

    /// Deploys a network onto a chip with an explicit candidate
    /// algorithm set (see [`PlanningEngine::deploy_network`]).
    ///
    /// Candidate plans search through the engine's shape-keyed memo —
    /// repeated shapes and repeated deployments search once — and
    /// `(layer, algorithm)` plans fan out across the engine's workers.
    /// The resulting deployment is byte-identical to the sequential
    /// [`pim_chip::optimize::deploy_mixed`] path for the same inputs.
    ///
    /// # Errors
    ///
    /// Returns [`VwSdkError`] for an empty network or algorithm set, a
    /// chip with fewer arrays than layers, or a planning failure.
    pub fn deploy_network_with(
        &self,
        network: &Network,
        chip: &pim_chip::ChipConfig,
        algorithms: &[MappingAlgorithm],
    ) -> Result<pim_chip::allocate::Deployment> {
        let mut tasks: Vec<(&ConvLayer, MappingAlgorithm)> =
            Vec::with_capacity(network.len() * algorithms.len());
        for layer in network.layers() {
            for &algorithm in algorithms {
                tasks.push((layer, algorithm));
            }
        }
        let _span = pim_telemetry::span!(
            "engine.deploy_network",
            jobs = self.effective_jobs(tasks.len()),
            layers = network.len(),
            algorithms = algorithms.len()
        );
        let planned = self.parallel_map(&tasks, |&(layer, algorithm)| {
            self.plan(layer, chip.array(), algorithm)
        });
        let mut results = planned.into_iter();
        let mut candidates = Vec::with_capacity(network.len());
        for _ in 0..network.len() {
            let mut plans = Vec::with_capacity(algorithms.len());
            for _ in 0..algorithms.len() {
                plans.push(results.next().expect("one plan per task")?);
            }
            candidates.push(plans);
        }
        pim_chip::optimize::optimize_allocation(&candidates, chip)
            .map_err(|e| VwSdkError::new(e.to_string()))
    }

    /// Simulates a network end to end: every layer is planned with
    /// `algorithm` on `array` *through the engine's search memo*
    /// (repeated shapes and repeated simulations search once), the
    /// deployment's crossbars are programmed **once**, and `batch`
    /// deterministic seed-derived input feature maps stream through the
    /// programmed pipeline with up to `jobs` worker threads (`0` = all
    /// cores, clamped to the batch). Every batch element is verified
    /// bit-exact against its own `pim-tensor` reference forward pass,
    /// and the report carries per-stage executed vs. predicted cycles,
    /// MACs, ADC/DAC conversions and energy, aggregated over the batch
    /// (programmings counted once; cycles, MACs and energy summed). A
    /// single input is a one-element batch.
    ///
    /// This is the correctness backstop under the planning products:
    /// `vwsdk simulate` and `POST /v1/simulate` both answer with exactly
    /// this report.
    ///
    /// # Errors
    ///
    /// Returns [`VwSdkError`] if the network is empty or does not chain
    /// spatially ([`Network::check_chain`]), `batch == 0`, or a stage
    /// fails to simulate.
    #[allow(clippy::too_many_arguments)]
    pub fn simulate_network_batch_with(
        &self,
        network: &Network,
        array: PimArray,
        algorithm: MappingAlgorithm,
        seed: u64,
        mode: pim_sim::ExecMode,
        batch: usize,
        jobs: usize,
    ) -> Result<pim_sim::SimulationReport> {
        network.check_chain()?;
        let tasks: Vec<&ConvLayer> = network.layers().iter().collect();
        let _span = pim_telemetry::span!(
            "engine.simulate_network_batch",
            jobs = self.effective_jobs(tasks.len()),
            layers = tasks.len(),
            batch = batch
        );
        let planned = self.parallel_map(&tasks, |&layer| self.plan(layer, array, algorithm));
        let mut plans = Vec::with_capacity(network.len());
        for plan in planned {
            plans.push(plan?);
        }
        pim_sim::simulate_network_batch(network, &plans, seed, mode, batch, jobs)
            .map_err(|e| VwSdkError::new(e.to_string()))
    }

    /// Cached Algorithm 1 search (see [`SearchCache`]). The result is
    /// shared, not cloned — traces can be large.
    pub fn search(
        &self,
        layer: &ConvLayer,
        array: PimArray,
        options: SearchOptions,
    ) -> Arc<SearchResult> {
        self.searches.optimal_window_with(layer, array, options)
    }

    /// Candidate-search effort of a layer/array pair: `(evaluated,
    /// pruned)` summed over the searches of the search-based algorithms
    /// among `algorithms` — pass the report's own
    /// [`NetworkReport::algorithms`], so the answer does not depend on
    /// what else the engine has planned. Results are peeked from the
    /// memo; one it no longer holds (a trim dropped it) is searched again
    /// outside the memo, so the answer does not depend on trims either.
    /// Nothing is inserted or counted, so reporting paths (`vwsdk sweep
    /// --format json`) can explain their own cost without perturbing it.
    pub fn search_effort(
        &self,
        layer: &ConvLayer,
        array: PimArray,
        algorithms: &[MappingAlgorithm],
    ) -> (u64, u64) {
        let mut seen: Vec<SearchOptions> = Vec::new();
        let mut evaluated = 0u64;
        let mut pruned = 0u64;
        for algorithm in algorithms {
            let Some(options) = algorithm.search_options() else {
                continue;
            };
            if seen.contains(&options) {
                continue;
            }
            seen.push(options);
            let result = self
                .searches
                .peek(layer, array, options)
                .unwrap_or_else(|| Arc::new(search::optimal_window_with(layer, array, options)));
            evaluated += result.evaluated() as u64;
            pruned += result.pruned() as u64;
        }
        (evaluated, pruned)
    }

    /// Bounds memory: when the search memo holds more than
    /// `max_entries` results, it is cleared wholesale (counters are
    /// kept). Returns `true` if anything was dropped.
    ///
    /// Searches are pure functions of their keys, so clearing only
    /// costs recomputation — which is what lets a long-running service
    /// plan arbitrary user-supplied shapes forever without unbounded
    /// growth.
    pub fn shed_caches_over(&self, max_entries: usize) -> bool {
        if self.searches.len() > max_entries {
            self.searches.clear();
            return true;
        }
        false
    }

    /// Current cache counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            search_hits: self.searches.hits(),
            search_misses: self.searches.misses(),
            search_entries: self.searches.len(),
            ..EngineStats::default()
        }
    }

    /// Applies `f` to every item, fanning out across scoped worker
    /// threads, and returns results in item order.
    ///
    /// Workers claim items from an atomic cursor (cheap dynamic load
    /// balancing — layer search costs vary by orders of magnitude) and
    /// push `(index, result)` pairs; reassembly by index makes the
    /// output independent of scheduling.
    fn parallel_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let jobs = self.effective_jobs(items.len());
        if jobs <= 1 {
            return items.iter().map(f).collect();
        }
        let cursor = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(index) else {
                        break;
                    };
                    let result = f(item);
                    collected
                        .lock()
                        .expect("result collection lock poisoned")
                        .push((index, result));
                });
            }
        });
        let mut pairs = collected
            .into_inner()
            .expect("result collection lock poisoned");
        pairs.sort_by_key(|&(index, _)| index);
        pairs.into_iter().map(|(_, result)| result).collect()
    }
}

impl From<pim_nets::NetError> for VwSdkError {
    fn from(err: pim_nets::NetError) -> Self {
        Self::new(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Planner;
    use pim_nets::zoo;

    fn arr(rows: usize, cols: usize) -> PimArray {
        PimArray::new(rows, cols).unwrap()
    }

    #[test]
    fn engine_matches_sequential_planner_on_table1() {
        let engine = PlanningEngine::new().with_jobs(4);
        let planner = Planner::new(arr(512, 512));
        for network in [zoo::resnet18_table1(), zoo::vgg13()] {
            let parallel = engine.plan_network(&network, arr(512, 512)).unwrap();
            let sequential = planner.plan_network(&network).unwrap();
            assert_eq!(parallel, sequential);
            assert_eq!(format!("{parallel:?}"), format!("{sequential:?}"));
        }
    }

    #[test]
    fn repeated_shapes_hit_the_search_memo() {
        let engine = PlanningEngine::new();
        let report = engine.plan_network(&zoo::vgg13(), arr(512, 512)).unwrap();
        assert_eq!(report.layers().len(), 10);
        let stats = engine.stats();
        // VGG-13's 10 layers cover 9 distinct shapes (conv9 == conv10);
        // of the paper trio only VW-SDK searches.
        assert_eq!(stats.search_misses, 9);
        assert_eq!(stats.search_hits, 1);
        assert_eq!(stats.search_entries, 9);
        assert_eq!(
            (stats.plan_hits, stats.plan_misses, stats.plan_entries),
            (0, 0, 0)
        );
    }

    #[test]
    fn second_run_is_all_search_hits() {
        let engine = PlanningEngine::new();
        let first = engine
            .plan_network(&zoo::resnet18_table1(), arr(512, 512))
            .unwrap();
        let after_first = engine.stats();
        let second = engine
            .plan_network(&zoo::resnet18_table1(), arr(512, 512))
            .unwrap();
        assert_eq!(first, second);
        let after_second = engine.stats();
        assert_eq!(after_second.search_misses, after_first.search_misses);
        assert_eq!(
            after_second.search_hits - after_first.search_hits,
            zoo::resnet18_table1().len() as u64
        );
    }

    #[test]
    fn cached_plans_carry_the_right_layer_names() {
        let engine = PlanningEngine::new();
        let report = engine.plan_network(&zoo::vgg13(), arr(512, 512)).unwrap();
        for (layer, comparison) in zoo::vgg13().layers().iter().zip(report.layers()) {
            assert_eq!(comparison.layer().name(), layer.name());
            for plan in comparison.plans() {
                assert_eq!(plan.layer().name(), layer.name());
            }
        }
    }

    #[test]
    fn sweep_orders_reports_network_major() {
        let engine = PlanningEngine::new().with_jobs(0);
        let networks = [zoo::by_name("tiny").unwrap(), zoo::resnet18_table1()];
        let arrays = [arr(256, 256), arr(512, 512)];
        let reports = engine.sweep_arrays(&networks, &arrays).unwrap();
        assert_eq!(reports.len(), 4);
        let labels: Vec<(String, String)> = reports
            .iter()
            .map(|r| (r.network_name().to_string(), r.array().to_string()))
            .collect();
        assert_eq!(labels[0], ("tiny".to_string(), "256x256".to_string()));
        assert_eq!(labels[1], ("tiny".to_string(), "512x512".to_string()));
        assert_eq!(labels[2].0, "ResNet-18");
        assert_eq!(labels[3].1, "512x512");
    }

    #[test]
    fn plan_networks_equals_individual_plans() {
        let engine = PlanningEngine::new().with_jobs(3);
        let networks = [zoo::vgg13(), zoo::resnet18_table1()];
        let batch = engine.plan_networks(&networks, arr(512, 512)).unwrap();
        let planner = Planner::new(arr(512, 512));
        for (network, report) in networks.iter().zip(&batch) {
            assert_eq!(report, &planner.plan_network(network).unwrap());
        }
    }

    #[test]
    fn custom_algorithm_set_flows_through() {
        let engine =
            PlanningEngine::with_algorithms(&[MappingAlgorithm::Smd, MappingAlgorithm::VwSdk]);
        let report = engine
            .plan_network(&zoo::by_name("tiny").unwrap(), arr(256, 256))
            .unwrap();
        assert!(report.total_cycles(MappingAlgorithm::Smd).is_some());
        assert!(report.total_cycles(MappingAlgorithm::Im2col).is_none());
    }

    #[test]
    fn search_is_cached_per_options() {
        let engine = PlanningEngine::new();
        let layer = ConvLayer::square("c", 14, 3, 256, 256).unwrap();
        let a = engine.search(&layer, arr(512, 512), SearchOptions::paper());
        let b = engine.search(&layer, arr(512, 512), SearchOptions::paper());
        assert_eq!(a, b);
        engine.search(&layer, arr(512, 512), SearchOptions::pruned());
        let stats = engine.stats();
        assert_eq!(stats.search_hits, 1);
        assert_eq!(stats.search_misses, 2);
    }

    #[test]
    fn search_effort_reports_memoized_candidate_counts() {
        let engine = PlanningEngine::new();
        let layer = ConvLayer::square("c", 56, 3, 128, 256).unwrap();
        // Nothing searched yet: the effort is searched outside the memo,
        // so nothing is stored or counted.
        let cold = engine.search_effort(&layer, arr(512, 512), engine.algorithms());
        assert_eq!(engine.stats(), EngineStats::default());
        engine.plan_layer(&layer, arr(512, 512)).unwrap();
        let (evaluated, pruned) = engine.search_effort(&layer, arr(512, 512), engine.algorithms());
        assert!(evaluated > 0 && pruned > 0, "{evaluated}/{pruned}");
        assert_eq!(cold, (evaluated, pruned));
        let direct = engine.search(&layer, arr(512, 512), SearchOptions::pruned());
        assert_eq!(evaluated, direct.evaluated() as u64);
        assert_eq!(pruned, direct.pruned() as u64);
    }

    #[test]
    fn stats_render_readably() {
        let engine = PlanningEngine::new();
        engine
            .plan_network(&zoo::by_name("tiny").unwrap(), arr(64, 64))
            .unwrap();
        let text = engine.stats().to_string();
        assert!(text.starts_with("searches:"), "{text}");
        assert!(!text.contains("plans"), "{text}");
    }

    #[test]
    fn per_call_algorithm_sets_share_one_memo() {
        let engine = PlanningEngine::with_algorithms(&MappingAlgorithm::all());
        let trio = MappingAlgorithm::paper_trio();
        let report = engine
            .plan_network_with(&zoo::resnet18_table1(), arr(512, 512), &trio)
            .unwrap();
        assert_eq!(
            report,
            Planner::new(arr(512, 512))
                .plan_network(&zoo::resnet18_table1())
                .unwrap()
        );
        assert_eq!(report.algorithms(), &trio);
        // A second call under the full algorithm set reuses every
        // VW-SDK search already memoized.
        let before = engine.stats();
        let full = engine
            .plan_network_with(
                &zoo::resnet18_table1(),
                arr(512, 512),
                &MappingAlgorithm::all(),
            )
            .unwrap();
        assert_eq!(full.total_cycles(MappingAlgorithm::VwSdk), Some(4_294));
        let stats = engine.stats();
        assert_eq!(stats.search_hits - before.search_hits, 5);
        // Only the two ablation searches can miss on the second pass.
        assert_eq!(stats.search_misses - before.search_misses, 2 * 5);
    }

    #[test]
    fn plan_layer_with_matches_direct_planning() {
        let engine = PlanningEngine::new();
        let layer = ConvLayer::square("c", 14, 3, 256, 256).unwrap();
        let cmp = engine
            .plan_layer_with(&layer, arr(512, 512), &[MappingAlgorithm::Smd])
            .unwrap();
        assert_eq!(cmp.plans().len(), 1);
        assert_eq!(
            cmp.plans()[0],
            MappingAlgorithm::Smd.plan(&layer, arr(512, 512)).unwrap()
        );
    }

    #[test]
    fn shedding_bounds_cache_size_without_changing_answers() {
        let engine = PlanningEngine::new();
        let first = engine.plan_network(&zoo::vgg13(), arr(512, 512)).unwrap();
        assert!(!engine.shed_caches_over(1_000)); // under the cap: kept
        assert_eq!(engine.stats().search_entries, 9);
        assert!(engine.shed_caches_over(0)); // over the cap: cleared
        assert_eq!(engine.stats().search_entries, 0);
        let second = engine.plan_network(&zoo::vgg13(), arr(512, 512)).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn deploy_matches_the_sequential_optimizer_path() {
        let chip = pim_chip::ChipConfig::new(32, arr(512, 512), 2_000).expect("valid chip config");
        let engine = PlanningEngine::new().with_jobs(4);
        for network in [zoo::resnet18_table1(), zoo::vgg13()] {
            let parallel = engine.deploy_network(&network, &chip).unwrap();
            let sequential =
                pim_chip::optimize::deploy_mixed(&network, &MappingAlgorithm::paper_trio(), &chip)
                    .unwrap();
            assert_eq!(parallel, sequential);
            assert_eq!(format!("{parallel:?}"), format!("{sequential:?}"));
        }
    }

    #[test]
    fn repeated_deployments_hit_the_search_memo() {
        let chip = pim_chip::ChipConfig::new(64, arr(512, 512), 2_000).expect("valid chip config");
        let engine = PlanningEngine::new();
        let first = engine.deploy_network(&zoo::vgg13(), &chip).unwrap();
        let before = engine.stats();
        let second = engine.deploy_network(&zoo::vgg13(), &chip).unwrap();
        assert_eq!(first, second);
        let after = engine.stats();
        assert_eq!(after.search_misses, before.search_misses);
        assert_eq!(after.search_entries, before.search_entries);
        assert_eq!(after.search_hits - before.search_hits, 10);
    }

    #[test]
    fn deploy_errors_propagate_cleanly() {
        let chip = pim_chip::ChipConfig::new(3, arr(512, 512), 2_000).expect("valid chip config");
        let engine = PlanningEngine::new();
        let err = engine
            .deploy_network(&zoo::resnet18_table1(), &chip)
            .unwrap_err();
        assert!(err.to_string().contains("3 arrays"), "{err}");
        let err = engine
            .deploy_network_with(&zoo::resnet18_table1(), &chip, &[])
            .unwrap_err();
        assert!(err.to_string().contains("candidate plan"), "{err}");
    }

    /// One input, VW-SDK plans, quantized mode.
    fn simulate_one(
        engine: &PlanningEngine,
        network: &Network,
        array: PimArray,
        seed: u64,
    ) -> Result<pim_sim::SimulationReport> {
        engine.simulate_network_batch_with(
            network,
            array,
            MappingAlgorithm::VwSdk,
            seed,
            pim_sim::ExecMode::Quantized,
            1,
            1,
        )
    }

    #[test]
    fn simulate_network_is_bit_exact_and_feeds_the_memo() {
        let engine = PlanningEngine::new();
        let report =
            simulate_one(&engine, &zoo::by_name("tiny").unwrap(), arr(64, 64), 42).unwrap();
        assert!(report.is_fully_consistent(), "{report:?}");
        assert_eq!(report.stages.len(), 2);
        // A second simulation searches nothing.
        let before = engine.stats();
        let again = simulate_one(&engine, &zoo::by_name("tiny").unwrap(), arr(64, 64), 42).unwrap();
        assert_eq!(report, again);
        let after = engine.stats();
        assert_eq!(after.search_misses, before.search_misses);
        assert_eq!(after.search_hits - before.search_hits, 2);
    }

    #[test]
    fn simulate_network_batch_with_honours_algorithm_seed_and_mode() {
        use pim_sim::ExecMode;
        let engine = PlanningEngine::new();
        let exact = engine
            .simulate_network_batch_with(
                &zoo::by_name("tiny").unwrap(),
                arr(64, 64),
                MappingAlgorithm::Im2col,
                7,
                ExecMode::Exact,
                1,
                1,
            )
            .unwrap();
        assert!(exact.is_fully_consistent(), "{exact:?}");
        assert_eq!(exact.mode, ExecMode::Exact);
        assert_eq!(exact.seed, 7);
        assert!(exact
            .stages
            .iter()
            .all(|s| s.algorithm == MappingAlgorithm::Im2col));
        // Different seeds generate different tensors but stay exact.
        let other = engine
            .simulate_network_batch_with(
                &zoo::by_name("tiny").unwrap(),
                arr(64, 64),
                MappingAlgorithm::Im2col,
                8,
                ExecMode::Exact,
                1,
                1,
            )
            .unwrap();
        assert!(other.is_fully_consistent());
    }

    #[test]
    fn simulate_rejects_unchained_networks() {
        let engine = PlanningEngine::new();
        let err = simulate_one(&engine, &zoo::vgg13(), arr(512, 512), 1).unwrap_err();
        assert!(err.to_string().contains("conv1"), "{err}");
    }

    #[test]
    fn jobs_zero_resolves_to_available_parallelism() {
        let engine = PlanningEngine::new().with_jobs(0);
        assert!(engine.effective_jobs(1000) >= 1);
        assert_eq!(engine.effective_jobs(0), 1);
        let pinned = PlanningEngine::new().with_jobs(3);
        assert_eq!(pinned.effective_jobs(1000), 3);
        assert_eq!(pinned.effective_jobs(2), 2);
    }
}
