//! Network-scale execution: stream a batch of input feature maps
//! through every stage of a deployed network.
//!
//! This is the simulator's one path. It proves a whole *deployment*
//! correct; a single *layer* runs as a one-stage network
//! ([`verify_plan`](crate::verify::verify_plan)). The
//! [`NetworkExecutor`] takes a [`Network`] together with its per-layer
//! [`MappingPlan`]s, programs each stage's tiles into crossbars once,
//! executes the stage on each streamed feature map, applies the stage's
//! digital [`InterOp`]s (ReLU, pooling), and hands the result to the
//! next stage — exactly the data flow of a pipelined PIM chip
//! processing a stream of images. A chip [`Deployment`] runs through
//! [`simulate_deployment_batch`], which executes the plans its
//! allocations carry. One input is a one-element batch.
//!
//! Two guarantees come out the other end, pinned by
//! [`simulate_network_batch`] for every batch element:
//!
//! * **Functional** — each final output feature map equals the
//!   `pim-tensor` reference forward pass bit-for-bit (integer
//!   arithmetic, both [`ExecMode`]s).
//! * **Analytical** — every stage's executed computing cycles equal the
//!   plan's predicted [`MappingPlan::cycles`], which is also the
//!   `compute_cycles` the chip-level `DeploymentReport` advertises.

use crate::metrics::RunStats;
use crate::programmed::ProgrammedStage;
use crate::{Result, SimError};
use pim_arch::energy::EnergyModel;
use pim_chip::allocate::Deployment;
use pim_mapping::{MappingAlgorithm, MappingPlan};
use pim_nets::{InterOp, Network};
use pim_tensor::forward::{self, ExecMode};
use pim_tensor::{gen, ops, Scalar, Tensor3, Tensor4};
use std::num::NonZeroUsize;
use std::ops::Range;

/// Execution record of one pipeline stage (= one convolutional layer).
#[derive(Debug, Clone, PartialEq)]
pub struct StageExecution {
    /// Layer name, as in the network definition.
    pub layer: String,
    /// The algorithm that mapped this stage.
    pub algorithm: MappingAlgorithm,
    /// Table I-style plan descriptor, e.g. `4x3x42x256`.
    pub descriptor: String,
    /// Cycles the analytical model predicted ([`MappingPlan::cycles`]).
    pub predicted_cycles: u64,
    /// Computing cycles (analog MVMs) the engine actually executed.
    pub executed_cycles: u64,
    /// Multiply-accumulates performed across programmed cells.
    pub macs: u64,
    /// Column reads (one ADC conversion each).
    pub adc_conversions: u64,
    /// Row drives (one DAC conversion each).
    pub dac_conversions: u64,
    /// Crossbar tile programmings.
    pub array_programmings: u64,
    /// Stage energy under the default (ISAAC-like) energy model, in
    /// picojoules.
    pub energy_pj: f64,
}

impl StageExecution {
    /// `true` when the executed cycle count equals the prediction.
    pub fn cycles_match(&self) -> bool {
        self.executed_cycles == self.predicted_cycles
    }
}

/// The result of executing a network on a batch of inputs: one output
/// feature map per input plus batch-aggregated per-stage records (see
/// [`NetworkExecutor::execute_batch`] for the aggregation semantics).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRun<T> {
    ofms: Vec<Tensor3<T>>,
    stages: Vec<StageExecution>,
}

impl<T> BatchRun<T> {
    /// The final output feature maps, in input order.
    pub fn ofms(&self) -> &[Tensor3<T>] {
        &self.ofms
    }

    /// The number of inputs streamed.
    pub fn batch(&self) -> usize {
        self.ofms.len()
    }

    /// Batch-aggregated per-stage execution records, in network order.
    pub fn stages(&self) -> &[StageExecution] {
        &self.stages
    }

    /// Total executed computing cycles across all stages and inputs.
    pub fn executed_cycles(&self) -> u64 {
        self.stages.iter().map(|s| s.executed_cycles).sum()
    }

    /// Total predicted cycles (per-plan predictions × batch).
    pub fn predicted_cycles(&self) -> u64 {
        self.stages.iter().map(|s| s.predicted_cycles).sum()
    }

    /// `true` when every stage executed exactly its predicted cycles.
    pub fn cycles_match(&self) -> bool {
        self.stages.iter().all(StageExecution::cycles_match)
    }
}

/// Runs `work` over contiguous shards of `0..len`, one per worker, and
/// returns the shard results in shard order. `jobs = 0` means all
/// available cores, and the worker count never exceeds `len` (matching
/// the planning engine's convention). With one worker, `work` runs on
/// the calling thread and no thread is spawned.
fn on_shards<R: Send>(
    len: usize,
    jobs: usize,
    work: impl Fn(Range<usize>) -> Result<R> + Sync,
) -> Result<Vec<R>> {
    let requested = if jobs == 0 {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        jobs
    };
    let workers = requested.min(len).max(1);
    if workers == 1 {
        return Ok(vec![work(0..len)?]);
    }
    let (base, extra) = (len / workers, len % workers);
    let work = &work;
    std::thread::scope(|scope| {
        let mut lo = 0;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let hi = lo + base + usize::from(w < extra);
                let shard = lo..hi;
                lo = hi;
                scope.spawn(move || work(shard))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("shard worker panicked"))
            .collect()
    })
}

/// Executes whole networks on the crossbar engine; see the
/// [module docs](self).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetworkExecutor {
    mode: ExecMode,
}

impl NetworkExecutor {
    /// An executor with the default (quantized) inter-stage mode.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the inter-stage value policy.
    // lint:allow(unused-pub) seam: crates/sim/tests/batch_equivalence.rs runs both modes
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Executes `network` on a whole **batch** of input feature maps,
    /// programming every stage's crossbars exactly once (the *program
    /// phase*) and then streaming all inputs through the programmed
    /// pipeline (the *stream phase*).
    ///
    /// The batch is split into contiguous shards processed by up to
    /// `jobs` worker threads (`0` = all available cores, clamped to the
    /// batch size); each worker streams its shard stage by stage, so
    /// every programmed crossbar row is read once per shard-MVM rather
    /// than once per input. Crossbar state is shared read-only; results
    /// are reassembled in input order, and each output is bit-identical
    /// to what a one-element batch produces for that input alone —
    /// regardless of `jobs`.
    ///
    /// The returned per-stage records aggregate over the batch:
    /// `array_programmings` is counted **once per deployment**, while
    /// cycles, MACs, conversions and energy are per-input counters
    /// multiplied by the batch size (they depend only on the plan
    /// geometry, keeping reports deterministic and shard-independent).
    /// `predicted_cycles` is scaled by the batch size too, so
    /// [`StageExecution::cycles_match`] retains its meaning.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for an empty batch, if the plan list or
    /// weight banks do not match the network, the network does not
    /// chain spatially, or a stage fails to simulate.
    // lint:allow(unused-pub) seam: crates/sim/tests/batch_equivalence.rs streams its own inputs
    pub fn execute_batch<T: Scalar + Send + Sync>(
        &self,
        network: &Network,
        plans: &[MappingPlan],
        ifms: &[Tensor3<T>],
        weights: &[Tensor4<T>],
        jobs: usize,
    ) -> Result<BatchRun<T>> {
        let run = self.execute_unrecorded(network, plans, ifms, weights, jobs)?;
        record_sim_telemetry(&run.stages, run.batch() as u64);
        Ok(run)
    }

    /// [`Self::execute_batch`] without the telemetry record, for a
    /// simulation that records its stages once for all its segments.
    fn execute_unrecorded<T: Scalar + Send + Sync>(
        &self,
        network: &Network,
        plans: &[MappingPlan],
        ifms: &[Tensor3<T>],
        weights: &[Tensor4<T>],
        jobs: usize,
    ) -> Result<BatchRun<T>> {
        self.check_execution_inputs(network, plans, weights.len())?;
        let batch = ifms.len();
        if batch == 0 {
            return Err(SimError::new("cannot execute an empty batch"));
        }
        // Program phase: every crossbar built and programmed once.
        let mut program_stats = Vec::with_capacity(network.len());
        let mut programmed = Vec::with_capacity(network.len());
        for (plan, bank) in plans.iter().zip(weights) {
            let mut stats = RunStats::new();
            programmed.push(ProgrammedStage::program(plan, bank, &mut stats)?);
            program_stats.push(stats);
        }
        // Per-input analytical stream counters (input-independent).
        let energy = EnergyModel::default();
        let stream_stats: Vec<RunStats> = programmed
            .iter()
            .map(|stage| {
                let mut stats = RunStats::new();
                stage.stream_stats(&energy, &mut stats);
                stats
            })
            .collect();
        // Stream phase: contiguous batch shards across worker threads.
        let ofms: Vec<Tensor3<T>> = on_shards(batch, jobs, |shard| {
            self.stream_shard(network, &programmed, &ifms[shard])
        })?
        .into_iter()
        .flatten()
        .collect();
        let b = batch as u64;
        let stages = network
            .layers()
            .iter()
            .enumerate()
            .map(|(i, layer)| {
                let ps = &program_stats[i];
                let ss = &stream_stats[i];
                StageExecution {
                    layer: layer.name().to_string(),
                    algorithm: plans[i].algorithm(),
                    descriptor: plans[i].descriptor(),
                    predicted_cycles: plans[i].cycles() * b,
                    executed_cycles: ps.computing_cycles + ss.computing_cycles * b,
                    macs: ps.macs + ss.macs * b,
                    adc_conversions: ps.adc_conversions + ss.adc_conversions * b,
                    dac_conversions: ps.dac_conversions + ss.dac_conversions * b,
                    array_programmings: ps.array_programmings,
                    energy_pj: ps.energy_pj() + ss.energy_pj() * batch as f64,
                }
            })
            .collect::<Vec<_>>();
        Ok(BatchRun { ofms, stages })
    }

    /// Streams one contiguous shard of the batch through every
    /// programmed stage in order, applying the inter-stage digital
    /// operators per element.
    fn stream_shard<T: Scalar>(
        &self,
        network: &Network,
        programmed: &[ProgrammedStage<T>],
        ifms: &[Tensor3<T>],
    ) -> Result<Vec<Tensor3<T>>> {
        let mut current: Vec<Tensor3<T>> = ifms.to_vec();
        for (i, stage) in programmed.iter().enumerate() {
            current = stage
                .stream_batch(&current)?
                .into_iter()
                .map(|ofm| self.apply_stage_ops(network, i, ofm))
                .collect::<Result<Vec<_>>>()?;
        }
        Ok(current)
    }

    /// Applies stage `i`'s digital inter-layer operators (plus the
    /// quantized mode's requantization) to one output feature map.
    fn apply_stage_ops<T: Scalar>(
        &self,
        network: &Network,
        i: usize,
        ofm: Tensor3<T>,
    ) -> Result<Tensor3<T>> {
        let after_ops = forward::apply_ops(network.ops_after(i), ofm)?;
        Ok(if self.mode == ExecMode::Quantized {
            ops::requant8(&after_ops)
        } else {
            after_ops
        })
    }

    fn check_execution_inputs(
        &self,
        network: &Network,
        plans: &[MappingPlan],
        weight_banks: usize,
    ) -> Result<()> {
        if plans.len() != network.len() || weight_banks != network.len() {
            return Err(SimError::new(format!(
                "network {:?} has {} layers but {} plans / {} weight banks were given",
                network.name(),
                network.len(),
                plans.len(),
                weight_banks
            )));
        }
        network
            .check_chain()
            .map_err(|e| SimError::new(e.to_string()))?;
        for (layer, plan) in network.layers().iter().zip(plans) {
            if !plan.layer().same_shape(layer) {
                return Err(SimError::new(format!(
                    "plan for {:?} does not match layer {:?}",
                    plan.layer().name(),
                    layer.name()
                )));
            }
        }
        Ok(())
    }
}

/// One network-scale simulation flattened into report numbers — the
/// payload `vwsdk simulate` prints and `POST /v1/simulate` answers
/// (through one shared JSON view, so the two cannot drift).
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    /// The simulated network's name.
    pub network: String,
    /// Array geometry the plans target, as `RxC` (or `mixed`).
    pub array: String,
    /// Seed of the generated input/weight tensors.
    pub seed: u64,
    /// Inter-stage execution mode.
    pub mode: ExecMode,
    /// Number of input feature maps streamed through the programmed
    /// pipeline.
    pub batch: usize,
    /// Per-stage execution records, aggregated over the batch.
    pub stages: Vec<StageExecution>,
    /// Output elements compared against the reference forward pass,
    /// summed over the batch.
    pub elements: usize,
    /// Mismatching elements (0 when bit-exact).
    pub mismatches: usize,
}

impl SimulationReport {
    /// `true` when the executed output equals the reference forward
    /// pass element for element.
    pub fn matches(&self) -> bool {
        self.mismatches == 0
    }

    /// `true` when every stage executed exactly its predicted cycles.
    pub fn cycles_match(&self) -> bool {
        self.stages.iter().all(StageExecution::cycles_match)
    }

    /// `true` when the output matched *and* every stage's executed
    /// cycles equal the analytical prediction.
    pub fn is_fully_consistent(&self) -> bool {
        self.matches() && self.cycles_match()
    }

    /// Total executed computing cycles.
    pub fn executed_cycles(&self) -> u64 {
        self.stages.iter().map(|s| s.executed_cycles).sum()
    }

    /// Total predicted cycles.
    pub fn predicted_cycles(&self) -> u64 {
        self.stages.iter().map(|s| s.predicted_cycles).sum()
    }

    /// Total multiply-accumulates executed.
    pub fn total_macs(&self) -> u64 {
        self.stages.iter().map(|s| s.macs).sum()
    }

    /// Total energy estimate, in picojoules.
    pub fn total_energy_pj(&self) -> f64 {
        self.stages.iter().map(|s| s.energy_pj).sum()
    }
}

/// Records one finished execution or simulation into the process-wide
/// telemetry registry: crossbar arrays programmed, input feature maps
/// streamed, and the stages' MAC counts. The counters aggregate over
/// every executor in the process, so the metrics endpoint sees total
/// simulator work.
fn record_sim_telemetry(stages: &[StageExecution], batch_elements: u64) {
    let registry = pim_telemetry::global();
    registry
        .counter(
            "pim_sim_array_programmings_total",
            "Crossbar arrays programmed by the functional simulator.",
            &[],
        )
        .add(stages.iter().map(|s| s.array_programmings).sum());
    registry
        .counter(
            "pim_sim_batch_elements_total",
            "Input feature maps streamed through programmed pipelines.",
            &[],
        )
        .add(batch_elements);
    registry
        .counter(
            "pim_sim_macs_total",
            "Multiply-accumulates simulated (program + stream phases).",
            &[],
        )
        .add(stages.iter().map(|s| s.macs).sum());
}

/// The deterministic per-layer weight seed. Layer 0's is the weight
/// seed of [`crate::verify::verify_plan`], which runs a one-stage
/// network.
fn weight_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index as u64 + 1)
}

/// The deterministic per-batch-element input seed. Element 0 uses
/// `seed` unchanged, so [`crate::verify::verify_plan`]'s one input is
/// generated from its seed itself.
fn ifm_seed(seed: u64, element: usize) -> u64 {
    seed.wrapping_add((element as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Simulates a network end to end: programs the deployment's crossbars
/// once, streams `batch` deterministic pseudo-random input feature maps
/// through it with up to `jobs` worker threads (`0` = all cores), and
/// cross-checks **every** element against its own reference forward
/// pass on the same workers and batch shards. Batch element 0 uses
/// `seed` itself.
///
/// Stage `i` runs in `ScalarWidth::for_stages(network, mode)[i]`: the
/// narrowest of `i32` / `i64` / `i128` that provably holds every value
/// the stage computes in `mode`, never narrower than the stage before.
/// Integer arithmetic that never overflows gives the same values at any
/// width, so the report does not depend on the widths, and "matches"
/// means bit-exact.
///
/// # Errors
///
/// Returns [`SimError`] under the same conditions as
/// [`NetworkExecutor::execute_batch`], when a stage's bound exceeds the
/// `i128` budget, for an empty network, or when `batch == 0`.
pub fn simulate_network_batch(
    network: &Network,
    plans: &[MappingPlan],
    seed: u64,
    mode: ExecMode,
    batch: usize,
    jobs: usize,
) -> Result<SimulationReport> {
    if batch == 0 {
        return Err(SimError::new("batch must be at least 1"));
    }
    let widths = ScalarWidth::for_stages(network, mode)?;
    simulate_at(network, plans, seed, mode, batch, jobs, &widths)
}

/// Simulates a chip [`Deployment`] end to end (see
/// [`simulate_network_batch`] for the batch and `jobs` semantics); the
/// executed per-stage cycles are the ones the deployment's
/// `DeploymentReport` predicts as `compute_cycles`, times the batch.
///
/// # Errors
///
/// Returns [`SimError`] under the same conditions as
/// [`simulate_network_batch`].
pub fn simulate_deployment_batch(
    network: &Network,
    deployment: &Deployment,
    seed: u64,
    mode: ExecMode,
    batch: usize,
    jobs: usize,
) -> Result<SimulationReport> {
    let plans: Vec<MappingPlan> = deployment
        .allocations()
        .iter()
        .map(|alloc| alloc.plan().clone())
        .collect();
    simulate_network_batch(network, &plans, seed, mode, batch, jobs)
}

/// The integer width a simulation stage runs in. Each width has a
/// headroom budget: the largest worst-case log₂ magnitude it accepts.
/// `i32` and `i64` keep 3 bits below their 31 / 63 value bits, `i128`
/// keeps 7. Widths order from narrow to wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ScalarWidth {
    /// `i32`, for worst-case magnitudes up to 2²⁸.
    I32,
    /// `i64`, for worst-case magnitudes up to 2⁶⁰.
    I64,
    /// `i128`, for worst-case magnitudes up to 2¹²⁰.
    I128,
}

impl ScalarWidth {
    /// The largest worst-case log₂ magnitude this width runs exactly.
    fn budget_bits(self) -> u32 {
        match self {
            Self::I32 => 28,
            Self::I64 => 60,
            Self::I128 => 120,
        }
    }

    /// The width of each stage of a simulation of `network` in `mode`:
    /// the narrowest whose budget holds the worst-case magnitude of
    /// every value the stage computes — its input, its partial sums, its
    /// output and its average-pool window sums — but never narrower than
    /// the stage before, so a stage boundary only ever widens.
    ///
    /// The bound is conservative and tracked in log₂ domain. Generated
    /// inputs and weights satisfy `|v| ≤` [`gen::MAGNITUDE`] (2³). Each
    /// convolution multiplies the bound by `terms · 2³`, where
    /// `terms = (IC/g)·Kh·Kw`; every partial sum the crossbar or the
    /// reference accumulates stays under it too. An average pool's
    /// window sum multiplies it by `k²` before the divide, and the bound
    /// after the pool is the bound before it. Max pooling and ReLU never
    /// increase it, and the quantized mode's requantization resets it
    /// to 127 (< 2⁷) after every stage. In exact mode, inputs and
    /// weights that all equal [`gen::MAGNITUDE`] reach the bound exactly
    /// on a chain of unpadded convolutions.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] naming the first layer whose bound exceeds
    /// the `i128` budget: in release builds integer overflow wraps
    /// *identically* on the executor and reference sides, which would
    /// report "bit-exact" over garbage values.
    fn for_stages(network: &Network, mode: ExecMode) -> Result<Vec<Self>> {
        let magnitude_bits = f64::from(gen::MAGNITUDE).log2();
        let limit_bits = Self::I128.budget_bits();
        let mut bound = magnitude_bits;
        let mut widest = Self::I32;
        let mut widths = Vec::with_capacity(network.len());
        for (i, layer) in network.layers().iter().enumerate() {
            let terms = layer.in_channels_per_group() * layer.kernel_h() * layer.kernel_w();
            // The stage's output bound; its input's is lower.
            bound += (terms as f64).log2() + magnitude_bits;
            let pool_sum = network
                .ops_after(i)
                .iter()
                .filter_map(|op| match op {
                    InterOp::AvgPool { kernel, .. } => Some(((kernel * kernel) as f64).log2()),
                    _ => None,
                })
                .fold(0.0, f64::max);
            let stage_peak = bound + pool_sum;
            if stage_peak > f64::from(limit_bits) {
                return Err(SimError::new(format!(
                    "worst-case activations at layer {:?} need ~2^{:.0} headroom, over the \
                     {limit_bits}-bit budget of {mode} mode{}",
                    layer.name(),
                    stage_peak,
                    if mode == ExecMode::Exact {
                        "; use quantized mode"
                    } else {
                        ""
                    }
                )));
            }
            let narrowest = [Self::I32, Self::I64, Self::I128]
                .into_iter()
                .find(|width| stage_peak <= f64::from(width.budget_bits()))
                .expect("the peak is within the widest budget");
            widest = widest.max(narrowest);
            widths.push(widest);
            if mode == ExecMode::Quantized {
                bound = 7.0;
            }
        }
        Ok(widths)
    }
}

/// The `batch` input feature maps and the per-layer weight banks a
/// simulation of a non-empty `network` with `seed` streams and programs.
fn seeded_data<T: Scalar>(
    network: &Network,
    seed: u64,
    batch: usize,
) -> (Vec<Tensor3<T>>, Vec<Tensor4<T>>) {
    let first = &network.layers()[0];
    let ifms = (0..batch)
        .map(|i| {
            gen::random3::<T>(
                first.in_channels(),
                first.input_h(),
                first.input_w(),
                ifm_seed(seed, i),
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
                weight_seed(seed, i),
            )
        })
        .collect();
    (ifms, weights)
}

/// The one simulation path: [`simulate_network_batch`] with stage `i`
/// in `widths[i]`, a non-decreasing schedule of `network.len()` widths.
fn simulate_at(
    network: &Network,
    plans: &[MappingPlan],
    seed: u64,
    mode: ExecMode,
    batch: usize,
    jobs: usize,
    widths: &[ScalarWidth],
) -> Result<SimulationReport> {
    if network.is_empty() {
        return Err(SimError::new("cannot simulate an empty network"));
    }
    // Generated values fit every width; each segment widens its banks.
    let (ifms, weights) = seeded_data::<i32>(network, seed, batch);
    let (stages, outputs) = run_stages(network, plans, mode, jobs, widths, ifms, &weights)?;
    record_sim_telemetry(&stages, batch as u64);
    let (elements, mismatches) = outputs.compare();
    let mut arrays: Vec<String> = plans.iter().map(|p| p.array().to_string()).collect();
    arrays.dedup();
    let array = if arrays.len() == 1 {
        arrays.pop().expect("one distinct array")
    } else {
        "mixed".to_string()
    };
    Ok(SimulationReport {
        network: network.name().to_string(),
        array,
        seed,
        mode,
        batch,
        stages,
        elements,
        mismatches,
    })
}

/// Runs `ifms` through every stage of `network`, stage `i` in
/// `widths[i]` (non-decreasing), on the executor and on the reference
/// forward pass. Each maximal run of equal-width stages is one segment:
/// its stages are programmed once and streamed through
/// [`NetworkExecutor::execute_batch`]'s path, and the reference runs the
/// same stages through [`forward::forward`], both at that width. At a
/// boundary both chains widen exactly, and each carries its own outputs,
/// so the final comparison covers the whole network. Returns the stage
/// records, unrecorded in telemetry, and both chains' final outputs.
fn run_stages(
    network: &Network,
    plans: &[MappingPlan],
    mode: ExecMode,
    jobs: usize,
    widths: &[ScalarWidth],
    ifms: Vec<Tensor3<i32>>,
    weights: &[Tensor4<i32>],
) -> Result<(Vec<StageExecution>, Chains<i128>)> {
    let executor = NetworkExecutor::new().with_mode(mode);
    executor.check_execution_inputs(network, plans, weights.len())?;
    debug_assert!(widths.len() == network.len() && widths.is_sorted());
    let segments = Segments {
        network,
        plans,
        weights,
        executor,
        jobs,
    };
    let end = |width| widths.partition_point(|&w| w <= width);
    let (narrow, middle) = (end(ScalarWidth::I32), end(ScalarWidth::I64));
    let mut stages = Vec::with_capacity(network.len());
    let inputs = Chains {
        executor: ifms.clone(),
        reference: ifms,
    };
    let outputs = segments.run::<i32>(0..narrow, inputs, &mut stages)?;
    let outputs = segments.run::<i64>(narrow..middle, outputs.widen(), &mut stages)?;
    let outputs = segments.run::<i128>(middle..network.len(), outputs.widen(), &mut stages)?;
    Ok((stages, outputs))
}

/// What every segment of one simulation shares.
struct Segments<'a> {
    network: &'a Network,
    plans: &'a [MappingPlan],
    weights: &'a [Tensor4<i32>],
    executor: NetworkExecutor,
    jobs: usize,
}

impl Segments<'_> {
    /// Runs stages `range` at width `T` on both chains and appends their
    /// records; an empty range passes the chains through.
    fn run<T: Scalar + Send + Sync + From<i32>>(
        &self,
        range: Range<usize>,
        chains: Chains<T>,
        records: &mut Vec<StageExecution>,
    ) -> Result<Chains<T>> {
        if range.is_empty() {
            return Ok(chains);
        }
        let network = self.network;
        let segment = Network::from_stages(
            network.name(),
            range
                .clone()
                .map(|i| (network.layers()[i].clone(), network.ops_after(i).to_vec()))
                .collect(),
        );
        let weights: Vec<Tensor4<T>> = self.weights[range.clone()]
            .iter()
            .map(|bank| {
                let (oc, ic, kh, kw) = bank.dims();
                Tensor4::from_vec(oc, ic, kh, kw, widened(bank.as_slice()))
                    .expect("widening keeps the element count")
            })
            .collect();
        let run = self.executor.execute_unrecorded(
            &segment,
            &self.plans[range],
            &chains.executor,
            &weights,
            self.jobs,
        )?;
        let mode = self.executor.mode;
        let reference = on_shards(chains.reference.len(), self.jobs, |shard| {
            chains.reference[shard]
                .iter()
                .map(|ifm| Ok(forward::forward(&segment, ifm, &weights, mode)?))
                .collect::<Result<Vec<_>>>()
        })?;
        records.extend(run.stages);
        Ok(Chains {
            executor: run.ofms,
            reference: reference.into_iter().flatten().collect(),
        })
    }
}

/// Every batch element's feature map on the executor's chain and on the
/// reference's.
struct Chains<T> {
    executor: Vec<Tensor3<T>>,
    reference: Vec<Tensor3<T>>,
}

impl<T: Scalar> Chains<T> {
    /// Both chains, each element widened exactly to `U`.
    fn widen<U: Scalar + From<T>>(self) -> Chains<U> {
        let widen_all = |maps: Vec<Tensor3<T>>| {
            maps.iter()
                .map(|map| {
                    let (c, h, w) = map.dims();
                    Tensor3::from_vec(c, h, w, widened(map.as_slice()))
                        .expect("widening keeps the element count")
                })
                .collect()
        };
        Chains {
            executor: widen_all(self.executor),
            reference: widen_all(self.reference),
        }
    }

    /// (compared elements, mismatches), summed over the batch.
    fn compare(&self) -> (usize, usize) {
        self.executor.iter().zip(&self.reference).fold(
            (0, 0),
            |(elements, mismatches), (ofm, reference)| {
                let (ours, theirs) = (ofm.as_slice(), reference.as_slice());
                let differ = ours.iter().zip(theirs).filter(|(a, b)| a != b).count();
                (elements + theirs.len(), mismatches + differ)
            },
        )
    }
}

/// `values`, each widened exactly to `U`.
fn widened<T: Copy, U: From<T>>(values: &[T]) -> Vec<U> {
    values.iter().map(|&v| U::from(v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_arch::PimArray;
    use pim_nets::{zoo, ConvLayer};

    fn plans_for(network: &Network, array: PimArray, alg: MappingAlgorithm) -> Vec<MappingPlan> {
        network
            .layers()
            .iter()
            .map(|l| alg.plan(l, array).unwrap())
            .collect()
    }

    #[test]
    fn tiny_network_is_bit_exact_under_every_paper_algorithm() {
        let net = zoo::by_name("tiny").unwrap();
        let array = PimArray::new(64, 64).unwrap();
        for alg in MappingAlgorithm::paper_trio() {
            for mode in [ExecMode::Exact, ExecMode::Quantized] {
                let plans = plans_for(&net, array, alg);
                let report = simulate_network_batch(&net, &plans, 42, mode, 1, 1).unwrap();
                assert!(report.is_fully_consistent(), "{alg} {mode}: {report:?}");
                assert_eq!(report.elements, 8 * 4 * 4);
                assert_eq!(report.array, "64x64");
            }
        }
    }

    #[test]
    fn lenet5_pools_between_stages_and_stays_exact() {
        let net = zoo::by_name("lenet5").unwrap();
        let array = PimArray::new(96, 64).unwrap();
        let plans = plans_for(&net, array, MappingAlgorithm::VwSdk);
        let report = simulate_network_batch(&net, &plans, 7, ExecMode::Exact, 1, 1).unwrap();
        assert!(report.is_fully_consistent(), "{report:?}");
        // 16 channels x 5x5 after the trailing average pool.
        assert_eq!(report.elements, 16 * 5 * 5);
        assert_eq!(report.stages.len(), 2);
        assert!(report.executed_cycles() > 0);
    }

    #[test]
    fn executor_rejects_mismatched_plan_lists() {
        let net = zoo::by_name("tiny").unwrap();
        let array = PimArray::new(64, 64).unwrap();
        let mut plans = plans_for(&net, array, MappingAlgorithm::VwSdk);
        plans.pop();
        assert!(simulate_network_batch(&net, &plans, 1, ExecMode::Quantized, 1, 1).is_err());
        // Plans in the wrong order carry the wrong shapes.
        let mut swapped = plans_for(&net, array, MappingAlgorithm::VwSdk);
        swapped.reverse();
        assert!(simulate_network_batch(&net, &swapped, 1, ExecMode::Quantized, 1, 1).is_err());
    }

    #[test]
    fn unchained_networks_are_rejected() {
        let net = zoo::vgg13();
        let array = PimArray::new(512, 512).unwrap();
        let plans = plans_for(&net, array, MappingAlgorithm::VwSdk);
        let err = simulate_network_batch(&net, &plans, 1, ExecMode::Quantized, 1, 1).unwrap_err();
        assert!(err.to_string().contains("conv1"), "{err}");
    }

    #[test]
    fn deployment_execution_matches_plan_level_execution() {
        use pim_chip::{optimize, ChipConfig};
        let net = zoo::resnet18_sim();
        let chip = ChipConfig::new(16, PimArray::new(128, 128).unwrap(), 2_000).unwrap();
        let deployment =
            optimize::deploy_mixed(&net, &MappingAlgorithm::paper_trio(), &chip).unwrap();
        let report =
            simulate_deployment_batch(&net, &deployment, 11, ExecMode::Quantized, 1, 1).unwrap();
        assert!(report.is_fully_consistent(), "{report:?}");
        // Stage algorithms are whatever the optimizer chose.
        assert_eq!(report.stages.len(), net.len());
        let direct = simulate_network_batch(
            &net,
            &deployment
                .allocations()
                .iter()
                .map(|a| a.plan().clone())
                .collect::<Vec<_>>(),
            11,
            ExecMode::Quantized,
            1,
            1,
        )
        .unwrap();
        assert_eq!(report, direct);
    }

    #[test]
    fn empty_networks_are_rejected() {
        let net = Network::new("empty");
        assert!(simulate_network_batch(&net, &[], 1, ExecMode::Quantized, 1, 1).is_err());
    }

    #[test]
    fn batch_simulation_aggregates_and_counts_programmings_once() {
        let net = zoo::by_name("lenet5").unwrap();
        let array = PimArray::new(96, 64).unwrap();
        let plans = plans_for(&net, array, MappingAlgorithm::VwSdk);
        let single = simulate_network_batch(&net, &plans, 7, ExecMode::Exact, 1, 1).unwrap();
        let batch = simulate_network_batch(&net, &plans, 7, ExecMode::Exact, 4, 1).unwrap();
        assert!(batch.is_fully_consistent(), "{batch:?}");
        assert_eq!(batch.batch, 4);
        assert_eq!(batch.elements, single.elements * 4);
        assert_eq!(batch.executed_cycles(), single.executed_cycles() * 4);
        assert_eq!(batch.predicted_cycles(), single.predicted_cycles() * 4);
        assert_eq!(batch.total_macs(), single.total_macs() * 4);
        for (b, s) in batch.stages.iter().zip(&single.stages) {
            // Weights are programmed once per deployment, not per input.
            assert_eq!(b.array_programmings, s.array_programmings);
        }
    }

    #[test]
    fn batch_reports_are_jobs_invariant() {
        let net = zoo::by_name("tiny").unwrap();
        let array = PimArray::new(64, 64).unwrap();
        let plans = plans_for(&net, array, MappingAlgorithm::VwSdk);
        let serial = simulate_network_batch(&net, &plans, 9, ExecMode::Quantized, 5, 1).unwrap();
        for jobs in [2, 3, 8, 0] {
            let sharded =
                simulate_network_batch(&net, &plans, 9, ExecMode::Quantized, 5, jobs).unwrap();
            assert_eq!(serial, sharded, "jobs={jobs}");
        }
    }

    #[test]
    fn sharded_verification_counts_every_element_once() {
        let net = zoo::by_name("tiny").unwrap();
        let array = PimArray::new(64, 64).unwrap();
        let plans = plans_for(&net, array, MappingAlgorithm::VwSdk);
        let (ifms, weights) = seeded_data::<i32>(&net, 9, 5);
        let widths = ScalarWidth::for_stages(&net, ExecMode::Quantized).unwrap();
        for jobs in [1, 2, 3, 0] {
            let (_, mut outputs) = run_stages(
                &net,
                &plans,
                ExecMode::Quantized,
                jobs,
                &widths,
                ifms.clone(),
                &weights,
            )
            .unwrap();
            let per_element = outputs.executor[0].as_slice().len();
            // Element 4 is in the last shard for every worker count.
            outputs.executor[4].add_assign_at(0, 0, 0, 1);
            assert_eq!(outputs.compare(), (5 * per_element, 1), "jobs={jobs}");
        }
    }

    #[test]
    fn exact_mode_streams_nonzero_data_through_every_stage() {
        // Quantized mode's requantization drives these networks' deep
        // stages and outputs to zero, so there the check compares zeros.
        // Exact mode must carry nonzero data into every stage and out of
        // the last, or its verdict is vacuous too. Each stage runs alone
        // on the executor and the reference, fed the previous output.
        let array = PimArray::new(512, 512).unwrap();
        for net in zoo::executable() {
            let plans = plans_for(&net, array, MappingAlgorithm::VwSdk);
            for seed in [1, 2, 3, 2024] {
                let (mut ifms, weights) = seeded_data::<i128>(&net, seed, 1);
                for (i, layer) in net.layers().iter().enumerate() {
                    let what = format!("{} seed {seed}, input of {}", net.name(), layer.name());
                    assert!(ifms[0].as_slice().iter().any(|&v| v != 0), "{what}");
                    let stage = Network::from_stages(
                        layer.name(),
                        vec![(layer.clone(), net.ops_after(i).to_vec())],
                    );
                    let bank = &weights[i..=i];
                    let run = NetworkExecutor::new()
                        .with_mode(ExecMode::Exact)
                        .execute_batch(&stage, &plans[i..=i], &ifms, bank, 1)
                        .unwrap();
                    let reference = forward::forward(&stage, &ifms[0], bank, ExecMode::Exact);
                    assert_eq!(run.ofms()[0], reference.unwrap(), "{what}");
                    ifms = run.ofms().to_vec();
                }
                let out = ifms[0].as_slice();
                assert!(out.iter().any(|&v| v != 0), "{} seed {seed}", net.name());
            }
        }
    }

    #[test]
    fn zero_batches_are_rejected() {
        let net = zoo::by_name("tiny").unwrap();
        let array = PimArray::new(64, 64).unwrap();
        let plans = plans_for(&net, array, MappingAlgorithm::VwSdk);
        let err = simulate_network_batch(&net, &plans, 1, ExecMode::Quantized, 0, 1).unwrap_err();
        assert!(err.to_string().contains("batch"), "{err}");
    }

    /// An unpadded 1×1 convolution chain on a `side`×`side` input whose
    /// worst-case bound is exactly `bits`: each stage adds
    /// log₂(MAGNITUDE) + log₂(IC) bits, with IC a power of two ≤ 512.
    fn chain_with_bound(bits: u32, side: usize) -> Network {
        let magnitude_bits = gen::MAGNITUDE.ilog2();
        let rest = bits - magnitude_bits;
        let stages = rest.div_ceil(magnitude_bits + 9);
        let mut spare = rest - stages * magnitude_bits;
        let channels: Vec<usize> = (0..stages)
            .map(|_| {
                let k = spare.min(9);
                spare -= k;
                1 << k
            })
            .collect();
        let mut net = Network::new(format!("chain-{bits}"));
        for (i, &ic) in channels.iter().enumerate() {
            let oc = channels.get(i + 1).copied().unwrap_or(2);
            net.push(ConvLayer::square(format!("c{i}"), side, 1, ic, oc).unwrap());
        }
        net
    }

    /// Executor and reference outputs of `net` in exact mode on
    /// all-`MAGNITUDE` inputs and weights, stage `i` in `widths[i]`,
    /// through the simulation path.
    fn extreme_run(
        net: &Network,
        plans: &[MappingPlan],
        widths: &[ScalarWidth],
    ) -> (Vec<i128>, Vec<i128>) {
        let top = i32::from(gen::MAGNITUDE);
        let first = &net.layers()[0];
        let (c, h, w) = (first.in_channels(), first.input_h(), first.input_w());
        let ifm = Tensor3::from_vec(c, h, w, vec![top; c * h * w]).unwrap();
        let weights: Vec<Tensor4<i32>> = net
            .layers()
            .iter()
            .map(|l| {
                let dims = (l.out_channels(), l.in_channels_per_group());
                let len = dims.0 * dims.1 * l.kernel_h() * l.kernel_w();
                Tensor4::from_vec(dims.0, dims.1, l.kernel_h(), l.kernel_w(), vec![top; len])
                    .unwrap()
            })
            .collect();
        let (_, outputs) =
            run_stages(net, plans, ExecMode::Exact, 1, widths, vec![ifm], &weights).unwrap();
        let flat = |maps: &[Tensor3<i128>]| maps[0].as_slice().to_vec();
        (flat(&outputs.executor), flat(&outputs.reference))
    }

    #[test]
    fn worst_case_data_at_each_budget_edge_is_exact_at_the_chosen_width() {
        use ScalarWidth::{I128, I32, I64};
        // Overflow checks are on in test builds, so a stage whose width
        // cannot hold its widened input or its sums panics here.
        let array = PimArray::new(512, 512).unwrap();
        let exact = |net: &Network| ScalarWidth::for_stages(net, ExecMode::Exact).unwrap();
        let check = |net: &Network, bits: u32| {
            let plans = plans_for(net, array, MappingAlgorithm::VwSdk);
            let wide = extreme_run(net, &plans, &vec![I128; net.len()]);
            // All-MAGNITUDE data reaches the bound exactly.
            assert!(wide.0.iter().all(|&v| v == 1 << bits), "{}", net.name());
            assert_eq!(wide.0, wide.1, "{}", net.name());
            assert_eq!(
                extreme_run(net, &plans, &exact(net)),
                wide,
                "{}",
                net.name()
            );
        };
        for (width, next) in [(I32, I64), (I64, I128)] {
            let bits = width.budget_bits();
            let net = chain_with_bound(bits, 2);
            assert_eq!(exact(&net).last(), Some(&width));
            let over = chain_with_bound(bits + 1, 2);
            assert_eq!(exact(&over).last(), Some(&next));
            check(&net, bits);
        }
        // A mixed chain: c0–c2 end exactly on the i32 budget, and c3–c4
        // take c2's 2^28 outputs on to 2^44 in i64.
        let mut mixed = chain_with_bound(I32.budget_bits(), 2);
        mixed.push(ConvLayer::square("c3", 2, 1, 2, 512).unwrap());
        mixed.push(ConvLayer::square("c4", 2, 1, 512, 2).unwrap());
        assert_eq!(exact(&mixed), [I32, I32, I32, I64, I64]);
        check(&mixed, 44);
    }

    #[test]
    fn exact_mode_refuses_an_average_pool_sum_over_the_widest_budget() {
        // The convolutions stay 2 bits under the i128 budget; the 3x3
        // pool's window sum adds log2(9) ≈ 3.17 bits before its divide.
        let chain = chain_with_bound(ScalarWidth::I128.budget_bits() - 2, 3);
        let widths = ScalarWidth::for_stages(&chain, ExecMode::Exact).unwrap();
        assert_eq!(widths.last(), Some(&ScalarWidth::I128));
        let mut stages: Vec<_> = chain
            .layers()
            .iter()
            .map(|l| (l.clone(), Vec::new()))
            .collect();
        stages.last_mut().unwrap().1.push(InterOp::avg_pool(3));
        let net = Network::from_stages("pooled", stages);
        let array = PimArray::new(512, 512).unwrap();
        let plans = plans_for(&net, array, MappingAlgorithm::Im2col);
        let err = simulate_network_batch(&net, &plans, 1, ExecMode::Exact, 1, 1).unwrap_err();
        assert!(err.to_string().contains("quantized"), "{err}");
        // Quantized mode, which the error suggests, runs it in i32.
        assert_eq!(
            ScalarWidth::for_stages(&net, ExecMode::Quantized),
            Ok(vec![ScalarWidth::I32; net.len()])
        );
    }

    #[test]
    fn the_chosen_width_never_changes_a_report_byte() {
        use ScalarWidth::{I128, I32, I64};
        // Each network's exact-mode schedule; quantized runs are all i32.
        let cases = [
            (zoo::by_name("lenet5").unwrap(), vec![I32, I32]),
            (zoo::by_name("dilated").unwrap(), vec![I32, I32, I64]),
            (zoo::by_name("tiny").unwrap(), vec![I32, I32]),
            (
                zoo::vgg13_sim(),
                [vec![I32, I32], vec![I64; 3], vec![I128; 5]].concat(),
            ),
            (zoo::resnet18_sim(), vec![I32, I32, I64, I64, I64]),
        ];
        let executable = zoo::executable();
        assert_eq!(
            cases.iter().map(|c| c.0.name()).collect::<Vec<_>>(),
            executable.iter().map(Network::name).collect::<Vec<_>>()
        );
        let edge =
            pim_nets::NetworkSpec::parse(include_str!("../../../examples/specs/edge_cnn.json"))
                .unwrap()
                .to_network()
                .unwrap();
        assert_eq!(
            ScalarWidth::for_stages(&edge, ExecMode::Exact),
            Ok(vec![I32, I32, I32, I64, I64])
        );
        assert_eq!(
            ScalarWidth::for_stages(&edge, ExecMode::Quantized),
            Ok(vec![I32; edge.len()])
        );
        // A stem over the i32 budget: requantized, c1 would fit i32, but
        // a boundary never narrows.
        let stem = Network::from_layers(
            "wide-stem",
            vec![
                ConvLayer::square("c0", 64, 64, 2048, 2).unwrap(),
                ConvLayer::square("c1", 1, 1, 2, 2).unwrap(),
            ],
        );
        assert_eq!(
            ScalarWidth::for_stages(&stem, ExecMode::Quantized),
            Ok(vec![I64, I64])
        );
        let array = PimArray::new(512, 512).unwrap();
        for (net, exact) in &cases {
            let plans = plans_for(net, array, MappingAlgorithm::VwSdk);
            let quantized = vec![I32; net.len()];
            for (mode, widths) in [(ExecMode::Quantized, &quantized), (ExecMode::Exact, exact)] {
                assert_eq!(
                    ScalarWidth::for_stages(net, mode).as_ref(),
                    Ok(widths),
                    "{} {mode}",
                    net.name()
                );
                let all_wide = vec![I128; net.len()];
                for seed in [1, 2024] {
                    let chosen = simulate_network_batch(net, &plans, seed, mode, 3, 2).unwrap();
                    let wide = simulate_at(net, &plans, seed, mode, 3, 2, &all_wide).unwrap();
                    assert!(
                        chosen.is_fully_consistent(),
                        "{} {mode} seed {seed}",
                        net.name()
                    );
                    assert_eq!(chosen, wide, "{} {mode} seed {seed}", net.name());
                }
            }
        }
    }

    #[test]
    fn exact_mode_rejects_networks_over_the_integer_headroom() {
        // 20 chained 256-channel 1x1 stages: each multiplies the
        // worst-case magnitude by 256·8 = 2^11, blowing past i128
        // around stage 11 — in release builds the overflow would wrap
        // identically on both sides and fake a bit-exact verdict.
        let mut net = Network::new("deep");
        for i in 0..20 {
            net.push(ConvLayer::square(format!("c{i}"), 4, 1, 256, 256).unwrap());
        }
        let array = PimArray::new(512, 512).unwrap();
        let plans = plans_for(&net, array, MappingAlgorithm::Im2col);
        let err = simulate_network_batch(&net, &plans, 1, ExecMode::Exact, 1, 1).unwrap_err();
        assert!(err.to_string().contains("quantized"), "{err}");
        // The quantized mode resets the bound each stage and runs fine.
        let report = simulate_network_batch(&net, &plans, 1, ExecMode::Quantized, 1, 1).unwrap();
        assert!(report.is_fully_consistent(), "{report:?}");
    }
}
