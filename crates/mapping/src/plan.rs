//! Mapping algorithms and per-layer plans.

use crate::{MappingError, Result};
use pim_arch::PimArray;
use pim_cost::model::{self, VwCost};
use pim_cost::search::{self, SearchOptions};
use pim_cost::window::ParallelWindow;
use pim_nets::ConvLayer;
use std::fmt;

/// The weight-mapping algorithms evaluated in the reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappingAlgorithm {
    /// Image-to-column (paper ref. \[4\], Fig. 2(a)): one kernel per
    /// column, one output pixel per cycle.
    Im2col,
    /// Sub-matrix duplication (paper ref. \[6\], Fig. 2(b)):
    /// block-diagonal copies of the kernel matrix compute several
    /// disjoint windows per cycle.
    Smd,
    /// Shift-and-duplicate-kernel with the published selection rule of
    /// paper ref. \[2\] (square windows, entire channels; duplication
    /// accepted only while AR/AC cycles do not exceed im2col's).
    Sdk,
    /// Square-window SDK with an unconstrained cost search (ablation
    /// baseline; not in the paper — see `pim_cost::model::sdk_min_cycles`).
    SdkOpt,
    /// The paper's contribution: variable-window SDK (Algorithm 1).
    VwSdk,
    /// VW-SDK restricted to square windows (ablation A2: channel tiling
    /// without rectangular shapes).
    VwSdkSquare,
    /// VW-SDK restricted to full channels (ablation A1: rectangular
    /// shapes without channel tiling).
    VwSdkFullChannel,
}

impl MappingAlgorithm {
    /// The three algorithms compared throughout the paper's evaluation.
    pub fn paper_trio() -> [MappingAlgorithm; 3] {
        [Self::Im2col, Self::Sdk, Self::VwSdk]
    }

    /// All implemented algorithms.
    pub fn all() -> [MappingAlgorithm; 7] {
        [
            Self::Im2col,
            Self::Smd,
            Self::Sdk,
            Self::SdkOpt,
            Self::VwSdk,
            Self::VwSdkSquare,
            Self::VwSdkFullChannel,
        ]
    }

    /// Short display label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Im2col => "im2col",
            Self::Smd => "SMD",
            Self::Sdk => "SDK",
            Self::SdkOpt => "SDK-opt",
            Self::VwSdk => "VW-SDK",
            Self::VwSdkSquare => "VW-SDK (square)",
            Self::VwSdkFullChannel => "VW-SDK (full-ch)",
        }
    }

    /// Plans the mapping of one layer onto one array.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError`] if the layer is degenerate for the
    /// algorithm (currently never — every algorithm degrades gracefully to
    /// im2col, which always exists).
    pub fn plan(&self, layer: &ConvLayer, array: PimArray) -> Result<MappingPlan> {
        match self {
            Self::Im2col => Ok(plan_im2col(layer, array)),
            Self::Smd => Ok(plan_smd(layer, array)),
            Self::Sdk => Ok(plan_sdk(layer, array, false)),
            Self::SdkOpt => Ok(plan_sdk(layer, array, true)),
            Self::VwSdk | Self::VwSdkSquare | Self::VwSdkFullChannel => Ok(plan_vw(
                layer,
                array,
                self.search_options()
                    .expect("variable-window algorithms are search-based"),
                *self,
            )),
        }
    }

    /// The Algorithm 1 [`SearchOptions`] this algorithm derives its
    /// window from, or `None` for the fixed-window algorithms
    /// (im2col, SMD, SDK) that never run the search.
    ///
    /// All variants run with the bound-pruned scan: it is
    /// property-tested byte-identical to the exhaustive paper-form
    /// search (`tests/search_pruning_equivalence.rs`), and it is what
    /// makes cold deploy/sweep planning fast.
    pub fn search_options(&self) -> Option<SearchOptions> {
        match self {
            Self::Im2col | Self::Smd | Self::Sdk | Self::SdkOpt => None,
            Self::VwSdk => Some(SearchOptions::pruned()),
            Self::VwSdkSquare => Some(SearchOptions {
                pruned: true,
                ..SearchOptions::square_windows_only()
            }),
            Self::VwSdkFullChannel => Some(SearchOptions {
                pruned: true,
                ..SearchOptions::no_channel_tiling()
            }),
        }
    }

    /// Plans a search-based algorithm from a precomputed `result` of the
    /// Algorithm 1 search over the same `(layer shape, array,`
    /// [`search_options`](Self::search_options)`)` triple. Byte-identical
    /// to [`plan`](Self::plan), which runs the search inline; callers
    /// holding a shared search memo (the planning engine's
    /// `SearchCache`) use this so a herd of identical plans costs one
    /// search.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError`] when called on a fixed-window algorithm,
    /// which has no search to reuse.
    pub fn plan_with_search(
        &self,
        layer: &ConvLayer,
        array: PimArray,
        result: &search::SearchResult,
    ) -> Result<MappingPlan> {
        if self.search_options().is_none() {
            return Err(MappingError::new(format!(
                "{self} is not search-based; use plan()"
            )));
        }
        Ok(plan_vw_from(layer, array, result, *self))
    }
}

impl fmt::Display for MappingAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How logical rows are packed into physical row tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowPacking {
    /// Kernel columns packed densely; a column may straddle two row tiles
    /// and its partial sums are accumulated digitally (im2col, SDK).
    Dense,
    /// Whole channels per tile, `ICt` at a time; rows beyond
    /// `ICt · PW area` in a tile stay unused (VW-SDK, eq. (4)).
    ChannelGranular,
}

/// A complete per-layer mapping decision: the window shape, channel tiles,
/// cycle counts and enough geometry to generate cell-level layouts.
///
/// Produced by [`MappingAlgorithm::plan`]; consumed by
/// [`crate::layout`], [`crate::schedule`] and the `pim-sim` engine.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingPlan {
    algorithm: MappingAlgorithm,
    layer: ConvLayer,
    array: PimArray,
    window: ParallelWindow,
    windows_in_pw: usize,
    n_parallel_windows: u64,
    tiled_ic: usize,
    tiled_oc: usize,
    ar_cycles: u64,
    ac_cycles: u64,
    cycles: u64,
    duplication: usize,
    row_packing: RowPacking,
}

impl MappingPlan {
    /// The algorithm that produced this plan.
    pub fn algorithm(&self) -> MappingAlgorithm {
        self.algorithm
    }

    /// The planned layer.
    pub fn layer(&self) -> &ConvLayer {
        &self.layer
    }

    /// The target array.
    pub fn array(&self) -> PimArray {
        self.array
    }

    /// The parallel window (kernel-sized when the mapping degenerated to
    /// im2col — Table I's convention).
    pub fn window(&self) -> ParallelWindow {
        self.window
    }

    /// Kernel windows inside one parallel window (`NWP`; for SMD this is
    /// the number of block-diagonal copies).
    pub fn windows_in_pw(&self) -> usize {
        self.windows_in_pw
    }

    /// Parallel-window positions per (AR, AC) tile pair.
    pub fn n_parallel_windows(&self) -> u64 {
        self.n_parallel_windows
    }

    /// Input channels mapped per cycle (`ICt`, capped at `IC`).
    pub fn tiled_ic(&self) -> usize {
        self.tiled_ic
    }

    /// Output channels mapped per cycle (`OCt`, capped at `OC`).
    pub fn tiled_oc(&self) -> usize {
        self.tiled_oc
    }

    /// Array-row cycles (`AR`).
    pub fn ar_cycles(&self) -> u64 {
        self.ar_cycles
    }

    /// Array-column cycles (`AC`).
    pub fn ac_cycles(&self) -> u64 {
        self.ac_cycles
    }

    /// Total computing cycles — the paper's objective.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Square duplication factor (SDK: `d`; SMD: copy count; others: 1).
    pub fn duplication(&self) -> usize {
        self.duplication
    }

    /// Row-packing discipline of the physical layout.
    pub fn row_packing(&self) -> RowPacking {
        self.row_packing
    }

    /// Whether the plan programs sub-matrix duplication's block-diagonal
    /// kernel copies ([`crate::layout::SmdLayout`]) rather than (AR, AC)
    /// tiles ([`crate::layout::TileLayout`]).
    pub fn is_block_diagonal(&self) -> bool {
        self.algorithm == MappingAlgorithm::Smd && self.duplication > 1
    }

    /// Speedup of this plan relative to another (`other.cycles / cycles`).
    pub fn speedup_over(&self, other: &MappingPlan) -> f64 {
        other.cycles as f64 / self.cycles as f64
    }

    /// Table I-style description, e.g. `4x3x42x256`.
    pub fn descriptor(&self) -> String {
        format!(
            "{}x{}x{}x{}",
            self.window.width(),
            self.window.height(),
            self.tiled_ic,
            self.tiled_oc
        )
    }

    /// Ensures the plan's layer is executable by the layout generator.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError`] for grouped layers (cycle accounting
    /// supports them; cell-level layout generation does not yet).
    pub fn check_layout_supported(&self) -> Result<()> {
        if self.layer.groups() != 1 {
            return Err(MappingError::new(format!(
                "cell-level layout for grouped layers is not supported (layer {:?} has {} groups)",
                self.layer.name(),
                self.layer.groups()
            )));
        }
        Ok(())
    }
}

impl fmt::Display for MappingPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: {} ({} cycles = {} PW x {} AR x {} AC)",
            self.layer.name(),
            self.array,
            self.descriptor(),
            self.cycles,
            self.n_parallel_windows,
            self.ar_cycles,
            self.ac_cycles
        )
    }
}

/// Plans a VW-SDK mapping with an explicitly chosen parallel window,
/// bypassing the Algorithm 1 search, for tests of specific layouts.
///
/// # Errors
///
/// Returns [`MappingError`] if the window is infeasible for the layer and
/// array (does not satisfy `K ≤ PW ≤ I`, or `ICt`/`OCt` would be zero).
#[cfg(test)]
pub(crate) fn plan_with_window(
    layer: &ConvLayer,
    array: PimArray,
    window: ParallelWindow,
) -> Result<MappingPlan> {
    let cost = model::vw_cost(layer, array, window).ok_or_else(|| {
        MappingError::new(format!(
            "window {window} is infeasible for layer {:?} on {array}",
            layer.name()
        ))
    })?;
    Ok(plan_from_vw_cost(
        layer,
        array,
        &cost,
        MappingAlgorithm::VwSdk,
    ))
}

fn plan_im2col(layer: &ConvLayer, array: PimArray) -> MappingPlan {
    let cost = model::im2col_cost(layer, array);
    MappingPlan {
        algorithm: MappingAlgorithm::Im2col,
        layer: layer.clone(),
        array,
        window: ParallelWindow::kernel_sized(layer),
        windows_in_pw: 1,
        n_parallel_windows: cost.n_windows,
        tiled_ic: layer.in_channels_per_group(),
        tiled_oc: layer.out_channels_per_group().min(array.cols()),
        ar_cycles: cost.ar_cycles,
        ac_cycles: cost.ac_cycles,
        cycles: cost.cycles,
        duplication: 1,
        row_packing: RowPacking::Dense,
    }
}

fn plan_smd(layer: &ConvLayer, array: PimArray) -> MappingPlan {
    let cost = model::smd_cost(layer, array);
    if cost.duplication <= 1 && cost.cycles == model::im2col_cost(layer, array).cycles {
        // Degenerate: fall back to a genuine im2col plan (including its
        // dense row tiling) but label it SMD for reporting.
        let mut plan = plan_im2col(layer, array);
        plan.algorithm = MappingAlgorithm::Smd;
        return plan;
    }
    MappingPlan {
        algorithm: MappingAlgorithm::Smd,
        layer: layer.clone(),
        array,
        window: ParallelWindow::kernel_sized(layer),
        windows_in_pw: cost.duplication,
        n_parallel_windows: cost.cycles / layer.groups() as u64,
        tiled_ic: layer.in_channels_per_group(),
        tiled_oc: layer.out_channels_per_group(),
        ar_cycles: cost.ar_cycles,
        ac_cycles: cost.ac_cycles,
        cycles: cost.cycles,
        duplication: cost.duplication,
        row_packing: RowPacking::Dense,
    }
}

fn plan_sdk(layer: &ConvLayer, array: PimArray, optimized: bool) -> MappingPlan {
    let algorithm_label = if optimized {
        MappingAlgorithm::SdkOpt
    } else {
        MappingAlgorithm::Sdk
    };
    if layer.dilation() > 1 {
        // The published SDK scheme duplicates dense kernels; dilated
        // layers degenerate to im2col (the kernel-grid layout).
        let mut plan = plan_im2col(layer, array);
        plan.algorithm = algorithm_label;
        return plan;
    }
    let cost = if optimized {
        model::sdk_min_cycles(layer, array)
    } else {
        model::sdk_cost(layer, array)
    };
    let algorithm = if optimized {
        MappingAlgorithm::SdkOpt
    } else {
        MappingAlgorithm::Sdk
    };
    let windows_in_pw = model::windows_per_pw_axis(
        cost.window.width(),
        layer.effective_kernel_w(),
        layer.stride(),
    ) * model::windows_per_pw_axis(
        cost.window.height(),
        layer.effective_kernel_h(),
        layer.stride(),
    );
    MappingPlan {
        algorithm,
        layer: layer.clone(),
        array,
        window: cost.window,
        windows_in_pw,
        n_parallel_windows: cost.n_parallel_windows,
        tiled_ic: layer.in_channels_per_group(),
        tiled_oc: layer
            .out_channels_per_group()
            .min(array.cols() / windows_in_pw.max(1)),
        ar_cycles: cost.ar_cycles,
        ac_cycles: cost.ac_cycles,
        cycles: cost.cycles,
        duplication: cost.duplication,
        row_packing: RowPacking::Dense,
    }
}

fn plan_vw(
    layer: &ConvLayer,
    array: PimArray,
    options: SearchOptions,
    algorithm: MappingAlgorithm,
) -> MappingPlan {
    let result = search::optimal_window_with(layer, array, options);
    plan_vw_from(layer, array, &result, algorithm)
}

/// Builds the variable-window plan from an already-computed search.
fn plan_vw_from(
    layer: &ConvLayer,
    array: PimArray,
    result: &search::SearchResult,
    algorithm: MappingAlgorithm,
) -> MappingPlan {
    match result.best() {
        Some(best) => plan_from_vw_cost(layer, array, best, algorithm),
        None => {
            // No window beat im2col: report the kernel-sized window with
            // im2col's dense tiling, as Table I does.
            let mut plan = plan_im2col(layer, array);
            plan.algorithm = algorithm;
            plan
        }
    }
}

fn plan_from_vw_cost(
    layer: &ConvLayer,
    array: PimArray,
    cost: &VwCost,
    algorithm: MappingAlgorithm,
) -> MappingPlan {
    MappingPlan {
        algorithm,
        layer: layer.clone(),
        array,
        window: cost.window,
        windows_in_pw: cost.windows_in_pw,
        n_parallel_windows: cost.n_parallel_windows,
        tiled_ic: cost.tiled_ic,
        tiled_oc: cost.tiled_oc,
        ar_cycles: cost.ar_cycles,
        ac_cycles: cost.ac_cycles,
        cycles: cost.cycles,
        duplication: 1,
        row_packing: RowPacking::ChannelGranular,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(input: usize, kernel: usize, ic: usize, oc: usize) -> ConvLayer {
        ConvLayer::square("t", input, kernel, ic, oc).unwrap()
    }

    fn arr(r: usize, c: usize) -> PimArray {
        PimArray::new(r, c).unwrap()
    }

    #[test]
    fn im2col_plan_matches_cost_model() {
        let l = layer(28, 3, 512, 512);
        let p = MappingAlgorithm::Im2col.plan(&l, arr(512, 512)).unwrap();
        assert_eq!(p.cycles(), 6084);
        assert_eq!(p.window().to_string(), "3x3");
        assert_eq!(p.windows_in_pw(), 1);
        assert_eq!(p.row_packing(), RowPacking::Dense);
    }

    #[test]
    fn vw_plan_reports_table1_descriptor() {
        // ResNet-18 conv4: Table I prints 4x3x42x256.
        let l = layer(14, 3, 256, 256);
        let p = MappingAlgorithm::VwSdk.plan(&l, arr(512, 512)).unwrap();
        assert_eq!(p.descriptor(), "4x3x42x256");
        assert_eq!(p.cycles(), 504);
        assert_eq!(p.row_packing(), RowPacking::ChannelGranular);
    }

    #[test]
    fn vw_falls_back_to_im2col_descriptor() {
        // ResNet-18 conv5: Table I prints 3x3x512x512.
        let l = layer(7, 3, 512, 512);
        let p = MappingAlgorithm::VwSdk.plan(&l, arr(512, 512)).unwrap();
        assert_eq!(p.descriptor(), "3x3x512x512");
        assert_eq!(p.cycles(), 225);
        // Fallback keeps im2col's dense packing.
        assert_eq!(p.row_packing(), RowPacking::Dense);
        assert_eq!(p.algorithm(), MappingAlgorithm::VwSdk);
    }

    #[test]
    fn sdk_plan_reports_table1_descriptor() {
        let l = layer(112, 7, 3, 64);
        let p = MappingAlgorithm::Sdk.plan(&l, arr(512, 512)).unwrap();
        assert_eq!(p.window().to_string(), "8x8");
        assert_eq!(p.duplication(), 2);
        assert_eq!(p.cycles(), 2809);
    }

    #[test]
    fn smd_plan_duplicates_or_degenerates() {
        let small = layer(224, 3, 3, 64);
        let p = MappingAlgorithm::Smd.plan(&small, arr(512, 512)).unwrap();
        assert_eq!(p.duplication(), 8);
        let big = layer(14, 3, 512, 512);
        let q = MappingAlgorithm::Smd.plan(&big, arr(512, 512)).unwrap();
        assert_eq!(q.duplication(), 1);
        assert_eq!(q.cycles(), 1296);
        assert_eq!(q.algorithm(), MappingAlgorithm::Smd);
    }

    #[test]
    fn ablation_plans_sit_between_im2col_and_vw() {
        let l = layer(56, 3, 128, 256);
        let a = arr(512, 512);
        let im2col = MappingAlgorithm::Im2col.plan(&l, a).unwrap().cycles();
        let vw = MappingAlgorithm::VwSdk.plan(&l, a).unwrap().cycles();
        for alg in [
            MappingAlgorithm::VwSdkSquare,
            MappingAlgorithm::VwSdkFullChannel,
        ] {
            let c = alg.plan(&l, a).unwrap().cycles();
            assert!(c >= vw && c <= im2col, "{alg}: {c} not in [{vw}, {im2col}]");
        }
    }

    #[test]
    fn speedup_is_cycle_ratio() {
        let l = layer(14, 3, 256, 256);
        let a = arr(512, 512);
        let im2col = MappingAlgorithm::Im2col.plan(&l, a).unwrap();
        let vw = MappingAlgorithm::VwSdk.plan(&l, a).unwrap();
        let s = vw.speedup_over(&im2col);
        assert!((s - 720.0 / 504.0).abs() < 1e-12);
    }

    #[test]
    fn grouped_layers_plan_but_refuse_layout() {
        let dw = ConvLayer::builder("dw")
            .input(14, 14)
            .kernel(3, 3)
            .channels(8, 8)
            .groups(8)
            .build()
            .unwrap();
        let p = MappingAlgorithm::VwSdk.plan(&dw, arr(512, 512)).unwrap();
        assert!(p.cycles() > 0);
        assert!(p.check_layout_supported().is_err());
    }

    #[test]
    fn labels_are_unique() {
        let labels: Vec<&str> = MappingAlgorithm::all().iter().map(|a| a.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }

    #[test]
    fn display_summarizes_plan() {
        let l = layer(14, 3, 256, 256);
        let p = MappingAlgorithm::VwSdk.plan(&l, arr(512, 512)).unwrap();
        let text = p.to_string();
        assert!(text.contains("4x3x42x256"));
        assert!(text.contains("504 cycles"));
    }
}
