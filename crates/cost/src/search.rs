//! Algorithm 1: the optimal parallel-window search.
//!
//! The search initializes the best cycle count with im2col's, then walks
//! every window shape in the scan order of [`crate::window::Candidates`],
//! keeping the **first** strict improvement — which reproduces the exact
//! windows printed in the paper's Table I, including its tie-breaks.
//!
//! # The pruned scan
//!
//! With [`SearchOptions::pruned`] set, the same scan runs behind the
//! [`CycleLowerBound`] capacity bound: candidates whose bound already
//! reaches the incumbent (or that are capacity-infeasible outright) are
//! skipped *arithmetically* — whole row tails and whole height ranges at
//! a time — without touching the cost model. Because Algorithm 1 only
//! updates on a **strict** improvement, skipping a candidate whose cost
//! provably cannot go below the incumbent can never change the winner;
//! `tests/search_pruning_equivalence.rs` pins this over the zoo and a
//! randomized sweep. Skipped candidates are counted in
//! [`SearchResult::pruned`] so `evaluated + pruned` always equals the
//! full candidate count of the exhaustive scan.

use crate::model::{self, Im2colCost, VwCost};
use crate::window::{CandidateTable, Candidates, CycleLowerBound, ParallelWindow};
use pim_arch::PimArray;
use pim_nets::ConvLayer;

/// Configuration of the window search.
///
/// The defaults run the paper's Algorithm 1 verbatim. The restriction
/// flags implement the ablations called out in DESIGN.md (§4): disabling
/// rectangles isolates the channel-tiling idea, and disabling channel
/// tiling isolates the rectangular-window idea.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SearchOptions {
    /// Only consider square windows (`PWw == PWh`).
    pub square_only: bool,
    /// Only consider windows that map *all* input channels at once
    /// (`ICt ≥ IC`), i.e. forbid the paper's channel tiling.
    pub full_channels_only: bool,
    /// Record every feasible candidate's cost (for search-landscape
    /// figures); costs memory proportional to the candidate count.
    pub collect_trace: bool,
    /// Run the bound-pruned scan (see the module docs): skip candidates
    /// that are capacity-infeasible or whose [`CycleLowerBound`] already
    /// reaches the incumbent, counting them in [`SearchResult::pruned`]
    /// instead of evaluating them. Never changes the winning plan —
    /// property-tested against the exhaustive scan. [`SearchResult::feasible`]
    /// then counts only the feasible candidates actually *evaluated*,
    /// which can be fewer than the exhaustive scan reports.
    pub pruned: bool,
}

impl SearchOptions {
    /// The paper's Algorithm 1 (no restrictions, no trace).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Algorithm 1 with the infeasibility pruning enabled.
    pub fn pruned() -> Self {
        Self {
            pruned: true,
            ..Self::default()
        }
    }

    /// Ablation A1: rectangular windows allowed, channel tiling forbidden.
    pub fn no_channel_tiling() -> Self {
        Self {
            full_channels_only: true,
            ..Self::default()
        }
    }

    /// Ablation A2: square windows only, channel tiling allowed.
    pub fn square_windows_only() -> Self {
        Self {
            square_only: true,
            ..Self::default()
        }
    }
}

/// Outcome of the Algorithm 1 search for one layer/array pair.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    im2col: Im2colCost,
    best: Option<VwCost>,
    evaluated: usize,
    pruned: usize,
    feasible: usize,
    trace: Vec<VwCost>,
}

impl SearchResult {
    /// The im2col initialization cost (`CC_im2col`).
    pub fn im2col(&self) -> Im2colCost {
        self.im2col
    }

    /// The winning non-degenerate window's cost, or `None` when no window
    /// strictly beat im2col (the algorithm then reports the kernel-sized
    /// window, as Table I does for the late VGG-13/ResNet layers).
    pub fn best(&self) -> Option<&VwCost> {
        self.best.as_ref()
    }

    /// Minimum computing cycles found (`CC_min`).
    // lint:allow(unused-pub) oracle: the search-equivalence tests compare CC_min
    pub fn best_cycles(&self) -> u64 {
        self.best.map_or(self.im2col.cycles, |b| b.cycles)
    }

    /// Number of candidate windows whose cost was evaluated.
    pub fn evaluated(&self) -> usize {
        self.evaluated
    }

    /// Number of candidate windows skipped by the capacity lower bound
    /// without a cost evaluation (always 0 for the exhaustive scan).
    /// `evaluated() + pruned()` equals the exhaustive scan's candidate
    /// count, so landscape dumps and sweep stats stay truthful.
    pub fn pruned(&self) -> usize {
        self.pruned
    }

    /// Number of *evaluated* candidates that were feasible on the given
    /// array. Under the pruned scan this can be lower than the
    /// exhaustive count: the bound also skips feasible-but-hopeless
    /// candidates.
    pub fn feasible(&self) -> usize {
        self.feasible
    }

    /// Per-candidate costs (empty unless
    /// [`SearchOptions::collect_trace`] was set).
    pub fn trace(&self) -> &[VwCost] {
        &self.trace
    }
}

/// Runs Algorithm 1 with default options.
///
/// # Example
///
/// ```
/// use pim_arch::PimArray;
/// use pim_cost::search::optimal_window;
/// use pim_nets::ConvLayer;
///
/// // VGG-13 layer 1: the paper reports a 10x3 window at 6216 cycles.
/// let layer = ConvLayer::square("conv1", 224, 3, 3, 64)?;
/// let result = optimal_window(&layer, PimArray::new(512, 512)?);
/// assert_eq!(result.best().unwrap().window.to_string(), "10x3");
/// assert_eq!(result.best_cycles(), 6216);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn optimal_window(layer: &ConvLayer, array: PimArray) -> SearchResult {
    optimal_window_with(layer, array, SearchOptions::paper())
}

/// Runs Algorithm 1 with explicit [`SearchOptions`] (no candidate-table
/// reuse — see [`optimal_window_with_table`]).
pub fn optimal_window_with(
    layer: &ConvLayer,
    array: PimArray,
    options: SearchOptions,
) -> SearchResult {
    optimal_window_with_table(layer, array, options, None)
}

/// Runs Algorithm 1 with an optional memoized [`CandidateTable`] (reused
/// across array geometries by `memo::SearchCache`).
///
/// The table only applies to the pruned scan — the exhaustive scan is
/// deliberately kept as the plain sequential reference loop. Results
/// *and* the `evaluated`/`pruned`/`feasible` counters are independent of
/// `table`, so memoized results stay deterministic.
pub fn optimal_window_with_table(
    layer: &ConvLayer,
    array: PimArray,
    options: SearchOptions,
    table: Option<&CandidateTable>,
) -> SearchResult {
    let im2col = model::im2col_cost(layer, array);
    if options.pruned {
        pruned_search(layer, array, options, table, im2col)
    } else {
        exhaustive_search(layer, array, options, im2col)
    }
}

/// The paper-form exhaustive scan: every candidate in `Candidates` order
/// gets a full cost evaluation. This is the reference the pruned scan is
/// property-tested against, and the candidate count its saving is
/// measured in (`tests/search_pruning_equivalence.rs`).
fn exhaustive_search(
    layer: &ConvLayer,
    array: PimArray,
    options: SearchOptions,
    im2col: Im2colCost,
) -> SearchResult {
    let mut best: Option<VwCost> = None;
    let mut best_cycles = im2col.cycles;
    let mut evaluated = 0;
    let mut feasible = 0;
    let mut trace = Vec::new();

    let padded_w = layer.input_w() + 2 * layer.padding();
    let padded_h = layer.input_h() + 2 * layer.padding();
    let eff_kw = layer.effective_kernel_w();
    let eff_kh = layer.effective_kernel_h();
    for candidate in Candidates::new(eff_kw, eff_kh, padded_w, padded_h) {
        evaluated += 1;
        if options.square_only && !candidate.is_square() {
            continue;
        }
        let Some(cost) = model::vw_cost(layer, array, candidate) else {
            continue;
        };
        if options.full_channels_only && cost.tiled_ic < layer.in_channels_per_group() {
            continue;
        }
        feasible += 1;
        if options.collect_trace {
            trace.push(cost);
        }
        // Strict improvement only: first optimum in scan order wins,
        // matching Algorithm 1's `CC_min > CC_vw` update.
        if cost.cycles < best_cycles {
            best_cycles = cost.cycles;
            best = Some(cost);
        }
    }

    SearchResult {
        im2col,
        best,
        evaluated,
        pruned: 0,
        feasible,
        trace,
    }
}

/// First candidate width of scan row `h`: Algorithm 1 never emits the
/// kernel-sized window, so the first row starts one column later.
fn row_start(eff_kw: usize, eff_kh: usize, h: usize) -> usize {
    if h == eff_kh {
        eff_kw + 1
    } else {
        eff_kw
    }
}

/// The bound-pruned scan: Algorithm 1's scan order with the incumbent
/// initialized to im2col, behind the capacity bound. Every skipped
/// candidate is counted arithmetically so `evaluated + pruned` covers
/// the full candidate rectangle. Byte-identical outcome to
/// [`exhaustive_search`]: pruning only skips candidates whose cost
/// provably cannot go *below* the incumbent, and the strict-improvement
/// update ignores non-improvements anyway.
fn pruned_search(
    layer: &ConvLayer,
    array: PimArray,
    options: SearchOptions,
    table: Option<&CandidateTable>,
    im2col: Im2colCost,
) -> SearchResult {
    let bound = CycleLowerBound::new(layer, array);
    let eff_kw = layer.effective_kernel_w();
    let eff_kh = layer.effective_kernel_h();
    let padded_w = layer.input_w() + 2 * layer.padding();
    let padded_h = layer.input_h() + 2 * layer.padding();
    let rows_cap = array.rows();
    let cols_cap = array.cols();
    let ic = layer.in_channels_per_group();
    let row_len = |h: usize| -> usize {
        let start = row_start(eff_kw, eff_kh, h);
        if start > padded_w {
            0
        } else {
            padded_w - start + 1
        }
    };

    let mut best: Option<VwCost> = None;
    let mut best_cycles = im2col.cycles;
    let mut evaluated = 0;
    let mut pruned = 0;
    let mut feasible = 0;
    let mut trace = Vec::new();
    for h in eff_kh..=padded_h {
        let start_w = row_start(eff_kw, eff_kh, h);
        if start_w > padded_w {
            continue;
        }
        // Minimum area of any candidate in this row or below: the bound
        // is monotone in area, so once it reaches the incumbent (or the
        // area alone overflows the rows) the whole remainder is dead.
        let min_area = eff_kw * h;
        if min_area > rows_cap || bound.at(min_area) >= best_cycles {
            pruned += (h..=padded_h).map(row_len).sum::<usize>();
            break;
        }
        let cap_w = (rows_cap / h).min(padded_w);
        let geoms = table.map(|t| t.row(h, cap_w));
        for w in start_w..=padded_w {
            // Within a row the area grows with the width, so both cuts
            // end the row, pruning the tail arithmetically.
            if w * h > rows_cap || bound.at(w * h) >= best_cycles {
                pruned += padded_w - w + 1;
                break;
            }
            let cost = if let Some(geoms) = &geoms {
                let geom = &geoms[w - eff_kw];
                // NWP also grows with the width: once it exceeds the
                // columns (OCt = 0) the rest of the row is infeasible.
                if geom.windows_in_pw > cols_cap {
                    pruned += padded_w - w + 1;
                    break;
                }
                evaluated += 1;
                if options.square_only && w != h {
                    continue;
                }
                model::vw_cost_from_geom(layer, array, h, geom)
            } else {
                let wpp_w = model::windows_per_pw_axis(w, eff_kw, layer.stride());
                let wpp_h = model::windows_per_pw_axis(h, eff_kh, layer.stride());
                if wpp_w * wpp_h > cols_cap {
                    pruned += padded_w - w + 1;
                    break;
                }
                evaluated += 1;
                if options.square_only && w != h {
                    continue;
                }
                let pw = ParallelWindow::new(w, h).expect("candidate dims are positive");
                model::vw_cost(layer, array, pw)
            };
            let Some(cost) = cost else {
                continue;
            };
            if options.full_channels_only && cost.tiled_ic < ic {
                continue;
            }
            feasible += 1;
            if options.collect_trace {
                trace.push(cost);
            }
            if cost.cycles < best_cycles {
                best_cycles = cost.cycles;
                best = Some(cost);
            }
        }
    }

    SearchResult {
        im2col,
        best,
        evaluated,
        pruned,
        feasible,
        trace,
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
    fn vgg13_layer1_finds_10x3() {
        let r = optimal_window(&layer(224, 3, 3, 64), arr(512, 512));
        assert_eq!(r.best().unwrap().window.to_string(), "10x3");
        assert_eq!(r.best_cycles(), 6216);
    }

    #[test]
    fn vgg13_layer2_tie_break_keeps_4x4() {
        // 5x4 ties 4x4 at 24642 cycles; scan order must keep 4x4.
        let r = optimal_window(&layer(224, 3, 64, 64), arr(512, 512));
        assert_eq!(r.best().unwrap().window.to_string(), "4x4");
        assert_eq!(r.best_cycles(), 24_642);
        assert_eq!(r.best().unwrap().tiled_ic, 32);
    }

    #[test]
    fn resnet_stem_finds_10x8() {
        let r = optimal_window(&layer(112, 7, 3, 64), arr(512, 512));
        assert_eq!(r.best().unwrap().window.to_string(), "10x8");
        assert_eq!(r.best_cycles(), 1431);
    }

    #[test]
    fn deep_layers_fall_back_to_im2col() {
        // VGG-13 layer 7 (28x28, 3x3x256x512): Table I keeps 3x3.
        let l = layer(28, 3, 256, 512);
        let r = optimal_window(&l, arr(512, 512));
        assert!(r.best().is_none());
        assert_eq!(r.best_cycles(), 3380);
    }

    #[test]
    fn search_never_returns_worse_than_im2col() {
        for (i, k, ic, oc) in [(14, 3, 512, 512), (28, 5, 64, 96), (7, 7, 512, 64)] {
            let l = layer(i, k, ic, oc);
            for a in [arr(128, 128), arr(512, 256), arr(512, 512)] {
                let r = optimal_window(&l, a);
                assert!(r.best_cycles() <= r.im2col().cycles);
            }
        }
    }

    #[test]
    fn square_only_restriction_is_enforced() {
        let l = layer(56, 3, 128, 256);
        let r = optimal_window_with(&l, arr(512, 512), SearchOptions::square_windows_only());
        if let Some(w) = r.best().map(|b| b.window) {
            assert!(w.is_square());
        }
        // Unrestricted search (which finds rectangular 4x3) must be at
        // least as good.
        let free = optimal_window(&l, arr(512, 512));
        assert!(free.best_cycles() <= r.best_cycles());
        assert_eq!(free.best().unwrap().window.to_string(), "4x3");
    }

    #[test]
    fn full_channels_restriction_is_enforced() {
        let l = layer(56, 3, 128, 256);
        let r = optimal_window_with(&l, arr(512, 512), SearchOptions::no_channel_tiling());
        if let Some(best) = r.best() {
            assert!(best.tiled_ic >= 128);
        }
        let free = optimal_window(&l, arr(512, 512));
        assert!(free.best_cycles() <= r.best_cycles());
    }

    #[test]
    fn trace_collects_all_feasible_candidates() {
        let l = layer(14, 3, 256, 256);
        let opts = SearchOptions {
            collect_trace: true,
            ..SearchOptions::paper()
        };
        let r = optimal_window_with(&l, arr(512, 512), opts);
        assert_eq!(r.trace().len(), r.feasible());
        assert!(r.feasible() <= r.evaluated());
        assert_eq!(r.evaluated(), 12 * 12 - 1);
        // The trace contains the winner.
        let best = r.best().unwrap();
        assert!(r.trace().iter().any(|c| c == best));
    }

    #[test]
    fn small_array_forces_im2col_everywhere() {
        // 8 rows cannot hold any 3x3-or-larger window with channels.
        let l = layer(14, 3, 64, 64);
        let r = optimal_window(&l, arr(8, 8));
        assert!(r.best().is_none());
        assert_eq!(r.best_cycles(), r.im2col().cycles);
    }

    #[test]
    fn pruned_scan_matches_exhaustive_outcome_and_accounts_every_candidate() {
        for (i, k, ic, oc) in [
            (224, 3, 3, 64),
            (112, 7, 3, 64),
            (28, 3, 256, 512),
            (14, 3, 256, 256),
        ] {
            let l = layer(i, k, ic, oc);
            for a in [arr(512, 512), arr(512, 256), arr(128, 128)] {
                let full = optimal_window_with(&l, a, SearchOptions::paper());
                let p = optimal_window_with(&l, a, SearchOptions::pruned());
                assert_eq!(full.best(), p.best(), "layer {i}/{k}/{ic}/{oc} on {a}");
                assert_eq!(full.best_cycles(), p.best_cycles());
                // Every candidate is either evaluated or counted pruned.
                assert_eq!(p.evaluated() + p.pruned(), full.evaluated());
                // Pruning may skip feasible-but-hopeless candidates.
                assert!(p.feasible() <= full.feasible());
            }
        }
    }

    #[test]
    fn pruned_results_and_counters_are_table_independent() {
        let l = layer(224, 3, 3, 64);
        let a = arr(512, 512);
        let table = CandidateTable::for_layer(&l);
        let base = optimal_window_with(&l, a, SearchOptions::pruned());
        assert!(base.pruned() > 0);
        let r = optimal_window_with_table(&l, a, SearchOptions::pruned(), Some(&table));
        assert_eq!(r, base);
    }

    #[test]
    fn one_scan_prunes_later_rows_against_earlier_rows() {
        // A 224x224 3x3x64x64 layer on a 2048x2048 array: every later
        // row is pruned against the best window of the rows before it.
        let l = layer(224, 3, 64, 64);
        let full = optimal_window_with(&l, arr(2048, 2048), SearchOptions::paper());
        let r = optimal_window_with(&l, arr(2048, 2048), SearchOptions::pruned());
        assert_eq!((r.evaluated(), r.pruned()), (102, 49_181));
        assert_eq!(r.evaluated() + r.pruned(), full.evaluated());
        assert_eq!(r.best(), full.best());
    }

    #[test]
    fn pruned_trace_stays_in_scan_order_and_counts_stay_truthful() {
        let l = layer(14, 3, 256, 256);
        let opts = SearchOptions {
            collect_trace: true,
            ..SearchOptions::pruned()
        };
        let r = optimal_window_with(&l, arr(512, 512), opts);
        assert_eq!(r.trace().len(), r.feasible());
        // The 12x12-1 candidate rectangle is fully accounted for even
        // though only part of it was evaluated.
        assert_eq!(r.evaluated() + r.pruned(), 12 * 12 - 1);
        assert!(r.pruned() > 0);
        let best = r.best().unwrap();
        assert!(r.trace().iter().any(|c| c == best));
        // Scan order: heights never decrease along the trace.
        let heights: Vec<usize> = r.trace().iter().map(|c| c.window.height()).collect();
        assert!(heights.windows(2).all(|p| p[0] <= p[1]));
    }
}
