//! Parallel-window geometry and the Algorithm 1 candidate enumeration,
//! plus the capacity lower bound and the array-independent candidate
//! table the pruned search is built on.

use crate::{CostError, Result};
use pim_arch::PimArray;
use pim_nets::ConvLayer;
use std::fmt;
use std::sync::{Arc, Mutex};

/// A parallel window: the `PWw × PWh` patch of the input feature map shared
/// by a group of shifted, duplicated kernels (paper §II-A).
///
/// A window of size `PWw × PWh` over a `Kw × Kh` kernel contains
/// `(PWw − Kw + 1)(PWh − Kh + 1)` kernel positions, each of which yields one
/// output pixel per output channel in a single computing cycle.
///
/// # Example
///
/// ```
/// use pim_cost::window::ParallelWindow;
///
/// let pw = ParallelWindow::new(4, 3)?;
/// assert_eq!(pw.area(), 12);
/// assert!(!pw.is_square());
/// # Ok::<(), pim_cost::CostError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParallelWindow {
    width: usize,
    height: usize,
}

impl ParallelWindow {
    /// Creates a `width × height` parallel window.
    ///
    /// # Errors
    ///
    /// Returns [`CostError`] if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(CostError::new(format!(
                "parallel window must be positive, got {width}x{height}"
            )));
        }
        Ok(Self { width, height })
    }

    /// The window exactly covering one kernel (the im2col degenerate case).
    pub fn kernel_sized(layer: &ConvLayer) -> Self {
        Self {
            width: layer.kernel_w(),
            height: layer.kernel_h(),
        }
    }

    /// Window width (`PWw`).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Window height (`PWh`).
    pub fn height(&self) -> usize {
        self.height
    }

    /// `PWw · PWh`, the input rows one channel occupies.
    pub fn area(&self) -> usize {
        self.width * self.height
    }

    /// `true` when the window is square.
    pub fn is_square(&self) -> bool {
        self.width == self.height
    }
}

impl fmt::Display for ParallelWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

/// Iterator over parallel-window candidates in the exact scan order of
/// the paper's Algorithm 1.
///
/// The algorithm initializes `PW` to the kernel size, then repeatedly
/// increments the width; when the width exceeds the IFM width it resets to
/// the kernel width and increments the height, terminating once the height
/// exceeds the IFM height. Consequently:
///
/// * the kernel-sized window itself is **never** emitted (its cost is the
///   im2col initialization);
/// * the first row (`h = Kh`) starts at width `Kw + 1`;
/// * later rows start at width `Kw`.
///
/// Reproducing this order matters: Table I reports the *first* window (in
/// scan order) achieving the minimum cycle count, so ties are broken by
/// this sequence.
#[derive(Debug, Clone)]
pub struct Candidates {
    kernel_w: usize,
    input_w: usize,
    input_h: usize,
    next_w: usize,
    next_h: usize,
    done: bool,
}

impl Candidates {
    /// Candidate windows for a layer (see type-level docs for the order).
    /// Dilated layers scan from the effective kernel extent upward.
    pub fn for_layer(layer: &ConvLayer) -> Self {
        Self::new(
            layer.effective_kernel_w(),
            layer.effective_kernel_h(),
            layer.input_w(),
            layer.input_h(),
        )
    }

    /// Candidate windows for explicit kernel and input extents.
    pub fn new(kernel_w: usize, kernel_h: usize, input_w: usize, input_h: usize) -> Self {
        // First emitted candidate: (Kw+1, Kh), matching Algorithm 1's
        // increment-before-evaluate loop.
        Self {
            kernel_w,
            input_w,
            input_h,
            next_w: kernel_w + 1,
            next_h: kernel_h,
            done: kernel_h > input_h,
        }
    }
}

impl Iterator for Candidates {
    type Item = ParallelWindow;

    fn next(&mut self) -> Option<ParallelWindow> {
        loop {
            if self.done {
                return None;
            }
            if self.next_w > self.input_w {
                self.next_w = self.kernel_w;
                self.next_h += 1;
                if self.next_h > self.input_h {
                    self.done = true;
                    return None;
                }
                continue;
            }
            let item = ParallelWindow {
                width: self.next_w,
                height: self.next_h,
            };
            self.next_w += 1;
            return Some(item);
        }
    }
}

/// Monotone lower bound on the eq. (8) cycles of any candidate window
/// with a given area, derived purely from the array capacity.
///
/// For a candidate of area `A = PWw · PWh` on an `R × C` array the exact
/// cost is `cycles = NPW · AR · AC · g` with `AR = ⌈IC / ⌊R/A⌋⌉`,
/// `AC = ⌈OC / ⌊C/NWP⌋⌉` and `NPW = ⌈OW/wpp_w⌉ · ⌈OH/wpp_h⌉`. Two
/// independent bounds combine:
///
/// * **Row bound** — `⌊R/A⌋ ≤ R/A`, so `AR ≥ ⌈IC · A / R⌉`. This term
///   is the one that grows with the candidate's area.
/// * **Column bound** — `NPW ≥ ⌈OW · OH / NWP⌉` (the product of two
///   ceilings is at least the ceiling of the product) and
///   `AC ≥ ⌈OC · NWP / C⌉`, so `NPW · AC ≥ OW · OH · OC / C` — the
///   per-candidate window count `NWP` cancels. Both factors are
///   integers, hence `NPW · AC ≥ ⌈OW · OH · OC / C⌉`, a constant of the
///   layer/array pair.
///
/// Therefore `cycles ≥ g · ⌈IC · A / R⌉ · ⌈OW · OH · OC / C⌉`, which is
/// non-decreasing in `A`. The pruned search skips any candidate whose
/// bound already reaches the incumbent best (a strict-improvement
/// update can never fire there), and — because Algorithm 1's scan rows
/// only grow the minimum area — stops entire rows the same way. The
/// derivation holds verbatim under stride, padding, dilation and groups
/// (stride only reshapes `NWP`, which cancels).
///
/// Lossless by construction and property-tested against the exhaustive
/// scan in `tests/search_pruning_equivalence.rs`.
#[derive(Debug, Clone, Copy)]
pub struct CycleLowerBound {
    rows: u64,
    ic: u64,
    groups: u64,
    /// `⌈OW · OH · OC / C⌉`, the candidate-independent output term.
    out_term: u64,
}

impl CycleLowerBound {
    /// The bound for one layer/array pair.
    pub fn new(layer: &ConvLayer, array: PimArray) -> Self {
        let (oh, ow) = layer.output_dims();
        let outputs = (ow as u64) * (oh as u64) * (layer.out_channels_per_group() as u64);
        Self {
            rows: array.rows() as u64,
            ic: layer.in_channels_per_group() as u64,
            groups: layer.groups() as u64,
            out_term: outputs.div_ceil(array.cols() as u64).max(1),
        }
    }

    /// Least possible eq. (8) cycles of any candidate with this area.
    pub fn at(&self, area: usize) -> u64 {
        let ar_min = (self.ic * area as u64).div_ceil(self.rows).max(1);
        self.groups * ar_min * self.out_term
    }
}

/// The array-independent geometry of one candidate window for one layer
/// shape: everything eq. (8) needs except the row/column capacities.
///
/// Enumerating these is the part of the search that is *identical*
/// across array geometries, so [`CandidateTable`] memoizes them per
/// layer shape and the deploy optimizer / `sweep_arrays` re-searching
/// the same shape on another array reuses them instead of recomputing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateGeom {
    /// Window width (`PWw`); the height is the row's.
    pub width: usize,
    /// Kernel windows inside the candidate (`NWP`, stride-aware).
    pub windows_in_pw: usize,
    /// Parallel windows covering the layer (`NPW`, eq. (3)).
    pub n_parallel_windows: u64,
}

/// Per-shape memo of [`CandidateGeom`] rows, grown lazily.
///
/// One row per candidate height `h`, holding geometries for widths
/// `Kw ..= w` in scan order; a row is only materialized up to the
/// largest width a caller has asked for (the pruned search caps that at
/// the area-feasible width `⌊R/h⌋`, so a table stays at roughly
/// `R · ln` entries rather than the full `|IFM|²` rectangle). Shared
/// behind an `Arc` by `pim_cost::memo::SearchCache` across every array
/// geometry that re-searches the shape.
#[derive(Debug)]
pub struct CandidateTable {
    layer: ConvLayer,
    eff_kw: usize,
    eff_kh: usize,
    padded_w: usize,
    padded_h: usize,
    /// `rows[h - eff_kh]` = geometries for widths `eff_kw ..= eff_kw + len - 1`.
    rows: Vec<Mutex<Arc<Vec<CandidateGeom>>>>,
}

impl CandidateTable {
    /// An empty table for the layer's shape (no rows materialized yet).
    pub fn for_layer(layer: &ConvLayer) -> Self {
        let eff_kh = layer.effective_kernel_h();
        let padded_h = layer.input_h() + 2 * layer.padding();
        let row_count = (padded_h + 1).saturating_sub(eff_kh);
        Self {
            layer: layer.clone(),
            eff_kw: layer.effective_kernel_w(),
            eff_kh,
            padded_w: layer.input_w() + 2 * layer.padding(),
            padded_h,
            rows: (0..row_count)
                .map(|_| Mutex::new(Arc::new(Vec::new())))
                .collect(),
        }
    }

    /// Widest candidate of any row (the padded input width).
    pub fn padded_w(&self) -> usize {
        self.padded_w
    }

    /// Tallest candidate row (the padded input height).
    pub fn padded_h(&self) -> usize {
        self.padded_h
    }

    /// The geometries of row `h`, materialized at least up to width
    /// `up_to_w` (clamped to the padded input width). Entry `i` is the
    /// candidate `(eff_kw + i) × h`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is outside `eff_kh ..= padded_h`.
    pub fn row(&self, h: usize, up_to_w: usize) -> Arc<Vec<CandidateGeom>> {
        let want = (up_to_w.min(self.padded_w) + 1).saturating_sub(self.eff_kw);
        let slot = &self.rows[h - self.eff_kh];
        let mut guard = slot.lock().expect("candidate table lock poisoned");
        if guard.len() < want {
            let mut grown = Vec::with_capacity(want);
            grown.extend_from_slice(guard.as_slice());
            for i in guard.len()..want {
                let width = self.eff_kw + i;
                let pw = ParallelWindow { width, height: h };
                let wpp_w =
                    crate::model::windows_per_pw_axis(width, self.eff_kw, self.layer.stride());
                let wpp_h = crate::model::windows_per_pw_axis(h, self.eff_kh, self.layer.stride());
                let windows_in_pw = wpp_w * wpp_h;
                grown.push(CandidateGeom {
                    width,
                    windows_in_pw,
                    n_parallel_windows: if windows_in_pw == 0 {
                        0
                    } else {
                        crate::model::n_parallel_windows(&self.layer, pw)
                    },
                });
            }
            *guard = Arc::new(grown);
        }
        Arc::clone(&guard)
    }

    /// Total geometries currently materialized (for memory accounting).
    pub fn len(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.lock().expect("candidate table lock poisoned").len())
            .sum()
    }

    /// Whether nothing has been materialized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(input: usize, kernel: usize) -> ConvLayer {
        ConvLayer::square("t", input, kernel, 4, 4).unwrap()
    }

    #[test]
    fn new_rejects_zero() {
        assert!(ParallelWindow::new(0, 3).is_err());
        assert!(ParallelWindow::new(3, 0).is_err());
    }

    #[test]
    fn candidate_order_matches_algorithm_1() {
        // 5x5 input, 3x3 kernel: first row starts at width 4.
        let got: Vec<(usize, usize)> = Candidates::new(3, 3, 5, 5)
            .map(|w| (w.width(), w.height()))
            .collect();
        assert_eq!(
            got,
            vec![
                (4, 3),
                (5, 3),
                (3, 4),
                (4, 4),
                (5, 4),
                (3, 5),
                (4, 5),
                (5, 5),
            ]
        );
    }

    #[test]
    fn candidates_exclude_kernel_sized_window() {
        assert!(Candidates::new(3, 3, 8, 8).all(|w| (w.width(), w.height()) != (3, 3)));
    }

    #[test]
    fn candidates_empty_when_input_equals_kernel() {
        // No window strictly larger than the kernel fits.
        assert_eq!(Candidates::new(3, 3, 3, 3).count(), 0);
    }

    #[test]
    fn candidate_count_is_rectangle_minus_one() {
        // All (w,h) with Kw<=w<=Iw, Kh<=h<=Ih except the kernel itself.
        let n = Candidates::new(3, 3, 10, 7).count();
        assert_eq!(n, (10 - 3 + 1) * (7 - 3 + 1) - 1);
    }

    #[test]
    fn for_layer_uses_layer_extents() {
        let l = layer(6, 3);
        let n = Candidates::for_layer(&l).count();
        assert_eq!(n, 4 * 4 - 1);
    }

    #[test]
    fn display_is_wxh() {
        assert_eq!(ParallelWindow::new(10, 3).unwrap().to_string(), "10x3");
    }
}
