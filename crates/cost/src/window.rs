//! Parallel-window geometry and the Algorithm 1 candidate enumeration,
//! plus the capacity lower bound the pruned search is built on.

use crate::{CostError, Result};
use pim_arch::PimArray;
use pim_nets::ConvLayer;
use std::fmt;

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
    /// Candidate windows for explicit kernel and input extents (the
    /// search passes the effective kernel and the padded input).
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn display_is_wxh() {
        assert_eq!(ParallelWindow::new(10, 3).unwrap().to_string(), "10x3");
    }
}
