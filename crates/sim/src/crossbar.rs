//! The programmable crossbar state.

use crate::{Result, SimError};
use pim_mapping::layout::CellAssignment;
use pim_tensor::{Scalar, Tensor4};

/// One crossbar array holding programmed weights.
///
/// The convention throughout the project: rows are inputs, columns are
/// outputs, and one [`Crossbar::mvm`] — the per-column accumulation of
/// `input × conductance` — is one computing cycle.
///
/// Only programmed cells are stored. Each row keeps them as runs of
/// consecutive programmed columns, with each run's weights contiguous,
/// so an MVM adds `x × w[..len]` into `len` adjacent columns at once —
/// a dense loop the compiler vectorizes. Every other cell holds
/// conductance zero and is never visited. Window-parallel layouts
/// leave most of a tile unprogrammed (VW-SDK programs 22 % and 25 % of
/// the cells of its 512×512 tiles on `vgg13-sim` and `resnet18-sim`),
/// so an MVM costs its programmed cells, not `rows × cols`.
///
/// # Example
///
/// ```
/// use pim_mapping::layout::{CellAssignment, WeightCoord};
/// use pim_sim::Crossbar;
/// use pim_tensor::Tensor4;
///
/// let bank = Tensor4::from_vec(2, 1, 1, 1, vec![3i64, 5]).unwrap();
/// let cell = |row, col, oc| CellAssignment {
///     row,
///     col,
///     weight: WeightCoord { oc, ic: 0, ky: 0, kx: 0 },
/// };
/// let xbar = Crossbar::program(2, 2, &[cell(0, 0, 0), cell(1, 1, 1)], &bank).unwrap();
/// assert_eq!(xbar.mvm(&[10, 100]).unwrap(), vec![30, 500]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Crossbar<T> {
    rows: usize,
    cols: usize,
    /// Row `r`'s runs are entries `row_start[r]..row_start[r + 1]` of
    /// `runs`, in ascending column order; `row_start` has `rows + 1`
    /// entries.
    row_start: Vec<usize>,
    runs: Vec<ColumnRun>,
    /// Every run's weights, back to back in run order.
    weight: Vec<T>,
}

/// `len` consecutive programmed columns from `col`, holding the weights
/// `weight[start..start + len]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ColumnRun {
    col: usize,
    start: usize,
    len: usize,
}

impl<T: Scalar> Crossbar<T> {
    /// Programs a `rows × cols` crossbar with a tile layout's cells,
    /// fetching weight values from the weight bank. When the list
    /// writes one cell twice, the later write wins.
    ///
    /// A counting pass sizes each row and a fill pass lists its cells;
    /// each row is then cut into runs of consecutive columns. The cells
    /// may come in any order.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if any assignment exceeds the crossbar or the
    /// weight bank dimensions.
    pub fn program(
        rows: usize,
        cols: usize,
        cells: &[CellAssignment],
        weights: &Tensor4<T>,
    ) -> Result<Self> {
        Self::program_from(rows, cols, cells.iter().copied(), weights)
    }

    /// [`Crossbar::program`] from cells a clonable iterator lists, read
    /// twice.
    pub(crate) fn program_from(
        rows: usize,
        cols: usize,
        cells: impl Iterator<Item = CellAssignment> + Clone,
        weights: &Tensor4<T>,
    ) -> Result<Self> {
        let (oc, ic, kh, kw) = weights.dims();
        let mut row_start = vec![0usize; rows + 1];
        for cell in cells.clone() {
            if cell.row >= rows || cell.col >= cols {
                return Err(SimError::new(format!(
                    "cell ({}, {}) outside {rows}x{cols} crossbar",
                    cell.row, cell.col
                )));
            }
            let w = cell.weight;
            if w.oc >= oc || w.ic >= ic || w.ky >= kh || w.kx >= kw {
                return Err(SimError::new(format!(
                    "weight coordinate ({}, {}, {}, {}) outside {}x{}x{}x{} bank",
                    w.oc, w.ic, w.ky, w.kx, oc, ic, kh, kw
                )));
            }
            row_start[cell.row + 1] += 1;
        }
        for r in 0..rows {
            row_start[r + 1] += row_start[r];
        }
        let mut next = row_start[..rows].to_vec();
        let mut col = vec![0; row_start[rows]];
        let mut weight = vec![T::ZERO; row_start[rows]];
        for cell in cells {
            let slot = next[cell.row];
            next[cell.row] += 1;
            col[slot] = cell.col;
            let w = cell.weight;
            weight[slot] = weights.get(w.oc, w.ic, w.ky, w.kx);
        }
        // Cut each row into runs. The row's cells go into a dense row
        // buffer, so a later write of a cell replaces an earlier one, and
        // into a bitmap whose set bits, read in ascending order, give the
        // row's columns sorted. The weights compact in place: a row never
        // keeps more cells than it listed.
        let mut present = vec![0u64; cols.div_ceil(64)];
        let mut dense = vec![T::ZERO; cols];
        let mut runs: Vec<ColumnRun> = Vec::new();
        let mut kept = 0;
        for r in 0..rows {
            for i in row_start[r]..row_start[r + 1] {
                present[col[i] / 64] |= 1 << (col[i] % 64);
                dense[col[i]] = weight[i];
            }
            row_start[r] = runs.len();
            for (word_index, word) in present.iter_mut().enumerate() {
                while *word != 0 {
                    let c = word_index * 64 + word.trailing_zeros() as usize;
                    *word &= *word - 1;
                    match runs[row_start[r]..].last_mut() {
                        Some(run) if c == run.col + run.len => run.len += 1,
                        _ => runs.push(ColumnRun {
                            col: c,
                            start: kept,
                            len: 1,
                        }),
                    }
                    weight[kept] = dense[c];
                    kept += 1;
                }
            }
        }
        row_start[rows] = runs.len();
        weight.truncate(kept);
        Ok(Self {
            rows,
            cols,
            row_start,
            runs,
            weight,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of distinct programmed cells.
    #[cfg(test)]
    pub(crate) fn programmed_cells(&self) -> usize {
        self.weight.len()
    }

    /// The number of column runs row `row` stores.
    #[cfg(test)]
    pub(crate) fn runs_in_row(&self, row: usize) -> usize {
        self.row_start[row + 1] - self.row_start[row]
    }

    /// One analog matrix-vector multiply: drives `input` into the rows and
    /// returns the per-column accumulations — a one-element
    /// [`Crossbar::mvm_batch_into`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if `input.len() != rows`.
    pub fn mvm(&self, input: &[T]) -> Result<Vec<T>> {
        let mut out = Vec::new();
        self.mvm_batch_into(input, 1, &mut out)?;
        Ok(out)
    }

    /// `batch` independent MVMs against the same programmed cells in one
    /// pass: `inputs` packs `batch` row-vectors back to back
    /// (`inputs[bi * rows + r]`), and `out` is cleared and resized to
    /// `batch` column accumulations (`out[bi * cols + c]`).
    ///
    /// Rows are visited in ascending order and each row's runs are read
    /// once per batch instead of once per input vector. A zero input
    /// skips its row; a nonzero input `x` adds `x × w[..len]` into
    /// `out[c..c + len]` once per run. Every column therefore
    /// accumulates its programmed products in ascending row order, so
    /// each element's result is bit-identical to a one-element batch.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if `batch == 0` or
    /// `inputs.len() != batch * rows`.
    pub fn mvm_batch_into(&self, inputs: &[T], batch: usize, out: &mut Vec<T>) -> Result<()> {
        if batch == 0 {
            return Err(SimError::new("crossbar MVM batch must be >= 1"));
        }
        let (rows, cols) = (self.rows, self.cols);
        if inputs.len() != batch * rows {
            return Err(SimError::new(format!(
                "crossbar MVM batch of {batch} expects {} packed inputs, got {}",
                batch * rows,
                inputs.len()
            )));
        }
        out.clear();
        out.resize(batch * cols, T::ZERO);
        for r in 0..rows {
            let runs = &self.runs[self.row_start[r]..self.row_start[r + 1]];
            for bi in 0..batch {
                let x = inputs[bi * rows + r];
                if x == T::ZERO {
                    continue;
                }
                let acc = &mut out[bi * cols..(bi + 1) * cols];
                for run in runs {
                    let w = &self.weight[run.start..run.start + run.len];
                    for (a, &w) in acc[run.col..run.col + run.len].iter_mut().zip(w) {
                        *a += x * w;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_mapping::layout::WeightCoord;
    use pim_tensor::gen;
    use proptest::prelude::*;

    fn cell(row: usize, col: usize, oc: usize, ic: usize, ky: usize, kx: usize) -> CellAssignment {
        CellAssignment {
            row,
            col,
            weight: WeightCoord { oc, ic, ky, kx },
        }
    }

    #[test]
    fn mvm_rejects_wrong_input_length() {
        let bank = gen::ramp4::<i32>(1, 1, 1, 1);
        let x = Crossbar::program(3, 2, &[], &bank).unwrap();
        assert!(x.mvm(&[1, 2]).is_err());
        assert_eq!(x.mvm(&[1, 2, 3]).unwrap(), vec![0, 0]);
    }

    #[test]
    fn program_reads_weight_bank_and_last_write_wins() {
        let weights = gen::ramp4::<i64>(2, 1, 2, 2);
        let cells = [
            cell(0, 0, 0, 0, 0, 0),
            cell(3, 1, 0, 0, 1, 0),
            cell(3, 1, 1, 0, 1, 1),
        ];
        let x = Crossbar::program(4, 2, &cells, &weights).unwrap();
        assert_eq!(x.programmed_cells(), 2);
        let y = x.mvm(&[1, 0, 0, 1]).unwrap();
        assert_eq!(y, vec![weights.get(0, 0, 0, 0), weights.get(1, 0, 1, 1)]);
    }

    #[test]
    fn batched_mvm_matches_per_element_mvm() {
        let weights = gen::ramp4::<i64>(4, 2, 2, 2);
        let cells: Vec<_> = (0..8)
            .flat_map(|r| (0..4).map(move |c| cell(r, c, c, r % 2, (r / 2) % 2, r / 4)))
            .collect();
        let x = Crossbar::program(8, 4, &cells, &weights).unwrap();
        let a: Vec<i64> = (0..8).map(|v| v - 3).collect();
        let b: Vec<i64> = (0..8).map(|v| 2 * v - 7).collect();
        let packed: Vec<i64> = a.iter().chain(b.iter()).copied().collect();
        let mut out = vec![99; 3];
        x.mvm_batch_into(&packed, 2, &mut out).unwrap();
        let mut expect = x.mvm(&a).unwrap();
        expect.extend(x.mvm(&b).unwrap());
        assert_eq!(out, expect);
        assert!(x.mvm_batch_into(&packed, 0, &mut out).is_err());
        assert!(x.mvm_batch_into(&packed[1..], 2, &mut out).is_err());
    }

    /// A crossbar shape, a cell list as (row, col, weight) writes, a
    /// batch size and the packed batch inputs.
    type Case = (usize, usize, Vec<(usize, usize, i8)>, usize, Vec<i8>);

    fn case() -> impl Strategy<Value = Case> {
        (1usize..10, 1usize..10, 1usize..5).prop_flat_map(|(rows, cols, batch)| {
            (
                Just(rows),
                Just(cols),
                // Up to 40 writes into at most 81 cells: duplicate
                // writes, zero weights and rows without a cell all occur.
                collection::vec((0..rows, 0..cols, -3i8..4), 0..40),
                Just(batch),
                collection::vec(-2i8..3, batch * rows..batch * rows + 1),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn batched_mvm_equals_a_dense_loop((rows, cols, writes, batch, inputs) in case()) {
            // Tenths are inexact in binary, so float sums expose any
            // change in accumulation order.
            let value = |v: i8| f64::from(v) * 0.1;
            let bank =
                Tensor4::from_vec(writes.len(), 1, 1, 1, writes.iter().map(|w| value(w.2)).collect())
                    .unwrap();
            let cells: Vec<_> = writes
                .iter()
                .enumerate()
                .map(|(i, &(r, c, _))| cell(r, c, i, 0, 0, 0))
                .collect();
            let xbar = Crossbar::program(rows, cols, &cells, &bank).unwrap();
            let inputs: Vec<f64> = inputs.into_iter().map(value).collect();
            let mut dense = vec![0.0; rows * cols];
            for &(r, c, w) in &writes {
                dense[r * cols + c] = value(w);
            }
            let mut expect = vec![0.0; batch * cols];
            for bi in 0..batch {
                for r in 0..rows {
                    for c in 0..cols {
                        expect[bi * cols + c] += inputs[bi * rows + r] * dense[r * cols + c];
                    }
                }
            }
            let mut out = vec![1.0; 3];
            xbar.mvm_batch_into(&inputs, batch, &mut out).unwrap();
            prop_assert_eq!(out, expect);
            let distinct: std::collections::HashSet<_> =
                writes.iter().map(|&(r, c, _)| (r, c)).collect();
            prop_assert_eq!(xbar.programmed_cells(), distinct.len());
        }
    }

    #[test]
    fn program_validates_bounds() {
        let weights = gen::ramp4::<i64>(1, 1, 2, 2);
        assert!(Crossbar::program(2, 2, &[cell(2, 0, 0, 0, 0, 0)], &weights).is_err());
        assert!(Crossbar::program(2, 2, &[cell(0, 2, 0, 0, 0, 0)], &weights).is_err());
        assert!(Crossbar::program(2, 2, &[cell(0, 0, 1, 0, 0, 0)], &weights).is_err());
    }
}
