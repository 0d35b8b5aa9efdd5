//! The programmable crossbar state.

use crate::{Result, SimError};
use pim_mapping::layout::CellRun;
use pim_tensor::{Scalar, Tensor4};

/// One crossbar array holding programmed weights.
///
/// The convention throughout the project: rows are inputs, columns are
/// outputs, and one matrix-vector multiply — the per-column accumulation of
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
/// use pim_mapping::layout::{CellRun, WeightCoord};
/// use pim_sim::Crossbar;
/// use pim_tensor::Tensor4;
///
/// let bank = Tensor4::from_vec(2, 1, 1, 1, vec![3i64, 5]).unwrap();
/// let run = |row, col, len| CellRun {
///     row,
///     col,
///     len,
///     weight: WeightCoord { oc: 0, ic: 0, ky: 0, kx: 0 },
/// };
/// // Row 0 holds W[0] and W[1] in columns 0 and 1; row 1 holds W[0] in
/// // column 1.
/// let xbar = Crossbar::program(2, 2, [run(0, 0, 2), run(1, 1, 1)], &bank).unwrap();
/// let mut out = Vec::new();
/// xbar.mvm_batch_into(&[10, 100], 1, &mut out).unwrap();
/// assert_eq!(out, vec![30, 50 + 300]);
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
    /// Programs a `rows × cols` crossbar in one pass over a layout's
    /// walk, fetching weight values from the weight bank.
    ///
    /// The runs must come row-major — rows ascending and, within a row,
    /// columns ascending — as [`pim_mapping::layout::TileLayout::runs`]
    /// lists them. Each is appended to its row, merged with the row's
    /// last run when the two abut.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if a run exceeds the crossbar or the weight
    /// bank dimensions, or if a cell does not follow the one before it
    /// in row-major order, which a cell written twice never does.
    pub fn program(
        rows: usize,
        cols: usize,
        runs: impl IntoIterator<Item = CellRun>,
        weights: &Tensor4<T>,
    ) -> Result<Self> {
        let (oc, ic, kh, kw) = weights.dims();
        let bank = weights.as_slice();
        let mut xbar = Self {
            rows,
            cols,
            row_start: vec![0],
            runs: Vec::new(),
            weight: Vec::new(),
        };
        // The first column the next cell of the current row may take.
        let mut next_col = 0;
        runs.into_iter().try_for_each(|run| {
            let (CellRun { row, col, len, .. }, w) = (run, run.weight);
            if row >= rows || len > cols || col > cols - len {
                let msg = format!("{len} cells from ({row}, {col}) outside {rows}x{cols} crossbar");
                return Err(SimError::new(msg));
            }
            if len > oc || w.oc > oc - len || w.ic >= ic || w.ky >= kh || w.kx >= kw {
                let msg = format!("{len} weights from {w:?} outside {oc}x{ic}x{kh}x{kw} bank");
                return Err(SimError::new(msg));
            }
            let current = xbar.row_start.len() - 1;
            if row < current || (row == current && col < next_col) {
                return Err(SimError::new(format!(
                    "cell ({row}, {col}) does not follow the cell before it in row-major \
                     order: it is written twice or out of order"
                )));
            }
            xbar.row_start.resize(row + 1, xbar.runs.len());
            let start = xbar.weight.len();
            let first = ((w.oc * ic + w.ic) * kh + w.ky) * kw + w.kx;
            xbar.weight
                .extend(bank[first..].iter().step_by(ic * kh * kw).take(len));
            match xbar.runs[xbar.row_start[row]..].last_mut() {
                Some(last) if last.col + last.len == col => last.len += len,
                _ => xbar.runs.push(ColumnRun { col, start, len }),
            }
            next_col = col + len;
            Ok(())
        })?;
        xbar.row_start.resize(rows + 1, xbar.runs.len());
        Ok(xbar)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of programmed cells.
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
    #[cfg(test)]
    fn mvm(&self, input: &[T]) -> Result<Vec<T>> {
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

    fn run(row: usize, col: usize, len: usize, oc: usize) -> CellRun {
        CellRun {
            row,
            col,
            len,
            weight: WeightCoord {
                oc,
                ic: 0,
                ky: 0,
                kx: 0,
            },
        }
    }

    fn cell(row: usize, col: usize, oc: usize, ic: usize, ky: usize, kx: usize) -> CellRun {
        CellRun {
            row,
            col,
            len: 1,
            weight: WeightCoord { oc, ic, ky, kx },
        }
    }

    #[test]
    fn mvm_rejects_wrong_input_length() {
        let bank = gen::random4::<i32>(1, 1, 1, 1, 7);
        let x = Crossbar::program(3, 2, [], &bank).unwrap();
        assert!(x.mvm(&[1, 2]).is_err());
        assert_eq!(x.mvm(&[1, 2, 3]).unwrap(), vec![0, 0]);
    }

    #[test]
    fn program_reads_weight_bank_and_refuses_a_repeated_cell() {
        let weights = gen::random4::<i64>(2, 1, 2, 2, 7);
        let cells = [cell(0, 0, 0, 0, 0, 0), cell(3, 1, 1, 0, 1, 1)];
        let x = Crossbar::program(4, 2, cells, &weights).unwrap();
        assert_eq!(x.programmed_cells(), 2);
        let y = x.mvm(&[1, 0, 0, 1]).unwrap();
        assert_eq!(y, vec![weights.get(0, 0, 0, 0), weights.get(1, 0, 1, 1)]);
        // A second write of cell (3, 1) is refused, naming the cell,
        // instead of replacing the first write's weight.
        let twice = [
            cell(0, 0, 0, 0, 0, 0),
            cell(3, 1, 0, 0, 1, 0),
            cell(3, 1, 1, 0, 1, 1),
        ];
        let err = Crossbar::program(4, 2, twice, &weights).unwrap_err();
        assert!(err.to_string().contains("cell (3, 1)"), "{err}");
        // So are a column that steps back within its row, a row that
        // steps back, and a run that overlaps the run before it.
        for (cells, named) in [
            (vec![run(3, 1, 1, 0), run(3, 0, 1, 0)], "cell (3, 0)"),
            (vec![run(3, 0, 1, 0), run(2, 1, 1, 0)], "cell (2, 1)"),
            (vec![run(0, 0, 2, 0), run(0, 1, 1, 0)], "cell (0, 1)"),
        ] {
            let err = Crossbar::program(4, 2, cells, &weights).unwrap_err();
            assert!(err.to_string().contains(named), "{err}");
        }
    }

    #[test]
    fn abutting_runs_of_one_row_merge() {
        let weights = gen::random4::<i64>(3, 1, 1, 1, 7);
        let x = Crossbar::program(2, 5, [run(0, 0, 2, 1), run(0, 2, 3, 0)], &weights).unwrap();
        assert_eq!(x.runs_in_row(0), 1);
        assert_eq!(x.runs_in_row(1), 0);
        let w = |oc| weights.get(oc, 0, 0, 0);
        assert_eq!(x.mvm(&[1, 7]).unwrap(), vec![w(1), w(2), w(0), w(1), w(2)]);
    }

    #[test]
    fn batched_mvm_matches_per_element_mvm() {
        let weights = gen::random4::<i64>(4, 2, 2, 2, 7);
        let cells: Vec<_> = (0..8)
            .flat_map(|r| (0..4).map(move |c| cell(r, c, c, r % 2, (r / 2) % 2, r / 4)))
            .collect();
        let x = Crossbar::program(8, 4, cells, &weights).unwrap();
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
                // Up to 40 writes into at most 81 cells: repeated cells,
                // steps back, zero weights and rows without a cell all
                // occur.
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
            let write = |i: usize| cell(writes[i].0, writes[i].1, i, 0, 0, 0);
            // The writes as drawn program only when they are strictly
            // row-major: a repeated cell or a step back is refused.
            let row_major = writes.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1));
            let drawn = Crossbar::program(rows, cols, (0..writes.len()).map(write), &bank);
            prop_assert_eq!(drawn.is_ok(), row_major);
            // Each cell's last write, row-major.
            let mut last = std::collections::BTreeMap::new();
            for (i, &(r, c, _)) in writes.iter().enumerate() {
                last.insert((r, c), i);
            }
            let xbar = Crossbar::program(rows, cols, last.values().map(|&i| write(i)), &bank).unwrap();
            let inputs: Vec<f64> = inputs.into_iter().map(value).collect();
            let mut dense = vec![0.0; rows * cols];
            for (&(r, c), &i) in &last {
                dense[r * cols + c] = value(writes[i].2);
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
            prop_assert_eq!(xbar.programmed_cells(), last.len());
        }
    }

    #[test]
    fn program_validates_bounds() {
        let weights = gen::random4::<i64>(2, 1, 2, 2, 7);
        for cells in [
            [cell(2, 0, 0, 0, 0, 0)],
            [cell(0, 2, 0, 0, 0, 0)],
            [run(0, 1, 2, 0)],
            [cell(0, 0, 2, 0, 0, 0)],
            [run(0, 0, 2, 1)],
            [cell(0, 0, 0, 1, 0, 0)],
            [cell(0, 0, 0, 0, 2, 0)],
        ] {
            assert!(
                Crossbar::program(2, 2, cells, &weights).is_err(),
                "{cells:?}"
            );
        }
    }
}
