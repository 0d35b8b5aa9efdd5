//! Dense matrix multiplication for the im2col convolution path.
//!
//! [`crate::conv2d_im2col`] lowers a convolution to one GEMM, the
//! independent cross-check of [`crate::conv2d_direct`]. The crossbar
//! simulator does not run through this module: `pim-sim` keeps only
//! the programmed cells of each crossbar and runs its own MVM over
//! them. Correctness and exactness come first: every output element
//! accumulates in ascending inner-index order with a skip-zero rule, so
//! the allocation-free [`matmul_into`] is bit-identical to the textbook
//! triple loop — for floats as well as integers. Within that constraint
//! the inner loop is cache-blocked: [`matmul_into`] tiles the output
//! columns so the active output slice stays resident.

use crate::{Result, Scalar, ShapeError, Tensor2};

/// Output-column block width of [`matmul_into`]: the active output
/// slice (`BLOCK_COLS` elements) plus one input row stay cache-resident
/// while the full inner dimension streams by.
const BLOCK_COLS: usize = 128;

/// Computes the product `a · b` of an `m×k` and a `k×n` matrix.
///
/// # Errors
///
/// Returns [`ShapeError`] if the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use pim_tensor::{matmul::matmul, Tensor2};
///
/// let a = Tensor2::from_vec(2, 2, vec![1, 2, 3, 4]).unwrap();
/// let b = Tensor2::from_vec(2, 1, vec![5, 6]).unwrap();
/// let c = matmul(&a, &b).unwrap();
/// assert_eq!(c.as_slice(), &[17, 39]);
/// ```
pub fn matmul<T: Scalar>(a: &Tensor2<T>, b: &Tensor2<T>) -> Result<Tensor2<T>> {
    let mut out = Tensor2::zeros(a.rows(), b.cols());
    matmul_into(a, b, &mut out)?;
    Ok(out)
}

/// Computes `a · b` into a caller-provided output matrix, reusing its
/// allocation — the allocation-free core of [`matmul`].
///
/// The inner loops are blocked over output columns, but every output
/// element still accumulates its products in ascending inner-index
/// order with the same skip-zero rule, so the result is bit-identical
/// to the textbook triple loop (floats included).
///
/// # Errors
///
/// Returns [`ShapeError`] if the inner dimensions disagree or `out` is
/// not `a.rows() × b.cols()`.
pub fn matmul_into<T: Scalar>(a: &Tensor2<T>, b: &Tensor2<T>, out: &mut Tensor2<T>) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(ShapeError::new(format!(
            "matmul inner dims disagree: {}x{} . {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        )));
    }
    if out.dims() != (a.rows(), b.cols()) {
        return Err(ShapeError::new(format!(
            "matmul output must be {}x{}, got {}x{}",
            a.rows(),
            b.cols(),
            out.rows(),
            out.cols()
        )));
    }
    let (m, k) = a.dims();
    let n = b.cols();
    out.fill_zero();
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + BLOCK_COLS).min(n);
        for i in 0..m {
            let arow = a.row(i);
            for (p, &aip) in arow.iter().enumerate().take(k) {
                if aip == T::ZERO {
                    continue;
                }
                let bblk = &b.row(p)[j0..j1];
                let oblk = &mut out.row_mut(i)[j0..j1];
                for (acc, &w) in oblk.iter_mut().zip(bblk.iter()) {
                    *acc += aip * w;
                }
            }
        }
        j0 = j1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_times_matrix_is_matrix() {
        let mut id: Tensor2<i64> = Tensor2::zeros(3, 3);
        for i in 0..3 {
            id.set(i, i, 1);
        }
        let b = Tensor2::from_vec(3, 2, vec![1, 2, 3, 4, 5, 6]).unwrap();
        let c = matmul(&id, &b).unwrap();
        assert_eq!(c, b);
    }

    #[test]
    fn rectangular_product_matches_hand_computation() {
        let a = Tensor2::from_vec(2, 3, vec![1, 2, 3, 4, 5, 6]).unwrap();
        let b = Tensor2::from_vec(3, 2, vec![7, 8, 9, 10, 11, 12]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[58, 64, 139, 154]);
    }

    #[test]
    fn mismatched_dims_error() {
        let a: Tensor2<i32> = Tensor2::zeros(2, 3);
        let b: Tensor2<i32> = Tensor2::zeros(2, 3);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_into_reuses_dirty_buffers() {
        let a = Tensor2::from_vec(2, 3, vec![1, 2, 3, 4, 5, 6]).unwrap();
        let b = Tensor2::from_vec(3, 2, vec![7, 8, 9, 10, 11, 12]).unwrap();
        let mut out = Tensor2::from_vec(2, 2, vec![99, 99, 99, 99]).unwrap();
        matmul_into(&a, &b, &mut out).unwrap();
        assert_eq!(out.as_slice(), &[58, 64, 139, 154]);
        let mut wrong: Tensor2<i64> = Tensor2::zeros(3, 2);
        assert!(matmul_into(&a, &b, &mut wrong).is_err());
    }

    #[test]
    fn blocked_matmul_matches_unblocked_beyond_one_block() {
        // Wider than BLOCK_COLS so at least two column blocks run.
        let a = crate::gen::random2::<i64>(7, 19, 31);
        let b = crate::gen::random2::<i64>(19, 300, 32);
        let blocked = matmul(&a, &b).unwrap();
        let mut naive = Tensor2::zeros(7, 300);
        for i in 0..7 {
            for p in 0..19 {
                for j in 0..300 {
                    naive.add_assign_at(i, j, a.get(i, p) * b.get(p, j));
                }
            }
        }
        assert_eq!(blocked, naive);
    }

    #[test]
    fn blocked_matmul_is_bit_identical_for_floats() {
        // Accumulation order per output element must be unchanged by
        // blocking, so float results are bitwise equal, not just close.
        let a = crate::gen::random2::<f64>(5, 23, 33);
        let b = crate::gen::random2::<f64>(23, 200, 34);
        let blocked = matmul(&a, &b).unwrap();
        let mut naive = Tensor2::zeros(5, 200);
        for i in 0..5 {
            for p in 0..23 {
                let aip = a.get(i, p);
                if aip == 0.0 {
                    continue;
                }
                for j in 0..200 {
                    naive.add_assign_at(i, j, aip * b.get(p, j));
                }
            }
        }
        assert_eq!(blocked, naive);
    }
}
