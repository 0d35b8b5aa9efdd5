//! Computable channel capacity of an array (paper Fig. 4).
//!
//! Fig. 4 asks: for a given array size, how many input/output channels can
//! each mapping scheme process *in a single computing cycle*? The answer
//! depends only on the kernel size and the mapping:
//!
//! * im2col — one kernel per column: `IC ≤ ⌊rows / K²⌋`, `OC ≤ cols`;
//! * SDK with a `d²` duplication — the parallel window occupies
//!   `(K+d−1)²` rows per channel and each kernel copy its own column:
//!   `IC ≤ ⌊rows / (K+d−1)²⌋`, `OC ≤ ⌊cols / d²⌋`.
//!
//! The paper's figure uses 3×3 kernels and `d = 2` (4×4 windows).

use pim_arch::PimArray;

/// Maximum input channels mappable at once under im2col.
fn im2col_max_ic(array: PimArray, kernel_w: usize, kernel_h: usize) -> usize {
    array.rows() / (kernel_w * kernel_h)
}

/// Maximum output channels mappable at once under im2col.
fn im2col_max_oc(array: PimArray) -> usize {
    array.cols()
}

/// Maximum input channels mappable at once under SDK with duplication `d`.
fn sdk_max_ic(array: PimArray, kernel_w: usize, kernel_h: usize, d: usize) -> usize {
    let pw_area = (kernel_w + d - 1) * (kernel_h + d - 1);
    array.rows() / pw_area
}

/// Maximum output channels mappable at once under SDK with duplication `d`.
fn sdk_max_oc(array: PimArray, d: usize) -> usize {
    array.cols() / (d * d)
}

/// One point of Fig. 4: the `(IC, OC)` capacity of a mapping on an array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelCapacity {
    /// Input channels computable in one cycle.
    pub max_ic: usize,
    /// Output channels computable in one cycle.
    pub max_oc: usize,
}

/// im2col capacity point for a square kernel.
pub fn im2col_capacity(array: PimArray, kernel: usize) -> ChannelCapacity {
    ChannelCapacity {
        max_ic: im2col_max_ic(array, kernel, kernel),
        max_oc: im2col_max_oc(array),
    }
}

/// SDK capacity point for a square kernel and duplication `d`.
pub fn sdk_capacity(array: PimArray, kernel: usize, d: usize) -> ChannelCapacity {
    ChannelCapacity {
        max_ic: sdk_max_ic(array, kernel, kernel, d),
        max_oc: sdk_max_oc(array, d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr(r: usize, c: usize) -> PimArray {
        PimArray::new(r, c).unwrap()
    }

    #[test]
    fn fig4_im2col_points() {
        // Paper Fig. 4 x-axis anchors: 14 (128 rows), 28 (256), 56 (512).
        assert_eq!(im2col_capacity(arr(128, 128), 3).max_ic, 14);
        assert_eq!(im2col_capacity(arr(256, 256), 3).max_ic, 28);
        assert_eq!(im2col_capacity(arr(512, 512), 3).max_ic, 56);
        assert_eq!(im2col_capacity(arr(512, 256), 3).max_ic, 56);
        assert_eq!(im2col_capacity(arr(512, 512), 3).max_oc, 512);
    }

    #[test]
    fn fig4_sdk_points() {
        // SDK with 4x4 windows: 8 (128 rows), 16 (256), 32 (512) input
        // channels; 32/64/128 output channels at d=2.
        assert_eq!(sdk_capacity(arr(128, 128), 3, 2).max_ic, 8);
        assert_eq!(sdk_capacity(arr(256, 256), 3, 2).max_ic, 16);
        assert_eq!(sdk_capacity(arr(512, 512), 3, 2).max_ic, 32);
        assert_eq!(sdk_capacity(arr(128, 128), 3, 2).max_oc, 32);
        assert_eq!(sdk_capacity(arr(256, 256), 3, 2).max_oc, 64);
        assert_eq!(sdk_capacity(arr(512, 512), 3, 2).max_oc, 128);
        assert_eq!(sdk_capacity(arr(512, 256), 3, 2).max_oc, 64);
    }

    #[test]
    fn sdk_with_d1_equals_im2col() {
        for a in [arr(128, 128), arr(512, 256)] {
            assert_eq!(sdk_capacity(a, 3, 1).max_ic, im2col_capacity(a, 3).max_ic);
            assert_eq!(sdk_capacity(a, 3, 1).max_oc, im2col_capacity(a, 3).max_oc);
        }
    }

    #[test]
    fn capacity_shrinks_with_duplication() {
        let a = arr(512, 512);
        let caps: Vec<_> = (1..=4).map(|d| sdk_capacity(a, 3, d)).collect();
        for pair in caps.windows(2) {
            assert!(pair[1].max_ic <= pair[0].max_ic);
            assert!(pair[1].max_oc <= pair[0].max_oc);
        }
    }
}
