//! Array utilization per the paper's eq. (9).
//!
//! The paper defines utilization as the average over computing cycles of
//! `used cells / total cells`. Two readings of "used cells" are defensible
//! and we report both (see DESIGN.md §4):
//!
//! * **nonzero** — cells programmed with an actual kernel weight. Shifted
//!   kernels leave structural zeros inside their window columns, which do
//!   not count. Under this reading the full-tile utilization of the
//!   VGG-13 layer-5 VW-SDK mapping is `9·42·512 / 512² = 73.83 %` —
//!   exactly the paper's "up to 73.8 %".
//! * **rectangle** — every cell of the allocated `rows_used × cols_used`
//!   region, structural zeros included.
//!
//! For each we report the cycle-weighted **mean** (eq. (9) as written) and
//! the **peak** (the paper's "up to" phrasing).

use crate::layout::{SmdLayout, TileLayout};
use crate::plan::MappingPlan;
use crate::Result;

/// Utilization statistics of one plan, in percent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationStats {
    /// Cycle-weighted mean of nonzero-cell utilization (eq. (9)).
    pub mean_nonzero: f64,
    /// Maximum per-cycle nonzero-cell utilization.
    pub peak_nonzero: f64,
    /// Cycle-weighted mean of bounding-rectangle utilization.
    pub mean_rect: f64,
    /// Maximum per-cycle bounding-rectangle utilization.
    pub peak_rect: f64,
    /// Computing cycles the statistics cover.
    pub cycles: u64,
}

/// Measures eq. (9) utilization of a plan exactly, from its cell layouts.
///
/// Every `(AR, AC)` tile pair is laid out once and its cells counted
/// from the layout's walk, the one the simulator programs; its per-cycle
/// utilization is constant across the parallel-window positions that
/// stream through it, so the cycle weighting reduces to averaging over
/// tile pairs.
///
/// # Errors
///
/// Returns [`crate::MappingError`] for grouped layers (no cell-level
/// layout support).
pub fn utilization(plan: &MappingPlan) -> Result<UtilizationStats> {
    plan.check_layout_supported()?;
    // Each programming's used cells and allocated rectangle. SMD with real
    // duplication has a single block-diagonal programming.
    let programmings: Vec<(usize, usize)> = if plan.is_block_diagonal() {
        let layout = SmdLayout::build(plan)?;
        vec![(layout.used_cells(), layout.rows_used() * layout.cols_used())]
    } else {
        let tiles = (0..plan.ar_cycles()).flat_map(|t| (0..plan.ac_cycles()).map(move |u| (t, u)));
        tiles
            .map(|(t, u)| {
                let layout = TileLayout::build(plan, t, u)?;
                Ok((layout.used_cells(), layout.rows_used() * layout.cols_used()))
            })
            .collect::<Result<_>>()?
    };
    let total = plan.array().cells() as f64;
    let mut sum_nonzero = 0.0;
    let mut peak_nonzero = 0.0f64;
    let mut sum_rect = 0.0;
    let mut peak_rect = 0.0f64;
    for &(used, rect) in &programmings {
        let (nz, rc) = (used as f64 / total, rect as f64 / total);
        sum_nonzero += nz;
        sum_rect += rc;
        peak_nonzero = peak_nonzero.max(nz);
        peak_rect = peak_rect.max(rc);
    }
    let pairs = programmings.len() as f64;
    Ok(UtilizationStats {
        mean_nonzero: sum_nonzero / pairs * 100.0,
        peak_nonzero: peak_nonzero * 100.0,
        mean_rect: sum_rect / pairs * 100.0,
        peak_rect: peak_rect * 100.0,
        cycles: plan.cycles(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MappingAlgorithm;
    use pim_arch::PimArray;
    use pim_nets::ConvLayer;

    fn layer(input: usize, kernel: usize, ic: usize, oc: usize) -> ConvLayer {
        ConvLayer::square("t", input, kernel, ic, oc).unwrap()
    }

    fn arr(r: usize, c: usize) -> PimArray {
        PimArray::new(r, c).unwrap()
    }

    #[test]
    fn vgg13_layer5_peak_matches_paper_73_8_percent() {
        // The headline utilization number of Fig. 9(a).
        let l = layer(56, 3, 128, 256);
        let p = MappingAlgorithm::VwSdk.plan(&l, arr(512, 512)).unwrap();
        let u = utilization(&p).unwrap();
        let expected = (9 * 42 * 512) as f64 / (512.0 * 512.0) * 100.0;
        assert!((u.peak_nonzero - expected).abs() < 1e-9);
        assert!((u.peak_nonzero - 73.8).abs() < 0.05);
        // The mean is dragged down by the ragged last channel tile
        // (128 = 3*42 + 2).
        assert!(u.mean_nonzero < u.peak_nonzero);
    }

    #[test]
    fn im2col_layer5_peak_is_50_percent() {
        let l = layer(56, 3, 128, 256);
        let p = MappingAlgorithm::Im2col.plan(&l, arr(512, 512)).unwrap();
        let u = utilization(&p).unwrap();
        // Dense kernel columns: the two full row tiles use all 512 rows
        // but only 256 of 512 columns -> 50 %; the last tile uses 128
        // rows -> 12.5 %. Mean = (50+50+12.5)/3 = 37.5 %.
        assert!((u.peak_nonzero - 50.0).abs() < 1e-9);
        assert!((u.peak_rect - 50.0).abs() < 1e-9);
        assert!((u.mean_nonzero - 37.5).abs() < 1e-9);
        assert_eq!(u.cycles, 8748);
    }

    #[test]
    fn utilization_is_within_bounds() {
        for alg in MappingAlgorithm::paper_trio() {
            for (i, k, ic, oc) in [(14, 3, 64, 64), (28, 5, 16, 96), (7, 3, 512, 512)] {
                let p = alg.plan(&layer(i, k, ic, oc), arr(256, 256)).unwrap();
                let u = utilization(&p).unwrap();
                assert!(u.mean_nonzero > 0.0 && u.mean_nonzero <= 100.0, "{alg}");
                assert!(u.peak_nonzero <= u.peak_rect + 1e-12, "{alg}");
                assert!(u.mean_nonzero <= u.peak_nonzero + 1e-12, "{alg}");
                assert!(u.peak_rect <= 100.0 + 1e-12, "{alg}");
            }
        }
    }

    #[test]
    fn smd_utilization_counts_block_diagonal_cells() {
        let l = layer(8, 3, 2, 3);
        let p = MappingAlgorithm::Smd.plan(&l, arr(64, 64)).unwrap();
        let d = p.duplication();
        let u = utilization(&p).unwrap();
        let expected = (d * 18 * 3) as f64 / (64.0 * 64.0) * 100.0;
        assert!((u.mean_nonzero - expected).abs() < 1e-9);
        // Rect counts the whole d*18 x d*3 region including off-diagonal
        // zeros.
        let rect = (d * 18 * d * 3) as f64 / (64.0 * 64.0) * 100.0;
        assert!((u.mean_rect - rect).abs() < 1e-9);
    }

    #[test]
    fn vw_beats_sdk_utilization_on_deep_vgg_layers() {
        // Fig. 9(a): after layer 3, SDK degenerates and VW-SDK's
        // utilization is strictly higher.
        for (i, ic, oc) in [(56, 128, 256), (56, 256, 256)] {
            let l = layer(i, 3, ic, oc);
            let sdk = utilization(&MappingAlgorithm::Sdk.plan(&l, arr(512, 512)).unwrap()).unwrap();
            let vw =
                utilization(&MappingAlgorithm::VwSdk.plan(&l, arr(512, 512)).unwrap()).unwrap();
            assert!(vw.peak_nonzero > sdk.peak_nonzero);
        }
    }
}
