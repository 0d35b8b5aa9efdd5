//! Equations (1)–(8): cycle costs of im2col, SMD, SDK and VW-SDK mappings.
//!
//! All arithmetic is exact integer math in `u64`. The functions taking a
//! [`ConvLayer`] honour stride, padding and groups (extensions beyond the
//! paper); at unit stride / zero padding / dense channels they reduce to the
//! paper's formulas exactly, which the tests pin against Table I.

use crate::window::ParallelWindow;
use pim_arch::PimArray;
use pim_nets::ConvLayer;

/// Kernel windows along one axis of a parallel window: how many
/// stride-aligned kernel placements fit inside an extent of `pw` cells.
///
/// At stride 1 this is the paper's `PW − K + 1`.
pub fn windows_per_pw_axis(pw: usize, k: usize, stride: usize) -> usize {
    if pw < k {
        0
    } else {
        (pw - k) / stride + 1
    }
}

/// Literal transcription of the paper's eq. (3) for unit stride:
///
/// `NPW = (⌈(Iw−PWw)/(PWw−Kw+1)⌉+1) · (⌈(Ih−PWh)/(PWh−Kh+1)⌉+1)`.
///
/// [`n_parallel_windows`] computes the same value through the equivalent
/// `⌈windows / windows-per-PW⌉` form (the identity is unit-tested); this
/// version exists so the reproduction contains the formula as printed.
// lint:allow(unused-pub) oracle: crates/cost/tests/cost_properties.rs checks eq. (3) as printed
pub fn n_parallel_windows_eq3(
    iw: usize,
    ih: usize,
    kw: usize,
    kh: usize,
    pw: ParallelWindow,
) -> u64 {
    let horiz = ((iw - pw.width()) as u64).div_ceil((pw.width() - kw + 1) as u64) + 1;
    let vert = ((ih - pw.height()) as u64).div_ceil((pw.height() - kh + 1) as u64) + 1;
    horiz * vert
}

/// Number of parallel windows needed to cover all kernel windows of a
/// layer (eq. (3), generalized to stride/padding).
///
/// Returns 0 if the window cannot contain the kernel.
pub fn n_parallel_windows(layer: &ConvLayer, pw: ParallelWindow) -> u64 {
    let wpp_w = windows_per_pw_axis(pw.width(), layer.effective_kernel_w(), layer.stride());
    let wpp_h = windows_per_pw_axis(pw.height(), layer.effective_kernel_h(), layer.stride());
    if wpp_w == 0 || wpp_h == 0 {
        return 0;
    }
    let (oh, ow) = layer.output_dims();
    (ow as u64).div_ceil(wpp_w as u64) * (oh as u64).div_ceil(wpp_h as u64)
}

/// Eq. (4): input channels of one layer mappable in a single cycle,
/// `ICt = ⌊rows / PW area⌋` (uncapped; may exceed the layer's `IC`).
pub fn tiled_ic(rows: usize, pw: ParallelWindow) -> usize {
    rows / pw.area()
}

/// Eq. (6): output channels mappable in a single cycle,
/// `OCt = ⌊cols / NWP⌋` (uncapped).
pub fn tiled_oc(cols: usize, windows_in_pw: usize) -> usize {
    cols.checked_div(windows_in_pw).unwrap_or(0)
}

/// Eq. (5): array-row cycles `AR = ⌈IC / ICt⌉`; `None` if `ICt = 0`
/// (window too large for the array rows).
pub fn ar_cycles(ic: usize, ic_t: usize) -> Option<u64> {
    if ic_t == 0 {
        None
    } else {
        Some((ic as u64).div_ceil(ic_t as u64))
    }
}

/// Eq. (7): array-column cycles `AC = ⌈OC / OCt⌉`; `None` if `OCt = 0`.
pub fn ac_cycles(oc: usize, oc_t: usize) -> Option<u64> {
    if oc_t == 0 {
        None
    } else {
        Some((oc as u64).div_ceil(oc_t as u64))
    }
}

/// Full cost breakdown of a VW-SDK mapping with a specific parallel window
/// (eq. (8)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VwCost {
    /// The parallel-window shape.
    pub window: ParallelWindow,
    /// Kernel windows inside one parallel window (`NWP`).
    pub windows_in_pw: usize,
    /// Parallel windows covering the layer (`NPW`, eq. (3)).
    pub n_parallel_windows: u64,
    /// Input channels mapped per cycle, capped at the layer's `IC`.
    pub tiled_ic: usize,
    /// Output channels mapped per cycle, capped at the layer's `OC`.
    pub tiled_oc: usize,
    /// Array-row cycles (eq. (5)).
    pub ar_cycles: u64,
    /// Array-column cycles (eq. (7)).
    pub ac_cycles: u64,
    /// Total computing cycles (eq. (8)).
    pub cycles: u64,
}

/// Evaluates eq. (8) for one candidate window.
///
/// Returns `None` when the candidate is infeasible: the window does not
/// satisfy `K ≤ PW ≤ I`, its area exceeds the array rows (`ICt = 0`), or
/// its window count exceeds the array columns (`OCt = 0`).
///
/// For grouped layers the per-group channels are used and the group count
/// multiplies the total (groups are mapped sequentially).
pub fn vw_cost(layer: &ConvLayer, array: PimArray, pw: ParallelWindow) -> Option<VwCost> {
    let padded_w = layer.input_w() + 2 * layer.padding();
    let padded_h = layer.input_h() + 2 * layer.padding();
    if pw.width() < layer.effective_kernel_w()
        || pw.height() < layer.effective_kernel_h()
        || pw.width() > padded_w
        || pw.height() > padded_h
    {
        return None;
    }
    let wpp_w = windows_per_pw_axis(pw.width(), layer.effective_kernel_w(), layer.stride());
    let wpp_h = windows_per_pw_axis(pw.height(), layer.effective_kernel_h(), layer.stride());
    let windows_in_pw = wpp_w * wpp_h;
    if windows_in_pw == 0 {
        return None;
    }
    let npw = n_parallel_windows(layer, pw);
    vw_cost_tail(layer, array, pw, windows_in_pw, npw)
}

/// Evaluates eq. (8) from a memoized [`CandidateGeom`] — the
/// array-independent half of [`vw_cost`] (window validity, `NWP`,
/// `NPW`) comes from the table, only the capacity-dependent terms are
/// computed here. Byte-identical to [`vw_cost`] for any candidate the
/// Algorithm 1 enumeration emits; the pruned search calls this so a
/// shape re-searched on another array geometry skips the shared
/// arithmetic.
///
/// [`CandidateGeom`]: crate::window::CandidateGeom
pub fn vw_cost_from_geom(
    layer: &ConvLayer,
    array: PimArray,
    height: usize,
    geom: &crate::window::CandidateGeom,
) -> Option<VwCost> {
    if geom.windows_in_pw == 0 {
        return None;
    }
    let pw = ParallelWindow::new(geom.width, height).expect("candidate dims are positive");
    vw_cost_tail(
        layer,
        array,
        pw,
        geom.windows_in_pw,
        geom.n_parallel_windows,
    )
}

/// The capacity-dependent tail of eq. (8), shared by [`vw_cost`] and
/// [`vw_cost_from_geom`] so the two paths cannot drift.
fn vw_cost_tail(
    layer: &ConvLayer,
    array: PimArray,
    pw: ParallelWindow,
    windows_in_pw: usize,
    npw: u64,
) -> Option<VwCost> {
    let ic = layer.in_channels_per_group();
    let oc = layer.out_channels_per_group();
    let ic_t = tiled_ic(array.rows(), pw);
    let oc_t = tiled_oc(array.cols(), windows_in_pw);
    let ar = ar_cycles(ic, ic_t)?;
    let ac = ac_cycles(oc, oc_t)?;
    let cycles = npw
        .checked_mul(ar)
        .and_then(|v| v.checked_mul(ac))
        .and_then(|v| v.checked_mul(layer.groups() as u64))
        .expect("cycle count overflows u64");
    Some(VwCost {
        window: pw,
        windows_in_pw,
        n_parallel_windows: npw,
        tiled_ic: ic_t.min(ic),
        tiled_oc: oc_t.min(oc),
        ar_cycles: ar,
        ac_cycles: ac,
        cycles,
    })
}

/// Cost breakdown of the im2col mapping (paper Fig. 2(a)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Im2colCost {
    /// Kernel windows slid over the input (`Nwin`).
    pub n_windows: u64,
    /// Row tiles: `⌈K·K·IC / rows⌉` — kernel columns are packed densely,
    /// so a column may straddle row tiles (partial sums are accumulated
    /// digitally).
    pub ar_cycles: u64,
    /// Column tiles: `⌈OC / cols⌉`.
    pub ac_cycles: u64,
    /// Total computing cycles.
    pub cycles: u64,
}

/// Computes the im2col cost — also the initialization `CC_im2col` of
/// Algorithm 1.
pub fn im2col_cost(layer: &ConvLayer, array: PimArray) -> Im2colCost {
    let n_windows = layer.n_windows();
    let kernel_rows = layer.kernel_rows() as u64;
    let ar = kernel_rows.div_ceil(array.rows() as u64);
    let ac = (layer.out_channels_per_group() as u64).div_ceil(array.cols() as u64);
    let cycles = n_windows * ar * ac * layer.groups() as u64;
    Im2colCost {
        n_windows,
        ar_cycles: ar,
        ac_cycles: ac,
        cycles,
    }
}

/// Cost breakdown of the SDK mapping of paper ref. \[2\].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SdkCost {
    /// Side of the square duplication grid (`d`; the kernel is duplicated
    /// `d²` times). `d = 1` means the mapping degenerated to im2col.
    pub duplication: usize,
    /// The square parallel window `(K + d − 1)²`.
    pub window: ParallelWindow,
    /// Parallel windows covering the layer.
    pub n_parallel_windows: u64,
    /// Row cycles per eq. (1): `⌈PW·PW·IC / rows⌉` (dense packing).
    pub ar_cycles: u64,
    /// Column cycles per eq. (1): `⌈d²·OC / cols⌉`.
    pub ac_cycles: u64,
    /// Total computing cycles.
    pub cycles: u64,
}

/// Evaluates eq. (1) for a square duplication factor `d ≥ 1`.
///
/// Returns `None` if the `(K+d−1)²` window exceeds the (padded) input.
// lint:allow(unused-pub) seam: crates/cost/tests/cost_properties.rs scans every d for SDK-opt
pub fn sdk_cost_for(layer: &ConvLayer, array: PimArray, d: usize) -> Option<SdkCost> {
    if d == 0 {
        return None;
    }
    // The published SDK scheme is defined for dense kernels; duplication
    // of dilated kernels falls back to im2col (d = 1).
    if d > 1 && layer.dilation() > 1 {
        return None;
    }
    let pw_w = layer.effective_kernel_w() + d - 1;
    let pw_h = layer.effective_kernel_h() + d - 1;
    let padded_w = layer.input_w() + 2 * layer.padding();
    let padded_h = layer.input_h() + 2 * layer.padding();
    if pw_w > padded_w || pw_h > padded_h {
        return None;
    }
    let pw = ParallelWindow::new(pw_w, pw_h).expect("window dims are positive");
    let ic = layer.in_channels_per_group();
    let oc = layer.out_channels_per_group();
    let rows_needed = (pw.area() * ic) as u64;
    let ar = rows_needed.div_ceil(array.rows() as u64);
    let wpp_w = windows_per_pw_axis(pw_w, layer.effective_kernel_w(), layer.stride());
    let wpp_h = windows_per_pw_axis(pw_h, layer.effective_kernel_h(), layer.stride());
    let windows_in_pw = (wpp_w * wpp_h) as u64;
    if windows_in_pw == 0 {
        return None;
    }
    let ac = (windows_in_pw * oc as u64).div_ceil(array.cols() as u64);
    let npw = n_parallel_windows(layer, pw);
    let cycles = npw * ar * ac * layer.groups() as u64;
    Some(SdkCost {
        duplication: d,
        window: pw,
        n_parallel_windows: npw,
        ar_cycles: ar,
        ac_cycles: ac,
        cycles,
    })
}

/// The existing SDK-based algorithm (paper ref. \[2\]), reverse-engineered
/// from Table I: choose the **largest** square duplication `d` whose row
/// and column cycles do not exceed im2col's (`AR ≤ AR_im2col` and
/// `AC ≤ AC_im2col`). Both quantities are non-decreasing in `d`, so the
/// scan stops at the first violation.
///
/// When no `d ≥ 2` qualifies the mapping degenerates to im2col — exactly
/// the behaviour the paper describes for the deeper VGG-13/ResNet layers.
pub fn sdk_cost(layer: &ConvLayer, array: PimArray) -> SdkCost {
    let reference = im2col_cost(layer, array);
    let mut best =
        sdk_cost_for(layer, array, 1).expect("d=1 window equals the kernel and always fits");
    let mut d = 2;
    while let Some(candidate) = sdk_cost_for(layer, array, d) {
        if candidate.ar_cycles > reference.ar_cycles || candidate.ac_cycles > reference.ac_cycles {
            break;
        }
        best = candidate;
        d += 1;
    }
    best
}

/// Unconstrained square-window search: minimizes eq. (1) cycles over all
/// square duplications (ablation baseline "SDK-opt", not in the paper).
/// Ties keep the smaller `d`.
///
/// The scan stops once `AR(d)·G·OW·OH·OC_g ≥ best·cols`. That is
/// lossless: every window has `NPW·NWP ≥ OW·OH` and
/// `AC ≥ NWP·OC_g/cols`, so `cycles(d)·cols ≥ AR(d)·G·OW·OH·OC_g`, and
/// `AR` never falls as `d` grows — no larger window can beat `best`.
pub fn sdk_min_cycles(layer: &ConvLayer, array: PimArray) -> SdkCost {
    let (oh, ow) = layer.output_dims();
    let outputs = [ow, oh, layer.out_channels_per_group(), layer.groups()]
        .iter()
        .map(|&n| n as u128)
        .product::<u128>();
    let mut best =
        sdk_cost_for(layer, array, 1).expect("d=1 window equals the kernel and always fits");
    let mut d = 2;
    while let Some(candidate) = sdk_cost_for(layer, array, d) {
        if candidate.cycles < best.cycles {
            best = candidate;
        }
        if candidate.ar_cycles as u128 * outputs >= best.cycles as u128 * array.cols() as u128 {
            break;
        }
        d += 1;
    }
    best
}

/// Cost breakdown of sub-matrix duplication (paper ref. \[6\], Fig. 2(b)):
/// `d` block-diagonal copies of the whole kernel matrix compute `d`
/// disjoint windows per cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SmdCost {
    /// Number of kernel-matrix copies placed block-diagonally.
    pub duplication: usize,
    /// Row tiles (only > 1 when even a single copy does not fit).
    pub ar_cycles: u64,
    /// Column tiles (only > 1 when even a single copy does not fit).
    pub ac_cycles: u64,
    /// Total computing cycles.
    pub cycles: u64,
}

/// Computes the SMD cost: the largest `d` with `d·K·K·IC ≤ rows` and
/// `d·OC ≤ cols`, at `⌈Nwin / d⌉` cycles. If not even one copy fits, the
/// mapping degenerates to im2col (row/column tiling, `d = 1`).
pub fn smd_cost(layer: &ConvLayer, array: PimArray) -> SmdCost {
    let kernel_rows = layer.kernel_rows();
    let oc = layer.out_channels_per_group();
    let d_rows = array.rows() / kernel_rows.max(1);
    let d_cols = array.cols() / oc.max(1);
    let d = d_rows.min(d_cols).min(layer.n_windows().max(1) as usize);
    if d == 0 {
        let base = im2col_cost(layer, array);
        return SmdCost {
            duplication: 1,
            ar_cycles: base.ar_cycles,
            ac_cycles: base.ac_cycles,
            cycles: base.cycles,
        };
    }
    let cycles = layer.n_windows().div_ceil(d as u64) * layer.groups() as u64;
    SmdCost {
        duplication: d,
        ar_cycles: 1,
        ac_cycles: 1,
        cycles,
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

    fn pw(w: usize, h: usize) -> ParallelWindow {
        ParallelWindow::new(w, h).unwrap()
    }

    #[test]
    fn eq3_literal_matches_general_form() {
        // Identity ⌈(I−PW)/m⌉+1 = ⌈(I−K+1)/m⌉ across a grid of shapes.
        for i in 5..40 {
            for k in [1usize, 3, 5, 7] {
                if k > i {
                    continue;
                }
                let l = layer(i, k, 1, 1);
                for w in k..=i {
                    for h in k..=i {
                        let p = pw(w, h);
                        assert_eq!(
                            n_parallel_windows_eq3(i, i, k, k, p),
                            n_parallel_windows(&l, p),
                            "I={i} K={k} PW={p}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn npw_for_table1_configurations() {
        // VGG-13 layer 1 with the 10x3 window: 28 x 222 = 6216.
        assert_eq!(n_parallel_windows(&layer(224, 3, 3, 64), pw(10, 3)), 6216);
        // ResNet-18 stem with the 10x8 window: 27 x 53 = 1431.
        assert_eq!(n_parallel_windows(&layer(112, 7, 3, 64), pw(10, 8)), 1431);
        // ResNet-18 conv4 with 4x3: 6 x 12 = 72.
        assert_eq!(n_parallel_windows(&layer(14, 3, 256, 256), pw(4, 3)), 72);
        // Kernel-sized window degenerates to the plain window count.
        assert_eq!(n_parallel_windows(&layer(14, 3, 1, 1), pw(3, 3)), 144);
    }

    #[test]
    fn tiled_channels_match_paper_values() {
        // Fig. 5(a): 512 rows, 4x3 window -> 42 channels; 4x4 -> 32.
        assert_eq!(tiled_ic(512, pw(4, 3)), 42);
        assert_eq!(tiled_ic(512, pw(4, 4)), 32);
        // 512 cols, 2 windows -> 256; 4 windows -> 128.
        assert_eq!(tiled_oc(512, 2), 256);
        assert_eq!(tiled_oc(512, 4), 128);
        assert_eq!(tiled_oc(512, 0), 0);
    }

    #[test]
    fn ar_ac_handle_infeasible_tiles() {
        assert_eq!(ar_cycles(64, 32), Some(2));
        assert_eq!(ar_cycles(64, 0), None);
        assert_eq!(ac_cycles(96, 64), Some(2));
        assert_eq!(ac_cycles(96, 0), None);
        assert_eq!(ar_cycles(42, 42), Some(1));
        assert_eq!(ar_cycles(43, 42), Some(2));
    }

    #[test]
    fn fig5a_worked_example() {
        // 512x256 array, 4x4 input, 3x3 kernel, IC=42, OC=96.
        let l = layer(4, 3, 42, 96);
        let a = arr(512, 256);
        assert_eq!(im2col_cost(&l, a).cycles, 4);
        let c43 = vw_cost(&l, a, pw(4, 3)).unwrap();
        assert_eq!(c43.cycles, 2);
        assert_eq!((c43.ar_cycles, c43.ac_cycles), (1, 1));
        let c44 = vw_cost(&l, a, pw(4, 4)).unwrap();
        assert_eq!(c44.cycles, 4);
        assert_eq!((c44.ar_cycles, c44.ac_cycles), (2, 2));
        assert_eq!(c44.n_parallel_windows, 1);
    }

    #[test]
    fn vw_cost_rejects_invalid_windows() {
        let l = layer(14, 3, 256, 256);
        let a = arr(512, 512);
        assert!(vw_cost(&l, a, pw(2, 3)).is_none()); // smaller than kernel
        assert!(vw_cost(&l, a, pw(15, 3)).is_none()); // larger than input
                                                      // Window area exceeding the rows is infeasible (ICt = 0).
        let tiny = arr(8, 512);
        assert!(vw_cost(&l, tiny, pw(3, 3)).is_none());
    }

    #[test]
    fn vw_cost_matches_table1_vgg13_layer5() {
        // 56x56, 3x3x128x256 with 4x3 window on 512x512: 1458 * 4 = 5832.
        let c = vw_cost(&layer(56, 3, 128, 256), arr(512, 512), pw(4, 3)).unwrap();
        assert_eq!(c.tiled_ic, 42);
        assert_eq!(c.tiled_oc, 256);
        assert_eq!(c.ar_cycles, 4);
        assert_eq!(c.ac_cycles, 1);
        assert_eq!(c.n_parallel_windows, 1458);
        assert_eq!(c.cycles, 5832);
    }

    #[test]
    fn im2col_matches_table1_anchors() {
        let a = arr(512, 512);
        // VGG-13 layer 2: 222^2 windows, AR=2 -> 98568.
        assert_eq!(im2col_cost(&layer(224, 3, 64, 64), a).cycles, 98_568);
        // ResNet-18 conv5: 25 windows, AR=9 -> 225.
        assert_eq!(im2col_cost(&layer(7, 3, 512, 512), a).cycles, 225);
        // VGG-13 layer 8: 676 * 9 = 6084.
        assert_eq!(im2col_cost(&layer(28, 3, 512, 512), a).cycles, 6_084);
    }

    #[test]
    fn sdk_rule_reproduces_table1_windows() {
        let a = arr(512, 512);
        // VGG-13 layer 1: 4x4 (d=2), not larger (d=3 would raise AC).
        let c1 = sdk_cost(&layer(224, 3, 3, 64), a);
        assert_eq!(c1.window, pw(4, 4));
        assert_eq!(c1.cycles, 12_321);
        // VGG-13 layer 2: 4x4 with AR=2 -> 24642.
        let c2 = sdk_cost(&layer(224, 3, 64, 64), a);
        assert_eq!(c2.window, pw(4, 4));
        assert_eq!(c2.cycles, 24_642);
        // VGG-13 layer 4: degenerates to im2col (3x3).
        let c4 = sdk_cost(&layer(112, 3, 128, 128), a);
        assert_eq!(c4.duplication, 1);
        assert_eq!(c4.cycles, im2col_cost(&layer(112, 3, 128, 128), a).cycles);
        // ResNet-18 stem: 8x8.
        let cr = sdk_cost(&layer(112, 7, 3, 64), a);
        assert_eq!(cr.window, pw(8, 8));
        assert_eq!(cr.cycles, 2_809);
    }

    #[test]
    fn sdk_min_cycles_can_beat_the_published_rule() {
        // For VGG-13 layer 1 the unconstrained square search finds 6x6
        // with 6272 cycles — cheaper than the published rule's 4x4
        // (12321). This gap is why we keep both variants.
        let a = arr(512, 512);
        let opt = sdk_min_cycles(&layer(224, 3, 3, 64), a);
        assert_eq!(opt.window, pw(6, 6));
        assert_eq!(opt.cycles, 6_272);
        assert!(opt.cycles < sdk_cost(&layer(224, 3, 3, 64), a).cycles);
    }

    #[test]
    fn smd_duplicates_within_row_and_column_budget() {
        // 512x512 array, 3x3x3x64 layer: kernel rows 27 -> 18 row copies;
        // 512/64 = 8 column copies -> d = 8.
        let c = smd_cost(&layer(224, 3, 3, 64), arr(512, 512));
        assert_eq!(c.duplication, 8);
        assert_eq!(c.cycles, (222u64 * 222).div_ceil(8));
        // Huge layer degenerates to im2col.
        let big = layer(14, 3, 512, 512);
        let cb = smd_cost(&big, arr(512, 512));
        assert_eq!(cb.duplication, 1);
        assert_eq!(cb.cycles, im2col_cost(&big, arr(512, 512)).cycles);
    }

    #[test]
    fn smd_never_duplicates_beyond_window_count() {
        // 4x4 input, 3x3 kernel -> 4 windows; even though 512 rows could
        // hold many copies, duplicating past 4 is useless.
        let l = layer(4, 3, 1, 1);
        let c = smd_cost(&l, arr(512, 512));
        assert_eq!(c.duplication, 4);
        assert_eq!(c.cycles, 1);
    }

    #[test]
    fn strided_layer_costs_use_output_windows() {
        // 8x8 input, 3x3 kernel, stride 2, no padding -> 3x3 outputs.
        let l = ConvLayer::builder("s")
            .input(8, 8)
            .kernel(3, 3)
            .channels(4, 4)
            .stride(2)
            .build()
            .unwrap();
        let a = arr(512, 512);
        assert_eq!(im2col_cost(&l, a).cycles, 9);
        // A 5x5 window holds 2x2 stride-2 kernel positions.
        let c = vw_cost(&l, a, pw(5, 5)).unwrap();
        assert_eq!(c.windows_in_pw, 4);
        assert_eq!(c.n_parallel_windows, 4); // ceil(3/2)^2
        assert_eq!(c.cycles, 4);
    }

    #[test]
    fn grouped_layer_multiplies_cycles_by_groups() {
        let dw = ConvLayer::builder("dw")
            .input(14, 14)
            .kernel(3, 3)
            .channels(8, 8)
            .groups(8)
            .build()
            .unwrap();
        let a = arr(512, 512);
        // Each group is a 1->1 channel conv: kernel rows 9, AR=AC=1.
        assert_eq!(im2col_cost(&dw, a).cycles, 144 * 8);
        let c = vw_cost(&dw, a, pw(14, 14)).unwrap();
        // Whole input in one window: NWP=144, OCt=floor(512/144)=3 >= 1.
        assert_eq!(c.n_parallel_windows, 1);
        assert_eq!(c.cycles, 8);
    }

    #[test]
    fn padded_layer_allows_windows_beyond_raw_input() {
        let l = ConvLayer::builder("p")
            .input(4, 4)
            .kernel(3, 3)
            .channels(2, 2)
            .padding(1)
            .build()
            .unwrap();
        let a = arr(512, 512);
        // Padded extent is 6; a 6x6 window is legal and covers everything.
        let c = vw_cost(&l, a, pw(6, 6)).unwrap();
        assert_eq!(c.windows_in_pw, 16);
        assert_eq!(c.n_parallel_windows, 1);
        // And a 7x7 window is rejected.
        assert!(vw_cost(&l, a, pw(7, 7)).is_none());
    }
}
