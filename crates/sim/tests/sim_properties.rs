//! Property-based end-to-end tests: for arbitrary small layers and array
//! geometries, every mapping algorithm's simulated execution equals the
//! reference convolution exactly, in exactly the predicted cycle count.
//!
//! This is the reproduction's strongest evidence that the paper's cycle
//! formulas describe *physically realizable* mappings rather than just
//! counting arguments.
//!
//! A second property holds the layout walk that programs every crossbar
//! to an oracle: each tile read back from its crossbar must be the matrix
//! its rows' inputs and its columns' outputs define.

use pim_arch::PimArray;
use pim_mapping::layout::{SmdLayout, TileLayout};
use pim_mapping::{MappingAlgorithm, MappingPlan};
use pim_nets::ConvLayer;
use pim_sim::verify::verify_plan;
use pim_sim::Crossbar;
use pim_tensor::Tensor4;
use proptest::prelude::*;
use std::ops::Range;

#[derive(Debug, Clone)]
struct Case {
    layer: ConvLayer,
    array: PimArray,
    seed: u64,
}

/// Layers with a kernel, stride and padding drawn from the given ranges,
/// on arrays with rows and columns drawn from theirs.
fn case_strategy(
    kernel: Range<usize>,
    stride: Range<usize>,
    padding: Range<usize>,
    rows: Range<usize>,
    cols: Range<usize>,
) -> impl Strategy<Value = Case> {
    (
        kernel,
        1usize..10, // input extra
        1usize..6,  // ic
        1usize..7,  // oc
        padding,
        stride,
        1usize..3, // dilation
        rows,
        cols,
        any::<u64>(),
    )
        .prop_map(
            |(k, extra, ic, oc, pad, stride, dilation, rows, cols, seed)| {
                // Input must contain the dilated kernel.
                let eff = (k - 1) * dilation + 1;
                let input = eff + extra;
                let layer = ConvLayer::builder("prop")
                    .input(input, input)
                    .kernel(k, k)
                    .channels(ic, oc)
                    .padding(pad)
                    .stride(stride)
                    .dilation(dilation)
                    .build()
                    .expect("valid by construction");
                Case {
                    layer,
                    array: PimArray::new(rows, cols).expect("positive"),
                    seed,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_algorithm_simulates_exactly(case in case_strategy(1..4, 1..3, 0..2, 12..80, 8..80)) {
        for alg in MappingAlgorithm::all() {
            let plan = alg.plan(&case.layer, case.array).expect("planning is total");
            let report = verify_plan(&plan, case.seed).expect("simulation runs");
            prop_assert!(report.matches(),
                "{alg} output mismatch on {} / {}: {} of {} elements",
                case.layer, case.array, report.mismatches, report.elements);
            prop_assert_eq!(report.executed_cycles(), report.predicted_cycles(),
                "{} cycle mismatch on {} / {}", alg, case.layer, case.array);
        }
    }

    #[test]
    fn utilization_is_valid_for_all_algorithms(case in case_strategy(1..4, 1..3, 0..2, 12..80, 8..80)) {
        for alg in MappingAlgorithm::all() {
            let plan = alg.plan(&case.layer, case.array).expect("planning is total");
            let stats = pim_mapping::utilization::utilization(&plan).expect("layouts build");
            prop_assert!(stats.mean_nonzero > 0.0);
            prop_assert!(stats.peak_rect <= 100.0 + 1e-9);
            prop_assert!(stats.mean_nonzero <= stats.mean_rect + 1e-9);
        }
    }

    #[test]
    fn every_programmed_tile_is_the_matrix_its_rows_and_columns_define(
        // Arrays this small split most layers into several AR and AC
        // tiles, and SDK's Dense column tiles often cut a channel's windows.
        case in case_strategy(1..8, 1..4, 0..3, 8..48, 4..24),
    ) {
        for alg in MappingAlgorithm::all() {
            let plan = alg.plan(&case.layer, case.array).expect("planning is total");
            check_tiles(&plan)?;
        }
    }
}

/// `layer`'s weight bank with every weight distinct and nonzero, so a
/// crossbar read back shows which weight each cell holds.
fn distinct_weights(layer: &ConvLayer) -> Tensor4<i64> {
    let (oc, ic, kh, kw) = (
        layer.out_channels(),
        layer.in_channels(),
        layer.kernel_h(),
        layer.kernel_w(),
    );
    Tensor4::from_vec(oc, ic, kh, kw, (1..=(oc * ic * kh * kw) as i64).collect()).unwrap()
}

/// Reads a programmed crossbar back as a dense `rows × cols` matrix: one
/// batched MVM whose element `r` drives a one into row `r` alone.
fn read_back(xbar: &Crossbar<i64>) -> Vec<i64> {
    let rows = xbar.rows();
    let mut units = vec![0; rows * rows];
    for r in 0..rows {
        units[r * rows + r] = 1;
    }
    let mut matrix = Vec::new();
    xbar.mvm_batch_into(&units, rows, &mut matrix).unwrap();
    matrix
}

/// Programs every tile of `plan` from its layout's walk, reads each back
/// and compares it with the matrix built from the layout's row sources
/// and column sinks alone (SMD: from its block-diagonal rule). Each
/// tile's programmed cells must also give `utilization`'s mean and peak.
fn check_tiles(plan: &MappingPlan) -> Result<(), TestCaseError> {
    let layer = plan.layer();
    let weights = distinct_weights(layer);
    let (kh, kw) = (layer.kernel_h(), layer.kernel_w());
    // Each programming: the crossbar its layout's walk programs, the
    // matrix the oracle expects and the layout's cell count.
    let mut tiles = Vec::new();
    if plan.is_block_diagonal() {
        let layout = SmdLayout::build(plan).expect("SMD lays out");
        let (rows, cols) = (layout.rows_used(), layout.cols_used());
        let xbar = Crossbar::program(rows, cols, layout.runs(), &weights).expect("programs");
        // Row copy·KR + (ic·KH + ky)·KW + kx, column copy·OC + oc.
        let (kernel_rows, oc) = (layout.kernel_rows(), layout.out_channels());
        let expected: Vec<i64> = (0..rows * cols)
            .map(|i| {
                let (r, c) = (i / cols, i % cols);
                let tap = r % kernel_rows;
                if r / kernel_rows == c / oc {
                    weights.get(c % oc, tap / (kh * kw), tap / kw % kh, tap % kw)
                } else {
                    0
                }
            })
            .collect();
        tiles.push((xbar, expected, layout.used_cells()));
    } else {
        let (stride, dilation) = (layer.stride(), layer.dilation());
        // The tap of a `kernel`-tap axis that reads patch offset `offset`
        // in window `window`, if any.
        let tap = |offset: usize, window: usize, kernel: usize| {
            let rel = offset.checked_sub(window * stride)?;
            (rel % dilation == 0 && rel / dilation < kernel).then_some(rel / dilation)
        };
        for t in 0..plan.ar_cycles() {
            for u in 0..plan.ac_cycles() {
                let layout = TileLayout::build(plan, t, u).expect("tile lays out");
                let (rows, cols) = (layout.rows_used(), layout.cols_used());
                let xbar =
                    Crossbar::program(rows, cols, layout.runs(), &weights).expect("programs");
                let weights = &weights;
                let expected: Vec<i64> = layout
                    .row_sources()
                    .iter()
                    .flat_map(|src| {
                        layout.col_sinks().iter().map(move |sink| {
                            match (tap(src.dy, sink.wy, kh), tap(src.dx, sink.wx, kw)) {
                                (Some(ky), Some(kx)) => weights.get(sink.oc, src.ic, ky, kx),
                                _ => 0,
                            }
                        })
                    })
                    .collect();
                tiles.push((xbar, expected, layout.used_cells()));
            }
        }
    }
    let mut counts = Vec::new();
    for (i, (xbar, expected, used_cells)) in tiles.iter().enumerate() {
        let matrix = read_back(xbar);
        let context = format!(
            "{} {} programming {i} on {}",
            plan.algorithm(),
            layer,
            plan.array()
        );
        prop_assert_eq!(&matrix, expected, "{}", context);
        let cells = matrix.iter().filter(|&&w| w != 0).count();
        prop_assert_eq!(cells, *used_cells, "{}", context);
        counts.push(cells);
    }
    let total = plan.array().cells() as f64;
    let stats = pim_mapping::utilization::utilization(plan).expect("layouts build");
    let mean = counts.iter().map(|&c| c as f64 / total).sum::<f64>() / counts.len() as f64;
    let peak = counts.iter().copied().max().unwrap_or(0) as f64 / total;
    prop_assert!((mean * 100.0 - stats.mean_nonzero).abs() < 1e-9);
    prop_assert!((peak * 100.0 - stats.peak_nonzero).abs() < 1e-9);
    Ok(())
}
