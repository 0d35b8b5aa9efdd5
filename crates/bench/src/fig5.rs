//! Fig. 5: (a) the worked example showing a rectangular window beating
//! both im2col and the square window; (b) speedup of fixed window shapes
//! across IFM sizes.
//!
//! Configuration (paper §III-B): 512×256 array, 3×3 kernel, IC = 42,
//! OC = 96.

use crate::array512x256;
use pim_cost::model;
use pim_cost::window::ParallelWindow;
use pim_nets::ConvLayer;
use pim_report::table::{Align, TextTable};
use pim_report::{chart::BarChart, fmt_f64};

/// IC/OC of the Fig. 5 example layer.
const IC: usize = 42;
/// Output channels of the Fig. 5 example layer.
const OC: usize = 96;

/// The IFM sizes of Fig. 5(b)'s x-axis (VGG feature-map sizes).
const IFM_SIZES: [usize; 12] = [7, 8, 14, 16, 28, 32, 56, 64, 112, 128, 224, 256];

fn example_layer(input: usize) -> ConvLayer {
    ConvLayer::square("fig5", input, 3, IC, OC).expect("valid example dimensions")
}

/// Fig. 5(a): cycle breakdown of im2col, the 4×3 window and the 4×4
/// window on a 4×4 input.
fn part_a() -> String {
    let layer = example_layer(4);
    let array = array512x256();
    let mut table = TextTable::new(&["mapping", "N PWs", "AR", "AC", "cycles"]);
    for c in 1..5 {
        table.align(c, Align::Right);
    }
    let im2col = model::im2col_cost(&layer, array);
    table.add_row(&[
        "im2col (3x3)".to_string(),
        im2col.n_windows.to_string(),
        im2col.ar_cycles.to_string(),
        im2col.ac_cycles.to_string(),
        im2col.cycles.to_string(),
    ]);
    for (w, h) in [(4, 3), (4, 4)] {
        let pw = ParallelWindow::new(w, h).expect("positive");
        let cost = model::vw_cost(&layer, array, pw).expect("feasible in the example");
        table.add_row(&[
            format!("VW {w}x{h}"),
            cost.n_parallel_windows.to_string(),
            cost.ar_cycles.to_string(),
            cost.ac_cycles.to_string(),
            cost.cycles.to_string(),
        ]);
    }
    format!(
        "== Fig. 5(a): worked example (512x256 array, 3x3 kernel, IC=42, OC=96, 4x4 IFM) ==\n\n{}",
        table.render()
    )
}

/// One row of Fig. 5(b): speedups of the three fixed windows at one IFM
/// size (relative to im2col at the same size).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepRow {
    /// IFM side length.
    pub ifm: usize,
    /// Speedup of the 4×4 square window.
    pub s4x4: f64,
    /// Speedup of the 6×3 rectangle.
    pub s6x3: f64,
    /// Speedup of the 4×3 rectangle.
    pub s4x3: f64,
}

/// Computes every row of Fig. 5(b).
fn part_b_rows() -> Vec<SweepRow> {
    let array = array512x256();
    IFM_SIZES
        .iter()
        .map(|&ifm| {
            let layer = example_layer(ifm);
            let base = model::im2col_cost(&layer, array).cycles as f64;
            let speed = |w: usize, h: usize| -> f64 {
                let pw = ParallelWindow::new(w, h).expect("positive");
                model::vw_cost(&layer, array, pw)
                    .map(|c| base / c.cycles as f64)
                    .unwrap_or(f64::NAN)
            };
            SweepRow {
                ifm,
                s4x4: speed(4, 4),
                s6x3: speed(6, 3),
                s4x3: speed(4, 3),
            }
        })
        .collect()
}

/// The full printable Fig. 5 reproduction (both panels).
pub fn report() -> String {
    let mut out = part_a();
    out.push_str("\n== Fig. 5(b): speedup vs im2col across IFM sizes ==\n\n");
    let mut table = TextTable::new(&["IFM", "4x4 square", "6x3 rect", "4x3 rect"]);
    for c in 0..4 {
        table.align(c, Align::Right);
    }
    for row in part_b_rows() {
        table.add_row(&[
            row.ifm.to_string(),
            fmt_f64(row.s4x4, 2),
            fmt_f64(row.s6x3, 2),
            fmt_f64(row.s4x3, 2),
        ]);
    }
    out.push_str(&table.render());

    let mut chart = BarChart::new("\n4x3 window speedup by IFM size (chart)");
    for row in part_b_rows() {
        chart.add(row.ifm.to_string(), row.s4x3);
    }
    out.push_str(&chart.render(40));
    out.push_str(
        "\nReading: the 4x3 rectangle sustains ~2x over im2col at every\n\
         IFM size, roughly double the 4x4 square window — the paper's\n\
         motivation for rectangular parallel windows.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn part_a_matches_paper_cycle_counts() {
        let text = part_a();
        // The paper's Fig. 5(a): 4 / 2 / 4 cycles.
        let lines: Vec<&str> = text.lines().collect();
        let row = |needle: &str| {
            lines
                .iter()
                .find(|l| l.contains(needle))
                .unwrap()
                .to_string()
        };
        assert!(row("im2col").trim_end().ends_with('4'));
        assert!(row("VW 4x3").trim_end().ends_with('2'));
        assert!(row("VW 4x4").trim_end().ends_with('4'));
    }

    #[test]
    fn rectangle_doubles_square_at_vgg_sizes() {
        // The paper highlights ~2x for 4x3 over 4x4.
        for row in part_b_rows() {
            if row.ifm >= 14 {
                let ratio = row.s4x3 / row.s4x4;
                assert!(
                    (1.8..=2.3).contains(&ratio),
                    "IFM {}: 4x3/4x4 ratio {ratio}",
                    row.ifm
                );
            }
        }
    }

    #[test]
    fn speedups_are_positive_and_bounded() {
        for row in part_b_rows() {
            for s in [row.s4x4, row.s6x3, row.s4x3] {
                assert!(s.is_finite() && s > 0.0 && s < 3.0, "IFM {}: {s}", row.ifm);
            }
        }
    }

    #[test]
    fn small_ifm_penalizes_large_windows() {
        let first = part_b_rows()[0]; // IFM 7
        assert!(first.s4x3 > 1.0);
        assert!(
            first.s4x4 < 1.0,
            "4x4 should lose at IFM 7, got {}",
            first.s4x4
        );
    }
}
