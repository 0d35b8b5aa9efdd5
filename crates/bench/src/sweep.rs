//! Extension A4: the full zoo × array-size sweep, run through the
//! parallel, memoized [`PlanningEngine`].

use pim_arch::presets;
use pim_mapping::MappingAlgorithm;
use pim_nets::zoo;
use pim_report::fmt_speedup;
use pim_report::table::{Align, TextTable};
use vw_sdk::PlanningEngine;

/// One sweep cell: network × array → total cycles per algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Network name.
    pub network: String,
    /// Array label.
    pub array: String,
    /// Total cycles under im2col.
    pub im2col: u64,
    /// Total cycles under SDK.
    pub sdk: u64,
    /// Total cycles under VW-SDK.
    pub vw: u64,
}

/// Runs the sweep over every zoo network and every Fig. 8(b) array size
/// on a fresh engine with one worker per core.
pub fn run() -> Vec<SweepCell> {
    run_with(&PlanningEngine::new().with_jobs(0))
}

/// Runs the sweep through an existing engine (sharing its search memo —
/// repeated shapes across networks and re-runs search once).
fn run_with(engine: &PlanningEngine) -> Vec<SweepCell> {
    let networks = zoo::all();
    let arrays: Vec<_> = presets::fig8b_sweep()
        .iter()
        .map(|preset| preset.array)
        .collect();
    let reports = engine
        .sweep_arrays(&networks, &arrays)
        .expect("planning is total");
    let mut cells: Vec<SweepCell> = reports
        .iter()
        .map(|report| SweepCell {
            network: report.network_name().to_string(),
            array: report.array().to_string(),
            im2col: report
                .total_cycles(MappingAlgorithm::Im2col)
                .expect("configured"),
            sdk: report
                .total_cycles(MappingAlgorithm::Sdk)
                .expect("configured"),
            vw: report
                .total_cycles(MappingAlgorithm::VwSdk)
                .expect("configured"),
        })
        .collect();
    cells.sort_by(|a, b| (&a.network, &a.array).cmp(&(&b.network, &b.array)));
    cells
}

/// The full printable sweep report.
pub fn report() -> String {
    let engine = PlanningEngine::new().with_jobs(0);
    let mut out = String::from("== A4: zoo-wide sweep (total cycles and VW-SDK speedup) ==\n\n");
    let mut table = TextTable::new(&[
        "network",
        "array",
        "im2col",
        "SDK",
        "VW-SDK",
        "VW vs im2col",
        "VW vs SDK",
    ]);
    for c in 2..7 {
        table.align(c, Align::Right);
    }
    for cell in run_with(&engine) {
        table.add_row(&[
            cell.network.clone(),
            cell.array.clone(),
            cell.im2col.to_string(),
            cell.sdk.to_string(),
            cell.vw.to_string(),
            fmt_speedup(cell.im2col as f64 / cell.vw as f64),
            fmt_speedup(cell.sdk as f64 / cell.vw as f64),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!("\nplanning cache: {}\n", engine.stats()));
    out.push_str(
        "\nNetworks beyond the paper's pair (VGG-16, AlexNet, LeNet-5,\n\
         MobileNet-like with depthwise groups, dilated-context with\n\
         atrous kernels, full ResNet-18 with strides) exercise the\n\
         generalized cost model.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_network_and_array() {
        let cells = run();
        assert_eq!(cells.len(), zoo::all().len() * 5);
    }

    #[test]
    fn paper_cells_match_table1() {
        let cells = run();
        let cell = cells
            .iter()
            .find(|c| c.network == "ResNet-18" && c.array == "512x512")
            .unwrap();
        assert_eq!(cell.im2col, 20_041);
        assert_eq!(cell.sdk, 7_240);
        assert_eq!(cell.vw, 4_294);
    }

    #[test]
    fn vw_never_loses_to_im2col_anywhere() {
        for cell in run() {
            assert!(
                cell.vw <= cell.im2col,
                "{} on {}: VW {} > im2col {}",
                cell.network,
                cell.array,
                cell.vw,
                cell.im2col
            );
        }
    }

    #[test]
    fn parallel_run_is_deterministic() {
        assert_eq!(run(), run());
    }

    #[test]
    fn warm_engine_rerun_is_pure_memo_and_identical() {
        let engine = PlanningEngine::new().with_jobs(0);
        let cold = run_with(&engine);
        let after_cold = engine.stats();
        let warm = run_with(&engine);
        assert_eq!(cold, warm);
        // The second sweep searched nothing new.
        let after_warm = engine.stats();
        assert_eq!(after_warm.search_misses, after_cold.search_misses);
        assert!(after_warm.search_hits - after_cold.search_hits >= after_cold.search_misses);
    }
}
