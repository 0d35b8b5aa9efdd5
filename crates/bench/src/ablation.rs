//! Ablations A1–A3: which of VW-SDK's two ideas (rectangular windows,
//! channel tiling) buys how much, and what the search pruning saves.

use crate::array512;
use pim_cost::search::SearchOptions;
use pim_mapping::MappingAlgorithm;
use pim_nets::{zoo, Network};
use pim_report::fmt_speedup;
use pim_report::table::{Align, TextTable};
use vw_sdk::PlanningEngine;

/// The algorithm set compared in the ablation table, in presentation
/// order.
fn ablation_algorithms() -> [MappingAlgorithm; 7] {
    [
        MappingAlgorithm::Im2col,
        MappingAlgorithm::Smd,
        MappingAlgorithm::Sdk,
        MappingAlgorithm::SdkOpt,
        MappingAlgorithm::VwSdkFullChannel,
        MappingAlgorithm::VwSdkSquare,
        MappingAlgorithm::VwSdk,
    ]
}

/// An engine configured for the ablation comparison, planning with one
/// worker per core.
fn ablation_engine() -> PlanningEngine {
    PlanningEngine::with_algorithms(&ablation_algorithms()).with_jobs(0)
}

/// Total cycles of every ablation algorithm on one network (512×512).
pub fn totals(network: &Network) -> Vec<(MappingAlgorithm, u64)> {
    totals_with(&ablation_engine(), network)
}

/// [`totals`] through an existing engine (sharing its search memo).
fn totals_with(engine: &PlanningEngine, network: &Network) -> Vec<(MappingAlgorithm, u64)> {
    let report = engine
        .plan_network(network, array512())
        .expect("planning is total");
    ablation_algorithms()
        .into_iter()
        .map(|alg| (alg, report.total_cycles(alg).expect("configured")))
        .collect()
}

/// Search-pruning statistics (A3): candidates evaluated with and without
/// pruning, summed over a network's layers. Uses the engine's search
/// cache, so repeated shapes are counted without re-searching.
fn pruning_stats_with(engine: &PlanningEngine, network: &Network) -> (usize, usize) {
    let mut full = 0;
    let mut pruned = 0;
    for layer in network {
        full += engine
            .search(layer, array512(), SearchOptions::paper())
            .evaluated();
        pruned += engine
            .search(layer, array512(), SearchOptions::pruned())
            .evaluated();
    }
    (full, pruned)
}

/// The full printable ablation report.
pub fn report() -> String {
    let engine = ablation_engine();
    let mut out = String::from("== Ablations A1-A3 (512x512 array) ==\n\n");
    for network in [zoo::vgg13(), zoo::resnet18_table1()] {
        let rows = totals_with(&engine, &network);
        let im2col = rows[0].1 as f64;
        let mut table = TextTable::new(&["algorithm", "total cycles", "speedup vs im2col"]);
        table.align(1, Align::Right);
        table.align(2, Align::Right);
        for (alg, cycles) in &rows {
            table.add_row(&[
                alg.label().to_string(),
                cycles.to_string(),
                fmt_speedup(im2col / *cycles as f64),
            ]);
        }
        out.push_str(&format!("{}\n{}\n", network.name(), table.render()));
    }
    out.push_str(
        "Reading: channel tiling alone (square windows) and rectangular\n\
         windows alone each recover part of the gap between SDK and\n\
         VW-SDK; the full algorithm needs both. SDK-opt shows the\n\
         published SDK rule also leaves square-window gains on the\n\
         table.\n\n",
    );

    out.push_str("== A3: search-space pruning (never changes the optimum) ==\n\n");
    let mut table = TextTable::new(&[
        "network",
        "candidates (full)",
        "candidates (pruned)",
        "saved",
    ]);
    for c in 1..4 {
        table.align(c, Align::Right);
    }
    for network in [zoo::vgg13(), zoo::resnet18_table1()] {
        let (full, pruned) = pruning_stats_with(&engine, &network);
        table.add_row(&[
            network.name().to_string(),
            full.to_string(),
            pruned.to_string(),
            format!("{:.1}%", 100.0 * (full - pruned) as f64 / full as f64),
        ]);
    }
    out.push_str(&table.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_order_correctly_on_resnet() {
        let rows = totals(&zoo::resnet18_table1());
        let cycles: std::collections::HashMap<_, _> = rows.into_iter().collect();
        let vw = cycles[&MappingAlgorithm::VwSdk];
        let square = cycles[&MappingAlgorithm::VwSdkSquare];
        let fullch = cycles[&MappingAlgorithm::VwSdkFullChannel];
        let im2col = cycles[&MappingAlgorithm::Im2col];
        assert!(vw <= square && square <= im2col);
        assert!(vw <= fullch && fullch <= im2col);
        assert_eq!(vw, 4_294);
        assert_eq!(im2col, 20_041);
        // Each restricted variant must genuinely lose something vs full
        // VW-SDK on ResNet-18.
        assert!(square > vw);
        assert!(fullch > vw);
    }

    #[test]
    fn pruning_saves_work_on_paper_networks() {
        for network in [zoo::vgg13(), zoo::resnet18_table1()] {
            let (full, pruned) = pruning_stats_with(&ablation_engine(), &network);
            assert!(pruned < full, "{}: {pruned} !< {full}", network.name());
        }
    }

    #[test]
    fn sdk_opt_beats_published_sdk_on_vgg() {
        let rows = totals(&zoo::vgg13());
        let cycles: std::collections::HashMap<_, _> = rows.into_iter().collect();
        assert!(cycles[&MappingAlgorithm::SdkOpt] < cycles[&MappingAlgorithm::Sdk]);
    }

    #[test]
    fn report_covers_both_networks() {
        let text = report();
        assert!(text.contains("VGG-13"));
        assert!(text.contains("ResNet-18"));
        assert!(text.contains("pruned"));
    }
}
