//! Extension A5: energy and conversion accounting.
//!
//! The paper argues fewer computing cycles mean proportionally less
//! energy because ADC/DAC conversions dominate (ref. \[3\], >98 %). That
//! argument implicitly assumes **whole-array activation**: every cycle
//! converts all columns regardless of how many hold useful weights. We
//! model both accounting disciplines:
//!
//! * [`Activity::WholeArray`] — the paper's premise: energy ∝ cycles,
//!   so VW-SDK's 4.67× cycle speedup is a 4.67× energy saving;
//! * [`Activity::ActiveOnly`] — an idealized design that gates unused
//!   rows/columns: here VW-SDK's advantage nearly disappears (~1.02× on
//!   ResNet-18) because it converts *more columns per cycle* — the
//!   useful-output count is mapping-invariant. The cycle win is then a
//!   latency win, not an energy win.
//!
//! This divergence is a genuine observation of the reproduction and is
//! discussed in docs/EXPERIMENTS.md (A5).

use crate::array512;
use pim_arch::energy::{EnergyBreakdown, EnergyModel};
use pim_mapping::layout::TileLayout;
use pim_mapping::{MappingAlgorithm, MappingPlan};
use pim_nets::{zoo, Network};
use pim_report::fmt_f64;
use pim_report::table::{Align, TextTable};

/// Which rows/columns pay conversion energy each cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activity {
    /// All array rows and columns convert every cycle (the paper's
    /// implicit premise).
    WholeArray,
    /// Only rows/columns carrying mapped weights convert (idealized
    /// peripheral gating).
    ActiveOnly,
}

/// Exact energy of executing a plan once, from its tile layouts.
///
/// Returns the breakdown plus total ADC and DAC conversion counts.
///
/// # Panics
///
/// Panics for grouped layers (no cell-level layout).
fn plan_energy(
    plan: &MappingPlan,
    model: &EnergyModel,
    activity: Activity,
) -> (EnergyBreakdown, u64, u64) {
    let mut breakdown = EnergyBreakdown::new();
    let mut adc = 0u64;
    let mut dac = 0u64;
    let array = plan.array();
    for t in 0..plan.ar_cycles() {
        for u in 0..plan.ac_cycles() {
            let layout = TileLayout::build(plan, t, u).expect("dense layers lay out");
            let (rows, cols) = match activity {
                Activity::WholeArray => (array.rows(), array.cols()),
                Activity::ActiveOnly => (layout.rows_used(), layout.cols_used()),
            };
            let cycles = plan.n_parallel_windows();
            for _ in 0..cycles {
                breakdown.add_cycle(model, rows, cols, layout.used_cells());
            }
            adc += cycles * cols as u64;
            dac += cycles * rows as u64;
        }
    }
    (breakdown, adc, dac)
}

/// Network-level energy totals per algorithm: `(algorithm, total energy
/// in microjoules, ADC conversions, conversion fraction)`.
fn network_energy(network: &Network, activity: Activity) -> Vec<(MappingAlgorithm, f64, u64, f64)> {
    let model = EnergyModel::isaac_like();
    MappingAlgorithm::paper_trio()
        .into_iter()
        .map(|alg| {
            let mut total = EnergyBreakdown::new();
            let mut adc = 0u64;
            for layer in network {
                let plan = alg.plan(layer, array512()).expect("planning is total");
                let (b, a, _) = plan_energy(&plan, &model, activity);
                total.adc_pj += b.adc_pj;
                total.dac_pj += b.dac_pj;
                total.cell_pj += b.cell_pj;
                total.digital_pj += b.digital_pj;
                adc += a;
            }
            (
                alg,
                total.total_pj() / 1e6,
                adc,
                total.conversion_fraction(),
            )
        })
        .collect()
}

/// The full printable energy report.
pub fn report() -> String {
    let mut out = String::from("== A5: energy accounting (512x512, ISAAC-like constants) ==\n\n");
    for (activity, label) in [
        (
            Activity::WholeArray,
            "whole-array conversion (paper premise)",
        ),
        (
            Activity::ActiveOnly,
            "active-only conversion (gated periphery)",
        ),
    ] {
        out.push_str(&format!("-- {label} --\n\n"));
        for network in [zoo::vgg13(), zoo::resnet18_table1()] {
            let rows = network_energy(&network, activity);
            let base = rows[0].1;
            let mut table = TextTable::new(&[
                "algorithm",
                "energy (uJ)",
                "ADC conversions",
                "conversion share",
                "energy saving",
            ]);
            for c in 1..5 {
                table.align(c, Align::Right);
            }
            for (alg, uj, adc, frac) in &rows {
                table.add_row(&[
                    alg.label().to_string(),
                    fmt_f64(*uj, 1),
                    adc.to_string(),
                    format!("{}%", fmt_f64(frac * 100.0, 1)),
                    format!("{}x", fmt_f64(base / uj, 2)),
                ]);
            }
            out.push_str(&format!("{}\n{}\n", network.name(), table.render()));
        }
    }
    out.push_str(
        "Reading: under the paper's whole-array premise the energy saving\n\
         equals the cycle speedup (4.67x / 3.16x). With per-column gating\n\
         the saving nearly vanishes, because VW-SDK converts more columns\n\
         per cycle — its win is then latency, not energy. Constants are\n\
         synthetic (see DESIGN.md substitutions); only ratios matter.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_dominate_for_every_algorithm() {
        for activity in [Activity::WholeArray, Activity::ActiveOnly] {
            for (_, _, _, frac) in network_energy(&zoo::resnet18_table1(), activity) {
                assert!(frac > 0.9, "conversion share {frac}");
            }
        }
    }

    #[test]
    fn whole_array_energy_saving_equals_cycle_speedup() {
        let rows = network_energy(&zoo::resnet18_table1(), Activity::WholeArray);
        let im2col = rows[0].1;
        let vw = rows[2].1;
        assert!(rows[0].0 == MappingAlgorithm::Im2col && rows[2].0 == MappingAlgorithm::VwSdk);
        // Conversion terms scale exactly with cycles; the ~1% cell-read
        // term varies with per-tile occupancy, so the match is near-exact
        // rather than exact.
        let saving = im2col / vw;
        let cycle_speedup = 20_041.0 / 4_294.0;
        assert!(
            (saving - cycle_speedup).abs() / cycle_speedup < 0.01,
            "saving {saving}"
        );
    }

    #[test]
    fn active_only_saving_is_modest() {
        // The reproduction's observation: with gated peripheries the
        // conversion count is nearly mapping-invariant.
        let rows = network_energy(&zoo::resnet18_table1(), Activity::ActiveOnly);
        let saving = rows[0].1 / rows[2].1;
        assert!(saving > 0.9 && saving < 1.5, "saving {saving}");
    }

    #[test]
    fn plan_energy_scales_with_cycles_under_whole_array() {
        let model = EnergyModel::isaac_like();
        let layer = pim_nets::ConvLayer::square("c", 14, 3, 64, 64).unwrap();
        let im2col = MappingAlgorithm::Im2col.plan(&layer, array512()).unwrap();
        let vw = MappingAlgorithm::VwSdk.plan(&layer, array512()).unwrap();
        let (e_im2col, _, _) = plan_energy(&im2col, &model, Activity::WholeArray);
        let (e_vw, _, _) = plan_energy(&vw, &model, Activity::WholeArray);
        let ratio = e_im2col.total_pj() / e_vw.total_pj();
        let cycle_ratio = im2col.cycles() as f64 / vw.cycles() as f64;
        // Near-exact: only the ~1% cell-read term deviates.
        assert!((ratio - cycle_ratio).abs() / cycle_ratio < 0.02);
    }

    #[test]
    fn report_prints_both_disciplines() {
        let text = report();
        assert!(text.contains("whole-array"));
        assert!(text.contains("active-only"));
        assert!(text.contains("VGG-13"));
    }
}
