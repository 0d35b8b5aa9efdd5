//! Fig. 8: speedups normalized to im2col — (a) per layer on a 512×512
//! array; (b) whole networks across array sizes.

use crate::array512;
use pim_arch::presets;
use pim_mapping::MappingAlgorithm;
use pim_nets::{zoo, Network};
use pim_report::chart::GroupedBarChart;
use pim_report::fmt_f64;
use pim_report::table::{Align, TextTable};
use vw_sdk::Planner;

fn networks() -> [Network; 2] {
    [zoo::vgg13(), zoo::resnet18_table1()]
}

/// Per-layer speedups (SDK and VW-SDK over im2col) for one network on the
/// 512×512 array, plus the network total in the last element — the bars
/// of Fig. 8(a).
fn part_a_series(network: &Network) -> (Vec<f64>, Vec<f64>) {
    let report = Planner::new(array512())
        .plan_network(network)
        .expect("planning is total");
    let mut sdk = report
        .per_layer_speedups(MappingAlgorithm::Sdk, MappingAlgorithm::Im2col)
        .expect("both configured");
    let mut vw = report
        .per_layer_speedups(MappingAlgorithm::VwSdk, MappingAlgorithm::Im2col)
        .expect("both configured");
    sdk.push(
        report
            .speedup(MappingAlgorithm::Sdk, MappingAlgorithm::Im2col)
            .expect("configured"),
    );
    vw.push(
        report
            .speedup(MappingAlgorithm::VwSdk, MappingAlgorithm::Im2col)
            .expect("configured"),
    );
    (sdk, vw)
}

/// Whole-network speedups over im2col for every Fig. 8(b) array size:
/// `(array label, SDK speedup, VW speedup)` per entry.
fn part_b_series(network: &Network) -> Vec<(String, f64, f64)> {
    presets::fig8b_sweep()
        .into_iter()
        .map(|preset| {
            let report = Planner::new(preset.array)
                .plan_network(network)
                .expect("planning is total");
            (
                preset.array.to_string(),
                report
                    .speedup(MappingAlgorithm::Sdk, MappingAlgorithm::Im2col)
                    .expect("configured"),
                report
                    .speedup(MappingAlgorithm::VwSdk, MappingAlgorithm::Im2col)
                    .expect("configured"),
            )
        })
        .collect()
}

/// The full printable Fig. 8 reproduction.
pub fn report() -> String {
    let mut out = String::from("== Fig. 8(a): per-layer speedup vs im2col (512x512) ==\n\n");
    for network in networks() {
        let (sdk, vw) = part_a_series(&network);
        let mut table = TextTable::new(&["layer", "SDK", "VW-SDK (Ours)"]);
        table.align(1, Align::Right);
        table.align(2, Align::Right);
        let n_layers = network.len();
        for i in 0..=n_layers {
            let label = if i == n_layers {
                "total".to_string()
            } else {
                (i + 1).to_string()
            };
            table.add_row(&[label, fmt_f64(sdk[i], 2), fmt_f64(vw[i], 2)]);
        }
        out.push_str(&format!("{}\n{}\n", network.name(), table.render()));
    }

    out.push_str("== Fig. 8(b): total speedup vs im2col across array sizes ==\n\n");
    for network in networks() {
        let mut chart = GroupedBarChart::new(
            format!("{} (bars: total speedup)", network.name()),
            &["SDK", "VW-SDK"],
        );
        let mut table = TextTable::new(&["array", "SDK", "VW-SDK (Ours)"]);
        table.align(1, Align::Right);
        table.align(2, Align::Right);
        for (label, sdk, vw) in part_b_series(&network) {
            table.add_row(&[label.clone(), fmt_f64(sdk, 2), fmt_f64(vw, 2)]);
            chart.add_group(label, &[sdk, vw]);
        }
        out.push_str(&format!(
            "{}\n{}\n{}\n",
            network.name(),
            table.render(),
            chart.render(40)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet_totals_match_paper_headlines() {
        let (sdk, vw) = part_a_series(&zoo::resnet18_table1());
        assert!((vw.last().unwrap() - 4.67).abs() < 0.01);
        assert!((sdk.last().unwrap() - 20_041.0 / 7_240.0).abs() < 1e-9);
    }

    #[test]
    fn vgg_layer1_speedup_is_about_7_9() {
        let (_, vw) = part_a_series(&zoo::vgg13());
        assert!((vw[0] - 49_284.0 / 6_216.0).abs() < 1e-9);
        // Deep layers gain nothing.
        assert_eq!(vw[8], 1.0);
    }

    #[test]
    fn sdk_never_below_one_and_vw_never_below_sdk_here() {
        for network in networks() {
            let (sdk, vw) = part_a_series(&network);
            for (s, v) in sdk.iter().zip(&vw) {
                assert!(*s >= 1.0);
                assert!(v >= s);
            }
        }
    }

    #[test]
    fn speedup_grows_with_array_size() {
        // Fig. 8(b): both algorithms benefit from larger arrays.
        for network in networks() {
            let series = part_b_series(&network);
            let first_vw = series.first().unwrap().2;
            let last_vw = series.last().unwrap().2;
            assert!(
                last_vw > first_vw,
                "{}: VW speedup should grow ({first_vw} -> {last_vw})",
                network.name()
            );
        }
    }

    #[test]
    fn vw_dominates_sdk_on_every_array() {
        for network in networks() {
            for (label, sdk, vw) in part_b_series(&network) {
                assert!(
                    vw >= sdk,
                    "{}: VW {vw} < SDK {sdk} on {label}",
                    network.name()
                );
            }
        }
    }
}
