//! Rendering of planner output in the paper's presentation style.

use crate::planner::NetworkReport;
use pim_mapping::MappingAlgorithm;
use pim_report::fmt_speedup;
use pim_report::table::{Align, TextTable};

/// Renders a [`NetworkReport`] in the style of the paper's Table I:
/// one row per layer with each algorithm's `PW×PW×ICt×OCt` descriptor,
/// followed by total-cycle rows.
pub fn render_table1(report: &NetworkReport) -> String {
    let mut header = vec!["#".to_string(), "Image".to_string(), "Kernel".to_string()];
    for alg in report.algorithms() {
        header.push(alg.label().to_string());
        header.push("cycles".to_string());
    }
    let mut table = TextTable::new(&header);
    for (i, name) in header.iter().enumerate().skip(3) {
        if name == "cycles" {
            table.align(i, Align::Right);
        }
    }
    for (idx, cmp) in report.layers().iter().enumerate() {
        let layer = cmp.layer();
        let mut row = vec![
            format!("{}", idx + 1),
            format!("{}x{}", layer.input_w(), layer.input_h()),
            format!(
                "{}x{}x{}x{}",
                layer.kernel_w(),
                layer.kernel_h(),
                layer.in_channels(),
                layer.out_channels()
            ),
        ];
        for alg in report.algorithms() {
            let plan = cmp
                .plan_for(*alg)
                .expect("report contains every configured algorithm");
            row.push(plan.descriptor());
            row.push(plan.cycles().to_string());
        }
        table.add_row(&row);
    }
    let mut out = format!(
        "{} on a {} PIM array\n\n{}",
        report.network_name(),
        report.array(),
        table.render()
    );
    out.push('\n');
    for alg in report.algorithms() {
        if let Some(total) = report.total_cycles(*alg) {
            out.push_str(&format!("Total cycles ({}): {}\n", alg.label(), total));
        }
    }
    out
}

/// Renders network-wide speedups of every configured algorithm relative
/// to `baseline` (the paper normalizes to im2col).
pub fn render_speedups(report: &NetworkReport, baseline: MappingAlgorithm) -> String {
    let mut table = TextTable::new(&["algorithm", "total cycles", "speedup"]);
    table.align(1, Align::Right);
    table.align(2, Align::Right);
    for alg in report.algorithms() {
        let total = report
            .total_cycles(*alg)
            .expect("report contains every configured algorithm");
        let speedup = report
            .speedup(*alg, baseline)
            .expect("baseline is configured");
        table.add_row(&[
            alg.label().to_string(),
            total.to_string(),
            fmt_speedup(speedup),
        ]);
    }
    format!(
        "{} on {} (baseline: {})\n\n{}",
        report.network_name(),
        report.array(),
        baseline.label(),
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Planner;
    use pim_arch::PimArray;
    use pim_nets::zoo;

    fn report() -> NetworkReport {
        Planner::new(PimArray::new(512, 512).unwrap())
            .plan_network(&zoo::resnet18_table1())
            .unwrap()
    }

    #[test]
    fn table1_contains_paper_descriptors() {
        let text = render_table1(&report());
        // SDK stem window and VW-SDK stem window from Table I.
        assert!(text.contains("8x8x3x64"), "missing SDK descriptor:\n{text}");
        assert!(text.contains("10x8x3x64"), "missing VW descriptor:\n{text}");
        assert!(text.contains("Total cycles (VW-SDK): 4294"));
        assert!(text.contains("Total cycles (SDK): 7240"));
    }

    #[test]
    fn speedup_rendering_matches_paper_numbers() {
        let text = render_speedups(&report(), MappingAlgorithm::Im2col);
        assert!(text.contains("4.67x"), "{text}");
        assert!(text.contains("1.00x"), "{text}");
    }
}
