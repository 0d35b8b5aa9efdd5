//! Fig. 4: input/output channels computable in one cycle, per mapping and
//! array size, against the actual channel counts of VGG-13 layers.

use pim_arch::presets;
use pim_cost::capacity;
use pim_nets::zoo;
use pim_report::table::{Align, TextTable};

/// One series point of Fig. 4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapacityPoint {
    /// Array label, e.g. `512x512`.
    pub array: String,
    /// Mapping label (`im2col` or `SDK 4x4`).
    pub mapping: &'static str,
    /// Input channels computable in one cycle.
    pub max_ic: usize,
    /// Output channels computable in one cycle.
    pub max_oc: usize,
}

/// Computes every capacity point of the figure (3×3 kernels, SDK at
/// `d = 2`, i.e. 4×4 parallel windows — the paper's configuration).
fn points() -> Vec<CapacityPoint> {
    let mut out = Vec::new();
    for preset in presets::fig4_sizes() {
        let im2col = capacity::im2col_capacity(preset.array, 3);
        out.push(CapacityPoint {
            array: preset.array.to_string(),
            mapping: "im2col",
            max_ic: im2col.max_ic,
            max_oc: im2col.max_oc,
        });
        let sdk = capacity::sdk_capacity(preset.array, 3, 2);
        out.push(CapacityPoint {
            array: preset.array.to_string(),
            mapping: "SDK 4x4",
            max_ic: sdk.max_ic,
            max_oc: sdk.max_oc,
        });
    }
    out
}

/// The full printable Fig. 4 reproduction.
pub fn report() -> String {
    let mut out = String::from("== Fig. 4: computable channel size per cycle (3x3 kernels) ==\n\n");
    let mut table = TextTable::new(&["array", "mapping", "max IC/cycle", "max OC/cycle"]);
    table.align(2, Align::Right);
    table.align(3, Align::Right);
    for p in points() {
        table.add_row(&[
            p.array.clone(),
            p.mapping.to_string(),
            p.max_ic.to_string(),
            p.max_oc.to_string(),
        ]);
    }
    out.push_str(&table.render());

    out.push_str("\nActual VGG-13 channel demands (the figure's triangles):\n");
    let mut demand = TextTable::new(&["layer", "IC", "OC"]);
    demand.align(1, Align::Right);
    demand.align(2, Align::Right);
    for layer in zoo::vgg13().layers().iter().skip(1).take(7) {
        demand.add_row(&[
            layer.name().to_string(),
            layer.in_channels().to_string(),
            layer.out_channels().to_string(),
        ]);
    }
    out.push_str(&demand.render());
    out.push_str(
        "\nReading: every conv layer from conv3 onward needs more input\n\
         channels than any published array can hold in one cycle under\n\
         either mapping — channel tiling (VW-SDK) is unavoidable.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_match_paper_axis_anchors() {
        let pts = points();
        let find = |array: &str, mapping: &str| {
            pts.iter()
                .find(|p| p.array == array && p.mapping == mapping)
                .unwrap()
        };
        // The paper's x-axis anchors: 8, 14, 16, 28, 32, 56.
        assert_eq!(find("128x128", "SDK 4x4").max_ic, 8);
        assert_eq!(find("128x128", "im2col").max_ic, 14);
        assert_eq!(find("256x256", "SDK 4x4").max_ic, 16);
        assert_eq!(find("256x256", "im2col").max_ic, 28);
        assert_eq!(find("512x512", "SDK 4x4").max_ic, 32);
        assert_eq!(find("512x512", "im2col").max_ic, 56);
        // OC anchors for SDK: 32/64/128/64.
        assert_eq!(find("128x128", "SDK 4x4").max_oc, 32);
        assert_eq!(find("512x512", "SDK 4x4").max_oc, 128);
        assert_eq!(find("512x256", "SDK 4x4").max_oc, 64);
    }

    #[test]
    fn report_contains_all_arrays() {
        let text = report();
        for array in ["128x128", "256x256", "512x512", "512x256"] {
            assert!(text.contains(array));
        }
    }
}
