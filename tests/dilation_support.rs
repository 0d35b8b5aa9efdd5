//! Integration tests for the dilation extension: dilated (atrous)
//! convolutions plan, lay out and simulate correctly across the stack.

use vw_sdk_repro::pim_arch::PimArray;
use vw_sdk_repro::pim_cost::{model, window::ParallelWindow};
use vw_sdk_repro::pim_mapping::MappingAlgorithm;
use vw_sdk_repro::pim_nets::{zoo, ConvLayer};
use vw_sdk_repro::pim_sim::verify::verify_plan;

fn dilated(name: &str, input: usize, k: usize, ic: usize, oc: usize, d: usize) -> ConvLayer {
    ConvLayer::builder(name)
        .input(input, input)
        .kernel(k, k)
        .channels(ic, oc)
        .dilation(d)
        .build()
        .unwrap()
}

#[test]
fn effective_kernel_drives_window_validity() {
    let l = dilated("d2", 12, 3, 2, 2, 2); // effective kernel 5x5
    let a = PimArray::new(128, 128).unwrap();
    // A 4x4 window cannot contain the dilated kernel.
    assert!(model::vw_cost(&l, a, ParallelWindow::new(4, 4).unwrap()).is_none());
    // A 6x5 window holds 2x1 dilated kernel positions.
    let cost = model::vw_cost(&l, a, ParallelWindow::new(6, 5).unwrap()).unwrap();
    assert_eq!(cost.windows_in_pw, 2);
    // Output dims: 12 - 5 + 1 = 8 per axis.
    assert_eq!(l.output_dims(), (8, 8));
}

#[test]
fn dilated_layers_simulate_exactly_for_every_algorithm() {
    let l = dilated("d2", 11, 3, 3, 4, 2);
    let a = PimArray::new(64, 48).unwrap();
    for alg in MappingAlgorithm::all() {
        let plan = alg.plan(&l, a).unwrap();
        let report = verify_plan(&plan, 31).unwrap();
        assert!(report.is_fully_consistent(), "{alg}: {report:?}");
    }
}

#[test]
fn dilated_with_stride_and_padding_simulates_exactly() {
    let l = ConvLayer::builder("dsp")
        .input(13, 13)
        .kernel(3, 3)
        .channels(2, 3)
        .dilation(2)
        .stride(2)
        .padding(2)
        .build()
        .unwrap();
    let a = PimArray::new(72, 40).unwrap();
    for alg in [
        MappingAlgorithm::Im2col,
        MappingAlgorithm::VwSdk,
        MappingAlgorithm::Smd,
    ] {
        let plan = alg.plan(&l, a).unwrap();
        let report = verify_plan(&plan, 77).unwrap();
        assert!(report.is_fully_consistent(), "{alg}: {report:?}");
    }
}

#[test]
fn sdk_degenerates_to_im2col_on_dilated_layers() {
    let l = dilated("d4", 20, 3, 8, 8, 4);
    let a = PimArray::new(256, 256).unwrap();
    let sdk = MappingAlgorithm::Sdk.plan(&l, a).unwrap();
    let im2col = MappingAlgorithm::Im2col.plan(&l, a).unwrap();
    assert_eq!(sdk.cycles(), im2col.cycles());
    assert_eq!(sdk.duplication(), 1);
    assert_eq!(sdk.algorithm(), MappingAlgorithm::Sdk);
}

#[test]
fn vw_still_beats_im2col_on_dilated_context_net() {
    let a = PimArray::new(256, 256).unwrap();
    for layer in zoo::by_name("dilated").unwrap().iter() {
        let vw = MappingAlgorithm::VwSdk.plan(layer, a).unwrap();
        let im2col = MappingAlgorithm::Im2col.plan(layer, a).unwrap();
        assert!(
            vw.cycles() <= im2col.cycles(),
            "{layer}: VW {} > im2col {}",
            vw.cycles(),
            im2col.cycles()
        );
        let report = verify_plan(&vw, 5).unwrap();
        assert!(report.is_fully_consistent(), "{layer}: {report:?}");
    }
}

#[test]
fn dilation_expands_patch_rows_for_vw_windows() {
    // A dilated VW window needs a larger input patch (holes included), so
    // ICt shrinks relative to an undilated layer with the same kernel.
    let base = ConvLayer::square("b", 20, 3, 16, 16).unwrap();
    let dil = dilated("d", 20, 3, 16, 16, 2);
    let a = PimArray::new(128, 128).unwrap();
    let w_base = ParallelWindow::new(4, 3).unwrap(); // fits 3x3 kernel
    let w_dil = ParallelWindow::new(6, 5).unwrap(); // fits dilated 5x5
    let c_base = model::vw_cost(&base, a, w_base).unwrap();
    let c_dil = model::vw_cost(&dil, a, w_dil).unwrap();
    assert!(c_dil.tiled_ic < c_base.tiled_ic);
}
