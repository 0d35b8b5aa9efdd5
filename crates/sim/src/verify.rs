//! Verification of one mapping plan: its layer simulated as a one-stage
//! network.

use crate::network::{simulate_network_batch, SimulationReport};
use crate::Result;
use pim_mapping::MappingPlan;
use pim_nets::Network;
use pim_tensor::ExecMode;

/// Simulates `plan`'s layer alone — a one-stage network with no
/// inter-stage operators, in [`ExecMode::Exact`], on one generated input
/// and one worker — and compares the output with the reference
/// convolution (grouped layers with the grouped reference). The input
/// and weights are the ones [`simulate_network_batch`] generates for
/// element 0 and layer 0 under `seed`.
///
/// # Errors
///
/// Returns [`crate::SimError`] if the plan cannot be simulated.
pub fn verify_plan(plan: &MappingPlan, seed: u64) -> Result<SimulationReport> {
    let layer = plan.layer();
    let network = Network::from_layers(layer.name(), vec![layer.clone()]);
    simulate_network_batch(
        &network,
        std::slice::from_ref(plan),
        seed,
        ExecMode::Exact,
        1,
        1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_arch::PimArray;
    use pim_mapping::MappingAlgorithm;
    use pim_nets::ConvLayer;

    fn arr(r: usize, c: usize) -> PimArray {
        PimArray::new(r, c).unwrap()
    }

    fn check_layer(plan: &MappingPlan, seed: u64) {
        let report = verify_plan(plan, seed).unwrap();
        assert!(
            report.is_fully_consistent(),
            "{}: {report:?}",
            plan.algorithm()
        );
        assert_eq!(report.executed_cycles(), plan.cycles());
    }

    #[test]
    fn all_algorithms_verify_on_a_small_layer() {
        let l = ConvLayer::square("c", 9, 3, 3, 5).unwrap();
        let a = PimArray::new(64, 48).unwrap();
        for alg in MappingAlgorithm::all() {
            let plan = alg.plan(&l, a).unwrap();
            let report = verify_plan(&plan, 99).unwrap();
            assert!(report.is_fully_consistent(), "{alg}: {report:?}");
            assert_eq!(report.elements, 5 * 49);
        }
    }

    #[test]
    fn im2col_execution_matches_reference() {
        let l = ConvLayer::square("c", 8, 3, 3, 5).unwrap();
        let plan = MappingAlgorithm::Im2col.plan(&l, arr(32, 16)).unwrap();
        check_layer(&plan, 11);
    }

    #[test]
    fn im2col_with_row_tiling_matches_reference() {
        // Kernel rows 27 on a 16-row array: AR = 2, dense straddling.
        let l = ConvLayer::square("c", 6, 3, 3, 4).unwrap();
        let plan = MappingAlgorithm::Im2col.plan(&l, arr(16, 8)).unwrap();
        assert!(plan.ar_cycles() > 1);
        check_layer(&plan, 12);
    }

    #[test]
    fn vw_execution_matches_reference() {
        let l = ConvLayer::square("c", 10, 3, 4, 6).unwrap();
        let plan = MappingAlgorithm::VwSdk.plan(&l, arr(64, 48)).unwrap();
        assert!(plan.windows_in_pw() > 1, "expected a real parallel window");
        check_layer(&plan, 13);
    }

    #[test]
    fn vw_with_channel_tiling_matches_reference() {
        // Force AR > 1: 8 channels, ICt limited by a small array.
        let l = ConvLayer::square("c", 9, 3, 8, 6).unwrap();
        let plan = MappingAlgorithm::VwSdk.plan(&l, arr(48, 32)).unwrap();
        check_layer(&plan, 14);
    }

    #[test]
    fn sdk_execution_matches_reference() {
        let l = ConvLayer::square("c", 12, 3, 4, 8).unwrap();
        let plan = MappingAlgorithm::Sdk.plan(&l, arr(64, 64)).unwrap();
        check_layer(&plan, 15);
    }

    #[test]
    fn smd_execution_matches_reference() {
        let l = ConvLayer::square("c", 8, 3, 2, 3).unwrap();
        let plan = MappingAlgorithm::Smd.plan(&l, arr(64, 64)).unwrap();
        assert!(plan.duplication() > 1);
        check_layer(&plan, 16);
    }

    #[test]
    fn strided_padded_layer_matches_reference() {
        let l = ConvLayer::builder("sp")
            .input(9, 9)
            .kernel(3, 3)
            .channels(2, 4)
            .stride(2)
            .padding(1)
            .build()
            .unwrap();
        for alg in [MappingAlgorithm::Im2col, MappingAlgorithm::VwSdk] {
            let plan = alg.plan(&l, arr(48, 32)).unwrap();
            check_layer(&plan, 17);
        }
    }

    #[test]
    fn grouped_layers_verify_bit_exactly() {
        let dw = ConvLayer::builder("dw")
            .input(8, 8)
            .kernel(3, 3)
            .channels(4, 4)
            .groups(4)
            .build()
            .unwrap();
        for alg in MappingAlgorithm::paper_trio() {
            let plan = alg.plan(&dw, PimArray::new(64, 64).unwrap()).unwrap();
            let report = verify_plan(&plan, 1).unwrap();
            assert!(report.is_fully_consistent(), "{alg}: {report:?}");
        }
    }

    #[test]
    fn grouped_non_depthwise_layers_verify_too() {
        // 8 channels in 2 groups: each group is a dense 4->3 conv.
        let grouped = ConvLayer::builder("g")
            .input(9, 9)
            .kernel(3, 3)
            .channels(8, 6)
            .groups(2)
            .stride(2)
            .padding(1)
            .build()
            .unwrap();
        for alg in MappingAlgorithm::paper_trio() {
            let plan = alg.plan(&grouped, PimArray::new(48, 32).unwrap()).unwrap();
            let report = verify_plan(&plan, 9).unwrap();
            assert!(report.is_fully_consistent(), "{alg}: {report:?}");
        }
    }
}
