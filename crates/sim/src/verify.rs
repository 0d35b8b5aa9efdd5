//! End-to-end verification of mapping plans against the reference
//! convolution.

use crate::engine::Engine;
use crate::Result;
use pim_mapping::MappingPlan;
use pim_tensor::forward::conv_params;
use pim_tensor::{conv2d_direct, conv2d_grouped, gen};

/// Outcome of verifying one plan with generated data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// `true` when simulated output equals the reference convolution
    /// element-for-element (exact `i64` arithmetic).
    pub matches: bool,
    /// Computing cycles executed by the engine.
    pub executed_cycles: u64,
    /// Cycles the analytical model predicted.
    pub predicted_cycles: u64,
    /// Number of output elements compared.
    pub elements: usize,
    /// Number of mismatching elements (0 when `matches`).
    pub mismatches: usize,
}

impl VerifyReport {
    /// `true` when the output matched *and* the executed cycle count
    /// equals the analytical prediction.
    pub fn is_fully_consistent(&self) -> bool {
        self.matches && self.executed_cycles == self.predicted_cycles
    }
}

/// Runs a plan on deterministic pseudo-random `i64` tensors and compares
/// the simulated output with the reference convolution (grouped layers
/// verify against the grouped reference).
///
/// # Errors
///
/// Returns [`crate::SimError`] if the plan cannot be simulated.
pub fn verify_plan(plan: &MappingPlan, seed: u64) -> Result<VerifyReport> {
    let layer = plan.layer();
    let ifm = gen::random3::<i64>(layer.in_channels(), layer.input_h(), layer.input_w(), seed);
    let weights = gen::random4::<i64>(
        layer.out_channels(),
        layer.in_channels_per_group(),
        layer.kernel_h(),
        layer.kernel_w(),
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
    );
    let run = Engine::new().run(plan, &ifm, &weights)?;
    let reference = if layer.groups() > 1 {
        conv2d_grouped(&ifm, &weights, conv_params(layer), layer.groups())?
    } else {
        conv2d_direct(&ifm, &weights, conv_params(layer))?
    };
    let mismatches = run
        .ofm()
        .as_slice()
        .iter()
        .zip(reference.as_slice())
        .filter(|(a, b)| a != b)
        .count();
    Ok(VerifyReport {
        matches: mismatches == 0,
        executed_cycles: run.stats().computing_cycles,
        predicted_cycles: plan.cycles(),
        elements: reference.as_slice().len(),
        mismatches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_arch::PimArray;
    use pim_mapping::MappingAlgorithm;
    use pim_nets::ConvLayer;

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
