//! The execution engine: runs a mapping plan on real tensors.

use crate::metrics::RunStats;
use crate::programmed::ProgrammedStage;
use crate::Result;
use pim_arch::energy::EnergyModel;
use pim_mapping::MappingPlan;
use pim_tensor::{Scalar, Tensor3, Tensor4};

/// The result of simulating one layer: the output feature map plus
/// execution statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRun<T> {
    ofm: Tensor3<T>,
    stats: RunStats,
}

impl<T> SimRun<T> {
    /// The computed output feature map (`OC × OH × OW`).
    pub fn ofm(&self) -> &Tensor3<T> {
        &self.ofm
    }

    /// Execution counters.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }
}

/// The crossbar execution engine.
///
/// Stateless between runs apart from its [`EnergyModel`]; see the crate
/// docs for a full example.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Engine {
    energy: EnergyModel,
}

impl Engine {
    /// Engine with the default (ISAAC-like) energy model.
    pub fn new() -> Self {
        Self::default()
    }

    /// The engine's energy model (used when replaying analytical
    /// counters for a pre-programmed stage).
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// Executes `plan` on the given input feature map and weight bank.
    ///
    /// The number of analog MVMs performed equals the plan's predicted
    /// [`MappingPlan::cycles`] (asserted by the test suite), and the
    /// output equals the reference convolution — exactly, for integer
    /// scalars.
    ///
    /// Implemented as program-then-stream over a
    /// [`ProgrammedStage`]: callers executing many inputs against the
    /// same plan should program once themselves and stream a batch —
    /// this convenience entry point pays the programming cost per call.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`](crate::SimError) if tensor dimensions
    /// disagree with the layer, or the plan's layer has no cell-level
    /// layout.
    pub fn run<T: Scalar>(
        &self,
        plan: &MappingPlan,
        ifm: &Tensor3<T>,
        weights: &Tensor4<T>,
    ) -> Result<SimRun<T>> {
        let mut stats = RunStats::new();
        let stage = ProgrammedStage::program(plan, weights, &mut stats)?;
        stage.stream_stats(&self.energy, &mut stats);
        let mut ofms = stage.stream_batch(std::slice::from_ref(ifm))?;
        let ofm = ofms.pop().expect("one output per streamed input");
        Ok(SimRun { ofm, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_arch::PimArray;
    use pim_mapping::MappingAlgorithm;
    use pim_nets::ConvLayer;
    use pim_tensor::forward::conv_params;
    use pim_tensor::{conv2d_direct, gen};

    fn arr(r: usize, c: usize) -> PimArray {
        PimArray::new(r, c).unwrap()
    }

    fn check_layer(plan: &MappingPlan, seed: u64) {
        let layer = plan.layer();
        let ifm = gen::random3::<i64>(layer.in_channels(), layer.input_h(), layer.input_w(), seed);
        let weights = gen::random4::<i64>(
            layer.out_channels(),
            layer.in_channels(),
            layer.kernel_h(),
            layer.kernel_w(),
            seed ^ 0x5a5a,
        );
        let run = Engine::new().run(plan, &ifm, &weights).unwrap();
        let reference = conv2d_direct(&ifm, &weights, conv_params(layer)).unwrap();
        assert_eq!(run.ofm(), &reference, "{} mismatch", plan.algorithm());
        assert_eq!(
            run.stats().computing_cycles,
            plan.cycles(),
            "{} cycle count mismatch",
            plan.algorithm()
        );
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
    fn engine_rejects_mismatched_tensors() {
        let l = ConvLayer::square("c", 8, 3, 2, 3).unwrap();
        let plan = MappingAlgorithm::Im2col.plan(&l, arr(32, 32)).unwrap();
        let bad_ifm = gen::random3::<i64>(3, 8, 8, 1);
        let weights = gen::random4::<i64>(3, 2, 3, 3, 2);
        assert!(Engine::new().run(&plan, &bad_ifm, &weights).is_err());
        let ifm = gen::random3::<i64>(2, 8, 8, 1);
        let bad_w = gen::random4::<i64>(3, 2, 5, 5, 2);
        assert!(Engine::new().run(&plan, &ifm, &bad_w).is_err());
    }

    #[test]
    fn stats_count_programmings_and_conversions() {
        let l = ConvLayer::square("c", 6, 3, 3, 4).unwrap();
        let plan = MappingAlgorithm::Im2col.plan(&l, arr(16, 8)).unwrap();
        let ifm = gen::random3::<i64>(3, 6, 6, 3);
        let weights = gen::random4::<i64>(4, 3, 3, 3, 4);
        let run = Engine::new().run(&plan, &ifm, &weights).unwrap();
        let s = run.stats();
        assert_eq!(s.array_programmings, plan.ar_cycles() * plan.ac_cycles());
        assert!(s.adc_conversions > 0);
        assert!(s.dac_conversions > 0);
        assert!(s.energy_pj() > 0.0);
    }

    #[test]
    fn float_execution_is_close_to_reference() {
        let l = ConvLayer::square("c", 8, 3, 2, 3).unwrap();
        let plan = MappingAlgorithm::VwSdk.plan(&l, arr(64, 64)).unwrap();
        let ifm = gen::random3::<f64>(2, 8, 8, 5);
        let weights = gen::random4::<f64>(3, 2, 3, 3, 6);
        let run = Engine::new().run(&plan, &ifm, &weights).unwrap();
        let reference = conv2d_direct(&ifm, &weights, conv_params(&l)).unwrap();
        for (a, b) in run.ofm().as_slice().iter().zip(reference.as_slice()) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
