//! The high-level planning API.

use crate::{PlanningEngine, Result, VwSdkError};
use pim_arch::PimArray;
use pim_mapping::utilization::{utilization, UtilizationStats};
use pim_mapping::{MappingAlgorithm, MappingPlan};
use pim_nets::{ConvLayer, Network};

/// Plans and compares mapping algorithms for layers and networks on one
/// array geometry.
///
/// By default the planner runs the paper's three algorithms (im2col, SDK,
/// VW-SDK); use [`Planner::with_algorithms`] to add the SMD baseline or
/// the VW-SDK ablation variants.
///
/// # Example
///
/// ```
/// use vw_sdk::Planner;
/// use vw_sdk::pim_arch::PimArray;
/// use vw_sdk::pim_nets::ConvLayer;
/// use vw_sdk::pim_mapping::MappingAlgorithm;
///
/// let planner = Planner::new(PimArray::new(512, 512)?);
/// let layer = ConvLayer::square("conv5", 7, 3, 512, 512)?;
/// let cmp = planner.plan_layer(&layer)?;
/// assert_eq!(cmp.plan_for(MappingAlgorithm::VwSdk).unwrap().cycles(), 225);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Planner {
    array: PimArray,
    algorithms: Vec<MappingAlgorithm>,
}

impl Planner {
    /// A planner comparing the paper's three algorithms on `array`.
    pub fn new(array: PimArray) -> Self {
        Self {
            array,
            algorithms: MappingAlgorithm::paper_trio().to_vec(),
        }
    }

    /// A planner comparing an explicit set of algorithms.
    pub fn with_algorithms(array: PimArray, algorithms: &[MappingAlgorithm]) -> Self {
        Self {
            array,
            algorithms: algorithms.to_vec(),
        }
    }

    /// The target array.
    pub fn array(&self) -> PimArray {
        self.array
    }

    /// The algorithms this planner compares.
    pub fn algorithms(&self) -> &[MappingAlgorithm] {
        &self.algorithms
    }

    /// Plans one layer under every configured algorithm.
    ///
    /// # Errors
    ///
    /// Returns [`VwSdkError`] if any algorithm fails to plan (planning is
    /// currently total, so this is reserved for future algorithms).
    pub fn plan_layer(&self, layer: &ConvLayer) -> Result<LayerComparison> {
        let mut plans = Vec::with_capacity(self.algorithms.len());
        for alg in &self.algorithms {
            plans.push(alg.plan(layer, self.array)?);
        }
        Ok(LayerComparison {
            layer: layer.clone(),
            plans,
        })
    }

    /// Plans every layer of a network.
    ///
    /// Runs through a fresh single-threaded [`PlanningEngine`], so
    /// repeated layer shapes within the network are planned once and
    /// answered from its cache thereafter. For batch workloads (many
    /// networks, many arrays, `--jobs N` parallelism, a cache that
    /// persists across calls) use a [`PlanningEngine`] directly.
    ///
    /// # Errors
    ///
    /// Propagates the first planning failure.
    pub fn plan_network(&self, network: &Network) -> Result<NetworkReport> {
        PlanningEngine::with_algorithms(&self.algorithms).plan_network(network, self.array)
    }
}

/// All configured algorithms' plans for one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerComparison {
    layer: ConvLayer,
    plans: Vec<MappingPlan>,
}

impl LayerComparison {
    /// Assembles a comparison from pre-computed plans (the planning
    /// engine builds comparisons out of memo-backed plans).
    pub(crate) fn from_parts(layer: ConvLayer, plans: Vec<MappingPlan>) -> Self {
        Self { layer, plans }
    }

    /// The compared layer.
    pub fn layer(&self) -> &ConvLayer {
        &self.layer
    }

    /// All plans, in the planner's algorithm order.
    pub fn plans(&self) -> &[MappingPlan] {
        &self.plans
    }

    /// The plan of one specific algorithm, if it was configured.
    pub fn plan_for(&self, algorithm: MappingAlgorithm) -> Option<&MappingPlan> {
        self.plans.iter().find(|p| p.algorithm() == algorithm)
    }

    /// The plan with the fewest cycles.
    ///
    /// # Panics
    ///
    /// Panics if the comparison is empty (planners always configure at
    /// least one algorithm).
    pub fn best(&self) -> &MappingPlan {
        self.plans
            .iter()
            .min_by_key(|p| p.cycles())
            .expect("comparison contains at least one plan")
    }

    /// Speedup of `algorithm` relative to `baseline`
    /// (`baseline cycles / algorithm cycles`), if both are present.
    pub fn speedup(&self, algorithm: MappingAlgorithm, baseline: MappingAlgorithm) -> Option<f64> {
        let a = self.plan_for(algorithm)?;
        let b = self.plan_for(baseline)?;
        Some(a.speedup_over(b))
    }

    /// Eq. (9) utilization of one algorithm's plan.
    ///
    /// # Errors
    ///
    /// Returns [`VwSdkError`] if the algorithm is not configured or the
    /// layer has no cell-level layout (grouped).
    pub fn utilization(&self, algorithm: MappingAlgorithm) -> Result<UtilizationStats> {
        let plan = self.plan_for(algorithm).ok_or_else(|| {
            VwSdkError::new(format!(
                "algorithm {algorithm} not configured in this comparison"
            ))
        })?;
        Ok(utilization(plan)?)
    }
}

/// Network-wide comparison: one [`LayerComparison`] per layer plus totals.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkReport {
    network_name: String,
    array: PimArray,
    algorithms: Vec<MappingAlgorithm>,
    layers: Vec<LayerComparison>,
}

impl NetworkReport {
    /// Assembles a report from per-layer comparisons (used by the
    /// planning engine's batch entry points).
    pub(crate) fn from_parts(
        network_name: String,
        array: PimArray,
        algorithms: Vec<MappingAlgorithm>,
        layers: Vec<LayerComparison>,
    ) -> Self {
        Self {
            network_name,
            array,
            algorithms,
            layers,
        }
    }

    /// Name of the planned network.
    pub fn network_name(&self) -> &str {
        &self.network_name
    }

    /// The target array.
    pub fn array(&self) -> PimArray {
        self.array
    }

    /// The algorithms compared.
    pub fn algorithms(&self) -> &[MappingAlgorithm] {
        &self.algorithms
    }

    /// Per-layer comparisons, in network order.
    pub fn layers(&self) -> &[LayerComparison] {
        &self.layers
    }

    /// Sum of cycles across layers for one algorithm — the paper's "Total
    /// cycles" row. `None` if the algorithm was not configured.
    pub fn total_cycles(&self, algorithm: MappingAlgorithm) -> Option<u64> {
        self.layers
            .iter()
            .map(|l| l.plan_for(algorithm).map(MappingPlan::cycles))
            .sum()
    }

    /// Whole-network speedup of `algorithm` over `baseline` — the paper's
    /// headline metric (e.g. 4.67× for ResNet-18, VW-SDK vs im2col).
    pub fn speedup(&self, algorithm: MappingAlgorithm, baseline: MappingAlgorithm) -> Option<f64> {
        let a = self.total_cycles(algorithm)?;
        let b = self.total_cycles(baseline)?;
        Some(b as f64 / a as f64)
    }

    /// Per-layer speedups of `algorithm` over `baseline` (Fig. 8(a)).
    pub fn per_layer_speedups(
        &self,
        algorithm: MappingAlgorithm,
        baseline: MappingAlgorithm,
    ) -> Option<Vec<f64>> {
        self.layers
            .iter()
            .map(|l| l.speedup(algorithm, baseline))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_nets::zoo;

    fn planner512() -> Planner {
        Planner::new(PimArray::new(512, 512).unwrap())
    }

    #[test]
    fn resnet18_totals_match_table1() {
        let report = planner512().plan_network(&zoo::resnet18_table1()).unwrap();
        assert_eq!(report.total_cycles(MappingAlgorithm::Im2col), Some(20_041));
        assert_eq!(report.total_cycles(MappingAlgorithm::Sdk), Some(7_240));
        assert_eq!(report.total_cycles(MappingAlgorithm::VwSdk), Some(4_294));
    }

    #[test]
    fn vgg13_totals_match_table1() {
        let report = planner512().plan_network(&zoo::vgg13()).unwrap();
        assert_eq!(report.total_cycles(MappingAlgorithm::Im2col), Some(243_736));
        assert_eq!(report.total_cycles(MappingAlgorithm::Sdk), Some(114_697));
        assert_eq!(report.total_cycles(MappingAlgorithm::VwSdk), Some(77_102));
    }

    #[test]
    fn headline_speedups_match_abstract() {
        let resnet = planner512().plan_network(&zoo::resnet18_table1()).unwrap();
        let s_im2col = resnet
            .speedup(MappingAlgorithm::VwSdk, MappingAlgorithm::Im2col)
            .unwrap();
        let s_sdk = resnet
            .speedup(MappingAlgorithm::VwSdk, MappingAlgorithm::Sdk)
            .unwrap();
        assert!((s_im2col - 4.67).abs() < 0.01);
        assert!((s_sdk - 1.69).abs() < 0.01);

        let vgg = planner512().plan_network(&zoo::vgg13()).unwrap();
        let v_im2col = vgg
            .speedup(MappingAlgorithm::VwSdk, MappingAlgorithm::Im2col)
            .unwrap();
        let v_sdk = vgg
            .speedup(MappingAlgorithm::VwSdk, MappingAlgorithm::Sdk)
            .unwrap();
        assert!((v_im2col - 3.16).abs() < 0.01);
        assert!((v_sdk - 1.49).abs() < 0.01);
    }

    #[test]
    fn layer_comparison_exposes_best_plan() {
        let planner = planner512();
        let cmp = planner
            .plan_layer(&ConvLayer::square("c", 14, 3, 256, 256).unwrap())
            .unwrap();
        assert_eq!(cmp.best().algorithm(), MappingAlgorithm::VwSdk);
        assert_eq!(cmp.best().cycles(), 504);
        assert!(cmp.plan_for(MappingAlgorithm::Smd).is_none());
    }

    #[test]
    fn unconfigured_algorithm_returns_none() {
        let report = planner512()
            .plan_network(&zoo::by_name("tiny").unwrap())
            .unwrap();
        assert_eq!(report.total_cycles(MappingAlgorithm::SdkOpt), None);
        assert!(report
            .speedup(MappingAlgorithm::SdkOpt, MappingAlgorithm::Im2col)
            .is_none());
    }

    #[test]
    fn per_layer_speedups_have_network_length() {
        let report = planner512().plan_network(&zoo::vgg13()).unwrap();
        let s = report
            .per_layer_speedups(MappingAlgorithm::VwSdk, MappingAlgorithm::Im2col)
            .unwrap();
        assert_eq!(s.len(), 10);
        // Layer 1 gains ~7.9x, the deep layers gain nothing.
        assert!((s[0] - 49_284.0 / 6_216.0).abs() < 1e-9);
        assert_eq!(s[9], 1.0);
    }

    #[test]
    fn utilization_is_reachable_through_the_facade() {
        let planner = planner512();
        let cmp = planner
            .plan_layer(&ConvLayer::square("c5", 56, 3, 128, 256).unwrap())
            .unwrap();
        let u = cmp.utilization(MappingAlgorithm::VwSdk).unwrap();
        assert!((u.peak_nonzero - 73.83).abs() < 0.01);
        assert!(cmp.utilization(MappingAlgorithm::SdkOpt).is_err());
    }

    #[test]
    fn custom_algorithm_set_is_honoured() {
        let planner = Planner::with_algorithms(
            PimArray::new(256, 256).unwrap(),
            &[MappingAlgorithm::Smd, MappingAlgorithm::VwSdk],
        );
        let report = planner
            .plan_network(&zoo::by_name("tiny").unwrap())
            .unwrap();
        assert!(report.total_cycles(MappingAlgorithm::Smd).is_some());
        assert!(report.total_cycles(MappingAlgorithm::Sdk).is_none());
        assert_eq!(report.algorithms().len(), 2);
    }
}
