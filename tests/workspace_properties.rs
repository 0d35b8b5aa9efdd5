//! Workspace-level property tests spanning the whole stack:
//! cost model → planner → layout → schedule → simulator.

use proptest::prelude::*;
use vw_sdk_repro::pim_arch::PimArray;
use vw_sdk_repro::pim_mapping::{schedule, utilization, MappingAlgorithm};
use vw_sdk_repro::pim_nets::ConvLayer;
use vw_sdk_repro::pim_sim::verify::verify_plan;
use vw_sdk_repro::vw_sdk::Planner;

fn layer_strategy() -> impl Strategy<Value = ConvLayer> {
    (1usize..4, 1usize..9, 1usize..5, 1usize..6).prop_map(|(k, extra, ic, oc)| {
        ConvLayer::square("wprop", k + extra, k, ic, oc).expect("valid")
    })
}

fn array_strategy() -> impl Strategy<Value = PimArray> {
    (10usize..100, 8usize..100).prop_map(|(r, c)| PimArray::new(r, c).expect("positive"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The whole pipeline agrees on the cycle count: analytical plan,
    /// schedule enumeration, and executed simulation.
    #[test]
    fn cycle_counts_agree_everywhere(layer in layer_strategy(), array in array_strategy()) {
        for alg in MappingAlgorithm::paper_trio() {
            let plan = alg.plan(&layer, array).expect("total");
            let scheduled = schedule::cycles(&plan).count() as u64;
            prop_assert_eq!(scheduled, plan.cycles());
            let report = verify_plan(&plan, 42).expect("simulates");
            prop_assert_eq!(report.executed_cycles(), plan.cycles());
            prop_assert!(report.matches());
        }
    }

    /// The planner facade returns the same cycle counts as planning each
    /// algorithm directly, and its best() is consistent.
    #[test]
    fn facade_is_consistent_with_direct_planning(layer in layer_strategy(), array in array_strategy()) {
        let planner = Planner::new(array);
        let cmp = planner.plan_layer(&layer).expect("total");
        for alg in MappingAlgorithm::paper_trio() {
            let direct = alg.plan(&layer, array).expect("total");
            let via_facade = cmp.plan_for(alg).expect("configured");
            prop_assert_eq!(direct.cycles(), via_facade.cycles());
        }
        let best = cmp.best();
        for plan in cmp.plans() {
            prop_assert!(best.cycles() <= plan.cycles());
        }
    }

    /// Utilization percentages stay within physical bounds across the
    /// stack, for every algorithm.
    #[test]
    fn utilization_bounds_hold(layer in layer_strategy(), array in array_strategy()) {
        for alg in MappingAlgorithm::all() {
            let plan = alg.plan(&layer, array).expect("total");
            let u = utilization::utilization(&plan).expect("lays out");
            prop_assert!(u.mean_nonzero > 0.0 && u.mean_nonzero <= 100.0);
            prop_assert!(u.peak_nonzero <= 100.0 + 1e-9);
            prop_assert!(u.mean_rect <= 100.0 + 1e-9);
            prop_assert!(u.cycles == plan.cycles());
        }
    }

    /// Speedup relations that the paper depends on hold for arbitrary
    /// shapes: VW-SDK ≤ im2col and SDK ≤ im2col.
    #[test]
    fn headline_orderings_hold(layer in layer_strategy(), array in array_strategy()) {
        let planner = Planner::new(array);
        let cmp = planner.plan_layer(&layer).expect("total");
        let im2col = cmp.plan_for(MappingAlgorithm::Im2col).expect("configured").cycles();
        let sdk = cmp.plan_for(MappingAlgorithm::Sdk).expect("configured").cycles();
        let vw = cmp.plan_for(MappingAlgorithm::VwSdk).expect("configured").cycles();
        prop_assert!(vw <= im2col);
        prop_assert!(sdk <= im2col);
    }
}
