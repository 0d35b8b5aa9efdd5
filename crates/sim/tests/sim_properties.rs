//! Property-based end-to-end tests: for arbitrary small layers and array
//! geometries, every mapping algorithm's simulated execution equals the
//! reference convolution exactly, in exactly the predicted cycle count.
//!
//! This is the reproduction's strongest evidence that the paper's cycle
//! formulas describe *physically realizable* mappings rather than just
//! counting arguments.

use pim_arch::PimArray;
use pim_mapping::MappingAlgorithm;
use pim_nets::ConvLayer;
use pim_sim::verify::verify_plan;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Case {
    layer: ConvLayer,
    array: PimArray,
    seed: u64,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        1usize..4,   // kernel
        1usize..10,  // input extra
        1usize..6,   // ic
        1usize..7,   // oc
        0usize..2,   // padding
        1usize..3,   // stride
        1usize..3,   // dilation
        12usize..80, // rows
        8usize..80,  // cols
        any::<u64>(),
    )
        .prop_map(
            |(k, extra, ic, oc, pad, stride, dilation, rows, cols, seed)| {
                // Input must contain the dilated kernel.
                let eff = (k - 1) * dilation + 1;
                let input = eff + extra;
                let layer = ConvLayer::builder("prop")
                    .input(input, input)
                    .kernel(k, k)
                    .channels(ic, oc)
                    .padding(pad)
                    .stride(stride)
                    .dilation(dilation)
                    .build()
                    .expect("valid by construction");
                Case {
                    layer,
                    array: PimArray::new(rows, cols).expect("positive"),
                    seed,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_algorithm_simulates_exactly(case in case_strategy()) {
        for alg in MappingAlgorithm::all() {
            let plan = alg.plan(&case.layer, case.array).expect("planning is total");
            let report = verify_plan(&plan, case.seed).expect("simulation runs");
            prop_assert!(report.matches(),
                "{alg} output mismatch on {} / {}: {} of {} elements",
                case.layer, case.array, report.mismatches, report.elements);
            prop_assert_eq!(report.executed_cycles(), report.predicted_cycles(),
                "{} cycle mismatch on {} / {}", alg, case.layer, case.array);
        }
    }

    #[test]
    fn utilization_is_valid_for_all_algorithms(case in case_strategy()) {
        for alg in MappingAlgorithm::all() {
            let plan = alg.plan(&case.layer, case.array).expect("planning is total");
            let stats = pim_mapping::utilization::utilization(&plan).expect("layouts build");
            prop_assert!(stats.mean_nonzero > 0.0);
            prop_assert!(stats.peak_rect <= 100.0 + 1e-9);
            prop_assert!(stats.mean_nonzero <= stats.mean_rect + 1e-9);
        }
    }
}
