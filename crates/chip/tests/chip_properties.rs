//! Property tests for chip-level allocation and pipelining.

use pim_arch::PimArray;
use pim_chip::allocate::deploy;
use pim_chip::pipeline::PipelineReport;
use pim_chip::ChipConfig;
use pim_mapping::MappingAlgorithm;
use pim_nets::{ConvLayer, Network};
use proptest::prelude::*;

fn network_strategy() -> impl Strategy<Value = Network> {
    proptest::collection::vec((1usize..4, 1usize..8, 1usize..40, 1usize..40), 1..6).prop_map(
        |layers| {
            let mut net = Network::new("prop-net");
            for (i, (k, extra, ic, oc)) in layers.into_iter().enumerate() {
                net.push(
                    ConvLayer::square(format!("l{i}"), k + extra, k, ic, oc)
                        .expect("valid by construction"),
                );
            }
            net
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Allocation invariants: budget respected, at least one array per
    /// layer, never more arrays than tiles, and stage cycles are NPW
    /// exactly when resident.
    #[test]
    fn allocation_invariants(
        net in network_strategy(),
        n_arrays in 1usize..64,
        reload in 0u64..5_000,
    ) {
        let chip = ChipConfig::new(n_arrays, PimArray::new(128, 128).expect("positive"), reload).expect("valid");
        match deploy(&net, MappingAlgorithm::VwSdk, &chip) {
            Err(_) => prop_assert!(n_arrays < net.len()),
            Ok(d) => {
                prop_assert!(d.arrays_used() <= n_arrays);
                for a in d.allocations() {
                    prop_assert!(a.arrays() >= 1);
                    prop_assert!((a.arrays() as u64) <= a.tiles());
                    let cycles = a.stage_cycles(reload);
                    if a.is_resident() {
                        prop_assert_eq!(cycles, a.plan().n_parallel_windows());
                    } else {
                        prop_assert!(cycles >= a.plan().n_parallel_windows());
                    }
                }
            }
        }
    }

    /// Pipeline identities: latency = Σ stages, bottleneck = max stage.
    #[test]
    fn pipeline_identities(net in network_strategy(), n_arrays in 6usize..64) {
        let chip = ChipConfig::new(n_arrays, PimArray::new(128, 128).expect("positive"), 1_000).expect("valid");
        if let Ok(d) = deploy(&net, MappingAlgorithm::VwSdk, &chip) {
            let p = PipelineReport::new(&d);
            prop_assert_eq!(p.latency_cycles(), p.stage_cycles().iter().sum::<u64>());
            prop_assert_eq!(p.bottleneck_cycles(), *p.stage_cycles().iter().max().unwrap());
        }
    }

    /// Growing the chip never hurts any stage (monotonicity of the
    /// greedy allocator).
    #[test]
    fn more_arrays_never_hurt(net in network_strategy(), base in 6usize..32) {
        let small = ChipConfig::new(base, PimArray::new(128, 128).expect("positive"), 1_000).expect("valid");
        let large = ChipConfig::new(base * 2, PimArray::new(128, 128).expect("positive"), 1_000).expect("valid");
        if let (Ok(a), Ok(b)) = (
            deploy(&net, MappingAlgorithm::VwSdk, &small),
            deploy(&net, MappingAlgorithm::VwSdk, &large),
        ) {
            for (s, l) in a.stage_cycles().iter().zip(b.stage_cycles()) {
                prop_assert!(l <= *s);
            }
        }
    }
}
