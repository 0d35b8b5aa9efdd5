//! Equivalence property: the parallel, memoized [`PlanningEngine`]
//! produces byte-identical `NetworkReport`s to the sequential
//! [`Planner`] — and to planning every layer directly, with no engine at
//! all — across zoo networks and array geometries from 128 to 1024
//! rows/cols.
//!
//! This is the safety net under the whole batch-planning substrate:
//! memoization may only ever change *when* a plan is computed, never
//! *what* is returned, regardless of worker count, scheduling order or
//! cache warmth.

use proptest::prelude::*;
use vw_sdk_repro::pim_arch::PimArray;
use vw_sdk_repro::pim_chip::allocate::Deployment;
use vw_sdk_repro::pim_chip::ChipConfig;
use vw_sdk_repro::pim_mapping::MappingAlgorithm;
use vw_sdk_repro::pim_nets::{zoo, Network};
use vw_sdk_repro::vw_sdk::{NetworkReport, Planner, PlanningEngine};

fn network_strategy() -> impl Strategy<Value = Network> {
    let all = zoo::all();
    (0usize..all.len()).prop_map(move |i| all[i].clone())
}

fn array_strategy() -> impl Strategy<Value = PimArray> {
    (128usize..1025, 128usize..1025).prop_map(|(r, c)| PimArray::new(r, c).expect("positive"))
}

/// What one engine answered and counted over a sequence of operations.
type Transcript = (Vec<NetworkReport>, Vec<Deployment>, Vec<(u64, u64, usize)>);

/// The e2ebench sweep-cold op on a fresh engine: sweep the whole zoo on
/// a never-seen array and deploy one zoo network on that array, then
/// both again on the warm memo. Records the search counters after each
/// step.
fn sweep_cold_op(jobs: usize, array: PimArray, network: &Network) -> Transcript {
    let engine = PlanningEngine::with_algorithms(&MappingAlgorithm::all()).with_jobs(jobs);
    let networks = zoo::all();
    let chip = ChipConfig::new(2 * network.len(), array, 2_000).expect("valid chip config");
    let counters = || {
        let stats = engine.stats();
        (stats.search_hits, stats.search_misses, stats.search_entries)
    };
    let (mut reports, mut deployments, mut counts) = Transcript::default();
    for _ in 0..2 {
        reports.extend(
            engine
                .sweep_arrays(&networks, &[array])
                .expect("planning is total"),
        );
        counts.push(counters());
        deployments.push(
            engine
                .deploy_network(network, &chip)
                .expect("one array per layer and more"),
        );
        counts.push(counters());
    }
    (reports, deployments, counts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One shared engine plans two networks across two arrays in one
    /// parallel batch; every report must be byte-identical to the
    /// sequential Planner's, and every plan identical to direct,
    /// engine-free planning.
    #[test]
    fn engine_reports_are_byte_identical_to_sequential_planner(
        net_a in network_strategy(),
        net_b in network_strategy(),
        array_a in array_strategy(),
        array_b in array_strategy(),
        jobs in 2usize..9,
    ) {
        let engine = PlanningEngine::new().with_jobs(jobs);
        let networks = [net_a, net_b];
        let arrays = [array_a, array_b];
        let batch = engine.sweep_arrays(&networks, &arrays).expect("planning is total");
        prop_assert_eq!(batch.len(), 4);

        let mut batch_iter = batch.iter();
        for network in &networks {
            for &array in &arrays {
                let engine_report = batch_iter.next().expect("network-major order");
                let sequential = Planner::new(array)
                    .plan_network(network)
                    .expect("planning is total");
                prop_assert_eq!(engine_report, &sequential);
                prop_assert_eq!(
                    format!("{engine_report:?}"),
                    format!("{sequential:?}")
                );

                // Against direct, engine-free planning of every layer.
                for (layer, comparison) in network.layers().iter().zip(engine_report.layers()) {
                    prop_assert_eq!(comparison.layer(), layer);
                    for plan in comparison.plans() {
                        let direct = plan
                            .algorithm()
                            .plan(layer, array)
                            .expect("planning is total");
                        prop_assert_eq!(plan, &direct);
                    }
                }
            }
        }

        // Re-planning from the warm cache changes nothing.
        let warm = engine.sweep_arrays(&networks, &arrays).expect("planning is total");
        prop_assert_eq!(batch, warm);
    }

    /// Sizing a fan-out by its cold searches changes neither what the
    /// engine answers nor what its memo counts: the sweep-cold op gives
    /// the same reports, deployments and search counters at 1, 2 and 8
    /// workers, where only the multi-worker engines peek at the memo.
    #[test]
    fn sweep_cold_op_is_the_same_at_every_worker_count(
        array in array_strategy(),
        network in network_strategy(),
    ) {
        let inline = sweep_cold_op(1, array, &network);
        // The warm pass searched nothing new.
        prop_assert_eq!(inline.2[1].1, inline.2[3].1);
        for jobs in [2, 8] {
            let fanned = sweep_cold_op(jobs, array, &network);
            prop_assert_eq!(&fanned.0, &inline.0);
            prop_assert_eq!(&fanned.1, &inline.1);
            prop_assert_eq!(&fanned.2, &inline.2);
        }
    }
}
