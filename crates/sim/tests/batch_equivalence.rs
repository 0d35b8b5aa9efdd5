//! Batched execution is provably equivalent to sequential execution:
//! `execute_batch(N)` must produce bit-identical output tensors to N
//! independent one-element batches, aggregate cycles/MACs as exact
//! N-fold sums, and count crossbar programmings once per deployment —
//! across the executable zoo, in both execution modes, for any worker
//! count.

use pim_arch::PimArray;
use pim_mapping::{MappingAlgorithm, MappingPlan};
use pim_nets::{ConvLayer, Network};
use pim_sim::{simulate_network_batch, ExecMode, NetworkExecutor};
use pim_tensor::{gen, Tensor3, Tensor4};
use proptest::prelude::*;

const BATCH: usize = 3;

fn plans_for(network: &Network, array: PimArray, alg: MappingAlgorithm) -> Vec<MappingPlan> {
    network
        .layers()
        .iter()
        .map(|l| alg.plan(l, array).expect("plannable"))
        .collect()
}

fn batch_inputs(network: &Network, seed: u64) -> (Vec<Tensor3<i64>>, Vec<Tensor4<i64>>) {
    let first = network.layers().first().expect("non-empty network");
    let ifms = (0..BATCH)
        .map(|i| {
            gen::random3::<i64>(
                first.in_channels(),
                first.input_h(),
                first.input_w(),
                seed.wrapping_add(i as u64),
            )
        })
        .collect();
    let weights = network
        .layers()
        .iter()
        .enumerate()
        .map(|(i, layer)| {
            gen::random4::<i64>(
                layer.out_channels(),
                layer.in_channels_per_group(),
                layer.kernel_h(),
                layer.kernel_w(),
                seed ^ (i as u64 + 1),
            )
        })
        .collect();
    (ifms, weights)
}

/// Runs the executor-level equivalence check: per-element bit identity,
/// N-fold counter aggregation, programmings counted once.
fn assert_batch_equivalent(
    network: &Network,
    plans: &[MappingPlan],
    mode: ExecMode,
    seed: u64,
    jobs: usize,
) {
    let (ifms, weights) = batch_inputs(network, seed);
    let executor = NetworkExecutor::new().with_mode(mode);
    let batch = executor
        .execute_batch(network, plans, &ifms, &weights, jobs)
        .expect("batch executes");
    let singles: Vec<_> = ifms
        .iter()
        .map(|ifm| {
            executor
                .execute_batch(network, plans, std::slice::from_ref(ifm), &weights, 1)
                .expect("single executes")
        })
        .collect();
    for (i, (single, ofm)) in singles.iter().zip(batch.ofms()).enumerate() {
        assert_eq!(
            &single.ofms()[0],
            ofm,
            "{}: batched element {i} diverged from its sequential run ({mode})",
            network.name()
        );
    }
    for (si, (agg, single)) in batch.stages().iter().zip(singles[0].stages()).enumerate() {
        assert_eq!(
            agg.executed_cycles,
            single.executed_cycles * BATCH as u64,
            "{} stage {si}: aggregated cycles are not the N-fold sum",
            network.name()
        );
        assert_eq!(agg.macs, single.macs * BATCH as u64);
        assert_eq!(agg.adc_conversions, single.adc_conversions * BATCH as u64);
        assert_eq!(agg.dac_conversions, single.dac_conversions * BATCH as u64);
        assert_eq!(agg.predicted_cycles, single.predicted_cycles * BATCH as u64);
        // The decisive amortization property: weights hit the arrays once
        // per deployment, not once per streamed input.
        assert_eq!(
            agg.array_programmings,
            single.array_programmings,
            "{} stage {si}: programmings were counted per input",
            network.name()
        );
        let expected_energy = single.energy_pj * BATCH as f64;
        assert!(
            (agg.energy_pj - expected_energy).abs() <= expected_energy.abs() * 1e-9,
            "{} stage {si}: energy {} not ~ {expected_energy}",
            network.name(),
            agg.energy_pj
        );
    }
}

#[test]
fn batch_equals_sequential_across_the_executable_zoo() {
    let array = PimArray::new(512, 512).unwrap();
    for network in pim_nets::zoo::executable() {
        let plans = plans_for(&network, array, MappingAlgorithm::VwSdk);
        for mode in [ExecMode::Exact, ExecMode::Quantized] {
            // Deep zoo networks legitimately exceed the exact-mode
            // integer headroom; the simulate entry point is the
            // authority on which (network, mode) pairs are runnable.
            let report = match simulate_network_batch(&network, &plans, 5, mode, BATCH, 2) {
                Ok(report) => report,
                Err(_) => continue,
            };
            assert!(
                report.is_fully_consistent(),
                "{} {mode}: {report:?}",
                network.name()
            );
            assert_eq!(report.batch, BATCH);
            assert_batch_equivalent(&network, &plans, mode, 5, 1);
        }
    }
}

#[test]
fn batch_equals_sequential_under_every_paper_algorithm() {
    let network = pim_nets::zoo::tiny();
    let array = PimArray::new(64, 64).unwrap();
    for alg in MappingAlgorithm::all() {
        let plans = plans_for(&network, array, alg);
        for mode in [ExecMode::Exact, ExecMode::Quantized] {
            for jobs in [1, 2, 0] {
                assert_batch_equivalent(&network, &plans, mode, 21, jobs);
            }
        }
    }
}

#[derive(Debug, Clone)]
struct Case {
    layer: ConvLayer,
    array: PimArray,
    seed: u64,
    jobs: usize,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        1usize..4,   // kernel
        1usize..8,   // input extra
        1usize..5,   // ic
        1usize..6,   // oc
        0usize..2,   // padding
        1usize..3,   // stride
        12usize..64, // rows
        8usize..64,  // cols
        any::<u64>(),
        1usize..4, // jobs
    )
        .prop_map(|(k, extra, ic, oc, pad, stride, rows, cols, seed, jobs)| {
            let layer = ConvLayer::builder("prop")
                .input(k + extra, k + extra)
                .kernel(k, k)
                .channels(ic, oc)
                .padding(pad)
                .stride(stride)
                .build()
                .expect("valid by construction");
            Case {
                layer,
                array: PimArray::new(rows, cols).expect("positive"),
                seed,
                jobs,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_single_stage_networks_batch_exactly(case in case_strategy()) {
        let mut network = Network::new("prop-net");
        network.push(case.layer.clone());
        for alg in MappingAlgorithm::all() {
            let plans = plans_for(&network, case.array, alg);
            assert_batch_equivalent(&network, &plans, ExecMode::Quantized, case.seed, case.jobs);
        }
    }
}
