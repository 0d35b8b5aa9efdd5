//! Network-scale simulation acceptance tests.
//!
//! Three guarantees are pinned here (see docs/SIMULATION.md):
//!
//! 1. **Layer sweep** — every *distinct* layer shape in the whole model
//!    zoo (strided, dilated and grouped/depthwise included), shrunk to
//!    simulation scale with its geometry class preserved, is bit-exact
//!    under im2col, SDK and VW-SDK with executed == predicted cycles.
//! 2. **Network sweep** — every executable zoo network streams one
//!    input end to end under all three paper algorithms and both
//!    execution modes, bit-exact against the reference forward pass.
//! 3. **Deployment cross-check** — executing a mixed-algorithm chip
//!    deployment reproduces, stage by stage, exactly the
//!    `compute_cycles` the `DeploymentReport` predicts.

use std::collections::HashSet;
use vw_sdk_repro::pim_arch::PimArray;
use vw_sdk_repro::pim_chip::report::DeploymentReport;
use vw_sdk_repro::pim_chip::{optimize, ChipConfig};
use vw_sdk_repro::pim_mapping::MappingAlgorithm;
use vw_sdk_repro::pim_nets::{zoo, ConvLayer, LayerShape};
use vw_sdk_repro::pim_sim::verify::verify_plan;
use vw_sdk_repro::pim_sim::{simulate_deployment_batch, simulate_network_batch, ExecMode};
use vw_sdk_repro::vw_sdk::PlanningEngine;

/// Shrinks a zoo layer to simulation scale while preserving its
/// geometry class: kernel, stride, padding, dilation and grouping
/// survive; input extents and per-group channel counts are capped.
fn shrink(layer: &ConvLayer) -> ConvLayer {
    let eff_k = layer.effective_kernel_h().max(layer.effective_kernel_w());
    let input = layer.input_h().max(layer.input_w()).min(eff_k + 6);
    let groups = layer.groups().min(4);
    let icg = layer.in_channels_per_group().min(3);
    let ocg = layer.out_channels_per_group().min(3);
    ConvLayer::builder(layer.name())
        .input(input, input)
        .kernel(layer.kernel_h(), layer.kernel_w())
        .channels(icg * groups, ocg * groups)
        .stride(layer.stride())
        .padding(layer.padding())
        .dilation(layer.dilation())
        .groups(groups)
        .build()
        .expect("shrunk zoo layers stay valid")
}

#[test]
fn every_distinct_zoo_layer_shape_is_bit_exact_under_the_paper_trio() {
    let mut seen: HashSet<LayerShape> = HashSet::new();
    let mut checked = 0usize;
    for network in zoo::all() {
        for layer in network.layers() {
            let small = shrink(layer);
            if !seen.insert(small.shape()) {
                continue;
            }
            for (arr_idx, array) in [
                PimArray::new(48, 40).unwrap(),
                PimArray::new(20, 12).unwrap(),
            ]
            .into_iter()
            .enumerate()
            {
                for alg in MappingAlgorithm::paper_trio() {
                    let plan = alg.plan(&small, array).unwrap();
                    let report =
                        verify_plan(&plan, 0xBEEF + checked as u64 + arr_idx as u64).unwrap();
                    assert!(
                        report.is_fully_consistent(),
                        "{} / {} / {} / {}: {:?}",
                        network.name(),
                        small.name(),
                        alg,
                        array,
                        report
                    );
                }
            }
            checked += 1;
        }
    }
    // The sweep must have covered strided, dilated and grouped shapes.
    assert!(checked >= 15, "only {checked} distinct shapes swept");
    assert!(seen.iter().any(|s| s.stride > 1), "no strided shape swept");
    assert!(
        seen.iter().any(|s| s.dilation > 1),
        "no dilated shape swept"
    );
    assert!(seen.iter().any(|s| s.groups > 1), "no grouped shape swept");
}

#[test]
fn executable_zoo_networks_simulate_bit_exactly_under_all_algorithms() {
    let array = PimArray::new(96, 64).unwrap();
    let engine = PlanningEngine::new();
    let mut verified = 0usize;
    for network in [
        zoo::by_name("tiny").unwrap(),
        zoo::by_name("lenet5").unwrap(),
        zoo::vgg13_sim(),
        zoo::resnet18_sim(),
    ] {
        for alg in MappingAlgorithm::paper_trio() {
            let report = engine
                .simulate_network_batch_with(&network, array, alg, 2024, ExecMode::Quantized, 1, 1)
                .unwrap();
            assert!(
                report.is_fully_consistent(),
                "{} / {alg} / quantized: {report:?}",
                network.name()
            );
            verified += 1;
        }
        // Exact mode (no inter-stage rescaling; each stage in the
        // narrowest width that holds it) on one algorithm.
        let exact = engine
            .simulate_network_batch_with(
                &network,
                array,
                MappingAlgorithm::VwSdk,
                7,
                ExecMode::Exact,
                1,
                1,
            )
            .unwrap();
        assert!(
            exact.is_fully_consistent(),
            "{} / exact: {exact:?}",
            network.name()
        );
    }
    // >= 3 zoo networks x all 3 mapping algorithms (the acceptance bar).
    assert!(verified >= 12, "only {verified} network x algorithm runs");

    // The dilated atrous stack exercises dilation at network scale.
    let dilated = engine
        .simulate_network_batch_with(
            &zoo::by_name("dilated").unwrap(),
            PimArray::new(256, 128).unwrap(),
            MappingAlgorithm::VwSdk,
            5,
            ExecMode::Quantized,
            1,
            1,
        )
        .unwrap();
    assert!(dilated.is_fully_consistent(), "{dilated:?}");
}

#[test]
fn deployment_execution_reproduces_the_report_cycle_predictions() {
    let network = zoo::vgg13_sim();
    let chip = ChipConfig::new(24, PimArray::new(128, 128).unwrap(), 2_000).unwrap();
    let deployment =
        optimize::deploy_mixed(&network, &MappingAlgorithm::paper_trio(), &chip).unwrap();
    let report = DeploymentReport::with_defaults(network.name(), &deployment);
    let sim =
        simulate_deployment_batch(&network, &deployment, 11, ExecMode::Quantized, 1, 1).unwrap();
    assert!(sim.is_fully_consistent(), "{sim:?}");
    assert_eq!(sim.stages.len(), report.stages().len());
    let mut algorithms = HashSet::new();
    for (executed, predicted) in sim.stages.iter().zip(report.stages()) {
        assert_eq!(executed.layer, predicted.layer);
        assert_eq!(executed.algorithm, predicted.algorithm);
        assert_eq!(
            executed.executed_cycles, predicted.compute_cycles,
            "stage {:?} executed cycles disagree with the deployment report",
            executed.layer
        );
        algorithms.insert(executed.algorithm);
    }
    // The optimizer genuinely mixed algorithms on this starved chip.
    assert!(algorithms.len() > 1, "expected a mixed deployment");

    // Executing the same plans outside the deployment changes nothing.
    let plans: Vec<_> = deployment
        .allocations()
        .iter()
        .map(|a| a.plan().clone())
        .collect();
    assert_eq!(
        sim,
        simulate_network_batch(&network, &plans, 11, ExecMode::Quantized, 1, 1).unwrap()
    );
}
