//! A mixed-algorithm chip deployment executed end to end.
//!
//! The budget optimizer picks each layer's algorithm and array split for
//! the minimum pipeline bottleneck; the network executor then *runs* the
//! deployed plans — one input feature map streamed through every stage,
//! convolution on the crossbars, ReLU/pooling in the digital periphery —
//! and proves the chip computes exactly what the reference forward pass
//! computes, in exactly the predicted cycles.
//!
//! Run with: `cargo run --release --example simulate_network`

use vw_sdk::pim_arch::PimArray;
use vw_sdk::pim_chip::report::DeploymentReport;
use vw_sdk::pim_chip::ChipConfig;
use vw_sdk::pim_nets::zoo;
use vw_sdk::pim_sim::{simulate_deployment_batch, ExecMode};
use vw_sdk::PlanningEngine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let network = zoo::vgg13_sim();
    let chip = ChipConfig::new(24, PimArray::new(128, 128)?, 2_000)?;
    println!("{network}");
    println!(
        "chip  : {} arrays of {} ({} reload cycles)\n",
        chip.n_arrays(),
        chip.array(),
        chip.reprogram_cycles()
    );

    // Deploy with the mixed-algorithm optimizer (per-layer im2col/SDK/
    // VW-SDK choice + array split), then execute the deployed plans.
    let engine = PlanningEngine::new().with_jobs(0);
    let deployment = engine.deploy_network(&network, &chip)?;
    let report = DeploymentReport::with_defaults(network.name(), &deployment);
    let sim = simulate_deployment_batch(&network, &deployment, 2024, ExecMode::Quantized, 1, 1)?;

    println!("stage      algorithm  predicted  executed  = report.compute_cycles?");
    println!("----------------------------------------------------------------");
    for (stage, planned) in sim.stages.iter().zip(report.stages()) {
        assert_eq!(stage.executed_cycles, planned.compute_cycles);
        println!(
            "{:<10} {:<10} {:>9}  {:>8}  yes",
            stage.layer,
            stage.algorithm.label(),
            stage.predicted_cycles,
            stage.executed_cycles,
        );
    }
    assert!(sim.is_fully_consistent(), "simulation must be bit-exact");
    println!(
        "\noutput: {} elements, {} mismatches -> bit-exact against the reference forward pass",
        sim.elements, sim.mismatches
    );
    println!(
        "totals: {} executed cycles (= {} predicted), {} MACs, {} pJ",
        sim.executed_cycles(),
        sim.predicted_cycles(),
        sim.total_macs(),
        sim.total_energy_pj().round(),
    );
    Ok(())
}
