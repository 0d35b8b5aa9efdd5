//! The paper's amortization argument, measured: program once, stream N.
//!
//! A deployed network's crossbars hold their weights across inputs, so
//! the cost of programming (and of building the tile layouts) is paid
//! once per deployment while every extra input only pays the stream
//! phase. This example sweeps the batch size on vgg13-sim and prints
//! the resulting MACs/s trajectory — programmings stay constant while
//! throughput climbs — then double-checks with the full simulation
//! entry point that a batched run is still bit-exact against the
//! reference forward pass for every batch element.
//!
//! Run with: `cargo run --release --example batch_throughput`

use vw_sdk::pim_arch::PimArray;
use vw_sdk::pim_mapping::MappingAlgorithm;
use vw_sdk::pim_nets::zoo;
use vw_sdk::pim_sim::ExecMode;
use vw_sdk::PlanningEngine;
use vw_sdk_bench::simbench::{self, SimBenchOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let options = SimBenchOptions {
        batches: vec![1, 4, 16, 64],
        quick: true,
        ..SimBenchOptions::default()
    };
    let report = simbench::run(&options)?;
    print!("{}", report.render_text());

    // The trajectory's invariant: the program phase does not scale with
    // the batch.
    let baseline = report.point(1).expect("batch-1 point");
    for point in &report.points {
        assert_eq!(
            point.programmings, baseline.programmings,
            "programmings must not scale with the batch"
        );
        assert_eq!(point.macs, baseline.macs * point.batch as u64);
    }

    // Throughput is worthless if the answers drift: the simulation
    // entry point streams a batch through the same programmed state and
    // verifies every element against the reference forward pass.
    let engine = PlanningEngine::new();
    let sim = engine.simulate_network_batch_with(
        &zoo::vgg13_sim(),
        PimArray::new(512, 512)?,
        MappingAlgorithm::VwSdk,
        2024,
        ExecMode::Quantized,
        4,
        0,
    )?;
    assert!(sim.is_fully_consistent(), "batched run must stay bit-exact");
    println!(
        "\nverified: batch {} on {} -> {} elements, {} mismatches, cycles as predicted",
        sim.batch, sim.network, sim.elements, sim.mismatches
    );
    Ok(())
}
