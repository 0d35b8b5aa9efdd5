//! The paper's amortization argument, measured: program once, stream N.
//!
//! A deployed network's crossbars hold their weights across inputs, so
//! the cost of programming (and of building the tile layouts) is paid
//! once per deployment while every extra input only pays the stream
//! phase. This example times the production simulation call,
//! `PlanningEngine::simulate_network_batch_with`, on vgg13-sim at
//! batches 1, 4, 16 and 64 and prints the time per input. It fails
//! unless programmings stay constant across batches, MACs grow linearly
//! with the batch, every batch is bit-exact in its predicted cycles, and
//! batch 64 costs at most half as much per input as batch 1.
//!
//! Run with: `cargo run --release --example batch_throughput`

use std::time::Instant;
use vw_sdk::pim_arch::PimArray;
use vw_sdk::pim_mapping::MappingAlgorithm;
use vw_sdk::pim_nets::zoo;
use vw_sdk::pim_sim::{ExecMode, SimulationReport};
use vw_sdk::PlanningEngine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = PlanningEngine::new();
    let network = zoo::vgg13_sim();
    let array = PimArray::new(512, 512)?;
    let simulate = |batch: usize| -> Result<(SimulationReport, f64), Box<dyn std::error::Error>> {
        let started = Instant::now();
        let report = engine.simulate_network_batch_with(
            &network,
            array,
            MappingAlgorithm::VwSdk,
            2024,
            ExecMode::Quantized,
            batch,
            0,
        )?;
        Ok((report, started.elapsed().as_secs_f64()))
    };
    // One untimed call plans every layer into the engine's search memo,
    // so no timed batch pays the cold search.
    simulate(1)?;

    println!(
        "{} on {array}, VW-SDK, quantized, jobs 0\n{:>6}  {:>12}  {:>13}  {:>12}  {:>9}",
        network.name(),
        "batch",
        "programmings",
        "MACs",
        "ms/input",
        "vs batch 1"
    );
    let mut baseline: Option<(u64, u64, f64)> = None;
    for batch in [1, 4, 16, 64] {
        let (report, seconds) = simulate(batch)?;
        assert!(
            report.is_fully_consistent(),
            "batch {batch} must stay bit-exact in its predicted cycles"
        );
        let programmings: u64 = report.stages.iter().map(|s| s.array_programmings).sum();
        let macs = report.total_macs();
        let per_input = seconds / batch as f64;
        let (base_programmings, base_macs, base_per_input) =
            *baseline.get_or_insert((programmings, macs, per_input));
        println!(
            "{batch:>6}  {programmings:>12}  {macs:>13}  {:>12.3}  {:>8.2}x",
            per_input * 1e3,
            base_per_input / per_input
        );
        // The amortization: the program phase does not scale with the
        // batch, the stream phase does.
        assert_eq!(
            programmings, base_programmings,
            "programmings must not scale with the batch"
        );
        assert_eq!(
            macs,
            base_macs * batch as u64,
            "MACs must scale with the batch"
        );
        // Programming once runs batch 64 about four times cheaper per
        // input than batch 1 (2.4 to 5.7 times on a 2-core container;
        // programming is about 2 ms of batch 1's 5 ms). Reprogramming
        // every element, even uncounted, leaves only the per-call setup
        // to amortize: 1.2 to 1.7 times.
        if batch == 64 {
            assert!(
                2.0 * per_input <= base_per_input,
                "batch 64 costs {:.3} ms per input, batch 1 {:.3} ms: \
                 programming is not amortized",
                per_input * 1e3,
                base_per_input * 1e3
            );
        }
    }
    Ok(())
}
