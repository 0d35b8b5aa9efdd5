//! Executes every mapping algorithm on a real crossbar simulator and
//! checks the output against the reference convolution — the reproduction
//! equivalent of "it's not just a cost model, the mapping really computes
//! the convolution".
//!
//! Run with: `cargo run --example functional_check`

use vw_sdk::pim_arch::PimArray;
use vw_sdk::pim_mapping::MappingAlgorithm;
use vw_sdk::pim_nets::ConvLayer;
use vw_sdk::pim_sim::verify::verify_plan;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let layer = ConvLayer::square("demo", 12, 3, 4, 8)?;
    let array = PimArray::new(96, 64)?;
    println!("layer : {layer}");
    println!("array : {array}\n");

    println!("algorithm         window   cycles  output == reference?");
    println!("------------------------------------------------------");
    for alg in MappingAlgorithm::all() {
        let plan = alg.plan(&layer, array)?;
        let report = verify_plan(&plan, 2024)?;
        println!(
            "{:<17} {:>6}  {:>7}  {} ({} elements, {} mismatches)",
            alg.label(),
            plan.window().to_string(),
            report.executed_cycles(),
            if report.matches() { "yes" } else { "NO" },
            report.elements,
            report.mismatches
        );
        assert!(
            report.is_fully_consistent(),
            "{alg} failed functional verification"
        );
    }
    println!("\nAll mappings compute the exact convolution in exactly the predicted cycles.");
    Ok(())
}
