//! A simulation records the simulator's process-wide telemetry counters
//! once, however many width segments it runs in. The counters are
//! process-wide, so this lives in its own test binary: no test running
//! in parallel can move them between the two reads.

use pim_arch::PimArray;
use pim_mapping::{MappingAlgorithm, MappingPlan};
use pim_nets::zoo;
use pim_sim::{simulate_network_batch, ExecMode, ScalarWidth};

#[test]
fn a_two_segment_simulation_records_its_counters_once() {
    use ScalarWidth::{I32, I64};
    let net = zoo::resnet18_sim();
    assert_eq!(
        ScalarWidth::for_stages(&net, ExecMode::Exact),
        Ok(vec![I32, I32, I64, I64, I64])
    );
    let array = PimArray::new(512, 512).expect("valid array");
    let plans: Vec<MappingPlan> = net
        .layers()
        .iter()
        .map(|l| MappingAlgorithm::VwSdk.plan(l, array).expect("plannable"))
        .collect();
    let names = [
        "pim_sim_array_programmings_total",
        "pim_sim_batch_elements_total",
        "pim_sim_macs_total",
    ];
    let read = || names.map(|name| pim_telemetry::global().counter(name, "", &[]).get());
    let before = read();
    let report = simulate_network_batch(&net, &plans, 2024, ExecMode::Exact, 3, 2)
        .expect("resnet18-sim simulates");
    let after = read();
    assert!(report.is_fully_consistent(), "{report:?}");
    let programmings = report.stages.iter().map(|s| s.array_programmings).sum();
    assert_eq!(
        [0, 1, 2].map(|i| after[i] - before[i]),
        [programmings, 3, report.total_macs()]
    );
}
