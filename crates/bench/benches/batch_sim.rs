//! Criterion bench of the batched network executor: MACs/s at batch
//! sizes 1, 8 and 64 on one programmed deployment.
//!
//! Batch 1 is the sequential baseline — what N independent
//! single-input simulations cost per image — so the per-iteration time
//! divided by the batch size read across the group *is* the
//! amortization trajectory. The small lenet5 workload keeps criterion's
//! repeated sampling affordable; the CI-tracked trajectory on the
//! paper's vgg13-sim workload comes from `vwsdk bench sim`
//! (`vw_sdk_bench::simbench`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pim_arch::PimArray;
use std::hint::black_box;
use vw_sdk_bench::simbench::{PreparedSim, SimBenchOptions};

const BATCHES: [usize; 3] = [1, 8, 64];

fn bench_batched_execution(c: &mut Criterion) {
    let options = SimBenchOptions {
        network: "lenet5".to_string(),
        array: PimArray::new(96, 64).expect("positive dimensions"),
        ..SimBenchOptions::default()
    };
    // `i32` is the width `simulate` picks for lenet5 in quantized mode
    // (`pim_sim::ScalarWidth::for_network`).
    let prepared = PreparedSim::<i32>::new(&options, *BATCHES.last().expect("non-empty"))
        .expect("lenet5 prepares");

    let mut group = c.benchmark_group("batch_sim");
    for batch in BATCHES {
        group.bench_with_input(
            BenchmarkId::new("execute_batch", batch),
            &batch,
            |b, &batch| b.iter(|| prepared.execute(black_box(batch))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_batched_execution);
criterion_main!(benches);
