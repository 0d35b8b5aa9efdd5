//! Criterion benches of the Algorithm 1 window search (the paper's
//! offline cost) and full-network planning, plus the cached-vs-uncached
//! comparison of the `PlanningEngine` on the paper's network pair.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pim_arch::PimArray;
use pim_cost::search::{optimal_window_with, SearchOptions};
use pim_nets::{zoo, ConvLayer};
use std::hint::black_box;
use vw_sdk::{Planner, PlanningEngine};

fn bench_layer_search(c: &mut Criterion) {
    let array = PimArray::new(512, 512).unwrap();
    let mut group = c.benchmark_group("algorithm1_search");
    let layers = [
        (
            "resnet_stem_112x7",
            ConvLayer::square("s", 112, 7, 3, 64).unwrap(),
        ),
        (
            "vgg_conv2_224x3",
            ConvLayer::square("c", 224, 3, 64, 64).unwrap(),
        ),
        (
            "vgg_conv5_56x3",
            ConvLayer::square("c", 56, 3, 128, 256).unwrap(),
        ),
        ("deep_7x3", ConvLayer::square("c", 7, 3, 512, 512).unwrap()),
    ];
    for (name, layer) in &layers {
        group.bench_with_input(BenchmarkId::new("full", name), layer, |b, l| {
            b.iter(|| optimal_window_with(black_box(l), array, SearchOptions::paper()))
        });
        group.bench_with_input(BenchmarkId::new("pruned", name), layer, |b, l| {
            b.iter(|| optimal_window_with(black_box(l), array, SearchOptions::pruned()))
        });
    }
    group.finish();
}

fn bench_network_planning(c: &mut Criterion) {
    let planner = Planner::new(PimArray::new(512, 512).unwrap());
    let vgg = zoo::vgg13();
    let resnet = zoo::resnet18_table1();
    c.bench_function("plan_network/vgg13", |b| {
        b.iter(|| planner.plan_network(black_box(&vgg)).unwrap())
    });
    c.bench_function("plan_network/resnet18", |b| {
        b.iter(|| planner.plan_network(black_box(&resnet)).unwrap())
    });
}

/// The headline engine bench: planning the paper's VGG-13 + ResNet-18
/// pair across the Fig. 8(b) array sizes, uncached (a fresh sequential
/// `Planner` per report, as the seed tree did) versus through one warm,
/// memoized `PlanningEngine`. The cached path must win — every layer
/// shape's search resolves to a hash lookup, and the plan is rebuilt
/// from it.
fn bench_sweep_cached_vs_uncached(c: &mut Criterion) {
    let networks = [zoo::vgg13(), zoo::resnet18_table1()];
    let arrays: Vec<PimArray> = [128usize, 256, 512, 1024]
        .into_iter()
        .map(|n| PimArray::new(n, n).unwrap())
        .collect();

    let mut group = c.benchmark_group("paper_pair_sweep");
    group.bench_function("uncached_sequential", |b| {
        b.iter(|| {
            let mut reports = Vec::new();
            for network in &networks {
                for &array in &arrays {
                    let planner = Planner::new(array);
                    reports.push(planner.plan_network(black_box(network)).unwrap());
                }
            }
            reports
        })
    });

    let warm = PlanningEngine::new();
    warm.sweep_arrays(&networks, &arrays).unwrap();
    group.bench_function("cached_engine", |b| {
        b.iter(|| warm.sweep_arrays(black_box(&networks), &arrays).unwrap())
    });

    let parallel = PlanningEngine::new().with_jobs(0);
    parallel.sweep_arrays(&networks, &arrays).unwrap();
    group.bench_function("cached_engine_parallel", |b| {
        b.iter(|| {
            parallel
                .sweep_arrays(black_box(&networks), &arrays)
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_layer_search,
    bench_network_planning,
    bench_sweep_cached_vs_uncached
);
criterion_main!(benches);
