//! The `simulate` workload: the heaviest user operation.
//!
//! One op simulates vgg13-sim at batch 64 in quantized (i64) mode, then
//! resnet18-sim at batch 64 in exact (i128) mode, both VW-SDK on
//! 512×512 with seed = run seed + op index, through the engine's
//! `simulate_network_batch_with` with `nproc` stream workers. Planning
//! is all cache hits after set-up. Every report must be fully
//! consistent: bit-exact against the reference forward pass and with
//! executed cycles equal to the predicted ones.

use crate::outcome::{
    report_closed_loop, report_trace_health, write_trace, CacheDelta, Outcome, Setups,
};
use crate::stats::{keep_going, median, Latencies};
use crate::sweep::array;
use crate::trace::Tracer;
use crate::{nproc, Args};
use pim_arch::PimArray;
use pim_mapping::{MappingAlgorithm, MappingPlan};
use pim_nets::{zoo, Network};
use pim_sim::{ExecMode, ProgrammedStage, RunStats, SimulationReport, StageExecution};
use pim_tensor::{forward, gen, ops, Scalar, Tensor3, Tensor4};
use std::hint::black_box;
use std::time::Instant;
use vw_sdk::PlanningEngine;

const BATCH: usize = 64;
const ALGORITHM: MappingAlgorithm = MappingAlgorithm::VwSdk;

/// The two simulations of one op: network, inter-stage mode.
fn op_networks() -> [(Network, ExecMode); 2] {
    [
        (zoo::vgg13_sim(), ExecMode::Quantized),
        (zoo::resnet18_sim(), ExecMode::Exact),
    ]
}

fn setup(jobs: usize, networks: &[(Network, ExecMode)]) -> Result<PlanningEngine, String> {
    let engine = PlanningEngine::new().with_jobs(jobs);
    for (network, _) in networks {
        engine
            .plan_network_with(network, array(512, 512), &[ALGORITHM])
            .map_err(|e| e.to_string())?;
    }
    Ok(engine)
}

fn one_call(
    engine: &PlanningEngine,
    network: &Network,
    mode: ExecMode,
    seed: u64,
    jobs: usize,
) -> Result<SimulationReport, String> {
    engine
        .simulate_network_batch_with(network, array(512, 512), ALGORITHM, seed, mode, BATCH, jobs)
        .map_err(|e| e.to_string())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let jobs = nproc();
    let networks = op_networks();
    let mut out = Outcome::default();
    let (mut setups, engine) = Setups::before(|| setup(jobs, &networks))?;
    let warm = engine.stats();
    let tracer = args.trace.then(Tracer::new);
    let mut latencies = Latencies::default();
    let mut busy_s = 0.0;
    let mut macs = 0u64;
    let mut acc = SimTotals::default();
    let mut traced_ops = Vec::new();
    let mut untraced_s = Vec::new();
    let started = Instant::now();
    let mut index = 0u64;
    while keep_going(started, args.seconds, latencies.len()) {
        setups.between_ops(|| setup(jobs, &networks))?;
        let seed = args.seed.wrapping_add(index);
        out.attempted += 1;
        let started = Instant::now();
        let reports: Result<Vec<SimulationReport>, String> = networks
            .iter()
            .map(|(network, mode)| one_call(&engine, network, *mode, seed, jobs))
            .collect();
        let ended = Instant::now();
        let elapsed = ended.duration_since(started).as_secs_f64();
        let reports = match reports {
            Ok(reports) => reports,
            Err(e) => {
                out.failed += 1;
                out.note(format!("op {index} failed: {e}"));
                index += 1;
                continue;
            }
        };
        latencies.push(started, ended);
        busy_s += elapsed;
        macs += reports
            .iter()
            .map(SimulationReport::total_macs)
            .sum::<u64>();
        let mut ok = reports.iter().all(SimulationReport::is_fully_consistent);
        if let Some(tracer) = &tracer {
            untraced_s.push(elapsed);
            let rebuilt: Result<Vec<SimulationReport>, String> = {
                let _root = tracer.span("simulate.op", index);
                networks
                    .iter()
                    .map(|(network, mode)| {
                        traced_simulation(tracer, index, &engine, network, *mode, seed, &mut acc)
                    })
                    .collect()
            };
            traced_ops.push(tracer.finish_op(index));
            ok &= rebuilt.as_ref() == Ok(&reports);
        }
        black_box(&reports);
        if !ok {
            out.failed += 1;
            out.note(format!("op {index} (seed {seed}) failed its oracle"));
        }
        index += 1;
    }
    let Some(tracer) = tracer else {
        report_closed_loop(&mut out, &latencies, &setups)?;
        out.set("sim_macs_per_s", macs as f64 / busy_s);
        return Ok(out);
    };
    let ops = traced_ops.len().max(1) as f64;
    let busy = |name: &str| tracer.totals(name).busy_ns as f64 / 1e9 / ops;
    out.set("tensor.gen.busy_s", busy("tensor.gen"));
    out.set("sim.program.busy_s", busy("sim.program"));
    out.set("sim.program.arrays", acc.arrays as f64 / ops);
    out.set("sim.stream.busy_s", busy("sim.stream"));
    out.set("sim.stream.macs", acc.stream_macs as f64 / ops);
    out.set("sim.stream.wait_s", acc.wait_ns as f64 / 1e9 / ops);
    out.set("sim.interop.busy_s", busy("sim.interop"));
    out.set("tensor.forward.busy_s", busy("tensor.forward"));
    out.set("sim.verify.mismatches", acc.mismatches as f64 / ops);
    let stats = engine.stats();
    CacheDelta::between(&warm, &stats).report(&mut out, index.max(1) as f64, stats.plan_entries);
    out.note(format!(
        "traced ops {} untraced median {:.4} s",
        traced_ops.len(),
        median(&untraced_s)
    ));
    report_trace_health(&mut out, &traced_ops, &untraced_s);
    write_trace(&tracer, args)?;
    Ok(out)
}

/// Stage counters of a traced run, summed over ops.
#[derive(Debug, Default)]
struct SimTotals {
    arrays: u64,
    stream_macs: u64,
    wait_ns: u64,
    mismatches: u64,
}

/// Per-layer weight seed, as the simulator derives it.
fn weight_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index as u64 + 1)
}

/// Per-batch-element input seed, as the simulator derives it.
fn ifm_seed(seed: u64, element: usize) -> u64 {
    seed.wrapping_add((element as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn traced_simulation(
    tracer: &Tracer,
    op: u64,
    engine: &PlanningEngine,
    network: &Network,
    mode: ExecMode,
    seed: u64,
    acc: &mut SimTotals,
) -> Result<SimulationReport, String> {
    match mode {
        ExecMode::Quantized => rebuilt_as::<i64>(tracer, op, engine, network, mode, seed, acc),
        ExecMode::Exact => rebuilt_as::<i128>(tracer, op, engine, network, mode, seed, acc),
    }
}

/// `simulate_network_batch_with` rebuilt from public pieces under
/// spans: plan lookups (`core.plan`), tensor generation (`tensor.gen`),
/// crossbar programming (`sim.program`), the stream phase over the same
/// contiguous shards and thread count as `execute_batch`
/// (`sim.shards` > per-thread `sim.shard` > `sim.stream` and
/// `sim.interop` per stage), and the reference-forward check
/// (`tensor.forward`).
fn rebuilt_as<T: Scalar + Send + Sync>(
    tracer: &Tracer,
    op: u64,
    engine: &PlanningEngine,
    network: &Network,
    mode: ExecMode,
    seed: u64,
    acc: &mut SimTotals,
) -> Result<SimulationReport, String> {
    let array: PimArray = array(512, 512);
    let plans: Vec<MappingPlan> = {
        let _span = tracer.span("core.plan", op);
        network
            .layers()
            .iter()
            .map(|layer| engine.plan(layer, array, ALGORITHM))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?
    };
    let (ifms, weights) = {
        let _span = tracer.span("tensor.gen", op);
        let first = &network.layers()[0];
        let ifms: Vec<Tensor3<T>> = (0..BATCH)
            .map(|i| {
                gen::random3::<T>(
                    first.in_channels(),
                    first.input_h(),
                    first.input_w(),
                    ifm_seed(seed, i),
                )
            })
            .collect();
        let weights: Vec<Tensor4<T>> = network
            .layers()
            .iter()
            .enumerate()
            .map(|(i, layer)| {
                gen::random4::<T>(
                    layer.out_channels(),
                    layer.in_channels_per_group(),
                    layer.kernel_h(),
                    layer.kernel_w(),
                    weight_seed(seed, i),
                )
            })
            .collect();
        (ifms, weights)
    };
    let (programmed, program_stats) = {
        let _span = tracer.span("sim.program", op);
        let mut programmed = Vec::with_capacity(plans.len());
        let mut stats = Vec::with_capacity(plans.len());
        for (plan, bank) in plans.iter().zip(&weights) {
            let mut s = RunStats::new();
            programmed
                .push(ProgrammedStage::program(plan, bank, &mut s).map_err(|e| e.to_string())?);
            stats.push(s);
        }
        (programmed, stats)
    };
    let energy = pim_sim::Engine::new();
    let stream_stats: Vec<RunStats> = programmed
        .iter()
        .map(|stage| {
            let mut s = RunStats::new();
            stage.stream_stats(energy.energy_model(), &mut s);
            s
        })
        .collect();
    let ofms = {
        let phase = tracer.span("sim.shards", op);
        let parent = phase.id();
        let workers = nproc().clamp(1, BATCH);
        let (base, extra) = (BATCH / workers, BATCH % workers);
        let programmed = &programmed;
        let results = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            let mut lo = 0;
            for w in 0..workers {
                let hi = lo + base + usize::from(w < extra);
                let shard = &ifms[lo..hi];
                handles.push(scope.spawn(move || {
                    let result = {
                        let _shard = tracer.span_under("sim.shard", op, parent);
                        stream_shard(tracer, op, network, mode, programmed, shard)
                    };
                    (result, Instant::now())
                }));
                lo = hi;
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("stream worker panicked"))
                .collect::<Vec<_>>()
        });
        let last = results
            .iter()
            .map(|(_, end)| *end)
            .max()
            .expect("one shard");
        let mut all = Vec::with_capacity(BATCH);
        for (result, end) in results {
            acc.wait_ns += (last - end).as_nanos() as u64;
            all.extend(result?);
        }
        all
    };
    let b = BATCH as u64;
    let stages: Vec<StageExecution> = network
        .layers()
        .iter()
        .enumerate()
        .map(|(i, layer)| {
            let (ps, ss) = (&program_stats[i], &stream_stats[i]);
            acc.arrays += ps.array_programmings;
            acc.stream_macs += ss.macs * b;
            StageExecution {
                layer: layer.name().to_string(),
                algorithm: plans[i].algorithm(),
                descriptor: plans[i].descriptor(),
                predicted_cycles: plans[i].cycles() * b,
                executed_cycles: ps.computing_cycles + ss.computing_cycles * b,
                macs: ps.macs + ss.macs * b,
                adc_conversions: ps.adc_conversions + ss.adc_conversions * b,
                dac_conversions: ps.dac_conversions + ss.dac_conversions * b,
                array_programmings: ps.array_programmings,
                energy_pj: ps.energy_pj() + ss.energy_pj() * BATCH as f64,
            }
        })
        .collect();
    let (elements, mismatches) = {
        let _span = tracer.span("tensor.forward", op);
        let mut elements = 0;
        let mut mismatches = 0;
        for (ifm, ofm) in ifms.iter().zip(&ofms) {
            let reference =
                forward::forward(network, ifm, &weights, mode).map_err(|e| e.to_string())?;
            elements += reference.as_slice().len();
            mismatches += ofm
                .as_slice()
                .iter()
                .zip(reference.as_slice())
                .filter(|(a, b)| a != b)
                .count();
        }
        (elements, mismatches)
    };
    acc.mismatches += mismatches as u64;
    Ok(SimulationReport {
        network: network.name().to_string(),
        array: array.to_string(),
        seed,
        mode,
        batch: BATCH,
        stages,
        elements,
        mismatches,
    })
}

/// One shard streamed stage by stage, as `execute_batch`'s workers do.
fn stream_shard<T: Scalar>(
    tracer: &Tracer,
    op: u64,
    network: &Network,
    mode: ExecMode,
    programmed: &[ProgrammedStage<T>],
    shard: &[Tensor3<T>],
) -> Result<Vec<Tensor3<T>>, String> {
    let mut current = shard.to_vec();
    for (i, stage) in programmed.iter().enumerate() {
        let streamed = {
            let _span = tracer.span("sim.stream", op);
            stage.stream_batch(&current).map_err(|e| e.to_string())?
        };
        let _span = tracer.span("sim.interop", op);
        current = streamed
            .into_iter()
            .map(|ofm| {
                let after = forward::apply_ops(network.ops_after(i), ofm)?;
                Ok(if mode == ExecMode::Quantized {
                    ops::requant8(&after)
                } else {
                    after
                })
            })
            .collect::<Result<_, pim_tensor::ShapeError>>()
            .map_err(|e| e.to_string())?;
    }
    Ok(current)
}
