//! The two planning workloads.
//!
//! * `sweep-cold` — design-space traffic: every op sweeps the whole zoo
//!   over one array geometry the run has never used, then deploys one
//!   zoo network onto a chip of those arrays. Every lookup misses, so
//!   cold search and plan construction dominate.
//! * `sweep-warm` — the same sweep over the paper's four arrays after
//!   set-up planned them all: every plan is a cache read.

use crate::outcome::{
    report_closed_loop, report_trace_health, write_trace, CacheDelta, Outcome, Setups,
};
use crate::rng::Rng;
use crate::stats::{keep_going, Latencies};
use crate::trace::Tracer;
use crate::{nproc, Args};
use pim_arch::PimArray;
use pim_chip::{optimize, ChipConfig};
use pim_cost::search::SearchOptions;
use pim_mapping::{MappingAlgorithm, MappingPlan};
use pim_nets::{zoo, LayerShape, Network};
use std::cell::Cell;
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use vw_sdk::{NetworkReport, Planner, PlanningEngine};

/// sweep-cold bounds its one engine's caches the way the daemon does
/// (`ServerState::trim_caches`): a cache holding more entries than this
/// is cleared wholesale, outside the timed region. So its memory is set
/// by this cap, not by how many ops a run manages.
const CACHE_CAP: usize = 65_536;
/// Every this-many-th sweep-cold op is re-planned by the sequential
/// `Planner` and compared byte for byte.
const PLANNER_SAMPLE: u64 = 16;
/// Chip reload cost used by every deploy (the service default).
const REPROGRAM_CYCLES: u64 = 2_000;

/// Table I totals (im2col, SDK, VW-SDK) on a 512×512 array.
const TABLE1: [(&str, [u64; 3]); 2] = [
    ("ResNet-18", [20_041, 7_240, 4_294]),
    ("VGG-13", [243_736, 114_697, 77_102]),
];

pub fn array(rows: usize, cols: usize) -> PimArray {
    PimArray::new(rows, cols).expect("positive array geometry")
}

/// The paper's four array geometries (Fig. 8).
pub fn paper_arrays() -> [PimArray; 4] {
    [
        array(512, 512),
        array(512, 256),
        array(256, 256),
        array(128, 128),
    ]
}

/// Checks the Table I anchors on every 512×512 ResNet-18/VGG-13 report
/// in `reports`; returns how many anchors disagree.
fn table1_mismatches(reports: &[NetworkReport]) -> u64 {
    let trio = MappingAlgorithm::paper_trio();
    let mut mismatches = 0;
    for (name, totals) in TABLE1 {
        let found = reports
            .iter()
            .find(|r| r.network_name() == name && r.array() == array(512, 512));
        let ok = found.is_some_and(|report| {
            trio.iter()
                .zip(totals)
                .all(|(&alg, want)| report.total_cycles(alg) == Some(want))
        });
        if !ok {
            mismatches += 1;
        }
    }
    mismatches
}

/// Array geometries never handed out before in this run, and never one
/// of the `reserved` geometries.
pub struct FreshArrays {
    rng: Rng,
    seen: HashSet<(usize, usize)>,
}

impl FreshArrays {
    pub fn new(seed: u64, reserved: &[PimArray]) -> Self {
        Self {
            rng: Rng::new(seed),
            seen: reserved.iter().map(|a| (a.rows(), a.cols())).collect(),
        }
    }

    pub fn next(&mut self) -> PimArray {
        loop {
            let geometry = (self.rng.range(64, 1024), self.rng.range(64, 1024));
            if self.seen.insert(geometry) {
                return array(geometry.0, geometry.1);
            }
        }
    }
}

fn new_engine(jobs: usize) -> PlanningEngine {
    PlanningEngine::with_algorithms(&MappingAlgorithm::all()).with_jobs(jobs)
}

/// sweep-cold set-up: a fresh engine plus the Table I pair planned on
/// 512×512 through it. Returns the engine and its anchor mismatches.
fn cold_setup(jobs: usize) -> Result<(PlanningEngine, u64), String> {
    let engine = new_engine(jobs);
    let reports = engine
        .plan_networks(&[zoo::resnet18_table1(), zoo::vgg13()], array(512, 512))
        .map_err(|e| e.to_string())?;
    Ok((engine, table1_mismatches(&reports)))
}

/// The seeded inputs of one sweep-cold op.
struct ColdOp {
    array: PimArray,
    network: usize,
    chip: ChipConfig,
}

fn cold_op(arrays: &mut FreshArrays, rng: &mut Rng, networks: &[Network]) -> ColdOp {
    let array = arrays.next();
    let network = rng.range(0, networks.len() - 1);
    let layers = networks[network].len();
    let chip = ChipConfig::new(layers + rng.range(0, 3 * layers), array, REPROGRAM_CYCLES)
        .expect("at least one array per layer");
    ColdOp {
        array,
        network,
        chip,
    }
}

/// The sweep-cold oracles: the deployment must equal the sequential
/// `deploy_mixed` path, and every `PLANNER_SAMPLE`-th op's sweep must
/// equal the sequential `Planner` byte for byte. Returns `true` if all
/// checks pass.
fn cold_oracle(
    op_index: u64,
    op: &ColdOp,
    networks: &[Network],
    reports: &[NetworkReport],
    deployment: &pim_chip::allocate::Deployment,
) -> bool {
    let reference = optimize::deploy_mixed(
        &networks[op.network],
        &MappingAlgorithm::paper_trio(),
        &op.chip,
    );
    if reference.as_ref().ok() != Some(deployment) {
        return false;
    }
    if !op_index.is_multiple_of(PLANNER_SAMPLE) {
        return true;
    }
    let planner = Planner::with_algorithms(op.array, &MappingAlgorithm::all());
    reports.len() == networks.len()
        && networks.iter().zip(reports).all(|(network, report)| {
            planner
                .plan_network(network)
                .is_ok_and(|want| format!("{want:?}") == format!("{report:?}"))
        })
}

pub fn sweep_cold(args: &Args) -> Result<Outcome, String> {
    let jobs = nproc();
    let networks = zoo::all();
    let mut out = Outcome::default();
    let anchor_failures = Cell::new(0);
    let setup = || {
        cold_setup(jobs).map(|(engine, mismatches)| {
            anchor_failures.set(anchor_failures.get() + mismatches);
            engine
        })
    };
    let (mut setups, engine) = Setups::before(setup)?;
    let mut arrays = FreshArrays::new(args.seed, &[array(512, 512)]);
    let mut rng = Rng::new(args.seed.wrapping_add(1));
    let tracer = args.trace.then(Tracer::new);
    let mut latencies = Latencies::default();
    let mut traced_ops = Vec::new();
    let mut untraced_s = Vec::new();
    let mut search = SearchTotals::default();
    let mut clears = 0u64;
    let before = engine.stats();
    let started = Instant::now();
    let mut index = 0u64;
    while keep_going(started, args.seconds, latencies.len()) {
        clears += u64::from(engine.shed_caches_over(CACHE_CAP));
        setups.between_ops(setup)?;
        let op = cold_op(&mut arrays, &mut rng, &networks);
        let network = &networks[op.network];
        out.attempted += 1;
        let traced = tracer.is_some() && index.is_multiple_of(2);
        let started = Instant::now();
        let result = match &tracer {
            Some(tracer) if traced => {
                let result = traced_cold_op(tracer, index, &engine, &networks, &op, &mut search);
                traced_ops.push(tracer.finish_op(index));
                result
            }
            _ => engine
                .sweep_arrays(&networks, &[op.array])
                .and_then(|reports| Ok((reports, engine.deploy_network(network, &op.chip)?)))
                .map_err(|e| e.to_string()),
        };
        let ended = Instant::now();
        let elapsed = ended.duration_since(started).as_secs_f64();
        index += 1;
        let (reports, deployment) = match result {
            Ok(ok) => black_box(ok),
            Err(e) => {
                out.failed += 1;
                out.note(format!("op {index} failed: {e}"));
                continue;
            }
        };
        latencies.push(started, ended);
        if tracer.is_some() && !traced {
            untraced_s.push(elapsed);
        }
        if !cold_oracle(index - 1, &op, &networks, &reports, &deployment) {
            out.failed += 1;
            out.note(format!(
                "op {} on {} failed its oracle",
                index - 1,
                op.array
            ));
        }
    }
    out.failed += anchor_failures.get();
    out.note(format!(
        "{clears} wholesale cache clears at {CACHE_CAP} entries"
    ));
    let Some(tracer) = tracer else {
        report_closed_loop(&mut out, &latencies, &setups)?;
        return Ok(out);
    };
    let ops = traced_ops.len().max(1) as f64;
    // Cache counters cover every op; spans cover the traced half.
    let stats = engine.stats();
    CacheDelta::between(&before, &stats).report(&mut out, index.max(1) as f64, stats.plan_entries);
    search.report(&mut out, &tracer, ops);
    let per_op = |name: &str| tracer.totals(name).self_ns as f64 / 1e9 / ops;
    out.set("core.sweep.self_s", per_op("core.sweep"));
    out.set("core.deploy.self_s", per_op("core.deploy"));
    out.set(
        "chip.optimize.calls",
        tracer.totals("chip.optimize").calls as f64 / ops,
    );
    out.set(
        "chip.optimize.busy_s",
        tracer.totals("chip.optimize").busy_ns as f64 / 1e9 / ops,
    );
    report_trace_health(&mut out, &traced_ops, &untraced_s);
    write_trace(&tracer, args)?;
    Ok(out)
}

/// Candidate effort of the searches a traced sweep-cold run issued.
#[derive(Debug, Default)]
struct SearchTotals {
    evaluated: u64,
    pruned: u64,
}

impl SearchTotals {
    fn report(&self, out: &mut Outcome, tracer: &Tracer, ops: f64) {
        let spans = tracer.totals("cost.search");
        out.set("cost.search.calls", spans.calls as f64 / ops);
        out.set("cost.search.busy_s", spans.busy_ns as f64 / 1e9 / ops);
        out.set("cost.search.evaluated", self.evaluated as f64 / ops);
        out.set("cost.search.pruned", self.pruned as f64 / ops);
        let attempts = self.evaluated + self.pruned;
        out.set(
            "cost.search.pruned_frac",
            if attempts == 0 {
                0.0
            } else {
                self.pruned as f64 / attempts as f64
            },
        );
    }
}

/// One sweep-cold op rebuilt from public pieces under spans: every
/// distinct cold search first (`cost.search`), then the sweep on search
/// hits (`core.sweep`), then the deploy as candidate planning plus the
/// chip optimizer (`core.deploy` > `chip.optimize`). The deployment is
/// checked against the engine's one-call `deploy_network`.
fn traced_cold_op(
    tracer: &Tracer,
    op_index: u64,
    engine: &PlanningEngine,
    networks: &[Network],
    op: &ColdOp,
    search: &mut SearchTotals,
) -> Result<(Vec<NetworkReport>, pim_chip::allocate::Deployment), String> {
    let _root = tracer.span("sweep-cold.op", op_index);
    let mut options: Vec<SearchOptions> = Vec::new();
    for algorithm in MappingAlgorithm::all() {
        if let Some(o) = algorithm.search_options() {
            if !options.contains(&o) {
                options.push(o);
            }
        }
    }
    // The fan-out's own cost (task list, thread spawn and join) is
    // `cost.fanout` self time, the way `sweep_arrays` counts its own.
    let fanout = tracer.span("cost.fanout", op_index);
    let mut seen: HashSet<LayerShape> = HashSet::new();
    let mut tasks = Vec::new();
    for layer in networks.iter().flat_map(Network::layers) {
        if seen.insert(layer.shape()) {
            tasks.extend(options.iter().map(|&o| (layer, o)));
        }
    }
    // The distinct cold searches, fanned out over the engine's workers
    // the way `sweep_arrays` fans out its layers.
    let parent = fanout.id();
    let cursor = AtomicUsize::new(0);
    let effort = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..engine.jobs().max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut effort = (0u64, 0u64);
                    while let Some(&(layer, o)) = tasks.get(cursor.fetch_add(1, Ordering::Relaxed))
                    {
                        let _span = tracer.span_under("cost.search", op_index, parent);
                        let result = engine.search(layer, op.array, o);
                        effort.0 += result.evaluated() as u64;
                        effort.1 += result.pruned() as u64;
                    }
                    effort
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("search worker panicked"))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    });
    drop(fanout);
    search.evaluated += effort.0;
    search.pruned += effort.1;
    let reports = {
        let _span = tracer.span("core.sweep", op_index);
        engine
            .sweep_arrays(networks, &[op.array])
            .map_err(|e| e.to_string())?
    };
    let network = &networks[op.network];
    let deployment = {
        let _span = tracer.span("core.deploy", op_index);
        let mut candidates: Vec<Vec<MappingPlan>> = Vec::with_capacity(network.len());
        for layer in network.layers() {
            let mut plans = Vec::with_capacity(3);
            for algorithm in MappingAlgorithm::paper_trio() {
                plans.push(
                    engine
                        .plan(layer, op.array, algorithm)
                        .map_err(|e| e.to_string())?,
                );
            }
            candidates.push(plans);
        }
        let _optimize = tracer.span("chip.optimize", op_index);
        optimize::optimize_allocation(&candidates, &op.chip).map_err(|e| e.to_string())?
    };
    drop(_root);
    let one_call = engine
        .deploy_network(network, &op.chip)
        .map_err(|e| e.to_string())?;
    if one_call != deployment {
        return Err("rebuilt deploy differs from deploy_network".into());
    }
    Ok((reports, deployment))
}

pub fn sweep_warm(args: &Args) -> Result<Outcome, String> {
    let jobs = nproc();
    let networks = zoo::all();
    let arrays = paper_arrays();
    let mut out = Outcome::default();
    let anchor_failures = Cell::new(0);
    let setup = || -> Result<PlanningEngine, String> {
        let engine = new_engine(jobs);
        let reports = engine
            .sweep_arrays(&networks, &arrays)
            .map_err(|e| e.to_string())?;
        anchor_failures.set(anchor_failures.get() + table1_mismatches(&reports));
        Ok(engine)
    };
    let (mut setups, engine) = Setups::before(setup)?;
    let engine = engine.with_jobs(1);
    // The oracle: the sequential planner's reports, in sweep order.
    let mut expected = Vec::with_capacity(networks.len() * arrays.len());
    for network in &networks {
        for &a in &arrays {
            expected.push(
                Planner::with_algorithms(a, &MappingAlgorithm::all())
                    .plan_network(network)
                    .map_err(|e| e.to_string())?,
            );
        }
    }
    let tracer = args.trace.then(Tracer::new);
    let mut latencies = Latencies::default();
    let mut traced_ops = Vec::new();
    let mut untraced_s = Vec::new();
    let before = engine.stats();
    let started = Instant::now();
    let mut index = 0u64;
    while keep_going(started, args.seconds, latencies.len()) {
        setups.between_ops(setup)?;
        out.attempted += 1;
        let traced = tracer.as_ref().filter(|_| index.is_multiple_of(2));
        let started = Instant::now();
        let result = match traced {
            Some(tracer) => {
                let _root = tracer.span("sweep-warm.op", index);
                let _span = tracer.span("core.sweep", index);
                engine.sweep_arrays(&networks, &arrays)
            }
            None => engine.sweep_arrays(&networks, &arrays),
        };
        let ended = Instant::now();
        let elapsed = ended.duration_since(started).as_secs_f64();
        if let Some(tracer) = traced {
            traced_ops.push(tracer.finish_op(index));
        } else if tracer.is_some() {
            untraced_s.push(elapsed);
        }
        let ok = match &result {
            Ok(reports) if index == 0 => format!("{reports:?}") == format!("{expected:?}"),
            Ok(reports) => *reports == expected,
            Err(_) => false,
        };
        index += 1;
        latencies.push(started, ended);
        black_box(result.ok());
        if !ok {
            out.failed += 1;
        }
    }
    out.failed += anchor_failures.get();
    let Some(tracer) = tracer else {
        report_closed_loop(&mut out, &latencies, &setups)?;
        return Ok(out);
    };
    let stats = engine.stats();
    CacheDelta::between(&before, &stats).report(&mut out, index.max(1) as f64, stats.plan_entries);
    let ops = traced_ops.len().max(1) as f64;
    out.set(
        "core.sweep.self_s",
        tracer.totals("core.sweep").self_ns as f64 / 1e9 / ops,
    );
    report_trace_health(&mut out, &traced_ops, &untraced_s);
    write_trace(&tracer, args)?;
    Ok(out)
}
