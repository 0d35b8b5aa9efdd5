//! Command-line interface of the `vwsdk` binary.
//!
//! Hand-rolled argument parsing (the workspace's dependency policy keeps
//! the tree small); every subcommand maps onto the library API:
//!
//! ```text
//! vwsdk list
//! vwsdk plan   --network resnet18 --array 512x512
//! vwsdk plan   --spec examples/specs/edge_cnn.json --array 256x256
//! vwsdk layer  --input 56 --kernel 3 --ic 128 --oc 256 --array 512x512
//! vwsdk search --input 56 --kernel 3 --ic 128 --oc 256 --array 512x512 --top 5
//! vwsdk verify --network tiny --array 64x64
//! vwsdk simulate --network vgg13-sim --array 64x64 --seed 7 --format json
//! vwsdk simulate --network vgg13-sim --batch 8 --jobs 2
//! vwsdk sweep  --networks vgg13,resnet18 --arrays 256x256,512x512 --jobs 4
//! vwsdk sweep  --networks all --format json
//! vwsdk deploy --network resnet18 --arrays 32 --array 512x512 --format json
//! vwsdk deploy --spec examples/specs/edge_cnn.json --arrays 16 --reprogram 4000
//! vwsdk serve  --addr 127.0.0.1:7878 --jobs 8
//! ```
//!
//! `plan` and `layer` run through one process-wide, shape-memoizing
//! [`PlanningEngine`] — the same search memo path the `vwsdk serve`
//! daemon uses — so repeated shapes are searched once no matter the
//! entry point.

use pim_arch::{presets, PimArray};
use pim_mapping::MappingAlgorithm;
use pim_nets::{zoo, ConvLayer, Network, NetworkSpec};
use pim_report::table::{Align, TextTable};
use pim_report::{fmt_f64, fmt_speedup};
use pim_sim::verify::verify_plan;
use pim_sim::{ExecMode, SimulationReport};
use std::fmt;
use std::sync::OnceLock;
use vw_sdk::render::{render_speedups, render_table1};
use vw_sdk::PlanningEngine;
use vw_sdk_serve::{api, PlanServer};

/// Error produced by CLI parsing or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    message: String,
}

impl CliError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// Usage text shown for `--help` or on parse errors.
pub const USAGE: &str = "\
vwsdk — VW-SDK convolutional weight mapping for PIM crossbars (DATE 2022 reproduction)

USAGE:
    vwsdk <COMMAND> [OPTIONS]

COMMANDS:
    list                         List the model-zoo networks
    plan     Plan a network          (--network NAME | --spec FILE.json, --array RxC)
    layer    Compare one layer       (--input N --kernel K --ic N --oc N --array RxC
                                      [--stride S] [--padding P] [--dilation D])
    search   Show the window search  (same layer options, plus --top N)
    show     Draw a tile layout      (same layer options, plus --algorithm NAME)
    verify   Run the simulator       (--network NAME --array RxC [--seed N])
                                     per-layer bit-exact check of every paper
                                     algorithm against the reference
                                     convolution; exits nonzero unless every
                                     cell reads ok
    simulate Network-scale simulation (--network NAME | --spec FILE.json,
                                      --array RxC [--algorithm NAME] [--seed N]
                                      [--mode exact|quantized] [--batch N]
                                      [--jobs N] [--format text|json])
                                     programs every deployed stage once, then
                                     streams a batch of inputs through it
                                     (conv on crossbars, ReLU/pooling
                                     digitally) and verifies each output
                                     bit-exact against the reference forward
                                     pass, executed == predicted cycles;
                                     exits nonzero when either check fails
    sweep    Batch design-space plan (--networks a,b,... [--spec FILE.json]
                                      --arrays RxC,... --jobs N [--format text|json])
                                     defaults: every zoo network, the Fig. 8(b)
                                     array sizes, one worker per core
    deploy   Chip-scale deployment   (--network NAME | --spec FILE.json,
                                      --arrays N --array RxC --reprogram N
                                      [--format table|json])
                                     mixed-algorithm budget optimizer: per-layer
                                     im2col/SDK/VW-SDK choice + array split for
                                     the minimum pipeline bottleneck
    serve    HTTP planning daemon    (--addr HOST:PORT --jobs N
                                      [--shards N] [--timeout-ms N])
                                     endpoints: GET /healthz, GET /v1/networks,
                                     GET /v1/metrics, POST /v1/plan,
                                     POST /v1/sweep, POST /v1/deploy,
                                     POST /v1/simulate; one JSON access-log
                                     line per request on stderr
    check    In-tree static analysis ([--root DIR] [--format text|json]
                                      [--list-rules])
                                     runs the pim-lint rules over the
                                     workspace (unsafe placement, SAFETY:
                                     and ORDERING: justifications, banned
                                     macros, doc-table drift); exits
                                     nonzero on any violation — the same
                                     gate CI and the repo's own test
                                     suite enforce (docs/STATIC_ANALYSIS.md)

OPTIONS:
    --array RxC     PIM array geometry, e.g. 512x512 (default 512x512)
    --network NAME  Zoo network name (see `vwsdk list`)
    --networks A,B  Comma-separated zoo networks, or `all` (sweep)
    --arrays X      Sweep: comma-separated geometries; deploy: the chip's
                    array count (default 128)
    --reprogram N   Deploy: array reload cost in cycles (default 2000)
    --spec FILE     JSON network spec (plan, sweep, deploy, simulate;
                    see examples/specs/)
    --format F      Output: text/table (default) or json (sweep, deploy,
                    simulate)
    --seed N        Data seed for generated tensors (verify, simulate;
                    default 2024) — same seed, same bytes, on any machine
    --mode M        Simulate: exact (no rescaling) or quantized (int8-style
                    inter-stage requantization; default); runs each stage
                    in the narrowest of i32/i64/i128 that provably holds
                    its values, never narrower than the stage before
    --batch N       Simulate: input feature maps streamed through one
                    programmed deployment (default 1; must be >= 1)
    --jobs N        Worker threads; 0 = one per core (sweep: planners,
                    serve: connection workers, simulate: batch stream
                    workers)
    --addr H:P      Serve bind address (default 127.0.0.1:7878)
    --shards N      Serve: event-loop shards (default 0 = auto, capped at 4)
    --timeout-ms N  Serve: idle/read/write deadline in ms (default 30000)
    --root DIR      Check: workspace root to analyze (default: walk up
                    from the current directory to the first [workspace])
    --list-rules    Check: print the rule catalog instead of running
    --trace         Global: emit one JSON trace event per span to stderr
    --metrics-dump  Global: after the command, print the telemetry
                    registry as JSON (same schema as
                    GET /v1/metrics?format=json) to stdout
    --help          Show this text
";

/// Where `vwsdk plan` gets its network from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkSource {
    /// A model-zoo name (`--network`).
    Zoo(String),
    /// A JSON network-spec file (`--spec`).
    SpecFile(String),
}

/// Output format of `vwsdk sweep` and `vwsdk deploy` (`--format`
/// accepts `text` and `table` interchangeably for the first variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepFormat {
    /// The aligned text table (default).
    Text,
    /// The service's JSON schema (`api::report_summary_json` per sweep
    /// report, `api::deployment_json` for a deployment).
    Json,
}

/// A parsed command, ready to execute.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `vwsdk list`
    List,
    /// `vwsdk plan`
    Plan {
        /// Zoo name or spec file to plan.
        network: NetworkSource,
        /// Target array.
        array: PimArray,
    },
    /// `vwsdk layer`
    Layer {
        /// The layer to compare.
        layer: ConvLayer,
        /// Target array.
        array: PimArray,
    },
    /// `vwsdk search`
    Search {
        /// The layer to search.
        layer: ConvLayer,
        /// Target array.
        array: PimArray,
        /// How many best candidates to print.
        top: usize,
    },
    /// `vwsdk show`
    Show {
        /// The layer whose layout to draw.
        layer: ConvLayer,
        /// Target array.
        array: PimArray,
        /// Algorithm whose first tile to draw.
        algorithm: MappingAlgorithm,
    },
    /// `vwsdk verify`
    Verify {
        /// Zoo network name.
        network: String,
        /// Target array.
        array: PimArray,
        /// Data seed.
        seed: u64,
    },
    /// `vwsdk simulate`
    Simulate {
        /// Zoo name or spec file to simulate.
        network: NetworkSource,
        /// Target array.
        array: PimArray,
        /// Algorithm mapping every layer.
        algorithm: MappingAlgorithm,
        /// Data seed.
        seed: u64,
        /// Inter-stage execution mode.
        mode: ExecMode,
        /// Input feature maps streamed through the programmed network.
        batch: usize,
        /// Stream-phase worker threads (0 = one per core).
        jobs: usize,
        /// Output format.
        format: SweepFormat,
    },
    /// `vwsdk sweep`
    Sweep {
        /// Zoo networks to plan.
        networks: Vec<String>,
        /// Extra spec-file network to include.
        spec: Option<String>,
        /// Array geometries to plan them on.
        arrays: Vec<PimArray>,
        /// Worker threads (0 = one per core).
        jobs: usize,
        /// Output format.
        format: SweepFormat,
    },
    /// `vwsdk deploy`
    Deploy {
        /// Zoo name or spec file to deploy.
        network: NetworkSource,
        /// Geometry of each crossbar array on the chip.
        array: PimArray,
        /// The chip's array budget.
        arrays: usize,
        /// Array reload cost in cycles.
        reprogram: u64,
        /// Output format.
        format: SweepFormat,
    },
    /// `vwsdk serve`
    Serve {
        /// Bind address (`HOST:PORT`).
        addr: String,
        /// Handler worker threads (0 = one per core).
        jobs: usize,
        /// Event-loop shards (0 = auto, capped at 4).
        shards: usize,
        /// Idle/read/write deadline in milliseconds.
        timeout_ms: u64,
    },
    /// `vwsdk check`
    Check {
        /// Workspace root to analyze (`None` = auto-discover by walking
        /// up from the current directory).
        root: Option<String>,
        /// Output format for the violation report.
        format: SweepFormat,
        /// Print the rule catalog instead of running the rules.
        list_rules: bool,
    },
    /// `vwsdk --help` (or no arguments).
    Help,
}

fn take_value<'a>(
    args: &'a [String],
    i: &mut usize,
    flag: &str,
) -> std::result::Result<&'a str, CliError> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| CliError::new(format!("missing value for {flag}")))
}

struct LayerArgs {
    input: Option<usize>,
    kernel: Option<usize>,
    ic: Option<usize>,
    oc: Option<usize>,
    stride: usize,
    padding: usize,
    dilation: usize,
}

impl LayerArgs {
    fn new() -> Self {
        Self {
            input: None,
            kernel: None,
            ic: None,
            oc: None,
            stride: 1,
            padding: 0,
            dilation: 1,
        }
    }

    fn build(&self) -> std::result::Result<ConvLayer, CliError> {
        let input = self
            .input
            .ok_or_else(|| CliError::new("--input is required"))?;
        let kernel = self
            .kernel
            .ok_or_else(|| CliError::new("--kernel is required"))?;
        let ic = self.ic.ok_or_else(|| CliError::new("--ic is required"))?;
        let oc = self.oc.ok_or_else(|| CliError::new("--oc is required"))?;
        ConvLayer::builder("cli-layer")
            .input(input, input)
            .kernel(kernel, kernel)
            .channels(ic, oc)
            .stride(self.stride)
            .padding(self.padding)
            .dilation(self.dilation)
            .build()
            .map_err(|e| CliError::new(e.to_string()))
    }
}

fn parse_usize(text: &str, flag: &str) -> std::result::Result<usize, CliError> {
    text.parse()
        .map_err(|_| CliError::new(format!("{flag} expects an integer, got {text:?}")))
}

/// Parses raw arguments (without the program name) into a [`Command`].
///
/// # Errors
///
/// Returns [`CliError`] with a human-readable message for unknown
/// commands, unknown flags, missing values or malformed numbers.
pub fn parse(args: &[String]) -> std::result::Result<Command, CliError> {
    let Some(command) = args.first() else {
        return Ok(Command::Help);
    };
    if command == "--help" || command == "-h" || command == "help" {
        return Ok(Command::Help);
    }

    let mut array = PimArray::new(512, 512).expect("positive default");
    let mut network = None;
    let mut layer_args = LayerArgs::new();
    let mut top = 10usize;
    let mut seed = 2024u64;
    let mut algorithm = MappingAlgorithm::VwSdk;
    let mut array_set = false;
    let mut networks: Option<Vec<String>> = None;
    // `--arrays` is a geometry list for sweep but an array count for
    // deploy, so it stays raw until the command is known.
    let mut arrays_raw: Option<String> = None;
    let mut jobs = 0usize;
    let mut spec: Option<String> = None;
    let mut format = SweepFormat::Text;
    let mut mode = ExecMode::Quantized;
    let mut reprogram = 2_000u64;
    let mut addr = "127.0.0.1:7878".to_string();
    let mut batch = 1usize;
    let mut shards = 0usize;
    let mut timeout_ms = 30_000u64;
    let mut root: Option<String> = None;
    let mut list_rules = false;

    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--array" => {
                let v = take_value(args, &mut i, flag)?;
                array = presets::parse_array(v).map_err(|e| CliError::new(e.to_string()))?;
                array_set = true;
            }
            "--network" => network = Some(take_value(args, &mut i, flag)?.to_string()),
            "--networks" => {
                let v = take_value(args, &mut i, flag)?;
                networks = Some(v.split(',').map(str::to_string).collect());
            }
            "--arrays" => arrays_raw = Some(take_value(args, &mut i, flag)?.to_string()),
            "--jobs" => jobs = parse_usize(take_value(args, &mut i, flag)?, flag)?,
            "--reprogram" => {
                reprogram = take_value(args, &mut i, flag)?
                    .parse()
                    .map_err(|_| CliError::new("--reprogram expects an integer cycle count"))?
            }
            "--spec" => spec = Some(take_value(args, &mut i, flag)?.to_string()),
            "--addr" => addr = take_value(args, &mut i, flag)?.to_string(),
            "--batch" => {
                batch = parse_usize(take_value(args, &mut i, flag)?, flag)?;
                if batch == 0 {
                    return Err(CliError::new(
                        "--batch must be at least 1 (a batch of 0 inputs simulates nothing)",
                    ));
                }
            }
            "--root" => root = Some(take_value(args, &mut i, flag)?.to_string()),
            "--list-rules" => list_rules = true,
            "--shards" => shards = parse_usize(take_value(args, &mut i, flag)?, flag)?,
            "--timeout-ms" => {
                timeout_ms = take_value(args, &mut i, flag)?
                    .parse()
                    .ok()
                    .filter(|&ms| ms > 0)
                    .ok_or_else(|| {
                        CliError::new("--timeout-ms expects a positive millisecond count")
                    })?
            }
            "--format" => {
                let v = take_value(args, &mut i, flag)?;
                format = match v.to_ascii_lowercase().as_str() {
                    "text" | "table" => SweepFormat::Text,
                    "json" => SweepFormat::Json,
                    other => {
                        return Err(CliError::new(format!(
                            "--format expects text, table or json, got {other:?}"
                        )))
                    }
                };
            }
            "--input" => {
                layer_args.input = Some(parse_usize(take_value(args, &mut i, flag)?, flag)?)
            }
            "--kernel" => {
                layer_args.kernel = Some(parse_usize(take_value(args, &mut i, flag)?, flag)?)
            }
            "--ic" => layer_args.ic = Some(parse_usize(take_value(args, &mut i, flag)?, flag)?),
            "--oc" => layer_args.oc = Some(parse_usize(take_value(args, &mut i, flag)?, flag)?),
            "--stride" => layer_args.stride = parse_usize(take_value(args, &mut i, flag)?, flag)?,
            "--padding" => layer_args.padding = parse_usize(take_value(args, &mut i, flag)?, flag)?,
            "--dilation" => {
                layer_args.dilation = parse_usize(take_value(args, &mut i, flag)?, flag)?
            }
            "--top" => top = parse_usize(take_value(args, &mut i, flag)?, flag)?,
            "--algorithm" => {
                let v = take_value(args, &mut i, flag)?;
                algorithm = MappingAlgorithm::all()
                    .into_iter()
                    .find(|a| a.label().eq_ignore_ascii_case(v))
                    .ok_or_else(|| CliError::new(format!("unknown algorithm {v:?}")))?;
            }
            "--seed" => {
                seed = take_value(args, &mut i, flag)?
                    .parse()
                    .ok()
                    // The JSON schema stores seeds as exact f64 integers,
                    // so the CLI accepts the same 2^53 range the server
                    // does — keeping `--format json` output re-runnable
                    // and byte-identical to the wire.
                    .filter(|s| *s <= (1u64 << 53))
                    .ok_or_else(|| CliError::new("--seed expects an integer <= 2^53"))?
            }
            "--mode" => {
                let v = take_value(args, &mut i, flag)?;
                mode = ExecMode::by_label(v).ok_or_else(|| {
                    CliError::new(format!("--mode expects exact or quantized, got {v:?}"))
                })?;
            }
            "--help" | "-h" => return Ok(Command::Help),
            other => return Err(CliError::new(format!("unknown option {other:?}"))),
        }
        i += 1;
    }

    match command.as_str() {
        "list" => Ok(Command::List),
        "plan" => Ok(Command::Plan {
            network: match (network, spec) {
                (Some(_), Some(_)) => {
                    return Err(CliError::new(
                        "plan takes either --network or --spec, not both",
                    ))
                }
                (Some(name), None) => NetworkSource::Zoo(name),
                (None, Some(path)) => NetworkSource::SpecFile(path),
                (None, None) => return Err(CliError::new("plan requires --network or --spec")),
            },
            array,
        }),
        "layer" => Ok(Command::Layer {
            layer: layer_args.build()?,
            array,
        }),
        "search" => Ok(Command::Search {
            layer: layer_args.build()?,
            array,
            top,
        }),
        "show" => Ok(Command::Show {
            layer: layer_args.build()?,
            array,
            algorithm,
        }),
        "verify" => Ok(Command::Verify {
            network: network.ok_or_else(|| CliError::new("verify requires --network"))?,
            array,
            seed,
        }),
        "simulate" => Ok(Command::Simulate {
            network: match (network, spec) {
                (Some(_), Some(_)) => {
                    return Err(CliError::new(
                        "simulate takes either --network or --spec, not both",
                    ))
                }
                (Some(name), None) => NetworkSource::Zoo(name),
                (None, Some(path)) => NetworkSource::SpecFile(path),
                (None, None) => return Err(CliError::new("simulate requires --network or --spec")),
            },
            array,
            algorithm,
            seed,
            mode,
            batch,
            jobs,
            format,
        }),
        "sweep" => {
            // Catch the singular spellings every other subcommand uses —
            // silently falling back to the whole-zoo defaults would run a
            // much larger, wrong sweep.
            if network.is_some() {
                return Err(CliError::new(
                    "sweep takes --networks (plural, comma-separated), not --network",
                ));
            }
            if array_set {
                return Err(CliError::new(
                    "sweep takes --arrays (plural, comma-separated), not --array",
                ));
            }
            let arrays = match &arrays_raw {
                None => presets::fig8b_sweep()
                    .iter()
                    .map(|preset| preset.array)
                    .collect(),
                Some(raw) => raw
                    .split(',')
                    .map(|geometry| {
                        presets::parse_array(geometry).map_err(|e| CliError::new(e.to_string()))
                    })
                    .collect::<std::result::Result<Vec<_>, _>>()?,
            };
            Ok(Command::Sweep {
                // With an explicit spec file and no --networks, sweep
                // just that network instead of the whole zoo.
                networks: networks.unwrap_or_else(|| {
                    if spec.is_some() {
                        Vec::new()
                    } else {
                        vec!["all".to_string()]
                    }
                }),
                spec,
                arrays,
                jobs,
                format,
            })
        }
        "deploy" => Ok(Command::Deploy {
            network: match (network, spec) {
                (Some(_), Some(_)) => {
                    return Err(CliError::new(
                        "deploy takes either --network or --spec, not both",
                    ))
                }
                (Some(name), None) => NetworkSource::Zoo(name),
                (None, Some(path)) => NetworkSource::SpecFile(path),
                (None, None) => return Err(CliError::new("deploy requires --network or --spec")),
            },
            array,
            arrays: match &arrays_raw {
                // The PipeLayer-like budget, matching POST /v1/deploy.
                None => 128,
                Some(raw) => parse_usize(raw, "--arrays")?,
            },
            reprogram,
            format,
        }),
        "serve" => Ok(Command::Serve {
            addr,
            jobs,
            shards,
            timeout_ms,
        }),
        "check" => Ok(Command::Check {
            root,
            format,
            list_rules,
        }),
        other => Err(CliError::new(format!(
            "unknown command {other:?}; try `vwsdk --help`"
        ))),
    }
}

/// A parsed command plus the global observability flags, which any
/// subcommand accepts in any position.
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// The command to execute.
    pub command: Command,
    /// `--trace`: emit one JSON trace event per span to stderr.
    pub trace: bool,
    /// `--metrics-dump`: after the command, print the telemetry
    /// registry as JSON — the same `api::metrics_json` structure
    /// `GET /v1/metrics?format=json` answers, byte for byte.
    pub metrics_dump: bool,
}

/// Parses raw arguments into an [`Invocation`]: strips the global
/// `--trace` / `--metrics-dump` flags wherever they appear, then hands
/// the rest to [`parse`].
///
/// # Errors
///
/// Same as [`parse`].
pub fn parse_invocation(args: &[String]) -> std::result::Result<Invocation, CliError> {
    let mut trace = false;
    let mut metrics_dump = false;
    let rest: Vec<String> = args
        .iter()
        .filter(|arg| match arg.as_str() {
            "--trace" => {
                trace = true;
                false
            }
            "--metrics-dump" => {
                metrics_dump = true;
                false
            }
            _ => true,
        })
        .cloned()
        .collect();
    Ok(Invocation {
        command: parse(&rest)?,
        trace,
        metrics_dump,
    })
}

fn lookup_network(name: &str) -> std::result::Result<pim_nets::Network, CliError> {
    zoo::by_name(name).ok_or_else(|| {
        CliError::new(format!(
            "unknown network {name:?}; run `vwsdk list` for the zoo"
        ))
    })
}

fn resolve_networks(names: &[String]) -> std::result::Result<Vec<Network>, CliError> {
    if names.iter().any(|n| n.eq_ignore_ascii_case("all")) {
        return Ok(zoo::all());
    }
    names.iter().map(|name| lookup_network(name)).collect()
}

/// Loads and validates a `--spec FILE.json` network.
fn load_spec_network(path: &str) -> std::result::Result<Network, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::new(format!("cannot read spec {path:?}: {e}")))?;
    let spec =
        NetworkSpec::parse(&text).map_err(|e| CliError::new(format!("spec {path:?}: {e}")))?;
    spec.to_network()
        .map_err(|e| CliError::new(format!("spec {path:?}: {e}")))
}

/// The process-wide planning engine: `plan`, `layer` and the serve
/// daemon's in-process siblings all share this one shape-keyed memo,
/// configured with every implemented algorithm so any subset can be
/// answered per call.
fn shared_engine() -> &'static PlanningEngine {
    static ENGINE: OnceLock<PlanningEngine> = OnceLock::new();
    ENGINE.get_or_init(|| PlanningEngine::with_algorithms(&MappingAlgorithm::all()))
}

/// Renders a simulation as `vwsdk simulate` prints it. A report that
/// is not bit-exact, or whose executed cycles differ from the
/// prediction, is an error carrying the same rendering, so a failed
/// verification exits nonzero.
fn render_simulation(
    report: &SimulationReport,
    format: SweepFormat,
) -> std::result::Result<String, CliError> {
    let rendered = if format == SweepFormat::Json {
        // api::simulation_json is the same function POST /v1/simulate
        // answers with, byte for byte.
        api::simulation_json(report).render()
    } else {
        let mut table = TextTable::new(&[
            "layer",
            "algorithm",
            "plan",
            "predicted",
            "executed",
            "MACs",
            "ADC",
            "DAC",
            "energy pJ",
        ]);
        for c in 3..9 {
            table.align(c, Align::Right);
        }
        for stage in &report.stages {
            table.add_row(&[
                stage.layer.clone(),
                stage.algorithm.label().to_string(),
                stage.descriptor.clone(),
                stage.predicted_cycles.to_string(),
                stage.executed_cycles.to_string(),
                stage.macs.to_string(),
                stage.adc_conversions.to_string(),
                stage.dac_conversions.to_string(),
                fmt_f64(stage.energy_pj, 0),
            ]);
        }
        format!(
            "{} on {} ({} mode, seed {}, batch {})\n\n{}\n\
             output: {} elements, {} mismatches -> {}\n\
             cycles: {} executed / {} predicted -> {}\n\
             total: {} MACs, {} pJ\n",
            report.network,
            report.array,
            report.mode,
            report.seed,
            report.batch,
            table.render(),
            report.elements,
            report.mismatches,
            if report.matches() {
                "bit-exact against the reference forward pass"
            } else {
                "MISMATCH"
            },
            report.executed_cycles(),
            report.predicted_cycles(),
            if report.cycles_match() {
                "every stage as predicted"
            } else {
                "DISAGREEMENT"
            },
            report.total_macs(),
            fmt_f64(report.total_energy_pj(), 0),
        )
    };
    if report.is_fully_consistent() {
        Ok(rendered)
    } else {
        Err(CliError::new(rendered))
    }
}

/// Executes a parsed command, returning its printable output.
///
/// # Errors
///
/// Returns [`CliError`] for unknown networks or failed planning.
pub fn run(command: &Command) -> std::result::Result<String, CliError> {
    match command {
        Command::Help => Ok(USAGE.to_string()),
        Command::List => {
            let mut out = String::from("model zoo:\n");
            for net in zoo::all() {
                out.push_str(&format!(
                    "  {:<16} {:>2} conv layers, {:>10} params\n",
                    net.name(),
                    net.len(),
                    net.total_params()
                ));
            }
            Ok(out)
        }
        Command::Plan { network, array } => {
            let net = match network {
                NetworkSource::Zoo(name) => lookup_network(name)?,
                NetworkSource::SpecFile(path) => load_spec_network(path)?,
            };
            let report = shared_engine()
                .plan_network_with(&net, *array, &MappingAlgorithm::paper_trio())
                .map_err(|e| CliError::new(e.to_string()))?;
            Ok(format!(
                "{}\n{}",
                render_table1(&report),
                render_speedups(&report, MappingAlgorithm::Im2col)
            ))
        }
        Command::Layer { layer, array } => {
            let cmp = shared_engine()
                .plan_layer_with(layer, *array, &MappingAlgorithm::all())
                .map_err(|e| CliError::new(e.to_string()))?;
            let mut out = format!("{layer} on {array}\n\n");
            for plan in cmp.plans() {
                out.push_str(&format!(
                    "{:<17} window {:>6}  {}x{}  cycles {:>8}\n",
                    plan.algorithm().label(),
                    plan.window().to_string(),
                    plan.tiled_ic(),
                    plan.tiled_oc(),
                    plan.cycles()
                ));
            }
            Ok(out)
        }
        Command::Search { layer, array, top } => {
            let options = pim_cost::search::SearchOptions {
                collect_trace: true,
                ..Default::default()
            };
            let result = pim_cost::search::optimal_window_with(layer, *array, options);
            // The landscape dump above is exhaustive on purpose (every
            // feasible candidate appears); the production pruned scan is
            // run alongside so the printed counts say what planning
            // actually costs.
            let pruned = pim_cost::search::optimal_window_with(
                layer,
                *array,
                pim_cost::search::SearchOptions::pruned(),
            );
            let mut trace = result.trace().to_vec();
            trace.sort_by_key(|c| c.cycles);
            let mut out = format!(
                "{layer} on {array}: im2col {} cycles, {} candidates ({} feasible); \
                 pruned search evaluates {} and skips {}\n\n",
                result.im2col().cycles,
                result.evaluated(),
                result.feasible(),
                pruned.evaluated(),
                pruned.pruned()
            );
            for cost in trace.iter().take(*top) {
                out.push_str(&format!(
                    "  {:>7}  ICt {:>4}  OCt {:>4}  AR {:>3}  AC {:>2}  cycles {:>9}\n",
                    cost.window.to_string(),
                    cost.tiled_ic,
                    cost.tiled_oc,
                    cost.ar_cycles,
                    cost.ac_cycles,
                    cost.cycles
                ));
            }
            Ok(out)
        }
        Command::Show {
            layer,
            array,
            algorithm,
        } => {
            let plan = algorithm
                .plan(layer, *array)
                .map_err(|e| CliError::new(e.to_string()))?;
            let layout = pim_mapping::layout::TileLayout::build(&plan, 0, 0)
                .map_err(|e| CliError::new(e.to_string()))?;
            Ok(format!(
                "{plan}\n\n{}",
                pim_mapping::layout::render_ascii(&layout, 48, 100)
            ))
        }
        Command::Sweep {
            networks,
            spec,
            arrays,
            jobs,
            format,
        } => {
            let mut resolved = resolve_networks(networks)?;
            if let Some(path) = spec {
                resolved.push(load_spec_network(path)?);
            }
            if resolved.is_empty() {
                return Err(CliError::new("the sweep names no networks"));
            }
            let engine = PlanningEngine::new().with_jobs(*jobs);
            let reports = engine
                .sweep_arrays(&resolved, arrays)
                .map_err(|e| CliError::new(e.to_string()))?;
            if *format == SweepFormat::Json {
                // api::sweep_json is the same function POST /v1/sweep
                // answers with, so file and wire output cannot drift.
                return Ok(api::sweep_json(&reports, &engine.stats(), &engine).render_pretty());
            }
            let mut table = TextTable::new(&[
                "network",
                "array",
                "im2col",
                "SDK",
                "VW-SDK",
                "VW vs im2col",
                "VW vs SDK",
            ]);
            for c in 2..7 {
                table.align(c, Align::Right);
            }
            for report in &reports {
                let im2col = report
                    .total_cycles(MappingAlgorithm::Im2col)
                    .expect("configured");
                let sdk = report
                    .total_cycles(MappingAlgorithm::Sdk)
                    .expect("configured");
                let vw = report
                    .total_cycles(MappingAlgorithm::VwSdk)
                    .expect("configured");
                table.add_row(&[
                    report.network_name().to_string(),
                    report.array().to_string(),
                    im2col.to_string(),
                    sdk.to_string(),
                    vw.to_string(),
                    fmt_speedup(im2col as f64 / vw as f64),
                    fmt_speedup(sdk as f64 / vw as f64),
                ]);
            }
            Ok(format!(
                "{}\nplanning cache: {}\n",
                table.render(),
                engine.stats()
            ))
        }
        Command::Deploy {
            network,
            array,
            arrays,
            reprogram,
            format,
        } => {
            let net = match network {
                NetworkSource::Zoo(name) => lookup_network(name)?,
                NetworkSource::SpecFile(path) => load_spec_network(path)?,
            };
            let chip = pim_chip::ChipConfig::new(*arrays, *array, *reprogram)
                .map_err(|e| CliError::new(e.to_string()))?;
            let deployment = shared_engine()
                .deploy_network_with(&net, &chip, &MappingAlgorithm::paper_trio())
                .map_err(|e| CliError::new(e.to_string()))?;
            let report = pim_chip::report::DeploymentReport::with_defaults(net.name(), &deployment);
            if *format == SweepFormat::Json {
                // api::deployment_json is the same function POST
                // /v1/deploy answers with, byte for byte.
                return Ok(api::deployment_json(&report).render());
            }
            let mut table = TextTable::new(&[
                "layer",
                "algorithm",
                "plan",
                "tiles",
                "arrays",
                "resident",
                "stage cycles",
            ]);
            for c in [3, 4, 6] {
                table.align(c, Align::Right);
            }
            for stage in report.stages() {
                table.add_row(&[
                    stage.layer.clone(),
                    stage.algorithm.label().to_string(),
                    stage.descriptor.clone(),
                    stage.tiles.to_string(),
                    stage.arrays.to_string(),
                    if stage.resident { "yes" } else { "no" }.to_string(),
                    stage.stage_cycles.to_string(),
                ]);
            }
            let bottleneck_stage = report
                .bottleneck_stage()
                .and_then(|i| report.stages().get(i))
                .map_or_else(|| "-".to_string(), |s| s.layer.clone());
            Ok(format!(
                "{} on {} arrays of {} ({} reload cycles)\n\n{}\n\
                 arrays used: {} / {}   tiles: {}   fully resident: {}\n\
                 bottleneck: {} cycles ({})   latency: {} cycles\n\
                 throughput: {} images/s   energy: {} pJ/image\n",
                net.name(),
                chip.n_arrays(),
                chip.array(),
                chip.reprogram_cycles(),
                table.render(),
                report.arrays_used(),
                chip.n_arrays(),
                report.tiles_demanded(),
                if report.fully_resident() { "yes" } else { "no" },
                report.bottleneck_cycles(),
                bottleneck_stage,
                report.latency_cycles(),
                fmt_f64(report.throughput_ips(), 0),
                fmt_f64(report.energy_per_image_pj(), 0),
            ))
        }
        Command::Serve {
            addr,
            jobs,
            shards,
            timeout_ms,
        } => {
            let config = vw_sdk_serve::ServeConfig {
                jobs: *jobs,
                shards: *shards,
                timeout: std::time::Duration::from_millis(*timeout_ms),
                ..vw_sdk_serve::ServeConfig::default()
            };
            let server = PlanServer::bind_with(addr.as_str(), config)
                .map_err(|e| CliError::new(format!("cannot bind {addr:?}: {e}")))?;
            // The daemon logs every request to stderr; embedded servers
            // (tests) keep the default of staying quiet.
            server.state().set_access_log(true);
            let local = server
                .local_addr()
                .map_err(|e| CliError::new(e.to_string()))?;
            eprintln!(
                "vwsdk serve: listening on http://{local} ({} workers, {} shards, \
                 {timeout_ms}ms timeout)",
                server.state().pool_size(),
                server.state().shards()
            );
            eprintln!(
                "try: curl -s http://{local}/healthz | head; \
                 curl -s -X POST http://{local}/v1/plan -d '{{\"network\":\"resnet18\"}}'"
            );
            server
                .run()
                .map_err(|e| CliError::new(format!("server failed: {e}")))?;
            Ok(String::new())
        }
        Command::Simulate {
            network,
            array,
            algorithm,
            seed,
            mode,
            batch,
            jobs,
            format,
        } => {
            let net = match network {
                NetworkSource::Zoo(name) => lookup_network(name)?,
                NetworkSource::SpecFile(path) => load_spec_network(path)?,
            };
            let report = shared_engine()
                .simulate_network_batch_with(&net, *array, *algorithm, *seed, *mode, *batch, *jobs)
                .map_err(|e| CliError::new(e.to_string()))?;
            render_simulation(&report, *format)
        }
        Command::Check {
            root,
            format,
            list_rules,
        } => {
            use pim_report::json::JsonValue;
            if *list_rules {
                if *format == SweepFormat::Json {
                    let rules = pim_lint::RULES.iter().map(|rule| {
                        JsonValue::object([
                            ("name", JsonValue::from(rule.name)),
                            ("summary", JsonValue::from(rule.summary)),
                            ("suppressible", JsonValue::from(rule.suppressible)),
                        ])
                    });
                    return Ok(
                        JsonValue::object([("rules", JsonValue::array(rules))]).render_pretty()
                    );
                }
                let mut out = String::from("rules (suppress with `// lint:allow(<name>)`):\n");
                for rule in pim_lint::RULES {
                    out.push_str(&format!(
                        "  {:<24} {}{}\n",
                        rule.name,
                        rule.summary
                            .split_whitespace()
                            .collect::<Vec<_>>()
                            .join(" "),
                        if rule.suppressible {
                            ""
                        } else {
                            " [not suppressible]"
                        }
                    ));
                }
                return Ok(out);
            }
            let root_dir = match root {
                Some(dir) => std::path::PathBuf::from(dir),
                None => {
                    let cwd = std::env::current_dir()
                        .map_err(|e| CliError::new(format!("cannot read current dir: {e}")))?;
                    pim_lint::find_repo_root(&cwd).ok_or_else(|| {
                        CliError::new(
                            "no [workspace] Cargo.toml above the current directory; \
                             pass --root DIR",
                        )
                    })?
                }
            };
            let report = pim_lint::check_repo(&root_dir)
                .map_err(|e| CliError::new(format!("cannot scan {}: {e}", root_dir.display())))?;
            if *format == SweepFormat::Json {
                let violations = report.violations.iter().map(|v| {
                    JsonValue::object([
                        ("rule", JsonValue::from(v.rule)),
                        ("file", JsonValue::from(v.file.as_str())),
                        ("line", JsonValue::from(v.line)),
                        ("message", JsonValue::from(v.message.as_str())),
                    ])
                });
                let rendered = JsonValue::object([
                    ("files_scanned", JsonValue::from(report.files_scanned)),
                    ("clean", JsonValue::from(report.is_clean())),
                    ("violations", JsonValue::array(violations)),
                ])
                .render_pretty();
                if report.is_clean() {
                    return Ok(rendered);
                }
                return Err(CliError::new(rendered));
            }
            if report.is_clean() {
                return Ok(format!("checked {} files: clean\n", report.files_scanned));
            }
            let listing: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
            Err(CliError::new(format!(
                "{}\nchecked {} files: {} violation(s)",
                listing.join("\n"),
                report.files_scanned,
                report.violations.len()
            )))
        }
        Command::Verify {
            network,
            array,
            seed,
        } => {
            let net = lookup_network(network)?;
            let mut out = format!("functional verification of {} on {array}:\n", net.name());
            let mut failed = false;
            for layer in &net {
                for alg in MappingAlgorithm::paper_trio() {
                    let plan = alg
                        .plan(layer, *array)
                        .map_err(|e| CliError::new(e.to_string()))?;
                    match verify_plan(&plan, *seed) {
                        Ok(report) => {
                            let ok = report.is_fully_consistent();
                            failed |= !ok;
                            out.push_str(&format!(
                                "  {:<8} {:<8} {} ({} cycles)\n",
                                layer.name(),
                                alg.label(),
                                if ok { "ok" } else { "MISMATCH" },
                                report.executed_cycles()
                            ));
                        }
                        Err(e) => {
                            failed = true;
                            out.push_str(&format!(
                                "  {:<8} {:<8} skipped ({e})\n",
                                layer.name(),
                                alg.label()
                            ));
                        }
                    }
                }
            }
            // Like `vwsdk check`, a failed cell fails the command and
            // the error carries the whole table.
            if failed {
                return Err(CliError::new(out));
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_report::json::JsonValue;

    fn argv(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_and_help_parse_to_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("plan --help")).unwrap(), Command::Help);
    }

    #[test]
    fn plan_requires_network_or_spec() {
        assert!(parse(&argv("plan")).is_err());
        let cmd = parse(&argv("plan --network resnet18 --array 256x256")).unwrap();
        match cmd {
            Command::Plan { network, array } => {
                assert_eq!(network, NetworkSource::Zoo("resnet18".into()));
                assert_eq!(array.to_string(), "256x256");
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(&argv("plan --spec nets/my.json")).unwrap();
        match cmd {
            Command::Plan { network, .. } => {
                assert_eq!(network, NetworkSource::SpecFile("nets/my.json".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
        let err = parse(&argv("plan --network tiny --spec my.json")).unwrap_err();
        assert!(err.to_string().contains("not both"), "{err}");
    }

    #[test]
    fn layer_parsing_builds_a_layer() {
        let cmd = parse(&argv(
            "layer --input 56 --kernel 3 --ic 128 --oc 256 --dilation 2 --padding 2",
        ))
        .unwrap();
        match cmd {
            Command::Layer { layer, .. } => {
                assert_eq!(layer.input_w(), 56);
                assert_eq!(layer.dilation(), 2);
                assert_eq!(layer.padding(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_flags_and_commands_error() {
        assert!(parse(&argv("plan --network resnet18 --bogus 1")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("layer --input")).is_err());
        assert!(parse(&argv("layer --input x")).is_err());
        // The retired `vwsdk bench` and the flags only it read.
        assert!(parse(&argv("bench sim")).is_err());
        for flag in [
            "--batches 1,8",
            "--emit out.json",
            "--quick",
            "--check",
            "--requests 10",
            "--concurrency 2",
            "--keep-alive",
            "--sweep 1,8",
        ] {
            let args = argv(&format!("simulate --network tiny {flag}"));
            assert!(parse(&args).is_err(), "{flag} still parses");
        }
    }

    #[test]
    fn list_runs() {
        let out = run(&Command::List).unwrap();
        assert!(out.contains("VGG-13"));
        assert!(out.contains("ResNet-18"));
    }

    #[test]
    fn plan_resnet_reports_table1_totals() {
        let cmd = parse(&argv("plan --network resnet18")).unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("Total cycles (VW-SDK): 4294"), "{out}");
        assert!(out.contains("4.67x"), "{out}");
    }

    #[test]
    fn layer_command_lists_all_algorithms() {
        let cmd = parse(&argv("layer --input 14 --kernel 3 --ic 256 --oc 256")).unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("VW-SDK"));
        assert!(out.contains("504"));
    }

    #[test]
    fn search_command_prints_top_candidates() {
        let cmd = parse(&argv(
            "search --input 14 --kernel 3 --ic 256 --oc 256 --top 3",
        ))
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("4x3"), "{out}");
        assert_eq!(out.lines().filter(|l| l.contains("cycles ")).count(), 3);
    }

    #[test]
    fn verify_command_checks_tiny_network() {
        // Golden bytes of `vwsdk verify --network tiny --array 64x64
        // --seed 7`: every (layer, algorithm) cell bit-exact, in its
        // predicted cycles.
        const EXPECTED: &str = concat!(
            "functional verification of tiny on 64x64:\n",
            "  c1       im2col   ok (36 cycles)\n",
            "  c1       SDK      ok (4 cycles)\n",
            "  c1       VW-SDK   ok (3 cycles)\n",
            "  c2       im2col   ok (16 cycles)\n",
            "  c2       SDK      ok (4 cycles)\n",
            "  c2       VW-SDK   ok (4 cycles)\n",
        );
        let cmd = parse(&argv("verify --network tiny --array 64x64 --seed 7")).unwrap();
        assert_eq!(run(&cmd).unwrap(), EXPECTED);
    }

    #[test]
    fn show_command_draws_a_layout() {
        let cmd = parse(&argv(
            "show --input 8 --kernel 3 --ic 1 --oc 2 --array 16x16 --algorithm vw-sdk",
        ))
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains('#'), "{out}");
        assert!(parse(&argv(
            "show --input 8 --kernel 3 --ic 1 --oc 2 --algorithm bogus"
        ))
        .is_err());
    }

    #[test]
    fn sweep_defaults_cover_the_zoo_and_fig8b_arrays() {
        let cmd = parse(&argv("sweep")).unwrap();
        match &cmd {
            Command::Sweep {
                networks,
                spec,
                arrays,
                jobs,
                format,
            } => {
                assert_eq!(networks, &["all".to_string()]);
                assert_eq!(spec, &None);
                assert_eq!(arrays.len(), 5);
                assert_eq!(*jobs, 0);
                assert_eq!(*format, SweepFormat::Text);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sweep_parses_explicit_lists() {
        let cmd = parse(&argv(
            "sweep --networks vgg13,resnet18 --arrays 256x256,512x512 --jobs 4 --format json",
        ))
        .unwrap();
        match &cmd {
            Command::Sweep {
                networks,
                arrays,
                jobs,
                format,
                ..
            } => {
                assert_eq!(networks.len(), 2);
                assert_eq!(arrays[1].to_string(), "512x512");
                assert_eq!(*jobs, 4);
                assert_eq!(*format, SweepFormat::Json);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("sweep --arrays bogus")).is_err());
        assert!(parse(&argv("sweep --format yaml")).is_err());
    }

    #[test]
    fn sweep_with_a_spec_drops_the_zoo_default() {
        let cmd = parse(&argv("sweep --spec my.json --arrays 64x64")).unwrap();
        match &cmd {
            Command::Sweep { networks, spec, .. } => {
                assert!(networks.is_empty());
                assert_eq!(spec.as_deref(), Some("my.json"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // An explicit --networks list still rides along with the spec.
        let cmd = parse(&argv("sweep --networks tiny --spec my.json")).unwrap();
        match &cmd {
            Command::Sweep { networks, .. } => assert_eq!(networks, &["tiny".to_string()]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn deploy_parses_defaults_and_flags() {
        let cmd = parse(&argv("deploy --network resnet18")).unwrap();
        assert_eq!(
            cmd,
            Command::Deploy {
                network: NetworkSource::Zoo("resnet18".into()),
                array: PimArray::new(512, 512).unwrap(),
                arrays: 128,
                reprogram: 2_000,
                format: SweepFormat::Text,
            }
        );
        let cmd = parse(&argv(
            "deploy --spec my.json --arrays 32 --array 256x256 --reprogram 4000 --format json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Deploy {
                network: NetworkSource::SpecFile("my.json".into()),
                array: PimArray::new(256, 256).unwrap(),
                arrays: 32,
                reprogram: 4_000,
                format: SweepFormat::Json,
            }
        );
        // `table` is accepted as the text spelling.
        let cmd = parse(&argv("deploy --network tiny --format table")).unwrap();
        match cmd {
            Command::Deploy { format, .. } => assert_eq!(format, SweepFormat::Text),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("deploy")).is_err());
        assert!(parse(&argv("deploy --network a --spec b.json")).is_err());
        assert!(parse(&argv("deploy --network tiny --arrays 512x512")).is_err());
        assert!(parse(&argv("deploy --network tiny --reprogram lots")).is_err());
    }

    #[test]
    fn deploy_table_reports_the_mixed_deployment() {
        let cmd = parse(&argv("deploy --network resnet18 --arrays 32")).unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("ResNet-18 on 32 arrays of 512x512"), "{out}");
        assert!(out.contains("bottleneck:"), "{out}");
        assert!(out.contains("VW-SDK"), "{out}");
        assert!(out.contains("images/s"), "{out}");
    }

    #[test]
    fn deploy_json_is_the_service_payload() {
        // The CLI's --format json bytes must match what POST /v1/deploy
        // answers for the same question (the acceptance criterion).
        let cmd = parse(&argv(
            "deploy --network resnet18 --arrays 32 --array 512x512 --format json",
        ))
        .unwrap();
        let out = run(&cmd).unwrap();
        let chip = pim_chip::ChipConfig::new(32, PimArray::new(512, 512).unwrap(), 2_000)
            .expect("valid chip");
        let deployment = pim_chip::optimize::deploy_mixed(
            &zoo::resnet18_table1(),
            &MappingAlgorithm::paper_trio(),
            &chip,
        )
        .unwrap();
        let expected = api::deployment_json(&pim_chip::report::DeploymentReport::with_defaults(
            "ResNet-18",
            &deployment,
        ))
        .render();
        assert_eq!(out, expected);
        assert!(JsonValue::parse(&out).is_ok());
    }

    #[test]
    fn deploy_rejects_impossible_chips() {
        let cmd = parse(&argv("deploy --network resnet18 --arrays 3")).unwrap();
        let err = run(&cmd).unwrap_err();
        assert!(err.to_string().contains("3 arrays"), "{err}");
        let cmd = parse(&argv("deploy --network tiny --arrays 0")).unwrap();
        let err = run(&cmd).unwrap_err();
        assert!(err.to_string().contains("at least 1 array"), "{err}");
    }

    #[test]
    fn simulate_parses_defaults_and_flags() {
        let cmd = parse(&argv("simulate --network vgg13-sim")).unwrap();
        assert_eq!(
            cmd,
            Command::Simulate {
                network: NetworkSource::Zoo("vgg13-sim".into()),
                array: PimArray::new(512, 512).unwrap(),
                algorithm: MappingAlgorithm::VwSdk,
                seed: 2_024,
                mode: ExecMode::Quantized,
                batch: 1,
                jobs: 0,
                format: SweepFormat::Text,
            }
        );
        let cmd = parse(&argv(
            "simulate --spec my.json --array 64x64 --algorithm im2col \
             --seed 7 --mode exact --batch 8 --jobs 2 --format json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Simulate {
                network: NetworkSource::SpecFile("my.json".into()),
                array: PimArray::new(64, 64).unwrap(),
                algorithm: MappingAlgorithm::Im2col,
                seed: 7,
                mode: ExecMode::Exact,
                batch: 8,
                jobs: 2,
                format: SweepFormat::Json,
            }
        );
        assert!(parse(&argv("simulate")).is_err());
        assert!(parse(&argv("simulate --network a --spec b.json")).is_err());
        assert!(parse(&argv("simulate --network tiny --mode fuzzy")).is_err());
    }

    #[test]
    fn simulate_rejects_a_zero_batch() {
        let err = parse(&argv("simulate --network tiny --batch 0")).unwrap_err();
        assert!(
            err.to_string().contains("--batch must be at least 1"),
            "{err}"
        );
        assert!(parse(&argv("simulate --network tiny --batch x")).is_err());
    }

    #[test]
    fn simulate_batch_streams_and_aggregates() {
        let cmd = parse(&argv(
            "simulate --network tiny --array 64x64 --seed 42 --batch 3 --jobs 2",
        ))
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(
            out.contains("tiny on 64x64 (quantized mode, seed 42, batch 3)"),
            "{out}"
        );
        assert!(
            out.contains("bit-exact against the reference forward pass"),
            "{out}"
        );
        assert!(out.contains("every stage as predicted"), "{out}");
    }

    #[test]
    fn global_observability_flags_parse_anywhere() {
        let plain = parse_invocation(&argv("plan --network tiny")).unwrap();
        assert!(!plain.trace && !plain.metrics_dump);
        assert!(matches!(plain.command, Command::Plan { .. }));

        let flagged =
            parse_invocation(&argv("--trace plan --network tiny --metrics-dump")).unwrap();
        assert!(flagged.trace && flagged.metrics_dump);
        // The globals are invisible to the subcommand parser.
        assert_eq!(flagged.command, plain.command);

        assert!(parse_invocation(&argv("frobnicate --trace")).is_err());
    }

    #[test]
    fn simulate_text_reports_bit_exactness() {
        let cmd = parse(&argv("simulate --network tiny --array 64x64 --seed 42")).unwrap();
        let out = run(&cmd).unwrap();
        assert!(
            out.contains("tiny on 64x64 (quantized mode, seed 42, batch 1)"),
            "{out}"
        );
        assert!(
            out.contains("bit-exact against the reference forward pass"),
            "{out}"
        );
        assert!(out.contains("every stage as predicted"), "{out}");
        assert!(!out.contains("MISMATCH"), "{out}");
    }

    #[test]
    fn simulate_fails_on_a_mismatch_or_a_cycle_disagreement() {
        let report = vw_sdk::PlanningEngine::new()
            .simulate_network_batch_with(
                &zoo::tiny(),
                PimArray::new(64, 64).unwrap(),
                MappingAlgorithm::VwSdk,
                42,
                ExecMode::Quantized,
                1,
                1,
            )
            .unwrap();
        for format in [SweepFormat::Text, SweepFormat::Json] {
            assert!(render_simulation(&report, format).is_ok());
        }
        let mut mismatched = report.clone();
        mismatched.mismatches = 1;
        let mut disagreeing = report;
        disagreeing.stages[1].executed_cycles += 1;
        for (failed, text, json) in [
            (mismatched, "-> MISMATCH", r#""bit_exact":false"#),
            (disagreeing, "-> DISAGREEMENT", r#""cycles_match":false"#),
        ] {
            // The error carries the full rendering the caller would
            // otherwise have printed.
            let err = render_simulation(&failed, SweepFormat::Text).unwrap_err();
            assert!(err.to_string().contains(text), "{err}");
            let err = render_simulation(&failed, SweepFormat::Json).unwrap_err();
            assert!(err.to_string().contains(json), "{err}");
        }
    }

    #[test]
    fn simulate_json_is_the_service_payload() {
        // The CLI's --format json bytes must match what POST /v1/simulate
        // answers for the same question (the acceptance criterion).
        let cmd = parse(&argv(
            "simulate --network lenet5 --array 96x64 --seed 7 --format json",
        ))
        .unwrap();
        let out = run(&cmd).unwrap();
        let expected = vw_sdk::PlanningEngine::new()
            .simulate_network_batch_with(
                &zoo::lenet5(),
                PimArray::new(96, 64).unwrap(),
                MappingAlgorithm::VwSdk,
                7,
                ExecMode::Quantized,
                1,
                1,
            )
            .unwrap();
        assert_eq!(out, api::simulation_json(&expected).render());
        assert!(JsonValue::parse(&out).is_ok());
    }

    #[test]
    fn simulate_json_of_one_input_is_pinned_in_both_modes() {
        // Golden bytes of `vwsdk simulate --network tiny --array 64x64
        // --seed 42 --format json`, with and without `--mode exact`: a
        // one-element batch must keep answering exactly these.
        const QUANTIZED: &str = concat!(
            r#"{"network":"tiny","array":"64x64","seed":42,"mode":"quantized","batch":1,"#,
            r#""stages":[{"layer":"c1","algorithm":"VW-SDK","descriptor":"8x4x2x4","#,
            r#""predicted_cycles":3,"executed_cycles":3,"macs":2592,"adc_conversions":144,"#,
            r#""dac_conversions":192,"array_programmings":1,"energy_pj":318.37},"#,
            r#"{"layer":"c2","algorithm":"VW-SDK","descriptor":"4x4x4x8","#,
            r#""predicted_cycles":4,"executed_cycles":4,"macs":4608,"adc_conversions":128,"#,
            r#""dac_conversions":256,"array_programmings":1,"energy_pj":295.91}],"#,
            r#""elements":128,"mismatches":0,"bit_exact":true,"cycles_match":true,"#,
            r#""executed_cycles":7,"predicted_cycles":7,"macs":7200,"energy_pj":614.28}"#,
        );
        const EXACT: &str = concat!(
            r#"{"network":"tiny","array":"64x64","seed":42,"mode":"exact","batch":1,"#,
            r#""stages":[{"layer":"c1","algorithm":"VW-SDK","descriptor":"8x4x2x4","#,
            r#""predicted_cycles":3,"executed_cycles":3,"macs":2592,"adc_conversions":144,"#,
            r#""dac_conversions":192,"array_programmings":1,"energy_pj":318.37},"#,
            r#"{"layer":"c2","algorithm":"VW-SDK","descriptor":"4x4x4x8","#,
            r#""predicted_cycles":4,"executed_cycles":4,"macs":4608,"adc_conversions":128,"#,
            r#""dac_conversions":256,"array_programmings":1,"energy_pj":295.91}],"#,
            r#""elements":128,"mismatches":0,"bit_exact":true,"cycles_match":true,"#,
            r#""executed_cycles":7,"predicted_cycles":7,"macs":7200,"energy_pj":614.28}"#,
        );
        for (mode_flag, expected) in [("", QUANTIZED), (" --mode exact", EXACT)] {
            let cmd = parse(&argv(&format!(
                "simulate --network tiny --array 64x64 --seed 42 --format json{mode_flag}"
            )))
            .unwrap();
            assert_eq!(run(&cmd).unwrap(), expected, "mode flag {mode_flag:?}");
        }
    }

    #[test]
    fn simulate_rejects_unchained_networks() {
        let cmd = parse(&argv("simulate --network vgg13")).unwrap();
        let err = run(&cmd).unwrap_err();
        assert!(err.to_string().contains("conv1"), "{err}");
    }

    #[test]
    fn serve_parses_addr_and_jobs() {
        let cmd = parse(&argv("serve")).unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                addr: "127.0.0.1:7878".into(),
                jobs: 0,
                shards: 0,
                timeout_ms: 30_000,
            }
        );
        let cmd = parse(&argv(
            "serve --addr 0.0.0.0:9000 --jobs 8 --shards 2 --timeout-ms 5000",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                addr: "0.0.0.0:9000".into(),
                jobs: 8,
                shards: 2,
                timeout_ms: 5000,
            }
        );
        assert!(parse(&argv("serve --timeout-ms 0")).is_err());
    }

    #[test]
    fn sweep_rejects_the_singular_flag_spellings() {
        let err = parse(&argv("sweep --network vgg13")).unwrap_err();
        assert!(err.to_string().contains("--networks"), "{err}");
        let err = parse(&argv("sweep --array 512x512")).unwrap_err();
        assert!(err.to_string().contains("--arrays"), "{err}");
    }

    #[test]
    fn sweep_reports_table1_cells_and_cache_stats() {
        let cmd = parse(&argv(
            "sweep --networks resnet18,vgg13 --arrays 512x512 --jobs 2",
        ))
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("ResNet-18"), "{out}");
        assert!(out.contains("20041"), "{out}");
        assert!(out.contains("4294"), "{out}");
        assert!(out.contains("4.67x"), "{out}");
        assert!(out.contains("planning cache:"), "{out}");
    }

    #[test]
    fn sweep_rejects_unknown_networks() {
        let cmd = parse(&argv("sweep --networks nonexistent")).unwrap();
        let err = run(&cmd).unwrap_err();
        assert!(err.to_string().contains("vwsdk list"));
    }

    #[test]
    fn unknown_network_reports_cleanly() {
        let cmd = Command::Plan {
            network: NetworkSource::Zoo("nonexistent".into()),
            array: PimArray::new(64, 64).unwrap(),
        };
        let err = run(&cmd).unwrap_err();
        assert!(err.to_string().contains("vwsdk list"));
    }

    #[test]
    fn plan_from_a_spec_file_runs() {
        let path = std::env::temp_dir().join("vwsdk-cli-spec-test.json");
        let spec = NetworkSpec::from_network(&zoo::tiny());
        std::fs::write(&path, spec.to_json_string()).unwrap();
        let cmd = Command::Plan {
            network: NetworkSource::SpecFile(path.to_string_lossy().into_owned()),
            array: PimArray::new(64, 64).unwrap(),
        };
        let out = run(&cmd).unwrap();
        assert!(out.contains("tiny on a 64x64 PIM array"), "{out}");
        std::fs::remove_file(&path).ok();

        let missing = Command::Plan {
            network: NetworkSource::SpecFile("/nonexistent/spec.json".into()),
            array: PimArray::new(64, 64).unwrap(),
        };
        let err = run(&missing).unwrap_err();
        assert!(err.to_string().contains("cannot read spec"), "{err}");
    }

    #[test]
    fn sweep_format_json_emits_the_service_schema() {
        let cmd = parse(&argv(
            "sweep --networks resnet18 --arrays 512x512 --format json",
        ))
        .unwrap();
        let out = run(&cmd).unwrap();
        let json = JsonValue::parse(&out).expect("sweep --format json output parses");
        let reports = json.get("reports").and_then(JsonValue::as_array).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(
            reports[0]
                .get("totals")
                .and_then(|t| t.get("VW-SDK"))
                .and_then(JsonValue::as_u64),
            Some(4294)
        );
        assert!(json.get("cache").is_some());
        // The sweep explains its own planning cost: one per-layer
        // search-effort record, with the bound actually pruning.
        let search = reports[0]
            .get("search")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert!(!search.is_empty());
        let mut pruned_total = 0;
        for entry in search {
            assert!(entry.get("layer").and_then(JsonValue::as_str).is_some());
            let evaluated = entry.get("evaluated").and_then(JsonValue::as_u64).unwrap();
            let pruned = entry.get("pruned").and_then(JsonValue::as_u64).unwrap();
            // Every layer's search ran; evaluated alone can be 0 when
            // the bound prunes the entire candidate space.
            assert!(evaluated + pruned > 0);
            pruned_total += pruned;
        }
        assert!(
            pruned_total > 0,
            "the bound pruned nothing across the sweep"
        );
    }

    #[test]
    fn check_parses_with_defaults_and_flags() {
        assert_eq!(
            parse(&argv("check")).unwrap(),
            Command::Check {
                root: None,
                format: SweepFormat::Text,
                list_rules: false,
            }
        );
        assert_eq!(
            parse(&argv("check --root /tmp/ws --format json --list-rules")).unwrap(),
            Command::Check {
                root: Some("/tmp/ws".into()),
                format: SweepFormat::Json,
                list_rules: true,
            }
        );
    }

    #[test]
    fn check_list_rules_prints_the_whole_catalog() {
        let cmd = parse(&argv("check --list-rules")).unwrap();
        let out = run(&cmd).unwrap();
        for rule in pim_lint::RULES {
            assert!(out.contains(rule.name), "missing {}:\n{out}", rule.name);
        }
        let json_out = run(&parse(&argv("check --list-rules --format json")).unwrap()).unwrap();
        let json = JsonValue::parse(&json_out).expect("rule catalog JSON parses");
        assert_eq!(
            json.get("rules")
                .and_then(JsonValue::as_array)
                .map(<[JsonValue]>::len),
            Some(pim_lint::RULES.len())
        );
    }

    #[test]
    fn check_passes_on_this_workspace_and_fails_on_a_seeded_fixture() {
        let root = env!("CARGO_MANIFEST_DIR");
        let out = run(&parse(&argv(&format!("check --root {root}"))).unwrap()).unwrap();
        assert!(out.contains("clean"), "{out}");

        let fixture = format!("{root}/crates/lint/fixtures/banned-macro");
        let err = run(&parse(&argv(&format!("check --root {fixture}"))).unwrap()).unwrap_err();
        assert!(err.to_string().contains("[banned-macro]"), "{err}");

        let json_err =
            run(&parse(&argv(&format!("check --root {fixture} --format json"))).unwrap())
                .unwrap_err();
        let json = JsonValue::parse(&json_err.to_string()).expect("violation JSON parses");
        assert_eq!(json.get("clean"), Some(&JsonValue::Bool(false)));
    }

    #[test]
    fn plan_answers_are_byte_identical_to_the_engine_free_planner() {
        // The shared-engine CLI path must render the same table a fresh
        // sequential Planner produces.
        let cmd = parse(&argv("plan --network vgg13")).unwrap();
        let out = run(&cmd).unwrap();
        let report = vw_sdk::Planner::new(PimArray::new(512, 512).unwrap())
            .plan_network(&zoo::vgg13())
            .unwrap();
        let expected = format!(
            "{}\n{}",
            render_table1(&report),
            render_speedups(&report, MappingAlgorithm::Im2col)
        );
        assert_eq!(out, expected);
    }
}
