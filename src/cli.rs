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
//! Each command accepts only its own flags. `plan`, `sweep`, `deploy` and
//! `simulate` lower theirs into the JSON body of the matching `POST /v1/*`
//! request and build it with the same [`api`] constructor the daemon
//! calls, so both frontends share one set of defaults, checks and size
//! limits, and answer the same bytes. Only `--jobs` and `--format` stay
//! on the CLI side.

use pim_arch::{presets, PimArray};
use pim_mapping::MappingAlgorithm;
use pim_nets::{zoo, ConvLayer, Network};
use pim_report::json::{JsonValue, MAX_EXACT_INTEGER};
use pim_report::table::{Align, TextTable};
use pim_report::{fmt_f64, fmt_speedup};
use pim_sim::verify::verify_plan;
use pim_sim::SimulationReport;
use std::fmt;
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

/// A refused request reads as its message; the status is the daemon's.
impl From<api::RequestError> for CliError {
    fn from((_, message): api::RequestError) -> Self {
        Self::new(message)
    }
}

/// Usage text shown for `--help` or on parse errors.
pub const USAGE: &str = "\
vwsdk — VW-SDK convolutional weight mapping for PIM crossbars (DATE 2022 reproduction)

USAGE:
    vwsdk <COMMAND> [OPTIONS]

COMMANDS (each takes only the options listed with it, plus the global ones):
    list     List the model-zoo networks
    plan     Plan a network          (--network NAME | --spec FILE.json)
                                     [--array RxC]
    layer    Compare one layer       --input N --kernel K --ic N --oc N
                                     [--array RxC] [--stride S] [--padding P]
                                     [--dilation D]
    search   Show the window search  --input N --kernel K --ic N --oc N
                                     [--array RxC] [--stride S] [--padding P]
                                     [--dilation D] [--top N]
    show     Draw a tile layout      --input N --kernel K --ic N --oc N
                                     [--array RxC] [--stride S] [--padding P]
                                     [--dilation D] [--algorithm NAME]
    verify   Run the simulator       --network NAME [--array RxC] [--seed N]
                                     per-layer bit-exact check of every paper
                                     algorithm against the reference
                                     convolution; exits nonzero unless every
                                     cell reads ok
    simulate Network-scale simulation (--network NAME | --spec FILE.json)
                                     [--array RxC] [--algorithm NAME] [--seed N]
                                     [--mode exact|quantized] [--batch N]
                                     [--jobs N] [--format text|json]
                                     programs every deployed stage once, then
                                     streams a batch of inputs through it
                                     (conv on crossbars, ReLU/pooling
                                     digitally) and verifies each output
                                     bit-exact against the reference forward
                                     pass, executed == predicted cycles;
                                     exits nonzero when either check fails
    sweep    Batch design-space plan [--networks A,B,...|all] [--spec FILE.json]
                                     [--arrays RxC,...] [--jobs N]
                                     [--format text|json]
                                     defaults: every zoo network (just the
                                     spec when --spec is given), the Fig. 8(b)
                                     array sizes, one worker per core
    deploy   Chip-scale deployment   (--network NAME | --spec FILE.json)
                                     [--array RxC] [--arrays N] [--reprogram N]
                                     [--format table|json]
                                     mixed-algorithm budget optimizer: per-layer
                                     im2col/SDK/VW-SDK choice + array split for
                                     the minimum pipeline bottleneck
    serve    HTTP planning daemon    [--addr HOST:PORT] [--jobs N] [--shards N]
                                     [--timeout-ms N]
                                     endpoints: GET /healthz, GET /v1/networks,
                                     GET /v1/metrics, POST /v1/plan,
                                     POST /v1/sweep, POST /v1/deploy,
                                     POST /v1/simulate; one JSON access-log
                                     line per request on stderr
    check    In-tree static analysis [--root DIR] [--format text|json]
                                     [--list-rules]
                                     runs the pim-lint rules over the
                                     workspace (unsafe placement, SAFETY:
                                     and ORDERING: justifications, banned
                                     macros, doc-table drift, public items
                                     no other file names) and prints each
                                     crate's non-test line count; exits
                                     nonzero on any violation — the same
                                     gate CI and the repo's own test
                                     suite enforce (docs/STATIC_ANALYSIS.md)

plan, sweep, deploy and simulate build the request body the matching
POST /v1/* endpoint takes (docs/HTTP_API.md), with the same defaults,
checks and size limits; only the daemon caps a simulation's batch and
MACs.

OPTIONS:
    --network NAME  Zoo network name (see `vwsdk list`)
    --spec FILE     JSON network spec (see examples/specs/)
    --array RxC     PIM array geometry, e.g. 512x512 (default 512x512)
    --networks A,B  Comma-separated zoo networks, or `all` for the whole zoo
    --arrays X      Sweep: comma-separated geometries; deploy: the chip's
                    array count (default 128)
    --reprogram N   Array reload cost in cycles (default 2000)
    --input N       Layer input width and height
    --kernel K      Layer kernel width and height
    --ic N          Layer input channels
    --oc N          Layer output channels
    --stride S      Layer stride (default 1)
    --padding P     Layer zero padding (default 0)
    --dilation D    Layer dilation (default 1)
    --top N         Best candidates to print (default 10)
    --algorithm A   Mapping algorithm label, e.g. im2col, SDK, VW-SDK
                    (default VW-SDK)
    --seed N        Data seed for generated tensors (default 2024) — same
                    seed, same bytes, on any machine
    --mode M        exact (no rescaling) or quantized (int8-style
                    inter-stage requantization; default); runs each stage
                    in the narrowest of i32/i64/i128 that provably holds
                    its values, never narrower than the stage before
    --batch N       Input feature maps streamed through one programmed
                    deployment (default 1; must be >= 1)
    --jobs N        Worker threads; 0 = one per core (sweep: planners,
                    serve: connection workers, simulate: batch stream
                    workers)
    --format F      Output: text/table (default) or json
    --addr H:P      Bind address (default 127.0.0.1:7878)
    --shards N      Event-loop shards (default 0 = auto, capped at 4)
    --timeout-ms N  Idle/read/write deadline in ms (default 30000)
    --root DIR      Workspace root to analyze (default: walk up from the
                    current directory to the first [workspace])
    --list-rules    Print the rule catalog instead of running the rules
    --trace         Global: emit one JSON trace event per span to stderr
    --metrics-dump  Global: after the command, print the telemetry
                    registry as JSON (same schema as
                    GET /v1/metrics?format=json) to stdout
    --help          Show this text
";

/// Output format of the commands that take `--format` (`text` and
/// `table` spell the first variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepFormat {
    /// The aligned text table (default).
    Text,
    /// The service's JSON schema (`api::sweep_json`,
    /// `api::deployment_json`, `api::simulation_json`).
    Json,
}

/// A parsed command, ready to execute.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `vwsdk list`
    List,
    /// `vwsdk plan`: the `POST /v1/plan` request.
    Plan(api::PlanRequest),
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
        /// Zoo network to verify layer by layer.
        network: Network,
        /// Target array.
        array: PimArray,
        /// Data seed.
        seed: u64,
    },
    /// `vwsdk simulate`
    Simulate {
        /// The `POST /v1/simulate` request.
        request: api::SimulateRequest,
        /// Stream-phase worker threads (0 = one per core).
        jobs: usize,
        /// Output format.
        format: SweepFormat,
    },
    /// `vwsdk sweep`
    Sweep {
        /// The `POST /v1/sweep` request.
        request: api::SweepRequest,
        /// Worker threads (0 = one per core).
        jobs: usize,
        /// Output format.
        format: SweepFormat,
    },
    /// `vwsdk deploy`
    Deploy {
        /// The `POST /v1/deploy` request.
        request: api::DeployRequest,
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

/// The flags `command` reads, as [`USAGE`] lists them; `parse` refuses
/// every other. `--list-rules` is the one flag without a value.
fn own_flags(command: &str) -> Option<Vec<&'static str>> {
    const LAYER: &str = "--input --kernel --ic --oc --array --stride --padding --dilation";
    let (shared, own) = match command {
        "list" => ("", ""),
        "plan" => ("", "--network --spec --array"),
        "layer" => (LAYER, ""),
        "search" => (LAYER, "--top"),
        "show" => (LAYER, "--algorithm"),
        "verify" => ("", "--network --array --seed"),
        "simulate" => (
            "",
            "--network --spec --array --algorithm --seed --mode --batch --jobs --format",
        ),
        "sweep" => ("", "--networks --spec --arrays --jobs --format"),
        "deploy" => ("", "--network --spec --array --arrays --reprogram --format"),
        "serve" => ("", "--addr --jobs --shards --timeout-ms"),
        "check" => ("", "--root --format --list-rules"),
        _ => return None,
    };
    let flags = shared.split_whitespace().chain(own.split_whitespace());
    Some(flags.collect())
}

/// A flag's integer value. A request body's integers stop below 2^53
/// ([`MAX_EXACT_INTEGER`]), so the CLI takes no larger one either.
fn integer<T: TryFrom<u64>>(text: &str, flag: &str) -> Result<T, CliError> {
    text.parse::<u64>()
        .ok()
        .filter(|&n| n < MAX_EXACT_INTEGER)
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| {
            CliError::new(format!(
                "{flag} expects an integer below 2^53, got {text:?}"
            ))
        })
}

/// One command line's flags, each with the last value given for it.
struct Flags<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Flags<'a> {
    fn get(&self, flag: &str) -> Option<&'a str> {
        self.0.iter().find(|(f, _)| *f == flag).map(|&(_, v)| v)
    }

    fn integer_or<T: TryFrom<u64>>(&self, flag: &str, default: T) -> Result<T, CliError> {
        self.get(flag).map_or(Ok(default), |v| integer(v, flag))
    }

    fn array(&self) -> Result<PimArray, CliError> {
        self.get("--array").map_or_else(
            || Ok(api::default_array()),
            |v| presets::parse_array(v).map_err(|e| CliError::new(e.to_string())),
        )
    }

    fn format(&self) -> Result<SweepFormat, CliError> {
        match self.get("--format").map(str::to_ascii_lowercase).as_deref() {
            None | Some("text" | "table") => Ok(SweepFormat::Text),
            Some("json") => Ok(SweepFormat::Json),
            Some(other) => Err(CliError::new(format!(
                "--format expects text, table or json, got {other:?}"
            ))),
        }
    }

    /// `layer`, `search` and `show`'s layer.
    fn layer(&self) -> Result<ConvLayer, CliError> {
        let required = |flag: &str| {
            let value = self
                .get(flag)
                .ok_or_else(|| CliError::new(format!("{flag} is required")))?;
            integer::<usize>(value, flag)
        };
        let (input, kernel) = (required("--input")?, required("--kernel")?);
        ConvLayer::builder("cli-layer")
            .input(input, input)
            .kernel(kernel, kernel)
            .channels(required("--ic")?, required("--oc")?)
            .stride(self.integer_or("--stride", 1)?)
            .padding(self.integer_or("--padding", 0)?)
            .dilation(self.integer_or("--dilation", 1)?)
            .build()
            .map_err(|e| CliError::new(e.to_string()))
    }

    /// Lowers a request command's flags into the body of the matching
    /// `POST /v1/*` request: each flag becomes the member of its own name,
    /// a number when its value is all digits and a string otherwise, so
    /// the request checks its types and integer ranges. `--spec FILE`
    /// inlines the file (sweep: as the one-entry `"specs"` list), and
    /// sweep's `--networks` and `--arrays` become lists, except that a
    /// whole `--networks all` stays the string `"all"`. `--jobs` and
    /// `--format` are the CLI's own.
    fn request_body(&self, command: &str) -> Result<JsonValue, CliError> {
        let mut members = Vec::with_capacity(self.0.len());
        for &(flag, value) in &self.0 {
            members.push(match (command, &flag[2..]) {
                (_, "jobs" | "format") => continue,
                ("sweep", "spec") => ("specs", JsonValue::array([read_spec(value)?])),
                (_, "spec") => ("spec", read_spec(value)?),
                ("sweep", "networks") if value.eq_ignore_ascii_case("all") => {
                    ("networks", JsonValue::from(value))
                }
                ("sweep", member @ ("networks" | "arrays")) => (
                    member,
                    JsonValue::array(value.split(',').map(JsonValue::from)),
                ),
                (_, member) => match value.parse::<u64>() {
                    Ok(n) => (member, JsonValue::from(n)),
                    Err(_) => (member, JsonValue::from(value)),
                },
            });
        }
        Ok(JsonValue::object(members))
    }
}

/// Reads a `--spec FILE.json` into the JSON value a request inlines.
fn read_spec(path: &str) -> Result<JsonValue, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::new(format!("cannot read spec {path:?}: {e}")))?;
    JsonValue::parse(&text).map_err(|e| CliError::new(format!("spec {path:?}: {e}")))
}

/// Parses raw arguments (without the program name) into a [`Command`].
/// The four request commands come back as the validated request.
///
/// # Errors
///
/// Returns [`CliError`] with a human-readable message for unknown
/// commands, a flag the command does not take, missing values,
/// malformed numbers, or a request that fails validation.
pub fn parse(args: &[String]) -> std::result::Result<Command, CliError> {
    let Some(command) = args.first() else {
        return Ok(Command::Help);
    };
    if command == "--help" || command == "-h" || command == "help" {
        return Ok(Command::Help);
    }
    let own = own_flags(command)
        .ok_or_else(|| CliError::new(format!("unknown command {command:?}; try `vwsdk --help`")))?;
    let mut flags = Flags(Vec::new());
    let mut rest = args[1..].iter().map(String::as_str);
    while let Some(flag) = rest.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(Command::Help);
        }
        if !own.contains(&flag) {
            return Err(CliError::new(format!(
                "`vwsdk {command}` takes no {flag:?}; its options are {own:?}"
            )));
        }
        let value = if flag == "--list-rules" {
            ""
        } else {
            rest.next()
                .ok_or_else(|| CliError::new(format!("missing value for {flag}")))?
        };
        flags.0.retain(|&(f, _)| f != flag);
        flags.0.push((flag, value));
    }

    Ok(match command.as_str() {
        "list" => Command::List,
        "plan" => Command::Plan(api::PlanRequest::from_json(&flags.request_body(command)?)?),
        "layer" => Command::Layer {
            layer: flags.layer()?,
            array: flags.array()?,
        },
        "search" => Command::Search {
            layer: flags.layer()?,
            array: flags.array()?,
            top: flags.integer_or("--top", 10)?,
        },
        "show" => Command::Show {
            layer: flags.layer()?,
            array: flags.array()?,
            algorithm: flags
                .get("--algorithm")
                .map_or(Ok(api::DEFAULT_ALGORITHM), |label| {
                    api::algorithm_by_label(label).map_err(CliError::new)
                })?,
        },
        "verify" => Command::Verify {
            network: api::zoo_network(
                flags
                    .get("--network")
                    .ok_or_else(|| CliError::new("verify requires --network"))?,
            )?,
            array: flags.array()?,
            seed: flags.integer_or("--seed", api::DEFAULT_SEED)?,
        },
        "simulate" => Command::Simulate {
            request: api::SimulateRequest::from_json(&flags.request_body(command)?)?,
            jobs: flags.integer_or("--jobs", 0)?,
            format: flags.format()?,
        },
        "sweep" => Command::Sweep {
            request: api::SweepRequest::from_json(&flags.request_body(command)?)?,
            jobs: flags.integer_or("--jobs", 0)?,
            format: flags.format()?,
        },
        "deploy" => Command::Deploy {
            request: api::DeployRequest::from_json(&flags.request_body(command)?)?,
            format: flags.format()?,
        },
        "serve" => Command::Serve {
            addr: flags.get("--addr").unwrap_or("127.0.0.1:7878").to_string(),
            jobs: flags.integer_or("--jobs", 0)?,
            shards: flags.integer_or("--shards", 0)?,
            timeout_ms: match flags.integer_or("--timeout-ms", 30_000)? {
                0 => {
                    return Err(CliError::new(
                        "--timeout-ms expects a positive millisecond count",
                    ))
                }
                ms => ms,
            },
        },
        "check" => Command::Check {
            root: flags.get("--root").map(str::to_string),
            format: flags.format()?,
            list_rules: flags.get("--list-rules").is_some(),
        },
        _ => unreachable!("own_flags knows every command"),
    })
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
        Command::Plan(request) => {
            let report = request.run(&PlanningEngine::new())?;
            Ok(format!(
                "{}\n{}",
                render_table1(&report),
                render_speedups(&report, MappingAlgorithm::Im2col)
            ))
        }
        Command::Layer { layer, array } => {
            let cmp = PlanningEngine::with_algorithms(&MappingAlgorithm::all())
                .plan_layer(layer, *array)
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
            let art = pim_mapping::layout::render_ascii(&plan, 48, 100)
                .map_err(|e| CliError::new(e.to_string()))?;
            Ok(format!("{plan}\n\n{art}"))
        }
        Command::Sweep {
            request,
            jobs,
            format,
        } => {
            let engine = PlanningEngine::new().with_jobs(*jobs);
            let reports = request.run(&engine)?;
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
        Command::Deploy { request, format } => {
            let report = request.run(&PlanningEngine::new())?;
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
                report.network(),
                report.n_arrays(),
                report.array(),
                report.reprogram_cycles(),
                table.render(),
                report.arrays_used(),
                report.n_arrays(),
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
            request,
            jobs,
            format,
        } => render_simulation(&request.run(&PlanningEngine::new(), *jobs)?, *format),
        Command::Check {
            root,
            format,
            list_rules,
        } => {
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
                let per_crate = report
                    .lines
                    .iter()
                    .map(|(krate, &count)| (krate.as_str(), JsonValue::from(count)));
                let lines = JsonValue::object([
                    ("per_crate", JsonValue::object(per_crate)),
                    ("crates_and_src", JsonValue::from(report.library_lines())),
                    ("total", JsonValue::from(report.total_lines())),
                ]);
                let rendered = JsonValue::object([
                    ("files_scanned", JsonValue::from(report.files_scanned)),
                    ("clean", JsonValue::from(report.is_clean())),
                    ("lines", lines),
                    ("violations", JsonValue::array(violations)),
                ])
                .render_pretty();
                if report.is_clean() {
                    return Ok(rendered);
                }
                return Err(CliError::new(rendered));
            }
            let mut out: String = report.violations.iter().map(|v| format!("{v}\n")).collect();
            out.push_str(
                "non-test lines (non-blank, outside tests/, benches/ and #[cfg(test)] items):\n",
            );
            for (krate, count) in &report.lines {
                out.push_str(&format!("  {krate:<22} {count:>6}\n"));
            }
            out.push_str(&format!(
                "  {:<22} {:>6}\n",
                "crates/ + src/",
                report.library_lines()
            ));
            out.push_str(&format!("  {:<22} {:>6}\n", "total", report.total_lines()));
            if report.is_clean() {
                out.push_str(&format!("checked {} files: clean\n", report.files_scanned));
                return Ok(out);
            }
            out.push_str(&format!(
                "checked {} files: {} violation(s)",
                report.files_scanned,
                report.violations.len()
            ));
            Err(CliError::new(out))
        }
        Command::Verify {
            network,
            array,
            seed,
        } => {
            let mut out = format!(
                "functional verification of {} on {array}:\n",
                network.name()
            );
            let mut failed = false;
            for layer in network {
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
    use pim_nets::NetworkSpec;
    use pim_sim::ExecMode;

    fn argv(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    /// A spec file on disk: the repository's depthwise example network.
    const SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/specs/edge_cnn.json");

    /// The JSON value `--spec SPEC` inlines.
    fn spec_json() -> JsonValue {
        JsonValue::parse(&std::fs::read_to_string(SPEC).unwrap()).unwrap()
    }

    fn body(text: &str) -> JsonValue {
        JsonValue::parse(text).unwrap()
    }

    /// Each command USAGE describes, with the flags its entry lists.
    fn usage_commands() -> Vec<(&'static str, Vec<&'static str>)> {
        let section = USAGE.split("COMMANDS").nth(1).unwrap();
        let section = section.split("\n\n").next().unwrap();
        let mut commands: Vec<(&'static str, Vec<&'static str>)> = Vec::new();
        for line in section.lines().skip(1) {
            if !line.starts_with("     ") {
                commands.push((line.split_whitespace().next().unwrap(), Vec::new()));
            }
            let flags = &mut commands.last_mut().unwrap().1;
            flags.extend(
                line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .filter(|word| word.starts_with("--")),
            );
        }
        for (_, flags) in &mut commands {
            flags.sort_unstable();
            flags.dedup();
        }
        commands
    }

    /// The flags USAGE's OPTIONS section documents.
    fn usage_options() -> Vec<&'static str> {
        let section = USAGE.split("OPTIONS:\n").nth(1).unwrap();
        section
            .lines()
            .filter_map(|line| line.strip_prefix("    "))
            .filter(|line| line.starts_with("--"))
            .map(|line| line.split_whitespace().next().unwrap())
            .collect()
    }

    /// `command` with the flags it needs, then `flag` with a valid value.
    fn sample_args(command: &str, flag: &str) -> Vec<String> {
        let base = match command {
            "plan" | "verify" | "simulate" | "deploy" if flag != "--spec" => "--network tiny",
            "layer" | "search" | "show" => "--input 8 --kernel 3 --ic 2 --oc 2",
            _ => "",
        };
        let value = match (command, flag) {
            (_, "--list-rules" | "--trace" | "--metrics-dump" | "--help") => "",
            ("deploy", "--arrays") => "8",
            (_, "--array" | "--arrays") => "64x64",
            (_, "--network" | "--networks") => "tiny",
            (_, "--spec") => SPEC,
            (_, "--format") => "json",
            (_, "--mode") => "exact",
            (_, "--algorithm") => "im2col",
            (_, "--addr") => "127.0.0.1:0",
            (_, "--root") => ".",
            (_, "--input") => "8",
            (_, "--kernel") => "3",
            _ => "2",
        };
        argv(&format!("{command} {base} {flag} {value}"))
    }

    #[test]
    fn usage_lists_each_commands_own_flags() {
        let commands = usage_commands();
        assert_eq!(commands.len(), 11);
        for (command, listed) in commands {
            let mut own = own_flags(command).unwrap().to_vec();
            own.sort_unstable();
            assert_eq!(listed, own, "USAGE's {command} entry");
        }
    }

    #[test]
    fn every_command_rejects_the_flags_it_does_not_read() {
        let options = usage_options();
        assert!(options.len() > 20, "{options:?}");
        for (command, _) in usage_commands() {
            let own = own_flags(command).unwrap();
            for &flag in &options {
                let args = sample_args(command, flag);
                let parsed = parse_invocation(&args);
                let global = matches!(flag, "--trace" | "--metrics-dump" | "--help");
                if global || own.contains(&flag) {
                    assert!(parsed.is_ok(), "{args:?}: {:?}", parsed.err());
                } else {
                    let err = parsed.unwrap_err().to_string();
                    assert!(
                        err.contains(&format!("takes no {flag:?}")),
                        "{args:?}: {err}"
                    );
                }
            }
        }
        // Each of these exited 0 while `parse` took any flag for any
        // command, answering a question the caller did not ask.
        for line in [
            "plan --network resnet18 --algorithm im2col --mode exact --batch 8",
            "list --seed 7 --top 3",
            "deploy --network tiny --networks x",
            "serve --spec f.json",
        ] {
            assert!(parse(&argv(line)).is_err(), "{line}");
        }
    }

    #[test]
    fn sweep_all_counts_only_as_the_whole_value() {
        // Inside a list, `all` is a network name, as it is on the wire.
        let err = parse(&argv("sweep --networks tiny,all --arrays 64x64")).unwrap_err();
        assert!(err.to_string().contains("unknown network \"all\""), "{err}");
        let whole = body(r#"{"networks": "all", "arrays": ["64x64"]}"#);
        let whole = api::SweepRequest::from_json(&whole).unwrap();
        for spelling in ["all", "ALL"] {
            match parse(&argv(&format!(
                "sweep --networks {spelling} --arrays 64x64"
            )))
            .unwrap()
            {
                Command::Sweep { request, .. } => assert_eq!(request, whole, "{spelling}"),
                other => panic!("unexpected {other:?}"),
            }
        }
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
        let expected = body(r#"{"network": "resnet18", "array": "256x256"}"#);
        assert_eq!(
            cmd,
            Command::Plan(api::PlanRequest::from_json(&expected).unwrap())
        );
        let cmd = parse(&argv(&format!("plan --spec {SPEC}"))).unwrap();
        let expected = JsonValue::object([("spec", spec_json())]);
        assert_eq!(
            cmd,
            Command::Plan(api::PlanRequest::from_json(&expected).unwrap())
        );
        let err = parse(&argv(&format!("plan --network tiny --spec {SPEC}"))).unwrap_err();
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
    fn show_draws_the_pinned_layouts() {
        // Golden bytes of `vwsdk show` for the README example and for an
        // SDK-opt layer of 2 AR x 2 AC tiles whose first AC tile holds 7
        // columns of 4 windows each, so it cuts output channel 1's
        // windows. The layout numbers its columns window-major; the
        // drawing puts them back in `oc`-major order.
        const README: &str = concat!(
            "cli-layer on 16x16: 4x4x1x2 (9 cycles = 9 PW x 1 AR x 1 AC)\n",
            "\n",
            "tile (0, 0): 16 rows x 8 cols used, 72 weights (1x1 per character)\n",
            "#...#...\n",
            "##..##..\n",
            "##..##..\n",
            ".#...#..\n",
            "#.#.#.#.\n",
            "########\n",
            "########\n",
            ".#.#.#.#\n",
            "#.#.#.#.\n",
            "########\n",
            "########\n",
            ".#.#.#.#\n",
            "..#...#.\n",
            "..##..##\n",
            "..##..##\n",
            "...#...#\n",
        );
        const SDK_OPT: &str = concat!(
            "cli-layer on 16x7: 4x4x2x1 (16 cycles = 4 PW x 2 AR x 2 AC)\n",
            "\n",
            "tile (0, 0): 16 rows x 7 cols used, 63 weights (1x1 per character)\n",
            "#...#..\n",
            "##..##.\n",
            "##..##.\n",
            ".#...#.\n",
            "#.#.#.#\n",
            "#######\n",
            "#######\n",
            ".#.#.#.\n",
            "#.#.#.#\n",
            "#######\n",
            "#######\n",
            ".#.#.#.\n",
            "..#...#\n",
            "..##..#\n",
            "..##..#\n",
            "...#...\n",
        );
        for (args, expected) in [
            (
                "show --input 8 --kernel 3 --ic 1 --oc 2 --array 16x16 --algorithm vw-sdk",
                README,
            ),
            (
                "show --input 6 --kernel 3 --ic 2 --oc 3 --array 16x7 --algorithm sdk-opt",
                SDK_OPT,
            ),
        ] {
            assert_eq!(
                run(&parse(&argv(args)).unwrap()).unwrap(),
                expected,
                "{args}"
            );
        }
    }

    #[test]
    fn sweep_defaults_cover_the_zoo_and_fig8b_arrays() {
        let fig8b: Vec<JsonValue> = presets::fig8b_sweep()
            .iter()
            .map(|preset| JsonValue::from(preset.array.to_string()))
            .collect();
        assert_eq!(fig8b.len(), 5);
        let whole_zoo = JsonValue::object([
            ("networks", JsonValue::from("all")),
            ("arrays", JsonValue::Array(fig8b)),
        ]);
        assert_eq!(
            parse(&argv("sweep")).unwrap(),
            Command::Sweep {
                request: api::SweepRequest::from_json(&whole_zoo).unwrap(),
                jobs: 0,
                format: SweepFormat::Text,
            }
        );
    }

    #[test]
    fn sweep_parses_explicit_lists() {
        let cmd = parse(&argv(
            "sweep --networks vgg13,resnet18 --arrays 256x256,512x512 --jobs 4 --format json",
        ))
        .unwrap();
        let expected =
            body(r#"{"networks": ["vgg13", "resnet18"], "arrays": ["256x256", "512x512"]}"#);
        assert_eq!(
            cmd,
            Command::Sweep {
                request: api::SweepRequest::from_json(&expected).unwrap(),
                jobs: 4,
                format: SweepFormat::Json,
            }
        );
        assert!(parse(&argv("sweep --arrays bogus")).is_err());
        assert!(parse(&argv("sweep --format yaml")).is_err());
    }

    #[test]
    fn sweep_with_a_spec_drops_the_zoo_default() {
        let sweep_request = |cmd: Command| match cmd {
            Command::Sweep { request, .. } => request,
            other => panic!("unexpected {other:?}"),
        };
        let cmd = parse(&argv(&format!("sweep --spec {SPEC} --arrays 64x64"))).unwrap();
        let just_the_spec = JsonValue::object([
            ("specs", JsonValue::array([spec_json()])),
            ("arrays", JsonValue::array([JsonValue::from("64x64")])),
        ]);
        assert_eq!(
            sweep_request(cmd.clone()),
            api::SweepRequest::from_json(&just_the_spec).unwrap()
        );
        // One row, the spec's: no zoo network rides along.
        let out = run(&cmd).unwrap();
        assert_eq!(out.matches(" 64x64 ").count(), 1, "{out}");
        assert!(!out.contains("VGG-13"), "{out}");
        // An explicit --networks list still rides along with the spec.
        let cmd = parse(&argv(&format!("sweep --networks tiny --spec {SPEC}"))).unwrap();
        let both = JsonValue::object([
            ("networks", JsonValue::array([JsonValue::from("tiny")])),
            ("specs", JsonValue::array([spec_json()])),
        ]);
        assert_eq!(
            sweep_request(cmd),
            api::SweepRequest::from_json(&both).unwrap()
        );
    }

    #[test]
    fn deploy_parses_defaults_and_flags() {
        let defaults = body(
            r#"{"network": "resnet18", "array": "512x512", "arrays": 128, "reprogram": 2000}"#,
        );
        assert_eq!(
            parse(&argv("deploy --network resnet18")).unwrap(),
            Command::Deploy {
                request: api::DeployRequest::from_json(&defaults).unwrap(),
                format: SweepFormat::Text,
            }
        );
        let cmd = parse(&argv(&format!(
            "deploy --spec {SPEC} --arrays 32 --array 256x256 --reprogram 4000 --format json"
        )))
        .unwrap();
        let every_flag = JsonValue::object([
            ("spec", spec_json()),
            ("arrays", JsonValue::from(32u64)),
            ("array", JsonValue::from("256x256")),
            ("reprogram", JsonValue::from(4_000u64)),
        ]);
        assert_eq!(
            cmd,
            Command::Deploy {
                request: api::DeployRequest::from_json(&every_flag).unwrap(),
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
        // A chip of no arrays is refused with the request, before planning.
        let err = parse(&argv("deploy --network tiny --arrays 0")).unwrap_err();
        assert!(err.to_string().contains("at least 1 array"), "{err}");
    }

    #[test]
    fn simulate_parses_defaults_and_flags() {
        let defaults = body(
            r#"{"network": "vgg13-sim", "array": "512x512", "algorithm": "VW-SDK",
                "seed": 2024, "mode": "quantized", "batch": 1}"#,
        );
        assert_eq!(
            parse(&argv("simulate --network vgg13-sim")).unwrap(),
            Command::Simulate {
                request: api::SimulateRequest::from_json(&defaults).unwrap(),
                jobs: 0,
                format: SweepFormat::Text,
            }
        );
        let cmd = parse(&argv(&format!(
            "simulate --spec {SPEC} --array 64x64 --algorithm im2col \
             --seed 7 --mode exact --batch 8 --jobs 2 --format json"
        )))
        .unwrap();
        let every_flag = JsonValue::object([
            ("spec", spec_json()),
            ("array", JsonValue::from("64x64")),
            ("algorithm", JsonValue::from("im2col")),
            ("seed", JsonValue::from(7u64)),
            ("mode", JsonValue::from("exact")),
            ("batch", JsonValue::from(8u64)),
        ]);
        assert_eq!(
            cmd,
            Command::Simulate {
                request: api::SimulateRequest::from_json(&every_flag).unwrap(),
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
            err.to_string().contains("\"batch\" must be at least 1"),
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
                &zoo::by_name("tiny").unwrap(),
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
                &zoo::by_name("lenet5").unwrap(),
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
        let err = parse(&argv("sweep --networks nonexistent")).unwrap_err();
        assert!(err.to_string().contains("vwsdk list"));
    }

    #[test]
    fn unknown_network_reports_cleanly() {
        let err = parse(&argv("plan --network nonexistent --array 64x64")).unwrap_err();
        assert!(err.to_string().contains("vwsdk list"));
    }

    #[test]
    fn plan_from_a_spec_file_runs() {
        let path = std::env::temp_dir().join("vwsdk-cli-spec-test.json");
        let spec = NetworkSpec::from_network(&zoo::by_name("tiny").unwrap());
        std::fs::write(&path, spec.to_json().render_pretty()).unwrap();
        let path = path.to_string_lossy().into_owned();
        let cmd = parse(&argv(&format!("plan --spec {path} --array 64x64"))).unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("tiny on a 64x64 PIM array"), "{out}");
        std::fs::remove_file(&path).ok();

        let err = parse(&argv("plan --spec /nonexistent/spec.json --array 64x64")).unwrap_err();
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
        for krate in [
            "crates/lint ",
            "e2ebench ",
            "src ",
            "crates/ + src/ ",
            "total ",
        ] {
            assert!(
                out.contains(&format!("\n  {krate}")),
                "no {krate:?} count:\n{out}"
            );
        }

        // The counts print with the findings too.
        let fixture = format!("{root}/crates/lint/fixtures/unused-pub");
        let err = run(&parse(&argv(&format!("check --root {fixture}"))).unwrap()).unwrap_err();
        let err = err.to_string();
        assert!(err.contains("[unused-pub]"), "{err}");
        assert!(err.contains("\n  total                      43\n"), "{err}");

        let json_err =
            run(&parse(&argv(&format!("check --root {fixture} --format json"))).unwrap())
                .unwrap_err();
        let json = JsonValue::parse(&json_err.to_string()).expect("violation JSON parses");
        assert_eq!(json.get("clean"), Some(&JsonValue::Bool(false)));
        let lines = json.get("lines").expect("line counts");
        assert_eq!(
            lines.get("crates_and_src").and_then(JsonValue::as_u64),
            Some(37)
        );
        assert_eq!(lines.get("total").and_then(JsonValue::as_u64), Some(43));
    }

    #[test]
    fn plan_answers_are_byte_identical_to_the_engine_free_planner() {
        // The request path must render the same table a fresh sequential
        // Planner produces.
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
