//! The service's wire schema: one validated request type per POST
//! operation, and JSON views of the planning domain.
//!
//! [`PlanRequest`], [`SweepRequest`], [`DeployRequest`] and
//! [`SimulateRequest`] are each built by one `from_json`, which owns the
//! operation's fields, defaults, checks and size bounds, and each runs
//! through one engine call. The daemon builds them from request bodies;
//! `vwsdk plan|sweep|deploy|simulate` lower their flags into the same
//! JSON and call the same constructors, so both frontends refuse the same
//! requests and answer the same ones alike.
//!
//! Every view here is a pure, deterministic function of its input, which
//! is what makes the server's headline guarantee testable: a plan
//! rendered by the daemon is byte-identical to the same plan rendered
//! in-process from a [`vw_sdk::Planner`] report. The CLI's `--format
//! json` paths reuse these functions, so file output and wire output
//! agree byte-for-byte too.

use pim_arch::{presets, PimArray};
use pim_chip::report::DeploymentReport;
use pim_chip::ChipConfig;
use pim_mapping::{MappingAlgorithm, MappingPlan};
use pim_nets::{zoo, Network, NetworkSpec};
use pim_report::fmt_f64;
use pim_report::json::JsonValue;
use pim_sim::{ExecMode, SimulationReport};
use vw_sdk::{EngineStats, LayerComparison, NetworkReport, PlanningEngine};

/// A refused request: the 4xx status the daemon answers and a message
/// naming the offending JSON member, which the CLI prints as its error.
pub type RequestError = (u16, String);

fn bad_request(message: impl Into<String>) -> RequestError {
    (400, message.into())
}

fn unprocessable(message: impl Into<String>) -> RequestError {
    (422, message.into())
}

/// Largest input/kernel axis a spec may name. Window search cost grows
/// with the padded input area, so without a bound one request with a
/// 10^9-wide layer pins a worker for hours; 16384 covers every real CNN
/// with two orders of magnitude to spare.
const MAX_SPEC_DIM: usize = 16_384;
/// Largest channel count a spec may name.
const MAX_SPEC_CHANNELS: usize = 65_536;
/// Largest array axis a request may name.
const MAX_ARRAY_DIM: usize = 65_536;
/// Largest chip array budget a deploy request may name: the optimizer's
/// work grows with the budget.
const MAX_CHIP_ARRAYS: usize = 65_536;

/// The array every operation plans on when it names none: the paper's
/// 512×512.
pub fn default_array() -> PimArray {
    presets::p512x512().array
}

/// The data seed a simulation draws its tensors from when it names none.
pub const DEFAULT_SEED: u64 = 2_024;

/// The algorithm a simulation maps every layer with when it names none.
pub const DEFAULT_ALGORITHM: MappingAlgorithm = MappingAlgorithm::VwSdk;

/// Refuses a body that is not an object or has a member outside the
/// space-separated `known` — catching typos like `"newtork"` instead of
/// silently planning the default.
fn check_members(body: &JsonValue, known: &str) -> Result<(), RequestError> {
    let known: Vec<&str> = known.split_whitespace().collect();
    let members = body
        .as_object()
        .ok_or_else(|| bad_request("request body must be a JSON object"))?;
    match members
        .iter()
        .find(|(key, _)| !known.contains(&key.as_str()))
    {
        Some((key, _)) => Err(bad_request(format!(
            "unknown field {key:?}; expected one of {known:?}"
        ))),
        None => Ok(()),
    }
}

/// The optional member `key` as `read` takes it; `400` saying what it
/// must be when `read` refuses it.
fn optional<'a, T>(
    body: &'a JsonValue,
    key: &str,
    must_be: &str,
    read: impl FnOnce(&'a JsonValue) -> Option<T>,
) -> Result<Option<T>, RequestError> {
    body.get(key)
        .map(|value| read(value).ok_or_else(|| bad_request(format!("{key:?} must be {must_be}"))))
        .transpose()
}

/// Looks up a zoo network; `422` for a name outside the zoo.
///
/// # Errors
///
/// The `422` says where the zoo is listed.
pub fn zoo_network(name: &str) -> Result<Network, RequestError> {
    zoo::by_name(name).ok_or_else(|| {
        unprocessable(format!(
            "unknown network {name:?}; `vwsdk list` or GET /v1/networks lists the zoo"
        ))
    })
}

/// Builds a network from an inline spec value (422 on invalid specs).
///
/// Beyond structural validity, specs are bounded in magnitude: planning
/// cost scales with the input area and channel counts, so unbounded
/// dimensions would let one request monopolize a worker (and overflow
/// cycle arithmetic).
fn spec_network(value: &JsonValue) -> Result<Network, RequestError> {
    let spec = NetworkSpec::from_json(value).map_err(|e| unprocessable(e.to_string()))?;
    for (index, layer) in spec.layers.iter().enumerate() {
        let dims = [
            layer.input_h,
            layer.input_w,
            layer.kernel_h,
            layer.kernel_w,
            layer.padding,
            layer.stride,
            layer.dilation,
        ];
        if dims.iter().any(|&d| d > MAX_SPEC_DIM) {
            return Err(unprocessable(format!(
                "layers[{index}] ({:?}): dimensions exceed the service limit of {MAX_SPEC_DIM}",
                layer.name
            )));
        }
        if layer.in_channels > MAX_SPEC_CHANNELS || layer.out_channels > MAX_SPEC_CHANNELS {
            return Err(unprocessable(format!(
                "layers[{index}] ({:?}): channels exceed the service limit of {MAX_SPEC_CHANNELS}",
                layer.name
            )));
        }
    }
    spec.to_network().map_err(|e| unprocessable(e.to_string()))
}

/// Resolves the mutually exclusive `"network"` (zoo name) / `"spec"`
/// (inline network) pair of the plan, deploy and simulate requests.
fn network_field(body: &JsonValue) -> Result<Network, RequestError> {
    match (body.get("network"), body.get("spec")) {
        (Some(_), Some(_)) => Err(bad_request("give either \"network\" or \"spec\", not both")),
        (None, None) => Err(bad_request(
            "the request needs \"network\" (zoo name) or \"spec\" (inline network)",
        )),
        (Some(name), None) => zoo_network(
            name.as_str()
                .ok_or_else(|| bad_request("\"network\" must be a string"))?,
        ),
        (None, Some(spec)) => spec_network(spec),
    }
}

/// Parses one array value and enforces the size limit.
fn checked_array(value: &JsonValue) -> Result<PimArray, RequestError> {
    let array = array_from_json(value).map_err(bad_request)?;
    if array.rows() > MAX_ARRAY_DIM || array.cols() > MAX_ARRAY_DIM {
        return Err(unprocessable(format!(
            "array {array} exceeds the service limit of {MAX_ARRAY_DIM} rows/cols"
        )));
    }
    Ok(array)
}

/// Resolves the optional `"array"` member (default: [`default_array`]).
fn array_field(body: &JsonValue) -> Result<PimArray, RequestError> {
    body.get("array")
        .map_or_else(|| Ok(default_array()), checked_array)
}

/// Resolves the optional `"algorithms"` list (default: the paper trio).
fn algorithms_field(body: &JsonValue) -> Result<Vec<MappingAlgorithm>, RequestError> {
    let Some(items) = optional(
        body,
        "algorithms",
        "an array of labels",
        JsonValue::as_array,
    )?
    else {
        return Ok(MappingAlgorithm::paper_trio().to_vec());
    };
    if items.is_empty() {
        return Err(bad_request(
            "\"algorithms\" must name at least one algorithm",
        ));
    }
    let mut algorithms = Vec::with_capacity(items.len());
    for item in items {
        let label = item
            .as_str()
            .ok_or_else(|| bad_request("\"algorithms\" entries must be strings"))?;
        let algorithm = algorithm_by_label(label).map_err(unprocessable)?;
        if !algorithms.contains(&algorithm) {
            algorithms.push(algorithm);
        }
    }
    Ok(algorithms)
}

/// An engine failure on a valid request (a chip too small for the
/// network, a network that does not chain): `422` with the reason.
fn engine_error(error: vw_sdk::VwSdkError) -> RequestError {
    unprocessable(error.to_string())
}

/// `POST /v1/plan` and `vwsdk plan`: one network on one array under an
/// algorithm set.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRequest {
    network: Network,
    array: PimArray,
    algorithms: Vec<MappingAlgorithm>,
}

impl PlanRequest {
    /// Builds the request from `{"network": NAME | "spec": {...},
    /// "array"?: "RxC" | {"rows","cols"}, "algorithms"?: [LABEL, ...]}`.
    ///
    /// # Errors
    ///
    /// `400` for a malformed body, `422` for an impossible one.
    pub fn from_json(body: &JsonValue) -> Result<Self, RequestError> {
        check_members(body, "network spec array algorithms")?;
        Ok(Self {
            network: network_field(body)?,
            array: array_field(body)?,
            algorithms: algorithms_field(body)?,
        })
    }

    /// Plans every layer through `engine`'s search memo.
    ///
    /// # Errors
    ///
    /// `422` if planning fails.
    pub fn run(&self, engine: &PlanningEngine) -> Result<NetworkReport, RequestError> {
        engine
            .plan_network_with(&self.network, self.array, &self.algorithms)
            .map_err(engine_error)
    }
}

/// `POST /v1/sweep` and `vwsdk sweep`: networks × arrays under an
/// algorithm set.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    networks: Vec<Network>,
    arrays: Vec<PimArray>,
    algorithms: Vec<MappingAlgorithm>,
}

impl SweepRequest {
    /// Builds the request from `{"networks"?: [NAME, ...] | "all",
    /// "specs"?: [{...}, ...], "arrays"?: ["RxC", ...], "algorithms"?}`;
    /// `"all"` counts only as the whole value. Defaults: the whole zoo
    /// unless `"networks"` or `"specs"` is given, × the paper's Fig. 8(b)
    /// array sizes.
    ///
    /// # Errors
    ///
    /// `400` for a malformed body, `422` for an impossible one.
    pub fn from_json(body: &JsonValue) -> Result<Self, RequestError> {
        check_members(body, "networks specs arrays algorithms")?;
        let mut networks = match body.get("networks") {
            None => Vec::new(),
            Some(JsonValue::String(all)) if all.eq_ignore_ascii_case("all") => zoo::all(),
            Some(JsonValue::Array(items)) => items
                .iter()
                .map(|item| {
                    zoo_network(
                        item.as_str()
                            .ok_or_else(|| bad_request("\"networks\" entries must be strings"))?,
                    )
                })
                .collect::<Result<_, _>>()?,
            Some(_) => {
                return Err(bad_request(
                    "\"networks\" must be an array of zoo names or the string \"all\"",
                ))
            }
        };
        let specs = optional(
            body,
            "specs",
            "an array of network specs",
            JsonValue::as_array,
        )?;
        for spec in specs.unwrap_or_default() {
            networks.push(spec_network(spec)?);
        }
        if body.get("networks").is_none() && body.get("specs").is_none() {
            networks = zoo::all();
        } else if networks.is_empty() {
            return Err(bad_request("the sweep names no networks"));
        }
        let arrays = optional(body, "arrays", "a non-empty array of geometries", |v| {
            v.as_array().filter(|items| !items.is_empty())
        })?;
        Ok(Self {
            networks,
            arrays: match arrays {
                None => presets::fig8b_sweep().iter().map(|p| p.array).collect(),
                Some(items) => items.iter().map(checked_array).collect::<Result<_, _>>()?,
            },
            algorithms: algorithms_field(body)?,
        })
    }

    /// Plans every network on every array in one fan-out over `engine`'s
    /// workers, network-major.
    ///
    /// # Errors
    ///
    /// `422` if planning fails.
    pub fn run(&self, engine: &PlanningEngine) -> Result<Vec<NetworkReport>, RequestError> {
        engine
            .sweep_arrays_with(&self.networks, &self.arrays, &self.algorithms)
            .map_err(engine_error)
    }
}

/// `POST /v1/deploy` and `vwsdk deploy`: one network onto a many-array
/// chip, each layer's algorithm picked from an algorithm set.
#[derive(Debug, Clone, PartialEq)]
pub struct DeployRequest {
    network: Network,
    chip: ChipConfig,
    algorithms: Vec<MappingAlgorithm>,
}

impl DeployRequest {
    /// Builds the request from `{"network": NAME | "spec": {...},
    /// "array"?, "arrays"?: N, "reprogram"?: N, "algorithms"?}`.
    /// Defaults: a 128-array chip (the PipeLayer-like preset size) of
    /// 512×512 crossbars with a 2000-cycle reload, optimizing over the
    /// paper trio.
    ///
    /// # Errors
    ///
    /// `400` for a malformed body, `422` for an impossible one, such as a
    /// chip of zero arrays.
    pub fn from_json(body: &JsonValue) -> Result<Self, RequestError> {
        check_members(body, "network spec array arrays reprogram algorithms")?;
        let network = network_field(body)?;
        let array = array_field(body)?;
        let n_arrays = optional(
            body,
            "arrays",
            "an integer array count",
            JsonValue::as_usize,
        )?
        .unwrap_or(128);
        if n_arrays > MAX_CHIP_ARRAYS {
            return Err(unprocessable(format!(
                "chip budget {n_arrays} exceeds the service limit of {MAX_CHIP_ARRAYS} arrays"
            )));
        }
        let reprogram = optional(
            body,
            "reprogram",
            "an integer cycle count",
            JsonValue::as_u64,
        )?
        .unwrap_or(2_000);
        let algorithms = algorithms_field(body)?;
        let chip = ChipConfig::new(n_arrays, array, reprogram)
            .map_err(|e| unprocessable(e.to_string()))?;
        Ok(Self {
            network,
            chip,
            algorithms,
        })
    }

    /// Deploys the network through `engine`'s search memo and the budget
    /// optimizer.
    ///
    /// # Errors
    ///
    /// `422` if the chip has fewer arrays than the network has layers, or
    /// planning fails.
    pub fn run(&self, engine: &PlanningEngine) -> Result<DeploymentReport, RequestError> {
        let deployment = engine
            .deploy_network_with(&self.network, &self.chip, &self.algorithms)
            .map_err(engine_error)?;
        Ok(DeploymentReport::with_defaults(
            self.network.name(),
            &deployment,
        ))
    }
}

/// `POST /v1/simulate` and `vwsdk simulate`: one network executed end
/// to end on the functional crossbar simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateRequest {
    network: Network,
    array: PimArray,
    algorithm: MappingAlgorithm,
    seed: u64,
    mode: ExecMode,
    batch: usize,
}

impl SimulateRequest {
    /// Builds the request from `{"network": NAME | "spec": {...},
    /// "array"?, "algorithm"?: LABEL, "seed"?: N, "mode"?: "exact" |
    /// "quantized", "batch"?: N}`. Defaults: [`DEFAULT_ALGORITHM`] on
    /// [`default_array`], [`DEFAULT_SEED`], quantized mode, batch 1.
    ///
    /// # Errors
    ///
    /// `400` for a malformed body, `422` for an impossible one, such as a
    /// batch of 0.
    pub fn from_json(body: &JsonValue) -> Result<Self, RequestError> {
        check_members(body, "network spec array algorithm seed mode batch")?;
        let network = network_field(body)?;
        let array = array_field(body)?;
        let algorithm = optional(body, "algorithm", "a string label", JsonValue::as_str)?
            .map_or(Ok(DEFAULT_ALGORITHM), algorithm_by_label)
            .map_err(unprocessable)?;
        let seed = optional(body, "seed", "a non-negative integer", JsonValue::as_u64)?
            .unwrap_or(DEFAULT_SEED);
        let mode = match optional(body, "mode", "a string", JsonValue::as_str)? {
            None => ExecMode::Quantized,
            Some(label) => ExecMode::by_label(label).ok_or_else(|| {
                unprocessable(format!(
                    "unknown mode {label:?}; expected \"exact\" or \"quantized\""
                ))
            })?,
        };
        let batch =
            optional(body, "batch", "a positive integer", JsonValue::as_usize)?.unwrap_or(1);
        if batch == 0 {
            return Err(unprocessable(
                "\"batch\" must be at least 1 (a batch of 0 inputs simulates nothing)",
            ));
        }
        Ok(Self {
            network,
            array,
            algorithm,
            seed,
            mode,
            batch,
        })
    }

    /// Refuses a simulation over a compute budget with `422`: more than
    /// `max_batch` inputs, or more than `max_macs` MACs over the batch.
    /// The crossbar stream and the reference check each do work
    /// proportional to the MACs.
    ///
    /// # Errors
    ///
    /// `422` naming the bound the request exceeds.
    pub fn within_budget(&self, max_batch: usize, max_macs: u64) -> Result<(), RequestError> {
        let batch = self.batch;
        if batch > max_batch {
            return Err(unprocessable(format!(
                "\"batch\" {batch} is over the simulation limit of {max_batch}"
            )));
        }
        let total_macs = self.network.total_macs().saturating_mul(batch as u64);
        if total_macs > max_macs {
            return Err(unprocessable(format!(
                "network {:?} needs {total_macs} MACs for a batch of {batch}, over the \
                 simulation limit of {max_macs}",
                self.network.name(),
            )));
        }
        Ok(())
    }

    /// Plans every layer through `engine`'s search memo, programs the
    /// plans once and streams the batch through them on up to `jobs`
    /// workers (`0` = one per core), verifying each output against the
    /// reference forward pass.
    ///
    /// # Errors
    ///
    /// `422` if the network does not chain spatially or a stage fails to
    /// simulate.
    pub fn run(
        &self,
        engine: &PlanningEngine,
        jobs: usize,
    ) -> Result<SimulationReport, RequestError> {
        engine
            .simulate_network_batch_with(
                &self.network,
                self.array,
                self.algorithm,
                self.seed,
                self.mode,
                self.batch,
                jobs,
            )
            .map_err(engine_error)
    }
}

/// Parses an algorithm label (case-insensitive, as printed by
/// [`MappingAlgorithm::label`]).
///
/// # Errors
///
/// Returns the list of valid labels for unknown names.
pub fn algorithm_by_label(label: &str) -> Result<MappingAlgorithm, String> {
    MappingAlgorithm::all()
        .into_iter()
        .find(|a| a.label().eq_ignore_ascii_case(label))
        .ok_or_else(|| {
            let known: Vec<&str> = MappingAlgorithm::all().iter().map(|a| a.label()).collect();
            format!("unknown algorithm {label:?}; expected one of {known:?}")
        })
}

/// Parses the request's `"array"` member: either an `"RxC"` string or a
/// `{"rows": R, "cols": C}` object.
///
/// # Errors
///
/// Returns a message naming the malformed field.
fn array_from_json(value: &JsonValue) -> Result<PimArray, String> {
    match value {
        JsonValue::String(text) => presets::parse_array(text).map_err(|e| e.to_string()),
        JsonValue::Object(_) => {
            let rows = value
                .get("rows")
                .and_then(JsonValue::as_usize)
                .ok_or("array object needs integer \"rows\"")?;
            let cols = value
                .get("cols")
                .and_then(JsonValue::as_usize)
                .ok_or("array object needs integer \"cols\"")?;
            PimArray::new(rows, cols).map_err(|e| e.to_string())
        }
        _ => Err("\"array\" must be an \"RxC\" string or {\"rows\", \"cols\"}".to_string()),
    }
}

/// An `f64` rounded to two decimals, as a JSON number. Rendering
/// through [`fmt_f64`] keeps the API's numbers the same rounding the
/// text tables print.
fn rounded2(value: f64) -> JsonValue {
    JsonValue::Number(fmt_f64(value, 2).parse::<f64>().unwrap_or(value))
}

/// Speedup rounded to the paper's two decimals, as a JSON number.
fn speedup_number(ratio: f64) -> JsonValue {
    rounded2(ratio)
}

/// One mapping plan as JSON: window, tiling, cycle breakdown.
fn plan_json(plan: &MappingPlan) -> JsonValue {
    JsonValue::object([
        ("algorithm", JsonValue::from(plan.algorithm().label())),
        ("window", JsonValue::from(plan.window().to_string())),
        ("descriptor", JsonValue::from(plan.descriptor())),
        ("tiled_ic", plan.tiled_ic().into()),
        ("tiled_oc", plan.tiled_oc().into()),
        ("windows_in_pw", plan.windows_in_pw().into()),
        ("parallel_windows", plan.n_parallel_windows().into()),
        ("duplication", plan.duplication().into()),
        ("ar_cycles", plan.ar_cycles().into()),
        ("ac_cycles", plan.ac_cycles().into()),
        ("cycles", plan.cycles().into()),
    ])
}

/// One layer's comparison: the layer descriptor plus every plan.
fn layer_json(comparison: &LayerComparison) -> JsonValue {
    let layer = comparison.layer();
    JsonValue::object([
        ("layer", JsonValue::from(layer.name())),
        ("shape", JsonValue::from(layer.to_string())),
        (
            "plans",
            JsonValue::array(comparison.plans().iter().map(plan_json)),
        ),
    ])
}

/// Totals and cross-algorithm speedups of one report.
fn totals_json(report: &NetworkReport) -> (JsonValue, JsonValue) {
    let totals = JsonValue::Object(
        report
            .algorithms()
            .iter()
            .filter_map(|&alg| {
                report
                    .total_cycles(alg)
                    .map(|cycles| (alg.label().to_string(), cycles.into()))
            })
            .collect(),
    );
    let mut speedups = Vec::new();
    for &alg in report.algorithms() {
        for &baseline in report.algorithms() {
            if alg == baseline {
                continue;
            }
            if let Some(ratio) = report.speedup(alg, baseline) {
                speedups.push(JsonValue::object([
                    ("algorithm", JsonValue::from(alg.label())),
                    ("baseline", JsonValue::from(baseline.label())),
                    ("speedup", speedup_number(ratio)),
                ]));
            }
        }
    }
    (totals, JsonValue::Array(speedups))
}

/// A full network report: identity, per-layer plans, totals, speedups.
/// This is the payload `POST /v1/plan` answers with.
pub fn report_json(report: &NetworkReport) -> JsonValue {
    let (totals, speedups) = totals_json(report);
    JsonValue::object([
        ("network", JsonValue::from(report.network_name())),
        ("array", JsonValue::from(report.array().to_string())),
        (
            "layers",
            JsonValue::array(report.layers().iter().map(layer_json)),
        ),
        ("totals", totals),
        ("speedups", speedups),
    ])
}

/// A condensed report — identity, totals, speedups, no per-layer detail.
/// `POST /v1/sweep` and `vwsdk sweep --format json` emit lists of these.
fn report_summary_json(report: &NetworkReport) -> JsonValue {
    let (totals, speedups) = totals_json(report);
    JsonValue::object([
        ("network", JsonValue::from(report.network_name())),
        ("array", JsonValue::from(report.array().to_string())),
        ("totals", totals),
        ("speedups", speedups),
    ])
}

/// The sweep schema — `{"reports": [summary...], "cache": {...}}` —
/// shared by `POST /v1/sweep` and `vwsdk sweep --format json`, so the
/// wire format and the CLI's file format cannot drift apart. Each
/// report summary additionally carries a `"search"` array with the
/// per-layer candidate counts (`evaluated`/`pruned`) the engine's
/// memoized window searches spent on that report's own algorithms, so
/// sweep output explains its own planning cost whatever else the
/// engine has planned.
pub fn sweep_json(
    reports: &[NetworkReport],
    stats: &EngineStats,
    engine: &vw_sdk::PlanningEngine,
) -> JsonValue {
    JsonValue::object([
        (
            "reports",
            JsonValue::array(reports.iter().map(|report| {
                let mut summary = report_summary_json(report);
                if let JsonValue::Object(members) = &mut summary {
                    members.push((
                        "search".to_string(),
                        JsonValue::array(report.layers().iter().map(|cmp| {
                            let (evaluated, pruned) = engine.search_effort(
                                cmp.layer(),
                                report.array(),
                                report.algorithms(),
                            );
                            JsonValue::object([
                                ("layer", JsonValue::from(cmp.layer().name())),
                                ("evaluated", evaluated.into()),
                                ("pruned", pruned.into()),
                            ])
                        })),
                    ));
                }
                summary
            })),
        ),
        ("cache", stats_json(stats)),
    ])
}

/// One deployment stage as JSON.
fn stage_json(stage: &pim_chip::report::StageReport) -> JsonValue {
    JsonValue::object([
        ("layer", JsonValue::from(stage.layer.as_str())),
        ("algorithm", JsonValue::from(stage.algorithm.label())),
        ("descriptor", JsonValue::from(stage.descriptor.as_str())),
        ("tiles", stage.tiles.into()),
        ("arrays", stage.arrays.into()),
        ("resident", stage.resident.into()),
        ("stage_cycles", stage.stage_cycles.into()),
        ("compute_cycles", stage.compute_cycles.into()),
        ("energy_pj", rounded2(stage.energy_pj)),
    ])
}

/// A chip deployment report as JSON — the payload `POST /v1/deploy`
/// answers with, and exactly what `vwsdk deploy --format json` prints
/// (the acceptance tests assert the two are identical).
pub fn deployment_json(report: &pim_chip::report::DeploymentReport) -> JsonValue {
    JsonValue::object([
        ("network", JsonValue::from(report.network())),
        (
            "chip",
            JsonValue::object([
                ("arrays", report.n_arrays().into()),
                ("array", JsonValue::from(report.array())),
                ("reprogram_cycles", report.reprogram_cycles().into()),
            ]),
        ),
        (
            "layers",
            JsonValue::array(report.stages().iter().map(stage_json)),
        ),
        ("arrays_used", report.arrays_used().into()),
        ("tiles_demanded", report.tiles_demanded().into()),
        ("fully_resident", report.fully_resident().into()),
        (
            "bottleneck",
            JsonValue::object([
                ("cycles", report.bottleneck_cycles().into()),
                (
                    "stage",
                    report
                        .bottleneck_stage()
                        .map_or(JsonValue::Null, JsonValue::from),
                ),
            ]),
        ),
        ("latency_cycles", report.latency_cycles().into()),
        ("throughput_ips", rounded2(report.throughput_ips())),
        (
            "energy_per_image_pj",
            rounded2(report.energy_per_image_pj()),
        ),
    ])
}

/// One executed simulation stage as JSON.
fn stage_execution_json(stage: &pim_sim::StageExecution) -> JsonValue {
    JsonValue::object([
        ("layer", JsonValue::from(stage.layer.as_str())),
        ("algorithm", JsonValue::from(stage.algorithm.label())),
        ("descriptor", JsonValue::from(stage.descriptor.as_str())),
        ("predicted_cycles", stage.predicted_cycles.into()),
        ("executed_cycles", stage.executed_cycles.into()),
        ("macs", stage.macs.into()),
        ("adc_conversions", stage.adc_conversions.into()),
        ("dac_conversions", stage.dac_conversions.into()),
        ("array_programmings", stage.array_programmings.into()),
        ("energy_pj", rounded2(stage.energy_pj)),
    ])
}

/// A network-scale simulation report as JSON — the payload
/// `POST /v1/simulate` answers with, and exactly what
/// `vwsdk simulate --format json` prints (the acceptance tests assert
/// the two are byte-identical).
pub fn simulation_json(report: &pim_sim::SimulationReport) -> JsonValue {
    JsonValue::object([
        ("network", JsonValue::from(report.network.as_str())),
        ("array", JsonValue::from(report.array.as_str())),
        ("seed", report.seed.into()),
        ("mode", JsonValue::from(report.mode.label())),
        ("batch", JsonValue::from(report.batch as u64)),
        (
            "stages",
            JsonValue::array(report.stages.iter().map(stage_execution_json)),
        ),
        ("elements", report.elements.into()),
        ("mismatches", report.mismatches.into()),
        ("bit_exact", report.matches().into()),
        ("cycles_match", report.cycles_match().into()),
        ("executed_cycles", report.executed_cycles().into()),
        ("predicted_cycles", report.predicted_cycles().into()),
        ("macs", report.total_macs().into()),
        ("energy_pj", rounded2(report.total_energy_pj())),
    ])
}

/// Cache counters as JSON (the service's cache-hit stats).
pub fn stats_json(stats: &EngineStats) -> JsonValue {
    JsonValue::object([
        ("search_hits", stats.search_hits.into()),
        ("search_misses", stats.search_misses.into()),
        ("search_entries", stats.search_entries.into()),
    ])
}

/// One metric's sorted label pairs as a JSON object.
fn labels_json(labels: &[(String, String)]) -> JsonValue {
    JsonValue::object(
        labels
            .iter()
            .map(|(k, v)| (k.as_str(), JsonValue::from(v.as_str()))),
    )
}

/// The process-wide telemetry registry as JSON. This one function is
/// both the `GET /v1/metrics?format=json` answer and what
/// `vwsdk --metrics-dump` prints, so the CLI dump's schema is
/// byte-identical to the wire by construction.
///
/// Histograms carry their cumulative buckets plus interpolated
/// p50/p90/p99 estimates, so latency percentiles are readable without
/// a scraper.
pub fn metrics_json() -> JsonValue {
    let registry = pim_telemetry::global();
    let snapshot = registry.snapshot();
    JsonValue::object([
        (
            "counters",
            JsonValue::array(snapshot.counters.iter().map(|c| {
                JsonValue::object([
                    ("name", JsonValue::from(c.name.as_str())),
                    ("labels", labels_json(&c.labels)),
                    ("value", c.value.into()),
                ])
            })),
        ),
        (
            "gauges",
            JsonValue::array(snapshot.gauges.iter().map(|g| {
                JsonValue::object([
                    ("name", JsonValue::from(g.name.as_str())),
                    ("labels", labels_json(&g.labels)),
                    ("value", JsonValue::Number(g.value)),
                ])
            })),
        ),
        (
            "histograms",
            JsonValue::array(snapshot.histograms.iter().map(|h| {
                let mut cumulative = 0u64;
                let mut buckets: Vec<JsonValue> = h
                    .bounds
                    .iter()
                    .zip(&h.counts)
                    .map(|(bound, in_bucket)| {
                        cumulative += in_bucket;
                        JsonValue::object([
                            ("le", JsonValue::Number(*bound)),
                            ("count", cumulative.into()),
                        ])
                    })
                    .collect();
                let overflow = h.counts.last().copied().unwrap_or(0);
                buckets.push(JsonValue::object([
                    ("le", JsonValue::from("+Inf")),
                    ("count", (cumulative + overflow).into()),
                ]));
                JsonValue::object([
                    ("name", JsonValue::from(h.name.as_str())),
                    ("labels", labels_json(&h.labels)),
                    ("count", h.count.into()),
                    ("sum", JsonValue::Number(h.sum)),
                    ("p50", JsonValue::Number(h.quantile(0.50))),
                    ("p90", JsonValue::Number(h.quantile(0.90))),
                    ("p99", JsonValue::Number(h.quantile(0.99))),
                    ("buckets", JsonValue::array(buckets)),
                ])
            })),
        ),
    ])
}

/// The uniform error body: `{"error": {"status": S, "message": M}}`.
pub fn error_json(status: u16, message: &str) -> JsonValue {
    JsonValue::object([(
        "error",
        JsonValue::object([
            ("status", JsonValue::from(u64::from(status))),
            ("message", JsonValue::from(message)),
        ]),
    )])
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_nets::zoo;
    use vw_sdk::Planner;

    fn arr(r: usize, c: usize) -> PimArray {
        PimArray::new(r, c).unwrap()
    }

    #[test]
    fn algorithm_labels_round_trip() {
        for alg in MappingAlgorithm::all() {
            assert_eq!(algorithm_by_label(alg.label()).unwrap(), alg);
        }
        assert_eq!(
            algorithm_by_label("VW-SDK").unwrap(),
            MappingAlgorithm::VwSdk
        );
        assert!(algorithm_by_label("bogus").unwrap_err().contains("im2col"));
    }

    #[test]
    fn arrays_parse_from_both_forms() {
        let s = array_from_json(&JsonValue::from("512x256")).unwrap();
        assert_eq!((s.rows(), s.cols()), (512, 256));
        let o = array_from_json(&JsonValue::object([
            ("rows", 128usize.into()),
            ("cols", 256usize.into()),
        ]))
        .unwrap();
        assert_eq!((o.rows(), o.cols()), (128, 256));
        assert!(array_from_json(&JsonValue::from("roxc")).is_err());
        assert!(array_from_json(&JsonValue::Number(5.0)).is_err());
        assert!(array_from_json(&JsonValue::object([("rows", 5usize.into())])).is_err());
    }

    #[test]
    fn report_json_carries_table1_facts() {
        let report = Planner::new(arr(512, 512))
            .plan_network(&zoo::resnet18_table1())
            .unwrap();
        let json = report_json(&report);
        assert_eq!(
            json.get("network").and_then(JsonValue::as_str),
            Some("ResNet-18")
        );
        assert_eq!(
            json.get("totals")
                .and_then(|t| t.get("VW-SDK"))
                .and_then(JsonValue::as_u64),
            Some(4294)
        );
        let speedups = json.get("speedups").and_then(JsonValue::as_array).unwrap();
        let headline = speedups
            .iter()
            .find(|s| {
                s.get("algorithm").and_then(JsonValue::as_str) == Some("VW-SDK")
                    && s.get("baseline").and_then(JsonValue::as_str) == Some("im2col")
            })
            .unwrap();
        assert_eq!(headline.get("speedup"), Some(&JsonValue::Number(4.67)));
        // conv4 appears with the paper's 4x3x42x256 descriptor.
        assert!(json.render().contains("4x3x42x256"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let report = Planner::new(arr(256, 256))
            .plan_network(&zoo::by_name("tiny").unwrap())
            .unwrap();
        assert_eq!(report_json(&report).render(), report_json(&report).render());
        assert_eq!(
            report_summary_json(&report).render(),
            report_summary_json(&report).render()
        );
    }

    #[test]
    fn summary_drops_layers_but_keeps_totals() {
        let report = Planner::new(arr(256, 256))
            .plan_network(&zoo::by_name("tiny").unwrap())
            .unwrap();
        let summary = report_summary_json(&report);
        assert!(summary.get("layers").is_none());
        assert!(summary.get("totals").is_some());
    }

    #[test]
    fn deployment_json_carries_chip_and_stage_facts() {
        use pim_chip::report::DeploymentReport;
        use pim_chip::{optimize, ChipConfig};
        let chip = ChipConfig::new(32, arr(512, 512), 2_000).expect("valid chip");
        let deployment = optimize::deploy_mixed(
            &zoo::resnet18_table1(),
            &MappingAlgorithm::paper_trio(),
            &chip,
        )
        .expect("deployable");
        let report = DeploymentReport::with_defaults("ResNet-18", &deployment);
        let json = deployment_json(&report);
        assert_eq!(
            json.get("network").and_then(JsonValue::as_str),
            Some("ResNet-18")
        );
        assert_eq!(
            json.get("chip")
                .and_then(|c| c.get("arrays"))
                .and_then(JsonValue::as_u64),
            Some(32)
        );
        let layers = json.get("layers").and_then(JsonValue::as_array).unwrap();
        assert_eq!(layers.len(), 5);
        assert!(layers[0]
            .get("algorithm")
            .and_then(JsonValue::as_str)
            .is_some());
        assert!(json
            .get("bottleneck")
            .and_then(|b| b.get("cycles"))
            .is_some());
        // Deterministic rendering.
        assert_eq!(json.render(), deployment_json(&report).render());
    }

    #[test]
    fn error_body_is_structured() {
        let e = error_json(404, "no such route");
        assert_eq!(
            e.render(),
            r#"{"error":{"status":404,"message":"no such route"}}"#
        );
    }
}
