//! Request handlers: JSON in, planning engine, JSON out.
//!
//! Every handler is a pure function from a parsed request to a
//! `(status, JsonValue)` pair — no I/O — so the whole API surface is
//! unit-testable without opening a socket. Status discipline:
//!
//! * `400` — the body is not JSON, or a field has the wrong type;
//! * `422` — well-formed JSON naming something impossible (unknown
//!   network or algorithm, a spec whose geometry cannot build);
//! * `200` — a planned result, always including cache-hit statistics.

use crate::api;
use crate::state::ServerState;
use pim_arch::{presets, PimArray};
use pim_chip::report::DeploymentReport;
use pim_chip::ChipConfig;
use pim_mapping::MappingAlgorithm;
use pim_nets::{zoo, Network, NetworkSpec};
use pim_report::json::JsonValue;

/// A handler failure: the 4xx status plus a message for the error body.
type HandlerError = (u16, String);

/// Largest input/kernel axis an untrusted spec may name. Window search
/// cost grows with the padded input area, so without a bound one
/// request with a 10^9-wide layer pins a worker for hours; 16384 covers
/// every real CNN with two orders of magnitude to spare.
const MAX_SPEC_DIM: usize = 16_384;
/// Largest channel count an untrusted spec may name.
const MAX_SPEC_CHANNELS: usize = 65_536;
/// Largest array axis a request may name.
const MAX_ARRAY_DIM: usize = 65_536;
/// Largest chip array budget a deploy request may name. The optimizer's
/// work grows with the budget, so hostile requests are bounded here the
/// same way spec dimensions are.
const MAX_CHIP_ARRAYS: usize = 65_536;
/// Deploy default when the request names no `"arrays"` budget — the
/// PipeLayer-like preset size.
const DEFAULT_CHIP_ARRAYS: usize = 128;
/// Deploy default when the request names no `"reprogram"` cost.
const DEFAULT_REPROGRAM_CYCLES: u64 = 2_000;
/// Simulate default when the request names no `"seed"` (matches the
/// CLI's default, so default CLI and default wire requests agree).
const DEFAULT_SIM_SEED: u64 = 2_024;
/// Largest network (in total MACs) a simulate request may name. Unlike
/// planning, functional simulation computes in software, skipping only
/// zero inputs, so cost is linear in this number; 2²⁸ (~268 M) covers the
/// executable zoo with two orders of magnitude to spare while bounding
/// a hostile request to seconds, not hours.
const MAX_SIM_MACS: u64 = 1 << 28;
/// Largest `"batch"` a simulate request may name. Combined with
/// [`MAX_SIM_MACS`] (the bound is on `batch × total_macs`) this keeps a
/// hostile batched request inside the same compute envelope as a
/// single-input one.
const MAX_SIM_BATCH: u64 = 256;

fn bad_request(message: impl Into<String>) -> HandlerError {
    (400, message.into())
}

fn unprocessable(message: impl Into<String>) -> HandlerError {
    (422, message.into())
}

/// `GET /healthz`. Uptime comes from the telemetry registry's start
/// time, version from the build, so liveness probes can tell a fresh
/// deploy from a long-running one.
pub fn healthz(state: &ServerState) -> JsonValue {
    let uptime = pim_telemetry::global().uptime_seconds();
    JsonValue::object([
        ("status", JsonValue::from("ok")),
        ("version", JsonValue::from(env!("CARGO_PKG_VERSION"))),
        (
            "uptime_seconds",
            JsonValue::Number((uptime * 1000.0).round() / 1000.0),
        ),
        ("requests", state.requests_served().into()),
        ("jobs", state.pool_size().into()),
        ("shards", state.shards().into()),
        ("cache", api::stats_json(&state.stats())),
    ])
}

/// `GET /v1/networks`.
pub fn networks() -> JsonValue {
    JsonValue::object([(
        "networks",
        JsonValue::array(zoo::all().iter().map(|net| {
            JsonValue::object([
                ("name", JsonValue::from(net.name())),
                ("layers", net.len().into()),
                ("params", net.total_params().into()),
                ("macs", net.total_macs().into()),
            ])
        })),
    )])
}

/// Parses the request body as a JSON object, rejecting everything else.
fn parse_body(body: &[u8]) -> Result<JsonValue, HandlerError> {
    let text = std::str::from_utf8(body).map_err(|_| bad_request("request body is not UTF-8"))?;
    if text.trim().is_empty() {
        return Err(bad_request("request body is empty; expected a JSON object"));
    }
    let value = JsonValue::parse(text).map_err(|e| bad_request(e.to_string()))?;
    if value.as_object().is_none() {
        return Err(bad_request("request body must be a JSON object"));
    }
    Ok(value)
}

/// Rejects bodies containing keys outside `known` — catching typos like
/// `"newtork"` instead of silently planning the default.
fn check_known_fields(body: &JsonValue, known: &[&str]) -> Result<(), HandlerError> {
    for (key, _) in body.as_object().expect("checked by parse_body") {
        if !known.contains(&key.as_str()) {
            return Err(bad_request(format!(
                "unknown field {key:?}; expected one of {known:?}"
            )));
        }
    }
    Ok(())
}

/// Resolves the optional `"algorithms"` list (default: the paper trio).
fn algorithms_field(body: &JsonValue) -> Result<Vec<MappingAlgorithm>, HandlerError> {
    let Some(value) = body.get("algorithms") else {
        return Ok(MappingAlgorithm::paper_trio().to_vec());
    };
    let items = value
        .as_array()
        .ok_or_else(|| bad_request("\"algorithms\" must be an array of labels"))?;
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
        let algorithm = api::algorithm_by_label(label).map_err(unprocessable)?;
        if !algorithms.contains(&algorithm) {
            algorithms.push(algorithm);
        }
    }
    Ok(algorithms)
}

/// Parses one array value and enforces the service's size limit.
fn checked_array(value: &JsonValue) -> Result<PimArray, HandlerError> {
    let array = api::array_from_json(value).map_err(bad_request)?;
    if array.rows() > MAX_ARRAY_DIM || array.cols() > MAX_ARRAY_DIM {
        return Err(unprocessable(format!(
            "array {array} exceeds the service limit of {MAX_ARRAY_DIM} rows/cols"
        )));
    }
    Ok(array)
}

/// Resolves one `"array"` member (default: the paper's 512×512).
fn array_field(body: &JsonValue) -> Result<PimArray, HandlerError> {
    match body.get("array") {
        None => Ok(PimArray::new(512, 512).expect("positive default")),
        Some(value) => checked_array(value),
    }
}

/// Looks up a zoo network, answering 422 with the zoo listing hint.
fn zoo_network(name: &str) -> Result<Network, HandlerError> {
    zoo::by_name(name).ok_or_else(|| {
        unprocessable(format!(
            "unknown network {name:?}; GET /v1/networks lists the zoo"
        ))
    })
}

/// Builds a network from an inline spec value (422 on invalid specs).
///
/// Beyond structural validity, untrusted specs are bounded in
/// magnitude: planning cost scales with the input area and channel
/// counts, so unbounded dimensions would let one request monopolize a
/// worker (and overflow cycle arithmetic).
fn spec_network(value: &JsonValue) -> Result<Network, HandlerError> {
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
/// (inline network) pair shared by the plan and deploy endpoints.
fn network_field(body: &JsonValue) -> Result<Network, HandlerError> {
    match (body.get("network"), body.get("spec")) {
        (Some(_), Some(_)) => Err(bad_request("give either \"network\" or \"spec\", not both")),
        (None, None) => Err(bad_request(
            "the request needs \"network\" (zoo name) or \"spec\" (inline network)",
        )),
        (Some(name), None) => {
            let name = name
                .as_str()
                .ok_or_else(|| bad_request("\"network\" must be a string"))?;
            zoo_network(name)
        }
        (None, Some(spec)) => spec_network(spec),
    }
}

/// `POST /v1/plan` — body: `{"network": NAME | "spec": {...},
/// "array"?: "RxC" | {"rows","cols"}, "algorithms"?: [LABEL, ...]}`.
///
/// Every handler takes the calling connection's shard index and
/// ignores it: all shards share the state's one engine.
pub fn plan(state: &ServerState, _shard: usize, body: &[u8]) -> Result<JsonValue, HandlerError> {
    let body = parse_body(body)?;
    check_known_fields(&body, &["network", "spec", "array", "algorithms"])?;
    let network = network_field(&body)?;
    let array = array_field(&body)?;
    let algorithms = algorithms_field(&body)?;
    let report = state
        .engine()
        .plan_network_with(&network, array, &algorithms)
        .map_err(|e| unprocessable(e.to_string()))?;
    state.trim_caches();
    let mut response = api::report_json(&report);
    if let JsonValue::Object(members) = &mut response {
        members.push(("cache".to_string(), api::stats_json(&state.stats())));
    }
    Ok(response)
}

/// `POST /v1/sweep` — body: `{"networks"?: [NAME, ...] | "all",
/// "specs"?: [{...}, ...], "arrays"?: ["RxC", ...], "algorithms"?}`.
/// Defaults: the whole zoo × the paper's Fig. 8(b) array sizes.
pub fn sweep(state: &ServerState, _shard: usize, body: &[u8]) -> Result<JsonValue, HandlerError> {
    let body = parse_body(body)?;
    check_known_fields(&body, &["networks", "specs", "arrays", "algorithms"])?;

    let mut networks: Vec<Network> = Vec::new();
    match body.get("networks") {
        None => {}
        Some(JsonValue::String(all)) if all.eq_ignore_ascii_case("all") => {
            networks.extend(zoo::all());
        }
        Some(JsonValue::Array(items)) => {
            for item in items {
                let name = item
                    .as_str()
                    .ok_or_else(|| bad_request("\"networks\" entries must be strings"))?;
                networks.push(zoo_network(name)?);
            }
        }
        Some(_) => {
            return Err(bad_request(
                "\"networks\" must be an array of zoo names or the string \"all\"",
            ))
        }
    }
    if let Some(specs) = body.get("specs") {
        let items = specs
            .as_array()
            .ok_or_else(|| bad_request("\"specs\" must be an array of network specs"))?;
        for item in items {
            networks.push(spec_network(item)?);
        }
    }
    if networks.is_empty() {
        if body.get("networks").is_some() || body.get("specs").is_some() {
            return Err(bad_request("the sweep names no networks"));
        }
        networks = zoo::all();
    }

    let arrays: Vec<PimArray> = match body.get("arrays") {
        None => presets::fig8b_sweep().iter().map(|p| p.array).collect(),
        Some(JsonValue::Array(items)) if !items.is_empty() => {
            items.iter().map(checked_array).collect::<Result<_, _>>()?
        }
        Some(_) => {
            return Err(bad_request(
                "\"arrays\" must be a non-empty array of geometries",
            ))
        }
    };
    let algorithms = algorithms_field(&body)?;

    let mut reports = Vec::with_capacity(networks.len() * arrays.len());
    for network in &networks {
        for &array in &arrays {
            reports.push(
                state
                    .engine()
                    .plan_network_with(network, array, &algorithms)
                    .map_err(|e| unprocessable(e.to_string()))?,
            );
        }
    }
    // Render before trimming, so this request's own search records are
    // still in the memo.
    let response = api::sweep_json(&reports, &state.stats(), state.engine());
    state.trim_caches();
    Ok(response)
}

/// `POST /v1/deploy` — body: `{"network": NAME | "spec": {...},
/// "array"?: "RxC" | {"rows","cols"}, "arrays"?: N, "reprogram"?: N,
/// "algorithms"?: [LABEL, ...]}`. Defaults: a 128-array chip of
/// 512×512 crossbars with a 2000-cycle reload, optimizing over the
/// paper trio.
///
/// The response is [`api::deployment_json`] exactly — no appended cache
/// member — so `vwsdk deploy --format json` and this endpoint answer
/// identical JSON for the same question.
pub fn deploy(state: &ServerState, _shard: usize, body: &[u8]) -> Result<JsonValue, HandlerError> {
    let body = parse_body(body)?;
    check_known_fields(
        &body,
        &[
            "network",
            "spec",
            "array",
            "arrays",
            "reprogram",
            "algorithms",
        ],
    )?;
    let network = network_field(&body)?;
    let array = array_field(&body)?;
    let n_arrays = match body.get("arrays") {
        None => DEFAULT_CHIP_ARRAYS,
        Some(value) => value
            .as_usize()
            .ok_or_else(|| bad_request("\"arrays\" must be an integer array count"))?,
    };
    if n_arrays > MAX_CHIP_ARRAYS {
        return Err(unprocessable(format!(
            "chip budget {n_arrays} exceeds the service limit of {MAX_CHIP_ARRAYS} arrays"
        )));
    }
    let reprogram = match body.get("reprogram") {
        None => DEFAULT_REPROGRAM_CYCLES,
        Some(value) => value
            .as_u64()
            .ok_or_else(|| bad_request("\"reprogram\" must be an integer cycle count"))?,
    };
    let algorithms = algorithms_field(&body)?;
    let chip =
        ChipConfig::new(n_arrays, array, reprogram).map_err(|e| unprocessable(e.to_string()))?;
    let deployment = state
        .engine()
        .deploy_network_with(&network, &chip, &algorithms)
        .map_err(|e| unprocessable(e.to_string()))?;
    state.trim_caches();
    Ok(api::deployment_json(&DeploymentReport::with_defaults(
        network.name(),
        &deployment,
    )))
}

/// `POST /v1/simulate` — body: `{"network": NAME | "spec": {...},
/// "array"?: "RxC" | {"rows","cols"}, "algorithm"?: LABEL,
/// "seed"?: N, "mode"?: "exact" | "quantized", "batch"?: N}`.
/// Defaults: VW-SDK plans on the paper's 512×512 array, seed 2024,
/// quantized mode, batch 1.
///
/// Plans every layer through the shared search memo, programs the
/// plans once, streams `batch` deterministic seed-derived inputs
/// through the deployment end to end on the functional simulator, and
/// answers the per-stage executed-vs-predicted report (counters summed
/// over the batch, programmings counted once) including the
/// bit-exactness verdict against the reference forward pass of every
/// batch element.
///
/// The response is [`api::simulation_json`] exactly — no appended cache
/// member — so `vwsdk simulate --format json` and this endpoint answer
/// identical JSON for the same question.
pub fn simulate(
    state: &ServerState,
    _shard: usize,
    body: &[u8],
) -> Result<JsonValue, HandlerError> {
    let body = parse_body(body)?;
    check_known_fields(
        &body,
        &[
            "network",
            "spec",
            "array",
            "algorithm",
            "seed",
            "mode",
            "batch",
        ],
    )?;
    let network = network_field(&body)?;
    let array = array_field(&body)?;
    let algorithm = match body.get("algorithm") {
        None => MappingAlgorithm::VwSdk,
        Some(value) => {
            let label = value
                .as_str()
                .ok_or_else(|| bad_request("\"algorithm\" must be a string label"))?;
            api::algorithm_by_label(label).map_err(unprocessable)?
        }
    };
    let seed = match body.get("seed") {
        None => DEFAULT_SIM_SEED,
        Some(value) => value
            .as_u64()
            .ok_or_else(|| bad_request("\"seed\" must be a non-negative integer"))?,
    };
    let mode = match body.get("mode") {
        None => pim_sim::ExecMode::Quantized,
        Some(value) => {
            let label = value
                .as_str()
                .ok_or_else(|| bad_request("\"mode\" must be a string"))?;
            pim_sim::ExecMode::by_label(label).ok_or_else(|| {
                unprocessable(format!(
                    "unknown mode {label:?}; expected \"exact\" or \"quantized\""
                ))
            })?
        }
    };
    let batch = match body.get("batch") {
        None => 1,
        Some(value) => {
            let batch = value
                .as_u64()
                .ok_or_else(|| bad_request("\"batch\" must be a positive integer"))?;
            if batch == 0 {
                return Err(unprocessable(
                    "\"batch\" must be at least 1 (a batch of 0 inputs simulates nothing)"
                        .to_string(),
                ));
            }
            if batch > MAX_SIM_BATCH {
                return Err(unprocessable(format!(
                    "\"batch\" {batch} is over the simulation limit of {MAX_SIM_BATCH}"
                )));
            }
            batch
        }
    };
    let total_macs = network.total_macs().saturating_mul(batch);
    if total_macs > MAX_SIM_MACS {
        return Err(unprocessable(format!(
            "network {:?} needs {total_macs} MACs for a batch of {batch}, over the \
             simulation limit of {MAX_SIM_MACS}",
            network.name(),
        )));
    }
    // Stream workers stay at 1: the connection pool is the server's
    // parallelism budget, one core per in-flight request.
    let report = state
        .engine()
        .simulate_network_batch_with(&network, array, algorithm, seed, mode, batch as usize, 1)
        .map_err(|e| unprocessable(e.to_string()))?;
    state.trim_caches();
    Ok(api::simulation_json(&report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_sdk::Planner;

    fn state() -> ServerState {
        ServerState::new(2)
    }

    fn plan_body(text: &str) -> Result<JsonValue, HandlerError> {
        plan(&state(), 0, text.as_bytes())
    }

    #[test]
    fn healthz_reports_ok_and_cache() {
        let s = state();
        let v = healthz(&s);
        assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("ok"));
        assert!(v.get("cache").is_some());
        assert_eq!(
            v.get("version").and_then(JsonValue::as_str),
            Some(env!("CARGO_PKG_VERSION"))
        );
        let uptime = v
            .get("uptime_seconds")
            .and_then(JsonValue::as_f64)
            .expect("uptime_seconds present");
        assert!(uptime >= 0.0);
    }

    #[test]
    fn networks_lists_the_zoo() {
        let v = networks();
        let list = v.get("networks").and_then(JsonValue::as_array).unwrap();
        assert_eq!(list.len(), zoo::all().len());
        assert!(v.render().contains("ResNet-18"));
    }

    #[test]
    fn plan_zoo_network_matches_in_process_planner() {
        let response = plan_body(r#"{"network": "resnet18", "array": "512x512"}"#).unwrap();
        let report = Planner::new(PimArray::new(512, 512).unwrap())
            .plan_network(&zoo::resnet18_table1())
            .unwrap();
        // Identical except the appended cache member.
        let mut members = match response {
            JsonValue::Object(m) => m,
            other => panic!("expected object, got {other:?}"),
        };
        assert_eq!(members.pop().unwrap().0, "cache");
        assert_eq!(
            JsonValue::Object(members).render(),
            api::report_json(&report).render()
        );
    }

    #[test]
    fn plan_inline_spec_and_algorithm_choice() {
        let response = plan_body(
            r#"{"spec": {"name": "mini", "layers": [
                   {"input": 8, "kernel": 3, "in_channels": 2, "out_channels": 4}
               ]},
               "array": {"rows": 64, "cols": 64},
               "algorithms": ["VW-SDK"]}"#,
        )
        .unwrap();
        assert_eq!(
            response.get("network").and_then(JsonValue::as_str),
            Some("mini")
        );
        assert_eq!(
            response.get("array").and_then(JsonValue::as_str),
            Some("64x64")
        );
        let layers = response
            .get("layers")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(layers.len(), 1);
        let plans = layers[0]
            .get("plans")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(plans.len(), 1);
        assert_eq!(
            plans[0].get("algorithm").and_then(JsonValue::as_str),
            Some("VW-SDK")
        );
    }

    #[test]
    fn plan_defaults_to_paper_trio_on_512() {
        let response = plan_body(r#"{"network": "tiny"}"#).unwrap();
        assert_eq!(
            response.get("array").and_then(JsonValue::as_str),
            Some("512x512")
        );
        let plans = response
            .get("layers")
            .and_then(JsonValue::as_array)
            .unwrap()[0]
            .get("plans")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(plans.len(), 3);
    }

    #[test]
    fn malformed_bodies_are_400() {
        assert_eq!(plan_body("not json").unwrap_err().0, 400);
        assert_eq!(plan_body("").unwrap_err().0, 400);
        assert_eq!(plan_body("[1,2]").unwrap_err().0, 400);
        assert_eq!(plan_body(r#"{"network": 5}"#).unwrap_err().0, 400);
        assert_eq!(
            plan_body(r#"{"network": "tiny", "newtork": "x"}"#)
                .unwrap_err()
                .0,
            400
        );
        assert_eq!(
            plan_body(r#"{"network": "tiny", "spec": {}}"#)
                .unwrap_err()
                .0,
            400
        );
        assert_eq!(plan_body(r#"{}"#).unwrap_err().0, 400);
        assert_eq!(
            plan_body(r#"{"network": "tiny", "array": "nope"}"#)
                .unwrap_err()
                .0,
            400
        );
        let err = plan(&state(), 0, &[0xff, 0xfe]).unwrap_err();
        assert_eq!(err.0, 400);
    }

    #[test]
    fn impossible_requests_are_422() {
        let (status, message) = plan_body(r#"{"network": "nonexistent"}"#).unwrap_err();
        assert_eq!(status, 422);
        assert!(message.contains("/v1/networks"), "{message}");
        let (status, message) = plan_body(
            r#"{"spec": {"name": "bad", "layers": [
                   {"input": 2, "kernel": 9, "in_channels": 1, "out_channels": 1}
               ]}}"#,
        )
        .unwrap_err();
        assert_eq!(status, 422);
        assert!(message.contains("exceeds"), "{message}");
        let (status, _) =
            plan_body(r#"{"network": "tiny", "algorithms": ["warp-drive"]}"#).unwrap_err();
        assert_eq!(status, 422);
    }

    #[test]
    fn oversized_specs_and_arrays_are_shed_with_422() {
        // A 10^9-wide layer would pin a worker for hours; the service
        // bounds magnitudes before planning starts.
        let (status, message) = plan_body(
            r#"{"spec": {"name": "huge", "layers": [
                   {"input": 1000000000, "kernel": 3, "in_channels": 1, "out_channels": 1}
               ]}}"#,
        )
        .unwrap_err();
        assert_eq!(status, 422);
        assert!(message.contains("service limit"), "{message}");
        let (status, _) = plan_body(
            r#"{"spec": {"name": "wide", "layers": [
                   {"input": 8, "kernel": 3, "in_channels": 1, "out_channels": 100000000}
               ]}}"#,
        )
        .unwrap_err();
        assert_eq!(status, 422);
        let (status, message) =
            plan_body(r#"{"network": "tiny", "array": "1000000x1000000"}"#).unwrap_err();
        assert_eq!(status, 422);
        assert!(message.contains("service limit"), "{message}");
        let s = state();
        assert_eq!(
            sweep(&s, 0, br#"{"networks": ["tiny"], "arrays": ["1000000x8"]}"#)
                .unwrap_err()
                .0,
            422
        );
    }

    #[test]
    fn sweep_defaults_cover_zoo_and_fig8b() {
        let s = state();
        let response = sweep(
            &s,
            0,
            br#"{"networks": ["tiny"], "arrays": ["64x64", "128x128"]}"#,
        )
        .unwrap();
        let reports = response
            .get("reports")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(reports.len(), 2);
        let full = sweep(&s, 0, b"{}").unwrap();
        let reports = full.get("reports").and_then(JsonValue::as_array).unwrap();
        assert_eq!(reports.len(), zoo::all().len() * 5);
        assert!(full.get("cache").is_some());
    }

    #[test]
    fn sweep_mixes_zoo_and_specs() {
        let s = state();
        let response = sweep(
            &s,
            0,
            br#"{"networks": ["tiny"],
                 "specs": [{"name": "inline", "layers": [
                     {"input": 8, "kernel": 3, "in_channels": 1, "out_channels": 2}
                 ]}],
                 "arrays": ["64x64"]}"#,
        )
        .unwrap();
        let reports = response
            .get("reports")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(
            reports[1].get("network").and_then(JsonValue::as_str),
            Some("inline")
        );
    }

    #[test]
    fn sweep_rejects_malformed_shapes() {
        let s = state();
        assert_eq!(sweep(&s, 0, b"{\"arrays\": []}").unwrap_err().0, 400);
        assert_eq!(
            sweep(&s, 0, b"{\"networks\": \"some\"}").unwrap_err().0,
            400
        );
        assert_eq!(sweep(&s, 0, b"{\"networks\": []}").unwrap_err().0, 400);
        assert_eq!(
            sweep(&s, 0, br#"{"networks": ["nonexistent"]}"#)
                .unwrap_err()
                .0,
            422
        );
    }

    #[test]
    fn deploy_answers_the_optimizer_report() {
        let s = state();
        let response = deploy(
            &s,
            0,
            br#"{"network": "resnet18", "arrays": 32, "array": "512x512"}"#,
        )
        .unwrap();
        // Byte-identical to the sequential optimizer path rendered
        // through the same JSON view.
        let chip = ChipConfig::new(32, PimArray::new(512, 512).unwrap(), 2_000).unwrap();
        let expected = pim_chip::optimize::deploy_mixed(
            &zoo::resnet18_table1(),
            &MappingAlgorithm::paper_trio(),
            &chip,
        )
        .unwrap();
        let expected =
            api::deployment_json(&DeploymentReport::with_defaults("ResNet-18", &expected));
        assert_eq!(response.render(), expected.render());
        let layers = response
            .get("layers")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(layers.len(), 5);
    }

    #[test]
    fn deploy_defaults_to_the_pipelayer_like_chip() {
        let response = deploy(&state(), 0, br#"{"network": "tiny"}"#).unwrap();
        let chip = response.get("chip").unwrap();
        assert_eq!(chip.get("arrays").and_then(JsonValue::as_u64), Some(128));
        assert_eq!(
            chip.get("array").and_then(JsonValue::as_str),
            Some("512x512")
        );
        assert_eq!(
            chip.get("reprogram_cycles").and_then(JsonValue::as_u64),
            Some(2_000)
        );
    }

    #[test]
    fn deploy_rejects_malformed_and_impossible_requests() {
        let s = state();
        // Malformed shapes are 400.
        assert_eq!(deploy(&s, 0, b"not json").unwrap_err().0, 400);
        assert_eq!(
            deploy(&s, 0, br#"{"network": "tiny", "arrays": "many"}"#)
                .unwrap_err()
                .0,
            400
        );
        assert_eq!(
            deploy(&s, 0, br#"{"network": "tiny", "reprogram": "slow"}"#)
                .unwrap_err()
                .0,
            400
        );
        assert_eq!(
            deploy(&s, 0, br#"{"network": "tiny", "bogus": 1}"#)
                .unwrap_err()
                .0,
            400
        );
        // Impossible requests are 422 with the reason.
        let (status, message) = deploy(&s, 0, br#"{"network": "tiny", "arrays": 0}"#).unwrap_err();
        assert_eq!(status, 422);
        assert!(message.contains("at least 1 array"), "{message}");
        let (status, message) =
            deploy(&s, 0, br#"{"network": "resnet18", "arrays": 3}"#).unwrap_err();
        assert_eq!(status, 422);
        assert!(message.contains("3 arrays"), "{message}");
        let (status, message) =
            deploy(&s, 0, br#"{"network": "tiny", "arrays": 1000000}"#).unwrap_err();
        assert_eq!(status, 422);
        assert!(message.contains("service limit"), "{message}");
        assert_eq!(
            deploy(&s, 0, br#"{"network": "nonexistent"}"#)
                .unwrap_err()
                .0,
            422
        );
    }

    #[test]
    fn simulate_answers_the_engine_report() {
        let s = state();
        let response = simulate(
            &s,
            0,
            br#"{"network": "tiny", "array": "64x64", "seed": 42}"#,
        )
        .unwrap();
        assert_eq!(
            response.get("bit_exact").and_then(JsonValue::as_bool),
            Some(true)
        );
        assert_eq!(
            response.get("cycles_match").and_then(JsonValue::as_bool),
            Some(true)
        );
        assert_eq!(response.get("seed").and_then(JsonValue::as_u64), Some(42));
        assert_eq!(
            response.get("mode").and_then(JsonValue::as_str),
            Some("quantized")
        );
        // Byte-identical to the in-process engine path rendered through
        // the same JSON view.
        let expected = s
            .engine()
            .simulate_network_batch_with(
                &zoo::tiny(),
                PimArray::new(64, 64).unwrap(),
                MappingAlgorithm::VwSdk,
                42,
                pim_sim::ExecMode::Quantized,
                1,
                1,
            )
            .unwrap();
        assert_eq!(response.render(), api::simulation_json(&expected).render());
    }

    #[test]
    fn simulate_honours_algorithm_and_mode() {
        let s = state();
        let response = simulate(
            &s,
            0,
            br#"{"network": "lenet5", "array": "96x64",
                 "algorithm": "im2col", "mode": "exact"}"#,
        )
        .unwrap();
        assert_eq!(
            response.get("mode").and_then(JsonValue::as_str),
            Some("exact")
        );
        let stages = response
            .get("stages")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(stages.len(), 2);
        assert!(stages
            .iter()
            .all(|s| s.get("algorithm").and_then(JsonValue::as_str) == Some("im2col")));
        assert_eq!(
            response.get("bit_exact").and_then(JsonValue::as_bool),
            Some(true)
        );
    }

    #[test]
    fn simulate_streams_a_batch_and_reports_it() {
        let s = state();
        let response = simulate(
            &s,
            0,
            br#"{"network": "tiny", "array": "64x64", "seed": 42, "batch": 3}"#,
        )
        .unwrap();
        assert_eq!(response.get("batch").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(
            response.get("bit_exact").and_then(JsonValue::as_bool),
            Some(true)
        );
        let single = simulate(
            &s,
            0,
            br#"{"network": "tiny", "array": "64x64", "seed": 42}"#,
        )
        .unwrap();
        assert_eq!(single.get("batch").and_then(JsonValue::as_u64), Some(1));
        // Output elements sum over the batch; weights are programmed once
        // per deployment regardless of the batch size.
        assert_eq!(
            response.get("elements").and_then(JsonValue::as_u64),
            single
                .get("elements")
                .and_then(JsonValue::as_u64)
                .map(|e| e * 3)
        );
        let programmings = |r: &JsonValue| -> u64 {
            r.get("stages")
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|s| {
                    s.get("array_programmings")
                        .and_then(JsonValue::as_u64)
                        .unwrap()
                })
                .sum()
        };
        assert_eq!(programmings(&response), programmings(&single));
    }

    #[test]
    fn simulate_bounds_the_batch() {
        let s = state();
        let (status, message) = simulate(&s, 0, br#"{"network": "tiny", "batch": 0}"#).unwrap_err();
        assert_eq!(status, 422);
        assert!(message.contains("at least 1"), "{message}");
        let (status, message) =
            simulate(&s, 0, br#"{"network": "tiny", "batch": 1000}"#).unwrap_err();
        assert_eq!(status, 422);
        assert!(message.contains("256"), "{message}");
        assert_eq!(
            simulate(&s, 0, br#"{"network": "tiny", "batch": "many"}"#)
                .unwrap_err()
                .0,
            400
        );
        // A network inside the single-input MAC bound is still shed when
        // the batch multiplies it past the envelope.
        let (status, message) =
            simulate(&s, 0, br#"{"network": "vgg13-sim", "batch": 256}"#).unwrap_err();
        assert_eq!(status, 422);
        assert!(message.contains("simulation limit"), "{message}");
    }

    #[test]
    fn simulate_rejects_malformed_and_impossible_requests() {
        let s = state();
        assert_eq!(simulate(&s, 0, b"not json").unwrap_err().0, 400);
        assert_eq!(
            simulate(&s, 0, br#"{"network": "tiny", "seed": "lots"}"#)
                .unwrap_err()
                .0,
            400
        );
        assert_eq!(
            simulate(&s, 0, br#"{"network": "tiny", "bogus": 1}"#)
                .unwrap_err()
                .0,
            400
        );
        let (status, message) =
            simulate(&s, 0, br#"{"network": "tiny", "mode": "fuzzy"}"#).unwrap_err();
        assert_eq!(status, 422);
        assert!(message.contains("fuzzy"), "{message}");
        assert_eq!(
            simulate(&s, 0, br#"{"network": "tiny", "algorithm": "warp"}"#)
                .unwrap_err()
                .0,
            422
        );
        // MobileNet-like fits the MAC bound but does not chain
        // spatially (its paper-form stages skip the pooling).
        let (status, message) = simulate(&s, 0, br#"{"network": "mobilenet"}"#).unwrap_err();
        assert_eq!(status, 422);
        assert!(message.contains("pw1"), "{message}");
        // Full-scale simulation requests are shed by the MAC bound
        // before any planning or execution starts.
        let (status, message) = simulate(&s, 0, br#"{"network": "vgg13"}"#).unwrap_err();
        assert_eq!(status, 422);
        assert!(message.contains("simulation limit"), "{message}");
    }

    #[test]
    fn repeated_plans_hit_the_shared_memo() {
        let s = state();
        plan(&s, 0, br#"{"network": "resnet18"}"#).unwrap();
        let first = s.stats();
        plan(&s, 1, br#"{"network": "resnet18"}"#).unwrap();
        let second = s.stats();
        assert_eq!(first.search_misses, second.search_misses);
        assert_eq!(second.search_hits - first.search_hits, 5);
    }

    /// Per-layer `evaluated` counts of a sweep response's reports.
    fn sweep_effort(response: &JsonValue) -> Vec<u64> {
        let reports = response.get("reports").and_then(JsonValue::as_array);
        reports
            .into_iter()
            .flatten()
            .flat_map(|r| r.get("search").and_then(JsonValue::as_array).unwrap())
            .map(|l| l.get("evaluated").and_then(JsonValue::as_u64).unwrap())
            .collect()
    }

    #[test]
    fn sweep_search_effort_does_not_depend_on_earlier_requests() {
        let s = state();
        let body = br#"{"networks": ["tiny"], "arrays": ["256x256"]}"#;
        let first = sweep(&s, 0, body).unwrap();
        assert_eq!(sweep_effort(&first), [35, 15]);
        // A plan under an ablation algorithm memoizes a second search
        // for the same layers; the trio sweep must not count it.
        plan(
            &s,
            0,
            br#"{"network": "tiny", "array": "256x256", "algorithms": ["VW-SDK (square)"]}"#,
        )
        .unwrap();
        let again = sweep(&s, 0, body).unwrap();
        assert_eq!(sweep_effort(&again), [35, 15]);
        // The same reports `vwsdk sweep --format json` prints.
        let engine = vw_sdk::PlanningEngine::new();
        let reports = engine
            .sweep_arrays(&[zoo::tiny()], &[PimArray::new(256, 256).unwrap()])
            .unwrap();
        let cli = api::sweep_json(&reports, &engine.stats(), &engine);
        assert_eq!(
            again.get("reports").map(JsonValue::render),
            cli.get("reports").map(JsonValue::render)
        );
    }

    #[test]
    fn sweep_search_effort_survives_a_trimmed_memo() {
        let engine = vw_sdk::PlanningEngine::new();
        let reports = engine
            .sweep_arrays(&[zoo::tiny()], &[PimArray::new(256, 256).unwrap()])
            .unwrap();
        // A trim between planning and rendering, from this request or a
        // concurrent one, empties the memo.
        assert!(engine.shed_caches_over(0));
        let stats = engine.stats();
        let response = api::sweep_json(&reports, &stats, &engine);
        assert_eq!(sweep_effort(&response), [35, 15]);
        assert_eq!(engine.stats(), stats, "reporting must not touch the memo");
    }
}
