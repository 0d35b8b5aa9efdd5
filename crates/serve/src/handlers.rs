//! Request handlers: body bytes in, one validated request, the
//! planning engine, JSON out.
//!
//! Every handler is a pure function from a request body to a
//! `(status, JsonValue)` pair — no I/O — so the whole API surface is
//! unit-testable without opening a socket. Each POST handler parses the
//! body, builds the operation's [`api`] request (the constructor `vwsdk`
//! calls too), applies the daemon-only compute budget, runs the request
//! on the state's one engine and renders the shared JSON view. Status
//! discipline:
//!
//! * `400` — the body is not JSON, or a field has the wrong type;
//! * `422` — well-formed JSON naming something impossible (unknown
//!   network or algorithm, a spec whose geometry cannot build) or over
//!   a limit;
//! * `200` — a planned result.

use crate::api;
use crate::state::ServerState;
use pim_nets::zoo;
use pim_report::json::JsonValue;

/// A handler failure: the 4xx status plus a message for the error body.
type HandlerError = api::RequestError;

/// Largest network (in total MACs) a simulate request may name. Unlike
/// planning, functional simulation computes in software, skipping only
/// zero inputs, so cost is linear in this number; 2²⁸ (~268 M) covers the
/// executable zoo with two orders of magnitude to spare while bounding
/// a hostile request to seconds, not hours. Daemon-only: `vwsdk
/// simulate` runs any size its caller asks for.
const MAX_SIM_MACS: u64 = 1 << 28;
/// Largest `"batch"` a simulate request may name. Combined with
/// [`MAX_SIM_MACS`] (the bound is on `batch × total_macs`) this keeps a
/// hostile batched request inside the same compute envelope as a
/// single-input one. Daemon-only, like [`MAX_SIM_MACS`].
const MAX_SIM_BATCH: usize = 256;

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

/// Parses the request body as JSON; [`api`]'s constructors check the
/// rest.
fn parse_body(body: &[u8]) -> Result<JsonValue, HandlerError> {
    let text =
        std::str::from_utf8(body).map_err(|_| (400, "request body is not UTF-8".to_string()))?;
    if text.trim().is_empty() {
        return Err((
            400,
            "request body is empty; expected a JSON object".to_string(),
        ));
    }
    JsonValue::parse(text).map_err(|e| (400, e.to_string()))
}

/// `POST /v1/plan` — body: [`api::PlanRequest::from_json`]. The answer
/// is [`api::report_json`] plus the engine's cache counters.
///
/// Every handler takes the calling connection's shard index and
/// ignores it: all shards share the state's one engine.
pub fn plan(state: &ServerState, _shard: usize, body: &[u8]) -> Result<JsonValue, HandlerError> {
    let report = api::PlanRequest::from_json(&parse_body(body)?)?.run(state.engine())?;
    state.trim_caches();
    let mut response = api::report_json(&report);
    if let JsonValue::Object(members) = &mut response {
        members.push(("cache".to_string(), api::stats_json(&state.stats())));
    }
    Ok(response)
}

/// `POST /v1/sweep` — body: [`api::SweepRequest::from_json`]. The
/// answer is [`api::sweep_json`].
pub fn sweep(state: &ServerState, _shard: usize, body: &[u8]) -> Result<JsonValue, HandlerError> {
    let reports = api::SweepRequest::from_json(&parse_body(body)?)?.run(state.engine())?;
    // Render before trimming, so this request's own search records are
    // still in the memo.
    let response = api::sweep_json(&reports, &state.stats(), state.engine());
    state.trim_caches();
    Ok(response)
}

/// `POST /v1/deploy` — body: [`api::DeployRequest::from_json`].
///
/// The response is [`api::deployment_json`] exactly — no appended cache
/// member — so `vwsdk deploy --format json` and this endpoint answer
/// identical JSON for the same question.
pub fn deploy(state: &ServerState, _shard: usize, body: &[u8]) -> Result<JsonValue, HandlerError> {
    let report = api::DeployRequest::from_json(&parse_body(body)?)?.run(state.engine())?;
    state.trim_caches();
    Ok(api::deployment_json(&report))
}

/// `POST /v1/simulate` — body: [`api::SimulateRequest::from_json`],
/// within the daemon's compute budget (at most 256 inputs and 2²⁸ MACs
/// over the batch).
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
    let request = api::SimulateRequest::from_json(&parse_body(body)?)?;
    request.within_budget(MAX_SIM_BATCH, MAX_SIM_MACS)?;
    // Stream workers stay at 1: the connection pool is the server's
    // parallelism budget, one core per in-flight request.
    let report = request.run(state.engine(), 1)?;
    state.trim_caches();
    Ok(api::simulation_json(&report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_arch::PimArray;
    use pim_chip::report::DeploymentReport;
    use pim_chip::ChipConfig;
    use pim_mapping::MappingAlgorithm;
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
        assert!(
            matches!(v.get("uptime_seconds"), Some(JsonValue::Number(up)) if *up >= 0.0),
            "{v}"
        );
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
        assert_eq!(response.get("bit_exact"), Some(&JsonValue::Bool(true)));
        assert_eq!(response.get("cycles_match"), Some(&JsonValue::Bool(true)));
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
                &zoo::by_name("tiny").unwrap(),
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
        assert_eq!(response.get("bit_exact"), Some(&JsonValue::Bool(true)));
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
        assert_eq!(response.get("bit_exact"), Some(&JsonValue::Bool(true)));
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
            .sweep_arrays(
                &[zoo::by_name("tiny").unwrap()],
                &[PimArray::new(256, 256).unwrap()],
            )
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
            .sweep_arrays(
                &[zoo::by_name("tiny").unwrap()],
                &[PimArray::new(256, 256).unwrap()],
            )
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
