//! End-to-end test of the planning daemon over real sockets.
//!
//! Boots a [`PlanServer`] on an ephemeral port and proves the
//! acceptance criteria of the serving tier:
//!
//! * concurrent `POST /v1/plan` requests (zoo names *and* inline
//!   specs) answer plans **byte-identical** to what the in-process
//!   sequential [`Planner`] renders for the same query;
//! * malformed JSON, malformed HTTP and impossible requests answer
//!   structured 4xx JSON instead of dropping the connection;
//! * the shared cache observes the traffic (hits grow under repeats).

use pim_arch::PimArray;
use pim_nets::{zoo, NetworkSpec};
use pim_report::json::JsonValue;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use vw_sdk::Planner;
use vw_sdk_serve::{api, PlanServer};

/// One request over a fresh connection; returns (status, body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    let status: u16 = response
        .split(' ')
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let payload = response
        .split_once("\r\n\r\n")
        .expect("header/body separator")
        .1
        .to_string();
    (status, payload)
}

/// The exact bytes the server must answer for a plan of `network` on
/// `array`: the in-process render plus the trailing cache member.
fn expected_plan_prefix(network: &pim_nets::Network, array: PimArray) -> String {
    let report = Planner::new(array)
        .plan_network(network)
        .expect("planning is total");
    let rendered = api::report_json(&report).render();
    // The response appends `,"cache":{...}` inside the same object.
    format!("{},\"cache\":", &rendered[..rendered.len() - 1])
}

#[test]
fn concurrent_plans_are_byte_identical_to_the_sequential_planner() {
    let server = PlanServer::bind("127.0.0.1:0", 4).expect("bind ephemeral");
    let addr = server.local_addr().expect("bound");
    let handle = server.spawn();

    // Zoo-name and inline-spec queries, interleaved, 4 threads x 6 requests.
    let resnet_body = r#"{"network": "resnet18", "array": "512x512"}"#.to_string();
    let spec_json = NetworkSpec::from_network(&zoo::tiny()).to_json().render();
    let spec_body = format!("{{\"spec\": {spec_json}, \"array\": \"256x256\"}}");

    let resnet_expected = expected_plan_prefix(
        &zoo::resnet18_table1(),
        PimArray::new(512, 512).expect("positive"),
    );
    let tiny_expected =
        expected_plan_prefix(&zoo::tiny(), PimArray::new(256, 256).expect("positive"));

    std::thread::scope(|scope| {
        for worker in 0..4 {
            let resnet_body = &resnet_body;
            let spec_body = &spec_body;
            let resnet_expected = &resnet_expected;
            let tiny_expected = &tiny_expected;
            scope.spawn(move || {
                for round in 0..6 {
                    let (body, expected) = if (worker + round) % 2 == 0 {
                        (resnet_body, resnet_expected)
                    } else {
                        (spec_body, tiny_expected)
                    };
                    let (status, payload) = request(addr, "POST", "/v1/plan", body);
                    assert_eq!(status, 200, "{payload}");
                    assert!(
                        payload.starts_with(expected.as_str()),
                        "response diverges from the sequential Planner:\n\
                         expected prefix: {expected}\n\
                         got: {payload}"
                    );
                }
            });
        }
    });

    // The repeats hit the shared search memo.
    let stats = handle.state().stats();
    assert!(stats.search_hits > 0, "no memo hits after 24 requests");
    handle.shutdown();
}

#[test]
fn malformed_and_impossible_requests_answer_structured_4xx() {
    let server = PlanServer::bind("127.0.0.1:0", 2).expect("bind ephemeral");
    let addr = server.local_addr().expect("bound");
    let handle = server.spawn();

    // Malformed JSON → 400 with a position-bearing message.
    let (status, payload) = request(addr, "POST", "/v1/plan", "{\"network\": ");
    assert_eq!(status, 400, "{payload}");
    let error = JsonValue::parse(&payload).expect("error body is JSON");
    assert_eq!(
        error
            .get("error")
            .and_then(|e| e.get("status"))
            .and_then(JsonValue::as_u64),
        Some(400)
    );

    // Invalid spec geometry → 422 naming the layer.
    let (status, payload) = request(
        addr,
        "POST",
        "/v1/plan",
        r#"{"spec": {"name": "bad", "layers": [
            {"input": 2, "kernel": 7, "in_channels": 1, "out_channels": 1}
        ]}}"#,
    );
    assert_eq!(status, 422, "{payload}");
    assert!(payload.contains("layers[0]"), "{payload}");

    // Unknown route → 404; wrong method → 405; both JSON.
    let (status, payload) = request(addr, "GET", "/nope", "");
    assert_eq!(status, 404, "{payload}");
    assert!(JsonValue::parse(&payload).is_ok());
    let (status, _) = request(addr, "GET", "/v1/plan", "");
    assert_eq!(status, 405);

    // Malformed HTTP entirely → 400, connection still answered.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"COMPLETE GARBAGE\r\n\r\n").expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");

    handle.shutdown();
}

#[test]
fn deploy_answers_the_optimizer_and_rejects_malformed_specs() {
    let server = PlanServer::bind("127.0.0.1:0", 2).expect("bind ephemeral");
    let addr = server.local_addr().expect("bound");
    let handle = server.spawn();

    // Happy path: the response is byte-identical to the in-process
    // optimizer rendered through the same JSON view.
    let (status, payload) = request(
        addr,
        "POST",
        "/v1/deploy",
        r#"{"network": "resnet18", "arrays": 32, "array": "512x512", "reprogram": 2000}"#,
    );
    assert_eq!(status, 200, "{payload}");
    let chip = pim_chip::ChipConfig::new(32, PimArray::new(512, 512).expect("positive"), 2_000)
        .expect("valid chip");
    let deployment = pim_chip::optimize::deploy_mixed(
        &zoo::resnet18_table1(),
        &pim_mapping::MappingAlgorithm::paper_trio(),
        &chip,
    )
    .expect("deployable");
    let expected = api::deployment_json(&pim_chip::report::DeploymentReport::with_defaults(
        "ResNet-18",
        &deployment,
    ))
    .render();
    assert_eq!(payload, expected);

    // Malformed spec → 4xx structured JSON, never a dropped connection.
    let (status, payload) = request(
        addr,
        "POST",
        "/v1/deploy",
        r#"{"spec": {"name": "bad", "layers": [
            {"input": 2, "kernel": 7, "in_channels": 1, "out_channels": 1}
        ]}, "arrays": 8}"#,
    );
    assert_eq!(status, 422, "{payload}");
    let error = JsonValue::parse(&payload).expect("error body is JSON");
    assert_eq!(
        error
            .get("error")
            .and_then(|e| e.get("status"))
            .and_then(JsonValue::as_u64),
        Some(422)
    );
    let (status, payload) = request(addr, "POST", "/v1/deploy", r#"{"arrays": true}"#);
    assert_eq!(status, 400, "{payload}");

    handle.shutdown();
}

#[test]
fn simulate_round_trips_the_shared_simulation_schema() {
    let server = PlanServer::bind("127.0.0.1:0", 2).expect("bind ephemeral");
    let addr = server.local_addr().expect("bound");
    let handle = server.spawn();

    // Happy path: byte-identical to the in-process engine rendered
    // through the same JSON view (which is also what the CLI's
    // `vwsdk simulate --format json` prints).
    let (status, payload) = request(
        addr,
        "POST",
        "/v1/simulate",
        r#"{"network": "lenet5", "array": "96x64", "seed": 7, "mode": "quantized"}"#,
    );
    assert_eq!(status, 200, "{payload}");
    let engine = vw_sdk::PlanningEngine::new();
    let expected = engine
        .simulate_network_batch_with(
            &zoo::lenet5(),
            PimArray::new(96, 64).expect("positive"),
            pim_mapping::MappingAlgorithm::VwSdk,
            7,
            pim_sim::ExecMode::Quantized,
            1,
            1,
        )
        .expect("executable network");
    assert_eq!(payload, api::simulation_json(&expected).render());
    let body = JsonValue::parse(&payload).expect("simulate body is JSON");
    assert_eq!(
        body.get("bit_exact").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert_eq!(
        body.get("cycles_match").and_then(JsonValue::as_bool),
        Some(true)
    );

    // Unchained networks answer a structured 422.
    let (status, payload) = request(addr, "POST", "/v1/simulate", r#"{"network": "mobilenet"}"#);
    assert_eq!(status, 422, "{payload}");
    assert!(payload.contains("\"error\""), "{payload}");

    handle.shutdown();
}

#[test]
fn the_five_endpoints_answer() {
    let server = PlanServer::bind("127.0.0.1:0", 2).expect("bind ephemeral");
    let addr = server.local_addr().expect("bound");
    let handle = server.spawn();

    let (status, payload) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(payload.contains("\"status\":\"ok\""), "{payload}");

    let (status, payload) = request(addr, "GET", "/v1/networks", "");
    assert_eq!(status, 200);
    assert!(payload.contains("ResNet-18"), "{payload}");

    let (status, payload) = request(
        addr,
        "POST",
        "/v1/sweep",
        r#"{"networks": ["tiny"], "arrays": ["64x64", "128x128"]}"#,
    );
    assert_eq!(status, 200, "{payload}");
    let sweep = JsonValue::parse(&payload).expect("sweep body is JSON");
    assert_eq!(
        sweep
            .get("reports")
            .and_then(JsonValue::as_array)
            .map(<[JsonValue]>::len),
        Some(2)
    );

    let (status, _) = request(addr, "POST", "/v1/plan", r#"{"network": "tiny"}"#);
    assert_eq!(status, 200);

    let (status, payload) = request(
        addr,
        "POST",
        "/v1/deploy",
        r#"{"network": "tiny", "arrays": 8, "array": "64x64"}"#,
    );
    assert_eq!(status, 200, "{payload}");
    assert!(payload.contains("\"bottleneck\""), "{payload}");

    let (status, payload) = request(
        addr,
        "POST",
        "/v1/simulate",
        r#"{"network": "tiny", "array": "64x64"}"#,
    );
    assert_eq!(status, 200, "{payload}");
    assert!(payload.contains("\"bit_exact\":true"), "{payload}");

    handle.shutdown();
}
