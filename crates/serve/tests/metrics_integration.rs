//! `GET /v1/metrics` end to end: counters advance correctly across a
//! scripted request sequence, the Prometheus text passes the in-tree
//! format checker, and the `?format=json` answer renders the same
//! schema as `api::metrics_json`.
//!
//! The registry is process-global, so the whole scripted sequence
//! lives in one `#[test]` and every assertion is a **delta** against a
//! scrape taken before the sequence — parallel tests in this binary
//! (there are none, deliberately) or earlier requests cannot break it.

use pim_report::json::JsonValue;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use vw_sdk_serve::PlanServer;

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

/// Reads one sample value out of a Prometheus exposition (exact
/// name-with-labels match; 0 when the series does not exist yet).
fn sample(text: &str, series: &str) -> u64 {
    text.lines()
        .find_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            (name == series).then(|| value.parse::<u64>().expect("integer sample"))
        })
        .unwrap_or(0)
}

/// Finds a counter's value in the `?format=json` rendering by name and
/// one distinguishing label pair.
fn json_counter(metrics: &JsonValue, name: &str, label: (&str, &str)) -> u64 {
    metrics
        .get("counters")
        .and_then(JsonValue::as_array)
        .expect("counters array")
        .iter()
        .find(|c| {
            c.get("name").and_then(JsonValue::as_str) == Some(name)
                && c.get("labels")
                    .and_then(|l| l.get(label.0))
                    .and_then(JsonValue::as_str)
                    == Some(label.1)
        })
        .and_then(|c| c.get("value"))
        .and_then(JsonValue::as_u64)
        .unwrap_or(0)
}

#[test]
fn metrics_counters_advance_across_a_scripted_sequence() {
    let server = PlanServer::bind("127.0.0.1:0", 2).expect("bind ephemeral");
    let addr = server.local_addr().expect("bound");
    let handle = server.spawn();

    const PLAN_OK: &str = r#"{"network": "tiny", "array": "256x256"}"#;
    const PLANS: u64 = 3;

    // Baseline scrape: the registry is process-global, so assertions
    // below are deltas against this.
    let (status, before) = request(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    pim_telemetry::promcheck::validate(&before).expect("baseline scrape is valid Prometheus text");

    // Candidate-search effort across all three outcomes; the search
    // counters are bumped only by the single-flight leader of a cold
    // search, so warm plans must leave the sum untouched.
    let candidates = |text: &str| {
        sample(text, "pim_search_candidates_total{outcome=\"evaluated\"}")
            + sample(text, "pim_search_candidates_total{outcome=\"pruned\"}")
            + sample(text, "pim_search_candidates_total{outcome=\"feasible\"}")
    };

    // Scripted sequence: N good plans, one malformed body (400), one
    // unknown network (422), one healthz. The first plan is cold (this
    // server has never seen the shape), the repeats are warm.
    let (status, _) = request(addr, "POST", "/v1/plan", PLAN_OK);
    assert_eq!(status, 200);
    let (status, after_cold) = request(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    assert!(
        candidates(&after_cold) > candidates(&before),
        "a cold plan must spend (and report) candidate-search effort"
    );
    for _ in 1..PLANS {
        let (status, _) = request(addr, "POST", "/v1/plan", PLAN_OK);
        assert_eq!(status, 200);
    }
    let (status, _) = request(addr, "POST", "/v1/plan", "{not json");
    assert_eq!(status, 400);
    let (status, _) = request(addr, "POST", "/v1/plan", r#"{"network": "nonesuch"}"#);
    assert_eq!(status, 422);
    let (status, health) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let health = JsonValue::parse(&health).expect("healthz is JSON");
    assert!(
        health
            .get("uptime_seconds")
            .and_then(JsonValue::as_f64)
            .unwrap()
            >= 0.0
    );
    assert_eq!(
        health.get("version").and_then(JsonValue::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );

    // Scrape again and check the deltas.
    let (status, after) = request(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    pim_telemetry::promcheck::validate(&after).expect("scrape is valid Prometheus text");

    let plan_requests = "pim_requests_total{endpoint=\"/v1/plan\",method=\"POST\"}";
    assert_eq!(
        sample(&after, plan_requests) - sample(&before, plan_requests),
        PLANS + 2
    );
    let plan_ok = "pim_responses_total{class=\"2xx\",endpoint=\"/v1/plan\"}";
    assert_eq!(sample(&after, plan_ok) - sample(&before, plan_ok), PLANS);
    let plan_bad = "pim_responses_total{class=\"4xx\",endpoint=\"/v1/plan\"}";
    assert_eq!(sample(&after, plan_bad) - sample(&before, plan_bad), 2);
    let health_requests = "pim_requests_total{endpoint=\"/healthz\",method=\"GET\"}";
    assert_eq!(
        sample(&after, health_requests) - sample(&before, health_requests),
        1
    );
    // The latency histogram saw every /v1/plan request.
    let plan_lat = "pim_request_seconds_count{endpoint=\"/v1/plan\"}";
    assert_eq!(
        sample(&after, plan_lat) - sample(&before, plan_lat),
        PLANS + 2
    );
    // Search-memo counters flowed through from the engine: the first
    // plan searched tiny's two layers, the repeats hit them.
    let delta = |series: &str| sample(&after, series) - sample(&before, series);
    assert!(delta("pim_search_cache_misses_total") >= 2);
    assert!(delta("pim_search_cache_hits_total") >= 2 * (PLANS - 1));
    // Warm plans re-used the memoized search: candidate counters are
    // exactly where the cold plan left them.
    assert_eq!(
        candidates(&after),
        candidates(&after_cold),
        "warm plans must not re-spend candidate-search effort"
    );

    // The JSON format answers the same values through the shared
    // api::metrics_json schema.
    let (status, json_text) = request(addr, "GET", "/v1/metrics?format=json", "");
    assert_eq!(status, 200);
    let metrics = JsonValue::parse(&json_text).expect("metrics JSON parses");
    assert!(
        json_counter(&metrics, "pim_requests_total", ("endpoint", "/v1/plan"))
            >= sample(&after, plan_requests),
        "JSON view carries at least the text view's counts"
    );
    assert!(metrics
        .get("histograms")
        .and_then(JsonValue::as_array)
        .is_some());

    handle.shutdown();
}
