//! `vwsdk` and the daemon build one request for one question.
//!
//! A corpus of (command line, JSON body) pairs for the four request
//! operations — defaults, every field set, `--spec FILE` against an
//! inline spec, `--networks all` against `"all"` — checked request for
//! request, byte for byte where both print JSON, and refusal for
//! refusal. The daemon's compute budget is the one intended difference.

use pim_report::json::JsonValue;
use vw_sdk_repro::cli::{self, Command};
use vw_sdk_serve::{api, handlers, ServerState};

/// A spec file on disk; `SPEC` in a command line is its path, and the
/// string `"SPEC"` in a body is its JSON.
const SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/specs/edge_cnn.json");

const PLANS: &[(&str, &str)] = &[
    ("plan --network resnet18", r#"{"network": "resnet18"}"#),
    (
        "plan --network vgg13 --array 256x128",
        r#"{"network": "vgg13", "array": "256x128"}"#,
    ),
    (
        "plan --spec SPEC --array 64x64",
        r#"{"spec": "SPEC", "array": "64x64"}"#,
    ),
];

const SWEEPS: &[(&str, &str)] = &[
    ("sweep", "{}"),
    ("sweep --networks all", r#"{"networks": "all"}"#),
    (
        "sweep --networks tiny,lenet5 --arrays 64x64,128x256 --jobs 2",
        r#"{"networks": ["tiny", "lenet5"], "arrays": ["64x64", "128x256"]}"#,
    ),
    (
        "sweep --spec SPEC --arrays 64x64",
        r#"{"specs": ["SPEC"], "arrays": ["64x64"]}"#,
    ),
    (
        "sweep --networks tiny --spec SPEC --arrays 96x64",
        r#"{"networks": ["tiny"], "specs": ["SPEC"], "arrays": ["96x64"]}"#,
    ),
];

const DEPLOYS: &[(&str, &str)] = &[
    ("deploy --network tiny", r#"{"network": "tiny"}"#),
    (
        "deploy --network resnet18 --array 256x256 --arrays 32 --reprogram 4000",
        r#"{"network": "resnet18", "array": "256x256", "arrays": 32, "reprogram": 4000}"#,
    ),
    (
        "deploy --spec SPEC --arrays 32",
        r#"{"spec": "SPEC", "arrays": 32}"#,
    ),
];

const SIMULATIONS: &[(&str, &str)] = &[
    ("simulate --network tiny", r#"{"network": "tiny"}"#),
    (
        "simulate --network lenet5 --array 96x64 --algorithm im2col --seed 7 --mode exact \
         --batch 2 --jobs 2",
        r#"{"network": "lenet5", "array": "96x64", "algorithm": "im2col", "seed": 7,
            "mode": "exact", "batch": 2}"#,
    ),
    (
        "simulate --spec SPEC --array 96x64",
        r#"{"spec": "SPEC", "array": "96x64"}"#,
    ),
];

/// (command line, endpoint, body) triples both frontends refuse.
const REFUSALS: &[(&str, &str, &str)] = &[
    ("plan --network nope", "plan", r#"{"network": "nope"}"#),
    (
        "deploy --network tiny --spec SPEC",
        "deploy",
        r#"{"network": "tiny", "spec": "SPEC"}"#,
    ),
    (
        "simulate --network tiny --batch 0",
        "simulate",
        r#"{"network": "tiny", "batch": 0}"#,
    ),
    (
        "simulate --network tiny --mode fuzzy",
        "simulate",
        r#"{"network": "tiny", "mode": "fuzzy"}"#,
    ),
    (
        "simulate --network tiny --algorithm warp",
        "simulate",
        r#"{"network": "tiny", "algorithm": "warp"}"#,
    ),
    (
        "deploy --network tiny --arrays 0",
        "deploy",
        r#"{"network": "tiny", "arrays": 0}"#,
    ),
    (
        "sweep --networks tiny,all",
        "sweep",
        r#"{"networks": ["tiny", "all"]}"#,
    ),
    (
        "deploy --network tiny --reprogram lots",
        "deploy",
        r#"{"network": "tiny", "reprogram": "lots"}"#,
    ),
    // Refused by the engine after validation, on both frontends.
    (
        "deploy --network resnet18 --arrays 3",
        "deploy",
        r#"{"network": "resnet18", "arrays": 3}"#,
    ),
    (
        "simulate --network mobilenet",
        "simulate",
        r#"{"network": "mobilenet"}"#,
    ),
];

fn argv(line: &str) -> Vec<String> {
    line.replace("SPEC", SPEC)
        .split_whitespace()
        .map(String::from)
        .collect()
}

/// The body text with `"SPEC"` inlined.
fn body_text(text: &str) -> String {
    text.replace("\"SPEC\"", &std::fs::read_to_string(SPEC).unwrap())
}

fn body(text: &str) -> JsonValue {
    JsonValue::parse(&body_text(text)).unwrap()
}

/// What the daemon answers `endpoint` for `text`.
fn answer(state: &ServerState, endpoint: &str, text: &str) -> Result<JsonValue, (u16, String)> {
    let bytes = body_text(text).into_bytes();
    match endpoint {
        "plan" => handlers::plan(state, 0, &bytes),
        "sweep" => handlers::sweep(state, 0, &bytes),
        "deploy" => handlers::deploy(state, 0, &bytes),
        "simulate" => handlers::simulate(state, 0, &bytes),
        other => panic!("no endpoint {other}"),
    }
}

/// What `vwsdk` prints for `line`, or its error.
fn cli_output(line: &str) -> Result<String, cli::CliError> {
    cli::run(&cli::parse(&argv(line))?)
}

#[test]
fn each_command_line_builds_the_request_its_body_builds() {
    for (line, json) in PLANS {
        let expected = api::PlanRequest::from_json(&body(json)).unwrap();
        assert_eq!(
            cli::parse(&argv(line)).unwrap(),
            Command::Plan(expected),
            "{line}"
        );
    }
    for (line, json) in SWEEPS {
        let expected = api::SweepRequest::from_json(&body(json)).unwrap();
        match cli::parse(&argv(line)).unwrap() {
            Command::Sweep { request, .. } => assert_eq!(request, expected, "{line}"),
            other => panic!("{line}: {other:?}"),
        }
    }
    for (line, json) in DEPLOYS {
        let expected = api::DeployRequest::from_json(&body(json)).unwrap();
        match cli::parse(&argv(line)).unwrap() {
            Command::Deploy { request, .. } => assert_eq!(request, expected, "{line}"),
            other => panic!("{line}: {other:?}"),
        }
    }
    for (line, json) in SIMULATIONS {
        let expected = api::SimulateRequest::from_json(&body(json)).unwrap();
        match cli::parse(&argv(line)).unwrap() {
            Command::Simulate { request, .. } => assert_eq!(request, expected, "{line}"),
            other => panic!("{line}: {other:?}"),
        }
    }
}

#[test]
fn deploy_and_simulate_print_the_bytes_the_daemon_answers() {
    let state = ServerState::new(1);
    for (endpoint, corpus) in [("deploy", DEPLOYS), ("simulate", SIMULATIONS)] {
        for (line, json) in corpus {
            let cli = cli_output(&format!("{line} --format json")).unwrap();
            let wire = answer(&state, endpoint, json).unwrap().render();
            assert_eq!(cli, wire, "{line}");
        }
    }
}

#[test]
fn sweeps_answer_the_reports_the_daemon_answers() {
    for (line, json) in SWEEPS {
        let cli = JsonValue::parse(&cli_output(&format!("{line} --format json")).unwrap()).unwrap();
        let wire = answer(&ServerState::new(1), "sweep", json).unwrap();
        let reports = |v: &JsonValue| v.get("reports").map(JsonValue::render);
        assert!(reports(&cli).is_some(), "{line}");
        assert_eq!(reports(&cli), reports(&wire), "{line}");
    }
}

#[test]
fn the_cli_refuses_exactly_what_the_daemon_answers_4xx() {
    let state = ServerState::new(1);
    for (line, endpoint, json) in REFUSALS {
        let err = cli_output(line).expect_err(line);
        let (status, message) = answer(&state, endpoint, json).expect_err(json);
        assert!((400..500).contains(&status), "{json}: {status}");
        assert_eq!(err.to_string(), message, "{line}");
    }
}

#[test]
fn only_the_daemon_caps_a_simulation() {
    // vgg13-sim at batch 128 streams 330,301,440 MACs: a valid request
    // that `vwsdk` runs, over the daemon's 2^28-MAC budget.
    let line = "simulate --network vgg13-sim --batch 128";
    let json = r#"{"network": "vgg13-sim", "batch": 128}"#;
    let expected = api::SimulateRequest::from_json(&body(json)).unwrap();
    match cli::parse(&argv(line)).unwrap() {
        Command::Simulate { request, .. } => assert_eq!(request, expected),
        other => panic!("{other:?}"),
    }
    assert!(cli_output(&format!("{line} --format json"))
        .unwrap()
        .contains(r#""batch":128"#));
    let (status, message) = answer(&ServerState::new(1), "simulate", json).unwrap_err();
    assert_eq!(status, 422);
    assert!(message.contains("330301440 MACs"), "{message}");
}
