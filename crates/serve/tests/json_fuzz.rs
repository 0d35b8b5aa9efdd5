//! Never-panic properties for everything a request body passes through
//! before any work starts: the JSON parser, the network-spec schema and
//! the four request constructors.
//!
//! Inputs are arbitrary bytes drawn mostly from JSON's own alphabet, and
//! valid bodies with a few bytes mutated or a number swapped for an
//! extreme one. Whatever parses must also render back to itself, so the
//! serializer and the parser agree on every value the parser can make.

use pim_nets::NetworkSpec;
use pim_report::json::JsonValue;
use proptest::prelude::*;
use vw_sdk_serve::api::{DeployRequest, PlanRequest, SimulateRequest, SweepRequest};

/// Bytes that make up JSON, weighted far above the rest of the range.
const ALPHABET: &[u8] = b"{}[]\",:0123456789.eE+- \ntruefalsnl\\u";

/// Valid request bodies and a network spec, the seeds of the mutations.
const BODIES: &[&str] = &[
    r#"{"network": "tiny", "array": "64x64"}"#,
    r#"{"networks": ["tiny", "lenet5"], "arrays": ["64x64", "128x128"]}"#,
    r#"{"networks": "all"}"#,
    r#"{"network": "resnet18", "arrays": 32, "array": "512x512", "reprogram": 2000}"#,
    r#"{"network": "tiny", "array": "64x64", "seed": 42, "batch": 3, "mode": "exact",
        "algorithm": "VW-SDK"}"#,
    r#"{"spec": {"name": "fuzz", "layers": [{"name": "c1", "input": [8, 8], "kernel": [3, 3],
        "in_channels": 1, "out_channels": 4, "stride": 1, "padding": 1,
        "post": ["relu", {"op": "max_pool", "kernel": 2}]}]}}"#,
    r#"{"name": "edge", "layers": [{"name": "dw", "input": 16, "kernel": 3, "in_channels": 8,
        "out_channels": 8, "groups": 8, "dilation": 1}]}"#,
];

/// Numbers at the edges of what `f64` and the integer accessors hold.
const EXTREME_NUMBERS: &[&str] = &[
    "0",
    "-0",
    "-1",
    "1.5",
    "1e400",
    "-1e400",
    "1e-400",
    "1e308",
    "9007199254740991",
    "9007199254740992",
    "9007199254740993",
    "18446744073709551616",
    "4294967296",
];

/// Arbitrary bytes, mostly from [`ALPHABET`].
fn arbitrary_text() -> impl Strategy<Value = Vec<u8>> {
    collection::vec(
        prop_oneof![
            (0usize..ALPHABET.len()).prop_map(|i| ALPHABET[i]),
            (0usize..ALPHABET.len()).prop_map(|i| ALPHABET[i]),
            (0usize..ALPHABET.len()).prop_map(|i| ALPHABET[i]),
            any::<u8>(),
        ],
        0..300,
    )
}

/// One of [`BODIES`] with up to four byte edits (replace, insert or
/// delete at a position) and, maybe, one number swapped for an extreme.
fn mutated_body() -> impl Strategy<Value = Vec<u8>> {
    (
        0usize..BODIES.len(),
        collection::vec((0usize..3, any::<usize>(), 0usize..ALPHABET.len()), 0..4),
        0usize..EXTREME_NUMBERS.len() * 2,
    )
        .prop_map(|(body, edits, swap)| {
            let mut text = BODIES[body].to_string();
            if let Some(number) = EXTREME_NUMBERS.get(swap) {
                if let Some(at) = text.find(|c: char| c.is_ascii_digit()) {
                    let end = text[at..]
                        .find(|c: char| !c.is_ascii_digit())
                        .map_or(text.len(), |len| at + len);
                    text.replace_range(at..end, number);
                }
            }
            let mut bytes = text.into_bytes();
            for (kind, at, byte) in edits {
                let at = at % (bytes.len() + 1);
                match kind {
                    0 if at < bytes.len() => bytes[at] = ALPHABET[byte],
                    1 => bytes.insert(at, ALPHABET[byte]),
                    _ if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => {}
                }
            }
            bytes
        })
}

/// Parses `bytes`; a parsed value must survive both renderings and
/// every consumer of request bodies, which may refuse it but not panic.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    let text = String::from_utf8_lossy(bytes);
    let Ok(value) = JsonValue::parse(&text) else {
        return Ok(());
    };
    for rendered in [value.render(), value.render_pretty()] {
        let again = JsonValue::parse(&rendered);
        prop_assert!(again.as_ref() == Ok(&value), "{} -> {:?}", rendered, again);
    }
    let _ = NetworkSpec::from_json(&value);
    if let Some(spec) = value.get("spec") {
        let _ = NetworkSpec::from_json(spec);
    }
    let _ = PlanRequest::from_json(&value);
    let _ = SweepRequest::from_json(&value);
    let _ = DeployRequest::from_json(&value);
    let _ = SimulateRequest::from_json(&value);
    Ok(())
}

#[test]
fn every_seed_body_parses_and_builds_its_request() {
    for body in BODIES {
        let value = JsonValue::parse(body).expect("seed bodies are valid JSON");
        check(body.as_bytes()).unwrap();
        let built = [
            PlanRequest::from_json(&value).is_ok(),
            SweepRequest::from_json(&value).is_ok(),
            DeployRequest::from_json(&value).is_ok(),
            SimulateRequest::from_json(&value).is_ok(),
            NetworkSpec::from_json(&value).is_ok(),
        ];
        assert!(built.contains(&true), "no consumer accepts {body}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_text_never_panics_and_round_trips(bytes in arbitrary_text()) {
        check(&bytes)?;
    }

    #[test]
    fn mutated_bodies_never_panic_and_round_trip(bytes in mutated_body()) {
        check(&bytes)?;
    }
}
