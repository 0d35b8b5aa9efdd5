//! Single-flight coalescing through the serving tier, end to end.
//!
//! N client threads fire the same **cold** plan query at once. Their
//! handlers, spread over the event-loop shards, race into the server's
//! one search memo — single-flight must collapse the burst into
//! **exactly one** window search (`search_misses` advances by 1, total)
//! while every client still receives a byte-identical 200 plan.
//!
//! Lives in its own integration binary: the assertion is a delta on
//! the process-global engine counters for a shape nothing else in the
//! binary may touch.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::Duration;
use vw_sdk_serve::{PlanServer, ServeConfig};

/// A plan query for a shape used nowhere else in the tree's tests —
/// the search memo must be cold for it.
const COLD_PLAN: &str = r#"{"spec": {"name": "coldshape", "layers": [
    {"name": "only", "input": 23, "kernel": 5, "in_channels": 3, "out_channels": 17}
]}, "array": "96x96"}"#;

#[test]
fn a_concurrent_cold_burst_searches_exactly_once() {
    const CLIENTS: usize = 8;

    // More shards than one so the burst truly crosses engines, and a
    // worker per client so no request queues behind another.
    let server = PlanServer::bind_with(
        "127.0.0.1:0",
        ServeConfig {
            jobs: CLIENTS,
            shards: 4,
            timeout: Duration::from_secs(30),
            max_connections: 64,
        },
    )
    .expect("bind ephemeral");
    let addr = server.local_addr().expect("bound");
    let state = server.state();
    let handle = server.spawn();

    let before = state.stats();

    let barrier = Barrier::new(CLIENTS);
    let payloads: Vec<String> = std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(CLIENTS);
        for _ in 0..CLIENTS {
            let barrier = &barrier;
            workers.push(scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                let raw = format!(
                    "POST /v1/plan HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\
                     content-length: {}\r\n\r\n{COLD_PLAN}",
                    COLD_PLAN.len()
                );
                // Rendezvous with the request bytes ready so the burst
                // lands as simultaneously as the kernel allows.
                barrier.wait();
                stream.write_all(raw.as_bytes()).expect("send");
                let mut response = String::new();
                stream.read_to_string(&mut response).expect("receive");
                response
            }));
        }
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });

    for response in &payloads {
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    }
    let first_body = payloads[0].split_once("\r\n\r\n").expect("framing").1;
    for response in &payloads[1..] {
        let body = response.split_once("\r\n\r\n").expect("framing").1;
        // The cache member differs between responses (counters move as
        // the burst lands); the plan itself must be byte-identical.
        let plan_of = |b: &str| b.split(",\"cache\":").next().unwrap_or(b).to_string();
        assert_eq!(
            plan_of(body),
            plan_of(first_body),
            "coalesced plans diverge"
        );
    }

    let after = state.stats();
    assert_eq!(
        after.search_misses - before.search_misses,
        1,
        "the {CLIENTS}-client cold burst must collapse to exactly one window search \
         (before {before:?}, after {after:?})"
    );

    handle.shutdown();
}
