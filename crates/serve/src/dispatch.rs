//! From one parsed request (or parse failure) to one rendered
//! response, with observation riding along.
//!
//! This is the per-request pipeline the event loop's worker jobs run:
//! route, handle, render — plus the telemetry counters, the latency
//! histogram and the optional access-log line. Pure with respect to the
//! socket: the caller owns all I/O, so the same function serves worker
//! threads (planning endpoints), the event loop itself (parse errors,
//! timeouts) and unit tests.

use crate::state::ServerState;
use crate::{api, handlers, http, router};
use router::Route;
use std::io::Write;
use std::time::Instant;

/// One fully rendered response, ready to hand to the connection's
/// write state machine.
#[derive(Debug)]
pub struct Response {
    /// The HTTP status answered.
    pub status: u16,
    /// The complete response — status line, headers, body.
    pub bytes: Vec<u8>,
    /// Whether the connection must close after this response (client
    /// asked, protocol demands, or the request failed to parse).
    pub close: bool,
}

/// What one request gets answered with: the metrics route speaks
/// Prometheus text, everything else structured JSON.
enum Answer {
    Json(u16, pim_report::json::JsonValue),
    Text(u16, String),
}

/// HTTP status class label for the `pim_responses_total` counter.
fn status_class(status: u16) -> &'static str {
    match status / 100 {
        2 => "2xx",
        3 => "3xx",
        4 => "4xx",
        5 => "5xx",
        _ => "other",
    }
}

/// Escapes a string for embedding in a JSON access-log line (paths are
/// client-controlled).
fn log_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Answers one request outcome: parse failures become their carried
/// 4xx, routed requests run their handler on the state's one engine
/// (handlers ignore `shard`, the connection's event-loop shard). Every
/// path — success, client error, handler panic — renders a complete
/// response; the connection is only ever dropped by the I/O layer.
///
/// Observation rides along without touching response bytes: request
/// and status-class counters plus the per-endpoint latency histogram
/// go to the process telemetry registry, and — when
/// [`ServerState::set_access_log`] is on — one structured line per
/// request goes to stderr. The endpoint label is the resolved route's
/// path (`"unmatched"` otherwise), never the raw client path, so label
/// cardinality stays bounded. `started` anchors the latency
/// measurement (the instant the request's first byte arrived, or as
/// close as the caller knows).
pub fn respond(
    state: &ServerState,
    shard: usize,
    parsed: Result<http::Request, http::HttpError>,
    started: Instant,
) -> Response {
    state.count_request();
    let mut endpoint = "unmatched";
    let mut method = String::new();
    let mut path = String::new();
    // Errors always close: request framing is unknown after a failure.
    let mut close = true;
    let answer = match parsed {
        Err(e) => Answer::Json(e.status, api::error_json(e.status, &e.message)),
        Ok(request) => {
            close = request.wants_close();
            method.clone_from(&request.method);
            path.clone_from(&request.path);
            match router::resolve(&request.method, &request.path) {
                Err((status, message)) => Answer::Json(status, api::error_json(status, &message)),
                Ok(route) => {
                    endpoint = route.path();
                    if route == Route::Metrics {
                        if request.query.split('&').any(|p| p == "format=json") {
                            Answer::Json(200, api::metrics_json())
                        } else {
                            Answer::Text(200, pim_telemetry::global().render_prometheus())
                        }
                    } else {
                        // A handler panic must still answer the client — a
                        // bare closed socket would break the "never a
                        // dropped connection" contract — so unwind
                        // containment happens here, before the response is
                        // rendered, not only in the pool.
                        let result =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                                || match route {
                                    Route::Healthz => Ok(handlers::healthz(state)),
                                    Route::Networks => Ok(handlers::networks()),
                                    Route::Plan => handlers::plan(state, shard, &request.body),
                                    Route::Sweep => handlers::sweep(state, shard, &request.body),
                                    Route::Deploy => handlers::deploy(state, shard, &request.body),
                                    Route::Simulate => {
                                        handlers::simulate(state, shard, &request.body)
                                    }
                                    Route::Metrics => unreachable!("handled above"),
                                },
                            ));
                        match result {
                            Ok(Ok(value)) => Answer::Json(200, value),
                            Ok(Err((status, message))) => {
                                Answer::Json(status, api::error_json(status, &message))
                            }
                            Err(_) => Answer::Json(
                                500,
                                api::error_json(500, "internal error while handling the request"),
                            ),
                        }
                    }
                }
            }
        }
    };
    let (status, bytes) = match answer {
        Answer::Json(status, body) => (
            status,
            http::render_json_response(status, &body.render(), close),
        ),
        Answer::Text(status, body) => (status, http::render_text_response(status, &body, close)),
    };

    let seconds = started.elapsed().as_secs_f64();
    let registry = pim_telemetry::global();
    let method_label = match method.as_str() {
        "GET" => "GET",
        "POST" => "POST",
        _ => "OTHER",
    };
    registry
        .counter(
            "pim_requests_total",
            "Requests handled, by resolved endpoint and method.",
            &[("endpoint", endpoint), ("method", method_label)],
        )
        .inc();
    registry
        .counter(
            "pim_responses_total",
            "Responses written, by resolved endpoint and status class.",
            &[("endpoint", endpoint), ("class", status_class(status))],
        )
        .inc();
    registry
        .histogram(
            "pim_request_seconds",
            "Wall time from first request byte to response rendered.",
            &[("endpoint", endpoint)],
            pim_telemetry::Buckets::latency(),
        )
        .observe(seconds);
    if state.access_log() {
        // Formatted first, so the line goes out in one write(2) on the
        // unbuffered stderr, where `eprintln!` writes each piece on its
        // own. A line stderr refuses is dropped.
        let line = format!(
            "{{\"event\":\"access\",\"method\":\"{}\",\"path\":\"{}\",\"status\":{},\"seconds\":{:.6}}}\n",
            log_escape(&method),
            log_escape(&path),
            status,
            seconds
        );
        let _ = std::io::stderr().lock().write_all(line.as_bytes());
    }
    Response {
        status,
        bytes,
        close,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `raw` as the event loop does when the client then closes:
    /// a request still incomplete is answered 400.
    fn parse(raw: &str) -> Result<http::Request, http::HttpError> {
        let mut parser = http::RequestParser::new();
        parser.feed(raw.as_bytes());
        match parser.poll()? {
            http::ParseStatus::Ready(request) => Ok(request),
            http::ParseStatus::NeedMore => Err(http::HttpError {
                status: 400,
                message: "connection closed mid-request".into(),
            }),
        }
    }

    #[test]
    fn a_routed_request_answers_and_keeps_alive() {
        let state = ServerState::new(1);
        let response = respond(
            &state,
            0,
            parse("GET /healthz HTTP/1.1\r\n\r\n"),
            Instant::now(),
        );
        assert_eq!(response.status, 200);
        assert!(!response.close);
        let text = String::from_utf8(response.bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("connection: keep-alive\r\n"), "{text}");
        assert!(text.contains("\"status\":\"ok\""), "{text}");
        assert_eq!(state.requests_served(), 1);
    }

    #[test]
    fn connection_close_requests_close() {
        let state = ServerState::new(1);
        let response = respond(
            &state,
            0,
            parse("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"),
            Instant::now(),
        );
        assert_eq!(response.status, 200);
        assert!(response.close);
        let text = String::from_utf8(response.bytes).unwrap();
        assert!(text.contains("connection: close\r\n"), "{text}");
    }

    #[test]
    fn parse_failures_answer_their_status_and_close() {
        let state = ServerState::new(1);
        let response = respond(&state, 0, parse("GARBAGE\r\n\r\n"), Instant::now());
        assert_eq!(response.status, 400);
        assert!(response.close);
        let text = String::from_utf8(response.bytes).unwrap();
        assert!(text.contains("\"error\""), "{text}");
        assert!(text.contains("connection: close\r\n"), "{text}");
    }

    #[test]
    fn unknown_routes_answer_404_but_keep_alive() {
        let state = ServerState::new(1);
        let response = respond(
            &state,
            0,
            parse("GET /nope HTTP/1.1\r\n\r\n"),
            Instant::now(),
        );
        assert_eq!(response.status, 404);
        assert!(
            !response.close,
            "routing errors are the client's framing, not ours"
        );
    }
}
