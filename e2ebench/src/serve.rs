//! The `serve-mix` workload: the release `vwsdk serve` daemon under an
//! open-loop request mix.
//!
//! The daemon runs as a child process on a loopback ephemeral port with
//! `--jobs nproc`, configured as users run it (access log on). A seeded
//! Poisson arrival schedule at a fixed offered rate is spread round-robin
//! over `nproc` keep-alive connections (see [`drive`]); the schedule
//! never waits for the server, and each request is timed from its
//! scheduled send time to its last response byte. Every response body
//! must equal the library-rendered body for the same request (see
//! [`bodies_agree`]); that check runs after the window, with the daemon
//! stopped, so it never competes with it for cores.
//!
//! The traced run repeats the live window, then replays the same
//! schedule in process twice over: once as public pieces under spans
//! (HTTP parse, JSON decode, spec build, handler, JSON render, HTTP
//! render) and once through the one-call `dispatch::respond`, on two
//! states with identical histories, and requires byte-identical
//! responses.

use crate::outcome::{report_setups, report_trace_health, write_trace, CacheDelta, Outcome};
use crate::rng::Rng;
use crate::stats::{median, percentile, Latencies};
use crate::sweep::FreshArrays;
use crate::trace::Tracer;
use crate::{nproc, procfs, Args};
use pim_arch::{presets, PimArray};
use pim_nets::{zoo, NetworkSpec};
use pim_report::json::JsonValue;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vw_sdk_serve::http::{ParseStatus, RequestParser};
use vw_sdk_serve::{dispatch, handlers, http, ServerState};

/// Offered load, requests per second: about a sixth of this mix's
/// capacity on a quiet 2-core container, leaving headroom for the
/// capacity other tenants take (see the README).
pub const RATE_PER_S: f64 = 600.0;
/// A request slower than this (or failed) counts against
/// `over_limit_frac`.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// Daemon set-ups timed before the window and again after it;
/// `setup_s` is the median of the quiet ones (`report_setups`). Timing
/// both sides samples two moments of the host's changing speed instead
/// of one.
const SETUPS_EACH_SIDE: usize = 6;
/// The traced run replays this prefix of the schedule in process.
const REPLAY_REQUESTS: usize = 5_000;

/// The request kinds of the mix, with their shares in percent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    /// `/v1/plan` of a zoo network on a paper array (cache-hot).
    PlanHot,
    /// `/v1/plan` with an inline `spec` body.
    PlanSpec,
    /// `/v1/sweep` of 2 networks × 2 arrays, one array never seen before.
    Sweep,
    /// `/v1/deploy` of a zoo network onto a paper-array chip.
    Deploy,
    /// `/v1/simulate` of tiny or lenet5 at batch ≤ 4.
    Simulate,
}

const MIX: [(Kind, u32); 5] = [
    (Kind::PlanHot, 60),
    (Kind::PlanSpec, 10),
    (Kind::Sweep, 15),
    (Kind::Deploy, 10),
    (Kind::Simulate, 5),
];

impl Kind {
    fn path(self) -> &'static str {
        match self {
            Kind::PlanHot | Kind::PlanSpec => "/v1/plan",
            Kind::Sweep => "/v1/sweep",
            Kind::Deploy => "/v1/deploy",
            Kind::Simulate => "/v1/simulate",
        }
    }

    fn handler_span(self) -> &'static str {
        match self {
            Kind::PlanHot | Kind::PlanSpec => "serve.handler.plan",
            Kind::Sweep => "serve.handler.sweep",
            Kind::Deploy => "serve.handler.deploy",
            Kind::Simulate => "serve.handler.simulate",
        }
    }
}

/// Zoo names the mix draws from (every `zoo::by_name` entry).
const ZOO: [&str; 11] = [
    "vgg13",
    "vgg16",
    "resnet18",
    "resnet18-full",
    "alexnet",
    "lenet5",
    "mobilenet",
    "dilated",
    "tiny",
    "vgg13-sim",
    "resnet18-sim",
];

/// One scheduled request.
#[derive(Debug, Clone)]
struct Request {
    kind: Kind,
    due_s: f64,
    raw: Vec<u8>,
}

fn http_post(path: &str, body: &JsonValue) -> Vec<u8> {
    let body = body.render();
    format!(
        "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn paper_arrays() -> Vec<PimArray> {
    presets::fig8b_sweep().iter().map(|p| p.array).collect()
}

fn plan_body(network: &str, array: PimArray) -> JsonValue {
    JsonValue::object([
        ("network", JsonValue::from(network)),
        ("array", JsonValue::from(array.to_string())),
    ])
}

/// The seeded arrival schedule: Poisson arrivals at `rate` over
/// `seconds`, kinds drawn by [`MIX`].
fn schedule(seed: u64, seconds: f64, rate: f64) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ 0x5E4E_E111);
    let arrays = paper_arrays();
    let mut fresh = FreshArrays::new(seed ^ 0xA77A_7000, &arrays);
    let total: u32 = MIX.iter().map(|(_, w)| w).sum();
    let mut requests = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            return requests;
        }
        let mut draw = rng.range(0, total as usize - 1) as u32;
        let kind = MIX
            .iter()
            .find(|(_, w)| {
                let hit = draw < *w;
                draw = draw.saturating_sub(*w);
                hit
            })
            .expect("draw below the total weight")
            .0;
        let paper = rng.pick(&arrays);
        let raw = match kind {
            Kind::PlanHot => http_post(kind.path(), &plan_body(rng.pick(&ZOO), paper)),
            Kind::PlanSpec => {
                let network = zoo::by_name(rng.pick(&ZOO)).expect("zoo name");
                let body = JsonValue::object([
                    ("spec", NetworkSpec::from_network(&network).to_json()),
                    ("array", JsonValue::from(paper.to_string())),
                ]);
                http_post(kind.path(), &body)
            }
            Kind::Sweep => {
                let first = rng.range(0, ZOO.len() - 1);
                let second = (first + rng.range(1, ZOO.len() - 1)) % ZOO.len();
                let body = JsonValue::object([
                    (
                        "networks",
                        JsonValue::array([ZOO[first].into(), ZOO[second].into()]),
                    ),
                    (
                        "arrays",
                        JsonValue::array([
                            paper.to_string().into(),
                            fresh.next().to_string().into(),
                        ]),
                    ),
                ]);
                http_post(kind.path(), &body)
            }
            Kind::Deploy => {
                let name = rng.pick(&ZOO);
                let layers = zoo::by_name(name).expect("zoo name").len();
                let mut body = plan_body(name, paper);
                if let JsonValue::Object(members) = &mut body {
                    let budget = layers + rng.range(0, 3 * layers);
                    members.push(("arrays".into(), budget.into()));
                }
                http_post(kind.path(), &body)
            }
            Kind::Simulate => {
                let body = JsonValue::object([
                    ("network", JsonValue::from(rng.pick(&["tiny", "lenet5"]))),
                    ("batch", rng.range(1, 4).into()),
                    ("seed", rng.range(0, 1_000_000).into()),
                    ("mode", JsonValue::from(rng.pick(&["quantized", "exact"]))),
                ]);
                http_post(kind.path(), &body)
            }
        };
        requests.push(Request {
            kind,
            due_s: t,
            raw,
        });
    }
}

/// The daemon child process; dropping it kills and reaps it.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    stderr: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Launches `vwsdk serve` on an ephemeral loopback port and waits
    /// for the first healthy `/healthz`.
    fn launch(vwsdk: &str) -> Result<Self, String> {
        let mut child = Command::new(vwsdk)
            .args(["serve", "--addr", "127.0.0.1:0", "--jobs"])
            .arg(nproc().to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot launch {vwsdk}: {e}"))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = std::sync::mpsc::channel();
        // Reads the listening line, then drains the access log so the
        // daemon never blocks on a full pipe.
        let reader = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.split("listening on http://").nth(1) {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(rest.split_whitespace().next().unwrap_or("").to_string());
                    }
                }
            }
        });
        let mut daemon = Self {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Some(reader),
        };
        let addr = rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| "the daemon never printed its listening address".to_string())?;
        daemon.addr = addr
            .parse()
            .map_err(|e| format!("bad listening address {addr:?}: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match get(daemon.addr, "/healthz") {
                Ok((200, _)) => return Ok(daemon),
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
                other => return Err(format!("daemon never became healthy: {other:?}")),
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
    }
}

/// One `GET` on a fresh connection: `(status, body)`.
fn get(addr: SocketAddr, path: &str) -> Result<(u16, Vec<u8>), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\r\n"
    )
    .map_err(|e| e.to_string())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| e.to_string())?;
    match parse_response(&raw)? {
        Some((status, body, _)) => Ok((status, body)),
        None => Err("truncated response".into()),
    }
}

/// Parses one complete response off the front of `buf`:
/// `(status, body, bytes consumed)`, or `None` if more bytes are needed.
fn parse_response(buf: &[u8]) -> Result<Option<(u16, Vec<u8>, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let length: usize = lines
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, value)| value.trim().parse().ok())
        .ok_or("response without content-length")?;
    let end = head_end + 4 + length;
    if buf.len() < end {
        return Ok(None);
    }
    Ok(Some((status, buf[head_end + 4..end].to_vec(), end)))
}

/// One request as the client saw it.
#[derive(Debug)]
struct Sample {
    index: usize,
    /// Scheduled send to last response byte.
    latency_s: f64,
    /// How late the generator sent the request: after its due time and
    /// after the connection became free, whichever was later.
    lag_s: f64,
    done_s: f64,
    status: u16,
    /// The body without its trailing `cache` member, shared between
    /// identical answers so a long window stays small in memory.
    body: Arc<[u8]>,
}

/// Cuts a trailing top-level `"cache"` member (the server's history)
/// off a JSON object body; other bodies pass through unchanged.
fn without_cache(body: &[u8]) -> Vec<u8> {
    const MEMBER: &[u8] = b",\"cache\":{";
    match body.windows(MEMBER.len()).rposition(|w| w == MEMBER) {
        Some(at) if body.ends_with(b"}}") && !body[at..].contains(&b'[') => {
            let mut cut = body[..at].to_vec();
            cut.push(b'}');
            cut
        }
        _ => body.to_vec(),
    }
}

/// Drives one keep-alive connection through its share of the schedule:
/// a sender thread writes each request at its due time, or as soon as
/// the connection's previous response has arrived if that is later,
/// while the calling thread blocks in `read` and timestamps each
/// response as its last byte arrives. The wait for a busy connection is
/// part of the request's latency, which runs from its due time. Only
/// the sender generates load; the receiver sleeps in the kernel.
///
/// Requests are not pipelined: the daemon answers a connection strictly
/// in order anyway, and it does not set `TCP_NODELAY`, so a pipelined
/// response would sit in Nagle's buffer until the client's delayed ACK.
/// Socket read timeouts are never used for pacing either: the kernel
/// rounds them to scheduler ticks, which would make the generator late.
/// Returns the samples received and, if the connection broke, why.
fn drive(
    addr: SocketAddr,
    requests: &[(usize, &Request)],
    start: Instant,
    give_up_s: f64,
) -> (Vec<Sample>, Option<String>) {
    let connected = TcpStream::connect(addr).and_then(|stream| {
        stream.set_nodelay(true)?;
        let reader = stream.try_clone()?;
        Ok((stream, reader))
    });
    let (mut writer, reader) = match connected {
        Ok(pair) => pair,
        Err(e) => return (Vec::new(), Some(e.to_string())),
    };
    let (sent_tx, sent_rx) = std::sync::mpsc::channel();
    let (free_tx, free_rx) = std::sync::mpsc::channel::<f64>();
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> Result<(), String> {
            let mut free_at = 0.0;
            for (n, &(index, request)) in requests.iter().enumerate() {
                if n > 0 {
                    match free_rx.recv() {
                        Ok(at) => free_at = at,
                        Err(_) => break, // the receiver gave up
                    }
                }
                let wait = request.due_s - start.elapsed().as_secs_f64();
                if wait > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(wait));
                }
                let sent_s = start.elapsed().as_secs_f64();
                if let Err(e) = writer.write_all(&request.raw) {
                    // Unblock the receiver, then report.
                    let _ = writer.shutdown(std::net::Shutdown::Both);
                    return Err(e.to_string());
                }
                let lag_s = sent_s - request.due_s.max(free_at);
                if sent_tx.send((index, request.due_s, lag_s)).is_err() {
                    break;
                }
            }
            Ok(())
        });
        let (samples, received) =
            receive(reader, &sent_rx, &free_tx, requests.len(), start, give_up_s);
        drop(free_tx);
        drop(sent_rx);
        let sent = sender.join().expect("sender thread panicked");
        (samples, sent.err().or(received.err()))
    })
}

/// The receiving half of [`drive`].
fn receive(
    mut reader: TcpStream,
    sent: &std::sync::mpsc::Receiver<(usize, f64, f64)>,
    free: &std::sync::mpsc::Sender<f64>,
    expected: usize,
    start: Instant,
    give_up_s: f64,
) -> (Vec<Sample>, Result<(), String>) {
    let mut samples = Vec::with_capacity(expected);
    let mut interned: std::collections::HashSet<Arc<[u8]>> = std::collections::HashSet::new();
    let result = (|| -> Result<(), String> {
        reader
            .set_read_timeout(Some(Duration::from_millis(250)))
            .map_err(|e| e.to_string())?;
        let mut buf = Vec::new();
        let mut chunk = vec![0u8; 1 << 16];
        let mut read_at = 0.0;
        while samples.len() < expected {
            if let Some((status, body, used)) = parse_response(&buf)? {
                buf.drain(..used);
                let (index, due_s, lag_s) = sent
                    .recv_timeout(Duration::from_secs(5))
                    .map_err(|_| "a response arrived for no request")?;
                let body = without_cache(&body);
                let body = match interned.get(body.as_slice()) {
                    Some(shared) => Arc::clone(shared),
                    None => {
                        let shared: Arc<[u8]> = Arc::from(body);
                        interned.insert(Arc::clone(&shared));
                        shared
                    }
                };
                samples.push(Sample {
                    index,
                    latency_s: read_at - due_s,
                    lag_s,
                    done_s: read_at,
                    status,
                    body,
                });
                let _ = free.send(read_at);
                continue;
            }
            if start.elapsed().as_secs_f64() > give_up_s {
                return Err("responses still missing at the give-up time".into());
            }
            match reader.read(&mut chunk) {
                Ok(0) => return Err("the daemon closed the connection".into()),
                Ok(n) => {
                    read_at = start.elapsed().as_secs_f64();
                    buf.extend_from_slice(&chunk[..n]);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(e) => return Err(e.to_string()),
            }
        }
        Ok(())
    })();
    (samples, result)
}

/// The daemon's counters of interest from `/v1/metrics?format=json`.
#[derive(Debug, Default, Clone, Copy)]
struct DaemonCounters {
    responses: [u64; 3],
    sheds: u64,
    timeouts: u64,
}

impl DaemonCounters {
    fn fetch(addr: SocketAddr) -> Result<Self, String> {
        let (status, body) = get(addr, "/v1/metrics?format=json")?;
        if status != 200 {
            return Err(format!("/v1/metrics answered {status}"));
        }
        let text = String::from_utf8(body).map_err(|e| e.to_string())?;
        let doc = JsonValue::parse(&text).map_err(|e| e.to_string())?;
        let mut counters = Self::default();
        for series in doc
            .get("counters")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
        {
            let name = series.get("name").and_then(JsonValue::as_str).unwrap_or("");
            let value = series.get("value").and_then(JsonValue::as_u64).unwrap_or(0);
            let label = |key: &str| {
                series
                    .get("labels")
                    .and_then(|l| l.get(key))
                    .and_then(JsonValue::as_str)
            };
            match name {
                "pim_responses_total" => match label("class") {
                    Some("2xx") => counters.responses[0] += value,
                    Some("4xx") => counters.responses[1] += value,
                    Some("5xx") => counters.responses[2] += value,
                    _ => {}
                },
                "pim_sheds_total" => counters.sheds += value,
                "pim_conn_timeout_total" => counters.timeouts += value,
                _ => {}
            }
        }
        Ok(counters)
    }
}

/// What one live window produced.
struct Live {
    /// The window's time origin: sample times count from here.
    start: Instant,
    samples: Vec<Sample>,
    errors: Vec<String>,
    setups: Vec<(Instant, Instant)>,
    peak_rss_mb: f64,
    /// Daemon CPU time (user + system) spent during the window.
    cpu_s: f64,
    before: DaemonCounters,
    after: DaemonCounters,
}

/// One timed daemon set-up: launch, first healthy `/healthz`, then every
/// hot plan once on each of `nproc` connections, which the daemon pins
/// to different shards, one request at a time.
fn launch_warm(vwsdk: &str, warm: &[Vec<u8>]) -> Result<(Daemon, (Instant, Instant)), String> {
    let started = Instant::now();
    let daemon = Daemon::launch(vwsdk)?;
    for _ in 0..nproc() {
        let mut stream = TcpStream::connect(daemon.addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut buf = Vec::new();
        for raw in warm {
            stream.write_all(raw).map_err(|e| e.to_string())?;
            let status = loop {
                if let Some((status, _, used)) = parse_response(&buf)? {
                    buf.drain(..used);
                    break status;
                }
                let mut chunk = [0u8; 1 << 14];
                match stream.read(&mut chunk).map_err(|e| e.to_string())? {
                    0 => return Err("the daemon closed a warm-up connection".into()),
                    n => buf.extend_from_slice(&chunk[..n]),
                }
            };
            if status != 200 {
                return Err(format!("warm-up request answered {status}"));
            }
        }
    }
    Ok((daemon, (started, Instant::now())))
}

/// Times `SETUPS_EACH_SIDE` daemon set-ups, drives the schedule through
/// the last one, then times `SETUPS_EACH_SIDE` more once it is stopped.
fn live_window(args: &Args, requests: &[Request]) -> Result<Live, String> {
    let warm: Vec<Vec<u8>> = ZOO
        .iter()
        .flat_map(|name| {
            paper_arrays()
                .into_iter()
                .map(move |a| http_post("/v1/plan", &plan_body(name, a)))
        })
        .collect();
    let mut setups = Vec::with_capacity(2 * SETUPS_EACH_SIDE);
    let mut daemon = None;
    for _ in 0..SETUPS_EACH_SIDE {
        drop(daemon.take());
        let (fresh, span) = launch_warm(&args.vwsdk, &warm)?;
        setups.push(span);
        daemon = Some(fresh);
    }
    let daemon = daemon.expect("at least one launch");
    let before = DaemonCounters::fetch(daemon.addr)?;
    let cpu_before = procfs::cpu_seconds(daemon.pid())?;
    let connections = nproc();
    let give_up_s = requests.last().map_or(0.0, |r| r.due_s) + 60.0;
    let start = Instant::now();
    let (samples, errors) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let share: Vec<(usize, &Request)> = requests
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % connections == c)
                    .collect();
                scope.spawn(move || drive(daemon.addr, &share, start, give_up_s))
            })
            .collect();
        let mut samples = Vec::with_capacity(requests.len());
        let mut errors = Vec::new();
        for handle in handles {
            let (mut got, error) = handle.join().expect("client thread panicked");
            samples.append(&mut got);
            errors.extend(error);
        }
        (samples, errors)
    });
    let cpu_s = procfs::cpu_seconds(daemon.pid())? - cpu_before;
    let after = DaemonCounters::fetch(daemon.addr)?;
    let peak_rss_mb = procfs::peak_rss_mb(Some(daemon.pid()))?;
    drop(daemon);
    for _ in 0..SETUPS_EACH_SIDE {
        setups.push(launch_warm(&args.vwsdk, &warm)?.1);
    }
    Ok(Live {
        start,
        samples,
        errors,
        setups,
        peak_rss_mb,
        cpu_s,
        before,
        after,
    })
}

/// The body of a rendered response (after the blank line).
fn body_of(response: &[u8]) -> &[u8] {
    response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(&[][..], |i| &response[i + 4..])
}

/// Removes and returns the top-level `member` of an object.
fn take_member(value: &mut JsonValue, member: &str) -> Option<JsonValue> {
    let JsonValue::Object(members) = value else {
        return None;
    };
    let at = members.iter().position(|(k, _)| k == member)?;
    Some(members.remove(at).1)
}

/// Whether the daemon's body equals the library-rendered one. The
/// `cache` member reports the server's history and is skipped. A
/// sweep's per-layer `search` effort peeks the search memo, which a
/// wholesale cache clear may have emptied on either side, so an entry
/// there may also read zero.
fn bodies_agree(live: &[u8], reference: &[u8]) -> bool {
    let parse = |bytes: &[u8]| {
        std::str::from_utf8(bytes)
            .ok()
            .and_then(|text| JsonValue::parse(text).ok())
    };
    let (Some(mut live), Some(mut reference)) = (parse(live), parse(reference)) else {
        return false;
    };
    take_member(&mut live, "cache");
    take_member(&mut reference, "cache");
    let searches = |value: &mut JsonValue| -> Vec<Option<JsonValue>> {
        match value {
            JsonValue::Object(members) => members
                .iter_mut()
                .filter(|(k, _)| k == "reports")
                .flat_map(|(_, reports)| match reports {
                    JsonValue::Array(items) => items.iter_mut().collect::<Vec<_>>(),
                    _ => Vec::new(),
                })
                .map(|report| take_member(report, "search"))
                .collect(),
            _ => Vec::new(),
        }
    };
    let (live_search, reference_search) = (searches(&mut live), searches(&mut reference));
    if live.render() != reference.render() || live_search.len() != reference_search.len() {
        return false;
    }
    let zero = |entry: &JsonValue| {
        entry.get("evaluated").and_then(JsonValue::as_u64) == Some(0)
            && entry.get("pruned").and_then(JsonValue::as_u64) == Some(0)
    };
    live_search
        .iter()
        .zip(&reference_search)
        .all(|(a, b)| match (a, b) {
            (Some(JsonValue::Array(a)), Some(JsonValue::Array(b))) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|(x, y)| x.render() == y.render() || zero(x) || zero(y))
            }
            (a, b) => a.as_ref().map(JsonValue::render) == b.as_ref().map(JsonValue::render),
        })
}

/// One parsed request from raw bytes.
fn parse_request(raw: &[u8]) -> Result<http::Request, String> {
    let mut parser = RequestParser::new();
    parser.feed(raw);
    match parser.poll() {
        Ok(ParseStatus::Ready(request)) => Ok(request),
        Ok(ParseStatus::NeedMore) => Err("incomplete request".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// Checks every live response against the library's answer to the same
/// request, on `nproc` threads (the daemon is stopped by now); returns
/// the indices that disagree.
fn oracle(requests: &[Request], samples: &[Sample]) -> Result<Vec<usize>, String> {
    let mut ordered: Vec<&Sample> = samples.iter().collect();
    ordered.sort_by_key(|s| s.index);
    let chunk = ordered.len().div_ceil(nproc()).max(1);
    let mut bad = std::thread::scope(|scope| -> Result<Vec<usize>, String> {
        let workers: Vec<_> = ordered
            .chunks(chunk)
            .map(|part| scope.spawn(move || check_part(requests, part)))
            .collect();
        let mut bad = Vec::new();
        for worker in workers {
            bad.extend(worker.join().expect("oracle worker panicked")?);
        }
        Ok(bad)
    })?;
    bad.sort_unstable();
    Ok(bad)
}

fn check_part(requests: &[Request], samples: &[&Sample]) -> Result<Vec<usize>, String> {
    let state = ServerState::new(1);
    let mut answers: HashMap<&[u8], (u16, Vec<u8>)> = HashMap::new();
    let mut verdicts: HashMap<(&[u8], *const u8), bool> = HashMap::new();
    let mut bad = Vec::new();
    for sample in samples {
        let raw = requests[sample.index].raw.as_slice();
        if !answers.contains_key(raw) {
            let response = dispatch::respond(&state, 0, Ok(parse_request(raw)?), Instant::now());
            answers.insert(raw, (response.status, body_of(&response.bytes).to_vec()));
        }
        let (status, body) = &answers[raw];
        let agree = *verdicts
            .entry((raw, sample.body.as_ptr()))
            .or_insert_with(|| bodies_agree(&sample.body, body));
        if sample.status != 200 || *status != 200 || !agree {
            bad.push(sample.index);
        }
    }
    Ok(bad)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let rate = args.rate.unwrap_or(RATE_PER_S);
    let requests = schedule(args.seed, args.seconds, rate);
    let live = live_window(args, &requests)?;
    let mut out = Outcome {
        attempted: requests.len() as u64,
        ..Outcome::default()
    };
    for error in &live.errors {
        out.note(format!("connection error: {error}"));
    }
    let bad = oracle(&requests, &live.samples)?;
    for &index in bad.iter().take(5) {
        out.note(format!(
            "request {index} ({:?}) failed its oracle",
            requests[index].kind
        ));
    }
    let missing = requests.len() - live.samples.len();
    out.failed = (missing + bad.len()) as u64;
    let mut latencies = Latencies::default();
    let mut over_limit = out.failed;
    let mut in_order: Vec<&Sample> = live.samples.iter().collect();
    in_order.sort_by_key(|s| s.index);
    let at = |seconds: f64| live.start + Duration::from_secs_f64(seconds.max(0.0));
    for sample in in_order {
        latencies.push(at(sample.done_s - sample.latency_s), at(sample.done_s));
        if sample.latency_s * 1e3 > LATENCY_LIMIT_MS && bad.binary_search(&sample.index).is_err() {
            over_limit += 1;
        }
    }
    let mut by_kind: HashMap<Kind, Vec<f64>> = HashMap::new();
    for sample in &live.samples {
        by_kind
            .entry(requests[sample.index].kind)
            .or_default()
            .push(sample.latency_s * 1e3);
    }
    let mut kinds: Vec<String> = by_kind
        .iter()
        .map(|(kind, ms)| {
            let mut sorted = ms.clone();
            sorted.sort_by(f64::total_cmp);
            let deciles: Vec<String> = (1..10)
                .map(|d| format!("{:.2}", sorted[sorted.len() * d / 10]))
                .collect();
            format!("{kind:?} n={} deciles={}", ms.len(), deciles.join(","))
        })
        .collect();
    kinds.sort();
    out.note(format!("latency by kind: {}", kinds.join("; ")));
    let mut lags: Vec<f64> = live.samples.iter().map(|s| s.lag_s * 1e3).collect();
    lags.sort_by(f64::total_cmp);
    // Too few samples to resolve p99: report the worst lag instead.
    let gen_lag_p99 =
        percentile(&lags, 0.99).unwrap_or_else(|| lags.last().copied().unwrap_or(0.0));
    let span_s = live
        .samples
        .iter()
        .map(|s| s.done_s)
        .fold(args.seconds, f64::max);
    let correct = (live.samples.len() - bad.len()) as f64;
    out.note(format!(
        "offered {rate} req/s over {} connections; {} requests; limit {LATENCY_LIMIT_MS} ms; \
         over_limit_frac {:.5}; failed_frac {:.5}; gen.lag_p99_ms {gen_lag_p99:.4}; \
         {:.1} correct responses per wall second; daemon CPU {:.2} s",
        nproc(),
        requests.len(),
        over_limit as f64 / requests.len().max(1) as f64,
        out.failed as f64 / requests.len().max(1) as f64,
        correct / span_s,
        live.cpu_s,
    ));
    if !args.trace {
        latencies.report(&mut out)?;
        // Under an open loop, responses per wall second only echo the
        // offered rate. Responses per second of daemon CPU are the
        // daemon's own throughput: they rise when it gets cheaper.
        out.set("ops_per_s", correct / live.cpu_s.max(0.01));
        out.set("peak_rss_mb", live.peak_rss_mb);
        out.set(
            "over_limit_frac",
            over_limit as f64 / requests.len().max(1) as f64,
        );
        report_setups(&mut out, &live.setups);
        return Ok(out);
    }
    let delta = |i: usize| (live.after.responses[i] - live.before.responses[i]) as f64;
    // The first `/v1/metrics` reading counts its own 2xx response.
    out.set("serve.responses.2xx", delta(0) - 1.0);
    out.set("serve.responses.4xx", delta(1));
    out.set("serve.responses.5xx", delta(2));
    out.set("serve.sheds", (live.after.sheds - live.before.sheds) as f64);
    out.set(
        "serve.conn.timeouts",
        (live.after.timeouts - live.before.timeouts) as f64,
    );
    out.set("gen.lag_p99_ms", gen_lag_p99);
    let live_median_ms = median(&latencies.sorted());
    replay(args, &requests, live_median_ms, &mut out)?;
    Ok(out)
}

/// The in-process replay of the schedule for the traced run; see the
/// module docs.
fn replay(
    args: &Args,
    requests: &[Request],
    live_median_ms: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let tracer = Tracer::new();
    let pieces_state = ServerState::new(1);
    let one_call_state = ServerState::new(1);
    let registry = pim_telemetry::global();
    let evaluated = registry.counter(
        "pim_search_candidates_total",
        "",
        &[("outcome", "evaluated")],
    );
    let pruned = registry.counter("pim_search_candidates_total", "", &[("outcome", "pruned")]);
    let search_seconds = registry.histogram(
        "pim_search_seconds",
        "",
        &[],
        pim_telemetry::Buckets::latency(),
    );
    let requests = &requests[..requests.len().min(REPLAY_REQUESTS)];
    let mut cost = [0.0f64; 3];
    let mut traced_ops = Vec::with_capacity(requests.len());
    let mut one_call_s = Vec::with_capacity(requests.len());
    let mut bytes_out = 0usize;
    let mut mismatches = 0u64;
    for (index, request) in requests.iter().enumerate() {
        let op = index as u64;
        let before = (evaluated.get(), pruned.get(), search_seconds.sum());
        let pieces = {
            let _root = tracer.span("serve.op", op);
            let parsed = {
                let _span = tracer.span("serve.http.parse", op);
                parse_request(&request.raw)?
            };
            let text = std::str::from_utf8(&parsed.body).map_err(|e| e.to_string())?;
            let value = {
                let _span = tracer.span("report.json.decode", op);
                JsonValue::parse(text).map_err(|e| e.to_string())?
            };
            if let Some(spec) = value.get("spec") {
                let _span = tracer.span("nets.spec", op);
                NetworkSpec::from_json(spec).map_err(|e| e.to_string())?;
            }
            let answer = {
                let _span = tracer.span(request.kind.handler_span(), op);
                let body = &parsed.body;
                match request.kind {
                    Kind::PlanHot | Kind::PlanSpec => handlers::plan(&pieces_state, 0, body),
                    Kind::Sweep => handlers::sweep(&pieces_state, 0, body),
                    Kind::Deploy => handlers::deploy(&pieces_state, 0, body),
                    Kind::Simulate => handlers::simulate(&pieces_state, 0, body),
                }
                .map_err(|(status, message)| format!("{status}: {message}"))?
            };
            let rendered = {
                let _span = tracer.span("report.json.render", op);
                answer.render()
            };
            bytes_out += rendered.len();
            let _span = tracer.span("serve.http.render", op);
            http::render_json_response(200, &rendered, parsed.wants_close())
        };
        traced_ops.push(tracer.finish_op(op));
        cost[0] += (evaluated.get() - before.0) as f64;
        cost[1] += (pruned.get() - before.1) as f64;
        cost[2] += search_seconds.sum() - before.2;
        // The one-call path on a twin state with the same history.
        pieces_state.count_request();
        let started = Instant::now();
        let parsed = parse_request(&request.raw)?;
        let response = dispatch::respond(&one_call_state, 0, Ok(parsed), started);
        one_call_s.push(started.elapsed().as_secs_f64());
        if response.bytes != pieces {
            mismatches += 1;
        }
    }
    let ops = requests.len().max(1) as f64;
    let per_op = |name: &str| tracer.totals(name).busy_ns as f64 / 1e9 / ops;
    for (metric, span) in [
        ("serve.http.parse_s", "serve.http.parse"),
        ("report.json.decode_s", "report.json.decode"),
        ("nets.spec.busy_s", "nets.spec"),
        ("serve.handler.plan_s", "serve.handler.plan"),
        ("serve.handler.sweep_s", "serve.handler.sweep"),
        ("serve.handler.deploy_s", "serve.handler.deploy"),
        ("serve.handler.simulate_s", "serve.handler.simulate"),
        ("report.json.render_s", "report.json.render"),
    ] {
        out.set(metric, per_op(span));
    }
    out.set("report.json.bytes_out", bytes_out as f64 / ops);
    out.set("serve.respond_s", one_call_s.iter().sum::<f64>() / ops);
    out.set(
        "serve.loop.residual_ms",
        live_median_ms - median(&one_call_s) * 1e3,
    );
    let stats = pieces_state.stats();
    out.set("cost.search.calls", stats.search_misses as f64 / ops);
    out.set("cost.search.evaluated", cost[0] / ops);
    out.set("cost.search.pruned", cost[1] / ops);
    out.set(
        "cost.search.pruned_frac",
        cost[1] / (cost[0] + cost[1]).max(1.0),
    );
    out.set("cost.search.busy_s", cost[2] / ops);
    CacheDelta::between(&Default::default(), &stats).report(out, ops, stats.plan_entries);
    report_trace_health(out, &traced_ops, &one_call_s);
    if mismatches > 0 {
        out.failed += mismatches;
        out.note(format!(
            "{mismatches} replayed responses differ between the pieces and dispatch::respond"
        ));
    }
    write_trace(&tracer, args)
}
