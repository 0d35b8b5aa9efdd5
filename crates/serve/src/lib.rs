//! **Planning-as-a-service**: an HTTP daemon fronting the VW-SDK
//! planning engine.
//!
//! The ROADMAP's north star is a system that answers mapping queries
//! over the wire for arbitrary user-supplied networks — not just the
//! built-in zoo. This crate is that request-serving tier, built
//! entirely on `std` plus the workspace's own syscall shim (the
//! offline dependency policy): an incremental HTTP/1.1 parser
//! ([`http`]), a sharded non-blocking event loop (`event_loop`, over
//! [`pim_netpoll`]), a fixed worker pool ([`pool`]), a closed route
//! table ([`router`]) and pure JSON handlers ([`handlers`]) over one
//! [`PlanningEngine`](vw_sdk::PlanningEngine), whose single-flight
//! search memo is the process's only planning cache. Each POST body
//! becomes one validated request from [`api`] — the same type `vwsdk`
//! builds from its flags.
//!
//! # The API
//!
//! | endpoint | body | answer |
//! |---|---|---|
//! | `GET /healthz` | — | liveness, request count, cache stats |
//! | `GET /v1/networks` | — | the model zoo |
//! | `POST /v1/plan` | `{"network"\|"spec", "array"?, "algorithms"?}` | per-layer windows, cycles, speedups, cache stats |
//! | `POST /v1/sweep` | `{"networks"?, "specs"?, "arrays"?, "algorithms"?}` | summary per (network, array) pair |
//! | `POST /v1/deploy` | `{"network"\|"spec", "array"?, "arrays"?, "reprogram"?, "algorithms"?}` | bottleneck-optimal chip deployment: per-layer algorithm/array split, pipeline timing, energy |
//! | `POST /v1/simulate` | `{"network"\|"spec", "array"?, "algorithm"?, "seed"?, "mode"?, "batch"?}` | end-to-end functional simulation: per-stage executed vs. predicted cycles, MACs, conversions, bit-exactness verdict |
//! | `GET /v1/metrics` | — | the process telemetry registry: Prometheus text (default) or `?format=json` |
//!
//! # The protocol
//!
//! HTTP/1.1 with **keep-alive and pipelining**: responses carry
//! `content-length` framing and `connection: keep-alive` unless the
//! client asks to close (`Connection: close`, or HTTP/1.0 without
//! `keep-alive`). Requests on one connection are answered strictly in
//! order, one in flight at a time. Idle connections, drip-fed
//! requests (answered `408`) and stalled response writes all close
//! after the configured [`timeout`](ServeConfig::timeout); when the
//! server is saturated it sheds load with `503` instead of queueing
//! without bound. Malformed JSON answers `400`, impossible requests
//! (unknown network, invalid spec geometry) answer `422` — always as
//! structured JSON (`{"error": {"status", "message"}}`), never a
//! dropped connection. Plans are **byte-identical** to what the
//! in-process [`Planner`](vw_sdk::Planner) produces for the same
//! query; the integration test proves it under concurrency.
//!
//! # Example
//!
//! ```
//! use std::io::{Read, Write};
//! use vw_sdk_serve::PlanServer;
//!
//! let server = PlanServer::bind("127.0.0.1:0", 2)?;
//! let addr = server.local_addr()?;
//! let handle = server.spawn();
//!
//! let mut stream = std::net::TcpStream::connect(addr)?;
//! // `connection: close` → the server closes after answering, so
//! // EOF-delimited reading works; omit it to keep the socket open
//! // for more requests (responses are content-length framed).
//! stream.write_all(b"GET /healthz HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n")?;
//! let mut response = String::new();
//! stream.read_to_string(&mut response)?;
//! assert!(response.starts_with("HTTP/1.1 200 OK"));
//! assert!(response.contains("\"status\":\"ok\""));
//!
//! handle.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod api;
pub mod dispatch;
mod event_loop;
pub mod handlers;
pub mod http;
pub mod pool;
pub mod router;
pub mod state;

pub use state::ServerState;

use event_loop::{Shard, ShardHandle};
use pool::ThreadPool;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs of a [`PlanServer`]. `Default` is the production
/// shape; [`PlanServer::bind`] only overrides `jobs`.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Handler worker threads (`0` = one per available core).
    pub jobs: usize,
    /// Event-loop shards: I/O threads that all hand requests to the one
    /// planning engine (`0` = auto: enough for the machine, capped at
    /// 4 — shards are I/O threads, not compute).
    pub shards: usize,
    /// Idle, per-request read, and response-write deadline. Handler
    /// execution gets a separate generous fixed grace.
    pub timeout: Duration,
    /// Open-connection cap; accepts beyond it are shed with `503`.
    pub max_connections: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            jobs: 0,
            shards: 0,
            timeout: Duration::from_secs(30),
            max_connections: 1024,
        }
    }
}

impl ServeConfig {
    fn resolved_jobs(&self) -> usize {
        if self.jobs == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.jobs
        }
    }

    fn resolved_shards(&self) -> usize {
        if self.shards == 0 {
            self.resolved_jobs().clamp(1, 4)
        } else {
            self.shards
        }
    }
}

/// The planning daemon: a bound listener plus the shared state, ready
/// to [`run`](PlanServer::run) on the current thread or
/// [`spawn`](PlanServer::spawn) in the background.
#[derive(Debug)]
pub struct PlanServer {
    listener: TcpListener,
    state: Arc<ServerState>,
    shutdown: Arc<AtomicBool>,
    jobs: usize,
    shards: usize,
    timeout: Duration,
    max_connections: usize,
}

impl PlanServer {
    /// Binds to `addr` (e.g. `"127.0.0.1:7878"`, or port `0` for an
    /// ephemeral port) with a pool of `jobs` handler workers
    /// (`0` = one per available core) and default sharding/timeouts.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, permission…).
    pub fn bind(addr: impl ToSocketAddrs, jobs: usize) -> io::Result<Self> {
        Self::bind_with(
            addr,
            ServeConfig {
                jobs,
                ..ServeConfig::default()
            },
        )
    }

    /// Binds with explicit [`ServeConfig`] knobs.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, permission…).
    pub fn bind_with(addr: impl ToSocketAddrs, config: ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let jobs = config.resolved_jobs();
        let shards = config.resolved_shards();
        Ok(Self {
            listener,
            state: Arc::new(ServerState::with_shards(jobs, shards)),
            shutdown: Arc::new(AtomicBool::new(false)),
            jobs,
            shards,
            timeout: config.timeout,
            max_connections: config.max_connections.max(1),
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared server state (engines, counters).
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Serves connections on the **current thread** (the acceptor)
    /// until [`ServerHandle::shutdown`] is signalled (never, when
    /// nothing holds a handle — the daemon case). Shard event loops
    /// and handler workers run on their own threads either way.
    ///
    /// # Errors
    ///
    /// Returns the first fatal accept error or shard-spawn failure.
    /// Per-connection failures are answered or dropped without
    /// stopping the server.
    pub fn run(self) -> io::Result<()> {
        let pool = Arc::new(ThreadPool::new(self.jobs));
        let open = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::with_capacity(self.shards);
        let mut threads = Vec::with_capacity(self.shards);
        for index in 0..self.shards {
            let handle = Arc::new(ShardHandle::new()?);
            let shard = Shard {
                shard: index,
                state: Arc::clone(&self.state),
                pool: Arc::clone(&pool),
                handle: Arc::clone(&handle),
                open: Arc::clone(&open),
                shutdown: Arc::clone(&self.shutdown),
                timeout: self.timeout,
            };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-shard-{index}"))
                    .spawn(move || shard.run())?,
            );
            handles.push(handle);
        }

        let mut next_shard = 0usize;
        let result = loop {
            // ORDERING: SeqCst on the shutdown flag and the `open`
            // counter across the accept loop — once per accepted
            // connection (next to a syscall, so strength is free), and
            // the cap check below must observe shard-side slot
            // releases in one total order or the torture suite's
            // 503-at-cap bound would race.
            if self.shutdown.load(Ordering::SeqCst) {
                break Ok(());
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    count_conn_open();
                    // ORDERING: SeqCst — cap check, see loop header.
                    if open.load(Ordering::SeqCst) >= self.max_connections {
                        shed_connection(stream);
                        continue;
                    }
                    // ORDERING: SeqCst — slot claim paired with the
                    // check above and the shards' releases.
                    open.fetch_add(1, Ordering::SeqCst);
                    let handle = &handles[next_shard % handles.len()];
                    next_shard = next_shard.wrapping_add(1);
                    handle.push(stream);
                    let _ = handle.waker.wake();
                }
                // Transient accept failures — aborted handshakes, fd
                // exhaustion under load (EMFILE/ENFILE), interrupts —
                // must not kill the daemon; back off briefly and keep
                // serving. Only genuinely fatal errors stop the loop.
                Err(ref e) if is_transient_accept_error(e) => {
                    if matches!(e.raw_os_error(), Some(23 | 24)) {
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    continue;
                }
                Err(e) => break Err(e),
            }
        };

        // Wind down: stop the shards (serving their open connections'
        // in-flight writes is the workers' job; the shards drop what
        // remains), then drain and join the worker pool.
        // ORDERING: SeqCst — the stop must be visible to every shard
        // before the wakes below, in the order they check it.
        self.shutdown.store(true, Ordering::SeqCst);
        for handle in &handles {
            let _ = handle.waker.wake();
        }
        for thread in threads {
            let _ = thread.join();
        }
        drop(pool);
        result
    }

    /// Serves in a background thread; the returned handle stops it.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.listener.local_addr().ok();
        let shutdown = Arc::clone(&self.shutdown);
        let state = Arc::clone(&self.state);
        let thread = std::thread::Builder::new()
            .name("serve-acceptor".into())
            .spawn(move || self.run())
            .expect("spawning the acceptor thread failed");
        ServerHandle {
            addr,
            shutdown,
            state,
            thread: Some(thread),
        }
    }
}

/// Counts one accepted connection (shed or served).
fn count_conn_open() {
    pim_telemetry::global()
        .counter(
            "pim_conn_open_total",
            "Connections accepted, including ones immediately shed.",
            &[],
        )
        .inc();
}

/// Sheds a connection at the open-connection cap: answers `503` on the
/// accepting thread (bounded by a short write timeout) and closes.
fn shed_connection(mut stream: TcpStream) {
    pim_telemetry::global()
        .counter(
            "pim_conn_shed_total",
            "Connections answered 503 at accept because the open-connection cap was reached.",
            &[],
        )
        .inc();
    event_loop::count_shed();
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let body = api::error_json(503, "server overloaded; retry later").render();
    let _ = stream.write_all(&http::render_json_response(503, &body, true));
}

/// Handle to a background [`PlanServer`]; dropping it without calling
/// [`ServerHandle::shutdown`] leaves the server running detached.
#[derive(Debug)]
pub struct ServerHandle {
    addr: Option<SocketAddr>,
    shutdown: Arc<AtomicBool>,
    state: Arc<ServerState>,
    thread: Option<std::thread::JoinHandle<io::Result<()>>>,
}

impl ServerHandle {
    /// The server's bound address, if known.
    pub fn addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// The shared server state (engines, counters).
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Signals the acceptor and shards to stop, unblocks them, and
    /// joins them. Connections still open are dropped.
    pub fn shutdown(mut self) {
        // ORDERING: SeqCst — must be visible to the acceptor before
        // the unblocking connect below reaches it; runs once per
        // server lifetime.
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(addr) = self.addr {
            // Unblock the accept call with one throwaway connection.
            let _ = TcpStream::connect(addr);
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Whether an `accept` failure is expected under load and safe to
/// retry: aborted/reset handshakes, interrupts, and file-descriptor
/// exhaustion (`EMFILE` 24 / `ENFILE` 23 — each connection uses fds, so
/// these strike exactly when the server is busiest).
fn is_transient_accept_error(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::Interrupted
            | io::ErrorKind::WouldBlock
    ) || matches!(e.raw_os_error(), Some(23 | 24))
}
