//! The sharded, readiness-driven connection tier.
//!
//! Each shard is one thread owning a [`pim_netpoll::Poller`] and the
//! connections pinned to it. Connections are non-blocking state
//! machines — reading (incremental parse), handling (a worker thread
//! runs the planning handler), writing (draining the rendered
//! response) — driven strictly by readiness events, completions and
//! deadlines, so one shard thread serves hundreds of keep-alive
//! connections without a thread each.
//!
//! Discipline that keeps the tier bounded:
//!
//! * **One request in flight per connection.** Pipelined requests are
//!   parsed in arrival order from the connection buffer, each answered
//!   before the next is dispatched, so responses can never interleave.
//! * **Read interest is off while handling and writing** — the
//!   backpressure that caps per-connection input buffering at roughly
//!   one request plus one read chunk; the rest waits in the kernel's
//!   socket buffer, where TCP flow control pushes back on the client.
//! * **Every phase has a deadline.** The request-read deadline starts
//!   at the request's *first* byte and is never reset by later bytes,
//!   so a slowloris drip is answered `408` within one timeout however
//!   long it drips. Idle keep-alive waits and stalled writes close
//!   when the same timeout passes; handler runs get a generous fixed
//!   grace. Deadline closes count `pim_conn_timeout_total`.
//! * **Half-close is not death.** A client that shuts down its write
//!   side (EOF after a pipelined burst) still gets every buffered
//!   request answered before the connection closes; only a hard
//!   hangup (`EPOLLHUP`/`EPOLLERR`) or a write failure drops it.

use crate::dispatch::{self, Response};
use crate::pool::ThreadPool;
use crate::state::ServerState;
use crate::{api, http};
use pim_netpoll::{Event, Interest, Poller, Waker};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Token reserved for the shard's waker; connections start at 1.
const WAKER_TOKEN: u64 = 0;

/// Bytes read from a socket per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// Cap on bytes buffered per connection before the shard stops
/// reading: the largest legal request (1 MiB body + headers) plus
/// slack. Beyond this the bytes wait in the kernel socket buffer.
const MAX_CONN_BUFFER: usize = http::MAX_BODY + 64 * 1024;

/// How long a dispatched handler may run before its connection is
/// abandoned. Deliberately far above the I/O timeout: full-zoo sweeps
/// are legitimate slow requests.
const HANDLER_GRACE: Duration = Duration::from_secs(120);

/// Counts a connection closed by a deadline (slowloris `408`, idle
/// keep-alive expiry, stalled write, overlong handler).
fn count_timeout() {
    pim_telemetry::global()
        .counter(
            "pim_conn_timeout_total",
            "Connections closed because an idle, read, write or handler deadline passed.",
            &[],
        )
        .inc();
}

/// Counts one request shed with `503`: the worker queue is full here, or
/// the connection is over the accept cap in `shed_connection`.
pub(super) fn count_shed() {
    pim_telemetry::global()
        .counter(
            "pim_sheds_total",
            "Requests answered 503 (worker queue full, or connection over the accept cap).",
            &[],
        )
        .inc();
}

/// Prepares an accepted socket for its shard: non-blocking, and with
/// Nagle's algorithm off. With Nagle on, a response written while the
/// previous one on the connection is still unacknowledged waits for the
/// client's delayed ACK, which held pipelined responses back by
/// milliseconds.
fn adopt(stream: &TcpStream) -> io::Result<()> {
    stream.set_nonblocking(true)?;
    stream.set_nodelay(true)
}

/// An accepted connection's mailbox on its way to a shard thread, plus
/// the waker that tells the shard to look.
#[derive(Debug)]
pub(crate) struct ShardHandle {
    inbox: Mutex<Vec<TcpStream>>,
    pub(crate) waker: Waker,
}

impl ShardHandle {
    /// A handle with an empty inbox.
    pub(crate) fn new() -> io::Result<Self> {
        Ok(Self {
            inbox: Mutex::new(Vec::new()),
            waker: Waker::new()?,
        })
    }

    /// Hands a freshly accepted connection to the shard (callers wake
    /// the shard afterwards).
    pub(crate) fn push(&self, stream: TcpStream) {
        self.inbox
            .lock()
            .expect("shard inbox poisoned")
            .push(stream);
    }

    fn take(&self) -> Vec<TcpStream> {
        std::mem::take(&mut *self.inbox.lock().expect("shard inbox poisoned"))
    }
}

/// Connection phase; see the module docs for the transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for (more of) a request.
    Reading,
    /// A worker thread is computing the response.
    Handling,
    /// Draining the rendered response to the socket.
    Writing,
}

/// What to do with a connection after driving it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Keep,
    Close,
}

/// One connection's state machine.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    parser: http::RequestParser,
    phase: Phase,
    /// The rendered response being written, and how much already went.
    out: Vec<u8>,
    out_pos: usize,
    close_after_write: bool,
    /// The peer half-closed (EOF seen); buffered requests still get
    /// answered, then the connection closes.
    read_closed: bool,
    /// When the in-progress request's first byte arrived. Set once per
    /// request and *not* refreshed by later bytes — the slowloris
    /// bound.
    reading_since: Option<Instant>,
    /// When this connection's current phase gives up.
    deadline: Instant,
    /// Interest currently registered with the poller.
    interest: Interest,
}

/// Everything a shard thread needs; methods drive one connection at a
/// time.
pub(crate) struct Shard {
    pub(crate) shard: usize,
    pub(crate) state: Arc<ServerState>,
    pub(crate) pool: Arc<ThreadPool>,
    pub(crate) handle: Arc<ShardHandle>,
    pub(crate) open: Arc<AtomicUsize>,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) timeout: Duration,
}

impl Shard {
    /// The shard thread: registers the waker, then loops on readiness
    /// events, worker completions, inbox arrivals and deadlines until
    /// shutdown.
    ///
    /// # Errors
    ///
    /// Propagates poller creation/registration failures; per-connection
    /// I/O failures only drop that connection.
    pub(crate) fn run(self) -> io::Result<()> {
        let poller = Poller::new()?;
        poller.register(self.handle.waker.fd(), WAKER_TOKEN, Interest::READABLE)?;
        let (tx, rx) = mpsc::channel::<(u64, Response)>();
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_token: u64 = WAKER_TOKEN + 1;
        let mut events: Vec<Event> = Vec::new();

        // ORDERING: SeqCst on the shutdown flag and the `open`
        // connection counter throughout this loop — both sit on accept
        // / teardown paths (microseconds next to a syscall), and the
        // 503-at-cap guarantee the torture suite asserts wants the
        // counter totally ordered against the acceptor's check, not
        // merely eventually visible.
        while !self.shutdown.load(Ordering::SeqCst) {
            let now = Instant::now();
            let timeout = conns
                .values()
                .map(|c| c.deadline)
                .min()
                .map(|d| d.saturating_duration_since(now));
            poller.wait(&mut events, timeout)?;

            if events.iter().any(|e| e.token == WAKER_TOKEN) {
                self.handle.waker.drain();
            }
            // ORDERING: SeqCst — same total order as the loop header's
            // shutdown check.
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }

            // New connections from the acceptor.
            for stream in self.handle.take() {
                if adopt(&stream).is_err() {
                    // ORDERING: SeqCst — the slot release must be
                    // totally ordered against the acceptor's cap check.
                    self.open.fetch_sub(1, Ordering::SeqCst);
                    continue;
                }
                let token = next_token;
                next_token += 1; // tokens never reused: no ABA on stale events
                if poller
                    .register(stream.as_raw_fd(), token, Interest::READABLE)
                    .is_err()
                {
                    // ORDERING: SeqCst — slot release, as above.
                    self.open.fetch_sub(1, Ordering::SeqCst);
                    continue;
                }
                conns.insert(
                    token,
                    Conn {
                        stream,
                        parser: http::RequestParser::new(),
                        phase: Phase::Reading,
                        out: Vec::new(),
                        out_pos: 0,
                        close_after_write: false,
                        read_closed: false,
                        reading_since: None,
                        deadline: Instant::now() + self.timeout,
                        interest: Interest::READABLE,
                    },
                );
            }

            // Responses computed by workers.
            while let Ok((token, response)) = rx.try_recv() {
                let Some(mut conn) = conns.remove(&token) else {
                    continue; // connection died while the worker ran
                };
                let fate = if conn.phase == Phase::Handling {
                    self.start_response(&poller, &tx, token, &mut conn, response)
                } else {
                    Fate::Keep
                };
                self.settle(&poller, &mut conns, token, conn, fate);
            }

            // Readiness events.
            for &event in &events {
                if event.token == WAKER_TOKEN {
                    continue;
                }
                let Some(mut conn) = conns.remove(&event.token) else {
                    continue; // closed earlier this iteration
                };
                let fate = if event.closed {
                    Fate::Close // hard hangup: dead in both directions
                } else {
                    match conn.phase {
                        Phase::Reading if event.readable => {
                            self.drive_read(&poller, &tx, event.token, &mut conn)
                        }
                        Phase::Writing if event.writable => {
                            self.drive_write(&poller, &tx, event.token, &mut conn)
                        }
                        _ => Fate::Keep,
                    }
                };
                self.settle(&poller, &mut conns, event.token, conn, fate);
            }

            // Deadlines.
            let now = Instant::now();
            let expired: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| c.deadline <= now)
                .map(|(&t, _)| t)
                .collect();
            for token in expired {
                let Some(mut conn) = conns.remove(&token) else {
                    continue;
                };
                count_timeout();
                let fate = if conn.phase == Phase::Reading && conn.parser.buffered() > 0 {
                    // A request is stalled mid-flight (slowloris): say so.
                    let error = http::HttpError {
                        status: 408,
                        message: "request took too long to arrive".into(),
                    };
                    let response = dispatch::respond(
                        &self.state,
                        self.shard,
                        Err(error),
                        conn.reading_since.unwrap_or(now),
                    );
                    self.start_response(&poller, &tx, token, &mut conn, response)
                } else {
                    // Idle keep-alive, stalled write, or overlong
                    // handler: nothing useful to say, close.
                    Fate::Close
                };
                self.settle(&poller, &mut conns, token, conn, fate);
            }
        }

        for (_, conn) in conns.drain() {
            self.close(&poller, conn);
        }
        Ok(())
    }

    /// Re-inserts a kept connection or closes a doomed one.
    fn settle(
        &self,
        poller: &Poller,
        conns: &mut HashMap<u64, Conn>,
        token: u64,
        conn: Conn,
        fate: Fate,
    ) {
        match fate {
            Fate::Keep => {
                conns.insert(token, conn);
            }
            Fate::Close => self.close(poller, conn),
        }
    }

    /// Deregisters and drops a connection, releasing its slot.
    fn close(&self, poller: &Poller, conn: Conn) {
        let _ = poller.deregister(conn.stream.as_raw_fd());
        // ORDERING: SeqCst — the released slot must be visible, in
        // order, to the acceptor's open-connection cap check.
        self.open.fetch_sub(1, Ordering::SeqCst);
    }

    /// Points the poller at what the connection now waits for.
    fn set_interest(&self, poller: &Poller, token: u64, conn: &mut Conn, want: Interest) {
        if conn.interest != want && poller.modify(conn.stream.as_raw_fd(), token, want).is_ok() {
            conn.interest = want;
        }
    }

    /// Reads everything available (bounded by [`MAX_CONN_BUFFER`]),
    /// then advances the parse.
    fn drive_read(
        &self,
        poller: &Poller,
        tx: &mpsc::Sender<(u64, Response)>,
        token: u64,
        conn: &mut Conn,
    ) -> Fate {
        let mut chunk = [0u8; READ_CHUNK];
        while !conn.read_closed && conn.parser.buffered() < MAX_CONN_BUFFER {
            match conn.stream.read(&mut chunk) {
                Ok(0) => conn.read_closed = true,
                Ok(n) => {
                    if conn.reading_since.is_none() {
                        let now = Instant::now();
                        conn.reading_since = Some(now);
                        conn.deadline = now + self.timeout;
                    }
                    conn.parser.feed(&chunk[..n]);
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Fate::Close,
            }
        }
        self.try_advance(poller, tx, token, conn)
    }

    /// Polls the parser once and acts on the outcome: dispatch a ready
    /// request to the worker pool, answer a parse error, settle EOF, or
    /// keep waiting for bytes.
    fn try_advance(
        &self,
        poller: &Poller,
        tx: &mpsc::Sender<(u64, Response)>,
        token: u64,
        conn: &mut Conn,
    ) -> Fate {
        match conn.parser.poll() {
            Err(error) => {
                let started = conn.reading_since.unwrap_or_else(Instant::now);
                let response = dispatch::respond(&self.state, self.shard, Err(error), started);
                self.start_response(poller, tx, token, conn, response)
            }
            Ok(http::ParseStatus::Ready(request)) => {
                conn.reading_since = None;
                conn.phase = Phase::Handling;
                conn.deadline = Instant::now() + HANDLER_GRACE;
                self.set_interest(poller, token, conn, Interest::NONE);
                let started = Instant::now();
                let state = Arc::clone(&self.state);
                let handle = Arc::clone(&self.handle);
                let shard = self.shard;
                let job_tx = tx.clone();
                let dispatched = self.pool.try_execute(move || {
                    let response = dispatch::respond(&state, shard, Ok(request), started);
                    if job_tx.send((token, response)).is_ok() {
                        let _ = handle.waker.wake();
                    }
                });
                if dispatched.is_err() {
                    count_shed();
                    let body = api::error_json(503, "server overloaded; retry later").render();
                    let response = Response {
                        status: 503,
                        bytes: http::render_json_response(503, &body, true),
                        close: true,
                    };
                    return self.start_response(poller, tx, token, conn, response);
                }
                Fate::Keep
            }
            Ok(http::ParseStatus::NeedMore) => {
                if conn.read_closed {
                    if conn.parser.is_empty() {
                        return Fate::Close; // clean keep-alive close
                    }
                    let error = http::HttpError {
                        status: 400,
                        message: "connection closed mid-request".into(),
                    };
                    let started = conn.reading_since.unwrap_or_else(Instant::now);
                    let response = dispatch::respond(&self.state, self.shard, Err(error), started);
                    return self.start_response(poller, tx, token, conn, response);
                }
                conn.phase = Phase::Reading;
                self.set_interest(poller, token, conn, Interest::READABLE);
                if conn.reading_since.is_none() {
                    conn.deadline = Instant::now() + self.timeout;
                }
                Fate::Keep
            }
        }
    }

    /// Installs a rendered response and starts writing it.
    fn start_response(
        &self,
        poller: &Poller,
        tx: &mpsc::Sender<(u64, Response)>,
        token: u64,
        conn: &mut Conn,
        response: Response,
    ) -> Fate {
        conn.out = response.bytes;
        conn.out_pos = 0;
        conn.close_after_write = response.close;
        conn.phase = Phase::Writing;
        conn.deadline = Instant::now() + self.timeout;
        self.drive_write(poller, tx, token, conn)
    }

    /// Writes as much of the pending response as the socket takes; on
    /// completion either closes or returns to reading (immediately
    /// parsing any buffered pipelined request).
    fn drive_write(
        &self,
        poller: &Poller,
        tx: &mpsc::Sender<(u64, Response)>,
        token: u64,
        conn: &mut Conn,
    ) -> Fate {
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => return Fate::Close,
                Ok(n) => conn.out_pos += n,
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.set_interest(poller, token, conn, Interest::WRITABLE);
                    return Fate::Keep;
                }
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Fate::Close,
            }
        }
        if conn.close_after_write {
            return Fate::Close;
        }
        conn.out = Vec::new();
        conn.out_pos = 0;
        conn.phase = Phase::Reading;
        let now = Instant::now();
        conn.reading_since = (conn.parser.buffered() > 0).then_some(now);
        conn.deadline = now + self.timeout;
        self.try_advance(poller, tx, token, conn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn adopted_sockets_are_nonblocking_and_send_without_delay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        adopt(&accepted).unwrap();
        assert!(accepted.nodelay().unwrap());
        let err = (&accepted).read(&mut [0u8; 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }
}
