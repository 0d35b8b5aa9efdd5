//! **Readiness polling over raw file descriptors** — the thin syscall
//! shim beneath the serving tier's non-blocking event loop.
//!
//! The workspace builds with no external dependencies, so instead of
//! `mio` this crate declares the handful of libc symbols it needs
//! (`std` already links libc) and wraps them in two safe types:
//!
//! * [`Poller`] — readiness notification. On Linux this is an `epoll`
//!   instance (level-triggered, `EPOLLRDHUP` mapped into
//!   [`Event::closed`]); on other Unixes it degrades to a `poll(2)`
//!   backend over a registered-fd table. One `Poller` serves one event
//!   loop thread: `register`/`modify`/`deregister` take `&self`, but
//!   concurrent [`Poller::wait`] calls are not supported.
//! * [`Waker`] — a cross-thread wakeup: any thread may
//!   [`wake`](Waker::wake) a poller parked in `wait` by writing to an
//!   `eventfd` (Linux) or a non-blocking pipe (elsewhere). The waker's
//!   read end is registered like any socket and drained with
//!   [`Waker::drain`].
//!
//! This crate is the only place in the workspace that contains
//! `unsafe`: every block wraps exactly one C call with checked
//! arguments, and all fd lifetimes are owned by the two types' `Drop`
//! impls.
//!
//! # Example
//!
//! ```
//! use pim_netpoll::{Event, Interest, Poller, Waker};
//! use std::os::fd::AsRawFd;
//! use std::time::Duration;
//!
//! let poller = Poller::new()?;
//! let waker = Waker::new()?;
//! poller.register(waker.fd(), 7, Interest::READABLE)?;
//!
//! waker.wake()?;
//! let mut events = Vec::new();
//! poller.wait(&mut events, Some(Duration::from_secs(1)))?;
//! assert!(events.iter().any(|e| e.token == 7 && e.readable));
//! waker.drain();
//! # Ok::<(), std::io::Error>(())
//! ```

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Which readiness classes a registration subscribes to.
///
/// Hangup and error conditions are always reported regardless of
/// interest — a connection that died must surface even while the
/// server is not waiting for its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer half-closed).
    pub readable: bool,
    /// Wake when the fd accepts writes without blocking.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable only.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Neither: only hangup/error conditions are reported.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One readiness notification from [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd has bytes to read (or the peer closed its write side —
    /// a read will then return 0).
    pub readable: bool,
    /// The fd accepts writes without blocking.
    pub writable: bool,
    /// Hard hangup or error: the connection is dead in both directions
    /// (`EPOLLHUP`/`EPOLLERR`). A peer that merely half-closed its
    /// write side surfaces as `readable` with `read` returning 0, not
    /// here — responses can still be written to it.
    pub closed: bool,
}

// ---------------------------------------------------------------------------
// Linux backend: epoll + eventfd.
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod sys {
    use super::{Event, Interest};
    use std::ffi::{c_int, c_uint, c_void};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    // The kernel UAPI packs `struct epoll_event` on x86_64 only.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLL_CLOEXEC: c_int = 0x80000;

    const EFD_NONBLOCK: c_int = 0x800;
    const EFD_CLOEXEC: c_int = 0x80000;

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        fn close(fd: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }

    fn interest_mask(interest: Interest) -> u32 {
        let mut mask = 0;
        if interest.readable {
            // RDHUP rides with read interest only: a half-closed peer
            // surfaces as readable (read returns 0), and a connection
            // whose read interest is off — mid-response — must not
            // level-trigger on the peer's half-close every wait.
            mask |= EPOLLIN | EPOLLRDHUP;
        }
        if interest.writable {
            mask |= EPOLLOUT;
        }
        mask
    }

    /// Readiness notification via one `epoll` instance.
    #[derive(Debug)]
    pub struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            // SAFETY: epoll_create1 takes a flag word and returns a new
            // fd (or -1); no pointers are involved.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { epfd })
        }

        fn ctl(&self, op: c_int, fd: RawFd, event: Option<&mut EpollEvent>) -> io::Result<()> {
            let ptr = event.map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
            // SAFETY: `ptr` is either null (DEL, where the kernel
            // ignores it) or a live, exclusive reference valid for the
            // duration of the call.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, ptr) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut event = EpollEvent {
                events: interest_mask(interest),
                data: token,
            };
            self.ctl(EPOLL_CTL_ADD, fd, Some(&mut event))
        }

        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut event = EpollEvent {
                events: interest_mask(interest),
                data: token,
            };
            self.ctl(EPOLL_CTL_MOD, fd, Some(&mut event))
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, None)
        }

        pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            events.clear();
            let timeout_ms: c_int = match timeout {
                // Round up so a sub-millisecond deadline does not spin.
                Some(t) => t
                    .as_millis()
                    .saturating_add(u128::from(t.subsec_nanos() % 1_000_000 != 0))
                    .min(c_int::MAX as u128) as c_int,
                None => -1,
            };
            let mut raw = [EpollEvent { events: 0, data: 0 }; 128];
            let max = raw.len() as c_int;
            // SAFETY: `raw` is a live, exclusively borrowed buffer of
            // exactly the `max` slots passed as `maxevents`.
            let count = unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), max, timeout_ms) };
            if count < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(()); // spurious wakeup: caller re-checks deadlines
                }
                return Err(err);
            }
            for slot in raw.iter().take(count as usize) {
                let mask = slot.events;
                events.push(Event {
                    token: slot.data,
                    readable: mask & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: mask & EPOLLOUT != 0,
                    closed: mask & (EPOLLHUP | EPOLLERR) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: `epfd` is a live fd owned by this Poller.
            unsafe { close(self.epfd) };
        }
    }

    /// Cross-thread wakeup via an `eventfd`.
    #[derive(Debug)]
    pub struct Waker {
        efd: RawFd,
    }

    impl Waker {
        pub fn new() -> io::Result<Self> {
            // SAFETY: eventfd takes an initial counter and flags and
            // returns a new fd (or -1); no pointers are involved.
            let efd = unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) };
            if efd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { efd })
        }

        pub fn fd(&self) -> RawFd {
            self.efd
        }

        pub fn wake(&self) -> io::Result<()> {
            let one: u64 = 1;
            // SAFETY: writes exactly 8 bytes from a live stack value —
            // the size eventfd requires.
            let rc = unsafe { write(self.efd, (&one as *const u64).cast(), 8) };
            // EAGAIN means the counter is saturated: the poller is
            // already guaranteed to wake, so that is success.
            if rc < 0 && io::Error::last_os_error().kind() != io::ErrorKind::WouldBlock {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn drain(&self) {
            let mut buf = [0u8; 8];
            // SAFETY: reads at most 8 bytes into a live stack buffer of
            // exactly that size. The fd is non-blocking, so this
            // returns -1/EAGAIN once the counter is consumed.
            while unsafe { read(self.efd, buf.as_mut_ptr().cast(), buf.len()) } > 0 {}
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            // SAFETY: `efd` is a live fd owned by this Waker.
            unsafe { close(self.efd) };
        }
    }
}

// ---------------------------------------------------------------------------
// Portable Unix fallback: poll(2) + a non-blocking pipe.
// ---------------------------------------------------------------------------

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    use super::{Event, Interest};
    use std::collections::HashMap;
    use std::ffi::{c_int, c_short, c_ulong, c_void};
    use std::io;
    use std::os::fd::RawFd;
    use std::sync::Mutex;
    use std::time::Duration;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;

    const F_GETFL: c_int = 3;
    const F_SETFL: c_int = 4;
    const O_NONBLOCK: c_int = 0x0004; // BSD/macOS value; this module never builds on Linux

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        fn pipe(fds: *mut c_int) -> c_int;
        fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        fn close(fd: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }

    /// Readiness notification via `poll(2)` over a registered-fd table.
    #[derive(Debug)]
    pub struct Poller {
        registered: Mutex<HashMap<RawFd, (u64, Interest)>>,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            Ok(Self {
                registered: Mutex::new(HashMap::new()),
            })
        }

        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut table = self.registered.lock().expect("poller table poisoned");
            if table.insert(fd, (token, interest)).is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            Ok(())
        }

        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut table = self.registered.lock().expect("poller table poisoned");
            match table.get_mut(&fd) {
                Some(slot) => {
                    *slot = (token, interest);
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            let mut table = self.registered.lock().expect("poller table poisoned");
            match table.remove(&fd) {
                Some(_) => Ok(()),
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            events.clear();
            let mut fds: Vec<PollFd> = {
                let table = self.registered.lock().expect("poller table poisoned");
                table
                    .iter()
                    .map(|(&fd, &(_, interest))| PollFd {
                        fd,
                        events: (if interest.readable { POLLIN } else { 0 })
                            | (if interest.writable { POLLOUT } else { 0 }),
                        revents: 0,
                    })
                    .collect()
            };
            let timeout_ms: c_int = match timeout {
                Some(t) => t
                    .as_millis()
                    .saturating_add(u128::from(t.subsec_nanos() % 1_000_000 != 0))
                    .min(c_int::MAX as u128) as c_int,
                None => -1,
            };
            // SAFETY: `fds` is a live, exclusively borrowed slice whose
            // length is passed as `nfds`.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
            if rc < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            let table = self.registered.lock().expect("poller table poisoned");
            for slot in &fds {
                if slot.revents == 0 {
                    continue;
                }
                if let Some(&(token, _)) = table.get(&slot.fd) {
                    events.push(Event {
                        token,
                        readable: slot.revents & (POLLIN | POLLHUP) != 0,
                        writable: slot.revents & POLLOUT != 0,
                        closed: slot.revents & (POLLHUP | POLLERR) != 0,
                    });
                }
            }
            Ok(())
        }
    }

    /// Cross-thread wakeup via a non-blocking pipe.
    #[derive(Debug)]
    pub struct Waker {
        read_fd: RawFd,
        write_fd: RawFd,
    }

    impl Waker {
        pub fn new() -> io::Result<Self> {
            let mut fds = [0 as c_int; 2];
            // SAFETY: pipe writes two fds into a live array of exactly
            // that size.
            if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
                return Err(io::Error::last_os_error());
            }
            for fd in fds {
                // SAFETY: plain fcntl flag read on an fd this Waker
                // just created and owns.
                let flags = unsafe { fcntl(fd, F_GETFL, 0) };
                // SAFETY: same owned fd, writing back the flags just
                // read plus O_NONBLOCK (skipped when the read failed).
                let failed = flags < 0 || unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0;
                if failed {
                    let err = io::Error::last_os_error();
                    // SAFETY: both fds are live and owned here.
                    unsafe {
                        close(fds[0]);
                        close(fds[1]);
                    }
                    return Err(err);
                }
            }
            Ok(Self {
                read_fd: fds[0],
                write_fd: fds[1],
            })
        }

        pub fn fd(&self) -> RawFd {
            self.read_fd
        }

        pub fn wake(&self) -> io::Result<()> {
            let byte = [1u8];
            // SAFETY: writes one byte from a live stack buffer.
            let rc = unsafe { write(self.write_fd, byte.as_ptr().cast(), 1) };
            // A full pipe means the poller is already due to wake.
            if rc < 0 && io::Error::last_os_error().kind() != io::ErrorKind::WouldBlock {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn drain(&self) {
            let mut buf = [0u8; 64];
            // SAFETY: reads into a live stack buffer of the stated size;
            // the fd is non-blocking.
            while unsafe { read(self.read_fd, buf.as_mut_ptr().cast(), buf.len()) } > 0 {}
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            // SAFETY: both fds are live and owned by this Waker.
            unsafe {
                close(self.read_fd);
                close(self.write_fd);
            }
        }
    }
}

/// Readiness notification for a set of registered file descriptors.
///
/// Level-triggered: a readable fd keeps producing events until its
/// bytes are consumed, so a loop that reads to `WouldBlock` on each
/// event never misses data. See the [module docs](self) for the
/// backend per platform and the single-waiter contract.
#[derive(Debug)]
pub struct Poller {
    inner: sys::Poller,
}

impl Poller {
    /// A new, empty poller.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1` failure (fd exhaustion).
    pub fn new() -> io::Result<Self> {
        Ok(Self {
            inner: sys::Poller::new()?,
        })
    }

    /// Starts watching `fd` under `token`. The fd must stay open until
    /// [`deregister`](Self::deregister) (closing it first is safe — the
    /// kernel drops the registration — but the table entry leaks until
    /// then on the poll backend).
    ///
    /// # Errors
    ///
    /// Fails if `fd` is already registered or invalid.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.inner.register(fd, token, interest)
    }

    /// Replaces the token and interest of a registered fd.
    ///
    /// # Errors
    ///
    /// Fails if `fd` was never registered.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.inner.modify(fd, token, interest)
    }

    /// Stops watching `fd`.
    ///
    /// # Errors
    ///
    /// Fails if `fd` was never registered.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.inner.deregister(fd)
    }

    /// Blocks until at least one registered fd is ready, `timeout`
    /// elapses (`events` comes back empty), or a signal interrupts the
    /// wait (also empty — callers re-check their deadlines and loop).
    /// `None` waits forever.
    ///
    /// # Errors
    ///
    /// Propagates unexpected `epoll_wait`/`poll` failures.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.wait(events, timeout)
    }
}

/// Wakes a [`Poller`] parked in [`wait`](Poller::wait) from another
/// thread.
///
/// Register [`fd`](Waker::fd) with readable interest under a reserved
/// token; when that token surfaces, call [`drain`](Waker::drain) and
/// check the cross-thread queues the wake announced.
#[derive(Debug)]
pub struct Waker {
    inner: sys::Waker,
}

impl Waker {
    /// A new wakeup channel.
    ///
    /// # Errors
    ///
    /// Propagates `eventfd`/`pipe` creation failure.
    pub fn new() -> io::Result<Self> {
        Ok(Self {
            inner: sys::Waker::new()?,
        })
    }

    /// The readable end, for registering with a [`Poller`].
    pub fn fd(&self) -> RawFd {
        self.inner.fd()
    }

    /// Makes the poller's next (or current) `wait` return immediately.
    /// Saturating: waking an already-pending waker is a no-op, so any
    /// number of threads may signal one loop iteration.
    ///
    /// # Errors
    ///
    /// Propagates unexpected write failures (`EAGAIN` is success).
    pub fn wake(&self) -> io::Result<()> {
        self.inner.wake()
    }

    /// Consumes all pending wakeups so the (level-triggered) poller
    /// stops reporting the waker readable.
    pub fn drain(&self) {
        self.inner.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    const T: Option<Duration> = Some(Duration::from_secs(5));

    // Miri's shims cover epoll and eventfd but not TCP sockets, so the
    // socket-driven tests are skipped under `cargo miri test`; the
    // waker and timeout tests below still run there and exercise every
    // unsafe block in this crate.
    #[test]
    #[cfg_attr(miri, ignore = "Miri has no TCP socket shims")]
    fn a_connecting_client_makes_the_listener_readable() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        poller
            .register(listener.as_raw_fd(), 42, Interest::READABLE)
            .unwrap();

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(events.is_empty(), "no client yet: {events:?}");

        let _client = TcpStream::connect(addr).unwrap();
        poller.wait(&mut events, T).unwrap();
        assert!(
            events.iter().any(|e| e.token == 42 && e.readable),
            "{events:?}"
        );
    }

    #[test]
    #[cfg_attr(miri, ignore = "Miri has no TCP socket shims")]
    fn connected_streams_report_writable_and_data_reports_readable() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        poller
            .register(
                server.as_raw_fd(),
                7,
                Interest {
                    readable: true,
                    writable: true,
                },
            )
            .unwrap();

        let mut events = Vec::new();
        poller.wait(&mut events, T).unwrap();
        let event = events.iter().find(|e| e.token == 7).expect("stream event");
        assert!(event.writable && !event.readable, "{event:?}");

        client.write_all(b"ping").unwrap();
        // Narrow interest to readable so the (level-triggered) writable
        // event cannot mask the incoming bytes.
        poller
            .modify(server.as_raw_fd(), 7, Interest::READABLE)
            .unwrap();
        poller.wait(&mut events, T).unwrap();
        assert!(
            events.iter().any(|e| e.token == 7 && e.readable),
            "{events:?}"
        );

        poller.deregister(server.as_raw_fd()).unwrap();
        client.write_all(b"more").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(events.is_empty(), "deregistered fd still fired: {events:?}");
    }

    #[test]
    #[cfg_attr(miri, ignore = "Miri has no TCP socket shims")]
    fn a_peer_hangup_is_reported_closed() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        poller
            .register(server.as_raw_fd(), 9, Interest::READABLE)
            .unwrap();
        drop(client);

        let mut events = Vec::new();
        poller.wait(&mut events, T).unwrap();
        let event = events.iter().find(|e| e.token == 9).expect("hangup event");
        assert!(event.closed || event.readable, "{event:?}");
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 0, "read must see EOF");
    }

    #[test]
    fn wakers_cross_threads_and_drain() {
        let poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller.register(waker.fd(), 1, Interest::READABLE).unwrap();

        let remote = std::sync::Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            remote.wake().unwrap();
            remote.wake().unwrap(); // saturating: second wake is free
        });
        let started = Instant::now();
        let mut events = Vec::new();
        poller.wait(&mut events, T).unwrap();
        handle.join().unwrap();
        assert!(
            events.iter().any(|e| e.token == 1 && e.readable),
            "{events:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "wait never woke"
        );

        waker.drain();
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(
            events.is_empty(),
            "drained waker still readable: {events:?}"
        );
    }

    #[test]
    fn timeouts_expire_without_events() {
        let poller = Poller::new().unwrap();
        let started = Instant::now();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(30)))
            .unwrap();
        assert!(events.is_empty());
        assert!(started.elapsed() >= Duration::from_millis(25));
    }
}
