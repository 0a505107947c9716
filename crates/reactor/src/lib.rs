//! An event-driven serving core: sharded epoll event loops, bounded fair
//! admission, and graceful backpressure.
//!
//! This is `ftqc-server`'s only transport: a hand-rolled reactor over raw
//! `epoll` (no tokio, no mio, no libc crate; see [`sys`] for the
//! `extern "C"` wrappers) that multiplexes thousands of connections across
//! a few event-loop shards while the expensive work stays pooled behind a
//! bounded queue. A parked connection costs one fd, not a thread, and a
//! new one is accepted the moment epoll reports it.
//!
//! The moving parts:
//!
//! - **Sharded event loops** — `shards` threads, each with its own epoll
//!   instance. Every shard registers the listener with `EPOLLEXCLUSIVE`
//!   (one shard wakes per connection burst) and serves the connections it
//!   accepts to the end, so a request never changes event loop.
//! - **Per-connection state machines** — read → frame → dispatch →
//!   buffered write. Framing is incremental ([`frame::FrameScan`]): the
//!   instant a request head completes, admission control can refuse it
//!   with a 429 and a computed `Retry-After` *before the body is read*.
//! - **Bounded fair admission** — complete requests enter a
//!   [`queue::FairQueue`] laned by peer address and claimed round-robin,
//!   so one greedy client cannot starve the rest. Dispatcher threads pop
//!   requests, run the [`ReactorService`], and stream response chunks
//!   back to the owning shard; **application work never runs on an event
//!   loop**.
//! - **Deadlines everywhere** — slow-loris peers are reaped by a
//!   whole-request read deadline; requests that out-wait their admission
//!   deadline in the queue are answered with a refusal instead of being
//!   served stale.
//!
//! The service is byte-oriented: it receives a complete raw HTTP request
//! and writes back raw response bytes (possibly in chunks — streaming
//! responses fall out naturally). Parsing stays the application's job, so
//! this crate needs no HTTP types of its own.

pub mod frame;
pub mod queue;
#[cfg(target_os = "linux")]
pub mod sys;

pub use frame::{FrameError, FrameScan};
pub use queue::FairQueue;

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

/// Sizing and safety knobs for a reactor run.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Event-loop shards (0 ⇒ min(4, available parallelism)).
    pub shards: usize,
    /// Dispatcher threads running the service (0 ⇒ available
    /// parallelism).
    pub dispatchers: usize,
    /// Admission-queue bound: requests beyond it are refused with
    /// [`Refusal::OverCapacity`] before their bodies are read.
    pub queue_cap: usize,
    /// Concurrent connections before new ones are refused outright.
    pub max_connections: usize,
    /// Whole-request read deadline (slow-loris reaper).
    pub read_timeout: Duration,
    /// Longest a request may wait in the admission queue before it is
    /// answered with [`Refusal::Expired`] instead of being served stale.
    pub queue_timeout: Duration,
    /// How long shutdown waits for in-flight responses to flush.
    pub drain_timeout: Duration,
    /// Upper bound on a request head.
    pub head_limit: usize,
    /// Upper bound on a request body.
    pub body_limit: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            shards: 0,
            dispatchers: 0,
            queue_cap: 256,
            max_connections: 4096,
            read_timeout: Duration::from_secs(10),
            queue_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(30),
            head_limit: 16 * 1024,
            body_limit: 64 * 1024 * 1024,
        }
    }
}

impl ReactorConfig {
    fn resolved_shards(&self) -> usize {
        if self.shards > 0 {
            return self.shards;
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(4)
    }

    fn resolved_dispatchers(&self) -> usize {
        if self.dispatchers > 0 {
            return self.dispatchers;
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }
}

/// Why the reactor refused a request without running the service. The
/// service renders each case into full response bytes, so refusal bodies
/// match the application's error shape exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refusal {
    /// The admission queue is full (→ 429 with `Retry-After`).
    OverCapacity {
        /// Queue depth at the moment of refusal.
        queue_depth: usize,
        /// Estimated seconds until the queue has room, for `Retry-After`.
        retry_after_secs: u64,
    },
    /// The process is at its connection cap (→ 503).
    ConnectionLimit {
        /// The configured connection cap.
        limit: usize,
    },
    /// The request head exceeded its byte limit (→ 413).
    HeadTooLarge {
        /// The configured head limit.
        limit: usize,
    },
    /// The declared body exceeds its byte limit (→ 413).
    BodyTooLarge {
        /// The declared body length.
        length: usize,
        /// The configured body limit.
        limit: usize,
    },
    /// The whole-request read deadline passed mid-request (→ 408).
    Timeout,
    /// The request out-waited its admission deadline in the queue
    /// (→ 503 with `Retry-After`).
    Expired {
        /// Estimated seconds until the queue drains, for `Retry-After`.
        retry_after_secs: u64,
    },
}

/// What the reactor needs from the application. Requests and responses
/// are raw bytes; [`ReactorService::handle`] runs on dispatcher threads,
/// never on an event loop.
pub trait ReactorService: Send + Sync + 'static {
    /// Handles one complete request (the raw bytes as read from the
    /// wire). Call `respond` any number of times with response chunks —
    /// each chunk is flushed to the peer as soon as the socket allows, so
    /// a long response can stream. Returning ends the response and closes
    /// the connection.
    fn handle(&self, peer: SocketAddr, request: Vec<u8>, respond: &mut dyn FnMut(&[u8]));

    /// Full response bytes for a request the reactor refused.
    fn refuse(&self, refusal: &Refusal) -> Vec<u8>;

    /// A connection was accepted (fires before the connection-cap
    /// check, so refused connections count too).
    fn on_connection(&self) {}

    /// A request was claimed from the admission queue after waiting
    /// `wait`; `depth` is the queue depth it left behind.
    fn on_admitted(&self, _wait: Duration, _depth: usize) {}

    /// A request (or connection) was refused.
    fn on_rejected(&self, _refusal: &Refusal) {}

    /// The admission queue depth changed.
    fn on_queue_depth(&self, _depth: usize) {}
}

/// What a finished reactor run did.
#[derive(Debug, Clone, Default)]
pub struct ReactorReport {
    /// Connections accepted.
    pub connections: u64,
    /// Requests admitted and handled by the service.
    pub requests: u64,
    /// Requests refused over capacity (429) or at the connection cap.
    pub rejected: u64,
    /// Connections reaped by the read deadline.
    pub timeouts: u64,
    /// Requests that out-waited their admission deadline.
    pub expired: u64,
}

/// Runs the reactor on `listener` until `should_stop` returns true
/// (polled continuously), then drains: accepting stops, queued requests
/// are still served, and in-flight responses get `drain_timeout` to
/// flush.
///
/// # Errors
///
/// Setup failures (epoll/eventfd creation, registration). Per-connection
/// errors are absorbed.
#[cfg(target_os = "linux")]
pub fn run<S: ReactorService, F: Fn() -> bool>(
    listener: TcpListener,
    service: Arc<S>,
    config: &ReactorConfig,
    should_stop: F,
) -> io::Result<ReactorReport> {
    engine::run(listener, service, config, should_stop)
}

/// Non-Linux stub: the reactor requires epoll.
///
/// # Errors
///
/// Always `Unsupported`.
#[cfg(not(target_os = "linux"))]
pub fn run<S: ReactorService, F: Fn() -> bool>(
    _listener: TcpListener,
    _service: Arc<S>,
    _config: &ReactorConfig,
    _should_stop: F,
) -> io::Result<ReactorReport> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "the ftqc reactor requires Linux (epoll)",
    ))
}

#[cfg(target_os = "linux")]
mod engine {
    use super::sys::{
        EpollEvent, Poller, Waker, EPOLLERR, EPOLLEXCLUSIVE, EPOLLHUP, EPOLLIN, EPOLLOUT,
        EPOLLRDHUP,
    };
    use super::{
        frame::{FrameError, FrameScan},
        queue::FairQueue,
        ReactorConfig, ReactorReport, ReactorService, Refusal,
    };
    use std::collections::HashMap;
    use std::io::{self, Read, Write};
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    /// Listener readiness in every shard's poller.
    const TOKEN_LISTENER: u64 = u64::MAX;
    /// The shard's eventfd waker.
    const TOKEN_WAKER: u64 = u64::MAX - 1;
    /// How often an idle `epoll_wait` returns to poll deadlines/shutdown.
    const TICK_MS: i32 = 25;

    /// A complete request travelling from a shard to a dispatcher.
    struct Admission {
        shard: usize,
        conn: u64,
        peer: SocketAddr,
        request: Vec<u8>,
        enqueued: Instant,
    }

    /// Response progress travelling from a dispatcher back to a shard.
    enum Completion {
        Chunk(Vec<u8>),
        Done,
    }

    /// A shard's cross-thread doorway: a mailbox of response progress
    /// from the dispatchers, plus an eventfd waker.
    struct ShardHandle {
        waker: Waker,
        mailbox: Mutex<Vec<(u64, Completion)>>,
    }

    impl ShardHandle {
        fn send(&self, conn: u64, completion: Completion) {
            self.mailbox
                .lock()
                .expect("shard mailbox lock")
                .push((conn, completion));
            self.waker.wake();
        }
    }

    #[derive(Default)]
    struct Stats {
        connections: AtomicU64,
        requests: AtomicU64,
        rejected: AtomicU64,
        timeouts: AtomicU64,
        expired: AtomicU64,
    }

    struct Shared<S> {
        service: Arc<S>,
        config: ReactorConfig,
        dispatchers: usize,
        queue: FairQueue<Admission>,
        shards: Vec<ShardHandle>,
        stop: AtomicBool,
        live: AtomicUsize,
        stats: Stats,
        /// EWMA of service time in µs, for the `Retry-After` estimate.
        ema_micros: AtomicU64,
    }

    impl<S> Shared<S> {
        /// Seconds until the queue likely has room: depth × average
        /// service time over the dispatcher count, clamped to [1, 60].
        fn retry_after_secs(&self, depth: usize) -> u64 {
            let ema = self.ema_micros.load(Ordering::Relaxed).max(1);
            let micros = (depth as u64 + 1) * ema / self.dispatchers as u64;
            micros.div_ceil(1_000_000).clamp(1, 60)
        }

        fn observe_service_micros(&self, micros: u64) {
            // ema ← ema·7/8 + sample/8; a lost race just drops one sample.
            let ema = self.ema_micros.load(Ordering::Relaxed);
            let next = ema - ema / 8 + micros / 8;
            self.ema_micros.store(next.max(1), Ordering::Relaxed);
        }
    }

    #[derive(PartialEq, Eq, Clone, Copy)]
    enum Phase {
        /// Accumulating request bytes.
        Reading,
        /// Queued or running in a dispatcher; awaiting response bytes.
        Dispatched,
        /// Flushing buffered response bytes.
        Writing,
    }

    struct Conn {
        stream: TcpStream,
        peer: SocketAddr,
        phase: Phase,
        buf: Vec<u8>,
        scan: FrameScan,
        /// The head-complete admission check runs exactly once.
        admission_checked: bool,
        deadline: Instant,
        out: Vec<u8>,
        written: usize,
        /// The handler finished: close once `out` is flushed.
        out_done: bool,
        interest: u32,
    }

    pub(super) fn run<S: ReactorService, F: Fn() -> bool>(
        listener: TcpListener,
        service: Arc<S>,
        config: &ReactorConfig,
        should_stop: F,
    ) -> io::Result<ReactorReport> {
        listener.set_nonblocking(true)?;
        let shard_count = config.resolved_shards();
        let dispatchers = config.resolved_dispatchers();

        // Create every poller and waker up front so setup failures
        // surface as a clean bind-time error instead of a dead shard.
        let mut pollers = Vec::with_capacity(shard_count);
        let mut handles = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let poller = Poller::new()?;
            let waker = Waker::new()?;
            poller.add(
                listener.as_raw_fd(),
                TOKEN_LISTENER,
                EPOLLIN | EPOLLEXCLUSIVE,
            )?;
            poller.add(waker.fd(), TOKEN_WAKER, EPOLLIN)?;
            pollers.push(poller);
            handles.push(ShardHandle {
                waker,
                mailbox: Mutex::new(Vec::new()),
            });
        }

        let shared = Arc::new(Shared {
            service,
            config: config.clone(),
            dispatchers,
            queue: FairQueue::new(config.queue_cap),
            shards: handles,
            stop: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            stats: Stats::default(),
            ema_micros: AtomicU64::new(50_000),
        });

        std::thread::scope(|scope| {
            for (index, poller) in pollers.into_iter().enumerate() {
                let shared = Arc::clone(&shared);
                let listener = &listener;
                scope.spawn(move || shard_loop(&shared, index, poller, listener));
            }
            for _ in 0..dispatchers {
                let shared = Arc::clone(&shared);
                scope.spawn(move || dispatcher_loop(&shared));
            }
            while !should_stop() {
                std::thread::sleep(Duration::from_millis(10));
            }
            shared.stop.store(true, Ordering::SeqCst);
            // Queued requests are still served; dispatchers exit once the
            // queue drains, shards once their responses flush.
            shared.queue.close();
            for shard in &shared.shards {
                shard.waker.wake();
            }
        });

        Ok(ReactorReport {
            connections: shared.stats.connections.load(Ordering::SeqCst),
            requests: shared.stats.requests.load(Ordering::SeqCst),
            rejected: shared.stats.rejected.load(Ordering::SeqCst),
            timeouts: shared.stats.timeouts.load(Ordering::SeqCst),
            expired: shared.stats.expired.load(Ordering::SeqCst),
        })
    }

    fn dispatcher_loop<S: ReactorService>(shared: &Shared<S>) {
        while let Some((job, depth)) = shared.queue.pop() {
            shared.service.on_queue_depth(depth);
            let shard = &shared.shards[job.shard];
            let wait = job.enqueued.elapsed();
            if wait > shared.config.queue_timeout {
                let refusal = Refusal::Expired {
                    retry_after_secs: shared.retry_after_secs(depth),
                };
                shard.send(job.conn, Completion::Chunk(shared.service.refuse(&refusal)));
                shard.send(job.conn, Completion::Done);
                shared.service.on_rejected(&refusal);
                shared.stats.expired.fetch_add(1, Ordering::SeqCst);
                continue;
            }
            shared.service.on_admitted(wait, depth);
            let started = Instant::now();
            let mut respond = |chunk: &[u8]| {
                if !chunk.is_empty() {
                    shard.send(job.conn, Completion::Chunk(chunk.to_vec()));
                }
            };
            shared.service.handle(job.peer, job.request, &mut respond);
            shard.send(job.conn, Completion::Done);
            shared.observe_service_micros(started.elapsed().as_micros() as u64);
            shared.stats.requests.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn shard_loop<S: ReactorService>(
        shared: &Shared<S>,
        index: usize,
        poller: Poller,
        listener: &TcpListener,
    ) {
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_id: u64 = 0;
        let mut events = vec![EpollEvent { events: 0, data: 0 }; 256];
        let mut draining = false;
        let mut drain_deadline = Instant::now();

        loop {
            if !draining && shared.stop.load(Ordering::SeqCst) {
                draining = true;
                drain_deadline = Instant::now() + shared.config.drain_timeout;
                let _ = poller.delete(listener.as_raw_fd());
                // Connections still mid-request have nothing to drain.
                let reading: Vec<u64> = conns
                    .iter()
                    .filter(|(_, c)| c.phase == Phase::Reading)
                    .map(|(&id, _)| id)
                    .collect();
                for id in reading {
                    close_conn(shared, &poller, &mut conns, id);
                }
            }
            if draining && (conns.is_empty() || Instant::now() >= drain_deadline) {
                break;
            }

            let fired = match poller.wait(&mut events, TICK_MS) {
                Ok(n) => n,
                Err(_) => break,
            };
            for event in events.iter().take(fired) {
                let token = event.data;
                let ready = event.events;
                match token {
                    TOKEN_LISTENER => {
                        if !draining {
                            accept_burst(shared, &poller, &mut conns, &mut next_id, listener);
                        }
                    }
                    TOKEN_WAKER => shared.shards[index].waker.drain(),
                    id => drive_conn(shared, index, &poller, &mut conns, id, ready),
                }
            }

            // Response chunks from the dispatchers.
            let completions = {
                let mut locked = shared.shards[index].mailbox.lock().expect("shard mailbox");
                std::mem::take(&mut *locked)
            };
            for (id, completion) in completions {
                apply_completion(shared, &poller, &mut conns, id, completion);
            }

            // Slow-loris reaper: whole-request read deadline.
            let now = Instant::now();
            let late: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| c.phase == Phase::Reading && now >= c.deadline)
                .map(|(&id, _)| id)
                .collect();
            for id in late {
                shared.stats.timeouts.fetch_add(1, Ordering::SeqCst);
                refuse_conn(shared, &poller, &mut conns, id, &Refusal::Timeout);
            }
        }

        for id in conns.keys().copied().collect::<Vec<_>>() {
            close_conn(shared, &poller, &mut conns, id);
        }
    }

    fn accept_burst<S: ReactorService>(
        shared: &Shared<S>,
        poller: &Poller,
        conns: &mut HashMap<u64, Conn>,
        next_id: &mut u64,
        listener: &TcpListener,
    ) {
        loop {
            let (stream, peer) = match listener.accept() {
                Ok(accepted) => accepted,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // transient (e.g. EMFILE); retry next tick
            };
            shared.stats.connections.fetch_add(1, Ordering::SeqCst);
            shared.service.on_connection();
            if shared.live.load(Ordering::SeqCst) >= shared.config.max_connections {
                let refusal = Refusal::ConnectionLimit {
                    limit: shared.config.max_connections,
                };
                // Best-effort refusal on a fresh socket: one non-blocking
                // write, never stalling the event loop. Then half-close and
                // drain what the peer already sent (at most 64 KiB, so a
                // peer that keeps sending cannot hold the loop): closing a
                // socket with unread input sends an RST, which can discard
                // the 503 before the peer reads it.
                let mut stream = stream;
                let _ = stream.set_nonblocking(true);
                let _ = stream.write(&shared.service.refuse(&refusal));
                let _ = stream.shutdown(std::net::Shutdown::Write);
                let mut discard = [0u8; 4096];
                for _ in 0..16 {
                    if !matches!(stream.read(&mut discard), Ok(n) if n > 0) {
                        break;
                    }
                }
                shared.service.on_rejected(&refusal);
                shared.stats.rejected.fetch_add(1, Ordering::SeqCst);
                continue;
            }
            shared.live.fetch_add(1, Ordering::SeqCst);
            register_conn(shared, poller, conns, next_id, stream, peer);
        }
    }

    fn register_conn<S: ReactorService>(
        shared: &Shared<S>,
        poller: &Poller,
        conns: &mut HashMap<u64, Conn>,
        next_id: &mut u64,
        stream: TcpStream,
        peer: SocketAddr,
    ) {
        // The fcntl path, not std's setter: accepted sockets must be
        // non-blocking before they enter the event loop.
        if super::sys::set_nonblocking(stream.as_raw_fd()).is_err() {
            shared.live.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let _ = stream.set_nodelay(true);
        let id = *next_id;
        *next_id += 1;
        let interest = EPOLLIN | EPOLLRDHUP;
        if poller.add(stream.as_raw_fd(), id, interest).is_err() {
            shared.live.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        conns.insert(
            id,
            Conn {
                stream,
                peer,
                phase: Phase::Reading,
                buf: Vec::new(),
                scan: FrameScan::new(),
                admission_checked: false,
                deadline: Instant::now() + shared.config.read_timeout,
                out: Vec::new(),
                written: 0,
                out_done: false,
                interest,
            },
        );
    }

    fn close_conn<S>(shared: &Shared<S>, poller: &Poller, conns: &mut HashMap<u64, Conn>, id: u64) {
        if let Some(conn) = conns.remove(&id) {
            let _ = poller.delete(conn.stream.as_raw_fd());
            shared.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn set_interest(poller: &Poller, conn: &mut Conn, id: u64, events: u32) {
        if conn.interest != events {
            conn.interest = events;
            let _ = poller.modify(conn.stream.as_raw_fd(), id, events);
        }
    }

    /// Queues a refusal response and switches the connection to writing.
    fn refuse_conn<S: ReactorService>(
        shared: &Shared<S>,
        poller: &Poller,
        conns: &mut HashMap<u64, Conn>,
        id: u64,
        refusal: &Refusal,
    ) {
        let Some(conn) = conns.get_mut(&id) else {
            return;
        };
        conn.out.extend_from_slice(&shared.service.refuse(refusal));
        conn.out_done = true;
        conn.phase = Phase::Writing;
        shared.service.on_rejected(refusal);
        flush_conn(shared, poller, conns, id);
    }

    fn drive_conn<S: ReactorService>(
        shared: &Shared<S>,
        index: usize,
        poller: &Poller,
        conns: &mut HashMap<u64, Conn>,
        id: u64,
        ready: u32,
    ) {
        let Some(conn) = conns.get_mut(&id) else {
            return;
        };
        if ready & (EPOLLERR | EPOLLHUP) != 0 {
            close_conn(shared, poller, conns, id);
            return;
        }
        match conn.phase {
            Phase::Reading => {
                if ready & (EPOLLIN | EPOLLRDHUP) != 0 {
                    read_conn(shared, index, poller, conns, id);
                }
            }
            Phase::Dispatched => {}
            Phase::Writing => {
                if ready & EPOLLOUT != 0 {
                    flush_conn(shared, poller, conns, id);
                }
            }
        }
    }

    /// What one drain of a readable socket decided.
    enum ReadOutcome {
        /// Socket drained mid-request: keep waiting for bytes.
        Pending,
        /// Peer gone (clean close, truncation, or error) — nothing owed.
        Close,
        /// The request can never be served; answer with this refusal.
        Refuse(Refusal),
        /// A complete request is ready for admission.
        Dispatch { request: Vec<u8> },
    }

    /// Reads until the socket would block, advancing the frame scan.
    /// Split from [`read_conn`] so the `&mut Conn` borrow ends before the
    /// outcome mutates the connection table.
    fn pump_read<S: ReactorService>(shared: &Shared<S>, conn: &mut Conn) -> ReadOutcome {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut chunk) {
                // Peer closed: an idle connection going away or a request
                // truncated mid-message — nothing to answer either way.
                Ok(0) => return ReadOutcome::Close,
                Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadOutcome::Pending,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return ReadOutcome::Close,
            }
            if let Err(error) = conn.scan.advance(
                &conn.buf,
                shared.config.head_limit,
                shared.config.body_limit,
            ) {
                return ReadOutcome::Refuse(match error {
                    FrameError::HeadTooLarge { limit } => Refusal::HeadTooLarge { limit },
                    FrameError::BodyTooLarge { length, limit } => {
                        Refusal::BodyTooLarge { length, limit }
                    }
                });
            }
            // Backpressure before the body: the moment the head is in,
            // refuse over-capacity requests without reading further.
            if conn.scan.head_complete() && !conn.admission_checked {
                conn.admission_checked = true;
                let depth = shared.queue.depth();
                if depth >= shared.queue.capacity() {
                    return ReadOutcome::Refuse(Refusal::OverCapacity {
                        queue_depth: depth,
                        retry_after_secs: shared.retry_after_secs(depth),
                    });
                }
            }
            if let Some(total) = conn.scan.frame_len() {
                if conn.buf.len() >= total {
                    let mut request = std::mem::take(&mut conn.buf);
                    request.truncate(total);
                    return ReadOutcome::Dispatch { request };
                }
            }
        }
    }

    fn read_conn<S: ReactorService>(
        shared: &Shared<S>,
        index: usize,
        poller: &Poller,
        conns: &mut HashMap<u64, Conn>,
        id: u64,
    ) {
        let (outcome, peer) = {
            let conn = conns.get_mut(&id).expect("caller checked presence");
            (pump_read(shared, conn), conn.peer)
        };
        match outcome {
            ReadOutcome::Pending => {}
            ReadOutcome::Close => close_conn(shared, poller, conns, id),
            ReadOutcome::Refuse(refusal) => {
                if matches!(refusal, Refusal::OverCapacity { .. }) {
                    shared.stats.rejected.fetch_add(1, Ordering::SeqCst);
                }
                refuse_conn(shared, poller, conns, id, &refusal);
            }
            ReadOutcome::Dispatch { request } => {
                let admission = Admission {
                    shard: index,
                    conn: id,
                    peer,
                    request,
                    enqueued: Instant::now(),
                };
                match shared.queue.push(peer.ip(), admission) {
                    Ok(depth) => {
                        let conn = conns.get_mut(&id).expect("caller checked presence");
                        conn.phase = Phase::Dispatched;
                        set_interest(poller, conn, id, 0);
                        shared.service.on_queue_depth(depth);
                    }
                    Err(depth) => {
                        shared.stats.rejected.fetch_add(1, Ordering::SeqCst);
                        let refusal = Refusal::OverCapacity {
                            queue_depth: depth,
                            retry_after_secs: shared.retry_after_secs(depth),
                        };
                        refuse_conn(shared, poller, conns, id, &refusal);
                    }
                }
            }
        }
    }

    fn apply_completion<S: ReactorService>(
        shared: &Shared<S>,
        poller: &Poller,
        conns: &mut HashMap<u64, Conn>,
        id: u64,
        completion: Completion,
    ) {
        let Some(conn) = conns.get_mut(&id) else {
            return; // connection died while its request was in flight
        };
        match completion {
            Completion::Chunk(bytes) => conn.out.extend_from_slice(&bytes),
            Completion::Done => conn.out_done = true,
        }
        conn.phase = Phase::Writing;
        flush_conn(shared, poller, conns, id);
    }

    /// Writes as much buffered response as the socket takes; closes once
    /// the handler is done and the buffer is flushed.
    fn flush_conn<S>(shared: &Shared<S>, poller: &Poller, conns: &mut HashMap<u64, Conn>, id: u64) {
        let conn = conns.get_mut(&id).expect("caller checked presence");
        while conn.written < conn.out.len() {
            match conn.stream.write(&conn.out[conn.written..]) {
                Ok(0) => {
                    close_conn(shared, poller, conns, id);
                    return;
                }
                Ok(n) => conn.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    set_interest(poller, conn, id, EPOLLOUT);
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    close_conn(shared, poller, conns, id);
                    return;
                }
            }
        }
        if conn.out_done {
            let _ = conn.stream.flush();
            close_conn(shared, poller, conns, id);
        } else {
            // Drained but the handler is still producing: wait quietly for
            // the next chunk instead of spinning on a writable socket.
            set_interest(poller, conn, id, 0);
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::thread::JoinHandle;
    use std::time::Instant;

    /// A service that answers with its request's body, after an optional
    /// artificial delay — enough HTTP for a loopback client to parse.
    struct EchoService {
        delay: Duration,
        handled: AtomicU64,
    }

    impl EchoService {
        fn new(delay: Duration) -> EchoService {
            EchoService {
                delay,
                handled: AtomicU64::new(0),
            }
        }
    }

    fn simple_response(status: u16, reason: &str, extra: &str, body: &str) -> Vec<u8> {
        format!(
            "HTTP/1.1 {status} {reason}\r\ncontent-length: {}\r\n{extra}connection: close\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    impl ReactorService for EchoService {
        fn handle(&self, _peer: SocketAddr, request: Vec<u8>, respond: &mut dyn FnMut(&[u8])) {
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
            self.handled.fetch_add(1, Ordering::SeqCst);
            let body_at = request
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .map_or(request.len(), |p| p + 4);
            let body = String::from_utf8_lossy(&request[body_at..]).to_string();
            respond(&simple_response(200, "OK", "", &body));
        }

        fn refuse(&self, refusal: &Refusal) -> Vec<u8> {
            match refusal {
                Refusal::OverCapacity {
                    retry_after_secs, ..
                } => simple_response(
                    429,
                    "Too Many Requests",
                    &format!("retry-after: {retry_after_secs}\r\n"),
                    "busy",
                ),
                Refusal::Timeout => simple_response(408, "Request Timeout", "", "late"),
                _ => simple_response(503, "Service Unavailable", "", "no"),
            }
        }
    }

    struct Running {
        addr: SocketAddr,
        stop: Arc<AtomicBool>,
        thread: JoinHandle<io::Result<ReactorReport>>,
    }

    impl Running {
        fn start(service: Arc<EchoService>, config: ReactorConfig) -> Running {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let stop = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&stop);
            let thread = std::thread::spawn(move || {
                run(listener, service, &config, || flag.load(Ordering::SeqCst))
            });
            Running { addr, stop, thread }
        }

        fn finish(self) -> ReactorReport {
            self.stop.store(true, Ordering::SeqCst);
            self.thread.join().unwrap().unwrap()
        }
    }

    fn roundtrip(addr: SocketAddr, body: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let request = format!(
            "POST /echo HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn serves_concurrent_connections_across_shards() {
        let service = Arc::new(EchoService::new(Duration::ZERO));
        let server = Running::start(
            Arc::clone(&service),
            ReactorConfig {
                shards: 3,
                dispatchers: 4,
                ..ReactorConfig::default()
            },
        );
        let addr = server.addr;
        let clients: Vec<_> = (0..32)
            .map(|i| {
                std::thread::spawn(move || {
                    let body = format!("payload-{i}");
                    let response = roundtrip(addr, &body);
                    assert!(response.starts_with("HTTP/1.1 200"), "got {response}");
                    assert!(response.ends_with(&body), "got {response}");
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        let report = server.finish();
        assert_eq!(report.requests, 32);
        assert_eq!(report.connections, 32);
        assert_eq!(report.rejected, 0);
    }

    #[test]
    fn refuses_over_queue_capacity_before_the_body() {
        // One slow dispatcher, queue of one: the first request runs, the
        // second queues, and a third peer is refused at head-complete
        // time even though its declared body never arrives.
        let service = Arc::new(EchoService::new(Duration::from_millis(800)));
        let server = Running::start(
            Arc::clone(&service),
            ReactorConfig {
                shards: 1,
                dispatchers: 1,
                queue_cap: 1,
                ..ReactorConfig::default()
            },
        );
        let addr = server.addr;
        // Stagger the two in-flight requests: the first must be claimed
        // by the dispatcher (emptying the queue) before the second
        // arrives to occupy the single queue slot — otherwise the 429
        // lands on the second request instead of the probe below.
        let busy: Vec<_> = (0..2)
            .map(|i| {
                let t = std::thread::spawn(move || {
                    let response = roundtrip(addr, &format!("slow-{i}"));
                    assert!(response.starts_with("HTTP/1.1 200"), "got {response}");
                });
                std::thread::sleep(Duration::from_millis(250));
                t
            })
            .collect();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // Head only — the 10-byte body is never sent.
        stream
            .write_all(b"POST /echo HTTP/1.1\r\nhost: t\r\ncontent-length: 10\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 429"), "got {response}");
        assert!(response.contains("retry-after: "), "got {response}");
        drop(stream);

        for c in busy {
            c.join().unwrap();
        }
        let report = server.finish();
        assert_eq!(report.requests, 2);
        assert_eq!(report.rejected, 1);
    }

    #[test]
    fn slow_loris_is_reaped_by_the_read_deadline() {
        let service = Arc::new(EchoService::new(Duration::ZERO));
        let server = Running::start(
            Arc::clone(&service),
            ReactorConfig {
                shards: 1,
                dispatchers: 1,
                read_timeout: Duration::from_millis(300),
                ..ReactorConfig::default()
            },
        );
        let addr = server.addr;
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // Dribble a byte at a time; the whole-request deadline fires even
        // though no single gap looks idle forever.
        let started = Instant::now();
        let mut response = Vec::new();
        for byte in b"GET /echo HT" {
            if stream.write_all(&[*byte]).is_err() {
                break; // reaped mid-dribble
            }
            std::thread::sleep(Duration::from_millis(100));
            // Try a non-blocking-ish peek for the refusal.
            stream
                .set_read_timeout(Some(Duration::from_millis(10)))
                .unwrap();
            let mut chunk = [0u8; 1024];
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    response.extend_from_slice(&chunk[..n]);
                    if response.windows(4).any(|w| w == b"\r\n\r\n") {
                        break;
                    }
                }
                Err(_) => {}
            }
            if started.elapsed() > Duration::from_secs(3) {
                panic!("server never reaped the slow-loris connection");
            }
        }
        let response = String::from_utf8_lossy(&response);
        assert!(
            response.starts_with("HTTP/1.1 408") || response.is_empty(),
            "got {response}"
        );
        // The server still serves healthy clients afterwards.
        let ok = roundtrip(addr, "after");
        assert!(ok.starts_with("HTTP/1.1 200"), "got {ok}");
        let report = server.finish();
        assert_eq!(report.timeouts, 1);
    }

    #[test]
    fn truncated_request_frees_its_slot() {
        let service = Arc::new(EchoService::new(Duration::ZERO));
        let server = Running::start(
            Arc::clone(&service),
            ReactorConfig {
                shards: 1,
                dispatchers: 1,
                ..ReactorConfig::default()
            },
        );
        let addr = server.addr;
        for _ in 0..3 {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .write_all(b"POST /echo HTTP/1.1\r\ncontent-length: 50\r\n\r\npartial")
                .unwrap();
            drop(stream); // peer dies mid-body
        }
        std::thread::sleep(Duration::from_millis(200));
        let ok = roundtrip(addr, "healthy");
        assert!(ok.starts_with("HTTP/1.1 200"), "got {ok}");
        let report = server.finish();
        assert_eq!(report.requests, 1, "only the healthy request ran");
    }

    #[test]
    fn drain_finishes_in_flight_requests() {
        let service = Arc::new(EchoService::new(Duration::from_millis(300)));
        let server = Running::start(
            Arc::clone(&service),
            ReactorConfig {
                shards: 2,
                dispatchers: 2,
                ..ReactorConfig::default()
            },
        );
        let addr = server.addr;
        let client = std::thread::spawn(move || roundtrip(addr, "draining"));
        std::thread::sleep(Duration::from_millis(100));
        let report = server.finish(); // stop fires while the request runs
        let response = client.join().unwrap();
        assert!(response.starts_with("HTTP/1.1 200"), "got {response}");
        assert!(response.ends_with("draining"), "got {response}");
        assert_eq!(report.requests, 1);
    }
}
