//! Transports: newline-delimited JSON over a pipe or a TCP socket.
//!
//! Both transports speak the same protocol (see [`crate::protocol`]): one
//! JSON object per line in, one JSON object per line out, in order. Both
//! also run the same per-session state machine, [`Session`]: line
//! framing under the `max_line_bytes` cap, a bounded inbox, at most one
//! request in flight (pool work, inline job control, or a polled job
//! op), and a bounded output buffer. Only the byte movement differs:
//!
//! * [`serve_pipe`] drives one session over any `BufRead`/`Write` pair
//!   (stdin/stdout in the CLI, in-memory buffers in tests) with blocking
//!   reads and writes;
//! * [`TcpServer`] is a readiness-driven event loop: one reactor thread
//!   owns a nonblocking listener and every connection, multiplexed by
//!   `poll(2)` (via [`crate::sys`], std-only), with the bounded
//!   [`ServePool`] behind it for compute. No thread is ever parked per
//!   connection, so a connection storm or a crowd of slow-loris clients
//!   costs file descriptors and bounded buffers — never threads.
//!
//! Transport code never computes: it parses, submits, and forwards. The
//! pool's bounded queue is the only admission control for *work*; the
//! reactor adds its own hygiene for *connections* ([`ServerConfig`]):
//!
//! * admission control — a hard connection cap; clients past it get one
//!   `overloaded` line (through the same bounded write path as any other
//!   response) and a close, and accepts are batch-limited per tick so an
//!   accept storm cannot starve live connections;
//! * slow-client defense — idle and write-stall deadlines enforced by a
//!   lazy timer wheel ([`crate::timer`]); a client that stops reading its
//!   responses is shed the moment its bounded write buffer would
//!   overflow, never allowed to wedge the reactor;
//! * [`TcpServer::stop`] tears the whole loop down promptly: the reactor
//!   observes the flag within one tick, closes every connection, and
//!   joins, even with clients parked mid-connection.
//!
//! Pool workers hand finished responses back through a reply closure: a
//! channel the pipe driver waits on, or (TCP) a completion queue plus a
//! loopback wake socket, so results are flushed promptly instead of
//! waiting out a poll timeout.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use crate::failpoint;
use crate::pool::{Reply, ServePool, SubmitError};
use crate::protocol::{parse_request, render_job_event, ErrorKind, Outcome, Request, Response};
use crate::sys::{self, PollFd};
use crate::timer::TimerWheel;

/// Complete-but-undispatched request lines buffered per session before
/// the transport stops reading (backpressure by unread bytes, bounded by
/// the kernel receive buffer).
const INBOX_MAX: usize = 128;

/// Bytes handed to a session per read, on either transport.
const READ_CHUNK: usize = 4096;

/// Socket reads per connection per tick; bounds one loud client's share
/// of a reactor tick at `READ_ROUNDS × READ_CHUNK` bytes.
const READ_ROUNDS: usize = 16;

/// How long `optimize-result` with `"wait":true` may stay pending on a
/// session before answering with the job's current state (mirrors the
/// pool's blocking-path timeout).
const RESULT_WAIT_TIMEOUT: Duration = Duration::from_secs(3600);

/// The listen backlog re-issued on the bound socket (std's `bind` uses
/// 128; the kernel clamps this to `somaxconn`). The reactor stops polling
/// the listener once it holds its admission slack, so a connection storm
/// queues in the kernel; with a short queue the overflow is completed by
/// SYN cookies, and such connections were seen to lose their first
/// segment.
const LISTEN_BACKLOG: i32 = 4096;

/// Connection-hygiene knobs for the TCP transport.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Maximum simultaneous sessions; connections beyond it are answered
    /// with one `overloaded` error line and closed (clamped to ≥ 1).
    pub max_connections: usize,
    /// A session whose client sends nothing for this long is closed with
    /// an in-band `deadline-exceeded` notice.
    pub idle_timeout: Duration,
    /// The reactor tick: the upper bound on how long the loop sleeps in
    /// `poll(2)` when nothing is ready (and therefore on shutdown and
    /// timer latency).
    pub poll_interval: Duration,
    /// Write-stall deadline: a client that stops reading its responses
    /// for this long while output is pending is dropped.
    pub write_timeout: Duration,
    /// Maximum request-line length in bytes; longer lines error the
    /// session (clamped to ≥ 1024).
    pub max_line_bytes: usize,
    /// Bound on one connection's pending output in bytes; a client whose
    /// buffered responses would exceed it is shed (clamped to ≥ 1024).
    /// Total reactor write memory is therefore bounded by
    /// `max_connections × write_buffer_cap` plus admission slack.
    pub write_buffer_cap: usize,
    /// Accepts per reactor tick (clamped to ≥ 1): rate-limits admission
    /// under a connection storm so live sessions keep being served.
    pub accept_burst: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            idle_timeout: Duration::from_secs(300),
            poll_interval: Duration::from_millis(50),
            write_timeout: Duration::from_secs(10),
            max_line_bytes: 64 * 1024,
            write_buffer_cap: 256 * 1024,
            accept_burst: 64,
        }
    }
}

/// Counters for one pipe/socket session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Non-blank lines read.
    pub requests: u64,
    /// Responses that carried an error outcome (parse errors included).
    pub errors: u64,
}

/// Serve one newline-delimited JSON session: read a request per line from
/// `reader`, write exactly one response line to `writer`, until EOF.
///
/// Blank lines are skipped; unparseable lines produce a `parse` error
/// response instead of killing the session, so one bad client line never
/// costs the stream. The session is the TCP transport's [`Session`] under
/// the default [`ServerConfig`] limits: a line longer than
/// `max_line_bytes` is answered with a `parse` error and ends the
/// session, exactly as on a socket. Requests run one at a time, in order.
///
/// # Errors
///
/// Transport failures (read/write/flush) and a session dropped by the
/// `session.read` failpoint abort the session; protocol and engine
/// errors are reported in-band.
pub fn serve_pipe<R: BufRead, W: Write>(
    pool: &ServePool,
    mut reader: R,
    mut writer: W,
) -> io::Result<SessionStats> {
    let config = ServerConfig::default();
    let mut session = Session::new(&config);
    let (tx, rx) = mpsc::channel::<Response>();
    loop {
        if session.active.is_none() && session.inbox.is_empty() && session.wants_input() {
            let chunk = match reader.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            let n = chunk.len().min(READ_CHUNK);
            if n == 0 {
                session.end_of_input();
            } else {
                session.feed(&chunk[..n]);
            }
            reader.consume(n);
        }
        session.dispatch(pool, &mut || -> Reply {
            let tx = tx.clone();
            Box::new(move |response| {
                let _ = tx.send(response);
            })
        });
        session.poll_active(pool);
        if session.active.is_some() {
            // One reactor tick: a pool answer ends the wait early; a job
            // op is polled again on the next round.
            if let Ok(response) = rx.recv_timeout(config.poll_interval) {
                session.complete(response);
            }
        }
        if !session.out.is_empty() {
            let (head, tail) = session.out.as_slices();
            writer.write_all(head)?;
            writer.write_all(tail)?;
            writer.flush()?;
            session.out.clear();
        }
        if session.dead {
            return Err(io::Error::other("session dropped"));
        }
        if session.finished() {
            return Ok(session.stats);
        }
    }
}

/// Transport-layer counters, shared between the reactor (sole writer)
/// and observers (`stats` responses via
/// [`ServePool::set_transport_stats`], [`TcpServer::live_sessions`],
/// tests).
#[derive(Debug, Default)]
pub struct TransportStats {
    accepted: AtomicU64,
    active: AtomicU64,
    shed: AtomicU64,
    timed_out: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    write_buffer_sheds: AtomicU64,
    write_buffered_peak: AtomicU64,
}

impl TransportStats {
    /// A consistent-enough copy of every counter (individually relaxed
    /// loads; the reactor is the only writer).
    pub fn snapshot(&self) -> TransportSnapshot {
        TransportSnapshot {
            connections_accepted: self.accepted.load(Ordering::Relaxed),
            connections_active: self.active.load(Ordering::Relaxed),
            connections_shed: self.shed.load(Ordering::Relaxed),
            connections_timed_out: self.timed_out.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            write_buffer_sheds: self.write_buffer_sheds.load(Ordering::Relaxed),
            write_buffered_peak: self.write_buffered_peak.load(Ordering::Relaxed),
        }
    }
}

/// One point-in-time read of [`TransportStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportSnapshot {
    /// Connections accepted from the listener (admitted or shed).
    pub connections_accepted: u64,
    /// Connections currently owned by the reactor.
    pub connections_active: u64,
    /// Connections refused by admission control (cap reached).
    pub connections_shed: u64,
    /// Connections closed by a deadline: idle or write-stall.
    pub connections_timed_out: u64,
    /// Payload bytes read from client sockets.
    pub bytes_read: u64,
    /// Payload bytes written to client sockets.
    pub bytes_written: u64,
    /// Connections dropped because buffering one more response would
    /// exceed `write_buffer_cap` (the client stopped reading).
    pub write_buffer_sheds: u64,
    /// High-water mark of total pending output across all connections,
    /// in bytes — the reactor's write-memory footprint.
    pub write_buffered_peak: u64,
}

/// A request a session is waiting on (at most one at a time, which keeps
/// responses in request order with no reorder buffer).
enum Active {
    /// Submitted to the worker pool; resolved by [`Session::complete`].
    Pool,
    /// An `optimize-events` stream: drained nonblockingly every tick.
    Events { id: Option<u64>, job: u64, cursor: usize, follow: bool },
    /// An `optimize-result` with `"wait":true`: the job's terminal state
    /// is polled every tick instead of parking a thread.
    ResultWait { id: Option<u64>, job: u64, started: Instant },
}

/// The transport-independent half of a session, shared by the pipe
/// driver and the TCP reactor. Bytes are framed into lines across
/// arbitrary read splits, complete lines queue in a bounded inbox, at
/// most one request is in flight, and every outbound line goes through
/// one bounded output buffer that the transport drains. Nothing here
/// blocks or touches a socket.
struct Session {
    /// Bytes read but not yet framed into a line.
    rbuf: Vec<u8>,
    /// Prefix of `rbuf` already scanned for a newline.
    scanned: usize,
    /// Complete lines awaiting dispatch (bounded by [`INBOX_MAX`]).
    inbox: VecDeque<String>,
    /// A line outgrew `max_line`: input has stopped, and once the lines
    /// framed before it are answered the session answers `parse` and
    /// closes.
    overlong: bool,
    /// Pending output (bounded by `out_cap`).
    out: VecDeque<u8>,
    active: Option<Active>,
    /// No more input will arrive; serve what was framed, then close.
    eof: bool,
    /// A final notice is queued; close once `out` drains.
    closing: bool,
    /// Condemned; dropped without further output.
    dead: bool,
    /// `dead` because one more line would have crossed `out_cap`.
    overflowed: bool,
    max_line: usize,
    out_cap: usize,
    stats: SessionStats,
}

impl Session {
    fn new(config: &ServerConfig) -> Session {
        Session {
            rbuf: Vec::new(),
            scanned: 0,
            inbox: VecDeque::new(),
            overlong: false,
            out: VecDeque::new(),
            active: None,
            eof: false,
            closing: false,
            dead: false,
            overflowed: false,
            max_line: config.max_line_bytes.max(1024),
            out_cap: config.write_buffer_cap.max(1024),
            stats: SessionStats::default(),
        }
    }

    /// Whether the transport should read more input for this session.
    fn wants_input(&self) -> bool {
        !self.eof && !self.closing && !self.dead && self.inbox.len() < INBOX_MAX
    }

    /// Whether anything is queued or in flight (an idle deadline spares a
    /// busy session).
    fn busy(&self) -> bool {
        self.active.is_some() || self.overlong || !self.inbox.is_empty() || !self.out.is_empty()
    }

    /// Whether this session has nothing left to do and can be closed.
    fn finished(&self) -> bool {
        (self.closing || self.eof) && !self.busy()
    }

    /// Frame `bytes` into complete lines; scans only bytes not seen
    /// before, so a byte-at-a-time writer costs no rescans. A line longer
    /// than `max_line` (framed or still open) stops the input, whatever
    /// the read split.
    fn feed(&mut self, bytes: &[u8]) {
        self.rbuf.extend_from_slice(bytes);
        while let Some(at) = self.rbuf[self.scanned..].iter().position(|&b| b == b'\n') {
            let nl = self.scanned + at;
            if nl > self.max_line {
                break; // over the cap whatever the read split: see below
            }
            let line: Vec<u8> = self.rbuf.drain(..=nl).collect();
            self.scanned = 0;
            self.inbox.push_back(String::from_utf8_lossy(&line[..nl]).into_owned());
        }
        self.scanned = self.rbuf.len();
        if self.rbuf.len() > self.max_line {
            self.rbuf = Vec::new();
            self.scanned = 0;
            self.overlong = true;
            self.eof = true;
        }
    }

    /// The input ended; a final line without a newline is still a request.
    fn end_of_input(&mut self) {
        if !self.rbuf.is_empty() {
            let line = std::mem::take(&mut self.rbuf);
            self.inbox.push_back(String::from_utf8_lossy(&line).into_owned());
        }
        self.scanned = 0;
        self.eof = true;
    }

    /// Queue one rendered line (plus newline); a line that does not fit
    /// condemns the session: the client is not draining its responses,
    /// and the bound is the memory contract.
    fn enqueue_line(&mut self, line: &str) {
        if self.dead {
            return;
        }
        if self.out.len() + line.len() + 1 > self.out_cap {
            self.dead = true;
            self.overflowed = true;
            return;
        }
        self.out.extend(line.as_bytes());
        self.out.push_back(b'\n');
    }

    fn enqueue(&mut self, response: &Response) {
        if !response.is_ok() {
            self.stats.errors += 1;
        }
        self.enqueue_line(&response.render());
    }

    /// Pop and route inbox lines until something is in flight (or the
    /// inbox is empty). Job control answers inline; pool work is
    /// submitted with a reply closure from `reply`.
    fn dispatch(&mut self, pool: &ServePool, reply: &mut dyn FnMut() -> Reply) {
        while self.active.is_none() && !self.dead && !self.closing {
            let Some(line) = self.inbox.pop_front() else {
                if self.overlong {
                    self.overlong = false;
                    self.stats.requests += 1;
                    self.closing = true;
                    let message = format!(
                        "request line exceeds {} bytes without a newline; closing session",
                        self.max_line
                    );
                    self.enqueue(&Response::error(None, "?", ErrorKind::Parse, message));
                }
                return;
            };
            if line.trim().is_empty() {
                continue;
            }
            if failpoint::hit("session.read").is_err() {
                self.dead = true;
                return;
            }
            self.stats.requests += 1;
            let env = match parse_request(&line) {
                Ok(env) => env,
                Err(message) => {
                    self.enqueue(&Response::error(None, "?", ErrorKind::Parse, message));
                    continue;
                }
            };
            match env.request {
                Request::OptimizeEvents { job, since, follow } => {
                    self.active = Some(Active::Events {
                        id: env.id,
                        job,
                        cursor: since as usize,
                        follow,
                    });
                }
                Request::OptimizeResult { job, wait: true } => {
                    self.active =
                        Some(Active::ResultWait { id: env.id, job, started: Instant::now() });
                }
                // Job control is registry lookups; answering inline keeps
                // it independent of a full query queue.
                Request::OptimizeSubmit { .. }
                | Request::OptimizeStatus { .. }
                | Request::OptimizeCancel { .. }
                | Request::OptimizeResult { .. } => self.enqueue(&pool.run(env)),
                _ => {
                    let id = env.id;
                    let op = env.request.op_name();
                    let (kind, message) = match pool.submit_with(env, reply()) {
                        Ok(()) => {
                            self.active = Some(Active::Pool);
                            continue;
                        }
                        Err(SubmitError::Overloaded { depth }) => (
                            ErrorKind::Overloaded,
                            format!("request queue full (depth {depth}); retry later"),
                        ),
                        Err(SubmitError::ShuttingDown) => (
                            ErrorKind::Draining,
                            "pool is draining; request not accepted".to_string(),
                        ),
                    };
                    self.enqueue(&Response::error(id, op, kind, message));
                }
            }
        }
    }

    /// The pool answered the in-flight request.
    fn complete(&mut self, response: Response) {
        if matches!(self.active, Some(Active::Pool)) {
            self.active = None;
        }
        self.enqueue(&response);
    }

    /// Advance a pending job op without blocking: queue whatever
    /// `optimize-events` has buffered, or check whether a waited-on job
    /// went terminal. Re-arms itself until done.
    fn poll_active(&mut self, pool: &ServePool) {
        let (id, job, op) = match self.active {
            Some(Active::Events { id, job, .. }) => (id, job, "optimize-events"),
            Some(Active::ResultWait { id, job, .. }) => (id, job, "optimize-result"),
            Some(Active::Pool) | None => return,
        };
        let Some(active) = self.active.take() else { return };
        let Some(runner) = pool.jobs() else {
            let message = "job subsystem disabled (start serve with --max-jobs >= 1)";
            self.enqueue(&Response::error(id, op, ErrorKind::BadRequest, message.to_string()));
            return;
        };
        let job_reply = |outcome| Response {
            id,
            op,
            outcome,
            tier: None,
            cached: false,
            compute_micros: 0,
            queue_micros: 0,
        };
        let unknown =
            || Response::error(id, op, ErrorKind::BadRequest, format!("unknown job {job}"));
        match active {
            Active::Events { cursor, follow, .. } => {
                let Some((events, terminal)) =
                    runner.events(job, cursor, false, Duration::ZERO)
                else {
                    self.enqueue(&unknown());
                    return;
                };
                let mut sent = 0;
                for event in &events {
                    let line = render_job_event(id, job, event);
                    // A long backlog is paced by the output bound, not
                    // shed: what does not fit goes out after a flush.
                    if !self.out.is_empty() && self.out.len() + line.len() + 1 > self.out_cap {
                        break;
                    }
                    self.enqueue_line(&line);
                    if self.dead {
                        return;
                    }
                    sent += 1;
                }
                if sent < events.len() || (follow && !terminal) {
                    let cursor = cursor + sent;
                    self.active = Some(Active::Events { id, job, cursor, follow });
                } else if let Some(report) = runner.status(job) {
                    self.enqueue(&job_reply(Outcome::job_status(&report)));
                }
            }
            Active::ResultWait { started, .. } => {
                let Some(report) = runner.status(job) else {
                    self.enqueue(&unknown());
                    return;
                };
                let terminal = matches!(report.state, "completed" | "cancelled" | "failed");
                if terminal || started.elapsed() >= RESULT_WAIT_TIMEOUT {
                    self.enqueue(&job_reply(Outcome::job_result(&report)));
                } else {
                    self.active = Some(Active::ResultWait { id, job, started });
                }
            }
            Active::Pool => unreachable!("pool requests are resolved by complete()"),
        }
    }
}

/// The pool-worker → reactor completion channel: finished responses plus
/// a loopback wake byte so `poll(2)` returns promptly instead of waiting
/// out its tick.
struct Completions {
    queue: Mutex<Vec<(u64, Response)>>,
    wake: TcpStream,
}

impl Completions {
    /// Called on a pool worker thread; must stay cheap and non-blocking.
    fn push(&self, token: u64, response: Response) {
        if let Ok(mut queue) = self.queue.lock() {
            queue.push((token, response));
        }
        // One byte per completion; if the loopback buffer is full a wake
        // byte is already pending, so dropping this one loses nothing.
        let _ = (&self.wake).write(&[1u8]);
    }
}

/// A TCP front end over a shared [`ServePool`].
///
/// One reactor thread owns the nonblocking listener and every connection
/// state machine, multiplexed by `poll(2)`; pool workers do the compute
/// and hand responses back through a completion queue. [`TcpServer::stop`]
/// flips a flag and wakes the loop, so teardown completes within about
/// one tick even with clients parked mid-connection.
#[derive(Debug)]
pub struct TcpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<TransportStats>,
    /// Connected to the reactor's wake socket; `stop` writes one byte so
    /// the loop notices the flag without waiting out a poll tick.
    wake: TcpStream,
    reactor_thread: Option<std::thread::JoinHandle<io::Result<()>>>,
}

impl TcpServer {
    /// Bind `addr` and start the reactor in the background with default
    /// connection hygiene.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration failures.
    pub fn start(pool: Arc<ServePool>, addr: &str) -> io::Result<TcpServer> {
        Self::start_with(pool, addr, ServerConfig::default())
    }

    /// Bind `addr` and start the reactor in the background.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration failures.
    pub fn start_with(
        pool: Arc<ServePool>,
        addr: &str,
        config: ServerConfig,
    ) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        sys::listen_backlog(raw_fd(&listener), LISTEN_BACKLOG)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        // The self-wake pair: a loopback connection whose read end sits in
        // the reactor's poll set. Workers and `stop` write a byte to make
        // a parked `poll(2)` return immediately.
        let wake_listener = TcpListener::bind("127.0.0.1:0")?;
        let wake_tx = TcpStream::connect(wake_listener.local_addr()?)?;
        let (wake_rx, _) = wake_listener.accept()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let _ = wake_tx.set_nodelay(true);
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(TransportStats::default());
        let _ = pool.set_transport_stats(Arc::clone(&stats));
        let completions =
            Arc::new(Completions { queue: Mutex::new(Vec::new()), wake: wake_tx.try_clone()? });
        let reactor = Reactor {
            pool,
            completions,
            shutdown: Arc::clone(&shutdown),
            listener,
            wake_rx,
            conns: HashMap::new(),
            ctx: Ctx {
                config,
                stats: Arc::clone(&stats),
                wheel: TimerWheel::new(Duration::from_millis(5), 512),
                buffered_total: 0,
            },
            next_token: 1,
            serving: 0,
        };
        let reactor_thread = std::thread::Builder::new()
            .name("reecc-serve-reactor".to_string())
            .spawn(move || reactor.run())?;
        Ok(TcpServer {
            addr,
            shutdown,
            stats,
            wake: wake_tx,
            reactor_thread: Some(reactor_thread),
        })
    }

    /// The bound address (useful with a `:0` ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Currently live session count (admitted connections the reactor
    /// still owns, polite sheds mid-goodbye included).
    pub fn live_sessions(&self) -> usize {
        self.stats.active.load(Ordering::Relaxed) as usize
    }

    /// The transport counter block (shared with the `stats` op).
    pub fn stats(&self) -> &Arc<TransportStats> {
        &self.stats
    }

    /// Stop the reactor: flag it, wake it, and join. Every connection is
    /// closed on the way out. Safe to call repeatedly.
    ///
    /// # Errors
    ///
    /// Returns the reactor's I/O error, if it died on one.
    pub fn stop(&mut self) -> io::Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = (&self.wake).write(&[1u8]);
        self.join()
    }

    /// Block this thread until the reactor exits (shutdown or I/O
    /// failure); used by `cli serve --addr`.
    ///
    /// # Errors
    ///
    /// Returns the reactor's I/O error, if it died on one.
    pub fn run_forever(mut self) -> io::Result<()> {
        self.join()
    }

    fn join(&mut self) -> io::Result<()> {
        match self.reactor_thread.take() {
            Some(handle) => handle
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("reactor thread panicked"))),
            None => Ok(()),
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Why a connection exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// A normal admitted session.
    Serving,
    /// An over-cap connection kept only long enough to deliver its
    /// one-line `overloaded` shed notice.
    Shedding,
}

/// One connection: a socket, its [`Session`], and the clocks the
/// reactor's deadlines read.
struct Conn {
    stream: TcpStream,
    mode: Mode,
    session: Session,
    last_activity: Instant,
    /// Set while output is pending: the last instant the socket accepted
    /// bytes (or the enqueue instant); the write-stall clock.
    stalled_since: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream, mode: Mode, config: &ServerConfig, now: Instant) -> Conn {
        Conn {
            stream,
            mode,
            session: Session::new(config),
            last_activity: now,
            stalled_since: None,
        }
    }

    /// Run one session step, then account for the output it queued:
    /// reactor-wide buffered bytes and their peak, and the write-stall
    /// clock, which starts when output lands on an empty buffer.
    fn step(&mut self, token: u64, ctx: &mut Ctx, step: impl FnOnce(&mut Session)) {
        let before = self.session.out.len();
        step(&mut self.session);
        let queued = self.session.out.len().saturating_sub(before);
        if queued == 0 {
            return;
        }
        ctx.buffered_total += queued;
        ctx.stats.write_buffered_peak.fetch_max(ctx.buffered_total as u64, Ordering::Relaxed);
        if before == 0 {
            let now = Instant::now();
            self.stalled_since = Some(now);
            ctx.wheel.schedule(timer_token(token, TIMER_STALL), now + ctx.config.write_timeout);
        }
    }
}

/// Everything a per-connection step may touch besides the `Conn` itself;
/// a separate field of [`Reactor`] so both can be borrowed at once.
struct Ctx {
    config: ServerConfig,
    stats: Arc<TransportStats>,
    wheel: TimerWheel,
    /// Total pending output across all connections, in bytes.
    buffered_total: usize,
}

/// Timer-wheel token encoding: connection token × 2, low bit selects the
/// deadline kind (0 = idle, 1 = write stall).
const TIMER_IDLE: u64 = 0;
const TIMER_STALL: u64 = 1;

fn timer_token(conn_token: u64, kind: u64) -> u64 {
    conn_token << 1 | kind
}

/// The event loop: owns the listener, the wake socket, and every
/// connection; everything it does is nonblocking except the `poll(2)`
/// tick itself.
struct Reactor {
    pool: Arc<ServePool>,
    completions: Arc<Completions>,
    shutdown: Arc<AtomicBool>,
    listener: TcpListener,
    wake_rx: TcpStream,
    conns: HashMap<u64, Conn>,
    ctx: Ctx,
    /// Monotonic connection tokens; never reused, so a stale completion
    /// or timer entry for a gone connection falls on the floor.
    next_token: u64,
    /// Connections in [`Mode::Serving`] (the admission-control count).
    serving: usize,
}

#[cfg(unix)]
fn raw_fd(socket: &impl std::os::fd::AsRawFd) -> i32 {
    socket.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd<T>(_socket: &T) -> i32 {
    // Never polled: `sys::poll_fds` reports `Unsupported` first.
    -1
}

/// Would-block comes back as `WouldBlock` on Unix and `TimedOut` on
/// some platforms; treat both as "not ready".
fn is_wouldblock(kind: io::ErrorKind) -> bool {
    matches!(kind, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

impl Reactor {
    /// Admission slack: beyond `max_connections` the reactor still admits
    /// up to two accept bursts of [`Mode::Shedding`] connections (to say
    /// goodbye politely); past that, storms wait in the listen backlog.
    fn slack_cap(&self) -> usize {
        self.ctx.config.max_connections.max(1) + 2 * self.ctx.config.accept_burst.max(1)
    }

    fn run(mut self) -> io::Result<()> {
        let tick = self.ctx.config.poll_interval.max(Duration::from_millis(1));
        let mut fds: Vec<PollFd> = Vec::new();
        let mut fd_tokens: Vec<u64> = Vec::new();
        let mut due: Vec<u64> = Vec::new();
        while !self.shutdown.load(Ordering::SeqCst) {
            fds.clear();
            fd_tokens.clear();
            let accepting = self.conns.len() < self.slack_cap();
            fds.push(PollFd::new(
                raw_fd(&self.listener),
                if accepting { sys::POLLIN } else { 0 },
            ));
            fds.push(PollFd::new(raw_fd(&self.wake_rx), sys::POLLIN));
            for (&token, conn) in &self.conns {
                let mut events = 0i16;
                if conn.session.wants_input() {
                    events |= sys::POLLIN;
                }
                if !conn.session.out.is_empty() {
                    events |= sys::POLLOUT;
                }
                fds.push(PollFd::new(raw_fd(&conn.stream), events));
                fd_tokens.push(token);
            }
            sys::poll_fds(&mut fds, tick)?;
            if fds[1].ready(sys::POLLIN) {
                self.drain_wake();
            }
            self.drain_completions();
            if fds[0].ready(sys::POLLIN) {
                self.accept_burst();
            }
            // Readiness over the snapshot taken before poll: a token that
            // died meanwhile just misses (get_mut returns None).
            for (i, &token) in fd_tokens.iter().enumerate() {
                let pfd = fds[2 + i];
                let Some(conn) = self.conns.get_mut(&token) else { continue };
                if pfd.ready(sys::POLLNVAL) {
                    conn.session.dead = true;
                    continue;
                }
                // On hangup, read anyway: data may still be queued ahead
                // of the EOF.
                if pfd.ready(sys::POLLIN | sys::POLLERR | sys::POLLHUP) {
                    read_conn(conn, token, &mut self.ctx);
                }
            }
            let (pool, completions) = (&self.pool, &self.completions);
            for (&token, conn) in &mut self.conns {
                conn.step(token, &mut self.ctx, |session| {
                    session.dispatch(pool, &mut || -> Reply {
                        let completions = Arc::clone(completions);
                        Box::new(move |response| completions.push(token, response))
                    });
                    session.poll_active(pool);
                });
                flush_conn(conn, &mut self.ctx);
            }
            due.clear();
            self.ctx.wheel.collect_due(Instant::now(), &mut due);
            for &entry in &due {
                self.fire_timer(entry);
            }
            self.reap();
        }
        self.teardown();
        Ok(())
    }

    fn drain_wake(&mut self) {
        let mut sink = [0u8; 256];
        loop {
            match (&self.wake_rx).read(&mut sink) {
                Ok(0) => break, // stop() dropped its end mid-teardown
                Ok(_) => continue,
                Err(e) if is_wouldblock(e.kind()) => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn drain_completions(&mut self) {
        let batch: Vec<(u64, Response)> = {
            let mut queue = self.completions.queue.lock().expect("completion queue poisoned");
            std::mem::take(&mut *queue)
        };
        for (token, response) in batch {
            let Some(conn) = self.conns.get_mut(&token) else { continue };
            conn.last_activity = Instant::now();
            conn.step(token, &mut self.ctx, |session| session.complete(response));
        }
    }

    fn accept_burst(&mut self) {
        if let Err(_msg) = failpoint::hit("transport.accept") {
            return; // injected accept fault: skip this tick's accepts
        }
        for _ in 0..self.ctx.config.accept_burst.max(1) {
            if self.conns.len() >= self.slack_cap() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => self.admit(stream),
                Err(e) if is_wouldblock(e.kind()) => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // EMFILE and friends under storm: back off this tick
                // instead of killing the server.
                Err(_) => break,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        let stats = &self.ctx.stats;
        stats.accepted.fetch_add(1, Ordering::Relaxed);
        if stream.set_nonblocking(true).is_err() {
            stats.shed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        stats.active.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        let token = self.next_token;
        self.next_token += 1;
        let cap = self.ctx.config.max_connections.max(1);
        if self.serving < cap {
            self.serving += 1;
            let conn = Conn::new(stream, Mode::Serving, &self.ctx.config, now);
            self.conns.insert(token, conn);
            let idle = now + self.ctx.config.idle_timeout;
            self.ctx.wheel.schedule(timer_token(token, TIMER_IDLE), idle);
            return;
        }
        // Over cap: one polite `overloaded` line through the same bounded
        // write path as any response, then close.
        stats.shed.fetch_add(1, Ordering::Relaxed);
        let mut conn = Conn::new(stream, Mode::Shedding, &self.ctx.config, now);
        let message = format!("connection limit reached ({cap} live sessions); retry later");
        conn.step(token, &mut self.ctx, |session| {
            session.closing = true;
            session.enqueue(&Response::error(None, "?", ErrorKind::Overloaded, message));
        });
        self.conns.insert(token, conn);
    }

    fn fire_timer(&mut self, entry: u64) {
        let token = entry >> 1;
        let kind = entry & 1;
        let ctx = &mut self.ctx;
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if conn.session.dead {
            return;
        }
        let now = Instant::now();
        if kind == TIMER_STALL {
            match conn.stalled_since {
                Some(since) if !conn.session.out.is_empty() => {
                    if now.saturating_duration_since(since) >= ctx.config.write_timeout {
                        // The client stopped reading; there is no point
                        // queueing a goodbye it will not drain.
                        ctx.stats.timed_out.fetch_add(1, Ordering::Relaxed);
                        conn.session.dead = true;
                    } else {
                        ctx.wheel.schedule(entry, since + ctx.config.write_timeout);
                    }
                }
                _ => {} // drained meanwhile; the deadline lapses
            }
            return;
        }
        // Idle: only a quiet connection with nothing in flight is
        // reaped — a job follower or a parked `wait` is not idle.
        if conn.session.closing || conn.session.eof {
            return;
        }
        let busy = conn.session.busy();
        let idle_for = now.saturating_duration_since(conn.last_activity);
        let limit = ctx.config.idle_timeout;
        if !busy && idle_for >= limit {
            ctx.stats.timed_out.fetch_add(1, Ordering::Relaxed);
            let message = format!("idle for {idle_for:?} (limit {limit:?}); closing session");
            conn.step(token, ctx, |session| {
                session.closing = true;
                session.enqueue(&Response::error(
                    None,
                    "?",
                    ErrorKind::DeadlineExceeded,
                    message,
                ));
            });
        } else {
            let base = if busy { now } else { conn.last_activity };
            ctx.wheel.schedule(entry, base + limit);
        }
    }

    fn reap(&mut self) {
        let finished: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.session.dead || c.session.finished())
            .map(|(&t, _)| t)
            .collect();
        for token in finished {
            if let Some(conn) = self.conns.remove(&token) {
                self.ctx.buffered_total -= conn.session.out.len();
                if conn.session.overflowed {
                    self.ctx.stats.write_buffer_sheds.fetch_add(1, Ordering::Relaxed);
                }
                if conn.mode == Mode::Serving {
                    self.serving -= 1;
                }
                let _ = conn.stream.shutdown(Shutdown::Both);
                self.ctx.stats.active.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    fn teardown(&mut self) {
        for (_, conn) in self.conns.drain() {
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.ctx.stats.active.fetch_sub(1, Ordering::Relaxed);
        }
        self.serving = 0;
        self.ctx.buffered_total = 0;
    }
}

/// Drain readable bytes into the session; bounded per tick by
/// [`READ_ROUNDS`] and by the inbox cap.
fn read_conn(conn: &mut Conn, token: u64, ctx: &mut Ctx) {
    if !conn.session.wants_input() {
        return;
    }
    if failpoint::hit("transport.read").is_err() {
        conn.session.dead = true;
        return;
    }
    let mut chunk = [0u8; READ_CHUNK];
    for _ in 0..READ_ROUNDS {
        if !conn.session.wants_input() {
            break;
        }
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => {
                conn.session.end_of_input();
                break;
            }
            Ok(n) => {
                ctx.stats.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
                conn.last_activity = Instant::now();
                conn.step(token, ctx, |session| session.feed(&chunk[..n]));
            }
            Err(e) if is_wouldblock(e.kind()) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // Mid-frame disconnect or reset: nothing to answer.
                conn.session.dead = true;
                break;
            }
        }
    }
}

/// Write as much pending output as the socket will take; progress resets
/// the stall clock, and a drained `closing` connection is condemned (the
/// reap pass closes it).
fn flush_conn(conn: &mut Conn, ctx: &mut Ctx) {
    let session = &mut conn.session;
    if session.dead {
        return;
    }
    if !session.out.is_empty() {
        if failpoint::hit("transport.write").is_err() {
            session.dead = true;
            return;
        }
        loop {
            let (front, _) = session.out.as_slices();
            if front.is_empty() {
                break;
            }
            match (&conn.stream).write(front) {
                Ok(0) => {
                    session.dead = true;
                    break;
                }
                Ok(n) => {
                    session.out.drain(..n);
                    ctx.buffered_total -= n;
                    ctx.stats.bytes_written.fetch_add(n as u64, Ordering::Relaxed);
                    let now = Instant::now();
                    conn.stalled_since = Some(now);
                    conn.last_activity = now;
                }
                Err(e) if is_wouldblock(e.kind()) => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    session.dead = true;
                    break;
                }
            }
        }
    }
    if session.out.is_empty() {
        conn.stalled_since = None;
        if session.closing {
            let _ = conn.stream.shutdown(Shutdown::Write);
            // Discard any request bytes the client pipelined after the
            // goodbye line: closing a socket with unread data makes the
            // kernel send RST, which would destroy the in-flight notice
            // before a polite client could read it.
            let mut scratch = [0u8; READ_CHUNK];
            while matches!((&conn.stream).read(&mut scratch), Ok(n) if n > 0) {}
            session.dead = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;
    use crate::protocol::Request;
    use reecc_core::{QueryEngine, SketchParams};
    use reecc_graph::generators::barabasi_albert;
    use std::io::BufReader;

    fn test_pool() -> Arc<ServePool> {
        let g = barabasi_albert(40, 2, 11);
        let engine = QueryEngine::build(
            &g,
            &SketchParams { epsilon: 0.5, seed: 5, ..Default::default() },
        )
        .unwrap();
        Arc::new(ServePool::new(
            Arc::new(engine),
            PoolConfig { threads: 2, queue_depth: 32, ..Default::default() },
        ))
    }

    fn quick_config() -> ServerConfig {
        ServerConfig { poll_interval: Duration::from_millis(10), ..ServerConfig::default() }
    }

    #[test]
    fn pipe_session_reports_answers_and_inline_errors() {
        let pool = test_pool();
        let input = "\n{\"op\":\"ecc\",\"v\":3}\nnot json\n{\"op\":\"res\",\"u\":0,\"v\":5}\n";
        let mut out = Vec::new();
        let stats = serve_pipe(&pool, input.as_bytes(), &mut out).unwrap();
        assert_eq!(stats, SessionStats { requests: 3, errors: 1 });
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "one response per non-blank request line: {text}");
        assert!(lines[0].contains("\"ok\":true") && lines[0].contains("\"op\":\"ecc\""));
        assert!(lines[1].contains("\"ok\":false") && lines[1].contains("\"error\":\"parse\""));
        assert!(lines[2].contains("\"ok\":true") && lines[2].contains("\"op\":\"res\""));
    }

    #[test]
    fn pipe_session_streams_job_events_then_a_status_line() {
        use crate::jobs::JobsConfig;
        use crate::live::LiveEngine;
        let g = barabasi_albert(30, 2, 13);
        let engine = QueryEngine::build(
            &g,
            &SketchParams { epsilon: 0.5, seed: 5, ..Default::default() },
        )
        .unwrap();
        let pool = ServePool::with_live_and_jobs(
            LiveEngine::ephemeral(Arc::new(engine), None),
            PoolConfig { threads: 1, queue_depth: 16, ..Default::default() },
            Some(JobsConfig { max_jobs: 1, queue_depth: 4, job_dir: None }),
        )
        .unwrap();
        // The runner starts empty, so the first submitted job has id 0.
        let input = "{\"op\":\"optimize-submit\",\"optimizer\":\"simple\",\"s\":1,\"k\":2,\
                     \"eps\":0.4,\"threads\":1,\"seed\":7}\n\
                     {\"op\":\"optimize-events\",\"job\":0,\"follow\":true,\"id\":9}\n\
                     {\"op\":\"optimize-events\",\"job\":99}\n";
        let mut out = Vec::new();
        let stats = serve_pipe(&pool, input.as_bytes(), &mut out).unwrap();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.errors, 1, "only the unknown-job probe errors");
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // 1 submit ack + 2 event lines + 1 closing status + 1 unknown-job
        // error.
        assert_eq!(lines.len(), 5, "{text}");
        assert!(lines[0].contains("\"op\":\"optimize-submit\""), "{}", lines[0]);
        assert!(lines[0].contains("\"state\":\"queued\""), "{}", lines[0]);
        for (i, line) in lines[1..3].iter().enumerate() {
            assert!(line.contains("\"event\":true"), "{line}");
            assert!(line.contains(&format!("\"iteration\":{i}")), "{line}");
            assert!(line.contains("\"id\":9"), "id must echo on event lines: {line}");
            assert!(line.contains("\"replayed\":false"), "{line}");
        }
        assert!(
            lines[3].contains("\"state\":\"completed\"") && !lines[3].contains("\"event\""),
            "closing line is a plain status: {}",
            lines[3]
        );
        assert!(
            lines[4].contains("\"ok\":false") && lines[4].contains("unknown job 99"),
            "{}",
            lines[4]
        );
    }

    #[test]
    fn tcp_round_trip_on_ephemeral_port() {
        let pool = test_pool();
        let mut server =
            TcpServer::start_with(Arc::clone(&pool), "127.0.0.1:0", quick_config()).unwrap();
        let addr = server.local_addr();

        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut stream = stream;
        writeln!(stream, "{{\"op\":\"ecc\",\"v\":1,\"id\":42}}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"ok\":true") && line.contains("\"id\":42"), "{line}");
        drop(stream);
        drop(reader);

        server.stop().unwrap();
        // After stop, new connections are no longer accepted (the listener
        // socket is closed when the accept loop returns).
        assert!(pool.served() >= 1);
        let _ = pool.run(crate::protocol::RequestEnvelope {
            id: None,
            deadline_ms: None,
            request: Request::Stats,
        });
    }

    #[test]
    fn tcp_serves_concurrent_clients() {
        let pool = test_pool();
        let server = TcpServer::start(Arc::clone(&pool), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let handles: Vec<_> = (0..4u16)
            .map(|t| {
                std::thread::spawn(move || {
                    let stream = TcpStream::connect(addr).unwrap();
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut stream = stream;
                    let mut ok = 0;
                    for i in 0..5usize {
                        writeln!(
                            stream,
                            "{{\"op\":\"ecc\",\"v\":{}}}",
                            (t as usize * 7 + i) % 40
                        )
                        .unwrap();
                        let mut line = String::new();
                        reader.read_line(&mut line).unwrap();
                        if line.contains("\"ok\":true") {
                            ok += 1;
                        }
                    }
                    ok
                })
            })
            .collect();
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn stop_closes_sessions_that_are_parked_mid_connection() {
        let pool = test_pool();
        let mut server =
            TcpServer::start_with(Arc::clone(&pool), "127.0.0.1:0", quick_config()).unwrap();
        let addr = server.local_addr();

        // A client that connects, speaks once, then parks silently.
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream.try_clone().unwrap();
        writeln!(writer, "{{\"op\":\"ecc\",\"v\":2}}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"ok\":true"), "{line}");
        assert_eq!(server.live_sessions(), 1);

        // stop() must return promptly even though the client never
        // disconnects, and must take the session down with it.
        let started = Instant::now();
        server.stop().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "stop must not wait for the client: {:?}",
            started.elapsed()
        );
        assert_eq!(server.live_sessions(), 0, "live sessions must be closed by stop");
        // The client's next read observes the close.
        let mut rest = String::new();
        let _ = reader.read_line(&mut rest);
        let eofed = rest.is_empty() || reader.read_line(&mut String::new()).unwrap_or(0) == 0;
        assert!(eofed, "client must see the connection close: {rest:?}");
    }

    #[test]
    fn idle_sessions_are_reaped_by_the_idle_timeout() {
        let pool = test_pool();
        let config = ServerConfig {
            idle_timeout: Duration::from_millis(120),
            poll_interval: Duration::from_millis(10),
            ..ServerConfig::default()
        };
        let server = TcpServer::start_with(Arc::clone(&pool), "127.0.0.1:0", config).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = BufReader::new(stream);
        // Send nothing; the server must close us with an in-band notice.
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains("deadline-exceeded") && line.contains("idle"),
            "idle close must be announced: {line:?}"
        );
        let mut eof = String::new();
        assert_eq!(reader.read_line(&mut eof).unwrap(), 0, "then the socket closes");
    }

    #[test]
    fn connections_past_the_cap_are_shed_with_an_overloaded_line() {
        let pool = test_pool();
        let config = ServerConfig {
            max_connections: 1,
            poll_interval: Duration::from_millis(10),
            ..ServerConfig::default()
        };
        let server = TcpServer::start_with(Arc::clone(&pool), "127.0.0.1:0", config).unwrap();
        let addr = server.local_addr();

        // First client occupies the single slot (and proves it works).
        let first = TcpStream::connect(addr).unwrap();
        let mut first_reader = BufReader::new(first.try_clone().unwrap());
        let mut first_writer = first;
        writeln!(first_writer, "{{\"op\":\"ecc\",\"v\":0}}").unwrap();
        let mut line = String::new();
        first_reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"ok\":true"), "{line}");

        // Second client is shed with a structured error, then closed.
        let second = TcpStream::connect(addr).unwrap();
        second.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut second_reader = BufReader::new(second);
        let mut shed = String::new();
        second_reader.read_line(&mut shed).unwrap();
        assert!(
            shed.contains("\"error\":\"overloaded\"") && shed.contains("connection limit"),
            "{shed:?}"
        );
        let mut eof = String::new();
        assert_eq!(second_reader.read_line(&mut eof).unwrap(), 0);
    }

    #[test]
    fn oversized_request_lines_error_the_session_instead_of_growing_forever() {
        let pool = test_pool();
        let config = ServerConfig {
            max_line_bytes: 1024,
            poll_interval: Duration::from_millis(10),
            ..ServerConfig::default()
        };
        let server = TcpServer::start_with(Arc::clone(&pool), "127.0.0.1:0", config).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        // 8 KiB of newline-free garbage.
        let blob = vec![b'x'; 8 * 1024];
        writer.write_all(&blob).unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("exceeds") && line.contains("\"error\":\"parse\""), "{line:?}");
    }

    /// Masks the two timing fields so answers compare across runs.
    fn mask_timings(line: &str) -> String {
        let mut out = line.to_string();
        for key in ["\"micros\":", "\"queue_micros\":"] {
            if let Some(at) = out.find(key) {
                let start = at + key.len();
                let end = start + out[start..].bytes().take_while(u8::is_ascii_digit).count();
                out.replace_range(start..end, "_");
            }
        }
        out
    }

    /// A request script exercising every framing path: answers, a cache
    /// hit, blank lines, parse errors, too-deep nesting, inline job
    /// control, an over-cap line (which ends the session), and a line
    /// after it that must never be answered.
    fn script(max_line: usize) -> String {
        let mut s = String::new();
        s.push_str("{\"op\":\"ecc\",\"v\":3,\"id\":1}\n\n   \nnot json\n");
        s.push_str("{\"op\":\"res\",\"u\":0,\"v\":5,\"id\":2}\n{\"op\":\"radius\",\"id\":3}\n");
        s.push_str("{\"op\":\"ecc\",\"v\":999}\n{\"op\":\"nope\"}\n");
        s.push_str(&"[".repeat(200));
        s.push('\n');
        s.push_str(
            "{\"op\":\"optimize-status\",\"job\":1,\"id\":4}\n{\"op\":\"ecc\",\"v\":3}\n",
        );
        s.push_str("{\"op\":\"diameter\",\"id\":5}\n{\"op\":\"ecc\",\"v\":7,\"id\":6}\n");
        s.push_str(&format!("{{\"op\":\"ecc\",\"pad\":\"{}\"}}\n", "x".repeat(max_line)));
        s.push_str("{\"op\":\"ecc\",\"v\":1,\"id\":7}\n");
        s
    }

    /// Feed `chunks` into one session, settling after each chunk the way
    /// a transport does, and return the masked output lines.
    fn drive_session(pool: &ServePool, config: &ServerConfig, chunks: &[&[u8]]) -> Vec<String> {
        let mut session = Session::new(config);
        let (tx, rx) = mpsc::channel::<Response>();
        let settle = |session: &mut Session| loop {
            session.dispatch(pool, &mut || -> Reply {
                let tx = tx.clone();
                Box::new(move |response| {
                    let _ = tx.send(response);
                })
            });
            session.poll_active(pool);
            match session.active {
                Some(_) => {
                    let response =
                        rx.recv_timeout(Duration::from_secs(60)).expect("pool answers");
                    session.complete(response);
                }
                None => break,
            }
        };
        for chunk in chunks {
            if !session.wants_input() {
                break;
            }
            session.feed(chunk);
            settle(&mut session);
        }
        if session.wants_input() {
            session.end_of_input();
        }
        settle(&mut session);
        let out: Vec<u8> = session.out.drain(..).collect();
        assert!(session.finished(), "a settled session at end of input is finished");
        String::from_utf8(out).unwrap().lines().map(mask_timings).collect()
    }

    #[test]
    fn session_answers_identically_under_random_read_splits() {
        let engine = Arc::new(
            QueryEngine::build(
                &barabasi_albert(40, 2, 11),
                &SketchParams { epsilon: 0.5, seed: 5, ..Default::default() },
            )
            .unwrap(),
        );
        let fresh_pool = || {
            ServePool::new(
                Arc::clone(&engine),
                PoolConfig { threads: 2, queue_depth: 32, ..Default::default() },
            )
        };
        let config = ServerConfig { max_line_bytes: 1024, ..ServerConfig::default() };
        let text = script(1024);
        // Reference: one complete line per read.
        let lines: Vec<String> = text.split_inclusive('\n').map(str::to_string).collect();
        let whole: Vec<&[u8]> = lines.iter().map(|l| l.as_bytes()).collect();
        let reference = drive_session(&fresh_pool(), &config, &whole);
        assert_eq!(reference.len(), 12, "{reference:#?}");
        assert!(reference[7].contains("\"error\":\"bad-request\""), "{}", reference[7]);
        assert!(reference[11].contains("exceeds 1024 bytes"), "{}", reference[11]);
        assert!(reference[6].contains("nesting"), "{}", reference[6]);
        assert!(reference[8].contains("\"cached\":true"), "{}", reference[8]);
        // Seeded splits of 1..=64 bytes (xorshift; std only).
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..12 {
            let bytes = text.as_bytes();
            let mut chunks = Vec::new();
            let mut at = 0;
            while at < bytes.len() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let len = (1 + state % 64) as usize;
                let end = (at + len).min(bytes.len());
                chunks.push(&bytes[at..end]);
                at = end;
            }
            assert_eq!(drive_session(&fresh_pool(), &config, &chunks), reference);
        }
    }

    #[test]
    fn pipe_and_tcp_give_identical_lines_for_one_script() {
        let max_line = ServerConfig::default().max_line_bytes;
        let text = script(max_line);
        let mut out = Vec::new();
        let stats = serve_pipe(&test_pool(), text.as_bytes(), &mut out).unwrap();
        assert_eq!(stats, SessionStats { requests: 12, errors: 6 });
        let piped: Vec<String> =
            String::from_utf8(out).unwrap().lines().map(mask_timings).collect();

        let server = TcpServer::start_with(test_pool(), "127.0.0.1:0", quick_config()).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let sender = std::thread::spawn(move || {
            let _ = writer.write_all(text.as_bytes());
            let _ = writer.shutdown(Shutdown::Write);
        });
        let mut received = String::new();
        BufReader::new(stream).read_to_string(&mut received).unwrap();
        sender.join().unwrap();
        let socketed: Vec<String> = received.lines().map(mask_timings).collect();
        assert_eq!(piped.len(), 12, "{piped:#?}");
        assert_eq!(piped, socketed);
    }

    #[test]
    fn deep_nesting_is_a_parse_error_and_both_transports_keep_serving() {
        let deep = "[".repeat(60_000);
        let input = format!("{deep}\n{{\"op\":\"ecc\",\"v\":1}}\n");
        let mut out = Vec::new();
        let stats = serve_pipe(&test_pool(), input.as_bytes(), &mut out).unwrap();
        assert_eq!(stats, SessionStats { requests: 2, errors: 1 });
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"error\":\"parse\"") && lines[0].contains("nesting"));
        assert!(lines[1].contains("\"ok\":true"), "{text}");

        let server = TcpServer::start_with(test_pool(), "127.0.0.1:0", quick_config()).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer.write_all(input.as_bytes()).unwrap();
        for want in ["\"error\":\"parse\"", "\"ok\":true"] {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains(want), "{line}");
        }
        // The same connection keeps serving.
        writeln!(writer, "{{\"op\":\"ecc\",\"v\":2}}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"ok\":true"), "{line}");
    }

    #[test]
    fn a_two_megabyte_pipe_line_gets_the_tcp_over_cap_answer() {
        let huge = "[".repeat(2 * 1024 * 1024);
        let input = format!("{{\"op\":\"ecc\",\"v\":1}}\n{huge}\n{{\"op\":\"ecc\",\"v\":2}}\n");
        let mut out = Vec::new();
        let stats = serve_pipe(&test_pool(), input.as_bytes(), &mut out).unwrap();
        assert_eq!(stats, SessionStats { requests: 2, errors: 1 });
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "the session ends at the over-cap line: {text}");
        assert!(lines[0].contains("\"ok\":true"), "{text}");

        // TCP: enough of the same line to cross the cap.
        let server = TcpServer::start_with(test_pool(), "127.0.0.1:0", quick_config()).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let _ =
            writer.write_all(&huge.as_bytes()[..ServerConfig::default().max_line_bytes + 1]);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(mask_timings(line.trim_end()), mask_timings(lines[1]));
        assert!(line.contains("\"error\":\"parse\"") && line.contains("exceeds"), "{line}");
    }
}
