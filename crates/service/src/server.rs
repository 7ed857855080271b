//! The routing daemon: a std-`TcpListener` server over the
//! [`SessionRegistry`], with a bounded worker pool and graceful drain.
//!
//! The threading model mirrors `gcr_search::parallel_map_with`'s discipline —
//! plain `std::thread::scope` workers, no async runtime, no crates.io —
//! because that is what the build environment offers and what the
//! workload needs: routing requests are coarse (milliseconds of CPU per
//! `ROUTE`), so a small pool of blocking workers saturates the machine.
//!
//! * The **acceptor** (the thread that calls [`Server::run`]) pushes
//!   accepted connections into a **bounded** queue
//!   (`std::sync::mpsc::sync_channel`); when every worker is busy and
//!   the queue is full, the acceptor **sheds load** — it answers the
//!   excess connection `ERR BUSY` inline and closes it, so clients get
//!   a typed retry-after signal instead of an unbounded wait.
//! * **Workers** pull connections and serve requests until the peer
//!   closes (keep-alive: one connection, many requests). A read timeout
//!   bounds how long a worker waits on a silent peer: an *idle* timeout
//!   (no request bytes yet) closes quietly, a *mid-frame* timeout (a
//!   slow-loris trickling half a request) answers `ERR TIMEOUT` first.
//! * **Failure domains**: request bytes are read under
//!   [`WireLimits`] (`ERR TOO-LARGE` past the caps; after any framing
//!   error the reply is flushed, the write side half-closed and the
//!   peer's input drained for a moment, so a peer still writing is not
//!   reset before it reads the reply), and session work
//!   runs under `catch_unwind` — a panicking request poisons only its
//!   own session, which is then **quarantined** (`ERR QUARANTINED`
//!   until `CLOSE`d) while the worker, the connection, and every other
//!   session keep serving.
//! * **Graceful shutdown** is signal-free: a `SHUTDOWN` request flips
//!   the shared drain flag and self-connects to wake the blocking
//!   acceptor; queued connections still get served, every live
//!   connection finishes its current request and closes, and
//!   [`Server::run`] returns a [`ServerReport`] of the run's accounting.

use std::cell::{Cell, RefCell};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use gcr_core::{
    apply_eco, parse_eco, Budget, EcoError, NegotiationConfig, RouteError, RouterConfig,
    RoutingSession,
};
use gcr_layout::format;
use gcr_telemetry::{
    init_slow_log, sample_trace, slow_log, SlowEntry, SpanHandle, SpanRecorder, TraceId,
    DEFAULT_SLOW_LOG_CAP,
};

use crate::metrics::ServiceMetrics;
use crate::proto::{
    dump_routing, format_explain, format_stats, index_name, read_request_limited, write_response,
    ErrCode, Request, Response, WireLimits, VERBS,
};
use crate::registry::{ServiceSession, SessionEntry, SessionRegistry};

/// How a [`Server`] is sized; see [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Session-registry capacity (LRU-evicted beyond this).
    pub capacity: usize,
    /// Worker threads (`0` = the machine's available parallelism).
    pub workers: usize,
    /// Pending-connection queue bound (`0` = `2 × workers`); beyond it
    /// the acceptor sheds connections with `ERR BUSY`.
    pub queue: usize,
    /// Per-connection read timeout in milliseconds (`0` = wait
    /// forever). An idle keep-alive connection past this is closed
    /// quietly; a connection that stalls *mid-request* gets
    /// `ERR TIMEOUT` first.
    pub read_timeout_ms: u64,
    /// Size caps on request lines and dot-framed bodies.
    pub limits: WireLimits,
    /// Enables the `CRASH` fault-injection verb (tests only). Off, the
    /// verb answers `ERR UNKNOWN-VERB` like any token outside the
    /// protocol.
    pub crash_probe: bool,
    /// Requests slower than this land in the process slow log with
    /// their trace id (`0` = threshold logging off; panicked requests
    /// are always recorded). Recording is skipped entirely when
    /// telemetry is disabled.
    pub slow_log_ms: u64,
    /// Slow-log ring capacity. Applied at [`Server::bind`]; the ring is
    /// process-global and sized once, so the first server (or test) to
    /// initialize it wins.
    pub slow_log_cap: usize,
    /// Fraction of session-op requests traced ambiently (`0.0` = only
    /// explicit `TRACE` requests trace; `1.0` = every request).
    /// Sampled requests retain their span tree in the slow log even
    /// when fast and successful; slow requests carry a tree only when
    /// sampling (or `TRACE`) recorded one. Sampling is deterministic
    /// in the trace id.
    pub trace_sample_rate: f64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            capacity: 64,
            workers: 0,
            queue: 0,
            read_timeout_ms: 30_000,
            limits: WireLimits::default(),
            crash_probe: false,
            slow_log_ms: 1_000,
            slow_log_cap: DEFAULT_SLOW_LOG_CAP,
            trace_sample_rate: 0.0,
        }
    }
}

/// Request/connection accounting, shared across workers.
#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
    timeouts: AtomicU64,
    panics: AtomicU64,
}

/// What a finished server run did (returned by [`Server::run`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerReport {
    /// Connections accepted.
    pub connections: u64,
    /// Requests served (including ones answered with `ERR`).
    pub requests: u64,
    /// `ERR` replies sent.
    pub errors: u64,
    /// Connections answered `ERR BUSY` because the queue was full.
    pub shed: u64,
    /// Connections that tripped the read timeout (idle or mid-frame).
    pub timeouts: u64,
    /// Requests that panicked (each quarantining its session).
    pub panics: u64,
    /// Sessions still open at shutdown.
    pub sessions_open: usize,
    /// Sessions evicted to respect the capacity bound.
    pub evictions: u64,
}

/// The routing daemon; see the [module docs](self) for the threading
/// model and [`crate::proto`] for the protocol it speaks.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    registry: Arc<SessionRegistry>,
    counters: Arc<Counters>,
    drain: Arc<AtomicBool>,
    workers: usize,
    queue: usize,
    read_timeout: Option<Duration>,
    limits: WireLimits,
    crash_probe: bool,
    slow_log: Option<Duration>,
    trace_rate: f64,
}

impl Server {
    /// Binds the listener and sizes the pool; serving starts with
    /// [`Server::run`].
    ///
    /// # Errors
    ///
    /// Propagates bind errors (address in use, permission).
    pub fn bind(config: &ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            config.workers
        };
        let queue = if config.queue == 0 {
            workers * 2
        } else {
            config.queue
        };
        init_slow_log(config.slow_log_cap);
        Ok(Server {
            listener,
            registry: Arc::new(SessionRegistry::new(config.capacity)),
            counters: Arc::new(Counters::default()),
            drain: Arc::new(AtomicBool::new(false)),
            workers,
            queue,
            read_timeout: (config.read_timeout_ms > 0)
                .then(|| Duration::from_millis(config.read_timeout_ms)),
            limits: config.limits,
            crash_probe: config.crash_probe,
            slow_log: (config.slow_log_ms > 0).then(|| Duration::from_millis(config.slow_log_ms)),
            trace_rate: config.trace_sample_rate.clamp(0.0, 1.0),
        })
    }

    /// The bound address (useful with an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the OS query error.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared session registry (tests inspect it directly).
    #[must_use]
    pub fn registry(&self) -> Arc<SessionRegistry> {
        Arc::clone(&self.registry)
    }

    /// Worker-pool size.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Accepts and serves until a `SHUTDOWN` request drains the server;
    /// returns the run's accounting.
    ///
    /// # Errors
    ///
    /// Propagates accept errors other than interrupts.
    pub fn run(self) -> io::Result<ServerReport> {
        let addr = self.local_addr()?;
        let ctx = Ctx {
            registry: &self.registry,
            counters: &self.counters,
            metrics: ServiceMetrics::get(),
            drain: &self.drain,
            addr,
            workers: self.workers,
            read_timeout: self.read_timeout,
            limits: self.limits,
            crash_probe: self.crash_probe,
            slow_log: self.slow_log,
            trace_rate: self.trace_rate,
            start: Instant::now(),
        };
        let (tx, rx) = sync_channel::<TcpStream>(self.queue);
        let rx = Mutex::new(rx);
        let mut accept_error = None;
        std::thread::scope(|scope| {
            for _ in 0..self.workers {
                scope.spawn(|| loop {
                    // Hold the receiver lock only for the handoff.
                    let next = {
                        let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
                        guard.recv()
                    };
                    match next {
                        Ok(stream) => {
                            ctx.metrics.queue_depth.dec();
                            handle_connection(stream, &ctx);
                        }
                        Err(_) => return, // acceptor gone, queue drained
                    }
                });
            }
            loop {
                if self.drain.load(Ordering::SeqCst) {
                    break;
                }
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if self.drain.load(Ordering::SeqCst) {
                            break; // the drain wake-up itself
                        }
                        self.counters.connections.fetch_add(1, Ordering::Relaxed);
                        ctx.metrics.connections.inc();
                        match tx.try_send(stream) {
                            Ok(()) => ctx.metrics.queue_depth.inc(),
                            Err(TrySendError::Full(stream)) => {
                                // Load shedding: every worker is busy and
                                // the queue is full. Answer inline with a
                                // typed retry signal instead of stalling
                                // the accept loop behind the backlog.
                                self.counters.shed.fetch_add(1, Ordering::Relaxed);
                                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                                if gcr_telemetry::enabled() {
                                    ctx.metrics.error_counter(ErrCode::Busy).inc();
                                }
                                shed_busy(stream);
                            }
                            Err(TrySendError::Disconnected(_)) => break,
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        accept_error = Some(e);
                        break;
                    }
                }
            }
            drop(tx); // workers drain the queue, then exit
        });
        if let Some(e) = accept_error {
            return Err(e);
        }
        Ok(ServerReport {
            connections: self.counters.connections.load(Ordering::Relaxed),
            requests: self.counters.requests.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            timeouts: self.counters.timeouts.load(Ordering::Relaxed),
            panics: self.counters.panics.load(Ordering::Relaxed),
            sessions_open: self.registry.len(),
            evictions: self.registry.evictions(),
        })
    }
}

/// Best-effort `ERR BUSY` to a connection the acceptor cannot queue.
/// The write is bounded by a short timeout so a hostile peer cannot
/// stall the accept loop; failures are ignored (the peer is gone).
fn shed_busy(stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let mut w = BufWriter::new(stream);
    let resp = Response::err(ErrCode::Busy, "server is at capacity; retry with backoff");
    let _ = write_response(&mut w, &resp).and_then(|()| w.flush());
}

/// Everything a worker needs, borrowed for the scope of a run.
struct Ctx<'a> {
    registry: &'a SessionRegistry,
    counters: &'a Counters,
    metrics: &'static ServiceMetrics,
    drain: &'a AtomicBool,
    addr: SocketAddr,
    workers: usize,
    read_timeout: Option<Duration>,
    limits: WireLimits,
    crash_probe: bool,
    slow_log: Option<Duration>,
    trace_rate: f64,
    start: Instant,
}

impl Ctx<'_> {
    fn begin_drain(&self) {
        self.drain.store(true, Ordering::SeqCst);
        // Wake the acceptor out of its blocking accept; the throwaway
        // connection is dropped by the drain check. A wildcard bind
        // address (0.0.0.0 / ::) is not connectable on every platform,
        // so aim the wake-up at the loopback of the same family.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect(wake);
    }
}

/// Counts bytes actually pulled from the socket, so a read timeout can
/// be classified: *idle* (no bytes of the next request arrived — close
/// quietly) versus *mid-frame* (a request started and stalled — answer
/// `ERR TIMEOUT` so the client learns why the connection died).
struct CountingReader<R> {
    inner: R,
    count: u64,
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.count += n as u64;
        Ok(n)
    }
}

/// Counts bytes actually pushed to the socket (inside the `BufWriter`,
/// so the count is exact after each flush) to feed the
/// `gcr_service_bytes_written_total` counter.
struct CountingWriter<W> {
    inner: W,
    count: u64,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.count += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// The longest a connection closed after a framing error keeps draining
/// its peer's input (never longer than the read timeout).
const LINGER: Duration = Duration::from_secs(1);
/// The most input a lingering close discards.
const LINGER_BYTES: usize = 1 << 20;

/// Closes a connection whose input can no longer be framed without
/// resetting a peer that is still writing. Closing a socket with unread
/// input makes the kernel reset the connection, which fails the peer's
/// pending writes and can discard the typed reply before the peer reads
/// it. So, with the reply already flushed, this half-closes the write
/// side and reads and discards until EOF, [`LINGER_BYTES`], or a
/// deadline of [`LINGER`] capped by `read_timeout`.
fn linger_close(reader: &mut impl Read, stream: &TcpStream, read_timeout: Option<Duration>) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + read_timeout.map_or(LINGER, |t| t.min(LINGER));
    let mut sink = [0u8; 8192];
    let mut drained = 0;
    while drained < LINGER_BYTES {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match reader.read(&mut sink) {
            Ok(0) | Err(_) => return,
            Ok(n) => drained += n,
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    // set_read_timeout expiry surfaces as WouldBlock on Unix and
    // TimedOut on Windows.
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

thread_local! {
    /// The op span of the request this worker is currently tracing;
    /// [`with_session`] clones it into the session so net routing
    /// attributes spans under it (service → core → search).
    static REQUEST_SPAN: RefCell<Option<SpanHandle>> = const { RefCell::new(None) };
    /// Channel from [`trace_request`] (deep in dispatch) back to the
    /// connection loop: the recorder of the request just served, and
    /// whether sampling — rather than an explicit `TRACE` — selected
    /// it.
    static TRACE_OUTPUT: RefCell<Option<TraceOutput>> = const { RefCell::new(None) };
    /// Set by [`with_session`]'s panic handler so the connection loop
    /// does not record the same request in the slow ring twice.
    static PANIC_LOGGED: Cell<bool> = const { Cell::new(false) };
}

struct TraceOutput {
    /// The request's recorder, every span closed. Retention stores it
    /// raw; only an explicit `TRACE` reply assembles and renders the
    /// tree on the request path.
    recorder: Arc<SpanRecorder>,
    sampled: bool,
}

/// Runs `f` with span-tree tracing armed and returns its response plus
/// the recorder (left unfinished — finishing builds the tree, and the
/// caller only pays for that when the trace is actually read): builds
/// the `request` → op span skeleton and parks the op handle in
/// [`REQUEST_SPAN`] for [`with_session`] to thread into the session.
fn trace_request(
    ctx: &Ctx<'_>,
    trace: TraceId,
    verb: &'static str,
    sid: u64,
    f: impl FnOnce() -> Response,
) -> (Response, Arc<SpanRecorder>) {
    ctx.metrics.traced_requests.inc();
    let recorder = SpanRecorder::new("request", &trace.to_string());
    let root = SpanHandle::new(Arc::clone(&recorder), recorder.root());
    let op = root.child(verb, &sid.to_string());
    REQUEST_SPAN.with(|slot| *slot.borrow_mut() = Some(op.clone()));
    let response = f();
    REQUEST_SPAN.with(|slot| *slot.borrow_mut() = None);
    op.end();
    // Close the root here too, so every span carries its final duration
    // and a retained recorder reads correctly however much later its
    // tree is assembled.
    root.end();
    (response, recorder)
}

/// The session id a request's trace op span is labeled with — also the
/// gate deciding which verbs ambient tracing covers (the session ops
/// that do routing work; `PING`/`STATS`/`METRICS` traces are noise).
fn session_op_sid(request: &Request) -> Option<u64> {
    match request {
        Request::Route { sid, .. }
        | Request::Eco { sid, .. }
        | Request::Negotiate { sid, .. }
        | Request::RipUp { sid, .. } => Some(*sid),
        _ => None,
    }
}

/// Dispatch plus the tracing decision: an explicit `TRACE` is handled
/// by its own dispatch arm; a session op is traced ambiently when the
/// sample rate selects its trace id (`--trace-sample-rate`). Unsampled
/// requests — and everything when the kill switch is off — take the
/// plain dispatch path untouched, so an idle sample rate costs the
/// warm path one multiply.
fn serve(request: Request, ctx: &Ctx<'_>, trace: TraceId) -> Response {
    if gcr_telemetry::enabled() && !matches!(request, Request::Trace { .. }) {
        if let Some(sid) = session_op_sid(&request) {
            if ctx.trace_rate > 0.0 && sample_trace(trace, ctx.trace_rate) {
                let verb = request.verb();
                let (response, recorder) =
                    trace_request(ctx, trace, verb, sid, || dispatch(request, ctx, trace));
                TRACE_OUTPUT.with(|slot| {
                    *slot.borrow_mut() = Some(TraceOutput {
                        recorder,
                        sampled: true,
                    });
                });
                return response;
            }
        }
    }
    dispatch(request, ctx, trace)
}

/// Serves one keep-alive connection: requests in, framed replies out,
/// until EOF, a framing error, a read timeout, or a drain.
fn handle_connection(stream: TcpStream, ctx: &Ctx<'_>) {
    let _ = stream.set_nodelay(true); // replies are latency-bound, tiny
    if stream.set_read_timeout(ctx.read_timeout).is_err() {
        return;
    }
    let _ = stream.set_write_timeout(ctx.read_timeout);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(CountingReader {
        inner: read_half,
        count: 0,
    });
    let mut writer = BufWriter::new(CountingWriter {
        inner: stream,
        count: 0,
    });
    // Bytes already folded into the global counters, so each request
    // only adds its own delta.
    let mut read_accounted = 0u64;
    let mut written_accounted = 0u64;
    loop {
        // A request is "started" if bytes arrive after this point, or if
        // a previous fill left pipelined bytes buffered.
        let consumed_before = reader.get_ref().count;
        let buffered_before = !reader.buffer().is_empty();
        let message = match read_request_limited(&mut reader, &ctx.limits) {
            Ok(m) => m,
            Err(e) if is_timeout(&e) => {
                ctx.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                let mid_frame = buffered_before || reader.get_ref().count != consumed_before;
                if mid_frame {
                    // Slow loris: half a request then silence.
                    ctx.counters.errors.fetch_add(1, Ordering::Relaxed);
                    if gcr_telemetry::enabled() {
                        ctx.metrics.error_counter(ErrCode::Timeout).inc();
                    }
                    let resp =
                        Response::err(ErrCode::Timeout, "read timed out mid-request; closing");
                    let _ = write_response(&mut writer, &resp).and_then(|()| writer.flush());
                }
                return; // idle keep-alive expiry closes without a reply
            }
            Err(_) => return, // connection died mid-read
        };
        let Some(message) = message else {
            return; // clean EOF between requests
        };
        ctx.counters.requests.fetch_add(1, Ordering::Relaxed);
        // Telemetry: a trace id per request, the verb counted at read
        // time (so STATS/METRICS include the request that asked), the
        // latency observed after dispatch. The kill switch collapses
        // all of it to one relaxed load.
        let telemetry_on = gcr_telemetry::enabled();
        let trace = TraceId::next();
        let started = telemetry_on.then(Instant::now);
        let verb_idx = match &message {
            Ok(request) => Some(request.verb_index()),
            Err(_) => None,
        };
        if telemetry_on {
            match verb_idx {
                Some(i) => ctx.metrics.requests[i].inc(),
                None => ctx.metrics.malformed.inc(),
            }
        }
        let framing_error = message.is_err();
        let (response, close_after) = match message {
            // Malformed request: answer with the typed error, then close
            // — after a framing error the stream position is untrusted.
            Err(wire_error) => (Response::Err(wire_error), true),
            Ok(request) => {
                let is_shutdown = matches!(request, Request::Shutdown);
                let response = if ctx.drain.load(Ordering::SeqCst) && !is_shutdown {
                    Response::err(ErrCode::ShuttingDown, "server is draining")
                } else {
                    serve(request, ctx, trace)
                };
                if is_shutdown {
                    ctx.begin_drain();
                }
                (response, is_shutdown)
            }
        };
        if matches!(response, Response::Err(_)) {
            ctx.counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        let trace_output = TRACE_OUTPUT.with(|slot| slot.borrow_mut().take());
        let panic_logged = PANIC_LOGGED.with(Cell::take);
        if telemetry_on {
            if let Response::Err(e) = &response {
                ctx.metrics.error_counter(e.code).inc();
            }
            if let (Some(started), Some(i)) = (started, verb_idx) {
                let us = ctx.metrics.request_us[i].observe_since(started);
                let slow = ctx
                    .slow_log
                    .is_some_and(|threshold| us >= threshold.as_micros() as u64);
                let failed = matches!(&response, Response::Err(_));
                let sampled = trace_output.as_ref().is_some_and(|t| t.sampled);
                // Retention: slow requests as before, now carrying their
                // span tree when tracing recorded one — plus any
                // *traced* request that failed or was sampled, even
                // when fast. The tree is built and rendered here, off
                // the common path.
                if slow || (trace_output.is_some() && (failed || sampled)) {
                    if slow {
                        ctx.metrics.slow_requests.inc();
                    }
                    // A panicked request already recorded itself (with
                    // the quarantine detail) inside `with_session`.
                    if !panic_logged {
                        let held = slow_log().record(SlowEntry {
                            trace,
                            verb: VERBS[i],
                            micros: us,
                            detail: match &response {
                                Response::Err(e) => format!("ERR {}", e.code.name()),
                                _ if slow => "ok".to_string(),
                                _ => "sampled".to_string(),
                            },
                            spans: trace_output.map(|t| t.recorder),
                        });
                        ctx.metrics.slow_log_entries.set(held as i64);
                    }
                }
            }
        }
        if write_response(&mut writer, &response).is_err() || writer.flush().is_err() {
            return;
        }
        if telemetry_on {
            let read_now = reader.get_ref().count;
            ctx.metrics.bytes_read.add(read_now - read_accounted);
            read_accounted = read_now;
            let written_now = writer.get_ref().count;
            ctx.metrics
                .bytes_written
                .add(written_now - written_accounted);
            written_accounted = written_now;
        }
        if close_after || ctx.drain.load(Ordering::SeqCst) {
            if framing_error {
                linger_close(&mut reader, &writer.get_ref().inner, ctx.read_timeout);
            }
            return; // finish the in-flight request, then drain
        }
    }
}

/// Runs one request against a session, serializing on the per-session
/// lock and accounting the request + wall time to the *entry's*
/// atomics (outside the lock, so a panicked or evicted session stays
/// accounted — see [`SessionEntry`]).
///
/// The request body runs under `catch_unwind` with the lock guard moved
/// *inside* the closure: if `f` panics, unwinding drops the guard and
/// poisons the session's mutex, so this request answers
/// `ERR QUARANTINED` and every later request on the session (which
/// finds the poisoned lock) does too — the panic's blast radius is one
/// session, not the worker or the process. `CLOSE` never takes the
/// session lock, so a quarantined session can still be unlinked. The
/// quarantine reply carries the request's trace id, and the panic is
/// always recorded in the slow log under that trace (the chaos suite
/// follows a fault from wire reply to slow log with it).
fn with_session(
    ctx: &Ctx<'_>,
    sid: u64,
    trace: TraceId,
    verb: &'static str,
    f: impl FnOnce(&SessionEntry, &mut ServiceSession) -> Response,
) -> Response {
    let Some(entry) = ctx.registry.get(sid) else {
        return Response::err(ErrCode::UnknownSession, format!("no session {sid}"));
    };
    let Ok(mut guard) = entry.lock() else {
        return Response::err(
            ErrCode::Quarantined,
            format!("session {sid} is quarantined after a panic; CLOSE it"),
        );
    };
    let start = Instant::now();
    entry.begin_request();
    ctx.metrics.session_requests.inc();
    // Thread the traced request's op span into the session for the
    // closure's duration, so net routing attributes under it. A panic
    // skips the clear and leaks the handle into the quarantined
    // session — harmless, since the session is unreachable until CLOSE.
    let request_span = REQUEST_SPAN.with(|slot| slot.borrow().clone());
    let entry_ref: &SessionEntry = &entry;
    let outcome = catch_unwind(AssertUnwindSafe(move || {
        if let Some(span) = &request_span {
            guard.session.set_trace(Some(span.clone()));
        }
        let response = f(entry_ref, &mut guard);
        if request_span.is_some() {
            guard.session.set_trace(None);
        }
        response
    }));
    let us = start.elapsed().as_micros() as u64;
    entry.add_wall_us(us);
    ctx.metrics.session_wall_us.add(us);
    outcome.unwrap_or_else(|_| {
        ctx.counters.panics.fetch_add(1, Ordering::Relaxed);
        ctx.metrics.slow_requests.inc();
        PANIC_LOGGED.with(|f| f.set(true));
        let held = slow_log().record(SlowEntry {
            trace,
            verb,
            micros: us,
            detail: format!("panicked; session {sid} quarantined"),
            spans: None,
        });
        ctx.metrics.slow_log_entries.set(held as i64);
        Response::err(
            ErrCode::Quarantined,
            format!("request panicked; session {sid} is quarantined (trace {trace})"),
        )
    })
}

fn dispatch(request: Request, ctx: &Ctx<'_>, trace: TraceId) -> Response {
    let verb = request.verb();
    match request {
        Request::Ping => Response::ok("pong"),
        Request::Shutdown => Response::ok("draining"),
        Request::Open { engine, index, gcl } => {
            let layout = match format::parse(&gcl) {
                Ok(l) => l,
                Err(e) => return Response::err(ErrCode::Parse, format!("gcl: {e}")),
            };
            if let Err(e) = layout.validate() {
                return Response::err(ErrCode::Layout, e.to_string());
            }
            let nets = layout.nets().len();
            let cells = layout.cells().len();
            let session = RoutingSession::builder(layout)
                .config(RouterConfig::default())
                .engine(engine.build())
                .index(index)
                .build();
            let (sid, evicted) = ctx.registry.open(ServiceSession::new(session, engine));
            let mut body = format!(
                "engine {engine}\nindex {}\nnets {nets}\ncells {cells}\n",
                index_name(index)
            );
            if let Some(old) = evicted {
                body.push_str(&format!("evicted {old}\n"));
            }
            Response::ok_with(format!("{sid}"), body)
        }
        Request::Eco { sid, eco } => {
            let ops = match parse_eco(&eco) {
                Ok(ops) => ops,
                Err(e) => return Response::err(ErrCode::Parse, format!("eco: {e}")),
            };
            with_session(ctx, sid, trace, verb, |_e, s| {
                match apply_eco(&mut s.session, &ops) {
                    Ok(report) => Response::ok_with(
                        "eco",
                        format!(
                            "steps {}\nrerouted {}\nfailed {}\n",
                            report.steps.len(),
                            report.rerouted,
                            report.failed
                        ),
                    ),
                    Err(EcoError::UnknownName { kind, name }) => {
                        Response::err(ErrCode::UnknownName, format!("unknown {kind} {name:?}"))
                    }
                    Err(EcoError::Parse { line, message }) => {
                        Response::err(ErrCode::Parse, format!("eco line {line}: {message}"))
                    }
                    Err(EcoError::Layout(e)) => Response::err(ErrCode::Layout, e.to_string()),
                }
            })
        }
        Request::Route {
            sid,
            full,
            deadline_ms,
        } => with_session(ctx, sid, trace, verb, move |_e, s| {
            let budget = deadline_budget(deadline_ms);
            if full || !s.routed_once {
                let routing = match s.session.route_all_budgeted(&budget) {
                    Ok(routing) => routing,
                    Err(e) => return cancel_response(&e),
                };
                s.routed_once = true;
                Response::ok_with(
                    "route",
                    format!(
                        "mode full\nrouted {}\nfailed {}\nwire-length {}\n",
                        routing.routed_count(),
                        routing.failures.len(),
                        routing.wire_length()
                    ),
                )
            } else {
                let outcome = match s.session.reroute_dirty_budgeted(&budget) {
                    Ok(outcome) => outcome,
                    Err(e) => return cancel_response(&e),
                };
                let stats = s.session.stats();
                Response::ok_with(
                    "route",
                    format!(
                        "mode dirty\nattempted {}\nrouted {}\nfailed {}\nwire-length {}\n",
                        outcome.attempted, outcome.rerouted, outcome.failed, stats.wire_length
                    ),
                )
            }
        }),
        Request::Negotiate {
            sid,
            max_iters,
            deadline_ms,
        } => with_session(ctx, sid, trace, verb, move |_e, s| {
            let mut ncfg = NegotiationConfig::default();
            if let Some(n) = max_iters {
                ncfg.max_iters(n as usize);
            }
            let report = match s
                .session
                .route_negotiated_budgeted(&ncfg, &deadline_budget(deadline_ms))
            {
                Ok(report) => report,
                Err(e) => return cancel_response(&e),
            };
            s.routed_once = true;
            Response::ok_with(
                "negotiate",
                format!(
                    "iterations {}\nconverged {}\noverflow-before {}\noverflow-after {}\n\
                     rerouted {}\nrouted {}\nfailed {}\nwire-length {}\n",
                    report.iterations,
                    report.converged,
                    report.before.total_overflow(),
                    report.after.total_overflow(),
                    report.rerouted,
                    report.routing.routed_count(),
                    report.routing.failures.len(),
                    report.routing.wire_length()
                ),
            )
        }),
        Request::RipUp { sid, net } => with_session(ctx, sid, trace, verb, |_e, s| {
            let Some(id) = s.session.layout().net_by_name(&net) else {
                return Response::err(ErrCode::UnknownName, format!("unknown net {net:?}"));
            };
            let had_route = s.session.rip_up(id);
            Response::ok_with(
                "ripup",
                format!(
                    "net {net}\nhad-route {had_route}\ndirty {}\n",
                    s.session.dirty_nets().len()
                ),
            )
        }),
        Request::Trace { sid, inner } => {
            if !gcr_telemetry::enabled() {
                // Kill switch: serve the inner request untraced and be
                // honest about it — a zero-span head over the inner body.
                return match dispatch(*inner, ctx, trace) {
                    Response::Ok { body, .. } => {
                        Response::ok_with(format!("trace {trace} spans 0"), body)
                    }
                    err => err,
                };
            }
            let inner_verb = inner.verb();
            let (response, recorder) =
                trace_request(ctx, trace, inner_verb, sid, || dispatch(*inner, ctx, trace));
            let spans = recorder.finish().render();
            TRACE_OUTPUT.with(|slot| {
                *slot.borrow_mut() = Some(TraceOutput {
                    recorder,
                    sampled: false,
                });
            });
            match response {
                Response::Ok { body, .. } => {
                    let count = spans.lines().count();
                    Response::ok_with(
                        format!("trace {trace} spans {count}"),
                        format!("{body}{spans}"),
                    )
                }
                // An inner failure answers as itself; the span tree is
                // retained in the slow ring (see handle_connection).
                err => err,
            }
        }
        Request::Explain { sid, net } => with_session(ctx, sid, trace, verb, |_e, s| {
            let Some(id) = s.session.layout().net_by_name(&net) else {
                return Response::err(ErrCode::UnknownName, format!("unknown net {net:?}"));
            };
            match s.session.explain_net(id) {
                Some(explain) => Response::ok_with("explain", format_explain(&explain)),
                None => Response::err(ErrCode::Internal, format!("net {net:?} has no slot")),
            }
        }),
        Request::Stats { sid: Some(sid) } => with_session(ctx, sid, trace, verb, |e, s| {
            let mut body = format_stats(&s.stats());
            body.push_str(&format!(
                "requests {}\nwall-us {}\nengine {}\nindex {}\n",
                e.requests(),
                e.wall_us(),
                s.engine,
                index_name(s.session.index_kind())
            ));
            Response::ok_with("stats", body)
        }),
        Request::Stats { sid: None } => {
            // The first block is the server's own accounting; the
            // telemetry block below it reads the same registry handles
            // `METRICS` exposes, so the two views can never disagree
            // (tests/telemetry.rs asserts the equality). The per-verb
            // counters freeze when telemetry is disabled.
            let mut body = format!(
                "sessions {}\ncapacity {}\nevictions {}\nconnections {}\nrequests {}\n\
                 errors {}\nworkers {}\ndraining {}\n",
                ctx.registry.len(),
                ctx.registry.capacity(),
                ctx.registry.evictions(),
                ctx.counters.connections.load(Ordering::Relaxed),
                ctx.counters.requests.load(Ordering::Relaxed),
                ctx.counters.errors.load(Ordering::Relaxed),
                ctx.workers,
                ctx.drain.load(Ordering::SeqCst)
            );
            body.push_str(&format!(
                "uptime-s {}\nqueue-depth {}\nslow-requests {}\nsession-requests {}\n\
                 session-wall-us {}\n",
                ctx.start.elapsed().as_secs(),
                ctx.metrics.queue_depth.get(),
                ctx.metrics.slow_requests.get(),
                ctx.metrics.session_requests.get(),
                ctx.metrics.session_wall_us.get(),
            ));
            for (i, name) in VERBS.iter().enumerate() {
                body.push_str(&format!("verb-{name} {}\n", ctx.metrics.requests[i].get()));
            }
            Response::ok_with("server", body)
        }
        Request::Metrics => {
            ctx.metrics
                .uptime_seconds
                .set(ctx.start.elapsed().as_secs() as i64);
            Response::ok_with("metrics", gcr_telemetry::global().expose())
        }
        Request::Dump { sid } => with_session(ctx, sid, trace, verb, |_e, s| {
            Response::ok_with("dump", dump_routing(&s.session.routing()))
        }),
        Request::Close { sid } => {
            if ctx.registry.close(sid) {
                Response::ok(format!("closed {sid}"))
            } else {
                Response::err(ErrCode::UnknownSession, format!("no session {sid}"))
            }
        }
        Request::Crash { sid } => {
            if !ctx.crash_probe {
                return Response::err(ErrCode::UnknownVerb, "unknown verb \"CRASH\"");
            }
            with_session(ctx, sid, trace, verb, |_e, _s| {
                panic!("CRASH probe: injected worker panic")
            })
        }
    }
}

/// The budget a request runs under: unlimited without a wire
/// `DEADLINE <ms>` option, else that deadline. `0` means "already
/// expired": the request cancels at its first budget check,
/// deterministically — the cancellation tests rely on this.
fn deadline_budget(deadline_ms: Option<u64>) -> Budget {
    match deadline_ms {
        None => Budget::unlimited(),
        Some(ms) => Budget::unlimited().with_deadline(Duration::from_millis(ms)),
    }
}

/// Maps a budgeted driver's error to the wire: cancellation is the
/// typed `ERR DEADLINE` (with the nothing-committed guarantee spelled
/// out); anything else would be a server bug.
fn cancel_response(e: &RouteError) -> Response {
    match e {
        RouteError::Cancelled { .. } => Response::err(
            ErrCode::Deadline,
            format!("{e}; nothing committed, session unchanged"),
        ),
        other => Response::err(ErrCode::Internal, other.to_string()),
    }
}
