//! The `gcr-service` wire protocol: line-oriented, text, std-only.
//!
//! The daemon speaks a telnet-able protocol in the spirit of SMTP: one
//! request line, optionally followed by a **dot-framed body** (the body
//! ends at a line containing a single `.`; body lines that start with a
//! dot are escaped with one extra leading dot on the wire). The two body
//! grammars are the repo's existing text formats — a layout is an inline
//! `.gcl` document, a change list is an inline `.eco` document — so the
//! protocol adds framing, not a new serialization.
//!
//! ```text
//! OPEN <engine> <index>      # + .gcl body; engine: gridless|grid|lee-moore|hightower
//! ECO <sid>                  # + .eco body; flushes like `gcrt eco`
//! ROUTE <sid> [FULL] [DEADLINE <ms>]
//!                            # first/FULL: route everything; else: reroute the dirty
//!                            # set. DEADLINE bounds the request wall-clock: past it
//!                            # the route is cancelled, nothing commits, and the
//!                            # reply is ERR DEADLINE.
//! RIPUP <sid> <net>          # rip up one committed route (net becomes dirty)
//! NEGOTIATE <sid> [<iters>] [DEADLINE <ms>]
//!                            # PathFinder negotiated congestion (iteration cap);
//!                            # DEADLINE as for ROUTE (checkpoint rollback).
//! TRACE <sid> <verb> [args…] # run ROUTE/ECO/NEGOTIATE/RIPUP (args as for the
//!                            # verb, minus the sid; ECO keeps its dot-framed
//!                            # body) with span tracing forced on; an OK reply
//!                            # appends the request's span tree — `span` lines
//!                            # in the `gcr_telemetry::SpanTree` grammar — to
//!                            # the inner body. A failed inner op answers its
//!                            # usual ERR and retains the tree in the slow log.
//! EXPLAIN <sid> <net>        # per-net cost attribution of the committed state:
//!                            # status, attempts, wire length vs. the pin-bbox
//!                            # lower bound, search stats (with how many
//!                            # searches began with an incumbent), failure cause
//! STATS [<sid>]              # session stats, or server stats without a sid
//! METRICS                    # full registry, Prometheus text exposition as the body
//! DUMP <sid>                 # committed routes as polylines (diffable)
//! CLOSE <sid>                # drop the session
//! PING                       # liveness
//! SHUTDOWN                   # drain and exit
//! CRASH <sid>                # fault-injection probe: panic inside the session lock
//!                            # (gated; answers UNKNOWN-VERB unless the server was
//!                            # started with the crash probe enabled)
//! ```
//!
//! Servers read requests through [`WireLimits`] — a maximum request-line
//! length and a maximum dot-framed body size — answering `ERR TOO-LARGE`
//! instead of growing without bound on hostile input.
//!
//! Every reply uses one uniform frame — a status line (`OK <head>` or
//! `ERR <CODE> <message>`), zero or more dot-escaped body lines, and a
//! terminating `.` line — so a client needs exactly one read loop.
//! Requests and responses round-trip through their encoders
//! byte-identically (`tests/service.rs` sweeps this with seeded random
//! messages).

use std::fmt;
use std::io::{self, BufRead, Read, Write};

use gcr_core::{
    GlobalRouting, GridEngine, GridlessEngine, HightowerEngine, NetExplain, PlaneIndexKind,
    RoutingEngine, SessionStats,
};

/// The boxed engine type the service routes through: dynamic so `OPEN`
/// picks the backend at runtime, `Send + Sync` so sessions can live
/// behind the registry's locks and move across worker threads.
pub type BoxedEngine = Box<dyn RoutingEngine + Send + Sync>;

/// The routing backend a session is opened with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The paper's gridless A\* engine.
    Gridless,
    /// Grid A\* (pitch-1 exact).
    Grid,
    /// The Lee–Moore wavefront baseline.
    LeeMoore,
    /// The Hightower line-probe baseline.
    Hightower,
}

impl EngineKind {
    /// Every engine, in a stable order (for sweeps and docs).
    pub const ALL: [EngineKind; 4] = [
        EngineKind::Gridless,
        EngineKind::Grid,
        EngineKind::LeeMoore,
        EngineKind::Hightower,
    ];

    /// The wire token for this engine.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Gridless => "gridless",
            EngineKind::Grid => "grid",
            EngineKind::LeeMoore => "lee-moore",
            EngineKind::Hightower => "hightower",
        }
    }

    /// Parses a wire token (the same names `gcrt route --engine` takes).
    #[must_use]
    pub fn parse(token: &str) -> Option<EngineKind> {
        match token {
            "gridless" => Some(EngineKind::Gridless),
            "grid" => Some(EngineKind::Grid),
            "lee-moore" => Some(EngineKind::LeeMoore),
            "hightower" => Some(EngineKind::Hightower),
            _ => None,
        }
    }

    /// Boxes a fresh instance of the engine this token names.
    #[must_use]
    pub fn build(self) -> BoxedEngine {
        match self {
            EngineKind::Gridless => Box::new(GridlessEngine),
            EngineKind::Grid => Box::new(GridEngine::default()),
            EngineKind::LeeMoore => Box::new(GridEngine::lee_moore()),
            EngineKind::Hightower => Box::new(HightowerEngine::default()),
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The wire token for a plane-index selection.
#[must_use]
pub fn index_name(kind: PlaneIndexKind) -> &'static str {
    match kind {
        PlaneIndexKind::Flat => "flat",
        PlaneIndexKind::Sharded => "sharded",
    }
}

/// Parses a plane-index wire token.
#[must_use]
pub fn parse_index(token: &str) -> Option<PlaneIndexKind> {
    match token {
        "flat" => Some(PlaneIndexKind::Flat),
        "sharded" => Some(PlaneIndexKind::Sharded),
        _ => None,
    }
}

/// One request, as typed data. See the [module docs](self) for the wire
/// grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Open a session over an inline `.gcl` layout.
    Open {
        /// Routing backend for the session.
        engine: EngineKind,
        /// Spatial index for the session's plane.
        index: PlaneIndexKind,
        /// The `.gcl` document (newline-terminated lines).
        gcl: String,
    },
    /// Replay an inline `.eco` change list against a session.
    Eco {
        /// Session id.
        sid: u64,
        /// The `.eco` document (newline-terminated lines).
        eco: String,
    },
    /// Route: everything on the first call (or with `full`), the dirty
    /// set afterwards.
    Route {
        /// Session id.
        sid: u64,
        /// Force a full `route_all` even on a warm session.
        full: bool,
        /// Per-request wall-clock bound in milliseconds; past it the
        /// route is cancelled, nothing commits, and the reply is
        /// `ERR DEADLINE`.
        deadline_ms: Option<u64>,
    },
    /// Rip up one net's committed route by name.
    RipUp {
        /// Session id.
        sid: u64,
        /// Net name in the session's layout.
        net: String,
    },
    /// PathFinder-style negotiated congestion over the whole session
    /// (route everything, then iterate under present + history prices).
    Negotiate {
        /// Session id.
        sid: u64,
        /// Iteration cap; `None` = the server default (16).
        max_iters: Option<u64>,
        /// Per-request wall-clock bound in milliseconds; see
        /// [`Request::Route::deadline_ms`] (negotiation rolls back
        /// through a checkpoint).
        deadline_ms: Option<u64>,
    },
    /// Run a session op with span tracing forced on, returning the
    /// request's span tree in the reply body. `inner` must be a
    /// [`Request::Route`], [`Request::Eco`], [`Request::Negotiate`] or
    /// [`Request::RipUp`] carrying the same `sid` — the parser
    /// guarantees it, and [`write_request`] panics on anything else.
    Trace {
        /// Session id (also the inner request's sid).
        sid: u64,
        /// The traced session op.
        inner: Box<Request>,
    },
    /// Per-net cost attribution of the committed state.
    Explain {
        /// Session id.
        sid: u64,
        /// Net name in the session's layout.
        net: String,
    },
    /// Session stats (with a sid) or server stats (without).
    Stats {
        /// Session id, or `None` for server-level stats.
        sid: Option<u64>,
    },
    /// The whole telemetry registry, rendered as a Prometheus-style
    /// text exposition in the reply body.
    Metrics,
    /// Dump the committed routes as polylines.
    Dump {
        /// Session id.
        sid: u64,
    },
    /// Close (drop) a session.
    Close {
        /// Session id.
        sid: u64,
    },
    /// Drain the server and exit.
    Shutdown,
    /// Deliberately panic the worker inside the session lock — the
    /// fault-injection probe behind the server's `crash_probe` gate
    /// (off by default, where it answers `ERR UNKNOWN-VERB` like any
    /// verb outside the protocol). The chaos suite uses it to prove a
    /// worker panic quarantines exactly one session and nothing else.
    Crash {
        /// Session id.
        sid: u64,
    },
}

/// Every wire verb, lowercase, in a stable order. The per-verb metric
/// families (`gcr_service_requests_total{verb=...}` and friends) carry
/// exactly these label values, and [`Request::verb_index`] indexes this
/// table.
pub const VERBS: [&str; 14] = [
    "ping",
    "open",
    "eco",
    "route",
    "ripup",
    "negotiate",
    "stats",
    "metrics",
    "dump",
    "close",
    "shutdown",
    "crash",
    "trace",
    "explain",
];

impl Request {
    /// Index of this request's verb in [`VERBS`].
    #[must_use]
    pub fn verb_index(&self) -> usize {
        match self {
            Request::Ping => 0,
            Request::Open { .. } => 1,
            Request::Eco { .. } => 2,
            Request::Route { .. } => 3,
            Request::RipUp { .. } => 4,
            Request::Negotiate { .. } => 5,
            Request::Stats { .. } => 6,
            Request::Metrics => 7,
            Request::Dump { .. } => 8,
            Request::Close { .. } => 9,
            Request::Shutdown => 10,
            Request::Crash { .. } => 11,
            Request::Trace { .. } => 12,
            Request::Explain { .. } => 13,
        }
    }

    /// This request's lowercase verb (the metric label value).
    #[must_use]
    pub fn verb(&self) -> &'static str {
        VERBS[self.verb_index()]
    }
}

/// Typed error categories carried in `ERR` replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// Malformed request line (arity, bad integer, bad token).
    BadRequest,
    /// The verb is not part of the protocol.
    UnknownVerb,
    /// No session with that id (never opened, closed, or evicted).
    UnknownSession,
    /// A named cell or net does not exist in the session's layout.
    UnknownName,
    /// An inline `.gcl`/`.eco` body failed to parse.
    Parse,
    /// The layout rejected the document or an edit.
    Layout,
    /// A dot-framed body ended at EOF instead of a `.` line.
    Truncated,
    /// The server is draining and no longer accepts work.
    ShuttingDown,
    /// The server's accept queue is full; retry after a backoff.
    Busy,
    /// The request's `DEADLINE` passed before the work finished; the
    /// session is untouched (nothing committed).
    Deadline,
    /// A request line or dot-framed body exceeded the server's
    /// [`WireLimits`].
    TooLarge,
    /// The connection idled past the server's read timeout mid-frame.
    Timeout,
    /// The session is quarantined after a panic poisoned it; only
    /// `CLOSE` is accepted.
    Quarantined,
    /// Anything else (a bug if you ever see it).
    Internal,
}

impl ErrCode {
    /// Every code, in a stable order (for sweeps and docs).
    pub const ALL: [ErrCode; 14] = [
        ErrCode::BadRequest,
        ErrCode::UnknownVerb,
        ErrCode::UnknownSession,
        ErrCode::UnknownName,
        ErrCode::Parse,
        ErrCode::Layout,
        ErrCode::Truncated,
        ErrCode::ShuttingDown,
        ErrCode::Busy,
        ErrCode::Deadline,
        ErrCode::TooLarge,
        ErrCode::Timeout,
        ErrCode::Quarantined,
        ErrCode::Internal,
    ];

    /// The wire token for this code.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ErrCode::BadRequest => "BAD-REQUEST",
            ErrCode::UnknownVerb => "UNKNOWN-VERB",
            ErrCode::UnknownSession => "UNKNOWN-SESSION",
            ErrCode::UnknownName => "UNKNOWN-NAME",
            ErrCode::Parse => "PARSE",
            ErrCode::Layout => "LAYOUT",
            ErrCode::Truncated => "TRUNCATED",
            ErrCode::ShuttingDown => "SHUTTING-DOWN",
            ErrCode::Busy => "BUSY",
            ErrCode::Deadline => "DEADLINE",
            ErrCode::TooLarge => "TOO-LARGE",
            ErrCode::Timeout => "TIMEOUT",
            ErrCode::Quarantined => "QUARANTINED",
            ErrCode::Internal => "INTERNAL",
        }
    }

    /// Parses a wire token.
    #[must_use]
    pub fn parse(token: &str) -> Option<ErrCode> {
        match token {
            "BAD-REQUEST" => Some(ErrCode::BadRequest),
            "UNKNOWN-VERB" => Some(ErrCode::UnknownVerb),
            "UNKNOWN-SESSION" => Some(ErrCode::UnknownSession),
            "UNKNOWN-NAME" => Some(ErrCode::UnknownName),
            "PARSE" => Some(ErrCode::Parse),
            "LAYOUT" => Some(ErrCode::Layout),
            "TRUNCATED" => Some(ErrCode::Truncated),
            "SHUTTING-DOWN" => Some(ErrCode::ShuttingDown),
            "BUSY" => Some(ErrCode::Busy),
            "DEADLINE" => Some(ErrCode::Deadline),
            "TOO-LARGE" => Some(ErrCode::TooLarge),
            "TIMEOUT" => Some(ErrCode::Timeout),
            "QUARANTINED" => Some(ErrCode::Quarantined),
            "INTERNAL" => Some(ErrCode::Internal),
            _ => None,
        }
    }
}

impl fmt::Display for ErrCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed error reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The error category.
    pub code: ErrCode,
    /// Human-readable detail (single line; newlines are flattened on the
    /// wire).
    pub message: String,
}

impl WireError {
    /// Builds an error reply.
    #[must_use]
    pub fn new(code: ErrCode, message: impl Into<String>) -> WireError {
        WireError {
            code,
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

/// One reply, as typed data; encodes to the uniform status + body + `.`
/// frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success: a one-line head and a (possibly empty) text body.
    Ok {
        /// Status-line payload after `OK ` (single line, non-empty).
        head: String,
        /// Body text: empty, or newline-terminated lines.
        body: String,
    },
    /// Failure, with a typed code.
    Err(WireError),
}

impl Response {
    /// A success reply with an empty body.
    #[must_use]
    pub fn ok(head: impl Into<String>) -> Response {
        Response::Ok {
            head: head.into(),
            body: String::new(),
        }
    }

    /// A success reply with a text body.
    #[must_use]
    pub fn ok_with(head: impl Into<String>, body: impl Into<String>) -> Response {
        Response::Ok {
            head: head.into(),
            body: body.into(),
        }
    }

    /// An error reply.
    #[must_use]
    pub fn err(code: ErrCode, message: impl Into<String>) -> Response {
        Response::Err(WireError::new(code, message))
    }
}

fn flatten(line: &str) -> String {
    line.replace(['\n', '\r'], " ")
}

/// Writes a dot-framed body: every line of `body`, dot-stuffed, then the
/// terminating `.` line.
fn write_body(w: &mut dyn Write, body: &str) -> io::Result<()> {
    for line in body.lines() {
        if line.starts_with('.') {
            w.write_all(b".")?;
        }
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
    }
    w.write_all(b".\n")
}

/// Size caps applied while reading frames: the maximum line length and
/// the maximum accumulated dot-framed body, in bytes. A server reads
/// requests through these so one unterminated line or one endless body
/// cannot grow its memory without bound; breaching either cap answers
/// [`ErrCode::TooLarge`]. Responses are read with neither size capped (a
/// `DUMP` body is as large as the session it describes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireLimits {
    /// Maximum request-line length in bytes (excluding the newline).
    pub max_line: usize,
    /// Maximum accumulated body size in bytes.
    pub max_body: usize,
}

/// No cap on either size: the response path, where the peer is the
/// server the client chose to talk to.
const UNCAPPED: WireLimits = WireLimits {
    max_line: usize::MAX,
    max_body: usize::MAX,
};

impl Default for WireLimits {
    fn default() -> WireLimits {
        WireLimits {
            max_line: 64 * 1024,
            max_body: 4 * 1024 * 1024,
        }
    }
}

/// Reads one line of at most `max` bytes; `Ok(None)` at EOF. Strips the
/// trailing `\n` / `\r\n`. The read goes through `Read::take`, so an
/// unterminated line stops pulling from the socket at the cap instead
/// of growing forever. Over-long lines yield [`ErrCode::TooLarge`];
/// the unread remainder stays in the stream (the caller replies and
/// closes — a line that breached the cap has unknowable framing).
fn read_line_bounded(
    r: &mut impl BufRead,
    max: usize,
) -> io::Result<Option<Result<String, WireError>>> {
    let mut line = String::new();
    // +3 leaves room for "\r\n" on a maximal line, and guarantees a
    // breach is distinguishable from an exactly-max unterminated line.
    let mut limited = Read::take(&mut *r, (max as u64).saturating_add(3));
    let n = limited.read_line(&mut line)?;
    if n == 0 {
        return Ok(None);
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    if line.len() > max {
        return Ok(Some(Err(WireError::new(
            ErrCode::TooLarge,
            format!("line exceeds the {max}-byte limit"),
        ))));
    }
    Ok(Some(Ok(line)))
}

/// Reads a dot-framed body (un-stuffing leading dots) under `limits`;
/// errors with [`ErrCode::Truncated`] if EOF arrives before the `.`
/// line, or [`ErrCode::TooLarge`] once the accumulated body breaches
/// `limits.max_body`. An oversized body keeps draining (without
/// storing) for up to one further `max_body` of input looking for the
/// terminator, so the typed reply usually survives the close instead of
/// being discarded by a TCP reset.
fn read_body(r: &mut impl BufRead, limits: &WireLimits) -> io::Result<Result<String, WireError>> {
    let mut body = String::new();
    let mut over = false;
    let mut drained = 0usize;
    loop {
        match read_line_bounded(r, limits.max_line)? {
            None => {
                return Ok(Err(WireError::new(
                    ErrCode::Truncated,
                    "body ended at EOF before the terminating '.' line",
                )))
            }
            Some(Err(e)) => return Ok(Err(e)),
            Some(Ok(line)) => {
                if line == "." {
                    if over {
                        return Ok(Err(WireError::new(
                            ErrCode::TooLarge,
                            format!("body exceeds the {}-byte limit", limits.max_body),
                        )));
                    }
                    return Ok(Ok(body));
                }
                let line = line.strip_prefix('.').unwrap_or(&line);
                if over || body.len() + line.len() + 1 > limits.max_body {
                    over = true;
                    drained += line.len() + 1;
                    if drained > limits.max_body {
                        return Ok(Err(WireError::new(
                            ErrCode::TooLarge,
                            format!("body exceeds the {}-byte limit", limits.max_body),
                        )));
                    }
                    continue;
                }
                body.push_str(line);
                body.push('\n');
            }
        }
    }
}

/// Encodes a request to its wire form (request line + dot-framed body
/// for `OPEN`/`ECO`).
///
/// # Errors
///
/// Only I/O errors from `w`.
///
/// # Panics
///
/// On a [`Request::Trace`] whose inner request is not a `ROUTE`, `ECO`,
/// `NEGOTIATE` or `RIPUP` (the parser never builds one).
pub fn write_request(w: &mut impl Write, req: &Request) -> io::Result<()> {
    encode_request(w, req, true)
}

/// The one request encoder. `TRACE` writes its own sid, then its inner
/// request with `with_sid` off: the wrapped verb's usual line minus the
/// sid, and an inner `ECO`'s dot-framed body as usual.
fn encode_request(w: &mut dyn Write, req: &Request, with_sid: bool) -> io::Result<()> {
    let head = |w: &mut dyn Write, verb: &str, sid: u64| -> io::Result<()> {
        w.write_all(verb.as_bytes())?;
        if with_sid {
            write!(w, " {sid}")?;
        }
        Ok(())
    };
    match req {
        Request::Ping => writeln!(w, "PING"),
        Request::Open { engine, index, gcl } => {
            writeln!(w, "OPEN {} {}", engine.name(), index_name(*index))?;
            write_body(w, gcl)
        }
        Request::Eco { sid, eco } => {
            head(w, "ECO", *sid)?;
            writeln!(w)?;
            write_body(w, eco)
        }
        Request::Route {
            sid,
            full,
            deadline_ms,
        } => {
            head(w, "ROUTE", *sid)?;
            if *full {
                write!(w, " FULL")?;
            }
            if let Some(ms) = deadline_ms {
                write!(w, " DEADLINE {ms}")?;
            }
            writeln!(w)
        }
        Request::RipUp { sid, net } => {
            head(w, "RIPUP", *sid)?;
            writeln!(w, " {net}")
        }
        Request::Negotiate {
            sid,
            max_iters,
            deadline_ms,
        } => {
            head(w, "NEGOTIATE", *sid)?;
            if let Some(n) = max_iters {
                write!(w, " {n}")?;
            }
            if let Some(ms) = deadline_ms {
                write!(w, " DEADLINE {ms}")?;
            }
            writeln!(w)
        }
        Request::Trace { sid, inner } => {
            assert!(
                matches!(
                    **inner,
                    Request::Route { .. }
                        | Request::Eco { .. }
                        | Request::Negotiate { .. }
                        | Request::RipUp { .. }
                ),
                "TRACE cannot wrap {:?}",
                inner.verb()
            );
            write!(w, "TRACE {sid} ")?;
            encode_request(w, inner, false)
        }
        Request::Explain { sid, net } => writeln!(w, "EXPLAIN {sid} {net}"),
        Request::Stats { sid: Some(sid) } => writeln!(w, "STATS {sid}"),
        Request::Stats { sid: None } => writeln!(w, "STATS"),
        Request::Metrics => writeln!(w, "METRICS"),
        Request::Dump { sid } => writeln!(w, "DUMP {sid}"),
        Request::Close { sid } => writeln!(w, "CLOSE {sid}"),
        Request::Shutdown => writeln!(w, "SHUTDOWN"),
        Request::Crash { sid } => writeln!(w, "CRASH {sid}"),
    }
}

/// Parses a trailing `DEADLINE <ms>` option (or nothing) from the
/// remaining request tokens. `0` is legal: it means "already expired",
/// which cancels deterministically at the first budget check — useful
/// for exercising the cancellation path without timing races.
fn parse_deadline(rest: &[&str]) -> Result<Option<u64>, String> {
    match rest {
        [] => Ok(None),
        ["DEADLINE", ms] => ms
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("DEADLINE wants a millisecond count, got {ms:?}")),
        ["DEADLINE"] => Err("DEADLINE wants a millisecond count".to_string()),
        other => Err(format!("unknown trailing option {:?}", other.join(" "))),
    }
}

/// Reads one request. The outer `Option` is `None` at a clean EOF
/// (connection closed between requests); the inner `Result` carries a
/// typed [`WireError`] for malformed input (the caller should send it
/// back and close, since the stream's framing can no longer be trusted).
///
/// # Errors
///
/// Only I/O errors from `r`.
pub fn read_request(r: &mut impl BufRead) -> io::Result<Option<Result<Request, WireError>>> {
    read_request_limited(r, &WireLimits::default())
}

/// [`read_request`] under explicit [`WireLimits`]: request lines longer
/// than `limits.max_line` and bodies larger than `limits.max_body`
/// yield a typed [`ErrCode::TooLarge`] error instead of unbounded
/// buffering. This is the form the server's connection loop uses.
///
/// `TRACE` re-enters this function over a `Chain` of its synthesized
/// inner request line and the live stream; taking `&mut dyn BufRead`
/// keeps that recursion at one instantiation instead of an infinitely
/// deepening generic type.
///
/// # Errors
///
/// Only I/O errors from `r`.
pub fn read_request_limited(
    r: &mut dyn BufRead,
    limits: &WireLimits,
) -> io::Result<Option<Result<Request, WireError>>> {
    // Tolerate blank lines between requests (hand-driven telnet traffic).
    let mut r = r;
    let line = loop {
        match read_line_bounded(&mut r, limits.max_line)? {
            None => return Ok(None),
            Some(Err(e)) => return Ok(Some(Err(e))),
            Some(Ok(l)) if l.trim().is_empty() => continue,
            Some(Ok(l)) => break l,
        }
    };
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let verb = tokens[0];
    let bad = |message: String| Ok(Some(Err(WireError::new(ErrCode::BadRequest, message))));
    let arity = |lo: usize, hi: usize| -> Option<String> {
        let n = tokens.len() - 1;
        (n < lo || n > hi).then(|| {
            format!(
                "{verb} takes {}{} argument(s), got {n}",
                lo,
                if hi > lo {
                    format!("..{hi}")
                } else {
                    String::new()
                }
            )
        })
    };
    let sid_of = |token: &str| -> Result<u64, String> {
        token
            .parse::<u64>()
            .map_err(|_| format!("bad session id {token:?}"))
    };
    macro_rules! check_arity {
        ($lo:expr, $hi:expr) => {
            if let Some(msg) = arity($lo, $hi) {
                return bad(msg);
            }
        };
    }
    macro_rules! sid {
        ($token:expr) => {
            match sid_of($token) {
                Ok(sid) => sid,
                Err(msg) => return bad(msg),
            }
        };
    }
    let req = match verb {
        "PING" => {
            check_arity!(0, 0);
            Request::Ping
        }
        "OPEN" => {
            check_arity!(2, 2);
            // A correctly-shaped OPEN line advertises a body whatever its
            // tokens say, so consume the body BEFORE reporting token
            // errors: replying and closing with unread bytes pending can
            // turn the close into a TCP RST that discards the typed
            // error on its way to the client.
            let engine = EngineKind::parse(tokens[1]);
            let index = parse_index(tokens[2]);
            let gcl = match read_body(&mut r, limits)? {
                Ok(body) => body,
                Err(e) => return Ok(Some(Err(e))),
            };
            let Some(engine) = engine else {
                return bad(format!(
                    "unknown engine {:?}; expected gridless, grid, lee-moore or hightower",
                    tokens[1]
                ));
            };
            let Some(index) = index else {
                return bad(format!(
                    "unknown index {:?}; expected flat or sharded",
                    tokens[2]
                ));
            };
            Request::Open { engine, index, gcl }
        }
        "ECO" => {
            check_arity!(1, 1);
            // Same body-first discipline as OPEN: drain, then validate.
            let sid = sid_of(tokens[1]);
            let eco = match read_body(&mut r, limits)? {
                Ok(body) => body,
                Err(e) => return Ok(Some(Err(e))),
            };
            match sid {
                Ok(sid) => Request::Eco { sid, eco },
                Err(msg) => return bad(msg),
            }
        }
        "ROUTE" => {
            check_arity!(1, 4);
            let sid = sid!(tokens[1]);
            let mut rest = &tokens[2..];
            let full = if rest.first() == Some(&"FULL") {
                rest = &rest[1..];
                true
            } else {
                false
            };
            let deadline_ms = match parse_deadline(rest) {
                Ok(ms) => ms,
                Err(msg) => return bad(format!("ROUTE: {msg}")),
            };
            Request::Route {
                sid,
                full,
                deadline_ms,
            }
        }
        "RIPUP" => {
            check_arity!(2, 2);
            Request::RipUp {
                sid: sid!(tokens[1]),
                net: tokens[2].to_string(),
            }
        }
        "NEGOTIATE" => {
            check_arity!(1, 4);
            let sid = sid!(tokens[1]);
            let mut rest = &tokens[2..];
            let max_iters = match rest.first() {
                Some(&t) if t != "DEADLINE" => match t.parse::<u64>() {
                    Ok(n) if n >= 1 => {
                        rest = &rest[1..];
                        Some(n)
                    }
                    _ => {
                        return bad(format!(
                            "iteration cap must be a positive integer, got {t:?}"
                        ))
                    }
                },
                _ => None,
            };
            let deadline_ms = match parse_deadline(rest) {
                Ok(ms) => ms,
                Err(msg) => return bad(format!("NEGOTIATE: {msg}")),
            };
            Request::Negotiate {
                sid,
                max_iters,
                deadline_ms,
            }
        }
        "TRACE" => {
            if tokens.len() < 3 {
                return bad("TRACE takes a session id and an inner request".to_string());
            }
            let sid = sid!(tokens[1]);
            let inner_verb = tokens[2];
            if !matches!(inner_verb, "ROUTE" | "ECO" | "NEGOTIATE" | "RIPUP") {
                return bad(format!(
                    "TRACE wraps ROUTE, ECO, NEGOTIATE or RIPUP, not {inner_verb:?}"
                ));
            }
            // Synthesize the inner request line by splicing the sid back
            // in after the verb, then re-enter the reader over a chain
            // of that line and the live stream — an inner ECO body is
            // read from the connection exactly as a bare ECO would.
            let mut inner_line = format!("{inner_verb} {sid}");
            for token in &tokens[3..] {
                inner_line.push(' ');
                inner_line.push_str(token);
            }
            inner_line.push('\n');
            let mut chained = io::Cursor::new(inner_line.into_bytes()).chain(&mut r);
            match read_request_limited(&mut chained, limits)? {
                Some(Ok(inner)) => Request::Trace {
                    sid,
                    inner: Box::new(inner),
                },
                Some(Err(e)) => return Ok(Some(Err(e))),
                None => {
                    return Ok(Some(Err(WireError::new(
                        ErrCode::Internal,
                        "synthesized inner request line vanished",
                    ))))
                }
            }
        }
        "EXPLAIN" => {
            check_arity!(2, 2);
            Request::Explain {
                sid: sid!(tokens[1]),
                net: tokens[2].to_string(),
            }
        }
        "STATS" => {
            check_arity!(0, 1);
            Request::Stats {
                sid: match tokens.get(1) {
                    Some(t) => Some(sid!(t)),
                    None => None,
                },
            }
        }
        "METRICS" => {
            check_arity!(0, 0);
            Request::Metrics
        }
        "DUMP" => {
            check_arity!(1, 1);
            Request::Dump {
                sid: sid!(tokens[1]),
            }
        }
        "CLOSE" => {
            check_arity!(1, 1);
            Request::Close {
                sid: sid!(tokens[1]),
            }
        }
        "SHUTDOWN" => {
            check_arity!(0, 0);
            Request::Shutdown
        }
        "CRASH" => {
            check_arity!(1, 1);
            Request::Crash {
                sid: sid!(tokens[1]),
            }
        }
        other => {
            return Ok(Some(Err(WireError::new(
                ErrCode::UnknownVerb,
                format!("unknown verb {other:?}"),
            ))))
        }
    };
    Ok(Some(Ok(req)))
}

/// Encodes a response to its uniform wire frame (status line, dot-framed
/// body, `.`).
///
/// # Errors
///
/// Only I/O errors from `w`.
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    match resp {
        Response::Ok { head, body } => {
            writeln!(w, "OK {}", flatten(head))?;
            write_body(w, body)
        }
        Response::Err(e) => {
            if e.message.is_empty() {
                writeln!(w, "ERR {}", e.code)?;
            } else {
                writeln!(w, "ERR {} {}", e.code, flatten(&e.message))?;
            }
            write_body(w, "")
        }
    }
}

/// Reads one response frame.
///
/// # Errors
///
/// I/O errors from `r`; `UnexpectedEof` if the connection closed before
/// a full frame; `InvalidData` for a status line that is not `OK`/`ERR`.
pub fn read_response(r: &mut impl BufRead) -> io::Result<Response> {
    let eof = || {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        )
    };
    let status = match read_line_bounded(r, UNCAPPED.max_line)? {
        Some(Ok(line)) => line,
        _ => return Err(eof()),
    };
    let body = read_body(r, &UNCAPPED)?.map_err(|_| eof())?;
    if let Some(head) = status.strip_prefix("OK ") {
        return Ok(Response::Ok {
            head: head.to_string(),
            body,
        });
    }
    if let Some(rest) = status.strip_prefix("ERR ") {
        let mut it = rest.splitn(2, ' ');
        let code_token = it.next().unwrap_or("");
        let code = ErrCode::parse(code_token).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown error code {code_token:?}"),
            )
        })?;
        return Ok(Response::Err(WireError::new(
            code,
            it.next().unwrap_or("").to_string(),
        )));
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed status line {status:?}"),
    ))
}

/// Renders a routing as the canonical `DUMP` body: one `net` header per
/// routed net (stable net-id order) with one `poly` line per connection,
/// then one `failed` line per failure. Byte-identical for byte-identical
/// routings — the loopback differential in `tests/service.rs` compares a
/// served `DUMP` against this function over an in-process session.
#[must_use]
pub fn dump_routing(routing: &GlobalRouting) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for route in &routing.routes {
        writeln!(
            out,
            "net {} {} length {} bends {}",
            route.net,
            route.id.index(),
            route.wire_length(),
            route.bends()
        )
        .expect("writing to String cannot fail");
        for conn in &route.connections {
            out.push_str("poly");
            for p in conn.polyline.points() {
                write!(out, " {} {}", p.x, p.y).unwrap();
            }
            out.push('\n');
        }
    }
    for (id, err) in &routing.failures {
        writeln!(out, "failed {} {}", id.index(), flatten(&err.to_string())).unwrap();
    }
    out
}

/// Renders session stats as the first lines of a `STATS` reply body
/// (`key value`, one per line). The served reply appends service-level
/// lines (request count, wall time, engine, index) after these.
#[must_use]
pub fn format_stats(stats: &SessionStats) -> String {
    format!(
        "nets {}\nrouted {}\nfailed {}\nunrouted {}\ndirty {}\nwire-length {}\nreroutes {}\n",
        stats.nets,
        stats.routed,
        stats.failed,
        stats.unrouted,
        stats.dirty,
        stats.wire_length,
        stats.reroutes
    )
}

/// Renders a per-net attribution as an `EXPLAIN` reply body (`key
/// value`, one per line; optional lines only when known). `status` and
/// `lower-bound` always appear; a failed net always carries `cause`.
#[must_use]
pub fn format_explain(explain: &NetExplain) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "net {}\nstatus {}\ndirty {}\nattempts {}\nlower-bound {}\n",
        explain.net, explain.status, explain.dirty, explain.attempts, explain.lower_bound
    );
    if let Some(wl) = explain.wire_length {
        writeln!(out, "wire-length {wl}").unwrap();
        if explain.lower_bound > 0 {
            writeln!(out, "detour {}", wl - explain.lower_bound).unwrap();
        }
    }
    if let Some(n) = explain.connections {
        writeln!(out, "connections {n}").unwrap();
    }
    if let Some(n) = explain.expanded {
        writeln!(out, "expanded {n}").unwrap();
    }
    if let Some(n) = explain.generated {
        writeln!(out, "generated {n}").unwrap();
    }
    if let Some(n) = explain.seeded {
        writeln!(out, "seeded {n}").unwrap();
    }
    if let Some(cause) = explain.cause {
        writeln!(out, "cause {cause}").unwrap();
    }
    if let Some(detail) = &explain.detail {
        writeln!(out, "detail {}", flatten(detail)).unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn roundtrip_request(req: &Request) -> Request {
        let mut wire = Vec::new();
        write_request(&mut wire, req).unwrap();
        let mut r = BufReader::new(wire.as_slice());
        let back = read_request(&mut r).unwrap().unwrap().unwrap();
        // A second read sees clean EOF: the frame consumed exactly itself.
        assert!(read_request(&mut r).unwrap().is_none());
        back
    }

    #[test]
    fn requests_roundtrip() {
        for req in [
            Request::Ping,
            Request::Open {
                engine: EngineKind::LeeMoore,
                index: gcr_core::PlaneIndexKind::Sharded,
                gcl: "gcl 1\nbounds 0 0 9 9\n".to_string(),
            },
            Request::Eco {
                sid: 7,
                eco: "move a 1 0\nreroute\n".to_string(),
            },
            Request::Route {
                sid: 1,
                full: false,
                deadline_ms: None,
            },
            Request::Route {
                sid: 2,
                full: true,
                deadline_ms: None,
            },
            Request::Route {
                sid: 2,
                full: false,
                deadline_ms: Some(250),
            },
            Request::Route {
                sid: 2,
                full: true,
                deadline_ms: Some(0),
            },
            Request::RipUp {
                sid: 3,
                net: "clk".to_string(),
            },
            Request::Negotiate {
                sid: 8,
                max_iters: None,
                deadline_ms: None,
            },
            Request::Negotiate {
                sid: 9,
                max_iters: Some(12),
                deadline_ms: None,
            },
            Request::Negotiate {
                sid: 9,
                max_iters: None,
                deadline_ms: Some(1500),
            },
            Request::Negotiate {
                sid: 9,
                max_iters: Some(3),
                deadline_ms: Some(1500),
            },
            Request::Stats { sid: Some(4) },
            Request::Stats { sid: None },
            Request::Metrics,
            Request::Dump { sid: 5 },
            Request::Close { sid: 6 },
            Request::Shutdown,
            Request::Crash { sid: 11 },
            Request::Trace {
                sid: 2,
                inner: Box::new(Request::Route {
                    sid: 2,
                    full: true,
                    deadline_ms: None,
                }),
            },
            Request::Trace {
                sid: 3,
                inner: Box::new(Request::Route {
                    sid: 3,
                    full: false,
                    deadline_ms: Some(250),
                }),
            },
            Request::Trace {
                sid: 4,
                inner: Box::new(Request::Eco {
                    sid: 4,
                    eco: "move a 1 0\nreroute\n".to_string(),
                }),
            },
            Request::Trace {
                sid: 5,
                inner: Box::new(Request::Negotiate {
                    sid: 5,
                    max_iters: Some(8),
                    deadline_ms: Some(100),
                }),
            },
            Request::Trace {
                sid: 6,
                inner: Box::new(Request::RipUp {
                    sid: 6,
                    net: "clk".to_string(),
                }),
            },
            Request::Explain {
                sid: 7,
                net: "clk".to_string(),
            },
        ] {
            assert_eq!(roundtrip_request(&req), req, "{req:?}");
        }
    }

    #[test]
    fn dot_stuffing_protects_bodies() {
        let eco = ".\n..x\n.move\nplain\n".to_string();
        let req = Request::Eco { sid: 1, eco };
        let back = roundtrip_request(&req);
        assert_eq!(back, req);
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.contains("\n..\n"), "lone dot is stuffed: {text:?}");
        assert!(text.ends_with("\n.\n"), "frame ends with the terminator");
    }

    #[test]
    fn responses_roundtrip() {
        for resp in [
            Response::ok("pong"),
            Response::ok_with("stats", "nets 3\nrouted 2\n"),
            Response::ok_with("dump", ".leading dot\n"),
            Response::err(ErrCode::UnknownSession, "no session 9"),
            Response::Err(WireError::new(ErrCode::Parse, String::new())),
        ] {
            let mut wire = Vec::new();
            write_response(&mut wire, &resp).unwrap();
            let back = read_response(&mut BufReader::new(wire.as_slice())).unwrap();
            assert_eq!(back, resp, "{resp:?}");
        }
    }

    /// The exact bytes of every request verb, each `TRACE` form, a
    /// dot-stuffed body and each response shape, written and read back:
    /// any codec change must leave the wire untouched.
    #[test]
    fn golden_wire_bytes() {
        let route = |sid, full, deadline_ms| Request::Route {
            sid,
            full,
            deadline_ms,
        };
        let negotiate = |sid, max_iters, deadline_ms| Request::Negotiate {
            sid,
            max_iters,
            deadline_ms,
        };
        let trace = |sid, inner| Request::Trace {
            sid,
            inner: Box::new(inner),
        };
        let eco = |sid, eco: &str| Request::Eco {
            sid,
            eco: eco.to_string(),
        };
        let ripup = |sid, net: &str| Request::RipUp {
            sid,
            net: net.to_string(),
        };
        let requests: Vec<(Request, &str)> = vec![
            (Request::Ping, "PING\n"),
            (
                Request::Open {
                    engine: EngineKind::Gridless,
                    index: gcr_core::PlaneIndexKind::Flat,
                    gcl: "gcl 1\nbounds 0 0 9 9\n".to_string(),
                },
                "OPEN gridless flat\ngcl 1\nbounds 0 0 9 9\n.\n",
            ),
            (
                Request::Open {
                    engine: EngineKind::Hightower,
                    index: gcr_core::PlaneIndexKind::Sharded,
                    gcl: String::new(),
                },
                "OPEN hightower sharded\n.\n",
            ),
            (
                eco(7, ".\n..x\n.move a 1 0\nreroute\n"),
                "ECO 7\n..\n...x\n..move a 1 0\nreroute\n.\n",
            ),
            (route(1, false, None), "ROUTE 1\n"),
            (route(2, true, None), "ROUTE 2 FULL\n"),
            (route(3, false, Some(250)), "ROUTE 3 DEADLINE 250\n"),
            (route(4, true, Some(0)), "ROUTE 4 FULL DEADLINE 0\n"),
            (ripup(3, "clk"), "RIPUP 3 clk\n"),
            (negotiate(8, None, None), "NEGOTIATE 8\n"),
            (negotiate(9, Some(12), None), "NEGOTIATE 9 12\n"),
            (
                negotiate(9, None, Some(1500)),
                "NEGOTIATE 9 DEADLINE 1500\n",
            ),
            (negotiate(9, Some(3), Some(7)), "NEGOTIATE 9 3 DEADLINE 7\n"),
            (trace(2, route(2, false, None)), "TRACE 2 ROUTE\n"),
            (
                trace(3, route(3, true, Some(250))),
                "TRACE 3 ROUTE FULL DEADLINE 250\n",
            ),
            (
                trace(4, eco(4, "move a 1 0\n.x\n")),
                "TRACE 4 ECO\nmove a 1 0\n..x\n.\n",
            ),
            (trace(5, eco(5, "")), "TRACE 5 ECO\n.\n"),
            (trace(5, negotiate(5, None, None)), "TRACE 5 NEGOTIATE\n"),
            (
                trace(5, negotiate(5, Some(8), Some(100))),
                "TRACE 5 NEGOTIATE 8 DEADLINE 100\n",
            ),
            (trace(6, ripup(6, "clk")), "TRACE 6 RIPUP clk\n"),
            (
                Request::Explain {
                    sid: 7,
                    net: "clk".to_string(),
                },
                "EXPLAIN 7 clk\n",
            ),
            (Request::Stats { sid: Some(4) }, "STATS 4\n"),
            (Request::Stats { sid: None }, "STATS\n"),
            (Request::Metrics, "METRICS\n"),
            (Request::Dump { sid: 5 }, "DUMP 5\n"),
            (Request::Close { sid: 6 }, "CLOSE 6\n"),
            (Request::Shutdown, "SHUTDOWN\n"),
            (Request::Crash { sid: 11 }, "CRASH 11\n"),
        ];
        let mut transcript = Vec::new();
        for (req, want) in &requests {
            let mut wire = Vec::new();
            write_request(&mut wire, req).unwrap();
            assert_eq!(String::from_utf8(wire).unwrap(), *want, "{req:?}");
            transcript.extend_from_slice(want.as_bytes());
        }
        // The whole transcript reads back request by request.
        let mut r = BufReader::new(transcript.as_slice());
        for (req, _) in &requests {
            assert_eq!(read_request(&mut r).unwrap().unwrap().unwrap(), *req);
        }
        assert!(read_request(&mut r).unwrap().is_none());

        let responses = [
            (Response::ok("pong"), "OK pong\n.\n"),
            (
                Response::ok_with("dump 1", "net a 0 length 4 bends 0\n.lead\n.\n"),
                "OK dump 1\nnet a 0 length 4 bends 0\n..lead\n..\n.\n",
            ),
            (
                Response::err(ErrCode::UnknownSession, "no session 9"),
                "ERR UNKNOWN-SESSION no session 9\n.\n",
            ),
            (
                Response::Err(WireError::new(ErrCode::Parse, String::new())),
                "ERR PARSE\n.\n",
            ),
        ];
        let mut transcript = Vec::new();
        for (resp, want) in &responses {
            let mut wire = Vec::new();
            write_response(&mut wire, resp).unwrap();
            assert_eq!(String::from_utf8(wire).unwrap(), *want, "{resp:?}");
            transcript.extend_from_slice(want.as_bytes());
        }
        let mut r = BufReader::new(transcript.as_slice());
        for (resp, _) in &responses {
            assert_eq!(read_response(&mut r).unwrap(), *resp);
        }
    }

    #[test]
    fn truncated_bodies_are_typed_errors() {
        let wire = b"OPEN gridless flat\ngcl 1\n".to_vec(); // no '.' line
        let got = read_request(&mut BufReader::new(wire.as_slice()))
            .unwrap()
            .unwrap()
            .unwrap_err();
        assert_eq!(got.code, ErrCode::Truncated);
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        for (wire, code) in [
            ("FROB 1\n", ErrCode::UnknownVerb),
            ("ROUTE\n", ErrCode::BadRequest),
            ("ROUTE zebra\n", ErrCode::BadRequest),
            ("ROUTE 1 SIDEWAYS\n", ErrCode::BadRequest),
            ("ROUTE 1 DEADLINE\n", ErrCode::BadRequest),
            ("ROUTE 1 DEADLINE soon\n", ErrCode::BadRequest),
            ("ROUTE 1 DEADLINE -5\n", ErrCode::BadRequest),
            ("ROUTE 1 FULL DEADLINE 5 6\n", ErrCode::BadRequest),
            ("ROUTE 1 DEADLINE 5 FULL\n", ErrCode::BadRequest),
            ("OPEN gridless\n", ErrCode::BadRequest),
            // Token errors on body-carrying verbs drain the body first
            // (so the reply survives the close); the framed-but-wrong
            // forms still answer BAD-REQUEST.
            ("OPEN warp flat\n.\n", ErrCode::BadRequest),
            ("OPEN gridless warp\n.\n", ErrCode::BadRequest),
            ("ECO zebra\n.\n", ErrCode::BadRequest),
            // … and a missing terminator is reported as truncation.
            ("OPEN warp flat\n", ErrCode::Truncated),
            ("RIPUP 1\n", ErrCode::BadRequest),
            ("NEGOTIATE\n", ErrCode::BadRequest),
            ("NEGOTIATE zebra\n", ErrCode::BadRequest),
            ("NEGOTIATE 1 0\n", ErrCode::BadRequest),
            ("NEGOTIATE 1 soon\n", ErrCode::BadRequest),
            ("NEGOTIATE 1 4 5\n", ErrCode::BadRequest),
            ("NEGOTIATE 1 DEADLINE\n", ErrCode::BadRequest),
            ("NEGOTIATE 1 4 DEADLINE x\n", ErrCode::BadRequest),
            ("CRASH\n", ErrCode::BadRequest),
            ("CRASH zebra\n", ErrCode::BadRequest),
            ("STATS 1 2\n", ErrCode::BadRequest),
            ("PING extra\n", ErrCode::BadRequest),
            ("TRACE\n", ErrCode::BadRequest),
            ("TRACE 1\n", ErrCode::BadRequest),
            ("TRACE zebra ROUTE\n", ErrCode::BadRequest),
            // Only the session ops may be wrapped; nesting is refused.
            ("TRACE 1 STATS\n", ErrCode::BadRequest),
            ("TRACE 1 PING\n", ErrCode::BadRequest),
            ("TRACE 1 TRACE ROUTE\n", ErrCode::BadRequest),
            // Inner-request errors surface as their own typed errors.
            ("TRACE 1 ROUTE SIDEWAYS\n", ErrCode::BadRequest),
            ("TRACE 1 ECO\n", ErrCode::Truncated),
            ("EXPLAIN\n", ErrCode::BadRequest),
            ("EXPLAIN 1\n", ErrCode::BadRequest),
            ("EXPLAIN zebra clk\n", ErrCode::BadRequest),
            ("EXPLAIN 1 clk extra\n", ErrCode::BadRequest),
        ] {
            let got = read_request(&mut BufReader::new(wire.as_bytes()))
                .unwrap()
                .unwrap()
                .unwrap_err();
            assert_eq!(got.code, code, "{wire:?}");
        }
    }

    #[test]
    fn trace_splices_the_sid_into_the_inner_request() {
        // The wire form writes the sid once (on the TRACE line); the
        // parser re-threads it into the inner request, and an inner
        // ECO's dot-framed body flows from the same stream.
        let wire = "TRACE 9 ECO\nmove a 1 0\n.\nPING\n";
        let mut r = BufReader::new(wire.as_bytes());
        let got = read_request(&mut r).unwrap().unwrap().unwrap();
        assert_eq!(
            got,
            Request::Trace {
                sid: 9,
                inner: Box::new(Request::Eco {
                    sid: 9,
                    eco: "move a 1 0\n".to_string(),
                }),
            }
        );
        // The frame consumed exactly itself: the pipelined PING is next.
        let next = read_request(&mut r).unwrap().unwrap().unwrap();
        assert_eq!(next, Request::Ping);
    }

    #[test]
    fn explain_bodies_render_the_attribution() {
        let routed = NetExplain {
            net: "clk".to_string(),
            status: "routed",
            dirty: false,
            attempts: 2,
            lower_bound: 90,
            wire_length: Some(110),
            connections: Some(1),
            expanded: Some(14),
            generated: Some(40),
            seeded: Some(1),
            cause: None,
            detail: None,
        };
        let body = format_explain(&routed);
        for line in [
            "net clk",
            "status routed",
            "attempts 2",
            "lower-bound 90",
            "wire-length 110",
            "detour 20",
            "expanded 14",
            "seeded 1",
        ] {
            assert!(body.contains(line), "{line:?} in {body:?}");
        }
        assert!(!body.contains("cause"), "routed nets name no cause");
        let failed = NetExplain {
            net: "cross".to_string(),
            status: "failed",
            dirty: true,
            attempts: 1,
            lower_bound: 70,
            wire_length: None,
            connections: None,
            expanded: Some(300),
            generated: Some(900),
            seeded: None,
            cause: Some("blocked-goal"),
            detail: Some("no path\nfrom (5,50)".to_string()),
        };
        let body = format_explain(&failed);
        assert!(body.contains("cause blocked-goal"), "{body:?}");
        assert!(
            body.contains("detail no path from (5,50)"),
            "multi-line detail is flattened: {body:?}"
        );
        assert!(!body.contains("wire-length"), "{body:?}");
        assert!(!body.contains("seeded"), "{body:?}");
    }

    #[test]
    fn engine_and_index_tokens_roundtrip() {
        for kind in EngineKind::ALL {
            assert_eq!(EngineKind::parse(kind.name()), Some(kind));
        }
        assert!(EngineKind::parse("warp").is_none());
        for kind in [
            gcr_core::PlaneIndexKind::Flat,
            gcr_core::PlaneIndexKind::Sharded,
        ] {
            assert_eq!(parse_index(index_name(kind)), Some(kind));
        }
    }

    #[test]
    fn err_codes_roundtrip() {
        for code in ErrCode::ALL {
            assert_eq!(ErrCode::parse(code.name()), Some(code));
        }
        assert!(ErrCode::parse("WAT").is_none());
    }

    #[test]
    fn oversize_request_lines_are_too_large() {
        let limits = WireLimits {
            max_line: 16,
            max_body: 64,
        };
        let wire = format!("ROUTE {}\n", "9".repeat(40));
        let got = read_request_limited(&mut BufReader::new(wire.as_bytes()), &limits)
            .unwrap()
            .unwrap()
            .unwrap_err();
        assert_eq!(got.code, ErrCode::TooLarge);
        // An exactly-max line still parses.
        let wire = "STATS 123456789\n"; // 15 bytes + newline
        assert!(wire.trim_end().len() <= limits.max_line);
        let got = read_request_limited(&mut BufReader::new(wire.as_bytes()), &limits)
            .unwrap()
            .unwrap()
            .unwrap();
        assert_eq!(
            got,
            Request::Stats {
                sid: Some(123456789)
            }
        );
    }

    #[test]
    fn oversize_bodies_are_too_large_and_drain_to_the_terminator() {
        let limits = WireLimits {
            max_line: 64,
            max_body: 32,
        };
        // Body breaches max_body but terminates within the drain
        // allowance: the typed error comes back AND the stream is left
        // positioned after the frame.
        let wire = format!("ECO 1\n{}\n{}\n.\nPING\n", "a".repeat(20), "b".repeat(20));
        let mut r = BufReader::new(wire.as_bytes());
        let got = read_request_limited(&mut r, &limits)
            .unwrap()
            .unwrap()
            .unwrap_err();
        assert_eq!(got.code, ErrCode::TooLarge);
        let next = read_request_limited(&mut r, &limits).unwrap().unwrap();
        assert_eq!(next.unwrap(), Request::Ping);
        // A body that never terminates stops draining at the cap
        // instead of reading forever.
        let wire = format!(
            "ECO 1\n{}\n{}\n{}\n",
            "a".repeat(30),
            "b".repeat(30),
            "c".repeat(30)
        );
        let got = read_request_limited(&mut BufReader::new(wire.as_bytes()), &limits)
            .unwrap()
            .unwrap()
            .unwrap_err();
        assert_eq!(got.code, ErrCode::TooLarge);
    }

    #[test]
    fn exact_max_body_still_parses() {
        let limits = WireLimits {
            max_line: 64,
            max_body: 8,
        };
        // "abcdefg\n" = 8 bytes: exactly at the cap.
        let wire = "ECO 1\nabcdefg\n.\n";
        let got = read_request_limited(&mut BufReader::new(wire.as_bytes()), &limits)
            .unwrap()
            .unwrap()
            .unwrap();
        assert_eq!(
            got,
            Request::Eco {
                sid: 1,
                eco: "abcdefg\n".to_string()
            }
        );
    }
}
