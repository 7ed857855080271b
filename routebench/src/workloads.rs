//! The untraced run: set-up, the timed op loop, the output checks and
//! the end-to-end metrics of each workload.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use gcr_core::{
    NegotiationConfig, NegotiationReport, PlaneIndexKind, RouterConfig, RoutingSession,
};
use gcr_layout::Layout;
use gcr_service::{Client, Reply, Request};
use gcr_telemetry::SpanHandle;

use crate::check::{self, Fnv, Quality};
use crate::die::{self, EcoStream};
use crate::report::{median, ms_since, peak_rss_mb, quantile, Outcome};
use crate::served::{self, Daemon};
use crate::{Args, Workload, PROCESS_START};

/// Set-ups a run times besides those its ops need. An in-process op
/// sets up its own input again, so there `setup_s`, their median,
/// samples the whole run rather than one moment of it.
const SETUP_REPEATS: usize = 5;
/// Fewest ops a run times, however short `--seconds` is.
const MIN_OPS: usize = 3;
/// Runs with at most this many ops list every op time in the metadata.
const RAW_SAMPLES: usize = 64;

pub fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload {
        Workload::Cold1k => cold(args),
        Workload::EcoServed120 => eco(args),
        Workload::Negotiate120 => negotiate(args),
    }
}

/// Per-op latencies and failure accounting, measured from outside.
#[derive(Debug, Default)]
pub struct Samples {
    pub ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Samples {
    /// Runs op `k = 0, 1, …` until `seconds` have passed, at least
    /// `min_ops` ran, and the count is a multiple of `whole`. An op
    /// reports the time of its timed region, so preparation and
    /// bookkeeping stay outside the sample. An op that returns an error
    /// or panics counts as failed, and its whole wall time is still a
    /// sample: no op is dropped.
    pub fn measure(
        seconds: f64,
        min_ops: usize,
        whole: u64,
        mut op: impl FnMut(u64) -> Result<Duration, String>,
    ) -> Samples {
        let start = Instant::now();
        let mut samples = Samples::default();
        while samples.ms.len() < min_ops
            || start.elapsed().as_secs_f64() < seconds
            || !samples.attempted.is_multiple_of(whole)
        {
            samples.record(samples.attempted, &mut op);
        }
        samples
    }

    /// Runs and records one op.
    pub fn record(&mut self, k: u64, op: &mut impl FnMut(u64) -> Result<Duration, String>) {
        let wall = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| op(k)));
        self.attempted += 1;
        let ms = match outcome {
            Ok(Ok(timed)) => timed.as_secs_f64() * 1e3,
            Ok(Err(e)) => {
                self.fail(&format!("op {k}: {e}"));
                ms_since(wall)
            }
            Err(_) => {
                self.fail(&format!("op {k} panicked"));
                ms_since(wall)
            }
        };
        self.ms.push(ms);
    }

    fn fail(&mut self, why: &str) {
        if self.failed < 5 {
            eprintln!("routebench: {why}");
        }
        self.failed += 1;
    }

    pub fn p50(&self) -> f64 {
        median(&self.ms)
    }
}

/// Repeats a set-up; returns the seconds each took and the last result.
fn repeated_setup<T>(
    repeats: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let mut seconds = Vec::new();
    let mut last = None;
    for _ in 0..repeats {
        // Drop the previous set-up first, so the next one starts clean.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        seconds.push(t.elapsed().as_secs_f64());
    }
    let last = last.ok_or("no set-up ran")?;
    Ok((seconds, last))
}

/// The end-to-end metrics every workload reports.
fn end_to_end(
    out: &mut Outcome,
    setup_s: &[f64],
    samples: &Samples,
    rss_mb: f64,
    quality: Quality,
) {
    out.attempted = samples.attempted;
    out.failed = samples.failed;
    let n = samples.ms.len();
    out.metric("setup_s", "s", median(setup_s), setup_s.len());
    out.metric("op_p50_ms", "ms", samples.p50(), n);
    let tail = tail_quantile(n);
    let p99 = if tail > 0.5 {
        quantile(&samples.ms, tail)
    } else {
        samples.p50()
    };
    out.metric("op_p99_ms", "ms", p99, n);
    out.meta("op_p99_quantile", tail);
    if n <= RAW_SAMPLES {
        out.meta("op_samples_ms", format!("{:?}", samples.ms));
    }
    out.metric("peak_rss_mb", "MB", rss_mb, 1);
    out.metric(
        "detour_ratio",
        "ratio",
        quality.detour_ratio(),
        quality.routed,
    );
    out.metric(
        "routed_share",
        "ratio",
        quality.routed_share(),
        quality.nets,
    );
    out.metric(
        "op_ok_share",
        "ratio",
        1.0 - samples.failed as f64 / samples.attempted.max(1) as f64,
        samples.attempted as usize,
    );
}

/// The quantile `op_p99_ms` reports: the 99th percentile when the run
/// holds at least ten samples beyond it, else the highest percentile
/// that does, and never below the median (so at 20 samples or fewer it
/// is the median).
fn tail_quantile(samples: usize) -> f64 {
    (1.0 - 10.0 / samples.max(1) as f64).clamp(0.5, 0.99)
}

/// A serial, sharded session over `layout` (the one-thread schedule
/// every in-process op uses).
pub fn session(layout: Layout, config: RouterConfig) -> RoutingSession {
    RoutingSession::builder(layout)
        .config(config)
        .index(PlaneIndexKind::Sharded)
        .serial()
        .build()
}

/// Opens span `name` under `trace` in a traced op; nothing in an
/// untraced one.
fn child(trace: Option<&SpanHandle>, name: &'static str, label: &str) -> Option<SpanHandle> {
    trace.map(|t| t.child(name, label))
}

/// Closes a span opened by [`child`].
fn end(span: Option<SpanHandle>) {
    if let Some(span) = span {
        span.end();
    }
}

/// Runs `f` on `s` inside `span`, with the program's net and search
/// spans hung under it; without a span the session's trace is never set.
fn within<T>(
    s: &mut RoutingSession,
    span: Option<SpanHandle>,
    f: impl FnOnce(&mut RoutingSession) -> T,
) -> T {
    if span.is_some() {
        s.set_trace(span.clone());
    }
    let out = f(s);
    if span.is_some() {
        s.set_trace(None);
    }
    end(span);
    out
}

// ------------------------------------------------------------- cold-1k

pub fn cold_setup(seed: u64) -> Result<Layout, String> {
    die::parse(&die::cold_die(seed))
}

/// The `cold-1k` op: build the sharded session (the plane index) and
/// route every net. Traced, it opens `build` and `route_all` under
/// `trace` and hangs the program's net and search spans under the latter.
pub fn cold_op(input: Layout, trace: Option<&SpanHandle>) -> RoutingSession {
    let build = child(trace, "build", "sharded");
    let mut s = session(input, RouterConfig::default());
    end(build);
    within(&mut s, child(trace, "route_all", ""), |s| s.route_all());
    s
}

fn cold(args: &Args) -> Result<Outcome, String> {
    let (mut setup_s, _) = repeated_setup(SETUP_REPEATS, || cold_setup(args.seed))?;
    let mut out = Outcome::default();
    out.meta("first_timed_op_s", PROCESS_START.elapsed().as_secs_f64());
    let mut digests = BTreeSet::new();
    let mut last = None;
    let samples = Samples::measure(args.seconds, MIN_OPS, 1, |_| {
        let t = Instant::now();
        let input = cold_setup(args.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let s = cold_op(input, None);
        let timed = t.elapsed();
        digests.insert(check::digest(&s));
        last = Some(s);
        Ok(timed)
    });
    let rss = peak_rss_mb();
    let session = last.ok_or("no cold route completed")?;
    if digests.len() != 1 {
        out.problems
            .push("repeated cold routes of one die produced different routes".into());
    }
    let quality = check::check_session("cold-1k", &session, &mut out.problems);
    out.meta(
        "route_digest",
        format!("\"{:016x}\"", check::digest(&session)),
    );
    end_to_end(&mut out, &setup_s, &samples, rss, quality);
    Ok(out)
}

// ------------------------------------------------------- negotiate-120

pub fn negotiate_setup(seed: u64) -> Result<Vec<Layout>, String> {
    die::negotiate_panel(seed)
        .iter()
        .map(|t| die::parse(t))
        .collect()
}

/// Builds a fresh session on `layout` and negotiates it. Traced, it
/// opens `build` and `negotiate` under `trace` and hangs the program's
/// net and search spans under the latter.
pub fn negotiate_die(
    layout: Layout,
    trace: Option<&SpanHandle>,
) -> (RoutingSession, NegotiationReport) {
    let build = child(trace, "build", "sharded");
    let mut s = session(layout, die::congested_config());
    end(build);
    let report = within(&mut s, child(trace, "negotiate", ""), |s| {
        s.route_negotiated(&NegotiationConfig::default())
    });
    (s, report)
}

/// The `negotiate-120` op: [`negotiate_die`] on every die of the panel.
pub fn negotiate_op(
    panel: Vec<Layout>,
    trace: Option<&SpanHandle>,
) -> Vec<(RoutingSession, NegotiationReport)> {
    panel
        .into_iter()
        .map(|layout| negotiate_die(layout, trace))
        .collect()
}

/// The panel checks shared by both runs: each die's routes are legal,
/// negotiation fails no more nets than the plain first pass, and every
/// op produced the same routes. Returns quality and the route digest.
pub fn check_panel(
    panel: &[Layout],
    sessions: &[RoutingSession],
    digests: &[BTreeSet<u64>],
    problems: &mut Vec<String>,
) -> (Quality, u64) {
    let mut quality = Quality::default();
    let mut fnv = Fnv::default();
    for (i, (layout, negotiated)) in panel.iter().zip(sessions).enumerate() {
        let what = format!("negotiate-120 die {i}");
        quality.add(check::check_session(&what, negotiated, problems));
        let mut plain = session(layout.clone(), die::congested_config());
        plain.route_all();
        let (after, before) = (negotiated.stats().failed, plain.stats().failed);
        if after > before {
            problems.push(format!(
                "{what}: negotiation failed {after} nets, the plain first pass {before}"
            ));
        }
        if digests[i].len() != 1 {
            problems.push(format!(
                "{what}: repeated negotiations produced different routes"
            ));
        }
        fnv.write(&check::digest(negotiated).to_le_bytes());
    }
    (quality, fnv.finish())
}

fn negotiate(args: &Args) -> Result<Outcome, String> {
    let (mut setup_s, panel) = repeated_setup(SETUP_REPEATS, || negotiate_setup(args.seed))?;
    let mut out = Outcome::default();
    out.meta("first_timed_op_s", PROCESS_START.elapsed().as_secs_f64());
    let mut digests = vec![BTreeSet::new(); panel.len()];
    let mut last: Vec<RoutingSession> = Vec::new();
    let mut rounds = Vec::new();
    let samples = Samples::measure(args.seconds, MIN_OPS, 1, |_| {
        let t = Instant::now();
        let inputs = negotiate_setup(args.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let done = negotiate_op(inputs, None);
        let timed = t.elapsed();
        rounds = done.iter().map(|(_, report)| report.iterations).collect();
        for (i, (s, _)) in done.iter().enumerate() {
            digests[i].insert(check::digest(s));
        }
        last = done.into_iter().map(|(s, _)| s).collect();
        Ok(timed)
    });
    let rss = peak_rss_mb();
    if last.len() != panel.len() {
        return Err("no negotiation op completed".into());
    }
    let (quality, digest) = check_panel(&panel, &last, &digests, &mut out.problems);
    out.meta("route_digest", format!("\"{digest:016x}\""));
    out.meta("negotiation_rounds", format!("{rounds:?}"));
    end_to_end(&mut out, &setup_s, &samples, rss, quality);
    Ok(out)
}

// ------------------------------------------------------ eco-served-120

/// A daemon holding the workload's warm session, and the client that
/// drives it.
pub struct Served {
    // Field order is drop order: the connection closes before the
    // daemon drains.
    pub client: Client,
    pub daemon: Daemon,
    pub sid: u64,
    pub layout: Layout,
    pub stream: EcoStream,
    /// Outcome of every request sent so far, by stream index.
    pub ok: Vec<bool>,
}

impl Served {
    /// Generates and parses the die, starts the daemon, opens and
    /// cold-routes the session, then runs one untimed warm-up pass over
    /// the request cycle.
    pub fn setup(seed: u64) -> Result<Served, String> {
        let text = die::eco_die(seed);
        let layout = die::parse(&text)?;
        let stream = EcoStream::new(&layout);
        let daemon = Daemon::start()?;
        let mut client = daemon.connect()?;
        let sid = served::open_routed(&mut client, &text)?;
        let mut served = Served {
            client,
            daemon,
            sid,
            layout,
            stream,
            ok: Vec::new(),
        };
        for _ in 0..served.stream.cycle() {
            served.send_next(None)?;
        }
        Ok(served)
    }

    /// The `eco-served-120` op: sends the next request of the stream and
    /// returns its reply; an `ERR` reply is recorded as a failed request
    /// and returned as an error. Traced, the request goes as a `TRACE`
    /// inside a `round_trip` span under `trace`, and the reply carries
    /// the daemon's span tree.
    pub fn send_next(&mut self, trace: Option<&SpanHandle>) -> Result<Reply, String> {
        let k = self.ok.len() as u64;
        let eco = self.stream.request(k);
        let reply = match trace {
            None => self.client.eco(self.sid, &eco),
            Some(trace) => {
                let span = trace.child("round_trip", "eco");
                let inner = Request::Eco { sid: self.sid, eco };
                let reply = self.client.trace(self.sid, inner);
                span.end();
                reply
            }
        };
        self.ok.push(reply.is_ok());
        reply.map_err(|e| format!("request {k}: {e}"))
    }

    /// Fetches the session's `DUMP`, drains the daemon, and replays the
    /// stream on an in-process twin; returns the checked twin's quality
    /// and the route digest.
    pub fn finish(self, problems: &mut Vec<String>) -> Result<(Quality, u64), String> {
        let Served {
            mut client,
            daemon,
            sid,
            layout,
            stream,
            ok,
        } = self;
        let dump = client.dump(sid).map_err(|e| format!("DUMP: {e}"))?.body;
        daemon.stop(client)?;
        let twin = served::replay_twin(layout, &stream, &ok, &dump, problems);
        let quality = check::check_session("eco-served-120", &twin, problems);
        Ok((quality, check::digest(&twin)))
    }
}

fn eco(args: &Args) -> Result<Outcome, String> {
    let t = Instant::now();
    let mut served = Served::setup(args.seed)?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let mut out = Outcome::default();
    out.meta("first_timed_op_s", PROCESS_START.elapsed().as_secs_f64());
    // Whole cycles only, so every request of the cycle has the same
    // weight in the quantiles.
    let cycle = served.stream.cycle();
    let samples = Samples::measure(args.seconds, MIN_OPS, cycle, |_| {
        let t = Instant::now();
        served.send_next(None)?;
        Ok(t.elapsed())
    });
    let rss = peak_rss_mb();
    let requests = served.ok.len();
    let (quality, digest) = served.finish(&mut out.problems)?;
    // The remaining set-ups run only now: a drained daemon's memory stays
    // with the allocator, so repeating the set-up first would inflate the
    // peak RSS of the measured one.
    let (rest_s, last) = repeated_setup(SETUP_REPEATS - 1, || Served::setup(args.seed))?;
    drop(last);
    setup_s.extend(rest_s);
    out.meta("route_digest", format!("\"{digest:016x}\""));
    out.meta("requests_replayed", requests);
    end_to_end(&mut out, &setup_s, &samples, rss, quality);
    Ok(out)
}
