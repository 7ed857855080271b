//! The traced run. It interleaves untraced ops with traced ops of the
//! workload, attributes each traced op's wall time to layers by span
//! self time, and then probes every layer on the workload's die with a
//! fixed kit of calls timed from outside.
//!
//! Both arms run the workload's one op function (`workloads::cold_op`,
//! `negotiate_op`, `Served::send_next`); given a span handle, it records
//! spans around the calls into each layer with the same `SpanRecorder`
//! that `TRACE` and `gcrt profile` use. The program's own `net`/`search`
//! spans hang under them through `RoutingSession::set_trace`, and the
//! daemon's `request` tree comes back in the `TRACE` reply.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcr_core::{apply_eco, parse_eco, EcoOp, RouterConfig, RoutingSession};
use gcr_geom::{Dir, PlaneIndex, Point, Polyline, ShardedPlane};
use gcr_layout::{format, Layout};
use gcr_service::proto::{read_request, read_response, write_request, write_response};
use gcr_service::Request;
use gcr_telemetry::{global, parse_exposition, SpanHandle, SpanNode, SpanRecorder, SpanTree};

use crate::check::{self, Fnv};
use crate::die::{self, EcoStream, Rng};
use crate::report::{json_string, mean, median, ms_since, quantile, Outcome};
use crate::served::{self, Daemon};
use crate::workloads::{self, Samples, Served};
use crate::{Args, Workload};

/// The layers a traced op's wall time is attributed to, by module.
/// `bench` is the time inside no wrapped call (the benchmark's own);
/// `wire_server` is the client's round trip outside the daemon's op span
/// (wire, framing, decode, dispatch, encode and the `request` span's
/// bookkeeping), a residual no span inside the program splits further.
const LAYERS: [&str; 7] = [
    "bench",
    "geom",
    "session",
    "search",
    "eco",
    "negotiate",
    "wire_server",
];

/// Most of a traced op's wall time that may lie outside every wrapped
/// call (ROADMAP item 1's bar).
const MAX_BENCH_SHARE: f64 = 0.05;

/// Which layer a span's self time belongs to: the benchmark's own spans
/// are named after the call they wrap, the program's after its layer.
fn layer_of(span: &str) -> &'static str {
    match span {
        "build" => "geom",
        "route_all" | "net" => "session",
        "search" => "search",
        "negotiate" => "negotiate",
        "eco" => "eco",
        "round_trip" | "request" => "wire_server",
        _ => "bench",
    }
}

/// Fewest ops of each arm the interleaved comparison times.
const MIN_PER_ARM: usize = 2;

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut arms = Arms::default();
    let kit = match args.workload {
        Workload::Cold1k => cold(args, &mut arms, &mut out)?,
        Workload::EcoServed120 => eco(args, &mut arms, &mut out)?,
        Workload::Negotiate120 => negotiate(args, &mut arms, &mut out)?,
    };
    arms.report(args, &mut out)?;
    kit.run(args, &mut out)?;
    Ok(out)
}

// ------------------------------------------------------------------ arms

/// Registry counters read by family name from the exposition, so the
/// benchmark depends on no metric handle. The geometry memo's families
/// may disappear; they are then reported absent.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    expansions: u64,
    budget_trips: u64,
    cache: Option<(u64, u64)>,
}

impl Counters {
    fn read() -> Counters {
        let samples = parse_exposition(&global().expose());
        let sum = |name: &str| {
            let mut found = false;
            let total = samples
                .iter()
                .filter(|s| s.name == name)
                .inspect(|_| found = true)
                .map(|s| s.value as u64)
                .sum::<u64>();
            found.then_some(total)
        };
        Counters {
            expansions: sum("gcr_search_expansions_total").unwrap_or(0),
            budget_trips: sum("gcr_search_budget_trips_total").unwrap_or(0),
            cache: sum("gcr_geom_cache_hits_total").zip(sum("gcr_geom_cache_misses_total")),
        }
    }

    fn delta(&self, before: &Counters) -> Counters {
        Counters {
            expansions: self.expansions - before.expansions,
            budget_trips: self.budget_trips - before.budget_trips,
            cache: self
                .cache
                .zip(before.cache)
                .map(|((h, m), (h0, m0))| (h - h0, m - m0)),
        }
    }
}

/// A traced op's result: its wall time, its span tree, and the
/// expansions inside the routes it committed.
type Traced = (Duration, SpanTree, u64);

/// Both arms of the interleaved comparison, plus what the traced ops
/// recorded.
#[derive(Debug, Default)]
struct Arms {
    untraced: Samples,
    traced: Samples,
    trees: Vec<SpanTree>,
    /// Wall time of the traced ops that produced a tree, as timed here.
    traced_wall_us: f64,
    /// Registry deltas summed over the traced ops.
    counters: Counters,
    /// Expansions inside the routes the traced ops committed.
    committed_expansions: u64,
}

impl Arms {
    /// Alternates an untraced and a traced op until `seconds` pass. On
    /// a request stream whose cycle has an odd length, each arm sends
    /// every request of the cycle once per two cycles.
    fn interleave(
        &mut self,
        seconds: f64,
        mut untraced: impl FnMut() -> Result<Duration, String>,
        mut traced: impl FnMut() -> Result<Traced, String>,
    ) {
        let start = Instant::now();
        let mut k = 0;
        while self.traced.ms.len() < MIN_PER_ARM || start.elapsed().as_secs_f64() < seconds {
            self.untraced.record(k, &mut |_| untraced());
            self.record_traced(k, &mut traced);
            k += 1;
        }
    }

    fn record_traced(&mut self, k: u64, traced: &mut impl FnMut() -> Result<Traced, String>) {
        let mut result = None;
        let before = Counters::read();
        self.traced.record(k, &mut |_| {
            let (wall, tree, committed) = traced()?;
            result = Some((tree, committed, wall));
            Ok(wall)
        });
        let delta = Counters::read().delta(&before);
        if let Some((tree, committed, wall)) = result {
            self.trees.push(tree);
            self.traced_wall_us += wall.as_secs_f64() * 1e6;
            self.committed_expansions += committed;
            self.counters.expansions += delta.expansions;
            self.counters.budget_trips += delta.budget_trips;
            if let Some((h, m)) = delta.cache {
                let (h0, m0) = self.counters.cache.unwrap_or((0, 0));
                self.counters.cache = Some((h0 + h, m0 + m));
            }
        }
    }

    /// Self-time table, collapsed stacks, tracing overhead and the
    /// op-scoped search/session metrics.
    fn report(&self, args: &Args, out: &mut Outcome) -> Result<(), String> {
        out.attempted = self.untraced.attempted + self.traced.attempted;
        out.failed = self.untraced.failed + self.traced.failed;
        let ops = self.trees.len();
        if ops == 0 {
            return Err("no traced op completed".into());
        }
        let mut self_us: BTreeMap<&str, f64> = BTreeMap::new();
        let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
        let mut net_us = Vec::new();
        let mut search_us = 0u64;
        for tree in &self.trees {
            attribute(&tree.root, &mut self_us);
            for node in tree.find_all("net") {
                net_us.push(node.dur_us as f64);
            }
            search_us += tree
                .find_all("search")
                .iter()
                .map(|n| n.dur_us)
                .sum::<u64>();
            for line in tree.render_collapsed().lines() {
                if let Some((stack, us)) = line.rsplit_once(' ') {
                    *stacks.entry(stack.to_string()).or_default() += us.parse::<u64>().unwrap_or(0);
                }
            }
        }
        // `bench` is what no wrapped call covers: the root span's self
        // time and the op's time outside the root span.
        let wall_us = self.traced_wall_us;
        let wrapped: f64 = LAYERS[1..]
            .iter()
            .filter_map(|layer| self_us.get(layer))
            .sum();
        self_us.insert("bench", wall_us - wrapped);
        let mut table = format!(
            "# {} seed {}: self time of {ops} traced op(s), {:.3} ms wall per op\n\
             # layer      self_ms_per_op  share\n",
            args.workload.name(),
            args.seed,
            wall_us / 1e3 / ops as f64
        );
        for layer in LAYERS {
            let us = self_us.get(layer).copied().unwrap_or(0.0);
            let share = us / wall_us;
            let _ = writeln!(
                table,
                "{layer:<12} {:>14.4} {share:>6.4}",
                us / 1e3 / ops as f64
            );
            out.metric(&format!("share.{layer}"), "ratio", share, ops);
        }
        let bench_share = self_us["bench"] / wall_us;
        let _ = writeln!(
            table,
            "# wrapped layer calls cover {:.4} of traced wall time",
            1.0 - bench_share
        );
        for line in table.lines() {
            println!("layer {line}");
        }
        if bench_share > MAX_BENCH_SHARE {
            out.problems.push(format!(
                "layer self times cover {:.4} of the traced wall time (bar: at least {})",
                1.0 - bench_share,
                1.0 - MAX_BENCH_SHARE
            ));
        }
        export(args, &table, &stacks)?;
        out.metric("trace.op_ms", "ms", self.traced.p50(), self.traced.ms.len());
        out.metric(
            "trace.overhead",
            "ratio",
            self.traced.p50() / self.untraced.p50(),
            self.traced.ms.len().min(self.untraced.ms.len()),
        );
        let expansions = self.counters.expansions;
        out.metric(
            "search.expansions",
            "count",
            expansions as f64 / ops as f64,
            ops,
        );
        out.metric(
            "search.expansions_per_s",
            "1/s",
            expansions as f64 / (search_us.max(1) as f64 / 1e6),
            ops,
        );
        out.metric(
            "search.budget_trips",
            "count",
            self.counters.budget_trips as f64 / ops as f64,
            ops,
        );
        out.metric(
            "search.useful_share",
            "ratio",
            self.committed_expansions as f64 / expansions.max(1) as f64,
            ops,
        );
        // Without the geometry memo's families no query is answered from
        // a memo: the share is 0, and the metadata says the memo is absent.
        let (hits, misses) = self.counters.cache.unwrap_or((0, 0));
        out.metric(
            "geom.cache_hit_share",
            "ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            ops,
        );
        let memo = if self.counters.cache.is_some() {
            "present"
        } else {
            "absent"
        };
        out.meta("geom_cache", json_string(memo));
        out.metric("session.net_p50_us", "us", median(&net_us), net_us.len());
        out.metric(
            "session.net_p99_us",
            "us",
            quantile(&net_us, 0.99),
            net_us.len(),
        );
        Ok(())
    }
}

/// Adds each span's self time (duration minus its children's) to its
/// layer.
fn attribute(node: &SpanNode, acc: &mut BTreeMap<&str, f64>) {
    let children: u64 = node.children.iter().map(|c| c.dur_us).sum();
    *acc.entry(layer_of(&node.name)).or_default() += node.dur_us.saturating_sub(children) as f64;
    for child in &node.children {
        attribute(child, acc);
    }
}

/// Writes the self-time table and the merged collapsed stacks (the
/// `gcrt profile --collapsed` format) under `.bench_trace/`.
fn export(args: &Args, table: &str, stacks: &BTreeMap<String, u64>) -> Result<(), String> {
    let dir = std::path::Path::new(".bench_trace");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    let mut collapsed = String::new();
    for (stack, us) in stacks {
        let _ = writeln!(collapsed, "{stack} {us}");
    }
    for (name, text) in [("layers.txt", table), ("collapsed", collapsed.as_str())] {
        let path = dir.join(format!("{stem}.{name}"));
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Opens the benchmark's root span for one traced op.
fn root(label: &str) -> (Arc<SpanRecorder>, SpanHandle) {
    let recorder = SpanRecorder::new("op", label);
    let handle = SpanHandle::new(Arc::clone(&recorder), recorder.root());
    (recorder, handle)
}

/// Expansions inside a session's committed routes.
fn committed<E: gcr_core::RoutingEngine>(session: &RoutingSession<E>) -> u64 {
    let layout = session.layout();
    layout
        .net_ids()
        .into_iter()
        .filter_map(|id| session.route(id))
        .map(|r| r.stats.expanded as u64)
        .sum()
}

// ------------------------------------------------------------- workloads

fn cold(args: &Args, arms: &mut Arms, out: &mut Outcome) -> Result<Kit, String> {
    let layout = workloads::cold_setup(args.seed)?;
    let mut twin = None;
    let mut traced_last = None;
    let digests = RefCell::new(BTreeSet::new());
    arms.interleave(
        args.seconds,
        || {
            let input = layout.clone();
            let t = Instant::now();
            let s = workloads::cold_op(input, None);
            let timed = t.elapsed();
            digests.borrow_mut().insert(check::digest(&s));
            twin = Some(s);
            Ok(timed)
        },
        || {
            let input = layout.clone();
            let t = Instant::now();
            let (recorder, op) = root("cold-1k");
            let s = workloads::cold_op(input, Some(&op));
            op.end();
            let timed = t.elapsed();
            let expanded = committed(&s);
            digests.borrow_mut().insert(check::digest(&s));
            traced_last = Some(s);
            Ok((timed, recorder.finish(), expanded))
        },
    );
    let traced = traced_last.ok_or("no traced cold route completed")?;
    check::check_session("cold-1k", &traced, &mut out.problems);
    if digests.into_inner().len() != 1 {
        out.problems
            .push("traced and untraced cold routes produced different routes".into());
    }
    let route_all_ms = arms
        .trees
        .iter()
        .flat_map(|tree| tree.find_all("route_all"))
        .map(|node| node.dur_us as f64 / 1e3)
        .collect();
    Ok(Kit {
        text: format::write(&layout),
        config: RouterConfig::default(),
        twin: twin.ok_or("no untraced cold route completed")?,
        route_all_ms,
    })
}

fn negotiate(args: &Args, arms: &mut Arms, out: &mut Outcome) -> Result<Kit, String> {
    let panel = workloads::negotiate_setup(args.seed)?;
    let digests = RefCell::new(vec![BTreeSet::new(); panel.len()]);
    let record = |done: &[(RoutingSession, _)]| {
        for (i, (s, _)) in done.iter().enumerate() {
            digests.borrow_mut()[i].insert(check::digest(s));
        }
    };
    let mut last = Vec::new();
    arms.interleave(
        args.seconds,
        || {
            let inputs = panel.clone();
            let t = Instant::now();
            let done = workloads::negotiate_op(inputs, None);
            let timed = t.elapsed();
            record(&done);
            Ok(timed)
        },
        || {
            let inputs = panel.clone();
            let t = Instant::now();
            let (recorder, op) = root("negotiate-120");
            let done = workloads::negotiate_op(inputs, Some(&op));
            op.end();
            let timed = t.elapsed();
            let expanded = done.iter().map(|(s, _)| committed(s)).sum();
            record(&done);
            last = done.into_iter().map(|(s, _)| s).collect();
            Ok((timed, recorder.finish(), expanded))
        },
    );
    if last.len() != panel.len() {
        return Err("no traced negotiation completed".into());
    }
    workloads::check_panel(&panel, &last, &digests.into_inner(), &mut out.problems);
    Ok(Kit::routed(&panel[0], die::congested_config()))
}

fn eco(args: &Args, arms: &mut Arms, out: &mut Outcome) -> Result<Kit, String> {
    let served = Served::setup(args.seed)?;
    let layout = served.layout.clone();
    // Both arms drive the one client, in turn; the stream's cycle has an
    // odd length, so both send every request of it.
    let served = RefCell::new(served);
    arms.interleave(
        args.seconds,
        || {
            let mut s = served.borrow_mut();
            let t = Instant::now();
            s.send_next(None)?;
            Ok(t.elapsed())
        },
        || {
            let mut s = served.borrow_mut();
            let t = Instant::now();
            let (recorder, op) = root("eco-served-120");
            let reply = s.send_next(Some(&op))?;
            op.end();
            let timed = t.elapsed();
            let mut daemon = reply
                .span_tree()
                .ok_or("TRACE reply carried no span tree")?;
            // The request span is labelled with its trace id; dropping it
            // lets the collapsed stacks of many requests merge.
            daemon.root.label.clear();
            // The daemon's request tree goes inside the round trip the
            // client timed: the round trip's self time is the rest of the
            // `wire_server` residual.
            let mut tree = recorder.finish();
            tree.root
                .children
                .iter_mut()
                .find(|n| n.name == "round_trip")
                .ok_or("traced request recorded no round trip")?
                .children
                .push(daemon.root);
            let expanded = tree
                .find_all("net")
                .iter()
                .filter(|n| n.counter("failed").is_none())
                .filter_map(|n| n.counter("expanded"))
                .sum();
            Ok((timed, tree, expanded))
        },
    );
    served.into_inner().finish(&mut out.problems)?;
    Ok(Kit::routed(&layout, RouterConfig::default()))
}

// ------------------------------------------------------------------- kit

/// The layer kit's input: the workload's primary die, its router
/// configuration, a routed in-process session of it, and the
/// `route_all` times already measured on it.
struct Kit {
    text: String,
    config: RouterConfig,
    twin: RoutingSession,
    route_all_ms: Vec<f64>,
}

impl Kit {
    /// A kit whose twin and `route_all` times come from three fresh
    /// routes of `layout`.
    fn routed(layout: &Layout, config: RouterConfig) -> Kit {
        let route = || {
            let mut s = workloads::session(layout.clone(), config.clone());
            let t = Instant::now();
            s.route_all();
            (s, ms_since(t))
        };
        let (_, first) = route();
        let (_, second) = route();
        let (twin, third) = route();
        Kit {
            text: format::write(layout),
            config,
            twin,
            route_all_ms: vec![first, second, third],
        }
    }

    fn run(mut self, args: &Args, out: &mut Outcome) -> Result<(), String> {
        let layout = die::parse(&self.text)?;

        let parse_ms = repeat(5, || {
            let t = Instant::now();
            black_box(format::parse(black_box(&self.text)).is_ok());
            ms_since(t)
        });
        out.metric("layout.parse_ms", "ms", median(&parse_ms), parse_ms.len());

        let build_ms = repeat(5, || {
            let input = layout.clone();
            let t = Instant::now();
            let s = workloads::session(input, self.config.clone());
            let ms = ms_since(t);
            drop(black_box(s));
            ms
        });
        out.metric("geom.build_ms", "ms", median(&build_ms), build_ms.len());
        geom_probes(&layout, args.seed, out);

        let n = self.route_all_ms.len();
        out.metric("session.route_all_ms", "ms", median(&self.route_all_ms), n);

        let stream = EcoStream::new(&layout);
        let bodies: Vec<String> = (0..stream.cycle()).map(|k| stream.request(k)).collect();
        session_probe(&mut self.twin, &bodies, out)?;
        served_probe(&self.text, &mut self.twin, &bodies, out)?;
        negotiate_probe(args.seed, out)
    }
}

fn repeat(n: usize, mut f: impl FnMut() -> f64) -> Vec<f64> {
    (0..n).map(|_| f()).collect()
}

/// Seeded plane-query sweeps on fresh `ShardedPlane`s of the die (each
/// sweep on its own fresh plane, so every query is a first query).
fn geom_probes(layout: &Layout, seed: u64, out: &mut Outcome) {
    const ORIGINS: usize = 4096;
    const SWEEPS: usize = 3;
    let plane = ShardedPlane::new(layout.to_plane());
    let bounds = plane.bounds();
    let mut rng = Rng::new(die::mix(seed, 0x6e0));
    let mut origins = Vec::with_capacity(ORIGINS);
    while origins.len() < ORIGINS {
        let x = bounds.xmin() + rng.below((bounds.xmax() - bounds.xmin()) as usize) as i64;
        let y = bounds.ymin() + rng.below((bounds.ymax() - bounds.ymin()) as usize) as i64;
        let p = Point::new(x, y);
        if plane.point_free(p) {
            origins.push(p);
        }
    }
    let rays: Vec<(Point, Dir, i64)> = origins
        .iter()
        .flat_map(|&p| Dir::ALL.map(|d| (p, d, plane.ray_hit(p, d).stop)))
        .collect();
    let segments: Vec<(Point, Point)> = origins
        .iter()
        .map(|&p| {
            let len = 1 + rng.below(64) as i64;
            if rng.below(2) == 0 {
                (p, Point::new((p.x + len).min(bounds.xmax()), p.y))
            } else {
                (p, Point::new(p.x, (p.y + len).min(bounds.ymax())))
            }
        })
        .collect();
    let (mut ray_ns, mut corner_ns, mut segment_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut buf = Vec::new();
    for _ in 0..SWEEPS {
        let fresh = ShardedPlane::new(layout.to_plane());
        let t = Instant::now();
        for &(p, d, _) in &rays {
            black_box(fresh.ray_hit(p, d));
        }
        ray_ns.push(t.elapsed().as_nanos() as f64 / rays.len() as f64);
        let t = Instant::now();
        for &(p, d, stop) in &rays {
            fresh.corner_candidates_into(p, d, stop, &mut buf);
            black_box(buf.len());
        }
        corner_ns.push(t.elapsed().as_nanos() as f64 / rays.len() as f64);
        let t = Instant::now();
        for &(a, b) in &segments {
            black_box(fresh.segment_free(a, b));
        }
        segment_ns.push(t.elapsed().as_nanos() as f64 / segments.len() as f64);
    }
    out.metric(
        "geom.ray_hit_ns",
        "ns",
        median(&ray_ns),
        SWEEPS * rays.len(),
    );
    out.metric(
        "geom.corner_ns",
        "ns",
        median(&corner_ns),
        SWEEPS * rays.len(),
    );
    out.metric(
        "geom.segment_free_ns",
        "ns",
        median(&segment_ns),
        SWEEPS * segments.len(),
    );

    // Every obstacle there and back, as `move_cell` does to the plane.
    let mut moving = ShardedPlane::new(layout.to_plane());
    let count = moving.obstacle_count();
    let mut translate_us = Vec::new();
    for _ in 0..SWEEPS {
        let t = Instant::now();
        for id in 0..count {
            black_box(moving.translate_obstacle(id, 1, 0));
            black_box(moving.translate_obstacle(id, -1, 0));
        }
        translate_us.push(t.elapsed().as_secs_f64() * 1e6 / (2 * count.max(1)) as f64);
    }
    out.metric(
        "geom.translate_us",
        "us",
        median(&translate_us),
        SWEEPS * 2 * count,
    );
}

/// Replays `bodies` op by op on the in-process twin, timing the dirty
/// marking (`rip_up`/`move_cell`) and each `reroute_dirty`, and
/// counting how many rerouted nets actually changed their wire.
fn session_probe(
    twin: &mut RoutingSession,
    bodies: &[String],
    out: &mut Outcome,
) -> Result<(), String> {
    let (mut mark_us, mut dirty, mut reroute_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut considered, mut changed) = (0usize, 0usize);
    for body in bodies {
        let ops = parse_eco(body).map_err(|e| format!("probe body: {e}"))?;
        let mut ripped = BTreeSet::new();
        for op in &ops {
            match op {
                EcoOp::RipUp { net } => {
                    let id = twin.layout().net_by_name(net).ok_or("probe net")?;
                    let t = Instant::now();
                    twin.rip_up(id);
                    mark_us.push(ms_since(t) * 1e3);
                    ripped.insert(id);
                }
                EcoOp::MoveCell { cell, dx, dy } => {
                    let id = twin.layout().cell_by_name(cell).ok_or("probe cell")?;
                    let t = Instant::now();
                    twin.move_cell(id, *dx, *dy).map_err(|e| e.to_string())?;
                    mark_us.push(ms_since(t) * 1e3);
                }
                EcoOp::Reroute => {
                    let nets = twin.dirty_nets();
                    dirty.push(nets.len() as f64);
                    let before: Vec<_> = nets
                        .iter()
                        .filter(|id| !ripped.contains(*id))
                        .filter_map(|&id| twin.route(id).map(|r| (id, polylines(r))))
                        .collect();
                    let t = Instant::now();
                    twin.reroute_dirty();
                    reroute_ms.push(ms_since(t));
                    considered += before.len();
                    changed += before
                        .iter()
                        .filter(|(id, old)| twin.route(*id).map(polylines).as_ref() != Some(old))
                        .count();
                    ripped.clear();
                }
                _ => return Err(format!("unexpected probe op {op}")),
            }
        }
    }
    out.metric("session.mark_us", "us", median(&mark_us), mark_us.len());
    out.metric("session.dirty_nets", "count", mean(&dirty), dirty.len());
    out.metric(
        "session.reroute_ms",
        "ms",
        median(&reroute_ms),
        reroute_ms.len(),
    );
    out.metric(
        "session.reroute_useful_share",
        "ratio",
        changed as f64 / considered.max(1) as f64,
        considered,
    );
    Ok(())
}

fn polylines(route: &gcr_core::NetRoute) -> Vec<Polyline> {
    route
        .connections
        .iter()
        .map(|c| c.polyline.clone())
        .collect()
}

/// The served path on the workload's die: each body goes once over
/// loopback and once through `parse_eco` + `apply_eco` on the twin, in
/// turn, so the daemon's overhead is a paired difference. Also times the
/// wire codec on the exchanged bytes and the registry lookup.
fn served_probe(
    text: &str,
    twin: &mut RoutingSession,
    bodies: &[String],
    out: &mut Outcome,
) -> Result<(), String> {
    let daemon = Daemon::start()?;
    let mut client = daemon.connect()?;
    let sid = served::open_routed(&mut client, text)?;
    let (mut apply_ms, mut overhead_ms) = (Vec::new(), Vec::new());
    let (mut encode_us, mut decode_us, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for body in bodies {
        let request = Request::Eco {
            sid,
            eco: body.clone(),
        };
        let t = Instant::now();
        let response = client
            .request(&request)
            .map_err(|e| format!("probe ECO: {e}"))?;
        let round_trip = ms_since(t);

        let t = Instant::now();
        let ops = parse_eco(body).map_err(|e| e.to_string())?;
        apply_eco(twin, &ops).map_err(|e| e.to_string())?;
        let applied = ms_since(t);
        apply_ms.push(applied);
        overhead_ms.push(round_trip - applied);

        let (mut req_bytes, mut resp_bytes) = (Vec::new(), Vec::new());
        let t = Instant::now();
        write_request(&mut req_bytes, &request).map_err(|e| e.to_string())?;
        write_response(&mut resp_bytes, &response).map_err(|e| e.to_string())?;
        encode_us.push(ms_since(t) * 1e3);
        let t = Instant::now();
        black_box(read_request(&mut req_bytes.as_slice()).map_err(|e| e.to_string())?);
        black_box(read_response(&mut resp_bytes.as_slice()).map_err(|e| e.to_string())?);
        decode_us.push(ms_since(t) * 1e3);
        bytes.push((req_bytes.len() + resp_bytes.len()) as f64);
    }
    const LOOKUPS: usize = 20_000;
    let lookup_us = repeat(5, || {
        let t = Instant::now();
        for _ in 0..LOOKUPS {
            let entry = daemon.registry().get(sid);
            let guard = entry.as_ref().map(|e| e.lock().is_ok());
            black_box(guard);
        }
        ms_since(t) * 1e3 / LOOKUPS as f64
    });
    daemon.stop(client)?;
    let n = bodies.len();
    out.metric("eco.apply_ms", "ms", median(&apply_ms), n);
    out.metric("server.overhead_ms", "ms", median(&overhead_ms), n);
    out.metric("proto.encode_us", "us", median(&encode_us), n);
    out.metric("proto.decode_us", "us", median(&decode_us), n);
    out.metric("proto.bytes_per_op", "bytes", mean(&bytes), n);
    out.metric("registry.lookup_us", "us", median(&lookup_us), 5 * LOOKUPS);
    Ok(())
}

/// Negotiation on the panel's first die (its net order permuted by the
/// seed, as in `negotiate-120`): rounds, reroutes, residual overflow,
/// the congestion analysis, and the time per round beyond a plain
/// `route_all` of the same die.
fn negotiate_probe(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let layout = workloads::negotiate_setup(seed)?.swap_remove(0);
    let mut plain = workloads::session(layout.clone(), die::congested_config());
    let t = Instant::now();
    plain.route_all();
    let plain_ms = ms_since(t);
    let t = Instant::now();
    let (negotiated, report) = workloads::negotiate_die(layout, None);
    let negotiate_ms = ms_since(t);
    let congestion_ms = repeat(3, || {
        let t = Instant::now();
        black_box(negotiated.congestion());
        ms_since(t)
    });
    let rounds = report.iterations;
    out.metric("negotiate.rounds", "count", rounds as f64, 1);
    out.metric("negotiate.rerouted", "count", report.rerouted as f64, 1);
    out.metric(
        "negotiate.overflow",
        "count",
        report.after.total_overflow() as f64,
        1,
    );
    out.metric(
        "negotiate.congestion_ms",
        "ms",
        median(&congestion_ms),
        congestion_ms.len(),
    );
    out.metric(
        "negotiate.round_ms",
        "ms",
        (negotiate_ms - plain_ms) / rounds.max(1) as f64,
        rounds,
    );
    let mut fnv = Fnv::default();
    fnv.write(&check::digest(&negotiated).to_le_bytes());
    out.meta(
        "negotiate_probe_digest",
        format!("\"{:016x}\"", fnv.finish()),
    );
    Ok(())
}
