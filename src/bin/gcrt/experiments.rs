//! The paper's experiments: one function per table `gcrt repro` prints.
//! Every scene is seeded through [`rng_for`], so the tables are
//! reproducible.

use std::time::{Duration, Instant};

use gcr::detail::route_details;
use gcr::geom::{PlaneIndex, Point, Rect, ShardedPlane};
use gcr::grid::{grid_astar, lee_moore};
use gcr::hightower::{hightower, HightowerConfig};
use gcr::layout::{Layout, NetId, Pin};
use gcr::router::{
    placement_feedback, route_two_points, FeedbackOptions, RouterConfig, RoutingSession,
};
use gcr::steiner::{exact_rsmt, iterated_one_steiner};
use gcr::workload::{fixtures, netlists, placements, random_free_point, rng_for};

use super::table::Table;

/// An experiment's id, a one-line title for `--list`, and the function
/// that builds its table.
type Experiment = (&'static str, &'static str, fn() -> Table);

/// Every experiment `gcrt repro` runs, in print order.
pub const CATALOG: [Experiment; 10] = [
    ("e1", "Figure 1: node expansion, gridless vs grid", e1_fig1),
    ("e2", "Figure 2: the inverted corner", e2_fig2),
    ("e3", "optimality vs Lee-Moore", e3_optimality),
    ("e4", "search effort scaling", e4_scaling),
    ("e5", "Hightower line probing", e5_hightower),
    ("e6", "multi-terminal Steiner quality", e6_multiterm),
    ("e7", "global vs detailed routing effort", e7_fullflow),
    ("e8", "two-pass congestion routing", e8_congestion),
    ("e9", "successor-generation ablation", e9_ablation),
    ("e10", "placement feedback convergence", e10_feedback),
];

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

fn micros(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e6)
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A macro-grid layout with `rows × cols` cells, deterministic per case.
#[must_use]
fn grid_layout(rows: usize, cols: usize, case: u64) -> Layout {
    let params = placements::MacroGridParams {
        rows,
        cols,
        ..Default::default()
    };
    placements::macro_grid(&params, &mut rng_for("layout", case))
}

/// E1 (Figure 1): node expansion on the reconstructed figure scene.
#[must_use]
fn e1_fig1() -> Table {
    let (plane, s, d) = fixtures::figure1();
    let config = RouterConfig::default();
    let mut t = Table::new(
        "E1 (Figure 1) — node expansion, gridless A* vs grid search",
        &[
            "router",
            "pitch",
            "path length",
            "expanded",
            "generated",
            "touched",
            "peak open",
            "time (µs)",
        ],
    );
    let (g, dt) = timed(|| route_two_points(&plane, s, d, &config).expect("figure 1 routes"));
    t.row([
        "gridless A* (paper)".to_string(),
        "—".into(),
        g.cost.primary.to_string(),
        g.stats.expanded.to_string(),
        g.stats.generated.to_string(),
        g.stats.touched.to_string(),
        g.stats.max_open.to_string(),
        micros(dt),
    ]);
    for pitch in [1, 2] {
        let (ga, dt) = timed(|| grid_astar(&plane, s, d, pitch).expect("figure 1 routes"));
        t.row([
            "grid A* (ĥ = manhattan)".to_string(),
            pitch.to_string(),
            ga.length.to_string(),
            ga.stats.expanded.to_string(),
            ga.stats.generated.to_string(),
            ga.stats.touched.to_string(),
            ga.stats.max_open.to_string(),
            micros(dt),
        ]);
        let (lm, dt) = timed(|| lee_moore(&plane, s, d, pitch).expect("figure 1 routes"));
        t.row([
            "Lee-Moore (ĥ = 0)".to_string(),
            pitch.to_string(),
            lm.length.to_string(),
            lm.stats.expanded.to_string(),
            lm.stats.generated.to_string(),
            lm.stats.touched.to_string(),
            lm.stats.max_open.to_string(),
            micros(dt),
        ]);
    }
    t.note("All routers return the same optimal length; the gridless successor generator expands orders of magnitude fewer nodes (the paper's \"surprisingly few nodes\").");
    t.note("`generated` counts successors on every row: each grid edge listed, and each ray stop the gridless search placed on OPEN. `touched` and `peak open` count different things per engine: A* (both rows) creates a node only for a state it expands, so `touched` is `expanded` + 1, and its OPEN holds one entry per ray or per grid edge not beaten by an earlier one; Lee-Moore's `touched` is every cell it reached and its `peak open` the cells queued at once.");
    t
}

/// E2 (Figure 2): the inverted corner and the ε preference.
///
/// Both route directions are searched: without ε the choice between the
/// two equal-length routes is an arbitrary tie-break (and flips with the
/// direction); with ε the cell-hugging route wins every time.
#[must_use]
fn e2_fig2() -> Table {
    let (plane, a, b, block) = fixtures::figure2();
    let mut t = Table::new(
        "E2 (Figure 2) — the inverted corner",
        &[
            "cost function",
            "direction",
            "length",
            "ε penalties",
            "bend point",
            "bend hugs the cell?",
        ],
    );
    for (label, penalty) in [("with ε (paper)", true), ("without ε", false)] {
        for (dir, s, d) in [("a → b", a, b), ("b → a", b, a)] {
            let mut config = RouterConfig::default();
            config.corner_penalty(penalty);
            let r = route_two_points(&plane, s, d, &config).expect("figure 2 routes");
            let bend = r
                .polyline
                .points()
                .iter()
                .copied()
                .find(|p| *p != s && *p != d)
                .unwrap_or(s);
            t.row([
                label.to_string(),
                dir.to_string(),
                r.cost.primary.to_string(),
                r.cost.penalty.to_string(),
                bend.to_string(),
                if block.on_boundary(bend) {
                    "yes".into()
                } else {
                    "no".to_string()
                },
            ]);
        }
    }
    t.note("Both routes have exactly the same length (55). Without ε the tie-break is arbitrary (it flips with the search direction); with ε the router \"automatically pick[s] the preferred route\" that hugs the cell, in every direction.");
    t
}

/// E3: exact optimality of the gridless router vs Lee–Moore.
#[must_use]
fn e3_optimality() -> Table {
    let config = RouterConfig::default();
    let mut t = Table::new(
        "E3 — gridless A* is exactly optimal (vs Lee-Moore, pitch 1)",
        &[
            "cells",
            "connections",
            "equal cost",
            "mean expanded (gridless)",
            "mean expanded (Lee-Moore)",
            "expansion ratio",
        ],
    );
    for (rows, cols) in [(2, 2), (4, 4), (6, 6)] {
        let layout = grid_layout(rows, cols, (rows * 100 + cols) as u64);
        let plane = ShardedPlane::new(layout.to_plane());
        let mut rng = rng_for("e3", (rows * cols) as u64);
        let mut equal = 0usize;
        let mut total = 0usize;
        let mut ge = Vec::new();
        let mut le = Vec::new();
        for _ in 0..20 {
            let a = random_free_point(&plane, &mut rng);
            let b = random_free_point(&plane, &mut rng);
            let (Ok(g), Ok(l)) = (
                route_two_points(&plane, a, b, &config),
                lee_moore(&plane, a, b, 1),
            ) else {
                continue;
            };
            total += 1;
            if g.cost.primary == l.length {
                equal += 1;
            }
            ge.push(g.stats.expanded as f64);
            le.push(l.stats.expanded as f64);
        }
        let ratio = mean(&le) / mean(&ge).max(1.0);
        t.row([
            (rows * cols).to_string(),
            total.to_string(),
            format!("{equal}/{total}"),
            format!("{:.1}", mean(&ge)),
            format!("{:.1}", mean(&le)),
            format!("{ratio:.0}x"),
        ]);
    }
    t.note("\"Equal cost\" must be n/n on every row: the gridless search keeps the full thoroughness of the Lee-Moore approach.");
    t
}

/// E4: efficiency scaling — grid node counts grow with area/pitch², the
/// gridless search does not.
#[must_use]
fn e4_scaling() -> Table {
    let config = RouterConfig::default();
    let mut t = Table::new(
        "E4 — search effort vs problem size and grid pitch",
        &[
            "cells",
            "router",
            "pitch",
            "mean expanded",
            "mean touched",
            "mean time (µs)",
        ],
    );
    for (rows, cols) in [(2, 2), (4, 4), (6, 6), (8, 8)] {
        let cells = rows * cols;
        let layout = grid_layout(rows, cols, cells as u64);
        let plane = ShardedPlane::new(layout.to_plane());
        let mut rng = rng_for("e4", cells as u64);
        // Endpoints snapped to the coarsest pitch so every router (pitch
        // 1, 2 and 4) can reach them exactly.
        let mut snapped = || loop {
            let p = random_free_point(&plane, &mut rng);
            let q = Point::new(p.x - p.x.rem_euclid(4), p.y - p.y.rem_euclid(4));
            if plane.point_free(q) {
                return q;
            }
        };
        let endpoints: Vec<(Point, Point)> = (0..10).map(|_| (snapped(), snapped())).collect();
        let run = |f: &dyn Fn(Point, Point) -> Option<(usize, usize)>| {
            let mut ex = Vec::new();
            let mut to = Vec::new();
            let start = Instant::now();
            for &(a, b) in &endpoints {
                if let Some((e, t)) = f(a, b) {
                    ex.push(e as f64);
                    to.push(t as f64);
                }
            }
            let per = start.elapsed().as_secs_f64() * 1e6 / endpoints.len() as f64;
            (mean(&ex), mean(&to), per)
        };
        let (e, to, us) = run(&|a, b| {
            route_two_points(&plane, a, b, &config)
                .ok()
                .map(|r| (r.stats.expanded, r.stats.touched))
        });
        t.row([
            cells.to_string(),
            "gridless A*".into(),
            "—".into(),
            format!("{e:.1}"),
            format!("{to:.1}"),
            format!("{us:.1}"),
        ]);
        for pitch in [4, 2, 1] {
            let (e, to, us) = run(&|a, b| {
                lee_moore(&plane, a, b, pitch)
                    .ok()
                    .map(|r| (r.stats.expanded, r.stats.touched))
            });
            t.row([
                cells.to_string(),
                "Lee-Moore".into(),
                pitch.to_string(),
                format!("{e:.1}"),
                format!("{to:.1}"),
                format!("{us:.1}"),
            ]);
        }
    }
    t.note("Lee-Moore effort grows with area/pitch² (the paper: \"large amounts of memory and processor time\"); gridless effort tracks the obstacle count only.");
    t
}

/// E5: Hightower line probing — fast but incomplete.
#[must_use]
fn e5_hightower() -> Table {
    let config = RouterConfig::default();
    let ht_config = HightowerConfig::default();
    let mut t = Table::new(
        "E5 — line probing vs maze search (success and effort)",
        &[
            "scenario",
            "router",
            "success",
            "mean effort (nodes/lines)",
            "mean time (µs)",
        ],
    );
    // Random general-cell scenes.
    let layout = grid_layout(4, 4, 55);
    let plane = ShardedPlane::new(layout.to_plane());
    let mut rng = rng_for("e5", 0);
    let pairs: Vec<(Point, Point)> = (0..40)
        .map(|_| {
            (
                random_free_point(&plane, &mut rng),
                random_free_point(&plane, &mut rng),
            )
        })
        .collect();
    let mut ht_ok = 0;
    let mut ht_lines = Vec::new();
    let mut ht_time = Duration::ZERO;
    let mut as_expanded = Vec::new();
    let mut as_time = Duration::ZERO;
    for &(a, b) in &pairs {
        let (r, dt) = timed(|| hightower(&plane, a, b, &ht_config));
        ht_time += dt;
        if let Ok(r) = r {
            ht_ok += 1;
            ht_lines.push(r.lines as f64);
        }
        let (r, dt) = timed(|| route_two_points(&plane, a, b, &config));
        as_time += dt;
        as_expanded.push(r.expect("gridless always succeeds").stats.expanded as f64);
    }
    let n = pairs.len();
    t.row([
        "random scenes".to_string(),
        "Hightower".into(),
        format!("{ht_ok}/{n}"),
        format!("{:.1}", mean(&ht_lines)),
        format!("{:.1}", ht_time.as_secs_f64() * 1e6 / n as f64),
    ]);
    t.row([
        "random scenes".to_string(),
        "gridless A*".into(),
        format!("{n}/{n}"),
        format!("{:.1}", mean(&as_expanded)),
        format!("{:.1}", as_time.as_secs_f64() * 1e6 / n as f64),
    ]);
    // The spiral.
    let (plane, s, d) = fixtures::spiral();
    let tight = HightowerConfig {
        max_level: 3,
        max_lines: 400,
    };
    let ht = hightower(&plane, s, d, &tight);
    let lm = lee_moore(&plane, s, d, 1).expect("maze search solves the spiral");
    let gl = route_two_points(&plane, s, d, &config).expect("gridless solves the spiral");
    t.row([
        "spiral".to_string(),
        "Hightower (level ≤ 3)".into(),
        if ht.is_ok() {
            "1/1".to_string()
        } else {
            "0/1".into()
        },
        "—".into(),
        "—".into(),
    ]);
    t.row([
        "spiral".to_string(),
        "Lee-Moore".into(),
        "1/1".into(),
        lm.stats.expanded.to_string(),
        "—".into(),
    ]);
    t.row([
        "spiral".to_string(),
        "gridless A*".into(),
        "1/1".into(),
        gl.stats.expanded.to_string(),
        "—".into(),
    ]);
    t.note("Line probing is cheap when it works and fails on the spiral — the paper's motivation for combining line segments with the thoroughness of maze search.");
    t
}

/// E6: multi-terminal quality — segment connections vs pin-only trees.
#[must_use]
fn e6_multiterm() -> Table {
    let mut t = Table::new(
        "E6 — Steiner quality of the multi-terminal extension",
        &[
            "terminals",
            "nets",
            "segment-tree length",
            "pin-tree length",
            "saving",
            "1-Steiner (free)",
            "exact RSMT (free)",
        ],
    );
    for k in [3, 5, 8] {
        let mut layout = grid_layout(3, 3, 600 + k as u64);
        let ids =
            netlists::add_multi_terminal_nets(&mut layout, 15, k, &mut rng_for("e6", k as u64));
        let mut session = RoutingSession::gridless(layout.clone(), RouterConfig::default());
        let mut seg_total = 0i64;
        let mut pin_total = 0i64;
        let mut ios_total = 0i64;
        let mut exact_total: Option<i64> = Some(0);
        let mut nets = 0;
        for id in ids {
            let pin = session.route_net_pin_tree(id);
            let (Ok(seg), Ok(pin)) = (session.route_net(id), pin) else {
                continue;
            };
            nets += 1;
            seg_total += seg.wire_length();
            pin_total += pin.wire_length();
            let pins: Vec<Point> = layout
                .net(id)
                .expect("net exists")
                .all_pins()
                .map(|p| p.position)
                .collect();
            ios_total += iterated_one_steiner(&pins).length;
            exact_total = match (exact_total, exact_rsmt(&pins)) {
                (Some(t), Some(e)) => Some(t + e.length),
                _ => None,
            };
        }
        let saving = 100.0 * (pin_total - seg_total) as f64 / pin_total.max(1) as f64;
        t.row([
            k.to_string(),
            nets.to_string(),
            seg_total.to_string(),
            pin_total.to_string(),
            format!("{saving:.1}%"),
            ios_total.to_string(),
            exact_total.map_or("—".to_string(), |e| e.to_string()),
        ]);
    }
    t.note("Segment-tree = the paper's rule (\"all line segments … are potential connection points\"); pin-tree = the strawman spanning tree. The obstacle-free references bound what any router could achieve.");
    t
}

/// E7: the full flow — global routing time vs detailed routing time.
#[must_use]
fn e7_fullflow() -> Table {
    let mut t = Table::new(
        "E7 — chip assembly: global vs detailed routing effort",
        &[
            "workload",
            "nets",
            "global time (µs)",
            "detail time (µs)",
            "channels",
            "total tracks",
            "max tracks",
            "vias",
        ],
    );
    for (label, rows, cols, two_pin, multi) in [
        ("small", 2, 2, 12, 3),
        ("medium", 3, 3, 30, 8),
        ("large", 4, 5, 60, 15),
    ] {
        let mut layout = grid_layout(rows, cols, 700 + rows as u64);
        let mut rng = rng_for("e7", rows as u64 * 10 + cols as u64);
        netlists::add_two_pin_nets(&mut layout, two_pin, &mut rng);
        netlists::add_multi_terminal_nets(&mut layout, multi, 4, &mut rng);
        let ((session, routing), global_time) = timed(|| {
            let mut session = RoutingSession::gridless(layout.clone(), RouterConfig::default());
            let routing = session.route_all();
            (session, routing)
        });
        let (report, detail_time) = timed(|| route_details(session.plane(), &routing));
        t.row([
            label.to_string(),
            (two_pin + multi).to_string(),
            micros(global_time),
            micros(detail_time),
            report.channel_count().to_string(),
            report.total_tracks().to_string(),
            report.max_tracks().to_string(),
            report.total_vias().to_string(),
        ]);
    }
    t.note("The paper reports global routing always cheaper than detailed routing + layer assignment on its production detailed router; our substrate implements track assignment only, so the absolute balance differs.");
    t
}

/// The congested-alley layout used by E8: two big cells with a narrow
/// alley and `nets` nets whose shortest paths all run through it.
#[must_use]
fn congestion_layout(nets: usize) -> (Layout, Vec<NetId>) {
    let mut l = Layout::new(Rect::new(0, 0, 200, 120).unwrap());
    l.add_cell("west", Rect::new(40, 20, 95, 100).unwrap())
        .unwrap();
    l.add_cell("east", Rect::new(105, 20, 160, 100).unwrap())
        .unwrap();
    let mut ids = Vec::new();
    for i in 0..nets {
        let x = 96 + (i as i64 % 4) * 2;
        let id = l.add_net(format!("n{i}"));
        let t0 = l.add_terminal(id, "s");
        l.add_pin(t0, Pin::floating(Point::new(x, 0))).unwrap();
        let t1 = l.add_terminal(id, "t");
        l.add_pin(t1, Pin::floating(Point::new(x, 110))).unwrap();
        ids.push(id);
    }
    (l, ids)
}

/// E8: congestion-aware two-pass routing and order independence.
#[must_use]
fn e8_congestion() -> Table {
    let mut t = Table::new(
        "E8 — two-pass congestion routing over the narrow alley",
        &["quantity", "pass 1", "pass 2"],
    );
    let (layout, ids) = congestion_layout(4);
    let mut config = RouterConfig::default();
    config.wire_pitch(5).congestion_weight(6);
    let mut session = RoutingSession::gridless(layout, config);
    let report = session.route_two_pass();
    t.row([
        "total passage overflow".to_string(),
        report.before.total_overflow().to_string(),
        report.after.total_overflow().to_string(),
    ]);
    t.row([
        "max passage overflow".to_string(),
        report.before.max_overflow().to_string(),
        report.after.max_overflow().to_string(),
    ]);
    t.row([
        "total wire length".to_string(),
        "—".to_string(),
        report.routing.wire_length().to_string(),
    ]);
    t.row([
        "nets rerouted".to_string(),
        "—".to_string(),
        report.rerouted.to_string(),
    ]);
    // Order independence of pass 1: route nets one by one in two different
    // orders and compare per-net lengths.
    let mut length = |id| {
        session
            .route_net(id)
            .expect("alley nets route")
            .wire_length()
    };
    let forward: Vec<i64> = ids.iter().map(|&id| length(id)).collect();
    let mut backward: Vec<i64> = ids.iter().rev().map(|&id| length(id)).collect();
    backward.reverse();
    let independent = forward == backward;
    t.row([
        "pass-1 order independent".to_string(),
        if independent {
            "yes".to_string()
        } else {
            "NO".into()
        },
        "—".to_string(),
    ]);
    t.note("Independent net routing means pass 1 has no net-ordering problem; the reroute trades a little wire length for the overflow reduction.");
    t
}

/// E9 (ablation): the value of "extend any path as far … as is feasible"
/// — the paper's maximal ray jumps vs single steps between adjacent Hanan
/// grid lines (a coarse-grid search halfway between Lee–Moore and the
/// paper). Both are complete and optimal; ray jumps keep node counts
/// "surprisingly few".
#[must_use]
fn e9_ablation() -> Table {
    let anchored_cfg = RouterConfig::default();
    let mut hanan_cfg = RouterConfig::default();
    hanan_cfg.hanan_walk(true);
    let mut t = Table::new(
        "E9 (ablation) — ray jumps vs Hanan-grid walking",
        &[
            "cells",
            "connections",
            "equal cost",
            "mean expanded (ray jumps)",
            "mean expanded (hanan walk)",
            "mean generated (ray jumps)",
            "mean generated (hanan walk)",
        ],
    );
    for (rows, cols) in [(2, 2), (4, 4), (6, 6)] {
        let cells = rows * cols;
        let layout = grid_layout(rows, cols, 900 + cells as u64);
        let plane = ShardedPlane::new(layout.to_plane());
        let mut rng = rng_for("e9", cells as u64);
        let mut equal = 0;
        let mut total = 0;
        let (mut ae, mut he, mut ag, mut hg) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for _ in 0..20 {
            let a = random_free_point(&plane, &mut rng);
            let b = random_free_point(&plane, &mut rng);
            let (Ok(x), Ok(y)) = (
                route_two_points(&plane, a, b, &anchored_cfg),
                route_two_points(&plane, a, b, &hanan_cfg),
            ) else {
                continue;
            };
            total += 1;
            if x.cost.primary == y.cost.primary {
                equal += 1;
            }
            ae.push(x.stats.expanded as f64);
            he.push(y.stats.expanded as f64);
            ag.push(x.stats.generated as f64);
            hg.push(y.stats.generated as f64);
        }
        t.row([
            cells.to_string(),
            total.to_string(),
            format!("{equal}/{total}"),
            format!("{:.1}", mean(&ae)),
            format!("{:.1}", mean(&he)),
            format!("{:.1}", mean(&ag)),
            format!("{:.1}", mean(&hg)),
        ]);
    }
    // The spiral: when the heuristic misleads, every detour costs the
    // walker one expansion per crossed grid line.
    let (plane, s, d) = fixtures::spiral();
    let ray = route_two_points(&plane, s, d, &anchored_cfg).expect("spiral routes");
    let walk = route_two_points(&plane, s, d, &hanan_cfg).expect("spiral routes");
    t.row([
        "spiral".to_string(),
        "1".into(),
        if ray.cost.primary == walk.cost.primary {
            "1/1".into()
        } else {
            "0/1".to_string()
        },
        ray.stats.expanded.to_string(),
        walk.stats.expanded.to_string(),
        ray.stats.generated.to_string(),
        walk.stats.generated.to_string(),
    ]);
    t.note("Identical optima in every case (Hanan's theorem). On heuristic-friendly instances the walk is only modestly worse in expansions (and generates fewer successors per node); the decisive factor versus Lee-Moore is abandoning the uniform grid (E1/E4). Ray jumps pull ahead where the heuristic misleads — detours cost the walker one expansion per crossed grid line (spiral row).");
    t
}

/// E10: the placement-feedback loop the paper leaves open ("one must be
/// concerned about convergence … It has not been shown that this approach
/// is guaranteed to converge").
#[must_use]
fn e10_feedback() -> Table {
    let mut t = Table::new(
        "E10 — placement feedback: widen congested passages and reroute",
        &[
            "workload",
            "iteration",
            "total overflow",
            "max overflow",
            "wire length",
            "widened by",
        ],
    );
    let cases: Vec<(&str, Layout, i64)> = vec![
        ("alley ×4 nets", congestion_layout(4).0, 5),
        ("alley ×8 nets", congestion_layout(8).0, 5),
        (
            "macro grid",
            {
                let mut l = grid_layout(3, 3, 1000);
                let mut rng = rng_for("e10", 0);
                netlists::add_two_pin_nets(&mut l, 30, &mut rng);
                l
            },
            4,
        ),
    ];
    for (label, layout, pitch) in cases {
        let mut config = RouterConfig::default();
        config.wire_pitch(pitch);
        let (_, report) = placement_feedback(&layout, &config, FeedbackOptions::default());
        for (i, rec) in report.iterations.iter().enumerate() {
            t.row([
                if i == 0 {
                    label.to_string()
                } else {
                    String::new()
                },
                i.to_string(),
                rec.total_overflow.to_string(),
                rec.max_overflow.to_string(),
                rec.wire_length.to_string(),
                rec.widened_by.to_string(),
            ]);
        }
        t.row([
            String::new(),
            if report.converged {
                "converged".to_string()
            } else {
                "NOT converged".into()
            },
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    t.note("Each iteration routes everything, widens the worst over-subscribed cell-to-cell passage by the missing capacity, and reroutes. Single-alley instances converge immediately (and pins shift with their cells, so wire length does not grow). The macro grid shows the paper's worry in miniature: overflow falls monotonically but the run ends unconverged — the residual overflow sits in cell-to-boundary strips this widener does not expand, and each widening re-routes load onto new passages. The convergence question the paper leaves open stays visibly open.");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_rows_cover_three_routers() {
        let t = e1_fig1();
        assert!(t.rows.len() >= 5);
        assert!(t.rows.iter().any(|r| r[0].contains("gridless")));
        // All lengths agree.
        let lengths: Vec<&String> = t.rows.iter().map(|r| &r[2]).collect();
        assert!(lengths.windows(2).all(|w| w[0] == w[1]), "{lengths:?}");
    }

    #[test]
    fn e2_prefers_hugging_with_epsilon() {
        let t = e2_fig2();
        // Rows 0 and 1 are the ε runs (both directions): always hugging.
        assert_eq!(t.rows[0][5], "yes", "ε run must hug: {:?}", t.rows[0]);
        assert_eq!(t.rows[1][5], "yes", "ε run must hug: {:?}", t.rows[1]);
        // One of the no-ε directions takes the inverted corner.
        assert!(
            t.rows[2][5] == "no" || t.rows[3][5] == "no",
            "tie-break should expose the inverted corner somewhere: {:?}",
            t.rows
        );
        // All four runs have the same length.
        assert!(t.rows.iter().all(|r| r[2] == t.rows[0][2]));
    }

    /// Every row of `t`'s "equal cost" column reads n/n, and there is
    /// at least one row.
    fn assert_always_equal(t: &Table) {
        let col = t
            .headers
            .iter()
            .position(|h| h == "equal cost")
            .expect("an equal cost column");
        assert!(!t.rows.is_empty(), "{}: no rows", t.title);
        for row in &t.rows {
            let (equal, total) = row[col].split_once('/').expect("an n/n cell");
            assert_eq!(equal, total, "optimality violated: {row:?}");
        }
    }

    #[test]
    fn e3_is_always_equal() {
        assert_always_equal(&e3_optimality());
    }

    #[test]
    fn e9_is_always_equal() {
        assert_always_equal(&e9_ablation());
    }

    #[test]
    fn e8_reduces_overflow() {
        let t = e8_congestion();
        let overflow = &t.rows[0];
        let before: i64 = overflow[1].parse().unwrap();
        let after: i64 = overflow[2].parse().unwrap();
        assert!(before > 0);
        assert!(after < before);
        let independent = t
            .rows
            .iter()
            .find(|r| r[0] == "pass-1 order independent")
            .expect("an order-independence row");
        assert_eq!(independent[1], "yes");
    }

    #[test]
    fn e6_segment_tree_never_longer() {
        let t = e6_multiterm();
        for row in &t.rows {
            let seg: i64 = row[2].parse().unwrap();
            let pin: i64 = row[3].parse().unwrap();
            assert!(seg <= pin, "segment tree longer than pin tree: {row:?}");
        }
    }
}
