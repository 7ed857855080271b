//! `gcrt` — route a `.gcl` layout file from the command line.
//!
//! ```text
//! gcrt route chip.gcl                 # route every net, print a report
//! gcrt route chip.gcl --two-pass      # congestion-aware two-pass flow
//! gcrt route chip.gcl --negotiate     # PathFinder negotiated congestion
//! gcrt route chip.gcl --engine grid   # pick the routing backend
//! gcrt route chip.gcl --sharded       # bucket-grid plane + corner tables
//! gcrt route chip.gcl --render 2      # ASCII-render layout + routes
//! gcrt eco chip.gcl changes.eco       # replay an ECO change list
//! gcrt check chip.gcl                 # parse + validate only
//! gcrt stats chip.gcl                 # layout statistics
//! gcrt gen big.gcl --nets 1000        # generate a seeded scaling instance
//! gcrt serve --addr 127.0.0.1:4242    # run the routing daemon
//! gcrt client 127.0.0.1:4242 ping     # drive a running daemon
//! gcrt repro e2 e3                    # print the paper's experiment tables
//! ```
//!
//! Every routing command drives a [`RoutingSession`]: the CLI is a thin
//! shell over the same owned, incremental API services embed — and
//! `gcrt serve` keeps those sessions warm behind the `gcr-service` wire
//! protocol (see `gcrt client` for the request verbs).

use std::process::ExitCode;

mod experiments;
mod table;

use gcr::detail::route_details;
use gcr::layout::{format, render};
use gcr::prelude::*;
use gcr::router::{apply_eco, parse_eco, NegotiationConfig};
use gcr::service::{
    ClientError, EngineKind, Reply, Request, RetryPolicy, RetryingClient, Server, ServerConfig,
    WireLimits,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("gcrt: {message}");
            ExitCode::from(2)
        }
    }
}

/// Each command's options: first those that consume the following
/// argument as their value, then the flags that take none. A command
/// accepts only the options it reads.
const COMMANDS: &[(&str, &[&str], &[&str])] = &[
    ("help", &[], &["--help"]),
    (
        "route",
        &["--engine", "--pitch", "--max-iters", "--render"],
        &[
            "--sharded",
            "--serial",
            "--no-epsilon",
            "--two-pass",
            "--negotiate",
        ],
    ),
    (
        "eco",
        &["--engine", "--pitch", "--render"],
        &["--sharded", "--serial", "--no-epsilon"],
    ),
    ("check", &[], &[]),
    ("stats", &[], &[]),
    (
        "gen",
        &[
            "--nets",
            "--seed",
            "--rows",
            "--cols",
            "--util",
            "--fill",
            "--spread",
            "--kfrac",
            "--max-terminals",
            "--locality",
            "--cell-max",
            "--channel",
        ],
        &[],
    ),
    (
        "serve",
        &[
            "--addr",
            "--capacity",
            "--workers",
            "--read-timeout-ms",
            "--max-body-kb",
            "--slow-log-ms",
            "--slow-log-cap",
            "--trace-sample-rate",
        ],
        &[],
    ),
    (
        "client",
        &["--timeout-ms", "--deadline-ms", "--retries"],
        &[],
    ),
    (
        "loadgen",
        &[
            "--clients",
            "--requests",
            "--nets",
            "--seed",
            "--kind",
            "--engine",
        ],
        &[],
    ),
    (
        "profile",
        &["--requests", "--nets", "--seed", "--engine"],
        &["--collapsed"],
    ),
    ("explain", &[], &[]),
    ("repro", &[], &["--list"]),
];

fn run(args: &[String]) -> Result<(), String> {
    // The command is the first argument that is not an option. Every
    // other argument is either one of the command's options, the value
    // of one of its value-taking options, or a positional. An option of
    // no command, an option of another command, or a value option with
    // nothing after it is an error rather than silently ignored.
    let command = match args.iter().find(|a| !a.starts_with("--")) {
        None => "help",
        Some(a) if a == "-h" => "help",
        Some(a) => a.as_str(),
    };
    let &(_, values, flags) = COMMANDS
        .iter()
        .find(|(name, _, _)| *name == command)
        .ok_or_else(|| format!("unknown command {command:?}; try gcrt help"))?;
    let mut positionals: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a.starts_with("--") {
            if values.contains(&a.as_str()) {
                if i + 1 == args.len() {
                    return Err(format!("option {a} requires a value"));
                }
                i += 2;
            } else if flags.contains(&a.as_str()) {
                i += 1;
            } else if COMMANDS
                .iter()
                .any(|(_, v, f)| v.contains(&a.as_str()) || f.contains(&a.as_str()))
            {
                return Err(format!(
                    "{a} is not an option of gcrt {command}; try gcrt help"
                ));
            } else {
                return Err(format!("unknown option {a}; try gcrt help"));
            }
            continue;
        }
        positionals.push(a);
        i += 1;
    }
    let path = positionals.get(1).copied();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value_of = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    // Strict form: an unparseable value is an error, not a silent
    // fallback to the default (a daemon sized by a typo is worse than
    // no daemon).
    let int_value = |name: &str| -> Result<Option<i64>, String> {
        match value_of(name) {
            None => Ok(None),
            Some(v) => v
                .parse::<i64>()
                .map(Some)
                .map_err(|_| format!("{name} requires an integer, got {v:?}")),
        }
    };
    let float_value = |name: &str| -> Result<Option<f64>, String> {
        match value_of(name) {
            None => Ok(None),
            Some(v) => v
                .parse::<f64>()
                .map(Some)
                .map_err(|_| format!("{name} requires a number, got {v:?}")),
        }
    };

    match command {
        "help" => {
            println!(
                "usage: gcrt <command> <file.gcl> [options]\n\n\
                 commands:\n\
                 \x20 route   route every net and print a report\n\
                 \x20 eco     replay a .eco change list against a routing session\n\
                 \x20 check   parse and validate the layout\n\
                 \x20 stats   print layout statistics\n\
                 \x20 gen     generate a seeded parametric instance (to file or stdout)\n\
                 \x20 serve   run the routing daemon (gcr-service)\n\
                 \x20 client  drive a running daemon: gcrt client <addr> <cmd> [...]\n\
                 \x20 loadgen measure a daemon's req/s ceiling: gcrt loadgen <addr> [...]\n\
                 \x20 profile trace requests against a daemon and render span trees:\n\
                 \x20         gcrt profile <addr> [--requests N] [--collapsed]\n\
                 \x20 explain per-net cost attribution: gcrt explain <addr> <sid> <net>\n\
                 \x20 repro   print the paper's experiment tables:\n\
                 \x20         gcrt repro [e1 ... e10 | all] [--list]\n\n\
                 route and eco options (eco: all but the congestion flows):\n\
                 \x20 --engine E      routing backend: gridless (default), grid,\n\
                 \x20                 lee-moore, hightower\n\
                 \x20 --sharded       bucket-grid plane index with corner tables\n\
                 \x20 --serial        disable parallel net routing\n\
                 \x20 --two-pass      congestion-aware two-pass routing\n\
                 \x20 --negotiate     PathFinder negotiated-congestion routing\n\
                 \x20 --max-iters N   negotiation iteration cap (default 16)\n\
                 \x20 --pitch N       wire pitch for passage capacities (default 1)\n\
                 \x20 --render N      ASCII-render at N layout units per column\n\
                 \x20 --no-epsilon    disable the inverted-corner penalty\n\n\
                 gen options (all deterministic in --seed):\n\
                 \x20 --nets N        nets to generate (default 1000; grid auto-scales)\n\
                 \x20 --seed N        generator seed (default 0)\n\
                 \x20 --rows/--cols N slot-grid dimensions (default: square for N nets)\n\
                 \x20 --util F        target die utilization (default 0.25)\n\
                 \x20 --fill F        fraction of slots holding a cell (default 0.9)\n\
                 \x20 --spread F      cell-size spread +-F of the mean (default 0.5)\n\
                 \x20 --kfrac F       fraction of k-pin nets (default 0.1)\n\
                 \x20 --max-terminals N  terminal ceiling for k-pin nets (default 4)\n\
                 \x20 --locality N    partner-cell slot radius, 0 = die-wide (default 3)\n\
                 \x20 --cell-max N    max cell edge (default 24)\n\
                 \x20 --channel N     routing corridor between cells (default 8)\n\n\
                 serve options:\n\
                 \x20 --addr A            bind address (default 127.0.0.1:4242)\n\
                 \x20 --capacity N        session-registry capacity (default 64)\n\
                 \x20 --workers N         worker threads (default: machine parallelism)\n\
                 \x20 --read-timeout-ms N per-connection read timeout, 0 = none\n\
                 \x20                     (default 30000)\n\
                 \x20 --max-body-kb N     request body size cap in KiB (default 4096)\n\
                 \x20 --slow-log-ms N     slow-request log threshold, 0 = panics only\n\
                 \x20                     (default 1000)\n\
                 \x20 --slow-log-cap N    slow-log ring capacity (default 256)\n\
                 \x20 --trace-sample-rate F  fraction of session ops traced ambiently\n\
                 \x20                     and retained in the slow log (default 0)\n\n\
                 client commands (<sid> comes from open's reply):\n\
                 \x20 ping | shutdown\n\
                 \x20 open <engine> <flat|sharded> <file.gcl>\n\
                 \x20 eco <sid> <file.eco>\n\
                 \x20 route <sid> [full]     ripup <sid> <net>\n\
                 \x20 negotiate <sid> [max-iters]\n\
                 \x20 trace <sid> <route|eco|negotiate|ripup> [...]\n\
                 \x20 explain <sid> <net>\n\
                 \x20 stats [<sid>]          dump <sid>\n\
                 \x20 metrics                close <sid>\n\n\
                 client options:\n\
                 \x20 --timeout-ms N      connect/read/write timeout (default 5000)\n\
                 \x20 --deadline-ms N     server-side DEADLINE on route/negotiate\n\
                 \x20 --retries N         retries for idempotent verbs (default 0);\n\
                 \x20                     backoff uses decorrelated jitter\n\n\
                 profile options (generates a seeded instance, traces ECO reroutes):\n\
                 \x20 --requests N        traced requests (default 3)\n\
                 \x20 --nets N            nets per generated layout (default 60)\n\
                 \x20 --seed N            generator seed (default 7)\n\
                 \x20 --engine E          session engine (default gridless)\n\
                 \x20 --collapsed         print only merged collapsed stacks\n\
                 \x20                     (flamegraph input)\n\n\
                 loadgen options (closed-loop; each client gets its own session):\n\
                 \x20 --clients N         concurrent client threads (default 4)\n\
                 \x20 --requests N        timed requests per client (default 100)\n\
                 \x20 --nets N            nets per generated layout (default 120)\n\
                 \x20 --seed N            base generator seed (default 7)\n\
                 \x20 --kind K            request mix: reroute (default) or ping\n\
                 \x20 --engine E          session engine (default gridless)"
            );
            Ok(())
        }
        "repro" => repro(&positionals[1..], flag("--list")),
        "check" => {
            let layout = load(path)?;
            layout.validate().map_err(|e| e.to_string())?;
            println!("ok: {layout}");
            Ok(())
        }
        "stats" => {
            let layout = load(path)?;
            println!("{layout}");
            println!("  min spacing : {}", layout.min_spacing());
            println!("  total HPWL  : {}", layout.total_hpwl());
            for net in layout.nets() {
                println!(
                    "  {net}: {} pin(s), hpwl {}",
                    net.all_pins().count(),
                    net.hpwl()
                );
            }
            Ok(())
        }
        "route" => {
            let render = int_value("--render")?;
            let layout = load(path)?;
            layout.validate().map_err(|e| e.to_string())?;
            let mut session = build_session(layout, args)?;
            if flag("--two-pass") && flag("--negotiate") {
                return Err("--two-pass and --negotiate are mutually exclusive".to_string());
            }
            let routing = if flag("--negotiate") {
                let mut ncfg = NegotiationConfig::default();
                if let Some(n) = int_value("--max-iters")? {
                    if n < 1 {
                        return Err("--max-iters must be at least 1".to_string());
                    }
                    ncfg.max_iters(n as usize);
                }
                let report = session.route_negotiated(&ncfg);
                println!(
                    "negotiation: overflow {} -> {} in {} iteration(s), {} reroute(s) ({})",
                    report.before.total_overflow(),
                    report.after.total_overflow(),
                    report.iterations,
                    report.rerouted,
                    if report.converged {
                        "converged"
                    } else {
                        "iteration cap reached"
                    }
                );
                report.routing
            } else if flag("--two-pass") {
                let report = session.route_two_pass();
                println!(
                    "congestion: overflow {} -> {} ({} nets rerouted)",
                    report.before.total_overflow(),
                    report.after.total_overflow(),
                    report.rerouted
                );
                report.routing
            } else {
                session.route_all()
            };
            println!("{}", session.stats());
            for route in &routing.routes {
                println!("  {route}");
            }
            for (id, err) in &routing.failures {
                println!("  FAILED {id}: {err}");
            }
            let plane = session.layout().to_plane();
            let detail = route_details(&plane, &routing);
            println!(
                "detail: {} channels, {} tracks (widest {}), {} vias",
                detail.channel_count(),
                detail.total_tracks(),
                detail.max_tracks(),
                detail.total_vias()
            );
            if let Some(scale) = render {
                render_routes(session.layout(), &routing, scale);
            }
            if routing.failures.is_empty() {
                Ok(())
            } else {
                Err(format!("{} net(s) failed to route", routing.failures.len()))
            }
        }
        "eco" => {
            let render = int_value("--render")?;
            let layout = load(path)?;
            layout.validate().map_err(|e| e.to_string())?;
            let eco_path = positionals
                .get(2)
                .ok_or("missing .eco change-list argument")?;
            let text = std::fs::read_to_string(eco_path.as_str())
                .map_err(|e| format!("{eco_path}: {e}"))?;
            let ops = parse_eco(&text).map_err(|e| format!("{eco_path}: {e}"))?;
            let mut session = build_session(layout, args)?;
            session.route_all();
            println!("baseline: {}", session.stats());
            let report = apply_eco(&mut session, &ops).map_err(|e| e.to_string())?;
            for step in &report.steps {
                match &step.reroute {
                    Some(r) => println!(
                        "  {:<28} rerouted {}/{} ({} failed)",
                        step.op, r.rerouted, r.attempted, r.failed
                    ),
                    None => println!("  {:<28} dirty: {}", step.op, step.dirty_after),
                }
            }
            println!(
                "eco: {} rerouted, {} failed across {} step(s)",
                report.rerouted,
                report.failed,
                report.steps.len()
            );
            let routing = session.routing();
            println!("final: {}", session.stats());
            if let Some(scale) = render {
                render_routes(session.layout(), &routing, scale);
            }
            session.layout().validate().map_err(|e| e.to_string())?;
            // The exit status reflects the final committed state: a net
            // that failed at an early flush but routed later is fine.
            if routing.failures.is_empty() {
                Ok(())
            } else {
                Err(format!(
                    "{} net(s) unrouted after the change list",
                    routing.failures.len()
                ))
            }
        }
        "gen" => {
            use gcr::workload::generator::{generate, utilization, GeneratorParams};
            let nets = int_value("--nets")?.unwrap_or(1000);
            if nets < 1 {
                return Err("--nets must be at least 1".to_string());
            }
            let seed = int_value("--seed")?.unwrap_or(0);
            let mut params = GeneratorParams::with_nets(nets as usize, seed as u64);
            if let Some(rows) = int_value("--rows")? {
                params.rows = rows.max(1) as usize;
            }
            if let Some(cols) = int_value("--cols")? {
                params.cols = cols.max(1) as usize;
            }
            if let Some(util) = float_value("--util")? {
                params.utilization = util;
            }
            if let Some(fill) = float_value("--fill")? {
                params.fill = fill;
            }
            if let Some(spread) = float_value("--spread")? {
                params.size_spread = spread;
            }
            if let Some(kfrac) = float_value("--kfrac")? {
                params.k_pin_fraction = kfrac;
            }
            if let Some(max_t) = int_value("--max-terminals")? {
                params.max_terminals = max_t.max(3) as usize;
            }
            if let Some(locality) = int_value("--locality")? {
                params.locality = locality.max(0) as usize;
            }
            if let Some(cell_max) = int_value("--cell-max")? {
                params.cell_max = cell_max.max(1);
            }
            if let Some(channel) = int_value("--channel")? {
                params.channel = channel.max(1);
            }
            let layout = generate(&params);
            layout.validate().map_err(|e| e.to_string())?;
            let text = format::write(&layout);
            match path {
                Some(out) => {
                    std::fs::write(out, &text).map_err(|e| format!("{out}: {e}"))?;
                    eprintln!(
                        "wrote {out}: {layout} (utilization {:.3}, seed {seed})",
                        utilization(&layout)
                    );
                }
                None => print!("{text}"),
            }
            Ok(())
        }
        "serve" => {
            let addr = value_of("--addr")
                .cloned()
                .unwrap_or_else(|| "127.0.0.1:4242".to_string());
            let capacity = int_value("--capacity")?.unwrap_or(64);
            if capacity < 1 {
                return Err("--capacity must be at least 1".to_string());
            }
            let workers = int_value("--workers")?.unwrap_or(0);
            if workers < 0 {
                return Err("--workers must be non-negative".to_string());
            }
            let read_timeout_ms = int_value("--read-timeout-ms")?.unwrap_or(30_000);
            if read_timeout_ms < 0 {
                return Err("--read-timeout-ms must be non-negative (0 = none)".to_string());
            }
            let max_body_kb = int_value("--max-body-kb")?.unwrap_or(4096);
            if max_body_kb < 1 {
                return Err("--max-body-kb must be at least 1".to_string());
            }
            let max_body = usize::try_from(max_body_kb)
                .ok()
                .and_then(|kb| kb.checked_mul(1024))
                .ok_or_else(|| format!("--max-body-kb {max_body_kb} overflows a byte count"))?;
            let slow_log_ms = int_value("--slow-log-ms")?.unwrap_or(1_000);
            if slow_log_ms < 0 {
                return Err("--slow-log-ms must be non-negative (0 = panics only)".to_string());
            }
            let slow_log_cap =
                int_value("--slow-log-cap")?.unwrap_or(gcr::telemetry::DEFAULT_SLOW_LOG_CAP as i64);
            if slow_log_cap < 1 {
                return Err("--slow-log-cap must be at least 1".to_string());
            }
            let trace_sample_rate = float_value("--trace-sample-rate")?.unwrap_or(0.0);
            if !(0.0..=1.0).contains(&trace_sample_rate) {
                return Err("--trace-sample-rate must be in [0, 1]".to_string());
            }
            let config = ServerConfig {
                addr,
                capacity: capacity as usize,
                workers: workers as usize,
                queue: 0,
                read_timeout_ms: read_timeout_ms as u64,
                limits: WireLimits {
                    max_body,
                    ..WireLimits::default()
                },
                crash_probe: false,
                slow_log_ms: slow_log_ms as u64,
                slow_log_cap: slow_log_cap as usize,
                trace_sample_rate,
            };
            let server = Server::bind(&config).map_err(|e| format!("{}: {e}", config.addr))?;
            println!(
                "gcr-service listening on {} (capacity {}, workers {})",
                server.local_addr().map_err(|e| e.to_string())?,
                capacity,
                server.workers()
            );
            let report = server.run().map_err(|e| e.to_string())?;
            println!(
                "gcr-service drained: {} connection(s), {} request(s), {} error(s), \
                 {} shed, {} timeout(s), {} panic(s), {} session(s) open, {} eviction(s)",
                report.connections,
                report.requests,
                report.errors,
                report.shed,
                report.timeouts,
                report.panics,
                report.sessions_open,
                report.evictions
            );
            Ok(())
        }
        "client" => {
            let addr = positionals.get(1).ok_or("missing daemon address")?;
            let verb = positionals
                .get(2)
                .map(|s| s.as_str())
                .ok_or("missing client command; try gcrt help")?;
            let rest = &positionals[3..];
            run_client(addr, verb, rest, args)
        }
        "loadgen" => {
            use gcr::service::loadgen::{self, LoadGenConfig, LoadKind};
            let addr = positionals
                .get(1)
                .map(|s| s.to_string())
                .ok_or("missing daemon address")?;
            let kind = match value_of("--kind").map(String::as_str) {
                None | Some("reroute") => LoadKind::Reroute,
                Some("ping") => LoadKind::Ping,
                Some(other) => return Err(format!("unknown --kind {other:?} (reroute|ping)")),
            };
            let engine_name = value_of("--engine").map_or("gridless", String::as_str);
            let engine = EngineKind::parse(engine_name)
                .ok_or_else(|| format!("unknown engine {engine_name:?}"))?;
            let config = LoadGenConfig {
                addr: addr.clone(),
                clients: int_value("--clients")?.unwrap_or(4).max(1) as usize,
                requests_per_client: int_value("--requests")?.unwrap_or(100).max(1) as u64,
                nets: int_value("--nets")?.unwrap_or(120).max(1) as usize,
                seed: int_value("--seed")?.unwrap_or(7) as u64,
                engine,
                index: PlaneIndexKind::Sharded,
                kind,
            };
            let report = loadgen::run(&config).map_err(|e| format!("{addr}: {e}"))?;
            println!(
                "loadgen {} x{} clients, {} nets: {}",
                config.kind,
                config.clients,
                config.nets,
                report.summary()
            );
            // Cross-check: the server's view of the same quantiles, from
            // a METRICS scrape over the wire.
            let mut client =
                gcr::service::Client::connect(addr.as_str()).map_err(|e| format!("{addr}: {e}"))?;
            let scrape = client.metrics().map_err(|e| format!("{addr}: {e}"))?;
            let verb = loadgen::server_verb(config.kind);
            let server_q = |q: f64| {
                loadgen::server_quantile_us(&scrape.body, verb, q)
                    .map_or_else(|| "-".to_string(), |us| us.to_string())
            };
            println!(
                "server view ({verb}): p50-us {} p95-us {} p99-us {}",
                server_q(0.50),
                server_q(0.95),
                server_q(0.99),
            );
            Ok(())
        }
        "profile" => {
            use gcr::workload::generator::{generate, GeneratorParams};
            let addr = positionals.get(1).ok_or("missing daemon address")?;
            let requests = int_value("--requests")?.unwrap_or(3).max(1) as u64;
            let nets = int_value("--nets")?.unwrap_or(60).max(1) as usize;
            let seed = int_value("--seed")?.unwrap_or(7) as u64;
            let engine_name = value_of("--engine").map_or("gridless", String::as_str);
            let engine = EngineKind::parse(engine_name)
                .ok_or_else(|| format!("unknown engine {engine_name:?}"))?;
            let collapsed_only = flag("--collapsed");
            let layout = generate(&GeneratorParams::with_nets(nets, seed));
            let gcl = format::write(&layout);
            let fail = |e: ClientError| format!("{addr}: {e}");
            let mut client =
                gcr::service::Client::connect(addr.as_str()).map_err(|e| format!("{addr}: {e}"))?;
            let (sid, _) = client
                .open(engine, PlaneIndexKind::Sharded, &gcl)
                .map_err(fail)?;
            // Cold route untraced; the traced requests profile warm full
            // reroutes, the steady-state shape worth a flamegraph.
            client.route(sid, false).map_err(fail)?;
            let mut merged: std::collections::BTreeMap<String, u64> =
                std::collections::BTreeMap::new();
            for i in 0..requests {
                let reply = client
                    .trace(
                        sid,
                        Request::Route {
                            sid,
                            full: true,
                            deadline_ms: None,
                        },
                    )
                    .map_err(fail)?;
                let Some(tree) = reply.span_tree() else {
                    return Err(format!(
                        "trace reply carried no spans (server telemetry disabled? \
                         head {:?})",
                        reply.head
                    ));
                };
                if !collapsed_only && i == 0 {
                    println!("span tree (request 1 of {requests}):");
                    print!("{}", tree.render_indented());
                }
                for line in tree.render_collapsed().lines() {
                    let Some((stack, count)) = line.rsplit_once(' ') else {
                        continue;
                    };
                    let Ok(count) = count.parse::<u64>() else {
                        continue;
                    };
                    // The root frame's label is the per-request trace id;
                    // strip it so stacks merge across requests.
                    let stack = match stack.split_once(';') {
                        Some((root, rest)) => {
                            let root = root.split_once(':').map_or(root, |(name, _)| name);
                            format!("{root};{rest}")
                        }
                        None => stack
                            .split_once(':')
                            .map_or(stack, |(name, _)| name)
                            .to_string(),
                    };
                    *merged.entry(stack).or_insert(0) += count;
                }
            }
            let _ = client.close_session(sid);
            if !collapsed_only {
                println!("\ncollapsed stacks ({requests} request(s) merged, self-us):");
            }
            for (stack, count) in &merged {
                println!("{stack} {count}");
            }
            Ok(())
        }
        "explain" => {
            let addr = positionals.get(1).ok_or("missing daemon address")?;
            let sid = positionals
                .get(2)
                .ok_or("missing session id")?
                .parse::<u64>()
                .map_err(|_| "bad session id".to_string())?;
            let net = positionals.get(3).ok_or("missing net name")?;
            let mut client =
                gcr::service::Client::connect(addr.as_str()).map_err(|e| format!("{addr}: {e}"))?;
            let reply = client
                .explain(sid, net.as_str())
                .map_err(|e| format!("{addr}: {e}"))?;
            println!("OK {}", reply.head);
            print!("{}", reply.body);
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; try gcrt help")),
    }
}

/// One `gcrt client` exchange: build the typed request, send it through
/// the retry layer, print the reply (status head, then body) and exit
/// 0 on `OK` / 2 on `ERR`.
fn run_client(addr: &str, verb: &str, rest: &[&String], args: &[String]) -> Result<(), String> {
    let value_of = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let int_value = |name: &str| -> Result<Option<u64>, String> {
        match value_of(name) {
            None => Ok(None),
            Some(v) => v
                .parse::<u64>()
                .map(Some)
                .map_err(|_| format!("{name} requires a non-negative integer, got {v:?}")),
        }
    };
    let timeout_ms = int_value("--timeout-ms")?.unwrap_or(5_000);
    let deadline_ms = int_value("--deadline-ms")?;
    let retries = int_value("--retries")?.unwrap_or(0);
    let arg = |i: usize, what: &str| -> Result<&str, String> {
        rest.get(i)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("{verb}: missing {what}"))
    };
    let sid_arg = |i: usize| -> Result<u64, String> {
        let token = arg(i, "session id")?;
        token
            .parse::<u64>()
            .map_err(|_| format!("{verb}: bad session id {token:?}"))
    };
    let file_arg = |i: usize, what: &str| -> Result<String, String> {
        let path = arg(i, what)?;
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
    };
    let request = match verb {
        "ping" => Request::Ping,
        "shutdown" => Request::Shutdown,
        "open" => {
            let engine = arg(0, "engine")?;
            let engine =
                EngineKind::parse(engine).ok_or_else(|| format!("unknown engine {engine:?}"))?;
            let index = match arg(1, "index (flat|sharded)")? {
                "flat" => PlaneIndexKind::Flat,
                "sharded" => PlaneIndexKind::Sharded,
                other => return Err(format!("unknown index {other:?}")),
            };
            let gcl = file_arg(2, ".gcl file")?;
            Request::Open { engine, index, gcl }
        }
        "eco" => Request::Eco {
            sid: sid_arg(0)?,
            eco: file_arg(1, ".eco file")?,
        },
        "route" => {
            let full = match rest.get(1).map(|s| s.as_str()) {
                None => false,
                Some("full") => true,
                Some(other) => return Err(format!("unknown route modifier {other:?}")),
            };
            Request::Route {
                sid: sid_arg(0)?,
                full,
                deadline_ms,
            }
        }
        "ripup" => Request::RipUp {
            sid: sid_arg(0)?,
            net: arg(1, "net name")?.to_string(),
        },
        "negotiate" => {
            let max_iters = match rest.get(1) {
                None => None,
                Some(token) => Some(token.parse::<u64>().map_err(|_| {
                    format!("{verb}: iteration cap must be a positive integer, got {token:?}")
                })?),
            };
            Request::Negotiate {
                sid: sid_arg(0)?,
                max_iters,
                deadline_ms,
            }
        }
        "trace" => {
            let sid = sid_arg(0)?;
            let inner = match arg(1, "inner command (route|eco|negotiate|ripup)")? {
                "route" => {
                    let full = match rest.get(2).map(|s| s.as_str()) {
                        None => false,
                        Some("full") => true,
                        Some(other) => return Err(format!("unknown route modifier {other:?}")),
                    };
                    Request::Route {
                        sid,
                        full,
                        deadline_ms,
                    }
                }
                "eco" => Request::Eco {
                    sid,
                    eco: file_arg(2, ".eco file")?,
                },
                "negotiate" => {
                    let max_iters = match rest.get(2) {
                        None => None,
                        Some(token) => Some(token.parse::<u64>().map_err(|_| {
                            format!("trace negotiate: bad iteration cap {token:?}")
                        })?),
                    };
                    Request::Negotiate {
                        sid,
                        max_iters,
                        deadline_ms,
                    }
                }
                "ripup" => Request::RipUp {
                    sid,
                    net: arg(2, "net name")?.to_string(),
                },
                other => {
                    return Err(format!(
                        "trace cannot wrap {other:?} (route|eco|negotiate|ripup)"
                    ))
                }
            };
            Request::Trace {
                sid,
                inner: Box::new(inner),
            }
        }
        "explain" => Request::Explain {
            sid: sid_arg(0)?,
            net: arg(1, "net name")?.to_string(),
        },
        "stats" => Request::Stats {
            sid: match rest.first() {
                Some(_) => Some(sid_arg(0)?),
                None => None,
            },
        },
        "metrics" => Request::Metrics,
        "dump" => Request::Dump { sid: sid_arg(0)? },
        "close" => Request::Close { sid: sid_arg(0)? },
        other => return Err(format!("unknown client command {other:?}; try gcrt help")),
    };
    let timeout = std::time::Duration::from_millis(timeout_ms.max(1));
    let policy = RetryPolicy {
        max_retries: retries.min(u64::from(u32::MAX)) as u32,
        connect_timeout: timeout,
        io_timeout: Some(timeout),
        ..RetryPolicy::default()
    };
    let mut client = RetryingClient::new(addr, policy);
    let reply: Result<Reply, ClientError> = client.expect_ok(&request);
    let reply = reply.map_err(|e| format!("{addr}: {e}"))?;
    println!("OK {}", reply.head);
    print!("{}", reply.body);
    Ok(())
}

/// `gcrt repro`: prints the tables of the selected experiments (all of
/// them for no id or `all`) in catalog order. Ids are case-insensitive,
/// and every one is checked before any experiment runs.
fn repro(ids: &[&String], list: bool) -> Result<(), String> {
    use experiments::CATALOG;
    if list {
        for (id, title, _) in CATALOG {
            println!("{id}  {title}");
        }
        return Ok(());
    }
    let wanted: Vec<String> = ids.iter().map(|id| id.to_lowercase()).collect();
    for (given, id) in ids.iter().zip(&wanted) {
        if id != "all" && !CATALOG.iter().any(|(known, _, _)| known == id) {
            return Err(format!("unknown experiment {given}; try gcrt repro --list"));
        }
    }
    let run_all = wanted.is_empty() || wanted.iter().any(|id| id == "all");
    for (id, _, table) in CATALOG {
        if run_all || wanted.iter().any(|w| w == id) {
            println!("{}", table());
        }
    }
    Ok(())
}

/// Builds the routing session the flags describe: engine, spatial index,
/// schedule and cost configuration.
fn build_session(
    layout: Layout,
    args: &[String],
) -> Result<RoutingSession<gcr::service::BoxedEngine>, String> {
    let flag = |name: &str| args.iter().any(|a| a == name);
    let engine_name = match args.iter().position(|a| a == "--engine") {
        Some(i) => args.get(i + 1).map(String::as_str).ok_or_else(|| {
            "--engine requires a value (gridless, grid, lee-moore or hightower)".to_string()
        })?,
        None => "gridless",
    };
    // The CLI and the daemon's OPEN verb resolve engines identically.
    let engine = EngineKind::parse(engine_name)
        .ok_or_else(|| {
            format!(
                "unknown engine {engine_name:?}; expected gridless, grid, lee-moore or hightower"
            )
        })?
        .build();
    let mut config = RouterConfig::default();
    if flag("--no-epsilon") {
        config.corner_penalty(false);
    }
    if let Some(i) = args.iter().position(|a| a == "--pitch") {
        let pitch = args
            .get(i + 1)
            .and_then(|v| v.parse::<i64>().ok())
            .filter(|&p| p >= 1)
            .ok_or("--pitch requires an integer of at least 1")?;
        config.wire_pitch(pitch);
    }
    let mut builder = RoutingSession::builder(layout)
        .config(config)
        .engine(engine)
        .index(if flag("--sharded") {
            PlaneIndexKind::Sharded
        } else {
            PlaneIndexKind::Flat
        });
    if flag("--serial") {
        builder = builder.serial();
    }
    Ok(builder.build())
}

fn render_routes(layout: &Layout, routing: &GlobalRouting, scale: i64) {
    let glyphs = "0123456789abcdefghijklmnopqrstuvwxyz";
    let pairs: Vec<(char, &Polyline)> = routing
        .routes
        .iter()
        .enumerate()
        .flat_map(|(i, r)| {
            let g = glyphs.chars().nth(i % glyphs.len()).unwrap_or('*');
            r.connections.iter().map(move |c| (g, &c.polyline))
        })
        .collect();
    println!("\n{}", render::render(layout, &pairs, scale.max(1)));
}

fn load(path: Option<&String>) -> Result<Layout, String> {
    let path = path.ok_or("missing .gcl file argument")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    format::parse(&text).map_err(|e| format!("{path}: {e}"))
}
