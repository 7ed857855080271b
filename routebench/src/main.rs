//! `routebench` — the gcr router's benchmark. Three user paths (a cold
//! route of a 1k-net die, served ECO requests against a warm 120-net
//! session, PathFinder negotiation of congested 120-net dies) are timed
//! end to end with tracing off (`--trace 0`), and broken into layers by
//! a separate traced run (`--trace 1`). Every run checks the routes it
//! produced and prints one JSON result line last. See README.md.
//!
//! ```text
//! cargo run --release --manifest-path routebench/Cargo.toml -- \
//!     --workload cold-1k --seed 1 --seconds 20 --trace 0
//! ```

mod check;
mod die;
mod layers;
mod report;
mod served;
mod workloads;

use std::process::ExitCode;
use std::sync::LazyLock;
use std::time::Instant;

/// When the process started (forced first thing in `main`).
pub static PROCESS_START: LazyLock<Instant> = LazyLock::new(Instant::now);

/// Processors available to the process before it pins itself to one
/// (forced in `main` before the pin).
pub static NPROC: LazyLock<usize> =
    LazyLock::new(|| std::thread::available_parallelism().map_or(0, usize::from));

const USAGE: &str = "usage: routebench --workload <cold-1k|eco-served-120|negotiate-120> \
                     [--seed N] [--seconds N] [--trace 0|1]";

/// The benchmark's workloads; README.md says why each was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Cold1k,
    EcoServed120,
    Negotiate120,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::Cold1k,
        Workload::EcoServed120,
        Workload::Negotiate120,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold1k => "cold-1k",
            Workload::EcoServed120 => "eco-served-120",
            Workload::Negotiate120 => "negotiate-120",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| bad("unknown workload"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad("not a seed"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("not a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    LazyLock::force(&PROCESS_START);
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("routebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // All routing runs on one thread: in-process sessions are built
    // `.serial()`, and the daemon (which opens sessions on the default
    // parallel schedule) reads this override. Set before any thread
    // starts; output is byte-identical on any schedule.
    std::env::set_var("GCR_THREADS", "1");
    LazyLock::force(&NPROC);
    let cpu = pin_to_current_cpu();
    let run = if args.trace {
        layers::run(&args)
    } else {
        workloads::run(&args)
    };
    match run {
        Ok(mut outcome) => {
            outcome.meta("cpu_pin", cpu.map_or("null".to_string(), |c| c.to_string()));
            outcome.print(&args);
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("routebench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Pins the process to the CPU it runs on. Called before any thread
/// starts, so every thread inherits the pin, and a served request passes
/// between the client's and the daemon's threads on one CPU instead of
/// waking the other CPU each way: on a busy 2-core host, unpinned
/// served runs measured a median request of 0.97–1.75 ms where pinned
/// ones measured 0.77–0.93 ms. Returns the CPU, or `None` where the
/// calls fail and the process stays unpinned.
fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: plain libc calls; the mask is a live 1024-bit `cpu_set_t`
    // of the size passed.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (set == 0).then_some(cpu)
}
