//! `repro` — regenerates the paper's experiment tables (E1–E10).
//!
//! Usage:
//!
//! ```text
//! repro            # run all experiments
//! repro e1 e4      # run selected experiments
//! repro --list     # list experiment ids
//! ```

use gcr_bench::experiments;
use gcr_bench::Table;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for (id, title) in catalog() {
            println!("{id}  {title}");
        }
        return;
    }
    let selected: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with('-'))
        .map(|a| a.to_lowercase())
        .collect();
    let run_all = selected.is_empty() || selected.iter().any(|s| s == "all");
    let mut ran = 0;
    for (id, _) in catalog() {
        if run_all || selected.iter().any(|s| s == id) {
            let table = run(id);
            println!("{table}");
            ran += 1;
        }
    }
    if ran == 0 {
        eprintln!("unknown experiment id(s): {selected:?}; try --list");
        std::process::exit(2);
    }
}

fn catalog() -> [(&'static str, &'static str); 10] {
    [
        ("e1", "Figure 1: node expansion, gridless vs grid"),
        ("e2", "Figure 2: the inverted corner"),
        ("e3", "optimality vs Lee-Moore"),
        ("e4", "search effort scaling"),
        ("e5", "Hightower line probing"),
        ("e6", "multi-terminal Steiner quality"),
        ("e7", "global vs detailed routing effort"),
        ("e8", "two-pass congestion routing"),
        ("e9", "successor-generation ablation"),
        ("e10", "placement feedback convergence"),
    ]
}

fn run(id: &str) -> Table {
    match id {
        "e1" => experiments::e1_fig1(),
        "e2" => experiments::e2_fig2(),
        "e3" => experiments::e3_optimality(),
        "e4" => experiments::e4_scaling(),
        "e5" => experiments::e5_hightower(),
        "e6" => experiments::e6_multiterm(),
        "e7" => experiments::e7_fullflow(),
        "e8" => experiments::e8_congestion(),
        "e9" => experiments::e9_ablation(),
        "e10" => experiments::e10_feedback(),
        other => unreachable!("unknown experiment {other}"),
    }
}
