//! The inputs: the die each workload routes and the ECO request stream
//! the served workload replays. The program under test only ever sees the
//! generated `.gcl` and `.eco` text.
//!
//! Every die is fixed, and the run seed permutes its net order. Route
//! work depends on the die, not only on the code: over generator seeds
//! 1–8 one cold 1k-net route generated 35.7M–41.8M successors, over
//! seeds 0–11 one negotiation took 175 ms to 7.3 s, and over seeds 0–9
//! one 120-net die's request cycle took 36k–73k expansions. A
//! seed-derived die would measure the die. Routing is independent per
//! net (the paper's order-free routing), so the permutation changes the
//! input text and the net ids but not the work or the routes; the
//! order-free route digest (`check::digest`) shows it.

use gcr_core::RouterConfig;
use gcr_layout::{format, Layout};
use gcr_workload::generator::{generate, GeneratorParams};

/// Nets on the `cold-1k` die.
pub const COLD_NETS: usize = 1000;
/// Generator seed of the `cold-1k` die: its route work is the median of
/// generator seeds 1–8.
pub const COLD_DIE: u64 = 3;
/// Nets on the `eco-served-120` die.
pub const ECO_NETS: usize = 120;
/// Generator seed of the `eco-served-120` die: of generator seeds 0–9
/// its request cycle is the most central by search work (the cycle's
/// total, and its requests' median and 99th percentile, rank 6th, 5th
/// and 7th of 10).
pub const ECO_DIE: u64 = 4;
/// Generator seeds of the `negotiate-120` panel. Dies 0, 1 and 2
/// converge in 4, 10 and 3 rounds, so every op mixes first-pass and loop
/// work.
pub const PANEL: [u64; 3] = [0, 1, 2];
/// Utilization of the panel dies.
const PANEL_UTILIZATION: f64 = 0.85;

/// splitmix64: a small, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derives an independent seed for sub-input `index` of run seed `seed`.
pub fn mix(seed: u64, index: u64) -> u64 {
    Rng::new(seed ^ index.wrapping_mul(0x2545_f491_4f6c_dd1d)).next_u64()
}

/// The `cold-1k` die as `.gcl` text, net order permuted by `seed`.
pub fn cold_die(seed: u64) -> String {
    let text = format::write(&generate(&GeneratorParams::with_nets(COLD_NETS, COLD_DIE)));
    permute_nets(&text, mix(seed, COLD_DIE))
}

/// The `eco-served-120` die as `.gcl` text, net order permuted by `seed`.
pub fn eco_die(seed: u64) -> String {
    let text = format::write(&generate(&GeneratorParams::with_nets(ECO_NETS, ECO_DIE)));
    permute_nets(&text, mix(seed, ECO_DIE))
}

/// The `negotiate-120` panel as `.gcl` text, net order permuted by `seed`.
pub fn negotiate_panel(seed: u64) -> Vec<String> {
    PANEL
        .iter()
        .map(|&die| {
            let mut params = GeneratorParams::with_nets(ECO_NETS, die);
            params.utilization = PANEL_UTILIZATION;
            permute_nets(&format::write(&generate(&params)), mix(seed, die))
        })
        .collect()
}

/// The congested router configuration the panel is negotiated under:
/// wire pitch 2, congestion weight 20, 1200 expansions per search.
pub fn congested_config() -> RouterConfig {
    let mut config = RouterConfig::default();
    config
        .wire_pitch(2)
        .congestion_weight(20)
        .max_expansions(Some(1200));
    config
}

/// Parses `.gcl` text, naming the die in the error.
pub fn parse(text: &str) -> Result<Layout, String> {
    format::parse(text).map_err(|e| format!("generated die does not parse: {e}"))
}

/// Shuffles the `net` blocks of a `.gcl` document (Fisher–Yates), leaving
/// the header and cells in place.
fn permute_nets(text: &str, seed: u64) -> String {
    let mut head = String::new();
    let mut blocks: Vec<String> = Vec::new();
    for line in text.lines() {
        if line.starts_with("net ") {
            blocks.push(String::new());
        }
        let target = blocks.last_mut().unwrap_or(&mut head);
        target.push_str(line);
        target.push('\n');
    }
    let mut rng = Rng::new(seed);
    for i in (1..blocks.len()).rev() {
        blocks.swap(i, rng.below(i + 1));
    }
    head + &blocks.concat()
}

/// Rounds of three rip-ups and one move pair in the stream's cycle.
pub const CYCLE_ROUNDS: u64 = 30;

/// The served workload's request stream: one fixed cycle, repeated. The
/// cycle is [`CYCLE_ROUNDS`] rounds of three `ripup <net>` + `reroute`
/// requests and one `move <cell> 1 0` / `reroute` / `move <cell> -1 0` /
/// `reroute` request, closed by one more rip-up. The move pair puts the
/// cell back, so the session keeps its geometry however long the run.
/// The cycle's length is odd: over whole cycles the median request is
/// one request of the cycle rather than the midpoint of two, whose
/// times may lie far apart, and two arms that alternate requests each
/// send every request of the cycle. Nets and cells are picked in
/// an order fixed by their names, so the work does not depend on how the
/// die's nets were permuted, and every run times the same requests
/// however many cycles the host's speed lets it finish. Request `k` is a
/// pure function of the die and `k`, so a twin can replay any prefix.
#[derive(Debug, Clone)]
pub struct EcoStream {
    nets: Vec<String>,
    cells: Vec<String>,
}

impl EcoStream {
    pub fn new(layout: &Layout) -> EcoStream {
        let nets = layout.nets().iter().map(|n| n.name().to_string());
        let cells = layout.cells().iter().map(|c| c.name().to_string());
        EcoStream {
            nets: walk(nets.collect()),
            cells: walk(cells.collect()),
        }
    }

    /// Requests in one cycle (odd).
    pub fn cycle(&self) -> u64 {
        4 * CYCLE_ROUNDS + 1
    }

    /// The `.eco` body of request `k`.
    pub fn request(&self, k: u64) -> String {
        let turn = k % self.cycle();
        let round = turn / 4;
        if turn % 4 == 3 {
            let cell = &self.cells[(round % self.cells.len() as u64) as usize];
            format!("move {cell} 1 0\nreroute\nmove {cell} -1 0\nreroute\n")
        } else {
            let net = &self.nets[((3 * round + turn % 4) % self.nets.len() as u64) as usize];
            format!("ripup {net}\nreroute\n")
        }
    }
}

/// A fixed shuffle of `names` that depends on the names alone, not on
/// their order in the die.
fn walk(mut names: Vec<String>) -> Vec<String> {
    names.sort_unstable();
    let mut rng = Rng::new(0xec0_5eed);
    for j in (1..names.len()).rev() {
        names.swap(j, rng.below(j + 1));
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_keeps_every_net_block() {
        let text = format::write(&generate(&GeneratorParams::with_nets(COLD_NETS, 3)));
        let permuted = permute_nets(&text, 9);
        assert_ne!(text, permuted);
        let mut a: Vec<&str> = text.lines().collect();
        let mut b: Vec<&str> = permuted.lines().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(parse(&permuted).unwrap().nets().len(), COLD_NETS);
    }

    #[test]
    fn stream_does_not_depend_on_the_net_permutation() {
        let (a, b) = (parse(&eco_die(5)).unwrap(), parse(&eco_die(6)).unwrap());
        assert_ne!(format::write(&a), format::write(&b));
        let (a, b) = (EcoStream::new(&a), EcoStream::new(&b));
        for k in [0, 7, 63, 64, 1000] {
            assert_eq!(a.request(k), b.request(k));
            assert_eq!(a.request(k), a.request(k + a.cycle()));
        }
        let moves = (0..a.cycle())
            .filter(|&k| a.request(k).starts_with("move"))
            .count();
        assert_eq!(moves as u64, CYCLE_ROUNDS);
        assert_eq!(a.cycle() % 2, 1);
    }
}
