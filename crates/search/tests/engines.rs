//! Cross-engine validation on problems away from routing: the paper traces
//! the A* lineage through game search ("chess, checkers, and the
//! 15-puzzle"), so we exercise the engine on the 8-puzzle and on random
//! weighted graphs checked against Bellman–Ford.

use gcr_search::{
    astar, astar_in, best_first, breadth_first, depth_first, exhaustive, Budget, Found, Labels,
    SearchArena, SearchOutcome, SearchSpace,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------- 8-puzzle

/// The classic 8-puzzle: slide tiles in a 3×3 tray to reach order.
/// State = 9 cells, 0 is the blank.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Tray([u8; 9]);

struct EightPuzzle {
    start: Tray,
}

const GOAL: [u8; 9] = [1, 2, 3, 4, 5, 6, 7, 8, 0];

impl Tray {
    fn blank(&self) -> usize {
        self.0.iter().position(|&t| t == 0).expect("one blank")
    }

    /// Sum of tile Manhattan distances to their goal cells — the standard
    /// admissible heuristic.
    fn manhattan(&self) -> i64 {
        let mut total = 0i64;
        for (i, &t) in self.0.iter().enumerate() {
            if t == 0 {
                continue;
            }
            let gi = (t - 1) as usize;
            let (r, c) = ((i / 3) as i64, (i % 3) as i64);
            let (gr, gc) = ((gi / 3) as i64, (gi % 3) as i64);
            total += (r - gr).abs() + (c - gc).abs();
        }
        total
    }

    fn neighbors(&self) -> Vec<Tray> {
        let b = self.blank();
        let (r, c) = (b / 3, b % 3);
        let mut out = Vec::new();
        let mut push = |nr: i64, nc: i64| {
            if (0..3).contains(&nr) && (0..3).contains(&nc) {
                let ni = (nr * 3 + nc) as usize;
                let mut t = self.clone();
                t.0.swap(b, ni);
                out.push(t);
            }
        };
        push(r as i64 - 1, c as i64);
        push(r as i64 + 1, c as i64);
        push(r as i64, c as i64 - 1);
        push(r as i64, c as i64 + 1);
        out
    }
}

impl SearchSpace for EightPuzzle {
    type State = Tray;
    type Cost = i64;
    fn start_states(&self, out: &mut Vec<(Tray, i64)>) {
        out.clear();
        out.push((self.start.clone(), 0));
    }
    fn successors(&self, s: &Tray, _: &dyn Labels<Tray, i64>, out: &mut Vec<(Tray, i64)>) {
        out.extend(s.neighbors().into_iter().map(|t| (t, 1)));
    }
    fn is_goal(&self, s: &Tray) -> bool {
        s.0 == GOAL
    }
    fn heuristic(&self, s: &Tray) -> i64 {
        s.manhattan()
    }
}

/// Scramble the goal with `moves` random legal moves (stays solvable).
fn scramble(moves: usize, seed: u64) -> Tray {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Tray(GOAL);
    for _ in 0..moves {
        let ns = t.neighbors();
        t = ns[rng.gen_range(0..ns.len())].clone();
    }
    t
}

#[test]
fn eight_puzzle_astar_is_optimal_and_cheaper_than_bfs() {
    for seed in 0..5u64 {
        let puzzle = EightPuzzle {
            start: scramble(14, seed),
        };
        let a = astar(&puzzle).expect("scrambles are solvable");
        let b = breadth_first(&puzzle).expect("scrambles are solvable");
        assert_eq!(a.cost, b.cost, "A* must match BFS optimum (unit costs)");
        assert!(a.cost <= 14);
        assert!(
            a.stats.expanded <= b.stats.expanded,
            "informed search did more work: {} vs {}",
            a.stats.expanded,
            b.stats.expanded
        );
    }
}

#[test]
fn eight_puzzle_heuristic_is_admissible_along_solution() {
    let puzzle = EightPuzzle {
        start: scramble(16, 42),
    };
    let a = astar(&puzzle).unwrap();
    // Along an optimal path, h(n) <= remaining distance at every step.
    let total = a.cost;
    for (i, s) in a.path.iter().enumerate() {
        let remaining = total - i as i64;
        assert!(s.manhattan() <= remaining, "h violates admissibility");
    }
}

// ------------------------------------------------- random graphs vs B-F

/// Dense-ish random digraph with non-negative weights.
struct RandomGraph {
    edges: Vec<Vec<(usize, i64)>>,
    goal: usize,
}

impl SearchSpace for RandomGraph {
    type State = usize;
    type Cost = i64;
    fn start_states(&self, out: &mut Vec<(usize, i64)>) {
        out.clear();
        out.push((0, 0));
    }
    fn successors(&self, s: &usize, _: &dyn Labels<usize, i64>, out: &mut Vec<(usize, i64)>) {
        out.extend(self.edges[*s].iter().copied());
    }
    fn is_goal(&self, s: &usize) -> bool {
        *s == self.goal
    }
}

fn bellman_ford(edges: &[Vec<(usize, i64)>], from: usize) -> Vec<Option<i64>> {
    let n = edges.len();
    let mut dist: Vec<Option<i64>> = vec![None; n];
    dist[from] = Some(0);
    for _ in 0..n {
        let mut changed = false;
        for u in 0..n {
            if let Some(du) = dist[u] {
                for &(v, w) in &edges[u] {
                    let cand = du + w;
                    if dist[v].is_none_or(|dv| cand < dv) {
                        dist[v] = Some(cand);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

// Property sweeps (seeded loops; the environment has no proptest, so the
// cases are drawn from the workspace's deterministic RNG instead).

fn random_edges(rng: &mut StdRng, n: usize, density: usize, max_w: i64) -> Vec<Vec<(usize, i64)>> {
    let mut edges = vec![Vec::new(); n];
    for adj in edges.iter_mut() {
        for _ in 0..density {
            let v = rng.gen_range(0..n);
            let w = rng.gen_range(0..max_w);
            adj.push((v, w));
        }
    }
    edges
}

#[test]
fn dijkstra_matches_bellman_ford() {
    let mut meta = StdRng::seed_from_u64(0xd1ce);
    for case in 0..64 {
        let seed = meta.gen_range(0..10_000u64);
        let n = meta.gen_range(2usize..40);
        let density = meta.gen_range(1usize..5);
        let mut rng = StdRng::seed_from_u64(seed);
        let edges = random_edges(&mut rng, n, density, 100);
        let goal = rng.gen_range(0..n);
        let reference = bellman_ford(&edges, 0)[goal];
        let g = RandomGraph { edges, goal };
        let found = best_first(&g).map(|f| f.cost);
        assert_eq!(found, reference, "case {case} seed {seed} n {n}");
    }
}

#[test]
fn exhaustive_agrees_with_best_first() {
    let mut meta = StdRng::seed_from_u64(0xe8a0);
    for case in 0..64 {
        let seed = meta.gen_range(0..10_000u64);
        let n = meta.gen_range(2usize..25);
        let mut rng = StdRng::seed_from_u64(seed);
        let edges = random_edges(&mut rng, n, 3, 50);
        let goal = rng.gen_range(0..n);
        let g = RandomGraph { edges, goal };
        let a = best_first(&g).map(|f| f.cost);
        let e = exhaustive(&g).map(|f| f.cost);
        assert_eq!(a, e, "case {case} seed {seed} n {n}");
    }
}

#[test]
fn found_paths_are_valid_and_priced_right() {
    let mut meta = StdRng::seed_from_u64(0xf00d);
    for case in 0..64 {
        let seed = meta.gen_range(0..10_000u64);
        let n = meta.gen_range(2usize..30);
        let mut rng = StdRng::seed_from_u64(seed);
        let edges = random_edges(&mut rng, n, 3, 50);
        let goal = rng.gen_range(0..n);
        let g = RandomGraph {
            edges: edges.clone(),
            goal,
        };
        if let Some(found) = best_first(&g) {
            assert_eq!(*found.path.first().unwrap(), 0, "case {case}");
            assert_eq!(*found.path.last().unwrap(), goal, "case {case}");
            // Re-price the path using the cheapest parallel edge between
            // consecutive nodes; total must equal the reported cost.
            let mut total = 0i64;
            for w in found.path.windows(2) {
                let best = edges[w[0]]
                    .iter()
                    .filter(|(v, _)| *v == w[1])
                    .map(|(_, c)| *c)
                    .min()
                    .expect("edge exists on path");
                total += best;
            }
            assert_eq!(total, found.cost, "case {case} seed {seed}");
        }
    }
}

// ------------------------------------------- pruning above the goal bound

/// A random digraph with several goals and an admissible but generally
/// inconsistent heuristic. With `prune` set it leaves out every
/// successor whose f̂ exceeds the goal bound the engine hands it.
struct BoundedGraph {
    edges: Vec<Vec<(usize, i64)>>,
    h: Vec<i64>,
    goals: Vec<usize>,
    prune: bool,
}

impl SearchSpace for BoundedGraph {
    type State = usize;
    type Cost = i64;
    fn start_states(&self, out: &mut Vec<(usize, i64)>) {
        out.clear();
        out.push((0, 0));
    }
    fn successors(&self, s: &usize, labels: &dyn Labels<usize, i64>, out: &mut Vec<(usize, i64)>) {
        let cut = match (labels.label(s), labels.bound()) {
            (Some(g), Some(u)) if self.prune => Some((g, u)),
            _ => None,
        };
        out.extend(
            self.edges[*s]
                .iter()
                .copied()
                .filter(|&(t, w)| cut.is_none_or(|(g, u)| g + w + self.h[t] <= u)),
        );
    }
    fn is_goal(&self, s: &usize) -> bool {
        self.goals.contains(s)
    }
    fn heuristic(&self, s: &usize) -> i64 {
        self.h[*s]
    }
}

/// [`astar_in`] to completion under `upper_bound`, with the found path
/// moved into the outcome.
fn search(space: &BoundedGraph, upper_bound: Option<i64>) -> SearchOutcome<usize, i64> {
    let mut path = Vec::new();
    let budget = Budget::unlimited();
    let arena = &mut SearchArena::new();
    match astar_in(space, None, upper_bound, &budget, arena, &mut path) {
        SearchOutcome::Found(found) => SearchOutcome::Found(Found { path, ..found }),
        other => other,
    }
}

/// The pruning sweep's graph for one seed: random edges, three goals
/// and a random admissible (generally inconsistent) heuristic, pruned.
fn bounded_graph(rng: &mut StdRng, n: usize) -> BoundedGraph {
    let edges = random_edges(rng, n, 4, 60);
    let goals: Vec<usize> = (0..3).map(|_| rng.gen_range(1..n)).collect();
    // Exact remaining cost: shortest distance to any goal over the
    // reversed edges. A random share of it is admissible.
    let mut reversed = vec![Vec::new(); n + 1];
    for (u, adj) in edges.iter().enumerate() {
        for &(v, w) in adj {
            reversed[v].push((u, w));
        }
    }
    reversed[n] = goals.iter().map(|&g| (g, 0)).collect();
    let exact = bellman_ford(&reversed, n);
    let h: Vec<i64> = (0..n)
        .map(|v| match exact[v] {
            Some(d) => rng.gen_range(0..=d),
            None => rng.gen_range(0..200),
        })
        .collect();
    BoundedGraph {
        edges,
        h,
        goals,
        prune: true,
    }
}

#[test]
fn pruning_above_the_goal_bound_changes_no_expansion_path_or_cost() {
    let mut meta = StdRng::seed_from_u64(0xb0b0);
    let (mut pruned_generated, mut full_generated, mut reopened, mut found) = (0, 0, 0, 0);
    for case in 0..200 {
        let seed = meta.gen_range(0..10_000u64);
        let n = meta.gen_range(4usize..40);
        let pruned = bounded_graph(&mut StdRng::seed_from_u64(seed), n);
        let full = BoundedGraph {
            prune: false,
            ..bounded_graph(&mut StdRng::seed_from_u64(seed), n)
        };
        let (p, f) = (search(&pruned, None), search(&full, None));
        let (ps, fs) = (*p.stats(), *f.stats());
        assert_eq!(
            ps.expanded, fs.expanded,
            "case {case} seed {seed}: {ps} vs {fs}"
        );
        assert!(
            ps.reopened <= fs.reopened,
            "case {case} seed {seed}: {ps} vs {fs}"
        );
        assert!(
            ps.generated <= fs.generated,
            "case {case} seed {seed}: {ps} vs {fs}"
        );
        match (p, f) {
            (SearchOutcome::Found(p), SearchOutcome::Found(f)) => {
                assert_eq!(
                    (p.path, p.cost),
                    (f.path, f.cost),
                    "case {case} seed {seed}"
                );
                found += 1;
            }
            (SearchOutcome::Exhausted(_), SearchOutcome::Exhausted(_)) => {}
            (p, f) => panic!("case {case} seed {seed}: outcomes differ: {p:?} vs {f:?}"),
        }
        pruned_generated += ps.generated;
        full_generated += fs.generated;
        reopened += fs.reopened;
    }
    assert!(found > 100, "the sweep must find paths: {found}");
    assert!(
        pruned_generated < full_generated,
        "pruning must leave successors out: {pruned_generated} vs {full_generated}"
    );
    assert!(reopened > 0, "the sweep must cover reopened nodes");
}

/// The costs of real paths from the start to a goal: the optimum, the
/// paths breadth-first and depth-first search find, and a random walk
/// that reaches a goal. None is below the optimum.
fn real_path_costs(g: &BoundedGraph, rng: &mut StdRng) -> Vec<i64> {
    let n = g.edges.len();
    let found = [best_first(g), breadth_first(g), depth_first(g, n)];
    let mut costs: Vec<i64> = found.into_iter().flatten().map(|f| f.cost).collect();
    let (mut at, mut cost) = (0usize, 0i64);
    for _ in 0..4 * n {
        if g.goals.contains(&at) {
            costs.push(cost);
            break;
        }
        let Some(&(next, w)) = g.edges[at].get(rng.gen_range(0..g.edges[at].len().max(1))) else {
            break;
        };
        (at, cost) = (next, cost + w);
    }
    costs
}

/// An incumbent seeds the goal bound before the first expansion. Any
/// bound taken from a real path is at least C*, so with an admissible ĥ
/// A\* pops nothing above it either way: the same path, cost and
/// expansions as without one, no more successors, and the search counts
/// itself as seeded.
#[test]
fn an_incumbent_from_any_real_path_changes_no_expansion_path_or_cost() {
    let mut meta = StdRng::seed_from_u64(0x1c0b);
    let (mut seeded, mut unseeded, mut fell, mut tight) = (0, 0, 0, 0);
    for case in 0..200 {
        let seed = meta.gen_range(0..10_000u64);
        let n = meta.gen_range(4usize..40);
        let mut rng = StdRng::seed_from_u64(seed);
        let space = bounded_graph(&mut rng, n);
        let reference = search(&space, None);
        let SearchOutcome::Found(reference) = reference else {
            continue;
        };
        for u in real_path_costs(&space, &mut rng) {
            let what = format!("case {case} seed {seed} bound {u}");
            assert!(u >= reference.cost, "{what}: not a real path");
            let SearchOutcome::Found(found) = search(&space, Some(u)) else {
                panic!("{what}: a bounded search must find the path");
            };
            let (s, r) = (found.stats, reference.stats);
            assert_eq!(
                (&found.path, found.cost),
                (&reference.path, reference.cost),
                "{what}"
            );
            assert_eq!(s.expanded, r.expanded, "{what}: {s} vs {r}");
            assert!(s.reopened <= r.reopened, "{what}: {s} vs {r}");
            assert!(
                s.generated <= r.generated && s.touched <= r.touched && s.max_open <= r.max_open,
                "{what}: {s} vs {r}"
            );
            assert_eq!((s.seeded, r.seeded), (1, 0), "{what}");
            seeded += s.generated;
            unseeded += r.generated;
            fell += usize::from(s.generated < r.generated);
            tight += usize::from(u == reference.cost);
        }
    }
    assert!(
        seeded < unseeded && fell > 50,
        "incumbents must leave successors out: {seeded} vs {unseeded} in {fell} searches"
    );
    assert!(
        tight > 100,
        "the sweep must cover bounds equal to C*: {tight}"
    );
}
