//! Cross-engine validation on problems away from routing: the paper traces
//! the A* lineage through game search ("chess, checkers, and the
//! 15-puzzle"), so we exercise the engine on the 8-puzzle and on random
//! weighted graphs checked against Bellman–Ford.

use gcr_search::{
    astar, astar_in, best_first, breadth_first, depth_first, exhaustive, Budget, Runs, SearchArena,
    SearchOutcome, SearchSpace, SearchStats, CHARGE_BLOCK,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};

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
    fn successors(&self, s: &Tray, out: &mut Vec<(Tray, i64)>) {
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
    fn successors(&self, s: &usize, out: &mut Vec<(usize, i64)>) {
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

// ------------------------------------------ the eager reference engine

/// How a search ended, with the work both engines must agree on.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Ended<S> {
    kind: &'static str,
    path: Vec<S>,
    cost: Option<i64>,
    expanded: usize,
    reopened: usize,
}

/// The A\* loop as it was before OPEN held runs: every successor is
/// priced when its node is expanded, labels its state at once if it
/// improves it, and goes on OPEN with the next sequence number. Kept as
/// the oracle the engine must match pop for pop.
fn eager<Sp: SearchSpace<Cost = i64>>(
    space: &Sp,
    max_expansions: Option<usize>,
    budget: &Budget,
) -> Ended<Sp::State> {
    struct Node<S> {
        state: S,
        g: i64,
        parent: Option<usize>,
        closed: bool,
    }
    #[derive(PartialEq, Eq)]
    struct Queued {
        f: i64,
        g: i64,
        node: usize,
        seq: u64,
    }
    impl Ord for Queued {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other
                .f
                .cmp(&self.f)
                .then_with(|| self.g.cmp(&other.g))
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }
    impl PartialOrd for Queued {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    let mut nodes: Vec<Node<Sp::State>> = Vec::new();
    let mut index: HashMap<Sp::State, usize> = HashMap::new();
    let mut open = BinaryHeap::new();
    let (mut seq, mut expanded, mut reopened, mut uncharged) = (0u64, 0, 0, 0u64);
    let mut starts = Vec::new();
    space.start_states(&mut starts);
    for (state, g0) in starts {
        let id = match index.entry(state.clone()) {
            Entry::Occupied(e) if g0 < nodes[*e.get()].g => *e.get(),
            Entry::Occupied(_) => continue,
            Entry::Vacant(e) => {
                e.insert(nodes.len());
                nodes.push(Node {
                    state: state.clone(),
                    g: g0,
                    parent: None,
                    closed: false,
                });
                nodes.len() - 1
            }
        };
        nodes[id].g = g0;
        open.push(Queued {
            f: g0 + space.heuristic(&state),
            g: g0,
            node: id,
            seq,
        });
        seq += 1;
    }
    let ended = |kind, path, cost, expanded, reopened| Ended {
        kind,
        path,
        cost,
        expanded,
        reopened,
    };
    let mut succ = Vec::new();
    let outcome = loop {
        let Some(entry) = open.pop() else {
            break ended("exhausted", Vec::new(), None, expanded, reopened);
        };
        let id = entry.node;
        if nodes[id].closed || entry.g != nodes[id].g {
            continue;
        }
        nodes[id].closed = true;
        if space.is_goal(&nodes[id].state) {
            let mut path = Vec::new();
            let mut cur = Some(id);
            while let Some(i) = cur {
                path.push(nodes[i].state.clone());
                cur = nodes[i].parent;
            }
            path.reverse();
            break ended("found", path, Some(nodes[id].g), expanded, reopened);
        }
        if max_expansions.is_some_and(|max| expanded >= max) {
            break ended("limit", Vec::new(), None, expanded, reopened);
        }
        if budget.check_cancel().is_err() {
            break ended("cancelled", Vec::new(), None, expanded, reopened);
        }
        uncharged += 1;
        if uncharged >= CHARGE_BLOCK && budget.charge(std::mem::take(&mut uncharged)).is_err() {
            break ended("cancelled", Vec::new(), None, expanded, reopened);
        }
        expanded += 1;
        succ.clear();
        space.successors(&nodes[id].state, &mut succ);
        for (to, edge) in succ.drain(..) {
            let g = nodes[id].g + edge;
            let sid = match index.entry(to.clone()) {
                Entry::Occupied(e) => {
                    let sid = *e.get();
                    if g >= nodes[sid].g {
                        continue;
                    }
                    if nodes[sid].closed {
                        nodes[sid].closed = false;
                        reopened += 1;
                    }
                    sid
                }
                Entry::Vacant(e) => {
                    e.insert(nodes.len());
                    nodes.push(Node {
                        state: to.clone(),
                        g,
                        parent: None,
                        closed: false,
                    });
                    nodes.len() - 1
                }
            };
            nodes[sid].g = g;
            nodes[sid].parent = Some(id);
            open.push(Queued {
                f: g + space.heuristic(&to),
                g,
                node: sid,
                seq,
            });
            seq += 1;
        }
    };
    let _ = budget.charge(uncharged);
    outcome
}

/// [`astar_in`] under `max_expansions`, `upper_bound` and `budget`, with
/// its counters.
fn lazy<Sp: SearchSpace<Cost = i64>>(
    space: &Sp,
    max_expansions: Option<usize>,
    upper_bound: Option<i64>,
    budget: &Budget,
) -> (Ended<Sp::State>, SearchStats) {
    let mut path = Vec::new();
    let arena = &mut SearchArena::new();
    let outcome = astar_in(space, max_expansions, upper_bound, budget, arena, &mut path);
    let (kind, cost) = match &outcome {
        SearchOutcome::Found(found) => ("found", Some(found.cost)),
        SearchOutcome::Exhausted(_) => ("exhausted", None),
        SearchOutcome::LimitReached(_) => ("limit", None),
        SearchOutcome::Cancelled(..) => ("cancelled", None),
    };
    let stats = *outcome.stats();
    let ended = Ended {
        kind,
        path,
        cost,
        expanded: stats.expanded,
        reopened: stats.reopened,
    };
    (ended, stats)
}

/// A space that records the states it is asked to expand, in order.
trait Recording: SearchSpace<Cost = i64> {
    fn log(&self) -> &RefCell<Vec<Self::State>>;
}

/// Runs the eager oracle and the engine on `space` under the same cap,
/// incumbent and budget, and asserts they pop the same nodes in the same
/// order and end the same way. Returns the result with the engine's
/// counters.
fn match_eager<Sp: Recording>(
    space: &Sp,
    max_expansions: Option<usize>,
    upper_bound: Option<i64>,
    cancelled: bool,
    what: &str,
) -> (Ended<Sp::State>, SearchStats)
where
    Sp::State: std::fmt::Debug,
{
    let budget = || {
        let b = Budget::unlimited();
        if cancelled {
            b.cancel();
        }
        b
    };
    space.log().borrow_mut().clear();
    let want = eager(space, max_expansions, &budget());
    let want_log = space.log().take();
    let (got, stats) = lazy(space, max_expansions, upper_bound, &budget());
    let got_log = space.log().take();
    assert_eq!(got_log, want_log, "{what}: expansion sequence");
    assert_eq!(got, want, "{what}");
    // A label for each state expanded, and one for the goal reached.
    let mut labelled: Vec<&Sp::State> = got_log.iter().chain(got.path.last()).collect();
    labelled.sort_by_key(|s| format!("{s:?}"));
    labelled.dedup();
    assert_eq!(stats.touched, labelled.len(), "{what}: states labelled");
    (want, stats)
}

/// Asserts that a search seeded with an incumbent did no more work than
/// the same search `cold` and counted itself as seeded, and returns the
/// successors it placed and the most entries it queued.
fn no_more_work(seeded: &SearchStats, cold: &SearchStats, what: &str) -> (usize, usize) {
    let (s, r) = (seeded, cold);
    assert!(
        s.generated <= r.generated && s.touched <= r.touched && s.max_open <= r.max_open,
        "{what}: {s} vs {r}"
    );
    assert_eq!((s.seeded, r.seeded), (1, 0), "{what}");
    (s.generated, s.max_open)
}

// ------------------------------------------------ random graphs vs eager

/// A random digraph with several goals, several sources with initial
/// costs, an admissible but generally inconsistent heuristic, duplicate
/// successors and many equal-f̂ ties (small integer weights, zeros
/// included).
struct TieGraph {
    edges: Vec<Vec<(usize, i64)>>,
    h: Vec<i64>,
    starts: Vec<(usize, i64)>,
    goals: Vec<usize>,
    log: RefCell<Vec<usize>>,
}

impl SearchSpace for TieGraph {
    type State = usize;
    type Cost = i64;
    fn start_states(&self, out: &mut Vec<(usize, i64)>) {
        out.clear();
        out.extend_from_slice(&self.starts);
    }
    fn successors(&self, s: &usize, out: &mut Vec<(usize, i64)>) {
        self.log.borrow_mut().push(*s);
        out.extend(self.edges[*s].iter().copied());
    }
    fn is_goal(&self, s: &usize) -> bool {
        self.goals.contains(s)
    }
    fn heuristic(&self, s: &usize) -> i64 {
        self.h[*s]
    }
}

impl Recording for TieGraph {
    fn log(&self) -> &RefCell<Vec<usize>> {
        &self.log
    }
}

fn tie_graph(rng: &mut StdRng, n: usize) -> TieGraph {
    let mut edges = random_edges(rng, n, 4, 6);
    for adj in edges.iter_mut() {
        // A duplicate successor, at the same or another weight.
        if let Some(&(v, w)) = adj.first() {
            adj.push((v, w + rng.gen_range(0..2)));
        }
    }
    let goals: Vec<usize> = (0..rng.gen_range(1..4))
        .map(|_| rng.gen_range(0..n))
        .collect();
    let starts: Vec<(usize, i64)> = (0..rng.gen_range(1..4))
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..4)))
        .collect();
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
    let h = (0..n)
        .map(|v| match exact[v] {
            Some(d) => rng.gen_range(0..=d),
            None => rng.gen_range(0..20),
        })
        .collect();
    TieGraph {
        edges,
        h,
        starts,
        goals,
        log: RefCell::new(Vec::new()),
    }
}

/// The costs of real paths from a start to a goal: the optimum, the
/// paths breadth-first and depth-first search find, and a random walk
/// that reaches a goal. None is below the optimum.
fn real_path_costs<Sp: SearchSpace<Cost = i64>>(space: &Sp, walk: Option<i64>) -> Vec<i64> {
    let found = [
        best_first(space),
        breadth_first(space),
        depth_first(space, 64),
    ];
    let mut costs: Vec<i64> = found.into_iter().flatten().map(|f| f.cost).collect();
    costs.extend(walk);
    costs
}

/// A random walk's cost from a start to a goal, if one gets there.
fn walk_cost(g: &TieGraph, rng: &mut StdRng) -> Option<i64> {
    let (mut at, mut cost) = *g.starts.first()?;
    for _ in 0..4 * g.edges.len() {
        if g.goals.contains(&at) {
            return Some(cost);
        }
        let &(next, w) = g.edges[at].get(rng.gen_range(0..g.edges[at].len().max(1)))?;
        (at, cost) = (next, cost + w);
    }
    None
}

/// On random graphs with inconsistent heuristics, equal-f̂ ties,
/// duplicate successors and several sources, A\* must pop exactly what
/// the eager loop pops: the same expansions in the same order, the same
/// path, cost, `expanded`, `reopened` and outcome, cold, seeded with any
/// real path's cost, capped, and under a cancelled budget. An incumbent
/// adds no work, and keeps the edges above it off OPEN.
#[test]
fn runs_of_edges_pop_exactly_what_eager_astar_pops() {
    let mut meta = StdRng::seed_from_u64(0xea9e);
    let (mut found, mut reopened, mut seeded, mut capped) = (0, 0, 0, 0);
    let (mut open_seeded, mut open_cold, mut fell) = (0, 0, 0);
    for case in 0..300 {
        let seed = meta.gen_range(0..100_000u64);
        let n = meta.gen_range(2usize..40);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = tie_graph(&mut rng, n);
        let what = format!("case {case} seed {seed} n {n}");
        let (cold, r) = match_eager(&g, None, None, false, &what);
        found += usize::from(cold.kind == "found");
        reopened += cold.reopened;
        if let Some(c) = cold.cost {
            for u in real_path_costs(&g, walk_cost(&g, &mut rng)) {
                assert!(u >= c, "{what}: not a real path");
                let what = format!("{what} bound {u}");
                let (_, s) = match_eager(&g, None, Some(u), false, &what);
                let (_, open) = no_more_work(&s, &r, &what);
                open_seeded += open;
                open_cold += r.max_open;
                fell += usize::from(open < r.max_open);
                seeded += 1;
            }
        }
        if cold.expanded > 1 {
            let cap = rng.gen_range(1..cold.expanded);
            let (ended, _) = match_eager(&g, Some(cap), None, false, &format!("{what} cap {cap}"));
            capped += usize::from(ended.kind == "limit");
        }
        let (stopped, _) = match_eager(&g, None, None, true, &format!("{what} cancelled"));
        assert!(["cancelled", "found"].contains(&stopped.kind), "{what}");
    }
    assert!(found > 150, "the sweep must find paths: {found}");
    assert!(reopened > 0, "the sweep must reopen nodes");
    assert!(
        seeded > 300 && capped > 100,
        "{seeded} seeded, {capped} capped"
    );
    assert!(
        open_seeded < open_cold && fell > 50,
        "incumbents must keep edges off OPEN: {open_seeded} vs {open_cold} in {fell} searches"
    );
}

// ------------------------------------------------- rays with long blocks

/// Lanes on a `w` × `h` lattice, away from any geometry: a ray runs in a
/// direction (0 east, 1 north, 2 west, 3 south) to the lattice's edge and
/// stops on every lane it crosses, at `unit` per unit of wire plus a toll per
/// unit on a few rows and columns. A bend pays 1 to depart, except on
/// every third diagonal, so many rays wait on OPEN uncast.
/// ĥ is `unit` × the Manhattan distance to the nearest goal (with `unit`
/// 1 a bend costs as much as a unit of wire, which makes ties between
/// different states common), so f̂ holds still
/// along every stretch toward a goal: rays there pop as long equal-f̂
/// blocks, far to near. Its rays are maximal unless a source arrives.
struct Lanes {
    w: i64,
    h: i64,
    /// The cost of a unit of wire.
    unit: i64,
    /// The lanes: the columns a horizontal ray stops on, and the rows a
    /// vertical one does.
    xs: Vec<i64>,
    ys: Vec<i64>,
    /// Per-unit tolls of each row (horizontal wire) and column.
    row_toll: Vec<i64>,
    col_toll: Vec<i64>,
    starts: Vec<(LaneState, i64)>,
    goals: Vec<(i64, i64)>,
    log: RefCell<Vec<LaneState>>,
}

/// A lattice point and the direction a ray arrived in, or none at a
/// source.
type LaneState = (i64, i64, Option<u8>);

const STEP: [(i64, i64); 4] = [(1, 0), (0, 1), (-1, 0), (0, -1)];

impl Lanes {
    fn maximal(&self) -> bool {
        self.starts.iter().all(|(s, _)| s.2.is_none())
    }

    fn departure(&self, from: &LaneState, d: u8) -> i64 {
        let bends = from.2.is_some_and(|a| a % 2 != d % 2);
        // A bend on every third diagonal is anchored and free.
        i64::from(bends && (from.0 + 2 * from.1) % 3 != 0)
    }

    /// Every stop of the ray from `(x, y)` in direction `d`, in travel
    /// order.
    fn ray(&self, (x, y): (i64, i64), d: u8) -> Vec<(i64, i64)> {
        let (dx, dy) = STEP[d as usize];
        let (mut cx, mut cy) = (x + dx, y + dy);
        let mut out = Vec::new();
        while (0..self.w).contains(&cx) && (0..self.h).contains(&cy) {
            let on_lane = if dx != 0 {
                self.xs.contains(&cx)
            } else {
                self.ys.contains(&cy)
            };
            if on_lane {
                out.push((cx, cy));
            }
            (cx, cy) = (cx + dx, cy + dy);
        }
        out
    }
}

impl SearchSpace for Lanes {
    type State = LaneState;
    type Cost = i64;
    fn start_states(&self, out: &mut Vec<(LaneState, i64)>) {
        out.clear();
        out.extend_from_slice(&self.starts);
    }
    fn successors(&self, s: &LaneState, out: &mut Vec<(LaneState, i64)>) {
        self.log.borrow_mut().push(*s);
        for d in 0..4u8 {
            if s.2 == Some((d + 2) % 4) {
                continue;
            }
            for (x, y) in self.ray((s.0, s.1), d) {
                let to = (x, y, Some(d));
                out.push((to, self.departure(s, d) + self.leg(s, &to)));
            }
        }
    }
    fn is_goal(&self, s: &LaneState) -> bool {
        self.goals.contains(&(s.0, s.1))
    }
    fn heuristic(&self, s: &LaneState) -> i64 {
        let dist = |&(x, y): &(i64, i64)| self.unit * ((x - s.0).abs() + (y - s.1).abs());
        self.goals.iter().map(dist).min().unwrap_or(0)
    }
    fn runs(&self, s: &LaneState, out: &mut Runs<LaneState, i64>) {
        self.log.borrow_mut().push(*s);
        for d in 0..4u8 {
            if s.2 != Some((d + 2) % 4) {
                out.ray((s.0, s.1, Some(d)), self.departure(s, d), self.maximal());
            }
        }
    }
    fn stops(&self, from: &LaneState, origin: &LaneState, mut each: impl FnMut(LaneState) -> bool) {
        let d = origin.2.expect("a ray is named by its direction");
        for (x, y) in self.ray((from.0, from.1), d) {
            if !each((x, y, Some(d))) {
                break;
            }
        }
    }
    fn leg(&self, from: &LaneState, to: &LaneState) -> i64 {
        let (lo_x, hi_x) = (from.0.min(to.0), from.0.max(to.0));
        let (lo_y, hi_y) = (from.1.min(to.1), from.1.max(to.1));
        let tolls = if from.1 == to.1 {
            self.row_toll[from.1 as usize] * (hi_x - lo_x)
        } else {
            self.col_toll[from.0 as usize] * (hi_y - lo_y)
        };
        self.leg_floor(from, to) + tolls
    }
    fn leg_floor(&self, from: &LaneState, to: &LaneState) -> i64 {
        self.unit * ((from.0 - to.0).abs() + (from.1 - to.1).abs())
    }
}

impl Recording for Lanes {
    fn log(&self) -> &RefCell<Vec<LaneState>> {
        &self.log
    }
}

fn lanes(rng: &mut StdRng, arrived: bool) -> Lanes {
    let (w, h) = (rng.gen_range(6..24), rng.gen_range(6..24));
    // Sometimes every line is a lane and no wire pays a toll: a plain
    // lattice, where many states tie on both f̂ and ĝ.
    let plain = rng.gen_range(0..3) == 0;
    let pick = |rng: &mut StdRng, n: i64| -> Vec<i64> {
        let mut v: Vec<i64> = (0..n)
            .filter(|_| plain || rng.gen_range(0..3) > 0)
            .collect();
        v.extend([0, n - 1]);
        v.sort_unstable();
        v.dedup();
        v
    };
    let (xs, ys) = (pick(rng, w), pick(rng, h));
    let toll = |rng: &mut StdRng, n: i64| -> Vec<i64> {
        (0..n)
            .map(|_| {
                if !plain && rng.gen_range(0..6) == 0 {
                    rng.gen_range(1..8)
                } else {
                    0
                }
            })
            .collect()
    };
    let (row_toll, col_toll) = (toll(rng, h), toll(rng, w));
    let lattice = |rng: &mut StdRng| {
        (
            xs[rng.gen_range(0..xs.len())],
            ys[rng.gen_range(0..ys.len())],
        )
    };
    let goals = (0..rng.gen_range(1..3)).map(|_| lattice(rng)).collect();
    let starts = (0..rng.gen_range(1..3))
        .map(|_| {
            let (x, y) = lattice(rng);
            let arrival = arrived.then(|| rng.gen_range(0..4u8));
            ((x, y, arrival), rng.gen_range(0..3))
        })
        .collect();
    Lanes {
        w,
        h,
        unit: [1, 10][rng.gen_range(0..2)],
        xs,
        ys,
        row_toll,
        col_toll,
        starts,
        goals,
        log: RefCell::new(Vec::new()),
    }
}

/// Blocks of three or more stops of equal f̂ on the rays of `space`'s
/// expanded states: the stretches the cursor serves far to near.
fn long_blocks(space: &Lanes, expanded: &[LaneState]) -> usize {
    let mut blocks = 0;
    for s in expanded {
        for d in 0..4u8 {
            let f: Vec<i64> = space
                .ray((s.0, s.1), d)
                .into_iter()
                .map(|(x, y)| {
                    let to = (x, y, Some(d));
                    space.leg(s, &to) + space.heuristic(&to)
                })
                .collect();
            blocks += f
                .chunk_by(|a, b| a == b)
                .filter(|block| block.len() >= 3)
                .count();
        }
    }
    blocks
}

/// On lanes away from geometry, where rays pop in long equal-f̂ blocks,
/// some of them deferred by their bend's cost and cut short by labels
/// and the goal bound, A\* must pop exactly what the eager loop pops over
/// the same successors: cold, seeded, capped, cancelled, and with
/// sources that arrive (whose rays are not maximal).
#[test]
fn rays_with_long_equal_f_blocks_pop_exactly_what_eager_astar_pops() {
    let mut meta = StdRng::seed_from_u64(0x1a9e);
    let (mut found, mut blocks, mut seeded, mut arrived) = (0, 0, 0, 0);
    let (mut placed_seeded, mut placed_cold, mut fell) = (0, 0, 0);
    for case in 0..400 {
        let seed = meta.gen_range(0..100_000u64);
        let mut rng = StdRng::seed_from_u64(seed);
        let space = lanes(&mut rng, case % 4 == 3);
        let what = format!("case {case} seed {seed}");
        let (cold, r) = match_eager(&space, None, None, false, &what);
        let mut expanded = Vec::new();
        let _ = eager_log(&space, &mut expanded);
        blocks += long_blocks(&space, &expanded);
        found += usize::from(cold.kind == "found");
        arrived += usize::from(!space.maximal());
        if let Some(c) = cold.cost {
            for u in [c, c + 1, c + space.unit * rng.gen_range(1..20)] {
                let what = format!("{what} bound {u}");
                let (_, s) = match_eager(&space, None, Some(u), false, &what);
                let (placed, _) = no_more_work(&s, &r, &what);
                placed_seeded += placed;
                placed_cold += r.generated;
                fell += usize::from(placed < r.generated);
                seeded += 1;
            }
        }
        if cold.expanded > 1 {
            let cap = rng.gen_range(1..cold.expanded);
            match_eager(&space, Some(cap), None, false, &format!("{what} cap {cap}"));
        }
        match_eager(&space, None, None, true, &format!("{what} cancelled"));
    }
    assert!(found > 300, "the sweep must find paths: {found}");
    assert!(blocks > 300, "rays must pop long equal-f̂ blocks: {blocks}");
    assert!(
        seeded > 900 && arrived > 50,
        "{seeded} seeded, {arrived} arrived"
    );
    assert!(
        placed_seeded < placed_cold && fell > 300,
        "incumbents must leave stops out: {placed_seeded} vs {placed_cold} in {fell} searches"
    );
}

/// The states the eager loop expands on `space`, into `out`.
fn eager_log(space: &Lanes, out: &mut Vec<LaneState>) -> Ended<LaneState> {
    space.log.borrow_mut().clear();
    let ended = eager(space, None, &Budget::unlimited());
    *out = space.log.take();
    ended
}
