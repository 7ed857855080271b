//! Blind searches: breadth-first, depth-first (with depth limit), and
//! exhaustive search.
//!
//! These are the strawmen of the paper's "Search Techniques" section —
//! "blind in the sense that they are not guided by information taken from
//! the problem domain". They are provided both for completeness of the
//! reproduction and because the Lee–Moore wavefront *is* breadth-first
//! search on the routing grid.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

use crate::{Found, PathCost, SearchSpace, SearchStats};

/// Breadth-first search: OPEN served first-in-first-out.
///
/// Returns the path with the fewest *edges* to a goal (ignoring weights;
/// the reported `cost` sums the actual edge costs along that path, which
/// is minimal only when all edges cost the same — exactly the unit-step
/// grid case where Lee–Moore uses it).
pub fn breadth_first<Sp: SearchSpace>(space: &Sp) -> Option<Found<Sp::State, Sp::Cost>> {
    let mut stats = SearchStats::default();
    let mut parents: HashMap<Sp::State, Option<Sp::State>> = HashMap::new();
    let mut gvals: HashMap<Sp::State, Sp::Cost> = HashMap::new();
    let mut queue: VecDeque<Sp::State> = VecDeque::new();
    let mut starts = Vec::new();
    space.start_states(&mut starts);
    for (s, g0) in starts {
        if let Entry::Vacant(e) = parents.entry(s.clone()) {
            e.insert(None);
            gvals.insert(s.clone(), g0);
            queue.push_back(s);
        }
    }
    let mut succ_buf = Vec::new();
    while let Some(state) = queue.pop_front() {
        stats.max_open = stats.max_open.max(queue.len() + 1);
        if space.is_goal(&state) {
            stats.touched = parents.len();
            let cost = gvals[&state];
            let path = reconstruct(&parents, state);
            return Some(Found { path, cost, stats });
        }
        stats.expanded += 1;
        succ_buf.clear();
        space.successors(&state, &mut succ_buf);
        stats.generated += succ_buf.len();
        let g = gvals[&state];
        for (succ, edge) in succ_buf.drain(..) {
            if let Entry::Vacant(e) = parents.entry(succ.clone()) {
                e.insert(Some(state.clone()));
                gvals.insert(succ.clone(), g.plus(edge));
                queue.push_back(succ);
            }
        }
        stats.touched = parents.len();
    }
    None
}

/// Depth-first search with the depth limit the paper recommends "to
/// prevent the algorithm from going too far down the wrong path".
///
/// Returns *a* path to a goal with at most `depth_limit` edges, not
/// necessarily a cheap one. A global visited set keeps the search linear;
/// a state first reached at depth d is not revisited at shallower depths,
/// so a goal deeper than its first visit may be missed — acceptable for a
/// blind strawman.
pub fn depth_first<Sp: SearchSpace>(
    space: &Sp,
    depth_limit: usize,
) -> Option<Found<Sp::State, Sp::Cost>> {
    let mut stats = SearchStats::default();
    let mut parents: HashMap<Sp::State, Option<Sp::State>> = HashMap::new();
    let mut gvals: HashMap<Sp::State, (Sp::Cost, usize)> = HashMap::new();
    let mut stack: Vec<Sp::State> = Vec::new();
    let mut starts = Vec::new();
    space.start_states(&mut starts);
    for (s, g0) in starts {
        if let Entry::Vacant(e) = parents.entry(s.clone()) {
            e.insert(None);
            gvals.insert(s.clone(), (g0, 0));
            stack.push(s);
        }
    }
    let mut succ_buf = Vec::new();
    while let Some(state) = stack.pop() {
        stats.max_open = stats.max_open.max(stack.len() + 1);
        if space.is_goal(&state) {
            stats.touched = parents.len();
            let cost = gvals[&state].0;
            let path = reconstruct(&parents, state);
            return Some(Found { path, cost, stats });
        }
        let (g, depth) = gvals[&state];
        if depth >= depth_limit {
            continue;
        }
        stats.expanded += 1;
        succ_buf.clear();
        space.successors(&state, &mut succ_buf);
        stats.generated += succ_buf.len();
        // Push in reverse so the first-listed successor is explored first.
        for (succ, edge) in succ_buf.drain(..).rev() {
            if let Entry::Vacant(e) = parents.entry(succ.clone()) {
                e.insert(Some(state.clone()));
                gvals.insert(succ.clone(), (g.plus(edge), depth + 1));
                stack.push(succ);
            }
        }
        stats.touched = parents.len();
    }
    None
}

/// Exhaustive search: uniform-cost relaxation that ignores the termination
/// condition and stops "only when no more nodes \[are\] left on OPEN",
/// then reports the best goal discovered.
///
/// As the paper notes, with this policy "the order in which nodes were
/// placed on OPEN would not matter since all nodes would eventually be
/// expanded" — it exists to demonstrate how much work the termination
/// condition saves. The returned path *is* minimal-cost.
pub fn exhaustive<Sp: SearchSpace>(space: &Sp) -> Option<Found<Sp::State, Sp::Cost>> {
    use std::collections::BinaryHeap;
    // Dijkstra relaxation to completion over the reachable graph.
    struct E<C> {
        g: C,
        id: usize,
    }
    impl<C: PathCost> PartialEq for E<C> {
        fn eq(&self, o: &Self) -> bool {
            self.g == o.g
        }
    }
    impl<C: PathCost> Eq for E<C> {}
    impl<C: PathCost> PartialOrd for E<C> {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }
    impl<C: PathCost> Ord for E<C> {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            o.g.cmp(&self.g).then_with(|| o.id.cmp(&self.id))
        }
    }

    /// (state, best g, parent, closed)
    type Node<S, C> = (S, C, Option<usize>, bool);
    let mut stats = SearchStats::default();
    let mut nodes: Vec<Node<Sp::State, Sp::Cost>> = Vec::new();
    let mut index: HashMap<Sp::State, usize> = HashMap::new();
    let mut heap: BinaryHeap<E<Sp::Cost>> = BinaryHeap::new();
    let mut starts = Vec::new();
    space.start_states(&mut starts);
    for (s, g0) in starts {
        match index.entry(s.clone()) {
            Entry::Occupied(e) => {
                let id = *e.get();
                if g0 < nodes[id].1 {
                    nodes[id].1 = g0;
                    heap.push(E { g: g0, id });
                }
            }
            Entry::Vacant(e) => {
                let id = nodes.len();
                e.insert(id);
                nodes.push((s, g0, None, false));
                heap.push(E { g: g0, id });
            }
        }
    }
    let mut succ_buf = Vec::new();
    while let Some(E { g, id }) = heap.pop() {
        if nodes[id].3 || g != nodes[id].1 {
            continue;
        }
        nodes[id].3 = true;
        stats.expanded += 1;
        succ_buf.clear();
        space.successors(&nodes[id].0, &mut succ_buf);
        stats.generated += succ_buf.len();
        for (succ, edge) in succ_buf.drain(..) {
            let ng = g.plus(edge);
            match index.entry(succ.clone()) {
                Entry::Occupied(e) => {
                    let sid = *e.get();
                    if ng < nodes[sid].1 {
                        nodes[sid].1 = ng;
                        nodes[sid].2 = Some(id);
                        nodes[sid].3 = false;
                        heap.push(E { g: ng, id: sid });
                    }
                }
                Entry::Vacant(e) => {
                    let sid = nodes.len();
                    e.insert(sid);
                    nodes.push((succ, ng, Some(id), false));
                    heap.push(E { g: ng, id: sid });
                }
            }
        }
        stats.max_open = stats.max_open.max(heap.len());
        stats.touched = nodes.len();
    }
    // Best goal after relaxing everything.
    let best = nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| space.is_goal(&n.0))
        .min_by_key(|(_, n)| n.1)?;
    let mut path = Vec::new();
    let mut cur = Some(best.0);
    while let Some(i) = cur {
        path.push(nodes[i].0.clone());
        cur = nodes[i].2;
    }
    path.reverse();
    Some(Found {
        path,
        cost: best.1 .1,
        stats,
    })
}

fn reconstruct<S: Clone + Eq + std::hash::Hash>(
    parents: &HashMap<S, Option<S>>,
    goal: S,
) -> Vec<S> {
    let mut path = vec![goal];
    while let Some(Some(p)) = parents.get(path.last().expect("non-empty")) {
        path.push(p.clone());
    }
    path.reverse();
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::astar;

    /// A small bidirectional grid with a wall, unit edge costs.
    struct GridWorld {
        w: i32,
        h: i32,
        walls: Vec<(i32, i32)>,
        start: (i32, i32),
        goal: (i32, i32),
    }

    impl SearchSpace for GridWorld {
        type State = (i32, i32);
        type Cost = i64;
        fn start_states(&self, out: &mut Vec<((i32, i32), i64)>) {
            out.clear();
            out.push((self.start, 0));
        }
        fn successors(&self, s: &(i32, i32), out: &mut Vec<((i32, i32), i64)>) {
            for (dx, dy) in [(1, 0), (-1, 0), (0, 1), (0, -1)] {
                let n = (s.0 + dx, s.1 + dy);
                let inside = n.0 >= 0 && n.0 < self.w && n.1 >= 0 && n.1 < self.h;
                if inside && !self.walls.contains(&n) {
                    out.push((n, 1));
                }
            }
        }
        fn is_goal(&self, s: &(i32, i32)) -> bool {
            *s == self.goal
        }
        fn heuristic(&self, s: &(i32, i32)) -> i64 {
            ((s.0 - self.goal.0).abs() + (s.1 - self.goal.1).abs()) as i64
        }
    }

    fn world() -> GridWorld {
        GridWorld {
            w: 9,
            h: 7,
            // A vertical wall with a gap at the bottom.
            walls: (1..7).map(|y| (4, y)).collect(),
            start: (1, 3),
            goal: (7, 3),
        }
    }

    #[test]
    fn bfs_equals_astar_on_unit_grid() {
        let w = world();
        let b = breadth_first(&w).unwrap();
        let a = astar(&w).unwrap();
        assert_eq!(b.cost, a.cost);
        assert_eq!(b.cost, 12); // around the wall through (4, 0)
    }

    #[test]
    fn bfs_expands_more_than_astar() {
        let w = world();
        let b = breadth_first(&w).unwrap();
        let a = astar(&w).unwrap();
        assert!(
            b.stats.expanded > a.stats.expanded,
            "bfs {} vs a* {}",
            b.stats.expanded,
            a.stats.expanded
        );
    }

    #[test]
    fn dfs_respects_depth_limit() {
        let w = world();
        assert!(depth_first(&w, 5).is_none()); // true distance is 12
        let found = depth_first(&w, 60).unwrap();
        assert!(found.path.len() <= 61);
        assert!(found.cost >= 12); // any found path is at least optimal length
    }

    #[test]
    fn exhaustive_matches_astar_cost_but_expands_everything() {
        let w = world();
        let e = exhaustive(&w).unwrap();
        let a = astar(&w).unwrap();
        assert_eq!(e.cost, a.cost);
        // Exhaustive expands (almost) every free cell.
        let free_cells = (9 * 7 - 6) as usize;
        assert!(e.stats.expanded >= free_cells - 1);
        assert!(a.stats.expanded < e.stats.expanded);
    }

    #[test]
    fn exhaustive_on_unreachable_goal_is_none() {
        let mut w = world();
        // Seal the gap.
        w.walls.push((4, 0));
        assert!(exhaustive(&w).is_none());
        assert!(breadth_first(&w).is_none());
        assert!(depth_first(&w, 1000).is_none());
        assert!(astar(&w).is_none());
    }

    #[test]
    fn bfs_path_is_connected() {
        let w = world();
        let found = breadth_first(&w).unwrap();
        assert_eq!(*found.path.first().unwrap(), (1, 3));
        assert_eq!(*found.path.last().unwrap(), (7, 3));
        for pair in found.path.windows(2) {
            let d = (pair[0].0 - pair[1].0).abs() + (pair[0].1 - pair[1].1).abs();
            assert_eq!(d, 1);
        }
    }

    #[test]
    fn dfs_zero_limit_only_checks_starts() {
        let w = world();
        assert!(depth_first(&w, 0).is_none());
        let trivial = GridWorld {
            goal: (1, 3),
            ..world()
        };
        let found = depth_first(&trivial, 0).unwrap();
        assert_eq!(found.path, vec![(1, 3)]);
    }
}
