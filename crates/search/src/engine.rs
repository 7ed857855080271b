//! The A\* / best-first engine with OPEN and CLOSED lists.

use std::collections::binary_heap::PeekMut;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, VecDeque};

use crate::{
    Budget, CancelReason, FnvHashMap, PathCost, Runs, SearchSpace, SearchStats, ZeroHeuristic,
    CHARGE_BLOCK,
};

/// A successful search: the minimal-cost path, its cost, and the work done.
#[derive(Debug, Clone)]
pub struct Found<S, C> {
    /// States from a start state to the goal, inclusive.
    pub path: Vec<S>,
    /// Total path cost ĝ(goal).
    pub cost: C,
    /// Instrumentation counters.
    pub stats: SearchStats,
}

/// The ways an [`astar_in`] search can end.
#[derive(Debug, Clone)]
pub enum SearchOutcome<S, C> {
    /// A goal was removed from OPEN; the path is minimal-cost (given an
    /// admissible heuristic).
    Found(Found<S, C>),
    /// OPEN emptied without reaching a goal: no path exists.
    Exhausted(SearchStats),
    /// The search's own expansion cap (`max_expansions`) was hit first.
    LimitReached(SearchStats),
    /// The shared [`Budget`] was exhausted or cancelled first.
    Cancelled(CancelReason, SearchStats),
}

impl<S, C> SearchOutcome<S, C> {
    /// The `Found` payload, if the search succeeded.
    #[must_use]
    pub fn found(self) -> Option<Found<S, C>> {
        match self {
            SearchOutcome::Found(f) => Some(f),
            _ => None,
        }
    }

    /// The statistics, whatever the outcome.
    #[must_use]
    pub fn stats(&self) -> &SearchStats {
        match self {
            SearchOutcome::Found(f) => &f.stats,
            SearchOutcome::Exhausted(s)
            | SearchOutcome::LimitReached(s)
            | SearchOutcome::Cancelled(_, s) => s,
        }
    }
}

/// A state's record. While `closed`, `g` and `parent` are its label,
/// set when an offer of it popped and improved the label; otherwise they
/// are the best start or edge offered to it, as eager A\* keeps them. A
/// ray's stop gets a record only when it is labelled, so the closed
/// records are the CLOSED list.
struct Node<S, C> {
    state: S,
    g: C,
    /// The parent node, or [`NONE`] for a start.
    parent: u32,
    /// The state holds a label.
    closed: bool,
    /// The state held a label until an edge below it reopened the
    /// record, counted in `reopened` then.
    reopening: bool,
}

impl<S, C: PathCost> Node<S, C> {
    /// `true` when the state's label is no worse than `g`.
    fn beats(&self, g: C) -> bool {
        self.closed && self.g <= g
    }
}

/// The parent of a start.
const NONE: u32 = u32::MAX;

/// A ray: a run of offers, its stops, which share a parent, a departure
/// cost and an order in which they pop. (A start or an edge is a run of
/// one offer that its node holds.)
struct Run<C> {
    /// The node whose expansion cast it.
    parent: u32,
    /// The parent's ĝ plus the departure: a stop's ĝ is this plus its leg.
    g0: C,
    /// The run's stops end at `stops[end]`, in travel order; `end` falls
    /// when the run's later blocks are dropped.
    end: u32,
    /// The near end of the block being served, the stop past its far
    /// end, and the stop on OPEN.
    lo: u32,
    next: u32,
    at: u32,
    /// The space's promise that rule (a) holds (see [`Runs::ray`]).
    maximal: bool,
}

/// An entry on OPEN: the next offer of a run.
///
/// Ordered for a min-heap on (f̂, larger-ĝ-first, run). The ĝ tie-break
/// prefers deeper nodes among equal f̂, which reaches goals sooner; runs
/// are numbered in the order their offers were made, which makes the
/// order fully deterministic and first-in-first-out.
struct Cursor<C> {
    f: C,
    g: C,
    /// The run's number.
    run: u32,
    /// The ray's index in the runs, or for a start or an edge its
    /// state's node, tagged [`EDGE`].
    of: u32,
}

/// The tag of a cursor whose run is a start or an edge: one offer, the
/// best its open node holds.
const EDGE: u32 = 1 << 31;

/// A ray queued uncast, with its run's index and number: no stop of it
/// can pop before `floor` comes due.
struct Deferred<S, C> {
    floor: C,
    run: u32,
    number: u32,
    origin: S,
}

impl<C: PathCost> PartialEq for Cursor<C> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl<C: PathCost> Eq for Cursor<C> {}
impl<C: PathCost> PartialOrd for Cursor<C> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<C: PathCost> Ord for Cursor<C> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert to pop the smallest f first.
        other
            .f
            .cmp(&self.f)
            .then_with(|| self.g.cmp(&other.g)) // prefer larger g
            .then_with(|| other.run.cmp(&self.run)) // then FIFO
    }
}

/// The reusable allocation footprint of one A\* run: the node table, the
/// FNV-hashed state index, the OPEN heap, the runs with their stops, and
/// the staging buffers, all in one struct that is
/// [`reset`](SearchArena::reset) between searches instead of
/// reallocated.
///
/// Routing runs thousands of searches per batch, each touching a few
/// hundred nodes: the dominant cost of a fresh search is not the geometry
/// but building these containers from nothing every time. An arena
/// amortizes them — [`astar_in`] borrows one, resets it, and leaves its
/// capacity behind for the next search. Reuse is **purely an allocation
/// optimization**: a search through a reused arena returns bit-identical
/// results to one through a fresh arena (the reset clears every element;
/// only capacity survives), which `tests/determinism.rs` asserts across
/// interleaved, differently-shaped nets.
///
/// ```
/// use gcr_search::{astar, astar_in, Budget, SearchArena};
/// # use gcr_search::SearchSpace;
/// # struct Line;
/// # impl SearchSpace for Line {
/// #     type State = i32; type Cost = i64;
/// #     fn start_states(&self, out: &mut Vec<(i32, i64)>) { out.clear(); out.push((0, 0)); }
/// #     fn successors(&self, s: &i32, out: &mut Vec<(i32, i64)>) {
/// #         out.push((s + 1, 1));
/// #     }
/// #     fn is_goal(&self, s: &i32) -> bool { *s == 5 }
/// # }
/// let mut arena = SearchArena::new();
/// let mut path = Vec::new();
/// for _ in 0..3 {
///     let reused = astar_in(&Line, None, None, &Budget::unlimited(), &mut arena, &mut path);
///     assert!(reused.found().is_some());
///     assert_eq!(path, astar(&Line).unwrap().path);
/// }
/// ```
pub struct SearchArena<S, C> {
    nodes: Vec<Node<S, C>>,
    index: FnvHashMap<S, usize>,
    open: BinaryHeap<Cursor<C>>,
    deferred: VecDeque<Deferred<S, C>>,
    runs: Vec<Run<C>>,
    stops: Vec<S>,
    cast: Runs<S, C>,
    starts: Vec<(S, C)>,
}

impl<S, C> SearchArena<S, C> {
    /// An empty arena (no capacity reserved yet).
    #[must_use]
    pub fn new() -> SearchArena<S, C> {
        SearchArena {
            nodes: Vec::new(),
            index: FnvHashMap::default(),
            open: BinaryHeap::new(),
            deferred: VecDeque::new(),
            runs: Vec::new(),
            stops: Vec::new(),
            cast: Runs::new(),
            starts: Vec::new(),
        }
    }

    /// Clears every container while keeping its capacity. Called by
    /// [`astar_in`] on entry, so a dirty arena can never poison the next
    /// search.
    pub fn reset(&mut self) {
        crate::telem::note_arena_reset();
        self.nodes.clear();
        self.index.clear();
        self.open.clear();
        self.deferred.clear();
        self.runs.clear();
        self.stops.clear();
        self.cast.clear();
        self.starts.clear();
    }

    /// The node-table capacity currently held (diagnostic: how much
    /// memory reuse is saving).
    #[must_use]
    pub fn node_capacity(&self) -> usize {
        self.nodes.capacity()
    }
}

impl<S, C> Default for SearchArena<S, C> {
    fn default() -> SearchArena<S, C> {
        SearchArena::new()
    }
}

impl<S, C> std::fmt::Debug for SearchArena<S, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchArena")
            .field("nodes", &self.nodes.len())
            .field("node_capacity", &self.nodes.capacity())
            .field("open", &self.open.len())
            .field("stops", &self.stops.len())
            .finish_non_exhaustive()
    }
}

/// Runs A\* on `space` and returns the minimal-cost path to a goal, or
/// `None` when no goal is reachable.
///
/// This is the paper's Algorithm A\*: nodes are placed on OPEN in ascending
/// order of f̂ = ĝ + ĥ; when a successor reaches an already-seen node with a
/// smaller ĝ its parent pointer is redirected and, if it was on CLOSED, it
/// is moved back to OPEN; the search terminates when a goal node is removed
/// from OPEN. With an admissible ĥ the returned path is minimal-cost.
///
/// A convenience form of [`astar_in`] with no expansion cap, no upper
/// bound, an unlimited budget, a fresh arena and an owned path.
pub fn astar<Sp: SearchSpace>(space: &Sp) -> Option<Found<Sp::State, Sp::Cost>> {
    let mut path = Vec::new();
    let budget = Budget::unlimited();
    let arena = &mut SearchArena::new();
    let found = astar_in(space, None, None, &budget, arena, &mut path).found()?;
    Some(Found { path, ..found })
}

/// Runs best-first search (branch-and-bound ordered by ĝ alone, i.e.
/// Dijkstra) by discarding the space's heuristic.
pub fn best_first<Sp: SearchSpace>(space: &Sp) -> Option<Found<Sp::State, Sp::Cost>> {
    astar(&ZeroHeuristic(space))
}

/// Runs A\* (see [`astar`]) under an expansion cap and a cooperative
/// [`Budget`], using `arena` for every allocation the search makes; the
/// one search entry point every other form delegates to.
///
/// # How OPEN holds the successors
///
/// OPEN holds **offers**, not nodes. An expansion casts the state's
/// [`runs`](SearchSpace::runs): an edge is a run of one offer, a ray a run
/// of one offer per stop. Each run has one entry on OPEN, a cursor at its
/// next offer, keyed exactly as eager A\* keys that offer's node: f̂, then
/// the larger ĝ, then the order the offer was made in (runs are numbered
/// when their state is expanded, in successor order, and only one offer
/// of a run is ever on OPEN). A popped offer whose state already holds a
/// label no worse is dropped; any other labels (or relabels) its state,
/// which is then expanded at once. So the labels are the CLOSED list. A
/// state gets a record when it is labelled or when an edge (or a start)
/// is offered to it; while the state holds no label, the record keeps
/// the best edge offered and its parent, as eager A\* keeps an open node.
/// An edge's run needs nothing else, so a space of edges (the grid, the
/// test graphs) pays one hash lookup per edge, as eager A\* does, and
/// none per pop.
///
/// A ray's stops pop in travel order, except that a block of equal-f̂
/// stops pops far to near, because ĝ rises along the ray and f̂ never
/// falls ([`Runs::ray`]'s promise). The cursor finds a block's far end by
/// a galloping binary search, bracketed by the space's cheap
/// [`leg_floor`](SearchSpace::leg_floor), and prices a stop (its
/// [`leg`](SearchSpace::leg) plus ĥ) only when it looks at it; when a
/// cursor moves on, it replaces the top of OPEN in place. So a ray whose
/// stops never come due costs its stop list and a few prices. A maximal
/// ray whose departure pays a cost waits uncast beside OPEN, in a queue
/// ordered by its floor ĝ + departure + ĥ of the expanding state (a
/// lower bound on all of its stops, as ĥ is consistent along rays), and
/// is cast as soon as OPEN's top reaches its floor: ahead of every offer
/// of equal f̂, so before any of its stops can come due. Floors arrive
/// in order, so the queue costs a push and a pop.
///
/// **Why this pops what eager A\* pops.** Eager A\* pushes each improving
/// offer with a sequence number and discards the rest. Here every offer
/// eager A\* would push is held by a cursor at the key eager A\* gives it,
/// or left out by one of the rules below; an offer eager A\* would
/// discard pops after the label that beats it (same state, so the same
/// ĥ: a lower ĝ, or an equal ĝ made earlier) and is dropped. So the same
/// offers pop in the same order, and `expanded`, `reopened`, paths,
/// costs, cap trips and budget stops are those of eager A\*. An offer is
/// left out when
///
/// * (b) its f̂ exceeds the goal bound U, the smaller of `upper_bound` and
///   the least f̂ of a goal offer priced so far. Each is the cost of a
///   path, so U ≥ C\*, and A\* with an admissible ĥ pops a goal at C\*
///   before any entry above it; f̂ never falls along a ray, so the rest
///   of the ray goes with it. Tested on a stop's floor (its `leg_floor`
///   in place of its leg) when the ray is cast, on the whole ray before
///   it is queued, and on each block's price as the cursor reaches it.
/// * (a) on a maximal ray, at or after the first stop whose state holds a
///   label no worse than the offer (or than its floor): at the ray's
///   origin before it is queued and again before it is cast, at a stop
///   while U exists when the ray is cast, and at a popped stop, whose
///   later blocks go. The label was set by the pop of an offer from a
///   maximal ray through that state, which goes on to offer every later
///   stop no worse (the `maximal` promise): with a lower ĝ, or with an
///   equal ĝ from a run numbered earlier. (Had our run been numbered
///   earlier, the label's offer, same state and ĝ, would have popped
///   after ours; a deferred ray is cast before any offer of its floor
///   pops, so a label set after it was queued is strictly lower.) That
///   ray's later offers are on OPEN, popped, or left out by the same
///   rules, so each offer left out here has an offer for its state that
///   pops before it, or is above U.
/// * (c) it is an edge (or a start) to a state that an edge or a start
///   placed earlier reaches at a ĝ no greater: that offer pops first (a
///   lower ĝ, or the same ĝ from a run numbered earlier) and leaves a
///   label no worse, as eager A\* drops the offer against the open node.
///
/// Counters under this engine: `generated` is every edge the space lists
/// plus the ray stops placed in runs, `touched` the states labelled (the
/// distinct states expanded, plus the goal reached: `expanded` + 1 on a
/// routing search, which never reopens), and `max_open` the most cursors
/// and uncast rays queued at once.
///
/// # Arguments
///
/// * `max_expansions` caps this search alone: reaching it ends the
///   search with [`SearchOutcome::LimitReached`].
/// * `upper_bound` is the cost of a path from a start state to a goal
///   that the caller already holds (an **incumbent**), or `None`. It
///   seeds the goal bound U, so rules (a) and (b) cut rays as they are
///   cast from the first expansion on. It must not be below the minimal
///   cost C\*, which the cost of any path of this space satisfies. With
///   an admissible ĥ, A\* pops no entry above C\*, so the search expands,
///   finds and costs exactly what it would without one; only `generated`
///   and `max_open` move. A search given one counts it in
///   [`SearchStats::seeded`].
/// * `budget` is shared by every search of a request. The loop polls its
///   cancel flag and expansion ceiling before every expansion (one
///   relaxed load each) and charges it once per [`CHARGE_BLOCK`]
///   expansions, reading the wall clock only then and only if it has a
///   deadline, so parallel searches drain one ceiling together. A failing
///   check ends the search with [`SearchOutcome::Cancelled`]. A budget can
///   only stop a search, never steer it: a search that completes is
///   bit-identical under any budget.
///
/// The arena is reset on entry (see [`SearchArena`]), so results never
/// depend on what ran in it before. On success the goal path is
/// reconstructed into `path_out` (cleared first) and the returned
/// [`Found::path`] is left empty, so a caller that reuses `path_out`
/// runs the whole search — staging, frontier, reconstruction — without
/// allocating; on every other outcome `path_out` is cleared. This is
/// also the single point where a search's statistics reach the telemetry
/// registry and the active trace span.
pub fn astar_in<Sp: SearchSpace>(
    space: &Sp,
    max_expansions: Option<usize>,
    upper_bound: Option<Sp::Cost>,
    budget: &Budget,
    arena: &mut SearchArena<Sp::State, Sp::Cost>,
    path_out: &mut Vec<Sp::State>,
) -> SearchOutcome<Sp::State, Sp::Cost> {
    // One clock read up front iff this thread is routing a traced
    // request (one thread-local probe otherwise), so the flush below
    // can attribute the search's wall window to the active net span.
    let trace_start = crate::telem::trace_begin();
    let outcome = run(space, max_expansions, upper_bound, budget, arena, path_out);
    // One registry flush per search; the expansion loop itself never
    // touches shared state.
    crate::telem::flush_outcome(&outcome, trace_start);
    outcome
}

fn run<Sp: SearchSpace>(
    space: &Sp,
    max_expansions: Option<usize>,
    upper_bound: Option<Sp::Cost>,
    budget: &Budget,
    arena: &mut SearchArena<Sp::State, Sp::Cost>,
    path_out: &mut Vec<Sp::State>,
) -> SearchOutcome<Sp::State, Sp::Cost> {
    path_out.clear();
    arena.reset();
    let SearchArena {
        nodes,
        index,
        open,
        deferred,
        runs,
        stops,
        cast,
        starts,
    } = arena;
    let mut walk = Walk {
        space,
        nodes,
        index,
        deferred,
        runs,
        stops,
        bound: upper_bound,
        numbered: 0,
        stats: SearchStats {
            seeded: usize::from(upper_bound.is_some()),
            ..SearchStats::default()
        },
    };
    // Expansions run since the shared meter was last charged; flushed in
    // blocks, and on the one exit below, so parallel searches share one
    // ceiling without a fetch_add per expansion.
    let mut uncharged: u64 = 0;

    space.start_states(starts);
    for (state, g0) in starts.drain(..) {
        open.extend(walk.offer_edge(NONE, state, g0));
    }
    walk.stats.max_open = open.len();

    let outcome = loop {
        // A deferred ray is cast before any offer at or above its floor
        // pops; by then its origin has usually been popped.
        if let Some(ray) = walk.deferred.front() {
            if open.peek().is_none_or(|top| ray.floor <= top.f) {
                let ray = walk.deferred.pop_front().expect("a front");
                let r = ray.run as usize;
                if !walk.skips(&ray.origin, walk.runs[r].g0, ray.floor) {
                    open.extend(walk.cast_ray(r, ray.number, &ray.origin));
                }
                continue;
            }
        }
        let Some(mut top) = open.peek_mut() else {
            break SearchOutcome::Exhausted(walk.stats);
        };
        let g = top.g;
        let edge = top.of & EDGE != 0;
        let of = (top.of & !EDGE) as usize;
        let (state, label) = if edge {
            (walk.nodes[of].state.clone(), Some(of))
        } else {
            let state = walk.stops[walk.runs[of].at as usize].clone();
            let label = walk.index.get(&state).copied();
            (state, label)
        };
        // An edge's open node holds the best edge offered (rule (c)).
        let dominated = label.is_some_and(|id| {
            let node = &walk.nodes[id];
            node.beats(g) || (edge && node.g < g)
        });
        if edge {
            PeekMut::pop(top);
        } else {
            if dominated && walk.runs[of].maximal {
                // Rule (a): the run's later blocks are no better than
                // offers that pop first.
                walk.runs[of].end = walk.runs[of].next;
            }
            match walk.advance(of, top.f, top.run) {
                Some(next) => {
                    *top = next;
                    drop(top);
                }
                None => drop(PeekMut::pop(top)),
            }
        }
        if dominated {
            continue;
        }
        // This offer is the entry eager A* pops here.
        let parent = if edge {
            walk.nodes[of].parent
        } else {
            walk.runs[of].parent
        };
        if space.is_goal(&state) {
            let cost = g;
            let mut cur = index32(walk.label(state, g, parent, label));
            while cur != NONE {
                let node = &walk.nodes[cur as usize];
                path_out.push(node.state.clone());
                cur = node.parent;
            }
            path_out.reverse();
            break SearchOutcome::Found(Found {
                path: Vec::new(),
                cost,
                stats: walk.stats,
            });
        }

        if max_expansions.is_some_and(|max| walk.stats.expanded >= max) {
            break SearchOutcome::LimitReached(walk.stats);
        }
        // Cheap checks every expansion; the clock (and the shared meter)
        // only once per block.
        if let Err(reason) = budget.check_cancel() {
            break SearchOutcome::Cancelled(reason, walk.stats);
        }
        uncharged += 1;
        if uncharged >= CHARGE_BLOCK {
            if let Err(reason) = budget.charge(std::mem::take(&mut uncharged)) {
                break SearchOutcome::Cancelled(reason, walk.stats);
            }
        }
        walk.stats.expanded += 1;
        let id = walk.label(state, g, parent, label);
        walk.expand(id, cast, open);
        let queued = open.len() + walk.deferred.len();
        walk.stats.max_open = walk.stats.max_open.max(queued);
    };
    let _ = budget.charge(uncharged);
    outcome
}

/// The search state the loop shares with its helpers: everything in the
/// arena but OPEN, the goal bound and the counters.
struct Walk<'a, Sp: SearchSpace> {
    space: &'a Sp,
    nodes: &'a mut Vec<Node<Sp::State, Sp::Cost>>,
    index: &'a mut FnvHashMap<Sp::State, usize>,
    /// Uncast rays in order of floor.
    deferred: &'a mut VecDeque<Deferred<Sp::State, Sp::Cost>>,
    runs: &'a mut Vec<Run<Sp::Cost>>,
    stops: &'a mut Vec<Sp::State>,
    /// The goal bound U (rule (b)).
    bound: Option<Sp::Cost>,
    /// Runs numbered so far.
    numbered: u32,
    stats: SearchStats,
}

impl<Sp: SearchSpace> Walk<'_, Sp> {
    /// `true` when `state` holds a label no worse than `g`.
    fn dominated(&self, state: &Sp::State, g: Sp::Cost) -> bool {
        self.index
            .get(state)
            .is_some_and(|&id| self.nodes[id].beats(g))
    }

    /// `true` when rule (a) at its origin or rule (b) leaves out a whole
    /// maximal ray: one named `origin`, whose stops' ĝ and f̂ are at
    /// least `g0` and `floor`.
    fn skips(&self, origin: &Sp::State, g0: Sp::Cost, floor: Sp::Cost) -> bool {
        self.dominated(origin, g0) || self.bound.is_some_and(|u| floor > u)
    }

    /// Lowers the goal bound to `f` when node `id`'s state, offered at
    /// f̂ = `f`, is a goal below it.
    fn note_goal(&mut self, id: usize, f: Sp::Cost) {
        if self.bound.is_none_or(|u| f < u) && self.space.is_goal(&self.nodes[id].state) {
            self.bound = Some(f);
        }
    }

    /// Labels `state` with `g` and `parent`: a new node, or the node
    /// `label` labelled or relabelled.
    fn label(&mut self, state: Sp::State, g: Sp::Cost, parent: u32, label: Option<usize>) -> usize {
        let id = label.unwrap_or_else(|| {
            self.index.insert(state.clone(), self.nodes.len());
            self.nodes.push(Node {
                state,
                g,
                parent,
                closed: false,
                reopening: false,
            });
            self.nodes.len() - 1
        });
        let node = &mut self.nodes[id];
        if node.closed {
            // A ray's offer below the label (an edge reopens its node
            // when it is placed): "If its new f̂ is less than the old it
            // must be placed back on OPEN … its pointers must be
            // redirected."
            self.stats.reopened += 1;
        } else if !node.reopening {
            self.stats.touched += 1;
        }
        node.g = g;
        node.parent = parent;
        node.closed = true;
        node.reopening = false;
        id
    }

    /// Places an edge (or a start, with no parent) to `to` at ĝ `g` on
    /// OPEN as a run of one offer, numbered next, and returns its cursor,
    /// unless it is left out: its state's label is no worse, or rule (c)
    /// or (b) of [`astar_in`] holds. An edge below a label reopens its
    /// state.
    fn offer_edge(&mut self, parent: u32, to: Sp::State, g: Sp::Cost) -> Option<Cursor<Sp::Cost>> {
        let id = match self.index.entry(to) {
            Entry::Occupied(e) => {
                let id = *e.get();
                let node = &mut self.nodes[id];
                if node.g <= g {
                    return None;
                }
                if node.closed {
                    // Eager A* reopens the node here, when the offer is
                    // made.
                    (node.closed, node.reopening) = (false, true);
                    self.stats.reopened += 1;
                }
                (node.g, node.parent) = (g, parent);
                id
            }
            Entry::Vacant(e) => {
                let state = e.key().clone();
                e.insert(self.nodes.len());
                self.nodes.push(Node {
                    state,
                    g,
                    parent,
                    closed: false,
                    reopening: false,
                });
                self.nodes.len() - 1
            }
        };
        let f = g.plus(self.space.heuristic(&self.nodes[id].state));
        self.note_goal(id, f);
        if self.bound.is_some_and(|u| f > u) {
            return None;
        }
        Some(Cursor {
            f,
            g,
            run: self.number(),
            of: index32(id) | EDGE,
        })
    }

    /// The next run's number.
    fn number(&mut self) -> u32 {
        self.numbered += 1;
        self.numbered - 1
    }

    /// A new ray with no stops yet.
    fn new_run(&mut self, parent: u32, g0: Sp::Cost, maximal: bool) -> usize {
        self.runs.push(Run {
            parent,
            g0,
            end: 0,
            lo: 0,
            next: 0,
            at: 0,
            maximal,
        });
        self.runs.len() - 1
    }

    /// Casts the runs of node `id` and puts their cursors on OPEN.
    fn expand(
        &mut self,
        id: usize,
        cast: &mut Runs<Sp::State, Sp::Cost>,
        open: &mut BinaryHeap<Cursor<Sp::Cost>>,
    ) {
        let from = self.nodes[id].state.clone();
        let g = self.nodes[id].g;
        cast.clear();
        self.space.runs(&from, cast);
        self.stats.generated += cast.edges.len();
        for (to, edge) in cast.edges.drain(..) {
            if let Some(cursor) = self.offer_edge(index32(id), to, g.plus(edge)) {
                open.push(cursor);
            }
        }
        if cast.rays.is_empty() {
            return;
        }
        let f_from = g.plus(self.space.heuristic(&from));
        for ray in cast.rays.drain(..) {
            let g0 = g.plus(ray.departure);
            // Every stop's f̂ is at least this.
            let floor = f_from.plus(ray.departure);
            if ray.maximal {
                if self.skips(&ray.origin, g0, floor) {
                    continue;
                }
                // A ray that pays to depart waits uncast until OPEN
                // reaches its floor, by when its origin has usually popped.
                if ray.departure > Sp::Cost::zero() {
                    let run = index32(self.new_run(index32(id), g0, true));
                    let number = self.number();
                    // Floors arrive in order while ĥ is consistent, so
                    // this is a push to the back.
                    let at = self.deferred.partition_point(|d| d.floor <= floor);
                    let origin = ray.origin;
                    self.deferred.insert(
                        at,
                        Deferred {
                            floor,
                            run,
                            number,
                            origin,
                        },
                    );
                    continue;
                }
            }
            let r = self.new_run(index32(id), g0, ray.maximal);
            let number = self.number();
            if let Some(cursor) = self.cast_ray(r, number, &ray.origin) {
                open.push(cursor);
            }
        }
    }

    /// Lists the stops of ray `r`, named `origin`, and returns the cursor
    /// of its first block. While a goal bound exists a maximal ray ends at
    /// the first stop that rule (a) or (b) leaves out on its
    /// [`leg_floor`](SearchSpace::leg_floor).
    fn cast_ray(&mut self, r: usize, number: u32, origin: &Sp::State) -> Option<Cursor<Sp::Cost>> {
        let (parent, g0, maximal) = {
            let run = &self.runs[r];
            (run.parent, run.g0, run.maximal)
        };
        let start = self.stops.len();
        let (space, index, nodes, stops) =
            (self.space, &*self.index, &*self.nodes, &mut *self.stops);
        let from = &nodes[parent as usize].state;
        match self.bound.filter(|_| maximal) {
            None => space.stops(from, origin, |to| {
                stops.push(to);
                true
            }),
            // A lower bound on each stop's ĝ: the label it must beat,
            // and below f̂ once ĥ is added.
            Some(u) => space.stops(from, origin, |to| {
                let g = g0.plus(space.leg_floor(from, &to));
                let cut = g.plus(space.heuristic(&to)) > u
                    || index.get(&to).is_some_and(|&id| nodes[id].beats(g));
                if !cut {
                    stops.push(to);
                }
                !cut
            }),
        }
        let end = self.stops.len();
        self.stats.generated += end - start;
        self.runs[r].end = index32(end);
        self.block(r, start, number)
    }

    /// The (ĝ, f̂) of stop `j` of run `r`.
    fn offer(&mut self, r: usize, j: usize) -> (Sp::Cost, Sp::Cost) {
        let run = &self.runs[r];
        let to = &self.stops[j];
        let g = run
            .g0
            .plus(self.space.leg(&self.nodes[run.parent as usize].state, to));
        let f = g.plus(self.space.heuristic(to));
        if self.bound.is_none_or(|u| f < u) && self.space.is_goal(to) {
            self.bound = Some(f);
        }
        (g, f)
    }

    /// The (ĝ, f̂) of stop `j` of ray `r` if its f̂ is `f`, found by
    /// pricing it only when its [`leg_floor`](SearchSpace::leg_floor)
    /// does not already put it above `f`.
    fn offer_at(&mut self, r: usize, j: usize, f: Sp::Cost) -> Option<Sp::Cost> {
        let run = &self.runs[r];
        let (from, to) = (&self.nodes[run.parent as usize].state, &self.stops[j]);
        let h = self.space.heuristic(to);
        if run.g0.plus(self.space.leg_floor(from, to)).plus(h) > f {
            return None;
        }
        let g = run.g0.plus(self.space.leg(from, to));
        let f_to = g.plus(h);
        if self.bound.is_none_or(|u| f_to < u) && self.space.is_goal(to) {
            self.bound = Some(f_to);
        }
        (f_to == f).then_some(g)
    }

    /// The cursor of ray `r`, numbered `number`, at the block that starts
    /// at stop `i`: its far end, found by galloping and then bisecting
    /// over the stops of equal f̂.
    fn block(&mut self, r: usize, i: usize, number: u32) -> Option<Cursor<Sp::Cost>> {
        let mut hi = self.runs[r].end as usize;
        if i >= hi {
            return None;
        }
        let (g, f) = self.offer(r, i);
        if self.bound.is_some_and(|u| f > u) {
            // Rule (b): f̂ never falls along the run.
            return None;
        }
        let (mut k, mut g_k) = (i, g);
        let mut step = 1;
        while k + step < hi {
            let j = k + step;
            let Some(g_j) = self.offer_at(r, j, f) else {
                hi = j;
                break;
            };
            (k, g_k) = (j, g_j);
            step *= 2;
        }
        while hi - k > 1 {
            let mid = k + (hi - k) / 2;
            match self.offer_at(r, mid, f) {
                Some(g_m) => (k, g_k) = (mid, g_m),
                None => hi = mid,
            }
        }
        let run = &mut self.runs[r];
        (run.lo, run.next, run.at) = (index32(i), index32(k + 1), index32(k));
        Some(Cursor {
            f,
            g: g_k,
            run: number,
            of: index32(r),
        })
    }

    /// The cursor of ray `r`, numbered `number`, after its offer on OPEN,
    /// whose f̂ is `f`: the next nearer stop of the block, or the next
    /// block.
    fn advance(&mut self, r: usize, f: Sp::Cost, number: u32) -> Option<Cursor<Sp::Cost>> {
        let Run { lo, next, at, .. } = self.runs[r];
        if at > lo {
            let (g, f_near) = self.offer(r, at as usize - 1);
            debug_assert!(f_near == f, "a block's stops share one f̂");
            self.runs[r].at = at - 1;
            return Some(Cursor {
                f,
                g,
                run: number,
                of: index32(r),
            });
        }
        self.block(r, next as usize, number)
    }
}

/// `i` as a run or stop index.
fn index32(i: usize) -> u32 {
    u32::try_from(i)
        .ok()
        .filter(|&i| i < EDGE)
        .expect("a search holds fewer than 2^31 runs, stops and nodes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SearchSpace;

    /// A weighted digraph with an optional per-node heuristic.
    struct Graph {
        edges: Vec<Vec<(usize, i64)>>,
        h: Vec<i64>,
        starts: Vec<(usize, i64)>,
        goals: Vec<usize>,
    }

    impl SearchSpace for Graph {
        type State = usize;
        type Cost = i64;
        fn start_states(&self, out: &mut Vec<(usize, i64)>) {
            out.clear();
            out.extend_from_slice(&self.starts);
        }
        fn successors(&self, s: &usize, out: &mut Vec<(usize, i64)>) {
            out.extend(self.edges[*s].iter().copied());
        }
        fn is_goal(&self, s: &usize) -> bool {
            self.goals.contains(s)
        }
        fn heuristic(&self, s: &usize) -> i64 {
            self.h[*s]
        }
    }

    /// [`astar_in`] through a fresh arena under an unlimited budget.
    fn search(g: &Graph, max_expansions: Option<usize>) -> SearchOutcome<usize, i64> {
        let budget = Budget::unlimited();
        astar_in(
            g,
            max_expansions,
            None,
            &budget,
            &mut SearchArena::new(),
            &mut Vec::new(),
        )
    }

    fn diamond() -> Graph {
        // 0 -> 1 (1), 0 -> 2 (4), 1 -> 3 (5), 2 -> 3 (1): best 0-2-3 = 5.
        Graph {
            edges: vec![vec![(1, 1), (2, 4)], vec![(3, 5)], vec![(3, 1)], vec![]],
            h: vec![0; 4],
            starts: vec![(0, 0)],
            goals: vec![3],
        }
    }

    #[test]
    fn finds_minimal_path_in_diamond() {
        let found = astar(&diamond()).unwrap();
        assert_eq!(found.cost, 5);
        assert_eq!(found.path, vec![0, 2, 3]);
    }

    #[test]
    fn unreachable_goal_exhausts() {
        let mut g = diamond();
        g.goals = vec![99];
        g.edges.resize(100, vec![]);
        g.h = vec![0; 100];
        assert!(astar(&g).is_none());
        let outcome = search(&g, None);
        assert!(matches!(outcome, SearchOutcome::Exhausted(_)));
        assert!(outcome.stats().expanded >= 4);
    }

    #[test]
    fn start_is_goal_needs_no_expansion() {
        let mut g = diamond();
        g.goals = vec![0];
        let found = astar(&g).unwrap();
        assert_eq!(found.cost, 0);
        assert_eq!(found.path, vec![0]);
        assert_eq!(found.stats.expanded, 0);
    }

    #[test]
    fn expansion_limit_aborts() {
        let outcome = search(&diamond(), Some(1));
        assert!(matches!(outcome, SearchOutcome::LimitReached(_)));
    }

    #[test]
    fn reopening_recovers_optimality_with_inconsistent_heuristic() {
        // Heuristic is admissible but inconsistent: node 1 looks great so
        // node 2 is closed via the expensive path first, then must be
        // reopened. h(0)=0 etc; construct: 0->1 (1), 0->2 (5), 1->2 (1),
        // 2->3 (1); h = [0, 10, 0, 0] is NOT admissible at 1 (true h(1)=2).
        // Use h(1)=2 but inflate edge order instead: make A* close 2 at
        // g=5 by giving 1 a large heuristic *estimate* that is still a
        // lower bound is impossible here, so instead exercise reopening
        // directly with h=0 and a start set that seeds 2 expensively.
        let g = Graph {
            edges: vec![vec![(1, 1), (2, 5)], vec![(2, 1)], vec![(3, 1)], vec![]],
            h: vec![0; 4],
            starts: vec![(0, 0), (2, 7)], // 2 seeded worse than any real path
            goals: vec![3],
        };
        let found = astar(&g).unwrap();
        assert_eq!(found.cost, 3); // 0-1-2-3
        assert_eq!(found.path, vec![0, 1, 2, 3]);
    }

    #[test]
    fn multi_source_picks_cheaper_origin() {
        let g = Graph {
            edges: vec![vec![(2, 10)], vec![(2, 1)], vec![]],
            h: vec![0; 3],
            starts: vec![(0, 0), (1, 3)],
            goals: vec![2],
        };
        let found = astar(&g).unwrap();
        assert_eq!(found.cost, 4);
        assert_eq!(found.path, vec![1, 2]);
    }

    #[test]
    fn heuristic_reduces_expansions_on_a_line() {
        // A long bidirectional line; the goal is to the right. With h=0 the
        // search spreads both ways; with the exact distance it walks
        // straight there.
        let n = 201usize;
        let goal = 180usize;
        let mut edges = vec![Vec::new(); n];
        for (i, adj) in edges.iter_mut().enumerate() {
            if i > 0 {
                adj.push((i - 1, 1));
            }
            if i + 1 < n {
                adj.push((i + 1, 1));
            }
        }
        let exact = Graph {
            edges: edges.clone(),
            h: (0..n).map(|i| (goal as i64 - i as i64).abs()).collect(),
            starts: vec![(100, 0)],
            goals: vec![goal],
        };
        let blind = Graph {
            edges,
            h: vec![0; n],
            starts: vec![(100, 0)],
            goals: vec![goal],
        };
        let a = astar(&exact).unwrap();
        let d = best_first(&blind).unwrap();
        assert_eq!(a.cost, d.cost);
        // The exact heuristic expands only the 80 on-path nodes; the blind
        // search spreads 80 in both directions.
        assert!(
            a.stats.expanded <= 81,
            "informed expanded {}",
            a.stats.expanded
        );
        assert!(
            a.stats.expanded < d.stats.expanded,
            "informed {} vs blind {}",
            a.stats.expanded,
            d.stats.expanded
        );
    }

    #[test]
    fn deterministic_tie_breaking() {
        // Two equal-cost paths; repeated runs must return the same one.
        let g = Graph {
            edges: vec![vec![(1, 1), (2, 1)], vec![(3, 1)], vec![(3, 1)], vec![]],
            h: vec![0; 4],
            starts: vec![(0, 0)],
            goals: vec![3],
        };
        let first = astar(&g).unwrap().path;
        for _ in 0..5 {
            assert_eq!(astar(&g).unwrap().path, first);
        }
    }

    #[test]
    fn reused_arena_matches_fresh_runs_across_shapes() {
        // Interleave differently-shaped problems through ONE arena and
        // assert every outcome is bit-identical to a fresh-arena run:
        // found paths/costs/stats, exhaustion, and limit hits.
        let found_graph = diamond();
        let mut unreachable = diamond();
        unreachable.goals = vec![99];
        unreachable.edges.resize(100, vec![]);
        unreachable.h = vec![0; 100];
        let budget = Budget::unlimited();

        let mut arena = SearchArena::new();
        let mut path = Vec::new();
        for round in 0..3 {
            let reused = astar_in(&found_graph, None, None, &budget, &mut arena, &mut path);
            let (r, f) = (reused.found().unwrap(), astar(&found_graph).unwrap());
            assert_eq!(path, f.path, "round {round}");
            assert_eq!(r.cost, f.cost, "round {round}");
            assert_eq!(r.stats, f.stats, "round {round}");

            let reused = astar_in(&unreachable, None, None, &budget, &mut arena, &mut path);
            assert!(matches!(reused, SearchOutcome::Exhausted(_)));
            assert_eq!(
                *reused.stats(),
                *search(&unreachable, None).stats(),
                "round {round}"
            );

            let reused = astar_in(&found_graph, Some(1), None, &budget, &mut arena, &mut path);
            assert!(matches!(reused, SearchOutcome::LimitReached(_)));
        }
        assert!(arena.node_capacity() > 0, "capacity must survive reuse");
    }

    #[test]
    fn arena_reset_clears_state() {
        let budget = Budget::unlimited();
        let mut arena: SearchArena<usize, i64> = SearchArena::new();
        let mut path = Vec::new();
        astar_in(&diamond(), None, None, &budget, &mut arena, &mut path);
        arena.reset();
        assert!(format!("{arena:?}").contains("nodes: 0"));
        // A reset arena behaves exactly like a new one.
        astar_in(&diamond(), None, None, &budget, &mut arena, &mut path);
        assert_eq!(path, astar(&diamond()).unwrap().path);
    }

    #[test]
    fn path_buffer_matches_owned_path_form() {
        let g = diamond();
        let budget = Budget::unlimited();
        let mut arena = SearchArena::new();
        let mut path = vec![99usize]; // dirty buffer must be cleared
        let into = astar_in(&g, None, None, &budget, &mut arena, &mut path);
        let (i, o) = (into.found().unwrap(), astar(&g).unwrap());
        assert!(i.path.is_empty(), "path is delivered through the buffer");
        assert_eq!(path, o.path);
        assert_eq!(i.cost, o.cost);
        assert_eq!(i.stats, o.stats);
        // Non-found outcomes clear the buffer.
        let mut unreachable = diamond();
        unreachable.goals = vec![99];
        unreachable.edges.resize(100, vec![]);
        unreachable.h = vec![0; 100];
        let out = astar_in(&unreachable, None, None, &budget, &mut arena, &mut path);
        assert!(matches!(out, SearchOutcome::Exhausted(_)));
        assert!(path.is_empty());
    }

    #[test]
    fn pre_cancelled_budget_stops_before_first_expansion() {
        let g = diamond();
        let mut arena = SearchArena::new();
        let mut path = vec![7usize]; // dirty buffer must still be cleared
        let b = Budget::unlimited();
        b.cancel();
        let out = astar_in(&g, None, None, &b, &mut arena, &mut path);
        assert!(matches!(
            out,
            SearchOutcome::Cancelled(CancelReason::Cancelled, _)
        ));
        assert_eq!(out.stats().expanded, 0);
        assert!(path.is_empty());
    }

    #[test]
    fn zero_expansion_ceiling_cancels_deterministically() {
        let g = diamond();
        let mut arena = SearchArena::new();
        let mut path = Vec::new();
        let b = Budget::unlimited().with_expansion_ceiling(0);
        let out = astar_in(&g, None, None, &b, &mut arena, &mut path);
        assert!(matches!(
            out,
            SearchOutcome::Cancelled(CancelReason::ExpansionCeiling, _)
        ));
        assert_eq!(out.stats().expanded, 0);
    }

    #[test]
    fn live_budget_never_changes_results() {
        // A generous budget must be invisible: identical path, cost and
        // stats to the run under an unlimited one — the budget can stop
        // a search but never steer one.
        let g = diamond();
        let b = Budget::unlimited()
            .with_deadline(std::time::Duration::from_secs(3600))
            .with_expansion_ceiling(1_000_000);
        let mut arena = SearchArena::new();
        let mut path = Vec::new();
        let budgeted = astar_in(&g, None, None, &b, &mut arena, &mut path);
        let (x, y) = (budgeted.found().unwrap(), astar(&g).unwrap());
        assert_eq!(path, y.path);
        assert_eq!(x.cost, y.cost);
        assert_eq!(x.stats, y.stats);
        // The meter was flushed on exit.
        assert_eq!(b.expansions(), y.stats.expanded as u64);
    }

    #[test]
    fn capped_search_charges_every_expansion_to_the_budget() {
        // A long line stopped by the expansion cap: the expansions run
        // since the last block charge must reach the shared meter too.
        let n = 200usize;
        let g = Graph {
            edges: (0..n).map(|i| vec![((i + 1).min(n - 1), 1)]).collect(),
            h: vec![0; n],
            starts: vec![(0, 0)],
            goals: vec![n - 1],
        };
        let cap = CHARGE_BLOCK as usize + 5;
        let b = Budget::unlimited();
        let mut arena = SearchArena::new();
        let mut path = Vec::new();
        let out = astar_in(&g, Some(cap), None, &b, &mut arena, &mut path);
        let SearchOutcome::LimitReached(stats) = out else {
            panic!("the cap must stop the search: {out:?}");
        };
        assert_eq!(stats.expanded, cap);
        assert_eq!(b.expansions(), stats.expanded as u64);
    }

    #[test]
    fn traced_search_records_a_leaf_span_with_its_stats() {
        let rec = gcr_telemetry::SpanRecorder::new("request", "");
        let prev = gcr_telemetry::set_active_span(Some(gcr_telemetry::SpanHandle::new(
            std::sync::Arc::clone(&rec),
            rec.root(),
        )));
        let found = astar(&diamond()).unwrap();
        gcr_telemetry::set_active_span(prev);
        let tree = rec.finish();
        let searches = tree.find_all("search");
        assert_eq!(searches.len(), 1, "one search, one leaf span");
        assert_eq!(
            searches[0].counter("expanded"),
            Some(found.stats.expanded as u64),
            "the span carries the same stats the registry flush read"
        );
        assert_eq!(
            tree.total_counter("generated"),
            found.stats.generated as u64
        );
        assert_eq!(
            tree.total_counter("arena-resets"),
            1,
            "the entry reset is attributed to the active span"
        );
        // An untraced search records nothing further.
        let _ = astar(&diamond()).unwrap();
        assert_eq!(rec.finish().find_all("search").len(), 1);
    }

    #[test]
    fn stats_are_populated() {
        let found = astar(&diamond()).unwrap();
        assert!(found.stats.expanded > 0);
        assert!(found.stats.generated >= found.stats.expanded);
        assert!(found.stats.touched >= 4);
        assert!(found.stats.max_open >= 1);
    }
}
