//! The search-space abstraction.

use std::hash::Hash;

use crate::PathCost;

/// A problem the search engines can explore: states, weighted successor
/// edges, goal test and (optionally) a heuristic.
///
/// The paper's requirements map directly onto this trait:
///
/// * **"Generating the successors for node nᵢ corresponds to finding all
///   the possible points on the routing surface that the search can proceed
///   to"** → [`SearchSpace::successors`]. Successors are produced into a
///   caller-supplied buffer so hot search loops do not allocate per node.
/// * **"ĝ(n): the cost of the path which has been found by the search
///   process in getting to node n"** → maintained by the engine.
/// * **"ĥ(n): our best estimate of the cost of completing the connection"**
///   → [`SearchSpace::heuristic`], which defaults to zero (turning A\* into
///   best-first / Dijkstra). Admissibility (ĥ ≤ h) is the implementor's
///   obligation; with it, A\* returns minimal-cost paths.
///
/// Multi-source search (needed when a net's partial routing tree is the
/// source set) is expressed by returning several start states, each with an
/// initial cost.
///
/// A\* does not read [`successors`](SearchSpace::successors): it asks for
/// [`runs`](SearchSpace::runs), whose default hands it every successor as
/// a run of one stop. A space whose successors lie along rays (the
/// gridless routing space) casts rays instead, and A\* prices a ray's
/// stops only as they come due (see [`Runs::ray`]). The blind engines and
/// `exhaustive` read `successors`, so they stay independent of that walk.
pub trait SearchSpace {
    /// A node of the search graph. For routing this is a point (plus the
    /// arrival direction when the cost of a bend depends on it).
    type State: Clone + Eq + Hash;

    /// The accumulated path-cost type.
    type Cost: PathCost;

    /// Clears `out` and fills it with the source node(s) and their
    /// initial costs. A classic single-source search yields one pair
    /// `(s, 0)`. A\* stages the sources into a buffer its arena keeps, so
    /// a space that holds its sources makes the per-search staging
    /// allocation-free.
    fn start_states(&self, out: &mut Vec<(Self::State, Self::Cost)>);

    /// Appends every successor of `state` to `out` along with the edge
    /// cost of reaching it. Edge costs must be non-negative in the
    /// ordering sense: `c.plus(edge) >= c` must hold for all `c`.
    fn successors(&self, state: &Self::State, out: &mut Vec<(Self::State, Self::Cost)>);

    /// Returns `true` if `state` is a goal.
    fn is_goal(&self, state: &Self::State) -> bool;

    /// A lower bound on the cheapest remaining cost from `state` to any
    /// goal. The default (zero) is always admissible and yields best-first
    /// search.
    fn heuristic(&self, _state: &Self::State) -> Self::Cost {
        Self::Cost::zero()
    }

    /// Casts the successors of `state` as the runs A\* walks, in
    /// successor order: the order sets A\*'s first-in-first-out
    /// tie-break. The default casts every [`successors`] entry as an edge.
    /// A space that casts a ray also answers [`stops`] and [`leg`] for
    /// it, and the ray's stops must be exactly its successors along that
    /// ray, priced the same.
    ///
    /// [`successors`]: SearchSpace::successors
    /// [`stops`]: SearchSpace::stops
    /// [`leg`]: SearchSpace::leg
    fn runs(&self, state: &Self::State, out: &mut Runs<Self::State, Self::Cost>) {
        self.successors(state, out.edges());
    }

    /// Hands `each` the stops of the ray that [`runs`](SearchSpace::runs)
    /// cast from `from` under the name `origin`, in travel order, until
    /// `each` returns `false`. Called only for rays the space cast; the
    /// default casts none.
    fn stops(
        &self,
        _from: &Self::State,
        _origin: &Self::State,
        _each: impl FnMut(Self::State) -> bool,
    ) {
    }

    /// The cost of travelling from `from` to `to`, a stop of one of its
    /// rays, past the ray's departure cost: the successor's edge cost is
    /// the departure plus this. Called only for ray stops.
    fn leg(&self, _from: &Self::State, _to: &Self::State) -> Self::Cost {
        Self::Cost::zero()
    }

    /// A lower bound on [`leg`](SearchSpace::leg) that is cheaper to
    /// compute; the default is the leg itself. A\* cuts a ray cast under
    /// a goal bound on it, and brackets an equal-f̂ block with it before
    /// it prices a stop.
    fn leg_floor(&self, from: &Self::State, to: &Self::State) -> Self::Cost {
        self.leg(from, to)
    }
}

/// One ray cast by [`SearchSpace::runs`].
#[derive(Debug, Clone)]
pub(crate) struct Ray<S, C> {
    pub(crate) origin: S,
    pub(crate) departure: C,
    pub(crate) maximal: bool,
}

/// The successors of one expansion as [`SearchSpace::runs`] casts them:
/// edges, each a run of one stop, then rays.
#[derive(Debug, Clone)]
pub struct Runs<S, C> {
    pub(crate) edges: Vec<(S, C)>,
    pub(crate) rays: Vec<Ray<S, C>>,
}

impl<S, C> Runs<S, C> {
    pub(crate) fn new() -> Runs<S, C> {
        Runs {
            edges: Vec::new(),
            rays: Vec::new(),
        }
    }

    pub(crate) fn clear(&mut self) {
        self.edges.clear();
        self.rays.clear();
    }

    /// The buffer of edges: each `(state, edge cost)` pushed is a
    /// successor, as [`SearchSpace::successors`] lists it.
    pub fn edges(&mut self) -> &mut Vec<(S, C)> {
        &mut self.edges
    }

    /// Casts a ray from the expanding state `from`, named by `origin`:
    /// the state a ray of no length would arrive at. Its stops are
    /// [`SearchSpace::stops`] of `(from, origin)`, and each costs
    /// `departure` plus [`SearchSpace::leg`] from `from`. A\* lists them
    /// only when the ray comes due and prices each one only when its turn
    /// on OPEN comes, so the space promises, with ĥ its heuristic and ĝ
    /// the expanding state's cost:
    ///
    /// * along the stops in travel order, ĝ strictly rises and
    ///   f̂ = ĝ + ĥ never falls, and no stop's f̂ is below
    ///   ĝ + `departure` + ĥ(`from`). (Both hold when ĥ is consistent,
    ///   which the heuristic must then be; no label is ever reopened.)
    ///
    /// With `maximal` set the space also promises what lets A\* end the
    /// ray at the first stop it would throw away:
    ///
    /// * A\* reaches `origin` and the stops only as stops of maximal
    ///   rays, never as a start state, an edge or a stop of another ray,
    ///   and
    /// * any maximal ray that reaches a state `t` (as a stop, or as its
    ///   `origin`) goes on past `t` through the same stops as every
    ///   other maximal ray that reaches `t`, at the same legs: the leg to
    ///   a later stop is the leg to `t` plus the leg from `t`.
    ///
    /// The gridless routing space's rays are maximal unless it walks the
    /// Hanan grid or a source carries an arrival direction.
    pub fn ray(&mut self, origin: S, departure: C, maximal: bool) {
        self.rays.push(Ray {
            origin,
            departure,
            maximal,
        });
    }
}

/// Adapter that discards a space's heuristic, turning A\* into Dijkstra /
/// best-first on the same problem.
///
/// This is the precise sense in which the paper calls Lee–Moore "a special
/// case of the general search algorithm": same successor generator, ĥ = 0.
/// The wrapped space's runs pass through unchanged: with ĥ = 0 a ray's
/// f̂ is its ĝ, which rises along it.
///
/// ```
/// use gcr_search::{astar, SearchSpace, ZeroHeuristic};
/// # struct S;
/// # impl SearchSpace for S {
/// #     type State = u8; type Cost = i64;
/// #     fn start_states(&self, out: &mut Vec<(u8, i64)>) { out.clear(); out.push((0, 0)); }
/// #     fn successors(&self, s: &u8, out: &mut Vec<(u8, i64)>) {
/// #         if *s < 3 { out.push((s + 1, 1)); }
/// #     }
/// #     fn is_goal(&self, s: &u8) -> bool { *s == 3 }
/// #     fn heuristic(&self, s: &u8) -> i64 { (3 - s) as i64 }
/// # }
/// let space = S;
/// let informed = astar(&space).unwrap();
/// let blind = astar(&ZeroHeuristic(&space)).unwrap();
/// assert_eq!(informed.cost, blind.cost);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ZeroHeuristic<'a, S>(pub &'a S);

impl<S: SearchSpace> SearchSpace for ZeroHeuristic<'_, S> {
    type State = S::State;
    type Cost = S::Cost;

    fn start_states(&self, out: &mut Vec<(Self::State, Self::Cost)>) {
        self.0.start_states(out);
    }

    fn successors(&self, state: &Self::State, out: &mut Vec<(Self::State, Self::Cost)>) {
        self.0.successors(state, out);
    }

    fn is_goal(&self, state: &Self::State) -> bool {
        self.0.is_goal(state)
    }
    // heuristic: default zero.

    fn runs(&self, state: &Self::State, out: &mut Runs<Self::State, Self::Cost>) {
        self.0.runs(state, out);
    }

    fn stops(
        &self,
        from: &Self::State,
        origin: &Self::State,
        each: impl FnMut(Self::State) -> bool,
    ) {
        self.0.stops(from, origin, each);
    }

    fn leg(&self, from: &Self::State, to: &Self::State) -> Self::Cost {
        self.0.leg(from, to)
    }

    fn leg_floor(&self, from: &Self::State, to: &Self::State) -> Self::Cost {
        self.0.leg_floor(from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Line;
    impl SearchSpace for Line {
        type State = i32;
        type Cost = i64;
        fn start_states(&self, out: &mut Vec<(i32, i64)>) {
            out.clear();
            out.push((0, 0));
        }
        fn successors(&self, s: &i32, out: &mut Vec<(i32, i64)>) {
            out.push((s + 1, 1));
        }
        fn is_goal(&self, s: &i32) -> bool {
            *s == 5
        }
        fn heuristic(&self, s: &i32) -> i64 {
            (5 - s).max(0) as i64
        }
    }

    #[test]
    fn zero_heuristic_adapter_erases_h() {
        let space = Line;
        assert_eq!(space.heuristic(&0), 5);
        let blind = ZeroHeuristic(&space);
        assert_eq!(blind.heuristic(&0), 0);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        space.start_states(&mut a);
        blind.start_states(&mut b);
        assert_eq!(a, b);
        assert!(blind.is_goal(&5));
        a.clear();
        b.clear();
        space.successors(&2, &mut a);
        blind.successors(&2, &mut b);
        assert_eq!(a, b);
        let (mut x, mut y) = (Runs::new(), Runs::new());
        space.runs(&2, &mut x);
        blind.runs(&2, &mut y);
        assert_eq!((x.edges, x.rays.len()), (a, 0), "one edge per successor");
        assert_eq!(y.edges, b);
    }

    #[test]
    fn default_heuristic_is_zero() {
        struct NoH;
        impl SearchSpace for NoH {
            type State = u8;
            type Cost = u32;
            fn start_states(&self, out: &mut Vec<(u8, u32)>) {
                out.clear();
                out.push((0, 0));
            }
            fn successors(&self, _: &u8, _: &mut Vec<(u8, u32)>) {}
            fn is_goal(&self, _: &u8) -> bool {
                false
            }
        }
        assert_eq!(NoH.heuristic(&7), 0);
    }
}
