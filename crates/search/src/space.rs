//! The search-space abstraction.

use std::hash::Hash;

use crate::PathCost;

/// A read-only view of the labels a search engine holds, where a state's
/// label is its best known ĝ, and of its goal bound. Labels and the bound
/// only fall while a search runs.
///
/// [`SearchSpace::successors`] receives one so a space can leave out
/// successors that change no expansion. A\* passes its node table and
/// goal bound; the blind engines pass [`NoLabels`].
pub trait Labels<S, C> {
    /// The label of `state`, or `None` when the engine holds none.
    fn label(&self, state: &S) -> Option<C>;

    /// The goal bound: the smallest f̂ = ĝ + ĥ among the goal entries the
    /// engine has put on OPEN, or the cost of the incumbent path the
    /// search began with if that is smaller, or `None` while there is
    /// neither. Either is the cost of a real path, so it is at least the
    /// minimal cost, and A\* (with an admissible ĥ) never expands an
    /// entry whose f̂ exceeds it. The default knows no bound.
    fn bound(&self) -> Option<C> {
        None
    }
}

/// The view that knows no labels: a space handed it generates every
/// successor.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoLabels;

impl<S, C> Labels<S, C> for NoLabels {
    fn label(&self, _state: &S) -> Option<C> {
        None
    }
}

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

    /// Appends each successor of `state` to `out` along with the edge cost
    /// of reaching it. Edge costs must be non-negative in the ordering
    /// sense: `c.plus(edge) >= c` must hold for all `c`.
    ///
    /// `labels` is the engine's view of its labels, `state`'s own among
    /// them, and of its goal bound. A space may leave out a successor
    /// only when the view proves that it changes no expansion, because
    /// its offer, `state`'s label plus the edge, is one the engine throws
    /// away:
    ///
    /// * its target already holds a label no worse than the offer, so the
    ///   engine discards it without touching its frontier; or
    /// * its f̂, the offer plus the target's [`heuristic`], exceeds
    ///   [`Labels::bound`], so the engine never expands it.
    ///
    /// The proof may be direct, or rest on an invariant that the space's
    /// own successor structure keeps (as the gridless routing space's
    /// rays do). Leaving such successors out changes no expansion, path
    /// or cost; it lowers only
    /// [`SearchStats::generated`](crate::SearchStats::generated),
    /// `touched` and `max_open`. Under [`NoLabels`] a space must generate
    /// every successor.
    ///
    /// [`heuristic`]: SearchSpace::heuristic
    fn successors(
        &self,
        state: &Self::State,
        labels: &dyn Labels<Self::State, Self::Cost>,
        out: &mut Vec<(Self::State, Self::Cost)>,
    );

    /// Returns `true` if `state` is a goal.
    fn is_goal(&self, state: &Self::State) -> bool;

    /// A lower bound on the cheapest remaining cost from `state` to any
    /// goal. The default (zero) is always admissible and yields best-first
    /// search.
    fn heuristic(&self, _state: &Self::State) -> Self::Cost {
        Self::Cost::zero()
    }
}

/// Adapter that discards a space's heuristic, turning A\* into Dijkstra /
/// best-first on the same problem.
///
/// This is the precise sense in which the paper calls Lee–Moore "a special
/// case of the general search algorithm": same successor generator, ĥ = 0.
/// The wrapped space gets the engine's labels but no [`Labels::bound`]:
/// the engine takes that bound with ĥ = 0, so the space's own f̂ cannot
/// be tested against it.
///
/// ```
/// use gcr_search::{astar, Labels, SearchSpace, ZeroHeuristic};
/// # struct S;
/// # impl SearchSpace for S {
/// #     type State = u8; type Cost = i64;
/// #     fn start_states(&self, out: &mut Vec<(u8, i64)>) { out.clear(); out.push((0, 0)); }
/// #     fn successors(&self, s: &u8, _: &dyn Labels<u8, i64>, out: &mut Vec<(u8, i64)>) {
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

    fn successors(
        &self,
        state: &Self::State,
        labels: &dyn Labels<Self::State, Self::Cost>,
        out: &mut Vec<(Self::State, Self::Cost)>,
    ) {
        self.0.successors(state, &Unbounded(labels), out);
    }

    fn is_goal(&self, state: &Self::State) -> bool {
        self.0.is_goal(state)
    }
    // heuristic: default zero.
}

/// A label view with the goal bound hidden.
struct Unbounded<'a, S, C>(&'a dyn Labels<S, C>);

impl<S, C> Labels<S, C> for Unbounded<'_, S, C> {
    fn label(&self, state: &S) -> Option<C> {
        self.0.label(state)
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
        fn successors(&self, s: &i32, _: &dyn Labels<i32, i64>, out: &mut Vec<(i32, i64)>) {
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
        space.successors(&2, &NoLabels, &mut a);
        blind.successors(&2, &NoLabels, &mut b);
        assert_eq!(a, b);
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
            fn successors(&self, _: &u8, _: &dyn Labels<u8, u32>, _: &mut Vec<(u8, u32)>) {}
            fn is_goal(&self, _: &u8) -> bool {
                false
            }
        }
        assert_eq!(NoH.heuristic(&7), 0);
    }
}
