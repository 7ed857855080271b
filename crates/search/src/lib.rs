//! Generic state-space search, as presented in the paper's "Search
//! Techniques" and "Algorithm A*" sections.
//!
//! Clow frames global routing as an instance of the state-space search
//! metaphor from artificial intelligence (Nilsson 1971): a search maintains
//! an OPEN list (the frontier) and a CLOSED list (already-expanded nodes),
//! repeatedly removes a node from OPEN, generates its successors, and ends
//! when a goal node is removed from OPEN and no open node can lie on a
//! cheaper path. The algorithms differ only in the order OPEN is served:
//!
//! * last-in-first-out → **depth-first** ([`depth_first`], with the depth
//!   limit the paper mentions),
//! * first-in-first-out → **breadth-first** ([`breadth_first`]),
//! * ascending ĝ → **best-first / branch-and-bound** ([`best_first`],
//!   equivalently Dijkstra),
//! * ascending f̂ = ĝ + ĥ with admissible ĥ → **A\*** ([`astar`]),
//! * no termination test → **exhaustive search** ([`exhaustive`]).
//!
//! The engine is generic over a [`SearchSpace`], so the same code drives the
//! gridless router, the Lee–Moore grid router (the special case with grid
//! successors and ĥ = 0), and the toy puzzles in the tests. Every A\*
//! runs through [`astar_in`], under a per-search expansion cap and a
//! cooperative [`Budget`] shared by a request's searches, in a reusable
//! [`SearchArena`]; [`astar`] and [`best_first`] are its conveniences.
//!
//! # Example
//!
//! ```
//! use gcr_search::{astar, Found, SearchSpace};
//!
//! /// Shortest path on a tiny weighted digraph.
//! struct Graph {
//!     edges: Vec<Vec<(usize, i64)>>,
//!     goal: usize,
//! }
//!
//! impl SearchSpace for Graph {
//!     type State = usize;
//!     type Cost = i64;
//!     fn start_states(&self, out: &mut Vec<(usize, i64)>) {
//!         out.clear();
//!         out.push((0, 0));
//!     }
//!     fn successors(&self, s: &usize, out: &mut Vec<(usize, i64)>) {
//!         out.extend(self.edges[*s].iter().copied());
//!     }
//!     fn is_goal(&self, s: &usize) -> bool { *s == self.goal }
//! }
//!
//! let g = Graph {
//!     edges: vec![vec![(1, 4), (2, 1)], vec![(3, 1)], vec![(1, 1)], vec![]],
//!     goal: 3,
//! };
//! let Found { path, cost, .. } = astar(&g).expect("goal is reachable");
//! assert_eq!(cost, 3);
//! assert_eq!(path, vec![0, 2, 1, 3]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blind;
mod budget;
mod cost;
mod engine;
mod fnv;
mod parallel;
mod space;
mod stats;
mod telem;

pub use blind::{breadth_first, depth_first, exhaustive};
pub use budget::{Budget, CancelReason, CHARGE_BLOCK};
pub use cost::{LexCost, PathCost};
pub use engine::{astar, astar_in, best_first, Found, SearchArena, SearchOutcome};
pub use fnv::{FnvBuildHasher, FnvHashMap, FnvHasher};
pub use parallel::{default_threads, parallel_map_with};
pub use space::{Runs, SearchSpace, ZeroHeuristic};
pub use stats::SearchStats;
