//! Structural property: every routed net is one *electrical* component —
//! checked with an independent union-find over the tree's wire segments
//! and the net's pins, where pins of one terminal are equivalent through
//! the cell ("all pins which belong to a terminal" are logically grouped,
//! per the paper). This is deliberately not the router's own bookkeeping.

use gcr::prelude::*;
use gcr::workload::{netlists, placements, rng_for};

/// Union-find.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Dsu {
        Dsu {
            parent: (0..n).collect(),
        }
    }
    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// Checks that the wire segments plus the terminals' pins form a single
/// electrical component. `terminals` lists each terminal's pin positions;
/// pins of one terminal are shorted through the cell.
fn net_is_electrically_connected(tree: &RouteTree, terminals: &[Vec<Point>]) -> bool {
    let segs = tree.segments();
    let pin_groups: Vec<&Vec<Point>> = terminals.iter().collect();
    let pin_count: usize = pin_groups.iter().map(|g| g.len()).sum();
    let n = segs.len() + pin_count;
    if n == 0 {
        return true;
    }
    let mut dsu = Dsu::new(n);
    // Wire-to-wire contact.
    for i in 0..segs.len() {
        for j in (i + 1)..segs.len() {
            let touch = segs[i].crossing(&segs[j]).is_some()
                || segs[i].collinear_overlap(&segs[j]).is_some();
            if touch {
                dsu.union(i, j);
            }
        }
    }
    // Pins: short within their terminal, attach to wire they sit on, and
    // short to coincident pins of other terminals.
    let mut pin_index = Vec::new(); // (flat index, position)
    let mut flat = segs.len();
    for group in &pin_groups {
        let first = flat;
        for p in group.iter() {
            for (si, s) in segs.iter().enumerate() {
                if s.contains(*p) {
                    dsu.union(flat, si);
                }
            }
            if flat > first {
                dsu.union(flat, first);
            }
            pin_index.push((flat, *p));
            flat += 1;
        }
    }
    for (i, &(fa, pa)) in pin_index.iter().enumerate() {
        for &(fb, pb) in &pin_index[i + 1..] {
            if pa == pb {
                dsu.union(fa, fb);
            }
        }
    }
    let root = dsu.find(0);
    (1..n).all(|i| dsu.find(i) == root)
}

fn check_layout_nets(layout: &Layout, ids: &[NetId], case: u64) {
    let mut session = RoutingSession::gridless(layout.clone(), RouterConfig::default());
    for &id in ids {
        let route = session.route_net(id).expect("net routes");
        let net = layout.net(id).expect("net exists");
        // At least one pin of every terminal must be on the tree.
        for t in net.terminals() {
            assert!(
                t.pins().iter().any(|p| route.tree.contains(p.position)),
                "case {case} net {}: terminal {} off tree",
                net.name(),
                t.name()
            );
        }
        let terminals: Vec<Vec<Point>> = net
            .terminals()
            .iter()
            .map(|t| t.pins().iter().map(|p| p.position).collect())
            .collect();
        assert!(
            net_is_electrically_connected(&route.tree, &terminals),
            "case {case} net {}: net is electrically disconnected",
            net.name()
        );
    }
}

#[test]
fn random_multi_terminal_nets_are_electrically_connected() {
    let params = placements::MacroGridParams {
        rows: 3,
        cols: 3,
        ..Default::default()
    };
    for case in 0..6u64 {
        let mut layout = placements::macro_grid(&params, &mut rng_for("conn-layout", case));
        let mut rng = rng_for("conn-nets", case);
        let ids = netlists::add_multi_terminal_nets(&mut layout, 6, 4, &mut rng);
        check_layout_nets(&layout, &ids, case);
    }
}

#[test]
fn multi_pin_nets_are_electrically_connected() {
    let params = placements::MacroGridParams {
        rows: 3,
        cols: 3,
        ..Default::default()
    };
    let mut layout = placements::macro_grid(&params, &mut rng_for("conn-mp", 0));
    let ids = netlists::add_multi_pin_nets(&mut layout, 8, 3, &mut rng_for("conn-mp", 1));
    check_layout_nets(&layout, &ids, 0);
}

#[test]
fn two_pin_nets_are_electrically_connected() {
    let params = placements::MacroGridParams {
        rows: 4,
        cols: 4,
        ..Default::default()
    };
    let mut layout = placements::macro_grid(&params, &mut rng_for("conn-2p", 0));
    let ids = netlists::add_two_pin_nets(&mut layout, 25, &mut rng_for("conn-2p", 1));
    check_layout_nets(&layout, &ids, 0);
}

#[test]
fn checker_rejects_disconnected_trees() {
    // Sanity check on the checker itself: two disjoint wires with pins on
    // both, in different single-pin terminals.
    let mut tree = RouteTree::new();
    tree.add_polyline(&gcr::geom::Polyline::new(vec![Point::new(0, 0), Point::new(5, 0)]).unwrap());
    tree.add_polyline(
        &gcr::geom::Polyline::new(vec![Point::new(20, 20), Point::new(25, 20)]).unwrap(),
    );
    let terminals = vec![vec![Point::new(0, 0)], vec![Point::new(20, 20)]];
    assert!(!net_is_electrically_connected(&tree, &terminals));
    // But one multi-pin terminal spanning both wires shorts them.
    let shorted = vec![
        vec![Point::new(5, 0), Point::new(20, 20)],
        vec![Point::new(0, 0)],
    ];
    assert!(net_is_electrically_connected(&tree, &shorted));
}
