//! Checks shared by the root suites that compare a warm session against
//! a cold one.
//!
//! A session hands a net it reroutes the net's previous route, and the
//! gridless engine seeds its A\* goal bound with that route's cost. The
//! bound is exact: the rerouted net gets the same polylines, costs and
//! expansions as on a session that never routed it. Only the nodes the
//! search creates fall (`generated`, `touched`, `max_open`). So a warm
//! run is compared with a cold one here: everything equal except those
//! three counters, which may only fall. Runs with the same history still
//! compare with full equality in each suite's own helper.

#![allow(dead_code)] // each suite uses its own subset

use gcr::prelude::*;

/// Asserts that `warm` searched what `cold` searched: equal `expanded`
/// and `reopened`, and no more `generated`, `touched` or `max_open`.
/// Returns how much `generated` fell.
pub fn assert_search_no_worse(cold: &SearchStats, warm: &SearchStats, what: &str) -> usize {
    assert_eq!(
        (warm.expanded, warm.reopened),
        (cold.expanded, cold.reopened),
        "{what}: warm {warm} vs cold {cold}"
    );
    assert!(
        warm.generated <= cold.generated
            && warm.touched <= cold.touched
            && warm.max_open <= cold.max_open,
        "{what}: warm {warm} vs cold {cold}"
    );
    cold.generated - warm.generated
}

/// Asserts that `warm` routed `id` exactly as `cold` did: the same tree,
/// polylines and costs, and per connection the search relation of
/// [`assert_search_no_worse`]. Returns how much `generated` fell.
pub fn assert_net_matches_cold(cold: &NetRoute, warm: &NetRoute, what: &str) -> usize {
    let what = format!("{what}: net {}", cold.net);
    assert_eq!((&warm.net, warm.id), (&cold.net, cold.id), "{what}");
    assert_eq!(warm.tree.points(), cold.tree.points(), "{what}");
    assert_eq!(warm.tree.segments(), cold.tree.segments(), "{what}");
    assert_eq!(warm.connections.len(), cold.connections.len(), "{what}");
    assert_search_no_worse(&cold.stats, &warm.stats, &what);
    let mut fell = 0;
    for (c, w) in cold.connections.iter().zip(&warm.connections) {
        assert_eq!(w.polyline, c.polyline, "{what}");
        assert_eq!(w.cost, c.cost, "{what}");
        fell += assert_search_no_worse(&c.stats, &w.stats, &what);
    }
    fell
}

/// [`assert_net_matches_cold`] over two whole routings, failures
/// included. Returns how much `generated` fell in total.
pub fn assert_warm_matches_cold(cold: &GlobalRouting, warm: &GlobalRouting, what: &str) -> usize {
    assert_eq!(warm.routes.len(), cold.routes.len(), "{what}: route count");
    let fell = cold
        .routes
        .iter()
        .zip(&warm.routes)
        .map(|(c, w)| assert_net_matches_cold(c, w, what))
        .sum();
    let failures = |r: &GlobalRouting| -> Vec<(NetId, String)> {
        r.failures
            .iter()
            .map(|(id, e)| (*id, e.to_string()))
            .collect()
    };
    assert_eq!(failures(warm), failures(cold), "{what}: failures");
    fell
}
