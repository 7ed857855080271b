//! Output checks and route quality. Every committed route is checked
//! against the flat `Plane` of its layout — an oracle independent of the
//! sharded index that routed it — and against the half-perimeter lower
//! bound; the route digest pins behaviour next to time.

use gcr_core::{RoutingEngine, RoutingSession};
use gcr_service::dump_routing;

/// FNV-1a, 64-bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a of a session's canonical dump (`DUMP` reply body) made
/// independent of net order: each net's block names the net instead of
/// its id, and the blocks are hashed in name order. Permuting a die's
/// nets changes their ids and the dump's order, but not this digest
/// unless it changes a route.
pub fn digest<E: RoutingEngine>(session: &RoutingSession<E>) -> u64 {
    let nets = session.layout().nets();
    let mut blocks: Vec<String> = Vec::new();
    for line in dump_routing(&session.routing()).lines() {
        let words: Vec<&str> = line.splitn(4, ' ').collect();
        match words[..] {
            // `net <name> <id> length <l> bends <b>`
            ["net", name, _id, rest] => blocks.push(format!("net {name} {rest}")),
            // `failed <id> <error>`
            ["failed", id, ..] => {
                let name = id
                    .parse::<usize>()
                    .ok()
                    .and_then(|i| nets.get(i))
                    .map_or(id, |n| n.name());
                let error = line.splitn(3, ' ').nth(2).unwrap_or("");
                blocks.push(format!("failed {name} {error}"));
            }
            _ => match blocks.last_mut() {
                Some(block) => {
                    block.push('\n');
                    block.push_str(line);
                }
                None => blocks.push(line.to_string()),
            },
        }
    }
    blocks.sort_unstable();
    let mut fnv = Fnv::default();
    for block in &blocks {
        fnv.write(block.as_bytes());
        fnv.write(b"\n");
    }
    fnv.finish()
}

/// Route quality accumulated over one or more sessions.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    pub nets: usize,
    pub routed: usize,
    /// Σ committed wire length over routed nets.
    pub wire: i64,
    /// Σ `Net::hpwl` over routed nets.
    pub hpwl: i64,
}

impl Quality {
    /// Σ wire ÷ Σ HPWL over routed nets (≥ 1 for legal routes).
    pub fn detour_ratio(&self) -> f64 {
        self.wire as f64 / self.hpwl.max(1) as f64
    }

    /// Routed nets ÷ nets.
    pub fn routed_share(&self) -> f64 {
        self.routed as f64 / self.nets.max(1) as f64
    }

    pub fn add(&mut self, other: Quality) {
        self.nets += other.nets;
        self.routed += other.routed;
        self.wire += other.wire;
        self.hpwl += other.hpwl;
    }
}

/// Checks every committed route of `session` and returns its quality.
/// Each violation is appended to `problems`, naming the net.
pub fn check_session<E: RoutingEngine>(
    what: &str,
    session: &RoutingSession<E>,
    problems: &mut Vec<String>,
) -> Quality {
    let layout = session.layout();
    let plane = layout.to_plane();
    let mut quality = Quality {
        nets: layout.nets().len(),
        ..Quality::default()
    };
    for (id, net) in layout.net_ids().into_iter().zip(layout.nets()) {
        let Some(route) = session.route(id) else {
            continue;
        };
        quality.routed += 1;
        let hpwl = net.hpwl();
        quality.wire += route.wire_length();
        quality.hpwl += hpwl;
        if route.wire_length() < hpwl {
            problems.push(format!(
                "{what}: net {} has wire length {} below its HPWL {hpwl}",
                net.name(),
                route.wire_length()
            ));
        }
        for connection in &route.connections {
            if !plane.polyline_free(&connection.polyline) {
                problems.push(format!(
                    "{what}: net {} crosses an obstacle on the flat plane: {}",
                    net.name(),
                    connection.polyline
                ));
            }
        }
    }
    quality
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::die;
    use crate::workloads::session;
    use gcr_core::RouterConfig;

    #[test]
    fn digest_does_not_depend_on_net_order() {
        let route = |seed| {
            let layout = die::parse(&die::eco_die(seed)).unwrap();
            let mut s = session(layout, RouterConfig::default());
            s.route_all();
            (dump_routing(&s.routing()), digest(&s))
        };
        let ((dump_a, a), (dump_b, b)) = (route(1), route(2));
        assert_ne!(dump_a, dump_b);
        assert_eq!(a, b);
    }
}
