//! [`SessionRegistry`]: the daemon's concurrent map of live routing
//! sessions.
//!
//! The registry is the warm-state store the whole service exists for: a
//! [`RoutingSession`] per client workload, kept alive across requests so
//! every ECO pays the ~warm-reroute price instead of a cold full route.
//! Three concurrency properties shape the design:
//!
//! * **one map lock** — the id → entry map sits behind one `Mutex`,
//!   held for one hash probe per lookup (a served request takes tens of
//!   microseconds, a lookup well under one) and across an `open`'s
//!   eviction and insertion, so the capacity bound is exact;
//! * **per-session serialization** — each entry holds its session behind
//!   its own `Mutex`; two requests for the *same* session queue up (a
//!   session is mutable warm state, not a pure function), while requests
//!   for different sessions proceed in parallel;
//! * **LRU-capped capacity** — the registry holds at most `capacity`
//!   sessions; opening one more evicts the least-recently-*touched*
//!   session (every request stamps its session from a global atomic
//!   clock). Eviction only unlinks the entry — a request already holding
//!   the session's `Arc` finishes normally and the memory retires with
//!   the last reference.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use gcr_core::{RoutingSession, SessionStats};

use crate::metrics::ServiceMetrics;
use crate::proto::{BoxedEngine, EngineKind};

/// A session plus the service-level bookkeeping the `STATS` verb
/// reports.
///
/// Request/wall accounting does **not** live here: it sits on the
/// owning [`SessionEntry`] as atomics, so it stays readable and
/// writable without the session lock — a quarantined session (poisoned
/// lock) and an evicted-but-in-flight session are still accounted.
pub struct ServiceSession {
    /// The owned routing session (engine boxed for runtime selection).
    pub session: RoutingSession<BoxedEngine>,
    /// Which engine the session was opened with.
    pub engine: EngineKind,
    /// Has a full `route_all` been committed yet? (`ROUTE` routes
    /// everything first, then only the dirty set.)
    pub routed_once: bool,
}

impl std::fmt::Debug for ServiceSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The session's engine is a non-Debug trait object; summarize.
        f.debug_struct("ServiceSession")
            .field("engine", &self.engine)
            .field("routed_once", &self.routed_once)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl ServiceSession {
    /// Wraps a freshly built session for registration.
    #[must_use]
    pub fn new(session: RoutingSession<BoxedEngine>, engine: EngineKind) -> Self {
        ServiceSession {
            session,
            engine,
            routed_once: false,
        }
    }

    /// The session's routing stats (convenience for `STATS` replies).
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        self.session.stats()
    }
}

/// Marker error from [`SessionEntry::lock`]: a panic poisoned the
/// session's lock, so every request but `CLOSE` is refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quarantined;

/// One registered session: the id, the LRU stamp, the serialized
/// session state, and lock-free request/wall accounting.
///
/// The accounting is deliberately *outside* the session mutex, so a
/// panic that poisons the lock neither drops the panicked request's
/// tally nor makes the totals unreadable, and a request still running
/// against an evicted entry's `Arc` keeps counting. The server bumps the
/// process-wide `gcr_service_session_requests_total` and
/// `gcr_service_session_wall_us_total` counters beside these tallies;
/// the server-form `STATS` reads those, so closing or evicting an entry
/// takes nothing back (`tests/telemetry.rs` checks both views).
#[derive(Debug)] // ServiceSession has a summary Debug, so this derives
pub struct SessionEntry {
    /// The session id handed to the client by `OPEN`.
    pub id: u64,
    touched: AtomicU64,
    requests: AtomicU64,
    wall_us: AtomicU64,
    session: Mutex<ServiceSession>,
}

impl SessionEntry {
    /// Counts one request against this session (before the work runs,
    /// so even a panicking request is accounted).
    pub fn begin_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds wall time spent inside this session's requests.
    pub fn add_wall_us(&self, us: u64) {
        self.wall_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Requests served against this session.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Wall microseconds spent inside this session's requests.
    #[must_use]
    pub fn wall_us(&self) -> u64 {
        self.wall_us.load(Ordering::Relaxed)
    }

    /// Locks the session for one request (serializing mutation per
    /// session). A poisoned lock means a request panicked while holding
    /// it — the session's invariants can no longer be trusted, so it is
    /// **quarantined**: `Err` here, which the server answers with
    /// `ERR QUARANTINED`. `CLOSE` still unlinks a quarantined session
    /// (it never takes this lock).
    ///
    /// # Errors
    ///
    /// [`Quarantined`] if the session is quarantined.
    pub fn lock(&self) -> Result<MutexGuard<'_, ServiceSession>, Quarantined> {
        self.session.lock().map_err(|_| Quarantined)
    }
}

/// The concurrent session map; see the [module docs](self).
#[derive(Debug)]
pub struct SessionRegistry {
    sessions: Mutex<HashMap<u64, Arc<SessionEntry>>>,
    next_id: AtomicU64,
    clock: AtomicU64,
    capacity: usize,
    evictions: AtomicU64,
}

impl SessionRegistry {
    /// A registry holding at most `capacity` sessions (clamped ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> SessionRegistry {
        SessionRegistry {
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            clock: AtomicU64::new(1),
            capacity: capacity.max(1),
            evictions: AtomicU64::new(0),
        }
    }

    fn map(&self) -> MutexGuard<'_, HashMap<u64, Arc<SessionEntry>>> {
        self.sessions.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers a session, evicting the least-recently-touched entry if
    /// the registry is full. Returns the new session id and the evicted
    /// id, if any.
    pub fn open(&self, session: ServiceSession) -> (u64, Option<u64>) {
        let sid = self.next_id.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(SessionEntry {
            id: sid,
            touched: AtomicU64::new(self.tick()),
            requests: AtomicU64::new(0),
            wall_us: AtomicU64::new(0),
            session: Mutex::new(session),
        });
        let mut sessions = self.map();
        let victim = if sessions.len() >= self.capacity {
            let stalest = sessions
                .values()
                .min_by_key(|e| e.touched.load(Ordering::Relaxed))
                .map(|e| e.id);
            stalest.and_then(|id| sessions.remove(&id))
        } else {
            None
        };
        sessions.insert(sid, entry);
        drop(sessions);
        ServiceMetrics::get().sessions_live.inc();
        // The victim's `Arc` may be the last reference to a whole
        // session: it drops here, after the map lock is released.
        let evicted = victim.map(|victim| {
            self.retire();
            self.evictions.fetch_add(1, Ordering::Relaxed);
            ServiceMetrics::get().sessions_evicted.inc();
            victim.id
        });
        (sid, evicted)
    }

    /// Counts an unlinked (closed or evicted) entry out of the live
    /// sessions.
    fn retire(&self) {
        ServiceMetrics::get().sessions_live.dec();
    }

    /// Looks a session up and stamps it most-recently-used.
    #[must_use]
    pub fn get(&self, sid: u64) -> Option<Arc<SessionEntry>> {
        let entry = self.map().get(&sid).cloned()?;
        entry.touched.store(self.tick(), Ordering::Relaxed);
        Some(entry)
    }

    /// Unlinks a session; returns `false` for an unknown id.
    pub fn close(&self, sid: u64) -> bool {
        // Held past the map lock: it may be the session's last reference.
        let removed = self.map().remove(&sid);
        if removed.is_some() {
            self.retire();
        }
        removed.is_some()
    }

    /// Live session count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// Is the registry empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The capacity bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many sessions have been evicted to make room.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_core::RouterConfig;
    use gcr_geom::Rect;
    use gcr_layout::Layout;

    fn boxed_session() -> ServiceSession {
        let layout = Layout::new(Rect::new(0, 0, 50, 50).unwrap());
        let session = RoutingSession::builder(layout)
            .config(RouterConfig::default())
            .engine(EngineKind::Gridless.build())
            .build();
        ServiceSession::new(session, EngineKind::Gridless)
    }

    #[test]
    fn open_get_close_lifecycle() {
        let reg = SessionRegistry::new(4);
        let (sid, evicted) = reg.open(boxed_session());
        assert_eq!(evicted, None);
        assert_eq!(reg.len(), 1);
        assert!(reg.get(sid).is_some());
        assert!(reg.get(sid + 1).is_none());
        assert!(reg.close(sid));
        assert!(!reg.close(sid), "second close is a miss");
        assert!(reg.is_empty());
    }

    #[test]
    fn lru_eviction_prefers_the_stalest_session() {
        let reg = SessionRegistry::new(2);
        let (a, _) = reg.open(boxed_session());
        let (b, _) = reg.open(boxed_session());
        // Touch a, making b the LRU victim.
        assert!(reg.get(a).is_some());
        let (c, evicted) = reg.open(boxed_session());
        assert_eq!(evicted, Some(b), "b was least recently touched");
        assert_eq!(reg.evictions(), 1);
        assert!(reg.get(a).is_some() && reg.get(c).is_some());
        assert!(reg.get(b).is_none(), "evicted sessions are gone");
        assert_eq!(reg.len(), 2, "capacity bound holds");
    }

    #[test]
    fn an_in_flight_arc_survives_eviction() {
        let reg = SessionRegistry::new(1);
        let (a, _) = reg.open(boxed_session());
        let held = reg.get(a).unwrap();
        let (_, evicted) = reg.open(boxed_session());
        assert_eq!(evicted, Some(a));
        // The held Arc still works: an in-flight request finishes
        // normally against the unlinked session.
        let guard = held.lock().unwrap();
        assert_eq!(guard.stats().nets, 0);
    }

    #[test]
    fn a_panic_quarantines_the_session_but_close_still_works() {
        let reg = SessionRegistry::new(2);
        let (sid, _) = reg.open(boxed_session());
        let entry = reg.get(sid).unwrap();
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = entry.lock().unwrap();
            panic!("injected fault");
        }));
        assert!(poisoned.is_err());
        assert_eq!(entry.lock().unwrap_err(), Quarantined);
        // Other sessions are untouched, and CLOSE still unlinks.
        let (other, _) = reg.open(boxed_session());
        assert!(reg.get(other).unwrap().lock().is_ok());
        assert!(reg.close(sid));
        assert!(reg.get(sid).is_none());
    }

    #[test]
    fn concurrent_opens_never_exceed_capacity() {
        let reg = SessionRegistry::new(3);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        reg.open(boxed_session());
                    }
                });
            }
        });
        assert_eq!(reg.len(), 3, "admission is serialized");
        assert_eq!(reg.evictions(), 32 - 3);
    }

    #[test]
    fn ids_are_never_reused() {
        let reg = SessionRegistry::new(1);
        let (a, _) = reg.open(boxed_session());
        reg.close(a);
        let (b, _) = reg.open(boxed_session());
        assert_ne!(a, b);
    }
}
