//! Cooperative cancellation for long searches: deadlines, expansion
//! ceilings, and an explicit cancel flag, shared across workers.
//!
//! A [`Budget`] is a cheaply clonable handle over shared atomic state.
//! The owner of a request (a service worker, a CLI driver) builds one,
//! hands clones to every search it spawns, and the searches poll it
//! cooperatively: an expansion loop calls [`Budget::check_cancel`] every
//! expansion (one relaxed atomic load) and [`Budget::charge`] once per
//! *block* of expansions (an atomic add plus, when a deadline is set,
//! one `Instant::now()`). Block charging keeps the overhead of a live
//! budget under the noise floor of the search itself while still
//! bounding how far past its limits a search can run (one block).
//!
//! Cancellation is **cooperative and whole-request**: a search that
//! observes the budget as exhausted abandons its partial work, and the
//! drivers above it (see `gcr-core`'s session layer) commit nothing, so
//! a cancelled request leaves no trace and a retry is byte-identical to
//! an uninterrupted run.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a budgeted search stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CancelReason {
    /// The budget's explicit cancel flag was raised ([`Budget::cancel`]).
    Cancelled,
    /// The wall-clock deadline passed.
    Deadline,
    /// The shared expansion ceiling was reached.
    ExpansionCeiling,
}

impl fmt::Display for CancelReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CancelReason::Cancelled => write!(f, "cancelled"),
            CancelReason::Deadline => write!(f, "deadline exceeded"),
            CancelReason::ExpansionCeiling => write!(f, "expansion ceiling reached"),
        }
    }
}

/// How many expansions a search runs between [`Budget::charge`] calls.
///
/// Public so drivers that do per-item (not per-expansion) work — e.g. a
/// session checking once per net — can reason about granularity.
pub const CHARGE_BLOCK: u64 = 32;

#[derive(Debug)]
struct BudgetInner {
    deadline: Option<Instant>,
    max_expansions: Option<u64>,
    cancel: AtomicBool,
    expansions: AtomicU64,
}

/// A shared, cooperative cancellation token plus resource meter.
///
/// Clones share state: raising the cancel flag through any clone stops
/// every search polling any other clone; expansions charged by parallel
/// workers accumulate against one shared ceiling.
///
/// The default budget is [`unlimited`](Budget::unlimited): every check
/// passes and the only cost is the checks themselves.
///
/// ```
/// use gcr_search::{Budget, CancelReason};
///
/// let b = Budget::unlimited().with_expansion_ceiling(10);
/// assert_eq!(b.check(), Ok(()));
/// b.charge(10);
/// assert_eq!(b.check(), Err(CancelReason::ExpansionCeiling));
///
/// let c = Budget::unlimited();
/// let shared = c.clone();
/// shared.cancel();
/// assert_eq!(c.check(), Err(CancelReason::Cancelled));
/// ```
#[derive(Clone)]
pub struct Budget {
    inner: Arc<BudgetInner>,
}

impl Budget {
    /// A budget with no deadline, no ceiling, and the cancel flag down.
    #[must_use]
    pub fn unlimited() -> Budget {
        Budget {
            inner: Arc::new(BudgetInner {
                deadline: None,
                max_expansions: None,
                cancel: AtomicBool::new(false),
                expansions: AtomicU64::new(0),
            }),
        }
    }

    /// This budget with a wall-clock deadline `timeout` from now.
    ///
    /// Must be called before clones are handed out (it rebuilds the
    /// shared state); the charged-expansion count is preserved.
    #[must_use]
    pub fn with_deadline(self, timeout: Duration) -> Budget {
        self.with_deadline_at(Instant::now() + timeout)
    }

    /// This budget with an absolute wall-clock deadline.
    #[must_use]
    pub fn with_deadline_at(self, deadline: Instant) -> Budget {
        self.rebuild(Some(deadline), self.inner.max_expansions)
    }

    /// This budget with a shared expansion ceiling: once the total
    /// charged across all clones reaches `max`, checks fail.
    #[must_use]
    pub fn with_expansion_ceiling(self, max: u64) -> Budget {
        self.rebuild(self.inner.deadline, Some(max))
    }

    fn rebuild(&self, deadline: Option<Instant>, max_expansions: Option<u64>) -> Budget {
        Budget {
            inner: Arc::new(BudgetInner {
                deadline,
                max_expansions,
                cancel: AtomicBool::new(self.inner.cancel.load(Ordering::Relaxed)),
                expansions: AtomicU64::new(self.inner.expansions.load(Ordering::Relaxed)),
            }),
        }
    }

    /// Raises the cancel flag; every clone observes it on its next check.
    pub fn cancel(&self) {
        self.inner.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether the cancel flag is up.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancel.load(Ordering::Relaxed)
    }

    /// Total expansions charged so far across all clones.
    #[must_use]
    pub fn expansions(&self) -> u64 {
        self.inner.expansions.load(Ordering::Relaxed)
    }

    /// The cheap per-expansion check: the cancel flag and the expansion
    /// ceiling (one relaxed load each); does **not** read the clock.
    #[inline]
    pub fn check_cancel(&self) -> Result<(), CancelReason> {
        if self.inner.cancel.load(Ordering::Relaxed) {
            return Err(CancelReason::Cancelled);
        }
        if let Some(max) = self.inner.max_expansions {
            if self.inner.expansions.load(Ordering::Relaxed) >= max {
                return Err(CancelReason::ExpansionCeiling);
            }
        }
        Ok(())
    }

    /// Charges `n` expansions against the shared meter, then runs the
    /// expensive checks: the ceiling and (when configured) the
    /// wall-clock deadline. Call once per [`CHARGE_BLOCK`] expansions.
    #[inline]
    pub fn charge(&self, n: u64) -> Result<(), CancelReason> {
        if n > 0 {
            self.inner.expansions.fetch_add(n, Ordering::Relaxed);
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                return Err(CancelReason::Deadline);
            }
        }
        self.check_cancel()
    }

    /// The full check — flag, ceiling, and deadline — without charging.
    /// Per-item drivers (one net, one request) use this directly.
    #[inline]
    pub fn check(&self) -> Result<(), CancelReason> {
        self.charge(0)
    }
}

impl Default for Budget {
    fn default() -> Budget {
        Budget::unlimited()
    }
}

impl fmt::Debug for Budget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Budget")
            .field("deadline", &self.inner.deadline)
            .field("max_expansions", &self.inner.max_expansions)
            .field("cancelled", &self.is_cancelled())
            .field("expansions", &self.expansions())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_always_passes() {
        let b = Budget::unlimited();
        assert_eq!(b.check(), Ok(()));
        assert_eq!(b.charge(1_000_000), Ok(()));
        assert_eq!(b.check_cancel(), Ok(()));
    }

    #[test]
    fn cancel_flag_is_shared_across_clones() {
        let a = Budget::unlimited();
        let b = a.clone();
        assert_eq!(b.check_cancel(), Ok(()));
        a.cancel();
        assert_eq!(b.check_cancel(), Err(CancelReason::Cancelled));
        assert_eq!(b.check(), Err(CancelReason::Cancelled));
    }

    #[test]
    fn expansion_ceiling_counts_across_clones() {
        let a = Budget::unlimited().with_expansion_ceiling(64);
        let b = a.clone();
        assert_eq!(a.charge(32), Ok(()));
        assert_eq!(b.charge(32), Err(CancelReason::ExpansionCeiling));
        assert_eq!(a.check_cancel(), Err(CancelReason::ExpansionCeiling));
        assert_eq!(a.expansions(), 64);
    }

    #[test]
    fn zero_ceiling_fails_immediately_without_charges() {
        let b = Budget::unlimited().with_expansion_ceiling(0);
        assert_eq!(b.check_cancel(), Err(CancelReason::ExpansionCeiling));
        assert_eq!(b.check(), Err(CancelReason::ExpansionCeiling));
    }

    #[test]
    fn expired_deadline_fails_charge_but_not_fast_check() {
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        // The fast path never reads the clock …
        assert_eq!(b.check_cancel(), Ok(()));
        // … the charging path does.
        assert_eq!(b.charge(1), Err(CancelReason::Deadline));
        assert_eq!(b.check(), Err(CancelReason::Deadline));
    }

    #[test]
    fn future_deadline_passes() {
        let b = Budget::unlimited().with_deadline(Duration::from_secs(3600));
        assert_eq!(b.charge(10), Ok(()));
    }

    #[test]
    fn builders_preserve_cancel_and_charges() {
        let b = Budget::unlimited();
        b.charge(5).unwrap();
        b.cancel();
        let rebuilt = b.with_expansion_ceiling(100);
        assert_eq!(rebuilt.expansions(), 5);
        assert!(rebuilt.is_cancelled());
    }

    #[test]
    fn debug_and_default_are_usable() {
        let b = Budget::default();
        let s = format!("{b:?}");
        assert!(s.contains("deadline: None"), "{s}");
        assert!(s.contains("max_expansions: None"), "{s}");
        assert!(s.contains("cancelled: false"), "{s}");
    }
}
