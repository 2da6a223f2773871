//! Global memory governance: a byte budget shared by every in-flight
//! request, and the one account for the bytes execution holds. A
//! per-statement bound would be blind to *aggregate* pressure — fifty
//! concurrent spool-heavy batches each under its own limit can still OOM
//! the process — so a single statement is bounded the same way a server
//! is: by the reservation it charges.
//!
//! - [`MemoryGovernor`]: one shared byte pool. Requests take a
//!   [`MemReservation`] at admission; the pool can never over-commit.
//! - [`MemReservation`]: a request's grant. Execution charges bytes against
//!   it (growing the grant from the pool in chunks); exceeding the pool is
//!   a *recoverable* [`ReserveError`]: the executor returns it, and the
//!   request's owner retries instead of an allocation failing.
//! - [`MemScope`]: release-on-drop accounting — operators
//!   charge into a scope, the scope returns its bytes to the reservation on
//!   drop, the reservation returns its grant to the pool on drop. Nothing
//!   leaks on panic or early return.
//! - [`Pressure`]: three levels off pool occupancy. The serving layer plans
//!   on the baseline rung from Elevated up (`MEM_PRESSURE`), and at
//!   Critical also sheds admissions with `SHED_MEMORY`.
//!
//! Determinism: the [`crate::sites::MEM_RESERVE`] failpoint makes grant
//! growth fail on demand, so a refused reservation is testable without
//! a real budget squeeze. Concurrency: the pool mutex is taken through
//! [`crate::lock`], which recovers from poisoning (every update leaves
//! `Pool` valid at every step).
//!
//! Charging is lock-free in the common case: `used` and `granted` are
//! atomics, and the pool lock is taken only when the grant must grow
//! (amortized by [`GRANT_CHUNK`]) — execution row loops do not serialize on
//! the governor.

use crate::{lock, sites, CancelToken, FailpointRegistry, Held, Reason};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Pool occupancy, as a fraction of the budget, from which pressure is
/// [`Pressure::Elevated`].
const ELEVATED_AT: f64 = 0.7;

/// Pool occupancy, as a fraction of the budget, from which pressure is
/// [`Pressure::Critical`].
const CRITICAL_AT: f64 = 0.9;

/// Grant growth quantum: a reservation that outgrows its grant asks the
/// pool for this much at a time, so hot-loop charges hit the pool lock
/// once per 256 KiB, not once per row chunk.
pub const GRANT_CHUNK: usize = 256 * 1024;

/// How close the pool is to its budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Pressure {
    /// Plenty of headroom; full CSE planning.
    #[default]
    Normal,
    /// Above the elevated watermark; baseline-only planning (spools are
    /// the memory hogs, so plan none).
    Elevated,
    /// Above the critical watermark; baseline-only planning and new
    /// admissions are shed with `SHED_MEMORY`.
    Critical,
}

impl Pressure {
    /// Stable textual form (reports, JSON).
    pub fn as_str(&self) -> &'static str {
        match self {
            Pressure::Normal => "normal",
            Pressure::Elevated => "elevated",
            Pressure::Critical => "critical",
        }
    }
}

impl fmt::Display for Pressure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a reservation or grant growth was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReserveError {
    /// The pool cannot cover the request without over-committing.
    Exhausted { requested: usize, available: usize },
    /// The `mem.reserve` failpoint tripped.
    Injected,
    /// The caller's cancel token tripped while waiting for room.
    Canceled { deadline: bool },
}

impl ReserveError {
    /// The stable reason code this failure degrades with.
    pub fn reason(&self) -> Reason {
        match self {
            ReserveError::Exhausted { .. } | ReserveError::Injected => Reason::MemReservation,
            ReserveError::Canceled { deadline: false } => Reason::ReqCanceled,
            ReserveError::Canceled { deadline: true } => Reason::ReqDeadline,
        }
    }
}

impl fmt::Display for ReserveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReserveError::Exhausted {
                requested,
                available,
            } => write!(
                f,
                "memory reservation exhausted: requested {requested} bytes, {available} available"
            ),
            ReserveError::Injected => {
                write!(
                    f,
                    "memory reservation fault injected at {}",
                    sites::MEM_RESERVE
                )
            }
            ReserveError::Canceled { deadline: false } => {
                write!(f, "canceled while waiting for memory")
            }
            ReserveError::Canceled { deadline: true } => {
                write!(f, "deadline expired while waiting for memory")
            }
        }
    }
}

struct Pool {
    reserved: usize,
}

struct GovernorInner {
    budget: usize,
    elevated_at: usize,
    critical_at: usize,
    pool: Mutex<Pool>,
    released: Condvar,
}

impl GovernorInner {
    fn lock(&self) -> Held<'_, Pool> {
        lock(&self.pool)
    }
}

/// The shared byte pool. Cloning is cheap and shares the pool.
#[derive(Clone)]
pub struct MemoryGovernor {
    inner: Arc<GovernorInner>,
}

impl fmt::Debug for MemoryGovernor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryGovernor")
            .field("budget", &self.inner.budget)
            .field("reserved", &self.reserved())
            .field("pressure", &self.pressure())
            .finish()
    }
}

impl MemoryGovernor {
    /// A governor over `budget` bytes, elevated at [`ELEVATED_AT`] of it
    /// and critical at [`CRITICAL_AT`].
    pub fn new(budget: usize) -> Self {
        let frac = |f: f64| ((budget as f64) * f) as usize;
        MemoryGovernor {
            inner: Arc::new(GovernorInner {
                budget,
                elevated_at: frac(ELEVATED_AT),
                critical_at: frac(CRITICAL_AT),
                pool: Mutex::new(Pool { reserved: 0 }),
                released: Condvar::new(),
            }),
        }
    }

    /// The total byte budget.
    pub fn budget(&self) -> usize {
        self.inner.budget
    }

    /// Bytes currently reserved across all live reservations.
    pub fn reserved(&self) -> usize {
        self.inner.lock().reserved
    }

    /// Current pressure level from pool occupancy.
    pub fn pressure(&self) -> Pressure {
        let reserved = self.reserved();
        if reserved >= self.inner.critical_at {
            Pressure::Critical
        } else if reserved >= self.inner.elevated_at {
            Pressure::Elevated
        } else {
            Pressure::Normal
        }
    }

    /// Reserve `bytes` immediately or refuse. The failpoint is evaluated
    /// before the pool is touched, so an injected fault never perturbs
    /// accounting.
    pub fn try_reserve(
        &self,
        bytes: usize,
        failpoints: Option<&FailpointRegistry>,
    ) -> Result<MemReservation, ReserveError> {
        if failpoints.is_some_and(|fp| fp.should_fail(sites::MEM_RESERVE)) {
            return Err(ReserveError::Injected);
        }
        let available;
        {
            let mut pool = self.inner.lock();
            if pool.reserved + bytes <= self.inner.budget {
                pool.reserved += bytes;
                drop(pool);
                return Ok(self.reservation(bytes, failpoints));
            }
            available = self.inner.budget.saturating_sub(pool.reserved);
        }
        Err(ReserveError::Exhausted {
            requested: bytes,
            available,
        })
    }

    /// Reserve `bytes`, waiting for other reservations to release if the
    /// pool is currently full. A request larger than the whole budget is
    /// refused immediately (it can never be satisfied); the wait polls the
    /// cancel token so a client cancel or a deadline unsticks a parked
    /// reserver.
    pub fn reserve_blocking(
        &self,
        bytes: usize,
        failpoints: Option<&FailpointRegistry>,
        cancel: &CancelToken,
    ) -> Result<MemReservation, ReserveError> {
        if failpoints.is_some_and(|fp| fp.should_fail(sites::MEM_RESERVE)) {
            return Err(ReserveError::Injected);
        }
        if bytes > self.inner.budget {
            return Err(ReserveError::Exhausted {
                requested: bytes,
                available: self.inner.budget,
            });
        }
        let mut pool = self.inner.lock();
        loop {
            if let Err(trip) = cancel.check("memory") {
                return Err(ReserveError::Canceled {
                    deadline: trip.reason == Reason::ReqDeadline,
                });
            }
            if pool.reserved + bytes <= self.inner.budget {
                pool.reserved += bytes;
                drop(pool);
                return Ok(self.reservation(bytes, failpoints));
            }
            // Timed wait so a cancel with no accompanying notify is still
            // observed promptly.
            pool = pool.wait_timeout(&self.inner.released, POLL_TICK);
        }
    }

    fn reservation(
        &self,
        granted: usize,
        failpoints: Option<&FailpointRegistry>,
    ) -> MemReservation {
        MemReservation {
            inner: Arc::new(ReservationInner {
                governor: self.clone(),
                granted: AtomicUsize::new(granted),
                used: AtomicUsize::new(0),
                failpoints: failpoints.cloned(),
            }),
        }
    }

    /// Grow an existing grant by `extra` bytes; refuses rather than
    /// over-committing.
    fn grow(&self, extra: usize) -> Result<(), ReserveError> {
        let mut pool = self.inner.lock();
        if pool.reserved + extra <= self.inner.budget {
            pool.reserved += extra;
            Ok(())
        } else {
            let available = self.inner.budget.saturating_sub(pool.reserved);
            Err(ReserveError::Exhausted {
                requested: extra,
                available,
            })
        }
    }

    /// Return `bytes` to the pool and wake every parked reserver (each
    /// re-checks fit; waking all is the lost-wakeup-proof choice and the
    /// governor model checks release always unblocks a fitting waiter).
    fn release(&self, bytes: usize) {
        {
            let mut pool = self.inner.lock();
            pool.reserved = pool.reserved.saturating_sub(bytes);
        }
        self.inner.released.notify_all();
    }
}

/// How long a parked reserver sleeps between cancel-token checks.
const POLL_TICK: Duration = Duration::from_millis(1);

struct ReservationInner {
    governor: MemoryGovernor,
    /// Bytes this reservation holds out of the pool.
    granted: AtomicUsize,
    /// Bytes execution has charged against the grant.
    used: AtomicUsize,
    failpoints: Option<FailpointRegistry>,
}

impl Drop for ReservationInner {
    fn drop(&mut self) {
        let granted = self.granted.load(Ordering::SeqCst);
        self.governor.release(granted);
    }
}

/// One request's slice of the pool. Cloning shares the grant (every
/// accounting scope holds a clone); the grant returns to the pool when the
/// last clone drops.
#[derive(Clone)]
pub struct MemReservation {
    inner: Arc<ReservationInner>,
}

impl fmt::Debug for MemReservation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemReservation")
            .field("granted", &self.granted())
            .field("used", &self.used())
            .finish()
    }
}

impl MemReservation {
    /// Bytes currently charged.
    pub fn used(&self) -> usize {
        self.inner.used.load(Ordering::SeqCst)
    }

    /// Bytes held out of the pool.
    pub fn granted(&self) -> usize {
        self.inner.granted.load(Ordering::SeqCst)
    }

    /// The governor this reservation draws from.
    pub fn governor(&self) -> &MemoryGovernor {
        &self.inner.governor
    }

    /// Open a release-on-drop accounting scope.
    pub fn scope(&self) -> MemScope {
        MemScope {
            reservation: self.clone(),
            charged: 0,
        }
    }

    /// Charge `bytes`, growing the grant from the pool in
    /// [`GRANT_CHUNK`] steps when needed. On refusal (pool exhausted or
    /// the `mem.reserve` failpoint trips) the charge is rolled back —
    /// `used` is unchanged — and the caller should degrade.
    pub fn charge(&self, bytes: usize) -> Result<(), ReserveError> {
        let new_used = self.inner.used.fetch_add(bytes, Ordering::SeqCst) + bytes;
        let granted = self.inner.granted.load(Ordering::SeqCst);
        if new_used <= granted {
            return Ok(());
        }
        let shortfall = new_used - granted;
        let extra = shortfall.div_ceil(GRANT_CHUNK).max(1) * GRANT_CHUNK;
        let refused = if self
            .inner
            .failpoints
            .as_ref()
            .is_some_and(|fp| fp.should_fail(sites::MEM_RESERVE))
        {
            Some(ReserveError::Injected)
        } else {
            self.inner.governor.grow(extra).err()
        };
        match refused {
            None => {
                self.inner.granted.fetch_add(extra, Ordering::SeqCst);
                Ok(())
            }
            Some(e) => {
                self.uncharge(bytes);
                Err(e)
            }
        }
    }

    /// Return `bytes` of usage (the grant is kept — it returns to the pool
    /// when the reservation drops).
    fn uncharge(&self, bytes: usize) {
        let _ = self
            .inner
            .used
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |u| {
                Some(u.saturating_sub(bytes))
            });
    }
}

/// Release-on-drop accounting: operators charge into a scope; whatever
/// the scope accumulated flows back to the reservation when it drops,
/// however the enclosing code exits.
pub struct MemScope {
    reservation: MemReservation,
    charged: usize,
}

impl MemScope {
    /// Charge `bytes` through to the reservation; on refusal the scope is
    /// unchanged.
    pub fn charge(&mut self, bytes: usize) -> Result<(), ReserveError> {
        self.reservation.charge(bytes)?;
        self.charged += bytes;
        Ok(())
    }
}

impl Drop for MemScope {
    fn drop(&mut self) {
        self.reservation.uncharge(self.charged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FailSpec;
    use std::sync::mpsc::sync_channel;
    use std::thread;

    fn armed(prob: f64) -> FailpointRegistry {
        let mut fp = FailpointRegistry::disabled();
        fp.arm(FailSpec {
            site: sites::MEM_RESERVE.to_string(),
            probability: prob,
            seed: 42,
        });
        fp
    }

    #[test]
    fn reserve_and_release_roundtrip() {
        let gov = MemoryGovernor::new(1000);
        let r = gov.try_reserve(400, None).expect("fits");
        assert_eq!(gov.reserved(), 400);
        assert_eq!(r.granted(), 400);
        drop(r);
        assert_eq!(gov.reserved(), 0);
    }

    #[test]
    fn pool_never_over_commits() {
        let gov = MemoryGovernor::new(1000);
        let _a = gov.try_reserve(600, None).expect("fits");
        let err = gov.try_reserve(600, None).expect_err("would over-commit");
        match err {
            ReserveError::Exhausted {
                requested,
                available,
            } => {
                assert_eq!(requested, 600);
                assert_eq!(available, 400);
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
        assert_eq!(gov.reserved(), 600);
    }

    #[test]
    fn charge_grows_grant_in_chunks() {
        let gov = MemoryGovernor::new(10 * GRANT_CHUNK);
        let r = gov.try_reserve(1024, None).expect("fits");
        r.charge(2048).expect("grows");
        assert!(r.granted() >= r.used());
        assert_eq!(r.used(), 2048);
        // Grant growth is chunked, so the pool sees one chunk, not 1 KiB.
        assert_eq!(gov.reserved(), 1024 + GRANT_CHUNK);
    }

    #[test]
    fn refused_charge_leaves_used_unchanged() {
        let gov = MemoryGovernor::new(GRANT_CHUNK);
        let r = gov.try_reserve(GRANT_CHUNK, None).expect("fits");
        r.charge(GRANT_CHUNK / 2).expect("within grant");
        let before = r.used();
        let err = r.charge(GRANT_CHUNK).expect_err("pool exhausted");
        assert!(matches!(err, ReserveError::Exhausted { .. }));
        assert_eq!(r.used(), before, "refused charge rolled back");
        assert!(r.used() <= r.granted());
    }

    #[test]
    fn failpoint_injects_reserve_fault() {
        let fp = armed(1.0);
        let gov = MemoryGovernor::new(1 << 30);
        assert!(matches!(
            gov.try_reserve(1, Some(&fp)),
            Err(ReserveError::Injected)
        ));
        // Disarmed, the same reserve succeeds and later charges inherit the
        // registry for grow-time injection.
        fp.disarm(sites::MEM_RESERVE);
        let r = gov.try_reserve(1024, Some(&fp)).expect("disarmed");
        fp.rearm(FailSpec {
            site: sites::MEM_RESERVE.to_string(),
            probability: 1.0,
            seed: 42,
        });
        assert!(matches!(
            r.charge(GRANT_CHUNK * 2),
            Err(ReserveError::Injected)
        ));
        assert_eq!(r.used(), 0, "injected grow rolled the charge back");
    }

    #[test]
    fn scopes_release_on_drop() {
        let gov = MemoryGovernor::new(1 << 20);
        let r = gov.try_reserve(1 << 20, None).expect("fits");
        {
            let mut outer = r.scope();
            outer.charge(100).expect("fits");
            {
                let mut inner = r.scope();
                inner.charge(50).expect("fits");
                assert_eq!(r.used(), 150);
            }
            assert_eq!(r.used(), 100, "inner scope released on drop");
        }
        assert_eq!(r.used(), 0, "outer scope released on drop");
    }

    #[test]
    fn blocking_reserve_waits_for_release() {
        let gov = MemoryGovernor::new(1000);
        let held = gov.try_reserve(900, None).expect("fits");
        let gov2 = gov.clone();
        let (tx, rx) = sync_channel(1);
        let waiter = thread::spawn(move || {
            let r = gov2.reserve_blocking(500, None, &CancelToken::never());
            tx.send(()).expect("receiver alive");
            r
        });
        // The waiter cannot proceed while 900 is held.
        assert!(rx.recv_timeout(Duration::from_millis(20)).is_err());
        drop(held);
        let r = waiter.join().expect("no panic").expect("unblocked");
        assert_eq!(r.granted(), 500);
        assert_eq!(gov.reserved(), 500);
    }

    #[test]
    fn blocking_reserve_observes_cancel_and_deadline() {
        let gov = MemoryGovernor::new(100);
        let _held = gov.try_reserve(100, None).expect("fits");
        let cancel = CancelToken::never();
        cancel.cancel();
        assert_eq!(
            gov.reserve_blocking(50, None, &cancel).err(),
            Some(ReserveError::Canceled { deadline: false })
        );
        let expired = CancelToken::never().with_deadline(Some(Duration::ZERO));
        assert_eq!(
            gov.reserve_blocking(50, None, &expired).err(),
            Some(ReserveError::Canceled { deadline: true })
        );
        // Over-budget requests fail fast even with a live token.
        assert!(matches!(
            gov.reserve_blocking(101, None, &CancelToken::never()),
            Err(ReserveError::Exhausted { .. })
        ));
    }

    #[test]
    fn pressure_levels_track_occupancy() {
        let gov = MemoryGovernor::new(1000);
        assert_eq!(gov.pressure(), Pressure::Normal);
        let _a = gov.try_reserve(700, None).expect("fits");
        assert_eq!(gov.pressure(), Pressure::Elevated);
        let _b = gov.try_reserve(200, None).expect("fits");
        assert_eq!(gov.pressure(), Pressure::Critical);
        drop(_b);
        assert_eq!(gov.pressure(), Pressure::Elevated);
    }

    #[test]
    fn reason_codes_are_stable() {
        assert_eq!(
            ReserveError::Exhausted {
                requested: 1,
                available: 0
            }
            .reason()
            .code(),
            "EXEC_MEM_RESERVATION"
        );
        assert_eq!(Reason::MemPressure.code(), "MEM_PRESSURE");
        assert_eq!(
            ReserveError::Canceled { deadline: true }.reason().code(),
            "REQ_DEADLINE"
        );
    }
}
