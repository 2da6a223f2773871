//! # cse-govern
//!
//! Resource governance and fault tolerance primitives shared by the
//! optimizer pipeline (`cse-core`) and the execution engine (`cse-exec`):
//!
//! - [`Budget`] / [`BudgetClock`]: a wall-clock deadline for the CSE
//!   optimization phase, one clock per request. Tripping it never fails a
//!   query — the pipeline returns the baseline no-CSE plan it computed
//!   before the phase.
//! - [`DegradationEvent`] / [`Reason`] / [`Rung`]: every downgrade, retry
//!   or recovery is reported as a structured event with a stable reason
//!   code, so operators can alert on fallback rates instead of parsing
//!   log strings.
//! - [`FailpointRegistry`]: a deterministic fault-injection registry seeded
//!   by the repo's xorshift testkit PRNG. Failpoints are armed only via
//!   explicit configuration (`qsql --fail` and `qserve --fail` parse the
//!   spec list with [`parse_fail_specs`]); a disabled registry is a single
//!   `Option` check, so release hot paths stay branch-cheap.
//! - [`MemoryGovernor`]: the one account for the bytes execution holds; a
//!   refused charge is an error the request's owner retries.
//! - [`lock`]: the poison-recovering lock the serving path takes every
//!   mutex through; debug builds count held guards so
//!   [`assert_no_lock_held`] can keep locks out of planning and execution.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

use cse_storage::testkit::TestRng;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

mod guard;
pub mod memory;
pub use guard::{assert_no_lock_held, lock, Held};
pub use memory::{MemReservation, MemScope, MemoryGovernor, Pressure, ReserveError};

/// Canonical failpoint site names. Sites are dynamic strings in the
/// registry (the `--fail` grammar allows anything), but injection code
/// should reference these constants.
pub mod sites {
    /// First materialization of a CSE spool work table.
    pub const SPOOL_MATERIALIZE: &str = "spool.materialize";
    /// Full table scan of a base table.
    pub const SCAN_TABLE: &str = "scan.table";
    /// B-tree index range scan, or an index nested-loops join's probes.
    pub const SCAN_INDEX: &str = "scan.index";
    /// Entry of the optimizer's CSE phase; a trip here *panics* on
    /// purpose, exercising the `catch_unwind` isolation of the phase.
    pub const OPT_CSE_PHASE: &str = "opt.cse-phase";
    /// A serving worker picking up a request (`cse-serve`); a trip here is
    /// a transient worker fault the server retries with backoff.
    pub const SERVE_WORKER: &str = "serve.worker";
    /// A memory-governor reservation or grant growth
    /// ([`crate::memory::MemoryGovernor`]); a trip here makes the grant
    /// appear exhausted, exercising the reservation-fault recovery path
    /// without needing a real budget squeeze.
    pub const MEM_RESERVE: &str = "mem.reserve";
    /// Appending a record to the durability write-ahead log
    /// (`cse-durable`); a trip crashes the simulated device before the
    /// frame is staged, possibly leaving a torn tail.
    pub const WAL_APPEND: &str = "wal.append";
    /// The fsync that makes staged WAL frames durable; a trip loses the
    /// unsynced suffix (fsync-loss fault).
    pub const WAL_FSYNC: &str = "wal.fsync";
    /// Writing a catalog snapshot; a trip crashes mid-snapshot, which must
    /// leave the previous snapshot + log intact (write-ahead invariant).
    pub const SNAPSHOT_WRITE: &str = "snapshot.write";
    /// Replaying one WAL record during recovery; a trip simulates a crash
    /// *during* recovery, which must itself be recoverable.
    pub const RECOVER_REPLAY: &str = "recover.replay";

    /// Every site with an injection hook in the codebase. The drift test in
    /// `tests/failpoint_drift.rs` arms each one and asserts it actually
    /// trips, so a site listed here without a live hook fails CI.
    pub const ALL: &[&str] = &[
        SPOOL_MATERIALIZE,
        SCAN_TABLE,
        SCAN_INDEX,
        OPT_CSE_PHASE,
        SERVE_WORKER,
        MEM_RESERVE,
        WAL_APPEND,
        WAL_FSYNC,
        SNAPSHOT_WRITE,
        RECOVER_REPLAY,
    ];

    /// Is `name` a known site?
    pub fn is_known(name: &str) -> bool {
        ALL.contains(&name)
    }
}

/// Where a plan comes from: the CSE phase, or the plan without it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Rung {
    /// Full CSE optimization: detection, Algorithm 1 with the configured
    /// heuristics, stacked candidates, full enumeration.
    #[default]
    FullCse,
    /// The baseline per-query plan with no covering subexpressions.
    Baseline,
}

impl Rung {
    /// Stable textual form (used in reports and JSON).
    pub fn as_str(&self) -> &'static str {
        match self {
            Rung::FullCse => "full-cse",
            Rung::Baseline => "baseline",
        }
    }
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a downgrade / recovery happened. Every variant maps to a stable
/// reason code via [`Reason::code`]; codes are part of the public contract
/// (tests, dashboards and serving replies key on them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Reason {
    /// The optimization wall-clock deadline expired.
    OptDeadline,
    /// The CSE phase panicked; `catch_unwind` isolated it.
    OptPanic,
    /// The baseline rung was forced at admission: an open breaker or
    /// `qsql --no-cse-fallback-only`.
    OptForced,
    /// A failpoint injected a fault during execution.
    ExecFaultInjected,
    /// The request's memory reservation grant could not be extended
    /// (global budget exhausted or the `mem.reserve` failpoint tripped).
    MemReservation,
    /// Global memory pressure started the request on the baseline rung.
    MemPressure,
    /// The client canceled the request through its token.
    ReqCanceled,
    /// The deadline of the token the work ran under expired (in the
    /// server, the attempt's deadline).
    ReqDeadline,
}

impl Reason {
    /// Stable reason code.
    pub fn code(&self) -> &'static str {
        match self {
            Reason::OptDeadline => "OPT_DEADLINE",
            Reason::OptPanic => "OPT_PANIC",
            Reason::OptForced => "OPT_FORCED",
            Reason::ExecFaultInjected => "EXEC_FAULT_INJECTED",
            Reason::MemReservation => "EXEC_MEM_RESERVATION",
            Reason::MemPressure => "MEM_PRESSURE",
            Reason::ReqCanceled => "REQ_CANCELED",
            Reason::ReqDeadline => "REQ_DEADLINE",
        }
    }

    /// Cancellation reasons abort the whole request rather than falling
    /// back: a canceled optimization must stop, not return the baseline.
    pub fn is_cancellation(&self) -> bool {
        matches!(self, Reason::ReqCanceled | Reason::ReqDeadline)
    }
}

impl fmt::Display for Reason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One structured downgrade record. Every downgrade goes from
/// [`Rung::FullCse`] to [`Rung::Baseline`], which [`fmt::Display`] prints.
#[derive(Debug, Clone)]
pub struct DegradationEvent {
    pub reason: Reason,
    /// Pipeline stage or execution site ("generation", "enumerate",
    /// "statement 2", "spool E0", ...).
    pub stage: String,
    pub detail: String,
}

impl DegradationEvent {
    /// The one downgrade there is, from `full-cse` to `baseline`: a lowered
    /// start, a tripped or panicked CSE phase, or a faulted execution
    /// planned again on the baseline rung.
    pub fn new(reason: Reason, stage: impl Into<String>, detail: impl Into<String>) -> Self {
        DegradationEvent {
            reason,
            stage: stage.into(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for DegradationEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}: {} -> {}: {}",
            self.reason.code(),
            self.stage,
            Rung::FullCse,
            Rung::Baseline,
            self.detail
        )
    }
}

/// Best-effort text of a caught panic's payload: the detail of an
/// [`Reason::OptPanic`] downgrade and of a worker-panic rejection.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A tripped budget or a cancellation, at which stage. The pipeline turns
/// a budget trip into a [`DegradationEvent`].
#[derive(Debug, Clone)]
pub struct BudgetTrip {
    pub reason: Reason,
    pub stage: &'static str,
    pub detail: String,
}

impl BudgetTrip {
    pub fn event(&self) -> DegradationEvent {
        DegradationEvent::new(self.reason, self.stage, self.detail.clone())
    }
}

/// Cooperative cancellation: one cancel flag per request plus an optional
/// deadline, checked at the optimizer's and the interpreter's loop
/// boundaries and while a reservation waits for memory.
///
/// Clones and [`CancelToken::with_deadline`] derivations share the *flag*:
/// a client holding the request's token cancels every attempt derived from
/// it, wherever that attempt is waiting. The token is plain data
/// (`Arc<AtomicBool>` + `Option<Instant>`), so it is `Send + Sync`,
/// unwind-safe, and free when never canceled.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never cancels (the default for unmanaged callers).
    pub fn never() -> Self {
        CancelToken::default()
    }

    /// A token sharing this one's flag, with a deadline `d` from now (no
    /// deadline for `None`). This token's own deadline is neither read nor
    /// changed.
    pub fn with_deadline(&self, d: Option<Duration>) -> Self {
        CancelToken {
            flag: Arc::clone(&self.flag),
            deadline: d.map(|d| Instant::now() + d),
        }
    }

    /// Request cancellation. Idempotent; observed by every token sharing
    /// the flag.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Trip if canceled or past the deadline: the one place that tells
    /// the two apart. The flag wins over the deadline, so a client cancel
    /// is reported as `REQ_CANCELED` even when the deadline has also
    /// passed by the time the loop checks. The no-trip path allocates
    /// nothing.
    pub fn check(&self, stage: &'static str) -> Result<(), BudgetTrip> {
        let (reason, detail) = if self.flag.load(Ordering::Acquire) {
            (Reason::ReqCanceled, "request canceled")
        } else if self.deadline.is_some_and(|d| Instant::now() >= d) {
            (Reason::ReqDeadline, "request deadline expired")
        } else {
            return Ok(());
        };
        Err(BudgetTrip {
            reason,
            stage,
            detail: detail.to_string(),
        })
    }
}

/// Optimization budget: an optional deadline; the default is unlimited
/// (the paper's configuration).
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Wall-clock limit for the *CSE phase* (the baseline plan is always
    /// computed first — it is the fallback).
    pub time_limit: Option<Duration>,
}

impl Budget {
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Budget with only a wall-clock deadline.
    pub fn with_time_ms(ms: u64) -> Self {
        Budget {
            time_limit: Some(Duration::from_millis(ms)),
        }
    }

    /// Start the clock: deadlines are measured from this call.
    pub fn start(&self) -> BudgetClock {
        self.start_with(&CancelToken::never())
    }

    /// Start the clock with a cancellation token: every `check_time` call
    /// in the optimizer hot loops then doubles as a cancellation point.
    pub fn start_with(&self, cancel: &CancelToken) -> BudgetClock {
        BudgetClock {
            deadline: self.time_limit.map(|d| Instant::now() + d),
            cancel: cancel.clone(),
        }
    }
}

/// A started budget: deadline instant plus the request's cancellation
/// token.
#[derive(Debug, Clone)]
pub struct BudgetClock {
    deadline: Option<Instant>,
    cancel: CancelToken,
}

impl BudgetClock {
    /// A clock that never trips (used by callers without a budget).
    pub fn unlimited() -> Self {
        BudgetClock {
            deadline: None,
            cancel: CancelToken::never(),
        }
    }

    /// Has the wall-clock deadline passed?
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Trip if the request was canceled or the budget deadline passed.
    /// Cancellation is checked first — it aborts the request outright
    /// (see [`Reason::is_cancellation`]) while a budget trip merely falls
    /// back to the baseline plan.
    pub fn check_time(&self, stage: &'static str) -> Result<(), BudgetTrip> {
        self.cancel.check(stage)?;
        if self.expired() {
            return Err(BudgetTrip {
                reason: Reason::OptDeadline,
                stage,
                detail: "optimization deadline expired".to_string(),
            });
        }
        Ok(())
    }
}

/// One armed failpoint: `site:probability[:seed]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FailSpec {
    pub site: String,
    pub probability: f64,
    pub seed: u64,
}

impl FailSpec {
    /// Parse `site:prob[:seed]` (e.g. `spool.materialize:1.0:42`).
    pub fn parse(s: &str) -> Result<FailSpec, String> {
        let mut parts = s.split(':');
        let site = parts
            .next()
            .filter(|p| !p.is_empty())
            .ok_or_else(|| format!("failpoint spec '{s}': missing site"))?;
        let prob: f64 = parts
            .next()
            .ok_or_else(|| format!("failpoint spec '{s}': missing probability"))?
            .parse()
            .map_err(|_| format!("failpoint spec '{s}': probability is not a number"))?;
        if !(0.0..=1.0).contains(&prob) {
            return Err(format!("failpoint spec '{s}': probability not in [0, 1]"));
        }
        let seed: u64 = match parts.next() {
            Some(v) => v
                .parse()
                .map_err(|_| format!("failpoint spec '{s}': seed is not an integer"))?,
            None => 0x5EED,
        };
        if parts.next().is_some() {
            return Err(format!("failpoint spec '{s}': too many fields"));
        }
        Ok(FailSpec {
            site: site.to_string(),
            probability: prob,
            seed,
        })
    }
}

/// Parse the full `--fail` grammar: comma-separated `site:prob[:seed]`
/// specs. Unknown site names are rejected with an error listing
/// [`sites::ALL`]: a site without a hook would arm nothing and silently
/// pass.
pub fn parse_fail_specs(raw: &str) -> Result<Vec<FailSpec>, String> {
    let mut specs = Vec::new();
    for part in raw.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let spec = FailSpec::parse(part)?;
        if !sites::is_known(&spec.site) {
            return Err(format!(
                "unknown failpoint site '{}'; known sites: {}",
                spec.site,
                sites::ALL.join(", ")
            ));
        }
        specs.push(spec);
    }
    Ok(specs)
}

/// Mutable state of one armed site.
#[derive(Debug)]
struct ArmedSite {
    probability: f64,
    rng: TestRng,
    evaluations: u64,
    trips: u64,
}

/// Deterministic fault-injection registry.
///
/// Disabled by default: `should_fail` on a disabled registry is a single
/// `Option::is_none` check, so production hot paths pay (almost) nothing.
/// Armed sites draw from a per-site xorshift64* PRNG ([`TestRng`]) with an
/// explicit seed, so a fixed seed matrix reproduces the exact same fault
/// schedule on every machine.
///
/// `Clone` *shares* the armed state (the map lives behind an `Arc`): every
/// configuration clone — per-request configs, per-worker configs in a
/// server — draws from one process-wide fault schedule instead of each
/// replaying the schedule from its seed.
#[derive(Debug, Default, Clone)]
pub struct FailpointRegistry {
    inner: Option<Arc<Mutex<BTreeMap<String, ArmedSite>>>>,
}

impl FailpointRegistry {
    /// The branch-cheap default: nothing armed.
    pub fn disabled() -> Self {
        FailpointRegistry::default()
    }

    /// Registry with the given failpoints armed.
    pub fn from_specs(specs: &[FailSpec]) -> Self {
        let mut reg = FailpointRegistry::disabled();
        for s in specs {
            reg.arm(s.clone());
        }
        reg
    }

    /// Arm (or re-arm) one site.
    pub fn arm(&mut self, spec: FailSpec) {
        let map = self
            .inner
            .get_or_insert_with(|| Arc::new(Mutex::new(BTreeMap::new())));
        let mut guard = map.lock().unwrap_or_else(|p| p.into_inner());
        guard.insert(
            spec.site,
            ArmedSite {
                probability: spec.probability,
                rng: TestRng::new(spec.seed),
                evaluations: 0,
                trips: 0,
            },
        );
    }

    /// Re-arm a site on a *shared* handle (e.g. a running server's
    /// registry). Returns false on a disabled registry — arming through a
    /// shared reference requires the map to exist already, so a registry
    /// explicitly built as disabled stays branch-cheap.
    pub fn rearm(&self, spec: FailSpec) -> bool {
        let Some(m) = &self.inner else {
            return false;
        };
        let mut guard = m.lock().unwrap_or_else(|p| p.into_inner());
        guard.insert(
            spec.site,
            ArmedSite {
                probability: spec.probability,
                rng: TestRng::new(spec.seed),
                evaluations: 0,
                trips: 0,
            },
        );
        true
    }

    /// Disarm one site on a shared handle; returns whether it was armed.
    pub fn disarm(&self, site: &str) -> bool {
        let Some(m) = &self.inner else {
            return false;
        };
        let mut guard = m.lock().unwrap_or_else(|p| p.into_inner());
        guard.remove(site).is_some()
    }

    /// Should the given site fail now? Draws from the site's PRNG (and
    /// advances it), so repeated evaluations follow the seeded schedule.
    pub fn should_fail(&self, site: &str) -> bool {
        let Some(m) = &self.inner else {
            return false;
        };
        let mut guard = m.lock().unwrap_or_else(|p| p.into_inner());
        let Some(armed) = guard.get_mut(site) else {
            return false;
        };
        armed.evaluations += 1;
        let trip = if armed.probability >= 1.0 {
            true
        } else if armed.probability <= 0.0 {
            false
        } else {
            armed.rng.chance(armed.probability)
        };
        if trip {
            armed.trips += 1;
        }
        trip
    }

    /// Per-site (evaluations, trips) counters, for reports.
    pub fn counters(&self) -> BTreeMap<String, (u64, u64)> {
        match &self.inner {
            None => BTreeMap::new(),
            Some(m) => {
                let guard = m.lock().unwrap_or_else(|p| p.into_inner());
                guard
                    .iter()
                    .map(|(k, v)| (k.clone(), (v.evaluations, v.trips)))
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_never_fails() {
        let reg = FailpointRegistry::disabled();
        for site in sites::ALL {
            assert!(!reg.should_fail(site));
        }
    }

    #[test]
    fn probability_one_always_trips_and_zero_never() {
        let reg = FailpointRegistry::from_specs(&[
            FailSpec {
                site: sites::SCAN_TABLE.to_string(),
                probability: 1.0,
                seed: 1,
            },
            FailSpec {
                site: sites::SCAN_INDEX.to_string(),
                probability: 0.0,
                seed: 1,
            },
        ]);
        for _ in 0..50 {
            assert!(reg.should_fail(sites::SCAN_TABLE));
            assert!(!reg.should_fail(sites::SCAN_INDEX));
        }
        let counters = reg.counters();
        assert_eq!(counters[sites::SCAN_TABLE], (50, 50));
        assert_eq!(counters[sites::SCAN_INDEX], (50, 0));
    }

    #[test]
    fn seeded_schedule_is_deterministic() {
        let draw = |seed: u64| -> Vec<bool> {
            let reg = FailpointRegistry::from_specs(&[FailSpec {
                site: sites::SPOOL_MATERIALIZE.to_string(),
                probability: 0.5,
                seed,
            }]);
            (0..64)
                .map(|_| reg.should_fail(sites::SPOOL_MATERIALIZE))
                .collect()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43), "different seeds diverge");
        let hits = draw(42).iter().filter(|&&b| b).count();
        assert!((10..=54).contains(&hits), "p=0.5 should trip roughly half");
    }

    #[test]
    fn spec_parsing() {
        let s = FailSpec::parse("spool.materialize:0.5:7").unwrap();
        assert_eq!(s.site, "spool.materialize");
        assert_eq!(s.probability, 0.5);
        assert_eq!(s.seed, 7);
        let s = FailSpec::parse("scan.table:1.0").unwrap();
        assert_eq!(s.seed, 0x5EED);
        assert!(FailSpec::parse("bad").is_err());
        assert!(FailSpec::parse("x:2.0").is_err());
        assert!(FailSpec::parse(":0.5").is_err());
        assert!(FailSpec::parse("x:0.5:1:9").is_err());
    }

    #[test]
    fn budget_zero_deadline_trips_immediately() {
        let clock = Budget::with_time_ms(0).start();
        assert!(clock.expired());
        let trip = clock.check_time("cse-phase").unwrap_err();
        assert_eq!(trip.reason, Reason::OptDeadline);
        let ev = trip.event();
        assert_eq!(ev.reason.code(), "OPT_DEADLINE");
        assert!(ev.to_string().contains("-> baseline:"), "{ev}");
    }

    #[test]
    fn unlimited_budget_never_trips() {
        let clock = Budget::unlimited().start();
        assert!(!clock.expired());
        assert!(clock.check_time("x").is_ok());
    }

    #[test]
    fn rung_ladder_order() {
        assert!(Rung::FullCse < Rung::Baseline);
    }

    #[test]
    fn cancel_token_explicit_and_deadline() {
        let t = CancelToken::never();
        assert!(t.check("x").is_ok());
        let client_handle = t.clone();
        client_handle.cancel();
        assert_eq!(
            t.check("x").unwrap_err().reason,
            Reason::ReqCanceled,
            "flag is shared across clones"
        );

        let t = CancelToken::never().with_deadline(Some(Duration::from_millis(0)));
        assert_eq!(t.check("x").unwrap_err().reason, Reason::ReqDeadline);
    }

    #[test]
    fn derived_tokens_share_the_flag_not_the_deadline() {
        let request = CancelToken::never();
        let expired = request.with_deadline(Some(Duration::ZERO));
        let open = request.with_deadline(Some(Duration::from_secs(3600)));
        let unbounded = request.with_deadline(None);
        // A derived deadline expires only the derived token: not the
        // request token, and not a sibling derived from it.
        assert_eq!(expired.check("x").unwrap_err().reason, Reason::ReqDeadline);
        assert!(request.check("x").is_ok(), "request token has no deadline");
        assert!(open.check("x").is_ok(), "sibling keeps its own deadline");
        assert!(unbounded.check("x").is_ok());
        // A cancel on the request token reaches every derived token.
        request.cancel();
        for t in [&request, &expired, &open, &unbounded] {
            assert_eq!(t.check("x").unwrap_err().reason, Reason::ReqCanceled);
        }
    }

    #[test]
    fn budget_clock_reports_cancellation_before_deadline() {
        let cancel = CancelToken::never();
        let clock = Budget::with_time_ms(0).start_with(&cancel);
        // Deadline expired but not canceled: an ordinary budget trip.
        assert_eq!(
            clock.check_time("x").unwrap_err().reason,
            Reason::OptDeadline
        );
        cancel.cancel();
        let trip = clock.check_time("x").unwrap_err();
        assert_eq!(trip.reason, Reason::ReqCanceled);
        assert!(trip.reason.is_cancellation());
        assert!(!Reason::OptDeadline.is_cancellation());
    }

    #[test]
    fn clones_share_the_fault_schedule() {
        let mut reg = FailpointRegistry::disabled();
        reg.arm(FailSpec {
            site: sites::SCAN_TABLE.to_string(),
            probability: 0.5,
            seed: 42,
        });
        let shared = reg.clone();
        for _ in 0..32 {
            reg.should_fail(sites::SCAN_TABLE);
        }
        // The clone drew nothing itself, but its schedule advanced with the
        // original.
        assert_eq!(
            shared.counters()[sites::SCAN_TABLE].0,
            32,
            "clone shares counters"
        );
    }

    #[test]
    fn rearm_and_disarm_on_shared_handles() {
        let mut reg = FailpointRegistry::disabled();
        assert!(!reg.rearm(FailSpec {
            site: sites::SCAN_TABLE.to_string(),
            probability: 1.0,
            seed: 1,
        }));
        reg.arm(FailSpec {
            site: sites::SCAN_TABLE.to_string(),
            probability: 1.0,
            seed: 1,
        });
        let handle = reg.clone();
        assert!(handle.disarm(sites::SCAN_TABLE));
        assert!(!reg.should_fail(sites::SCAN_TABLE));
        assert!(handle.rearm(FailSpec {
            site: sites::SCAN_INDEX.to_string(),
            probability: 1.0,
            seed: 1,
        }));
        assert!(reg.should_fail(sites::SCAN_INDEX));
    }

    #[test]
    fn fail_grammar_rejects_unknown_sites() {
        let specs = parse_fail_specs("spool.materialize:1.0, scan.table:0.5:7").unwrap();
        assert_eq!(specs.len(), 2);
        let err = parse_fail_specs("spool.materialze:1.0").unwrap_err();
        assert!(err.contains("unknown failpoint site"), "{err}");
        for site in sites::ALL {
            assert!(err.contains(site), "error must list {site}: {err}");
        }
        assert!(parse_fail_specs("scan.table:2.0").is_err());
        assert!(parse_fail_specs("scan.table:nope").is_err());
        assert!(parse_fail_specs("").unwrap().is_empty());
    }

    #[test]
    fn event_rendering_is_stable() {
        let ev = DegradationEvent::new(Reason::MemReservation, "statement 1", "refused");
        let text = ev.to_string();
        assert!(text.contains("[EXEC_MEM_RESERVATION]"));
        assert!(text.contains("statement 1"));
        assert!(text.contains("full-cse -> baseline"));
    }

    #[test]
    fn deadline_exactly_now_counts_as_expired() {
        // The boundary is inclusive (`now >= deadline`): a zero-duration
        // deadline is expired at the instant it is minted, with no window
        // in which an attempt could sneak past it.
        let t = CancelToken::never().with_deadline(Some(Duration::ZERO));
        let trip = t.check("boundary").expect_err("zero deadline trips");
        assert_eq!(trip.reason, Reason::ReqDeadline);
    }

    #[test]
    fn cancel_then_deadline_classifies_as_canceled() {
        // Explicit cancel happens first, deadline expires afterwards: the
        // explicit flag must win classification (REQ_CANCELED), matching
        // the serve layer's terminal-outcome rules.
        let t = CancelToken::never().with_deadline(Some(Duration::ZERO));
        t.cancel();
        let trip = t.check("both-tripped").expect_err("canceled");
        assert_eq!(trip.reason, Reason::ReqCanceled, "explicit cancel wins");
    }

    #[test]
    fn deadline_then_cancel_reclassifies_on_the_next_check() {
        // Deadline expires first and is observed as REQ_DEADLINE; a later
        // explicit cancel flips subsequent checks to REQ_CANCELED — the
        // flag dominates regardless of event order, so retry classification
        // never races the client's cancel.
        let t = CancelToken::never().with_deadline(Some(Duration::ZERO));
        let first = t.check("pre-cancel").expect_err("deadline expired");
        assert_eq!(first.reason, Reason::ReqDeadline);
        t.cancel();
        let second = t.check("post-cancel").expect_err("now canceled");
        assert_eq!(second.reason, Reason::ReqCanceled);
    }

    #[test]
    fn poisoned_registry_lock_recovers() {
        let reg = FailpointRegistry::from_specs(&[FailSpec {
            site: sites::SCAN_TABLE.to_string(),
            probability: 1.0,
            seed: 1,
        }]);
        // Poison the registry's mutex: panic while holding the guard on
        // another thread (tests live in the same module, so the private
        // `inner` field is reachable).
        let map = Arc::clone(reg.inner.as_ref().expect("armed registry has a map"));
        let _ = std::thread::spawn(move || {
            let _guard = map.lock().expect("first locker sees no poison");
            panic!("poison the failpoint registry");
        })
        .join();
        // Every shared-handle operation recovers instead of wedging the
        // fault schedule for all workers.
        assert!(reg.should_fail(sites::SCAN_TABLE), "p=1.0 still trips");
        assert!(reg.disarm(sites::SCAN_TABLE));
        assert!(!reg.should_fail(sites::SCAN_TABLE));
        assert!(reg.rearm(FailSpec {
            site: sites::SCAN_TABLE.to_string(),
            probability: 0.0,
            seed: 2,
        }));
        assert_eq!(reg.counters()[sites::SCAN_TABLE], (0, 0), "rearm resets");
    }
}
