//! The batch server: N worker threads over one shared catalog.
//!
//! Life of a request:
//!
//! 1. [`Server::submit`] assigns an id, wraps the SQL in a `Request` with
//!    the request's [`CancelToken`] (one cancel flag, no deadline; the
//!    [`Ticket`] holds a clone) and pushes it onto the bounded admission
//!    queue. A full queue either sheds (`SHED_QUEUE_FULL`,
//!    [`AdmitPolicy::Shed`]) or blocks the submitter ([`AdmitPolicy::Block`]).
//! 2. A worker pops the request and runs up to `1 + max_retries` attempts.
//!    Each attempt runs under the request's token with a fresh deadline
//!    ([`CancelToken::with_deadline`]): the same flag, so a client cancel
//!    reaches the attempt wherever it polls — planning, execution, or a
//!    reservation parked for memory — and a runaway attempt is stopped
//!    cooperatively at its next poll point; the worker thread survives.
//!    The server starts no thread but its workers.
//! 3. Before planning, the breaker decides the attempt's [`Admission`]:
//!    `Full` runs the whole CSE phase (and reports its downgrade bit back),
//!    `BaselineOnly` forces the baseline rung, `Probe` runs full CSE and
//!    reports health; memory pressure may lower the starting rung too. The
//!    server records why it lowered it as the reply's first event, since
//!    the pipeline reports nothing for the rung it is given. Planning +
//!    execution then run under the session pipeline; the executor returns
//!    its first fault, and this loop is the one place a request is retried.
//! 4. Transient failures (injected faults, refused reservations, expired
//!    attempt deadlines, `serve.worker` trips) are retried as a new attempt
//!    after a deterministic jittered backoff; everything else — and
//!    exhausted retries — becomes a structured [`Rejection`]. Success becomes a
//!    [`BatchReply`]. Either way the submitter's [`Ticket`] resolves:
//!    every request reaches exactly one terminal outcome.
//!
//! A worker that panics mid-request (an optimizer or engine bug outside
//! the pipeline's own `catch_unwind`) converts the panic into an
//! `EXEC_INTERNAL` rejection and keeps serving.

use crate::breaker::{Admission, Breaker, BreakerConfig, BreakerSnapshot};
use crate::queue::{BoundedQueue, PushError};
use cse_core::CseConfig;
use cse_exec::{Engine, ExecCtx, ExecError, ExecMetrics, ResultSet};
use cse_govern::{
    assert_no_lock_held, panic_message, sites, CancelToken, DegradationEvent, FailpointRegistry,
    MemoryGovernor, Pressure, Reason, ReserveError, Rung,
};
use cse_storage::testkit::TestRng;
use cse_storage::Catalog;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What to do when the admission queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitPolicy {
    /// Refuse immediately with `SHED_QUEUE_FULL` (load shedding).
    Shed,
    /// Block the submitting thread until there is room (backpressure).
    Block,
}

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (each one independent optimizer + engine state).
    pub workers: usize,
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    pub admit: AdmitPolicy,
    /// Per-*attempt* deadline. `None` runs attempts without one (client
    /// cancels still work).
    pub deadline: Option<Duration>,
    /// Retries after the first attempt; transient failures only.
    pub max_retries: u32,
    /// Base backoff; attempt `n` waits `base · 2^(n-1) · jitter`.
    pub retry_backoff: Duration,
    pub breaker: BreakerConfig,
    /// Global memory budget shared by all in-flight requests. `None`
    /// disables memory governance (the single-session behaviour). With a
    /// budget set, every attempt takes a [`MemReservation`](cse_govern::MemReservation) before
    /// planning; Critical pool pressure sheds new admissions with
    /// `SHED_MEMORY`, and from Elevated pressure up a request is planned
    /// on the baseline rung.
    pub mem_budget: Option<usize>,
    /// Initial per-request reservation grant (grows on demand in
    /// [`cse_govern::memory::GRANT_CHUNK`] steps).
    pub mem_grant: usize,
    /// Base optimizer configuration. Its failpoint registry is shared
    /// across all workers (one process-wide fault schedule); its cancel
    /// token is replaced per attempt.
    pub cse: CseConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            admit: AdmitPolicy::Shed,
            deadline: None,
            max_retries: 2,
            retry_backoff: Duration::from_millis(1),
            breaker: BreakerConfig::default(),
            mem_budget: None,
            mem_grant: 1 << 20,
            cse: CseConfig::default(),
        }
    }
}

/// Stable rejection reason codes — the serving layer's error ABI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Admission queue full under [`AdmitPolicy::Shed`].
    ShedQueueFull,
    /// Submitted after [`Server::drain`] closed the queue.
    ShedShutdown,
    /// Shed for memory: admission refused at Critical pool pressure, or a
    /// request's reservation could not be taken/grown and retries were
    /// exhausted.
    ShedMemory,
    /// Attempt deadline expired, retries exhausted.
    ReqDeadline,
    /// The client canceled via [`Ticket::cancel`].
    ReqCanceled,
    /// Transient execution fault, retries exhausted.
    ExecFault,
    /// Planning failed deterministically (parse/bind/lint/verify).
    PlanRejected,
    /// Worker-side bug: a panic outside the pipeline's own isolation, or
    /// a non-recoverable engine error.
    ExecInternal,
}

impl RejectReason {
    pub fn code(&self) -> &'static str {
        match self {
            RejectReason::ShedQueueFull => "SHED_QUEUE_FULL",
            RejectReason::ShedShutdown => "SHED_SHUTDOWN",
            RejectReason::ShedMemory => "SHED_MEMORY",
            RejectReason::ReqDeadline => "REQ_DEADLINE",
            RejectReason::ReqCanceled => "REQ_CANCELED",
            RejectReason::ExecFault => "EXEC_FAULT",
            RejectReason::PlanRejected => "PLAN_REJECTED",
            RejectReason::ExecInternal => "EXEC_INTERNAL",
        }
    }
}

/// A structured rejection: reason code + human detail + attempt count.
#[derive(Debug, Clone)]
pub struct Rejection {
    pub id: u64,
    pub reason: RejectReason,
    pub detail: String,
    /// Retries performed before giving up (0 for shed/immediate).
    pub retries: u32,
}

/// A successfully served batch.
#[derive(Debug)]
pub struct BatchReply {
    pub id: u64,
    pub results: Vec<ResultSet>,
    pub metrics: ExecMetrics,
    /// The rung the plan was produced on.
    pub rung: Rung,
    /// Planning + execution degradations, in order.
    pub events: Vec<DegradationEvent>,
    /// How the breaker admitted the successful attempt.
    pub admission: Admission,
    pub retries: u32,
    /// Submit-to-reply wall clock.
    pub latency: Duration,
}

/// Terminal outcome of a request.
#[derive(Debug)]
pub enum Outcome {
    Done(BatchReply),
    Rejected(Rejection),
}

impl Outcome {
    pub fn is_done(&self) -> bool {
        matches!(self, Outcome::Done(_))
    }
}

/// Handle returned by [`Server::submit`].
pub struct Ticket {
    pub id: u64,
    rx: mpsc::Receiver<Outcome>,
    token: CancelToken,
}

impl Ticket {
    /// Block until the request reaches its terminal outcome.
    pub fn wait(self) -> Outcome {
        self.rx.recv().unwrap_or_else(|_| {
            // The worker dropped the reply channel without sending — only
            // possible if a worker thread died outright, which the
            // catch_unwind in the worker loop is there to prevent.
            Outcome::Rejected(Rejection {
                id: self.id,
                reason: RejectReason::ExecInternal,
                detail: "reply channel closed without an outcome".into(),
                retries: 0,
            })
        })
    }

    /// Cooperatively cancel the request. Queued requests are rejected when
    /// a worker picks them up; a running attempt shares this token's flag
    /// and stops at its next poll point, including a reservation waiting
    /// for memory.
    pub fn cancel(&self) {
        self.token.cancel();
    }
}

struct Request {
    id: u64,
    sql: String,
    /// The request's token: the cancel flag, no deadline. Each attempt
    /// derives its token from it with a fresh deadline.
    token: CancelToken,
    deadline: Option<Duration>,
    submitted: Instant,
    /// Bounded (capacity 1): exactly one terminal outcome is ever sent per
    /// request, so the send never blocks and the channel never grows.
    reply: mpsc::SyncSender<Outcome>,
}

/// A lock-free statistics counter. Relaxed is sufficient: each counter is
/// an independent monotonic tally, never used to establish happens-before
/// with any other memory — snapshots are explicitly racy totals.
#[derive(Debug, Default)]
struct Counter(AtomicU64);

impl Counter {
    fn bump(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Server counters: independent atomic counters, so recording a request
/// takes no lock on its hot path.
#[derive(Debug, Default)]
struct Stats {
    submitted: Counter,
    completed: Counter,
    degraded: Counter,
    rejected: Counter,
    shed: Counter,
    retries: Counter,
    canceled: Counter,
    deadline_expired: Counter,
    exec_faults: Counter,
    worker_panics: Counter,
    shed_memory: Counter,
}

/// Counter snapshot ([`Server::stats`]).
#[derive(Debug, Clone)]
pub struct ServerStats {
    pub submitted: u64,
    /// Requests that completed with a [`BatchReply`].
    pub completed: u64,
    /// Completed requests whose plan came off a lower rung or that carry
    /// degradation events.
    pub degraded: u64,
    /// Requests rejected for any reason (includes shed).
    pub rejected: u64,
    /// Rejections with `SHED_QUEUE_FULL` / `SHED_SHUTDOWN`.
    pub shed: u64,
    /// Total retry attempts across all requests.
    pub retries: u64,
    /// Terminal `REQ_CANCELED` rejections.
    pub canceled: u64,
    /// Terminal `REQ_DEADLINE` rejections.
    pub deadline_expired: u64,
    /// Terminal `EXEC_FAULT` rejections.
    pub exec_faults: u64,
    /// Panics converted into `EXEC_INTERNAL` rejections.
    pub worker_panics: u64,
    /// Terminal `SHED_MEMORY` rejections (admission-time pressure sheds
    /// plus exhausted-reservation rejections).
    pub shed_memory: u64,
    pub breaker: BreakerSnapshot,
}

/// Seed for the deterministic backoff jitter (testkit PRNG, mixed with the
/// request id so concurrent requests do not share a schedule).
const RETRY_SEED: u64 = 42;

struct Shared {
    catalog: Arc<Catalog>,
    cfg: ServerConfig,
    breaker: Breaker,
    stats: Stats,
    /// The global memory pool (`None` = memory governance off).
    governor: Option<MemoryGovernor>,
}

/// The batch server. See the module docs for the request life cycle.
pub struct Server {
    shared: Arc<Shared>,
    queue: Arc<BoundedQueue<Request>>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
    /// Runs exactly once inside [`Server::drain`], after the workers have
    /// quiesced. The embedder (qserve) uses it to flush durable state —
    /// the server itself stays ignorant of the durability layer.
    drain_hook: Option<Box<dyn FnMut() + Send>>,
}

impl Server {
    #[expect(
        clippy::expect_used,
        reason = "a thread spawn fails only when the OS is out of threads or memory at server start, before any request exists to reject"
    )]
    pub fn new(catalog: Arc<Catalog>, cfg: ServerConfig) -> Self {
        let queue = Arc::new(BoundedQueue::new(cfg.queue_capacity));
        let breaker = Breaker::new(cfg.breaker.clone());
        let workers_n = cfg.workers.max(1);
        let governor = cfg.mem_budget.map(MemoryGovernor::new);
        let shared = Arc::new(Shared {
            catalog,
            cfg,
            breaker,
            stats: Stats::default(),
            governor,
        });
        let workers = (0..workers_n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("cse-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &queue))
                    .expect("spawn worker thread")
            })
            .collect();
        Server {
            shared,
            queue,
            workers,
            next_id: AtomicU64::new(1),
            drain_hook: None,
        }
    }

    /// Register a callback to run once during [`Server::drain`], after
    /// the workers have quiesced (e.g. flush a write-ahead log).
    pub fn set_drain_hook(&mut self, hook: Box<dyn FnMut() + Send>) {
        self.drain_hook = Some(hook);
    }

    /// Submit a SQL batch under the configured default deadline.
    pub fn submit(&self, sql: &str) -> Result<Ticket, Rejection> {
        self.submit_with_deadline(sql, self.shared.cfg.deadline)
    }

    /// Allocate the next request id. Relaxed suffices: the counter only
    /// needs uniqueness/monotonicity, not ordering against other memory.
    fn next_request_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Submit with an explicit per-attempt deadline override.
    pub fn submit_with_deadline(
        &self,
        sql: &str,
        deadline: Option<Duration>,
    ) -> Result<Ticket, Rejection> {
        let id = self.next_request_id();
        self.shared.stats.submitted.bump();
        // Memory admission control: at Critical pool pressure, queueing
        // more work only deepens the hole — shed at the door with a stable
        // code so clients know to back off.
        if let Some(gov) = &self.shared.governor {
            if gov.pressure() == Pressure::Critical {
                self.shared.stats.rejected.bump();
                self.shared.stats.shed.bump();
                self.shared.stats.shed_memory.bump();
                return Err(Rejection {
                    id,
                    reason: RejectReason::ShedMemory,
                    detail: format!(
                        "admission refused: memory pool at critical pressure ({} of {} bytes reserved)",
                        gov.reserved(),
                        gov.budget()
                    ),
                    retries: 0,
                });
            }
        }
        let token = CancelToken::never();
        // Capacity 1 is exact, not an optimization: the worker sends one
        // outcome and drops the sender, so a bounded rendezvous slot is
        // all a ticket ever needs.
        let (tx, rx) = mpsc::sync_channel(1);
        let req = Request {
            id,
            sql: sql.to_string(),
            token: token.clone(),
            deadline,
            submitted: Instant::now(),
            reply: tx,
        };
        let pushed = match self.shared.cfg.admit {
            AdmitPolicy::Shed => self.queue.try_push(req),
            AdmitPolicy::Block => self.queue.push_blocking(req),
        };
        match pushed {
            Ok(()) => Ok(Ticket { id, rx, token }),
            Err(e) => {
                let reason = match e {
                    PushError::Full(_) => RejectReason::ShedQueueFull,
                    PushError::Closed(_) => RejectReason::ShedShutdown,
                };
                self.shared.stats.rejected.bump();
                self.shared.stats.shed.bump();
                Err(Rejection {
                    id,
                    reason,
                    detail: format!("admission refused: {}", reason.code()),
                    retries: 0,
                })
            }
        }
    }

    /// The process-wide failpoint schedule (shared handle: `rearm` /
    /// `disarm` here take effect in every worker immediately).
    pub fn failpoints(&self) -> FailpointRegistry {
        self.shared.cfg.cse.failpoints.clone()
    }

    pub fn breaker(&self) -> &Breaker {
        &self.shared.breaker
    }

    /// The global memory governor, if [`ServerConfig::mem_budget`] is set.
    pub fn memory_governor(&self) -> Option<&MemoryGovernor> {
        self.shared.governor.as_ref()
    }

    pub fn stats(&self) -> ServerStats {
        let breaker = self.shared.breaker.snapshot();
        let s = &self.shared.stats;
        ServerStats {
            submitted: s.submitted.get(),
            completed: s.completed.get(),
            degraded: s.degraded.get(),
            rejected: s.rejected.get(),
            shed: s.shed.get(),
            retries: s.retries.get(),
            canceled: s.canceled.get(),
            deadline_expired: s.deadline_expired.get(),
            exec_faults: s.exec_faults.get(),
            worker_panics: s.worker_panics.get(),
            shed_memory: s.shed_memory.get(),
            breaker,
        }
    }

    /// Stop admissions, finish everything already queued, join the
    /// workers, and return the final counters. Idempotent; submissions
    /// racing with the close are rejected `SHED_SHUTDOWN`.
    pub fn drain(&mut self) -> ServerStats {
        self.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(mut hook) = self.drain_hook.take() {
            hook();
        }
        self.stats()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
    }
}

fn worker_loop(shared: &Shared, queue: &BoundedQueue<Request>) {
    while let Some(req) = queue.pop() {
        // A panic anywhere in the attempt (outside the pipeline's own
        // catch_unwind) must not kill the worker: convert it into a
        // structured rejection and keep serving.
        //
        // Unwind safety: `process` mutates nothing that outlives it except
        // the shared counters (independent atomics) and the breaker, whose
        // transitions are single-lock atomic.
        let outcome = match catch_unwind(AssertUnwindSafe(|| process(shared, &req))) {
            Ok(outcome) => outcome,
            Err(payload) => {
                shared.stats.worker_panics.bump();
                Outcome::Rejected(Rejection {
                    id: req.id,
                    reason: RejectReason::ExecInternal,
                    detail: format!("worker panic: {}", panic_message(payload.as_ref())),
                    retries: 0,
                })
            }
        };
        let s = &shared.stats;
        match &outcome {
            Outcome::Done(reply) => {
                s.completed.bump();
                if reply.rung != Rung::FullCse || !reply.events.is_empty() {
                    s.degraded.bump();
                }
                s.retries.add(u64::from(reply.retries));
            }
            Outcome::Rejected(rej) => {
                s.rejected.bump();
                s.retries.add(u64::from(rej.retries));
                match rej.reason {
                    RejectReason::ReqCanceled => s.canceled.bump(),
                    RejectReason::ReqDeadline => s.deadline_expired.bump(),
                    RejectReason::ExecFault => s.exec_faults.bump(),
                    RejectReason::ShedMemory => s.shed_memory.bump(),
                    _ => {}
                }
            }
        }
        // The submitter may have dropped the ticket; that is not an error.
        let _ = req.reply.send(outcome);
    }
}

/// How one attempt ended, before retry policy is applied.
enum AttemptEnd {
    Done(Box<BatchReply>),
    /// Transient: worth retrying (fault, refused memory, expired deadline).
    Transient(RejectReason, String),
    /// Terminal: retrying cannot help (client cancel, plan bug, engine bug).
    Terminal(RejectReason, String),
}

fn process(shared: &Shared, req: &Request) -> Outcome {
    let max_attempts = 1 + shared.cfg.max_retries;
    // Deterministic jitter: one PRNG per request, seeded from the server
    // seed and the request id, so a replay with the same ids sleeps the
    // same schedule regardless of worker interleaving.
    let mut rng = TestRng::new(RETRY_SEED ^ req.id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        match run_attempt(shared, req, attempt) {
            AttemptEnd::Done(reply) => return Outcome::Done(*reply),
            AttemptEnd::Terminal(reason, detail) => {
                return Outcome::Rejected(Rejection {
                    id: req.id,
                    reason,
                    detail,
                    retries: attempt - 1,
                })
            }
            AttemptEnd::Transient(reason, detail) => {
                if attempt >= max_attempts {
                    return Outcome::Rejected(Rejection {
                        id: req.id,
                        reason,
                        detail: format!("retries exhausted ({}): {detail}", attempt - 1),
                        retries: attempt - 1,
                    });
                }
                let exp = 1u32 << (attempt - 1).min(8);
                let jitter = 0.5 + rng.range_f64(0.0, 1.0);
                let backoff = shared.cfg.retry_backoff.mul_f64(f64::from(exp) * jitter);
                std::thread::sleep(backoff);
            }
        }
    }
}

fn run_attempt(shared: &Shared, req: &Request, attempt: u32) -> AttemptEnd {
    // A request canceled while queued (or between attempts) stops here —
    // no planning work on behalf of a gone client. The request's token has
    // no deadline, so only a cancel trips it.
    if req.token.check("admission").is_err() {
        return AttemptEnd::Terminal(
            RejectReason::ReqCanceled,
            "canceled before the attempt started".into(),
        );
    }
    // The serving layer's own failpoint: a transient worker-side fault
    // (think: scratch-space allocation failure) before any planning work.
    if shared.cfg.cse.failpoints.should_fail(sites::SERVE_WORKER) {
        return AttemptEnd::Transient(
            RejectReason::ExecFault,
            format!("injected fault at {}", sites::SERVE_WORKER),
        );
    }

    // The request's flag with a fresh deadline: a client cancel reaches
    // every poll point of this attempt, and an earlier attempt's expired
    // deadline does not carry over.
    let token = req.token.with_deadline(req.deadline);

    // Take the attempt's memory grant before any planning work. Under
    // shed admission a full pool refuses immediately (the retry loop's
    // backoff gives releases time to land); under block admission the
    // reserve parks until room frees up or the token trips.
    let reservation = match &shared.governor {
        Some(gov) => {
            let grant = shared.cfg.mem_grant.min(gov.budget());
            let fp = Some(&shared.cfg.cse.failpoints);
            let taken = match shared.cfg.admit {
                AdmitPolicy::Shed => gov.try_reserve(grant, fp),
                AdmitPolicy::Block => gov.reserve_blocking(grant, fp, &token),
            };
            match taken {
                Ok(r) => Some(r),
                Err(ReserveError::Canceled { .. }) => return cancellation_end(&token),
                Err(e) => {
                    return AttemptEnd::Transient(
                        RejectReason::ShedMemory,
                        format!("memory reservation refused: {e}"),
                    )
                }
            }
        }
        None => None,
    };

    let admission = shared.breaker.admit();
    let mut cfg = shared.cfg.cse.clone();
    cfg.cancel = token.clone();
    // Where the request starts is decided here, and reported here: an open
    // breaker forces the baseline rung, so clients see they were served
    // under it (OPT_FORCED); under Elevated or Critical memory pressure the
    // plan holds no spools (MEM_PRESSURE) — sharing is only a win when the
    // materialization resource exists. A probe is exempt: it must run the
    // CSE phase to measure health, and its `record_probe` must not be
    // skewed by the pool's state.
    let lowered = match admission {
        Admission::BaselineOnly => Some((Reason::OptForced, "open breaker".to_string())),
        Admission::Probe => None,
        Admission::Full => shared
            .governor
            .as_ref()
            .map(MemoryGovernor::pressure)
            .filter(|p| *p >= Pressure::Elevated)
            .map(|p| (Reason::MemPressure, format!("{p} memory pressure"))),
    };
    let admitted = lowered
        .filter(|_| cfg.start_rung != Rung::Baseline)
        .map(|(reason, why)| {
            cfg.start_rung = Rung::Baseline;
            let detail = format!("{why} lowered the starting rung to baseline");
            DegradationEvent::new(reason, "admission", detail)
        });

    assert_no_lock_held("planning");
    let optimized = match cse_core::optimize_sql(&shared.catalog, &req.sql, &cfg) {
        Ok(o) => o,
        Err(msg) => {
            if admission == Admission::Probe {
                shared.breaker.record_probe(false);
            }
            return classify_plan_failure(&token, msg);
        }
    };
    // Breaker bookkeeping happens on planning success, before execution:
    // the breaker tracks CSE-*phase* health, and execution faults have
    // their own retry channel. A memory-forced downgrade says nothing
    // about CSE-phase health, so it stays out of the breaker's window.
    match admission {
        Admission::Full if admitted.is_none() => shared
            .breaker
            .record(optimized.report.rung != Rung::FullCse),
        Admission::Probe => shared
            .breaker
            .record_probe(optimized.report.rung == Rung::FullCse),
        _ => {}
    }

    assert_no_lock_held("execution");
    let engine = Engine::new(&shared.catalog, &optimized.ctx);
    let run = engine.execute_in(
        &optimized.plan,
        &ExecCtx {
            failpoints: cfg.failpoints.clone(),
            cancel: token.clone(),
            reservation: reservation.as_ref(),
        },
    );
    match run {
        Ok(out) => {
            let mut events: Vec<DegradationEvent> = admitted.into_iter().collect();
            events.extend(optimized.report.degradations.iter().cloned());
            AttemptEnd::Done(Box::new(BatchReply {
                id: req.id,
                results: out.results,
                metrics: out.metrics,
                rung: optimized.report.rung,
                events,
                admission,
                retries: attempt - 1,
                latency: req.submitted.elapsed(),
            }))
        }
        Err(ExecError::Canceled { .. }) => cancellation_end(&token),
        Err(e @ ExecError::MemReservation { .. }) => {
            // Transient: by the retry's backoff other requests have released.
            AttemptEnd::Transient(RejectReason::ShedMemory, e.to_string())
        }
        // An injected `mem.reserve` fault simulates a refused grant, so it
        // terminalizes the same way a real one does.
        Err(ref e @ ExecError::Injected { ref site }) if site == sites::MEM_RESERVE => {
            AttemptEnd::Transient(RejectReason::ShedMemory, e.to_string())
        }
        Err(e) if e.is_recoverable() => {
            AttemptEnd::Transient(RejectReason::ExecFault, e.to_string())
        }
        Err(e) => AttemptEnd::Terminal(RejectReason::ExecInternal, e.to_string()),
    }
}

/// Classify a planning failure. Cancellation aborts surface as `Err`
/// strings from the pipeline; the token — not the message text — decides
/// between the client-cancel and deadline paths. Everything else is a
/// deterministic planning failure that retrying cannot fix.
fn classify_plan_failure(token: &CancelToken, msg: String) -> AttemptEnd {
    if token.check("planning").is_ok() {
        AttemptEnd::Terminal(RejectReason::PlanRejected, msg)
    } else {
        cancellation_end(token)
    }
}

/// A stopped attempt is terminal when the client canceled and transient
/// (retried with a fresh deadline) when only its deadline passed. The
/// token is read again here, so a cancel that lands after the deadline
/// still ends the request.
fn cancellation_end(token: &CancelToken) -> AttemptEnd {
    match token.check("attempt") {
        Err(trip) if trip.reason == Reason::ReqCanceled => {
            AttemptEnd::Terminal(RejectReason::ReqCanceled, "canceled by client".into())
        }
        _ => AttemptEnd::Transient(RejectReason::ReqDeadline, "attempt deadline expired".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_storage::{row, DataType, Schema, Table, Value};

    fn catalog() -> Arc<Catalog> {
        let mut t = Table::new(
            "t",
            Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]),
        );
        for i in 0..50 {
            t.push(row(vec![Value::Int(i % 5), Value::Int(i)])).unwrap();
        }
        let mut c = Catalog::new();
        c.register_table(t).unwrap();
        Arc::new(c)
    }

    #[test]
    fn serves_batches_on_multiple_workers() {
        let mut server = Server::new(
            catalog(),
            ServerConfig {
                workers: 3,
                ..ServerConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..12)
            .map(|_| {
                server
                    .submit(
                        "select k, sum(v) as s from t group by k; \
                         select k, count(v) as c from t group by k",
                    )
                    .expect("admitted")
            })
            .collect();
        for t in tickets {
            match t.wait() {
                Outcome::Done(reply) => {
                    assert_eq!(reply.results.len(), 2);
                    assert_eq!(reply.results[0].rows.len(), 5);
                }
                Outcome::Rejected(r) => panic!("unexpected rejection: {r:?}"),
            }
        }
        let stats = server.drain();
        assert_eq!(stats.submitted, 12);
        assert_eq!(stats.completed, 12);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn zero_deadline_rejects_with_req_deadline_after_retries() {
        let mut server = Server::new(
            catalog(),
            ServerConfig {
                workers: 1,
                max_retries: 1,
                deadline: Some(Duration::ZERO),
                retry_backoff: Duration::from_micros(100),
                ..ServerConfig::default()
            },
        );
        let t = server.submit("select k from t").expect("admitted");
        match t.wait() {
            Outcome::Rejected(r) => {
                assert_eq!(r.reason, RejectReason::ReqDeadline);
                assert_eq!(r.retries, 1);
            }
            Outcome::Done(_) => panic!("a zero deadline cannot be met"),
        }
        let stats = server.drain();
        assert_eq!(stats.deadline_expired, 1);
        assert_eq!(stats.retries, 1);
    }

    #[test]
    fn submit_after_drain_is_shed_shutdown() {
        let mut server = Server::new(catalog(), ServerConfig::default());
        server.drain();
        match server.submit("select k from t") {
            Err(r) => assert_eq!(r.reason, RejectReason::ShedShutdown),
            Ok(_) => panic!("closed server must not admit"),
        }
        assert_eq!(server.stats().shed, 1);
    }

    #[test]
    fn plan_errors_reject_without_retries() {
        let mut server = Server::new(
            catalog(),
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        );
        let t = server.submit("select nope from t").expect("admitted");
        match t.wait() {
            Outcome::Rejected(r) => {
                assert_eq!(r.reason, RejectReason::PlanRejected);
                assert_eq!(r.retries, 0, "deterministic failures never retry");
            }
            Outcome::Done(_) => panic!("unknown column must fail planning"),
        }
        server.drain();
    }
}
