//! The per-server CSE circuit breaker.
//!
//! The pipeline's baseline fallback handles *one request's* CSE-phase
//! failure; the breaker aggregates them into fleet-level policy. Every
//! normally-served request reports whether its CSE phase downgraded
//! (budget trip, panic). When the downgrade rate over a sliding window of
//! recent requests crosses a threshold, the breaker **opens**: requests
//! are planned baseline-only (no CSE phase at all — so no work spent on a
//! phase that is known to be unhealthy and then thrown away) until a
//! cooldown passes. The first admission after the
//! cooldown becomes a **half-open probe** that runs the full CSE phase; a
//! clean probe closes the breaker, a downgraded or failed one re-opens it.
//!
//! State machine (reason codes in the server's reply/stat stream):
//!
//! ```text
//!          rate ≥ trip_ratio over ≥ min_samples
//! Closed ──────────────────────────────────────▶ Open (BREAKER_TRIPPED)
//!   ▲                                             │ cooldown elapses
//!   │ probe ran full-CSE cleanly                  ▼
//!   └─────────────────────────────────────── HalfOpen (BREAKER_PROBE)
//!             probe downgraded / failed ──▶ Open again
//! ```
//!
//! The mutex around the state is taken through [`cse_govern::lock`], which
//! recovers from poisoning: a panicking worker must not freeze admission
//! policy for the whole server.

use cse_govern::{lock, Held};
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Breaker tuning.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Master switch; disabled means every admission is `Full`.
    pub enabled: bool,
    /// Sliding-window length (recent normally-served requests).
    pub window: usize,
    /// Minimum window occupancy before the rate is meaningful.
    pub min_samples: usize,
    /// Downgrade-rate threshold that opens the breaker.
    pub trip_ratio: f64,
    /// How long the breaker stays open before probing.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            enabled: true,
            window: 32,
            min_samples: 8,
            trip_ratio: 0.5,
            cooldown: Duration::from_millis(100),
        }
    }
}

/// Public view of the breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

impl BreakerState {
    pub fn as_str(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// What an admitted request is allowed to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Run the full CSE phase (breaker closed).
    Full,
    /// Plan baseline-only (breaker open / another probe in flight).
    BaselineOnly,
    /// Run the full CSE phase as the half-open probe.
    Probe,
}

#[derive(Debug)]
enum St {
    Closed,
    Open { until: Instant },
    HalfOpen { probe_inflight: bool },
}

#[derive(Debug)]
struct Inner {
    state: St,
    /// Recent normal-mode outcomes; `true` = the CSE phase downgraded.
    window: VecDeque<bool>,
    trips: u64,
    probes: u64,
    baseline_served: u64,
}

/// Counters + state for reports ([`Breaker::snapshot`]).
#[derive(Debug, Clone)]
pub struct BreakerSnapshot {
    pub state: BreakerState,
    /// Times the breaker opened (including probe failures re-opening it).
    pub trips: u64,
    /// Half-open probes started.
    pub probes: u64,
    /// Requests served baseline-only because the breaker was open.
    pub baseline_served: u64,
}

/// The breaker. All methods are `&self`; internally a poison-recovering
/// mutex.
#[derive(Debug)]
pub struct Breaker {
    cfg: BreakerConfig,
    inner: Mutex<Inner>,
}

impl Breaker {
    pub fn new(cfg: BreakerConfig) -> Self {
        Breaker {
            cfg,
            inner: Mutex::new(Inner {
                state: St::Closed,
                window: VecDeque::new(),
                trips: 0,
                probes: 0,
                baseline_served: 0,
            }),
        }
    }

    fn lock(&self) -> Held<'_, Inner> {
        lock(&self.inner)
    }

    /// Decide what the next request may do.
    pub fn admit(&self) -> Admission {
        if !self.cfg.enabled {
            return Admission::Full;
        }
        // Read the clock before taking the lock: the cooldown comparison
        // needs "now", but the clock call must not stretch the critical
        // section — at 8 workers the serve bench measured a 26 ms
        // cumulative hold on this site with the read inside.
        let now = Instant::now();
        let mut g = self.lock();
        match &g.state {
            St::Closed => Admission::Full,
            St::Open { until } if now < *until => {
                g.baseline_served += 1;
                Admission::BaselineOnly
            }
            St::Open { .. } => {
                g.state = St::HalfOpen {
                    probe_inflight: true,
                };
                g.probes += 1;
                Admission::Probe
            }
            St::HalfOpen { probe_inflight } => {
                if *probe_inflight {
                    g.baseline_served += 1;
                    Admission::BaselineOnly
                } else {
                    g.state = St::HalfOpen {
                        probe_inflight: true,
                    };
                    g.probes += 1;
                    Admission::Probe
                }
            }
        }
    }

    /// Report a normal-mode (`Admission::Full`) planning outcome.
    pub fn record(&self, degraded: bool) {
        if !self.cfg.enabled {
            return;
        }
        // Cooldown expiry computed outside the lock (see `admit`): one
        // clock read per record is cheaper than every contended waiter
        // inheriting the syscall's latency.
        let reopen_until = Instant::now() + self.cfg.cooldown;
        let mut g = self.lock();
        if !matches!(g.state, St::Closed) {
            return;
        }
        g.window.push_back(degraded);
        while g.window.len() > self.cfg.window {
            g.window.pop_front();
        }
        if g.window.len() >= self.cfg.min_samples {
            let bad = g.window.iter().filter(|&&d| d).count();
            if bad as f64 / g.window.len() as f64 >= self.cfg.trip_ratio {
                g.state = St::Open {
                    until: reopen_until,
                };
                g.window.clear();
                g.trips += 1;
            }
        }
    }

    /// Report the half-open probe's outcome: `ok` means the CSE phase ran
    /// to completion on its full rung. Anything else — downgrade, planning
    /// failure, cancellation — re-opens the breaker (fail safe: an
    /// inconclusive probe is not evidence of health).
    pub(crate) fn record_probe(&self, ok: bool) {
        if !self.cfg.enabled {
            return;
        }
        // The probe path is the one the 8-worker hold-time spike came
        // from: every worker's admit() waits on this lock while the probe
        // reports, so the clock read happens before acquisition and the
        // critical section is down to two field stores.
        let reopen_until = Instant::now() + self.cfg.cooldown;
        let mut g = self.lock();
        if ok {
            g.state = St::Closed;
            g.window.clear();
        } else {
            g.state = St::Open {
                until: reopen_until,
            };
            g.trips += 1;
        }
    }

    pub fn state(&self) -> BreakerState {
        self.snapshot().state
    }

    /// One lock acquisition for the whole snapshot (state + counters);
    /// this used to lock twice, doubling its contention footprint.
    pub fn snapshot(&self) -> BreakerSnapshot {
        let g = self.lock();
        let state = match &g.state {
            St::Closed => BreakerState::Closed,
            // An open breaker whose cooldown has elapsed *reports* open
            // until an admission converts it into the half-open probe.
            St::Open { .. } => BreakerState::Open,
            St::HalfOpen { .. } => BreakerState::HalfOpen,
        };
        BreakerSnapshot {
            state,
            trips: g.trips,
            probes: g.probes,
            baseline_served: g.baseline_served,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Breaker {
        Breaker::new(BreakerConfig {
            enabled: true,
            window: 4,
            min_samples: 4,
            trip_ratio: 0.5,
            cooldown: Duration::from_millis(5),
        })
    }

    #[test]
    fn trips_on_downgrade_rate_and_recovers_via_probe() {
        let b = tiny();
        assert_eq!(b.admit(), Admission::Full);
        for _ in 0..2 {
            b.record(false);
        }
        for _ in 0..2 {
            b.record(true);
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.admit(), Admission::BaselineOnly);
        std::thread::sleep(Duration::from_millis(6));
        assert_eq!(b.admit(), Admission::Probe, "cooldown elapsed");
        // Other requests stay baseline while the probe is in flight.
        assert_eq!(b.admit(), Admission::BaselineOnly);
        b.record_probe(true);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.admit(), Admission::Full);
        let snap = b.snapshot();
        assert_eq!(snap.trips, 1);
        assert_eq!(snap.probes, 1);
        assert!(snap.baseline_served >= 2);
    }

    #[test]
    fn failed_probe_reopens() {
        let b = tiny();
        for _ in 0..4 {
            b.record(true);
        }
        assert_eq!(b.state(), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(6));
        assert_eq!(b.admit(), Admission::Probe);
        b.record_probe(false);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.snapshot().trips, 2);
    }

    #[test]
    fn disabled_breaker_always_admits_fully() {
        let b = Breaker::new(BreakerConfig {
            enabled: false,
            ..BreakerConfig::default()
        });
        for _ in 0..64 {
            b.record(true);
            assert_eq!(b.admit(), Admission::Full);
        }
        assert_eq!(b.snapshot().trips, 0);
    }

    #[test]
    fn open_breaker_ignores_normal_records() {
        let b = tiny();
        for _ in 0..4 {
            b.record(true);
        }
        let trips = b.snapshot().trips;
        // Late normal-mode records (from requests admitted before the
        // trip) must not re-trip or refill the window.
        b.record(true);
        b.record(false);
        assert_eq!(b.snapshot().trips, trips);
    }

    /// Workers racing `admit` against a breaker whose cooldown has elapsed:
    /// exactly one becomes the half-open probe, every other one is served
    /// baseline-only, round after round.
    #[test]
    fn concurrent_admits_on_a_half_open_breaker_start_one_probe() {
        const WORKERS: usize = 8;
        let b = std::sync::Arc::new(tiny());
        for round in 1..=20 {
            if round == 1 {
                for _ in 0..4 {
                    b.record(true);
                }
            } else {
                b.record_probe(false);
            }
            assert_eq!(b.state(), BreakerState::Open);
            std::thread::sleep(Duration::from_millis(6));
            let start = std::sync::Arc::new(std::sync::Barrier::new(WORKERS));
            let workers: Vec<_> = (0..WORKERS)
                .map(|_| {
                    let (b, start) = (std::sync::Arc::clone(&b), std::sync::Arc::clone(&start));
                    std::thread::spawn(move || {
                        start.wait();
                        b.admit()
                    })
                })
                .collect();
            let admitted: Vec<Admission> = workers
                .into_iter()
                .map(|w| w.join().expect("worker thread exits cleanly"))
                .collect();
            let probes = admitted.iter().filter(|a| **a == Admission::Probe).count();
            assert_eq!(probes, 1, "round {round}: {admitted:?}");
            assert!(admitted
                .iter()
                .all(|a| matches!(a, Admission::Probe | Admission::BaselineOnly)));
            assert_eq!(b.state(), BreakerState::HalfOpen);
            assert_eq!(b.snapshot().probes, round);
        }
    }
}
