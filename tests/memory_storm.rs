//! Memory-governor storm suite: many concurrent spool-heavy batches
//! against a deliberately tight global byte budget. The contract under
//! memory pressure is the serving robustness contract — every request
//! reaches exactly one structured terminal outcome (completed, possibly
//! degraded, or shed with a stable reason code), no worker dies, every
//! completed answer is still correct, and the pool drains back to zero
//! when the storm passes.
//!
//! The fault-injection seed comes from `CSE_FAIL_SEED` (default 42) so CI
//! can sweep a seed matrix; every assertion here must hold for *any* seed.

use similar_subexpr::govern::sites;
use similar_subexpr::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const Q1: &str = "select c_nationkey, sum(l_extendedprice) as le \
     from customer, orders, lineitem \
     where c_custkey = o_custkey and o_orderkey = l_orderkey \
       and c_nationkey < 20 \
     group by c_nationkey";
const Q2: &str = "select c_nationkey, sum(l_quantity) as lq \
     from customer, orders, lineitem \
     where c_custkey = o_custkey and o_orderkey = l_orderkey \
       and c_nationkey < 25 \
     group by c_nationkey";

fn cse_batch() -> String {
    format!("{Q1};\n{Q2};")
}

/// Spool-heavy mix: mostly sharing batches (the spools are what press on
/// the pool), some light queries.
fn request_mix(n: usize) -> Vec<String> {
    let light = "select c_mktsegment, count(*) as n from customer group by c_mktsegment";
    (0..n)
        .map(|i| {
            if i % 3 == 2 {
                light.to_string()
            } else {
                cse_batch()
            }
        })
        .collect()
}

fn catalog() -> Arc<Catalog> {
    Arc::new(generate_catalog(&TpchConfig::new(0.002)))
}

fn seed() -> u64 {
    std::env::var("CSE_FAIL_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Ungoverned no-CSE reference results for one request.
fn reference(catalog: &Catalog, sql: &str) -> Vec<ResultSet> {
    let optimized = optimize_sql(catalog, sql, &CseConfig::no_cse()).expect("reference optimize");
    Engine::new(catalog, &optimized.ctx)
        .execute(&optimized.plan)
        .expect("reference execute")
        .results
}

/// The headline storm: 6 workers, a budget tight enough that concurrent
/// heavy batches contend for grants (and a seeded `mem.reserve` fault on
/// top), shedding admission. Every request must reach exactly one
/// terminal outcome; the only rejection codes allowed are the
/// load-shedding ones; completed answers match the reference; the pool
/// drains to zero.
#[test]
fn memory_storm_completes_with_recoverable_outcomes_only() {
    let catalog = catalog();
    let sqls = request_mix(36);
    let refs: Vec<Vec<ResultSet>> = sqls.iter().map(|s| reference(&catalog, s)).collect();
    let mut server = Server::new(
        Arc::clone(&catalog),
        ServerConfig {
            workers: 6,
            queue_capacity: 8,
            admit: AdmitPolicy::Shed,
            deadline: Some(Duration::from_millis(500)),
            max_retries: 2,
            retry_backoff: Duration::from_micros(200),
            mem_budget: Some(2 << 20),
            mem_grant: 256 * 1024,
            cse: CseConfig {
                failpoints: FailpointRegistry::from_specs(&[FailSpec {
                    site: sites::MEM_RESERVE.to_string(),
                    probability: 0.3,
                    seed: seed(),
                }]),
                ..CseConfig::default()
            },
        },
    );
    let governor = server.memory_governor().expect("budget set").clone();
    let outcomes: Vec<(usize, Outcome)> = sqls
        .iter()
        .enumerate()
        .map(|(i, sql)| {
            let out = match server.submit(sql) {
                Ok(t) => t.wait(),
                Err(r) => Outcome::Rejected(r),
            };
            (i, out)
        })
        .collect();
    let mut completed = 0u64;
    let mut rejected = 0u64;
    for (i, out) in &outcomes {
        match out {
            Outcome::Done(reply) => {
                completed += 1;
                assert_eq!(reply.results.len(), refs[*i].len(), "request {i}");
                for (g, w) in reply.results.iter().zip(&refs[*i]) {
                    assert!(
                        g.approx_eq(w, 1e-9),
                        "request {i} diverged under memory pressure (seed {})",
                        seed()
                    );
                }
            }
            Outcome::Rejected(r) => {
                rejected += 1;
                assert!(
                    matches!(
                        r.reason,
                        RejectReason::ShedMemory
                            | RejectReason::ShedQueueFull
                            | RejectReason::ReqDeadline
                    ),
                    "request {i}: non-recoverable rejection {:?} ({}) under the storm",
                    r.reason,
                    r.detail
                );
            }
        }
    }
    assert_eq!(
        completed + rejected,
        sqls.len() as u64,
        "every request reaches exactly one terminal outcome"
    );
    let stats = server.drain();
    assert_eq!(stats.worker_panics, 0, "storm must not kill workers");
    assert_eq!(stats.completed, completed);
    assert_eq!(stats.rejected, rejected);
    assert_eq!(
        governor.reserved(),
        0,
        "pool must drain once the storm passes"
    );
    assert_eq!(governor.pressure(), Pressure::Normal);
}

/// A certain `mem.reserve` fault refuses every grant: all requests must
/// terminate with `SHED_MEMORY` (never a hang, never EXEC_INTERNAL) and
/// carry an exhausted retry count.
#[test]
fn certain_reserve_fault_sheds_everything_with_stable_code() {
    let catalog = catalog();
    let mut server = Server::new(
        Arc::clone(&catalog),
        ServerConfig {
            workers: 2,
            max_retries: 1,
            retry_backoff: Duration::from_micros(100),
            mem_budget: Some(8 << 20),
            cse: CseConfig {
                failpoints: FailpointRegistry::from_specs(&[FailSpec {
                    site: sites::MEM_RESERVE.to_string(),
                    probability: 1.0,
                    seed: seed(),
                }]),
                ..CseConfig::default()
            },
            ..ServerConfig::default()
        },
    );
    for _ in 0..4 {
        let t = server.submit(&cse_batch()).expect("admitted");
        match t.wait() {
            Outcome::Rejected(r) => {
                assert_eq!(r.reason.code(), "SHED_MEMORY", "{}", r.detail);
                assert_eq!(r.retries, 1, "retries must be exhausted before shedding");
            }
            Outcome::Done(_) => panic!("certain reservation fault cannot complete"),
        }
    }
    let stats = server.drain();
    assert_eq!(stats.shed_memory, 4);
    assert_eq!(stats.worker_panics, 0);
}

/// Elevated pool pressure (a large held reservation) lowers the starting
/// rung to baseline: the request still completes, with the reference
/// answer and one `MEM_PRESSURE` degradation event explaining why.
#[test]
fn elevated_pressure_caps_the_starting_rung() {
    let catalog = catalog();
    let want = reference(&catalog, &cse_batch());
    let mut server = Server::new(
        Arc::clone(&catalog),
        ServerConfig {
            workers: 1,
            mem_budget: Some(64 << 20),
            mem_grant: 256 * 1024,
            ..ServerConfig::default()
        },
    );
    let governor = server.memory_governor().expect("budget set").clone();
    // Hold ~72% of the pool: above the 70% Elevated threshold, below the
    // 90% Critical one, with enough headroom left that the baseline plan's
    // own (conservative, per-statement cumulative) charges still fit.
    let _hog = governor
        .try_reserve(46 << 20, None)
        .expect("pre-reservation fits");
    assert_eq!(governor.pressure(), Pressure::Elevated);
    let t = server.submit(&cse_batch()).expect("Elevated still admits");
    match t.wait() {
        Outcome::Done(reply) => {
            assert_eq!(reply.rung, Rung::Baseline, "pressure starts on baseline");
            let codes: Vec<_> = reply.events.iter().map(|e| e.reason.code()).collect();
            assert_eq!(codes, ["MEM_PRESSURE"], "{:?}", reply.events);
            assert_eq!(reply.results.len(), want.len());
            for (g, w) in reply.results.iter().zip(&want) {
                assert!(g.approx_eq(w, 1e-9), "diverged under Elevated pressure");
            }
        }
        Outcome::Rejected(r) => panic!("Elevated pressure must degrade, not shed: {r:?}"),
    }
    server.drain();
}

/// Critical pool pressure sheds new admissions with `SHED_MEMORY`; when
/// the pressure clears, the same request is admitted and completes at
/// full rung again.
#[test]
fn critical_pressure_sheds_then_recovers() {
    let catalog = catalog();
    let mut server = Server::new(
        Arc::clone(&catalog),
        ServerConfig {
            workers: 1,
            mem_budget: Some(8 << 20),
            ..ServerConfig::default()
        },
    );
    let governor = server.memory_governor().expect("budget set").clone();
    let hog = governor
        .try_reserve((8 << 20) * 95 / 100, None)
        .expect("pre-reservation fits");
    assert_eq!(governor.pressure(), Pressure::Critical);
    match server.submit(&cse_batch()) {
        Err(r) => {
            assert_eq!(r.reason.code(), "SHED_MEMORY", "{}", r.detail);
            assert_eq!(r.retries, 0, "admission sheds before any attempt");
        }
        Ok(_) => panic!("Critical pressure must shed at admission"),
    }
    drop(hog);
    assert_eq!(governor.pressure(), Pressure::Normal);
    let t = server.submit(&cse_batch()).expect("recovered pool admits");
    match t.wait() {
        Outcome::Done(reply) => assert_eq!(reply.rung, Rung::FullCse),
        Outcome::Rejected(r) => panic!("recovered pool must serve: {r:?}"),
    }
    let stats = server.drain();
    assert_eq!(stats.shed_memory, 1);
}

/// A client cancel reaches an attempt parked for memory: under block
/// admission, with 80 % of the pool held elsewhere (Elevated pressure, so
/// the request is admitted), the attempt waits in `reserve_blocking` for a
/// grant that cannot fit. Cancelling the ticket must resolve it
/// `REQ_CANCELED`, never retried, while the other reservation is still
/// held.
#[test]
fn cancel_reaches_an_attempt_waiting_for_memory() {
    let catalog = catalog();
    let budget = 1 << 20;
    let mut server = Server::new(
        Arc::clone(&catalog),
        ServerConfig {
            workers: 1,
            admit: AdmitPolicy::Block,
            deadline: None,
            mem_budget: Some(budget),
            ..ServerConfig::default()
        },
    );
    let governor = server.memory_governor().expect("budget set").clone();
    // Declared after the server, so a failing assertion drops it first and
    // the parked worker can finish before the server drains.
    let hog = governor
        .try_reserve(budget * 8 / 10, None)
        .expect("pre-reservation fits");
    assert_eq!(governor.pressure(), Pressure::Elevated);
    let ticket = server.submit(&cse_batch()).expect("Elevated still admits");
    std::thread::sleep(Duration::from_millis(50));
    ticket.cancel();
    let (tx, rx) = std::sync::mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let _ = tx.send(ticket.wait());
    });
    match rx.recv_timeout(Duration::from_secs(3)) {
        Ok(Outcome::Rejected(r)) => {
            assert_eq!(r.reason, RejectReason::ReqCanceled, "{}", r.detail);
            assert_eq!(r.retries, 0, "a cancel is terminal");
        }
        Ok(Outcome::Done(_)) => panic!("a canceled request must not complete"),
        Err(_) => panic!("the cancel did not reach the attempt waiting for memory"),
    }
    assert_eq!(
        governor.reserved(),
        budget * 8 / 10,
        "the hog is still held"
    );
    drop(hog);
    waiter.join().expect("waiter thread");
    let stats = server.drain();
    assert_eq!(stats.canceled, 1);
    assert_eq!(governor.reserved(), 0, "pool drains");
}
