//! Adversarial robustness suite: drives every degradation path — tripped
//! optimization budgets, a baseline start, deliberate panics, injected
//! execution faults, and refused memory reservations — and asserts that a
//! session always answers, that the answers match an ungoverned no-CSE
//! baseline, that every downgrade is reported with its stable reason code,
//! and that the executor itself returns a refused reservation as an error.
//!
//! The fault-injection seed comes from `CSE_FAIL_SEED` (default 42) so CI
//! can sweep a seed matrix; every assertion here must hold for *any* seed.

use cse_bench::workloads;
use similar_subexpr::exec::{ExecError, ExecMetrics};
use similar_subexpr::govern::sites;
use similar_subexpr::prelude::*;
use similar_subexpr::storage::row;

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

fn batch() -> String {
    format!("{Q1};\n{Q2};")
}

fn catalog() -> Catalog {
    generate_catalog(&TpchConfig::new(0.002))
}

fn seed() -> u64 {
    std::env::var("CSE_FAIL_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// The ungoverned no-CSE reference: plain plans, no failpoints, no reservation.
fn reference(catalog: &Catalog, sql: &str) -> Vec<ResultSet> {
    let optimized = optimize_sql(catalog, sql, &CseConfig::no_cse()).expect("reference optimize");
    let engine = Engine::new(catalog, &optimized.ctx);
    engine
        .execute(&optimized.plan)
        .expect("reference execute")
        .results
}

/// Optimize + execute `sql` under `cfg`'s failpoints, and return everything.
fn drive(catalog: &Catalog, sql: &str, cfg: &CseConfig) -> (Optimized, ExecOutput) {
    let optimized = optimize_sql(catalog, sql, cfg).expect("governed optimize must not fail");
    let engine = Engine::new(catalog, &optimized.ctx);
    let ctx = ExecCtx {
        failpoints: cfg.failpoints.clone(),
        ..ExecCtx::default()
    };
    let out = engine
        .execute_in(&optimized.plan, &ctx)
        .expect("governed execute must not fail");
    (optimized, out)
}

fn assert_matches_reference(got: &[ResultSet], want: &[ResultSet], scenario: &str) {
    assert_eq!(got.len(), want.len(), "{scenario}: statement count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.approx_eq(w, 1e-9),
            "{scenario}: statement {i} diverged from the no-CSE reference"
        );
    }
}

fn codes(events: &[DegradationEvent]) -> Vec<&'static str> {
    events.iter().map(|e| e.reason.code()).collect()
}

fn fail_config(site: &str, prob: f64) -> CseConfig {
    CseConfig {
        failpoints: FailpointRegistry::from_specs(&[FailSpec {
            site: site.to_string(),
            probability: prob,
            seed: seed(),
        }]),
        ..CseConfig::default()
    }
}

// ---------------------------------------------------------------------------
// Optimizer-side fallback
// ---------------------------------------------------------------------------

/// A zero-millisecond budget must land on the baseline rung with one
/// deadline event — and still answer correctly.
#[test]
fn zero_budget_degrades_to_baseline() {
    let catalog = catalog();
    let want = reference(&catalog, &batch());
    let cfg = CseConfig {
        budget: Budget::with_time_ms(0),
        ..CseConfig::default()
    };
    let (opt, out) = drive(&catalog, &batch(), &cfg);
    assert_eq!(opt.report.rung, Rung::Baseline, "{:?}", opt.report.rung);
    assert!(
        opt.plan.spools.is_empty(),
        "baseline plan must not retain spools"
    );
    let seen = codes(&opt.report.degradations);
    assert_eq!(seen, ["OPT_DEADLINE"], "one clock, one trip");
    assert_matches_reference(&out.results, &want, "zero-budget");
}

/// A tripped or panicked CSE phase returns the baseline plan the request
/// computed before the phase: the same plan, spools and cost as a request
/// started on the baseline rung, with one event and no candidates. (Both
/// run under `verify`, so pass 6 also audits the fallback plan.)
#[test]
fn tripped_cse_phase_plans_like_a_baseline_start() {
    let catalog = catalog();
    let summary = |o: &Optimized| {
        let mut plan = o.plan.root.render();
        for (id, spool) in &o.plan.spools {
            plan.push_str(&format!("spool {id}:\n{}", spool.plan.render()));
        }
        (o.report.final_cost, plan)
    };
    let tripping = [
        (
            "OPT_DEADLINE",
            CseConfig {
                budget: Budget::with_time_ms(0),
                ..CseConfig::default()
            },
        ),
        ("OPT_PANIC", fail_config(sites::OPT_CSE_PHASE, 1.0)),
    ];
    for (name, sql) in [
        ("table2", workloads::table2_batch()),
        ("table4", workloads::complex_join_batch()),
    ] {
        let started = optimize_sql(&catalog, &sql, &CseConfig::no_cse()).expect("no-CSE optimize");
        for (code, cfg) in &tripping {
            let tripped = optimize_sql(&catalog, &sql, cfg).expect("tripped optimize");
            assert_eq!(tripped.report.rung, Rung::Baseline, "{name} {code}");
            assert_eq!(
                codes(&tripped.report.degradations),
                [*code],
                "{name}: exactly one event"
            );
            assert!(
                tripped.report.candidates.is_empty(),
                "{name} {code}: a tripped phase leaves no candidates"
            );
            assert_eq!(tripped.report.spools_used, 0, "{name} {code}");
            assert_eq!(summary(&tripped), summary(&started), "{name} {code}");
        }
    }
}

/// A request started on the baseline rung skips the CSE phase outright —
/// detection included — and records nothing: whoever lowered the start
/// reports why.
#[test]
fn baseline_start_rung_skips_the_cse_phase() {
    let catalog = catalog();
    let want = reference(&catalog, &batch());
    let cfg = CseConfig {
        start_rung: Rung::Baseline,
        ..CseConfig::default()
    };
    let (opt, out) = drive(&catalog, &batch(), &cfg);
    assert_eq!(opt.report.rung, Rung::Baseline);
    assert!(opt.report.degradations.is_empty());
    assert_eq!(opt.report.sharable_signatures, 0, "detection never ran");
    assert!(opt.report.candidates.is_empty());
    assert!(opt.plan.spools.is_empty());
    assert_matches_reference(&out.results, &want, "baseline start");
}

/// A panic inside the CSE phase (the `opt.cse-phase` failpoint panics on
/// purpose) is caught; the plan degrades straight to baseline with
/// OPT_PANIC and the query still answers.
#[test]
fn cse_phase_panic_is_isolated() {
    let catalog = catalog();
    let want = reference(&catalog, &batch());
    let cfg = fail_config(sites::OPT_CSE_PHASE, 1.0);
    let (opt, out) = drive(&catalog, &batch(), &cfg);
    assert_eq!(opt.report.rung, Rung::Baseline);
    let seen = codes(&opt.report.degradations);
    assert!(seen.contains(&"OPT_PANIC"), "events: {seen:?}");
    assert!(opt.plan.spools.is_empty());
    assert_matches_reference(&out.results, &want, "opt-panic");
}

/// The phase's entry checks run before its nothing-to-share return: a batch
/// without any sharable signature still meets the armed failpoint.
#[test]
fn cse_phase_panic_is_isolated_when_nothing_is_sharable() {
    let catalog = catalog();
    let sql = workloads::no_sharing_batch();
    let want = reference(&catalog, &sql);
    let cfg = fail_config(sites::OPT_CSE_PHASE, 1.0);
    let (opt, out) = drive(&catalog, &sql, &cfg);
    assert_eq!(opt.report.sharable_signatures, 0);
    assert_eq!(opt.report.rung, Rung::Baseline);
    let seen = codes(&opt.report.degradations);
    assert!(seen.contains(&"OPT_PANIC"), "events: {seen:?}");
    assert_matches_reference(&out.results, &want, "opt-panic, nothing sharable");
}

/// Detection belongs to the request, not to the CSE phase: a request whose
/// phase trips reports the sharable signatures it reports untripped.
#[test]
fn tripped_rungs_still_report_detection() {
    let catalog = catalog();
    let untripped = optimize_sql(&catalog, &batch(), &CseConfig::default()).expect("optimize");
    assert!(untripped.report.sharable_signatures > 0);
    let cfg = CseConfig {
        budget: Budget::with_time_ms(0),
        ..CseConfig::default()
    };
    let tripped = optimize_sql(&catalog, &batch(), &cfg).expect("optimize");
    assert_eq!(tripped.report.rung, Rung::Baseline);
    assert_eq!(
        tripped.report.sharable_signatures,
        untripped.report.sharable_signatures
    );
}

/// Tripped-budget plans must survive the downgrade verifier: a baseline
/// rung plan contains no covering operators and retains no spools.
#[test]
fn downgraded_plans_pass_the_downgrade_audit() {
    let catalog = catalog();
    let cfg = CseConfig {
        budget: Budget::with_time_ms(0),
        verify: true,
        ..CseConfig::default()
    };
    let (opt, _) = drive(&catalog, &batch(), &cfg);
    let report = opt.report.verification.expect("verification ran");
    assert_eq!(
        report.error_count(),
        0,
        "downgrade audit must be clean: {:?}",
        report.diagnostics
    );
}

// ---------------------------------------------------------------------------
// Execution faults: the session re-plans the batch on the baseline rung
// ---------------------------------------------------------------------------

/// Run `sql` through a session under `cfg`, which recovers a faulted batch.
fn query(catalog: &Catalog, sql: &str, cfg: &CseConfig) -> BatchOutcome {
    Session::with_config(catalog.clone(), cfg.clone())
        .query(sql)
        .expect("a session answers through a recoverable fault")
}

/// Every counter of two runs' metrics.
fn assert_same_metrics(got: &ExecMetrics, want: &ExecMetrics, scenario: &str) {
    assert_eq!(got.spool_rows, want.spool_rows, "{scenario}: spool rows");
    assert_eq!(got.spool_reads, want.spool_reads, "{scenario}: spool reads");
    assert_eq!(got.spool_bytes, want.spool_bytes, "{scenario}: spool bytes");
    assert_eq!(
        got.base_rows_scanned, want.base_rows_scanned,
        "{scenario}: rows scanned"
    );
    assert_eq!(got.peak_bytes, want.peak_bytes, "{scenario}: peak bytes");
}

/// A certain fault at `site`: the session answers what the no-CSE plan
/// answers, reports the fault once, and its metrics are those of a No-CSE
/// run, because the run that answered was one.
fn assert_recovers_on_baseline(catalog: &Catalog, sql: &str, site: &str) -> BatchOutcome {
    let out = query(catalog, sql, &fail_config(site, 1.0));
    assert_matches_reference(&out.results, &reference(catalog, sql), site);
    assert_eq!(
        codes(&out.events),
        vec!["EXEC_FAULT_INJECTED"],
        "{site}: {:?}",
        out.events
    );
    let no_cse = query(catalog, sql, &CseConfig::no_cse());
    assert_same_metrics(&out.metrics, &no_cse.metrics, site);
    out
}

/// Certain spool failure: the batch is re-planned without sharing.
#[test]
fn spool_failure_recovers_on_baseline() {
    let catalog = catalog();
    let opt = optimize_sql(&catalog, &batch(), &CseConfig::default()).expect("optimize");
    assert!(
        !opt.plan.spools.is_empty(),
        "scenario requires a shared spool to break"
    );
    assert_recovers_on_baseline(&catalog, &batch(), sites::SPOOL_MATERIALIZE);
}

/// Certain table-scan failure: the retry runs with the failpoints disarmed,
/// so it terminates although every scan of the first run faults.
#[test]
fn table_scan_failure_recovers_on_baseline() {
    let catalog = catalog();
    let out = assert_recovers_on_baseline(&catalog, &batch(), sites::SCAN_TABLE);
    assert_eq!(out.results.len(), 2);
}

/// Certain index-scan failure on a plan that actually chooses an index.
#[test]
fn index_scan_failure_recovers_on_baseline() {
    let mut indexed = catalog();
    indexed.create_btree_index("orders", "o_orderdate").unwrap();
    let sql = "select o_orderkey, o_totalprice from orders \
               where o_orderdate = '1995-01-01'";
    assert_recovers_on_baseline(&indexed, sql, sites::SCAN_INDEX);
}

// ---------------------------------------------------------------------------
// Refused memory reservations: an error the reservation's owner retries
// ---------------------------------------------------------------------------

/// A pool exactly as large as the No-CSE plan's high-water mark: the
/// baseline fits it, the sharing plan, which also holds its spools, does not.
fn baseline_sized_pool(catalog: &Catalog, sql: &str) -> MemoryGovernor {
    let (_, base) = drive(catalog, sql, &CseConfig::no_cse());
    let (opt, shared) = drive(catalog, sql, &CseConfig::default());
    assert!(!opt.plan.spools.is_empty(), "scenario needs a spool");
    assert!(
        shared.metrics.peak_bytes > base.metrics.peak_bytes,
        "scenario needs the sharing plan to hold more than the baseline"
    );
    MemoryGovernor::new(base.metrics.peak_bytes)
}

/// Run `sql` under a reservation of `governor`'s whole pool and recover a
/// refused charge the way its owner does: re-plan on the baseline rung and
/// run again under a fresh reservation. Each attempt releases every byte it
/// held, the grant included. Returns the refusal and the run that answered.
fn run_reserved_with_retry(
    catalog: &Catalog,
    sql: &str,
    governor: &MemoryGovernor,
) -> (ExecError, ExecOutput) {
    let attempt = |cfg: &CseConfig| {
        let opt = optimize_sql(catalog, sql, cfg).expect("optimize");
        let reservation = governor
            .try_reserve(governor.budget(), None)
            .expect("a drained pool grants its whole budget");
        let ctx = ExecCtx {
            reservation: Some(&reservation),
            ..ExecCtx::default()
        };
        let run = Engine::new(catalog, &opt.ctx).execute_in(&opt.plan, &ctx);
        assert_eq!(reservation.used(), 0, "every held byte was released");
        run
    };
    let refused = attempt(&CseConfig::default()).expect_err("the sharing plan outgrows the pool");
    assert_eq!(governor.reserved(), 0, "the refused attempt's grant drains");
    let out = attempt(&CseConfig::no_cse()).expect("the baseline plan fits the pool");
    assert_eq!(
        governor.reserved(),
        0,
        "the answering attempt's grant drains"
    );
    (refused, out)
}

/// A statement that outgrows its memory reservation is refused the charge:
/// the executor returns `MemReservation`, a recoverable error, and the
/// owner's baseline re-plan, which fits the same pool, answers exactly.
#[test]
fn memory_budget_breach_recovers() {
    let catalog = catalog();
    let governor = baseline_sized_pool(&catalog, &batch());
    let (refused, out) = run_reserved_with_retry(&catalog, &batch(), &governor);
    assert!(
        matches!(refused, ExecError::MemReservation { .. }) && refused.is_recoverable(),
        "{refused}"
    );
    assert_matches_reference(
        &out.results,
        &reference(&catalog, &batch()),
        "mem-reservation",
    );
}

/// Probabilistic injection is deterministic per seed: two runs with the
/// same seed produce identical events and identical (correct) results.
#[test]
fn probabilistic_injection_is_deterministic_per_seed() {
    let catalog = catalog();
    let want = reference(&catalog, &batch());
    let run = || query(&catalog, &batch(), &fail_config(sites::SCAN_TABLE, 0.5));
    let (a, b) = (run(), run());
    assert_eq!(
        codes(&a.events),
        codes(&b.events),
        "seed {} drifted",
        seed()
    );
    assert_eq!(
        a.events.iter().map(|e| e.to_string()).collect::<Vec<_>>(),
        b.events.iter().map(|e| e.to_string()).collect::<Vec<_>>()
    );
    assert_matches_reference(&a.results, &want, "probabilistic");
    assert_matches_reference(&b.results, &want, "probabilistic-repeat");
}

// ---------------------------------------------------------------------------
// Final-attempt-only metrics
// ---------------------------------------------------------------------------

/// A certain spool fault: the outcome describes the run that answered, the
/// baseline one — no spool entries from the abandoned sharing run, and its
/// report is the baseline plan's.
#[test]
fn metrics_reflect_final_attempt_after_spool_fault() {
    let catalog = catalog();
    let out = assert_recovers_on_baseline(&catalog, &batch(), sites::SPOOL_MATERIALIZE);
    let m = &out.metrics;
    assert!(
        m.spool_rows.is_empty() && m.spool_bytes.is_empty() && m.spool_reads.is_empty(),
        "the abandoned run's spool work must not leak into the metrics: {m:?}"
    );
    assert!(m.peak_bytes > 0);
    assert_eq!(out.report.rung, Rung::Baseline);
    assert_eq!(out.report.spools_used, 0);
}

/// Same contract when the retry follows a refused memory reservation: the
/// retry is a fresh run, so the metrics are a No-CSE run's, with nothing
/// left over from the refused sharing attempt.
#[test]
fn metrics_reflect_final_attempt_after_reservation_refusal() {
    let catalog = catalog();
    let governor = baseline_sized_pool(&catalog, &batch());
    let (_, out) = run_reserved_with_retry(&catalog, &batch(), &governor);
    let m = &out.metrics;
    assert!(
        m.spool_rows.is_empty() && m.spool_bytes.is_empty() && m.spool_reads.is_empty(),
        "spools of the refused attempt must not leak into the metrics: {m:?}"
    );
    let (_, base) = drive(&catalog, &batch(), &CseConfig::no_cse());
    assert_same_metrics(m, &base.metrics, "mem-reservation");
}

/// Seeded (probabilistic) faults: whatever mix of runs a seed produces,
/// the metrics stay internally consistent — every spool with reads or
/// bytes also has rows, the high-water mark is set, and a rerun with the
/// same seed reproduces the numbers bit-for-bit. CI sweeps `CSE_FAIL_SEED`
/// over {1, 7, 42}.
#[test]
fn seeded_fault_metrics_are_consistent_and_deterministic() {
    let catalog = catalog();
    let want = reference(&catalog, &batch());
    // A fresh registry per run: clones share one fault schedule.
    let run = || {
        query(
            &catalog,
            &batch(),
            &fail_config(sites::SPOOL_MATERIALIZE, 0.5),
        )
    };
    let (a, b) = (run(), run());
    assert_matches_reference(&a.results, &want, "seeded-metrics");
    let m = &a.metrics;
    for id in m.spool_reads.keys() {
        assert!(
            m.spool_rows.contains_key(id),
            "spool {id:?} read but never materialized (seed {})",
            seed()
        );
    }
    assert_eq!(
        m.spool_rows
            .keys()
            .collect::<std::collections::BTreeSet<_>>(),
        m.spool_bytes
            .keys()
            .collect::<std::collections::BTreeSet<_>>(),
        "row and byte accounting must cover the same spools"
    );
    assert!(m.peak_bytes > 0, "high-water mark must be recorded");
    assert_eq!(
        m.spool_rows,
        b.metrics.spool_rows,
        "seed {} drifted",
        seed()
    );
    assert_eq!(m.spool_bytes, b.metrics.spool_bytes);
    assert_eq!(m.spool_reads, b.metrics.spool_reads);
    assert_eq!(m.peak_bytes, b.metrics.peak_bytes);
}

/// The `--fail` spec grammar round-trips through `FailSpec`.
#[test]
fn fail_spec_grammar() {
    let s = FailSpec::parse("spool.materialize:1.0:7").unwrap();
    assert_eq!(s.site, "spool.materialize");
    assert_eq!(s.probability, 1.0);
    assert_eq!(s.seed, 7);
    let d = FailSpec::parse("scan.table:0.25").unwrap();
    assert_eq!(d.probability, 0.25);
    assert!(FailSpec::parse("scan.table").is_err());
    assert!(FailSpec::parse("scan.table:notanumber").is_err());
}

// ---------------------------------------------------------------------------
// approx_eq semantics (satellite c)
// ---------------------------------------------------------------------------

/// Near-zero aggregates compare under the absolute floor: a pure relative
/// tolerance would reject 0.0 vs 1e-12 (relative error = 1).
#[test]
fn approx_eq_has_an_absolute_floor_near_zero() {
    let a = ResultSet::new(vec!["x".to_string()], vec![row(vec![Value::Float(0.0)])]);
    let b = ResultSet::new(vec!["x".to_string()], vec![row(vec![Value::Float(1e-12)])]);
    // Even with a relative tolerance far too tight to absorb the residue,
    // the default absolute floor (1e-7) accepts it ...
    assert!(a.approx_eq(&b, 1e-13), "absolute floor must absorb 1e-12");
    // ... and removing the floor restores strict relative comparison.
    assert!(!a.approx_eq_with(&b, 1e-13, 0.0), "zero floor is strict");
    // The floor is a floor, not a blanket: clearly different values fail.
    let c = ResultSet::new(vec!["x".to_string()], vec![row(vec![Value::Float(1e-3)])]);
    assert!(!a.approx_eq(&c, 1e-9));
}
