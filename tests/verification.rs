//! End-to-end checks of the `cse-verify` wiring in the pipeline: the
//! invariant passes run behind `CseConfig::verify`, attach a clean report
//! to `CseReport`, and cover both the CSE and the no-CSE paths on real
//! TPC-H workloads. (The adversarial corruption tests that make each rule
//! fire live in `crates/verify/tests/corruption.rs`.) Every paper batch
//! also passes both static checkers: the verifier and the linter.

use cse_bench::workloads;
use similar_subexpr::lint::rules;
use similar_subexpr::prelude::*;

const SHARING_BATCH: &str = "\
  select c_nationkey, sum(l_extendedprice) as le \
  from customer, orders, lineitem \
  where c_custkey = o_custkey and o_orderkey = l_orderkey \
    and c_nationkey > 0 and c_nationkey < 20 \
  group by c_nationkey;\
  select c_nationkey, sum(l_quantity) as lq \
  from customer, orders, lineitem \
  where c_custkey = o_custkey and o_orderkey = l_orderkey \
    and c_nationkey > 5 and c_nationkey < 25 \
  group by c_nationkey;";

fn catalog() -> Catalog {
    generate_catalog(&TpchConfig::new(0.002))
}

fn verified_config(base: CseConfig) -> CseConfig {
    CseConfig {
        verify: true,
        ..base
    }
}

#[test]
fn sharing_batch_verifies_clean() {
    let cfg = verified_config(CseConfig::default());
    let optimized = optimize_sql(&catalog(), SHARING_BATCH, &cfg).expect("optimize");
    let report = optimized
        .report
        .verification
        .as_ref()
        .expect("verification report attached when cfg.verify is set");
    assert!(report.is_clean(), "{}", report.render());
    assert!(
        !optimized.report.candidates.is_empty(),
        "the batch shares a subexpression, so verification covered passes 3-5 too"
    );
}

#[test]
fn no_heuristics_verifies_clean() {
    let cfg = verified_config(CseConfig::no_heuristics());
    let optimized = optimize_sql(&catalog(), SHARING_BATCH, &cfg).expect("optimize");
    let report = optimized.report.verification.as_ref().expect("report");
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn no_cse_path_verifies_clean() {
    let cfg = verified_config(CseConfig::no_cse());
    let optimized = optimize_sql(&catalog(), SHARING_BATCH, &cfg).expect("optimize");
    let report = optimized.report.verification.as_ref().expect("report");
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn verification_off_attaches_no_report() {
    let cfg = CseConfig {
        verify: false,
        ..CseConfig::default()
    };
    let optimized = optimize_sql(&catalog(), SHARING_BATCH, &cfg).expect("optimize");
    assert!(optimized.report.verification.is_none());
}

/// Tables 1–4 (Table 3 is the nested query) and the no-sharing batch.
fn paper_batches() -> [(&'static str, String); 5] {
    [
        ("table1", workloads::table1_batch()),
        ("table2", workloads::table2_batch()),
        ("nested", workloads::NESTED.to_string()),
        ("complex joins", workloads::complex_join_batch()),
        ("no sharing", workloads::no_sharing_batch()),
    ]
}

#[test]
fn paper_batches_verify_clean() {
    let catalog = catalog();
    for (name, sql) in paper_batches() {
        for base in [CseConfig::default(), CseConfig::no_heuristics()] {
            let cfg = verified_config(base);
            let optimized = optimize_sql(&catalog, &sql, &cfg)
                .unwrap_or_else(|e| panic!("{name} failed verification: {e}"));
            let report = optimized.report.verification.as_ref().expect("report");
            assert!(report.is_clean(), "{name}: {}", report.render());
        }
    }
}

#[test]
fn paper_batches_lint_without_errors() {
    let catalog = catalog();
    for (name, sql) in paper_batches() {
        let report = lint_batch(&catalog, &sql).report;
        let text = report.render_as("lint");
        assert_eq!(report.error_count(), 0, "{name}: {text}");
        if name == "table1" {
            assert!(report.fired_rules().contains(rules::SHARE_HINT), "{text}");
        }
    }
}
