//! §6.5 scaleup shape and the §6 overhead claim, as fast integration
//! checks (full sweeps live in the benchmark harness).

use cse_bench::workloads;
use similar_subexpr::prelude::*;

fn catalog() -> Catalog {
    generate_catalog(&TpchConfig::new(0.002))
}

#[test]
fn benefit_grows_with_batch_size() {
    let catalog = catalog();
    let ratio = |n: usize| {
        let sql = workloads::scaleup_batch(n);
        let no = optimize_sql(&catalog, &sql, &CseConfig::no_cse()).unwrap();
        let yes = optimize_sql(&catalog, &sql, &CseConfig::default()).unwrap();
        no.report.final_cost / yes.report.final_cost
    };
    let r2 = ratio(2);
    let r6 = ratio(6);
    assert!(r2 > 1.1, "even two queries must share: {r2:.2}");
    assert!(
        r6 > r2,
        "cost benefit must grow with batch size (paper Fig. 8): {r2:.2} -> {r6:.2}"
    );
}

#[test]
fn scaleup_results_are_correct() {
    let catalog = catalog();
    for n in [3usize, 7] {
        let sql = workloads::scaleup_batch(n);
        let no = optimize_sql(&catalog, &sql, &CseConfig::no_cse()).unwrap();
        let yes = optimize_sql(&catalog, &sql, &CseConfig::default()).unwrap();
        let out_no = Engine::new(&catalog, &no.ctx).execute(&no.plan).unwrap();
        let out_yes = Engine::new(&catalog, &yes.ctx).execute(&yes.plan).unwrap();
        assert_eq!(out_no.results.len(), n);
        for (a, b) in out_no.results.iter().zip(out_yes.results.iter()) {
            assert!(a.approx_eq(b, 1e-9), "scaleup n={n} diverged");
        }
    }
}

#[test]
fn optimization_time_scales_roughly_linearly() {
    // The paper's claim: with pruning, optimization time grows linearly in
    // the batch size. Allow generous slack (wall-clock noise): n=8 must
    // cost less than 8x the n=2 time.
    let catalog = catalog();
    let time = |n: usize| {
        let sql = workloads::scaleup_batch(n);
        // Warm up once, then measure the median of 3.
        let mut times: Vec<f64> = (0..3)
            .map(|_| {
                optimize_sql(&catalog, &sql, &CseConfig::default())
                    .unwrap()
                    .report
                    .total_time
                    .as_secs_f64()
            })
            .collect();
        times.sort_by(f64::total_cmp);
        times[1]
    };
    let t2 = time(2);
    let t8 = time(8);
    assert!(
        t8 < t2 * 20.0,
        "optimization time exploded: n=2 {t2:.4}s, n=8 {t8:.4}s"
    );
}

#[test]
fn no_sharing_batch_finds_no_candidates() {
    let catalog = catalog();
    let sql = workloads::no_sharing_batch();
    let o = optimize_sql(&catalog, &sql, &CseConfig::default()).unwrap();
    assert_eq!(o.report.candidates.len(), 0);
    assert!(o.plan.spools.is_empty());
    assert_eq!(o.report.final_cost, o.report.baseline_cost);
}

#[test]
fn overhead_on_non_sharing_queries_is_small() {
    let catalog = catalog();
    let sql = workloads::no_sharing_batch();
    let median = |cfg: &CseConfig| {
        let mut t: Vec<f64> = (0..5)
            .map(|_| {
                optimize_sql(&catalog, &sql, cfg)
                    .unwrap()
                    .report
                    .total_time
                    .as_secs_f64()
            })
            .collect();
        t.sort_by(f64::total_cmp);
        t[2]
    };
    let off = median(&CseConfig::no_cse());
    let on = median(&CseConfig::default());
    // Paper: "the overhead was so small that we could not reliably measure
    // it". Allow 3x for wall-clock noise at sub-millisecond scales.
    assert!(
        on < off * 3.0 + 0.002,
        "CSE machinery overhead too large: off {off:.5}s on {on:.5}s"
    );
}

#[test]
fn optimization_is_deterministic() {
    let catalog = catalog();
    let sql = workloads::table1_batch();
    let a = optimize_sql(&catalog, &sql, &CseConfig::default()).unwrap();
    let b = optimize_sql(&catalog, &sql, &CseConfig::default()).unwrap();
    assert_eq!(a.report.final_cost, b.report.final_cost);
    assert_eq!(a.report.candidates.len(), b.report.candidates.len());
    assert_eq!(a.plan.spools.len(), b.plan.spools.len());
    assert_eq!(a.plan.root.render(), b.plan.root.render());
}
