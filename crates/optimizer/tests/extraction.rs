//! The search only costs and the plan is extracted once: on the paper's
//! batches the size of the search must be what it was when every winner
//! owned its operator tree, and every extracted plan must agree with the
//! spool bookkeeping it was extracted from.
//!
//! The second half runs inside `Optimizer::optimize_full`: a debug build
//! asserts, for every mask the §5.3 enumeration visits, that the spool reads
//! of the extracted root and definition trees are exactly the spools the
//! winner's `usage`/`charged` bookkeeping collected (each read at least
//! twice). This test drives it over the batches; the counts below were read
//! off the eager-clone optimizer at SF 0.01 (normal phases + Step 3), and
//! re-read when a join's group became the one with its logical key and one
//! exploration reached the fixpoint (Table 4's normal phases 1025 → 113).

use cse_bench::workloads;
use cse_core::{optimize_sql, CseConfig};
use cse_tpch::{generate_catalog, TpchConfig};

#[test]
fn search_size_is_unchanged_and_every_visited_plan_matches_its_bookkeeping() {
    let catalog = generate_catalog(&TpchConfig::new(0.01));
    let mut batches = vec![
        (workloads::table1_batch(), 54 + 69),
        (workloads::table2_batch(), 72 + 119),
        (workloads::NESTED.to_string(), 36 + 45),
        (workloads::complex_join_batch(), 113 + 213),
        (workloads::no_sharing_batch(), 20),
    ];
    let scaleup = [
        31 + 58,
        54 + 142,
        69 + 174,
        84 + 206,
        107 + 317,
        122 + 349,
        137 + 273,
        160 + 322,
        175 + 513,
    ];
    batches.extend((2..=10).map(|n| (workloads::scaleup_batch(n), scaleup[n - 2])));
    for (sql, group_optimizations) in batches {
        let optimized = optimize_sql(&catalog, &sql, &CseConfig::default()).expect("optimize");
        assert_eq!(
            optimized.report.group_optimizations, group_optimizations,
            "{sql}"
        );
        // What the debug assertion checked for every visited mask, once
        // more from outside for the plan that was returned.
        let plan = &optimized.plan;
        let mut reads = plan.root.cse_reads();
        for def in plan.spools.values() {
            for (e, n) in def.plan.cse_reads() {
                *reads.entry(e).or_insert(0) += n;
            }
        }
        assert!(reads.keys().eq(plan.spools.keys()), "{sql}");
        assert!(reads.values().all(|&n| n >= 2), "{sql}");
    }
}
