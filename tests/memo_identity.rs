//! The memo the paper assumes (§2.1, §3): a group *is* one logical
//! expression, so signatures, consumers and LCAs are counted once per
//! logically distinct join, and one exploration reaches the fixpoint.

use cse_bench::workloads;
use similar_subexpr::algebra::{LogicalPlan, RelSet};
use similar_subexpr::memo::{explore, ExploreConfig, Memo, Op};
use similar_subexpr::prelude::*;
use similar_subexpr::sql::lower_batch_sql;
use std::collections::BTreeSet;

fn explored(catalog: &Catalog, sql: &str) -> Memo {
    let (ctx, plan) = lower_batch_sql(catalog, sql).expect("paper batch lowers");
    let mut memo = Memo::new(ctx);
    let root = memo.insert_plan(&plan);
    memo.set_root(root);
    explore(&mut memo, &ExploreConfig::default());
    memo
}

/// What a join group computes, read off its first tree rather than the
/// memo's own key: its rels, its conjuncts with literals told apart by
/// kind, and the inputs it reads whole (aggregates).
fn logical_join(plan: &LogicalPlan) -> (RelSet, BTreeSet<String>) {
    fn walk(p: &LogicalPlan, out: &mut BTreeSet<String>) {
        match p {
            LogicalPlan::Get { .. } => {}
            LogicalPlan::Filter { input, pred } => {
                out.extend(pred.conjuncts().iter().map(|c| format!("{c:?}")));
                walk(input, out);
            }
            LogicalPlan::Join { left, right, pred } => {
                out.extend(pred.conjuncts().iter().map(|c| format!("{c:?}")));
                walk(left, out);
                walk(right, out);
            }
            whole => {
                out.insert(format!("{whole:?}"));
            }
        }
    }
    let mut conjuncts = BTreeSet::new();
    walk(plan, &mut conjuncts);
    (plan.rels(), conjuncts)
}

/// (join groups, logically distinct joins among them).
fn join_groups(memo: &Memo) -> (usize, usize) {
    let joins: Vec<_> = memo
        .groups()
        .filter(|g| matches!(memo.gexpr(g.exprs[0]).op, Op::Join { .. }))
        .map(|g| logical_join(&memo.extract_first_tree(g.id)))
        .collect();
    let distinct = joins.iter().collect::<BTreeSet<_>>().len();
    (joins.len(), distinct)
}

fn paper_batches() -> Vec<(String, String)> {
    let mut batches = vec![
        ("table1".to_string(), workloads::table1_batch()),
        ("table2".to_string(), workloads::table2_batch()),
        ("table3".to_string(), workloads::NESTED.to_string()),
        ("table4".to_string(), workloads::complex_join_batch()),
    ];
    batches.extend((2..=10).map(|n| (format!("scaleup{n}"), workloads::scaleup_batch(n))));
    batches
}

#[test]
fn one_join_group_per_logical_join_on_the_paper_batches() {
    let catalog = generate_catalog(&TpchConfig::new(0.001));
    for (name, sql, want) in [
        ("table1", workloads::table1_batch(), 24),
        ("table2", workloads::table2_batch(), 33),
        ("table4", workloads::complex_join_batch(), 86),
        ("scaleup10", workloads::scaleup_batch(10), 78),
    ] {
        let (groups, distinct) = join_groups(&explored(&catalog, &sql));
        assert_eq!(groups, distinct, "{name}: duplicate join groups");
        assert_eq!(groups, want, "{name}: join groups");
    }
}

#[test]
fn a_second_explore_adds_nothing() {
    let catalog = generate_catalog(&TpchConfig::new(0.001));
    for (name, sql) in paper_batches() {
        let mut memo = explored(&catalog, &sql);
        let (groups, distinct) = join_groups(&memo);
        assert_eq!(groups, distinct, "{name}: duplicate join groups");
        let again = explore(&mut memo, &ExploreConfig::default());
        assert_eq!(again, 0, "{name}: a second explore added {again}");
    }
}
