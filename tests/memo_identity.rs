//! The memo the paper assumes (§2.1, §3): a group *is* one logical
//! expression, so signatures, consumers and LCAs are counted once per
//! logically distinct join, and one exploration reaches the fixpoint.

use cse_bench::workloads;
use similar_subexpr::algebra::{LogicalPlan, RelSet, Scalar};
use similar_subexpr::memo::{explore, ExploreConfig, GroupExprId, Memo, Op};
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

/// Every Filter and Join predicate of `memo`, rebuilt from its conjunct ids,
/// by expression id.
fn rebuilt_preds(memo: &Memo) -> Vec<(u32, Scalar)> {
    (0..memo.num_gexprs() as u32)
        .filter_map(|e| match &memo.gexpr(GroupExprId(e)).op {
            Op::Filter { pred } | Op::Join { pred } => Some((e, memo.pred(pred))),
            _ => None,
        })
        .collect()
}

/// `{:?}` tells `x = 1` from `x = 1.0`, which `==` does not.
fn exact(s: &Scalar) -> String {
    format!("{s:?}")
}

#[test]
fn rebuilt_predicates_are_the_normal_forms_inserted() {
    fn inserted(p: &LogicalPlan, out: &mut BTreeSet<String>) {
        let mut normal = |pred: &Scalar| {
            out.insert(exact(&Scalar::and(pred.conjuncts()).normalize()));
        };
        match p {
            LogicalPlan::Get { .. } => {}
            LogicalPlan::Filter { input, pred } => {
                normal(pred);
                inserted(input, out);
            }
            LogicalPlan::Join { left, right, pred } => {
                normal(pred);
                inserted(left, out);
                inserted(right, out);
            }
            LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Sort { input, .. } => inserted(input, out),
            LogicalPlan::Batch { children } => children.iter().for_each(|c| inserted(c, out)),
        }
    }
    let catalog = generate_catalog(&TpchConfig::new(0.001));
    for (name, sql) in paper_batches() {
        let (ctx, plan) = lower_batch_sql(&catalog, &sql).expect("paper batch lowers");
        let mut want = BTreeSet::new();
        inserted(&plan, &mut want);
        let mut memo = Memo::new(ctx);
        memo.insert_plan(&plan);
        let got: BTreeSet<String> = rebuilt_preds(&memo).iter().map(|(_, p)| exact(p)).collect();
        assert_eq!(got, want, "{name}");
        // Exploration's predicates are normal forms too.
        explore(&mut memo, &ExploreConfig::default());
        for (_, p) in rebuilt_preds(&memo) {
            let normal = Scalar::and(p.conjuncts()).normalize();
            assert_eq!(exact(&p), exact(&normal), "{name}");
        }
    }
}

#[test]
fn two_fresh_memos_number_alike() {
    let catalog = generate_catalog(&TpchConfig::new(0.001));
    for (name, sql) in paper_batches() {
        let (a, b) = (explored(&catalog, &sql), explored(&catalog, &sql));
        assert_eq!(a.num_groups(), b.num_groups(), "{name}");
        assert_eq!(a.num_gexprs(), b.num_gexprs(), "{name}");
        for e in (0..a.num_gexprs() as u32).map(GroupExprId) {
            assert_eq!(a.group_of(e), b.group_of(e), "{name}");
            assert_eq!(a.gexpr(e), b.gexpr(e), "{name}: conjunct ids");
        }
        let (pa, pb) = (rebuilt_preds(&a), rebuilt_preds(&b));
        assert!(
            pa.iter()
                .zip(&pb)
                .all(|(x, y)| x.0 == y.0 && exact(&x.1) == exact(&y.1)),
            "{name}"
        );
    }
}
