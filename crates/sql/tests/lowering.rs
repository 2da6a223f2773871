//! Lowered-plan *shape* tests: predicate placement, aggregate structure,
//! subquery placement, error paths.

use cse_algebra::{LogicalPlan, PlanContext, Scalar};
use cse_memo::Memo;
use cse_sql::lower_batch_sql;
use cse_storage::{Catalog, DataType, Schema, Table};

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    for (name, cols) in [
        (
            "ta",
            vec![
                ("a_k", DataType::Int),
                ("a_v", DataType::Int),
                ("a_d", DataType::Date),
            ],
        ),
        ("tb", vec![("b_k", DataType::Int), ("b_v", DataType::Int)]),
        ("tc", vec![("c_k", DataType::Int), ("c_v", DataType::Int)]),
    ] {
        cat.register_table(Table::new(name, Schema::from_pairs(&cols)))
            .unwrap();
    }
    cat
}

/// Every column an operator reads is produced below it: the verifier's
/// provenance pass reports no error over the lowered plan's memo.
fn assert_columns_available(ctx: &PlanContext, plan: &LogicalPlan) {
    let mut memo = Memo::new(ctx.clone());
    let root = memo.insert_plan(plan);
    memo.set_root(root);
    let report = cse_verify::verify_memo(&memo, &[root]);
    assert_eq!(report.error_count(), 0, "{}", report.render());
}

/// Walk helper: count nodes matching a predicate.
fn count(plan: &LogicalPlan, f: &dyn Fn(&LogicalPlan) -> bool) -> usize {
    let mut n = usize::from(f(plan));
    match plan {
        LogicalPlan::Get { .. } => {}
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Aggregate { input, .. } => n += count(input, f),
        LogicalPlan::Join { left, right, .. } => {
            n += count(left, f) + count(right, f);
        }
        LogicalPlan::Batch { children } => {
            n += children.iter().map(|c| count(c, f)).sum::<usize>();
        }
    }
    n
}

#[test]
fn single_table_predicates_are_pushed_to_leaves() {
    let cat = catalog();
    let (ctx, plan) = lower_batch_sql(
        &cat,
        "select a_k from ta, tb where a_k = b_k and a_v < 5 and b_v > 2",
    )
    .unwrap();
    assert_columns_available(&ctx, &plan);
    // Two leaf filters (one per table), join pred on the join.
    let filters = count(&plan, &|p| matches!(p, LogicalPlan::Filter { .. }));
    assert_eq!(
        filters,
        2,
        "both local predicates must sit on leaves:\n{}",
        plan.display(&ctx)
    );
    let join_has_pred = count(
        &plan,
        &|p| matches!(p, LogicalPlan::Join { pred, .. } if !pred.is_true()),
    );
    assert_eq!(join_has_pred, 1);
}

#[test]
fn aggregate_collects_distinct_functions_once() {
    let cat = catalog();
    let (_, plan) = lower_batch_sql(
        &cat,
        "select a_k, sum(a_v) as s1, sum(a_v) as s2, count(*) as n from ta group by a_k",
    )
    .unwrap();
    // sum(a_v) referenced twice but collected once: 2 aggregate exprs.
    let mut found = false;
    plan_visit(&plan, &mut |p| {
        if let LogicalPlan::Aggregate { aggs, .. } = p {
            assert_eq!(aggs.len(), 2);
            found = true;
        }
    });
    assert!(found);
}

#[test]
fn sort_sits_below_project() {
    let cat = catalog();
    let (_, plan) = lower_batch_sql(&cat, "select a_k from ta order by a_v desc").unwrap();
    match &plan {
        LogicalPlan::Project { input, .. } => {
            assert!(matches!(input.as_ref(), LogicalPlan::Sort { .. }));
        }
        other => panic!("expected Project at root, got {other:?}"),
    }
}

#[test]
fn where_subquery_joins_below_aggregate() {
    let cat = catalog();
    let (ctx, plan) = lower_batch_sql(
        &cat,
        "select a_k, sum(a_v) as s from ta \
         where a_v > (select sum(b_v) / 10 from tb) group by a_k",
    )
    .unwrap();
    assert_columns_available(&ctx, &plan);
    // One aggregate for the outer group-by, one for the subquery; the
    // subquery's aggregate must be *below* the outer one (inside its input).
    let mut ok = false;
    plan_visit(&plan, &mut |p| {
        if let LogicalPlan::Aggregate { input, keys, .. } = p {
            if !keys.is_empty() {
                // outer aggregate: its input subtree must contain the
                // subquery aggregate.
                ok = count(input, &|q| matches!(q, LogicalPlan::Aggregate { .. })) == 1;
            }
        }
    });
    assert!(
        ok,
        "subquery aggregate must be below the outer aggregate:\n{}",
        plan.display(&ctx)
    );
}

#[test]
fn having_subquery_joins_above_aggregate() {
    let cat = catalog();
    let (ctx, plan) = lower_batch_sql(
        &cat,
        "select a_k, sum(a_v) as s from ta group by a_k \
         having sum(a_v) > (select sum(b_v) / 10 from tb)",
    )
    .unwrap();
    assert_columns_available(&ctx, &plan);
    // The HAVING filter sits above a join of (outer aggregate, subquery).
    let mut ok = false;
    plan_visit(&plan, &mut |p| {
        if let LogicalPlan::Filter { input, .. } = p {
            if let LogicalPlan::Join { left, right, .. } = input.as_ref() {
                let l_agg = matches!(left.as_ref(), LogicalPlan::Aggregate { .. });
                let r_agg = matches!(right.as_ref(), LogicalPlan::Aggregate { .. });
                ok |= l_agg && r_agg;
            }
        }
    });
    assert!(
        ok,
        "HAVING subquery must cross-join above the aggregate:\n{}",
        plan.display(&ctx)
    );
}

#[test]
fn date_literal_becomes_date_value() {
    let cat = catalog();
    let (_, plan) = lower_batch_sql(&cat, "select a_k from ta where a_d < '1996-07-01'").unwrap();
    let mut saw_date = false;
    plan_visit(&plan, &mut |p| {
        if let LogicalPlan::Filter { pred, .. } = p {
            pred.visit(&mut |s| {
                if let Scalar::Lit(cse_storage::Value::Date(_)) = s {
                    saw_date = true;
                }
            });
        }
    });
    assert!(saw_date, "string literal must coerce to a Date value");
}

#[test]
fn lowering_errors() {
    let cat = catalog();
    for bad in [
        "select * from ta group by a_k",             // star + group by
        "select sum(a_v) from ta group by sum(a_v)", // aggregate as key
        "select a_v from ta group by a_k",           // non-key non-aggregate
        "select a_k from ta where sum(a_v) > 1",     // aggregate in WHERE
        "select (select b_k from tb) from ta",       // non-aggregate subquery
    ] {
        assert!(lower_batch_sql(&cat, bad).is_err(), "must reject: {bad}");
    }
}

#[test]
fn batch_shares_one_context() {
    let cat = catalog();
    let (ctx, plan) = lower_batch_sql(&cat, "select a_k from ta; select a_v from ta;").unwrap();
    // Two statements, four+... two instances of ta, distinct rel ids.
    assert!(matches!(plan, LogicalPlan::Batch { .. }));
    assert_eq!(ctx.rels().count(), 2);
    assert_eq!(plan.rels().len(), 2);
}

fn plan_visit(plan: &LogicalPlan, f: &mut impl FnMut(&LogicalPlan)) {
    fn go(p: &LogicalPlan, f: &mut dyn FnMut(&LogicalPlan)) {
        f(p);
        match p {
            LogicalPlan::Get { .. } => {}
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Aggregate { input, .. } => go(input, f),
            LogicalPlan::Join { left, right, .. } => {
                go(left, f);
                go(right, f);
            }
            LogicalPlan::Batch { children } => {
                for c in children {
                    go(c, f);
                }
            }
        }
    }
    go(plan, f);
}
