//! Unit tests of the CSE costing mechanics (§5.2): usage-cost-only
//! charging at consumers, initial cost at the least common ancestor,
//! single-consumer discarding, and assembly-level spool collection.

use cse_algebra::{ColRef, LogicalPlan, PlanContext, Scalar};
use cse_cost::MODEL;
use cse_memo::{explore, ExploreConfig, GroupId, Memo};
use cse_optimizer::{bit, CseCandidate, CseId, Optimizer, PhysicalPlan, Substitute};
use cse_storage::{row, Catalog, DataType, Schema, Table, Value};

/// Two identical-shape joins (different instances) under a batch root,
/// with a CSE candidate covering both.
struct Fixture {
    memo: Memo,
    catalog: Catalog,
    root: GroupId,
    consumers: [GroupId; 2],
    candidate: CseCandidate,
    substitutes: Vec<Substitute>,
}

fn fixture(rows: usize) -> Fixture {
    // Catalog: two tables joined on k.
    let mut a = Table::new(
        "ta",
        Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]),
    );
    let mut b = Table::new(
        "tb",
        Schema::from_pairs(&[("k", DataType::Int), ("w", DataType::Int)]),
    );
    for i in 0..rows as i64 {
        a.push(row(vec![Value::Int(i), Value::Int(i * 2)])).unwrap();
        b.push(row(vec![Value::Int(i), Value::Int(i * 3)])).unwrap();
    }
    let mut catalog = Catalog::new();
    catalog.register_table(a).unwrap();
    catalog.register_table(b).unwrap();

    let mut ctx = PlanContext::new();
    let schema_a = catalog.table("ta").unwrap().schema().clone();
    let schema_b = catalog.table("tb").unwrap().schema().clone();
    let mk = |ctx: &mut PlanContext| {
        let blk = ctx.new_block();
        let ra = ctx.add_base_rel("ta", "ta", schema_a.clone(), blk);
        let rb = ctx.add_base_rel("tb", "tb", schema_b.clone(), blk);
        (
            LogicalPlan::get(ra).join(
                LogicalPlan::get(rb),
                Scalar::eq(Scalar::col(ra, 0), Scalar::col(rb, 0)),
            ),
            ra,
            rb,
        )
    };
    let (q1, a1, b1) = mk(&mut ctx);
    let (q2, a2, b2) = mk(&mut ctx);
    let mut memo = Memo::new(ctx);
    let g1 = memo.insert_plan(&q1);
    let g2 = memo.insert_plan(&q2);
    let root = memo.insert_plan(&LogicalPlan::Batch {
        children: vec![q1.clone(), q2],
    });
    memo.set_root(root);
    explore(&mut memo, &ExploreConfig::default());

    // Candidate: the q1 join itself (anchor space = q1's rels).
    let def_root = memo.insert_plan(&q1);
    assert_eq!(def_root, g1, "definition dedups onto consumer 1's group");
    let output: Vec<ColRef> = vec![ColRef::new(a1, 0), ColRef::new(a1, 1), ColRef::new(b1, 1)];
    let (est_rows, est_width) = (rows as f64, 24.0);
    let candidate = CseCandidate {
        id: CseId(0),
        def_root,
        output: output.clone(),
        est_rows,
        cw: MODEL.spool_write(est_rows, est_width),
        cr: MODEL.spool_read(est_rows, est_width),
        consumers: vec![g1, g2],
        lca: Some(root),
    };
    let substitutes = vec![
        Substitute {
            cse: CseId(0),
            consumer: g1,
            filter: None,
            reagg: None,
            output_map: output.iter().map(|c| (*c, Scalar::Col(*c))).collect(),
        },
        Substitute {
            cse: CseId(0),
            consumer: g2,
            filter: None,
            reagg: None,
            output_map: vec![
                (ColRef::new(a2, 0), Scalar::Col(ColRef::new(a1, 0))),
                (ColRef::new(a2, 1), Scalar::Col(ColRef::new(a1, 1))),
                (ColRef::new(b2, 1), Scalar::Col(ColRef::new(b1, 1))),
            ],
        },
    ];
    Fixture {
        memo,
        catalog,
        root,
        consumers: [g1, g2],
        candidate,
        substitutes,
    }
}

fn optimizer(f: &Fixture) -> Optimizer<'_> {
    Optimizer::new(&f.memo, &f.catalog)
}

#[test]
fn consumer_is_charged_usage_cost_only() {
    let f = fixture(1000);
    let mut opt = optimizer(&f);
    opt.register_candidates(vec![f.candidate.clone()], f.substitutes.clone());
    // Optimizing a consumer *below* the LCA with the candidate enabled:
    // the chosen plan uses the spool and carries an uncharged usage count.
    let choice = opt.optimize_group(f.consumers[1], bit(CseId(0)));
    assert!(matches!(opt.extract(&choice), PhysicalPlan::CseRead { .. }));
    assert_eq!(choice.usage.get(CseId(0)), 1);
    assert!(choice.charged.is_empty());
    // Usage cost (spool read) must be far below recomputing the join.
    let baseline = opt.optimize_group(f.consumers[1], 0);
    assert!(choice.cost < baseline.cost);
}

#[test]
fn initial_cost_added_at_lca_with_two_consumers() {
    let f = fixture(1000);
    let mut opt = optimizer(&f);
    opt.register_candidates(vec![f.candidate.clone()], f.substitutes.clone());
    let with = opt.optimize_group(f.root, bit(CseId(0)));
    // Both consumers share; the CSE is charged (moved to `charged`) with
    // the definition winner its spool is extracted from.
    let charged: Vec<CseId> = with.charged.iter().map(|(e, _)| *e).collect();
    assert_eq!(charged, [CseId(0)], "usage: {:?}", with.usage);
    assert!(with.usage.is_empty());
    assert_eq!(opt.extract(&with).cse_reads().get(&CseId(0)), Some(&2));
    let without = opt.optimize_group(f.root, 0);
    assert!(
        with.cost < without.cost,
        "sharing must win: {} vs {}",
        with.cost,
        without.cost
    );
}

#[test]
fn single_consumer_plans_are_discarded() {
    let f = fixture(1000);
    let mut opt = optimizer(&f);
    // Register with only ONE substitute: the second consumer cannot use
    // the spool, so any plan would have usage 1 and must be discarded at
    // the LCA in favour of the no-CSE plan.
    let subs = vec![f.substitutes[0].clone()];
    opt.register_candidates(vec![f.candidate.clone()], subs);
    let with = opt.optimize_group(f.root, bit(CseId(0)));
    let without = opt.optimize_group(f.root, 0);
    assert_eq!(
        with.cost, without.cost,
        "single-consumer spool must not survive"
    );
    assert!(with.usage.is_empty());
    assert!(with.charged.is_empty());
    assert!(opt.extract(&with).cse_reads().is_empty());
}

#[test]
fn optimize_full_collects_spool_definitions() {
    let f = fixture(1000);
    let mut opt = optimizer(&f);
    opt.register_candidates(vec![f.candidate.clone()], f.substitutes.clone());
    let full = opt.optimize_full(f.root, bit(CseId(0)));
    assert_eq!(full.spools.len(), 1);
    let spool = full.spools.get(&CseId(0)).unwrap();
    assert_eq!(spool.layout, f.candidate.output);
    assert_eq!(full.root.cse_reads().get(&CseId(0)), Some(&2));
}

#[test]
fn expensive_spools_are_declined() {
    // When materialization is expensive (e.g. a write-through work table),
    // the optimizer must decline the CSE and recompute instead — the
    // "may conclude that the most efficient solution is not to use any
    // CSEs at all" case of §2.2.
    // C_W and C_R here are those of 10 cost units a byte.
    let f = fixture(1000);
    let expensive = CseCandidate {
        cw: 1000.0 + 1000.0 * 24.0 * 10.0,
        cr: 500.0 + 1000.0 * 24.0 * 10.0,
        ..f.candidate.clone()
    };
    let mut opt = optimizer(&f);
    opt.register_candidates(vec![expensive], f.substitutes.clone());
    let full = opt.optimize_full(f.root, bit(CseId(0)));
    let baseline = opt.optimize_full(f.root, 0);
    assert_eq!(full.cost, baseline.cost);
    assert!(full.spools.is_empty(), "expensive spool must be declined");
}

#[test]
fn history_reuse_skips_unrelated_groups() {
    let f = fixture(1000);
    let mut opt = optimizer(&f);
    opt.register_candidates(vec![f.candidate.clone()], f.substitutes.clone());
    opt.optimize_group(f.root, 0);
    let after_baseline = opt.group_optimizations;
    // Optimizing with the candidate enabled re-optimizes only groups with
    // potential consumers below them (§5.4): strictly fewer than a full
    // second pass.
    opt.optimize_group(f.root, bit(CseId(0)));
    let delta = opt.group_optimizations - after_baseline;
    assert!(
        delta < after_baseline,
        "history reuse failed: {delta} re-optimizations vs {after_baseline} initial"
    );
}
