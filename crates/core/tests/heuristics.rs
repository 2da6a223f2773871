//! Unit-level tests of the generation heuristics (§4.3) against synthetic
//! catalogs where each heuristic's firing condition is controlled, and the
//! oracle for Algorithm 1's costing: every candidate it emits — on the
//! paper's batches, the scale-up batches and the generated batches — is
//! what constructing and costing its member set afresh gives.

#[path = "../../../tests/batchgen/mod.rs"]
mod batchgen;

use cse_algebra::{CmpOp, LogicalPlan, PlanContext, Scalar};
use cse_bench::workloads;
use cse_core::candidates::{
    cost_candidate, create_candidates, h1_worthwhile, h2_filter_consumers, h4_prune_contained,
    shared_cost, CostedCandidate, CostedShape, Extent,
};
use cse_core::{
    compute_required, construct, optimize_sql, partition_compatible, prepare_consumers,
    Construction, CostBounds, CseConfig, CseManager, PhaseCtx, PreparedConsumer, RequiredCols,
};
use cse_govern::BudgetClock;
use cse_memo::{explore, ExploreConfig, GroupId, Memo, TableSignature};
use cse_optimizer::Optimizer;
use cse_storage::{row, Catalog, DataType, Schema, Table, Value};
use cse_tpch::{generate_catalog, TpchConfig};
use std::collections::HashMap;

/// Catalog with two tables of `n` rows each.
fn catalog(n: i64) -> Catalog {
    let mut a = Table::new(
        "ta",
        Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]),
    );
    let mut b = Table::new(
        "tb",
        Schema::from_pairs(&[("k", DataType::Int), ("w", DataType::Int)]),
    );
    for i in 0..n {
        a.push(row(vec![Value::Int(i), Value::Int(i % 10)]))
            .unwrap();
        b.push(row(vec![Value::Int(i), Value::Int(i % 7)])).unwrap();
    }
    let mut cat = Catalog::new();
    cat.register_table(a).unwrap();
    cat.register_table(b).unwrap();
    cat
}

/// Memo with two similar joins (different filter bounds) + batch root.
fn memo_two_joins(catalog: &Catalog) -> (Memo, Vec<GroupId>) {
    memo_joins(catalog, &[5, 8])
}

/// Memo with one `ta ⋈ tb` join per filter bound in `his` + batch root.
fn memo_joins(catalog: &Catalog, his: &[i64]) -> (Memo, Vec<GroupId>) {
    let joins: Vec<(i64, bool)> = his.iter().map(|&hi| (hi, false)).collect();
    memo_joins_on(catalog, &joins)
}

/// [`memo_joins`], where a join flagged `true` also equates `ta.v = tb.w`.
fn memo_joins_on(catalog: &Catalog, joins: &[(i64, bool)]) -> (Memo, Vec<GroupId>) {
    let mut ctx = PlanContext::new();
    let sa = catalog.table("ta").unwrap().schema().clone();
    let sb = catalog.table("tb").unwrap().schema().clone();
    let mk = |ctx: &mut PlanContext, hi: i64, extra: bool| {
        let blk = ctx.new_block();
        let a = ctx.add_base_rel("ta", "ta", sa.clone(), blk);
        let b = ctx.add_base_rel("tb", "tb", sb.clone(), blk);
        let mut on = vec![Scalar::eq(Scalar::col(a, 0), Scalar::col(b, 0))];
        if extra {
            on.push(Scalar::eq(Scalar::col(a, 1), Scalar::col(b, 1)));
        }
        LogicalPlan::get(a)
            .filter(Scalar::cmp(CmpOp::Lt, Scalar::col(a, 1), Scalar::int(hi)))
            .join(LogicalPlan::get(b), Scalar::and(on))
            .project(vec![
                ("k".into(), Scalar::col(a, 0)),
                ("w".into(), Scalar::col(b, 1)),
            ])
    };
    let children = joins.iter().map(|&(hi, e)| mk(&mut ctx, hi, e)).collect();
    let mut memo = Memo::new(ctx);
    let root = memo.insert_plan(&LogicalPlan::Batch { children });
    memo.set_root(root);
    explore(&mut memo, &ExploreConfig::default());
    let mgr = CseManager::build(&memo);
    let sets = mgr.sharable_sets();
    assert_eq!(sets.len(), 1);
    (memo, sets.into_iter().next().unwrap().1)
}

/// Owner of what a [`PhaseCtx`] borrows: default configuration, the
/// catalog, an unlimited clock, and the bounds a test dictates.
struct Phase {
    cfg: CseConfig,
    catalog: Catalog,
    clock: BudgetClock,
    bounds: CostBounds,
    required: RequiredCols,
    manager: CseManager,
    sharable: Vec<(TableSignature, Vec<GroupId>)>,
}

impl Phase {
    fn new(cat: &Catalog, memo: &Memo, bounds: CostBounds) -> Self {
        let manager = CseManager::build(memo);
        Phase {
            cfg: CseConfig::default(),
            catalog: cat.clone(),
            clock: BudgetClock::unlimited(),
            bounds,
            required: compute_required(memo, &[memo.root()]),
            sharable: manager.sharable_sets(),
            manager,
        }
    }

    fn ctx(&self) -> PhaseCtx<'_> {
        PhaseCtx {
            cfg: &self.cfg,
            catalog: &self.catalog,
            clock: &self.clock,
            bounds: &self.bounds,
            required: &self.required,
            manager: &self.manager,
            sharable: &self.sharable,
        }
    }
}

#[test]
fn h1_rejects_cheap_sets_and_accepts_expensive_ones() {
    let bounds = CostBounds::new(HashMap::from([(GroupId(1), 10.0), (GroupId(2), 15.0)]));
    // Query cost 1000, alpha 10%: 25 < 100 -> reject.
    assert!(!h1_worthwhile(
        &bounds,
        &[GroupId(1), GroupId(2)],
        1000.0,
        0.10
    ));
    // Query cost 200: 25 >= 20 -> accept.
    assert!(h1_worthwhile(
        &bounds,
        &[GroupId(1), GroupId(2)],
        200.0,
        0.10
    ));
}

#[test]
fn shared_cost_includes_all_three_components() {
    let cat = catalog(500);
    let (mut memo, consumers) = memo_two_joins(&cat);
    let bounds = CostBounds::new(HashMap::from([
        (consumers[0], 100.0),
        (consumers[1], 150.0),
    ]));
    let phase = Phase::new(&cat, &memo, bounds);
    let prepared = prepare_consumers(&memo, &consumers);
    let sig = memo
        .signature_of(consumers[0])
        .expect("consumer has signature")
        .clone();
    let cse = construct(&mut memo, prepared, &phase.required).unwrap();
    let costed = cost_candidate(&memo, &phase.ctx(), sig, cse);
    let sc = shared_cost(&costed);
    let costed = costed.cost;
    // ce_lower = max of member bounds = 150.
    assert_eq!(costed.ce_lower, 150.0);
    assert!(costed.cw > 0.0);
    assert!(costed.cr > 0.0);
    assert!(
        costed.cr < costed.cw,
        "reading must be cheaper than writing"
    );
    assert!(
        (sc - (costed.ce_lower + costed.cw + 2.0 * costed.cr)).abs() < 1e-9,
        "shared cost formula"
    );
}

#[test]
fn h4_discards_contained_candidate_with_larger_result() {
    let cat = catalog(500);
    let (mut memo, consumers) = memo_two_joins(&cat);
    let phase = Phase::new(&cat, &memo, CostBounds::default());
    let mgr = &phase.manager;
    let sig = memo.signature_of(consumers[0]).unwrap().clone();
    let prepared = prepare_consumers(&memo, &consumers);
    let cse = construct(&mut memo, prepared, &phase.required).unwrap();
    // Two copies of the same candidate: mutually contained, equal size —
    // with β=0.9, size_c > 0.9·size_p holds, so one dies.
    let c = cost_candidate(&memo, &phase.ctx(), sig.clone(), cse);
    let consumers: Vec<GroupId> = c.cse.members.iter().map(|m| m.group).collect();
    let extent = || Extent {
        signature: &sig,
        consumers: &consumers,
        bytes: c.cost.est_rows * c.cost.est_width,
    };
    let (a, b) = (extent(), extent());
    let kept = h4_prune_contained(mgr, &[a, b], 0.90);
    assert_eq!(
        kept,
        [false, true],
        "one of two identical candidates must die"
    );
    // With β above 1.0 nothing dies (a candidate is never bigger than
    // itself times >1).
    let kept = h4_prune_contained(mgr, &[extent(), extent()], 1.5);
    assert_eq!(kept, [true, true]);
}

/// Algorithm 1's shapes over `build`'s members, completed.
fn completed(
    shapes: Vec<CostedShape>,
    build: &Construction,
    sig: &TableSignature,
) -> Vec<CostedCandidate> {
    let complete = |c: CostedShape| c.build(build.members(), sig.clone()).expect("completes");
    shapes.into_iter().map(complete).collect()
}

/// `got`, a candidate Algorithm 1 emitted, must be what constructing and
/// costing its member set afresh gives: field for field, and every
/// cost ingredient bit for bit.
fn assert_rebuilt(memo: &mut Memo, ctx: &PhaseCtx, got: &CostedCandidate, what: &str) {
    let fresh = construct(memo, got.cse.members.clone(), ctx.required)
        .unwrap_or_else(|| panic!("{what}: the member set does not construct"));
    let fresh = cost_candidate(memo, ctx, got.signature.clone(), fresh);
    let groups = |c: &CostedCandidate| c.cse.members.iter().map(|m| m.group).collect::<Vec<_>>();
    assert_eq!(groups(got), groups(&fresh), "{what}: members");
    assert_eq!(got.cse.plan, fresh.cse.plan, "{what}: plan");
    let (a, b) = (&got.cse.shape, &fresh.cse.shape);
    assert_eq!(a.covering, b.covering, "{what}: covering");
    assert_eq!(a.output, b.output, "{what}: output");
    assert_eq!(a.group, b.group, "{what}: group");
    assert_eq!(a.simplified, b.simplified, "{what}: simplified");
    assert_eq!(a.join_classes, b.join_classes, "{what}: join classes");
    assert_eq!(a, b, "{what}: shape");
    let costs = |c: &CostedCandidate| {
        let c = c.cost;
        [c.est_rows, c.est_width, c.cw, c.cr, c.ce_lower].map(f64::to_bits)
    };
    assert_eq!(
        costs(got),
        costs(&fresh),
        "{what}: rows, width, C_W, C_R, C_E"
    );
}

#[test]
fn algorithm1_candidate_is_its_member_set_constructed_and_costed() {
    // Algorithm 1 hands out the winning trial of its last merge round; that
    // must be exactly what constructing and costing the merged member set
    // from scratch gives, over two merge rounds.
    let cat = catalog(500);
    let (mut memo, consumers) = memo_joins(&cat, &[3, 5, 8]);
    let bounds = CostBounds::new(consumers.iter().map(|&g| (g, 1e6)).collect());
    let phase = Phase::new(&cat, &memo, bounds);
    let sig = memo.signature_of(consumers[0]).unwrap().clone();
    let prepared = prepare_consumers(&memo, &consumers);
    let groups = partition_compatible(prepared);
    assert_eq!(groups.len(), 1, "the three joins are join-compatible");
    let group = &groups[0];
    let build = Construction::new(&group.members, &group.intersected_classes, &phase.required);
    let mut trials = 0;
    let ctx = phase.ctx();
    let out = create_candidates(&mut memo, &ctx, &build, vec![0, 1, 2], &mut trials);
    let out = completed(out.unwrap(), &build, &sig);
    assert_eq!(out.len(), 1, "expensive consumers merge into one candidate");
    assert_eq!(out[0].cse.members.len(), 3);
    // Two trials in the first round, one in the second.
    assert_eq!(trials, 3);
    assert_rebuilt(&mut memo, &ctx, &out[0], "three joins");
    assert_eq!(shared_cost(&out[0]), {
        let c = &out[0].cost;
        c.ce_lower + c.cw + 3.0 * c.cr
    });
}

#[test]
fn a_trial_whose_classes_differ_from_its_group_recomputes_its_branches() {
    // Two joins also equate ta.v = tb.w, one does not: the group's classes
    // are {k} alone, while a trial over the first two joins {k} and {v, w}.
    // Its step-2 predicates lose the equality the group's branches keep, so
    // a trial that reused them would cover a different predicate.
    let cat = catalog(500);
    let (mut memo, consumers) = memo_joins_on(&cat, &[(8, false), (3, true), (5, true)]);
    let prepared = prepare_consumers(&memo, &consumers);
    let groups = partition_compatible(prepared);
    assert_eq!(groups.len(), 1, "the three joins are join-compatible");
    let members = &groups[0].members;
    let (extra, plain): (Vec<usize>, Vec<usize>) =
        (0..members.len()).partition(|&i| members[i].classes.len() == 2);
    assert_eq!((extra.len(), plain.len()), (2, 1));
    // The joins with the extra equality are worth sharing; the plain one
    // costs next to nothing alone, so merging it never pays.
    let bound = |i: usize| if extra.contains(&i) { 1e6 } else { 1.0 };
    let bounds = (0..members.len()).map(|i| (members[i].group, bound(i)));
    let phase = Phase::new(&cat, &memo, CostBounds::new(bounds.collect()));
    let sig = memo.signature_of(consumers[0]).unwrap().clone();
    let group_classes = &groups[0].intersected_classes;
    let build = Construction::new(members, group_classes, &phase.required);
    let set: Vec<usize> = extra.iter().chain(&plain).copied().collect();
    let (ctx, mut trials) = (phase.ctx(), 0);
    let out = create_candidates(&mut memo, &ctx, &build, set, &mut trials).unwrap();
    let out = completed(out, &build, &sig);
    assert_eq!(out.len(), 1);
    let got = &out[0];
    let groups_of = |ids: &[usize]| ids.iter().map(|&i| members[i].group).collect::<Vec<_>>();
    let kept: Vec<GroupId> = got.cse.members.iter().map(|m| m.group).collect();
    assert_eq!(kept, groups_of(&extra), "the plain join stays out");
    assert_eq!(got.cse.shape.join_classes.len(), 2);
    assert_ne!(&got.cse.shape.join_classes, group_classes);
    assert_rebuilt(&mut memo, &ctx, got, "extra equality");
}

/// What the pipeline's generation does for one batch, H1 aside (it only
/// drops whole sets, so every candidate the pipeline emits is among these):
/// one representative per normal form, compatible groups, H2, Algorithm 1.
/// Every candidate is checked with [`assert_rebuilt`]; returns how many.
fn check_generation(catalog: &Catalog, sql: &str, what: &str) -> usize {
    let (plan_ctx, plan) = cse_sql::lower_batch_sql(catalog, sql).expect("batch lowers");
    let mut memo = Memo::new(plan_ctx);
    let root = memo.insert_plan(&plan);
    memo.set_root(root);
    explore(&mut memo, &ExploreConfig::default());
    let mut normal = Optimizer::new(&memo, catalog);
    let costs = memo
        .groups()
        .map(|g| (g.id, normal.optimize_group(g.id, 0).cost));
    let bounds = CostBounds::new(costs.collect());
    drop(normal);
    let phase = Phase::new(catalog, &memo, bounds);
    let ctx = phase.ctx();
    let mut checked = 0;
    for (sig, consumers) in &phase.sharable {
        let mut unique: Vec<PreparedConsumer> = Vec::new();
        for p in prepare_consumers(&memo, consumers) {
            if !unique.iter().any(|u| u.normal == p.normal) {
                unique.push(p);
            }
        }
        for g in partition_compatible(unique) {
            let build = Construction::new(&g.members, &g.intersected_classes, ctx.required);
            let mut trials = 0;
            let set = h2_filter_consumers(&mut memo, &ctx, &build, &mut trials);
            let out = create_candidates(&mut memo, &ctx, &build, set, &mut trials);
            for got in completed(out.expect("no budget"), &build, sig) {
                checked += 1;
                assert_rebuilt(
                    &mut memo,
                    &ctx,
                    &got,
                    &format!("{what}, candidate {checked}"),
                );
            }
        }
    }
    checked
}

#[test]
fn every_candidate_algorithm1_emits_is_its_member_set_built_afresh() {
    let tpch = generate_catalog(&TpchConfig::new(0.01));
    let mut paper = vec![
        ("table1".to_string(), workloads::table1_batch()),
        ("table2".to_string(), workloads::table2_batch()),
        ("table3".to_string(), workloads::NESTED.to_string()),
        ("table4".to_string(), workloads::complex_join_batch()),
    ];
    paper.extend((2..=10).map(|n| (format!("scaleup{n}"), workloads::scaleup_batch(n))));
    let from_paper: usize = paper
        .iter()
        .map(|(name, sql)| check_generation(&tpch, sql, name))
        .sum();
    let generated: usize = batchgen::fixed_seeds()
        .map(|seed| {
            let mut rng = batchgen::stream(seed);
            let catalog = batchgen::gen_catalog(&mut rng);
            let batch = batchgen::gen_batch(&mut rng);
            check_generation(&catalog, &batchgen::sql_of(&batch), &format!("seed {seed}"))
        })
        .sum();
    assert!(
        from_paper >= 100 && generated >= 200,
        "checked {from_paper} paper and {generated} generated candidates"
    );
}

/// Table 1 and Table 4 at the report's scale: how many shapes H2 and
/// Algorithm 1 cost. A change to the search shows here as a count.
#[test]
fn generation_trials_are_pinned_on_tables_1_and_4() {
    let tpch = generate_catalog(&TpchConfig::new(0.01));
    let trials = |sql: &str| {
        let o = optimize_sql(&tpch, sql, &CseConfig::default()).expect("optimizes");
        o.report.trials
    };
    assert_eq!(trials(&workloads::table1_batch()), 24);
    // 74 trivial candidates for H2, 28 merge trials.
    assert_eq!(trials(&workloads::complex_join_batch()), 102);
}

#[test]
fn construct_output_covers_compensation_columns() {
    let cat = catalog(200);
    let (mut memo, consumers) = memo_two_joins(&cat);
    let required = compute_required(&memo, &[memo.root()]);
    let prepared = prepare_consumers(&memo, &consumers);
    let cse = construct(&mut memo, prepared, &required).unwrap();
    // The differing filter column (ta.v, aligned to the anchor's rel) must
    // be materialized so consumers can compensate.
    for simp in &cse.shape.simplified {
        for conj in simp.conjuncts() {
            if !cse_algebra::implies(&cse.shape.covering, &conj) {
                for c in conj.columns() {
                    assert!(
                        cse.shape.output.contains(&c),
                        "compensation column {c} missing from spool output"
                    );
                }
            }
        }
    }
    // Covering is the range hull: v < 8 (the wider of 5 and 8).
    assert!(!cse.shape.covering.is_true());
    let ranges = cse_algebra::column_ranges(&cse.shape.covering);
    let (_, iv) = ranges.iter().next().expect("hull range");
    assert_eq!(iv.hi.as_ref().unwrap().0, Value::Int(8));
}

#[test]
fn trivial_construct_matches_consumer() {
    let cat = catalog(100);
    let (mut memo, consumers) = memo_two_joins(&cat);
    let required = compute_required(&memo, &[memo.root()]);
    let prepared = prepare_consumers(&memo, &consumers);
    let one = vec![prepared[0].clone()];
    let cse = construct(&mut memo, one, &required).unwrap();
    assert_eq!(cse.members.len(), 1);
    // Trivial CSE's covering predicate is the consumer's own filter.
    assert!(cse_algebra::implies(
        &cse.members[0].normal.spj.predicate(),
        &cse.shape.covering
    ));
}
