//! Property-based tests over the core invariants, driven by the in-repo
//! deterministic generator (`cse_storage::testkit::TestRng`):
//!
//! - scalar normalization preserves evaluation semantics and is idempotent;
//! - proven implications hold on every concrete row, and one prepared
//!   antecedent proves what a fresh one per right side proves;
//! - covering predicates constructed from branch predicates are implied by
//!   every branch and hold on every row any branch accepts;
//! - `RelSet` behaves like a set of integers;
//! - three-valued logic laws.

use similar_subexpr::algebra::{
    column_ranges, implies, Antecedent, CmpOp, ColRef, RelId, RelSet, Scalar,
};
use similar_subexpr::core::simplify_covering;
use similar_subexpr::storage::testkit::TestRng;
use similar_subexpr::storage::Value;

const NCOLS: u16 = 4;
const CASES: usize = 300;

/// Every generated expression reads columns of `layout()` only.
fn eval(s: &Scalar, cols: &[ColRef], row: &[Value]) -> Value {
    let bound = similar_subexpr::exec::Bound::bind(s, cols, "test");
    let bound = bound.expect("generated columns are in the layout");
    bound.eval(row).into_owned()
}

fn layout() -> Vec<ColRef> {
    (0..NCOLS).map(|i| ColRef::new(RelId(0), i)).collect()
}

/// Values of every comparison class `sql_cmp` knows: INT, FLOAT and DATE
/// compare numerically with each other, STRING only with STRING, NULL with
/// nothing.
fn gen_value(rng: &mut TestRng) -> Value {
    match rng.range_usize(0, 9) {
        0 => Value::Null,
        1 | 2 => Value::Float(rng.range_i64(-40, 40) as f64 / 2.0),
        3 => Value::Date(rng.range_i64(-20, 20) as i32),
        4 => Value::str(*rng.pick(&["", "-3", "7", "abc", "1994-13-40"])),
        _ => Value::Int(rng.range_i64(-20, 20)),
    }
}

/// A comparison literal: mostly small integers, now and then any value.
fn gen_literal(rng: &mut TestRng) -> Scalar {
    if rng.chance(0.7) {
        Scalar::int(rng.range_i64(-10, 10))
    } else {
        Scalar::Lit(gen_value(rng))
    }
}

fn gen_row(rng: &mut TestRng) -> Vec<Value> {
    (0..NCOLS).map(|_| gen_value(rng)).collect()
}

fn gen_cmp_op(rng: &mut TestRng) -> CmpOp {
    *rng.pick(&[
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ])
}

/// Random predicates over columns of rel 0 and literals of every class.
fn gen_scalar(rng: &mut TestRng, depth: usize) -> Scalar {
    if depth == 0 || rng.chance(0.4) {
        // Leaf: column-vs-literal or column-vs-column comparison.
        if rng.chance(0.7) {
            let c = rng.range_i64(0, NCOLS as i64) as u16;
            Scalar::cmp(gen_cmp_op(rng), Scalar::col(RelId(0), c), gen_literal(rng))
        } else {
            let a = rng.range_i64(0, NCOLS as i64) as u16;
            let b = rng.range_i64(0, NCOLS as i64) as u16;
            Scalar::eq(Scalar::col(RelId(0), a), Scalar::col(RelId(0), b))
        }
    } else {
        match rng.range_usize(0, 3) {
            0 => {
                let n = rng.range_usize(1, 4);
                Scalar::and(
                    (0..n)
                        .map(|_| gen_scalar(rng, depth - 1))
                        .collect::<Vec<_>>(),
                )
            }
            1 => {
                let n = rng.range_usize(1, 4);
                Scalar::or(
                    (0..n)
                        .map(|_| gen_scalar(rng, depth - 1))
                        .collect::<Vec<_>>(),
                )
            }
            _ => Scalar::Not(Box::new(gen_scalar(rng, depth - 1))),
        }
    }
}

#[test]
fn normalize_preserves_evaluation() {
    let mut rng = TestRng::new(0xA11CE);
    let l = layout();
    for _ in 0..CASES {
        let p = gen_scalar(&mut rng, 3);
        let row = gen_row(&mut rng);
        let before = eval(&p, &l, &row);
        let after = eval(&p.normalize(), &l, &row);
        assert_eq!(before, after, "normalization changed semantics of {p}");
    }
}

#[test]
fn normalize_is_idempotent() {
    // The premise `Antecedent` rests on: a normalized predicate, and every
    // sub-term of it, is its own normal form.
    let mut rng = TestRng::new(0xB0B);
    for _ in 0..CASES {
        let p = gen_scalar(&mut rng, 3);
        let n1 = p.normalize();
        let n2 = n1.normalize();
        assert_eq!(n1, n2);
        n1.visit(&mut |sub| assert_eq!(&sub.normalize(), sub, "in {n1}"));
    }
}

#[test]
fn implication_reads_its_antecedent_normalized_once() {
    // Proving from `p` or from its normal form is the same proof, and one
    // `Antecedent` answers every right side as a fresh one would.
    let mut rng = TestRng::new(0xA7E);
    for _ in 0..CASES / 10 {
        let p = gen_scalar(&mut rng, 3);
        let once = Antecedent::new(&p);
        for _ in 0..50 {
            let q = gen_scalar(&mut rng, 2);
            let fresh = implies(&p, &q);
            assert_eq!(implies(&p.normalize(), &q), fresh, "{p} => {q}");
            assert_eq!(once.implies(&q), fresh, "{p} => {q}");
        }
        // Each of its own atoms is implied: the reused antecedent must
        // prove something, not only agree on refusals.
        for c in p.normalize().conjuncts() {
            if !matches!(c, Scalar::And(_) | Scalar::Or(_)) {
                assert!(once.implies(&c), "{p} => {c}");
            }
        }
    }
}

#[test]
fn implication_is_sound() {
    // If the checker proves p ⇒ q, then every row accepting p accepts q.
    let mut rng = TestRng::new(0xC0FFEE);
    let l = layout();
    for _ in 0..CASES {
        let p = gen_scalar(&mut rng, 3);
        let q = gen_scalar(&mut rng, 3);
        let rows: Vec<Vec<Value>> = (0..24).map(|_| gen_row(&mut rng)).collect();
        if implies(&p, &q) {
            for row in &rows {
                if eval(&p, &l, row) == Value::Bool(true) {
                    assert_eq!(
                        eval(&q, &l, row),
                        Value::Bool(true),
                        "claimed {p} implies {q} but row {row:?} violates it"
                    );
                }
            }
        }
    }
}

#[test]
fn covering_accepts_every_branch_row() {
    // simplify_covering produces a weakening of the OR of the branches:
    // any row accepted by some branch must be accepted by the covering.
    let mut rng = TestRng::new(0xD00D);
    let l = layout();
    for _ in 0..CASES {
        let n = rng.range_usize(1, 4);
        let normalized: Vec<Scalar> = (0..n)
            .map(|_| gen_scalar(&mut rng, 3).normalize())
            .collect();
        let covering = simplify_covering(&normalized);
        let rows: Vec<Vec<Value>> = (0..24).map(|_| gen_row(&mut rng)).collect();
        for row in &rows {
            let any_branch = normalized
                .iter()
                .any(|b| eval(b, &l, row) == Value::Bool(true));
            if any_branch {
                assert_eq!(
                    eval(&covering, &l, row),
                    Value::Bool(true),
                    "covering {covering} rejects a row a branch accepts"
                );
            }
        }
    }
}

#[test]
fn column_ranges_are_sound() {
    // A row the predicate accepts is contained by every extracted interval.
    let mut rng = TestRng::new(0xE66);
    let l = layout();
    for _ in 0..CASES * 4 {
        let p = gen_scalar(&mut rng, 3);
        let row = gen_row(&mut rng);
        if eval(&p, &l, &row) != Value::Bool(true) {
            continue;
        }
        for (col, iv) in column_ranges(&p) {
            assert!(
                iv.contains(&row[col.col as usize]),
                "{p} accepts {row:?} outside its range {iv:?} on {col}"
            );
        }
    }
}

#[test]
fn index_scan_equals_filtered_table_scan() {
    // Conjunctions of col-vs-literal atoms over nullable, indexed columns of
    // every type: whatever interval the optimizer hands the B-tree, the
    // rows are the ones a full scan under the same predicate returns.
    use similar_subexpr::algebra::{LogicalPlan, PlanContext};
    use similar_subexpr::optimizer::PhysicalPlan;
    use similar_subexpr::prelude::*;
    use similar_subexpr::storage::{row, ColumnDef, DataType, Schema};

    let mut rng = TestRng::new(0x1DE);
    let types = [
        DataType::Int,
        DataType::Float,
        DataType::Date,
        DataType::Str,
    ];
    let schema = Schema::new(
        (types.iter().zip(["i", "f", "d", "s"]))
            .map(|(ty, name)| ColumnDef::new(name, *ty).nullable())
            .collect(),
    );
    let mut t = Table::new("t", schema);
    for _ in 0..400 {
        let typed = types.map(|ty| loop {
            let v = gen_value(&mut rng);
            if v.is_null() || v.data_type() == Some(ty) {
                break v;
            }
        });
        t.push(row(typed.to_vec())).unwrap();
    }
    let mut plain = Catalog::new();
    plain.register_table(t).unwrap();
    let mut indexed = plain.clone();
    for name in ["i", "f", "d", "s"] {
        indexed.create_btree_index("t", name).unwrap();
    }

    let run = |catalog: &Catalog, pred: &Scalar| {
        let mut ctx = PlanContext::new();
        let block = ctx.new_block();
        let schema = catalog.table("t").unwrap().schema().clone();
        let rel = ctx.add_base_rel("t", "t", schema, block);
        assert_eq!(rel, RelId(0), "generated predicates read rel 0");
        let plan = LogicalPlan::get(rel).filter(pred.clone());
        let o = similar_subexpr::core::optimize_plan(catalog, ctx, plan, &CseConfig::default())
            .unwrap();
        let by_index = matches!(o.plan.root, PhysicalPlan::IndexRangeScan { .. });
        let out = Engine::new(catalog, &o.ctx).execute(&o.plan).unwrap();
        (out.results.into_iter().next().unwrap(), by_index)
    };
    let mut index_plans = 0;
    for _ in 0..CASES {
        let col = Scalar::col(RelId(0), rng.range_i64(0, NCOLS as i64) as u16);
        let atoms: Vec<Scalar> = (0..rng.range_usize(1, 4))
            .map(|_| Scalar::cmp(gen_cmp_op(&mut rng), col.clone(), gen_literal(&mut rng)))
            .collect();
        let pred = Scalar::and(atoms);
        let (want, _) = run(&plain, &pred);
        let (got, by_index) = run(&indexed, &pred);
        index_plans += by_index as usize;
        assert!(
            want.approx_eq(&got, 1e-12),
            "{pred}: {} rows by scan, {} with indexes (index scan: {by_index})",
            want.rows.len(),
            got.rows.len()
        );
    }
    assert!(index_plans > CASES / 4, "only {index_plans} index scans");
}

#[test]
fn relset_models_integer_set() {
    let mut rng = TestRng::new(0xF00);
    for _ in 0..CASES {
        let mut ids: std::collections::BTreeSet<u32> = Default::default();
        let mut other: std::collections::BTreeSet<u32> = Default::default();
        for _ in 0..rng.range_usize(0, 20) {
            ids.insert(rng.range_i64(0, 256) as u32);
        }
        for _ in 0..rng.range_usize(0, 20) {
            other.insert(rng.range_i64(0, 256) as u32);
        }
        let a = RelSet::from_iter(ids.iter().map(|&i| RelId(i)));
        let b = RelSet::from_iter(other.iter().map(|&i| RelId(i)));
        assert_eq!(a.len(), ids.len());
        let union: std::collections::BTreeSet<u32> = ids.union(&other).copied().collect();
        let inter: std::collections::BTreeSet<u32> = ids.intersection(&other).copied().collect();
        let diff: std::collections::BTreeSet<u32> = ids.difference(&other).copied().collect();
        assert_eq!(
            a.union(b).iter().map(|r| r.0).collect::<Vec<_>>(),
            union.into_iter().collect::<Vec<_>>()
        );
        assert_eq!(
            a.intersect(b).iter().map(|r| r.0).collect::<Vec<_>>(),
            inter.into_iter().collect::<Vec<_>>()
        );
        assert_eq!(
            a.difference(b).iter().map(|r| r.0).collect::<Vec<_>>(),
            diff.into_iter().collect::<Vec<_>>()
        );
        assert_eq!(a.is_subset(b), ids.is_subset(&other));
    }
}

#[test]
fn three_valued_de_morgan() {
    // NOT (p AND q) ≡ (NOT p) OR (NOT q) under 3VL.
    let mut rng = TestRng::new(0x3A1);
    let l = layout();
    for _ in 0..CASES {
        let p = gen_scalar(&mut rng, 3);
        let q = gen_scalar(&mut rng, 3);
        let row = gen_row(&mut rng);
        let lhs = eval(
            &Scalar::Not(Box::new(Scalar::and([p.clone(), q.clone()]))),
            &l,
            &row,
        );
        let rhs = eval(
            &Scalar::or([Scalar::Not(Box::new(p)), Scalar::Not(Box::new(q))]),
            &l,
            &row,
        );
        assert_eq!(lhs, rhs);
    }
}

#[test]
fn date_roundtrip() {
    let mut rng = TestRng::new(0xDA7E);
    for _ in 0..2000 {
        let days = rng.range_i64(-200_000, 200_000) as i32;
        let (y, m, d) = similar_subexpr::storage::dates::from_days(days);
        assert_eq!(
            similar_subexpr::storage::dates::to_days(y, m, d),
            Some(days)
        );
    }
}

/// Reference implementation of grouped aggregation used to cross-check the
/// engine's HashAggregate.
mod agg_reference {
    use similar_subexpr::algebra::{AggExpr, ColRef, PlanContext, Scalar};
    use similar_subexpr::exec::Engine;
    use similar_subexpr::optimizer::{FullPlan, PhysicalPlan};
    use similar_subexpr::storage::testkit::TestRng;
    use similar_subexpr::storage::{row, Catalog, DataType, Schema, Table, Value};
    use std::collections::BTreeMap;

    fn run_engine(data: &[(i64, i64)]) -> Vec<(i64, i64, i64)> {
        let mut t = Table::new(
            "t",
            Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]),
        );
        for (k, v) in data {
            t.push(row(vec![Value::Int(*k), Value::Int(*v)])).unwrap();
        }
        let mut cat = Catalog::new();
        cat.register_table(t).unwrap();
        let mut ctx = PlanContext::new();
        let b = ctx.new_block();
        let rel = ctx.add_base_rel("t", "t", cat.table("t").unwrap().schema().clone(), b);
        let out = ctx.add_agg_output(&[DataType::Int, DataType::Int], b);
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::TableScan {
                rel,
                layout: vec![ColRef::new(rel, 0), ColRef::new(rel, 1)],
            }),
            keys: vec![ColRef::new(rel, 0)],
            aggs: vec![AggExpr::sum(Scalar::col(rel, 1)), AggExpr::count_star()],
            out,
            layout: vec![
                ColRef::new(rel, 0),
                ColRef::new(out, 0),
                ColRef::new(out, 1),
            ],
        };
        let engine = Engine::new(&cat, &ctx);
        let full = FullPlan {
            root: plan,
            spools: BTreeMap::new(),
            cost: 0.0,
        };
        let mut rows: Vec<(i64, i64, i64)> = engine
            .execute(&full)
            .unwrap()
            .results
            .remove(0)
            .rows
            .iter()
            .map(|r| {
                (
                    r[0].as_i64().unwrap(),
                    r[1].as_i64().unwrap(),
                    r[2].as_i64().unwrap(),
                )
            })
            .collect();
        rows.sort();
        rows
    }

    fn reference(data: &[(i64, i64)]) -> Vec<(i64, i64, i64)> {
        let mut groups: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
        for (k, v) in data {
            let e = groups.entry(*k).or_insert((0, 0));
            e.0 += v;
            e.1 += 1;
        }
        groups.into_iter().map(|(k, (s, n))| (k, s, n)).collect()
    }

    #[test]
    fn hash_aggregate_matches_reference() {
        let mut rng = TestRng::new(0xA66);
        for _ in 0..40 {
            let n = rng.range_usize(0, 200);
            let data: Vec<(i64, i64)> = (0..n)
                .map(|_| (rng.range_i64(-5, 5), rng.range_i64(-100, 100)))
                .collect();
            assert_eq!(run_engine(&data), reference(&data));
        }
    }
}
