//! Property tests: selectivities stay in [0,1], cost formulas are
//! monotone and non-negative — the invariants the search relies on.
//! Driven by the deterministic in-repo generator
//! (`cse_storage::testkit::TestRng`).

use cse_algebra::{CmpOp, PlanContext, RelId, Scalar};
use cse_cost::{Selectivity, MODEL};
use cse_storage::testkit::TestRng;
use cse_storage::{row, Catalog, DataType, Schema, Table, Value};
use std::sync::Arc;

const CASES: usize = 200;

fn setup(n: i64) -> (PlanContext, Catalog, RelId) {
    let mut t = Table::new(
        "t",
        Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Float)]),
    );
    for i in 0..n {
        t.push(row(vec![Value::Int(i % 50), Value::Float((i % 13) as f64)]))
            .unwrap();
    }
    let mut cat = Catalog::new();
    cat.register_table(t).unwrap();
    let mut ctx = PlanContext::new();
    let b = ctx.new_block();
    let schema = Arc::new(Schema::from_pairs(&[
        ("a", DataType::Int),
        ("b", DataType::Float),
    ]));
    let r = ctx.add_base_rel("t", "t", schema, b);
    (ctx, cat, r)
}

fn gen_pred(rng: &mut TestRng, rel: RelId, depth: usize) -> Scalar {
    if depth == 0 || rng.chance(0.45) {
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let c = rng.range_i64(0, 2) as u16;
        let v = rng.range_i64(-60, 60);
        Scalar::cmp(*rng.pick(&ops), Scalar::col(rel, c), Scalar::int(v))
    } else {
        match rng.range_usize(0, 3) {
            0 => {
                let n = rng.range_usize(1, 3);
                Scalar::and(
                    (0..n)
                        .map(|_| gen_pred(rng, rel, depth - 1))
                        .collect::<Vec<_>>(),
                )
            }
            1 => {
                let n = rng.range_usize(1, 3);
                Scalar::or(
                    (0..n)
                        .map(|_| gen_pred(rng, rel, depth - 1))
                        .collect::<Vec<_>>(),
                )
            }
            _ => Scalar::Not(Box::new(gen_pred(rng, rel, depth - 1))),
        }
    }
}

#[test]
fn selectivity_in_unit_interval() {
    let (ctx, stats, r) = setup(500);
    let mut rng = TestRng::new(0x61);
    for _ in 0..CASES {
        let p = gen_pred(&mut rng, r, 3);
        let s = Selectivity::new(&ctx, &stats).of(&p);
        assert!((0.0..=1.0).contains(&s), "selectivity {s} for {p}");
    }
}

#[test]
fn conjunction_never_more_selective_than_parts() {
    let (ctx, stats, r) = setup(500);
    let mut rng = TestRng::new(0x62);
    let sel = Selectivity::new(&ctx, &stats);
    for _ in 0..CASES {
        let p = gen_pred(&mut rng, r, 3);
        let q = gen_pred(&mut rng, r, 3);
        let sp = sel.of(&p);
        let spq = sel.of(&Scalar::and([p, q]));
        assert!(spq <= sp + 1e-9, "AND increased selectivity: {spq} > {sp}");
    }
}

#[test]
fn disjunction_never_less_selective_than_parts() {
    let (ctx, stats, r) = setup(500);
    let mut rng = TestRng::new(0x63);
    let sel = Selectivity::new(&ctx, &stats);
    for _ in 0..CASES {
        let p = gen_pred(&mut rng, r, 3);
        let q = gen_pred(&mut rng, r, 3);
        let sp = sel.of(&p);
        let spq = sel.of(&Scalar::or([p, q]));
        assert!(spq >= sp - 1e-9, "OR decreased selectivity: {spq} < {sp}");
    }
}

#[test]
fn costs_nonnegative_and_monotone() {
    let m = MODEL;
    let mut rng = TestRng::new(0x64);
    for _ in 0..CASES {
        let rows = rng.range_f64(1.0, 1e7);
        let width = rng.range_f64(1.0, 512.0);
        for f in [
            m.scan(rows, width),
            m.filter(rows),
            m.hash_join(rows, rows, rows),
            m.hash_agg(rows, rows / 2.0),
            m.spool_write(rows, width),
            m.spool_read(rows, width),
            m.sort(rows),
        ] {
            assert!(f >= 0.0 && f.is_finite());
        }
        assert!(m.scan(rows * 2.0, width) >= m.scan(rows, width));
        assert!(m.spool_write(rows, width * 2.0) >= m.spool_write(rows, width));
    }
}
