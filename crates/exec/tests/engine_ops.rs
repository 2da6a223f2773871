//! Direct tests of the physical operators against hand-built plans
//! (no SQL, no optimizer — exact control over plan shapes).

use cse_algebra::{
    AggExpr, AggFunc, CmpOp, ColRef, LogicalPlan, PlanContext, RelId, Scalar, SortOrder,
};
use cse_exec::{Engine, ExecCtx};
use cse_govern::{sites, FailSpec, FailpointRegistry};
use cse_optimizer::{CseId, FullPlan, PhysicalPlan, ReAgg, SpoolDef};
use cse_storage::testkit::TestRng;
use cse_storage::{row, Catalog, DataType, Row, Schema, Table, Value};
use std::collections::BTreeMap;

fn setup() -> (Catalog, PlanContext, RelId, RelId) {
    let mut l = Table::new(
        "l",
        Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]),
    );
    let mut r = Table::new(
        "r",
        Schema::from_pairs(&[("k", DataType::Int), ("w", DataType::Str)]),
    );
    for i in 0..6i64 {
        l.push(row(vec![Value::Int(i % 3), Value::Int(i)])).unwrap();
    }
    for (k, w) in [(0, "zero"), (1, "one"), (2, "two")] {
        r.push(row(vec![Value::Int(k), Value::str(w)])).unwrap();
    }
    let mut cat = Catalog::new();
    cat.register_table(l).unwrap();
    cat.register_table(r).unwrap();
    let mut ctx = PlanContext::new();
    let b = ctx.new_block();
    let lr = ctx.add_base_rel("l", "l", cat.table("l").unwrap().schema().clone(), b);
    let rr = ctx.add_base_rel("r", "r", cat.table("r").unwrap().schema().clone(), b);
    (cat, ctx, lr, rr)
}

fn scan(ctx: &PlanContext, rel: RelId) -> PhysicalPlan {
    let n = ctx.rel(rel).schema.len();
    PhysicalPlan::TableScan {
        rel,
        layout: (0..n).map(|i| ColRef::new(rel, i as u16)).collect(),
    }
}

fn run(cat: &Catalog, ctx: &PlanContext, root: PhysicalPlan) -> Vec<cse_storage::Row> {
    let engine = Engine::new(cat, ctx);
    let plan = FullPlan {
        root,
        spools: BTreeMap::new(),
        cost: 0.0,
    };
    engine.execute(&plan).unwrap().results.remove(0).rows
}

#[test]
fn hash_join_matches_nl_join() {
    let (cat, ctx, l, r) = setup();
    let mut layout: Vec<ColRef> = (0..2).map(|i| ColRef::new(l, i)).collect();
    layout.extend((0..2).map(|i| ColRef::new(r, i)));
    let hj = PhysicalPlan::HashJoin {
        left: Box::new(scan(&ctx, l)),
        right: Box::new(scan(&ctx, r)),
        keys: vec![(ColRef::new(l, 0), ColRef::new(r, 0))],
        residual: None,
        layout: layout.clone(),
    };
    let nl = PhysicalPlan::NlJoin {
        left: Box::new(scan(&ctx, l)),
        right: Box::new(scan(&ctx, r)),
        pred: Scalar::eq(Scalar::col(l, 0), Scalar::col(r, 0)),
        layout,
    };
    let mut a = run(&cat, &ctx, hj);
    let mut b = run(&cat, &ctx, nl);
    let sort = |rows: &mut Vec<cse_storage::Row>| {
        rows.sort_by(|x, y| {
            x.iter()
                .zip(y.iter())
                .map(|(a, b)| a.total_cmp(b))
                .find(|o| !o.is_eq())
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    };
    sort(&mut a);
    sort(&mut b);
    assert_eq!(a.len(), 6);
    assert_eq!(a, b);
}

#[test]
fn hash_join_residual_filters() {
    let (cat, ctx, l, r) = setup();
    let mut layout: Vec<ColRef> = (0..2).map(|i| ColRef::new(l, i)).collect();
    layout.extend((0..2).map(|i| ColRef::new(r, i)));
    let hj = PhysicalPlan::HashJoin {
        left: Box::new(scan(&ctx, l)),
        right: Box::new(scan(&ctx, r)),
        keys: vec![(ColRef::new(l, 0), ColRef::new(r, 0))],
        residual: Some(Scalar::cmp(CmpOp::Gt, Scalar::col(l, 1), Scalar::int(2))),
        layout,
    };
    let rows = run(&cat, &ctx, hj);
    assert_eq!(rows.len(), 3); // v in {3,4,5}
}

#[test]
fn spool_computed_once_across_reads() {
    let (cat, mut ctx, l, _) = setup();
    let blk = ctx.new_block();
    let agg_out = ctx.add_agg_output(&[DataType::Int], blk);
    // Spool: l filtered to v < 5.
    let spool_plan = PhysicalPlan::Filter {
        input: Box::new(scan(&ctx, l)),
        pred: Scalar::cmp(CmpOp::Lt, Scalar::col(l, 1), Scalar::int(5)),
    };
    let spool_layout: Vec<ColRef> = (0..2).map(|i| ColRef::new(l, i)).collect();
    let read = |filter: Option<Scalar>| PhysicalPlan::CseRead {
        cse: CseId(0),
        filter,
        reagg: None,
        output_map: spool_layout.iter().map(|c| (*c, Scalar::Col(*c))).collect(),
        layout: spool_layout.clone(),
    };
    // Second read re-aggregates.
    let read2 = PhysicalPlan::CseRead {
        cse: CseId(0),
        filter: None,
        reagg: Some(ReAgg {
            keys: vec![ColRef::new(l, 0)],
            aggs: vec![AggExpr::sum(Scalar::col(l, 1))],
            out: agg_out,
        }),
        output_map: vec![
            (ColRef::new(l, 0), Scalar::Col(ColRef::new(l, 0))),
            (
                ColRef::new(agg_out, 0),
                Scalar::Col(ColRef::new(agg_out, 0)),
            ),
        ],
        layout: vec![ColRef::new(l, 0), ColRef::new(agg_out, 0)],
    };
    let plan = FullPlan {
        root: PhysicalPlan::Batch {
            children: vec![
                read(Some(Scalar::cmp(
                    CmpOp::Lt,
                    Scalar::col(l, 1),
                    Scalar::int(2),
                ))),
                read2,
            ],
        },
        spools: BTreeMap::from([(
            CseId(0),
            SpoolDef {
                plan: spool_plan,
                layout: spool_layout,
                est_rows: 5.0,
            },
        )]),
        cost: 0.0,
    };
    let engine = Engine::new(&cat, &ctx);
    let out = engine.execute(&plan).unwrap();
    assert_eq!(out.results.len(), 2);
    assert_eq!(out.results[0].rows.len(), 2); // v ∈ {0,1}
    assert_eq!(out.results[1].rows.len(), 3); // groups k ∈ {0,1,2}
    assert_eq!(out.metrics.spool_reads[&CseId(0)], 2);
    assert_eq!(out.metrics.spool_rows[&CseId(0)], 5);
    // Base table scanned exactly once for the spool.
    assert_eq!(out.metrics.base_rows_scanned, 6);
}

#[test]
fn sort_orders_output() {
    let (cat, ctx, l, _) = setup();
    let plan = PhysicalPlan::Sort {
        input: Box::new(scan(&ctx, l)),
        keys: vec![(Scalar::col(l, 1), SortOrder::Desc)],
    };
    let rows = run(&cat, &ctx, plan);
    let vs: Vec<i64> = rows.iter().map(|r| r[1].as_i64().unwrap()).collect();
    assert_eq!(vs, vec![5, 4, 3, 2, 1, 0]);
}

#[test]
fn missing_spool_definition_is_an_error() {
    let (cat, ctx, l, _) = setup();
    let read = PhysicalPlan::CseRead {
        cse: CseId(9),
        filter: None,
        reagg: None,
        output_map: vec![(ColRef::new(l, 0), Scalar::Col(ColRef::new(l, 0)))],
        layout: vec![ColRef::new(l, 0)],
    };
    let engine = Engine::new(&cat, &ctx);
    let plan = FullPlan {
        root: read,
        spools: BTreeMap::new(),
        cost: 0.0,
    };
    let err = engine.execute(&plan).unwrap_err();
    assert!(matches!(err, cse_exec::ExecError::MissingSpool(_)), "{err}");
}

#[test]
fn logical_plan_display_smoke() {
    // Exercise the logical display path too (used by diagnostics).
    let (_, ctx, l, r) = setup();
    let plan = LogicalPlan::get(l).join(
        LogicalPlan::get(r),
        Scalar::eq(Scalar::col(l, 0), Scalar::col(r, 0)),
    );
    let s = plan.display(&ctx);
    assert!(s.contains("Join"));
}

// ---------------------------------------------------------------------
// Seeded differential tests: the hashed-in-place join and aggregation
// against oracles written here, on inputs TPC-H never produces.
// ---------------------------------------------------------------------

/// What a key column holds in one generated case.
#[derive(Clone, Copy)]
enum KeyKind {
    Int,
    /// `Int(i)` or `Float(i as f64)` at random: equal keys, two encodings.
    IntOrFloat,
    Str,
    Date,
    AllNull,
}

fn gen_key(rng: &mut TestRng, kind: KeyKind) -> Value {
    if matches!(kind, KeyKind::AllNull) || rng.chance(0.15) {
        return Value::Null;
    }
    let i = rng.range_i64(0, 4);
    match kind {
        KeyKind::Int => Value::Int(i),
        KeyKind::IntOrFloat if rng.chance(0.5) => Value::Float(i as f64),
        KeyKind::IntOrFloat => Value::Int(i),
        KeyKind::Str => Value::str(["", "a", "b", "ab"][i as usize]),
        KeyKind::Date => Value::Date(9_000 + i as i32),
        KeyKind::AllNull => unreachable!(),
    }
}

fn gen_kind(rng: &mut TestRng) -> KeyKind {
    *rng.pick(&[
        KeyKind::Int,
        KeyKind::Int,
        KeyKind::IntOrFloat,
        KeyKind::IntOrFloat,
        KeyKind::Str,
        KeyKind::Date,
        KeyKind::AllNull,
    ])
}

/// `n` rows of (k1, k2, v): two key columns and a payload that is an int,
/// a float or NULL. Sizes start at zero, so empty sides occur.
fn gen_rows(rng: &mut TestRng, kinds: [KeyKind; 2], n: usize) -> Vec<Row> {
    (0..n)
        .map(|_| {
            let v = match rng.range_usize(0, 5) {
                0 => Value::Null,
                1 => Value::Float(rng.range_i64(-8, 8) as f64 / 4.0),
                _ => Value::Int(rng.range_i64(-5, 6)),
            };
            row(vec![gen_key(rng, kinds[0]), gen_key(rng, kinds[1]), v])
        })
        .collect()
}

/// A catalog of three-column tables (k1, k2, v) with the given contents.
fn catalog_of(tables: &[(&str, &[Row])]) -> (Catalog, PlanContext, Vec<RelId>) {
    let mut cat = Catalog::new();
    let mut ctx = PlanContext::new();
    let blk = ctx.new_block();
    let mut rels = Vec::new();
    for (name, rows) in tables {
        let schema = Schema::from_pairs(&[
            ("k1", DataType::Float),
            ("k2", DataType::Str),
            ("v", DataType::Float),
        ]);
        let t = Table::with_rows(*name, schema, rows.to_vec());
        cat.register_table(t).unwrap();
        let schema = cat.table(name).unwrap().schema().clone();
        rels.push(ctx.add_base_rel(*name, *name, schema, blk));
    }
    (cat, ctx, rels)
}

/// Exact rendering: unlike `==`, tells `Int(3)` from `Float(3.0)`.
fn show(rows: &[Row]) -> Vec<String> {
    rows.iter().map(|r| format!("{r:?}")).collect()
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

#[test]
fn hash_join_matches_nested_loop_oracle_on_generated_inputs() {
    let mut rng = TestRng::new(0x10_1A5E);
    for case in 0..300 {
        let kinds = [gen_kind(&mut rng), gen_kind(&mut rng)];
        let (na, nb) = (rng.range_usize(0, 14), rng.range_usize(0, 14));
        let (a_rows, b_rows) = (gen_rows(&mut rng, kinds, na), gen_rows(&mut rng, kinds, nb));
        let (cat, ctx, rels) = catalog_of(&[("a", &a_rows), ("b", &b_rows)]);
        let (a, b) = (rels[0], rels[1]);
        let nkeys = rng.range_usize(1, 3);
        let keys: Vec<(ColRef, ColRef)> = (0..nkeys as u16)
            .map(|i| (ColRef::new(a, i), ColRef::new(b, i)))
            .collect();
        // Residual a.v <= b.v: NULL payloads reject, ints meet floats.
        let residual = rng
            .chance(0.5)
            .then(|| Scalar::cmp(CmpOp::Le, Scalar::col(a, 2), Scalar::col(b, 2)));
        let layout: Vec<ColRef> = [a, b]
            .iter()
            .flat_map(|r| (0..3).map(|i| ColRef::new(*r, i)))
            .collect();

        // Oracle: probe (right) order outside, build (left) order inside;
        // a NULL key column never joins; the residual must be TRUE.
        let mut want = Vec::new();
        for rb in &b_rows {
            for ra in &a_rows {
                let keys_meet = (0..nkeys).all(|i| !ra[i].is_null() && ra[i] == rb[i]);
                let residual_ok = residual.is_none()
                    || ra[2].sql_cmp(&rb[2]).is_some_and(std::cmp::Ordering::is_le);
                if keys_meet && residual_ok {
                    want.push(row(ra.iter().chain(rb.iter()).cloned().collect()));
                }
            }
        }

        let hj = PhysicalPlan::HashJoin {
            left: Box::new(scan(&ctx, a)),
            right: Box::new(scan(&ctx, b)),
            keys: keys.clone(),
            residual: residual.clone(),
            layout: layout.clone(),
        };
        let got = run(&cat, &ctx, hj);
        assert_eq!(show(&got), show(&want), "case {case}: hash join rows/order");

        // Same bag from the engine's own nested-loop join on `=` (both
        // sides of a key column are of one kind, so SQL `=` and key
        // equality agree).
        let eqs = keys
            .iter()
            .map(|(x, y)| Scalar::eq(Scalar::Col(*x), Scalar::Col(*y)));
        let nl = PhysicalPlan::NlJoin {
            left: Box::new(scan(&ctx, a)),
            right: Box::new(scan(&ctx, b)),
            pred: Scalar::and(eqs.chain(residual.clone())),
            layout,
        };
        let nl_rows = run(&cat, &ctx, nl);
        assert_eq!(
            sorted(show(&nl_rows)),
            sorted(show(&want)),
            "case {case}: NL join bag"
        );

        // The index join streams `b` and probes `a` through a hash index on
        // k1: the same pairs in the same order, `b`'s columns first.
        let mut indexed = cat.clone();
        indexed.create_hash_index("a", "k1").unwrap();
        let rest = keys[1..]
            .iter()
            .map(|(x, y)| Scalar::eq(Scalar::Col(*x), Scalar::Col(*y)));
        let rest: Vec<Scalar> = rest.chain(residual).collect();
        let inlj = PhysicalPlan::IndexNlJoin {
            outer: Box::new(scan(&ctx, b)),
            rel: a,
            key: (keys[0].1, keys[0].0),
            residual: (!rest.is_empty()).then(|| Scalar::and(rest)),
            layout: [b, a]
                .iter()
                .flat_map(|r| (0..3).map(|i| ColRef::new(*r, i)))
                .collect(),
        };
        let flipped = want
            .iter()
            .map(|r| row(r[3..].iter().chain(&r[..3]).cloned().collect()));
        let flipped: Vec<Row> = flipped.collect();
        let got = run(&indexed, &ctx, inlj);
        assert_eq!(
            show(&got),
            show(&flipped),
            "case {case}: index join rows/order"
        );
    }
}

/// An index join draws the index failpoint once, refuses to run without
/// its index, and reports a row id its index names but the table lacks —
/// each as an error, never a panic and never another join.
#[test]
fn index_join_faults_and_missing_or_stale_indexes_are_errors() {
    let (mut cat, ctx, l, r) = setup();
    let cols = |rel| (0..2).map(move |i| ColRef::new(rel, i));
    let join = PhysicalPlan::IndexNlJoin {
        outer: Box::new(scan(&ctx, l)),
        rel: r,
        key: (ColRef::new(l, 0), ColRef::new(r, 0)),
        residual: None,
        layout: cols(l).chain(cols(r)).collect(),
    };
    let plan = FullPlan {
        root: join.clone(),
        spools: BTreeMap::new(),
        cost: 0.0,
    };
    let execute = |cat: &Catalog, failpoints| {
        let exec_ctx = ExecCtx {
            failpoints,
            ..ExecCtx::default()
        };
        Engine::new(cat, &ctx).execute_in(&plan, &exec_ctx)
    };
    let missing = execute(&cat, FailpointRegistry::disabled()).unwrap_err();
    assert!(
        matches!(missing, cse_exec::ExecError::Storage(_)),
        "{missing}"
    );

    cat.create_hash_index("r", "k").unwrap();
    let out = execute(&cat, FailpointRegistry::disabled()).unwrap();
    assert_eq!(out.results[0].rows.len(), 6);
    // Six outer rows scanned, one stored row fetched for each.
    assert_eq!(out.metrics.base_rows_scanned, 12);

    let certain = FailpointRegistry::from_specs(&[FailSpec {
        site: sites::SCAN_INDEX.to_string(),
        probability: 1.0,
        seed: 1,
    }]);
    let injected = execute(&cat, certain.clone()).unwrap_err();
    assert!(
        matches!(injected, cse_exec::ExecError::Injected { .. }),
        "{injected}"
    );
    assert_eq!(certain.counters()[sites::SCAN_INDEX], (1, 1));

    // An index over more rows than the table now holds.
    let mut stale = cat.get("r").unwrap().clone();
    let shrunk = Table::with_rows("r", stale.table.schema().as_ref().clone(), Vec::new());
    stale.table = std::sync::Arc::new(shrunk);
    cat.put_entry_for_test("r", stale);
    let err = execute(&cat, FailpointRegistry::disabled()).unwrap_err();
    assert!(matches!(err, cse_exec::ExecError::Storage(_)), "{err}");
}

/// Sort-based grouping oracle: stable-sort row indices by key, cut runs of
/// equal keys, fold each run in input order, then order the groups by
/// their first input row. Returns key values (of the first row) followed
/// by SUM(v), COUNT(*), MIN(v), COUNT(v).
fn group_oracle(rows: &[&Row], key_cols: &[usize]) -> Vec<Row> {
    let key_cmp = |x: &usize, y: &usize| {
        key_cols
            .iter()
            .map(|k| rows[*x][*k].total_cmp(&rows[*y][*k]))
            .find(|o| !o.is_eq())
            .unwrap_or(std::cmp::Ordering::Equal)
    };
    let mut idx: Vec<usize> = (0..rows.len()).collect();
    idx.sort_by(key_cmp); // stable: input order survives inside a run
    let mut runs: Vec<Vec<usize>> = Vec::new();
    for i in idx {
        match runs.last_mut() {
            Some(run) if key_cmp(&run[0], &i).is_eq() => run.push(i),
            _ => runs.push(vec![i]),
        }
    }
    if key_cols.is_empty() && runs.is_empty() {
        runs.push(Vec::new()); // scalar aggregate over nothing: one row
    }
    runs.sort_by_key(|run| run.first().copied());
    runs.iter()
        .map(|run| {
            let vals: Vec<&Value> = run.iter().map(|i| &rows[*i][2]).collect();
            let non_null: Vec<&Value> = vals.iter().copied().filter(|v| !v.is_null()).collect();
            let sum = if non_null.is_empty() {
                Value::Null
            } else if non_null.iter().all(|v| matches!(v, Value::Int(_))) {
                Value::Int(non_null.iter().map(|v| v.as_i64().unwrap()).sum())
            } else {
                Value::Float(non_null.iter().fold(0.0, |s, v| s + v.as_f64().unwrap()))
            };
            let min = non_null.iter().fold(None::<&Value>, |m, v| match m {
                Some(m) if !v.total_cmp(m).is_lt() => Some(m),
                _ => Some(v),
            });
            let mut out: Vec<Value> = key_cols.iter().map(|k| rows[run[0]][*k].clone()).collect();
            out.push(sum);
            out.push(Value::Int(vals.len() as i64));
            out.push(min.cloned().unwrap_or(Value::Null));
            out.push(Value::Int(non_null.len() as i64));
            row(out)
        })
        .collect()
}

fn oracle_aggs(rel: RelId) -> Vec<AggExpr> {
    vec![
        AggExpr::sum(Scalar::col(rel, 2)),
        AggExpr::count_star(),
        AggExpr::min(Scalar::col(rel, 2)),
        AggExpr::new(AggFunc::Count, Scalar::col(rel, 2)),
    ]
}

#[test]
fn hash_aggregate_and_reagg_match_sort_oracle_on_generated_inputs() {
    let mut rng = TestRng::new(0xA66_5EED);
    for case in 0..300 {
        let kinds = [gen_kind(&mut rng), gen_kind(&mut rng)];
        let n = rng.range_usize(0, 24);
        let t_rows = gen_rows(&mut rng, kinds, n);
        let (cat, mut ctx, rels) = catalog_of(&[("t", &t_rows)]);
        let t = rels[0];
        let blk = ctx.new_block();
        let out = ctx.add_agg_output(&[DataType::Float; 4], blk);
        let nkeys = rng.range_usize(0, 3); // 0 = scalar aggregate
        let keys: Vec<ColRef> = (0..nkeys as u16).map(|i| ColRef::new(t, i)).collect();
        let key_cols: Vec<usize> = (0..nkeys).collect();
        let mut layout = keys.clone();
        layout.extend((0..4).map(|i| ColRef::new(out, i)));

        let all: Vec<&Row> = t_rows.iter().collect();
        let agg = PhysicalPlan::HashAggregate {
            input: Box::new(scan(&ctx, t)),
            keys: keys.clone(),
            aggs: oracle_aggs(t),
            out,
            layout: layout.clone(),
        };
        let got = run(&cat, &ctx, agg);
        assert_eq!(
            show(&got),
            show(&group_oracle(&all, &key_cols)),
            "case {case}: HashAggregate groups/order/values"
        );

        // The same grouping as a spool consumer: compensation filter over
        // the stored rows, then re-aggregation, then the output map.
        let cut = rng.range_i64(-6, 7);
        let filter = rng
            .chance(0.7)
            .then(|| Scalar::cmp(CmpOp::Lt, Scalar::col(t, 2), Scalar::int(cut)));
        let kept: Vec<&Row> = t_rows
            .iter()
            .filter(|r| {
                filter.is_none()
                    || r[2]
                        .sql_cmp(&Value::Int(cut))
                        .is_some_and(std::cmp::Ordering::is_lt)
            })
            .collect();
        let spool_layout: Vec<ColRef> = (0..3).map(|i| ColRef::new(t, i)).collect();
        let read = PhysicalPlan::CseRead {
            cse: CseId(0),
            filter,
            reagg: Some(ReAgg {
                keys,
                aggs: oracle_aggs(t),
                out,
            }),
            output_map: layout.iter().map(|c| (*c, Scalar::Col(*c))).collect(),
            layout,
        };
        let plan = FullPlan {
            root: read,
            spools: BTreeMap::from([(
                CseId(0),
                SpoolDef {
                    plan: scan(&ctx, t),
                    layout: spool_layout,
                    est_rows: n as f64,
                },
            )]),
            cost: 0.0,
        };
        let out = Engine::new(&cat, &ctx).execute(&plan).unwrap();
        assert_eq!(
            show(&out.results[0].rows),
            show(&group_oracle(&kept, &key_cols)),
            "case {case}: CseRead filter + reagg"
        );
        assert_eq!(
            out.metrics.spool_rows[&CseId(0)],
            n,
            "spool holds every row"
        );
    }
}

/// lineitem ⋈ orders ⋈ customer feeding SUM(l_extendedprice) GROUP BY
/// c_nationkey reads two columns above each join; the joins must not hold
/// the 3 + 3 + 3 they are handed. Observed through the bytes charged
/// (`rows × cols × size_of::<Value>()`), which are exactly what the four
/// breakers hold: scans and the probe sides hold nothing.
#[test]
fn joins_materialize_only_columns_an_ancestor_reads() {
    const N: usize = 40;
    let table = |f: &dyn Fn(i64) -> [i64; 3]| -> Vec<Row> {
        (0..N as i64)
            .map(|i| row(f(i).into_iter().map(Value::Int).collect()))
            .collect()
    };
    // (l_orderkey, l_extendedprice, l_tax), (o_orderkey, o_custkey, o_x),
    // (c_custkey, c_nationkey, c_x): every row finds exactly one partner.
    let l_rows = table(&|i| [i, 100 + i, 7]);
    let o_rows = table(&|i| [i, (i * 7) % N as i64, 8]);
    let c_rows = table(&|i| [i, i % 5, 9]);
    let (cat, mut ctx, rels) = catalog_of(&[("l", &l_rows), ("o", &o_rows), ("c", &c_rows)]);
    let (l, o, c) = (rels[0], rels[1], rels[2]);
    let blk = ctx.new_block();
    let out = ctx.add_agg_output(&[DataType::Int], blk);
    let cols = |rs: &[RelId]| -> Vec<ColRef> {
        rs.iter()
            .flat_map(|r| (0..3).map(|i| ColRef::new(*r, i)))
            .collect()
    };
    let lo = PhysicalPlan::HashJoin {
        left: Box::new(scan(&ctx, l)),
        right: Box::new(scan(&ctx, o)),
        keys: vec![(ColRef::new(l, 0), ColRef::new(o, 0))],
        residual: None,
        layout: cols(&[l, o]),
    };
    let loc = PhysicalPlan::HashJoin {
        left: Box::new(lo),
        right: Box::new(scan(&ctx, c)),
        keys: vec![(ColRef::new(o, 1), ColRef::new(c, 0))],
        residual: None,
        layout: cols(&[l, o, c]),
    };
    let agg = PhysicalPlan::HashAggregate {
        input: Box::new(loc),
        keys: vec![ColRef::new(c, 1)],
        aggs: vec![AggExpr::sum(Scalar::col(l, 1))],
        out,
        layout: vec![ColRef::new(c, 1), ColRef::new(out, 0)],
    };
    let plan = FullPlan {
        root: agg,
        spools: BTreeMap::new(),
        cost: 0.0,
    };
    let res = Engine::new(&cat, &ctx).execute(&plan).unwrap();
    let rows = &res.results[0].rows;
    assert_eq!(rows.len(), 5);
    let total: i64 = rows.iter().map(|r| r[1].as_i64().unwrap()).sum();
    assert_eq!(total, (0..N as i64).map(|i| 100 + i).sum::<i64>());

    let cell = std::mem::size_of::<Value>();
    let l_build = N * 2 * cell; // l_orderkey, l_extendedprice
    let lo_build = N * 2 * cell; // l_extendedprice, o_custkey
    let groups = 5 * 2 * cell;
    let result = 5 * 2 * cell;
    assert_eq!(
        res.metrics.peak_bytes,
        l_build + lo_build + groups + result,
        "a join held a column no ancestor reads, or an operator that is no breaker held rows"
    );
}

// ---------------------------------------------------------------------
// What streaming could break: order, empty streams, what is held, where
// faults are noticed (cancellation: `engine::tests`).
// ---------------------------------------------------------------------

fn plan_of(root: PhysicalPlan) -> FullPlan {
    FullPlan {
        root,
        spools: BTreeMap::new(),
        cost: 0.0,
    }
}

fn int_rows(rows: &[[i64; 3]]) -> Vec<Row> {
    let ints = |r: &[i64; 3]| row(r.iter().copied().map(Value::Int).collect());
    rows.iter().map(ints).collect()
}

fn join_on_k1(ctx: &PlanContext, a: RelId, b: RelId) -> PhysicalPlan {
    let cols = |r| (0..3).map(move |i| ColRef::new(r, i));
    PhysicalPlan::HashJoin {
        left: Box::new(scan(ctx, a)),
        right: Box::new(scan(ctx, b)),
        keys: vec![(ColRef::new(a, 0), ColRef::new(b, 0))],
        residual: None,
        layout: cols(a).chain(cols(b)).collect(),
    }
}

/// The join pushes into the group table: its rows must arrive in the order a
/// materializing join hands them over (probe order, build insertion order
/// among one probe row's matches) and groups must come out first-seen.
#[test]
fn streamed_join_and_groups_keep_the_materializing_order() {
    // a builds with duplicate keys; b probes out of key order, with repeats.
    let a_rows = int_rows(&[[1, 0, 10], [2, 0, 20], [1, 0, 30], [3, 0, 40], [1, 0, 50]]);
    let b_rows = int_rows(&[[3, 7, 0], [1, 8, 0], [9, 9, 0], [2, 7, 0], [1, 7, 0]]);
    let (cat, mut ctx, rels) = catalog_of(&[("a", &a_rows), ("b", &b_rows)]);
    let (a, b) = (rels[0], rels[1]);

    // The reference materializes: joined rows first, then the groups.
    let mut joined: Vec<Vec<Value>> = Vec::new();
    for rb in &b_rows {
        for ra in a_rows.iter().filter(|ra| ra[0] == rb[0]) {
            joined.push(ra.iter().chain(rb.iter()).cloned().collect());
        }
    }
    let got = run(&cat, &ctx, join_on_k1(&ctx, a, b));
    let want: Vec<Row> = joined.iter().cloned().map(row).collect();
    assert_eq!(show(&got), show(&want), "join rows and their order");

    // SUM(a.v) GROUP BY b.k2: groups in the order the joined rows show them.
    let mut groups: Vec<(Value, i64)> = Vec::new();
    for j in &joined {
        let v = j[2].as_i64().unwrap();
        match groups.iter_mut().find(|(k, _)| *k == j[4]) {
            Some((_, sum)) => *sum += v,
            None => groups.push((j[4].clone(), v)),
        }
    }
    let blk = ctx.new_block();
    let out = ctx.add_agg_output(&[DataType::Int], blk);
    let agg = PhysicalPlan::HashAggregate {
        input: Box::new(join_on_k1(&ctx, a, b)),
        keys: vec![ColRef::new(b, 1)],
        aggs: vec![AggExpr::sum(Scalar::col(a, 2))],
        out,
        layout: vec![ColRef::new(b, 1), ColRef::new(out, 0)],
    };
    let got = run(&cat, &ctx, agg);
    let want = groups.into_iter().map(|(k, s)| row(vec![k, Value::Int(s)]));
    assert_eq!(
        show(&got),
        show(&want.collect::<Vec<_>>()),
        "first-seen groups"
    );
}

/// A scalar aggregate answers an empty stream with one row, whether it
/// aggregates an operator's rows or re-aggregates a spool's.
#[test]
fn scalar_aggregates_over_an_empty_stream_return_one_row() {
    let (cat, mut ctx, l, _) = setup();
    let blk = ctx.new_block();
    let out = ctx.add_agg_output(&[DataType::Int, DataType::Int], blk);
    let nothing = Scalar::cmp(CmpOp::Lt, Scalar::col(l, 1), Scalar::int(0));
    let aggs = vec![AggExpr::sum(Scalar::col(l, 1)), AggExpr::count_star()];
    let layout: Vec<ColRef> = (0..2).map(|i| ColRef::new(out, i)).collect();
    let agg = PhysicalPlan::HashAggregate {
        input: Box::new(PhysicalPlan::Filter {
            input: Box::new(scan(&ctx, l)),
            pred: nothing.clone(),
        }),
        keys: Vec::new(),
        aggs: aggs.clone(),
        out,
        layout: layout.clone(),
    };
    let one_row = vec![row(vec![Value::Null, Value::Int(0)])];
    assert_eq!(show(&run(&cat, &ctx, agg)), show(&one_row));

    let read = PhysicalPlan::CseRead {
        cse: CseId(0),
        filter: Some(nothing),
        reagg: Some(ReAgg {
            keys: Vec::new(),
            aggs,
            out,
        }),
        output_map: layout.iter().map(|c| (*c, Scalar::Col(*c))).collect(),
        layout,
    };
    let def = SpoolDef {
        plan: scan(&ctx, l),
        layout: (0..2).map(|i| ColRef::new(l, i)).collect(),
        est_rows: 6.0,
    };
    let plan = FullPlan {
        spools: BTreeMap::from([(CseId(0), def)]),
        ..plan_of(read)
    };
    let out = Engine::new(&cat, &ctx).execute(&plan).unwrap();
    assert_eq!(show(&out.results[0].rows), show(&one_row));
}

/// A nested-loops join tests its predicate on the scratch row: when it
/// rejects every pair, nothing but the held (left) side was ever held.
#[test]
fn nl_join_that_rejects_everything_holds_only_its_left_side() {
    let (cat, ctx, l, r) = setup();
    let mut layout: Vec<ColRef> = (0..2).map(|i| ColRef::new(l, i)).collect();
    layout.extend((0..2).map(|i| ColRef::new(r, i)));
    let nl = PhysicalPlan::NlJoin {
        left: Box::new(scan(&ctx, l)),
        right: Box::new(scan(&ctx, r)),
        // v is 0..6 and k is 0..3: v + 10 < k never holds.
        pred: Scalar::cmp(
            CmpOp::Lt,
            Scalar::Arith(
                cse_algebra::ArithOp::Add,
                Box::new(Scalar::col(l, 1)),
                Box::new(Scalar::int(10)),
            ),
            Scalar::col(r, 0),
        ),
        layout,
    };
    let out = Engine::new(&cat, &ctx).execute(&plan_of(nl)).unwrap();
    assert!(out.results[0].rows.is_empty());
    let held = 6 * 2 * std::mem::size_of::<Value>();
    assert_eq!(out.metrics.peak_bytes, held, "six rows of l, two columns");
}
