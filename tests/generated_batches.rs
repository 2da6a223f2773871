//! Generated-batch differential suite (ROADMAP item 1): the paper's claim
//! — a consumer rewritten as compensation-over-spool returns what its
//! original expression returns — attacked by seeded batches instead of the
//! six hand-written paper queries.
//!
//! A seed draws a small catalog (NULLs in join and group columns,
//! duplicate rows, sometimes an empty table, join keys stored as `Int` on
//! one row and as the equal `Float` on the next) and a batch of 2–6
//! similar SPJG statements over the customer/orders/lineitem/nation/part
//! templates. The oracle is the plain plan: `NoCse ≡ Cse ≡
//! CseNoHeuristics ≡ a session's baseline re-plan under a spool failpoint`;
//! a CSE phase tripped by a zero budget returns the no-CSE plan itself,
//! and appending a duplicate statement or permuting the batch changes no
//! statement's result. Every plan executes exactly the spools it was
//! charged for, and the arms that share end on the full rung: a caught
//! optimizer panic would otherwise pass on the baseline rung unnoticed.
//! One `explore` call reaches the memo's fixpoint: a second adds nothing.
//! Two seeds in three index their catalog (`batchgen::seed_indexes`): a
//! hash index on a join key and a B-tree index on a filtered column, so
//! that those arms plan `IndexNlJoin`s and `IndexRangeScan`s; the oracle
//! is the no-CSE plan over the catalog without them. The sharing arms run
//! again over a copy of the un-indexed catalog with a hash index on every
//! template join column, where plans join through `IndexNlJoin`, against
//! the same oracle. Last, a view over one
//! template statement is maintained through four generated `customer`
//! inserts of 1, 50 or 5 000 rows (keys that exist, keys that don't, NULL
//! and `Float` keys) through one plan cache, and must equal both the view
//! of a twin that plans every insert afresh and its recomputation, in a
//! catalog that verifies clean, after each.
//!
//! A fixed seed set runs in `cargo test`; `CSE_GEN_BATCHES=<n>` runs seeds
//! `0..n` instead (`ci.sh` runs 200 in release). A failing seed prints its
//! batch.

mod batchgen;

use batchgen::{gen_batch, gen_catalog, gen_stmt, nullable, quarters, sql_of, word, Stmt};
use similar_subexpr::govern::sites;
use similar_subexpr::memo::{explore, ExploreConfig, Memo};
use similar_subexpr::optimizer::{FullPlan, PhysicalPlan};
use similar_subexpr::prelude::*;
use similar_subexpr::sql::lower_batch_sql;
use similar_subexpr::storage::delta::DeltaTable;
use similar_subexpr::storage::testkit::TestRng;
use similar_subexpr::storage::{row, ColumnDef, DataType, Row, Schema};
use similar_subexpr::tpch::TpchTable;

/// Both columns of every equijoin the templates use.
const JOIN_COLUMNS: [(&str, &str); 8] = [
    ("customer", "c_custkey"),
    ("orders", "o_custkey"),
    ("orders", "o_orderkey"),
    ("lineitem", "l_orderkey"),
    ("customer", "c_nationkey"),
    ("nation", "n_nationkey"),
    ("part", "p_partkey"),
    ("lineitem", "l_partkey"),
];

/// `catalog` with a hash index on every template join column.
fn indexed(catalog: &Catalog) -> Catalog {
    let mut out = catalog.clone();
    for (table, column) in JOIN_COLUMNS {
        out.create_hash_index(table, column)
            .expect("template column");
    }
    out
}

/// Note in `seen` whether the plan, or a spool it reads, joins through an
/// index (`seen[0]`) and whether it scans a range of one (`seen[1]`).
fn note_index_ops(plan: &FullPlan, seen: &mut [bool; 2]) {
    let roots = std::iter::once(&plan.root).chain(plan.spools.values().map(|s| &s.plan));
    for p in roots {
        p.visit(&mut |op| {
            seen[0] |= matches!(op, PhysicalPlan::IndexNlJoin { .. });
            seen[1] |= matches!(op, PhysicalPlan::IndexRangeScan { .. });
        });
    }
}

/// Optimize and execute `batch` under `cfg`; the plan and what executing it
/// did. Every plan must execute the spools it was charged for (§5.2): each spool read has its
/// definition, and each definition is read at least twice. An arm that
/// shares (`full`) must also end on the full rung without a caught panic —
/// the baseline rung would hide a broken plan behind a correct answer.
fn run(
    catalog: &Catalog,
    batch: &[Stmt],
    cfg: &CseConfig,
    full: bool,
    what: &str,
) -> (FullPlan, ExecOutput) {
    let sql = sql_of(batch);
    let o = optimize_sql(catalog, &sql, cfg).unwrap_or_else(|e| panic!("{what}: {e}\n{sql}"));
    let mut reads = o.plan.root.cse_reads();
    for def in o.plan.spools.values() {
        for (e, n) in def.plan.cse_reads() {
            *reads.entry(e).or_insert(0) += n;
        }
    }
    let spools: Vec<_> = o.plan.spools.keys().collect();
    assert!(
        reads.keys().eq(spools.iter().copied()) && reads.values().all(|&n| n >= 2),
        "{what}: spool reads {reads:?} against spools {spools:?}\n{sql}"
    );
    if full {
        let events = &o.report.degradations;
        assert!(
            o.report.rung == Rung::FullCse && !events.iter().any(|e| e.reason == Reason::OptPanic),
            "{what}: ended on {} after {events:?}\n{sql}",
            o.report.rung
        );
    }
    let ctx = ExecCtx {
        failpoints: cfg.failpoints.clone(),
        ..ExecCtx::default()
    };
    let out = Engine::new(catalog, &o.ctx)
        .execute_in(&o.plan, &ctx)
        .unwrap_or_else(|e| panic!("{what}: {e}\n{sql}"));
    (o.plan, out)
}

/// Statement `i` of `got` answers statement `want_of(i)` of the reference.
fn assert_same(
    batch: &[Stmt],
    got: &[ResultSet],
    want: &[ResultSet],
    want_of: impl Fn(usize) -> usize,
    what: &str,
) {
    assert_eq!(got.len(), batch.len(), "{what}: statement count");
    for (i, (stmt, g)) in batch.iter().zip(got).enumerate() {
        let w = &want[want_of(i)];
        assert!(
            g.columns == w.columns && g.approx_eq(w, 1e-9),
            "{what}: statement {i} diverged from the no-CSE plan\n  got  {:?}\n  want {:?}\n{}",
            g.rows,
            w.rows,
            sql_of(batch)
        );
        if let Some((col, desc)) = &stmt.order {
            let at = g
                .columns
                .iter()
                .position(|c| c == col)
                .expect("order column");
            let sorted = g.rows.windows(2).all(|w| {
                let o = w[0][at].total_cmp(&w[1][at]);
                if *desc {
                    o.is_ge()
                } else {
                    o.is_le()
                }
            });
            assert!(
                sorted,
                "{what}: statement {i} not ordered by {col}\n{}",
                stmt.sql
            );
        }
    }
}

/// The sharing arms over `catalog`, each against `want`, the no-CSE results
/// over the un-indexed catalog: whether the default plan used a spool, and
/// which index operators any plan had, as [`note_index_ops`] notes them.
fn sharing_arms(
    catalog: &Catalog,
    batch: &[Stmt],
    want: &[ResultSet],
    (twin, perm): (usize, &[usize]),
    seed: u64,
    tag: &dyn Fn(&str) -> String,
) -> (bool, [bool; 2]) {
    let (plan, cse) = run(catalog, batch, &CseConfig::default(), true, &tag("cse"));
    assert_same(batch, &cse.results, want, |i| i, &tag("cse"));
    let (spools, mut index_ops) = (!plan.spools.is_empty(), [false; 2]);
    note_index_ops(&plan, &mut index_ops);
    let (plan, exhaustive) = run(
        catalog,
        batch,
        &CseConfig::no_heuristics(),
        true,
        &tag("no-heuristics"),
    );
    note_index_ops(&plan, &mut index_ops);
    assert_same(
        batch,
        &exhaustive.results,
        want,
        |i| i,
        &tag("no-heuristics"),
    );

    // Every spool materialization faults: a session answers a plan that
    // reads a spool by re-planning the batch on the baseline rung, and says
    // so once; a plan without spools never meets the failpoint.
    let faulty = CseConfig {
        failpoints: FailpointRegistry::from_specs(&[FailSpec {
            site: sites::SPOOL_MATERIALIZE.to_string(),
            probability: 1.0,
            seed,
        }]),
        ..CseConfig::default()
    };
    let sql = sql_of(batch);
    let recovered = Session::with_config(catalog.clone(), faulty)
        .query(&sql)
        .unwrap_or_else(|e| panic!("{}: {e}\n{sql}", tag("spool-fault")));
    assert_same(batch, &recovered.results, want, |i| i, &tag("spool-fault"));
    let faults = recovered
        .events
        .iter()
        .filter(|e| e.reason == Reason::ExecFaultInjected);
    assert_eq!(
        faults.count(),
        usize::from(spools),
        "{}: events {:?}, the default plan {} a spool\n{sql}",
        tag("spool-fault"),
        recovered.events,
        if spools { "reads" } else { "reads no" }
    );

    // A duplicate statement shares everything with its twin; nobody's
    // answer may move, the twin's included.
    let mut longer = batch.to_vec();
    longer.push(batch[twin].clone());
    let (plan, out) = run(
        catalog,
        &longer,
        &CseConfig::default(),
        true,
        &tag("duplicate"),
    );
    note_index_ops(&plan, &mut index_ops);
    let n = batch.len();
    assert_same(
        &longer,
        &out.results,
        want,
        |i| if i == n { twin } else { i },
        &tag("duplicate"),
    );

    // Statement order decides consumer order, LCAs and who fills a spool.
    let permuted: Vec<Stmt> = perm.iter().map(|i| batch[*i].clone()).collect();
    let (plan, out) = run(
        catalog,
        &permuted,
        &CseConfig::default(),
        true,
        &tag("permuted"),
    );
    note_index_ops(&plan, &mut index_ops);
    assert_same(&permuted, &out.results, want, |i| perm[i], &tag("permuted"));
    (spools, index_ops)
}

/// `customer` of `catalog` under a schema a generated insert can fill:
/// every column nullable, and the join keys `Float`, so NULL and `Float`
/// keys pass capture (the stored rows keep their `Int` keys).
fn insertable_customers(catalog: &mut Catalog) {
    let float = ["c_custkey", "c_nationkey"];
    let declared = TpchTable::Customer.schema();
    let columns = declared.columns().iter().map(|c| {
        let ty = if float.contains(&c.name.as_str()) {
            DataType::Float
        } else {
            c.data_type
        };
        ColumnDef::new(c.name.clone(), ty).nullable()
    });
    let schema = Schema::new(columns.collect());
    let rows = catalog.table("customer").expect("customer").rows();
    catalog.replace_table(Table::with_rows("customer", schema, rows));
}

/// One generated insert of `n` rows: keys that exist (`0..18`, as
/// `Float`), keys that don't (past the table, or between two keys), NULL
/// keys.
fn gen_customers(rng: &mut TestRng, n: usize) -> Vec<Row> {
    let schema = TpchTable::Customer.schema();
    (0..n)
        .map(|_| {
            let mut vals = vec![Value::Null; schema.len()];
            let mut set = |name: &str, v: Value| vals[schema.index_of(name).expect("column")] = v;
            let k = rng.range_i64(0, 18) as f64;
            let custkey = match rng.range_usize(0, 4) {
                0 => Value::Null,
                1 => Value::Float(100.0 + k),
                2 => Value::Float(k + 0.5),
                _ => Value::Float(k),
            };
            set("c_custkey", custkey);
            let nation = Value::Float(rng.range_i64(0, 8) as f64);
            set("c_nationkey", nullable(nation, 0.1, rng));
            set(
                "c_mktsegment",
                word(rng, &["AUTO", "BUILDING", "MACHINERY"]),
            );
            set("c_acctbal", quarters(rng, 100));
            row(vals)
        })
        .collect()
}

/// §6.4 over a generated catalog: a view over one self-maintainable
/// statement of a `customer` template, four generated inserts of 1, 50 or
/// 5 000 rows through one plan cache, so that inserts run a cached plan and
/// leave its row band both ways. After each, the view equals the view of a
/// twin catalog that plans every insert afresh and its recomputation, and
/// the catalog — the indexes the view added, appended to in place —
/// verifies clean. The view is recomputed over a copy that takes the same
/// inserts but has no index, so the oracle never joins through one.
/// Returns whether an insert ran a cached plan.
fn check_maintenance(catalog: &Catalog, rng: &mut TestRng, seed: u64) -> bool {
    let definition = loop {
        let family = *rng.pick(&[0, 1, 3]);
        let stmt = gen_stmt(rng, family);
        let merges = !stmt.sql.contains(" having ") && !stmt.sql.contains("avg(");
        if merges && stmt.order.is_none() {
            break stmt.sql;
        }
    };
    let what = format!("seed {seed} [maintenance]");
    let mut plain = catalog.clone();
    insertable_customers(&mut plain);
    let mut catalog = plain.clone();
    let cfg = CseConfig::default();
    create_materialized_view(&mut catalog, "mv", &definition, &cfg)
        .unwrap_or_else(|e| panic!("{what}: {e}\n{definition}"));
    let (mut twin, mut plans, mut cached) = (catalog.clone(), MaintenancePlans::new(), false);
    for insert in 0..4 {
        let n = *rng.pick(&[1, 50, 5_000]);
        let rows = gen_customers(rng, n);
        let fail = |e| panic!("{what}: insert {insert} of {n} rows: {e}\n{definition}");
        let report = maintain_insert(&mut catalog, "customer", rows.clone(), &cfg, &mut plans)
            .unwrap_or_else(fail);
        cached |= !report.planned;
        let fresh_plans = &mut MaintenancePlans::new();
        maintain_insert(&mut twin, "customer", rows.clone(), &cfg, fresh_plans)
            .unwrap_or_else(fail);
        let mut delta = DeltaTable::new("customer", plain.table("customer").unwrap().schema());
        for r in &rows {
            delta.record(r).expect("captured above");
        }
        plain.apply_delta(&delta).expect("plain insert");
        let o = optimize_sql(&plain, &definition, &CseConfig::no_cse()).expect("recompute");
        let fresh = Engine::new(&plain, &o.ctx)
            .execute(&o.plan)
            .expect("recompute");
        let fresh = fresh.results.into_iter().next().expect("one statement");
        let stored = catalog.table("mv").expect("view table").rows();
        let twin_stored = twin.table("mv").expect("view table").rows();
        for (oracle, want) in [
            ("recomputed", &fresh.rows),
            ("planned afresh", &twin_stored),
        ] {
            assert!(
                ResultSet::new(fresh.columns.clone(), stored.clone())
                    .approx_eq(&ResultSet::new(fresh.columns.clone(), want.clone()), 1e-9),
                "{what}: insert {insert} of {n} rows (cached plan: {})\n  stored {stored:?}\n  {oracle} {want:?}\n{definition}",
                !report.planned
            );
        }
        let report = similar_subexpr::verify::verify_catalog(&catalog);
        assert!(report.is_clean(), "{what}: {}", report.render());
    }
    cached
}

/// What one seed's arms did: whether its default plan used a spool, which
/// index operators the arms over the seed's own indexes planned (`None`
/// when the seed has none), whether a plan over the all-join-indexed
/// catalog joined through an index, and whether a view was maintained by a
/// cached plan.
struct SeedOutcome {
    spools: bool,
    seed_index_ops: Option<[bool; 2]>,
    index_joins: bool,
    cached: bool,
}

/// Run one seed.
fn check_seed(seed: u64) -> SeedOutcome {
    let mut rng = batchgen::stream(seed);
    let plain = gen_catalog(&mut rng);
    let batch = gen_batch(&mut rng);
    let mut catalog = plain.clone();
    let seed_indexed = batchgen::seed_indexes(seed, &mut catalog);
    let tag = |arm: &str| format!("seed {seed} [{arm}]");

    // One exploration reaches the fixpoint: a second adds nothing.
    let sql = sql_of(&batch);
    let (ctx, plan) = lower_batch_sql(&catalog, &sql).unwrap_or_else(|e| panic!("{e}\n{sql}"));
    let mut memo = Memo::new(ctx);
    memo.insert_plan(&plan);
    explore(&mut memo, &ExploreConfig::default());
    let again = explore(&mut memo, &ExploreConfig::default());
    assert_eq!(
        again,
        0,
        "{}: a second explore added {again}\n{sql}",
        tag("explore")
    );

    // The oracle: the no-CSE plan over the catalog without indexes.
    let (mut no_cse, reference) = run(&plain, &batch, &CseConfig::no_cse(), false, &tag("no-cse"));
    let want = &reference.results;
    assert_same(&batch, want, want, |i| i, &tag("no-cse"));
    let mut seed_index_ops = [false; 2];
    if seed_indexed {
        let what = tag("seed-indexed no-cse");
        let (plan, out) = run(&catalog, &batch, &CseConfig::no_cse(), false, &what);
        assert_same(&batch, &out.results, want, |i| i, &what);
        note_index_ops(&plan, &mut seed_index_ops);
        no_cse = plan;
    }

    // A CSE phase tripped by a zero budget returns the baseline plan the
    // request already holds: the no-CSE arm's plan, with one event.
    let tripped = CseConfig {
        budget: Budget::with_time_ms(0),
        ..CseConfig::default()
    };
    let o = optimize_sql(&catalog, &sql, &tripped)
        .unwrap_or_else(|e| panic!("{}: {e}\n{sql}", tag("tripped")));
    let codes: Vec<_> = o
        .report
        .degradations
        .iter()
        .map(|e| e.reason.code())
        .collect();
    assert!(
        o.report.rung == Rung::Baseline && codes == ["OPT_DEADLINE"],
        "{}: ended on {} after {codes:?}\n{sql}",
        tag("tripped"),
        o.report.rung
    );
    assert_eq!(
        o.plan.root.render(),
        no_cse.root.render(),
        "{}: the plan differs from the no-CSE plan\n{sql}",
        tag("tripped")
    );
    let out = Engine::new(&catalog, &o.ctx)
        .execute(&o.plan)
        .unwrap_or_else(|e| panic!("{}: {e}\n{sql}", tag("tripped")));
    assert_same(&batch, &out.results, want, |i| i, &tag("tripped"));

    // The twin a duplicate statement copies and the permuted order.
    let n = batch.len();
    let twin = rng.range_usize(0, n);
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.range_usize(0, i + 1));
    }
    let (spools, ops) = sharing_arms(&catalog, &batch, want, (twin, &perm), seed, &tag);
    seed_index_ops[0] |= ops[0];
    seed_index_ops[1] |= ops[1];

    let indexed = indexed(&plain);
    let tag = |arm: &str| format!("seed {seed} [indexed {arm}]");
    let (plan, out) = run(
        &indexed,
        &batch,
        &CseConfig::no_cse(),
        false,
        &tag("no-cse"),
    );
    assert_same(&batch, &out.results, want, |i| i, &tag("no-cse"));
    let (_, mut index_ops) = sharing_arms(&indexed, &batch, want, (twin, &perm), seed, &tag);
    note_index_ops(&plan, &mut index_ops);

    let cached = check_maintenance(&plain, &mut rng, seed);
    SeedOutcome {
        spools,
        seed_index_ops: seed_indexed.then_some(seed_index_ops),
        index_joins: index_ops[0],
        cached,
    }
}

#[test]
fn generated_batches_agree_on_every_rung() {
    let deep = std::env::var("CSE_GEN_BATCHES")
        .ok()
        .map(|n| n.parse::<u64>().expect("CSE_GEN_BATCHES=<number of seeds>"));
    let seeds: Vec<u64> = match deep {
        Some(n) => (0..n).collect(),
        None => batchgen::fixed_seeds().collect(),
    };
    let outcomes: Vec<SeedOutcome> = seeds.iter().map(|s| check_seed(*s)).collect();
    let count = |f: fn(&SeedOutcome) -> bool| outcomes.iter().filter(|o| f(o)).count();
    let shared = count(|o| o.spools);
    let index_joins = count(|o| o.index_joins);
    let cached = count(|o| o.cached);
    let seed_indexed = count(|o| o.seed_index_ops.is_some());
    let seed_joins = count(|o| o.seed_index_ops.is_some_and(|ops| ops[0]));
    let range_scans = count(|o| o.seed_index_ops.is_some_and(|ops| ops[1]));
    // A generator that never produces a sharing batch tests nothing, an
    // indexed arm that never joins through an index tests no index join,
    // seed indexes no plan reads test no index operator against the
    // oracle, and a maintenance arm that never runs a cached plan tests no
    // cache.
    assert!(
        shared * 3 >= seeds.len(),
        "only {shared} of {} generated batches used a spool",
        seeds.len()
    );
    assert!(
        index_joins * 3 >= seeds.len(),
        "only {index_joins} of {} indexed batches joined through an index",
        seeds.len()
    );
    assert!(
        seed_joins * 3 >= seed_indexed && range_scans * 3 >= seed_indexed,
        "of {seed_indexed} seed-indexed batches, {seed_joins} joined through an index \
         and {range_scans} scanned one"
    );
    assert!(
        cached * 3 >= seeds.len(),
        "only {cached} of {} maintenance arms ran a cached plan",
        seeds.len()
    );
}
