//! Materialized-view maintenance via the CSE pipeline (paper §6.4), as
//! *plan, then apply*.
//!
//! Inserted tuples are captured in the storage layer's [`DeltaTable`]
//! (arity, type and nullability errors surface there, before any work) and
//! registered in a working clone of the catalog that alone sees the delta
//! table. The maintenance batch is planned once per view set, schema and
//! size band: each affected view's definition is parsed, its base `FROM`
//! item is swapped for the delta's insert table at the AST level, and the
//! rewritten statements are lowered and optimized *as one batch* — so the
//! covering-subexpression machinery shares the common joins. The
//! [`MaintenancePlan`] is cached per base table; a later insert executes
//! it over its own delta while the catalog has the same views, the tables
//! it reads keep their schemas and stay within a factor `ROW_BAND` of
//! their planned row counts, and the indexes it probes exist. The cache is
//! never journaled: a recovered catalog plans at its first insert. The
//! delta results are merged into the stored view contents, and only then
//! is the whole change emitted as [`CatalogMutation`]s: `ReplaceTable` per view,
//! `ApplyDelta` for the base, which appends in place and keeps the base's
//! stats and indexes current. Creating a view adds a hash index on both
//! columns of each of its equijoins, so the batch joins a small delta to
//! the other tables by index lookups at the delta's size, not by scanning
//! them. The planning halves return that list, so a
//! `DurableCatalog` journals exactly what a plain [`Catalog`] applies; this
//! module changes a catalog only through [`Catalog::apply_mutation`], and a
//! request that fails anywhere leaves the caller's catalog as it was. The
//! batch is generated from definitions accepted at creation.

use crate::config::{CseConfig, CseReport};
use crate::pipeline::{abort_message, optimize_plan, optimize_sql, Optimized};
use cse_algebra::{AggFunc, PlanContext, RelKind};
use cse_exec::{AggState, Engine, ExecCtx, ExecMetrics};
use cse_optimizer::{FullPlan, PhysicalPlan};
use cse_sql::ast::{AggName, Expr, ExprKind, SelectItem, Statement};
use cse_sql::SelectStmt;
use cse_storage::delta::DeltaTable;
use cse_storage::{Catalog, CatalogMutation, MaterializedView, Row, SchemaRef, Table, Value};
use std::collections::hash_map::{Entry, HashMap};
use std::time::Instant;

/// How one output column of a view merges on refresh: by the aggregate
/// that rolls its function up (SUM for SUM and COUNT, MIN/MAX for
/// themselves), or not at all (`None`: a group key).
type MergeKind = Option<AggFunc>;

/// Result of a maintenance run.
#[derive(Debug)]
pub struct MaintenanceReport {
    /// Views refreshed, in maintenance order.
    pub views: Vec<String>,
    /// Rows in the delta that drove maintenance.
    pub delta_rows: usize,
    /// Optimizer report of the maintenance batch (candidates, costs, ...).
    pub cse: CseReport,
    /// The maintenance batch's plan and what executing it did; absent and
    /// zero when no view reads the base.
    pub plan: Option<FullPlan>,
    pub metrics: ExecMetrics,
    /// This insert planned its batch: no cached plan fitted the catalog.
    /// A cached plan's `cse` and `plan` are those of its planning.
    pub planned: bool,
    /// Wall-clock of planning (when `planned`), execute and merge.
    pub total_time: std::time::Duration,
}

/// Plan a materialized view: check that its definition is maintainable,
/// execute it, and return the mutations that store the result as a table
/// named after the view, index its equijoin columns and register the
/// definition.
pub fn plan_materialized_view(
    catalog: &Catalog,
    name: &str,
    definition_sql: &str,
    cfg: &CseConfig,
) -> Result<Vec<CatalogMutation>, String> {
    // Validate mergeability now so maintenance cannot fail later.
    merge_plan_of(&parse_definition(definition_sql)?)?;
    let optimized = optimize_sql(catalog, definition_sql, cfg)?;
    let indexes = join_indexes(catalog, &optimized.ctx, &optimized.plan)?;
    let engine = Engine::new(catalog, &optimized.ctx);
    let out = engine.execute(&optimized.plan)?;
    let result = out
        .results
        .into_iter()
        .next()
        .ok_or("view definition produced no result")?;
    let schema = infer_schema(&result.columns, &result.rows);
    let table = Table::with_rows(name, schema, result.rows);
    let mut mutations = vec![CatalogMutation::RegisterTable { table }];
    mutations.extend(indexes);
    mutations.push(CatalogMutation::RegisterView {
        name: name.to_string(),
        definition_sql: definition_sql.to_string(),
    });
    Ok(mutations)
}

/// `CreateHashIndex` for both columns of every equijoin key of the
/// definition's plan whose column has no hash index yet, each column once.
fn join_indexes(
    catalog: &Catalog,
    ctx: &PlanContext,
    plan: &FullPlan,
) -> Result<Vec<CatalogMutation>, String> {
    let mut cols = Vec::new();
    let roots = std::iter::once(&plan.root).chain(plan.spools.values().map(|s| &s.plan));
    for p in roots {
        p.visit(&mut |op| match op {
            PhysicalPlan::HashJoin { keys, .. } => {
                cols.extend(keys.iter().flat_map(|(a, b)| [*a, *b]))
            }
            PhysicalPlan::IndexNlJoin { key: (a, b), .. } => cols.extend([*a, *b]),
            _ => {}
        });
    }
    let mut wanted: Vec<(String, String)> = Vec::new();
    for c in cols {
        let rel = ctx.rel(c.rel);
        if rel.kind != RelKind::Base {
            continue;
        }
        let entry = catalog.get(&rel.name)?;
        let at = c.col as usize;
        let key = (
            rel.name.to_ascii_lowercase(),
            entry.table.schema().column(at).name.clone(),
        );
        if !entry.indexed(at).0 && !wanted.contains(&key) {
            wanted.push(key);
        }
    }
    let create = |(table, column)| CatalogMutation::CreateHashIndex { table, column };
    Ok(wanted.into_iter().map(create).collect())
}

/// Create a materialized view: [`plan_materialized_view`], applied.
pub fn create_materialized_view(
    catalog: &mut Catalog,
    name: &str,
    definition_sql: &str,
    cfg: &CseConfig,
) -> Result<(), String> {
    let mutations = plan_materialized_view(catalog, name, definition_sql, cfg)?;
    apply(catalog, &mutations)
}

/// How far a table the maintenance batch reads may grow or shrink before
/// the batch is planned again: its row count must stay within
/// `[est / ROW_BAND, est × ROW_BAND]` of the count it was planned at.
const ROW_BAND: usize = 4;

/// Maintenance plans by lower-cased base table, each built at the first
/// insert into its base. A cache holds plans of one configuration: whoever
/// changes the configuration clears it, as `Session::set_config` does.
pub type MaintenancePlans = HashMap<String, MaintenancePlan>;

/// The maintenance batch of one base table, planned over its delta table,
/// and what the plan depends on. An insert runs it while it fits the
/// catalog, and plans afresh otherwise.
pub struct MaintenancePlan {
    /// Every view of the catalog the batch was generated from, by name.
    catalog_views: Vec<MaterializedView>,
    /// The views the batch refreshes, in batch order, and how each merges.
    views: Vec<String>,
    merge_plans: Vec<Vec<MergeKind>>,
    /// The optimized batch; `None` when no view reads the base.
    batch: Option<Optimized>,
    /// Each table the batch reads, the delta's included: its schema and
    /// its row count at planning time.
    reads: Vec<(String, SchemaRef, usize)>,
}

impl MaintenancePlan {
    /// Plan the batch that maintains every view reading `base` from the
    /// delta table `delta` of `work`: each such definition is parsed, its
    /// base FROM item swapped for the delta, aliased as the base so column
    /// references still resolve (same schema), and the rewritten
    /// statements are lowered and optimized as one batch.
    fn build(work: &Catalog, base: &str, delta: &str, cfg: &CseConfig) -> Result<Self, String> {
        let catalog_views: Vec<MaterializedView> = sorted_views(work).cloned().collect();
        let (mut views, mut merge_plans, mut batch) = (Vec::new(), Vec::new(), Vec::new());
        for v in &catalog_views {
            let mut select =
                parse_definition(&v.definition_sql).map_err(|e| format!("view {}: {e}", v.name))?;
            let Some(item) = select
                .from
                .iter_mut()
                .find(|f| f.table.eq_ignore_ascii_case(base))
            else {
                continue;
            };
            let base_name = std::mem::replace(&mut item.table, delta.to_string());
            item.alias.get_or_insert(base_name);
            merge_plans.push(merge_plan_of(&select)?);
            batch.push(select);
            views.push(v.name.clone());
        }
        let batch = if batch.is_empty() {
            None
        } else {
            let (ctx, plan) = cse_sql::lower_batch(work, &batch)?;
            Some(optimize_plan(work, ctx, plan, cfg)?)
        };
        let mut reads: Vec<(String, SchemaRef, usize)> = Vec::new();
        for (_, rel) in batch.iter().flat_map(|b| b.ctx.rels()) {
            if rel.kind == RelKind::Base && !reads.iter().any(|(name, ..)| *name == rel.name) {
                let rows = work.table(&rel.name)?.row_count();
                reads.push((rel.name.clone(), rel.schema.clone(), rows));
            }
        }
        Ok(MaintenancePlan {
            catalog_views,
            views,
            merge_plans,
            batch,
            reads,
        })
    }

    /// Can this plan maintain the views of `work`, the catalog holding the
    /// insert's delta? Yes while the catalog has the same views, every
    /// table the batch reads has the schema it was planned for and a row
    /// count inside the band, and every index the batch probes exists.
    fn fits(&self, work: &Catalog) -> bool {
        let in_band = |now: usize, est: usize| {
            now.saturating_mul(ROW_BAND) >= est && now <= est.saturating_mul(ROW_BAND)
        };
        let same_reads = self.reads.iter().all(|(name, schema, est)| {
            work.get(name)
                .is_ok_and(|e| e.table.schema() == schema && in_band(e.table.row_count(), *est))
        });
        let mut indexed = true;
        if let Some(batch) = &self.batch {
            let plan = &batch.plan;
            let trees = std::iter::once(&plan.root).chain(plan.spools.values().map(|s| &s.plan));
            for tree in trees {
                tree.visit(&mut |op| {
                    if let PhysicalPlan::IndexNlJoin { rel, key, .. } = op {
                        let entry = work.get(&batch.ctx.rel(*rel).name);
                        indexed &= entry.is_ok_and(|e| e.indexed(key.1.col as usize).0);
                    }
                });
            }
        }
        self.catalog_views.iter().eq(sorted_views(work)) && same_reads && indexed
    }

    /// Execute the batch over `work` under the request's cancel token and
    /// failpoints, and merge each view's delta rows into its stored rows
    /// in `catalog`: one `ReplaceTable` per refreshed view.
    fn refresh(
        &self,
        catalog: &Catalog,
        work: &Catalog,
        cfg: &CseConfig,
    ) -> Result<(Vec<CatalogMutation>, ExecMetrics), String> {
        let Some(batch) = &self.batch else {
            return Ok(Default::default());
        };
        cfg.cancel
            .check("maintenance/execute")
            .map_err(abort_message)?;
        let governed = ExecCtx {
            failpoints: cfg.failpoints.clone(),
            cancel: cfg.cancel.clone(),
            ..ExecCtx::default()
        };
        let out = Engine::new(work, &batch.ctx).execute_in(&batch.plan, &governed)?;
        if out.results.len() != self.views.len() {
            return Err("maintenance batch produced the wrong number of results".into());
        }
        let mut mutations = Vec::with_capacity(self.views.len() + 1);
        for ((name, result), merge) in self.views.iter().zip(out.results).zip(&self.merge_plans) {
            let stored = catalog.table(name)?;
            mutations.push(CatalogMutation::ReplaceTable {
                table: merge_rows(&stored, &result.rows, merge),
            });
        }
        Ok((mutations, out.metrics))
    }
}

/// The catalog's views, by name.
fn sorted_views(catalog: &Catalog) -> impl Iterator<Item = &MaterializedView> {
    let mut views: Vec<_> = catalog.views().collect();
    views.sort_by(|a, b| a.name.cmp(&b.name));
    views.into_iter()
}

/// Plan the insert of `inserts` into `base`: maintain every affected
/// materialized view through one CSE-optimized batch over the captured
/// delta and return the whole change — `ReplaceTable` per refreshed view,
/// then `ApplyDelta` for the base — without touching `catalog`. The batch
/// comes from `plans` when the cached one still fits the catalog; otherwise
/// it is planned and, unless it is degraded, cached.
pub fn plan_insert(
    catalog: &Catalog,
    base: &str,
    inserts: Vec<Row>,
    cfg: &CseConfig,
    plans: &mut MaintenancePlans,
) -> Result<(Vec<CatalogMutation>, MaintenanceReport), String> {
    let t0 = Instant::now();
    let base_table = catalog.table(base)?;
    let mut delta = DeltaTable::new(base_table.name(), base_table.schema());
    for r in inserts {
        delta.record(r)?;
    }
    // Only this clone ever holds the delta table (no rows are copied).
    let mut work = catalog.clone();
    let table = delta.inserts.clone();
    apply(&mut work, &[CatalogMutation::RegisterTable { table }])?;

    let key = base.to_ascii_lowercase();
    let cached = plans.get(&key).filter(|p| p.fits(&work));
    let planned = cached.is_none();
    let mut built = None;
    let plan = match cached {
        Some(cached) => cached,
        None => {
            let fresh = MaintenancePlan::build(&work, base, delta.inserts.name(), cfg)?;
            &*built.insert(fresh)
        }
    };
    let (mut mutations, metrics) = plan.refresh(catalog, &work, cfg)?;
    let mut report = MaintenanceReport {
        views: plan.views.clone(),
        delta_rows: delta.insert_count(),
        cse: plan
            .batch
            .as_ref()
            .map(|b| b.report.clone())
            .unwrap_or_default(),
        plan: plan.batch.as_ref().map(|b| b.plan.clone()),
        metrics,
        planned,
        total_time: Default::default(),
    };
    mutations.push(CatalogMutation::ApplyDelta { delta });
    // A degraded plan serves this insert only.
    if let Some(fresh) = built.filter(|_| report.cse.degradations.is_empty()) {
        plans.insert(key, fresh);
    }
    report.total_time = t0.elapsed();
    Ok((mutations, report))
}

/// Apply `inserts` to `base` and maintain every affected materialized
/// view: [`plan_insert`], applied.
pub fn maintain_insert(
    catalog: &mut Catalog,
    base: &str,
    inserts: Vec<Row>,
    cfg: &CseConfig,
    plans: &mut MaintenancePlans,
) -> Result<MaintenanceReport, String> {
    let t0 = Instant::now();
    let (mutations, mut report) = plan_insert(catalog, base, inserts, cfg, plans)?;
    apply(catalog, &mutations)?;
    report.total_time = t0.elapsed();
    Ok(report)
}

/// The one way this module changes a catalog.
fn apply(catalog: &mut Catalog, mutations: &[CatalogMutation]) -> Result<(), String> {
    for m in mutations {
        catalog.apply_mutation(m)?;
    }
    Ok(())
}

/// A view definition as the SELECT it must be.
fn parse_definition(sql: &str) -> Result<SelectStmt, String> {
    match cse_sql::parse_one(sql)? {
        Statement::Select(s) => Ok(s),
        Statement::CreateMaterializedView { .. } => {
            Err("pass the defining SELECT, not CREATE MATERIALIZED VIEW".into())
        }
    }
}

/// Which output column merges how. Errors on every definition a delta
/// alone cannot maintain, so an accepted view cannot fail at its first
/// insert: the rewrite swaps one FROM item for the delta, so no table may
/// be read twice (self-join) or out of its sight (subquery), and a stored
/// row must merge column by column (no AVG, HAVING, ORDER BY, or
/// expression over aggregates).
fn merge_plan_of(select: &SelectStmt) -> Result<Vec<MergeKind>, String> {
    if select.having.is_some() || !select.order_by.is_empty() {
        return Err("materialized views cannot use HAVING or ORDER BY".into());
    }
    let mut tables: Vec<_> = select
        .from
        .iter()
        .map(|f| f.table.to_ascii_lowercase())
        .collect();
    tables.sort();
    if tables.windows(2).any(|w| w[0] == w[1]) {
        return Err("self-joins are not self-maintainable: the delta replaces one table".into());
    }
    let subquery = |k: &ExprKind| matches!(k, ExprKind::Subquery(_));
    let aggregate = |k: &ExprKind| matches!(k, ExprKind::Agg { .. });
    let mut out = Vec::new();
    let mut exprs: Vec<&Expr> = select.where_clause.iter().collect();
    for item in &select.select {
        let SelectItem::Expr { expr, .. } = item else {
            return Err("materialized views must list output columns explicitly".into());
        };
        exprs.push(expr);
        out.push(match &expr.kind {
            ExprKind::Agg { func, .. } if *func != AggName::Avg => Some(match func {
                AggName::Min => AggFunc::Min,
                AggName::Max => AggFunc::Max,
                _ => AggFunc::Sum,
            }),
            _ if expr.any(&aggregate) => {
                return Err("AVG (or any expression over aggregates) is not \
                            self-maintainable; define SUM and COUNT columns"
                    .into())
            }
            _ => None,
        });
    }
    if exprs.into_iter().any(|e| e.any(&subquery)) {
        return Err("subqueries are not self-maintainable: the delta cannot see them".into());
    }
    if select.group_by.is_empty() && out.contains(&None) {
        return Err("a view without GROUP BY must list aggregates only".into());
    }
    Ok(out)
}

/// Merge delta rows into stored rows: a delta row updates the stored row of
/// its group (without keys, the single stored row); new groups are appended.
/// Stored ⊕ delta is the executor's own aggregate merge, so a maintained
/// view holds what recomputing it would (an integer sum that leaves the
/// i64 range carries on as a float).
fn merge_rows(stored: &Table, delta: &[Row], plan: &[MergeKind]) -> Table {
    let key_of = |r: &[Value]| -> Vec<Value> {
        let keys = plan.iter().zip(r).filter(|(k, _)| k.is_none());
        keys.map(|(_, v)| v.clone()).collect()
    };
    let mut rows: Vec<Vec<Value>> = stored.scan().map(<[Value]>::to_vec).collect();
    let mut index: HashMap<Vec<Value>, usize> = HashMap::with_capacity(rows.len());
    for (i, r) in rows.iter().enumerate() {
        index.insert(key_of(r), i);
    }
    for d in delta {
        match index.entry(key_of(d)) {
            Entry::Occupied(at) => {
                for ((old, new), kind) in rows[*at.get()].iter_mut().zip(d.iter()).zip(plan) {
                    if let Some(func) = kind {
                        let mut merged = AggState::new(*func);
                        merged.update(old);
                        merged.update(new);
                        *old = merged.finish();
                    }
                }
            }
            Entry::Vacant(at) => {
                at.insert(rows.len());
                rows.push(d.to_vec());
            }
        }
    }
    let mut merged = Table::new(stored.name(), stored.schema().as_ref().clone());
    rows.into_iter().for_each(|r| merged.push_values(r));
    merged
}

/// Infer a storage schema from delivered result columns and rows.
fn infer_schema(columns: &[String], rows: &[Row]) -> cse_storage::Schema {
    use cse_storage::{ColumnDef, DataType};
    let column = |(i, name): (usize, &String)| {
        let seen = rows.iter().find_map(|r| r[i].data_type());
        ColumnDef::new(name.clone(), seen.unwrap_or(DataType::Int)).nullable()
    };
    cse_storage::Schema::new(columns.iter().enumerate().map(column).collect())
}
