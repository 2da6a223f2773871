//! The physical plan interpreter.
//!
//! Executes a [`FullPlan`]: spool work tables are computed at most once
//! (on first read) and shared by every consumer, which is precisely the
//! runtime behaviour the covering-subexpression optimization banks on.
//!
//! Execution is *governed*: [`Engine::execute_in`] threads an [`ExecCtx`]
//! — a deterministic fault-injection registry, per-statement
//! materialization limits, a cancellation token and an optional memory
//! reservation — through the interpreter. When a spool faults or
//! a budget trips, the affected statement is retried against the retained
//! baseline plan (its original non-covering expression) and the recovery
//! is recorded in the result's provenance — a fault degrades the plan, it
//! never degrades the answer.
//!
//! Operators bind their expressions once against their input's columns
//! ([`Bound`]), hash join and group-by keys in place ([`crate::keys`]),
//! and are told which columns their ancestors read ([`Need`]) so joins
//! materialize only those.

use crate::error::ExecError;
use crate::eval::{position, AggState, Bound};
use crate::keys::{key_eq, key_hash, KeyTable};
use cse_algebra::{AggExpr, ColRef, PlanContext, Scalar, SortOrder};
use cse_govern::{
    sites, CancelToken, DegradationEvent, ExecLimits, FailpointRegistry, MemReservation, MemScope,
    Reason, ReserveError,
};
use cse_optimizer::{CseId, FullPlan, PhysicalPlan};
use cse_storage::{Catalog, Row, Table, Value};
use std::collections::{BTreeSet, HashMap};
use std::ops::Bound as RangeBound;

/// A delivered result set (one per batch statement).
#[derive(Debug, Clone)]
pub struct ResultSet {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
    /// Recovery records for this statement: empty in the common case; one
    /// [`DegradationEvent`] per fault the statement was retried through.
    pub provenance: Vec<DegradationEvent>,
}

impl ResultSet {
    /// A result set with clean provenance.
    pub fn new(columns: Vec<String>, rows: Vec<Row>) -> Self {
        ResultSet {
            columns,
            rows,
            provenance: Vec::new(),
        }
    }

    /// Canonical form for comparisons in tests: rows sorted by total order.
    pub fn canonicalized(mut self) -> ResultSet {
        self.rows.sort_by(|a, b| {
            for (x, y) in a.iter().zip(b.iter()) {
                let o = x.total_cmp(y);
                if !o.is_eq() {
                    return o;
                }
            }
            std::cmp::Ordering::Equal
        });
        self
    }

    /// Order-insensitive equality with a relative tolerance on floats.
    /// Plans that share subexpressions aggregate in stages, so float sums
    /// legitimately differ in the last bits from single-stage plans.
    ///
    /// Uses a default absolute epsilon floor of `1e-7`: staged aggregation
    /// can cancel to values near zero where a purely relative tolerance
    /// collapses to (almost) exact equality and spuriously fails. Use
    /// [`ResultSet::approx_eq_with`] to control the floor explicitly.
    pub fn approx_eq(&self, other: &ResultSet, rel_tol: f64) -> bool {
        self.approx_eq_with(other, rel_tol, 1e-7)
    }

    /// [`ResultSet::approx_eq`] with an explicit absolute epsilon floor:
    /// two floats match when `|x - y| <= abs_tol` **or**
    /// `|x - y| <= rel_tol · max(|x|, |y|, 1)`.
    pub fn approx_eq_with(&self, other: &ResultSet, rel_tol: f64, abs_tol: f64) -> bool {
        if self.rows.len() != other.rows.len() {
            return false;
        }
        let a = self.clone().canonicalized();
        let b = other.clone().canonicalized();
        a.rows.iter().zip(b.rows.iter()).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra.iter().zip(rb.iter()).all(|(x, y)| match (x, y) {
                    (Value::Float(_), _) | (_, Value::Float(_)) => match (x.as_f64(), y.as_f64()) {
                        (Some(fx), Some(fy)) => {
                            let diff = (fx - fy).abs();
                            let tol = rel_tol * fx.abs().max(fy.abs()).max(1.0);
                            diff <= abs_tol || diff <= tol
                        }
                        _ => false,
                    },
                    _ => x == y,
                })
        })
    }
}

/// Execution counters.
///
/// Under baseline-retry recovery these reflect the *final* attempt of each
/// statement only: a failed attempt's spool/scan/byte deltas are rolled
/// back before the retry, so dashboards see what actually produced the
/// answer, not work that was thrown away.
#[derive(Debug, Clone, Default)]
pub struct ExecMetrics {
    /// Rows produced into each spool work table.
    pub spool_rows: HashMap<CseId, usize>,
    /// Number of times each spool was read.
    pub spool_reads: HashMap<CseId, usize>,
    /// Approximate bytes held by each spool work table.
    pub spool_bytes: HashMap<CseId, usize>,
    /// Total rows scanned from base tables.
    pub base_rows_scanned: usize,
    /// Per-request high-water mark of approximate bytes materialized:
    /// the current statement's operator outputs plus all live spools.
    pub peak_bytes: usize,
}

/// Execution output: one result set per delivered statement plus metrics.
#[derive(Debug, Clone)]
pub struct ExecOutput {
    pub results: Vec<ResultSet>,
    pub metrics: ExecMetrics,
    /// Every runtime recovery performed across the batch (union of the
    /// per-result provenance, in statement order).
    pub events: Vec<DegradationEvent>,
}

/// Intermediate rows and the global column id of each row position.
struct Chunk {
    cols: Vec<ColRef>,
    rows: Vec<Row>,
}

/// The columns an operator's ancestors read, handed down as the plan is
/// walked. An operator may emit more than is needed (scans deliver stored
/// rows as they are), never less: a parent binds against the columns its
/// input actually produced, so an over-pruned column is a bind error.
type Need = BTreeSet<ColRef>;

/// How one [`Engine::execute_in`] call is governed. The default is
/// ungoverned: nothing armed, no limits, never canceled, no reservation.
#[derive(Debug, Clone)]
pub struct ExecCtx<'a> {
    /// Armed failpoints may inject faults at the executor's sites.
    pub failpoints: FailpointRegistry,
    /// Per-statement materialization limits.
    pub limits: ExecLimits,
    /// Checked at every operator boundary and every [`CANCEL_STRIDE`]
    /// rows inside scans and joins, so a watchdog can stop a runaway
    /// batch without killing the executing thread.
    pub cancel: CancelToken,
    /// Global memory reservation that all operator output bytes (and
    /// spool work tables, which outlive their statement) are charged to;
    /// a refused charge is a recoverable fault like a breached limit.
    pub reservation: Option<&'a MemReservation>,
    /// Retry a statement that hit a recoverable fault (injected failpoint,
    /// breached limit, refused reservation) against the retained baseline
    /// plan — or, when the plan has no retained baseline, against the same
    /// statement with governance suppressed — and record the recovery in
    /// the result's provenance and [`ExecOutput::events`]. Serving layers
    /// that own the retry policy turn this off; the fault then bubbles.
    pub recover: bool,
}

impl ExecCtx<'_> {
    /// The default context with these failpoints and limits.
    pub fn governed(failpoints: &FailpointRegistry, limits: &ExecLimits) -> Self {
        ExecCtx {
            failpoints: failpoints.clone(),
            limits: limits.clone(),
            ..ExecCtx::default()
        }
    }
}

impl Default for ExecCtx<'_> {
    fn default() -> Self {
        ExecCtx {
            failpoints: FailpointRegistry::disabled(),
            limits: ExecLimits::none(),
            cancel: CancelToken::never(),
            reservation: None,
            recover: true,
        }
    }
}

/// The interpreter.
pub struct Engine<'a> {
    pub catalog: &'a Catalog,
    pub ctx: &'a PlanContext,
}

struct RunState<'p> {
    plan: &'p FullPlan,
    spools: HashMap<CseId, (Vec<ColRef>, Vec<Row>)>,
    metrics: ExecMetrics,
    ctx: &'p ExecCtx<'p>,
    /// Rows / approximate bytes materialized by the current statement.
    rows_materialized: usize,
    bytes_materialized: usize,
    /// Approximate bytes held by live spools (sum of
    /// [`ExecMetrics::spool_bytes`], kept as a running total).
    spool_bytes_total: usize,
    /// Transient per-statement charge against the request's global memory
    /// reservation; recreated each statement so its bytes release on
    /// statement end. `None` when execution is not memory-governed.
    stmt_scope: Option<MemScope>,
    /// Charge for spool work tables, which outlive their statement; bytes
    /// are uncharged individually if a spool is rolled back.
    spool_scope: Option<MemScope>,
    /// Set while retrying a statement against its baseline plan: both
    /// fault injection and limits are suppressed so recovery always
    /// terminates — recovery prioritizes answering over governing.
    /// Cancellation is *not* suppressed: a watchdog must be able to stop
    /// a runaway baseline retry too. Memory-reservation charges switch to
    /// unchecked mode: the retry cannot fault, but a retry that outruns
    /// its grant becomes visible to the serving watchdog via
    /// [`MemReservation::over_grant`].
    recovering: bool,
}

/// Map a refused reservation charge into the interpreter's error space.
fn reserve_to_exec(e: ReserveError) -> ExecError {
    match e {
        ReserveError::Exhausted {
            requested,
            available,
        } => ExecError::MemReservation {
            requested,
            available,
        },
        ReserveError::Injected => ExecError::Injected {
            site: sites::MEM_RESERVE.to_string(),
        },
        ReserveError::Canceled { deadline } => ExecError::Canceled { deadline },
    }
}

/// How many rows an operator loop processes between cancellation checks.
/// A power of two so the check compiles to a mask + branch.
const CANCEL_STRIDE: usize = 4096;

impl RunState<'_> {
    /// Evaluate an armed failpoint at `site` (no-op while recovering).
    fn maybe_fail(&self, site: &str) -> Result<(), ExecError> {
        if !self.recovering && self.ctx.failpoints.should_fail(site) {
            return Err(ExecError::Injected {
                site: site.to_string(),
            });
        }
        Ok(())
    }

    /// Stop if the request was canceled or its deadline expired.
    fn check_cancel(&self) -> Result<(), ExecError> {
        if self.ctx.cancel.is_explicitly_canceled() {
            return Err(ExecError::Canceled { deadline: false });
        }
        if self.ctx.cancel.deadline_expired() {
            return Err(ExecError::Canceled { deadline: true });
        }
        Ok(())
    }

    /// Strided cancellation check for per-row loops.
    #[inline]
    fn check_cancel_at(&self, i: usize) -> Result<(), ExecError> {
        if i.is_multiple_of(CANCEL_STRIDE) {
            self.check_cancel()?;
        }
        Ok(())
    }

    /// Charge one operator's materialized output: the high-water metric
    /// and the global memory reservation always see it; the per-statement
    /// limits are enforced only outside recovery (recovery prioritizes
    /// answering over governing).
    fn charge(&mut self, rows: usize, bytes: usize) -> Result<(), ExecError> {
        self.rows_materialized += rows;
        self.bytes_materialized += bytes;
        let live = self.bytes_materialized + self.spool_bytes_total;
        self.metrics.peak_bytes = self.metrics.peak_bytes.max(live);
        if let Some(scope) = self.stmt_scope.as_mut() {
            if self.recovering {
                scope.charge_unchecked(bytes);
            } else {
                scope.charge(bytes).map_err(reserve_to_exec)?;
            }
        }
        if self.recovering || self.ctx.limits.is_unlimited() {
            return Ok(());
        }
        if let Some(cap) = self.ctx.limits.max_rows {
            if self.rows_materialized > cap {
                return Err(ExecError::ResourceBudget {
                    what: "rows",
                    limit: cap,
                    used: self.rows_materialized,
                });
            }
        }
        if let Some(cap) = self.ctx.limits.max_bytes {
            if self.bytes_materialized > cap {
                return Err(ExecError::ResourceBudget {
                    what: "bytes",
                    limit: cap,
                    used: self.bytes_materialized,
                });
            }
        }
        Ok(())
    }

    /// Replace the per-statement reservation scope with a fresh one,
    /// releasing the previous statement's transient bytes.
    fn reset_stmt_scope(&mut self) {
        self.stmt_scope = self.stmt_scope.take().map(|s| s.child());
    }

    /// Undo a failed attempt's side effects before the baseline retry:
    /// spools it materialized are dropped (and their reservation bytes
    /// returned), and metrics revert to the pre-attempt snapshot.
    fn rollback_attempt(&mut self, snapshot: &ExecMetrics) {
        let added: Vec<CseId> = self
            .spools
            .keys()
            .filter(|id| !snapshot.spool_rows.contains_key(id))
            .copied()
            .collect();
        for id in added {
            self.spools.remove(&id);
            let bytes = self.metrics.spool_bytes.get(&id).copied().unwrap_or(0);
            self.spool_bytes_total = self.spool_bytes_total.saturating_sub(bytes);
            if let Some(scope) = self.spool_scope.as_mut() {
                scope.uncharge(bytes);
            }
        }
        self.metrics = snapshot.clone();
    }
}

impl<'a> Engine<'a> {
    pub fn new(catalog: &'a Catalog, ctx: &'a PlanContext) -> Self {
        Engine { catalog, ctx }
    }

    /// Execute a full plan; batch roots deliver one result set per child.
    /// Ungoverned: no fault injection, no limits.
    pub fn execute(&self, plan: &FullPlan) -> Result<ExecOutput, ExecError> {
        self.execute_in(plan, &ExecCtx::default())
    }

    /// Execute under the governance `ctx` describes (see [`ExecCtx`]).
    pub fn execute_in(&self, plan: &FullPlan, ctx: &ExecCtx<'_>) -> Result<ExecOutput, ExecError> {
        let mut st = RunState {
            plan,
            spools: HashMap::new(),
            metrics: ExecMetrics::default(),
            ctx,
            rows_materialized: 0,
            bytes_materialized: 0,
            spool_bytes_total: 0,
            stmt_scope: ctx.reservation.map(MemReservation::scope),
            spool_scope: ctx.reservation.map(MemReservation::scope),
            recovering: false,
        };
        let statements: Vec<&PhysicalPlan> = match &plan.root {
            PhysicalPlan::Batch { children } => children.iter().collect(),
            other => vec![other],
        };
        let mut results = Vec::with_capacity(statements.len());
        let mut events = Vec::new();
        for (i, stmt) in statements.iter().enumerate() {
            st.check_cancel()?;
            st.rows_materialized = 0;
            st.bytes_materialized = 0;
            st.reset_stmt_scope();
            // Snapshot so a failed attempt's metric deltas (spools it
            // materialized, rows it scanned, the peak it touched) can be
            // rolled back — metrics report the final attempt only.
            let snapshot = st.metrics.clone();
            match self.deliver(stmt, &mut st) {
                Ok(rs) => results.push(rs),
                Err(e) if ctx.recover && e.is_recoverable() => {
                    let reason = match &e {
                        ExecError::Injected { .. } => Reason::ExecFaultInjected,
                        ExecError::ResourceBudget { what: "rows", .. } => Reason::ExecRowBudget,
                        ExecError::MemReservation { .. } => Reason::MemReservation,
                        _ => Reason::ExecMemBudget,
                    };
                    let event = DegradationEvent::exec(
                        reason,
                        format!("statement {}", i + 1),
                        format!("{e}; retried on baseline plan"),
                    );
                    st.rollback_attempt(&snapshot);
                    st.rows_materialized = 0;
                    st.bytes_materialized = 0;
                    st.reset_stmt_scope();
                    // The retained baseline is the statement's original
                    // non-covering expression. A plan without spools has
                    // nothing to retain: its statement *is* the baseline,
                    // so retry it directly with governance suppressed.
                    let base = plan.baseline_statement(i).unwrap_or(stmt);
                    st.recovering = true;
                    let retried = self.deliver(base, &mut st);
                    st.recovering = false;
                    let mut rs = retried?;
                    rs.provenance.push(event.clone());
                    events.push(event);
                    results.push(rs);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(ExecOutput {
            results,
            metrics: st.metrics,
            events,
        })
    }

    /// Run one statement subtree and name its output columns.
    fn deliver(&self, plan: &PhysicalPlan, st: &mut RunState<'_>) -> Result<ResultSet, ExecError> {
        if let PhysicalPlan::Project { input, exprs } = plan {
            let need = columns_of(exprs.iter().map(|(_, e)| e));
            let chunk = self.run(input, &need, st)?;
            let rows = project(
                chunk.rows.iter(),
                &chunk.cols,
                exprs.iter().map(|(_, e)| e),
                "Project",
            )?;
            let names = exprs.iter().map(|(n, _)| n.clone()).collect();
            return Ok(ResultSet::new(names, rows));
        }
        // Any other root (Sort above Project is not generated) delivers
        // its whole layout under the catalog's column names.
        let need = plan.layout().iter().copied().collect();
        let chunk = self.run(plan, &need, st)?;
        Ok(ResultSet::new(
            chunk.cols.iter().map(|c| self.ctx.col_name(*c)).collect(),
            chunk.rows,
        ))
    }

    /// Evaluate one operator and charge its output against the statement
    /// budget. The budget counts rows (and approximate bytes) materialized
    /// by *every* operator, spool definitions included — a runaway join
    /// inside a spool trips the consumer statement that first reads it.
    fn run(
        &self,
        plan: &PhysicalPlan,
        need: &Need,
        st: &mut RunState<'_>,
    ) -> Result<Chunk, ExecError> {
        st.check_cancel()?;
        let chunk = self.run_inner(plan, need, st)?;
        let bytes = chunk.rows.len() * chunk.cols.len().max(1) * std::mem::size_of::<Value>();
        st.charge(chunk.rows.len(), bytes)?;
        Ok(chunk)
    }

    fn run_inner(
        &self,
        plan: &PhysicalPlan,
        need: &Need,
        st: &mut RunState<'_>,
    ) -> Result<Chunk, ExecError> {
        let bind_opt = |p: &Option<Scalar>, cols: &[ColRef]| {
            p.as_ref()
                .map(|p| Bound::bind(p, cols, plan.name()))
                .transpose()
        };
        match plan {
            PhysicalPlan::TableScan {
                rel,
                filter,
                layout,
            } => {
                st.maybe_fail(sites::SCAN_TABLE)?;
                let info = self.ctx.rel(*rel);
                let table = self
                    .catalog
                    .table(&info.name)
                    .map_err(|e| ExecError::Storage(e.to_string()))?;
                let filter = bind_opt(filter, layout)?;
                Ok(Chunk {
                    cols: layout.clone(),
                    rows: scan(&table, filter.as_ref(), st)?,
                })
            }
            PhysicalPlan::IndexRangeScan {
                rel,
                col,
                interval,
                pred,
                layout,
            } => {
                st.maybe_fail(sites::SCAN_INDEX)?;
                let info = self.ctx.rel(*rel);
                let entry = self
                    .catalog
                    .get(&info.name)
                    .map_err(|e| ExecError::Storage(e.to_string()))?;
                let table = &entry.table;
                let pred = Bound::bind(pred, layout, plan.name())?;
                // The interval is only where to look: the B-tree's order is
                // the predicate's order just for bounds of the column's own
                // comparison class, and every row found is decided by `pred`.
                let ty = self.ctx.col_type(*col);
                let idx = entry
                    .btree_indexes
                    .iter()
                    .find(|i| i.column == col.col as usize)
                    .filter(|_| interval.in_class_of(ty));
                let rows = match idx {
                    // Index dropped since planning: degrade to a scan.
                    None => scan(table, Some(&pred), st)?,
                    Some(_) if interval.emptiness(ty).is_some() => Vec::new(),
                    Some(idx) => {
                        fn side(s: &Option<(Value, bool)>) -> RangeBound<&Value> {
                            match s {
                                Some((v, true)) => RangeBound::Included(v),
                                Some((v, false)) => RangeBound::Excluded(v),
                                None => RangeBound::Unbounded,
                            }
                        }
                        let mut rows = Vec::new();
                        let hits = idx.range(side(&interval.lo), side(&interval.hi));
                        for (i, rid) in hits.enumerate() {
                            st.check_cancel_at(i)?;
                            // The index can lag the table (rebuild racing a
                            // shrink); a stale rowid must degrade to an
                            // error, not a panic on the serving path.
                            let r = table.rows().get(rid as usize).ok_or_else(|| {
                                ExecError::Storage(format!(
                                    "index rowid {rid} out of range for {}",
                                    info.name
                                ))
                            })?;
                            if pred.accepts(r) {
                                rows.push(r.clone());
                            }
                        }
                        st.metrics.base_rows_scanned += rows.len();
                        rows
                    }
                };
                Ok(Chunk {
                    cols: layout.clone(),
                    rows,
                })
            }
            PhysicalPlan::Filter { input, pred } => {
                let mut chunk = self.run(input, &with_columns(need, [pred]), st)?;
                let pred = Bound::bind(pred, &chunk.cols, plan.name())?;
                chunk.rows.retain(|r| pred.accepts(r));
                Ok(chunk)
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                keys,
                residual,
                ..
            } => {
                // Output what the ancestors read plus what the residual
                // reads (it is tested on the joined row); the inputs must
                // also carry the join keys.
                let out_need = with_columns(need, residual);
                let mut in_need = out_need.clone();
                in_need.extend(keys.iter().flat_map(|(a, b)| [*a, *b]));
                let lchunk = self.run(left, &in_need, st)?;
                let rchunk = self.run(right, &in_need, st)?;
                hash_join(&lchunk, &rchunk, keys, residual.as_ref(), &out_need, st)
            }
            PhysicalPlan::NlJoin {
                left, right, pred, ..
            } => {
                let out_need = with_columns(need, [pred]);
                let lchunk = self.run(left, &out_need, st)?;
                let rchunk = self.run(right, &out_need, st)?;
                let join = JoinOutput::new(&lchunk.cols, &rchunk.cols, &out_need);
                let pred = if pred.is_true() {
                    None
                } else {
                    Some(Bound::bind(pred, &join.cols, plan.name())?)
                };
                let mut rows = Vec::new();
                for (li, lrow) in lchunk.rows.iter().enumerate() {
                    st.check_cancel_at(li)?;
                    for rrow in &rchunk.rows {
                        let joined = join.row(lrow, rrow);
                        if pred.as_ref().is_none_or(|p| p.accepts(&joined)) {
                            rows.push(joined);
                        }
                    }
                }
                Ok(Chunk {
                    cols: join.cols,
                    rows,
                })
            }
            PhysicalPlan::HashAggregate {
                input,
                keys,
                aggs,
                layout,
                ..
            } => {
                let mut in_need = columns_of(aggs.iter().filter_map(|a| a.arg.as_ref()));
                in_need.extend(keys);
                let chunk = self.run(input, &in_need, st)?;
                let rows = aggregate(chunk.rows.iter(), &chunk.cols, keys, aggs, plan.name())?;
                Ok(Chunk {
                    cols: layout.clone(),
                    rows,
                })
            }
            PhysicalPlan::Sort { input, keys } => {
                let in_need = with_columns(need, keys.iter().map(|(k, _)| k));
                let mut chunk = self.run(input, &in_need, st)?;
                let keys: Vec<(Bound, SortOrder)> = keys
                    .iter()
                    .map(|(k, dir)| Ok((Bound::bind(k, &chunk.cols, plan.name())?, *dir)))
                    .collect::<Result<_, ExecError>>()?;
                chunk.rows.sort_by(|a, b| {
                    for (k, dir) in &keys {
                        let mut o = k.eval(a).total_cmp(&k.eval(b));
                        if *dir == SortOrder::Desc {
                            o = o.reverse();
                        }
                        if !o.is_eq() {
                            return o;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                Ok(chunk)
            }
            // Only valid at a statement root, where `deliver` handles it.
            PhysicalPlan::Project { .. } => Err(ExecError::Unsupported(
                "interior Project operators are not supported",
            )),
            PhysicalPlan::CseRead {
                cse,
                filter,
                reagg,
                output_map,
                ..
            } => {
                self.ensure_spool(*cse, st)?;
                *st.metrics.spool_reads.entry(*cse).or_insert(0) += 1;
                // `ensure_spool` just materialized it; report rather than
                // panic if that invariant ever breaks. The stored rows are
                // filtered and re-aggregated in place, never copied.
                let (spool_cols, spool_rows) =
                    st.spools.get(cse).ok_or(ExecError::MissingSpool(*cse))?;
                let filter = bind_opt(filter, spool_cols)?;
                let kept = spool_rows
                    .iter()
                    .filter(|r| filter.as_ref().is_none_or(|p| p.accepts(r)));
                let outputs = || output_map.iter().filter(|(c, _)| need.contains(c));
                let exprs = outputs().map(|(_, e)| e);
                let rows = match reagg {
                    Some(r) => {
                        let agg_rows = aggregate(kept, spool_cols, &r.keys, &r.aggs, plan.name())?;
                        let mut cols = r.keys.clone();
                        cols.extend((0..r.aggs.len()).map(|i| ColRef::new(r.out, i as u16)));
                        project(agg_rows.iter(), &cols, exprs, plan.name())?
                    }
                    None => project(kept, spool_cols, exprs, plan.name())?,
                };
                Ok(Chunk {
                    cols: outputs().map(|(c, _)| *c).collect(),
                    rows,
                })
            }
            PhysicalPlan::Batch { .. } => Err(ExecError::Unsupported(
                "nested Batch operators are not supported",
            )),
        }
    }

    /// Compute a spool's work table once (recursively computes narrower
    /// stacked spools it reads).
    fn ensure_spool(&self, cse: CseId, st: &mut RunState<'_>) -> Result<(), ExecError> {
        if st.spools.contains_key(&cse) {
            return Ok(());
        }
        // Injected before any work: a failed materialization leaves no
        // partial spool behind, so a later statement (or the baseline
        // retry) sees clean state.
        st.maybe_fail(sites::SPOOL_MATERIALIZE)?;
        let plan = st.plan;
        let def = plan.spools.get(&cse).ok_or(ExecError::MissingSpool(cse))?;
        let chunk = self.run(&def.plan, &def.layout.iter().copied().collect(), st)?;
        // Re-layout the definition output into the spool's column order.
        let rows: Vec<Row> = if chunk.cols == def.layout {
            chunk.rows
        } else {
            let positions: Vec<usize> = def
                .layout
                .iter()
                .map(|c| position(&chunk.cols, *c, "Spool"))
                .collect::<Result<_, _>>()?;
            chunk
                .rows
                .iter()
                .map(|r| positions.iter().map(|i| r[*i].clone()).collect())
                .collect()
        };
        // The spool outlives its statement, so its bytes move to the
        // persistent scope (on top of the transient charge its definition
        // already paid above — conservative double-count within this one
        // statement, gone when the statement scope resets).
        let bytes = rows.len() * def.layout.len().max(1) * std::mem::size_of::<Value>();
        if let Some(scope) = st.spool_scope.as_mut() {
            if st.recovering {
                scope.charge_unchecked(bytes);
            } else {
                scope.charge(bytes).map_err(reserve_to_exec)?;
            }
        }
        st.metrics.spool_rows.insert(cse, rows.len());
        st.metrics.spool_bytes.insert(cse, bytes);
        st.spool_bytes_total += bytes;
        let live = st.bytes_materialized + st.spool_bytes_total;
        st.metrics.peak_bytes = st.metrics.peak_bytes.max(live);
        st.spools.insert(cse, (def.layout.clone(), rows));
        Ok(())
    }
}

/// Full scan: the rows of `table` that `filter` accepts, in table order.
fn scan(
    table: &Table,
    filter: Option<&Bound>,
    st: &mut RunState<'_>,
) -> Result<Vec<Row>, ExecError> {
    st.metrics.base_rows_scanned += table.row_count();
    let mut rows = Vec::new();
    for (i, r) in table.scan().enumerate() {
        st.check_cancel_at(i)?;
        if filter.is_none_or(|p| p.accepts(r)) {
            rows.push(r.clone());
        }
    }
    Ok(rows)
}

/// Every column the expressions read.
fn columns_of<'s>(exprs: impl IntoIterator<Item = &'s Scalar>) -> Need {
    exprs.into_iter().flat_map(Scalar::columns).collect()
}

/// `need` plus every column the expressions read.
fn with_columns<'s>(need: &Need, exprs: impl IntoIterator<Item = &'s Scalar>) -> Need {
    let mut out = columns_of(exprs);
    out.extend(need);
    out
}

/// Evaluate `exprs` over each row: one output row per input row.
fn project<'r, 's>(
    rows: impl Iterator<Item = &'r Row>,
    cols: &[ColRef],
    exprs: impl Iterator<Item = &'s Scalar>,
    op: &str,
) -> Result<Vec<Row>, ExecError> {
    let exprs: Vec<Bound> = exprs
        .map(|e| Bound::bind(e, cols, op))
        .collect::<Result<_, _>>()?;
    Ok(rows
        .map(|r| exprs.iter().map(|e| e.eval(r).into_owned()).collect())
        .collect())
}

/// The columns a join emits: those of its inputs, left then right, that
/// are in `need` — not the concatenation of both sides.
struct JoinOutput {
    cols: Vec<ColRef>,
    left: Vec<usize>,
    right: Vec<usize>,
}

impl JoinOutput {
    fn new(lcols: &[ColRef], rcols: &[ColRef], need: &Need) -> Self {
        let keep = |cols: &[ColRef]| -> Vec<usize> {
            let kept = cols.iter().enumerate().filter(|(_, c)| need.contains(c));
            kept.map(|(i, _)| i).collect()
        };
        let (left, right) = (keep(lcols), keep(rcols));
        let cols = left.iter().map(|i| lcols[*i]);
        let cols = cols.chain(right.iter().map(|i| rcols[*i])).collect();
        JoinOutput { cols, left, right }
    }

    /// The joined row, allocated once at its final width.
    #[inline]
    fn row(&self, l: &[Value], r: &[Value]) -> Row {
        let left = self.left.iter().map(|i| l[*i].clone());
        left.chain(self.right.iter().map(|i| r[*i].clone()))
            .collect()
    }
}

/// Hash join; the left side builds, the right side probes. Output is in
/// probe order, build-side insertion order among the matches of one probe
/// row. A NULL key column never joins.
fn hash_join(
    build: &Chunk,
    probe: &Chunk,
    keys: &[(ColRef, ColRef)],
    residual: Option<&Scalar>,
    need: &Need,
    st: &RunState<'_>,
) -> Result<Chunk, ExecError> {
    const OP: &str = "HashJoin";
    let bkeys = keys.iter().map(|(b, _)| position(&build.cols, *b, OP));
    let bkeys: Vec<usize> = bkeys.collect::<Result<_, _>>()?;
    let pkeys = keys.iter().map(|(_, p)| position(&probe.cols, *p, OP));
    let pkeys: Vec<usize> = pkeys.collect::<Result<_, _>>()?;
    let has_null = |r: &[Value], pos: &[usize]| pos.iter().any(|p| r[*p].is_null());
    let join = JoinOutput::new(&build.cols, &probe.cols, need);
    let residual = residual
        .map(|p| Bound::bind(p, &join.cols, OP))
        .transpose()?;

    // One table entry per distinct key; the build rows of an entry are
    // chained through `next` in insertion order (`first`/`last` by entry).
    const END: u32 = u32::MAX;
    let mut table = KeyTable::with_capacity(build.rows.len());
    let (mut first, mut last) = (Vec::<u32>::new(), Vec::<u32>::new());
    let mut next = vec![END; build.rows.len()];
    for (i, row) in build.rows.iter().enumerate() {
        if has_null(row, &bkeys) {
            continue;
        }
        let (entry, added) = table.find_or_insert(key_hash(row, &bkeys), |e| {
            key_eq(&build.rows[first[e] as usize], &bkeys, row, &bkeys)
        });
        if added {
            first.push(i as u32);
            last.push(i as u32);
        } else {
            next[last[entry] as usize] = i as u32;
            last[entry] = i as u32;
        }
    }

    let mut rows = Vec::new();
    for (pi, prow) in probe.rows.iter().enumerate() {
        st.check_cancel_at(pi)?;
        if has_null(prow, &pkeys) {
            continue;
        }
        let entry = table.find(key_hash(prow, &pkeys), |e| {
            key_eq(&build.rows[first[e] as usize], &bkeys, prow, &pkeys)
        });
        let mut at = entry.map_or(END, |e| first[e]);
        while at != END {
            let joined = join.row(&build.rows[at as usize], prow);
            if residual.as_ref().is_none_or(|p| p.accepts(&joined)) {
                rows.push(joined);
            }
            at = next[at as usize];
        }
    }
    Ok(Chunk {
        cols: join.cols,
        rows,
    })
}

/// Hash aggregation shared by HashAggregate and CseRead re-aggregation:
/// one output row per group, key columns then aggregates, groups in
/// first-seen order. NULL is a key value like any other.
fn aggregate<'r>(
    rows: impl Iterator<Item = &'r Row>,
    cols: &[ColRef],
    keys: &[ColRef],
    aggs: &[AggExpr],
    op: &str,
) -> Result<Vec<Row>, ExecError> {
    let key_pos: Vec<usize> = keys
        .iter()
        .map(|k| position(cols, *k, op))
        .collect::<Result<_, _>>()?;
    // CountStar has no argument; it counts every row it is shown.
    let one = Bound::Lit(Value::Int(1));
    let args: Vec<Bound> = aggs
        .iter()
        .map(|a| {
            a.arg
                .as_ref()
                .map_or(Ok(one.clone()), |e| Bound::bind(e, cols, op))
        })
        .collect::<Result<_, _>>()?;
    // Group `g` is its first-seen row `firsts[g]` (for its key) and the
    // states `g * aggs.len() ..` of one flat vector.
    let mut table = KeyTable::with_capacity(0);
    let mut firsts: Vec<&'r Row> = Vec::new();
    let mut states: Vec<AggState> = Vec::new();
    for row in rows {
        let (g, added) = table.find_or_insert(key_hash(row, &key_pos), |g| {
            key_eq(firsts[g], &key_pos, row, &key_pos)
        });
        if added {
            firsts.push(row);
            states.extend(aggs.iter().map(|a| AggState::new(a.func)));
        }
        let group = &mut states[g * args.len()..][..args.len()];
        for (state, arg) in group.iter_mut().zip(&args) {
            state.update(&arg.eval(row));
        }
    }
    // Scalar aggregate over an empty input produces one row.
    if keys.is_empty() && firsts.is_empty() {
        let empty = aggs.iter().map(|a| AggState::new(a.func).finish());
        return Ok(vec![empty.collect()]);
    }
    let n = args.len();
    Ok(firsts
        .iter()
        .enumerate()
        .map(|(g, first)| {
            let key = key_pos.iter().map(|p| first[*p].clone());
            key.chain(states[g * n..(g + 1) * n].iter().map(AggState::finish))
                .collect()
        })
        .collect())
}
