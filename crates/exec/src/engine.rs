//! The physical plan interpreter.
//!
//! Executes a [`FullPlan`]: spool work tables are computed at most once
//! (on first read) and shared by every consumer, which is precisely the
//! runtime behaviour the covering-subexpression optimization banks on.
//!
//! Execution is *governed*: [`Engine::execute_in`] threads an [`ExecCtx`]
//! — a deterministic fault-injection registry, a cancellation token and an
//! optional memory reservation — through the interpreter. The first fault,
//! refused charge or cancellation ends the run with its [`ExecError`]; the
//! caller that owns the request decides whether to retry it
//! ([`ExecError::is_recoverable`]).
//!
//! Execution is *push-based*: an operator hands its rows, borrowed and one
//! at a time, to its parent's [`Sink`]; rows are held, and charged, only at
//! the breakers — a join's held side, a group table, a sort buffer, a
//! spool, a result set. Operators bind their expressions once against their
//! input's columns ([`Bound`]; [`out_cols`] names them before the first
//! row), hash join and group-by keys in place ([`crate::keys`]), and are
//! told which columns their ancestors read ([`Need`]) so they hold only those.

use crate::error::ExecError;
use crate::eval::{position, AggState, Bound};
use crate::keys::{key_eq, key_hash, KeyTable};
use cse_algebra::{AggExpr, ColRef, PlanContext, Scalar, SortOrder};
use cse_govern::{
    sites, CancelToken, FailpointRegistry, MemReservation, MemScope, Reason, ReserveError,
};
use cse_optimizer::{CseId, FullPlan, PhysicalPlan};
use cse_storage::{Catalog, Row, RowBuf, Table, Value, CELL_BYTES};
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::ops::Bound as RangeBound;

/// A delivered result set (one per batch statement).
#[derive(Debug, Clone)]
pub struct ResultSet {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
}

impl ResultSet {
    pub fn new(columns: Vec<String>, rows: Vec<Row>) -> Self {
        ResultSet { columns, rows }
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
            Ordering::Equal
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

/// Execution counters of one run.
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
    /// Per-request high-water mark of approximate bytes held: what the
    /// current statement's breakers hold plus all live spools.
    pub peak_bytes: usize,
}

/// Execution output: one result set per delivered statement plus metrics.
#[derive(Debug, Clone)]
pub struct ExecOutput {
    pub results: Vec<ResultSet>,
    pub metrics: ExecMetrics,
}

/// The columns an operator's ancestors read, handed down as the plan is
/// walked. An operator may emit more than is needed (scans hand out stored
/// rows as they are), never less: a parent binds against what [`out_cols`]
/// says its input emits, so an over-pruned column is a bind error.
type Need = BTreeSet<ColRef>;

/// Where an operator pushes its rows. A row is borrowed for the call only —
/// a stored row, or a scratch row overwritten for the next — so a sink
/// copies what it keeps.
type Sink<'s> = &'s mut dyn FnMut(&[Value]) -> ExecResult;

type ExecResult<T = ()> = Result<T, ExecError>;

/// How one [`Engine::execute_in`] call is governed. The default is
/// ungoverned: nothing armed, never canceled, no reservation.
#[derive(Debug, Clone)]
pub struct ExecCtx<'a> {
    /// Armed failpoints may inject faults at the executor's sites.
    pub failpoints: FailpointRegistry,
    /// Checked at every operator boundary and every [`CANCEL_STRIDE`]
    /// rows inside scans and joins, so a client cancel or an expired
    /// deadline stops a runaway batch without killing the executing
    /// thread.
    pub cancel: CancelToken,
    /// Global memory reservation that all held rows (and spool work
    /// tables, which outlive their statement) are charged to;
    /// a refused charge is a recoverable fault like an injected one.
    pub reservation: Option<&'a MemReservation>,
}

impl ExecCtx<'_> {
    /// Stop if the request was canceled or its deadline expired.
    fn check_cancel(&self) -> ExecResult {
        self.cancel
            .check("execution")
            .map_err(|trip| ExecError::Canceled {
                deadline: trip.reason == Reason::ReqDeadline,
            })
    }

    /// Strided cancellation check for per-row loops.
    fn check_cancel_at(&self, i: usize) -> ExecResult {
        if i.is_multiple_of(CANCEL_STRIDE) {
            self.check_cancel()?;
        }
        Ok(())
    }
}

impl Default for ExecCtx<'_> {
    fn default() -> Self {
        ExecCtx {
            failpoints: FailpointRegistry::disabled(),
            cancel: CancelToken::never(),
            reservation: None,
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
    spools: HashMap<CseId, (Vec<ColRef>, RowBuf)>,
    metrics: ExecMetrics,
    ctx: &'p ExecCtx<'p>,
    /// Approximate bytes the current statement's breakers hold.
    bytes_materialized: usize,
    /// Transient per-statement charge against the request's global memory
    /// reservation; recreated each statement so its bytes release on
    /// statement end. `None` when execution is not memory-governed.
    stmt_scope: Option<MemScope>,
    /// Charge for spool work tables, which outlive their statement.
    spool_scope: Option<MemScope>,
}

/// Charge `bytes` to a reservation scope, if execution is memory-governed;
/// a refusal is a fault.
fn charge_scope(scope: &mut Option<MemScope>, bytes: usize) -> ExecResult {
    let Some(scope) = scope else { return Ok(()) };
    scope.charge(bytes).map_err(|e| match e {
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
    })
}

/// How many rows an operator loop processes between cancellation checks.
/// A power of two so the check compiles to a mask + branch.
const CANCEL_STRIDE: usize = 4096;

impl RunState<'_> {
    /// Evaluate an armed failpoint at `site`.
    fn maybe_fail(&self, site: &str) -> ExecResult {
        if self.ctx.failpoints.should_fail(site) {
            return Err(ExecError::Injected {
                site: site.to_string(),
            });
        }
        #[cfg(test)]
        tests::after_site(self.ctx);
        Ok(())
    }

    /// Charge the bytes a breaker holds, once its input has ended: the
    /// high-water metric and the memory reservation see them. Every breaker
    /// counts, those of a spool definition included — a runaway join inside
    /// a spool trips the consumer statement that first reads it.
    fn charge(&mut self, bytes: usize) -> ExecResult {
        self.bytes_materialized += bytes;
        self.note_peak();
        charge_scope(&mut self.stmt_scope, bytes)
    }

    /// The high-water mark sees what is held now: by the statement's
    /// breakers and by every live spool.
    fn note_peak(&mut self) {
        let live = self.bytes_materialized + self.metrics.spool_bytes.values().sum::<usize>();
        self.metrics.peak_bytes = self.metrics.peak_bytes.max(live);
    }
}

impl<'a> Engine<'a> {
    pub fn new(catalog: &'a Catalog, ctx: &'a PlanContext) -> Self {
        Engine { catalog, ctx }
    }

    /// Execute a full plan; batch roots deliver one result set per child.
    /// Ungoverned: no fault injection, no reservation.
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
            bytes_materialized: 0,
            stmt_scope: None,
            spool_scope: ctx.reservation.map(MemReservation::scope),
        };
        let statements: Vec<&PhysicalPlan> = match &plan.root {
            PhysicalPlan::Batch { children } => children.iter().collect(),
            other => vec![other],
        };
        let mut results = Vec::with_capacity(statements.len());
        for stmt in statements {
            ctx.check_cancel()?;
            // A statement starts with nothing held: zero bytes and a fresh
            // scope, whose drop releases the last statement's bytes.
            st.bytes_materialized = 0;
            st.stmt_scope = ctx.reservation.map(MemReservation::scope);
            results.push(self.deliver(stmt, &mut st)?);
        }
        Ok(ExecOutput {
            results,
            metrics: st.metrics,
        })
    }

    /// Run one statement subtree into its result set, the last breaker.
    fn deliver(&self, plan: &PhysicalPlan, st: &mut RunState<'_>) -> ExecResult<ResultSet> {
        // Any root but a Project (Sort above Project is not generated)
        // delivers its whole layout under the catalog's column names.
        let named = |c: &ColRef| (self.ctx.col_name(*c), Scalar::Col(*c));
        let (input, exprs) = match plan {
            PhysicalPlan::Project { input, exprs } => (&**input, std::borrow::Cow::from(exprs)),
            other => (other, other.layout().iter().map(named).collect()),
        };
        let need = columns_of(exprs.iter().map(|(_, e)| e));
        let cols = out_cols(input, &need);
        let bound = bind_all(exprs.iter().map(|(_, e)| e), &cols, "Project")?;
        let mut rows: Vec<Row> = Vec::new();
        self.stream(input, &need, st, &mut |r| {
            rows.push(bound.iter().map(|e| e.eval(r).into_owned()).collect());
            Ok(())
        })?;
        st.charge(rows.len() * exprs.len().max(1) * CELL_BYTES)?;
        let columns = exprs.iter().map(|(name, _)| name.clone()).collect();
        Ok(ResultSet::new(columns, rows))
    }

    /// Push the rows of `plan` into `sink`, in the columns [`out_cols`]
    /// names. Scans and filters hand on the stored rows; a breaker holds
    /// what it must, charges it, and pushes on through one scratch row.
    #[expect(
        clippy::indexing_slicing,
        clippy::expect_used,
        reason = "key positions validated by position() against the held and streamed columns before the loops; chain ids are row numbers of the flat build buffer, written by the same arm; join_sides is asked only in the arm that matched a join"
    )]
    fn stream(
        &self,
        plan: &PhysicalPlan,
        need: &Need,
        st: &mut RunState<'_>,
        sink: Sink<'_>,
    ) -> ExecResult {
        let (ctx, op) = (st.ctx, plan.name());
        ctx.check_cancel()?;
        let entry_of = |rel| {
            let entry = self.catalog.get(&self.ctx.rel(rel).name);
            entry.map_err(|e| ExecError::Storage(e.to_string()))
        };
        match plan {
            PhysicalPlan::TableScan { rel, .. } => {
                st.maybe_fail(sites::SCAN_TABLE)?;
                scan_rows(entry_of(*rel)?.table.scan().map(Ok), st, sink)
            }
            PhysicalPlan::IndexRangeScan {
                rel,
                col,
                interval,
                pred,
                layout,
            } => {
                st.maybe_fail(sites::SCAN_INDEX)?;
                let entry = entry_of(*rel)?;
                let table = &entry.table;
                // The interval is only where to look: the B-tree's order is
                // the predicate's order just for bounds of the column's own
                // comparison class, and every row found is decided by `pred`.
                let mut sink = filtering(Some(Bound::bind(pred, layout, op)?), sink);
                let ty = self.ctx.col_type(*col);
                let idx = entry
                    .btree_indexes
                    .iter()
                    .find(|i| i.column == col.col as usize)
                    .filter(|_| interval.in_class_of(ty));
                match idx {
                    // Index dropped since planning: degrade to a scan.
                    None => scan_rows(table.scan().map(Ok), st, &mut sink),
                    Some(_) if interval.emptiness(ty).is_some() => Ok(()),
                    Some(idx) => {
                        fn side(s: &Option<(Value, bool)>) -> RangeBound<&Value> {
                            match s {
                                Some((v, true)) => RangeBound::Included(v),
                                Some((v, false)) => RangeBound::Excluded(v),
                                None => RangeBound::Unbounded,
                            }
                        }
                        let name = &self.ctx.rel(*rel).name;
                        let stored = |rid| stored_row(table, rid, name);
                        let hits = idx.range(side(&interval.lo), side(&interval.hi));
                        scan_rows(hits.map(stored), st, &mut sink)
                    }
                }
            }
            PhysicalPlan::Filter { input, pred } => {
                let in_need = with_columns(need, [pred]);
                let pred = Bound::bind(pred, &out_cols(input, &in_need), op)?;
                self.stream(input, &in_need, st, &mut filtering(Some(pred), sink))
            }
            PhysicalPlan::HashJoin { .. } | PhysicalPlan::NlJoin { .. } => {
                let (left, right, keys, residual) = join_sides(plan).expect("a join");
                let in_need = join_needs(need, keys, residual).1;
                let (hcols, held) = self.hold(left, &in_need, st)?;
                let scols = out_cols(right, &in_need);
                let hkeys = keys.iter().map(|(h, _)| position(&hcols, *h, op));
                let hkeys: Vec<usize> = hkeys.collect::<Result<_, _>>()?;
                let skeys = keys.iter().map(|(_, s)| position(&scols, *s, op));
                let skeys: Vec<usize> = skeys.collect::<Result<_, _>>()?;
                // Where each emitted column is in a held or a streamed row.
                let cols = out_cols(plan, need);
                let (from_held, from_streamed) = (sources(&cols, &hcols), sources(&cols, &scols));
                let residual = residual.map(|p| Bound::bind(p, &cols, op)).transpose()?;
                let has_null = |r: &[Value], pos: &[usize]| pos.iter().any(|p| r[*p].is_null());

                // One table entry per distinct key: its first held row, the
                // others chained through `next` in insertion order (filled
                // back to front, so chains are prepended to). A NULL key
                // never joins; without keys all held rows are one chain.
                const END: u32 = u32::MAX;
                let mut table = KeyTable::with_capacity(held.len());
                let mut first: Vec<u32> = Vec::new();
                let mut next = vec![END; held.len()];
                for i in (0..held.len()).rev() {
                    let row = held.row(i);
                    if has_null(row, &hkeys) {
                        continue;
                    }
                    let (entry, added) = table.find_or_insert(key_hash(row, &hkeys), |e| {
                        key_eq(held.row(first[e] as usize), &hkeys, row, &hkeys)
                    });
                    if added {
                        first.push(i as u32);
                    } else {
                        next[i] = std::mem::replace(&mut first[entry], i as u32);
                    }
                }

                // Output is in the streamed side's order, insertion order
                // among the held rows of one streamed row; the residual is
                // tested on the scratch row, before anything is allocated.
                let mut scratch = vec![Value::Null; cols.len()];
                let mut n = 0;
                self.stream(right, &in_need, st, &mut |srow| {
                    ctx.check_cancel_at(n)?;
                    n += 1;
                    if has_null(srow, &skeys) {
                        return Ok(());
                    }
                    let entry = table.find(key_hash(srow, &skeys), |e| {
                        key_eq(held.row(first[e] as usize), &hkeys, srow, &skeys)
                    });
                    let Some(entry) = entry else { return Ok(()) };
                    copy_cols(&mut scratch, &from_streamed, srow);
                    let mut at = first[entry];
                    while at != END {
                        copy_cols(&mut scratch, &from_held, held.row(at as usize));
                        if residual.as_ref().is_none_or(|p| p.accepts(&scratch)) {
                            sink(&scratch)?;
                        }
                        at = next[at as usize];
                    }
                    Ok(())
                })
            }
            PhysicalPlan::IndexNlJoin {
                outer,
                rel,
                key: (okey, ikey),
                residual,
                layout,
            } => {
                st.maybe_fail(sites::SCAN_INDEX)?;
                let entry = entry_of(*rel)?;
                let name = &self.ctx.rel(*rel).name;
                let idx = entry
                    .hash_indexes
                    .iter()
                    .find(|i| i.column == ikey.col as usize);
                let idx = idx.ok_or_else(|| {
                    ExecError::Storage(format!("no hash index on {name} column #{}", ikey.col))
                })?;
                let in_need = join_needs(need, &[(*okey, *ikey)], residual.as_ref()).1;
                let ocols = out_cols(outer, &in_need);
                let opos = position(&ocols, *okey, op)?;
                let cols = out_cols(plan, need);
                let stored_cols = layout.get(outer.layout().len()..).unwrap_or_default();
                let (from_outer, from_stored) =
                    (sources(&cols, &ocols), sources(&cols, stored_cols));
                let residual = residual.as_ref().map(|p| Bound::bind(p, &cols, op));
                let residual = residual.transpose()?;

                // Output is in the outer side's order, row id order among
                // one outer row's matches; a NULL key never joins. Fetched
                // rows count as scanned, once the outer side has ended.
                let mut scratch = vec![Value::Null; cols.len()];
                let (mut n, mut fetched) = (0, 0);
                let streamed = self.stream(outer, &in_need, st, &mut |orow| {
                    ctx.check_cancel_at(n)?;
                    n += 1;
                    let hits = match &orow[opos] {
                        Value::Null => return Ok(()),
                        k => idx.lookup(k),
                    };
                    copy_cols(&mut scratch, &from_outer, orow);
                    for rid in hits {
                        fetched += 1;
                        copy_cols(
                            &mut scratch,
                            &from_stored,
                            stored_row(&entry.table, rid, name)?,
                        );
                        if residual.as_ref().is_none_or(|p| p.accepts(&scratch)) {
                            sink(&scratch)?;
                        }
                    }
                    Ok(())
                });
                st.metrics.base_rows_scanned += fetched;
                streamed
            }
            PhysicalPlan::HashAggregate {
                input, keys, aggs, ..
            } => {
                let mut in_need = columns_of(aggs.iter().filter_map(|a| a.arg.as_ref()));
                in_need.extend(keys);
                let mut groups = Groups::bind(&out_cols(input, &in_need), keys, aggs, op)?;
                self.stream(input, &in_need, st, &mut |r| groups.update(r))?;
                groups.emit(st, sink)
            }
            PhysicalPlan::Sort { input, keys } => {
                let in_need = with_columns(need, keys.iter().map(|(k, _)| k));
                let (cols, held) = self.hold(input, &in_need, st)?;
                let by = bind_all(keys.iter().map(|(k, _)| k), &cols, op)?;
                // A stable sort of row numbers: ties keep input order.
                let mut order: Vec<usize> = (0..held.len()).collect();
                order.sort_by(|a, b| {
                    let (a, b) = (held.row(*a), held.row(*b));
                    let cmp = |(k, (_, dir)): (&Bound, &(Scalar, SortOrder))| match dir {
                        SortOrder::Desc => k.eval(b).total_cmp(&k.eval(a)),
                        SortOrder::Asc => k.eval(a).total_cmp(&k.eval(b)),
                    };
                    let differ = by.iter().zip(keys).map(cmp).find(|o| !o.is_eq());
                    differ.unwrap_or(Ordering::Equal)
                });
                order.into_iter().try_for_each(|i| sink(held.row(i)))
            }
            PhysicalPlan::CseRead {
                cse,
                filter,
                reagg,
                output_map,
                ..
            } => {
                self.ensure_spool(*cse, st)?;
                *st.metrics.spool_reads.entry(*cse).or_insert(0) += 1;
                // `ensure_spool` just filled it; report rather than panic if
                // that ever breaks. Stored rows are read in place.
                let (spool_cols, spool_rows) =
                    st.spools.get(cse).ok_or(ExecError::MissingSpool(*cse))?;
                let filter = filter.as_ref().map(|p| Bound::bind(p, spool_cols, op));
                let filter = filter.transpose()?;
                let outputs = output_map.iter().filter(|(c, _)| need.contains(c));
                let outputs = outputs.map(|(_, e)| e);
                let Some(r) = reagg else {
                    let mut sink = projecting(bind_all(outputs, spool_cols, op)?, sink);
                    return spool_rows.rows().try_for_each(filtering(filter, &mut sink));
                };
                let mut groups = Groups::bind(spool_cols, &r.keys, &r.aggs, op)?;
                let mut update = |row: &[Value]| groups.update(row);
                spool_rows
                    .rows()
                    .try_for_each(filtering(filter, &mut update))?;
                let mut cols = r.keys.clone();
                cols.extend((0..r.aggs.len()).map(|i| ColRef::new(r.out, i as u16)));
                let exprs = bind_all(outputs, &cols, op)?;
                groups.emit(st, &mut projecting(exprs, sink))
            }
            // Only valid at a statement root, where `execute_in` and
            // `deliver` handle them.
            PhysicalPlan::Project { .. } | PhysicalPlan::Batch { .. } => Err(
                ExecError::Unsupported("Project and Batch operators below a statement root"),
            ),
        }
    }

    /// Hold the rows of `plan` — the columns of them in `need` — and charge
    /// them: a join's held side, a sort's input, a spool's definition.
    #[expect(
        clippy::indexing_slicing,
        reason = "keep holds positions below cols.len(), and every row the plan streams is laid out by cols"
    )]
    fn hold(
        &self,
        plan: &PhysicalPlan,
        need: &Need,
        st: &mut RunState<'_>,
    ) -> ExecResult<(Vec<ColRef>, RowBuf)> {
        let cols = out_cols(plan, need);
        let keep = positions(&cols, need);
        let mut held = RowBuf::new(keep.len());
        self.stream(plan, need, st, &mut |r| {
            held.push(keep.iter().map(|p| r[*p].clone()));
            Ok(())
        })?;
        st.charge(held.bytes())?;
        Ok((keep.iter().map(|i| cols[*i]).collect(), held))
    }

    /// Compute a spool's work table once (recursively computes narrower
    /// stacked spools it reads).
    fn ensure_spool(&self, cse: CseId, st: &mut RunState<'_>) -> ExecResult {
        if st.spools.contains_key(&cse) {
            return Ok(());
        }
        // Injected before any work.
        st.maybe_fail(sites::SPOOL_MATERIALIZE)?;
        let plan = st.plan;
        let def = plan.spools.get(&cse).ok_or(ExecError::MissingSpool(cse))?;
        // The statement that first reads a spool fills it, so `hold` charges
        // that statement's budget and transient scope. The spool outlives
        // it, so the persistent scope is charged as well (a conservative
        // double count, gone when the statement scope resets).
        let (cols, rows) = self.hold(&def.plan, &def.layout.iter().copied().collect(), st)?;
        let bytes = rows.bytes();
        charge_scope(&mut st.spool_scope, bytes)?;
        st.metrics.spool_rows.insert(cse, rows.len());
        st.metrics.spool_bytes.insert(cse, bytes);
        st.spools.insert(cse, (cols, rows));
        st.note_peak();
        Ok(())
    }
}

/// The columns `plan` emits when its ancestors read `need`: a pure function
/// of the two, so a parent binds its expressions before the first row.
#[expect(
    clippy::expect_used,
    reason = "join_sides is asked only in the arm that matched a join"
)]
fn out_cols(plan: &PhysicalPlan, need: &Need) -> Vec<ColRef> {
    match plan {
        PhysicalPlan::TableScan { layout, .. }
        | PhysicalPlan::IndexRangeScan { layout, .. }
        | PhysicalPlan::HashAggregate { layout, .. } => layout.clone(),
        PhysicalPlan::Filter { input, pred } => out_cols(input, &with_columns(need, [pred])),
        // A sort holds, and so emits, only what it or an ancestor reads.
        PhysicalPlan::Sort { input, keys } => {
            let in_need = with_columns(need, keys.iter().map(|(k, _)| k));
            let mut cols = out_cols(input, &in_need);
            cols.retain(|c| in_need.contains(c));
            cols
        }
        // The columns of both inputs, left then right, that an ancestor or
        // the residual reads — not the concatenation of both sides.
        PhysicalPlan::HashJoin { .. } | PhysicalPlan::NlJoin { .. } => {
            let (left, right, keys, residual) = join_sides(plan).expect("a join");
            let (out_need, in_need) = join_needs(need, keys, residual);
            let mut cols = out_cols(left, &in_need);
            cols.extend(out_cols(right, &in_need));
            cols.retain(|c| out_need.contains(c));
            cols
        }
        // The outer side's columns, then the stored ones, that an ancestor
        // or the residual reads.
        PhysicalPlan::IndexNlJoin {
            outer,
            key,
            residual,
            layout,
            ..
        } => {
            let (out_need, in_need) = join_needs(need, &[*key], residual.as_ref());
            let mut cols = out_cols(outer, &in_need);
            cols.extend_from_slice(layout.get(outer.layout().len()..).unwrap_or_default());
            cols.retain(|c| out_need.contains(c));
            cols
        }
        PhysicalPlan::CseRead { output_map, .. } => {
            let outputs = output_map.iter().filter(|(c, _)| need.contains(c));
            outputs.map(|(c, _)| *c).collect()
        }
        // Roots only: `deliver` names a Project's columns itself.
        PhysicalPlan::Project { .. } | PhysicalPlan::Batch { .. } => Vec::new(),
    }
}

/// Both joins as one: (held input, streamed input, their equi-keys, residual
/// tested on the joined row); `None` unless `plan` is a join. Either holds
/// its left side and streams the right past it: a nested-loops join is the
/// hash join without keys, where every streamed row meets every held row.
#[allow(clippy::type_complexity)]
fn join_sides(
    plan: &PhysicalPlan,
) -> Option<(
    &PhysicalPlan,
    &PhysicalPlan,
    &[(ColRef, ColRef)],
    Option<&Scalar>,
)> {
    match plan {
        PhysicalPlan::HashJoin {
            left,
            right,
            keys,
            residual,
            ..
        } => Some((left, right, keys, residual.as_ref())),
        PhysicalPlan::NlJoin {
            left, right, pred, ..
        } => Some((left, right, &[], Some(pred).filter(|p| !p.is_true()))),
        _ => None,
    }
}

/// What a join's ancestors and its residual read of the joined row, and
/// what both inputs are asked for: that plus the keys.
fn join_needs(need: &Need, keys: &[(ColRef, ColRef)], residual: Option<&Scalar>) -> (Need, Need) {
    let out_need = with_columns(need, residual);
    let mut in_need = out_need.clone();
    in_need.extend(keys.iter().flat_map(|(a, b)| [*a, *b]));
    (out_need, in_need)
}

/// Where each of `cols` is in a row of `side`: `(position in cols, position
/// in side)` for the columns `side` has.
fn sources(cols: &[ColRef], side: &[ColRef]) -> Vec<(usize, usize)> {
    let found = |c| side.iter().position(|x| x == c);
    let at = cols.iter().enumerate();
    at.filter_map(|(o, c)| Some((o, found(c)?))).collect()
}

/// The stored row an index names. An index can lag its table (a rebuild
/// racing a shrink): a stale row id is an error, not a panic on the
/// serving path.
fn stored_row<'t>(table: &'t Table, rid: u32, name: &str) -> ExecResult<&'t [Value]> {
    let stale = || ExecError::Storage(format!("index rowid {rid} out of range for {name}"));
    table.get(rid as usize).ok_or_else(stale)
}

/// Where the columns in `need` are among `cols`, in order.
fn positions(cols: &[ColRef], need: &Need) -> Vec<usize> {
    let read = |(i, c)| need.contains(c).then_some(i);
    cols.iter().enumerate().filter_map(read).collect()
}

/// Push the stored rows `rows` yields, in its order, counting each as
/// scanned: a table's slab, chunk by chunk, or the rows an index names.
fn scan_rows<'t>(
    rows: impl Iterator<Item = ExecResult<&'t [Value]>>,
    st: &mut RunState<'_>,
    sink: Sink<'_>,
) -> ExecResult {
    // Internal iteration: a slab's chunks become two nested loops.
    rows.enumerate().try_for_each(|(i, r)| {
        st.ctx.check_cancel_at(i)?;
        st.metrics.base_rows_scanned += 1;
        sink(r?)
    })
}

/// A sink that passes on the rows `pred` accepts.
fn filtering(pred: Option<Bound>, sink: Sink<'_>) -> impl FnMut(&[Value]) -> ExecResult + '_ {
    move |r| match &pred {
        Some(p) if !p.accepts(r) => Ok(()),
        _ => sink(r),
    }
}

/// A sink that evaluates `exprs` over each row it is shown and pushes the
/// result on through one reused row.
fn projecting(exprs: Vec<Bound>, sink: Sink<'_>) -> impl FnMut(&[Value]) -> ExecResult + '_ {
    let mut scratch = vec![Value::Null; exprs.len()];
    move |r| {
        for (slot, e) in scratch.iter_mut().zip(&exprs) {
            *slot = e.eval(r).into_owned();
        }
        sink(&scratch)
    }
}

/// `dst[to] = src[at]` for every `(to, at)` of `from`.
#[expect(
    clippy::indexing_slicing,
    reason = "(to, at) pairs are built by the join arm from out_cols: to < scratch.len(), at is a position found in the source row's own column list"
)]
fn copy_cols(dst: &mut [Value], from: &[(usize, usize)], src: &[Value]) {
    for (to, at) in from {
        dst[*to].clone_from(&src[*at]);
    }
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

fn bind_all<'s>(
    exprs: impl Iterator<Item = &'s Scalar>,
    cols: &[ColRef],
    op: &str,
) -> ExecResult<Vec<Bound>> {
    exprs.map(|e| Bound::bind(e, cols, op)).collect()
}

/// The group table of HashAggregate and of CseRead's re-aggregation: one
/// group per distinct key (NULL is a key value like any other), in
/// first-seen order. A group is its key values, copied when it is first
/// seen, and the states `g * aggs.len() ..` of one flat vector.
struct Groups {
    key_pos: Vec<usize>,
    args: Vec<Bound>,
    fresh: Vec<AggState>,
    table: KeyTable,
    keys: RowBuf,
    states: Vec<AggState>,
}

impl Groups {
    fn bind(cols: &[ColRef], keys: &[ColRef], aggs: &[AggExpr], op: &str) -> ExecResult<Self> {
        let key_pos = keys.iter().map(|k| position(cols, *k, op));
        let key_pos: Vec<usize> = key_pos.collect::<Result<_, _>>()?;
        // CountStar has no argument; it counts every row it is shown.
        let one = || Ok(Bound::Lit(Value::Int(1)));
        let bind = |e| Bound::bind(e, cols, op);
        let args = aggs.iter().map(|a| a.arg.as_ref().map_or_else(one, bind));
        Ok(Groups {
            keys: RowBuf::new(key_pos.len()),
            key_pos,
            args: args.collect::<Result<_, _>>()?,
            fresh: aggs.iter().map(|a| AggState::new(a.func)).collect(),
            table: KeyTable::with_capacity(0),
            states: Vec::new(),
        })
    }

    /// A sink: the row joins its group, added if the row is its first.
    #[expect(
        clippy::indexing_slicing,
        reason = "key positions were resolved by position() against the input columns; group g owns states g * args.len() .. (g + 1) * args.len(), pushed when g was added"
    )]
    fn update(&mut self, row: &[Value]) -> ExecResult {
        let (keys, key_pos) = (&self.keys, &self.key_pos);
        let (g, added) = self.table.find_or_insert(key_hash(row, key_pos), |g| {
            keys.row(g).iter().zip(key_pos).all(|(k, p)| *k == row[*p])
        });
        if added {
            self.keys.push(key_pos.iter().map(|p| row[*p].clone()));
            self.states.extend_from_slice(&self.fresh);
        }
        let group = &mut self.states[g * self.args.len()..][..self.args.len()];
        for (state, arg) in group.iter_mut().zip(&self.args) {
            state.update(&arg.eval(row));
        }
        Ok(())
    }

    /// The input has ended: charge the table, then push every group, key
    /// columns then aggregates, through one row.
    fn emit(mut self, st: &mut RunState<'_>, sink: Sink<'_>) -> ExecResult {
        // A scalar aggregate over no rows is one group.
        if self.key_pos.is_empty() && self.keys.is_empty() {
            self.keys.push(std::iter::empty());
            self.states.extend_from_slice(&self.fresh);
        }
        let (groups, n) = (self.keys.len(), self.args.len());
        let width = self.key_pos.len() + n;
        st.charge(groups * width.max(1) * CELL_BYTES)?;
        let (mut scratch, mut states) = (Vec::with_capacity(width), self.states.iter());
        self.keys.rows().try_for_each(|key| {
            scratch.clear();
            scratch.extend_from_slice(key);
            scratch.extend(states.by_ref().take(n).map(AggState::finish));
            sink(&scratch)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_algebra::CmpOp;
    use cse_govern::FailSpec;
    use cse_storage::{row, DataType, Schema, Table};
    use std::cell::RefCell;

    type SiteHook = Box<dyn Fn(&ExecCtx<'_>)>;

    thread_local! {
        /// Runs on the executing thread after every failpoint site an
        /// operator passes: a deterministic point inside execution.
        static AFTER_SITE: RefCell<Option<SiteHook>> = const { RefCell::new(None) };
    }

    pub(super) fn after_site(ctx: &ExecCtx<'_>) {
        AFTER_SITE.with(|hook| {
            if let Some(hook) = &*hook.borrow() {
                hook(ctx);
            }
        });
    }

    /// Cancellation is noticed by the row loops, not only where an operator
    /// starts: the token is tripped once the probe side's scan has passed
    /// its failpoint — the last operator boundary of scan → join →
    /// aggregate — so only a strided check inside the pipeline can still
    /// see it.
    #[test]
    fn cancel_mid_scan_stops_the_pipeline() {
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
        let ints = |k: i64, v: i64| row(vec![Value::Int(k), Value::Int(v)]);
        let mut cat = Catalog::new();
        let mut ctx = PlanContext::new();
        let blk = ctx.new_block();
        let mut rels = Vec::new();
        for (name, rows) in [
            ("a", vec![ints(0, 1), ints(1, 2)]),
            (
                "b",
                (0..3 * CANCEL_STRIDE as i64)
                    .map(|i| ints(i % 2, i))
                    .collect(),
            ),
        ] {
            cat.register_table(Table::with_rows(name, schema.clone(), rows))
                .unwrap();
            let schema = cat.table(name).unwrap().schema().clone();
            rels.push(ctx.add_base_rel(name, name, schema, blk));
        }
        let (a, b) = (rels[0], rels[1]);
        let cols = |r| (0..2).map(move |i| ColRef::new(r, i));
        let scan = |r| PhysicalPlan::TableScan {
            rel: r,
            layout: cols(r).collect(),
        };
        let out = ctx.add_agg_output(&[DataType::Int], blk);
        let root = PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::HashJoin {
                left: Box::new(scan(a)),
                right: Box::new(scan(b)),
                keys: vec![(ColRef::new(a, 0), ColRef::new(b, 0))],
                residual: None,
                layout: cols(a).chain(cols(b)).collect(),
            }),
            keys: vec![ColRef::new(a, 1)],
            aggs: vec![AggExpr::sum(Scalar::col(b, 1))],
            out,
            layout: vec![ColRef::new(a, 1), ColRef::new(out, 0)],
        };
        let plan = FullPlan {
            root,
            spools: Default::default(),
            cost: 0.0,
        };
        // Armed never to fire: the registry only counts the scans that
        // started. The second is the probe side's.
        let exec_ctx = ExecCtx {
            failpoints: FailpointRegistry::from_specs(&[FailSpec {
                site: sites::SCAN_TABLE.to_string(),
                probability: 0.0,
                seed: 1,
            }]),
            ..ExecCtx::default()
        };
        AFTER_SITE.with(|hook| {
            *hook.borrow_mut() = Some(Box::new(|ctx: &ExecCtx<'_>| {
                if ctx.failpoints.counters()[sites::SCAN_TABLE].0 == 2 {
                    ctx.cancel.cancel();
                }
            }))
        });
        let result = Engine::new(&cat, &ctx).execute_in(&plan, &exec_ctx);
        AFTER_SITE.with(|hook| hook.borrow_mut().take());
        match result {
            Err(ExecError::Canceled { deadline: false }) => {}
            Ok(_) => panic!("the probe scan ended without seeing the cancel"),
            Err(e) => panic!("expected a cancellation, got {e}"),
        }
    }

    /// A scan walks the table's slab chunk by chunk: with no row, within
    /// the first chunk, on both sides of a chunk boundary, and past a
    /// cancellation stride. A filtered scan still returns the table's rows
    /// in table order, and a COUNT(*) over the scan, which reads no column,
    /// still counts them all.
    #[test]
    fn table_scans_return_every_row_across_chunk_boundaries() {
        let d = cse_storage::CHUNK_ROWS;
        for n in [0, 1, d - 1, d, d + 1, 3 * CANCEL_STRIDE + 1] {
            let schema = Schema::from_pairs(&[("k", DataType::Int), ("s", DataType::Str)]);
            let rows: Vec<Row> = (0..n as i64)
                .map(|i| row(vec![Value::Int(i), Value::str(format!("s{i}"))]))
                .collect();
            let mut cat = Catalog::new();
            cat.register_table(Table::with_rows("t", schema.clone(), rows.clone()))
                .unwrap();
            let mut ctx = PlanContext::new();
            let blk = ctx.new_block();
            let t = ctx.add_base_rel("t", "t", std::sync::Arc::new(schema), blk);
            let scan = PhysicalPlan::TableScan {
                rel: t,
                layout: vec![ColRef::new(t, 0), ColRef::new(t, 1)],
            };
            let out = ctx.add_agg_output(&[DataType::Int], blk);
            let run = |root| {
                let plan = FullPlan {
                    root,
                    spools: Default::default(),
                    cost: 0.0,
                };
                Engine::new(&cat, &ctx).execute(&plan).unwrap()
            };

            let filtered = run(PhysicalPlan::Filter {
                input: Box::new(scan.clone()),
                pred: Scalar::cmp(CmpOp::Ge, Scalar::col(t, 0), Scalar::int(0)),
            });
            assert_eq!(filtered.results[0].rows, rows, "{n} rows, in table order");
            assert_eq!(filtered.metrics.base_rows_scanned, n);

            let counted = run(PhysicalPlan::HashAggregate {
                input: Box::new(scan),
                keys: Vec::new(),
                aggs: vec![AggExpr::count_star()],
                out,
                layout: vec![ColRef::new(out, 0)],
            });
            let want = vec![row(vec![Value::Int(n as i64)])];
            assert_eq!(counted.results[0].rows, want, "COUNT(*) over {n} rows");
            assert_eq!(counted.metrics.base_rows_scanned, n);
        }
    }
}
