//! Lowering: AST → logical plans over globally-identified columns.
//!
//! Each statement becomes one query block; a batch becomes a `Batch` plan
//! whose children share one [`PlanContext`], so similar subexpressions in
//! different statements can later be covered by one CSE. Uncorrelated
//! scalar subqueries become their own blocks cross-joined into the main
//! block (below the aggregate when referenced in WHERE, above it when
//! referenced in HAVING).

use crate::ast::*;
use crate::error::SqlError;
use crate::span::Span;
use cse_algebra::{
    AggExpr, AggFunc, ArithOp, BlockId, CmpOp, ColRef, LogicalPlan, PlanContext, RelId, Scalar,
    SortOrder,
};
use cse_storage::{Catalog, DataType, Value};

/// Side-channel the lowerer fills in for downstream analyzers: which
/// source spans the lowered predicate conjuncts and group keys came
/// from. Reset per top-level statement ([`SqlLowerer::lower_select`]);
/// nested subquery blocks append to the enclosing statement's trace.
#[derive(Debug, Clone, Default)]
pub struct LowerTrace {
    /// Normalized WHERE-level conjuncts with their source spans.
    pub pred_spans: Vec<(Scalar, Span)>,
    /// Group-by key columns with their source spans.
    pub key_spans: Vec<(ColRef, Span)>,
}

/// Lowers statements against a catalog, accumulating one shared context.
pub struct SqlLowerer<'a> {
    pub catalog: &'a Catalog,
    pub ctx: PlanContext,
    /// Span trace of the most recently lowered statement.
    pub trace: LowerTrace,
}

/// Lower a whole SQL batch: returns the shared context and a `Batch` plan
/// (single statements stay unwrapped).
pub fn lower_batch_sql(
    catalog: &Catalog,
    sql: &str,
) -> Result<(PlanContext, LogicalPlan), SqlError> {
    let stmts = crate::parser::parse_batch(sql).map_err(SqlError::Parse)?;
    let selects: Vec<SelectStmt> = stmts
        .into_iter()
        .map(|s| match s {
            Statement::Select(s) => Ok(s),
            Statement::CreateMaterializedView { .. } => Err(SqlError::Unsupported(
                "CREATE MATERIALIZED VIEW must go through the maintenance API".to_string(),
            )),
        })
        .collect::<Result<_, _>>()?;
    lower_batch(catalog, &selects)
}

/// Lower already-parsed statements as one batch over one shared context
/// (single statements stay unwrapped). View maintenance enters here with
/// definitions it rewrote at the AST level.
pub fn lower_batch(
    catalog: &Catalog,
    selects: &[SelectStmt],
) -> Result<(PlanContext, LogicalPlan), SqlError> {
    let mut lowerer = SqlLowerer::new(catalog);
    let mut children = Vec::with_capacity(selects.len());
    for s in selects {
        children.push(lowerer.lower_select(s)?);
    }
    // A single statement stays unwrapped. Callers never pass an empty list
    // (`parse_batch` rejects empty input), so popping cannot fail — surface
    // an Internal error instead of panicking if that invariant ever breaks.
    let plan = if children.len() == 1 {
        children
            .pop()
            .ok_or_else(|| SqlError::Internal("single-statement batch vanished".into()))?
    } else {
        LogicalPlan::Batch { children }
    };
    Ok((lowerer.ctx, plan))
}

/// Scope entry: one FROM item.
struct ScopeRel {
    rel: RelId,
    key: String, // alias if present, else table name (lowercase)
}

/// How column/aggregate references resolve at the current level.
enum Mode<'m> {
    /// Below any aggregation: columns resolve directly, aggregates illegal.
    Pre,
    /// Above the aggregation: group keys pass through, aggregate instances
    /// map to output columns (or composites, e.g. AVG = SUM/COUNT).
    Post {
        keys: &'m [ColRef],
        aggs: &'m [AggExpr],
        out: RelId,
    },
}

impl<'a> SqlLowerer<'a> {
    pub fn new(catalog: &'a Catalog) -> Self {
        SqlLowerer {
            catalog,
            ctx: PlanContext::new(),
            trace: LowerTrace::default(),
        }
    }

    /// Lower one SELECT statement into a plan rooted at a Project.
    pub fn lower_select(&mut self, stmt: &SelectStmt) -> Result<LogicalPlan, SqlError> {
        self.trace = LowerTrace::default();
        let block = self.ctx.new_block();
        self.lower_select_in_block(stmt, block)
    }

    fn lower_select_in_block(
        &mut self,
        stmt: &SelectStmt,
        block: BlockId,
    ) -> Result<LogicalPlan, SqlError> {
        // FROM: allocate rels.
        if stmt.from.is_empty() {
            return Err(SqlError::Unsupported("FROM clause is required".into()));
        }
        let mut scope: Vec<ScopeRel> = Vec::with_capacity(stmt.from.len());
        for f in &stmt.from {
            let entry = self
                .catalog
                .get(&f.table)
                .map_err(|e| SqlError::Bind(format!("in FROM: {e}")))?;
            let rel = self.ctx.add_base_rel(
                f.table.to_ascii_lowercase(),
                f.alias.clone().unwrap_or_else(|| f.table.clone()),
                entry.table.schema().clone(),
                block,
            );
            scope.push(ScopeRel {
                rel,
                key: f
                    .alias
                    .clone()
                    .unwrap_or_else(|| f.table.clone())
                    .to_ascii_lowercase(),
            });
        }

        // WHERE: lower predicate, pulling out scalar subqueries. Lower
        // top-level AST conjuncts one by one so each lowered conjunct can
        // be traced back to its source span (`Scalar::and` flattens, so
        // the combined predicate is identical to lowering the whole tree).
        let mut where_subs: Vec<LogicalPlan> = Vec::new();
        let where_pred = match &stmt.where_clause {
            Some(e) => {
                let mut parts: Vec<&Expr> = Vec::new();
                collect_conjunct_exprs(e, &mut parts);
                let mut lowered = Vec::with_capacity(parts.len());
                for part in parts {
                    let s = self.lower_pred_with_subs(part, &scope, &mut where_subs, block)?;
                    self.trace
                        .pred_spans
                        .push((s.clone().normalize(), part.span));
                    lowered.push(s);
                }
                Some(Scalar::and(lowered))
            }
            None => None,
        };

        // Build the join tree: filtered leaves joined left-deep in FROM
        // order, predicates attached at the lowest covering join.
        let conjuncts = where_pred.map(|p| p.conjuncts()).unwrap_or_default();
        let mut remaining: Vec<Scalar> = conjuncts;
        let mut plan: Option<LogicalPlan> = None;
        let mut covered = cse_algebra::RelSet::EMPTY;
        // Rel sets of the WHERE-level subqueries (cross-joined after base
        // rels so their conjuncts resolve).
        for (idx, s) in scope.iter().enumerate() {
            let mut leaf = LogicalPlan::get(s.rel);
            let leaf_set = cse_algebra::RelSet::single(s.rel);
            let local: Vec<Scalar> = extract_covered(&mut remaining, leaf_set);
            if !local.is_empty() {
                leaf = leaf.filter(Scalar::and(local));
            }
            covered = covered.union(leaf_set);
            plan = Some(match plan {
                None => leaf,
                Some(p) => {
                    let join_pred: Vec<Scalar> = extract_join_preds(&mut remaining, covered);
                    let _ = idx;
                    p.join(leaf, Scalar::and(join_pred).normalize())
                }
            });
        }
        let mut plan =
            plan.ok_or_else(|| SqlError::Internal("FROM produced no join tree".into()))?;
        // WHERE-level subqueries: cross join below the aggregate.
        for sub in where_subs {
            plan = plan.join(sub, Scalar::true_());
            covered = plan.rels();
            let more: Vec<Scalar> = extract_covered(&mut remaining, covered);
            if !more.is_empty() {
                plan = plan.filter(Scalar::and(more));
            }
        }
        if !remaining.is_empty() {
            // Conjuncts referencing unknown columns at this level.
            plan = plan.filter(Scalar::and(std::mem::take(&mut remaining)));
        }

        // Aggregation analysis.
        let has_group = !stmt.group_by.is_empty();
        let select_exprs: Vec<(&Expr, Option<&String>)> = stmt
            .select
            .iter()
            .flat_map(|item| match item {
                SelectItem::Star => Vec::new(),
                SelectItem::Expr { expr, alias } => vec![(expr, alias.as_ref())],
            })
            .collect();
        let any_agg = select_exprs.iter().any(|(e, _)| contains_agg(e))
            || stmt.having.as_ref().map(contains_agg).unwrap_or(false)
            || stmt.order_by.iter().any(|(e, _)| contains_agg(e));

        if !(has_group || any_agg) {
            // Pure SPJ statement.
            return self.finish_spj(stmt, plan, &scope, block);
        }
        if stmt.select.iter().any(|i| matches!(i, SelectItem::Star)) {
            return Err(SqlError::Unsupported(
                "SELECT * cannot be combined with GROUP BY".into(),
            ));
        }

        // Group keys.
        let mut keys: Vec<ColRef> = Vec::new();
        for g in &stmt.group_by {
            match self.lower_expr(g, &scope, &Mode::Pre)? {
                Scalar::Col(c) => {
                    self.trace.key_spans.push((c, g.span));
                    if !keys.contains(&c) {
                        keys.push(c)
                    }
                }
                other => {
                    return Err(SqlError::Unsupported(format!(
                        "GROUP BY must list columns, got {other}"
                    )))
                }
            }
        }
        // Collect aggregate expressions from select + having + order by.
        let mut aggs: Vec<AggExpr> = Vec::new();
        for (e, _) in &select_exprs {
            self.collect_aggs(e, &scope, &mut aggs)?;
        }
        if let Some(h) = &stmt.having {
            self.collect_aggs(h, &scope, &mut aggs)?;
        }
        for (e, _) in &stmt.order_by {
            self.collect_aggs(e, &scope, &mut aggs)?;
        }
        let types: Vec<DataType> = aggs.iter().map(|a| self.ctx.agg_type(a)).collect();
        let out = self.ctx.add_agg_output(&types, block);
        let mut plan = LogicalPlan::Aggregate {
            input: Box::new(plan),
            keys: keys.clone(),
            aggs: aggs.clone(),
            out,
        };

        // HAVING (post-agg mode; subqueries cross-join above the aggregate).
        if let Some(h) = &stmt.having {
            let mut having_subs: Vec<LogicalPlan> = Vec::new();
            let pred =
                self.lower_post_with_subs(h, &scope, &keys, &aggs, out, &mut having_subs, block)?;
            for sub in having_subs {
                plan = plan.join(sub, Scalar::true_());
            }
            plan = plan.filter(pred);
        }

        // SELECT list (post-agg mode).
        let mut exprs: Vec<(String, Scalar)> = Vec::with_capacity(select_exprs.len());
        for (e, alias) in &select_exprs {
            let s = self.lower_expr(
                e,
                &scope,
                &Mode::Post {
                    keys: &keys,
                    aggs: &aggs,
                    out,
                },
            )?;
            exprs.push((
                self.output_name(e, alias.map(|a| a.as_str()), exprs.len()),
                s,
            ));
        }

        // ORDER BY (post-agg; aliases resolve to select expressions).
        if !stmt.order_by.is_empty() {
            let mut sort_keys = Vec::with_capacity(stmt.order_by.len());
            for (e, desc) in &stmt.order_by {
                let s = match self.resolve_alias(e, &exprs) {
                    Some(s) => s,
                    None => self.lower_expr(
                        e,
                        &scope,
                        &Mode::Post {
                            keys: &keys,
                            aggs: &aggs,
                            out,
                        },
                    )?,
                };
                sort_keys.push((
                    s,
                    if *desc {
                        SortOrder::Desc
                    } else {
                        SortOrder::Asc
                    },
                ));
            }
            plan = LogicalPlan::Sort {
                input: Box::new(plan),
                keys: sort_keys,
            };
        }
        Ok(plan.project(exprs))
    }

    /// Finish a statement without aggregation: Sort (optional) + Project.
    fn finish_spj(
        &mut self,
        stmt: &SelectStmt,
        mut plan: LogicalPlan,
        scope: &[ScopeRel],
        _block: BlockId,
    ) -> Result<LogicalPlan, SqlError> {
        let mut exprs: Vec<(String, Scalar)> = Vec::new();
        for item in &stmt.select {
            match item {
                SelectItem::Star => {
                    for s in scope {
                        let schema = self.ctx.rel(s.rel).schema.clone();
                        for (i, col) in schema.columns().iter().enumerate() {
                            exprs.push((
                                col.name.clone(),
                                Scalar::Col(ColRef::new(s.rel, i as u16)),
                            ));
                        }
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let s = self.lower_expr(expr, scope, &Mode::Pre)?;
                    exprs.push((self.output_name(expr, alias.as_deref(), exprs.len()), s));
                }
            }
        }
        if !stmt.order_by.is_empty() {
            let mut sort_keys = Vec::new();
            for (e, desc) in &stmt.order_by {
                let s = match self.resolve_alias(e, &exprs) {
                    Some(s) => s,
                    None => self.lower_expr(e, scope, &Mode::Pre)?,
                };
                sort_keys.push((
                    s,
                    if *desc {
                        SortOrder::Desc
                    } else {
                        SortOrder::Asc
                    },
                ));
            }
            plan = LogicalPlan::Sort {
                input: Box::new(plan),
                keys: sort_keys,
            };
        }
        Ok(plan.project(exprs))
    }

    /// ORDER BY aliases: `order by totaldisc desc` refers to a select item.
    fn resolve_alias(&self, e: &Expr, exprs: &[(String, Scalar)]) -> Option<Scalar> {
        if let ExprKind::Column {
            qualifier: None,
            name,
        } = &e.kind
        {
            return exprs
                .iter()
                .find(|(n, _)| n.eq_ignore_ascii_case(name))
                .map(|(_, s)| s.clone());
        }
        None
    }

    fn output_name(&self, e: &Expr, alias: Option<&str>, idx: usize) -> String {
        if let Some(a) = alias {
            return a.to_string();
        }
        match &e.kind {
            ExprKind::Column { name, .. } => name.clone(),
            ExprKind::Agg { func, .. } => {
                format!("{func:?}").to_ascii_lowercase() + &idx.to_string()
            }
            _ => format!("col{idx}"),
        }
    }

    /// Lower a WHERE predicate, replacing scalar subqueries by references
    /// to their (cross-joined) single-row outputs.
    fn lower_pred_with_subs(
        &mut self,
        e: &Expr,
        scope: &[ScopeRel],
        subs: &mut Vec<LogicalPlan>,
        block: BlockId,
    ) -> Result<Scalar, SqlError> {
        // Subqueries are found during lowering; Mode::Pre forbids them, so
        // pre-walk and rewrite.
        self.lower_expr_subs(e, scope, &Mode::Pre, subs, block)
    }

    #[allow(clippy::too_many_arguments)]
    fn lower_post_with_subs(
        &mut self,
        e: &Expr,
        scope: &[ScopeRel],
        keys: &[ColRef],
        aggs: &[AggExpr],
        out: RelId,
        subs: &mut Vec<LogicalPlan>,
        block: BlockId,
    ) -> Result<Scalar, SqlError> {
        let mode = Mode::Post { keys, aggs, out };
        self.lower_expr_subs(e, scope, &mode, subs, block)
    }

    /// Expression lowering with subquery extraction.
    fn lower_expr_subs(
        &mut self,
        e: &Expr,
        scope: &[ScopeRel],
        mode: &Mode<'_>,
        subs: &mut Vec<LogicalPlan>,
        block: BlockId,
    ) -> Result<Scalar, SqlError> {
        match &e.kind {
            ExprKind::Subquery(stmt) => {
                let (plan, value) = self.lower_scalar_subquery(stmt)?;
                let _ = block;
                subs.push(plan);
                Ok(value)
            }
            ExprKind::And(a, b) => Ok(Scalar::and([
                self.lower_expr_subs(a, scope, mode, subs, block)?,
                self.lower_expr_subs(b, scope, mode, subs, block)?,
            ])),
            ExprKind::Or(a, b) => Ok(Scalar::or([
                self.lower_expr_subs(a, scope, mode, subs, block)?,
                self.lower_expr_subs(b, scope, mode, subs, block)?,
            ])),
            ExprKind::Not(a) => Ok(Scalar::Not(Box::new(
                self.lower_expr_subs(a, scope, mode, subs, block)?,
            ))),
            ExprKind::Binary(op, a, b) => {
                let la = self.lower_expr_subs(a, scope, mode, subs, block)?;
                let lb = self.lower_expr_subs(b, scope, mode, subs, block)?;
                self.lower_binary(*op, la, lb)
            }
            _ => self.lower_expr(e, scope, mode),
        }
    }

    /// Lower an uncorrelated scalar subquery: must aggregate to one row.
    /// Returns its plan and the scalar referencing its single value.
    fn lower_scalar_subquery(
        &mut self,
        stmt: &SelectStmt,
    ) -> Result<(LogicalPlan, Scalar), SqlError> {
        if stmt.select.len() != 1 || !stmt.group_by.is_empty() {
            return Err(SqlError::Unsupported(
                "scalar subqueries must produce a single aggregated value".into(),
            ));
        }
        let expr = match &stmt.select[0] {
            SelectItem::Expr { expr, .. } => expr,
            SelectItem::Star => {
                return Err(SqlError::Unsupported(
                    "scalar subquery cannot select *".into(),
                ))
            }
        };
        if !contains_agg(expr) {
            return Err(SqlError::Unsupported(
                "scalar subqueries must be aggregates (single row)".into(),
            ));
        }
        let block = self.ctx.new_block();
        // Lower the subquery body without projection: we need the aggregate
        // outputs as global columns.
        let inner = SelectStmt {
            select: vec![stmt.select[0].clone()],
            from: stmt.from.clone(),
            where_clause: stmt.where_clause.clone(),
            group_by: vec![],
            having: None,
            order_by: vec![],
            span: stmt.span,
        };
        // Reuse the main path, then strip the Project and recover its expr.
        let lowered = self.lower_select_in_block(&inner, block)?;
        match lowered {
            LogicalPlan::Project { input, exprs } => {
                let value = exprs
                    .into_iter()
                    .next()
                    .map(|(_, s)| s)
                    .ok_or_else(|| SqlError::Internal("empty subquery projection".into()))?;
                Ok((*input, value))
            }
            _ => Err(SqlError::Internal(
                "subquery did not lower to a projection".into(),
            )),
        }
    }

    /// Lower a (sub)expression without subquery support.
    fn lower_expr(
        &mut self,
        e: &Expr,
        scope: &[ScopeRel],
        mode: &Mode<'_>,
    ) -> Result<Scalar, SqlError> {
        match &e.kind {
            ExprKind::Column { qualifier, name } => {
                let col = self.resolve_column(qualifier.as_deref(), name, scope)?;
                if let Mode::Post { keys, .. } = mode {
                    if !keys.contains(&col) {
                        return Err(SqlError::Bind(format!(
                            "column {name} must appear in GROUP BY or inside an aggregate"
                        )));
                    }
                }
                Ok(Scalar::Col(col))
            }
            ExprKind::Int(i) => Ok(Scalar::int(*i)),
            ExprKind::Float(f) => Ok(Scalar::lit(Value::Float(*f))),
            ExprKind::Str(s) => Ok(Scalar::lit(Value::str(s))),
            ExprKind::Binary(op, a, b) => {
                let la = self.lower_expr(a, scope, mode)?;
                let lb = self.lower_expr(b, scope, mode)?;
                self.lower_binary(*op, la, lb)
            }
            ExprKind::And(a, b) => Ok(Scalar::and([
                self.lower_expr(a, scope, mode)?,
                self.lower_expr(b, scope, mode)?,
            ])),
            ExprKind::Or(a, b) => Ok(Scalar::or([
                self.lower_expr(a, scope, mode)?,
                self.lower_expr(b, scope, mode)?,
            ])),
            ExprKind::Not(a) => Ok(Scalar::Not(Box::new(self.lower_expr(a, scope, mode)?))),
            ExprKind::IsNull(a, negated) => {
                let inner = Scalar::IsNull(Box::new(self.lower_expr(a, scope, mode)?));
                Ok(if *negated {
                    Scalar::Not(Box::new(inner))
                } else {
                    inner
                })
            }
            ExprKind::Between {
                expr,
                lo,
                hi,
                negated,
            } => {
                let x = self.lower_expr(expr, scope, mode)?;
                let l = self.lower_expr(lo, scope, mode)?;
                let h = self.lower_expr(hi, scope, mode)?;
                let ge = self.lower_binary(BinOp::Ge, x.clone(), l)?;
                let le = self.lower_binary(BinOp::Le, x, h)?;
                let both = Scalar::and([ge, le]);
                Ok(if *negated {
                    Scalar::Not(Box::new(both))
                } else {
                    both
                })
            }
            ExprKind::Agg { func, arg } => match mode {
                Mode::Pre => Err(SqlError::Bind("aggregate not allowed here".into())),
                Mode::Post { aggs, out, .. } => {
                    let replacement =
                        self.agg_replacement(*func, arg.as_deref(), scope, aggs, *out)?;
                    Ok(replacement)
                }
            },
            ExprKind::Subquery(_) => Err(SqlError::Unsupported(
                "subquery not allowed in this position".into(),
            )),
        }
    }

    fn lower_binary(&self, op: BinOp, mut a: Scalar, mut b: Scalar) -> Result<Scalar, SqlError> {
        // Date coercion: comparing a Date column with a string literal.
        let coerce = |col: &Scalar, lit: &mut Scalar, ctx: &PlanContext| {
            if let (Scalar::Col(c), Scalar::Lit(Value::Str(s))) = (col, &*lit) {
                if ctx.col_type(*c) == DataType::Date {
                    if let Some(d) = Value::date(s) {
                        *lit = Scalar::Lit(d);
                    }
                }
            }
        };
        coerce(&a, &mut b, &self.ctx);
        coerce(&b, &mut a, &self.ctx);
        Ok(match op {
            BinOp::Eq => Scalar::cmp(CmpOp::Eq, a, b),
            BinOp::Ne => Scalar::cmp(CmpOp::Ne, a, b),
            BinOp::Lt => Scalar::cmp(CmpOp::Lt, a, b),
            BinOp::Le => Scalar::cmp(CmpOp::Le, a, b),
            BinOp::Gt => Scalar::cmp(CmpOp::Gt, a, b),
            BinOp::Ge => Scalar::cmp(CmpOp::Ge, a, b),
            BinOp::Add => Scalar::Arith(ArithOp::Add, Box::new(a), Box::new(b)),
            BinOp::Sub => Scalar::Arith(ArithOp::Sub, Box::new(a), Box::new(b)),
            BinOp::Mul => Scalar::Arith(ArithOp::Mul, Box::new(a), Box::new(b)),
            BinOp::Div => Scalar::Arith(ArithOp::Div, Box::new(a), Box::new(b)),
        })
    }

    /// Position of an aggregate in the collected list → output column (AVG
    /// expands to SUM/COUNT).
    fn agg_replacement(
        &mut self,
        func: AggName,
        arg: Option<&Expr>,
        scope: &[ScopeRel],
        aggs: &[AggExpr],
        out: RelId,
    ) -> Result<Scalar, SqlError> {
        let find = |target: &AggExpr| -> Result<u16, SqlError> {
            aggs.iter()
                .position(|a| a == target)
                .map(|i| i as u16)
                .ok_or_else(|| SqlError::Internal("aggregate not collected".to_string()))
        };
        match func {
            AggName::Avg => {
                let arg = arg.ok_or_else(|| SqlError::Bind("AVG requires an argument".into()))?;
                let larg = self.lower_expr(arg, scope, &Mode::Pre)?.normalize();
                let sum_i = find(&AggExpr::sum(larg.clone()))?;
                let cnt_i = find(&AggExpr::new(AggFunc::Count, larg))?;
                Ok(Scalar::Arith(
                    ArithOp::Div,
                    Box::new(Scalar::Col(ColRef::new(out, sum_i))),
                    Box::new(Scalar::Col(ColRef::new(out, cnt_i))),
                ))
            }
            _ => {
                let target = self.build_agg(func, arg, scope)?;
                let i = find(&target)?;
                Ok(Scalar::Col(ColRef::new(out, i)))
            }
        }
    }

    fn build_agg(
        &mut self,
        func: AggName,
        arg: Option<&Expr>,
        scope: &[ScopeRel],
    ) -> Result<AggExpr, SqlError> {
        Ok(match (func, arg) {
            (AggName::Count, None) => AggExpr::count_star(),
            (AggName::Count, Some(a)) => AggExpr::new(
                AggFunc::Count,
                self.lower_expr(a, scope, &Mode::Pre)?.normalize(),
            ),
            (AggName::Sum, Some(a)) => {
                AggExpr::sum(self.lower_expr(a, scope, &Mode::Pre)?.normalize())
            }
            (AggName::Min, Some(a)) => {
                AggExpr::min(self.lower_expr(a, scope, &Mode::Pre)?.normalize())
            }
            (AggName::Max, Some(a)) => {
                AggExpr::max(self.lower_expr(a, scope, &Mode::Pre)?.normalize())
            }
            (AggName::Avg, _) => {
                return Err(SqlError::Internal("AVG is decomposed by the caller".into()))
            }
            (f, None) => return Err(SqlError::Bind(format!("{f:?} requires an argument"))),
        })
    }

    /// Collect the aggregates an expression needs (AVG adds SUM + COUNT).
    fn collect_aggs(
        &mut self,
        e: &Expr,
        scope: &[ScopeRel],
        out: &mut Vec<AggExpr>,
    ) -> Result<(), SqlError> {
        match &e.kind {
            ExprKind::Agg { func, arg } => match func {
                AggName::Avg => {
                    let a = arg
                        .as_deref()
                        .ok_or_else(|| SqlError::Bind("AVG requires an argument".into()))?;
                    let larg = self.lower_expr(a, scope, &Mode::Pre)?.normalize();
                    for target in [
                        AggExpr::sum(larg.clone()),
                        AggExpr::new(AggFunc::Count, larg),
                    ] {
                        if !out.contains(&target) {
                            out.push(target);
                        }
                    }
                }
                _ => {
                    let target = self.build_agg(*func, arg.as_deref(), scope)?;
                    if !out.contains(&target) {
                        out.push(target);
                    }
                }
            },
            ExprKind::Binary(_, a, b) | ExprKind::And(a, b) | ExprKind::Or(a, b) => {
                self.collect_aggs(a, scope, out)?;
                self.collect_aggs(b, scope, out)?;
            }
            ExprKind::Not(a) | ExprKind::IsNull(a, _) => self.collect_aggs(a, scope, out)?,
            ExprKind::Between { expr, lo, hi, .. } => {
                self.collect_aggs(expr, scope, out)?;
                self.collect_aggs(lo, scope, out)?;
                self.collect_aggs(hi, scope, out)?;
            }
            // Subqueries keep their own aggregates.
            ExprKind::Subquery(_)
            | ExprKind::Column { .. }
            | ExprKind::Int(_)
            | ExprKind::Float(_)
            | ExprKind::Str(_) => {}
        }
        Ok(())
    }

    fn resolve_column(
        &self,
        qualifier: Option<&str>,
        name: &str,
        scope: &[ScopeRel],
    ) -> Result<ColRef, SqlError> {
        match qualifier {
            Some(q) => {
                let q = q.to_ascii_lowercase();
                let s = scope
                    .iter()
                    .find(|s| s.key == q)
                    .ok_or_else(|| SqlError::Bind(format!("unknown table or alias '{q}'")))?;
                self.ctx
                    .resolve_col(s.rel, name)
                    .ok_or_else(|| SqlError::Bind(format!("unknown column '{q}.{name}'")))
            }
            None => {
                let mut found: Option<ColRef> = None;
                for s in scope {
                    if let Some(c) = self.ctx.resolve_col(s.rel, name) {
                        if found.is_some() {
                            return Err(SqlError::Bind(format!("ambiguous column '{name}'")));
                        }
                        found = Some(c);
                    }
                }
                found.ok_or_else(|| SqlError::Bind(format!("unknown column '{name}'")))
            }
        }
    }
}

/// Remove and return the conjuncts fully covered by `set`.
fn extract_covered(remaining: &mut Vec<Scalar>, set: cse_algebra::RelSet) -> Vec<Scalar> {
    let mut out = Vec::new();
    remaining.retain(|c| {
        if c.rels().is_subset(set) && !c.rels().is_empty() {
            out.push(c.clone());
            false
        } else {
            true
        }
    });
    out
}

/// Join predicates covered by the joined rel set (multi-rel only).
fn extract_join_preds(remaining: &mut Vec<Scalar>, covered: cse_algebra::RelSet) -> Vec<Scalar> {
    let mut out = Vec::new();
    remaining.retain(|c| {
        let r = c.rels();
        if !r.is_empty() && r.is_subset(covered) {
            out.push(c.clone());
            false
        } else {
            true
        }
    });
    out
}

fn contains_agg(e: &Expr) -> bool {
    e.any(&|k| matches!(k, ExprKind::Agg { .. }))
}

/// Split an AST predicate into its top-level conjuncts (the `AND` spine).
pub fn collect_conjunct_exprs<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    match &e.kind {
        ExprKind::And(a, b) => {
            collect_conjunct_exprs(a, out);
            collect_conjunct_exprs(b, out);
        }
        _ => out.push(e),
    }
}
