//! Per-group cardinality estimation over the memo.
//!
//! Row counts are a *logical* property: every expression in a group yields
//! the same result, so the estimate is computed once per group from its
//! first (originally inserted) expression and cached.

use cse_cost::{Cardinality, Selectivity, StatsCatalog};
use cse_memo::{ConjId, GroupId, Memo, Op};
use std::collections::HashMap;

/// Caching row estimator over a memo.
pub struct GroupRows<'a> {
    memo: &'a Memo,
    stats: &'a StatsCatalog,
    cache: HashMap<GroupId, f64>,
}

impl<'a> GroupRows<'a> {
    pub fn new(memo: &'a Memo, stats: &'a StatsCatalog) -> Self {
        GroupRows {
            memo,
            stats,
            cache: HashMap::new(),
        }
    }

    fn card(&self) -> Cardinality<'a> {
        Cardinality::new(&self.memo.ctx, self.stats)
    }

    /// Estimated output rows of a group.
    pub fn rows(&mut self, g: GroupId) -> f64 {
        if let Some(&r) = self.cache.get(&g) {
            return r;
        }
        // Insert a provisional value to guard against (impossible by
        // construction, but cheap to defend) cycles.
        self.cache.insert(g, 1.0);
        let memo = self.memo;
        let e = memo.gexpr(memo.group(g).exprs[0]);
        let card = self.card();
        let r = match &e.op {
            Op::Get { rel } => self.stats.rel_rows(&self.memo.ctx, *rel),
            Op::Filter { pred } => {
                let sel = Selectivity::new(&memo.ctx, self.stats).of(&memo.pred(pred));
                (self.rows(e.children[0]) * sel).max(1.0)
            }
            Op::Join { pred } => {
                let l = self.rows(e.children[0]);
                let r = self.rows(e.children[1]);
                (l * r * join_selectivity(memo, pred, self.stats)).max(1.0)
            }
            Op::Aggregate { keys, .. } => {
                let input = self.rows(e.children[0]);
                card.group_rows(keys, input)
            }
            Op::Project { .. } | Op::Sort { .. } => self.rows(e.children[0]),
            Op::Batch => e.children.iter().map(|c| self.rows(*c)).sum(),
        };
        self.cache.insert(g, r);
        r
    }

    /// Byte width of a group's output row.
    pub fn width(&self, g: GroupId) -> f64 {
        self.card().width_of(&self.memo.group(g).props.output_cols)
    }
}

/// Selectivity of a join predicate: equivalence-linked equality atoms use
/// 1/max(ndv); the rest go through the generic estimator.
fn join_selectivity(memo: &Memo, pred: &[ConjId], stats: &StatsCatalog) -> f64 {
    let mut sel = 1.0;
    let (ctx, est) = (&memo.ctx, Selectivity::new(&memo.ctx, stats));
    for (_, c) in memo.conjuncts(pred) {
        if let Some((a, b)) = c.col_eq_col {
            let nd = stats.col_ndv(ctx, a).max(stats.col_ndv(ctx, b)).max(1.0);
            sel /= nd;
        } else {
            sel *= est.of(&c.scalar);
        }
    }
    sel
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_algebra::{LogicalPlan, PlanContext, Scalar};
    use cse_storage::{row, Catalog, DataType, Schema, Table, Value};
    use std::sync::Arc;

    fn setup() -> (Memo, StatsCatalog) {
        let mut fact = Table::new(
            "fact",
            Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Float)]),
        );
        for i in 0..1000i64 {
            fact.push(row(vec![Value::Int(i % 100), Value::Float(i as f64)]))
                .unwrap();
        }
        let mut dim = Table::new("dim", Schema::from_pairs(&[("k", DataType::Int)]));
        for i in 0..100i64 {
            dim.push(row(vec![Value::Int(i)])).unwrap();
        }
        let mut cat = Catalog::new();
        cat.register_table(fact).unwrap();
        cat.register_table(dim).unwrap();
        let stats = StatsCatalog::from_catalog(&cat);

        let mut ctx = PlanContext::new();
        let b = ctx.new_block();
        let fs = Arc::new(Schema::from_pairs(&[
            ("k", DataType::Int),
            ("v", DataType::Float),
        ]));
        let ds = Arc::new(Schema::from_pairs(&[("k", DataType::Int)]));
        let f = ctx.add_base_rel("fact", "fact", fs, b);
        let d = ctx.add_base_rel("dim", "dim", ds, b);
        let plan = LogicalPlan::get(f).join(
            LogicalPlan::get(d),
            Scalar::eq(Scalar::col(f, 0), Scalar::col(d, 0)),
        );
        let mut memo = Memo::new(ctx);
        memo.insert_plan(&plan);
        (memo, stats)
    }

    #[test]
    fn join_rows_estimated() {
        let (memo, stats) = setup();
        let mut rows = GroupRows::new(&memo, &stats);
        let r = rows.rows(memo.root());
        assert!((900.0..1100.0).contains(&r), "{r}");
    }

    #[test]
    fn width_positive() {
        let (memo, stats) = setup();
        let rows = GroupRows::new(&memo, &stats);
        assert!(rows.width(memo.root()) >= 16.0);
    }

    #[test]
    fn cache_is_stable() {
        let (memo, stats) = setup();
        let mut rows = GroupRows::new(&memo, &stats);
        let a = rows.rows(memo.root());
        let b = rows.rows(memo.root());
        assert_eq!(a, b);
    }
}
