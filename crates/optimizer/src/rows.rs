//! Per-group cardinality estimation over the memo.
//!
//! Row counts are a *logical* property: every expression in a group yields
//! the same result, so the estimate is computed once per group and cached.
//! A Get, Filter or Join group is estimated from its logical key, whatever
//! join order was inserted first; other groups from their first expression.

use cse_cost::{join_rows, rel_rows, Cardinality, Factor};
use cse_memo::{GroupId, LogicalKey, Memo, Op};
use cse_storage::Catalog;

/// Caching row estimator over a memo.
pub struct GroupRows<'a> {
    memo: &'a Memo,
    card: Cardinality<'a>,
    /// Each group's rows, each base rel's rows and each conjunct's factor,
    /// by id.
    cache: Vec<Option<f64>>,
    rels: Vec<f64>,
    factors: Vec<Factor>,
}

impl<'a> GroupRows<'a> {
    pub fn new(memo: &'a Memo, catalog: &'a Catalog) -> Self {
        let (ctx, card) = (&memo.ctx, Cardinality::new(&memo.ctx, catalog));
        let factors = memo.conjs().iter().map(|c| card.factor(&c.scalar));
        GroupRows {
            memo,
            card,
            cache: vec![None; memo.num_groups()],
            rels: ctx.rels().map(|(r, _)| rel_rows(catalog, ctx, r)).collect(),
            factors: factors.collect(),
        }
    }

    /// Estimated output rows of a group.
    pub fn rows(&mut self, g: GroupId) -> f64 {
        if let Some(r) = self.cache[g.0 as usize] {
            return r;
        }
        // Insert a provisional value to guard against (impossible by
        // construction, but cheap to defend) cycles.
        self.cache[g.0 as usize] = Some(1.0);
        let group = self.memo.group(g);
        let e = self.memo.gexpr(group.exprs[0]);
        let r = match (&group.props.key, &e.op) {
            (Some(key), _) => self.key_rows(key),
            (None, Op::Aggregate { keys, .. }) => {
                let input = self.rows(e.children[0]);
                self.card.group_rows(keys, input)
            }
            (None, Op::Batch) => e.children.iter().map(|c| self.rows(*c)).sum(),
            // Project and Sort; Get, Filter and Join groups have a key.
            (None, _) => self.rows(e.children[0]),
        };
        self.cache[g.0 as usize] = Some(r);
        r
    }

    /// [`join_rows`] over a group's base rels, whole inputs and conjuncts.
    fn key_rows(&mut self, key: &LogicalKey) -> f64 {
        let mut base: f64 = key.rels.iter().map(|r| self.rels[r.0 as usize]).product();
        for &input in &key.inputs {
            base *= self.rows(input);
        }
        join_rows(
            base,
            key.conjuncts.iter().map(|c| self.factors[c.0 as usize]),
        )
    }

    /// Byte width of a group's output row.
    pub fn width(&self, g: GroupId) -> f64 {
        self.card.width_of(&self.memo.group(g).props.output_cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_algebra::{LogicalPlan, PlanContext, RelId, Scalar};
    use cse_storage::{row, DataType, Schema, Table, Value};
    use std::sync::Arc;

    /// One-int-column tables of (name, rows, distinct values), and their
    /// rels in one block.
    fn tables<const N: usize>(specs: [(&str, i64, i64); N]) -> (PlanContext, Catalog, [RelId; N]) {
        let (mut cat, mut ctx) = (Catalog::new(), PlanContext::new());
        let (blk, schema) = (ctx.new_block(), Schema::from_pairs(&[("k", DataType::Int)]));
        let rels = specs.map(|(name, rows, ndv)| {
            let mut t = Table::new(name, schema.clone());
            (0..rows).for_each(|i| t.push(row(vec![Value::Int(i % ndv)])).unwrap());
            cat.register_table(t).unwrap();
            ctx.add_base_rel(name, name, Arc::new(schema.clone()), blk)
        });
        (ctx, cat, rels)
    }

    fn eq(x: RelId, y: RelId) -> Scalar {
        Scalar::eq(Scalar::col(x, 0), Scalar::col(y, 0))
    }

    /// fact (1 000 rows, 100 keys) ⋈ dim (100 rows, 100 keys).
    fn setup() -> (Memo, Catalog) {
        let (ctx, stats, [f, d]) = tables([("fact", 1000, 100), ("dim", 100, 100)]);
        let mut memo = Memo::new(ctx);
        memo.insert_plan(&LogicalPlan::get(f).join(LogicalPlan::get(d), eq(f, d)));
        (memo, stats)
    }

    #[test]
    fn join_rows_estimated() {
        let (memo, stats) = setup();
        let mut rows = GroupRows::new(&memo, &stats);
        let r = rows.rows(memo.root());
        assert!((900.0..1100.0).contains(&r), "{r}");
    }

    /// `a = b and b = c`, where b has the most distinct values (a: 10,
    /// b: 1 000, c: 100): one class of three columns, so the join divides
    /// by ndv(c) and ndv(b), whichever join order was inserted first. A
    /// join step at a time divides by ndv(b) twice.
    #[test]
    fn join_estimate_does_not_depend_on_join_order() {
        let (ctx, stats, [a, b, c]) = tables([("a", 100, 10), ("b", 1000, 1000), ("c", 500, 100)]);
        let get = LogicalPlan::get;
        let orders = [
            get(a).join(get(b), eq(a, b)).join(get(c), eq(b, c)),
            get(b).join(get(c), eq(b, c)).join(get(a), eq(a, b)),
        ];
        for plan in orders {
            let mut memo = Memo::new(ctx.clone());
            let root = memo.insert_plan(&plan);
            let got = GroupRows::new(&memo, &stats).rows(root);
            assert_eq!(got, 100.0 * 1000.0 * 500.0 / 100.0 / 1000.0, "{plan:?}");
        }
    }

    #[test]
    fn width_positive() {
        let (memo, stats) = setup();
        let rows = GroupRows::new(&memo, &stats);
        assert_eq!(rows.width(memo.root()), 16.0);
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
