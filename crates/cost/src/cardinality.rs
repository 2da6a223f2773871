//! Cardinality estimation for SPJ blocks and aggregations.

use crate::selectivity::Selectivity;
use cse_algebra::{ColRef, PlanContext, RelId, RelKind, Scalar};
use cse_storage::{Catalog, ColumnStats, TableStats};

/// The statistics of a catalog table, if it has one.
fn table_stats<'c>(catalog: &'c Catalog, name: &str) -> Option<&'c TableStats> {
    catalog.get(name).ok().map(|e| &*e.stats)
}

/// Row count of a table instance; 1000 when the catalog does not know the
/// table (so costs stay finite and comparisons remain meaningful).
pub fn rel_rows(catalog: &Catalog, ctx: &PlanContext, rel: RelId) -> f64 {
    let info = ctx.rel(rel);
    match info.kind {
        RelKind::Base => table_stats(catalog, &info.name)
            .map(|s| s.row_count as f64)
            .unwrap_or(1000.0)
            .max(1.0),
        RelKind::AggOutput => 1.0,
    }
}

/// Column statistics for a catalog-table column, if known.
pub(crate) fn col_stats<'c>(
    catalog: &'c Catalog,
    ctx: &PlanContext,
    c: ColRef,
) -> Option<&'c ColumnStats> {
    let info = ctx.rel(c.rel);
    match info.kind {
        RelKind::Base => table_stats(catalog, &info.name)?
            .columns
            .get(c.col as usize),
        RelKind::AggOutput => None,
    }
}

/// Number of distinct values of a column; sqrt(rows) for a column without
/// statistics.
pub fn col_ndv(catalog: &Catalog, ctx: &PlanContext, c: ColRef) -> f64 {
    match col_stats(catalog, ctx, c) {
        Some(s) => (s.distinct as f64).max(1.0),
        None => rel_rows(catalog, ctx, c.rel).sqrt().max(1.0),
    }
}

/// What one conjunct contributes to [`join_rows`].
#[derive(Debug, Clone, Copy)]
pub enum Factor {
    /// A column equality, each side with its distinct count.
    Eq([(ColRef, f64); 2]),
    /// Any other conjunct's selectivity.
    Sel(f64),
}

/// The one join estimator, of memo groups and covering subexpressions
/// alike: rows of `σ_p(I1 × … × In)`, `base` being Π rows(Ii). Each class
/// of columns `p`'s equalities make equal divides by every member's
/// distinct count but the smallest; the other conjuncts multiply by their
/// selectivities; the result is clamped to ≥ 1 once.
pub fn join_rows(base: f64, factors: impl IntoIterator<Item = Factor>) -> f64 {
    // Each equated column once, with its distinct count and a class label
    // that merges as the equalities arrive.
    let factors = factors.into_iter();
    let mut cols: Vec<(ColRef, f64, usize)> = Vec::with_capacity(2 * factors.size_hint().0);
    let mut sel = 1.0;
    for f in factors {
        let pair = match f {
            Factor::Eq(pair) => pair,
            Factor::Sel(s) => {
                sel *= s;
                continue;
            }
        };
        let [x, y] = pair.map(|(c, ndv)| match cols.iter().find(|x| x.0 == c) {
            Some(x) => x.2,
            None => {
                cols.push((c, ndv, cols.len()));
                cols.len() - 1
            }
        });
        let (lo, hi) = (x.min(y), x.max(y));
        cols.iter_mut().filter(|c| c.2 == hi).for_each(|c| c.2 = lo);
    }
    // Name each class by its smallest column, and take the classes in that
    // order; within one, the smallest distinct count first, which is the
    // one not divided by.
    for i in 0..cols.len() {
        let class = cols.iter().filter(|c| c.2 == cols[i].2);
        cols[i].0 = class.map(|c| c.0).min().unwrap_or(cols[i].0);
    }
    cols.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let links = cols.windows(2).filter(|w| w[0].0 == w[1].0);
    let rows = links.fold(base, |rows, w| rows / w[1].1.max(1.0));
    (rows * sel).max(1.0)
}

/// Cardinality estimator.
#[derive(Clone, Copy)]
pub struct Cardinality<'a> {
    pub ctx: &'a PlanContext,
    pub catalog: &'a Catalog,
}

impl<'a> Cardinality<'a> {
    pub fn new(ctx: &'a PlanContext, catalog: &'a Catalog) -> Self {
        Cardinality { ctx, catalog }
    }

    /// What `conjunct`, a conjunct of a normalized predicate, contributes to
    /// [`join_rows`].
    pub fn factor(&self, conjunct: &Scalar) -> Factor {
        match conjunct.as_col_eq_col() {
            Some((a, b)) => Factor::Eq([a, b].map(|c| (c, col_ndv(self.catalog, self.ctx, c)))),
            None => Factor::Sel(Selectivity::new(self.ctx, self.catalog).of(conjunct)),
        }
    }

    /// Estimated number of groups for a group-by over `input_rows` with the
    /// given keys, using the standard distinct-value overlap formula
    /// `D(n, d) = d · (1 − (1 − 1/d)^n)`.
    pub fn group_rows(&self, keys: &[ColRef], input_rows: f64) -> f64 {
        if keys.is_empty() {
            return 1.0;
        }
        let d: f64 = keys
            .iter()
            .map(|k| col_ndv(self.catalog, self.ctx, *k))
            .product::<f64>()
            .max(1.0);
        let n = input_rows.max(1.0);
        let groups = d * (1.0 - (1.0 - 1.0 / d).powf(n));
        groups.clamp(1.0, n)
    }

    /// Byte width of a set of output columns.
    pub fn width_of(&self, cols: &[ColRef]) -> f64 {
        cols.iter()
            .map(|c| self.ctx.col_type(*c).width() as f64)
            .sum::<f64>()
            .max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_storage::{DataType, Schema, Value};
    use std::sync::Arc;

    /// 1000 rows: an int key uniform over 0..99 and a float.
    fn setup() -> (PlanContext, Catalog, RelId) {
        let rows = (0..1000).map(|i| [Value::Int(i % 100), Value::Float(i as f64)]);
        crate::one_table(&[("k", DataType::Int), ("v", DataType::Float)], rows)
    }

    fn eq(a: (u32, f64), b: (u32, f64)) -> Factor {
        Factor::Eq([a, b].map(|(rel, ndv)| (ColRef::new(RelId(rel), 0), ndv)))
    }

    #[test]
    fn equijoin_cardinality() {
        // fact (1000 rows) ⋈ dim (100 rows) on a key with 100 values each.
        let on_key = eq((0, 100.0), (1, 100.0));
        assert_eq!(join_rows(100_000.0, [on_key]), 1000.0);
        assert_eq!(join_rows(100_000.0, []), 100_000.0);
        assert_eq!(join_rows(100_000.0, [on_key, Factor::Sel(0.5)]), 500.0);
    }

    /// A class of three columns is two links, whatever the order of its
    /// equalities and however many state it: divide by all but the
    /// smallest distinct count. Another class divides on its own, and the
    /// clamp is once, at the end.
    #[test]
    fn a_class_divides_by_all_but_its_smallest_ndv() {
        let (a, b, c, d) = ((0, 10.0), (1, 1000.0), (2, 100.0), (3, 50.0));
        let want = 1e9 / 100.0 / 1000.0;
        assert_eq!(join_rows(1e9, [eq(a, b), eq(b, c)]), want);
        assert_eq!(join_rows(1e9, [eq(c, b), eq(b, a), eq(a, c)]), want);
        assert_eq!(
            join_rows(1e9, [eq(b, c), eq(d, (4, 40.0)), eq(a, b)]),
            want / 50.0
        );
        assert_eq!(join_rows(1e9, [eq(a, b), eq(b, c), Factor::Sel(1e-6)]), 1.0);
    }

    #[test]
    fn rel_rows_and_ndv() {
        let (mut ctx, cat, r) = setup();
        assert_eq!(rel_rows(&cat, &ctx, r), 1000.0);
        assert_eq!(col_ndv(&cat, &ctx, ColRef::new(r, 0)), 100.0);
        // A table the catalog does not know: 1000 rows, sqrt of them distinct.
        let schema = Arc::new(Schema::from_pairs(&[("x", DataType::Int)]));
        let ghost = ctx.add_base_rel("ghost", "ghost", schema, ctx.rel(r).block);
        assert_eq!(rel_rows(&cat, &ctx, ghost), 1000.0);
        assert_eq!(col_ndv(&cat, &ctx, ColRef::new(ghost, 0)), 1000f64.sqrt());
    }

    #[test]
    fn group_rows_caps_at_input() {
        let (ctx, cat, f) = setup();
        let card = Cardinality::new(&ctx, &cat);
        // 100 distinct keys over 1000 rows -> close to 100 groups.
        let g = card.group_rows(&[ColRef::new(f, 0)], 1000.0);
        assert!((90.0..=100.0).contains(&g), "{g}");
        // Tiny input: groups bounded by input.
        let g2 = card.group_rows(&[ColRef::new(f, 0)], 5.0);
        assert!(g2 <= 5.0);
        // No keys: scalar aggregate.
        assert_eq!(card.group_rows(&[], 1000.0), 1.0);
    }

    #[test]
    fn width_sums_types() {
        let (ctx, _, f) = setup();
        let cat = Catalog::new();
        let card = Cardinality::new(&ctx, &cat);
        let w = card.width_of(&[ColRef::new(f, 0), ColRef::new(f, 1)]);
        assert_eq!(w, 16.0);
    }
}
