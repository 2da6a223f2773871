//! Required-column analysis over the memo.
//!
//! For every group, which of its output columns do its ancestors actually
//! reference? The covering subexpression only needs to materialize the
//! union of its consumers' required columns (step 5 of the construction in
//! §4.2: "all columns and expressions that are required to compute the
//! result of a potential consumer") — and this is what makes Heuristic 2
//! bite on `SELECT *` consumers.

use crate::manager::parents_first;
use cse_algebra::{ColRef, Scalar};
use cse_memo::{GroupId, Memo, Op};

/// Columns of `memo`'s output that some ancestor references, per group:
/// one bitset row per group over a dense numbering of every column of
/// every rel instance (rel `r`'s column `c` is bit `first[r] + c`).
#[derive(Debug, Clone, Default)]
pub struct RequiredCols {
    /// Dense index of each rel's column 0; one entry more than rels.
    first: Vec<usize>,
    /// The column each dense index stands for.
    cols: Vec<ColRef>,
    /// Words per group row.
    words: usize,
    /// `need[g * words..][..words]`: group g's required columns.
    need: Vec<u64>,
    /// Groups some reached parent (or a root) asked for anything.
    reached: Vec<bool>,
}

impl RequiredCols {
    /// The columns group `g` must provide, ascending; none for a group the
    /// roots never reach (or that did not exist when they were computed).
    pub fn cols(&self, g: GroupId) -> impl Iterator<Item = ColRef> + '_ {
        let g = g.0 as usize;
        let row = match self.reached.get(g) {
            Some(true) => &self.need[g * self.words..][..self.words],
            _ => &[],
        };
        row.iter().enumerate().flat_map(move |(w, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                let b = bits.trailing_zeros() as usize;
                (bits != 0).then(|| {
                    bits &= bits - 1;
                    self.cols[w * 64 + b]
                })
            })
        })
    }

    /// The groups the roots reach, ascending.
    pub fn groups(&self) -> impl Iterator<Item = GroupId> + '_ {
        let reached = self.reached.iter().enumerate().filter(|(_, &r)| r);
        reached.map(|(g, _)| GroupId(g as u32))
    }

    /// Column `c`'s bit, if its rel has such a column.
    fn bit(&self, c: ColRef) -> Option<usize> {
        let r = c.rel.0 as usize;
        let at = self.first.get(r)? + c.col as usize;
        (at < *self.first.get(r + 1)?).then_some(at)
    }

    fn set(&self, row: &mut [u64], c: ColRef) {
        if let Some(b) = self.bit(c) {
            row[b / 64] |= 1 << (b % 64);
        }
    }
}

/// Compute required columns for every group reachable from `roots`: the
/// least fixpoint of "a child must provide what its parent expression
/// references plus what the parent itself must pass up". One sweep in
/// parents-before-children order over bitset rows reaches it; a child that
/// grows after its own turn (possible only if the memo had a cycle) asks
/// for another sweep.
pub fn compute_required(memo: &Memo, roots: &[GroupId]) -> RequiredCols {
    let mut first = vec![0];
    let mut cols = Vec::new();
    for (r, info) in memo.ctx.rels() {
        cols.extend((0..info.schema.len()).map(|c| ColRef::new(r, c as u16)));
        first.push(cols.len());
    }
    let words = cols.len().div_ceil(64).max(1);
    let n = memo.num_groups();
    let mut req = RequiredCols {
        first,
        cols,
        words,
        need: vec![0; n * words],
        reached: vec![false; n],
    };
    // Every group's output columns, one row each.
    let mut out = vec![0u64; n * words];
    for g in memo.groups() {
        let row = &mut out[g.id.0 as usize * words..][..words];
        g.props.output_cols.iter().for_each(|&c| req.set(row, c));
    }
    // Roots (statement outputs) require all their output columns.
    for &r in roots {
        let r = r.0 as usize;
        req.reached[r] = true;
        req.need[r * words..][..words].copy_from_slice(&out[r * words..][..words]);
    }
    let order = parents_first(memo);
    let mut done = vec![false; n];
    let mut wanted = vec![0u64; words];
    let mut stale = true;
    while std::mem::take(&mut stale) {
        done.fill(false);
        for &g in &order {
            let g = g.0 as usize;
            done[g] = true;
            if !req.reached[g] {
                continue;
            }
            for &eid in &memo.group(GroupId(g as u32)).exprs {
                let e = memo.gexpr(eid);
                // What the parents need passed up plus the columns this
                // operator itself consumes from its children.
                wanted.copy_from_slice(&req.need[g * words..][..words]);
                e.op.for_each_scalar(&mut |s: &Scalar| {
                    s.visit(&mut |n| {
                        if let Scalar::Col(c) = n {
                            req.set(&mut wanted, *c);
                        }
                    })
                });
                match &e.op {
                    Op::Filter { pred } | Op::Join { pred } => {
                        let cols = pred.iter().flat_map(|&c| &memo.conj(c).cols);
                        cols.for_each(|&c| req.set(&mut wanted, c));
                    }
                    Op::Aggregate { keys, .. } => {
                        keys.iter().for_each(|&c| req.set(&mut wanted, c))
                    }
                    _ => {}
                }
                // Batch children are statement roots: they require all
                // their outputs (results are delivered in full).
                let batch = matches!(e.op, Op::Batch);
                for &c in &e.children {
                    let c = c.0 as usize;
                    let (have, out) = (&mut req.need[c * words..][..words], &out[c * words..]);
                    let mut grew = !req.reached[c];
                    for ((h, &o), &w) in have.iter_mut().zip(out).zip(&wanted) {
                        let ask = if batch { o } else { w & o };
                        grew |= ask & !*h != 0;
                        *h |= ask;
                    }
                    req.reached[c] = true;
                    stale |= grew && done[c];
                }
            }
        }
    }
    #[cfg(test)]
    reference::assert_equal(memo, roots, &req);
    req
}

/// The sorted-vector fixpoint the bitset pass replaced, kept as its
/// reference: every [`compute_required`] of a test build is checked
/// against it on the same memo and roots.
#[cfg(test)]
mod reference {
    use super::*;
    use std::collections::{BTreeSet, HashMap};

    pub(super) fn assert_equal(memo: &Memo, roots: &[GroupId], got: &RequiredCols) {
        let got: HashMap<GroupId, BTreeSet<ColRef>> =
            got.groups().map(|g| (g, got.cols(g).collect())).collect();
        assert_eq!(got, compute(memo, roots), "roots {roots:?}");
    }

    fn compute(memo: &Memo, roots: &[GroupId]) -> HashMap<GroupId, BTreeSet<ColRef>> {
        let sorted = |mut cols: Vec<ColRef>| {
            cols.sort_unstable();
            cols.dedup();
            cols
        };
        let outputs: Vec<Vec<ColRef>> = memo
            .groups()
            .map(|g| sorted(g.props.output_cols.clone()))
            .collect();
        let mut need: Vec<Option<Vec<ColRef>>> = vec![None; outputs.len()];
        for &r in roots {
            need[r.0 as usize] = Some(outputs[r.0 as usize].clone());
        }
        let order = parents_first(memo);
        let mut done = vec![false; outputs.len()];
        let mut stale = true;
        while std::mem::take(&mut stale) {
            done.fill(false);
            for &g in &order {
                done[g.0 as usize] = true;
                let Some(req_g) = need[g.0 as usize].clone() else {
                    continue;
                };
                for &eid in &memo.group(g).exprs {
                    let e = memo.gexpr(eid);
                    let mut wanted = req_g.clone();
                    e.op.for_each_scalar(&mut |s: &Scalar| {
                        s.visit(&mut |n| {
                            if let Scalar::Col(c) = n {
                                wanted.push(*c);
                            }
                        })
                    });
                    match &e.op {
                        Op::Filter { pred } | Op::Join { pred } => {
                            wanted.extend(pred.iter().flat_map(|&c| &memo.conj(c).cols));
                        }
                        Op::Aggregate { keys, .. } => wanted.extend_from_slice(keys),
                        _ => {}
                    }
                    let wanted = sorted(wanted);
                    for &c in &e.children {
                        let out = &outputs[c.0 as usize];
                        let ask: Vec<ColRef> = if matches!(e.op, Op::Batch) {
                            out.clone()
                        } else {
                            let has = |col: &&ColRef| out.binary_search(col).is_ok();
                            wanted.iter().filter(has).copied().collect()
                        };
                        let have = &mut need[c.0 as usize];
                        let known =
                            |h: &Vec<ColRef>| ask.iter().all(|col| h.binary_search(col).is_ok());
                        if !have.as_ref().is_some_and(known) {
                            let have = have.get_or_insert_with(Vec::new);
                            have.extend(ask);
                            *have = sorted(std::mem::take(have));
                            stale |= done[c.0 as usize];
                        }
                    }
                }
            }
        }
        let reached = need.into_iter().enumerate();
        reached
            .filter_map(|(g, cols)| Some((GroupId(g as u32), cols?.into_iter().collect())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_algebra::{AggExpr, LogicalPlan, PlanContext, Scalar};
    use cse_storage::{DataType, Schema};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    /// `r ⋈ s` on column 0, grouped by `r`'s column 1, summing `s`'s last
    /// column; both rels have `width` columns.
    fn build(width: usize) -> (Memo, GroupId, cse_algebra::RelId, cse_algebra::RelId) {
        let mut ctx = PlanContext::new();
        let blk = ctx.new_block();
        let names: Vec<String> = (0..width).map(|i| format!("c{i}")).collect();
        let cols: Vec<(&str, DataType)> =
            names.iter().map(|n| (n.as_str(), DataType::Int)).collect();
        let schema = Arc::new(Schema::from_pairs(&cols));
        let r = ctx.add_base_rel("r", "r", schema.clone(), blk);
        let s = ctx.add_base_rel("s", "s", schema, blk);
        let out = ctx.add_agg_output(&[DataType::Int], blk);
        let join = LogicalPlan::get(r).join(
            LogicalPlan::get(s),
            Scalar::eq(Scalar::col(r, 0), Scalar::col(s, 0)),
        );
        let plan = LogicalPlan::Aggregate {
            input: Box::new(join),
            keys: vec![cse_algebra::ColRef::new(r, 1)],
            aggs: vec![AggExpr::sum(Scalar::col(s, width as u16 - 1))],
            out,
        }
        .project(vec![("total".into(), Scalar::col(out, 0))]);
        let mut memo = Memo::new(ctx);
        let root = memo.insert_plan(&plan);
        (memo, root, r, s)
    }

    #[test]
    fn join_group_requires_only_referenced_columns() {
        let (memo, root, r, s) = build(3);
        let req = compute_required(&memo, &[root]);
        // Find the join group (rels = {r,s}, no group flag).
        let join_group = memo
            .groups()
            .find(|g| {
                g.props.rels.len() == 2
                    && g.props.signature.as_ref().is_some_and(|sig| !sig.grouped)
            })
            .unwrap();
        let need: BTreeSet<ColRef> = req.cols(join_group.id).collect();
        // Required: r.a (join key via agg input? no: join key), r.b (group
        // key), s.a (join key), s.c (agg arg). NOT r.c, s.b.
        assert!(need.contains(&cse_algebra::ColRef::new(r, 1)));
        assert!(need.contains(&cse_algebra::ColRef::new(s, 2)));
        assert!(!need.contains(&cse_algebra::ColRef::new(r, 2)));
        assert!(!need.contains(&cse_algebra::ColRef::new(s, 1)));
    }

    #[test]
    fn leaf_requirements_subset_of_schema() {
        let (memo, root, r, _) = build(3);
        let req = compute_required(&memo, &[root]);
        let get_group = memo
            .groups()
            .find(|g| g.props.rels == cse_algebra::RelSet::single(r))
            .unwrap();
        let need: BTreeSet<ColRef> = req.cols(get_group.id).collect();
        assert!(!need.is_empty());
        assert!(need.iter().all(|c| c.rel == r));
    }

    /// Rows that span words: 81 columns in all, so `s`'s are bits 40–79
    /// and its summed column sits in the second word. The reference check
    /// inside `compute_required` runs on the explored memo too.
    #[test]
    fn rows_span_several_words() {
        let (mut memo, root, r, s) = build(40);
        let req = compute_required(&memo, &[root]);
        let join_group = memo.groups().find(|g| g.props.rels.len() == 2).unwrap();
        let need: Vec<ColRef> = req.cols(join_group.id).collect();
        assert_eq!(need, [ColRef::new(r, 1), ColRef::new(s, 39)]);
        let s_scan = memo
            .groups()
            .find(|g| g.props.rels == cse_algebra::RelSet::single(s));
        let need: Vec<ColRef> = req.cols(s_scan.unwrap().id).collect();
        assert_eq!(need, [ColRef::new(s, 0), ColRef::new(s, 39)]);
        cse_memo::explore(&mut memo, &cse_memo::ExploreConfig::default());
        compute_required(&memo, &[root]);
    }

    /// The bitset pass equals the sorted-vector reference (checked inside
    /// every `compute_required` of a test build) over the explored and the
    /// grown memo of every paper batch, with the roots the pipeline passes.
    #[test]
    fn bitset_pass_equals_the_reference_on_the_paper_batches() {
        use cse_bench::workloads;
        let catalog = cse_tpch::generate_catalog(&cse_tpch::TpchConfig::new(0.01));
        let mut batches = vec![
            workloads::table1_batch(),
            workloads::table2_batch(),
            workloads::NESTED.to_string(),
            workloads::complex_join_batch(),
        ];
        batches.extend((2..=10).map(workloads::scaleup_batch));
        for sql in batches {
            let cfg = crate::CseConfig::default();
            let optimized = crate::optimize_sql(&catalog, &sql, &cfg).unwrap();
            let stages = optimized.report.stages.iter().map(|(s, _)| *s);
            let passes: Vec<&str> = stages.filter(|s| s.starts_with("required")).collect();
            assert_eq!(passes, ["required", "required-grown"], "{sql}");
        }
    }
}
