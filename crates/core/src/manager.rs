//! The CSE manager (paper §2.2 / §3): a hash table from table signatures
//! to the memo groups carrying them, detection of potentially sharable
//! expression sets, and the memo's one "above/below" relation — ancestor
//! tests, least common ancestors (§5.2) and the competing relation
//! (Definition 5.2) all read the same bit matrix.

use cse_memo::{GroupId, Memo, TableSignature};
use std::collections::BTreeMap;

/// Signature hash table plus the ancestor relation of one memo state.
#[derive(Default)]
pub struct CseManager {
    /// signature -> groups with that signature (registration order).
    table: BTreeMap<TableSignature, Vec<GroupId>>,
    /// Upward reachability as a dense bit matrix, row-major, `words` words
    /// per row: bit `a` of row `g` is set iff group `a` is an ancestor of
    /// group `g` (inclusive). Rows and bits are indexed by `GroupId.0`.
    ancestors: Vec<u64>,
    words: usize,
}

impl CseManager {
    /// Scan the memo and register every signature-bearing group
    /// (signatures were computed incrementally at group creation — this
    /// pass just indexes them, mirroring Step 1 of the paper).
    pub fn build(memo: &Memo) -> Self {
        let mut table: BTreeMap<TableSignature, Vec<GroupId>> = BTreeMap::new();
        for g in memo.groups() {
            if let Some(sig) = &g.props.signature {
                // Single-table signatures can never produce a useful CSE
                // (the covering expression would be the table itself), and
                // delivery operators (root projections/sorts) are not
                // replaceable expressions in this IR — the group beneath
                // them is the consumer.
                let first = memo.gexpr(g.exprs[0]);
                let delivery = matches!(
                    first.op,
                    cse_memo::Op::Project { .. } | cse_memo::Op::Sort { .. } | cse_memo::Op::Batch
                );
                if sig.table_count() >= 2 && !delivery {
                    table.entry(sig.clone()).or_default().push(g.id);
                }
            }
        }
        let words = memo.num_groups().div_ceil(64);
        CseManager {
            table,
            ancestors: ancestor_matrix(memo, words),
            words,
        }
    }

    fn row(&self, g: GroupId) -> &[u64] {
        &self.ancestors[g.0 as usize * self.words..][..self.words]
    }

    /// Is `anc` an ancestor of `g` (or equal)? Groups the memo did not
    /// hold when the manager was built are related to nothing.
    pub fn is_ancestor(&self, anc: GroupId, g: GroupId) -> bool {
        let groups = self.words * 64;
        let (a, g) = (anc.0 as usize, g.0 as usize);
        a < groups
            && self
                .ancestors
                .get(g * self.words + a / 64)
                .is_some_and(|w| w >> (a % 64) & 1 == 1)
    }

    /// Groups registered under one signature.
    pub fn groups_of(&self, sig: &TableSignature) -> &[GroupId] {
        self.table.get(sig).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Potentially sharable sets (Step 2, first part): signatures with at
    /// least two *maximal* groups. A group is dropped when an ancestor
    /// with the same signature is also registered — e.g. `σ(C⋈O)` above
    /// `C⋈O` represents the same part of the query, and the wider
    /// expression is the real consumer.
    pub fn sharable_sets(&self) -> Vec<(TableSignature, Vec<GroupId>)> {
        let mut out = Vec::new();
        for (sig, groups) in &self.table {
            if groups.len() < 2 {
                continue;
            }
            let maximal: Vec<GroupId> = groups
                .iter()
                .copied()
                .filter(|&g| !groups.iter().any(|&a| a != g && self.is_ancestor(a, g)))
                .collect();
            if maximal.len() >= 2 {
                out.push((sig.clone(), maximal));
            }
        }
        out
    }

    /// The least common ancestor group of `consumers` (paper §5.2): the
    /// lowest group of which every consumer is a descendant, the smallest
    /// `GroupId` when several are lowest. `None` when the consumers span
    /// disconnected trees (e.g. a stacked CSE consumed from several spool
    /// definitions) — the optimizer then charges the initial cost at final
    /// assembly instead.
    pub fn least_common_ancestor(&self, consumers: &[GroupId]) -> Option<GroupId> {
        let (first, rest) = consumers.split_first()?;
        let mut common: Vec<u64> = self.row(*first).to_vec();
        for c in rest {
            for (w, r) in common.iter_mut().zip(self.row(*c)) {
                *w &= r;
            }
        }
        let members = || {
            common.iter().enumerate().flat_map(|(i, &w)| {
                (0..64)
                    .filter(move |b| w >> b & 1 == 1)
                    .map(move |b| GroupId((i * 64 + b) as u32))
            })
        };
        // Lowest: a common ancestor that is above no other common member.
        members()
            .find(|&x| !members().any(|y| y != x && self.is_ancestor(x, y)))
            .or_else(|| members().next())
    }

    /// Are two candidates competing (Definition 5.2)? Their LCAs lie on one
    /// ancestor path. Missing LCAs are conservatively treated as competing.
    pub fn competing(&self, lca_a: Option<GroupId>, lca_b: Option<GroupId>) -> bool {
        match (lca_a, lca_b) {
            (Some(a), Some(b)) => self.is_ancestor(a, b) || self.is_ancestor(b, a),
            _ => true,
        }
    }
}

/// The memo's groups in parents-before-children order (reverse post-order
/// over child edges): on an acyclic memo every group comes after all of its
/// parent groups.
pub(crate) fn parents_first(memo: &Memo) -> Vec<GroupId> {
    let n = memo.num_groups();
    let children = |g: GroupId| {
        memo.group(g)
            .exprs
            .iter()
            .flat_map(|&e| memo.gexpr(e).children.iter().copied())
    };
    let mut order: Vec<GroupId> = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for start in memo.groups().map(|g| g.id) {
        if std::mem::replace(&mut seen[start.0 as usize], true) {
            continue;
        }
        let mut stack = vec![(start, children(start))];
        while let Some((g, kids)) = stack.last_mut() {
            match kids.find(|c| !std::mem::replace(&mut seen[c.0 as usize], true)) {
                Some(c) => stack.push((c, children(c))),
                None => {
                    order.push(*g);
                    stack.pop();
                }
            }
        }
    }
    order.reverse();
    order
}

/// The ancestor matrix of `memo`, via reverse (parent) edges: a group's row
/// is itself plus the rows of its parent groups. Groups are swept in
/// [`parents_first`] order, so the first sweep already is the closure and
/// the second confirms it by changing nothing; the order only decides how
/// many sweeps run, never what they converge to.
fn ancestor_matrix(memo: &Memo, words: usize) -> Vec<u64> {
    let n = memo.num_groups();
    let order = parents_first(memo);

    let mut bits = vec![0u64; n * words];
    for g in 0..n {
        bits[g * words + g / 64] |= 1 << (g % 64);
    }
    let mut changed = true;
    while changed {
        changed = false;
        for &g in &order {
            let row = g.0 as usize * words;
            for &peid in &memo.group(g).parents {
                let parent = memo.group_of(peid).0 as usize * words;
                for w in 0..words {
                    let merged = bits[row + w] | bits[parent + w];
                    changed |= merged != bits[row + w];
                    bits[row + w] = merged;
                }
            }
        }
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_algebra::{LogicalPlan, PlanContext, Scalar};
    use cse_storage::{DataType, Schema};
    use std::sync::Arc;

    /// Two statements joining the same pair of tables with different
    /// filters — the canonical sharable situation.
    fn two_query_memo() -> Memo {
        let mut ctx = PlanContext::new();
        let schema = Arc::new(Schema::from_pairs(&[
            ("k", DataType::Int),
            ("v", DataType::Int),
        ]));
        let mk = |ctx: &mut PlanContext, lit: i64| {
            let b = ctx.new_block();
            let a = ctx.add_base_rel("ta", "ta", schema.clone(), b);
            let bb = ctx.add_base_rel("tb", "tb", schema.clone(), b);
            LogicalPlan::get(a)
                .filter(Scalar::cmp(
                    cse_algebra::CmpOp::Lt,
                    Scalar::col(a, 1),
                    Scalar::int(lit),
                ))
                .join(
                    LogicalPlan::get(bb),
                    Scalar::eq(Scalar::col(a, 0), Scalar::col(bb, 0)),
                )
        };
        let q1 = mk(&mut ctx, 10);
        let q2 = mk(&mut ctx, 20);
        let mut memo = Memo::new(ctx);
        memo.insert_plan(&LogicalPlan::Batch {
            children: vec![q1, q2],
        });
        memo
    }

    #[test]
    fn detects_sharable_join_pair() {
        let memo = two_query_memo();
        let mgr = CseManager::build(&memo);
        let sets = mgr.sharable_sets();
        assert_eq!(sets.len(), 1, "exactly the {{ta,tb}} signature: {sets:?}");
        let (sig, groups) = &sets[0];
        assert_eq!(sig.tables, vec!["ta", "tb"]);
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn single_table_signatures_excluded() {
        let memo = two_query_memo();
        let mgr = CseManager::build(&memo);
        for g in memo.groups() {
            let sig = g.props.signature.as_ref();
            if let Some(sig) = sig.filter(|s| s.table_count() < 2) {
                assert!(mgr.groups_of(sig).is_empty(), "{sig} must not register");
            }
        }
        assert!(mgr
            .sharable_sets()
            .iter()
            .all(|(s, _)| s.table_count() >= 2));
    }

    #[test]
    fn ancestors_reach_root() {
        let memo = two_query_memo();
        let mgr = CseManager::build(&memo);
        let root = memo.root();
        for g in memo.groups() {
            assert!(
                mgr.is_ancestor(root, g.id),
                "root must be ancestor of {}",
                g.id
            );
        }
        assert!(mgr.is_ancestor(root, root));
    }

    #[test]
    fn maximality_prunes_filter_wrappers() {
        // A single query where σ(A⋈B) sits above A⋈B: both carry the same
        // signature, but only one maximal consumer must remain per branch.
        let mut ctx = PlanContext::new();
        let schema = Arc::new(Schema::from_pairs(&[("k", DataType::Int)]));
        let b1 = ctx.new_block();
        let a1 = ctx.add_base_rel("ta", "ta", schema.clone(), b1);
        let b1b = ctx.add_base_rel("tb", "tb", schema.clone(), b1);
        let q1 = LogicalPlan::get(a1)
            .join(
                LogicalPlan::get(b1b),
                Scalar::eq(Scalar::col(a1, 0), Scalar::col(b1b, 0)),
            )
            // Filter ABOVE the join: same table signature as the join.
            .filter(Scalar::cmp(
                cse_algebra::CmpOp::Lt,
                Scalar::col(a1, 0),
                Scalar::int(5),
            ));
        let b2 = ctx.new_block();
        let a2 = ctx.add_base_rel("ta", "ta", schema.clone(), b2);
        let b2b = ctx.add_base_rel("tb", "tb", schema.clone(), b2);
        let q2 = LogicalPlan::get(a2).join(
            LogicalPlan::get(b2b),
            Scalar::eq(Scalar::col(a2, 0), Scalar::col(b2b, 0)),
        );
        let mut memo = Memo::new(ctx);
        memo.insert_plan(&LogicalPlan::Batch {
            children: vec![q1, q2],
        });
        let mgr = CseManager::build(&memo);
        let sets = mgr.sharable_sets();
        assert_eq!(sets.len(), 1);
        // Query 1 contributes only its maximal σ(A⋈B) group, query 2 its
        // join group: exactly two consumers.
        assert_eq!(sets[0].1.len(), 2);
    }

    /// The two join groups of [`two_query_memo`] and the batch root above
    /// them.
    fn two_joins_under_a_batch() -> (Memo, Vec<GroupId>, GroupId) {
        let memo = two_query_memo();
        let consumers = CseManager::build(&memo).sharable_sets().remove(0).1;
        let root = memo.root();
        (memo, consumers, root)
    }

    #[test]
    fn lca_of_cross_query_consumers_is_root() {
        let (memo, consumers, root) = two_joins_under_a_batch();
        let mgr = CseManager::build(&memo);
        assert_eq!(mgr.least_common_ancestor(&consumers), Some(root));
    }

    #[test]
    fn lca_of_single_consumer_is_itself() {
        let (memo, consumers, _) = two_joins_under_a_batch();
        let mgr = CseManager::build(&memo);
        assert_eq!(
            mgr.least_common_ancestor(&consumers[..1]),
            Some(consumers[0])
        );
        assert_eq!(mgr.least_common_ancestor(&[]), None);
    }

    #[test]
    fn lca_of_disconnected_trees_is_none() {
        // Two plans inserted side by side with no batch above them: the
        // shape of a stacked CSE consumed from several spool definitions.
        let mut ctx = PlanContext::new();
        let schema = Arc::new(Schema::from_pairs(&[("k", DataType::Int)]));
        let b = ctx.new_block();
        let a = ctx.add_base_rel("ta", "ta", schema.clone(), b);
        let t = ctx.add_base_rel("tb", "tb", schema.clone(), b);
        let mut memo = Memo::new(ctx);
        let g1 = memo.insert_plan(&LogicalPlan::get(a));
        let g2 = memo.insert_plan(&LogicalPlan::get(t));
        let mgr = CseManager::build(&memo);
        assert_eq!(mgr.least_common_ancestor(&[g1, g2]), None);
        assert!(mgr.competing(None, Some(g1)), "no LCA: competing");
    }

    #[test]
    fn lca_tie_between_two_lowest_members_takes_the_smaller_group() {
        // One shared scan under two joins that nothing joins back together:
        // both joins are lowest common ancestors of their two inputs'
        // shared part, and neither is above the other.
        let mut ctx = PlanContext::new();
        let schema = Arc::new(Schema::from_pairs(&[("k", DataType::Int)]));
        let b = ctx.new_block();
        let a = ctx.add_base_rel("ta", "ta", schema.clone(), b);
        let t = ctx.add_base_rel("tb", "tb", schema.clone(), b);
        let join = |col| {
            LogicalPlan::get(a).join(
                LogicalPlan::get(t),
                Scalar::cmp(cse_algebra::CmpOp::Lt, Scalar::col(a, 0), Scalar::int(col)),
            )
        };
        let mut memo = Memo::new(ctx);
        let j1 = memo.insert_plan(&join(1));
        let j2 = memo.insert_plan(&join(2));
        assert_ne!(j1, j2);
        let ga = memo.insert_plan(&LogicalPlan::get(a));
        let gt = memo.insert_plan(&LogicalPlan::get(t));
        let mgr = CseManager::build(&memo);
        assert!(!mgr.competing(Some(j1), Some(j2)));
        assert_eq!(mgr.least_common_ancestor(&[ga, gt]), Some(j1.min(j2)));
    }

    #[test]
    fn competing_on_same_path() {
        let (memo, consumers, root) = two_joins_under_a_batch();
        let mgr = CseManager::build(&memo);
        // root is an ancestor of consumer 0: competing.
        assert!(mgr.competing(Some(root), Some(consumers[0])));
        // The two join groups are unrelated: independent.
        assert!(!mgr.competing(Some(consumers[0]), Some(consumers[1])));
        // Unknown LCA: conservatively competing.
        assert!(mgr.competing(None, Some(consumers[0])));
    }
}
