//! Covering-subexpression construction (paper §4.2, the six steps).
//!
//! Given a set of aligned, join-compatible consumers:
//! 1. intersect equivalence classes → N-ary equijoin predicate;
//! 2. simplify each consumer's predicate by deleting conjuncts already in
//!    the join predicate, and those its other conjuncts imply
//!    (`cse_algebra::implied_by_siblings`, which qlint's redundant-conjunct
//!    rule reads too);
//! 3. OR the simplified predicates into a covering predicate (with
//!    factoring of common conjuncts and single-column range hulls, which is
//!    how the paper's E5 ends up with `o_orderdate < '1996-07-01' AND
//!    0 < c_nationkey < 25`);
//! 4. union group-by keys (+ covering-predicate columns) and aggregation
//!    expressions when aggregation is required;
//! 5. project exactly the columns consumers require;
//! 6. build the definition plan (the spool operator is implicit: the
//!    optimizer charges C_W/C_R and the executor materializes the work
//!    table).
//!
//! Steps 1–5 make a candidate's [`CseShape`], which is everything costing
//! reads; step 6 makes its plan. Algorithm 1 costs each merge trial from
//! its shape and builds a plan only for the candidate a round keeps, and
//! [`construct`] is the two in a row. A [`Construction`] holds what the
//! shape reads of each member of one compatible group — the step-2
//! predicate with its conjuncts and column ranges, and the columns the
//! member's ancestors require — so that a trial over any subset of the
//! group recomputes them only when its intersected classes differ from the
//! group's.

use crate::compat::PreparedConsumer;
use crate::required::{required_of, RequiredCols};
use cse_algebra::{
    classes_to_conjuncts, implied_by_siblings, implies, intersect_all, intersect_classes,
    ranges_of, AggExpr, Antecedent, CmpOp, ColRef, Interval, LogicalPlan, RelId, RelSet, Scalar,
};
use cse_memo::{AggInput, Memo};
use std::collections::{BTreeMap, BTreeSet};

/// Steps 1–5 of a covering subexpression over a member set: everything
/// costing reads, which is everything but the definition plan.
#[derive(Debug, Clone, PartialEq)]
pub struct CseShape {
    /// The anchor rels, which every member is aligned onto.
    pub rels: Vec<RelId>,
    /// Work-table column layout.
    pub output: Vec<ColRef>,
    /// Covering selection predicate (TRUE when consumers' predicates
    /// union to everything).
    pub covering: Scalar,
    /// The members' intersected equivalence classes (step 1).
    pub join_classes: Vec<BTreeSet<ColRef>>,
    /// Equijoin conjuncts from the intersected classes.
    pub join_conjuncts: Vec<Scalar>,
    /// Per-member simplified predicate (step 2), in member order.
    pub simplified: Vec<Scalar>,
    /// Group-by of the CSE, if aggregation is required.
    pub group: Option<(Vec<ColRef>, Vec<AggExpr>, RelId)>,
}

/// A constructed covering subexpression (pre-costing): its members, its
/// shape and the definition plan built from the shape.
#[derive(Debug, Clone)]
pub struct ConstructedCse {
    /// The consumers covered, in anchor space; `shape.simplified` is
    /// parallel to them.
    pub members: Vec<PreparedConsumer>,
    pub shape: CseShape,
    /// SPJG definition plan (anchor space), without the spool.
    pub plan: LogicalPlan,
}

/// Build the CSE covering `members` (≥1): its shape, then its plan.
/// Returns `None` when members mix grouped/ungrouped shapes (cannot happen
/// for same-signature sets) or no member survives normalization.
pub fn construct(
    memo: &mut Memo,
    members: Vec<PreparedConsumer>,
    required: &RequiredCols,
) -> Option<ConstructedCse> {
    let all: Vec<usize> = (0..members.len()).collect();
    let shape = Construction::new(&members, required).shape(memo, &all)?;
    let plan = shape.plan()?;
    Some(ConstructedCse {
        members,
        shape,
        plan,
    })
}

/// The members of one compatible group, with what construction reads of
/// each computed once: the step-2 branch under the group's intersected
/// classes, and the anchor-space columns the member's ancestors require.
pub struct Construction<'a> {
    members: &'a [PreparedConsumer],
    classes: Vec<BTreeSet<ColRef>>,
    branches: Vec<Branch>,
    needs: Vec<BTreeSet<ColRef>>,
}

impl<'a> Construction<'a> {
    pub fn new(members: &'a [PreparedConsumer], required: &RequiredCols) -> Self {
        let classes: Vec<_> = members.iter().map(|m| m.classes.clone()).collect();
        let classes = intersect_all(&classes);
        let branches = members.iter().map(|m| Branch::of(m, &classes)).collect();
        let needs = members
            .iter()
            .map(|m| {
                let need = required_of(required, m.group).into_iter();
                need.map(|c| m.alignment.col(c)).collect()
            })
            .collect();
        Construction {
            members,
            classes,
            branches,
            needs,
        }
    }

    pub fn members(&self) -> &'a [PreparedConsumer] {
        self.members
    }

    /// Steps 1–5 over the members at `set`, which become the shape's member
    /// order. `None` as for [`construct`].
    pub fn shape(&self, memo: &mut Memo, set: &[usize]) -> Option<CseShape> {
        let members: Vec<&PreparedConsumer> = set.iter().map(|&i| &self.members[i]).collect();
        let (first, rest) = members.split_first()?;
        let grouped = first.normal.has_group();
        if rest.iter().any(|m| m.normal.has_group() != grouped) {
            return None;
        }
        let rels: Vec<RelId> = first.normal.spj.rels.clone();
        let &anchor = rels.first()?;

        // Step 1: intersected equivalence classes → join conjuncts.
        let inter = rest.iter().fold(first.classes.clone(), |inter, m| {
            intersect_classes(&inter, &m.classes)
        });
        let join_conjuncts = classes_to_conjuncts(&inter);

        // Step 2: each member's predicate beyond the joins. The group's
        // branches hold it, unless this set's classes differ from the
        // group's (a member left out enforced fewer joins).
        let fresh: Vec<Branch>;
        let branches: Vec<&Branch> = if inter == self.classes {
            set.iter().map(|&i| &self.branches[i]).collect()
        } else {
            fresh = members.iter().map(|m| Branch::of(m, &inter)).collect();
            fresh.iter().collect()
        };

        // Step 3: covering predicate = OR of simplified predicates, factored
        // and range-merged. Steps 4 and 5 test every member conjunct
        // against it, so it is normalized once, as their antecedent.
        let cover = Antecedent::new(&covering_of(&branches));

        // Step 4: group-by. Beyond the union of consumer keys, only columns a
        // consumer's *compensation* predicate will re-filter on must survive
        // the group-by — conjuncts already guaranteed by the covering predicate
        // (e.g. a date filter common to every consumer) need no compensation,
        // which is why the paper's E5 groups only by (c_nationkey,
        // c_mktsegment) although its covering predicate also mentions
        // o_orderdate.
        let group = if grouped {
            let mut keys: Vec<ColRef> = Vec::new();
            let mut aggs: Vec<AggExpr> = Vec::new();
            for (m, b) in members.iter().zip(&branches) {
                let Some(g) = &m.normal.group else { continue };
                for c in g.keys.iter().copied().chain(b.compensation(&cover)) {
                    if !keys.contains(&c) {
                        keys.push(c);
                    }
                }
                for a in &g.aggs {
                    if !aggs.contains(a) {
                        aggs.push(a.clone());
                    }
                }
            }
            keys.sort();
            let block = memo.ctx.rel(anchor).block;
            // Reuse one synthetic rel per (rels, keys, aggs) shape: Algorithm
            // 1's trials revisit the same shapes many times.
            let out = memo.agg_out_for(AggInput::Rels(rels.clone()), &keys, &aggs, Some(block));
            Some((keys, aggs, out))
        } else {
            None
        };

        // Step 5: output columns.
        let output: Vec<ColRef> = match &group {
            Some((keys, aggs, out)) => {
                let mut cols = keys.clone();
                cols.extend((0..aggs.len()).map(|i| ColRef::new(*out, i as u16)));
                cols
            }
            None => {
                let mut cols: BTreeSet<ColRef> = BTreeSet::new();
                for (&i, b) in set.iter().zip(&branches) {
                    cols.extend(&self.needs[i]);
                    cols.extend(b.compensation(&cover));
                }
                // A consumer with no recorded requirements (shouldn't happen
                // for real roots) falls back to every column of every rel.
                if cols.is_empty() {
                    for &r in &rels {
                        let n = memo.ctx.rel(r).schema.len();
                        cols.extend((0..n).map(|i| ColRef::new(r, i as u16)));
                    }
                }
                cols.into_iter().collect()
            }
        };

        Some(CseShape {
            rels,
            output,
            covering: cover.into_predicate(),
            join_classes: inter,
            join_conjuncts,
            simplified: branches.iter().map(|b| b.simplified.clone()).collect(),
            group,
        })
    }

    /// The candidate over the members at `set` whose shape is `shape`:
    /// step 6, and the members themselves.
    pub fn build(&self, set: &[usize], shape: CseShape) -> Option<ConstructedCse> {
        let plan = shape.plan()?;
        let members = set.iter().map(|&i| self.members[i].clone()).collect();
        Some(ConstructedCse {
            members,
            shape,
            plan,
        })
    }
}

impl CseShape {
    /// Step 6: filtered leaves, connected join order, residual covering
    /// predicate on top, optional aggregate. `None` only without rels.
    pub fn plan(&self) -> Option<LogicalPlan> {
        let plan = build_join_plan(&self.rels, &self.join_conjuncts, &self.covering)?;
        Some(match &self.group {
            Some((keys, aggs, out)) => LogicalPlan::Aggregate {
                input: Box::new(plan),
                keys: keys.clone(),
                aggs: aggs.clone(),
                out: *out,
            },
            None => plan,
        })
    }
}

/// One member's step-2 predicate as step 3 reads it: a branch of the
/// covering disjunction, with its conjuncts and the column ranges they
/// bound.
struct Branch {
    simplified: Scalar,
    conjuncts: Vec<Scalar>,
    ranges: BTreeMap<ColRef, Interval>,
}

impl Branch {
    fn new(simplified: Scalar) -> Self {
        let conjuncts = simplified.conjuncts();
        let ranges = ranges_of(&conjuncts);
        Branch {
            simplified,
            conjuncts,
            ranges,
        }
    }

    /// The columns of the conjuncts `cover` does not imply: what the
    /// member's compensation predicate re-filters over the work table.
    fn compensation<'b>(&'b self, cover: &'b Antecedent) -> impl Iterator<Item = ColRef> + 'b {
        let conjuncts = self.conjuncts.iter();
        conjuncts
            .filter(|c| !cover.implies(c))
            .flat_map(Scalar::columns)
    }

    /// Step 2 for `m` under the join classes `classes`.
    fn of(m: &PreparedConsumer, classes: &[BTreeSet<ColRef>]) -> Self {
        Branch::new(beyond_joins(&m.normal.spj.conjuncts, classes))
    }
}

/// Do the equivalence classes put `a` and `b` in one class?
fn same_class(classes: &[BTreeSet<ColRef>], a: ColRef, b: ColRef) -> bool {
    classes.iter().any(|cl| cl.contains(&a) && cl.contains(&b))
}

/// Step 2: a consumer's predicate without the column equalities the
/// covering join (`join_classes`) already enforces, and without the
/// conjuncts its remaining ones imply.
fn beyond_joins(conjuncts: &[Scalar], join_classes: &[BTreeSet<ColRef>]) -> Scalar {
    let implied_by_join = |c: &Scalar| {
        c.as_col_eq_col()
            .is_some_and(|(a, b)| same_class(join_classes, a, b))
    };
    let rest: Vec<Scalar> = conjuncts
        .iter()
        .filter(|c| !implied_by_join(c))
        .cloned()
        .collect();
    let implied = implied_by_siblings(&rest);
    let kept = rest.into_iter().zip(implied).filter(|(_, i)| !i);
    Scalar::and(kept.map(|(c, _)| c)).normalize()
}

impl ConstructedCse {
    /// Can `consumer` (aligned onto this CSE's anchor rels) read the work
    /// table although the CSE was not constructed for it (§5.5)? It must
    /// enforce every join the spool applied, its predicate must imply the
    /// covering predicate, and a grouped CSE's keys and aggregates must
    /// subsume its own. Returns the consumer's simplified predicate
    /// (step 2), the entry `simplified` holds for a member.
    pub(crate) fn admit(&self, consumer: &PreparedConsumer) -> Option<Scalar> {
        let shape = &self.shape;
        let joins_enforced = shape.join_conjuncts.iter().all(|j| {
            j.as_col_eq_col()
                .is_some_and(|(a, b)| a == b || same_class(&consumer.classes, a, b))
        });
        if !joins_enforced || !implies(&consumer.normal.spj.predicate(), &shape.covering) {
            return None;
        }
        let subsumed = match (&shape.group, &consumer.normal.group) {
            (Some((keys, aggs, _)), Some(g)) => {
                g.keys.iter().all(|k| keys.contains(k)) && g.aggs.iter().all(|a| aggs.contains(a))
            }
            (None, None) => true,
            _ => false,
        };
        subsumed.then(|| beyond_joins(&consumer.normal.spj.conjuncts, &shape.join_classes))
    }
}

/// OR of the simplified predicates with two equivalence-preserving /
/// sound-weakening rewrites:
/// - conjuncts present in every branch are factored out of the OR;
/// - per column, if every branch constrains it with ranges, the OR of the
///   branches implies the per-column interval hull, which is added as an
///   extra conjunct (and branches that become fully represented drop out).
pub fn simplify_covering(simplified: &[Scalar]) -> Scalar {
    let branches: Vec<Branch> = simplified.iter().cloned().map(Branch::new).collect();
    covering_of(&branches.iter().collect::<Vec<_>>()).normalize()
}

/// [`simplify_covering`] over prepared branches, not yet normalized.
fn covering_of(branches: &[&Branch]) -> Scalar {
    if branches.iter().any(|b| b.simplified.is_true()) {
        return Scalar::true_();
    }
    let Some((first, rest)) = branches.split_first() else {
        return Scalar::false_();
    };
    // Factor common conjuncts.
    let mut common: Vec<&Scalar> = first.conjuncts.iter().collect();
    for b in rest {
        common.retain(|c| b.conjuncts.contains(c));
    }
    let residual_branches: Vec<Vec<&Scalar>> = branches
        .iter()
        .map(|b| b.conjuncts.iter().filter(|c| !common.contains(c)).collect())
        .collect();
    let residual_or = || {
        let branches = residual_branches.iter();
        Scalar::or(branches.map(|b| Scalar::and(b.iter().map(|&c| c.clone()))))
    };

    let mut top_conjuncts: Vec<Scalar> = common.iter().map(|&c| c.clone()).collect();
    if residual_branches.iter().any(|b| b.is_empty()) {
        // Some branch imposes nothing beyond the common part: the OR of the
        // residuals is TRUE.
        return Scalar::and(top_conjuncts);
    }

    // Single-column range hull: if every residual branch constrains a
    // common set of columns with ranges only, replace the OR by per-column
    // hulls (this is exactly how the paper's E5 covering predicate looks).
    let range_only = residual_branches.iter().all(|b| {
        b.iter()
            .all(|c| c.as_col_vs_lit().is_some_and(|(_, op, _)| op != CmpOp::Ne))
    });
    if range_only {
        let branch_cols: Vec<BTreeSet<ColRef>> = residual_branches
            .iter()
            .map(|b| {
                b.iter()
                    .filter_map(|c| c.as_col_vs_lit().map(|(col, _, _)| col))
                    .collect()
            })
            .collect();
        let mut cols: BTreeSet<ColRef> = branch_cols.first().cloned().unwrap_or_default();
        for bc in branch_cols.iter().skip(1) {
            cols = cols.intersection(bc).copied().collect();
        }
        // Hull per column constrained in every branch. A branch that lost
        // nothing to factoring reads the ranges it was prepared with.
        let mut hull_conjuncts: Vec<Scalar> = Vec::new();
        let mut incomparable = false;
        let residual_ranges: Vec<BTreeMap<ColRef, Interval>>;
        let branch_ranges: Vec<&BTreeMap<ColRef, Interval>> = if common.is_empty() {
            branches.iter().map(|b| &b.ranges).collect()
        } else {
            let residual = residual_branches.iter();
            residual_ranges = residual.map(|b| ranges_of(b.iter().copied())).collect();
            residual_ranges.iter().collect()
        };
        let open = Interval::default();
        for col in &cols {
            let ivs: Vec<&Interval> = branch_ranges
                .iter()
                .map(|r| r.get(col).unwrap_or(&open))
                .collect();
            // An incomparable side stays open and the OR of the branches is
            // kept below: no single literal bounds a DATE and a STRING.
            let (hull, comparable) = Interval::hull(&ivs);
            incomparable |= !comparable;
            if let Some((v, inc)) = hull.lo {
                hull_conjuncts.push(Scalar::cmp(
                    if inc { CmpOp::Ge } else { CmpOp::Gt },
                    Scalar::Col(*col),
                    Scalar::Lit(v),
                ));
            }
            if let Some((v, inc)) = hull.hi {
                hull_conjuncts.push(Scalar::cmp(
                    if inc { CmpOp::Le } else { CmpOp::Lt },
                    Scalar::Col(*col),
                    Scalar::Lit(v),
                ));
            }
        }
        // The hull is sound for any branch shape; it is *exact* (no
        // residual OR needed) when each branch constrains exactly one
        // column and that column is shared — the common workload shape.
        let exact = branch_cols
            .iter()
            .all(|bc| bc.len() == 1 && cols.iter().any(|c| bc.contains(c)))
            && cols.len() == 1
            && !incomparable;
        top_conjuncts.extend(hull_conjuncts);
        if !exact {
            top_conjuncts.push(residual_or());
        }
        return Scalar::and(top_conjuncts);
    }

    top_conjuncts.push(residual_or());
    Scalar::and(top_conjuncts)
}

/// Build a left-deep, connected join tree over `rels`: single-rel covering
/// conjuncts become leaf filters, join conjuncts attach at the lowest
/// covering join, multi-rel covering residue lands in a top filter.
pub fn build_join_plan(
    rels: &[RelId],
    join_conjuncts: &[Scalar],
    covering: &Scalar,
) -> Option<LogicalPlan> {
    let mut remaining: Vec<Scalar> = join_conjuncts.to_vec();
    remaining.extend(covering.conjuncts());
    // Greedy connected order.
    let mut order: Vec<RelId> = vec![*rels.first()?];
    let mut left: Vec<RelId> = rels[1..].to_vec();
    while !left.is_empty() {
        let covered = RelSet::from_iter(order.iter().copied());
        let next = left
            .iter()
            .position(|r| {
                remaining.iter().any(|c| {
                    let cr = c.rels();
                    cr.contains(*r) && !cr.intersect(covered).is_empty()
                })
            })
            .unwrap_or(0); // disconnected: cross join the first leftover
        order.push(left.remove(next));
    }
    let mut plan: Option<LogicalPlan> = None;
    let mut covered = RelSet::EMPTY;
    for r in order {
        let leaf_set = RelSet::single(r);
        let local: Vec<Scalar> = take_covered(&mut remaining, leaf_set);
        let mut leaf = LogicalPlan::get(r);
        if !local.is_empty() {
            leaf = leaf.filter(Scalar::and(local));
        }
        covered = covered.union(leaf_set);
        plan = Some(match plan {
            None => leaf,
            Some(p) => {
                let join_pred: Vec<Scalar> = take_covered(&mut remaining, covered);
                p.join(leaf, Scalar::and(join_pred).normalize())
            }
        });
    }
    let mut plan = plan?;
    if !remaining.is_empty() {
        plan = plan.filter(Scalar::and(remaining));
    }
    Some(plan)
}

fn take_covered(remaining: &mut Vec<Scalar>, set: RelSet) -> Vec<Scalar> {
    let mut out = Vec::new();
    remaining.retain(|c| {
        let r = c.rels();
        if !r.is_empty() && r.is_subset(set) {
            out.push(c.clone());
            false
        } else {
            true
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_storage::Value;

    fn col(r: u32, c: u16) -> Scalar {
        Scalar::col(RelId(r), c)
    }

    #[test]
    fn covering_factors_common_and_merges_ranges() {
        // Example 1's shape: shared o_orderdate conjunct, disjoint
        // c_nationkey ranges (0,20), (5,25), (2,24) → hull (0,25).
        let date = Scalar::cmp(CmpOp::Lt, col(1, 4), Scalar::int(9678));
        let b1 = Scalar::and([
            date.clone(),
            Scalar::cmp(CmpOp::Gt, col(0, 3), Scalar::int(0)),
            Scalar::cmp(CmpOp::Lt, col(0, 3), Scalar::int(20)),
        ]);
        let b2 = Scalar::and([
            date.clone(),
            Scalar::cmp(CmpOp::Gt, col(0, 3), Scalar::int(5)),
            Scalar::cmp(CmpOp::Lt, col(0, 3), Scalar::int(25)),
        ]);
        let b3 = Scalar::and([
            date.clone(),
            Scalar::cmp(CmpOp::Gt, col(0, 3), Scalar::int(2)),
            Scalar::cmp(CmpOp::Lt, col(0, 3), Scalar::int(24)),
        ]);
        let branches = vec![b1.normalize(), b2.normalize(), b3.normalize()];
        let cov = simplify_covering(&branches);
        // Must contain the common date conjunct + hull, no OR.
        let cs = cov.conjuncts();
        assert_eq!(cs.len(), 3, "covering = date ∧ hull-lo ∧ hull-hi: {cov}");
        for b in &branches {
            assert!(implies(b, &cov), "{b} must imply {cov}");
        }
        // And the hull is (0, 25).
        let ranges = cse_algebra::column_ranges(&cov);
        let iv = &ranges[&cse_algebra::ColRef::new(RelId(0), 3)];
        assert_eq!(iv.lo.as_ref().unwrap().0, cse_storage::Value::Int(0));
        assert_eq!(iv.hi.as_ref().unwrap().0, cse_storage::Value::Int(25));
    }

    #[test]
    fn hull_never_spans_comparison_classes() {
        // ROADMAP 1a: Q1 cuts o_orderdate at a DATE, its sibling at a string
        // that is not a date. No literal bounds both: the column stays open
        // on that side and the OR keeps each branch's own cut, so rows Q1
        // accepts still pass the covering predicate.
        let by_date = Scalar::cmp(CmpOp::Lt, col(1, 4), Scalar::Lit(Value::Date(9678)));
        let by_text = Scalar::cmp(CmpOp::Lt, col(1, 4), Scalar::Lit(Value::str("1996-13-26")));
        let branches = vec![by_date.normalize(), by_text.normalize()];
        let cov = simplify_covering(&branches);
        assert!(
            matches!(cov, Scalar::Or(_)),
            "covering must stay an OR: {cov}"
        );
        assert!(cse_algebra::column_ranges(&cov).is_empty());
        for b in &branches {
            assert!(implies(b, &cov), "{b} must imply {cov}");
        }
        assert!(!implies(&cov, &branches[0]), "Q1 must keep its own cut");
        // Comparable sides still merge: a shared DATE lower bound is hulled
        // while the mixed upper bound keeps the OR.
        let since = |d| Scalar::cmp(CmpOp::Ge, col(1, 4), Scalar::Lit(Value::Date(d)));
        let cov = simplify_covering(&[
            Scalar::and([since(9000), by_date.clone()]).normalize(),
            Scalar::and([since(9100), by_text.clone()]).normalize(),
        ]);
        let iv = &cse_algebra::column_ranges(&cov)[&ColRef::new(RelId(1), 4)];
        assert_eq!(iv.lo, Some((Value::Date(9000), true)));
        assert_eq!(iv.hi, None);
        assert!(cov.conjuncts().iter().any(|c| matches!(c, Scalar::Or(_))));
    }

    #[test]
    fn covering_with_true_branch_is_true() {
        let b1 = Scalar::true_();
        let b2 = Scalar::cmp(CmpOp::Lt, col(0, 0), Scalar::int(5));
        assert!(simplify_covering(&[b1, b2]).is_true());
    }

    #[test]
    fn covering_keeps_or_when_not_mergeable() {
        // Branches on different columns: hull is sound but inexact, the OR
        // must remain.
        let b1 = Scalar::cmp(CmpOp::Lt, col(0, 0), Scalar::int(5)).normalize();
        let b2 = Scalar::cmp(CmpOp::Gt, col(0, 1), Scalar::int(7)).normalize();
        let cov = simplify_covering(&[b1.clone(), b2.clone()]);
        assert!(implies(&b1, &cov));
        assert!(implies(&b2, &cov));
        assert!(!cov.is_true());
    }

    #[test]
    fn join_plan_is_connected() {
        let rels = vec![RelId(0), RelId(1), RelId(2)];
        let joins = vec![
            Scalar::eq(col(0, 0), col(1, 0)).normalize(),
            Scalar::eq(col(1, 1), col(2, 0)).normalize(),
        ];
        let plan = build_join_plan(&rels, &joins, &Scalar::true_()).unwrap();
        // No cross joins: every Join node's predicate is non-trivial.
        fn check(p: &LogicalPlan) {
            if let LogicalPlan::Join { left, right, pred } = p {
                assert!(!pred.is_true(), "cross join generated");
                check(left);
                check(right);
            }
        }
        check(&plan);
        assert_eq!(plan.rels().len(), 3);
    }
}
