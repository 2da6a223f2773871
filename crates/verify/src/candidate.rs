//! Passes 3 & 4: compatibility and covering audits of constructed CSEs.
//!
//! The pipeline adapts each `CostedCandidate` (cse-core) into a
//! [`CandidateAudit`] — a self-contained record in anchor space built from
//! algebra/memo types only — so this crate stays below `cse-core` in the
//! dependency graph and adversarial tests can corrupt audits directly.
//!
//! **Compatibility (paper §4.1, Thm. 1):** the members of a CSE must have a
//! *connected* intersected equijoin graph. The pass re-derives the
//! intersection from the members' equivalence classes, checks connectivity
//! directly, checks the compositional fast path (Example 3) applied to the
//! recorded join conjuncts agrees with the direct derivation, and checks
//! every recorded join conjunct is actually entailed by the intersection
//! (an overclaimed join would make the spool drop rows some consumer
//! needs).
//!
//! **Covering (paper §4.2):** under the covering joins, each member's
//! simplified predicate must imply the covering predicate (checked with the
//! conservative prover in `cse_algebra::implication`); a member's group-by
//! keys/aggregates must be subsumed by the union group-by (steps 4); and
//! every column a matched member requires — plus the columns of its
//! compensation predicate — must be served by the covering projection
//! (step 5).

use crate::diag::rules;
use cse_algebra::{
    classes_to_conjuncts, derive_compatibility_compositional, implies, intersect_all, is_connected,
    AggExpr, ColRef, EquivClasses, RelSet, Scalar,
};
use cse_diag::Report;
use cse_memo::GroupId;
use std::collections::BTreeSet;

/// One consumer of a candidate, in anchor space.
#[derive(Debug, Clone)]
pub struct MemberAudit {
    /// The consumer's memo group (for diagnostics).
    pub group: GroupId,
    /// Equivalence classes of the member's predicate (anchor space).
    pub classes: Vec<BTreeSet<ColRef>>,
    /// Simplified predicate: conjuncts beyond the covering joins (§4.2
    /// step 2), anchor space.
    pub simplified: Scalar,
    /// Group-by keys (anchor space; empty when the member is ungrouped).
    pub keys: Vec<ColRef>,
    /// Aggregates (anchor space; empty when ungrouped).
    pub aggs: Vec<AggExpr>,
    /// Columns the member's ancestors require, restricted to the CSE's base
    /// rels and mapped into anchor space.
    pub required: BTreeSet<ColRef>,
    /// Did view matching actually produce a substitute for this member?
    /// Projection coverage is only enforced for matched members — unmatched
    /// ones are dropped by the pipeline and never rewritten.
    pub matched: bool,
}

/// A constructed CSE prepared for auditing.
#[derive(Debug, Clone)]
pub struct CandidateAudit {
    /// Candidate index (for diagnostics paths: `cse#id`).
    pub id: u32,
    /// The anchor-space rel set the CSE joins.
    pub rel_set: RelSet,
    /// Work-table column layout (the covering projection).
    pub output: Vec<ColRef>,
    /// Covering selection predicate (§4.2 step 3).
    pub covering: Scalar,
    /// Recorded equijoin conjuncts from the intersected classes (step 1).
    pub join_conjuncts: Vec<Scalar>,
    /// Union group-by keys/aggregates (step 4); `None` when ungrouped.
    pub keys: Option<Vec<ColRef>>,
    pub aggs: Option<Vec<AggExpr>>,
    /// Cardinality/width estimates and the three §5.2 cost components.
    pub est_rows: f64,
    pub est_width: f64,
    pub cw: f64,
    pub cr: f64,
    pub ce_lower: f64,
    pub members: Vec<MemberAudit>,
}

/// Run the compatibility + covering audits (and candidate-level costing
/// sanity) over a batch of candidates.
pub fn verify_candidates(audits: &[CandidateAudit]) -> Report {
    let mut report = Report::new();
    for a in audits {
        verify_compatibility(a, &mut report);
        verify_covering(a, &mut report);
        verify_candidate_costs(a, &mut report);
    }
    report
}

fn verify_compatibility(a: &CandidateAudit, report: &mut Report) {
    if a.members.is_empty() {
        return;
    }
    let path = format!("cse#{}", a.id);
    // Direct re-derivation: intersect the members' classes, check the
    // equijoin graph over the CSE's rels is connected (Thm. 1).
    let collections: Vec<Vec<BTreeSet<ColRef>>> =
        a.members.iter().map(|m| m.classes.clone()).collect();
    let inter = intersect_all(&collections);
    let direct = is_connected(a.rel_set, &inter);
    if !direct {
        report.error(
            rules::COMPAT_DISCONNECTED,
            &path,
            format!(
                "intersected equijoin graph over {} rel(s) is not connected \
                 ({} shared class(es))",
                a.rel_set.len(),
                inter.len()
            ),
        );
    }
    // Compositional fast path (Example 3) applied to the *recorded* join
    // conjuncts: each conjunct class contributes its connected rel set; the
    // derivation must agree with the direct method.
    let claimed_classes = EquivClasses::from_conjuncts(&a.join_conjuncts).classes();
    let evidence: Vec<RelSet> = claimed_classes
        .iter()
        .map(|cl| RelSet::from_iter(cl.iter().map(|c| c.rel)))
        .collect();
    let fast = derive_compatibility_compositional(a.rel_set, &evidence);
    if fast != direct {
        report.error(
            rules::COMPAT_FASTPATH_DIVERGENCE,
            &path,
            format!(
                "compositional fast path over recorded join conjuncts says \
                 {} but direct re-derivation says {}",
                if fast { "compatible" } else { "unknown" },
                if direct { "connected" } else { "disconnected" },
            ),
        );
    }
    // Every recorded join conjunct must be entailed by the intersection —
    // the spool applies these joins for *all* consumers.
    let inter_ec = EquivClasses::from_conjuncts(&classes_to_conjuncts(&inter));
    for j in &a.join_conjuncts {
        match j.as_col_eq_col() {
            Some((x, y)) if inter_ec.are_equal(x, y) => {}
            Some((x, y)) => report.error(
                rules::COMPAT_OVERCLAIMED_JOIN,
                &path,
                format!(
                    "join conjunct {x} = {y} is not entailed by the members' \
                     intersected equivalence classes"
                ),
            ),
            None => report.error(
                rules::COMPAT_OVERCLAIMED_JOIN,
                &path,
                format!("recorded join conjunct `{j}` is not an equijoin"),
            ),
        }
    }
}

fn verify_covering(a: &CandidateAudit, report: &mut Report) {
    let out: BTreeSet<ColRef> = a.output.iter().copied().collect();
    for (mi, m) in a.members.iter().enumerate() {
        let path = format!("cse#{}/member[{mi}]", a.id);
        // Effective member predicate in spool space: the covering joins are
        // applied by the spool, so the implication to check is
        // joins ∧ simplified ⇒ covering (§4.2 step 3).
        let effective = Scalar::and(
            a.join_conjuncts
                .iter()
                .cloned()
                .chain(std::iter::once(m.simplified.clone())),
        )
        .normalize();
        if !implies(&effective, &a.covering) {
            report.error(
                rules::COVERING_PRED_NOT_IMPLIED,
                &path,
                format!(
                    "member predicate `{}` (with covering joins) does not \
                     imply covering predicate `{}`",
                    m.simplified, a.covering
                ),
            );
        }
        // Group-by subsumption (§4.2 step 4).
        match (&a.keys, &a.aggs) {
            (Some(keys), aggs) => {
                for k in &m.keys {
                    if !keys.contains(k) {
                        report.error(
                            rules::COVERING_KEYS_NOT_SUBSET,
                            &path,
                            format!("member group-by key {k} missing from union keys"),
                        );
                    }
                }
                let union_aggs = aggs.as_deref().unwrap_or(&[]);
                for agg in &m.aggs {
                    if !union_aggs.contains(agg) {
                        report.error(
                            rules::COVERING_AGGS_NOT_SUBSET,
                            &path,
                            format!("member aggregate `{agg}` missing from union aggregates"),
                        );
                    }
                }
            }
            (None, _) => {
                if !m.keys.is_empty() || !m.aggs.is_empty() {
                    report.error(
                        rules::COVERING_KEYS_NOT_SUBSET,
                        &path,
                        "grouped member covered by an ungrouped candidate",
                    );
                }
            }
        }
        if !m.matched {
            continue;
        }
        // Projection coverage (§4.2 step 5): required columns of ungrouped
        // members, and compensation-predicate columns of every matched
        // member, must be in the work-table layout.
        if a.keys.is_none() {
            for c in &m.required {
                if a.rel_set.contains(c.rel) && !out.contains(c) {
                    report.error(
                        rules::COVERING_MISSING_OUTPUT,
                        &path,
                        format!("required column {c} missing from covering projection"),
                    );
                }
            }
        }
        for conj in m.simplified.conjuncts() {
            if implies(&a.covering, &conj) {
                // Guaranteed by the spool contents: no compensation needed.
                continue;
            }
            for c in conj.columns() {
                if !out.contains(&c) {
                    report.error(
                        rules::COVERING_MISSING_OUTPUT,
                        &path,
                        format!(
                            "compensation predicate `{conj}` references {c}, \
                             which the covering projection does not provide"
                        ),
                    );
                }
            }
        }
    }
}

fn verify_candidate_costs(a: &CandidateAudit, report: &mut Report) {
    let path = format!("cse#{}", a.id);
    for (name, v) in [
        ("est_rows", a.est_rows),
        ("est_width", a.est_width),
        ("cw", a.cw),
        ("cr", a.cr),
        ("ce_lower", a.ce_lower),
    ] {
        if !v.is_finite() {
            report.error(
                rules::COSTING_NONFINITE,
                &path,
                format!("{name} = {v} is not finite"),
            );
        } else if v < 0.0 {
            report.error(
                rules::COSTING_NEGATIVE,
                &path,
                format!("{name} = {v} is negative"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_algebra::RelId;

    fn cr(r: u32, c: u16) -> ColRef {
        ColRef::new(RelId(r), c)
    }

    fn base_audit() -> CandidateAudit {
        // Two members over {R,S}, both joining on R.0 = S.0.
        let class: BTreeSet<ColRef> = [cr(0, 0), cr(1, 0)].into_iter().collect();
        let join = Scalar::eq(Scalar::Col(cr(0, 0)), Scalar::Col(cr(1, 0))).normalize();
        let member = |g: u32| MemberAudit {
            group: GroupId(g),
            classes: vec![class.clone()],
            simplified: Scalar::true_(),
            keys: vec![],
            aggs: vec![],
            required: [cr(0, 1)].into_iter().collect(),
            matched: true,
        };
        CandidateAudit {
            id: 0,
            rel_set: RelSet::from_iter([RelId(0), RelId(1)]),
            output: vec![cr(0, 1)],
            covering: Scalar::true_(),
            join_conjuncts: vec![join],
            keys: None,
            aggs: None,
            est_rows: 100.0,
            est_width: 8.0,
            cw: 10.0,
            cr: 5.0,
            ce_lower: 50.0,
            members: vec![member(10), member(11)],
        }
    }

    #[test]
    fn healthy_candidate_is_clean() {
        let report = verify_candidates(&[base_audit()]);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn negative_cost_fires() {
        let mut a = base_audit();
        a.cw = -1.0;
        let report = verify_candidates(&[a]);
        assert_eq!(
            report.fired_rules().into_iter().collect::<Vec<_>>(),
            vec![rules::COSTING_NEGATIVE]
        );
    }
}
