//! Structured diagnostics: every verifier pass reports violations through
//! these types so callers (pipeline, CLI, bench report, tests) can filter
//! by rule and severity instead of parsing strings.
//!
//! The carrier types (`Severity`, `Diagnostic`, `Report`) live in the
//! shared `cse-diag` crate so the frontend linter (`cse-lint`) can emit the
//! same shape; this module keeps the verifier's own rule-id catalogue (the
//! `lint/…` namespace belongs to `cse-lint`).

/// Stable rule identifiers, one per invariant. Grouped by pass family.
pub mod rules {
    /// A referenced column is not produced by any child of the expression.
    pub const PROVENANCE_UNAVAILABLE_COLUMN: &str = "provenance/unavailable-column";
    /// `Project`/`Sort`/`Batch` found somewhere other than a statement root.
    pub const PROVENANCE_ROOT_ONLY_OP: &str = "provenance/root-only-op";
    /// An aggregate output column referenced where the aggregate's result
    /// is not in scope (e.g. below the aggregate that defines it).
    pub const PROVENANCE_AGG_OUT_LEAK: &str = "provenance/agg-out-leak";
    /// Incrementally maintained table signature differs from the signature
    /// recomputed bottom-up from scratch (paper §3, Fig. 2).
    pub const SIGNATURE_MISMATCH: &str = "signature/mismatch";
    /// The intersected equijoin graph of a CSE's members is not connected
    /// (paper §4.1, Thm. 1).
    pub const COMPAT_DISCONNECTED: &str = "compat/disconnected";
    /// The compositional fast path (paper §4.1, Example 3) applied to the
    /// recorded join conjuncts disagrees with the direct re-derivation.
    pub const COMPAT_FASTPATH_DIVERGENCE: &str = "compat/fastpath-divergence";
    /// A recorded join conjunct is not entailed by the intersection of the
    /// members' equivalence classes (the spool would join more than every
    /// consumer allows).
    pub const COMPAT_OVERCLAIMED_JOIN: &str = "compat/overclaimed-join";
    /// A member's predicate (under the covering joins) does not imply the
    /// covering predicate (paper §4.2, step 3).
    pub const COVERING_PRED_NOT_IMPLIED: &str = "covering/pred-not-implied";
    /// A member's group-by keys are not a subset of the union group-by.
    pub const COVERING_KEYS_NOT_SUBSET: &str = "covering/keys-not-subset";
    /// A member's aggregates are not a subset of the union aggregates.
    pub const COVERING_AGGS_NOT_SUBSET: &str = "covering/aggs-not-subset";
    /// A column a consumer requires is missing from the covering projection.
    pub const COVERING_MISSING_OUTPUT: &str = "covering/missing-output";
    /// A cost, estimate or bound is NaN or infinite.
    pub const COSTING_NONFINITE: &str = "costing/nonfinite";
    /// A cost, estimate or bound is negative.
    pub const COSTING_NEGATIVE: &str = "costing/negative";
    /// A normal-phase lower bound exceeds the freshly recomputed winner
    /// cost of its group (or the final cost exceeds the baseline).
    pub const COSTING_BOUND_EXCEEDS_WINNER: &str = "costing/bound-exceeds-winner";
    /// A plan produced under a tripped (or forced) optimization budget
    /// still contains a covering operator (`CseRead`).
    pub const DOWNGRADE_COVERING_OP_IN_BASELINE: &str = "downgrade/covering-op-in-baseline";
    /// A plan produced under a tripped budget retains spool definitions
    /// (or a redundant baseline copy) it can never use.
    pub const DOWNGRADE_SPOOL_RETAINED: &str = "downgrade/spool-retained";
    /// A materialized view is registered with no backing table in the
    /// catalog (e.g. left behind by a partial mutation sequence).
    pub const CATALOG_VIEW_MISSING_TABLE: &str = "catalog/view-missing-table";
    /// Table statistics disagree with the table they describe (row count
    /// or column coverage), so the cost model would reason from fiction.
    pub const CATALOG_STATS_DRIFT: &str = "catalog/stats-drift";
    /// An index references columns outside the schema or fails to cover a
    /// row of its table — reads through it would silently miss data.
    pub const CATALOG_INDEX_STALE: &str = "catalog/index-stale";

    /// Every rule the verifier can emit, for documentation and tooling.
    pub const ALL: &[&str] = &[
        PROVENANCE_UNAVAILABLE_COLUMN,
        PROVENANCE_ROOT_ONLY_OP,
        PROVENANCE_AGG_OUT_LEAK,
        SIGNATURE_MISMATCH,
        COMPAT_DISCONNECTED,
        COMPAT_FASTPATH_DIVERGENCE,
        COMPAT_OVERCLAIMED_JOIN,
        COVERING_PRED_NOT_IMPLIED,
        COVERING_KEYS_NOT_SUBSET,
        COVERING_AGGS_NOT_SUBSET,
        COVERING_MISSING_OUTPUT,
        COSTING_NONFINITE,
        COSTING_NEGATIVE,
        COSTING_BOUND_EXCEEDS_WINNER,
        DOWNGRADE_COVERING_OP_IN_BASELINE,
        DOWNGRADE_SPOOL_RETAINED,
        CATALOG_VIEW_MISSING_TABLE,
        CATALOG_STATS_DRIFT,
        CATALOG_INDEX_STALE,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_diag::Report;
    use std::collections::BTreeSet;

    #[test]
    fn report_accumulates_and_renders() {
        let mut r = Report::new();
        assert!(r.is_clean());
        r.error(rules::SIGNATURE_MISMATCH, "G3", "stored != recomputed");
        r.warn(rules::COSTING_NEGATIVE, "cse#0", "cw = -1");
        let mut other = Report::new();
        other.error(rules::COMPAT_DISCONNECTED, "cse#1", "graph split");
        r.merge(other);
        assert_eq!(r.diagnostics.len(), 3);
        assert_eq!(r.error_count(), 2);
        assert!(r.fired_rules().contains(rules::COMPAT_DISCONNECTED));
        let text = r.render();
        assert!(text.contains("signature/mismatch"));
        assert!(text.contains("G3"));
    }

    #[test]
    fn all_rules_are_unique() {
        let set: BTreeSet<_> = rules::ALL.iter().collect();
        assert_eq!(set.len(), rules::ALL.len());
    }
}
