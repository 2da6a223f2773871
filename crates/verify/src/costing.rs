//! Pass 5: costing sanity.
//!
//! The CSE phase reuses the normal optimization phase's per-group winner
//! costs as the paper's cost bounds (§4.3.3: the H1 worthwhileness test
//! and the C_E lower bound of each candidate both trust them). This pass
//! checks each claimed cost against a freshly recomputed winner cost —
//! every cost must be finite, nonnegative, and no greater than the true
//! winner cost of its group — plus end-to-end monotonicity: the final plan
//! never costs more than the baseline (the pipeline takes the min).
//!
//! Candidate-level cost fields (C_W, C_R, C_E lower bound, cardinality and
//! width estimates) are validated by [`crate::verify_candidates`] with the
//! same `costing/*` rules.

use crate::diag::rules;
use cse_diag::Report;
use cse_memo::GroupId;

/// Relative + absolute slack for float comparisons: re-deriving a cost on
/// a (possibly further explored) memo may differ in the last ulps.
const EPS: f64 = 1e-6;

/// Inputs of the costing audit.
#[derive(Debug, Clone, Default)]
pub struct CostAudit {
    /// By `GroupId`: the cost candidate generation read, and the freshly
    /// recomputed baseline (no-CSE) winner cost.
    pub costs: Vec<(f64, f64)>,
    /// Baseline plan cost (no CSEs).
    pub baseline_cost: f64,
    /// Final chosen plan cost.
    pub final_cost: f64,
}

/// Run the costing audit.
pub fn verify_costs(a: &CostAudit) -> Report {
    let mut report = Report::new();
    for (g, &(bound, winner)) in (0..).zip(&a.costs) {
        let path = GroupId(g).to_string();
        if !bound.is_finite() {
            report.error(
                rules::COSTING_NONFINITE,
                &path,
                format!("lower bound {bound} is not finite"),
            );
            continue;
        }
        if bound < 0.0 {
            report.error(
                rules::COSTING_NEGATIVE,
                &path,
                format!("lower bound {bound} is negative"),
            );
        }
        if winner.is_finite() && bound > winner * (1.0 + EPS) + EPS {
            report.error(
                rules::COSTING_BOUND_EXCEEDS_WINNER,
                &path,
                format!("lower bound {bound} exceeds recomputed winner cost {winner}"),
            );
        }
    }
    for (name, v) in [
        ("baseline_cost", a.baseline_cost),
        ("final_cost", a.final_cost),
    ] {
        if !v.is_finite() {
            report.error(
                rules::COSTING_NONFINITE,
                "plan",
                format!("{name} = {v} is not finite"),
            );
        } else if v < 0.0 {
            report.error(
                rules::COSTING_NEGATIVE,
                "plan",
                format!("{name} = {v} is negative"),
            );
        }
    }
    if a.final_cost.is_finite()
        && a.baseline_cost.is_finite()
        && a.final_cost > a.baseline_cost * (1.0 + EPS) + EPS
    {
        report.error(
            rules::COSTING_BOUND_EXCEEDS_WINNER,
            "plan",
            format!(
                "final cost {} exceeds baseline cost {}",
                a.final_cost, a.baseline_cost
            ),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_costs_are_clean() {
        let audit = CostAudit {
            costs: vec![(10.0, 10.0), (20.0, 25.0)],
            baseline_cost: 100.0,
            final_cost: 80.0,
        };
        let report = verify_costs(&audit);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn bound_above_winner_fires() {
        let audit = CostAudit {
            costs: vec![(50.0, 10.0)],
            baseline_cost: 100.0,
            final_cost: 100.0,
        };
        let report = verify_costs(&audit);
        assert_eq!(
            report.fired_rules().into_iter().collect::<Vec<_>>(),
            vec![rules::COSTING_BOUND_EXCEEDS_WINNER]
        );
    }
}
