//! Pass 6: downgrade audit. When the CSE phase trips (or the request
//! starts on the baseline rung), the pipeline promises a *genuine*
//! baseline plan: no covering-subexpression operators anywhere. This pass
//! mechanically checks that promise on the final physical plan — a
//! half-degraded hybrid (a `CseRead` with no spool, or a spool nobody
//! reads after the consumers were rewritten away) would silently return
//! wrong answers or leak work.

use crate::diag::rules;
use cse_diag::Report;
use cse_optimizer::{FullPlan, PhysicalPlan};

/// Verify that `plan` is a valid baseline plan: no `CseRead` operators in
/// any statement and no retained spool definitions. Run by the pipeline
/// whenever a plan came off the baseline rung.
pub fn verify_downgrade(plan: &FullPlan) -> Report {
    let mut report = Report::new();
    plan.root.visit(&mut |p| {
        if let PhysicalPlan::CseRead { cse, .. } = p {
            report.error(
                rules::DOWNGRADE_COVERING_OP_IN_BASELINE,
                format!("plan/{cse}"),
                format!("baseline plan contains CseRead {cse}"),
            );
        }
    });
    for id in plan.spools.keys() {
        report.error(
            rules::DOWNGRADE_SPOOL_RETAINED,
            format!("spool/{id}"),
            format!("baseline plan retains spool definition {id}"),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_algebra::{ColRef, RelId};
    use cse_optimizer::{CseId, SpoolDef};
    use std::collections::BTreeMap;

    fn scan() -> PhysicalPlan {
        PhysicalPlan::TableScan {
            rel: RelId(0),
            layout: vec![ColRef::new(RelId(0), 0)],
        }
    }

    #[test]
    fn clean_baseline_plan_passes() {
        let plan = FullPlan {
            root: scan(),
            spools: BTreeMap::new(),
            cost: 1.0,
        };
        assert!(verify_downgrade(&plan).is_clean());
    }

    #[test]
    fn covering_operators_are_flagged() {
        let read = PhysicalPlan::CseRead {
            cse: CseId(0),
            filter: None,
            reagg: None,
            output_map: vec![],
            layout: vec![],
        };
        let plan = FullPlan {
            root: read,
            spools: BTreeMap::from([(
                CseId(0),
                SpoolDef {
                    plan: scan(),
                    layout: vec![ColRef::new(RelId(0), 0)],
                    est_rows: 1.0,
                },
            )]),
            cost: 1.0,
        };
        let report = verify_downgrade(&plan);
        assert_eq!(report.error_count(), 2);
        assert!(report
            .fired_rules()
            .contains(rules::DOWNGRADE_COVERING_OP_IN_BASELINE));
        assert!(report
            .fired_rules()
            .contains(rules::DOWNGRADE_SPOOL_RETAINED));
    }
}
