//! The end-to-end optimization pipeline (the paper's Figure 1):
//!
//! 1. lower SQL → logical plan → memo; explore; table signatures are
//!    collected incrementally (Step 1);
//! 2. normal optimization (baseline plan + per-group winner costs);
//! 3. unless the request starts on the baseline rung, and if the CSE
//!    manager finds sharable signatures: generate candidate CSEs (Step 2)
//!    with heuristics H1–H4, including a second detection round over the
//!    candidate definitions themselves (stacked CSEs, §5.5);
//! 4. resume optimization with candidate sets enabled (Step 3, §5.3) and
//!    return the cheapest plan.
//!
//! Steps 3 and 4 are the CSE phase. It runs at most once per request,
//! under one budget clock; a budget trip or a panic returns the baseline
//! plan of step 2 with one degradation event.
//!
//! Every fact is derived once per memo state and handed down. The explored
//! memo yields, once per request, the baseline winners' costs
//! ([`PhaseCtx::costs`]), the required columns and a [`CseManager`] with its
//! sharable sets (detection, H4); the CSE phase then takes that memo and
//! grows it in place with the candidate definitions, and the grown memo
//! yields the second and last manager (stacked consumers, LCAs,
//! enumeration), its required columns and the Step 3 optimizer, which
//! resumes from the baseline optimizer's join shapes and winners (§5.4).

use crate::candidates::{extend_with_stacked_consumers, generate, CostedCandidate};
use crate::config::{CandidateSummary, CseConfig, CseReport, PhaseCtx};
use crate::enumerate::choose_best;
use crate::manager::CseManager;
use crate::required::{compute_required, RequiredCols};
use crate::view_match::build_substitutes;
use cse_algebra::{classes_to_conjuncts, ColRef, LogicalPlan, PlanContext, RelSet};
use cse_diag::Report as VerifyReport;
use cse_govern::{panic_message, sites, BudgetTrip, DegradationEvent, Reason, Rung};
use cse_memo::{explore, explore_from, GroupId, Memo};
use cse_optimizer::{CseCandidate, CseId, FullPlan, History, Optimizer, Substitute};
use cse_storage::Catalog;
use cse_verify::{CandidateAudit, CostAudit, MemberAudit};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Candidates registered with the optimizer at most: its CSE mask is 64
/// bits wide.
const CANDIDATE_KEEP: usize = 60;

/// Optimization output: executable plan, context for the executor, report.
pub struct Optimized {
    pub plan: FullPlan,
    pub ctx: PlanContext,
    pub report: CseReport,
}

/// Optimize a SQL batch end to end: lower it, then [`optimize_plan`].
pub fn optimize_sql(catalog: &Catalog, sql: &str, cfg: &CseConfig) -> Result<Optimized, String> {
    let (ctx, plan) = cse_sql::lower_batch_sql(catalog, sql)?;
    optimize_plan(catalog, ctx, plan, cfg)
}

/// What a request has recorded besides its plan: the report handed back to
/// the caller and, under [`CseConfig::verify`], the verifier's diagnostics
/// and the pass-5 input. The CSE phase works on a copy and hands it back
/// only on success, so a tripped or panicked phase leaves no candidates,
/// spools or costs in it.
#[derive(Clone, Default)]
struct Findings {
    report: CseReport,
    vreport: VerifyReport,
    cost_audit: Option<CostAudit>,
}

/// Optimize an already-lowered logical plan.
pub fn optimize_plan(
    catalog: &Catalog,
    ctx: PlanContext,
    plan: LogicalPlan,
    cfg: &CseConfig,
) -> Result<Optimized, String> {
    let t_start = Instant::now();
    cfg.cancel.check("pipeline/entry").map_err(abort_message)?;
    let mut memo = Memo::new(ctx);
    let root = memo.insert_plan(&plan);
    memo.set_root(root);
    explore(&mut memo, &cfg.explore);
    // Every stage is timed from its own start, so an entry reads that
    // stage's cost and nothing before it.
    let mut stages = vec![("insert+explore", t_start.elapsed())];
    cfg.cancel
        .check("pipeline/explored")
        .map_err(abort_message)?;
    // The explored memo is only read until the CSE phase takes it.
    let memo = memo;

    // Pass 1+2 of the verifier: provenance + signature audit over the
    // explored query memo.
    let mut vreport = VerifyReport::new();
    if cfg.verify {
        vreport.merge(cse_verify::verify_memo(&memo, &[root]));
    }

    // Normal optimization phases: the baseline plan, and memoized mask-0
    // winners the CSE phase reads its per-group costs from.
    let t_baseline = Instant::now();
    let mut normal = Optimizer::new(&memo, catalog);
    let baseline = normal.optimize_full(root, 0);
    let baseline_time = t_start.elapsed();
    stages.push(("baseline", t_baseline.elapsed()));
    cfg.cancel
        .check("pipeline/baseline")
        .map_err(abort_message)?;
    let mut found = Findings {
        report: CseReport {
            baseline_cost: baseline.cost,
            final_cost: baseline.cost,
            baseline_time,
            total_time: baseline_time,
            group_optimizations: normal.group_optimizations,
            stages,
            ..Default::default()
        },
        vreport,
        cost_audit: None,
    };

    // A request that starts on the baseline rung derives no CSE fact at all.
    let ctx = memo.ctx.clone();
    if cfg.start_rung == Rung::Baseline {
        found.report.rung = Rung::Baseline;
        return finish(baseline, ctx, found, cfg.verify);
    }

    let panicked = |payload: Box<dyn std::any::Any + Send>| {
        DegradationEvent::new(
            Reason::OptPanic,
            "cse-phase",
            panic_message(payload.as_ref()),
        )
    };
    // Facts of the explored memo the CSE phase reads. Detection comes first
    // (Step 1/2: the signature table, the ancestor relation and the
    // sharable sets): a phase with nothing sharable reads no other fact, so
    // a batch without a sharable signature skips them, unless the cost
    // audit reads the costs. Each group's cost is its winner under the
    // empty CSE set (normal-phase history, §5.4/§4.3), which the baseline
    // optimization above already memoized. A group that exploration left
    // unreachable from the root is costed here for the first time, so the
    // reads sit under a panic net like the phase itself.
    let facts = catch_unwind(AssertUnwindSafe(|| {
        let t = Instant::now();
        let manager = CseManager::build(&memo);
        found.report.stages.push(("manager-explored", t.elapsed()));
        let sharable = manager.sharable_sets();
        let (mut costs, mut required) = (Vec::new(), Default::default());
        if !sharable.is_empty() || cfg.verify {
            let t = Instant::now();
            let winners = memo.groups().map(|g| normal.optimize_group(g.id, 0).cost);
            costs = winners.collect();
            found.report.stages.push(("bounds", t.elapsed()));
            let t = Instant::now();
            required = compute_required(&memo, &[root]);
            found.report.stages.push(("required", t.elapsed()));
        }
        (costs, required, manager, sharable)
    }));
    // Step 3 resumes from its join shapes and winners (§5.4).
    found.report.group_optimizations = normal.group_optimizations;
    let history = normal.into_history();
    cfg.cancel.check("pipeline/bounds").map_err(abort_message)?;

    // The CSE phase runs once, under one clock, and grows the explored memo
    // in place. If the budget trips or the phase panics, the request keeps
    // the baseline plan above — it owns its trees, so the grown memo is
    // simply dropped — and records one event; cancellation aborts instead.
    //
    // Unwind-safety audit (re-asserted when `CancelToken` landed): the
    // closure consumes the memo, the normal phase's history and a copy of
    // the findings (all dropped on unwind), borrows read-only state (the
    // catalog and the facts above), and touches
    // write-once-atomic state (the token's cancel flag; the failpoint
    // registry's mutex recovers poisoning via `into_inner`). No
    // partially-mutated structure outlives a panicking phase (the guarded
    // read above mutates only `normal`, whose history the phase reads only
    // if that read returned, and appends whole stage entries), so
    // `AssertUnwindSafe` holds.
    let t = Instant::now();
    let (facts, outcome) = match facts {
        Err(payload) => (None, Err(panicked(payload))),
        Ok(facts) => {
            let (costs, required, manager, sharable) = &facts;
            found.report.sharable_signatures = sharable.len();
            let clock = cfg.budget.start_with(&cfg.cancel);
            let phase = PhaseCtx {
                cfg,
                catalog,
                clock: &clock,
                costs,
                required,
                manager,
                sharable,
            };
            let copy = found.clone();
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                cse_phase(memo, &phase, root, history, copy)
            }));
            let outcome = match attempt {
                Ok(Ok((plan, done))) => {
                    found = done;
                    Ok(plan)
                }
                // A canceled request must stop, not fall back.
                Ok(Err(trip)) if trip.reason.is_cancellation() => {
                    return Err(abort_message(trip));
                }
                Ok(Err(trip)) => Err(trip.event()),
                Err(payload) => Err(panicked(payload)),
            };
            (Some(facts), outcome)
        }
    };
    let shared = match outcome {
        Ok(plan) => plan.filter(|p| p.cost < baseline.cost),
        Err(event) => {
            // The phase's own stages went with its findings copy.
            found.report.stages.push(("tripped-rung", t.elapsed()));
            found.report.degradations.push(event);
            found.report.rung = Rung::Baseline;
            None
        }
    };

    let final_plan = shared.unwrap_or(baseline);
    found.report.final_cost = final_plan.cost;
    found.report.spools_used = final_plan.spools.len();
    found.report.total_time = t_start.elapsed();

    let mut done = finish(final_plan, ctx, found, cfg.verify);
    let t = Instant::now();
    drop(facts);
    if let Ok(optimized) = &mut done {
        optimized.report.stages.push(("teardown", t.elapsed()));
    }
    done
}

/// Error text for a cancellation abort. The stable reason code leads so
/// callers (and humans) can distinguish `REQ_CANCELED` / `REQ_DEADLINE`
/// aborts from genuine planning failures.
pub(crate) fn abort_message(trip: BudgetTrip) -> String {
    format!(
        "[{}] optimization aborted at {}: {}",
        trip.reason.code(),
        trip.stage,
        trip.detail
    )
}

/// The CSE phase (Steps 2 + 3) under the request's started budget clock,
/// growing the explored memo in place; Step 3 resumes from the normal
/// phase's `history`. Returns the best plan found with
/// candidates enabled (`None` when no candidate survived; the caller keeps
/// the baseline unless the plan beats it) with the findings extended by
/// the phase, or the budget trip that aborted it.
fn cse_phase(
    mut memo: Memo,
    ctx: &PhaseCtx,
    root: GroupId,
    history: History,
    mut found: Findings,
) -> Result<(Option<FullPlan>, Findings), BudgetTrip> {
    let Some(step3) = register(&mut memo, ctx, root, &mut found)? else {
        return Ok((None, found));
    };
    // Step 3: resume optimization with candidates enabled.
    let mut opt = Optimizer::resume(&memo, ctx.catalog, history);
    opt.register_candidates(step3.candidates, step3.substitutes);
    let t = Instant::now();
    let outcome = choose_best(&mut opt, &step3.mgr, root, ctx.clock)?;
    found.report.stages.push(("enumeration", t.elapsed()));
    found.report.cse_optimizations = outcome.optimizations;
    found.report.group_optimizations += opt.group_optimizations;
    // The plan owns its trees; the grown memo and every winner go here.
    let t = Instant::now();
    drop(opt);
    drop((step3.mgr, memo));
    found.report.stages.push(("rung-teardown", t.elapsed()));
    Ok((Some(outcome.plan), found))
}

/// What Step 3 optimizes with over the grown memo: its manager and the
/// candidates with their substitutes.
struct Step3 {
    mgr: CseManager,
    candidates: Vec<CseCandidate>,
    substitutes: Vec<Substitute>,
}

/// Step 2 of the CSE phase: generate candidates, insert their definitions
/// into the memo and register the ones with two matchable consumers.
/// `None` when no candidate survives.
#[expect(
    clippy::panic,
    reason = "deliberate failpoint panic exercising catch_unwind isolation; registry disarmed outside fault-injection tests"
)]
fn register(
    memo: &mut Memo,
    ctx: &PhaseCtx,
    root: GroupId,
    found: &mut Findings,
) -> Result<Option<Step3>, BudgetTrip> {
    let (cfg, clock) = (ctx.cfg, ctx.clock);
    clock.check_time("cse-phase")?;
    if cfg.failpoints.should_fail(sites::OPT_CSE_PHASE) {
        // The optimizer-side failpoint panics on purpose: it exercises the
        // `catch_unwind` isolation of the phase, not the trip path.
        panic!("injected failpoint: {}", sites::OPT_CSE_PHASE);
    }

    // Pass 5 setup: pair each group's claimed cost with its winner
    // recomputed independently on the memo state it was read from (later
    // exploration may legitimately find cheaper plans, which would make a
    // fresh winner undercut a cost that was correct when recorded).
    if cfg.verify {
        let mut opt = Optimizer::new(memo, ctx.catalog);
        let costs = ctx.costs.iter().zip(memo.groups());
        found.cost_audit = Some(CostAudit {
            costs: costs
                .map(|(&c, g)| (c, opt.optimize_group(g.id, 0).cost))
                .collect(),
            ..Default::default()
        });
    }
    if ctx.sharable.is_empty() {
        return Ok(None);
    }

    // Step 2: candidate generation (phase A) over the sharable sets the
    // request detected. Construction allocates aggregate-output rels and
    // the definitions are inserted below, growing the explored memo; the
    // explored manager stays valid through generation because construction
    // adds no groups.
    let t = Instant::now();
    let candidates = generate(memo, ctx, root, &mut found.report.trials)?;
    found.report.stages.push(("generation", t.elapsed()));
    if candidates.is_empty() {
        return Ok(None);
    }

    // Register definitions in the memo for costing. The explored memo is at
    // its fixpoint, so exploration resumes at the definitions: the query's
    // groups gain an alternative only where a definition adds one.
    let t = Instant::now();
    let explored_to = memo.num_gexprs();
    let mut registered: Vec<(CostedCandidate, GroupId)> = candidates
        .into_iter()
        .map(|c| {
            let def_root = memo.insert_plan(&c.cse.plan);
            (c, def_root)
        })
        .collect();
    explore_from(memo, &cfg.explore, explored_to);
    found
        .report
        .stages
        .push(("def-insert+explore", t.elapsed()));
    clock.check_time("def-explore")?;

    // The memo is grown and stays as it is: the second and last manager
    // serves the stacked round, the LCAs and the enumeration.
    let t = Instant::now();
    let mgr = CseManager::build(memo);
    found.report.stages.push(("manager-grown", t.elapsed()));

    // Stacked round (§5.5): candidate definitions are themselves query
    // expressions — a narrower candidate may pick up additional consumers
    // *inside* a wider candidate's definition (e.g. the paper's Table 2,
    // where the pre-aggregated orders⋈lineitem CSE also feeds the
    // customer⋈orders⋈lineitem CSE's definition). The candidate set is
    // fixed at this point; only consumer sets are extended.
    let t = Instant::now();
    extend_with_stacked_consumers(memo, &mgr, &mut registered);
    found.report.stages.push(("stacked-extension", t.elapsed()));
    clock.check_time("stacked-extension")?;

    // Too many candidates cannot be represented in the optimizer's mask;
    // keep the most promising (widest consumer sets, then smallest size) —
    // in practice only the no-heuristics configuration comes close.
    registered.sort_by(|(a, _), (b, _)| {
        b.cse
            .members
            .len()
            .cmp(&a.cse.members.len())
            .then(a.cost.est_rows.total_cmp(&b.cost.est_rows))
    });
    registered.truncate(CANDIDATE_KEEP);

    let mut roots = vec![root];
    roots.extend(registered.iter().map(|(_, d)| *d));
    let t = Instant::now();
    let required = compute_required(memo, &roots);
    found.report.stages.push(("required-grown", t.elapsed()));

    // Pass 1+2 again over the grown memo: candidate definitions (and the
    // exploration they triggered) must preserve the same invariants.
    if cfg.verify {
        found.vreport.merge(cse_verify::verify_memo(memo, &roots));
    }

    let mut cse_candidates: Vec<CseCandidate> = Vec::new();
    let mut substitutes: Vec<Substitute> = Vec::new();
    let mut audits: Vec<CandidateAudit> = Vec::new();
    let t = Instant::now();
    for (i, (c, def_root)) in registered.iter().enumerate() {
        let id = CseId(i as u32);
        let consumers: Vec<GroupId> = c.cse.members.iter().map(|m| m.group).collect();
        let lca = mgr.least_common_ancestor(&consumers);
        let subs = build_substitutes(memo, id, &c.cse, &required);
        let member_matched: Vec<bool> = subs.iter().map(Option::is_some).collect();
        substitutes.extend(subs.into_iter().flatten());
        let matched = member_matched.iter().filter(|&&m| m).count();
        if cfg.verify {
            audits.push(candidate_audit(id.0, c, &member_matched, &required));
        }
        if matched < 2 {
            // Not enough matchable consumers: candidate is useless.
            substitutes.retain(|s| s.cse != id);
            continue;
        }
        found.report.candidates.push(CandidateSummary {
            id,
            tables: c.signature.tables.clone(),
            grouped: c.signature.grouped,
            consumers: consumers.len(),
            est_rows: c.cost.est_rows,
        });
        cse_candidates.push(CseCandidate {
            id,
            def_root: *def_root,
            output: c.cse.shape.output.clone(),
            est_rows: c.cost.est_rows,
            cw: c.cost.cw,
            cr: c.cost.cr,
            consumers,
            lca,
        });
    }
    found.report.stages.push(("substitutes", t.elapsed()));

    // Passes 3+4 (+ candidate-level costing sanity) over every constructed
    // candidate, matched or not.
    if cfg.verify {
        found.vreport.merge(cse_verify::verify_candidates(&audits));
    }
    if cse_candidates.is_empty() {
        return Ok(None);
    }

    Ok(Some(Step3 {
        mgr,
        candidates: cse_candidates,
        substitutes,
    }))
}

/// Terminate `optimize_plan`: run the end-to-end costing audit (pass 5),
/// attach the verification report, and fail the query when any
/// error-severity diagnostic fired.
fn finish(
    plan: FullPlan,
    ctx: PlanContext,
    found: Findings,
    verify: bool,
) -> Result<Optimized, String> {
    let Findings {
        mut report,
        mut vreport,
        cost_audit,
    } = found;
    if verify {
        if let Some(mut audit) = cost_audit {
            audit.baseline_cost = report.baseline_cost;
            audit.final_cost = report.final_cost;
            vreport.merge(cse_verify::verify_costs(&audit));
        }
        if report.rung == Rung::Baseline {
            // Pass 6: a plan produced under a tripped (or forced) budget
            // must be a genuine baseline plan — no covering operators.
            vreport.merge(cse_verify::verify_downgrade(&plan));
        }
        if vreport.error_count() > 0 {
            return Err(format!(
                "plan verification failed ({} error(s)):\n{}",
                vreport.error_count(),
                vreport.render()
            ));
        }
        report.verification = Some(vreport);
    }
    Ok(Optimized { plan, ctx, report })
}

/// Adapt one costed candidate (plus the per-member view-matching outcome)
/// into the self-contained audit record `cse-verify` consumes.
fn candidate_audit(
    id: u32,
    c: &CostedCandidate,
    member_matched: &[bool],
    required: &RequiredCols,
) -> CandidateAudit {
    let rel_set = RelSet::from_iter(c.cse.shape.rels.iter().copied());
    let (keys, aggs) = match &c.cse.shape.group {
        Some((k, a, _)) => (Some(k.clone()), Some(a.clone())),
        None => (None, None),
    };
    let members = c
        .cse
        .members
        .iter()
        .enumerate()
        .map(|(mi, m)| {
            // Required columns of the member's ancestors, mapped into
            // anchor space and restricted to the CSE's base rels (a grouped
            // member's synthetic agg-output columns are not served by the
            // work table directly).
            let req: BTreeSet<ColRef> = required
                .cols(m.group)
                .map(|col| m.alignment.col(col))
                .filter(|col| rel_set.contains(col.rel))
                .collect();
            let (mkeys, maggs) = match &m.normal.group {
                Some(g) => (g.keys.clone(), g.aggs.clone()),
                None => (Vec::new(), Vec::new()),
            };
            MemberAudit {
                group: m.group,
                classes: m.classes.clone(),
                simplified: c.cse.shape.simplified[mi].clone(),
                keys: mkeys,
                aggs: maggs,
                required: req,
                matched: member_matched[mi],
            }
        })
        .collect();
    CandidateAudit {
        id,
        rel_set,
        output: c.cse.shape.output.clone(),
        covering: c.cse.shape.covering.clone(),
        join_conjuncts: classes_to_conjuncts(&c.cse.shape.join_classes),
        keys,
        aggs,
        est_rows: c.cost.est_rows,
        est_width: c.cost.est_width,
        cw: c.cost.cw,
        cr: c.cost.cr,
        ce_lower: c.cost.ce_lower,
        members,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_bench::workloads;
    use cse_tpch::{generate_catalog, TpchConfig};

    /// The TPC-H catalog at SF 0.01.
    fn tpch() -> Catalog {
        generate_catalog(&TpchConfig::new(0.01))
    }

    /// Steps 1 and 2 over `sql` as [`optimize_plan`] runs them under the
    /// default configuration: the grown memo, its root, the normal phase's
    /// history and what Step 3 resumes with (`None` without candidates).
    fn registered(catalog: &Catalog, sql: &str) -> (Memo, GroupId, History, Option<Step3>) {
        let cfg = CseConfig::default();
        let (ctx, plan) = cse_sql::lower_batch_sql(catalog, sql).unwrap();
        let mut memo = Memo::new(ctx);
        let root = memo.insert_plan(&plan);
        memo.set_root(root);
        explore(&mut memo, &cfg.explore);
        let mut normal = Optimizer::new(&memo, catalog);
        let winners = memo.groups().map(|g| normal.optimize_group(g.id, 0).cost);
        let costs: Vec<f64> = winners.collect();
        let history = normal.into_history();
        let required = compute_required(&memo, &[root]);
        let manager = CseManager::build(&memo);
        let sharable = manager.sharable_sets();
        let clock = cfg.budget.start_with(&cfg.cancel);
        let phase = PhaseCtx {
            cfg: &cfg,
            catalog,
            clock: &clock,
            costs: &costs,
            required: &required,
            manager: &manager,
            sharable: &sharable,
        };
        let step3 = register(&mut memo, &phase, root, &mut Findings::default()).unwrap();
        (memo, root, history, step3)
    }

    /// For every mask the §5.3 enumeration visits, the cost pass it reads
    /// agrees with the plan `optimize_full` extracts: the same cost to the
    /// bit, and one spool per charged CSE. A debug build also checks the
    /// extracted trees' spool reads against that bookkeeping. The Step 3
    /// optimizer resumes from the normal phase's history, and every cost
    /// is what a fresh optimizer over the grown memo gives, to the bit.
    #[test]
    fn cost_pass_equals_optimize_full() {
        let tpch = tpch();
        let cfg = CseConfig::default();
        let batches = [
            workloads::table1_batch(),
            workloads::table2_batch(),
            workloads::complex_join_batch(),
            workloads::scaleup_batch(10),
        ];
        for sql in batches {
            let (memo, root, history, step3) = registered(&tpch, &sql);
            let step3 = step3.expect("the batch has candidates");
            let clock = cfg.budget.start_with(&cfg.cancel);
            let mut fresh = Optimizer::new(&memo, &tpch);
            fresh.register_candidates(step3.candidates.clone(), step3.substitutes.clone());
            let mut opt = Optimizer::resume(&memo, &tpch, history);
            opt.register_candidates(step3.candidates, step3.substitutes);
            let outcome = choose_best(&mut opt, &step3.mgr, root, &clock).unwrap();
            assert!(outcome.visited.len() >= 2, "{sql}");
            for &mask in &outcome.visited {
                let costed = opt.cost_full(root, mask);
                let anew = fresh.cost_full(root, mask).cost;
                assert_eq!(costed.cost.to_bits(), anew.to_bits(), "{mask:#b}");
                let plan = opt.optimize_full(root, mask);
                assert_eq!(costed.cost.to_bits(), plan.cost.to_bits(), "{mask:#b}");
                let spools = plan
                    .spools
                    .keys()
                    .fold(0, |m, e| m | cse_optimizer::bit(*e));
                assert_eq!(costed.ids(), spools, "{mask:#b}");
            }
        }
    }

    /// One estimator, one answer: a registered candidate's work-table rows,
    /// estimated from its shape, are the rows the optimizer estimates for
    /// its definition's group in the grown memo.
    #[test]
    fn candidate_rows_equal_definition_group_rows() {
        let tpch = tpch();
        let mut batches = vec![
            workloads::table1_batch(),
            workloads::table2_batch(),
            workloads::NESTED.to_string(),
            workloads::complex_join_batch(),
        ];
        batches.extend((2..=10).map(workloads::scaleup_batch));
        let mut checked = 0;
        for sql in batches {
            let (memo, _, _, step3) = registered(&tpch, &sql);
            let mut opt = Optimizer::new(&memo, &tpch);
            for c in step3.map(|s| s.candidates).unwrap_or_default() {
                let rows = opt.group_rows(c.def_root);
                let err = (c.est_rows - rows).abs() / rows;
                assert!(err <= 1e-9, "{sql}\n{:?}: {} vs {rows}", c.id, c.est_rows);
                checked += 1;
            }
        }
        assert!(checked >= 30, "{checked} candidates");
    }
}
