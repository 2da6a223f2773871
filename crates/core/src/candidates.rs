//! Candidate generation (paper §4.3): Algorithm 1's greedy merging plus
//! the four cost-based heuristics.
//!
//! H2's trivial candidates and Algorithm 1's merge trials are costed from
//! their shapes (construction steps 1–5) and name their members by index
//! into the compatible group's [`Construction`]. A definition plan and
//! member copies are made only for a candidate that leaves a round.

use crate::compat::{partition_compatible, prepare_consumers, prepare_onto, PreparedConsumer};
use crate::config::{CostBounds, PhaseCtx};
use crate::construct::{ConstructedCse, Construction, CseShape};
use crate::manager::CseManager;
use cse_cost::{Cardinality, Selectivity, StatsCatalog};
use cse_govern::BudgetTrip;
use cse_memo::{GroupId, Memo, TableSignature};

/// A constructed candidate plus its cost ingredients.
#[derive(Debug, Clone)]
pub struct CostedCandidate {
    pub cse: ConstructedCse,
    pub signature: TableSignature,
    pub est_rows: f64,
    pub est_width: f64,
    /// C_W / C_R of the work table.
    pub cw: f64,
    pub cr: f64,
    /// Lower bound on the evaluation cost C_E (highest of the members'
    /// lower cost bounds, per §4.3.3).
    pub ce_lower: f64,
}

/// Estimate a CSE's work-table cardinality and width from its shape.
pub fn estimate_cse(memo: &Memo, stats: &StatsCatalog, shape: &CseShape) -> (f64, f64) {
    let card = Cardinality::new(&memo.ctx, stats);
    let sel = Selectivity::new(&memo.ctx, stats);
    let mut rows = card.spj_rows(&shape.rels, &shape.join_conjuncts);
    rows *= sel.of(&shape.covering).max(1e-12);
    rows = rows.max(1.0);
    let rows = match &shape.group {
        Some((keys, _, _)) => card.group_rows(keys, rows),
        None => rows,
    };
    let width = card.width_of(&shape.output);
    (rows, width)
}

/// The cost ingredients of a shape over its members.
#[derive(Debug, Clone, Copy)]
struct ShapeCost {
    est_rows: f64,
    est_width: f64,
    cw: f64,
    cr: f64,
    ce_lower: f64,
}

impl ShapeCost {
    fn of<'m>(
        memo: &Memo,
        ctx: &PhaseCtx,
        shape: &CseShape,
        members: impl IntoIterator<Item = &'m PreparedConsumer>,
    ) -> Self {
        let (est_rows, est_width) = estimate_cse(memo, ctx.stats, shape);
        let model = &ctx.cfg.cost_model;
        let bounds = members.into_iter().map(|m| ctx.bounds.lower(m.group));
        ShapeCost {
            est_rows,
            est_width,
            cw: model.spool_write(est_rows, est_width),
            cr: model.spool_read(est_rows, est_width),
            ce_lower: bounds.fold(0.0, f64::max),
        }
    }

    fn shared(&self, consumers: usize) -> f64 {
        shared(self.ce_lower, self.cw, self.cr, consumers)
    }

    fn candidate(self, cse: ConstructedCse, signature: TableSignature) -> CostedCandidate {
        CostedCandidate {
            cse,
            signature,
            est_rows: self.est_rows,
            est_width: self.est_width,
            cw: self.cw,
            cr: self.cr,
            ce_lower: self.ce_lower,
        }
    }
}

/// Cost a constructed CSE.
pub fn cost_candidate(
    memo: &Memo,
    ctx: &PhaseCtx,
    signature: TableSignature,
    cse: ConstructedCse,
) -> CostedCandidate {
    ShapeCost::of(memo, ctx, &cse.shape, &cse.members).candidate(cse, signature)
}

/// Shared-usage cost of a candidate: C_E + C_W + N · C_R (§4.3.3).
pub fn shared_cost(c: &CostedCandidate) -> f64 {
    shared(c.ce_lower, c.cw, c.cr, c.cse.members.len())
}

fn shared(ce_lower: f64, cw: f64, cr: f64, consumers: usize) -> f64 {
    ce_lower + cw + consumers as f64 * cr
}

/// H1 threshold α (paper: 10%): consumers must sum to at least `α · C_Q`.
const ALPHA: f64 = 0.10;

/// H4 threshold β (paper: 90%): a contained candidate survives only if its
/// result is at most `β` of the container's.
pub(crate) const BETA: f64 = 0.90;

/// Heuristic 1: only bother when the consumers amount to a significant
/// fraction of the whole query's cost.
pub fn h1_worthwhile(
    bounds: &CostBounds,
    consumers: &[GroupId],
    query_cost: f64,
    alpha: f64,
) -> bool {
    let total: f64 = consumers.iter().map(|g| bounds.lower(*g)).sum();
    total >= alpha * query_cost
}

/// Heuristic 2: drop consumers whose results are so large that
/// materializing + reading them beats recomputation even with perfect
/// sharing. Returns the indices of the surviving members of `build`;
/// `trials` counts the trivial shapes costed.
pub fn h2_filter_consumers(
    memo: &mut Memo,
    ctx: &PhaseCtx,
    build: &Construction,
    trials: &mut u64,
) -> Vec<usize> {
    let members = build.members();
    let n = members.len() as f64;
    let model = &ctx.cfg.cost_model;
    (0..members.len())
        .filter(|&i| {
            // Trivial CSE covering this member alone gives its C_W / C_R.
            let Some(trivial) = build.shape(memo, &[i]) else {
                return false;
            };
            *trials += 1;
            let (rows, width) = estimate_cse(memo, ctx.stats, &trivial);
            let cw = model.spool_write(rows, width);
            let cr = model.spool_read(rows, width);
            let upper = ctx.bounds.upper(members[i].group);
            // Discard if computing from scratch is cheaper than even the
            // best-case shared usage: C_upper < C_R + (C_upper + C_W)/N.
            upper >= cr + (upper + cw) / n
        })
        .collect()
}

/// Algorithm 1 over the members of `build` at `set`: greedily merge
/// trivial candidates while the benefit Δ is positive; restart over the
/// leftovers. Returns the merged candidates; `trials` counts the merge
/// trials costed. Without heuristics, the one candidate covering all of
/// `set`.
///
/// The greedy merge loop is the combinatorial heart of candidate
/// generation (quadratic trials per round), so the budget clock's
/// wall-clock deadline is re-checked on every round and a trip aborts the
/// whole set — `pipeline` falls back to the baseline plan.
pub fn create_candidates(
    memo: &mut Memo,
    ctx: &PhaseCtx,
    signature: &TableSignature,
    build: &Construction,
    set: Vec<usize>,
    trials: &mut u64,
) -> Result<Vec<CostedCandidate>, BudgetTrip> {
    if set.len() < 2 {
        return Ok(Vec::new());
    }
    let members = build.members();
    let costed = |memo: &mut Memo, set: &[usize]| {
        let shape = build.shape(memo, set)?;
        let of_set = set.iter().map(|&i| &members[i]);
        Some((ShapeCost::of(memo, ctx, &shape, of_set), shape))
    };
    let keep = |set: &[usize], (cost, shape): (ShapeCost, CseShape)| {
        let cse = build.build(set, shape)?;
        Some(cost.candidate(cse, signature.clone()))
    };
    if !ctx.cfg.heuristics {
        // One candidate covering every compatible consumer.
        let one = costed(memo, &set).and_then(|c| keep(&set, c));
        return Ok(one.into_iter().collect());
    }
    let lower = |i: usize| ctx.bounds.lower(members[i].group);
    let mut rest = set;
    let mut out: Vec<CostedCandidate> = Vec::new();
    while rest.len() > 1 {
        ctx.clock.check_time("generation/algorithm1")?;
        // Seed with the first trivial candidate. Alone it computes from
        // scratch; once merged, the current set costs what its winning
        // trial did, and that trial is the candidate the round ends with.
        let seed = rest.remove(0);
        let mut sep_current = lower(seed);
        let mut current: Vec<usize> = vec![seed];
        let mut merged: Option<(ShapeCost, CseShape)> = None;
        loop {
            ctx.clock.check_time("generation/algorithm1")?;
            // Pick the remaining member with the best merge benefit Δ:
            // separate costs minus the merged candidate's shared cost.
            let mut best: Option<(usize, f64, (ShapeCost, CseShape))> = None;
            let mut trial = current.clone();
            for (i, &m) in rest.iter().enumerate() {
                trial.truncate(current.len());
                trial.push(m);
                let Some(costed) = costed(memo, &trial) else {
                    continue;
                };
                *trials += 1;
                let delta = sep_current + lower(m) - costed.0.shared(trial.len());
                if delta > 0.0 && best.as_ref().is_none_or(|(_, d, _)| delta > *d) {
                    best = Some((i, delta, costed));
                }
            }
            let Some((i, _, costed)) = best else { break };
            current.push(rest.remove(i));
            sep_current = costed.0.shared(current.len());
            merged = Some(costed);
        }
        // An unmerged seed is dropped; the loop restarts over the leftovers.
        out.extend(merged.and_then(|c| keep(&current, c)));
    }
    Ok(out)
}

/// Heuristic 4: containment pruning across candidates (possibly from
/// different signatures). `ancestors` supplies the memo descendant
/// relation.
pub fn h4_prune_contained(
    mgr: &CseManager,
    mut candidates: Vec<CostedCandidate>,
    beta: f64,
) -> Vec<CostedCandidate> {
    let mut dead = vec![false; candidates.len()];
    for i in 0..candidates.len() {
        for j in 0..candidates.len() {
            if i == j || dead[i] {
                continue;
            }
            if dead[j] {
                continue;
            }
            let (child, parent) = (&candidates[i], &candidates[j]);
            if !is_contained(mgr, child, parent) {
                continue;
            }
            let s_child = child.est_rows * child.est_width;
            let s_parent = parent.est_rows * parent.est_width;
            if s_child > beta * s_parent {
                dead[i] = true;
            }
        }
    }
    let mut i = 0;
    candidates.retain(|_| {
        let keep = !dead[i];
        i += 1;
        keep
    });
    candidates
}

/// Definition 4.2: child's tables ⊆ parent's tables (multiset) and every
/// child consumer is a memo descendant of some parent consumer.
pub fn is_contained(mgr: &CseManager, child: &CostedCandidate, parent: &CostedCandidate) -> bool {
    if !child.signature.tables_subset_of(&parent.signature) {
        return false;
    }
    child.cse.members.iter().all(|cm| {
        parent
            .cse
            .members
            .iter()
            .any(|pm| mgr.is_ancestor(pm.group, cm.group))
    })
}

/// Full generation for one sharable set: H1 → compatibility → H1 → H2 →
/// Algorithm 1 (H3). H4 runs across sets afterwards. `trials` counts the
/// shapes H2 and Algorithm 1 cost.
pub fn generate_for_set(
    memo: &mut Memo,
    ctx: &PhaseCtx,
    signature: &TableSignature,
    consumers: &[GroupId],
    query_cost: f64,
    trials: &mut u64,
) -> Result<Vec<CostedCandidate>, BudgetTrip> {
    let (heuristics, bounds) = (ctx.cfg.heuristics, ctx.bounds);
    if heuristics && !h1_worthwhile(bounds, consumers, query_cost, ALPHA) {
        return Ok(Vec::new());
    }
    let prepared = prepare_consumers(memo, consumers);
    // Every query block has its own rel instances, and the memo keys a
    // group by them, so one join with the same local predicates in two
    // blocks is two groups with one aligned normal form: `orders ⋈
    // lineitem` under each of Table 1's statements, the outer block and the
    // HAVING subquery of the nested query, `lineitem ⋈ supplier` in both of
    // Table 4's. Generation runs over one representative per normal form
    // (quadratic merge trials over duplicates are pure waste); duplicates
    // rejoin the constructed candidates afterwards so every group still
    // receives its view-matching substitute.
    let mut unique: Vec<PreparedConsumer> = Vec::new();
    let mut duplicates: Vec<(usize, PreparedConsumer)> = Vec::new();
    for p in prepared {
        match unique.iter().position(|u| u.normal == p.normal) {
            Some(i) => duplicates.push((i, p)),
            None => unique.push(p),
        }
    }
    let unique_keys: Vec<cse_algebra::SpjgNormal> =
        unique.iter().map(|u| u.normal.clone()).collect();
    let groups = partition_compatible(unique);
    let mut out = Vec::new();
    for g in groups {
        if g.members.len() < 2 {
            continue;
        }
        if heuristics {
            let ids: Vec<GroupId> = g.members.iter().map(|m| m.group).collect();
            if !h1_worthwhile(bounds, &ids, query_cost, ALPHA) {
                continue;
            }
        }
        let build = Construction::new(&g.members, ctx.required);
        let set = if heuristics {
            h2_filter_consumers(memo, ctx, &build, trials)
        } else {
            (0..g.members.len()).collect()
        };
        out.extend(create_candidates(
            memo, ctx, signature, &build, set, trials,
        )?);
    }
    // Re-attach duplicate groups: a duplicate consumes the candidate
    // exactly like the representative it mirrors.
    for cand in &mut out {
        for (rep_idx, dup) in &duplicates {
            let rep_normal = &unique_keys[*rep_idx];
            if let Some(pos) = cand
                .cse
                .members
                .iter()
                .position(|m| &m.normal == rep_normal)
            {
                let simplified = cand.cse.shape.simplified[pos].clone();
                cand.cse.members.push(dup.clone());
                cand.cse.shape.simplified.push(simplified);
            }
        }
    }
    Ok(out)
}

/// Add def-internal consumers to existing candidates (§5.5): candidate
/// definitions are themselves query expressions, so a group inside one
/// definition that carries another candidate's signature and that the
/// candidate [admits](ConstructedCse::admit) reads its work table too.
/// `registered` pairs each candidate with its definition's root group in
/// the grown memo `mgr` indexes; the candidate set is fixed, only consumer
/// sets are extended.
pub(crate) fn extend_with_stacked_consumers(
    memo: &Memo,
    mgr: &CseManager,
    registered: &mut [(CostedCandidate, GroupId)],
) {
    let def_roots: Vec<GroupId> = registered.iter().map(|(_, d)| *d).collect();
    let def_internal =
        |g: GroupId| !def_roots.contains(&g) && def_roots.iter().any(|&d| mgr.is_ancestor(d, g));
    for (cand, own_def) in registered.iter_mut() {
        for &g in mgr.groups_of(&cand.signature) {
            if !def_internal(g)
                || mgr.is_ancestor(*own_def, g)
                || cand.cse.members.iter().any(|m| m.group == g)
            {
                continue;
            }
            let anchor = &cand.cse.shape.rels;
            let Some(consumer) = prepare_onto(memo, Some(anchor), g) else {
                continue;
            };
            if let Some(simplified) = cand.cse.admit(&consumer) {
                cand.cse.members.push(consumer);
                cand.cse.shape.simplified.push(simplified);
            }
        }
    }
}
