//! Candidate generation (paper §4.3): Algorithm 1's greedy merging plus
//! the four cost-based heuristics.

use crate::compat::{
    partition_compatible, prepare_consumers, prepare_onto, CompatibleGroup, PreparedConsumer,
};
use crate::config::{CostBounds, PhaseCtx};
use crate::construct::{construct, ConstructedCse};
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

/// Estimate a constructed CSE's work-table cardinality and width.
pub fn estimate_cse(memo: &Memo, stats: &StatsCatalog, cse: &ConstructedCse) -> (f64, f64) {
    let card = Cardinality::new(&memo.ctx, stats);
    let sel = Selectivity::new(&memo.ctx, stats);
    let rels = &cse.members[0].normal.spj.rels;
    let mut rows = card.spj_rows(rels, &cse.join_conjuncts);
    rows *= sel.of(&cse.covering).max(1e-12);
    rows = rows.max(1.0);
    let rows = match &cse.group {
        Some((keys, _, _)) => card.group_rows(keys, rows),
        None => rows,
    };
    let width = card.width_of(&cse.output);
    (rows, width)
}

/// Cost a constructed CSE.
pub fn cost_candidate(
    memo: &Memo,
    ctx: &PhaseCtx,
    signature: TableSignature,
    cse: ConstructedCse,
) -> CostedCandidate {
    let (est_rows, est_width) = estimate_cse(memo, ctx.stats, &cse);
    let model = &ctx.cfg.cost_model;
    let cw = model.spool_write(est_rows, est_width);
    let cr = model.spool_read(est_rows, est_width);
    let ce_lower = cse
        .members
        .iter()
        .map(|m| ctx.bounds.lower(m.group))
        .fold(0.0, f64::max);
    CostedCandidate {
        cse,
        signature,
        est_rows,
        est_width,
        cw,
        cr,
        ce_lower,
    }
}

/// Shared-usage cost of a candidate: C_E + C_W + N · C_R (§4.3.3).
pub fn shared_cost(c: &CostedCandidate) -> f64 {
    c.ce_lower + c.cw + c.cse.members.len() as f64 * c.cr
}

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
/// sharing. Returns the surviving members.
pub fn h2_filter_consumers(
    memo: &mut Memo,
    ctx: &PhaseCtx,
    members: Vec<PreparedConsumer>,
) -> Vec<PreparedConsumer> {
    let n = members.len() as f64;
    let model = &ctx.cfg.cost_model;
    members
        .into_iter()
        .filter(|m| {
            // Trivial CSE covering this member alone gives its C_W / C_R.
            let trivial = match construct(memo, vec![m.clone()], ctx.required) {
                Some(t) => t,
                None => return false,
            };
            let (rows, width) = estimate_cse(memo, ctx.stats, &trivial);
            let cw = model.spool_write(rows, width);
            let cr = model.spool_read(rows, width);
            let upper = ctx.bounds.upper(m.group);
            // Discard if computing from scratch is cheaper than even the
            // best-case shared usage: C_upper < C_R + (C_upper + C_W)/N.
            upper >= cr + (upper + cw) / n
        })
        .collect()
}

/// Algorithm 1: greedily merge trivial candidates while the benefit Δ is
/// positive; restart over the leftovers. Returns the merged candidates.
///
/// The greedy merge loop is the combinatorial heart of candidate
/// generation (quadratic trials per round), so the budget clock's
/// wall-clock deadline is re-checked on every round and a trip aborts the
/// whole set — the degradation ladder in `pipeline` decides what happens
/// next.
pub fn create_candidates(
    memo: &mut Memo,
    ctx: &PhaseCtx,
    signature: &TableSignature,
    group: &CompatibleGroup,
) -> Result<Vec<CostedCandidate>, BudgetTrip> {
    let members = group.members.clone();
    if members.len() < 2 {
        return Ok(Vec::new());
    }
    if !ctx.cfg.gen.heuristics {
        // One candidate covering every compatible consumer.
        return Ok(construct(memo, members, ctx.required)
            .map(|c| cost_candidate(memo, ctx, signature.clone(), c))
            .into_iter()
            .collect());
    }
    let mut rest: Vec<PreparedConsumer> = members;
    let mut out: Vec<CostedCandidate> = Vec::new();
    while rest.len() > 1 {
        ctx.clock.check_time("generation/algorithm1")?;
        // Seed with the first trivial candidate. Alone it computes from
        // scratch; once merged, the current set costs what its winning
        // trial did, and that trial is the candidate the round ends with.
        let seed = rest.remove(0);
        let mut sep_current = ctx.bounds.lower(seed.group);
        let mut current: Vec<PreparedConsumer> = vec![seed];
        let mut merged: Option<CostedCandidate> = None;
        loop {
            ctx.clock.check_time("generation/algorithm1")?;
            // Pick the remaining member with the best merge benefit Δ:
            // separate costs minus the merged candidate's shared cost.
            let mut best: Option<(usize, f64, CostedCandidate)> = None;
            for (i, m) in rest.iter().enumerate() {
                let mut trial_members = current.clone();
                trial_members.push(m.clone());
                let trial = match construct(memo, trial_members, ctx.required) {
                    Some(t) => cost_candidate(memo, ctx, signature.clone(), t),
                    None => continue,
                };
                let delta = sep_current + ctx.bounds.lower(m.group) - shared_cost(&trial);
                if delta > 0.0 && best.as_ref().map(|(_, d, _)| delta > *d).unwrap_or(true) {
                    best = Some((i, delta, trial));
                }
            }
            let Some((i, _, trial)) = best else { break };
            current.push(rest.remove(i));
            sep_current = shared_cost(&trial);
            merged = Some(trial);
        }
        // An unmerged seed is dropped; the loop restarts over the leftovers.
        out.extend(merged);
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
/// Algorithm 1 (H3). H4 runs across sets afterwards.
pub fn generate_for_set(
    memo: &mut Memo,
    ctx: &PhaseCtx,
    signature: &TableSignature,
    consumers: &[GroupId],
    query_cost: f64,
) -> Result<Vec<CostedCandidate>, BudgetTrip> {
    let (cfg, bounds) = (&ctx.cfg.gen, ctx.bounds);
    if cfg.heuristics && !h1_worthwhile(bounds, consumers, query_cost, cfg.alpha) {
        return Ok(Vec::new());
    }
    let prepared = prepare_consumers(memo, consumers);
    // The memo performs no group merging, so logically identical
    // expressions reached through different transformation paths can sit in
    // distinct groups. Generation runs over one representative per normal
    // form (quadratic merge trials over duplicates are pure waste);
    // duplicates rejoin the constructed candidates afterwards so every
    // group still receives its view-matching substitute.
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
    let prepared = unique;
    let groups = partition_compatible(&memo.ctx, prepared);
    let mut out = Vec::new();
    for mut g in groups {
        if g.members.len() < 2 {
            continue;
        }
        if cfg.heuristics {
            let ids: Vec<GroupId> = g.members.iter().map(|m| m.group).collect();
            if !h1_worthwhile(bounds, &ids, query_cost, cfg.alpha) {
                continue;
            }
            g.members = h2_filter_consumers(memo, ctx, g.members);
            if g.members.len() < 2 {
                continue;
            }
        }
        out.extend(create_candidates(memo, ctx, signature, &g)?);
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
                let simplified = cand.cse.simplified[pos].clone();
                cand.cse.members.push(dup.clone());
                cand.cse.simplified.push(simplified);
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
            let anchor = &cand.cse.members[0].normal.spj.rels;
            let Some(consumer) = prepare_onto(memo, Some(anchor), g) else {
                continue;
            };
            if let Some(simplified) = cand.cse.admit(&consumer) {
                cand.cse.members.push(consumer);
                cand.cse.simplified.push(simplified);
            }
        }
    }
}
