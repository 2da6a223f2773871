//! Candidate generation (paper §4.3): Algorithm 1's greedy merging plus
//! the four cost-based heuristics.
//!
//! H2's trivial candidates and Algorithm 1's merge trials are costed from
//! their shapes (construction steps 1–5) and name their members by index
//! into the compatible group's [`Construction`]. H4 runs on the shapes the
//! rounds keep, and a definition plan and member copies are made only for
//! a shape that survives it.

use crate::compat::{
    partition_compatible, prepare_consumers, prepare_onto, CompatibleGroup, PreparedConsumer,
};
use crate::config::{CostBounds, PhaseCtx};
use crate::construct::{ConstructedCse, Construction, CseShape};
use crate::manager::CseManager;
use cse_algebra::classes_to_conjuncts;
use cse_cost::{join_rows, rel_rows, Cardinality, MODEL};
use cse_govern::BudgetTrip;
use cse_memo::{GroupId, Memo, TableSignature};
use cse_storage::Catalog;

/// A constructed candidate plus its cost ingredients.
#[derive(Debug, Clone)]
pub struct CostedCandidate {
    pub cse: ConstructedCse,
    pub signature: TableSignature,
    pub cost: ShapeCost,
}

/// Estimate a CSE's work-table cardinality and width from its shape, with
/// the conjuncts its definition's group in the memo has.
pub(crate) fn estimate_cse(memo: &Memo, catalog: &Catalog, shape: &CseShape) -> (f64, f64) {
    let card = Cardinality::new(&memo.ctx, catalog);
    let rel_rows = shape.rels.iter().map(|r| rel_rows(catalog, &memo.ctx, *r));
    let base = rel_rows.product();
    let mut conjuncts = classes_to_conjuncts(&shape.join_classes);
    conjuncts.extend(shape.covering.conjuncts());
    let rows = join_rows(base, conjuncts.iter().map(|c| card.factor(c)));
    let rows = match &shape.group {
        Some((keys, _, _)) => card.group_rows(keys, rows),
        None => rows,
    };
    (rows, card.width_of(&shape.output))
}

/// The cost ingredients of a shape over its members, computed once: what
/// the heuristics read, and the C_W and C_R the optimizer charges.
#[derive(Debug, Clone, Copy)]
pub struct ShapeCost {
    /// Estimated work-table rows and row width (bytes).
    pub est_rows: f64,
    pub est_width: f64,
    /// C_W / C_R of the work table.
    pub cw: f64,
    pub cr: f64,
    /// Lower bound on the evaluation cost C_E (highest of the members'
    /// lower cost bounds, per §4.3.3).
    pub ce_lower: f64,
}

impl ShapeCost {
    fn of<'m>(
        memo: &Memo,
        ctx: &PhaseCtx,
        shape: &CseShape,
        members: impl IntoIterator<Item = &'m PreparedConsumer>,
    ) -> Self {
        let (est_rows, est_width) = estimate_cse(memo, ctx.catalog, shape);
        let bounds = members.into_iter().map(|m| ctx.bounds.lower(m.group));
        ShapeCost {
            est_rows,
            est_width,
            cw: MODEL.spool_write(est_rows, est_width),
            cr: MODEL.spool_read(est_rows, est_width),
            ce_lower: bounds.fold(0.0, f64::max),
        }
    }

    /// Shared-usage cost over `consumers` consumers: C_E + C_W + N · C_R
    /// (§4.3.3).
    fn shared(&self, consumers: usize) -> f64 {
        self.ce_lower + self.cw + consumers as f64 * self.cr
    }

    fn candidate(self, cse: ConstructedCse, signature: TableSignature) -> CostedCandidate {
        CostedCandidate {
            cse,
            signature,
            cost: self,
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
    c.cost.shared(c.cse.members.len())
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
    (0..members.len())
        .filter(|&i| {
            // Trivial CSE covering this member alone gives its C_W / C_R.
            let Some(trivial) = build.shape(memo, &[i]) else {
                return false;
            };
            *trials += 1;
            let cost = ShapeCost::of(memo, ctx, &trivial, [&members[i]]);
            let upper = ctx.bounds.upper(members[i].group);
            // Discard if computing from scratch is cheaper than even the
            // best-case shared usage: C_upper < C_R + (C_upper + C_W)/N.
            upper >= cost.cr + (upper + cost.cw) / n
        })
        .collect()
}

/// A candidate costed from its shape, before it is completed: the members
/// of its compatible group it covers, by index, its shape and its cost.
pub struct CostedShape {
    pub set: Vec<usize>,
    pub shape: CseShape,
    cost: ShapeCost,
}

impl CostedShape {
    /// Complete the shape over `members`, the compatible group's members.
    pub fn build(
        self,
        members: &[PreparedConsumer],
        signature: TableSignature,
    ) -> Option<CostedCandidate> {
        let covered = self.set.iter().map(|&i| members[i].clone()).collect();
        let cse = self.shape.complete(covered)?;
        Some(self.cost.candidate(cse, signature))
    }
}

/// Algorithm 1 over the members of `build` at `set`: greedily merge
/// trivial candidates while the benefit Δ is positive; restart over the
/// leftovers. Returns the merged candidates' shapes; `trials` counts the
/// merge trials costed. Without heuristics, the one shape covering all of
/// `set`.
///
/// The greedy merge loop is the combinatorial heart of candidate
/// generation (quadratic trials per round), so the budget clock's
/// wall-clock deadline is re-checked on every round and a trip aborts the
/// whole set — `pipeline` falls back to the baseline plan.
pub fn create_candidates(
    memo: &mut Memo,
    ctx: &PhaseCtx,
    build: &Construction,
    set: Vec<usize>,
    trials: &mut u64,
) -> Result<Vec<CostedShape>, BudgetTrip> {
    if set.len() < 2 {
        return Ok(Vec::new());
    }
    let members = build.members();
    let costed = |memo: &mut Memo, set: &[usize]| {
        let shape = build.shape(memo, set)?;
        let of_set = set.iter().map(|&i| &members[i]);
        Some((ShapeCost::of(memo, ctx, &shape, of_set), shape))
    };
    let keep =
        |set: Vec<usize>, (cost, shape): (ShapeCost, CseShape)| CostedShape { set, shape, cost };
    if !ctx.cfg.heuristics {
        // One candidate covering every compatible consumer.
        let one = costed(memo, &set).map(|c| keep(set, c));
        return Ok(one.into_iter().collect());
    }
    let lower = |i: usize| ctx.bounds.lower(members[i].group);
    let mut rest = set;
    let mut out: Vec<CostedShape> = Vec::new();
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
        out.extend(merged.map(|c| keep(current, c)));
    }
    Ok(out)
}

/// What Heuristic 4 reads of a candidate: its table signature, its
/// consumers (re-attached duplicates included) and its result's estimated
/// size, rows × width.
pub struct Extent<'a> {
    pub signature: &'a TableSignature,
    pub consumers: &'a [GroupId],
    pub bytes: f64,
}

/// Heuristic 4: containment pruning across candidates (possibly from
/// different signatures), over the descendant relation of `mgr`'s memo.
/// Returns which candidates survive.
pub fn h4_prune_contained(mgr: &CseManager, candidates: &[Extent], beta: f64) -> Vec<bool> {
    let mut alive = vec![true; candidates.len()];
    for (i, child) in candidates.iter().enumerate() {
        for (j, parent) in candidates.iter().enumerate() {
            let contained = i != j && alive[i] && alive[j] && is_contained(mgr, child, parent);
            if contained && child.bytes > beta * parent.bytes {
                alive[i] = false;
            }
        }
    }
    alive
}

/// Definition 4.2: child's tables ⊆ parent's tables (multiset) and every
/// child consumer is a memo descendant of some parent consumer.
fn is_contained(mgr: &CseManager, child: &Extent, parent: &Extent) -> bool {
    child.signature.tables_subset_of(parent.signature)
        && child.consumers.iter().all(|&c| {
            let mut above = parent.consumers.iter();
            above.any(|&p| mgr.is_ancestor(p, c))
        })
}

/// Candidate generation over the explored memo's sharable sets: per-set
/// generation (H1–H3), then H4 across sets on the costed shapes; only the
/// survivors are completed, in generation order. `trials` counts the
/// shapes costed.
pub(crate) fn generate(
    memo: &mut Memo,
    ctx: &PhaseCtx,
    root: GroupId,
    trials: &mut u64,
) -> Result<Vec<CostedCandidate>, BudgetTrip> {
    let query_cost = ctx.bounds.lower(root);
    let mut sets: Vec<SetShapes> = Vec::new();
    for (sig, consumers) in ctx.sharable {
        ctx.clock.check_time("generation")?;
        sets.extend(generate_for_set(
            memo, ctx, sig, consumers, query_cost, trials,
        )?);
    }
    let extents = sets.iter().flat_map(|s| {
        let shapes = s.shapes.iter();
        shapes.map(|(_, c, consumers)| Extent {
            signature: s.signature,
            consumers,
            bytes: c.cost.est_rows * c.cost.est_width,
        })
    });
    let extents: Vec<Extent> = extents.collect();
    let alive = if ctx.cfg.heuristics {
        h4_prune_contained(ctx.manager, &extents, BETA)
    } else {
        vec![true; extents.len()]
    };
    let mut alive = alive.into_iter();
    let mut out = Vec::new();
    for set in &mut sets {
        for (g, shape, _) in std::mem::take(&mut set.shapes) {
            if alive.next() == Some(true) {
                out.extend(set.build(g, shape));
            }
        }
    }
    Ok(out)
}

/// One sharable set's generation output: its compatible groups, the
/// duplicates of their members, and the costed shapes, each with its
/// compatible group and its consumers, duplicates included.
struct SetShapes<'s> {
    signature: &'s TableSignature,
    groups: Vec<CompatibleGroup>,
    /// (representative's group, duplicate).
    duplicates: Vec<(GroupId, PreparedConsumer)>,
    shapes: Vec<(usize, CostedShape, Vec<GroupId>)>,
}

impl SetShapes<'_> {
    /// Complete a shape of compatible group `g`, then re-attach duplicate
    /// groups: a duplicate consumes the candidate exactly like the
    /// representative it mirrors.
    fn build(&self, g: usize, shape: CostedShape) -> Option<CostedCandidate> {
        let mut cand = shape.build(&self.groups[g].members, self.signature.clone())?;
        for (rep, dup) in &self.duplicates {
            if let Some(pos) = cand.cse.members.iter().position(|m| m.group == *rep) {
                let simplified = cand.cse.shape.simplified[pos].clone();
                cand.cse.members.push(dup.clone());
                cand.cse.shape.simplified.push(simplified);
            }
        }
        Some(cand)
    }
}

/// Generation for one sharable set: H1 → compatibility → H1 → H2 →
/// Algorithm 1 (H3). H4 runs across sets afterwards. `trials` counts the
/// shapes H2 and Algorithm 1 cost.
fn generate_for_set<'s>(
    memo: &mut Memo,
    ctx: &PhaseCtx,
    signature: &'s TableSignature,
    consumers: &[GroupId],
    query_cost: f64,
    trials: &mut u64,
) -> Result<Option<SetShapes<'s>>, BudgetTrip> {
    let (heuristics, bounds) = (ctx.cfg.heuristics, ctx.bounds);
    if heuristics && !h1_worthwhile(bounds, consumers, query_cost, ALPHA) {
        return Ok(None);
    }
    let prepared = prepare_consumers(memo, consumers);
    // Every query block has its own rel instances, and the memo keys a
    // group by them, so one join with the same local predicates in two
    // blocks is two groups with one aligned normal form: `orders ⋈
    // lineitem` under each of Table 1's statements, the outer block and the
    // HAVING subquery of the nested query, `lineitem ⋈ supplier` in both of
    // Table 4's. Generation runs over one representative per normal form
    // (quadratic merge trials over duplicates are pure waste); duplicates
    // rejoin the completed candidates so every group still receives its
    // view-matching substitute.
    let mut unique: Vec<PreparedConsumer> = Vec::new();
    let mut duplicates = Vec::new();
    for p in prepared {
        match unique.iter().find(|u| u.normal == p.normal) {
            Some(rep) => duplicates.push((rep.group, p)),
            None => unique.push(p),
        }
    }
    let groups = partition_compatible(unique);
    let mut shapes = Vec::new();
    for (gi, g) in groups.iter().enumerate() {
        if g.members.len() < 2 {
            continue;
        }
        if heuristics {
            let ids: Vec<GroupId> = g.members.iter().map(|m| m.group).collect();
            if !h1_worthwhile(bounds, &ids, query_cost, ALPHA) {
                continue;
            }
        }
        let build = Construction::new(&g.members, &g.intersected_classes, ctx.required);
        let set = if heuristics {
            h2_filter_consumers(memo, ctx, &build, trials)
        } else {
            (0..g.members.len()).collect()
        };
        for c in create_candidates(memo, ctx, &build, set, trials)? {
            let mut consumers: Vec<GroupId> = c.set.iter().map(|&i| g.members[i].group).collect();
            let dups = duplicates.iter().filter(|(rep, _)| consumers.contains(rep));
            consumers.extend(dups.map(|(_, d)| d.group).collect::<Vec<_>>());
            shapes.push((gi, c, consumers));
        }
    }
    Ok(Some(SetShapes {
        signature,
        groups,
        duplicates,
        shapes,
    }))
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
