//! Multi-candidate optimization (paper §5.3): enumerate enabled-CSE sets,
//! pruned with the competing/independent analysis and Propositions
//! 5.4–5.6. Every visited set is costed by the optimizer's cost pass; the
//! plan is extracted once, for the chosen set.

use crate::manager::CseManager;
use cse_govern::{BudgetClock, BudgetTrip};
use cse_memo::GroupId;
use cse_optimizer::{bit, CseId, CseMask, FullPlan, Optimizer};
use std::collections::BTreeSet;

/// Cap on CSE re-optimizations of one enumeration (§5.3).
const MAX_OPTIMIZATIONS: u32 = 64;

/// Outcome of the enumeration.
pub struct EnumOutcome {
    pub plan: FullPlan,
    /// Mask of candidates available to the winning optimization.
    pub chosen_mask: CseMask,
    /// Number of CSE optimizations performed (the bracketed figure of the
    /// paper's tables).
    pub optimizations: u32,
    /// Every mask the cost pass ran for, in order.
    pub visited: Vec<CseMask>,
}

/// Choose the best plan over subsets of candidates.
///
/// Candidates are first split into *clusters*: connected components of the
/// competing relation. Independent clusters cannot influence each other
/// (Prop. 5.4 reasoning), so subsets are enumerated per cluster and the
/// winning masks combined — turning a 2^N search into a sum of small
/// enumerations. Within a cluster, subsets are visited in descending size
/// with Prop. 5.5/5.6 skipping, bounded by [`MAX_OPTIMIZATIONS`].
///
/// The wall-clock deadline in `clock` is re-checked before every full
/// optimization pass (the expensive unit of work here). Expiry trips the
/// whole enumeration rather than returning an anytime-best plan, so that
/// a tripped budget always yields the clean baseline plan — never a
/// half-enumerated hybrid.
pub fn choose_best(
    opt: &mut Optimizer<'_>,
    mgr: &CseManager,
    root: GroupId,
    candidates: &[(CseId, Option<GroupId>)],
    clock: &BudgetClock,
) -> Result<EnumOutcome, BudgetTrip> {
    let mut optimizations = 0u32;
    let mut visited = Vec::new();
    if candidates.is_empty() {
        let plan = opt.optimize_full(root, 0);
        return Ok(EnumOutcome {
            plan,
            chosen_mask: 0,
            optimizations: 0,
            visited,
        });
    }
    let mut cost = |opt: &mut Optimizer<'_>, mask| {
        visited.push(mask);
        opt.cost_full(root, mask)
    };
    clock.check_time("enumerate")?;
    // Build clusters of the competing relation.
    let n = candidates.len();
    let mut comp = vec![vec![false; n]; n];
    for i in 0..n {
        for j in 0..n {
            if i != j && mgr.competing(candidates[i].1, candidates[j].1) {
                comp[i][j] = true;
            }
        }
    }
    let mut cluster_of = vec![usize::MAX; n];
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    for i in 0..n {
        if cluster_of[i] != usize::MAX {
            continue;
        }
        let id = clusters.len();
        let mut stack = vec![i];
        let mut members = Vec::new();
        while let Some(x) = stack.pop() {
            if cluster_of[x] != usize::MAX {
                continue;
            }
            cluster_of[x] = id;
            members.push(x);
            for (y, is_comp) in comp[x].iter().enumerate() {
                if *is_comp && cluster_of[y] == usize::MAX {
                    stack.push(y);
                }
            }
        }
        clusters.push(members);
    }

    // Enumerate per cluster.
    let mut chosen_mask: CseMask = 0;
    for members in &clusters {
        let ids: Vec<CseId> = members.iter().map(|&i| candidates[i].0).collect();
        let full: CseMask = ids.iter().fold(0, |m, id| m | bit(*id));
        clock.check_time("enumerate")?;
        if ids.len() == 1 {
            // One candidate: a single optimization with it enabled decides.
            let with = cost(opt, chosen_mask | full);
            optimizations += 1;
            let without = cost(opt, chosen_mask);
            if with.cost < without.cost {
                chosen_mask |= full;
            }
            continue;
        }
        // Subsets in descending size, with proposition-based skipping. For
        // clusters beyond exhaustive reach (2^N blows up around N=16), a
        // bounded local search starts from the full set and explores
        // one-removed neighbours of the used sets — the same descending
        // walk, just truncated.
        let subsets: Vec<CseMask> = if ids.len() <= 16 {
            let mut subsets: Vec<CseMask> = (1..(1u64 << ids.len()))
                .map(|bits| {
                    ids.iter()
                        .enumerate()
                        .filter(|(k, _)| bits & (1u64 << k) != 0)
                        .fold(0u64, |m, (_, id)| m | bit(*id))
                })
                .collect();
            subsets.sort_by_key(|m| std::cmp::Reverse(m.count_ones()));
            subsets.dedup();
            subsets
        } else {
            let mut out = vec![full];
            for &id in &ids {
                out.push(full & !bit(id));
            }
            out
        };
        let mut skip: BTreeSet<CseMask> = BTreeSet::new();
        let mut best: Option<(f64, CseMask)> = None;
        for mask in subsets {
            if skip.contains(&mask) {
                continue;
            }
            if optimizations >= MAX_OPTIMIZATIONS {
                break;
            }
            clock.check_time("enumerate")?;
            let costed = cost(opt, chosen_mask | mask);
            optimizations += 1;
            let used: CseMask = costed.ids() & mask;
            // Proposition 5.6: the returned plan is also the answer for
            // exactly its used set.
            skip.insert(used);
            // Proposition 5.5 (with 5.6's S^n): the members of the enabled
            // set that are independent of all other enabled members have
            // stable decisions — skip their proper subsets.
            for s in [mask, used] {
                // Proposition 5.5: with T the members of `s` independent of
                // every other enabled member, any proper submask of T (and
                // nothing from R = s \ T) needs no further optimization.
                let t = independent_part(members, s, candidates, &comp);
                let mut sub = t;
                while sub != 0 {
                    sub = (sub - 1) & t;
                    skip.insert(sub);
                    if sub == 0 {
                        break;
                    }
                }
            }
            if best.is_none_or(|(c, _)| costed.cost < c) {
                best = Some((costed.cost, mask));
            }
        }
        // Compare with not using this cluster at all.
        let without = cost(opt, chosen_mask);
        match best {
            Some((c, mask)) if c < without.cost => {
                chosen_mask |= mask;
            }
            _ => {}
        }
    }
    let plan = opt.optimize_full(root, chosen_mask);
    Ok(EnumOutcome {
        plan,
        chosen_mask,
        optimizations,
        visited,
    })
}

/// The sub-mask of `enabled` whose members are independent of every other
/// enabled member. `members` index `candidates` and the competing matrix.
fn independent_part(
    members: &[usize],
    enabled: CseMask,
    candidates: &[(CseId, Option<GroupId>)],
    comp: &[Vec<bool>],
) -> CseMask {
    let on = |i: usize| enabled & bit(candidates[i].0) != 0;
    members
        .iter()
        .filter(|&&a| on(a) && !members.iter().any(|&b| on(b) && comp[a][b]))
        .fold(0, |t, &a| t | bit(candidates[a].0))
}
