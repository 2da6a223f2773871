//! Cost-based physical optimization over the memo, with covering-
//! subexpression support (paper §5).
//!
//! The enabled set of candidate CSEs is treated as part of the required
//! properties (§5.3): `optimize_group` is memoized on
//! `(group, enabled-mask ∩ relevant-mask)`, which also implements the
//! optimization-history reuse of §5.4 — groups without potential consumers
//! below them are optimized exactly once regardless of the enabled set.
//!
//! Spool costing follows §5.2: consumers are charged only the usage cost
//! C_R; the initial cost C_E + C_W is added at the least common ancestor
//! group of the candidate's consumers, where plans with a single consumer
//! are discarded.

use crate::physical::{CseId, FullPlan, PhysicalPlan, ReAgg, SpoolDef};
use crate::rows::GroupRows;
use crate::substitute::{CseCandidate, Substitute};
use cse_algebra::{ColRef, Scalar};
use cse_cost::{CostModel, Selectivity, StatsCatalog};
use cse_memo::{GroupId, Memo, Op};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::rc::Rc;

/// Which (table, column ordinal) pairs have a B-tree index.
#[derive(Debug, Clone, Default)]
pub struct IndexInfo {
    pub btree: HashSet<(String, u16)>,
}

impl IndexInfo {
    pub fn from_catalog(catalog: &cse_storage::Catalog) -> Self {
        let mut btree = HashSet::new();
        for name in catalog.table_names() {
            if let Ok(entry) = catalog.get(name) {
                for idx in &entry.btree_indexes {
                    btree.insert((name.to_ascii_lowercase(), idx.column as u16));
                }
            }
        }
        IndexInfo { btree }
    }
}

/// An optimized (sub)plan with its cost and CSE bookkeeping.
#[derive(Debug, Clone)]
pub struct PlanChoice {
    pub plan: PhysicalPlan,
    pub cost: f64,
    pub rows: f64,
    /// Uncharged spool reads below this plan, per CSE.
    pub usage: BTreeMap<CseId, u32>,
    /// CSEs whose initial cost has already been added (at their LCA).
    pub charged: BTreeSet<CseId>,
}

/// Bitmask over candidate CSE ids (at most 64 candidates per phase, which
/// comfortably covers the paper's worst case of 51).
pub type CseMask = u64;

pub fn bit(id: CseId) -> CseMask {
    1u64 << id.0
}

pub struct Optimizer<'a> {
    pub memo: &'a Memo,
    pub stats: &'a StatsCatalog,
    pub model: CostModel,
    pub indexes: IndexInfo,
    rows: GroupRows<'a>,
    candidates: BTreeMap<CseId, CseCandidate>,
    substitutes: HashMap<GroupId, Vec<Substitute>>,
    /// Per group: mask of CSEs with a consumer at or below the group.
    relevant: HashMap<GroupId, CseMask>,
    cache: HashMap<(GroupId, CseMask), Rc<PlanChoice>>,
    def_cache: HashMap<(CseId, CseMask), Rc<PlanChoice>>,
    /// Number of `optimize_group` invocations that missed the cache —
    /// a proxy for optimization work, reported by the benchmarks.
    pub group_optimizations: u64,
}

impl<'a> Optimizer<'a> {
    pub fn new(
        memo: &'a Memo,
        stats: &'a StatsCatalog,
        model: CostModel,
        indexes: IndexInfo,
    ) -> Self {
        Optimizer {
            memo,
            stats,
            rows: GroupRows::new(memo, stats),
            model,
            indexes,
            candidates: BTreeMap::new(),
            substitutes: HashMap::new(),
            relevant: HashMap::new(),
            cache: HashMap::new(),
            def_cache: HashMap::new(),
            group_optimizations: 0,
        }
    }

    /// Estimated rows of a group (cached logical property).
    pub fn group_rows(&mut self, g: GroupId) -> f64 {
        self.rows.rows(g)
    }

    /// Register the candidates and substitutes of the CSE phase. Resets
    /// CSE-dependent caches (baseline entries with mask 0 stay valid and
    /// are kept — that is the §5.4 history reuse).
    pub fn register_candidates(
        &mut self,
        candidates: Vec<CseCandidate>,
        substitutes: Vec<Substitute>,
    ) {
        assert!(
            candidates.iter().all(|c| c.id.0 < 64),
            "at most 64 candidate CSEs are supported per phase"
        );
        self.candidates = candidates.into_iter().map(|c| (c.id, c)).collect();
        self.substitutes.clear();
        for s in substitutes {
            self.substitutes.entry(s.consumer).or_default().push(s);
        }
        self.compute_relevant();
    }

    /// Propagate "has a consumer below" masks upward through the memo DAG.
    fn compute_relevant(&mut self) {
        let mut relevant: HashMap<GroupId, CseMask> = HashMap::new();
        // Seed with consumers.
        for (id, cand) in &self.candidates {
            for &c in &cand.consumers {
                *relevant.entry(c).or_insert(0) |= bit(*id);
            }
        }
        // Fixpoint upward propagation via parent expressions.
        let mut work: Vec<GroupId> = relevant.keys().copied().collect();
        while let Some(g) = work.pop() {
            let mask = relevant.get(&g).copied().unwrap_or(0);
            let parents: Vec<GroupId> = self
                .memo
                .group(g)
                .parents
                .iter()
                .map(|&eid| self.memo.group_of(eid))
                .collect();
            for p in parents {
                let cur = relevant.entry(p).or_insert(0);
                if *cur | mask != *cur {
                    *cur |= mask;
                    work.push(p);
                }
            }
        }
        self.relevant = relevant;
    }

    fn relevant_mask(&self, g: GroupId) -> CseMask {
        self.relevant.get(&g).copied().unwrap_or(0)
    }

    /// Optimize a group under an enabled-CSE mask.
    pub fn optimize_group(&mut self, g: GroupId, mask: CseMask) -> Rc<PlanChoice> {
        let eff_mask = mask & self.relevant_mask(g);
        if let Some(c) = self.cache.get(&(g, eff_mask)) {
            return c.clone();
        }
        self.group_optimizations += 1;
        let mut alts: Vec<PlanChoice> = Vec::new();
        let exprs = self.memo.group(g).exprs.clone();
        for eid in exprs {
            let e = self.memo.gexpr(eid).clone();
            alts.extend(self.implement_expr(g, &e, mask));
        }
        // View-matching substitutes for enabled candidates (§5.1: the rule
        // is enabled only for registered consumer expressions).
        let subs: Vec<Substitute> = self
            .substitutes
            .get(&g)
            .map(|v| {
                v.iter()
                    .filter(|s| eff_mask & bit(s.cse) != 0)
                    .cloned()
                    .collect()
            })
            .unwrap_or_default();
        for s in subs {
            if let Some(alt) = self.implement_cse_read(g, &s) {
                alts.push(alt);
            }
        }
        // LCA handling (§5.2): candidates whose least common ancestor is
        // this group get their initial cost added here, and single-consumer
        // plans are discarded.
        let lca_here: Vec<CseId> = self
            .candidates
            .values()
            .filter(|c| eff_mask & bit(c.id) != 0 && c.lca == Some(g))
            .map(|c| c.id)
            .collect();
        if !lca_here.is_empty() {
            let mut kept: Vec<PlanChoice> = Vec::new();
            for mut alt in alts {
                let mut feasible = true;
                for &e in &lca_here {
                    match alt.usage.get(&e).copied().unwrap_or(0) {
                        0 => {}
                        1 => {
                            feasible = false;
                            break;
                        }
                        _ => {
                            let (init, def) = self.init_cost(e, mask);
                            alt.cost += init;
                            alt.usage.remove(&e);
                            alt.charged.insert(e);
                            // Stacked reads inside the definition surface
                            // at this level.
                            for (k, v) in def.usage.iter() {
                                *alt.usage.entry(*k).or_insert(0) += v;
                            }
                            alt.charged.extend(def.charged.iter().copied());
                        }
                    }
                }
                if feasible {
                    kept.push(alt);
                }
            }
            alts = kept;
            // Always compare against (and fall back to) the plan that does
            // not use these candidates at all.
            let without_mask = lca_here.iter().fold(mask, |m, e| m & !bit(*e));
            let without = self.optimize_group(g, without_mask);
            alts.push((*without).clone());
        }
        let best = alts
            .into_iter()
            .min_by(|a, b| a.cost.total_cmp(&b.cost))
            .unwrap_or_else(|| panic!("group {g} has no implementable expression"));
        let rc = Rc::new(best);
        self.cache.insert((g, eff_mask), rc.clone());
        rc
    }

    /// C_E + C_W of a candidate under `mask` (E itself excluded), plus the
    /// definition's plan choice for stacked-usage propagation.
    fn init_cost(&mut self, e: CseId, mask: CseMask) -> (f64, Rc<PlanChoice>) {
        let cand = self.candidates.get(&e).expect("unknown candidate").clone();
        let sub_mask = (mask & !bit(e)) & self.relevant_mask(cand.def_root);
        let def = if let Some(d) = self.def_cache.get(&(e, sub_mask)) {
            d.clone()
        } else {
            let d = self.optimize_group(cand.def_root, sub_mask);
            self.def_cache.insert((e, sub_mask), d.clone());
            d
        };
        let cw = self.model.spool_write(cand.est_rows, cand.est_width);
        (def.cost + cw, def)
    }

    fn selectivity(&self, pred: &Scalar) -> f64 {
        Selectivity::new(&self.memo.ctx, self.stats).of(pred)
    }

    /// Implement one group expression physically. Returns zero or more
    /// alternatives.
    fn implement_expr(
        &mut self,
        g: GroupId,
        e: &cse_memo::GroupExpr,
        mask: CseMask,
    ) -> Vec<PlanChoice> {
        let out_rows = self.group_rows(g);
        let mut alts = Vec::new();
        match &e.op {
            Op::Get { rel } => {
                let rel = *rel;
                let layout: Vec<ColRef> = self.memo.group(g).props.output_cols.clone();
                let width = self.rows.width(g);
                alts.push(PlanChoice {
                    plan: PhysicalPlan::TableScan {
                        rel,
                        filter: None,
                        layout,
                    },
                    cost: self.model.scan(out_rows, width),
                    rows: out_rows,
                    usage: BTreeMap::new(),
                    charged: BTreeSet::new(),
                });
            }
            Op::Filter { pred } => {
                let child = self.optimize_group(e.children[0], mask);
                alts.push(PlanChoice {
                    plan: PhysicalPlan::Filter {
                        input: Box::new(child.plan.clone()),
                        pred: pred.clone(),
                    },
                    cost: child.cost + self.model.filter(child.rows),
                    rows: out_rows,
                    usage: child.usage.clone(),
                    charged: child.charged.clone(),
                });
                // Index range scan: Filter directly over a Get whose
                // filtered column carries a B-tree index.
                if let Some(alt) = self.try_index_scan(g, e.children[0], pred, out_rows) {
                    alts.push(alt);
                }
            }
            Op::Join { pred } => {
                let left = self.optimize_group(e.children[0], mask);
                let right = self.optimize_group(e.children[1], mask);
                let l_rels = self.memo.group(e.children[0]).props.rels;
                let r_rels = self.memo.group(e.children[1]).props.rels;
                let mut keys = Vec::new();
                let mut residual = Vec::new();
                for c in pred.conjuncts() {
                    match c.as_col_eq_col() {
                        Some((a, b)) if l_rels.contains(a.rel) && r_rels.contains(b.rel) => {
                            keys.push((a, b))
                        }
                        Some((a, b)) if r_rels.contains(a.rel) && l_rels.contains(b.rel) => {
                            keys.push((b, a))
                        }
                        _ => residual.push(c),
                    }
                }
                let mut layout: Vec<ColRef> = left.plan.layout().to_vec();
                layout.extend_from_slice(right.plan.layout());
                let usage = merge_usage(&left.usage, &right.usage);
                let charged: BTreeSet<CseId> =
                    left.charged.union(&right.charged).copied().collect();
                if keys.is_empty() {
                    let cost = left.cost
                        + right.cost
                        + self.model.nl_join(left.rows, right.rows, out_rows);
                    alts.push(PlanChoice {
                        plan: PhysicalPlan::NlJoin {
                            left: Box::new(left.plan.clone()),
                            right: Box::new(right.plan.clone()),
                            pred: pred.clone(),
                            layout,
                        },
                        cost,
                        rows: out_rows,
                        usage,
                        charged,
                    });
                } else {
                    let cost = left.cost
                        + right.cost
                        + self.model.hash_join(left.rows, right.rows, out_rows)
                        + if residual.is_empty() {
                            0.0
                        } else {
                            self.model.filter(out_rows)
                        };
                    alts.push(PlanChoice {
                        plan: PhysicalPlan::HashJoin {
                            left: Box::new(left.plan.clone()),
                            right: Box::new(right.plan.clone()),
                            keys,
                            residual: if residual.is_empty() {
                                None
                            } else {
                                Some(Scalar::and(residual))
                            },
                            layout,
                        },
                        cost,
                        rows: out_rows,
                        usage,
                        charged,
                    });
                }
            }
            Op::Aggregate { keys, aggs, out } => {
                let child = self.optimize_group(e.children[0], mask);
                let mut layout = keys.clone();
                layout.extend((0..aggs.len()).map(|i| ColRef::new(*out, i as u16)));
                alts.push(PlanChoice {
                    plan: PhysicalPlan::HashAggregate {
                        input: Box::new(child.plan.clone()),
                        keys: keys.clone(),
                        aggs: aggs.clone(),
                        out: *out,
                        layout,
                    },
                    cost: child.cost + self.model.hash_agg(child.rows, out_rows),
                    rows: out_rows,
                    usage: child.usage.clone(),
                    charged: child.charged.clone(),
                });
            }
            Op::Project { exprs } => {
                let child = self.optimize_group(e.children[0], mask);
                alts.push(PlanChoice {
                    plan: PhysicalPlan::Project {
                        input: Box::new(child.plan.clone()),
                        exprs: exprs.clone(),
                    },
                    cost: child.cost + self.model.project(child.rows),
                    rows: out_rows,
                    usage: child.usage.clone(),
                    charged: child.charged.clone(),
                });
            }
            Op::Sort { keys } => {
                let child = self.optimize_group(e.children[0], mask);
                alts.push(PlanChoice {
                    plan: PhysicalPlan::Sort {
                        input: Box::new(child.plan.clone()),
                        keys: keys.clone(),
                    },
                    cost: child.cost + self.model.sort(child.rows),
                    rows: out_rows,
                    usage: child.usage.clone(),
                    charged: child.charged.clone(),
                });
            }
            Op::Batch => {
                let children: Vec<Rc<PlanChoice>> = e
                    .children
                    .iter()
                    .map(|c| self.optimize_group(*c, mask))
                    .collect();
                let cost = children.iter().map(|c| c.cost).sum();
                let mut usage = BTreeMap::new();
                let mut charged = BTreeSet::new();
                for c in &children {
                    usage = merge_usage(&usage, &c.usage);
                    charged.extend(c.charged.iter().copied());
                }
                alts.push(PlanChoice {
                    plan: PhysicalPlan::Batch {
                        children: children.iter().map(|c| c.plan.clone()).collect(),
                    },
                    cost,
                    rows: out_rows,
                    usage,
                    charged,
                });
            }
        }
        alts
    }

    /// `Filter(Get)` with a range/equality atom on an indexed column.
    fn try_index_scan(
        &mut self,
        g: GroupId,
        child: GroupId,
        pred: &Scalar,
        out_rows: f64,
    ) -> Option<PlanChoice> {
        let child_expr = self.memo.gexpr(self.memo.group(child).exprs[0]);
        let rel = match child_expr.op {
            Op::Get { rel } => rel,
            _ => return None,
        };
        let info = self.memo.ctx.rel(rel);
        let ranges = cse_algebra::column_ranges(pred);
        let (col, interval) = ranges.iter().find(|(c, iv)| {
            c.rel == rel
                && (iv.lo.is_some() || iv.hi.is_some())
                && self
                    .indexes
                    .btree
                    .contains(&(info.name.to_ascii_lowercase(), c.col))
        })?;
        // Residual: everything except the *range/equality* conjuncts on the
        // indexed column — those are subsumed by the interval. `<>` bounds
        // nothing and must stay in the residual.
        let residual: Vec<Scalar> = pred
            .conjuncts()
            .into_iter()
            .filter(|c| {
                c.as_col_vs_lit()
                    .map(|(cc, op, _)| cc != *col || op == cse_algebra::CmpOp::Ne)
                    .unwrap_or(true)
            })
            .collect();
        let layout: Vec<ColRef> = self.memo.group(child).props.output_cols.clone();
        let matched = out_rows.max(1.0);
        let cost = self.model.index_lookup(1.0, matched)
            + if residual.is_empty() {
                0.0
            } else {
                self.model.filter(matched)
            };
        let _ = g;
        Some(PlanChoice {
            plan: PhysicalPlan::IndexRangeScan {
                rel,
                col: *col,
                lo: interval.lo.clone(),
                hi: interval.hi.clone(),
                residual: if residual.is_empty() {
                    None
                } else {
                    Some(Scalar::and(residual))
                },
                layout,
            },
            cost,
            rows: out_rows,
            usage: BTreeMap::new(),
            charged: BTreeSet::new(),
        })
    }

    /// Build the consumer-side spool read alternative for a substitute.
    fn implement_cse_read(&mut self, g: GroupId, s: &Substitute) -> Option<PlanChoice> {
        let cand = self.candidates.get(&s.cse)?.clone();
        let out_rows = self.group_rows(g);
        let mut cost = self.model.spool_read(cand.est_rows, cand.est_width);
        let mut rows_after = cand.est_rows;
        if let Some(f) = &s.filter {
            cost += self.model.filter(cand.est_rows);
            rows_after *= self.selectivity(f).max(1e-9);
        }
        if s.reagg.is_some() {
            cost += self.model.hash_agg(rows_after, out_rows);
        }
        cost += self.model.project(out_rows);
        let layout: Vec<ColRef> = s.output_map.iter().map(|(c, _)| *c).collect();
        let mut usage = BTreeMap::new();
        usage.insert(s.cse, 1);
        Some(PlanChoice {
            plan: PhysicalPlan::CseRead {
                cse: s.cse,
                filter: s.filter.clone(),
                reagg: s.reagg.as_ref().map(|r| ReAgg {
                    keys: r.keys.clone(),
                    aggs: r.aggs.clone(),
                    out: r.out,
                }),
                output_map: s.output_map.clone(),
                layout,
            },
            cost,
            rows: out_rows,
            usage,
            charged: BTreeSet::new(),
        })
    }

    /// Optimize the whole statement (batch) under an enabled mask and
    /// assemble the executable plan: validates usage counts, charges any
    /// initial costs not already charged at an LCA, and collects spool
    /// definitions (transitively, for stacked CSEs).
    pub fn optimize_full(&mut self, root: GroupId, mask: CseMask) -> FullPlan {
        let mut mask = mask;
        loop {
            let choice = self.optimize_group(root, mask);
            // Reject CSEs that ended up with exactly one uncharged consumer.
            if let Some((&e, _)) = choice.usage.iter().find(|(_, &n)| n == 1) {
                mask &= !bit(e);
                continue;
            }
            let mut total = choice.cost;
            let mut spools: BTreeMap<CseId, SpoolDef> = BTreeMap::new();
            let mut pending: Vec<CseId> = choice.charged.iter().copied().collect();
            // Charge remaining (root-charged) CSEs.
            let mut extra_usage = choice.usage.clone();
            let mut retry = false;
            while let Some((&e, &n)) = extra_usage.iter().next() {
                extra_usage.remove(&e);
                if n == 0 {
                    continue;
                }
                if n == 1 {
                    mask &= !bit(e);
                    retry = true;
                    break;
                }
                let (init, def) = self.init_cost(e, mask);
                total += init;
                pending.push(e);
                for (k, v) in def.usage.iter() {
                    *extra_usage.entry(*k).or_insert(0) += v;
                }
                pending.extend(def.charged.iter().copied());
            }
            if retry {
                continue;
            }
            // Collect spool definitions transitively.
            while let Some(e) = pending.pop() {
                if spools.contains_key(&e) {
                    continue;
                }
                let cand = match self.candidates.get(&e) {
                    Some(c) => c.clone(),
                    None => continue,
                };
                let (_, def) = self.init_cost(e, mask);
                pending.extend(def.charged.iter().copied());
                pending.extend(def.usage.keys().copied());
                spools.insert(
                    e,
                    SpoolDef {
                        plan: def.plan.clone(),
                        layout: cand.output.clone(),
                        est_rows: cand.est_rows,
                    },
                );
            }
            return FullPlan {
                root: choice.plan.clone(),
                spools,
                cost: total,
                baseline: None,
            };
        }
    }
}

fn merge_usage(a: &BTreeMap<CseId, u32>, b: &BTreeMap<CseId, u32>) -> BTreeMap<CseId, u32> {
    let mut out = a.clone();
    for (k, v) in b {
        *out.entry(*k).or_insert(0) += v;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_algebra::{LogicalPlan, PlanContext};
    use cse_memo::{explore, ExploreConfig};
    use cse_storage::{row, Catalog, DataType, Schema, Table, Value};
    use std::sync::Arc;

    /// fact(k, v): 2000 rows, k in 0..200; dim(k): 200 rows unique.
    fn setup() -> (Memo, StatsCatalog, Catalog) {
        let mut fact = Table::new(
            "fact",
            Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Float)]),
        );
        for i in 0..2000i64 {
            fact.push(row(vec![Value::Int(i % 200), Value::Float(i as f64)]))
                .unwrap();
        }
        let mut dim = Table::new(
            "dim",
            Schema::from_pairs(&[("k", DataType::Int), ("w", DataType::Int)]),
        );
        for i in 0..200i64 {
            dim.push(row(vec![Value::Int(i), Value::Int(i % 7)]))
                .unwrap();
        }
        let mut cat = Catalog::new();
        cat.register_table(fact).unwrap();
        cat.register_table(dim).unwrap();
        let stats = StatsCatalog::from_catalog(&cat);

        let mut ctx = PlanContext::new();
        let b = ctx.new_block();
        let fs = Arc::new(Schema::from_pairs(&[
            ("k", DataType::Int),
            ("v", DataType::Float),
        ]));
        let ds = Arc::new(Schema::from_pairs(&[
            ("k", DataType::Int),
            ("w", DataType::Int),
        ]));
        let f = ctx.add_base_rel("fact", "fact", fs, b);
        let d = ctx.add_base_rel("dim", "dim", ds, b);
        let plan = LogicalPlan::get(f).join(
            LogicalPlan::get(d),
            Scalar::eq(Scalar::col(f, 0), Scalar::col(d, 0)),
        );
        let mut memo = Memo::new(ctx);
        memo.insert_plan(&plan);
        explore(&mut memo, &ExploreConfig::default());
        (memo, stats, cat)
    }

    #[test]
    fn baseline_optimization_produces_hash_join() {
        let (memo, stats, cat) = setup();
        let mut opt = Optimizer::new(
            &memo,
            &stats,
            CostModel::default(),
            IndexInfo::from_catalog(&cat),
        );
        let choice = opt.optimize_group(memo.root(), 0);
        assert!(matches!(choice.plan, PhysicalPlan::HashJoin { .. }));
        assert!(choice.cost > 0.0);
        assert!(choice.usage.is_empty());
    }

    #[test]
    fn cache_hits_on_second_call() {
        let (memo, stats, cat) = setup();
        let mut opt = Optimizer::new(
            &memo,
            &stats,
            CostModel::default(),
            IndexInfo::from_catalog(&cat),
        );
        opt.optimize_group(memo.root(), 0);
        let n = opt.group_optimizations;
        opt.optimize_group(memo.root(), 0);
        assert_eq!(opt.group_optimizations, n);
    }

    #[test]
    fn build_side_choice_prefers_smaller_build() {
        // With commuted alternatives explored, the optimizer should build
        // on the smaller (dim) side.
        let (memo, stats, cat) = setup();
        let mut opt = Optimizer::new(
            &memo,
            &stats,
            CostModel::default(),
            IndexInfo::from_catalog(&cat),
        );
        let choice = opt.optimize_group(memo.root(), 0);
        if let PhysicalPlan::HashJoin { left, .. } = &choice.plan {
            if let PhysicalPlan::TableScan { rel, .. } = left.as_ref() {
                assert_eq!(memo.ctx.rel(*rel).name, "dim");
                return;
            }
        }
        panic!("expected HashJoin over TableScan build side");
    }

    #[test]
    fn optimize_full_without_candidates() {
        let (memo, stats, cat) = setup();
        let mut opt = Optimizer::new(
            &memo,
            &stats,
            CostModel::default(),
            IndexInfo::from_catalog(&cat),
        );
        let full = opt.optimize_full(memo.root(), 0);
        assert!(full.spools.is_empty());
        assert!(full.cost > 0.0);
    }
}
