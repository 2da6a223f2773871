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
//!
//! The search only costs: a memoized winner records its cost, its spool
//! bookkeeping and *how it is built* — a group expression over its
//! children's winners. [`Optimizer::cost_full`] settles a whole statement
//! under a mask without building a tree, and the operator tree, predicates
//! rebuilt from the memo's interned conjuncts, is built by one extraction
//! per returned plan ([`Optimizer::optimize_full`]).

use crate::physical::{CseId, FullPlan, PhysicalPlan, ReAgg, SpoolDef};
use crate::rows::GroupRows;
use crate::substitute::{CseCandidate, Substitute};
use cse_algebra::{ColRef, Scalar};
use cse_cost::{CostModel, Selectivity, StatsCatalog};
use cse_memo::{ConjId, GroupExpr, GroupExprId, GroupId, Memo, Op};
use cse_storage::lowered;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// Which columns have a B-tree and a hash index: column ordinals by
/// lower-cased table name, a table without one absent.
#[derive(Debug, Clone, Default)]
pub struct IndexInfo {
    pub btree: HashMap<String, Vec<u16>>,
    pub hash: HashMap<String, Vec<u16>>,
}

impl IndexInfo {
    pub fn from_catalog(catalog: &cse_storage::Catalog) -> Self {
        let mut info = IndexInfo::default();
        for name in catalog.table_names() {
            if let Ok(entry) = catalog.get(name) {
                let btree: Vec<u16> = entry
                    .btree_indexes
                    .iter()
                    .map(|i| i.column as u16)
                    .collect();
                let hash: Vec<u16> = entry.hash_indexes.iter().map(|i| i.column as u16).collect();
                // Catalog keys are lower-cased names.
                for (kind, cols) in [(&mut info.btree, btree), (&mut info.hash, hash)] {
                    if !cols.is_empty() {
                        kind.insert(name.to_owned(), cols);
                    }
                }
            }
        }
        info
    }

    /// Whether `kind` (`btree` or `hash`) indexes column `col` of `table`.
    pub fn covers(kind: &HashMap<String, Vec<u16>>, table: &str, col: u16) -> bool {
        kind.get(lowered(table).as_ref())
            .is_some_and(|cols| cols.contains(&col))
    }
}

/// An optimized (sub)plan: its cost, its CSE bookkeeping and how it is
/// built. The operator tree is [`Optimizer::extract`]'s to build.
#[derive(Debug, Clone)]
pub struct PlanChoice {
    pub cost: f64,
    pub rows: f64,
    /// Uncharged spool reads below this plan.
    pub usage: Usage,
    /// CSEs whose initial cost has already been added (at their LCA), each
    /// with the definition winner it was costed as — the one its spool is
    /// extracted from — ascending by id.
    pub charged: Vec<(CseId, Rc<PlanChoice>)>,
    build: Build,
}

/// Add `defs` to the charged list `into`: a CSE keeps the first definition
/// it was charged with.
fn merge_charged(into: &mut Vec<(CseId, Rc<PlanChoice>)>, defs: &[(CseId, Rc<PlanChoice>)]) {
    for (e, def) in defs {
        if let Err(at) = into.binary_search_by_key(e, |(id, _)| *id) {
            into.insert(at, (*e, def.clone()));
        }
    }
}

#[derive(Debug, Clone)]
enum Build {
    /// A finished leaf: `IndexRangeScan` or `CseRead`.
    Leaf(PhysicalPlan),
    /// A group expression over its children's winners.
    Expr(GroupExprId, Vec<Rc<PlanChoice>>),
    /// A join expression as an index nested-loops join over the winner of
    /// its left input; the right input is read through its index.
    IndexJoin(GroupExprId, Rc<PlanChoice>),
}

/// What costing reads of a join expression, derived once per expression.
#[derive(Debug, Clone, Copy)]
struct JoinShape {
    keyed: bool,
    residual: bool,
    /// The indexed column of the right input an index nested-loops join
    /// probes, and whether anything is left for its residual.
    probe: Option<(ColRef, bool)>,
}

/// Spool reads per CSE, indexed by `CseId.0`; a missing entry reads as 0.
#[derive(Debug, Clone, Default)]
pub struct Usage(Vec<u32>);

impl Usage {
    pub fn get(&self, id: CseId) -> u32 {
        self.0.get(id.0 as usize).copied().unwrap_or(0)
    }

    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&n| n == 0)
    }

    /// The CSEs read at least once with their counts, ascending by id.
    pub fn iter(&self) -> impl Iterator<Item = (CseId, u32)> + '_ {
        let counts = self.0.iter().enumerate().filter(|(_, &n)| n > 0);
        counts.map(|(i, &n)| (CseId(i as u32), n))
    }

    fn add(&mut self, id: CseId, n: u32) {
        let i = id.0 as usize;
        if self.0.len() <= i {
            self.0.resize(i + 1, 0);
        }
        self.0[i] += n;
    }

    fn merge(&mut self, other: &Usage) {
        other.iter().for_each(|(id, n)| self.add(id, n));
    }

    /// Remove and return one CSE's count.
    fn take(&mut self, id: CseId) -> u32 {
        self.0.get_mut(id.0 as usize).map_or(0, std::mem::take)
    }
}

/// Bitmask over candidate CSE ids (at most 64 candidates per phase, which
/// comfortably covers the paper's worst case of 51).
pub type CseMask = u64;

pub fn bit(id: CseId) -> CseMask {
    1u64 << id.0
}

/// The ids in a mask, ascending.
fn ids(mask: CseMask) -> impl Iterator<Item = CseId> {
    (0..64).filter(move |i| mask >> i & 1 == 1).map(CseId)
}

pub struct Optimizer<'a> {
    pub memo: &'a Memo,
    pub stats: &'a StatsCatalog,
    pub model: &'a CostModel,
    pub indexes: &'a IndexInfo,
    rows: GroupRows<'a>,
    candidates: BTreeMap<CseId, CseCandidate>,
    substitutes: HashMap<GroupId, Vec<Substitute>>,
    /// Per group: mask of CSEs with a consumer at or below the group.
    relevant: HashMap<GroupId, CseMask>,
    /// Per group: mask of CSEs whose least common ancestor it is.
    lca_at: HashMap<GroupId, CseMask>,
    join_shape: HashMap<GroupExprId, JoinShape>,
    /// Per filter expression: its index range scan, if it has one.
    index_scan: HashMap<GroupExprId, Option<PlanChoice>>,
    cache: HashMap<(GroupId, CseMask), Rc<PlanChoice>>,
    /// Number of `optimize_group` invocations that missed the cache —
    /// a proxy for optimization work, reported by the benchmarks.
    pub group_optimizations: u64,
}

impl<'a> Optimizer<'a> {
    pub fn new(
        memo: &'a Memo,
        stats: &'a StatsCatalog,
        model: &'a CostModel,
        indexes: &'a IndexInfo,
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
            lca_at: HashMap::new(),
            join_shape: HashMap::new(),
            index_scan: HashMap::new(),
            cache: HashMap::new(),
            group_optimizations: 0,
        }
    }

    /// Estimated rows of a group (cached logical property).
    pub fn group_rows(&mut self, g: GroupId) -> f64 {
        self.rows.rows(g)
    }

    /// Register the candidates and substitutes of the CSE phase. Winners
    /// under the empty mask stay valid and are kept — that is the §5.4
    /// history reuse.
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
        self.lca_at.clear();
        for c in self.candidates.values() {
            if let Some(lca) = c.lca {
                *self.lca_at.entry(lca).or_insert(0) |= bit(c.id);
            }
        }
        self.compute_relevant();
    }

    /// Propagate "has a consumer below" masks upward through the memo DAG.
    fn compute_relevant(&mut self) {
        let memo = self.memo;
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
            for &eid in &memo.group(g).parents {
                let p = memo.group_of(eid);
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
    #[expect(
        clippy::panic,
        reason = "memo invariant: groups are never empty of implementable expressions; panic is caught around the CSE phase and downgraded as OPT_PANIC"
    )]
    pub fn optimize_group(&mut self, g: GroupId, mask: CseMask) -> Rc<PlanChoice> {
        let eff_mask = mask & self.relevant_mask(g);
        if let Some(c) = self.cache.get(&(g, eff_mask)) {
            return c.clone();
        }
        self.group_optimizations += 1;
        let memo = self.memo;
        let out_rows = self.group_rows(g);
        let mut alts: Vec<PlanChoice> = Vec::new();
        for &eid in &memo.group(g).exprs {
            self.implement_expr(eid, out_rows, mask, &mut alts);
        }
        // View-matching substitutes for enabled candidates (§5.1: the rule
        // is enabled only for registered consumer expressions).
        for s in self.substitutes.get(&g).into_iter().flatten() {
            if eff_mask & bit(s.cse) != 0 {
                alts.extend(self.implement_cse_read(out_rows, s));
            }
        }
        // LCA handling (§5.2): candidates whose least common ancestor is
        // this group get their initial cost added here, and single-consumer
        // plans are discarded.
        let lca_here = eff_mask & self.lca_at.get(&g).copied().unwrap_or(0);
        if lca_here != 0 {
            let mut kept: Vec<PlanChoice> = Vec::new();
            'alt: for mut alt in alts {
                for e in ids(lca_here) {
                    match alt.usage.take(e) {
                        0 => {}
                        1 => continue 'alt,
                        _ => {
                            // Stacked reads inside the definition surface
                            // at this level.
                            let (init, def) = self.init_cost(e, mask);
                            alt.cost += init;
                            merge_charged(&mut alt.charged, &def.charged);
                            alt.usage.merge(&def.usage);
                            merge_charged(&mut alt.charged, &[(e, def)]);
                        }
                    }
                }
                kept.push(alt);
            }
            alts = kept;
            // Always compare against (and fall back to) the plan that does
            // not use these candidates at all.
            let without = self.optimize_group(g, mask & !lca_here);
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
    #[expect(
        clippy::expect_used,
        reason = "lca_at holds only ids of registered candidates, so every id it yields is in self.candidates"
    )]
    fn init_cost(&mut self, e: CseId, mask: CseMask) -> (f64, Rc<PlanChoice>) {
        let cand = self.candidates.get(&e).expect("unknown candidate");
        let cw = self.model.spool_write(cand.est_rows, cand.est_width);
        // The definition sees only the candidates relevant to it; its
        // winner is memoized like any group's.
        let def_root = cand.def_root;
        let def = self.optimize_group(def_root, mask & !bit(e) & self.relevant_mask(def_root));
        (def.cost + cw, def)
    }

    /// Implement one group expression of a group with `out_rows` rows over
    /// its children's winners; a filter may add an index scan beside it.
    fn implement_expr(
        &mut self,
        eid: GroupExprId,
        out_rows: f64,
        mask: CseMask,
        alts: &mut Vec<PlanChoice>,
    ) {
        let memo = self.memo;
        let e = memo.gexpr(eid);
        let kids: Vec<Rc<PlanChoice>> = e
            .children
            .iter()
            .map(|&c| self.optimize_group(c, mask))
            .collect();
        let input: f64 = kids.iter().map(|k| k.cost).sum();
        let mut probe = None;
        let cost = match &e.op {
            Op::Get { .. } => {
                let width = self.rows.width(memo.group_of(eid));
                self.model.scan(out_rows, width)
            }
            Op::Filter { .. } => input + self.model.filter(kids[0].rows),
            Op::Join { pred } => {
                let indexes = self.indexes;
                let shape = *self.join_shape.entry(eid).or_insert_with(|| {
                    let (keys, residual) = split_join(memo, e, pred);
                    // Without a hash index in the catalog this is the one
                    // check an index join costs.
                    let probe = (!indexes.hash.is_empty())
                        .then(|| index_probe(memo, indexes, e, &keys))
                        .flatten()
                        .map(|(key, filter)| {
                            (
                                key.1,
                                keys.len() > 1 || !residual.is_empty() || filter.is_some(),
                            )
                        });
                    JoinShape {
                        keyed: !keys.is_empty(),
                        residual: !residual.is_empty(),
                        probe,
                    }
                });
                probe = shape.probe;
                let (l, r) = (kids[0].rows, kids[1].rows);
                if !shape.keyed {
                    input + self.model.nl_join(l, r, out_rows)
                } else if shape.residual {
                    input + self.model.hash_join(l, r, out_rows) + self.model.filter(out_rows)
                } else {
                    input + self.model.hash_join(l, r, out_rows)
                }
            }
            Op::Aggregate { .. } => input + self.model.hash_agg(kids[0].rows, out_rows),
            Op::Project { .. } => input + self.model.project(kids[0].rows),
            Op::Sort { .. } => input + self.model.sort(kids[0].rows),
            Op::Batch => input,
        };
        let mut usage = Usage::default();
        let mut charged = Vec::new();
        for k in &kids {
            usage.merge(&k.usage);
            merge_charged(&mut charged, &k.charged);
        }
        // Index nested-loops join: each left row probes the right input's
        // hash index and fetches its matches (rows / ndv of them a probe);
        // the commuted expression offers the other side.
        let index_join = probe.map(|(col, residual)| {
            let (outer, ctx) = (&kids[0], &memo.ctx);
            let per_probe = self.stats.rel_rows(ctx, col.rel) / self.stats.col_ndv(ctx, col);
            let matches = outer.rows * per_probe;
            let mut cost = outer.cost + self.model.index_lookup(outer.rows, matches);
            if residual {
                cost += self.model.filter(matches);
            }
            PlanChoice {
                cost,
                rows: out_rows,
                usage: outer.usage.clone(),
                charged: outer.charged.clone(),
                build: Build::IndexJoin(eid, outer.clone()),
            }
        });
        alts.push(PlanChoice {
            cost,
            rows: out_rows,
            usage,
            charged,
            build: Build::Expr(eid, kids),
        });
        // Index range scan: Filter directly over a Get whose filtered
        // column carries a B-tree index.
        if let Op::Filter { pred } = &e.op {
            if !self.index_scan.contains_key(&eid) {
                let scan = self.try_index_scan(e.children[0], pred, out_rows);
                self.index_scan.insert(eid, scan);
            }
            alts.extend(self.index_scan.get(&eid).cloned().flatten());
        }
        alts.extend(index_join);
    }

    /// `Filter(Get)` with a range/equality atom on an indexed column. The
    /// interval only narrows the scan; the executor decides every row the
    /// index returns by the whole `pred`.
    fn try_index_scan(&self, child: GroupId, pred: &[ConjId], out_rows: f64) -> Option<PlanChoice> {
        let memo = self.memo;
        let child_expr = memo.gexpr(memo.group(child).exprs[0]);
        let rel = match child_expr.op {
            Op::Get { rel } => rel,
            _ => return None,
        };
        let info = memo.ctx.rel(rel);
        let ranges = cse_algebra::ranges_of(memo.conjuncts(pred).map(|(_, c)| &c.scalar));
        let (col, interval) = ranges.iter().find(|(c, iv)| {
            c.rel == rel
                && (iv.lo.is_some() || iv.hi.is_some())
                && iv.in_class_of(memo.ctx.col_type(**c))
                && IndexInfo::covers(&self.indexes.btree, &info.name, c.col)
        })?;
        // Range conjuncts on the indexed column are re-checked inside the
        // per-match cost; anything else (`<>` included) costs a filter pass.
        let only_ranges = memo.conjuncts(pred).all(|(_, c)| {
            c.scalar
                .as_col_vs_lit()
                .is_some_and(|(cc, op, _)| cc == *col && op != cse_algebra::CmpOp::Ne)
        });
        let layout: Vec<ColRef> = memo.group(child).props.output_cols.clone();
        let matched = out_rows.max(1.0);
        let cost = self.model.index_lookup(1.0, matched)
            + if only_ranges {
                0.0
            } else {
                self.model.filter(matched)
            };
        Some(PlanChoice {
            cost,
            rows: out_rows,
            usage: Usage::default(),
            charged: Vec::new(),
            build: Build::Leaf(PhysicalPlan::IndexRangeScan {
                rel,
                col: *col,
                interval: interval.clone(),
                pred: memo.pred(pred),
                layout,
            }),
        })
    }

    /// Build the consumer-side spool read alternative for a substitute.
    fn implement_cse_read(&self, out_rows: f64, s: &Substitute) -> Option<PlanChoice> {
        let cand = self.candidates.get(&s.cse)?;
        let mut cost = self.model.spool_read(cand.est_rows, cand.est_width);
        let mut rows_after = cand.est_rows;
        if let Some(f) = &s.filter {
            cost += self.model.filter(cand.est_rows);
            let sel = Selectivity::new(&self.memo.ctx, self.stats).of(f);
            rows_after *= sel.max(1e-9);
        }
        if s.reagg.is_some() {
            cost += self.model.hash_agg(rows_after, out_rows);
        }
        cost += self.model.project(out_rows);
        let mut usage = Usage::default();
        usage.add(s.cse, 1);
        Some(PlanChoice {
            cost,
            rows: out_rows,
            usage,
            charged: Vec::new(),
            build: Build::Leaf(PhysicalPlan::CseRead {
                cse: s.cse,
                filter: s.filter.clone(),
                reagg: s.reagg.as_ref().map(|r| ReAgg {
                    keys: r.keys.clone(),
                    aggs: r.aggs.clone(),
                    out: r.out,
                }),
                output_map: s.output_map.clone(),
                layout: s.output_map.iter().map(|(c, _)| *c).collect(),
            }),
        })
    }

    /// Build the operator tree of a winner. Join keys, residuals and
    /// layouts are derived here, once per returned plan.
    #[expect(
        clippy::expect_used,
        reason = "a winner holds one child winner per child group of its expression"
    )]
    pub fn extract(&self, choice: &PlanChoice) -> PhysicalPlan {
        let (eid, kids) = match &choice.build {
            Build::Leaf(plan) => return plan.clone(),
            Build::IndexJoin(eid, outer) => return self.extract_index_join(*eid, outer),
            Build::Expr(eid, kids) => (*eid, kids),
        };
        let memo = self.memo;
        let e = memo.gexpr(eid);
        let mut kids = kids.iter().map(|k| self.extract(k));
        let mut input = || Box::new(kids.next().expect("one winner per child group"));
        match &e.op {
            Op::Get { rel } => PhysicalPlan::TableScan {
                rel: *rel,
                layout: memo.group(memo.group_of(eid)).props.output_cols.clone(),
            },
            Op::Filter { pred } => PhysicalPlan::Filter {
                input: input(),
                pred: memo.pred(pred),
            },
            Op::Join { pred } => {
                let (left, right) = (input(), input());
                let (keys, residual) = split_join(memo, e, pred);
                let mut layout: Vec<ColRef> = left.layout().to_vec();
                layout.extend_from_slice(right.layout());
                if keys.is_empty() {
                    PhysicalPlan::NlJoin {
                        left,
                        right,
                        pred: memo.pred(pred),
                        layout,
                    }
                } else {
                    let residual = (!residual.is_empty()).then(|| memo.pred(&residual));
                    PhysicalPlan::HashJoin {
                        left,
                        right,
                        keys,
                        residual,
                        layout,
                    }
                }
            }
            Op::Aggregate { keys, aggs, out } => {
                let mut layout = keys.clone();
                layout.extend((0..aggs.len()).map(|i| ColRef::new(*out, i as u16)));
                PhysicalPlan::HashAggregate {
                    input: input(),
                    keys: keys.clone(),
                    aggs: aggs.clone(),
                    out: *out,
                    layout,
                }
            }
            Op::Project { exprs } => PhysicalPlan::Project {
                input: input(),
                exprs: exprs.clone(),
            },
            Op::Sort { keys } => PhysicalPlan::Sort {
                input: input(),
                keys: keys.clone(),
            },
            Op::Batch => PhysicalPlan::Batch {
                children: kids.collect(),
            },
        }
    }

    /// The index nested-loops join of join expression `eid` over the
    /// winner `outer` of its left input: the probed key as costed, and
    /// every other conjunct, with the filter over the right input, as the
    /// residual.
    #[expect(
        clippy::expect_used,
        reason = "Build::IndexJoin is chosen only where index_probe found a probe, and extraction re-derives the same probe"
    )]
    fn extract_index_join(&self, eid: GroupExprId, outer: &PlanChoice) -> PhysicalPlan {
        let memo = self.memo;
        let e = memo.gexpr(eid);
        let pred = match &e.op {
            Op::Join { pred } => Some(pred),
            _ => None,
        };
        let (keys, residual) = pred.map(|p| split_join(memo, e, p)).unwrap_or_default();
        let (key, filter) =
            index_probe(memo, self.indexes, e, &keys).expect("costed as an index join");
        let mut residual: Vec<Scalar> = residual
            .iter()
            .map(|&c| memo.conj(c).scalar.clone())
            .collect();
        let others = keys.iter().filter(|k| **k != key);
        residual.extend(others.map(|(a, b)| Scalar::eq(Scalar::Col(*a), Scalar::Col(*b))));
        let filter = filter.into_iter().flat_map(|f| memo.conjuncts(f));
        residual.extend(filter.map(|(_, c)| c.scalar.clone()));
        let outer = Box::new(self.extract(outer));
        let mut layout = outer.layout().to_vec();
        layout.extend_from_slice(&memo.group(e.children[1]).props.output_cols);
        PhysicalPlan::IndexNlJoin {
            outer,
            rel: key.1.rel,
            key,
            residual: (!residual.is_empty()).then(|| Scalar::and(residual)),
            layout,
        }
    }

    /// The cost pass over the whole statement (batch) under an enabled
    /// mask: validates usage counts, disabling a CSE read only once and
    /// retrying, and charges any initial costs not already charged at an
    /// LCA (§5.2). Builds no tree.
    pub fn cost_full(&mut self, root: GroupId, mut mask: CseMask) -> Costed {
        'retry: loop {
            let choice = self.optimize_group(root, mask);
            // Reject CSEs that ended up with exactly one uncharged consumer.
            if let Some((e, _)) = choice.usage.iter().find(|&(_, n)| n == 1) {
                mask &= !bit(e);
                continue;
            }
            let mut cost = choice.cost;
            // Charge remaining (root-charged) CSEs, lowest id first; the
            // reads of a charged definition surface here like at an LCA.
            let mut charged = choice.charged.clone();
            let mut uncharged = choice.usage.clone();
            loop {
                let Some((e, n)) = uncharged.iter().next() else {
                    break;
                };
                uncharged.take(e);
                if n == 1 {
                    mask &= !bit(e);
                    continue 'retry;
                }
                let (init, def) = self.init_cost(e, mask);
                cost += init;
                merge_charged(&mut charged, &def.charged);
                uncharged.merge(&def.usage);
                merge_charged(&mut charged, &[(e, def)]);
            }
            return Costed {
                cost,
                charged,
                choice,
            };
        }
    }

    /// The executable plan of a cost pass: the root tree, and each spool
    /// extracted from the definition winner it was charged with, so the
    /// plan executes exactly what it was costed as (§5.2).
    fn extract_full(&self, costed: &Costed) -> FullPlan {
        let spools = costed
            .charged
            .iter()
            .map(|(e, def)| {
                let cand = &self.candidates[e];
                let def = SpoolDef {
                    plan: self.extract(def),
                    layout: cand.output.clone(),
                    est_rows: cand.est_rows,
                };
                (*e, def)
            })
            .collect();
        let plan = FullPlan {
            root: self.extract(&costed.choice),
            spools,
            cost: costed.cost,
        };
        debug_assert!(reads_match_spools(&plan), "charged {:?}", costed.ids());
        plan
    }

    /// [`Optimizer::cost_full`], then the extraction of its plan.
    pub fn optimize_full(&mut self, root: GroupId, mask: CseMask) -> FullPlan {
        let costed = self.cost_full(root, mask);
        self.extract_full(&costed)
    }
}

/// What the cost pass settles for a statement: its total cost, the CSEs
/// charged with the definition winner each is costed as (ascending by id),
/// and the root winner.
#[derive(Debug, Clone)]
pub struct Costed {
    pub cost: f64,
    pub charged: Vec<(CseId, Rc<PlanChoice>)>,
    pub choice: Rc<PlanChoice>,
}

impl Costed {
    /// The charged CSEs: the spools the extracted plan holds.
    pub fn ids(&self) -> CseMask {
        self.charged.iter().fold(0, |m, (e, _)| m | bit(*e))
    }
}

/// Split a join predicate into its (left column, right column) equi-keys
/// and the residual conjuncts.
fn split_join(memo: &Memo, e: &GroupExpr, pred: &[ConjId]) -> (Vec<(ColRef, ColRef)>, Vec<ConjId>) {
    let l_rels = memo.group(e.children[0]).props.rels;
    let r_rels = memo.group(e.children[1]).props.rels;
    let (mut keys, mut residual) = (Vec::new(), Vec::new());
    for (id, c) in memo.conjuncts(pred) {
        match c.col_eq_col {
            Some((a, b)) if l_rels.contains(a.rel) && r_rels.contains(b.rel) => keys.push((a, b)),
            Some((a, b)) if r_rels.contains(a.rel) && l_rels.contains(b.rel) => keys.push((b, a)),
            _ => residual.push(id),
        }
    }
    (keys, residual)
}

/// An index nested-loops join's equi-key and the filter over its right input.
type Probe<'m> = ((ColRef, ColRef), Option<&'m [ConjId]>);

/// The equi-key an index nested-loops join of `e` probes with — (left
/// column, right column), `keys` as [`split_join`] gives them — and the
/// filter over the right input. Only a right input that scans one table,
/// filtered or not, with a hash index on its column of the key qualifies.
fn index_probe<'m>(
    memo: &'m Memo,
    indexes: &IndexInfo,
    e: &GroupExpr,
    keys: &[(ColRef, ColRef)],
) -> Option<Probe<'m>> {
    let first = |g: GroupId| memo.gexpr(memo.group(g).exprs[0]);
    let right = first(e.children[1]);
    let (rel, filter) = match (&right.op, right.children.first()) {
        (Op::Get { rel }, _) => (*rel, None),
        (Op::Filter { pred }, Some(&below)) => match first(below).op {
            Op::Get { rel } => (rel, Some(pred.as_slice())),
            _ => return None,
        },
        _ => return None,
    };
    let table = &memo.ctx.rel(rel).name;
    let indexed = |c: &ColRef| IndexInfo::covers(&indexes.hash, table, c.col);
    let key = keys.iter().find(|(_, r)| r.rel == rel && indexed(r))?;
    Some((*key, filter))
}

/// The §5.2 bookkeeping against the extracted trees: every spool read in
/// the plan has its definition collected, and every collected spool is read
/// at least twice.
fn reads_match_spools(plan: &FullPlan) -> bool {
    let mut reads = plan.root.cse_reads();
    for def in plan.spools.values() {
        for (e, n) in def.plan.cse_reads() {
            *reads.entry(e).or_insert(0) += n;
        }
    }
    reads.len() == plan.spools.len()
        && reads
            .iter()
            .all(|(e, &n)| n >= 2 && plan.spools.contains_key(e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_algebra::{LogicalPlan, PlanContext};
    use cse_memo::{explore, ExploreConfig};
    use cse_storage::{row, Catalog, DataType, Schema, Table, Value};
    use std::sync::Arc;

    /// fact(k, v): 2000 rows, k in 0..200; dim(k): 200 rows unique.
    fn setup() -> (Memo, StatsCatalog, IndexInfo) {
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
        (memo, stats, IndexInfo::from_catalog(&cat))
    }

    #[test]
    fn baseline_optimization_produces_hash_join() {
        let (memo, stats, indexes) = setup();
        let model = CostModel::default();
        let mut opt = Optimizer::new(&memo, &stats, &model, &indexes);
        let choice = opt.optimize_group(memo.root(), 0);
        assert!(matches!(
            opt.extract(&choice),
            PhysicalPlan::HashJoin { .. }
        ));
        assert!(choice.cost > 0.0);
        assert!(choice.usage.is_empty());
    }

    #[test]
    fn cache_hits_on_second_call() {
        let (memo, stats, indexes) = setup();
        let model = CostModel::default();
        let mut opt = Optimizer::new(&memo, &stats, &model, &indexes);
        opt.optimize_group(memo.root(), 0);
        let n = opt.group_optimizations;
        opt.optimize_group(memo.root(), 0);
        assert_eq!(opt.group_optimizations, n);
    }

    #[test]
    fn build_side_choice_prefers_smaller_build() {
        // With commuted alternatives explored, the optimizer should build
        // on the smaller (dim) side.
        let (memo, stats, indexes) = setup();
        let model = CostModel::default();
        let mut opt = Optimizer::new(&memo, &stats, &model, &indexes);
        let choice = opt.optimize_group(memo.root(), 0);
        if let PhysicalPlan::HashJoin { left, .. } = opt.extract(&choice) {
            if let PhysicalPlan::TableScan { rel, .. } = left.as_ref() {
                assert_eq!(memo.ctx.rel(*rel).name, "dim");
                return;
            }
        }
        panic!("expected HashJoin over TableScan build side");
    }

    /// A hash index on `fact.k` offers the join as 200 probes from `dim`
    /// instead of a hash join over both scans, and it wins; the key is the
    /// whole predicate, so nothing is left for a residual.
    #[test]
    fn hash_index_offers_an_index_join() {
        let (memo, stats, _) = setup();
        let mut indexes = IndexInfo::default();
        indexes.hash.insert("fact".into(), vec![0]);
        let model = CostModel::default();
        let mut opt = Optimizer::new(&memo, &stats, &model, &indexes);
        let choice = opt.optimize_group(memo.root(), 0);
        let PhysicalPlan::IndexNlJoin {
            outer,
            rel,
            key,
            residual,
            layout,
        } = opt.extract(&choice)
        else {
            panic!("expected an index join: {}", opt.extract(&choice).render());
        };
        assert_eq!(memo.ctx.rel(rel).name, "fact");
        assert!(matches!(*outer, PhysicalPlan::TableScan { rel: d, .. } if d != rel));
        assert_eq!((key.1, residual), (ColRef::new(rel, 0), None));
        assert_eq!(layout.len(), 4);
    }

    #[test]
    fn optimize_full_without_candidates() {
        let (memo, stats, indexes) = setup();
        let model = CostModel::default();
        let mut opt = Optimizer::new(&memo, &stats, &model, &indexes);
        let full = opt.optimize_full(memo.root(), 0);
        assert!(full.spools.is_empty());
        assert!(full.cost > 0.0);
    }
}
