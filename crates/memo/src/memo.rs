//! The memo: a DAG of groups of logically-equivalent expressions
//! (Goldstein/Graefe's Cascades structure, paper §2.1).

use crate::op::{literal_kinds, GroupExpr, GroupExprId, GroupId, Op};
use crate::signature::{compute_signature, TableSignature};
use cse_algebra::{AggExpr, BlockId, ColRef, LogicalPlan, PlanContext, RelSet, Scalar};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Logical properties shared by all expressions of a group.
#[derive(Debug, Clone)]
pub struct LogicalProps {
    /// Base/delta table instances below this group.
    pub rels: RelSet,
    /// The query block, when all rels agree (None for Batch and for groups
    /// spanning blocks, e.g. CSE definitions joined into several queries).
    pub block: Option<BlockId>,
    /// Table signature (paper §3); `None` when the group is not SPJG.
    pub signature: Option<TableSignature>,
    /// Globally-identified columns the group exposes.
    pub output_cols: Vec<ColRef>,
    /// What a Get, Filter or Join group computes; `None` for other groups.
    key: Option<LogicalKey>,
}

/// What a Get, Filter or Join group computes, whatever its join order: the
/// base rels it scans, the groups it reads whole (aggregates and every other
/// non-SPJ input) and each join and filter conjunct below it. Expressions
/// with one key return the same rows.
///
/// An input is named by its group, not by an aggregate's `out` rel: `out`
/// names what an aggregate returns, not what it reads, and construction
/// reuses one `out` for covering subexpressions that differ in their
/// covering predicate.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct LogicalKey {
    rels: RelSet,
    /// Sorted.
    inputs: Vec<GroupId>,
    /// Sorted by `Ord`, then by literal kinds; each identical conjunct once.
    conjuncts: Vec<Scalar>,
}

impl LogicalKey {
    /// Equal, with every literal stored the same way (the rule of
    /// [`GroupExpr::same_as`]: `x = 1` and `x = 1.0` stay apart).
    fn same_as(&self, other: &LogicalKey) -> bool {
        self == other && kinds(&self.conjuncts) == kinds(&other.conjuncts)
    }
}

fn kinds<'a>(scalars: impl IntoIterator<Item = &'a Scalar>) -> Vec<u8> {
    let mut out = Vec::new();
    for s in scalars {
        literal_kinds(s, &mut out);
    }
    out
}

/// A group: every expression the memo knows that computes one logical
/// result. The rules add alternatives to the group they rewrite; a rule or
/// an insertion that builds a join no group holds yet finds the join's
/// group by its logical key (base rels, whole inputs, conjuncts), so each
/// logically distinct join has one group however many join orders reach
/// it. Other operators are deduplicated by exact shape only.
#[derive(Debug, Clone)]
pub struct Group {
    pub id: GroupId,
    /// Expressions in insertion order; the first is the originally
    /// inserted shape (used for acyclic tree extraction).
    pub exprs: Vec<GroupExprId>,
    pub props: LogicalProps,
    /// Group expressions (in other groups) referencing this group.
    pub parents: Vec<GroupExprId>,
}

/// What a synthetic aggregate-output rel is allocated for.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AggInput {
    /// A partial aggregate over a memo group (eager aggregation).
    Group(GroupId),
    /// A covering subexpression's group-by over these base rels, sorted
    /// (§4.2).
    Rels(Vec<cse_algebra::RelId>),
}

/// The cache key of a synthetic aggregate-output rel: input, group-by
/// keys, aggregates and the kinds of the aggregates' literals.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct AggOutKey(AggInput, Vec<ColRef>, Vec<AggExpr>, Vec<u8>);

/// The memo structure.
///
/// Not `Clone`: `cse-core`'s CSE phase takes the explored memo by value
/// and grows it in place, and a tripped or panicked phase drops it — the
/// baseline plan it falls back to owns its trees.
#[derive(Debug)]
pub struct Memo {
    /// Table-instance registry; mutable because exploration (eager
    /// aggregation) allocates new synthetic output rels.
    pub ctx: PlanContext,
    groups: Vec<Group>,
    gexprs: Vec<GroupExpr>,
    gexpr_group: Vec<GroupId>,
    /// Duplicate detection: structural hash -> the latest expression with
    /// that hash; `same_hash[e]` links to the one before it (`NONE` ends the
    /// chain). Candidates are confirmed against the arena.
    dedup: HashMap<u64, GroupExprId>,
    same_hash: Vec<GroupExprId>,
    /// Join groups by the hash of their [`LogicalKey`]; candidates are
    /// confirmed against the stored key.
    joins: HashMap<u64, Vec<GroupId>>,
    /// Deterministic synthetic-out allocation for partial aggregates and
    /// covering group-bys.
    agg_outs: HashMap<AggOutKey, cse_algebra::RelId>,
    root: Option<GroupId>,
}

/// End of a `same_hash` chain.
const NONE: GroupExprId = GroupExprId(u32::MAX);

impl Memo {
    pub fn new(ctx: PlanContext) -> Self {
        Memo {
            ctx,
            groups: Vec::new(),
            gexprs: Vec::new(),
            gexpr_group: Vec::new(),
            dedup: HashMap::new(),
            same_hash: Vec::new(),
            joins: HashMap::new(),
            agg_outs: HashMap::new(),
            root: None,
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "read only after insert_plan or set_root; the pipeline holds the root it inserted"
    )]
    pub fn root(&self) -> GroupId {
        self.root.expect("no plan inserted")
    }

    pub fn set_root(&mut self, g: GroupId) {
        self.root = Some(g);
    }

    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    pub fn num_gexprs(&self) -> usize {
        self.gexprs.len()
    }

    pub fn group(&self, id: GroupId) -> &Group {
        &self.groups[id.0 as usize]
    }

    pub fn groups(&self) -> impl Iterator<Item = &Group> {
        self.groups.iter()
    }

    pub fn gexpr(&self, id: GroupExprId) -> &GroupExpr {
        &self.gexprs[id.0 as usize]
    }

    pub fn group_of(&self, id: GroupExprId) -> GroupId {
        self.gexpr_group[id.0 as usize]
    }

    /// Insert a group expression. If an identical expression exists, the
    /// existing (id, group) is returned. Otherwise it is appended to
    /// `target` when given; a join without a target goes to the group with
    /// its logical key, and anything else to a freshly created group.
    /// Returns (gexpr id, group id, was_new).
    pub fn add_gexpr(
        &mut self,
        e: GroupExpr,
        target: Option<GroupId>,
    ) -> (GroupExprId, GroupId, bool) {
        let mut h = DefaultHasher::new();
        e.hash(&mut h);
        self.add_gexpr_hashed(e, target, h.finish())
    }

    fn add_gexpr_hashed(
        &mut self,
        e: GroupExpr,
        target: Option<GroupId>,
        hash: u64,
    ) -> (GroupExprId, GroupId, bool) {
        let head = self.dedup.get(&hash).copied().unwrap_or(NONE);
        let mut at = head;
        while at != NONE {
            if self.gexprs[at.0 as usize].same_as(&e) {
                return (at, self.gexpr_group[at.0 as usize], false);
            }
            at = self.same_hash[at.0 as usize];
        }
        let gid = match target {
            Some(g) => g,
            None => self.group_for(&e),
        };
        let id = GroupExprId(self.gexprs.len() as u32);
        for &c in &e.children {
            self.groups[c.0 as usize].parents.push(id);
        }
        self.gexprs.push(e);
        self.gexpr_group.push(gid);
        self.same_hash.push(head);
        self.groups[gid.0 as usize].exprs.push(id);
        self.dedup.insert(hash, id);
        (id, gid, true)
    }

    /// The group a new expression without a target belongs to: a join goes
    /// to the group with its logical key if there is one; otherwise a group
    /// is created.
    fn group_for(&mut self, e: &GroupExpr) -> GroupId {
        let key = self.logical_key(e);
        let join_hash = match (&e.op, &key) {
            (Op::Join { .. }, Some(key)) => {
                let mut h = DefaultHasher::new();
                key.hash(&mut h);
                let hash = h.finish();
                let same = |g: &&GroupId| {
                    let known = self.groups[g.0 as usize].props.key.as_ref();
                    known.is_some_and(|k| k.same_as(key))
                };
                if let Some(&g) = self.joins.get(&hash).and_then(|gs| gs.iter().find(same)) {
                    return g;
                }
                Some(hash)
            }
            _ => None,
        };
        let mut props = self.derive_props(e);
        props.key = key;
        let id = GroupId(self.groups.len() as u32);
        self.groups.push(Group {
            id,
            exprs: Vec::new(),
            props,
            parents: Vec::new(),
        });
        if let Some(hash) = join_hash {
            self.joins.entry(hash).or_default().push(id);
        }
        id
    }

    /// The [`LogicalKey`] of a Get, Filter or Join expression: its children's
    /// keys (a child without one is a whole input) plus its own conjuncts.
    fn logical_key(&self, e: &GroupExpr) -> Option<LogicalKey> {
        let pred = match &e.op {
            Op::Get { rel } => {
                return Some(LogicalKey {
                    rels: RelSet::single(*rel),
                    ..LogicalKey::default()
                })
            }
            Op::Filter { pred } | Op::Join { pred } => pred,
            _ => return None,
        };
        let mut key = LogicalKey {
            conjuncts: pred.conjuncts(),
            ..LogicalKey::default()
        };
        for &c in &e.children {
            match &self.groups[c.0 as usize].props.key {
                Some(k) => {
                    key.rels = key.rels.union(k.rels);
                    key.inputs.extend(&k.inputs);
                    key.conjuncts.extend(k.conjuncts.iter().cloned());
                }
                None => key.inputs.push(c),
            }
        }
        key.inputs.sort();
        let by_kind = |a: &Scalar, b: &Scalar| kinds([a]).cmp(&kinds([b]));
        key.conjuncts
            .sort_by(|a, b| a.cmp(b).then_with(|| by_kind(a, b)));
        key.conjuncts
            .dedup_by(|a, b| a == b && by_kind(a, b).is_eq());
        Some(key)
    }

    fn derive_props(&self, e: &GroupExpr) -> LogicalProps {
        let child_props: Vec<&LogicalProps> = e
            .children
            .iter()
            .map(|c| &self.groups[c.0 as usize].props)
            .collect();
        let rels = match &e.op {
            Op::Get { rel } => RelSet::single(*rel),
            _ => child_props
                .iter()
                .fold(RelSet::EMPTY, |acc, p| acc.union(p.rels)),
        };
        let block = match &e.op {
            Op::Get { rel } => Some(self.ctx.rel(*rel).block),
            Op::Batch => None,
            _ => {
                let blocks: Vec<Option<BlockId>> = child_props.iter().map(|p| p.block).collect();
                if blocks.iter().all(|b| *b == blocks[0]) {
                    blocks.first().copied().flatten()
                } else {
                    None
                }
            }
        };
        let child_sigs: Vec<Option<&TableSignature>> =
            child_props.iter().map(|p| p.signature.as_ref()).collect();
        let signature = compute_signature(&self.ctx, &e.op, &child_sigs);
        let output_cols = self.derive_output_cols(e, &child_props);
        LogicalProps {
            rels,
            block,
            signature,
            output_cols,
            key: None,
        }
    }

    fn derive_output_cols(&self, e: &GroupExpr, child_props: &[&LogicalProps]) -> Vec<ColRef> {
        match &e.op {
            Op::Get { rel } => {
                let n = self.ctx.rel(*rel).schema.len();
                (0..n).map(|i| ColRef::new(*rel, i as u16)).collect()
            }
            Op::Filter { .. } | Op::Sort { .. } => child_props
                .first()
                .map(|p| p.output_cols.clone())
                .unwrap_or_default(),
            Op::Join { .. } => {
                let mut cols: Vec<ColRef> = child_props
                    .iter()
                    .flat_map(|p| p.output_cols.iter().copied())
                    .collect();
                cols.sort();
                cols.dedup();
                cols
            }
            Op::Aggregate { keys, aggs, out } => {
                let mut cols = keys.clone();
                cols.extend((0..aggs.len()).map(|i| ColRef::new(*out, i as u16)));
                cols
            }
            Op::Project { .. } | Op::Batch => Vec::new(),
        }
    }

    /// Insert a whole logical plan bottom-up with full deduplication;
    /// returns the root group. Identical subexpressions across statements
    /// land in the same group automatically.
    pub fn insert_plan(&mut self, plan: &LogicalPlan) -> GroupId {
        let gid = self.insert_rec(plan);
        if self.root.is_none() {
            self.root = Some(gid);
        }
        gid
    }

    fn insert_rec(&mut self, plan: &LogicalPlan) -> GroupId {
        let (op, children) = match plan {
            LogicalPlan::Get { rel } => (Op::Get { rel: *rel }, vec![]),
            LogicalPlan::Filter { input, pred } => (
                Op::Filter {
                    pred: pred.normalize(),
                },
                vec![self.insert_rec(input)],
            ),
            LogicalPlan::Join { left, right, pred } => {
                let l = self.insert_rec(left);
                let r = self.insert_rec(right);
                (
                    Op::Join {
                        pred: pred.normalize(),
                    },
                    vec![l, r],
                )
            }
            LogicalPlan::Aggregate {
                input,
                keys,
                aggs,
                out,
            } => (
                Op::Aggregate {
                    keys: keys.clone(),
                    aggs: aggs.iter().map(AggExpr::normalize).collect(),
                    out: *out,
                },
                vec![self.insert_rec(input)],
            ),
            LogicalPlan::Project { input, exprs } => (
                Op::Project {
                    exprs: exprs.clone(),
                },
                vec![self.insert_rec(input)],
            ),
            LogicalPlan::Sort { input, keys } => (
                Op::Sort { keys: keys.clone() },
                vec![self.insert_rec(input)],
            ),
            LogicalPlan::Batch { children } => {
                let kids: Vec<GroupId> = children.iter().map(|c| self.insert_rec(c)).collect();
                (Op::Batch, kids)
            }
        };
        let (_, gid, _) = self.add_gexpr(GroupExpr::new(op, children), None);
        gid
    }

    /// Deterministic synthetic-out rel for an aggregate the optimizer
    /// builds: re-running a rule, or Algorithm 1's trial constructions of
    /// one shape, reuse one rel (keeps dedup sound and the instance budget
    /// intact).
    pub fn agg_out_for(
        &mut self,
        input: AggInput,
        keys: &[ColRef],
        aggs: &[AggExpr],
        block: Option<BlockId>,
    ) -> cse_algebra::RelId {
        let args = aggs.iter().filter_map(|a| a.arg.as_ref());
        let key = AggOutKey(input, keys.to_vec(), aggs.to_vec(), kinds(args));
        if let Some(&r) = self.agg_outs.get(&key) {
            return r;
        }
        let types: Vec<cse_storage::DataType> = aggs.iter().map(|a| self.ctx.agg_type(a)).collect();
        let blk = block.unwrap_or_else(|| self.ctx.new_block());
        let r = self.ctx.add_agg_output(&types, blk);
        self.agg_outs.insert(key, r);
        r
    }

    /// Extract the originally-inserted operator tree of a group (first
    /// expression, recursively). Acyclic because first expressions mirror
    /// the inserted plan shapes.
    pub fn extract_first_tree(&self, g: GroupId) -> LogicalPlan {
        let e = self.gexpr(self.group(g).exprs[0]);
        self.tree_of(e)
    }

    fn tree_of(&self, e: &GroupExpr) -> LogicalPlan {
        let mut children: Vec<LogicalPlan> = e
            .children
            .iter()
            .map(|c| self.extract_first_tree(*c))
            .collect();
        match &e.op {
            Op::Get { rel } => LogicalPlan::Get { rel: *rel },
            Op::Filter { pred } => LogicalPlan::Filter {
                input: Box::new(children.remove(0)),
                pred: pred.clone(),
            },
            Op::Join { pred } => {
                let right = Box::new(children.remove(1));
                LogicalPlan::Join {
                    left: Box::new(children.remove(0)),
                    right,
                    pred: pred.clone(),
                }
            }
            Op::Aggregate { keys, aggs, out } => LogicalPlan::Aggregate {
                input: Box::new(children.remove(0)),
                keys: keys.clone(),
                aggs: aggs.clone(),
                out: *out,
            },
            Op::Project { exprs } => LogicalPlan::Project {
                input: Box::new(children.remove(0)),
                exprs: exprs.clone(),
            },
            Op::Sort { keys } => LogicalPlan::Sort {
                input: Box::new(children.remove(0)),
                keys: keys.clone(),
            },
            Op::Batch => LogicalPlan::Batch { children },
        }
    }
}

/// Convenience: the signature of a group, if any.
impl Memo {
    pub fn signature_of(&self, g: GroupId) -> Option<&TableSignature> {
        self.group(g).props.signature.as_ref()
    }

    /// Corruption-injection hook for the `cse-verify` adversarial test
    /// suite: overwrite a group's incrementally maintained signature so the
    /// signature audit can be exercised. Never call this from production
    /// code — it deliberately breaks the §3/Fig. 2 invariant.
    #[doc(hidden)]
    pub fn override_signature(&mut self, g: GroupId, sig: Option<TableSignature>) {
        self.groups[g.0 as usize].props.signature = sig;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_algebra::Scalar;
    use cse_storage::{DataType, Schema};
    use std::sync::Arc;

    fn setup3() -> (PlanContext, Vec<cse_algebra::RelId>) {
        let mut ctx = PlanContext::new();
        let b = ctx.new_block();
        let schema = Arc::new(Schema::from_pairs(&[
            ("k", DataType::Int),
            ("v", DataType::Float),
        ]));
        let rels = ["aa", "bb", "cc"]
            .iter()
            .map(|t| ctx.add_base_rel(*t, *t, schema.clone(), b))
            .collect();
        (ctx, rels)
    }

    fn join_plan(rels: &[cse_algebra::RelId]) -> LogicalPlan {
        LogicalPlan::get(rels[0])
            .join(
                LogicalPlan::get(rels[1]),
                Scalar::eq(Scalar::col(rels[0], 0), Scalar::col(rels[1], 0)),
            )
            .join(
                LogicalPlan::get(rels[2]),
                Scalar::eq(Scalar::col(rels[1], 0), Scalar::col(rels[2], 0)),
            )
    }

    #[test]
    fn insert_dedups_shared_subtrees() {
        let (ctx, rels) = setup3();
        let mut memo = Memo::new(ctx);
        let p = join_plan(&rels);
        let g1 = memo.insert_plan(&p);
        let before = memo.num_gexprs();
        let g2 = memo.insert_plan(&p);
        assert_eq!(g1, g2);
        assert_eq!(memo.num_gexprs(), before);
    }

    #[test]
    fn identity_is_the_expression_not_its_hash() {
        use cse_storage::Value;
        let (ctx, rels) = setup3();
        let mut memo = Memo::new(ctx);
        let get = memo.insert_plan(&LogicalPlan::get(rels[0]));
        let filter = |v: Value| {
            let pred = Scalar::eq(Scalar::col(rels[0], 1), Scalar::lit(v));
            GroupExpr::new(Op::Filter { pred }, vec![get])
        };
        // `Int(1) == Float(1.0)` under `Value`'s total order, and they hash
        // alike: `x = 1` and `x = 1.0` still stay two expressions.
        let (int_id, _, new) = memo.add_gexpr(filter(Value::Int(1)), None);
        assert!(new);
        let (float_id, _, new) = memo.add_gexpr(filter(Value::Float(1.0)), None);
        assert!(new && float_id != int_id);
        // Two different expressions forced into one bucket get two ids.
        let (a, _, new_a) = memo.add_gexpr_hashed(filter(Value::Int(2)), None, 7);
        let (b, _, new_b) = memo.add_gexpr_hashed(filter(Value::Int(3)), None, 7);
        assert!(new_a && new_b && a != b);
        // Re-inserting any of them finds the old id.
        assert_eq!(memo.add_gexpr_hashed(filter(Value::Int(2)), None, 7).0, a);
        assert_eq!(memo.add_gexpr_hashed(filter(Value::Int(3)), None, 7).0, b);
        assert_eq!(memo.add_gexpr(filter(Value::Int(1)), None).0, int_id);
        assert_eq!(memo.add_gexpr(filter(Value::Float(1.0)), None).0, float_id);
    }

    #[test]
    fn group_props() {
        let (ctx, rels) = setup3();
        let mut memo = Memo::new(ctx);
        let g = memo.insert_plan(&join_plan(&rels));
        let props = &memo.group(g).props;
        assert_eq!(props.rels.len(), 3);
        let sig = props.signature.as_ref().unwrap();
        assert!(!sig.grouped);
        assert_eq!(sig.tables, vec!["aa", "bb", "cc"]);
        assert_eq!(props.output_cols.len(), 6);
    }

    #[test]
    fn extract_first_tree_roundtrip() {
        let (ctx, rels) = setup3();
        let mut memo = Memo::new(ctx);
        let p = join_plan(&rels);
        let g = memo.insert_plan(&p);
        let t = memo.extract_first_tree(g);
        // Same normal form.
        let n1 = cse_algebra::SpjgNormal::from_plan(&p).unwrap();
        let n2 = cse_algebra::SpjgNormal::from_plan(&t).unwrap();
        assert_eq!(n1.spj, n2.spj);
    }

    #[test]
    fn batch_groups_have_no_signature() {
        let (ctx, rels) = setup3();
        let mut memo = Memo::new(ctx);
        let b = LogicalPlan::Batch {
            children: vec![join_plan(&rels)],
        };
        let g = memo.insert_plan(&b);
        assert!(memo.signature_of(g).is_none());
    }

    #[test]
    fn parents_tracked() {
        let (ctx, rels) = setup3();
        let mut memo = Memo::new(ctx);
        memo.insert_plan(&join_plan(&rels));
        // aa's Get group is referenced by one join expr.
        let get_group = memo
            .groups()
            .find(|g| g.props.rels == RelSet::single(rels[0]) && g.props.signature.is_some())
            .unwrap();
        assert_eq!(get_group.parents.len(), 1);
    }
}
