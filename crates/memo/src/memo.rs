//! The memo: a DAG of groups of logically-equivalent expressions
//! (Goldstein/Graefe's Cascades structure, paper §2.1).

use crate::op::{literal_kinds, ConjId, GroupExpr, GroupExprId, GroupId, Op};
use crate::signature::{compute_signature, TableSignature};
use cse_algebra::{
    AggExpr, BlockId, ColRef, GroupSpec, LogicalPlan, PlanContext, RelSet, Scalar, SpjNormal,
    SpjgNormal,
};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

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
    pub key: Option<LogicalKey>,
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
pub struct LogicalKey {
    pub rels: RelSet,
    /// Sorted.
    pub inputs: Vec<GroupId>,
    /// Sorted, each once; TRUE is no conjunct.
    pub conjuncts: Vec<ConjId>,
}

/// One interned conjunct and what is derived from it once.
#[derive(Debug)]
pub struct Conj {
    pub scalar: Scalar,
    pub rels: RelSet,
    /// Sorted, each once.
    pub cols: Vec<ColRef>,
    pub col_eq_col: Option<(ColRef, ColRef)>,
}

/// FxHash-style word hasher with a xorshift finish: fixed and fast, so
/// every process assigns the same ids and walks its tables in one order.
#[derive(Default)]
struct Fx(u64);

impl Hasher for Fx {
    fn write(&mut self, bytes: &[u8]) {
        for c in bytes.chunks(8) {
            let word = c.iter().rev().fold(0, |x, b| x << 8 | u64::from(*b));
            self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }
    fn finish(&self) -> u64 {
        self.0 ^ self.0 >> 32
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<Fx>>;

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
#[derive(Debug, Default)]
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
    dedup: FxMap<u64, GroupExprId>,
    same_hash: Vec<GroupExprId>,
    /// Join groups by their [`LogicalKey`].
    joins: FxMap<LogicalKey, GroupId>,
    /// Interned conjuncts by id, and the ids by scalar and literal kinds.
    conjs: Vec<Conj>,
    conj_ids: FxMap<(Scalar, Vec<u8>), ConjId>,
    /// Deterministic synthetic-out allocation for partial aggregates and
    /// covering group-bys.
    agg_outs: FxMap<AggOutKey, cse_algebra::RelId>,
    root: Option<GroupId>,
}

/// End of a `same_hash` chain.
const NONE: GroupExprId = GroupExprId(u32::MAX);

impl Memo {
    pub fn new(ctx: PlanContext) -> Self {
        Memo {
            ctx,
            ..Memo::default()
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
        let hash = self.dedup.hasher().hash_one(&e);
        self.add_gexpr_hashed(e, target, hash)
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
        let join_key = matches!(e.op, Op::Join { .. })
            .then(|| key.clone())
            .flatten();
        if let Some(&g) = join_key.as_ref().and_then(|k| self.joins.get(k)) {
            return g;
        }
        let mut props = self.derive_props(e);
        props.key = key;
        let id = GroupId(self.groups.len() as u32);
        self.groups.push(Group {
            id,
            exprs: Vec::new(),
            props,
            parents: Vec::new(),
        });
        if let Some(k) = join_key {
            self.joins.insert(k, id);
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
            conjuncts: self.conjuncts(pred).map(|(id, _)| id).collect(),
            ..LogicalKey::default()
        };
        for &c in &e.children {
            match &self.groups[c.0 as usize].props.key {
                Some(k) => {
                    key.rels = key.rels.union(k.rels);
                    key.inputs.extend(&k.inputs);
                    key.conjuncts.extend(&k.conjuncts);
                }
                None => key.inputs.push(c),
            }
        }
        key.inputs.sort();
        key.conjuncts.sort_unstable();
        key.conjuncts.dedup();
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
            LogicalPlan::Filter { input, pred } => {
                let input = vec![self.insert_rec(input)];
                let pred = self.intern_pred(pred);
                (Op::Filter { pred }, input)
            }
            LogicalPlan::Join { left, right, pred } => {
                let children = vec![self.insert_rec(left), self.insert_rec(right)];
                let pred = self.intern_pred(pred);
                (Op::Join { pred }, children)
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
        let mut kinds = Vec::new();
        let args = aggs.iter().filter_map(|a| a.arg.as_ref());
        args.for_each(|a| literal_kinds(a, &mut kinds));
        let key = AggOutKey(input, keys.to_vec(), aggs.to_vec(), kinds);
        if let Some(&r) = self.agg_outs.get(&key) {
            return r;
        }
        let types: Vec<cse_storage::DataType> = aggs.iter().map(|a| self.ctx.agg_type(a)).collect();
        let blk = block.unwrap_or_else(|| self.ctx.new_block());
        let r = self.ctx.add_agg_output(&types, blk);
        self.agg_outs.insert(key, r);
        r
    }

    /// A predicate as an operator holds it: the conjuncts of its normal
    /// form, in that form's order, each interned.
    pub fn intern_pred(&mut self, pred: &Scalar) -> Vec<ConjId> {
        match pred.normalize() {
            Scalar::And(parts) => parts.into_iter().map(|c| self.intern(c)).collect(),
            one => vec![self.intern(one)],
        }
    }

    /// The id of a conjunct: `==` and the same literal kinds find one.
    fn intern(&mut self, scalar: Scalar) -> ConjId {
        let mut kinds = Vec::new();
        literal_kinds(&scalar, &mut kinds);
        let next = ConjId(self.conjs.len() as u32);
        let id = *self.conj_ids.entry((scalar.clone(), kinds)).or_insert(next);
        if id == next {
            self.conjs.push(Conj {
                rels: scalar.rels(),
                cols: scalar.columns().into_iter().collect(),
                col_eq_col: scalar.as_col_eq_col(),
                scalar,
            });
        }
        id
    }

    pub fn conj(&self, id: ConjId) -> &Conj {
        &self.conjs[id.0 as usize]
    }

    /// Every interned conjunct, by id.
    pub fn conjs(&self) -> &[Conj] {
        &self.conjs
    }

    /// The predicate `pred` holds, rebuilt: the normal form it was interned
    /// from.
    pub fn pred(&self, pred: &[ConjId]) -> Scalar {
        Scalar::and(pred.iter().map(|&c| self.conj(c).scalar.clone()))
    }

    /// What [`Scalar::conjuncts`] splits `pred`'s predicate into, in order:
    /// a TRUE conjunct is none.
    pub fn conjuncts<'a>(
        &'a self,
        pred: &'a [ConjId],
    ) -> impl Iterator<Item = (ConjId, &'a Conj)> + 'a {
        let conjs = pred.iter().map(|&c| (c, self.conj(c)));
        conjs.filter(|(_, c)| !c.scalar.is_true())
    }

    /// The normal form of the conjunction of normal conjuncts, in the order
    /// given: [`Scalar::normalize`]'s stable sort, and its dedup keeping the
    /// first of equal conjuncts.
    pub(crate) fn normal(&self, mut conjs: Vec<ConjId>) -> Vec<ConjId> {
        let scalar = |c: &ConjId| &self.conj(*c).scalar;
        conjs.sort_by(|a, b| scalar(a).cmp(scalar(b)));
        conjs.dedup_by(|a, b| scalar(a) == scalar(b));
        conjs
    }

    /// The SPJG normal form of a group's originally inserted tree,
    /// `SpjgNormal::from_plan(&self.extract_first_tree(g))`, read off the
    /// SPJ part's logical key without building the tree: `None` unless that
    /// part reads no whole input. Interned conjuncts are normalized already.
    pub fn first_normal(&self, g: GroupId) -> Option<SpjgNormal> {
        let e = self.gexpr(self.group(g).exprs[0]);
        let (spj, group) = match &e.op {
            Op::Aggregate { keys, aggs, out } => {
                let aggs = aggs.iter().map(AggExpr::normalize).collect();
                let keys = keys.clone();
                (
                    e.children[0],
                    Some(GroupSpec {
                        keys,
                        aggs,
                        out: *out,
                    }),
                )
            }
            _ => (g, None),
        };
        let key = self.group(spj).props.key.as_ref();
        let key = key.filter(|k| k.inputs.is_empty())?;
        let rels = key.rels.iter().collect();
        let conj = key.conjuncts.iter().map(|&c| self.conj(c).scalar.clone());
        let mut conjuncts: Vec<Scalar> = conj.collect();
        conjuncts.sort();
        conjuncts.dedup();
        let normal = SpjgNormal {
            spj: SpjNormal { rels, conjuncts },
            group,
        };
        debug_assert_eq!(
            Some(&normal),
            SpjgNormal::from_plan(&self.extract_first_tree(g)).as_ref()
        );
        Some(normal)
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
                pred: self.pred(pred),
            },
            Op::Join { pred } => {
                let right = Box::new(children.remove(1));
                LogicalPlan::Join {
                    left: Box::new(children.remove(0)),
                    right,
                    pred: self.pred(pred),
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
        let filter = |memo: &mut Memo, v: Value| {
            let pred = memo.intern_pred(&Scalar::eq(Scalar::col(rels[0], 1), Scalar::lit(v)));
            GroupExpr::new(Op::Filter { pred }, vec![get])
        };
        let mut add = |v: Value, hash: Option<u64>| {
            let e = filter(&mut memo, v);
            match hash {
                Some(h) => memo.add_gexpr_hashed(e, None, h),
                None => memo.add_gexpr(e, None),
            }
        };
        // `Int(1) == Float(1.0)` under `Value`'s total order, and they hash
        // alike: `x = 1` and `x = 1.0` still stay two expressions.
        let (int_id, _, new) = add(Value::Int(1), None);
        assert!(new);
        let (float_id, _, new) = add(Value::Float(1.0), None);
        assert!(new && float_id != int_id);
        // Two different expressions forced into one bucket get two ids.
        let (a, _, new_a) = add(Value::Int(2), Some(7));
        let (b, _, new_b) = add(Value::Int(3), Some(7));
        assert!(new_a && new_b && a != b);
        // Re-inserting any of them finds the old id.
        assert_eq!(add(Value::Int(2), Some(7)).0, a);
        assert_eq!(add(Value::Int(3), Some(7)).0, b);
        assert_eq!(add(Value::Int(1), None).0, int_id);
        assert_eq!(add(Value::Float(1.0), None).0, float_id);
    }

    #[test]
    fn a_conjunct_is_interned_once() {
        let (ctx, rels) = setup3();
        let mut memo = Memo::new(ctx);
        let (a, b) = (Scalar::col(rels[0], 0), Scalar::col(rels[1], 0));
        let on = Scalar::eq(a.clone(), b.clone());
        let once = memo.intern_pred(&on);
        assert_eq!(once.len(), 1);
        assert_eq!(memo.pred(&once), on.normalize());
        // Written the other way round, beside a second conjunct: one id.
        let filter = Scalar::eq(Scalar::col(rels[2], 0), Scalar::int(1));
        let both = memo.intern_pred(&Scalar::and([filter.clone(), Scalar::eq(b, a)]));
        assert_eq!(both.len(), 2);
        assert!(both.contains(&once[0]));
        assert_eq!(memo.pred(&both), Scalar::and([filter, on]).normalize());
        // What is derived once per conjunct.
        let c = memo.conj(once[0]);
        assert_eq!(c.rels, RelSet::from_iter([rels[0], rels[1]]));
        assert_eq!(
            c.cols,
            vec![ColRef::new(rels[0], 0), ColRef::new(rels[1], 0)]
        );
        assert!(c.col_eq_col.is_some());
        // TRUE has no conjunct.
        assert!(memo.intern_pred(&Scalar::true_()).is_empty());
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
