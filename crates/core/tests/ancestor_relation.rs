//! The memo sweeps against references written here: for the explored memo
//! of every paper batch, and for the same memo grown by covering-
//! subexpression definitions, `is_ancestor(a, g)` must say exactly what a
//! naive upward walk over `Group::parents` says, and `compute_required`
//! must return exactly the sets a naive edge-by-edge fixpoint reaches.

use cse_algebra::ColRef;
use cse_bench::workloads;
use cse_core::{compute_required, construct, partition_compatible, prepare_consumers, CseManager};
use cse_memo::{explore, ExploreConfig, GroupId, Memo, Op};
use cse_storage::Catalog;
use cse_tpch::{generate_catalog, TpchConfig};
use std::collections::{BTreeSet, HashMap};

/// Reference: every group reachable from `g` through parent expressions,
/// `g` included.
fn ancestors_by_walking(memo: &Memo, g: GroupId) -> Vec<bool> {
    let mut seen = vec![false; memo.num_groups()];
    let mut stack = vec![g];
    while let Some(cur) = stack.pop() {
        if std::mem::replace(&mut seen[cur.0 as usize], true) {
            continue;
        }
        stack.extend(memo.group(cur).parents.iter().map(|&e| memo.group_of(e)));
    }
    seen
}

fn assert_matrix_is_the_walk(memo: &Memo, what: &str) {
    let mgr = CseManager::build(memo);
    for g in memo.groups().map(|g| g.id) {
        let want = ancestors_by_walking(memo, g);
        for a in memo.groups().map(|a| a.id) {
            assert_eq!(
                mgr.is_ancestor(a, g),
                want[a.0 as usize],
                "{what}: is {a} above {g}?"
            );
        }
    }
    // Groups the memo does not hold are related to nothing, themselves
    // included.
    let outside = GroupId(memo.num_groups() as u32);
    assert!(!mgr.is_ancestor(outside, memo.root()));
    assert!(!mgr.is_ancestor(memo.root(), outside));
    assert!(!mgr.is_ancestor(outside, outside));
}

/// Reference: relax every (expression, child) edge of every reached group
/// until nothing changes.
fn required_by_relaxation(memo: &Memo, roots: &[GroupId]) -> HashMap<GroupId, BTreeSet<ColRef>> {
    let outputs = |g: GroupId| -> BTreeSet<ColRef> {
        memo.group(g).props.output_cols.iter().copied().collect()
    };
    let mut required: HashMap<GroupId, BTreeSet<ColRef>> =
        roots.iter().map(|&r| (r, outputs(r))).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for g in memo.groups() {
            let Some(passed_up) = required.get(&g.id).cloned() else {
                continue;
            };
            for &eid in &g.exprs {
                let e = memo.gexpr(eid);
                let mut wanted = passed_up.clone();
                e.op.for_each_scalar(&mut |s| wanted.extend(s.columns()));
                match &e.op {
                    Op::Filter { pred } | Op::Join { pred } => {
                        wanted.extend(memo.pred(pred).columns());
                    }
                    Op::Aggregate { keys, .. } => wanted.extend(keys),
                    _ => {}
                }
                for &c in &e.children {
                    let need: BTreeSet<ColRef> = match e.op {
                        Op::Batch => outputs(c),
                        _ => wanted.intersection(&outputs(c)).copied().collect(),
                    };
                    changed |= !required.contains_key(&c);
                    let have = required.entry(c).or_default();
                    changed |= !need.is_subset(have);
                    have.extend(need);
                }
            }
        }
    }
    required
}

fn explored(catalog: &Catalog, sql: &str) -> Memo {
    let (ctx, plan) = cse_sql::lower_batch_sql(catalog, sql).expect("lower");
    let mut memo = Memo::new(ctx);
    let root = memo.insert_plan(&plan);
    memo.set_root(root);
    explore(&mut memo, &ExploreConfig::default());
    memo
}

/// Insert one covering definition per join-compatible set (the
/// no-heuristics candidate set) and explore again, as the CSE phase does.
fn grow(memo: &mut Memo) {
    let required = compute_required(memo, &[memo.root()]);
    for (_, consumers) in CseManager::build(memo).sharable_sets() {
        let prepared = prepare_consumers(memo, &consumers);
        for set in partition_compatible(prepared) {
            if set.members.len() < 2 {
                continue;
            }
            if let Some(cse) = construct(memo, set.members, &required) {
                memo.insert_plan(&cse.plan);
            }
        }
    }
    explore(memo, &ExploreConfig::default());
}

#[test]
fn memo_sweeps_equal_their_references_on_the_paper_batches() {
    let catalog = generate_catalog(&TpchConfig::new(0.001));
    let mut batches = vec![
        ("table1".to_string(), workloads::table1_batch()),
        ("table2".to_string(), workloads::table2_batch()),
        ("table3".to_string(), workloads::NESTED.to_string()),
        ("table4".to_string(), workloads::complex_join_batch()),
    ];
    batches.extend((2..=10).map(|n| (format!("scaleup{n}"), workloads::scaleup_batch(n))));
    for (name, sql) in batches {
        let mut memo = explored(&catalog, &sql);
        assert_matrix_is_the_walk(&memo, &format!("{name} explored"));
        let root = memo.root();
        assert_eq!(
            compute_required(&memo, &[root]),
            required_by_relaxation(&memo, &[root]),
            "{name} explored"
        );
        let before = memo.num_groups() as u32;
        grow(&mut memo);
        assert!(
            memo.num_groups() as u32 > before,
            "{name}: definitions add groups"
        );
        assert_matrix_is_the_walk(&memo, &format!("{name} grown"));
        // Every group the definitions added as a root beside the batch's:
        // more roots than the CSE phase uses, the same equations.
        let roots: Vec<GroupId> = std::iter::once(root)
            .chain((before..memo.num_groups() as u32).map(GroupId))
            .collect();
        assert_eq!(
            compute_required(&memo, &roots),
            required_by_relaxation(&memo, &roots),
            "{name} grown"
        );
    }
}
