//! Column equivalence classes derived from equijoin predicates (paper §4.1,
//! following the view-matching machinery of Goldstein & Larson).
//!
//! An equivalence class is a set of columns guaranteed equal in the result
//! of a normalized SPJ expression. Classes support the *intersection*
//! operation the paper uses to define join compatibility and to construct
//! the covering join predicate.

use crate::ids::ColRef;
use crate::scalar::Scalar;
use std::collections::{BTreeMap, BTreeSet};

/// A collection of column equivalence classes (union-find based).
#[derive(Debug, Clone, Default)]
pub struct EquivClasses {
    parent: BTreeMap<ColRef, ColRef>,
}

impl EquivClasses {
    pub fn new() -> Self {
        EquivClasses::default()
    }

    /// Build from the column-equality conjuncts of a predicate list. Other
    /// conjuncts are ignored.
    pub fn from_conjuncts<'a>(conjuncts: impl IntoIterator<Item = &'a Scalar>) -> Self {
        let mut ec = EquivClasses::new();
        for c in conjuncts {
            if let Some((a, b)) = c.as_col_eq_col() {
                ec.union(a, b);
            }
        }
        ec
    }

    fn find(&self, mut c: ColRef) -> ColRef {
        while let Some(&p) = self.parent.get(&c) {
            if p == c {
                break;
            }
            c = p;
        }
        c
    }

    /// Merge the classes of `a` and `b`.
    pub fn union(&mut self, a: ColRef, b: ColRef) {
        let ra = self.find(a);
        let rb = self.find(b);
        self.parent.entry(a).or_insert(a);
        self.parent.entry(b).or_insert(b);
        if ra != rb {
            // Smaller representative wins, keeping results deterministic.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent.insert(hi, lo);
        }
    }

    /// Are two columns known equal?
    pub fn are_equal(&self, a: ColRef, b: ColRef) -> bool {
        a == b
            || (self.parent.contains_key(&a)
                && self.parent.contains_key(&b)
                && self.find(a) == self.find(b))
    }

    /// The classes with at least two members, as sorted column sets.
    pub fn classes(&self) -> Vec<BTreeSet<ColRef>> {
        let mut groups: BTreeMap<ColRef, BTreeSet<ColRef>> = BTreeMap::new();
        for &c in self.parent.keys() {
            groups.entry(self.find(c)).or_default().insert(c);
        }
        groups.into_values().filter(|g| g.len() >= 2).collect()
    }
}

/// Intersect two collections of classes "in the natural way: for every pair
/// of sets, one from C1 and one from C2, output their intersection" (paper
/// Example 2). Intersections with fewer than two columns are dropped.
pub fn intersect_classes(a: &[BTreeSet<ColRef>], b: &[BTreeSet<ColRef>]) -> Vec<BTreeSet<ColRef>> {
    let mut out: Vec<BTreeSet<ColRef>> = Vec::new();
    for ca in a {
        for cb in b {
            let inter: BTreeSet<ColRef> = ca.intersection(cb).copied().collect();
            if inter.len() >= 2 && !out.contains(&inter) {
                out.push(inter);
            }
        }
    }
    out
}

/// Intersect many collections of classes (fold of [`intersect_classes`]).
pub fn intersect_all(collections: &[Vec<BTreeSet<ColRef>>]) -> Vec<BTreeSet<ColRef>> {
    match collections.split_first() {
        None => Vec::new(),
        Some((first, rest)) => rest
            .iter()
            .fold(first.clone(), |acc, next| intersect_classes(&acc, next)),
    }
}

/// Turn a collection of classes back into a minimal list of equijoin
/// conjuncts (chain each class: c0=c1, c1=c2, ...), normalized.
pub fn classes_to_conjuncts(classes: &[BTreeSet<ColRef>]) -> Vec<Scalar> {
    let mut out = Vec::new();
    for class in classes {
        let cols: Vec<ColRef> = class.iter().copied().collect();
        for w in cols.windows(2) {
            out.push(Scalar::eq(Scalar::Col(w[0]), Scalar::Col(w[1])).into_normal());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RelId;

    fn cr(r: u32, c: u16) -> ColRef {
        ColRef::new(RelId(r), c)
    }

    #[test]
    fn union_find_basics() {
        let mut ec = EquivClasses::new();
        ec.union(cr(0, 0), cr(1, 0));
        ec.union(cr(1, 0), cr(2, 0));
        assert!(ec.are_equal(cr(0, 0), cr(2, 0)));
        assert!(!ec.are_equal(cr(0, 0), cr(0, 1)));
        let classes = ec.classes();
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].len(), 3);
    }

    #[test]
    fn from_conjuncts_ignores_non_equijoins() {
        let conj = vec![
            Scalar::eq(Scalar::Col(cr(0, 0)), Scalar::Col(cr(1, 0))),
            Scalar::eq(Scalar::Col(cr(0, 1)), Scalar::int(5)),
        ];
        let ec = EquivClasses::from_conjuncts(&conj);
        assert_eq!(ec.classes().len(), 1);
    }

    #[test]
    fn paper_example_2_intersection() {
        // R ⋈ S on (R.a=S.d AND R.b=S.e)  vs  (R.a=S.d AND R.c=S.f)
        let (ra, rb, rc) = (cr(0, 0), cr(0, 1), cr(0, 2));
        let (sd, se, sf) = (cr(1, 0), cr(1, 1), cr(1, 2));
        let c1 = vec![
            [ra, sd].into_iter().collect::<BTreeSet<_>>(),
            [rb, se].into_iter().collect(),
        ];
        let c2 = vec![
            [ra, sd].into_iter().collect::<BTreeSet<_>>(),
            [rc, sf].into_iter().collect(),
        ];
        let inter = intersect_classes(&c1, &c2);
        assert_eq!(inter.len(), 1);
        assert_eq!(inter[0], [ra, sd].into_iter().collect());

        // R ⋈ S on (R.a=S.d AND R.b=S.e)  vs  (R.c=S.f): empty intersection.
        let c3 = vec![[rc, sf].into_iter().collect::<BTreeSet<_>>()];
        assert!(intersect_classes(&c1, &c3).is_empty());
    }

    #[test]
    fn intersect_all_folds() {
        let a = vec![[cr(0, 0), cr(1, 0), cr(2, 0)]
            .into_iter()
            .collect::<BTreeSet<_>>()];
        let b = vec![[cr(0, 0), cr(1, 0)].into_iter().collect::<BTreeSet<_>>()];
        let all = intersect_all(&[a.clone(), b.clone()]);
        assert_eq!(all, b);
        assert_eq!(intersect_all(std::slice::from_ref(&a)), a);
        assert!(intersect_all(&[]).is_empty());
    }

    #[test]
    fn classes_to_conjuncts_chains() {
        let class: BTreeSet<ColRef> = [cr(0, 0), cr(1, 0), cr(2, 0)].into_iter().collect();
        let conj = classes_to_conjuncts(&[class]);
        assert_eq!(conj.len(), 2);
        let ec = EquivClasses::from_conjuncts(&conj);
        assert!(ec.are_equal(cr(0, 0), cr(2, 0)));
    }
}
