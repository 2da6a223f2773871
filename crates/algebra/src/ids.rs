//! Identifiers for table instances, columns and query blocks.
//!
//! Columns are identified *globally* within one optimization (a statement or
//! a whole batch): every table instance gets a fresh [`RelId`], and a column
//! is a `(RelId, ordinal)` pair. Global identities stay stable under join
//! reordering in the memo, which is what makes equivalence classes, view
//! matching and covering-subexpression construction tractable.

use std::fmt;

/// A table *instance* (a.k.a. correlation / range variable). Two references
/// to the same base table in one query get different `RelId`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelId(pub u32);

impl fmt::Display for RelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A query block: one query of a batch, or one subquery. Used to decide
/// whether two expressions come from "different parts of the query".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// A globally-identified column: ordinal `col` of table instance `rel`.
/// For derived rels (aggregate outputs), `col` indexes the derived outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColRef {
    pub rel: RelId,
    pub col: u16,
}

impl ColRef {
    pub fn new(rel: RelId, col: u16) -> Self {
        ColRef { rel, col }
    }
}

impl fmt::Display for ColRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.rel, self.col)
    }
}

/// Number of 64-bit words in a [`RelSet`]; caps table instances
/// (including synthetic aggregate-output rels) per optimization at 512.
pub const RELSET_WORDS: usize = 32;
/// Maximum rel id representable in a [`RelSet`].
pub const MAX_RELS: u32 = (RELSET_WORDS * 64) as u32;

/// A compact set of [`RelId`]s (fixed-size bitset; one optimization never
/// allocates more than [`MAX_RELS`] instances — asserted at allocation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct RelSet(pub [u64; RELSET_WORDS]);

impl RelSet {
    pub const EMPTY: RelSet = RelSet([0; RELSET_WORDS]);

    pub fn single(rel: RelId) -> Self {
        assert!(
            rel.0 < MAX_RELS,
            "more than {MAX_RELS} table instances in one optimization"
        );
        let mut w = [0u64; RELSET_WORDS];
        w[(rel.0 / 64) as usize] = 1u64 << (rel.0 % 64);
        RelSet(w)
    }

    #[allow(clippy::should_implement_trait)] // const-friendly inherent ctor
    pub fn from_iter(rels: impl IntoIterator<Item = RelId>) -> Self {
        let mut s = RelSet::EMPTY;
        for r in rels {
            s.insert(r);
        }
        s
    }

    pub fn insert(&mut self, rel: RelId) {
        assert!(
            rel.0 < MAX_RELS,
            "more than {MAX_RELS} table instances in one optimization"
        );
        self.0[(rel.0 / 64) as usize] |= 1u64 << (rel.0 % 64);
    }

    pub fn contains(&self, rel: RelId) -> bool {
        if rel.0 >= MAX_RELS {
            return false;
        }
        self.0[(rel.0 / 64) as usize] & (1u64 << (rel.0 % 64)) != 0
    }

    pub fn union(&self, other: RelSet) -> RelSet {
        let mut w = self.0;
        for (a, b) in w.iter_mut().zip(other.0.iter()) {
            *a |= b;
        }
        RelSet(w)
    }

    pub fn intersect(&self, other: RelSet) -> RelSet {
        let mut w = self.0;
        for (a, b) in w.iter_mut().zip(other.0.iter()) {
            *a &= b;
        }
        RelSet(w)
    }

    pub fn difference(&self, other: RelSet) -> RelSet {
        let mut w = self.0;
        for (a, b) in w.iter_mut().zip(other.0.iter()) {
            *a &= !b;
        }
        RelSet(w)
    }

    pub fn is_subset(&self, other: RelSet) -> bool {
        self.0.iter().zip(other.0.iter()).all(|(a, b)| a & !b == 0)
    }

    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|w| *w == 0)
    }

    pub fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = RelId> + '_ {
        let words = self.0.iter().enumerate().filter(|(_, w)| **w != 0);
        words.flat_map(|(i, &w)| {
            let bits = (0..64).filter(move |b| w >> b & 1 == 1);
            bits.map(move |b| RelId(i as u32 * 64 + b))
        })
    }
}

impl fmt::Display for RelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relset_basics() {
        let mut s = RelSet::EMPTY;
        assert!(s.is_empty());
        s.insert(RelId(3));
        s.insert(RelId(100));
        assert!(s.contains(RelId(3)));
        assert!(!s.contains(RelId(4)));
        assert_eq!(s.len(), 2);
        for r in [0, 63, 64, MAX_RELS - 1] {
            s.insert(RelId(r));
        }
        let items: Vec<_> = s.iter().collect();
        let want = [0, 3, 63, 64, 100, MAX_RELS - 1].map(RelId);
        assert_eq!(items, want);
    }

    #[test]
    fn relset_algebra() {
        let a = RelSet::from_iter([RelId(1), RelId(2)]);
        let b = RelSet::from_iter([RelId(2), RelId(3)]);
        assert_eq!(
            a.union(b),
            RelSet::from_iter([RelId(1), RelId(2), RelId(3)])
        );
        assert_eq!(a.intersect(b), RelSet::single(RelId(2)));
        assert_eq!(a.difference(b), RelSet::single(RelId(1)));
        assert!(RelSet::single(RelId(2)).is_subset(a));
        assert!(!a.is_subset(b));
    }

    #[test]
    fn display_forms() {
        assert_eq!(ColRef::new(RelId(2), 5).to_string(), "r2.5");
        assert_eq!(
            RelSet::from_iter([RelId(0), RelId(2)]).to_string(),
            "{r0,r2}"
        );
    }
}
