//! Small ordered sets of weights attached to filter bits.
//!
//! Every set bit of a [`WeightedBloomFilter`](crate::WeightedBloomFilter)
//! carries the weights of the values that set it (the paper's "pointer to a
//! queue of weights"). Matching intersects these sets across all probed bits;
//! a candidate survives only if a single common weight remains.

use std::fmt;

use crate::weight::Weight;

/// An ordered, duplicate-free set of [`Weight`]s.
///
/// Backed by a sorted `Vec`: the sets are tiny in practice (one entry per
/// distinct pattern weight that touched a bit), so a flat vector beats tree
/// or hash structures on both memory and intersection speed.
///
/// # Examples
///
/// ```
/// use dipm_core::{Weight, WeightSet};
///
/// # fn main() -> Result<(), dipm_core::CoreError> {
/// let mut a = WeightSet::new();
/// a.insert(Weight::new(1, 3)?);
/// a.insert(Weight::ONE);
///
/// let mut b = WeightSet::new();
/// b.insert(Weight::new(1, 3)?);
///
/// let common = a.intersection(&b);
/// assert_eq!(common.len(), 1);
/// assert_eq!(common.max(), Some(Weight::new(1, 3)?));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct WeightSet {
    sorted: Vec<Weight>,
}

impl WeightSet {
    /// Creates an empty set.
    pub fn new() -> WeightSet {
        WeightSet { sorted: Vec::new() }
    }

    /// Creates a set holding a single weight.
    pub fn singleton(weight: Weight) -> WeightSet {
        WeightSet {
            sorted: vec![weight],
        }
    }

    /// The number of distinct weights in the set.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the set holds no weights.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Inserts `weight`, returning `true` if it was not already present.
    pub fn insert(&mut self, weight: Weight) -> bool {
        match self.sorted.binary_search(&weight) {
            Ok(_) => false,
            Err(pos) => {
                self.sorted.insert(pos, weight);
                true
            }
        }
    }

    /// Whether `weight` is present.
    pub fn contains(&self, weight: Weight) -> bool {
        self.sorted.binary_search(&weight).is_ok()
    }

    /// The largest weight, i.e. the most-complete pattern match, if any.
    pub fn max(&self) -> Option<Weight> {
        self.sorted.last().copied()
    }

    /// The smallest weight, if any. Base stations report this one when the
    /// intersection is ambiguous: tolerance bands of nested combinations
    /// overlap, and under-reporting only lowers a true candidate's rank,
    /// whereas over-reporting inflates its weight sum past 1 and gets it
    /// wrongly deleted by Algorithm 3.
    pub fn min(&self) -> Option<Weight> {
        self.sorted.first().copied()
    }

    /// The weights common to `self` and `other`, as a new set.
    pub fn intersection(&self, other: &WeightSet) -> WeightSet {
        let mut out = WeightSet::new();
        out.assign_intersection(self, other);
        out
    }

    /// Retains only weights also present in `other` (in-place intersection).
    ///
    /// Allocation-free: surviving weights are compacted to the front and the
    /// vector truncated, so the hot probe loop never touches the heap.
    pub fn intersect_with(&mut self, other: &WeightSet) {
        self.intersect_with_sorted(other.iter());
    }

    /// Retains only weights also produced by `other`, which must yield
    /// weights in strictly ascending order (as all set iterators here do).
    /// Allocation-free in-place compaction.
    pub(crate) fn intersect_with_sorted<I>(&mut self, mut other: I)
    where
        I: Iterator<Item = Weight>,
    {
        let mut write = 0;
        let mut candidate = other.next();
        for read in 0..self.sorted.len() {
            let w = self.sorted[read];
            while let Some(c) = candidate {
                if c < w {
                    candidate = other.next();
                } else {
                    break;
                }
            }
            match candidate {
                Some(c) if c == w => {
                    self.sorted[write] = w;
                    write += 1;
                    candidate = other.next();
                }
                Some(_) => {}
                None => break,
            }
        }
        self.sorted.truncate(write);
    }

    /// Empties the set, keeping its capacity for reuse.
    pub fn clear(&mut self) {
        self.sorted.clear();
    }

    /// Replaces this set's contents with weights yielded in strictly
    /// ascending order, reusing the existing capacity.
    pub(crate) fn assign_sorted<I>(&mut self, weights: I)
    where
        I: Iterator<Item = Weight>,
    {
        self.sorted.clear();
        self.sorted.extend(weights);
        debug_assert!(self.sorted.windows(2).all(|w| w[0] < w[1]));
    }

    /// Replaces this set's contents with the weights of `universe` selected
    /// by `mask` (bit `i` selects `universe.as_slice()[i]`), reusing the
    /// existing capacity. Ascending bit order over a sorted universe keeps
    /// the result sorted.
    pub(crate) fn assign_mask(&mut self, universe: &WeightSet, mut mask: u64) {
        self.sorted.clear();
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            self.sorted.push(universe.sorted[i]);
            mask &= mask - 1;
        }
    }

    /// Replaces this set's contents with `a ∩ b`, reusing the existing
    /// capacity.
    pub fn assign_intersection(&mut self, a: &WeightSet, b: &WeightSet) {
        self.sorted.clear();
        let (mut i, mut j) = (0, 0);
        while i < a.sorted.len() && j < b.sorted.len() {
            match a.sorted[i].cmp(&b.sorted[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    self.sorted.push(a.sorted[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
    }

    /// The weights in `self` but not in `other`, as a new set.
    pub fn difference(&self, other: &WeightSet) -> WeightSet {
        let mut out = WeightSet::new();
        out.assign_difference(self, other);
        out
    }

    /// Replaces this set's contents with `a \ b`, reusing the existing
    /// capacity.
    pub(crate) fn assign_difference(&mut self, a: &WeightSet, b: &WeightSet) {
        self.assign_sorted(a.iter().filter(|&w| !b.contains(w)));
    }

    /// The index of `weight` in ascending order, if present.
    pub(crate) fn position(&self, weight: Weight) -> Option<usize> {
        self.sorted.binary_search(&weight).ok()
    }

    /// Adds every weight of `other` into `self`.
    pub fn union_with(&mut self, other: &WeightSet) {
        for &w in &other.sorted {
            self.insert(w);
        }
    }

    /// Iterates over the weights in ascending order.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, Weight>> {
        self.sorted.iter().copied()
    }

    /// Borrows the sorted backing slice.
    pub fn as_slice(&self) -> &[Weight] {
        &self.sorted
    }
}

impl FromIterator<Weight> for WeightSet {
    fn from_iter<I: IntoIterator<Item = Weight>>(iter: I) -> WeightSet {
        let mut set = WeightSet::new();
        for w in iter {
            set.insert(w);
        }
        set
    }
}

impl Extend<Weight> for WeightSet {
    fn extend<I: IntoIterator<Item = Weight>>(&mut self, iter: I) {
        for w in iter {
            self.insert(w);
        }
    }
}

impl<'a> IntoIterator for &'a WeightSet {
    type Item = Weight;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Weight>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Display for WeightSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, w) in self.sorted.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{w}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(n: u64, d: u64) -> Weight {
        Weight::new(n, d).unwrap()
    }

    #[test]
    fn insert_keeps_sorted_and_deduplicates() {
        let mut set = WeightSet::new();
        assert!(set.insert(w(2, 3)));
        assert!(set.insert(w(1, 3)));
        assert!(!set.insert(w(2, 6))); // equals 1/3 after reduction
        assert_eq!(set.len(), 2);
        assert_eq!(set.as_slice(), &[w(1, 3), w(2, 3)]);
    }

    #[test]
    fn contains_and_max() {
        let set: WeightSet = [w(1, 4), w(3, 4), w(1, 2)].into_iter().collect();
        assert!(set.contains(w(2, 4)));
        assert!(!set.contains(Weight::ONE));
        assert_eq!(set.max(), Some(w(3, 4)));
    }

    #[test]
    fn empty_set_behaviour() {
        let set = WeightSet::new();
        assert!(set.is_empty());
        assert_eq!(set.max(), None);
        assert_eq!(
            set.intersection(&WeightSet::singleton(Weight::ONE)).len(),
            0
        );
    }

    #[test]
    fn intersection_is_commutative_and_correct() {
        let a: WeightSet = [w(1, 4), w(1, 2), Weight::ONE].into_iter().collect();
        let b: WeightSet = [w(1, 2), Weight::ONE, w(3, 4)].into_iter().collect();
        let ab = a.intersection(&b);
        let ba = b.intersection(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.as_slice(), &[w(1, 2), Weight::ONE]);
    }

    #[test]
    fn intersect_with_mutates_in_place() {
        let mut a: WeightSet = [w(1, 4), w(1, 2)].into_iter().collect();
        let b = WeightSet::singleton(w(1, 2));
        a.intersect_with(&b);
        assert_eq!(a.as_slice(), &[w(1, 2)]);
    }

    #[test]
    fn difference_removes_shared_weights() {
        let a: WeightSet = [w(1, 4), w(1, 2), Weight::ONE].into_iter().collect();
        let b: WeightSet = [w(1, 2)].into_iter().collect();
        assert_eq!(a.difference(&b).as_slice(), &[w(1, 4), Weight::ONE]);
        assert_eq!(b.difference(&a).len(), 0);
        assert_eq!(a.difference(&WeightSet::new()), a);
    }

    #[test]
    fn union_with_merges() {
        let mut a = WeightSet::singleton(w(1, 4));
        let b: WeightSet = [w(1, 4), w(1, 2)].into_iter().collect();
        a.union_with(&b);
        assert_eq!(a.as_slice(), &[w(1, 4), w(1, 2)]);
    }

    #[test]
    fn display_lists_weights() {
        let set: WeightSet = [w(1, 2), Weight::ONE].into_iter().collect();
        assert_eq!(set.to_string(), "{1/2, 1}");
    }

    #[test]
    fn in_place_ops_match_allocating_counterparts() {
        let a: WeightSet = [w(1, 4), w(1, 2), w(2, 3), Weight::ONE]
            .into_iter()
            .collect();
        let b: WeightSet = [w(1, 2), w(3, 4), Weight::ONE].into_iter().collect();
        let expected = a.intersection(&b);

        let mut in_place = a.clone();
        in_place.intersect_with(&b);
        assert_eq!(in_place, expected);

        let mut assigned = WeightSet::singleton(w(9, 10)); // stale content
        assigned.assign_intersection(&a, &b);
        assert_eq!(assigned, expected);

        assigned.assign_difference(&a, &b);
        assert_eq!(assigned.as_slice(), &[w(1, 4), w(2, 3)]);

        let mut cleared = a.clone();
        cleared.clear();
        assert!(cleared.is_empty());

        let mut from_sorted = WeightSet::singleton(w(9, 10));
        from_sorted.assign_sorted(a.iter());
        assert_eq!(from_sorted, a);
    }

    #[test]
    fn intersect_with_sorted_handles_exhausted_iterators() {
        // Other runs dry mid-way: the tail of self must be dropped.
        let mut a: WeightSet = [w(1, 4), w(1, 2), Weight::ONE].into_iter().collect();
        a.intersect_with_sorted([w(1, 4)].into_iter());
        assert_eq!(a.as_slice(), &[w(1, 4)]);
        // Empty other empties self.
        let mut b: WeightSet = [w(1, 2)].into_iter().collect();
        b.intersect_with_sorted(std::iter::empty());
        assert!(b.is_empty());
        // Disjoint sets intersect to empty both ways.
        let mut c: WeightSet = [w(1, 3)].into_iter().collect();
        c.intersect_with_sorted([w(1, 2)].into_iter());
        assert!(c.is_empty());
    }

    #[test]
    fn extend_and_ref_into_iter() {
        let mut set = WeightSet::new();
        set.extend([w(1, 3), w(2, 3)]);
        let collected: Vec<Weight> = (&set).into_iter().collect();
        assert_eq!(collected, vec![w(1, 3), w(2, 3)]);
    }
}
