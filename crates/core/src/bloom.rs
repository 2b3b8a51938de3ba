//! The classic Bloom filter (Bloom, 1970) — the paper's baseline.
//!
//! DI-matching's `BF` comparison method (Section V-A) runs the same
//! distributed protocol with this unweighted filter: membership only, no
//! per-bit weight queues, and therefore no way to tell a global-pattern match
//! from a local-pattern match, and no weight-consistency rejection of false
//! positives.

use crate::bitset::BitSet;
use crate::error::Result;
use crate::hash::HashFamily;
use crate::params::FilterParams;

/// A classic Bloom filter over `u64` keys.
///
/// Guarantees no false negatives; false positives occur with probability
/// approaching [`FilterParams::false_positive_rate`].
///
/// # Examples
///
/// ```
/// use dipm_core::{BloomFilter, FilterParams};
///
/// # fn main() -> Result<(), dipm_core::CoreError> {
/// let params = FilterParams::optimal(100, 0.01)?;
/// let mut filter = BloomFilter::new(params, 7);
/// filter.insert(42);
/// assert!(filter.contains(42));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BloomFilter {
    bits: BitSet,
    family: HashFamily,
    inserted: u64,
}

impl BloomFilter {
    /// Creates an empty filter with the given geometry and hash seed.
    ///
    /// The seed must match between the encoder (data center) and every
    /// decoder (base station); it travels in the wire header.
    pub fn new(params: FilterParams, seed: u64) -> BloomFilter {
        BloomFilter {
            bits: BitSet::new(params.bits()),
            family: HashFamily::new(params.hashes(), seed),
            inserted: 0,
        }
    }

    pub(crate) fn from_parts(bits: BitSet, family: HashFamily, inserted: u64) -> BloomFilter {
        BloomFilter {
            bits,
            family,
            inserted,
        }
    }

    /// Inserts `key`, returning `true` if at least one bit was newly set
    /// (i.e. the key was definitely not present before).
    pub fn insert(&mut self, key: u64) -> bool {
        let m = self.bits.len();
        let mut newly = false;
        for idx in self.family.probes(key, m) {
            newly |= self.bits.set(idx);
        }
        self.inserted += 1;
        newly
    }

    /// Builds a whole filter in one pass: each key ORs its
    /// [`HashFamily::probes`] into the words, and the ones are counted once
    /// at the end. The bits, and so [`BloomFilter::contains`], equal those
    /// of inserting every key in turn; [`BloomFilter::inserted`] counts the
    /// keys passed, duplicates included, as that fold would.
    pub fn from_keys<I>(params: FilterParams, seed: u64, keys: I) -> BloomFilter
    where
        I: IntoIterator<Item = u64>,
    {
        let mut filter = BloomFilter::new(params, seed);
        let (family, m) = (filter.family, filter.bits.len());
        let mut inserted = 0;
        filter.bits.set_all(keys.into_iter().flat_map(|key| {
            inserted += 1;
            family.probes(key, m)
        }));
        filter.inserted = inserted;
        filter
    }

    /// Whether `key` may have been inserted (no false negatives).
    ///
    /// Probes at word level through the active [`Kernel`](crate::Kernel).
    pub fn contains(&self, key: u64) -> bool {
        let m = self.bits.len();
        self.bits.contains_probes(self.family.probes(key, m))
    }

    /// The number of keys inserted, by [`BloomFilter::insert`] or
    /// [`BloomFilter::from_keys`], duplicates included; a union sums its
    /// inputs' counts.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// The filter length in bits.
    pub fn bit_len(&self) -> usize {
        self.bits.len()
    }

    /// The number of hash functions.
    pub fn hashes(&self) -> u16 {
        self.family.hashes()
    }

    /// The hash seed.
    pub fn seed(&self) -> u64 {
        self.family.seed()
    }

    /// The fraction of set bits.
    pub fn fill_ratio(&self) -> f64 {
        self.bits.fill_ratio()
    }

    /// Merges another filter built with identical geometry and seed.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::IncompatibleFilters`](crate::CoreError) if the
    /// geometry or seed differs.
    pub fn union_with(&mut self, other: &BloomFilter) -> Result<()> {
        if self.family != other.family {
            return Err(crate::error::CoreError::IncompatibleFilters);
        }
        self.bits.union_with(&other.bits)?;
        self.inserted += other.inserted;
        Ok(())
    }

    /// Merges this filter into `dst` — the union direction a routing tree
    /// uses when folding children into their parent summary.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::IncompatibleFilters`](crate::CoreError) if the
    /// geometry or seed differs.
    pub fn union_into(&self, dst: &mut BloomFilter) -> Result<()> {
        dst.union_with(self)
    }

    /// Borrows the underlying bit set.
    pub fn bits(&self) -> &BitSet {
        &self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> BloomFilter {
        BloomFilter::new(FilterParams::new(1 << 12, 4).unwrap(), 11)
    }

    #[test]
    fn no_false_negatives() {
        let mut f = small();
        for key in 0..500u64 {
            f.insert(key * 7919);
        }
        for key in 0..500u64 {
            assert!(f.contains(key * 7919));
        }
    }

    #[test]
    fn insert_returns_newness() {
        let mut f = small();
        assert!(f.insert(1));
        assert!(!f.insert(1));
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = small();
        assert!(!f.contains(0));
        assert!(!f.contains(u64::MAX));
        assert_eq!(f.inserted(), 0);
        assert_eq!(f.fill_ratio(), 0.0);
    }

    #[test]
    fn observed_fpp_close_to_theory() {
        let params = FilterParams::optimal(1000, 0.02).unwrap();
        let mut f = BloomFilter::new(params, 3);
        for key in 0..1000u64 {
            f.insert(key);
        }
        let mut false_positives = 0;
        let probes = 20_000u64;
        for key in 1_000_000..1_000_000 + probes {
            if f.contains(key) {
                false_positives += 1;
            }
        }
        let observed = false_positives as f64 / probes as f64;
        // Theory says ~2%; accept up to 2x (small-sample noise).
        assert!(observed < 0.04, "observed fpp {observed}");
    }

    #[test]
    fn union_merges_membership() {
        let mut a = small();
        let mut b = small();
        a.insert(1);
        b.insert(2);
        a.union_with(&b).unwrap();
        assert!(a.contains(1));
        assert!(a.contains(2));
        assert_eq!(a.inserted(), 2);
    }

    #[test]
    fn union_rejects_different_seed() {
        let mut a = small();
        let b = BloomFilter::new(FilterParams::new(1 << 12, 4).unwrap(), 12);
        assert!(a.union_with(&b).is_err());
    }

    #[test]
    fn union_rejects_different_geometry() {
        let mut a = small();
        let b = BloomFilter::new(FilterParams::new(1 << 11, 4).unwrap(), 11);
        assert!(a.union_with(&b).is_err());
    }

    #[test]
    fn union_into_keeps_every_constituent_reachable() {
        let mut f = small();
        f.insert(10);
        let mut g = small();
        g.insert(30);
        g.union_into(&mut f).unwrap();
        assert!(f.contains(10) && f.contains(30));
        // Incompatible union direction errors symmetrically.
        let other_seed = BloomFilter::new(FilterParams::new(1 << 12, 4).unwrap(), 99);
        assert!(other_seed.union_into(&mut f).is_err());
    }

    #[test]
    fn order_insensitive_membership() {
        // A plain BF cannot distinguish {1,2,3} from {3,2,1}: this is exactly
        // the weakness the paper's accumulation + WBF design addresses.
        let mut f = small();
        for v in [1u64, 2, 3] {
            f.insert(v);
        }
        assert!([3u64, 2, 1].iter().all(|&v| f.contains(v)));
    }
}
