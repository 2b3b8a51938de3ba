//! The Weighted Bloom Filter — the paper's central data structure.
//!
//! A WBF extends a Bloom filter so that "each bit with 1 … has a pointer
//! pointing to the weight of corresponding hashed values" (Section II-B).
//! Insertion attaches the inserting pattern's weight to every probed bit;
//! lookup succeeds only if all probed bits are set *and* their weight sets
//! share at least one common weight. Sharing a weight across all `b` sampled
//! points of a candidate pattern is the paper's mechanism for (a) telling
//! global-pattern matches (weight 1) from local-pattern matches (weight < 1)
//! and (b) rejecting Bloom false positives whose probed bits were set by
//! *different* patterns — e.g. `{1,4,5}` probing a filter holding `{1,2,3}`
//! and `{2,4,5}` hits only set bits but no consistent weight.

use std::sync::OnceLock;

use crate::bitset::BitSet;
use crate::counting::WeightDiff;
use crate::error::{CoreError, Result};
use crate::hash::{HashFamily, Probes};
use crate::params::FilterParams;
use crate::probe::{self, ProbeTable, QueryScratch};
use crate::weight::Weight;
use crate::weight_set::WeightSet;

/// A weighted Bloom filter over `u64` keys.
///
/// # Examples
///
/// Distinguishing a stitched-together false positive, per Section IV-B:
///
/// ```
/// use dipm_core::{FilterParams, Weight, WeightedBloomFilter};
///
/// # fn main() -> Result<(), dipm_core::CoreError> {
/// let params = FilterParams::new(1 << 12, 4)?;
/// let mut wbf = WeightedBloomFilter::new(params, 99);
///
/// let w1 = Weight::new(1, 3)?;
/// let w2 = Weight::new(2, 3)?;
/// for v in [1u64, 2, 3] {
///     wbf.insert(v, w1);
/// }
/// for v in [2u64, 4, 5] {
///     wbf.insert(v, w2);
/// }
///
/// // {1,4,5} hits only set bits, so a plain Bloom filter accepts it…
/// assert!([1u64, 4, 5].iter().all(|&v| wbf.contains(v)));
/// // …but no single weight is shared by all three values, so the WBF
/// // rejects it: the intersection of the points' weight sets is empty.
/// let stitched = wbf.query_sequence([1u64, 4, 5]).expect("bits are set");
/// assert!(stitched.is_empty());
/// // A genuine pattern still reports its weight.
/// assert_eq!(wbf.query_sequence([1u64, 2, 3]).map(|ws| ws.max()), Some(Some(w1)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct WeightedBloomFilter {
    bits: BitSet,
    // Dense per-bit slot index into `sets`: the probe hot path resolves a
    // bit's weight set with one bounds-free load instead of a tree walk.
    // `EMPTY_SLOT` marks a bit with no weights; a slot whose set has been
    // emptied by a delta stays allocated (tombstone) and is reused when the
    // position refills.
    slots: Vec<u32>,
    sets: Vec<WeightSet>,
    family: HashFamily,
    inserted: u64,
    // Lazily derived weight state (see `FoldState`): `insert` and
    // `union_with` reset it, `apply_delta` keeps it in step. Equality and
    // the wire format ignore it.
    fold: OnceLock<FoldState>,
}

/// The weight state derived from the per-position sets: the sorted weight
/// universe — the score universe dynamic-pruning scans bound against — and
/// the fold acceleration of the scan hot path, each weight-set slot
/// reduced to a bitmask over that universe, so the per-row weight fold
/// (intersect the weight sets of every probed position) is a chain of
/// `AND`s over one `u64` with a zero early-exit instead of up to `b × k`
/// sorted-set merges.
///
/// Per-weight carrier counts let a delta retire a weight from the universe
/// the moment its last position drops it, without rescanning the filter.
#[derive(Debug, Clone)]
struct FoldState {
    /// Every weight attached somewhere, ascending; mask bits index into it.
    universe: WeightSet,
    /// Parallel to `universe`: how many positions carry each weight.
    carriers: Vec<u32>,
    /// One mask per slot in `sets`, parallel to it: bit `i` set iff the
    /// slot's set contains `universe.as_slice()[i]`. `None` while the
    /// universe is wider than the 64-weight mask (rare — the universe is
    /// one entry per distinct pattern weight); folds then take the generic
    /// merge path.
    masks: Option<Vec<u64>>,
}

/// Mask bits a [`FoldState`] has: universes wider than this fold generically.
const MASK_WIDTH: usize = 64;

impl FoldState {
    fn derive(sets: &[WeightSet]) -> FoldState {
        let mut universe = WeightSet::new();
        for set in sets {
            universe.union_with(set);
        }
        let mut carriers = vec![0u32; universe.len()];
        let fits = universe.len() <= MASK_WIDTH;
        let mut masks = Vec::with_capacity(if fits { sets.len() } else { 0 });
        for set in sets {
            let mut mask = 0u64;
            for w in set.iter() {
                let i = universe
                    .position(w)
                    .expect("universe holds every attached weight");
                carriers[i] += 1;
                if fits {
                    mask |= 1 << i;
                }
            }
            if fits {
                masks.push(mask);
            }
        }
        FoldState {
            universe,
            carriers,
            masks: fits.then_some(masks),
        }
    }

    /// Admits the weights `diffs` add that the universe lacks, shifting
    /// every mask once per new weight (or dropping the masks once the
    /// universe outgrows them), then returns each diff's `(removed, added)`
    /// masks over the widened universe — none while masks are dropped.
    fn admit(&mut self, diffs: &[WeightDiff]) -> Vec<(u64, u64)> {
        for diff in diffs {
            for w in diff.added.iter() {
                let Err(i) = self.universe.as_slice().binary_search(&w) else {
                    continue;
                };
                self.universe.insert(w);
                self.carriers.insert(i, 0);
                if self.universe.len() > MASK_WIDTH {
                    self.masks = None;
                }
                if let Some(masks) = &mut self.masks {
                    let low = (1u64 << i) - 1;
                    for mask in masks {
                        *mask = (*mask & low) | ((*mask & !low) << 1);
                    }
                }
            }
        }
        if self.masks.is_none() {
            return Vec::new();
        }
        let side = |set: &WeightSet| {
            set.iter()
                .filter_map(|w| self.universe.position(w))
                .fold(0u64, |mask, i| mask | 1 << i)
        };
        diffs
            .iter()
            .map(|diff| (side(&diff.removed), side(&diff.added)))
            .collect()
    }

    /// Moves the carrier counts by `applied[d]` uses of each diff, then
    /// retires the weights no position carries any more.
    fn settle(&mut self, diffs: &[WeightDiff], applied: &[u32]) {
        let used = || diffs.iter().zip(applied).filter(|&(_, &uses)| uses > 0);
        // Additions first: an entry may remove what an earlier entry of the
        // same delta added, so only the net count is known to be in range.
        for (diff, &uses) in used() {
            for w in diff.added.iter() {
                let i = self.universe.position(w).expect("admitted before apply");
                self.carriers[i] += uses;
            }
        }
        for (diff, &uses) in used() {
            for w in diff.removed.iter() {
                let i = self
                    .universe
                    .position(w)
                    .expect("a removed weight was attached");
                self.carriers[i] -= uses;
            }
        }
        if !self.carriers.contains(&0) {
            return;
        }
        if let Some(masks) = &mut self.masks {
            for i in (0..self.carriers.len()).rev() {
                if self.carriers[i] == 0 {
                    let low = (1u64 << i) - 1;
                    for mask in masks.iter_mut() {
                        *mask = (*mask & low) | ((*mask >> 1) & !low);
                    }
                }
            }
        }
        let kept: Vec<Weight> = self
            .universe
            .iter()
            .zip(&self.carriers)
            .filter(|&(_, &c)| c > 0)
            .map(|(w, _)| w)
            .collect();
        self.universe.assign_sorted(kept.into_iter());
        self.carriers.retain(|&c| c > 0);
    }
}

/// Sentinel in `slots` for a position carrying no weights.
const EMPTY_SLOT: u32 = u32::MAX;

impl WeightedBloomFilter {
    /// Creates an empty weighted filter with the given geometry and seed.
    pub fn new(params: FilterParams, seed: u64) -> WeightedBloomFilter {
        WeightedBloomFilter {
            bits: BitSet::new(params.bits()),
            slots: vec![EMPTY_SLOT; params.bits()],
            sets: Vec::new(),
            family: HashFamily::new(params.hashes(), seed),
            inserted: 0,
            fold: OnceLock::new(),
        }
    }

    /// Assembles a decoded filter: `sets` holds the weight set of each set
    /// bit of `bits`, in ascending bit order.
    pub(crate) fn from_parts(
        bits: BitSet,
        family: HashFamily,
        inserted: u64,
        sets: Vec<WeightSet>,
    ) -> WeightedBloomFilter {
        assert_eq!(sets.len(), bits.count_ones(), "one weight set per set bit");
        let mut slots = vec![EMPTY_SLOT; bits.len()];
        for (slot, bit) in bits.iter_ones().enumerate() {
            slots[bit] = slot as u32;
        }
        WeightedBloomFilter {
            bits,
            slots,
            sets,
            family,
            inserted,
            fold: OnceLock::new(),
        }
    }

    /// The weight set slot for `bit`, allocating (or reusing a tombstoned)
    /// slot on first attachment.
    fn slot_or_insert(&mut self, bit: usize) -> usize {
        match self.slots[bit] {
            EMPTY_SLOT => {
                self.slots[bit] = self.sets.len() as u32;
                self.sets.push(WeightSet::new());
                self.sets.len() - 1
            }
            slot => slot as usize,
        }
    }

    /// Iterates `(bit, weight set)` over every position carrying weights, in
    /// ascending bit order — the canonical order the wire encoding and
    /// equality rely on.
    pub(crate) fn weight_positions(&self) -> impl Iterator<Item = (u32, &WeightSet)> {
        self.slots.iter().enumerate().filter_map(|(idx, &slot)| {
            if slot == EMPTY_SLOT {
                return None;
            }
            let set = &self.sets[slot as usize];
            (!set.is_empty()).then_some((idx as u32, set))
        })
    }

    /// Inserts `key` carrying `weight`: sets all `k` probed bits and attaches
    /// the weight to each.
    pub fn insert(&mut self, key: u64, weight: Weight) {
        let m = self.bits.len();
        for idx in self.family.probes(key, m) {
            self.bits.set(idx);
            let slot = self.slot_or_insert(idx);
            self.sets[slot].insert(weight);
        }
        self.inserted += 1;
        self.fold.take();
    }

    /// Pure membership test (ignores weights): whether all probed bits are
    /// set. Matches classic Bloom semantics — no false negatives.
    pub fn contains(&self, key: u64) -> bool {
        let m = self.bits.len();
        self.bits.contains_probes(self.family.probes(key, m))
    }

    /// Queries a single key: `None` if any probed bit is unset, otherwise the
    /// intersection of the probed bits' weight sets (Algorithm 2, lines 4–9).
    ///
    /// An empty returned set means the bits were set but by values of
    /// inconsistent weights — the candidate is rejected. Membership is
    /// tested across *all* probed bits (word-level) before any weight set is
    /// read, so a miss never touches the weight table.
    ///
    /// Allocates the result; the scan hot path uses
    /// [`WeightedBloomFilter::query_into`] with a reused buffer instead.
    pub fn query(&self, key: u64) -> Option<WeightSet> {
        let mut out = WeightSet::new();
        probe::query_into(self, key, &mut out).map(|()| out)
    }

    /// Allocation-free [`WeightedBloomFilter::query`]: the intersection is
    /// written into `out` (cleared and overwritten, capacity reused). The
    /// first occupied probe is borrowed from the filter; only a second
    /// distinct probe copies anything.
    pub fn query_into(&self, key: u64, out: &mut WeightSet) -> Option<()> {
        probe::query_into(self, key, out)
    }

    /// Queries a sequence of keys (the `b` sampled points of one candidate
    /// pattern) and returns the weights common to *every* point, or `None`
    /// if any point misses entirely (Algorithm 2, lines 3–15).
    ///
    /// The caller accepts the candidate iff the result is `Some` of a
    /// non-empty set; [`WeightSet::max`] is then the reported weight.
    ///
    /// Allocates the result; the scan hot path uses
    /// [`WeightedBloomFilter::query_sequence_into`] with reusable scratch.
    pub fn query_sequence<I>(&self, keys: I) -> Option<WeightSet>
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: Clone,
    {
        let mut scratch = QueryScratch::new();
        self.query_sequence_into(keys, &mut scratch).cloned()
    }

    /// Allocation-free [`WeightedBloomFilter::query_sequence`]: the running
    /// intersection lives in `scratch` (capacity reused across calls) and
    /// the result borrows from it — or directly from the filter when a
    /// single position's set *is* the answer, in which case nothing is
    /// copied at all.
    pub fn query_sequence_into<'s, I>(
        &'s self,
        keys: I,
        scratch: &'s mut QueryScratch,
    ) -> Option<&'s WeightSet>
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: Clone,
    {
        probe::query_sequence_into(self, keys, scratch)
    }

    /// [`WeightedBloomFilter::query_sequence_into`] over a probe set hashed
    /// once via [`PrecomputedProbes`](crate::PrecomputedProbes): membership
    /// is tested with the precomputed word masks in one batched pass, and
    /// the weight fold replays the stored indices — no re-hashing. Batch
    /// scans use this to probe one row against many sections sharing this
    /// filter's geometry.
    ///
    /// `pre` must have been computed against an identical `(hash family,
    /// bit length)` geometry; results are then exactly those of
    /// `query_sequence_into` over the same keys.
    pub fn query_precomputed<'s>(
        &'s self,
        pre: &crate::probe::PrecomputedProbes,
        scratch: &'s mut QueryScratch,
    ) -> Option<&'s WeightSet> {
        if pre.is_empty() || !self.bits.contains_probes_simd(pre.words(), pre.mask_bits()) {
            return None;
        }
        self.fold_weights_precomputed(pre, scratch)
    }

    /// The weight fold of [`WeightedBloomFilter::query_precomputed`] alone,
    /// for scans that already verified membership of every key (e.g. key by
    /// key via [`PrecomputedProbes::key_masks`](crate::PrecomputedProbes::key_masks)
    /// and [`BitSet::contains_probes_simd`](crate::BitSet::contains_probes_simd)).
    /// Returns `None` for an empty probe set.
    ///
    /// # Panics
    ///
    /// May panic if any precomputed probe index is unoccupied — run the
    /// membership test first.
    pub fn fold_weights_precomputed<'s>(
        &'s self,
        pre: &crate::probe::PrecomputedProbes,
        scratch: &'s mut QueryScratch,
    ) -> Option<&'s WeightSet> {
        let indices = pre.indices();
        let state = self.fold_state();
        if let Some(masks) = &state.masks {
            if indices.is_empty() {
                return None;
            }
            // Every probed position's set as one mask over the universe:
            // the whole fold is an AND chain with a zero early-exit, and
            // the surviving intersection materializes straight from the
            // sorted universe.
            let mut mask = u64::MAX;
            for &idx in indices {
                mask &= masks[self.slots[idx as usize] as usize];
                if mask == 0 {
                    break;
                }
            }
            scratch.acc.assign_mask(&state.universe, mask);
            return Some(&scratch.acc);
        }
        probe::fold_weights_at(self, indices, scratch)
    }

    /// The derived weight state, built from the sets on first use after a
    /// reset.
    fn fold_state(&self) -> &FoldState {
        self.fold.get_or_init(|| FoldState::derive(&self.sets))
    }

    /// The number of insert operations performed.
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

    /// The hash seed shared between data center and base stations.
    pub fn seed(&self) -> u64 {
        self.family.seed()
    }

    /// The fraction of set bits.
    pub fn fill_ratio(&self) -> f64 {
        self.bits.fill_ratio()
    }

    /// The total number of stored `(bit, weight)` attachments — the extra
    /// storage a WBF pays over a plain Bloom filter (Fig. 4d).
    pub fn weight_entries(&self) -> usize {
        self.sets.iter().map(WeightSet::len).sum()
    }

    /// The number of distinct weights across all bits.
    pub fn distinct_weights(&self) -> usize {
        self.weight_universe().len()
    }

    /// The sorted set of every distinct weight attached anywhere in the
    /// filter — the score universe a pruning scan bounds candidates
    /// against. Any weight a query of this filter can ever report is drawn
    /// from this set, so its maximum is the section's score upper bound.
    ///
    /// Derived on first use and cached; [`insert`] and [`union_with`]
    /// reset the cache, and [`apply_delta`] updates it in place.
    ///
    /// [`insert`]: WeightedBloomFilter::insert
    /// [`union_with`]: WeightedBloomFilter::union_with
    /// [`apply_delta`]: WeightedBloomFilter::apply_delta
    pub fn weight_universe(&self) -> &WeightSet {
        &self.fold_state().universe
    }

    /// Theoretical false-positive probability of the *membership* layer at
    /// the current fill; weight consistency only lowers the real rate.
    pub fn estimated_membership_fpp(&self) -> f64 {
        self.bits.fill_ratio().powi(self.family.hashes() as i32)
    }

    /// Merges another WBF built with identical geometry and seed, unioning
    /// bits and per-bit weight sets.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::IncompatibleFilters`] if geometry or seed differ.
    pub fn union_with(&mut self, other: &WeightedBloomFilter) -> Result<()> {
        if self.family != other.family {
            return Err(CoreError::IncompatibleFilters);
        }
        self.bits.union_with(&other.bits)?;
        for (idx, set) in other.weight_positions() {
            let slot = self.slot_or_insert(idx as usize);
            self.sets[slot].union_with(set);
        }
        self.inserted += other.inserted;
        self.fold.take();
        Ok(())
    }

    /// Applies a filter delta: `entries` pairs a position with an index
    /// into `diffs`, the [`WeightDiff`] of that position relative to this
    /// filter's current state, as broadcast by a streaming data center
    /// maintaining a [`CountingWbf`](crate::CountingWbf).
    ///
    /// Each entry is checked against its position's own set: every removed
    /// weight must currently be attached and every added weight absent. A
    /// mismatch means the station's state diverged from the baseline the
    /// center diffed against (a missed or replayed epoch). Sets are edited
    /// in place; a position whose set empties is cleared, and a previously
    /// clear position gains its first weights and its bit. A derived weight
    /// universe and its fold masks are kept in step rather than rebuilt, so
    /// the cost follows the delta, not the filter.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Decode`] at the first entry whose position is
    /// outside the filter, whose diff index is outside `diffs`, whose diff
    /// is empty, or whose diff does not match the current state. The entries
    /// before it stay applied and none after it is.
    pub fn apply_delta(&mut self, diffs: &[WeightDiff], entries: &[(u32, u32)]) -> Result<()> {
        let mut state = self.fold.take();
        let diff_masks = state
            .as_mut()
            .map_or_else(Vec::new, |state| state.admit(diffs));
        let mut applied = vec![0u32; diffs.len()];
        let result = entries.iter().try_for_each(|&(bit, d)| {
            let diff = diffs.get(d as usize).ok_or_else(|| {
                CoreError::decode("delta entry references a diff outside the table")
            })?;
            let slot = self.apply_entry(bit, diff)?;
            applied[d as usize] += 1;
            if let Some(masks) = state.as_mut().and_then(|state| state.masks.as_mut()) {
                // A freshly allocated slot extends the parallel mask vector.
                if slot == masks.len() {
                    masks.push(0);
                }
                let (removed, added) = diff_masks[d as usize];
                masks[slot] = (masks[slot] & !removed) | added;
            }
            Ok(())
        });
        if let Some(mut state) = state {
            state.settle(diffs, &applied);
            // Masks dropped while the universe was too wide are derived
            // afresh on the next read once it fits again.
            if state.masks.is_some() || state.universe.len() > MASK_WIDTH {
                self.fold = OnceLock::from(state);
            }
        }
        result
    }

    /// Applies one delta entry to its position's own set and returns the
    /// slot the position occupies; mutates nothing on error.
    fn apply_entry(&mut self, bit: u32, diff: &WeightDiff) -> Result<usize> {
        let idx = bit as usize;
        if idx >= self.bits.len() {
            return Err(CoreError::decode("delta entry beyond filter length"));
        }
        if diff.is_empty() {
            return Err(CoreError::decode("empty delta entry"));
        }
        let current = ProbeTable::set_at(self, idx);
        let carries = |w| current.is_some_and(|set| set.contains(w));
        if !diff.removed.iter().all(carries) {
            return Err(CoreError::decode(
                "delta removes a weight the position does not carry",
            ));
        }
        if diff.added.iter().any(carries) {
            return Err(CoreError::decode(
                "delta adds a weight the position already carries",
            ));
        }
        let slot = self.slot_or_insert(idx);
        let set = &mut self.sets[slot];
        set.apply_diff(&diff.removed, &diff.added);
        if set.is_empty() {
            // Tombstone: the slot stays allocated for reuse when the
            // position refills; an empty set reads as "no weights".
            self.bits.unset(idx);
        } else {
            self.bits.set(idx);
        }
        Ok(slot)
    }

    /// Borrows the underlying bit set.
    pub fn bits(&self) -> &BitSet {
        &self.bits
    }
}

/// Equality is semantic — per-position weight sets in bit order — because
/// the slot layout depends on attachment order: a filter built by inserts
/// and the same filter decoded from the wire (or snapshotted from a
/// counting filter) must compare equal.
impl PartialEq for WeightedBloomFilter {
    fn eq(&self, other: &WeightedBloomFilter) -> bool {
        self.inserted == other.inserted
            && self.family == other.family
            && self.bits == other.bits
            && self.weight_positions().eq(other.weight_positions())
    }
}

impl Eq for WeightedBloomFilter {}

impl ProbeTable for WeightedBloomFilter {
    type Weights<'a> = std::iter::Copied<std::slice::Iter<'a, Weight>>;

    fn geometry(&self) -> (&HashFamily, usize) {
        (&self.family, self.bits.len())
    }

    fn occupied(&self, probes: Probes) -> bool {
        self.bits.contains_probes(probes)
    }

    fn weights_at(&self, idx: usize) -> Option<Self::Weights<'_>> {
        self.set_at(idx).map(WeightSet::iter)
    }

    fn set_at(&self, idx: usize) -> Option<&WeightSet> {
        match self.slots[idx] {
            EMPTY_SLOT => None,
            slot => {
                let set = &self.sets[slot as usize];
                (!set.is_empty()).then_some(set)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> FilterParams {
        FilterParams::new(1 << 12, 4).unwrap()
    }

    fn w(n: u64, d: u64) -> Weight {
        Weight::new(n, d).unwrap()
    }

    #[test]
    fn insert_then_query_returns_weight() {
        let mut wbf = WeightedBloomFilter::new(params(), 1);
        wbf.insert(42, w(1, 3));
        let set = wbf.query(42).unwrap();
        assert!(set.contains(w(1, 3)));
    }

    #[test]
    fn query_missing_key_is_none() {
        let wbf = WeightedBloomFilter::new(params(), 1);
        assert!(wbf.query(42).is_none());
        assert!(wbf.query_sequence([1u64, 2]).is_none());
    }

    #[test]
    fn query_sequence_of_nothing_is_none() {
        let mut wbf = WeightedBloomFilter::new(params(), 1);
        wbf.insert(1, Weight::ONE);
        assert!(wbf.query_sequence(std::iter::empty()).is_none());
    }

    #[test]
    fn same_key_two_weights_keeps_both() {
        let mut wbf = WeightedBloomFilter::new(params(), 1);
        wbf.insert(7, w(1, 3));
        wbf.insert(7, w(2, 3));
        let set = wbf.query(7).unwrap();
        assert!(set.contains(w(1, 3)) && set.contains(w(2, 3)));
    }

    #[test]
    fn paper_section_iv_false_positive_rejection() {
        // Patterns {1,2,3} (weight a) and {2,4,5} (weight b) are inserted;
        // the stitched pattern {1,4,5} must be rejected by weight
        // inconsistency even though its bits are all set.
        let mut wbf = WeightedBloomFilter::new(params(), 5);
        for v in [1u64, 2, 3] {
            wbf.insert(v, w(1, 2));
        }
        for v in [2u64, 4, 5] {
            wbf.insert(v, w(1, 4));
        }
        let res = wbf.query_sequence([1u64, 4, 5]);
        assert_eq!(res, Some(WeightSet::new()));
        // Both originals still match with their own weight.
        assert_eq!(
            wbf.query_sequence([1u64, 2, 3]).unwrap().max(),
            Some(w(1, 2))
        );
        assert_eq!(
            wbf.query_sequence([2u64, 4, 5]).unwrap().max(),
            Some(w(1, 4))
        );
    }

    #[test]
    fn no_false_negatives_for_inserted_sequences() {
        let mut wbf = WeightedBloomFilter::new(params(), 9);
        let seqs: Vec<Vec<u64>> = (0..50)
            .map(|i| (0..8).map(|j| (i * 1009 + j * 97) as u64).collect())
            .collect();
        for (i, seq) in seqs.iter().enumerate() {
            let weight = w(i as u64 + 1, 100);
            for &v in seq {
                wbf.insert(v, weight);
            }
        }
        for (i, seq) in seqs.iter().enumerate() {
            let weight = w(i as u64 + 1, 100);
            let res = wbf.query_sequence(seq.iter().copied()).unwrap();
            assert!(res.contains(weight), "sequence {i} lost its weight");
        }
    }

    #[test]
    fn weight_entries_counts_attachments() {
        let mut wbf = WeightedBloomFilter::new(params(), 1);
        assert_eq!(wbf.weight_entries(), 0);
        wbf.insert(1, Weight::ONE);
        // k = 4 probes, possibly fewer distinct bits on collision.
        assert!(wbf.weight_entries() >= 1 && wbf.weight_entries() <= 4);
    }

    #[test]
    fn distinct_weights_across_bits() {
        let mut wbf = WeightedBloomFilter::new(params(), 1);
        wbf.insert(1, w(1, 3));
        wbf.insert(2, w(2, 3));
        wbf.insert(3, w(1, 3));
        assert_eq!(wbf.distinct_weights(), 2);
    }

    #[test]
    fn weight_universe_tracks_every_mutation_path() {
        let mut wbf = WeightedBloomFilter::new(params(), 1);
        assert!(wbf.weight_universe().is_empty());
        assert_eq!(wbf.weight_universe().max(), None);

        // Insert invalidates the cached (empty) universe.
        wbf.insert(1, w(1, 3));
        assert_eq!(wbf.weight_universe().as_slice(), &[w(1, 3)]);
        assert_eq!(wbf.weight_universe().max(), Some(w(1, 3)));

        // Union invalidates it again.
        let mut other = WeightedBloomFilter::new(params(), 1);
        other.insert(9, w(2, 3));
        wbf.union_with(&other).unwrap();
        assert_eq!(wbf.weight_universe().as_slice(), &[w(1, 3), w(2, 3)]);

        // Delta application keeps it in step — replay a counting filter's
        // churn onto the cached universe: a new weight is admitted, and a
        // weight whose last position drops it is retired.
        let mut counting = crate::counting::CountingWbf::new(params(), 1);
        counting.insert(5, Weight::ONE).unwrap();
        let mut replayed = counting.snapshot();
        assert_eq!(replayed.weight_universe().max(), Some(Weight::ONE));
        counting.drain_dirty();
        counting.insert(6, w(1, 3)).unwrap();
        replay(&mut replayed, counting.drain_dirty()).unwrap();
        assert_eq!(
            replayed.weight_universe().as_slice(),
            &[w(1, 3), Weight::ONE]
        );
        counting.remove(5, Weight::ONE).unwrap();
        counting.remove(6, w(1, 3)).unwrap();
        replay(&mut replayed, counting.drain_dirty()).unwrap();
        assert!(replayed.weight_universe().is_empty());

        // A clone carries an independent, consistent cache.
        let cloned = wbf.clone();
        assert_eq!(cloned.weight_universe(), wbf.weight_universe());
    }

    #[test]
    fn precomputed_probes_match_query_sequence() {
        use crate::probe::PrecomputedProbes;
        let mut wbf = WeightedBloomFilter::new(params(), 5);
        for v in [1u64, 2, 3] {
            wbf.insert(v, w(1, 2));
        }
        for v in [2u64, 4, 5] {
            wbf.insert(v, w(1, 4));
        }
        let mut pre = PrecomputedProbes::new();
        let mut scratch_a = QueryScratch::new();
        let mut scratch_b = QueryScratch::new();
        let cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![1, 2, 3],   // genuine match
            vec![2, 4, 5],   // genuine match, other weight
            vec![1, 4, 5],   // stitched: bits set, empty intersection
            vec![9, 10, 11], // miss
            vec![1, 9],      // partial miss
            vec![2, 2, 2],   // repeated key
        ];
        for keys in cases {
            pre.compute(
                &HashFamily::new(wbf.hashes(), wbf.seed()),
                wbf.bit_len(),
                &keys,
            );
            let fast = wbf.query_precomputed(&pre, &mut scratch_a).cloned();
            let slow = wbf
                .query_sequence_into(keys.iter().copied(), &mut scratch_b)
                .cloned();
            assert_eq!(fast, slow, "keys {keys:?}");
        }
    }

    #[test]
    fn union_merges_weights() {
        let mut a = WeightedBloomFilter::new(params(), 1);
        let mut b = WeightedBloomFilter::new(params(), 1);
        a.insert(1, w(1, 2));
        b.insert(1, w(1, 4));
        b.insert(9, Weight::ONE);
        a.union_with(&b).unwrap();
        let set = a.query(1).unwrap();
        assert!(set.contains(w(1, 2)) && set.contains(w(1, 4)));
        assert!(a.query(9).unwrap().contains(Weight::ONE));
    }

    #[test]
    fn union_rejects_mismatched_seed() {
        let mut a = WeightedBloomFilter::new(params(), 1);
        let b = WeightedBloomFilter::new(params(), 2);
        assert_eq!(a.union_with(&b), Err(CoreError::IncompatibleFilters));
    }

    #[test]
    fn contains_matches_bloom_semantics() {
        let mut wbf = WeightedBloomFilter::new(params(), 1);
        wbf.insert(10, Weight::ONE);
        assert!(wbf.contains(10));
        assert!(!wbf.contains(11) || wbf.query(11).is_some());
    }

    /// Applies drained `(position, diff)` pairs as one delta whose diff
    /// table holds each entry's diff.
    fn replay(wbf: &mut WeightedBloomFilter, drained: Vec<(u32, WeightDiff)>) -> Result<()> {
        let (entries, diffs): (Vec<(u32, u32)>, Vec<WeightDiff>) = drained
            .into_iter()
            .enumerate()
            .map(|(i, (bit, diff))| ((bit, i as u32), diff))
            .unzip();
        wbf.apply_delta(&diffs, &entries)
    }

    /// The position of `key`'s first probe.
    fn first_probe(wbf: &WeightedBloomFilter, key: u64) -> u32 {
        wbf.family.probes(key, wbf.bit_len()).next().unwrap() as u32
    }

    /// Builds and caches the derived weight state the way a scan does.
    fn warm(wbf: &WeightedBloomFilter, key: u64) {
        wbf.weight_universe();
        let mut pre = crate::probe::PrecomputedProbes::new();
        pre.compute(&wbf.family, wbf.bit_len(), &[key]);
        assert!(wbf
            .query_precomputed(&pre, &mut QueryScratch::new())
            .is_some());
    }

    /// Asserts that `wbf`'s derived state answers exactly like that of
    /// its wire round-trip, whose state is derived afresh: same universe,
    /// same precomputed folds over every single key and key pair.
    fn assert_derived_state_fresh(wbf: &WeightedBloomFilter, keys: &[u64]) {
        let fresh = crate::encode::decode_wbf(crate::encode::encode_wbf(wbf).unwrap()).unwrap();
        assert_eq!(wbf.weight_universe(), fresh.weight_universe());
        let mut pre = crate::probe::PrecomputedProbes::new();
        let (mut a, mut b) = (QueryScratch::new(), QueryScratch::new());
        for &x in keys {
            for probe in [vec![x], keys.iter().map(|&y| y ^ x).collect()] {
                pre.compute(&wbf.family, wbf.bit_len(), &probe);
                assert_eq!(
                    wbf.query_precomputed(&pre, &mut a),
                    fresh.query_precomputed(&pre, &mut b),
                    "probe {probe:?}"
                );
            }
            for &y in keys {
                pre.compute(&wbf.family, wbf.bit_len(), &[x, y]);
                assert_eq!(
                    wbf.query_precomputed(&pre, &mut a),
                    fresh.query_precomputed(&pre, &mut b),
                    "probe [{x}, {y}]"
                );
            }
        }
    }

    #[test]
    fn apply_delta_mirrors_counting_updates() {
        let mut wbf = WeightedBloomFilter::new(params(), 1);
        wbf.insert(5, w(1, 2));
        let mut counting = crate::counting::CountingWbf::new(params(), 1);
        counting.insert(5, w(1, 2)).unwrap();
        counting.drain_dirty();
        warm(&wbf, 5);
        // Churn the counting side, replay its diffs onto the plain filter.
        counting.insert(9, w(1, 3)).unwrap();
        counting.remove(5, w(1, 2)).unwrap();
        replay(&mut wbf, counting.drain_dirty()).unwrap();
        assert_eq!(wbf, counting.snapshot());
        assert_derived_state_fresh(&wbf, &[5, 9]);
    }

    #[test]
    fn apply_delta_rejects_divergent_state() {
        let mut wbf = WeightedBloomFilter::new(params(), 1);
        wbf.insert(5, w(1, 2));
        warm(&wbf, 5);
        let bit = first_probe(&wbf, 5);
        let before = wbf.clone();
        let rejects = |wbf: &mut WeightedBloomFilter, diffs: &[WeightDiff], entry, msg| {
            assert_eq!(
                wbf.apply_delta(diffs, &[entry]),
                Err(CoreError::decode(msg))
            );
        };
        // Removing a weight the position never carried…
        let removes_foreign = WeightDiff {
            removed: WeightSet::singleton(w(1, 7)),
            added: WeightSet::new(),
        };
        rejects(
            &mut wbf,
            &[removes_foreign],
            (bit, 0),
            "delta removes a weight the position does not carry",
        );
        // …adding one it already carries…
        let adds_present = WeightDiff {
            removed: WeightSet::new(),
            added: WeightSet::singleton(w(1, 2)),
        };
        rejects(
            &mut wbf,
            &[adds_present],
            (bit, 0),
            "delta adds a weight the position already carries",
        );
        // …an empty diff, an out-of-range position and a diff index
        // outside the table: all rejected without mutating anything.
        let empty = [WeightDiff::default()];
        rejects(&mut wbf, &empty, (bit, 0), "empty delta entry");
        rejects(
            &mut wbf,
            &empty,
            (u32::MAX, 0),
            "delta entry beyond filter length",
        );
        rejects(
            &mut wbf,
            &empty,
            (bit, 1),
            "delta entry references a diff outside the table",
        );
        assert_eq!(wbf, before);
        assert_derived_state_fresh(&wbf, &[5]);
    }

    #[test]
    fn apply_delta_stops_at_the_first_rejected_entry() {
        let mut wbf = WeightedBloomFilter::new(params(), 1);
        wbf.insert(1, w(1, 2));
        wbf.insert(2, w(1, 3));
        wbf.insert(3, w(1, 4));
        let retire = WeightDiff {
            removed: WeightSet::singleton(w(1, 4)),
            added: WeightSet::new(),
        };
        let admit = WeightDiff {
            removed: WeightSet::new(),
            added: WeightSet::singleton(w(5, 7)),
        };
        let diffs = [retire, admit];
        let m = wbf.bit_len() as u32;
        let occupied: Vec<u32> = (0..m).filter(|&b| wbf.bits.get(b as usize)).collect();
        let key3: Vec<u32> = wbf.family.probes(3, m as usize).map(|b| b as u32).collect();
        let clear: Vec<u32> = (0..m).filter(|b| !occupied.contains(b)).take(2).collect();
        // Retire weight 1/4 from all but one of key 3's positions and admit
        // 5/7 at a clear position; then re-admit 5/7 there (rejected), and
        // behind the rejection finish both jobs.
        let (last, rest) = key3.split_last().unwrap();
        let mut entries: Vec<(u32, u32)> = rest.iter().map(|&b| (b, 0)).collect();
        entries.push((clear[0], 1));
        let k = entries.len();
        entries.extend([(clear[0], 1), (*last, 0), (clear[1], 1)]);
        for warmed in [false, true] {
            let mut filter = wbf.clone();
            if warmed {
                warm(&filter, 3);
            }
            assert_eq!(
                filter.apply_delta(&diffs, &entries),
                Err(CoreError::decode(
                    "delta adds a weight the position already carries"
                ))
            );
            let mut reference = wbf.clone();
            reference.apply_delta(&diffs, &entries[..k]).unwrap();
            assert_eq!(filter, reference, "warmed: {warmed}");
            assert!(filter.bits.get(clear[0] as usize));
            assert!(!filter.bits.get(clear[1] as usize));
            assert_eq!(
                filter.weight_universe().as_slice(),
                &[w(1, 4), w(1, 3), w(1, 2), w(5, 7)]
            );
            assert_derived_state_fresh(&filter, &[1, 2, 3, 4]);
        }
    }
}
