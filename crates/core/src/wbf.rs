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
//!
//! Neighbouring band keys point at identical weight queues, so the filter
//! stores each distinct weight set once, in an interned table of bitmasks
//! over its weights, and every occupied position names its set by id. An
//! insert, a delta, a diff and the wire encoding then pay per distinct set,
//! not per position.
//!
//! A center builds its filter whole, with
//! [`WeightedBloomFilter::from_pairs`]: attaching a weight to a probed bit
//! is an OR into that position's word, and each occupied position interns
//! its final set once. The table then holds the live sets alone, not every
//! intermediate set a key-by-key build passes through.
//!
//! Two builds of one geometry compare position by position:
//! [`WeightedBloomFilter::diff_from`] yields a [`FilterDelta`] whose table
//! holds each distinct [`WeightDiff`] once, and
//! [`WeightedBloomFilter::apply_delta`] replays it onto a held copy. That
//! one form is what a streaming center computes, what its delta frame
//! carries, and what a station applies.

use std::collections::hash_map::Entry;
use std::sync::OnceLock;

use crate::bitset::BitSet;
use crate::error::{CoreError, Result};
use crate::hash::HashFamily;
use crate::params::FilterParams;
use crate::probe::{self, FoldState, ProbeTable, QueryScratch, MASK_WIDTH};
use crate::set_table::{self, pair_key, MaskWord, SetTable, WordMap, EMPTY};
use crate::weight::Weight;
use crate::weight_set::WeightSet;

/// The visible change of one filter position between two broadcast epochs:
/// the weights that left and the weights that arrived.
///
/// A diff is what streaming deltas ship instead of absolute weight sets —
/// every position a churned pattern touches carries the *same* few-weight
/// diff, so diffs intern massively on the wire where absolute sets (each
/// grafted onto a different pre-existing set) would not.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct WeightDiff {
    /// Weights no longer attached to the position.
    pub removed: WeightSet,
    /// Weights newly attached to the position.
    pub added: WeightSet,
}

impl WeightDiff {
    /// Whether the diff changes nothing.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty()
    }
}

/// The changed positions of a filter, as per-position [`WeightDiff`]s
/// against the receiver's current state — held the way the streaming delta
/// frame carries them: each distinct diff once, and each entry as a
/// position plus an index into that diff table.
///
/// [`WeightedBloomFilter::diff_from`] produces the canonical form the wire
/// accepts alone: entries in strictly ascending position order, and a table
/// of distinct diffs in the order entries first reference them.
/// [`WeightedBloomFilter::apply_delta`] replays it onto a held copy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FilterDelta {
    /// The diff table, in the order entries first reference each diff.
    pub diffs: Vec<WeightDiff>,
    /// `(position, index into diffs)` in strictly ascending position order.
    pub entries: Vec<(u32, u32)>,
}

impl FilterDelta {
    /// Whether the delta changes nothing (a pure CDR-churn epoch).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

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
    // Dense per-position id into `table`, the interned weight sets: the
    // probe hot path resolves a position's set with one bounds-free load.
    // `EMPTY` marks a position with no weights, whose bit is clear.
    slots: Vec<u32>,
    table: SetTable,
    family: HashFamily,
    inserted: u64,
    // The fold state derived from the table's live entries (the sorted
    // weight universe and each entry's fold mask), built on first use and
    // reset by every mutation. Equality and the wire format ignore it.
    fold: OnceLock<FoldState>,
}

impl WeightedBloomFilter {
    /// Creates an empty weighted filter with the given geometry and seed.
    pub fn new(params: FilterParams, seed: u64) -> WeightedBloomFilter {
        WeightedBloomFilter {
            bits: BitSet::new(params.bits()),
            slots: vec![EMPTY; params.bits()],
            table: SetTable::default(),
            family: HashFamily::new(params.hashes(), seed),
            inserted: 0,
            fold: OnceLock::new(),
        }
    }

    /// Builds the filter that inserting every `(key, weight)` of `pairs`, in
    /// order, into [`WeightedBloomFilter::new`]`(params, seed)` builds —
    /// equal to it, with the same insert count and wire bytes — in one
    /// pass: each pair ORs its weight's bit into a per-position word at
    /// every probe, and each occupied position then interns its final set
    /// once. Up to 64 distinct weights the table so holds exactly the live
    /// sets, none of the intermediate ones a key-by-key build passes
    /// through; the pairs of any later weight are inserted after that pass.
    pub fn from_pairs<I>(params: FilterParams, seed: u64, pairs: I) -> WeightedBloomFilter
    where
        I: IntoIterator<Item = (u64, Weight)>,
    {
        let mut filter = WeightedBloomFilter::new(params, seed);
        let len = filter.bits.len();
        let mut words = vec![0u64; len];
        let mut wide = Vec::new();
        for (key, weight) in pairs {
            let bit = filter.table.bit(weight);
            if bit as usize >= MASK_WIDTH {
                wide.push((key, weight));
                continue;
            }
            for idx in filter.family.probes(key, len) {
                words[idx] |= 1 << bit;
            }
            filter.inserted += 1;
        }
        for (idx, &word) in words.iter().enumerate() {
            if word != 0 {
                filter.bits.set(idx);
                let id = filter.table.intern(&[(0, word)]);
                filter.table.retain(id);
                filter.slots[idx] = id;
            }
        }
        for (key, weight) in wide {
            filter.insert(key, weight);
        }
        filter
    }

    /// Assembles a decoded filter: `slots` names, per position, an entry of
    /// `fold`'s table (set bits only), whose universe numbers the weights.
    /// The filter's table takes `fold`'s entries at the same ids, so `fold`
    /// is already its derived state.
    pub(crate) fn decoded(
        bits: BitSet,
        family: HashFamily,
        inserted: u64,
        slots: Vec<u32>,
        fold: FoldState,
    ) -> WeightedBloomFilter {
        let mut table = SetTable::from_fold(&fold);
        for position in bits.iter_ones() {
            table.retain(slots[position]);
        }
        WeightedBloomFilter {
            bits,
            slots,
            table,
            family,
            inserted,
            fold: OnceLock::from(fold),
        }
    }

    /// The table id of every set bit's weight set, in ascending bit order
    /// — the order the wire encoding writes set ids in.
    pub(crate) fn set_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.bits.iter_ones().map(|bit| self.slots[bit])
    }

    /// Inserts `key` carrying `weight`: sets all `k` probed bits and attaches
    /// the weight to each. A position moves to the interned set that adds
    /// the weight to its own, so a filter built key by key pays one table
    /// lookup per probe, and its table keeps every set a position passed
    /// through; [`WeightedBloomFilter::from_pairs`] builds a whole filter
    /// without either.
    pub fn insert(&mut self, key: u64, weight: Weight) {
        let bit = self.table.bit(weight);
        for idx in self.family.probes(key, self.bits.len()) {
            self.bits.set(idx);
            let before = self.slots[idx];
            let after = self.table.with_bit(before, bit);
            if after != before {
                self.table.retain(after);
                self.table.release(before);
                self.slots[idx] = after;
            }
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
        self.query_into(key, &mut out).map(|()| out)
    }

    /// Allocation-free [`WeightedBloomFilter::query`]: the intersection is
    /// written into `out` (cleared and overwritten, capacity reused).
    pub fn query_into(&self, key: u64, out: &mut WeightSet) -> Option<()> {
        let probes = self.family.probes(key, self.bits.len());
        if !self.bits.contains_probes(probes.clone()) {
            return None;
        }
        probe::fold(self, probes, out).map(|_| ())
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
    /// the result borrows from it.
    ///
    /// Membership of *every* key is tested before any weight set is read
    /// (`I::IntoIter: Clone` pays for the second pass), so a candidate with
    /// at least one unknown point costs only word-level bit probes.
    pub fn query_sequence_into<'s, I>(
        &self,
        keys: I,
        scratch: &'s mut QueryScratch,
    ) -> Option<&'s WeightSet>
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: Clone,
    {
        let (family, len) = (&self.family, self.bits.len());
        let keys = keys.into_iter();
        for key in keys.clone() {
            if !self.bits.contains_probes(family.probes(key, len)) {
                return None;
            }
        }
        let probes = keys.flat_map(|key| family.probes(key, len));
        probe::fold(self, probes, &mut scratch.acc)
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
        &self,
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
        &self,
        pre: &crate::probe::PrecomputedProbes,
        scratch: &'s mut QueryScratch,
    ) -> Option<&'s WeightSet> {
        let probes = pre.indices().iter().map(|&idx| idx as usize);
        probe::fold(self, probes, &mut scratch.acc)
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

    /// The sorted set of every distinct weight attached anywhere in the
    /// filter — the score universe a pruning scan bounds candidates
    /// against. Any weight a query of this filter can ever report is drawn
    /// from this set, so its maximum is the section's score upper bound.
    ///
    /// Derived from the distinct weight sets on first use and cached until
    /// the next [`insert`] or [`apply_delta`].
    ///
    /// [`insert`]: WeightedBloomFilter::insert
    /// [`apply_delta`]: WeightedBloomFilter::apply_delta
    pub fn weight_universe(&self) -> &WeightSet {
        &ProbeTable::fold_state(self).universe
    }

    /// The positions whose weight set differs between `base` and this
    /// filter, each with the weights that left and the weights that
    /// arrived: the delta that [`apply_delta`] turns a copy of `base` into
    /// this filter with. Both filters' occupied positions are walked once,
    /// side by side. Each distinct pair of table entries is compared once,
    /// as masks renumbered over the two filters' common weights, and each
    /// distinct diff enters the table as it is first met, so the result is
    /// already in the canonical wire form.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::IncompatibleFilters`] if geometry or seed differ.
    ///
    /// [`apply_delta`]: WeightedBloomFilter::apply_delta
    pub fn diff_from(&self, base: &WeightedBloomFilter) -> Result<FilterDelta> {
        if self.family != base.family || self.bits.len() != base.bits.len() {
            return Err(CoreError::IncompatibleFilters);
        }
        const UNCHANGED: u32 = u32::MAX;
        // Both tables' masks renumbered over one ascending weight list, so
        // equal sets have equal masks and a diff is two mask differences.
        let mut common: Vec<Weight> = (base.table.weights().iter())
            .chain(self.table.weights())
            .copied()
            .collect();
        common.sort_unstable();
        common.dedup();
        let rank = |table: &SetTable| -> Vec<u32> {
            let at = |w| common.binary_search(w).expect("every weight is common");
            table.weights().iter().map(|w| at(w) as u32).collect()
        };
        let (was_rank, now_rank) = (rank(&base.table), rank(&self.table));
        let mut delta = FilterDelta::default();
        // (base id, own id) → index into `delta.diffs`, or `UNCHANGED`.
        let mut pairs: WordMap<u64, u32> = WordMap::default();
        let mut index: WordMap<Vec<MaskWord>, u32> = WordMap::default();
        let (mut bits, mut before, mut after, mut key) = Default::default();
        let words = base.bits.as_words().iter().zip(self.bits.as_words());
        for (at, (&was, &now)) in words.enumerate() {
            let mut word = was | now;
            while word != 0 {
                let bit = at * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let (was, now) = (base.slots[bit], self.slots[bit]);
                let id = match pairs.entry(pair_key(was, now)) {
                    Entry::Occupied(known) => *known.get(),
                    Entry::Vacant(slot) => {
                        base.table.remapped(was, &was_rank, &mut bits, &mut before);
                        self.table.remapped(now, &now_rank, &mut bits, &mut after);
                        let id = if before == after {
                            UNCHANGED
                        } else {
                            set_table::diff_key(&before, &after, &mut key);
                            let next = delta.diffs.len() as u32;
                            let id = *index.entry(key.clone()).or_insert(next);
                            if id == next {
                                delta.diffs.push(set_table::key_diff(&key, &common));
                            }
                            id
                        };
                        *slot.insert(id)
                    }
                };
                if id != UNCHANGED {
                    delta.entries.push((bit as u32, id));
                }
            }
        }
        Ok(delta)
    }

    /// Applies a filter delta: each entry pairs a position with an index
    /// into the delta's diff table, the [`WeightDiff`] of that position
    /// relative to this filter's current state, as a streaming data center
    /// broadcasts it (see [`WeightedBloomFilter::diff_from`]).
    ///
    /// Each entry is checked against its position's own set: every removed
    /// weight must currently be attached and every added weight absent. A
    /// mismatch means the station's state diverged from the baseline the
    /// center diffed against (a missed or replayed epoch). The diff table
    /// is turned into masks over the filter's weights once, and each
    /// distinct (set, diff) pair is checked and interned once; an entry
    /// then only moves its position to the resulting set's id. A position
    /// whose set empties is cleared, and a previously clear position gains
    /// its first weights and its bit. The cost follows the delta and its
    /// distinct sets, not the filter.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Decode`] at the first entry whose position is
    /// outside the filter, whose diff index is outside the table, whose diff
    /// is empty, or whose diff does not match the current state. The entries
    /// before it stay applied and none after it is.
    pub fn apply_delta(&mut self, delta: &FilterDelta) -> Result<()> {
        self.fold.take();
        let masks = self.table.diff_masks(&delta.diffs);
        // (current id, diff index) → the id the diff turns it into.
        let mut edits: WordMap<u64, u32> = WordMap::default();
        let result = delta.entries.iter().try_for_each(|&(bit, d)| {
            let diff = delta.diffs.get(d as usize).ok_or_else(|| {
                CoreError::decode("delta entry references a diff outside the table")
            })?;
            let idx = bit as usize;
            if idx >= self.bits.len() {
                return Err(CoreError::decode("delta entry beyond filter length"));
            }
            if diff.is_empty() {
                return Err(CoreError::decode("empty delta entry"));
            }
            let before = self.slots[idx];
            let after = match edits.entry(pair_key(before, d)) {
                Entry::Occupied(known) => *known.get(),
                Entry::Vacant(slot) => *slot.insert(self.table.edit(before, &masks[d as usize])?),
            };
            self.table.retain(after);
            self.table.release(before);
            self.slots[idx] = after;
            if after == EMPTY {
                self.bits.unset(idx);
            } else {
                self.bits.set(idx);
            }
            Ok(())
        });
        self.table.compact_if_sparse(&mut self.slots, &self.bits);
        result
    }

    /// Borrows the underlying bit set.
    pub fn bits(&self) -> &BitSet {
        &self.bits
    }
}

/// Equality is semantic — per-position weight sets in bit order — because
/// table ids and the weights' numbering depend on the mutation history: a
/// filter built by inserts and the same filter decoded from the wire (or
/// edited by deltas) must compare equal.
impl PartialEq for WeightedBloomFilter {
    fn eq(&self, other: &WeightedBloomFilter) -> bool {
        self.inserted == other.inserted
            && self.family == other.family
            && self.bits == other.bits
            && self.diff_from(other).is_ok_and(|delta| delta.is_empty())
    }
}

impl Eq for WeightedBloomFilter {}

impl ProbeTable for WeightedBloomFilter {
    fn fold_state(&self) -> &FoldState {
        self.fold.get_or_init(|| self.table.fold_state())
    }

    fn entry_at(&self, idx: usize) -> usize {
        self.slots[idx] as usize
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
    fn weight_universe_tracks_every_mutation_path() {
        let mut wbf = WeightedBloomFilter::new(params(), 1);
        assert!(wbf.weight_universe().is_empty());
        assert_eq!(wbf.weight_universe().max(), None);

        // Insert invalidates the cached (empty) universe, each time.
        wbf.insert(1, w(1, 3));
        assert_eq!(wbf.weight_universe().as_slice(), &[w(1, 3)]);
        assert_eq!(wbf.weight_universe().max(), Some(w(1, 3)));
        wbf.insert(9, w(2, 3));
        assert_eq!(wbf.weight_universe().as_slice(), &[w(1, 3), w(2, 3)]);

        // Delta application keeps it in step — replay the diffs between
        // successive builds onto the cached universe: a new weight is
        // admitted, and a weight whose last position drops it is retired.
        let first = build(&[(5, Weight::ONE)]);
        let mut replayed = first.clone();
        assert_eq!(replayed.weight_universe().max(), Some(Weight::ONE));
        let second = build(&[(5, Weight::ONE), (6, w(1, 3))]);
        replayed
            .apply_delta(&second.diff_from(&first).unwrap())
            .unwrap();
        assert_eq!(
            replayed.weight_universe().as_slice(),
            &[w(1, 3), Weight::ONE]
        );
        replayed
            .apply_delta(&build(&[]).diff_from(&second).unwrap())
            .unwrap();
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
    fn contains_matches_bloom_semantics() {
        let mut wbf = WeightedBloomFilter::new(params(), 1);
        wbf.insert(10, Weight::ONE);
        assert!(wbf.contains(10));
        assert!(!wbf.contains(11) || wbf.query(11).is_some());
    }

    /// A filter at the test geometry and seed 1 holding `pairs`.
    fn build(pairs: &[(u64, Weight)]) -> WeightedBloomFilter {
        let mut wbf = WeightedBloomFilter::new(params(), 1);
        for &(key, weight) in pairs {
            wbf.insert(key, weight);
        }
        wbf
    }

    #[test]
    fn a_bulk_build_leaves_no_dead_set() {
        // 600 pairs over 40 weights on 300 keys, the first 50 repeated.
        let mut pairs: Vec<(u64, Weight)> = (0..600u64)
            .map(|i| (i * 7 % 300, w(i % 40 + 1, 41)))
            .collect();
        pairs.extend_from_within(..50);
        let bulk = WeightedBloomFilter::from_pairs(params(), 1, pairs.iter().copied());
        let folded = build(&pairs);
        assert_eq!(bulk, folded);
        // Both hold the same live sets; only the fold keeps the sets its
        // positions passed through.
        assert_eq!(bulk.table.len(), bulk.table.live());
        assert_eq!(bulk.table.live(), folded.table.live());
        assert!(folded.table.len() > 2 * folded.table.live());
    }

    /// A delta of `entries` over the diff table `diffs`.
    fn delta(diffs: &[WeightDiff], entries: &[(u32, u32)]) -> FilterDelta {
        FilterDelta {
            diffs: diffs.to_vec(),
            entries: entries.to_vec(),
        }
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
    fn apply_delta_replays_the_diff_between_two_builds() {
        let mut wbf = build(&[(5, w(1, 2))]);
        warm(&wbf, 5);
        // Swap the pair for another, replay the diff onto the warm filter.
        let next = build(&[(9, w(1, 3))]);
        let diff = next.diff_from(&wbf).unwrap();
        wbf.apply_delta(&diff).unwrap();
        assert_eq!(wbf, next);
        assert_derived_state_fresh(&wbf, &[5, 9]);
    }

    #[test]
    fn diff_from_is_the_exact_delta_between_two_filters() {
        // Equal insert counts on both sides, so a replayed copy compares
        // equal to its target (deltas leave `inserted` alone).
        let a = build(
            &(0..40u64)
                .map(|i| (i * 31, w(i % 3 + 1, 5)))
                .collect::<Vec<_>>(),
        );
        let b = build(
            &(20..60u64)
                .map(|i| (i * 31, w(i % 4 + 1, 7)))
                .collect::<Vec<_>>(),
        );
        assert!(a.diff_from(&a).unwrap().is_empty());
        for (from, to) in [(&a, &b), (&b, &a)] {
            let delta = to.diff_from(from).unwrap();
            let positions = || delta.entries.iter().map(|&(bit, _)| bit);
            assert!(positions().zip(positions().skip(1)).all(|(p, q)| p < q));
            // Canonical table: first references run 0, 1, 2, … and every
            // diff is distinct, non-empty and disjoint.
            let mut named = 0;
            for &(_, d) in &delta.entries {
                assert!(d <= named, "first-seen order");
                named += u32::from(d == named);
            }
            assert_eq!(named as usize, delta.diffs.len());
            for (i, d) in delta.diffs.iter().enumerate() {
                assert!(!d.is_empty());
                assert!(d.removed.intersection(&d.added).is_empty());
                assert!(!delta.diffs[..i].contains(d), "distinct");
            }
            assert!(delta.diffs.len() < delta.entries.len(), "diffs intern");
            let mut replayed = from.clone();
            replayed.apply_delta(&delta).unwrap();
            assert_eq!(&replayed, to);
        }
        let other_seed = WeightedBloomFilter::new(params(), 2);
        let other_geometry = WeightedBloomFilter::new(FilterParams::new(1 << 11, 4).unwrap(), 1);
        let other_hashes = WeightedBloomFilter::new(FilterParams::new(1 << 12, 3).unwrap(), 1);
        for other in [other_seed, other_geometry, other_hashes] {
            assert_eq!(a.diff_from(&other), Err(CoreError::IncompatibleFilters));
            assert_eq!(other.diff_from(&a), Err(CoreError::IncompatibleFilters));
        }
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
                wbf.apply_delta(&delta(diffs, &[entry])),
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
                filter.apply_delta(&delta(&diffs, &entries)),
                Err(CoreError::decode(
                    "delta adds a weight the position already carries"
                ))
            );
            let mut reference = wbf.clone();
            reference
                .apply_delta(&delta(&diffs, &entries[..k]))
                .unwrap();
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

    #[test]
    fn set_table_stays_bounded_over_long_churn() {
        // A station copy follows 1,200 epochs of churn. Its weights swing
        // between a 12-weight pool and a 97-weight one every 240 epochs, so
        // the universe widens past the 64-weight fold mask and narrows back
        // twice. After every delta the table holds at most twice its live
        // sets plus the slack, and its derived state is a fresh decode's.
        let params = FilterParams::new(1 << 10, 3).unwrap();
        let pair =
            |i: u64, pool: u64| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15), w(i % pool + 1, pool));
        let build = |live: &[(u64, Weight)]| {
            let mut filter = WeightedBloomFilter::new(params, 3);
            for &(key, weight) in live {
                filter.insert(key, weight);
            }
            filter
        };
        let mut live: Vec<(u64, Weight)> = (0..40).map(|i| pair(i, 12)).collect();
        let mut center = build(&live);
        let mut station = center.clone();
        let (mut next, mut widest, mut narrowest_after) = (40u64, 0, usize::MAX);
        for epoch in 0..1_200u64 {
            let wide = epoch / 240 % 2 == 1;
            let (pool, target) = if wide { (97, 100) } else { (12, 40) };
            if live.len() > target {
                live.drain(..2);
            } else {
                if live.len() == target {
                    live.remove(0);
                }
                live.push(pair(next, pool));
                next += 1;
            }
            let built = build(&live);
            station
                .apply_delta(&built.diff_from(&center).unwrap())
                .unwrap();
            center = built;
            let table = &station.table;
            assert!(
                table.len() <= 2 * table.live() + crate::set_table::SLACK,
                "epoch {epoch}: {} entries for {} live sets",
                table.len(),
                table.live()
            );
            let keys: Vec<u64> = live.iter().rev().take(5).map(|&(key, _)| key).collect();
            assert_derived_state_fresh(&station, &keys);
            let width = station.weight_universe().len();
            widest = widest.max(width);
            if widest > 64 {
                narrowest_after = narrowest_after.min(width);
            }
        }
        assert!(
            widest > 64 && narrowest_after <= 12,
            "{widest} / {narrowest_after}"
        );
        assert_eq!(station.diff_from(&center), Ok(FilterDelta::default()));
    }
}
