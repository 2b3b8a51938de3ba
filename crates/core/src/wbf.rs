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
//! Two builds of one geometry compare position by position:
//! [`WeightedBloomFilter::diff_from`] yields a [`FilterDelta`] whose table
//! holds each distinct [`WeightDiff`] once, and
//! [`WeightedBloomFilter::apply_delta`] replays it onto a held copy. That
//! one form is what a streaming center computes, what its delta frame
//! carries, and what a station applies.

use std::sync::OnceLock;

use crate::bitset::BitSet;
use crate::error::{CoreError, Result};
use crate::hash::HashFamily;
use crate::params::FilterParams;
use crate::probe::{self, ProbeTable, QueryScratch, MASK_WIDTH};
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
        self.query_into(key, &mut out).map(|()| out)
    }

    /// Allocation-free [`WeightedBloomFilter::query`]: the intersection is
    /// written into `out` (cleared and overwritten, capacity reused). The
    /// first occupied probe is borrowed from the filter; only a second
    /// distinct probe copies anything.
    pub fn query_into(&self, key: u64, out: &mut WeightSet) -> Option<()> {
        let probes = self.family.probes(key, self.bits.len());
        if !self.bits.contains_probes(probes.clone()) {
            return None;
        }
        let mut acc = probe::Acc::Start;
        for idx in probes {
            if acc.fold(
                ProbeTable::set_at(self, idx).expect("occupied position"),
                out,
            ) {
                break;
            }
        }
        if let probe::Acc::Borrowed(set) = acc {
            out.assign_sorted(set.iter());
        }
        Some(())
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
    ///
    /// Membership of *every* key is tested before any weight set is read
    /// (`I::IntoIter: Clone` pays for the second pass), so a candidate with
    /// at least one unknown point costs only word-level bit probes.
    pub fn query_sequence_into<'s, I>(
        &'s self,
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
        probe::fold_sets(self, keys.flat_map(|key| family.probes(key, len)), scratch)
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
        probe::fold_precomputed(self, pre.indices(), scratch)
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

    /// The positions whose weight set differs between `base` and this
    /// filter, each with the weights that left and the weights that
    /// arrived: the delta that [`apply_delta`] turns a copy of `base` into
    /// this filter with. Both filters' occupied positions are walked once,
    /// side by side, and each distinct diff enters the table as it is first
    /// met, so the result is already in the canonical wire form.
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
        let empty = WeightSet::new();
        let mut was = base.weight_positions().peekable();
        let mut now = self.weight_positions().peekable();
        let mut delta = FilterDelta::default();
        let mut index: std::collections::HashMap<WeightDiff, u32> = Default::default();
        // Each changed position's diff is written into one reused scratch
        // diff; only a diff met for the first time is copied into the table.
        let mut diff = WeightDiff::default();
        loop {
            let bit = match (was.peek(), now.peek()) {
                (None, None) => return Ok(delta),
                (Some(&(a, _)), Some(&(b, _))) => a.min(b),
                (Some(&(a, _)), None) => a,
                (None, Some(&(b, _))) => b,
            };
            let before = was
                .next_if(|&(at, _)| at == bit)
                .map_or(&empty, |(_, set)| set);
            let after = now
                .next_if(|&(at, _)| at == bit)
                .map_or(&empty, |(_, set)| set);
            if before == after {
                continue;
            }
            diff.removed.assign_difference(before, after);
            diff.added.assign_difference(after, before);
            let id = match index.get(&diff) {
                Some(&id) => id,
                None => {
                    let id = delta.diffs.len() as u32;
                    index.insert(diff.clone(), id);
                    delta.diffs.push(diff.clone());
                    id
                }
            };
            delta.entries.push((bit, id));
        }
    }

    /// Applies a filter delta: each entry pairs a position with an index
    /// into the delta's diff table, the [`WeightDiff`] of that position
    /// relative to this filter's current state, as a streaming data center
    /// broadcasts it (see [`WeightedBloomFilter::diff_from`]).
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
    /// outside the filter, whose diff index is outside the table, whose diff
    /// is empty, or whose diff does not match the current state. The entries
    /// before it stay applied and none after it is.
    pub fn apply_delta(&mut self, delta: &FilterDelta) -> Result<()> {
        let (diffs, entries) = (&delta.diffs, &delta.entries);
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
/// and the same filter decoded from the wire (or edited by deltas) must
/// compare equal.
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
    fn set_at(&self, idx: usize) -> Option<&WeightSet> {
        match self.slots[idx] {
            EMPTY_SLOT => None,
            slot => {
                let set = &self.sets[slot as usize];
                (!set.is_empty()).then_some(set)
            }
        }
    }

    fn fold_masks(&self) -> Option<(&WeightSet, &[u64])> {
        let state = self.fold_state();
        Some((&state.universe, state.masks.as_deref()?))
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

        // Insert invalidates the cached (empty) universe.
        wbf.insert(1, w(1, 3));
        assert_eq!(wbf.weight_universe().as_slice(), &[w(1, 3)]);
        assert_eq!(wbf.weight_universe().max(), Some(w(1, 3)));

        // Union invalidates it again.
        let mut other = WeightedBloomFilter::new(params(), 1);
        other.insert(9, w(2, 3));
        wbf.union_with(&other).unwrap();
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

    /// A filter at the test geometry and seed 1 holding `pairs`.
    fn build(pairs: &[(u64, Weight)]) -> WeightedBloomFilter {
        let mut wbf = WeightedBloomFilter::new(params(), 1);
        for &(key, weight) in pairs {
            wbf.insert(key, weight);
        }
        wbf
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
}
