//! The counting weighted Bloom filter — incremental pattern maintenance.
//!
//! The paper's [`WeightedBloomFilter`] is build-once: every pattern
//! insertion forces a full rebuild and re-broadcast, which is exactly the
//! per-query dissemination cost Fig. 4c punishes at city scale. A
//! [`CountingWbf`] keeps the weighted per-key structure intact while making
//! the underlying array *counting*: each position holds a reference count
//! per attached weight instead of a single bit, so patterns can be inserted
//! **and removed** without touching the rest of the filter.
//!
//! The data center maintains the counting filter; base stations keep
//! probing the cheap membership projection ([`CountingWbf::snapshot`] — an
//! ordinary [`WeightedBloomFilter`]) and receive only the positions whose
//! *visible* state changed ([`CountingWbf::drain_dirty`]) as delta
//! broadcasts. Counter values never cross the wire: a station only needs to
//! know whether a position is occupied and by which weights, while the
//! center alone needs the counts to know when a removal retires a position.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use crate::error::{CoreError, Result};
use crate::filter::FilterCore;
use crate::hash::{HashFamily, Probes};
use crate::params::FilterParams;
use crate::probe::{self, ProbeTable, QueryScratch};
use crate::wbf::WeightedBloomFilter;
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

/// A weighted Bloom filter over `u64` keys supporting exact removal.
///
/// Every position stores a reference count per weight; the position's
/// visible weight set is the set of weights with a non-zero count, and the
/// position is *occupied* while any count is non-zero. Queries behave
/// exactly like [`WeightedBloomFilter`] queries against the visible state,
/// and after any interleaving of inserts and removes **of
/// previously-inserted pairs** the filter is query-equivalent to a fresh
/// filter built over the surviving multiset of `(key, weight)` pairs
/// (property-tested in the streaming conformance suite; see
/// [`CountingWbf::remove`] for the aliasing caveat on foreign removals).
///
/// # Examples
///
/// ```
/// use dipm_core::{CountingWbf, FilterParams, Weight};
///
/// # fn main() -> Result<(), dipm_core::CoreError> {
/// let params = FilterParams::new(1 << 12, 4)?;
/// let mut filter = CountingWbf::new(params, 7);
///
/// let w = Weight::new(1, 2)?;
/// filter.insert(42, w)?;
/// assert!(filter.query(42).expect("occupied").contains(w));
///
/// filter.remove(42, w)?;
/// assert!(filter.query(42).is_none());
/// // Removing again is an error (the pair is no longer live).
/// assert!(filter.remove(42, w).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CountingWbf {
    /// Per-position weight reference counts. A position's total count is
    /// the sum of its per-weight counts, so no separate counter array can
    /// ever fall out of sync.
    counts: BTreeMap<u32, BTreeMap<Weight, u32>>,
    bit_len: usize,
    family: HashFamily,
    /// Live insertions (inserts minus removes).
    live: u64,
    /// Positions whose visible state (occupancy or weight set) changed
    /// since the last [`CountingWbf::drain_dirty`], each mapped to its
    /// visible weight set *as of that drain* — the baseline the next delta
    /// diffs against.
    dirty: BTreeMap<u32, WeightSet>,
    /// Lazily computed set of every live weight — the score universe
    /// pruning scans bound against. Derived state: [`CountingWbf::insert`]
    /// and [`CountingWbf::remove`] reset it, equality ignores it.
    universe: OnceLock<WeightSet>,
}

impl PartialEq for CountingWbf {
    /// Equality over the *filter state* — counts, geometry and live count.
    /// The pending dirty set is broadcast bookkeeping, not state: a freshly
    /// built filter and an incrementally maintained one holding the same
    /// multiset compare equal whatever deltas were already drained.
    fn eq(&self, other: &CountingWbf) -> bool {
        self.counts == other.counts
            && self.bit_len == other.bit_len
            && self.family == other.family
            && self.live == other.live
    }
}

impl Eq for CountingWbf {}

impl CountingWbf {
    /// Creates an empty counting filter with the given geometry and seed.
    ///
    /// The geometry is fixed for the filter's lifetime: incremental updates
    /// never resize (a resize would rehash every key, i.e. a rebuild).
    pub fn new(params: FilterParams, seed: u64) -> CountingWbf {
        CountingWbf {
            counts: BTreeMap::new(),
            bit_len: params.bits(),
            family: HashFamily::new(params.hashes(), seed),
            live: 0,
            dirty: BTreeMap::new(),
            universe: OnceLock::new(),
        }
    }

    /// The position's current visible weight set (empty if unoccupied).
    fn visible(&self, idx: u32) -> WeightSet {
        self.counts
            .get(&idx)
            .map(|position| position.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Records the baseline for a position about to change visibly, unless
    /// one is already pending from an earlier change this epoch.
    fn mark_dirty(&mut self, idx: u32) {
        if !self.dirty.contains_key(&idx) {
            let baseline = self.visible(idx);
            self.dirty.insert(idx, baseline);
        }
    }

    /// Inserts `key` carrying `weight`, incrementing the weight's count at
    /// every probed position.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::WeightOverflow`] if any touched count would
    /// exceed `u32::MAX`; the filter is left untouched.
    pub fn insert(&mut self, key: u64, weight: Weight) -> Result<()> {
        let probes = self.probe_multiplicities(key);
        // Validate every touched count before mutating anything.
        for (&idx, &mult) in &probes {
            let current = self
                .counts
                .get(&idx)
                .and_then(|m| m.get(&weight))
                .copied()
                .unwrap_or(0);
            if current.checked_add(mult).is_none() {
                return Err(CoreError::WeightOverflow);
            }
        }
        for (&idx, &mult) in &probes {
            let changes_visibly = !self
                .counts
                .get(&idx)
                .is_some_and(|position| position.contains_key(&weight));
            if changes_visibly {
                self.mark_dirty(idx);
            }
            let position = self.counts.entry(idx).or_default();
            *position.entry(weight).or_insert(0) += mult;
        }
        self.live += 1;
        self.universe.take();
        Ok(())
    }

    /// Removes one prior insertion of `key` with `weight`, decrementing the
    /// weight's count at every probed position and retiring positions whose
    /// counts reach zero.
    ///
    /// The rebuild-equivalence guarantee holds for removals of
    /// previously-inserted pairs — the only removals the streaming session
    /// ever issues. Like any counting Bloom filter, a *never-inserted*
    /// pair is usually caught (some probed position lacks the weight), but
    /// with probability on the order of the filter's false-positive rate
    /// its probes may all alias live positions carrying the same weight;
    /// such a removal passes the check and decrements other patterns'
    /// counts. Callers must therefore only remove what they inserted.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::AbsentRemoval`] if the pair is not currently
    /// live at every probed position; the filter is left untouched.
    pub fn remove(&mut self, key: u64, weight: Weight) -> Result<()> {
        let probes = self.probe_multiplicities(key);
        for (&idx, &mult) in &probes {
            let current = self
                .counts
                .get(&idx)
                .and_then(|m| m.get(&weight))
                .copied()
                .unwrap_or(0);
            if current < mult {
                return Err(CoreError::AbsentRemoval);
            }
        }
        for (&idx, &mult) in &probes {
            let retires_weight = self
                .counts
                .get(&idx)
                .and_then(|position| position.get(&weight))
                .copied()
                .expect("validated above")
                == mult;
            if retires_weight {
                self.mark_dirty(idx);
            }
            let position = self.counts.get_mut(&idx).expect("validated above");
            let count = position.get_mut(&weight).expect("validated above");
            *count -= mult;
            if *count == 0 {
                position.remove(&weight);
            }
            if position.is_empty() {
                self.counts.remove(&idx);
            }
        }
        self.live -= 1;
        self.universe.take();
        Ok(())
    }

    /// The `k` probe positions of `key` with their multiplicities (distinct
    /// hash functions may collide on a position; insert and remove must
    /// count them symmetrically).
    fn probe_multiplicities(&self, key: u64) -> BTreeMap<u32, u32> {
        let mut probes: BTreeMap<u32, u32> = BTreeMap::new();
        for idx in self.family.probes(key, self.bit_len) {
            *probes.entry(idx as u32).or_insert(0) += 1;
        }
        probes
    }

    /// Pure membership test: whether every probed position is occupied.
    pub fn contains(&self, key: u64) -> bool {
        self.family
            .probes(key, self.bit_len)
            .all(|idx| self.counts.contains_key(&(idx as u32)))
    }

    /// Queries a single key: `None` if any probed position is empty,
    /// otherwise the intersection of the probed positions' visible weight
    /// sets — identical semantics to [`WeightedBloomFilter::query`] (both
    /// run the same shared probe core: occupancy of all positions is tested
    /// before any weight is read).
    pub fn query(&self, key: u64) -> Option<WeightSet> {
        let mut out = WeightSet::new();
        probe::query_into(self, key, &mut out).map(|()| out)
    }

    /// Allocation-free [`CountingWbf::query`]: the intersection is written
    /// into `out` (cleared and overwritten, capacity reused) — identical
    /// semantics to [`WeightedBloomFilter::query_into`].
    pub fn query_into(&self, key: u64, out: &mut WeightSet) -> Option<()> {
        probe::query_into(self, key, out)
    }

    /// Queries a sequence of keys, returning the weights common to every
    /// point — identical semantics to
    /// [`WeightedBloomFilter::query_sequence`].
    pub fn query_sequence<I>(&self, keys: I) -> Option<WeightSet>
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: Clone,
    {
        let mut scratch = QueryScratch::new();
        self.query_sequence_into(keys, &mut scratch).cloned()
    }

    /// Allocation-free [`CountingWbf::query_sequence`] — identical semantics
    /// to [`WeightedBloomFilter::query_sequence_into`], running the same
    /// shared probe core against the refcounted positions.
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

    /// The membership projection: an ordinary [`WeightedBloomFilter`]
    /// holding the current visible state, suitable for the existing wire
    /// encoding and for station-side probing. `inserted` is set to the live
    /// insertion count.
    pub fn snapshot(&self) -> WeightedBloomFilter {
        let mut bits = crate::bitset::BitSet::new(self.bit_len);
        let sets = self
            .counts
            .iter()
            .map(|(&idx, position)| {
                bits.set(idx as usize);
                position.keys().copied().collect()
            })
            .collect();
        WeightedBloomFilter::from_parts(bits, self.family, self.live, sets)
    }

    /// Drains the positions whose visible state changed since the last
    /// drain, as `(position, diff)` entries in ascending position order —
    /// the payload of one delta broadcast. Each diff carries the weights
    /// that left and arrived relative to the last drain's state, so a
    /// receiver holding that state reconstructs the current one exactly.
    ///
    /// Positions that changed and changed *back* within one epoch produce
    /// no entry at all — the diff against the baseline is empty.
    pub fn drain_dirty(&mut self) -> Vec<(u32, WeightDiff)> {
        let dirty = std::mem::take(&mut self.dirty);
        dirty
            .into_iter()
            .filter_map(|(idx, baseline)| {
                let now = self.visible(idx);
                let diff = WeightDiff {
                    removed: baseline.difference(&now),
                    added: now.difference(&baseline),
                };
                (!diff.is_empty()).then_some((idx, diff))
            })
            .collect()
    }

    /// The pending delta, *without* draining it: the same `(position,
    /// diff)` entries [`CountingWbf::drain_dirty`] would return, computed
    /// against the same baselines, with the baselines left in place.
    ///
    /// A service admission policy uses this to price a tenant's next delta
    /// broadcast before deciding whether to run the epoch at all — a
    /// deferred tenant's churn must stay queued, so the sizing pass cannot
    /// consume the dirty set.
    pub fn pending_dirty(&self) -> Vec<(u32, WeightDiff)> {
        self.dirty
            .iter()
            .filter_map(|(&idx, baseline)| {
                let now = self.visible(idx);
                let diff = WeightDiff {
                    removed: baseline.difference(&now),
                    added: now.difference(baseline),
                };
                (!diff.is_empty()).then_some((idx, diff))
            })
            .collect()
    }

    /// The pending per-position baselines — each dirtied position mapped to
    /// its visible weight set as of the last drain. This is the epoch
    /// bookkeeping a session checkpoint must carry: a recovered center that
    /// restores these baselines emits exactly the delta the crashed one
    /// would have.
    pub fn dirty_baselines(&self) -> &BTreeMap<u32, WeightSet> {
        &self.dirty
    }

    /// Replaces the pending dirty baselines wholesale — the checkpoint
    /// *recovery* counterpart of [`CountingWbf::dirty_baselines`]. Every
    /// restored position must lie inside the filter's geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] if any position is out of
    /// range; the filter is left untouched.
    pub fn restore_dirty(&mut self, baselines: BTreeMap<u32, WeightSet>) -> Result<()> {
        if let Some((&idx, _)) = baselines.iter().next_back() {
            if idx as usize >= self.bit_len {
                return Err(CoreError::invalid_params(format!(
                    "restored dirty position {idx} outside filter of {} positions",
                    self.bit_len
                )));
            }
        }
        self.dirty = baselines;
        Ok(())
    }

    /// The full refcounted state, position-ascending: each occupied
    /// position with its `(weight, count)` entries in weight order. This is
    /// what a session checkpoint serializes (counts never cross the wire
    /// otherwise) and what recovery verifies a replayed registry against.
    pub fn counts_snapshot(&self) -> Vec<(u32, Vec<(Weight, u32)>)> {
        self.counts
            .iter()
            .map(|(&idx, position)| {
                (
                    idx,
                    position.iter().map(|(&w, &count)| (w, count)).collect(),
                )
            })
            .collect()
    }

    /// How many positions currently await a delta broadcast.
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Live insertions (inserts minus removes).
    pub fn live(&self) -> u64 {
        self.live
    }

    /// The filter length in positions.
    pub fn bit_len(&self) -> usize {
        self.bit_len
    }

    /// The number of hash functions.
    pub fn hashes(&self) -> u16 {
        self.family.hashes()
    }

    /// The hash seed shared between data center and base stations.
    pub fn seed(&self) -> u64 {
        self.family.seed()
    }

    /// The fraction of occupied positions.
    pub fn fill_ratio(&self) -> f64 {
        self.counts.len() as f64 / self.bit_len as f64
    }

    /// The total number of live `(position, weight)` attachments.
    pub fn weight_entries(&self) -> usize {
        self.counts.values().map(BTreeMap::len).sum()
    }

    /// The sorted set of every live weight — the score universe a pruning
    /// scan bounds candidates against, mirroring
    /// [`WeightedBloomFilter::weight_universe`]. Computed once per filter
    /// state and cached; [`CountingWbf::insert`] and [`CountingWbf::remove`]
    /// invalidate the cache.
    pub fn weight_universe(&self) -> &WeightSet {
        self.universe.get_or_init(|| {
            self.counts
                .values()
                .flat_map(|position| position.keys().copied())
                .collect()
        })
    }
}

impl ProbeTable for CountingWbf {
    type Weights<'a> = std::iter::Copied<std::collections::btree_map::Keys<'a, Weight, u32>>;

    fn geometry(&self) -> (&HashFamily, usize) {
        (&self.family, self.bit_len)
    }

    fn occupied(&self, mut probes: Probes) -> bool {
        probes.all(|idx| self.counts.contains_key(&(idx as u32)))
    }

    fn weights_at(&self, idx: usize) -> Option<Self::Weights<'_>> {
        self.counts
            .get(&(idx as u32))
            .map(|position| position.keys().copied())
    }
}

impl FilterCore for CountingWbf {
    fn bit_len(&self) -> usize {
        CountingWbf::bit_len(self)
    }

    fn hashes(&self) -> u16 {
        CountingWbf::hashes(self)
    }

    fn seed(&self) -> u64 {
        CountingWbf::seed(self)
    }

    fn contains(&self, key: u64) -> bool {
        CountingWbf::contains(self, key)
    }

    fn fill_ratio(&self) -> f64 {
        CountingWbf::fill_ratio(self)
    }

    fn inserted(&self) -> u64 {
        CountingWbf::live(self)
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
    fn insert_query_remove_roundtrip() {
        let mut filter = CountingWbf::new(params(), 1);
        filter.insert(42, w(1, 3)).unwrap();
        assert!(filter.contains(42));
        assert!(filter.query(42).unwrap().contains(w(1, 3)));
        assert_eq!(filter.live(), 1);
        filter.remove(42, w(1, 3)).unwrap();
        assert!(filter.query(42).is_none());
        assert_eq!(filter.live(), 0);
        assert_eq!(filter.weight_entries(), 0);
    }

    #[test]
    fn absent_removal_is_rejected_without_corruption() {
        let mut filter = CountingWbf::new(params(), 1);
        filter.insert(7, w(1, 2)).unwrap();
        let before = filter.clone();
        // Wrong weight, wrong key, double removal: all rejected, state kept.
        assert_eq!(filter.remove(7, w(1, 4)), Err(CoreError::AbsentRemoval));
        assert_eq!(filter.remove(8, w(1, 2)), Err(CoreError::AbsentRemoval));
        assert_eq!(filter, before);
        filter.remove(7, w(1, 2)).unwrap();
        assert_eq!(filter.remove(7, w(1, 2)), Err(CoreError::AbsentRemoval));
    }

    #[test]
    fn overlapping_keys_survive_partial_removal() {
        // Two patterns share key 2; removing one must keep the other's
        // weight alive at the shared positions.
        let mut filter = CountingWbf::new(params(), 5);
        for v in [1u64, 2, 3] {
            filter.insert(v, w(1, 2)).unwrap();
        }
        for v in [2u64, 4, 5] {
            filter.insert(v, w(1, 4)).unwrap();
        }
        for v in [1u64, 2, 3] {
            filter.remove(v, w(1, 2)).unwrap();
        }
        assert_eq!(
            filter.query_sequence([2u64, 4, 5]).unwrap().max(),
            Some(w(1, 4))
        );
        assert!(filter.query_sequence([1u64, 2, 3]).is_none());
    }

    #[test]
    fn matches_wbf_semantics_on_stitched_false_positives() {
        let mut counting = CountingWbf::new(params(), 5);
        let mut wbf = WeightedBloomFilter::new(params(), 5);
        for v in [1u64, 2, 3] {
            counting.insert(v, w(1, 2)).unwrap();
            wbf.insert(v, w(1, 2));
        }
        for v in [2u64, 4, 5] {
            counting.insert(v, w(1, 4)).unwrap();
            wbf.insert(v, w(1, 4));
        }
        for probe in [[1u64, 4, 5], [1, 2, 3], [2, 4, 5], [9, 10, 11]] {
            assert_eq!(
                counting.query_sequence(probe.iter().copied()),
                wbf.query_sequence(probe.iter().copied()),
                "probe {probe:?} diverged from WBF semantics"
            );
        }
    }

    #[test]
    fn snapshot_equals_fresh_wbf_build() {
        let mut counting = CountingWbf::new(params(), 9);
        let mut reference = WeightedBloomFilter::new(params(), 9);
        for i in 0..60u64 {
            let weight = w(i % 7 + 1, 10);
            counting.insert(i * 31, weight).unwrap();
        }
        // Remove a third of them; the reference only ever sees survivors.
        for i in 0..60u64 {
            let weight = w(i % 7 + 1, 10);
            if i % 3 == 0 {
                counting.remove(i * 31, weight).unwrap();
            } else {
                reference.insert(i * 31, weight);
            }
        }
        assert_eq!(counting.snapshot(), reference);
    }

    #[test]
    fn drain_dirty_reports_diffs_against_the_last_drain() {
        let mut filter = CountingWbf::new(params(), 3);
        filter.insert(10, w(1, 2)).unwrap();
        let delta = filter.drain_dirty();
        assert!(!delta.is_empty());
        for (_, diff) in &delta {
            assert!(diff.removed.is_empty());
            assert!(diff.added.contains(w(1, 2)));
        }
        assert!(delta.windows(2).all(|e| e[0].0 < e[1].0), "ascending order");
        // Nothing changed since: the next drain is empty.
        assert!(filter.drain_dirty().is_empty());
        assert_eq!(filter.dirty_len(), 0);
        // Removing the key retires its positions: the weight leaves.
        filter.remove(10, w(1, 2)).unwrap();
        let delta = filter.drain_dirty();
        assert!(!delta.is_empty());
        for (_, diff) in &delta {
            assert!(diff.removed.contains(w(1, 2)));
            assert!(diff.added.is_empty());
        }
    }

    #[test]
    fn duplicate_count_increments_do_not_dirty() {
        let mut filter = CountingWbf::new(params(), 3);
        filter.insert(10, w(1, 2)).unwrap();
        filter.drain_dirty();
        // Same key, same weight: counts move but visible state does not.
        filter.insert(10, w(1, 2)).unwrap();
        assert_eq!(filter.dirty_len(), 0, "invisible count changes stay local");
        // A new weight on the same positions is visible.
        filter.insert(10, w(1, 3)).unwrap();
        assert!(filter.dirty_len() > 0);
    }

    #[test]
    fn reverted_changes_produce_no_diff_entries() {
        let mut filter = CountingWbf::new(params(), 3);
        filter.insert(10, w(1, 2)).unwrap();
        filter.drain_dirty();
        // Insert-then-remove within one epoch: back to the baseline.
        filter.insert(10, w(1, 3)).unwrap();
        filter.remove(10, w(1, 3)).unwrap();
        assert!(filter.dirty_len() > 0, "positions were touched…");
        assert!(
            filter.drain_dirty().is_empty(),
            "…but the diff against the baseline is empty"
        );
    }

    #[test]
    fn pending_dirty_previews_drain_without_consuming() {
        let mut filter = CountingWbf::new(params(), 3);
        filter.insert(10, w(1, 2)).unwrap();
        filter.drain_dirty();
        filter.insert(10, w(1, 3)).unwrap();
        filter.remove(10, w(1, 2)).unwrap();
        let preview = filter.pending_dirty();
        assert!(!preview.is_empty());
        assert!(preview.windows(2).all(|e| e[0].0 < e[1].0), "ascending");
        // The preview is exactly what the drain then produces…
        assert_eq!(preview, filter.drain_dirty());
        // …and the preview itself consumed nothing.
        assert!(filter.pending_dirty().is_empty());
    }

    #[test]
    fn checkpointed_baselines_reproduce_the_same_delta() {
        let mut filter = CountingWbf::new(params(), 3);
        filter.insert(10, w(1, 2)).unwrap();
        filter.drain_dirty();
        filter.insert(11, w(1, 3)).unwrap();
        // Checkpoint: counts + baselines, mid-epoch with a pending delta.
        let counts = filter.counts_snapshot();
        let baselines = filter.dirty_baselines().clone();
        assert!(!baselines.is_empty());
        // Recover into a fresh filter by replaying the live pairs, then
        // restoring the baselines: the next drain is byte-identical.
        let mut recovered = CountingWbf::new(params(), 3);
        recovered.insert(10, w(1, 2)).unwrap();
        recovered.insert(11, w(1, 3)).unwrap();
        assert_eq!(recovered.counts_snapshot(), counts);
        recovered.restore_dirty(baselines).unwrap();
        assert_eq!(recovered.drain_dirty(), filter.drain_dirty());
    }

    #[test]
    fn restore_dirty_rejects_out_of_range_positions() {
        let mut filter = CountingWbf::new(params(), 3);
        filter.insert(10, w(1, 2)).unwrap();
        let kept = filter.dirty_baselines().clone();
        let mut bad = BTreeMap::new();
        bad.insert((1u32 << 12) + 1, WeightSet::new());
        assert!(matches!(
            filter.restore_dirty(bad),
            Err(CoreError::InvalidParams { .. })
        ));
        // Rejected restore leaves the pending set untouched.
        assert_eq!(filter.dirty_baselines(), &kept);
    }

    #[test]
    fn counts_snapshot_orders_positions_and_weights() {
        let mut filter = CountingWbf::new(params(), 9);
        for i in 0..20u64 {
            filter.insert(i * 31, w(i % 4 + 1, 8)).unwrap();
        }
        filter.insert(0, w(1, 8)).unwrap();
        let snapshot = filter.counts_snapshot();
        assert!(snapshot.windows(2).all(|e| e[0].0 < e[1].0));
        let mut total = 0u64;
        for (_, weights) in &snapshot {
            assert!(!weights.is_empty());
            assert!(weights.windows(2).all(|e| e[0].0 < e[1].0));
            assert!(weights.iter().all(|&(_, count)| count > 0));
            total += weights.iter().map(|&(_, count)| count as u64).sum::<u64>();
        }
        assert_eq!(total, 21 * filter.hashes() as u64, "k counts per insert");
    }

    #[test]
    fn filter_core_surface() {
        let mut filter = CountingWbf::new(params(), 7);
        filter.insert(42, Weight::ONE).unwrap();
        let core: &dyn FilterCore = &filter;
        assert_eq!(core.bit_len(), 1 << 12);
        assert_eq!(core.hashes(), 4);
        assert_eq!(core.seed(), 7);
        assert!(core.contains(42));
        assert!(core.fill_ratio() > 0.0);
        assert_eq!(core.inserted(), 1);
    }

    #[test]
    fn weight_universe_follows_inserts_and_removes() {
        let mut filter = CountingWbf::new(params(), 1);
        assert!(filter.weight_universe().is_empty());
        assert_eq!(filter.weight_universe().max(), None);
        filter.insert(1, w(1, 3)).unwrap();
        filter.insert(2, w(2, 3)).unwrap();
        assert_eq!(filter.weight_universe().as_slice(), &[w(1, 3), w(2, 3)]);
        assert_eq!(filter.weight_universe().max(), Some(w(2, 3)));
        // Removing the last carrier of a weight retires it from the
        // universe; the cached set must not go stale.
        filter.remove(2, w(2, 3)).unwrap();
        assert_eq!(filter.weight_universe().as_slice(), &[w(1, 3)]);
        assert_eq!(filter.weight_universe().max(), Some(w(1, 3)));
        // The universe matches the snapshot's.
        assert_eq!(
            filter.weight_universe(),
            filter.snapshot().weight_universe()
        );
    }

    #[test]
    fn equality_ignores_pending_deltas() {
        let mut a = CountingWbf::new(params(), 1);
        let mut b = CountingWbf::new(params(), 1);
        a.insert(5, w(1, 2)).unwrap();
        b.insert(5, w(1, 2)).unwrap();
        a.drain_dirty();
        assert_eq!(a, b, "drained and pending filters hold the same state");
        assert_ne!(a, CountingWbf::new(params(), 1));
        assert_ne!(a, CountingWbf::new(params(), 2));
    }
}
