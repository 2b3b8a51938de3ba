//! The shared weighted-probe core (Algorithm 2, lines 3–15).
//!
//! [`WeightedBloomFilter`](crate::WeightedBloomFilter) and
//! [`WbfFrameView`](crate::WbfFrameView) answer queries with identical
//! semantics — reject unless every probed position is occupied and one
//! weight is common to all of them — so the weight fold lives here once,
//! generic over a [`ProbeTable`], instead of being maintained twice.
//!
//! Probing is built for the station-side scan, where almost every candidate
//! misses:
//!
//! 1. **Membership first.** The *entire sequence's* occupancy is tested —
//!    all `k` probes of every key, word-level against the bit array for the
//!    plain filter — before any weight set is read, so a miss row costs a
//!    few masked loads and never touches the weight table. The weight fold
//!    only ever runs on candidates whose every sampled point is present.
//! 2. **Fold by entry.** Both representations intern their weight sets in
//!    a table and name an entry per occupied position. Over a universe of
//!    at most [`MASK_WIDTH`] weights each entry is one mask over the sorted
//!    universe, so the fold is a chain of `AND`s; wider universes intersect
//!    the entries' sorted sets. Either way the result lands in the caller's
//!    reusable [`QueryScratch`], never in a fresh allocation.
//! 3. **Early reject.** Once the running intersection is empty it can never
//!    grow, so the scan stops and reports the weight-inconsistent reject.
//!
//! Membership-first ordering is a deliberate (and documented) refinement of
//! the seed implementation, which interleaved bit tests and intersections
//! key-by-key and could answer `Some(∅)` where this core answers `None`
//! (an empty running intersection used to exit before a later key's missing
//! bit was seen) — both are rejects, and accepted candidates return the
//! exact same set.

use crate::hash::HashFamily;
use crate::weight_set::WeightSet;

/// Reusable scratch for the weight folds of
/// [`WeightedBloomFilter`](crate::WeightedBloomFilter::query_sequence_into)
/// and [`WbfFrameView`](crate::WbfFrameView::fold_weights_precomputed) —
/// owns the running intersection so repeated queries share one heap buffer.
///
/// Create it once per scan loop and pass it to every call; the buffer's
/// capacity converges to the largest weight set encountered and the hot
/// path stops allocating entirely.
#[derive(Debug, Clone, Default)]
pub struct QueryScratch {
    pub(crate) acc: WeightSet,
}

impl QueryScratch {
    /// Creates an empty scratch buffer.
    pub fn new() -> QueryScratch {
        QueryScratch::default()
    }
}

/// One candidate row's probe set, hashed once and replayed against every
/// query section sharing a geometry.
///
/// A batch scan probes each row against many filter sections; when the
/// sections share one `(hash family, bit length)` the probe indices — and
/// the merged word masks the membership pre-test loads — are identical for
/// all of them, so hashing them per `(row × section)` is pure waste. A
/// `PrecomputedProbes` is filled once per row (key by key via
/// [`PrecomputedProbes::push_key`], or in one shot via
/// [`PrecomputedProbes::compute`], reusing its buffers across rows) and
/// replayed per section — whole through
/// [`WeightedBloomFilter::query_precomputed`](crate::WeightedBloomFilter::query_precomputed),
/// or key by key through [`PrecomputedProbes::key_masks`] +
/// [`BitSet::contains_probes_simd`](crate::BitSet::contains_probes_simd)
/// when the scan wants to drop a section on its first missing key without
/// hashing the rest of the row.
///
/// Masks are stored as parallel word/mask arrays (not interleaved pairs) so
/// they feed the SIMD membership kernel directly.
#[derive(Debug, Clone, Default)]
pub struct PrecomputedProbes {
    /// Flat probe indices: all `k` probes of key 0, then key 1, …
    pub(crate) indices: Vec<u32>,
    /// Word index per merged mask group, parallel to `mask_bits`.
    mask_words: Vec<u32>,
    /// Merged bit masks of consecutive same-word probes — the word-batched
    /// membership masks, mirroring the merging
    /// [`BitSet::contains_probes`](crate::BitSet::contains_probes) performs
    /// on the fly. Groups never merge across key boundaries, so each key's
    /// groups form a contiguous, independently replayable run.
    mask_bits: Vec<u64>,
    /// Exclusive end offset of each key's mask-group run.
    key_ends: Vec<u32>,
}

impl PrecomputedProbes {
    /// Creates an empty probe set.
    pub fn new() -> PrecomputedProbes {
        PrecomputedProbes::default()
    }

    /// Recomputes the probe set of `keys` against a filter geometry of
    /// `len` bits under `family`, reusing all buffers.
    pub fn compute(&mut self, family: &HashFamily, len: usize, keys: &[u64]) {
        self.clear();
        for &key in keys {
            self.push_key(family, len, key);
        }
    }

    /// Clears the probe set without releasing its buffers.
    pub fn clear(&mut self) {
        self.indices.clear();
        self.mask_words.clear();
        self.mask_bits.clear();
        self.key_ends.clear();
    }

    /// Appends one key's `k` probes, merging consecutive same-word probes
    /// within the key into one mask group.
    pub fn push_key(&mut self, family: &HashFamily, len: usize, key: u64) {
        let start = self.mask_words.len();
        for idx in family.probes(key, len) {
            self.indices.push(idx as u32);
            let (word, mask) = ((idx / 64) as u32, 1u64 << (idx % 64));
            if self.mask_words.len() > start && *self.mask_words.last().unwrap() == word {
                *self.mask_bits.last_mut().unwrap() |= mask;
            } else {
                self.mask_words.push(word);
                self.mask_bits.push(mask);
            }
        }
        self.key_ends.push(self.mask_words.len() as u32);
    }

    /// Reserves room for `probes` probe indices (and as many mask groups,
    /// the no-merging worst case) so later [`PrecomputedProbes::compute`]
    /// calls stay allocation-free.
    pub fn reserve(&mut self, probes: usize) {
        self.indices.reserve(probes);
        self.mask_words.reserve(probes);
        self.mask_bits.reserve(probes);
        self.key_ends.reserve(probes);
    }

    /// The merged mask groups' word indices, parallel to
    /// [`PrecomputedProbes::mask_bits`].
    pub fn words(&self) -> &[u32] {
        &self.mask_words
    }

    /// The merged mask groups' bit masks, parallel to
    /// [`PrecomputedProbes::words`].
    pub fn mask_bits(&self) -> &[u64] {
        &self.mask_bits
    }

    /// The flat probe indices (all `k` probes of key 0, then key 1, …).
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The number of keys pushed.
    pub fn key_count(&self) -> usize {
        self.key_ends.len()
    }

    /// The `key`-th key's merged `(words, masks)` run — the membership test
    /// for exactly that key, for scans that probe key by key and stop at
    /// the first miss.
    ///
    /// # Panics
    ///
    /// Panics if `key >= key_count()`.
    pub fn key_masks(&self, key: usize) -> (&[u32], &[u64]) {
        let end = self.key_ends[key] as usize;
        let start = if key == 0 {
            0
        } else {
            self.key_ends[key - 1] as usize
        };
        (&self.mask_words[start..end], &self.mask_bits[start..end])
    }

    /// Whether the probe set holds no probes (computed from zero keys).
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }
}

/// Mask bits a weight universe may use: tables whose universe is wider
/// than this fold by sorted-set merges instead of masks.
pub(crate) const MASK_WIDTH: usize = 64;

/// What the weight fold reads of a weight-set table: the sorted weight
/// universe, and every table entry in the form the fold intersects.
///
/// A frame view reads it off the parse; an owned filter derives it from
/// its live table entries, at a cost that follows the table, not the
/// positions.
#[derive(Debug, Clone, Default)]
pub(crate) struct FoldState {
    /// Every weight some entry holds, ascending.
    pub(crate) universe: WeightSet,
    /// The entries, indexed by table id.
    pub(crate) entries: FoldEntries,
}

/// The table entries as the fold reads them.
#[derive(Debug, Clone)]
pub(crate) enum FoldEntries {
    /// Over a universe of at most [`MASK_WIDTH`] weights: bit `i` of an
    /// entry's mask is set iff the entry holds `universe.as_slice()[i]`.
    Masks(Vec<u64>),
    /// Over a wider universe: each entry's sorted set.
    Sets(Vec<WeightSet>),
}

impl Default for FoldEntries {
    fn default() -> FoldEntries {
        FoldEntries::Masks(Vec::new())
    }
}

/// A probe-addressable table of interned weight sets: the storage
/// interface both filter representations expose to the shared weight fold.
pub(crate) trait ProbeTable {
    /// The universe and the entries the fold intersects.
    fn fold_state(&self) -> &FoldState;

    /// The table entry of the occupied position `idx`.
    fn entry_at(&self, idx: usize) -> usize;
}

/// The weight fold over occupied positions `indices`: the weights every
/// position's set holds, written into `acc` (capacity reused), stopping at
/// the first empty intersection. `None` if there are no positions, as a
/// sequence query of no keys.
pub(crate) fn fold<'s, T: ProbeTable>(
    table: &T,
    indices: impl IntoIterator<Item = usize>,
    acc: &'s mut WeightSet,
) -> Option<&'s WeightSet> {
    let state = table.fold_state();
    let mut indices = indices.into_iter();
    let first = table.entry_at(indices.next()?);
    match &state.entries {
        FoldEntries::Masks(masks) => {
            let mut mask = masks[first];
            for idx in indices {
                if mask == 0 {
                    break;
                }
                mask &= masks[table.entry_at(idx)];
            }
            acc.assign_mask(&state.universe, mask);
        }
        FoldEntries::Sets(sets) => {
            acc.assign_sorted(sets[first].iter());
            for idx in indices {
                if acc.is_empty() {
                    break;
                }
                acc.intersect_with(&sets[table.entry_at(idx)]);
            }
        }
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_key_matches_compute_and_partitions_by_key() {
        let family = HashFamily::new(6, 9);
        let keys = [3u64, 17, 17, 99];
        let mut whole = PrecomputedProbes::new();
        whole.compute(&family, 4096, &keys);
        let mut incremental = PrecomputedProbes::new();
        for &k in &keys {
            incremental.push_key(&family, 4096, k);
        }
        assert_eq!(whole.indices(), incremental.indices());
        assert_eq!(whole.words(), incremental.words());
        assert_eq!(whole.mask_bits(), incremental.mask_bits());
        assert_eq!(whole.key_count(), keys.len());
        // Per-key runs tile the arrays and reproduce each key's own probes,
        // independent of what was pushed before them.
        let mut at = 0;
        for (j, &k) in keys.iter().enumerate() {
            let (w, m) = whole.key_masks(j);
            assert_eq!(w.len(), m.len());
            assert_eq!(w, &whole.words()[at..at + w.len()]);
            at += w.len();
            let mut solo = PrecomputedProbes::new();
            solo.push_key(&family, 4096, k);
            assert_eq!(w, solo.words());
            assert_eq!(m, solo.mask_bits());
        }
        assert_eq!(at, whole.words().len());
        whole.clear();
        assert!(whole.is_empty());
        assert_eq!(whole.key_count(), 0);
    }
}
