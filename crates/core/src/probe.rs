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
//! 2. **Borrow until a copy is forced.** The first occupied probe's weight
//!    set is borrowed from the table; only a second, different probe forces
//!    materializing an intersection — and that lands in the caller's
//!    reusable [`QueryScratch`], never in a fresh allocation. With `k = 1`,
//!    or when every probe of the sequence lands on one position, the result
//!    is returned as a borrow of the table itself.
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

/// A probe-addressable table of weight sets: the storage interface both
/// filter representations expose to the shared weight fold.
pub(crate) trait ProbeTable {
    /// The weight set at `idx`; `None` if the position is empty.
    fn set_at(&self, idx: usize) -> Option<&WeightSet>;

    /// The mask fold's tables: the sorted weight universe and, per
    /// weight-set entry, the mask of the universe weights it holds; `None`
    /// while the universe is wider than [`MASK_WIDTH`].
    fn fold_masks(&self) -> Option<(&WeightSet, &[u64])>;

    /// The weight-set entry of the occupied position `idx`: its index into
    /// the masks of [`ProbeTable::fold_masks`].
    fn entry_at(&self, idx: usize) -> usize;
}

/// The running intersection state: borrowing from the table until a second
/// distinct set forces an owned copy in the scratch buffer.
pub(crate) enum Acc<'a> {
    Start,
    Borrowed(&'a WeightSet),
    Owned,
}

impl<'a> Acc<'a> {
    /// Folds one occupied position's set into the intersection, writing it
    /// to `owned` once a second distinct set shows up. Returns `true` once
    /// the intersection is empty: it can never grow back, so the caller
    /// stops and reports the weight-inconsistent reject.
    pub(crate) fn fold(&mut self, set: &'a WeightSet, owned: &mut WeightSet) -> bool {
        match *self {
            Acc::Start => *self = Acc::Borrowed(set),
            Acc::Borrowed(first) if std::ptr::eq(first, set) => {}
            Acc::Borrowed(first) => {
                owned.assign_intersection(first, set);
                *self = Acc::Owned;
                return owned.is_empty();
            }
            Acc::Owned => {
                owned.intersect_with(set);
                return owned.is_empty();
            }
        }
        false
    }
}

/// The weight fold over probe positions hashed ahead of time, all already
/// known to be occupied (the caller ran the mask membership pre-test).
/// Returns `None` for an empty probe set, as a sequence query of no keys.
///
/// Over a universe of at most [`MASK_WIDTH`] weights each set is one mask,
/// so the fold is a chain of `AND`s with a zero early exit; wider universes
/// take the sorted-set merge.
pub(crate) fn fold_precomputed<'s, T: ProbeTable>(
    table: &'s T,
    indices: &[u32],
    scratch: &'s mut QueryScratch,
) -> Option<&'s WeightSet> {
    let Some((universe, masks)) = table.fold_masks() else {
        return fold_sets(table, indices.iter().map(|&idx| idx as usize), scratch);
    };
    if indices.is_empty() {
        return None;
    }
    let mut mask = u64::MAX;
    for &idx in indices {
        mask &= masks[table.entry_at(idx as usize)];
        if mask == 0 {
            break;
        }
    }
    scratch.acc.assign_mask(universe, mask);
    Some(&scratch.acc)
}

/// Intersects the weight sets at occupied positions `indices`, stopping at
/// the first empty intersection; `None` if there are no positions.
pub(crate) fn fold_sets<'s, T: ProbeTable>(
    table: &'s T,
    indices: impl Iterator<Item = usize>,
    scratch: &'s mut QueryScratch,
) -> Option<&'s WeightSet> {
    let mut acc = Acc::Start;
    for idx in indices {
        let set = table.set_at(idx).expect("occupied position");
        if acc.fold(set, &mut scratch.acc) {
            break;
        }
    }
    match acc {
        Acc::Start => None,
        Acc::Borrowed(set) => Some(set),
        Acc::Owned => Some(&scratch.acc),
    }
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
