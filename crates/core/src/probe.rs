//! The one way to probe a weighted filter (Algorithm 2, lines 3–15).
//!
//! [`WeightedBloomFilter`](crate::WeightedBloomFilter) and
//! [`WbfFrameView`](crate::WbfFrameView) answer with identical semantics:
//! reject unless every probed position is occupied and one weight is
//! common to all of them. Both implement the sealed [`WeightedProbe`], and
//! its row query is the only public way to read their weight sets, so the
//! rule lives here once. The two representations differ only in how a
//! position names its weight set: the owned filter keeps a dense slot per
//! position, the view finds the id by rank in its frame.
//!
//! The row query is built for the station-side scan, where almost every
//! candidate misses:
//!
//! 1. **Membership first, key by key.** A key's `k` probes are hashed into
//!    the caller's [`PrecomputedProbes`] and tested by word mask before the
//!    next key is hashed, and the row is dropped at its first key whose
//!    probes miss. A miss row costs a few masked loads and never touches
//!    the weight table. The probe set records the keys and the geometry it
//!    holds probes for, so a key already hashed at the filter's geometry is
//!    replayed, and any other key or geometry is hashed afresh.
//! 2. **Fold by entry.** Both representations intern their weight sets in
//!    a table and name an entry per occupied position. Over a universe of
//!    at most [`MASK_WIDTH`] weights each entry is one mask over the sorted
//!    universe, so the fold is a chain of `AND`s; wider universes intersect
//!    the entries' sorted sets. Either way the result lands in the caller's
//!    reusable [`QueryScratch`], never in a fresh allocation.
//! 3. **Early reject.** Once the running intersection is empty it can never
//!    grow, so the fold stops and reports the weight-inconsistent reject.
//!
//! Membership-first ordering is a deliberate (and documented) refinement of
//! the seed implementation, which interleaved bit tests and intersections
//! key-by-key and could answer `Some(∅)` where this core answers `None`
//! (an empty running intersection used to exit before a later key's missing
//! bit was seen) — both are rejects, and accepted candidates return the
//! exact same set.

use crate::hash::HashFamily;
use crate::weight_set::WeightSet;

/// Reusable scratch for [`WeightedProbe::query_row`]: owns the running
/// intersection so repeated queries share one heap buffer.
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

/// A row's probe set: each key's `k` probe indices and merged word masks,
/// hashed at one filter geometry and kept across row queries.
///
/// [`WeightedProbe::query_row`] fills it key by key, and the set records
/// which keys it holds probes for and at which `(hash family, bit length)`.
/// A query replays a held key's probes only at the same ordinal and
/// geometry: a filter of another geometry re-hashes the row, and a row
/// whose keys differ re-hashes from its first differing key on. So a batch
/// of sections sharing one geometry hashes each key of a row once, and no
/// query reads probes hashed for another key or geometry.
///
/// [`PrecomputedProbes::compute`] hashes a whole key list at once, for
/// callers that test the word masks themselves: a routing tree tests one
/// probe key set at every node of its one geometry.
///
/// Masks are stored as parallel word/mask arrays (not interleaved pairs) so
/// they feed the SIMD membership kernel directly.
#[derive(Debug, Clone, Default)]
pub struct PrecomputedProbes {
    /// The hash family and bit length every held probe was hashed at.
    geometry: Option<(HashFamily, usize)>,
    /// The held keys in row order, each with the exclusive end of its
    /// mask-group run.
    keys: Vec<(u64, u32)>,
    /// Flat probe indices: all `k` probes of key 0, then key 1, …
    indices: Vec<u32>,
    /// Word index per merged mask group, parallel to `mask_bits`.
    mask_words: Vec<u32>,
    /// Merged bit masks of consecutive same-word probes — the word-batched
    /// membership masks, mirroring the merging
    /// [`BitSet::contains_probes`](crate::BitSet::contains_probes) performs
    /// on the fly. Groups never merge across key boundaries, so each key's
    /// groups form a contiguous, independently testable run.
    mask_bits: Vec<u64>,
}

impl PrecomputedProbes {
    /// Creates an empty probe set.
    pub fn new() -> PrecomputedProbes {
        PrecomputedProbes::default()
    }

    /// Hashes `keys` against a filter geometry of `len` bits under
    /// `family`: the set then holds exactly their probes, in order. Buffers
    /// are reused, and so are the probes of a leading run of keys the set
    /// already holds at this geometry.
    pub fn compute(&mut self, family: &HashFamily, len: usize, keys: &[u64]) {
        self.use_geometry(family, len);
        for (ordinal, &key) in keys.iter().enumerate() {
            self.hash_key(family, len, ordinal, key);
        }
        self.truncate(keys.len());
    }

    /// Reserves room for `probes` probe indices (and as many keys and mask
    /// groups, the no-merging worst case), so filling the set with up to
    /// that many probes stays allocation-free.
    pub fn reserve(&mut self, probes: usize) {
        self.keys.reserve(probes);
        self.indices.reserve(probes);
        self.mask_words.reserve(probes);
        self.mask_bits.reserve(probes);
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

    /// The number of keys the set holds probes for.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// The `key`-th held key's merged `(words, masks)` run — the membership
    /// test for exactly that key.
    ///
    /// # Panics
    ///
    /// Panics if `key >= key_count()`.
    pub fn key_masks(&self, key: usize) -> (&[u32], &[u64]) {
        let end = self.keys[key].1 as usize;
        let start = key.checked_sub(1).map_or(0, |k| self.keys[k].1 as usize);
        (&self.mask_words[start..end], &self.mask_bits[start..end])
    }

    /// Keeps the held probes if they were hashed under `family` over `len`
    /// bits, and drops them otherwise.
    fn use_geometry(&mut self, family: &HashFamily, len: usize) {
        if self.geometry != Some((*family, len)) {
            self.truncate(0);
            self.geometry = Some((*family, len));
        }
    }

    /// Makes `key` the held key at `ordinal` (at most
    /// [`key_count`](Self::key_count)): kept if the set already holds it
    /// there, otherwise hashed under `family` over `len` bits, the geometry
    /// of the last [`use_geometry`](Self::use_geometry), in place of the
    /// held keys from `ordinal` on.
    fn hash_key(&mut self, family: &HashFamily, len: usize, ordinal: usize, key: u64) {
        match self.keys.get(ordinal) {
            Some(&(held, _)) if held == key => return,
            Some(_) => self.truncate(ordinal),
            None => {}
        }
        self.push_key(family, len, key);
    }

    /// Appends one key's `k` probes, merging consecutive same-word probes
    /// within the key into one mask group.
    fn push_key(&mut self, family: &HashFamily, len: usize, key: u64) {
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
        self.keys.push((key, self.mask_words.len() as u32));
    }

    /// Probe indices per held key: the geometry's hash count.
    fn per_key(&self) -> usize {
        self.geometry
            .map_or(0, |(family, _)| usize::from(family.hashes()))
    }

    /// The probe indices of the first `keys` held keys.
    fn indices_of(&self, keys: usize) -> &[u32] {
        &self.indices[..keys * self.per_key()]
    }

    /// Drops the held keys from the `keys`-th on.
    fn truncate(&mut self, keys: usize) {
        let groups = keys.checked_sub(1).map_or(0, |k| self.keys[k].1 as usize);
        self.indices.truncate(keys * self.per_key());
        self.keys.truncate(keys);
        self.mask_words.truncate(groups);
        self.mask_bits.truncate(groups);
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
pub struct FoldState {
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

/// The private half of [`WeightedProbe`]. The module is private, so no type
/// outside this crate implements it.
pub(crate) mod sealed {
    use super::FoldState;
    use crate::bitset::BitSet;
    use crate::hash::HashFamily;

    /// What a row query reads of a filter.
    pub trait Sealed {
        /// The bit array.
        fn bits(&self) -> &BitSet;

        /// The hash family the filter was built with.
        fn family(&self) -> &HashFamily;

        /// The weight universe, and the set-table entries the fold
        /// intersects.
        fn fold_state(&self) -> &FoldState;

        /// The set-table entry of the occupied position `idx`.
        fn entry_at(&self, idx: usize) -> usize;
    }
}

/// A weighted Bloom filter as a base station probes it: the owned
/// [`WeightedBloomFilter`](crate::WeightedBloomFilter) or the zero-copy
/// [`WbfFrameView`](crate::WbfFrameView) of its broadcast frame, the trait's
/// only two implementations.
pub trait WeightedProbe: sealed::Sealed {
    /// The sorted set of every distinct weight attached at some set bit:
    /// the score universe a pruning scan bounds candidates against. Every
    /// [`query_row`](WeightedProbe::query_row) answer is a subset of it, so
    /// its maximum is the filter's score upper bound.
    ///
    /// An owned filter derives it from its distinct weight sets on first
    /// use and caches it until the next `insert` or `apply_delta`; a view
    /// reads it off its frame's dictionary.
    fn weight_universe(&self) -> &WeightSet {
        &self.fold_state().universe
    }

    /// The number of hash functions (`k`): a row of `b` keys costs `b·k`
    /// probes.
    fn hashes(&self) -> u16 {
        self.family().hashes()
    }

    /// Queries one row, the `b` sampled keys of one candidate pattern
    /// (Algorithm 2, lines 3–15): `None` if the row is empty or some key's
    /// probes miss, otherwise the weights common to every probed position.
    /// `Some` of an empty set is a weight-inconsistent reject, so the
    /// caller accepts the row iff the set is non-empty, and
    /// [`WeightSet::max`] is then the reported weight.
    ///
    /// The keys are hashed lazily into `probes` at this filter's geometry,
    /// and each key's membership is tested before the next key is hashed,
    /// so the row is dropped at its first missing key. Only a row whose
    /// every key passes is folded. `probes` keeps what it hashed: the next
    /// query replays a key at the same ordinal and geometry instead of
    /// hashing it again. The answer borrows `scratch`, whose buffer is
    /// reused.
    fn query_row<'s>(
        &self,
        keys: &[u64],
        probes: &mut PrecomputedProbes,
        scratch: &'s mut QueryScratch,
    ) -> Option<&'s WeightSet> {
        let (bits, family) = (self.bits(), self.family());
        probes.use_geometry(family, bits.len());
        for (ordinal, &key) in keys.iter().enumerate() {
            probes.hash_key(family, bits.len(), ordinal, key);
            let (words, masks) = probes.key_masks(ordinal);
            if !bits.contains_probes_simd(words, masks) {
                return None;
            }
        }
        fold(self, probes.indices_of(keys.len()), &mut scratch.acc)
    }
}

/// The weight fold over the occupied positions `indices`: the weights
/// every position's set holds, written into `acc` (capacity reused),
/// stopping at the first empty intersection. `None` if there are no
/// positions, as for a row of no keys.
fn fold<'s, P: WeightedProbe + ?Sized>(
    filter: &P,
    indices: &[u32],
    acc: &'s mut WeightSet,
) -> Option<&'s WeightSet> {
    let state = filter.fold_state();
    let entry = |idx: u32| filter.entry_at(idx as usize);
    let (&first, rest) = indices.split_first()?;
    match &state.entries {
        FoldEntries::Masks(masks) => {
            let mut mask = masks[entry(first)];
            for &idx in rest {
                if mask == 0 {
                    break;
                }
                mask &= masks[entry(idx)];
            }
            acc.assign_mask(&state.universe, mask);
        }
        FoldEntries::Sets(sets) => {
            acc.assign_sorted(sets[entry(first)].iter());
            for &idx in rest {
                if acc.is_empty() {
                    break;
                }
                acc.intersect_with(&sets[entry(idx)]);
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
        assert_eq!(whole.indices, incremental.indices);
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
        whole.compute(&family, 4096, &[]);
        assert_eq!(whole.key_count(), 0);
        assert!(whole.words().is_empty() && whole.indices.is_empty());
    }

    #[test]
    fn a_held_key_is_replayed_only_at_its_ordinal_and_geometry() {
        let (family, other) = (HashFamily::new(4, 9), HashFamily::new(4, 10));
        let fresh = |family: &HashFamily, len: usize, keys: &[u64]| {
            let mut set = PrecomputedProbes::new();
            set.compute(family, len, keys);
            set
        };
        let same = |a: &PrecomputedProbes, b: &PrecomputedProbes| {
            a.keys == b.keys && a.indices == b.indices && a.words() == b.words()
        };
        let mut set = fresh(&family, 4096, &[1, 2, 3]);
        // A row sharing a leading key keeps it and re-hashes from the
        // first key that differs; a shorter row drops the tail.
        for row in [&[1u64, 5][..], &[1, 5, 3], &[5, 1], &[5], &[]] {
            set.compute(&family, 4096, row);
            assert!(same(&set, &fresh(&family, 4096, row)), "row {row:?}");
        }
        // Another seed or another length re-hashes the same keys.
        set.compute(&family, 4096, &[1, 2]);
        for (f, len) in [(other, 4096), (family, 2048), (family, 4096)] {
            set.compute(&f, len, &[1, 2]);
            assert!(same(&set, &fresh(&f, len, &[1, 2])), "{f:?} over {len}");
        }
    }
}
