//! Zero-copy weighted-filter frame view: probe a broadcast straight out of
//! the received bytes.
//!
//! The owned decoder ([`decode_wbf`](crate::encode::decode_wbf)) expands
//! the frame's per-bit set ids into a dense per-position id array — the
//! right shape for mutation (a streaming station's delta application), but
//! pure overhead for a base station that only wants to *probe* the
//! broadcast. [`WbfFrameView`] keeps the frame's per-bit set-id region as a
//! borrowed slice of the receive buffer: validation runs once at parse
//! time, then each occupied probe finds its set-table entry by rank — a
//! prefix-popcount over the bit array gives the probe's ordinal among set
//! bits, which indexes the id region directly. The owned decoder is this
//! view converted (`WeightedBloomFilter::from`), so both accept and reject
//! exactly the same frames.
//!
//! An accepted frame is canonical (see [`encode`](crate::encode)), so its
//! weight dictionary is the filter's weight universe, and each set-table
//! entry's fold mask over it comes out of the parse: the view folds by the
//! same routine as the owned filter. Folds answer bit-identically to the
//! owned filter decoded from the same frame; the scan conformance suite
//! pins that equivalence.

use bytes::Bytes;

use crate::bitset::BitSet;
use crate::error::{CoreError, Result};
use crate::hash::HashFamily;
use crate::probe::{self, FoldState, ProbeTable, QueryScratch};
use crate::set_table::EMPTY;
use crate::wbf::WeightedBloomFilter;
use crate::weight_set::WeightSet;

/// A validated, read-only view of an encoded weighted Bloom filter frame.
///
/// Holds the decoded bit array, hash family, weight universe and interned
/// weight-set table (as the fold reads it), but keeps the per-bit set-id
/// region as a zero-copy slice of the received bytes (`Bytes` is
/// reference-counted, so the view shares the receive buffer instead of
/// re-materializing thousands of per-bit entries). Its weight folds return the exact same answers the
/// owned decode of the same frame would.
///
/// Created by [`encode::view_wbf`](crate::encode::view_wbf).
#[derive(Debug, Clone)]
pub struct WbfFrameView {
    bits: BitSet,
    /// Exclusive prefix popcount per word: `rank[w]` = set bits before word
    /// `w`, turning "which ordinal among set bits is this probe" into one
    /// table load plus one masked popcount.
    rank: Vec<u32>,
    /// The frame's weight dictionary, which is its weight universe, and
    /// its set table: per entry a fold mask over the universe, or past a
    /// mask's width the entry's sorted set.
    fold: FoldState,
    /// The frame's per-bit set-id region: one little-endian id of
    /// `id_width` bytes per set bit, in ascending bit order, borrowed from
    /// the receive buffer.
    ids: Bytes,
    /// Bytes per set id: 1 or 2, the narrower that indexes the set table.
    id_width: usize,
    family: HashFamily,
    inserted: u64,
}

/// Parses and validates a weighted frame into a view: every set bit has a
/// set id inside the set table, the ids name every entry in first-seen
/// order, and nothing trails the id region.
pub(crate) fn parse_frame(mut data: Bytes) -> Result<WbfFrameView> {
    let body = crate::encode::take_wbf_body(&mut data)?;
    let ones = body.bits.count_ones();
    let region = ones * body.id_width;
    if data.len() < region {
        return Err(CoreError::decode("truncated per-bit set id"));
    }
    if data.len() > region {
        return Err(CoreError::decode("trailing bytes after filter payload"));
    }
    // First-seen order: no id exceeds the largest id before it by more
    // than one. `top` ends one past the largest id, which must be the
    // table's length: more means an id outside the table, less an entry
    // no bit names.
    let (mut top, mut ordered) = (0usize, true);
    for_each_id(&data, body.id_width, |id| {
        ordered &= id <= top;
        top = top.max(id + 1);
    });
    if top > body.sets {
        return Err(CoreError::decode("set id outside set table"));
    }
    if !ordered {
        return Err(CoreError::decode(
            "set table entries out of first-seen order",
        ));
    }
    if top < body.sets {
        return Err(CoreError::decode("set table entry named by no set bit"));
    }
    let words = body.bits.as_words();
    let mut rank = Vec::with_capacity(words.len());
    let mut before = 0u32;
    for &word in words {
        rank.push(before);
        before += word.count_ones();
    }
    Ok(WbfFrameView {
        ids: data,
        id_width: body.id_width,
        bits: body.bits,
        rank,
        fold: body.fold,
        family: body.family,
        inserted: body.inserted,
    })
}

/// Calls `f` on every id of a set-id region of `width`-byte ids, in order.
/// The width is matched once per pass, not once per id, so each arm is a
/// plain fixed-stride loop.
#[inline]
fn for_each_id(ids: &[u8], width: usize, mut f: impl FnMut(usize)) {
    if width == 1 {
        ids.iter().for_each(|&id| f(usize::from(id)));
    } else {
        ids.chunks_exact(2)
            .for_each(|id| f(usize::from(u16::from_le_bytes([id[0], id[1]]))));
    }
}

impl WbfFrameView {
    /// The set-table id of the set bit `bit`.
    #[inline]
    fn id_at(&self, bit: usize) -> usize {
        let word = self.bits.as_words()[bit / 64];
        let below = word & ((1u64 << (bit % 64)) - 1);
        let at = (self.rank[bit / 64] as usize + below.count_ones() as usize) * self.id_width;
        if self.id_width == 1 {
            usize::from(self.ids[at])
        } else {
            usize::from(u16::from_le_bytes([self.ids[at], self.ids[at + 1]]))
        }
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

    /// The number of insert operations the encoder recorded.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// The fraction of set bits.
    pub fn fill_ratio(&self) -> f64 {
        self.bits.fill_ratio()
    }

    /// Borrows the underlying bit set.
    pub fn bits(&self) -> &BitSet {
        &self.bits
    }

    /// Pure membership test (ignores weights): whether all probed bits are
    /// set. Matches [`WeightedBloomFilter::contains`].
    pub fn contains(&self, key: u64) -> bool {
        let m = self.bits.len();
        self.bits.contains_probes(self.family.probes(key, m))
    }

    /// The weight fold over probes already known to be occupied; see
    /// [`WeightedBloomFilter::fold_weights_precomputed`], whose mask fold
    /// this shares.
    ///
    /// # Panics
    ///
    /// May panic if any precomputed probe index is unoccupied — run the
    /// membership test first.
    pub fn fold_weights_precomputed<'s>(
        &self,
        pre: &probe::PrecomputedProbes,
        scratch: &'s mut QueryScratch,
    ) -> Option<&'s WeightSet> {
        let probes = pre.indices().iter().map(|&idx| idx as usize);
        probe::fold(self, probes, &mut scratch.acc)
    }

    /// The sorted set of every distinct weight attached at some set bit —
    /// see [`WeightedBloomFilter::weight_universe`]. A canonical frame
    /// references every dictionary weight, so this is the dictionary.
    pub fn weight_universe(&self) -> &WeightSet {
        &self.fold.universe
    }
}

impl ProbeTable for WbfFrameView {
    fn fold_state(&self) -> &FoldState {
        &self.fold
    }

    fn entry_at(&self, idx: usize) -> usize {
        self.id_at(idx)
    }
}

/// The owned, mutable filter a streaming station applies deltas to. It
/// takes the view's set table as its own interned sets — the dictionary
/// numbers the table's weights, and each entry keeps its id — and each set
/// bit's id becomes the position's slot, so nothing is copied per set bit.
/// The view's fold state is the filter's derived state as it stands.
impl From<WbfFrameView> for WeightedBloomFilter {
    fn from(view: WbfFrameView) -> WeightedBloomFilter {
        let mut slots = vec![EMPTY; view.bits.len()];
        let mut ones = view.bits.iter_ones();
        for_each_id(&view.ids, view.id_width, |id| {
            let bit = ones.next().expect("one id per set bit");
            slots[bit] = id as u32;
        });
        WeightedBloomFilter::decoded(view.bits, view.family, view.inserted, slots, view.fold)
    }
}

/// Semantic equality with an owned filter: same geometry, same bit array,
/// same insert count and the same weight set at every set bit — i.e. the
/// two answer every query identically. Used by round-trip tests comparing
/// a view against the filter the frame was encoded from.
impl PartialEq<WeightedBloomFilter> for WbfFrameView {
    fn eq(&self, other: &WeightedBloomFilter) -> bool {
        let decoded = WeightedBloomFilter::from(self.clone());
        decoded == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode_wbf, view_wbf};
    use crate::params::FilterParams;
    use crate::weight::Weight;

    fn sample() -> WeightedBloomFilter {
        let params = FilterParams::new(4096, 3).unwrap();
        let mut wbf = WeightedBloomFilter::new(params, 77);
        for (i, v) in [10u64, 20, 30, 40, 50].iter().enumerate() {
            wbf.insert(*v, Weight::new(i as u64 + 1, 10).unwrap());
        }
        wbf
    }

    /// The scan's probe of `keys`: hash once, test membership by mask,
    /// then fold — what a station runs against a view.
    fn scan_probe(view: &WbfFrameView, keys: &[u64]) -> Option<WeightSet> {
        let mut pre = probe::PrecomputedProbes::new();
        pre.compute(&view.family, view.bit_len(), keys);
        if pre.is_empty() || !view.bits.contains_probes_simd(pre.words(), pre.mask_bits()) {
            return None;
        }
        view.fold_weights_precomputed(&pre, &mut QueryScratch::new())
            .cloned()
    }

    #[test]
    fn view_equals_the_encoded_filter() {
        let wbf = sample();
        let view = view_wbf(encode_wbf(&wbf).unwrap()).unwrap();
        assert_eq!(view, wbf);
        assert_eq!(view.bit_len(), wbf.bit_len());
        assert_eq!(view.hashes(), wbf.hashes());
        assert_eq!(view.seed(), wbf.seed());
        assert_eq!(view.inserted(), wbf.inserted());
        assert_eq!(view.fill_ratio(), wbf.fill_ratio());
        assert_eq!(view.weight_universe(), wbf.weight_universe());
    }

    #[test]
    fn view_queries_match_owned_decode() {
        let wbf = sample();
        let frame = encode_wbf(&wbf).unwrap();
        let owned = crate::encode::decode_wbf(frame.clone()).unwrap();
        let view = view_wbf(frame).unwrap();
        for v in [10u64, 20, 30, 40, 50, 999, 0, u64::MAX] {
            assert_eq!(view.contains(v), owned.contains(v));
            assert_eq!(
                scan_probe(&view, &[v]),
                owned.query_sequence([v]),
                "key {v}"
            );
        }
        assert_eq!(
            scan_probe(&view, &[10, 20]),
            owned.query_sequence([10u64, 20])
        );
        assert_eq!(scan_probe(&view, &[]), owned.query_sequence([]));
    }

    #[test]
    fn view_precomputed_matches_sequence_path() {
        // The mask fold and the merge fold (a universe wider than a mask)
        // both answer as the owned sequence query does.
        let narrow = sample();
        let mut wide = WeightedBloomFilter::new(FilterParams::new(8192, 3).unwrap(), 5);
        for v in 0..80u64 {
            wide.insert(v * 7, Weight::new(v + 1, 100).unwrap());
            wide.insert(v * 7 + 1, Weight::new(v + 1, 100).unwrap());
        }
        for (wbf, masked) in [(narrow, true), (wide, false)] {
            let view = view_wbf(encode_wbf(&wbf).unwrap()).unwrap();
            let masks = matches!(view.fold.entries, probe::FoldEntries::Masks(_));
            assert_eq!(masks, masked);
            for keys in [vec![10u64], vec![10, 20], vec![10, 999], vec![7, 8], vec![]] {
                assert_eq!(
                    scan_probe(&view, &keys),
                    wbf.query_sequence(keys.iter().copied()),
                    "keys {keys:?}"
                );
            }
        }
    }

    #[test]
    fn view_rejects_what_owned_rejects() {
        let frame = encode_wbf(&sample()).unwrap();
        for cut in 0..frame.len() {
            let slice = frame.slice(0..cut);
            let owned = crate::encode::decode_wbf(slice.clone());
            let viewed = view_wbf(slice);
            assert!(viewed.is_err(), "cut {cut} viewed");
            assert_eq!(
                format!("{}", owned.unwrap_err()),
                format!("{}", viewed.unwrap_err()),
                "error mismatch at cut {cut}"
            );
        }
        let mut trailing = frame.to_vec();
        trailing.push(0xAB);
        assert!(view_wbf(Bytes::from(trailing)).is_err());
    }

    #[test]
    fn unreferenced_set_table_entries_do_not_leak_into_the_universe() {
        // A table entry no bit names is refused outright, so the universe
        // a view reads off its dictionary is the owned decode's.
        let wbf = sample();
        let frame = encode_wbf(&wbf).unwrap();
        let owned = crate::encode::decode_wbf(frame.clone()).unwrap();
        let view = view_wbf(frame.clone()).unwrap();
        assert_eq!(view.weight_universe(), owned.weight_universe());
        // Declare one more entry, the first dictionary weight alone, just
        // before the id width byte: no set bit names it.
        let ones = wbf.bits().count_ones();
        let width_at = frame.len() - ones - 1;
        let count_at = 32 + 4096 / 8 + 4 + 16 * wbf.weight_universe().len();
        let mut raw = frame.to_vec();
        let count = u32::from_le_bytes(raw[count_at..count_at + 4].try_into().unwrap());
        raw[count_at..count_at + 4].copy_from_slice(&(count + 1).to_le_bytes());
        raw.splice(width_at..width_at, [1, 0, 0, 0]);
        let err = view_wbf(Bytes::from(raw.clone())).unwrap_err();
        assert_eq!(
            crate::encode::decode_wbf(Bytes::from(raw)).unwrap_err(),
            err
        );
    }
}
