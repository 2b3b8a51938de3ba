//! Zero-copy weighted-filter frame view: probe a broadcast straight out of
//! the received bytes.
//!
//! The owned decoder ([`decode_wbf`](crate::encode::decode_wbf)) copies a
//! weight set out to every set bit — the right shape for mutation (delta
//! application, checkpoints), but pure overhead for a base station that
//! only wants to *probe* the broadcast. [`WbfFrameView`] keeps the frame's
//! per-bit set-id region as a borrowed slice of the receive buffer:
//! validation runs once at parse time, then each occupied probe finds its
//! weight set by rank — a prefix-popcount over the bit array gives the
//! probe's ordinal among set bits, which indexes the id region directly.
//! The owned decoder is this view converted (`WeightedBloomFilter::from`),
//! so both accept and reject exactly the same frames.
//!
//! Queries answer bit-identically to the owned filter decoded from the same
//! frame; the scan conformance suite pins that equivalence across every
//! execution mode.

use std::sync::OnceLock;

use bytes::Bytes;

use crate::bitset::BitSet;
use crate::error::{CoreError, Result};
use crate::hash::{HashFamily, Probes};
use crate::probe::{self, ProbeTable, QueryScratch};
use crate::wbf::WeightedBloomFilter;
use crate::weight_set::WeightSet;

/// A validated, read-only view of an encoded weighted Bloom filter frame.
///
/// Holds the decoded bit array, hash family and interned weight-set table,
/// but keeps the per-bit set-id region as a zero-copy slice of the received
/// bytes (`Bytes` is reference-counted, so the view shares the receive
/// buffer instead of re-materializing thousands of per-bit entries). All
/// query entry points mirror
/// [`WeightedBloomFilter`](crate::WeightedBloomFilter) and return the exact
/// same answers the owned decode of the same frame would.
///
/// Created by [`encode::view_wbf`](crate::encode::view_wbf).
#[derive(Debug, Clone)]
pub struct WbfFrameView {
    bits: BitSet,
    /// Exclusive prefix popcount per word: `rank[w]` = set bits before word
    /// `w`, turning "which ordinal among set bits is this probe" into one
    /// table load plus one masked popcount.
    rank: Vec<u32>,
    sets: Vec<WeightSet>,
    /// The frame's per-bit set-id region: one little-endian id of
    /// `id_width` bytes per set bit, in ascending bit order, borrowed from
    /// the receive buffer.
    ids: Bytes,
    /// Bytes per set id: 1, 2 or 4, the narrowest that indexes `sets`.
    id_width: usize,
    family: HashFamily,
    inserted: u64,
    universe: OnceLock<WeightSet>,
}

/// Parses and validates a weighted frame into a view: every set bit has a
/// set id inside the set table, and nothing trails the id region.
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
    let (table, mut in_table) = (body.sets.len(), true);
    for_each_id(&data, body.id_width, |id| in_table &= id < table);
    if !in_table {
        return Err(CoreError::decode("set id outside set table"));
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
        sets: body.sets,
        family: body.family,
        inserted: body.inserted,
        universe: OnceLock::new(),
    })
}

/// Calls `f` on every id of a set-id region of `width`-byte ids, in order.
/// The width is matched once per pass, not once per id, so each arm is a
/// plain fixed-stride loop.
#[inline]
fn for_each_id(ids: &[u8], width: usize, mut f: impl FnMut(usize)) {
    match width {
        1 => ids.iter().for_each(|&id| f(usize::from(id))),
        2 => ids
            .chunks_exact(2)
            .for_each(|id| f(usize::from(u16::from_le_bytes([id[0], id[1]])))),
        _ => ids
            .chunks_exact(4)
            .for_each(|id| f(u32::from_le_bytes([id[0], id[1], id[2], id[3]]) as usize)),
    }
}

impl WbfFrameView {
    /// The weight set attached at `bit`, or `None` if the bit is clear.
    fn set_at_bit(&self, bit: usize) -> Option<&WeightSet> {
        let word = self.bits.as_words()[bit / 64];
        let mask = 1u64 << (bit % 64);
        if word & mask == 0 {
            return None;
        }
        let ord = self.rank[bit / 64] as usize + (word & (mask - 1)).count_ones() as usize;
        let (ids, at) = (&self.ids[..], ord * self.id_width);
        let id = match self.id_width {
            1 => usize::from(ids[at]),
            2 => usize::from(u16::from_le_bytes([ids[at], ids[at + 1]])),
            _ => u32::from_le_bytes([ids[at], ids[at + 1], ids[at + 2], ids[at + 3]]) as usize,
        };
        Some(&self.sets[id])
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

    /// Queries a sequence of keys; see
    /// [`WeightedBloomFilter::query_sequence`]. Allocates the result — the
    /// scan hot path uses [`WbfFrameView::query_sequence_into`].
    pub fn query_sequence<I>(&self, keys: I) -> Option<WeightSet>
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: Clone,
    {
        let mut scratch = QueryScratch::new();
        self.query_sequence_into(keys, &mut scratch).cloned()
    }

    /// Allocation-free sequence query; see
    /// [`WeightedBloomFilter::query_sequence_into`].
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

    /// Sequence query over a probe set hashed once; see
    /// [`WeightedBloomFilter::query_precomputed`].
    pub fn query_precomputed<'s>(
        &'s self,
        pre: &probe::PrecomputedProbes,
        scratch: &'s mut QueryScratch,
    ) -> Option<&'s WeightSet> {
        if pre.is_empty() || !self.bits.contains_probes_simd(pre.words(), pre.mask_bits()) {
            return None;
        }
        probe::fold_positions(self, pre.indices(), scratch)
    }

    /// The weight fold alone, for probes already known occupied; see
    /// [`WeightedBloomFilter::fold_weights_precomputed`].
    ///
    /// # Panics
    ///
    /// May panic if any precomputed probe index is unoccupied — run the
    /// membership test first.
    pub fn fold_weights_precomputed<'s>(
        &'s self,
        pre: &probe::PrecomputedProbes,
        scratch: &'s mut QueryScratch,
    ) -> Option<&'s WeightSet> {
        probe::fold_positions(self, pre.indices(), scratch)
    }

    /// The sorted set of every distinct weight attached at some set bit —
    /// see [`WeightedBloomFilter::weight_universe`]. Computed once per view
    /// and cached.
    ///
    /// Only *referenced* set-table entries contribute: a hostile frame may
    /// carry table entries no bit points at, and the owned decoder's
    /// universe (built from the exploded per-bit table) would not see them
    /// either.
    pub fn weight_universe(&self) -> &WeightSet {
        self.universe.get_or_init(|| {
            let mut seen = vec![false; self.sets.len()];
            for_each_id(&self.ids, self.id_width, |id| seen[id] = true);
            let mut all = WeightSet::new();
            for (set, used) in self.sets.iter().zip(&seen) {
                if *used {
                    all.union_with(set);
                }
            }
            all
        })
    }
}

impl ProbeTable for WbfFrameView {
    fn geometry(&self) -> (&HashFamily, usize) {
        (&self.family, self.bits.len())
    }

    fn occupied(&self, probes: Probes) -> bool {
        self.bits.contains_probes(probes)
    }

    fn set_at(&self, idx: usize) -> Option<&WeightSet> {
        self.set_at_bit(idx)
    }
}

/// Materializes the owned, mutable filter a streaming station applies
/// deltas to: each set bit takes its own copy of its interned weight set.
impl From<WbfFrameView> for WeightedBloomFilter {
    fn from(view: WbfFrameView) -> WeightedBloomFilter {
        let mut sets = Vec::with_capacity(view.ids.len() / view.id_width);
        for_each_id(&view.ids, view.id_width, |id| {
            sets.push(view.sets[id].clone())
        });
        WeightedBloomFilter::from_parts(view.bits, view.family, view.inserted, sets)
    }
}

/// Semantic equality with an owned filter: same geometry, same bit array,
/// same insert count and the same weight set at every set bit — i.e. the
/// two answer every query identically. Used by round-trip tests comparing
/// a view against the filter the frame was encoded from.
impl PartialEq<WeightedBloomFilter> for WbfFrameView {
    fn eq(&self, other: &WeightedBloomFilter) -> bool {
        self.family.hashes() == other.hashes()
            && self.family.seed() == other.seed()
            && self.inserted == other.inserted()
            && &self.bits == other.bits()
            && self
                .bits
                .iter_ones()
                .all(|bit| self.set_at_bit(bit) == ProbeTable::set_at(other, bit))
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
        let mut vs = QueryScratch::new();
        let mut os = QueryScratch::new();
        for v in [10u64, 20, 30, 40, 50, 999, 0, u64::MAX] {
            assert_eq!(view.contains(v), owned.contains(v));
            assert_eq!(
                view.query_sequence_into([v], &mut vs),
                owned.query_sequence_into([v], &mut os),
                "key {v}"
            );
        }
        assert_eq!(
            view.query_sequence_into([10u64, 20], &mut vs),
            owned.query_sequence_into([10u64, 20], &mut os)
        );
        assert_eq!(
            view.query_sequence_into([] as [u64; 0], &mut vs),
            owned.query_sequence_into([] as [u64; 0], &mut os)
        );
    }

    #[test]
    fn view_precomputed_matches_sequence_path() {
        let wbf = sample();
        let view = view_wbf(encode_wbf(&wbf).unwrap()).unwrap();
        let mut pre = probe::PrecomputedProbes::new();
        let mut a = QueryScratch::new();
        let mut b = QueryScratch::new();
        for keys in [vec![10u64], vec![10, 20], vec![10, 999], vec![]] {
            pre.compute(
                &HashFamily::new(view.hashes(), view.seed()),
                view.bit_len(),
                &keys,
            );
            assert_eq!(
                view.query_precomputed(&pre, &mut a).cloned(),
                view.query_sequence_into(keys.iter().copied(), &mut b)
                    .cloned(),
                "keys {keys:?}"
            );
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
        // Owned decode drops table entries no bit references; the view's
        // cached universe must agree.
        let wbf = sample();
        let frame = encode_wbf(&wbf).unwrap();
        let owned = crate::encode::decode_wbf(frame.clone()).unwrap();
        let view = view_wbf(frame).unwrap();
        assert_eq!(view.weight_universe(), owned.weight_universe());
    }
}
