//! A fixed-length bit array backing both filter variants.
//!
//! Implemented from scratch (no external bit-vector dependency) on `u64`
//! words, with a running ones counter so fill-ratio queries are O(1). The
//! words live in cache-line-aligned storage ([`AlignedWords`]) and the
//! multi-probe membership tests dispatch through the process-wide
//! [`Kernel`](crate::Kernel) so batched probes run vectorized where the
//! host supports it.

use std::fmt;

use crate::error::{CoreError, Result};
use crate::kernel::{AlignedWords, Kernel};

/// Probe batch size flushed through the kernel in one call: large enough
/// that any single key's probes (≤ [`MAX_HASHES`](crate::MAX_HASHES)) fit
/// in one batch on the stack.
const PROBE_BATCH: usize = 64;

/// A fixed-length array of bits.
///
/// # Examples
///
/// ```
/// use dipm_core::BitSet;
///
/// let mut bits = BitSet::new(128);
/// assert!(bits.set(7));      // newly set
/// assert!(!bits.set(7));     // already set
/// assert!(bits.get(7));
/// assert_eq!(bits.count_ones(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BitSet {
    words: AlignedWords,
    len: usize,
    ones: usize,
}

impl BitSet {
    /// Creates a bit set of `len` bits, all zero.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero; filters always have at least one bit.
    pub fn new(len: usize) -> BitSet {
        assert!(len > 0, "bit set length must be non-zero");
        BitSet {
            words: AlignedWords::zeroed(len.div_ceil(64)),
            len,
            ones: 0,
        }
    }

    /// Reconstructs a bit set from raw words (used by the wire decoder).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Decode`] if the word count does not match `len`
    /// or if bits beyond `len` are set in the final word.
    pub fn from_words(words: Vec<u64>, len: usize) -> Result<BitSet> {
        if len == 0 || words.len() != len.div_ceil(64) {
            return Err(CoreError::decode("bit set word count mismatch"));
        }
        let tail_bits = len % 64;
        if tail_bits != 0 {
            let mask = !0u64 << tail_bits;
            if words[words.len() - 1] & mask != 0 {
                return Err(CoreError::decode("bits set beyond declared length"));
            }
        }
        let ones = words.iter().map(|w| w.count_ones() as usize).sum();
        Ok(BitSet {
            words: AlignedWords::from_words(&words),
            len,
            ones,
        })
    }

    /// The number of bits in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set has length zero. Always `false` for constructed sets;
    /// provided for API completeness alongside [`BitSet::len`].
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The number of bits currently set to one.
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    /// The fraction of bits set to one, in `[0, 1]`.
    pub fn fill_ratio(&self) -> f64 {
        self.ones as f64 / self.len as f64
    }

    /// Sets the bit at `index`, returning `true` if it was previously zero.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn set(&mut self, index: usize) -> bool {
        assert!(index < self.len, "bit index {index} out of range");
        let (word, mask) = (index / 64, 1u64 << (index % 64));
        let words = self.words.as_mut_slice();
        let newly = words[word] & mask == 0;
        words[word] |= mask;
        if newly {
            self.ones += 1;
        }
        newly
    }

    /// Clears the bit at `index`, returning `true` if it was previously one.
    ///
    /// Applied deltas use this to retire positions whose last weight
    /// left; plain build paths never unset bits.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn unset(&mut self, index: usize) -> bool {
        assert!(index < self.len, "bit index {index} out of range");
        let (word, mask) = (index / 64, 1u64 << (index % 64));
        let words = self.words.as_mut_slice();
        let was = words[word] & mask != 0;
        words[word] &= !mask;
        if was {
            self.ones -= 1;
        }
        was
    }

    /// Sets the bit at every index of `indices` and counts the ones once at
    /// the end: the bulk form of [`BitSet::set`], for builds that never ask
    /// whether a bit was new.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub(crate) fn set_all(&mut self, indices: impl IntoIterator<Item = usize>) {
        let words = self.words.as_mut_slice();
        for index in indices {
            assert!(index < self.len, "bit index {index} out of range");
            words[index / 64] |= 1u64 << (index % 64);
        }
        self.ones = words.iter().map(|w| w.count_ones() as usize).sum();
    }

    /// Reads the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn get(&self, index: usize) -> bool {
        assert!(index < self.len, "bit index {index} out of range");
        self.words.as_slice()[index / 64] & (1u64 << (index % 64)) != 0
    }

    /// Clears every bit.
    pub fn clear(&mut self) {
        self.words.as_mut_slice().fill(0);
        self.ones = 0;
    }

    /// Bitwise-ORs `other` into `self`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::IncompatibleFilters`] if the lengths differ.
    pub fn union_with(&mut self, other: &BitSet) -> Result<()> {
        if self.len != other.len {
            return Err(CoreError::IncompatibleFilters);
        }
        let words = self.words.as_mut_slice();
        for (a, b) in words.iter_mut().zip(other.words.as_slice()) {
            *a |= b;
        }
        self.ones = words.iter().map(|w| w.count_ones() as usize).sum();
        Ok(())
    }

    /// Bitwise-ANDs `other` into `self`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::IncompatibleFilters`] if the lengths differ.
    pub fn intersect_with(&mut self, other: &BitSet) -> Result<()> {
        if self.len != other.len {
            return Err(CoreError::IncompatibleFilters);
        }
        let words = self.words.as_mut_slice();
        for (a, b) in words.iter_mut().zip(other.words.as_slice()) {
            *a &= b;
        }
        self.ones = words.iter().map(|w| w.count_ones() as usize).sum();
        Ok(())
    }

    /// Tests whether *every* probed bit is set, working at word level: probe
    /// masks landing in the same word are merged into one load and groups
    /// are flushed through the active probe [`Kernel`] in SIMD-width
    /// batches. This is the hot-path membership pre-test that lets a filter
    /// miss return before any weight table is touched.
    ///
    /// Indices must be in range (`debug_assert`ed); the probe sequences
    /// produced by [`HashFamily::probes`](crate::HashFamily::probes) over
    /// this set's length always are.
    pub fn contains_probes<I>(&self, probes: I) -> bool
    where
        I: IntoIterator<Item = usize>,
    {
        let words = self.words.as_slice();
        let kernel = Kernel::active();
        let mut idx = [0u32; PROBE_BATCH];
        let mut masks = [0u64; PROBE_BATCH];
        let mut pending = 0usize;
        let mut last_word = usize::MAX;
        for index in probes {
            debug_assert!(index < self.len, "bit index {index} out of range");
            let (word, mask) = (index / 64, 1u64 << (index % 64));
            if word == last_word && pending > 0 {
                masks[pending - 1] |= mask;
            } else {
                if pending == PROBE_BATCH {
                    if !kernel.all_set(words, &idx, &masks) {
                        return false;
                    }
                    pending = 0;
                }
                idx[pending] = word as u32;
                masks[pending] = mask;
                pending += 1;
                last_word = word;
            }
        }
        pending == 0 || kernel.all_set(words, &idx[..pending], &masks[..pending])
    }

    /// Tests whether every probed bit behind precomputed parallel word/mask
    /// arrays is set, in one pass through the active probe [`Kernel`] — the
    /// batched form of [`BitSet::contains_probes`] for scans that hash a
    /// row's probes once and replay the merged masks against many filters
    /// sharing one geometry
    /// ([`PrecomputedProbes`](crate::PrecomputedProbes) produces exactly
    /// this layout).
    ///
    /// `words` and `masks` must have equal length; word indices must be in
    /// range for this set's backing words (out-of-range indices panic like
    /// slice indexing).
    pub fn contains_probes_simd(&self, words: &[u32], masks: &[u64]) -> bool {
        Kernel::active().all_set(self.words.as_slice(), words, masks)
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> Ones<'_> {
        Ones {
            bits: self,
            word_idx: 0,
            current: self.words.as_slice().first().copied().unwrap_or(0),
        }
    }

    /// The raw backing words (little-endian bit order within each word).
    pub fn as_words(&self) -> &[u64] {
        self.words.as_slice()
    }

    /// The number of bytes needed to transmit the raw bit payload.
    pub fn byte_len(&self) -> usize {
        self.words.len() * 8
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BitSet")
            .field("len", &self.len)
            .field("ones", &self.ones)
            .finish()
    }
}

/// Iterator over set-bit indices, created by [`BitSet::iter_ones`].
#[derive(Debug, Clone)]
pub struct Ones<'a> {
    bits: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let words = self.bits.words.as_slice();
        loop {
            if self.current != 0 {
                let tz = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + tz);
            }
            self.word_idx += 1;
            if self.word_idx >= words.len() {
                return None;
            }
            self.current = words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_all_zero() {
        let bits = BitSet::new(100);
        assert_eq!(bits.len(), 100);
        assert_eq!(bits.count_ones(), 0);
        assert!((0..100).all(|i| !bits.get(i)));
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut bits = BitSet::new(70);
        for i in [0, 1, 63, 64, 69] {
            assert!(bits.set(i));
            assert!(bits.get(i));
        }
        assert_eq!(bits.count_ones(), 5);
        assert!(!bits.get(2));
    }

    #[test]
    fn set_reports_newness_once() {
        let mut bits = BitSet::new(8);
        assert!(bits.set(3));
        assert!(!bits.set(3));
        assert_eq!(bits.count_ones(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitSet::new(8).get(8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        BitSet::new(8).set(8);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_length_panics() {
        BitSet::new(0);
    }

    #[test]
    fn fill_ratio_tracks_ones() {
        let mut bits = BitSet::new(10);
        bits.set(0);
        bits.set(5);
        assert!((bits.fill_ratio() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn clear_resets_everything() {
        let mut bits = BitSet::new(65);
        bits.set(64);
        bits.clear();
        assert_eq!(bits.count_ones(), 0);
        assert!(!bits.get(64));
    }

    #[test]
    fn iter_ones_is_sorted_and_complete() {
        let mut bits = BitSet::new(200);
        let idx = [0usize, 3, 63, 64, 65, 127, 128, 199];
        for &i in &idx {
            bits.set(i);
        }
        let collected: Vec<usize> = bits.iter_ones().collect();
        assert_eq!(collected, idx);
    }

    #[test]
    fn contains_probes_matches_per_bit_gets() {
        let mut bits = BitSet::new(300);
        for i in [0usize, 5, 63, 64, 70, 128, 299] {
            bits.set(i);
        }
        // Exhaustive small cases, including same-word repeats and duplicates.
        let cases: Vec<Vec<usize>> = vec![
            vec![],
            vec![0],
            vec![1],
            vec![0, 5],       // same word, both set
            vec![0, 1],       // same word, one clear
            vec![63, 64],     // adjacent words
            vec![0, 64, 128], // one per word
            vec![0, 0, 5, 5], // duplicates
            vec![299, 0, 70], // unordered
            vec![299, 298],
        ];
        for probes in cases {
            let expected = probes.iter().all(|&i| bits.get(i));
            assert_eq!(
                bits.contains_probes(probes.iter().copied()),
                expected,
                "probes {probes:?}"
            );
        }
    }

    #[test]
    fn contains_probes_simd_matches_contains_probes() {
        let mut bits = BitSet::new(1 << 10);
        for i in 0..1 << 10 {
            if crate::hash::mix64(i as u64) & 3 == 0 {
                bits.set(i);
            }
        }
        let family = crate::hash::HashFamily::new(8, 5);
        for key in 0..200u64 {
            let mut words = Vec::new();
            let mut masks: Vec<u64> = Vec::new();
            for bit in family.probes(key, bits.len()) {
                let (w, m) = ((bit / 64) as u32, 1u64 << (bit % 64));
                match words.last() {
                    Some(&last) if last == w => *masks.last_mut().unwrap() |= m,
                    _ => {
                        words.push(w);
                        masks.push(m);
                    }
                }
            }
            assert_eq!(
                bits.contains_probes_simd(&words, &masks),
                bits.contains_probes(family.probes(key, bits.len())),
                "key {key}"
            );
        }
        assert!(bits.contains_probes_simd(&[], &[]));
    }

    #[test]
    fn probe_batches_larger_than_the_flush_size_still_short_circuit() {
        // More distinct words than one kernel batch (64) forces the
        // mid-iteration flush path in contains_probes.
        let mut bits = BitSet::new(65 * 64);
        for w in 0..65 {
            bits.set(w * 64);
        }
        let all: Vec<usize> = (0..65).map(|w| w * 64).collect();
        assert!(bits.contains_probes(all.iter().copied()));
        let mut one_clear = all.clone();
        one_clear[10] += 1; // bit never set
        assert!(!bits.contains_probes(one_clear.into_iter()));
        // A cleared bit past the first flush must also fail.
        let mut late_clear = all;
        late_clear[64] += 1;
        assert!(!bits.contains_probes(late_clear.into_iter()));
    }

    #[test]
    fn backing_words_are_cache_line_aligned() {
        let bits = BitSet::new(1 << 12);
        assert_eq!(bits.as_words().as_ptr() as usize % 64, 0);
    }

    #[test]
    fn union_and_intersect() {
        let mut a = BitSet::new(16);
        let mut b = BitSet::new(16);
        a.set(1);
        a.set(2);
        b.set(2);
        b.set(3);

        let mut u = a.clone();
        u.union_with(&b).unwrap();
        assert_eq!(u.iter_ones().collect::<Vec<_>>(), vec![1, 2, 3]);

        a.intersect_with(&b).unwrap();
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn union_length_mismatch_is_error() {
        let mut a = BitSet::new(16);
        let b = BitSet::new(17);
        assert_eq!(a.union_with(&b), Err(CoreError::IncompatibleFilters));
    }

    #[test]
    fn from_words_validates_tail() {
        // length 65 → 2 words; bit 65 (index 1 of word 1) is out of range.
        let bad = BitSet::from_words(vec![0, 0b10], 65);
        assert!(bad.is_err());
        let good = BitSet::from_words(vec![0, 0b1], 65).unwrap();
        assert_eq!(good.count_ones(), 1);
        assert!(good.get(64));
    }

    #[test]
    fn from_words_rejects_wrong_count() {
        assert!(BitSet::from_words(vec![0; 3], 65).is_err());
        assert!(BitSet::from_words(vec![], 0).is_err());
    }

    #[test]
    fn debug_is_nonempty() {
        let bits = BitSet::new(8);
        assert!(!format!("{bits:?}").is_empty());
    }
}
