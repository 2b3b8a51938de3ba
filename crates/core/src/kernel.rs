//! Word-level probe kernel: runtime-dispatched SIMD batch membership tests
//! and the cache-line-aligned word storage that backs [`crate::BitSet`].
//!
//! A Bloom-family probe reduces to "are all of these (word, mask) pairs
//! fully set?". The scan hot path asks that question millions of times per
//! second, so this module answers it 2–4 pairs per instruction where the
//! host allows:
//!
//! * **avx2** — gathers four words per step and compares four masks at once,
//! * **sse2** — packs two words per step (baseline on every x86_64),
//! * **scalar** — portable u64-chunked fallback, four pairs per loop with a
//!   single OR-combined verdict so the compiler can keep them in registers.
//!
//! The variant is picked **once per process** by [`Kernel::active`] and can
//! be forced down to the portable path with `DIPM_FORCE_SCALAR=1` — the
//! equivalence tests and CI's fallback arm rely on that override. Every
//! variant computes the exact same predicate; the SIMD entry points
//! re-verify CPU support and slice bounds before touching an intrinsic, so
//! even a deliberately mismatched [`Kernel`] value degrades to the scalar
//! path instead of undefined behaviour.
//!
//! This is the only module in the crate allowed to use `unsafe` (the crate
//! root carries `#![deny(unsafe_code)]`): the intrinsic calls and the
//! aligned-storage slice casts live here and nowhere else.
#![allow(unsafe_code)]

use std::sync::OnceLock;

/// One 64-byte cache line of filter words.
///
/// `repr(C, align(64))` makes the array exactly one cache line with no
/// padding, so a `Vec<CacheLine>` is a contiguous, 64-byte-aligned `[u64]`
/// region — gathers never straddle lines unnecessarily and the hot filter
/// words start on a line boundary.
#[derive(Clone)]
#[repr(C, align(64))]
struct CacheLine([u64; 8]);

const WORDS_PER_LINE: usize = 8;

/// Cache-line-aligned `u64` storage for filter words.
///
/// Behaves like a fixed-length `Vec<u64>` whose backing allocation is
/// 64-byte aligned. The probe kernel reads it through [`Self::as_slice`];
/// equality, hashing and debugging all see exactly the logical words.
pub struct AlignedWords {
    lines: Vec<CacheLine>,
    len: usize,
}

impl AlignedWords {
    /// `len` zeroed words.
    pub fn zeroed(len: usize) -> AlignedWords {
        let lines = len.div_ceil(WORDS_PER_LINE);
        AlignedWords {
            lines: vec![CacheLine([0; WORDS_PER_LINE]); lines],
            len,
        }
    }

    /// Copies `words` into aligned storage.
    pub fn from_words(words: &[u64]) -> AlignedWords {
        let mut aligned = AlignedWords::zeroed(words.len());
        aligned.as_mut_slice().copy_from_slice(words);
        aligned
    }

    /// The number of logical words.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no words at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The words as a contiguous slice.
    pub fn as_slice(&self) -> &[u64] {
        // SAFETY: `CacheLine` is `repr(C, align(64))` around `[u64; 8]` —
        // size 64, no padding — so the `Vec<CacheLine>` buffer is a
        // contiguous `[u64]` region of `lines.len() * 8` elements, of which
        // the first `self.len` are the logical words (`len <= lines * 8` by
        // construction). The pointer cast only lowers the alignment
        // requirement.
        unsafe { std::slice::from_raw_parts(self.lines.as_ptr().cast::<u64>(), self.len) }
    }

    /// The words as a mutable contiguous slice.
    pub fn as_mut_slice(&mut self) -> &mut [u64] {
        // SAFETY: as in `as_slice`; the mutable borrow of `self` guarantees
        // exclusive access to the buffer.
        unsafe { std::slice::from_raw_parts_mut(self.lines.as_mut_ptr().cast::<u64>(), self.len) }
    }
}

impl Clone for AlignedWords {
    fn clone(&self) -> AlignedWords {
        AlignedWords {
            lines: self.lines.clone(),
            len: self.len,
        }
    }
}

impl PartialEq for AlignedWords {
    fn eq(&self, other: &AlignedWords) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for AlignedWords {}

impl std::hash::Hash for AlignedWords {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for AlignedWords {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// The probe-kernel variant in effect.
///
/// [`Kernel::active`] picks the widest supported variant once per process;
/// individual variants stay callable so equivalence tests can pit them
/// against each other inside a single process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// 256-bit gather + compare, four (word, mask) pairs per step.
    Avx2,
    /// 128-bit packed compare, two pairs per step (x86_64 baseline).
    Sse2,
    /// Portable u64 fallback, four pairs per unrolled loop.
    Scalar,
}

static ACTIVE: OnceLock<Kernel> = OnceLock::new();

/// Batch length below which every variant routes to the scalar loop: at
/// fewer pairs than this the per-call SIMD setup (bounds pre-scan, gather
/// latency) costs more than it saves, measured on the scan microbench's
/// per-key membership tests.
const SIMD_MIN_PAIRS: usize = 16;

fn detect() -> Kernel {
    if std::env::var_os("DIPM_FORCE_SCALAR").is_some_and(|v| v == "1") {
        return Kernel::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Kernel::Avx2;
        }
        if std::arch::is_x86_feature_detected!("sse2") {
            return Kernel::Sse2;
        }
    }
    Kernel::Scalar
}

impl Kernel {
    /// The variant every probe in this process dispatches to, selected once
    /// (widest supported, or [`Kernel::Scalar`] when `DIPM_FORCE_SCALAR=1`).
    pub fn active() -> Kernel {
        *ACTIVE.get_or_init(detect)
    }

    /// The variant's wire-stable name (`"avx2"` / `"sse2"` / `"scalar"`),
    /// recorded in benchmark metadata so regression checks compare
    /// like-for-like.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Avx2 => "avx2",
            Kernel::Sse2 => "sse2",
            Kernel::Scalar => "scalar",
        }
    }

    /// Whether `words[idx[i]] & masks[i] == masks[i]` holds for every `i` —
    /// the batched "all probed bits set" membership test.
    ///
    /// `idx` and `masks` must be the same length. Out-of-range indices take
    /// the scalar path and panic exactly like safe slice indexing would.
    pub fn all_set(self, words: &[u64], idx: &[u32], masks: &[u64]) -> bool {
        debug_assert_eq!(idx.len(), masks.len());
        let n = idx.len().min(masks.len());
        let (idx, masks) = (&idx[..n], &masks[..n]);
        // Tiny runs cannot amortize the gather setup or the bounds
        // pre-scan; the scalar loop with its first-miss short-circuit wins
        // outright. A row query tests one key at a time, and a key at the
        // default 1 % target has k = 7 probes, so the station scan stays
        // here; the routing descent's 20-probe summary keys go vector.
        if n < SIMD_MIN_PAIRS {
            return all_set_scalar(words, idx, masks);
        }
        #[cfg(target_arch = "x86_64")]
        {
            if self != Kernel::Scalar && idx.iter().all(|&w| (w as usize) < words.len()) {
                match self {
                    Kernel::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
                        // SAFETY: avx2 is supported (checked above) and every
                        // index is in bounds for `words`.
                        return unsafe { all_set_avx2(words, idx, masks) };
                    }
                    Kernel::Sse2 if std::arch::is_x86_feature_detected!("sse2") => {
                        // SAFETY: sse2 is supported (checked above) and every
                        // index is in bounds for `words`.
                        return unsafe { all_set_sse2(words, idx, masks) };
                    }
                    _ => {}
                }
            }
        }
        all_set_scalar(words, idx, masks)
    }
}

/// Portable kernel: four pairs per iteration with one OR-combined verdict,
/// so a conforming batch runs branch-free through the unrolled body.
fn all_set_scalar(words: &[u64], idx: &[u32], masks: &[u64]) -> bool {
    let n = idx.len();
    let mut i = 0;
    while i + 4 <= n {
        let a = (words[idx[i] as usize] & masks[i]) ^ masks[i];
        let b = (words[idx[i + 1] as usize] & masks[i + 1]) ^ masks[i + 1];
        let c = (words[idx[i + 2] as usize] & masks[i + 2]) ^ masks[i + 2];
        let d = (words[idx[i + 3] as usize] & masks[i + 3]) ^ masks[i + 3];
        if a | b | c | d != 0 {
            return false;
        }
        i += 4;
    }
    while i < n {
        let m = masks[i];
        if words[idx[i] as usize] & m != m {
            return false;
        }
        i += 1;
    }
    true
}

/// AVX2 kernel: gather four words by index, AND with four masks, compare
/// for 64-bit equality in one shot.
///
/// # Safety
///
/// Requires avx2; every `idx` entry must be in bounds for `words`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn all_set_avx2(words: &[u64], idx: &[u32], masks: &[u64]) -> bool {
    use std::arch::x86_64::*;
    let n = idx.len();
    let base = words.as_ptr().cast::<i64>();
    let mut i = 0;
    while i + 4 <= n {
        // Word indices are < 2^26 (MAX_BITS / 64), so they are positive as
        // i32 gather offsets; scale 8 converts to byte offsets.
        let vidx = _mm_loadu_si128(idx.as_ptr().add(i).cast());
        let gathered = _mm256_i32gather_epi64::<8>(base, vidx);
        let vmask = _mm256_loadu_si256(masks.as_ptr().add(i).cast());
        let eq = _mm256_cmpeq_epi64(_mm256_and_si256(gathered, vmask), vmask);
        if _mm256_movemask_epi8(eq) != -1 {
            return false;
        }
        i += 4;
    }
    while i < n {
        let m = *masks.get_unchecked(i);
        if *words.get_unchecked(*idx.get_unchecked(i) as usize) & m != m {
            return false;
        }
        i += 1;
    }
    true
}

/// SSE2 kernel: two (word, mask) pairs per 128-bit compare. SSE2 has no
/// 64-bit equality compare, but a 32-bit compare whose mask is all-ones is
/// equivalent: both halves of each word must match.
///
/// # Safety
///
/// Requires sse2; every `idx` entry must be in bounds for `words`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn all_set_sse2(words: &[u64], idx: &[u32], masks: &[u64]) -> bool {
    use std::arch::x86_64::*;
    let n = idx.len();
    let mut i = 0;
    while i + 2 <= n {
        let w0 = *words.get_unchecked(*idx.get_unchecked(i) as usize);
        let w1 = *words.get_unchecked(*idx.get_unchecked(i + 1) as usize);
        let vw = _mm_set_epi64x(w1 as i64, w0 as i64);
        let vmask = _mm_loadu_si128(masks.as_ptr().add(i).cast());
        let eq = _mm_cmpeq_epi32(_mm_and_si128(vw, vmask), vmask);
        if _mm_movemask_epi8(eq) != 0xFFFF {
            return false;
        }
        i += 2;
    }
    if i < n {
        let m = *masks.get_unchecked(i);
        if *words.get_unchecked(*idx.get_unchecked(i) as usize) & m != m {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_words() -> Vec<u64> {
        (0..64u64).map(|i| crate::hash::mix64(i ^ 0xD1F7)).collect()
    }

    fn variants() -> Vec<Kernel> {
        vec![Kernel::Avx2, Kernel::Sse2, Kernel::Scalar]
    }

    #[test]
    fn aligned_words_round_trip_and_alignment() {
        let src: Vec<u64> = (0..37).map(|i| i * 0x9E37).collect();
        let aligned = AlignedWords::from_words(&src);
        assert_eq!(aligned.as_slice(), &src[..]);
        assert_eq!(aligned.len(), 37);
        assert!(!aligned.is_empty());
        assert_eq!(aligned.as_slice().as_ptr() as usize % 64, 0);
        let empty = AlignedWords::zeroed(0);
        assert!(empty.is_empty());
        assert_eq!(empty.as_slice(), &[] as &[u64]);
    }

    #[test]
    fn aligned_words_equality_ignores_line_padding() {
        // 9 words occupy two lines; the second line's tail is padding.
        let a = AlignedWords::from_words(&[1u64; 9]);
        let mut b = AlignedWords::zeroed(9);
        b.as_mut_slice().fill(1);
        assert_eq!(a, b);
        assert_eq!(a.clone(), a);
        assert_ne!(a, AlignedWords::from_words(&[1u64; 8]));
    }

    #[test]
    fn every_variant_computes_the_same_predicate() {
        let words = sample_words();
        // Exhaustive small cases (these exercise the short-run scalar
        // route), plus lengths past SIMD_MIN_PAIRS covering every SIMD
        // batch-length remainder.
        for len in (0..=9usize).chain(SIMD_MIN_PAIRS..SIMD_MIN_PAIRS + 9) {
            for trial in 0..50u64 {
                let mut idx = Vec::new();
                let mut masks = Vec::new();
                for j in 0..len {
                    let h = crate::hash::mix64(trial * 131 + j as u64);
                    idx.push((h % words.len() as u64) as u32);
                    // Bias towards masks that pass so both outcomes occur.
                    let word = words[*idx.last().unwrap() as usize];
                    masks.push(if h & 1 == 0 { word & (h >> 8) } else { h >> 8 });
                }
                let expected = idx
                    .iter()
                    .zip(&masks)
                    .all(|(&w, &m)| words[w as usize] & m == m);
                for kernel in variants() {
                    assert_eq!(
                        kernel.all_set(&words, &idx, &masks),
                        expected,
                        "{} diverged on len {len} trial {trial}",
                        kernel.name()
                    );
                }
            }
        }
    }

    #[test]
    fn empty_batch_is_vacuously_true() {
        for kernel in variants() {
            assert!(kernel.all_set(&sample_words(), &[], &[]));
        }
    }

    #[test]
    fn zero_mask_always_passes() {
        let words = vec![0u64; 8];
        for kernel in variants() {
            assert!(kernel.all_set(&words, &[0, 7, 3, 5, 1], &[0; 5]));
        }
    }

    #[test]
    fn active_is_stable_and_named() {
        let a = Kernel::active();
        assert_eq!(a, Kernel::active());
        assert!(["avx2", "sse2", "scalar"].contains(&a.name()));
        if std::env::var_os("DIPM_FORCE_SCALAR").is_some_and(|v| v == "1") {
            assert_eq!(a, Kernel::Scalar);
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn out_of_range_index_panics_like_slice_indexing() {
        let words = vec![u64::MAX; 4];
        // Even the widest kernel must not gather out of bounds: the entry
        // point routes this batch to the scalar path, which panics exactly
        // like `words[idx]` would.
        Kernel::active().all_set(&words, &[0, 99], &[1, 1]);
    }
}
