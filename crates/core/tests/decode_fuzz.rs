//! Robustness: decoders must never panic on malformed input — every mutated
//! or truncated buffer either fails cleanly or yields a structurally valid
//! filter. Weighted frames are fuzzed at every per-bit set-id width.

use std::sync::OnceLock;

use bytes::Bytes;
use dipm_core::{encode, BloomFilter, FilterParams, Weight, WeightedBloomFilter};
use proptest::collection::vec;
use proptest::prelude::*;

fn sample_wbf() -> WeightedBloomFilter {
    let params = FilterParams::new(2048, 3).expect("valid");
    let mut wbf = WeightedBloomFilter::new(params, 11);
    for i in 0..40u64 {
        wbf.insert(i * 131, Weight::new(i % 9 + 1, 10).expect("valid"));
    }
    wbf
}

/// Rewrites `sample_wbf`'s frame with its set table padded to `table`
/// entries by unreferenced one-weight entries, and its per-bit ids
/// re-encoded at the width a table that size takes (2 bytes past 256
/// entries, 4 past 65,536). The encoder only writes referenced sets, so
/// padding reaches the wide ids without tens of thousands of set bits.
fn padded_sample_frame(table: usize) -> Bytes {
    let frame = encode::encode_wbf(&sample_wbf()).expect("encodable");
    let u32_at = |at: usize| u32::from_le_bytes(frame[at..at + 4].try_into().unwrap()) as usize;
    let dict_at = 32 + 2048 / 8;
    let count_at = dict_at + 4 + 16 * u32_at(dict_at);
    let entries = u32_at(count_at);
    let mut end = count_at + 4;
    for _ in 0..entries {
        end += 2 + 2 * usize::from(u16::from_le_bytes([frame[end], frame[end + 1]]));
    }
    assert_eq!(frame[end], 1, "the sample's own table takes 1-byte ids");
    let width = if table <= 1 << 16 { 2 } else { 4 };
    let mut out = frame[..count_at].to_vec();
    out.extend_from_slice(&(table as u32).to_le_bytes());
    out.extend_from_slice(&frame[count_at + 4..end]);
    for _ in entries..table {
        // { len 1, dictionary index 0 }
        out.extend_from_slice(&[1, 0, 0, 0]);
    }
    out.push(width as u8);
    for &id in &frame[end + 1..] {
        out.extend_from_slice(&u32::from(id).to_le_bytes()[..width]);
    }
    Bytes::from(out)
}

/// `sample_wbf`'s frame at 1-, 2- and 4-byte set ids, built once, each
/// with the offset of its id-width byte (the id region runs from there to
/// the end).
fn frames_at_every_width() -> &'static [(Bytes, usize); 3] {
    static FRAMES: OnceLock<[(Bytes, usize); 3]> = OnceLock::new();
    FRAMES.get_or_init(|| {
        let ones = sample_wbf().bits().count_ones();
        let frames = [
            (encode::encode_wbf(&sample_wbf()).expect("encodable"), 1),
            (padded_sample_frame(257), 2),
            (padded_sample_frame(65_537), 4),
        ];
        frames.map(|(frame, width)| {
            assert_eq!(
                encode::decode_wbf(frame.clone()).expect("padded frames decode"),
                sample_wbf()
            );
            let tail = frame.len() - 1 - ones * width;
            assert_eq!(usize::from(frame[tail]), width);
            (frame, tail)
        })
    })
}

fn sample_bloom() -> BloomFilter {
    let params = FilterParams::new(2048, 3).expect("valid");
    let mut bf = BloomFilter::new(params, 11);
    for i in 0..40u64 {
        bf.insert(i * 131);
    }
    bf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_wbf_payload_never_panics(
        width in 0usize..3,
        flips in vec((any::<prop::sample::Index>(), any::<u8>()), 1..8),
        tail_flips in vec((any::<prop::sample::Index>(), any::<u8>()), 0..4),
    ) {
        let (frame, tail) = &frames_at_every_width()[width];
        let mut raw = frame.to_vec();
        for (index, value) in flips {
            let i = index.index(raw.len());
            raw[i] ^= value;
        }
        // The width byte and id region are a sliver of a padded frame, so
        // some flips aim there.
        for (index, value) in tail_flips {
            let i = tail + index.index(raw.len() - tail);
            raw[i] ^= value;
        }
        // Must not panic; any Ok result is a structurally valid filter that
        // can answer queries.
        if let Ok(filter) = encode::decode_wbf(Bytes::from(raw)) {
            let _ = filter.query(12345);
        }
    }

    #[test]
    fn truncated_wbf_payload_never_panics(
        width in 0usize..3,
        cut in any::<prop::sample::Index>(),
        in_tail in any::<bool>(),
    ) {
        let (raw, tail) = &frames_at_every_width()[width];
        let cut = if in_tail {
            tail + cut.index(raw.len() - tail)
        } else {
            cut.index(raw.len())
        };
        prop_assume!(cut < raw.len());
        prop_assert!(encode::decode_wbf(raw.slice(0..cut)).is_err());
    }

    #[test]
    fn mutated_bloom_payload_never_panics(
        flips in vec((any::<prop::sample::Index>(), any::<u8>()), 1..8)
    ) {
        let mut raw = encode::encode_bloom(&sample_bloom()).to_vec();
        for (index, value) in flips {
            let i = index.index(raw.len());
            raw[i] ^= value;
        }
        if let Ok(filter) = encode::decode_bloom(Bytes::from(raw)) {
            let _ = filter.contains(12345);
        }
    }

    #[test]
    fn random_bytes_never_decode_to_panic(raw in vec(any::<u8>(), 0..300)) {
        let bytes = Bytes::from(raw);
        let _ = encode::decode_wbf(bytes.clone());
        let _ = encode::decode_bloom(bytes);
    }
}
