//! Robustness: decoders must never panic on malformed input — every mutated
//! or truncated buffer either fails cleanly or yields a structurally valid
//! filter. Weighted frames are fuzzed at both per-bit set-id widths, and
//! every mutated frame that still decodes re-encodes to itself: a decoder
//! accepts exactly the encoder's image.

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

/// A filter whose set table holds exactly `sets` entries: one hash
/// function, and the `n`-th key to land on a fresh bit (counting from 1)
/// carries the weights named by `n`'s binary digits, so every set bit
/// holds a distinct weight set.
fn filter_with_sets(sets: usize) -> WeightedBloomFilter {
    let params = FilterParams::new(1 << 12, 1).expect("valid");
    let mut wbf = WeightedBloomFilter::new(params, 5);
    let digits: Vec<Weight> = (0..usize::BITS - sets.leading_zeros())
        .map(|d| Weight::new(1, u64::from(d) + 2).expect("valid"))
        .collect();
    let (mut n, mut key) = (0usize, 0u64);
    while n < sets {
        if !wbf.contains(key) {
            n += 1;
            for (d, &weight) in digits.iter().enumerate() {
                if n >> d & 1 == 1 {
                    wbf.insert(key, weight);
                }
            }
        }
        key += 1;
    }
    wbf
}

/// Rewrites `sample_wbf`'s frame with its set table padded to `table`
/// entries by one-weight entries no bit names, and its per-bit ids
/// re-encoded at the width a table that size once took (2 bytes past 256
/// entries, 4 past 65,536). Decoders now refuse such frames.
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

/// A weighted frame at 1- and at 2-byte set ids — `sample_wbf`'s, and a
/// real 257-set filter's — built once, each with the offset of its id-width
/// byte (the id region runs from there to the end).
fn frames_at_every_width() -> &'static [(Bytes, usize); 2] {
    static FRAMES: OnceLock<[(Bytes, usize); 2]> = OnceLock::new();
    FRAMES.get_or_init(|| {
        [(sample_wbf(), 1), (filter_with_sets(257), 2)].map(|(wbf, width)| {
            let frame = encode::encode_wbf(&wbf).expect("encodable");
            assert_eq!(encode::decode_wbf(frame.clone()).expect("decodes"), wbf);
            let tail = frame.len() - 1 - wbf.bits().count_ones() * width;
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

// Padding a set table reached the wide ids without tens of thousands of
// set bits, but the padding is itself non-canonical: duplicate entries no
// bit names, or a table past the 65,536-entry cap. Both decoders refuse
// the padded frames with the same message.
#[test]
fn padded_set_tables_are_rejected_alike_by_owned_and_view_decode() {
    for (table, message) in [
        (257, "duplicate weight set table entry"),
        (65_537, "weight set table too large"),
    ] {
        let frame = padded_sample_frame(table);
        let owned = encode::decode_wbf(frame.clone()).expect_err("padded frame decoded");
        assert_eq!(
            encode::view_wbf(frame).expect_err("padded frame viewed"),
            owned
        );
        assert!(owned.to_string().contains(message), "{table}: {owned}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_wbf_payload_never_panics(
        width in 0usize..2,
        flips in vec((any::<prop::sample::Index>(), any::<u8>()), 1..8),
        tail_flips in vec((any::<prop::sample::Index>(), any::<u8>()), 0..4),
    ) {
        let (frame, tail) = &frames_at_every_width()[width];
        let mut raw = frame.to_vec();
        for (index, value) in flips {
            let i = index.index(raw.len());
            raw[i] ^= value;
        }
        // The width byte and id region are a sliver of the frame, so some
        // flips aim there.
        for (index, value) in tail_flips {
            let i = tail + index.index(raw.len() - tail);
            raw[i] ^= value;
        }
        // Must not panic; any Ok result is a structurally valid filter that
        // can answer queries, and is the filter the bytes encode.
        let raw = Bytes::from(raw);
        if let Ok(filter) = encode::decode_wbf(raw.clone()) {
            let _ = filter.query_sequence([12345]);
            prop_assert_eq!(encode::encode_wbf(&filter).expect("re-encodes"), raw);
        }
    }

    #[test]
    fn truncated_wbf_payload_never_panics(
        width in 0usize..2,
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
        let raw = Bytes::from(raw);
        if let Ok(filter) = encode::decode_bloom(raw.clone()) {
            let _ = filter.contains(12345);
            prop_assert_eq!(encode::encode_bloom(&filter), raw);
        }
    }

    #[test]
    fn random_bytes_never_decode_to_panic(raw in vec(any::<u8>(), 0..300)) {
        let bytes = Bytes::from(raw);
        let _ = encode::decode_wbf(bytes.clone());
        let _ = encode::decode_bloom(bytes);
    }
}
