//! Robustness: the data center must survive arbitrary bytes arriving as
//! station reports or broadcasts — decode cleanly or reject, never panic —
//! and the batch frames must reject structural lies (duplicate query ids,
//! shard-count mismatches, impossible counts) without over-allocating.

use bytes::Bytes;
use dipm_core::{Weight, WeightDiff, WeightSet};
use dipm_protocol::{wire, HashScheme};
use dipm_timeseries::ToleranceMode;
use proptest::collection::vec;
use proptest::prelude::*;

/// A random, non-empty, disjoint weight diff derived from a seed.
fn weight_diff(seed: u64) -> WeightDiff {
    let mut removed = WeightSet::new();
    let mut added = WeightSet::new();
    for i in 0..(seed % 3 + 1) {
        let weight = Weight::new(seed % 7 + i + 1, 9).unwrap();
        if (seed + i) % 2 == 0 {
            removed.insert(weight);
        } else {
            added.insert(weight);
        }
    }
    if removed.is_empty() && added.is_empty() {
        added.insert(Weight::ONE);
    }
    WeightDiff { removed, added }
}

/// Builds a structurally valid delta from arbitrary position/diff seeds:
/// ascending positions over a table of distinct diffs in first-seen order.
fn delta_from(seeds: &[(u32, u64)]) -> wire::FilterDelta {
    let mut seeds = seeds.to_vec();
    seeds.sort_by_key(|&(pos, _)| pos);
    seeds.dedup_by_key(|&mut (pos, _)| pos);
    let mut delta = wire::FilterDelta::default();
    for (pos, seed) in seeds {
        let diff = weight_diff(seed);
        let id = delta
            .diffs
            .iter()
            .position(|d| *d == diff)
            .unwrap_or_else(|| {
                delta.diffs.push(diff);
                delta.diffs.len() - 1
            });
        delta.entries.push((pos, id as u32));
    }
    delta
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_never_panic_any_decoder(raw in vec(any::<u8>(), 0..400)) {
        let bytes = Bytes::from(raw);
        let _ = wire::decode_station_data(bytes.clone());
        let _ = wire::decode_filter_broadcast(bytes.clone());
        let _ = wire::view_filter_broadcast(bytes.clone());
        let _ = wire::view_bloom_section(bytes.clone());
        let _ = wire::decode_batch_broadcast(bytes.clone());
        let _ = wire::decode_tagged_weight_reports(bytes.clone());
        let _ = wire::decode_tagged_id_reports(bytes.clone());
        for shards in [0u32, 1, 4] {
            let _ = wire::decode_batch_reports(bytes.clone(), shards);
        }
    }

    #[test]
    fn huge_declared_counts_are_rejected_not_allocated(count in 1_000u32..u32::MAX) {
        // A malicious station declares a huge entry count with a tiny body;
        // the decoders must reject on length, not trust the count.
        let mut raw = count.to_le_bytes().to_vec();
        raw.extend_from_slice(&[0u8; 16]);
        let bytes = Bytes::from(raw);
        prop_assert!(wire::decode_tagged_weight_reports(bytes.clone()).is_err());
        prop_assert!(wire::decode_tagged_id_reports(bytes.clone()).is_err());
        // Station data and batch frames validate per-entry, so they error
        // once the body runs dry.
        prop_assert!(wire::decode_station_data(bytes.clone()).is_err());
        prop_assert!(wire::decode_batch_broadcast(bytes).is_err());
    }

    #[test]
    fn batch_broadcast_roundtrips(sections in vec(vec(any::<u8>(), 0..40), 0..10)) {
        let tagged: Vec<(u32, Bytes)> = sections
            .into_iter()
            .enumerate()
            .map(|(i, body)| (i as u32, Bytes::from(body)))
            .collect();
        let framed = wire::encode_batch_broadcast(&tagged).unwrap();
        prop_assert_eq!(wire::decode_batch_broadcast(framed).unwrap(), tagged);
    }

    #[test]
    fn truncated_batch_broadcasts_error_never_panic(
        sections in vec(vec(any::<u8>(), 0..40), 1..6),
        cut_permille in 0usize..1000,
    ) {
        let tagged: Vec<(u32, Bytes)> = sections
            .into_iter()
            .enumerate()
            .map(|(i, body)| (i as u32, Bytes::from(body)))
            .collect();
        let framed = wire::encode_batch_broadcast(&tagged).unwrap();
        let cut = framed.len() * cut_permille / 1000;
        prop_assume!(cut < framed.len());
        // Any strict prefix is missing bytes somewhere: decoding must fail
        // cleanly (it may fail on the header or on a section body).
        prop_assert!(wire::decode_batch_broadcast(framed.slice(0..cut)).is_err());
    }

    #[test]
    fn duplicate_query_ids_are_rejected(
        id in any::<u32>(),
        body_a in vec(any::<u8>(), 0..20),
        body_b in vec(any::<u8>(), 0..20),
    ) {
        let sections = [(id, Bytes::from(body_a)), (id, Bytes::from(body_b))];
        prop_assert!(wire::encode_batch_broadcast(&sections).is_err());
        // The same frame written by hand is rejected on arrival.
        let mut raw = 2u32.to_le_bytes().to_vec();
        for (query, body) in &sections {
            raw.extend_from_slice(&query.to_le_bytes());
            raw.extend_from_slice(&(body.len() as u32).to_le_bytes());
            raw.extend_from_slice(body);
        }
        prop_assert!(wire::decode_batch_broadcast(Bytes::from(raw)).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected_by_every_decoder(
        entries in vec((any::<u32>(), any::<u64>()), 0..12),
        garbage in vec(any::<u8>(), 1..8),
        epoch in any::<u64>(),
        totals in vec(any::<u64>(), 0..4),
    ) {
        // Helper: a valid frame plus junk must error, never pass silently.
        fn with_trailing(valid: &Bytes, garbage: &[u8]) -> Bytes {
            let mut raw = valid.to_vec();
            raw.extend_from_slice(garbage);
            Bytes::from(raw)
        }
        let users: Vec<dipm_mobilenet::UserId> = entries
            .iter()
            .map(|&(q, u)| dipm_mobilenet::UserId(u ^ u64::from(q)))
            .collect();
        let tagged_ids: Vec<(u32, dipm_mobilenet::UserId)> =
            entries.iter().map(|&(q, u)| (q, dipm_mobilenet::UserId(u))).collect();
        let tagged_weights: Vec<(u32, dipm_mobilenet::UserId, Weight)> = entries
            .iter()
            .map(|&(q, u)| (q, dipm_mobilenet::UserId(u), Weight::new(u % 5 + 1, 7).unwrap()))
            .collect();
        let pattern = dipm_timeseries::Pattern::from([1u64, 2, 3]);
        let station_data: Vec<(dipm_mobilenet::UserId, &dipm_timeseries::Pattern)> =
            users.iter().map(|&u| (u, &pattern)).collect();
        let sections: Vec<(u32, Bytes)> = entries
            .iter()
            .enumerate()
            .map(|(i, _)| (i as u32, Bytes::from_static(b"SEC")))
            .collect();
        let delta = delta_from(&entries);
        let frames: Vec<Bytes> = vec![
            wire::encode_tagged_weight_reports(&tagged_weights).unwrap(),
            wire::encode_tagged_id_reports(&tagged_ids).unwrap(),
            wire::encode_station_data(station_data).unwrap(),
            wire::encode_batch_broadcast(&sections).unwrap(),
            wire::encode_station_update(&wire::StationUpdate::Delta {
                epoch,
                query_totals: totals.clone(),
                delta,
            })
            .unwrap(),
        ];
        let decoders: Vec<fn(Bytes) -> bool> = vec![
            |b| wire::decode_tagged_weight_reports(b).is_err(),
            |b| wire::decode_tagged_id_reports(b).is_err(),
            |b| wire::decode_station_data(b).is_err(),
            |b| wire::decode_batch_broadcast(b).is_err(),
            |b| wire::decode_station_update(b).is_err(),
        ];
        for (frame, rejects) in frames.iter().zip(&decoders) {
            prop_assert!(
                rejects(with_trailing(frame, &garbage)),
                "trailing bytes passed a decoder silently"
            );
        }
    }

    #[test]
    fn station_updates_roundtrip(
        entries in vec((any::<u32>(), any::<u64>()), 0..16),
        epoch in any::<u64>(),
        totals in vec(any::<u64>(), 0..5),
        filter_body in vec(any::<u8>(), 0..40),
    ) {
        let delta = delta_from(&entries);
        let update = wire::StationUpdate::Delta {
            epoch,
            query_totals: totals.clone(),
            delta,
        };
        let encoded = wire::encode_station_update(&update).unwrap();
        prop_assert_eq!(wire::decode_station_update(encoded).unwrap(), update);
        // Full updates treat the filter bytes as the rest-of-buffer field.
        let full = wire::StationUpdate::Full {
            epoch,
            query_totals: totals,
            filter: Bytes::from(filter_body),
        };
        let encoded = wire::encode_station_update(&full).unwrap();
        prop_assert_eq!(wire::decode_station_update(encoded).unwrap(), full);
    }

    #[test]
    fn random_bytes_never_panic_station_update_decoder(raw in vec(any::<u8>(), 0..300)) {
        let _ = wire::decode_station_update(Bytes::from(raw));
    }

    #[test]
    fn truncated_station_updates_error_never_panic(
        entries in vec((any::<u32>(), any::<u64>()), 1..10),
        cut_permille in 0usize..1000,
    ) {
        let update = wire::StationUpdate::Delta {
            epoch: 3,
            query_totals: vec![10, 20],
            delta: delta_from(&entries),
        };
        let encoded = wire::encode_station_update(&update).unwrap();
        let cut = encoded.len() * cut_permille / 1000;
        prop_assume!(cut < encoded.len());
        prop_assert!(wire::decode_station_update(encoded.slice(0..cut)).is_err());
    }

    #[test]
    fn disordered_delta_positions_are_unencodable(
        entries in vec((any::<u32>(), any::<u64>()), 2..10),
    ) {
        // Positions travel as varint gaps, so disorder cannot even be
        // framed: the encoder rejects it outright.
        let mut delta = delta_from(&entries);
        prop_assume!(delta.entries.len() >= 2);
        delta.entries.swap(0, 1);
        let update = wire::StationUpdate::Delta {
            epoch: 0,
            query_totals: vec![],
            delta,
        };
        prop_assert!(wire::encode_station_update(&update).is_err());
    }

    #[test]
    fn shard_count_mismatches_are_rejected(
        declared in 0u32..64,
        expected in 0u32..64,
        station in 0u32..100,
        tick in 0u64..1_000_000,
        payload in vec(any::<u8>(), 0..60),
    ) {
        let framed = wire::encode_batch_reports(declared, station, tick, Bytes::from(payload.clone()));
        let decoded = wire::decode_batch_reports(framed, expected);
        if declared == expected {
            let frame = decoded.unwrap();
            prop_assert_eq!(frame.station, station);
            prop_assert_eq!(frame.sent_tick, tick);
            prop_assert_eq!(frame.payload.as_ref(), payload.as_slice());
        } else {
            prop_assert!(decoded.is_err());
        }
    }

    #[test]
    fn truncated_report_frames_error_never_panic(
        station in 0u32..16,
        tick in 0u64..1_000_000,
        payload in vec(any::<u8>(), 0..60),
        cut in 0usize..16,
    ) {
        // Cutting anywhere inside the 16-byte latency-stamped header must
        // error cleanly; the payload itself is opaque at this layer.
        let framed = wire::encode_batch_reports(4, station, tick, Bytes::from(payload));
        prop_assert!(wire::decode_batch_reports(framed.slice(0..cut), 4).is_err());
    }

    #[test]
    fn duplicate_station_reports_never_double_count(
        station in 0u32..8,
        tick in 0u64..1_000,
        payload in vec(any::<u8>(), 0..40),
    ) {
        let mut collector = wire::ReportCollector::new(2, 8);
        let frame = wire::encode_batch_reports(2, station, tick, Bytes::from(payload));
        prop_assert!(collector.accept(frame.clone(), tick + 5).is_ok());
        // A retransmit of the same station's frame — identical or with a
        // fresher tick — must be rejected, so its rows can't be counted
        // twice at the center.
        prop_assert!(collector.accept(frame.clone(), tick + 5).is_err());
        prop_assert!(collector
            .accept(wire::encode_batch_reports(2, station, tick + 1, Bytes::new()), tick + 6)
            .is_err());
        prop_assert_eq!(collector.accepted(), 1);
    }

    #[test]
    fn out_of_order_report_arrivals_are_rejected(
        first in 1u64..1_000_000,
        regression in 1u64..1_000,
        payload in vec(any::<u8>(), 0..40),
    ) {
        // The center admits frames in modeled delivery order, so a frame
        // delivered at an older tick than its predecessor is a corrupted
        // queue, not in-flight reordering.
        let older = first.saturating_sub(regression);
        prop_assume!(older < first);
        let mut collector = wire::ReportCollector::new(1, 4);
        prop_assert!(collector
            .accept(wire::encode_batch_reports(1, 0, older, Bytes::from(payload)), first)
            .is_ok());
        prop_assert!(collector
            .accept(wire::encode_batch_reports(1, 1, older, Bytes::new()), older)
            .is_err());
        // Equal delivery ticks are fine (zero-latency models stamp 0), and
        // a *send*-tick regression across stations is legal.
        let mut flat = wire::ReportCollector::new(1, 4);
        prop_assert!(flat
            .accept(wire::encode_batch_reports(1, 0, older, Bytes::new()), first)
            .is_ok());
        prop_assert!(flat
            .accept(wire::encode_batch_reports(1, 1, 0, Bytes::new()), first)
            .is_ok());
    }

    #[test]
    fn time_traveling_reports_are_rejected(
        sent in 1u64..1_000_000,
        shortfall in 1u64..1_000,
    ) {
        // A frame claiming to be sent after its own delivery is corrupt.
        let delivered = sent.saturating_sub(shortfall);
        prop_assume!(delivered < sent);
        let mut collector = wire::ReportCollector::new(1, 2);
        prop_assert!(collector
            .accept(wire::encode_batch_reports(1, 0, sent, Bytes::new()), delivered)
            .is_err());
        prop_assert_eq!(collector.accepted(), 0);
        // Instantaneous delivery (sent == delivered) is legal.
        prop_assert!(collector
            .accept(wire::encode_batch_reports(1, 0, sent, Bytes::new()), sent)
            .is_ok());
    }

    #[test]
    fn collector_survives_random_bytes(
        raw in vec(any::<u8>(), 0..100),
        delivered in 0u64..1_000,
    ) {
        let mut collector = wire::ReportCollector::new(3, 5);
        // Arbitrary bytes must decode cleanly or error — never panic, and
        // never count as an accepted station report unless actually valid.
        let before = collector.accepted();
        if collector.accept(Bytes::from(raw), delivered).is_err() {
            prop_assert_eq!(collector.accepted(), before);
        }
    }
}

/// The owned WBF broadcast decode path, with its error rendered to a
/// string so rejection *messages* can be compared against the view path.
fn owned_wbf_decode(bytes: Bytes) -> std::result::Result<(), String> {
    let (_totals, filter_bytes) =
        wire::decode_filter_broadcast(bytes).map_err(|e| e.to_string())?;
    dipm_core::encode::decode_wbf(filter_bytes)
        .map(|_| ())
        .map_err(|e| dipm_protocol::ProtocolError::from(e).to_string())
}

/// The zero-copy view decode path, same error rendering.
fn view_wbf_decode(bytes: Bytes) -> std::result::Result<(), String> {
    wire::view_filter_broadcast(bytes)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The zero-copy view decoder must accept exactly the frames the owned
    // decoder accepts and reject exactly what it rejects — with identical
    // error messages — across truncation at every offset, trailing bytes,
    // and hostile declared counts. A frame the view would admit but the
    // owned path refuses (or vice versa) would let stations disagree about
    // a broadcast's validity.
    #[test]
    fn view_and_owned_wbf_broadcast_decode_agree_on_every_mutation(
        inserts in vec((any::<u64>(), 1u64..6), 1..24),
        totals in vec(any::<u64>(), 0..4),
        garbage in vec(any::<u8>(), 1..8),
        huge in 1_000u32..u32::MAX,
    ) {
        let params = dipm_core::FilterParams::new(1 << 10, 4).unwrap();
        let mut wbf = dipm_core::WeightedBloomFilter::new(params, 7);
        for &(key, den) in &inserts {
            wbf.insert(key, Weight::new(1, den).unwrap());
        }
        let frame = wire::encode_filter_broadcast(
            &totals,
            dipm_core::encode::encode_wbf(&wbf).unwrap(),
        )
        .unwrap();

        // The intact frame: both paths accept.
        prop_assert_eq!(owned_wbf_decode(frame.clone()), Ok(()));
        prop_assert_eq!(view_wbf_decode(frame.clone()), Ok(()));

        // Every strict prefix: both paths reject, with the same message.
        for cut in 0..frame.len() {
            let truncated = frame.slice(0..cut);
            let owned = owned_wbf_decode(truncated.clone());
            let view = view_wbf_decode(truncated);
            prop_assert!(owned.is_err(), "owned path accepted a {cut}-byte prefix");
            prop_assert_eq!(&view, &owned, "rejection mismatch at cut {}", cut);
        }

        // Trailing garbage after the filter payload: same rejection.
        let mut raw = frame.to_vec();
        raw.extend_from_slice(&garbage);
        let trailing = Bytes::from(raw);
        let owned = owned_wbf_decode(trailing.clone());
        prop_assert!(owned.is_err(), "owned path accepted trailing bytes");
        prop_assert_eq!(view_wbf_decode(trailing), owned);

        // A hostile declared count with a tiny body: both reject on length
        // (neither may trust the count into an allocation).
        let mut raw = huge.to_le_bytes().to_vec();
        raw.extend_from_slice(&[0u8; 16]);
        let hostile = Bytes::from(raw);
        let owned = owned_wbf_decode(hostile.clone());
        prop_assert!(owned.is_err(), "owned path accepted a hostile count");
        prop_assert_eq!(view_wbf_decode(hostile), owned);
    }
}

/// The per-bit set-id width a set table of `entries` entries takes; past
/// 65,536 entries, the 4 bytes such a table could once declare.
fn id_width(entries: usize) -> usize {
    if entries <= 1 << 8 {
        1
    } else if entries <= 1 << 16 {
        2
    } else {
        4
    }
}

/// Locates the set table of a `bit_len`-bit filter's weighted frame: the
/// offset of its entry count, the count, and the offset of the id-width
/// byte that follows its last entry.
fn set_table(frame: &[u8], bit_len: usize) -> (usize, usize, usize) {
    let u32_at = |at: usize| u32::from_le_bytes(frame[at..at + 4].try_into().unwrap()) as usize;
    let dict_at = 32 + bit_len.div_ceil(64) * 8;
    let count_at = dict_at + 4 + 16 * u32_at(dict_at);
    let entries = u32_at(count_at);
    let mut end = count_at + 4;
    for _ in 0..entries {
        end += 2 + 2 * usize::from(u16::from_le_bytes([frame[end], frame[end + 1]]));
    }
    (count_at, entries, end)
}

/// A filter whose set table holds exactly `sets` entries, built as
/// `encode.rs` builds its width cases: one hash function, and the `n`-th
/// key to land on a fresh bit (counting from 1) carries the weights named
/// by `n`'s binary digits, so every set bit holds a distinct weight set.
fn filter_with_sets(sets: usize) -> dipm_core::WeightedBloomFilter {
    let params = dipm_core::FilterParams::new(1 << 12, 1).unwrap();
    let mut wbf = dipm_core::WeightedBloomFilter::new(params, 5);
    let digits: Vec<Weight> = (0..usize::BITS - sets.leading_zeros())
        .map(|d| Weight::new(1, u64::from(d) + 2).unwrap())
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

/// An 8-key filter whose set bits share a handful of two-weight sets.
fn small_filter() -> dipm_core::WeightedBloomFilter {
    let params = dipm_core::FilterParams::new(1 << 10, 2).unwrap();
    let mut wbf = dipm_core::WeightedBloomFilter::new(params, 7);
    for key in 0..8u64 {
        wbf.insert(key * 7919, Weight::new(1, key % 3 + 1).unwrap());
        wbf.insert(key * 7919, Weight::new(2, key % 5 + 3).unwrap());
    }
    wbf
}

/// A filter broadcast at one set-id width.
struct WidthCase {
    frame: Vec<u8>,
    width: usize,
    /// Entries in the frame's set table.
    table: usize,
    /// Offset of the per-bit id region; the width byte sits just before.
    region: usize,
}

/// One filter broadcast per set-id width: a small filter's frame (width 1)
/// and a real 257-set filter's (width 2).
fn broadcasts_at_every_width() -> Vec<WidthCase> {
    [small_filter(), filter_with_sets(257)]
        .into_iter()
        .map(|wbf| {
            let filter = dipm_core::encode::encode_wbf(&wbf).unwrap();
            let (_, table, _) = set_table(&filter, wbf.bit_len());
            let broadcast = wire::encode_filter_broadcast(&[5, 9], filter).unwrap();
            let width = id_width(table);
            assert_eq!(width, 1 + usize::from(table == 257), "{table} sets");
            WidthCase {
                region: broadcast.len() - wbf.bits().count_ones() * width,
                frame: broadcast.to_vec(),
                width,
                table,
            }
        })
        .collect()
}

/// Both WBF broadcast decoders on one frame: the owned path must reject
/// it, and the view path with the same message.
fn assert_rejected_alike(raw: &[u8], what: &str) -> String {
    let owned = owned_wbf_decode(Bytes::from(raw.to_vec()));
    let view = view_wbf_decode(Bytes::from(raw.to_vec()));
    let err = owned.clone().expect_err(what);
    assert_eq!(view, owned, "{what}");
    err
}

// The id width byte is fixed by the set table's size: a frame carries
// exactly one encoding, so any other byte — a wider valid width included —
// is a decode error on both paths.
#[test]
fn every_other_id_width_byte_is_rejected_alike_at_every_width() {
    for case in broadcasts_at_every_width() {
        let mut raw = case.frame.clone();
        assert_eq!(usize::from(raw[case.region - 1]), case.width);
        for byte in (0..=u8::MAX).filter(|&b| usize::from(b) != case.width) {
            raw[case.region - 1] = byte;
            let err = assert_rejected_alike(&raw, &format!("width byte {byte}"));
            assert!(err.contains("set id width"), "{err}");
        }
    }
}

#[test]
fn ids_at_or_past_the_set_table_are_rejected_alike_at_every_width() {
    for case in broadcasts_at_every_width() {
        let ids = (case.frame.len() - case.region) / case.width;
        let widest = u64::MAX >> (64 - 8 * case.width);
        for ord in [0, ids / 2, ids - 1] {
            for id in [case.table as u64, widest] {
                let mut raw = case.frame.clone();
                let at = case.region + ord * case.width;
                raw[at..at + case.width].copy_from_slice(&id.to_le_bytes()[..case.width]);
                let what = format!("id {id} at ordinal {ord}, width {}", case.width);
                let err = assert_rejected_alike(&raw, &what);
                assert!(err.contains("set id outside set table"), "{err}");
            }
        }
    }
}

#[test]
fn truncation_in_the_id_region_is_rejected_alike_at_every_width() {
    for case in broadcasts_at_every_width() {
        assert_eq!(owned_wbf_decode(Bytes::from(case.frame.clone())), Ok(()));
        assert_eq!(view_wbf_decode(Bytes::from(case.frame.clone())), Ok(()));
        for cut in case.region - 1..case.frame.len() {
            let what = format!("cut at {cut}, width {}", case.width);
            assert_rejected_alike(&case.frame[..cut], &what);
        }
    }
}

/// A weighted frame split into the parts the canonical-form rules govern,
/// so a test can break one rule and reassemble the rest as encoded.
#[derive(Clone)]
struct FrameParts {
    /// Header and bit words, verbatim.
    head: Vec<u8>,
    /// Dictionary weights as written: `(numerator, denominator)`.
    dict: Vec<(u64, u64)>,
    /// Set-table entries as dictionary-id lists.
    sets: Vec<Vec<u16>>,
    /// One set id per set bit, in bit order.
    ids: Vec<usize>,
}

impl FrameParts {
    fn split(frame: &[u8], bit_len: usize) -> FrameParts {
        let u64_at = |at: usize| u64::from_le_bytes(frame[at..at + 8].try_into().unwrap());
        let u16_at = |at: usize| u16::from_le_bytes([frame[at], frame[at + 1]]);
        let dict_at = 32 + bit_len.div_ceil(64) * 8;
        let (count_at, entries, end) = set_table(frame, bit_len);
        let dict = (dict_at + 4..count_at)
            .step_by(16)
            .map(|at| (u64_at(at), u64_at(at + 8)))
            .collect();
        let mut sets = Vec::new();
        let mut at = count_at + 4;
        for _ in 0..entries {
            let len = usize::from(u16_at(at));
            sets.push((0..len).map(|i| u16_at(at + 2 + 2 * i)).collect());
            at += 2 + 2 * len;
        }
        let width = usize::from(frame[end]);
        let ids = frame[end + 1..]
            .chunks_exact(width)
            .map(|id| id.iter().rev().fold(0, |v, &b| v << 8 | usize::from(b)))
            .collect();
        FrameParts {
            head: frame[..dict_at].to_vec(),
            dict,
            sets,
            ids,
        }
    }

    /// The frame as a filter broadcast, its ids at the width its table
    /// takes.
    fn broadcast(&self) -> Vec<u8> {
        let mut out = self.head.clone();
        out.extend_from_slice(&(self.dict.len() as u32).to_le_bytes());
        for &(num, den) in &self.dict {
            out.extend_from_slice(&num.to_le_bytes());
            out.extend_from_slice(&den.to_le_bytes());
        }
        out.extend_from_slice(&(self.sets.len() as u32).to_le_bytes());
        for set in &self.sets {
            out.extend_from_slice(&(set.len() as u16).to_le_bytes());
            set.iter()
                .for_each(|id| out.extend_from_slice(&id.to_le_bytes()));
        }
        let width = id_width(self.sets.len());
        out.push(width as u8);
        for &id in &self.ids {
            out.extend_from_slice(&id.to_le_bytes()[..width]);
        }
        wire::encode_filter_broadcast(&[5, 9], Bytes::from(out))
            .unwrap()
            .to_vec()
    }
}

// Decoders accept exactly the encoder's image. Each case below breaks one
// canonical-form rule of a real frame and leaves the rest as encoded; the
// owned and the view decoder refuse it with the same message, one message
// per rule.
#[test]
fn non_canonical_set_tables_and_dictionaries_are_rejected_alike() {
    let wbf = small_filter();
    let frame = dipm_core::encode::encode_wbf(&wbf).unwrap();
    let parts = FrameParts::split(&frame, wbf.bit_len());
    assert_eq!(parts.broadcast(), {
        let broadcast = wire::encode_filter_broadcast(&[5, 9], frame.clone()).unwrap();
        broadcast.to_vec()
    });
    assert!(parts.sets.len() >= 2 && parts.dict.len() >= 2);
    // The last bit re-pointed at an appended copy of its own entry, which
    // other bits keep naming.
    let with_duplicate = |parts: &FrameParts| {
        let last = *parts.ids.last().unwrap();
        assert!(parts.ids.iter().filter(|&&id| id == last).count() > 1);
        let mut duplicate = parts.clone();
        duplicate.sets.push(parts.sets[last].clone());
        *duplicate.ids.last_mut().unwrap() = parts.sets.len();
        duplicate
    };
    // Past 64 weights no entry has a mask, and duplicates are found apart.
    let mut wide =
        dipm_core::WeightedBloomFilter::new(dipm_core::FilterParams::new(1 << 12, 2).unwrap(), 7);
    for key in 0..80u64 {
        wide.insert(key * 7919, Weight::new(1, key + 2).unwrap());
    }
    let wide = FrameParts::split(
        &dipm_core::encode::encode_wbf(&wide).unwrap(),
        wide.bit_len(),
    );
    assert!(wide.dict.len() > 64);
    // An entry holding the whole dictionary, which no bit names.
    let mut unnamed = parts.clone();
    unnamed.sets.push((0..unnamed.dict.len() as u16).collect());
    assert!(!parts.sets.contains(unnamed.sets.last().unwrap()));
    // Entries 0 and 1 swapped in every id: 1 is seen first.
    let mut reordered = parts.clone();
    for id in &mut reordered.ids {
        *id = match *id {
            0 => 1,
            1 => 0,
            other => other,
        };
    }
    // A weight above every other, held by no entry.
    let mut idle_weight = parts.clone();
    idle_weight.dict.push((u64::MAX, 1));
    // The first weight with numerator and denominator doubled.
    let mut unreduced = parts.clone();
    unreduced.dict[0].0 *= 2;
    unreduced.dict[0].1 *= 2;
    let cases = [
        (with_duplicate(&parts), "duplicate weight set table entry"),
        (with_duplicate(&wide), "duplicate weight set table entry"),
        (unnamed, "set table entry named by no set bit"),
        (reordered, "set table entries out of first-seen order"),
        (idle_weight, "weight dictionary entry held by no weight set"),
        (unreduced, "weight not in lowest terms"),
    ];
    for (case, message) in cases {
        let err = assert_rejected_alike(&case.broadcast(), message);
        assert!(err.contains(message), "{message}: {err}");
    }
}

// Padding a small filter's set table with one-weight entries no bit names
// once reached 2- and 4-byte ids without tens of thousands of set bits.
// The padding is not the encoder's image — duplicate unnamed entries, or a
// table past the 65,536-entry cap — so both decoders refuse it alike.
#[test]
fn padded_set_tables_are_rejected_alike() {
    let wbf = small_filter();
    let frame = dipm_core::encode::encode_wbf(&wbf).unwrap();
    let parts = FrameParts::split(&frame, wbf.bit_len());
    for (table, message) in [
        (257, "duplicate weight set table entry"),
        (65_537, "weight set table too large"),
    ] {
        let mut padded = parts.clone();
        padded.sets.resize(table, vec![0]);
        let err = assert_rejected_alike(&padded.broadcast(), message);
        assert!(err.contains(message), "{table}: {err}");
    }
}

/// A delta station update written by hand: no query totals, the given
/// dictionary and diff table, and entries as `(gap, diff reference)`
/// one-byte varints.
fn delta_frame(dict: &[(u64, u64)], diffs: &[(&[u16], &[u16])], entries: &[(u8, u8)]) -> Bytes {
    let mut out = vec![1];
    out.extend_from_slice(&0u64.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&(dict.len() as u32).to_le_bytes());
    for &(num, den) in dict {
        out.extend_from_slice(&num.to_le_bytes());
        out.extend_from_slice(&den.to_le_bytes());
    }
    out.extend_from_slice(&(diffs.len() as u32).to_le_bytes());
    for &(removed, added) in diffs {
        out.extend_from_slice(&(removed.len() as u16).to_le_bytes());
        out.extend_from_slice(&(added.len() as u16).to_le_bytes());
        for id in removed.iter().chain(added) {
            out.extend_from_slice(&id.to_le_bytes());
        }
    }
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for &(gap, diff_ref) in entries {
        assert!(gap < 0x80 && diff_ref < 0x80, "one-byte varints");
        out.extend_from_slice(&[gap, diff_ref]);
    }
    Bytes::from(out)
}

// A delta's diff table is canonical as `WeightedBloomFilter::diff_from`
// builds it: distinct diffs, each referenced, in first-seen order, over a
// dictionary of reduced weights that the diffs hold in full. The decoder
// refuses each broken rule with its own message, and the encoder refuses
// the same `FilterDelta` with the same message.
#[test]
fn non_canonical_delta_tables_are_rejected_by_encoder_and_decoder() {
    let w = |n| Weight::new(n, 9).unwrap();
    let dict = [(1, 9), (2, 9)];
    let (a, b): (&[u16], &[u16]) = (&[0], &[1]);
    let diff_a = WeightDiff {
        removed: WeightSet::singleton(w(1)),
        added: WeightSet::singleton(w(2)),
    };
    let diff_b = WeightDiff {
        removed: WeightSet::new(),
        added: WeightSet::singleton(w(2)),
    };
    let update = |diffs: Vec<WeightDiff>, entries: Vec<(u32, u32)>| wire::StationUpdate::Delta {
        epoch: 0,
        query_totals: vec![],
        delta: wire::FilterDelta { diffs, entries },
    };
    // The canonical frame: both diffs, referenced in order.
    let canonical = update(vec![diff_a.clone(), diff_b.clone()], vec![(0, 0), (1, 1)]);
    let frame = delta_frame(&dict, &[(a, b), (&[], b)], &[(0, 0), (0, 1)]);
    assert_eq!(
        wire::decode_station_update(frame.clone()).unwrap(),
        canonical
    );
    assert_eq!(wire::encode_station_update(&canonical).unwrap(), frame);

    let cases = [
        (
            update(vec![diff_a.clone(), diff_a.clone()], vec![(0, 0), (1, 1)]),
            delta_frame(&dict, &[(a, b), (a, b)], &[(0, 0), (0, 1)]),
            "duplicate delta diff table entry",
        ),
        (
            update(vec![diff_a.clone(), diff_b.clone()], vec![(0, 0)]),
            delta_frame(&dict, &[(a, b), (&[], b)], &[(0, 0)]),
            "delta diff referenced by no position",
        ),
        (
            update(vec![diff_a.clone(), diff_b.clone()], vec![(0, 1), (1, 0)]),
            delta_frame(&dict, &[(a, b), (&[], b)], &[(0, 1), (0, 0)]),
            "delta diff table out of first-seen order",
        ),
    ];
    for (update, frame, message) in cases {
        let decoded = wire::decode_station_update(frame).unwrap_err().to_string();
        assert!(decoded.contains(message), "{message}: {decoded}");
        let encoded = wire::encode_station_update(&update)
            .unwrap_err()
            .to_string();
        assert_eq!(encoded, decoded, "{message}");
    }
    // The encoder derives its dictionary from the diffs, so these two
    // rules only a hand-written frame can break.
    for (frame, message) in [
        (
            delta_frame(&[(1, 9), (2, 9), (4, 9)], &[(a, b)], &[(0, 0)]),
            "delta dictionary weight held by no diff",
        ),
        (
            delta_frame(&[(2, 18), (2, 9)], &[(a, b)], &[(0, 0)]),
            "delta weight not in lowest terms",
        ),
    ] {
        let err = wire::decode_station_update(frame).unwrap_err().to_string();
        assert!(err.contains(message), "{message}: {err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Every mutated WBF broadcast that still decodes re-encodes to itself,
    // through the owned decoder, at both id widths.
    #[test]
    fn mutated_wbf_broadcasts_that_decode_reencode_to_themselves(
        wide in any::<bool>(),
        flips in vec((any::<prop::sample::Index>(), any::<u8>()), 1..6),
        tail_flips in vec((any::<prop::sample::Index>(), any::<u8>()), 0..3),
    ) {
        let cases = wbf_broadcasts();
        let case = &cases[usize::from(wide)];
        let mut raw = case.frame.clone();
        for (index, value) in flips {
            let i = index.index(raw.len());
            raw[i] ^= value;
        }
        for (index, value) in tail_flips {
            let i = case.region - 1 + index.index(raw.len() - case.region + 1);
            raw[i] ^= value;
        }
        let raw = Bytes::from(raw);
        let owned = wire::decode_filter_broadcast(raw.clone())
            .and_then(|(totals, filter)| Ok((totals, dipm_core::encode::decode_wbf(filter)?)));
        prop_assert_eq!(owned.is_ok(), wire::view_filter_broadcast(raw.clone()).is_ok());
        if let Ok((totals, filter)) = owned {
            let filter = dipm_core::encode::encode_wbf(&filter).unwrap();
            prop_assert_eq!(wire::encode_filter_broadcast(&totals, filter).unwrap(), raw);
        }
    }

    // Every mutated station update, full or delta, that still decodes
    // re-encodes to itself.
    #[test]
    fn mutated_station_updates_that_decode_reencode_to_themselves(
        entries in vec((any::<u32>(), any::<u64>()), 1..12),
        totals in vec(any::<u64>(), 0..3),
        full in any::<bool>(),
        flips in vec((any::<prop::sample::Index>(), any::<u8>()), 0..4),
        dict_flips in vec((any::<prop::sample::Index>(), any::<u8>()), 0..3),
    ) {
        let update = if full {
            wire::StationUpdate::Full {
                epoch: 3,
                query_totals: totals,
                filter: dipm_core::encode::encode_wbf(&small_filter()).unwrap(),
            }
        } else {
            wire::StationUpdate::Delta {
                epoch: 3,
                query_totals: totals,
                delta: delta_from(&entries),
            }
        };
        let mut raw = wire::encode_station_update(&update).unwrap().to_vec();
        // A delta's dictionary is a sliver of its frame, so some flips aim
        // at its weights.
        let dict_at = DELTA_DICT_AT + 8 * update_totals(&update);
        let dict_len = u32::from_le_bytes(raw[dict_at - 4..dict_at].try_into().unwrap());
        for (index, value) in dict_flips {
            if !full {
                let i = dict_at + index.index(16 * dict_len as usize);
                raw[i] ^= value;
            }
        }
        for (index, value) in flips {
            let i = index.index(raw.len());
            raw[i] ^= value;
        }
        let raw = Bytes::from(raw);
        if let Ok(decoded) = wire::decode_station_update(raw.clone()) {
            prop_assert_eq!(wire::encode_station_update(&decoded).unwrap(), raw);
        }
    }

    // Every mutated tagged weight-report payload that still decodes
    // re-encodes to itself: a flipped weight that is no longer in lowest
    // terms is refused, never silently reduced.
    #[test]
    fn mutated_weight_reports_that_decode_reencode_to_themselves(
        reports in vec((0u32..4, any::<u64>(), 1u64..60, 1u64..60), 1..6),
        flips in vec((any::<prop::sample::Index>(), any::<u8>()), 1..4),
    ) {
        let reports: Vec<(u32, dipm_mobilenet::UserId, Weight)> = reports
            .into_iter()
            .map(|(q, u, n, d)| (q, dipm_mobilenet::UserId(u), Weight::new(n, d).unwrap()))
            .collect();
        let mut raw = wire::encode_tagged_weight_reports(&reports).unwrap().to_vec();
        for (index, value) in flips {
            let i = index.index(raw.len());
            raw[i] ^= value;
        }
        let raw = Bytes::from(raw);
        if let Ok(decoded) = wire::decode_tagged_weight_reports(raw.clone()) {
            prop_assert_eq!(wire::encode_tagged_weight_reports(&decoded).unwrap(), raw);
        }
    }
}

/// How many query totals an update carries.
fn update_totals(update: &wire::StationUpdate) -> usize {
    match update {
        wire::StationUpdate::Full { query_totals, .. }
        | wire::StationUpdate::Delta { query_totals, .. } => query_totals.len(),
    }
}

/// [`broadcasts_at_every_width`], built once for the property cases.
fn wbf_broadcasts() -> &'static [WidthCase] {
    static CASES: std::sync::OnceLock<Vec<WidthCase>> = std::sync::OnceLock::new();
    CASES.get_or_init(broadcasts_at_every_width)
}

// A 1 MiB frame of 131,072 empty sections decodes with one id comparison
// per section; a repeated or regressing id in its last section is refused
// by the encoder and, written by hand, by the decoder.
#[test]
fn long_batch_broadcasts_decode_and_reject_a_disordered_last_id() {
    let count = 1u32 << 17;
    let mut sections: Vec<(u32, Bytes)> = (0..count).map(|q| (q, Bytes::new())).collect();
    let frame = wire::encode_batch_broadcast(&sections).unwrap();
    assert_eq!(frame.len(), 4 + 8 * count as usize);
    assert_eq!(
        wire::decode_batch_broadcast(frame.clone()).unwrap(),
        sections
    );
    // The last section's id follows `count - 2`: repeat it, then regress.
    for last in [count - 2, count - 3] {
        sections.last_mut().unwrap().0 = last;
        let err = wire::encode_batch_broadcast(&sections).unwrap_err();
        assert!(err.to_string().contains("strictly ascending"), "{err}");
        let mut raw = frame.to_vec();
        let at = raw.len() - 8;
        raw[at..at + 4].copy_from_slice(&last.to_le_bytes());
        let err = wire::decode_batch_broadcast(Bytes::from(raw)).unwrap_err();
        assert!(err.to_string().contains("strictly ascending"), "{err}");
    }
}

/// A weighted frame whose set table has an entry of two or more ids, with
/// the offset of that entry's first id.
fn frame_with_a_multi_id_set_entry() -> (Vec<u8>, usize) {
    let wbf = small_filter();
    let frame = dipm_core::encode::encode_wbf(&wbf).unwrap().to_vec();
    let (count_at, entries, _) = set_table(&frame, wbf.bit_len());
    let mut at = count_at + 4;
    for _ in 0..entries {
        let len = usize::from(u16::from_le_bytes([frame[at], frame[at + 1]]));
        if len >= 2 {
            return (frame, at + 2);
        }
        at += 2 + 2 * len;
    }
    panic!("no set entry holds two weights");
}

/// `frame` with its `len`-byte field at `b` overwritten by the one at `a`.
fn repeated(frame: &[u8], a: usize, b: usize, len: usize) -> Vec<u8> {
    let mut out = frame.to_vec();
    out.copy_within(a..a + len, b);
    out
}

/// `frame` with its `len`-byte fields at `a` and `b` swapped.
fn swapped(frame: &[u8], a: usize, b: usize, len: usize) -> Vec<u8> {
    let mut out = repeated(frame, a, b, len);
    out[a..a + len].copy_from_slice(&frame[b..b + len]);
    out
}

// Set-table entries list their dictionary ids strictly ascending, as the
// encoder writes them: a repeated or descending pair of ids is refused by
// the owned and the view decoder alike.
#[test]
fn set_entries_with_repeated_or_descending_ids_are_rejected_alike() {
    let (frame, first) = frame_with_a_multi_id_set_entry();
    let cases = [
        (repeated(&frame, first, first + 2, 2), "repeated"),
        (swapped(&frame, first, first + 2, 2), "descending"),
    ];
    for (raw, what) in cases {
        let broadcast = wire::encode_filter_broadcast(&[5, 9], Bytes::from(raw)).unwrap();
        let err = assert_rejected_alike(&broadcast, what);
        assert!(
            err.contains("weight set ids must be strictly ascending"),
            "{err}"
        );
    }
}

// The weight dictionary is strictly ascending, as the encoder writes it, so
// ascending set ids name ascending weights: two swapped dictionary entries
// are refused by both WBF decoders alike, and by the delta decoder.
#[test]
fn disordered_weight_dictionaries_are_rejected() {
    let (frame, _) = frame_with_a_multi_id_set_entry();
    let dict_at = 32 + (1usize << 10).div_ceil(64) * 8 + 4;
    let raw = swapped(&frame, dict_at, dict_at + 16, 16);
    let broadcast = wire::encode_filter_broadcast(&[5, 9], Bytes::from(raw)).unwrap();
    let err = assert_rejected_alike(&broadcast, "swapped dictionary");
    assert!(
        err.contains("weight dictionary must be strictly ascending"),
        "{err}"
    );

    let raw = swapped(
        &two_sided_delta_frame(),
        DELTA_DICT_AT,
        DELTA_DICT_AT + 16,
        16,
    );
    let err = wire::decode_station_update(Bytes::from(raw)).unwrap_err();
    assert!(
        err.to_string()
            .contains("delta dictionary must be strictly ascending"),
        "{err}"
    );
}

/// Offset of a delta update's dictionary when it carries no query totals:
/// kind byte, epoch, totals count, dictionary length.
const DELTA_DICT_AT: usize = 1 + 8 + 4 + 4;

/// A delta update with one diff that removes two weights and adds two, so
/// its frame holds a four-weight dictionary, then each side's two ids.
fn two_sided_delta_frame() -> Vec<u8> {
    let w = |n| Weight::new(n, 9).unwrap();
    let diff = WeightDiff {
        removed: [w(1), w(2)].into_iter().collect(),
        added: [w(3), w(4)].into_iter().collect(),
    };
    let update = wire::StationUpdate::Delta {
        epoch: 0,
        query_totals: vec![],
        delta: wire::FilterDelta {
            diffs: vec![diff],
            entries: vec![(5, 0)],
        },
    };
    wire::encode_station_update(&update).unwrap().to_vec()
}

// Each side of a delta diff lists its ids strictly ascending, as the
// encoder writes them: a repeated or descending pair is refused.
#[test]
fn diff_sides_with_repeated_or_descending_ids_are_rejected() {
    let frame = two_sided_delta_frame();
    assert!(wire::decode_station_update(Bytes::from(frame.clone())).is_ok());
    // After the dictionary: the diff count, then the side lengths.
    let ids_at = DELTA_DICT_AT + 4 * 16 + 4 + 4;
    for side in [ids_at, ids_at + 4] {
        for raw in [
            repeated(&frame, side, side + 2, 2),
            swapped(&frame, side, side + 2, 2),
        ] {
            let err = wire::decode_station_update(Bytes::from(raw)).unwrap_err();
            assert!(
                err.to_string()
                    .contains("delta diff ids must be strictly ascending"),
                "{err}"
            );
        }
    }
}

/// A populated summary filter for routing-frame fuzzing.
fn summary_filter(keys: &[u64], seed: u64) -> dipm_core::BloomFilter {
    let params = dipm_core::FilterParams::new(1 << 10, 3).unwrap();
    let mut filter = dipm_core::BloomFilter::new(params, seed);
    for &key in keys {
        filter.insert(key);
    }
    filter
}

/// A structurally valid routed-probes target list inside `[lo, hi)`:
/// strictly ascending station ids derived from arbitrary offsets.
fn targets_in(lo: u32, span: u32, offsets: &[u32]) -> Vec<u32> {
    let mut targets: Vec<u32> = offsets.iter().map(|&o| lo + o % span.max(1)).collect();
    targets.sort_unstable();
    targets.dedup();
    targets
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_never_panic_routing_decoders(raw in vec(any::<u8>(), 0..400)) {
        let bytes = Bytes::from(raw);
        let _ = wire::decode_routing_summary(bytes.clone());
        let _ = wire::decode_routed_probes(bytes);
    }

    #[test]
    fn routing_frames_roundtrip(
        keys in vec(any::<u64>(), 0..40),
        seed in any::<u64>(),
        station in any::<u32>(),
        lo in 0u32..1_000,
        span in 1u32..64,
        offsets in vec(any::<u32>(), 0..32),
    ) {
        let filter = summary_filter(&keys, seed);
        let framed = wire::encode_routing_summary(station, &filter);
        let (decoded_station, decoded_filter) = wire::decode_routing_summary(framed).unwrap();
        prop_assert_eq!(decoded_station, station);
        prop_assert_eq!(decoded_filter, filter);

        let targets = targets_in(lo, span, &offsets);
        let framed = wire::encode_routed_probes(lo, lo + span, &targets).unwrap();
        let probes = wire::decode_routed_probes(framed).unwrap();
        prop_assert_eq!((probes.lo, probes.hi), (lo, lo + span));
        prop_assert_eq!(probes.targets, targets);
    }

    #[test]
    fn truncated_routing_frames_error_never_panic(
        keys in vec(any::<u64>(), 1..20),
        lo in 0u32..100,
        span in 1u32..16,
        offsets in vec(any::<u32>(), 1..16),
        cut_permille in 0usize..1000,
    ) {
        // Any strict prefix — including cuts inside the fixed headers —
        // must error cleanly, never panic or mis-decode.
        let summary = wire::encode_routing_summary(7, &summary_filter(&keys, 3));
        let cut = summary.len() * cut_permille / 1000;
        prop_assert!(wire::decode_routing_summary(summary.slice(0..cut)).is_err());

        let targets = targets_in(lo, span, &offsets);
        let probes = wire::encode_routed_probes(lo, lo + span, &targets).unwrap();
        let cut = probes.len() * cut_permille / 1000;
        prop_assume!(cut < probes.len());
        prop_assert!(wire::decode_routed_probes(probes.slice(0..cut)).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected_on_routing_frames(
        keys in vec(any::<u64>(), 0..20),
        lo in 0u32..100,
        span in 1u32..16,
        offsets in vec(any::<u32>(), 0..16),
        garbage in vec(any::<u8>(), 1..8),
    ) {
        let mut raw = wire::encode_routing_summary(1, &summary_filter(&keys, 9)).to_vec();
        raw.extend_from_slice(&garbage);
        prop_assert!(wire::decode_routing_summary(Bytes::from(raw)).is_err());

        let targets = targets_in(lo, span, &offsets);
        let mut raw = wire::encode_routed_probes(lo, lo + span, &targets).unwrap().to_vec();
        raw.extend_from_slice(&garbage);
        prop_assert!(wire::decode_routed_probes(Bytes::from(raw)).is_err());
    }

    #[test]
    fn duplicate_station_ids_are_rejected_by_encoder_and_decoder(
        lo in 0u32..100,
        span in 1u32..16,
        offset in any::<u32>(),
    ) {
        let station = lo + offset % span;
        // The encoder refuses to frame a duplicated target...
        prop_assert!(wire::encode_routed_probes(lo, lo + span, &[station, station]).is_err());
        // ...and the decoder rejects a hand-built frame carrying one.
        let mut raw = Vec::new();
        raw.extend_from_slice(&lo.to_le_bytes());
        raw.extend_from_slice(&(lo + span).to_le_bytes());
        raw.extend_from_slice(&2u32.to_le_bytes());
        raw.extend_from_slice(&station.to_le_bytes());
        raw.extend_from_slice(&station.to_le_bytes());
        prop_assert!(wire::decode_routed_probes(Bytes::from(raw)).is_err());
    }

    #[test]
    fn huge_routed_probe_counts_are_rejected_not_allocated(count in 1_000u32..u32::MAX) {
        // A frame claiming `count` targets inside a one-station range with
        // a tiny body: rejected on the range bound before any allocation.
        let mut raw = Vec::new();
        raw.extend_from_slice(&0u32.to_le_bytes());
        raw.extend_from_slice(&1u32.to_le_bytes());
        raw.extend_from_slice(&count.to_le_bytes());
        raw.extend_from_slice(&[0u8; 8]);
        prop_assert!(wire::decode_routed_probes(Bytes::from(raw)).is_err());
    }

    #[test]
    fn overlapping_subtree_claims_are_rejected(
        lo in 0u32..50,
        span_a in 1u32..16,
        overlap in 0u32..16,
        span_b in 1u32..16,
    ) {
        let station_count = 200u32;
        // Two claims sharing leaf range: the second must be rejected and
        // leave the plan's accepted targets untouched.
        let a = wire::decode_routed_probes(
            wire::encode_routed_probes(lo, lo + span_a, &[lo]).unwrap()
        ).unwrap();
        let b_lo = lo + overlap % span_a; // starts inside a's range
        let b = wire::decode_routed_probes(
            wire::encode_routed_probes(b_lo, b_lo + span_b, &[b_lo]).unwrap()
        ).unwrap();
        let mut plan = wire::RoutingPlan::new(station_count);
        plan.claim(&a).unwrap();
        prop_assert!(plan.claim(&b).is_err());
        // A disjoint claim is still welcome afterwards.
        let c_lo = lo + span_a.max(b_lo + span_b - lo);
        let c = wire::decode_routed_probes(
            wire::encode_routed_probes(c_lo, c_lo + 1, &[c_lo]).unwrap()
        ).unwrap();
        plan.claim(&c).unwrap();
        prop_assert_eq!(plan.into_targets(), vec![lo, c_lo]);
        // Claims past the deployment edge are structural lies.
        let edge = wire::decode_routed_probes(
            wire::encode_routed_probes(station_count - 1, station_count + 1,
                &[station_count - 1]).unwrap()
        ).unwrap();
        prop_assert!(wire::RoutingPlan::new(station_count).claim(&edge).is_err());
    }
}

/// The drain mark [`checkpoint_from`] splits its registry at.
const DRAIN_MARK: u64 = 250;

/// Byte offsets of the v2 session checkpoint's fixed header fields.
const EPOCH_AT: usize = 4 + 1;
const NEXT_ID_AT: usize = EPOCH_AT + 8 + 8 + 1 + 8 + 2 + 8 + 8 + 8 + 1 + 1;
const DRAIN_MARK_AT: usize = NEXT_ID_AT + 8;
/// Where the live-query count sits: right after the 74-byte fixed header.
const QUERIES_AT: usize = DRAIN_MARK_AT + 8;

fn checkpoint_query(id: u64) -> wire::CheckpointQuery {
    wire::CheckpointQuery {
        id,
        total: id + 1,
        combinations: id % 7,
        pairs: vec![(id * 31, Weight::new(id % 5 + 1, 9).unwrap())],
    }
}

/// A structurally valid session checkpoint derived from arbitrary seeds:
/// ascending live ids on both sides of the drain mark, ascending retired
/// ids below it and never live, stations consistent with the epoch.
fn checkpoint_from(
    epoch: u64,
    query_seeds: &[u64],
    retired_seeds: &[u64],
    station_count: usize,
) -> wire::SessionCheckpoint {
    let mut ids: Vec<u64> = query_seeds.iter().map(|&s| s % 500).collect();
    ids.sort_unstable();
    ids.dedup();
    let mut retired: Vec<u64> = retired_seeds
        .iter()
        .map(|&s| s % DRAIN_MARK)
        .filter(|id| !ids.contains(id))
        .collect();
    retired.sort_unstable();
    retired.dedup();
    let stations: Vec<wire::CheckpointStation> = (0..station_count)
        .map(|i| {
            let has_filter = epoch > 0 && i % 3 != 2;
            wire::CheckpointStation {
                has_filter,
                applied_epoch: if has_filter {
                    epoch.saturating_sub(1)
                } else {
                    0
                },
            }
        })
        .collect();
    wire::SessionCheckpoint {
        epoch,
        clock_base: epoch * 100,
        needs_full: epoch == 0,
        bits: 1 << 12,
        hashes: 4,
        seed: 0xFEED,
        samples: 12,
        eps: epoch % 4,
        tolerance: if epoch % 2 == 0 {
            ToleranceMode::Accumulated
        } else {
            ToleranceMode::Uniform
        },
        hash_scheme: if epoch % 3 == 0 {
            HashScheme::ValueOnly
        } else {
            HashScheme::PositionTagged
        },
        next_id: 500,
        drained_next_id: DRAIN_MARK,
        queries: ids.into_iter().map(checkpoint_query).collect(),
        retired: retired.into_iter().map(checkpoint_query).collect(),
        stations,
    }
}

/// The byte offset of the first retired query's id in `checkpoint`'s
/// frame: past the header, the live list and the retired count.
fn first_retired_id_at(checkpoint: &wire::SessionCheckpoint) -> usize {
    let live: usize = checkpoint
        .queries
        .iter()
        .map(|query| 28 + 24 * query.pairs.len())
        .sum();
    QUERIES_AT + 4 + live + 4
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_never_panic_checkpoint_decoders(raw in vec(any::<u8>(), 0..400)) {
        let bytes = Bytes::from(raw);
        let _ = wire::decode_session_checkpoint(bytes.clone());
        let _ = wire::decode_service_checkpoint(bytes);
    }

    #[test]
    fn session_checkpoints_roundtrip(
        epoch in 0u64..50,
        query_seeds in vec(any::<u64>(), 0..12),
        retired_seeds in vec(any::<u64>(), 0..16),
        station_count in 0usize..12,
    ) {
        let checkpoint = checkpoint_from(epoch, &query_seeds, &retired_seeds, station_count);
        let framed = wire::encode_session_checkpoint(&checkpoint).unwrap();
        prop_assert_eq!(wire::decode_session_checkpoint(framed).unwrap(), checkpoint);
    }

    #[test]
    fn truncated_checkpoints_error_never_panic(
        epoch in 0u64..50,
        query_seeds in vec(any::<u64>(), 1..8),
        retired_seeds in vec(any::<u64>(), 1..8),
        cut_permille in 0usize..1000,
    ) {
        // Any strict prefix — cuts inside the 74-byte fixed header
        // included — must error cleanly, never panic or mis-decode.
        let checkpoint = checkpoint_from(epoch, &query_seeds, &retired_seeds, 4);
        let framed = wire::encode_session_checkpoint(&checkpoint).unwrap();
        let cut = framed.len() * cut_permille / 1000;
        prop_assume!(cut < framed.len());
        prop_assert!(wire::decode_session_checkpoint(framed.slice(0..cut)).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected_on_checkpoint_frames(
        epoch in 0u64..50,
        query_seeds in vec(any::<u64>(), 0..8),
        garbage in vec(any::<u8>(), 1..8),
    ) {
        let checkpoint = checkpoint_from(epoch, &query_seeds, &[3, 9], 3);
        let mut raw = wire::encode_session_checkpoint(&checkpoint).unwrap().to_vec();
        raw.extend_from_slice(&garbage);
        prop_assert!(wire::decode_session_checkpoint(Bytes::from(raw)).is_err());

        let session = wire::encode_session_checkpoint(&checkpoint).unwrap();
        let mut raw = wire::encode_service_checkpoint(&[(1, session)]).unwrap().to_vec();
        raw.extend_from_slice(&garbage);
        prop_assert!(wire::decode_service_checkpoint(Bytes::from(raw)).is_err());
    }

    #[test]
    fn station_epoch_regressions_are_rejected(
        epoch in 0u64..50,
        excess in 1u64..100,
        station in 0usize..4,
    ) {
        // A station claiming to have applied an epoch the center has not
        // yet run is a regression of the *center's* recorded epoch: the
        // checkpoint cannot be older than the stations it produced.
        let mut checkpoint = checkpoint_from(epoch.max(1), &[1, 2], &[5], 4);
        checkpoint.stations[station] = wire::CheckpointStation {
            has_filter: true,
            applied_epoch: checkpoint.epoch + excess,
        };
        prop_assert!(wire::encode_session_checkpoint(&checkpoint).is_err());
    }

    #[test]
    fn unreachable_counters_are_rejected(
        epoch in 0u64..50,
        query_seeds in vec(any::<u64>(), 0..8),
        patch_next_id in any::<bool>(),
    ) {
        // A session increments its epoch and next id, so a frame holding
        // u64::MAX in either was never written by one; recovering it would
        // overflow the next epoch or insert.
        let checkpoint = checkpoint_from(epoch, &query_seeds, &[7], 3);
        let mut raw = wire::encode_session_checkpoint(&checkpoint).unwrap().to_vec();
        let at = if patch_next_id { NEXT_ID_AT } else { EPOCH_AT };
        raw[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = wire::decode_session_checkpoint(Bytes::from(raw)).unwrap_err();
        prop_assert!(err.to_string().contains("u64::MAX"), "{}", err);
    }

    #[test]
    fn retired_lists_that_break_the_drain_split_are_rejected(
        epoch in 0u64..50,
        query_seeds in vec(any::<u64>(), 0..8),
        retired_seeds in vec(any::<u64>(), 1..8),
        above in 0u64..1000,
    ) {
        // A live query below the mark, and one retired query, so patching
        // its id cannot break the order.
        let live = above % DRAIN_MARK;
        let mut query_seeds = query_seeds;
        query_seeds.push(live);
        let mut valid = checkpoint_from(epoch, &query_seeds, &retired_seeds, 3);
        prop_assume!(!valid.retired.is_empty());
        valid.retired.truncate(1);
        let framed = wire::encode_session_checkpoint(&valid).unwrap().to_vec();
        let at = first_retired_id_at(&valid);
        prop_assert_eq!(&framed[at..at + 8], &valid.retired[0].id.to_le_bytes()[..]);
        let cases: [(u64, &str); 2] = [
            // A retired id at or above the drain mark was never live at
            // the drain.
            (DRAIN_MARK + above % (500 - DRAIN_MARK), "not below drain mark"),
            // A retired query cannot also be live.
            (live, "both live and retired"),
        ];
        for (id, needle) in cases {
            let mut checkpoint = valid.clone();
            checkpoint.retired[0].id = id;
            let err = wire::encode_session_checkpoint(&checkpoint).unwrap_err();
            prop_assert!(err.to_string().contains(needle), "encoder: {}", err);
            let mut raw = framed.clone();
            raw[at..at + 8].copy_from_slice(&id.to_le_bytes());
            let err = wire::decode_session_checkpoint(Bytes::from(raw)).unwrap_err();
            prop_assert!(err.to_string().contains(needle), "decoder: {}", err);
        }
        // The drain mark never passes the next id.
        let past = valid.next_id + 1 + above;
        let mut checkpoint = valid.clone();
        checkpoint.drained_next_id = past;
        let err = wire::encode_session_checkpoint(&checkpoint).unwrap_err();
        prop_assert!(err.to_string().contains("beyond next id"), "encoder: {}", err);
        let mut raw = framed;
        raw[DRAIN_MARK_AT..DRAIN_MARK_AT + 8].copy_from_slice(&past.to_le_bytes());
        let err = wire::decode_session_checkpoint(Bytes::from(raw)).unwrap_err();
        prop_assert!(err.to_string().contains("beyond next id"), "decoder: {}", err);
    }

    #[test]
    fn huge_declared_checkpoint_counts_are_rejected_not_allocated(count in 1_000u32..u32::MAX) {
        // A frame declaring `count` queries/tenants with a tiny body must be
        // rejected on length before any allocation.
        let checkpoint = checkpoint_from(1, &[1], &[2], 2);
        let framed = wire::encode_session_checkpoint(&checkpoint).unwrap();
        let mut raw = framed.to_vec();
        raw[QUERIES_AT..QUERIES_AT + 4].copy_from_slice(&count.to_le_bytes());
        raw.truncate(QUERIES_AT + 12);
        prop_assert!(wire::decode_session_checkpoint(Bytes::from(raw)).is_err());

        // Service wrapper: magic + version + count, then nothing.
        let mut raw = wire::encode_service_checkpoint(&[]).unwrap().to_vec();
        let at = raw.len() - 4;
        raw[at..].copy_from_slice(&count.to_le_bytes());
        prop_assert!(wire::decode_service_checkpoint(Bytes::from(raw)).is_err());
    }

    #[test]
    fn duplicate_tenant_ids_are_rejected_by_encoder_and_decoder(
        tenant in any::<u64>(),
        body in vec(any::<u8>(), 0..16),
    ) {
        let frames = vec![
            (tenant, Bytes::from(body.clone())),
            (tenant, Bytes::from(body.clone())),
        ];
        // The encoder refuses to frame a duplicated tenant...
        prop_assert!(wire::encode_service_checkpoint(&frames).is_err());
        // ...and the decoder rejects a hand-built frame carrying one.
        let single = wire::encode_service_checkpoint(&[(tenant, Bytes::from(body.clone()))])
            .unwrap()
            .to_vec();
        let mut raw = single.clone();
        // Bump the tenant count from 1 to 2 (it sits after magic+version)
        // and append the same tenant entry again.
        raw[5..9].copy_from_slice(&2u32.to_le_bytes());
        raw.extend_from_slice(&single[9..]);
        prop_assert!(wire::decode_service_checkpoint(Bytes::from(raw)).is_err());
    }

    #[test]
    fn service_checkpoints_roundtrip(
        tenant_seeds in vec((any::<u64>(), vec(any::<u8>(), 0..24)), 0..8),
    ) {
        let mut frames: Vec<(u64, Bytes)> = tenant_seeds
            .into_iter()
            .map(|(id, body)| (id, Bytes::from(body)))
            .collect();
        frames.sort_by_key(|&(id, _)| id);
        frames.dedup_by_key(|&mut (id, _)| id);
        let encoded = wire::encode_service_checkpoint(&frames).unwrap();
        prop_assert_eq!(wire::decode_service_checkpoint(encoded).unwrap(), frames);
    }

    // Every mutated service checkpoint that still decodes re-encodes to
    // itself, and so does every tenant frame in it that decodes as a
    // session checkpoint. Some flips aim at the first query's pairs, whose
    // keys and weights are most of a real checkpoint.
    #[test]
    fn mutated_checkpoints_that_decode_reencode_to_themselves(
        epoch in 0u64..50,
        query_seeds in vec(any::<u64>(), 1..6),
        retired_seeds in vec(any::<u64>(), 0..6),
        extra_pairs in vec((any::<u64>(), 1u64..30), 0..4),
        flips in vec((any::<prop::sample::Index>(), any::<u8>()), 0..3),
        pair_flips in vec((any::<prop::sample::Index>(), any::<u8>()), 0..3),
    ) {
        let mut checkpoint = checkpoint_from(epoch, &query_seeds, &retired_seeds, 3);
        let pairs = &mut checkpoint.queries[0].pairs;
        pairs.extend(extra_pairs.iter().map(|&(key, n)| (key, Weight::new(n, 31).unwrap())));
        pairs.sort_unstable();
        pairs.dedup();
        let pair_bytes = 24 * pairs.len();
        let session = wire::encode_session_checkpoint(&checkpoint).unwrap();
        let mut raw = wire::encode_service_checkpoint(&[(9, session.clone())])
            .unwrap()
            .to_vec();
        // The session frame follows the 21-byte service header.
        let pairs_at = 21 + QUERIES_AT + 4 + 28;
        for (index, value) in pair_flips {
            raw[pairs_at + index.index(pair_bytes)] ^= value;
        }
        for (index, value) in flips {
            let i = index.index(raw.len());
            raw[i] ^= value;
        }
        let raw = Bytes::from(raw);
        if let Ok(tenants) = wire::decode_service_checkpoint(raw.clone()) {
            prop_assert_eq!(wire::encode_service_checkpoint(&tenants).unwrap(), raw);
            for (_, frame) in tenants {
                if let Ok(decoded) = wire::decode_session_checkpoint(frame.clone()) {
                    prop_assert_eq!(wire::encode_session_checkpoint(&decoded).unwrap(), frame);
                }
            }
        }
    }
}

// A checkpoint holds each query's pairs strictly ascending, as the registry
// fills them from an ordered set: a repeated or descending pair is refused
// by the encoder and, written by hand, by the decoder.
#[test]
fn checkpoint_pairs_that_repeat_or_descend_are_rejected() {
    let w = |n| Weight::new(n, 9).unwrap();
    let mut valid = checkpoint_from(1, &[1], &[], 0);
    valid.queries[0].pairs = vec![(5, w(1)), (5, w(2)), (8, w(1))];
    let framed = wire::encode_session_checkpoint(&valid).unwrap().to_vec();
    let pair_at = |i: usize| QUERIES_AT + 4 + 28 + 24 * i;
    let cases = [
        (
            "repeated",
            vec![(5, w(1)), (5, w(1)), (8, w(1))],
            repeated(&framed, pair_at(0), pair_at(1), 24),
        ),
        (
            "descending",
            vec![(5, w(2)), (5, w(1)), (8, w(1))],
            swapped(&framed, pair_at(0), pair_at(1), 24),
        ),
    ];
    let message = "checkpoint query pairs must be strictly ascending";
    for (name, pairs, raw) in cases {
        let mut checkpoint = valid.clone();
        checkpoint.queries[0].pairs = pairs;
        let err = wire::encode_session_checkpoint(&checkpoint).unwrap_err();
        assert!(err.to_string().contains(message), "{name} encoder: {err}");
        let err = wire::decode_session_checkpoint(Bytes::from(raw)).unwrap_err();
        assert!(err.to_string().contains(message), "{name} decoder: {err}");
    }
}

// A pair weight not in lowest terms is refused, not reduced: 6/27 is the
// encoder's 2/9 by value, but accepting it would re-encode to other bytes.
#[test]
fn checkpoint_weights_not_in_lowest_terms_are_rejected() {
    let checkpoint = checkpoint_from(1, &[1], &[], 0);
    assert_eq!(
        checkpoint.queries[0].pairs,
        vec![(31, Weight::new(2, 9).unwrap())]
    );
    let mut raw = wire::encode_session_checkpoint(&checkpoint)
        .unwrap()
        .to_vec();
    let weight_at = QUERIES_AT + 4 + 28 + 8;
    raw[weight_at..weight_at + 8].copy_from_slice(&6u64.to_le_bytes());
    raw[weight_at + 8..weight_at + 16].copy_from_slice(&27u64.to_le_bytes());
    let err = wire::decode_session_checkpoint(Bytes::from(raw)).unwrap_err();
    assert!(
        err.to_string()
            .contains("checkpoint weight not in lowest terms"),
        "{err}"
    );
}
