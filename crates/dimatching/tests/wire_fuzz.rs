//! Robustness: the data center must survive arbitrary bytes arriving as
//! station reports or broadcasts — decode cleanly or reject, never panic —
//! and the batch frames must reject structural lies (duplicate query ids,
//! shard-count mismatches, impossible counts) without over-allocating.

use bytes::Bytes;
use dipm_core::{Weight, WeightDiff, WeightSet};
use dipm_protocol::wire;
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

/// Builds a structurally valid delta from arbitrary position/diff seeds.
fn delta_from(seeds: &[(u32, u64)]) -> wire::FilterDelta {
    let mut entries: Vec<(u32, WeightDiff)> = seeds
        .iter()
        .map(|&(pos, seed)| (pos, weight_diff(seed)))
        .collect();
    entries.sort_by_key(|&(pos, _)| pos);
    entries.dedup_by_key(|&mut (pos, _)| pos);
    wire::FilterDelta::intern(entries)
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
        let framed = wire::encode_batch_broadcast(&[
            (id, Bytes::from(body_a)),
            (id, Bytes::from(body_b)),
        ]).unwrap();
        prop_assert!(wire::decode_batch_broadcast(framed).is_err());
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

/// A structurally valid session checkpoint derived from arbitrary seeds:
/// ascending ids/positions, nonzero counts, stations consistent with the
/// epoch.
fn checkpoint_from(
    epoch: u64,
    query_seeds: &[u64],
    position_seeds: &[u32],
    station_count: usize,
) -> wire::SessionCheckpoint {
    let bits = 1u64 << 12;
    let mut ids: Vec<u64> = query_seeds.iter().map(|&s| s % 500).collect();
    ids.sort_unstable();
    ids.dedup();
    let queries: Vec<wire::CheckpointQuery> = ids
        .iter()
        .map(|&id| wire::CheckpointQuery {
            id,
            total: id + 1,
            combinations: id % 7,
            pairs: vec![(id * 31, Weight::new(id % 5 + 1, 9).unwrap())],
        })
        .collect();
    let mut positions: Vec<u32> = position_seeds.iter().map(|&p| p % (bits as u32)).collect();
    positions.sort_unstable();
    positions.dedup();
    let counts: Vec<(u32, Vec<(Weight, u32)>)> = positions
        .iter()
        .map(|&pos| {
            (
                pos,
                vec![(Weight::new(pos as u64 % 6 + 1, 11).unwrap(), pos + 1)],
            )
        })
        .collect();
    let baselines: Vec<(u32, WeightSet)> = positions
        .iter()
        .map(|&pos| {
            let mut set = WeightSet::new();
            if pos % 2 == 0 {
                set.insert(Weight::new(pos as u64 % 6 + 1, 11).unwrap());
            }
            (pos, set)
        })
        .collect();
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
        bits,
        hashes: 4,
        seed: 0xFEED,
        next_id: 500,
        queries,
        counts,
        baselines,
        stations,
    }
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
        position_seeds in vec(any::<u32>(), 0..16),
        station_count in 0usize..12,
    ) {
        let checkpoint = checkpoint_from(epoch, &query_seeds, &position_seeds, station_count);
        let framed = wire::encode_session_checkpoint(&checkpoint).unwrap();
        prop_assert_eq!(wire::decode_session_checkpoint(framed).unwrap(), checkpoint);
    }

    #[test]
    fn truncated_checkpoints_error_never_panic(
        epoch in 0u64..50,
        query_seeds in vec(any::<u64>(), 1..8),
        position_seeds in vec(any::<u32>(), 1..8),
        cut_permille in 0usize..1000,
    ) {
        // Any strict prefix — cuts inside the 48-byte fixed header
        // included — must error cleanly, never panic or mis-decode.
        let checkpoint = checkpoint_from(epoch, &query_seeds, &position_seeds, 4);
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
    fn huge_declared_checkpoint_counts_are_rejected_not_allocated(count in 1_000u32..u32::MAX) {
        // A frame declaring `count` queries/positions/tenants with a tiny
        // body must be rejected on length before any allocation.
        let checkpoint = checkpoint_from(1, &[1], &[2], 2);
        let framed = wire::encode_session_checkpoint(&checkpoint).unwrap();
        // The query count sits right after the 48-byte fixed header.
        let mut raw = framed.to_vec();
        raw[48..52].copy_from_slice(&count.to_le_bytes());
        raw.truncate(60);
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
}
