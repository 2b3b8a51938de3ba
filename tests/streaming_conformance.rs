//! Streaming conformance: standing queries must survive streaming updates
//! without ever diverging from the build-once pipeline they replace.
//!
//! Three invariant families, swept over the shared conformance seeds:
//!
//! 1. **Counting rebuild-equivalence** — a [`CountingWbf`] after any
//!    interleaving of inserts and removes is query-equivalent (and
//!    snapshot-identical) to a fresh build over the surviving multiset.
//! 2. **Delta-path equivalence** — after any query-churn sequence, a
//!    streaming session's epoch answers byte-match a from-scratch
//!    `run_pipeline::<Wbf>` over the same final query set at the same
//!    geometry, under every execution mode.
//! 3. **Delta-frame fidelity** — the deltas a real session's counting
//!    filter emits round-trip the wire exactly, and replaying them onto a
//!    station-side filter reproduces the center's snapshot.

// The shared oracle is reused for its seeded datasets and probe queries;
// the invariant helpers it also exports are exercised by `end_to_end.rs`.
#[allow(dead_code)]
mod conformance;

use dipm::core::{
    encode, CountingWbf, FilterParams, HashFamily, PrecomputedProbes, QueryScratch, Weight,
    WeightedBloomFilter,
};
use dipm::prelude::*;
use dipm::protocol::{run_streaming, wire, EpochBroadcast, StreamingSession, StreamingUpdate};
use proptest::collection::vec;
use proptest::prelude::*;

fn params() -> FilterParams {
    FilterParams::new(1 << 12, 5).unwrap()
}

/// The pair pool interleavings draw from: keys spread over the hash space,
/// weights over a handful of denominators (so removals hit shared
/// positions and shared weights alike).
fn pair(index: u64) -> (u64, Weight) {
    let key = index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let weight = Weight::new(index % 9 + 1, 12).unwrap();
    (key, weight)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Invariant 1, driven by arbitrary interleavings: walk a random
    // op-sequence where each step inserts a new pair or removes a random
    // currently-live one; at the end the filter must equal a fresh build
    // over exactly the survivors.
    #[test]
    fn counting_filter_is_rebuild_equivalent_under_any_interleaving(
        ops in vec((any::<bool>(), any::<u64>()), 1..120),
        seed_index in 0usize..conformance::SEEDS.len(),
    ) {
        let seed = conformance::SEEDS[seed_index];
        let mut filter = CountingWbf::new(params(), seed);
        let mut live: Vec<(u64, Weight)> = Vec::new();
        let mut next = 0u64;
        for (is_insert, pick) in ops {
            if is_insert || live.is_empty() {
                let (key, weight) = pair(next);
                next += 1;
                filter.insert(key, weight).unwrap();
                live.push((key, weight));
            } else {
                let (key, weight) = live.swap_remove(pick as usize % live.len());
                filter.remove(key, weight).unwrap();
            }
        }
        let mut fresh = CountingWbf::new(params(), seed);
        let mut reference = WeightedBloomFilter::new(params(), seed);
        for &(key, weight) in &live {
            fresh.insert(key, weight).unwrap();
            reference.insert(key, weight);
        }
        prop_assert_eq!(&filter, &fresh, "counting state diverged from a fresh build");
        prop_assert_eq!(filter.snapshot(), reference, "snapshot diverged from a fresh WBF");
        // Query-equivalence on a probe sample, including sequences.
        for probe in 0..next.max(8) {
            let (key, _) = pair(probe);
            prop_assert_eq!(filter.query(key), fresh.query(key));
        }
    }

    // Invariant 3: a real churn sequence's deltas round-trip the wire and
    // replay onto a station-held filter exactly.
    #[test]
    fn session_deltas_roundtrip_and_replay_exactly(
        churn in vec((any::<bool>(), any::<u64>()), 1..40),
        seed_index in 0usize..conformance::SEEDS.len(),
    ) {
        replay_session_deltas(params(), &churn, pair, 5, conformance::SEEDS[seed_index])?;
    }

    // Invariant 3 across the fold-mask width: weights from a 97-weight pool
    // push the station's weight universe past the 64 weights a fold mask
    // indexes, then a remove-heavy tail brings it back under, so replayed
    // deltas cover the mask path, the generic path and both transitions. A
    // small, densely filled filter keeps most probes occupied, so a stale
    // mask bit cannot hide behind a membership miss.
    #[test]
    fn session_deltas_replay_exactly_across_the_fold_mask_width(
        grow in 60usize..160,
        churn in vec((0u8..4, any::<u64>()), 0..120),
        seed_index in 0usize..conformance::SEEDS.len(),
    ) {
        let ops: Vec<(bool, u64)> = std::iter::repeat((true, 0))
            .take(grow)
            .chain(churn.iter().map(|&(kind, pick)| (kind == 0, pick)))
            .collect();
        let dense = FilterParams::new(1 << 9, 5).unwrap();
        replay_session_deltas(dense, &ops, wide_pair, 8, conformance::SEEDS[seed_index])?;
    }
}

/// A pair pool like [`pair`] whose weights span 97 distinct values, more
/// than the 64 a fold mask can index, scattered so that new weights land
/// inside the sorted universe, not only past its end.
fn wide_pair(index: u64) -> (u64, Weight) {
    let key = index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let weight = Weight::new((key >> 40) % 97 + 1, 97).unwrap();
    (key, weight)
}

/// Drives `ops` (insert the next pool pair, or remove the live pair at
/// `pick`) through a center counting filter, `per_epoch` ops per epoch.
/// Each epoch's delta is framed, decoded and replayed onto a station
/// filter whose derived fold state a scan has warmed, and the station must
/// then answer exactly like the center's fresh snapshot: bits, weight
/// universe, and both the generic and the precomputed (mask-fold) queries.
fn replay_session_deltas(
    params: FilterParams,
    ops: &[(bool, u64)],
    pool: fn(u64) -> (u64, Weight),
    per_epoch: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut center = CountingWbf::new(params, seed);
    let mut station = WeightedBloomFilter::new(params, seed);
    let family = HashFamily::new(station.hashes(), station.seed());
    let mut pre = PrecomputedProbes::new();
    let (mut scratch, mut reference_scratch) = (QueryScratch::new(), QueryScratch::new());
    let mut live: Vec<(u64, Weight)> = Vec::new();
    let mut next = 0u64;
    for epoch_ops in ops.chunks(per_epoch) {
        // Warm the station's derived state the way an epoch scan does, so
        // the delta lands on a filter with a built universe and fold masks.
        station.weight_universe();
        if let Some(&(key, _)) = live.iter().find(|&&(key, _)| station.contains(key)) {
            pre.compute(&family, station.bit_len(), &[key]);
            prop_assert!(station.query_precomputed(&pre, &mut scratch).is_some());
        }
        for &(is_insert, pick) in epoch_ops {
            if is_insert || live.is_empty() {
                let (key, weight) = pool(next);
                next += 1;
                center.insert(key, weight).unwrap();
                live.push((key, weight));
            } else {
                let (key, weight) = live.swap_remove(pick as usize % live.len());
                center.remove(key, weight).unwrap();
            }
        }
        // One "broadcast": drain, frame, decode, apply at the station.
        let delta = wire::FilterDelta::intern(center.drain_dirty());
        let frame = wire::encode_station_update(&wire::StationUpdate::Delta {
            epoch: 0,
            query_totals: vec![],
            delta: delta.clone(),
        })
        .unwrap();
        let decoded = wire::decode_station_update(frame).unwrap();
        let wire::StationUpdate::Delta {
            delta: received, ..
        } = decoded
        else {
            panic!("kind flipped in flight");
        };
        prop_assert_eq!(&received, &delta, "delta did not round-trip");
        station
            .apply_delta(&received.diffs, &received.entries)
            .unwrap();
        // Structural and behavioral equivalence. (The `inserted` statistic
        // is deliberately excluded: it refreshes on full broadcasts only
        // and never affects matching.)
        let snapshot = center.snapshot();
        prop_assert_eq!(station.bits(), snapshot.bits(), "bit state diverged");
        prop_assert_eq!(
            station.weight_universe(),
            snapshot.weight_universe(),
            "weight universe diverged after delta replay"
        );
        // Probe sets: every pool key alone, neighbouring keys together
        // (mostly stitched, empty intersections), and each live weight's
        // keys together (genuine multi-position matches).
        let mut probe_sets: Vec<Vec<u64>> = Vec::new();
        for probe in 0..next.max(8) {
            let (key, _) = pool(probe);
            prop_assert_eq!(
                station.query(key),
                snapshot.query(key),
                "query {} diverged after delta replay",
                key
            );
            probe_sets.push(vec![key]);
            probe_sets.push(vec![key, pool(probe + 1).0]);
        }
        let mut by_weight: Vec<(Weight, Vec<u64>)> = Vec::new();
        for &(key, weight) in &live {
            match by_weight.iter_mut().find(|(w, _)| *w == weight) {
                Some((_, keys)) => keys.push(key),
                None => by_weight.push((weight, vec![key])),
            }
        }
        probe_sets.extend(by_weight.into_iter().map(|(_, keys)| keys));
        for keys in &probe_sets {
            pre.compute(&family, station.bit_len(), keys);
            prop_assert_eq!(
                station.query_precomputed(&pre, &mut scratch).cloned(),
                snapshot
                    .query_precomputed(&pre, &mut reference_scratch)
                    .cloned(),
                "precomputed query {:?} diverged after delta replay",
                keys
            );
        }
    }
    Ok(())
}

/// Invariant 2 — the acceptance criterion: after a churn sequence, every
/// execution mode's streaming answers byte-match a from-scratch merged
/// pipeline over the surviving query set at the session's geometry.
#[test]
fn streaming_epochs_match_rebuilds_across_all_modes_and_seeds() {
    for seed in conformance::SEEDS {
        let dataset = conformance::dataset(seed);
        let day1 = conformance::dataset(seed + 1000);
        let q0 = conformance::probe_query(&dataset, conformance::PROBES[0]);
        let q1 = conformance::probe_query(&dataset, conformance::PROBES[1]);
        let q2 = conformance::probe_query(&dataset, conformance::PROBES[2]);
        let config = DiMatchingConfig {
            // Headroom: churn grows the set past its initial size.
            fixed_geometry: Some(FilterParams::new(1 << 15, 5).unwrap()),
            ..DiMatchingConfig::default()
        };
        let modes = [
            ExecutionMode::Sequential,
            ExecutionMode::Async { workers: 1 },
        ];
        let mut per_mode = Vec::new();
        for mode in modes {
            let options = PipelineOptions {
                mode,
                shards: Shards::new(2),
                ..PipelineOptions::default()
            };
            let mut session =
                StreamingSession::new(std::slice::from_ref(&q0), config.clone(), options).unwrap();
            // Epoch 0: initial set {q0} over day 0.
            let first = session.run_epoch(&dataset).unwrap();
            assert_eq!(first.broadcast, EpochBroadcast::Full);
            // Churn: +q1 +q2 −q0, then an epoch over churned CDRs (day 1).
            let id0 = session.live_queries()[0];
            session.insert_query(&q1).unwrap();
            session.insert_query(&q2).unwrap();
            session.remove_query(id0).unwrap();
            let second = session.run_epoch(&day1).unwrap();
            assert!(matches!(second.broadcast, EpochBroadcast::Delta { .. }));

            // The from-scratch comparator over the surviving set {q1, q2}.
            let rebuild_options = PipelineOptions {
                grouping: SectionGrouping::Merged,
                ..options
            };
            let reference =
                run_pipeline::<Wbf>(&day1, &[q1.clone(), q2.clone()], &config, &rebuild_options)
                    .unwrap()
                    .into_merged(None);
            assert_eq!(
                second.outcome.ranked, reference.ranked,
                "seed {seed} {mode:?}: streaming diverged from the rebuild"
            );
            assert_eq!(
                second.outcome.cost.report_bytes, reference.cost.report_bytes,
                "seed {seed} {mode:?}: identical state must ship identical reports"
            );
            per_mode.push((
                second.outcome.ranked.clone(),
                second.outcome.cost,
                second.broadcast,
            ));
        }
        // And the modes agree with each other byte for byte.
        let (ranked, cost, broadcast) = &per_mode[0];
        for (other_ranked, other_cost, other_broadcast) in &per_mode[1..] {
            assert_eq!(
                ranked, other_ranked,
                "seed {seed}: modes ranked differently"
            );
            assert_eq!(
                cost.mode_invariant(),
                other_cost.mode_invariant(),
                "seed {seed}: modes moved different bytes"
            );
            assert_eq!(broadcast, other_broadcast);
        }
    }
}

/// The streaming session's full broadcast is the ordinary encoded filter:
/// a station that decodes it holds exactly the center's snapshot (so the
/// whole delta chain is anchored to a verified state).
#[test]
fn full_broadcast_carries_the_exact_snapshot() {
    let dataset = conformance::dataset(conformance::SEEDS[0]);
    let query = conformance::probe_query(&dataset, 0);
    let mut session = StreamingSession::new(
        std::slice::from_ref(&query),
        DiMatchingConfig::default(),
        PipelineOptions::default(),
    )
    .unwrap();
    let built = build_wbf(std::slice::from_ref(&query), &DiMatchingConfig::default()).unwrap();
    let encoded = encode::encode_wbf(&built.filter).unwrap();
    let decoded = encode::decode_wbf(encoded).unwrap();
    assert_eq!(
        decoded, built.filter,
        "wire round-trip must preserve the filter"
    );
    // The session's center state equals the one-shot build over the same
    // set (geometry may differ only through sizing, which `new` matched).
    session.run_epoch(&dataset).unwrap();
    assert_eq!(session.params().bits(), built.stats.bits);
}

/// `run_streaming` applies updates in remove-then-insert order before each
/// epoch and reports per-epoch economics.
#[test]
fn run_streaming_drives_update_sequences() {
    let dataset = conformance::dataset(conformance::SEEDS[1]);
    let q0 = conformance::probe_query(&dataset, 0);
    let q1 = conformance::probe_query(&dataset, 7);
    let config = DiMatchingConfig {
        fixed_geometry: Some(FilterParams::new(1 << 15, 5).unwrap()),
        ..DiMatchingConfig::default()
    };
    let outcomes = run_streaming(
        std::slice::from_ref(&q0),
        vec![
            (&dataset, StreamingUpdate::none()),
            (
                &dataset,
                StreamingUpdate {
                    insert: vec![q1],
                    remove: vec![],
                },
            ),
        ],
        config,
        PipelineOptions::default(),
    )
    .unwrap();
    assert_eq!(outcomes.len(), 2);
    assert_eq!(outcomes[0].broadcast, EpochBroadcast::Full);
    assert!(matches!(
        outcomes[1].broadcast,
        EpochBroadcast::Delta { entries } if entries > 0
    ));
    assert!(outcomes[1].broadcast_bytes < outcomes[1].rebuild_bytes);
}
