//! Property-based tests for the DI-matching protocol.

use dipm_core::Weight;
use dipm_mobilenet::{StationId, UserId};
use dipm_protocol::{
    aggregate_and_rank, build_wbf, scan_shard_wbf, wire, BaseStation, BuiltFilter,
    DiMatchingConfig, HashScheme, PatternQuery, Shards,
};
use dipm_timeseries::{eps_match, Pattern};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Algorithm 2 over one station's unsharded store with a single query
/// filter: the `(user, weight)` reports of a one-section, one-shard scan.
fn scan_store(
    built: &BuiltFilter,
    store: &BTreeMap<UserId, Pattern>,
    config: &DiMatchingConfig,
) -> Vec<(UserId, Weight)> {
    let station = BaseStation::from_locals(StationId(0), store, Shards::new(1));
    let sections = [(0, &built.filter, built.query_totals.as_slice())];
    scan_shard_wbf(&sections, station.shard(0), config, None)
        .unwrap()
        .into_iter()
        .map(|(_, user, weight)| (user, weight))
        .collect()
}

fn arb_locals() -> impl Strategy<Value = Vec<Pattern>> {
    vec(vec(0u64..60, 6usize..7), 1..4).prop_map(|vs| vs.into_iter().map(Pattern::new).collect())
}

fn small_config() -> DiMatchingConfig {
    DiMatchingConfig {
        samples: 6,
        eps: 2,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The protocol's cornerstone guarantee: any pattern within ε of a
    // query combination is reported by the station scan (no false
    // negatives), for both hash schemes.
    #[test]
    fn station_scan_has_no_false_negatives(
        locals in arb_locals(),
        deltas in vec(-2i64..=2, 6usize..7),
        combo_pick in any::<u8>(),
        position_tagged in any::<bool>(),
    ) {
        prop_assume!(Pattern::sum(locals.iter()).unwrap().total().unwrap() > 0);
        let query = PatternQuery::from_locals(locals.clone()).unwrap();
        let mut config = small_config();
        if position_tagged {
            config.hash_scheme = HashScheme::PositionTagged;
        }
        let built = build_wbf(&[query], &config).unwrap();

        // Pick one combination and perturb it within ε.
        let combos = dipm_timeseries::enumerate_combinations(&locals).unwrap();
        let combo = &combos[combo_pick as usize % combos.len()];
        let candidate: Pattern = combo
            .pattern
            .iter()
            .zip(&deltas)
            .map(|(v, &d)| v.saturating_add_signed(d))
            .collect();
        prop_assume!(eps_match(&candidate, &combo.pattern, config.eps));
        prop_assume!(combo.pattern.total().unwrap() > 0);

        let station: BTreeMap<UserId, Pattern> =
            [(UserId(1), candidate)].into_iter().collect();
        let reports = scan_store(&built, &station, &config);
        prop_assert_eq!(reports.len(), 1, "ε-similar candidate must be reported");
    }

    // Aggregation invariants: output sorted by descending weight, no entry
    // above 1, no zero entries, top-k respected.
    #[test]
    fn aggregation_invariants(
        raw in vec((0u64..20, 1u64..30, 1u64..30), 0..60),
        k in 1usize..10,
    ) {
        let reports: Vec<(UserId, Weight)> = raw
            .iter()
            .map(|&(id, a, b)| (UserId(id), Weight::new(a.min(b), b.max(a)).unwrap()))
            .collect();
        let full = aggregate_and_rank(reports.clone(), None);
        for pair in full.windows(2) {
            prop_assert!(pair[0].weight_sum >= pair[1].weight_sum);
        }
        for entry in &full {
            prop_assert!(entry.weight_sum <= Weight::ONE);
            prop_assert!(!entry.weight_sum.is_zero());
        }
        let cut = aggregate_and_rank(reports, Some(k));
        prop_assert!(cut.len() <= k);
        prop_assert_eq!(&full[..cut.len()], &cut[..]);
    }

    // Exact decompositions survive aggregation with weight exactly 1.
    #[test]
    fn exact_decomposition_survives(parts in vec(1u64..1000, 1..12)) {
        let total: u64 = parts.iter().sum();
        let reports: Vec<(UserId, Weight)> = parts
            .iter()
            .map(|&p| (UserId(5), Weight::ratio(p, total).unwrap()))
            .collect();
        let ranked = aggregate_and_rank(reports, None);
        prop_assert_eq!(ranked.len(), 1);
        prop_assert!(ranked[0].weight_sum.is_one());
    }

    // Wire formats round-trip arbitrary payloads.
    #[test]
    fn weight_report_wire_roundtrip(
        raw in vec((any::<u32>(), any::<u64>(), 1u64..1000, 1u64..1000), 0..50),
    ) {
        let reports: Vec<(u32, UserId, Weight)> = raw
            .iter()
            .map(|&(query, id, a, b)| (query, UserId(id), Weight::new(a, b).unwrap()))
            .collect();
        let encoded = wire::encode_tagged_weight_reports(&reports).unwrap();
        prop_assert_eq!(wire::decode_tagged_weight_reports(encoded).unwrap(), reports);
    }

    #[test]
    fn station_data_wire_roundtrip(raw in vec((any::<u64>(), vec(any::<u64>(), 0..12)), 0..20)) {
        let entries: Vec<(UserId, Pattern)> = raw
            .into_iter()
            .map(|(id, vs)| (UserId(id), Pattern::new(vs)))
            .collect();
        let encoded =
            wire::encode_station_data(entries.iter().map(|(u, p)| (*u, p))).unwrap();
        let decoded = wire::decode_station_data(encoded).unwrap();
        prop_assert_eq!(decoded, entries);
    }

    // Shard rebalance safety: because `UserId → shard` is a pure function,
    // splitting any user set into per-shard partitions, scanning each
    // partition independently and merging the reports is equivalent to one
    // unsharded scan — for every shard count a deployment might pick.
    #[test]
    fn sharded_scan_merge_equals_unsharded_scan(
        locals in arb_locals(),
        users in vec((any::<u64>(), vec(0u64..60, 6usize..7)), 0..24),
    ) {
        prop_assume!(Pattern::sum(locals.iter()).unwrap().total().unwrap() > 0);
        let query = PatternQuery::from_locals(locals).unwrap();
        let config = small_config();
        let built = build_wbf(&[query], &config).unwrap();

        let store: BTreeMap<UserId, Pattern> = users
            .into_iter()
            .map(|(id, vs)| (UserId(id), Pattern::new(vs)))
            .collect();
        let unsharded = scan_store(&built, &store, &config);

        for shard_count in 1..=8usize {
            let layout = Shards::new(shard_count);
            let mut partitions: Vec<BTreeMap<UserId, Pattern>> =
                vec![BTreeMap::new(); shard_count];
            for (&user, pattern) in &store {
                partitions[layout.of(user)].insert(user, pattern.clone());
            }
            let mut merged = Vec::new();
            for partition in &partitions {
                merged.extend(scan_store(&built, partition, &config));
            }
            merged.sort();
            let mut expect = unsharded.clone();
            expect.sort();
            prop_assert_eq!(
                merged, expect,
                "shard_count {} must not change the scan", shard_count
            );
        }
    }

    // Filters built from the same queries are deterministic.
    #[test]
    fn build_is_deterministic(locals in arb_locals()) {
        prop_assume!(Pattern::sum(locals.iter()).unwrap().total().unwrap() > 0);
        let query = PatternQuery::from_locals(locals).unwrap();
        let config = small_config();
        let a = build_wbf(std::slice::from_ref(&query), &config).unwrap();
        let b = build_wbf(&[query], &config).unwrap();
        prop_assert_eq!(a.filter, b.filter);
        prop_assert_eq!(a.stats, b.stats);
    }
}
