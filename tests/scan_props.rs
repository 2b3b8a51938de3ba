//! Property tests for the exact pruning scan: on *arbitrary* stores (random
//! fragments, random noise rows, duplicate all-ties rows), with one section
//! or two of different geometry, and with or without broadcast volumes,
//! `scan_shard_wbf` must return exactly what the exhaustive reference scan
//! (`conformance::reference_scan`) returns, report for report and in order.

// Only the reference scan is used here.
#[allow(dead_code)]
mod conformance;

use dipm::distsim::CostMeter;
use dipm::mobilenet::UserId;
use dipm::prelude::*;
use dipm::protocol::{scan_shard_wbf, BuiltFilter, WbfScanSection};
use dipm::timeseries::Pattern;
use proptest::collection::vec;
use proptest::prelude::*;

/// One generated workload: a query decomposition and a store of candidate
/// rows.
#[derive(Debug, Clone)]
struct Workload {
    fragments: Vec<Vec<u64>>,
    noise: Vec<Vec<u64>>,
    /// How many extra rows replay the query's own global pattern — exact
    /// duplicates, so their reports all carry the same weight.
    ties: usize,
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    // Rows are drawn at the maximum interval count and truncated to a
    // shared `len` (the vendored proptest has no flat-map to make row
    // width depend on another draw).
    (
        2usize..=7,
        vec(vec(0u64..30, 7..=7), 1..4),
        vec(vec(0u64..60, 7..=7), 0..24),
        0usize..6,
    )
        .prop_map(|(len, mut fragments, mut noise, ties)| {
            for row in fragments.iter_mut().chain(noise.iter_mut()) {
                row.truncate(len);
            }
            // A query needs positive global volume.
            fragments[0][0] += 1;
            Workload {
                fragments,
                noise,
                ties,
            }
        })
}

/// The filters and the row store for one workload: the query's own filter,
/// a second filter over its first fragment alone at another geometry, and
/// rows ascending by unique user id, exactly like a real [`BaseStation`]
/// shard. The store mixes the query's own fragments and global (guaranteed
/// matches), the tie rows, and the noise.
fn build(workload: &Workload) -> (BuiltFilter, BuiltFilter, Vec<(UserId, Pattern)>) {
    let config = DiMatchingConfig::default();
    let fragments: Vec<Pattern> = workload
        .fragments
        .iter()
        .map(|v| Pattern::new(v.clone()))
        .collect();
    let query = PatternQuery::from_locals(fragments.clone()).expect("positive-volume query");
    let global = query.global().clone();
    let built = build_wbf(std::slice::from_ref(&query), &config).expect("filter builds");
    let first = PatternQuery::from_locals(fragments[..1].to_vec()).expect("positive volume");
    let geometry = FilterParams::new(built.filter.bit_len() + 1024, built.filter.hashes() + 1)
        .expect("valid geometry");
    let other_config = DiMatchingConfig {
        fixed_geometry: Some(geometry),
        ..config
    };
    let other = build_wbf(&[first], &other_config).expect("filter builds");
    let mut rows: Vec<Pattern> = fragments;
    rows.push(global.clone());
    rows.extend(std::iter::repeat(global).take(workload.ties));
    rows.extend(workload.noise.iter().map(|v| Pattern::new(v.clone())));
    let store = rows
        .into_iter()
        .enumerate()
        .map(|(i, p)| (UserId(i as u64), p))
        .collect();
    (built, other, store)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pruned_scan_is_result_exact_on_arbitrary_stores(
        workload in arb_workload(),
        two_sections in any::<bool>(),
        with_totals in any::<bool>(),
    ) {
        let config = DiMatchingConfig::default();
        let (built, other, store) = build(&workload);
        // Without broadcast volumes every nonzero weight is plausible: the
        // pure-filter fallback, where the prune can never fire.
        let totals = |b: &BuiltFilter| if with_totals { b.query_totals.clone() } else { Vec::new() };
        let (built_totals, other_totals) = (totals(&built), totals(&other));
        let mut sections: Vec<WbfScanSection<'_>> = vec![(0, &built.filter, built_totals.as_slice())];
        if two_sections {
            // Another geometry: the row is hashed again for this section,
            // into the same probe buffer.
            sections.push((1, &other.filter, other_totals.as_slice()));
        }
        let shard: Vec<(UserId, &Pattern)> = store.iter().map(|&(u, ref p)| (u, p)).collect();
        let meter = CostMeter::new();
        let pruned = scan_shard_wbf(&sections, &shard, &config, Some(&meter)).expect("scan runs");
        let reference = conformance::reference_scan(&sections, &shard, &config);
        // The store contains the query's own rows, so the comparison cannot
        // be vacuously empty.
        prop_assert!(!reference.is_empty());
        prop_assert_eq!(&pruned, &reference);
        let report = meter.report();
        prop_assert!(report.rows_pruned <= (shard.len() * sections.len()) as u64);
        if !with_totals {
            prop_assert_eq!(report.rows_pruned, 0, "nothing is prunable without volumes");
        }
        prop_assert_eq!(report.blocks_skipped, 0);
    }
}
