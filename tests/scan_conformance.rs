//! Scan-core conformance: the scratch-based, allocation-free pruning shard
//! scan must be **bit-for-bit** identical to the exhaustive, allocating
//! reference scan (`conformance::reference_scan`) on every seeded
//! conformance dataset.
//!
//! Comparing the *encoded report frames* pins report content **and** order
//! down to the wire bytes, so neither the exact prune, the reused key
//! buffer, the probe scratch, nor the word-level membership fast path can
//! shift a single report. The pruning meter must fire on every seed, so the
//! comparison cannot pass with the prune idle.

// Only the dataset/query helpers and the reference scan are used here; the
// oracle assertions belong to the end-to-end conformance binaries.
#[allow(dead_code)]
mod conformance;

use dipm::distsim::CostMeter;
use dipm::prelude::*;
use dipm::protocol::wire;
use dipm::protocol::{build_wbf, scan_shard_wbf, BaseStation, BuiltFilter, WbfScanSection};

#[test]
fn scan_shard_wbf_is_bit_for_bit_identical_to_reference() {
    let config = DiMatchingConfig::default();
    for seed in conformance::SEEDS {
        let dataset = conformance::dataset(seed);
        let builds: Vec<BuiltFilter> = conformance::PROBES
            .iter()
            .map(|&probe| {
                let query = conformance::probe_query(&dataset, probe);
                build_wbf(std::slice::from_ref(&query), &config).expect("filter builds")
            })
            .collect();
        let sections: Vec<WbfScanSection<'_>> = builds
            .iter()
            .enumerate()
            .map(|(i, b)| (i as u32, &b.filter, b.query_totals.as_slice()))
            .collect();
        let mut hits = 0usize;
        let meter = CostMeter::new();
        for &station in dataset.stations() {
            let locals = dataset.station_locals(station).expect("station has users");
            let base = BaseStation::from_locals(station, locals, Shards::new(2));
            for shard_index in 0..base.shard_count() {
                let shard = base.shard(shard_index);
                let fast =
                    scan_shard_wbf(&sections, shard, &config, Some(&meter)).expect("scan runs");
                let reference = conformance::reference_scan(&sections, shard, &config);
                assert_eq!(
                    fast, reference,
                    "seed {seed}, station {station:?}, shard {shard_index}"
                );
                let fast_bytes = wire::encode_tagged_weight_reports(&fast).expect("encodes");
                let reference_bytes =
                    wire::encode_tagged_weight_reports(&reference).expect("encodes");
                assert_eq!(
                    fast_bytes, reference_bytes,
                    "wire bytes must match at seed {seed}"
                );
                hits += fast.len();
            }
        }
        assert!(hits > 0, "seed {seed} produced no reports — vacuous pass");
        assert!(
            meter.report().rows_pruned > 0,
            "seed {seed} pruned nothing — the prune went untested"
        );
    }
}

#[test]
fn scan_core_is_bit_identical_to_reference_on_every_shard_layout() {
    // The exact prune decides per (row, section), never per shard, so every
    // shard of every layout must match the oracle down to the wire bytes,
    // and a station's reports and scan meters must not depend on how its
    // rows are split.
    let config = DiMatchingConfig::default();
    for seed in conformance::SEEDS {
        let dataset = conformance::dataset(seed);
        let builds: Vec<BuiltFilter> = conformance::PROBES
            .iter()
            .map(|&probe| {
                let query = conformance::probe_query(&dataset, probe);
                build_wbf(std::slice::from_ref(&query), &config).expect("filter builds")
            })
            .collect();
        let sections: Vec<WbfScanSection<'_>> = builds
            .iter()
            .enumerate()
            .map(|(i, b)| (i as u32, &b.filter, b.query_totals.as_slice()))
            .collect();
        let mut unsharded = None;
        for count in [1, 2, 3, 5] {
            let meter = CostMeter::new();
            let mut reports = Vec::new();
            for &station in dataset.stations() {
                let locals = dataset.station_locals(station).expect("station has users");
                let base = BaseStation::from_locals(station, locals, Shards::new(count));
                for shard_index in 0..base.shard_count() {
                    let shard = base.shard(shard_index);
                    let fast =
                        scan_shard_wbf(&sections, shard, &config, Some(&meter)).expect("scan runs");
                    let reference = conformance::reference_scan(&sections, shard, &config);
                    assert_eq!(
                        wire::encode_tagged_weight_reports(&fast).expect("encodes"),
                        wire::encode_tagged_weight_reports(&reference).expect("encodes"),
                        "seed {seed}, {count} shards, station {station:?}, shard {shard_index}"
                    );
                    reports.extend(fast);
                }
            }
            reports.sort_unstable();
            let observed = (reports, meter.report());
            match &unsharded {
                None => unsharded = Some(observed),
                Some(expected) => assert_eq!(
                    &observed, expected,
                    "seed {seed}: {count} shards moved the reports or the scan meters"
                ),
            }
        }
        let (reports, report) = unsharded.expect("the unsharded layout ran");
        assert!(
            !reports.is_empty(),
            "seed {seed} produced no reports — vacuous pass"
        );
        assert!(
            report.rows_pruned > 0,
            "seed {seed} pruned nothing — the prune went untested"
        );
    }
}

#[test]
fn zero_copy_wire_views_scan_bit_for_bit_identical_to_owned_sections() {
    // A station scanning straight out of received broadcast bytes (the
    // zero-copy WbfFrameView path) must produce byte-identical report
    // frames to a scan over the center's owned filters, on every
    // conformance seed.
    let config = DiMatchingConfig::default();
    for seed in conformance::SEEDS {
        let dataset = conformance::dataset(seed);
        let builds: Vec<BuiltFilter> = conformance::PROBES
            .iter()
            .map(|&probe| {
                let query = conformance::probe_query(&dataset, probe);
                build_wbf(std::slice::from_ref(&query), &config).expect("filter builds")
            })
            .collect();
        let owned_sections: Vec<WbfScanSection<'_>> = builds
            .iter()
            .enumerate()
            .map(|(i, b)| (i as u32, &b.filter, b.query_totals.as_slice()))
            .collect();
        // Re-open every section exactly as a station does: encode the
        // broadcast frame, then view it in place.
        let views: Vec<wire::WbfSectionView> = builds
            .iter()
            .map(|b| {
                let frame = wire::encode_filter_broadcast(
                    &b.query_totals,
                    dipm::core::encode::encode_wbf(&b.filter).expect("filter encodes"),
                )
                .expect("broadcast frames");
                wire::view_filter_broadcast(frame).expect("broadcast views")
            })
            .collect();
        let view_sections: Vec<WbfScanSection<'_, dipm::core::WbfFrameView>> = views
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u32, &v.filter, v.query_totals.as_slice()))
            .collect();
        let mut hits = 0usize;
        for &station in dataset.stations() {
            let locals = dataset.station_locals(station).expect("station has users");
            let base = BaseStation::from_locals(station, locals, Shards::new(2));
            for shard_index in 0..base.shard_count() {
                let shard = base.shard(shard_index);
                let owned =
                    scan_shard_wbf(&owned_sections, shard, &config, None).expect("owned scan");
                let viewed =
                    scan_shard_wbf(&view_sections, shard, &config, None).expect("view scan");
                assert_eq!(
                    owned, viewed,
                    "seed {seed}, station {station:?}, shard {shard_index}"
                );
                let owned_bytes = wire::encode_tagged_weight_reports(&owned).expect("encodes");
                let viewed_bytes = wire::encode_tagged_weight_reports(&viewed).expect("encodes");
                assert_eq!(
                    owned_bytes, viewed_bytes,
                    "wire bytes must match at seed {seed}"
                );
                hits += owned.len();
            }
        }
        assert!(hits > 0, "seed {seed} produced no reports — vacuous pass");
    }
}
