//! Top-k / dynamic-pruning conformance: every rung of the `ScanAlgorithm`
//! ladder must be **bit-for-bit** identical to `Exhaustive` — in the
//! shard-scan core, in the top-k kernel, and through the full pipeline
//! under every execution mode.
//!
//! Two layers:
//!
//! 1. **Kernel**: `scan_shard_wbf` and `scan_shard_wbf_topk` over every
//!    conformance seed's sharded stations, compared down to the encoded
//!    wire bytes for every algorithm (and every k for the top-k kernel).
//! 2. **Pipeline**: `run_pipeline::<Wbf>` with a top-k cutoff across
//!    Sequential and an Async pool — rankings, verdicts and
//!    the byte meters (query and report traffic) must match `Exhaustive`
//!    exactly, and each algorithm's own meters must stay mode-invariant.

#[allow(dead_code)]
mod conformance;

use dipm::prelude::*;
use dipm::protocol::wire;
use dipm::protocol::{
    scan_shard_wbf, scan_shard_wbf_topk, BaseStation, BuiltFilter, WbfScanSection,
};

/// Top-k cutoffs the kernel sweep exercises: empty, tiny, moderate, and
/// beyond any candidate population.
const KS: [usize; 4] = [0, 1, 5, 10_000];

fn modes() -> [ExecutionMode; 2] {
    [
        ExecutionMode::Sequential,
        ExecutionMode::Async { workers: 3 },
    ]
}

fn with_algorithm(config: &DiMatchingConfig, algorithm: ScanAlgorithm) -> DiMatchingConfig {
    DiMatchingConfig {
        scan_algorithm: algorithm,
        ..config.clone()
    }
}

#[test]
fn scan_core_is_bit_identical_across_the_algorithm_ladder() {
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
        for &station in dataset.stations() {
            let locals = dataset.station_locals(station).expect("station has users");
            let base = BaseStation::from_locals(station, locals, Shards::new(2));
            for shard_index in 0..base.shard_count() {
                let shard = base.shard(shard_index);
                let reference = scan_shard_wbf(&sections, shard, &config, None).expect("scan runs");
                let reference_bytes =
                    wire::encode_tagged_weight_reports(&reference).expect("encodes");
                for algorithm in ScanAlgorithm::ALL {
                    let pruned =
                        scan_shard_wbf(&sections, shard, &with_algorithm(&config, algorithm), None)
                            .expect("pruned scan runs");
                    let pruned_bytes =
                        wire::encode_tagged_weight_reports(&pruned).expect("encodes");
                    assert_eq!(
                        pruned_bytes, reference_bytes,
                        "seed {seed}, station {station:?}, shard {shard_index}: \
                         {algorithm:?} changed the wire bytes"
                    );
                }
                hits += reference.len();
            }
        }
        assert!(hits > 0, "seed {seed} produced no reports — vacuous pass");
    }
}

#[test]
fn topk_kernel_is_bit_identical_across_the_ladder_for_every_k() {
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
        let mut truncations = 0usize;
        for &station in dataset.stations() {
            let locals = dataset.station_locals(station).expect("station has users");
            let base = BaseStation::from_locals(station, locals, Shards::new(2));
            for shard_index in 0..base.shard_count() {
                let shard = base.shard(shard_index);
                let full = scan_shard_wbf(&sections, shard, &config, None).expect("scan runs");
                for k in KS {
                    let reference =
                        scan_shard_wbf_topk(&sections, shard, &config, k, None).expect("runs");
                    if k > 0 && reference.len() < full.len() {
                        truncations += 1;
                    }
                    // Every kept report must exist in the full scan, capped
                    // at k per section.
                    assert!(reference.len() <= sections.len() * k);
                    for report in &reference {
                        assert!(
                            full.contains(report),
                            "seed {seed}: top-k invented report {report:?}"
                        );
                    }
                    let reference_bytes =
                        wire::encode_tagged_weight_reports(&reference).expect("encodes");
                    for algorithm in ScanAlgorithm::ALL {
                        let pruned = scan_shard_wbf_topk(
                            &sections,
                            shard,
                            &with_algorithm(&config, algorithm),
                            k,
                            None,
                        )
                        .expect("pruned scan runs");
                        let pruned_bytes =
                            wire::encode_tagged_weight_reports(&pruned).expect("encodes");
                        assert_eq!(
                            pruned_bytes, reference_bytes,
                            "seed {seed}, station {station:?}, shard {shard_index}, k {k}: \
                             {algorithm:?} changed the top-k wire bytes"
                        );
                    }
                }
            }
        }
        assert!(
            truncations > 0,
            "seed {seed}: no shard ever truncated — the k sweep is vacuous"
        );
    }
}

#[test]
fn pipeline_topk_matches_exhaustive_on_every_seed_and_mode() {
    let base = DiMatchingConfig::default();
    for seed in conformance::SEEDS {
        let dataset = conformance::dataset(seed);
        let query = conformance::probe_query(&dataset, conformance::PROBES[1]);
        let queries = [query];
        for mode in modes() {
            let options = PipelineOptions {
                mode,
                shards: Shards::new(2),
                top_k: Some(5),
                ..PipelineOptions::default()
            };
            let reference =
                run_pipeline::<Wbf>(&dataset, &queries, &base, &options).expect("pipeline runs");
            for algorithm in ScanAlgorithm::ALL {
                let config = with_algorithm(&base, algorithm);
                let outcome = run_pipeline::<Wbf>(&dataset, &queries, &config, &options)
                    .expect("pipeline runs");
                // Answers are bit-identical to exhaustive...
                for (i, (a, b)) in reference.queries.iter().zip(&outcome.queries).enumerate() {
                    assert_eq!(
                        a.ranked, b.ranked,
                        "seed {seed} {mode:?} {algorithm:?}: query {i} ranking diverged"
                    );
                }
                // ...and so is every byte that crossed the network.
                assert_eq!(
                    (reference.cost.query_bytes, reference.cost.report_bytes),
                    (outcome.cost.query_bytes, outcome.cost.report_bytes),
                    "seed {seed} {mode:?} {algorithm:?}: traffic diverged"
                );
                // Exhaustive never prunes, whatever the mode.
                if algorithm == ScanAlgorithm::Exhaustive {
                    assert_eq!(outcome.cost.rows_pruned, 0);
                    assert_eq!(outcome.cost.blocks_skipped, 0);
                }
            }
        }
        // Per algorithm: the full meter set (pruning counters included) is
        // mode-invariant — pruning decisions are pure per-row/per-block
        // functions, independent of scheduling.
        for algorithm in ScanAlgorithm::ALL {
            let config = with_algorithm(&base, algorithm);
            let mut reference_cost: Option<CostReport> = None;
            for mode in modes() {
                let options = PipelineOptions {
                    mode,
                    shards: Shards::new(2),
                    top_k: Some(5),
                    ..PipelineOptions::default()
                };
                let queries = [conformance::probe_query(&dataset, conformance::PROBES[1])];
                let outcome = run_pipeline::<Wbf>(&dataset, &queries, &config, &options)
                    .expect("pipeline runs");
                match &reference_cost {
                    None => reference_cost = Some(outcome.cost.mode_invariant()),
                    Some(expected) => assert_eq!(
                        expected,
                        &outcome.cost.mode_invariant(),
                        "seed {seed} {algorithm:?}: {mode:?} meters diverged"
                    ),
                }
            }
        }
    }
}
