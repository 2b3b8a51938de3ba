//! Pipeline-level execution-mode agreement.
//!
//! Every [`ExecutionMode`] runs the same station calls and must produce
//! identical results; the mode decides only whether the network models
//! time. This suite asserts that through the full generic pipeline —
//! metered sends, shared-meter updates, shard merging and (under `Async`)
//! modeled stamps — by requiring **byte-identical mode-invariant
//! `CostReport`s** (every byte, storage and operation meter including
//! `scan_passes`; not just equal rankings) across `Sequential` and `Async`,
//! for every strategy, shard layout and section grouping. Async runs must
//! additionally reproduce the *same deterministic* `makespan_ticks` and
//! latency report on a repeat run under a fixed seeded latency model — the
//! property that keeps the latency dimension publishable next to the
//! Fig. 4 meters.

use dipm::prelude::*;
use proptest::prelude::*;

fn modes() -> [ExecutionMode; 2] {
    [
        ExecutionMode::Sequential,
        ExecutionMode::Async { workers: 1 },
    ]
}

fn groupings() -> [SectionGrouping; 2] {
    [SectionGrouping::PerQuery, SectionGrouping::Merged]
}

/// A deliberately lumpy latency model so modeled stamps have real spread:
/// per-link jitter on, scan time per row on.
fn test_latency(seed: u64) -> LatencyModel {
    LatencyModel {
        base_ticks: 60,
        ticks_per_byte: 1,
        ticks_per_row: 3,
        jitter_ticks: 17,
        seed,
    }
}

fn run_batch<S: FilterStrategy>(
    dataset: &Dataset,
    queries: &[PatternQuery],
    config: &DiMatchingConfig,
    mode: ExecutionMode,
    shards: usize,
    grouping: SectionGrouping,
    seed: u64,
) -> BatchOutcome {
    let options = PipelineOptions {
        mode,
        shards: Shards::new(shards),
        top_k: None,
        grouping,
        latency: test_latency(seed),
    };
    run_pipeline::<S>(dataset, queries, config, &options).expect("pipeline runs")
}

fn assert_mode_agreement<S: FilterStrategy>(seed: u64, shards: usize, batch: usize) {
    let dataset = TraceConfig::new(40, 6)
        .days(1)
        .intervals_per_day(8)
        .noise(1)
        .seed(seed)
        .generate()
        .expect("valid trace");
    let config = DiMatchingConfig::default();
    let queries: Vec<PatternQuery> = (0..batch)
        .map(|i| {
            let user = dataset.users()[(i * 11) % dataset.users().len()];
            PatternQuery::from_fragments(dataset.fragments(user.id).expect("traffic"))
                .expect("valid query")
        })
        .collect();

    for grouping in groupings() {
        let reference = run_batch::<S>(
            &dataset,
            &queries,
            &config,
            ExecutionMode::Sequential,
            shards,
            grouping,
            seed,
        );
        assert_eq!(reference.cost.makespan_ticks, 0, "sync modes model no time");
        for mode in modes() {
            let outcome = run_batch::<S>(&dataset, &queries, &config, mode, shards, grouping, seed);
            assert_eq!(
                reference.cost.mode_invariant(),
                outcome.cost.mode_invariant(),
                "seed {seed} shards {shards} {grouping:?}: {mode:?} meters diverged from Sequential"
            );
            assert_eq!(reference.queries.len(), outcome.queries.len());
            for (i, (a, b)) in reference.queries.iter().zip(&outcome.queries).enumerate() {
                assert_eq!(
                    a.ranked, b.ranked,
                    "seed {seed} shards {shards} {grouping:?}: {mode:?} ranking for query {i} diverged"
                );
            }
            match mode {
                ExecutionMode::Async { .. } => {
                    let latency = outcome.latency.as_ref().expect("async models time");
                    assert_eq!(latency.makespan_ticks, outcome.cost.makespan_ticks);
                    assert_eq!(latency.stations.len(), dataset.stations().len());
                }
                ExecutionMode::Sequential => {
                    assert!(outcome.latency.is_none());
                    assert_eq!(outcome.cost.makespan_ticks, 0);
                }
            }
        }
        // Repeat one async run: same seed ⇒ identical latency report.
        let mode = ExecutionMode::Async { workers: 1 };
        let a = run_batch::<S>(&dataset, &queries, &config, mode, shards, grouping, seed);
        let b = run_batch::<S>(&dataset, &queries, &config, mode, shards, grouping, seed);
        assert_eq!(a.cost, b.cost, "async cost report must be reproducible");
        assert_eq!(
            a.latency, b.latency,
            "async latency report must be reproducible"
        );
        assert!(
            a.cost.makespan_ticks > 0,
            "latency model produces real ticks"
        );
    }
}

proptest! {
    // Full pipeline runs are comparatively expensive; a handful of random
    // (seed, shard, batch) points per strategy is plenty to catch a
    // mode-dependent meter or merge bug.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn wbf_modes_produce_byte_identical_cost_reports(
        seed in 0u64..1_000,
        shards in 1usize..5,
        batch in 1usize..4,
    ) {
        assert_mode_agreement::<Wbf>(seed, shards, batch);
    }

    #[test]
    fn bloom_modes_produce_byte_identical_cost_reports(
        seed in 0u64..1_000,
        shards in 1usize..5,
        batch in 1usize..4,
    ) {
        assert_mode_agreement::<Bloom>(seed, shards, batch);
    }

    #[test]
    fn naive_modes_produce_byte_identical_cost_reports(
        seed in 0u64..1_000,
        shards in 1usize..5,
        batch in 1usize..3,
    ) {
        assert_mode_agreement::<Naive>(seed, shards, batch);
    }
}

#[test]
fn legacy_wrappers_agree_across_modes_too() {
    // The single-outcome wrappers ride the same pipeline; spot-check that
    // their merged outcomes agree mode-to-mode as well.
    let dataset = Dataset::small(19);
    let config = DiMatchingConfig::default();
    let query = {
        let probe = dataset.users()[2];
        PatternQuery::from_fragments(dataset.fragments(probe.id).unwrap()).unwrap()
    };
    let seq = run_wbf(
        &dataset,
        std::slice::from_ref(&query),
        &config,
        ExecutionMode::Sequential,
        None,
    )
    .unwrap();
    for mode in modes() {
        let other = run_wbf(&dataset, std::slice::from_ref(&query), &config, mode, None).unwrap();
        assert_eq!(seq.ranked, other.ranked);
        assert_eq!(
            seq.cost.mode_invariant(),
            other.cost.mode_invariant(),
            "{mode:?} meters diverged"
        );
    }
}
