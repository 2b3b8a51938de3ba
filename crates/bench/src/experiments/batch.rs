//! Batch & shard scaling — the post-paper experiment for the unified
//! pipeline.
//!
//! Two sweeps over the same city slice:
//!
//! * **Batch amortization** — a batch of Q queries through one pipeline run
//!   vs Q single-query runs: scan passes (N vs Q·N), broadcast bytes and
//!   wall time. The claim: station work is flat in Q because every local
//!   pattern is sampled once per batch.
//! * **Shard scaling** — the same workload across shard layouts, run
//!   sequentially and on an executor pool of half a worker per station:
//!   identical bytes (rebalance safety), only wall time moves.

use std::time::Duration;

use dipm_distsim::ExecutionMode;
use dipm_mobilenet::Dataset;
use dipm_protocol::{
    run_pipeline, BatchOutcome, DiMatchingConfig, PatternQuery, PipelineOptions, Shards, Wbf,
};

use crate::report::{Cell, Report};
use crate::scale::Scale;

fn queries(dataset: &Dataset, count: usize) -> Vec<PatternQuery> {
    (0..count)
        .map(|i| {
            let user = dataset.users()[(i * 13) % dataset.users().len()];
            PatternQuery::from_fragments(dataset.fragments(user.id).expect("traffic"))
                .expect("valid query")
        })
        .collect()
}

fn run_batch(
    dataset: &Dataset,
    queries: &[PatternQuery],
    config: &DiMatchingConfig,
    mode: ExecutionMode,
    shards: usize,
) -> BatchOutcome {
    let options = PipelineOptions {
        mode,
        shards: Shards::new(shards),
        ..PipelineOptions::default()
    };
    run_pipeline::<Wbf>(dataset, queries, config, &options).expect("pipeline runs")
}

/// Batch-amortization table: one batched run vs repeated single-query runs.
pub fn batch_scaling(scale: &Scale) -> Report {
    let dataset =
        Dataset::city_slice(scale.users, scale.stations, scale.seed).expect("valid preset");
    let config = DiMatchingConfig::default();
    let mut report = Report::new(
        "Batch scaling",
        "one batched pipeline run vs Q single-query runs (WBF, per-query sections)",
        "scan passes stay at N per batch; single-query loops pay Q×N passes and Q broadcasts",
    );
    report.columns([
        "batch Q",
        "batch passes",
        "single passes",
        "batch bcast KB",
        "single bcast KB",
        "batch s",
        "single s",
    ]);
    for &q in &[1usize, 4, 8, 16] {
        let qs = queries(&dataset, q);
        let batched = run_batch(&dataset, &qs, &config, ExecutionMode::Sequential, 1);
        let mut single_passes = 0u64;
        let mut single_bcast = 0u64;
        let mut single_elapsed = Duration::ZERO;
        for query in &qs {
            let one = run_batch(
                &dataset,
                std::slice::from_ref(query),
                &config,
                ExecutionMode::Sequential,
                1,
            );
            single_passes += one.cost.scan_passes;
            single_bcast += one.cost.query_bytes;
            single_elapsed += one.elapsed;
        }
        report.row_cells([
            Cell::int(q as u64),
            Cell::int(batched.cost.scan_passes),
            Cell::int(single_passes),
            Cell::int(batched.cost.query_bytes / 1024),
            Cell::int(single_bcast / 1024),
            Cell::float(batched.elapsed.as_secs_f64(), 3),
            Cell::float(single_elapsed.as_secs_f64(), 3),
        ]);
    }
    report.note(format!(
        "{} users, {} stations; rankings are per query and identical in both columns",
        scale.users, scale.stations
    ));
    report
}

/// Shard/worker-pool scaling table over one fixed batch.
pub fn shard_scaling(scale: &Scale) -> Report {
    let dataset =
        Dataset::city_slice(scale.users, scale.stations, scale.seed).expect("valid preset");
    let config = DiMatchingConfig::default();
    let qs = queries(&dataset, 8);
    let mut report = Report::new(
        "Shard scaling",
        "one batch across shard layouts and execution modes (WBF)",
        "bytes are identical in every layout; only wall time moves",
    );
    report.columns(["shards", "mode", "total KB", "scan passes", "seconds"]);
    let reference = run_batch(&dataset, &qs, &config, ExecutionMode::Sequential, 1);
    let workers = (scale.stations as usize / 2).max(1);
    for &shards in &[1usize, 2, 4, 8] {
        for (label, mode) in [
            ("seq", ExecutionMode::Sequential),
            ("async", ExecutionMode::Async { workers }),
        ] {
            let outcome = run_batch(&dataset, &qs, &config, mode, shards);
            assert_eq!(
                outcome.cost.mode_invariant(),
                reference.cost.mode_invariant(),
                "shard layout or mode leaked into the metered bytes"
            );
            report.row_cells([
                Cell::int(shards as u64),
                Cell::text(label),
                Cell::int(outcome.cost.total_bytes() / 1024),
                Cell::int(outcome.cost.scan_passes),
                Cell::float(outcome.elapsed.as_secs_f64(), 3),
            ]);
        }
    }
    report.note("the async rows run at half a worker per station — the shape a city-scale deployment multiplexes at");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_amortization_holds_at_tiny_scale() {
        let mut scale = Scale::quick();
        scale.users = 200;
        let report = batch_scaling(&scale);
        assert_eq!(report.rows.len(), 4);
        for r in 0..report.rows.len() {
            // Typed cells: read the measured numbers directly instead of
            // re-parsing the rendered table strings.
            let q = report.value(r, 0).unwrap() as u64;
            let batch_passes = report.value(r, 1).unwrap() as u64;
            let single_passes = report.value(r, 2).unwrap() as u64;
            assert_eq!(batch_passes, scale.stations as u64);
            assert_eq!(single_passes, q * scale.stations as u64);
        }
    }

    #[test]
    fn shard_scaling_is_byte_stable() {
        let mut scale = Scale::quick();
        scale.users = 200;
        // The table itself asserts byte equality across layouts.
        let report = shard_scaling(&scale);
        assert_eq!(report.rows.len(), 8, "4 shard layouts × 2 modes");
    }
}
