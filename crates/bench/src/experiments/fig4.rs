//! Figure 4 — accuracy and efficiency vs the number of query patterns.
//!
//! The paper sweeps the number of given patterns (100..500) and compares
//! Naive / BF / WBF on precision (4a), time (4b), communication (4c) and
//! storage (4d). One sweep here produces all four tables.

use std::collections::BTreeSet;
use std::time::Duration;

use dipm_distsim::ExecutionMode;
use dipm_mobilenet::{ground_truth, Category, Dataset, UserId};
use dipm_protocol::{
    evaluate, run_pipeline, Bloom, DiMatchingConfig, FilterStrategy, Naive, PatternQuery,
    PipelineOptions, QueryOutcome, SectionGrouping, Shards, Wbf,
};

use crate::report::Report;
use crate::scale::Scale;

/// Shards per station in the sweep's deployment.
const SWEEP_SHARDS: usize = 2;

/// Runs one method through the generic pipeline in the sweep's scaled-out
/// deployment shape: merged filter (the paper's Algorithm 1 over all given
/// patterns), sharded stations, modeled network.
fn run_method<S: FilterStrategy>(
    dataset: &Dataset,
    queries: &[PatternQuery],
    config: &DiMatchingConfig,
    top_k: Option<usize>,
) -> QueryOutcome {
    let options = PipelineOptions {
        mode: ExecutionMode::Async { workers: 1 },
        shards: Shards::new(SWEEP_SHARDS),
        top_k,
        grouping: SectionGrouping::Merged,
        ..PipelineOptions::default()
    };
    run_pipeline::<S>(dataset, queries, config, &options)
        .expect("pipeline runs")
        .into_merged(top_k)
}

/// One method's measurements at one sweep point.
#[derive(Debug, Clone, Copy)]
pub struct MethodPoint {
    /// R-precision against the union ground truth.
    pub precision: f64,
    /// Wall-clock time of the full run.
    pub elapsed: Duration,
    /// Station→center matching traffic (the paper's Fig. 4c metric:
    /// "message size cost from pattern matching between base stations and
    /// data center" — candidate reports, or the shipped corpus for naive).
    pub comm_bytes: u64,
    /// Query-dissemination traffic (filter broadcast), reported separately.
    pub broadcast_bytes: u64,
    /// Total stored bytes.
    pub storage_bytes: u64,
}

/// All three methods at one pattern count.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Number of query patterns `a`.
    pub patterns: usize,
    /// The naive baseline.
    pub naive: MethodPoint,
    /// The Bloom-filter baseline.
    pub bloom: MethodPoint,
    /// DI-matching with the weighted Bloom filter.
    pub wbf: MethodPoint,
}

/// Runs the Figure-4 sweep once; the four table builders below format it.
pub fn sweep(scale: &Scale) -> Vec<SweepPoint> {
    let dataset =
        Dataset::city_slice(scale.users, scale.stations, scale.seed).expect("valid preset");
    let config = DiMatchingConfig::default();

    // Queries come from two target segments so the relevant set stays a
    // strict subset of the population and precision remains discriminative.
    let probes: Vec<UserId> = dataset
        .users()
        .iter()
        .filter(|u| matches!(u.category, Category::OfficeWorker | Category::Salesperson))
        .map(|u| u.id)
        .collect();

    let mut points = Vec::new();
    for &a in &scale.pattern_counts {
        let queries: Vec<PatternQuery> = (0..a)
            .map(|i| {
                let user = probes[i % probes.len()];
                PatternQuery::from_fragments(dataset.fragments(user).expect("user has traffic"))
                    .expect("valid query")
            })
            .collect();
        let mut relevant: BTreeSet<UserId> = BTreeSet::new();
        for q in &queries {
            relevant.extend(ground_truth::eps_similar_users(
                &dataset,
                q.global(),
                config.eps,
            ));
        }
        let k = Some(relevant.len());

        let run = |outcome: QueryOutcome| -> MethodPoint {
            MethodPoint {
                precision: evaluate(outcome.retrieved(), &relevant).precision,
                elapsed: outcome.elapsed,
                comm_bytes: outcome.cost.report_bytes + outcome.cost.data_bytes,
                broadcast_bytes: outcome.cost.query_bytes,
                storage_bytes: outcome.cost.storage_bytes,
            }
        };

        let naive = run(run_method::<Naive>(&dataset, &queries, &config, k));
        let bloom = run(run_method::<Bloom>(&dataset, &queries, &config, k));
        let wbf = run(run_method::<Wbf>(&dataset, &queries, &config, k));
        points.push(SweepPoint {
            patterns: a,
            naive,
            bloom,
            wbf,
        });
    }
    points
}

fn base_report(id: &str, title: &str, claim: &str, points: &[SweepPoint]) -> Report {
    let mut report = Report::new(id, title, claim);
    report.columns(["patterns", "naive", "bf", "wbf"]);
    let _ = points;
    report
}

/// Figure 4(a): precision vs number of patterns.
pub fn fig4a(points: &[SweepPoint]) -> Report {
    let mut report = base_report(
        "Figure 4(a)",
        "precision vs number of patterns",
        "WBF ≈ Naive ≈ 1; BF lower and degrading as patterns increase",
        points,
    );
    for p in points {
        report.row([
            format!("{}", p.patterns),
            format!("{:.3}", p.naive.precision),
            format!("{:.3}", p.bloom.precision),
            format!("{:.3}", p.wbf.precision),
        ]);
    }
    report
}

/// Figure 4(b): wall-clock time vs number of patterns.
pub fn fig4b(points: &[SweepPoint]) -> Report {
    let mut report = base_report(
        "Figure 4(b)",
        "time cost vs number of patterns (seconds)",
        "Naive grows fastest with patterns; BF linear; WBF nearly flat",
        points,
    );
    for p in points {
        report.row([
            format!("{}", p.patterns),
            format!("{:.3}", p.naive.elapsed.as_secs_f64()),
            format!("{:.3}", p.bloom.elapsed.as_secs_f64()),
            format!("{:.3}", p.wbf.elapsed.as_secs_f64()),
        ]);
    }
    report
}

/// Figure 4(c): communication cost relative to naive.
pub fn fig4c(points: &[SweepPoint]) -> Report {
    let mut report = Report::new(
        "Figure 4(c)",
        "communication cost (fraction of naive)",
        "WBF far below naive and below BF: the weight check cuts the matching number",
    );
    report.columns(["patterns", "naive", "bf", "wbf", "wbf broadcast KB"]);
    for p in points {
        let naive = p.naive.comm_bytes as f64;
        report.row([
            format!("{}", p.patterns),
            "1.000".to_string(),
            format!("{:.3}", p.bloom.comm_bytes as f64 / naive),
            format!("{:.3}", p.wbf.comm_bytes as f64 / naive),
            format!("{}", p.wbf.broadcast_bytes / 1024),
        ]);
    }
    report.note("per the paper's metric this counts station→center matching traffic; query dissemination (broadcast) is listed separately");
    report
}

/// Figure 4(d): storage cost relative to naive.
pub fn fig4d(points: &[SweepPoint]) -> Report {
    let mut report = base_report(
        "Figure 4(d)",
        "storage cost (fraction of naive)",
        "BF ≲ WBF ≪ naive: the weight table is a small premium",
        points,
    );
    for p in points {
        let naive = p.naive.storage_bytes as f64;
        report.row([
            format!("{}", p.patterns),
            "1.000".to_string(),
            format!("{:.3}", p.bloom.storage_bytes as f64 / naive),
            format!("{:.3}", p.wbf.storage_bytes as f64 / naive),
        ]);
    }
    report.note("WBF's weight table grows when many near-duplicate patterns are queried at once; at the paper's corpus/query ratio (3.6M users vs 500 patterns) it is negligible against the shipped corpus");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_points() -> Vec<SweepPoint> {
        let mut scale = Scale::quick();
        scale.users = 300;
        scale.pattern_counts = vec![10, 30];
        sweep(&scale)
    }

    #[test]
    fn sweep_shapes_match_the_paper() {
        let points = tiny_points();
        for p in &points {
            // 4(a): naive is exact; WBF within 15% of naive; BF at most WBF.
            assert!((p.naive.precision - 1.0).abs() < 1e-9);
            assert!(p.wbf.precision > 0.85, "wbf precision {}", p.wbf.precision);
            assert!(p.bloom.precision <= p.wbf.precision + 1e-9);
            // 4(c): the weight check cuts the matching number — candidate
            // counts (28 bytes per tagged WBF entry, 12 per tagged BF
            // entry; the 8-byte shard+count frame header per station
            // excluded) and both filter methods ship far less than naive.
            let header_bytes = 8 * 12; // stations at quick scale
            let wbf_candidates = p.wbf.comm_bytes.saturating_sub(header_bytes) / 28;
            let bloom_candidates = p.bloom.comm_bytes.saturating_sub(header_bytes) / 12;
            assert!(wbf_candidates <= bloom_candidates);
            assert!(p.wbf.comm_bytes < p.naive.comm_bytes);
            assert!(p.bloom.comm_bytes < p.naive.comm_bytes);
            // 4(d): BF stores strictly less than WBF (no weight table).
            assert!(p.bloom.storage_bytes <= p.wbf.storage_bytes);
            assert!(p.bloom.storage_bytes < p.naive.storage_bytes);
        }
    }

    #[test]
    fn tables_render_one_row_per_point() {
        let points = tiny_points();
        for report in [
            fig4a(&points),
            fig4b(&points),
            fig4c(&points),
            fig4d(&points),
        ] {
            assert_eq!(report.rows.len(), points.len());
        }
    }
}
