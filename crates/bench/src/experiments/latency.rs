//! Latency sweep — the post-paper experiment for the modeled network.
//!
//! The paper's Fig. 4 axes (precision, time, communication, storage) say
//! nothing about *latency*: its prototype runs every station as a local
//! thread, so reports arrive as fast as the machine computes. At city scale
//! the dominant cost is flight time, not compute — so this experiment sweeps
//! the modeled round-trip budget × station count under
//! `ExecutionMode::Async` and reports the deterministic modeled makespan
//! (broadcast flight → station scan → report flight, the slowest-station
//! critical path).
//!
//! Two claims the table backs:
//!
//! * byte meters are identical to the sequential run at every sweep point —
//!   modeling time moves no bytes, so Fig. 4c comparisons stay valid;
//! * makespan grows with the link budget but *not* with station count per
//!   se (each station's timeline is its own, so stations are modeled as
//!   concurrent — only the slowest link and the largest per-station store
//!   matter), which is exactly the behaviour a thread-per-station wall
//!   clock cannot exhibit honestly.

use dipm_distsim::{ExecutionMode, LatencyModel};
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

fn run(
    dataset: &Dataset,
    queries: &[PatternQuery],
    config: &DiMatchingConfig,
    mode: ExecutionMode,
    latency: LatencyModel,
) -> BatchOutcome {
    let options = PipelineOptions {
        mode,
        shards: Shards::new(2),
        latency,
        ..PipelineOptions::default()
    };
    run_pipeline::<Wbf>(dataset, queries, config, &options).expect("pipeline runs")
}

/// Modeled RTT × station count sweep under `ExecutionMode::Async`.
pub fn latency(scale: &Scale) -> Report {
    let config = DiMatchingConfig::default();
    let mut report = Report::new(
        "Latency sweep",
        "async runtime, virtual-clock makespan across modeled RTT × station count (WBF, batch of 4)",
        "bytes match the sequential run everywhere; makespan tracks the slowest link, not the station count",
    );
    report.columns([
        "stations",
        "base RTT ticks",
        "makespan kticks",
        "slowest station",
        "fastest station",
        "broadcast KB",
    ]);
    let station_counts = [
        (scale.stations / 2).max(2),
        scale.stations.max(2),
        (scale.stations * 2).max(4),
    ];
    for &stations in &station_counts {
        let dataset = Dataset::city_slice(scale.users, stations, scale.seed).expect("valid preset");
        let qs = queries(&dataset, 4);
        let reference = run(
            &dataset,
            &qs,
            &config,
            ExecutionMode::Sequential,
            LatencyModel::default(),
        );
        for &base_ticks in &[100u64, 10_000, 1_000_000] {
            let model = LatencyModel {
                base_ticks,
                ticks_per_byte: 1,
                ticks_per_row: 4,
                jitter_ticks: base_ticks / 10,
                seed: scale.seed,
            };
            let outcome = run(
                &dataset,
                &qs,
                &config,
                ExecutionMode::Async { workers: 1 },
                model,
            );
            assert_eq!(
                reference.cost.mode_invariant(),
                outcome.cost.mode_invariant(),
                "modeling time must not move bytes"
            );
            let latency = outcome.latency.expect("async reports latency");
            let slowest = latency.critical_path_ticks();
            let fastest = latency
                .stations
                .iter()
                .map(|s| s.report_delivered)
                .min()
                .unwrap_or(0);
            report.row_cells([
                Cell::int(dataset.stations().len() as u64),
                Cell::int(base_ticks),
                Cell::float(latency.makespan_ticks as f64 / 1000.0, 1),
                Cell::rendered(slowest as f64, format!("{:.1}k", slowest as f64 / 1000.0)),
                Cell::rendered(fastest as f64, format!("{:.1}k", fastest as f64 / 1000.0)),
                Cell::int(outcome.cost.query_bytes / 1024),
            ]);
        }
    }
    report.note(format!(
        "{} users over 4 queries; jitter = RTT/10, 4 ticks per scanned row, seed {}",
        scale.users, scale.seed
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_sweep_is_deterministic_and_monotone_in_rtt() {
        let mut scale = Scale::quick();
        scale.users = 200;
        let first = latency(&scale);
        assert_eq!(first.rows.len(), 9, "3 station counts × 3 RTT points");
        let second = latency(&scale);
        assert_eq!(
            first.rows, second.rows,
            "modeled ticks must reproduce exactly"
        );
        // Within each station count, makespan grows with the link budget.
        // Typed cells carry the unrounded reading — no string re-parsing.
        for base in (0..first.rows.len()).step_by(3) {
            let makespans: Vec<f64> = (base..base + 3)
                .map(|r| first.value(r, 2).unwrap())
                .collect();
            assert!(
                makespans.windows(2).all(|w| w[0] < w[1]),
                "makespan must grow with RTT: {makespans:?}"
            );
        }
    }
}
