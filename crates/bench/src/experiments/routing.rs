//! Query-routing economics — the Bloofi-style summary tree against
//! broadcast-to-all.
//!
//! Sweeps deployment size × tree fanout for a *selective* query set (high
//! volume always-on profiles under the position-tagged hash scheme — the
//! regime where station summaries can actually discriminate; see the
//! routing module docs in `dipm-protocol`) and reports what the tree
//! pruned, the standing summary-upload cost, and the per-batch query
//! broadcast bytes against broadcast-to-all, plus the modeled makespan of
//! both runs. Every routed point's rankings are asserted equal to the
//! broadcast reference before it is recorded — the sweep measures *traffic
//! avoided*, never answers changed.
//!
//! `repro routing` emits the table and the `BENCH_routing.json` trajectory
//! file; `repro routing --quick --check BENCH_routing_quick.json` is the CI
//! perf-smoke gate (the byte meters are mode-invariant and deterministic,
//! so the gate is exact, not statistical).

use dipm_distsim::ExecutionMode;
use dipm_mobilenet::Dataset;
use dipm_protocol::{
    run_pipeline, DiMatchingConfig, HashScheme, PatternQuery, PipelineOptions, RoutingPolicy, Wbf,
};

use crate::report::{Cell, Report};
use crate::scale::Scale;

/// Always-on per-interval rates of the selective query set. No generated
/// phone sustains these volumes, so their tolerance bands miss most station
/// populations and the tree has something to prune.
const WHALE_RATES: [u64; 2] = [300, 450];

/// Candidates kept per query ranking.
const TOP_K: usize = 10;

/// One `(stations, fanout)` sweep point.
#[derive(Debug, Clone)]
pub struct RoutingPoint {
    /// Base stations in the deployment.
    pub stations: u32,
    /// Routing-tree fanout.
    pub fanout: usize,
    /// Stations the tree excluded from the query broadcast.
    pub pruned: u64,
    /// Standing routing traffic: summary uploads plus routed-probe frames.
    pub routing_bytes: u64,
    /// Query broadcast bytes under the tree.
    pub query_bytes: u64,
    /// Query broadcast bytes under `RoutingPolicy::BroadcastAll`.
    pub broadcast_bytes: u64,
    /// `broadcast_bytes − query_bytes`: what routing saved this batch.
    pub saved_bytes: u64,
    /// Modeled makespan of the routed run (virtual ticks).
    pub makespan: u64,
    /// Modeled makespan of the broadcast reference.
    pub broadcast_makespan: u64,
}

/// The sweep grid for one scale: station counts × fanouts.
fn grid(scale: &Scale) -> (Vec<u32>, Vec<usize>) {
    if scale.users <= Scale::quick().users {
        (vec![8, 16], vec![2, 4])
    } else {
        (vec![16, 64, 128], vec![2, 4, 8])
    }
}

/// The sweep's selective query set: constant always-on profiles at each
/// whale rate (two locals per query, full and half rate). Routing is
/// batch-level — the tree probes the union of the batch's keys — so the
/// whole set must be selective for subtrees to fall away; a single wide
/// query (say a resident phone's own fragments) would pin every station.
fn query_set(dataset: &Dataset) -> Vec<PatternQuery> {
    let intervals = dataset.intervals();
    WHALE_RATES
        .iter()
        .map(|&rate| {
            PatternQuery::from_locals(vec![
                (0..intervals).map(|_| rate).collect(),
                (0..intervals).map(|_| rate / 2).collect(),
            ])
            .expect("constant profiles form a valid query")
        })
        .collect()
}

/// Runs the stations × fanout sweep, asserting routed answers equal
/// broadcast's at every point.
pub fn routing_sweep(scale: &Scale) -> Vec<RoutingPoint> {
    let (stations_axis, fanouts) = grid(scale);
    let base = DiMatchingConfig {
        hash_scheme: HashScheme::PositionTagged,
        seed: scale.seed,
        ..DiMatchingConfig::default()
    };
    let options = PipelineOptions {
        mode: ExecutionMode::Async { workers: 1 },
        top_k: Some(TOP_K),
        ..PipelineOptions::default()
    };
    let mut points = Vec::new();
    for &stations in &stations_axis {
        let dataset =
            Dataset::city_slice(scale.users, stations, scale.seed).expect("city generates");
        let queries = query_set(&dataset);
        let reference =
            run_pipeline::<Wbf>(&dataset, &queries, &base, &options).expect("broadcast runs");
        for &fanout in &fanouts {
            let config = DiMatchingConfig {
                routing: RoutingPolicy::Tree { fanout },
                ..base.clone()
            };
            let routed =
                run_pipeline::<Wbf>(&dataset, &queries, &config, &options).expect("routed runs");
            for (i, (a, b)) in reference.queries.iter().zip(&routed.queries).enumerate() {
                assert_eq!(
                    a.ranked, b.ranked,
                    "stations {stations} fanout {fanout}: query {i} diverged under routing"
                );
            }
            points.push(RoutingPoint {
                stations,
                fanout,
                pruned: routed.cost.stations_pruned,
                routing_bytes: routed.cost.routing_bytes,
                query_bytes: routed.cost.query_bytes,
                broadcast_bytes: reference.cost.query_bytes,
                saved_bytes: reference
                    .cost
                    .query_bytes
                    .saturating_sub(routed.cost.query_bytes),
                makespan: routed.cost.makespan_ticks,
                broadcast_makespan: reference.cost.makespan_ticks,
            });
        }
    }
    points
}

/// Routing-tree economics across deployment size × fanout.
pub fn routing(scale: &Scale) -> Report {
    let points = routing_sweep(scale);
    let mut report = Report::new(
        "Query routing",
        "Bloofi-style summary tree vs broadcast-to-all across stations × fanout",
        "for selective query sets the tree must cut query broadcast bytes strictly below \
         broadcast-to-all without changing a single ranking",
    );
    report.columns([
        "stations",
        "fanout",
        "pruned",
        "routing_bytes",
        "query_bytes",
        "broadcast_bytes",
        "saved_bytes",
        "makespan",
        "broadcast_makespan",
    ]);
    for p in &points {
        report.row_cells([
            Cell::int(u64::from(p.stations)),
            Cell::int(p.fanout as u64),
            Cell::int(p.pruned),
            Cell::int(p.routing_bytes),
            Cell::int(p.query_bytes),
            Cell::int(p.broadcast_bytes),
            Cell::int(p.saved_bytes),
            Cell::int(p.makespan),
            Cell::int(p.broadcast_makespan),
        ]);
    }
    report.note(format!(
        "selective query set: always-on profiles at {WHALE_RATES:?} units/interval, \
         position-tagged keys, seed {}; routing is batch-level (union of the batch's probe \
         keys), so one wide query in the set would pin every station; every point's rankings \
         equal broadcast-to-all",
        scale.seed
    ));
    report.note(
        "routing_bytes is the standing summary-upload + probe-frame cost, metered apart from \
         query_bytes so routed and broadcast query traffic stay directly comparable"
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_covers_the_grid() {
        let report = routing(&Scale::quick());
        // 2 station counts × 2 fanouts.
        assert_eq!(report.rows.len(), 4);
    }

    #[test]
    fn selective_queries_beat_broadcast_at_every_point() {
        let points = routing_sweep(&Scale::quick());
        for p in &points {
            assert!(
                p.pruned > 0,
                "stations {} fanout {}: the tree pruned nothing",
                p.stations,
                p.fanout
            );
            assert!(
                p.query_bytes < p.broadcast_bytes,
                "stations {} fanout {}: routed query traffic not strictly below broadcast",
                p.stations,
                p.fanout
            );
            assert_eq!(p.saved_bytes, p.broadcast_bytes - p.query_bytes);
            assert!(p.routing_bytes > 0, "summary uploads must be metered");
        }
    }

    #[test]
    fn pruning_is_fanout_invariant() {
        // What gets pruned is a property of the summaries and the probe
        // set, not of the tree's shape.
        let points = routing_sweep(&Scale::quick());
        for pair in points.chunks(2) {
            assert_eq!(pair[0].pruned, pair[1].pruned);
            assert_eq!(pair[0].query_bytes, pair[1].query_bytes);
        }
    }
}
