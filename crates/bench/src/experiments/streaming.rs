//! Streaming updates — the rebuild-vs-delta broadcast economics.
//!
//! The paper's WBF is build-once: any change to the standing query set (or
//! a deliberate refresh over churned CDRs) re-broadcasts every filter
//! section — exactly the Fig. 4c dissemination cost, paid again every
//! epoch. The streaming session replaces that with per-epoch
//! [`FilterDelta`](dipm_protocol::wire::FilterDelta) broadcasts, the diff
//! between this epoch's build of the query registry and the last one's:
//! only the positions whose weight set changed cross the network.
//!
//! This experiment sweeps the per-epoch churn rate (the fraction of
//! standing queries replaced each epoch) and meters the actual delta
//! broadcast bytes against what a full rebuild would have shipped that
//! epoch. Two claims the table backs:
//!
//! * pure CDR churn (0 % query churn) costs a near-empty delta — daily
//!   monitoring is effectively free on the dissemination axis;
//! * deltas undercut rebuilds for modest churn (≤ 10 % per epoch is
//!   comfortably below 1×), and the crossover — where per-entry delta
//!   framing outweighs the dense full encoding — only arrives at
//!   rebuild-scale churn, which is honest: a delta protocol should lose
//!   when everything changes.

use dipm_mobilenet::Dataset;
use dipm_protocol::{
    DiMatchingConfig, EpochBroadcast, PatternQuery, PipelineOptions, StreamingSession,
};

use crate::report::{Cell, Report};
use crate::scale::Scale;

/// Standing-query count for the sweep.
const STANDING: usize = 20;

/// Epochs per churn rate (epoch 0 is the full broadcast).
const EPOCHS: u64 = 4;

fn snapshot(scale: &Scale, epoch: u64) -> Dataset {
    Dataset::city_slice(scale.users, scale.stations, scale.seed + epoch).expect("valid preset")
}

fn query_for(dataset: &Dataset, index: usize) -> PatternQuery {
    let user = dataset.users()[index % dataset.users().len()];
    PatternQuery::from_fragments(dataset.fragments(user.id).expect("traffic")).expect("valid query")
}

/// One churn rate's measured epochs.
pub struct ChurnPoint {
    /// Queries replaced per epoch.
    pub churn: usize,
    /// Per-epoch `(delta bytes, rebuild bytes, delta entries)` for epochs
    /// 1.., i.e. every delta-broadcast epoch.
    pub epochs: Vec<(u64, u64, usize)>,
}

/// Runs the churn sweep and returns the raw per-epoch measurements.
pub fn churn_sweep(scale: &Scale) -> Vec<ChurnPoint> {
    let day0 = snapshot(scale, 0);
    let initial: Vec<PatternQuery> = (0..STANDING).map(|i| query_for(&day0, i * 13)).collect();
    // Pin geometry with 2× headroom over the initial build so churned-in
    // queries never force a resize mid-sweep.
    let sized = dipm_protocol::build_wbf(&initial, &DiMatchingConfig::default())
        .expect("initial build")
        .stats;
    let config = DiMatchingConfig {
        fixed_geometry: Some(
            dipm_core::FilterParams::new(sized.bits * 2, sized.hashes).expect("valid geometry"),
        ),
        ..DiMatchingConfig::default()
    };

    // 0 %, 5 %, 10 % and 50 % of the standing set per epoch.
    let churn_counts = [0usize, STANDING / 20, STANDING / 10, STANDING / 2];
    churn_counts
        .iter()
        .map(|&churn| {
            let mut session =
                StreamingSession::new(&initial, config.clone(), PipelineOptions::default())
                    .expect("session opens");
            let mut next_user = STANDING * 13;
            let mut epochs = Vec::new();
            for epoch in 0..EPOCHS {
                if epoch > 0 {
                    // Replace the `churn` oldest live queries with fresh
                    // ones over previously unwatched users.
                    for id in session.live_queries().into_iter().take(churn) {
                        session.remove_query(id).expect("live query removes");
                    }
                    for _ in 0..churn {
                        let query = query_for(&day0, next_user);
                        next_user += 13;
                        session.insert_query(&query).expect("query inserts");
                    }
                }
                let outcome = session
                    .run_epoch(&snapshot(scale, epoch))
                    .expect("epoch runs");
                match outcome.broadcast {
                    EpochBroadcast::Full => {
                        assert_eq!(epoch, 0, "only the first epoch broadcasts the full filter");
                    }
                    EpochBroadcast::Delta { entries } => {
                        epochs.push((outcome.broadcast_bytes, outcome.rebuild_bytes, entries));
                    }
                }
            }
            ChurnPoint { churn, epochs }
        })
        .collect()
}

/// Delta-vs-rebuild broadcast bytes per epoch across churn rates.
pub fn streaming(scale: &Scale) -> Report {
    let mut report = Report::new(
        "Streaming updates",
        "per-epoch delta broadcast bytes vs full-rebuild bytes across standing-query churn rates",
        "standing queries survive streaming updates: pure CDR churn is a near-free delta, and \
         modest query churn stays well below the rebuild the build-once design re-broadcasts",
    );
    report.columns([
        "churn/epoch",
        "rate",
        "avg Δ entries",
        "avg Δ KB",
        "rebuild KB",
        "Δ/rebuild",
    ]);
    for point in churn_sweep(scale) {
        let n = point.epochs.len() as f64;
        let avg_delta = point.epochs.iter().map(|&(d, _, _)| d).sum::<u64>() as f64 / n;
        let avg_rebuild = point.epochs.iter().map(|&(_, r, _)| r).sum::<u64>() as f64 / n;
        let avg_entries = point.epochs.iter().map(|&(_, _, e)| e).sum::<usize>() as f64 / n;
        let rate = point.churn as f64 * 100.0 / STANDING as f64;
        report.row_cells([
            Cell::int(point.churn as u64),
            Cell::rendered(rate, format!("{rate:.0}%")),
            Cell::float(avg_entries, 0),
            Cell::float(avg_delta / 1024.0, 1),
            Cell::float(avg_rebuild / 1024.0, 1),
            Cell::float(avg_delta / avg_rebuild, 2),
        ]);
    }
    report.note(format!(
        "{STANDING} standing queries over {} users, {} epochs per rate, geometry pinned at 2× \
         headroom, seed {}",
        scale.users, EPOCHS, scale.seed
    ));
    report.note(
        "epoch 0 always ships the full filter once; every later epoch ships only changed \
         positions"
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_beat_rebuilds_up_to_ten_percent_churn() {
        let mut scale = Scale::quick();
        scale.users = 300;
        let points = churn_sweep(&scale);
        assert_eq!(points.len(), 4);
        for point in &points {
            assert_eq!(point.epochs.len() as u64, EPOCHS - 1);
            let rate = point.churn as f64 / STANDING as f64;
            if rate <= 0.10 {
                for &(delta, rebuild, _) in &point.epochs {
                    assert!(
                        delta < rebuild,
                        "churn {} ({}%): delta {delta} must undercut rebuild {rebuild}",
                        point.churn,
                        rate * 100.0
                    );
                }
            }
        }
        // Pure CDR churn is near-free: two orders below the rebuild.
        let idle = &points[0];
        for &(delta, rebuild, entries) in &idle.epochs {
            assert_eq!(entries, 0);
            assert!(
                delta * 50 < rebuild,
                "idle delta {delta} vs rebuild {rebuild}"
            );
        }
    }

    #[test]
    fn streaming_report_is_deterministic() {
        let mut scale = Scale::quick();
        scale.users = 300;
        let first = streaming(&scale);
        let second = streaming(&scale);
        assert_eq!(first.rows, second.rows);
        assert_eq!(first.rows.len(), 4, "four churn rates");
    }
}
