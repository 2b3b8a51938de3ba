//! The naive baseline (Approach 1 of Section III-C) as a
//! [`FilterStrategy`]: ship every station's raw data to the center and
//! match there.
//!
//! This is the accuracy gold standard — the center sees true global patterns
//! — but pays for it by moving the entire distributed corpus over the
//! network and storing it centrally. It broadcasts no filter
//! (`BROADCASTS = false`), its "scan" is a full shard dump, and its
//! aggregation reconstructs per-user globals and ranks by Chebyshev
//! distance per query.

use bytes::Bytes;
use dipm_distsim::{CostMeter, ExecutionMode, TrafficClass};
use dipm_mobilenet::{Dataset, UserId};
use dipm_timeseries::{chebyshev_distance, Pattern};

use crate::config::DiMatchingConfig;
use crate::error::Result;
use crate::pipeline::{run_pipeline, PipelineOptions, SectionGrouping};
use crate::query::PatternQuery;
use crate::result::{Method, MethodDetails, QueryOutcome, QueryVerdict};
use crate::strategy::FilterStrategy;
use crate::wire;

/// The ship-everything oracle method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Naive;

impl FilterStrategy for Naive {
    const METHOD: Method = Method::Naive;
    const BROADCASTS: bool = false;
    const REPORT_CLASS: TrafficClass = TrafficClass::Data;

    /// The query group's global patterns — kept at the center for the
    /// final matching; nothing is broadcast.
    type BuiltFilter = Vec<Pattern>;
    type Decoded = ();
    type StationReport = (UserId, Pattern);

    fn build(queries: &[PatternQuery], _config: &DiMatchingConfig) -> Result<Self::BuiltFilter> {
        Ok(queries.iter().map(|q| q.global().clone()).collect())
    }

    fn routing_keys(_built: &Self::BuiltFilter) -> &[u64] {
        // The oracle broadcasts nothing, so there is nothing to route: every
        // station ships its data whatever the query set.
        &[]
    }

    fn encode_filter(_built: &Self::BuiltFilter) -> Result<Bytes> {
        Ok(Bytes::new())
    }

    fn decode_filter(_bytes: Bytes) -> Result<Self::Decoded> {
        Ok(())
    }

    fn scan_shard(
        _sections: &[(u32, Self::Decoded)],
        shard: &[(UserId, &Pattern)],
        _config: &DiMatchingConfig,
        _meter: Option<&CostMeter>,
    ) -> Result<Vec<Self::StationReport>> {
        // The whole shard ships, once per batch — the method is oblivious
        // to how many queries the batch carries.
        Ok(shard
            .iter()
            .map(|&(user, pattern)| (user, pattern.clone()))
            .collect())
    }

    fn report_key(report: &Self::StationReport) -> (u32, UserId) {
        (0, report.0)
    }

    fn encode_reports(reports: &[Self::StationReport]) -> Result<Bytes> {
        wire::encode_station_data(reports.iter().map(|(u, p)| (*u, p)))
    }

    fn decode_reports(payload: Bytes) -> Result<Vec<Self::StationReport>> {
        wire::decode_station_data(payload)
    }

    fn record_center_storage(
        meter: &CostMeter,
        received_bytes: u64,
        _reports: &[Self::StationReport],
    ) {
        // The center stores everything it received.
        meter.record_storage(received_bytes);
    }

    fn aggregate(
        sections: &[Self::BuiltFilter],
        reports: Vec<Self::StationReport>,
        config: &DiMatchingConfig,
        meter: &CostMeter,
        top_k: Option<usize>,
    ) -> Result<Vec<QueryVerdict>> {
        // The center aggregates global patterns from the shipped fragments…
        let mut globals: std::collections::BTreeMap<UserId, Pattern> =
            std::collections::BTreeMap::new();
        for (user, fragment) in reports {
            match globals.remove(&user) {
                Some(existing) => {
                    globals.insert(user, existing.checked_add(&fragment)?);
                }
                None => {
                    globals.insert(user, fragment);
                }
            }
        }
        // …and matches every query global against every user global.
        Ok(sections
            .iter()
            .map(|query_globals| {
                let mut best: std::collections::BTreeMap<UserId, u64> =
                    std::collections::BTreeMap::new();
                for query_global in query_globals {
                    for (&user, global) in &globals {
                        meter.record_comparisons(1);
                        if let Some(d) = chebyshev_distance(global, query_global) {
                            if d <= config.eps {
                                best.entry(user)
                                    .and_modify(|cur| *cur = (*cur).min(d))
                                    .or_insert(d);
                            }
                        }
                    }
                }
                let mut distances: Vec<(UserId, u64)> = best.into_iter().collect();
                distances.sort_unstable_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
                if let Some(k) = top_k {
                    distances.truncate(k);
                }
                QueryVerdict {
                    ranked: distances.iter().map(|&(u, _)| u).collect(),
                    details: MethodDetails::Naive { distances },
                }
            })
            .collect())
    }
}

/// Runs the naive method: every station ships all `(user, local pattern)`
/// data to the center, which aggregates per-user globals and retrieves the
/// users within `eps` of any query global, ranked by ascending Chebyshev
/// distance (exact matches first).
///
/// Thin wrapper over [`run_pipeline::<Naive>`](run_pipeline) with an
/// unsharded layout, merged into one outcome.
///
/// # Errors
///
/// Propagates pattern and network errors.
pub fn run_naive(
    dataset: &Dataset,
    queries: &[PatternQuery],
    eps: u64,
    mode: ExecutionMode,
    top_k: Option<usize>,
) -> Result<QueryOutcome> {
    let config = DiMatchingConfig {
        eps,
        ..DiMatchingConfig::default()
    };
    let options = PipelineOptions {
        mode,
        top_k,
        grouping: SectionGrouping::Merged,
        ..PipelineOptions::default()
    };
    Ok(run_pipeline::<Naive>(dataset, queries, &config, &options)?.into_merged(top_k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dipm_mobilenet::ground_truth;

    fn probe_query(dataset: &Dataset, user_index: usize) -> PatternQuery {
        let user = dataset.users()[user_index];
        PatternQuery::from_fragments(dataset.fragments(user.id).unwrap()).unwrap()
    }

    #[test]
    fn naive_retrieves_exactly_the_ground_truth() {
        let dataset = Dataset::small(31);
        let query = probe_query(&dataset, 0);
        let eps = 3;
        let outcome = run_naive(
            &dataset,
            std::slice::from_ref(&query),
            eps,
            ExecutionMode::Sequential,
            None,
        )
        .unwrap();
        let relevant = ground_truth::eps_similar_users(&dataset, query.global(), eps);
        let retrieved: std::collections::BTreeSet<UserId> =
            outcome.ranked.iter().copied().collect();
        assert_eq!(retrieved, relevant, "naive must be exact");
    }

    #[test]
    fn naive_ranks_exact_match_first() {
        let dataset = Dataset::small(32);
        let query = probe_query(&dataset, 0);
        let outcome = run_naive(&dataset, &[query], 4, ExecutionMode::Sequential, None).unwrap();
        let MethodDetails::Naive { distances } = &outcome.details else {
            panic!("wrong detail variant");
        };
        assert!(distances.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(distances[0].1, 0, "probe user matches exactly");
    }

    #[test]
    fn naive_ships_the_whole_corpus() {
        let dataset = Dataset::small(33);
        let query = probe_query(&dataset, 0);
        let outcome = run_naive(&dataset, &[query], 2, ExecutionMode::Sequential, None).unwrap();
        // Data traffic dominates and equals stored bytes at the center.
        assert!(outcome.cost.data_bytes > 0);
        assert_eq!(outcome.cost.data_bytes, outcome.cost.storage_bytes);
        assert_eq!(outcome.cost.query_bytes, 0);
        // Shipment is at least the raw corpus size (headers add a little).
        assert!(outcome.cost.data_bytes >= dataset.raw_data_bytes());
    }

    #[test]
    fn naive_async_matches_sequential() {
        let dataset = Dataset::small(34);
        let query = probe_query(&dataset, 2);
        let seq = run_naive(
            &dataset,
            std::slice::from_ref(&query),
            3,
            ExecutionMode::Sequential,
            None,
        )
        .unwrap();
        let modeled = run_naive(
            &dataset,
            &[query],
            3,
            ExecutionMode::Async { workers: 1 },
            None,
        )
        .unwrap();
        assert_eq!(seq.ranked, modeled.ranked);
    }

    #[test]
    fn naive_batch_ships_the_corpus_once() {
        // The oracle's cost is batch-oblivious: five queries move exactly
        // as many data bytes as one.
        let dataset = Dataset::small(36);
        let one = run_naive(
            &dataset,
            &[probe_query(&dataset, 0)],
            3,
            ExecutionMode::Sequential,
            None,
        )
        .unwrap();
        let five: Vec<PatternQuery> = (0..5).map(|i| probe_query(&dataset, i)).collect();
        let many = run_naive(&dataset, &five, 3, ExecutionMode::Sequential, None).unwrap();
        assert_eq!(one.cost.data_bytes, many.cost.data_bytes);
        assert_eq!(one.cost.scan_passes, many.cost.scan_passes);
    }

    #[test]
    fn naive_top_k() {
        let dataset = Dataset::small(35);
        let query = probe_query(&dataset, 0);
        let outcome =
            run_naive(&dataset, &[query], 10, ExecutionMode::Sequential, Some(3)).unwrap();
        assert!(outcome.ranked.len() <= 3);
    }
}
