//! The pluggable filter layer of the DI-matching protocol.
//!
//! The paper's protocol is *one* pipeline — the data center builds a filter
//! from the query batch, broadcasts it, every station scans its local store
//! once, and the center aggregates and ranks the reports. What varies
//! between the paper's three methods is only the filter family and its
//! report/ranking semantics. [`FilterStrategy`] captures exactly that
//! variation: the weighted Bloom filter ([`Wbf`]), the plain Bloom baseline
//! ([`Bloom`]) and the ship-everything oracle ([`Naive`]) are three
//! implementations of one trait, and
//! [`run_pipeline`](crate::run_pipeline) is the single generic
//! pipeline they all run through. Adding a fourth method (a compressed
//! filter, an async deployment of any of them) is one `impl`, not another
//! fork of the pipeline.

use bytes::Bytes;
use dipm_core::{encode, BloomFilter, Weight};
use dipm_distsim::{CostMeter, TrafficClass};
use dipm_mobilenet::UserId;
use dipm_timeseries::Pattern;

use crate::basestation::{scan_shard_bloom, scan_shard_wbf, WbfScanSection};
use crate::config::DiMatchingConfig;
use crate::datacenter::{aggregate_and_rank, build_bloom, build_wbf, BuiltBloom, BuiltFilter};
use crate::error::{ProtocolError, Result};
use crate::query::PatternQuery;
use crate::result::{Method, MethodDetails, QueryVerdict};
use crate::wire;

/// Bytes of aggregation state the center keeps per surviving candidate.
pub(crate) const CENTER_ENTRY_BYTES: u64 = 24;

/// One filter family plugged into the generic DI-matching pipeline.
///
/// A strategy owns four protocol moments, each mirroring one algorithm of
/// the paper:
///
/// 1. **[`build`](FilterStrategy::build)** (Algorithm 1) — turn a query
///    group into one broadcastable filter section, with
///    [`encode_filter`](FilterStrategy::encode_filter) /
///    [`decode_filter`](FilterStrategy::decode_filter) defining its wire
///    form inside the batch frame.
/// 2. **[`scan_shard`](FilterStrategy::scan_shard)** (Algorithm 2) — probe
///    one shard of a station's store against *every* query section in a
///    single pass, emitting query-tagged station reports.
/// 3. **[`encode_reports`](FilterStrategy::encode_reports)** /
///    [`decode_reports`](FilterStrategy::decode_reports) — the report wire
///    form (byte-metered by the simulated network).
/// 4. **[`aggregate`](FilterStrategy::aggregate)** (Algorithm 3) — fold the
///    collected reports into one ranking per query.
pub trait FilterStrategy {
    /// The method label attached to outcomes.
    const METHOD: Method;

    /// Whether the strategy broadcasts filter sections at all. The naive
    /// oracle ships raw data instead, so its pipeline run skips the
    /// query-dissemination leg entirely (and meters zero query bytes).
    const BROADCASTS: bool;

    /// The traffic class of station→center report messages.
    const REPORT_CLASS: TrafficClass;

    /// One query group's built filter section, as the data center holds it.
    type BuiltFilter: Send + Sync;

    /// A station's decoded view of one broadcast section.
    type Decoded: Send + Sync;

    /// One station report row (query-tagged where the method is
    /// query-aware).
    type StationReport: Send + Clone;

    /// Algorithm 1: builds one filter section over a query group.
    ///
    /// The batch pipeline calls this once per query (singleton groups — the
    /// batch frame carries per-query sections); the legacy merged builders
    /// call it once with the whole batch.
    ///
    /// # Errors
    ///
    /// Propagates configuration, pattern and filter errors.
    fn build(queries: &[PatternQuery], config: &DiMatchingConfig) -> Result<Self::BuiltFilter>;

    /// The section's distinct probe keys — what a routing tree tests
    /// station summaries against to decide which stations can possibly
    /// report. An empty slice disables routing for the section (the naive
    /// oracle ships raw data regardless of the query set).
    fn routing_keys(built: &Self::BuiltFilter) -> &[u64];

    /// Serializes a built section for the batch broadcast frame.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors.
    fn encode_filter(built: &Self::BuiltFilter) -> Result<Bytes>;

    /// Deserializes a broadcast section at a station.
    ///
    /// # Errors
    ///
    /// Returns a decode error on malformed section bytes.
    fn decode_filter(bytes: Bytes) -> Result<Self::Decoded>;

    /// Algorithm 2 over one shard, batch-first: one pass over the rows,
    /// probing every section.
    ///
    /// # Errors
    ///
    /// Propagates pattern-transformation errors.
    fn scan_shard(
        sections: &[(u32, Self::Decoded)],
        shard: &[(UserId, &Pattern)],
        config: &DiMatchingConfig,
        meter: Option<&CostMeter>,
    ) -> Result<Vec<Self::StationReport>>;

    /// The canonical sort key of a report row — `(query, user)`. Stations
    /// sort merged shard output by this key before encoding, so the report
    /// payload is byte-identical whatever the shard layout or execution
    /// mode.
    fn report_key(report: &Self::StationReport) -> (u32, UserId);

    /// Serializes one station's merged report rows.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::FrameTooLarge`] if the rows exceed the wire
    /// format's length prefixes.
    fn encode_reports(reports: &[Self::StationReport]) -> Result<Bytes>;

    /// Deserializes one station's report payload at the center.
    ///
    /// # Errors
    ///
    /// Returns a decode error on malformed payloads.
    fn decode_reports(payload: Bytes) -> Result<Vec<Self::StationReport>>;

    /// Meters the aggregation state the center retains for this method.
    fn record_center_storage(
        meter: &CostMeter,
        received_bytes: u64,
        reports: &[Self::StationReport],
    );

    /// Algorithm 3: folds every station's reports into one ranking per
    /// query section, in section order.
    ///
    /// # Errors
    ///
    /// Returns an error on reports referencing unknown query ids or on
    /// arithmetic failures while reconstructing candidates.
    fn aggregate(
        sections: &[Self::BuiltFilter],
        reports: Vec<Self::StationReport>,
        config: &DiMatchingConfig,
        meter: &CostMeter,
        top_k: Option<usize>,
    ) -> Result<Vec<QueryVerdict>>;
}

/// Splits query-tagged reports into one bucket per section, rejecting tags
/// no section owns (a malformed or malicious station report).
pub(crate) fn bucket_by_query<R>(
    section_count: usize,
    reports: Vec<R>,
    tag: impl Fn(&R) -> u32,
) -> Result<Vec<Vec<R>>> {
    let mut buckets: Vec<Vec<R>> = std::iter::repeat_with(Vec::new)
        .take(section_count)
        .collect();
    for report in reports {
        let query = tag(&report) as usize;
        match buckets.get_mut(query) {
            Some(bucket) => bucket.push(report),
            None => {
                return Err(ProtocolError::malformed_report(format!(
                    "report references unknown query {query}"
                )))
            }
        }
    }
    Ok(buckets)
}

/// The paper's weighted Bloom filter method (DI-matching proper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wbf;

impl FilterStrategy for Wbf {
    const METHOD: Method = Method::Wbf;
    const BROADCASTS: bool = true;
    const REPORT_CLASS: TrafficClass = TrafficClass::Report;

    type BuiltFilter = BuiltFilter;
    type Decoded = wire::WbfSectionView;
    type StationReport = (u32, UserId, Weight);

    fn build(queries: &[PatternQuery], config: &DiMatchingConfig) -> Result<Self::BuiltFilter> {
        build_wbf(queries, config)
    }

    fn routing_keys(built: &Self::BuiltFilter) -> &[u64] {
        &built.probe_keys
    }

    fn encode_filter(built: &Self::BuiltFilter) -> Result<Bytes> {
        let filter_bytes = encode::encode_wbf(&built.filter).map_err(ProtocolError::Core)?;
        wire::encode_filter_broadcast(&built.query_totals, filter_bytes)
    }

    fn decode_filter(bytes: Bytes) -> Result<Self::Decoded> {
        // Zero-copy: validate the frame once, then probe in place. The
        // view borrows the broadcast bytes instead of rebuilding an owned
        // filter structure per station.
        wire::view_filter_broadcast(bytes)
    }

    fn scan_shard(
        sections: &[(u32, Self::Decoded)],
        shard: &[(UserId, &Pattern)],
        config: &DiMatchingConfig,
        meter: Option<&CostMeter>,
    ) -> Result<Vec<Self::StationReport>> {
        let views: Vec<WbfScanSection<'_, dipm_core::WbfFrameView>> = sections
            .iter()
            .map(|(query, view)| (*query, &view.filter, view.query_totals.as_slice()))
            .collect();
        scan_shard_wbf(&views, shard, config, meter)
    }

    fn report_key(report: &Self::StationReport) -> (u32, UserId) {
        (report.0, report.1)
    }

    fn encode_reports(reports: &[Self::StationReport]) -> Result<Bytes> {
        wire::encode_tagged_weight_reports(reports)
    }

    fn decode_reports(payload: Bytes) -> Result<Vec<Self::StationReport>> {
        wire::decode_tagged_weight_reports(payload)
    }

    fn record_center_storage(
        meter: &CostMeter,
        _received_bytes: u64,
        reports: &[Self::StationReport],
    ) {
        meter.record_storage(reports.len() as u64 * CENTER_ENTRY_BYTES);
    }

    fn aggregate(
        sections: &[Self::BuiltFilter],
        reports: Vec<Self::StationReport>,
        _config: &DiMatchingConfig,
        _meter: &CostMeter,
        top_k: Option<usize>,
    ) -> Result<Vec<QueryVerdict>> {
        let buckets = bucket_by_query(sections.len(), reports, |&(q, _, _)| q)?;
        Ok(sections
            .iter()
            .zip(buckets)
            .map(|(built, bucket)| {
                let weights = aggregate_and_rank(
                    bucket.into_iter().map(|(_, user, w)| (user, w)).collect(),
                    top_k,
                );
                QueryVerdict {
                    ranked: weights.iter().map(|r| r.user).collect(),
                    details: MethodDetails::Wbf {
                        weights,
                        build: built.stats,
                    },
                }
            })
            .collect())
    }
}

/// The paper's plain Bloom-filter baseline (`BF`): identical representation
/// and sampling, membership-only matching, bare-ID reports, ranking by the
/// number of reporting stations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bloom;

impl FilterStrategy for Bloom {
    const METHOD: Method = Method::Bloom;
    const BROADCASTS: bool = true;
    const REPORT_CLASS: TrafficClass = TrafficClass::Report;

    type BuiltFilter = BuiltBloom;
    type Decoded = wire::BloomSectionView;
    type StationReport = (u32, UserId);

    fn build(queries: &[PatternQuery], config: &DiMatchingConfig) -> Result<Self::BuiltFilter> {
        build_bloom(queries, config)
    }

    fn routing_keys(built: &Self::BuiltFilter) -> &[u64] {
        &built.probe_keys
    }

    fn encode_filter(built: &Self::BuiltFilter) -> Result<Bytes> {
        Ok(encode::encode_bloom(&built.filter))
    }

    fn decode_filter(bytes: Bytes) -> Result<Self::Decoded> {
        wire::view_bloom_section(bytes)
    }

    fn scan_shard(
        sections: &[(u32, Self::Decoded)],
        shard: &[(UserId, &Pattern)],
        config: &DiMatchingConfig,
        meter: Option<&CostMeter>,
    ) -> Result<Vec<Self::StationReport>> {
        let views: Vec<(u32, &BloomFilter)> = sections
            .iter()
            .map(|(query, v)| (*query, &v.filter))
            .collect();
        scan_shard_bloom(&views, shard, config, meter)
    }

    fn report_key(report: &Self::StationReport) -> (u32, UserId) {
        *report
    }

    fn encode_reports(reports: &[Self::StationReport]) -> Result<Bytes> {
        wire::encode_tagged_id_reports(reports)
    }

    fn decode_reports(payload: Bytes) -> Result<Vec<Self::StationReport>> {
        wire::decode_tagged_id_reports(payload)
    }

    fn record_center_storage(
        meter: &CostMeter,
        _received_bytes: u64,
        reports: &[Self::StationReport],
    ) {
        // Without weights the center only keeps one counter per distinct
        // (query, candidate) pair.
        let mut distinct: Vec<(u32, UserId)> = reports.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        meter.record_storage(distinct.len() as u64 * CENTER_ENTRY_BYTES);
    }

    fn aggregate(
        sections: &[Self::BuiltFilter],
        reports: Vec<Self::StationReport>,
        _config: &DiMatchingConfig,
        _meter: &CostMeter,
        top_k: Option<usize>,
    ) -> Result<Vec<QueryVerdict>> {
        let buckets = bucket_by_query(sections.len(), reports, |&(q, _)| q)?;
        Ok(sections
            .iter()
            .zip(buckets)
            .map(|(built, bucket)| {
                // Without weights the center can only count reporting
                // stations per candidate.
                let mut counts: std::collections::BTreeMap<UserId, u32> =
                    std::collections::BTreeMap::new();
                for (_, user) in bucket {
                    *counts.entry(user).or_insert(0) += 1;
                }
                let mut station_counts: Vec<(UserId, u32)> = counts.into_iter().collect();
                station_counts.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                if let Some(k) = top_k {
                    station_counts.truncate(k);
                }
                QueryVerdict {
                    ranked: station_counts.iter().map(|&(u, _)| u).collect(),
                    details: MethodDetails::Bloom {
                        station_counts,
                        build: built.stats,
                    },
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_rejects_unknown_query_tags() {
        let reports = vec![(0u32, UserId(1)), (2u32, UserId(2))];
        assert!(bucket_by_query(2, reports.clone(), |&(q, _)| q).is_err());
        let ok = bucket_by_query(3, reports, |&(q, _)| q).unwrap();
        assert_eq!(ok[0], vec![(0, UserId(1))]);
        assert!(ok[1].is_empty());
        assert_eq!(ok[2], vec![(2, UserId(2))]);
    }

    #[test]
    fn wbf_sections_roundtrip_through_the_wire() {
        let query = PatternQuery::from_locals(vec![
            Pattern::from([1u64, 2, 3, 1, 0, 2, 4, 1]),
            Pattern::from([2u64, 2, 2, 0, 1, 3, 0, 2]),
        ])
        .unwrap();
        let config = DiMatchingConfig::default();
        let built = Wbf::build(std::slice::from_ref(&query), &config).unwrap();
        let view = Wbf::decode_filter(Wbf::encode_filter(&built).unwrap()).unwrap();
        // The station-side decode is a zero-copy frame view; semantic
        // equality against the built owned filter is the roundtrip check.
        assert_eq!(view.filter, built.filter);
        assert_eq!(view.query_totals, built.query_totals);

        let bloom = Bloom::build(&[query], &config).unwrap();
        let section = Bloom::decode_filter(Bloom::encode_filter(&bloom).unwrap()).unwrap();
        assert_eq!(section.filter, bloom.filter);
    }

    #[test]
    fn strategy_constants_match_the_paper_roles() {
        fn role<S: FilterStrategy>() -> (Method, bool, TrafficClass) {
            (S::METHOD, S::BROADCASTS, S::REPORT_CLASS)
        }
        assert_eq!(role::<Wbf>(), (Method::Wbf, true, TrafficClass::Report));
        assert_eq!(role::<Bloom>(), (Method::Bloom, true, TrafficClass::Report));
    }
}
