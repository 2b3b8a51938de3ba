//! The generic, batch-first DI-matching pipeline over the simulated
//! deployment.
//!
//! [`run_pipeline`] is the *one* implementation of the paper's protocol,
//! parameterized by a [`FilterStrategy`]: the data center builds one filter
//! section per query (Algorithm 1), broadcasts the batch frame, every
//! station decodes it once and scans its hash-sharded local store in **one
//! pass per batch** (Algorithm 2 — one plain call per station, in station
//! order), ships canonical-ordered reports back, and the center aggregates
//! one ranking per query (Algorithm 3) — metering every byte and operation
//! along the way. The station side is the same code in every
//! [`ExecutionMode`]: the mode picks only whether the network models time.
//!
//! Every WBF station runs the one exact pruning scan
//! ([`scan_shard_wbf`](crate::scan_shard_wbf)): it skips only
//! `(row, section)` pairs that provably report nothing, so rankings and
//! byte meters are those of an exhaustive scan in every execution mode.
//!
//! [`run_wbf`] and [`run_bloom`] are thin wrappers:
//! `run_pipeline::<Wbf>` / `run_pipeline::<Bloom>` with an unsharded layout,
//! merged into the legacy single-outcome shape (as is
//! [`run_naive`](crate::run_naive) over the [`Naive`](crate::Naive)
//! strategy).

use std::collections::BTreeMap;
use std::time::Instant;

use dipm_distsim::{
    ExecutionMode, LatencyModel, LatencyReport, Network, NodeId, StationLatency, TrafficClass,
    DATA_CENTER,
};
use dipm_mobilenet::{Dataset, StationId, UserId};
use dipm_timeseries::Pattern;

use crate::basestation::{BaseStation, Shards};
use crate::config::{DiMatchingConfig, RoutingPolicy};
use crate::error::Result;
use crate::query::PatternQuery;
use crate::result::{BatchOutcome, QueryOutcome};
use crate::routing;
use crate::strategy::{Bloom, FilterStrategy, Wbf};
use crate::wire;

/// How a query batch maps onto broadcast filter sections.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum SectionGrouping {
    /// One filter section per query: the batch frame carries per-query
    /// sections and the outcome one ranking per query. Costs a larger
    /// broadcast (no cross-query key dedup) in exchange for per-query
    /// answers.
    #[default]
    PerQuery,
    /// One merged section over the whole batch — the paper's Algorithm 1,
    /// where all given patterns share one filter and one ranking. The
    /// outcome carries a single verdict. This is what the legacy
    /// single-outcome entry points use.
    Merged,
}

/// Deployment knobs of one pipeline run — how the fixed protocol executes,
/// as opposed to [`DiMatchingConfig`], which fixes *what* is computed.
///
/// A multi-tenant [`Service`](crate::Service) holds exactly one of these
/// for all its tenants: mode, shard layout and latency model describe the
/// shared deployment (one station layout, one modeled timeline), while
/// each tenant's `DiMatchingConfig` stays per-session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineOptions {
    /// Whether the run models time.
    pub mode: ExecutionMode,
    /// The per-station shard layout (pure `UserId → shard`; identical
    /// results for every count).
    pub shards: Shards,
    /// Keep only the best `K` candidates per query ranking.
    pub top_k: Option<usize>,
    /// How queries group into broadcast sections.
    pub grouping: SectionGrouping,
    /// Modeled flight and scan times, used only under
    /// [`ExecutionMode::Async`]: broadcast and report envelopes are stamped
    /// with virtual delivery ticks and the run reports a deterministic
    /// `makespan_ticks`. [`ExecutionMode::Sequential`] runs on an unmodeled
    /// network and ignores it entirely. Either way it cannot perturb the
    /// mode-invariant byte meters.
    pub latency: LatencyModel,
}

impl PipelineOptions {
    /// The simulated network one run executes on: stamped with
    /// `self.latency` under [`ExecutionMode::Async`], unmodeled (every
    /// stamp zero) under [`ExecutionMode::Sequential`]. Everything
    /// downstream asks the network, never the mode, whether time is
    /// modeled.
    pub(crate) fn network(&self) -> Network {
        match self.mode {
            ExecutionMode::Async { .. } => Network::with_latency(self.latency),
            ExecutionMode::Sequential => Network::new(),
        }
    }
}

impl Default for PipelineOptions {
    fn default() -> PipelineOptions {
        PipelineOptions {
            mode: ExecutionMode::Sequential,
            shards: Shards::new(1),
            top_k: None,
            grouping: SectionGrouping::PerQuery,
            latency: LatencyModel::default(),
        }
    }
}

fn station_nodes(dataset: &Dataset) -> Vec<(usize, StationId, NodeId)> {
    dataset
        .stations()
        .iter()
        .enumerate()
        .map(|(i, &s)| (i, s, NodeId::base_station(i as u32)))
        .collect()
}

/// The center's admitted station report frames for one batch or epoch, in
/// canonical station order, plus the run's delivery metrics.
pub(crate) struct CollectedReports {
    /// `(frame, delivered_tick)` sorted by station id.
    pub(crate) frames: Vec<(wire::ReportFrame, u64)>,
    /// Total report payload bytes received.
    pub(crate) received_bytes: u64,
    /// The latest modeled delivery tick (zero in unmodeled runs).
    pub(crate) makespan: u64,
    /// The latency dimension, in modeled delivery order; `None` when the
    /// network does not model time.
    pub(crate) latency: Option<LatencyReport>,
}

/// The shared Algorithm 3 intake: drains the center's mailbox, works
/// through the frames in modeled delivery order (never in the order the
/// simulation ran the stations) and admits them one by one — duplicate
/// stations, unknown ids, time-traveling stamps and delivery regressions
/// all error, never double-count. The returned frames are in canonical
/// station order so downstream aggregation input is identical whatever
/// order stations finished in. Records the makespan on the network's meter.
pub(crate) fn collect_station_reports(
    center: &dipm_distsim::Mailbox,
    network: &Network,
    shard_count: u32,
    station_count: u32,
) -> Result<CollectedReports> {
    let mut received_bytes = 0u64;
    let mut arrivals: Vec<(wire::ReportFrame, u64)> = Vec::new();
    for envelope in center.drain() {
        received_bytes += envelope.payload.len() as u64;
        let deliver_at = envelope.deliver_at;
        arrivals.push((
            wire::decode_batch_reports(envelope.payload, shard_count)?,
            deliver_at,
        ));
    }
    arrivals.sort_by_key(|(frame, deliver)| (*deliver, frame.station));
    let mut collector = wire::ReportCollector::new(shard_count, station_count);
    for (frame, deliver) in &arrivals {
        collector.admit(frame, *deliver)?;
    }
    let makespan = arrivals
        .iter()
        .map(|&(_, deliver)| deliver)
        .max()
        .unwrap_or(0);
    network.meter().record_makespan(makespan);
    let latency = network.latency_model().map(|_| LatencyReport {
        makespan_ticks: makespan,
        stations: arrivals
            .iter()
            .map(|(frame, deliver)| StationLatency {
                station: frame.station,
                report_sent: frame.sent_tick,
                report_delivered: *deliver,
            })
            .collect(),
    });
    arrivals.sort_by_key(|(frame, _)| frame.station);
    Ok(CollectedReports {
        frames: arrivals,
        received_bytes,
        makespan,
        latency,
    })
}

/// Algorithm 2 at one station once its filter sections are ready, shared
/// by the batch pipeline and the streaming epoch engine: scans the shards
/// in order, merges their output in canonical `(query, user)` order (the
/// report bytes are identical whatever the shard layout) and sends the
/// stamped report frame to the center.
///
/// `station_now` is the station's own modeled timeline, starting at its
/// broadcast copy's delivery tick; each shard's modeled scan time is
/// charged to it, and the report is stamped from it. No stamp depends on
/// when the simulation runs the station. On an unmodeled network every
/// tick stays zero.
pub(crate) fn scan_and_report<S: FilterStrategy>(
    network: &Network,
    station: usize,
    layout: &BaseStation<'_>,
    mut station_now: u64,
    scan: impl Fn(&[(UserId, &Pattern)]) -> Result<Vec<S::StationReport>>,
) -> Result<()> {
    let mut merged: Vec<S::StationReport> = Vec::new();
    for shard_index in 0..layout.shard_count() {
        let shard = layout.shard(shard_index);
        let scan_ticks = network
            .latency_model()
            .map_or(0, |model| model.scan_ticks(shard.len()));
        station_now = station_now.saturating_add(scan_ticks);
        merged.extend(scan(shard)?);
    }
    merged.sort_by_key(S::report_key);
    network.meter().record_scan_pass();
    let payload = wire::encode_batch_reports(
        layout.shard_count() as u32,
        station as u32,
        station_now,
        S::encode_reports(&merged)?,
    );
    network.send_at(
        NodeId::base_station(station as u32),
        DATA_CENTER,
        S::REPORT_CLASS,
        payload,
        station_now,
    )?;
    Ok(())
}

/// Runs the full DI-matching protocol for a batch of queries under filter
/// strategy `S`.
///
/// The batch is first-class end to end: one build pass producing filter
/// sections (per query under [`SectionGrouping::PerQuery`], one merged
/// section under [`SectionGrouping::Merged`]), **one broadcast** carrying
/// all of them, **one scan pass per station** (asserted via the meter's
/// `scan_passes` — a batch of Q queries over N stations records exactly N
/// passes, not Q × N), one report per station, and one ranking per section
/// in the returned [`BatchOutcome`]. Single-query use is just a batch of
/// one; the legacy entry points wrap exactly that.
///
/// # Errors
///
/// Propagates configuration, pattern, filter, wire and network errors.
///
/// # Examples
///
/// ```
/// use dipm_distsim::ExecutionMode;
/// use dipm_mobilenet::Dataset;
/// use dipm_protocol::{run_pipeline, DiMatchingConfig, PatternQuery, PipelineOptions, Shards, Wbf};
///
/// # fn main() -> Result<(), dipm_protocol::ProtocolError> {
/// let dataset = Dataset::small(7);
/// let queries: Vec<PatternQuery> = (0..3)
///     .map(|i| {
///         let probe = dataset.users()[i];
///         PatternQuery::from_fragments(dataset.fragments(probe.id).unwrap())
///     })
///     .collect::<Result<_, _>>()?;
/// let options = PipelineOptions {
///     mode: ExecutionMode::Async { workers: 1 },
///     shards: Shards::new(2),
///     top_k: Some(10),
///     ..PipelineOptions::default()
/// };
/// let batch = run_pipeline::<Wbf>(&dataset, &queries, &DiMatchingConfig::default(), &options)?;
/// assert_eq!(batch.queries.len(), 3);
/// // One scan pass per station, however many queries the batch carries.
/// assert_eq!(batch.cost.scan_passes as usize, dataset.stations().len());
/// assert!(batch.queries[0].ranked.contains(&dataset.users()[0].id));
/// # Ok(())
/// # }
/// ```
pub fn run_pipeline<S: FilterStrategy>(
    dataset: &Dataset,
    queries: &[PatternQuery],
    config: &DiMatchingConfig,
    options: &PipelineOptions,
) -> Result<BatchOutcome> {
    let start = Instant::now();
    config.validate()?;
    let network = options.network();
    let center = network.register(DATA_CENTER)?;
    let stations = station_nodes(dataset);
    let mailboxes = stations
        .iter()
        .map(|&(_, _, node)| network.register(node))
        .collect::<dipm_distsim::Result<Vec<_>>>()?;

    // Algorithm 1 at the data center: one filter section per query group,
    // one batch frame for all of them.
    let groups: Vec<&[PatternQuery]> = match options.grouping {
        SectionGrouping::PerQuery => queries.chunks(1).collect(),
        SectionGrouping::Merged => vec![queries],
    };
    let sections: Vec<S::BuiltFilter> = groups
        .iter()
        .map(|group| S::build(group, config))
        .collect::<Result<_>>()?;

    // Query routing: under a tree policy the center unions the batch's probe
    // keys, probes the Bloofi tree of station summaries, and broadcasts only
    // to stations whose subtree can possibly match. `None` means broadcast
    // to all — the default, and the only option for a strategy that ships no
    // filter (there is nothing to route by).
    let routed: Option<Vec<bool>> = match config.routing {
        RoutingPolicy::Tree { fanout } if S::BROADCASTS => {
            let keys: Vec<u64> = sections
                .iter()
                .flat_map(|s| S::routing_keys(s).iter().copied())
                .collect::<std::collections::BTreeSet<u64>>()
                .into_iter()
                .collect();
            Some(routing::route_batch(
                dataset,
                &keys,
                fanout,
                config,
                network.meter(),
            )?)
        }
        _ => None,
    };
    let active = |i: usize| routed.as_ref().map_or(true, |mask| mask[i]);

    if S::BROADCASTS {
        let payloads: Vec<(u32, bytes::Bytes)> = sections
            .iter()
            .enumerate()
            .map(|(i, s)| Ok((i as u32, S::encode_filter(s)?)))
            .collect::<Result<_>>()?;
        let frame = wire::encode_batch_broadcast(&payloads)?;
        let recipients: Vec<NodeId> = stations
            .iter()
            .filter(|&&(i, _, _)| active(i))
            .map(|&(_, _, node)| node)
            .collect();
        network.broadcast(
            DATA_CENTER,
            recipients.iter().copied(),
            TrafficClass::Query,
            &frame,
        )?;
        // Each targeted station holds a copy of the batch frame while it is
        // live; pruned stations never see (or store) it.
        network
            .meter()
            .record_storage(frame.len() as u64 * recipients.len() as u64);
    }

    // Station side, Algorithm 2: one call per targeted station, in station
    // order. It receives its broadcast copy, starts its timeline at the
    // copy's modeled delivery tick, decodes the frame once and scans its
    // shards. Every station runs even if an earlier one failed; the first
    // error in station order is returned. Pruned stations received nothing,
    // so their mailboxes are never read.
    let empty = BTreeMap::new();
    let layouts: Vec<BaseStation<'_>> = stations
        .iter()
        .map(|&(_, station, _)| {
            let locals = dataset.station_locals(station).unwrap_or(&empty);
            BaseStation::from_locals(station, locals, options.shards)
        })
        .collect();
    let results: Vec<Result<()>> = mailboxes
        .iter()
        .enumerate()
        .filter(|&(i, _)| active(i))
        .map(|(i, mailbox)| {
            let mut station_now = 0;
            let mut sections: Vec<(u32, S::Decoded)> = Vec::new();
            if S::BROADCASTS {
                let envelope = mailbox.recv()?;
                station_now = envelope.deliver_at;
                for (query, bytes) in wire::decode_batch_broadcast(envelope.payload)? {
                    sections.push((query, S::decode_filter(bytes)?));
                }
            }
            scan_and_report::<S>(&network, i, &layouts[i], station_now, |shard| {
                S::scan_shard(&sections, shard, config, Some(network.meter()))
            })
        })
        .collect();
    results.into_iter().collect::<Result<()>>()?;

    // Algorithm 3 at the data center: admit, order and decode the report
    // frames (shared with the streaming epoch runner), then aggregate.
    let shard_count = options.shards.count() as u32;
    let collected = collect_station_reports(&center, &network, shard_count, stations.len() as u32)?;
    let received_bytes = collected.received_bytes;
    let mut all_reports: Vec<S::StationReport> = Vec::new();
    for (frame, _) in &collected.frames {
        all_reports.extend(S::decode_reports(frame.payload.clone())?);
    }
    S::record_center_storage(network.meter(), received_bytes, &all_reports);
    let verdicts = S::aggregate(
        &sections,
        all_reports,
        config,
        network.meter(),
        options.top_k,
    )?;

    Ok(BatchOutcome {
        method: S::METHOD,
        queries: verdicts,
        cost: network.meter().report(),
        latency: collected.latency,
        elapsed: start.elapsed(),
    })
}

/// Runs full DI-matching with the weighted Bloom filter.
///
/// Thin wrapper: [`run_pipeline::<Wbf>`](run_pipeline) with an unsharded
/// layout and one merged filter over the whole query set (the paper's
/// Algorithm 1), collapsed into one outcome.
///
/// `top_k = None` returns every surviving candidate in rank order.
///
/// # Errors
///
/// Propagates configuration, pattern, filter and network errors.
///
/// # Examples
///
/// ```
/// use dipm_mobilenet::Dataset;
/// use dipm_protocol::{run_wbf, DiMatchingConfig, PatternQuery};
/// use dipm_distsim::ExecutionMode;
///
/// # fn main() -> Result<(), dipm_protocol::ProtocolError> {
/// let dataset = Dataset::small(7);
/// let probe = dataset.users()[0];
/// let query = PatternQuery::from_fragments(dataset.fragments(probe.id).unwrap())?;
/// let outcome = run_wbf(
///     &dataset,
///     &[query],
///     &DiMatchingConfig::default(),
///     ExecutionMode::Sequential,
///     Some(10),
/// )?;
/// assert!(outcome.ranked.contains(&probe.id));
/// # Ok(())
/// # }
/// ```
pub fn run_wbf(
    dataset: &Dataset,
    queries: &[PatternQuery],
    config: &DiMatchingConfig,
    mode: ExecutionMode,
    top_k: Option<usize>,
) -> Result<QueryOutcome> {
    let options = PipelineOptions {
        mode,
        top_k,
        grouping: SectionGrouping::Merged,
        ..PipelineOptions::default()
    };
    Ok(run_pipeline::<Wbf>(dataset, queries, config, &options)?.into_merged(top_k))
}

/// Runs DI-matching with the plain Bloom filter (the paper's `BF` method):
/// same representation and sampling, membership-only matching, bare-ID
/// reports, ranking by the number of reporting stations.
///
/// Thin wrapper: [`run_pipeline::<Bloom>`](run_pipeline) with an unsharded
/// layout and one merged filter over the whole query set, collapsed into
/// one outcome.
///
/// # Errors
///
/// Propagates configuration, pattern, filter and network errors.
pub fn run_bloom(
    dataset: &Dataset,
    queries: &[PatternQuery],
    config: &DiMatchingConfig,
    mode: ExecutionMode,
    top_k: Option<usize>,
) -> Result<QueryOutcome> {
    let options = PipelineOptions {
        mode,
        top_k,
        grouping: SectionGrouping::Merged,
        ..PipelineOptions::default()
    };
    Ok(run_pipeline::<Bloom>(dataset, queries, config, &options)?.into_merged(top_k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::{Method, MethodDetails};
    use dipm_core::Weight;

    fn probe_query(dataset: &Dataset, user_index: usize) -> PatternQuery {
        let user = dataset.users()[user_index];
        PatternQuery::from_fragments(dataset.fragments(user.id).unwrap()).unwrap()
    }

    #[test]
    fn wbf_retrieves_probe_user() {
        let dataset = Dataset::small(21);
        let query = probe_query(&dataset, 0);
        let outcome = run_wbf(
            &dataset,
            &[query],
            &DiMatchingConfig::default(),
            ExecutionMode::Sequential,
            None,
        )
        .unwrap();
        let probe = dataset.users()[0].id;
        assert!(outcome.ranked.contains(&probe));
        let MethodDetails::Wbf { weights, .. } = &outcome.details else {
            panic!("wrong detail variant");
        };
        let entry = weights.iter().find(|r| r.user == probe).unwrap();
        // Ambiguous band overlaps can under-report fragment weights, so the
        // probe's sum is at most 1, and never deleted.
        assert!(entry.weight_sum <= Weight::ONE);
        assert!(!entry.weight_sum.is_zero());
    }

    #[test]
    fn clean_decomposition_aggregates_to_exactly_one() {
        // With ε = 0 and well-separated fragments there is no band overlap:
        // every station reports its exact combination weight and the probe's
        // weights sum to exactly 1 (Section IV-B's headline property).
        use dipm_mobilenet::TraceConfig;
        let dataset = TraceConfig::new(30, 6)
            .noise(0)
            .seed(77)
            .generate()
            .unwrap();
        let probe = dataset.users()[0];
        let query = PatternQuery::from_fragments(dataset.fragments(probe.id).unwrap()).unwrap();
        let config = DiMatchingConfig {
            eps: 0,
            ..Default::default()
        };
        let outcome =
            run_wbf(&dataset, &[query], &config, ExecutionMode::Sequential, None).unwrap();
        let MethodDetails::Wbf { weights, .. } = &outcome.details else {
            panic!("wrong detail variant");
        };
        let entry = weights.iter().find(|r| r.user == probe.id).unwrap();
        assert_eq!(entry.weight_sum, Weight::ONE);
    }

    #[test]
    fn all_modes_agree() {
        let dataset = Dataset::small(22);
        let query = probe_query(&dataset, 3);
        let config = DiMatchingConfig::default();
        let seq = run_wbf(
            &dataset,
            std::slice::from_ref(&query),
            &config,
            ExecutionMode::Sequential,
            None,
        )
        .unwrap();
        let modeled = run_wbf(
            &dataset,
            &[query],
            &config,
            ExecutionMode::Async { workers: 1 },
            None,
        )
        .unwrap();
        assert_eq!(seq.ranked, modeled.ranked);
        // Communication costs are identical; only modeled time may differ.
        assert_eq!(seq.cost, modeled.cost.mode_invariant());
    }

    #[test]
    fn sharded_run_matches_unsharded() {
        let dataset = Dataset::small(27);
        let query = probe_query(&dataset, 1);
        let config = DiMatchingConfig::default();
        let run = |shards: usize| {
            let options = PipelineOptions {
                shards: Shards::new(shards),
                ..PipelineOptions::default()
            };
            run_pipeline::<Wbf>(&dataset, std::slice::from_ref(&query), &config, &options).unwrap()
        };
        let flat = run(1);
        for shards in [2, 5] {
            let sharded = run(shards);
            assert_eq!(flat.queries[0].ranked, sharded.queries[0].ranked);
            // Canonical report ordering keeps the whole cost report
            // byte-identical across shard layouts.
            assert_eq!(flat.cost, sharded.cost);
        }
    }

    #[test]
    fn batch_scans_each_station_once() {
        let dataset = Dataset::small(28);
        let queries: Vec<PatternQuery> = (0..4).map(|i| probe_query(&dataset, i)).collect();
        let config = DiMatchingConfig::default();
        let batch =
            run_pipeline::<Wbf>(&dataset, &queries, &config, &PipelineOptions::default()).unwrap();
        assert_eq!(batch.queries.len(), 4);
        assert_eq!(
            batch.cost.scan_passes as usize,
            dataset.stations().len(),
            "a batch of Q queries must scan each station once, not Q times"
        );
        assert_eq!(
            batch.cost.messages as usize,
            dataset.stations().len() * 2,
            "one broadcast and one report per station"
        );
    }

    #[test]
    fn async_mode_agrees_and_reports_latency() {
        let dataset = Dataset::small(37);
        let queries: Vec<PatternQuery> = (0..3).map(|i| probe_query(&dataset, i * 2)).collect();
        let config = DiMatchingConfig::default();
        let model = LatencyModel {
            base_ticks: 50,
            ticks_per_byte: 1,
            ticks_per_row: 2,
            jitter_ticks: 7,
            seed: 11,
        };
        let stations = dataset.stations();
        let empty = BTreeMap::new();
        for shards in [1, 3] {
            for grouping in [SectionGrouping::PerQuery, SectionGrouping::Merged] {
                let sequential = PipelineOptions {
                    shards: Shards::new(shards),
                    grouping,
                    ..PipelineOptions::default()
                };
                let reference =
                    run_pipeline::<Wbf>(&dataset, &queries, &config, &sequential).unwrap();
                assert!(reference.latency.is_none(), "sync modes do not model time");
                assert_eq!(reference.cost.makespan_ticks, 0);
                let options = PipelineOptions {
                    mode: ExecutionMode::Async { workers: 1 },
                    latency: model,
                    ..sequential
                };
                let run = || run_pipeline::<Wbf>(&dataset, &queries, &config, &options).unwrap();
                let first = run();
                // Answers and mode-invariant meters are identical to
                // Sequential…
                for (a, b) in reference.queries.iter().zip(&first.queries) {
                    assert_eq!(a.ranked, b.ranked);
                }
                assert_eq!(reference.cost, first.cost.mode_invariant());
                // …and every stamp is the modeled timeline's arithmetic: a
                // station reports once its broadcast copy has flown and
                // each of its shards has been charged its scan ticks.
                let latency = first.latency.as_ref().expect("async models time");
                assert_eq!(latency.stations.len(), stations.len());
                assert_eq!(first.cost.query_bytes % stations.len() as u64, 0);
                let copy_len = (first.cost.query_bytes / stations.len() as u64) as usize;
                for stamp in &latency.stations {
                    let station = stations[stamp.station as usize];
                    let locals = dataset.station_locals(station).unwrap_or(&empty);
                    let layout = BaseStation::from_locals(station, locals, options.shards);
                    let scan: u64 = (0..layout.shard_count())
                        .map(|shard| model.scan_ticks(layout.shard(shard).len()))
                        .sum();
                    let flight = model.flight_ticks(
                        DATA_CENTER,
                        NodeId::base_station(stamp.station),
                        copy_len,
                    );
                    assert_eq!(
                        stamp.report_sent,
                        flight + scan,
                        "station {} ({shards} shards, {grouping:?})",
                        stamp.station
                    );
                }
                let latest = latency.stations.iter().map(|s| s.report_delivered).max();
                assert_eq!(Some(latency.makespan_ticks), latest);
                assert_eq!(first.cost.makespan_ticks, latency.makespan_ticks);
                let again = run();
                assert_eq!(first.cost, again.cost, "async cost must be deterministic");
                assert_eq!(first.latency, again.latency);
            }
        }
    }

    #[test]
    fn slower_links_stretch_the_makespan() {
        let dataset = Dataset::small(38);
        let queries = vec![probe_query(&dataset, 0)];
        let config = DiMatchingConfig::default();
        let makespan = |base_ticks: u64| {
            let options = PipelineOptions {
                mode: ExecutionMode::Async { workers: 1 },
                latency: LatencyModel {
                    base_ticks,
                    ..LatencyModel::default()
                },
                ..PipelineOptions::default()
            };
            run_pipeline::<Wbf>(&dataset, &queries, &config, &options)
                .unwrap()
                .cost
                .makespan_ticks
        };
        let fast = makespan(10);
        let slow = makespan(10_000);
        assert!(
            slow >= fast + 2 * (10_000 - 10),
            "a round trip pays the base latency twice: {fast} vs {slow}"
        );
    }

    #[test]
    fn top_k_truncates_ranking() {
        let dataset = Dataset::small(23);
        let query = probe_query(&dataset, 0);
        let config = DiMatchingConfig::default();
        let full = run_wbf(
            &dataset,
            std::slice::from_ref(&query),
            &config,
            ExecutionMode::Sequential,
            None,
        )
        .unwrap();
        let k = 1.min(full.ranked.len());
        let cut = run_wbf(
            &dataset,
            &[query],
            &config,
            ExecutionMode::Sequential,
            Some(k),
        )
        .unwrap();
        assert_eq!(cut.ranked.len(), k);
        assert_eq!(cut.ranked[..], full.ranked[..k]);
    }

    #[test]
    fn wbf_meters_all_cost_classes() {
        let dataset = Dataset::small(24);
        let query = probe_query(&dataset, 0);
        let outcome = run_wbf(
            &dataset,
            &[query],
            &DiMatchingConfig::default(),
            ExecutionMode::Sequential,
            None,
        )
        .unwrap();
        assert!(outcome.cost.query_bytes > 0, "filter broadcast not metered");
        assert!(outcome.cost.report_bytes > 0, "reports not metered");
        assert_eq!(outcome.cost.data_bytes, 0, "wbf ships no raw data");
        assert!(outcome.cost.storage_bytes > 0);
        assert!(outcome.cost.hash_ops > 0);
        assert_eq!(outcome.cost.messages as usize, dataset.stations().len() * 2);
        assert_eq!(
            outcome.cost.scan_passes as usize,
            dataset.stations().len(),
            "one scan pass per station"
        );
    }

    #[test]
    fn bloom_baseline_runs_and_retrieves_probe() {
        let dataset = Dataset::small(25);
        let query = probe_query(&dataset, 0);
        let outcome = run_bloom(
            &dataset,
            &[query],
            &DiMatchingConfig::default(),
            ExecutionMode::Sequential,
            None,
        )
        .unwrap();
        assert!(outcome.ranked.contains(&dataset.users()[0].id));
        assert!(matches!(outcome.details, MethodDetails::Bloom { .. }));
    }

    #[test]
    fn bloom_reports_at_least_wbf_candidates() {
        // Weight consistency only ever removes candidates.
        let dataset = Dataset::small(26);
        let query = probe_query(&dataset, 0);
        let config = DiMatchingConfig::default();
        let wbf = run_wbf(
            &dataset,
            std::slice::from_ref(&query),
            &config,
            ExecutionMode::Sequential,
            None,
        )
        .unwrap();
        let bf = run_bloom(&dataset, &[query], &config, ExecutionMode::Sequential, None).unwrap();
        let bf_set: std::collections::BTreeSet<_> = bf.ranked.iter().collect();
        // Every WBF candidate that survived aggregation was reported by some
        // station under BF too (same bits are set in both filters).
        for user in &wbf.ranked {
            assert!(bf_set.contains(user), "{user:?} in WBF but not BF");
        }
    }

    #[test]
    fn batch_verdicts_match_single_query_runs() {
        // Batching must change costs, never answers: each verdict of a
        // batch equals the corresponding single-query run's ranking.
        let dataset = Dataset::small(29);
        let config = DiMatchingConfig::default();
        let queries: Vec<PatternQuery> = (0..3).map(|i| probe_query(&dataset, i * 5)).collect();
        let batch =
            run_pipeline::<Wbf>(&dataset, &queries, &config, &PipelineOptions::default()).unwrap();
        assert_eq!(batch.method, Method::Wbf);
        for (i, query) in queries.iter().enumerate() {
            let single = run_wbf(
                &dataset,
                std::slice::from_ref(query),
                &config,
                ExecutionMode::Sequential,
                None,
            )
            .unwrap();
            assert_eq!(batch.queries[i].ranked, single.ranked, "query {i} drifted");
        }
    }

    #[test]
    fn empty_batch_runs_to_an_empty_outcome() {
        let dataset = Dataset::small(30);
        let batch = run_pipeline::<Wbf>(
            &dataset,
            &[],
            &DiMatchingConfig::default(),
            &PipelineOptions::default(),
        )
        .unwrap();
        assert!(batch.queries.is_empty());
        let merged = batch.into_merged(None);
        assert!(merged.ranked.is_empty());
    }
}
