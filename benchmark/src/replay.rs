//! Stage-by-stage replay of one `run_pipeline::<Wbf>` batch through the
//! layers' public functions, with a span around each stage.
//!
//! The replay makes the same calls, in the same order, that the pipeline's
//! sequential arm makes: build (Algorithm 1), routing, encode and broadcast,
//! then per station decode, scan and report (Algorithm 2), then the
//! center's report intake and aggregation (Algorithm 3). Its rankings and
//! mode-invariant meters must equal the untraced op's; the caller checks.

use std::collections::{BTreeMap, BTreeSet};

use dipm_distsim::{CostReport, Network, NodeId, TrafficClass, DATA_CENTER};
use dipm_mobilenet::{Dataset, UserId};
use dipm_protocol::{
    wire, BaseStation, DiMatchingConfig, FilterStrategy, PatternQuery, PipelineOptions,
    ProtocolError, RoutingPolicy, RoutingTree, SectionGrouping, Wbf,
};

use crate::trace::Tracer;

/// What a replayed batch produced, plus station-side counts the
/// [`CostReport`] does not carry.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// One ranking per section.
    pub rankings: Vec<Vec<UserId>>,
    /// The replay's meters.
    pub cost: CostReport,
    /// Row × section evaluations over the targeted stations.
    pub row_sections: u64,
    /// Report rows received by the center.
    pub reports: u64,
    /// Report rows whose user made its section's ranking.
    pub useful_reports: u64,
    /// Stations that received the broadcast.
    pub targeted: u64,
    /// Targeted stations that reported at least one row.
    pub reporting: u64,
    /// Filter values inserted by the build, over all sections.
    pub inserted_values: u64,
}

/// Replays one batch under span root `root` (`op` or `rebuild`).
///
/// # Errors
///
/// Propagates every error a stage returns; the caller rewinds the spans.
pub fn replay_batch(
    tracer: &mut Tracer,
    op: u64,
    root: &'static str,
    dataset: &Dataset,
    queries: &[PatternQuery],
    config: &DiMatchingConfig,
    options: &PipelineOptions,
) -> Result<Replayed, ProtocolError> {
    let root_span = tracer.enter(op, root);
    let network = Network::new();
    let center = network.register(DATA_CENTER)?;
    let station_count = dataset.stations().len();
    let mailboxes = (0..station_count)
        .map(|i| network.register(NodeId::base_station(i as u32)))
        .collect::<Result<Vec<_>, _>>()?;

    let build = tracer.enter(op, "datacenter.build");
    config.validate()?;
    let groups: Vec<&[PatternQuery]> = match options.grouping {
        SectionGrouping::PerQuery => queries.chunks(1).collect(),
        SectionGrouping::Merged => vec![queries],
    };
    let sections = groups
        .iter()
        .map(|group| Wbf::build(group, config))
        .collect::<Result<Vec<_>, _>>()?;
    tracer.exit(build);

    let route = tracer.enter(op, "routing.route");
    let active = match config.routing {
        RoutingPolicy::Tree { fanout } => {
            let tree = tracer.span(op, "routing.tree_build", || {
                RoutingTree::from_dataset(dataset, fanout, config)
            })?;
            let keys: Vec<u64> = sections
                .iter()
                .flat_map(|s| Wbf::routing_keys(s).iter().copied())
                .collect::<BTreeSet<u64>>()
                .into_iter()
                .collect();
            route_through(&tree, &keys, &network)?
        }
        RoutingPolicy::BroadcastAll => vec![true; station_count],
    };
    tracer.exit(route);

    let encode = tracer.enter(op, "wire.encode");
    let payloads = sections
        .iter()
        .enumerate()
        .map(|(i, s)| Ok((i as u32, Wbf::encode_filter(s)?)))
        .collect::<Result<Vec<_>, ProtocolError>>()?;
    let frame = wire::encode_batch_broadcast(&payloads)?;
    let recipients: Vec<NodeId> = (0..station_count)
        .filter(|&i| active[i])
        .map(|i| NodeId::base_station(i as u32))
        .collect();
    network.broadcast(
        DATA_CENTER,
        recipients.iter().copied(),
        TrafficClass::Query,
        &frame,
    )?;
    network
        .meter()
        .record_storage(frame.len() as u64 * recipients.len() as u64);
    tracer.exit(encode);

    // Every station lays out its store, targeted or not, as the pipeline
    // does before any station work.
    let empty = BTreeMap::new();
    let layouts: Vec<BaseStation<'_>> = tracer.span(op, "basestation.layout", || {
        dataset
            .stations()
            .iter()
            .map(|&station| {
                let locals = dataset.station_locals(station).unwrap_or(&empty);
                BaseStation::from_locals(station, locals, options.shards)
            })
            .collect()
    });
    let shard_count = options.shards.count() as u32;
    let mut row_sections = 0u64;
    for (i, layout) in layouts.iter().enumerate().filter(|&(i, _)| active[i]) {
        let decode = tracer.enter(op, "wire.decode");
        let envelope = mailboxes[i].recv()?;
        let decoded = wire::decode_batch_broadcast(envelope.payload)?
            .into_iter()
            .map(|(query, bytes)| Ok((query, Wbf::decode_filter(bytes)?)))
            .collect::<Result<Vec<_>, ProtocolError>>()?;
        tracer.exit(decode);

        let scan = tracer.enter(op, "basestation.scan");
        let mut merged = Vec::new();
        for shard in 0..layout.shard_count() {
            merged.extend(Wbf::scan_shard(
                &decoded,
                layout.shard(shard),
                config,
                Some(network.meter()),
            )?);
        }
        tracer.exit(scan);
        row_sections += (layout.user_count() * decoded.len()) as u64;

        let report = tracer.enter(op, "wire.report");
        merged.sort_by_key(Wbf::report_key);
        network.meter().record_scan_pass();
        let payload =
            wire::encode_batch_reports(shard_count, i as u32, 0, Wbf::encode_reports(&merged)?);
        network.send(
            NodeId::base_station(i as u32),
            DATA_CENTER,
            Wbf::REPORT_CLASS,
            payload,
        )?;
        tracer.exit(report);
    }

    // Center-side intake, as the pipeline's shared report collector does it.
    let intake = tracer.enter(op, "wire.report");
    let mut received_bytes = 0u64;
    let mut frames = Vec::new();
    for envelope in center.drain() {
        received_bytes += envelope.payload.len() as u64;
        frames.push((
            wire::decode_batch_reports(envelope.payload, shard_count)?,
            envelope.deliver_at,
        ));
    }
    frames.sort_by_key(|(frame, deliver)| (*deliver, frame.station));
    let mut collector = wire::ReportCollector::new(shard_count, station_count as u32);
    for (frame, deliver) in &frames {
        collector.admit(frame, *deliver)?;
    }
    frames.sort_by_key(|(frame, _)| frame.station);
    let mut all_reports = Vec::new();
    let mut reporting = 0u64;
    for (frame, _) in &frames {
        let rows = Wbf::decode_reports(frame.payload.clone())?;
        reporting += u64::from(!rows.is_empty());
        all_reports.extend(rows);
    }
    tracer.exit(intake);

    let aggregate = tracer.enter(op, "datacenter.aggregate");
    Wbf::record_center_storage(network.meter(), received_bytes, &all_reports);
    let reports = all_reports.len() as u64;
    let tags: Vec<(u32, UserId)> = all_reports.iter().map(|&(q, u, _)| (q, u)).collect();
    let verdicts = Wbf::aggregate(
        &sections,
        all_reports,
        config,
        network.meter(),
        options.top_k,
    )?;
    tracer.exit(aggregate);
    tracer.exit(root_span);

    let rankings: Vec<Vec<UserId>> = verdicts.into_iter().map(|v| v.ranked).collect();
    let useful_reports = tags
        .iter()
        .filter(|(q, user)| rankings[*q as usize].contains(user))
        .count() as u64;
    Ok(Replayed {
        rankings,
        cost: network.meter().report(),
        row_sections,
        reports,
        useful_reports,
        targeted: recipients.len() as u64,
        reporting,
        inserted_values: sections.iter().map(|s| s.stats.inserted_values).sum(),
    })
}

/// The center's routing decision against a built tree: summary uploads and
/// routed-plan frames go through the wire codecs and the routing meters,
/// as the pipeline's router does. Returns the per-station active mask.
fn route_through(
    tree: &RoutingTree,
    keys: &[u64],
    network: &Network,
) -> Result<Vec<bool>, ProtocolError> {
    let mut routing_bytes = 0u64;
    for station in 0..tree.station_count() {
        let frame = wire::encode_routing_summary(station as u32, tree.summary(station));
        routing_bytes += frame.len() as u64;
        wire::decode_routing_summary(frame)?;
    }
    let mut plan = wire::RoutingPlan::new(tree.station_count() as u32);
    for (lo, hi, targets) in tree.route_frames(keys) {
        let frame = wire::encode_routed_probes(lo, hi, &targets)?;
        routing_bytes += frame.len() as u64;
        plan.claim(&wire::decode_routed_probes(frame)?)?;
    }
    let mut active = vec![false; tree.station_count()];
    for station in plan.into_targets() {
        active[station as usize] = true;
    }
    network.meter().record_routing_bytes(routing_bytes);
    network
        .meter()
        .record_stations_pruned(active.iter().filter(|&&a| !a).count() as u64);
    Ok(active)
}
