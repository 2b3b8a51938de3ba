//! Query-routing conformance: `RoutingPolicy::Tree` must be invisible in
//! the answers. Routing only decides *which stations hear the broadcast* —
//! a pruned station is one the summary tree proves cannot report, so the
//! routed pipeline's rankings must be bit-identical to
//! `RoutingPolicy::BroadcastAll` on every conformance seed, under every
//! execution mode, both section groupings, and for the Bloom baseline as
//! well as WBF.
//!
//! Two regimes are pinned separately:
//!
//! 1. **Dense population** (the shared conformance cities): every station
//!    hosts look-alikes of every query, so the tree keeps everyone —
//!    routing must cost its summary bytes and change nothing.
//! 2. **Selective queries** (high-volume always-on profiles under the
//!    position-tagged hash scheme): the tree prunes stations, and the
//!    answers still match broadcast exactly while the query traffic drops
//!    strictly below broadcast-to-all.
//!
//! A third case drives standing [`StreamingSession`]s instead of
//! `run_pipeline`: a routed session keeps its tree across epochs of data
//! and query churn, and every epoch must still rank exactly like a
//! broadcast session fed the same updates.

#[allow(dead_code)]
mod conformance;

use dipm::prelude::*;

/// Tree fanouts the conformance sweep exercises.
const FANOUTS: [usize; 2] = [2, 4];

fn modes() -> [ExecutionMode; 2] {
    [
        ExecutionMode::Sequential,
        ExecutionMode::Async { workers: 1 },
    ]
}

fn groupings() -> [SectionGrouping; 2] {
    [SectionGrouping::PerQuery, SectionGrouping::Merged]
}

fn with_routing(config: &DiMatchingConfig, fanout: usize) -> DiMatchingConfig {
    DiMatchingConfig {
        routing: RoutingPolicy::Tree { fanout },
        ..config.clone()
    }
}

/// An always-on high-volume profile no conformance-city phone exhibits —
/// the selective query that lets the tree prune whole subtrees.
fn whale_query(dataset: &Dataset, rate: u64) -> PatternQuery {
    let intervals = dataset.intervals();
    PatternQuery::from_locals(vec![
        (0..intervals).map(|_| rate).collect(),
        (0..intervals).map(|_| rate / 2).collect(),
    ])
    .expect("constant profiles form a valid query")
}

#[test]
fn routed_pipeline_matches_broadcast_on_every_seed_mode_and_grouping() {
    let base = DiMatchingConfig::default();
    for seed in conformance::SEEDS {
        let dataset = conformance::dataset(seed);
        let queries: Vec<PatternQuery> = conformance::PROBES
            .iter()
            .map(|&probe| conformance::probe_query(&dataset, probe))
            .collect();
        let mut hits = 0usize;
        for mode in modes() {
            for grouping in groupings() {
                let options = PipelineOptions {
                    mode,
                    shards: Shards::new(2),
                    grouping,
                    ..PipelineOptions::default()
                };
                let reference = run_pipeline::<Wbf>(&dataset, &queries, &base, &options)
                    .expect("broadcast pipeline runs");
                hits += reference
                    .queries
                    .iter()
                    .map(|q| q.ranked.len())
                    .sum::<usize>();
                assert_eq!(
                    reference.cost.routing_bytes, 0,
                    "broadcast-all must not move routing traffic"
                );
                for fanout in FANOUTS {
                    let config = with_routing(&base, fanout);
                    let outcome = run_pipeline::<Wbf>(&dataset, &queries, &config, &options)
                        .expect("routed pipeline runs");
                    for (i, (a, b)) in reference.queries.iter().zip(&outcome.queries).enumerate() {
                        assert_eq!(
                            a.ranked, b.ranked,
                            "seed {seed} {mode:?} {grouping:?} fanout {fanout}: \
                             query {i} ranking diverged under routing"
                        );
                    }
                    assert!(
                        outcome.cost.routing_bytes > 0,
                        "seed {seed} {mode:?} {grouping:?} fanout {fanout}: \
                         the tree moved no summary traffic — routing never engaged"
                    );
                }
            }
        }
        assert!(hits > 0, "seed {seed} produced no reports — vacuous pass");
    }
}

#[test]
fn routed_bloom_baseline_matches_broadcast() {
    let base = DiMatchingConfig::default();
    for seed in conformance::SEEDS {
        let dataset = conformance::dataset(seed);
        let queries = [conformance::probe_query(&dataset, conformance::PROBES[1])];
        let options = PipelineOptions::default();
        let reference =
            run_pipeline::<Bloom>(&dataset, &queries, &base, &options).expect("baseline runs");
        for fanout in FANOUTS {
            let outcome =
                run_pipeline::<Bloom>(&dataset, &queries, &with_routing(&base, fanout), &options)
                    .expect("routed baseline runs");
            assert_eq!(
                reference.queries[0].ranked, outcome.queries[0].ranked,
                "seed {seed} fanout {fanout}: Bloom baseline ranking diverged under routing"
            );
            assert!(outcome.cost.routing_bytes > 0);
        }
    }
}

#[test]
fn routed_meters_are_mode_invariant() {
    let base = DiMatchingConfig::default();
    for seed in conformance::SEEDS {
        let dataset = conformance::dataset(seed);
        let queries = [conformance::probe_query(&dataset, conformance::PROBES[1])];
        for fanout in FANOUTS {
            let config = with_routing(&base, fanout);
            let mut reference_cost: Option<CostReport> = None;
            for mode in modes() {
                let options = PipelineOptions {
                    mode,
                    shards: Shards::new(2),
                    ..PipelineOptions::default()
                };
                let outcome = run_pipeline::<Wbf>(&dataset, &queries, &config, &options)
                    .expect("routed pipeline runs");
                // `mode_invariant` zeroes only the makespan, so this pins
                // stations_pruned and routing_bytes (alongside every other
                // meter) as pure functions of the inputs, not of
                // scheduling.
                match &reference_cost {
                    None => reference_cost = Some(outcome.cost.mode_invariant()),
                    Some(expected) => assert_eq!(
                        expected,
                        &outcome.cost.mode_invariant(),
                        "seed {seed} fanout {fanout}: {mode:?} meters diverged"
                    ),
                }
            }
        }
    }
}

#[test]
fn selective_queries_prune_stations_without_changing_answers() {
    // Position-tagged keys make summaries selective enough to prune (the
    // paper's value-only scheme shares small accumulated values across the
    // whole population; see the routing module docs).
    let base = DiMatchingConfig {
        hash_scheme: HashScheme::PositionTagged,
        ..DiMatchingConfig::default()
    };
    for seed in conformance::SEEDS {
        let dataset = conformance::dataset(seed);
        let queries = [whale_query(&dataset, 300)];
        let mut pruned_somewhere = false;
        for mode in modes() {
            let options = PipelineOptions {
                mode,
                shards: Shards::new(2),
                ..PipelineOptions::default()
            };
            let reference = run_pipeline::<Wbf>(&dataset, &queries, &base, &options)
                .expect("broadcast pipeline runs");
            let mut pruned: Option<u64> = None;
            for fanout in FANOUTS {
                let outcome =
                    run_pipeline::<Wbf>(&dataset, &queries, &with_routing(&base, fanout), &options)
                        .expect("routed pipeline runs");
                assert_eq!(
                    reference.queries[0].ranked, outcome.queries[0].ranked,
                    "seed {seed} {mode:?} fanout {fanout}: pruning changed the answer"
                );
                if outcome.cost.stations_pruned > 0 {
                    pruned_somewhere = true;
                    // Pruned stations never hear the query: broadcast
                    // traffic must drop strictly below broadcast-to-all.
                    assert!(
                        outcome.cost.query_bytes < reference.cost.query_bytes,
                        "seed {seed} {mode:?} fanout {fanout}: pruning saved no query bytes"
                    );
                }
                // Pruning is a pure function of the tree and the probe set
                // — every fanout and mode must agree on the count.
                match pruned {
                    None => pruned = Some(outcome.cost.stations_pruned),
                    Some(expected) => assert_eq!(
                        expected, outcome.cost.stations_pruned,
                        "seed {seed} {mode:?}: fanout {fanout} changed what got pruned"
                    ),
                }
            }
        }
        assert!(
            pruned_somewhere,
            "seed {seed}: the selective query never pruned — vacuous pass"
        );
    }
}

/// Day snapshots of one 16-station city: each day is a fresh trace, so
/// every station's rows churn between epochs.
fn days(seed: u64) -> Vec<Dataset> {
    (0..4u64)
        .map(|day| {
            Dataset::city_slice(conformance::USERS, 16, seed + 1000 * day)
                .expect("conformance preset is valid")
        })
        .collect()
}

/// One epoch as a routed session and its broadcast twin report it: the
/// routed ranking and meters, and the broadcast session's meters.
type EpochTrace = (Vec<UserId>, CostReport, u64, CostReport);

/// Runs a routed session and a `BroadcastAll` session side by side over
/// `days`, applying the same query churn to both before each epoch:
///
/// - day 0: `{whale 300}` — selective, the tree prunes;
/// - day 1: `+probe` of that day's city — everyone is targeted again, so
///   stations pruned at day 0 come back through a full resync;
/// - day 2: `−probe, +whale 200` — pruned again;
/// - day 3: `−whale 300, +probe` of that day's city.
fn routed_session_trace(
    days: &[Dataset],
    config: &DiMatchingConfig,
    fanout: usize,
    options: PipelineOptions,
) -> Vec<EpochTrace> {
    let initial = [whale_query(&days[0], 300)];
    let mut routed = StreamingSession::new(&initial, with_routing(config, fanout), options)
        .expect("routed session opens");
    let mut broadcast =
        StreamingSession::new(&initial, config.clone(), options).expect("session opens");
    let mut probe_ids: Option<(StreamQueryId, StreamQueryId)> = None;
    let mut trace = Vec::new();
    for (day, dataset) in days.iter().enumerate() {
        match day {
            1 | 3 => {
                let probe = conformance::probe_query(dataset, conformance::PROBES[day / 2]);
                if day == 3 {
                    routed.remove_query(routed.live_queries()[0]).unwrap();
                    broadcast.remove_query(broadcast.live_queries()[0]).unwrap();
                }
                probe_ids = Some((
                    routed.insert_query(&probe).unwrap(),
                    broadcast.insert_query(&probe).unwrap(),
                ));
            }
            2 => {
                let (routed_probe, broadcast_probe) = probe_ids.take().expect("inserted at day 1");
                routed.remove_query(routed_probe).unwrap();
                broadcast.remove_query(broadcast_probe).unwrap();
                let whale = whale_query(dataset, 200);
                routed.insert_query(&whale).unwrap();
                broadcast.insert_query(&whale).unwrap();
            }
            _ => {}
        }
        let reference = broadcast.run_epoch(dataset).expect("broadcast epoch runs");
        let outcome = routed.run_epoch(dataset).expect("routed epoch runs");
        assert_eq!(
            reference.outcome.ranked, outcome.outcome.ranked,
            "day {day}: routed session ranking diverged from broadcast"
        );
        assert_eq!(reference.outcome.cost.routing_bytes, 0);
        assert!(
            outcome.outcome.cost.routing_bytes > 0,
            "day {day}: the routed session moved no routing traffic"
        );
        if outcome.outcome.cost.stations_pruned > 0 {
            assert!(
                outcome.broadcast_bytes < reference.broadcast_bytes,
                "day {day}: pruning saved no broadcast bytes"
            );
        }
        trace.push((
            outcome.outcome.ranked,
            outcome.outcome.cost.mode_invariant(),
            outcome.broadcast_bytes,
            reference.outcome.cost.mode_invariant(),
        ));
    }
    trace
}

#[test]
fn routed_streaming_sessions_match_broadcast_under_churn() {
    let config = DiMatchingConfig {
        hash_scheme: HashScheme::PositionTagged,
        // Headroom: the live set grows past its initial single whale.
        fixed_geometry: Some(FilterParams::new(1 << 15, 5).unwrap()),
        ..DiMatchingConfig::default()
    };
    for seed in conformance::SEEDS {
        let days = days(seed);
        let mut per_mode: Vec<Vec<EpochTrace>> = Vec::new();
        for mode in modes() {
            let options = PipelineOptions {
                mode,
                shards: Shards::new(2),
                ..PipelineOptions::default()
            };
            per_mode.push(routed_session_trace(&days, &config, 2, options));
        }
        let trace = &per_mode[0];
        for (other, mode) in per_mode[1..].iter().zip(&modes()[1..]) {
            assert_eq!(
                trace, other,
                "seed {seed}: {mode:?} diverged from sequential (rankings or meters)"
            );
        }
        let pruned: u64 = trace
            .iter()
            .map(|(_, cost, _, _)| cost.stations_pruned)
            .sum();
        let hits: usize = trace.iter().map(|(ranked, ..)| ranked.len()).sum();
        assert!(
            pruned > 0,
            "seed {seed}: no station-epoch was pruned — vacuous pass"
        );
        assert!(hits > 0, "seed {seed}: no epoch reported — vacuous pass");
    }
}
