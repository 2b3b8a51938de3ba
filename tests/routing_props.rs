//! Property tests for the Bloofi-style routing tree: on *arbitrary* station
//! populations and fanouts 2..=8, routing must never lose a station that
//! could match (no false negatives vs broadcast), must prune exactly the
//! stations whose own summary holds no probe key (so every fanout routes
//! alike), incremental maintenance must equal a one-pass build after any
//! sequence of per-station updates, and degenerate shapes (one station,
//! fanout above the station count) must fall back cleanly.

use dipm::mobilenet::TraceConfig;
use dipm::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;

fn params() -> FilterParams {
    FilterParams::new(1 << 12, 4).expect("static geometry is valid")
}

/// One generated tree workload: row placements over an arbitrary station
/// population, plus a removal script (step `i` retires the already placed
/// row `removals[i] % (i + 1)`, if it is still live).
#[derive(Debug, Clone)]
struct TreeWorkload {
    stations: usize,
    fanout: usize,
    /// `(station_selector, keys)` — the selector is reduced modulo
    /// `stations` so every draw lands on a real station.
    rows: Vec<(usize, Vec<u64>)>,
    removals: Vec<usize>,
    seed: u64,
}

fn arb_tree_workload() -> impl Strategy<Value = TreeWorkload> {
    (
        1usize..=12,
        2usize..=8,
        vec((0usize..64, vec(0u64..5_000, 1..8)), 0..20),
        vec(0usize..20, 0..8),
        any::<u64>(),
    )
        .prop_map(|(stations, fanout, rows, removals, seed)| TreeWorkload {
            stations,
            fanout,
            rows,
            removals,
            seed,
        })
}

/// The keys of every row `live` admits, grouped by station.
fn station_keys(workload: &TreeWorkload, live: &[bool]) -> Vec<Vec<u64>> {
    let mut stations = vec![Vec::new(); workload.stations];
    for ((selector, keys), _) in workload.rows.iter().zip(live).filter(|(_, &l)| l) {
        stations[selector % workload.stations].extend_from_slice(keys);
    }
    stations
}

/// The keys of every placed row, grouped by station.
fn all_station_keys(workload: &TreeWorkload) -> Vec<Vec<u64>> {
    station_keys(workload, &vec![true; workload.rows.len()])
}

/// Applies the workload's placements to a fresh tree, station by station.
fn populate(workload: &TreeWorkload) -> RoutingTree {
    let mut tree = RoutingTree::new(workload.stations, workload.fanout, params(), workload.seed)
        .expect("fanout >= 2 builds");
    for (station, keys) in all_station_keys(workload).iter().enumerate() {
        tree.set_station(station, keys).expect("station exists");
    }
    tree
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Broadcast reaches every station; routing may only drop stations the
    // summaries *prove* hold none of the probed keys. Any station that
    // exactly holds a probed key must survive — for every row, probing the
    // row's own keys must route back to its station.
    #[test]
    fn routing_never_loses_a_station_that_holds_a_probed_key(
        workload in arb_tree_workload(),
        probe_sel in 0usize..20,
    ) {
        let tree = populate(&workload);
        for (selector, keys) in &workload.rows {
            let station = (selector % workload.stations) as u32;
            prop_assert!(
                tree.route(keys).contains(&station),
                "station {} pruned for its own row",
                station
            );
        }
        // An arbitrary probe set (one of the inserted rows' key sets, or a
        // miss set): targets must cover every station holding any probed
        // key exactly.
        let probes: Vec<u64> = workload
            .rows
            .get(probe_sel)
            .map(|(_, keys)| keys.clone())
            .unwrap_or_else(|| vec![u64::MAX]);
        let targets = tree.route(&probes);
        for (selector, keys) in &workload.rows {
            let station = (selector % workload.stations) as u32;
            if keys.iter().any(|k| probes.contains(k)) {
                prop_assert!(
                    targets.contains(&station),
                    "station {} holds a probed key but was pruned",
                    station
                );
            }
        }
    }

    // The descent prunes exactly by the leaves: a route's targets are the
    // ascending stations whose own summary may hold a probe key (a
    // one-station tree broadcasts), and every fanout over the same key sets
    // routes alike. Probes mix placed keys with arbitrary ones.
    #[test]
    fn routing_prunes_exactly_by_the_leaves(
        workload in arb_tree_workload(),
        picks in vec((any::<bool>(), any::<usize>(), 0u64..5_000), 0..12),
    ) {
        let keys = all_station_keys(&workload);
        let placed: Vec<u64> = keys.concat();
        let probes: Vec<u64> = picks
            .iter()
            .map(|&(hit, pick, key)| {
                if hit && !placed.is_empty() {
                    placed[pick % placed.len()]
                } else {
                    key
                }
            })
            .collect();
        let tree = populate(&workload);
        let expected: Vec<u32> = (0..workload.stations)
            .filter(|&s| {
                let summary = tree.summary(s);
                tree.is_degenerate() || probes.iter().any(|&k| summary.contains(k))
            })
            .map(|s| s as u32)
            .collect();
        prop_assert_eq!(tree.route(&probes), expected.clone());
        for fanout in 2..=8 {
            let other = RoutingTree::from_station_keys(&keys, fanout, params(), workload.seed)
                .expect("fanout >= 2 builds");
            prop_assert_eq!(other.route(&probes), expected.clone(), "fanout {}", fanout);
        }
    }

    // After any interleaving of row placements and removals, each
    // followed by re-summarizing just the station it touched, the tree
    // equals a one-pass build over the surviving rows — summaries and every
    // interior union node.
    #[test]
    fn interleaved_maintenance_equals_from_scratch_build(workload in arb_tree_workload()) {
        let mut incremental =
            RoutingTree::new(workload.stations, workload.fanout, params(), workload.seed)
                .expect("fanout >= 2 builds");
        let mut live = vec![false; workload.rows.len()];
        for i in 0..workload.rows.len() {
            live[i] = true;
            let mut touched = vec![i];
            if let Some(&pick) = workload.removals.get(i) {
                let target = pick % (i + 1);
                if live[target] {
                    live[target] = false;
                    touched.push(target);
                }
            }
            for row in touched {
                let station = workload.rows[row].0 % workload.stations;
                let keys = station_keys(&workload, &live);
                incremental
                    .set_station(station, &keys[station])
                    .expect("station exists");
            }
        }
        let fresh = RoutingTree::from_station_keys(
            station_keys(&workload, &live),
            workload.fanout,
            params(),
            workload.seed,
        )
        .expect("fanout >= 2 builds");
        prop_assert_eq!(incremental, fresh);
    }

    // Degenerate shapes fall back cleanly: a single-station tree always
    // broadcasts, and a fanout above the station count still builds a
    // working one-level tree that routes and prunes correctly.
    #[test]
    fn degenerate_trees_fall_back_cleanly(
        fanout in 2usize..=8,
        stations in 2usize..=7,
        keys in vec(0u64..5_000, 1..6),
        seed in any::<u64>(),
    ) {
        // One station: degenerate, everything routes to it even with no
        // matching keys at all.
        let one = RoutingTree::new(1, fanout, params(), seed).expect("builds");
        prop_assert!(one.is_degenerate());
        prop_assert_eq!(one.route(&keys), vec![0]);
        prop_assert_eq!(one.route(&[]), vec![0]);

        // Fanout above the station count: a single root over all leaves.
        let wide_fanout = stations + fanout;
        let mut wide = RoutingTree::new(stations, wide_fanout, params(), seed).expect("builds");
        prop_assert!(!wide.is_degenerate());
        let station = keys.len() % stations;
        wide.set_station(station, &keys).expect("station exists");
        prop_assert_eq!(wide.route(&keys), vec![station as u32]);
        prop_assert!(wide.route(&[u64::MAX]).is_empty());
    }
}

/// End-to-end no-false-negatives: over arbitrary generated cities, the
/// routed pipeline's rankings equal broadcast's for real user queries and
/// for selective whale profiles, under both hash schemes.
#[derive(Debug, Clone)]
struct CityWorkload {
    users: usize,
    stations: u32,
    seed: u64,
    fanout: usize,
    probe: usize,
    whale_rate: u64,
    position_tagged: bool,
}

fn arb_city_workload() -> impl Strategy<Value = CityWorkload> {
    (
        (12usize..=48, 2u32..=9, any::<u64>()),
        (2usize..=8, 0usize..12, 20u64..400, any::<bool>()),
    )
        .prop_map(
            |((users, stations, seed), (fanout, probe, whale_rate, position_tagged))| {
                CityWorkload {
                    users,
                    stations,
                    seed,
                    fanout,
                    probe,
                    whale_rate,
                    position_tagged,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn routed_pipeline_has_no_false_negatives_on_arbitrary_cities(
        workload in arb_city_workload(),
    ) {
        let dataset = TraceConfig::new(workload.users, workload.stations)
            .days(1)
            .intervals_per_day(8)
            .noise(1)
            .seed(workload.seed)
            .generate()
            .expect("generated city is valid");
        let user = dataset.users()[workload.probe % dataset.users().len()];
        let intervals = dataset.intervals();
        let queries = [
            PatternQuery::from_fragments(dataset.fragments(user.id).expect("user has traffic"))
                .expect("fragments form a valid query"),
            PatternQuery::from_locals(vec![
                (0..intervals).map(|_| workload.whale_rate).collect(),
            ])
            .expect("constant profile is a valid query"),
        ];
        let base = DiMatchingConfig {
            hash_scheme: if workload.position_tagged {
                HashScheme::PositionTagged
            } else {
                HashScheme::ValueOnly
            },
            seed: workload.seed,
            ..DiMatchingConfig::default()
        };
        let routed_config = DiMatchingConfig {
            routing: RoutingPolicy::Tree { fanout: workload.fanout },
            ..base.clone()
        };
        let options = PipelineOptions::default();
        let reference =
            run_pipeline::<Wbf>(&dataset, &queries, &base, &options).expect("broadcast runs");
        let routed =
            run_pipeline::<Wbf>(&dataset, &queries, &routed_config, &options).expect("routed runs");
        for (i, (a, b)) in reference.queries.iter().zip(&routed.queries).enumerate() {
            prop_assert_eq!(
                &a.ranked,
                &b.ranked,
                "query {} ranking diverged under routing",
                i
            );
        }
        // The probe user's own query always retrieves at least the user —
        // the equality above cannot be vacuous.
        prop_assert!(reference.queries[0].ranked.contains(&user.id));
    }
}
