//! Bloofi-style query routing: a tree of OR-merged station summary filters.
//!
//! Broadcasting every query to every station is the paper's cost model and
//! a hard cap on station count. Bloofi (Crainiceanu & Lemire) shows the way
//! out: each station summarizes its local key population in a plain Bloom
//! filter, and the data center arranges those summaries as the leaves of a
//! configurable-fanout tree whose interior nodes are the **unions** of
//! their children. A query's probe set then descends only into subtrees
//! whose union summary can match ([`BloomFilter::may_contain_any`]), and
//! only the surviving leaf stations receive the broadcast.
//!
//! Routing is **sound** for the DI-matching scan: a station row survives
//! Algorithm 2 only if *every* sampled key of the row is set in the query
//! filter, so a station holding a matching row shares a key with the
//! query's probe set and is never pruned. Summary false positives only ever
//! *add* stations (wasted broadcasts, never wrong answers), which is why
//! the routed pipeline is conformance-pinned bit-identical to
//! [`RoutingPolicy::BroadcastAll`](crate::config::RoutingPolicy).
//!
//! Summaries hold each row's **informative** keys: accumulated patterns
//! start at zero, so the zero-value keys of a row's idle prefix appear in
//! every population and every tolerance band that brushes zero — probing on
//! them keeps every station alive and the tree never prunes. A row
//! therefore contributes only its nonzero-value keys, *unless the row is
//! entirely idle*, in which case its zero keys are kept so a query that
//! genuinely admits idle rows still reaches the stations holding them.
//! Soundness is preserved: a reporting row with any nonzero sample matched
//! the query filter at that sample, so its station's summary intersects the
//! probe set. (The residual exception — a row whose every nonzero sample
//! hits the query filter only through a filter false positive — needs one
//! independent bit-collision per distinct nonzero value and is the same
//! probability class as the WBF's own false reports.)
//!
//! Each summary is a plain [`BloomFilter`] over its station's **key set**:
//! the sorted, distinct routing signatures of the station's current rows,
//! derived in one flat pass per build. The key set is the only input a
//! summary has. Its length sizes the summaries, the summary is bulk-built
//! from it ([`BloomFilter::from_keys`]), and a streaming session keeps it as
//! the base each epoch is diffed against: a station whose key set changed is
//! re-summarized ([`RoutingTree::set_station`]) and its root path
//! recomputed, so after any sequence of updates the tree equals a one-pass
//! build over every station's latest key set. Routing hashes the probe keys
//! once per call (all nodes share one hash family and bit length) and
//! descends with the keys each node holds: a child's bits are a subset of
//! its parent's, so a key the parent lacks cannot match below it, and the
//! targets are exactly the stations whose own summary holds a probe key.

use dipm_core::{BloomFilter, FilterParams, HashFamily, PrecomputedProbes};
use dipm_distsim::CostMeter;
use dipm_mobilenet::Dataset;

use crate::basestation::sample_keys_into;
use crate::config::DiMatchingConfig;
use crate::error::{ProtocolError, Result};
use crate::wire;

/// Decorrelates the summary filters' hash family from the query filter's:
/// the two are probed with the same keys, and independent families keep a
/// query-filter false positive from implying a summary false positive.
const SUMMARY_SEED_TWEAK: u64 = 0x00B1_00F1;

/// Per-key false-positive rate the summary filters are sized for. Routing
/// probes a summary with the query's *whole* banded key set (any-match), so
/// the per-key rate must be far below `1 / probe_count` for the any-test to
/// discriminate at all; the query filter's own `target_fpp` (per-key, tested
/// twelve times per row, ~1%) would saturate every summary. ~29 bits per
/// key buys six nines, and summaries ship once per tree build, not per
/// query.
const SUMMARY_FPP: f64 = 1e-6;

/// The data center's routing state: per-station summary leaves and the
/// union tree above them.
///
/// Station identity is positional (leaf `i` is station index `i`), matching
/// the pipeline's station numbering. A tree over fewer than two stations is
/// *degenerate*: there is nothing to prune, and [`RoutingTree::route`]
/// falls back to broadcasting to every station.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingTree {
    fanout: usize,
    params: FilterParams,
    seed: u64,
    /// Per-station summaries over each station's key set — the form that
    /// unions, ships and probes.
    blooms: Vec<BloomFilter>,
    /// Interior levels bottom-up: `levels[0]` unions chunks of `blooms`,
    /// each next level unions chunks of the previous, the last level is the
    /// single root. Empty when degenerate.
    levels: Vec<Vec<BloomFilter>>,
}

impl RoutingTree {
    /// An empty tree over `station_count` stations with uniform summary
    /// geometry `params` and hash seed derived from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if `fanout < 2`.
    pub fn new(
        station_count: usize,
        fanout: usize,
        params: FilterParams,
        seed: u64,
    ) -> Result<RoutingTree> {
        let no_keys = (0..station_count).map(|_| [] as [u64; 0]);
        RoutingTree::from_station_keys(no_keys, fanout, params, seed)
    }

    /// Builds the tree in one pass over each station's key set, in station
    /// order: each summary is bulk-built from its station's keys, then the
    /// interior levels are unioned once, bottom-up.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if `fanout < 2`.
    pub fn from_station_keys<S, K>(
        stations: S,
        fanout: usize,
        params: FilterParams,
        seed: u64,
    ) -> Result<RoutingTree>
    where
        S: IntoIterator<Item = K>,
        K: AsRef<[u64]>,
    {
        if fanout < 2 {
            return Err(ProtocolError::invalid_config(
                "routing tree fanout must be at least 2",
            ));
        }
        let seed = seed ^ SUMMARY_SEED_TWEAK;
        let blooms = stations
            .into_iter()
            .map(|keys| BloomFilter::from_keys(params, seed, keys.as_ref().iter().copied()))
            .collect();
        let mut tree = RoutingTree {
            fanout,
            params,
            seed,
            blooms,
            levels: Vec::new(),
        };
        tree.rebuild_levels()?;
        Ok(tree)
    }

    /// Builds the tree over a dataset's current station populations: one
    /// leaf per station over its key set, geometry sized for the largest
    /// key set at the summary false-positive rate.
    ///
    /// # Errors
    ///
    /// Propagates configuration, pattern and filter errors.
    pub fn from_dataset(
        dataset: &Dataset,
        fanout: usize,
        config: &DiMatchingConfig,
    ) -> Result<RoutingTree> {
        let keys = station_keys(dataset, config)?;
        let params = summary_params(&keys)?;
        RoutingTree::from_station_keys(&keys, fanout, params, config.seed)
    }

    /// The number of leaf stations.
    pub fn station_count(&self) -> usize {
        self.blooms.len()
    }

    /// Children per interior node.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// The uniform summary-filter geometry.
    pub fn params(&self) -> FilterParams {
        self.params
    }

    /// Whether the tree cannot prune anything (fewer than two stations) and
    /// [`RoutingTree::route`] falls back to broadcast.
    pub fn is_degenerate(&self) -> bool {
        self.station_count() < 2
    }

    /// One station's current summary filter (what it would upload).
    pub fn summary(&self, station: usize) -> &BloomFilter {
        &self.blooms[station]
    }

    /// Replaces `station`'s summary with one built from its current key
    /// set and recomputes the union nodes on its path to the root — the
    /// only nodes the change can touch. After any sequence of calls the
    /// tree equals [`RoutingTree::from_station_keys`] over every station's
    /// latest keys.
    ///
    /// # Errors
    ///
    /// Rejects an out-of-range station.
    pub fn set_station(&mut self, station: usize, keys: &[u64]) -> Result<()> {
        if station >= self.station_count() {
            return Err(ProtocolError::invalid_config(format!(
                "routing tree has {} stations, no station {station}",
                self.station_count()
            )));
        }
        self.blooms[station] = BloomFilter::from_keys(self.params, self.seed, keys.iter().copied());
        let mut child = station;
        for level in 0..self.levels.len() {
            let parent = child / self.fanout;
            self.levels[level][parent] = self.union_of_children(level, parent)?;
            child = parent;
        }
        Ok(())
    }

    /// The nodes at `depth`: the station summaries at depth 0, interior
    /// level `depth - 1` above.
    fn layer(&self, depth: usize) -> &[BloomFilter] {
        match depth {
            0 => &self.blooms,
            _ => &self.levels[depth - 1],
        }
    }

    /// The indices in `layer` of node `parent`'s children.
    fn children(&self, parent: usize, layer: &[BloomFilter]) -> std::ops::Range<usize> {
        parent * self.fanout..((parent + 1) * self.fanout).min(layer.len())
    }

    /// The union of node `parent`'s children at `level` (children live in
    /// `blooms` for level 0, in `levels[level - 1]` above).
    fn union_of_children(&self, level: usize, parent: usize) -> Result<BloomFilter> {
        let layer = self.layer(level);
        let mut node = BloomFilter::new(self.params, self.seed);
        for child in &layer[self.children(parent, layer)] {
            child.union_into(&mut node).map_err(ProtocolError::Core)?;
        }
        Ok(node)
    }

    /// Rebuilds every interior level bottom-up from the current summaries.
    fn rebuild_levels(&mut self) -> Result<()> {
        self.levels.clear();
        let mut width = self.blooms.len();
        while width > 1 {
            let level = self.levels.len();
            let parents = width.div_ceil(self.fanout);
            let nodes = (0..parents)
                .map(|parent| self.union_of_children(level, parent))
                .collect::<Result<Vec<_>>>()?;
            self.levels.push(nodes);
            width = parents;
        }
        Ok(())
    }

    /// The station indices whose subtree summaries can match any of `keys`,
    /// ascending — the broadcast's recipient set. A degenerate tree falls
    /// back to every station; otherwise the probe descends from the root
    /// and an empty or unmatched key set prunes everything (an empty query
    /// filter reports nothing anyway).
    ///
    /// The keys are hashed once per call: every node shares one geometry,
    /// so each node test replays the same precomputed word masks. A
    /// surviving node hands its children only the probe keys it holds: a
    /// child's bits are a subset of its parent's, so a key the parent lacks
    /// cannot match below it. The targets are therefore exactly the
    /// stations whose own summary holds some probe key, at any fanout.
    pub fn route(&self, keys: &[u64]) -> Vec<u32> {
        if self.is_degenerate() {
            return (0..self.station_count() as u32).collect();
        }
        let mut probes = PrecomputedProbes::new();
        let family = HashFamily::new(self.params.hashes(), self.seed);
        probes.compute(&family, self.params.bits(), keys);
        // Each surviving node with its run of `held`, the probe keys it
        // holds. The root is the single node of the top level, i.e. the
        // only child of a virtual parent 0 above it that holds every key.
        let mut held: Vec<usize> = (0..probes.key_count()).collect();
        let mut survivors = vec![(0usize, 0..held.len())];
        for depth in (0..=self.levels.len()).rev() {
            let layer = self.layer(depth);
            let mut next_held = Vec::new();
            let mut next_survivors = Vec::new();
            for (parent, run) in survivors {
                for node in self.children(parent, layer) {
                    let start = next_held.len();
                    next_held.extend(held[run.clone()].iter().copied().filter(|&key| {
                        let (words, masks) = probes.key_masks(key);
                        layer[node].bits().contains_probes_simd(words, masks)
                    }));
                    if next_held.len() > start {
                        next_survivors.push((node, start..next_held.len()));
                    }
                }
            }
            held = next_held;
            survivors = next_survivors;
        }
        survivors
            .into_iter()
            .map(|(station, _)| station as u32)
            .collect()
    }

    /// [`RoutingTree::route`], grouped into per-subtree claim frames: one
    /// `(lo, hi, targets)` triple per surviving bottom-level node, covering
    /// the leaf range `[lo, hi)`. Disjoint by construction — the wire
    /// plan's overlap rejection guards against a *corrupted* plan, and a
    /// degenerate tree emits one whole-range claim.
    pub fn route_frames(&self, keys: &[u64]) -> Vec<(u32, u32, Vec<u32>)> {
        let n = self.station_count() as u32;
        let targets = self.route(keys);
        if self.is_degenerate() {
            return vec![(0, n, targets)];
        }
        let mut frames: Vec<(u32, u32, Vec<u32>)> = Vec::new();
        for target in targets {
            let group = target / self.fanout as u32;
            let lo = group * self.fanout as u32;
            let hi = (lo + self.fanout as u32).min(n);
            match frames.last_mut() {
                Some((last_lo, _, list)) if *last_lo == lo => list.push(target),
                _ => frames.push((lo, hi, vec![target])),
            }
        }
        frames
    }
}

/// The sampled-zero keys under `config`'s hash scheme, ascending — the keys
/// an idle sample produces ([`HashScheme::ValueOnly`](crate::config::HashScheme)
/// collapses them all to the single key `0`).
fn zero_value_keys(config: &DiMatchingConfig) -> Vec<u64> {
    let mut keys: Vec<u64> = (0..config.samples)
        .map(|i| config.hash_scheme.key(i, 0))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Appends one row's routing signature to `keys`: the nonzero-value keys
/// of its `sampled` keys, or — for a row with no traffic at any sample —
/// its zero keys, kept so idle rows stay visible to queries that genuinely
/// admit them (see the module docs).
fn push_signature(keys: &mut Vec<u64>, sampled: &[u64], zero_keys: &[u64]) {
    let start = keys.len();
    keys.extend(
        sampled
            .iter()
            .filter(|key| zero_keys.binary_search(key).is_err()),
    );
    if keys.len() == start {
        keys.extend_from_slice(sampled);
    }
}

/// Every station's routing key set, positionally indexed: the sorted,
/// distinct signature keys of its current rows, each row sampled into one
/// reused buffer and its signature derived from exactly the keys
/// Algorithm 2 would probe for it. The one input to summary sizing,
/// summary builds and a streaming session's per-epoch diff.
pub(crate) fn station_keys(dataset: &Dataset, config: &DiMatchingConfig) -> Result<Vec<Vec<u64>>> {
    let zero_keys = zero_value_keys(config);
    let mut sampled = Vec::new();
    dataset
        .stations()
        .iter()
        .map(|&station| {
            let mut keys = Vec::new();
            for pattern in dataset
                .station_locals(station)
                .iter()
                .flat_map(|locals| locals.values())
            {
                sample_keys_into(pattern, config, &mut sampled)?;
                push_signature(&mut keys, &sampled, &zero_keys);
            }
            keys.sort_unstable();
            keys.dedup();
            Ok(keys)
        })
        .collect()
}

/// Uniform summary geometry: sized for the largest station key set at
/// [`SUMMARY_FPP`]. Uniformity is what makes the leaves unionable all the
/// way to the root.
pub(crate) fn summary_params(stations: &[Vec<u64>]) -> Result<FilterParams> {
    let max_distinct = stations.iter().map(Vec::len).max().unwrap_or(0);
    FilterParams::optimal(max_distinct.max(1), SUMMARY_FPP).map_err(ProtocolError::Core)
}

/// One station's summary-upload cost in wire bytes, pushed through the
/// encoder *and* decoder so the metered bytes are exactly what a validated
/// frame weighs.
pub(crate) fn summary_upload_bytes(tree: &RoutingTree, station: usize) -> Result<u64> {
    let frame = wire::encode_routing_summary(station as u32, tree.summary(station));
    let len = frame.len() as u64;
    let (decoded_station, _) = wire::decode_routing_summary(frame)?;
    debug_assert_eq!(decoded_station as usize, station);
    Ok(len)
}

/// Routes `keys` through `tree` via the wire plan — every routed-probe
/// frame is encoded, decoded and admitted into a [`wire::RoutingPlan`] (so
/// overlap and range validation run on the real frames) — returning the
/// per-station active mask and the plan's total wire bytes.
pub(crate) fn metered_route(tree: &RoutingTree, keys: &[u64]) -> Result<(Vec<bool>, u64)> {
    let station_count = tree.station_count();
    let mut bytes = 0u64;
    let mut plan = wire::RoutingPlan::new(station_count as u32);
    for (lo, hi, targets) in tree.route_frames(keys) {
        let frame = wire::encode_routed_probes(lo, hi, &targets)?;
        bytes += frame.len() as u64;
        plan.claim(&wire::decode_routed_probes(frame)?)?;
    }
    let mut active = vec![false; station_count];
    for station in plan.into_targets() {
        active[station as usize] = true;
    }
    Ok((active, bytes))
}

/// The center's routing decision for one batch: builds the tree over the
/// dataset, moves the summary-upload and routed-plan frames across the
/// meter's routing ledger, and returns the per-station active mask.
pub(crate) fn route_batch(
    dataset: &Dataset,
    keys: &[u64],
    fanout: usize,
    config: &DiMatchingConfig,
    meter: &CostMeter,
) -> Result<Vec<bool>> {
    let tree = RoutingTree::from_dataset(dataset, fanout, config)?;
    let mut routing_bytes = 0u64;
    // Each station uploads its summary once per tree (re)build.
    for station in 0..tree.station_count() {
        routing_bytes += summary_upload_bytes(&tree, station)?;
    }
    let (active, plan_bytes) = metered_route(&tree, keys)?;
    routing_bytes += plan_bytes;
    meter.record_routing_bytes(routing_bytes);
    meter.record_stations_pruned(active.iter().filter(|&&a| !a).count() as u64);
    Ok(active)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> FilterParams {
        FilterParams::new(1 << 12, 4).unwrap()
    }

    #[test]
    fn fanout_below_two_rejected() {
        for fanout in [0, 1] {
            assert!(RoutingTree::new(8, fanout, params(), 7).is_err());
        }
    }

    #[test]
    fn routes_only_subtrees_holding_the_keys() {
        let mut tree = RoutingTree::new(9, 2, params(), 7).unwrap();
        tree.set_station(2, &[10, 20, 30]).unwrap();
        tree.set_station(7, &[40, 50]).unwrap();
        // A key only station 2 holds routes to exactly station 2.
        assert_eq!(tree.route(&[10]), vec![2]);
        // Keys from both stations route to both, ascending.
        assert_eq!(tree.route(&[30, 40]), vec![2, 7]);
        // A key nobody holds routes nowhere, as does an empty probe set.
        assert!(tree.route(&[999_999]).is_empty());
        assert!(tree.route(&[]).is_empty());
    }

    #[test]
    fn degenerate_trees_fall_back_to_broadcast() {
        // One station: nothing to prune, everything routes everywhere.
        let tree = RoutingTree::new(1, 4, params(), 7).unwrap();
        assert!(tree.is_degenerate());
        assert_eq!(tree.route(&[123]), vec![0]);
        assert_eq!(tree.route(&[]), vec![0]);
        assert_eq!(tree.route_frames(&[5]), vec![(0, 1, vec![0])]);
        // Zero stations: empty fallback.
        let tree = RoutingTree::new(0, 4, params(), 7).unwrap();
        assert!(tree.route(&[123]).is_empty());
        // Fanout above the station count still builds a working one-root
        // tree (not degenerate — the root can prune the whole deployment).
        let mut tree = RoutingTree::new(3, 8, params(), 7).unwrap();
        assert!(!tree.is_degenerate());
        tree.set_station(1, &[77]).unwrap();
        assert_eq!(tree.route(&[77]), vec![1]);
        assert!(tree.route(&[78]).is_empty());
    }

    #[test]
    fn set_station_sequence_equals_one_pass_build() {
        let final_keys: Vec<Vec<u64>> = vec![
            vec![],
            vec![1, 2, 3],
            vec![],
            vec![],
            vec![2, 9, 50, 60],
            vec![7],
        ];
        let mut incremental = RoutingTree::new(6, 3, params(), 11).unwrap();
        // Stations are set, overwritten and emptied again in any order.
        incremental.set_station(0, &[1, 2, 3]).unwrap();
        incremental.set_station(4, &[2, 9]).unwrap();
        incremental.set_station(5, &final_keys[5]).unwrap();
        incremental.set_station(4, &final_keys[4]).unwrap();
        incremental.set_station(0, &final_keys[0]).unwrap();
        incremental.set_station(1, &final_keys[1]).unwrap();
        let fresh = RoutingTree::from_station_keys(&final_keys, 3, params(), 11).unwrap();
        assert_eq!(incremental, fresh);
        assert_eq!(incremental.route(&[2]), vec![1, 4]);
        // Emptying every station restores the empty tree.
        for station in 0..6 {
            incremental.set_station(station, &[]).unwrap();
        }
        assert_eq!(incremental, RoutingTree::new(6, 3, params(), 11).unwrap());
    }

    #[test]
    fn unknown_station_is_rejected() {
        let mut tree = RoutingTree::new(2, 2, params(), 3).unwrap();
        assert!(tree.set_station(2, &[1]).is_err(), "unknown station");
        assert!(tree.set_station(9, &[1]).is_err(), "unknown station");
        assert_eq!(tree, RoutingTree::new(2, 2, params(), 3).unwrap());
    }

    #[test]
    fn route_frames_group_by_bottom_subtree() {
        let mut tree = RoutingTree::new(10, 4, params(), 5).unwrap();
        for station in [0, 3, 9] {
            tree.set_station(station, &[100]).unwrap();
        }
        let frames = tree.route_frames(&[100]);
        assert_eq!(
            frames,
            vec![(0, 4, vec![0, 3]), (8, 10, vec![9])],
            "targets grouped by their fanout-4 leaf chunk"
        );
    }

    #[test]
    fn from_dataset_equals_per_station_set_station_builds() {
        let dataset = Dataset::small(61);
        let config = DiMatchingConfig::default();
        let tree = RoutingTree::from_dataset(&dataset, 3, &config).unwrap();
        let keys = station_keys(&dataset, &config).unwrap();
        let mut incremental = RoutingTree::new(keys.len(), 3, tree.params(), config.seed).unwrap();
        for (station, station_keys) in keys.iter().enumerate().rev() {
            incremental.set_station(station, station_keys).unwrap();
        }
        assert_eq!(incremental, tree);
    }

    #[test]
    fn summaries_are_bloom_filters_over_their_rows_keys() {
        let dataset = Dataset::small(62);
        let config = DiMatchingConfig::default();
        let tree = RoutingTree::from_dataset(&dataset, 2, &config).unwrap();
        let keys = station_keys(&dataset, &config).unwrap();
        let rows = row_signatures(&dataset, &config);
        for (station, station_keys) in keys.iter().enumerate() {
            // A station's key set is its rows' signature keys, each once.
            let mut signatures = rows[station].concat();
            signatures.sort_unstable();
            signatures.dedup();
            assert_eq!(station_keys, &signatures, "station {station} key set");
            let mut expected = BloomFilter::new(tree.params(), config.seed ^ SUMMARY_SEED_TWEAK);
            for &key in station_keys {
                expected.insert(key);
            }
            let summary = tree.summary(station);
            assert_eq!(summary.bits(), expected.bits(), "station {station} bits");
            assert_eq!(summary.inserted(), station_keys.len() as u64);
            assert_eq!(summary, &expected);
        }
    }

    /// Each station's rows' routing signatures, one per row.
    fn row_signatures(dataset: &Dataset, config: &DiMatchingConfig) -> Vec<Vec<Vec<u64>>> {
        let zero_keys = zero_value_keys(config);
        let mut sampled = Vec::new();
        dataset
            .stations()
            .iter()
            .map(|&station| {
                let locals = dataset.station_locals(station);
                let patterns = locals.iter().flat_map(|locals| locals.values());
                patterns
                    .map(|pattern| {
                        sample_keys_into(pattern, config, &mut sampled).unwrap();
                        let mut signature = Vec::new();
                        push_signature(&mut signature, &sampled, &zero_keys);
                        signature
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn dataset_tree_covers_every_local_row() {
        let dataset = Dataset::small(61);
        let config = DiMatchingConfig::default();
        let tree = RoutingTree::from_dataset(&dataset, 3, &config).unwrap();
        assert_eq!(tree.station_count(), dataset.stations().len());
        // Soundness witness: every row's own keys route to (at least) the
        // station holding the row.
        for (station, rows) in row_signatures(&dataset, &config).iter().enumerate() {
            for keys in rows {
                assert!(
                    tree.route(keys).contains(&(station as u32)),
                    "station {station} pruned for its own row"
                );
            }
        }
    }
}
