//! Base-station-side matching (Algorithm 2) over hash-sharded local stores.
//!
//! A station's local store is split into [`Shards`] by a pure
//! `UserId → shard` mapping, so a station scans in shard-sized steps, each
//! charged its own modeled scan ticks; the layout never changes the results
//! or the report bytes. Each scan is
//! *batch-first*: every locally stored pattern is accumulated and sampled
//! **once**, then probed against every query section of the batch — one
//! pass over the store per batch, however many queries it carries. Only
//! `(query, ID, weight)` (or `(query, ID)` for the Bloom baseline) tuples
//! travel back to the center.
//!
//! [`scan_shard_wbf`] and [`scan_shard_bloom`] are the two scans, one per
//! filter family; a single-filter, unsharded scan is one section over one
//! shard. The WBF scan has one probe path for every section: a row's keys
//! are hashed at the section's own geometry, reused across neighbouring
//! sections that share it, tested by word mask and folded by weight mask,
//! whether the section is an owned filter or a zero-copy frame view.

use std::collections::BTreeMap;

use dipm_core::{
    BloomFilter, FilterCore, HashFamily, PrecomputedProbes, QueryScratch, WbfFrameView, Weight,
    WeightSet, WeightedBloomFilter,
};
use dipm_distsim::CostMeter;
use dipm_mobilenet::{StationId, UserId};
use dipm_timeseries::{for_each_sampled_point, Pattern};

use crate::config::DiMatchingConfig;
use crate::error::Result;

/// A pure `UserId → shard` layout shared by every station of a deployment.
///
/// The mapping is a fixed bit-mix of the user id — no table, no state — so
/// any node (or a rebalanced replacement) computes the same placement, and
/// merging per-shard scan results is always equivalent to an unsharded scan
/// (property-tested in `tests/properties.rs` for every count in `1..=8`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Shards {
    count: usize,
}

impl Shards {
    /// A layout with `count` shards per station; `0` is clamped to one
    /// shard (the unsharded layout).
    pub fn new(count: usize) -> Shards {
        Shards {
            count: count.max(1),
        }
    }

    /// The number of shards per station.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The shard `user` lives in — a pure function of the id alone.
    pub fn of(&self, user: UserId) -> usize {
        // SplitMix64 finalizer: cheap, stateless, and well distributed even
        // for the sequential ids the synthetic traces hand out.
        let mut x = user.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x % self.count as u64) as usize
    }
}

impl Default for Shards {
    fn default() -> Shards {
        Shards::new(1)
    }
}

/// One base station's local store, partitioned into hash shards.
///
/// Borrows the deployment's pattern data (the simulator owns the corpus;
/// a real station would own its shard files) and groups it by
/// [`Shards::of`]. Entries within a shard stay in ascending user order, so
/// a sequential walk of shard 0, shard 1, … visits a deterministic
/// permutation of the unsharded store.
#[derive(Debug)]
pub struct BaseStation<'a> {
    id: StationId,
    shards: Vec<Vec<(UserId, &'a Pattern)>>,
}

impl<'a> BaseStation<'a> {
    /// Partitions `locals` into `layout.count()` shards.
    pub fn from_locals(
        id: StationId,
        locals: &'a BTreeMap<UserId, Pattern>,
        layout: Shards,
    ) -> BaseStation<'a> {
        let mut shards: Vec<Vec<(UserId, &'a Pattern)>> = vec![Vec::new(); layout.count()];
        for (&user, pattern) in locals {
            shards[layout.of(user)].push((user, pattern));
        }
        BaseStation { id, shards }
    }

    /// The station this store belongs to.
    pub fn id(&self) -> StationId {
        self.id
    }

    /// The number of shards (≥ 1).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One shard's `(user, pattern)` rows in ascending user order.
    pub fn shard(&self, index: usize) -> &[(UserId, &'a Pattern)] {
        &self.shards[index]
    }

    /// Total users stored across all shards.
    pub fn user_count(&self) -> usize {
        self.shards.iter().map(Vec::len).sum()
    }
}

/// Samples one row into a reused key buffer: a single fused
/// accumulate-and-sample pass, zero allocations once `keys` has warmed up.
/// Returns the pattern's total volume (the final accumulated value).
/// Shared with the routing tree, whose station summaries must hold exactly
/// the keys the scan would probe.
pub(crate) fn sample_keys_into(
    pattern: &Pattern,
    config: &DiMatchingConfig,
    keys: &mut Vec<u64>,
) -> Result<u64> {
    keys.clear();
    let mut total = 0u64;
    for_each_sampled_point(pattern, config.samples, |i, point| {
        keys.push(config.hash_scheme.key(i, point.value));
        total = point.value;
    })?;
    Ok(total)
}

/// Allocating convenience wrapper over [`sample_keys_into`], for callers
/// outside the scan hot path.
#[cfg(test)]
fn sample_keys(pattern: &Pattern, config: &DiMatchingConfig) -> Result<(Vec<u64>, u64)> {
    let mut keys = Vec::new();
    let total = sample_keys_into(pattern, config, &mut keys)?;
    Ok((keys, total))
}

/// Picks the weight to report when several survive the intersection.
///
/// Tolerance bands of nested combinations overlap, so ambiguity is common.
/// The station knows its candidate's total volume and each query's global
/// volume (broadcast with the filter), so it can reconstruct every surviving
/// weight's *implied combination volume* `w·T_query`. A weight is
/// **plausible** if that implied volume lies within `slack = ε·len` of the
/// observed volume — exactly the drift a genuinely ε-similar pattern can
/// exhibit, so a true candidate's own weight is always plausible. Among
/// plausible weights the smallest is reported: under-reporting only lowers a
/// true candidate's rank, whereas over-reporting inflates its sum past 1 and
/// gets it wrongly deleted by Algorithm 3. With no plausible weight the
/// candidate is dropped. Without broadcast volumes every weight is treated
/// as plausible (pure-filter fallback).
///
/// The scan also runs this rule on a section's whole weight universe before
/// probing it: `None` there means `None` on every subset, so the section
/// cannot report the row.
fn select_weight(
    set: &WeightSet,
    query_totals: &[u64],
    local_total: u64,
    slack: u64,
) -> Option<Weight> {
    let plausible = |w: Weight| -> bool {
        if query_totals.is_empty() {
            return true;
        }
        query_totals.iter().any(|&t| {
            let implied = w.numerator() as u128 * t as u128;
            let observed = local_total as u128 * w.denominator() as u128;
            implied.abs_diff(observed) <= slack as u128 * w.denominator() as u128
        })
    };
    // Sorted ascending: the first plausible weight is the smallest one.
    set.iter().find(|&w| !w.is_zero() && plausible(w))
}

/// The query surface a WBF-style filter must expose for the station scan —
/// implemented by the owned [`WeightedBloomFilter`] and by the
/// zero-copy [`WbfFrameView`], so a station can scan straight out of a
/// received broadcast frame without materializing an owned filter.
pub trait WbfScanFilter: FilterCore {
    /// The sorted universe of every distinct weight attached in the filter:
    /// every weight fold is a subset of it, which is what makes the scan's
    /// prune exact.
    fn weight_universe(&self) -> &WeightSet;

    /// Whether every probed bit named by the `(word, mask)` run is set —
    /// the batched membership predicate the SIMD kernel accelerates.
    fn passes_masks(&self, words: &[u32], masks: &[u64]) -> bool;

    /// The weight-intersection fold over probe positions already known to
    /// be occupied (membership must have been established via
    /// [`passes_masks`](WbfScanFilter::passes_masks) first).
    fn fold_weights_precomputed<'s>(
        &'s self,
        pre: &PrecomputedProbes,
        scratch: &'s mut QueryScratch,
    ) -> Option<&'s WeightSet>;
}

impl WbfScanFilter for WeightedBloomFilter {
    fn weight_universe(&self) -> &WeightSet {
        WeightedBloomFilter::weight_universe(self)
    }

    fn passes_masks(&self, words: &[u32], masks: &[u64]) -> bool {
        self.bits().contains_probes_simd(words, masks)
    }

    fn fold_weights_precomputed<'s>(
        &'s self,
        pre: &PrecomputedProbes,
        scratch: &'s mut QueryScratch,
    ) -> Option<&'s WeightSet> {
        WeightedBloomFilter::fold_weights_precomputed(self, pre, scratch)
    }
}

impl WbfScanFilter for WbfFrameView {
    fn weight_universe(&self) -> &WeightSet {
        WbfFrameView::weight_universe(self)
    }

    fn passes_masks(&self, words: &[u32], masks: &[u64]) -> bool {
        self.bits().contains_probes_simd(words, masks)
    }

    fn fold_weights_precomputed<'s>(
        &'s self,
        pre: &PrecomputedProbes,
        scratch: &'s mut QueryScratch,
    ) -> Option<&'s WeightSet> {
        WbfFrameView::fold_weights_precomputed(self, pre, scratch)
    }
}

/// One WBF query section as the station scan sees it: the filter plus the
/// query volumes it was broadcast with, tagged with the batch-frame query
/// id. The filter slot is generic over [`WbfScanFilter`] so the same scan
/// runs against owned filters and zero-copy wire views; it defaults to the
/// owned [`WeightedBloomFilter`].
pub type WbfScanSection<'a, F = WeightedBloomFilter> = (u32, &'a F, &'a [u64]);

/// Algorithm 2 over one shard, batch-first: every stored pattern is sampled
/// once, then probed against every WBF query section. Returns
/// `(query, user, weight)` for each section that accepts a pattern with a
/// consistent, plausible weight, in `(row, section)` visit order.
///
/// The scan prunes exactly. Once a row is sampled, a section is skipped
/// when the weight-selection rule finds no weight in the section's whole
/// [`weight_universe`](WbfScanFilter::weight_universe) plausible for the
/// row's volume. A probe's weight fold is a subset of that universe, so a
/// skipped section could not have reported the row: the reports and their
/// order are those of an exhaustive scan. The row is sampled before the
/// test, so a malformed row errors exactly where an exhaustive scan would.
///
/// Every surviving section takes one probe path. The row's keys are hashed
/// at the section's geometry key by key, and the section is dropped at its
/// first key whose probes miss. Probes hashed for one section are reused by
/// the next when the two share a geometry, so a batch of same-geometry
/// sections hashes each key at most once. A section whose every key passes
/// folds its weight sets.
///
/// `meter`, when given, records the work performed: the full probe cost of
/// every `(row, section)` pair that survives the test as `hash_ops`, every
/// skipped pair as `rows_pruned`, and the weight-fold comparisons.
///
/// # Errors
///
/// Propagates pattern-transformation errors (overflow, zero samples).
pub fn scan_shard_wbf<F: WbfScanFilter>(
    sections: &[WbfScanSection<'_, F>],
    shard: &[(UserId, &Pattern)],
    config: &DiMatchingConfig,
    meter: Option<&CostMeter>,
) -> Result<Vec<(u32, UserId, Weight)>> {
    // Reserve for a percent-level hit rate so steady-state scans never grow
    // the report vector; reports stay rare in a miss-dominated store.
    let mut reports = Vec::with_capacity(
        sections
            .len()
            .saturating_mul(shard.len() / 64 + 1)
            .min(1 << 16),
    );
    // Per-shard scratch: the key buffer, the probe core's intersection
    // buffer and the probe set are reused across every row, so the
    // per-(row × section) probe itself is allocation-free.
    let mut keys: Vec<u64> = Vec::with_capacity(config.samples);
    let mut scratch = QueryScratch::new();
    let mut pre = PrecomputedProbes::new();
    let most_hashes = sections.iter().map(|s| s.1.hashes()).max().unwrap_or(0);
    pre.reserve(config.samples.saturating_mul(usize::from(most_hashes)));
    for &(user, pattern) in shard {
        let local_total = sample_keys_into(pattern, config, &mut keys)?;
        let slack = config.eps.saturating_mul(pattern.len() as u64);
        // The geometry `pre` holds this row's probes for, if any.
        let mut hashed = None;
        for &(query, filter, query_totals) in sections {
            // The exact prune. The meter charges each candidate its full
            // probe cost here, so the recorded cost depends on the row and
            // the section alone, however early the probe cuts hashing short.
            if select_weight(filter.weight_universe(), query_totals, local_total, slack).is_none() {
                if let Some(m) = meter {
                    m.record_rows_pruned(1);
                }
                continue;
            }
            if let Some(m) = meter {
                m.record_hash_ops(filter.probe_cost(keys.len()));
            }
            let family = HashFamily::new(filter.hashes(), filter.seed());
            let geometry = Some((family, filter.bit_len()));
            if hashed != geometry {
                pre.clear();
                hashed = geometry;
            }
            let member = keys.iter().enumerate().all(|(ordinal, &key)| {
                if ordinal == pre.key_count() {
                    pre.push_key(&family, filter.bit_len(), key);
                }
                let (words, masks) = pre.key_masks(ordinal);
                filter.passes_masks(words, masks)
            });
            if !member {
                continue;
            }
            if let Some(set) = filter.fold_weights_precomputed(&pre, &mut scratch) {
                if let Some(m) = meter {
                    m.record_comparisons(set.len() as u64 + 1);
                }
                if let Some(weight) = select_weight(set, query_totals, local_total, slack) {
                    reports.push((query, user, weight));
                }
            }
        }
    }
    Ok(reports)
}

/// The Bloom-baseline analogue of [`scan_shard_wbf`]: membership only, no
/// weights — every `(query, user)` pair whose sampled points are all
/// contained in that query's filter is reported.
///
/// # Errors
///
/// Propagates pattern-transformation errors.
pub fn scan_shard_bloom(
    sections: &[(u32, &BloomFilter)],
    shard: &[(UserId, &Pattern)],
    config: &DiMatchingConfig,
    meter: Option<&CostMeter>,
) -> Result<Vec<(u32, UserId)>> {
    let mut reports = Vec::with_capacity(
        sections
            .len()
            .saturating_mul(shard.len() / 64 + 1)
            .min(1 << 16),
    );
    let mut keys: Vec<u64> = Vec::with_capacity(config.samples);
    for &(user, pattern) in shard {
        sample_keys_into(pattern, config, &mut keys)?;
        for &(query, filter) in sections {
            if let Some(m) = meter {
                m.record_hash_ops(filter.probe_cost(keys.len()));
            }
            if keys.iter().all(|&k| filter.contains(k)) {
                reports.push((query, user));
            }
        }
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datacenter::{build_wbf, BuiltFilter};
    use crate::query::PatternQuery;
    use dipm_core::FilterParams;

    fn station(patterns: Vec<(u64, Pattern)>) -> BTreeMap<UserId, Pattern> {
        patterns
            .into_iter()
            .map(|(id, p)| (UserId(id), p))
            .collect()
    }

    /// The whole store as one shard, in ascending user order.
    fn one_shard(patterns: &BTreeMap<UserId, Pattern>) -> Vec<(UserId, &Pattern)> {
        patterns.iter().map(|(&u, p)| (u, p)).collect()
    }

    /// Algorithm 2 over one unsharded store with a single query filter:
    /// the `(user, weight)` reports of a one-section scan.
    fn scan_one(
        built: &BuiltFilter,
        patterns: &BTreeMap<UserId, Pattern>,
        config: &DiMatchingConfig,
        meter: Option<&CostMeter>,
    ) -> Vec<(UserId, Weight)> {
        let sections: [WbfScanSection<'_>; 1] = [(0, &built.filter, built.query_totals.as_slice())];
        scan_shard_wbf(&sections, &one_shard(patterns), config, meter)
            .unwrap()
            .into_iter()
            .map(|(_, u, w)| (u, w))
            .collect()
    }

    // Fragments chosen so no combination's tolerance band contains another
    // combination's samples at every position: weights are unambiguous.
    fn demo_query() -> PatternQuery {
        PatternQuery::from_locals(vec![
            Pattern::from([10u64, 0, 0, 5, 0, 0, 8, 0]),
            Pattern::from([0u64, 20, 0, 0, 15, 0, 0, 10]),
        ])
        .unwrap()
    }

    #[test]
    fn shard_mapping_is_pure_and_total() {
        for count in 1..=8 {
            let layout = Shards::new(count);
            assert_eq!(layout.count(), count);
            for id in 0..1000 {
                let shard = layout.of(UserId(id));
                assert!(shard < count);
                assert_eq!(shard, layout.of(UserId(id)), "mapping must be pure");
            }
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let layout = Shards::new(0);
        assert_eq!(layout.count(), 1);
        assert_eq!(layout.of(UserId(123)), 0);
    }

    #[test]
    fn shards_spread_users() {
        let layout = Shards::new(4);
        let hit: std::collections::BTreeSet<usize> =
            (0..64).map(|id| layout.of(UserId(id))).collect();
        assert_eq!(hit.len(), 4, "64 sequential ids must reach all 4 shards");
    }

    #[test]
    fn base_station_partitions_cover_the_store() {
        let patterns = station((0..40).map(|i| (i, Pattern::from([i, 1, 2, 3]))).collect());
        let layout = Shards::new(5);
        let st = BaseStation::from_locals(StationId(3), &patterns, layout);
        assert_eq!(st.id(), StationId(3));
        assert_eq!(st.shard_count(), 5);
        assert_eq!(st.user_count(), 40);
        let mut seen = Vec::new();
        for i in 0..st.shard_count() {
            for &(user, pattern) in st.shard(i) {
                assert_eq!(layout.of(user), i, "row placed in the wrong shard");
                assert_eq!(patterns.get(&user), Some(pattern));
                seen.push(user);
            }
            let shard = st.shard(i);
            assert!(
                shard.windows(2).all(|w| w[0].0 < w[1].0),
                "shard rows must stay user-ordered"
            );
        }
        seen.sort();
        let expect: Vec<UserId> = patterns.keys().copied().collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn station_finds_global_match_with_weight_one() {
        let query = demo_query();
        let config = DiMatchingConfig::default();
        let built = build_wbf(std::slice::from_ref(&query), &config).unwrap();
        let patterns = station(vec![(42, query.global().clone())]);
        let reports = scan_one(&built, &patterns, &config, None);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].0, UserId(42));
        assert!(reports[0].1.is_one());
    }

    #[test]
    fn station_finds_local_match_with_fractional_weight() {
        let query = demo_query();
        let config = DiMatchingConfig::default();
        let built = build_wbf(std::slice::from_ref(&query), &config).unwrap();
        let local = query.locals()[0].clone();
        let expect =
            Weight::ratio(local.total().unwrap(), query.global().total().unwrap()).unwrap();
        let patterns = station(vec![(7, local)]);
        let reports = scan_one(&built, &patterns, &config, None);
        assert_eq!(reports, vec![(UserId(7), expect)]);
    }

    #[test]
    fn station_accepts_eps_similar_pattern() {
        let query = demo_query();
        let config = DiMatchingConfig::default(); // eps = 2
        let built = build_wbf(std::slice::from_ref(&query), &config).unwrap();
        // Perturb the global by +1/-1 per interval: still within ε.
        let perturbed: Pattern = query
            .global()
            .iter()
            .enumerate()
            .map(|(i, v)| {
                if i % 2 == 0 {
                    v + 1
                } else {
                    v.saturating_sub(1)
                }
            })
            .collect();
        let patterns = station(vec![(1, perturbed)]);
        let reports = scan_one(&built, &patterns, &config, None);
        assert_eq!(reports.len(), 1, "ε-similar pattern must match");
    }

    #[test]
    fn station_rejects_distant_pattern() {
        let query = demo_query();
        let config = DiMatchingConfig::default();
        let built = build_wbf(std::slice::from_ref(&query), &config).unwrap();
        let far: Pattern = query.global().iter().map(|v| v + 50).collect();
        let patterns = station(vec![(1, far)]);
        let reports = scan_one(&built, &patterns, &config, None);
        assert!(reports.is_empty());
    }

    #[test]
    fn batch_scan_samples_each_pattern_once_for_many_sections() {
        // Probing two sections must double hash work but not the sampling:
        // reports appear per accepting section, tagged by query id.
        let query = demo_query();
        let config = DiMatchingConfig::default();
        let built = build_wbf(std::slice::from_ref(&query), &config).unwrap();
        let patterns = station(vec![(5, query.global().clone())]);
        let shard = one_shard(&patterns);
        let sections: Vec<WbfScanSection<'_>> = vec![
            (0, &built.filter, built.query_totals.as_slice()),
            (9, &built.filter, built.query_totals.as_slice()),
        ];
        let meter = CostMeter::new();
        let reports = scan_shard_wbf(&sections, &shard, &config, Some(&meter)).unwrap();
        let tags: Vec<u32> = reports.iter().map(|&(q, _, _)| q).collect();
        assert_eq!(tags, vec![0, 9]);
        let single = CostMeter::new();
        scan_shard_wbf(&sections[..1], &shard, &config, Some(&single)).unwrap();
        assert_eq!(
            meter.report().hash_ops,
            2 * single.report().hash_ops,
            "hash work scales with sections"
        );
    }

    #[test]
    fn meter_records_station_work() {
        let query = demo_query();
        let config = DiMatchingConfig::default();
        let built = build_wbf(std::slice::from_ref(&query), &config).unwrap();
        let meter = CostMeter::new();
        let patterns = station(vec![(1, query.global().clone())]);
        scan_one(&built, &patterns, &config, Some(&meter));
        let report = meter.report();
        assert!(report.hash_ops > 0);
        assert!(report.comparisons > 0);
    }

    #[test]
    fn bloom_scan_reports_ids_only() {
        let query = demo_query();
        let config = DiMatchingConfig::default();
        // Build a plain BF over the same keys the WBF would hold.
        let built = build_wbf(std::slice::from_ref(&query), &config).unwrap();
        let mut bf = BloomFilter::new(
            FilterParams::new(built.filter.bit_len(), built.filter.hashes()).unwrap(),
            config.seed,
        );
        // Re-insert the global's exact sampled keys.
        let (keys, _) = sample_keys(query.global(), &config).unwrap();
        for k in keys {
            bf.insert(k);
        }
        let patterns = station(vec![(5, query.global().clone())]);
        let reports = scan_shard_bloom(&[(3, &bf)], &one_shard(&patterns), &config, None).unwrap();
        assert_eq!(reports, vec![(3, UserId(5))]);
    }

    /// A store mixing the demo query's global (weight 1), its first local
    /// fragment (fractional weight) and distant non-matches.
    fn mixed_store(non_matches: u64) -> BTreeMap<UserId, Pattern> {
        let query = demo_query();
        let mut patterns = vec![(3, query.global().clone()), (8, query.locals()[0].clone())];
        for i in 0..non_matches {
            let far: Pattern = query.global().iter().map(|v| v + 50 + i).collect();
            patterns.push((100 + i, far));
        }
        station(patterns)
    }

    #[test]
    fn pruned_scan_matches_exhaustive_reports() {
        let query = demo_query();
        let config = DiMatchingConfig::default();
        let built = build_wbf(std::slice::from_ref(&query), &config).unwrap();
        let patterns = mixed_store(200);
        let shard = one_shard(&patterns);
        let sections: Vec<WbfScanSection<'_>> = vec![
            (0, &built.filter, built.query_totals.as_slice()),
            (1, &built.filter, built.query_totals.as_slice()),
        ];
        let local = &query.locals()[0];
        let fraction =
            Weight::ratio(local.total().unwrap(), query.global().total().unwrap()).unwrap();
        let meter = CostMeter::new();
        let reports = scan_shard_wbf(&sections, &shard, &config, Some(&meter)).unwrap();
        assert_eq!(
            reports,
            vec![
                (0, UserId(3), Weight::ONE),
                (1, UserId(3), Weight::ONE),
                (0, UserId(8), fraction),
                (1, UserId(8), fraction),
            ]
        );
        // Every far row's volume is implausible for every weight: all 400
        // of its (row, section) pairs are skipped before any hashing.
        let report = meter.report();
        assert_eq!(report.rows_pruned, 2 * 200);
        let probes = sample_keys(query.global(), &config).unwrap().0.len();
        assert_eq!(report.hash_ops, 2 * 2 * built.filter.probe_cost(probes));
        assert_eq!(report.blocks_skipped, 0);
    }

    #[test]
    fn dead_section_is_pruned_without_hashing() {
        // A filter with no insertions has an empty weight universe: the
        // scan must skip every row of it without hash work.
        let query = demo_query();
        let config = DiMatchingConfig::default();
        let built = build_wbf(std::slice::from_ref(&query), &config).unwrap();
        let empty = WeightedBloomFilter::new(
            FilterParams::new(built.filter.bit_len(), built.filter.hashes()).unwrap(),
            config.seed,
        );
        let patterns = mixed_store(10);
        let shard = one_shard(&patterns);
        let sections: Vec<WbfScanSection<'_>> = vec![(0, &empty, &[])];
        let meter = CostMeter::new();
        let reports = scan_shard_wbf(&sections, &shard, &config, Some(&meter)).unwrap();
        assert!(reports.is_empty());
        let report = meter.report();
        assert_eq!(report.hash_ops, 0, "dead section must not hash");
        assert_eq!(report.rows_pruned, shard.len() as u64);
    }

    #[test]
    fn empty_station_produces_no_reports() {
        let query = demo_query();
        let config = DiMatchingConfig::default();
        let built = build_wbf(&[query], &config).unwrap();
        assert!(scan_one(&built, &BTreeMap::new(), &config, None).is_empty());
    }
}
