//! Data-center-side algorithms: WBF construction (Algorithm 1) and
//! similarity ranking (Algorithm 3).

use std::collections::{BTreeMap, BTreeSet};

use dipm_core::{FilterCore, FilterParams, Weight, WeightedBloomFilter};
use dipm_mobilenet::UserId;
use dipm_timeseries::{enumerate_combinations, AccumulatedPattern, SampledPattern};

use crate::config::DiMatchingConfig;
use crate::error::Result;
use crate::query::PatternQuery;

/// Construction statistics reported alongside a built filter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Number of query patterns (`a` of Eq. 4, summed over queries).
    pub combinations: usize,
    /// Number of `(key, weight)` insertions, tolerance bands included.
    pub inserted_values: u64,
    /// The filter length in bits.
    pub bits: usize,
    /// The number of hash functions.
    pub hashes: u16,
}

impl BuildStats {
    /// Stats for a freshly built filter of either variant.
    fn for_filter<F: FilterCore>(combinations: usize, inserted_values: u64, filter: &F) -> Self {
        BuildStats {
            combinations,
            inserted_values,
            bits: filter.bit_len(),
            hashes: filter.hashes(),
        }
    }

    /// Element-wise sum — the merged statistics of a batch of per-query
    /// filter sections.
    pub fn merged_with(self, other: BuildStats) -> BuildStats {
        BuildStats {
            combinations: self.combinations + other.combinations,
            inserted_values: self.inserted_values + other.inserted_values,
            bits: self.bits + other.bits,
            hashes: self.hashes.max(other.hashes),
        }
    }
}

/// A filter built by Algorithm 1, ready for broadcast.
#[derive(Debug, Clone)]
pub struct BuiltFilter {
    /// The weighted Bloom filter encoding every combination pattern.
    pub filter: WeightedBloomFilter,
    /// Each query's global volume (the sampled accumulated maximum), in
    /// query order. Broadcast with the filter so stations can pick, among
    /// ambiguous surviving weights, the one whose implied combination volume
    /// matches the candidate's observed volume.
    pub query_totals: Vec<u64>,
    /// The distinct probe keys inserted, ascending. A station can genuinely
    /// report against this section only if at least one of these keys is in
    /// its local key population — the test the routing tree makes against
    /// each station's summary filter.
    pub probe_keys: Vec<u64>,
    /// Construction statistics.
    pub stats: BuildStats,
}

/// One combination pattern prepared for insertion: its sampled accumulated
/// points and its weight.
struct PreparedPattern {
    sampled: SampledPattern,
    weight: Weight,
}

/// Everything both builders need: the distinct `(key, weight)` pairs of the
/// query set (tolerance bands expanded, duplicates collapsed), the per-query
/// global volumes, and the combination count. The streaming session reuses
/// this per query: a standing query's pair set is exactly what its
/// registry entry keeps and every epoch's filter build inserts.
pub(crate) struct PreparedBuild {
    pub(crate) pairs: BTreeSet<(u64, Weight)>,
    pub(crate) query_totals: Vec<u64>,
    pub(crate) combinations: usize,
}

impl PreparedBuild {
    /// The distinct probe keys, ascending (the quantity filters are sized
    /// by — identical `(key, weight)` pairs set identical bits — and the
    /// set routing probes station summaries with).
    pub(crate) fn probe_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = Vec::new();
        for &(key, _) in &self.pairs {
            if keys.last() != Some(&key) {
                keys.push(key);
            }
        }
        keys
    }
}

/// Collects the distinct insertion pairs for a query set. Similar queries
/// produce heavily overlapping tolerance bands, so the *distinct* pairs are
/// collected first and the filter sized by distinct keys, not raw
/// insertions.
pub(crate) fn prepare_build(
    queries: &[PatternQuery],
    config: &DiMatchingConfig,
) -> Result<PreparedBuild> {
    let (prepared, query_totals) = prepare_queries(queries, config)?;
    let mut pairs: BTreeSet<(u64, Weight)> = BTreeSet::new();
    for p in &prepared {
        for (index, point) in p.sampled.points().iter().enumerate() {
            for value in config.tolerance.band_values(config.eps, *point) {
                pairs.insert((config.hash_scheme.key(index, value), p.weight));
            }
        }
    }
    Ok(PreparedBuild {
        pairs,
        query_totals,
        combinations: prepared.len(),
    })
}

/// Sizes a filter for `distinct_keys` insertions at the configured target
/// false-positive rate, with the configured floor applied — unless the
/// configuration pins an explicit geometry (streaming sessions and
/// rebuild-equivalence comparisons do).
pub(crate) fn sized_params(
    distinct_keys: usize,
    config: &DiMatchingConfig,
) -> Result<FilterParams> {
    if let Some(params) = config.fixed_geometry {
        return Ok(params);
    }
    let params = FilterParams::optimal(distinct_keys.max(1), config.target_fpp)?;
    if params.bits() < config.min_bits {
        Ok(FilterParams::new(config.min_bits, params.hashes())?)
    } else {
        Ok(params)
    }
}

fn prepare_queries(
    queries: &[PatternQuery],
    config: &DiMatchingConfig,
) -> Result<(Vec<PreparedPattern>, Vec<u64>)> {
    let mut prepared = Vec::new();
    let mut query_totals = Vec::with_capacity(queries.len());
    for query in queries {
        let combos = enumerate_combinations(query.locals())?;
        // The final combination is the full set — the global pattern — whose
        // sampled maximum is the weight denominator v_ab of Algorithm 1.
        let global_acc = AccumulatedPattern::from_pattern(
            &combos.last().expect("at least one combination").pattern,
        )?;
        let global_sampled = SampledPattern::from_accumulated(&global_acc, config.samples)?;
        let global_total = global_sampled.max_value();
        query_totals.push(global_total);
        for combo in &combos {
            let acc = AccumulatedPattern::from_pattern(&combo.pattern)?;
            let sampled = SampledPattern::from_accumulated(&acc, config.samples)?;
            let total = sampled.max_value();
            if total == 0 {
                // A zero-volume combination carries no information and its
                // weight-0 entries would spuriously match idle users.
                continue;
            }
            let weight = Weight::ratio(total, global_total)?;
            prepared.push(PreparedPattern { sampled, weight });
        }
    }
    Ok((prepared, query_totals))
}

/// Algorithm 1: builds one weighted Bloom filter over every subset-sum
/// combination of every query's local patterns, with ε-tolerance bands.
///
/// # Errors
///
/// Propagates configuration, pattern and filter errors; see
/// [`DiMatchingConfig::validate`] and [`PatternQuery::from_locals`].
///
/// # Examples
///
/// ```
/// use dipm_protocol::{build_wbf, DiMatchingConfig, PatternQuery};
/// use dipm_timeseries::Pattern;
///
/// # fn main() -> Result<(), dipm_protocol::ProtocolError> {
/// let query = PatternQuery::from_locals(vec![
///     Pattern::from([1u64, 2, 3]),
///     Pattern::from([2u64, 2, 2]),
/// ])?;
/// let built = build_wbf(&[query], &DiMatchingConfig::default())?;
/// assert_eq!(built.stats.combinations, 3); // 2^2 − 1
/// # Ok(())
/// # }
/// ```
pub fn build_wbf(queries: &[PatternQuery], config: &DiMatchingConfig) -> Result<BuiltFilter> {
    config.validate()?;
    let build = prepare_build(queries, config)?;
    let probe_keys = build.probe_keys();
    let params = sized_params(probe_keys.len(), config)?;
    let filter = WeightedBloomFilter::from_pairs(params, config.seed, build.pairs.iter().copied());
    let stats = BuildStats::for_filter(build.combinations, build.pairs.len() as u64, &filter);
    Ok(BuiltFilter {
        filter,
        query_totals: build.query_totals,
        probe_keys,
        stats,
    })
}

/// A plain Bloom filter built over the same keys Algorithm 1 would insert —
/// the paper's `BF` comparison method (DI-matching with the weight layer
/// removed).
#[derive(Debug, Clone)]
pub struct BuiltBloom {
    /// The unweighted filter.
    pub filter: dipm_core::BloomFilter,
    /// The distinct probe keys inserted, ascending (see
    /// [`BuiltFilter::probe_keys`]).
    pub probe_keys: Vec<u64>,
    /// Construction statistics.
    pub stats: BuildStats,
}

/// Builds the Bloom-baseline filter: identical representation, sampling and
/// ε-banding to [`build_wbf`], but membership only — no weights.
///
/// # Errors
///
/// Same as [`build_wbf`].
pub fn build_bloom(queries: &[PatternQuery], config: &DiMatchingConfig) -> Result<BuiltBloom> {
    config.validate()?;
    let build = prepare_build(queries, config)?;
    // The weight layer is dropped: only the distinct keys are inserted.
    let probe_keys = build.probe_keys();
    let params = sized_params(probe_keys.len(), config)?;
    let mut filter = dipm_core::BloomFilter::new(params, config.seed);
    for &key in &probe_keys {
        filter.insert(key);
    }
    let stats = BuildStats::for_filter(build.combinations, probe_keys.len() as u64, &filter);
    Ok(BuiltBloom {
        filter,
        probe_keys,
        stats,
    })
}

/// A ranked answer entry: a user and their aggregated weight sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankedUser {
    /// The matched user.
    pub user: UserId,
    /// The exact aggregated weight (1 for a perfectly reconstructed global
    /// match).
    pub weight_sum: Weight,
    /// How many stations reported this user — the ranking tie-breaker: a
    /// user matching at more stations reconstructed the query decomposition
    /// more faithfully than one reaching the same sum in fewer pieces.
    pub reports: u32,
}

/// Algorithm 3: aggregates per-station `(user, weight)` reports, discards
/// users whose weight sum exceeds 1 (they matched both the global pattern
/// and some local pattern, so their true global differs), ranks the rest by
/// descending weight sum (ties by ascending user id) and returns the top-K.
///
/// `top_k = None` returns every surviving user in rank order.
///
/// # Examples
///
/// ```
/// use dipm_core::Weight;
/// use dipm_mobilenet::UserId;
/// use dipm_protocol::aggregate_and_rank;
///
/// # fn main() -> Result<(), dipm_core::CoreError> {
/// let reports = vec![
///     (UserId(1), Weight::new(1, 3)?),
///     (UserId(1), Weight::new(2, 3)?), // sums to exactly 1
///     (UserId(2), Weight::new(1, 2)?),
///     (UserId(3), Weight::ONE),
///     (UserId(3), Weight::new(1, 3)?), // sums above 1 → discarded
/// ];
/// let ranked = aggregate_and_rank(reports, None);
/// let ids: Vec<u64> = ranked.iter().map(|r| r.user.0).collect();
/// assert_eq!(ids, vec![1, 2]);
/// # Ok(())
/// # }
/// ```
pub fn aggregate_and_rank(reports: Vec<(UserId, Weight)>, top_k: Option<usize>) -> Vec<RankedUser> {
    let mut sums: BTreeMap<UserId, (Option<Weight>, u32)> = BTreeMap::new();
    for (user, weight) in reports {
        let entry = sums.entry(user).or_insert((Some(Weight::ZERO), 0));
        // `None` marks arithmetic overflow; an overflowed sum is certainly
        // above 1, so the user is discarded below either way.
        entry.0 = entry.0.and_then(|current| current.checked_add(weight));
        entry.1 += 1;
    }
    let mut ranked: Vec<RankedUser> = sums
        .into_iter()
        .filter_map(|(user, (sum, reports))| {
            let weight_sum = sum?;
            if weight_sum.cmp_one() == std::cmp::Ordering::Greater || weight_sum.is_zero() {
                None
            } else {
                Some(RankedUser {
                    user,
                    weight_sum,
                    reports,
                })
            }
        })
        .collect();
    // Comparator is a total order (user id breaks every tie), so the
    // unstable sort is deterministic and avoids the stable sort's buffer.
    fn rank_order(a: &RankedUser, b: &RankedUser) -> std::cmp::Ordering {
        b.weight_sum
            .cmp(&a.weight_sum)
            .then_with(|| b.reports.cmp(&a.reports))
            .then_with(|| a.user.cmp(&b.user))
    }
    match top_k {
        Some(0) => ranked.clear(),
        // Small-k cutoffs dominate in practice: partition the k best to the
        // front in O(n), then sort only them — O(n + k log k) total. Past
        // n/2 the partition stops paying for itself.
        Some(k) if k < ranked.len() / 2 => {
            ranked.select_nth_unstable_by(k - 1, rank_order);
            ranked.truncate(k);
            ranked.sort_unstable_by(rank_order);
        }
        _ => {
            ranked.sort_unstable_by(rank_order);
            if let Some(k) = top_k {
                ranked.truncate(k);
            }
        }
    }
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HashScheme;
    use dipm_timeseries::Pattern;

    fn w(n: u64, d: u64) -> Weight {
        Weight::new(n, d).unwrap()
    }

    fn demo_query() -> PatternQuery {
        PatternQuery::from_locals(vec![
            Pattern::from([1u64, 2, 3, 1, 0, 2, 4, 1]),
            Pattern::from([2u64, 2, 2, 0, 1, 3, 0, 2]),
        ])
        .unwrap()
    }

    #[test]
    fn top_k_selection_matches_full_sort_for_every_k() {
        // The select-then-sort fast path must agree with plain
        // sort-and-truncate for every cutoff, including the boundary cases
        // around the n/2 switch, ties everywhere, and k past the end.
        let reports: Vec<(UserId, Weight)> = (0..60u64)
            .map(|i| (UserId(i), w(1 + i % 5, 7 + i % 3)))
            .filter(|(_, weight)| weight.cmp_one() != std::cmp::Ordering::Greater)
            .collect();
        let full = aggregate_and_rank(reports.clone(), None);
        for k in 0..=full.len() + 2 {
            let mut expect = full.clone();
            expect.truncate(k);
            assert_eq!(
                aggregate_and_rank(reports.clone(), Some(k)),
                expect,
                "k = {k}"
            );
        }
    }

    #[test]
    fn ranking_breaks_every_tie_deterministically() {
        // The ranking sort is unstable, so the comparator must be a total
        // order: users tying on weight sum AND report count are separated by
        // user id, and any permutation of the incoming reports ranks
        // identically.
        let reports = vec![
            (UserId(7), w(1, 2)),
            (UserId(3), w(1, 2)),
            (UserId(11), w(1, 2)),
            (UserId(5), w(1, 4)),
            (UserId(5), w(1, 4)),
            (UserId(2), w(1, 4)),
            (UserId(2), w(1, 4)),
            (UserId(9), w(1, 1)),
        ];
        let baseline = aggregate_and_rank(reports.clone(), None);
        let ids: Vec<u64> = baseline.iter().map(|r| r.user.0).collect();
        // Weight 1 first; the 1/2 trio ties on (sum, reports=1) and must come
        // out in ascending user order; likewise the 1/2-sum pair with 2
        // reports outranks the single-report trio.
        assert_eq!(ids, vec![9, 2, 5, 3, 7, 11]);
        for rotation in 1..reports.len() {
            let mut permuted = reports.clone();
            permuted.rotate_left(rotation);
            let last = permuted.len() - 1;
            permuted.swap(0, rotation % last);
            let ranked = aggregate_and_rank(permuted, None);
            assert_eq!(
                ranked
                    .iter()
                    .map(|r| (r.user, r.weight_sum, r.reports))
                    .collect::<Vec<_>>(),
                baseline
                    .iter()
                    .map(|r| (r.user, r.weight_sum, r.reports))
                    .collect::<Vec<_>>(),
                "rotation {rotation}"
            );
        }
    }

    #[test]
    fn build_produces_expected_combination_count() {
        let built = build_wbf(&[demo_query()], &DiMatchingConfig::default()).unwrap();
        assert_eq!(built.stats.combinations, 3);
        assert!(built.stats.inserted_values > 0);
        assert_eq!(built.filter.inserted(), built.stats.inserted_values);
    }

    #[test]
    fn global_pattern_gets_weight_one() {
        let query = demo_query();
        let config = DiMatchingConfig::default();
        let built = build_wbf(std::slice::from_ref(&query), &config).unwrap();
        // Probe the global pattern's sampled points: weight 1 must survive.
        let acc = AccumulatedPattern::from_pattern(query.global()).unwrap();
        let sampled = SampledPattern::from_accumulated(&acc, config.samples).unwrap();
        let keys = sampled
            .points()
            .iter()
            .enumerate()
            .map(|(i, p)| config.hash_scheme.key(i, p.value));
        let set = built.filter.query_sequence(keys).expect("bits set");
        assert!(set.contains(Weight::ONE));
    }

    #[test]
    fn local_pattern_gets_fractional_weight() {
        let query = demo_query();
        let config = DiMatchingConfig::default();
        let built = build_wbf(std::slice::from_ref(&query), &config).unwrap();
        let local = &query.locals()[0];
        let acc = AccumulatedPattern::from_pattern(local).unwrap();
        let sampled = SampledPattern::from_accumulated(&acc, config.samples).unwrap();
        let keys = sampled
            .points()
            .iter()
            .enumerate()
            .map(|(i, p)| config.hash_scheme.key(i, p.value));
        let set = built.filter.query_sequence(keys).expect("bits set");
        let expect =
            Weight::ratio(local.total().unwrap(), query.global().total().unwrap()).unwrap();
        assert!(set.contains(expect));
    }

    #[test]
    fn zero_volume_combinations_are_skipped() {
        let query = PatternQuery::from_locals(vec![
            Pattern::from([0u64, 0, 0, 0]),
            Pattern::from([1u64, 2, 0, 1]),
        ])
        .unwrap();
        let built = build_wbf(&[query], &DiMatchingConfig::default()).unwrap();
        // Combinations {zero}, {nonzero}, {both}: the zero one is skipped.
        assert_eq!(built.stats.combinations, 2);
    }

    #[test]
    fn multiple_queries_share_one_filter() {
        let q1 = demo_query();
        let q2 = PatternQuery::from_global(Pattern::from([9u64, 9, 9, 9, 9, 9, 9, 9])).unwrap();
        let built = build_wbf(&[q1, q2], &DiMatchingConfig::default()).unwrap();
        assert_eq!(built.stats.combinations, 4); // 3 + 1
    }

    #[test]
    fn min_bits_floor_applies() {
        let config = DiMatchingConfig {
            min_bits: 1 << 16,
            ..Default::default()
        };
        let built = build_wbf(&[demo_query()], &config).unwrap();
        assert!(built.stats.bits >= 1 << 16);
    }

    #[test]
    fn position_tagged_scheme_builds() {
        let config = DiMatchingConfig {
            hash_scheme: HashScheme::PositionTagged,
            ..Default::default()
        };
        let built = build_wbf(&[demo_query()], &config).unwrap();
        assert!(built.stats.inserted_values > 0);
    }

    #[test]
    fn aggregate_exact_decomposition_sums_to_one() {
        let ranked = aggregate_and_rank(vec![(UserId(7), w(1, 4)), (UserId(7), w(3, 4))], None);
        assert_eq!(ranked.len(), 1);
        assert!(ranked[0].weight_sum.is_one());
    }

    #[test]
    fn aggregate_discards_over_one() {
        // Section IV-B: matching the global at one station and a local at
        // another means the true aggregated global differs — delete.
        let ranked = aggregate_and_rank(vec![(UserId(1), Weight::ONE), (UserId(1), w(1, 3))], None);
        assert!(ranked.is_empty());
    }

    #[test]
    fn aggregate_ranks_descending_with_id_ties() {
        let ranked = aggregate_and_rank(
            vec![
                (UserId(5), w(1, 2)),
                (UserId(2), Weight::ONE),
                (UserId(9), w(1, 2)),
            ],
            None,
        );
        let ids: Vec<u64> = ranked.iter().map(|r| r.user.0).collect();
        assert_eq!(ids, vec![2, 5, 9]);
    }

    #[test]
    fn aggregate_top_k_truncates() {
        let ranked = aggregate_and_rank(
            vec![
                (UserId(1), Weight::ONE),
                (UserId(2), w(2, 3)),
                (UserId(3), w(1, 3)),
            ],
            Some(2),
        );
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].user, UserId(1));
    }

    #[test]
    fn aggregate_zero_weight_users_dropped() {
        let ranked = aggregate_and_rank(vec![(UserId(1), Weight::ZERO)], None);
        assert!(ranked.is_empty());
    }

    #[test]
    fn invalid_config_rejected() {
        let config = DiMatchingConfig {
            samples: 0,
            ..Default::default()
        };
        assert!(build_wbf(&[demo_query()], &config).is_err());
    }
}
