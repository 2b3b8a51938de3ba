//! Shared conformance oracle: runs the naive gold standard, the Bloom
//! baseline and WBF over the *same* seeded datasets and exposes the
//! paper's correctness invariants as reusable assertions.
//!
//! The three invariants (Sections III–IV of the paper):
//!
//! 1. **No false negatives** — under the accumulated tolerance mode, every
//!    user the exact naive method retrieves is also reported by WBF.
//! 2. **Precision dominance** — the weight-consistency check only removes
//!    candidates, so WBF precision is at least the Bloom baseline's.
//! 3. **Stitched rejection** — a candidate whose probed bits were set by
//!    *different* patterns carries no common weight and is rejected, even
//!    though a classic Bloom filter accepts it.
//!
//! It also holds the exhaustive station scan ([`reference_scan`]), the
//! oracle the exact pruning scan is pinned against.

use std::collections::BTreeSet;

use dipm::mobilenet::ground_truth;
use dipm::prelude::*;
use dipm::protocol::{ProtocolError, WbfScanSection};

/// The fixed dataset seeds every conformance test sweeps. Three distinct
/// cities plus the quickstart seed; all invariants must hold on each.
pub const SEEDS: [u64; 4] = [5, 17, 29, 42];

/// Users per conformance dataset (kept laptop-fast; the bench harness
/// covers paper scale).
pub const USERS: usize = 300;

/// Stations per conformance dataset.
pub const STATIONS: u32 = 10;

/// Probe indices (into `dataset.users()`) queried per dataset.
pub const PROBES: [usize; 3] = [0, 7, 20];

/// One outcome per method, over identical inputs.
pub struct MethodTriple {
    /// The exact, ship-everything gold standard.
    pub naive: QueryOutcome,
    /// The unweighted Bloom baseline.
    pub bloom: QueryOutcome,
    /// The paper's weighted Bloom filter method.
    pub wbf: QueryOutcome,
}

/// The seeded conformance dataset for one entry of [`SEEDS`].
pub fn dataset(seed: u64) -> Dataset {
    Dataset::city_slice(USERS, STATIONS, seed).expect("conformance preset is valid")
}

/// The decomposition query of the `index`-th user.
pub fn probe_query(dataset: &Dataset, index: usize) -> PatternQuery {
    let user = dataset.users()[index];
    PatternQuery::from_fragments(dataset.fragments(user.id).expect("every user has traffic"))
        .expect("fragments form a valid query")
}

/// Runs all three methods sequentially (deterministic order) over one
/// query with unbounded K, so retrieval sets are directly comparable.
///
/// Every method goes through the one generic `run_pipeline::<S>` — the
/// conformance invariants are checked against the unified pipeline, not
/// per-method forks (which no longer exist).
pub fn run_all(
    dataset: &Dataset,
    query: &PatternQuery,
    config: &DiMatchingConfig,
) -> Result<MethodTriple, ProtocolError> {
    let queries = [query.clone()];
    let options = PipelineOptions::default();
    let naive_config = DiMatchingConfig {
        eps: config.eps,
        ..DiMatchingConfig::default()
    };
    Ok(MethodTriple {
        naive: run_pipeline::<Naive>(dataset, &queries, &naive_config, &options)?.into_merged(None),
        bloom: run_pipeline::<Bloom>(dataset, &queries, config, &options)?.into_merged(None),
        wbf: run_pipeline::<Wbf>(dataset, &queries, config, &options)?.into_merged(None),
    })
}

/// The retrieved user set of one outcome.
pub fn retrieved_set(outcome: &QueryOutcome) -> BTreeSet<UserId> {
    outcome.retrieved().collect()
}

/// Invariant 1: everything naive finds, WBF reports too.
pub fn assert_no_false_negatives(seed: u64, probe: usize, triple: &MethodTriple) {
    let wbf = retrieved_set(&triple.wbf);
    for user in &triple.naive.ranked {
        assert!(
            wbf.contains(user),
            "seed {seed} probe {probe}: naive found {user} but WBF missed it"
        );
    }
}

/// Invariant 2: WBF precision is no worse than Bloom precision against
/// the ε-similarity ground truth (small float slack for the division).
pub fn assert_precision_dominance(
    seed: u64,
    probe: usize,
    dataset: &Dataset,
    query: &PatternQuery,
    triple: &MethodTriple,
    eps: u64,
) {
    let relevant = ground_truth::eps_similar_users(dataset, query.global(), eps);
    let wbf = evaluate(triple.wbf.retrieved(), &relevant).precision;
    let bloom = evaluate(triple.bloom.retrieved(), &relevant).precision;
    assert!(
        wbf >= bloom - 1e-9,
        "seed {seed} probe {probe}: WBF precision {wbf} below Bloom {bloom}"
    );
}

/// The documented plausibility rule of the station's weight selection: the
/// smallest surviving non-zero weight whose implied combination volume lies
/// within `slack` of the observed volume (every weight when no totals were
/// broadcast).
fn reference_select(
    set: &WeightSet,
    query_totals: &[u64],
    local_total: u64,
    slack: u64,
) -> Option<Weight> {
    set.iter().find(|&w| {
        if w.is_zero() {
            return false;
        }
        if query_totals.is_empty() {
            return true;
        }
        query_totals.iter().any(|&t| {
            let implied = w.numerator() as u128 * t as u128;
            let observed = local_total as u128 * w.denominator() as u128;
            implied.abs_diff(observed) <= slack as u128 * w.denominator() as u128
        })
    })
}

/// The exhaustive, allocation-heavy station scan: fresh buffers for every
/// row, every `(row, section)` pair probed with the owned
/// `query_sequence`, no pruning, same `(row, section)` visit order. Each row
/// is re-derived independently through the public two-step pipeline
/// (`AccumulatedPattern` → `SampledPattern`).
// Only the scan suites call the oracle; `end_to_end.rs` includes this
// module for the invariants alone.
#[allow(dead_code)]
pub fn reference_scan(
    sections: &[WbfScanSection<'_>],
    shard: &[(UserId, &Pattern)],
    config: &DiMatchingConfig,
) -> Vec<(u32, UserId, Weight)> {
    let mut reports = Vec::new();
    for &(user, pattern) in shard {
        let acc = AccumulatedPattern::from_pattern(pattern).expect("pattern accumulates");
        let sampled = SampledPattern::from_accumulated(&acc, config.samples).expect("samples");
        let keys: Vec<u64> = sampled
            .points()
            .iter()
            .enumerate()
            .map(|(i, p)| config.hash_scheme.key(i, p.value))
            .collect();
        let local_total = sampled.max_value();
        let slack = config.eps.saturating_mul(pattern.len() as u64);
        for &(query, filter, query_totals) in sections {
            if let Some(set) = filter.query_sequence(keys.iter().copied()) {
                if let Some(weight) = reference_select(&set, query_totals, local_total, slack) {
                    reports.push((query, user, weight));
                }
            }
        }
    }
    reports
}
