//! Base-station-side matching (Algorithm 2) over hash-sharded local stores.
//!
//! A station's local store is split into [`Shards`] by a pure
//! `UserId → shard` mapping, so a station task scans in shard-sized steps
//! and yields its executor worker between them; the layout never changes
//! the results. Each scan is
//! *batch-first*: every locally stored pattern is accumulated, sampled and
//! hashed **once**, then probed against every query section of the batch —
//! one pass over the store per batch, however many queries it carries. Only
//! `(query, ID, weight)` (or `(query, ID)` for the Bloom baseline) tuples
//! travel back to the center.
//!
//! [`scan_station`] and [`scan_station_bloom`] remain as the single-filter,
//! unsharded convenience API: thin wrappers over the same shard-scan core
//! the generic pipeline uses.

use std::collections::{BTreeMap, BinaryHeap};

use dipm_core::{
    BloomFilter, FilterCore, HashFamily, PrecomputedProbes, QueryScratch, WbfFrameView, Weight,
    WeightSet, WeightedBloomFilter,
};
use dipm_distsim::CostMeter;
use dipm_mobilenet::{StationId, UserId};
use dipm_timeseries::{for_each_sampled_point, Pattern};

use crate::config::{DiMatchingConfig, ScanAlgorithm};
use crate::error::Result;

/// Rows per block-max metadata entry: the granularity at which
/// `ScanAlgorithm::BlockMaxWand` skips whole runs of a shard.
pub const BLOCK_ROWS: usize = 64;

/// One station's candidate report: a user and the weight their pattern
/// matched with.
pub type WeightReport = (UserId, Weight);

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
fn select_weight(
    set: &dipm_core::WeightSet,
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

/// The largest nonzero universe weight plausible for *some* volume in
/// `[vmin, vmax]` under `slack` — the score upper bound dynamic pruning
/// tests against. `None` proves no row in that volume window can pass
/// [`select_weight`] for this section, whatever its probe intersection:
/// the intersection is a subset of the filter's weight universe, and the
/// plausibility window below is exactly `select_weight`'s when
/// `vmin == vmax` (the interval form bounds whole blocks). Saturating
/// arithmetic can only over-admit a weight near the `u128` edge — it never
/// prunes a plausible one.
fn max_plausible_weight(
    universe: &WeightSet,
    query_totals: &[u64],
    vmin: u64,
    vmax: u64,
    slack: u64,
) -> Option<Weight> {
    let plausible = |w: Weight| -> bool {
        if query_totals.is_empty() {
            return true;
        }
        query_totals.iter().any(|&t| {
            let implied = w.numerator() as u128 * t as u128;
            let lo = vmin as u128 * w.denominator() as u128;
            let hi = vmax as u128 * w.denominator() as u128;
            let s = slack as u128 * w.denominator() as u128;
            implied.saturating_add(s) >= lo && implied <= hi.saturating_add(s)
        })
    };
    // Sorted ascending: the last plausible nonzero weight is the bound.
    universe
        .as_slice()
        .iter()
        .rev()
        .copied()
        .find(|&w| !w.is_zero() && plausible(w))
}

/// The query surface a WBF-style filter must expose for the station scan
/// kernels — implemented by the owned [`WeightedBloomFilter`] and by the
/// zero-copy [`WbfFrameView`], so a station can scan straight out of a
/// received broadcast frame without materializing an owned filter.
pub trait WbfScanFilter: FilterCore {
    /// The sorted universe of every distinct weight attached in the filter.
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

    /// The full sequence query (membership + fold), hashing keys on the
    /// fly — the fallback when sections disagree on geometry.
    fn query_sequence_scratch<'s>(
        &'s self,
        keys: &[u64],
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

    fn query_sequence_scratch<'s>(
        &'s self,
        keys: &[u64],
        scratch: &'s mut QueryScratch,
    ) -> Option<&'s WeightSet> {
        self.query_sequence_into(keys.iter().copied(), scratch)
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

    fn query_sequence_scratch<'s>(
        &'s self,
        keys: &[u64],
        scratch: &'s mut QueryScratch,
    ) -> Option<&'s WeightSet> {
        self.query_sequence_into(keys.iter().copied(), scratch)
    }
}

/// Per-section state derived once per shard pass: the weight universe the
/// score bounds come from, and whether the section is statically dead (no
/// nonzero weight anywhere, so [`select_weight`] can never accept).
struct SectionScan<'a, F> {
    query: u32,
    filter: &'a F,
    query_totals: &'a [u64],
    universe: &'a WeightSet,
    dead: bool,
}

fn section_states<'a, F: WbfScanFilter>(
    sections: &[WbfScanSection<'a, F>],
) -> Vec<SectionScan<'a, F>> {
    sections
        .iter()
        .map(|&(query, filter, query_totals)| {
            let universe = filter.weight_universe();
            SectionScan {
                query,
                filter,
                query_totals,
                universe,
                dead: universe.as_slice().iter().all(|w| w.is_zero()),
            }
        })
        .collect()
}

/// The hash family shared by every section, when they all agree on
/// `(bits, hashes, seed)` — the precondition for hashing each row's probe
/// set once and replaying it per section.
fn shared_geometry<F: WbfScanFilter>(sections: &[WbfScanSection<'_, F>]) -> Option<HashFamily> {
    let (_, first, _) = *sections.first()?;
    let geometry = (first.bit_len(), first.hashes(), first.seed());
    sections
        .iter()
        .all(|&(_, f, _)| (f.bit_len(), f.hashes(), f.seed()) == geometry)
        .then(|| HashFamily::new(first.hashes(), first.seed()))
}

/// The `(vmin, vmax, slack_max)` envelope of one row block, or `None` if
/// any row is malformed (empty pattern, overflowing total, or zero
/// configured samples) — a malformed row must reach the sampler so its
/// error surfaces exactly as under an exhaustive scan, so its block can
/// never be skipped.
fn block_stats(block: &[(UserId, &Pattern)], config: &DiMatchingConfig) -> Option<(u64, u64, u64)> {
    if config.samples == 0 {
        return None;
    }
    let mut vmin = u64::MAX;
    let mut vmax = 0u64;
    let mut max_len = 0u64;
    for &(_, pattern) in block {
        if pattern.is_empty() {
            return None;
        }
        let total = pattern.total()?;
        vmin = vmin.min(total);
        vmax = vmax.max(total);
        max_len = max_len.max(pattern.len() as u64);
    }
    Some((vmin, vmax, config.eps.saturating_mul(max_len)))
}

/// One WBF query section as the scan kernels see it: the filter plus the
/// query volumes it was broadcast with, tagged with the batch-frame query
/// id. The filter slot is generic over [`WbfScanFilter`] so the same scan
/// runs against owned filters and zero-copy wire views; it defaults to the
/// owned [`WeightedBloomFilter`].
pub type WbfScanSection<'a, F = WeightedBloomFilter> = (u32, &'a F, &'a [u64]);

/// Algorithm 2 over one shard, batch-first: every stored pattern is sampled
/// and hashed once, then probed against every WBF query section. Returns
/// `(query, user, weight)` for each section that accepts a pattern with a
/// consistent, plausible weight, in `(row, section)` visit order.
///
/// `config.scan_algorithm` selects the pruning rung. Every rung is
/// result-exact — only `(row, section)` pairs whose score bound proves they
/// cannot pass [`select_weight`] are skipped, so the report list is
/// byte-identical to [`ScanAlgorithm::Exhaustive`]; only the work (and the
/// `rows_pruned` / `blocks_skipped` meters) differs. Block skipping never
/// covers a malformed row, so errors surface identically on every rung.
///
/// `meter`, when given, records the hash and comparison work performed.
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
    let algorithm: ScanAlgorithm = config.scan_algorithm;
    let states = section_states(sections);
    let family = shared_geometry(sections);
    // Reserve for a percent-level hit rate so steady-state scans never grow
    // the report vector; reports stay rare in a miss-dominated store.
    let mut reports = Vec::with_capacity(
        sections
            .len()
            .saturating_mul(shard.len() / 64 + 1)
            .min(1 << 16),
    );
    // Per-shard scratch: the key buffer, the probe core's intersection
    // buffer and the precomputed probe set are reused across every row, so
    // the per-(row × section) probe itself is allocation-free.
    let mut keys: Vec<u64> = Vec::with_capacity(config.samples);
    let mut scratch = QueryScratch::new();
    let mut pre = PrecomputedProbes::new();
    let mut alive: Vec<usize> = Vec::with_capacity(states.len());
    if family.is_some() {
        pre.reserve(
            config
                .samples
                .saturating_mul(usize::from(sections[0].1.hashes())),
        );
    }
    for block in shard.chunks(BLOCK_ROWS) {
        if algorithm.prunes_blocks() && !states.is_empty() {
            if let Some((vmin, vmax, smax)) = block_stats(block, config) {
                let unreportable = states.iter().all(|s| {
                    s.dead
                        || max_plausible_weight(s.universe, s.query_totals, vmin, vmax, smax)
                            .is_none()
                });
                if unreportable {
                    if let Some(m) = meter {
                        m.record_blocks_skipped(1);
                    }
                    continue;
                }
            }
        }
        for &(user, pattern) in block {
            let local_total = sample_keys_into(pattern, config, &mut keys)?;
            let slack = config.eps.saturating_mul(pattern.len() as u64);
            // Stage 1: score-bound pruning picks the candidate sections.
            // The meter charges each candidate its full probe cost here —
            // the work an exhaustive probe of that section would do — so
            // the recorded cost model is identical on every rung however
            // early stage 2 cuts the actual hashing short.
            alive.clear();
            for (i, s) in states.iter().enumerate() {
                if algorithm.prunes_sections() && s.dead {
                    if let Some(m) = meter {
                        m.record_rows_pruned(1);
                    }
                    continue;
                }
                if algorithm.prunes_rows()
                    && max_plausible_weight(
                        s.universe,
                        s.query_totals,
                        local_total,
                        local_total,
                        slack,
                    )
                    .is_none()
                {
                    if let Some(m) = meter {
                        m.record_rows_pruned(1);
                    }
                    continue;
                }
                if let Some(m) = meter {
                    m.record_hash_ops(s.filter.probe_cost(keys.len()));
                }
                alive.push(i);
            }
            if alive.is_empty() {
                continue;
            }
            // Stage 2 (shared geometry): hash each sampled key once and
            // test it against every still-alive section as one SIMD batch,
            // dropping sections the moment a key misses. Hashing stops as
            // soon as no candidate survives — in a miss-dominated store
            // most rows die on the first key or two.
            if let Some(fam) = &family {
                pre.clear();
                let bit_len = states[alive[0]].filter.bit_len();
                for (key_ordinal, &key) in keys.iter().enumerate() {
                    pre.push_key(fam, bit_len, key);
                    let (words, masks) = pre.key_masks(key_ordinal);
                    alive.retain(|&i| states[i].filter.passes_masks(words, masks));
                    if alive.is_empty() {
                        break;
                    }
                }
            }
            // Stage 3: survivors fold their weight sets. Under a shared
            // geometry membership is already proven, so only the weight
            // intersection remains; otherwise each section runs the full
            // per-section sequence query.
            for &i in &alive {
                let s = &states[i];
                let set = if family.is_some() {
                    s.filter.fold_weights_precomputed(&pre, &mut scratch)
                } else {
                    s.filter.query_sequence_scratch(&keys, &mut scratch)
                };
                if let Some(set) = set {
                    if let Some(m) = meter {
                        m.record_comparisons(set.len() as u64 + 1);
                    }
                    if let Some(weight) = select_weight(set, s.query_totals, local_total, slack) {
                        reports.push((s.query, user, weight));
                    }
                }
            }
        }
    }
    Ok(reports)
}

/// An entry of a per-section top-k heap, ordered so the **worst-ranked**
/// entry is the heap maximum (rank order: weight descending, then user
/// ascending — [`aggregate_and_rank`](crate::aggregate_and_rank)'s final
/// tiebreak). `peek()` is therefore the k-th score threshold θ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Worst(Weight, UserId);

impl Ord for Worst {
    fn cmp(&self, other: &Worst) -> std::cmp::Ordering {
        other.0.cmp(&self.0).then_with(|| self.1.cmp(&other.1))
    }
}

impl PartialOrd for Worst {
    fn partial_cmp(&self, other: &Worst) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Top-k variant of [`scan_shard_wbf`]: keeps only each section's k
/// best-ranked reports (weight descending, user ascending) in a local
/// threshold heap, and — on the pruning rungs — skips rows and blocks whose
/// score upper bound cannot beat the running k-th score θ.
///
/// The θ-skip is exact, not approximate: shard rows ascend by user and rank
/// ties break toward the *smaller* user, so a later candidate whose bound is
/// ≤ θ loses to every current heap entry and could never have entered the
/// heap under [`ScanAlgorithm::Exhaustive`] either. All four rungs return
/// bit-identical results; each local heap is merged at the center, never a
/// shared mutable threshold across shards or modes.
///
/// Reports are grouped by section in input order, each group best-first.
/// `k == 0` returns no reports without touching the shard (uniformly across
/// rungs, so error behavior stays identical).
///
/// # Errors
///
/// Propagates pattern-transformation errors (overflow, zero samples).
pub fn scan_shard_wbf_topk<F: WbfScanFilter>(
    sections: &[WbfScanSection<'_, F>],
    shard: &[(UserId, &Pattern)],
    config: &DiMatchingConfig,
    k: usize,
    meter: Option<&CostMeter>,
) -> Result<Vec<(u32, UserId, Weight)>> {
    if k == 0 {
        return Ok(Vec::new());
    }
    let algorithm = config.scan_algorithm;
    let states = section_states(sections);
    let family = shared_geometry(sections);
    // Static per-section bound: the largest nonzero weight the section's
    // universe can ever produce (None ⇔ dead).
    let static_bounds: Vec<Option<Weight>> = states
        .iter()
        .map(|s| {
            s.universe
                .as_slice()
                .iter()
                .rev()
                .copied()
                .find(|w| !w.is_zero())
        })
        .collect();
    let mut heaps: Vec<BinaryHeap<Worst>> = states
        .iter()
        .map(|_| BinaryHeap::with_capacity(k + 1))
        .collect();
    let mut keys: Vec<u64> = Vec::with_capacity(config.samples);
    let mut scratch = QueryScratch::new();
    let mut pre = PrecomputedProbes::new();
    let mut alive: Vec<usize> = Vec::with_capacity(states.len());
    if family.is_some() {
        pre.reserve(
            config
                .samples
                .saturating_mul(usize::from(sections[0].1.hashes())),
        );
    }
    for block in shard.chunks(BLOCK_ROWS) {
        if algorithm.prunes_blocks() && !states.is_empty() {
            if let Some((vmin, vmax, smax)) = block_stats(block, config) {
                let skippable = states.iter().enumerate().all(|(i, s)| {
                    if s.dead {
                        return true;
                    }
                    match max_plausible_weight(s.universe, s.query_totals, vmin, vmax, smax) {
                        None => true,
                        Some(bound) => {
                            heaps[i].len() == k
                                && heaps[i].peek().is_some_and(|worst| bound <= worst.0)
                        }
                    }
                });
                if skippable {
                    if let Some(m) = meter {
                        m.record_blocks_skipped(1);
                    }
                    continue;
                }
            }
        }
        for &(user, pattern) in block {
            let local_total = sample_keys_into(pattern, config, &mut keys)?;
            let slack = config.eps.saturating_mul(pattern.len() as u64);
            // Stage 1: θ-pruning picks candidates. Each heap belongs to one
            // section and only mutates in stage 3 of the same row, after
            // every candidate was chosen — so splitting selection from
            // probing cannot change which rows each threshold sees, and
            // results stay bit-identical to the interleaved form. The
            // meter charges full probe cost per candidate (see
            // [`scan_shard_wbf`]).
            alive.clear();
            for (i, s) in states.iter().enumerate() {
                let threshold = (heaps[i].len() == k)
                    .then(|| heaps[i].peek().map(|w| w.0))
                    .flatten();
                if algorithm.prunes_sections() {
                    if s.dead {
                        if let Some(m) = meter {
                            m.record_rows_pruned(1);
                        }
                        continue;
                    }
                    if let (Some(theta), Some(bound)) = (threshold, static_bounds[i]) {
                        if bound <= theta {
                            if let Some(m) = meter {
                                m.record_rows_pruned(1);
                            }
                            continue;
                        }
                    }
                }
                if algorithm.prunes_rows() {
                    let row_bound = max_plausible_weight(
                        s.universe,
                        s.query_totals,
                        local_total,
                        local_total,
                        slack,
                    );
                    let beatable = match row_bound {
                        None => false,
                        Some(bound) => !threshold.is_some_and(|theta| bound <= theta),
                    };
                    if !beatable {
                        if let Some(m) = meter {
                            m.record_rows_pruned(1);
                        }
                        continue;
                    }
                }
                if let Some(m) = meter {
                    m.record_hash_ops(s.filter.probe_cost(keys.len()));
                }
                alive.push(i);
            }
            if alive.is_empty() {
                continue;
            }
            // Stage 2 (shared geometry): incremental hash-and-test, exactly
            // as in [`scan_shard_wbf`].
            if let Some(fam) = &family {
                pre.clear();
                let bit_len = states[alive[0]].filter.bit_len();
                for (key_ordinal, &key) in keys.iter().enumerate() {
                    pre.push_key(fam, bit_len, key);
                    let (words, masks) = pre.key_masks(key_ordinal);
                    alive.retain(|&i| states[i].filter.passes_masks(words, masks));
                    if alive.is_empty() {
                        break;
                    }
                }
            }
            // Stage 3: survivors fold weights and feed their section heap.
            for &i in &alive {
                let s = &states[i];
                let set = if family.is_some() {
                    s.filter.fold_weights_precomputed(&pre, &mut scratch)
                } else {
                    s.filter.query_sequence_scratch(&keys, &mut scratch)
                };
                if let Some(set) = set {
                    if let Some(m) = meter {
                        m.record_comparisons(set.len() as u64 + 1);
                    }
                    if let Some(weight) = select_weight(set, s.query_totals, local_total, slack) {
                        let entry = Worst(weight, user);
                        let heap = &mut heaps[i];
                        if heap.len() < k {
                            heap.push(entry);
                        } else if heap.peek().is_some_and(|&worst| entry < worst) {
                            heap.pop();
                            heap.push(entry);
                        }
                    }
                }
            }
        }
    }
    let mut reports = Vec::with_capacity(heaps.iter().map(BinaryHeap::len).sum());
    for (s, heap) in states.iter().zip(heaps) {
        let mut entries = heap.into_vec();
        // Ascending `Worst` order is best-first.
        entries.sort_unstable();
        reports.extend(entries.into_iter().map(|Worst(w, u)| (s.query, u, w)));
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

fn single_shard(patterns: &BTreeMap<UserId, Pattern>) -> Vec<(UserId, &Pattern)> {
    patterns.iter().map(|(&u, p)| (u, p)).collect()
}

/// Algorithm 2 over one station's unsharded store with a single query
/// filter: returns `(user, weight)` for every pattern the filter accepts
/// with a consistent weight.
///
/// Thin wrapper over [`scan_shard_wbf`] — the shard-scan core the generic
/// pipeline runs — presenting the store as one shard and one section.
///
/// `meter`, when given, records the hash and comparison work performed.
///
/// # Errors
///
/// Propagates pattern-transformation errors (overflow, zero samples).
pub fn scan_station(
    filter: &WeightedBloomFilter,
    query_totals: &[u64],
    patterns: &BTreeMap<UserId, Pattern>,
    config: &DiMatchingConfig,
    meter: Option<&CostMeter>,
) -> Result<Vec<WeightReport>> {
    let shard = single_shard(patterns);
    let reports = scan_shard_wbf(&[(0, filter, query_totals)], &shard, config, meter)?;
    Ok(reports.into_iter().map(|(_, u, w)| (u, w)).collect())
}

/// The Bloom-baseline analogue of [`scan_station`]: membership only, no
/// weights — every user whose sampled points are all contained is reported.
///
/// Thin wrapper over [`scan_shard_bloom`].
///
/// # Errors
///
/// Propagates pattern-transformation errors.
pub fn scan_station_bloom(
    filter: &BloomFilter,
    patterns: &BTreeMap<UserId, Pattern>,
    config: &DiMatchingConfig,
    meter: Option<&CostMeter>,
) -> Result<Vec<UserId>> {
    let shard = single_shard(patterns);
    let reports = scan_shard_bloom(&[(0, filter)], &shard, config, meter)?;
    Ok(reports.into_iter().map(|(_, u)| u).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datacenter::build_wbf;
    use crate::query::PatternQuery;
    use dipm_core::FilterParams;

    fn station(patterns: Vec<(u64, Pattern)>) -> BTreeMap<UserId, Pattern> {
        patterns
            .into_iter()
            .map(|(id, p)| (UserId(id), p))
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
        let reports =
            scan_station(&built.filter, &built.query_totals, &patterns, &config, None).unwrap();
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
        let reports =
            scan_station(&built.filter, &built.query_totals, &patterns, &config, None).unwrap();
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
        let reports =
            scan_station(&built.filter, &built.query_totals, &patterns, &config, None).unwrap();
        assert_eq!(reports.len(), 1, "ε-similar pattern must match");
    }

    #[test]
    fn station_rejects_distant_pattern() {
        let query = demo_query();
        let config = DiMatchingConfig::default();
        let built = build_wbf(std::slice::from_ref(&query), &config).unwrap();
        let far: Pattern = query.global().iter().map(|v| v + 50).collect();
        let patterns = station(vec![(1, far)]);
        let reports =
            scan_station(&built.filter, &built.query_totals, &patterns, &config, None).unwrap();
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
        let shard = single_shard(&patterns);
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
        scan_station(
            &built.filter,
            &built.query_totals,
            &patterns,
            &config,
            Some(&meter),
        )
        .unwrap();
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
        let ids = scan_station_bloom(&bf, &patterns, &config, None).unwrap();
        assert_eq!(ids, vec![UserId(5)]);
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
    fn every_algorithm_matches_exhaustive_reports() {
        let query = demo_query();
        let config = DiMatchingConfig::default();
        let built = build_wbf(std::slice::from_ref(&query), &config).unwrap();
        let patterns = mixed_store(200);
        let shard = single_shard(&patterns);
        let sections: Vec<WbfScanSection<'_>> = vec![
            (0, &built.filter, built.query_totals.as_slice()),
            (1, &built.filter, built.query_totals.as_slice()),
        ];
        let reference = scan_shard_wbf(&sections, &shard, &config, None).unwrap();
        assert!(!reference.is_empty());
        for algorithm in crate::config::ScanAlgorithm::ALL {
            let pruned_config = DiMatchingConfig {
                scan_algorithm: algorithm,
                ..config.clone()
            };
            let meter = CostMeter::new();
            let reports = scan_shard_wbf(&sections, &shard, &pruned_config, Some(&meter)).unwrap();
            assert_eq!(reports, reference, "{algorithm:?} diverged");
            if algorithm == crate::config::ScanAlgorithm::Exhaustive {
                let report = meter.report();
                assert_eq!(report.rows_pruned, 0);
                assert_eq!(report.blocks_skipped, 0);
            }
        }
    }

    #[test]
    fn dead_section_is_pruned_without_hashing() {
        // A filter with no insertions has an empty weight universe: the
        // MaxScore rung must skip every row of it without hash work.
        let query = demo_query();
        let config = DiMatchingConfig {
            scan_algorithm: crate::config::ScanAlgorithm::MaxScore,
            ..DiMatchingConfig::default()
        };
        let built = build_wbf(std::slice::from_ref(&query), &config).unwrap();
        let empty = WeightedBloomFilter::new(
            dipm_core::FilterParams::new(built.filter.bit_len(), built.filter.hashes()).unwrap(),
            config.seed,
        );
        let patterns = mixed_store(10);
        let shard = single_shard(&patterns);
        let sections: Vec<WbfScanSection<'_>> = vec![(0, &empty, &[])];
        let meter = CostMeter::new();
        let reports = scan_shard_wbf(&sections, &shard, &config, Some(&meter)).unwrap();
        assert!(reports.is_empty());
        let report = meter.report();
        assert_eq!(report.hash_ops, 0, "dead section must not hash");
        assert_eq!(report.rows_pruned, shard.len() as u64);
    }

    #[test]
    fn block_max_wand_skips_far_blocks() {
        // Non-matching rows with totals far outside every plausible-weight
        // window: whole blocks must be skipped, and results must not change.
        let query = demo_query();
        let exhaustive = DiMatchingConfig::default();
        let built = build_wbf(std::slice::from_ref(&query), &exhaustive).unwrap();
        let far = station(
            (0..(4 * BLOCK_ROWS as u64))
                .map(|i| {
                    let p: Pattern = query.global().iter().map(|v| v * 100 + i).collect();
                    (i, p)
                })
                .collect(),
        );
        let shard = single_shard(&far);
        let sections: Vec<WbfScanSection<'_>> =
            vec![(0, &built.filter, built.query_totals.as_slice())];
        let reference = scan_shard_wbf(&sections, &shard, &exhaustive, None).unwrap();
        let bmw = DiMatchingConfig {
            scan_algorithm: crate::config::ScanAlgorithm::BlockMaxWand,
            ..exhaustive
        };
        let meter = CostMeter::new();
        let reports = scan_shard_wbf(&sections, &shard, &bmw, Some(&meter)).unwrap();
        assert_eq!(reports, reference);
        assert!(
            meter.report().blocks_skipped > 0,
            "far-off blocks must be skipped whole"
        );
    }

    #[test]
    fn topk_kernel_matches_exhaustive_for_every_algorithm_and_k() {
        let query = demo_query();
        let base = DiMatchingConfig::default();
        let built = build_wbf(std::slice::from_ref(&query), &base).unwrap();
        let patterns = mixed_store(150);
        let shard = single_shard(&patterns);
        let sections: Vec<WbfScanSection<'_>> = vec![
            (0, &built.filter, built.query_totals.as_slice()),
            (7, &built.filter, built.query_totals.as_slice()),
        ];
        for k in [0usize, 1, 2, 3, 1000] {
            let reference = scan_shard_wbf_topk(&sections, &shard, &base, k, None).unwrap();
            for algorithm in crate::config::ScanAlgorithm::ALL {
                let config = DiMatchingConfig {
                    scan_algorithm: algorithm,
                    ..base.clone()
                };
                let reports = scan_shard_wbf_topk(&sections, &shard, &config, k, None).unwrap();
                assert_eq!(reports, reference, "{algorithm:?} k={k} diverged");
            }
        }
    }

    #[test]
    fn topk_kernel_keeps_the_best_ranked_entries() {
        let query = demo_query();
        let config = DiMatchingConfig::default();
        let built = build_wbf(std::slice::from_ref(&query), &config).unwrap();
        let patterns = mixed_store(0); // users 3 (weight 1) and 8 (fraction)
        let shard = single_shard(&patterns);
        let sections: Vec<WbfScanSection<'_>> =
            vec![(0, &built.filter, built.query_totals.as_slice())];
        let all = scan_shard_wbf_topk(&sections, &shard, &config, 10, None).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].1, UserId(3), "weight-1 match ranks first");
        assert!(all[0].2.is_one());
        let top1 = scan_shard_wbf_topk(&sections, &shard, &config, 1, None).unwrap();
        assert_eq!(top1, all[..1]);
        assert!(scan_shard_wbf_topk(&sections, &shard, &config, 0, None)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn empty_station_produces_no_reports() {
        let query = demo_query();
        let config = DiMatchingConfig::default();
        let built = build_wbf(&[query], &config).unwrap();
        let reports = scan_station(
            &built.filter,
            &built.query_totals,
            &BTreeMap::new(),
            &config,
            None,
        )
        .unwrap();
        assert!(reports.is_empty());
    }
}
