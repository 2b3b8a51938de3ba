//! Equivalence properties for the shared probe core.
//!
//! The borrowed/in-place query API (`query_into`, `query_sequence_into`)
//! and the owned API (`query`, `query_sequence`) run through one shared
//! core. These properties pin that core against an independent reference
//! model — plain `BTreeSet` bookkeeping over the same `HashFamily` probes
//! with membership-first semantics — and pin the weighted and counting
//! filters to each other, so neither the scratch reuse nor the word-level
//! membership fast path can drift the accepted sets. One more property pins
//! the counting filter to the query registry it is derived from: rebuilt
//! from the registry split at the last delta drain, it carries the same
//! state and the same pending delta.

use std::collections::{BTreeMap, BTreeSet};

use dipm_core::{
    encode, CountingWbf, FilterParams, HashFamily, Kernel, PrecomputedProbes, QueryScratch, Weight,
    WeightDiff, WeightedBloomFilter,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Independent model of the weighted filter: per-bit weight sets, probed
/// with the same seeded family, queried membership-first.
struct ModelFilter {
    bits: BTreeSet<usize>,
    weights: BTreeMap<usize, BTreeSet<Weight>>,
    family: HashFamily,
    m: usize,
}

impl ModelFilter {
    fn new(params: FilterParams, seed: u64) -> ModelFilter {
        ModelFilter {
            bits: BTreeSet::new(),
            weights: BTreeMap::new(),
            family: HashFamily::new(params.hashes(), seed),
            m: params.bits(),
        }
    }

    fn insert(&mut self, key: u64, weight: Weight) {
        for idx in self.family.probes(key, self.m) {
            self.bits.insert(idx);
            self.weights.entry(idx).or_default().insert(weight);
        }
    }

    /// Membership first, then the weight intersection — `None` is a missing
    /// bit, `Some(empty)` is a weight-inconsistent reject.
    fn query(&self, key: u64) -> Option<BTreeSet<Weight>> {
        if !self
            .family
            .probes(key, self.m)
            .all(|idx| self.bits.contains(&idx))
        {
            return None;
        }
        let mut acc: Option<BTreeSet<Weight>> = None;
        for idx in self.family.probes(key, self.m) {
            let at = &self.weights[&idx];
            acc = Some(match acc {
                None => at.clone(),
                Some(cur) => cur.intersection(at).copied().collect(),
            });
        }
        acc
    }

    /// Sequence-level membership first — *every* key's bits are checked
    /// before any weight set is read — then the fold, with the early exit
    /// on an empty intersection.
    fn query_sequence(&self, keys: &[u64]) -> Option<BTreeSet<Weight>> {
        for &key in keys {
            if !self
                .family
                .probes(key, self.m)
                .all(|idx| self.bits.contains(&idx))
            {
                return None;
            }
        }
        let mut acc: Option<BTreeSet<Weight>> = None;
        for &key in keys {
            let set = self.query(key).expect("membership verified above");
            let next = match acc {
                None => set,
                Some(cur) => cur.intersection(&set).copied().collect(),
            };
            if next.is_empty() {
                return Some(next);
            }
            acc = Some(next);
        }
        acc
    }
}

fn arb_weight() -> impl Strategy<Value = Weight> {
    (1u64..=12, 1u64..=12).prop_map(|(a, b)| Weight::new(a.min(b), a.max(b)).unwrap())
}

fn arb_geometry() -> impl Strategy<Value = (FilterParams, u64)> {
    (6usize..=9, 1u16..=6, any::<u64>())
        .prop_map(|(log2m, k, seed)| (FilterParams::new(1 << log2m, k).unwrap(), seed))
}

fn sorted(set: &dipm_core::WeightSet) -> Vec<Weight> {
    set.iter().collect()
}

/// The pairs standing query `id` registers: one to four pairs over a small
/// key and weight space, so queries share pairs and alias positions.
fn query_pairs(id: u64) -> Vec<(u64, Weight)> {
    let h = id.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..h % 4 + 1)
        .map(|j| {
            let key = (h >> (8 + 6 * j)) % 40;
            (key, Weight::new((h >> (32 + 4 * j)) % 5 + 1, 6).unwrap())
        })
        .collect()
}

/// A streaming center reduced to its query registry and counting filter.
/// The registry is split at the last delta drain: `drained_next_id` is the
/// next id at that drain, so live ids at or above it were registered
/// since, and `retired` holds the queries removed since that were live at
/// it.
#[derive(Clone)]
struct Center {
    filter: CountingWbf,
    live: BTreeMap<u64, Vec<(u64, Weight)>>,
    next_id: u64,
    drained_next_id: u64,
    retired: BTreeMap<u64, Vec<(u64, Weight)>>,
}

impl Center {
    fn new(params: FilterParams, seed: u64) -> Center {
        Center {
            filter: CountingWbf::new(params, seed),
            live: BTreeMap::new(),
            next_id: 0,
            drained_next_id: 0,
            retired: BTreeMap::new(),
        }
    }

    /// Registers a new query, or retires the `pick`-th live one.
    fn write(&mut self, (insert, pick): (bool, u64)) {
        if insert || self.live.is_empty() {
            let pairs = query_pairs(self.next_id);
            for &(key, w) in &pairs {
                self.filter.insert(key, w).unwrap();
            }
            self.live.insert(self.next_id, pairs);
            self.next_id += 1;
        } else {
            let id = *self
                .live
                .keys()
                .nth(pick as usize % self.live.len())
                .unwrap();
            let pairs = self.live.remove(&id).unwrap();
            for &(key, w) in &pairs {
                self.filter.remove(key, w).unwrap();
            }
            if id < self.drained_next_id {
                self.retired.insert(id, pairs);
            }
        }
    }

    fn drain(&mut self) -> Vec<(u32, WeightDiff)> {
        self.drained_next_id = self.next_id;
        self.retired.clear();
        self.filter.drain_dirty()
    }

    /// Recovery from the registry alone: build the filter the last drain
    /// left (the live queries below the mark plus the retired ones), drain
    /// it, then replay the churn since.
    fn rebuild(&self, params: FilterParams, seed: u64) -> Center {
        let mut filter = CountingWbf::new(params, seed);
        let at_drain = self.live.range(..self.drained_next_id).chain(&self.retired);
        for (_, pairs) in at_drain {
            for &(key, w) in pairs {
                filter.insert(key, w).unwrap();
            }
        }
        filter.drain_dirty();
        for pairs in self.retired.values() {
            for &(key, w) in pairs {
                filter.remove(key, w).unwrap();
            }
        }
        for pairs in self.live.range(self.drained_next_id..).map(|(_, p)| p) {
            for &(key, w) in pairs {
                filter.insert(key, w).unwrap();
            }
        }
        Center {
            filter,
            ..self.clone()
        }
    }
}

proptest! {
    // Single-key: owned query, in-place query and the model agree exactly,
    // including the None (missing bit) vs Some(empty) (weight clash) split.
    #[test]
    fn query_matches_reference_model(
        (params, seed) in arb_geometry(),
        inserts in vec((0u64..48, arb_weight()), 0..40),
        probes in vec(0u64..64, 1..30),
    ) {
        let mut wbf = WeightedBloomFilter::new(params, seed);
        let mut model = ModelFilter::new(params, seed);
        for &(key, w) in &inserts {
            wbf.insert(key, w);
            model.insert(key, w);
        }
        let mut out = dipm_core::WeightSet::new();
        for &key in &probes {
            let expect = model.query(key);
            let got = wbf.query(key);
            prop_assert_eq!(
                got.as_ref().map(sorted),
                expect.clone().map(|s| s.into_iter().collect::<Vec<_>>()),
                "key {}", key
            );
            // The in-place variant reuses `out` across probes and must agree.
            let got_into = wbf.query_into(key, &mut out).map(|()| sorted(&out));
            prop_assert_eq!(got_into, expect.map(|s| s.into_iter().collect::<Vec<_>>()));
        }
    }

    // Sequences: the owned path, the scratch path (reused across calls) and
    // the model agree, for both the weighted and the counting filter.
    #[test]
    fn query_sequence_into_matches_owned_and_model(
        (params, seed) in arb_geometry(),
        inserts in vec((0u64..48, arb_weight()), 0..40),
        sequences in vec(vec(0u64..64, 1..8), 1..12),
    ) {
        let mut wbf = WeightedBloomFilter::new(params, seed);
        let mut counting = CountingWbf::new(params, seed);
        let mut model = ModelFilter::new(params, seed);
        for &(key, w) in &inserts {
            wbf.insert(key, w);
            counting.insert(key, w).unwrap();
            model.insert(key, w);
        }
        let mut scratch = QueryScratch::new();
        let mut counting_scratch = QueryScratch::new();
        for keys in &sequences {
            let expect = model
                .query_sequence(keys)
                .map(|s| s.into_iter().collect::<Vec<_>>());
            let owned = wbf.query_sequence(keys.iter().copied()).map(|s| sorted(&s));
            prop_assert_eq!(&owned, &expect, "owned vs model on {:?}", keys);
            // One scratch across every sequence: stale state must not leak.
            let borrowed = wbf
                .query_sequence_into(keys.iter().copied(), &mut scratch)
                .map(sorted);
            prop_assert_eq!(&borrowed, &expect, "scratch vs model on {:?}", keys);
            let counted = counting
                .query_sequence_into(keys.iter().copied(), &mut counting_scratch)
                .map(sorted);
            prop_assert_eq!(&counted, &expect, "counting vs model on {:?}", keys);
        }
    }

    // The batched membership path — precomputed probes tested through the
    // runtime-dispatched kernel — agrees with the model, with the sequence
    // path, and (at the raw predicate level) with the forced-scalar kernel,
    // whatever SIMD variant dispatch picked on this machine.
    #[test]
    fn precomputed_simd_path_matches_sequence_and_forced_scalar(
        (params, seed) in arb_geometry(),
        inserts in vec((0u64..48, arb_weight()), 0..40),
        sequences in vec(vec(0u64..64, 1..8), 1..12),
    ) {
        let mut wbf = WeightedBloomFilter::new(params, seed);
        let mut model = ModelFilter::new(params, seed);
        for &(key, w) in &inserts {
            wbf.insert(key, w);
            model.insert(key, w);
        }
        let family = HashFamily::new(params.hashes(), seed);
        let mut scratch = QueryScratch::new();
        let mut pre = PrecomputedProbes::new();
        for keys in &sequences {
            pre.compute(&family, params.bits(), keys);
            let expect = model
                .query_sequence(keys)
                .map(|s| s.into_iter().collect::<Vec<_>>());
            let got = wbf.query_precomputed(&pre, &mut scratch).map(sorted);
            prop_assert_eq!(&got, &expect, "precomputed vs model on {:?}", keys);
            // The dispatched kernel's batch predicate must be bit-identical
            // to the scalar kernel's on the same (word, mask) run.
            let words = wbf.bits().as_words();
            prop_assert_eq!(
                Kernel::active().all_set(words, pre.words(), pre.mask_bits()),
                Kernel::Scalar.all_set(words, pre.words(), pre.mask_bits()),
                "kernel {} disagrees with scalar", Kernel::active().name()
            );
            // Per-key batches partition the run: each key's own (word, mask)
            // group must reproduce the single-key membership test.
            for (j, &key) in keys.iter().enumerate() {
                let (kw, km) = pre.key_masks(j);
                prop_assert_eq!(
                    wbf.bits().contains_probes_simd(kw, km),
                    wbf.contains(key),
                    "key {} batch vs single-key membership", key
                );
            }
        }
    }

    // Delta application keeps the derived fold state in step. Two drains of
    // counting-filter churn are concatenated into one delta, so positions
    // repeat and a weight may arrive and leave within it; optionally one
    // entry is replayed right after itself, which must be rejected. The
    // delta lands on a filter whose universe and fold masks a scan already
    // built. Entries before the rejection stay applied and none after, and
    // the universe and the precomputed (mask-fold) answers match those of
    // the wire round-trip, whose state is derived afresh. A 97-weight pool
    // takes the universe across the 64-weight mask width.
    #[test]
    fn apply_delta_keeps_the_fold_state_in_step(
        seed in any::<u64>(),
        wide in any::<bool>(),
        initial in 0u64..100,
        churn in vec((any::<bool>(), any::<u64>()), 0..60),
        split in any::<u64>(),
        replay in (any::<bool>(), any::<u64>()),
    ) {
        let params = FilterParams::new(1 << 11, 3).unwrap();
        let pool = if wide { 97 } else { 9 };
        // Weights scattered over the pool, so new ones land inside the
        // sorted universe, not only past its end.
        let pair = |i: u64| {
            let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (key, Weight::new((key >> 40) % pool + 1, pool).unwrap())
        };
        let mut center = CountingWbf::new(params, seed);
        let mut live: Vec<(u64, Weight)> = Vec::new();
        for i in 0..initial {
            let (key, w) = pair(i);
            center.insert(key, w).unwrap();
            live.push((key, w));
        }
        center.drain_dirty();
        let station = center.snapshot();
        let mut next = initial;
        let mut diffs = Vec::new();
        let mut entries: Vec<(u32, u32)> = Vec::new();
        let cut = split as usize % (churn.len() + 1);
        for ops in [&churn[..cut], &churn[cut..]] {
            for &(is_insert, pick) in ops {
                if is_insert || live.is_empty() {
                    let (key, w) = pair(next);
                    next += 1;
                    center.insert(key, w).unwrap();
                    live.push((key, w));
                } else {
                    let (key, w) = live.swap_remove(pick as usize % live.len());
                    center.remove(key, w).unwrap();
                }
            }
            for (bit, diff) in center.drain_dirty() {
                entries.push((bit, diffs.len() as u32));
                diffs.push(diff);
            }
        }
        if replay.0 && !entries.is_empty() {
            let at = replay.1 as usize % entries.len();
            entries.insert(at + 1, entries[at]);
        }

        // Reference: the entries one at a time on a filter with no derived
        // state, stopping at the first rejection.
        let mut reference = station.clone();
        let expected = entries
            .iter()
            .try_for_each(|&entry| reference.apply_delta(&diffs, &[entry]));
        let mut filter = station.clone();
        let family = HashFamily::new(params.hashes(), seed);
        let mut pre = PrecomputedProbes::new();
        let mut scratch = QueryScratch::new();
        filter.weight_universe();
        if let Some(&(key, _)) = live.first() {
            pre.compute(&family, params.bits(), &[key]);
            filter.query_precomputed(&pre, &mut scratch);
        }
        prop_assert_eq!(filter.apply_delta(&diffs, &entries), expected.clone());
        prop_assert_eq!(&filter, &reference);
        if expected.is_ok() {
            prop_assert_eq!(filter.bits(), center.snapshot().bits());
        }
        let fresh = encode::decode_wbf(encode::encode_wbf(&filter).unwrap()).unwrap();
        prop_assert_eq!(filter.weight_universe(), fresh.weight_universe());
        let mut fresh_scratch = QueryScratch::new();
        for i in 0..next {
            for keys in [vec![pair(i).0], vec![pair(i).0, pair(i + 1).0]] {
                pre.compute(&family, params.bits(), &keys);
                prop_assert_eq!(
                    filter.query_precomputed(&pre, &mut scratch).cloned(),
                    fresh.query_precomputed(&pre, &mut fresh_scratch).cloned(),
                    "keys {:?}", keys
                );
            }
        }
    }

    // A checkpoint that keeps only the split registry is enough to resume
    // a center: the rebuilt filter equals the original, its pending delta
    // is the one the original would broadcast, and both drain the same
    // deltas under further churn. The history runs drains and churn before
    // the split, and the churn since the last drain registers and retires
    // queries on both sides of the mark, some of them within it.
    #[test]
    fn rebuilding_from_the_drained_registry_reproduces_the_pending_delta(
        seed in any::<u64>(),
        initial in 0u64..6,
        before in vec((any::<bool>(), any::<u64>()), 0..10),
        since in vec((any::<bool>(), any::<u64>()), 0..10),
        after in vec((any::<bool>(), any::<u64>()), 0..10),
    ) {
        let params = FilterParams::new(1 << 8, 3).unwrap();
        let mut center = Center::new(params, seed);
        for _ in 0..initial {
            center.write((true, 0));
        }
        center.drain();
        for &op in &before {
            center.write(op);
        }
        center.drain();
        for &op in &since {
            center.write(op);
        }

        let mut rebuilt = center.rebuild(params, seed);
        prop_assert!(rebuilt.filter == center.filter, "rebuilt filter state differs");
        prop_assert_eq!(rebuilt.filter.pending_dirty(), center.filter.pending_dirty());
        for &op in &after {
            center.write(op);
            rebuilt.write(op);
        }
        prop_assert_eq!(rebuilt.drain(), center.drain());
        prop_assert!(rebuilt.filter == center.filter);
    }
}
