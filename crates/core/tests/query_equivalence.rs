//! Equivalence properties for the shared probe core.
//!
//! The borrowed/in-place query API (`query_into`, `query_sequence_into`)
//! and the owned API (`query`, `query_sequence`) run through one shared
//! core. These properties pin that core against an independent reference
//! model — plain `BTreeSet` bookkeeping over the same `HashFamily` probes
//! with membership-first semantics — so neither the scratch reuse nor the
//! word-level membership fast path can drift the accepted sets. One more
//! property replays diffs between successive builds onto a filter whose
//! derived fold state a scan already built, then drives it through a
//! random history of inserts, delta replays and wire round trips against
//! the same model, and checks a center's bulk build of the live pairs
//! against the insert fold of the same pairs along the way.

use std::collections::{BTreeMap, BTreeSet};

use dipm_core::{
    encode, FilterDelta, FilterParams, HashFamily, Kernel, PrecomputedProbes, QueryScratch, Weight,
    WeightedBloomFilter,
};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

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
    // the model agree.
    #[test]
    fn query_sequence_into_matches_owned_and_model(
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
        let mut scratch = QueryScratch::new();
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

    // Delta application keeps the derived fold state in step. The diffs of
    // two rounds of churn (the first build to the middle one, the middle
    // one to the last) are concatenated into one delta, so positions
    // repeat and a weight may arrive and leave within it; optionally one
    // entry is replayed right after itself, which must be rejected. The
    // delta lands on a filter whose universe and fold masks a scan already
    // built. Entries before the rejection stay applied and none after, and
    // the universe and the precomputed (mask-fold) answers match those of
    // the wire round-trip, whose state is derived afresh.
    //
    // The filter then runs a random history of its three mutation paths:
    // direct inserts, a center rebuild diffed and applied, and an
    // encode→decode round trip. After every step it must hold exactly the
    // reference model of its live pairs: per-position sets (its canonical
    // frame, which names every position's set, equals a fresh build's but
    // for the insert count), the weight universe, and every query path's
    // answers; and its frame must re-encode to itself. An 8-weight pool
    // keeps the universe within one fold mask; a 97-weight pool takes it
    // across the 64-weight mask width.
    //
    // Centers build with `from_pairs`. Before the history (over no pairs at
    // all, then over the live ones) and after every step, the bulk build of
    // the live pairs with some of them repeated must equal the insert fold
    // of the same list: semantically, in its insert count, its frame bytes
    // and its universe, and on every query path against the model.
    #[test]
    fn apply_delta_keeps_the_fold_state_in_step(
        seed in any::<u64>(),
        wide in any::<bool>(),
        initial in 0u64..100,
        churn in vec((any::<bool>(), any::<u64>()), 0..60),
        (split, replay) in (any::<u64>(), (any::<bool>(), any::<u64>())),
        (history, repeats) in (vec((0u8..4, any::<u64>()), 0..12), vec(any::<u64>(), 1..8)),
    ) {
        let params = FilterParams::new(1 << 11, 3).unwrap();
        let pool = if wide { 97 } else { 8 };
        // Weights scattered over the pool, so new ones land inside the
        // sorted universe, not only past its end.
        let pair = |i: u64| {
            let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (key, Weight::new((key >> 40) % pool + 1, pool).unwrap())
        };
        let build = |live: &[(u64, Weight)]| {
            WeightedBloomFilter::from_pairs(params, seed, live.iter().copied())
        };
        let fold = |pairs: &[(u64, Weight)]| {
            let mut filter = WeightedBloomFilter::new(params, seed);
            for &(key, w) in pairs {
                filter.insert(key, w);
            }
            filter
        };
        let family = HashFamily::new(params.hashes(), seed);
        // `filter` holds exactly the reference model of `live`: its weight
        // universe, and every query path's answers around the newest pairs.
        let answers_like_the_model = |filter: &WeightedBloomFilter,
                                      live: &[(u64, Weight)],
                                      next: u64|
         -> Result<(), TestCaseError> {
            let mut model = ModelFilter::new(params, seed);
            for &(key, w) in live {
                model.insert(key, w);
            }
            let universe: BTreeSet<Weight> = live.iter().map(|&(_, w)| w).collect();
            prop_assert_eq!(
                sorted(filter.weight_universe()),
                universe.into_iter().collect::<Vec<_>>()
            );
            let as_vec = |set: Option<BTreeSet<Weight>>| set.map(|s| s.into_iter().collect::<Vec<_>>());
            let (mut pre, mut scratch, mut out) =
                (PrecomputedProbes::new(), QueryScratch::new(), dipm_core::WeightSet::new());
            for i in next.saturating_sub(24)..next + 2 {
                let key = pair(i).0;
                let expect = as_vec(model.query(key));
                prop_assert_eq!(filter.query(key).as_ref().map(sorted), expect.clone());
                prop_assert_eq!(filter.query_into(key, &mut out).map(|()| sorted(&out)), expect);
                let keys = [key, pair(i + 1).0];
                let expect = as_vec(model.query_sequence(&keys));
                prop_assert_eq!(filter.query_sequence(keys).as_ref().map(sorted), expect.clone());
                prop_assert_eq!(
                    filter.query_sequence_into(keys, &mut scratch).map(sorted),
                    expect.clone()
                );
                pre.compute(&family, params.bits(), &keys);
                prop_assert_eq!(filter.query_precomputed(&pre, &mut scratch).map(sorted), expect);
            }
            Ok(())
        };
        let bulk_is_the_fold = |live: &[(u64, Weight)], next: u64| -> Result<(), TestCaseError> {
            let mut pairs = live.to_vec();
            if !live.is_empty() {
                pairs.extend(repeats.iter().map(|&r| live[r as usize % live.len()]));
            }
            let bulk = WeightedBloomFilter::from_pairs(params, seed, pairs.iter().copied());
            let folded = fold(&pairs);
            prop_assert_eq!(&bulk, &folded);
            prop_assert_eq!(bulk.inserted(), pairs.len() as u64);
            prop_assert_eq!(
                encode::encode_wbf(&bulk).unwrap(),
                encode::encode_wbf(&folded).unwrap()
            );
            prop_assert_eq!(bulk.weight_universe(), folded.weight_universe());
            answers_like_the_model(&bulk, live, next)
        };
        bulk_is_the_fold(&[], 0)?;
        let mut live: Vec<(u64, Weight)> = (0..initial).map(pair).collect();
        let station = build(&live);
        let mut previous = station.clone();
        let mut next = initial;
        let mut diffs = Vec::new();
        let mut entries: Vec<(u32, u32)> = Vec::new();
        let cut = split as usize % (churn.len() + 1);
        for ops in [&churn[..cut], &churn[cut..]] {
            for &(is_insert, pick) in ops {
                if is_insert || live.is_empty() {
                    live.push(pair(next));
                    next += 1;
                } else {
                    live.swap_remove(pick as usize % live.len());
                }
            }
            let current = build(&live);
            let delta = current.diff_from(&previous).unwrap();
            let base = diffs.len() as u32;
            entries.extend(delta.entries.iter().map(|&(bit, d)| (bit, base + d)));
            diffs.extend(delta.diffs);
            previous = current;
        }
        if replay.0 && !entries.is_empty() {
            let at = replay.1 as usize % entries.len();
            entries.insert(at + 1, entries[at]);
        }

        // Reference: the entries one at a time on a filter with no derived
        // state, stopping at the first rejection.
        let mut reference = station.clone();
        let expected = entries.iter().try_for_each(|&entry| {
            reference.apply_delta(&FilterDelta {
                diffs: diffs.clone(),
                entries: vec![entry],
            })
        });
        let mut filter = station.clone();
        let mut pre = PrecomputedProbes::new();
        let mut scratch = QueryScratch::new();
        filter.weight_universe();
        if let Some(&(key, _)) = live.first() {
            pre.compute(&family, params.bits(), &[key]);
            filter.query_precomputed(&pre, &mut scratch);
        }
        prop_assert_eq!(
            filter.apply_delta(&FilterDelta { diffs, entries }),
            expected.clone()
        );
        prop_assert_eq!(&filter, &reference);
        if expected.is_ok() {
            prop_assert_eq!(filter.bits(), previous.bits());
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

        // The history, from the live pairs' state (a rejected replay left
        // the filter between two epochs).
        if expected.is_err() {
            filter = previous;
        }
        bulk_is_the_fold(&live, next)?;
        for &(op, pick) in &history {
            match op {
                0 => {
                    live.push(pair(next));
                    filter.insert(pair(next).0, pair(next).1);
                    next += 1;
                }
                1 | 2 => {
                    if op == 2 || live.is_empty() {
                        live.push(pair(next));
                        next += 1;
                    }
                    if op == 1 || pick % 2 == 0 {
                        live.swap_remove(pick as usize % live.len());
                    }
                    let delta = build(&live).diff_from(&filter).unwrap();
                    filter.apply_delta(&delta).unwrap();
                }
                _ => {
                    let frame = encode::encode_wbf(&filter).unwrap();
                    filter = encode::decode_wbf(frame).unwrap();
                }
            }
            let frame = encode::encode_wbf(&filter).unwrap();
            let rebuilt = encode::encode_wbf(&build(&live)).unwrap();
            // Header bytes 24..32 hold the insert count, which a delta
            // leaves alone.
            prop_assert_eq!(&frame[..24], &rebuilt[..24]);
            prop_assert_eq!(&frame[32..], &rebuilt[32..], "op {}", op);
            prop_assert_eq!(
                &encode::encode_wbf(&encode::decode_wbf(frame.clone()).unwrap()).unwrap(),
                &frame
            );
            answers_like_the_model(&filter, &live, next)?;
            bulk_is_the_fold(&live, next)?;
        }
    }
}
