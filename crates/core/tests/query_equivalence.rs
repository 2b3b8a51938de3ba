//! Equivalence properties for the one probe path.
//!
//! The owned filter and the zero-copy view of its frame answer a row
//! through one checked row query, `WeightedProbe::query_row`, and
//! `query_sequence` is that query over a fresh probe set. These properties
//! pin it against an independent reference model — plain `BTreeSet`
//! bookkeeping over the same `HashFamily` probes with membership-first
//! semantics — on both representations and on a filter of another
//! geometry, with one probe set and one scratch shared across all of them,
//! so neither replayed probes, nor scratch reuse, nor the word-level
//! membership fast path can drift the accepted sets. One more property
//! replays diffs between successive builds onto a filter whose derived
//! fold state a scan already built, then drives it through a random
//! history of inserts, delta replays and wire round trips against the same
//! model, and checks a center's bulk build of the live pairs against the
//! insert fold of the same pairs along the way.

use std::collections::{BTreeMap, BTreeSet};

use dipm_core::{
    encode, FilterDelta, FilterParams, HashFamily, Kernel, PrecomputedProbes, QueryScratch, Weight,
    WeightedBloomFilter, WeightedProbe,
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

    /// The model of a filter at `params` and `seed` holding `pairs`.
    fn of(params: FilterParams, seed: u64, pairs: &[(u64, Weight)]) -> ModelFilter {
        let mut model = ModelFilter::new(params, seed);
        for &(key, weight) in pairs {
            model.insert(key, weight);
        }
        model
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

/// The `i`-th pair of a `pool`-weight pool: a scattered key, and a weight
/// scattered over the pool, so new weights land inside the sorted
/// universe, not only past its end.
fn pool_pair(pool: u64, i: u64) -> (u64, Weight) {
    let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (key, Weight::new((key >> 40) % pool + 1, pool).unwrap())
}

fn arb_geometry() -> impl Strategy<Value = (FilterParams, u64)> {
    (6usize..=9, 1u16..=6, any::<u64>())
        .prop_map(|(log2m, k, seed)| (FilterParams::new(1 << log2m, k).unwrap(), seed))
}

fn sorted(set: &dipm_core::WeightSet) -> Vec<Weight> {
    set.iter().collect()
}

fn as_vec(set: Option<BTreeSet<Weight>>) -> Option<Vec<Weight>> {
    set.map(|s| s.into_iter().collect())
}

#[test]
fn probes_hashed_for_another_geometry_answer_as_the_filter_probed() {
    // Geometry A, and three filters B over the same pairs that differ from
    // A in one part of the geometry each: the seed, the hash count, the
    // bit length. Probes hashed at A and handed to B must answer as B.
    let pairs: Vec<(u64, Weight)> = (0..120).map(|i| pool_pair(8, i)).collect();
    let a = FilterParams::new(1 << 11, 3).unwrap();
    let a_filter = WeightedBloomFilter::from_pairs(a, 7, pairs.iter().copied());
    let mut replay_would_lie = 0;
    for (b, seed) in [
        (a, 8),
        (FilterParams::new(1 << 11, 4).unwrap(), 7),
        (FilterParams::new(1 << 10, 3).unwrap(), 7),
    ] {
        let b_filter = WeightedBloomFilter::from_pairs(b, seed, pairs.iter().copied());
        let b_view = encode::view_wbf(encode::encode_wbf(&b_filter).unwrap()).unwrap();
        let model = ModelFilter::of(b, seed, &pairs);
        let (mut pre, mut scratch) = (PrecomputedProbes::new(), QueryScratch::new());
        for i in 0..200 {
            let row = [pool_pair(8, i).0, pool_pair(8, i + 1).0];
            // Hashed at A by A's own row query, then by `compute`.
            a_filter.query_row(&row, &mut pre, &mut scratch);
            let expect = as_vec(model.query_sequence(&row));
            let got = b_filter.query_row(&row, &mut pre, &mut scratch);
            assert_eq!(got.map(sorted), expect, "owned B, row {row:?}");
            pre.compute(&HashFamily::new(a.hashes(), 7), a.bits(), &row);
            if b.bits() == a.bits() {
                let held = b_filter
                    .bits()
                    .contains_probes_simd(pre.words(), pre.mask_bits());
                let own = row.iter().all(|&key| b_filter.contains(key));
                replay_would_lie += usize::from(held != own);
            }
            let got = b_view.query_row(&row, &mut pre, &mut scratch);
            assert_eq!(got.map(sorted), expect, "view of B, row {row:?}");
        }
    }
    // The same-length cases have teeth: A's probes read against B's bits
    // would have answered some rows wrongly.
    assert!(replay_would_lie > 0);
}

proptest! {
    // The row query answers every row as the model's `query_sequence`
    // does, on the owned filter and on the view of its frame, and so does
    // `query_sequence` itself. The filter passes through a random history
    // of inserts and center rebuilds diffed and applied, over an 8-weight
    // pool (mask fold) or a 97-weight one (merge fold). Rows mix member
    // keys, keys never inserted, keys sharing the row's first weight and
    // repeated keys; the empty row is always among them. One probe set and
    // one scratch serve every query: both representations, and a second
    // filter of another geometry over the same pairs, visited in random
    // order. The second filter is shorter, down to 64 bits, where keys
    // never inserted pass membership and fold as often as not, and its hash
    // count sometimes differs too.
    #[test]
    fn query_matches_reference_model(
        seed in any::<u64>(),
        wide in any::<bool>(),
        (other_log2, other_hashes) in (6usize..=10, 2u16..=4),
        history in vec((any::<bool>(), any::<u64>()), 0..40),
        rows in vec(vec((0u8..4, any::<u64>()), 0..7), 1..12),
        visits in vec((any::<u64>(), 0u8..4), 1..64),
    ) {
        let pool = if wide { 97 } else { 8 };
        let params = FilterParams::new(1 << 11, 3).unwrap();
        let other = FilterParams::new(1 << other_log2, other_hashes).unwrap();
        let pair = |i: u64| pool_pair(pool, i);
        let mut filter = WeightedBloomFilter::new(params, seed);
        let mut live: Vec<(u64, Weight)> = Vec::new();
        let mut next = 0u64;
        for &(insert, pick) in &history {
            if insert || live.is_empty() {
                live.push(pair(next));
                filter.insert(pair(next).0, pair(next).1);
                next += 1;
            } else {
                live.swap_remove(pick as usize % live.len());
                let built = WeightedBloomFilter::from_pairs(params, seed, live.iter().copied());
                filter.apply_delta(&built.diff_from(&filter).unwrap()).unwrap();
            }
        }
        let second = WeightedBloomFilter::from_pairs(other, seed, live.iter().copied());
        let view_of = |f: &WeightedBloomFilter| encode::view_wbf(encode::encode_wbf(f).unwrap()).unwrap();
        let (view, second_view) = (view_of(&filter), view_of(&second));
        // Each filter the visits probe, with the model of its geometry.
        let targets: [(&dyn WeightedProbe, usize); 4] =
            [(&filter, 0), (&view, 0), (&second, 1), (&second_view, 1)];
        let models = [ModelFilter::of(params, seed, &live), ModelFilter::of(other, seed, &live)];

        let mut rows: Vec<Vec<u64>> = rows
            .iter()
            .map(|picks| {
                let mut row: Vec<u64> = Vec::new();
                for &(kind, pick) in picks {
                    let key = match (kind, live.is_empty()) {
                        (0, false) => live[pick as usize % live.len()].0,
                        (2, false) => {
                            let first = row.first().and_then(|k| live.iter().find(|p| p.0 == *k));
                            let weight = first.map_or(live[0].1, |p| p.1);
                            let alike: Vec<u64> =
                                live.iter().filter(|p| p.1 == weight).map(|p| p.0).collect();
                            alike[pick as usize % alike.len()]
                        }
                        (3, _) if !row.is_empty() => *row.last().unwrap(),
                        _ => pair(next + pick % 16).0,
                    };
                    row.push(key);
                }
                row
            })
            .collect();
        rows.push(Vec::new());

        for row in &rows {
            for (owned, model) in [(&filter, &models[0]), (&second, &models[1])] {
                prop_assert_eq!(
                    owned.query_sequence(row.iter().copied()).as_ref().map(sorted),
                    as_vec(model.query_sequence(row)),
                    "query_sequence on {:?}", row
                );
            }
        }
        let (mut pre, mut scratch) = (PrecomputedProbes::new(), QueryScratch::new());
        for &(pick, target) in &visits {
            let row = &rows[pick as usize % rows.len()];
            let (probed, geometry) = targets[usize::from(target)];
            prop_assert_eq!(
                probed.query_row(row, &mut pre, &mut scratch).map(sorted),
                as_vec(models[geometry].query_sequence(row)),
                "target {} on {:?}", target, row
            );
        }
    }

    // The kernel under the row query: whole-row word masks tested through
    // the runtime-dispatched kernel are bit-identical to the forced-scalar
    // kernel's, whatever SIMD variant dispatch picked on this machine, and
    // each key's own (word, mask) run reproduces its single-key membership.
    #[test]
    fn precomputed_simd_path_matches_sequence_and_forced_scalar(
        (params, seed) in arb_geometry(),
        inserts in vec((0u64..48, arb_weight()), 0..40),
        sequences in vec(vec(0u64..64, 1..8), 1..12),
    ) {
        let mut wbf = WeightedBloomFilter::new(params, seed);
        for &(key, w) in &inserts {
            wbf.insert(key, w);
        }
        let family = HashFamily::new(params.hashes(), seed);
        let mut pre = PrecomputedProbes::new();
        for keys in &sequences {
            pre.compute(&family, params.bits(), keys);
            let words = wbf.bits().as_words();
            prop_assert_eq!(
                Kernel::active().all_set(words, pre.words(), pre.mask_bits()),
                Kernel::Scalar.all_set(words, pre.words(), pre.mask_bits()),
                "kernel {} disagrees with scalar", Kernel::active().name()
            );
            prop_assert_eq!(
                Kernel::active().all_set(words, pre.words(), pre.mask_bits()),
                keys.iter().all(|&key| wbf.contains(key)),
                "whole-row batch vs single-key membership"
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
    // the universe and the row query's answers match those of the wire
    // round-trip, whose state is derived afresh.
    //
    // The filter then runs a random history of its three mutation paths:
    // direct inserts, a center rebuild diffed and applied, and an
    // encode→decode round trip. After every step it must hold exactly the
    // reference model of its live pairs: per-position sets (its canonical
    // frame, which names every position's set, equals a fresh build's but
    // for the insert count), the weight universe, and the row query's
    // answers; and its frame must re-encode to itself. An 8-weight pool
    // keeps the universe within one fold mask; a 97-weight pool takes it
    // across the 64-weight mask width.
    //
    // Centers build with `from_pairs`. Before the history (over no pairs at
    // all, then over the live ones) and after every step, the bulk build of
    // the live pairs with some of them repeated must equal the insert fold
    // of the same list: semantically, in its insert count, its frame bytes
    // and its universe, and on the row query against the model.
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
        let pair = |i: u64| pool_pair(pool, i);
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
        // `filter` holds exactly the reference model of `live`: its weight
        // universe, and the row query's answers around the newest pairs.
        let answers_like_the_model = |filter: &WeightedBloomFilter,
                                      live: &[(u64, Weight)],
                                      next: u64|
         -> Result<(), TestCaseError> {
            let model = ModelFilter::of(params, seed, live);
            let universe: BTreeSet<Weight> = live.iter().map(|&(_, w)| w).collect();
            prop_assert_eq!(
                sorted(filter.weight_universe()),
                universe.into_iter().collect::<Vec<_>>()
            );
            let (mut pre, mut scratch) = (PrecomputedProbes::new(), QueryScratch::new());
            for i in next.saturating_sub(24)..next + 2 {
                for row in [&[pair(i).0][..], &[pair(i).0, pair(i + 1).0]] {
                    prop_assert_eq!(
                        filter.query_row(row, &mut pre, &mut scratch).map(sorted),
                        as_vec(model.query_sequence(row))
                    );
                }
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
            filter.query_row(&[key], &mut pre, &mut scratch);
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
                prop_assert_eq!(
                    filter.query_row(&keys, &mut pre, &mut scratch).cloned(),
                    fresh.query_row(&keys, &mut pre, &mut fresh_scratch).cloned(),
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
