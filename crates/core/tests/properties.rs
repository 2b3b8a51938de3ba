//! Property-based tests for the core filter data structures.

use dipm_core::{
    encode, sum_weights, BitSet, BloomFilter, FilterParams, HashFamily, Weight, WeightSet,
    WeightedBloomFilter,
};
use proptest::collection::vec;
use proptest::prelude::*;

fn arb_weight() -> impl Strategy<Value = Weight> {
    (1u64..=1_000_000, 1u64..=1_000_000)
        .prop_map(|(a, b)| Weight::new(a.min(b), a.max(b)).expect("non-zero denominator"))
}

proptest! {
    // ---------- BitSet ----------

    #[test]
    fn bitset_set_get_roundtrip(indices in vec(0usize..4096, 0..200)) {
        let mut bits = BitSet::new(4096);
        for &i in &indices {
            bits.set(i);
        }
        for &i in &indices {
            prop_assert!(bits.get(i));
        }
        let distinct: std::collections::BTreeSet<_> = indices.iter().copied().collect();
        prop_assert_eq!(bits.count_ones(), distinct.len());
        let ones: Vec<usize> = bits.iter_ones().collect();
        prop_assert_eq!(ones, distinct.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn bitset_union_is_commutative(
        xs in vec(0usize..512, 0..64),
        ys in vec(0usize..512, 0..64),
    ) {
        let mut a = BitSet::new(512);
        let mut b = BitSet::new(512);
        for &i in &xs { a.set(i); }
        for &i in &ys { b.set(i); }
        let mut ab = a.clone();
        ab.union_with(&b).unwrap();
        let mut ba = b.clone();
        ba.union_with(&a).unwrap();
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn bitset_words_roundtrip(indices in vec(0usize..300, 0..80)) {
        let mut bits = BitSet::new(300);
        for &i in &indices { bits.set(i); }
        let rebuilt = BitSet::from_words(bits.as_words().to_vec(), 300).unwrap();
        prop_assert_eq!(rebuilt, bits);
    }

    // ---------- Weight ----------

    #[test]
    fn weight_is_always_reduced(num in 1u64..1_000_000, den in 1u64..1_000_000) {
        let w = Weight::new(num, den).unwrap();
        let g = {
            let (mut a, mut b) = (w.numerator(), w.denominator());
            while b != 0 { let t = a % b; a = b; b = t; }
            a
        };
        prop_assert_eq!(g, 1);
    }

    #[test]
    fn weight_add_commutes(a in arb_weight(), b in arb_weight()) {
        prop_assert_eq!(a.checked_add(b), b.checked_add(a));
    }

    #[test]
    fn weight_add_associates(a in arb_weight(), b in arb_weight(), c in arb_weight()) {
        let left = a.checked_add(b).and_then(|ab| ab.checked_add(c));
        let right = b.checked_add(c).and_then(|bc| a.checked_add(bc));
        if let (Some(l), Some(r)) = (left, right) {
            prop_assert_eq!(l, r);
        }
    }

    #[test]
    fn weight_order_matches_f64(a in arb_weight(), b in arb_weight()) {
        // f64 has 52 bits of mantissa; with numerators ≤ 1e6 the comparison
        // is exact unless the ratios are equal.
        if a != b {
            prop_assert_eq!(a < b, a.to_f64() < b.to_f64());
        }
    }

    #[test]
    fn weight_decomposition_sums_to_one(parts in vec(1u64..10_000, 1..20)) {
        let total: u64 = parts.iter().sum();
        let weights: Vec<Weight> =
            parts.iter().map(|&p| Weight::ratio(p, total).unwrap()).collect();
        prop_assert!(sum_weights(weights).unwrap().is_one());
    }

    // ---------- WeightSet ----------

    #[test]
    fn weight_set_intersection_subset(xs in vec(arb_weight(), 0..20), ys in vec(arb_weight(), 0..20)) {
        let a: WeightSet = xs.iter().copied().collect();
        let b: WeightSet = ys.iter().copied().collect();
        let i = a.intersection(&b);
        for w in i.iter() {
            prop_assert!(a.contains(w) && b.contains(w));
        }
        for w in a.iter() {
            if b.contains(w) {
                prop_assert!(i.contains(w));
            }
        }
    }

    #[test]
    fn weight_set_iter_is_sorted(xs in vec(arb_weight(), 0..30)) {
        let set: WeightSet = xs.into_iter().collect();
        let items: Vec<Weight> = set.iter().collect();
        for pair in items.windows(2) {
            prop_assert!(pair[0] < pair[1]);
        }
    }

    // ---------- HashFamily ----------

    #[test]
    fn probes_deterministic(seed in any::<u64>(), key in any::<u64>(), k in 1u16..16, m in 1usize..100_000) {
        let f1 = HashFamily::new(k, seed);
        let f2 = HashFamily::new(k, seed);
        let a: Vec<usize> = f1.probes(key, m).collect();
        let b: Vec<usize> = f2.probes(key, m).collect();
        prop_assert_eq!(&a, &b);
        prop_assert!(a.iter().all(|&p| p < m));
        prop_assert_eq!(a.len(), k as usize);
    }

    // ---------- BloomFilter ----------

    #[test]
    fn bloom_no_false_negatives(keys in vec(any::<u64>(), 1..300), seed in any::<u64>()) {
        let params = FilterParams::optimal(300, 0.01).unwrap();
        let mut bf = BloomFilter::new(params, seed);
        for &k in &keys {
            bf.insert(k);
        }
        for &k in &keys {
            prop_assert!(bf.contains(k));
        }
    }

    #[test]
    fn bloom_roundtrip_encoding(keys in vec(any::<u64>(), 0..200), seed in any::<u64>()) {
        let params = FilterParams::new(2048, 4).unwrap();
        let mut bf = BloomFilter::new(params, seed);
        for &k in &keys {
            bf.insert(k);
        }
        let decoded = encode::decode_bloom(encode::encode_bloom(&bf)).unwrap();
        prop_assert_eq!(decoded, bf);
    }

    // The bulk constructor is the insert fold: the same bits, ones and
    // membership, and `inserted` counts every key passed, duplicates
    // included. Keys come from a small pool, so lists repeat keys, and bit
    // lengths are odd, so none is a power of two.
    #[test]
    fn bloom_from_keys_equals_the_insert_fold(
        pool in vec(any::<u64>(), 1..40),
        picks in vec(any::<usize>(), 0..200),
        half_bits in 0usize..3_000,
        hashes in 1u16..=24,
        seed in any::<u64>(),
    ) {
        let keys: Vec<u64> = picks.iter().map(|&p| pool[p % pool.len()]).collect();
        let params = FilterParams::new(2 * half_bits + 1, hashes).unwrap();
        let mut fold = BloomFilter::new(params, seed);
        for &k in &keys {
            fold.insert(k);
        }
        let bulk = BloomFilter::from_keys(params, seed, keys.iter().copied());
        prop_assert_eq!(bulk.bits(), fold.bits());
        prop_assert_eq!(bulk.bits().count_ones(), fold.bits().count_ones());
        prop_assert_eq!(bulk.inserted(), keys.len() as u64);
        for &k in pool.iter().chain(&keys) {
            prop_assert_eq!(bulk.contains(k), fold.contains(k));
        }
        prop_assert_eq!(bulk, fold);
    }

    // ---------- WeightedBloomFilter ----------

    #[test]
    fn wbf_no_false_negatives(
        seqs in vec((vec(any::<u64>(), 1..12), 1u64..100), 1..12),
        seed in any::<u64>(),
    ) {
        let params = FilterParams::new(1 << 14, 4).unwrap();
        let mut wbf = WeightedBloomFilter::new(params, seed);
        for (seq, num) in &seqs {
            let w = Weight::new(*num, 100).unwrap();
            for &v in seq {
                wbf.insert(v, w);
            }
        }
        for (seq, num) in &seqs {
            let w = Weight::new(*num, 100).unwrap();
            let res = wbf.query_sequence(seq.iter().copied());
            prop_assert!(res.expect("bits must be set").contains(w));
        }
    }

    #[test]
    fn wbf_roundtrip_encoding(
        entries in vec((any::<u64>(), arb_weight()), 0..100),
        seed in any::<u64>(),
    ) {
        let params = FilterParams::new(4096, 3).unwrap();
        let mut wbf = WeightedBloomFilter::new(params, seed);
        for (key, w) in &entries {
            wbf.insert(*key, *w);
        }
        let decoded = encode::decode_wbf(encode::encode_wbf(&wbf).unwrap()).unwrap();
        prop_assert_eq!(&decoded, &wbf);
    }

    #[test]
    fn wbf_query_subset_of_contains(key in any::<u64>(), seed in any::<u64>()) {
        let params = FilterParams::new(1024, 3).unwrap();
        let mut wbf = WeightedBloomFilter::new(params, seed);
        wbf.insert(key ^ 0x5555, Weight::ONE);
        // query(Some) implies contains(true) for any key.
        if wbf.query(key).is_some() {
            prop_assert!(wbf.contains(key));
        }
    }
}
