//! Facade-level property tests: the weight algebra the protocol's
//! correctness rests on, and every wire format's round-trip — exercised
//! through the `dipm` re-exports exactly as a downstream user would.

use bytes::Bytes;
use dipm::core::{encode, sum_weights, BloomFilter, FilterParams, Weight, WeightSet};
use dipm::mobilenet::UserId;
use dipm::prelude::*;
use dipm::protocol::wire;
use dipm::timeseries::Pattern;
use proptest::collection::vec;
use proptest::prelude::*;

fn arb_weight() -> impl Strategy<Value = Weight> {
    (1u64..=1_000_000, 1u64..=1_000_000)
        .prop_map(|(a, b)| Weight::new(a.min(b), a.max(b)).expect("non-zero denominator"))
}

proptest! {
    // ---------- Weight algebra ----------

    #[test]
    fn weight_addition_commutes_and_associates(
        a in arb_weight(),
        b in arb_weight(),
        c in arb_weight(),
    ) {
        prop_assert_eq!(a.checked_add(b), b.checked_add(a));
        let left = a.checked_add(b).and_then(|ab| ab.checked_add(c));
        let right = b.checked_add(c).and_then(|bc| a.checked_add(bc));
        if let (Some(l), Some(r)) = (left, right) {
            prop_assert_eq!(l, r);
        }
    }

    #[test]
    fn true_decomposition_sums_to_exactly_one(parts in vec(1u64..10_000, 1..16)) {
        // Eq. 1's share weights: any decomposition of a positive total sums
        // to exactly 1 — the anchor of Algorithm 3's acceptance test.
        let total: u64 = parts.iter().sum();
        let weights = parts.iter().map(|&p| Weight::ratio(p, total).unwrap());
        prop_assert!(sum_weights(weights).unwrap().is_one());
    }

    #[test]
    fn overfull_decomposition_is_deleted(
        parts in vec(1u64..10_000, 1..16),
        extra in arb_weight(),
    ) {
        // The weight-sum>1 deletion path: adding any extra report to an
        // exact decomposition pushes the sum strictly above 1, so
        // Algorithm 3 must drop the user.
        let total: u64 = parts.iter().sum();
        let user = UserId(7);
        let mut reports: Vec<(UserId, Weight)> = parts
            .iter()
            .map(|&p| (user, Weight::ratio(p, total).unwrap()))
            .collect();
        reports.push((user, extra));
        let ranked = aggregate_and_rank(reports, None);
        prop_assert!(
            ranked.is_empty(),
            "weight sum above 1 must delete the user, got {:?}",
            ranked
        );
    }

    // ---------- WeightSet algebra ----------

    #[test]
    fn weight_set_intersection_is_exact(
        xs in vec(arb_weight(), 0..24),
        ys in vec(arb_weight(), 0..24),
    ) {
        let a: WeightSet = xs.iter().copied().collect();
        let b: WeightSet = ys.iter().copied().collect();
        let i = a.intersection(&b);
        prop_assert_eq!(&i, &b.intersection(&a));
        for w in i.iter() {
            prop_assert!(a.contains(w) && b.contains(w));
        }
        for w in a.iter() {
            prop_assert_eq!(b.contains(w), i.contains(w));
        }
    }

    #[test]
    fn weight_set_insert_deduplicates(ws in vec(arb_weight(), 0..24)) {
        let mut set = WeightSet::new();
        for &w in &ws {
            set.insert(w);
        }
        let before = set.len();
        for &w in &ws {
            prop_assert!(!set.insert(w), "re-inserting {} must be a no-op", w);
        }
        prop_assert_eq!(set.len(), before);
    }

    // ---------- Filter encoding round-trips ----------

    #[test]
    fn bloom_filter_roundtrips_on_the_wire(
        keys in vec(any::<u64>(), 0..200),
        seed in any::<u64>(),
    ) {
        let params = FilterParams::new(2048, 4).unwrap();
        let mut bf = BloomFilter::new(params, seed);
        for &k in &keys {
            bf.insert(k);
        }
        let encoded = encode::encode_bloom(&bf);
        prop_assert_eq!(encoded.len(), encode::encoded_bloom_len(&bf));
        prop_assert_eq!(encode::decode_bloom(encoded).unwrap(), bf);
    }

    #[test]
    fn weighted_filter_roundtrips_on_the_wire(
        entries in vec((any::<u64>(), arb_weight()), 0..100),
        seed in any::<u64>(),
    ) {
        let params = FilterParams::new(4096, 3).unwrap();
        let mut wbf = WeightedBloomFilter::new(params, seed);
        for (k, w) in &entries {
            wbf.insert(*k, *w);
        }
        let encoded = encode::encode_wbf(&wbf).unwrap();
        prop_assert_eq!(encoded.len(), encode::encoded_wbf_len(&wbf));
        prop_assert_eq!(encode::decode_wbf(encoded).unwrap(), wbf);
    }

    // ---------- Protocol message round-trips ----------

    #[test]
    fn weight_reports_roundtrip(
        raw in vec((any::<u32>(), any::<u64>(), 1u64..1000, 1u64..1000), 0..50),
    ) {
        let reports: Vec<(u32, UserId, Weight)> = raw
            .iter()
            .map(|&(query, id, a, b)| (query, UserId(id), Weight::new(a, b).unwrap()))
            .collect();
        let encoded = wire::encode_tagged_weight_reports(&reports).unwrap();
        prop_assert_eq!(wire::decode_tagged_weight_reports(encoded).unwrap(), reports);
    }

    #[test]
    fn station_data_roundtrips(
        raw in vec((any::<u64>(), vec(any::<u64>(), 0..12)), 0..20),
    ) {
        let entries: Vec<(UserId, Pattern)> = raw
            .into_iter()
            .map(|(id, vs)| (UserId(id), Pattern::new(vs)))
            .collect();
        let encoded = wire::encode_station_data(entries.iter().map(|(u, p)| (*u, p))).unwrap();
        prop_assert_eq!(wire::decode_station_data(encoded).unwrap(), entries);
    }

    #[test]
    fn filter_broadcast_roundtrips(
        totals in vec(any::<u64>(), 0..8),
        payload in vec(any::<u8>(), 0..64),
    ) {
        let filter = Bytes::from(payload);
        let framed = wire::encode_filter_broadcast(&totals, filter.clone()).unwrap();
        let (decoded_totals, rest) = wire::decode_filter_broadcast(framed).unwrap();
        prop_assert_eq!(decoded_totals, totals);
        prop_assert_eq!(rest, filter);
    }

    #[test]
    fn corrupt_broadcasts_never_panic(raw in vec(any::<u8>(), 0..300)) {
        let bytes = Bytes::from(raw);
        let _ = wire::decode_tagged_weight_reports(bytes.clone());
        let _ = wire::decode_tagged_id_reports(bytes.clone());
        let _ = wire::decode_station_data(bytes.clone());
        let _ = wire::decode_filter_broadcast(bytes.clone());
        let _ = encode::decode_bloom(bytes.clone());
        let _ = encode::decode_wbf(bytes);
    }
}
