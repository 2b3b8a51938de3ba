//! Micro-benchmarks: weighted vs classic Bloom filter operations.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dipm_core::{encode, BloomFilter, FilterParams, Weight, WeightedBloomFilter};

fn loaded_wbf(keys: u64) -> WeightedBloomFilter {
    let params = FilterParams::optimal(keys as usize, 0.01).expect("valid");
    let mut wbf = WeightedBloomFilter::new(params, 7);
    for k in 0..keys {
        let w = Weight::new(k % 13 + 1, 14).expect("non-zero");
        wbf.insert(k.wrapping_mul(0x9e37_79b9), w);
    }
    wbf
}

fn loaded_bloom(keys: u64) -> BloomFilter {
    let params = FilterParams::optimal(keys as usize, 0.01).expect("valid");
    let mut bf = BloomFilter::new(params, 7);
    for k in 0..keys {
        bf.insert(k.wrapping_mul(0x9e37_79b9));
    }
    bf
}

fn bench_filters(c: &mut Criterion) {
    let mut group = c.benchmark_group("filters");
    group.sample_size(20);

    group.bench_function("bloom_insert_10k", |b| {
        let params = FilterParams::optimal(10_000, 0.01).expect("valid");
        b.iter_batched(
            || BloomFilter::new(params, 7),
            |mut bf| {
                for k in 0..10_000u64 {
                    bf.insert(k);
                }
                bf
            },
            BatchSize::SmallInput,
        );
    });

    group.bench_function("wbf_insert_10k", |b| {
        let params = FilterParams::optimal(10_000, 0.01).expect("valid");
        b.iter_batched(
            || WeightedBloomFilter::new(params, 7),
            |mut wbf| {
                for k in 0..10_000u64 {
                    wbf.insert(k, Weight::ONE);
                }
                wbf
            },
            BatchSize::SmallInput,
        );
    });

    let bf = loaded_bloom(10_000);
    group.bench_function("bloom_query", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(1);
            bf.contains(k)
        });
    });

    let wbf = loaded_wbf(10_000);
    group.bench_function("wbf_query", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(1);
            wbf.query_sequence([k.wrapping_mul(0x9e37_79b9)])
        });
    });

    group.bench_function("wbf_query_sequence_12", |b| {
        let keys: Vec<u64> = (0..12u64).map(|k| k.wrapping_mul(0x9e37_79b9)).collect();
        b.iter(|| wbf.query_sequence(keys.iter().copied()));
    });

    group.bench_function("wbf_encode", |b| {
        b.iter(|| encode::encode_wbf(&wbf).expect("encodable"));
    });

    let encoded = encode::encode_wbf(&wbf).expect("encodable");
    group.bench_function("wbf_decode", |b| {
        b.iter(|| encode::decode_wbf(encoded.clone()).expect("valid"));
    });

    group.finish();
}

criterion_group!(benches, bench_filters);
criterion_main!(benches);
