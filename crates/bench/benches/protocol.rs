//! Macro-benchmarks: DI-matching protocol stages end to end.

use criterion::{criterion_group, criterion_main, Criterion};
use dipm_core::Weight;
use dipm_distsim::ExecutionMode;
use dipm_mobilenet::{Dataset, UserId};
use dipm_protocol::{
    aggregate_and_rank, build_wbf, run_pipeline, run_wbf, scan_station, DiMatchingConfig,
    PatternQuery, PipelineOptions, Service, Shards, TenantId, Wbf,
};

fn queries(dataset: &Dataset, count: usize) -> Vec<PatternQuery> {
    (0..count)
        .map(|i| {
            let user = dataset.users()[(i * 17) % dataset.users().len()];
            PatternQuery::from_fragments(dataset.fragments(user.id).expect("traffic"))
                .expect("valid")
        })
        .collect()
}

fn bench_protocol(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol");
    group.sample_size(10);

    let dataset = Dataset::city_slice(600, 12, 5).expect("valid preset");
    let config = DiMatchingConfig::default();

    for count in [1usize, 10] {
        let qs = queries(&dataset, count);
        group.bench_function(format!("build_wbf_q{count}"), |b| {
            b.iter(|| build_wbf(&qs, &config).expect("builds"));
        });
    }

    let qs = queries(&dataset, 5);
    let built = build_wbf(&qs, &config).expect("builds");
    let station = dataset.stations()[0];
    let patterns = dataset.station_locals(station).expect("station has data");
    group.bench_function("scan_station", |b| {
        b.iter(|| {
            scan_station(&built.filter, &built.query_totals, patterns, &config, None)
                .expect("scans")
        });
    });

    group.bench_function("aggregate_5k_reports", |b| {
        let reports: Vec<(UserId, Weight)> = (0..5_000u64)
            .map(|i| (UserId(i % 1_000), Weight::new(i % 7 + 1, 8).expect("valid")))
            .collect();
        b.iter(|| aggregate_and_rank(reports.clone(), Some(100)));
    });

    let one = queries(&dataset, 1);
    group.bench_function("end_to_end_wbf", |b| {
        b.iter(|| {
            run_wbf(&dataset, &one, &config, ExecutionMode::Sequential, Some(10))
                .expect("pipeline runs")
        });
    });

    // The batch-first pipeline: 8 queries amortized over one broadcast and
    // one scan pass per station, per-query rankings out.
    let batch = queries(&dataset, 8);
    group.bench_function("batch_pipeline_q8", |b| {
        let options = PipelineOptions {
            top_k: Some(10),
            ..PipelineOptions::default()
        };
        b.iter(|| run_pipeline::<Wbf>(&dataset, &batch, &config, &options).expect("pipeline runs"));
    });

    // The scaled-out deployment shape: sharded stations over a fixed
    // executor pool.
    group.bench_function("batch_pipeline_q8_sharded_pool", |b| {
        let options = PipelineOptions {
            mode: ExecutionMode::Async { workers: 6 },
            shards: Shards::new(4),
            top_k: Some(10),
            ..PipelineOptions::default()
        };
        b.iter(|| run_pipeline::<Wbf>(&dataset, &batch, &config, &options).expect("pipeline runs"));
    });

    // One multiplexed service epoch: three standing tenants interleaved
    // over the shared executor and station links (epoch 0 full broadcasts
    // run once in setup, so the measured epoch is the steady-state delta
    // path).
    group.bench_function("service_epoch_3_tenants", |b| {
        let mut service = Service::new(PipelineOptions::default());
        for t in 0..3u64 {
            service
                .register(TenantId(t), &queries(&dataset, 3), config.clone())
                .expect("tenant registers");
        }
        service.run_epoch(&dataset).expect("first epoch runs");
        b.iter(|| service.run_epoch(&dataset).expect("epoch runs"));
    });

    group.finish();
}

criterion_group!(benches, bench_protocol);
criterion_main!(benches);
