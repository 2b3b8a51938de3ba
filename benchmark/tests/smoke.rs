//! Whole-benchmark checks at tiny scale.

use std::time::{Duration, Instant};

use dipm_benchmark::json::Json;
use dipm_benchmark::workloads::{query_stream_digest, Scale, Workload};
use dipm_benchmark::{run, Settings};

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let spec = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
    spec.get(key)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn smoke_run_of_every_workload_is_fast_and_error_free() {
    let start = Instant::now();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let settings = Settings {
                seed: 7,
                seconds: 0.0,
                trace,
                scale: Scale::smoke(),
                out: std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke"),
            };
            let report = run(workload, &settings).unwrap();
            assert!(
                report.attempted > 0,
                "{}: nothing attempted",
                workload.name()
            );
            assert_eq!(report.failed, 0, "{} trace={trace}", workload.name());
            let line = report.result_json().render();
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            let printed: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            let kind = if trace { "per_layer" } else { "end_to_end" };
            assert_eq!(printed, declared(kind), "{} {kind}", workload.name());
        }
    }
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "smoke took {:?}",
        start.elapsed()
    );
}

#[test]
fn query_stream_follows_the_seed() {
    let scale = Scale::full();
    for workload in Workload::ALL {
        let seven = query_stream_digest(workload, 7, &scale);
        assert_eq!(seven, query_stream_digest(workload, 7, &scale));
        assert_ne!(
            seven,
            query_stream_digest(workload, 11, &scale),
            "{}",
            workload.name()
        );
    }
}
