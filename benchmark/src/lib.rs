//! End-to-end benchmark of the DI-matching stack.
//!
//! A run sets one workload up several times, drives it in a closed loop for
//! a fixed wall time, checks every answer, and reports the end-to-end
//! metrics. A trace run instead pairs each untraced op with a stage-by-stage
//! replay and reports per-layer metrics. See `README.md` for the workloads
//! and the metric glossary.

pub mod compare;
pub mod json;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use json::Json;
use stats::{
    median, median_group_rate, percentile, samples_beyond, sorted, TAIL_PERCENTILE,
    THROUGHPUT_GROUPS,
};
use trace::Tracer;
use workloads::{BatchBench, Bench, Scale, StandingBench, TracedPair, Workload};

/// How one run is made.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Wall time the op loop runs for, beyond the op floor.
    pub seconds: f64,
    /// Whether this is a trace run (per-layer metrics) instead of an
    /// end-to-end run.
    pub trace: bool,
    /// Input sizes and op floors.
    pub scale: Scale,
    /// Where results and traces are written.
    pub out: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The workload run.
    pub workload: Workload,
    /// Ops attempted (pairs in a trace run).
    pub attempted: u64,
    /// Ops that errored or disagreed with their reference.
    pub failed: u64,
    /// Every metric of the run's kind, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable context: sample counts, error breakdown.
    pub notes: Vec<String>,
}

impl RunReport {
    /// The result line the benchmark contract asks for.
    pub fn result_json(&self) -> Json {
        Json::Obj(vec![
            (
                "correct".into(),
                Json::Bool(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            (
                "metrics".into(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.to_string(),
                                Json::Obj(vec![
                                    ("value".into(), Json::Num(m.value)),
                                    ("unit".into(), Json::Str(m.unit.into())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The result line plus what `compare` needs to pair runs up.
    pub fn record_json(&self, settings: &Settings) -> Json {
        let Json::Obj(mut members) = self.result_json() else {
            unreachable!("result_json builds an object")
        };
        let context = vec![
            ("workload".into(), Json::Str(self.workload.name().into())),
            ("seed".into(), Json::Num(settings.seed as f64)),
            ("seconds".into(), Json::Num(settings.seconds)),
            ("trace".into(), Json::Bool(settings.trace)),
            (
                "kernel".into(),
                Json::Str(dipm_core::Kernel::active().name().into()),
            ),
            ("nproc".into(), Json::Num(nproc() as f64)),
        ];
        members.splice(0..0, context);
        Json::Obj(members)
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs `workload` once.
///
/// # Errors
///
/// Returns a message when set-up fails or a metric cannot be computed.
pub fn run(workload: Workload, settings: &Settings) -> Result<RunReport, String> {
    match workload {
        Workload::StandingChurn => drive::<StandingBench>(workload, settings),
        _ => drive::<BatchBench>(workload, settings),
    }
}

fn drive<B: Bench>(workload: Workload, settings: &Settings) -> Result<RunReport, String> {
    let mut setup_times = Vec::new();
    let mut generate_times = Vec::new();
    let mut bench = None;
    let scale = &settings.scale;
    while setup_times.len() < scale.setup_reps.max(1)
        || setup_times.iter().sum::<f64>() < scale.setup_seconds
    {
        // Drop the previous instance first, so peak memory holds one.
        drop(bench.take());
        let start = Instant::now();
        let (fresh, generate) = B::setup(workload, settings.seed, &settings.scale)
            .map_err(|e| format!("{} set-up failed: {e}", workload.name()))?;
        setup_times.push(start.elapsed().as_secs_f64());
        generate_times.push(generate.as_secs_f64() * 1e3);
        bench = Some(fresh);
    }
    let bench = bench.expect("at least one set-up ran");
    let report = if settings.trace {
        traced(workload, settings, bench, &generate_times)?
    } else {
        timed(workload, settings, bench, &setup_times)?
    };
    if let Some(bad) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!(
            "{}: metric {} is not a number ({})",
            workload.name(),
            bad.name,
            bad.value
        ));
    }
    Ok(report)
}

fn deadline_passed(start: Instant, seconds: f64) -> bool {
    start.elapsed() >= Duration::from_secs_f64(seconds.max(0.0))
}

/// The end-to-end run: closed loop, then the answer checks.
fn timed<B: Bench>(
    workload: Workload,
    settings: &Settings,
    mut bench: B,
    setup_times: &[f64],
) -> Result<RunReport, String> {
    let min_ops = settings.scale.min_ops(workload);
    // `(seconds, rankings)` of every op that succeeded, in run order.
    let mut done: Vec<(f64, f64)> = Vec::new();
    let (mut ops, mut errors) = (0usize, 0u64);
    let start = Instant::now();
    while ops < min_ops || !deadline_passed(start, settings.seconds) {
        let sample = bench.op(ops);
        ops += 1;
        if sample.ok {
            done.push((sample.elapsed.as_secs_f64(), sample.rankings as f64));
        } else {
            errors += 1;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let checked = bench.check();
    if done.is_empty() {
        return Err(format!("{}: every op failed", workload.name()));
    }
    let latencies = sorted(&done.iter().map(|&(s, _)| s * 1e3).collect::<Vec<_>>());
    let rankings: f64 = done.iter().map(|&(_, r)| r).sum();
    let rss = peak_rss_mb().ok_or("peak RSS is unreadable (no /proc/self/status VmHWM)")?;
    let metrics = vec![
        metric("setup_s", median(setup_times), "s"),
        metric(
            "queries_per_s",
            median_group_rate(&done, THROUGHPUT_GROUPS),
            "rankings/s",
        ),
        metric("latency_ms_p50", percentile(&latencies, 50.0), "ms"),
        metric("bytes_per_query", checked.bytes_per_query, "B"),
        metric(
            "storage_bytes_per_query",
            checked.storage_bytes_per_query,
            "B",
        ),
        metric("precision", checked.precision, "ratio"),
        metric("recall", checked.recall, "ratio"),
        metric("peak_rss_mb", rss, "MB"),
    ];
    let failed = errors + checked.mismatches;
    let notes = vec![
        format!(
            "{ops} ops in {wall:.2} s ({rankings} rankings), {} set-ups",
            setup_times.len()
        ),
        // The tail is printed, not bounded: see README, "Noise".
        format!(
            "latency p{TAIL_PERCENTILE} {:.3} ms over {} samples, {} beyond it",
            percentile(&latencies, TAIL_PERCENTILE),
            latencies.len(),
            samples_beyond(latencies.len(), TAIL_PERCENTILE)
        ),
        format!(
            "errors {errors}, answer mismatches {}, error_rate {}",
            checked.mismatches,
            failed as f64 / ops as f64
        ),
    ];
    Ok(RunReport {
        workload,
        attempted: ops as u64,
        failed,
        metrics,
        notes,
    })
}

/// The trace run: untraced/traced pairs, then the answer checks, then the
/// spans written out and folded into per-layer metrics.
fn traced<B: Bench>(
    workload: Workload,
    settings: &Settings,
    mut bench: B,
    generate_times: &[f64],
) -> Result<RunReport, String> {
    let mut tracer = Tracer::default();
    let mut pairs = Vec::new();
    let start = Instant::now();
    while pairs.len() < settings.scale.trace_min_pairs || !deadline_passed(start, settings.seconds)
    {
        pairs.push(bench.trace_pair(pairs.len(), &mut tracer));
    }
    let checked = bench.check();
    std::fs::create_dir_all(&settings.out)
        .map_err(|e| format!("cannot create {}: {e}", settings.out.display()))?;
    let path = settings
        .out
        .join(format!("{}.trace.jsonl", workload.name()));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let replay_failures = pairs.iter().filter(|p| !p.ok).count() as u64;
    let good: Vec<&TracedPair> = pairs.iter().filter(|p| p.ok).collect();
    if good.is_empty() {
        return Err(format!("{}: no traced pair succeeded", workload.name()));
    }
    let metrics = layer_metrics(&good, generate_times);
    let notes = vec![
        format!(
            "{} traced pairs, {} spans written to {}",
            pairs.len(),
            tracer.spans().len(),
            path.display()
        ),
        format!(
            "replay failures or mismatches {replay_failures}, answer mismatches {}",
            checked.mismatches
        ),
    ];
    Ok(RunReport {
        workload,
        attempted: pairs.len() as u64,
        failed: replay_failures + checked.mismatches,
        metrics,
        notes,
    })
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Per-layer metrics from the traced pairs. Times and counts are per-op
/// means (so stage times add up to the mean op time, even where an op mix
/// skips a stage on most ops); ratios divide sums; modeled latencies are
/// medians.
fn layer_metrics(pairs: &[&TracedPair], generate_times: &[f64]) -> Vec<Metric> {
    let value = |p: &TracedPair, key: &str| p.sample.get(key).copied().unwrap_or(0.0);
    let sum = |key: &str| pairs.iter().map(|p| value(p, key)).sum::<f64>();
    let mean = |key: &str| sum(key) / pairs.len() as f64;
    let med = |key: &str| median(&pairs.iter().map(|p| value(p, key)).collect::<Vec<_>>());
    let ratio = |num: &str, den: &str| {
        let den = sum(den);
        if den == 0.0 {
            0.0
        } else {
            sum(num) / den
        }
    };
    let mean_ms = |f: fn(&TracedPair) -> Duration| {
        pairs.iter().map(|p| f(p).as_secs_f64() * 1e3).sum::<f64>() / pairs.len() as f64
    };
    let untraced_ms = mean_ms(|p| p.untraced);
    let stage_ms = mean_ms(|p| p.stage_sum);
    let scan_s = sum("basestation.scan") / 1e3;
    let route_ms = sum("routing.route") + sum("routing.tree_build");
    let rebuild_ms = mean("rebuild_ms");
    vec![
        metric("mobilenet.generate_ms", median(generate_times), "ms"),
        metric("datacenter.build_ms", mean("datacenter.build"), "ms"),
        metric(
            "datacenter.aggregate_ms",
            mean("datacenter.aggregate"),
            "ms",
        ),
        metric(
            "datacenter.inserted_values",
            mean("inserted_values"),
            "count",
        ),
        metric(
            "datacenter.useful_report_ratio",
            ratio("useful_reports", "reports"),
            "ratio",
        ),
        metric("wire.encode_ms", mean("wire.encode"), "ms"),
        metric("wire.decode_ms", mean("wire.decode"), "ms"),
        metric("wire.report_ms", mean("wire.report"), "ms"),
        metric("wire.query_bytes", mean("query_bytes"), "B"),
        metric("wire.report_bytes", mean("report_bytes"), "B"),
        metric("basestation.layout_ms", mean("basestation.layout"), "ms"),
        metric("basestation.scan_ms", mean("basestation.scan"), "ms"),
        metric("basestation.row_sections", mean("row_sections"), "count"),
        metric(
            "basestation.scan_rows_per_s",
            if scan_s > 0.0 {
                sum("row_sections") / scan_s
            } else {
                0.0
            },
            "rows/s",
        ),
        metric("basestation.hash_ops", mean("hash_ops"), "count"),
        metric("basestation.rows_pruned", mean("rows_pruned"), "count"),
        metric(
            "basestation.blocks_skipped",
            mean("blocks_skipped"),
            "count",
        ),
        metric(
            "basestation.report_ratio",
            ratio("reports", "row_sections"),
            "ratio",
        ),
        metric("routing.route_ms", route_ms / pairs.len() as f64, "ms"),
        metric(
            "routing.tree_build_share",
            if route_ms > 0.0 {
                sum("routing.tree_build") / route_ms
            } else {
                0.0
            },
            "ratio",
        ),
        metric("routing.bytes", mean("routing_bytes"), "B"),
        metric(
            "routing.pruned_ratio",
            ratio("stations_pruned", "stations"),
            "ratio",
        ),
        metric(
            "routing.useful_target_ratio",
            ratio("reporting", "targeted"),
            "ratio",
        ),
        metric("distsim.runtime_overhead_ms", untraced_ms - stage_ms, "ms"),
        metric("distsim.messages", mean("messages"), "count"),
        metric("distsim.makespan_ticks", med("makespan"), "ticks"),
        metric("distsim.straggler_ratio", med("straggler"), "ratio"),
        metric(
            "service.write_share",
            ratio("service.write", "op_ms"),
            "ratio",
        ),
        metric(
            "service.epoch_share",
            ratio("service.epoch", "op_ms"),
            "ratio",
        ),
        metric(
            "service.checkpoint_share",
            ratio("service.checkpoint", "op_ms"),
            "ratio",
        ),
        metric(
            "service.epoch_to_rebuild",
            if rebuild_ms > 0.0 {
                mean("service.epoch") / rebuild_ms
            } else {
                0.0
            },
            "ratio",
        ),
        metric(
            "service.checkpoint_bytes",
            ratio("checkpoint_bytes", "checkpoints"),
            "B",
        ),
        metric("service.delta_bytes", mean("delta_bytes"), "B"),
        metric(
            "service.delta_to_rebuild_ratio",
            ratio("delta_bytes", "rebuild_bytes"),
            "ratio",
        ),
        metric(
            "trace.overhead_pct",
            (stage_ms / untraced_ms - 1.0) * 100.0,
            "%",
        ),
    ]
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
