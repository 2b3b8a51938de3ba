//! Scan microbench — the per-row hot path every other feature multiplies.
//!
//! [`scan_shard_wbf`] is the kernel of the whole system: a batch of Q
//! queries over N stations is exactly N × shards calls to it, and the
//! streaming session re-runs it every epoch. This sweep drives the kernel
//! directly (no network, no pipeline) across the three axes that set its
//! cost — stored rows, broadcast sections and hash count — and reports
//! throughput in rows/sec and probes/sec plus the byte volumes involved.
//!
//! It scans what a station scans. Each section is built at its own
//! query's sized bit length, as the pipeline builds a batch's per-query
//! sections, with only the hash count pinned to the axis value. Each is
//! then encoded as a broadcast frame and scanned as the zero-copy
//! [`WbfSectionView`](wire::WbfSectionView) a station decodes it into.
//!
//! The workload is deliberately miss-dominated: in a city-scale deployment
//! almost every stored pattern fails the membership test for almost every
//! query, so the hit-free path is what the rows/sec number measures. A row
//! probes only the sections that survive the scan's exact prune (no weight
//! in the section's universe plausible for the row's volume means no
//! probe), so that number includes the prune test and whatever it skips.
//! A fixed 1-in-64 slice of rows replays a query's own global pattern, so
//! report encoding is exercised and the oracle hits stay deterministic.
//!
//! `repro scan` emits the table and the `BENCH_scan.json` trajectory file;
//! `repro scan --check BENCH_scan.json` is the CI perf-smoke regression
//! gate (geometric-mean throughput must stay within 30 % of the baseline).

use std::time::Instant;

use dipm_core::{encode, mix64, FilterParams, Kernel, WbfFrameView};
use dipm_mobilenet::UserId;
use dipm_protocol::{
    build_wbf, scan_shard_wbf, wire, DiMatchingConfig, PatternQuery, WbfScanSection,
};
use dipm_timeseries::Pattern;

use crate::report::{Cell, Report};
use crate::scale::Scale;

/// Intervals per synthetic CDR pattern (a week at 6-hour resolution, the
/// paper's Dataset-1 shape).
const PATTERN_LEN: usize = 28;

/// One row in `HIT_STRIDE` replays a query global, so the scan always
/// produces some reports.
const HIT_STRIDE: usize = 64;

/// One timed sweep point.
#[derive(Debug, Clone)]
pub struct ScanPoint {
    /// Stored rows in the scanned shard.
    pub rows: usize,
    /// Broadcast filter sections probed per row.
    pub sections: usize,
    /// Hash functions per probe.
    pub hashes: u16,
    /// Scanned rows per second (one row = sampling + `sections` probes).
    pub rows_per_sec: f64,
    /// Section probes per second (`rows/sec × sections`).
    pub probes_per_sec: f64,
    /// Reports produced by one scan pass.
    pub reports: usize,
    /// Wire bytes of one station's encoded report payload.
    pub report_bytes: u64,
    /// Wire bytes of the broadcast filter sections probed (query volumes
    /// plus encoded filter).
    pub filter_bytes: u64,
}

/// A deterministic synthetic pattern: `PATTERN_LEN` intervals of bursty
/// traffic derived from `mix64`.
fn synthetic_pattern(seed: u64, row: u64) -> Pattern {
    (0..PATTERN_LEN as u64)
        .map(|i| mix64(seed ^ (row.wrapping_mul(0x9e37) + i)) % 50)
        .collect()
}

/// A query over two synthetic local fragments.
fn synthetic_query(seed: u64, index: u64) -> PatternQuery {
    let a = synthetic_pattern(seed ^ 0xA5A5, index * 2);
    let b = synthetic_pattern(seed ^ 0x5A5A, index * 2 + 1);
    PatternQuery::from_locals(vec![a, b]).expect("synthetic fragments are valid")
}

/// The synthetic shard: miss-dominated rows with a deterministic 1-in-64
/// slice replaying query globals so the hit path is exercised too.
fn synthetic_shard(seed: u64, rows: usize, queries: &[PatternQuery]) -> Vec<(UserId, Pattern)> {
    (0..rows)
        .map(|r| {
            let pattern = if r % HIT_STRIDE == 0 {
                queries[(r / HIT_STRIDE) % queries.len()].global().clone()
            } else {
                synthetic_pattern(seed, r as u64)
            };
            (UserId(r as u64), pattern)
        })
        .collect()
}

/// One query's broadcast section at the bit length the default build
/// sizes for it and `hashes` hash functions, as a station views it, and
/// the frame's byte length.
fn station_section(query: &PatternQuery, hashes: u16) -> (wire::WbfSectionView, u64) {
    let config = DiMatchingConfig::default();
    let one = std::slice::from_ref(query);
    let sized = build_wbf(one, &config)
        .expect("synthetic query builds")
        .stats;
    let config = DiMatchingConfig {
        fixed_geometry: Some(
            FilterParams::new(sized.bits.max(1 << 12), hashes).expect("valid geometry"),
        ),
        ..config
    };
    let built = build_wbf(one, &config).expect("section builds");
    let filter = encode::encode_wbf(&built.filter).expect("filter encodes");
    let frame =
        wire::encode_filter_broadcast(&built.query_totals, filter).expect("broadcast frames");
    let len = frame.len() as u64;
    (
        wire::view_filter_broadcast(frame).expect("broadcast views"),
        len,
    )
}

/// Times one sweep point: builds `sections` per-query broadcast sections at
/// `hashes` hash functions, views them as a station does, then scans `rows`
/// synthetic rows until `min_seconds` of wall-clock time has accumulated.
fn measure(seed: u64, rows: usize, sections: usize, hashes: u16, min_seconds: f64) -> ScanPoint {
    let config = DiMatchingConfig::default();
    let queries: Vec<PatternQuery> = (0..sections)
        .map(|i| synthetic_query(seed, i as u64))
        .collect();
    let (received, frame_lens): (Vec<wire::WbfSectionView>, Vec<u64>) =
        queries.iter().map(|q| station_section(q, hashes)).unzip();
    let filter_bytes = frame_lens.iter().sum();
    let views: Vec<WbfScanSection<'_, WbfFrameView>> = received
        .iter()
        .enumerate()
        .map(|(i, v)| (i as u32, &v.filter, v.query_totals.as_slice()))
        .collect();

    let owned = synthetic_shard(seed, rows, &queries);
    let shard: Vec<(UserId, &Pattern)> = owned.iter().map(|&(u, ref p)| (u, p)).collect();

    // Warm-up pass doubles as the report census.
    let reports = scan_shard_wbf(&views, &shard, &config, None).expect("scan runs");
    let report_bytes = wire::encode_tagged_weight_reports(&reports)
        .expect("reports encode")
        .len() as u64;

    let mut passes = 0u64;
    let start = Instant::now();
    loop {
        let out = scan_shard_wbf(&views, &shard, &config, None).expect("scan runs");
        assert_eq!(out.len(), reports.len(), "scan must be deterministic");
        passes += 1;
        if start.elapsed().as_secs_f64() >= min_seconds {
            break;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let rows_per_sec = rows as f64 * passes as f64 / elapsed;
    ScanPoint {
        rows,
        sections,
        hashes,
        rows_per_sec,
        probes_per_sec: rows_per_sec * sections as f64,
        reports: reports.len(),
        report_bytes,
        filter_bytes,
    }
}

/// The sweep grid for one scale: `(rows, sections, hashes, min_seconds)`.
fn grid(scale: &Scale) -> (Vec<usize>, Vec<usize>, Vec<u16>, f64) {
    if scale.users <= Scale::quick().users {
        (vec![500, 2_000], vec![1, 8], vec![4], 0.05)
    } else {
        (
            vec![1_000, 4_000, 16_000],
            vec![1, 4, 16],
            vec![2, 4, 8],
            0.15,
        )
    }
}

/// Runs the rows × sections × hashes sweep and returns the raw points.
pub fn scan_sweep(scale: &Scale) -> Vec<ScanPoint> {
    let (rows_axis, sections_axis, hashes_axis, min_seconds) = grid(scale);
    let mut points = Vec::new();
    for &rows in &rows_axis {
        for &sections in &sections_axis {
            for &hashes in &hashes_axis {
                points.push(measure(scale.seed, rows, sections, hashes, min_seconds));
            }
        }
    }
    points
}

/// The geometric mean of the sweep's rows/sec column — the single number
/// the CI regression gate compares across commits.
pub fn geomean_rows_per_sec(points: &[ScanPoint]) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = points.iter().map(|p| p.rows_per_sec.ln()).sum();
    (log_sum / points.len() as f64).exp()
}

/// Scan-kernel throughput across rows × sections × hashes.
pub fn scan(scale: &Scale) -> Report {
    let points = scan_sweep(scale);
    let mut report = Report::new(
        "Scan microbench",
        "scan_shard_wbf kernel throughput across rows × sections × hashes",
        "the per-row scan is the hot path every feature multiplies; its cost must be flat per \
         (row × section) probe and allocation-free on the hit-free path",
    );
    // The kernel column comes LAST: downstream tooling (and this crate's
    // own tests) addresses the numeric columns positionally.
    report.columns([
        "rows",
        "sections",
        "hashes",
        "rows_per_sec",
        "probes_per_sec",
        "reports",
        "report_bytes",
        "filter_bytes",
        "kernel",
    ]);
    let kernel = Kernel::active().name();
    for p in &points {
        report.row_cells([
            Cell::int(p.rows as u64),
            Cell::int(p.sections as u64),
            Cell::int(u64::from(p.hashes)),
            Cell::rendered(p.rows_per_sec, format!("{:.0}", p.rows_per_sec)),
            Cell::rendered(p.probes_per_sec, format!("{:.0}", p.probes_per_sec)),
            Cell::int(p.reports as u64),
            Cell::int(p.report_bytes),
            Cell::int(p.filter_bytes),
            Cell::text(kernel),
        ]);
    }
    report.note(format!(
        "geomean rows/sec: {:.0}",
        geomean_rows_per_sec(&points)
    ));
    report.note(format!("probe kernel: {kernel}"));
    report.note(format!(
        "miss-dominated synthetic shard ({PATTERN_LEN}-interval rows, 1 hit per {HIT_STRIDE} \
         rows), seed {}; one row = accumulate + sample + prune test + probe every surviving \
         section",
        scale.seed
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_typed_grid() {
        let report = scan(&Scale::quick());
        assert_eq!(report.rows.len(), 4, "2 row counts × 2 section counts");
        for r in 0..report.rows.len() {
            let rows = report.value(r, 0).unwrap();
            let throughput = report.value(r, 3).unwrap();
            assert!(rows > 0.0);
            assert!(throughput > 0.0, "throughput must be measured, not zero");
            assert_eq!(
                report.value(r, 4).unwrap(),
                throughput * report.value(r, 1).unwrap(),
                "probes/sec = rows/sec × sections"
            );
            // The dispatch column is appended last and stays textual so the
            // numeric gate columns keep their positions.
            assert_eq!(report.rows[r].last().unwrap(), Kernel::active().name());
            assert_eq!(report.value(r, 8), None, "kernel cell carries no value");
        }
        assert_eq!(report.columns.last().unwrap(), "kernel");
        let kernel_note = format!("probe kernel: {}", Kernel::active().name());
        assert!(
            report.notes.iter().any(|n| n == &kernel_note),
            "dispatch must be recorded in the notes: {:?}",
            report.notes
        );
    }

    #[test]
    fn scan_reports_are_deterministic_across_points_of_same_shape() {
        let a = measure(7, 500, 2, 4, 0.01);
        let b = measure(7, 500, 2, 4, 0.01);
        assert_eq!(a.reports, b.reports);
        assert_eq!(a.report_bytes, b.report_bytes);
        assert!(a.reports > 0, "the 1-in-{HIT_STRIDE} hit slice must report");
    }

    #[test]
    fn geomean_of_equal_points_is_the_point() {
        let p = measure(7, 200, 1, 4, 0.01);
        let mut q = p.clone();
        q.rows_per_sec = p.rows_per_sec;
        assert!(
            (geomean_rows_per_sec(&[p.clone(), q]) - p.rows_per_sec).abs() < p.rows_per_sec * 1e-9
        );
        assert_eq!(geomean_rows_per_sec(&[]), 0.0);
    }
}
