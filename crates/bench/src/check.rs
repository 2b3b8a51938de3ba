//! The perf-trajectory regression gate.
//!
//! `BENCH_*.json` files are emitted by this crate's own [`crate::Report::to_json`],
//! so the gate does not need a JSON parser: it scans the known shape for a
//! named numeric column and compares geometric means. A >30 % drop against
//! the checked-in baseline fails CI's perf-smoke job.

use std::path::{Path, PathBuf};

/// Where `repro` writes one experiment's table: `BENCH_<name>.json` under
/// `out`, or `BENCH_<name>_quick.json` for a `--quick` run, so a smoke run
/// never overwrites a full-grid trajectory.
pub fn bench_json_path(out: &Path, name: &str, quick: bool) -> PathBuf {
    let suffix = if quick { "_quick" } else { "" };
    out.join(format!("BENCH_{name}{suffix}.json"))
}

/// Whether `a` and `b` name the same existing file, however each is
/// spelled (`./x` and `x` agree). A path that does not exist is never the
/// same file as anything.
pub fn same_file(a: &Path, b: &Path) -> bool {
    match (std::fs::canonicalize(a), std::fs::canonicalize(b)) {
        (Ok(a), Ok(b)) => a == b,
        _ => false,
    }
}

/// Extracts every numeric value stored under `column` in a `BENCH_*.json`
/// payload (our own [`crate::Report::to_json`] output — row objects keyed by
/// column header). Non-numeric cells under the key are skipped.
pub fn extract_column(json: &str, column: &str) -> Vec<f64> {
    let needle = format!("\"{column}\": ");
    let mut values = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find(&needle) {
        rest = &rest[at + needle.len()..];
        let end = rest.find([',', '}', '\n', ']']).unwrap_or(rest.len());
        if let Ok(v) = rest[..end].trim().parse::<f64>() {
            values.push(v);
        }
    }
    values
}

/// Extracts the remainder of the first note whose text starts with
/// `prefix` from a `BENCH_*.json` payload (notes are plain strings in the
/// report's `"notes"` array). Returns `None` when no note carries the
/// prefix — e.g. a baseline recorded before the note existed.
pub fn extract_note(json: &str, prefix: &str) -> Option<String> {
    let needle = format!("\"{prefix}");
    let at = json.find(&needle)?;
    let rest = &json[at + needle.len()..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// The geometric mean of strictly positive samples; `0.0` when empty.
pub fn geomean(values: &[f64]) -> f64 {
    let positive: Vec<f64> = values.iter().copied().filter(|v| *v > 0.0).collect();
    if positive.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = positive.iter().map(|v| v.ln()).sum();
    (log_sum / positive.len() as f64).exp()
}

/// Outcome of comparing a fresh measurement against a recorded baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionVerdict {
    /// Geometric mean of the baseline column.
    pub baseline: f64,
    /// Geometric mean of the fresh measurement.
    pub current: f64,
    /// `current / baseline` (0.0 when the baseline is empty).
    pub ratio: f64,
    /// Whether the fresh run clears `1 − tolerance` of the baseline.
    pub pass: bool,
}

/// Compares a fresh geomean against the baseline recorded in `baseline_json`
/// under `column`. `tolerance` is the allowed fractional regression (0.30
/// means "fail below 70 % of baseline"). An empty/missing baseline column
/// passes vacuously — there is nothing to regress against.
pub fn check_regression(
    baseline_json: &str,
    column: &str,
    current: f64,
    tolerance: f64,
) -> RegressionVerdict {
    let baseline = geomean(&extract_column(baseline_json, column));
    if baseline <= 0.0 {
        return RegressionVerdict {
            baseline,
            current,
            ratio: 0.0,
            pass: true,
        };
    }
    let ratio = current / baseline;
    RegressionVerdict {
        baseline,
        current,
        ratio,
        pass: ratio >= 1.0 - tolerance,
    }
}

/// The worst per-config regression: pairs `baseline` and `current` samples
/// positionally (both come from the same deterministic sweep grid, so row i
/// is the same configuration in both) and returns the `(row index, ratio)`
/// of the smallest `current / baseline`. `None` when either side is empty
/// or the lengths disagree (the grids are not comparable row-by-row).
pub fn worst_ratio(baseline: &[f64], current: &[f64]) -> Option<(usize, f64)> {
    if baseline.is_empty() || baseline.len() != current.len() {
        return None;
    }
    baseline
        .iter()
        .zip(current)
        .enumerate()
        .filter(|&(_, (&b, _))| b > 0.0)
        .map(|(i, (&b, &c))| (i, c / b))
        .min_by(|a, b| a.1.total_cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Cell, Report};

    #[test]
    fn quick_runs_write_their_own_file() {
        let out = Path::new("bench-out");
        assert_eq!(
            bench_json_path(out, "routing", false),
            Path::new("bench-out/BENCH_routing.json")
        );
        assert_eq!(
            bench_json_path(out, "routing", true),
            Path::new("bench-out/BENCH_routing_quick.json")
        );
    }

    #[test]
    fn same_file_sees_through_spelling() {
        // Tests run from the package root, where the manifest exists.
        let manifest = Path::new("Cargo.toml");
        assert!(same_file(manifest, Path::new("./Cargo.toml")));
        assert!(same_file(manifest, Path::new("src/../Cargo.toml")));
        assert!(!same_file(manifest, Path::new("src/lib.rs")));
        assert!(!same_file(
            Path::new("missing.json"),
            Path::new("./missing.json")
        ));
    }

    fn sample_json() -> String {
        let mut r = Report::new("Scan", "t", "c");
        r.columns(["rows", "rows_per_sec", "mode"])
            .row_cells([
                Cell::int(500),
                Cell::rendered(1000.0, "1000"),
                Cell::text("seq"),
            ])
            .row_cells([
                Cell::int(2000),
                Cell::rendered(4000.0, "4000"),
                Cell::text("seq"),
            ]);
        r.to_json()
    }

    #[test]
    fn extracts_named_column_only() {
        let json = sample_json();
        assert_eq!(extract_column(&json, "rows_per_sec"), vec![1000.0, 4000.0]);
        assert_eq!(extract_column(&json, "rows"), vec![500.0, 2000.0]);
        assert!(extract_column(&json, "mode").is_empty(), "strings skipped");
        assert!(extract_column(&json, "absent").is_empty());
    }

    #[test]
    fn extracts_note_remainder_by_prefix() {
        let mut r = Report::new("Scan", "t", "c");
        r.columns(["rows"]).row_cells([Cell::int(1)]);
        r.note("geomean rows/sec: 1000");
        r.note("probe kernel: avx2");
        let json = r.to_json();
        assert_eq!(
            extract_note(&json, "probe kernel: "),
            Some("avx2".to_string())
        );
        assert_eq!(extract_note(&json, "absent note: "), None);
        assert_eq!(extract_note("{}", "probe kernel: "), None);
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[1000.0, 4000.0]) - 2000.0).abs() < 1e-9);
        assert_eq!(geomean(&[0.0, -3.0]), 0.0, "non-positive samples ignored");
    }

    #[test]
    fn regression_gate_thresholds() {
        let json = sample_json(); // baseline geomean = 2000
        assert!(check_regression(&json, "rows_per_sec", 2000.0, 0.30).pass);
        assert!(check_regression(&json, "rows_per_sec", 1401.0, 0.30).pass);
        let fail = check_regression(&json, "rows_per_sec", 1000.0, 0.30);
        assert!(!fail.pass);
        assert!((fail.ratio - 0.5).abs() < 1e-9);
        assert!((fail.baseline - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn worst_ratio_finds_the_deepest_regression() {
        let baseline = [1000.0, 2000.0, 4000.0];
        let current = [900.0, 1000.0, 4400.0];
        assert_eq!(worst_ratio(&baseline, &current), Some((1, 0.5)));
        assert_eq!(worst_ratio(&[], &[]), None);
        assert_eq!(
            worst_ratio(&baseline, &current[..2]),
            None,
            "length mismatch"
        );
        assert_eq!(
            worst_ratio(&[0.0, 100.0], &[5.0, 50.0]),
            Some((1, 0.5)),
            "zero baselines are skipped"
        );
    }

    #[test]
    fn empty_baseline_passes_vacuously() {
        let verdict = check_regression("{}", "rows_per_sec", 123.0, 0.30);
        assert!(verdict.pass);
        assert_eq!(verdict.baseline, 0.0);
    }
}
