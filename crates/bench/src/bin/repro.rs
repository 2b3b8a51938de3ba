//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro [EXPERIMENT…] [--quick] [--users N] [--stations N] [--patterns A,B,C]
//!       [--seed S] [--out DIR] [--check BASELINE.json] [--tolerance F]
//!
//! experiments: fig1a fig1b fig3 convergence fig4 fig4a fig4b fig4c fig4d
//!              table2 fpp ablation batch latency streaming service scan
//!              routing all   (default: all)
//! ```
//!
//! The sweep experiments (`batch`, `latency`, `streaming`, `service`,
//! `scan`, `routing`) also write their tables as
//! `BENCH_<experiment>.json` into `--out` (default: the current directory)
//! — the checked-in perf trajectory every PR updates. A `--quick` run writes
//! `BENCH_<experiment>_quick.json` instead, so it never replaces a full
//! grid, and a run never writes over the baseline it is checking.
//! `scan`/`routing`/`service` with
//! `--check BASELINE.json` additionally compare the fresh sweep's
//! geometric-mean gate column against the baseline file and exit non-zero
//! on a regression past `--tolerance` (default 0.30 = fail below 70 % of
//! baseline); CI's perf-smoke job runs exactly that. The gate also walks
//! the grids row by row: any single row below `1 − 2×tolerance` of its
//! baseline fails the check even when the geomean still clears, so one
//! collapsed configuration cannot hide behind the others.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dipm_bench::{check, experiments, Report, Scale};

/// Default allowed fractional throughput regression before `--check` fails;
/// override with `--tolerance`.
const DEFAULT_CHECK_TOLERANCE: f64 = 0.30;

fn print(report: Report) {
    println!("{report}");
}

/// A `--check` baseline: its path and its contents, read once before any
/// experiment writes its own JSON.
struct Baseline {
    path: PathBuf,
    json: std::io::Result<String>,
}

/// Runs the `--check` regression gate for one sweep report: compares the
/// fresh geomean of `column` against the baseline and names the worst
/// per-row regression alongside. Returns `true` when the gate fails.
fn run_check(
    report: &Report,
    name: &str,
    column: &str,
    baseline: &Baseline,
    tolerance: f64,
) -> bool {
    let fresh_json = report.to_json();
    let fresh = check::extract_column(&fresh_json, column);
    let current = check::geomean(&fresh);
    let baseline_json = match &baseline.json {
        Ok(json) => json,
        Err(e) => {
            eprintln!(
                "error: could not read baseline {}: {e}",
                baseline.path.display()
            );
            return true;
        }
    };
    // Like-for-like only: when both sides record which probe kernel they
    // ran (the `probe kernel: …` note), a mismatch means the numbers are
    // not comparable — a forced-scalar CI arm must not "regress" against an
    // AVX2 baseline, nor may a vectorized run claim a win over scalar here.
    let baseline_kernel = check::extract_note(baseline_json, "probe kernel: ");
    let current_kernel = check::extract_note(&fresh_json, "probe kernel: ");
    if let (Some(base), Some(cur)) = (&baseline_kernel, &current_kernel) {
        if base != cur {
            eprintln!(
                "perf check [{name}]: baseline kernel `{base}` ≠ current kernel `{cur}`; \
                 cross-kernel comparison skipped (not like-for-like)"
            );
            return false;
        }
        eprintln!("perf check [{name}]: probe kernel `{cur}` on both sides");
    }
    let verdict = check::check_regression(baseline_json, column, current, tolerance);
    let worst = check::worst_ratio(&check::extract_column(baseline_json, column), &fresh);
    eprintln!(
        "perf check [{name}]: baseline {:.0} {column}, current {:.0} ({:.0}% of baseline, tolerance {:.0}%) → {}",
        verdict.baseline,
        verdict.current,
        verdict.ratio * 100.0,
        tolerance * 100.0,
        if verdict.pass { "PASS" } else { "FAIL" },
    );
    // A single collapsed grid row can hide behind a healthy geomean, so the
    // gate also fails when any one row drops past twice the tolerance.
    let row_floor = 1.0 - 2.0 * tolerance;
    let mut row_failed = false;
    match worst {
        Some((row, ratio)) => {
            row_failed = ratio < row_floor;
            eprintln!(
                "perf check [{name}]: worst grid row: #{row} at {:.0}% of its baseline \
                 (row floor {:.0}%) → {}",
                ratio * 100.0,
                row_floor * 100.0,
                if row_failed { "FAIL" } else { "PASS" },
            );
        }
        None => eprintln!(
            "perf check [{name}]: grids not row-comparable (baseline empty or shape changed); \
             geomean only"
        ),
    }
    !verdict.pass || row_failed
}

/// Writes one experiment's reports to `path` as a JSON array of report
/// objects, creating its directory if needed.
fn emit_json(path: &Path, reports: &[Report]) {
    let body: Vec<String> = reports.iter().map(Report::to_json).collect();
    let payload = format!("[\n{}]\n", body.join(","));
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, payload));
    match written {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro [fig1a|fig1b|fig3|convergence|fig4|fig4a|fig4b|fig4c|fig4d|table2|fpp|ablation|batch|latency|streaming|service|scan|routing|all]…"
    );
    eprintln!("       [--quick] [--users N] [--stations N] [--patterns A,B,C] [--seed S]");
    eprintln!("       [--out DIR] [--check BASELINE.json] [--tolerance F]");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut scale = Scale::default();
    let mut experiments_requested: Vec<String> = Vec::new();
    let mut out_dir = PathBuf::from(".");
    let mut quick = false;
    let mut check_baseline: Option<PathBuf> = None;
    let mut tolerance = DEFAULT_CHECK_TOLERANCE;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => {
                scale = Scale::quick();
                quick = true;
            }
            "--users" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => scale.users = v,
                None => return usage(),
            },
            "--stations" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => scale.stations = v,
                None => return usage(),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => scale.seed = v,
                None => return usage(),
            },
            "--patterns" => {
                let Some(list) = args.next() else {
                    return usage();
                };
                let parsed: Option<Vec<usize>> =
                    list.split(',').map(|v| v.trim().parse().ok()).collect();
                match parsed {
                    Some(counts) if !counts.is_empty() => scale.pattern_counts = counts,
                    _ => return usage(),
                }
            }
            "--out" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => return usage(),
            },
            "--check" => match args.next() {
                Some(path) => check_baseline = Some(PathBuf::from(path)),
                None => return usage(),
            },
            "--tolerance" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if (0.0..1.0).contains(&v) => tolerance = v,
                _ => return usage(),
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            name if !name.starts_with('-') => experiments_requested.push(name.to_string()),
            _ => return usage(),
        }
    }
    if experiments_requested.is_empty() {
        experiments_requested.push("all".to_string());
    }

    // Read the baseline before any experiment writes: `--out` may name the
    // very file being checked.
    let check_baseline = check_baseline.map(|path| Baseline {
        json: std::fs::read_to_string(&path),
        path,
    });
    let emit = |name: &str, reports: &[Report]| {
        let path = check::bench_json_path(&out_dir, name, quick);
        match &check_baseline {
            Some(baseline) if check::same_file(&path, &baseline.path) => eprintln!(
                "warning: not writing {}: it is the --check baseline; pass --out DIR",
                path.display()
            ),
            _ => emit_json(&path, reports),
        }
    };
    let mut check_failed = false;
    for name in &experiments_requested {
        match name.as_str() {
            "fig1a" => print(experiments::fig1a()),
            "fig1b" => print(experiments::fig1b(&scale)),
            "fig3" => print(experiments::fig3()),
            "convergence" => print(experiments::convergence(&scale)),
            "fig4" | "fig4a" | "fig4b" | "fig4c" | "fig4d" => {
                eprintln!(
                    "running figure-4 sweep: {} users, {} stations, patterns {:?}…",
                    scale.users, scale.stations, scale.pattern_counts
                );
                let points = experiments::sweep(&scale);
                match name.as_str() {
                    "fig4a" => print(experiments::fig4a(&points)),
                    "fig4b" => print(experiments::fig4b(&points)),
                    "fig4c" => print(experiments::fig4c(&points)),
                    "fig4d" => print(experiments::fig4d(&points)),
                    _ => {
                        print(experiments::fig4a(&points));
                        print(experiments::fig4b(&points));
                        print(experiments::fig4c(&points));
                        print(experiments::fig4d(&points));
                    }
                }
            }
            "table2" => print(experiments::table2(scale.seed)),
            "fpp" => print(experiments::fpp(scale.seed)),
            "ablation" => print(experiments::ablation(&scale)),
            "batch" => {
                let reports = [
                    experiments::batch_scaling(&scale),
                    experiments::shard_scaling(&scale),
                ];
                for r in &reports {
                    print(r.clone());
                }
                emit("batch", &reports);
            }
            "latency" => {
                let report = experiments::latency(&scale);
                print(report.clone());
                emit("latency", std::slice::from_ref(&report));
            }
            "streaming" => {
                let report = experiments::streaming(&scale);
                print(report.clone());
                emit("streaming", std::slice::from_ref(&report));
            }
            "service" => {
                eprintln!(
                    "running multi-tenant service crash-and-recover sweep: {} users, seed {}…",
                    scale.users, scale.seed
                );
                let report = experiments::service(&scale);
                print(report.clone());
                emit("service", std::slice::from_ref(&report));
                if let Some(baseline) = &check_baseline {
                    check_failed |=
                        run_check(&report, "service", "saved_bytes", baseline, tolerance);
                }
            }
            "scan" => {
                eprintln!("running scan microbench sweep (seed {})…", scale.seed);
                let report = experiments::scan(&scale);
                print(report.clone());
                emit("scan", std::slice::from_ref(&report));
                if let Some(baseline) = &check_baseline {
                    check_failed |= run_check(&report, "scan", "rows_per_sec", baseline, tolerance);
                }
            }
            "routing" => {
                eprintln!(
                    "running query-routing sweep: {} users, seed {}…",
                    scale.users, scale.seed
                );
                let report = experiments::routing(&scale);
                print(report.clone());
                emit("routing", std::slice::from_ref(&report));
                if let Some(baseline) = &check_baseline {
                    check_failed |=
                        run_check(&report, "routing", "saved_bytes", baseline, tolerance);
                }
            }
            "all" => {
                print(experiments::fig1a());
                print(experiments::fig1b(&scale));
                print(experiments::fig3());
                print(experiments::convergence(&scale));
                eprintln!(
                    "running figure-4 sweep: {} users, {} stations, patterns {:?}…",
                    scale.users, scale.stations, scale.pattern_counts
                );
                let points = experiments::sweep(&scale);
                print(experiments::fig4a(&points));
                print(experiments::fig4b(&points));
                print(experiments::fig4c(&points));
                print(experiments::fig4d(&points));
                print(experiments::table2(scale.seed));
                print(experiments::fpp(scale.seed));
                print(experiments::ablation(&scale));
                let batch = [
                    experiments::batch_scaling(&scale),
                    experiments::shard_scaling(&scale),
                ];
                for r in &batch {
                    print(r.clone());
                }
                emit("batch", &batch);
                let latency = experiments::latency(&scale);
                print(latency.clone());
                emit("latency", std::slice::from_ref(&latency));
                let streaming = experiments::streaming(&scale);
                print(streaming.clone());
                emit("streaming", std::slice::from_ref(&streaming));
                let service = experiments::service(&scale);
                print(service.clone());
                emit("service", std::slice::from_ref(&service));
                let routing = experiments::routing(&scale);
                print(routing.clone());
                emit("routing", std::slice::from_ref(&routing));
            }
            _ => return usage(),
        }
    }
    if check_failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
