//! Command line of the end-to-end benchmark.
//!
//! ```text
//! dipm-benchmark [--workload NAME] [--seed S] [--seconds S] [--trace [0|1]] [--smoke] [--out DIR]
//! dipm-benchmark compare BEFORE AFTER [--spec BENCHMARK.json]
//! dipm-benchmark summarize [--commit SHA] RESULTS...
//! ```
//!
//! A run prints its metrics one per line, then the result as one JSON line.
//! Without `--workload` the runner starts itself once per workload, so each
//! workload has a process (and a peak-RSS figure) of its own.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use dipm_benchmark::compare::{self, RunSet, Verdict};
use dipm_benchmark::workloads::{Scale, Workload};
use dipm_benchmark::{run, Settings};

/// Run length when `--seconds` is not given; `BENCHMARK.json`'s
/// `run_seconds` passes the same value explicitly.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: dipm-benchmark [--workload NAME] [--seed S] [--seconds S] \
[--trace [0|1]] [--smoke] [--out DIR]
       dipm-benchmark compare BEFORE AFTER [--spec BENCHMARK.json]
       dipm-benchmark summarize [--commit SHA] RESULTS...
workloads: batch-scan single-async routed-selective standing-churn";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare_cmd(&args[1..]),
        Some("summarize") => summarize_cmd(&args[1..]),
        _ => run_cmd(&args),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn default_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name)
}

fn run_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut workload = None;
    let mut seed = 7u64;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut out = default_dir("out");
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value")).cloned();
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be an integer")?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds must be a number")?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err("--seconds must lie in 0..=3600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(value("--out")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let settings = Settings {
        seed,
        seconds: seconds.unwrap_or(if smoke { 0.0 } else { DEFAULT_SECONDS }),
        trace,
        scale: if smoke { Scale::smoke() } else { Scale::full() },
        out,
    };

    let Some(workload) = workload else {
        return run_each(args);
    };
    let report = run(workload, &settings)?;
    println!(
        "workload {} seed {} ({}, kernel {}, {} cores)",
        workload.name(),
        settings.seed,
        if settings.trace {
            "trace"
        } else {
            "end-to-end"
        },
        dipm_core::Kernel::active().name(),
        dipm_benchmark::nproc()
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for m in &report.metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    std::fs::create_dir_all(&settings.out)
        .map_err(|e| format!("cannot create {}: {e}", settings.out.display()))?;
    let results = settings.out.join("results.jsonl");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&results)
        .map_err(|e| format!("cannot open {}: {e}", results.display()))?;
    writeln!(file, "{}", report.record_json(&settings).render())
        .map_err(|e| format!("cannot write {}: {e}", results.display()))?;
    println!("{}", report.result_json().render());
    Ok(ExitCode::SUCCESS)
}

/// Runs every workload in a child process of its own, one after another.
fn run_each(args: &[String]) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut code = ExitCode::SUCCESS;
    for workload in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(args)
            .args(["--workload", workload.name()])
            .status()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        if !status.success() {
            eprintln!("workload {} failed: {status}", workload.name());
            code = ExitCode::FAILURE;
        }
    }
    Ok(code)
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut spec_path = default_dir("../BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" => spec_path = PathBuf::from(it.next().ok_or("--spec needs a path")?),
            file => files.push(file),
        }
    }
    let [before, after] = files[..] else {
        return Err("compare takes two result files".into());
    };
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let specs = compare::load_spec(&read(&spec_path.to_string_lossy())?)?;
    let rows = compare::compare(
        &specs,
        &RunSet::parse(&read(before)?)?,
        &RunSet::parse(&read(after)?)?,
    )?;
    println!(
        "{:<18} {:<24} {:>14} {:>14} verdict",
        "workload", "metric", "before", "after"
    );
    for row in &rows {
        println!(
            "{:<18} {:<24} {:>14.6} {:>14.6} {}",
            row.workload,
            row.metric,
            row.before,
            row.after,
            row.verdict.label()
        );
    }
    Ok(if rows.iter().any(|r| r.verdict == Verdict::Worse) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn summarize_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut commit = String::from("unknown");
    let mut text = String::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--commit" => commit = it.next().ok_or("--commit needs a value")?.clone(),
            path => {
                text += &std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
            }
        }
    }
    let set = RunSet::parse(&text)?;
    if set.values.is_empty() {
        return Err("no end-to-end runs to summarize".into());
    }
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string());
    println!("{}", compare::summarize(&set, &commit, &rustc).render());
    Ok(ExitCode::SUCCESS)
}
