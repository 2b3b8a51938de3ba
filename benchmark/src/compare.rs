//! Comparing two sets of runs under `BENCHMARK.json`'s directions and
//! bounds, and summarizing a set into a baseline file.
//!
//! A run set is either a `results.jsonl` file (one record per run, as the
//! runner appends them) or a summary written by `summarize`, which keeps
//! each metric's values alongside its median and quartiles.

use std::collections::{BTreeMap, BTreeSet};

use crate::json::Json;
use crate::stats::{median, quartiles};

/// Fewest runs per workload a set must hold to be compared.
pub const MIN_RUNS: usize = 5;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Share of the first set's median by which the second may be worse.
    pub bound: f64,
}

/// Reads the end-to-end metrics of a `BENCHMARK.json` document.
///
/// # Errors
///
/// Returns a message when the document lacks a well-formed `end_to_end`.
pub fn load_spec(text: &str) -> Result<Vec<MetricSpec>, String> {
    let doc = Json::parse(text)?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let field = |key: &str| m.get(key).ok_or(format!("end_to_end entry lacks {key}"));
            let better = field("better")?.as_str().ok_or("better is not a string")?;
            Ok(MetricSpec {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .into(),
                higher_is_better: match better {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("better must be higher or lower, not {other}")),
                },
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// The end-to-end values of one set of runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSet {
    /// Probe kernels the runs used.
    pub kernels: BTreeSet<String>,
    /// Seeds the runs used.
    pub seeds: BTreeSet<u64>,
    /// Core counts the runs saw.
    pub nproc: BTreeSet<u64>,
    /// `workload → metric → values`, one value per run.
    pub values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// `metric → unit`.
    pub units: BTreeMap<String, String>,
}

impl RunSet {
    /// Parses a `results.jsonl` file or a summary. Trace runs are skipped.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed input.
    pub fn parse(text: &str) -> Result<RunSet, String> {
        let trimmed = text.trim_start();
        if let Ok(doc) = Json::parse(trimmed) {
            if doc.get("workloads").is_some() {
                return RunSet::from_summary(&doc);
            }
        }
        let mut set = RunSet::default();
        for (n, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let record = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
            if record.get("trace") == Some(&Json::Bool(true)) {
                continue;
            }
            let text_field = |key: &str| {
                record
                    .get(key)
                    .and_then(Json::as_str)
                    .ok_or(format!("line {}: no {key}", n + 1))
            };
            let num_field = |key: &str| {
                record
                    .get(key)
                    .and_then(Json::as_f64)
                    .ok_or(format!("line {}: no {key}", n + 1))
            };
            let workload = text_field("workload")?.to_string();
            set.kernels.insert(text_field("kernel")?.to_string());
            set.seeds.insert(num_field("seed")? as u64);
            set.nproc.insert(num_field("nproc")? as u64);
            let metrics = record
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or(format!("line {}: no metrics", n + 1))?;
            for (name, entry) in metrics {
                let value = entry
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or(format!("line {}: {name} has no value", n + 1))?;
                let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
                set.units.insert(name.clone(), unit.to_string());
                set.values
                    .entry(workload.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
        Ok(set)
    }

    fn from_summary(doc: &Json) -> Result<RunSet, String> {
        let mut set = RunSet::default();
        let header = |key: &str| doc.get(key).ok_or(format!("summary has no {key}"));
        set.kernels
            .insert(header("kernel")?.as_str().ok_or("kernel")?.to_string());
        for seed in header("seeds")?.as_arr().ok_or("seeds")? {
            set.seeds.insert(seed.as_f64().ok_or("seed")? as u64);
        }
        set.nproc
            .insert(header("nproc")?.as_f64().ok_or("nproc")? as u64);
        for (workload, metrics) in header("workloads")?.as_obj().ok_or("workloads")? {
            for (name, entry) in metrics.as_obj().ok_or("metrics")? {
                let values = entry
                    .get("values")
                    .and_then(Json::as_arr)
                    .ok_or(format!("{workload}/{name} has no values"))?
                    .iter()
                    .map(|v| v.as_f64().ok_or("value is not a number"))
                    .collect::<Result<Vec<f64>, _>>()?;
                let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
                set.units.insert(name.clone(), unit.to_string());
                set.values
                    .entry(workload.clone())
                    .or_default()
                    .insert(name.clone(), values);
            }
        }
        Ok(set)
    }
}

/// The outcome of comparing one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The second set's median is better by more than the bound, or the
    /// spread is wide but every second run beats every first run.
    Better,
    /// The second set's median is worse by more than the bound.
    Worse,
    /// The medians agree within the bound.
    Unchanged,
    /// A set's spread (quartile distance over median) exceeds the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label for the comparison table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The spread of `values`: quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let mid = median(values);
    if q3 == q1 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

/// Compares `after` against `before` for one metric.
pub fn verdict(spec: &MetricSpec, before: &[f64], after: &[f64]) -> Verdict {
    // Positive `worse` means `after` moved in the bad direction.
    let sign = if spec.higher_is_better { -1.0 } else { 1.0 };
    let (m0, m1) = (median(before), median(after));
    let worse = if m0 == m1 {
        0.0
    } else {
        sign * (m1 - m0) / m0.abs()
    };
    if spread(before).max(spread(after)) > spec.bound {
        let beats = |a: f64, b: f64| sign * (a - b) < 0.0;
        let all_better = after.iter().all(|&a| before.iter().all(|&b| beats(a, b)));
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse > spec.bound {
        Verdict::Worse
    } else if worse < -spec.bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// One line of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median of the first set.
    pub before: f64,
    /// Median of the second set.
    pub after: f64,
    /// The verdict under the metric's bound.
    pub verdict: Verdict,
}

/// Compares every workload × end-to-end metric present in both sets.
///
/// # Errors
///
/// Refuses sets made with different probe kernels, and workloads with fewer
/// than [`MIN_RUNS`] runs in either set.
pub fn compare(specs: &[MetricSpec], before: &RunSet, after: &RunSet) -> Result<Vec<Row>, String> {
    if before.kernels != after.kernels {
        return Err(format!(
            "refusing to compare runs made with different probe kernels: {:?} vs {:?}",
            before.kernels, after.kernels
        ));
    }
    let mut rows = Vec::new();
    for (workload, metrics) in &before.values {
        let Some(other) = after.values.get(workload) else {
            continue;
        };
        for spec in specs {
            let (Some(a), Some(b)) = (metrics.get(&spec.name), other.get(&spec.name)) else {
                continue;
            };
            if a.len() < MIN_RUNS || b.len() < MIN_RUNS {
                return Err(format!(
                    "{workload}/{}: {} and {} runs; at least {MIN_RUNS} each are needed",
                    spec.name,
                    a.len(),
                    b.len()
                ));
            }
            rows.push(Row {
                workload: workload.clone(),
                metric: spec.name.clone(),
                before: median(a),
                after: median(b),
                verdict: verdict(spec, a, b),
            });
        }
    }
    if rows.is_empty() {
        return Err("the two sets share no workload × metric".into());
    }
    Ok(rows)
}

/// A baseline summary of `set`: a header, then per workload and metric the
/// median, quartiles and every value.
pub fn summarize(set: &RunSet, commit: &str, rustc: &str) -> Json {
    let one = |values: &BTreeSet<String>| values.iter().cloned().collect::<Vec<_>>().join(",");
    let runs = set
        .values
        .values()
        .flat_map(|m| m.values().map(Vec::len))
        .max()
        .unwrap_or(0);
    let workloads = set
        .values
        .iter()
        .map(|(workload, metrics)| {
            let metrics = metrics
                .iter()
                .map(|(name, values)| {
                    let (q1, q3) = if values.len() >= 2 {
                        quartiles(values)
                    } else {
                        (values[0], values[0])
                    };
                    let entry = Json::Obj(vec![
                        (
                            "unit".into(),
                            Json::Str(set.units.get(name).cloned().unwrap_or_default()),
                        ),
                        ("median".into(), Json::Num(median(values))),
                        ("q1".into(), Json::Num(q1)),
                        ("q3".into(), Json::Num(q3)),
                        (
                            "values".into(),
                            Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                        ),
                    ]);
                    (name.clone(), entry)
                })
                .collect();
            (workload.clone(), Json::Obj(metrics))
        })
        .collect();
    Json::Obj(vec![
        ("commit".into(), Json::Str(commit.into())),
        (
            "nproc".into(),
            Json::Num(set.nproc.iter().next().copied().unwrap_or(0) as f64),
        ),
        ("kernel".into(), Json::Str(one(&set.kernels))),
        ("rustc".into(), Json::Str(rustc.into())),
        (
            "seeds".into(),
            Json::Arr(set.seeds.iter().map(|&s| Json::Num(s as f64)).collect()),
        ),
        ("runs".into(), Json::Num(runs as f64)),
        ("workloads".into(), Json::Obj(workloads)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            higher_is_better: higher,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        let same: Vec<f64> = base.iter().map(|v| v * 1.02).collect();
        assert_eq!(verdict(&spec(false, 0.1), &base, &slower), Verdict::Worse);
        assert_eq!(verdict(&spec(true, 0.1), &base, &slower), Verdict::Better);
        assert_eq!(verdict(&spec(false, 0.1), &base, &same), Verdict::Unchanged);
        let noisy = [50.0, 150.0, 100.0, 60.0, 140.0];
        assert_eq!(
            verdict(&spec(false, 0.1), &base, &noisy),
            Verdict::Unresolved
        );
        let fast_but_noisy = [10.0, 30.0, 20.0, 12.0, 28.0];
        assert_eq!(
            verdict(&spec(false, 0.1), &base, &fast_but_noisy),
            Verdict::Better
        );
    }

    fn record(kernel: &str, value: f64) -> String {
        format!(
            "{{\"workload\": \"w\", \"seed\": 7, \"seconds\": 1, \"trace\": false, \
             \"kernel\": \"{kernel}\", \"nproc\": 2, \"correct\": true, \"attempted\": 1, \
             \"failed\": 0, \"metrics\": {{\"m\": {{\"value\": {value}, \"unit\": \"ms\"}}}}}}\n"
        )
    }

    #[test]
    fn refuses_mixed_kernels_and_thin_sets() {
        let five = |kernel: &str| {
            RunSet::parse(
                &(0..5)
                    .map(|i| record(kernel, 10.0 + i as f64))
                    .collect::<String>(),
            )
            .unwrap()
        };
        let specs = [spec(false, 0.1)];
        assert!(compare(&specs, &five("avx2"), &five("scalar")).is_err());
        let rows = compare(&specs, &five("avx2"), &five("avx2")).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Unresolved, "spread 0.29 > 0.1");
        let four =
            RunSet::parse(&(0..4).map(|_| record("avx2", 10.0)).collect::<String>()).unwrap();
        assert!(compare(&specs, &four, &five("avx2")).is_err());
    }

    #[test]
    fn summaries_parse_back_to_the_same_values() {
        let set =
            RunSet::parse(&(0..5).map(|i| record("avx2", i as f64)).collect::<String>()).unwrap();
        let summary = summarize(&set, "abc", "rustc 1.0");
        let back = RunSet::parse(&summary.render()).unwrap();
        assert_eq!(back.values, set.values);
        assert_eq!(back.kernels, set.kernels);
    }

    #[test]
    fn reads_the_checked_in_spec() {
        let text = include_str!("../../BENCHMARK.json");
        let specs = load_spec(text).unwrap();
        assert!(specs
            .iter()
            .any(|s| s.name == "setup_s" && !s.higher_is_better));
        assert!(specs.iter().all(|s| s.bound > 0.0 && s.bound <= 0.25));
    }
}
