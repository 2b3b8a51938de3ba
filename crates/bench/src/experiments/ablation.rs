//! Ablations over the design choices DESIGN.md calls out.
//!
//! * Hash scheme: value-only (paper) vs position-tagged keys.
//! * Tolerance mode: exact accumulated bands vs constant bands.
//! * Similarity tolerance ε.
//!
//! Each variant runs the full pipeline on the same dataset and reports
//! R-precision, recall, filter size and communication.

use dipm_distsim::ExecutionMode;
use dipm_mobilenet::{ground_truth, Dataset};
use dipm_protocol::{evaluate, run_wbf, DiMatchingConfig, HashScheme, MethodDetails, PatternQuery};
use dipm_timeseries::ToleranceMode;

use crate::report::Report;
use crate::scale::Scale;

fn run_variant(
    dataset: &Dataset,
    queries: &[PatternQuery],
    config: &DiMatchingConfig,
) -> (f64, f64, usize, u64) {
    let mut relevant = std::collections::BTreeSet::new();
    for q in queries {
        relevant.extend(ground_truth::eps_similar_users(
            dataset,
            q.global(),
            config.eps,
        ));
    }
    let outcome = run_wbf(
        dataset,
        queries,
        config,
        ExecutionMode::Sequential,
        Some(relevant.len()),
    )
    .expect("pipeline runs");
    let score = evaluate(outcome.retrieved(), &relevant);
    let bits = match &outcome.details {
        MethodDetails::Wbf { build, .. } => build.bits,
        _ => 0,
    };
    (
        score.precision,
        score.recall,
        bits,
        outcome.cost.total_bytes(),
    )
}

/// Runs the ablation grid.
pub fn ablation(scale: &Scale) -> Report {
    let mut report = Report::new(
        "Ablation",
        "design-choice ablations on one dataset",
        "(extension beyond the paper) quantifies each design decision",
    );
    report.columns([
        "variant",
        "precision",
        "recall",
        "filter bits",
        "comm bytes",
    ]);

    let dataset = Dataset::city_slice(scale.users.min(1_000), scale.stations, scale.seed)
        .expect("valid preset");
    let queries: Vec<PatternQuery> = (0..10)
        .map(|i| {
            let user = dataset.users()[i * 13 % dataset.users().len()];
            PatternQuery::from_fragments(dataset.fragments(user.id).expect("traffic"))
                .expect("valid query")
        })
        .collect();

    let mut variants: Vec<(String, DiMatchingConfig)> = Vec::new();

    let base = DiMatchingConfig::default();
    variants.push(("value-only (paper)".into(), base.clone()));

    let mut tagged = base.clone();
    tagged.hash_scheme = HashScheme::PositionTagged;
    variants.push(("position-tagged".into(), tagged));

    let mut uniform = base.clone();
    uniform.tolerance = ToleranceMode::Uniform;
    variants.push(("uniform bands".into(), uniform));

    for eps in [0u64, 1, 4] {
        let mut v = base.clone();
        v.eps = eps;
        variants.push((format!("eps = {eps}"), v));
    }

    for (name, config) in variants {
        let (precision, recall, bits, comm) = run_variant(&dataset, &queries, &config);
        report.row([
            name,
            format!("{precision:.3}"),
            format!("{recall:.3}"),
            format!("{bits}"),
            format!("{comm}"),
        ]);
    }
    report.note("uniform bands shrink the filter but can miss ε-similar users (false negatives)");
    report.note("position tagging can only remove cross-position stitches; the paper's accumulation already removes most");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_grid_runs_and_orders_sanely() {
        let report = ablation(&Scale::quick());
        assert_eq!(report.rows.len(), 6);
        let find = |name: &str| -> Vec<String> {
            report
                .rows
                .iter()
                .find(|r| r[0].starts_with(name))
                .unwrap()
                .clone()
        };
        let base_recall: f64 = find("value-only")[2].parse().unwrap();
        assert!(
            base_recall > 0.9,
            "paper configuration recall {base_recall}"
        );
        // Uniform bands produce a smaller filter.
        let base_bits: usize = find("value-only")[3].parse().unwrap();
        let uniform_bits: usize = find("uniform")[3].parse().unwrap();
        assert!(uniform_bits <= base_bits);
    }
}
