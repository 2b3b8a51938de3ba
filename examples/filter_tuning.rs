//! Tuning the filter through the real protocol: size the weighted Bloom
//! filter with [`FilterParams`], then sweep the target false-positive rate
//! through the batch [`run_pipeline`] API and watch what a looser or tighter
//! filter costs end to end — broadcast bytes out, candidate reports back,
//! precision after the weight-consistency check (Section IV-B's stitched
//! rejection, measured in the deployed pipeline rather than on a bare
//! filter).
//!
//! Run with: `cargo run --example filter_tuning`
//! (set `DIPM_MODE=seq|async` to switch runtimes)

use dipm::mobilenet::ground_truth;
use dipm::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Geometry: what does a 1% target cost? -------------------------
    println!("filter geometry for growing key counts at 1% target fpp:");
    println!("{:>10} {:>12} {:>4} {:>12}", "keys", "bits", "k", "KB");
    for n in [1_000usize, 10_000, 100_000] {
        let params = FilterParams::optimal(n, 0.01)?;
        println!(
            "{:>10} {:>12} {:>4} {:>12.1}",
            n,
            params.bits(),
            params.hashes(),
            params.bits() as f64 / 8.0 / 1024.0
        );
    }

    // --- 2. The same dial, end to end -------------------------------------
    // A small city slice and a two-query batch; every pipeline run below
    // broadcasts once, scans each station once, reports once.
    let dataset = TraceConfig::new(300, 10)
        .days(1)
        .intervals_per_day(8)
        .seed(0xBEEF)
        .generate()?;
    let queries: Vec<PatternQuery> = [0usize, 7]
        .iter()
        .map(|&i| {
            let probe = dataset.users()[i];
            PatternQuery::from_fragments(dataset.fragments(probe.id).unwrap())
        })
        .collect::<Result<_, _>>()?;
    let mode = ExecutionMode::from_env(ExecutionMode::Async { workers: 1 })?;

    println!("\nsweeping target fpp through the deployed pipeline (batch of 2):");
    println!(
        "{:>8} {:>14} {:>14} {:>12} {:>12}",
        "fpp", "broadcast KB", "bf candidates", "wbf cands", "wbf precision"
    );
    for target_fpp in [0.1, 0.01, 0.001] {
        let config = DiMatchingConfig {
            target_fpp,
            ..DiMatchingConfig::default()
        };
        let options = PipelineOptions {
            mode,
            shards: Shards::new(2),
            ..PipelineOptions::default()
        };
        let bf = run_pipeline::<Bloom>(&dataset, &queries, &config, &options)?;
        let wbf = run_pipeline::<Wbf>(&dataset, &queries, &config, &options)?;

        // Mean precision over the batch, judged against ε-ground truth.
        let mut precision = 0.0;
        for (query, verdict) in queries.iter().zip(&wbf.queries) {
            let relevant = ground_truth::eps_similar_users(&dataset, query.global(), config.eps);
            precision += evaluate(verdict.retrieved(), &relevant).precision;
        }
        precision /= queries.len() as f64;

        let candidates =
            |batch: &BatchOutcome| -> usize { batch.queries.iter().map(|v| v.ranked.len()).sum() };
        println!(
            "{:>8} {:>14} {:>14} {:>12} {:>12.3}",
            target_fpp,
            wbf.cost.query_bytes / 1024,
            candidates(&bf),
            candidates(&wbf),
            precision,
        );
    }

    println!("\nlooser filters shrink the broadcast but admit more candidates;");
    println!("the weight-consistency layer then pays the cleanup — membership-only");
    println!("BF reports every stitched sequence the filter admits, WBF rejects");
    println!("the ones whose weights cannot sum to a whole user.");
    Ok(())
}

// Compiled under the libtest harness by `cargo test` (the facade manifest
// sets `test = true` for every example), so the example doubles as a
// smoke test of exactly what the docs tell users to run.
#[cfg(test)]
mod tests {
    #[test]
    fn example_runs() {
        super::main().expect("example completes");
    }
}
