//! The paper's motivating application (Section I): a mobile operator wants
//! to promote a call-package service. Given a handful of *seed customers*
//! who already bought the package, find every user in the network with a
//! similar communication pattern — one batched pipeline run, one broadcast,
//! one scan pass per station, and a per-seed ranking for each campaign
//! segment.
//!
//! Run with: `cargo run --example call_package_campaign`

use std::collections::BTreeSet;

use dipm::mobilenet::ground_truth;
use dipm::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = Dataset::city_slice(900, 20, 7)?;

    // Marketing hands us five seed customers across two target segments.
    let seeds: Vec<UserSpec> = dataset
        .users()
        .iter()
        .filter(|u| matches!(u.category, Category::OfficeWorker | Category::Salesperson))
        .take(5)
        .copied()
        .collect();
    println!("campaign seeds:");
    for seed in &seeds {
        println!("  {} ({})", seed.id, seed.category);
    }

    // All seed decompositions travel in ONE batch: the broadcast carries a
    // per-seed filter section, every station scans its (sharded) store once
    // for the whole batch, and the answer comes back per seed.
    let queries: Vec<PatternQuery> = seeds
        .iter()
        .map(|s| PatternQuery::from_fragments(dataset.fragments(s.id).unwrap()))
        .collect::<Result<_, _>>()?;

    // A campaign casts a slightly wider net than the default ε = 2.
    let config = DiMatchingConfig {
        eps: 3,
        ..Default::default()
    };

    // Ground truth: anyone ε-similar to at least one seed's global pattern.
    let mut relevant = BTreeSet::new();
    for q in &queries {
        relevant.extend(ground_truth::eps_similar_users(
            &dataset,
            q.global(),
            config.eps,
        ));
    }

    // The deployment shape: four shards per station on the modeled network.
    let options = PipelineOptions {
        mode: ExecutionMode::Async { workers: 1 },
        shards: Shards::new(4),
        top_k: Some(relevant.len()),
        ..PipelineOptions::default()
    };
    let batch = run_pipeline::<Wbf>(&dataset, &queries, &config, &options)?;

    println!("\nper-seed audiences (one scan pass per station for all of them):");
    for (seed, verdict) in seeds.iter().zip(&batch.queries) {
        println!("  seed {}: {} matches", seed.id, verdict.ranked.len());
    }

    // The campaign view: everyone matching any seed, best score first.
    let outcome = batch.into_merged(Some(relevant.len()));
    let score = evaluate(outcome.retrieved(), &relevant);

    println!(
        "\naudience found: {} users (of {} truly similar)",
        outcome.ranked.len(),
        relevant.len()
    );
    println!(
        "precision {:.3}, recall {:.3}, f1 {:.3}",
        score.precision,
        score.recall,
        score.f1()
    );

    // Segment breakdown of the retrieved audience.
    for category in Category::ALL {
        let hits = outcome
            .ranked
            .iter()
            .filter(|u| dataset.category_of(**u) == Some(category))
            .count();
        if hits > 0 {
            println!("  {category}: {hits} users");
        }
    }

    println!(
        "\ncost: {} KB moved, {} KB stored, {} messages, {} scan passes for {} seeds over {} stations",
        outcome.cost.total_bytes() / 1024,
        outcome.cost.storage_bytes / 1024,
        outcome.cost.messages,
        outcome.cost.scan_passes,
        seeds.len(),
        dataset.stations().len(),
    );
    assert_eq!(outcome.cost.scan_passes as usize, dataset.stations().len());
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
