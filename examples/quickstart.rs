//! Quickstart: find the customers whose communication pattern matches a
//! preferred customer's, without shipping any raw data to the data center.
//!
//! Run with: `cargo run --example quickstart`

use dipm::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A synthetic city slice: 3000 phones, 16 base stations, two days of
    // traffic at 3-hour resolution. Stands in for the paper's 3.6M-user CDR
    // corpus; same statistical structure, laptop scale.
    let dataset = Dataset::city_slice(3000, 16, 42)?;
    println!(
        "city: {} users, {} stations, {} intervals",
        dataset.users().len(),
        dataset.stations().len(),
        dataset.intervals()
    );

    // The service provider picks a preferred customer and asks: who else
    // communicates like this person? The query is the customer's pattern
    // *decomposition* — their per-station local fragments.
    let preferred = dataset.users()[0];
    let fragments = dataset
        .fragments(preferred.id)
        .expect("every user has traffic");
    println!(
        "query: {} ({}), traffic split over {} stations",
        preferred.id,
        preferred.category,
        fragments.len()
    );
    let query = PatternQuery::from_fragments(fragments)?;

    // Run DI-matching: the query is encoded into one weighted Bloom filter,
    // broadcast to all stations (each on its own modeled timeline, the
    // paper's one-thread-per-station setup), and only (ID, weight) pairs
    // come back.
    let config = DiMatchingConfig::default(); // b = 12, ε = 2, 1% target fpp
    let mode = ExecutionMode::Async { workers: 1 };
    let outcome = run_wbf(
        &dataset,
        std::slice::from_ref(&query),
        &config,
        mode,
        Some(10),
    )?;

    println!("\ntop-{} matches:", outcome.ranked.len());
    for (rank, user) in outcome.ranked.iter().enumerate() {
        let category = dataset.category_of(*user).expect("known user");
        println!("  {:>2}. {user}  ({category})", rank + 1);
    }

    // How much did it cost? Compare against shipping everything.
    let naive = run_naive(
        &dataset,
        std::slice::from_ref(&query),
        config.eps,
        mode,
        Some(10),
    )?;
    println!(
        "\ncommunication: wbf {} bytes vs naive {} bytes ({:.1}% of naive)",
        outcome.cost.total_bytes(),
        naive.cost.total_bytes(),
        100.0 * outcome.cost.total_bytes() as f64 / naive.cost.total_bytes() as f64,
    );

    // And how accurate? Score against the simulator's ground truth.
    let relevant =
        dipm::mobilenet::ground_truth::eps_similar_users(&dataset, query.global(), config.eps);
    let score = evaluate(outcome.retrieved(), &relevant);
    println!(
        "precision {:.2}, recall-at-10 {:.2} (relevant set: {} users)",
        score.precision,
        score.recall,
        relevant.len()
    );
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
