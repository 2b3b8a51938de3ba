//! Continuous monitoring (Section III-A's running example) on the **real
//! incremental path**: a [`StreamingSession`] keeps a standing watch list
//! alive across days. The filter is built and broadcast **once**; every
//! following day ships only a delta — near-empty for pure traffic churn,
//! and just the changed counter positions when the watch list itself
//! changes. Compare each day's `delta KB` against `rebuild KB` (what the
//! old build-once architecture would re-broadcast daily) to see the
//! economics: delta wins as long as the day's churn is a small fraction of
//! the standing set.
//!
//! Run with: `cargo run --example streaming_monitor`
//! (set `DIPM_MODE=seq|async|async:N` to switch runtimes)

use std::collections::BTreeSet;

use dipm::mobilenet::ground_truth;
use dipm::prelude::*;
use dipm::protocol::{EpochBroadcast, StreamingSession};

fn day_snapshot(day: u64) -> Result<Dataset, Box<dyn std::error::Error>> {
    // Each day the stations' stores hold that day's fresh traffic (same
    // population and routines, new jitter — the paper's "dynamic evolving
    // data" characteristic).
    Ok(TraceConfig::new(400, 12)
        .days(1)
        .intervals_per_day(8)
        .seed(100 + day)
        .generate()?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Day 0 defines the standing watch list: the decompositions of five
    // users across distinct routine categories (same-category routines are
    // so alike that their banded keys fully overlap — a mixed list keeps
    // each watch-list edit an honest delta).
    let day0 = day_snapshot(0)?;
    let suspects: Vec<UserSpec> = day0.users()[..5].to_vec();
    let query_for = |user: &UserSpec| -> Result<PatternQuery, Box<dyn std::error::Error>> {
        Ok(PatternQuery::from_fragments(
            day0.fragments(user.id).unwrap(),
        )?)
    };
    let initial: Vec<PatternQuery> = suspects[..4]
        .iter()
        .map(query_for)
        .collect::<Result<_, _>>()?;
    println!(
        "watching {} patterns across categories (e.g. {} the {})\n",
        initial.len(),
        suspects[0].id,
        suspects[0].category,
    );

    let config = DiMatchingConfig {
        // Pin geometry with headroom: the watch list grows mid-stream, and
        // a streaming filter cannot resize without a rebuild.
        fixed_geometry: Some(FilterParams::new(1 << 17, 5)?),
        ..DiMatchingConfig::default()
    };
    // Async by default: thousands of monitored stations would not get one OS
    // thread each. A 25 ms metro round trip at gigabit-ish throughput,
    // 1 µs-tick flavour; every run models the same deadlines, and the
    // virtual clock keeps ticking across days.
    let mode = ExecutionMode::from_env(ExecutionMode::Async { workers: 4 })?;
    let options = PipelineOptions {
        mode,
        shards: Shards::new(2),
        latency: LatencyModel {
            base_ticks: 25_000,
            ticks_per_byte: 8,
            ticks_per_row: 40,
            jitter_ticks: 5_000,
            seed: 100,
        },
        ..PipelineOptions::default()
    };
    let mut session = StreamingSession::new(&initial, config, options)?;
    let mut watched: Vec<PatternQuery> = initial;
    println!(
        "{:<6} {:<10} {:>8} {:>10} {:>10} {:>9} {:>10} {:>12}",
        "day", "broadcast", "matches", "precision", "recall", "delta KB", "rebuild KB", "makespan"
    );

    let mut yesterday: BTreeSet<UserId> = BTreeSet::new();
    let mut extra_watch = None;
    for day in 0..4u64 {
        // Day 2 extends the watch list by one suspect of a new category;
        // day 3 retires the addition again. Both edits travel as deltas,
        // not rebuilds — roughly a fifth of the standing set each.
        if day == 2 {
            let extra = query_for(&suspects[4])?;
            extra_watch = Some(session.insert_query(&extra)?);
            watched.push(extra);
        }
        if day == 3 {
            session.remove_query(extra_watch.take().expect("inserted on day 2"))?;
            watched.pop();
        }

        // Day 0's snapshot already exists (it defined the watch list).
        let fresh;
        let snapshot: &Dataset = if day == 0 {
            &day0
        } else {
            fresh = day_snapshot(day)?;
            &fresh
        };
        let eps = DiMatchingConfig::default().eps;
        let mut relevant: BTreeSet<UserId> = BTreeSet::new();
        for query in &watched {
            relevant.extend(ground_truth::eps_similar_users(
                snapshot,
                query.global(),
                eps,
            ));
        }
        let epoch = session.run_epoch(snapshot)?;
        let makespan = match &epoch.latency {
            // ~1 µs ticks under the model above ⇒ milliseconds for print.
            Some(latency) => format!("{:.1} ms", latency.makespan_ticks as f64 / 1000.0),
            None => "(unmodeled)".to_string(),
        };
        let broadcast = match epoch.broadcast {
            EpochBroadcast::Full => "full".to_string(),
            EpochBroadcast::Delta { entries } => format!("Δ×{entries}"),
        };
        let outcome = &epoch.outcome;
        let score = evaluate(outcome.retrieved(), &relevant);

        let today: BTreeSet<UserId> = outcome.ranked.iter().copied().collect();
        let churn_in = today.difference(&yesterday).count();
        let churn_out = yesterday.difference(&today).count();

        println!(
            "{:<6} {:<10} {:>8} {:>10.3} {:>10.3} {:>9.1} {:>10} {:>12}",
            day,
            broadcast,
            outcome.ranked.len(),
            score.precision,
            score.recall,
            epoch.broadcast_bytes as f64 / 1024.0,
            epoch.rebuild_bytes / 1024,
            makespan,
        );
        if day > 0 {
            println!("       audience churn: +{churn_in} / -{churn_out}");
        }
        if matches!(epoch.broadcast, EpochBroadcast::Delta { .. }) {
            assert!(
                epoch.broadcast_bytes < epoch.rebuild_bytes,
                "a small watch-list edit must beat a rebuild"
            );
        }
        yesterday = today;
    }

    println!("\nthe filter is broadcast once; every later day ships only the changed");
    println!("counter positions — pure traffic churn is a near-empty delta, and even");
    println!("a one-in-five watch-list edit undercuts the daily rebuild the");
    println!("build-once architecture paid.");
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
