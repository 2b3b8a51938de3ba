//! Multi-tenant standing queries as a **service**: several departments
//! share one [`Service`] — one station deployment, one modeled timeline —
//! while each keeps its own filter, its own meters and its own epoch
//! counter. The example walks the three guarantees the service
//! layer adds over a solo [`StreamingSession`]:
//!
//! 1. **Multiplexed epochs** — every registered tenant's delta rides the
//!    same service epoch, over shared station links.
//! 2. **Checkpoint / recovery** — the center crashes mid-run; a fresh
//!    service recovers every tenant from one checkpoint frame plus the
//!    filters the stations retained, and resyncs via deltas instead of
//!    re-broadcasting.
//! 3. **Admission backpressure** — a per-station byte budget defers
//!    over-budget tenants (metered, never dropped), longest-deferred
//!    first.
//!
//! Run with: `cargo run --example tenant_service`

use std::collections::BTreeMap;

use dipm::prelude::*;
use dipm::protocol::{wire, EpochBroadcast};

fn day_snapshot(day: u64) -> Result<Dataset, Box<dyn std::error::Error>> {
    Ok(TraceConfig::new(400, 12)
        .days(1)
        .intervals_per_day(8)
        .seed(300 + day)
        .generate()?)
}

fn print_epoch(day: u64, epoch: &dipm::protocol::ServiceEpoch) {
    for (tenant, outcome) in &epoch.outcomes {
        let broadcast = match outcome.broadcast {
            EpochBroadcast::Full => "full".to_string(),
            EpochBroadcast::Delta { entries } => format!("Δ×{entries}"),
        };
        println!(
            "  day {day}  {tenant:<10} {broadcast:<8} {:>7} matches {:>9.1} KB shipped \
             (rebuild would be {} KB)",
            outcome.outcome.ranked.len(),
            outcome.broadcast_bytes as f64 / 1024.0,
            outcome.rebuild_bytes / 1024,
        );
    }
    for tenant in &epoch.deferred {
        println!("  day {day}  {tenant:<10} deferred (over the per-station byte budget)");
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let day0 = day_snapshot(0)?;
    let query_for = |index: usize| -> Result<PatternQuery, Box<dyn std::error::Error>> {
        let user = day0.users()[index];
        Ok(PatternQuery::from_fragments(
            day0.fragments(user.id).unwrap(),
        )?)
    };
    let config = DiMatchingConfig {
        // Pin geometry with headroom: watch lists churn mid-stream, and
        // recovery insists the pinned geometry matches the checkpoint's.
        fixed_geometry: Some(FilterParams::new(1 << 17, 5)?),
        ..DiMatchingConfig::default()
    };
    // An unmodeled network: the tenants' bytes and rankings are what a
    // modeled one meters too.
    let mode = ExecutionMode::Sequential;
    let options = PipelineOptions {
        mode,
        shards: Shards::new(2),
        ..PipelineOptions::default()
    };

    // ── 1. Three departments multiplex one service ─────────────────────
    println!("three tenants, one service ({mode:?}):\n");
    let mut service = Service::new(options);
    for (tenant, first_user) in [(TenantId(0), 0), (TenantId(1), 40), (TenantId(2), 80)] {
        let watch: Vec<PatternQuery> = (0..3)
            .map(|i| query_for(first_user + i * 7))
            .collect::<Result<_, _>>()?;
        service.register(tenant, &watch, config.clone())?;
    }
    print_epoch(0, &service.run_epoch(&day0)?);

    // Day 1: tenant 1 edits its watch list; everyone else just rides the
    // day's traffic churn. Each tenant pays only for its own edit.
    let retired = service.session(TenantId(1))?.live_queries()[0];
    service.remove_query(TenantId(1), retired)?;
    service.insert_query(TenantId(1), &query_for(120)?)?;
    println!();
    print_epoch(1, &service.run_epoch(&day_snapshot(1)?)?);

    // ── 2. The center crashes; the stations do not ─────────────────────
    // Tenant 1 edits its list again right before the crash, so that edit
    // has not been broadcast yet. One frame persists every tenant's query
    // registry, split at its last delta drain; recovery restores it, and
    // the next epoch derives the pending edit's delta from it. The stations
    // keep their filters and are resynced with deltas, not re-broadcasts.
    let retired = service.session(TenantId(1))?.live_queries()[0];
    service.remove_query(TenantId(1), retired)?;
    service.insert_query(TenantId(1), &query_for(160)?)?;
    let frame = service.checkpoint()?;
    let checkpoint_bytes = frame.len() as u64;
    println!(
        "\ncenter crash: {:.1} KB checkpoint persisted",
        checkpoint_bytes as f64 / 1024.0
    );
    let mut memories = BTreeMap::new();
    for tenant in service.tenants() {
        let session = service.deregister(tenant)?;
        memories.insert(tenant, session.release_stations());
    }
    drop(service);

    let mut recovered = Service::new(options);
    for (id, tenant_frame) in wire::decode_service_checkpoint(frame)? {
        let tenant = TenantId(id);
        let stations = memories
            .remove(&tenant)
            .expect("stations survive the crash");
        recovered.recover_tenant(tenant, tenant_frame, stations, config.clone())?;
    }
    println!(
        "recovered {} tenants into a fresh center\n",
        recovered.tenants().len()
    );
    let resumed = recovered.run_epoch(&day_snapshot(2)?)?;
    print_epoch(2, &resumed);
    for outcome in resumed.outcomes.values() {
        assert!(
            matches!(outcome.broadcast, EpochBroadcast::Delta { .. })
                && outcome.broadcast_bytes < outcome.rebuild_bytes,
            "recovery must resync via deltas, not re-broadcast"
        );
    }
    assert!(
        matches!(
            resumed.outcomes[&TenantId(1)].broadcast,
            EpochBroadcast::Delta { entries } if entries > 0
        ),
        "tenant 1's pending edit must resync through the replayed registry"
    );
    let rebuild_bytes: u64 = resumed.outcomes.values().map(|o| o.rebuild_bytes).sum();
    println!(
        "\nthe {:.1} KB checkpoint saved a {:.1} KB re-broadcast",
        checkpoint_bytes as f64 / 1024.0,
        rebuild_bytes as f64 / 1024.0
    );
    assert!(
        checkpoint_bytes < rebuild_bytes,
        "the checkpoint must cost less than the re-broadcast it saves"
    );

    // ── 3. Admission backpressure defers, never drops ──────────────────
    // A deliberately tiny budget: only the first tenant on the idle links
    // is admitted each epoch; the other waits, metered, and goes first the
    // next epoch.
    println!("\nbackpressure under a 1-byte per-station budget:\n");
    let mut tight = Service::with_admission(options, AdmissionPolicy::per_station(1));
    tight.register(TenantId(0), &[query_for(0)?], config.clone())?;
    tight.register(TenantId(1), &[query_for(40)?], config.clone())?;
    for day in 0..2u64 {
        print_epoch(day, &tight.run_epoch(&day0)?);
    }
    for tenant in tight.tenants() {
        let report = tight.tenant_report(tenant)?;
        println!(
            "  {tenant}: deferred {} epoch(s), ran epoch(s) up to #{}",
            report.deferred_epochs,
            tight.session(tenant)?.epoch(),
        );
        assert!(
            tight.session(tenant)?.epoch() > 0,
            "deferral must not starve a tenant"
        );
    }

    println!("\neach tenant's bytes and rankings are exactly what it would see running");
    println!("alone; only modeled latency couples them, because concurrent deltas");
    println!("genuinely queue on the shared station links.");
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
