//! Service conformance: multiplexing many tenants over one deployment must
//! never change what any single tenant computes or ships.
//!
//! Three invariant families, swept over the shared conformance seeds:
//!
//! 1. **Tenant isolation** — a tenant's mode-invariant cost report and
//!    ranking are byte-identical whether it runs solo or interleaved with
//!    noisy neighbors, under every execution mode (which also must agree
//!    with each other).
//! 2. **Crash-and-recover equivalence** — checkpoint a session mid-stream,
//!    dissolve the center, recover against the stations' retained
//!    memories: every subsequent epoch's results and wire bytes match an
//!    uninterrupted twin, mode by mode, seed by seed.
//! 3. **Admission backpressure** — over-budget tenants are deferred with
//!    their meter ticked, never dropped, and deferral cannot starve.

// The shared oracle is reused for its seeded datasets and probe queries;
// the invariant helpers it also exports are exercised by `end_to_end.rs`.
#[allow(dead_code)]
mod conformance;

use dipm::core::FilterParams;
use dipm::prelude::*;
use dipm::protocol::{ProtocolError, StreamingSession};

const MODES: [ExecutionMode; 2] = [
    ExecutionMode::Sequential,
    ExecutionMode::Async { workers: 1 },
];

fn options(mode: ExecutionMode) -> PipelineOptions {
    PipelineOptions {
        mode,
        shards: Shards::new(2),
        ..PipelineOptions::default()
    }
}

/// Headroom geometry: churn grows query sets past their initial size, and
/// recovery insists the pinned geometry matches the checkpoint's.
fn config() -> DiMatchingConfig {
    DiMatchingConfig {
        fixed_geometry: Some(FilterParams::new(1 << 15, 5).unwrap()),
        ..DiMatchingConfig::default()
    }
}

/// Invariant 1 — the tentpole guarantee: the subject tenant's answers and
/// mode-invariant meters are identical solo vs. beside two noisy neighbors
/// that churn their query sets every epoch, under every execution mode.
#[test]
fn tenant_meters_are_isolated_from_noisy_neighbors_across_modes() {
    for seed in conformance::SEEDS {
        let day0 = conformance::dataset(seed);
        let day1 = conformance::dataset(seed + 1000);
        let subject_query = conformance::probe_query(&day0, conformance::PROBES[0]);
        let noisy_a = conformance::probe_query(&day0, conformance::PROBES[1]);
        let noisy_b = conformance::probe_query(&day0, conformance::PROBES[2]);

        let mut per_mode = Vec::new();
        for mode in MODES {
            // Solo: the subject alone, two epochs with a churned day.
            let mut solo = StreamingSession::new(
                std::slice::from_ref(&subject_query),
                config(),
                options(mode),
            )
            .unwrap();
            let solo_first = solo.run_epoch(&day0).unwrap();
            let solo_second = solo.run_epoch(&day1).unwrap();

            // Multiplexed: same subject, two neighbors churning loudly
            // (one grows its set, one swaps a query out) between epochs.
            let mut service = Service::new(options(mode));
            let subject = TenantId(0);
            service
                .register(subject, std::slice::from_ref(&subject_query), config())
                .unwrap();
            service
                .register(TenantId(1), std::slice::from_ref(&noisy_a), config())
                .unwrap();
            service
                .register(TenantId(2), std::slice::from_ref(&noisy_b), config())
                .unwrap();
            let first = service.run_epoch(&day0).unwrap();
            let retired = service.session(TenantId(2)).unwrap().live_queries()[0];
            service.insert_query(TenantId(1), &noisy_b).unwrap();
            service.insert_query(TenantId(2), &noisy_a).unwrap();
            service.remove_query(TenantId(2), retired).unwrap();
            let second = service.run_epoch(&day1).unwrap();

            for (epoch, (solo_outcome, multi)) in [(&solo_first, &first), (&solo_second, &second)]
                .into_iter()
                .enumerate()
            {
                let multi_outcome = &multi.outcomes[&subject];
                assert_eq!(
                    solo_outcome.outcome.ranked, multi_outcome.outcome.ranked,
                    "seed {seed} {mode:?} epoch {epoch}: neighbors changed the ranking"
                );
                assert_eq!(
                    solo_outcome.outcome.cost.mode_invariant(),
                    multi_outcome.outcome.cost.mode_invariant(),
                    "seed {seed} {mode:?} epoch {epoch}: neighbors changed the meters"
                );
                assert_eq!(solo_outcome.broadcast, multi_outcome.broadcast);
                assert_eq!(solo_outcome.broadcast_bytes, multi_outcome.broadcast_bytes);
            }
            per_mode.push(second.outcomes[&subject].outcome.cost.mode_invariant());
        }
        // And the modes agree with each other on the subject's meters.
        for other in &per_mode[1..] {
            assert_eq!(
                &per_mode[0], other,
                "seed {seed}: modes moved different bytes"
            );
        }
    }
}

/// Invariant 2 — the acceptance criterion: checkpoint mid-session, rebuild
/// a fresh center from the frame plus the stations' retained memories, and
/// every resumed epoch matches an uninterrupted twin byte for byte —
/// across every mode and all four conformance seeds.
#[test]
fn crash_and_recover_is_byte_equivalent_to_an_uninterrupted_run() {
    for seed in conformance::SEEDS {
        let day0 = conformance::dataset(seed);
        let day1 = conformance::dataset(seed + 1000);
        let q0 = conformance::probe_query(&day0, conformance::PROBES[0]);
        let q1 = conformance::probe_query(&day0, conformance::PROBES[1]);
        for mode in MODES {
            // The uninterrupted twin: full epoch, churn, then two more
            // epochs (a delta epoch and a pure CDR-churn epoch).
            let mut twin =
                StreamingSession::new(std::slice::from_ref(&q0), config(), options(mode)).unwrap();
            twin.run_epoch(&day0).unwrap();
            twin.insert_query(&q1).unwrap();
            let twin_second = twin.run_epoch(&day1).unwrap();
            let twin_third = twin.run_epoch(&day0).unwrap();

            // The crashing center: same start, same churn — then the
            // center dies with pending (undrained) churn, leaving only
            // its persisted checkpoint and the stations' own memories.
            let mut crashed =
                StreamingSession::new(std::slice::from_ref(&q0), config(), options(mode)).unwrap();
            crashed.run_epoch(&day0).unwrap();
            crashed.insert_query(&q1).unwrap();
            let frame = crashed.checkpoint().unwrap();
            let memories = crashed.release_stations();
            assert!(memories.iter().all(|m| m.has_filter()));

            let mut recovered =
                StreamingSession::recover(frame, memories, config(), options(mode)).unwrap();
            assert_eq!(recovered.epoch(), 1, "recovery must resume, not restart");
            let recovered_second = recovered.run_epoch(&day1).unwrap();
            let recovered_third = recovered.run_epoch(&day0).unwrap();

            for (epoch, (twin_outcome, recovered_outcome)) in [
                (&twin_second, &recovered_second),
                (&twin_third, &recovered_third),
            ]
            .into_iter()
            .enumerate()
            {
                assert_eq!(
                    twin_outcome.outcome.ranked, recovered_outcome.outcome.ranked,
                    "seed {seed} {mode:?} resumed epoch {epoch}: rankings diverged"
                );
                assert_eq!(
                    twin_outcome.outcome.cost, recovered_outcome.outcome.cost,
                    "seed {seed} {mode:?} resumed epoch {epoch}: cost reports diverged"
                );
                assert_eq!(twin_outcome.epoch, recovered_outcome.epoch);
                assert_eq!(twin_outcome.broadcast, recovered_outcome.broadcast);
                assert_eq!(
                    twin_outcome.broadcast_bytes, recovered_outcome.broadcast_bytes,
                    "seed {seed} {mode:?} resumed epoch {epoch}: wire bytes diverged"
                );
                assert_eq!(twin_outcome.rebuild_bytes, recovered_outcome.rebuild_bytes);
            }
            // The resumed session resynced via a delta, not a re-broadcast.
            assert!(matches!(
                recovered_second.broadcast,
                EpochBroadcast::Delta { entries } if entries > 0
            ));
            assert!(recovered_second.broadcast_bytes < recovered_second.rebuild_bytes);
        }
    }
}

/// A checkpoint only restores into a compatible world: a center restarted
/// with a different hash seed (or mismatched station memories) must reject
/// the frame whole instead of silently diverging.
#[test]
fn recovery_rejects_incompatible_configs_and_memories() {
    let day = conformance::dataset(conformance::SEEDS[0]);
    let query = conformance::probe_query(&day, conformance::PROBES[0]);
    let mut session =
        StreamingSession::new(std::slice::from_ref(&query), config(), options(MODES[0])).unwrap();
    session.run_epoch(&day).unwrap();
    let frame = session.checkpoint().unwrap();
    let memories = session.release_stations();

    let reseeded = DiMatchingConfig {
        seed: 0xBAD_5EED,
        ..config()
    };
    assert!(matches!(
        StreamingSession::recover(frame.clone(), Vec::new(), reseeded, options(MODES[0])),
        Err(ProtocolError::CheckpointMismatch { .. })
    ));
    assert!(matches!(
        StreamingSession::recover(frame.clone(), Vec::new(), config(), options(MODES[0])),
        Err(ProtocolError::CheckpointMismatch { .. })
    ));
    // The matching pair still recovers — rejection was the frame's
    // context, not the frame.
    assert!(StreamingSession::recover(frame, memories, config(), options(MODES[0])).is_ok());
}

/// Invariant 3 — backpressure defers, never drops: under a one-byte
/// per-station budget only the first tenant on the idle links is admitted,
/// the other is deferred with its meter ticked and its session untouched,
/// and longest-deferred-first admission lets it run the very next epoch.
#[test]
fn admission_backpressure_defers_without_dropping() {
    let day = conformance::dataset(conformance::SEEDS[1]);
    let q0 = conformance::probe_query(&day, conformance::PROBES[0]);
    let q1 = conformance::probe_query(&day, conformance::PROBES[1]);
    let mut service = Service::with_admission(options(MODES[0]), AdmissionPolicy::per_station(1));
    service
        .register(TenantId(0), std::slice::from_ref(&q0), config())
        .unwrap();
    service
        .register(TenantId(1), std::slice::from_ref(&q1), config())
        .unwrap();

    // Epoch 1: tenant 0 claims the idle links (the first tenant is always
    // admitted — progress guarantee), tenant 1 is over budget.
    let first = service.run_epoch(&day).unwrap();
    assert_eq!(
        first.outcomes.keys().copied().collect::<Vec<_>>(),
        vec![TenantId(0)]
    );
    assert_eq!(first.deferred, vec![TenantId(1)]);
    let deferred_report = service.tenant_report(TenantId(1)).unwrap();
    assert_eq!(deferred_report.deferred_epochs, 1);
    assert_eq!(
        deferred_report.query_bytes, 0,
        "a deferred tenant must not have shipped anything"
    );
    assert_eq!(
        service.session(TenantId(1)).unwrap().epoch(),
        0,
        "deferral must leave the session untouched"
    );

    // Epoch 2: longest-deferred-first puts tenant 1 on the idle links;
    // its pending full broadcast runs now — deferred, never dropped.
    let second = service.run_epoch(&day).unwrap();
    assert!(second.outcomes.contains_key(&TenantId(1)));
    assert_eq!(service.session(TenantId(1)).unwrap().epoch(), 1);
    let report = service.tenant_report(TenantId(1)).unwrap();
    assert_eq!(
        report.deferred_epochs, 1,
        "running does not erase the deferral count"
    );
    assert!(report.query_bytes > 0);

    // An unlimited service admits everyone at once.
    let mut open = Service::new(options(MODES[0]));
    open.register(TenantId(0), std::slice::from_ref(&q0), config())
        .unwrap();
    open.register(TenantId(1), std::slice::from_ref(&q1), config())
        .unwrap();
    let epoch = open.run_epoch(&day).unwrap();
    assert_eq!(epoch.outcomes.len(), 2);
    assert!(epoch.deferred.is_empty());
}
