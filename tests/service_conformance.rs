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
//!    uninterrupted twin, churn shape by churn shape, mode by mode, seed
//!    by seed.
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

/// The queries and days one crash-and-recover run draws on.
struct Fixture {
    day0: Dataset,
    day1: Dataset,
    queries: [PatternQuery; 3],
}

/// One churn shape: the history a session goes through before the center
/// crashes. Every shape leaves a different split between the registry at
/// the last delta drain and the writes since.
struct Shape {
    name: &'static str,
    /// Opens the session and runs it up to the crash.
    run: fn(&Fixture, ExecutionMode) -> StreamingSession,
    /// Whether the stations hold filters at the crash and the resumed
    /// epoch resyncs them with a delta.
    resumes_on_delta: bool,
}

fn open(fixture: &Fixture, initial: &[usize], mode: ExecutionMode) -> StreamingSession {
    let queries: Vec<PatternQuery> = initial
        .iter()
        .map(|&i| fixture.queries[i].clone())
        .collect();
    StreamingSession::new(&queries, config(), options(mode)).unwrap()
}

const SHAPES: [Shape; 6] = [
    Shape {
        name: "insert since the drain",
        run: |f, mode| {
            let mut s = open(f, &[0], mode);
            s.run_epoch(&f.day0).unwrap();
            s.insert_query(&f.queries[1]).unwrap();
            s
        },
        resumes_on_delta: true,
    },
    Shape {
        name: "remove a drained query",
        run: |f, mode| {
            let mut s = open(f, &[0, 1], mode);
            s.run_epoch(&f.day0).unwrap();
            s.remove_query(s.live_queries()[0]).unwrap();
            s
        },
        resumes_on_delta: true,
    },
    Shape {
        name: "insert then remove a new query between drains",
        run: |f, mode| {
            let mut s = open(f, &[0], mode);
            s.run_epoch(&f.day0).unwrap();
            let id = s.insert_query(&f.queries[1]).unwrap();
            s.remove_query(id).unwrap();
            s
        },
        resumes_on_delta: true,
    },
    Shape {
        // What a tenant deferred by admission holds: its churn keeps
        // accumulating with no drain in between.
        name: "two write batches with no epoch between them",
        run: |f, mode| {
            let mut s = open(f, &[0, 1], mode);
            s.run_epoch(&f.day0).unwrap();
            let drained = s.live_queries();
            s.remove_query(drained[0]).unwrap();
            let id = s.insert_query(&f.queries[2]).unwrap();
            s.remove_query(drained[1]).unwrap();
            s.insert_query(&f.queries[0]).unwrap();
            s.remove_query(id).unwrap();
            s
        },
        resumes_on_delta: true,
    },
    Shape {
        name: "a failed epoch",
        run: |f, mode| {
            let mut s = open(f, &[0], mode);
            s.run_epoch(&f.day0).unwrap();
            s.insert_query(&f.queries[1]).unwrap();
            let other = Dataset::city_slice(60, 3, 1).unwrap();
            assert!(s.run_epoch(&other).is_err());
            s
        },
        resumes_on_delta: false,
    },
    Shape {
        name: "before the first epoch",
        run: |f, mode| {
            let mut s = open(f, &[0], mode);
            s.insert_query(&f.queries[1]).unwrap();
            s
        },
        resumes_on_delta: false,
    },
];

/// Invariant 2 — the acceptance criterion: checkpoint mid-session, rebuild
/// a fresh center from the frame plus the stations' retained memories, and
/// every resumed epoch matches an uninterrupted twin byte for byte —
/// across every churn shape, every mode and all four conformance seeds.
/// The resumed run churns again between its epochs, so the recovered
/// registry must also keep the query ids the twin hands out.
#[test]
fn crash_and_recover_is_byte_equivalent_to_an_uninterrupted_run() {
    for seed in conformance::SEEDS {
        let day0 = conformance::dataset(seed);
        let fixture = Fixture {
            day1: conformance::dataset(seed + 1000),
            queries: conformance::PROBES.map(|probe| conformance::probe_query(&day0, probe)),
            day0,
        };
        for shape in &SHAPES {
            for mode in MODES {
                let context = format!("seed {seed} {mode:?} {}", shape.name);
                let mut twin = (shape.run)(&fixture, mode);
                let crashed = (shape.run)(&fixture, mode);
                let epoch = crashed.epoch();
                let frame = crashed.checkpoint().unwrap();
                let memories = crashed.release_stations();
                let mut recovered =
                    StreamingSession::recover(frame, memories, config(), options(mode)).unwrap();
                assert_eq!(recovered.epoch(), epoch, "{context}: recovery must resume");

                let mut resumed = Vec::new();
                for session in [&mut twin, &mut recovered] {
                    let first = session.run_epoch(&fixture.day1).unwrap();
                    let live = session.live_queries();
                    session.remove_query(live[0]).unwrap();
                    session.insert_query(&fixture.queries[2]).unwrap();
                    let second = session.run_epoch(&fixture.day0).unwrap();
                    resumed.push((first, second, live, session.live_queries()));
                }
                let (twin_run, recovered_run) = (&resumed[0], &resumed[1]);
                assert_eq!(twin_run.2, recovered_run.2, "{context}: live ids diverged");
                assert_eq!(twin_run.3, recovered_run.3, "{context}: new ids diverged");
                for (i, (twin_outcome, recovered_outcome)) in [
                    (&twin_run.0, &recovered_run.0),
                    (&twin_run.1, &recovered_run.1),
                ]
                .into_iter()
                .enumerate()
                {
                    assert_eq!(
                        twin_outcome.outcome.ranked, recovered_outcome.outcome.ranked,
                        "{context} resumed epoch {i}: rankings diverged"
                    );
                    assert_eq!(
                        twin_outcome.outcome.cost, recovered_outcome.outcome.cost,
                        "{context} resumed epoch {i}: cost reports diverged"
                    );
                    assert_eq!(twin_outcome.epoch, recovered_outcome.epoch);
                    assert_eq!(
                        twin_outcome.broadcast, recovered_outcome.broadcast,
                        "{context} resumed epoch {i}: broadcast kinds diverged"
                    );
                    assert_eq!(
                        twin_outcome.broadcast_bytes, recovered_outcome.broadcast_bytes,
                        "{context} resumed epoch {i}: wire bytes diverged"
                    );
                    assert_eq!(twin_outcome.rebuild_bytes, recovered_outcome.rebuild_bytes);
                }
                // The resumed session resynced via a delta, not a
                // re-broadcast, wherever the stations kept their filters.
                let first = &recovered_run.0;
                if shape.resumes_on_delta {
                    assert!(
                        matches!(first.broadcast, EpochBroadcast::Delta { .. }),
                        "{context}: resumed with {:?}",
                        first.broadcast
                    );
                    assert!(first.broadcast_bytes < first.rebuild_bytes);
                } else {
                    assert_eq!(first.broadcast, EpochBroadcast::Full, "{context}");
                }
            }
        }
    }
}

/// A checkpoint only restores into a compatible world: a center restarted
/// with a different hash seed, sampling, tolerance or hash scheme (or
/// mismatched station memories) must reject the frame whole instead of
/// silently diverging.
#[test]
fn recovery_rejects_incompatible_configs_and_memories() {
    let day = conformance::dataset(conformance::SEEDS[0]);
    let query = conformance::probe_query(&day, conformance::PROBES[0]);
    let mut session =
        StreamingSession::new(std::slice::from_ref(&query), config(), options(MODES[0])).unwrap();
    session.run_epoch(&day).unwrap();
    let frame = session.checkpoint().unwrap();
    let memories = session.release_stations();

    // Every setting the recorded pairs were derived under: a drift in any
    // of them would scan for keys no query registered.
    let drifts = [
        (
            "seed",
            DiMatchingConfig {
                seed: 0xBAD_5EED,
                ..config()
            },
        ),
        (
            "samples",
            DiMatchingConfig {
                samples: config().samples + 1,
                ..config()
            },
        ),
        (
            "eps",
            DiMatchingConfig {
                eps: config().eps + 3,
                ..config()
            },
        ),
        (
            "tolerance",
            DiMatchingConfig {
                tolerance: ToleranceMode::Uniform,
                ..config()
            },
        ),
        (
            "hash_scheme",
            DiMatchingConfig {
                hash_scheme: HashScheme::PositionTagged,
                ..config()
            },
        ),
    ];
    for (field, drifted) in drifts {
        assert_ne!(drifted, config(), "{field} must drift");
        let memories = Vec::new();
        match StreamingSession::recover(frame.clone(), memories, drifted, options(MODES[0])) {
            Err(ProtocolError::CheckpointMismatch { reason }) => {
                assert!(reason.contains(field), "{field}: {reason}");
            }
            other => panic!("{field} drift recovered: {other:?}"),
        }
    }
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
