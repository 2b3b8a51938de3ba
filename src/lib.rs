//! **dipm** — Distributed Incomplete Pattern Matching via a Novel Weighted
//! Bloom Filter.
//!
//! A from-scratch Rust reproduction of Liu, Kang, Chen & Ni, *Distributed
//! Incomplete Pattern Matching via a Novel Weighted Bloom Filter*,
//! IEEE ICDCS 2012 (DOI 10.1109/ICDCS.2012.24).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — weighted Bloom filter, classic Bloom filter, exact rational
//!   weights, filter parameter math, wire encoding.
//! * [`timeseries`] — communication patterns, accumulation (Eq. 3), uniform
//!   sampling, ε-similarity (Eq. 2), combination enumeration (Eq. 4).
//! * [`mobilenet`] — the synthetic city-scale mobile network substituting
//!   for the paper's proprietary CDR corpus.
//! * [`distsim`] — the simulated deployment: byte-accounted messaging,
//!   optionally stamped with a latency model that gives every station its
//!   own modeled timeline.
//! * [`protocol`] — the DI-matching framework (Algorithms 1–3) plus the
//!   naive and Bloom-filter baselines and effectiveness metrics.
//!
//! # Quickstart
//!
//! ```
//! use dipm::prelude::*;
//!
//! # fn main() -> Result<(), dipm::protocol::ProtocolError> {
//! // A synthetic city: users with category-driven routines over stations.
//! let dataset = Dataset::small(42);
//!
//! // The service provider's query: one preferred customer's decomposition.
//! let probe = dataset.users()[0];
//! let query = PatternQuery::from_fragments(dataset.fragments(probe.id).unwrap())?;
//!
//! // Run DI-matching on the modeled network: every base station on its
//! // own timeline, the paper's one thread per station.
//! let outcome = run_wbf(
//!     &dataset,
//!     &[query],
//!     &DiMatchingConfig::default(),
//!     ExecutionMode::Async { workers: 1 },
//!     Some(10),
//! )?;
//! assert!(outcome.ranked.contains(&probe.id));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use dipm_core as core;
pub use dipm_distsim as distsim;
pub use dipm_mobilenet as mobilenet;
pub use dipm_protocol as protocol;
pub use dipm_timeseries as timeseries;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use dipm_core::{
        BloomFilter, FilterDelta, FilterParams, Weight, WeightDiff, WeightSet, WeightedBloomFilter,
        WeightedProbe,
    };
    pub use dipm_distsim::{
        CostReport, ExecutionMode, LatencyModel, LatencyReport, StationLatency,
    };
    pub use dipm_mobilenet::{Category, Dataset, StationId, TraceConfig, UserId, UserSpec};
    pub use dipm_protocol::{
        aggregate_and_rank, build_wbf, evaluate, run_bloom, run_naive, run_pipeline, run_streaming,
        run_wbf, AdmissionPolicy, BatchOutcome, Bloom, DiMatchingConfig, EpochBroadcast,
        EpochOutcome, FilterStrategy, HashScheme, Method, Naive, PatternQuery, PipelineOptions,
        QueryOutcome, QueryVerdict, RoutingPolicy, RoutingTree, SectionGrouping, Service,
        ServiceEpoch, Shards, StationMemory, StreamQueryId, StreamingSession, StreamingUpdate,
        TenantId, Wbf,
    };
    pub use dipm_timeseries::{
        eps_match, AccumulatedPattern, Pattern, SampledPattern, ToleranceMode,
    };
}
