//! The **DI-matching** framework (ICDCS 2012 reproduction): distributed
//! incomplete pattern matching via a weighted Bloom filter.
//!
//! DI-matching answers top-K pattern queries over data that exists only as
//! per-station fragments, in three steps (Section IV of the paper):
//!
//! 1. **Data center, [`build_wbf`]** (Algorithm 1) — accumulate the query's
//!    local patterns, enumerate all `2^e − 1` subset-sum combinations,
//!    sample `b` points of each, weight each combination by its share of the
//!    global volume, and hash every sampled value (with its ε-tolerance
//!    band) into one [`WeightedBloomFilter`](dipm_core::WeightedBloomFilter)
//!    that is broadcast to every base station.
//! 2. **Base stations, [`scan_shard_wbf`]** (Algorithm 2) — probe every
//!    local pattern; report `(ID, weight)` only when all probed bits are set
//!    and one weight is common to every sampled point.
//! 3. **Data center, [`aggregate_and_rank`]** (Algorithm 3) — sum weights
//!    per ID, discard sums above 1, rank descending, return the top-K.
//!
//! All three methods — WBF, the plain-Bloom baseline and the naive oracle —
//! are [`FilterStrategy`] implementations ([`Wbf`], [`Bloom`], [`Naive`])
//! running through the single generic, batch-first [`run_pipeline`] over
//! the simulated deployment of [`dipm_distsim`]: per-query filter sections
//! in one broadcast frame, hash-sharded stations ([`Shards`] /
//! [`BaseStation`]) scanned in **one pass per station per batch**, and one
//! ranking per query in the returned [`BatchOutcome`]. [`run_wbf`],
//! [`run_bloom`] and [`run_naive`] are thin single-outcome wrappers, and
//! [`evaluate`] scores any outcome against ground truth.
//!
//! # Example
//!
//! ```
//! use dipm_distsim::ExecutionMode;
//! use dipm_mobilenet::{ground_truth, Dataset};
//! use dipm_protocol::{evaluate, run_wbf, DiMatchingConfig, PatternQuery};
//!
//! # fn main() -> Result<(), dipm_protocol::ProtocolError> {
//! let dataset = Dataset::small(1);
//! let probe = dataset.users()[0];
//! let query = PatternQuery::from_fragments(dataset.fragments(probe.id).unwrap())?;
//!
//! let config = DiMatchingConfig::default();
//! let outcome = run_wbf(&dataset, &[query.clone()], &config, ExecutionMode::Sequential, None)?;
//!
//! let relevant = ground_truth::eps_similar_users(&dataset, query.global(), config.eps);
//! let score = evaluate(outcome.retrieved(), &relevant);
//! assert!(score.recall > 0.9);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod basestation;
mod config;
mod datacenter;
mod error;
mod eval;
mod naive;
mod pipeline;
mod query;
mod result;
mod routing;
mod service;
mod strategy;
mod streaming;
pub mod wire;

pub use basestation::{scan_shard_bloom, scan_shard_wbf, BaseStation, Shards, WbfScanSection};
pub use config::{AdmissionPolicy, DiMatchingConfig, HashScheme, RoutingPolicy};
pub use datacenter::{
    aggregate_and_rank, build_bloom, build_wbf, BuildStats, BuiltBloom, BuiltFilter, RankedUser,
};
pub use error::{ProtocolError, Result};
pub use eval::{evaluate, Effectiveness};
pub use naive::{run_naive, Naive};
pub use pipeline::{run_bloom, run_pipeline, run_wbf, PipelineOptions, SectionGrouping};
pub use query::PatternQuery;
pub use result::{BatchOutcome, Method, MethodDetails, QueryOutcome, QueryVerdict};
pub use routing::RoutingTree;
pub use service::{Service, ServiceEpoch, TenantId};
pub use strategy::{Bloom, FilterStrategy, Wbf};
pub use streaming::{
    run_streaming, EpochBroadcast, EpochOutcome, StationMemory, StreamQueryId, StreamingSession,
    StreamingUpdate,
};
