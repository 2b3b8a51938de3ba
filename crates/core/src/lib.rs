//! Core data structures for **DI-matching**, a reproduction of
//! *Distributed Incomplete Pattern Matching via a Novel Weighted Bloom
//! Filter* (Liu, Kang, Chen, Ni — IEEE ICDCS 2012).
//!
//! This crate provides the paper's central contribution and its baseline:
//!
//! * [`WeightedBloomFilter`] — a Bloom filter whose set bits carry the exact
//!   rational [`Weight`]s of the patterns that set them. Lookups succeed only
//!   when all probed bits share a common weight, which both distinguishes
//!   global-pattern matches (weight 1) from local-pattern matches
//!   (weight < 1) and rejects classic Bloom false positives stitched
//!   together from different patterns.
//!   [`WeightedBloomFilter::diff_from`] compares two builds position by
//!   position into a [`FilterDelta`] of interned [`WeightDiff`]s, and
//!   [`WeightedBloomFilter::apply_delta`] replays it onto a held copy — the
//!   streaming delta broadcasts in `dipm-protocol`.
//! * [`BloomFilter`] — the classic unweighted filter used as the paper's
//!   `BF` comparison method.
//! * [`Weight`] / [`WeightSet`] — exact rational weights with the paper's
//!   "sum of a true decomposition is exactly 1" property.
//! * [`FilterParams`] — geometry and false-positive math, and
//!   [`HashFamily`] — the seeded, deterministic k-hash family both filter
//!   variants probe with.
//! * [`encode`] — the deterministic binary wire format whose byte counts
//!   drive the paper's communication- and storage-cost figures.
//!
//! # Example
//!
//! ```
//! use dipm_core::{FilterParams, Weight, WeightedBloomFilter};
//!
//! # fn main() -> Result<(), dipm_core::CoreError> {
//! let params = FilterParams::optimal(1000, 0.01)?;
//! let mut wbf = WeightedBloomFilter::new(params, 0xD1F7);
//!
//! // Insert the accumulated points of a local pattern with weight 1/3.
//! let weight = Weight::ratio(3, 9)?;
//! for point in [1u64, 3, 6] {
//!     wbf.insert(point, weight);
//! }
//!
//! // A base station probes a candidate's points; the pattern matches and
//! // reports its weight back to the data center.
//! let matched = wbf.query_sequence([1u64, 3, 6]).expect("all bits set");
//! assert_eq!(matched.max(), Some(weight));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// `unsafe` is denied crate-wide; only the probe kernel (SIMD intrinsics and
// aligned word storage) opts back in, in `kernel.rs`.
#![deny(unsafe_code)]

mod bitset;
mod bloom;
pub mod encode;
mod error;
mod filter;
mod hash;
mod kernel;
mod params;
mod probe;
mod set_table;
mod view;
mod wbf;
mod weight;
mod weight_set;

pub use bitset::{BitSet, Ones};
pub use bloom::BloomFilter;
pub use error::{CoreError, Result};
pub use filter::FilterCore;
pub use hash::{mix64, tagged_key, HashFamily, Probes};
pub use kernel::{AlignedWords, Kernel};
pub use params::{FilterParams, MAX_BITS, MAX_HASHES};
pub use probe::{PrecomputedProbes, QueryScratch};
pub use view::WbfFrameView;
pub use wbf::{FilterDelta, WeightDiff, WeightedBloomFilter};
pub use weight::{sum_weights, Weight};
pub use weight_set::WeightSet;
