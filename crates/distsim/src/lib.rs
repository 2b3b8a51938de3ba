//! Simulated distributed environment for **DI-matching** (ICDCS 2012
//! reproduction).
//!
//! The paper evaluates on a single server running one thread per base
//! station (Section V-A). This crate reproduces that substrate and adds the
//! instrumentation the evaluation needs:
//!
//! * [`NodeId`] — the data center `N0` plus base stations `N1..Nl`.
//! * [`Network`] / [`Mailbox`] — in-memory message passing where every
//!   payload byte is metered per [`TrafficClass`] (Fig. 4c communication
//!   cost).
//! * [`CostMeter`] / [`CostReport`] — lock-free accounting of bytes moved,
//!   bytes stored and operations executed (Fig. 4b/4d machine-independent
//!   cost).
//! * [`ExecutionMode`] — whether time is modeled. Station steps are plain
//!   calls on the calling thread, in station order, in every mode:
//!   `Sequential` runs them over an unmodeled network, `Async` over one
//!   that stamps every envelope with its [`LatencyModel`] flight time. Each
//!   station's stamps come from its own timeline (broadcast delivery plus
//!   modeled scan ticks), which yields the [`CostReport::makespan_ticks`]
//!   latency meter. Rankings and byte meters are identical in every mode.
//!
//! # Example
//!
//! ```
//! use bytes::Bytes;
//! use dipm_distsim::{LatencyModel, Network, NodeId, TrafficClass, DATA_CENTER};
//!
//! # fn main() -> Result<(), dipm_distsim::DistSimError> {
//! let network = Network::with_latency(LatencyModel::default());
//! let center = network.register(DATA_CENTER)?;
//! let stations: Vec<NodeId> = (0..4).map(NodeId::base_station).collect();
//! for s in &stations {
//!     network.register(*s)?;
//! }
//!
//! // Every station reports 8 bytes to the center, sent at the tick its own
//! // timeline reached; the envelope carries the modeled delivery tick.
//! for (i, &s) in stations.iter().enumerate() {
//!     let payload = Bytes::from_static(b"id+wght!");
//!     network.send_at(s, DATA_CENTER, TrafficClass::Report, payload, 10 * i as u64)?;
//! }
//! let delivered: Vec<u64> = center.drain().iter().map(|env| env.deliver_at).collect();
//! assert_eq!(delivered, [108, 118, 128, 138]); // 100 ticks base + 1 per byte
//! assert_eq!(network.meter().report().report_bytes, 32);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod error;
mod metrics;
mod network;
mod node;
mod runtime;

pub use error::{DistSimError, Result};
pub use metrics::{CostMeter, CostReport, LatencyReport, StationLatency, TrafficClass};
pub use network::{Envelope, LatencyModel, Mailbox, Network};
pub use node::{NodeId, DATA_CENTER};
pub use runtime::ExecutionMode;
