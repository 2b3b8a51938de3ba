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
//! * [`ExecutionMode`] — how station tasks run: `Sequential` on the
//!   calling thread over an unmodeled network, or `Async` on any number of
//!   workers with modeled time. The results are identical in every mode.
//! * [`block_on_all`] / [`VirtualClock`] — the vendored mini-executor every
//!   mode runs station tasks on: a deterministic single-worker task queue,
//!   a work-stealing pool, and a discrete-event clock that the
//!   [`LatencyModel`] stamps broadcast/report envelopes against, producing
//!   the [`CostReport::makespan_ticks`] latency meter.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! use bytes::Bytes;
//! use dipm_distsim::{
//!     block_on_all, ExecutionMode, Network, NodeId, TrafficClass, VirtualClock, DATA_CENTER,
//! };
//!
//! # fn main() -> Result<(), dipm_distsim::DistSimError> {
//! let network = Network::new();
//! let center = network.register(DATA_CENTER)?;
//! let stations: Vec<NodeId> = (0..4).map(NodeId::base_station).collect();
//! for s in &stations {
//!     network.register(*s)?;
//! }
//!
//! // Every station reports 8 bytes to the center, one task per station.
//! let tasks: Vec<_> = stations
//!     .iter()
//!     .map(|&s| {
//!         let network = &network;
//!         async move {
//!             network.send(s, DATA_CENTER, TrafficClass::Report, Bytes::from_static(b"id+wght!"))
//!         }
//!     })
//!     .collect();
//! let mode = ExecutionMode::Async { workers: 2 };
//! let (sent, _run) = block_on_all(mode.workers(), &Arc::new(VirtualClock::new()), tasks);
//! assert!(sent.iter().all(Result::is_ok));
//! assert_eq!(center.drain().len(), 4);
//! assert_eq!(network.meter().report().report_bytes, 32);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod clock;
mod error;
mod executor;
mod metrics;
mod network;
mod node;
mod runtime;

pub use clock::{yield_now, Sleep, VirtualClock, YieldNow};
pub use error::{DistSimError, Result};
pub use executor::{block_on_all, AsyncRunReport};
pub use metrics::{CostMeter, CostReport, LatencyReport, StationLatency, TrafficClass};
pub use network::{Envelope, LatencyModel, Mailbox, Network};
pub use node::{NodeId, DATA_CENTER};
pub use runtime::ExecutionMode;
