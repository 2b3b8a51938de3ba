//! One module per regenerated table or figure.

mod ablation;
mod batch;
mod convergence;
mod fig1;
mod fig4;
mod fpp;
mod latency;
mod routing;
mod scan;
mod service;
mod streaming;
mod table2;

pub use ablation::ablation;
pub use batch::{batch_scaling, shard_scaling};
pub use convergence::convergence;
pub use fig1::{fig1a, fig1b, fig3};
pub use fig4::{fig4a, fig4b, fig4c, fig4d, sweep, MethodPoint, SweepPoint};
pub use fpp::fpp;
pub use latency::latency;
pub use routing::{routing, routing_sweep, RoutingPoint};
pub use scan::{geomean_rows_per_sec, scan, scan_sweep, ScanPoint};
pub use service::{service, service_sweep, ServicePoint};
pub use streaming::{churn_sweep, streaming, ChurnPoint};
pub use table2::{score_day, table2, DayScore};
