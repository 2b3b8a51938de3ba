//! Cost accounting: the quantities behind the paper's Figure 4.
//!
//! The evaluation compares methods on four axes — precision, time,
//! communication and storage. [`CostMeter`] collects the machine-independent
//! ones (bytes moved per traffic class, bytes stored, operation counts) with
//! lock-free atomics, so a meter can be shared and recorded into from any
//! thread; wall time is measured by the harness around the run.

use std::sync::atomic::{AtomicU64, Ordering};

/// Traffic classes, so communication cost can be broken down by purpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Query dissemination: the data center broadcasting a filter.
    Query,
    /// Station→center candidate reports (IDs and weights).
    Report,
    /// Bulk raw-data shipping (the naive method).
    Data,
    /// Protocol control traffic.
    Control,
}

impl TrafficClass {
    /// All classes, in a stable order.
    pub const ALL: [TrafficClass; 4] = [
        TrafficClass::Query,
        TrafficClass::Report,
        TrafficClass::Data,
        TrafficClass::Control,
    ];

    fn index(self) -> usize {
        match self {
            TrafficClass::Query => 0,
            TrafficClass::Report => 1,
            TrafficClass::Data => 2,
            TrafficClass::Control => 3,
        }
    }
}

/// Thread-safe accumulator for communication, storage and computation costs.
#[derive(Debug, Default)]
pub struct CostMeter {
    messages: AtomicU64,
    bytes: [AtomicU64; 4],
    storage_bytes: AtomicU64,
    hash_ops: AtomicU64,
    comparisons: AtomicU64,
    scan_passes: AtomicU64,
    rows_pruned: AtomicU64,
    stations_pruned: AtomicU64,
    routing_bytes: AtomicU64,
    deferred_epochs: AtomicU64,
    makespan_ticks: AtomicU64,
}

impl CostMeter {
    /// Creates a zeroed meter.
    pub fn new() -> CostMeter {
        CostMeter::default()
    }

    /// Records one message of `bytes` payload bytes in `class`.
    pub fn record_message(&self, class: TrafficClass, bytes: u64) {
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes[class.index()].fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records `bytes` of data held at some node.
    pub fn record_storage(&self, bytes: u64) {
        self.storage_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records `count` hash evaluations.
    pub fn record_hash_ops(&self, count: u64) {
        self.hash_ops.fetch_add(count, Ordering::Relaxed);
    }

    /// Records `count` pattern/value comparisons.
    pub fn record_comparisons(&self, count: u64) {
        self.comparisons.fetch_add(count, Ordering::Relaxed);
    }

    /// Records one full pass over a station's local store.
    ///
    /// A batch-aware pipeline scans each station once per *batch*, however
    /// many queries the batch carries — this counter is how that claim is
    /// asserted (a batch of Q queries over N stations must record exactly N
    /// passes, not Q × N).
    pub fn record_scan_pass(&self) {
        self.scan_passes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `count` candidate `(row × section)` pairs the station scan
    /// skipped before any hashing or weight fold, because no weight in the
    /// section's weight universe is plausible for the row's volume.
    ///
    /// Each decision depends on the row and the section alone, so the
    /// counter is as mode-invariant as `hash_ops` and does not depend on
    /// the shard layout either.
    pub fn record_rows_pruned(&self, count: u64) {
        self.rows_pruned.fetch_add(count, Ordering::Relaxed);
    }

    /// Records `count` stations a routing tree excluded from a query
    /// broadcast — stations whose summary filter proved the query cannot
    /// match anything they hold, so they neither receive, scan nor report.
    ///
    /// Routing decisions are made center-side before any station work is
    /// scheduled, so the count is mode-invariant; it stays zero under
    /// `RoutingPolicy::BroadcastAll`.
    pub fn record_stations_pruned(&self, count: u64) {
        self.stations_pruned.fetch_add(count, Ordering::Relaxed);
    }

    /// Records `bytes` of routing-maintenance traffic: station summary
    /// uploads and routed-probe plan frames. Kept out of the per-class
    /// message meters so query/report traffic stays directly comparable
    /// between routed and broadcast runs; it still counts toward
    /// [`CostReport::total_bytes`].
    pub fn record_routing_bytes(&self, bytes: u64) {
        self.routing_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one epoch an admission policy deferred: the tenant's update
    /// was held back to the next epoch instead of broadcast (never dropped —
    /// the pending churn stays queued at the center).
    ///
    /// Admission decisions are made center-side from planned frame sizes
    /// before any station work is scheduled, so the count is mode-invariant;
    /// it stays zero for a session running outside a service or under a
    /// service with no delta budget.
    pub fn record_deferred_epoch(&self) {
        self.deferred_epochs.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds a finished run's [`CostReport`] into this meter: every additive
    /// counter is added, and the makespan joins via maximum like
    /// [`CostMeter::record_makespan`]. This is how a service accumulates one
    /// lifetime cost ledger per tenant out of its per-epoch reports.
    pub fn absorb(&self, report: &CostReport) {
        self.messages.fetch_add(report.messages, Ordering::Relaxed);
        self.bytes[0].fetch_add(report.query_bytes, Ordering::Relaxed);
        self.bytes[1].fetch_add(report.report_bytes, Ordering::Relaxed);
        self.bytes[2].fetch_add(report.data_bytes, Ordering::Relaxed);
        self.bytes[3].fetch_add(report.control_bytes, Ordering::Relaxed);
        self.storage_bytes
            .fetch_add(report.storage_bytes, Ordering::Relaxed);
        self.hash_ops.fetch_add(report.hash_ops, Ordering::Relaxed);
        self.comparisons
            .fetch_add(report.comparisons, Ordering::Relaxed);
        self.scan_passes
            .fetch_add(report.scan_passes, Ordering::Relaxed);
        self.rows_pruned
            .fetch_add(report.rows_pruned, Ordering::Relaxed);
        self.stations_pruned
            .fetch_add(report.stations_pruned, Ordering::Relaxed);
        self.routing_bytes
            .fetch_add(report.routing_bytes, Ordering::Relaxed);
        self.deferred_epochs
            .fetch_add(report.deferred_epochs, Ordering::Relaxed);
        self.makespan_ticks
            .fetch_max(report.makespan_ticks, Ordering::Relaxed);
    }

    /// Records a modeled completion tick; the report keeps the maximum seen
    /// (the run's makespan).
    ///
    /// Only `ExecutionMode::Async` models time, so this stays zero under
    /// `ExecutionMode::Sequential` — it is the one [`CostReport`] dimension
    /// excluded from [`CostReport::mode_invariant`].
    pub fn record_makespan(&self, ticks: u64) {
        self.makespan_ticks.fetch_max(ticks, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot for reporting (individual counters
    /// are exact; cross-counter skew is possible while threads still run).
    pub fn report(&self) -> CostReport {
        CostReport {
            messages: self.messages.load(Ordering::Relaxed),
            query_bytes: self.bytes[0].load(Ordering::Relaxed),
            report_bytes: self.bytes[1].load(Ordering::Relaxed),
            data_bytes: self.bytes[2].load(Ordering::Relaxed),
            control_bytes: self.bytes[3].load(Ordering::Relaxed),
            storage_bytes: self.storage_bytes.load(Ordering::Relaxed),
            hash_ops: self.hash_ops.load(Ordering::Relaxed),
            comparisons: self.comparisons.load(Ordering::Relaxed),
            scan_passes: self.scan_passes.load(Ordering::Relaxed),
            rows_pruned: self.rows_pruned.load(Ordering::Relaxed),
            blocks_skipped: 0,
            stations_pruned: self.stations_pruned.load(Ordering::Relaxed),
            routing_bytes: self.routing_bytes.load(Ordering::Relaxed),
            deferred_epochs: self.deferred_epochs.load(Ordering::Relaxed),
            makespan_ticks: self.makespan_ticks.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.messages.store(0, Ordering::Relaxed);
        for b in &self.bytes {
            b.store(0, Ordering::Relaxed);
        }
        self.storage_bytes.store(0, Ordering::Relaxed);
        self.hash_ops.store(0, Ordering::Relaxed);
        self.comparisons.store(0, Ordering::Relaxed);
        self.scan_passes.store(0, Ordering::Relaxed);
        self.rows_pruned.store(0, Ordering::Relaxed);
        self.stations_pruned.store(0, Ordering::Relaxed);
        self.routing_bytes.store(0, Ordering::Relaxed);
        self.deferred_epochs.store(0, Ordering::Relaxed);
        self.makespan_ticks.store(0, Ordering::Relaxed);
    }
}

/// A snapshot of a [`CostMeter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostReport {
    /// Total messages sent.
    pub messages: u64,
    /// Bytes of query (filter broadcast) traffic.
    pub query_bytes: u64,
    /// Bytes of station→center report traffic.
    pub report_bytes: u64,
    /// Bytes of bulk raw-data traffic.
    pub data_bytes: u64,
    /// Bytes of control traffic.
    pub control_bytes: u64,
    /// Bytes stored across nodes.
    pub storage_bytes: u64,
    /// Hash function evaluations. The WBF station scan charges the full
    /// probe cost of every `(row × section)` pair it did not prune; the
    /// Bloom scan, which carries no weights to prune with, charges every
    /// pair.
    pub hash_ops: u64,
    /// Pattern/value comparisons.
    pub comparisons: u64,
    /// Full passes over a station's local store (one per station per batch
    /// in the batch-aware pipeline).
    pub scan_passes: u64,
    /// Candidate `(row × section)` pairs the station scan skipped before
    /// hashing, because the section's weight universe holds no weight
    /// plausible for the row's volume. Depends on the row and the section
    /// alone, so it is mode- and shard-layout-invariant.
    pub rows_pruned: u64,
    /// Always zero: the station scan skips `(row × section)` pairs, never
    /// whole row blocks. The field stays so existing readers of a report
    /// keep working.
    pub blocks_skipped: u64,
    /// Stations a routing tree excluded from a query broadcast (zero under
    /// `RoutingPolicy::BroadcastAll`). Decided center-side before any
    /// station work is scheduled, hence mode-invariant.
    pub stations_pruned: u64,
    /// Bytes of routing-maintenance traffic (station summary uploads and
    /// routed-probe plan frames), metered separately from the per-class
    /// message meters so routed and broadcast query traffic stay directly
    /// comparable.
    pub routing_bytes: u64,
    /// Epochs an admission policy deferred this tenant's update to the next
    /// epoch (zero outside a service, or under a service with no delta
    /// budget). Decided center-side from planned frame sizes, hence
    /// mode-invariant.
    pub deferred_epochs: u64,
    /// Modeled makespan of the run, in ticks: the latest modeled report
    /// delivery tick. Zero outside `ExecutionMode::Async` (wall time is not
    /// modeled there); deterministic under a fixed latency model and seed.
    pub makespan_ticks: u64,
}

impl CostReport {
    /// Total communication bytes across all classes, routing maintenance
    /// included.
    pub fn total_bytes(&self) -> u64 {
        self.query_bytes
            + self.report_bytes
            + self.data_bytes
            + self.control_bytes
            + self.routing_bytes
    }

    /// The mode-invariant projection: every byte, storage and operation
    /// meter, with the latency dimension (`makespan_ticks`) zeroed.
    ///
    /// The protocol promises these meters are **byte-identical across all
    /// execution modes** (the Fig. 4 comparisons depend on it); makespan is
    /// the one dimension only the modeled network produces, so agreement
    /// suites compare this projection and pin makespan determinism
    /// separately.
    pub fn mode_invariant(&self) -> CostReport {
        CostReport {
            makespan_ticks: 0,
            ..*self
        }
    }
}

/// The latency dimension of one async pipeline run, in modeled ticks.
///
/// Produced only under `ExecutionMode::Async`, where broadcast and report
/// frames carry modeled delivery times. `stations` is in **modeled delivery
/// order** — the order the center hears from stations on the modeled
/// timeline (fast stations first), not station order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyReport {
    /// The latest modeled report delivery tick — when the data center has
    /// heard from every station and can aggregate.
    pub makespan_ticks: u64,
    /// Per-station critical paths, in report-arrival (completion) order.
    pub stations: Vec<StationLatency>,
}

impl LatencyReport {
    /// The slowest station's critical path (equals the makespan when every
    /// station reported).
    pub fn critical_path_ticks(&self) -> u64 {
        self.stations
            .iter()
            .map(|s| s.report_delivered)
            .max()
            .unwrap_or(0)
    }
}

/// One station's critical path through an async run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StationLatency {
    /// Station index (the wire-frame station id).
    pub station: u32,
    /// Tick at which the station finished scanning and sent its report
    /// (includes broadcast flight and modeled scan time).
    pub report_sent: u64,
    /// Tick at which the report reached the data center.
    pub report_delivered: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_by_class() {
        let meter = CostMeter::new();
        meter.record_message(TrafficClass::Query, 100);
        meter.record_message(TrafficClass::Query, 50);
        meter.record_message(TrafficClass::Report, 8);
        let report = meter.report();
        assert_eq!(report.messages, 3);
        assert_eq!(report.query_bytes, 150);
        assert_eq!(report.report_bytes, 8);
        assert_eq!(report.total_bytes(), 158);
    }

    #[test]
    fn storage_and_ops() {
        let meter = CostMeter::new();
        meter.record_storage(4096);
        meter.record_hash_ops(12);
        meter.record_comparisons(3);
        meter.record_scan_pass();
        meter.record_scan_pass();
        let report = meter.report();
        assert_eq!(report.storage_bytes, 4096);
        assert_eq!(report.hash_ops, 12);
        assert_eq!(report.comparisons, 3);
        assert_eq!(report.scan_passes, 2);
    }

    #[test]
    fn pruning_counters_accumulate_and_reset() {
        let meter = CostMeter::new();
        meter.record_rows_pruned(64);
        meter.record_rows_pruned(3);
        let report = meter.report();
        assert_eq!(report.rows_pruned, 67);
        assert_eq!(report.blocks_skipped, 0);
        assert_eq!(report.mode_invariant().rows_pruned, 67);
        meter.reset();
        assert_eq!(meter.report(), CostReport::default());
    }

    #[test]
    fn routing_counters_accumulate_and_join_totals() {
        let meter = CostMeter::new();
        meter.record_stations_pruned(5);
        meter.record_stations_pruned(2);
        meter.record_routing_bytes(300);
        meter.record_message(TrafficClass::Query, 100);
        let report = meter.report();
        assert_eq!(report.stations_pruned, 7);
        assert_eq!(report.routing_bytes, 300);
        // Routing bytes count toward the grand total but not query traffic.
        assert_eq!(report.query_bytes, 100);
        assert_eq!(report.total_bytes(), 400);
        // Both are mode-invariant dimensions.
        assert_eq!(report.mode_invariant().stations_pruned, 7);
        assert_eq!(report.mode_invariant().routing_bytes, 300);
        meter.reset();
        assert_eq!(meter.report(), CostReport::default());
    }

    #[test]
    fn reset_zeroes_everything() {
        let meter = CostMeter::new();
        meter.record_message(TrafficClass::Data, 1);
        meter.record_storage(1);
        meter.reset();
        assert_eq!(meter.report(), CostReport::default());
    }

    #[test]
    fn makespan_keeps_the_maximum() {
        let meter = CostMeter::new();
        meter.record_makespan(40);
        meter.record_makespan(12);
        meter.record_makespan(55);
        assert_eq!(meter.report().makespan_ticks, 55);
        meter.reset();
        assert_eq!(meter.report().makespan_ticks, 0);
    }

    #[test]
    fn mode_invariant_drops_only_the_latency_dimension() {
        let meter = CostMeter::new();
        meter.record_message(TrafficClass::Query, 7);
        meter.record_scan_pass();
        meter.record_makespan(1234);
        let report = meter.report();
        let invariant = report.mode_invariant();
        assert_eq!(invariant.makespan_ticks, 0);
        assert_eq!(invariant.query_bytes, 7);
        assert_eq!(invariant.scan_passes, 1);
        assert_ne!(report, invariant);
        assert_eq!(report.mode_invariant(), invariant.mode_invariant());
    }

    #[test]
    fn deferred_epochs_accumulate_and_stay_mode_invariant() {
        let meter = CostMeter::new();
        meter.record_deferred_epoch();
        meter.record_deferred_epoch();
        let report = meter.report();
        assert_eq!(report.deferred_epochs, 2);
        assert_eq!(report.mode_invariant().deferred_epochs, 2);
        meter.reset();
        assert_eq!(meter.report(), CostReport::default());
    }

    #[test]
    fn absorb_adds_counters_and_joins_makespan() {
        let meter = CostMeter::new();
        meter.record_message(TrafficClass::Query, 10);
        meter.record_makespan(100);
        let epoch = CostReport {
            messages: 3,
            query_bytes: 7,
            report_bytes: 5,
            storage_bytes: 11,
            deferred_epochs: 1,
            makespan_ticks: 60,
            ..CostReport::default()
        };
        meter.absorb(&epoch);
        let ledger = meter.report();
        assert_eq!(ledger.messages, 4);
        assert_eq!(ledger.query_bytes, 17);
        assert_eq!(ledger.report_bytes, 5);
        assert_eq!(ledger.storage_bytes, 11);
        assert_eq!(ledger.deferred_epochs, 1);
        // Makespan joins by maximum: the ledger keeps the latest tick
        // reached, not a sum of per-epoch makespans.
        assert_eq!(ledger.makespan_ticks, 100);
        meter.absorb(&CostReport {
            makespan_ticks: 250,
            ..CostReport::default()
        });
        assert_eq!(meter.report().makespan_ticks, 250);
    }

    #[test]
    fn latency_report_critical_path() {
        let report = LatencyReport {
            makespan_ticks: 30,
            stations: vec![
                StationLatency {
                    station: 1,
                    report_sent: 12,
                    report_delivered: 30,
                },
                StationLatency {
                    station: 0,
                    report_sent: 10,
                    report_delivered: 25,
                },
            ],
        };
        assert_eq!(report.critical_path_ticks(), 30);
        assert_eq!(LatencyReport::default().critical_path_ticks(), 0);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let meter = CostMeter::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        meter.record_message(TrafficClass::Report, 2);
                    }
                });
            }
        });
        let report = meter.report();
        assert_eq!(report.messages, 8000);
        assert_eq!(report.report_bytes, 16_000);
    }
}
