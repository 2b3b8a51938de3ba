//! Standing queries over live traffic: the streaming DI-matching session.
//!
//! The batch pipeline rebuilds and re-broadcasts the whole filter for every
//! run — the right shape for one-shot queries, and exactly the wrong one
//! for the paper's own motivating workload (Section III-A's continuous
//! monitoring), where the query set is long-lived and only *changes* a
//! little between epochs. A [`StreamingSession`] keeps the query set
//! standing:
//!
//! * the **data center** keeps its query registry: each live query's
//!   `(key, weight)` pairs. [`StreamingSession::insert_query`] and
//!   [`StreamingSession::remove_query`] edit the registry and nothing else;
//! * each **epoch** ([`StreamingSession::run_epoch`]) is computed once, by
//!   a plan that changes nothing: it builds the live queries'
//!   [`WeightedBloomFilter`] from the registry, the way the batch center
//!   builds ([`WeightedBloomFilter::from_pairs`]), and diffs it against
//!   the filter of the registry as it stood at the previous epoch's
//!   broadcast into the [`FilterDelta`](crate::wire::FilterDelta) of
//!   [`WeightedBloomFilter::diff_from`], already in its wire form. That
//!   drained filter is retained, so an epoch pays one build: it is the
//!   live build the last committed epoch kept (empty in a new session,
//!   built from the registry by a recovered one). A full-broadcast epoch
//!   (session start, a resync) diffs nothing. The plan then encodes the
//!   full [`StationUpdate`](crate::wire::StationUpdate) frame, whose
//!   length is the epoch's rebuild yardstick, and the delta frame when
//!   some station holds the state the delta extends. A commit then routes,
//!   drains the registry, keeps the plan's live build as the drained
//!   filter, and sends the full filter to stations off the delta path and
//!   only the changed positions to the rest. A [`Service`](crate::Service)
//!   prices each tenant's plan for admission and runs the plans it admits;
//! * **base stations** hold their decoded filter across epochs and apply
//!   deltas shard-locally under any
//!   [`ExecutionMode`](dipm_distsim::ExecutionMode) — a pure CDR-churn
//!   epoch (new traffic, same queries) costs a near-empty delta frame plus
//!   the scans, never a re-broadcast. A station pays for the delta, not
//!   the filter: it decodes the frame's diff table once and applies it to
//!   the filter's interned weight sets
//!   ([`WeightedBloomFilter::apply_delta`]). Each distinct (set, diff)
//!   pair is checked and interned once, an entry only moves its position
//!   to the resulting set, and the scan's derived fold state (weight
//!   universe and per-set fold masks) is re-derived from the distinct
//!   sets, not from every occupied position.
//!
//! The session pins its filter geometry at creation (deltas cannot resize
//! a hash table without rehashing everything, i.e. a full broadcast), and
//! because the center's filter *is* a build of its registry the whole path
//! is checkable: after any update sequence the station-side state byte-matches
//! a from-scratch [`run_pipeline`](crate::run_pipeline) over the surviving
//! query set at the same geometry — asserted across execution modes by the
//! streaming conformance suite.
//!
//! Epoch scans prune exactly like the batch pipeline: a station skips only
//! the `(row, section)` pairs its filter's weight universe proves
//! reportless, and every applied delta resets that universe, which the
//! next scan derives afresh from the live weight sets, so churn can never
//! leave a stale bound behind.

use std::collections::BTreeMap;
use std::time::Instant;

use bytes::Bytes;
use dipm_core::{encode, FilterParams, Weight, WeightedBloomFilter};
use dipm_distsim::{CostMeter, Mailbox, Network, NodeId, TrafficClass, DATA_CENTER};
use dipm_mobilenet::Dataset;

use crate::basestation::{scan_shard_wbf, BaseStation};
use crate::config::{DiMatchingConfig, RoutingPolicy};
use crate::datacenter::{aggregate_and_rank, prepare_build, sized_params, BuildStats};
use crate::error::{ProtocolError, Result};
use crate::pipeline::{collect_station_reports, scan_and_report, PipelineOptions};
use crate::query::PatternQuery;
use crate::result::{Method, MethodDetails, QueryOutcome};
use crate::routing::{self, RoutingTree};
use crate::strategy::{Wbf, CENTER_ENTRY_BYTES};
use crate::wire::{self, StationUpdate};

/// Handle to one live query of a [`StreamingSession`]; returned by
/// [`StreamingSession::insert_query`] and consumed by
/// [`StreamingSession::remove_query`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamQueryId(pub u64);

/// One registered query as the center tracks it: the pairs every filter
/// build over the registry inserts for it.
#[derive(Debug)]
struct LiveQuery {
    pairs: Vec<(u64, Weight)>,
    total: u64,
    combinations: usize,
}

/// The session's standing routing state under a tree policy: the hot
/// Bloofi tree plus the per-station key sets it currently summarizes — the
/// base each epoch's key sets are diffed against. A summary is a function
/// of its station's key set alone, so a station is re-summarized, and
/// re-uploads, exactly when its key set changed.
#[derive(Debug)]
struct SessionRouting {
    tree: RoutingTree,
    keys: Vec<Vec<u64>>,
}

/// One base station's cross-epoch state: its decoded filter, the live
/// query volumes, and the last epoch it applied.
///
/// A full update replaces the filter (its fold state comes with the
/// decode); a delta is applied to it in place, and the next scan derives
/// the fold state from the filter's distinct weight sets.
#[derive(Debug, Default)]
struct StationState {
    filter: Option<WeightedBloomFilter>,
    totals: Vec<u64>,
    applied_epoch: u64,
}

impl StationState {
    /// Applies one epoch's update frame, enforcing the epoch protocol: a
    /// delta may only extend the state the previous epoch left behind.
    fn apply(&mut self, update: StationUpdate, expected_epoch: u64) -> Result<()> {
        if update.epoch() != expected_epoch {
            return Err(ProtocolError::malformed_report(format!(
                "station update for epoch {} while expecting {expected_epoch}",
                update.epoch()
            )));
        }
        match update {
            StationUpdate::Full {
                query_totals,
                filter,
                ..
            } => {
                self.filter = Some(encode::decode_wbf(filter)?);
                self.totals = query_totals;
            }
            StationUpdate::Delta {
                query_totals,
                delta,
                ..
            } => {
                let filter = self.filter.as_mut().ok_or_else(|| {
                    ProtocolError::malformed_report("delta update before any full broadcast")
                })?;
                if expected_epoch != self.applied_epoch + 1 {
                    return Err(ProtocolError::malformed_report(format!(
                        "delta for epoch {expected_epoch} on top of epoch {}",
                        self.applied_epoch
                    )));
                }
                filter.apply_delta(&delta)?;
                self.totals = query_totals;
            }
        }
        self.applied_epoch = expected_epoch;
        Ok(())
    }

    fn view(&self) -> Result<(&WeightedBloomFilter, &[u64])> {
        let filter = self
            .filter
            .as_ref()
            .ok_or_else(|| ProtocolError::malformed_report("station scanned before any update"))?;
        Ok((filter, &self.totals))
    }
}

/// One tenant's epoch as the center computes it, before anything moves:
/// its live build, the update frames and which stations can take the
/// delta. Produced by the pure `plan_epoch`, priced by
/// [`Service`](crate::Service) admission, and run by `commit_epoch` and
/// the epoch engine. Planning leaves the session untouched, so a tenant
/// admission defers keeps its epoch, its registry and its pending delta
/// as they were.
#[derive(Debug)]
pub(crate) struct EpochPlan {
    epoch: u64,
    start: Instant,
    /// The live queries' filter as this plan built it. The commit swaps it
    /// in as the session's retained filter, so from then on this holds the
    /// filter it replaced.
    live: WeightedBloomFilter,
    broadcast: EpochBroadcast,
    /// The full update frame. Encoded every epoch: its length prices a
    /// rebuild, and any station off the delta path receives it.
    full_frame: Bytes,
    /// The delta update frame, when some station can take it.
    delta_frame: Option<Bytes>,
    /// Per dataset station: whether it holds the state the delta extends.
    on_delta_path: Vec<bool>,
}

impl EpochPlan {
    /// What this epoch sends each dataset station if targeted, in bytes:
    /// the delta frame on the delta path, the full frame off it.
    pub(crate) fn station_bytes(&self) -> impl Iterator<Item = u64> + '_ {
        let frame_len = |frame: &Bytes| frame.len() as u64;
        let full = frame_len(&self.full_frame);
        let delta = self.delta_frame.as_ref().map_or(full, frame_len);
        self.on_delta_path
            .iter()
            .map(move |&on| if on { delta } else { full })
    }
}

/// How one epoch's filter state reached the stations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochBroadcast {
    /// The full filter (session start).
    Full,
    /// Only the changed positions.
    Delta {
        /// Number of changed positions in the frame (zero for a pure
        /// CDR-churn epoch).
        entries: usize,
    },
}

/// The result of one streaming epoch: the merged ranking over the live
/// query set plus the epoch's broadcast economics.
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    /// The epoch number (0 is the session's first).
    pub epoch: u64,
    /// The merged WBF verdict over this epoch's dataset.
    pub outcome: QueryOutcome,
    /// How the filter state was disseminated to up-to-date stations. A
    /// routed delta epoch may additionally resync re-targeted stale
    /// stations (pruned in an earlier epoch) with a full frame.
    pub broadcast: EpochBroadcast,
    /// Bytes this epoch's dissemination actually moved (each frame × its
    /// recipients — equals the outcome's `query_bytes` meter).
    pub broadcast_bytes: u64,
    /// Bytes a full rebuild broadcast would have moved this epoch — the
    /// rebuild-vs-delta economics `repro streaming` reports.
    pub rebuild_bytes: u64,
    /// The epoch's modeled per-station critical paths. `Some` only under
    /// [`ExecutionMode::Async`](dipm_distsim::ExecutionMode::Async); ticks
    /// continue across epochs (epoch `n+1` is stamped from epoch `n`'s
    /// makespan).
    pub latency: Option<dipm_distsim::LatencyReport>,
}

/// A standing-query DI-matching session over evolving data.
///
/// # Examples
///
/// ```
/// use dipm_distsim::ExecutionMode;
/// use dipm_mobilenet::Dataset;
/// use dipm_protocol::{DiMatchingConfig, PatternQuery, PipelineOptions, StreamingSession};
///
/// # fn main() -> Result<(), dipm_protocol::ProtocolError> {
/// let day0 = Dataset::small(7);
/// let probe = day0.users()[0];
/// let query = PatternQuery::from_fragments(day0.fragments(probe.id).unwrap())?;
///
/// let mut session = StreamingSession::new(
///     &[query],
///     DiMatchingConfig::default(),
///     PipelineOptions::default(),
/// )?;
/// // Epoch 0 broadcasts the full filter once…
/// let first = session.run_epoch(&day0)?;
/// assert!(first.outcome.ranked.contains(&probe.id));
/// // …and a pure CDR-churn epoch re-broadcasts nothing but a tiny delta.
/// let day1 = Dataset::small(8);
/// let next = session.run_epoch(&day1)?;
/// assert!(next.broadcast_bytes < first.broadcast_bytes / 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct StreamingSession {
    config: DiMatchingConfig,
    options: PipelineOptions,
    params: FilterParams,
    live: BTreeMap<StreamQueryId, LiveQuery>,
    next_id: u64,
    /// `next_id` at the last delta drain (the last planned epoch): live
    /// queries at or above it were registered since. With `retired` it
    /// splits the registry into the queries live at that drain and the
    /// churn since, so the filter the delta-path stations hold can be
    /// built again from the registry.
    drained_next_id: u64,
    /// The queries removed since the last drain that were live at it.
    retired: BTreeMap<StreamQueryId, LiveQuery>,
    /// The filter of the registry as of the last drain, which delta-path
    /// stations hold: the live build the last committed epoch kept. Derived
    /// state, never checkpointed: `new` starts it empty (nothing is
    /// drained yet) and `recover` builds it from the drained registry.
    retained: WeightedBloomFilter,
    /// The next epoch to run; station states trail it by one once running.
    epoch: u64,
    stations: Vec<StationState>,
    /// Whether the next epoch must broadcast the full filter: true at
    /// session start, and re-armed by any failed epoch — a failure can
    /// leave stations mid-protocol (some updated, some not, pending diffs
    /// drained), and a full broadcast is the resync that makes the next
    /// epoch correct regardless of where the failure struck.
    needs_full: bool,
    /// The standing routing tree under [`RoutingPolicy::Tree`]; built
    /// lazily on the first routed epoch (geometry pinned there, like the
    /// session filter) and kept hot by re-summarizing changed stations.
    /// Dropped by a failed epoch, which may have left the update
    /// half-applied — the next epoch rebuilds it from scratch.
    routing: Option<SessionRouting>,
    /// The virtual tick the session has reached (async mode): each epoch's
    /// broadcast is stamped from the previous epoch's makespan, so modeled
    /// time flows monotonically across the session.
    clock_base: u64,
}

impl StreamingSession {
    /// Opens a session over an initial standing-query set.
    ///
    /// The filter geometry is fixed here — sized for the initial set's
    /// distinct keys (or pinned by
    /// [`DiMatchingConfig::fixed_geometry`]) — and never changes: pin an
    /// explicit geometry with headroom if the query set is expected to
    /// grow far beyond its initial size.
    ///
    /// # Errors
    ///
    /// Propagates configuration, pattern and filter errors.
    pub fn new(
        initial: &[PatternQuery],
        config: DiMatchingConfig,
        options: PipelineOptions,
    ) -> Result<StreamingSession> {
        config.validate()?;
        // One preparation pass per query, reused for both the joint sizing
        // (distinct keys across the whole set) and the registrations.
        let prepared: Vec<crate::datacenter::PreparedBuild> = initial
            .iter()
            .map(|query| prepare_build(std::slice::from_ref(query), &config))
            .collect::<Result<_>>()?;
        let distinct_keys: std::collections::BTreeSet<u64> = prepared
            .iter()
            .flat_map(|build| build.pairs.iter().map(|&(key, _)| key))
            .collect();
        let params = sized_params(distinct_keys.len().max(1), &config)?;
        let retained = WeightedBloomFilter::new(params, config.seed);
        let mut session = StreamingSession {
            config,
            options,
            params,
            live: BTreeMap::new(),
            next_id: 0,
            drained_next_id: 0,
            retired: BTreeMap::new(),
            retained,
            epoch: 0,
            stations: Vec::new(),
            needs_full: true,
            routing: None,
            clock_base: 0,
        };
        for build in prepared {
            session.register_prepared(build);
        }
        Ok(session)
    }

    /// Registers a new standing query: its combination pairs join the
    /// registry, and the positions they change go out as the next epoch's
    /// delta.
    ///
    /// # Errors
    ///
    /// Propagates pattern errors.
    pub fn insert_query(&mut self, query: &PatternQuery) -> Result<StreamQueryId> {
        let build = prepare_build(std::slice::from_ref(query), &self.config)?;
        Ok(self.register_prepared(build))
    }

    fn register_prepared(&mut self, build: crate::datacenter::PreparedBuild) -> StreamQueryId {
        let query = LiveQuery {
            pairs: build.pairs.into_iter().collect(),
            total: build.query_totals[0],
            combinations: build.combinations,
        };
        let id = StreamQueryId(self.next_id);
        self.next_id += 1;
        self.live.insert(id, query);
        id
    }

    /// Retires a standing query: it leaves the live registry, and the
    /// positions only its pairs held go out as the next epoch's delta
    /// (pairs shared with other live queries stay in every build). A query
    /// that was live at the last delta drain is kept until the next one,
    /// because that drain's filter is built from it.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::UnknownStreamQuery`] if `id` is not live.
    pub fn remove_query(&mut self, id: StreamQueryId) -> Result<()> {
        let query = self
            .live
            .remove(&id)
            .ok_or(ProtocolError::UnknownStreamQuery { id: id.0 })?;
        if id.0 < self.drained_next_id {
            self.retired.insert(id, query);
        }
        Ok(())
    }

    /// The ids of the currently live queries, in insertion order.
    pub fn live_queries(&self) -> Vec<StreamQueryId> {
        self.live.keys().copied().collect()
    }

    /// The session's pinned filter geometry.
    pub fn params(&self) -> FilterParams {
        self.params
    }

    /// The next epoch [`StreamingSession::run_epoch`] will run.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The live queries' global volumes, in id order.
    fn totals(&self) -> Vec<u64> {
        self.live.values().map(|q| q.total).collect()
    }

    fn build_stats(&self) -> BuildStats {
        BuildStats {
            combinations: self.live.values().map(|q| q.combinations).sum(),
            inserted_values: self.live.values().map(|q| q.pairs.len() as u64).sum(),
            bits: self.params.bits(),
            hashes: self.params.hashes(),
        }
    }

    /// The registry as of the last drain: the live queries below the drain
    /// mark plus the retired ones.
    fn drained(&self) -> impl Iterator<Item = &LiveQuery> {
        let mark = StreamQueryId(self.drained_next_id);
        let queries = self.live.range(..mark).chain(&self.retired);
        queries.map(|(_, query)| query)
    }

    /// Builds the filter of `queries` at the session's pinned geometry from
    /// their registered pairs in one pass, as the batch center builds.
    fn build<'a>(&self, queries: impl Iterator<Item = &'a LiveQuery>) -> WeightedBloomFilter {
        let pairs = queries.flat_map(|query| query.pairs.iter().copied());
        WeightedBloomFilter::from_pairs(self.params, self.config.seed, pairs)
    }

    /// Runs one epoch over `dataset`: broadcasts the pending filter state
    /// (full on the first epoch, delta after), scans every station's
    /// current local store under the session's
    /// [`ExecutionMode`](dipm_distsim::ExecutionMode), and
    /// aggregates one merged ranking over the live query set.
    ///
    /// The dataset may change freely between epochs (CDR churn) as long as
    /// its station count stays the same — station identity is positional.
    ///
    /// A failed epoch does not wedge the session: the failure may have
    /// left stations mid-protocol, so the next `run_epoch` resyncs them
    /// with a full broadcast and continues from there.
    ///
    /// # Errors
    ///
    /// Propagates configuration, pattern, filter, wire and network errors,
    /// and rejects a dataset whose station count differs from the epoch
    /// that initialized the session.
    pub fn run_epoch(&mut self, dataset: &Dataset) -> Result<EpochOutcome> {
        // A solo session is the one-tenant case of the interleaved engine:
        // fresh per-epoch link state means every frame is stamped straight
        // from `clock_base`, exactly as a lone center would.
        let plan = self.plan_epoch(dataset)?;
        let mut links = Vec::new();
        let mut outcomes = run_interleaved_epochs(&mut [self], vec![plan], dataset, &mut links)?;
        Ok(outcomes.pop().expect("one outcome per session"))
    }

    /// Keeps the routing tree synchronized with this epoch's dataset —
    /// built whole on the first routed epoch; after that, every station
    /// whose key set differs from the previous epoch's is re-summarized — then
    /// routes the union of the live queries' probe keys through it.
    /// Summary refreshes (changed stations only) and the routed plan are
    /// pushed through the wire codecs and metered. Returns the per-station
    /// active mask.
    fn route_epoch(
        &mut self,
        dataset: &Dataset,
        fanout: usize,
        meter: &CostMeter,
    ) -> Result<Vec<bool>> {
        let keys = routing::station_keys(dataset, &self.config)?;
        let changed: Vec<usize> = match &mut self.routing {
            None => {
                let params = routing::summary_params(&keys)?;
                let tree = RoutingTree::from_station_keys(&keys, fanout, params, self.config.seed)?;
                let changed = (0..keys.len()).collect();
                self.routing = Some(SessionRouting { tree, keys });
                changed
            }
            Some(routing_state) => {
                let mut changed = Vec::new();
                for (station, (old, new)) in routing_state.keys.iter().zip(&keys).enumerate() {
                    if old != new {
                        routing_state.tree.set_station(station, new)?;
                        changed.push(station);
                    }
                }
                routing_state.keys = keys;
                changed
            }
        };
        let routing_state = self.routing.as_ref().expect("tree built above");
        let mut routing_bytes = 0u64;
        for &station in &changed {
            routing_bytes += routing::summary_upload_bytes(&routing_state.tree, station)?;
        }
        let keys: Vec<u64> = self
            .live
            .values()
            .flat_map(|q| q.pairs.iter().map(|&(key, _)| key))
            .collect::<std::collections::BTreeSet<u64>>()
            .into_iter()
            .collect();
        let (active, plan_bytes) = routing::metered_route(&routing_state.tree, &keys)?;
        meter.record_routing_bytes(routing_bytes + plan_bytes);
        meter.record_stations_pruned(active.iter().filter(|&&a| !a).count() as u64);
        Ok(active)
    }

    /// Phase 1 of an epoch, and the only place it is computed: builds the
    /// live queries' filter, diffs it against the retained filter of the
    /// registry as of the last drain, which is what delta-path stations
    /// hold, and encodes the full frame and, when some station can take it,
    /// the delta frame. A full-broadcast epoch (session start, a resync)
    /// diffs nothing.
    ///
    /// Pure: nothing changes until `commit_epoch` runs the plan, so a
    /// service can plan and price every tenant before deciding which run.
    /// The per-station delta-path test ignores routing, so admission
    /// budgets against every station being targeted.
    pub(crate) fn plan_epoch(&self, dataset: &Dataset) -> Result<EpochPlan> {
        let start = Instant::now();
        let epoch = self.epoch;
        let totals = self.totals();
        let live = self.build(self.live.values());
        // A station is on the delta path when it applied every epoch up to
        // this one onto a full base; everyone else — session start, a
        // post-failure resync, or a station an earlier epoch's routing
        // pruned — gets the full filter instead.
        let on_delta_path: Vec<bool> = (0..dataset.stations().len())
            .map(|i| {
                !self.needs_full
                    && self
                        .stations
                        .get(i)
                        .is_some_and(|s| s.filter.is_some() && s.applied_epoch + 1 == epoch)
            })
            .collect();
        let full_frame = wire::encode_station_update(&StationUpdate::Full {
            epoch,
            query_totals: totals.clone(),
            filter: encode::encode_wbf(&live)?,
        })?;
        let (broadcast, delta_frame) = if self.needs_full {
            (EpochBroadcast::Full, None)
        } else {
            let delta = live.diff_from(&self.retained)?;
            let broadcast = EpochBroadcast::Delta {
                entries: delta.entries.len(),
            };
            let frame = if on_delta_path.contains(&true) {
                Some(wire::encode_station_update(&StationUpdate::Delta {
                    epoch,
                    query_totals: totals,
                    delta,
                })?)
            } else {
                None
            };
            (broadcast, frame)
        };
        Ok(EpochPlan {
            epoch,
            start,
            live,
            broadcast,
            full_frame,
            delta_frame,
            on_delta_path,
        })
    }

    /// Phase 2 of an epoch: runs `plan` against the session — guards the
    /// station count, initializes stations on the first epoch, routes, and
    /// drains the registry exactly once, so the live registry becomes the
    /// base of the next delta and the plan's live build its retained
    /// filter. Returns the per-station routing mask (all `true` under
    /// broadcast-all).
    fn commit_epoch(
        &mut self,
        plan: &mut EpochPlan,
        dataset: &Dataset,
        meter: &CostMeter,
    ) -> Result<Vec<bool>> {
        debug_assert_eq!(plan.epoch, self.epoch, "a plan runs in its own epoch");
        let station_count = dataset.stations().len();
        if !self.stations.is_empty() && self.stations.len() != station_count {
            return Err(ProtocolError::invalid_config(format!(
                "dataset has {station_count} stations, session was opened with {}",
                self.stations.len()
            )));
        }
        if self.stations.is_empty() {
            self.stations = (0..station_count)
                .map(|_| StationState::default())
                .collect();
        }
        // Query routing: keep the Bloofi tree hot against this epoch's CDR
        // churn and target only stations whose summaries can match the live
        // query set. The default broadcasts to all.
        let active: Vec<bool> = match self.config.routing {
            RoutingPolicy::Tree { fanout } => self.route_epoch(dataset, fanout, meter)?,
            RoutingPolicy::BroadcastAll => vec![true; station_count],
        };
        self.drained_next_id = self.next_id;
        self.retired.clear();
        std::mem::swap(&mut self.retained, &mut plan.live);
        Ok(active)
    }

    /// The split borrow the execution phase needs: every station's mutable
    /// state next to the scan configuration.
    fn exec_parts(&mut self) -> (&mut [StationState], &DiMatchingConfig) {
        (&mut self.stations, &self.config)
    }

    /// Phase 5 of an epoch: Algorithm 3 intake (shared with the batch
    /// pipeline), aggregation, and the epoch-advance bookkeeping.
    fn finish_epoch(
        &mut self,
        tenant: TenantEpoch,
        shard_count: u32,
        station_count: usize,
    ) -> Result<EpochOutcome> {
        let TenantEpoch {
            network,
            center,
            plan,
            broadcast_bytes,
            ..
        } = tenant;
        let collected =
            collect_station_reports(&center, &network, shard_count, station_count as u32)?;
        let mut reports: Vec<(dipm_mobilenet::UserId, Weight)> = Vec::new();
        for (report_frame, _) in &collected.frames {
            for (query, user, weight) in
                wire::decode_tagged_weight_reports(report_frame.payload.clone())?
            {
                if query != 0 {
                    return Err(ProtocolError::malformed_report(format!(
                        "streaming report references section {query} (sessions have one)"
                    )));
                }
                reports.push((user, weight));
            }
        }
        network
            .meter()
            .record_storage(reports.len() as u64 * CENTER_ENTRY_BYTES);
        let weights = aggregate_and_rank(reports, self.options.top_k);
        let cost = network.meter().report();
        let outcome = QueryOutcome {
            method: Method::Wbf,
            ranked: weights.iter().map(|r| r.user).collect(),
            details: MethodDetails::Wbf {
                weights,
                build: self.build_stats(),
            },
            cost,
            elapsed: plan.start.elapsed(),
        };
        self.clock_base = self.clock_base.max(collected.makespan);
        self.epoch += 1;
        self.needs_full = false;

        Ok(EpochOutcome {
            epoch: plan.epoch,
            broadcast: plan.broadcast,
            broadcast_bytes,
            rebuild_bytes: plan.full_frame.len() as u64 * station_count as u64,
            latency: collected.latency,
            outcome,
        })
    }

    /// The latency dimension of the *previous* epoch is carried inside its
    /// [`EpochOutcome::outcome`]; this is the virtual tick the session has
    /// reached (the last async epoch's makespan).
    pub fn clock_base(&self) -> u64 {
        self.clock_base
    }

    /// Serializes the center's session state into one versioned
    /// [`SessionCheckpoint`](crate::wire::SessionCheckpoint) frame: the
    /// live-query registry split at the last delta drain, the configuration
    /// the queries' keys were derived under, and the per-station protocol
    /// positions.
    ///
    /// Two things are absent. The center's filters, the one it retains as
    /// the next delta's base included, are functions of the registry.
    /// Station filters stay on the stations: they retain their
    /// own state across a center crash, and [`StreamingSession::recover`]
    /// resyncs them via the next delta instead of a full re-broadcast.
    ///
    /// # Errors
    ///
    /// Propagates wire-encoding errors.
    pub fn checkpoint(&self) -> Result<Bytes> {
        let registry =
            |queries: &BTreeMap<StreamQueryId, LiveQuery>| -> Vec<wire::CheckpointQuery> {
                queries
                    .iter()
                    .map(|(id, query)| wire::CheckpointQuery {
                        id: id.0,
                        total: query.total,
                        combinations: query.combinations as u64,
                        pairs: query.pairs.clone(),
                    })
                    .collect()
            };
        wire::encode_session_checkpoint(&wire::SessionCheckpoint {
            epoch: self.epoch,
            clock_base: self.clock_base,
            needs_full: self.needs_full,
            bits: self.params.bits() as u64,
            hashes: self.params.hashes(),
            seed: self.config.seed,
            samples: self.config.samples as u64,
            eps: self.config.eps,
            tolerance: self.config.tolerance,
            hash_scheme: self.config.hash_scheme,
            next_id: self.next_id,
            drained_next_id: self.drained_next_id,
            queries: registry(&self.live),
            retired: registry(&self.retired),
            stations: self
                .stations
                .iter()
                .map(|state| wire::CheckpointStation {
                    has_filter: state.filter.is_some(),
                    applied_epoch: state.applied_epoch,
                })
                .collect(),
        })
    }

    /// Dissolves the session into its stations' retained memories — the
    /// state that *survives* a center crash (each base station holds its
    /// own filter). Pair with [`StreamingSession::checkpoint`] to model a
    /// crash: the checkpoint is what the center persisted, the memories
    /// are what the stations still hold.
    pub fn release_stations(self) -> Vec<StationMemory> {
        self.stations.into_iter().map(StationMemory).collect()
    }

    /// Restores a center from a [`checkpoint`](StreamingSession::checkpoint)
    /// frame and the stations' retained memories, resuming the session
    /// exactly where it stopped: the next epoch sends the same delta the
    /// crashed center would have, so the resumed run's station results and
    /// wire bytes are identical to an uninterrupted one.
    ///
    /// The checkpoint holds everything the center keeps but its derived
    /// retained filter: its query registry split at the last drain, and
    /// its epoch bookkeeping. Recovery decodes it, validates it against
    /// `config` and the station memories, restores it, and builds the
    /// retained filter, the next delta's base, from the registry as of the
    /// drain. Under
    /// [`RoutingPolicy::Tree`] the standing Bloofi tree is *not* part of
    /// the checkpoint — the first recovered epoch rebuilds it from the
    /// epoch's dataset and re-uploads station summaries (routing bytes are
    /// re-paid; filter dissemination stays delta-priced).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::MalformedReport`] for a frame that fails
    /// wire validation (including a frame of another checkpoint version),
    /// [`ProtocolError::CheckpointMismatch`] when the frame disagrees with
    /// `config` (seed, samples, eps, tolerance, hash scheme, pinned
    /// geometry) or with the offered station memories (count, filter
    /// presence or geometry, applied epochs).
    pub fn recover(
        frame: Bytes,
        stations: Vec<StationMemory>,
        config: DiMatchingConfig,
        options: PipelineOptions,
    ) -> Result<StreamingSession> {
        let checkpoint = wire::decode_session_checkpoint(frame)?;
        config.validate()?;
        // The recorded pairs were derived under these settings; under any
        // others the stations would scan for keys no query registered.
        same_as_config("seed", checkpoint.seed, config.seed)?;
        same_as_config("samples", checkpoint.samples, config.samples as u64)?;
        same_as_config("eps", checkpoint.eps, config.eps)?;
        same_as_config("tolerance", checkpoint.tolerance, config.tolerance)?;
        same_as_config("hash_scheme", checkpoint.hash_scheme, config.hash_scheme)?;
        let params = FilterParams::new(checkpoint.bits as usize, checkpoint.hashes)?;
        if let Some(fixed) = config.fixed_geometry {
            if fixed != params {
                return Err(ProtocolError::checkpoint_mismatch(format!(
                    "checkpoint geometry {}x{} disagrees with pinned geometry {}x{}",
                    checkpoint.bits,
                    checkpoint.hashes,
                    fixed.bits(),
                    fixed.hashes()
                )));
            }
        }
        if stations.len() != checkpoint.stations.len() {
            return Err(ProtocolError::checkpoint_mismatch(format!(
                "checkpoint records {} stations, {} memories offered",
                checkpoint.stations.len(),
                stations.len()
            )));
        }
        for (i, (memory, recorded)) in stations.iter().zip(&checkpoint.stations).enumerate() {
            if memory.0.filter.is_some() != recorded.has_filter {
                return Err(ProtocolError::checkpoint_mismatch(format!(
                    "station {i} filter presence disagrees with the checkpoint"
                )));
            }
            if memory.0.applied_epoch != recorded.applied_epoch {
                return Err(ProtocolError::checkpoint_mismatch(format!(
                    "station {i} applied epoch {}, checkpoint records {}",
                    memory.0.applied_epoch, recorded.applied_epoch
                )));
            }
            if let Some(filter) = &memory.0.filter {
                if filter.bit_len() as u64 != checkpoint.bits
                    || filter.hashes() != checkpoint.hashes
                {
                    return Err(ProtocolError::checkpoint_mismatch(format!(
                        "station {i} filter geometry disagrees with the checkpoint"
                    )));
                }
            }
        }
        let registry = |queries: Vec<wire::CheckpointQuery>| -> BTreeMap<StreamQueryId, LiveQuery> {
            queries
                .into_iter()
                .map(|query| {
                    let live = LiveQuery {
                        pairs: query.pairs,
                        total: query.total,
                        combinations: query.combinations as usize,
                    };
                    (StreamQueryId(query.id), live)
                })
                .collect()
        };
        let retained = WeightedBloomFilter::new(params, config.seed);
        let mut session = StreamingSession {
            config,
            options,
            params,
            live: registry(checkpoint.queries),
            next_id: checkpoint.next_id,
            drained_next_id: checkpoint.drained_next_id,
            retired: registry(checkpoint.retired),
            retained,
            epoch: checkpoint.epoch,
            stations: stations.into_iter().map(|memory| memory.0).collect(),
            needs_full: checkpoint.needs_full,
            routing: None,
            clock_base: checkpoint.clock_base,
        };
        session.retained = session.build(session.drained());
        Ok(session)
    }
}

/// Rejects a recovery whose config disagrees with the checkpoint on
/// `field`.
fn same_as_config<T: PartialEq + std::fmt::Debug>(
    field: &str,
    recorded: T,
    config: T,
) -> Result<()> {
    if recorded == config {
        return Ok(());
    }
    Err(ProtocolError::checkpoint_mismatch(format!(
        "checkpoint recorded {field} {recorded:?}, config has {config:?}"
    )))
}

/// One base station's state as it survives a center crash: its decoded
/// filter and the last epoch it applied. Produced by
/// [`StreamingSession::release_stations`], consumed by
/// [`StreamingSession::recover`].
#[derive(Debug)]
pub struct StationMemory(StationState);

impl StationMemory {
    /// The last epoch this station applied.
    pub fn applied_epoch(&self) -> u64 {
        self.0.applied_epoch
    }

    /// Whether the station holds a decoded filter.
    pub fn has_filter(&self) -> bool {
        self.0.filter.is_some()
    }
}

/// Phase 3 of an epoch: schedules the plan's frames onto the shared
/// per-station downlinks and returns the bytes they moved. Each station's
/// link serializes: a frame's send tick is the later of the tenant's clock
/// and the tick the link finished its previous frame, so concurrent tenants
/// queue behind each other exactly as they would on real station radios.
/// With fresh (all-zero) links — the solo case — every frame is stamped
/// straight from the tenant's `clock_base`, byte-identically to a lone
/// session. An unmodeled network serializes in zero ticks, so its links
/// never advance.
fn broadcast_plan(
    plan: &EpochPlan,
    active: &[bool],
    clock_base: u64,
    network: &Network,
    links: &mut [u64],
) -> Result<u64> {
    let frames = [
        (Some(&plan.full_frame), false),
        (plan.delta_frame.as_ref(), true),
    ];
    let mut bytes = 0;
    for (frame, delta_path) in frames {
        let stations: Vec<usize> = (0..active.len())
            .filter(|&i| active[i] && plan.on_delta_path[i] == delta_path)
            .collect();
        // A station is on the delta path only when the delta frame exists.
        let Some(frame) = frame.filter(|_| !stations.is_empty()) else {
            continue;
        };
        let serialize = network.latency_model().map_or(0, |model| {
            model.ticks_per_byte.saturating_mul(frame.len() as u64)
        });
        let targets: Vec<(NodeId, u64)> = stations
            .iter()
            .map(|&i| {
                let tick = clock_base.max(links[i]);
                links[i] = tick.saturating_add(serialize);
                (NodeId::base_station(i as u32), tick)
            })
            .collect();
        network.broadcast_each_at(DATA_CENTER, targets, TrafficClass::Query, frame)?;
        // Each recipient holds its copy of the frame while live.
        network
            .meter()
            .record_storage(frame.len() as u64 * stations.len() as u64);
        bytes += frame.len() as u64 * stations.len() as u64;
    }
    Ok(bytes)
}

/// Per-tenant per-epoch runtime: the tenant's private network (its own
/// meter — isolation is structural), its plan, who the plan targets, and
/// what its broadcast moved.
struct TenantEpoch {
    network: Network,
    center: Mailbox,
    mailboxes: Vec<Mailbox>,
    plan: EpochPlan,
    active: Vec<bool>,
    broadcast_bytes: u64,
}

/// Runs one planned epoch for every session over the shared per-station
/// links; `plans[i]` is `sessions[i]`'s own
/// [`plan_epoch`](StreamingSession::plan_epoch).
///
/// This is *the* epoch engine: a solo [`StreamingSession::run_epoch`] is
/// the one-session call of the same code, which is what makes tenant
/// isolation a structural guarantee rather than a property to test into
/// existence — each tenant runs on its own [`Network`] (own meter, own
/// mailboxes), so its byte and operation accounting cannot observe its
/// neighbors. Only modeled *time* couples tenants: under
/// [`ExecutionMode::Async`](dipm_distsim::ExecutionMode::Async) the `links`
/// vector serializes each station's downlink across tenants.
///
/// All sessions must share the same [`PipelineOptions`] (the service
/// guarantees this); the first session's shard layout is used for all.
///
/// On error every session is marked for a full resync — the failure may
/// have struck mid-protocol for any of them.
pub(crate) fn run_interleaved_epochs(
    sessions: &mut [&mut StreamingSession],
    plans: Vec<EpochPlan>,
    dataset: &Dataset,
    links: &mut Vec<u64>,
) -> Result<Vec<EpochOutcome>> {
    let result = interleaved_epochs_inner(sessions, plans, dataset, links);
    if result.is_err() {
        for session in sessions.iter_mut() {
            session.needs_full = true;
            // The failure may have struck mid-diff, leaving the tree out of
            // step with its recorded rows; rebuild it next epoch.
            session.routing = None;
        }
    }
    result
}

fn interleaved_epochs_inner(
    sessions: &mut [&mut StreamingSession],
    plans: Vec<EpochPlan>,
    dataset: &Dataset,
    links: &mut Vec<u64>,
) -> Result<Vec<EpochOutcome>> {
    if sessions.is_empty() {
        return Ok(Vec::new());
    }
    let shards = sessions[0].options.shards;
    let station_count = dataset.stations().len();
    if links.len() < station_count {
        links.resize(station_count, 0);
    }

    // Phases 2 and 3 per tenant, in registration order: commit the plan,
    // then claim the shared downlinks. The first tenant's frames are
    // stamped exactly as a solo run's; later tenants queue behind it. Each
    // tenant gets a fresh network per epoch so nodes re-register and meters
    // stay private.
    let mut tenants: Vec<TenantEpoch> = Vec::with_capacity(sessions.len());
    for (session, mut plan) in sessions.iter_mut().zip(plans) {
        let network = session.options.network();
        let center = network.register(DATA_CENTER)?;
        let mailboxes = (0..station_count)
            .map(|i| network.register(NodeId::base_station(i as u32)))
            .collect::<dipm_distsim::Result<Vec<_>>>()?;
        let active = session.commit_epoch(&mut plan, dataset, network.meter())?;
        let broadcast_bytes = broadcast_plan(&plan, &active, session.clock_base, &network, links)?;
        tenants.push(TenantEpoch {
            network,
            center,
            mailboxes,
            plan,
            active,
            broadcast_bytes,
        });
    }

    // Phase 4: execution. The dataset (and so the shard layout) is shared
    // across tenants — it is the same physical traffic every tenant's
    // standing queries watch.
    let empty = BTreeMap::new();
    let layouts: Vec<BaseStation<'_>> = dataset
        .stations()
        .iter()
        .map(|&station| {
            let locals = dataset.station_locals(station).unwrap_or(&empty);
            BaseStation::from_locals(station, locals, shards)
        })
        .collect();
    // One call per (tenant, active station), tenant by tenant in station
    // order. The update is applied to the station's *retained* filter
    // before the scan, and the report is stamped from the station's own
    // modeled timeline, so tenants' stamps are those of concurrent epochs.
    // Every call runs even if an earlier one failed; the first error in
    // that order is returned.
    let mut results: Vec<Result<()>> = Vec::new();
    for (session, tenant) in sessions.iter_mut().zip(&tenants) {
        let epoch = tenant.plan.epoch;
        let (network, active) = (&tenant.network, &tenant.active);
        let (stations, config) = session.exec_parts();
        let steps = tenant.mailboxes.iter().zip(stations.iter_mut()).enumerate();
        results.extend(
            steps
                .filter(|&(i, _)| active[i])
                .map(|(i, (mailbox, state))| {
                    let envelope = mailbox.recv()?;
                    state.apply(wire::decode_station_update(envelope.payload)?, epoch)?;
                    let (filter, totals) = state.view()?;
                    scan_and_report::<Wbf>(network, i, &layouts[i], envelope.deliver_at, |shard| {
                        scan_shard_wbf(&[(0, filter, totals)], shard, config, Some(network.meter()))
                    })
                }),
        );
    }
    results.into_iter().collect::<Result<()>>()?;

    // Phase 5 per tenant.
    let shard_count = shards.count() as u32;
    let mut outcomes = Vec::with_capacity(sessions.len());
    for (session, tenant) in sessions.iter_mut().zip(tenants) {
        outcomes.push(session.finish_epoch(tenant, shard_count, station_count)?);
    }
    Ok(outcomes)
}

/// One epoch's query churn for [`run_streaming`].
#[derive(Debug, Clone, Default)]
pub struct StreamingUpdate {
    /// Queries to register before the epoch runs.
    pub insert: Vec<PatternQuery>,
    /// Live queries to retire before the epoch runs.
    pub remove: Vec<StreamQueryId>,
}

impl StreamingUpdate {
    /// An epoch with no query churn (pure CDR churn).
    pub fn none() -> StreamingUpdate {
        StreamingUpdate::default()
    }
}

/// Drives a [`StreamingSession`] over a sequence of epochs: for each
/// `(dataset, update)` the update's removals and insertions are applied,
/// then the epoch runs over that dataset snapshot.
///
/// Returns one [`EpochOutcome`] per epoch, in order.
///
/// # Errors
///
/// Propagates session errors; see [`StreamingSession::run_epoch`].
pub fn run_streaming<'a, I>(
    initial: &[PatternQuery],
    epochs: I,
    config: DiMatchingConfig,
    options: PipelineOptions,
) -> Result<Vec<EpochOutcome>>
where
    I: IntoIterator<Item = (&'a Dataset, StreamingUpdate)>,
{
    let mut session = StreamingSession::new(initial, config, options)?;
    let mut outcomes = Vec::new();
    for (dataset, update) in epochs {
        for id in &update.remove {
            session.remove_query(*id)?;
        }
        for query in &update.insert {
            session.insert_query(query)?;
        }
        outcomes.push(session.run_epoch(dataset)?);
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AdmissionPolicy;
    use crate::pipeline::{run_pipeline, SectionGrouping};
    use crate::service::{Service, TenantId};
    use dipm_distsim::{ExecutionMode, LatencyModel};

    fn probe_query(dataset: &Dataset, index: usize) -> PatternQuery {
        let user = dataset.users()[index];
        PatternQuery::from_fragments(dataset.fragments(user.id).unwrap()).unwrap()
    }

    /// The from-scratch comparator: a merged batch run at the session's
    /// pinned geometry.
    fn rebuild_outcome(
        dataset: &Dataset,
        queries: &[PatternQuery],
        session: &StreamingSession,
        options: &PipelineOptions,
    ) -> QueryOutcome {
        let config = DiMatchingConfig {
            fixed_geometry: Some(session.params()),
            ..DiMatchingConfig::default()
        };
        let options = PipelineOptions {
            grouping: SectionGrouping::Merged,
            ..*options
        };
        run_pipeline::<Wbf>(dataset, queries, &config, &options)
            .unwrap()
            .into_merged(None)
    }

    #[test]
    fn first_epoch_matches_the_batch_pipeline() {
        let dataset = Dataset::small(41);
        let query = probe_query(&dataset, 0);
        let options = PipelineOptions::default();
        let mut session = StreamingSession::new(
            std::slice::from_ref(&query),
            DiMatchingConfig::default(),
            options,
        )
        .unwrap();
        let epoch = session.run_epoch(&dataset).unwrap();
        assert_eq!(epoch.broadcast, EpochBroadcast::Full);
        assert_eq!(epoch.broadcast_bytes, epoch.rebuild_bytes);
        let reference = rebuild_outcome(&dataset, &[query], &session, &options);
        assert_eq!(epoch.outcome.ranked, reference.ranked);
        assert_eq!(
            epoch.outcome.cost.report_bytes, reference.cost.report_bytes,
            "identical filter state must produce identical reports"
        );
    }

    #[test]
    fn query_churn_converges_to_the_rebuilt_pipeline() {
        // Insert a query, run, insert another, remove the first: the final
        // epoch must answer exactly like a from-scratch run over the
        // surviving set, and its broadcast must be a delta.
        let dataset = Dataset::small(42);
        let q0 = probe_query(&dataset, 0);
        let q1 = probe_query(&dataset, 5);
        let config = DiMatchingConfig {
            // Headroom: geometry outlives the initial single-query set.
            fixed_geometry: Some(FilterParams::new(1 << 14, 5).unwrap()),
            ..DiMatchingConfig::default()
        };
        let options = PipelineOptions::default();
        let mut session =
            StreamingSession::new(std::slice::from_ref(&q0), config, options).unwrap();
        let first = session.run_epoch(&dataset).unwrap();
        let id0 = session.live_queries()[0];
        session.insert_query(&q1).unwrap();
        session.remove_query(id0).unwrap();
        let second = session.run_epoch(&dataset).unwrap();
        assert!(matches!(second.broadcast, EpochBroadcast::Delta { entries } if entries > 0));
        assert!(
            second.broadcast_bytes != first.broadcast_bytes,
            "delta and full broadcasts must differ"
        );
        let reference = rebuild_outcome(&dataset, &[q1], &session, &options);
        assert_eq!(second.outcome.ranked, reference.ranked);
    }

    #[test]
    fn all_modes_agree_on_streaming_epochs() {
        let day0 = Dataset::small(43);
        let day1 = Dataset::small(44);
        let q0 = probe_query(&day0, 0);
        let q1 = probe_query(&day0, 7);
        let run = |mode: ExecutionMode| {
            let options = PipelineOptions {
                mode,
                shards: crate::basestation::Shards::new(2),
                latency: LatencyModel {
                    base_ticks: 40,
                    ticks_per_byte: 1,
                    ticks_per_row: 2,
                    jitter_ticks: 5,
                    seed: 3,
                },
                ..PipelineOptions::default()
            };
            let epochs = vec![
                (&day0, StreamingUpdate::none()),
                (
                    &day1,
                    StreamingUpdate {
                        insert: vec![q1.clone()],
                        remove: vec![],
                    },
                ),
            ];
            run_streaming(
                std::slice::from_ref(&q0),
                epochs,
                DiMatchingConfig::default(),
                options,
            )
            .unwrap()
        };
        let reference = run(ExecutionMode::Sequential);
        let mode = ExecutionMode::Async { workers: 1 };
        let outcomes = run(mode);
        assert_eq!(outcomes.len(), reference.len());
        for (a, b) in reference.iter().zip(&outcomes) {
            assert_eq!(a.outcome.ranked, b.outcome.ranked, "{mode:?} diverged");
            assert_eq!(
                a.outcome.cost,
                b.outcome.cost.mode_invariant(),
                "{mode:?} moved different bytes"
            );
            assert_eq!(a.broadcast, b.broadcast);
            assert_eq!(a.broadcast_bytes, b.broadcast_bytes);
        }
    }

    #[test]
    fn async_epochs_accumulate_virtual_time() {
        let day0 = Dataset::small(45);
        let day1 = Dataset::small(46);
        let query = probe_query(&day0, 0);
        let options = PipelineOptions {
            mode: ExecutionMode::Async { workers: 1 },
            latency: LatencyModel::default(),
            ..PipelineOptions::default()
        };
        let mut session = StreamingSession::new(
            std::slice::from_ref(&query),
            DiMatchingConfig::default(),
            options,
        )
        .unwrap();
        let first = session.run_epoch(&day0).unwrap();
        let base_after_first = session.clock_base();
        assert!(base_after_first > 0, "async epochs model time");
        let second = session.run_epoch(&day1).unwrap();
        let first_latency = first.latency.as_ref().expect("async models time");
        let second_latency = second.latency.as_ref().expect("async models time");
        assert_eq!(
            first_latency.makespan_ticks,
            first.outcome.cost.makespan_ticks
        );
        assert!(
            second_latency.makespan_ticks > first_latency.makespan_ticks,
            "epoch 1 starts where epoch 0 ended"
        );
        for station in &second_latency.stations {
            assert!(
                station.report_sent >= base_after_first,
                "epoch 1 stamps start from epoch 0's makespan"
            );
        }
        assert!(second.outcome.cost.makespan_ticks >= base_after_first);
    }

    #[test]
    fn pure_cdr_churn_costs_a_near_empty_delta() {
        let day0 = Dataset::small(47);
        let day1 = Dataset::small(48);
        let query = probe_query(&day0, 0);
        let mut session = StreamingSession::new(
            std::slice::from_ref(&query),
            DiMatchingConfig::default(),
            PipelineOptions::default(),
        )
        .unwrap();
        let full = session.run_epoch(&day0).unwrap();
        let delta = session.run_epoch(&day1).unwrap();
        assert_eq!(delta.broadcast, EpochBroadcast::Delta { entries: 0 });
        assert!(
            delta.broadcast_bytes * 10 < full.broadcast_bytes,
            "an empty delta must be far cheaper than the full filter: {} vs {}",
            delta.broadcast_bytes,
            full.broadcast_bytes
        );
        assert!(delta.rebuild_bytes >= full.broadcast_bytes);
    }

    #[test]
    fn station_count_changes_are_rejected_and_the_session_recovers() {
        let day0 = Dataset::small(49);
        let other = Dataset::city_slice(60, 3, 1).unwrap();
        let query = probe_query(&day0, 0);
        let mut session = StreamingSession::new(
            std::slice::from_ref(&query),
            DiMatchingConfig::default(),
            PipelineOptions::default(),
        )
        .unwrap();
        session.run_epoch(&day0).unwrap();
        assert!(session.run_epoch(&other).is_err());
        // A failed epoch must not wedge the session: the next epoch over a
        // valid dataset resyncs stations with a full broadcast (the
        // failure may have left them mid-protocol) and answers normally.
        let recovered = session.run_epoch(&day0).unwrap();
        assert_eq!(recovered.broadcast, EpochBroadcast::Full);
        assert!(recovered.outcome.ranked.contains(&day0.users()[0].id));
        // And the session continues on the delta path afterwards.
        let next = session.run_epoch(&day0).unwrap();
        assert_eq!(next.broadcast, EpochBroadcast::Delta { entries: 0 });
    }

    /// Asserts that `session`'s retained filter is a fresh build of its
    /// registry as of the last drain.
    fn assert_retained_is_the_drained_build(session: &StreamingSession, when: &str) {
        let (retained, fresh) = (&session.retained, session.build(session.drained()));
        assert!(*retained == fresh, "{when}: not the drained build");
        let frame = |filter| encode::encode_wbf(filter).unwrap();
        assert!(frame(retained) == frame(&fresh), "{when}: other bytes");
    }

    #[test]
    fn the_retained_filter_is_the_drained_registry_build() {
        let days: Vec<Dataset> = (60..63).map(Dataset::small).collect();
        let other = Dataset::city_slice(60, 3, 1).unwrap();
        let query = |index| probe_query(&days[0], index);
        let config = DiMatchingConfig {
            fixed_geometry: Some(FilterParams::new(1 << 14, 5).unwrap()),
            ..DiMatchingConfig::default()
        };
        let options = PipelineOptions::default();
        let check = assert_retained_is_the_drained_build;

        // A solo session through churn, a pure CDR epoch, a failed epoch
        // and a crash.
        let mut session =
            StreamingSession::new(&[query(0), query(1)], config.clone(), options).unwrap();
        check(&session, "a new session");
        session.run_epoch(&days[0]).unwrap();
        check(&session, "after the full epoch");
        session.remove_query(session.live_queries()[0]).unwrap();
        session.insert_query(&query(2)).unwrap();
        check(&session, "with churn pending");
        let churned = session.run_epoch(&days[1]).unwrap();
        assert!(matches!(churned.broadcast, EpochBroadcast::Delta { entries } if entries > 0));
        check(&session, "after a churn epoch");
        let pure = session.run_epoch(&days[2]).unwrap();
        assert_eq!(pure.broadcast, EpochBroadcast::Delta { entries: 0 });
        check(&session, "after a pure CDR epoch");
        // A failed epoch leaves the drain, and so the retained filter, as
        // it was; the resync after it sends the full filter.
        session.insert_query(&query(3)).unwrap();
        assert!(session.run_epoch(&other).is_err());
        check(&session, "after a failed epoch");
        let resync = session.run_epoch(&days[0]).unwrap();
        assert_eq!(resync.broadcast, EpochBroadcast::Full);
        check(&session, "after the resync");
        session.remove_query(session.live_queries()[0]).unwrap();
        let frame = session.checkpoint().unwrap();
        let stations = session.release_stations();
        let mut session =
            StreamingSession::recover(frame, stations, config.clone(), options).unwrap();
        check(&session, "a recovered session");
        let recovered = session.run_epoch(&days[1]).unwrap();
        assert!(matches!(recovered.broadcast, EpochBroadcast::Delta { entries } if entries > 0));
        check(&session, "after the recovered epoch");

        // Two tenants under a budget that admits one per epoch, so the
        // other's plan is dropped every epoch.
        let budget = AdmissionPolicy {
            per_station_budget_bytes: Some(1),
        };
        let mut service = Service::with_admission(options, budget);
        for tenant in 0..2 {
            let id = TenantId(tenant);
            let initial = [query(4 + tenant as usize)];
            service.register(id, &initial, config.clone()).unwrap();
            check(service.session(id).unwrap(), "a registered tenant");
        }
        let run = |service: &mut Service, day: &Dataset, when: &str| {
            let epoch = service.run_epoch(day).unwrap();
            assert_eq!(epoch.deferred.len(), 1, "{when}");
            for id in service.tenants() {
                check(service.session(id).unwrap(), when);
            }
            epoch
        };
        // Each tenant's full epoch, then churn for both: tenant 0 runs it
        // while tenant 1 is deferred with its churn pending, then the other
        // way round, and tenant 0's next epoch is pure CDR churn.
        run(&mut service, &days[0], "tenant 0's full epoch");
        run(&mut service, &days[1], "tenant 1's full epoch");
        for (tenant, index) in [(0, 6), (1, 7)] {
            let id = TenantId(tenant);
            service.insert_query(id, &query(index)).unwrap();
            let oldest = service.session(id).unwrap().live_queries()[0];
            service.remove_query(id, oldest).unwrap();
        }
        let epoch = run(&mut service, &days[2], "tenant 0's churn epoch");
        assert_eq!(epoch.deferred, vec![TenantId(1)]);
        run(&mut service, &days[0], "tenant 1's churn epoch");
        let epoch = run(&mut service, &days[1], "tenant 0's pure CDR epoch");
        let outcome = &epoch.outcomes[&TenantId(0)];
        assert_eq!(outcome.broadcast, EpochBroadcast::Delta { entries: 0 });
        // A failed service epoch, then the resync.
        service.insert_query(TenantId(1), &query(8)).unwrap();
        assert!(service.run_epoch(&other).is_err());
        for id in service.tenants() {
            check(service.session(id).unwrap(), "after a failed service epoch");
        }
        run(&mut service, &days[2], "after the failed service epoch");
        // Tenant 1 crashes and recovers, rebuilding its retained filter.
        let crashed = service.deregister(TenantId(1)).unwrap();
        let frame = crashed.checkpoint().unwrap();
        let stations = crashed.release_stations();
        service
            .recover_tenant(TenantId(1), frame, stations, config)
            .unwrap();
        check(service.session(TenantId(1)).unwrap(), "a recovered tenant");
        for day in &days {
            run(&mut service, day, "after the recovery");
        }
    }

    #[test]
    fn routed_epochs_keep_the_tree_equal_to_a_fresh_build() {
        let fanout = 3;
        let config = DiMatchingConfig {
            routing: RoutingPolicy::Tree { fanout },
            ..DiMatchingConfig::default()
        };
        let query = probe_query(&Dataset::small(45), 0);
        let mut session = StreamingSession::new(
            std::slice::from_ref(&query),
            config.clone(),
            PipelineOptions::default(),
        )
        .unwrap();
        let mut pinned = None;
        let mut routing_bytes = Vec::new();
        // The repeated day changes no station's rows.
        for seed in [45, 46, 46, 47] {
            let day = Dataset::small(seed);
            let epoch = session.run_epoch(&day).unwrap();
            routing_bytes.push(epoch.outcome.cost.routing_bytes);
            let tree = &session
                .routing
                .as_ref()
                .expect("routed sessions keep a tree")
                .tree;
            let params = *pinned.get_or_insert(tree.params());
            let keys = routing::station_keys(&day, &config).unwrap();
            let fresh = RoutingTree::from_station_keys(&keys, fanout, params, config.seed).unwrap();
            assert_eq!(
                tree, &fresh,
                "day {seed}: the tree drifted from a fresh build"
            );
        }
        assert!(
            routing_bytes[2] < routing_bytes[1],
            "an unchanged day must upload no summaries: {routing_bytes:?}"
        );
    }

    #[test]
    fn unknown_query_removal_is_rejected() {
        let day0 = Dataset::small(50);
        let query = probe_query(&day0, 0);
        let mut session = StreamingSession::new(
            std::slice::from_ref(&query),
            DiMatchingConfig::default(),
            PipelineOptions::default(),
        )
        .unwrap();
        let err = session.remove_query(StreamQueryId(99)).unwrap_err();
        assert!(matches!(err, ProtocolError::UnknownStreamQuery { id: 99 }));
        // Removing twice fails the second time.
        let id = session.live_queries()[0];
        session.remove_query(id).unwrap();
        assert!(session.remove_query(id).is_err());
    }

    #[test]
    fn station_state_rejects_protocol_violations() {
        let mut state = StationState::default();
        // A delta before any full broadcast is a protocol violation.
        let delta = StationUpdate::Delta {
            epoch: 0,
            query_totals: vec![],
            delta: wire::FilterDelta::default(),
        };
        assert!(state.apply(delta.clone(), 0).is_err());
        // So is an epoch mismatch.
        assert!(state.apply(delta, 3).is_err());
        assert!(state.view().is_err());
    }
}
