//! The multi-tenant standing-query service: many concurrent
//! [`StreamingSession`]s multiplexed over one simulated station
//! deployment.
//!
//! A [`Service`] is the long-lived shape of the streaming layer: each
//! tenant registers its own standing-query session (own filter geometry,
//! own counting filter, own epoch counter), and every service epoch runs
//! all admitted tenants together — one shared station layout, one modeled
//! timeline, shared per-station downlinks — instead of one session at a
//! time.
//!
//! Three properties make the multiplexing safe to reason about:
//!
//! * **Isolation by construction.** Every tenant runs on its own simulated
//!   [`Network`](dipm_distsim::Network) with its own meter, through exactly
//!   the code a solo [`StreamingSession::run_epoch`] runs — the solo path
//!   *is* the one-tenant call of the shared engine. A tenant's
//!   mode-invariant [`CostReport`](dipm_distsim::CostReport) is therefore
//!   byte-identical whether it runs alone or beside any number of noisy
//!   neighbors, under every [`ExecutionMode`](dipm_distsim::ExecutionMode);
//!   only modeled *latency* couples tenants, because concurrent frames
//!   genuinely queue on the shared station links.
//! * **Checkpoint / recovery.** [`Service::checkpoint`] serializes every
//!   tenant's center state into one versioned frame family; a restarted
//!   center ([`Service::recover_tenant`]) resyncs stations via deltas
//!   against the filters they retained, instead of re-broadcasting
//!   everything — the economics `repro service` measures.
//! * **Admission backpressure.** An [`AdmissionPolicy`] bounds each
//!   station's per-epoch update bytes; over-budget tenants are deferred to
//!   the next epoch with their [`deferred_epochs`] meter ticked, never
//!   silently dropped, and longest-deferred tenants are admitted first so
//!   backpressure cannot starve anyone.
//!
//! [`deferred_epochs`]: dipm_distsim::CostReport::deferred_epochs

use std::collections::BTreeMap;

use bytes::Bytes;
use dipm_distsim::{CostMeter, CostReport};
use dipm_mobilenet::Dataset;

use crate::config::{AdmissionPolicy, DiMatchingConfig};
use crate::error::{ProtocolError, Result};
use crate::pipeline::PipelineOptions;
use crate::query::PatternQuery;
use crate::streaming::{
    run_interleaved_epochs, EpochOutcome, StationMemory, StreamQueryId, StreamingSession,
};
use crate::wire;

/// Identifies one tenant of a [`Service`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u64);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant {}", self.0)
    }
}

/// One tenant: its session plus the service-side bookkeeping that outlives
/// individual epochs.
#[derive(Debug)]
struct Tenant {
    session: StreamingSession,
    /// Lifetime cost ledger: every epoch's report absorbed, deferrals
    /// included. Makespans join by maximum (they share one timeline).
    ledger: CostMeter,
    /// Consecutive epochs this tenant has been deferred — the admission
    /// priority key that makes backpressure starvation-free.
    deferred_streak: u64,
}

/// The result of one service epoch: each admitted tenant's
/// [`EpochOutcome`], and who was deferred.
#[derive(Debug)]
pub struct ServiceEpoch {
    /// Per-tenant outcomes, for every tenant admitted this epoch.
    pub outcomes: BTreeMap<TenantId, EpochOutcome>,
    /// Tenants deferred by admission, in the order they were considered.
    /// Their sessions are untouched; their pending churn rides the next
    /// epoch's delta.
    pub deferred: Vec<TenantId>,
}

/// A long-lived multi-tenant standing-query service.
///
/// Each tenant meters on a network of its own, so its mode-invariant costs
/// do not depend on its neighbors. [`Service::checkpoint`] and
/// [`Service::recover_tenant`] restart the center without re-broadcasting
/// everything, and an [`AdmissionPolicy`] defers, never drops, tenants over
/// its per-station byte budget.
///
/// # Examples
///
/// ```
/// use dipm_mobilenet::Dataset;
/// use dipm_protocol::{
///     DiMatchingConfig, PatternQuery, PipelineOptions, Service, TenantId,
/// };
///
/// # fn main() -> Result<(), dipm_protocol::ProtocolError> {
/// let day = Dataset::small(7);
/// let query = |i: usize| {
///     PatternQuery::from_fragments(day.fragments(day.users()[i].id).unwrap())
/// };
///
/// let mut service = Service::new(PipelineOptions::default());
/// service.register(TenantId(0), &[query(0)?], DiMatchingConfig::default())?;
/// service.register(TenantId(1), &[query(3)?], DiMatchingConfig::default())?;
///
/// let epoch = service.run_epoch(&day)?;
/// assert_eq!(epoch.outcomes.len(), 2);
/// assert!(epoch.deferred.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Service {
    options: PipelineOptions,
    admission: AdmissionPolicy,
    tenants: BTreeMap<TenantId, Tenant>,
    /// Per-station downlink high-water marks (virtual ticks), carried
    /// across epochs: a station's link stays claimed until the tick it
    /// finished serializing its last frame.
    links: Vec<u64>,
}

impl Service {
    /// A service with no admission limits.
    pub fn new(options: PipelineOptions) -> Service {
        Service::with_admission(options, AdmissionPolicy::default())
    }

    /// A service with an explicit [`AdmissionPolicy`].
    pub fn with_admission(options: PipelineOptions, admission: AdmissionPolicy) -> Service {
        Service {
            options,
            admission,
            tenants: BTreeMap::new(),
            links: Vec::new(),
        }
    }

    /// The service's shared execution options. Every tenant session runs
    /// under these — one shared deployment has one mode, one latency model
    /// and one shard layout.
    pub fn options(&self) -> &PipelineOptions {
        &self.options
    }

    /// The service's admission policy.
    pub fn admission(&self) -> AdmissionPolicy {
        self.admission
    }

    /// The registered tenants, in id order.
    pub fn tenants(&self) -> Vec<TenantId> {
        self.tenants.keys().copied().collect()
    }

    /// Registers a new tenant with its initial standing-query set. The
    /// tenant's filter geometry is pinned here, exactly like a solo
    /// [`StreamingSession::new`].
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::DuplicateTenant`] if `id` is already
    /// registered (the existing tenant is untouched), and propagates
    /// session-construction errors.
    pub fn register(
        &mut self,
        id: TenantId,
        initial: &[PatternQuery],
        config: DiMatchingConfig,
    ) -> Result<()> {
        if self.tenants.contains_key(&id) {
            return Err(ProtocolError::DuplicateTenant { id: id.0 });
        }
        let session = StreamingSession::new(initial, config, self.options)?;
        self.insert_tenant(id, session);
        Ok(())
    }

    /// Removes a tenant, returning its session (checkpoint it, dissolve it
    /// into station memories, or drop it).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::UnknownTenant`] if `id` is not registered.
    pub fn deregister(&mut self, id: TenantId) -> Result<StreamingSession> {
        self.tenants
            .remove(&id)
            .map(|tenant| tenant.session)
            .ok_or(ProtocolError::UnknownTenant { id: id.0 })
    }

    /// Registers a new standing query for `id`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::UnknownTenant`] for an unregistered id and
    /// propagates session errors.
    pub fn insert_query(&mut self, id: TenantId, query: &PatternQuery) -> Result<StreamQueryId> {
        self.tenant_mut(id)?.session.insert_query(query)
    }

    /// Retires a standing query of `id`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::UnknownTenant`] for an unregistered id and
    /// propagates session errors.
    pub fn remove_query(&mut self, id: TenantId, query: StreamQueryId) -> Result<()> {
        self.tenant_mut(id)?.session.remove_query(query)
    }

    /// Read access to a tenant's session (epoch number, live queries,
    /// fill ratio, checkpointing).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::UnknownTenant`] if `id` is not registered.
    pub fn session(&self, id: TenantId) -> Result<&StreamingSession> {
        Ok(&self.tenant(id)?.session)
    }

    /// The tenant's lifetime cost ledger: every epoch it ran absorbed into
    /// one [`CostReport`] (makespans joined by maximum — tenants share one
    /// timeline), plus a [`deferred_epochs`] count of admission deferrals.
    ///
    /// [`deferred_epochs`]: CostReport::deferred_epochs
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::UnknownTenant`] if `id` is not registered.
    pub fn tenant_report(&self, id: TenantId) -> Result<CostReport> {
        Ok(self.tenant(id)?.ledger.report())
    }

    /// Runs one service epoch over `dataset`: admission first (center-side,
    /// before any frame flies), then every admitted tenant's epoch over the
    /// shared station links.
    ///
    /// Admission considers tenants longest-deferred first (ties in id
    /// order). Deferred tenants' sessions are untouched — no drain, no
    /// routing mutation — and their ledgers record the deferral.
    ///
    /// # Errors
    ///
    /// Propagates any admitted tenant's epoch error; like a solo failed
    /// epoch, every admitted session then resyncs with a full broadcast on
    /// its next run.
    pub fn run_epoch(&mut self, dataset: &Dataset) -> Result<ServiceEpoch> {
        let station_count = dataset.stations().len();
        if self.links.len() < station_count {
            self.links.resize(station_count, 0);
        }

        // Admission: longest-deferred first so backpressure is
        // starvation-free, ids as the deterministic tie-break.
        let mut order: Vec<TenantId> = self.tenants.keys().copied().collect();
        order.sort_by_key(|id| (std::cmp::Reverse(self.tenants[id].deferred_streak), *id));
        let mut admitted: Vec<TenantId> = Vec::new();
        let mut deferred: Vec<TenantId> = Vec::new();
        let mut inflight = vec![0u64; station_count];
        for id in order {
            let budget = self.admission.per_station_budget_bytes;
            let tenant = self.tenants.get_mut(&id).expect("id from key iteration");
            let fits = match budget {
                None => true,
                Some(budget) => {
                    let planned = tenant.session.planned_station_bytes(station_count)?;
                    let fits = planned
                        .iter()
                        .zip(&inflight)
                        .all(|(&bytes, &used)| used == 0 || used.saturating_add(bytes) <= budget);
                    if fits {
                        for (used, &bytes) in inflight.iter_mut().zip(&planned) {
                            *used = used.saturating_add(bytes);
                        }
                    }
                    fits
                }
            };
            if fits {
                admitted.push(id);
            } else {
                tenant.deferred_streak += 1;
                tenant.ledger.record_deferred_epoch();
                deferred.push(id);
            }
        }

        // Run the admitted tenants in admission order — the order they
        // claim the shared downlinks.
        let rank: BTreeMap<TenantId, usize> = admitted
            .iter()
            .enumerate()
            .map(|(order, &id)| (id, order))
            .collect();
        let mut entries: Vec<(TenantId, &mut Tenant)> = self
            .tenants
            .iter_mut()
            .filter(|(id, _)| rank.contains_key(id))
            .map(|(&id, tenant)| (id, tenant))
            .collect();
        entries.sort_by_key(|(id, _)| rank[id]);
        let mut sessions: Vec<&mut StreamingSession> = entries
            .iter_mut()
            .map(|(_, tenant)| &mut tenant.session)
            .collect();
        let epoch_outcomes = run_interleaved_epochs(&mut sessions, dataset, &mut self.links)?;

        let mut outcomes = BTreeMap::new();
        for ((id, tenant), outcome) in entries.into_iter().zip(epoch_outcomes) {
            tenant.ledger.absorb(&outcome.outcome.cost);
            tenant.deferred_streak = 0;
            outcomes.insert(id, outcome);
        }
        Ok(ServiceEpoch { outcomes, deferred })
    }

    /// Serializes every tenant's session checkpoint into one versioned
    /// service frame (see [`wire::encode_service_checkpoint`]).
    ///
    /// # Errors
    ///
    /// Propagates wire-encoding errors.
    pub fn checkpoint(&self) -> Result<Bytes> {
        let frames: Vec<(u64, Bytes)> = self
            .tenants
            .iter()
            .map(|(id, tenant)| Ok((id.0, tenant.session.checkpoint()?)))
            .collect::<Result<_>>()?;
        wire::encode_service_checkpoint(&frames)
    }

    /// Serializes one tenant's session checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::UnknownTenant`] for an unregistered id and
    /// propagates wire-encoding errors.
    pub fn checkpoint_tenant(&self, id: TenantId) -> Result<Bytes> {
        self.tenant(id)?.session.checkpoint()
    }

    /// Registers a tenant recovered from a checkpoint frame plus the
    /// station memories that survived the crash — the restarted-center
    /// path: the recovered session resyncs stations via its next delta
    /// instead of a full re-broadcast. The recovered tenant's ledger
    /// starts fresh (the crashed center's meters died with it).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::DuplicateTenant`] if `id` is already
    /// registered (untouched on rejection) and propagates
    /// [`StreamingSession::recover`] errors.
    pub fn recover_tenant(
        &mut self,
        id: TenantId,
        frame: Bytes,
        stations: Vec<StationMemory>,
        config: DiMatchingConfig,
    ) -> Result<()> {
        if self.tenants.contains_key(&id) {
            return Err(ProtocolError::DuplicateTenant { id: id.0 });
        }
        let session = StreamingSession::recover(frame, stations, config, self.options)?;
        self.insert_tenant(id, session);
        Ok(())
    }

    fn insert_tenant(&mut self, id: TenantId, session: StreamingSession) {
        self.tenants.insert(
            id,
            Tenant {
                session,
                ledger: CostMeter::new(),
                deferred_streak: 0,
            },
        );
    }

    fn tenant(&self, id: TenantId) -> Result<&Tenant> {
        self.tenants
            .get(&id)
            .ok_or(ProtocolError::UnknownTenant { id: id.0 })
    }

    fn tenant_mut(&mut self, id: TenantId) -> Result<&mut Tenant> {
        self.tenants
            .get_mut(&id)
            .ok_or(ProtocolError::UnknownTenant { id: id.0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query(dataset: &Dataset, index: usize) -> PatternQuery {
        let user = dataset.users()[index];
        PatternQuery::from_fragments(dataset.fragments(user.id).unwrap()).unwrap()
    }

    #[test]
    fn duplicate_registration_is_rejected_and_state_untouched() {
        let day = Dataset::small(11);
        let mut service = Service::new(PipelineOptions::default());
        service
            .register(TenantId(7), &[query(&day, 0)], DiMatchingConfig::default())
            .unwrap();
        let before = service.session(TenantId(7)).unwrap().live_queries();
        let err = service
            .register(TenantId(7), &[query(&day, 1)], DiMatchingConfig::default())
            .unwrap_err();
        assert!(matches!(err, ProtocolError::DuplicateTenant { id: 7 }));
        assert_eq!(service.session(TenantId(7)).unwrap().live_queries(), before);
        assert_eq!(service.tenants(), vec![TenantId(7)]);
    }

    #[test]
    fn unknown_tenant_operations_are_rejected() {
        let day = Dataset::small(12);
        let mut service = Service::new(PipelineOptions::default());
        let missing = TenantId(3);
        assert!(matches!(
            service.deregister(missing).unwrap_err(),
            ProtocolError::UnknownTenant { id: 3 }
        ));
        assert!(matches!(
            service.insert_query(missing, &query(&day, 0)).unwrap_err(),
            ProtocolError::UnknownTenant { id: 3 }
        ));
        assert!(matches!(
            service.remove_query(missing, StreamQueryId(0)).unwrap_err(),
            ProtocolError::UnknownTenant { id: 3 }
        ));
        assert!(matches!(
            service.tenant_report(missing).unwrap_err(),
            ProtocolError::UnknownTenant { id: 3 }
        ));
        assert!(matches!(
            service.checkpoint_tenant(missing).unwrap_err(),
            ProtocolError::UnknownTenant { id: 3 }
        ));
    }

    #[test]
    fn deregister_returns_the_live_session() {
        let day = Dataset::small(13);
        let mut service = Service::new(PipelineOptions::default());
        service
            .register(TenantId(0), &[query(&day, 0)], DiMatchingConfig::default())
            .unwrap();
        service.run_epoch(&day).unwrap();
        let session = service.deregister(TenantId(0)).unwrap();
        assert_eq!(session.epoch(), 1);
        assert!(service.tenants().is_empty());
    }

    #[test]
    fn ledger_accumulates_across_epochs() {
        let day = Dataset::small(14);
        let mut service = Service::new(PipelineOptions::default());
        service
            .register(TenantId(0), &[query(&day, 0)], DiMatchingConfig::default())
            .unwrap();
        let first = service.run_epoch(&day).unwrap();
        let after_one = service.tenant_report(TenantId(0)).unwrap();
        assert_eq!(
            after_one.query_bytes,
            first.outcomes[&TenantId(0)].outcome.cost.query_bytes
        );
        service.run_epoch(&day).unwrap();
        let after_two = service.tenant_report(TenantId(0)).unwrap();
        assert!(after_two.query_bytes > after_one.query_bytes);
        assert_eq!(after_two.deferred_epochs, 0);
    }

    #[test]
    fn recover_tenant_rejects_a_live_id() {
        let day = Dataset::small(15);
        let mut service = Service::new(PipelineOptions::default());
        let config = DiMatchingConfig::default();
        service
            .register(TenantId(0), &[query(&day, 0)], config.clone())
            .unwrap();
        let frame = service.checkpoint_tenant(TenantId(0)).unwrap();
        let err = service
            .recover_tenant(TenantId(0), frame, Vec::new(), config)
            .unwrap_err();
        assert!(matches!(err, ProtocolError::DuplicateTenant { id: 0 }));
        assert_eq!(service.tenants(), vec![TenantId(0)]);
    }
}
