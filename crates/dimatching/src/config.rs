//! Protocol configuration.

use dipm_core::{tagged_key, FilterParams};
use dipm_timeseries::ToleranceMode;

use crate::error::{ProtocolError, Result};

/// What the hash functions see for each sampled point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum HashScheme {
    /// Hash the accumulated value alone — the paper's design: the
    /// accumulation transform already encodes time order (default).
    #[default]
    ValueOnly,
    /// Hash `(sample position, accumulated value)` pairs — an ablation that
    /// strictly reduces cross-position false positives, quantifying how much
    /// of the ordering information accumulation alone recovers.
    PositionTagged,
}

impl HashScheme {
    /// The probe key for a sampled point.
    #[inline]
    pub fn key(self, sample_index: usize, value: u64) -> u64 {
        match self {
            HashScheme::ValueOnly => value,
            HashScheme::PositionTagged => tagged_key(sample_index as u32, value),
        }
    }
}

/// How the data center decides which stations receive a query broadcast.
///
/// Orthogonal to `FilterStrategy` × `ExecutionMode`:
/// routing is a center-side decision made **before** any station work is
/// scheduled, so it is mode-invariant by construction, and every policy is
/// conformance-pinned to produce the same rankings as broadcasting to all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum RoutingPolicy {
    /// Every station receives every query broadcast — the paper's cost
    /// model (default).
    #[default]
    BroadcastAll,
    /// A Bloofi-style tree of OR-merged station summary filters: the center
    /// descends only into subtrees whose union summary can match the
    /// query's probe keys, and only the surviving leaf stations receive the
    /// broadcast. Falls back to broadcast when the tree is degenerate
    /// (fewer than two stations).
    Tree {
        /// Children per interior node; must be at least 2.
        fanout: usize,
    },
}

impl RoutingPolicy {
    /// Both policies, broadcast first.
    pub const ALL: [RoutingPolicy; 2] = [
        RoutingPolicy::BroadcastAll,
        RoutingPolicy::Tree { fanout: 4 },
    ];

    /// Whether this policy can exclude stations from a broadcast.
    #[inline]
    pub fn prunes_stations(self) -> bool {
        matches!(self, RoutingPolicy::Tree { .. })
    }
}

/// Admission backpressure for the multi-tenant [`Service`](crate::Service):
/// how much update traffic each station's downlink accepts per service
/// epoch.
///
/// Admission is decided center-side before any frame flies. Each tenant's
/// epoch is planned once, and each station is charged the length of the
/// frame that plan sends it — the delta frame on the delta path, the full
/// frame off it — routing-blind, so the budget holds even if every station
/// ends up targeted. An admitted tenant runs the plan it was priced by. A
/// tenant that does not fit is **deferred, never dropped**: planning
/// changed nothing, so its session is as it was — pending query churn
/// simply accumulates into the next epoch's delta — and the deferral is
/// recorded on its [`deferred_epochs`] meter.
///
/// [`deferred_epochs`]: dipm_distsim::CostReport::deferred_epochs
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct AdmissionPolicy {
    /// Per-station in-flight budget in bytes per service epoch. `None`
    /// (the default) admits every tenant. The first tenant claiming an
    /// idle station link is always admitted even over budget, so an
    /// over-sized full broadcast still makes progress; each further tenant
    /// is admitted only if every station link stays within budget.
    pub per_station_budget_bytes: Option<u64>,
}

impl AdmissionPolicy {
    /// A policy with a per-station budget of `bytes` per epoch.
    pub fn per_station(bytes: u64) -> AdmissionPolicy {
        AdmissionPolicy {
            per_station_budget_bytes: Some(bytes),
        }
    }

    /// Whether this policy can defer tenants at all.
    #[inline]
    pub fn limits(&self) -> bool {
        self.per_station_budget_bytes.is_some()
    }
}

/// Configuration of one DI-matching run.
///
/// A passive parameter block: fields are public and a [`Default`] matching
/// the paper's settings is provided (`b = 12` samples per Section V-B,
/// `ε = 2`, 1 % target false-positive rate). Call
/// [`DiMatchingConfig::validate`] before use; the pipeline does so on entry.
///
/// # Examples
///
/// ```
/// use dipm_protocol::DiMatchingConfig;
///
/// let mut config = DiMatchingConfig::default();
/// config.eps = 3;
/// assert!(config.validate().is_ok());
/// assert_eq!(config.samples, 12); // the paper's converged b
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DiMatchingConfig {
    /// Number of sampled points per pattern (`b`); the paper converges at 12.
    pub samples: usize,
    /// Per-interval similarity tolerance (`ε` of Eq. 2).
    pub eps: u64,
    /// Target false-positive probability used to size the filter.
    pub target_fpp: f64,
    /// Lower bound on the filter size in bits (keeps tiny queries sane).
    pub min_bits: usize,
    /// Pins the filter geometry instead of sizing it from the query set.
    /// `None` (the default) derives the geometry from the distinct key
    /// count, `target_fpp` and `min_bits`. Streaming sessions pin the
    /// geometry they started with — incremental updates cannot resize a
    /// filter — and equivalence tests pin it to compare an incrementally
    /// maintained filter against a from-scratch build.
    pub fixed_geometry: Option<FilterParams>,
    /// What the hash functions see per sampled point.
    pub hash_scheme: HashScheme,
    /// How ε expands into bands over accumulated samples.
    pub tolerance: ToleranceMode,
    /// How the center decides which stations receive a query broadcast
    /// (result-exact; the default broadcasts to all).
    pub routing: RoutingPolicy,
    /// Seed for the filter's hash family; broadcast in the filter header.
    pub seed: u64,
}

impl Default for DiMatchingConfig {
    fn default() -> Self {
        DiMatchingConfig {
            samples: 12,
            eps: 2,
            target_fpp: 0.01,
            min_bits: 1 << 10,
            fixed_geometry: None,
            hash_scheme: HashScheme::ValueOnly,
            tolerance: ToleranceMode::Accumulated,
            routing: RoutingPolicy::BroadcastAll,
            seed: 0xD1_4A7C,
        }
    }
}

impl DiMatchingConfig {
    /// Checks the configuration for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if `samples` is zero,
    /// `target_fpp` is outside `(0, 1)` or `min_bits` is zero.
    pub fn validate(&self) -> Result<()> {
        if self.samples == 0 {
            return Err(ProtocolError::invalid_config("samples must be non-zero"));
        }
        if !(self.target_fpp > 0.0 && self.target_fpp < 1.0) {
            return Err(ProtocolError::invalid_config(
                "target false-positive probability must lie in (0, 1)",
            ));
        }
        if self.min_bits == 0 {
            return Err(ProtocolError::invalid_config("min_bits must be non-zero"));
        }
        if let RoutingPolicy::Tree { fanout } = self.routing {
            if fanout < 2 {
                return Err(ProtocolError::invalid_config(
                    "routing tree fanout must be at least 2",
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let c = DiMatchingConfig::default();
        assert_eq!(c.samples, 12);
        assert_eq!(c.hash_scheme, HashScheme::ValueOnly);
        assert_eq!(c.tolerance, ToleranceMode::Accumulated);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_values() {
        let c = DiMatchingConfig {
            samples: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = DiMatchingConfig {
            target_fpp: 0.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = DiMatchingConfig {
            target_fpp: 1.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = DiMatchingConfig {
            min_bits: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        for fanout in [0, 1] {
            let c = DiMatchingConfig {
                routing: RoutingPolicy::Tree { fanout },
                ..Default::default()
            };
            assert!(c.validate().is_err(), "fanout {fanout} must be rejected");
        }
    }

    #[test]
    fn routing_policy_axis() {
        assert_eq!(RoutingPolicy::default(), RoutingPolicy::BroadcastAll);
        assert_eq!(
            DiMatchingConfig::default().routing,
            RoutingPolicy::BroadcastAll
        );
        assert!(!RoutingPolicy::BroadcastAll.prunes_stations());
        assert!(RoutingPolicy::Tree { fanout: 2 }.prunes_stations());
        for policy in RoutingPolicy::ALL {
            let c = DiMatchingConfig {
                routing: policy,
                ..Default::default()
            };
            assert!(c.validate().is_ok(), "{policy:?} must validate");
        }
    }

    #[test]
    fn value_only_keys_ignore_position() {
        assert_eq!(
            HashScheme::ValueOnly.key(0, 42),
            HashScheme::ValueOnly.key(5, 42)
        );
    }

    #[test]
    fn position_tagged_keys_distinguish_position() {
        assert_ne!(
            HashScheme::PositionTagged.key(0, 42),
            HashScheme::PositionTagged.key(1, 42)
        );
    }
}
