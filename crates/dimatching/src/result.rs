//! Query outcomes: rankings plus the costs incurred producing them.

use std::collections::BTreeMap;
use std::time::Duration;

use dipm_distsim::{CostReport, LatencyReport};
use dipm_mobilenet::UserId;

use crate::datacenter::{BuildStats, RankedUser};

/// Which retrieval method produced an outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Ship everything to the center, match there (Approach 1).
    Naive,
    /// DI-matching with a plain Bloom filter.
    Bloom,
    /// DI-matching with the weighted Bloom filter.
    Wbf,
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Method::Naive => "naive",
            Method::Bloom => "bf",
            Method::Wbf => "wbf",
        })
    }
}

/// Method-specific detail attached to an outcome.
#[derive(Debug, Clone)]
pub enum MethodDetails {
    /// WBF: the exact aggregated weights and filter build statistics.
    Wbf {
        /// Per-user aggregated weights in rank order.
        weights: Vec<RankedUser>,
        /// Filter construction statistics.
        build: BuildStats,
    },
    /// Bloom baseline: per-user count of reporting stations.
    Bloom {
        /// `(user, reporting-station count)` in rank order.
        station_counts: Vec<(UserId, u32)>,
        /// Filter construction statistics.
        build: BuildStats,
    },
    /// Naive baseline: per-user best Chebyshev distance to any query global.
    Naive {
        /// `(user, distance)` in rank order.
        distances: Vec<(UserId, u64)>,
    },
}

/// The result of running one method over one dataset and query set.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Which method ran.
    pub method: Method,
    /// Retrieved users in rank order (already truncated to top-K if asked).
    pub ranked: Vec<UserId>,
    /// Method-specific ranking detail.
    pub details: MethodDetails,
    /// Metered communication/storage/operation costs.
    pub cost: CostReport,
    /// Wall-clock time of the full run.
    pub elapsed: Duration,
}

impl QueryOutcome {
    /// The retrieved users as an iterator (rank order).
    pub fn retrieved(&self) -> impl Iterator<Item = UserId> + '_ {
        self.ranked.iter().copied()
    }
}

/// One query's answer within a batch run.
#[derive(Debug, Clone)]
pub struct QueryVerdict {
    /// Retrieved users in rank order (truncated to top-K if asked).
    pub ranked: Vec<UserId>,
    /// Method-specific ranking detail for this query.
    pub details: MethodDetails,
}

impl QueryVerdict {
    /// The retrieved users as an iterator (rank order).
    pub fn retrieved(&self) -> impl Iterator<Item = UserId> + '_ {
        self.ranked.iter().copied()
    }
}

/// The result of one batch pipeline run: per-query rankings plus the costs
/// of the *shared* run — one filter broadcast, one scan pass per station,
/// one report per station, however many queries the batch carries.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Which method ran.
    pub method: Method,
    /// One verdict per submitted query, in submission order.
    pub queries: Vec<QueryVerdict>,
    /// Metered communication/storage/operation costs of the whole batch.
    pub cost: CostReport,
    /// The latency dimension — modeled per-station critical paths and the
    /// run's modeled makespan. `Some` only under
    /// `ExecutionMode::Async`; `ExecutionMode::Sequential` does not model
    /// time.
    pub latency: Option<LatencyReport>,
    /// Wall-clock time of the full batch run.
    pub elapsed: Duration,
}

impl BatchOutcome {
    /// Collapses the per-query verdicts into one merged [`QueryOutcome`] —
    /// the campaign view ("everyone matching *any* of the batch") and the
    /// contract of the legacy single-outcome entry points.
    ///
    /// Per user, the best score across queries wins: highest weight sum for
    /// WBF (ties by most reports), highest station count for Bloom, smallest
    /// distance for naive. A single-verdict batch merges to itself,
    /// truncated to `top_k` like any other merge.
    pub fn into_merged(self, top_k: Option<usize>) -> QueryOutcome {
        let method = self.method;
        let (ranked, details) = if self.queries.len() == 1 {
            let mut verdict = self.queries.into_iter().next().expect("one verdict");
            truncate_verdict(&mut verdict, top_k);
            (verdict.ranked, verdict.details)
        } else {
            merge_verdicts(method, self.queries, top_k)
        };
        QueryOutcome {
            method,
            ranked,
            details,
            cost: self.cost,
            elapsed: self.elapsed,
        }
    }
}

/// Applies a top-K cut to one verdict's ranking and its detail lists (they
/// mirror each other entry for entry).
fn truncate_verdict(verdict: &mut QueryVerdict, top_k: Option<usize>) {
    let Some(k) = top_k else { return };
    verdict.ranked.truncate(k);
    match &mut verdict.details {
        MethodDetails::Wbf { weights, .. } => weights.truncate(k),
        MethodDetails::Bloom { station_counts, .. } => station_counts.truncate(k),
        MethodDetails::Naive { distances } => distances.truncate(k),
    }
}

fn merge_verdicts(
    method: Method,
    verdicts: Vec<QueryVerdict>,
    top_k: Option<usize>,
) -> (Vec<UserId>, MethodDetails) {
    match method {
        Method::Wbf => {
            let mut best: BTreeMap<UserId, RankedUser> = BTreeMap::new();
            let mut build = BuildStats::default();
            for verdict in verdicts {
                let MethodDetails::Wbf { weights, build: b } = verdict.details else {
                    unreachable!("wbf batch carries wbf details");
                };
                build = build.merged_with(b);
                for entry in weights {
                    best.entry(entry.user)
                        .and_modify(|cur| {
                            if (entry.weight_sum, entry.reports) > (cur.weight_sum, cur.reports) {
                                *cur = entry;
                            }
                        })
                        .or_insert(entry);
                }
            }
            let mut weights: Vec<RankedUser> = best.into_values().collect();
            weights.sort_unstable_by(|a, b| {
                b.weight_sum
                    .cmp(&a.weight_sum)
                    .then_with(|| b.reports.cmp(&a.reports))
                    .then_with(|| a.user.cmp(&b.user))
            });
            if let Some(k) = top_k {
                weights.truncate(k);
            }
            let ranked = weights.iter().map(|r| r.user).collect();
            (ranked, MethodDetails::Wbf { weights, build })
        }
        Method::Bloom => {
            let mut best: BTreeMap<UserId, u32> = BTreeMap::new();
            let mut build = BuildStats::default();
            for verdict in verdicts {
                let MethodDetails::Bloom {
                    station_counts,
                    build: b,
                } = verdict.details
                else {
                    unreachable!("bloom batch carries bloom details");
                };
                build = build.merged_with(b);
                for (user, count) in station_counts {
                    best.entry(user)
                        .and_modify(|cur| *cur = (*cur).max(count))
                        .or_insert(count);
                }
            }
            let mut station_counts: Vec<(UserId, u32)> = best.into_iter().collect();
            station_counts.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            if let Some(k) = top_k {
                station_counts.truncate(k);
            }
            let ranked = station_counts.iter().map(|&(u, _)| u).collect();
            (
                ranked,
                MethodDetails::Bloom {
                    station_counts,
                    build,
                },
            )
        }
        Method::Naive => {
            let mut best: BTreeMap<UserId, u64> = BTreeMap::new();
            for verdict in verdicts {
                let MethodDetails::Naive { distances } = verdict.details else {
                    unreachable!("naive batch carries naive details");
                };
                for (user, distance) in distances {
                    best.entry(user)
                        .and_modify(|cur| *cur = (*cur).min(distance))
                        .or_insert(distance);
                }
            }
            let mut distances: Vec<(UserId, u64)> = best.into_iter().collect();
            distances.sort_unstable_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
            if let Some(k) = top_k {
                distances.truncate(k);
            }
            let ranked = distances.iter().map(|&(u, _)| u).collect();
            (ranked, MethodDetails::Naive { distances })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_display() {
        assert_eq!(Method::Naive.to_string(), "naive");
        assert_eq!(Method::Bloom.to_string(), "bf");
        assert_eq!(Method::Wbf.to_string(), "wbf");
    }

    #[test]
    fn single_verdict_merge_still_applies_top_k() {
        // The fast path must truncate exactly like the multi-verdict merge:
        // a post-hoc `into_merged(Some(k))` cannot depend on batch size.
        let distances: Vec<(UserId, u64)> = (0..5).map(|i| (UserId(i), i)).collect();
        let batch = BatchOutcome {
            method: Method::Naive,
            queries: vec![QueryVerdict {
                ranked: distances.iter().map(|&(u, _)| u).collect(),
                details: MethodDetails::Naive { distances },
            }],
            cost: CostReport::default(),
            latency: None,
            elapsed: Duration::ZERO,
        };
        let merged = batch.into_merged(Some(2));
        assert_eq!(merged.ranked, vec![UserId(0), UserId(1)]);
        let MethodDetails::Naive { distances } = merged.details else {
            panic!("wrong detail variant");
        };
        assert_eq!(distances.len(), 2, "details must be cut with the ranking");
    }

    #[test]
    fn merge_sorts_break_every_tie_deterministically() {
        // All three merge sorts are unstable, so each comparator must reach
        // the user-id tie-breaker: tied users come out ascending and the
        // result is invariant under verdict order.
        use dipm_core::Weight;

        let wbf_users = |users: &[u64], num: u64, den: u64| -> QueryVerdict {
            let weights: Vec<RankedUser> = users
                .iter()
                .map(|&u| RankedUser {
                    user: UserId(u),
                    weight_sum: Weight::new(num, den).unwrap(),
                    reports: 2,
                })
                .collect();
            QueryVerdict {
                ranked: weights.iter().map(|r| r.user).collect(),
                details: MethodDetails::Wbf {
                    weights,
                    build: BuildStats::default(),
                },
            }
        };
        let (ranked, _) = merge_verdicts(
            Method::Wbf,
            vec![wbf_users(&[9, 4], 1, 2), wbf_users(&[7, 2], 1, 2)],
            None,
        );
        assert_eq!(ranked, vec![UserId(2), UserId(4), UserId(7), UserId(9)]);

        let bloom = |counts: Vec<(u64, u32)>| -> QueryVerdict {
            let station_counts: Vec<(UserId, u32)> =
                counts.into_iter().map(|(u, c)| (UserId(u), c)).collect();
            QueryVerdict {
                ranked: station_counts.iter().map(|&(u, _)| u).collect(),
                details: MethodDetails::Bloom {
                    station_counts,
                    build: BuildStats::default(),
                },
            }
        };
        let (ranked, _) = merge_verdicts(
            Method::Bloom,
            vec![bloom(vec![(8, 3), (1, 3)]), bloom(vec![(5, 3), (2, 9)])],
            None,
        );
        assert_eq!(
            ranked,
            vec![UserId(2), UserId(1), UserId(5), UserId(8)],
            "count 9 first, then the three-way count tie in user order"
        );

        let naive = |distances: Vec<(u64, u64)>| -> QueryVerdict {
            let distances: Vec<(UserId, u64)> =
                distances.into_iter().map(|(u, d)| (UserId(u), d)).collect();
            QueryVerdict {
                ranked: distances.iter().map(|&(u, _)| u).collect(),
                details: MethodDetails::Naive { distances },
            }
        };
        let (ranked, _) = merge_verdicts(
            Method::Naive,
            vec![naive(vec![(6, 4), (3, 4)]), naive(vec![(10, 4), (0, 1)])],
            None,
        );
        assert_eq!(ranked, vec![UserId(0), UserId(3), UserId(6), UserId(10)]);
    }
}
