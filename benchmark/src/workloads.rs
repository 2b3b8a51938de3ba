//! The four workloads: inputs generated from the seed, the timed op, the
//! untimed answer checks and the traced replay.
//!
//! Every workload is a closed loop: one client sends its next op only when
//! the previous one has returned.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::{Duration, Instant};

use dipm_core::FilterParams;
use dipm_distsim::{CostReport, ExecutionMode, LatencyReport};
use dipm_mobilenet::{ground_truth, Dataset, UserId};
use dipm_protocol::{
    build_wbf, evaluate, run_pipeline, DiMatchingConfig, HashScheme, PatternQuery, PipelineOptions,
    ProtocolError, RoutingPolicy, SectionGrouping, Service, StreamQueryId, TenantId, Wbf,
};

use crate::replay::{replay_batch, Replayed};
use crate::trace::Tracer;

/// Candidates kept per ranking, in every workload.
pub const TOP_K: usize = 10;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Q=8 batches over a 3000-user, 24-station city: the station scan.
    BatchScan,
    /// Q=1 requests on the one-worker async executor: per-request fixed
    /// costs.
    SingleAsync,
    /// Q=1 requests routed through the summary tree over 64 stations.
    RoutedSelective,
    /// Query churn, epochs and checkpoints on a two-tenant service.
    StandingChurn,
}

impl Workload {
    /// Every workload, in the order a full run takes them.
    pub const ALL: [Workload; 4] = [
        Workload::BatchScan,
        Workload::SingleAsync,
        Workload::RoutedSelective,
        Workload::StandingChurn,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchScan => "batch-scan",
            Workload::SingleAsync => "single-async",
            Workload::RoutedSelective => "routed-selective",
            Workload::StandingChurn => "standing-churn",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes and op floors of one benchmark scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Users and stations of the batch-scan / single-async city.
    pub city: (usize, u32),
    /// Users and stations of the routed deployment.
    pub routed: (usize, u32),
    /// Users and stations of each standing-churn day snapshot.
    pub standing: (usize, u32),
    /// Queries per batch-scan op.
    pub batch_queries: usize,
    /// Distinct ops each batch workload cycles through, in workload order;
    /// the last entry is the standing-churn window the deterministic
    /// metrics are taken over.
    pub pool: [usize; 4],
    /// Fewest timed ops in an end-to-end run.
    pub min_ops: usize,
    /// Fewest untraced/traced pairs in a trace run.
    pub trace_min_pairs: usize,
    /// Fewest set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Set-up repeats until it has also run this long in total, so a
    /// set-up of a few milliseconds still has a steady median.
    pub setup_seconds: f64,
}

impl Scale {
    /// The benchmark as `BENCHMARK.json` runs it.
    pub fn full() -> Scale {
        Scale {
            city: (3000, 24),
            routed: (1000, 64),
            standing: (1500, 16),
            batch_queries: 8,
            // Large enough that a seed's query mix does not move the
            // latency percentiles: routed-selective's p80 falls among its
            // resident-user ops, so it needs several of them.
            pool: [32, 256, 32, 40],
            min_ops: crate::stats::MIN_TAIL_SAMPLES,
            trace_min_pairs: 10,
            setup_reps: 7,
            setup_seconds: 1.0,
        }
    }

    /// A tiny scale for smoke tests: same code paths, seconds in debug.
    pub fn smoke() -> Scale {
        Scale {
            city: (150, 4),
            routed: (120, 8),
            standing: (120, 4),
            batch_queries: 3,
            pool: [2, 4, 4, 10],
            min_ops: 10,
            trace_min_pairs: 2,
            setup_reps: 1,
            setup_seconds: 0.0,
        }
    }

    fn pool_len(&self, workload: Workload) -> usize {
        match workload {
            Workload::BatchScan => self.pool[0],
            Workload::SingleAsync => self.pool[1],
            Workload::RoutedSelective => self.pool[2],
            Workload::StandingChurn => self.pool[3],
        }
    }

    /// The op floor of `workload`: enough for the tail percentile and for
    /// one full pass over its deterministic window.
    pub fn min_ops(&self, workload: Workload) -> usize {
        self.min_ops.max(self.pool_len(workload))
    }
}

/// One timed op.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Wall time of the library calls.
    pub elapsed: Duration,
    /// Rankings the op delivered (zero when it failed).
    pub rankings: usize,
    /// Whether every library call returned `Ok`.
    pub ok: bool,
}

/// The untimed answer checks and the deterministic metrics they yield.
#[derive(Debug, Clone, Default)]
pub struct Checked {
    /// Ops whose answer disagreed with the reference.
    pub mismatches: u64,
    /// `CostReport::total_bytes()` per query over the deterministic window.
    pub bytes_per_query: f64,
    /// `CostReport::storage_bytes` per query over the same window.
    pub storage_bytes_per_query: f64,
    /// Mean precision of the top-10 over queries with relevant users.
    pub precision: f64,
    /// Mean recall on the same basis.
    pub recall: f64,
}

/// One untraced/traced pair of a trace run.
#[derive(Debug, Clone, Default)]
pub struct TracedPair {
    /// Wall time of the untraced op.
    pub untraced: Duration,
    /// Sum of the traced op's stage spans.
    pub stage_sum: Duration,
    /// Raw per-op quantities: span self times in ms by span name, counts.
    pub sample: BTreeMap<&'static str, f64>,
    /// Whether both ops ran and the replay reproduced the untraced op.
    pub ok: bool,
}

/// A workload instance: set up, then driven op by op.
pub trait Bench: Sized {
    /// Generates the inputs and runs the set-up, ending with one warm-up op.
    /// Returns the instance and the time spent generating datasets.
    ///
    /// # Errors
    ///
    /// Propagates any library error met during set-up.
    fn setup(
        workload: Workload,
        seed: u64,
        scale: &Scale,
    ) -> Result<(Self, Duration), ProtocolError>;

    /// Runs timed op `i`.
    fn op(&mut self, i: usize) -> OpSample;

    /// Runs op `i` untraced, then again (or its successor) traced.
    fn trace_pair(&mut self, i: usize, tracer: &mut Tracer) -> TracedPair;

    /// Checks every recorded answer against its reference.
    fn check(&self) -> Checked;
}

/// The queries of a batch workload's ops: pool entry `o` is op `o` of the
/// cycle.
fn user_query(dataset: &Dataset, index: usize) -> PatternQuery {
    let users = dataset.users();
    let user = users[(index * 13) % users.len()];
    PatternQuery::from_fragments(dataset.fragments(user.id).expect("every user has traffic"))
        .expect("a user's fragments form a valid query")
}

/// Selective profile `s` of the routed workload: always-on traffic at a
/// volume no generated phone sustains, as two locals (full and half rate).
fn selective_query(dataset: &Dataset, s: usize) -> PatternQuery {
    let rate = 300 + (s as u64 * 37) % 300;
    let intervals = dataset.intervals();
    PatternQuery::from_locals(vec![
        (0..intervals).map(|_| rate).collect(),
        (0..intervals).map(|_| rate / 2).collect(),
    ])
    .expect("constant profiles form a valid query")
}

/// The dataset a batch workload runs on.
pub fn batch_dataset(workload: Workload, seed: u64, scale: &Scale) -> Dataset {
    let (users, stations) = match workload {
        Workload::RoutedSelective => scale.routed,
        _ => scale.city,
    };
    Dataset::city_slice(users, stations, seed).expect("city preset is valid")
}

/// The op cycle of a batch workload.
pub fn batch_pool(workload: Workload, dataset: &Dataset, scale: &Scale) -> Vec<Vec<PatternQuery>> {
    let len = scale.pool_len(workload);
    match workload {
        Workload::BatchScan => (0..len)
            .map(|b| {
                (0..scale.batch_queries)
                    .map(|j| user_query(dataset, b * scale.batch_queries + j))
                    .collect()
            })
            .collect(),
        Workload::SingleAsync => (0..len).map(|i| vec![user_query(dataset, i)]).collect(),
        // Three selective profiles to one resident user's query.
        Workload::RoutedSelective => (0..len)
            .map(|o| {
                let round = o / 4;
                if o % 4 == 3 {
                    vec![user_query(dataset, round)]
                } else {
                    vec![selective_query(dataset, round * 3 + o % 4)]
                }
            })
            .collect(),
        Workload::StandingChurn => unreachable!("standing-churn has no batch pool"),
    }
}

/// The day snapshots standing-churn cycles through.
pub fn standing_snapshots(seed: u64, scale: &Scale) -> Vec<Dataset> {
    let (users, stations) = scale.standing;
    (0..4)
        .map(|day| {
            Dataset::city_slice(users, stations, seed.wrapping_mul(4).wrapping_add(day))
                .expect("city preset is valid")
        })
        .collect()
}

/// Standing query `k` of `tenant`, drawn from the first day's users as the
/// service experiment draws them.
pub fn standing_query(day0: &Dataset, tenant: usize, k: usize) -> PatternQuery {
    user_query(day0, tenant * 997 + k)
}

/// Standing queries per tenant.
pub const STANDING: usize = 10;
/// Tenants of the standing-churn service.
pub const TENANTS: usize = 2;
/// The service is checkpointed, and the epoch's answers checked, every this
/// many ops.
pub const CHECKPOINT_EVERY: usize = 10;

/// Mean precision and recall of `ranking`s against their relevant sets,
/// over the pairs whose relevant set is non-empty.
fn effectiveness<'a>(
    pairs: impl IntoIterator<Item = (&'a [UserId], BTreeSet<UserId>)>,
) -> (f64, f64) {
    let mut sums = (0.0, 0.0, 0usize);
    for (ranking, relevant) in pairs {
        if relevant.is_empty() {
            continue;
        }
        let score = evaluate(ranking.iter().copied(), &relevant);
        sums = (sums.0 + score.precision, sums.1 + score.recall, sums.2 + 1);
    }
    let n = sums.2 as f64;
    (sums.0 / n, sums.1 / n)
}

/// One answer of a batch op.
#[derive(Debug, Clone)]
struct BatchOutput {
    entry: usize,
    rankings: Vec<Vec<UserId>>,
    cost: CostReport,
    latency: Option<LatencyReport>,
}

/// The reference answer of one pool entry, and the mode-invariant meters
/// the op must reproduce where the workload pins them.
#[derive(Debug, Clone)]
struct Reference {
    rankings: Vec<Vec<UserId>>,
    meters: Option<CostReport>,
}

/// Ops whose answer disagrees with their pool entry's reference, whose
/// meters differ from it (where pinned) or from the entry's first run. An
/// entry without a reference fails every op that ran it.
fn answer_mismatches(outputs: &[BatchOutput], references: &BTreeMap<usize, Reference>) -> u64 {
    let mut first: BTreeMap<usize, &CostReport> = BTreeMap::new();
    outputs
        .iter()
        .filter(|output| {
            let repeatable = **first.entry(output.entry).or_insert(&output.cost) == output.cost;
            references.get(&output.entry).is_none_or(|reference| {
                output.rankings != reference.rankings
                    || reference
                        .meters
                        .is_some_and(|m| output.cost.mode_invariant() != m)
                    || !repeatable
            })
        })
        .count() as u64
}

/// The three batch workloads: a dataset, a pool of ops cycled in order,
/// and every answer recorded for the checks.
#[derive(Debug)]
pub struct BatchBench {
    workload: Workload,
    dataset: Dataset,
    pool: Vec<Vec<PatternQuery>>,
    config: DiMatchingConfig,
    options: PipelineOptions,
    outputs: Vec<BatchOutput>,
}

impl BatchBench {
    fn run(&self, entry: usize) -> Result<BatchOutput, ProtocolError> {
        let batch = run_pipeline::<Wbf>(
            &self.dataset,
            &self.pool[entry],
            &self.config,
            &self.options,
        )?;
        Ok(BatchOutput {
            entry,
            rankings: batch.queries.into_iter().map(|v| v.ranked).collect(),
            cost: batch.cost,
            latency: batch.latency,
        })
    }

    /// The reference answer for pool entry `entry`, computed another way:
    /// batch-scan runs each query singly, single-async runs sequentially
    /// (and pins the mode-invariant meters), routed-selective broadcasts to
    /// every station.
    fn reference(&self, entry: usize) -> Result<Reference, ProtocolError> {
        let queries = &self.pool[entry];
        let rankings = |batch: dipm_protocol::BatchOutcome| -> Vec<Vec<UserId>> {
            batch.queries.into_iter().map(|v| v.ranked).collect()
        };
        match self.workload {
            Workload::BatchScan => {
                let mut singles = Vec::new();
                for query in queries {
                    singles.extend(rankings(run_pipeline::<Wbf>(
                        &self.dataset,
                        std::slice::from_ref(query),
                        &self.config,
                        &self.options,
                    )?));
                }
                Ok(Reference {
                    rankings: singles,
                    meters: None,
                })
            }
            Workload::SingleAsync => {
                let options = PipelineOptions {
                    mode: ExecutionMode::Sequential,
                    ..self.options
                };
                let batch = run_pipeline::<Wbf>(&self.dataset, queries, &self.config, &options)?;
                Ok(Reference {
                    meters: Some(batch.cost),
                    rankings: rankings(batch),
                })
            }
            Workload::RoutedSelective => {
                let config = DiMatchingConfig {
                    routing: RoutingPolicy::BroadcastAll,
                    ..self.config.clone()
                };
                Ok(Reference {
                    rankings: rankings(run_pipeline::<Wbf>(
                        &self.dataset,
                        queries,
                        &config,
                        &self.options,
                    )?),
                    meters: None,
                })
            }
            Workload::StandingChurn => unreachable!("not a batch workload"),
        }
    }

    fn references(&self) -> BTreeMap<usize, Reference> {
        let entries: BTreeSet<usize> = self.outputs.iter().map(|o| o.entry).collect();
        entries
            .into_iter()
            .filter_map(|entry| Some((entry, self.reference(entry).ok()?)))
            .collect()
    }
}

impl Bench for BatchBench {
    fn setup(
        workload: Workload,
        seed: u64,
        scale: &Scale,
    ) -> Result<(Self, Duration), ProtocolError> {
        let generate = Instant::now();
        let dataset = batch_dataset(workload, seed, scale);
        let generate = generate.elapsed();
        let pool = batch_pool(workload, &dataset, scale);
        let config = match workload {
            Workload::RoutedSelective => DiMatchingConfig {
                hash_scheme: HashScheme::PositionTagged,
                routing: RoutingPolicy::Tree { fanout: 4 },
                ..DiMatchingConfig::default()
            },
            _ => DiMatchingConfig::default(),
        };
        // One executor worker: on two vCPUs a second worker bought no
        // speed at Q=1, and its p50 swung between 9.5 and 14.6 ms across
        // 5 s blocks where one worker held 10.0 to 10.7 ms.
        let mode = match workload {
            Workload::SingleAsync => ExecutionMode::Async { workers: 1 },
            _ => ExecutionMode::Sequential,
        };
        let options = PipelineOptions {
            mode,
            top_k: Some(TOP_K),
            ..PipelineOptions::default()
        };
        let bench = BatchBench {
            workload,
            dataset,
            pool,
            config,
            options,
            outputs: Vec::new(),
        };
        bench.run(0)?;
        Ok((bench, generate))
    }

    fn op(&mut self, i: usize) -> OpSample {
        let entry = i % self.pool.len();
        let start = Instant::now();
        let result = self.run(entry);
        let elapsed = start.elapsed();
        match result {
            Ok(output) => {
                let rankings = output.rankings.len();
                self.outputs.push(output);
                OpSample {
                    elapsed,
                    rankings,
                    ok: true,
                }
            }
            Err(_) => OpSample {
                elapsed,
                rankings: 0,
                ok: false,
            },
        }
    }

    fn trace_pair(&mut self, i: usize, tracer: &mut Tracer) -> TracedPair {
        let untraced = self.op(i);
        let mut pair = TracedPair {
            untraced: untraced.elapsed,
            ..TracedPair::default()
        };
        if !untraced.ok {
            return pair;
        }
        let reference = self
            .outputs
            .last()
            .expect("a successful op records its output");
        let mark = tracer.mark();
        let replayed = replay_batch(
            tracer,
            i as u64,
            "op",
            &self.dataset,
            &self.pool[reference.entry],
            &self.config,
            &self.options,
        );
        let Ok(replayed) = replayed else {
            tracer.rewind(mark);
            return pair;
        };
        pair.ok = replayed.rankings == reference.rankings
            && replayed.cost.mode_invariant() == reference.cost.mode_invariant();
        let times = tracer.self_times_since(mark);
        pair.stage_sum = stage_sum(&times);
        pair.sample = stage_sample(&times);
        record_replay(&mut pair.sample, &replayed, self.dataset.stations().len());
        record_cost(&mut pair.sample, &reference.cost);
        if let Some(latency) = reference
            .latency
            .as_ref()
            .filter(|l| !l.stations.is_empty())
        {
            let delivered: Vec<f64> = latency
                .stations
                .iter()
                .map(|s| s.report_delivered as f64)
                .collect();
            let slowest = delivered.iter().copied().fold(0.0, f64::max);
            pair.sample
                .insert("makespan", latency.makespan_ticks as f64);
            pair.sample
                .insert("straggler", slowest / crate::stats::median(&delivered));
        }
        pair
    }

    fn check(&self) -> Checked {
        let mismatches = answer_mismatches(&self.outputs, &self.references());

        // The deterministic metrics: one pass over the pool, first answers.
        let mut first: BTreeMap<usize, &BatchOutput> = BTreeMap::new();
        for output in &self.outputs {
            first.entry(output.entry).or_insert(output);
        }
        let (mut bytes, mut storage, mut queries) = (0u64, 0u64, 0usize);
        let mut scored = Vec::new();
        for (&entry, output) in &first {
            bytes += output.cost.total_bytes();
            storage += output.cost.storage_bytes;
            queries += self.pool[entry].len();
            for (query, ranking) in self.pool[entry].iter().zip(&output.rankings) {
                let relevant =
                    ground_truth::eps_similar_users(&self.dataset, query.global(), self.config.eps);
                scored.push((ranking.as_slice(), relevant));
            }
        }
        let (precision, recall) = effectiveness(scored);
        Checked {
            mismatches,
            bytes_per_query: bytes as f64 / queries as f64,
            storage_bytes_per_query: storage as f64 / queries as f64,
            precision,
            recall,
        }
    }
}

/// Runs `f`, inside a span when there is a tracer.
fn in_span<T>(
    tracer: &mut Option<(&mut Tracer, u64)>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some((tracer, op)) => tracer.span(*op, name, f),
        None => f(),
    }
}

/// The self time of every stage span, the root `op` span excluded.
fn stage_sum(times: &BTreeMap<&'static str, Duration>) -> Duration {
    times
        .iter()
        .filter(|(name, _)| **name != "op")
        .map(|(_, d)| *d)
        .sum()
}

/// Span self times in ms, keyed by span name.
fn stage_sample(times: &BTreeMap<&'static str, Duration>) -> BTreeMap<&'static str, f64> {
    times
        .iter()
        .map(|(name, d)| (*name, d.as_secs_f64() * 1e3))
        .collect()
}

/// Adds `value` to the sample's `key`.
fn bump(sample: &mut BTreeMap<&'static str, f64>, key: &'static str, value: f64) {
    *sample.entry(key).or_insert(0.0) += value;
}

fn record_replay(sample: &mut BTreeMap<&'static str, f64>, replayed: &Replayed, stations: usize) {
    bump(sample, "inserted_values", replayed.inserted_values as f64);
    bump(sample, "reports", replayed.reports as f64);
    bump(sample, "useful_reports", replayed.useful_reports as f64);
    bump(sample, "row_sections", replayed.row_sections as f64);
    bump(sample, "targeted", replayed.targeted as f64);
    bump(sample, "reporting", replayed.reporting as f64);
    bump(sample, "stations", stations as f64);
}

fn record_cost(sample: &mut BTreeMap<&'static str, f64>, cost: &CostReport) {
    bump(sample, "query_bytes", cost.query_bytes as f64);
    bump(sample, "report_bytes", cost.report_bytes as f64);
    bump(sample, "hash_ops", cost.hash_ops as f64);
    bump(sample, "rows_pruned", cost.rows_pruned as f64);
    bump(sample, "blocks_skipped", cost.blocks_skipped as f64);
    bump(sample, "routing_bytes", cost.routing_bytes as f64);
    bump(sample, "stations_pruned", cost.stations_pruned as f64);
    bump(sample, "messages", cost.messages as f64);
}

/// One tenant's standing set as the benchmark tracks it.
#[derive(Debug)]
struct TenantState {
    live: VecDeque<(StreamQueryId, PatternQuery)>,
    next: usize,
}

/// An epoch whose answers are checked: the day it ran on, and per tenant
/// the live queries in id order and the ranking the service returned.
#[derive(Debug)]
struct CheckedEpoch {
    op: usize,
    day: usize,
    tenants: Vec<(Vec<PatternQuery>, Vec<UserId>)>,
}

/// Standing-churn: a two-tenant service fed query churn, one epoch per op,
/// a checkpoint every [`CHECKPOINT_EVERY`] ops.
#[derive(Debug)]
pub struct StandingBench {
    days: Vec<Dataset>,
    config: DiMatchingConfig,
    options: PipelineOptions,
    service: Service,
    tenants: Vec<TenantState>,
    /// Epochs run so far, set-up included.
    epochs: usize,
    window: usize,
    /// Per op in the deterministic window: epoch bytes, storage, live queries.
    window_costs: Vec<(u64, u64, usize)>,
    checks: Vec<CheckedEpoch>,
}

/// What one standing-churn op did, for the trace.
#[derive(Debug, Default)]
struct ChurnOp {
    /// Each tenant's epoch ranking, in tenant order.
    rankings: Vec<Vec<UserId>>,
    live_queries: usize,
    checkpoint_bytes: Option<usize>,
    delta_bytes: u64,
    rebuild_bytes: u64,
    cost: CostReport,
}

impl StandingBench {
    /// The next op's replacement queries, built before the clock starts.
    fn next_queries(&self) -> Vec<PatternQuery> {
        self.tenants
            .iter()
            .enumerate()
            .map(|(t, state)| standing_query(&self.days[0], t, state.next))
            .collect()
    }

    /// One op: every tenant retires its oldest query and registers a new
    /// one, the service runs an epoch on the next day, and every
    /// [`CHECKPOINT_EVERY`]th op is checkpointed. With a tracer, each
    /// public call gets a span. The warm-up op (`i = None`) is neither
    /// checkpointed nor recorded.
    fn churn(
        &mut self,
        i: Option<usize>,
        fresh: Vec<PatternQuery>,
        mut tracer: Option<(&mut Tracer, u64)>,
    ) -> Result<ChurnOp, ProtocolError> {
        in_span(&mut tracer, "service.write", || {
            for (t, query) in fresh.iter().enumerate() {
                let id = TenantId(t as u64);
                let state = &mut self.tenants[t];
                let (oldest, _) = state.live.pop_front().expect("tenants keep live queries");
                self.service.remove_query(id, oldest)?;
                let added = self.service.insert_query(id, query)?;
                state.live.push_back((added, query.clone()));
                state.next += 1;
            }
            Ok::<(), ProtocolError>(())
        })?;
        let day = self.epochs % self.days.len();
        let epoch = in_span(&mut tracer, "service.epoch", || {
            self.service.run_epoch(&self.days[day])
        })?;
        self.epochs += 1;
        let checkpointed = i.is_some_and(|i| (i + 1) % CHECKPOINT_EVERY == 0);
        let mut op = ChurnOp::default();
        if checkpointed {
            let frame = in_span(&mut tracer, "service.checkpoint", || {
                self.service.checkpoint()
            })?;
            op.checkpoint_bytes = Some(frame.len());
        }

        let meter = dipm_distsim::CostMeter::new();
        for outcome in epoch.outcomes.values() {
            meter.absorb(&outcome.outcome.cost);
            op.delta_bytes += outcome.broadcast_bytes;
            op.rebuild_bytes += outcome.rebuild_bytes;
            op.rankings.push(outcome.outcome.ranked.clone());
        }
        op.cost = meter.report();
        op.live_queries = self.tenants.iter().map(|t| t.live.len()).sum();
        let Some(i) = i else { return Ok(op) };
        if i < self.window {
            self.window_costs.push((
                op.cost.total_bytes(),
                op.cost.storage_bytes,
                op.live_queries,
            ));
        }
        if checkpointed {
            self.checks.push(CheckedEpoch {
                op: i,
                day,
                tenants: self
                    .tenants
                    .iter()
                    .zip(&op.rankings)
                    .map(|(t, ranking)| {
                        (
                            t.live.iter().map(|(_, q)| q.clone()).collect(),
                            ranking.clone(),
                        )
                    })
                    .collect(),
            });
        }
        Ok(op)
    }

    /// The reference for one tenant's epoch: one merged `run_pipeline`
    /// over its live queries at the service's pinned geometry.
    fn rebuild_options(&self) -> PipelineOptions {
        PipelineOptions {
            grouping: SectionGrouping::Merged,
            ..self.options
        }
    }
}

impl Bench for StandingBench {
    fn setup(
        workload: Workload,
        seed: u64,
        scale: &Scale,
    ) -> Result<(Self, Duration), ProtocolError> {
        debug_assert_eq!(workload, Workload::StandingChurn);
        let generate = Instant::now();
        let days = standing_snapshots(seed, scale);
        let generate = generate.elapsed();
        // Pin the geometry at 2x headroom over a representative standing
        // set, as the service experiment does, so churn never needs a
        // resize.
        let sized = build_wbf(
            &(0..STANDING)
                .map(|k| standing_query(&days[0], 0, k))
                .collect::<Vec<_>>(),
            &DiMatchingConfig::default(),
        )?
        .stats;
        let config = DiMatchingConfig {
            fixed_geometry: Some(FilterParams::new(sized.bits * 2, sized.hashes)?),
            ..DiMatchingConfig::default()
        };
        let options = PipelineOptions {
            top_k: Some(TOP_K),
            ..PipelineOptions::default()
        };
        let mut service = Service::new(options);
        let mut tenants = Vec::new();
        for t in 0..TENANTS {
            let initial: Vec<PatternQuery> = (0..STANDING)
                .map(|k| standing_query(&days[0], t, k))
                .collect();
            service.register(TenantId(t as u64), &initial, config.clone())?;
            let live = service
                .session(TenantId(t as u64))?
                .live_queries()
                .into_iter()
                .zip(initial)
                .collect();
            tenants.push(TenantState {
                live,
                next: STANDING,
            });
        }
        // The first, full epoch.
        service.run_epoch(&days[0])?;
        let mut bench = StandingBench {
            days,
            config,
            options,
            service,
            tenants,
            epochs: 1,
            window: scale.pool_len(Workload::StandingChurn),
            window_costs: Vec::new(),
            checks: Vec::new(),
        };
        let fresh = bench.next_queries();
        bench.churn(None, fresh, None)?;
        Ok((bench, generate))
    }

    fn op(&mut self, i: usize) -> OpSample {
        let fresh = self.next_queries();
        let start = Instant::now();
        let result = self.churn(Some(i), fresh, None);
        let elapsed = start.elapsed();
        match result {
            Ok(op) => OpSample {
                elapsed,
                rankings: op.live_queries,
                ok: true,
            },
            Err(_) => OpSample {
                elapsed,
                rankings: 0,
                ok: false,
            },
        }
    }

    /// Standing ops change the service, so a pair is two consecutive ops:
    /// op `2i` untraced, op `2i + 1` with spans around its public calls.
    /// Each traced epoch is then rebuilt stage by stage per tenant — the
    /// stage numbers of this workload, and the traced answer check.
    fn trace_pair(&mut self, i: usize, tracer: &mut Tracer) -> TracedPair {
        let untraced = self.op(2 * i);
        let mut pair = TracedPair {
            untraced: untraced.elapsed,
            ..TracedPair::default()
        };
        let traced_op = 2 * i + 1;
        let fresh = self.next_queries();
        let mark = tracer.mark();
        let root = tracer.enter(traced_op as u64, "op");
        let result = self.churn(
            Some(traced_op),
            fresh,
            Some((&mut *tracer, traced_op as u64)),
        );
        tracer.exit(root);
        let Ok(op) = result else {
            tracer.rewind(mark);
            return pair;
        };
        let times = tracer.self_times_since(mark);
        pair.stage_sum = stage_sum(&times);
        let mut sample = stage_sample(&times);
        record_cost(&mut sample, &op.cost);
        bump(&mut sample, "delta_bytes", op.delta_bytes as f64);
        bump(&mut sample, "rebuild_bytes", op.rebuild_bytes as f64);
        bump(&mut sample, "op_ms", pair.stage_sum.as_secs_f64() * 1e3);
        if let Some(bytes) = op.checkpoint_bytes {
            bump(&mut sample, "checkpoint_bytes", bytes as f64);
            bump(&mut sample, "checkpoints", 1.0);
        }

        let rebuild_mark = tracer.mark();
        let options = self.rebuild_options();
        let day = &self.days[(self.epochs - 1) % self.days.len()];
        let mut ok = untraced.ok;
        for (state, ranking) in self.tenants.iter().zip(&op.rankings) {
            let queries: Vec<PatternQuery> = state.live.iter().map(|(_, q)| q.clone()).collect();
            let replay_mark = tracer.mark();
            match replay_batch(
                tracer,
                traced_op as u64,
                "rebuild",
                day,
                &queries,
                &self.config,
                &options,
            ) {
                Ok(replayed) => {
                    ok &= replayed.rankings.first() == Some(ranking);
                    record_replay(&mut sample, &replayed, day.stations().len());
                }
                Err(_) => {
                    tracer.rewind(replay_mark);
                    ok = false;
                }
            }
        }
        for (name, d) in tracer.self_times_since(rebuild_mark) {
            if name != "rebuild" {
                bump(&mut sample, name, d.as_secs_f64() * 1e3);
                bump(&mut sample, "rebuild_ms", d.as_secs_f64() * 1e3);
            }
        }
        pair.sample = sample;
        pair.ok = ok;
        pair
    }

    fn check(&self) -> Checked {
        let options = self.rebuild_options();
        let mut mismatches = 0u64;
        let mut scored = Vec::new();
        for checked in &self.checks {
            let day = &self.days[checked.day];
            let mut agrees = true;
            for (queries, ranking) in &checked.tenants {
                let reference = run_pipeline::<Wbf>(day, queries, &self.config, &options);
                agrees &= reference.is_ok_and(|batch| batch.queries[0].ranked == *ranking);
                if checked.op < self.window {
                    let relevant: BTreeSet<UserId> = queries
                        .iter()
                        .flat_map(|q| {
                            ground_truth::eps_similar_users(day, q.global(), self.config.eps)
                        })
                        .collect();
                    scored.push((ranking.as_slice(), relevant));
                }
            }
            mismatches += u64::from(!agrees);
        }
        let (precision, recall) = effectiveness(scored);
        let bytes: u64 = self.window_costs.iter().map(|c| c.0).sum();
        let storage: u64 = self.window_costs.iter().map(|c| c.1).sum();
        let queries: usize = self.window_costs.iter().map(|c| c.2).sum();
        Checked {
            mismatches,
            bytes_per_query: bytes as f64 / queries as f64,
            storage_bytes_per_query: storage as f64 / queries as f64,
            precision,
            recall,
        }
    }
}

/// FNV-1a over every query value a workload's op stream sends, in order —
/// the fingerprint of the inputs a seed generates.
pub fn query_stream_digest(workload: Workload, seed: u64, scale: &Scale) -> u64 {
    let queries: Vec<PatternQuery> = match workload {
        Workload::StandingChurn => {
            let days = standing_snapshots(seed, scale);
            (0..TENANTS)
                .flat_map(|t| (0..STANDING + scale.min_ops(workload)).map(move |k| (t, k)))
                .map(|(t, k)| standing_query(&days[0], t, k))
                .collect()
        }
        _ => {
            let dataset = batch_dataset(workload, seed, scale);
            batch_pool(workload, &dataset, scale).concat()
        }
    };
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for value in queries
        .iter()
        .flat_map(|q| q.locals().iter().flat_map(|p| p.iter()))
    {
        for byte in value.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_reference_ranking_counts_as_a_failure() {
        let scale = Scale::smoke();
        let (mut bench, _) = BatchBench::setup(Workload::BatchScan, 7, &scale).unwrap();
        for i in 0..4 {
            assert!(bench.op(i).ok);
        }
        let mut references = bench.references();
        assert_eq!(answer_mismatches(&bench.outputs, &references), 0);
        references.get_mut(&0).unwrap().rankings[0].push(UserId(u64::MAX));
        let runs_of_entry_0 = bench.outputs.iter().filter(|o| o.entry == 0).count() as u64;
        assert_eq!(
            answer_mismatches(&bench.outputs, &references),
            runs_of_entry_0
        );
    }

    #[test]
    fn pinned_meters_must_match_the_reference() {
        let scale = Scale::smoke();
        let (mut bench, _) = BatchBench::setup(Workload::SingleAsync, 7, &scale).unwrap();
        assert!(bench.op(0).ok);
        let mut references = bench.references();
        assert_eq!(answer_mismatches(&bench.outputs, &references), 0);
        references
            .get_mut(&0)
            .unwrap()
            .meters
            .as_mut()
            .unwrap()
            .hash_ops += 1;
        assert_eq!(answer_mismatches(&bench.outputs, &references), 1);
    }

    #[test]
    fn corrupted_epoch_ranking_counts_as_a_failure() {
        let scale = Scale::smoke();
        let (mut bench, _) = StandingBench::setup(Workload::StandingChurn, 7, &scale).unwrap();
        for i in 0..CHECKPOINT_EVERY {
            assert!(bench.op(i).ok);
        }
        assert_eq!(bench.checks.len(), 1);
        assert_eq!(bench.check().mismatches, 0);
        bench.checks[0].tenants[0].1.reverse();
        bench.checks[0].tenants[0].1.push(UserId(u64::MAX));
        assert_eq!(bench.check().mismatches, 1);
    }
}
