//! The three co-design sweep workloads, each runnable two ways:
//!
//! * untraced, through the one public entry point a user calls
//!   (`Engine::sweep`, `Scheduler::explore_accel`, or
//!   `Scheduler::explore_pool_with_stats`), on a chosen worker count;
//! * traced and serial, as a replay of the same sweep's phases through
//!   public calls in the order the scheduler makes them:
//!   `enumerate_pipelines`, `QualityEvaluator::evaluate`, then
//!   `placements_for`, `fleet_variants` and `build_spec`, then
//!   `PipelineSpec::simulate` with `candidate_seed`, then `pareto` or
//!   `pareto_with_cost`. Successive halving's rung selection is private
//!   to the scheduler, so the replay carries its own copy of that rule;
//!   its time stays in the scheduler's self time.
//!
//! Both paths must produce bit-identical fronts; the benchmark checks it.

use std::collections::HashMap;
use std::sync::Arc;

use recpipe_accel::{Partition, RpAccel, RpAccelConfig};
use recpipe_core::{
    build_spec, candidate_seed, Backend, Engine, Outcome, PipelineConfig, Placement,
    QualityEvaluator, Scheduler, SchedulerSettings, StageConfig, SweepBudget, SweepStats,
};
use recpipe_data::{DatasetSpec, QueryGenerator};
use recpipe_hwsim::{CpuModel, GpuModel, PcieModel};
use recpipe_metrics::ideal_sorted;
use recpipe_models::ModelKind;
use recpipe_qsim::{PipelineSpec, SimResult};

use crate::trace::Tracer;

/// NDCG slack of the iso-quality selection: 0.3 points below the best
/// quality on the front, as `examples/scheduler_sweep` selects.
const ISO_QUALITY_SLACK: f64 = 0.003;

/// Latency SLA of the best-quality-under-SLA selection, in seconds.
const SLA_S: f64 = 0.025;

/// Regenerations of one evaluator's shared preparation per traced
/// iteration.
const SHARED_PREP_REPEATS: usize = 3;

/// Which of the three sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepKind {
    /// `Engine::sweep` over the CPU-only pool at 500 QPS.
    CpuPaper,
    /// `Scheduler::explore_accel` over three RPAccel partitions at
    /// 1,000 QPS.
    RpAccel,
    /// `Scheduler::explore_pool_with_stats` over CPU + T4 with a
    /// replica grid and successive halving at 1,500 QPS.
    ClusterHalving,
}

/// One backend pool the sweep explores, as the scheduler builds it.
struct Pass {
    pool: Vec<Arc<dyn Backend>>,
    /// Stitched top-k sub-batches for quality evaluation.
    sub_batches: usize,
    /// Monolithic accelerator partitions host single-stage pipelines
    /// only.
    single_stage_only: bool,
}

/// A sweep workload with its inputs built.
pub struct Sweep {
    kind: SweepKind,
    qps: f64,
    settings: SchedulerSettings,
    passes: Vec<Pass>,
    partitions: Vec<Partition>,
    engine: Option<Engine>,
}

/// What one sweep produced.
#[derive(Debug, Clone)]
pub struct SweepOutput {
    /// Points the sweep evaluated, when the entry point reports them.
    pub points: Option<usize>,
    /// The Pareto front, in the order the scheduler returns it.
    pub front: Vec<Outcome>,
    /// Simulation-cost accounting, when the entry point reports it.
    pub stats: Option<SweepStats>,
}

impl Sweep {
    /// Builds the workload's pools, settings and engine. `seed` becomes
    /// `SchedulerSettings::seed`.
    pub fn setup(kind: SweepKind, seed: u64) -> Self {
        let mut settings = SchedulerSettings::paper_default();
        settings.seed = seed;
        settings.workers = Some(2);
        match kind {
            SweepKind::CpuPaper => {
                // Exactly as examples/scheduler_sweep builds it.
                let seed_pipeline = PipelineConfig::builder()
                    .stage(StageConfig::new(ModelKind::RmSmall, 4096, 256))
                    .stage(StageConfig::new(ModelKind::RmLarge, 256, 64))
                    .build()
                    .expect("valid seed pipeline");
                let engine = Engine::builder()
                    .pipeline(seed_pipeline)
                    .backend(CpuModel::cascade_lake())
                    .placement(Placement::cpu_only(2))
                    .load(500.0)
                    .build()
                    .expect("valid engine");
                settings.dataset = engine.pipeline().dataset();
                let passes = vec![Pass {
                    pool: engine.backends().to_vec(),
                    sub_batches: 1,
                    single_stage_only: false,
                }];
                Self {
                    kind,
                    qps: engine.load(),
                    settings,
                    passes,
                    partitions: Vec::new(),
                    engine: Some(engine),
                }
            }
            SweepKind::RpAccel => {
                let partitions = vec![
                    Partition::monolithic(),
                    Partition::symmetric(8, 2),
                    Partition::symmetric(8, 8),
                ];
                let spec = DatasetSpec::for_kind(settings.dataset);
                let passes = partitions
                    .iter()
                    .map(|partition| {
                        let accel = RpAccel::new(
                            RpAccelConfig::paper_default(partition.clone()).with_dataset(&spec),
                        );
                        Pass {
                            pool: vec![Arc::new(accel) as Arc<dyn Backend>],
                            sub_batches: 4,
                            single_stage_only: partition.is_monolithic(),
                        }
                    })
                    .collect();
                Self {
                    kind,
                    qps: 1_000.0,
                    settings,
                    passes,
                    partitions,
                    engine: None,
                }
            }
            SweepKind::ClusterHalving => {
                settings.replica_options = vec![1, 2, 4];
                settings.quality_queries = 20;
                settings.sim_queries = 12_000;
                settings.sweep_budget = SweepBudget::halving(12_000);
                let passes = vec![Pass {
                    pool: vec![Arc::new(CpuModel::cascade_lake()), Arc::new(GpuModel::t4())],
                    sub_batches: 1,
                    single_stage_only: false,
                }];
                Self {
                    kind,
                    qps: 1_500.0,
                    settings,
                    passes,
                    partitions: Vec::new(),
                    engine: None,
                }
            }
        }
    }

    fn settings_on(&self, workers: usize) -> SchedulerSettings {
        let mut settings = self.settings.clone();
        settings.workers = Some(workers);
        settings
    }

    fn cost_front(&self) -> bool {
        Scheduler::new(self.settings.clone()).sweeps_cluster_cost()
    }

    /// Runs the sweep through its public entry point on `workers`
    /// threads.
    pub fn run(&self, workers: usize) -> SweepOutput {
        let settings = self.settings_on(workers);
        match self.kind {
            SweepKind::CpuPaper => {
                let engine = self.engine.as_ref().expect("built in setup");
                SweepOutput {
                    points: None,
                    front: engine.sweep(&settings).into_vec(),
                    stats: None,
                }
            }
            SweepKind::RpAccel => {
                let points = Scheduler::new(settings.clone()).explore_accel(
                    self.qps,
                    settings.max_stages,
                    &self.partitions,
                );
                SweepOutput {
                    points: Some(points.len()),
                    front: Scheduler::pareto(points).into_vec(),
                    stats: None,
                }
            }
            SweepKind::ClusterHalving => {
                let pass = &self.passes[0];
                let (points, stats) = Scheduler::new(settings.clone()).explore_pool_with_stats(
                    self.qps,
                    settings.max_stages,
                    &pass.pool,
                    pass.sub_batches,
                    None,
                    &PcieModel::measured(),
                );
                SweepOutput {
                    points: Some(points.len()),
                    front: Scheduler::pareto_with_cost(points).into_vec(),
                    stats: Some(stats),
                }
            }
        }
    }

    /// Queries the sweep simulates at the full budget: the candidate
    /// count times `sim_queries`. Enumerates candidates without
    /// evaluating quality or simulating anything.
    pub fn full_budget_sim_queries(&self) -> u64 {
        let scheduler = Scheduler::new(self.settings_on(1));
        let mut scratch = Tracer::new();
        let candidates: usize = self
            .passes
            .iter()
            .map(|pass| {
                let pipelines = self.pipelines(&scheduler, pass);
                self.candidates(&scheduler, pass, &pipelines, |_| 0.0, &mut scratch)
                    .len()
            })
            .sum();
        candidates as u64 * self.settings.sim_queries as u64
    }

    /// `SchedulerSettings::sim_queries`.
    pub fn sim_queries(&self) -> usize {
        self.settings.sim_queries
    }

    fn pipelines(&self, scheduler: &Scheduler, pass: &Pass) -> Vec<PipelineConfig> {
        scheduler
            .enumerate_pipelines(self.settings.max_stages)
            .into_iter()
            .filter(|p| !pass.single_stage_only || p.num_stages() == 1)
            .collect()
    }

    /// Enumerates a pass's candidates in the scheduler's order: every
    /// pipeline, placement and fleet variant whose spec builds and
    /// passes the analytic stability pre-check.
    fn candidates(
        &self,
        scheduler: &Scheduler,
        pass: &Pass,
        pipelines: &[PipelineConfig],
        ndcg: impl Fn(&PipelineConfig) -> f64,
        t: &mut Tracer,
    ) -> Vec<Candidate> {
        let interconnect = PcieModel::measured();
        let mut out = Vec::new();
        for pipeline in pipelines {
            for base in scheduler.placements_for(&pass.pool, pipeline.num_stages()) {
                for placement in scheduler.fleet_variants(&base) {
                    let built = t.time("backend.build_spec", || {
                        build_spec(&pass.pool, &interconnect, pipeline, &placement)
                    });
                    let Ok(spec) = built else {
                        continue;
                    };
                    t.count("backend.specs_built", 1.0);
                    if spec.max_qps() < self.qps * 0.7 {
                        continue;
                    }
                    out.push(Candidate {
                        pipeline: pipeline.clone(),
                        mapping: placement.describe(&pass.pool),
                        ndcg: ndcg(pipeline),
                        replicas: placement.replica_cost(),
                        fleet_cost: placement.fleet_cost(),
                        spec,
                    });
                }
            }
        }
        out
    }

    /// Replays the sweep serially through public calls, recording a
    /// span around every call into another layer. The root span is
    /// `scheduler.sweep`; its self time is the scheduler's own work.
    pub fn replay(&self, t: &mut Tracer) -> SweepOutput {
        let settings = self.settings_on(1);
        let scheduler = Scheduler::new(settings.clone());
        let mut quality_cache: HashMap<PipelineConfig, f64> = HashMap::new();
        let mut stats = SweepStats::default();
        let mut points = Vec::new();

        let root = t.enter("scheduler.sweep");
        for pass in &self.passes {
            let pipelines = self.pipelines(&scheduler, pass);
            let evaluator = QualityEvaluator::for_dataset(settings.dataset, 64)
                .queries(settings.quality_queries)
                .seed(settings.seed)
                .sub_batches(pass.sub_batches);
            let pool_size = evaluator.spec().candidates_per_query;
            for pipeline in &pipelines {
                if quality_cache.contains_key(pipeline) {
                    continue;
                }
                let span = if pass.sub_batches > 1 {
                    "quality.evaluate_stitched"
                } else {
                    "quality.evaluate"
                };
                let ndcg = t.time(span, || evaluator.evaluate(pipeline).ndcg);
                let queries = settings.quality_queries as f64;
                t.count("quality.evaluations", 1.0);
                t.count("quality.mc_queries", queries);
                t.count(
                    "quality.items_scored",
                    queries * items_scored_per_query(pipeline, pool_size, pass.sub_batches) as f64,
                );
                quality_cache.insert(pipeline.clone(), ndcg);
            }
            let candidates = self.candidates(&scheduler, pass, &pipelines, |p| quality_cache[p], t);
            stats.candidates += candidates.len() as u64;
            points.extend(self.simulate_rungs(candidates, &mut stats, t));
        }
        let front = t.time("metrics.pareto", || {
            if self.cost_front() {
                Scheduler::pareto_with_cost(points.clone()).into_vec()
            } else {
                Scheduler::pareto(points.clone()).into_vec()
            }
        });
        t.exit(root);

        // One evaluator's pipeline-independent preparation, regenerated
        // outside the root span: its query stream and ideal orderings.
        // It takes tens of milliseconds, so it is repeated to steady
        // the per-regeneration mean.
        let spec = DatasetSpec::for_kind(settings.dataset);
        for _ in 0..SHARED_PREP_REPEATS {
            let mut gen = QueryGenerator::new(&spec, settings.seed.wrapping_add(1));
            let queries = t.time("data.next_query", || {
                (0..settings.quality_queries)
                    .map(|_| gen.next_query())
                    .collect::<Vec<_>>()
            });
            t.time("metrics.ideal_sorted", || {
                for query in &queries {
                    let gains: Vec<f64> = query
                        .utilities
                        .iter()
                        .map(|&u| u.powf(spec.gain_exponent))
                        .collect();
                    std::hint::black_box(ideal_sorted(&gains));
                }
            });
        }

        SweepOutput {
            points: Some(points.len()),
            front,
            stats: Some(stats),
        }
    }

    /// The scheduler's rung schedule over one pass's candidates:
    /// `SweepBudget::Full` is a single rung at the full budget;
    /// halving simulates every survivor at a growing budget and keeps
    /// each rung's front plus the best of the rest.
    fn simulate_rungs(
        &self,
        candidates: Vec<Candidate>,
        stats: &mut SweepStats,
        t: &mut Tracer,
    ) -> Vec<Outcome> {
        let full = self.settings.sim_queries;
        let (min_queries, survivor_fraction) = match self.settings.sweep_budget {
            SweepBudget::Full => (full, 1.0),
            SweepBudget::Halving {
                min_queries,
                survivor_fraction,
            } => (min_queries, survivor_fraction),
        };
        let mut alive: Vec<usize> = (0..candidates.len()).collect();
        let mut budget = min_queries.max(1).min(full);
        loop {
            let final_rung = budget >= full;
            let rung_queries = if final_rung { full } else { budget };
            let mut sims: Vec<SimResult> = alive
                .iter()
                .map(|&idx| {
                    let seed = candidate_seed(self.settings.seed, idx as u64);
                    t.time("qsim.simulate", || {
                        candidates[idx].spec.simulate(self.qps, rung_queries, seed)
                    })
                })
                .collect();
            t.count("qsim.sim_queries", (alive.len() * rung_queries) as f64);
            stats.simulations += alive.len() as u64;
            stats.simulated_queries += (alive.len() * rung_queries) as u64;
            if final_rung {
                return alive
                    .into_iter()
                    .zip(sims)
                    .map(|(idx, sim)| candidates[idx].outcome(sim, self.qps))
                    .collect();
            }
            let ranked: Vec<RungPoint> = alive
                .iter()
                .zip(sims.iter_mut())
                .map(|(&idx, sim)| RungPoint {
                    idx,
                    p99_s: sim.p99_seconds(),
                    ndcg: candidates[idx].ndcg,
                    cost: candidates[idx].fleet_cost,
                    saturated: sim.saturated,
                })
                .collect();
            alive = select_survivors(&ranked, survivor_fraction);
            budget *= 2;
        }
    }
}

/// Items one Monte-Carlo query scores across a pipeline's stages: the
/// first stage sees `min(items_in, pool)` candidates and each later
/// stage the previous stage's survivors (per-chunk stitched selection
/// when `sub_batches > 1`; the final stage always selects globally).
fn items_scored_per_query(pipeline: &PipelineConfig, pool: usize, sub_batches: usize) -> usize {
    let stages = pipeline.stages();
    let mut seen = (pipeline.items_in() as usize).min(pool);
    let mut scored = 0;
    for (i, stage) in stages.iter().enumerate() {
        scored += seen;
        let k = (stage.items_out as usize).max(1);
        let last = i + 1 == stages.len();
        seen = if last || sub_batches <= 1 || seen <= sub_batches {
            seen.min(k)
        } else {
            let chunk = seen.div_ceil(sub_batches);
            let per_chunk = (k / sub_batches).max(1);
            let kept: usize = (0..seen.div_ceil(chunk))
                .map(|c| (seen - c * chunk).min(chunk).min(per_chunk))
                .sum();
            kept.min(k)
        };
    }
    scored
}

/// One enumerated candidate awaiting simulation.
struct Candidate {
    pipeline: PipelineConfig,
    mapping: String,
    ndcg: f64,
    replicas: usize,
    fleet_cost: f64,
    spec: PipelineSpec,
}

impl Candidate {
    fn outcome(&self, mut sim: SimResult, qps: f64) -> Outcome {
        let p99_s = sim.p99_seconds();
        Outcome {
            pipeline: self.pipeline.clone(),
            mapping: self.mapping.clone(),
            ndcg: self.ndcg,
            p99_s,
            p50_s: sim.p50_seconds(),
            qps: sim.qps,
            offered_qps: qps,
            saturated: sim.saturated,
            meets_sla: None,
            replicas: self.replicas,
            fleet_cost: self.fleet_cost,
        }
    }
}

/// A candidate's standing after a halving rung.
struct RungPoint {
    idx: usize,
    p99_s: f64,
    ndcg: f64,
    cost: f64,
    saturated: bool,
}

impl RungPoint {
    fn dominates(&self, other: &Self) -> bool {
        self.p99_s <= other.p99_s
            && self.ndcg >= other.ndcg
            && self.cost <= other.cost
            && (self.p99_s < other.p99_s || self.ndcg > other.ndcg || self.cost < other.cost)
    }
}

/// The scheduler's survivor rule: the whole non-dominated front of the
/// unsaturated points, then successive fronts until
/// `survivor_fraction` of the pool is kept, saturated points filling
/// any remainder; returned in enumeration order.
fn select_survivors(ranked: &[RungPoint], survivor_fraction: f64) -> Vec<usize> {
    let target = ((ranked.len() as f64 * survivor_fraction).ceil() as usize).max(1);
    let mut pool: Vec<usize> = (0..ranked.len())
        .filter(|&i| !ranked[i].saturated)
        .collect();
    let mut survivors: Vec<usize> = Vec::with_capacity(target);
    let mut first_front = true;
    while !pool.is_empty() && (first_front || survivors.len() < target) {
        let front: Vec<usize> = pool
            .iter()
            .copied()
            .filter(|&i| !pool.iter().any(|&j| ranked[j].dominates(&ranked[i])))
            .collect();
        for &i in &front {
            if first_front || survivors.len() < target {
                survivors.push(ranked[i].idx);
            }
        }
        pool.retain(|i| !front.contains(i));
        first_front = false;
    }
    let fill = target.saturating_sub(survivors.len());
    survivors.extend(
        ranked
            .iter()
            .filter(|p| p.saturated)
            .take(fill)
            .map(|p| p.idx),
    );
    survivors.sort_unstable();
    survivors
}

impl SweepOutput {
    /// The per-iteration output check: a non-empty, unsaturated front
    /// whose every NDCG lies in (0, 1] and every p99 is positive and
    /// finite.
    pub fn check(&self) -> Result<(), String> {
        if self.front.is_empty() {
            return Err("empty Pareto front".into());
        }
        for p in &self.front {
            if p.saturated {
                return Err(format!("saturated point on the front: {}", p.mapping));
            }
            if !(p.ndcg > 0.0 && p.ndcg <= 1.0) {
                return Err(format!("NDCG {} outside (0, 1]", p.ndcg));
            }
            if !(p.p99_s.is_finite() && p.p99_s > 0.0) {
                return Err(format!("p99 {} not positive and finite", p.p99_s));
            }
        }
        Ok(())
    }

    /// Whether two fronts are bit-identical (and, where both report
    /// them, the point counts and simulation accounting agree).
    pub fn same_as(&self, other: &Self) -> bool {
        let agree = |a: Option<usize>, b: Option<usize>| a.zip(b).is_none_or(|(a, b)| a == b);
        let stats_agree = match (self.stats, other.stats) {
            (Some(a), Some(b)) => a == b,
            _ => true,
        };
        agree(self.points, other.points)
            && stats_agree
            && self.front.len() == other.front.len()
            && self
                .front
                .iter()
                .zip(&other.front)
                .all(|(a, b)| same_bits(a, b))
    }

    /// Design results: front size, best NDCG, iso-quality p99 and the
    /// best NDCG under a 25 ms p99 SLA (0 when no front point meets it).
    pub fn design(&self) -> Design {
        let best = self.front.iter().map(|p| p.ndcg).fold(0.0, f64::max);
        let iso = Scheduler::best_latency_at_quality(&self.front, best - ISO_QUALITY_SLACK)
            .map_or(0.0, Outcome::p99_ms);
        let sla = Scheduler::best_quality_under_sla(&self.front, SLA_S)
            .map_or(0.0, Outcome::ndcg_percent);
        Design {
            front_points: self.front.len(),
            best_ndcg_pct: best * 100.0,
            iso_quality_p99_ms: iso,
            sla_ndcg_pct: sla,
        }
    }
}

/// A sweep's deterministic design results.
#[derive(Debug, Clone, Copy)]
pub struct Design {
    /// Pareto-optimal designs.
    pub front_points: usize,
    /// Best NDCG on the front, in percent.
    pub best_ndcg_pct: f64,
    /// Lowest p99 with NDCG at least 0.3 points below the best, in ms.
    pub iso_quality_p99_ms: f64,
    /// Best NDCG with p99 at most 25 ms, in percent.
    pub sla_ndcg_pct: f64,
}

fn same_bits(a: &Outcome, b: &Outcome) -> bool {
    a.pipeline == b.pipeline
        && a.mapping == b.mapping
        && a.ndcg.to_bits() == b.ndcg.to_bits()
        && a.p99_s.to_bits() == b.p99_s.to_bits()
        && a.p50_s.to_bits() == b.p50_s.to_bits()
        && a.qps.to_bits() == b.qps.to_bits()
        && a.offered_qps.to_bits() == b.offered_qps.to_bits()
        && a.saturated == b.saturated
        && a.meets_sla == b.meets_sla
        && a.replicas == b.replicas
        && a.fleet_cost.to_bits() == b.fleet_cost.to_bits()
}
