//! The fleet-serving workload: three `qsim` scenarios per iteration,
//! with no quality evaluation and no search.
//!
//! * `replay`: a 10M-query sharded trace replay on `bench_smoke`'s
//!   scale spec (batched filter + rank groups, a two-generation filter
//!   fleet, trace at 70% of full-batch capacity);
//! * `hedged`: a 1M-query resilient run on `bench_smoke`'s limping
//!   fleet (one of four replicas at 25% speed) with a 250 ms timeout,
//!   budgeted retries and a 30 ms hedge;
//! * `brownout`: a 1M-query multi-path run of `bench_smoke`'s 3-path
//!   degradation ladder at 1,200 QPS under load-adaptive admission.

use recpipe_data::{PoissonArrivals, TraceArrivals};
use recpipe_qsim::{
    serve_multipath, BatchModel, Fifo, HedgePolicy, JoinShortestQueue, LifecycleConfig,
    LifecycleEvent, LifecycleSchedule, LoadAdaptive, PathSet, PipelineSpec, ReplicaGroup,
    ReplicaProfile, ResilienceConfig, RetryBudget, RetryPolicy, RoundRobin, SimResult, StageSpec,
};

use crate::trace::Tracer;

/// Queries in the sharded trace replay.
pub const REPLAY_QUERIES: usize = 10_000_000;
/// Queries in the hedged run.
pub const HEDGED_QUERIES: usize = 1_000_000;
/// Queries in the brown-out run.
pub const BROWNOUT_QUERIES: usize = 1_000_000;

/// Recorded inter-arrival gaps in the replayed trace (the replay loops
/// over them).
const TRACE_LEN: usize = 100_000;

/// The serving workload with its inputs built.
pub struct Serve {
    seed: u64,
    replay_spec: PipelineSpec,
    trace: TraceArrivals,
    limp_fleet: PipelineSpec,
    limp_arrivals: PoissonArrivals,
    limp_resilience: ResilienceConfig,
    ladder: PathSet,
    ladder_arrivals: PoissonArrivals,
    ladder_admission: LoadAdaptive,
    lifecycle: LifecycleConfig,
}

/// What one serving iteration produced.
#[derive(Debug, Clone)]
pub struct ServeOutput {
    /// The sharded trace replay.
    pub replay: SimResult,
    /// The hedged run on the limping fleet.
    pub hedged: SimResult,
    /// The brown-out ladder run.
    pub brownout: SimResult,
}

impl Serve {
    /// Builds the scenarios. `seed` is both the trace seed (the
    /// generator of the replayed arrival gaps) and the serve seed of
    /// all three runs.
    pub fn setup(seed: u64) -> Self {
        let (replay_spec, trace) = scale_spec_and_trace(seed);
        Self {
            seed,
            replay_spec,
            trace,
            limp_fleet: hedged_limp_fleet(),
            limp_arrivals: PoissonArrivals::new(150.0),
            limp_resilience: ResilienceConfig::new()
                .with_timeout(0.250)
                .with_retry(
                    RetryPolicy::new(3, 0.020, 2.0).with_budget(RetryBudget::new(50.0, 0.1)),
                )
                .with_hedge(HedgePolicy::after(0.030)),
            ladder: brownout_ladder(),
            ladder_arrivals: PoissonArrivals::new(1_200.0),
            ladder_admission: LoadAdaptive::new(1.5, 0.75),
            lifecycle: LifecycleConfig::new(),
        }
    }

    /// Simulated queries per iteration.
    pub fn sim_queries(&self) -> u64 {
        (REPLAY_QUERIES + HEDGED_QUERIES + BROWNOUT_QUERIES) as u64
    }

    /// Runs the three scenarios, the replay on `workers` shard workers,
    /// recording one span per scenario into `t` when tracing.
    pub fn run(&self, workers: usize, mut t: Option<&mut Tracer>) -> Result<ServeOutput, String> {
        let replay = timed(&mut t, "qsim.replay", REPLAY_QUERIES, || {
            Ok::<_, String>(self.replay_spec.serve_routed_sharded(
                &self.trace,
                &Fifo,
                &RoundRobin,
                REPLAY_QUERIES,
                self.seed,
                workers,
            ))
        })?;
        let hedged = timed(&mut t, "qsim.hedged", HEDGED_QUERIES, || {
            self.limp_fleet.serve_resilient(
                &self.limp_arrivals,
                &Fifo,
                &RoundRobin,
                HEDGED_QUERIES,
                self.seed,
                &self.lifecycle,
                &self.limp_resilience,
            )
        })
        .map_err(|e| format!("hedged run failed: {e}"))?;
        let brownout = timed(&mut t, "qsim.brownout", BROWNOUT_QUERIES, || {
            serve_multipath(
                &self.ladder,
                &self.ladder_arrivals,
                &Fifo,
                &JoinShortestQueue,
                &self.ladder_admission,
                BROWNOUT_QUERIES,
                self.seed,
                &self.lifecycle,
            )
        })
        .map_err(|e| format!("brownout run failed: {e}"))?;
        Ok(ServeOutput {
            replay,
            hedged,
            brownout,
        })
    }
}

/// Runs `f`, inside a span named `name` that simulates `queries`
/// queries when tracing.
fn timed<R>(
    t: &mut Option<&mut Tracer>,
    name: &'static str,
    queries: usize,
    f: impl FnOnce() -> R,
) -> R {
    match t.as_deref_mut() {
        Some(t) => {
            t.count("qsim.sim_queries", queries as f64);
            t.time(name, f)
        }
        None => f(),
    }
}

impl ServeOutput {
    /// The per-iteration conservation check: every offered query is
    /// accounted for exactly once in each scenario's ledger.
    pub fn check(&self) -> Result<(), String> {
        let r = &self.replay;
        if r.completed + r.shed + r.dropped != REPLAY_QUERIES {
            return Err(format!(
                "replay ledger: completed {} + shed {} + dropped {} != {REPLAY_QUERIES}",
                r.completed, r.shed, r.dropped
            ));
        }
        let h = &self.hedged;
        let stats = h
            .resilience
            .as_ref()
            .ok_or("hedged run reported no resilience telemetry")?;
        if h.completed + h.shed + h.dropped + stats.timed_out != HEDGED_QUERIES {
            return Err(format!(
                "hedged ledger: completed {} + shed {} + dropped {} + timed out {} != \
                 {HEDGED_QUERIES}",
                h.completed, h.shed, h.dropped, stats.timed_out
            ));
        }
        if stats.timeouts != stats.total_retries() + stats.timed_out {
            return Err(format!(
                "hedged timeouts {} != retries {} + timed out {}",
                stats.timeouts,
                stats.total_retries(),
                stats.timed_out
            ));
        }
        let b = &self.brownout;
        let admitted: usize = b.paths.iter().map(|p| p.admitted).sum();
        if admitted + b.admission_shed != BROWNOUT_QUERIES {
            return Err(format!(
                "brownout ledger: admitted {admitted} + admission-shed {} != {BROWNOUT_QUERIES}",
                b.admission_shed
            ));
        }
        for p in &b.paths {
            if p.completed + p.shed + p.dropped != p.admitted {
                return Err(format!(
                    "brownout path {}: completed {} + shed {} + dropped {} != admitted {}",
                    p.name, p.completed, p.shed, p.dropped, p.admitted
                ));
            }
        }
        if b.completed + b.shed + b.dropped != BROWNOUT_QUERIES {
            return Err(format!(
                "brownout ledger: completed {} + shed {} + dropped {} != {BROWNOUT_QUERIES}",
                b.completed, b.shed, b.dropped
            ));
        }
        let results = [
            ("replay", self.replay_p99_ms()),
            ("hedged", self.hedged_p99_ms()),
        ];
        for (name, p99) in results {
            if !(p99.is_finite() && p99 > 0.0) {
                return Err(format!("{name} p99 {p99} ms not positive and finite"));
            }
        }
        if !(self.brownout_goodput() > 0.0 && self.brownout_goodput() <= 1.0) {
            return Err(format!(
                "brownout goodput {} outside (0, 1]",
                self.brownout_goodput()
            ));
        }
        Ok(())
    }

    /// Whether two iterations produced identical results (`SimResult`
    /// equality compares every count and float field exactly).
    pub fn same_as(&self, other: &Self) -> bool {
        self.replay == other.replay
            && self.hedged == other.hedged
            && self.brownout == other.brownout
    }

    /// p99 of the trace replay, in ms.
    pub fn replay_p99_ms(&self) -> f64 {
        self.replay.clone().p99_seconds() * 1e3
    }

    /// p99 of the hedged run, in ms.
    pub fn hedged_p99_ms(&self) -> f64 {
        self.hedged.clone().p99_seconds() * 1e3
    }

    /// Quality-weighted completions per offered query of the brown-out
    /// run.
    pub fn brownout_goodput(&self) -> f64 {
        let weighted: f64 = self
            .brownout
            .paths
            .iter()
            .map(|p| p.quality * p.completed as f64)
            .sum();
        weighted / BROWNOUT_QUERIES as f64
    }
}

/// `bench_smoke`'s limping fleet: one of four replicas at 25% speed.
fn hedged_limp_fleet() -> PipelineSpec {
    PipelineSpec::new(vec![ReplicaGroup::replicated("worker", 1, 4)])
        .with_group_lifecycle(
            0,
            LifecycleSchedule::empty().with_event(LifecycleEvent::degrade(0.0, 0, 0.25)),
        )
        .with_stage(StageSpec::new("rank", 0, 1, 0.010))
        .expect("valid stage")
}

/// `bench_smoke`'s three-path degradation ladder over one fleet.
fn brownout_ladder() -> PathSet {
    PathSet::new(vec![ReplicaGroup::replicated("worker", 8, 1)])
        .with_path("full", 1.00, vec![StageSpec::new("rm-large", 0, 1, 0.010)])
        .expect("full path fits the fleet")
        .with_path("mid", 0.92, vec![StageSpec::new("rm-med", 0, 1, 0.004)])
        .expect("mid path fits the fleet")
        .with_path("lite", 0.80, vec![StageSpec::new("rm-small", 0, 1, 0.0015)])
        .expect("lite path fits the fleet")
}

/// `bench_smoke`'s scale spec and its recorded trace, whose gaps come
/// from an LCG started at `seed`.
fn scale_spec_and_trace(seed: u64) -> (PipelineSpec, TraceArrivals) {
    let filter = ReplicaGroup::heterogeneous(
        "filter",
        vec![
            ReplicaProfile::baseline(1),
            ReplicaProfile::baseline(1),
            ReplicaProfile::new(1, 0.6),
            ReplicaProfile::new(1, 0.6),
        ],
    );
    let rank = ReplicaGroup::replicated("rank", 1, 4);
    let spec = PipelineSpec::new(vec![filter, rank])
        .with_stage(StageSpec::new("filter", 0, 1, 0.002).with_batch(BatchModel::new(8, 0.25)))
        .expect("valid stage")
        .with_stage(StageSpec::new("rank", 1, 1, 0.001).with_batch(BatchModel::new(8, 0.25)))
        .expect("valid stage");
    let mut z = seed;
    let mut t = 0.0f64;
    let times: Vec<f64> = (0..TRACE_LEN)
        .map(|_| {
            z = z
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t += ((z >> 33) as f64 / (1u64 << 31) as f64) * 2e-3;
            t
        })
        .collect();
    let rate = 0.7 * spec.max_qps_at_full_batch();
    (spec, TraceArrivals::new(times).with_rate(rate))
}
