//! The one serving entry point: a [`Scenario`] names what to serve, the
//! traffic, and which simulator runtimes the run enables, and
//! [`Scenario::run`] validates it and drives the event loop.
//!
//! Every other public run — [`PipelineSpec::simulate`],
//! [`PipelineSpec::serve_routed_sharded`], [`PipelineSpec::serve_resilient`]
//! and [`serve_multipath`] — is a one-line adapter over a scenario.

use recpipe_data::{ArrivalProcess, PoissonArrivals};

use crate::sim::{Sim, RES_STAGE_MASK};
use crate::{
    shard, AdmissionPolicy, AutoscaleConfig, Fifo, FleetController, LifecycleConfig, PathSet,
    PipelineSpec, ResilienceConfig, RoundRobin, Router, SchedulingPolicy, SimError, SimResult,
};

/// What every event loop of a run reads: the pipeline, the traffic, the
/// per-replica scheduling policy, the router, and the run's size and
/// seed. The serial loop and each stage shard build from one of these.
#[derive(Clone, Copy)]
pub(crate) struct Workload<'a> {
    pub(crate) spec: &'a PipelineSpec,
    pub(crate) arrivals: &'a dyn ArrivalProcess,
    pub(crate) policy: &'a dyn SchedulingPolicy,
    pub(crate) router: &'a dyn Router,
    pub(crate) num_queries: usize,
    pub(crate) seed: u64,
}

/// One serving run, built up and then [`run`](Self::run).
///
/// A scenario starts from a pipeline ([`new`](Self::new)) or a
/// multi-path set with its admission policy
/// ([`multipath`](Self::multipath)), an arrival process, a query count
/// and a seed. Everything else is optional: [`Fifo`] scheduling and
/// [`RoundRobin`] routing by default, and each runtime — replica
/// lifecycle, autoscaling, query resilience, stage sharding — is off
/// until its setter is called. The first 5% of queries are discarded as
/// warmup. A run is `saturated` when an open-loop offered load exceeds
/// the fully-batched analytic capacity, or a backlog persists at the
/// end. The same scenario and seed give the same [`SimResult`],
/// whatever the worker count.
///
/// # Examples
///
/// ```
/// use recpipe_data::MmppArrivals;
/// use recpipe_qsim::{BatchModel, BatchWindow, PipelineSpec, ReplicaGroup, Scenario, StageSpec};
///
/// // A GPU-like stage: 4 ms per query, but a batch of 8 costs far less
/// // than 8 single launches (marginal cost 0.2).
/// let spec = PipelineSpec::new(vec![ReplicaGroup::new("gpu", 1)])
///     .with_stage(StageSpec::new("rank", 0, 1, 0.004).with_batch(BatchModel::new(8, 0.2)))?;
/// let bursty = MmppArrivals::new(100.0, 800.0, 0.2, 0.05);
/// let result = Scenario::new(&spec, &bursty, 4_000, 7)
///     .policy(&BatchWindow::new(0.002))
///     .run()?;
/// assert_eq!(result.completed, 4_000);
/// assert!(result.mean_batch > 1.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Scenario<'a> {
    w: Workload<'a>,
    policy_set: bool,
    router_set: bool,
    paths: Option<(&'a PathSet, &'a dyn AdmissionPolicy)>,
    lifecycle: Option<&'a LifecycleConfig>,
    autoscale: Option<(&'a AutoscaleConfig, &'a mut dyn FleetController)>,
    resilience: Option<&'a ResilienceConfig>,
    workers: Option<usize>,
    /// Why the scenario gave a setting twice, reported by `run`.
    repeated: Option<&'static str>,
}

impl<'a> Scenario<'a> {
    /// A run of `num_queries` queries of `spec` injected by `arrivals`
    /// (open-loop schedules or closed-loop client feedback), seeded by
    /// `seed`.
    // simlint: allow(ctor-validate) -- scenarios validate in `run`, which
    // returns a typed SimError instead of panicking.
    pub fn new(
        spec: &'a PipelineSpec,
        arrivals: &'a dyn ArrivalProcess,
        num_queries: usize,
        seed: u64,
    ) -> Self {
        Self {
            w: Workload {
                spec,
                arrivals,
                policy: &Fifo,
                router: &RoundRobin,
                num_queries,
                seed,
            },
            policy_set: false,
            router_set: false,
            paths: None,
            lifecycle: None,
            autoscale: None,
            resilience: None,
            workers: None,
            repeated: None,
        }
    }

    /// A multi-path run: `admission` is consulted once per arriving
    /// query — with the instantaneous load snapshot, the per-path
    /// analytic profiles and the last closed telemetry window — and
    /// either admits it onto one of `paths`' pipelines (all sharing one
    /// replica fleet) or sheds it. Per-path admissions, completions,
    /// losses and latency land in [`SimResult::paths`]. Lifecycle
    /// schedules on the shared fleet replay as under
    /// [`lifecycle`](Self::lifecycle), with the default config unless
    /// one is given. A single-path set under
    /// [`AlwaysPrimary`](crate::AlwaysPrimary) replays the plain routed
    /// run bit for bit.
    pub fn multipath(
        paths: &'a PathSet,
        admission: &'a dyn AdmissionPolicy,
        arrivals: &'a dyn ArrivalProcess,
        num_queries: usize,
        seed: u64,
    ) -> Self {
        let mut scenario = Self::new(paths.spec(), arrivals, num_queries, seed);
        scenario.paths = Some((paths, admission));
        scenario
    }

    /// Schedules batches within each replica's private queue (default
    /// [`Fifo`]).
    pub fn policy(mut self, policy: &'a dyn SchedulingPolicy) -> Self {
        self.note_repeat(self.policy_set, "policy given twice");
        self.policy_set = true;
        self.w.policy = policy;
        self
    }

    /// Picks a replica per query at every stage (default
    /// [`RoundRobin`]). On single-replica groups every router gives the
    /// same result.
    pub fn router(mut self, router: &'a dyn Router) -> Self {
        self.note_repeat(self.router_set, "router given twice");
        self.router_set = true;
        self.w.router = router;
        self
    }

    /// Enables the replica lifecycle: every group's attached
    /// [`LifecycleSchedule`](crate::LifecycleSchedule) replays as timed
    /// availability events (warm-up, drains, fail-stops, degrades,
    /// recoveries), routers see only up or warming replicas, and `cfg`
    /// picks the [`FailurePolicy`](crate::FailurePolicy) for stranded
    /// work plus an optional telemetry window. With only empty
    /// schedules and no window the run is bit-identical to a run
    /// without it.
    pub fn lifecycle(mut self, cfg: &'a LifecycleConfig) -> Self {
        self.note_repeat(self.lifecycle.is_some(), "lifecycle given twice");
        self.lifecycle = Some(cfg);
        self
    }

    /// Enables closed-loop autoscaling: `controller` sees each closing
    /// telemetry window and resizes `cfg.group`'s fleet within
    /// `[cfg.min_replicas, cfg.max_replicas]`, provisioning down
    /// replicas through `cfg.warmup_s` of reduced-speed warm-up and
    /// draining live ones (drains finish their work, so scale-down
    /// never kills live queries). Replicas `cfg.initial_replicas..`
    /// start down. The lifecycle runs with `cfg.lifecycle` and the
    /// window `cfg.window_s`, so [`lifecycle`](Self::lifecycle) must not
    /// be given too.
    pub fn autoscale(
        mut self,
        cfg: &'a AutoscaleConfig,
        controller: &'a mut dyn FleetController,
    ) -> Self {
        self.note_repeat(self.autoscale.is_some(), "autoscale given twice");
        self.autoscale = Some((cfg, controller));
        self
    }

    /// Enables query-level resilience around every query:
    ///
    /// * a per-attempt **timeout** abandons the attempt (its lanes
    ///   cancel lazily and count as wasted work) and consults the
    ///   [`RetryPolicy`](crate::RetryPolicy): re-dispatch from stage 0
    ///   after exponential, jittered backoff while attempts and the
    ///   [`RetryBudget`](crate::RetryBudget) allow, else resolve the
    ///   query timed-out-final;
    /// * an optional **hedge** dispatches a duplicate lane to another
    ///   replica of the entry group after a fixed or quantile-derived
    ///   delay; the first lane to finish wins.
    ///
    /// Lifecycle schedules replay as under [`lifecycle`](Self::lifecycle),
    /// with the default config unless one is given. Per-run
    /// [`ResilienceStats`](crate::ResilienceStats) land in
    /// [`SimResult::resilience`], and `completed + shed + dropped +
    /// timed_out == num_queries` on open-loop runs. An inert config (no
    /// timeout, no hedge) leaves the run bit-identical to one without
    /// it.
    pub fn resilience(mut self, cfg: &'a ResilienceConfig) -> Self {
        self.note_repeat(self.resilience.is_some(), "resilience given twice");
        self.resilience = Some(cfg);
        self
    }

    /// Allows the stage-sharded executor: one shard per stage chained
    /// by bounded hand-off channels, one thread per stage when
    /// `workers > 1` (`0` = available parallelism, `1` = sequential
    /// shards). A run shards only if it enables no other runtime and
    /// its spec decomposes by stage (two or more stages on distinct
    /// resource groups, open-loop arrivals, positive service times);
    /// otherwise it runs serially. The result never depends on it.
    pub fn workers(mut self, workers: usize) -> Self {
        self.note_repeat(self.workers.is_some(), "workers given twice");
        self.workers = Some(workers);
        self
    }

    fn note_repeat(&mut self, given: bool, reason: &'static str) {
        if given && self.repeated.is_none() {
            self.repeated = Some(reason);
        }
    }

    /// The first reason this scenario cannot run, if any.
    fn check(&self) -> Result<(), SimError> {
        let unsupported = |reason| Err(SimError::Unsupported { reason });
        let invalid = |reason: String| Err(SimError::InvalidScenario { reason });
        if let Some(reason) = self.repeated {
            return unsupported(reason);
        }
        if self.autoscale.is_some() && self.lifecycle.is_some() {
            return unsupported("lifecycle given twice: the autoscale config carries one");
        }
        // No conservation property covers these pairs yet; resilience
        // with multi-path would also retry from stage 0, where no path
        // but the first enters.
        let runtimes = [
            self.autoscale.is_some(),
            self.resilience.is_some(),
            self.paths.is_some(),
        ];
        if runtimes.iter().filter(|&&on| on).count() > 1 {
            return unsupported("combines two of autoscaling, resilience and multi-path admission");
        }
        if self.paths.is_some_and(|(p, _)| p.num_paths() == 0) {
            return invalid("path set has no paths".into());
        }
        let stages = self.w.spec.stages().len();
        if stages == 0 {
            return invalid("pipeline has no stages".into());
        }
        if self.w.num_queries == 0 {
            return invalid("need at least one query".into());
        }
        if let Some((cfg, _)) = &self.autoscale {
            let groups = self.w.spec.resources();
            if cfg.group >= groups.len() {
                return invalid(format!("autoscale group {} does not exist", cfg.group));
            }
            let replicas = groups[cfg.group].replicas();
            if cfg.max_replicas > replicas {
                return invalid(format!(
                    "autoscale ceiling {} exceeds the group's {replicas} replicas",
                    cfg.max_replicas
                ));
            }
        }
        if let Some(cfg) = self.resilience {
            if stages > RES_STAGE_MASK as usize {
                return invalid(format!(
                    "resilient runs support at most {RES_STAGE_MASK} stages"
                ));
            }
            if cfg.retry.max_attempts > u8::MAX as usize {
                return invalid(format!("at most {} attempts per query", u8::MAX));
            }
        }
        Ok(())
    }

    /// Validates the scenario and runs it.
    ///
    /// # Errors
    ///
    /// [`SimError::Unsupported`] or [`SimError::InvalidScenario`] before
    /// the run starts, or [`SimError::NoAvailableReplica`] from a
    /// lifecycle run (arrivals at an autoscaled group always park: the
    /// controller may yet provision).
    pub fn run(self) -> Result<SimResult, SimError> {
        self.check()?;
        let Scenario {
            w,
            paths,
            lifecycle,
            autoscale,
            resilience,
            workers,
            ..
        } = self;
        if lifecycle.is_none() && autoscale.is_none() && resilience.is_none() && paths.is_none() {
            if let Some(sharded) = workers.and_then(|n| shard::run_sharded(&w, n)) {
                return Ok(sharded);
            }
            return Sim::new(&w).run();
        }
        let mut sim = Sim::new(&w);
        match &autoscale {
            Some((cfg, _)) => {
                sim.enable_lifecycle(&cfg.lifecycle.clone().with_window(cfg.window_s))
            }
            None => sim.enable_lifecycle(&lifecycle.cloned().unwrap_or_default()),
        }
        if let Some((cfg, controller)) = autoscale {
            sim.enable_autoscale(cfg, controller);
        }
        if let Some(cfg) = resilience {
            sim.enable_resilience(cfg, w.seed);
        }
        if let Some((paths, admission)) = paths {
            sim.enable_multipath(paths, admission, w.seed);
        }
        sim.run()
    }
}

/// Adapters over [`Scenario`] kept for callers that name them.
impl PipelineSpec {
    /// The paper's setup: Poisson arrivals at `qps`, [`Fifo`]
    /// scheduling, [`RoundRobin`] routing. All stages built by
    /// [`StageSpec::new`](crate::StageSpec::new) are per-query, so this
    /// reproduces the pre-batching simulator bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `qps` is not strictly positive, or with
    /// [`Scenario::run`]'s error.
    pub fn simulate(&self, qps: f64, num_queries: usize, seed: u64) -> SimResult {
        assert!(qps.is_finite() && qps > 0.0, "qps must be positive");
        Scenario::new(self, &PoissonArrivals::new(qps), num_queries, seed)
            .run()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// A routed run on the stage-sharded executor (see
    /// [`Scenario::workers`]); the result is identical to the serial
    /// loop's.
    ///
    /// # Panics
    ///
    /// Panics with [`Scenario::run`]'s error.
    pub fn serve_routed_sharded(
        &self,
        arrivals: &(dyn ArrivalProcess + Sync),
        policy: &(dyn SchedulingPolicy + Sync),
        router: &(dyn Router + Sync),
        num_queries: usize,
        seed: u64,
        workers: usize,
    ) -> SimResult {
        Scenario::new(self, arrivals, num_queries, seed)
            .policy(policy)
            .router(router)
            .workers(workers)
            .run()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// A resilient run over a lifecycle (see [`Scenario::resilience`]).
    ///
    /// # Errors
    ///
    /// Returns [`Scenario::run`]'s error.
    #[allow(clippy::too_many_arguments)]
    pub fn serve_resilient(
        &self,
        arrivals: &dyn ArrivalProcess,
        policy: &dyn SchedulingPolicy,
        router: &dyn Router,
        num_queries: usize,
        seed: u64,
        cfg: &LifecycleConfig,
        resilience: &ResilienceConfig,
    ) -> Result<SimResult, SimError> {
        Scenario::new(self, arrivals, num_queries, seed)
            .policy(policy)
            .router(router)
            .lifecycle(cfg)
            .resilience(resilience)
            .run()
    }
}

/// A multi-path run over a lifecycle (see [`Scenario::multipath`]).
///
/// # Errors
///
/// Returns [`Scenario::run`]'s error.
#[allow(clippy::too_many_arguments)]
pub fn serve_multipath(
    paths: &PathSet,
    arrivals: &dyn ArrivalProcess,
    policy: &dyn SchedulingPolicy,
    router: &dyn Router,
    admission: &dyn AdmissionPolicy,
    num_queries: usize,
    seed: u64,
    cfg: &LifecycleConfig,
) -> Result<SimResult, SimError> {
    Scenario::multipath(paths, admission, arrivals, num_queries, seed)
        .policy(policy)
        .router(router)
        .lifecycle(cfg)
        .run()
}
