//! The runtime product through [`Scenario`]: every combination of a
//! lifecycle schedule (a fail-stop and a recovery), closed-loop
//! autoscaling, query resilience (timeout + retry + hedge) and two-path
//! admission, each with and without stage-sharding workers.
//!
//! Each run either conserves every query — `completed + shed + dropped
//! + timed_out == N` — or, exactly when it combines two of autoscaling,
//! resilience and multi-path admission, returns
//! [`SimError::Unsupported`]. The worker count never changes a result.

use recpipe_data::PoissonArrivals;
use recpipe_qsim::{
    AutoscaleConfig, BatchModel, Fifo, FleetController, HedgePolicy, JoinShortestQueue,
    LifecycleConfig, LifecycleEvent, LifecycleSchedule, LoadAdaptive, PathSet, PipelineSpec,
    ReplicaGroup, ResilienceConfig, RetryPolicy, Scenario, SimError, SimResult, StageSpec,
    WindowStats,
};

const QUERIES: usize = 2_000;

/// Demands the whole fleet while queries wait, one replica otherwise.
struct Pressure;

impl FleetController for Pressure {
    fn name(&self) -> String {
        "pressure".into()
    }

    fn desired_replicas(&mut self, window: &WindowStats, _live: usize) -> usize {
        if window.mean_queue_depth > 0.5 {
            3
        } else {
            1
        }
    }
}

/// A three-replica front group and a two-replica back group; with
/// `faults`, front replica 0 fail-stops at 0.1 s and recovers at 0.4 s.
fn fleet(faults: bool) -> Vec<ReplicaGroup> {
    let mut front = ReplicaGroup::replicated("front", 1, 3);
    if faults {
        front = front.with_lifecycle(LifecycleSchedule::new(vec![
            LifecycleEvent::fail_stop(0.1, 0),
            LifecycleEvent::recover(0.4, 0),
        ]));
    }
    vec![front, ReplicaGroup::replicated("back", 1, 2)]
}

/// The full path: a batched front stage, then a back stage on its own
/// group, so runs without a runtime can shard.
fn full_path() -> Vec<StageSpec> {
    vec![
        StageSpec::new("filter", 0, 1, 0.004).with_batch(BatchModel::new(4, 0.25)),
        StageSpec::new("rank", 1, 1, 0.003),
    ]
}

fn spec(faults: bool) -> PipelineSpec {
    full_path()
        .into_iter()
        .try_fold(PipelineSpec::new(fleet(faults)), PipelineSpec::with_stage)
        .unwrap()
}

fn paths(faults: bool) -> PathSet {
    PathSet::new(fleet(faults))
        .with_path("full", 1.0, full_path())
        .unwrap()
        .with_path("lite", 0.9, vec![StageSpec::new("lite", 0, 1, 0.001)])
        .unwrap()
}

/// Runs one point of the product: `mask` bit 0 lifecycle, bit 1
/// autoscale, bit 2 resilience, bit 3 multi-path admission.
fn run(mask: u32, workers: Option<usize>) -> Result<SimResult, SimError> {
    let (lifecycle, autoscale, resilience, multipath) =
        (mask & 1 != 0, mask & 2 != 0, mask & 4 != 0, mask & 8 != 0);
    let spec = spec(lifecycle);
    let paths = paths(lifecycle);
    let admission = LoadAdaptive::new(1.5, 0.75);
    let arrivals = PoissonArrivals::new(300.0);
    let cfg = LifecycleConfig::new().with_window(0.1);
    let band = AutoscaleConfig::new(0, 1, 3, 0.1)
        .with_initial_replicas(2)
        .with_lifecycle(cfg.clone());
    let mut controller = Pressure;
    let retry = ResilienceConfig::new()
        .with_timeout(0.02)
        .with_retry(RetryPolicy::new(3, 0.002, 2.0))
        .with_hedge(HedgePolicy::after(0.005));
    let mut scenario = if multipath {
        Scenario::multipath(&paths, &admission, &arrivals, QUERIES, 11)
    } else {
        Scenario::new(&spec, &arrivals, QUERIES, 11)
    };
    scenario = scenario.policy(&Fifo).router(&JoinShortestQueue);
    // The autoscale config carries the lifecycle config itself.
    if lifecycle && !autoscale {
        scenario = scenario.lifecycle(&cfg);
    }
    if autoscale {
        scenario = scenario.autoscale(&band, &mut controller);
    }
    if resilience {
        scenario = scenario.resilience(&retry);
    }
    if let Some(n) = workers {
        scenario = scenario.workers(n);
    }
    scenario.run()
}

#[test]
fn every_runtime_combination_conserves_queries_or_is_rejected() {
    for mask in 0..16u32 {
        let exclusive = [mask & 2 != 0, mask & 4 != 0, mask & 8 != 0];
        let unsupported = exclusive.iter().filter(|&&on| on).count() >= 2;
        let serial = run(mask, None);
        let sharded = run(mask, Some(2));
        assert_eq!(serial, sharded, "mask {mask:04b}: workers changed the run");
        match serial {
            Err(SimError::Unsupported { reason }) => {
                assert!(unsupported, "mask {mask:04b} rejected: {reason}");
            }
            Err(e) => panic!("mask {mask:04b} failed: {e}"),
            Ok(out) => {
                assert!(
                    !unsupported,
                    "mask {mask:04b} ran an unsupported combination"
                );
                assert_eq!(
                    out.completed + out.shed + out.dropped + out.timed_out(),
                    QUERIES,
                    "mask {mask:04b}"
                );
                assert_eq!(out.resilience.is_some(), mask & 4 != 0, "mask {mask:04b}");
                assert_eq!(out.paths.len(), if mask & 8 != 0 { 2 } else { 0 });
            }
        }
    }
}

#[test]
fn workers_shard_only_runtime_free_scenarios() {
    // A runtime-free run on the shardable spec goes through the stage
    // executor and still matches the serial loop bit for bit; adding an
    // empty-schedule lifecycle makes the same run serial and leaves the
    // result unchanged.
    let spec = spec(false);
    let arrivals = PoissonArrivals::new(300.0);
    let serial = Scenario::new(&spec, &arrivals, QUERIES, 5).run().unwrap();
    for workers in [0, 1, 2] {
        let sharded = Scenario::new(&spec, &arrivals, QUERIES, 5)
            .workers(workers)
            .run()
            .unwrap();
        assert_eq!(serial, sharded, "workers {workers}");
    }
    let lifecycle = Scenario::new(&spec, &arrivals, QUERIES, 5)
        .lifecycle(&LifecycleConfig::new())
        .workers(2)
        .run()
        .unwrap();
    assert_eq!(serial, lifecycle);
}
