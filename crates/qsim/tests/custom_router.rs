//! Routers defined outside the crate, through the public API only.
//!
//! Each router here implements just `name` and `route`, reading the
//! public [`ReplicaLoads`] accessors, and keeps the trait's default
//! capability flags. Served end to end, each must reproduce the
//! built-in router it clones exactly (whole [`SimResult`]).

use recpipe_data::PoissonArrivals;
use recpipe_qsim::{
    BatchModel, BatchWindow, ExpectedWait, JoinShortestQueue, PipelineSpec, ReplicaGroup,
    ReplicaLoads, ReplicaProfile, Router, RouterState, RoutingCtx, Scenario, SimResult, StageSpec,
};

/// Join the replica with the fewest queued-plus-in-flight queries,
/// ties to the lowest index.
#[derive(Debug)]
struct ShortestQueueClone;

impl Router for ShortestQueueClone {
    fn name(&self) -> String {
        "jsq-clone".into()
    }

    fn route(&self, loads: &ReplicaLoads<'_>, _: &RoutingCtx<'_>, _: &mut RouterState) -> usize {
        let load = |i: usize| loads.queued(i) + loads.in_flight(i);
        (1..loads.len()).fold(0, |best, i| if load(i) < load(best) { i } else { best })
    }
}

/// Join the replica whose outstanding work drains soonest, ties by
/// fewest outstanding queries, then lowest index. Keeps the default
/// `uses_estimates() == true`, so the simulator attaches every
/// estimator column.
#[derive(Debug)]
struct ExpectedWaitClone;

impl Router for ExpectedWaitClone {
    fn name(&self) -> String {
        "expected-wait-clone".into()
    }

    fn route(&self, loads: &ReplicaLoads<'_>, _: &RoutingCtx<'_>, _: &mut RouterState) -> usize {
        let wait = |i: usize| loads.remaining_work(i) / loads.speed(i) + loads.in_flight_wait(i);
        (1..loads.len()).fold(0, |best, i| {
            let (w, b) = (wait(i), wait(best));
            if w < b || (w == b && loads.load(i) < loads.load(best)) {
                i
            } else {
                best
            }
        })
    }
}

/// Two batched stages on one replicated group.
fn replicated_batched() -> PipelineSpec {
    PipelineSpec::new(vec![ReplicaGroup::replicated("fleet", 2, 4)])
        .with_stage(StageSpec::new("filter", 0, 1, 0.004).with_batch(BatchModel::new(8, 0.25)))
        .unwrap()
        .with_stage(StageSpec::new("rank", 0, 2, 0.006).with_batch(BatchModel::new(4, 0.5)))
        .unwrap()
}

/// Two batched stages on a fleet mixing current and half-speed
/// previous-generation machines.
fn two_generation() -> PipelineSpec {
    let fleet = ReplicaGroup::heterogeneous(
        "fleet",
        vec![
            ReplicaProfile::baseline(1),
            ReplicaProfile::baseline(1),
            ReplicaProfile::new(1, 0.5),
            ReplicaProfile::new(1, 0.5),
        ],
    );
    PipelineSpec::new(vec![fleet])
        .with_stage(StageSpec::new("filter", 0, 1, 0.002).with_batch(BatchModel::new(8, 0.25)))
        .unwrap()
        .with_stage(StageSpec::new("rank", 0, 1, 0.003))
        .unwrap()
}

fn serve(spec: &PipelineSpec, router: &dyn Router, seed: u64) -> SimResult {
    let arrivals = PoissonArrivals::new(0.8 * spec.max_qps_at_full_batch());
    Scenario::new(spec, &arrivals, 3_000, seed)
        .policy(&BatchWindow::new(0.002))
        .router(router)
        .run()
        .unwrap()
}

#[test]
fn external_shortest_queue_router_matches_the_builtin() {
    let spec = replicated_batched();
    for seed in [1, 7, 42] {
        let custom = serve(&spec, &ShortestQueueClone, seed);
        assert_eq!(custom, serve(&spec, &JoinShortestQueue, seed));
        assert_eq!(custom.completed, 3_000);
        assert!(custom.mean_batch > 1.0, "mean batch {}", custom.mean_batch);
    }
}

#[test]
fn external_expected_wait_router_matches_the_builtin() {
    assert!(ExpectedWaitClone.uses_estimates());
    let spec = two_generation();
    for seed in [1, 7, 42] {
        let custom = serve(&spec, &ExpectedWaitClone, seed);
        assert_eq!(custom, serve(&spec, &ExpectedWait, seed));
        // The estimator columns change the decisions on this fleet, so
        // the match is not JSQ's by accident.
        assert_ne!(custom, serve(&spec, &JoinShortestQueue, seed));
    }
    // The per-query form agrees too.
    let arrivals = PoissonArrivals::new(0.8 * spec.max_qps());
    assert_eq!(
        Scenario::new(&spec, &arrivals, 3_000, 5)
            .router(&ExpectedWaitClone)
            .run()
            .unwrap(),
        Scenario::new(&spec, &arrivals, 3_000, 5)
            .router(&ExpectedWait)
            .run()
            .unwrap(),
    );
}
