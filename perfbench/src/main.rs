//! End-to-end and per-layer benchmark of the RecPipe workspace.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `sweep_cpu_paper`, `sweep_rpaccel`,
//! `sweep_cluster_halving`, `serve_fleet_replay` (see README.md). Each
//! iteration is one blocking call from one caller (a closed loop);
//! arrivals inside the simulations are open-loop at their simulated
//! rates. With `--trace 0` the benchmark times untraced iterations on
//! two host threads and reports the end-to-end metrics; with
//! `--trace 1` it replays each iteration serially with spans around
//! every call into a layer and reports the per-layer metrics. Either
//! way every iteration's output is checked, and the last line of
//! standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. The process exits
//! non-zero if any check failed.

mod machine;
mod serve;
mod sweeps;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use serve::{Serve, ServeOutput, BROWNOUT_QUERIES, HEDGED_QUERIES, REPLAY_QUERIES};
use sweeps::{Sweep, SweepKind, SweepOutput};
use trace::Tracer;

/// Host threads for the untraced, user-facing runs.
const WORKERS: usize = 2;

/// Set-up samples per untraced run; `setup_s` is their median. They are
/// taken after the timed iterations and after the peak RSS is read, so
/// their allocations disturb neither.
const SETUP_SAMPLES: usize = 25;

/// Each set-up sample repeats the set-up until at least this long has
/// passed and reports the mean, so microsecond set-ups are not lost in
/// timer noise.
const SETUP_SAMPLE_MIN: Duration = Duration::from_millis(20);

/// Workload names, in the order BENCHMARK.json lists them.
const WORKLOADS: [&str; 4] = [
    "sweep_cpu_paper",
    "sweep_rpaccel",
    "sweep_cluster_halving",
    "serve_fleet_replay",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds: f64 = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(77),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// A workload with its inputs built.
enum Workload {
    Sweep(Sweep),
    Serve(Serve),
}

/// What one iteration of a workload produced.
enum Output {
    Sweep(SweepOutput),
    Serve(Box<ServeOutput>),
}

impl Workload {
    fn setup(name: &str, seed: u64) -> Self {
        match name {
            "sweep_cpu_paper" => Workload::Sweep(Sweep::setup(SweepKind::CpuPaper, seed)),
            "sweep_rpaccel" => Workload::Sweep(Sweep::setup(SweepKind::RpAccel, seed)),
            "sweep_cluster_halving" => {
                Workload::Sweep(Sweep::setup(SweepKind::ClusterHalving, seed))
            }
            "serve_fleet_replay" => Workload::Serve(Serve::setup(seed)),
            _ => unreachable!("workload names are validated by parse_args"),
        }
    }

    /// One untraced iteration on `workers` host threads.
    fn run(&self, workers: usize) -> Result<Output, String> {
        match self {
            Workload::Sweep(s) => Ok(Output::Sweep(s.run(workers))),
            Workload::Serve(s) => s.run(workers, None).map(|o| Output::Serve(Box::new(o))),
        }
    }

    /// One traced serial iteration.
    fn traced(&self, t: &mut Tracer) -> Result<Output, String> {
        match self {
            Workload::Sweep(s) => Ok(Output::Sweep(s.replay(t))),
            Workload::Serve(s) => {
                let root = t.enter("serve.iteration");
                let out = s.run(1, Some(t));
                t.exit(root);
                out.map(|o| Output::Serve(Box::new(o)))
            }
        }
    }

    /// Queries one iteration simulates.
    fn sim_queries(&self, out: &Output) -> u64 {
        match (self, out) {
            (Workload::Sweep(s), Output::Sweep(o)) => o
                .stats
                .map_or_else(|| s.full_budget_sim_queries(), |st| st.simulated_queries),
            (Workload::Serve(s), _) => s.sim_queries(),
            _ => unreachable!("outputs match their workload"),
        }
    }
}

impl Output {
    fn check(&self) -> Result<(), String> {
        match self {
            Output::Sweep(o) => o.check(),
            Output::Serve(o) => o.check(),
        }
    }

    fn same_as(&self, other: &Output) -> bool {
        match (self, other) {
            (Output::Sweep(a), Output::Sweep(b)) => a.same_as(b),
            (Output::Serve(a), Output::Serve(b)) => a.same_as(b),
            _ => false,
        }
    }

    /// The workload's deterministic results, `(name, unit, value)`.
    fn results(&self) -> Vec<(&'static str, &'static str, f64)> {
        match self {
            Output::Sweep(o) => {
                let d = o.design();
                vec![
                    ("front_points", "count", d.front_points as f64),
                    ("best_ndcg_pct", "%", d.best_ndcg_pct),
                    ("iso_quality_p99_ms", "ms", d.iso_quality_p99_ms),
                    ("sla_ndcg_pct", "%", d.sla_ndcg_pct),
                ]
            }
            Output::Serve(o) => vec![
                ("replay_p99_ms", "ms", o.replay_p99_ms()),
                ("hedged_p99_ms", "ms", o.hedged_p99_ms()),
                ("brownout_goodput", "ratio", o.brownout_goodput()),
            ],
        }
    }
}

/// Checks one iteration's output on its own and against the reference
/// output of the run; returns the failure, if any.
fn verify(out: &Result<Output, String>, reference: &Option<Output>) -> Option<String> {
    let out = match out {
        Ok(out) => out,
        Err(e) => return Some(e.clone()),
    };
    if let Err(e) = out.check() {
        return Some(e);
    }
    match reference {
        Some(r) if !r.same_as(out) => Some("output differs from the run's first iteration".into()),
        _ => None,
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Named metrics as `(name, unit, value)`.
type Metrics = Vec<(&'static str, &'static str, f64)>;

/// Per-run tally of iterations and failures.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn record(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(e) = failure {
            self.failed += 1;
            println!("check failed: {e}");
        }
    }
}

/// Runs `iteration` until the window is used: another iteration starts
/// only if the previous one's duration still fits, and at least one
/// always runs.
fn measure_window(window: Duration, mut iteration: impl FnMut()) {
    let start = Instant::now();
    loop {
        let began = Instant::now();
        iteration();
        if start.elapsed() + began.elapsed() > window {
            break;
        }
    }
}

/// Untraced run: end-to-end metrics.
fn run_untraced(
    w: &Workload,
    window: Duration,
    sample_setup: impl Fn() -> f64,
    tally: &mut Tally,
) -> Metrics {
    let mut times = Vec::new();
    let mut reference: Option<Output> = None;
    measure_window(window, || {
        let began = Instant::now();
        let out = w.run(WORKERS);
        times.push(began.elapsed().as_secs_f64());
        tally.record(verify(&out, &reference));
        if reference.is_none() {
            reference = out.ok();
        }
    });
    let run_s = median(&times);
    let rss_mb = machine::peak_rss_mb();
    let setups: Vec<f64> = (0..SETUP_SAMPLES).map(|_| sample_setup()).collect();
    let setup_s = median(&setups);
    let sim_queries = reference.as_ref().map_or(0, |r| w.sim_queries(r));
    let sim_qps = sim_queries as f64 / run_s;

    println!("set-up seconds per sample: {setups:?}");
    println!("{} iterations, seconds each: {times:?}", times.len());
    let metrics: Metrics = vec![
        ("setup_s", "s", setup_s),
        ("run_s", "s", run_s),
        ("peak_rss_mb", "MB", rss_mb),
        ("sim_qps", "1/s", sim_qps),
    ];
    let error_rate = tally.failed as f64 / tally.attempted as f64;
    let mut table = metrics.clone();
    table.push(("error_rate", "ratio", error_rate));
    if let Some(r) = &reference {
        table.extend(r.results());
    }
    for (name, unit, value) in &table {
        println!("  {name:<20} {value} {unit}");
    }
    metrics
}

/// Traced run: per-layer metrics, medians over traced iterations.
fn run_traced(w: &Workload, window: Duration, tally: &mut Tally) -> Metrics {
    let mut per_iteration: Vec<Metrics> = Vec::new();
    let mut last_summary = Vec::new();
    let mut reference: Option<Output> = None;
    measure_window(window, || {
        let mut t = Tracer::new();
        let traced = w.traced(&mut t);

        let began = Instant::now();
        let serial = w.run(1);
        let serial_s = began.elapsed().as_secs_f64();
        let began = Instant::now();
        let parallel = w.run(WORKERS);
        let parallel_s = began.elapsed().as_secs_f64();
        println!(
            "traced 1-worker {:.6} s, untraced 1-worker {serial_s:.6} s, \
             untraced {WORKERS}-worker {parallel_s:.6} s",
            t.total_s("scheduler.sweep") + t.total_s("serve.iteration")
        );

        // The traced serial replay, the untraced serial run and the
        // untraced parallel run must agree bit for bit.
        let mut failure = verify(&traced, &reference)
            .or_else(|| verify(&serial, &None))
            .or_else(|| verify(&parallel, &None));
        if failure.is_none() {
            let (traced, serial, parallel) = (
                traced.as_ref().unwrap(),
                serial.as_ref().unwrap(),
                parallel.as_ref().unwrap(),
            );
            if !traced.same_as(serial) {
                failure = Some("traced serial replay differs from the untraced serial run".into());
            } else if !serial.same_as(parallel) {
                failure = Some(format!(
                    "{WORKERS}-worker output differs from the 1-worker output"
                ));
            } else {
                per_iteration.push(layer_metrics(w, &t, traced, serial_s, parallel_s));
            }
        }
        tally.record(failure);
        last_summary = t.summary();
        if reference.is_none() {
            reference = traced.ok();
        }
    });

    println!("spans of the last traced iteration (calls, total s, self s):");
    for (name, calls, total, self_s) in &last_summary {
        println!("  {name:<28} {calls:>8} {total:>12.6} {self_s:>12.6}");
    }
    let Some(first) = per_iteration.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, &(name, unit, _))| {
            let values: Vec<f64> = per_iteration.iter().map(|m| m[i].2).collect();
            (name, unit, median(&values))
        })
        .collect()
}

/// The per-layer metrics of one traced iteration. Layers a workload
/// does not exercise report 0.
fn layer_metrics(
    w: &Workload,
    t: &Tracer,
    out: &Output,
    serial_s: f64,
    parallel_s: f64,
) -> Metrics {
    let root_s = t.total_s("scheduler.sweep") + t.total_s("serve.iteration");
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let quality_s = t.total_s("quality.evaluate") + t.total_s("quality.evaluate_stitched");
    let evaluations = t.counted("quality.evaluations");
    let items = t.counted("quality.items_scored");
    let query_gen_s = t.mean_s("data.next_query");
    let ideal_sort_s = t.mean_s("metrics.ideal_sorted");
    let build_s = t.total_s("backend.build_spec");
    let build_calls = t.calls("backend.build_spec") as f64;
    let qsim_names = [
        "qsim.simulate",
        "qsim.replay",
        "qsim.hedged",
        "qsim.brownout",
    ];
    let qsim_s: f64 = qsim_names.iter().map(|n| t.total_s(n)).sum();
    let simulations: usize = qsim_names.iter().map(|n| t.calls(n)).sum();
    let sim_queries = t.counted("qsim.sim_queries");

    let mut m: Metrics = vec![
        ("quality.s", "s", quality_s),
        ("quality.ns_per_item", "ns", ratio(quality_s * 1e9, items)),
        ("quality.evaluations", "count", evaluations),
        (
            "quality.mc_queries",
            "count",
            t.counted("quality.mc_queries"),
        ),
        ("quality.items_scored", "count", items),
        (
            "quality.shared_prep_frac",
            "ratio",
            ratio((query_gen_s + ideal_sort_s) * evaluations, quality_s),
        ),
        (
            "quality.stitched_s",
            "s",
            t.total_s("quality.evaluate_stitched"),
        ),
        ("quality.root_frac", "ratio", ratio(quality_s, root_s)),
        ("data.query_gen_s", "s", query_gen_s),
        ("metrics.ideal_sort_s", "s", ideal_sort_s),
        ("metrics.pareto_s", "s", t.total_s("metrics.pareto")),
        (
            "backend.specs_built",
            "count",
            t.counted("backend.specs_built"),
        ),
        ("backend.build_s", "s", build_s),
        (
            "backend.ns_per_spec",
            "ns",
            ratio(build_s * 1e9, build_calls),
        ),
        ("qsim.s", "s", qsim_s),
        ("qsim.simulations", "count", simulations as f64),
        ("qsim.sim_queries", "count", sim_queries),
        ("qsim.ns_per_query", "ns", ratio(qsim_s * 1e9, sim_queries)),
        ("qsim.root_frac", "ratio", ratio(qsim_s, root_s)),
    ];

    let serve = match out {
        Output::Serve(o) => Some(o.as_ref()),
        Output::Sweep(_) => None,
    };
    let per_query = |name: &str, queries: usize| ratio(t.total_s(name) * 1e9, queries as f64);
    let hedged = serve.and_then(|o| o.hedged.resilience.clone());
    let serve_value = |f: &dyn Fn(&ServeOutput) -> f64| serve.map_or(0.0, f);
    m.extend([
        (
            "qsim.replay.ns_per_query",
            "ns",
            per_query("qsim.replay", REPLAY_QUERIES),
        ),
        (
            "qsim.hedged.ns_per_query",
            "ns",
            per_query("qsim.hedged", HEDGED_QUERIES),
        ),
        (
            "qsim.brownout.ns_per_query",
            "ns",
            per_query("qsim.brownout", BROWNOUT_QUERIES),
        ),
        (
            "qsim.replay.p99_ms",
            "ms",
            serve_value(&ServeOutput::replay_p99_ms),
        ),
        (
            "qsim.hedged.p99_ms",
            "ms",
            serve_value(&ServeOutput::hedged_p99_ms),
        ),
        (
            "qsim.brownout.goodput",
            "ratio",
            serve_value(&ServeOutput::brownout_goodput),
        ),
        (
            "qsim.hedged.hedges_issued",
            "count",
            hedged.as_ref().map_or(0.0, |h| h.hedges_issued as f64),
        ),
        (
            "qsim.hedged.retries",
            "count",
            hedged.as_ref().map_or(0.0, |h| h.total_retries() as f64),
        ),
        (
            "qsim.hedged.timeouts",
            "count",
            hedged.as_ref().map_or(0.0, |h| h.timeouts as f64),
        ),
        (
            "qsim.hedged.wasted_service_s",
            "sim_s",
            hedged.as_ref().map_or(0.0, |h| h.wasted_service_s),
        ),
        (
            "qsim.brownout.admission_shed",
            "count",
            serve_value(&|o| o.brownout.admission_shed as f64),
        ),
    ]);

    let (candidates, simulated, full_budget, front_len, design) = match (w, out) {
        (Workload::Sweep(s), Output::Sweep(o)) => {
            let stats = o.stats.expect("the replay reports its accounting");
            (
                stats.candidates as f64,
                stats.simulated_queries as f64,
                // The full budget: every candidate at `sim_queries`.
                stats.candidates as f64 * s.sim_queries() as f64,
                o.front.len() as f64,
                Some(o.design()),
            )
        }
        _ => (0.0, 0.0, 0.0, 0.0, None),
    };
    m.extend([
        ("scheduler.candidates", "count", candidates),
        ("scheduler.simulated_queries", "count", simulated),
        (
            "scheduler.budget_ratio",
            "ratio",
            ratio(simulated, full_budget),
        ),
        (
            "scheduler.front_yield",
            "ratio",
            ratio(front_len, candidates),
        ),
        // The root span's self time: everything not inside a call into
        // another layer (enumeration, candidate assembly, rung
        // selection).
        (
            "scheduler.residual_s",
            "s",
            t.self_total_s("scheduler.sweep"),
        ),
        (
            "scheduler.front_points",
            "count",
            design.map_or(0.0, |d| d.front_points as f64),
        ),
        (
            "scheduler.best_ndcg_pct",
            "%",
            design.map_or(0.0, |d| d.best_ndcg_pct),
        ),
        (
            "scheduler.iso_quality_p99_ms",
            "ms",
            design.map_or(0.0, |d| d.iso_quality_p99_ms),
        ),
        (
            "scheduler.sla_ndcg_pct",
            "%",
            design.map_or(0.0, |d| d.sla_ndcg_pct),
        ),
        (
            "parallel.efficiency",
            "ratio",
            ratio(serial_s, WORKERS as f64 * parallel_s),
        ),
        ("trace.root_s", "s", root_s),
        (
            "trace.overhead_frac",
            "ratio",
            ratio(root_s - serial_s, serial_s),
        ),
    ]);
    m
}

/// One set-up sample: the mean time of building the workload's inputs
/// (and dropping the previous ones), repeated for at least
/// `SETUP_SAMPLE_MIN`.
fn setup_sample(args: &Args) -> f64 {
    let began = Instant::now();
    let mut reps = 0u32;
    let mut workload = None;
    while reps == 0 || began.elapsed() < SETUP_SAMPLE_MIN {
        workload = Some(Workload::setup(&args.workload, args.seed));
        reps += 1;
    }
    let seconds = began.elapsed().as_secs_f64() / f64::from(reps);
    drop(workload);
    seconds
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    println!("{}", machine::context_line());
    let workload = Workload::setup(&args.workload, args.seed);

    println!(
        "workload {} seed {} window {} s trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let window = Duration::from_secs_f64(args.seconds);
    let mut tally = Tally::default();
    let metrics = if args.trace {
        run_traced(&workload, window, &mut tally)
    } else {
        run_untraced(&workload, window, || setup_sample(&args), &mut tally)
    };

    let all_finite = metrics.iter().all(|(_, _, v)| v.is_finite());
    let correct = tally.failed == 0 && !metrics.is_empty() && all_finite;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
