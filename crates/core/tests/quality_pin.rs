//! Bit-identity pins for the quality evaluator, checked against an
//! independent reference.
//!
//! [`reference`] below is a short, naive evaluator written from the
//! evaluator's documented model and nothing else of its code: pipeline
//! at a time, full stable sorts, per-chunk stitching and a hand-written
//! DCG, with no funnel sharing. It calls only the public keyed sampler
//! (`KeyedNormal`) and `QueryGenerator`. `data/quality_pin.txt` holds
//! digests of its reports, written by the ignored `regenerate_pins`
//! test. Every live report must equal both the reference and its
//! digest, through `evaluate` and through `evaluate_many`, and a batch's
//! reports must not depend on how its pipelines are ordered or split.

use recpipe_core::{PipelineConfig, QualityEvaluator, QualityReport, Scheduler, SchedulerSettings};
use recpipe_data::{DatasetKind, DatasetSpec, KeyedNormal, QueryGenerator};
use recpipe_models::AccuracyModel;

const PINS: &str = include_str!("data/quality_pin.txt");

/// Header of `data/quality_pin.txt`.
const HEADER: &str = "\
# QualityReport digests of the naive reference evaluator in
# crates/core/tests/quality_pin.rs. Regenerate with
#   cargo test --release -p recpipe-core --test quality_pin -- --ignored regenerate_pins
# One line per grid cell:
#   <dataset> <seed> <sub_batches> <digest per pipeline...>
# over Scheduler::new(SchedulerSettings::paper_default()).enumerate_pipelines(3)
# in enumeration order, with QualityEvaluator::for_dataset(dataset, 64).queries(3).
# A digest is FNV-1a 64 over the little-endian bytes of
# (ndcg.to_bits(), ndcg_std.to_bits(), queries as u64).
";

const QUERIES: usize = 3;
const TOP_K: usize = 64;
/// The evaluator's default cross-stage error correlation.
const RHO: f64 = 0.9;

/// FNV-1a 64 over the little-endian bytes of the report's bits.
fn digest(r: &QualityReport) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in [r.ndcg.to_bits(), r.ndcg_std.to_bits(), r.queries as u64] {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// splitmix64: add the golden gamma, then finalize.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Positions of the `k` (at least one) best scores, best first, ties in
/// input order.
fn sorted_top(scores: &[f64], k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap());
    order.truncate(k.max(1));
    order
}

/// The reference report of `pipeline` on one grid cell: the documented
/// model, evaluated one pipeline and one query at a time.
///
/// Query `q`'s noise for pool item `i` in stream `s` (0 for the shared
/// component, `1 + position` for a stage's fresh one) is the keyed
/// sample of `mix(query_key ^ mix(s)) + i * 0xbf58_476d_1ce4_e5b9`,
/// where `query_key = mix(mix(seed) ^ q)`. A stage scores
/// `utility + sigma * (rho * shared + sqrt(1 - rho^2) * fresh)`.
fn reference(
    dataset: DatasetKind,
    seed: u64,
    sub_batches: usize,
    pipeline: &PipelineConfig,
) -> QualityReport {
    let spec = DatasetSpec::for_kind(dataset);
    let accuracy = match dataset {
        DatasetKind::CriteoKaggle => AccuracyModel::criteo(),
        _ => AccuracyModel::movielens(),
    };
    let normal = KeyedNormal::new();
    let fresh_scale = (1.0 - RHO * RHO).sqrt();
    let mut gen = QueryGenerator::new(&spec, seed.wrapping_add(1));

    let mut ndcgs = Vec::new();
    for q in 0..QUERIES as u64 {
        let utilities = gen.next_query().utilities;
        let query_key = mix(mix(seed) ^ q);
        let noise = |stream: u64, item: usize| {
            let key = mix(query_key ^ mix(stream));
            normal.sample(key.wrapping_add((item as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9)))
        };

        let first_in = (pipeline.items_in() as usize).min(utilities.len());
        let mut survivors: Vec<usize> = (0..first_in).collect();
        for (position, stage) in pipeline.stages().iter().enumerate() {
            let sigma = accuracy.sigma(stage.model);
            let scores: Vec<f64> = survivors
                .iter()
                .map(|&i| {
                    let eps = RHO * noise(0, i) + fresh_scale * noise(1 + position as u64, i);
                    utilities[i] + sigma * eps
                })
                .collect();
            let k = stage.items_out as usize;
            let last = position + 1 == pipeline.num_stages();
            let picks = if last || sub_batches <= 1 || scores.len() <= sub_batches {
                sorted_top(&scores, k)
            } else {
                // Each chunk's own top k/n, concatenated in chunk order.
                let chunk_len = scores.len().div_ceil(sub_batches);
                let mut picks: Vec<usize> = Vec::new();
                for (c, chunk) in scores.chunks(chunk_len).enumerate() {
                    for pos in sorted_top(chunk, (k / sub_batches).max(1)) {
                        picks.push(c * chunk_len + pos);
                    }
                }
                picks.truncate(k.max(1));
                picks
            };
            survivors = picks.into_iter().map(|pos| survivors[pos]).collect();
        }

        let gain = |u: f64| u.powf(spec.gain_exponent);
        let dcg = |gains: &[f64]| {
            let mut total = 0.0;
            for (rank, g) in gains.iter().take(TOP_K).enumerate() {
                total += g / ((rank + 2) as f64).log2();
            }
            total
        };
        let served: Vec<f64> = survivors.iter().map(|&i| gain(utilities[i])).collect();
        let mut ideal: Vec<f64> = utilities.iter().map(|&u| gain(u)).collect();
        ideal.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let ideal_dcg = dcg(&ideal);
        ndcgs.push(if ideal_dcg <= 0.0 {
            1.0
        } else {
            (dcg(&served) / ideal_dcg).clamp(0.0, 1.0)
        });
    }

    let n = ndcgs.len() as f64;
    let mut sum = 0.0;
    for s in &ndcgs {
        sum += s;
    }
    let mean = sum / n;
    let mut squares = 0.0;
    for s in &ndcgs {
        squares += (s - mean) * (s - mean);
    }
    QualityReport {
        ndcg: mean,
        ndcg_std: (squares / n).sqrt(),
        queries: ndcgs.len(),
    }
}

struct Cell {
    dataset: DatasetKind,
    seed: u64,
    sub_batches: usize,
    evaluator: QualityEvaluator,
    label: String,
    digests: Vec<String>,
}

impl Cell {
    fn new(dataset: DatasetKind, seed: u64, sub_batches: usize, digests: Vec<String>) -> Self {
        Cell {
            dataset,
            seed,
            sub_batches,
            evaluator: QualityEvaluator::for_dataset(dataset, TOP_K)
                .queries(QUERIES)
                .seed(seed)
                .sub_batches(sub_batches),
            label: format!("{dataset:?} seed {seed} sub_batches {sub_batches}"),
            digests,
        }
    }

    fn reference(&self, pipelines: &[PipelineConfig]) -> Vec<QualityReport> {
        pipelines
            .iter()
            .map(|p| reference(self.dataset, self.seed, self.sub_batches, p))
            .collect()
    }
}

fn pipelines() -> Vec<PipelineConfig> {
    Scheduler::new(SchedulerSettings::paper_default()).enumerate_pipelines(3)
}

fn dataset_name(dataset: DatasetKind) -> &'static str {
    match dataset {
        DatasetKind::CriteoKaggle => "criteo",
        DatasetKind::MovieLens1M => "movielens",
        other => panic!("no pin name for {other:?}"),
    }
}

fn cells() -> Vec<Cell> {
    PINS.lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .map(|line| {
            let mut fields = line.split_whitespace();
            let dataset = match fields.next().expect("dataset") {
                "criteo" => DatasetKind::CriteoKaggle,
                "movielens" => DatasetKind::MovieLens1M,
                other => panic!("unknown dataset {other}"),
            };
            let seed: u64 = fields.next().expect("seed").parse().expect("seed");
            let sub_batches: usize = fields.next().expect("sub_batches").parse().expect("n");
            Cell::new(
                dataset,
                seed,
                sub_batches,
                fields.map(str::to_owned).collect(),
            )
        })
        .collect()
}

/// Asserts that each live report matches the reference's report of the
/// same pipeline and its pinned digest.
fn assert_pinned(
    cell: &Cell,
    pipelines: &[PipelineConfig],
    expected: &[QualityReport],
    reports: &[QualityReport],
) {
    assert_eq!(reports.len(), pipelines.len(), "{}", cell.label);
    for (((pipeline, report), reference), pinned) in pipelines
        .iter()
        .zip(reports)
        .zip(expected)
        .zip(&cell.digests)
    {
        assert_eq!(
            digest(reference),
            *pinned,
            "{}: reference {} -> {reference:?}",
            cell.label,
            pipeline.describe()
        );
        assert_eq!(
            &digest(report),
            pinned,
            "{}: {} -> {report:?}, reference {reference:?}",
            cell.label,
            pipeline.describe()
        );
    }
}

/// Writes `data/quality_pin.txt` from the reference evaluator.
#[test]
#[ignore = "rewrites the pin file; run by hand after a deliberate model change"]
fn regenerate_pins() {
    let pipelines = pipelines();
    let mut out = String::from(HEADER);
    for dataset in [DatasetKind::CriteoKaggle, DatasetKind::MovieLens1M] {
        for seed in [77, 24301] {
            for sub_batches in [1, 2, 4, 64] {
                let cell = Cell::new(dataset, seed, sub_batches, Vec::new());
                out.push_str(&format!("{} {seed} {sub_batches}", dataset_name(dataset)));
                for report in cell.reference(&pipelines) {
                    out.push(' ');
                    out.push_str(&digest(&report));
                }
                out.push('\n');
            }
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/quality_pin.txt");
    std::fs::write(path, out).expect("write the pin file");
}

#[test]
fn pin_covers_the_full_grid() {
    assert!(PINS.starts_with(HEADER), "pin file header is stale");
    let cells = cells();
    assert_eq!(cells.len(), 2 * 2 * 4, "datasets x seeds x sub_batches");
    let n = pipelines().len();
    for cell in &cells {
        assert_eq!(cell.digests.len(), n, "{}", cell.label);
    }
}

#[test]
fn evaluate_reproduces_pinned_reports() {
    let pipelines = pipelines();
    for cell in cells() {
        let reports: Vec<QualityReport> = pipelines
            .iter()
            .map(|p| cell.evaluator.evaluate(p))
            .collect();
        assert_pinned(&cell, &pipelines, &cell.reference(&pipelines), &reports);
    }
}

#[test]
fn evaluate_many_reproduces_pinned_reports() {
    let pipelines = pipelines();
    for cell in cells() {
        let reports = cell.evaluator.evaluate_many(&pipelines);
        assert_pinned(&cell, &pipelines, &cell.reference(&pipelines), &reports);
    }
}

#[test]
fn evaluate_many_ignores_batch_order_and_partition() {
    let pipelines = pipelines();
    let reversed: Vec<PipelineConfig> = pipelines.iter().rev().cloned().collect();

    for cell in cells().iter().filter(|c| c.seed == 77) {
        let expected = cell.reference(&pipelines);
        let mut unreversed = cell.evaluator.evaluate_many(&reversed);
        unreversed.reverse();
        assert_pinned(cell, &pipelines, &expected, &unreversed);

        for chunk in [1, 4, 13] {
            let split: Vec<QualityReport> = pipelines
                .chunks(chunk)
                .flat_map(|part| cell.evaluator.evaluate_many(part))
                .collect();
            assert_pinned(cell, &pipelines, &expected, &split);
        }
    }
}

#[test]
fn evaluate_many_of_nothing_is_empty() {
    assert!(QualityEvaluator::criteo_like(64)
        .evaluate_many(&[])
        .is_empty());
}
