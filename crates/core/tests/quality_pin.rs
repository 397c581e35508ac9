//! Bit-identity pins for the quality evaluator.
//!
//! `data/quality_pin.txt` holds digests of `QualityReport`s recorded from
//! the sort-based, pipeline-major evaluator that query-major
//! `evaluate_many` replaced. Every live report must reproduce its digest
//! exactly, through `evaluate` and through `evaluate_many`, and a batch's
//! reports must not depend on how its pipelines are ordered or split.

use recpipe_core::{PipelineConfig, QualityEvaluator, QualityReport, Scheduler, SchedulerSettings};
use recpipe_data::DatasetKind;

const PINS: &str = include_str!("data/quality_pin.txt");

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

struct Cell {
    evaluator: QualityEvaluator,
    label: String,
    digests: Vec<String>,
}

fn pipelines() -> Vec<PipelineConfig> {
    Scheduler::new(SchedulerSettings::paper_default()).enumerate_pipelines(3)
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
            Cell {
                evaluator: QualityEvaluator::for_dataset(dataset, 64)
                    .queries(3)
                    .seed(seed)
                    .sub_batches(sub_batches),
                label: format!("{dataset:?} seed {seed} sub_batches {sub_batches}"),
                digests: fields.map(str::to_owned).collect(),
            }
        })
        .collect()
}

fn assert_pinned(cell: &Cell, pipelines: &[PipelineConfig], reports: &[QualityReport]) {
    assert_eq!(reports.len(), pipelines.len(), "{}", cell.label);
    for ((pipeline, report), pinned) in pipelines.iter().zip(reports).zip(&cell.digests) {
        assert_eq!(
            &digest(report),
            pinned,
            "{}: {} -> {report:?}",
            cell.label,
            pipeline.describe()
        );
    }
}

#[test]
fn pin_covers_the_full_grid() {
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
        assert_pinned(&cell, &pipelines, &reports);
    }
}

#[test]
fn evaluate_many_reproduces_pinned_reports() {
    let pipelines = pipelines();
    for cell in cells() {
        assert_pinned(&cell, &pipelines, &cell.evaluator.evaluate_many(&pipelines));
    }
}

#[test]
fn evaluate_many_ignores_batch_order_and_partition() {
    let pipelines = pipelines();
    let reversed: Vec<PipelineConfig> = pipelines.iter().rev().cloned().collect();

    for cell in cells().iter().filter(|c| c.label.contains("seed 77")) {
        let mut unreversed = cell.evaluator.evaluate_many(&reversed);
        unreversed.reverse();
        assert_pinned(cell, &pipelines, &unreversed);

        for chunk in [1, 4, 13] {
            let split: Vec<QualityReport> = pipelines
                .chunks(chunk)
                .flat_map(|part| cell.evaluator.evaluate_many(part))
                .collect();
            assert_pinned(cell, &pipelines, &split);
        }
    }
}

#[test]
fn evaluate_many_of_nothing_is_empty() {
    assert!(QualityEvaluator::criteo_like(64)
        .evaluate_many(&[])
        .is_empty());
}
