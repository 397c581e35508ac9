//! Calibration harness for the statistical quality model.
//!
//! Sweeps score-noise sigmas and prints the NDCG@64 each configuration
//! achieves, so `AccuracyModel`'s constants can be pinned to the paper's
//! anchors:
//!
//! * RMlarge @ 4096 items → NDCG 92.25 (max-quality target)
//! * RMsmall @ 4096 items → NDCG ~91.3 (Figure 3)
//! * RMsmall→RMlarge two-stage @ 4096→256 → NDCG 92.25 (iso-quality)
//! * quality @ 3200 items → NDCG ~87-88 (Figure 8 bottom)

use recpipe_core::{PipelineConfig, QualityEvaluator, StageConfig};
use recpipe_models::{AccuracyModel, ModelKind};

fn main() {
    let queries = 600;

    println!("== single-stage NDCG vs sigma (items=4096) ==");
    for sigma in [0.2, 0.3, 0.4, 0.44, 0.5, 0.58, 0.6, 0.7, 0.8, 0.9, 1.0] {
        let acc = AccuracyModel::criteo().with_sigma(ModelKind::RmLarge, sigma);
        let p = PipelineConfig::single_stage(ModelKind::RmLarge, 4096, 64).unwrap();
        let q = QualityEvaluator::criteo_like(64)
            .queries(queries)
            .accuracy_model(acc)
            .evaluate(&p);
        println!("sigma={sigma:.2} -> NDCG {:.2}", q.ndcg_percent());
    }

    println!("\n== items-ranked curve with calibrated sigmas ==");
    let kinds = [ModelKind::RmSmall, ModelKind::RmMed, ModelKind::RmLarge];
    let items_grid = [256u64, 512, 1024, 2048, 3200, 4096];
    let pipelines: Vec<PipelineConfig> = items_grid
        .iter()
        .flat_map(|&items| kinds.map(|kind| PipelineConfig::single_stage(kind, items, 64).unwrap()))
        .collect();
    let reports = QualityEvaluator::criteo_like(64)
        .queries(queries)
        .evaluate_many(&pipelines);
    for (items, row) in items_grid.iter().zip(reports.chunks(kinds.len())) {
        for (kind, q) in kinds.iter().zip(row) {
            print!("{kind}@{items}: {:.2}  ", q.ndcg_percent());
        }
        println!();
    }

    println!("\n== two-stage configurations (rho sweep) ==");
    let two_stage: Vec<PipelineConfig> = [
        (ModelKind::RmSmall, 64),
        (ModelKind::RmSmall, 128),
        (ModelKind::RmSmall, 256),
        (ModelKind::RmSmall, 512),
        (ModelKind::RmMed, 256),
    ]
    .into_iter()
    .map(|(front, mid)| {
        PipelineConfig::builder()
            .stage(StageConfig::new(front, 4096, mid))
            .stage(StageConfig::new(ModelKind::RmLarge, mid, 64))
            .build()
            .unwrap()
    })
    .collect();
    for rho in [0.8, 0.9, 0.95] {
        let reports = QualityEvaluator::criteo_like(64)
            .queries(queries)
            .noise_correlation(rho)
            .evaluate_many(&two_stage);
        for (p, q) in two_stage.iter().zip(&reports) {
            println!(
                "rho={rho:.2} {} -> NDCG {:.2}",
                p.describe(),
                q.ndcg_percent()
            );
        }
    }

    println!("\n== sub-batching effect (two-stage 4096->256) ==");
    for n in [1usize, 2, 4, 8, 16, 64] {
        let p = PipelineConfig::builder()
            .stage(StageConfig::new(ModelKind::RmSmall, 4096, 256))
            .stage(StageConfig::new(ModelKind::RmLarge, 256, 64))
            .build()
            .unwrap();
        let q = QualityEvaluator::criteo_like(64)
            .queries(queries)
            .sub_batches(n)
            .evaluate(&p);
        println!("sub_batches={n} -> NDCG {:.2}", q.ndcg_percent());
    }
}
