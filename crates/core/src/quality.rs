use rand::rngs::StdRng;
use rand::SeedableRng;
use recpipe_data::{DatasetKind, DatasetSpec, Normal, QueryGenerator};
use recpipe_metrics::{ideal_top_k, ndcg_at_k, BinaryConfusion};
use recpipe_models::{AccuracyModel, ModelKind};
use serde::{Deserialize, Serialize};

use crate::PipelineConfig;

/// Quality measurement of a pipeline over many queries.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QualityReport {
    /// Mean NDCG of the served top-k, in `[0, 1]` (the paper reports this
    /// x100, e.g. 92.25).
    pub ndcg: f64,
    /// Standard deviation across queries.
    pub ndcg_std: f64,
    /// Queries evaluated.
    pub queries: usize,
}

impl QualityReport {
    /// NDCG scaled to the paper's percent convention.
    pub fn ndcg_percent(&self) -> f64 {
        self.ndcg * 100.0
    }
}

/// Monte-Carlo quality evaluator implementing the paper's quality metric
/// (Section 2.2): NDCG of the top-64 served items against the ideal
/// ordering of the *full* candidate pool.
///
/// ## Mechanism
///
/// Each query draws a pool of candidates with hidden true utilities
/// (`Exp(1)` tails). A stage scores the items it sees as
/// `utility + Normal(0, sigma_model)` — the calibrated
/// [`AccuracyModel`] maps model tiers to noise levels — and forwards its
/// top `items_out` survivors. The final stage's ranking of its survivors
/// is served; NDCG gains are `utility^gain_exponent`.
///
/// Two structural effects emerge rather than being assumed:
///
/// * ranking fewer items than the pool leaves good candidates unseen
///   (the items-ranked axis of Figure 3);
/// * multi-stage funnels recover single-stage quality as long as the
///   frontend's noise rarely drops true winners out of its shortlist
///   (the iso-quality result of Section 5.1).
///
/// Sub-batched execution (RPAccel's O.5) is modeled honestly: with
/// `sub_batches = n`, each stage selects `items_out / n` survivors from
/// each chunk of its input, stitched together — quality can degrade if
/// winners cluster in one chunk.
///
/// Two random streams drive an evaluation, and they are kept apart:
///
/// * the **query stream** (seed `seed + 1`) draws each query's pool of
///   utilities. It is the same for every pipeline, so
///   [`evaluate_many`](Self::evaluate_many) runs query-major: it draws
///   each pool once, derives its gains and top-`k` ideal ordering once,
///   and then pushes every pipeline's funnel through that query;
/// * each pipeline's **noise stream** (its own generator seeded with
///   `seed`) draws the scoring errors, consumed in funnel order: the
///   shared per-item components, then each stage's fresh components.
///
/// Every pipeline therefore sees the same queries (common random
/// numbers) and a private noise stream that no other pipeline touches.
/// A pipeline's report depends only on the evaluator and the pipeline,
/// never on which pipelines share a batch or in what order, so
/// batching, grouping or parallelizing evaluations cannot change a
/// result: [`evaluate`](Self::evaluate) is `evaluate_many` of one.
///
/// Stage filters select their survivors rather than sort the whole
/// input: the top `items_out` by (score descending, input position
/// ascending), which is exactly the order a stable descending sort
/// would give.
///
/// # Examples
///
/// ```
/// use recpipe_core::{PipelineConfig, QualityEvaluator};
/// use recpipe_models::ModelKind;
///
/// let single = PipelineConfig::single_stage(ModelKind::RmLarge, 4096, 64).unwrap();
/// let report = QualityEvaluator::criteo_like(64).evaluate(&single);
/// assert!(report.ndcg_percent() > 90.0);
/// ```
#[derive(Debug, Clone)]
pub struct QualityEvaluator {
    spec: DatasetSpec,
    accuracy: AccuracyModel,
    top_k: usize,
    num_queries: usize,
    sub_batches: usize,
    /// Correlation of scoring errors across stages: recommendation tiers
    /// share features and training data, so an item a small model
    /// mis-scores is likely mis-scored by the large model too. With
    /// independent errors (0.0) a second stage would *average away*
    /// noise and multi-stage would beat single-stage quality; the
    /// calibrated value reproduces the paper's iso-quality result.
    stage_noise_correlation: f64,
    seed: u64,
}

impl QualityEvaluator {
    /// Evaluator for the Criteo-like workload serving `top_k` items.
    pub fn criteo_like(top_k: usize) -> Self {
        Self::for_dataset(DatasetKind::CriteoKaggle, top_k)
    }

    /// Evaluator for any dataset.
    pub fn for_dataset(dataset: DatasetKind, top_k: usize) -> Self {
        let accuracy = match dataset {
            DatasetKind::CriteoKaggle => AccuracyModel::criteo(),
            _ => AccuracyModel::movielens(),
        };
        Self {
            spec: DatasetSpec::for_kind(dataset),
            accuracy,
            top_k,
            num_queries: 300,
            sub_batches: 1,
            stage_noise_correlation: 0.9,
            seed: 0x5eed,
        }
    }

    /// Overrides the number of Monte-Carlo queries (default 300).
    pub fn queries(mut self, n: usize) -> Self {
        self.num_queries = n.max(1);
        self
    }

    /// Overrides the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Evaluates with per-stage sub-batched top-k stitching (RPAccel's
    /// pipelined execution; the paper uses 4).
    pub fn sub_batches(mut self, n: usize) -> Self {
        self.sub_batches = n.max(1);
        self
    }

    /// Overrides the accuracy (score-noise) model, e.g. for calibration
    /// sweeps or future-model projections.
    pub fn accuracy_model(mut self, accuracy: AccuracyModel) -> Self {
        self.accuracy = accuracy;
        self
    }

    /// Overrides the cross-stage error correlation in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `rho` is outside `[0, 1]`.
    pub fn noise_correlation(mut self, rho: f64) -> Self {
        assert!((0.0..=1.0).contains(&rho), "correlation must be in [0, 1]");
        self.stage_noise_correlation = rho;
        self
    }

    /// The dataset spec in use.
    pub fn spec(&self) -> &DatasetSpec {
        &self.spec
    }

    /// Measures the pipeline's quality.
    pub fn evaluate(&self, pipeline: &PipelineConfig) -> QualityReport {
        self.evaluate_many(std::slice::from_ref(pipeline))
            .pop()
            .expect("one report per pipeline")
    }

    /// Measures every pipeline's quality in one pass over the query
    /// stream, returning the reports in input order. Each report is
    /// bit-identical to [`evaluate`](Self::evaluate) of that pipeline
    /// alone, whatever else is in the batch.
    pub fn evaluate_many(&self, pipelines: &[PipelineConfig]) -> Vec<QualityReport> {
        if pipelines.is_empty() {
            return Vec::new();
        }
        let mut gen = QueryGenerator::new(&self.spec, self.seed.wrapping_add(1));
        let mut rngs: Vec<StdRng> = pipelines
            .iter()
            .map(|_| StdRng::seed_from_u64(self.seed))
            .collect();
        let mut scores: Vec<Vec<f64>> = pipelines
            .iter()
            .map(|_| Vec::with_capacity(self.num_queries))
            .collect();
        let mut scratch = Scratch::default();
        let mut served_gains = Vec::new();

        for _ in 0..self.num_queries {
            let query = gen.next_query();
            let utilities = &query.utilities;

            // Ideal ordering over the FULL pool: unseen candidates count
            // against the pipeline.
            let gains: Vec<f64> = utilities
                .iter()
                .map(|&u| u.powf(self.spec.gain_exponent))
                .collect();
            let ideal = ideal_top_k(&gains, self.top_k);

            for ((pipeline, rng), scores) in pipelines.iter().zip(&mut rngs).zip(&mut scores) {
                let served = self.run_funnel(pipeline, utilities, rng, &mut scratch);
                served_gains.clear();
                served_gains.extend(served.iter().map(|&idx| gains[idx]));
                scores.push(ndcg_at_k(&served_gains, &ideal, self.top_k));
            }
        }

        scores
            .iter()
            .map(|scores| {
                let mean = scores.iter().sum::<f64>() / scores.len() as f64;
                let var =
                    scores.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / scores.len() as f64;
                QualityReport {
                    ndcg: mean,
                    ndcg_std: var.sqrt(),
                    queries: scores.len(),
                }
            })
            .collect()
    }

    /// Pushes one query through `pipeline`'s funnel, drawing its scoring
    /// noise from `rng`, and returns the served pool indices, best
    /// first.
    fn run_funnel<'s>(
        &self,
        pipeline: &PipelineConfig,
        utilities: &[f64],
        rng: &mut StdRng,
        scratch: &'s mut Scratch,
    ) -> &'s [usize] {
        let Scratch {
            shared,
            scored,
            picks,
            survivors,
            next,
        } = scratch;
        let noise = Normal::standard();

        // The funnel: indices into the pool survive stage by stage.
        let first_in = (pipeline.items_in() as usize).min(utilities.len());
        survivors.clear();
        survivors.extend(0..first_in);

        // Persistent per-item error component shared by every stage
        // (see `stage_noise_correlation`).
        shared.clear();
        shared.extend((0..first_in).map(|_| noise.sample(rng)));
        let rho = self.stage_noise_correlation;
        let fresh_scale = (1.0 - rho * rho).sqrt();

        let num_stages = pipeline.num_stages();
        for (stage_idx, stage) in pipeline.stages().iter().enumerate() {
            let sigma = self.accuracy.sigma(stage.model);
            scored.clear();
            scored.extend(survivors.iter().enumerate().map(|(pos, &idx)| {
                let eps = rho * shared[idx] + fresh_scale * noise.sample(rng);
                rank_key(utilities[idx] + sigma * eps, pos)
            }));
            // Inter-stage filtering may stitch per-sub-batch top-k/n
            // lists (unordered is fine; the next stage rescores), but
            // the FINAL stage's output is the served ranking and is
            // always globally ordered.
            let last = stage_idx + 1 == num_stages;
            picks.clear();
            if last {
                top_k_indices(scored, stage.items_out as usize, picks);
            } else {
                select_top(scored, stage.items_out as usize, self.sub_batches, picks);
            }
            next.clear();
            next.extend(picks.iter().map(|&pos| survivors[pos]));
            std::mem::swap(survivors, next);
        }
        survivors
    }

    /// Measures a single model tier's pointwise CTR accuracy (the metric
    /// of Figure 3 left): classify "click" (utility above the ~25th
    /// percentile threshold of `Exp(1)`) from the noisy score.
    pub fn evaluate_accuracy(&self, model: ModelKind) -> f64 {
        // P(Exp(1) > ln 4) = 0.25: a Criteo-like positive rate.
        let threshold = 4.0f64.ln();
        let sigma = self.accuracy.sigma(model);
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(7));
        let mut gen = QueryGenerator::new(&self.spec, self.seed.wrapping_add(8));
        let noise = Normal::standard();

        let mut cm = BinaryConfusion::new();
        for _ in 0..self.num_queries.min(50) {
            let query = gen.next_query();
            for &u in &query.utilities {
                let score = u + sigma * noise.sample(&mut rng);
                // Map the unbounded score to a pseudo-CTR via the same
                // threshold the labels use.
                let predicted = if score > threshold { 0.9 } else { 0.1 };
                cm.observe(predicted, u > threshold);
            }
        }
        cm.error()
    }
}

/// Reusable buffers for [`QualityEvaluator::evaluate_many`]: sized by
/// the first query, then recycled across pipelines and queries.
#[derive(Debug, Default)]
struct Scratch {
    /// Per-item shared error component, indexed by pool position.
    shared: Vec<f64>,
    /// [`rank_key`]s of the items a stage scores.
    scored: Vec<u128>,
    /// Input positions a stage keeps.
    picks: Vec<usize>,
    /// Pool indices alive after the latest stage.
    survivors: Vec<usize>,
    /// The next stage's survivors, before they swap in.
    next: Vec<usize>,
}

/// Appends the input positions of the top `k` scored items, optionally
/// stitching `sub_batches` per-chunk top-(k/n) selections (the
/// accelerator's sub-batched filtering). Reorders `scored` in place.
fn select_top(scored: &mut [u128], k: usize, sub_batches: usize, out: &mut Vec<usize>) {
    if sub_batches <= 1 || scored.len() <= sub_batches {
        return top_k_indices(scored, k, out);
    }
    let chunk_len = scored.len().div_ceil(sub_batches);
    let per_chunk = (k / sub_batches).max(1);
    let start = out.len();
    for chunk in scored.chunks_mut(chunk_len) {
        top_k_indices(chunk, per_chunk, out);
    }
    out.truncate(start + k.max(1));
}

/// Packs a stage's score for the item at input position `pos` into one
/// integer whose ascending order is (score descending, position
/// ascending) — the order a stable descending sort of the scores gives.
/// Scores are never NaN; `-0.0` ranks equal to `0.0`, as it compares.
fn rank_key(score: f64, pos: usize) -> u128 {
    // `+ 0.0` turns -0.0 into 0.0. Flipping a negative's bits, or a
    // positive's sign bit, orders IEEE-754 doubles as unsigned integers.
    let bits = (score + 0.0).to_bits();
    let ascending = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    (u128::from(!ascending) << 64) | pos as u128
}

/// Appends the input positions of the top `k` (at least one) entries of
/// `scored` ([`rank_key`]s), best first, by selecting the top `k` and
/// sorting only them. Reorders `scored` in place.
fn top_k_indices(scored: &mut [u128], k: usize, out: &mut Vec<usize>) {
    let k = k.max(1).min(scored.len());
    if k == 0 {
        return;
    }
    if k < scored.len() {
        scored.select_nth_unstable(k - 1);
    }
    let top = &mut scored[..k];
    top.sort_unstable();
    out.extend(top.iter().map(|&key| key as u64 as usize));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StageConfig;

    fn eval() -> QualityEvaluator {
        QualityEvaluator::criteo_like(64).queries(150)
    }

    fn single(model: ModelKind, items: u64) -> PipelineConfig {
        PipelineConfig::single_stage(model, items, 64).unwrap()
    }

    fn two_stage(front: ModelKind, items: u64, mid: u64) -> PipelineConfig {
        PipelineConfig::builder()
            .stage(StageConfig::new(front, items, mid))
            .stage(StageConfig::new(ModelKind::RmLarge, mid, 64))
            .build()
            .unwrap()
    }

    #[test]
    fn rmlarge_full_pool_hits_max_quality_target() {
        // Paper Section 4: the Criteo maximum-quality target is
        // NDCG 92.25, achieved by RMlarge ranking all 4096 items.
        let q = eval()
            .evaluate(&single(ModelKind::RmLarge, 4096))
            .ndcg_percent();
        assert!((91.0..94.0).contains(&q), "RMlarge@4096 NDCG {q}");
    }

    #[test]
    fn model_ordering_matches_accuracy_ordering() {
        let q_small = eval().evaluate(&single(ModelKind::RmSmall, 4096)).ndcg;
        let q_med = eval().evaluate(&single(ModelKind::RmMed, 4096)).ndcg;
        let q_large = eval().evaluate(&single(ModelKind::RmLarge, 4096)).ndcg;
        assert!(
            q_small < q_med && q_med < q_large,
            "{q_small} {q_med} {q_large}"
        );
    }

    #[test]
    fn quality_is_monotone_in_items_ranked() {
        // Figure 3 (center/right): more items ranked → higher quality.
        let mut prev = 0.0;
        for items in [256u64, 1024, 2048, 4096] {
            let q = eval().evaluate(&single(ModelKind::RmLarge, items)).ndcg;
            assert!(q > prev, "items {items}: {q} <= {prev}");
            prev = q;
        }
    }

    #[test]
    fn two_stage_is_iso_quality_with_single_stage() {
        // Section 5.1: RMsmall@4096 → RMlarge@256 matches single-stage
        // RMlarge@4096 quality.
        let single_q = eval().evaluate(&single(ModelKind::RmLarge, 4096)).ndcg;
        let multi_q = eval()
            .evaluate(&two_stage(ModelKind::RmSmall, 4096, 256))
            .ndcg;
        assert!(
            (single_q - multi_q).abs() < 0.01,
            "single {single_q} vs two-stage {multi_q}"
        );
    }

    #[test]
    fn frontend_tier_is_irrelevant_at_iso_quality() {
        // Section 5.1: with RMlarge in the backend, RMsmall and RMmed
        // frontends reach the same quality — the key argument for
        // optimizing quality, not accuracy.
        let with_small = eval()
            .evaluate(&two_stage(ModelKind::RmSmall, 4096, 256))
            .ndcg;
        let with_med = eval()
            .evaluate(&two_stage(ModelKind::RmMed, 4096, 256))
            .ndcg;
        assert!(
            (with_small - with_med).abs() < 0.01,
            "small-front {with_small} vs med-front {with_med}"
        );
    }

    #[test]
    fn overly_aggressive_filtering_hurts_quality() {
        // Keeping only 64 after the frontend leaves the backend nothing
        // to fix.
        let tight = eval()
            .evaluate(&two_stage(ModelKind::RmSmall, 4096, 64))
            .ndcg;
        let roomy = eval()
            .evaluate(&two_stage(ModelKind::RmSmall, 4096, 512))
            .ndcg;
        assert!(roomy > tight, "roomy {roomy} vs tight {tight}");
    }

    #[test]
    fn sub_batching_at_paper_setting_preserves_quality() {
        // Takeaway 4: four sub-batches keep quality within noise.
        let whole = eval()
            .evaluate(&two_stage(ModelKind::RmSmall, 4096, 256))
            .ndcg;
        let chunked = eval()
            .sub_batches(4)
            .evaluate(&two_stage(ModelKind::RmSmall, 4096, 256))
            .ndcg;
        assert!(
            (whole - chunked).abs() < 0.012,
            "whole {whole} vs 4 sub-batches {chunked}"
        );
    }

    #[test]
    fn sub_batch_stitching_cost_is_bounded() {
        // Stitched per-chunk top-k/n only drops borderline survivors the
        // correlated backend would down-rank anyway: even extreme
        // shredding costs at most ~1 NDCG point and never helps beyond
        // Monte-Carlo noise.
        let whole = eval()
            .evaluate(&two_stage(ModelKind::RmSmall, 4096, 256))
            .ndcg;
        for n in [2usize, 8, 64] {
            let chunked = eval()
                .sub_batches(n)
                .evaluate(&two_stage(ModelKind::RmSmall, 4096, 256))
                .ndcg;
            assert!(
                chunked > whole - 0.012 && chunked < whole + 0.004,
                "n={n}: whole {whole} vs chunked {chunked}"
            );
        }
    }

    /// The pre-selection ranking: a stable descending sort of the
    /// scores, truncated to `k` (at least one).
    fn sorted_reference(scores: &[f64], k: usize) -> Vec<usize> {
        let mut ranked: Vec<(usize, f64)> = scores.iter().copied().enumerate().collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        ranked.truncate(k.max(1));
        ranked.into_iter().map(|(pos, _)| pos).collect()
    }

    /// The pre-selection stitching: each chunk's sorted top-(k/n),
    /// concatenated in chunk order and truncated to `k`.
    fn stitched_reference(scores: &[f64], k: usize, n: usize) -> Vec<usize> {
        if n <= 1 || scores.len() <= n {
            return sorted_reference(scores, k);
        }
        let chunk_len = scores.len().div_ceil(n);
        let per_chunk = (k / n).max(1);
        let mut out: Vec<usize> = scores
            .chunks(chunk_len)
            .enumerate()
            .flat_map(|(c, chunk)| {
                sorted_reference(chunk, per_chunk)
                    .into_iter()
                    .map(move |pos| c * chunk_len + pos)
            })
            .collect();
        out.truncate(k.max(1));
        out
    }

    /// Seeded scores; `levels` > 0 draws from that many values so ties
    /// are common.
    fn random_scores(len: usize, levels: u64, state: &mut u64) -> Vec<f64> {
        (0..len)
            .map(|_| {
                *state ^= *state << 13;
                *state ^= *state >> 7;
                *state ^= *state << 17;
                if levels > 0 {
                    (*state % levels) as f64 * 0.25 - 1.0
                } else {
                    (*state >> 11) as f64 / (1u64 << 53) as f64
                }
            })
            .collect()
    }

    fn as_scored(scores: &[f64]) -> Vec<u128> {
        scores
            .iter()
            .enumerate()
            .map(|(pos, &s)| rank_key(s, pos))
            .collect()
    }

    #[test]
    fn top_k_selection_matches_stable_sort() {
        let mut state = 0x9e37_79b9_7f4a_7c15;
        let extremes = vec![
            0.0,
            -0.0,
            1.5,
            f64::NEG_INFINITY,
            -0.0,
            -1.5,
            f64::INFINITY,
            0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
        ];
        let mut inputs = vec![extremes];
        for len in [0usize, 1, 2, 5, 64, 257, 1000] {
            for levels in [0u64, 1, 3, 8] {
                inputs.push(random_scores(len, levels, &mut state));
            }
        }
        for scores in &inputs {
            let len = scores.len();
            for k in [
                0,
                1,
                2,
                3,
                len / 2,
                len.saturating_sub(1),
                len,
                len + 1,
                4096,
            ] {
                let mut picks = Vec::new();
                top_k_indices(&mut as_scored(scores), k, &mut picks);
                assert_eq!(picks, sorted_reference(scores, k), "{scores:?}, k {k}");
            }
        }
    }

    #[test]
    fn stitched_selection_matches_per_chunk_reference() {
        let mut state = 0x2545_f491_4f6c_dd1d;
        // Lengths that leave uneven final chunks for most `n`.
        for len in [1usize, 3, 4, 10, 63, 257, 1000] {
            for levels in [0u64, 2, 8] {
                let scores = random_scores(len, levels, &mut state);
                for n in [1usize, 2, 3, 4, 7, 64] {
                    for k in [1, 2, 5, 8, 64, 256, len, len + 3] {
                        let mut picks = Vec::new();
                        select_top(&mut as_scored(&scores), k, n, &mut picks);
                        assert_eq!(
                            picks,
                            stitched_reference(&scores, k, n),
                            "len {len}, levels {levels}, n {n}, k {k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn evaluation_is_deterministic() {
        let a = eval().evaluate(&single(ModelKind::RmMed, 1024));
        let b = eval().evaluate(&single(ModelKind::RmMed, 1024));
        assert_eq!(a, b);
    }

    #[test]
    fn accuracy_tracks_model_tier() {
        let e = eval();
        let small = e.evaluate_accuracy(ModelKind::RmSmall);
        let large = e.evaluate_accuracy(ModelKind::RmLarge);
        assert!(small > large, "small err {small} vs large err {large}");
        assert!((0.01..0.5).contains(&large));
    }

    #[test]
    fn movielens_evaluator_works() {
        let e = QualityEvaluator::for_dataset(DatasetKind::MovieLens1M, 64).queries(100);
        let p = PipelineConfig::builder()
            .dataset(DatasetKind::MovieLens1M)
            .stage(StageConfig::new(ModelKind::RmLarge, 1024, 64))
            .build()
            .unwrap();
        let q = e.evaluate(&p).ndcg;
        assert!((0.5..1.0).contains(&q));
    }
}
