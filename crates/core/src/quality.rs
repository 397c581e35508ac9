use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use recpipe_data::{splitmix64, DatasetKind, DatasetSpec, KeyedNormal, Normal, QueryGenerator};
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
/// Randomness comes from two sources, kept apart:
///
/// * the **query stream** (a generator seeded `seed + 1`) draws each
///   query's pool of utilities, the same for every pipeline;
/// * the **scoring noise** is keyed, not streamed: the error of pool
///   item `i` in query `q` is a pure function of a hash of
///   `(seed, q, i, stream)`, sampled by [`KeyedNormal`]. The stream is
///   the shared per-item component, or the fresh component of a stage
///   position. So two stages of one pipeline draw independent fresh
///   errors even when they repeat a tier, and stages at the same
///   position in different pipelines see the same errors, scaled by
///   their tier's noise level.
///
/// Every pipeline therefore sees the same queries and the same noise
/// (common random numbers), and comparisons between designs carry less
/// Monte-Carlo variance than independent draws would. A stage's
/// survivors depend only on its input, tier, position, cut and whether
/// it is final, never on which other pipelines are evaluated alongside.
/// That lets [`evaluate_many`](Self::evaluate_many) run query-major over a
/// **funnel trie**: it draws each pool and its ideal ordering once, and
/// runs each distinct stage prefix once per query, however many
/// pipelines share it (RecPipe's own funnel, applied to the evaluator).
/// A report depends only on the evaluator and the pipeline, so
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
    /// stream, returning the reports in input order. The pipelines'
    /// stages are interned as a trie of distinct prefixes, and each
    /// prefix is scored once per query. Each report is bit-identical to
    /// [`evaluate`](Self::evaluate) of that pipeline alone, whatever
    /// else is in the batch.
    pub fn evaluate_many(&self, pipelines: &[PipelineConfig]) -> Vec<QualityReport> {
        if pipelines.is_empty() {
            return Vec::new();
        }
        let normal = KeyedNormal::new();
        let trie = FunnelTrie::new(pipelines, self.spec.candidates_per_query);
        let sigmas: Vec<f64> = trie
            .nodes
            .iter()
            .map(|node| self.accuracy.sigma(node.model))
            .collect();
        let rho = self.stage_noise_correlation;
        let fresh_scale = (1.0 - rho * rho).sqrt();
        let seed_key = splitmix64(self.seed);

        let mut gen = QueryGenerator::new(&self.spec, self.seed.wrapping_add(1));
        let mut scores: Vec<Vec<f64>> = pipelines
            .iter()
            .map(|_| Vec::with_capacity(self.num_queries))
            .collect();
        // Per node, the pool indices that survive it, best first for a
        // final stage and in stitched order otherwise.
        let mut survivors: Vec<Vec<usize>> = vec![Vec::new(); trie.nodes.len()];
        let width = trie.widest_root;
        // A first stage scores a prefix of the pool.
        let pool_items: Vec<usize> = (0..width).collect();
        let mut shared = Vec::with_capacity(width);
        let mut errors = Vec::with_capacity(width * trie.depth);
        let mut scored = Vec::new();
        let mut picks = Vec::new();
        let mut served_gains = Vec::new();

        for query in 0..self.num_queries as u64 {
            let utilities = gen.next_query().utilities;

            // Ideal ordering over the FULL pool: unseen candidates count
            // against the pipeline.
            let gains: Vec<f64> = utilities
                .iter()
                .map(|&u| u.powf(self.spec.gain_exponent))
                .collect();
            let ideal = ideal_top_k(&gains, self.top_k);

            // Each item's scoring error at each stage position: a
            // persistent component shared by every stage (see
            // `stage_noise_correlation`) plus a fresh one per position,
            // for every item the widest first stage can see.
            let query_key = splitmix64(seed_key ^ query);
            let shared_key = stream_key(query_key, SHARED_STREAM);
            shared.clear();
            shared.extend((0..width).map(|item| normal.sample(item_key(shared_key, item))));
            errors.clear();
            for depth in 0..trie.depth {
                let fresh_key = stream_key(query_key, fresh_stream(depth));
                errors.extend(shared.iter().enumerate().map(|(item, &shared)| {
                    let fresh = normal.sample(item_key(fresh_key, item));
                    rho * shared + fresh_scale * fresh
                }));
            }

            // Parents precede children, so each node filters survivors
            // its parent already chose.
            for (id, node) in trie.nodes.iter().enumerate() {
                let (done, rest) = survivors.split_at_mut(id);
                let input = match node.parent {
                    Some(p) => &done[p],
                    None => &pool_items[..node.items_in],
                };
                let eps = &errors[node.depth * width..][..width];
                let sigma = sigmas[id];
                scored.clear();
                scored.extend(
                    input
                        .iter()
                        .enumerate()
                        .map(|(pos, &idx)| rank_key(utilities[idx] + sigma * eps[idx], pos)),
                );
                // Inter-stage filtering may stitch per-sub-batch top-k/n
                // lists (unordered is fine; the next stage rescores), but
                // the FINAL stage's output is the served ranking and is
                // always globally ordered.
                picks.clear();
                if node.last {
                    top_k_indices(&mut scored, node.items_out, &mut picks);
                } else {
                    select_top(&mut scored, node.items_out, self.sub_batches, &mut picks);
                }
                let out = &mut rest[0];
                out.clear();
                out.extend(picks.iter().map(|&pos| input[pos]));
            }

            for (&leaf, scores) in trie.leaves.iter().zip(&mut scores) {
                served_gains.clear();
                served_gains.extend(survivors[leaf].iter().map(|&idx| gains[idx]));
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

/// Stream tag of the shared per-item error component.
const SHARED_STREAM: u64 = 0;

/// Stream tag of the fresh error component of the stage at position
/// `depth`. Every stage of a pipeline sits at its own position, so its
/// fresh errors are independent of its other stages' even when a tier
/// repeats; stages at one position share them across pipelines and
/// tiers, so the comparison between two tiers carries no noise of its
/// own (common random numbers).
fn fresh_stream(depth: usize) -> u64 {
    1 + depth as u64
}

/// The key of one stream of one query's noise.
fn stream_key(query_key: u64, stream: u64) -> u64 {
    splitmix64(query_key ^ splitmix64(stream))
}

/// The key of pool item `item`'s value in a stream: consecutive items
/// step the key by an odd constant other than the sampler's own gamma,
/// so no item's key lands on another item's later sampler words.
fn item_key(stream_key: u64, item: usize) -> u64 {
    stream_key.wrapping_add((item as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
}

/// One distinct stage prefix of a batch of pipelines.
#[derive(Debug)]
struct FunnelNode {
    /// The node whose survivors this stage scores; `None` for a first
    /// stage, which scores pool items `0..items_in`.
    parent: Option<usize>,
    /// Stage position in the funnel.
    depth: usize,
    model: ModelKind,
    /// Items the stage scores per query: a first stage's input, clamped
    /// to the pool; for a later stage, the most its parent keeps.
    items_in: usize,
    items_out: usize,
    /// Whether this is a pipeline's final stage, whose output is served.
    last: bool,
}

/// Every pipeline's stages interned as a trie of distinct prefixes, so
/// a batch scores each shared prefix once per query. Keyed noise makes
/// a node's survivors depend only on the node: its parent's survivors
/// (or its first-stage input), its model, its stage position, its cut
/// and whether it is final.
#[derive(Debug)]
pub(crate) struct FunnelTrie {
    /// Nodes in creation order: every parent precedes its children.
    nodes: Vec<FunnelNode>,
    /// Each pipeline's final node, in input order.
    leaves: Vec<usize>,
    /// The largest first-stage input: no stage scores an item outside
    /// `0..widest_root`.
    widest_root: usize,
    /// The most stages of any pipeline.
    depth: usize,
}

impl FunnelTrie {
    /// Interns `pipelines` over pools of `pool` candidates.
    pub(crate) fn new(pipelines: &[PipelineConfig], pool: usize) -> Self {
        // Node key -> node id; for lookup only, never iterated.
        let mut index: HashMap<(Option<usize>, usize, ModelKind, u64, bool), usize> =
            HashMap::new();
        let mut nodes: Vec<FunnelNode> = Vec::new();
        let mut leaves = Vec::with_capacity(pipelines.len());
        for pipeline in pipelines {
            let mut parent: Option<usize> = None;
            for (depth, stage) in pipeline.stages().iter().enumerate() {
                let last = depth + 1 == pipeline.num_stages();
                let items_in = match parent {
                    Some(p) => nodes[p].items_out.min(nodes[p].items_in),
                    None => (stage.items_in as usize).min(pool),
                };
                // A later stage's input follows from its parent, so this
                // is (parent, first_in for roots, model, cut, last).
                let key = (parent, items_in, stage.model, stage.items_out, last);
                let id = *index.entry(key).or_insert_with(|| {
                    nodes.push(FunnelNode {
                        parent,
                        depth,
                        model: stage.model,
                        items_in,
                        items_out: stage.items_out as usize,
                        last,
                    });
                    nodes.len() - 1
                });
                parent = Some(id);
            }
            leaves.push(parent.expect("a pipeline has at least one stage"));
        }
        let widest_root = nodes
            .iter()
            .filter(|n| n.parent.is_none())
            .map(|n| n.items_in)
            .max()
            .unwrap_or(0);
        let depth = nodes.iter().map(|n| n.depth + 1).max().unwrap_or(0);
        Self {
            nodes,
            leaves,
            widest_root,
            depth,
        }
    }

    /// Items the trie's stages score per query: the quality-evaluation
    /// work of one batch.
    pub(crate) fn items_scored(&self) -> u64 {
        self.nodes.iter().map(|n| n.items_in as u64).sum()
    }
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
    fn repeated_tier_draws_fresh_errors_per_stage() {
        // With independent stage errors, a second RMlarge stage
        // re-scores its 256 survivors with new noise; had it redrawn
        // stage one's errors, it would only repeat stage one's order
        // and serve the single-stage top 64.
        let e = eval().noise_correlation(0.0);
        let single = e.evaluate(&single(ModelKind::RmLarge, 4096));
        let repeated = e.evaluate(
            &PipelineConfig::builder()
                .stage(StageConfig::new(ModelKind::RmLarge, 4096, 256))
                .stage(StageConfig::new(ModelKind::RmLarge, 256, 64))
                .build()
                .unwrap(),
        );
        assert_ne!(single, repeated);
    }

    #[test]
    fn funnel_trie_scores_each_shared_prefix_once() {
        let pipelines = [
            single(ModelKind::RmLarge, 4096),
            two_stage(ModelKind::RmSmall, 4096, 256),
            two_stage(ModelKind::RmSmall, 4096, 256),
            two_stage(ModelKind::RmSmall, 4096, 512),
            // Same stage as the first, but not final: a node of its own.
            PipelineConfig::builder()
                .stage(StageConfig::new(ModelKind::RmLarge, 4096, 64))
                .stage(StageConfig::new(ModelKind::RmLarge, 64, 32))
                .build()
                .unwrap(),
        ];
        let trie = FunnelTrie::new(&pipelines, 4096);
        assert_eq!(trie.nodes.len(), 7);
        assert_eq!(trie.leaves, vec![0, 2, 2, 4, 6]);
        assert_eq!(trie.items_scored(), 4 * 4096 + 256 + 512 + 64);
        assert_eq!((trie.widest_root, trie.depth), (4096, 2));
        // Roots clamp to the pool.
        assert_eq!(FunnelTrie::new(&pipelines[..1], 1000).items_scored(), 1000);
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
