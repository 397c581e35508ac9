//! Random distributions implemented on top of `rand`'s uniform source.
//!
//! `rand` 0.8 ships only uniform sampling; the normal, exponential, and
//! Zipf distributions RecPipe needs are implemented here rather than
//! pulling in an extra dependency (see DESIGN.md), and so is
//! [`KeyedNormal`], a ziggurat that maps a hashed key, not a stream
//! position, to a normal value.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Gaussian distribution sampled with the Marsaglia polar method.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use recpipe_data::Normal;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let n = Normal::new(10.0, 2.0);
/// let x = n.sample(&mut rng);
/// assert!(x.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Normal {
    mean: f64,
    std: f64,
}

impl Normal {
    /// Creates a normal distribution with the given mean and standard
    /// deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative or not finite.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(std.is_finite() && std >= 0.0, "std must be non-negative");
        Self { mean, std }
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Self::new(0.0, 1.0)
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard deviation of the distribution.
    pub fn std(&self) -> f64 {
        self.std
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.std == 0.0 {
            return self.mean;
        }
        // Marsaglia polar method; rejection loop terminates with
        // probability 1 (acceptance ~78.5% per iteration).
        loop {
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                return self.mean + self.std * u * factor;
            }
        }
    }
}

/// The splitmix64 increment (the golden-ratio gamma).
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// One step of the splitmix64 generator from state `x`: adds the golden
/// gamma, then applies the splitmix64 finalizer. A bijection on `u64`
/// whose outputs pass as independent uniform words even for consecutive
/// inputs, so it can turn a structured key into a random one.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Layers of the ziggurat.
const ZIGGURAT_LAYERS: usize = 128;
/// Right edge of the base layer, where the exact tail begins.
const ZIGGURAT_R: f64 = 3.442_619_855_899;
/// Area of each layer under the unnormalized density `exp(-x²/2)`.
const ZIGGURAT_V: f64 = 9.912_563_035_262_17e-3;

/// Standard normal values as a pure function of a 64-bit key.
///
/// Each [`sample`](Self::sample) maps one key to one `N(0, 1)` value
/// with the 128-layer ziggurat of Marsaglia and Tsang in Doornik's
/// form, with an exact tail beyond `R = 3.4426`. Its uniform words are
/// `splitmix64(key + j·γ)` for `j = 0, 1, …`: about 99% of keys are
/// settled by their first word, and a rejection draws the key's next
/// word, so the value still depends on the key alone. Distinct keys
/// (for example distinct `(query, item, stream)` hashes) give
/// independent values, in any order and on any thread.
///
/// The tables are built by [`new`](Self::new); build one sampler and
/// reuse it.
///
/// # Examples
///
/// ```
/// use recpipe_data::KeyedNormal;
///
/// let normal = KeyedNormal::new();
/// let z = normal.sample(42);
/// assert!(z.is_finite());
/// assert_eq!(z, normal.sample(42));
/// ```
#[derive(Debug, Clone)]
pub struct KeyedNormal {
    /// Layer edges: `x[0] = V / f(R)` is the width of the base layer's
    /// rectangle, `x[1] = R`, and each later edge stacks a layer of
    /// area `V`, down to `x[128] = 0`.
    x: [f64; ZIGGURAT_LAYERS + 1],
    /// `x[i + 1] / x[i]`: the part of layer `i` that lies wholly under
    /// the density.
    ratio: [f64; ZIGGURAT_LAYERS],
}

impl Default for KeyedNormal {
    fn default() -> Self {
        Self::new()
    }
}

impl KeyedNormal {
    /// Builds the ziggurat tables.
    pub fn new() -> Self {
        let mut x = [0.0; ZIGGURAT_LAYERS + 1];
        let mut f = (-0.5 * ZIGGURAT_R * ZIGGURAT_R).exp();
        x[0] = ZIGGURAT_V / f;
        x[1] = ZIGGURAT_R;
        for i in 2..ZIGGURAT_LAYERS {
            // Layer i - 1 spans [0, x[i-1]] x [f(x[i-1]), f(x[i])] and
            // has area V.
            x[i] = (-2.0 * (ZIGGURAT_V / x[i - 1] + f).ln()).sqrt();
            f = (-0.5 * x[i] * x[i]).exp();
        }
        let mut ratio = [0.0; ZIGGURAT_LAYERS];
        for (i, r) in ratio.iter_mut().enumerate() {
            *r = x[i + 1] / x[i];
        }
        Self { x, ratio }
    }

    /// The `N(0, 1)` value of `key`.
    #[inline]
    pub fn sample(&self, key: u64) -> f64 {
        let mut j = 0u64;
        let mut word = || {
            let w = splitmix64(key.wrapping_add(j.wrapping_mul(GOLDEN_GAMMA)));
            j += 1;
            w
        };
        loop {
            let w = word();
            // The low 7 bits pick the layer; the top 53 give u in [-1, 1).
            let layer = (w & (ZIGGURAT_LAYERS as u64 - 1)) as usize;
            let u = (w >> 11) as f64 * (1.0 / (1u64 << 52) as f64) - 1.0;
            if u.abs() < self.ratio[layer] {
                return u * self.x[layer];
            }
            if layer == 0 {
                return Self::tail(u < 0.0, &mut word);
            }
            // A wedge: accept x with probability proportional to how
            // far the density at x rises above the layer's floor.
            let x = u * self.x[layer];
            let edge = |e: f64| (-0.5 * (e * e - x * x)).exp();
            let (f0, f1) = (edge(self.x[layer]), edge(self.x[layer + 1]));
            if f1 + open_unit(word()) * (f0 - f1) < 1.0 {
                return x;
            }
        }
    }

    /// Marsaglia's exact sampler for the normal tail beyond `R`.
    fn tail(negative: bool, word: &mut impl FnMut() -> u64) -> f64 {
        loop {
            let x = open_unit(word()).ln() / ZIGGURAT_R;
            let y = open_unit(word()).ln();
            if -2.0 * y >= x * x {
                return if negative {
                    x - ZIGGURAT_R
                } else {
                    ZIGGURAT_R - x
                };
            }
        }
    }
}

/// The top 53 bits of `w` as a uniform value in `(0, 1]`.
fn open_unit(w: u64) -> f64 {
    ((w >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// Used for true-utility tails and Poisson inter-arrival gaps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution with rate `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not strictly positive and finite.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "lambda must be positive"
        );
        Self { lambda }
    }

    /// Rate parameter.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Mean of the distribution (`1 / lambda`).
    pub fn mean(&self) -> f64 {
        1.0 / self.lambda
    }

    /// Draws one sample by inverse-CDF.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // u in [0, 1); 1-u in (0, 1] avoids ln(0).
        let u: f64 = rng.gen();
        -(1.0 - u).ln() / self.lambda
    }
}

/// Zipfian distribution over ranks `1..=n` with exponent `s`.
///
/// Embedding-table lookups in production recommendation workloads follow a
/// power law — a small set of hot vectors absorbs most accesses — which is
/// exactly what makes on-chip embedding caches effective (paper Section 6.2,
/// Takeaway 7). Sampling uses the continuous inverse-CDF approximation
/// `F(x) ∝ x^(1-s)`, which is accurate for the large `n` (millions of rows)
/// used by the cache models and keeps sampling O(1).
///
/// Rank 1 is the hottest item.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use recpipe_data::Zipf;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let z = Zipf::new(1_000_000, 0.9);
/// let rank = z.sample(&mut rng);
/// assert!((1..=1_000_000).contains(&rank));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Zipf {
    n: u64,
    s: f64,
}

impl Zipf {
    /// Creates a Zipf distribution over `1..=n` with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative or not finite.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "n must be positive");
        assert!(s.is_finite() && s >= 0.0, "exponent must be non-negative");
        Self { n, s }
    }

    /// Number of ranks.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Skew exponent.
    pub fn s(&self) -> f64 {
        self.s
    }

    /// Draws one rank in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen(); // [0, 1)
        let x = if (self.s - 1.0).abs() < 1e-9 {
            // s = 1: F^-1(u) = n^u.
            (self.n as f64).powf(u)
        } else {
            let t = 1.0 - self.s;
            // F(x) = (x^t - 1) / (n^t - 1)
            let n_t = (self.n as f64).powf(t);
            ((n_t - 1.0) * u + 1.0).powf(1.0 / t)
        };
        (x.floor() as u64).clamp(1, self.n)
    }

    /// Analytic probability mass of rank `k` under the continuous
    /// approximation used by [`sample`](Self::sample).
    ///
    /// Returns the probability that a sample falls in `[k, k+1)`; the cache
    /// models use the cumulative form [`cdf`](Self::cdf) to compute hit
    /// rates without simulation.
    pub fn pmf(&self, k: u64) -> f64 {
        assert!((1..=self.n).contains(&k), "rank out of range");
        self.cdf(k) - if k == 1 { 0.0 } else { self.cdf(k - 1) }
    }

    /// Probability that a sample's rank is `<= k` (fraction of accesses
    /// absorbed by the `k` hottest items).
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside `1..=n`.
    pub fn cdf(&self, k: u64) -> f64 {
        assert!((1..=self.n).contains(&k), "rank out of range");
        if k == self.n {
            return 1.0;
        }
        if (self.s - 1.0).abs() < 1e-9 {
            ((k + 1) as f64).ln() / ((self.n as f64).ln().max(f64::MIN_POSITIVE))
        } else {
            let t = 1.0 - self.s;
            let n_t = (self.n as f64).powf(t);
            (((k + 1) as f64).powf(t) - 1.0) / (n_t - 1.0)
        }
        .clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_sample_statistics() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = Normal::new(5.0, 2.0);
        let samples: Vec<f64> = (0..20_000).map(|_| n.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean was {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std was {}", var.sqrt());
    }

    #[test]
    fn normal_zero_std_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = Normal::new(3.0, 0.0);
        assert_eq!(n.sample(&mut rng), 3.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn normal_rejects_negative_std() {
        Normal::new(0.0, -1.0);
    }

    /// Keys sampled by the keyed-normal tests: 200k consecutive keys.
    const KEYS: u64 = 200_000;

    /// Standard normal CDF, via the Numerical Recipes `erfc` (fractional
    /// error below 1.2e-7, far under the KS tolerance).
    fn phi(z: f64) -> f64 {
        let x = -z / std::f64::consts::SQRT_2;
        let a = x.abs();
        let t = 1.0 / (1.0 + 0.5 * a);
        let poly = -a * a - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77))))))));
        let erfc = t * poly.exp();
        0.5 * if x >= 0.0 { erfc } else { 2.0 - erfc }
    }

    fn keyed(offset: u64) -> Vec<f64> {
        let normal = KeyedNormal::new();
        (0..KEYS).map(|k| normal.sample(k + offset)).collect()
    }

    fn correlation(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len() as f64;
        let (ma, mb) = (a.iter().sum::<f64>() / n, b.iter().sum::<f64>() / n);
        let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
        let va: f64 = a.iter().map(|x| (x - ma).powi(2)).sum();
        let vb: f64 = b.iter().map(|y| (y - mb).powi(2)).sum();
        cov / (va * vb).sqrt()
    }

    #[test]
    fn ziggurat_tables_close_exactly() {
        let z = KeyedNormal::new();
        let f = |x: f64| (-0.5 * x * x).exp();
        // Every layer has area V, including the top one, whose edge
        // the recurrence never sets directly.
        for i in 1..ZIGGURAT_LAYERS {
            let area = z.x[i] * (f(z.x[i + 1]) - f(z.x[i]));
            assert!((area - ZIGGURAT_V).abs() < 1e-10, "layer {i}: {area}");
        }
        assert_eq!(z.x[ZIGGURAT_LAYERS], 0.0);
        // The base layer is the rectangle under f(R) plus the tail:
        // ∫_R^∞ f = sqrt(pi/2)·erfc(R/√2) = sqrt(2 pi)·(1 - Φ(R)).
        let tail = (2.0 * std::f64::consts::PI).sqrt() * (1.0 - phi(ZIGGURAT_R));
        let base = ZIGGURAT_R * f(ZIGGURAT_R) + tail;
        assert!((base - ZIGGURAT_V).abs() < 1e-8, "base layer {base}");
        assert!(z.x.windows(2).all(|w| w[0] > w[1]), "edges descend");
    }

    #[test]
    fn keyed_normal_moments_match_standard_normal() {
        let z = keyed(0);
        let n = z.len() as f64;
        let mean = z.iter().sum::<f64>() / n;
        let moment = |p: i32| z.iter().map(|x| (x - mean).powi(p)).sum::<f64>() / n;
        let var = moment(2);
        let skew = moment(3) / var.powf(1.5);
        let kurt = moment(4) / (var * var) - 3.0;
        // Tolerances are ~4.5 standard errors at n = 200k: sqrt(1/n),
        // sqrt(2/n), sqrt(6/n) and sqrt(24/n).
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.015, "variance {var}");
        assert!(skew.abs() < 0.025, "skew {skew}");
        assert!(kurt.abs() < 0.05, "excess kurtosis {kurt}");
    }

    #[test]
    fn keyed_normal_passes_kolmogorov_smirnov() {
        let mut z = keyed(0);
        z.sort_by(f64::total_cmp);
        let n = z.len() as f64;
        let d = z
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let cdf = phi(x);
                ((i + 1) as f64 / n - cdf).max(cdf - i as f64 / n)
            })
            .fold(0.0, f64::max);
        // The 1% critical value of the KS statistic: 1.628 / sqrt(n).
        let critical = 1.628 / n.sqrt();
        assert!(d < critical, "KS D {d} vs 1% critical {critical}");
    }

    #[test]
    fn keyed_normal_tails_have_normal_mass() {
        let z = keyed(1 << 40);
        let n = z.len() as f64;
        // P(|Z| > 3) = 0.0027; the tolerance is ~4 standard errors.
        let beyond3 = z.iter().filter(|x| x.abs() > 3.0).count() as f64 / n;
        assert!(
            (beyond3 - 0.0027).abs() < 0.0005,
            "mass beyond 3: {beyond3}"
        );
        // P(|Z| > R) = 0.000576: the ziggurat's tail branch produced
        // these, both signs.
        let tail: Vec<f64> = z.iter().copied().filter(|x| x.abs() > ZIGGURAT_R).collect();
        let frac = tail.len() as f64 / n;
        assert!((frac - 0.000_576).abs() < 0.000_2, "mass beyond R: {frac}");
        assert!(tail.iter().any(|&x| x > 0.0) && tail.iter().any(|&x| x < 0.0));
    }

    #[test]
    fn ziggurat_tail_branch_is_the_conditional_normal_tail() {
        let mut key = 0u64;
        let mut word = || {
            key += 1;
            splitmix64(key)
        };
        let draws = 20_000;
        let mut sum = 0.0;
        for i in 0..draws {
            let x = KeyedNormal::tail(i % 2 == 1, &mut word);
            assert!(x.abs() > ZIGGURAT_R, "tail draw {x}");
            assert_eq!(x < 0.0, i % 2 == 1);
            sum += x.abs();
        }
        // E[Z | Z > R] = φ(R) / (1 - Φ(R)) = 3.6973; the excess has
        // standard deviation ~0.25, so 0.01 is ~5 standard errors.
        let mean = sum / draws as f64;
        assert!((mean - 3.6973).abs() < 0.01, "tail mean {mean}");
    }

    #[test]
    fn keyed_normal_values_are_uncorrelated_across_keys() {
        let z = keyed(0);
        // Adjacent keys (adjacent pool items), and keys that differ only
        // in high bits (the same item in another stream). 0.01 is ~4.5
        // standard errors of a zero correlation at n = 200k.
        let adjacent = correlation(&z[..z.len() - 1], &z[1..]);
        assert!(adjacent.abs() < 0.01, "adjacent keys: {adjacent}");
        let streams = correlation(&z, &keyed(1 << 48));
        assert!(streams.abs() < 0.01, "across streams: {streams}");
    }

    #[test]
    fn keyed_normal_is_a_pure_function_of_the_key() {
        let a = KeyedNormal::new();
        let b = KeyedNormal::default();
        for key in [0, 1, u64::MAX, 0x5eed] {
            assert_eq!(a.sample(key).to_bits(), b.sample(key).to_bits());
        }
        assert_ne!(a.sample(1), a.sample(2));
    }

    #[test]
    fn exponential_mean_matches() {
        let mut rng = StdRng::seed_from_u64(12);
        let e = Exponential::new(4.0);
        let mean = (0..20_000).map(|_| e.sample(&mut rng)).sum::<f64>() / 20_000.0;
        assert!((mean - 0.25).abs() < 0.02, "mean was {mean}");
    }

    #[test]
    fn exponential_samples_are_nonnegative() {
        let mut rng = StdRng::seed_from_u64(13);
        let e = Exponential::new(0.5);
        assert!((0..1000).all(|_| e.sample(&mut rng) >= 0.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_rate() {
        Exponential::new(0.0);
    }

    #[test]
    fn zipf_samples_in_range() {
        let mut rng = StdRng::seed_from_u64(14);
        let z = Zipf::new(1000, 0.8);
        for _ in 0..5000 {
            let k = z.sample(&mut rng);
            assert!((1..=1000).contains(&k));
        }
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let mut rng = StdRng::seed_from_u64(15);
        let z = Zipf::new(100_000, 0.9);
        let hot = (0..20_000).filter(|_| z.sample(&mut rng) <= 1000).count();
        // Top 1% of ranks should absorb far more than 1% of accesses.
        assert!(
            hot as f64 / 20_000.0 > 0.3,
            "top-1% share was {}",
            hot as f64 / 20_000.0
        );
    }

    #[test]
    fn zipf_cdf_is_monotone_and_complete() {
        let z = Zipf::new(10_000, 0.7);
        let mut prev = 0.0;
        for k in [1u64, 10, 100, 1000, 9999, 10_000] {
            let c = z.cdf(k);
            assert!(c >= prev, "cdf not monotone at {k}");
            prev = c;
        }
        assert!((z.cdf(10_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_cdf_matches_empirical_frequency() {
        let mut rng = StdRng::seed_from_u64(16);
        let z = Zipf::new(50_000, 0.9);
        let k = 500;
        let analytic = z.cdf(k);
        let hits = (0..40_000).filter(|_| z.sample(&mut rng) <= k).count();
        let empirical = hits as f64 / 40_000.0;
        assert!(
            (analytic - empirical).abs() < 0.02,
            "analytic {analytic} vs empirical {empirical}"
        );
    }

    #[test]
    fn zipf_exponent_one_path() {
        let mut rng = StdRng::seed_from_u64(17);
        let z = Zipf::new(1000, 1.0);
        for _ in 0..1000 {
            let k = z.sample(&mut rng);
            assert!((1..=1000).contains(&k));
        }
        assert!(z.cdf(1000) == 1.0);
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        // s = 0 degenerates to uniform: cdf(k) ≈ k/n.
        let z = Zipf::new(1000, 0.0);
        assert!((z.cdf(500) - 0.5).abs() < 0.01);
    }

    #[test]
    fn zipf_pmf_sums_to_cdf() {
        let z = Zipf::new(100, 0.9);
        let total: f64 = (1..=100).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
