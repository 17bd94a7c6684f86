//! Deterministic randomness: stream splitting and the probability
//! distributions the simulator needs (kept in-repo so the dependency list
//! stays within the approved set — `rand` provides uniform bits only).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Derives an independent RNG stream from a master seed and a stream label.
/// SplitMix64-style mixing keeps streams decorrelated even for adjacent
/// labels, so e.g. per-executor arrival processes don't share structure.
pub fn stream(master_seed: u64, label: u64) -> StdRng {
    let mut z =
        master_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(label.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    StdRng::seed_from_u64(z)
}

/// Exponential sample with the given mean (inverse-CDF method).
///
/// # Panics
/// Panics on non-positive mean.
pub fn sample_exponential(rng: &mut StdRng, mean: f64) -> f64 {
    assert!(mean > 0.0, "exponential mean must be positive");
    let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    -mean * u.ln()
}

/// Standard normal via Box-Muller.
pub fn sample_standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Lognormal multiplicative noise with median 1 and log-std `sigma`
/// (`sigma = 0` returns exactly 1). Used for service-time variability.
pub fn sample_lognormal_noise(rng: &mut StdRng, sigma: f64) -> f64 {
    assert!(sigma >= 0.0, "sigma must be non-negative");
    if sigma == 0.0 {
        return 1.0;
    }
    (sigma * sample_standard_normal(rng)).exp()
}

/// A gamma-like positive service-time distribution with mean `mean` and
/// coefficient of variation `cv`, implemented as a lognormal matched on the
/// first two moments. `cv = 0` is deterministic.
///
/// The lognormal parameters are computed once, when the distribution is
/// built, so a sample costs one normal draw and one `exp`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceTime {
    /// The mean, returned as is when the distribution is deterministic.
    mean: f64,
    /// `cv == 0`. Not the same as `σ == 0`: a `cv` below ≈ 1e-8 rounds
    /// `1 + cv²` to 1, yet still draws a normal.
    deterministic: bool,
    /// `μ = ln(mean) − σ²/2`.
    mu: f64,
    /// `σ = √ln(1 + cv²)`.
    sigma: f64,
}

impl ServiceTime {
    /// The distribution with mean `mean` and coefficient of variation `cv`.
    ///
    /// # Panics
    /// Panics on non-positive mean or negative `cv`.
    pub fn new(mean: f64, cv: f64) -> Self {
        assert!(mean > 0.0, "service mean must be positive");
        assert!(cv >= 0.0, "cv must be non-negative");
        // Lognormal with E = mean, Var = (cv·mean)²:
        // σ² = ln(1 + cv²), μ = ln(mean) − σ²/2.
        let sigma2 = (1.0 + cv * cv).ln();
        Self {
            mean,
            deterministic: cv == 0.0,
            mu: mean.ln() - sigma2 / 2.0,
            sigma: sigma2.sqrt(),
        }
    }

    /// Draws one service time. `cv = 0` is deterministic and draws nothing.
    pub fn sample(&self, rng: &mut StdRng) -> f64 {
        if self.deterministic {
            return self.mean;
        }
        (self.mu + self.sigma * sample_standard_normal(rng)).exp()
    }
}

/// Probabilistic integer rounding: `4.3 -> 4` (70%) or `5` (30%), preserving
/// the expectation. Used to expand fractional selectivities into child-tuple
/// counts.
pub fn sample_count(rng: &mut StdRng, expected: f64) -> usize {
    assert!(expected >= 0.0, "expected count must be non-negative");
    let base = expected.floor();
    let frac = expected - base;
    let extra = if frac > 0.0 && rng.random_range(0.0..1.0) < frac {
        1
    } else {
        0
    };
    base as usize + extra
}

/// A precomputed Zipf(s) distribution over `{0, .., n-1}` with O(log n)
/// sampling via the inverse CDF. Models key popularity for fields grouping
/// and word frequencies in the word-count workload.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a Zipf distribution with exponent `s` over `n` ranks.
    ///
    /// # Panics
    /// Panics when `n == 0` or `s < 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s >= 0.0, "Zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Always false (n ≥ 1 by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Probability mass of rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }

    /// Samples a rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let a: Vec<f64> = {
            let mut r = stream(1, 0);
            (0..4).map(|_| r.random_range(0.0..1.0)).collect()
        };
        let a2: Vec<f64> = {
            let mut r = stream(1, 0);
            (0..4).map(|_| r.random_range(0.0..1.0)).collect()
        };
        let b: Vec<f64> = {
            let mut r = stream(1, 1);
            (0..4).map(|_| r.random_range(0.0..1.0)).collect()
        };
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    fn exponential_mean() {
        let mut rng = stream(7, 0);
        let n = 50_000;
        let mean = (0..n)
            .map(|_| sample_exponential(&mut rng, 2.0))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn service_time_moments() {
        let mut rng = stream(9, 0);
        let n = 50_000;
        let dist = ServiceTime::new(1.5, 0.5);
        let samples: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let sd = (samples.iter().map(|&v| (v - mean).powi(2)).sum::<f64>() / n as f64).sqrt();
        assert!((mean - 1.5).abs() < 0.03, "mean {mean}");
        assert!((sd / mean - 0.5).abs() < 0.05, "cv {}", sd / mean);
        assert!(samples.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn deterministic_service_time_at_zero_cv() {
        let mut rng = stream(1, 2);
        let before = rng.state();
        assert_eq!(ServiceTime::new(0.7, 0.0).sample(&mut rng), 0.7);
        assert_eq!(rng.state(), before, "cv = 0 draws nothing");
    }

    #[test]
    fn cached_parameters_sample_like_the_direct_formula() {
        // The lognormal parameters computed per sample, as the engine did
        // before caching them: every sample and the RNG cursor must match
        // bit for bit — including a cv so small that 1 + cv² rounds to 1.
        let direct = |rng: &mut StdRng, mean: f64, cv: f64| {
            let sigma2 = (1.0f64 + cv * cv).ln();
            let mu = mean.ln() - sigma2 / 2.0;
            (mu + sigma2.sqrt() * sample_standard_normal(rng)).exp()
        };
        for (mean, cv) in [(0.05, 0.5), (1.5, 0.5), (0.3, 1.7), (2.0, 1e-9), (9.0, 3.0)] {
            let dist = ServiceTime::new(mean, cv);
            let (mut a, mut b) = (stream(4, 1), stream(4, 1));
            for _ in 0..1000 {
                assert_eq!(
                    dist.sample(&mut a).to_bits(),
                    direct(&mut b, mean, cv).to_bits(),
                    "mean {mean}, cv {cv}"
                );
            }
            assert_eq!(a.state(), b.state());
        }
    }

    #[test]
    fn count_preserves_expectation() {
        let mut rng = stream(3, 0);
        let n = 100_000;
        let sum: usize = (0..n).map(|_| sample_count(&mut rng, 2.3)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 2.3).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn count_exact_for_integers() {
        let mut rng = stream(3, 1);
        for _ in 0..100 {
            assert_eq!(sample_count(&mut rng, 3.0), 3);
            assert_eq!(sample_count(&mut rng, 0.0), 0);
        }
    }

    #[test]
    fn zipf_pmf_sums_to_one_and_is_decreasing() {
        let z = Zipf::new(100, 1.0);
        let total: f64 = (0..100).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for k in 1..100 {
            assert!(z.pmf(k) <= z.pmf(k - 1) + 1e-12);
        }
    }

    #[test]
    fn zipf_sampling_matches_pmf() {
        let z = Zipf::new(10, 1.2);
        let mut rng = stream(5, 0);
        let n = 100_000;
        let mut counts = [0usize; 10];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (k, &count) in counts.iter().enumerate() {
            let emp = count as f64 / n as f64;
            assert!(
                (emp - z.pmf(k)).abs() < 0.01,
                "rank {k}: {emp} vs {}",
                z.pmf(k)
            );
        }
    }

    #[test]
    fn zipf_s_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for k in 0..4 {
            assert!((z.pmf(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn lognormal_noise_median_one() {
        let mut rng = stream(8, 0);
        let n = 20_001;
        let mut v: Vec<f64> = (0..n)
            .map(|_| sample_lognormal_noise(&mut rng, 0.3))
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = v[n / 2];
        assert!((median - 1.0).abs() < 0.03, "median {median}");
        assert_eq!(sample_lognormal_noise(&mut rng, 0.0), 1.0);
    }
}
