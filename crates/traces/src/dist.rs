//! Distribution samplers used by the workload generators.

use rand::Rng;

/// A Zipfian distribution over `0..n`, using the Gray et al. rejection
/// method popularized by YCSB's `ZipfianGenerator`.
///
/// # Examples
///
/// ```
/// use chameleon_traces::Zipfian;
/// use rand::SeedableRng;
/// let z = Zipfian::new(1000, 0.99);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let x = z.sample(&mut rng);
/// assert!(x < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Creates a Zipfian distribution over `0..n` with skew `theta`
    /// (YCSB default 0.99).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is not in `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "need a positive key space");
        assert!((0.0..1.0).contains(&theta) && theta > 0.0, "theta in (0,1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct sum for moderate n; the workloads use key spaces small
        // enough for this to be exact and fast.
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Draws a rank in `0..n` (0 is the most popular).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let spread = self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha);
        (spread as u64).min(self.n - 1)
    }
}

#[cfg(test)]
impl Zipfian {
    /// Every field's bits, for comparing two distributions exactly.
    pub(crate) fn bits(&self) -> [u64; 5] {
        [
            self.n,
            self.theta.to_bits(),
            self.alpha.to_bits(),
            self.zetan.to_bits(),
            self.eta.to_bits(),
        ]
    }
}

/// A Pareto (power-law) distribution with scale `xm` and shape `alpha`.
///
/// Used for Facebook ETC value sizes (Atikoglu et al., SIGMETRICS 2012).
#[derive(Debug, Clone, Copy)]
pub struct Pareto {
    xm: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates a Pareto distribution.
    ///
    /// # Panics
    ///
    /// Panics unless `xm > 0` and `alpha > 0`.
    pub fn new(xm: f64, alpha: f64) -> Self {
        assert!(xm > 0.0 && alpha > 0.0, "invalid Pareto parameters");
        Pareto { xm, alpha }
    }

    /// Draws a sample via inverse transform.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        self.xm / u.powf(1.0 / self.alpha)
    }
}

/// A log-normal distribution parameterized by the mean and sigma of the
/// underlying normal.
///
/// Used for Twitter Memcached value sizes (~20 KB average) and the IBM
/// object-store size spread.
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with the underlying normal's `mu` and `sigma`.
    ///
    /// # Panics
    ///
    /// Panics unless `sigma > 0`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        LogNormal { mu, sigma }
    }

    /// Creates a log-normal whose *median* is `median` with spread `sigma`.
    pub fn with_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "median must be positive");
        LogNormal::new(median.ln(), sigma)
    }

    /// Draws a sample (Box–Muller under the hood).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.mu + self.sigma * z).exp()
    }
}

/// The generalized extreme value distribution (location `mu`, scale
/// `sigma`, shape `xi`).
///
/// The paper generates Facebook ETC key sizes from a GEV distribution
/// (following Atikoglu et al.).
#[derive(Debug, Clone, Copy)]
pub struct GeneralizedExtremeValue {
    mu: f64,
    sigma: f64,
    xi: f64,
}

impl GeneralizedExtremeValue {
    /// Creates a GEV distribution.
    ///
    /// # Panics
    ///
    /// Panics unless `sigma > 0`.
    pub fn new(mu: f64, sigma: f64, xi: f64) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        GeneralizedExtremeValue { mu, sigma, xi }
    }

    /// Draws a sample via inverse transform.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        if self.xi.abs() < 1e-12 {
            self.mu - self.sigma * (-u.ln()).ln()
        } else {
            self.mu + self.sigma * ((-u.ln()).powf(-self.xi) - 1.0) / self.xi
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipfian_is_skewed_toward_low_ranks() {
        let z = Zipfian::new(1000, 0.99);
        let mut rng = StdRng::seed_from_u64(7);
        let mut hits = vec![0u32; 1000];
        for _ in 0..50_000 {
            hits[z.sample(&mut rng) as usize] += 1;
        }
        // Rank 0 should be far hotter than rank 500.
        assert!(hits[0] > hits[500] * 10, "{} vs {}", hits[0], hits[500]);
        // But the tail is still touched.
        assert!(hits[500..].iter().any(|&h| h > 0));
    }

    #[test]
    fn zipfian_stays_in_range() {
        let z = Zipfian::new(10, 0.5);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 10);
        }
    }

    #[test]
    fn pareto_min_is_xm() {
        let p = Pareto::new(16.0, 1.5);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10_000 {
            assert!(p.sample(&mut rng) >= 16.0);
        }
    }

    #[test]
    fn pareto_has_heavy_tail() {
        let p = Pareto::new(16.0, 1.2);
        let mut rng = StdRng::seed_from_u64(13);
        let big = (0..100_000).filter(|_| p.sample(&mut rng) > 1600.0).count();
        // P(X > 100*xm) = 100^-1.2 ≈ 0.4%; loose bounds.
        assert!(big > 50 && big < 2500, "tail count {big}");
    }

    #[test]
    fn lognormal_median_is_respected() {
        let d = LogNormal::with_median(20_000.0, 1.0);
        let mut rng = StdRng::seed_from_u64(17);
        let mut samples: Vec<f64> = (0..20_001).map(|_| d.sample(&mut rng)).collect();
        samples.sort_by(f64::total_cmp);
        let median = samples[10_000];
        assert!(
            (median / 20_000.0 - 1.0).abs() < 0.1,
            "median {median} too far from 20000"
        );
    }

    #[test]
    fn gev_produces_finite_values() {
        for xi in [-0.2, 0.0, 0.3] {
            let d = GeneralizedExtremeValue::new(30.0, 8.0, xi);
            let mut rng = StdRng::seed_from_u64(23);
            for _ in 0..10_000 {
                assert!(d.sample(&mut rng).is_finite());
            }
        }
    }

    #[test]
    fn samplers_are_deterministic_per_seed() {
        let z = Zipfian::new(100, 0.99);
        let a: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(5);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(5);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
