//! Small statistics helpers shared by experiments.

/// Nearest-rank percentile of a sample set (`p` in `[0, 1]`).
///
/// Returns `None` for an empty sample.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]` or NaN.
///
/// # Examples
///
/// ```
/// use chameleon_cluster::stats::percentile;
/// let xs = vec![1.0, 2.0, 3.0, 4.0, 5.0];
/// assert_eq!(percentile(&xs, 0.5), Some(3.0));
/// assert_eq!(percentile(&xs, 0.99), Some(5.0));
/// assert_eq!(percentile(&[], 0.5), None);
/// ```
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&p), "p must be within [0, 1]");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    Some(nearest_rank(&sorted, p))
}

/// The nearest-rank `p`-quantile of a non-empty ascending sample.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Arithmetic mean (`None` for an empty sample).
///
/// # Examples
///
/// ```
/// use chameleon_cluster::stats::mean;
/// assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
/// assert_eq!(mean(&[]), None);
/// ```
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// Percentile summary of a latency sample set (seconds), the common
/// currency of the observability layer: repair spans, foreground request
/// latencies, and suite CSV columns all render through it.
///
/// Built on the same nearest-rank [`percentile`] the experiments use, so a
/// summary printed by the CLI matches one recomputed from the raw samples.
///
/// # Examples
///
/// ```
/// use chameleon_cluster::stats::LatencySummary;
/// let s = LatencySummary::from_samples(&[1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert_eq!(s.count, 4);
/// assert_eq!(s.p50, 2.0);
/// assert_eq!(s.max, 4.0);
/// assert!(LatencySummary::from_samples(&[]).is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples summarized.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl LatencySummary {
    /// Summarizes `samples`; `None` for an empty set (there is no honest
    /// percentile of nothing).
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        Self::sort_and_summarize(&mut samples.to_vec())
    }

    /// [`LatencySummary::from_samples`] without the copy: the mean is summed
    /// in the samples' order, then one in-place sort serves all four ranks
    /// and leaves `samples` ascending. The sort is unstable, so it needs no
    /// scratch buffer, and under `total_cmp` only equal bits compare equal:
    /// the result is bit for bit the stable sort's.
    pub(crate) fn sort_and_summarize(samples: &mut [f64]) -> Option<Self> {
        let mean = mean(samples)?;
        samples.sort_unstable_by(f64::total_cmp);
        Some(LatencySummary {
            count: samples.len(),
            mean,
            p50: nearest_rank(samples, 0.50),
            p95: nearest_rank(samples, 0.95),
            p99: nearest_rank(samples, 0.99),
            max: nearest_rank(samples, 1.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_edges() {
        let xs = [10.0, 20.0, 30.0];
        assert_eq!(percentile(&xs, 0.0), Some(10.0));
        assert_eq!(percentile(&xs, 1.0), Some(30.0));
        assert_eq!(percentile(&xs, 0.34), Some(20.0));
        // At p·n = 50 000 of 100 000 the rank is the 50 000th value; an
        // index of floor(p·n) would read the 50 001st.
        let xs: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50_000.0));
    }

    #[test]
    fn percentile_unsorted_input() {
        let xs = [5.0, 1.0, 9.0, 3.0];
        assert_eq!(percentile(&xs, 0.5), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn percentile_rejects_bad_p() {
        let _ = percentile(&[1.0], 1.5);
    }

    #[test]
    fn mean_works() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
    }

    #[test]
    fn latency_summary_matches_percentile() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = LatencySummary::from_samples(&xs).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.mean, 50.5);
        assert_eq!(s.p50, percentile(&xs, 0.5).unwrap());
        assert_eq!(s.p95, 95.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn latency_summary_single_sample() {
        let s = LatencySummary::from_samples(&[0.25]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(
            (s.mean, s.p50, s.p95, s.p99, s.max),
            (0.25, 0.25, 0.25, 0.25, 0.25)
        );
    }
}
