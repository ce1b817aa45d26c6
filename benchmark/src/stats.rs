//! Exact order statistics over raw samples.
//!
//! Percentiles come from the sorted samples themselves (nearest rank),
//! never from a bucketed histogram: a log2 histogram reports every
//! quantile that falls in one power-of-two bucket as the same value,
//! which is how a p50 and a p99 17 ms apart were once both reported as
//! 17413 µs.

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// Raw samples, sorted once.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// 1-based nearest rank of quantile `p` in `(0, 1]`.
    fn rank(&self, p: f64) -> usize {
        ((p * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len())
    }

    /// The nearest-rank `p`-quantile, `None` without samples.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted[self.rank(p) - 1])
    }

    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// How many samples lie strictly after the `p`-quantile's rank.
    pub fn beyond(&self, p: f64) -> usize {
        if self.sorted.is_empty() {
            return 0;
        }
        self.sorted.len() - self.rank(p)
    }

    /// Whether the sample count supports reporting the `p`-quantile.
    pub fn supports(&self, p: f64) -> bool {
        self.beyond(p) >= MIN_BEYOND
    }

    /// The highest of p50/p90/p99/p99.9 with at least [`MIN_BEYOND`]
    /// samples beyond it, as `(p, value)`.
    pub fn highest_supported(&self) -> Option<(f64, f64)> {
        [0.999, 0.99, 0.9, 0.5]
            .into_iter()
            .find(|&p| self.supports(p))
            .and_then(|p| Some((p, self.quantile(p)?)))
    }
}

/// Geometric mean of positive values (`None` when empty).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_modes_in_one_power_of_two_bucket_keep_p50_apart_from_p99() {
        // 900 fast and 100 slow requests, both modes inside [8192, 16384)
        // µs: the shape that made a log2 histogram report p50 == p99.
        let mut v = vec![9_000.0; 900];
        v.extend(vec![16_000.0; 100]);
        let s = Samples::new(v);
        assert_eq!(s.median(), Some(9_000.0));
        assert_eq!(s.quantile(0.99), Some(16_000.0));
        assert_ne!(s.median(), s.quantile(0.99));
    }

    #[test]
    fn nearest_rank_on_a_known_sequence() {
        let s = Samples::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.median(), Some(50.0));
        assert_eq!(s.quantile(0.9), Some(90.0));
        assert_eq!(s.quantile(0.99), Some(99.0));
        assert_eq!(s.quantile(1.0), Some(100.0));
        assert_eq!(Samples::default().median(), None);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let s = Samples::new((0..100).map(f64::from).collect());
        assert_eq!(s.beyond(0.9), 10);
        assert!(s.supports(0.9));
        assert!(!s.supports(0.99));
        assert_eq!(s.highest_supported().map(|(p, _)| p), Some(0.9));
        let big = Samples::new((0..1000).map(f64::from).collect());
        assert_eq!(big.highest_supported().map(|(p, _)| p), Some(0.99));
    }

    #[test]
    fn geomean_of_powers() {
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
    }
}
