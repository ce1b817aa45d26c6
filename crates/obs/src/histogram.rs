//! A log-linear histogram for latency-style telemetry.
//!
//! Values are `u64` (nanoseconds, cycles, bytes — the unit is the
//! caller's). Every power of two `[2^e, 2^(e+1))` splits into
//! [`SUB_BUCKETS`] equal-width buckets, and values below
//! `2 * SUB_BUCKETS` get a bucket each, so a bucket never spans more
//! than 1/32 of its lower bound: a quantile estimate is within 3.2% of
//! the exact nearest-rank value. Only non-empty buckets are stored, so
//! an empty histogram allocates nothing. Exact `min`/`max`/`sum` ride
//! along, so the extreme quantiles stay exact and the mean is not
//! bucketed at all.

use crate::json::Json;

/// Linear sub-buckets per power of two.
pub const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();

/// Number of buckets (covers all of `u64`).
pub const BUCKETS: usize = (65 - SUB_BITS as usize) * SUB_BUCKETS;

/// Log-linear histogram with p50/p90/p99 quantile estimates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `(bucket, count)` of every non-empty bucket, ascending by bucket.
    counts: Vec<(u16, u64)>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The bucket a value lands in. Values below `2 * SUB_BUCKETS` are their
/// own bucket; above, the bucket is the value's top `SUB_BITS + 1` bits
/// plus `SUB_BUCKETS` per dropped low bit.
fn bucket_of(v: u64) -> usize {
    if v < 2 * SUB_BUCKETS as u64 {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    shift as usize * SUB_BUCKETS + (v >> shift) as usize
}

/// Inclusive value range covered by bucket `b`.
pub fn bucket_bounds(b: usize) -> (u64, u64) {
    if b < 2 * SUB_BUCKETS {
        return (b as u64, b as u64);
    }
    let shift = (b / SUB_BUCKETS - 1) as u32;
    let top = (b % SUB_BUCKETS + SUB_BUCKETS) as u64;
    let lo = top << shift;
    (lo, lo + ((1u64 << shift) - 1))
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn add(&mut self, bucket: u16, n: u64) {
        match self.counts.binary_search_by_key(&bucket, |&(b, _)| b) {
            Ok(i) => self.counts[i].1 += n,
            Err(i) => self.counts.insert(i, (bucket, n)),
        }
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.add(bucket_of(v) as u16, 1);
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for &(b, c) in &other.counts {
            self.add(b, c);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`): the upper bound of the
    /// bucket holding the rank-`ceil(q·count)` observation, clamped to
    /// the exact observed `[min, max]` — never below the exact
    /// nearest-rank value and at most 3.2% above it. Monotone in `q` by
    /// construction; exact below 64 and at the extremes.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(b, c) in &self.counts {
            seen += c;
            if seen >= rank {
                let (_, hi) = bucket_bounds(b as usize);
                return hi.clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// `(bucket index, count)` for every non-empty bucket.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.counts.iter().map(|&(b, c)| (b as usize, c)).collect()
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::uint(self.count)),
            ("sum", Json::uint(self.sum)),
            (
                "min",
                Json::uint(if self.count == 0 { 0 } else { self.min }),
            ),
            ("max", Json::uint(self.max)),
            ("p50", Json::uint(self.p50())),
            ("p90", Json::uint(self.p90())),
            ("p99", Json::uint(self.p99())),
            (
                "buckets",
                Json::Arr(
                    self.nonzero_buckets()
                        .into_iter()
                        .map(|(b, c)| {
                            Json::obj(vec![
                                ("bucket", Json::uint(b as u64)),
                                ("count", Json::uint(c)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(63), 63);
        assert_eq!(bucket_of(64), 64);
        assert_eq!(bucket_of(65), 64);
        assert_eq!(bucket_of(66), 65);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_bounds(BUCKETS - 1).1, u64::MAX);
        for b in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(b);
            assert!(lo <= hi);
            assert_eq!(bucket_of(lo), b);
            assert_eq!(bucket_of(hi), b);
            // No bucket is wider than 1/32 of its lower bound.
            assert!(
                (hi - lo) as f64 <= lo as f64 / SUB_BUCKETS as f64,
                "bucket {b}"
            );
        }
        // Adjacent buckets tile the domain with no gap or overlap.
        for b in 0..BUCKETS - 1 {
            assert_eq!(bucket_bounds(b).1 + 1, bucket_bounds(b + 1).0);
        }
    }

    #[test]
    fn quantiles_within_one_power_of_two_stay_apart() {
        // 90 samples near 10 µs, 10 near 14 µs: one log2 bucket, but the
        // median and the tail must still read differently.
        let mut h = Histogram::new();
        for i in 0..90 {
            h.record(10_000 + i * 3);
        }
        for i in 0..10 {
            h.record(14_000 + i * 7);
        }
        assert!(h.p50() < 10_400, "p50 {}", h.p50());
        assert!(h.p99() >= 14_000, "p99 {}", h.p99());
        assert_ne!(h.p50(), h.p99());
    }

    #[test]
    fn quantiles_are_within_3_2_percent_of_nearest_rank() {
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = crate::hash::splitmix64(state);
            state
        };
        for round in 0..40 {
            let n = 1 + (next() % 500) as usize;
            let scale = 1u64 << (next() % 40);
            let values: Vec<u64> = (0..n).map(|_| next() % scale + round).collect();
            let mut h = Histogram::new();
            values.iter().for_each(|&v| h.record(v));
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
                let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
                let exact = sorted[rank - 1];
                let est = h.quantile(q);
                assert!(est >= exact, "q{q}: {est} below exact {exact}");
                assert!(
                    (est - exact) as f64 <= 0.032 * exact as f64,
                    "q{q}: {est} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn empty_histogram_allocates_nothing() {
        let h = Histogram::new();
        assert_eq!(h.counts.capacity(), 0);
    }

    #[test]
    fn quantiles_are_monotone_and_clamped() {
        let mut h = Histogram::new();
        for v in [3u64, 10, 10, 50, 200, 900, 5000, 5000, 12_000, 1_000_000] {
            h.record(v);
        }
        let qs: Vec<u64> = (0..=20).map(|i| h.quantile(i as f64 / 20.0)).collect();
        for w in qs.windows(2) {
            assert!(w[0] <= w[1], "quantiles must be monotone: {qs:?}");
        }
        assert!(h.quantile(0.0) >= h.min().unwrap());
        assert_eq!(h.quantile(1.0), h.max().unwrap());
        assert!(h.p50() <= h.p90() && h.p90() <= h.p99());
    }

    #[test]
    fn single_value_quantiles_are_exact() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(777);
        }
        assert_eq!(h.p50(), 777);
        assert_eq!(h.p99(), 777);
        assert_eq!(h.mean(), 777.0);
    }

    #[test]
    fn empty_histogram_is_inert() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.p50(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Histogram::new();
        a.record(10);
        a.record(20);
        let mut b = Histogram::new();
        b.record(1_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 1_030);
        assert_eq!(a.max(), Some(1_000));
        assert_eq!(a.min(), Some(10));
    }

    #[test]
    fn json_carries_every_statistic_and_bucket() {
        let mut h = Histogram::new();
        for v in [1u64, 5, 5, 80, 4096, 70_000] {
            h.record(v);
        }
        let doc = Json::parse(&h.to_json().render()).unwrap();
        let at = |v: &Json, key: &str| v.get(key).and_then(Json::as_u64);
        for (key, want) in [
            ("count", h.count()),
            ("sum", h.sum()),
            ("min", h.min().unwrap()),
            ("max", h.max().unwrap()),
            ("p50", h.p50()),
            ("p90", h.p90()),
            ("p99", h.p99()),
        ] {
            assert_eq!(at(&doc, key), Some(want), "{key}");
        }
        let buckets: Vec<(usize, u64)> = doc
            .get("buckets")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|b| (at(b, "bucket").unwrap() as usize, at(b, "count").unwrap()))
            .collect();
        assert_eq!(buckets, h.nonzero_buckets());
        // An empty histogram renders zeros and no buckets.
        let empty = Json::parse(&Histogram::new().to_json().render_pretty()).unwrap();
        assert_eq!((at(&empty, "count"), at(&empty, "min")), (Some(0), Some(0)));
        let buckets = empty.get("buckets").and_then(Json::as_arr);
        assert_eq!(buckets.map(|b| b.len()), Some(0));
    }
}
