//! Medians, quartiles, percentiles and the seeded hash every workload draws
//! its inputs from.

/// splitmix64: the one hash behind every seeded choice (partner objects,
/// arrival targets, weight jitter), so a seed fixes the inputs exactly.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Quantile `q` of an ascending slice, linear between neighbours.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)` gives
/// them (the exclusive method), which is what the acceptance rule is stated in.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - j as f64).clamp(0.0, 1.0);
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// The highest of p90, p99, p99.9, p99.99 that still has at least ten of `n`
/// samples beyond it; `None` below 100 samples, where only the median stands.
pub fn tail_quantile(n: u64) -> Option<(&'static str, f64)> {
    // (name, quantile, one sample in this many lies beyond it)
    [
        ("p99.99", 0.9999, 10_000),
        ("p99.9", 0.999, 1_000),
        ("p99", 0.99, 100),
        ("p90", 0.90, 10),
    ]
    .into_iter()
    .find(|&(_, _, one_in)| n / one_in >= 10)
    .map(|(name, q, _)| (name, q))
}

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Log-linear histogram of nanosecond samples: 128 buckets per octave, so a
/// quantile is off by under 0.8% whatever the sample count, in 58 KiB. Keeps
/// millions of turnarounds without the samples themselves showing up in
/// `peak_rss_mb`.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

impl Hist {
    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        ((shift as u64 + 1) * SUB + ((v >> shift) & (SUB - 1))) as usize
    }

    /// Lower edge and width of bucket `idx`.
    fn edges(idx: usize) -> (u64, u64) {
        let (row, sub) = (idx as u64 / SUB, idx as u64 % SUB);
        if row == 0 {
            (sub, 1)
        } else {
            ((SUB + sub) << (row - 1), 1 << (row - 1))
        }
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Quantile `q`, linear inside the bucket it falls in; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.n - 1) as f64;
        let mut before = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 && (before + c) as f64 > rank {
                let (low, width) = Self::edges(idx);
                let inside = (rank - before as f64 + 0.5) / c as f64;
                return low as f64 + width as f64 * inside.min(1.0);
            }
            before += c;
        }
        unreachable!("rank {rank} beyond {} samples", self.n)
    }

    /// Share of samples at or below `limit` (bucket granularity).
    pub fn share_at_most(&self, limit: u64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let within: u64 = self.counts[..=Self::bucket(limit)].iter().sum();
        within as f64 / self.n as f64
    }

    /// "n=…, p50=…, p99.9=…" in microseconds: the median, the highest
    /// percentile with ten samples beyond it, and the count they rest on.
    pub fn summary_us(&self) -> String {
        let mut s = format!("n={} p50={:.1}us", self.n, self.quantile(0.5) / 1e3);
        if let Some((name, q)) = tail_quantile(self.n) {
            s += &format!(" {name}={:.1}us", self.quantile(q) / 1e3);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(99), None);
        assert_eq!(tail_quantile(100), Some(("p90", 0.90)));
        assert_eq!(tail_quantile(999), Some(("p90", 0.90)));
        assert_eq!(tail_quantile(1_000), Some(("p99", 0.99)));
        assert_eq!(tail_quantile(25_000), Some(("p99.9", 0.999)));
        assert_eq!(tail_quantile(2_560_000), Some(("p99.99", 0.9999)));
    }

    #[test]
    fn hist_quantiles_track_exact_ones_within_a_bucket() {
        let mut h = Hist::default();
        let mut exact = Vec::new();
        let mut x = 7u64;
        for _ in 0..20_000 {
            x = mix64(x);
            let v = 50 + x % 3_000_000;
            h.record(v);
            exact.push(v as f64);
        }
        exact.sort_by(f64::total_cmp);
        for q in [0.5, 0.9, 0.99, 0.999] {
            let (got, want) = (h.quantile(q), quantile_sorted(&exact, q));
            assert!((got - want).abs() / want < 0.01, "q={q}: {got} vs {want}");
        }
        assert_eq!(h.count(), 20_000);
        let summary = h.summary_us();
        assert!(summary.starts_with("n=20000 p50="), "{summary}");
        assert!(summary.contains("p99.9="), "{summary}");
    }

    #[test]
    fn hist_buckets_are_contiguous_and_merge_adds() {
        let mut prev = Hist::bucket(0);
        for v in 1..5_000u64 {
            let b = Hist::bucket(v);
            assert!(b == prev || b == prev + 1, "gap at {v}");
            let (low, width) = Hist::edges(b);
            assert!(low <= v && v < low + width, "{v} outside bucket {b}");
            prev = b;
        }
        assert!(Hist::bucket(u64::MAX) < BUCKETS);
        let mut a = Hist::default();
        let mut b = Hist::default();
        a.record(1_000);
        b.record(3_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.share_at_most(2_000_000), 0.5);
        assert_eq!(Hist::default().quantile(0.5), 0.0);
    }
}
