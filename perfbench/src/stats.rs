//! Order statistics over exact samples (never bucketed).

/// Sorts samples in place (total order; the benchmark never records NaN).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// The `q`-quantile (0..=1) of sorted samples, nearest-rank.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut v = samples.to_vec();
    sort(&mut v);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a sorted sample: the highest percentile that still has
/// at least [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. 99.9.
    pub percentile: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// Sample count.
    pub count: usize,
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 8] = [99.99, 99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 50.0];

/// Picks the highest percentile on the ladder whose nearest-rank position
/// leaves at least [`TAIL_BEYOND`] samples above it. A sample too small
/// for even the median to qualify (fewer than 20) reports its p90 with
/// whatever lies beyond it: of a dozen one-second samples, the maximum
/// is mostly a draw of the machine's noise.
pub fn tail(sorted: &[f64]) -> Tail {
    assert!(!sorted.is_empty(), "tail of an empty sample");
    let n = sorted.len();
    for &p in &TAIL_LADDER {
        // The epsilon keeps float error in `p/100 · n` from pushing an
        // exact integer rank up by one.
        let rank = ((p / 100.0) * n as f64 - 1e-6).ceil() as usize;
        let rank = rank.clamp(1, n);
        if n - rank >= TAIL_BEYOND {
            return Tail {
                percentile: p,
                value: sorted[rank - 1],
                beyond: n - rank,
                count: n,
            };
        }
    }
    let rank = ((0.9 * n as f64) - 1e-6).ceil().max(1.0) as usize;
    Tail {
        percentile: 90.0,
        value: sorted[rank - 1],
        beyond: n - rank,
        count: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        // 10,000 samples: p99.9 sits at rank 9990, leaving exactly 10.
        let t = tail(&ramp(10_000));
        assert_eq!((t.percentile, t.value, t.beyond), (99.9, 9990.0, 10));
        // 9,999 samples: p99.9 → rank 9990 leaves 9, so p99.5 wins.
        let t = tail(&ramp(9_999));
        assert_eq!(t.percentile, 99.5);
        assert!(t.beyond >= TAIL_BEYOND);
        // 100,000 samples: p99.99 leaves exactly 10.
        assert_eq!(tail(&ramp(100_000)).percentile, 99.99);
        // 1,000 samples: p99 leaves 10.
        let t = tail(&ramp(1_000));
        assert_eq!((t.percentile, t.value), (99.0, 990.0));
        // 20 samples: only the median leaves 10.
        assert_eq!(tail(&ramp(20)).percentile, 50.0);
        // Too few samples for any ladder percentile: the p90.
        let t = tail(&ramp(12));
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 11.0, 1));
        let t = tail(&ramp(7));
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 7.0, 0));
    }

    #[test]
    fn quantiles_and_medians() {
        let v = ramp(100);
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
