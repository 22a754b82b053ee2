//! Order statistics and ratios as the benchmark reports them.
//!
//! * [`median`] and [`quartiles`] follow Python's `statistics.median` and
//!   `statistics.quantiles(values, n=4)` (the default `exclusive`
//!   method), so spreads computed here match spreads computed over the
//!   printed values by any outside script;
//! * [`tail`] is the percentile rule for latencies: report the highest
//!   percentile of a fixed ladder that still has at least
//!   [`MIN_BEYOND`] samples strictly above it;
//! * [`Ratio`] keeps a ratio's base, so it prints as `value (num/den)`.

use std::fmt;

/// Samples a tail percentile must have beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried by [`tail`], highest first.
pub const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count); `NaN`
/// for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First, second and third quartile by Python's `exclusive` method;
/// `None` for fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of the samples at or below it.
pub fn percentile_sorted(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    // ceil(p/100 · n) in exact integer arithmetic on tenths of a
    // percent, so 99.9 % of 10 000 is rank 9990, not 9991.
    let tenths = (p * 10.0).round().clamp(0.0, 1000.0) as usize;
    let rank = (tenths * v.len()).div_ceil(1000);
    v[rank.clamp(1, v.len()) - 1]
}

/// A reported tail percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile this is.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly above the value.
    pub beyond: usize,
}

/// Samples strictly above `value` in an ascending slice.
fn beyond(v: &[f64], value: f64) -> usize {
    v.len() - v.partition_point(|&x| x <= value)
}

/// The value at percentile `p` with the number of samples beyond it.
pub fn at_percentile(xs: &[f64], p: f64) -> Tail {
    let v = sorted(xs);
    let value = percentile_sorted(&v, p);
    Tail { pct: p, value, beyond: beyond(&v, value) }
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it; `None` when not even the median
/// has (fewer than about 20 samples).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let v = sorted(xs);
    TAIL_LADDER.iter().find_map(|&p| {
        let value = percentile_sorted(&v, p);
        let b = beyond(&v, value);
        (b >= MIN_BEYOND).then_some(Tail { pct: p, value, beyond: b })
    })
}

/// A ratio that remembers its base.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator (the base).
    pub den: f64,
}

impl Ratio {
    /// `num / den`.
    pub fn new(num: f64, den: f64) -> Self {
        Self { num, den }
    }

    /// The ratio's value; 0 for an empty base.
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let whole = |x: f64| x.fract() == 0.0 && x.abs() < 1e15;
        if whole(self.num) && whole(self.den) {
            write!(f, "{:.4} ({}/{})", self.value(), self.num as i64, self.den as i64)
        } else {
            write!(f, "{:.4} ({:.6}/{:.6})", self.value(), self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    /// Values checked against CPython's
    /// `statistics.quantiles(data, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        assert_eq!(quartiles(&[7.0]), None);
        // Unsorted input is sorted first.
        let mut rev = ten.clone();
        rev.reverse();
        assert_eq!(quartiles(&rev), quartiles(&ten));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
    }

    /// The percentile rule: the highest ladder percentile with at least
    /// ten samples strictly beyond it.
    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 = 990 has exactly 10 beyond → p99; p99.9
        // has 1 beyond and is skipped.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).expect("tail");
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
        // 999 samples: p99 leaves only 9 beyond → falls back to p90.
        let t = tail(&v[..999]).expect("tail");
        assert_eq!(t.pct, 90.0);
        assert!(t.beyond >= MIN_BEYOND);
        // 10 000 samples reach p99.9.
        let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&big).map(|t| t.pct), Some(99.9));
        // Too few samples for any percentile.
        assert_eq!(tail(&v[..15]), None);
    }

    /// Ties at the percentile value do not count as "beyond".
    #[test]
    fn tail_counts_only_strictly_greater_samples() {
        let mut v = vec![1.0; 980];
        v.extend(std::iter::repeat_n(5.0, 20));
        let t = at_percentile(&v, 99.0);
        assert_eq!((t.value, t.beyond), (5.0, 0));
        assert_eq!(tail(&v).map(|t| (t.pct, t.value)), Some((90.0, 1.0)));
    }

    #[test]
    fn ratio_prints_with_its_base() {
        assert_eq!(Ratio::new(3.0, 12.0).to_string(), "0.2500 (3/12)");
        assert_eq!(Ratio::new(0.0, 0.0).value(), 0.0);
        assert_eq!(Ratio::new(0.0, 0.0).to_string(), "0.0000 (0/0)");
        assert_eq!(Ratio::new(1.5, 0.5).to_string(), "3.0000 (1.500000/0.500000)");
    }
}
