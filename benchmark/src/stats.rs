//! Order statistics for timing samples: median and quartiles.
//!
//! No higher percentile is reported: a repetition count of a few dozen
//! leaves fewer than ten samples beyond any of them.

/// Median, quartiles and count of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Inter-quartile distance as a share of the median — the spread
    /// the acceptance rule compares against a metric's bound.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// The median of `values` (mean of the two middle values when even).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) does, so
/// a spread printed here is the spread the acceptance check computes.
///
/// # Panics
/// Panics on fewer than two values or a NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let len = v.len();
    assert!(len >= 2, "quartiles need at least two values");
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Median and quartiles of `values` (a single value is its own quartiles).
pub fn summarize(values: &[f64]) -> Summary {
    let [q1, q2, q3] = if values.len() >= 2 {
        quartiles(values)
    } else {
        [values[0]; 3]
    };
    Summary {
        n: values.len(),
        q1,
        median: q2,
        q3,
    }
}

/// The `p`-th percentile (nearest rank) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("sample is NaN"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    // Reference values from Python 3:
    //   statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
    //   statistics.quantiles([1,2,3,4,5], n=4)            == [1.5, 3.0, 4.5]
    //   statistics.quantiles([10, 20], n=4)               == [7.5, 15.0, 22.5]
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&ten);
        assert_eq!(s.n, 10);
        assert_eq!(s.median, median(&ten));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(summarize(&[3.0]).spread(), 0.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }
}
