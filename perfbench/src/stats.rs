//! Order statistics for timing samples.

/// Minimum, median, quartiles and tails of one sample set.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub min: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub p5: f64,
    pub p90: f64,
    pub p99: f64,
    pub n: usize,
}

/// Summarizes `values`. Quartiles use the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so the benchmark and any script
/// checking its spread agree; the tail is the nearest-rank p5, p90 and p99. An empty
/// set summarizes to zeros.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Summary::default();
    }
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    let (q1, q3) = if n < 2 {
        (v[0], v[0])
    } else {
        (quartile(&v, 1), quartile(&v, 3))
    };
    let rank = |q: f64| v[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
    Summary {
        min: v[0],
        median,
        q1,
        q3,
        p5: rank(0.05),
        p90: rank(0.90),
        p99: rank(0.99),
        n,
    }
}

/// Quartile `i` (1 or 3) of sorted `v`, Python's exclusive method.
fn quartile(v: &[f64], i: usize) -> f64 {
    let n = v.len();
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

/// Median of `values` (0 for an empty set).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(s.p99, 3.0);
    }
}
