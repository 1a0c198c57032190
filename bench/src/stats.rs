//! Order statistics over latency samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between order
/// statistics. `values` need not be sorted; `None` when it is empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (low, high) = (at.floor() as usize, at.ceil() as usize);
    Some(sorted[low] + (sorted[high] - sorted[low]) * (at - low as f64))
}

pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The highest of p99.9 / p99 / p95 / p90 that still has at least ten
/// samples beyond it, with its label; `None` below 100 samples.
pub fn tail(values: &[f64]) -> Option<(&'static str, f64)> {
    let levels = [
        ("p99.9", 0.999),
        ("p99", 0.99),
        ("p95", 0.95),
        ("p90", 0.90),
    ];
    let fits = |q: f64| (values.len() as f64) * (1.0 - q) >= 10.0;
    let (label, q) = levels.into_iter().find(|&(_, q)| fits(q))?;
    Some((label, quantile(values, q)?))
}

/// `(q3 − q1) / median` with the quartiles Python's
/// `statistics.quantiles(values, n=4)` gives (exclusive method) — the
/// spread the acceptance rule for this benchmark is stated in.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |k: usize| {
        let at = k * (n + 1);
        let j = (at / 4).clamp(1, n - 1);
        let frac = (at as f64 / 4.0 - j as f64).clamp(0.0, 1.0);
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    Some((cut(3) - cut(1)) / cut(2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..250).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().0, "p95");
        assert_eq!(tail(&v[..150]).unwrap().0, "p90");
        assert!(tail(&v[..50]).is_none());
        let many: Vec<f64> = (0..20_000).map(f64::from).collect();
        assert_eq!(tail(&many).unwrap().0, "p99.9");
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v).unwrap() - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11, 30, 10.5], n=4) == [10.25, 11.0, 21.0]
        let spread = quartile_spread(&[10.0, 12.0, 11.0, 30.0, 10.5]).unwrap();
        assert!((spread - 10.75 / 11.0).abs() < 1e-12);
    }
}
