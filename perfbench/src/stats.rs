//! Order statistics over small samples.

/// Median of `values` (mean of the middle pair for even lengths; 0 for an
/// empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Largest value of `values` (0 for an empty slice).
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(max(&[1.0, 7.0, 3.0]), 7.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
