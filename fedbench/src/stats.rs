//! Percentile helpers.

/// The `q` quantile (`0.0..=1.0`) of `values`, interpolating linearly
/// between the two nearest ranks. `None` when `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`, 0 when there are none.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        assert!((quantile(&v, 0.9).unwrap() - 3.7).abs() < 1e-12);
    }

    #[test]
    fn single_value_and_empty_input() {
        assert_eq!(quantile(&[5.0], 0.99), Some(5.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p99_of_a_hundred_values_sits_in_the_top_two() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p99 = quantile(&v, 0.99).unwrap();
        assert!((99.0..=100.0).contains(&p99), "{p99}");
        assert_eq!(median(&v), 50.5);
    }
}
