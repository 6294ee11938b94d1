//! Order statistics over op timings.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, interpolating linearly
/// between the two closest ranks. `None` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `values`.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_vectors() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 0.9), Some(10.0));
        assert_eq!(percentile(&v, 1.0), Some(11.0));
        assert_eq!(percentile(&[10.0, 20.0], 0.25), Some(12.5));
        // Out-of-range quantiles clamp to the extremes.
        assert_eq!(percentile(&v, 1.5), Some(11.0));
    }

    #[test]
    fn unsorted_input_is_not_mutated() {
        let v = [5.0, 1.0, 4.0];
        assert_eq!(percentile(&v, 0.5), Some(4.0));
        assert_eq!(v, [5.0, 1.0, 4.0]);
    }
}
