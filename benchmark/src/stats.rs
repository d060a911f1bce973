//! Order statistics over a handful of samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples`, linearly interpolated
/// between order statistics (the "type 7" rule numpy and R default to).
///
/// # Panics
/// On an empty slice or a NaN sample: both are harness bugs.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The fastest sample — what the harness reports for wall-clock samples of
/// a fixed piece of work. On a shared box interference only ever adds time,
/// so the fast end of a sample set repeats across invocations where its
/// median does not.
///
/// # Panics
/// On an empty slice.
pub fn fastest(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "fastest of no samples");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.50)
}

/// Interquartile range as a percentage of the median.
pub fn iqr_pct(samples: &[f64]) -> f64 {
    let m = median(samples);
    if m == 0.0 {
        return 0.0;
    }
    (quantile(samples, 0.75) - quantile(samples, 0.25)) / m * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        // 0.1 * 4 = 0.4 of the way from 1.0 to 2.0.
        assert!((quantile(&v, 0.1) - 1.4).abs() < 1e-12);
        assert_eq!(fastest(&v), 1.0);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        assert_eq!(fastest(&[7.5]), 7.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(iqr_pct(&[7.5]), 0.0);
    }

    #[test]
    fn iqr_is_relative_to_the_median() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert!((iqr_pct(&v) - (40.0 - 20.0) / 30.0 * 100.0).abs() < 1e-12);
        assert_eq!(iqr_pct(&[0.0, 0.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_input_panics() {
        quantile(&[], 0.5);
    }
}
