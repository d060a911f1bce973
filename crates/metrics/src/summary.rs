//! Sample-set summary statistics in the format the paper reports.

use std::fmt;

/// Summary statistics of a sample set: count, mean, sample standard
/// deviation, extrema and percentiles.
///
/// # Example
///
/// ```
/// use sdnbuf_metrics::Summary;
/// let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.n, 4);
/// assert!((s.mean - 2.5).abs() < 1e-9);
/// assert!((s.std - 1.2909944).abs() < 1e-6);
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.max, 4.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub std: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Computes a summary of `samples`. Returns the zero summary for an
    /// empty slice. Non-finite samples are ignored.
    pub fn of(samples: &[f64]) -> Summary {
        Summary::of_vec(samples.to_vec())
    }

    /// [`Summary::of`] for samples the caller is done with: they are
    /// sorted in place, not copied.
    pub fn of_vec(mut v: Vec<f64>) -> Summary {
        v.retain(|x| x.is_finite());
        if v.is_empty() {
            return Summary::default();
        }
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        let n = v.len();
        let mean = v.iter().sum::<f64>() / n as f64;
        let std = if n < 2 {
            0.0
        } else {
            (v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt()
        };
        Summary {
            n,
            mean,
            std,
            min: v[0],
            max: v[n - 1],
            p50: percentile(&v, 0.50),
            p95: percentile(&v, 0.95),
            p99: percentile(&v, 0.99),
        }
    }

    /// Mean expressed in milliseconds when the samples were milliseconds —
    /// identity helper that makes figure code read like the paper's prose.
    pub fn mean_ms(&self) -> f64 {
        self.mean
    }
}

/// Linear-interpolation percentile of a sorted slice: `pos = q·(n−1)`
/// interpolated between the neighbouring order statistics (the same
/// convention as numpy's default), *not* nearest-rank — the pinned
/// `percentiles_interpolate` test relies on p95 of 1..=100 being 95.05.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} std={:.3} min={:.3} p50={:.3} p95={:.3} p99={:.3} max={:.3}",
            self.n, self.mean, self.std, self.min, self.p50, self.p95, self.p99, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zero() {
        // Report code relies on the zero default for empty sample sets —
        // every field, not just the moments, must be exactly zero.
        let s = Summary::of(&[]);
        assert_eq!(s, Summary::default());
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.p50, 0.0);
        assert_eq!(s.p95, 0.0);
        assert_eq!(s.p99, 0.0);
    }

    #[test]
    fn single_sample() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.min, 7.0);
        assert_eq!(s.max, 7.0);
        assert_eq!(s.p50, 7.0);
        assert_eq!(s.p99, 7.0);
    }

    #[test]
    fn known_statistics() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample std of this classic set is sqrt(32/7).
        assert!((s.std - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.p50 - 4.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&v);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!((s.p95 - 95.05).abs() < 1e-9);
        assert!((s.p99 - 99.01).abs() < 1e-9);
    }

    #[test]
    fn order_does_not_matter() {
        let a = Summary::of(&[3.0, 1.0, 2.0]);
        let b = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn non_finite_samples_ignored() {
        let s = Summary::of(&[1.0, f64::NAN, 3.0, f64::INFINITY]);
        assert_eq!(s.n, 2);
        assert_eq!(s.mean, 2.0);
    }

    #[test]
    fn of_vec_is_of_bit_for_bit() {
        let bits = |s: Summary| {
            let Summary {
                n,
                mean,
                std,
                min,
                max,
                p50,
                p95,
                p99,
            } = s;
            (n, [mean, std, min, max, p50, p95, p99].map(f64::to_bits))
        };
        let inputs: [&[f64]; 7] = [
            &[],
            &[7.5],
            &[f64::NAN],
            &[3.0, f64::NAN, -1.0, f64::INFINITY, 2.0, f64::NEG_INFINITY],
            &[0.0, -0.0, 1.0, -0.0, 0.0],
            &[-0.0, 0.0],
            &[2.0, 2.0, 1.0, 2.0, 1.0, 5.0, 5.0, 0.1, 0.2, 0.3],
        ];
        for v in inputs {
            assert_eq!(
                bits(Summary::of_vec(v.to_vec())),
                bits(Summary::of(v)),
                "{v:?}"
            );
        }
        // Ties between -0.0 and 0.0 keep their input order: the minimum is
        // whichever zero came first.
        assert_eq!(
            Summary::of_vec(vec![-0.0, 0.0]).min.to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(
            Summary::of_vec(vec![0.0, -0.0]).min.to_bits(),
            0.0f64.to_bits()
        );
    }

    #[test]
    fn display_is_complete() {
        let text = Summary::of(&[1.0, 2.0]).to_string();
        for field in [
            "n=2", "mean=", "std=", "min=", "p50=", "p95=", "p99=", "max=",
        ] {
            assert!(text.contains(field), "missing {field} in {text}");
        }
    }
}
