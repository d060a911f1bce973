//! Property-based tests for the measurement substrate, checked against
//! naive reference implementations.

use proptest::prelude::*;
use sdnbuf_metrics::{ByteMeter, Gauge, Summary};
use sdnbuf_sim::Nanos;

proptest! {
    #[test]
    fn summary_matches_naive_reference(
        samples in proptest::collection::vec(-1e6f64..1e6, 1..200),
    ) {
        let s = Summary::of(&samples);
        let n = samples.len();
        prop_assert_eq!(s.n, n);
        let mean = samples.iter().sum::<f64>() / n as f64;
        prop_assert!((s.mean - mean).abs() < 1e-6 * mean.abs().max(1.0));
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(s.min, min);
        prop_assert_eq!(s.max, max);
        prop_assert!(s.min <= s.p50 && s.p50 <= s.max);
        prop_assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        if n >= 2 {
            let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
            prop_assert!((s.std - var.sqrt()).abs() < 1e-6 * var.sqrt().max(1.0));
        } else {
            prop_assert_eq!(s.std, 0.0);
        }
    }

    #[test]
    fn summary_is_permutation_invariant(
        mut samples in proptest::collection::vec(-1e3f64..1e3, 2..50),
        seed in any::<u64>(),
    ) {
        let a = Summary::of(&samples);
        let mut rng = sdnbuf_sim::SimRng::seed_from(seed);
        rng.shuffle(&mut samples);
        let b = Summary::of(&samples);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn gauge_time_weighted_mean_matches_reference(
        steps in proptest::collection::vec((1u64..1000, 0.0f64..100.0), 1..50),
    ) {
        // Build a piecewise-constant signal and integrate it by hand.
        let mut g = Gauge::new();
        let mut t = Nanos::ZERO;
        let mut integral = 0.0;
        let mut value = 0.0;
        let mut timeline = Vec::new();
        for (dt_us, v) in steps {
            let next = t + Nanos::from_micros(dt_us);
            timeline.push((t, next, value));
            t = next;
            g.set(t, v);
            value = v;
        }
        let horizon = t + Nanos::from_micros(100);
        timeline.push((t, horizon, value));
        for (from, to, v) in timeline {
            integral += v * (to - from).as_secs_f64();
        }
        let expected = integral / horizon.as_secs_f64();
        let got = g.time_weighted_mean(horizon);
        prop_assert!(
            (got - expected).abs() < 1e-6 * expected.abs().max(1.0),
            "expected {expected}, got {got}"
        );
    }

    #[test]
    fn byte_meter_totals_and_rate(
        msgs in proptest::collection::vec((0u64..1_000_000, 1usize..2000), 1..100),
    ) {
        let mut m = ByteMeter::new();
        let mut total = 0u64;
        for &(at, bytes) in &msgs {
            m.record(Nanos::from_micros(at), bytes);
            total += bytes as u64;
        }
        prop_assert_eq!(m.bytes(), total);
        prop_assert_eq!(m.messages(), msgs.len() as u64);
        let horizon = Nanos::from_secs(1);
        let mbps = m.mbps(horizon);
        prop_assert!((mbps - total as f64 * 8.0 / 1e6).abs() < 1e-9);
    }
}
