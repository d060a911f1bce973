//! Bucketing cases of [`crate::observe::sparkline`] over hand-built
//! series: a ramp, a gap between two points, a single point, and the
//! width clamp.

#[cfg(test)]
mod tests {
    use crate::observe::{sparkline, Sample};
    use sdnbuf_sim::Nanos;

    fn point(t: Nanos, occupancy: usize) -> Sample {
        Sample {
            t,
            occupancy,
            table_size: 0,
            to_controller_mbps: 0.0,
            to_switch_mbps: 0.0,
        }
    }

    fn occupancy(s: &Sample) -> f64 {
        s.occupancy as f64
    }

    /// One window a millisecond for 100 ms, its occupancy the index.
    fn ramp() -> Vec<Sample> {
        (0..100u64)
            .map(|i| point(Nanos::from_millis(i), i as usize))
            .collect()
    }

    #[test]
    fn empty_buckets_repeat_previous_value() {
        let s = [point(Nanos::ZERO, 4), point(Nanos::from_millis(100), 8)];
        // The eight middle buckets hold the last seen value (4 of 8: the
        // middle bar), the last bucket the 8.
        assert_eq!(sparkline(&s, occupancy, 10), "▅▅▅▅▅▅▅▅▅█");
    }

    #[test]
    fn sparkline_shape() {
        let line = sparkline(&ramp(), occupancy, 8);
        assert_eq!(line.chars().count(), 8);
        let chars: Vec<char> = line.chars().collect();
        assert_eq!(*chars.last().unwrap(), '█');
        assert!(chars[0] < chars[7]);
        for w in chars.windows(2) {
            assert!(w[0] <= w[1], "a ramp never draws a lower bar: {line}");
        }
    }

    #[test]
    fn single_point_series() {
        // A degenerate (zero-width) span still yields every bucket; the
        // point lands in the first and the rest repeat its value.
        let s = [point(Nanos::from_millis(5), 3)];
        assert_eq!(sparkline(&s, occupancy, 4), "████");
        assert_eq!(sparkline(&s, occupancy, 1), "█");
    }

    #[test]
    fn sparkline_clamps_zero_buckets_to_one() {
        // Width 0 must not panic: it clamps to one bucket.
        assert_eq!(sparkline(&ramp(), occupancy, 0).chars().count(), 1);
        assert_eq!(sparkline(&ramp(), occupancy, 1).chars().count(), 1);
    }

    #[test]
    fn sparkline_single_point_is_full_bar() {
        let s = [point(Nanos::from_millis(1), 2)];
        assert_eq!(sparkline(&s, occupancy, 3), "███");
    }
}
