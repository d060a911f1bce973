//! Fixed-memory log-bucketed latency histogram.
//!
//! [`Histogram`] records nanosecond durations into log-linear buckets —
//! every power of two is split into 32 linear sub-buckets — so quantile
//! estimates carry a bounded *relative* error of at most 1/64 ≈ 1.6%
//! (comfortably inside the 2.5% budget the latency reports quote) while
//! the whole structure stays a fixed ~15 KiB regardless of how many
//! samples it absorbs. This is the bounded replacement for unbounded
//! `Vec<f64>` sample buffers on paths that see one sample per flow per
//! phase across a whole sweep.
//!
//! Merging is element-wise counter addition, so it is associative and
//! commutative: parallel sweep workers can each fill a histogram and the
//! executor can fold them back together *in deterministic grid order*
//! with a byte-identical result to a serial run.
//!
//! # Example
//!
//! ```
//! use sdnbuf_metrics::Histogram;
//! use sdnbuf_sim::Nanos;
//!
//! let mut h = Histogram::new();
//! for ms in 1..=100u64 {
//!     h.record(Nanos::from_millis(ms));
//! }
//! let p50 = h.quantile(0.50).as_nanos() as f64 / 1e6;
//! assert!((p50 - 50.0).abs() / 50.0 <= Histogram::RELATIVE_ERROR);
//! ```

use sdnbuf_sim::{JsonWriter, Nanos};

/// Number of linear sub-buckets per power of two. 32 sub-buckets bound
/// the quantile relative error by `1 / (2 * 32) = 1.56%`.
const SUB_BUCKETS: u64 = 32;
/// `log2(SUB_BUCKETS)`.
const SUB_BITS: u32 = 5;
/// Total bucket count: values below `SUB_BUCKETS` get exact unit buckets,
/// every octave above contributes `SUB_BUCKETS` buckets, up to `u64::MAX`
/// (octave 63). Index arithmetic in [`bucket_index`] tops out at
/// `(63 - 5 + 1) * 32 + 31 = 1919`.
const BUCKETS: usize = 1920;

/// A fixed-memory log-bucketed histogram of nanosecond durations.
///
/// See this module's source-level docs for the bucket scheme and error
/// bound.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("min_ns", &self.min_ns)
            .field("max_ns", &self.max_ns)
            .finish_non_exhaustive()
    }
}

/// Maps a duration in nanoseconds to its bucket index. Pure integer
/// arithmetic — no floating point touches the recording path, so the
/// same sample always lands in the same bucket on every platform.
#[inline]
fn bucket_index(ns: u64) -> usize {
    if ns < SUB_BUCKETS {
        ns as usize
    } else {
        let exp = 63 - ns.leading_zeros(); // floor(log2(ns)), >= SUB_BITS
        let shift = exp - SUB_BITS;
        let mantissa = ns >> shift; // in [SUB_BUCKETS, 2 * SUB_BUCKETS)
        ((shift as u64 + 1) * SUB_BUCKETS + (mantissa - SUB_BUCKETS)) as usize
    }
}

/// Lower edge and width of a bucket, inverting [`bucket_index`].
#[inline]
fn bucket_range(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < 2 * SUB_BUCKETS {
        (idx, 1)
    } else {
        let shift = (idx / SUB_BUCKETS - 1) as u32;
        let mantissa = SUB_BUCKETS + idx % SUB_BUCKETS;
        (mantissa << shift, 1u64 << shift)
    }
}

impl Histogram {
    /// Worst-case relative error of a quantile estimate: half a bucket
    /// width over the bucket's lower edge, `1 / (2 · 32)`.
    pub const RELATIVE_ERROR: f64 = 1.0 / (2 * SUB_BUCKETS) as f64;

    /// Creates an empty histogram. Allocates its full fixed footprint
    /// (~15 KiB) up front; recording never allocates.
    pub fn new() -> Histogram {
        Histogram {
            counts: Box::new([0u64; BUCKETS]),
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Records one duration.
    #[inline]
    pub fn record(&mut self, d: Nanos) {
        self.record_ns(d.as_nanos());
    }

    /// Records a span, i.e. `end - start`. Debug-asserts that the span is
    /// not reversed; release builds saturate to zero.
    #[inline]
    pub fn record_span(&mut self, start: Nanos, end: Nanos) {
        debug_assert!(end >= start, "reversed span: start={start:?} end={end:?}");
        self.record_ns(end.as_nanos().saturating_sub(start.as_nanos()));
    }

    /// Records one duration given in raw nanoseconds.
    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        self.counts[bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact smallest recorded duration ([`Nanos::ZERO`] when empty).
    pub fn min(&self) -> Nanos {
        if self.is_empty() {
            Nanos::ZERO
        } else {
            Nanos::from_nanos(self.min_ns)
        }
    }

    /// Exact largest recorded duration ([`Nanos::ZERO`] when empty).
    pub fn max(&self) -> Nanos {
        Nanos::from_nanos(self.max_ns)
    }

    /// Exact arithmetic mean in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64 / 1e6
        }
    }

    /// Nearest-rank quantile estimate, `0.0 <= q <= 1.0`. Walks the
    /// cumulative bucket counts to the sample of rank `ceil(q · n)` and
    /// returns that bucket's midpoint, clamped to the exact observed
    /// `[min, max]` so `quantile(0.0)` / `quantile(1.0)` are exact.
    /// Returns [`Nanos::ZERO`] when empty.
    pub fn quantile(&self, q: f64) -> Nanos {
        if self.is_empty() {
            return Nanos::ZERO;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        // Rank 1 is the smallest sample and rank n the largest — both are
        // tracked exactly, so the edge quantiles carry no bucket error.
        if rank == 1 {
            return self.min();
        }
        if rank == self.count {
            return self.max();
        }
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, width) = bucket_range(idx);
                let mid = lo + width / 2;
                return Nanos::from_nanos(mid.clamp(self.min_ns, self.max_ns));
            }
        }
        self.max()
    }

    /// Quantile expressed in milliseconds.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.quantile(q).as_nanos() as f64 / 1e6
    }

    /// Folds `other` into `self` by element-wise counter addition.
    /// Associative and commutative, so any merge tree over the same
    /// multiset of samples produces the same histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Appends the histogram as a JSON object to `out` with a stable
    /// field order: count, exact extrema/mean, the p50/p95/p99 estimates,
    /// and the sparse non-empty buckets as `[index, count]` pairs in
    /// ascending index order. Byte-stable for identical histograms.
    pub fn write_json(&self, out: &mut String) {
        let mut w = JsonWriter::new(out);
        w.begin_object();
        w.key("count").u64(self.count);
        w.key("min_ns")
            .u64(if self.is_empty() { 0 } else { self.min_ns });
        w.key("max_ns").u64(self.max_ns);
        w.key("mean_ms").fixed(self.mean_ms(), 6);
        w.key("p50_ms").fixed(self.quantile_ms(0.50), 6);
        w.key("p95_ms").fixed(self.quantile_ms(0.95), 6);
        w.key("p99_ms").fixed(self.quantile_ms(0.99), 6);
        w.key("buckets").begin_array();
        for (idx, &c) in self.counts.iter().enumerate().filter(|(_, &c)| c > 0) {
            w.begin_array().u64(idx as u64).u64(c).end_array();
        }
        w.end_array().end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        // Exhaustive over the interesting low range, then spot checks at
        // octave boundaries across the full u64 range.
        let mut prev = bucket_index(0);
        assert_eq!(prev, 0);
        for v in 1..=4096u64 {
            let idx = bucket_index(v);
            assert!(idx == prev || idx == prev + 1, "gap at {v}");
            prev = idx;
        }
        for exp in SUB_BITS..63 {
            let v = 1u64 << exp;
            assert_eq!(bucket_index(v - 1) + 1, bucket_index(v), "boundary {v}");
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_range_inverts_index() {
        for v in [0u64, 1, 31, 32, 63, 64, 1000, 1 << 20, u64::MAX / 3] {
            let idx = bucket_index(v);
            let (lo, width) = bucket_range(idx);
            assert!(lo <= v && v < lo.saturating_add(width), "v={v} idx={idx}");
        }
    }

    #[test]
    fn relative_error_bound_holds() {
        // Record 1..=10_000 µs; every quantile estimate must sit within
        // the advertised relative error of the exact nearest-rank value.
        let mut h = Histogram::new();
        for us in 1..=10_000u64 {
            h.record_ns(us * 1_000);
        }
        for q in [0.01, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999] {
            let exact = ((q * 10_000f64).ceil().max(1.0)) * 1_000.0;
            let est = h.quantile(q).as_nanos() as f64;
            let rel = (est - exact).abs() / exact;
            assert!(
                rel <= Histogram::RELATIVE_ERROR,
                "q={q}: est={est} exact={exact} rel={rel}"
            );
        }
    }

    #[test]
    fn extrema_and_mean_are_exact() {
        let mut h = Histogram::new();
        for ms in [5u64, 1, 9] {
            h.record(Nanos::from_millis(ms));
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), Nanos::from_millis(1));
        assert_eq!(h.max(), Nanos::from_millis(9));
        assert!((h.mean_ms() - 5.0).abs() < 1e-12);
        assert_eq!(h.quantile(0.0), Nanos::from_millis(1));
        assert_eq!(h.quantile(1.0), Nanos::from_millis(9));
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), Nanos::ZERO);
        assert_eq!(h.mean_ms(), 0.0);
        assert_eq!(h.min(), Nanos::ZERO);
        assert_eq!(h.max(), Nanos::ZERO);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let fill = |lo: u64, hi: u64| {
            let mut h = Histogram::new();
            for v in lo..hi {
                h.record_ns(v * 7919); // spread across many buckets
            }
            h
        };
        let (a, b, c) = (fill(0, 100), fill(50, 400), fill(300, 1000));

        // (a + b) + c == a + (b + c)
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert!(left == right);

        // a + b == b + a
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert!(ab == ba);

        // Merge equals recording everything into one histogram.
        let mut serial = Histogram::new();
        for v in (0..100).chain(50..400).chain(300..1000) {
            serial.record_ns(v * 7919);
        }
        assert!(left == serial);
    }

    #[test]
    fn merged_json_is_byte_identical_to_serial() {
        let mut serial = Histogram::new();
        let mut part1 = Histogram::new();
        let mut part2 = Histogram::new();
        for v in 0..500u64 {
            let ns = v * 104_729;
            serial.record_ns(ns);
            if v % 2 == 0 {
                part1.record_ns(ns);
            } else {
                part2.record_ns(ns);
            }
        }
        let mut merged = part1.clone();
        merged.merge(&part2);
        let (mut a, mut b) = (String::new(), String::new());
        serial.write_json(&mut a);
        merged.write_json(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn json_shape_is_stable() {
        let mut h = Histogram::new();
        h.record_ns(10);
        let mut s = String::new();
        h.write_json(&mut s);
        assert!(s.starts_with("{\"count\":1,\"min_ns\":10,\"max_ns\":10,"));
        assert!(s.ends_with("\"buckets\":[[10,1]]}"));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "reversed span")]
    fn reversed_span_asserts_in_debug() {
        let mut h = Histogram::new();
        h.record_span(Nanos::from_millis(7), Nanos::from_millis(5));
    }
}
