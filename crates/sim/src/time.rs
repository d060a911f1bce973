//! Virtual time and bit-rate arithmetic.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time, or a span of virtual time, in nanoseconds.
///
/// The simulation clock starts at [`Nanos::ZERO`]. `Nanos` is used both as an
/// absolute timestamp and as a duration; arithmetic saturates on underflow so
/// a small negative difference cannot wrap around to a huge timestamp.
///
/// # Example
///
/// ```
/// use sdnbuf_sim::Nanos;
/// let t = Nanos::from_millis(1) + Nanos::from_micros(500);
/// assert_eq!(t.as_micros_f64(), 1500.0);
/// assert_eq!(t.to_string(), "1.500ms");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Nanos(u64);

impl Nanos {
    /// Time zero — the start of every simulation.
    pub const ZERO: Nanos = Nanos(0);
    /// The largest representable time; useful as an "infinitely far" deadline.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates a time value from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a time value from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a time value from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a time value from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Creates a time value from fractional seconds, rounding to the nearest
    /// nanosecond. Negative and non-finite inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return Nanos::ZERO;
        }
        Nanos((s * 1e9).round().min(u64::MAX as f64) as u64)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This time value expressed in fractional microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This time value expressed in fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This time value expressed in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: returns `ZERO` instead of wrapping when
    /// `other > self`.
    #[inline]
    pub fn saturating_sub(self, other: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(other.0))
    }

    /// Checked subtraction: `None` when `other > self`.
    #[inline]
    pub fn checked_sub(self, other: Nanos) -> Option<Nanos> {
        self.0.checked_sub(other.0).map(Nanos)
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, other: Nanos) -> Nanos {
        Nanos(self.0.max(other.0))
    }

    /// The earlier of two times.
    #[inline]
    pub fn min(self, other: Nanos) -> Nanos {
        Nanos(self.0.min(other.0))
    }

    /// Scales a duration by a dimensionless factor, rounding to the nearest
    /// nanosecond. Negative and non-finite factors clamp to zero.
    pub fn scale(self, factor: f64) -> Nanos {
        if !factor.is_finite() || factor <= 0.0 {
            return Nanos::ZERO;
        }
        Nanos((self.0 as f64 * factor).round().min(u64::MAX as f64) as u64)
    }
}

impl Add for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        *self = *self + rhs;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    /// Saturating: clamps at zero rather than wrapping.
    #[inline]
    fn sub(self, rhs: Nanos) -> Nanos {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for Nanos {
    #[inline]
    fn sub_assign(&mut self, rhs: Nanos) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[inline]
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// A transmission rate in bits per second.
///
/// Used for link bandwidths, bus throughput and workload sending rates. The
/// central operation is [`BitRate::transmission_time`], which converts a byte
/// count into the virtual time required to serialize it at this rate.
///
/// # Example
///
/// ```
/// use sdnbuf_sim::{BitRate, Nanos};
/// let r = BitRate::from_mbps(100);
/// assert_eq!(r.transmission_time(1000), Nanos::from_micros(80));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BitRate(u64);

/// Nanoseconds a byte occupies a 1 bps line: bits × 10⁹.
pub(crate) const NS_PER_BYTE_AT_1BPS: u64 = 8 * 1_000_000_000;

impl BitRate {
    /// Creates a rate from bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is zero — a zero-rate link can never transmit and is
    /// always a configuration error.
    pub fn from_bps(bps: u64) -> Self {
        assert!(bps > 0, "bit rate must be positive");
        BitRate(bps)
    }

    /// Creates a rate from kilobits per second (10^3 bits).
    pub fn from_kbps(kbps: u64) -> Self {
        Self::from_bps(kbps * 1_000)
    }

    /// Creates a rate from megabits per second (10^6 bits).
    pub fn from_mbps(mbps: u64) -> Self {
        Self::from_bps(mbps * 1_000_000)
    }

    /// Creates a rate from gigabits per second (10^9 bits).
    pub fn from_gbps(gbps: u64) -> Self {
        Self::from_bps(gbps * 1_000_000_000)
    }

    /// The rate in bits per second.
    #[inline]
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// The rate in fractional megabits per second.
    #[inline]
    pub fn as_mbps_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The virtual time needed to serialize `bytes` at this rate, rounded up
    /// to the next nanosecond (a partial nanosecond still occupies the line).
    #[inline]
    pub fn transmission_time(self, bytes: usize) -> Nanos {
        // Frames are far below the 2.3 GB where bits × 10⁹ outgrows a
        // `u64`; the wide division (a libcall) serves only what is not.
        let ns = match (bytes as u64).checked_mul(NS_PER_BYTE_AT_1BPS) {
            Some(bit_ns) => bit_ns.div_ceil(self.0),
            None => {
                let bit_ns = bytes as u128 * NS_PER_BYTE_AT_1BPS as u128;
                bit_ns.div_ceil(self.0 as u128).min(u64::MAX as u128) as u64
            }
        };
        Nanos::from_nanos(ns)
    }

    /// The inter-departure gap between back-to-back frames of `bytes` bytes
    /// needed to sustain this average rate.
    #[inline]
    pub fn interval_for_frame(self, bytes: usize) -> Nanos {
        self.transmission_time(bytes)
    }
}

impl fmt::Display for BitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2}Gbps", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.2}Mbps", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.2}Kbps", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}bps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nanos_constructors_agree() {
        assert_eq!(Nanos::from_secs(1), Nanos::from_nanos(1_000_000_000));
        assert_eq!(Nanos::from_millis(1), Nanos::from_micros(1_000));
        assert_eq!(Nanos::from_micros(1), Nanos::from_nanos(1_000));
        assert_eq!(Nanos::from_secs_f64(0.5), Nanos::from_millis(500));
    }

    #[test]
    fn nanos_from_secs_f64_clamps_bad_input() {
        assert_eq!(Nanos::from_secs_f64(-1.0), Nanos::ZERO);
        assert_eq!(Nanos::from_secs_f64(f64::NAN), Nanos::ZERO);
        assert_eq!(Nanos::from_secs_f64(f64::INFINITY), Nanos::ZERO);
    }

    #[test]
    fn nanos_subtraction_saturates() {
        let a = Nanos::from_micros(1);
        let b = Nanos::from_micros(2);
        assert_eq!(a - b, Nanos::ZERO);
        assert_eq!(b - a, Nanos::from_micros(1));
        assert_eq!(a.checked_sub(b), None);
        assert_eq!(b.checked_sub(a), Some(Nanos::from_micros(1)));
    }

    #[test]
    fn nanos_addition_saturates_at_max() {
        assert_eq!(Nanos::MAX + Nanos::from_secs(1), Nanos::MAX);
    }

    #[test]
    fn nanos_scale_rounds() {
        assert_eq!(Nanos::from_nanos(10).scale(1.5), Nanos::from_nanos(15));
        assert_eq!(Nanos::from_nanos(10).scale(0.0), Nanos::ZERO);
        assert_eq!(Nanos::from_nanos(10).scale(-3.0), Nanos::ZERO);
        assert_eq!(Nanos::from_nanos(10).scale(f64::NAN), Nanos::ZERO);
    }

    #[test]
    fn nanos_display_picks_unit() {
        assert_eq!(Nanos::from_nanos(42).to_string(), "42ns");
        assert_eq!(Nanos::from_micros(42).to_string(), "42.000us");
        assert_eq!(Nanos::from_millis(42).to_string(), "42.000ms");
        assert_eq!(Nanos::from_secs(42).to_string(), "42.000s");
    }

    #[test]
    fn nanos_sum() {
        let total: Nanos = [Nanos::from_micros(1), Nanos::from_micros(2)]
            .into_iter()
            .sum();
        assert_eq!(total, Nanos::from_micros(3));
    }

    #[test]
    fn bitrate_transmission_time_exact() {
        // 1000 bytes at 100 Mbps = 8000 bits / 1e8 bps = 80 us.
        assert_eq!(
            BitRate::from_mbps(100).transmission_time(1000),
            Nanos::from_micros(80)
        );
        // 1 byte at 1 Gbps = 8 ns.
        assert_eq!(
            BitRate::from_gbps(1).transmission_time(1),
            Nanos::from_nanos(8)
        );
    }

    #[test]
    fn bitrate_transmission_time_rounds_up() {
        // 1 byte at 3 bps = 8/3 s = 2.666..s, rounds up to ceil in ns.
        let t = BitRate::from_bps(3).transmission_time(1);
        assert_eq!(t, Nanos::from_nanos(2_666_666_667));
    }

    #[test]
    fn bitrate_zero_bytes_is_free() {
        assert_eq!(BitRate::from_mbps(10).transmission_time(0), Nanos::ZERO);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bitrate_zero_panics() {
        let _ = BitRate::from_bps(0);
    }

    #[test]
    fn bitrate_display() {
        assert_eq!(BitRate::from_mbps(100).to_string(), "100.00Mbps");
        assert_eq!(BitRate::from_gbps(1).to_string(), "1.00Gbps");
        assert_eq!(BitRate::from_kbps(5).to_string(), "5.00Kbps");
        assert_eq!(BitRate::from_bps(7).to_string(), "7bps");
    }
}
