//! Controller-side measurement counters.

use sdnbuf_metrics::{Counter, Histogram};
use sdnbuf_sim::Nanos;

/// Lazily allocated echo round-trip histogram. The ~15 KiB bucket array
/// only exists once a sample lands, so controllers that never run
/// keepalives (every default configuration) pay no allocation for it —
/// neither at construction nor when run results clone the stats.
#[derive(Clone, Debug, Default)]
pub struct EchoRtt(Option<Box<Histogram>>);

impl EchoRtt {
    /// Record one round trip, allocating the histogram on first use.
    pub fn record(&mut self, d: Nanos) {
        self.0
            .get_or_insert_with(|| Box::new(Histogram::new()))
            .record(d);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.count())
    }

    /// Upper bound of the bucket holding quantile `q` (zero when empty).
    pub fn quantile(&self, q: f64) -> Nanos {
        self.0.as_ref().map_or(Nanos::ZERO, |h| h.quantile(q))
    }

    /// `quantile` in fractional milliseconds.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.0.as_ref().map_or(0.0, |h| h.quantile_ms(q))
    }

    /// Fold another echo-RTT record into this one. Allocates only when
    /// the other side actually holds samples.
    pub fn merge(&mut self, other: &EchoRtt) {
        if let Some(theirs) = other.0.as_deref() {
            self.0
                .get_or_insert_with(|| Box::new(Histogram::new()))
                .merge(theirs);
        }
    }
}

/// Running statistics kept by the controller model.
#[derive(Clone, Debug, Default)]
pub struct ControllerStats {
    /// `packet_in` messages received.
    pub pkt_ins: Counter,
    /// `packet_in` payload bytes received.
    pub pkt_in_bytes: Counter,
    /// `flow_mod` messages sent.
    pub flow_mods: Counter,
    /// `packet_out` messages sent.
    pub pkt_outs: Counter,
    /// Floods issued for unknown/broadcast destinations.
    pub floods: Counter,
    /// `error` messages received.
    pub errors: Counter,
    /// `packet_in`s whose data could not be parsed.
    pub parse_failures: Counter,
    /// `packet_in`s shed by the bounded ingress queue's admission policy.
    pub admission_sheds: Counter,
    /// Echo keepalives originated.
    pub probes_sent: Counter,
    /// `echo_reply` messages received.
    pub echo_replies: Counter,
    /// Round-trip time of the controller's own echo keepalives, from the
    /// `echo_request` leaving the controller to its `echo_reply` arriving
    /// back — the control channel's health signal.
    pub echo_rtt: EchoRtt,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let s = ControllerStats::default();
        assert_eq!(s.pkt_ins.get(), 0);
        assert_eq!(s.errors.get(), 0);
    }
}
