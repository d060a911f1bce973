//! Controller-side measurement counters.

use sdnbuf_metrics::{Counter, Histogram};

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
    pub echo_rtt: Histogram,
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
