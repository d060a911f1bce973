//! FNV-1a digests of simulated results.
//!
//! A digest covers **every** field of a [`RunResult`] (floats by bit
//! pattern), so two runs digest alike only when the simulation computed the
//! same thing. Reps of one commit must agree on it; a change meant only to
//! speed the simulator up must leave it where it was.

use sdnbuf_core::RunResult;
use sdnbuf_metrics::Summary;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a hasher over explicitly fed fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(OFFSET)
    }
}

impl Fnv {
    /// A fresh hasher.
    pub fn new() -> Fnv {
        Fnv::default()
    }

    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Feeds an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds a float by bit pattern (`-0.0` and `0.0` differ, as do NaN
    /// payloads: the digest asks "same computation", not "same value").
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Feeds a string, length first so adjacent strings cannot run together.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn summary(&mut self, s: &Summary) {
        let Summary {
            n,
            mean,
            std,
            min,
            max,
            p50,
            p95,
            p99,
        } = *s;
        self.u64(n as u64);
        for v in [mean, std, min, max, p50, p95, p99] {
            self.f64(v);
        }
    }

    /// Feeds every field of a run's result. The destructuring is
    /// exhaustive on purpose: a field added to `RunResult` stops this from
    /// compiling until it is digested too.
    pub fn run(&mut self, r: &RunResult) {
        let RunResult {
            label,
            sending_rate_mbps,
            active_span,
            ctrl_load_to_controller_mbps,
            ctrl_load_to_switch_mbps,
            pkt_in_count,
            ctrl_bytes_to_controller,
            ctrl_bytes_to_switch,
            flow_mod_count,
            pkt_out_count,
            controller_cpu_percent,
            switch_cpu_percent,
            flow_setup_delay,
            controller_delay,
            switch_delay,
            flow_forwarding_delay,
            buffer_mean_occupancy,
            buffer_peak_occupancy,
            buffer_fallbacks,
            rerequests,
            buffer_expired,
            buffer_giveups,
            stale_releases,
            admission_sheds,
            degraded_entries,
            degraded_exits,
            degraded_sheds,
            ctrl_crashes,
            failover_takeovers,
            epoch_bumps,
            stale_epoch_rejects,
            liveness_suspects,
            suspect_sheds,
            reconcile_rerequests,
            echo_rtt_p50_ms,
            echo_rtt_p99_ms,
            echo_rtt_samples,
            packets_sent,
            packets_delivered,
            packets_dropped,
            ctrl_drops,
            events_dispatched,
            flows_completed,
            flows_total,
        } = r;
        self.str(label);
        for v in [
            *sending_rate_mbps,
            *ctrl_load_to_controller_mbps,
            *ctrl_load_to_switch_mbps,
            *controller_cpu_percent,
            *switch_cpu_percent,
            *buffer_mean_occupancy,
            *echo_rtt_p50_ms,
            *echo_rtt_p99_ms,
        ] {
            self.f64(v);
        }
        for s in [
            flow_setup_delay,
            controller_delay,
            switch_delay,
            flow_forwarding_delay,
        ] {
            self.summary(s);
        }
        for v in [
            active_span.as_nanos(),
            *pkt_in_count,
            *ctrl_bytes_to_controller,
            *ctrl_bytes_to_switch,
            *flow_mod_count,
            *pkt_out_count,
            *buffer_peak_occupancy as u64,
            *buffer_fallbacks,
            *rerequests,
            *buffer_expired,
            *buffer_giveups,
            *stale_releases,
            *admission_sheds,
            *degraded_entries,
            *degraded_exits,
            *degraded_sheds,
            *ctrl_crashes,
            *failover_takeovers,
            *epoch_bumps,
            *stale_epoch_rejects,
            *liveness_suspects,
            *suspect_sheds,
            *reconcile_rerequests,
            *echo_rtt_samples,
            *packets_sent,
            *packets_delivered,
            *packets_dropped,
            *ctrl_drops,
            *events_dispatched,
            *flows_completed as u64,
            *flows_total as u64,
        ] {
            self.u64(v);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnbuf_core::{Testbed, TestbedConfig};
    use sdnbuf_workload::{single_packet_flows, PktgenConfig};

    fn digest_of(r: &RunResult) -> u64 {
        let mut h = Fnv::new();
        h.run(r);
        h.finish()
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        let mut h = Fnv::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn identical_runs_digest_alike_and_any_field_moves_it() {
        let run = || {
            let deps = single_packet_flows(&PktgenConfig::default(), 40, 3);
            Testbed::new(TestbedConfig::default()).run(&deps)
        };
        let a = run();
        assert_eq!(digest_of(&a), digest_of(&run()), "same inputs, same digest");

        let mut b = a.clone();
        b.flows_total += 1;
        assert_ne!(digest_of(&a), digest_of(&b), "last integer field counts");
        let mut b = a.clone();
        b.flow_forwarding_delay.p99 = f64::from_bits(b.flow_forwarding_delay.p99.to_bits() ^ 1);
        assert_ne!(digest_of(&a), digest_of(&b), "one float ulp counts");
        let mut b = a.clone();
        b.label.push('x');
        assert_ne!(digest_of(&a), digest_of(&b), "the label counts");
    }

    #[test]
    fn floats_digest_by_bit_pattern() {
        let (mut pos, mut neg) = (Fnv::new(), Fnv::new());
        pos.f64(0.0);
        neg.f64(-0.0);
        assert_ne!(pos.finish(), neg.finish());
    }
}
