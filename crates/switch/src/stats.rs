//! Switch-side measurement counters.

use sdnbuf_metrics::{Counter, Gauge};

/// Running statistics kept by the switch model.
///
/// Byte-level control-path load is metered at the link by the testbed; the
/// counters here are the switch's own view, used for invariant checks and
/// for the buffer-utilization figures (via [`SwitchStats::buffer_occupancy`]).
#[derive(Clone, Debug, Default)]
pub struct SwitchStats {
    /// `packet_in` messages sent (including re-requests and fallbacks).
    pub pkt_in_sent: Counter,
    /// `packet_in` payload bytes sent.
    pub pkt_in_bytes: Counter,
    /// `flow_mod` messages executed.
    pub flow_mods: Counter,
    /// `packet_out` messages executed.
    pub pkt_outs: Counter,
    /// Packets forwarded by the fast path (table hits).
    pub fastpath_forwards: Counter,
    /// Packets forwarded out of the buffer (or from `packet_out` data).
    pub slowpath_forwards: Counter,
    /// Packets dropped (empty action list or unroutable `packet_out`).
    pub drops: Counter,
    /// Table misses observed.
    pub table_misses: Counter,
    /// Times the switch entered degraded mode (consecutive give-ups hit
    /// the configured threshold).
    pub degraded_entries: Counter,
    /// Times the switch recovered from degraded mode.
    pub degraded_exits: Counter,
    /// Table misses shed (neither buffered nor announced) while degraded.
    pub degraded_sheds: Counter,
    /// Session-epoch bumps completed (controller re-handshakes observed
    /// while the crash plane is armed).
    pub epoch_bumps: Counter,
    /// `packet_out`s minted under a dead session epoch and rejected by the
    /// buffer mechanism's epoch guard.
    pub stale_epoch_rejects: Counter,
    /// Times the liveness detector tripped (controller silent past
    /// `liveness_timeout`).
    pub liveness_suspects: Counter,
    /// Fresh misses shed while the controller was suspected dead.
    pub suspect_sheds: Counter,
    /// Surviving buffer entries re-announced by the paced post-restart
    /// reconciliation.
    pub reconcile_rerequests: Counter,
    /// Buffer occupancy over time (units in use) — Figs. 8/13. A run's
    /// occupancy timeline is its event stream (`observe::sample_series`
    /// in `sdnbuf-core`), not a record kept here.
    pub buffer_occupancy: Gauge,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let s = SwitchStats::default();
        assert_eq!(s.pkt_in_sent.get(), 0);
        assert_eq!(s.buffer_occupancy.max(), 0.0);
    }
}
