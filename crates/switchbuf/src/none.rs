//! The no-buffer mechanism: OpenFlow's default behaviour.

use crate::{
    BufferMechanism, BufferStats, BufferedPacket, MissAction, PacketHandle, PacketPool,
    TimeoutSweep,
};
use sdnbuf_openflow::{BufferId, PortNo, Refusal};
use sdnbuf_sim::Nanos;

/// No buffering: every miss-match packet travels, in full, inside its
/// `packet_in`, and the forwarding copy comes back inside the `packet_out`.
///
/// This is the baseline ("no-buffer") configuration of the paper's Section
/// IV evaluation — `OFP_NO_BUFFER` on every request.
///
/// # Example
///
/// ```
/// use sdnbuf_switchbuf::{BufferMechanism, MissAction, NoBuffer};
/// use sdnbuf_net::PacketBuilder;
/// use sdnbuf_openflow::PortNo;
/// use sdnbuf_sim::Nanos;
///
/// let mut buf = NoBuffer::new();
/// let mut pool = sdnbuf_switchbuf::PacketPool::new();
/// let pkt = pool.insert(PacketBuilder::udp().build());
/// let action = buf.on_miss(Nanos::ZERO, pkt, PortNo(1), &pool);
/// assert_eq!(action, MissAction::SendFullPacketIn);
/// assert_eq!(buf.capacity(), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct NoBuffer {
    stats: BufferStats,
}

impl NoBuffer {
    /// Creates the mechanism.
    pub fn new() -> Self {
        NoBuffer::default()
    }
}

impl BufferMechanism for NoBuffer {
    fn name(&self) -> &'static str {
        "no-buffer"
    }

    fn on_miss(
        &mut self,
        _now: Nanos,
        _packet: PacketHandle,
        _in_port: PortNo,
        _pool: &PacketPool,
    ) -> MissAction {
        self.stats.fallback_full += 1;
        MissAction::SendFullPacketIn
    }

    fn release_into(
        &mut self,
        _now: Nanos,
        _buffer_id: BufferId,
        _out: &mut Vec<BufferedPacket>,
    ) -> Result<usize, Refusal> {
        Err(self.stats.count(Refusal::Unknown))
    }

    fn next_timeout(&self) -> Option<Nanos> {
        None
    }

    fn poll_timeouts_into(&mut self, _now: Nanos, _pool: &PacketPool, _sweep: &mut TimeoutSweep) {}

    fn occupancy(&self) -> usize {
        0
    }

    fn capacity(&self) -> usize {
        0
    }

    fn stats(&self) -> BufferStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnbuf_net::PacketBuilder;

    #[test]
    fn always_sends_full_packets() {
        let mut b = NoBuffer::new();
        let mut pool = PacketPool::new();
        for i in 0..5 {
            let p = pool.insert(PacketBuilder::udp().src_port(i).build());
            assert_eq!(
                b.on_miss(Nanos::ZERO, p, PortNo(1), &pool),
                MissAction::SendFullPacketIn
            );
            // Full-packet fallback: the caller keeps ownership.
            assert!(pool.release(p).is_some());
        }
        assert_eq!(b.stats().fallback_full, 5);
        assert_eq!(b.occupancy(), 0);
    }

    #[test]
    fn release_is_always_empty() {
        let mut b = NoBuffer::new();
        assert!(b.release(Nanos::ZERO, BufferId::new(1)).is_empty());
        assert_eq!(b.stats().invalid_releases, 1);
    }

    #[test]
    fn never_times_out() {
        let mut b = NoBuffer::new();
        assert_eq!(b.next_timeout(), None);
        assert!(b
            .poll_timeouts(Nanos::from_secs(100), &PacketPool::new())
            .is_empty());
    }

    #[test]
    fn name() {
        assert_eq!(NoBuffer::new().name(), "no-buffer");
    }
}
