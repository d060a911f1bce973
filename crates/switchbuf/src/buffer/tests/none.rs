//! Capacity 0: every miss a full-packet `packet_in`.

use super::no_buffer;
use crate::{BufferMechanism, MissAction, PacketPool};
use sdnbuf_net::PacketBuilder;
use sdnbuf_openflow::{BufferId, PortNo};
use sdnbuf_sim::Nanos;
#[test]
fn always_sends_full_packets() {
    let mut b = no_buffer();
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
    let mut b = no_buffer();
    assert!(b.release(Nanos::ZERO, BufferId::new(1)).is_empty());
    assert_eq!(b.stats().invalid_releases, 1);
}

#[test]
fn never_times_out() {
    let mut b = no_buffer();
    assert_eq!(b.next_timeout(), None);
    assert!(b
        .poll_timeouts(Nanos::from_secs(100), &PacketPool::new())
        .is_empty());
}

#[test]
fn name() {
    assert_eq!(no_buffer().name(), "no-buffer");
}
