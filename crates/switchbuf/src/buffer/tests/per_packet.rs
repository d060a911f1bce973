//! OpenFlow's default: one entry per miss.

use super::packet_buffer;
use crate::{Buffer, BufferMechanism, MissAction, PacketPool, Refusal, Sabotage};
use sdnbuf_net::{Packet, PacketBuilder};
use sdnbuf_openflow::{BufferId, PortNo};
use sdnbuf_sim::Nanos;
#[test]
fn pressure_refuses_new_units_but_keeps_existing() {
    let mut b = packet_buffer(16, Nanos::ZERO);
    let mut pool = PacketPool::new();
    let id = match b.on_miss(Nanos::ZERO, pool.insert(pkt(1)), PortNo(1), &pool) {
        MissAction::SendBufferedPacketIn { buffer_id } => buffer_id,
        other => panic!("{other:?}"),
    };
    b.set_pressure(true);
    assert_eq!(
        b.on_miss(Nanos::ZERO, pool.insert(pkt(2)), PortNo(1), &pool),
        MissAction::SendFullPacketIn
    );
    assert_eq!(b.stats().fallback_full, 1);
    assert_eq!(b.release(Nanos::ZERO, id).len(), 1, "release still works");
    b.set_pressure(false);
    assert!(matches!(
        b.on_miss(Nanos::ZERO, pool.insert(pkt(3)), PortNo(1), &pool),
        MissAction::SendBufferedPacketIn { .. }
    ));
}

fn pkt(src_port: u16) -> Packet {
    PacketBuilder::udp().src_port(src_port).build()
}

#[test]
fn a_reset_buffer_acts_as_the_fresh_one_and_keeps_its_storage() {
    let misses = |b: &mut Buffer, pool: &mut PacketPool| {
        let actions: Vec<_> = (0..20u16)
            .map(|i| b.on_miss(Nanos::ZERO, pool.insert(pkt(i)), PortNo(1), pool))
            .collect();
        // Debug shows the ids' generations and epochs, which `==`
        // ignores.
        format!("{actions:?}")
    };
    let fresh = || packet_buffer(16, Nanos::from_millis(1));
    let mut pool = PacketPool::new();
    let mut b = packet_buffer(64, Nanos::ZERO).with_ttl(Nanos::from_millis(5));
    b.reconcile_epoch(Nanos::ZERO, 2);
    misses(&mut b, &mut pool);
    let id = b.first_slot_id();
    b.release(Nanos::ZERO, id);
    b.set_pressure(true);
    let storage = b.storage();
    b.reset_to(fresh());
    assert_eq!(b.storage(), storage);
    assert_eq!(
        (b.occupancy(), b.capacity(), b.next_timeout()),
        (0, 16, None)
    );
    let mut other = fresh();
    assert_eq!(misses(&mut b, &mut pool), misses(&mut other, &mut pool));
    assert_eq!(b.stats(), other.stats());
}

#[test]
fn each_miss_gets_its_own_id() {
    let mut b = packet_buffer(16, Nanos::ZERO);
    let mut pool = PacketPool::new();
    let a1 = b.on_miss(Nanos::ZERO, pool.insert(pkt(1)), PortNo(1), &pool);
    let a2 = b.on_miss(Nanos::ZERO, pool.insert(pkt(1)), PortNo(1), &pool); // same flow!
    let (id1, id2) = match (a1, a2) {
        (
            MissAction::SendBufferedPacketIn { buffer_id: x },
            MissAction::SendBufferedPacketIn { buffer_id: y },
        ) => (x, y),
        other => panic!("expected two buffered packet_ins, got {other:?}"),
    };
    // Packet granularity: even same-flow packets get exclusive ids and
    // both trigger packet_ins — the redundancy the paper eliminates.
    assert_ne!(id1, id2);
    assert_eq!(b.occupancy(), 2);
}

#[test]
fn release_returns_exactly_one_packet() {
    let mut b = packet_buffer(4, Nanos::ZERO);
    let mut pool = PacketPool::new();
    let id = match b.on_miss(Nanos::from_micros(3), pool.insert(pkt(9)), PortNo(2), &pool) {
        MissAction::SendBufferedPacketIn { buffer_id } => buffer_id,
        other => panic!("{other:?}"),
    };
    let out = b.release(Nanos::from_micros(9), id);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].in_port, PortNo(2));
    assert_eq!(out[0].buffered_at, Nanos::from_micros(3));
    assert_eq!(out[0].buffer_id, id);
    assert_eq!(b.occupancy(), 0);
    // Second release of the same id is a no-op.
    assert_eq!(
        b.release_into(Nanos::from_micros(10), id, &mut Vec::new()),
        Err(Refusal::Unknown)
    );
    assert_eq!(b.stats().invalid_releases, 1);
}

#[test]
fn exhaustion_falls_back_to_full_packets() {
    let mut b = packet_buffer(2, Nanos::ZERO);
    let mut pool = PacketPool::new();
    assert!(matches!(
        b.on_miss(Nanos::ZERO, pool.insert(pkt(1)), PortNo(1), &pool),
        MissAction::SendBufferedPacketIn { .. }
    ));
    assert!(matches!(
        b.on_miss(Nanos::ZERO, pool.insert(pkt(2)), PortNo(1), &pool),
        MissAction::SendBufferedPacketIn { .. }
    ));
    // Buffer full: fall back.
    assert_eq!(
        b.on_miss(Nanos::ZERO, pool.insert(pkt(3)), PortNo(1), &pool),
        MissAction::SendFullPacketIn
    );
    assert_eq!(b.stats().fallback_full, 1);
    assert_eq!(b.occupancy(), 2);
}

#[test]
fn released_units_are_reusable() {
    let mut b = packet_buffer(1, Nanos::ZERO);
    let mut pool = PacketPool::new();
    let id = match b.on_miss(Nanos::ZERO, pool.insert(pkt(1)), PortNo(1), &pool) {
        MissAction::SendBufferedPacketIn { buffer_id } => buffer_id,
        other => panic!("{other:?}"),
    };
    assert_eq!(
        b.on_miss(Nanos::ZERO, pool.insert(pkt(2)), PortNo(1), &pool),
        MissAction::SendFullPacketIn
    );
    b.release(Nanos::ZERO, id);
    // A unit is free again.
    assert!(matches!(
        b.on_miss(Nanos::ZERO, pool.insert(pkt(3)), PortNo(1), &pool),
        MissAction::SendBufferedPacketIn { .. }
    ));
}

#[test]
fn ids_do_not_collide_after_wraparound_reuse() {
    let mut b = packet_buffer(4, Nanos::ZERO);
    let mut pool = PacketPool::new();
    let mut live = std::collections::HashSet::new();
    for round in 0..10 {
        match b.on_miss(Nanos::ZERO, pool.insert(pkt(round)), PortNo(1), &pool) {
            MissAction::SendBufferedPacketIn { buffer_id } => {
                // A freshly allocated id must never collide with one
                // still in use.
                assert!(live.insert(buffer_id.as_u32()), "live id collision");
                if round % 2 == 1 {
                    b.release(Nanos::ZERO, buffer_id);
                    live.remove(&buffer_id.as_u32());
                }
            }
            MissAction::SendFullPacketIn => {} // buffer full; fine
            other => panic!("{other:?}"),
        }
    }
    assert_eq!(live.len(), b.occupancy());
}

#[test]
fn peak_occupancy_tracked() {
    let mut b = packet_buffer(8, Nanos::ZERO);
    let mut pool = PacketPool::new();
    let mut ids = Vec::new();
    for i in 0..5 {
        if let MissAction::SendBufferedPacketIn { buffer_id } =
            b.on_miss(Nanos::ZERO, pool.insert(pkt(i)), PortNo(1), &pool)
        {
            ids.push(buffer_id);
        }
    }
    for id in ids {
        b.release(Nanos::ZERO, id);
    }
    assert_eq!(b.occupancy(), 0);
    assert_eq!(b.stats().peak_occupancy, 5);
    assert_eq!(b.stats().buffered, 5);
    assert_eq!(b.stats().released, 5);
}

#[test]
fn no_timeouts() {
    let mut b = packet_buffer(1, Nanos::ZERO);
    let mut pool = PacketPool::new();
    b.on_miss(Nanos::ZERO, pool.insert(pkt(1)), PortNo(1), &pool);
    assert_eq!(b.next_timeout(), None);
    assert!(b.poll_timeouts(Nanos::from_secs(10), &pool).is_empty());
}

#[test]
#[should_panic(expected = "positive")]
fn zero_capacity_panics() {
    let _ = packet_buffer(0, Nanos::ZERO);
}

#[test]
fn ttl_expires_stranded_units_oldest_first() {
    let ttl = Nanos::from_millis(30);
    let mut b = packet_buffer(4, Nanos::ZERO).with_ttl(ttl);
    let mut pool = PacketPool::new();
    b.on_miss(Nanos::ZERO, pool.insert(pkt(1)), PortNo(1), &pool);
    b.on_miss(
        Nanos::from_millis(10),
        pool.insert(pkt(2)),
        PortNo(1),
        &pool,
    );
    assert_eq!(b.next_timeout(), Some(Nanos::from_millis(30)));
    let sweep = b.poll_timeouts(Nanos::from_millis(35), &pool);
    assert_eq!(sweep.expired.len(), 1, "only the first unit aged out");
    assert_eq!(b.occupancy(), 1);
    assert_eq!(b.stats().expired, 1);
    assert!(b.stats().expired_bytes > 0);
    // The freed slot is reusable immediately.
    assert!(matches!(
        b.on_miss(
            Nanos::from_millis(36),
            pool.insert(pkt(3)),
            PortNo(1),
            &pool
        ),
        MissAction::SendBufferedPacketIn { .. }
    ));
    let sweep = b.poll_timeouts(Nanos::from_millis(100), &pool);
    assert_eq!(sweep.expired.len(), 2);
    assert_eq!(b.occupancy(), 0);
    assert_eq!(b.next_timeout(), None);
}

#[test]
fn disabled_ttl_gc_leaks_units() {
    let mut b = packet_buffer(4, Nanos::ZERO).with_ttl(Nanos::from_millis(10));
    let mut pool = PacketPool::new();
    b.sabotage(Sabotage::no_ttl_gc());
    b.on_miss(Nanos::ZERO, pool.insert(pkt(1)), PortNo(1), &pool);
    assert_eq!(b.next_timeout(), None, "sabotaged GC schedules nothing");
    assert!(b.poll_timeouts(Nanos::from_secs(1), &pool).is_empty());
    assert_eq!(b.occupancy(), 1);
    b.sabotage(Sabotage::none());
    assert_eq!(b.poll_timeouts(Nanos::from_secs(1), &pool).expired.len(), 1);
}

#[test]
fn stale_generation_release_is_rejected() {
    let mut b = packet_buffer(1, Nanos::ZERO);
    let mut pool = PacketPool::new();
    let stale = match b.on_miss(Nanos::ZERO, pool.insert(pkt(1)), PortNo(1), &pool) {
        MissAction::SendBufferedPacketIn { buffer_id } => buffer_id,
        other => panic!("{other:?}"),
    };
    assert_eq!(b.release(Nanos::from_micros(1), stale).len(), 1);
    // The wrap-around allocator recycles raw id 0... eventually; force
    // the collision by filling the single unit again after a full lap
    // is unnecessary — capacity 1 re-allocates a fresh id, so emulate a
    // stale duplicate by re-tagging the *new* unit's raw id with the
    // old generation.
    let fresh = match b.on_miss(Nanos::from_micros(2), pool.insert(pkt(2)), PortNo(1), &pool) {
        MissAction::SendBufferedPacketIn { buffer_id } => buffer_id,
        other => panic!("{other:?}"),
    };
    let forged = BufferId::tagged(fresh.as_u32(), stale.generation());
    let mut out = Vec::new();
    assert_eq!(
        b.release_into(Nanos::from_micros(3), forged, &mut out),
        Err(Refusal::StaleGeneration)
    );
    assert!(out.is_empty());
    assert_eq!(b.stats().stale_releases, 1);
    assert_eq!(b.occupancy(), 1, "the current occupant survives");
    // Untagged raw-wire release still drains it.
    let raw = BufferId::new(fresh.as_u32());
    assert_eq!(b.release(Nanos::from_micros(4), raw).len(), 1);
}

#[test]
fn stale_epoch_release_is_rejected_and_reconcile_migrates_units() {
    let mut b = packet_buffer(4, Nanos::ZERO);
    let mut pool = PacketPool::new();
    assert!(b.reconcile_epoch(Nanos::ZERO, 1).is_empty(), "arming");
    let a = match b.on_miss(Nanos::ZERO, pool.insert(pkt(1)), PortNo(1), &pool) {
        MissAction::SendBufferedPacketIn { buffer_id } => buffer_id,
        other => panic!("{other:?}"),
    };
    let z = match b.on_miss(Nanos::ZERO, pool.insert(pkt(2)), PortNo(2), &pool) {
        MissAction::SendBufferedPacketIn { buffer_id } => buffer_id,
        other => panic!("{other:?}"),
    };
    assert_eq!(a.epoch(), 1);
    let survivors = b.reconcile_epoch(Nanos::from_millis(1), 2);
    assert_eq!(survivors.len(), 2);
    assert!(survivors.windows(2).all(|w| w[0].as_u32() < w[1].as_u32()));
    assert!(survivors.iter().all(|id| id.epoch() == 2));
    // Dead-epoch packet_outs are refused; current-epoch ones drain.
    let mut out = Vec::new();
    assert_eq!(
        b.release_into(Nanos::from_millis(2), a, &mut out),
        Err(Refusal::StaleEpoch)
    );
    assert!(out.is_empty());
    assert_eq!(b.stats().stale_epoch_releases, 1);
    assert_eq!(b.occupancy(), 2);
    assert_eq!(
        b.release_into(Nanos::from_millis(3), survivors[0], &mut out),
        Ok(1)
    );
    // The paced re-announce peek borrows without draining.
    let zid = BufferId::from_wire(z.as_u32());
    let r = b.rerequest_for(zid).expect("unit is live");
    assert_eq!(r.buffer_id.epoch(), 2);
    assert_eq!(b.occupancy(), 1);
    // Sabotage: with the guard off the dead-epoch id drains after all.
    b.sabotage(Sabotage::no_epoch_guard());
    assert_eq!(b.release(Nanos::from_millis(4), z).len(), 1);
    assert_eq!(b.stats().stale_epoch_releases, 1);
}

#[test]
fn lazy_reclamation_keeps_units_unavailable() {
    let lag = Nanos::from_millis(3);
    let mut b = packet_buffer(1, lag);
    let mut pool = PacketPool::new();
    let id = match b.on_miss(Nanos::ZERO, pool.insert(pkt(1)), PortNo(1), &pool) {
        MissAction::SendBufferedPacketIn { buffer_id } => buffer_id,
        other => panic!("{other:?}"),
    };
    let t_release = Nanos::from_millis(1);
    assert_eq!(b.release(t_release, id).len(), 1);
    // Slot not yet reclaimed: still "occupied" and unusable.
    assert_eq!(b.occupancy(), 1);
    assert_eq!(
        b.on_miss(Nanos::from_millis(2), pool.insert(pkt(2)), PortNo(1), &pool),
        MissAction::SendFullPacketIn
    );
    // After the lag the slot is reusable.
    assert!(matches!(
        b.on_miss(t_release + lag, pool.insert(pkt(3)), PortNo(1), &pool),
        MissAction::SendBufferedPacketIn { .. }
    ));
}

#[test]
fn zero_lag_reclaims_immediately() {
    let mut b = packet_buffer(1, Nanos::ZERO);
    let mut pool = PacketPool::new();
    let id = match b.on_miss(Nanos::ZERO, pool.insert(pkt(1)), PortNo(1), &pool) {
        MissAction::SendBufferedPacketIn { buffer_id } => buffer_id,
        other => panic!("{other:?}"),
    };
    b.release(Nanos::from_micros(1), id);
    assert_eq!(b.occupancy(), 0);
    assert!(matches!(
        b.on_miss(Nanos::from_micros(1), pool.insert(pkt(2)), PortNo(1), &pool),
        MissAction::SendBufferedPacketIn { .. }
    ));
}
