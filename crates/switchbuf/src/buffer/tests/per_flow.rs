//! Algorithms 1 and 2: one entry per 5-tuple.

use super::flow_buffer;
use crate::{
    Buffer, BufferMechanism, GiveUp, MissAction, PacketHandle, PacketPool, Refusal, RetryPolicy,
    Sabotage, TimeoutSweep,
};
use sdnbuf_net::{MacAddr, Packet, PacketBuilder};
use sdnbuf_openflow::{BufferId, PortNo};
use sdnbuf_sim::Nanos;
use std::net::Ipv4Addr;
fn mk() -> Buffer {
    flow_buffer(256, Nanos::from_millis(50))
}

fn pkt(src_port: u16, size: usize) -> Packet {
    PacketBuilder::udp()
        .src_port(src_port)
        .frame_size(size)
        .build()
}

#[test]
fn one_packet_in_per_flow() {
    let mut b = mk();
    let mut pool = PacketPool::new();
    let a1 = b.on_miss(Nanos::ZERO, pool.insert(pkt(1, 100)), PortNo(1), &pool);
    let id = match a1 {
        MissAction::SendBufferedPacketIn { buffer_id } => buffer_id,
        other => panic!("{other:?}"),
    };
    // 19 more packets of the same flow: all silent.
    for i in 0..19 {
        let a = b.on_miss(
            Nanos::from_micros(i + 1),
            pool.insert(pkt(1, 100)),
            PortNo(1),
            &pool,
        );
        assert_eq!(a, MissAction::Buffered { buffer_id: id });
    }
    assert_eq!(b.occupancy(), 20);
    assert_eq!(b.entry_count(), 1);
}

#[test]
fn a_reset_buffer_acts_as_the_fresh_one_and_keeps_its_storage() {
    let misses = |b: &mut Buffer, pool: &mut PacketPool| {
        let actions = (0..40u16)
            .map(|i| {
                b.on_miss(
                    Nanos::from_micros(i.into()),
                    pool.insert(pkt(i % 7, 100)),
                    PortNo(1),
                    pool,
                )
            })
            .collect::<Vec<_>>();
        // Debug shows the ids' generations and epochs, which `==`
        // ignores.
        format!("{actions:?}")
    };
    let mut pool = PacketPool::new();
    let mut b = mk().with_ttl(Nanos::from_millis(5));
    b.reconcile_epoch(Nanos::ZERO, 3);
    b.set_pressure(true);
    misses(&mut b, &mut pool);
    b.set_pressure(false);
    misses(&mut b, &mut pool);
    b.sabotage(Sabotage::no_rerequest());
    let storage = b.storage();
    b.reset_to(mk());
    assert_eq!(b.storage(), storage);
    assert_eq!(
        (b.occupancy(), b.entry_count(), b.next_timeout()),
        (0, 0, None)
    );
    let mut fresh = mk();
    assert_eq!(misses(&mut b, &mut pool), misses(&mut fresh, &mut pool));
    assert_eq!(b.stats(), fresh.stats());
    let due = Nanos::from_millis(60);
    assert_eq!(b.next_timeout(), fresh.next_timeout());
    let ids = |sweep: TimeoutSweep| {
        let ids: Vec<BufferId> = sweep.rerequests.iter().map(|r| r.buffer_id).collect();
        format!("{ids:?}")
    };
    assert_eq!(
        ids(b.poll_timeouts(due, &pool)),
        ids(fresh.poll_timeouts(due, &pool)),
        "the sabotage and the TTL are the fresh buffer's"
    );
}

#[test]
fn distinct_flows_get_distinct_ids() {
    let mut b = mk();
    let mut pool = PacketPool::new();
    let mut ids = Vec::new();
    for port in 0..50u16 {
        match b.on_miss(Nanos::ZERO, pool.insert(pkt(port, 100)), PortNo(1), &pool) {
            MissAction::SendBufferedPacketIn { buffer_id } => ids.push(buffer_id),
            other => panic!("{other:?}"),
        }
    }
    let mut sorted: Vec<u32> = ids.iter().map(|i| i.as_u32()).collect();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), 50);
    assert_eq!(b.entry_count(), 50);
}

#[test]
fn buffer_id_is_deterministic_function_of_tuple() {
    let mut a = mk();
    let mut b = mk();
    let mut pool = PacketPool::new();
    let ida = a.on_miss(Nanos::ZERO, pool.insert(pkt(7, 100)), PortNo(1), &pool);
    let idb = b.on_miss(
        Nanos::from_secs(9),
        pool.insert(pkt(7, 1400)),
        PortNo(3),
        &pool,
    );
    // Same 5-tuple => same id, regardless of time, size or port.
    assert_eq!(
        match ida {
            MissAction::SendBufferedPacketIn { buffer_id } => buffer_id,
            _ => panic!(),
        },
        match idb {
            MissAction::SendBufferedPacketIn { buffer_id } => buffer_id,
            _ => panic!(),
        }
    );
}

#[test]
fn release_drains_whole_flow_fifo() {
    let mut b = mk();
    let mut pool = PacketPool::new();
    let id = match b.on_miss(Nanos::ZERO, pool.insert(pkt(1, 100)), PortNo(1), &pool) {
        MissAction::SendBufferedPacketIn { buffer_id } => buffer_id,
        _ => panic!(),
    };
    for i in 1..5u64 {
        b.on_miss(
            Nanos::from_micros(i),
            pool.insert(pkt(1, 100 + i as usize)),
            PortNo(1),
            &pool,
        );
    }
    let out = b.release(Nanos::from_millis(1), id);
    assert_eq!(out.len(), 5);
    // FIFO: arrival order preserved.
    let times: Vec<Nanos> = out.iter().map(|p| p.buffered_at).collect();
    let mut sorted = times.clone();
    sorted.sort();
    assert_eq!(times, sorted);
    assert_eq!(b.occupancy(), 0);
    assert_eq!(b.entry_count(), 0);
    assert_eq!(b.stats().released, 5);
}

#[test]
fn release_only_affects_its_flow() {
    let mut b = mk();
    let mut pool = PacketPool::new();
    let id1 = match b.on_miss(Nanos::ZERO, pool.insert(pkt(1, 100)), PortNo(1), &pool) {
        MissAction::SendBufferedPacketIn { buffer_id } => buffer_id,
        _ => panic!(),
    };
    b.on_miss(Nanos::ZERO, pool.insert(pkt(2, 100)), PortNo(1), &pool);
    b.on_miss(Nanos::ZERO, pool.insert(pkt(1, 100)), PortNo(1), &pool);
    assert_eq!(b.release(Nanos::ZERO, id1).len(), 2);
    assert_eq!(b.occupancy(), 1); // flow 2 untouched
    assert_eq!(b.entry_count(), 1);
}

#[test]
fn unknown_id_release_is_noop() {
    let mut b = mk();
    let mut pool = PacketPool::new();
    b.on_miss(Nanos::ZERO, pool.insert(pkt(1, 100)), PortNo(1), &pool);
    assert_eq!(
        b.release_into(Nanos::ZERO, BufferId::new(42), &mut Vec::new()),
        Err(Refusal::Unknown)
    );
    assert_eq!(b.occupancy(), 1);
    assert_eq!(b.stats().invalid_releases, 1);
}

#[test]
fn stale_generation_release_is_rejected() {
    let mut b = mk();
    let mut pool = PacketPool::new();
    let stale = match b.on_miss(Nanos::ZERO, pool.insert(pkt(1, 100)), PortNo(1), &pool) {
        MissAction::SendBufferedPacketIn { buffer_id } => buffer_id,
        _ => panic!(),
    };
    // Drain the flow, then re-announce the same 5-tuple: the raw wire
    // id recurs but carries a fresh generation.
    assert_eq!(b.release(Nanos::from_micros(1), stale).len(), 1);
    let fresh = match b.on_miss(
        Nanos::from_micros(2),
        pool.insert(pkt(1, 100)),
        PortNo(1),
        &pool,
    ) {
        MissAction::SendBufferedPacketIn { buffer_id } => buffer_id,
        _ => panic!(),
    };
    assert_eq!(fresh.as_u32(), stale.as_u32(), "same tuple, same wire id");
    assert_ne!(fresh.generation(), stale.generation());
    // A duplicated/stale packet_out carrying the old generation must
    // not drain the recycled slot.
    let mut out = Vec::new();
    assert_eq!(
        b.release_into(Nanos::from_micros(3), stale, &mut out),
        Err(Refusal::StaleGeneration)
    );
    assert!(out.is_empty());
    assert_eq!(b.stats().invalid_releases, 1);
    assert_eq!(b.stats().stale_releases, 1);
    assert_eq!(b.occupancy(), 1, "the new occupant survives");
    // The current-generation (or untagged) release still drains.
    assert_eq!(b.release(Nanos::from_micros(4), fresh).len(), 1);
}

#[test]
fn untagged_release_keeps_wire_semantics() {
    let mut b = mk();
    let mut pool = PacketPool::new();
    let id = match b.on_miss(Nanos::ZERO, pool.insert(pkt(1, 100)), PortNo(1), &pool) {
        MissAction::SendBufferedPacketIn { buffer_id } => buffer_id,
        _ => panic!(),
    };
    // A hand-crafted packet_out carrying only the raw wire id (no
    // generation) drains the flow, per the OpenFlow spec.
    let raw = BufferId::new(id.as_u32());
    assert_eq!(raw.generation(), 0);
    assert_eq!(b.release(Nanos::from_micros(1), raw).len(), 1);
    assert_eq!(b.stats().stale_releases, 0);
}

#[test]
fn timeout_rerequests_on_subsequent_packet() {
    let mut b = flow_buffer(16, Nanos::from_millis(10));
    let mut pool = PacketPool::new();
    b.on_miss(Nanos::ZERO, pool.insert(pkt(1, 100)), PortNo(1), &pool);
    // Within the timeout: silent.
    assert!(matches!(
        b.on_miss(
            Nanos::from_millis(5),
            pool.insert(pkt(1, 100)),
            PortNo(1),
            &pool
        ),
        MissAction::Buffered { .. }
    ));
    // Past the timeout: Algorithm 1 line 13 sends another packet_in.
    assert!(matches!(
        b.on_miss(
            Nanos::from_millis(10),
            pool.insert(pkt(1, 100)),
            PortNo(1),
            &pool
        ),
        MissAction::SendBufferedPacketIn { .. }
    ));
    assert_eq!(b.stats().rerequests, 1);
    // Timer was reset: the next packet is silent again.
    assert!(matches!(
        b.on_miss(
            Nanos::from_millis(15),
            pool.insert(pkt(1, 100)),
            PortNo(1),
            &pool
        ),
        MissAction::Buffered { .. }
    ));
}

#[test]
fn proactive_timeout_polling() {
    let mut b = flow_buffer(16, Nanos::from_millis(10));
    let mut pool = PacketPool::new();
    b.on_miss(Nanos::ZERO, pool.insert(pkt(1, 100)), PortNo(4), &pool);
    b.on_miss(
        Nanos::from_millis(2),
        pool.insert(pkt(2, 100)),
        PortNo(4),
        &pool,
    );
    assert_eq!(b.next_timeout(), Some(Nanos::from_millis(10)));
    assert!(b.poll_timeouts(Nanos::from_millis(9), &pool).is_empty());
    let due = b.poll_timeouts(Nanos::from_millis(10), &pool).rerequests;
    assert_eq!(due.len(), 1);
    assert_eq!(due[0].in_port, PortNo(4));
    // Timer reset: next deadline is flow 2's, then flow 1's new one.
    assert_eq!(b.next_timeout(), Some(Nanos::from_millis(12)));
    let due = b.poll_timeouts(Nanos::from_millis(30), &pool).rerequests;
    assert_eq!(due.len(), 2);
    assert_eq!(b.stats().rerequests, 3);
}

#[test]
fn backoff_policy_stretches_the_schedule() {
    let mut b = flow_buffer(16, Nanos::from_millis(10))
        .with_retry_policy(RetryPolicy::backoff(Nanos::from_millis(40), 0));
    let mut pool = PacketPool::new();
    b.on_miss(Nanos::ZERO, pool.insert(pkt(1, 100)), PortNo(1), &pool);
    // First deadline: the base timeout.
    assert_eq!(b.next_timeout(), Some(Nanos::from_millis(10)));
    assert_eq!(
        b.poll_timeouts(Nanos::from_millis(10), &pool)
            .rerequests
            .len(),
        1
    );
    // Second interval doubles: 20 ms after the re-request.
    assert_eq!(b.next_timeout(), Some(Nanos::from_millis(30)));
    assert_eq!(
        b.poll_timeouts(Nanos::from_millis(30), &pool)
            .rerequests
            .len(),
        1
    );
    // Third doubles again (40 ms, at the cap).
    assert_eq!(b.next_timeout(), Some(Nanos::from_millis(70)));
    assert_eq!(
        b.poll_timeouts(Nanos::from_millis(70), &pool)
            .rerequests
            .len(),
        1
    );
    // Capped thereafter.
    assert_eq!(b.next_timeout(), Some(Nanos::from_millis(110)));
}

#[test]
fn budget_exhaustion_gives_up_and_drains() {
    let mut b = flow_buffer(16, Nanos::from_millis(10)).with_retry_policy(
        // Capped at the base timeout: the fixed interval, budgeted.
        RetryPolicy::backoff(Nanos::from_millis(10), 2),
    );
    let mut pool = PacketPool::new();
    b.on_miss(Nanos::ZERO, pool.insert(pkt(1, 100)), PortNo(1), &pool);
    b.on_miss(
        Nanos::from_micros(1),
        pool.insert(pkt(1, 100)),
        PortNo(1),
        &pool,
    );
    assert_eq!(
        b.poll_timeouts(Nanos::from_millis(10), &pool)
            .rerequests
            .len(),
        1
    );
    assert_eq!(
        b.poll_timeouts(Nanos::from_millis(20), &pool)
            .rerequests
            .len(),
        1
    );
    // Budget (2) spent: the third deadline gives the flow up.
    let sweep = b.poll_timeouts(Nanos::from_millis(30), &pool);
    assert!(sweep.rerequests.is_empty());
    assert_eq!(sweep.gave_up.len(), 1);
    assert_eq!(sweep.gave_up[0].packets.len(), 2);
    assert_eq!(sweep.gave_up[0].action, GiveUp::DrainAsFullPacketIn);
    assert_eq!(b.occupancy(), 0, "give-up frees the units");
    assert_eq!(b.entry_count(), 0);
    assert_eq!(b.stats().giveups, 1);
    assert_eq!(b.stats().rerequests, 2, "retries stayed within budget");
    assert_eq!(b.next_timeout(), None);
}

#[test]
fn giveup_drop_action_is_reported() {
    let mut b = flow_buffer(16, Nanos::from_millis(10)).with_retry_policy(RetryPolicy::Backoff {
        cap: Nanos::from_millis(10),
        budget: 1,
        give_up: GiveUp::Drop,
    });
    let mut pool = PacketPool::new();
    b.on_miss(Nanos::ZERO, pool.insert(pkt(1, 100)), PortNo(1), &pool);
    assert_eq!(
        b.poll_timeouts(Nanos::from_millis(10), &pool)
            .rerequests
            .len(),
        1
    );
    let sweep = b.poll_timeouts(Nanos::from_millis(20), &pool);
    assert_eq!(sweep.gave_up.len(), 1);
    assert_eq!(sweep.gave_up[0].action, GiveUp::Drop);
}

#[test]
fn ttl_expires_stale_entries_oldest_first() {
    let mut b = flow_buffer(16, Nanos::from_millis(100)).with_ttl(Nanos::from_millis(30));
    let mut pool = PacketPool::new();
    b.on_miss(Nanos::ZERO, pool.insert(pkt(1, 100)), PortNo(1), &pool);
    b.on_miss(
        Nanos::from_millis(10),
        pool.insert(pkt(1, 200)),
        PortNo(1),
        &pool,
    );
    b.on_miss(
        Nanos::from_millis(20),
        pool.insert(pkt(2, 300)),
        PortNo(1),
        &pool,
    );
    // The TTL deadline beats the (100 ms) re-request deadline.
    assert_eq!(b.next_timeout(), Some(Nanos::from_millis(30)));
    let sweep = b.poll_timeouts(Nanos::from_millis(35), &pool);
    assert_eq!(sweep.expired.len(), 1, "only flow 1's first packet is due");
    assert_eq!(pool.get(sweep.expired[0].packet).unwrap().wire_len(), 100);
    assert_eq!(b.occupancy(), 2);
    assert_eq!(b.stats().expired, 1);
    assert_eq!(b.stats().expired_bytes, 100);
    // Flow 1's queue survives with its second packet; expiry re-arms.
    assert_eq!(b.entry_count(), 2);
    let sweep = b.poll_timeouts(Nanos::from_millis(55), &pool);
    assert_eq!(sweep.expired.len(), 2, "both remaining entries age out");
    assert_eq!(b.occupancy(), 0);
    assert_eq!(b.entry_count(), 0, "emptied flows are removed entirely");
    assert_eq!(b.next_timeout(), None);
}

#[test]
fn disabled_ttl_gc_leaks_entries() {
    let mut b = flow_buffer(16, Nanos::from_millis(100)).with_ttl(Nanos::from_millis(10));
    let mut pool = PacketPool::new();
    b.sabotage(Sabotage::no_ttl_gc());
    b.on_miss(Nanos::ZERO, pool.insert(pkt(1, 100)), PortNo(1), &pool);
    let sweep = b.poll_timeouts(Nanos::from_millis(50), &pool);
    assert!(sweep.expired.is_empty(), "sabotaged GC must not collect");
    assert_eq!(b.occupancy(), 1);
    b.sabotage(Sabotage::none());
    assert_eq!(
        b.poll_timeouts(Nanos::from_millis(50), &pool).expired.len(),
        1
    );
}

#[test]
fn exhaustion_falls_back() {
    let mut b = flow_buffer(3, Nanos::from_millis(50));
    let mut pool = PacketPool::new();
    b.on_miss(Nanos::ZERO, pool.insert(pkt(1, 100)), PortNo(1), &pool);
    b.on_miss(Nanos::ZERO, pool.insert(pkt(1, 100)), PortNo(1), &pool);
    b.on_miss(Nanos::ZERO, pool.insert(pkt(2, 100)), PortNo(1), &pool);
    assert_eq!(
        b.on_miss(Nanos::ZERO, pool.insert(pkt(3, 100)), PortNo(1), &pool),
        MissAction::SendFullPacketIn
    );
    assert_eq!(b.stats().fallback_full, 1);
    assert_eq!(b.occupancy(), 3);
}

#[test]
fn non_ip_traffic_falls_back() {
    let mut b = mk();
    let mut pool = PacketPool::new();
    let arp =
        PacketBuilder::gratuitous_arp(MacAddr::from_host_index(1), Ipv4Addr::new(10, 0, 0, 1));
    assert_eq!(
        b.on_miss(Nanos::ZERO, pool.insert(arp), PortNo(1), &pool),
        MissAction::SendFullPacketIn
    );
    assert_eq!(b.occupancy(), 0);
}

#[test]
fn no_pending_requests_no_timeout() {
    let mut b = mk();
    let mut pool = PacketPool::new();
    assert_eq!(b.next_timeout(), None);
    let id = match b.on_miss(Nanos::ZERO, pool.insert(pkt(1, 100)), PortNo(1), &pool) {
        MissAction::SendBufferedPacketIn { buffer_id } => buffer_id,
        _ => panic!(),
    };
    b.release(Nanos::from_millis(1), id);
    assert_eq!(b.next_timeout(), None);
}

#[test]
fn name_and_accessors() {
    let b = flow_buffer(8, Nanos::from_millis(20));
    assert_eq!(b.name(), "flow-granularity");
    assert_eq!(b.capacity(), 8);
    assert_eq!(
        b.retry_schedule(),
        Some((Nanos::from_millis(20), RetryPolicy::Fixed))
    );
    assert_eq!(
        Buffer::per_packet(8, Nanos::ZERO).name(),
        "packet-granularity"
    );
}

#[test]
fn pressure_forces_full_packet_ins_without_touching_buffered() {
    let mut b = mk();
    let mut pool = PacketPool::new();
    let id = match b.on_miss(Nanos::ZERO, pool.insert(pkt(1, 100)), PortNo(1), &pool) {
        MissAction::SendBufferedPacketIn { buffer_id } => buffer_id,
        _ => panic!(),
    };
    b.set_pressure(true);
    assert_eq!(
        b.on_miss(
            Nanos::from_micros(1),
            pool.insert(pkt(1, 100)),
            PortNo(1),
            &pool
        ),
        MissAction::SendFullPacketIn
    );
    assert_eq!(b.stats().fallback_full, 1);
    assert_eq!(b.occupancy(), 1, "already-buffered packets stay");
    b.set_pressure(false);
    assert!(matches!(
        b.on_miss(
            Nanos::from_micros(2),
            pool.insert(pkt(1, 100)),
            PortNo(1),
            &pool
        ),
        MissAction::Buffered { .. }
    ));
    assert_eq!(b.release(Nanos::from_micros(3), id).len(), 2);
}

#[test]
fn disabled_rerequest_silences_algorithm_1_lines_12_13() {
    let mut b = flow_buffer(16, Nanos::from_millis(10));
    let mut pool = PacketPool::new();
    b.sabotage(Sabotage::no_rerequest());
    b.on_miss(Nanos::ZERO, pool.insert(pkt(1, 100)), PortNo(1), &pool);
    // Far past the timeout: a healthy mechanism would re-request here.
    assert!(matches!(
        b.on_miss(
            Nanos::from_millis(100),
            pool.insert(pkt(1, 100)),
            PortNo(1),
            &pool
        ),
        MissAction::Buffered { .. }
    ));
    assert_eq!(b.next_timeout(), None);
    assert!(b.poll_timeouts(Nanos::from_secs(1), &pool).is_empty());
    assert_eq!(b.stats().rerequests, 0);
    // Re-enabling restores the guard.
    b.sabotage(Sabotage::none());
    assert_eq!(
        b.poll_timeouts(Nanos::from_secs(1), &pool).rerequests.len(),
        1
    );
}

/// Satellite regression: the generation tag survives an 8-bit
/// wraparound. 256 reuses of one slot (the same 5-tuple announced,
/// drained and re-announced) must still reject the original stale id
/// — the wrap contract documented in `buffer_id.rs` (a wrapping `u32`
/// that skips 0, advanced per allocation) never lets two live
/// occupants of a slot share a generation within 2³²−1 allocations.
#[test]
fn generation_survives_eight_bit_wraparound() {
    let mut b = mk();
    let mut pool = PacketPool::new();
    let first = match b.on_miss(Nanos::ZERO, pool.insert(pkt(1, 100)), PortNo(1), &pool) {
        MissAction::SendBufferedPacketIn { buffer_id } => buffer_id,
        other => panic!("{other:?}"),
    };
    let mut last = first;
    for reuse in 1..=256u64 {
        assert_eq!(
            b.release(Nanos::from_micros(2 * reuse), last).len(),
            1,
            "reuse {reuse}: current id must drain"
        );
        last = match b.on_miss(
            Nanos::from_micros(2 * reuse + 1),
            pool.insert(pkt(1, 100)),
            PortNo(1),
            &pool,
        ) {
            MissAction::SendBufferedPacketIn { buffer_id } => buffer_id,
            other => panic!("{other:?}"),
        };
        assert_eq!(last.as_u32(), first.as_u32(), "same tuple, same slot");
    }
    // 256 reuses past the original: an 8-bit generation would have
    // wrapped back to `first`'s tag by now. The u32 counter has not.
    assert_eq!(last.generation(), first.generation() + 256);
    assert_ne!(last.generation() as u8, 0, "counter skips the untagged 0");
    assert!(
        b.release(Nanos::from_secs(1), first).is_empty(),
        "stale release must still be rejected after 256 slot reuses"
    );
    assert_eq!(b.stats().stale_releases, 1);
    assert_eq!(b.occupancy(), 1, "occupant 257 survives");
    assert_eq!(b.release(Nanos::from_secs(2), last).len(), 1);
}

#[test]
fn stale_epoch_release_is_rejected_only_while_armed() {
    let mut b = mk();
    let mut pool = PacketPool::new();
    assert!(b.reconcile_epoch(Nanos::ZERO, 1).is_empty(), "arming");
    let old = match b.on_miss(Nanos::ZERO, pool.insert(pkt(1, 100)), PortNo(1), &pool) {
        MissAction::SendBufferedPacketIn { buffer_id } => buffer_id,
        _ => panic!(),
    };
    assert_eq!(old.epoch(), 1);
    // The controller restarts: surviving flows migrate to epoch 2.
    let survivors = b.reconcile_epoch(Nanos::from_millis(1), 2);
    assert_eq!(survivors.len(), 1);
    assert_eq!(survivors[0].as_u32(), old.as_u32());
    assert_eq!(survivors[0].epoch(), 2);
    // A packet_out minted under the dead epoch must not drain.
    let mut out = Vec::new();
    assert_eq!(
        b.release_into(Nanos::from_millis(2), old, &mut out),
        Err(Refusal::StaleEpoch)
    );
    assert!(out.is_empty());
    assert_eq!(b.stats().stale_epoch_releases, 1);
    assert_eq!(b.stats().invalid_releases, 1);
    assert_eq!(b.occupancy(), 1);
    // Untagged (wire) and current-epoch releases still drain.
    assert_eq!(
        b.release_into(Nanos::from_millis(3), survivors[0], &mut out),
        Ok(1)
    );
    assert_eq!(b.stats().stale_epoch_releases, 1);
}

#[test]
fn reconcile_resets_retry_budgets_and_lists_survivors_in_id_order() {
    let mut b = flow_buffer(16, Nanos::from_millis(10)).with_retry_policy(
        // Capped at the base timeout: the fixed interval, budgeted.
        RetryPolicy::backoff(Nanos::from_millis(10), 2),
    );
    let mut pool = PacketPool::new();
    assert!(b.reconcile_epoch(Nanos::ZERO, 1).is_empty(), "arming");
    b.on_miss(Nanos::ZERO, pool.insert(pkt(1, 100)), PortNo(1), &pool);
    b.on_miss(Nanos::ZERO, pool.insert(pkt(2, 100)), PortNo(1), &pool);
    // Spend both flows' whole retry budget.
    assert_eq!(
        b.poll_timeouts(Nanos::from_millis(10), &pool)
            .rerequests
            .len(),
        2
    );
    assert_eq!(
        b.poll_timeouts(Nanos::from_millis(20), &pool)
            .rerequests
            .len(),
        2
    );
    let survivors = b.reconcile_epoch(Nanos::from_millis(25), 2);
    assert_eq!(survivors.len(), 2);
    assert!(
        survivors.windows(2).all(|w| w[0].as_u32() < w[1].as_u32()),
        "survivors must come out in ascending raw-id order"
    );
    // The fresh controller has never ignored them: budgets are reset,
    // so the next deadline re-requests instead of giving up.
    let sweep = b.poll_timeouts(Nanos::from_millis(35), &pool);
    assert_eq!(sweep.rerequests.len(), 2);
    assert!(sweep.gave_up.is_empty());
    assert!(sweep.rerequests.iter().all(|r| r.buffer_id.epoch() == 2));
}

#[test]
fn rerequest_for_peeks_without_draining() {
    let mut b = mk();
    let mut pool = PacketPool::new();
    assert!(b.reconcile_epoch(Nanos::ZERO, 1).is_empty(), "arming");
    let id = match b.on_miss(Nanos::ZERO, pool.insert(pkt(1, 100)), PortNo(7), &pool) {
        MissAction::SendBufferedPacketIn { buffer_id } => buffer_id,
        _ => panic!(),
    };
    let r = b.rerequest_for(id).expect("flow is live");
    assert_eq!(r.buffer_id, id);
    assert_eq!(r.in_port, PortNo(7));
    assert_eq!(b.occupancy(), 1, "a peek drains nothing");
    b.release(Nanos::from_millis(1), id);
    assert!(b.rerequest_for(id).is_none(), "drained flows peek to None");
}

#[test]
fn disabled_epoch_guard_keeps_dead_epoch_ids_alive() {
    let mut b = mk();
    let mut pool = PacketPool::new();
    b.sabotage(Sabotage::no_epoch_guard());
    assert!(b.reconcile_epoch(Nanos::ZERO, 1).is_empty(), "arming");
    let old = match b.on_miss(Nanos::ZERO, pool.insert(pkt(1, 100)), PortNo(1), &pool) {
        MissAction::SendBufferedPacketIn { buffer_id } => buffer_id,
        _ => panic!(),
    };
    assert!(
        b.reconcile_epoch(Nanos::from_millis(1), 2).is_empty(),
        "sabotaged reconcile migrates nothing"
    );
    // The dead-epoch id still drains — exactly the cross-epoch drain
    // the chaos invariant must catch.
    assert_eq!(b.release(Nanos::from_millis(2), old).len(), 1);
    assert_eq!(b.stats().stale_epoch_releases, 0);
}

fn announced(action: MissAction) -> BufferId {
    match action {
        MissAction::SendBufferedPacketIn { buffer_id } => buffer_id,
        other => panic!("{other:?}"),
    }
}

#[test]
fn interleaved_flows_drain_fifo_and_reuse_units() {
    let mut b = mk();
    let mut pool = PacketPool::new();
    let mut out = Vec::new();
    let (mut t, mut most) = (0u64, 0);
    for cycle in 0..1_000u64 {
        // Three flows, their misses interleaved: 1 2 3 1 2 3 …, and a
        // different packet count per flow each cycle.
        let mut ids = [None; 3];
        let mut sent: [Vec<PacketHandle>; 3] = Default::default();
        for round in 0..5u64 {
            for (f, (id, sent)) in ids.iter_mut().zip(&mut sent).enumerate() {
                if round > (cycle + f as u64) % 5 {
                    continue;
                }
                t += 1;
                let h = pool.insert(pkt(f as u16, 100));
                let action = b.on_miss(Nanos::from_micros(t), h, PortNo(1), &pool);
                id.get_or_insert_with(|| announced(action));
                sent.push(h);
            }
        }
        let peak = sent.iter().map(Vec::len).sum::<usize>();
        assert_eq!(b.occupancy(), peak);
        most = most.max(peak);
        // Drain in a rotating order, so freed units interleave too.
        for f in (0..3).map(|k| (k + cycle as usize) % 3) {
            out.clear();
            let id = ids[f].expect("every flow missed at least once");
            assert_eq!(
                b.release_into(Nanos::from_micros(t), id, &mut out),
                Ok(sent[f].len())
            );
            let got: Vec<PacketHandle> = out.iter().map(|p| p.packet).collect();
            assert_eq!(got, sent[f], "cycle {cycle}: flow {f} drains FIFO");
            assert!(out.iter().all(|p| p.buffer_id == id));
        }
        assert_eq!(b.occupancy(), 0);
        // Freed units are reused: the slab holds the busiest cycle's
        // units so far, and no more.
        assert_eq!(b.unit_slots(), most, "cycle {cycle}");
    }
    assert_eq!(most, 12);
    assert_eq!(b.stats().released, b.stats().buffered);
}

#[test]
fn ttl_expiry_of_the_head_then_release_of_the_rest() {
    let mut b = flow_buffer(16, Nanos::from_millis(100)).with_ttl(Nanos::from_millis(30));
    let mut pool = PacketPool::new();
    let first = pool.insert(pkt(1, 100));
    let id = announced(b.on_miss(Nanos::ZERO, first, PortNo(1), &pool));
    let rest: Vec<PacketHandle> = (1..4u64)
        .map(|ms| {
            let h = pool.insert(pkt(1, 200));
            b.on_miss(Nanos::from_millis(ms * 10), h, PortNo(1), &pool);
            h
        })
        .collect();
    let sweep = b.poll_timeouts(Nanos::from_millis(30), &pool);
    assert_eq!(sweep.expired.len(), 1);
    assert_eq!(sweep.expired[0].packet, first);
    assert_eq!(b.occupancy(), 3);
    // The next deadline is the new head's.
    assert_eq!(b.next_timeout(), Some(Nanos::from_millis(40)));
    assert_eq!(b.rerequest_for(id).map(|r| r.packet), Some(rest[0]));
    // A miss after the expiry queues behind the survivors, in the unit
    // the expired head freed.
    let late = pool.insert(pkt(1, 300));
    b.on_miss(Nanos::from_millis(35), late, PortNo(1), &pool);
    assert_eq!(b.unit_slots(), 4);
    let out = b.release(Nanos::from_millis(36), id);
    let got: Vec<PacketHandle> = out.iter().map(|p| p.packet).collect();
    assert_eq!(got, [rest[0], rest[1], rest[2], late]);
    assert_eq!(b.occupancy(), 0);
    assert_eq!(b.next_timeout(), None);
}

#[test]
fn give_up_drains_in_arrival_order() {
    let mut b = flow_buffer(16, Nanos::from_millis(10)).with_retry_policy(RetryPolicy::Backoff {
        cap: Nanos::from_millis(10),
        budget: 1,
        give_up: GiveUp::DrainAsFullPacketIn,
    });
    let mut pool = PacketPool::new();
    // Two flows interleaved, so each one's units are not adjacent.
    let mut sent: [Vec<PacketHandle>; 2] = Default::default();
    for i in 0..6u64 {
        let flow = (i % 2) as usize;
        let h = pool.insert(pkt(flow as u16, 100 + i as usize));
        b.on_miss(Nanos::from_micros(i), h, PortNo(1), &pool);
        sent[flow].push(h);
    }
    let sweep = b.poll_timeouts(Nanos::from_millis(20), &pool);
    assert_eq!(sweep.rerequests.len(), 2);
    let sweep = b.poll_timeouts(Nanos::from_millis(40), &pool);
    assert!(sweep.rerequests.is_empty());
    assert_eq!(sweep.gave_up.len(), 2);
    let mut got: Vec<Vec<PacketHandle>> = sweep
        .gave_up
        .iter()
        .map(|g| {
            assert!(g.packets.iter().all(|p| p.buffer_id == g.buffer_id));
            g.packets.iter().map(|p| p.packet).collect()
        })
        .collect();
    got.sort_by_key(|handles| sent.iter().position(|s| s[0] == handles[0]));
    assert_eq!(got, sent);
    assert_eq!(b.occupancy(), 0);
}

#[test]
fn reconcile_restamps_every_queued_packet() {
    let mut b = mk();
    let mut pool = PacketPool::new();
    assert!(b.reconcile_epoch(Nanos::ZERO, 1).is_empty(), "arming");
    for i in 0..4u64 {
        b.on_miss(
            Nanos::from_micros(i),
            pool.insert(pkt(1, 100)),
            PortNo(1),
            &pool,
        );
    }
    let survivors = b.reconcile_epoch(Nanos::from_millis(1), 2);
    assert_eq!(survivors.len(), 1);
    assert_eq!(survivors[0].epoch(), 2);
    let out = b.release(Nanos::from_millis(2), survivors[0]);
    assert_eq!(out.len(), 4);
    // `==` ignores the epoch: compare it on its own.
    assert!(
        out.iter()
            .all(|p| p.buffer_id == survivors[0] && p.buffer_id.epoch() == 2),
        "every queued packet moves to the new epoch, not only the head: {out:?}"
    );
}

#[test]
#[should_panic(expected = "positive")]
fn zero_capacity_panics() {
    let _ = flow_buffer(0, Nanos::from_millis(1));
}

#[test]
#[should_panic(expected = "timeout")]
fn zero_timeout_panics() {
    let _ = flow_buffer(1, Nanos::ZERO);
}

#[test]
fn superseded_deadlines_do_not_accumulate() {
    let mut b = mk();
    let mut pool = PacketPool::new();
    b.on_miss(Nanos::ZERO, pool.insert(pkt(1, 100)), PortNo(1), &pool);
    // Each reconcile re-arms the one flow and leaves its old entry.
    for epoch in 1..1_000u32 {
        b.reconcile_epoch(Nanos::from_micros(epoch.into()), epoch);
        assert!(b.request_heap_len() <= 3 + 8);
    }
    assert_eq!(
        b.next_timeout(),
        Some(Nanos::from_micros(999) + Nanos::from_millis(50))
    );
}
