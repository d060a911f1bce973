//! Property-based tests for the buffer, per packet and per flow: packets are never lost
//! or duplicated, occupancy stays bounded, and FIFO order holds per flow.

use proptest::prelude::*;
use sdnbuf_net::{FlowKey, PacketBuilder};
use sdnbuf_openflow::{BufferId, PortNo};
use sdnbuf_sim::Nanos;
use sdnbuf_switchbuf::{Buffer, BufferMechanism, MissAction, PacketPool, RetryPolicy, Sabotage};
use std::collections::HashMap;

#[derive(Clone, Debug)]
enum Op {
    /// A miss-match packet of flow `flow` arrives.
    Miss { flow: u16 },
    /// A `packet_out` for the `n`-th outstanding buffer id arrives.
    Release { nth: usize },
    /// Idle time passes.
    Tick,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (0u16..8).prop_map(|flow| Op::Miss { flow }),
            2 => (0usize..8).prop_map(|nth| Op::Release { nth }),
            1 => Just(Op::Tick),
        ],
        1..150,
    )
}

/// Operations with explicit clock control, for the Algorithm 1 timing
/// properties: misses, arbitrary time advances (10 µs – 120 ms, spanning
/// both sides of every sampled timeout), timeout polls, and releases. A
/// lost control message needs no operation of its own — to the mechanism
/// it is indistinguishable from a release that never arrives.
#[derive(Clone, Debug)]
enum TimedOp {
    Miss { flow: u16 },
    Advance { micros: u64 },
    Poll,
    Release { nth: usize },
}

fn arb_timed_ops() -> impl Strategy<Value = Vec<TimedOp>> {
    proptest::collection::vec(
        prop_oneof![
            4 => (0u16..6).prop_map(|flow| TimedOp::Miss { flow }),
            3 => (10u64..120_000).prop_map(|micros| TimedOp::Advance { micros }),
            2 => Just(TimedOp::Poll),
            1 => (0usize..6).prop_map(|nth| TimedOp::Release { nth }),
        ],
        1..120,
    )
}

/// Drives a mechanism through an operation sequence while checking the
/// conservation invariants; returns (buffered, released, fallback).
fn drive(mech: &mut dyn BufferMechanism, ops: &[Op]) -> (u64, u64, u64) {
    let mut now = Nanos::ZERO;
    let mut pool = PacketPool::new();
    let mut outstanding: Vec<BufferId> = Vec::new();
    let mut in_buffer: u64 = 0;
    for op in ops {
        now += Nanos::from_micros(100);
        match op {
            Op::Miss { flow } => {
                let pkt = pool.insert(PacketBuilder::udp().src_port(*flow).build());
                match mech.on_miss(now, pkt, PortNo(1), &pool) {
                    MissAction::SendBufferedPacketIn { buffer_id } => {
                        if !outstanding.contains(&buffer_id) {
                            outstanding.push(buffer_id);
                        }
                        in_buffer += 1;
                    }
                    MissAction::Buffered { buffer_id } => {
                        assert!(
                            outstanding.contains(&buffer_id),
                            "silent buffering must reuse an announced id"
                        );
                        in_buffer += 1;
                    }
                    MissAction::SendFullPacketIn => {
                        // The caller keeps ownership on a fallback.
                        assert!(pool.release(pkt).is_some());
                    }
                }
            }
            Op::Release { nth } => {
                if !outstanding.is_empty() {
                    let id = outstanding.remove(nth % outstanding.len());
                    let released = mech.release(now, id);
                    in_buffer -= released.len() as u64;
                    for p in released {
                        assert_eq!(p.buffer_id, id, "released packet filed under wrong id");
                        assert!(
                            pool.release(p.packet).is_some(),
                            "released packet's pool reference must be live"
                        );
                    }
                }
            }
            Op::Tick => {
                now += Nanos::from_millis(20);
                let sweep = mech.poll_timeouts(now, &pool);
                for bp in sweep.expired {
                    assert!(pool.release(bp.packet).is_some());
                    in_buffer -= 1;
                }
                for flow in sweep.gave_up {
                    for bp in flow.packets {
                        assert!(pool.release(bp.packet).is_some());
                        in_buffer -= 1;
                    }
                }
            }
        }
        assert!(
            mech.occupancy() <= mech.capacity(),
            "occupancy exceeded capacity"
        );
        assert_eq!(
            mech.occupancy() as u64,
            in_buffer,
            "mechanism occupancy disagrees with external count"
        );
        assert_eq!(
            pool.len(),
            mech.occupancy(),
            "pool live count disagrees with buffer occupancy"
        );
    }
    let s = mech.stats();
    (s.buffered, s.released, s.fallback_full)
}

proptest! {
    #[test]
    fn packet_granularity_conserves_packets(ops in arb_ops(), cap in 1usize..32) {
        let mut mech = Buffer::per_packet(cap, Nanos::ZERO);
        let (buffered, released, _) = drive(&mut mech, &ops);
        // Everything buffered is either released or still resident.
        prop_assert_eq!(buffered, released + mech.occupancy() as u64);
    }

    #[test]
    fn flow_granularity_conserves_packets(ops in arb_ops(), cap in 1usize..32) {
        let mut mech = Buffer::per_flow(cap, Nanos::from_millis(50));
        let (buffered, released, _) = drive(&mut mech, &ops);
        prop_assert_eq!(buffered, released + mech.occupancy() as u64);
    }

    #[test]
    fn flow_granularity_single_request_per_flow_without_timeouts(
        flows in proptest::collection::vec(0u16..6, 1..60),
    ) {
        // All packets arrive within the timeout window: exactly one
        // packet_in per distinct flow.
        let mut mech = Buffer::per_flow(1024, Nanos::from_secs(10));
        let mut pool = PacketPool::new();
        let mut requests: HashMap<u16, u32> = HashMap::new();
        let mut now = Nanos::ZERO;
        for flow in &flows {
            now += Nanos::from_micros(10);
            let pkt = pool.insert(PacketBuilder::udp().src_port(*flow).build());
            match mech.on_miss(now, pkt, PortNo(1), &pool) {
                MissAction::SendBufferedPacketIn { .. } => {
                    *requests.entry(*flow).or_insert(0) += 1;
                }
                MissAction::Buffered { .. } => {}
                MissAction::SendFullPacketIn => unreachable!("capacity is ample"),
            }
        }
        for (flow, count) in requests {
            prop_assert_eq!(count, 1, "flow {} sent {} requests", flow, count);
        }
    }

    #[test]
    fn flow_granularity_release_preserves_fifo(
        sizes in proptest::collection::vec(64usize..1400, 2..30),
    ) {
        let mut mech = Buffer::per_flow(1024, Nanos::from_secs(10));
        let mut pool = PacketPool::new();
        let mut id = None;
        for (i, size) in sizes.iter().enumerate() {
            let pkt = pool.insert(PacketBuilder::udp().src_port(9).frame_size(*size).build());
            match mech.on_miss(Nanos::from_micros(i as u64), pkt, PortNo(1), &pool) {
                MissAction::SendBufferedPacketIn { buffer_id } => id = Some(buffer_id),
                MissAction::Buffered { .. } => {}
                MissAction::SendFullPacketIn => unreachable!(),
            }
        }
        let released = mech.release(Nanos::from_secs(1), id.unwrap());
        prop_assert_eq!(released.len(), sizes.len());
        for (i, (p, size)) in released.iter().zip(&sizes).enumerate() {
            prop_assert_eq!(p.buffered_at, Nanos::from_micros(i as u64));
            prop_assert_eq!(pool.get(p.packet).unwrap().wire_len(), *size);
        }
        for p in released {
            pool.release(p.packet);
        }
        prop_assert!(pool.is_empty());
    }

    #[test]
    fn packet_granularity_one_packet_per_release(
        flows in proptest::collection::vec(0u16..4, 1..40),
    ) {
        let mut mech = Buffer::per_packet(1024, Nanos::ZERO);
        let mut pool = PacketPool::new();
        let mut ids = Vec::new();
        for (i, flow) in flows.iter().enumerate() {
            let pkt = pool.insert(PacketBuilder::udp().src_port(*flow).build());
            match mech.on_miss(Nanos::from_micros(i as u64), pkt, PortNo(1), &pool) {
                MissAction::SendBufferedPacketIn { buffer_id } => ids.push(buffer_id),
                other => panic!("{other:?}"),
            }
        }
        for id in ids {
            let released = mech.release(Nanos::from_secs(1), id);
            prop_assert_eq!(released.len(), 1);
            pool.release(released[0].packet);
        }
        prop_assert_eq!(mech.occupancy(), 0);
        prop_assert!(pool.is_empty());
    }

    /// Algorithm 1's request discipline under arbitrary interleavings of
    /// misses, clock advances, timeout polls and releases (a lost
    /// `packet_in` or `packet_out` is, from the mechanism's viewpoint,
    /// simply a release that never arrives):
    /// * at most one outstanding request per flow — consecutive requests
    ///   for the same buffer id are separated by at least the timeout;
    /// * a drained queue frees its buffer id — the id disappears from the
    ///   timeout schedule and occupancy accounting immediately.
    #[test]
    fn flow_granularity_request_discipline_under_interleavings(
        ops in arb_timed_ops(),
        timeout_ms in 5u64..80,
    ) {
        let timeout = Nanos::from_millis(timeout_ms);
        let mut mech = Buffer::per_flow(1024, timeout);
        let mut pool = PacketPool::new();
        let mut now = Nanos::ZERO;
        let mut outstanding: Vec<BufferId> = Vec::new();
        let mut last_request: HashMap<u32, Nanos> = HashMap::new();
        for op in &ops {
            now += Nanos::from_micros(10);
            match op {
                TimedOp::Miss { flow } => {
                    let pkt = pool.insert(PacketBuilder::udp().src_port(*flow).build());
                    match mech.on_miss(now, pkt, PortNo(1), &pool) {
                        MissAction::SendBufferedPacketIn { buffer_id } => {
                            // Fresh announcement or an on-miss re-request:
                            // either way, any previous request for the id
                            // must be at least one timeout old.
                            if let Some(prev) = last_request.insert(buffer_id.as_u32(), now) {
                                prop_assert!(
                                    now >= prev + timeout,
                                    "request for {buffer_id:?} after {:?} < timeout {timeout:?}",
                                    now - prev
                                );
                            }
                            if !outstanding.contains(&buffer_id) {
                                outstanding.push(buffer_id);
                            }
                        }
                        MissAction::Buffered { .. } => {}
                        MissAction::SendFullPacketIn => {
                            pool.release(pkt);
                        }
                    }
                }
                TimedOp::Advance { micros } => now += Nanos::from_micros(*micros),
                TimedOp::Poll => {
                    for rr in mech.poll_timeouts(now, &pool).rerequests {
                        let prev = last_request.insert(rr.buffer_id.as_u32(), now);
                        let prev = prev.expect("re-request for a never-requested id");
                        prop_assert!(
                            now >= prev + timeout,
                            "re-request for {:?} after {:?} < timeout {timeout:?}",
                            rr.buffer_id,
                            now - prev
                        );
                    }
                }
                TimedOp::Release { nth } => {
                    if !outstanding.is_empty() {
                        let before = mech.occupancy();
                        let id = outstanding.remove(nth % outstanding.len());
                        let released = mech.release(now, id);
                        prop_assert!(!released.is_empty(), "known id released nothing");
                        prop_assert_eq!(mech.occupancy(), before - released.len());
                        for p in released {
                            pool.release(p.packet);
                        }
                        // The drained queue frees its id: releasing it again
                        // applies to nothing, and it leaves the timeout
                        // schedule (checked via next_timeout below).
                        prop_assert!(mech.release(now, id).is_empty());
                        last_request.remove(&id.as_u32());
                    }
                }
            }
            // The earliest scheduled deadline is exactly the oldest
            // outstanding request plus the timeout — drained ids are gone
            // from the schedule, live ones never fire early.
            match (mech.next_timeout(), last_request.values().min().copied()) {
                (next, Some(earliest)) => {
                    prop_assert_eq!(next, Some(earliest + timeout));
                }
                (next, None) => prop_assert_eq!(next, None),
            }
        }
    }

    /// With the re-request loop disabled (the chaos harness's intentionally
    /// broken mechanism), the algorithm goes silent: no poll ever returns a
    /// re-request, no deadline is ever scheduled, and an outstanding flow is
    /// never re-announced on later misses.
    #[test]
    fn disabled_rerequest_stays_silent_forever(ops in arb_timed_ops()) {
        let mut mech = Buffer::per_flow(1024, Nanos::from_millis(5));
        mech.sabotage(Sabotage::no_rerequest());
        let mut pool = PacketPool::new();
        let mut now = Nanos::ZERO;
        let mut outstanding: Vec<BufferId> = Vec::new();
        let mut announced: HashMap<u32, u32> = HashMap::new();
        for op in &ops {
            now += Nanos::from_micros(10);
            match op {
                TimedOp::Miss { flow } => {
                    let pkt = pool.insert(PacketBuilder::udp().src_port(*flow).build());
                    match mech.on_miss(now, pkt, PortNo(1), &pool) {
                        MissAction::SendBufferedPacketIn { buffer_id } => {
                            let n = announced.entry(buffer_id.as_u32()).or_insert(0);
                            *n += 1;
                            prop_assert_eq!(
                                *n, 1,
                                "id {:?} announced twice without a release", buffer_id
                            );
                            outstanding.push(buffer_id);
                        }
                        MissAction::Buffered { .. } => {}
                        MissAction::SendFullPacketIn => {
                            pool.release(pkt);
                        }
                    }
                }
                TimedOp::Advance { micros } => now += Nanos::from_micros(*micros),
                TimedOp::Poll => {
                    prop_assert!(mech.poll_timeouts(now, &pool).is_empty());
                    prop_assert!(mech.next_timeout().is_none());
                }
                TimedOp::Release { nth } => {
                    if !outstanding.is_empty() {
                        let id = outstanding.remove(nth % outstanding.len());
                        for p in mech.release(now, id) {
                            pool.release(p.packet);
                        }
                        announced.remove(&id.as_u32());
                    }
                }
            }
        }
        prop_assert_eq!(mech.stats().rerequests, 0);
    }

    /// The retry schedule is well-behaved for every policy: the interval
    /// sequence is monotone non-decreasing in the retry count, never dips
    /// below the base timeout, never exceeds the cap (when one is set at or
    /// above the base), and stays at the base under the fixed policy.
    #[test]
    fn backoff_intervals_are_monotone_and_capped(
        backoff in 0u32..2,
        cap_ms in 0u64..200,
        base_ms in 1u64..80,
        budget in 0u32..8,
    ) {
        let (p, budget) = match backoff {
            0 => (RetryPolicy::Fixed, 0),
            _ => (RetryPolicy::backoff(Nanos::from_millis(cap_ms), budget), budget),
        };
        let base = Nanos::from_millis(base_ms);
        let ceiling = match p {
            RetryPolicy::Fixed => base,
            _ => Nanos::from_millis(cap_ms.max(base_ms)),
        };
        let mut prev = Nanos::ZERO;
        for n in 0..40 {
            let d = p.interval_after(base, n);
            prop_assert!(d >= base, "retry {n}: {d:?} below base {base:?}");
            prop_assert!(d >= prev, "retry {n}: {d:?} shrank from {prev:?}");
            if cap_ms > 0 || p == RetryPolicy::Fixed {
                prop_assert!(d <= ceiling, "retry {n}: {d:?} above cap {ceiling:?}");
            }
            prev = d;
        }
        // The budget is a step function: exactly `budget` retries are
        // allowed (or all of them when the budget is 0 = unlimited).
        for n in 0..40 {
            prop_assert_eq!(p.may_retry(n), budget == 0 || n < budget);
        }
    }

    /// Under arbitrary miss/advance/poll/release interleavings, no flow is
    /// ever re-requested more than `budget` times per announcement, and a
    /// flow that gives up has spent its whole budget and is gone from the
    /// buffer.
    #[test]
    fn retries_never_exceed_budget_under_interleavings(
        ops in arb_timed_ops(),
        budget in 1u32..5,
    ) {
        let policy = RetryPolicy::backoff(Nanos::from_millis(40), budget);
        let mut mech =
            Buffer::per_flow(1024, Nanos::from_millis(10)).with_retry_policy(policy);
        let mut pool = PacketPool::new();
        let mut now = Nanos::ZERO;
        let mut outstanding: Vec<BufferId> = Vec::new();
        let mut retries: HashMap<u32, u32> = HashMap::new();
        let mut total_rerequests: u64 = 0;
        for op in &ops {
            now += Nanos::from_micros(10);
            match op {
                TimedOp::Miss { flow } => {
                    let pkt = pool.insert(PacketBuilder::udp().src_port(*flow).build());
                    match mech.on_miss(now, pkt, PortNo(1), &pool) {
                        MissAction::SendBufferedPacketIn { buffer_id } => {
                            if outstanding.contains(&buffer_id) {
                                // An on-miss re-announcement spends budget too.
                                let n = retries.entry(buffer_id.as_u32()).or_insert(0);
                                *n += 1;
                                total_rerequests += 1;
                                prop_assert!(
                                    *n <= budget,
                                    "flow re-requested {n} > budget {budget}"
                                );
                            } else {
                                outstanding.push(buffer_id);
                                retries.insert(buffer_id.as_u32(), 0);
                            }
                        }
                        MissAction::Buffered { .. } => {}
                        MissAction::SendFullPacketIn => {
                            pool.release(pkt);
                        }
                    }
                }
                TimedOp::Advance { micros } => now += Nanos::from_micros(*micros),
                TimedOp::Poll => {
                    let sweep = mech.poll_timeouts(now, &pool);
                    for rr in &sweep.rerequests {
                        let n = retries.entry(rr.buffer_id.as_u32()).or_insert(0);
                        *n += 1;
                        total_rerequests += 1;
                        prop_assert!(*n <= budget, "flow re-requested {n} > budget {budget}");
                    }
                    for gave in &sweep.gave_up {
                        // Giving up means the whole budget was spent, and
                        // the slot is gone: a late release finds nothing.
                        prop_assert_eq!(retries.get(&gave.buffer_id.as_u32()), Some(&budget));
                        prop_assert!(!gave.packets.is_empty());
                        prop_assert!(mech.release(now, gave.buffer_id).is_empty());
                        outstanding.retain(|id| *id != gave.buffer_id);
                        retries.remove(&gave.buffer_id.as_u32());
                    }
                    for gave in sweep.gave_up {
                        for bp in gave.packets {
                            pool.release(bp.packet);
                        }
                    }
                    for bp in sweep.expired {
                        pool.release(bp.packet);
                    }
                }
                TimedOp::Release { nth } => {
                    if !outstanding.is_empty() {
                        let id = outstanding.remove(nth % outstanding.len());
                        for p in mech.release(now, id) {
                            pool.release(p.packet);
                        }
                        retries.remove(&id.as_u32());
                    }
                }
            }
        }
        prop_assert_eq!(mech.stats().rerequests, total_rerequests);
        prop_assert_eq!(pool.len(), mech.occupancy(), "pool leaks references");
    }

    #[test]
    fn same_tuple_same_flow_key(a in 42usize..1500, b in 42usize..1500) {
        // The buffer-id derivation rests on FlowKey equality being
        // size-independent; double-check the linkage end to end.
        let p1 = PacketBuilder::udp().src_port(3).frame_size(a).build();
        let p2 = PacketBuilder::udp().src_port(3).frame_size(b).build();
        prop_assert_eq!(FlowKey::of(&p1), FlowKey::of(&p2));
        let mut mech = Buffer::per_flow(16, Nanos::from_secs(1));
        let mut pool = PacketPool::new();
        let h1 = pool.insert(p1);
        let h2 = pool.insert(p2);
        let id1 = match mech.on_miss(Nanos::ZERO, h1, PortNo(1), &pool) {
            MissAction::SendBufferedPacketIn { buffer_id } => buffer_id,
            other => panic!("{other:?}"),
        };
        match mech.on_miss(Nanos::from_micros(1), h2, PortNo(1), &pool) {
            MissAction::Buffered { buffer_id } => prop_assert_eq!(buffer_id, id1),
            other => panic!("{other:?}"),
        }
    }
}
