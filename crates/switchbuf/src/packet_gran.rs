//! The packet-granularity buffer: OpenFlow's default buffer mechanism.

use crate::mechanism::next_generation;
use crate::{
    BufferMechanism, BufferStats, BufferedPacket, MissAction, PacketHandle, PacketPool, Rerequest,
    Sabotage, TimeoutSweep,
};
use sdnbuf_openflow::{BufferId, PortNo, Refusal};
use sdnbuf_sim::{EventKind, FastHashMap, Nanos, Tracer};
use std::collections::VecDeque;

/// The default OpenFlow buffer the paper's Section IV analyses: each
/// miss-match packet occupies one buffer unit under its own exclusive
/// `buffer_id`, and one `packet_out` releases exactly one packet.
///
/// When every unit is occupied the mechanism **falls back** to the
/// no-buffer behaviour for the overflowing packet (full packet inside the
/// `packet_in`), which is precisely how Open vSwitch degrades and why the
/// paper's buffer-16 configuration collapses to no-buffer performance above
/// ~35 Mbps.
///
/// # Example
///
/// ```
/// use sdnbuf_switchbuf::{BufferMechanism, MissAction, PacketGranularityBuffer};
/// use sdnbuf_net::{Packet, PacketBuilder};
/// use sdnbuf_openflow::PortNo;
/// use sdnbuf_sim::Nanos;
///
/// let mut buf = PacketGranularityBuffer::new(16);
/// let mut pool = sdnbuf_switchbuf::PacketPool::new();
/// let pkt = pool.insert(PacketBuilder::udp().build());
/// let action = buf.on_miss(Nanos::ZERO, pkt, PortNo(1), &pool);
/// assert!(matches!(action, MissAction::SendBufferedPacketIn { .. }));
/// assert_eq!(buf.occupancy(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct PacketGranularityBuffer {
    capacity: usize,
    units: FastHashMap<u32, BufferedPacket>,
    /// Units whose packet was released but whose slot is reclaimed lazily;
    /// each entry is the time the slot becomes available again.
    pending_free: VecDeque<Nanos>,
    free_lag: Nanos,
    next_id: u32,
    /// Per-entry lifetime; `None` = entries never expire (the default).
    /// Closes the stranding leak: a unit whose `packet_out` is lost would
    /// otherwise stay occupied forever.
    ttl: Option<Nanos>,
    /// Monotonic allocation counter tagging each unit's buffer id with a
    /// generation for ABA safety.
    gen_seq: u32,
    stats: BufferStats,
    tracer: Tracer,
    /// Fault injection: while on, new misses are refused as if every unit
    /// were occupied.
    pressured: bool,
    /// Session epoch stamped onto new allocations; `0` = crash plane
    /// unarmed.
    epoch: u32,
    /// Chaos self-test: with `disable_ttl_gc` the TTL sweep never
    /// collects; with `broken_epoch` dead-epoch releases keep draining and
    /// reconciliation migrates nothing.
    sabotage: Sabotage,
}

impl PacketGranularityBuffer {
    /// Creates a buffer with `capacity` units (the paper evaluates 16 and
    /// 256) and immediate slot reclamation.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — use [`crate::NoBuffer`] for that.
    pub fn new(capacity: usize) -> Self {
        PacketGranularityBuffer::with_free_lag(capacity, Nanos::ZERO)
    }

    /// Creates a buffer whose released units only become reusable
    /// `free_lag` after the `packet_out`, reproducing Open vSwitch's lazy
    /// buffer reclamation. The paper's Section V.B.5 contrasts this slow
    /// unit turnover of the default mechanism ("the buffer units released
    /// slowly") with the proposed mechanism's immediate bulk release.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_free_lag(capacity: usize, free_lag: Nanos) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        PacketGranularityBuffer {
            capacity,
            units: FastHashMap::with_capacity_and_hasher(capacity, Default::default()),
            pending_free: VecDeque::new(),
            free_lag,
            next_id: 0,
            ttl: None,
            gen_seq: 0,
            stats: BufferStats::default(),
            tracer: Tracer::off(),
            pressured: false,
            epoch: 0,
            sabotage: Sabotage::none(),
        }
    }

    /// Sets the per-entry TTL (builder-style). [`Nanos::ZERO`] disables
    /// expiry, the default. An expired unit is garbage-collected by the
    /// next [`BufferMechanism::poll_timeouts`] sweep and its packet is
    /// dropped — the recovery-plane answer to units stranded by a lost
    /// `packet_out`.
    pub fn with_ttl(mut self, ttl: Nanos) -> Self {
        self.ttl = (ttl > Nanos::ZERO).then_some(ttl);
        self
    }

    fn reclaim(&mut self, now: Nanos) {
        while self.pending_free.front().is_some_and(|&t| t <= now) {
            self.pending_free.pop_front();
        }
    }

    fn alloc_id(&mut self) -> BufferId {
        // Monotonic with wrap-around, skipping ids still in use and the
        // reserved NO_BUFFER value — the allocation discipline OVS uses.
        loop {
            let candidate = self.next_id;
            self.next_id = self.next_id.wrapping_add(1);
            if candidate != BufferId::NO_BUFFER.as_u32() && !self.units.contains_key(&candidate) {
                let generation = next_generation(&mut self.gen_seq);
                return BufferId::tagged(candidate, generation).with_epoch(self.epoch);
            }
        }
    }
}

impl BufferMechanism for PacketGranularityBuffer {
    fn name(&self) -> &'static str {
        "packet-granularity"
    }

    fn on_miss(
        &mut self,
        now: Nanos,
        packet: PacketHandle,
        in_port: PortNo,
        _pool: &PacketPool,
    ) -> MissAction {
        self.reclaim(now);
        if self.pressured || self.occupancy() >= self.capacity {
            self.stats.fallback_full += 1;
            let occupancy = self.occupancy();
            self.tracer
                .emit(now, EventKind::BufferFallback { occupancy });
            return MissAction::SendFullPacketIn;
        }
        let buffer_id = self.alloc_id();
        self.units.insert(
            buffer_id.as_u32(),
            BufferedPacket {
                packet,
                in_port,
                buffered_at: now,
                buffer_id,
            },
        );
        self.stats.buffered += 1;
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.occupancy());
        self.tracer.emit(
            now,
            EventKind::BufferEnqueue {
                buffer_id: buffer_id.as_u32(),
                occupancy: self.occupancy(),
                fresh: true,
            },
        );
        MissAction::SendBufferedPacketIn { buffer_id }
    }

    fn release_into(
        &mut self,
        now: Nanos,
        buffer_id: BufferId,
        out: &mut Vec<BufferedPacket>,
    ) -> Result<usize, Refusal> {
        self.reclaim(now);
        let Some(stored) = self.units.get(&buffer_id.as_u32()).map(|p| p.buffer_id) else {
            return Err(self.stats.count(Refusal::Unknown));
        };
        self.sabotage
            .admit(stored, buffer_id)
            .map_err(|refusal| self.stats.count(refusal))?;
        out.extend(self.units.remove(&buffer_id.as_u32()));
        self.stats.released += 1;
        if self.free_lag > Nanos::ZERO {
            self.pending_free.push_back(now + self.free_lag);
        }
        Ok(1)
    }

    fn next_timeout(&self) -> Option<Nanos> {
        let ttl = self.ttl?;
        if self.sabotage.disable_ttl_gc {
            return None;
        }
        self.units.values().map(|p| p.buffered_at + ttl).min()
    }

    fn poll_timeouts(&mut self, now: Nanos, pool: &PacketPool) -> TimeoutSweep {
        let mut sweep = TimeoutSweep::default();
        let Some(ttl) = self.ttl else { return sweep };
        if self.sabotage.disable_ttl_gc {
            return sweep;
        }
        // Capacity is small (the paper evaluates 16 and 256), so an O(n)
        // collect sorted deterministically by (age, id) is fine here; the
        // flow-granularity mechanism keeps a real min-deadline index.
        let mut due: Vec<u32> = self
            .units
            .iter()
            .filter(|(_, p)| p.buffered_at + ttl <= now)
            .map(|(&id, _)| id)
            .collect();
        due.sort_unstable_by_key(|id| (self.units[id].buffered_at, *id));
        for id in due {
            let p = self.units.remove(&id).expect("due unit exists");
            self.stats.expired += 1;
            self.stats.expired_bytes += pool.get(p.packet).map_or(0, |pk| pk.wire_len()) as u64;
            self.tracer.emit(
                now,
                EventKind::BufferExpire {
                    buffer_id: id,
                    occupancy: self.occupancy(),
                },
            );
            sweep.expired.push(p);
        }
        sweep
    }

    fn occupancy(&self) -> usize {
        // Unavailable units: live packets plus slots awaiting lazy
        // reclamation (as of the last operation).
        self.units.len() + self.pending_free.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn stats(&self) -> BufferStats {
        self.stats
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn set_pressure(&mut self, on: bool) {
        self.pressured = on;
    }

    fn reconcile_epoch(&mut self, _now: Nanos, epoch: u32) -> Vec<BufferId> {
        self.epoch = epoch;
        if self.sabotage.broken_epoch {
            return Vec::new();
        }
        // Every occupied unit migrates: each holds exactly one packet the
        // restarted controller has never heard of, so each is re-announced
        // (pacing is the switch's job).
        let mut raws: Vec<u32> = self.units.keys().copied().collect();
        raws.sort_unstable();
        let mut out = Vec::with_capacity(raws.len());
        for raw in raws {
            let p = self.units.get_mut(&raw).expect("listed unit exists");
            p.buffer_id = p.buffer_id.with_epoch(epoch);
            out.push(p.buffer_id);
        }
        out
    }

    fn rerequest_for(&self, buffer_id: BufferId) -> Option<Rerequest> {
        let p = self.units.get(&buffer_id.as_u32())?;
        Some(Rerequest {
            buffer_id: p.buffer_id,
            // A borrowed view: the unit keeps its pool reference.
            packet: p.packet,
            in_port: p.in_port,
        })
    }

    fn sabotage(&mut self, sabotage: Sabotage) {
        self.sabotage = sabotage;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnbuf_net::{Packet, PacketBuilder};

    #[test]
    fn pressure_refuses_new_units_but_keeps_existing() {
        let mut b = PacketGranularityBuffer::new(16);
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
    fn each_miss_gets_its_own_id() {
        let mut b = PacketGranularityBuffer::new(16);
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
        let mut b = PacketGranularityBuffer::new(4);
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
        let mut b = PacketGranularityBuffer::new(2);
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
        let mut b = PacketGranularityBuffer::new(1);
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
        let mut b = PacketGranularityBuffer::new(4);
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
        let mut b = PacketGranularityBuffer::new(8);
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
        let mut b = PacketGranularityBuffer::new(1);
        let mut pool = PacketPool::new();
        b.on_miss(Nanos::ZERO, pool.insert(pkt(1)), PortNo(1), &pool);
        assert_eq!(b.next_timeout(), None);
        assert!(b.poll_timeouts(Nanos::from_secs(10), &pool).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = PacketGranularityBuffer::new(0);
    }

    #[test]
    fn ttl_expires_stranded_units_oldest_first() {
        let ttl = Nanos::from_millis(30);
        let mut b = PacketGranularityBuffer::new(4).with_ttl(ttl);
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
        let mut b = PacketGranularityBuffer::new(4).with_ttl(Nanos::from_millis(10));
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
        let mut b = PacketGranularityBuffer::new(1);
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
        let mut b = PacketGranularityBuffer::new(4);
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
        let mut b = PacketGranularityBuffer::with_free_lag(1, lag);
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
        let mut b = PacketGranularityBuffer::with_free_lag(1, Nanos::ZERO);
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
}
