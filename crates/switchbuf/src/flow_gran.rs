//! The flow-granularity buffer mechanism — Algorithms 1 and 2 of the paper.

use crate::mechanism::next_generation;
use crate::{
    BufferMechanism, BufferStats, BufferedPacket, GaveUpFlow, MissAction, PacketHandle, PacketPool,
    Rerequest, RetryPolicy, Sabotage, TimeoutSweep,
};
use sdnbuf_net::FlowKey;
use sdnbuf_openflow::{BufferId, PortNo, Refusal};
use sdnbuf_sim::hash::{fnv1a, FNV_OFFSET};
use sdnbuf_sim::{EventKind, FastHashMap, Nanos, Tracer};
use std::collections::BTreeSet;

/// Ends a flow's list of units and the free list.
const NIL: u32 = u32::MAX;

/// One buffer unit: a parked packet and the index of the next unit of its
/// flow — or, once freed, of the next free unit.
#[derive(Clone, Copy, Debug)]
struct Unit {
    packet: BufferedPacket,
    next: u32,
}

/// Every unit the buffer has ever held at once, queued or free: the
/// switch's shared cell pool, which each flow's FIFO threads through. A
/// freed unit is the next one handed out, so the slab only grows (by the
/// `Vec`'s doubling) when occupancy reaches a new peak.
#[derive(Clone, Debug)]
struct Units {
    slab: Vec<Unit>,
    /// The first free unit.
    free: u32,
}

impl Default for Units {
    fn default() -> Units {
        Units {
            slab: Vec::new(),
            free: NIL,
        }
    }
}

impl Units {
    /// Appends `packet` to `q`'s FIFO in a free unit, or a new one.
    fn push_back(&mut self, q: &mut FlowQueue, packet: BufferedPacket) {
        let unit = Unit { packet, next: NIL };
        let idx = if self.free == NIL {
            assert!(
                self.slab.len() < NIL as usize,
                "buffer units fit u32 indices"
            );
            self.slab.push(unit);
            (self.slab.len() - 1) as u32
        } else {
            let idx = self.free;
            self.free = std::mem::replace(&mut self.slab[idx as usize], unit).next;
            idx
        };
        if q.len == 0 {
            q.head = idx;
        } else {
            self.slab[q.tail as usize].next = idx;
        }
        q.tail = idx;
        q.len += 1;
    }

    /// `q`'s head-of-line packet, `None` when it is empty.
    fn front(&self, q: &FlowQueue) -> Option<&BufferedPacket> {
        (q.len > 0).then(|| &self.slab[q.head as usize].packet)
    }

    /// Unlinks `q`'s head-of-line packet and frees its unit.
    fn pop_front(&mut self, q: &mut FlowQueue) -> Option<BufferedPacket> {
        if q.len == 0 {
            return None;
        }
        let idx = q.head;
        let unit = &mut self.slab[idx as usize];
        q.head = std::mem::replace(&mut unit.next, self.free);
        self.free = idx;
        q.len -= 1;
        Some(unit.packet)
    }

    /// Appends `q`'s packets to `out` in FIFO order and frees all its units
    /// at once: the whole list joins the free list.
    fn drain_into(&mut self, q: &FlowQueue, out: &mut Vec<BufferedPacket>) {
        if q.len == 0 {
            return;
        }
        out.reserve(q.len as usize);
        let mut cur = q.head;
        for _ in 0..q.len {
            let unit = &self.slab[cur as usize];
            out.push(unit.packet);
            cur = unit.next;
        }
        self.slab[q.tail as usize].next = self.free;
        self.free = q.head;
    }
}

#[derive(Clone, Debug)]
struct FlowQueue {
    buffer_id: BufferId,
    /// The flow's FIFO of units in [`Units`]: first and last unit, and how
    /// many. Never empty while the flow is in the maps, except inside a TTL
    /// sweep that is about to evict it.
    head: u32,
    tail: u32,
    len: u32,
    /// Re-requests sent for this flow since its announcement.
    retries: u32,
    /// When the next re-request (or give-up) fires — Algorithm 1's
    /// "timestamp" plus the interval, mirrored in the owner's
    /// `request_deadlines` index.
    next_due: Nanos,
}

impl FlowQueue {
    /// The re-announce view: the flow's id over its head-of-line packet,
    /// which the flow keeps its pool reference to.
    fn announce(&self, units: &Units) -> Rerequest {
        let first = units.front(self).expect("buffered flows are non-empty");
        Rerequest {
            buffer_id: self.buffer_id,
            packet: first.packet,
            in_port: first.in_port,
        }
    }
}

/// The paper's proposed mechanism: buffer **all** miss-match packets of a
/// flow under one shared `buffer_id` and send the controller a single
/// request per flow.
///
/// Implements Algorithm 1 (buffering) and Algorithm 2 (release) verbatim:
///
/// * The first miss of a flow allocates a `buffer_id` **calculated from the
///   (src_ip, src_port, dst_ip, dst_port, protocol) tuple** (a hash with
///   deterministic collision probing), stores it in the `buffer_id` map,
///   buffers the packet, and sends a `packet_in` (lines 5–9).
/// * Subsequent misses of the same flow are buffered silently under the
///   same id (lines 10–11), unless the request timestamp has expired, in
///   which case another `packet_in` is sent (lines 12–13).
/// * A `packet_out` carrying the flow's id drains the **entire** per-flow
///   queue in FIFO order and frees all its units at once (Algorithm 2) —
///   the fast unit turnover behind the 71.6 % buffer-utilization gain.
///
/// Non-IP packets (no 5-tuple) are not flow-bufferable and fall back to
/// full-packet `packet_in`s, as does any miss arriving while all units are
/// occupied.
///
/// # Recovery plane
///
/// Three extensions harden the algorithm against a dead or overloaded
/// controller, all **off by default** so the paper's behaviour is the
/// baseline:
///
/// * a [`RetryPolicy`] paces re-requests (backoff, budget) and
///   gives flows up once the budget is spent;
/// * an optional per-entry TTL garbage-collects entries that outlive it
///   ([`FlowGranularityBuffer::with_ttl`]);
/// * buffer ids carry an allocation **generation** tag, so a stale or
///   fault-duplicated `packet_out` naming a recycled id is rejected as an
///   invalid release instead of draining the new occupant (ABA safety).
///
/// Scheduling state lives in two ordered min-deadline indexes
/// (`request_deadlines`, `expiry_deadlines`), so [`Self::next_timeout`] and
/// a sweep with few due flows are `O(log n)` instead of a full scan.
///
/// `FlowGranularityBuffer::default()` is the unconfigured shell
/// [`FlowGranularityBuffer::reset_to`] fills: it has no unit, so every
/// miss falls back. Build a buffer with [`FlowGranularityBuffer::new`].
#[derive(Clone, Debug, Default)]
pub struct FlowGranularityBuffer {
    capacity: usize,
    timeout: Nanos,
    policy: RetryPolicy,
    /// Per-entry lifetime; `None` = entries never expire (the default).
    ttl: Option<Nanos>,
    flows: FastHashMap<FlowKey, FlowQueue>,
    /// The units every flow's queue is threaded through.
    units: Units,
    by_id: FastHashMap<u32, FlowKey>,
    /// One `(next_due, key)` entry per buffered flow — the re-request /
    /// give-up schedule, ordered by deadline.
    request_deadlines: BTreeSet<(Nanos, FlowKey)>,
    /// One `(front_expiry, key)` entry per buffered flow when a TTL is
    /// configured. Per-flow queues are FIFO, so the front packet always
    /// expires first.
    expiry_deadlines: BTreeSet<(Nanos, FlowKey)>,
    /// The flows a re-request sweep found due; empty between sweeps, kept
    /// for its storage.
    due: Vec<FlowKey>,
    total: usize,
    /// Monotonic allocation counter; each fresh flow announcement tags its
    /// buffer id with the next generation.
    alloc_seq: u32,
    stats: BufferStats,
    tracer: Tracer,
    /// Fault injection: while on, new misses are refused as if buffer
    /// memory were exhausted.
    pressured: bool,
    /// Session epoch stamped onto new allocations; `0` = crash plane
    /// unarmed (no stamping, no epoch rejection).
    epoch: u32,
    /// Chaos self-test: with `disable_rerequest` Algorithm 1 lines 12–13
    /// never fire, with `disable_ttl_gc` the TTL sweep never collects, and
    /// with `broken_epoch` dead-epoch releases keep draining and
    /// [`Self::reconcile_epoch_into`] migrates nothing.
    sabotage: Sabotage,
}

impl FlowGranularityBuffer {
    /// Creates a buffer with `capacity` total units (packets, across all
    /// flows) and the Algorithm 1 re-request `timeout`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`FlowGranularityBuffer::try_new`] for the non-panicking form).
    pub fn new(capacity: usize, timeout: Nanos) -> Self {
        match Self::try_new(capacity, timeout) {
            Ok(b) => b,
            Err(e) => panic!("invalid FlowGranularityBuffer config: {e}"),
        }
    }

    /// Fallible constructor: rejects a zero `capacity` or zero `timeout`
    /// with a typed error instead of panicking, matching the
    /// `validate()`-at-construction pattern of `SwitchConfig` and friends.
    pub fn try_new(capacity: usize, timeout: Nanos) -> Result<Self, String> {
        if capacity == 0 {
            return Err("buffer capacity must be positive".to_owned());
        }
        if timeout == Nanos::ZERO {
            return Err(
                "re-request timeout must be positive (a zero timeout would re-request on \
                 every packet)"
                    .to_owned(),
            );
        }
        Ok(FlowGranularityBuffer {
            capacity,
            timeout,
            ..FlowGranularityBuffer::default()
        })
    }

    /// Makes this buffer `fresh`, keeping the storage of its flow maps,
    /// unit slab and sweep list, emptied: no flow, unit, deadline,
    /// generation, counter or sabotage carries over. `fresh`'s own
    /// containers are dropped, so pass one that holds nothing. The maps
    /// are never iterated in an order that reaches an outcome
    /// (`reconcile_epoch_into` sorts the ids it lists), so their larger
    /// capacity changes no run.
    pub fn reset_to(&mut self, fresh: FlowGranularityBuffer) {
        let (mut flows, mut slab, mut by_id, mut due) = (
            std::mem::take(&mut self.flows),
            std::mem::take(&mut self.units.slab),
            std::mem::take(&mut self.by_id),
            std::mem::take(&mut self.due),
        );
        flows.clear();
        slab.clear();
        by_id.clear();
        due.clear();
        *self = FlowGranularityBuffer {
            flows,
            units: Units { slab, free: NIL },
            by_id,
            due,
            ..fresh
        };
    }

    /// Replaces the retry policy (builder-style).
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the per-entry TTL (builder-style). [`Nanos::ZERO`] disables
    /// expiry, the default.
    pub fn with_ttl(mut self, ttl: Nanos) -> Self {
        self.ttl = (ttl > Nanos::ZERO).then_some(ttl);
        self
    }

    /// The configured re-request timeout.
    pub fn timeout(&self) -> Nanos {
        self.timeout
    }

    /// The configured retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Number of distinct flows currently buffered.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Derives the flow's buffer id from its 5-tuple ("calculated based on
    /// the tuple of (src_ip, src_port, dst_ip, dst_port, protocol)"),
    /// probing deterministically past ids already held by other flows. The
    /// id is tagged with the next allocation generation for ABA safety.
    fn id_for(&mut self, key: &FlowKey) -> BufferId {
        let mut h = FNV_OFFSET;
        h = fnv1a(h, &key.src_ip.octets());
        h = fnv1a(h, &key.dst_ip.octets());
        h = fnv1a(h, &key.src_port.to_be_bytes());
        h = fnv1a(h, &key.dst_port.to_be_bytes());
        h = fnv1a(h, &[key.protocol.as_u8()]);
        let mut candidate = (h ^ (h >> 32)) as u32;
        loop {
            if candidate != BufferId::NO_BUFFER.as_u32() && !self.by_id.contains_key(&candidate) {
                let generation = next_generation(&mut self.alloc_seq);
                return BufferId::tagged(candidate, generation).with_epoch(self.epoch);
            }
            candidate = candidate.wrapping_add(1);
        }
    }

    /// (Re)schedules `key`'s next re-request after its `retries`-th one,
    /// the policy's interval from `now`.
    fn arm_request(&mut self, key: FlowKey, now: Nanos, retries: u32) {
        let due = now + self.policy.interval_after(self.timeout, retries);
        let q = self.flows.get_mut(&key).expect("armed flow exists");
        self.request_deadlines.remove(&(q.next_due, key));
        q.retries = retries;
        q.next_due = due;
        self.request_deadlines.insert((due, key));
    }

    /// Counts and traces one more re-request for `key`'s flow, re-arms its
    /// timer and returns the re-announce view.
    fn rerequest(&mut self, key: FlowKey, now: Nanos) -> Rerequest {
        let q = &self.flows[&key];
        let (view, retries) = (q.announce(&self.units), q.retries + 1);
        self.stats.rerequests += 1;
        self.tracer.emit(
            now,
            EventKind::BufferRerequest {
                buffer_id: view.buffer_id.as_u32(),
                occupancy: self.total,
            },
        );
        self.arm_request(key, now, retries);
        view
    }

    /// A miss that is not buffered: non-IP traffic, pressure, exhaustion.
    fn fall_back(&mut self, now: Nanos) -> MissAction {
        self.stats.fallback_full += 1;
        let occupancy = self.total;
        self.tracer
            .emit(now, EventKind::BufferFallback { occupancy });
        MissAction::SendFullPacketIn
    }

    /// Garbage-collects TTL-expired entries due at or before `now` into
    /// `sweep.expired`.
    fn sweep_expired(&mut self, now: Nanos, pool: &PacketPool, sweep: &mut TimeoutSweep) {
        let Some(ttl) = self.ttl else { return };
        if self.sabotage.disable_ttl_gc {
            return;
        }
        while let Some(&(due, key)) = self.expiry_deadlines.iter().next() {
            if due > now {
                break;
            }
            self.expiry_deadlines.remove(&(due, key));
            let q = self
                .flows
                .get_mut(&key)
                .expect("expiry index and flows map stay consistent");
            let due = |p: &BufferedPacket| p.buffered_at + ttl <= now;
            while let Some(p) = self.units.front(q).copied().filter(due) {
                self.units.pop_front(q);
                self.total -= 1;
                self.stats.expired += 1;
                self.stats.expired_bytes += pool.get(p.packet).map_or(0, |pk| pk.wire_len()) as u64;
                self.tracer.emit(
                    now,
                    EventKind::BufferExpire {
                        buffer_id: p.buffer_id.as_u32(),
                        occupancy: self.total,
                    },
                );
                sweep.expired.push(p);
            }
            // Per-flow queues are FIFO: the new front expires next.
            if let Some(front) = self.units.front(q) {
                self.expiry_deadlines.insert((front.buffered_at + ttl, key));
            } else {
                self.evict_flow(key, &mut Vec::new());
            }
        }
    }

    /// Removes `key`'s flow from the maps and both deadline indexes,
    /// appends its packets to `out` in FIFO order and frees its units.
    /// Returns the flow's queue, whose units are free now.
    fn evict_flow(&mut self, key: FlowKey, out: &mut Vec<BufferedPacket>) -> FlowQueue {
        let q = self.flows.remove(&key).expect("evicted flow exists");
        self.by_id.remove(&q.buffer_id.as_u32());
        self.request_deadlines.remove(&(q.next_due, key));
        if let (Some(ttl), Some(front)) = (self.ttl, self.units.front(&q)) {
            self.expiry_deadlines
                .remove(&(front.buffered_at + ttl, key));
        }
        self.total -= q.len as usize;
        self.units.drain_into(&q, out);
        q
    }
}

impl BufferMechanism for FlowGranularityBuffer {
    fn name(&self) -> &'static str {
        "flow-granularity"
    }

    fn on_miss(
        &mut self,
        now: Nanos,
        packet: PacketHandle,
        in_port: PortNo,
        pool: &PacketPool,
    ) -> MissAction {
        // Non-IP traffic has no 5-tuple: not flow-bufferable.
        let Some(key) = pool.get(packet).and_then(FlowKey::of) else {
            return self.fall_back(now);
        };
        if self.pressured || self.total >= self.capacity {
            return self.fall_back(now);
        }
        let parked = |buffer_id| BufferedPacket {
            packet,
            in_port,
            buffered_at: now,
            buffer_id,
        };
        // Algorithm 1 line 5: getBufferIdFromMap(p_i). `known` is the
        // flow's request deadline and retry count when it has an id.
        let (buffer_id, known) = match self.flows.get_mut(&key) {
            Some(queue) => {
                self.units.push_back(queue, parked(queue.buffer_id));
                (queue.buffer_id, Some((queue.next_due, queue.retries)))
            }
            None => {
                // Lines 6–9: first packet of the flow.
                let buffer_id = self.id_for(&key);
                let mut queue = FlowQueue {
                    buffer_id,
                    head: NIL,
                    tail: NIL,
                    len: 0,
                    retries: 0,
                    next_due: now,
                };
                self.units.push_back(&mut queue, parked(buffer_id));
                self.flows.insert(key, queue);
                self.by_id.insert(buffer_id.as_u32(), key);
                self.arm_request(key, now, 0);
                if let Some(ttl) = self.ttl {
                    self.expiry_deadlines.insert((now + ttl, key));
                }
                (buffer_id, None)
            }
        };
        self.total += 1;
        self.stats.buffered += 1;
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.total);
        self.tracer.emit(
            now,
            EventKind::BufferEnqueue {
                buffer_id: buffer_id.as_u32(),
                occupancy: self.total,
                fresh: known.is_none(),
            },
        );
        let Some((due, retries)) = known else {
            return MissAction::SendBufferedPacketIn { buffer_id };
        };
        // Lines 10–11: a subsequent packet is buffered silently. Lines
        // 12–13: unless the request timestamp expired — then another
        // packet_in goes out, if the retry budget allows (a spent budget's
        // give-up is the timer sweep's job).
        if !self.sabotage.disable_rerequest && now >= due && self.policy.may_retry(retries) {
            self.rerequest(key, now);
            return MissAction::SendBufferedPacketIn { buffer_id };
        }
        MissAction::Buffered { buffer_id }
    }

    fn release_into(
        &mut self,
        _now: Nanos,
        buffer_id: BufferId,
        out: &mut Vec<BufferedPacket>,
    ) -> Result<usize, Refusal> {
        let Some(&key) = self.by_id.get(&buffer_id.as_u32()) else {
            return Err(self.stats.count(Refusal::Unknown));
        };
        self.sabotage
            .admit(self.flows[&key].buffer_id, buffer_id)
            .map_err(|refusal| self.stats.count(refusal))?;
        // Algorithm 2: drain the whole per-flow queue in FIFO order and
        // free every unit.
        let released = self.evict_flow(key, out).len as usize;
        self.stats.released += released as u64;
        Ok(released)
    }

    fn next_timeout(&self) -> Option<Nanos> {
        let first = |index: &BTreeSet<(Nanos, FlowKey)>, off: bool| {
            index.iter().next().filter(|_| !off).map(|&(t, _)| t)
        };
        let request = first(&self.request_deadlines, self.sabotage.disable_rerequest);
        let expiry = first(&self.expiry_deadlines, self.sabotage.disable_ttl_gc);
        request.into_iter().chain(expiry).min()
    }

    fn poll_timeouts_into(&mut self, now: Nanos, pool: &PacketPool, sweep: &mut TimeoutSweep) {
        self.sweep_expired(now, pool, sweep);
        if self.sabotage.disable_rerequest {
            return;
        }
        let mut due = std::mem::take(&mut self.due);
        while let Some(&(t, key)) = self.request_deadlines.iter().next() {
            if t > now {
                break;
            }
            self.request_deadlines.remove(&(t, key));
            due.push(key);
        }
        // Deterministic order regardless of deadline ties — and the same
        // observable order as the historical full-scan implementation.
        due.sort_unstable();
        for key in due.drain(..) {
            if self.policy.may_retry(self.flows[&key].retries) {
                let rerequest = self.rerequest(key, now);
                sweep.rerequests.push(rerequest);
                continue;
            }
            // Budget spent: execute the give-up action.
            let mut packets = Vec::new();
            let q = self.evict_flow(key, &mut packets);
            self.stats.giveups += 1;
            self.tracer.emit(
                now,
                EventKind::BufferGiveUp {
                    buffer_id: q.buffer_id.as_u32(),
                    drained: packets.len(),
                    action: self.policy.give_up().label(),
                    occupancy: self.total,
                },
            );
            sweep.gave_up.push(GaveUpFlow {
                buffer_id: q.buffer_id,
                packets,
                action: self.policy.give_up(),
            });
        }
        self.due = due;
    }

    fn occupancy(&self) -> usize {
        self.total
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

    fn reconcile_epoch_into(&mut self, now: Nanos, epoch: u32, survivors: &mut Vec<BufferId>) {
        self.epoch = epoch;
        if self.sabotage.broken_epoch {
            // Surviving flows keep their dead-epoch ids and the ordinary
            // lines-12–13 re-request loop keeps announcing them.
            return;
        }
        // The raw ids first, sorted, then each flow migrated in that
        // order and its slot overwritten with the re-tagged id.
        let start = survivors.len();
        survivors.extend(self.by_id.keys().map(|&raw| BufferId::new(raw)));
        survivors[start..].sort_unstable_by_key(|id| id.as_u32());
        for slot in &mut survivors[start..] {
            let key = self.by_id[&slot.as_u32()];
            let q = self.flows.get_mut(&key).expect("listed flow exists");
            q.buffer_id = q.buffer_id.with_epoch(epoch);
            let mut cur = q.head;
            for _ in 0..q.len {
                let unit = &mut self.units.slab[cur as usize];
                unit.packet.buffer_id = unit.packet.buffer_id.with_epoch(epoch);
                cur = unit.next;
            }
            *slot = q.buffer_id;
            // The restarted controller has never ignored these flows:
            // retry budgets reset and the re-request schedule restarts
            // from `now` (the paced re-announce itself is the switch's
            // job, via `rerequest_for`).
            self.arm_request(key, now, 0);
        }
    }

    fn rerequest_for(&self, buffer_id: BufferId) -> Option<Rerequest> {
        let key = self.by_id.get(&buffer_id.as_u32())?;
        Some(self.flows[key].announce(&self.units))
    }

    fn sabotage(&mut self, sabotage: Sabotage) {
        self.sabotage = sabotage;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GiveUp;
    use sdnbuf_net::{MacAddr, Packet, PacketBuilder};
    use std::net::Ipv4Addr;

    fn mk() -> FlowGranularityBuffer {
        FlowGranularityBuffer::new(256, Nanos::from_millis(50))
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
        assert_eq!(b.flow_count(), 1);
    }

    #[test]
    fn a_reset_buffer_acts_as_the_fresh_one_and_keeps_its_storage() {
        let misses = |b: &mut FlowGranularityBuffer, pool: &mut PacketPool| {
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
        let capacities = (
            b.flows.capacity(),
            b.units.slab.capacity(),
            b.by_id.capacity(),
        );
        b.reset_to(mk());
        assert_eq!(
            (
                b.flows.capacity(),
                b.units.slab.capacity(),
                b.by_id.capacity()
            ),
            capacities
        );
        assert_eq!(
            (b.occupancy(), b.flow_count(), b.next_timeout()),
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
        assert_eq!(b.flow_count(), 50);
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
        assert_eq!(b.flow_count(), 0);
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
        assert_eq!(b.flow_count(), 1);
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
        let mut b = FlowGranularityBuffer::new(16, Nanos::from_millis(10));
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
        let mut b = FlowGranularityBuffer::new(16, Nanos::from_millis(10));
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
        let mut b = FlowGranularityBuffer::new(16, Nanos::from_millis(10))
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
        let mut b = FlowGranularityBuffer::new(16, Nanos::from_millis(10)).with_retry_policy(
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
        assert_eq!(b.flow_count(), 0);
        assert_eq!(b.stats().giveups, 1);
        assert_eq!(b.stats().rerequests, 2, "retries stayed within budget");
        assert_eq!(b.next_timeout(), None);
    }

    #[test]
    fn giveup_drop_action_is_reported() {
        let mut b = FlowGranularityBuffer::new(16, Nanos::from_millis(10)).with_retry_policy(
            RetryPolicy::Backoff {
                cap: Nanos::from_millis(10),
                budget: 1,
                give_up: GiveUp::Drop,
            },
        );
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
        let mut b = FlowGranularityBuffer::new(16, Nanos::from_millis(100))
            .with_ttl(Nanos::from_millis(30));
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
        assert_eq!(b.flow_count(), 2);
        let sweep = b.poll_timeouts(Nanos::from_millis(55), &pool);
        assert_eq!(sweep.expired.len(), 2, "both remaining entries age out");
        assert_eq!(b.occupancy(), 0);
        assert_eq!(b.flow_count(), 0, "emptied flows are removed entirely");
        assert_eq!(b.next_timeout(), None);
    }

    #[test]
    fn disabled_ttl_gc_leaks_entries() {
        let mut b = FlowGranularityBuffer::new(16, Nanos::from_millis(100))
            .with_ttl(Nanos::from_millis(10));
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
        let mut b = FlowGranularityBuffer::new(3, Nanos::from_millis(50));
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
        let b = FlowGranularityBuffer::new(8, Nanos::from_millis(20));
        assert_eq!(b.name(), "flow-granularity");
        assert_eq!(b.capacity(), 8);
        assert_eq!(b.timeout(), Nanos::from_millis(20));
        assert_eq!(b.retry_policy(), RetryPolicy::Fixed);
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
        let mut b = FlowGranularityBuffer::new(16, Nanos::from_millis(10));
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
        let mut b = FlowGranularityBuffer::new(16, Nanos::from_millis(10)).with_retry_policy(
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
            assert_eq!(b.units.slab.len(), most, "cycle {cycle}");
        }
        assert_eq!(most, 12);
        assert_eq!(b.stats().released, b.stats().buffered);
    }

    #[test]
    fn ttl_expiry_of_the_head_then_release_of_the_rest() {
        let mut b = FlowGranularityBuffer::new(16, Nanos::from_millis(100))
            .with_ttl(Nanos::from_millis(30));
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
        assert_eq!(b.units.slab.len(), 4);
        let out = b.release(Nanos::from_millis(36), id);
        let got: Vec<PacketHandle> = out.iter().map(|p| p.packet).collect();
        assert_eq!(got, [rest[0], rest[1], rest[2], late]);
        assert_eq!(b.occupancy(), 0);
        assert_eq!(b.next_timeout(), None);
    }

    #[test]
    fn give_up_drains_in_arrival_order() {
        let mut b = FlowGranularityBuffer::new(16, Nanos::from_millis(10)).with_retry_policy(
            RetryPolicy::Backoff {
                cap: Nanos::from_millis(10),
                budget: 1,
                give_up: GiveUp::DrainAsFullPacketIn,
            },
        );
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
        assert!(
            out.iter().all(|p| p.buffer_id == survivors[0]),
            "every queued packet moves to the new epoch, not only the head: {out:?}"
        );
    }

    #[test]
    fn try_new_returns_typed_errors() {
        assert!(FlowGranularityBuffer::try_new(16, Nanos::from_millis(1)).is_ok());
        let e = FlowGranularityBuffer::try_new(0, Nanos::from_millis(1)).unwrap_err();
        assert!(e.contains("capacity"), "{e}");
        let e = FlowGranularityBuffer::try_new(1, Nanos::ZERO).unwrap_err();
        assert!(e.contains("timeout"), "{e}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = FlowGranularityBuffer::new(0, Nanos::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "timeout")]
    fn zero_timeout_panics() {
        let _ = FlowGranularityBuffer::new(1, Nanos::ZERO);
    }
}
