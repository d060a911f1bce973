//! The switch's packet buffer: one core for every mechanism the paper
//! compares, which differ only in the key a miss is parked under.

use crate::mechanism::next_generation;
use crate::{
    BufferMechanism, BufferStats, BufferedPacket, GaveUpFlow, MissAction, PacketHandle, PacketPool,
    Rerequest, RetryPolicy, Sabotage, TimeoutSweep,
};
use sdnbuf_net::FlowKey;
use sdnbuf_openflow::{BufferId, PortNo, Refusal};
use sdnbuf_sim::hash::{fnv1a, FNV_OFFSET};
use sdnbuf_sim::{EventKind, FastHashMap, Nanos, Tracer};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Ends an entry's list of units and the free list.
const NIL: u32 = u32::MAX;

/// Puts `item` in the free slot of `slab` that `free` heads, taking the
/// next free slot from it with `next_free`, or in a new slot; returns the
/// slot.
fn place<T>(slab: &mut Vec<T>, free: &mut u32, item: T, next_free: fn(&T) -> u32) -> u32 {
    if *free == NIL {
        assert!(slab.len() < NIL as usize, "slots fit u32 indices");
        slab.push(item);
        return (slab.len() - 1) as u32;
    }
    let at = *free;
    *free = next_free(&std::mem::replace(&mut slab[at as usize], item));
    at
}

/// A parked packet and the next unit of its entry, or once freed of the
/// free list.
#[derive(Clone, Copy, Debug)]
struct Unit {
    packet: BufferedPacket,
    next: u32,
}

/// Every unit the buffer has held at once, queued or free: the shared cell
/// pool each entry's FIFO threads through. A freed unit is the next one
/// handed out, so the slab grows only at a new peak of occupancy.
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
    fn push_back(&mut self, q: &mut Entry, packet: BufferedPacket) {
        let unit = Unit { packet, next: NIL };
        let idx = place(&mut self.slab, &mut self.free, unit, |freed| freed.next);
        if q.len == 0 {
            q.head = idx;
        } else {
            self.slab[q.tail as usize].next = idx;
        }
        q.tail = idx;
        q.len += 1;
    }

    /// `q`'s head-of-line packet, `None` when it is empty.
    fn front(&self, q: &Entry) -> Option<&BufferedPacket> {
        (q.len > 0).then(|| &self.slab[q.head as usize].packet)
    }

    /// Unlinks `q`'s head-of-line packet and frees its unit.
    fn pop_front(&mut self, q: &mut Entry) -> Option<BufferedPacket> {
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
    fn drain_into(&mut self, q: &Entry, out: &mut Vec<BufferedPacket>) {
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

    /// Re-tags every packet of `q` with `epoch`.
    fn restamp(&mut self, q: &Entry, epoch: u32) {
        let mut cur = q.head;
        for _ in 0..q.len {
            let unit = &mut self.slab[cur as usize];
            unit.packet.buffer_id = unit.packet.buffer_id.with_epoch(epoch);
            cur = unit.next;
        }
    }
}

/// What a miss is parked under. Ordered, so that entries due at the same
/// instant leave the deadline heaps in a fixed order: by raw id per
/// packet, by 5-tuple per flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Key {
    /// Per packet: the entry's own raw buffer id.
    Packet(u32),
    /// Per flow: the 5-tuple every miss of the flow shares.
    Flow(FlowKey),
}

/// The packets parked under one buffer id.
#[derive(Clone, Copy, Debug)]
struct Entry {
    key: Key,
    buffer_id: BufferId,
    /// The entry's FIFO in [`Units`], never empty while the entry is live
    /// except inside a TTL sweep about to evict it. A free entry's `head`
    /// is the next free entry.
    head: u32,
    tail: u32,
    len: u32,
    /// Re-requests sent for this entry since its announcement.
    retries: u32,
    /// When a flow's next re-request (or give-up) fires: Algorithm 1's
    /// "timestamp" plus the interval.
    next_due: Nanos,
}

impl Entry {
    /// The re-announce view: the entry's id over its head-of-line packet,
    /// which the entry keeps its pool reference to.
    fn announce(&self, units: &Units) -> Rerequest {
        let first = units.front(self).expect("buffered entries are non-empty");
        Rerequest {
            buffer_id: self.buffer_id,
            packet: first.packet,
            in_port: first.in_port,
        }
    }
}

/// Every entry the buffer has held at once, in a slab like [`Units`], and
/// an index of 4-B positions: each live entry under its raw id, a flow's
/// under its 5-tuple too.
#[derive(Clone, Debug)]
struct Entries {
    slab: Vec<Entry>,
    /// The first free entry.
    free: u32,
    index: FastHashMap<Key, u32>,
    /// Live entries.
    len: usize,
}

impl Default for Entries {
    fn default() -> Entries {
        Entries {
            slab: Vec::new(),
            free: NIL,
            index: FastHashMap::default(),
            len: 0,
        }
    }
}

impl Entries {
    /// Where the entry filed under `key` sits.
    fn position(&self, key: &Key) -> Option<u32> {
        self.index.get(key).copied()
    }

    /// The entry filed under `key`.
    fn get(&self, key: &Key) -> Option<&Entry> {
        Some(&self.slab[self.position(key)? as usize])
    }

    /// Files `entry` under its raw id and key; returns its position.
    fn insert(&mut self, entry: Entry) -> u32 {
        let at = place(&mut self.slab, &mut self.free, entry, |freed| freed.head);
        self.index.insert(entry.key, at);
        if let Key::Flow(_) = entry.key {
            self.index.insert(Key::Packet(entry.buffer_id.as_u32()), at);
        }
        self.len += 1;
        at
    }

    /// Unfiles the entry at `at` and frees its slot; returns it.
    fn remove(&mut self, at: u32) -> Entry {
        let entry = self.slab[at as usize];
        self.index.remove(&entry.key);
        if let Key::Flow(_) = entry.key {
            self.index.remove(&Key::Packet(entry.buffer_id.as_u32()));
        }
        self.slab[at as usize].head = std::mem::replace(&mut self.free, at);
        self.len -= 1;
        entry
    }

    /// Forgets every entry, keeping the storage.
    fn clear(&mut self) {
        self.slab.clear();
        self.free = NIL;
        self.index.clear();
        self.len = 0;
    }
}

/// One kind of timer, re-request or TTL, as a lazy min-heap of
/// `(deadline, key)`. Arming pushes the new deadline and leaves the old
/// behind: a heap entry is live while `current(key) == Some(at)`, and a
/// stale one is dropped when it surfaces. Every `&mut` call ends with a
/// live top, so [`Deadlines::first`] is exact and due keys pop in
/// `(deadline, key)` order. Once stale entries outnumber the armed keys
/// two to one, the heap keeps only its live ones.
#[derive(Clone, Debug, Default)]
struct Deadlines {
    heap: BinaryHeap<Reverse<(Nanos, Key)>>,
}

impl Deadlines {
    /// Moves `key`'s deadline from `old` to `at`; `armed` keys have this
    /// timer, and `current` gives each one's deadline.
    fn arm(
        &mut self,
        key: Key,
        old: Option<Nanos>,
        at: Nanos,
        armed: usize,
        current: impl Fn(&Key) -> Option<Nanos>,
    ) {
        if old == Some(at) {
            return;
        }
        self.heap.push(Reverse((at, key)));
        if self.heap.len() > 3 * armed + 8 {
            self.heap
                .retain(|&Reverse((at, key))| current(&key) == Some(at));
        }
        self.settle(current);
    }

    /// Drops stale entries off the top until the top is live.
    fn settle(&mut self, current: impl Fn(&Key) -> Option<Nanos>) {
        while let Some(&Reverse((at, key))) = self.heap.peek() {
            if current(&key) == Some(at) {
                break;
            }
            self.heap.pop();
        }
    }

    /// The earliest armed deadline.
    fn first(&self) -> Option<Nanos> {
        self.heap.peek().map(|&Reverse((at, _))| at)
    }

    /// Takes the first key due at or before `now` off the schedule, with
    /// every copy of its entry; `current` still gives its deadline.
    fn pop_due(&mut self, now: Nanos, current: impl Fn(&Key) -> Option<Nanos>) -> Option<Key> {
        let &Reverse(first) = self.heap.peek().filter(|top| top.0 .0 <= now)?;
        while self.heap.peek() == Some(&Reverse(first)) {
            self.heap.pop();
        }
        self.settle(current);
        Some(first.1)
    }
}

/// The re-request deadline of each buffered entry.
fn request_due(entries: &Entries) -> impl Fn(&Key) -> Option<Nanos> + '_ {
    move |key| entries.get(key).map(|q| q.next_due)
}

/// The TTL deadline of each buffered entry: its head-of-line packet's.
fn expiry_due<'a>(
    entries: &'a Entries,
    units: &'a Units,
    ttl: Option<Nanos>,
) -> impl Fn(&Key) -> Option<Nanos> + 'a {
    move |key| Some(units.front(entries.get(key)?)?.buffered_at + ttl?)
}

/// How misses are keyed: the one decision the paper's mechanisms differ
/// in.
#[derive(Clone, Copy, Debug)]
enum Keying {
    /// Released units become reusable `free_lag` after the `packet_out`.
    PerPacket { free_lag: Nanos },
    /// Entries re-request on `timeout` as `retry` paces them.
    PerFlow { timeout: Nanos, retry: RetryPolicy },
}

impl Default for Keying {
    fn default() -> Keying {
        Keying::PerPacket {
            free_lag: Nanos::ZERO,
        }
    }
}

/// The switch's packet buffer, for every mechanism the paper compares: a
/// miss is parked in a unit under a `buffer_id`, and a `packet_out` naming
/// that id drains it, FIFO. The mechanisms differ only in the key a miss
/// is filed under:
///
/// * **per packet** ([`Buffer::per_packet`]) — OpenFlow's default buffer
///   (Section IV): every miss gets the next id of a wrapping counter that
///   skips ids in use and [`BufferId::NO_BUFFER`], and its own
///   `packet_in`; one `packet_out` releases one packet. A free lag
///   reclaims released units lazily, as Open vSwitch does (Section V.B.5).
/// * **per flow** ([`Buffer::per_flow`]) — Algorithms 1 and 2: the first
///   miss of a 5-tuple gets an id hashed from the tuple (probing past ids
///   in use) and a `packet_in` (lines 5–9); later misses join the flow
///   silently (10–11) unless its request timed out (12–13); one
///   `packet_out` drains the whole flow (Algorithm 2). Non-IP packets fall
///   back to full-packet `packet_in`s.
/// * **none** ([`Buffer::default`]) — capacity 0: every miss falls back
///   to a full-packet `packet_in`, and the buffer keeps no tracer.
///
/// A miss while every unit is taken, or under injected pressure, falls
/// back too — why the paper's buffer-16 collapses to no-buffer
/// performance above ~35 Mbps. The recovery plane is off by default: a
/// [`RetryPolicy`] paces and bounds a flow's re-requests, a TTL
/// ([`Buffer::with_ttl`]) collects stranded entries, and ids carry an
/// allocation generation (ABA safety) and, once armed, a session epoch.
/// Both timers are lazy min-heaps with an exact top, so
/// [`BufferMechanism::next_timeout`] is a peek.
///
/// # Example
///
/// ```
/// use sdnbuf_switchbuf::{Buffer, BufferMechanism, MissAction, NoBuffer, PacketPool};
/// use sdnbuf_net::PacketBuilder;
/// use sdnbuf_openflow::PortNo;
/// use sdnbuf_sim::Nanos;
///
/// let mut pool = PacketPool::new();
/// let (mut none, mut per_packet) = (NoBuffer::new(), Buffer::per_packet(16, Nanos::ZERO));
/// let mut per_flow = Buffer::per_flow(16, Nanos::from_millis(50));
/// let mut miss = |buf: &mut Buffer| {
///     let packet = pool.insert(PacketBuilder::udp().src_port(7).build());
///     buf.on_miss(Nanos::ZERO, packet, PortNo(1), &pool)
/// };
/// assert_eq!(miss(&mut none), MissAction::SendFullPacketIn);
/// // A flow's second miss: its own packet_in per packet, silent per flow.
/// for _ in 0..2 {
///     assert!(matches!(miss(&mut per_packet), MissAction::SendBufferedPacketIn { .. }));
/// }
/// assert!(matches!(miss(&mut per_flow), MissAction::SendBufferedPacketIn { .. }));
/// assert!(matches!(miss(&mut per_flow), MissAction::Buffered { .. }));
/// assert_eq!((none.capacity(), per_packet.occupancy(), per_flow.occupancy()), (0, 2, 2));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Buffer {
    capacity: usize,
    keying: Keying,
    /// Per-entry lifetime; `None` = entries never expire (the default).
    ttl: Option<Nanos>,
    entries: Entries,
    /// The units every entry's queue is threaded through.
    units: Units,
    /// Each flow's `next_due`.
    request_deadlines: Deadlines,
    /// Each entry's head-of-line expiry, with a TTL.
    expiry_deadlines: Deadlines,
    /// The flows a re-request sweep found due; empty between sweeps.
    due: Vec<FlowKey>,
    /// When each released unit awaiting lazy reclamation becomes free;
    /// reclaimed on a miss or a release only.
    pending_free: VecDeque<Nanos>,
    /// Buffered packets.
    total: usize,
    /// The per-packet id counter: the next raw id to try.
    next_id: u32,
    /// The generation the last new entry was tagged with.
    alloc_seq: u32,
    stats: BufferStats,
    tracer: Tracer,
    /// Fault injection: new misses fall back as if memory were exhausted.
    pressured: bool,
    /// Session epoch stamped onto new ids; `0` = crash plane unarmed.
    epoch: u32,
    sabotage: Sabotage,
}

impl Buffer {
    /// A per-packet buffer of `capacity` units (the paper evaluates 16 and
    /// 256) whose released units become reusable `free_lag` after the
    /// `packet_out`. Panics on a zero `capacity`: [`Buffer::default`] is
    /// the no-buffer mechanism.
    pub fn per_packet(capacity: usize, free_lag: Nanos) -> Buffer {
        assert!(capacity > 0, "buffer capacity must be positive");
        Buffer {
            capacity,
            keying: Keying::PerPacket { free_lag },
            ..Buffer::default()
        }
    }

    /// A per-flow buffer of `capacity` units with the Algorithm 1
    /// re-request `timeout`, at a fixed interval until
    /// [`Buffer::with_retry_policy`] says otherwise. Panics on a zero
    /// `capacity` or `timeout` (which would re-request on every packet).
    pub fn per_flow(capacity: usize, timeout: Nanos) -> Buffer {
        assert!(capacity > 0, "buffer capacity must be positive");
        assert!(timeout > Nanos::ZERO, "re-request timeout must be positive");
        Buffer {
            capacity,
            keying: Keying::PerFlow {
                timeout,
                retry: RetryPolicy::Fixed,
            },
            ..Buffer::default()
        }
    }

    /// Replaces a per-flow buffer's retry policy (builder-style); other
    /// buffers never re-request, and ignore it.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Buffer {
        if let Keying::PerFlow { retry, .. } = &mut self.keying {
            *retry = policy;
        }
        self
    }

    /// Sets the per-entry TTL (builder-style; [`Nanos::ZERO`], the default,
    /// disables it): the next sweep after it drops an entry stranded by a
    /// lost `packet_out`.
    pub fn with_ttl(mut self, ttl: Nanos) -> Buffer {
        self.ttl = (ttl > Nanos::ZERO).then_some(ttl);
        self
    }

    /// Makes this buffer `fresh`, keeping the storage of every container,
    /// emptied: no entry, unit, deadline, id, generation, counter or
    /// sabotage carries over. Pass a `fresh` that holds nothing. The index
    /// is never walked in an order that reaches an outcome, so its larger
    /// capacity changes no run.
    pub fn reset_to(&mut self, fresh: Buffer) {
        use std::mem::take;
        self.entries.clear();
        self.units.slab.clear();
        self.units.free = NIL;
        self.request_deadlines.heap.clear();
        self.expiry_deadlines.heap.clear();
        self.due.clear();
        self.pending_free.clear();
        *self = Buffer {
            entries: take(&mut self.entries),
            units: take(&mut self.units),
            request_deadlines: take(&mut self.request_deadlines),
            expiry_deadlines: take(&mut self.expiry_deadlines),
            due: take(&mut self.due),
            pending_free: take(&mut self.pending_free),
            ..fresh
        };
    }

    /// Frees the units whose free lag has passed by `now`.
    fn reclaim(&mut self, now: Nanos) {
        while self.pending_free.front().is_some_and(|&t| t <= now) {
            self.pending_free.pop_front();
        }
    }

    /// The first raw id from `candidate` on, wrapping, that is neither in
    /// use nor [`BufferId::NO_BUFFER`] (OVS's discipline), tagged with the
    /// next generation and the session epoch.
    fn alloc_from(&mut self, mut candidate: u32) -> BufferId {
        while candidate == BufferId::NO_BUFFER.as_u32()
            || self.entries.index.contains_key(&Key::Packet(candidate))
        {
            candidate = candidate.wrapping_add(1);
        }
        let generation = next_generation(&mut self.alloc_seq);
        BufferId::tagged(candidate, generation).with_epoch(self.epoch)
    }

    /// A new entry's key and id: per packet the counter's next free id;
    /// per flow one "calculated based on the tuple of (src_ip, src_port,
    /// dst_ip, dst_port, protocol)".
    fn new_key(&mut self, flow: Option<FlowKey>) -> (Key, BufferId) {
        let Some(flow) = flow else {
            let id = self.alloc_from(self.next_id);
            self.next_id = id.as_u32().wrapping_add(1);
            return (Key::Packet(id.as_u32()), id);
        };
        let mut h = FNV_OFFSET;
        h = fnv1a(h, &flow.src_ip.octets());
        h = fnv1a(h, &flow.dst_ip.octets());
        h = fnv1a(h, &flow.src_port.to_be_bytes());
        h = fnv1a(h, &flow.dst_port.to_be_bytes());
        h = fnv1a(h, &[flow.protocol.as_u8()]);
        (Key::Flow(flow), self.alloc_from((h ^ (h >> 32)) as u32))
    }

    /// (Re)schedules the next re-request of the flow entry at `at` after
    /// its `retries`-th one, the policy's interval from `now`.
    fn arm_request(&mut self, at: u32, now: Nanos, retries: u32) {
        let Keying::PerFlow { timeout, retry } = self.keying else {
            return;
        };
        let due = now + retry.interval_after(timeout, retries);
        let q = &mut self.entries.slab[at as usize];
        let (key, old) = (q.key, std::mem::replace(&mut q.next_due, due));
        q.retries = retries;
        let armed = self.entries.len;
        self.request_deadlines
            .arm(key, Some(old), due, armed, request_due(&self.entries));
    }

    /// Counts and traces one more re-request for the entry at `at`,
    /// re-arms its timer and returns the re-announce view.
    fn rerequest(&mut self, at: u32, now: Nanos) -> Rerequest {
        let q = &self.entries.slab[at as usize];
        let (view, retries) = (q.announce(&self.units), q.retries + 1);
        self.stats.rerequests += 1;
        self.tracer.emit(
            now,
            EventKind::BufferRerequest {
                buffer_id: view.buffer_id.as_u32(),
                occupancy: self.occupancy(),
            },
        );
        self.arm_request(at, now, retries);
        view
    }

    /// A miss that is not buffered.
    fn fall_back(&mut self, now: Nanos) -> MissAction {
        self.stats.fallback_full += 1;
        let occupancy = self.occupancy();
        self.tracer
            .emit(now, EventKind::BufferFallback { occupancy });
        MissAction::SendFullPacketIn
    }

    /// Garbage-collects TTL-expired packets due at or before `now` into
    /// `sweep.expired`, in `(deadline, key)` order.
    fn sweep_expired(&mut self, now: Nanos, pool: &PacketPool, sweep: &mut TimeoutSweep) {
        let Some(ttl) = self.ttl else { return };
        if self.sabotage.disable_ttl_gc {
            return;
        }
        while let Some(key) = self
            .expiry_deadlines
            .pop_due(now, expiry_due(&self.entries, &self.units, self.ttl))
        {
            let at =
                (self.entries.position(&key)).expect("expiry index and entries stay consistent");
            let q = &mut self.entries.slab[at as usize];
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
                        occupancy: self.total + self.pending_free.len(),
                    },
                );
                sweep.expired.push(p);
            }
            // Queues are FIFO: the new front expires next.
            if let Some(front) = self.units.front(q) {
                let (at, armed) = (front.buffered_at + ttl, self.entries.len);
                let current = expiry_due(&self.entries, &self.units, self.ttl);
                self.expiry_deadlines.arm(key, None, at, armed, current);
            } else {
                self.evict(at, &mut Vec::new());
            }
        }
    }

    /// Unfiles the entry at `at`, appends its packets to `out` in FIFO
    /// order and frees its units; returns it.
    fn evict(&mut self, at: u32, out: &mut Vec<BufferedPacket>) -> Entry {
        // Unfiled, the entry's deadlines are stale: settle both tops.
        let q = self.entries.remove(at);
        self.request_deadlines.settle(request_due(&self.entries));
        let current = expiry_due(&self.entries, &self.units, self.ttl);
        self.expiry_deadlines.settle(current);
        self.total -= q.len as usize;
        self.units.drain_into(&q, out);
        q
    }
}

impl BufferMechanism for Buffer {
    fn name(&self) -> &'static str {
        match self.keying {
            _ if self.capacity == 0 => "no-buffer",
            Keying::PerPacket { .. } => "packet-granularity",
            Keying::PerFlow { .. } => "flow-granularity",
        }
    }

    fn on_miss(
        &mut self,
        now: Nanos,
        packet: PacketHandle,
        in_port: PortNo,
        pool: &PacketPool,
    ) -> MissAction {
        self.reclaim(now);
        let flow = match self.keying {
            Keying::PerPacket { .. } => None,
            // Non-IP traffic has no 5-tuple: not flow-bufferable.
            Keying::PerFlow { .. } => match pool.get(packet).and_then(FlowKey::of) {
                None => return self.fall_back(now),
                flow => flow,
            },
        };
        if self.pressured || self.occupancy() >= self.capacity {
            return self.fall_back(now);
        }
        let parked = |buffer_id| BufferedPacket {
            packet,
            in_port,
            buffered_at: now,
            buffer_id,
        };
        // Algorithm 1 line 5: getBufferIdFromMap(p_i). `known` is the
        // flow's request deadline and retry count when it has an id; a
        // per-packet miss never has one.
        let joined = flow.and_then(|flow| self.entries.position(&Key::Flow(flow)));
        let (at, buffer_id, known) = match joined {
            Some(at) => {
                let q = &mut self.entries.slab[at as usize];
                self.units.push_back(q, parked(q.buffer_id));
                (at, q.buffer_id, Some((q.next_due, q.retries)))
            }
            None => {
                // Lines 6–9: the first packet of a flow, or any packet.
                let (key, buffer_id) = self.new_key(flow);
                let mut q = Entry {
                    key,
                    buffer_id,
                    head: NIL,
                    tail: NIL,
                    len: 0,
                    retries: 0,
                    next_due: now,
                };
                self.units.push_back(&mut q, parked(buffer_id));
                let at = self.entries.insert(q);
                self.arm_request(at, now, 0);
                if let Some(ttl) = self.ttl {
                    let (armed, current) = (
                        self.entries.len,
                        expiry_due(&self.entries, &self.units, self.ttl),
                    );
                    self.expiry_deadlines
                        .arm(key, None, now + ttl, armed, current);
                }
                (at, buffer_id, None)
            }
        };
        self.total += 1;
        self.stats.buffered += 1;
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.occupancy());
        self.tracer.emit(
            now,
            EventKind::BufferEnqueue {
                buffer_id: buffer_id.as_u32(),
                occupancy: self.occupancy(),
                fresh: known.is_none(),
            },
        );
        let (Some((due, retries)), Keying::PerFlow { retry, .. }) = (known, self.keying) else {
            return MissAction::SendBufferedPacketIn { buffer_id };
        };
        // Lines 10–11: a subsequent packet is buffered silently. Lines
        // 12–13: unless the request timestamp expired — then another
        // packet_in goes out, if the retry budget allows (a spent budget's
        // give-up is the timer sweep's job).
        if !self.sabotage.disable_rerequest && now >= due && retry.may_retry(retries) {
            self.rerequest(at, now);
            return MissAction::SendBufferedPacketIn { buffer_id };
        }
        MissAction::Buffered { buffer_id }
    }

    fn release_into(
        &mut self,
        now: Nanos,
        buffer_id: BufferId,
        out: &mut Vec<BufferedPacket>,
    ) -> Result<usize, Refusal> {
        self.reclaim(now);
        let Some(at) = self.entries.position(&Key::Packet(buffer_id.as_u32())) else {
            return Err(self.stats.count(Refusal::Unknown));
        };
        self.sabotage
            .admit(self.entries.slab[at as usize].buffer_id, buffer_id)
            .map_err(|refusal| self.stats.count(refusal))?;
        // Algorithm 2: drain the whole queue in FIFO order and free every
        // unit — lazily, per packet, when a free lag is configured.
        let released = self.evict(at, out).len as usize;
        self.stats.released += released as u64;
        if let Keying::PerPacket { free_lag } = self.keying {
            if free_lag > Nanos::ZERO {
                self.pending_free.push_back(now + free_lag);
            }
        }
        Ok(released)
    }

    #[inline]
    fn next_timeout(&self) -> Option<Nanos> {
        let Sabotage {
            disable_rerequest,
            disable_ttl_gc,
            ..
        } = self.sabotage;
        match (
            self.request_deadlines.first(),
            self.expiry_deadlines.first(),
        ) {
            (Some(request), Some(expiry)) if !disable_rerequest && !disable_ttl_gc => {
                Some(request.min(expiry))
            }
            (Some(request), _) if !disable_rerequest => Some(request),
            (_, Some(expiry)) if !disable_ttl_gc => Some(expiry),
            _ => None,
        }
    }

    fn poll_timeouts_into(&mut self, now: Nanos, pool: &PacketPool, sweep: &mut TimeoutSweep) {
        self.sweep_expired(now, pool, sweep);
        let Keying::PerFlow { retry, .. } = self.keying else {
            return;
        };
        if self.sabotage.disable_rerequest {
            return;
        }
        let mut due = std::mem::take(&mut self.due);
        while let Some(key) = self
            .request_deadlines
            .pop_due(now, request_due(&self.entries))
        {
            let Key::Flow(flow) = key else {
                unreachable!("only flows re-request")
            };
            due.push(flow);
        }
        // By key, whatever the deadlines: the historical full scan's order.
        due.sort_unstable();
        for flow in due.drain(..) {
            let at = (self.entries.position(&Key::Flow(flow))).expect("due flow exists");
            if retry.may_retry(self.entries.slab[at as usize].retries) {
                let rerequest = self.rerequest(at, now);
                sweep.rerequests.push(rerequest);
                continue;
            }
            // Budget spent: execute the give-up action.
            let mut packets = Vec::new();
            let q = self.evict(at, &mut packets);
            self.stats.giveups += 1;
            self.tracer.emit(
                now,
                EventKind::BufferGiveUp {
                    buffer_id: q.buffer_id.as_u32(),
                    drained: packets.len(),
                    action: retry.give_up().label(),
                    occupancy: self.occupancy(),
                },
            );
            sweep.gave_up.push(GaveUpFlow {
                buffer_id: q.buffer_id,
                packets,
                action: retry.give_up(),
            });
        }
        self.due = due;
    }

    #[inline]
    fn occupancy(&self) -> usize {
        // Buffered packets and units awaiting lazy reclamation.
        self.total + self.pending_free.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn stats(&self) -> BufferStats {
        self.stats
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        // No buffer memory, no slot lifecycle to report: not even a fallback.
        if self.capacity > 0 {
            self.tracer = tracer;
        }
    }

    fn set_pressure(&mut self, on: bool) {
        self.pressured = on;
    }

    fn reconcile_epoch_into(&mut self, now: Nanos, epoch: u32, survivors: &mut Vec<BufferId>) {
        self.epoch = epoch;
        if self.sabotage.broken_epoch {
            // Entries keep their dead-epoch ids; flows keep re-requesting.
            return;
        }
        // The raw ids, sorted, then each entry re-tagged in that order.
        let start = survivors.len();
        survivors.extend(self.entries.index.keys().filter_map(|key| match *key {
            Key::Packet(raw) => Some(BufferId::from_wire(raw)),
            Key::Flow(_) => None,
        }));
        survivors[start..].sort_unstable_by_key(|id| id.as_u32());
        for slot in &mut survivors[start..] {
            let at = self.entries.index[&Key::Packet(slot.as_u32())];
            let q = &mut self.entries.slab[at as usize];
            q.buffer_id = q.buffer_id.with_epoch(epoch);
            self.units.restamp(q, epoch);
            *slot = q.buffer_id;
            // The new controller never ignored these flows: their retry
            // budgets and schedules restart (the switch paces re-announces).
            self.arm_request(at, now, 0);
        }
    }

    fn rerequest_for(&self, buffer_id: BufferId) -> Option<Rerequest> {
        let at = self.entries.position(&Key::Packet(buffer_id.as_u32()))?;
        Some(self.entries.slab[at as usize].announce(&self.units))
    }

    fn sabotage(&mut self, sabotage: Sabotage) {
        self.sabotage = sabotage;
    }
}

/// The no-buffer mechanism's constructor, kept for `benchmark/` until
/// ROADMAP 1(b).
#[derive(Clone, Copy, Debug)]
pub struct NoBuffer;

impl NoBuffer {
    /// [`Buffer::default`].
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> Buffer {
        Buffer::default()
    }
}

/// The packet-granularity mechanism's constructor, kept for
/// `benchmark/` until ROADMAP 1(b).
#[derive(Clone, Copy, Debug)]
pub struct PacketGranularityBuffer;

impl PacketGranularityBuffer {
    /// [`Buffer::per_packet`] with immediate slot reclamation.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(capacity: usize) -> Buffer {
        Buffer::per_packet(capacity, Nanos::ZERO)
    }

    /// [`Buffer::per_packet`].
    pub fn with_free_lag(capacity: usize, free_lag: Nanos) -> Buffer {
        Buffer::per_packet(capacity, free_lag)
    }
}

/// The flow-granularity mechanism's constructor, kept for `benchmark/`
/// until ROADMAP 1(b).
#[derive(Clone, Copy, Debug)]
pub struct FlowGranularityBuffer;

impl FlowGranularityBuffer {
    /// [`Buffer::per_flow`].
    #[allow(clippy::new_ret_no_self)]
    pub fn new(capacity: usize, timeout: Nanos) -> Buffer {
        Buffer::per_flow(capacity, timeout)
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReconcileEpoch;
    use proptest::prelude::*;
    use sdnbuf_net::{Packet, PacketBuilder};

    impl Buffer {
        /// How much each container the buffer keeps can hold.
        fn storage(&self) -> [usize; 7] {
            [
                self.entries.slab.capacity(),
                self.entries.index.capacity(),
                self.units.slab.capacity(),
                self.request_deadlines.heap.capacity(),
                self.expiry_deadlines.heap.capacity(),
                self.due.capacity(),
                self.pending_free.capacity(),
            ]
        }
    }

    #[test]
    fn a_buffer_without_memory_keeps_no_tracer() {
        // The no-buffer mechanism never reported a fallback: with no
        // buffer memory there is no slot lifecycle to trace.
        let (tracer, events) = Tracer::recording(0);
        let mut b = Buffer::default();
        b.set_tracer(tracer);
        let mut pool = PacketPool::new();
        let packet = pool.insert(PacketBuilder::udp().build());
        assert_eq!(
            b.on_miss(Nanos::ZERO, packet, PortNo(1), &pool),
            MissAction::SendFullPacketIn
        );
        assert_eq!(b.stats().fallback_full, 1);
        assert!(events.borrow().events().is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Law 1 on one buffer: on misses of pairwise-distinct 5-tuples
        /// and no timeout sweep, keying by flow and keying by packet (no
        /// free lag) are one mechanism. Every miss opens an entry and
        /// sends a `packet_in`, or falls back in both; every release
        /// drains as much in both; the ids differ in raw value only.
        #[test]
        fn distinct_flows_key_alike_per_flow_and_per_packet(
            capacity in 1usize..24,
            steps in proptest::collection::vec(
                (0u8..8, 0usize..32, 0u64..20_000),
                1..120,
            ),
        ) {
            let mut per_flow = Buffer::per_flow(capacity, Nanos::from_millis(10));
            let mut per_packet = Buffer::per_packet(capacity, Nanos::ZERO);
            let mut pool = PacketPool::new();
            let (mut now, mut src_port, mut ids) = (Nanos::ZERO, 0u16, Vec::new());
            for (op, nth, micros) in steps {
                now += Nanos::from_micros(micros);
                match op {
                    0..=4 => {
                        // Only the source port tells the flows apart.
                        let frame = PacketBuilder::udp().src_port(src_port).build();
                        src_port += 1;
                        let packet = pool.insert(frame);
                        let by_flow = per_flow.on_miss(now, packet, PortNo(1), &pool);
                        let by_packet = per_packet.on_miss(now, packet, PortNo(1), &pool);
                        match (by_flow, by_packet) {
                            (
                                MissAction::SendBufferedPacketIn { buffer_id: f },
                                MissAction::SendBufferedPacketIn { buffer_id: p },
                            ) => {
                                prop_assert_eq!((f.generation(), f.epoch()), (p.generation(), p.epoch()));
                                ids.push((f, p));
                            }
                            (MissAction::SendFullPacketIn, MissAction::SendFullPacketIn) => {}
                            other => prop_assert!(false, "{:?}", other),
                        }
                    }
                    5 | 6 if !ids.is_empty() => {
                        let (f, p) = ids[nth % ids.len()];
                        let (mut by_flow, mut by_packet) = (Vec::new(), Vec::new());
                        prop_assert_eq!(
                            per_flow.release_into(now, f, &mut by_flow),
                            per_packet.release_into(now, p, &mut by_packet)
                        );
                        prop_assert_eq!(by_flow.len(), by_packet.len());
                    }
                    _ => {
                        let on = nth % 2 == 0;
                        per_flow.set_pressure(on);
                        per_packet.set_pressure(on);
                    }
                }
                prop_assert_eq!(per_flow.occupancy(), per_packet.occupancy());
                prop_assert_eq!(per_flow.stats(), per_packet.stats());
            }
        }
    }

    /// Algorithms 1 and 2: one entry per 5-tuple.
    mod per_flow {
        use super::*;
        use crate::GiveUp;
        use sdnbuf_net::MacAddr;
        use std::net::Ipv4Addr;
        fn mk() -> Buffer {
            Buffer::per_flow(256, Nanos::from_millis(50))
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
            assert_eq!(b.entries.len, 1);
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
                (b.occupancy(), b.entries.len, b.next_timeout()),
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
            assert_eq!(b.entries.len, 50);
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
            assert_eq!(b.entries.len, 0);
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
            assert_eq!(b.entries.len, 1);
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
            let mut b = Buffer::per_flow(16, Nanos::from_millis(10));
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
            let mut b = Buffer::per_flow(16, Nanos::from_millis(10));
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
            let mut b = Buffer::per_flow(16, Nanos::from_millis(10))
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
            let mut b = Buffer::per_flow(16, Nanos::from_millis(10)).with_retry_policy(
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
            assert_eq!(b.entries.len, 0);
            assert_eq!(b.stats().giveups, 1);
            assert_eq!(b.stats().rerequests, 2, "retries stayed within budget");
            assert_eq!(b.next_timeout(), None);
        }

        #[test]
        fn giveup_drop_action_is_reported() {
            let mut b = Buffer::per_flow(16, Nanos::from_millis(10)).with_retry_policy(
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
            let mut b =
                Buffer::per_flow(16, Nanos::from_millis(100)).with_ttl(Nanos::from_millis(30));
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
            assert_eq!(b.entries.len, 2);
            let sweep = b.poll_timeouts(Nanos::from_millis(55), &pool);
            assert_eq!(sweep.expired.len(), 2, "both remaining entries age out");
            assert_eq!(b.occupancy(), 0);
            assert_eq!(b.entries.len, 0, "emptied flows are removed entirely");
            assert_eq!(b.next_timeout(), None);
        }

        #[test]
        fn disabled_ttl_gc_leaks_entries() {
            let mut b =
                Buffer::per_flow(16, Nanos::from_millis(100)).with_ttl(Nanos::from_millis(10));
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
            let mut b = Buffer::per_flow(3, Nanos::from_millis(50));
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
            let arp = PacketBuilder::gratuitous_arp(
                MacAddr::from_host_index(1),
                Ipv4Addr::new(10, 0, 0, 1),
            );
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
            let b = Buffer::per_flow(8, Nanos::from_millis(20));
            assert_eq!(b.name(), "flow-granularity");
            assert_eq!(b.capacity(), 8);
            assert_eq!(
                format!("{:?}", b.keying),
                format!(
                    "{:?}",
                    Keying::PerFlow {
                        timeout: Nanos::from_millis(20),
                        retry: RetryPolicy::Fixed
                    }
                )
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
            let mut b = Buffer::per_flow(16, Nanos::from_millis(10));
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
            let mut b = Buffer::per_flow(16, Nanos::from_millis(10)).with_retry_policy(
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
            let mut b =
                Buffer::per_flow(16, Nanos::from_millis(100)).with_ttl(Nanos::from_millis(30));
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
            let mut b = Buffer::per_flow(16, Nanos::from_millis(10)).with_retry_policy(
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
            let _ = Buffer::per_flow(0, Nanos::from_millis(1));
        }

        #[test]
        #[should_panic(expected = "timeout")]
        fn zero_timeout_panics() {
            let _ = Buffer::per_flow(1, Nanos::ZERO);
        }

        #[test]
        fn superseded_deadlines_do_not_accumulate() {
            let mut b = mk();
            let mut pool = PacketPool::new();
            b.on_miss(Nanos::ZERO, pool.insert(pkt(1, 100)), PortNo(1), &pool);
            // Each reconcile re-arms the one flow and leaves its old entry.
            for epoch in 1..1_000u32 {
                b.reconcile_epoch(Nanos::from_micros(epoch.into()), epoch);
                assert!(b.request_deadlines.heap.len() <= 3 + 8);
            }
            assert_eq!(
                b.next_timeout(),
                Some(Nanos::from_micros(999) + Nanos::from_millis(50))
            );
        }
    }

    /// OpenFlow's default: one entry per miss.
    mod per_packet {
        use super::*;
        #[test]
        fn pressure_refuses_new_units_but_keeps_existing() {
            let mut b = Buffer::per_packet(16, Nanos::ZERO);
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
            let fresh = || Buffer::per_packet(16, Nanos::from_millis(1));
            let mut pool = PacketPool::new();
            let mut b = Buffer::per_packet(64, Nanos::ZERO).with_ttl(Nanos::from_millis(5));
            b.reconcile_epoch(Nanos::ZERO, 2);
            misses(&mut b, &mut pool);
            let id = b.entries.slab[0].buffer_id;
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
            let mut b = Buffer::per_packet(16, Nanos::ZERO);
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
            let mut b = Buffer::per_packet(4, Nanos::ZERO);
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
            let mut b = Buffer::per_packet(2, Nanos::ZERO);
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
            let mut b = Buffer::per_packet(1, Nanos::ZERO);
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
            let mut b = Buffer::per_packet(4, Nanos::ZERO);
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
            let mut b = Buffer::per_packet(8, Nanos::ZERO);
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
            let mut b = Buffer::per_packet(1, Nanos::ZERO);
            let mut pool = PacketPool::new();
            b.on_miss(Nanos::ZERO, pool.insert(pkt(1)), PortNo(1), &pool);
            assert_eq!(b.next_timeout(), None);
            assert!(b.poll_timeouts(Nanos::from_secs(10), &pool).is_empty());
        }

        #[test]
        #[should_panic(expected = "positive")]
        fn zero_capacity_panics() {
            let _ = Buffer::per_packet(0, Nanos::ZERO);
        }

        #[test]
        fn ttl_expires_stranded_units_oldest_first() {
            let ttl = Nanos::from_millis(30);
            let mut b = Buffer::per_packet(4, Nanos::ZERO).with_ttl(ttl);
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
            let mut b = Buffer::per_packet(4, Nanos::ZERO).with_ttl(Nanos::from_millis(10));
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
            let mut b = Buffer::per_packet(1, Nanos::ZERO);
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
            let fresh =
                match b.on_miss(Nanos::from_micros(2), pool.insert(pkt(2)), PortNo(1), &pool) {
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
            let mut b = Buffer::per_packet(4, Nanos::ZERO);
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
            let mut b = Buffer::per_packet(1, lag);
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
            let mut b = Buffer::per_packet(1, Nanos::ZERO);
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

    /// Capacity 0: every miss a full-packet `packet_in`.
    mod none {
        use super::*;
        #[test]
        fn always_sends_full_packets() {
            let mut b = Buffer::default();
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
            let mut b = Buffer::default();
            assert!(b.release(Nanos::ZERO, BufferId::new(1)).is_empty());
            assert_eq!(b.stats().invalid_releases, 1);
        }

        #[test]
        fn never_times_out() {
            let mut b = Buffer::default();
            assert_eq!(b.next_timeout(), None);
            assert!(b
                .poll_timeouts(Nanos::from_secs(100), &PacketPool::new())
                .is_empty());
        }

        #[test]
        fn name() {
            assert_eq!(Buffer::default().name(), "no-buffer");
        }
    }
}
