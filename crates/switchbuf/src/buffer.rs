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

/// What a miss is parked under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Key {
    /// Per packet: the entry's own raw buffer id.
    Packet(u32),
    /// Per flow: the 5-tuple every miss of the flow shares.
    Flow(FlowKey),
}

/// An entry as the deadline heaps file it, ordered so that entries due at
/// the same instant leave in a fixed order: per packet by allocation
/// sequence (the generation tag), which is arrival order, not by raw id,
/// which restarts when the id counter wraps; per flow by 5-tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Due {
    Packet { generation: u32, raw: u32 },
    Flow(FlowKey),
}

impl Due {
    /// The key the entry is filed under.
    fn key(self) -> Key {
        match self {
            Due::Packet { raw, .. } => Key::Packet(raw),
            Due::Flow(flow) => Key::Flow(flow),
        }
    }
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
    /// How the deadline heaps file this entry.
    fn due(&self) -> Due {
        match self.key {
            Key::Packet(raw) => Due::Packet {
                generation: self.buffer_id.generation(),
                raw,
            },
            Key::Flow(flow) => Due::Flow(flow),
        }
    }

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

    /// The live entry `due` names: per packet, of that generation too.
    fn due(&self, due: Due) -> Option<&Entry> {
        let q = self.get(&due.key())?;
        match due {
            Due::Packet { generation, .. } if q.buffer_id.generation() != generation => None,
            _ => Some(q),
        }
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
/// `(deadline, due)`. Arming pushes the new deadline and leaves the old
/// behind: a heap entry is live while `current(due) == Some(at)`, and a
/// stale one is dropped when it surfaces. Every `&mut` call ends with a
/// live top, so [`Deadlines::first`] is exact and due entries pop in
/// `(deadline, due)` order. Once stale entries outnumber the armed keys
/// two to one, the heap keeps only its live ones.
#[derive(Clone, Debug, Default)]
struct Deadlines {
    heap: BinaryHeap<Reverse<(Nanos, Due)>>,
}

impl Deadlines {
    /// Moves `due`'s deadline from `old` to `at`; `armed` entries have
    /// this timer, and `current` gives each one's deadline.
    fn arm(
        &mut self,
        due: Due,
        old: Option<Nanos>,
        at: Nanos,
        armed: usize,
        current: impl Fn(Due) -> Option<Nanos>,
    ) {
        if old == Some(at) {
            return;
        }
        self.heap.push(Reverse((at, due)));
        if self.heap.len() > 3 * armed + 8 {
            self.heap
                .retain(|&Reverse((at, due))| current(due) == Some(at));
        }
        self.settle(current);
    }

    /// Drops stale entries off the top until the top is live.
    fn settle(&mut self, current: impl Fn(Due) -> Option<Nanos>) {
        while let Some(&Reverse((at, due))) = self.heap.peek() {
            if current(due) == Some(at) {
                break;
            }
            self.heap.pop();
        }
    }

    /// The earliest armed deadline.
    fn first(&self) -> Option<Nanos> {
        self.heap.peek().map(|&Reverse((at, _))| at)
    }

    /// Takes the first entry due at or before `now` off the schedule,
    /// with every copy of its heap entry; `current` still gives its
    /// deadline.
    fn pop_due(&mut self, now: Nanos, current: impl Fn(Due) -> Option<Nanos>) -> Option<Due> {
        let &Reverse(first) = self.heap.peek().filter(|top| top.0 .0 <= now)?;
        while self.heap.peek() == Some(&Reverse(first)) {
            self.heap.pop();
        }
        self.settle(current);
        Some(first.1)
    }
}

/// The re-request deadline of each buffered entry.
fn request_due(entries: &Entries) -> impl Fn(Due) -> Option<Nanos> + '_ {
    move |due| entries.due(due).map(|q| q.next_due)
}

/// The TTL deadline of each buffered entry: its head-of-line packet's.
fn expiry_due<'a>(
    entries: &'a Entries,
    units: &'a Units,
    ttl: Option<Nanos>,
) -> impl Fn(Due) -> Option<Nanos> + 'a {
    move |due| Some(units.front(entries.due(due)?)?.buffered_at + ttl?)
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
/// use sdnbuf_switchbuf::{Buffer, BufferMechanism, MissAction, PacketPool};
/// use sdnbuf_net::PacketBuilder;
/// use sdnbuf_openflow::PortNo;
/// use sdnbuf_sim::Nanos;
///
/// let mut pool = PacketPool::new();
/// let (mut none, mut per_packet) = (Buffer::default(), Buffer::per_packet(16, Nanos::ZERO));
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
        let (key, old) = (q.due(), std::mem::replace(&mut q.next_due, due));
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
    /// `sweep.expired`, in `(deadline, due)` order.
    fn sweep_expired(&mut self, now: Nanos, pool: &PacketPool, sweep: &mut TimeoutSweep) {
        let Some(ttl) = self.ttl else { return };
        if self.sabotage.disable_ttl_gc {
            return;
        }
        while let Some(due) = self
            .expiry_deadlines
            .pop_due(now, expiry_due(&self.entries, &self.units, self.ttl))
        {
            let at = (self.entries.position(&due.key()))
                .expect("expiry index and entries stay consistent");
            let q = &mut self.entries.slab[at as usize];
            let expired = |p: &BufferedPacket| p.buffered_at + ttl <= now;
            while let Some(p) = self.units.front(q).copied().filter(expired) {
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
                self.expiry_deadlines.arm(due, None, at, armed, current);
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
                        .arm(q.due(), None, now + ttl, armed, current);
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
            let Due::Flow(flow) = key else {
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

/// What the unit tests read of a buffer's insides. `pub(crate)` because
/// the per-mechanism test modules run under `lib.rs` too.
#[cfg(test)]
impl Buffer {
    /// [`BufferMechanism::reconcile_epoch_into`] a fresh `Vec`.
    pub(crate) fn reconcile_epoch(&mut self, now: Nanos, epoch: u32) -> Vec<BufferId> {
        let mut survivors = Vec::new();
        self.reconcile_epoch_into(now, epoch, &mut survivors);
        survivors
    }

    /// How much each container the buffer keeps can hold.
    pub(crate) fn storage(&self) -> [usize; 7] {
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

    /// How many entries are live.
    pub(crate) fn entry_count(&self) -> usize {
        self.entries.len
    }

    /// The id of the entry in slab slot 0.
    pub(crate) fn first_slot_id(&self) -> BufferId {
        self.entries.slab[0].buffer_id
    }

    /// How many unit slots the slab has made.
    pub(crate) fn unit_slots(&self) -> usize {
        self.units.slab.len()
    }

    /// How many deadlines the request heap holds, superseded ones too.
    pub(crate) fn request_heap_len(&self) -> usize {
        self.request_deadlines.heap.len()
    }

    /// Per flow, the request timeout and the retry policy.
    pub(crate) fn retry_schedule(&self) -> Option<(Nanos, RetryPolicy)> {
        match self.keying {
            Keying::PerFlow { timeout, retry } => Some((timeout, retry)),
            Keying::PerPacket { .. } => None,
        }
    }
}

#[cfg(test)]
mod differential;
#[cfg(test)]
mod spec;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sdnbuf_net::PacketBuilder;

    fn flow_buffer(capacity: usize, timeout: Nanos) -> Buffer {
        Buffer::per_flow(capacity, timeout)
    }

    fn packet_buffer(capacity: usize, free_lag: Nanos) -> Buffer {
        Buffer::per_packet(capacity, free_lag)
    }

    fn no_buffer() -> Buffer {
        Buffer::default()
    }

    #[test]
    fn a_deadline_stays_three_words() {
        // Filing per-packet entries by generation and raw id fits in the
        // niche of the 5-tuple: the heaps grow by no byte.
        assert_eq!(std::mem::size_of::<Reverse<(Nanos, Due)>>(), 24);
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

    mod none;
    mod per_flow;
    mod per_packet;
}
