//! Algorithms 1 and 2 as a small executable spec, the reference
//! `buffer::differential` holds [`Buffer`] to. The spec keeps each
//! entry's packets in an ordered map and finds every deadline by scanning
//! it: no slabs, heaps, index, generations or epochs.

use super::{Buffer, Keying};
use crate::{BufferStats, GiveUp, PacketHandle, PacketPool, Sabotage};
use sdnbuf_net::FlowKey;
use sdnbuf_sim::Nanos;
use std::collections::{BTreeMap, VecDeque};

/// What the spec parks a miss under: its arrival number per packet, its
/// 5-tuple per flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(super) enum Key {
    Arrival(u64),
    Flow(FlowKey),
}

/// One entry: its packets in arrival order, with when each was buffered,
/// and when its last request went out (Algorithm 1's "timestamp") after
/// how many re-requests.
#[derive(Clone, Debug)]
pub(super) struct Entry {
    pub(super) packets: VecDeque<(PacketHandle, Nanos)>,
    requested: Nanos,
    retries: u32,
}

/// What the spec says a miss does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Miss {
    FallBack,
    Announce(Key),
    Join(Key),
    Rerequest(Key),
}

/// What one timeout sweep does, by key, in order.
#[derive(Debug, Default, PartialEq, Eq)]
pub(super) struct Sweep {
    pub(super) expired: Vec<(Key, PacketHandle)>,
    pub(super) rerequests: Vec<(Key, PacketHandle)>,
    pub(super) gave_up: Vec<(Key, Vec<PacketHandle>, GiveUp)>,
}

/// Algorithms 1 and 2, with the fallbacks, the free lag, the TTL, the
/// retry policy and the sabotage the buffer adds to them.
#[derive(Clone, Debug, Default)]
pub(super) struct Spec {
    capacity: usize,
    keying: Keying,
    ttl: Option<Nanos>,
    pub(super) entries: BTreeMap<Key, Entry>,
    /// When each released unit is free again, per packet with a free lag.
    lagging: VecDeque<Nanos>,
    arrivals: u64,
    pub(super) pressured: bool,
    pub(super) sabotage: Sabotage,
    pub(super) stats: BufferStats,
}

impl Spec {
    /// The spec of an empty buffer configured as `buffer`.
    pub(super) fn of(buffer: &Buffer) -> Spec {
        Spec {
            capacity: buffer.capacity,
            keying: buffer.keying,
            ttl: buffer.ttl,
            ..Spec::default()
        }
    }

    pub(super) fn occupancy(&self) -> usize {
        let queued: usize = self.entries.values().map(|q| q.packets.len()).sum();
        queued + self.lagging.len()
    }

    /// When `q`'s next re-request (or give-up) is due, per flow.
    fn request_due(&self, q: &Entry) -> Option<Nanos> {
        let Keying::PerFlow { timeout, retry } = self.keying else {
            return None;
        };
        Some(q.requested + retry.interval_after(timeout, q.retries))
    }

    fn fall_back(&mut self) -> Miss {
        self.stats.fallback_full += 1;
        Miss::FallBack
    }

    pub(super) fn miss(&mut self, now: Nanos, packet: PacketHandle, pool: &PacketPool) -> Miss {
        self.lagging.retain(|&free| free > now);
        let key = match self.keying {
            Keying::PerPacket { .. } => Key::Arrival(self.arrivals),
            // Algorithm 1 keys by 5-tuple, which a non-IP frame lacks.
            Keying::PerFlow { .. } => match pool.get(packet).and_then(FlowKey::of) {
                Some(flow) => Key::Flow(flow),
                None => return self.fall_back(),
            },
        };
        if self.pressured || self.occupancy() >= self.capacity {
            return self.fall_back();
        }
        self.stats.buffered += 1;
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.occupancy() + 1);
        let due = self.entries.get(&key).and_then(|q| self.request_due(q));
        let Some(q) = self.entries.get_mut(&key) else {
            // Lines 6–9: a new entry and its packet_in.
            self.arrivals += 1;
            let q = Entry {
                packets: VecDeque::from([(packet, now)]),
                requested: now,
                retries: 0,
            };
            self.entries.insert(key, q);
            return Miss::Announce(key);
        };
        q.packets.push_back((packet, now));
        let Keying::PerFlow { retry, .. } = self.keying else {
            unreachable!("only flows are joined")
        };
        // Lines 10–13: silent, unless the request timed out and the
        // budget allows another.
        let timed_out = due.is_some_and(|due| now >= due);
        if timed_out && !self.sabotage.disable_rerequest && retry.may_retry(q.retries) {
            (q.requested, q.retries) = (now, q.retries + 1);
            self.stats.rerequests += 1;
            return Miss::Rerequest(key);
        }
        Miss::Join(key)
    }

    /// Algorithm 2: the packet_out for `key` drains its whole FIFO. `None`
    /// names no entry, or one the buffer refused by its tags.
    pub(super) fn release(&mut self, now: Nanos, key: Option<Key>) -> Option<Vec<PacketHandle>> {
        self.lagging.retain(|&free| free > now);
        let Some(q) = key.and_then(|key| self.entries.remove(&key)) else {
            self.stats.invalid_releases += 1;
            return None;
        };
        self.stats.released += q.packets.len() as u64;
        if let Keying::PerPacket { free_lag } = self.keying {
            if free_lag > Nanos::ZERO {
                self.lagging.push_back(now + free_lag);
            }
        }
        Some(q.packets.into_iter().map(|(packet, _)| packet).collect())
    }

    fn expiry_due(&self, q: &Entry) -> Option<Nanos> {
        let ttl = self.ttl.filter(|_| !self.sabotage.disable_ttl_gc)?;
        Some(q.packets.front()?.1 + ttl)
    }

    pub(super) fn next_timeout(&self) -> Option<Nanos> {
        let requests = !self.sabotage.disable_rerequest;
        let due = |q| [self.request_due(q).filter(|_| requests), self.expiry_due(q)];
        self.entries.values().flat_map(due).flatten().min()
    }

    pub(super) fn poll(&mut self, now: Nanos, pool: &PacketPool) -> Sweep {
        let mut sweep = Sweep::default();
        // The TTL sweep, in (deadline, key) order: each entry due drops
        // all of its packets that are due, from the head.
        while let Some((_, key)) = (self.entries.iter())
            .filter_map(|(key, q)| Some((self.expiry_due(q)?, *key)))
            .filter(|&(due, _)| due <= now)
            .min()
        {
            let q = self.entries.get_mut(&key).expect("due");
            let ttl = self.ttl.expect("a TTL is due");
            while q.packets.front().is_some_and(|&(_, at)| at + ttl <= now) {
                let (packet, _) = q.packets.pop_front().expect("due");
                self.stats.expired += 1;
                self.stats.expired_bytes += pool.get(packet).map_or(0, |p| p.wire_len()) as u64;
                sweep.expired.push((key, packet));
            }
            if q.packets.is_empty() {
                self.entries.remove(&key);
            }
        }
        // Then the flows whose request timed out, in key order.
        let (Keying::PerFlow { retry, .. }, false) = (self.keying, self.sabotage.disable_rerequest)
        else {
            return sweep;
        };
        let due: Vec<Key> = (self.entries.iter())
            .filter(|(_, q)| self.request_due(q).is_some_and(|due| due <= now))
            .map(|(key, _)| *key)
            .collect();
        for key in due {
            let q = self.entries.get_mut(&key).expect("due");
            if retry.may_retry(q.retries) {
                (q.requested, q.retries) = (now, q.retries + 1);
                self.stats.rerequests += 1;
                sweep.rerequests.push((key, q.packets[0].0));
                continue;
            }
            let q = self.entries.remove(&key).expect("due");
            self.stats.giveups += 1;
            let packets = q.packets.into_iter().map(|(packet, _)| packet).collect();
            sweep.gave_up.push((key, packets, retry.give_up()));
        }
        sweep
    }

    /// A new controller session: every entry's retry clock restarts.
    pub(super) fn reconcile(&mut self, now: Nanos) -> Vec<Key> {
        if self.sabotage.broken_epoch {
            return Vec::new();
        }
        for q in self.entries.values_mut() {
            (q.requested, q.retries) = (now, 0);
        }
        self.entries.keys().copied().collect()
    }
}
