//! A point-to-point link with finite bandwidth, propagation delay and a
//! bounded drop-tail FIFO queue.

use crate::events::{EventKind, Tracer};
use crate::time::NS_PER_BYTE_AT_1BPS;
use crate::{BitRate, Nanos};

/// Static configuration of a [`Link`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkConfig {
    /// Serialization rate of the line.
    pub bandwidth: BitRate,
    /// One-way propagation delay added after serialization completes.
    pub propagation: Nanos,
    /// Maximum transmit backlog in bytes; a frame that would push the
    /// backlog past this limit is tail-dropped.
    pub queue_capacity_bytes: usize,
}

impl LinkConfig {
    /// A 100 Mbps Ethernet segment with a 5 µs propagation delay and a
    /// 256 KiB interface queue — the link flavour used throughout the
    /// paper's testbed (Fig. 1).
    pub fn fast_ethernet() -> Self {
        LinkConfig {
            bandwidth: BitRate::from_mbps(100),
            propagation: Nanos::from_micros(5),
            queue_capacity_bytes: 256 * 1024,
        }
    }
}

/// Running statistics of a [`Link`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames accepted and (eventually) delivered.
    pub frames_sent: u64,
    /// Payload bytes accepted.
    pub bytes_sent: u64,
    /// Frames rejected because the queue was full.
    pub frames_dropped: u64,
    /// Bytes rejected because the queue was full.
    pub bytes_dropped: u64,
    /// Total time the line spent serializing frames.
    pub busy: Nanos,
    /// Largest backlog observed at any enqueue instant, in bytes.
    pub max_backlog_bytes: usize,
}

/// A unidirectional point-to-point link.
///
/// The transmitter is a single serializer: frames are sent strictly FIFO and
/// a frame enqueued while the line is busy waits behind the current backlog.
/// The backlog is bounded in bytes; excess frames are dropped at the tail,
/// matching a real interface queue.
///
/// [`Link::enqueue`] returns the absolute arrival time of the frame at the
/// far end (serialization completion plus propagation), or `None` on drop.
/// The caller schedules the corresponding delivery event — the link itself
/// holds no event queue, which keeps it trivially testable.
///
/// # Example
///
/// ```
/// use sdnbuf_sim::{Link, LinkConfig, BitRate, Nanos};
/// let mut link = Link::new(LinkConfig {
///     bandwidth: BitRate::from_mbps(100),
///     propagation: Nanos::ZERO,
///     queue_capacity_bytes: 10_000,
/// });
/// let a = link.enqueue(Nanos::ZERO, 1000).unwrap();
/// let b = link.enqueue(Nanos::ZERO, 1000).unwrap(); // queues behind the first
/// assert_eq!(a, Nanos::from_micros(80));
/// assert_eq!(b, Nanos::from_micros(160));
/// ```
#[derive(Clone, Debug)]
pub struct Link {
    config: LinkConfig,
    /// Instant the serializer finishes everything accepted so far.
    ready_at: Nanos,
    stats: LinkStats,
    tracer: Tracer,
    label: &'static str,
}

/// An idle [`LinkConfig::fast_ethernet`] link.
impl Default for Link {
    fn default() -> Self {
        Link::new(LinkConfig::fast_ethernet())
    }
}

impl Link {
    /// Creates an idle link.
    pub fn new(config: LinkConfig) -> Self {
        Link {
            config,
            ready_at: Nanos::ZERO,
            stats: LinkStats::default(),
            tracer: Tracer::off(),
            label: "link",
        }
    }

    /// Attaches an event tracer; `label` names this link in the stream
    /// (e.g. `"h1->sw"`).
    pub fn set_tracer(&mut self, tracer: Tracer, label: &'static str) {
        self.tracer = tracer;
        self.label = label;
    }

    /// The link's static configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Offers a frame of `bytes` bytes to the link at time `now`.
    ///
    /// Returns the absolute time the frame arrives at the far end, or `None`
    /// if the transmit queue is full and the frame is dropped.
    pub fn enqueue(&mut self, now: Nanos, bytes: usize) -> Option<Nanos> {
        let backlog = self.backlog_bytes(now);
        if backlog + bytes > self.config.queue_capacity_bytes {
            self.stats.frames_dropped += 1;
            self.stats.bytes_dropped += bytes as u64;
            self.tracer.emit(
                now,
                EventKind::LinkDrop {
                    link: self.label,
                    bytes,
                },
            );
            return None;
        }
        self.stats.max_backlog_bytes = self.stats.max_backlog_bytes.max(backlog + bytes);
        let start = self.ready_at.max(now);
        let tx = self.config.bandwidth.transmission_time(bytes);
        self.ready_at = start + tx;
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += bytes as u64;
        self.stats.busy += tx;
        let arrive = self.ready_at + self.config.propagation;
        self.tracer.emit(
            now,
            EventKind::LinkTx {
                link: self.label,
                bytes,
                arrive,
            },
        );
        Some(arrive)
    }

    /// Bytes currently waiting to be serialized (fluid approximation:
    /// remaining busy time × line rate).
    pub fn backlog_bytes(&self, now: Nanos) -> usize {
        let remaining = self.ready_at.saturating_sub(now).as_nanos();
        if remaining == 0 {
            return 0;
        }
        let bps = self.config.bandwidth.as_bps();
        // As in `BitRate::transmission_time`: the wide division (a libcall)
        // serves only a backlog whose ns × bps outgrows a `u64`, which is
        // 184 s of it at 100 Mbps.
        match remaining.checked_mul(bps) {
            Some(bit_ns) => (bit_ns / NS_PER_BYTE_AT_1BPS) as usize,
            None => (remaining as u128 * bps as u128 / NS_PER_BYTE_AT_1BPS as u128) as usize,
        }
    }

    /// The instant the serializer goes idle given everything accepted so far.
    pub fn ready_at(&self) -> Nanos {
        self.ready_at
    }

    /// Running statistics.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// Average utilization of the line over `[ZERO, horizon]`.
    pub fn utilization(&self, horizon: Nanos) -> f64 {
        if horizon == Nanos::ZERO {
            return 0.0;
        }
        self.stats.busy.as_nanos() as f64 / horizon.as_nanos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(bw_mbps: u64, prop_us: u64, cap: usize) -> Link {
        Link::new(LinkConfig {
            bandwidth: BitRate::from_mbps(bw_mbps),
            propagation: Nanos::from_micros(prop_us),
            queue_capacity_bytes: cap,
        })
    }

    #[test]
    fn idle_link_delivers_after_tx_plus_prop() {
        let mut l = mk(100, 5, 1 << 20);
        let at = l.enqueue(Nanos::ZERO, 1000).unwrap();
        assert_eq!(at, Nanos::from_micros(85));
    }

    #[test]
    fn frames_serialize_back_to_back() {
        let mut l = mk(100, 0, 1 << 20);
        let a = l.enqueue(Nanos::ZERO, 1000).unwrap();
        let b = l.enqueue(Nanos::ZERO, 1000).unwrap();
        let c = l.enqueue(Nanos::from_micros(10), 500).unwrap();
        assert_eq!(a, Nanos::from_micros(80));
        assert_eq!(b, Nanos::from_micros(160));
        assert_eq!(c, Nanos::from_micros(200));
    }

    #[test]
    fn idle_gap_resets_start_time() {
        let mut l = mk(100, 0, 1 << 20);
        l.enqueue(Nanos::ZERO, 1000).unwrap();
        // Line idle again at 80us; a frame at 1ms starts immediately.
        let at = l.enqueue(Nanos::from_millis(1), 1000).unwrap();
        assert_eq!(at, Nanos::from_millis(1) + Nanos::from_micros(80));
    }

    #[test]
    fn drops_when_queue_full() {
        let mut l = mk(100, 0, 1500);
        assert!(l.enqueue(Nanos::ZERO, 1000).is_some());
        // Backlog at t=0 is now 1000 bytes; a 1000-byte frame exceeds 1500.
        assert!(l.enqueue(Nanos::ZERO, 1000).is_none());
        assert_eq!(l.stats().frames_dropped, 1);
        assert_eq!(l.stats().bytes_dropped, 1000);
        // 500 bytes still fits.
        assert!(l.enqueue(Nanos::ZERO, 500).is_some());
    }

    #[test]
    fn backlog_drains_over_time() {
        let mut l = mk(100, 0, 1 << 20);
        l.enqueue(Nanos::ZERO, 1000).unwrap();
        assert_eq!(l.backlog_bytes(Nanos::ZERO), 1000);
        assert_eq!(l.backlog_bytes(Nanos::from_micros(40)), 500);
        assert_eq!(l.backlog_bytes(Nanos::from_micros(80)), 0);
        assert_eq!(l.backlog_bytes(Nanos::from_millis(1)), 0);
    }

    #[test]
    fn stats_accumulate() {
        let mut l = mk(100, 0, 1 << 20);
        l.enqueue(Nanos::ZERO, 1000).unwrap();
        l.enqueue(Nanos::ZERO, 500).unwrap();
        let s = l.stats();
        assert_eq!(s.frames_sent, 2);
        assert_eq!(s.bytes_sent, 1500);
        assert_eq!(s.busy, Nanos::from_micros(120));
        assert_eq!(s.max_backlog_bytes, 1500);
    }

    #[test]
    fn utilization_fraction() {
        let mut l = mk(100, 0, 1 << 20);
        l.enqueue(Nanos::ZERO, 1000).unwrap(); // busy 80us
        let u = l.utilization(Nanos::from_micros(160));
        assert!((u - 0.5).abs() < 1e-9);
        assert_eq!(l.utilization(Nanos::ZERO), 0.0);
    }

    #[test]
    fn fast_ethernet_preset() {
        let c = LinkConfig::fast_ethernet();
        assert_eq!(c.bandwidth, BitRate::from_mbps(100));
        assert_eq!(c.propagation, Nanos::from_micros(5));
    }
}
