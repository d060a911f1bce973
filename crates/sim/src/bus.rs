//! The ASIC↔CPU bus inside a switch: a single-lane, byte-metered pipe.

use crate::events::{EventKind, Tracer};
use crate::{BitRate, Nanos};

/// A single-lane byte pipe with FIFO service.
///
/// Models the PCIe/internal bus between a switch's forwarding plane and its
/// management CPU. He et al. (SOSR'15) — reference \[8\]/\[9\] of the paper —
/// identify this bus as the bottleneck that makes `packet_in` generation and
/// `packet_out` execution slow when whole packets must cross it. Buffering
/// miss-match packets on the forwarding-plane side means only a small header
/// slice crosses the bus, which is precisely the benefit Section IV measures.
///
/// # Example
///
/// ```
/// use sdnbuf_sim::{Bus, BitRate, Nanos};
/// let mut bus = Bus::new(BitRate::from_gbps(1));
/// let a = bus.transfer(Nanos::ZERO, 1000); // 8 us at 1 Gbps
/// let b = bus.transfer(Nanos::ZERO, 1000); // queues behind the first
/// assert_eq!(a, Nanos::from_micros(8));
/// assert_eq!(b, Nanos::from_micros(16));
/// ```
#[derive(Clone, Debug)]
pub struct Bus {
    rate: BitRate,
    ready_at: Nanos,
    busy: Nanos,
    bytes: u64,
    transfers: u64,
    tracer: Tracer,
    label: &'static str,
}

/// A bus of no throughput: the shell a component's `reset` replaces with
/// its configured one. It moves nothing until then.
impl Default for Bus {
    fn default() -> Self {
        Bus::new(BitRate::default())
    }
}

impl Bus {
    /// Creates an idle bus with the given throughput.
    pub fn new(rate: BitRate) -> Self {
        Bus {
            rate,
            ready_at: Nanos::ZERO,
            busy: Nanos::ZERO,
            bytes: 0,
            transfers: 0,
            tracer: Tracer::off(),
            label: "bus",
        }
    }

    /// Attaches an event tracer; `label` names this bus in the stream
    /// (e.g. `"switch-bus"`).
    pub fn set_tracer(&mut self, tracer: Tracer, label: &'static str) {
        self.tracer = tracer;
        self.label = label;
    }

    /// The configured throughput.
    pub fn rate(&self) -> BitRate {
        self.rate
    }

    /// Moves `bytes` across the bus starting no earlier than `now`; returns
    /// the absolute completion time (including queueing behind transfers that
    /// are already in flight).
    pub fn transfer(&mut self, now: Nanos, bytes: usize) -> Nanos {
        let start = self.ready_at.max(now);
        let t = self.rate.transmission_time(bytes);
        self.ready_at = start + t;
        self.busy += t;
        self.bytes += bytes as u64;
        self.transfers += 1;
        self.tracer.emit(
            now,
            EventKind::BusTransfer {
                bus: self.label,
                bytes,
                done: self.ready_at,
            },
        );
        self.ready_at
    }

    /// How long a transfer submitted at `now` would wait before starting.
    pub fn queue_delay(&self, now: Nanos) -> Nanos {
        self.ready_at.saturating_sub(now)
    }

    /// Total bytes moved so far.
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes
    }

    /// Total transfers performed.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Total time the bus spent moving bytes.
    pub fn busy(&self) -> Nanos {
        self.busy
    }

    /// Average utilization over `[ZERO, horizon]`.
    pub fn utilization(&self, horizon: Nanos) -> f64 {
        if horizon == Nanos::ZERO {
            return 0.0;
        }
        self.busy.as_nanos() as f64 / horizon.as_nanos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfers_serialize() {
        let mut bus = Bus::new(BitRate::from_gbps(1));
        assert_eq!(bus.transfer(Nanos::ZERO, 1000), Nanos::from_micros(8));
        assert_eq!(bus.transfer(Nanos::ZERO, 1000), Nanos::from_micros(16));
    }

    #[test]
    fn idle_gap_resets() {
        let mut bus = Bus::new(BitRate::from_gbps(1));
        bus.transfer(Nanos::ZERO, 1000);
        let done = bus.transfer(Nanos::from_millis(1), 1000);
        assert_eq!(done, Nanos::from_millis(1) + Nanos::from_micros(8));
    }

    #[test]
    fn queue_delay_tracks_backlog() {
        let mut bus = Bus::new(BitRate::from_gbps(1));
        assert_eq!(bus.queue_delay(Nanos::ZERO), Nanos::ZERO);
        bus.transfer(Nanos::ZERO, 1000);
        assert_eq!(bus.queue_delay(Nanos::ZERO), Nanos::from_micros(8));
        assert_eq!(bus.queue_delay(Nanos::from_micros(8)), Nanos::ZERO);
    }

    #[test]
    fn accounting() {
        let mut bus = Bus::new(BitRate::from_gbps(1));
        bus.transfer(Nanos::ZERO, 600);
        bus.transfer(Nanos::ZERO, 400);
        assert_eq!(bus.bytes_transferred(), 1000);
        assert_eq!(bus.transfers(), 2);
        assert_eq!(bus.busy(), Nanos::from_micros(8));
        let u = bus.utilization(Nanos::from_micros(16));
        assert!((u - 0.5).abs() < 1e-9);
        assert_eq!(bus.utilization(Nanos::ZERO), 0.0);
    }

    #[test]
    fn zero_byte_transfer_is_instant() {
        let mut bus = Bus::new(BitRate::from_mbps(10));
        assert_eq!(
            bus.transfer(Nanos::from_micros(3), 0),
            Nanos::from_micros(3)
        );
    }
}
