//! The switch packet buffer — the primary contribution of the paper.
//!
//! When a packet misses the flow table, the switch must ask the controller
//! what to do. *How much* of the packet travels in that request, and *how
//! many* requests a burst of misses generates, is decided by the buffer
//! mechanism. The paper's mechanisms — no buffer, OpenFlow's per-packet
//! buffer (Section IV) and the proposed per-flow buffer (Section V,
//! Algorithms 1 and 2) — differ in one decision, the key a miss is parked
//! under, so one [`Buffer`] implements them all. It implements
//! [`BufferMechanism`], the interface the switch's slow path drives, and
//! is held to a test-only executable spec of Algorithms 1 and 2
//! (`buffer/spec.rs`). [`NoBuffer`], [`PacketGranularityBuffer`] and
//! [`FlowGranularityBuffer`] are the mechanisms' former constructors, kept
//! for `benchmark/`.
//!
//! # Example
//!
//! ```
//! use sdnbuf_switchbuf::{Buffer, BufferMechanism, MissAction, PacketPool};
//! use sdnbuf_net::PacketBuilder;
//! use sdnbuf_openflow::PortNo;
//! use sdnbuf_sim::Nanos;
//!
//! let mut buf = Buffer::per_flow(256, Nanos::from_millis(50));
//! let mut pool = PacketPool::new();
//! let p1 = pool.insert(PacketBuilder::udp().src_port(7).build());
//! let p2 = pool.insert(PacketBuilder::udp().src_port(7).frame_size(1400).build());
//!
//! // First miss of the flow: buffered, one packet_in goes out.
//! let a1 = buf.on_miss(Nanos::ZERO, p1, PortNo(1), &pool);
//! let id = match a1 { MissAction::SendBufferedPacketIn { buffer_id } => buffer_id, _ => panic!() };
//! // Second miss of the same flow: buffered silently — no packet_in.
//! let a2 = buf.on_miss(Nanos::from_micros(10), p2, PortNo(1), &pool);
//! assert_eq!(a2, MissAction::Buffered { buffer_id: id });
//!
//! // One packet_out drains the whole flow, in arrival order; the caller
//! // inherits the released pool references.
//! let mut released = Vec::new();
//! assert_eq!(buf.release_into(Nanos::from_millis(1), id, &mut released), Ok(2));
//! assert_eq!(buf.occupancy(), 0);
//! for bp in released {
//!     pool.release(bp.packet);
//! }
//! assert!(pool.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod mechanism;
mod retry;

// Each mechanism's unit tests (`buffer/tests/`) run twice: in
// `buffer::tests` against `Buffer`'s own constructors, and here, under the
// module names they had beside the per-mechanism implementations `Buffer`
// replaced, against the constructors kept for `benchmark/`.
#[cfg(test)]
#[path = "buffer/tests"]
mod flow_gran {
    use crate::{Buffer, FlowGranularityBuffer};
    use sdnbuf_sim::Nanos;

    fn flow_buffer(capacity: usize, timeout: Nanos) -> Buffer {
        FlowGranularityBuffer::new(capacity, timeout)
    }

    #[allow(clippy::duplicate_mod)]
    #[path = "per_flow.rs"]
    mod tests;
}

#[cfg(test)]
#[path = "buffer/tests"]
mod packet_gran {
    use crate::{Buffer, PacketGranularityBuffer};
    use sdnbuf_sim::Nanos;

    fn packet_buffer(capacity: usize, free_lag: Nanos) -> Buffer {
        PacketGranularityBuffer::with_free_lag(capacity, free_lag)
    }

    #[allow(clippy::duplicate_mod)]
    #[path = "per_packet.rs"]
    mod tests;
}

#[cfg(test)]
#[path = "buffer/tests"]
mod none {
    use crate::{Buffer, NoBuffer};

    fn no_buffer() -> Buffer {
        NoBuffer::new()
    }

    #[allow(clippy::duplicate_mod)]
    #[path = "none.rs"]
    mod tests;
}

pub use buffer::{Buffer, FlowGranularityBuffer, NoBuffer, PacketGranularityBuffer};
pub use mechanism::{
    BufferMechanism, BufferStats, BufferedPacket, MissAction, PacketHandle, PacketPool, Rerequest,
    Sabotage,
};
pub use retry::{GaveUpFlow, GiveUp, RetryPolicy, TimeoutSweep};
pub use sdnbuf_openflow::Refusal;
