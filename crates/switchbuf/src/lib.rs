//! Switch packet-buffer mechanisms — the primary contribution of the paper.
//!
//! When a packet misses the flow table, the switch must ask the controller
//! what to do. *How much* of the packet travels in that request, and *how
//! many* requests a burst of misses generates, is decided by the buffer
//! mechanism:
//!
//! * [`NoBuffer`] — OpenFlow's out-of-the-box behaviour: nothing is
//!   buffered; every miss-match packet rides, in full, inside its
//!   `packet_in`, and comes back in full inside the `packet_out`.
//! * [`PacketGranularityBuffer`] — the default OpenFlow buffer the paper's
//!   Section IV analyses: each miss-match packet is parked in a buffer unit
//!   under its own `buffer_id`; the `packet_in` carries only the first
//!   `miss_send_len` bytes. One `packet_out` releases exactly one packet.
//!   When the buffer is exhausted the switch falls back to sending full
//!   packets (the behaviour behind buffer-16's collapse above ~35 Mbps).
//! * [`FlowGranularityBuffer`] — the paper's proposed mechanism
//!   (Section V, Algorithms 1 and 2): all miss-match packets of one flow
//!   share a single `buffer_id` derived from the 5-tuple; only the *first*
//!   packet of the flow triggers a `packet_in`, subsequent packets are
//!   buffered silently, and one `packet_out` drains the whole per-flow queue
//!   in FIFO order. A re-request timeout (Algorithm 1, line 12) guards
//!   against lost responses.
//!
//! All three implement [`BufferMechanism`], so the switch model is generic
//! over them and every experiment differs in exactly one component.
//!
//! # Example
//!
//! ```
//! use sdnbuf_switchbuf::{BufferMechanism, FlowGranularityBuffer, MissAction, PacketPool};
//! use sdnbuf_net::PacketBuilder;
//! use sdnbuf_openflow::PortNo;
//! use sdnbuf_sim::Nanos;
//!
//! let mut buf = FlowGranularityBuffer::new(256, Nanos::from_millis(50));
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
//! let released = buf.release(Nanos::from_millis(1), id);
//! assert_eq!(released.len(), 2);
//! assert_eq!(buf.occupancy(), 0);
//! for bp in released {
//!     pool.release(bp.packet);
//! }
//! assert!(pool.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flow_gran;
mod mechanism;
mod none;
mod packet_gran;
mod retry;

pub use flow_gran::FlowGranularityBuffer;
pub use mechanism::{
    BufferMechanism, BufferStats, BufferedPacket, MissAction, PacketHandle, PacketPool, Rerequest,
    Sabotage,
};
pub use none::NoBuffer;
pub use packet_gran::PacketGranularityBuffer;
pub use retry::{GaveUpFlow, GiveUp, RetryPolicy, TimeoutSweep};
pub use sdnbuf_openflow::Refusal;
