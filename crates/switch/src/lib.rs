//! The Open vSwitch model for `sdn-buffer-lab`.
//!
//! A synchronous state machine reproducing how an OpenFlow switch handles
//! traffic and control messages, with an explicit timing model:
//!
//! * **Fast path** — table-hit packets are forwarded after a per-packet
//!   datapath CPU cost (this is a software switch, like the OVS the paper
//!   measures, so data forwarding competes with control processing for the
//!   same cores).
//! * **Slow path** — table-miss packets go to the configured
//!   [`BufferMechanism`]; generating a `packet_in` moves the packet (or
//!   only its header slice, when buffered) across the ASIC↔CPU bus and
//!   then occupies the CPU proportionally to the bytes handled. This
//!   size-dependent cost is the entire Section IV story: without buffering,
//!   1000-byte frames cross the bus and inflate every downstream stage.
//! * **Control plane** — `flow_mod` installs rules that only become
//!   effective when the install job completes (the paper's `t_e`);
//!   `packet_out` releases buffered packets (one for packet-granularity,
//!   the whole flow queue for flow-granularity) or carries the full frame
//!   back across the bus when nothing was buffered.
//!
//! The switch never performs I/O: every handler returns timed
//! [`SwitchOutput`]s that the caller (the testbed in `sdnbuf-core`)
//! schedules. This keeps the model deterministic and unit-testable.
//!
//! # Example
//!
//! ```
//! use sdnbuf_switch::{BufferChoice, PacketPool, Switch, SwitchConfig, SwitchOutput};
//! use sdnbuf_net::PacketBuilder;
//! use sdnbuf_openflow::PortNo;
//! use sdnbuf_sim::Nanos;
//!
//! let mut sw = Switch::new(SwitchConfig {
//!     buffer: BufferChoice::PacketGranularity { capacity: 256 },
//!     ..SwitchConfig::default()
//! });
//! // Packets live in a shared pool; handlers pass 8-byte handles around.
//! let mut pool = PacketPool::new();
//! let pkt = pool.insert(PacketBuilder::udp().frame_size(1000).build());
//! let outputs = sw.handle_frame(Nanos::ZERO, PortNo(1), pkt, &mut pool);
//! // A miss: the only output is a packet_in to the controller.
//! assert!(matches!(outputs[0], SwitchOutput::ToController { .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod degraded;
mod liveness;
mod session;
mod stats;
mod switch;

pub use config::{BufferChoice, SwitchConfig};
pub use stats::{PortCounters, SwitchStats};
pub use switch::{Switch, SwitchOutput};

pub use sdnbuf_switchbuf::{BufferMechanism, PacketHandle, PacketPool};
