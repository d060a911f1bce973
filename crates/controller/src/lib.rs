//! The Floodlight controller model for `sdn-buffer-lab`.
//!
//! Reproduces Floodlight's reactive forwarding module with an explicit
//! processing-cost model:
//!
//! * Every `packet_in` is parsed at a cost **proportional to the message
//!   size** — the paper's Section IV.B observation: "Without buffer, the
//!   controller needs to capture the header fields of each miss-match
//!   packet from the `pkt_in` messages", and encapsulating the full packet
//!   back into the `pkt_out` is "more time consuming than adopting the
//!   buffer".
//! * The L2 learning table maps MAC addresses to switch ports (learned from
//!   `packet_in`s, seeded by the hosts' gratuitous ARPs at testbed start).
//! * A known destination yields the `flow_mod` + `packet_out` pair the
//!   paper describes; an unknown destination yields a flood `packet_out`
//!   with no rule.
//!
//! Controller CPU usage (Figs. 3 and 10) is the busy fraction of the
//! modeled cores, `top`-style.
//!
//! # Example
//!
//! ```
//! use sdnbuf_controller::{Controller, ControllerConfig, ControllerOutput};
//! use sdnbuf_net::{MacAddr, PacketBuilder};
//! use sdnbuf_openflow::{msg, BufferId, OfpMessage, PortNo};
//! use sdnbuf_sim::Nanos;
//! use std::net::Ipv4Addr;
//!
//! let mut ctrl = Controller::new(ControllerConfig::default());
//! // Teach it where host 2 lives.
//! ctrl.learn(MacAddr::from_host_index(2), PortNo(2));
//!
//! let pkt = PacketBuilder::udp().frame_size(1000).build();
//! let pin = OfpMessage::PacketIn(msg::PacketIn {
//!     buffer_id: BufferId::new(1),
//!     total_len: 1000,
//!     in_port: PortNo(1),
//!     reason: msg::PacketInReason::NoMatch,
//!     data: pkt.wire_prefix(128),
//! });
//! let outs = ctrl.handle_message(Nanos::ZERO, pin, 42);
//! // A known destination: flow_mod + packet_out.
//! assert_eq!(outs.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod controller;
mod headers;
mod stats;

pub use config::{AdmissionPolicy, ControllerConfig, ForwardingMode};
pub use controller::{Controller, ControllerOutput, SwitchFeatures};
pub use headers::ParsedHeaders;
pub use stats::{ControllerStats, EchoRtt};
