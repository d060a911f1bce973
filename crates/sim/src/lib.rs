//! Deterministic discrete-event simulation engine for `sdn-buffer-lab`.
//!
//! This crate is the substrate every model in the workspace is built on. It
//! provides:
//!
//! * [`Nanos`] — a nanosecond-resolution virtual clock value, and
//!   [`BitRate`] — link/bus speeds with exact transmission-time arithmetic.
//! * [`EventQueue`] — a stable, deterministic future-event list: events with
//!   equal timestamps fire in insertion order, so identical seeds always
//!   produce identical traces.
//! * [`SimRng`] — a small, seedable, portable PRNG (xoshiro256++), so runs do
//!   not depend on external crate version bumps.
//! * [`Link`] — a point-to-point link model with finite bandwidth,
//!   propagation delay and a bounded FIFO queue (tail-drop).
//! * [`CpuResource`] — a non-preemptive multi-core FIFO server with busy-time
//!   accounting (how "CPU usage" figures in the paper are measured).
//! * [`Bus`] — a single-lane byte pipe modelling the ASIC↔CPU path inside a
//!   switch, the contended resource identified by the paper (He et al.,
//!   SOSR'15) as the root of switch-side control-message latency.
//! * [`events`] — structured event tracing: a [`Tracer`] handle that is
//!   zero-cost when disabled, typed [`EventKind`] records, and pluggable
//!   [`EventSink`] backends (recording / streaming JSONL).
//! * [`JsonWriter`] — the one JSON document writer every report, dump and
//!   histogram in the workspace renders through.
//!
//! # Example
//!
//! ```
//! use sdnbuf_sim::{EventQueue, Nanos, BitRate, Link, LinkConfig};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(Nanos::from_micros(5), "b");
//! q.schedule(Nanos::from_micros(1), "a");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (Nanos::from_micros(1), "a"));
//!
//! let mut link = Link::new(LinkConfig {
//!     bandwidth: BitRate::from_mbps(100),
//!     propagation: Nanos::from_micros(5),
//!     queue_capacity_bytes: 256 * 1024,
//! });
//! // A 1000-byte frame on an idle 100 Mbps link: 80 us serialization + 5 us prop.
//! let arrival = link.enqueue(Nanos::ZERO, 1000).unwrap();
//! assert_eq!(arrival, Nanos::from_micros(85));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus;
pub mod events;
pub mod faults;
pub mod hash;
mod json;
mod link;
mod pool;
mod queue;
mod resource;
mod rng;
mod time;

pub use bus::Bus;
pub use events::{ByteSink, ChannelDir, Event, EventKind, EventSink, RecordingSink, Tracer};
pub use faults::{ChannelFaults, CtrlEffect, FaultPlan, FaultState, LossModel, Window};
pub use hash::{FastHashMap, FastHashSet, FxHasher, Piece};
pub use json::JsonWriter;
pub use link::{Link, LinkConfig, LinkStats};
pub use pool::{Pool, PoolHandle, PoolStats};
pub use queue::EventQueue;
pub use resource::{CpuResource, Utilization};
pub use rng::SimRng;
pub use time::{BitRate, Nanos};
