//! Measurement substrate for `sdn-buffer-lab` — the reproduction's
//! `tcpdump`/`top` stand-in.
//!
//! The paper derives every figure from passive measurements: control-path
//! load from packet captures, CPU usages from `top`, delays from message
//! timestamps, buffer utilization from occupancy samples. This crate
//! provides the equivalent instruments:
//!
//! * [`Counter`] — monotonic event counts.
//! * [`ByteMeter`] — byte/message volume on a link tap, with Mbps rates.
//! * [`Gauge`] — a sampled occupancy value with time-weighted mean and max
//!   (used for buffer utilization, Figs. 8 and 13).
//! * [`Histogram`] — bounded-memory log-bucketed latency histogram with a
//!   bounded relative error and deterministic merge (used by the latency
//!   anatomy reports, where per-phase sample vectors would be unbounded).
//! * [`Summary`] — n/mean/std/min/max/percentiles of a sample set, the
//!   format the paper reports ("mean of 1.17 ms, standard deviation of
//!   0.37 ms, maximum of 5.35 ms"; used for flow-setup, controller and
//!   switch delay, Figs. 5–7 and 12).
//! * [`Table`] — fixed-width text tables and TSV output for the figure
//!   harness.
//!
//! These aggregate a whole run. How a run evolves over time is read off
//! its event stream instead: `sdnbuf_core::observe` windows the stream
//! and draws each series as a sparkline.
//!
//! # Example
//!
//! ```
//! use sdnbuf_metrics::Summary;
//!
//! let s = Summary::of(&[1.0, 3.0]);
//! assert_eq!(s.n, 2);
//! assert!((s.mean - 2.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counter;
mod gauge;
mod histogram;
mod meter;
mod summary;
mod table;

pub use counter::Counter;
pub use gauge::Gauge;
pub use histogram::Histogram;
pub use meter::ByteMeter;
pub use summary::Summary;
pub use table::Table;
