//! Experiment orchestration for `sdn-buffer-lab`: the paper's Fig. 1
//! testbed, its two experiments, and the per-figure result tables.
//!
//! [`Testbed`] wires the models together exactly like the paper's platform:
//! `Host1 ↔ OVS ↔ Host2` over 100 Mbps links, the switch connected to a
//! Floodlight-model controller over a metered control channel, `tcpdump`
//! equivalents tapping every link, gratuitous-ARP warm-up so the controller
//! knows host locations before measurement traffic starts.
//!
//! [`Experiment`] runs one (buffer mechanism, workload, rate, seed)
//! combination to a [`RunResult`]; [`RateSweep`] repeats it across the
//! paper's 5–100 Mbps sweep with 20 seeded repetitions and aggregates
//! per-figure series (the `figures` module renders them as tables).
//!
//! # Example
//!
//! ```
//! use sdnbuf_core::{BufferMode, Experiment, ExperimentConfig, WorkloadKind};
//! use sdnbuf_sim::BitRate;
//!
//! let run = Experiment::new(ExperimentConfig {
//!     buffer: BufferMode::PacketGranularity { capacity: 256 },
//!     workload: WorkloadKind::single_packet_flows(100),
//!     sending_rate: BitRate::from_mbps(20),
//!     seed: 1,
//!     ..ExperimentConfig::default()
//! })
//! .run();
//! assert_eq!(run.flows_completed, 100);
//! assert_eq!(run.packets_delivered, 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
mod executor;
mod experiment;
pub mod figures;
pub mod flightrec;
pub mod invariants;
mod measure;
mod metric;
pub mod observe;
pub mod report;
pub mod repro;
mod result;
#[cfg(test)]
mod series;
mod shrink;
pub mod spans;
mod spec;
mod testbed;
mod trace;
pub mod validate;

pub use executor::{
    Executor, ExecutorReport, NullSink, Parallelism, Progress, ProgressSink, StderrProgress,
    WorkerStats,
};
pub use experiment::{
    parse_rate_mbps, CellKey, Experiment, ExperimentConfig, RateSweep, RunEvents, SweepCell,
    SweepResult, WorkloadKind,
};
pub use measure::PacketTrace;
pub use metric::Metric;
pub use result::RunResult;
pub use spec::{RunSpec, StandbyKnobs};
pub use testbed::{FailoverConfig, Testbed, TestbedConfig};
pub use trace::MsgDesc;

/// The structured event layer, re-exported from the simulation engine.
pub use sdnbuf_sim::{ChannelDir, Event, EventKind, EventSink, RecordingSink, Tracer};

/// The buffer mechanism under test — re-exported from the switch model so
/// experiment configs and switch configs share one vocabulary.
pub use sdnbuf_switch::BufferChoice as BufferMode;
