//! # sdn-buffer-lab
//!
//! A faithful, laptop-scale reproduction of *"Adopting SDN Switch Buffer:
//! Benefits Analysis and Mechanism Design"* (Li et al., ICDCS 2017; extended
//! as IEEE TCC 9(1), 2021).
//!
//! This facade crate re-exports the whole workspace under stable module
//! names. See the `README.md` for a tour and `DESIGN.md` for the system
//! inventory.
//!
//! ```
//! use sdn_buffer_lab::prelude::*;
//!
//! # fn main() {
//! let mut exp = Experiment::new(ExperimentConfig {
//!     buffer: BufferMode::PacketGranularity { capacity: 256 },
//!     workload: WorkloadKind::single_packet_flows(100),
//!     sending_rate: BitRate::from_mbps(20),
//!     seed: 1,
//!     ..ExperimentConfig::default()
//! });
//! let run = exp.run();
//! assert_eq!(run.flows_completed, 100);
//! # }
//! ```

#![forbid(unsafe_code)]

/// Packet substrate: Ethernet / IPv4 / UDP / TCP wire formats and flow keys.
pub use sdnbuf_net as net;

/// OpenFlow 1.0-style control protocol with a byte-accurate wire codec.
pub use sdnbuf_openflow as openflow;

/// Deterministic discrete-event simulation engine.
pub use sdnbuf_sim as sim;

/// SDN flow table with priorities, timeouts and eviction.
pub use sdnbuf_flowtable as flowtable;

/// The paper's contribution: switch packet-buffer mechanisms.
pub use sdnbuf_switchbuf as switchbuf;

/// Open vSwitch model (datapath, slow path, OpenFlow agent, CPU/bus).
pub use sdnbuf_switch as switch;

/// Floodlight controller model (reactive forwarding, cost accounting).
pub use sdnbuf_controller as controller;

/// pktgen-style workload generators.
pub use sdnbuf_workload as workload;

/// Measurement substrate: meters, delay recorders, summaries, tables.
pub use sdnbuf_metrics as metrics;

/// Analytic oracle: closed-form predictions for Section IV cells.
pub use sdnbuf_model as model;

/// Experiment orchestration: the Fig. 1 testbed, sweeps and result tables.
pub use sdnbuf_core as core;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use sdnbuf_core::{
        BufferMode, CellKey, Event, EventKind, Experiment, ExperimentConfig, Metric, Parallelism,
        ProgressSink, RateSweep, RunEvents, RunResult, RunSpec, Testbed, TestbedConfig, Tracer,
        WorkloadKind,
    };
    pub use sdnbuf_metrics::Summary;
    pub use sdnbuf_sim::{BitRate, ChannelFaults, FaultPlan, LossModel, Nanos, Window};
}
