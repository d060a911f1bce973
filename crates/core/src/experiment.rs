//! Experiments: one run, and the paper's rate sweeps.
//!
//! A sweep is a [`RateSweep`] value: a paper preset, with any of its
//! public fields overridden. It is executed with [`RateSweep::run`]
//! (serial) or [`RateSweep::run_with`] (parallel, via the
//! [`crate::executor`] worker pool). Every (buffer, rate, repetition) run
//! owns its seed and a fresh [`Testbed`], so the result is bit-identical
//! under any worker count.

use crate::executor::{Executor, NullSink, Parallelism, Progress, ProgressSink};
use crate::{BufferMode, Metric, RunResult, Testbed, TestbedConfig};
use sdnbuf_sim::faults::{fmt_dur, parse_dur};
use sdnbuf_sim::{BitRate, Event, Nanos, Tracer};
use sdnbuf_switchbuf::Sabotage;
use sdnbuf_workload::{
    cross_sequenced_flows, mixed_udp_tcp, single_packet_flows, tcp_with_idle_gap, Departure,
    PktgenConfig,
};
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Which traffic the workload generator produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Section IV: `n_flows` single-packet UDP flows with forged sources.
    SinglePacketFlows {
        /// Number of flows (= packets). The paper uses 1000.
        n_flows: usize,
    },
    /// Section V: `n_flows × packets_per_flow` packets, cross-sequenced in
    /// batches of `group_size` flows.
    CrossSequenced {
        /// Number of flows (paper: 50).
        n_flows: usize,
        /// Packets per flow (paper: 20).
        packets_per_flow: usize,
        /// Flows interleaved per batch (paper: 5).
        group_size: usize,
    },
    /// Section VI.B: a TCP connection with an idle gap long enough for its
    /// rule to expire, then a resumed burst.
    TcpEviction {
        /// Segments before the idle gap.
        first_burst: usize,
        /// The idle gap.
        idle_gap: Nanos,
        /// Segments after the gap.
        second_burst: usize,
    },
    /// A UDP flow flood mixed with well-behaved TCP connections.
    MixedUdpTcp {
        /// Single-packet UDP flows.
        n_udp_flows: usize,
        /// TCP connections.
        n_tcp: usize,
        /// Data segments per TCP connection.
        segments_per_tcp: usize,
    },
}

impl WorkloadKind {
    /// Section IV's workload at a custom flow count.
    pub fn single_packet_flows(n_flows: usize) -> WorkloadKind {
        WorkloadKind::SinglePacketFlows { n_flows }
    }

    /// The exact Section IV workload: 1000 single-packet flows.
    pub fn paper_section_iv() -> WorkloadKind {
        WorkloadKind::SinglePacketFlows { n_flows: 1000 }
    }

    /// The exact Section V workload: 50 flows × 20 packets, cross-sequenced
    /// in groups of 5.
    pub fn paper_section_v() -> WorkloadKind {
        WorkloadKind::CrossSequenced {
            n_flows: 50,
            packets_per_flow: 20,
            group_size: 5,
        }
    }

    /// Checks that the generator can give every packet a wire identity of
    /// its own — [`Testbed::run`]'s contract — and that it does not panic.
    /// Each limit is where a generator stops doing so:
    /// - 65 536 packets in a flow, what the IPv4 identification numbers
    ///   (`cross:` packets per flow, `tcp:` first + second + 2, `mixed:`
    ///   segments + 2: a handshake's two and the data);
    /// - 2²³ flows with forged sources, what `10.128.0.0/9` holds
    ///   (`single:`, `cross:`, and `mixed:`'s UDP flows);
    /// - 25 536 TCP connections in `mixed:`, source ports 40 000 to 65 535;
    /// - and a `cross:` group of at least one flow.
    pub fn validate(&self) -> Result<(), String> {
        let (forged_flows, packets_per_flow, tcp_connections) = match *self {
            WorkloadKind::SinglePacketFlows { n_flows } => (n_flows, 1, 0),
            WorkloadKind::CrossSequenced {
                n_flows,
                packets_per_flow,
                group_size,
            } => {
                if group_size == 0 {
                    return Err("group size must be at least 1".to_owned());
                }
                (n_flows, packets_per_flow, 0)
            }
            WorkloadKind::TcpEviction {
                first_burst,
                second_burst,
                ..
            } => {
                let packets = first_burst.saturating_add(second_burst);
                (0, packets.saturating_add(2), 0)
            }
            WorkloadKind::MixedUdpTcp {
                n_udp_flows,
                n_tcp,
                segments_per_tcp,
            } => (n_udp_flows, segments_per_tcp.saturating_add(2), n_tcp),
        };
        for (got, limit, what) in [
            (packets_per_flow, 1 << 16, "packets per flow"),
            (forged_flows, 1 << 23, "flows with forged sources"),
            (tcp_connections, 65_536 - 40_000, "TCP connections"),
        ] {
            if got > limit {
                return Err(format!("at most {limit} {what}, got {got}"));
            }
        }
        Ok(())
    }

    /// Generates the departures for this workload.
    pub fn generate(&self, pktgen: &PktgenConfig, seed: u64) -> Vec<Departure> {
        match *self {
            WorkloadKind::SinglePacketFlows { n_flows } => {
                single_packet_flows(pktgen, n_flows, seed)
            }
            WorkloadKind::CrossSequenced {
                n_flows,
                packets_per_flow,
                group_size,
            } => cross_sequenced_flows(pktgen, n_flows, packets_per_flow, group_size, seed),
            WorkloadKind::TcpEviction {
                first_burst,
                idle_gap,
                second_burst,
            } => tcp_with_idle_gap(pktgen, first_burst, idle_gap, second_burst, seed),
            WorkloadKind::MixedUdpTcp {
                n_udp_flows,
                n_tcp,
                segments_per_tcp,
            } => mixed_udp_tcp(pktgen, n_udp_flows, n_tcp, segments_per_tcp, seed),
        }
    }
}

/// The workload grammar every CLI flag and replay spec shares:
/// `single:<flows>`, `cross:<flows>x<pkts>/<group>`,
/// `tcp:<first>:<gap>:<second>`, `mixed:<udp>:<tcp>:<segments>`. Parsing
/// restores the displayed value exactly, for every value
/// [`WorkloadKind::validate`] accepts.
impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WorkloadKind::SinglePacketFlows { n_flows } => write!(f, "single:{n_flows}"),
            WorkloadKind::CrossSequenced {
                n_flows,
                packets_per_flow,
                group_size,
            } => write!(f, "cross:{n_flows}x{packets_per_flow}/{group_size}"),
            WorkloadKind::TcpEviction {
                first_burst,
                idle_gap,
                second_burst,
            } => write!(f, "tcp:{first_burst}:{}:{second_burst}", fmt_dur(idle_gap)),
            WorkloadKind::MixedUdpTcp {
                n_udp_flows,
                n_tcp,
                segments_per_tcp,
            } => write!(f, "mixed:{n_udp_flows}:{n_tcp}:{segments_per_tcp}"),
        }
    }
}

/// Accepts what [`WorkloadKind`]'s `Display` prints, plus the aliases `iv`
/// and `v` for the paper's Section IV and Section V workloads, and refuses
/// what [`WorkloadKind::validate`] refuses.
impl FromStr for WorkloadKind {
    type Err = String;

    fn from_str(s: &str) -> Result<WorkloadKind, String> {
        let int = |v: &str| -> Result<usize, String> {
            v.parse().map_err(|_| format!("bad number '{v}' in '{s}'"))
        };
        let (kind, rest) = s.split_once(':').unwrap_or((s, ""));
        let triple = |shape: &str| {
            let mut fields = rest.splitn(3, ':');
            match (fields.next(), fields.next(), fields.next()) {
                (Some(a), Some(b), Some(c)) => Ok((a, b, c)),
                _ => Err(format!("expected {shape}, got '{s}'")),
            }
        };
        let kind = match kind {
            "iv" if s == kind => WorkloadKind::paper_section_iv(),
            "v" if s == kind => WorkloadKind::paper_section_v(),
            "single" => WorkloadKind::SinglePacketFlows {
                n_flows: int(rest)?,
            },
            "cross" => {
                let bad = || format!("expected cross:<flows>x<pkts>/<group>, got '{s}'");
                let (flows, tail) = rest.split_once('x').ok_or_else(bad)?;
                let (pkts, group) = tail.split_once('/').ok_or_else(bad)?;
                WorkloadKind::CrossSequenced {
                    n_flows: int(flows)?,
                    packets_per_flow: int(pkts)?,
                    group_size: int(group)?,
                }
            }
            "tcp" => {
                let (first, gap, second) = triple("tcp:<first>:<gap>:<second>")?;
                WorkloadKind::TcpEviction {
                    first_burst: int(first)?,
                    idle_gap: parse_dur(gap)?,
                    second_burst: int(second)?,
                }
            }
            "mixed" => {
                let (udp, tcp, segments) = triple("mixed:<udp>:<tcp>:<segments>")?;
                WorkloadKind::MixedUdpTcp {
                    n_udp_flows: int(udp)?,
                    n_tcp: int(tcp)?,
                    segments_per_tcp: int(segments)?,
                }
            }
            _ => {
                return Err(format!(
                    "bad workload '{s}' (expected iv, v, single:, cross:, tcp: or mixed:)"
                ))
            }
        };
        kind.validate().map_err(|e| format!("{e} in '{s}'"))?;
        Ok(kind)
    }
}

/// The sending-rate grammar every CLI flag and replay spec shares: whole
/// Mbps from 1 up to `u64::MAX / 10⁶`, the largest rate whose bits per
/// second [`BitRate::from_mbps`] can hold.
pub fn parse_rate_mbps(s: &str) -> Result<u64, String> {
    const MAX: u64 = u64::MAX / 1_000_000;
    match s.parse() {
        Ok(mbps @ 1..=MAX) => Ok(mbps),
        Ok(_) => Err(format!("rate must be 1 to {MAX} Mbps, got '{s}'")),
        Err(_) => Err(format!("bad rate '{s}'")),
    }
}

/// Configuration of one experiment run.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Buffer mechanism under test.
    pub buffer: BufferMode,
    /// Traffic to offer.
    pub workload: WorkloadKind,
    /// Sending rate.
    pub sending_rate: BitRate,
    /// Ethernet frame size (paper: 1000 bytes).
    pub frame_size: usize,
    /// Seed for the workload's departure jitter.
    pub seed: u64,
    /// The testbed (its `switch.buffer` is overridden by `buffer`).
    pub testbed: TestbedConfig,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            buffer: BufferMode::NoBuffer,
            workload: WorkloadKind::paper_section_iv(),
            sending_rate: BitRate::from_mbps(50),
            frame_size: 1000,
            seed: 1,
            testbed: TestbedConfig::default(),
        }
    }
}

impl ExperimentConfig {
    /// Checks the configuration — including the embedded testbed and its
    /// fault plan — for values that would panic or wedge the models
    /// mid-run, so misconfigurations fail loudly at construction instead.
    pub fn validate(&self) -> Result<(), String> {
        self.buffer.validate()?;
        self.workload.validate()?;
        // A frame is at most what an IPv4 total length can describe; a
        // larger one would space departures past the end of time.
        if !(1..=65_535).contains(&self.frame_size) {
            return Err(format!(
                "frame size must be 1 to 65535 bytes, got {}",
                self.frame_size
            ));
        }
        if self.sending_rate.as_mbps_f64() <= 0.0 {
            return Err("sending rate must be positive".to_owned());
        }
        self.testbed.validate()
    }

    /// Runs this configuration on a fresh testbed with `tracer` attached
    /// and the buffer mechanism crippled as `sabotage` asks
    /// ([`Sabotage::none`] but for the chaos harness's self-tests).
    pub(crate) fn run(self, tracer: Tracer, sabotage: Sabotage) -> RunResult {
        let pktgen = PktgenConfig {
            rate: self.sending_rate,
            frame_size: self.frame_size,
            ..PktgenConfig::default()
        };
        let departures = self.workload.generate(&pktgen, self.seed);
        let mut testbed_cfg = self.testbed;
        testbed_cfg.switch.buffer = self.buffer;
        let mut testbed = Testbed::new(testbed_cfg);
        testbed.switch_mut().sabotage_buffer(sabotage);
        testbed.set_tracer(tracer);
        let mut result = testbed.run(&departures);
        result.sending_rate_mbps = self.sending_rate.as_mbps_f64();
        result
    }
}

/// One experiment: a (buffer, workload, rate, seed) combination.
#[derive(Clone, Debug)]
pub struct Experiment {
    config: ExperimentConfig,
}

impl Experiment {
    /// Creates the experiment.
    ///
    /// # Panics
    /// If the configuration is invalid — zero buffer capacity, a workload
    /// [`WorkloadKind::validate`] refuses, a zero frame size, or an
    /// inconsistent fault plan (e.g. an every-nth loss of 0, which would
    /// divide by zero mid-run). See [`Experiment::try_new`] for the
    /// non-panicking form.
    pub fn new(config: ExperimentConfig) -> Experiment {
        match Experiment::try_new(config) {
            Ok(exp) => exp,
            Err(e) => panic!("invalid ExperimentConfig: {e}"),
        }
    }

    /// [`Experiment::new`] with the validation error returned instead of
    /// panicking — the single validation path for experiment construction.
    pub fn try_new(config: ExperimentConfig) -> Result<Experiment, String> {
        config.validate()?;
        Ok(Experiment { config })
    }

    /// The configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Runs it on a fresh testbed and returns the measurements.
    pub fn run(&mut self) -> RunResult {
        self.run_with_tracer(Tracer::off())
    }

    /// Runs it on a fresh testbed with the given event tracer attached
    /// (see [`Testbed::set_tracer`]).
    pub fn run_with_tracer(&mut self, tracer: Tracer) -> RunResult {
        self.config.clone().run(tracer, Sabotage::none())
    }

    /// Runs it with an unbounded recording sink attached and returns the
    /// measurements together with the structured event stream, in emission
    /// order. The stream is deterministic for a fixed configuration and
    /// seed — byte-identical JSONL across runs and worker counts.
    pub fn run_traced(&mut self) -> (RunResult, Vec<Event>) {
        let (tracer, sink) = Tracer::recording(0);
        let result = self.run_with_tracer(tracer);
        let events = sink.borrow_mut().take();
        (result, events)
    }
}

/// The identity of one sweep cell: which mechanism at which rate.
///
/// This replaces string-label lookups — a typo in a label is a compile
/// error here, not a silent `0.0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// Buffer mechanism.
    pub mode: BufferMode,
    /// Sending rate in Mbps.
    pub rate_mbps: u64,
}

impl CellKey {
    /// The key for `mode` at `rate_mbps`.
    pub fn new(mode: BufferMode, rate_mbps: u64) -> CellKey {
        CellKey { mode, rate_mbps }
    }
}

/// One cell of a sweep: all repetitions of a (buffer, rate) combination.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepCell {
    /// The buffer mechanism's label (`mode.label()`).
    pub label: String,
    /// The buffer mechanism.
    pub mode: BufferMode,
    /// The sending rate in Mbps.
    pub rate_mbps: u64,
    /// One [`RunResult`] per repetition.
    pub runs: Vec<RunResult>,
}

impl SweepCell {
    /// This cell's key.
    pub fn key(&self) -> CellKey {
        CellKey::new(self.mode, self.rate_mbps)
    }
}

/// The results of a full sweep: cells in deterministic grid order (buffer
/// major, then rate), with a keyed index for O(1) lookup.
#[derive(Clone, Default)]
pub struct SweepResult {
    cells: Vec<SweepCell>,
    index: HashMap<CellKey, usize>,
}

impl fmt::Debug for SweepResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Only the cells: the index is derived state, and HashMap's
        // iteration order would make two identical results print
        // differently (the determinism test compares Debug output).
        f.debug_struct("SweepResult")
            .field("cells", &self.cells)
            .finish()
    }
}

impl PartialEq for SweepResult {
    fn eq(&self, other: &Self) -> bool {
        self.cells == other.cells
    }
}

impl SweepResult {
    /// Appends a cell, indexing it by key. A duplicate key replaces the
    /// earlier index entry (the cell list keeps both).
    pub fn push(&mut self, cell: SweepCell) {
        self.index.insert(cell.key(), self.cells.len());
        self.cells.push(cell);
    }

    /// All cells, in grid order.
    pub fn cells(&self) -> &[SweepCell] {
        &self.cells
    }

    /// Labels in sweep order (deduplicated).
    pub fn labels(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for c in &self.cells {
            if !out.contains(&c.label) {
                out.push(c.label.clone());
            }
        }
        out
    }

    /// Buffer mechanisms in sweep order (deduplicated).
    pub fn modes(&self) -> Vec<BufferMode> {
        let mut out: Vec<BufferMode> = Vec::new();
        for c in &self.cells {
            if !out.contains(&c.mode) {
                out.push(c.mode);
            }
        }
        out
    }

    /// Rates in sweep order (deduplicated).
    pub fn rates(&self) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::new();
        for c in &self.cells {
            if !out.contains(&c.rate_mbps) {
                out.push(c.rate_mbps);
            }
        }
        out
    }

    /// The cell for `key`, if present — the primary lookup path.
    pub fn cell_at(&self, key: &CellKey) -> Option<&SweepCell> {
        self.index.get(key).map(|&i| &self.cells[i])
    }

    /// Mean of `metric` over the repetitions of `key`, or `None` for an
    /// absent cell (never a silent `0.0`).
    pub fn mean(&self, key: &CellKey, metric: Metric) -> Option<f64> {
        self.cell_at(key)
            .map(|c| RunResult::mean_over(&c.runs, |r| r.get(metric)))
    }

    /// Mean of `metric` for a mechanism across the entire sweep (all
    /// rates, all repetitions) — how the paper reports "on average"
    /// numbers. `None` if the mechanism has no cells.
    pub fn sweep_mean_of(&self, mode: BufferMode, metric: Metric) -> Option<f64> {
        let rates = self.rates();
        let means: Vec<f64> = rates
            .iter()
            .filter_map(|&r| self.mean(&CellKey::new(mode, r), metric))
            .collect();
        if means.is_empty() {
            return None;
        }
        Some(means.iter().sum::<f64>() / means.len() as f64)
    }
}

/// The event stream of one sweep run, tagged with the cell and repetition
/// that produced it. Produced by [`RateSweep::run_traced_with`] in
/// deterministic grid order (cell major, repetition minor) regardless of
/// worker count.
#[derive(Clone, Debug)]
pub struct RunEvents {
    /// The sweep cell the run belongs to.
    pub key: CellKey,
    /// The cell's mechanism label (`key.mode.label()`).
    pub label: String,
    /// Repetition index within the cell (seed = `base_seed + rep`).
    pub rep: usize,
    /// The run's structured events, in emission order.
    pub events: Vec<Event>,
}

/// A full sweep: buffers × rates × repetitions, the paper's experimental
/// procedure ("we repeat the experiments at each sending rate for 20
/// times").
///
/// A sweep is its fields. Start from a preset and override what differs:
///
/// ```
/// use sdnbuf_core::{BufferMode, RateSweep};
///
/// let sweep = RateSweep {
///     rates_mbps: vec![10, 20],
///     buffers: vec![BufferMode::NoBuffer, BufferMode::PacketGranularity { capacity: 256 }],
///     ..RateSweep::paper_section_iv(2)
/// };
/// assert_eq!(sweep.repetitions, 2);
/// ```
///
/// A grid with no rates, no buffers or zero repetitions runs nothing.
#[derive(Clone, Debug)]
pub struct RateSweep {
    /// Sending rates in Mbps.
    pub rates_mbps: Vec<u64>,
    /// Buffer mechanisms to compare.
    pub buffers: Vec<BufferMode>,
    /// The workload.
    pub workload: WorkloadKind,
    /// Repetitions per (buffer, rate) cell.
    pub repetitions: usize,
    /// Base seed; repetition `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Frame size in bytes.
    pub frame_size: usize,
    /// The testbed configuration.
    pub testbed: TestbedConfig,
}

impl RateSweep {
    /// The paper's 5–100 Mbps rate grid in 5 Mbps steps.
    pub fn paper_rates() -> Vec<u64> {
        (1..=20).map(|i| i * 5).collect()
    }

    /// The Section IV sweep: {no-buffer, buffer-16, buffer-256} × 1000
    /// single-packet flows over the paper's rates, 1000-B frames, the
    /// Fig. 1 testbed, base seed 42.
    pub fn paper_section_iv(repetitions: usize) -> RateSweep {
        RateSweep {
            rates_mbps: RateSweep::paper_rates(),
            buffers: vec![
                BufferMode::NoBuffer,
                BufferMode::PacketGranularity { capacity: 16 },
                BufferMode::PacketGranularity { capacity: 256 },
            ],
            workload: WorkloadKind::paper_section_iv(),
            repetitions,
            base_seed: 42,
            frame_size: 1000,
            testbed: TestbedConfig::default(),
        }
    }

    /// The Section V sweep: {packet-granularity-256, flow-granularity-256}
    /// × 50 flows of 20 packets, otherwise as [`RateSweep::paper_section_iv`].
    pub fn paper_section_v(repetitions: usize) -> RateSweep {
        RateSweep {
            rates_mbps: RateSweep::paper_rates(),
            buffers: vec![
                BufferMode::PacketGranularity { capacity: 256 },
                BufferMode::FlowGranularity {
                    capacity: 256,
                    timeout: Nanos::from_millis(50),
                },
            ],
            workload: WorkloadKind::paper_section_v(),
            repetitions,
            base_seed: 42,
            frame_size: 1000,
            testbed: TestbedConfig::default(),
        }
    }

    /// The grid's cells in deterministic order: buffer major, then rate.
    fn grid(&self) -> Vec<CellKey> {
        let mut cells = Vec::with_capacity(self.buffers.len() * self.rates_mbps.len());
        for &mode in &self.buffers {
            for &rate_mbps in &self.rates_mbps {
                cells.push(CellKey { mode, rate_mbps });
            }
        }
        cells
    }

    /// The [`Experiment`] for cell `key`, repetition `rep`.
    fn experiment_for(&self, key: CellKey, rep: usize) -> Experiment {
        Experiment::new(ExperimentConfig {
            buffer: key.mode,
            workload: self.workload,
            sending_rate: BitRate::from_mbps(key.rate_mbps),
            frame_size: self.frame_size,
            seed: self.base_seed + rep as u64,
            testbed: self.testbed.clone(),
        })
    }

    /// Runs every (cell, repetition) job across `parallelism` workers with
    /// per-run progress reporting, returning the per-job outputs merged in
    /// deterministic grid order (cell major, repetition minor).
    fn run_grid<T: Send>(
        &self,
        parallelism: Parallelism,
        sink: &dyn ProgressSink,
        job: impl Fn(CellKey, usize) -> T + Sync,
    ) -> Vec<T> {
        let grid = self.grid();
        let reps = self.repetitions;
        let total_runs = grid.len() * reps;
        let started = Instant::now();

        // Per-cell completion accounting for cell-level progress.
        let remaining: Vec<AtomicUsize> = grid.iter().map(|_| AtomicUsize::new(reps)).collect();
        let cells_done = AtomicUsize::new(0);
        let done = Mutex::new(0usize);

        let (outputs, report) = Executor::new(parallelism).run(
            total_runs,
            |i| job(grid[i / reps], i % reps),
            |i, worker, _elapsed| {
                let cell = i / reps;
                if remaining[cell].fetch_sub(1, Ordering::Relaxed) == 1 {
                    cells_done.fetch_add(1, Ordering::Relaxed);
                }
                // The executor serializes observer calls, so `done` is
                // strictly increasing across sink invocations.
                let mut done = done.lock().expect("progress counter poisoned");
                *done += 1;
                let elapsed = started.elapsed();
                let eta = (*done > 0).then(|| {
                    elapsed
                        .div_f64(*done as f64)
                        .mul_f64((total_runs - *done) as f64)
                });
                sink.on_progress(&Progress {
                    done: *done,
                    total: total_runs,
                    cells_done: cells_done.load(Ordering::Relaxed),
                    cells_total: grid.len(),
                    elapsed,
                    eta,
                    worker,
                });
            },
        );
        sink.on_finish(&report);
        outputs
    }

    /// Folds per-job outputs (in grid order) back into a [`SweepResult`].
    fn assemble(&self, runs: Vec<RunResult>) -> SweepResult {
        let mut result = SweepResult::default();
        let mut runs = runs.into_iter();
        for key in self.grid() {
            result.push(SweepCell {
                label: key.mode.label(),
                mode: key.mode,
                rate_mbps: key.rate_mbps,
                runs: runs.by_ref().take(self.repetitions).collect(),
            });
        }
        result
    }

    /// Runs the whole grid across `parallelism` workers, reporting to
    /// `sink` after every run and once at the end.
    ///
    /// The result is **identical to the serial run** for any worker
    /// count: each (buffer, rate, repetition) run owns its seed and a
    /// fresh testbed, and results merge back in grid order.
    pub fn run_with(&self, parallelism: Parallelism, sink: &dyn ProgressSink) -> SweepResult {
        let runs = self.run_grid(parallelism, sink, |key, rep| {
            self.experiment_for(key, rep).run()
        });
        self.assemble(runs)
    }

    /// Like [`RateSweep::run_with`], but with a recording event sink
    /// attached to every run. Event streams come back as one
    /// [`RunEvents`] per (cell, repetition), merged in deterministic grid
    /// order — the concatenated export is **byte-for-byte identical**
    /// between serial and parallel execution.
    pub fn run_traced_with(
        &self,
        parallelism: Parallelism,
        sink: &dyn ProgressSink,
    ) -> (SweepResult, Vec<RunEvents>) {
        let outputs = self.run_grid(parallelism, sink, |key, rep| {
            self.experiment_for(key, rep).run_traced()
        });
        let grid = self.grid();
        let mut runs = Vec::with_capacity(outputs.len());
        let mut streams = Vec::with_capacity(outputs.len());
        for (i, (run, events)) in outputs.into_iter().enumerate() {
            let key = grid[i / self.repetitions];
            runs.push(run);
            streams.push(RunEvents {
                key,
                label: key.mode.label(),
                rep: i % self.repetitions,
                events,
            });
        }
        (self.assemble(runs), streams)
    }

    /// Runs the whole grid serially and silently.
    pub fn run(&self) -> SweepResult {
        self.run_with(Parallelism::Serial, &NullSink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sdnbuf_net::{FlowKey, Payload};
    use sdnbuf_sim::FaultPlan;
    use std::collections::HashSet;

    #[test]
    fn paper_rate_grid_is_5_to_100() {
        let rates = RateSweep::paper_rates();
        assert_eq!(rates.first(), Some(&5));
        assert_eq!(rates.last(), Some(&100));
        assert_eq!(rates.len(), 20);
    }

    #[test]
    fn try_new_returns_typed_errors() {
        assert!(Experiment::try_new(ExperimentConfig::default()).is_ok());
        let err = Experiment::try_new(ExperimentConfig {
            buffer: BufferMode::PacketGranularity { capacity: 0 },
            ..ExperimentConfig::default()
        })
        .unwrap_err();
        assert!(err.contains("capacity"), "{err}");
    }

    #[test]
    fn a_zero_group_is_refused_before_the_run() {
        let workload = WorkloadKind::CrossSequenced {
            n_flows: 5,
            packets_per_flow: 5,
            group_size: 0,
        };
        let err = Experiment::try_new(ExperimentConfig {
            workload,
            ..ExperimentConfig::default()
        })
        .unwrap_err();
        assert!(err.contains("group size must be at least 1"), "{err}");
    }

    /// `at` validates and `over` does not, by an error that names `limit`,
    /// from `validate`, from the grammar and from `Experiment::try_new`.
    fn refused_past(at: WorkloadKind, over: WorkloadKind, limit: &str) {
        assert_eq!(at.validate(), Ok(()), "{at}");
        assert_eq!(at.to_string().parse(), Ok(at));
        let config = |workload| ExperimentConfig {
            workload,
            ..ExperimentConfig::default()
        };
        for err in [
            over.validate().unwrap_err(),
            over.to_string().parse::<WorkloadKind>().unwrap_err(),
            Experiment::try_new(config(over)).unwrap_err(),
        ] {
            assert!(err.contains(limit), "{over}: {err}");
        }
    }

    #[test]
    fn more_than_65536_packets_in_a_flow_are_refused() {
        let cross = |packets_per_flow| WorkloadKind::CrossSequenced {
            n_flows: 1,
            packets_per_flow,
            group_size: 1,
        };
        let limit = "at most 65536 packets per flow, got 65537";
        refused_past(cross(65_536), cross(65_537), limit);
        let tcp = |first_burst, second_burst| WorkloadKind::TcpEviction {
            first_burst,
            idle_gap: Nanos::from_secs(1),
            second_burst,
        };
        refused_past(tcp(65_000, 534), tcp(65_000, 535), limit);
        refused_past(
            tcp(0, 0),
            tcp(usize::MAX, usize::MAX),
            "65536 packets per flow",
        );
        let mixed = |segments_per_tcp| WorkloadKind::MixedUdpTcp {
            n_udp_flows: 1,
            n_tcp: 1,
            segments_per_tcp,
        };
        refused_past(mixed(65_534), mixed(65_535), limit);
    }

    #[test]
    fn more_than_2_pow_23_forged_flows_are_refused() {
        let limit = "at most 8388608 flows with forged sources";
        let single = WorkloadKind::single_packet_flows;
        refused_past(single(1 << 23), single((1 << 23) + 1), limit);
        let cross = |n_flows| WorkloadKind::CrossSequenced {
            n_flows,
            packets_per_flow: 2,
            group_size: 5,
        };
        refused_past(cross(1 << 23), cross((1 << 23) + 1), limit);
        let mixed = |n_udp_flows| WorkloadKind::MixedUdpTcp {
            n_udp_flows,
            n_tcp: 1,
            segments_per_tcp: 1,
        };
        refused_past(mixed(1 << 23), mixed((1 << 23) + 1), limit);
    }

    #[test]
    fn more_than_25536_tcp_connections_are_refused() {
        let mixed = |n_tcp| WorkloadKind::MixedUdpTcp {
            n_udp_flows: 1,
            n_tcp,
            segments_per_tcp: 1,
        };
        refused_past(
            mixed(25_536),
            mixed(25_537),
            "at most 25536 TCP connections",
        );
    }

    /// Every workload kind, drawn up to the limits `validate` sets wherever
    /// the departures fit a test (a flow of 65 536 packets, 25 536 TCP
    /// connections; 2²³ single-packet flows do not).
    fn arb_workload() -> impl Strategy<Value = WorkloadKind> {
        let cross = |(n_flows, packets_per_flow, group_size)| WorkloadKind::CrossSequenced {
            n_flows,
            packets_per_flow,
            group_size,
        };
        let tcp = |(first_burst, gap_us, second_burst)| WorkloadKind::TcpEviction {
            first_burst,
            idle_gap: Nanos::from_micros(gap_us),
            second_burst,
        };
        let mixed = |(n_udp_flows, n_tcp, segments_per_tcp)| WorkloadKind::MixedUdpTcp {
            n_udp_flows,
            n_tcp,
            segments_per_tcp,
        };
        prop_oneof![
            (0usize..2_000).prop_map(WorkloadKind::single_packet_flows),
            (0usize..50, 0usize..40, 1usize..8).prop_map(cross),
            (1usize..3, Just(65_536), 1usize..3).prop_map(cross),
            (0usize..40, 0u64..1_000, 0usize..40).prop_map(tcp),
            (0usize..=65_534, 0u64..1_000).prop_map(move |(first, gap_us)| tcp((
                first,
                gap_us,
                65_534 - first
            ))),
            (0usize..200, 0usize..10, 0usize..10).prop_map(mixed),
            (0usize..10, Just(25_536), 0usize..2).prop_map(mixed),
            (0usize..10, 1usize..3, Just(65_534)).prop_map(mixed),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// What `Testbed::run` relies on, from every generator: in slice
        /// order each flow key's idents run 0, 1, 2, …, and no
        /// `(FlowKey, ident)` repeats.
        #[test]
        fn every_generator_gives_each_packet_a_wire_identity_of_its_own(
            workload in arb_workload(),
            seed in any::<u64>(),
        ) {
            prop_assert_eq!(workload.validate(), Ok(()));
            let departures = workload.generate(&PktgenConfig::default(), seed);
            let mut next_ident: HashMap<FlowKey, usize> = HashMap::new();
            let mut seen = HashSet::new();
            for d in &departures {
                let (key, ident) = match (FlowKey::of(&d.packet), &d.packet.payload) {
                    (Some(key), Payload::Ipv4(ip)) => (key, ip.header.identification),
                    _ => return Err(TestCaseError::fail(format!("{workload}: no identity"))),
                };
                let next = next_ident.entry(key).or_insert(0);
                prop_assert_eq!(usize::from(ident), *next, "{} {:?}", workload, key);
                *next += 1;
                prop_assert!(seen.insert((key, ident)), "{} repeats {:?}", workload, (key, ident));
            }
        }
    }

    #[test]
    fn single_experiment_completes() {
        let mut exp = Experiment::new(ExperimentConfig {
            buffer: BufferMode::PacketGranularity { capacity: 64 },
            workload: WorkloadKind::single_packet_flows(20),
            sending_rate: BitRate::from_mbps(10),
            seed: 3,
            ..ExperimentConfig::default()
        });
        let r = exp.run();
        assert_eq!(r.flows_completed, 20);
        assert_eq!(r.sending_rate_mbps, 10.0);
        assert_eq!(r.label, "buffer-64");
    }

    #[test]
    fn sweep_produces_all_cells() {
        let sweep = RateSweep {
            rates_mbps: vec![10, 20],
            buffers: vec![
                BufferMode::NoBuffer,
                BufferMode::PacketGranularity { capacity: 16 },
            ],
            workload: WorkloadKind::single_packet_flows(10),
            base_seed: 1,
            ..RateSweep::paper_section_iv(2)
        };
        let result = sweep.run();
        assert_eq!(result.cells().len(), 4);
        assert_eq!(result.labels(), vec!["no-buffer", "buffer-16"]);
        assert_eq!(result.rates(), vec![10, 20]);
        let key = CellKey::new(BufferMode::NoBuffer, 10);
        let cell = result.cell_at(&key).unwrap();
        assert_eq!(cell.runs.len(), 2);
        assert_eq!(result.cell_at(&key), Some(cell));
        assert_eq!(result.mean(&key, Metric::PacketsDelivered), Some(10.0));
    }

    #[test]
    fn absent_cells_are_none_not_zero() {
        let sweep = RateSweep {
            rates_mbps: vec![10],
            buffers: vec![BufferMode::NoBuffer],
            workload: WorkloadKind::single_packet_flows(5),
            ..RateSweep::paper_section_iv(1)
        };
        let result = sweep.run();
        let bogus = CellKey::new(BufferMode::PacketGranularity { capacity: 999 }, 10);
        assert_eq!(result.cell_at(&bogus), None);
        assert_eq!(result.mean(&bogus, Metric::PacketsSent), None);
        assert_eq!(
            result.sweep_mean_of(
                BufferMode::PacketGranularity { capacity: 999 },
                Metric::PacketsSent
            ),
            None
        );
    }

    #[test]
    fn sweep_mean_averages_rates() {
        let sweep = RateSweep {
            rates_mbps: vec![10, 20],
            buffers: vec![BufferMode::NoBuffer],
            workload: WorkloadKind::single_packet_flows(5),
            base_seed: 1,
            ..RateSweep::paper_section_iv(1)
        };
        let result = sweep.run();
        assert_eq!(
            result.sweep_mean_of(BufferMode::NoBuffer, Metric::PacketsSent),
            Some(5.0)
        );
        assert_eq!(
            result.sweep_mean_of(
                BufferMode::PacketGranularity { capacity: 999 },
                Metric::PacketsSent
            ),
            None
        );
    }

    #[test]
    fn workload_kinds_generate() {
        let pg = PktgenConfig::default();
        assert_eq!(
            WorkloadKind::paper_section_iv().generate(&pg, 1).len(),
            1000
        );
        assert_eq!(WorkloadKind::paper_section_v().generate(&pg, 1).len(), 1000);
        let tcp = WorkloadKind::TcpEviction {
            first_burst: 3,
            idle_gap: Nanos::from_secs(6),
            second_burst: 4,
        }
        .generate(&pg, 1);
        assert_eq!(tcp.len(), 2 + 3 + 4);
        let mixed = WorkloadKind::MixedUdpTcp {
            n_udp_flows: 10,
            n_tcp: 2,
            segments_per_tcp: 3,
        }
        .generate(&pg, 1);
        assert_eq!(mixed.len(), 10 + 2 * 5);
    }

    #[test]
    #[should_panic(expected = "every-nth loss requires n >= 2")]
    fn loss_of_zero_is_rejected_at_construction_not_mid_run() {
        // Regression: an every-nth loss of 0 used to reach
        // `ctrl_msg_seq % n` and divide by zero on the first control
        // message.
        let mut config = ExperimentConfig::default();
        config.testbed.faults = FaultPlan::every_nth_loss(0);
        let _ = Experiment::new(config);
    }

    #[test]
    #[should_panic(expected = "buffer capacity must be positive")]
    fn zero_capacity_is_rejected_at_construction() {
        let config = ExperimentConfig {
            buffer: BufferMode::PacketGranularity { capacity: 0 },
            ..ExperimentConfig::default()
        };
        let _ = Experiment::new(config);
    }

    #[test]
    fn experiment_config_validation_covers_its_own_fields() {
        assert!(ExperimentConfig::default().validate().is_ok());
        let c = ExperimentConfig {
            frame_size: 0,
            ..ExperimentConfig::default()
        };
        assert!(c.validate().is_err());
        let mut c = ExperimentConfig::default();
        c.testbed.faults = FaultPlan::every_nth_loss(1);
        assert!(c.validate().is_err(), "one-in-1 loss drops every message");
        let mut c = ExperimentConfig::default();
        c.testbed.faults.to_controller.duplicate = 1.5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        let sweep = RateSweep {
            rates_mbps: vec![10, 30, 50],
            buffers: vec![
                BufferMode::NoBuffer,
                BufferMode::PacketGranularity { capacity: 16 },
            ],
            workload: WorkloadKind::single_packet_flows(25),
            ..RateSweep::paper_section_iv(3)
        };
        let serial = sweep.run();
        let parallel = sweep.run_with(Parallelism::Fixed(4), &NullSink);
        assert_eq!(serial, parallel);
        // Belt and braces: byte-for-byte identical Debug rendering, which
        // covers every field of every RunResult in every cell.
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }

    #[test]
    fn progress_is_monotonic_and_complete_under_parallelism() {
        let sweep = RateSweep {
            rates_mbps: vec![10, 20],
            buffers: vec![BufferMode::NoBuffer],
            workload: WorkloadKind::single_packet_flows(5),
            ..RateSweep::paper_section_iv(3)
        };
        let seen = Mutex::new(Vec::<Progress>::new());
        let sink = |p: &Progress| seen.lock().unwrap().push(*p);
        sweep.run_with(Parallelism::Fixed(4), &sink);
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 6);
        for (i, p) in seen.iter().enumerate() {
            assert_eq!(p.done, i + 1, "done must increase by one per run");
            assert_eq!(p.total, 6);
            assert_eq!(p.cells_total, 2);
            assert!(p.cells_done <= 2);
        }
        let last = seen.last().unwrap();
        assert_eq!(last.done, last.total);
        assert_eq!(last.cells_done, 2);
    }

    #[test]
    fn an_empty_grid_runs_nothing() {
        for sweep in [
            RateSweep::paper_section_iv(0),
            RateSweep {
                rates_mbps: Vec::new(),
                ..RateSweep::paper_section_iv(1)
            },
            RateSweep {
                buffers: Vec::new(),
                ..RateSweep::paper_section_v(1)
            },
        ] {
            let result = sweep.run_with(Parallelism::Fixed(2), &NullSink);
            assert!(result.cells().iter().all(|c| c.runs.is_empty()));
        }
    }

    #[test]
    fn progress_callback_fires_per_run_in_serial() {
        let sweep = RateSweep {
            rates_mbps: vec![10],
            buffers: vec![BufferMode::NoBuffer],
            workload: WorkloadKind::single_packet_flows(3),
            ..RateSweep::paper_section_iv(1)
        };
        let calls = Mutex::new(Vec::new());
        let sink = |p: &Progress| calls.lock().unwrap().push((p.done, p.total));
        sweep.run_with(Parallelism::Serial, &sink);
        assert_eq!(calls.into_inner().unwrap(), vec![(1, 1)]);
    }
}
