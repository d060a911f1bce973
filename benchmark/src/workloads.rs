//! The four workloads: what their inputs are and what one rep runs.
//!
//! Every workload is a closed batch: a rep runs a fixed list of
//! simulations to completion, on at most two threads. Sizes are constants
//! of the workload; `--seed` only feeds the generators (departure jitter,
//! sweep base seed, chaos master seeds).

use crate::digest::Fnv;
use sdnbuf_core::chaos::{self, ChaosScenario, Sabotage};
use sdnbuf_core::{
    figures, report, BufferMode, ExecutorReport, Parallelism, ProgressSink, RateSweep, RunResult,
    SweepResult, Testbed, TestbedConfig, WorkloadKind,
};
use sdnbuf_sim::{BitRate, Nanos};
use sdnbuf_workload::{Departure, PktgenConfig};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Section IV at 30 000 single-packet flows: every packet misses.
    Sec4Churn,
    /// Section V at 80 000–160 000 packets in multi-packet flows: mostly hits.
    Sec5Flows,
    /// What `repro_all` computes: 500 paper-size runs plus every table.
    ReproGrid,
    /// What CI's chaos jobs compute: 1 000 traced ≈300-event fault runs.
    ChaosSweep,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Sec4Churn,
        Workload::Sec5Flows,
        Workload::ReproGrid,
        Workload::ChaosSweep,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sec4Churn => "sec4_churn",
            Workload::Sec5Flows => "sec5_flows",
            Workload::ReproGrid => "repro_grid",
            Workload::ChaosSweep => "chaos_sweep",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Host seconds one rep took on the 2-core box the benchmark was sized
    /// on. `--seconds` is turned into a rep count with this constant — not
    /// with a clock — so two commits given the same `--seconds` do
    /// identical work.
    pub fn nominal_rep_seconds(self) -> f64 {
        match self {
            Workload::Sec4Churn => 1.8,
            Workload::Sec5Flows => 1.3,
            Workload::ReproGrid => 1.5,
            Workload::ChaosSweep => 0.18,
        }
    }
}

/// Full-size workloads, or the one-tenth sizes of `--quick`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes every reported number is measured at.
    Full,
    /// One-tenth sizes for smoke runs — not for claims.
    Quick,
}

impl Scale {
    fn tenth(self, n: usize) -> usize {
        match self {
            Scale::Full => n,
            Scale::Quick => n / 10,
        }
    }
}

/// One `Testbed::run` of the cell workloads, inputs included.
#[derive(Clone, Debug)]
pub struct Cell {
    /// `mechanism@rate` plus the flow shape, for tables and span names.
    pub name: String,
    /// The testbed configuration (calibrated defaults + the mechanism).
    pub config: TestbedConfig,
    /// The packet generator settings the departures were made with.
    pub pktgen: PktgenConfig,
    /// The traffic shape.
    pub kind: WorkloadKind,
    /// The generator seed.
    pub seed: u64,
    /// The generated departures — the run's input.
    pub departures: Vec<Departure>,
}

impl Cell {
    /// Builds a cell and generates its departures.
    pub fn new(buffer: BufferMode, rate_mbps: u64, kind: WorkloadKind, seed: u64) -> Cell {
        let pktgen = PktgenConfig {
            rate: BitRate::from_mbps(rate_mbps),
            ..PktgenConfig::default()
        };
        let shape = match kind {
            WorkloadKind::SinglePacketFlows { n_flows } => format!("{n_flows}x1"),
            WorkloadKind::CrossSequenced {
                n_flows,
                packets_per_flow,
                ..
            } => format!("{n_flows}x{packets_per_flow}"),
            other => format!("{other:?}"),
        };
        Cell {
            name: format!("{}@{rate_mbps} {shape}", buffer.label()),
            config: TestbedConfig::with_buffer(buffer),
            pktgen,
            kind,
            seed,
            departures: kind.generate(&pktgen, seed),
        }
    }
}

/// Which chaos generator samples a scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosGen {
    /// [`ChaosScenario::generate`].
    Plain,
    /// [`ChaosScenario::generate_with_crashes`].
    Crashes,
}

/// One scenario of the chaos sweep, by its generator arguments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosJob {
    /// Master seed handed to the generator.
    pub seed: u64,
    /// Which generator.
    pub gen: ChaosGen,
    /// Mechanism under test.
    pub mech: BufferMode,
}

impl ChaosJob {
    /// Samples the scenario — part of the rep, as in CI's chaos jobs.
    pub fn scenario(&self) -> ChaosScenario {
        match self.gen {
            ChaosGen::Plain => ChaosScenario::generate(self.seed, self.mech),
            ChaosGen::Crashes => ChaosScenario::generate_with_crashes(self.seed, self.mech),
        }
    }
}

/// A workload's inputs — what `setup_s` times the construction of.
#[derive(Clone, Debug)]
pub enum Inputs {
    /// `sec4_churn` / `sec5_flows`: cells with their departure vectors.
    Cells(Vec<Cell>),
    /// `repro_grid`: the Section IV and the Section V sweep, each cut into
    /// one descriptor per mechanism and five rates (a rep is timed sweep by
    /// sweep, and the shorter the parts the more of them run undisturbed).
    Grid(Box<[Vec<RateSweep>; 2]>),
    /// `chaos_sweep`: the scenario list.
    Chaos(Vec<ChaosJob>),
}

const PACKET_256: BufferMode = BufferMode::PacketGranularity { capacity: 256 };

fn flow_256(timeout_ms: u64) -> BufferMode {
    BufferMode::FlowGranularity {
        capacity: 256,
        timeout: Nanos::from_millis(timeout_ms),
    }
}

/// Rates per timed part of a grid rep.
const GRID_RATES_PER_PART: usize = 5;

/// Builds the inputs of `workload` from `seed`.
pub fn build_inputs(workload: Workload, seed: u64, scale: Scale) -> Inputs {
    match workload {
        Workload::Sec4Churn => {
            let kind = WorkloadKind::single_packet_flows(scale.tenth(30_000));
            Inputs::Cells(vec![
                Cell::new(BufferMode::NoBuffer, 100, kind, seed),
                Cell::new(
                    BufferMode::PacketGranularity { capacity: 16 },
                    100,
                    kind,
                    seed,
                ),
                Cell::new(PACKET_256, 50, kind, seed),
            ])
        }
        Workload::Sec5Flows => {
            let flows = |n_flows: usize, packets_per_flow| WorkloadKind::CrossSequenced {
                n_flows: scale.tenth(n_flows),
                packets_per_flow,
                group_size: 5,
            };
            Inputs::Cells(vec![
                Cell::new(flow_256(50), 100, flows(4_000, 20), seed),
                Cell::new(PACKET_256, 50, flows(4_000, 20), seed),
                Cell::new(flow_256(50), 100, flows(800, 200), seed),
            ])
        }
        Workload::ReproGrid => {
            let (reps, rates) = match scale {
                Scale::Full => (5, RateSweep::paper_rates()),
                Scale::Quick => (1, (1..=10).map(|i| i * 10).collect()),
            };
            // Seed 1 is `repro_all`'s own base seed; later seeds move on by
            // a whole cell's worth so no repetition is shared.
            let base_seed = 42 + (seed - 1) * reps as u64;
            let sections = [
                RateSweep::paper_section_iv(reps),
                RateSweep::paper_section_v(reps),
            ]
            .map(|mut section| {
                section.base_seed = base_seed;
                // Mechanism-major, then rates: the section's own grid order.
                let mut pieces = Vec::new();
                for &mode in &section.buffers {
                    for rates in rates.chunks(GRID_RATES_PER_PART) {
                        pieces.push(RateSweep {
                            buffers: vec![mode],
                            rates_mbps: rates.to_vec(),
                            ..section.clone()
                        });
                    }
                }
                pieces
            });
            Inputs::Grid(Box::new(sections))
        }
        Workload::ChaosSweep => {
            let per_seed = scale.tenth(200) as u64;
            let first = (seed - 1) * per_seed;
            let mut jobs = Vec::with_capacity(per_seed as usize * 5);
            for seed in first..first + per_seed {
                for (gen, mechs) in [
                    (ChaosGen::Plain, &[PACKET_256, flow_256(20)][..]),
                    (
                        ChaosGen::Crashes,
                        &[PACKET_256, flow_256(20), BufferMode::NoBuffer][..],
                    ),
                ] {
                    jobs.extend(mechs.iter().map(|&mech| ChaosJob { seed, gen, mech }));
                }
            }
            Inputs::Chaos(jobs)
        }
    }
}

/// Sums over the simulated runs of one rep. Everything here is simulated
/// (`simtime`) or an exact count, so it must repeat exactly from rep to rep.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    /// Simulated runs (`Testbed::run` calls).
    pub runs: u64,
    /// Data packets offered — the denominator of every per-packet metric.
    pub packets: u64,
    /// Data packets delivered.
    pub delivered: u64,
    /// Simulator events dispatched.
    pub events: u64,
    /// Sum of the runs' active spans.
    pub active_span_ns: u64,
    /// Sum of the runs' mean flow-setup delays, ms.
    pub setup_ms_mean_sum: f64,
    /// Sum of the runs' control-path loads (both directions), Mbps.
    pub ctrl_load_mbps_sum: f64,
    /// `packet_in`s in the measurement windows.
    pub pkt_ins: u64,
    /// Timeout-driven re-requests.
    pub rerequests: u64,
    /// Delay samples the runs' four `Summary`s were computed over.
    pub delay_samples: u64,
    /// Flows offered.
    pub flows: u64,
    /// Largest peak buffer occupancy of any run.
    pub peak_occupancy: u64,
}

impl Totals {
    /// Adds one run.
    pub fn add(&mut self, r: &RunResult) {
        self.runs += 1;
        self.packets += r.packets_sent;
        self.delivered += r.packets_delivered;
        self.events += r.events_dispatched;
        self.active_span_ns += r.active_span.as_nanos();
        self.setup_ms_mean_sum += r.flow_setup_delay.mean;
        self.ctrl_load_mbps_sum += r.ctrl_load_to_controller_mbps + r.ctrl_load_to_switch_mbps;
        self.pkt_ins += r.pkt_in_count;
        self.rerequests += r.rerequests;
        self.delay_samples += (r.flow_setup_delay.n
            + r.controller_delay.n
            + r.switch_delay.n
            + r.flow_forwarding_delay.n) as u64;
        self.flows += r.flows_total as u64;
        self.peak_occupancy = self.peak_occupancy.max(r.buffer_peak_occupancy as u64);
    }
}

/// What one rep computed and whether its checked operations held.
#[derive(Clone, Debug, Default)]
pub struct RepOutcome {
    /// Sums over the rep's runs.
    pub totals: Totals,
    /// Digest of every run's result (and, for chaos, event stream), in
    /// run order.
    pub digest: u64,
    /// Checked operations: one per run / scenario / cell-repetition.
    pub attempted: u64,
    /// Checked operations that failed: a no-fault run that broke
    /// `delivered + dropped == sent`, or a chaos scenario with a violation.
    pub failed: u64,
    /// `repro_grid`: Σ sweep wall time as the executor reports it.
    pub executor_wall_s: f64,
    /// `repro_grid`: Σ worker busy time.
    pub executor_busy_s: f64,
    /// `repro_grid`: workers the sweeps ran on.
    pub workers: u64,
    /// `repro_grid`: tables and reports rendered.
    pub tables: u64,
    /// Wall seconds of each part of the rep — a cell, a sweep, a block of
    /// scenarios — in a fixed order. The parts add up to the rep.
    pub part_walls_s: Vec<f64>,
}

impl RepOutcome {
    /// `repro_grid`: Σ worker busy time ÷ Σ sweep wall time — how many
    /// workers' worth of work the executor kept going.
    pub fn busy_overlap(&self) -> f64 {
        self.executor_busy_s / self.executor_wall_s.max(f64::MIN_POSITIVE)
    }
}

/// A run without injected faults conserves packets.
fn conserves(r: &RunResult) -> bool {
    r.packets_delivered + r.packets_dropped == r.packets_sent
}

/// Collects the executor's end-of-sweep accounting.
#[derive(Default)]
struct OverlapSink(Mutex<(Duration, Duration)>);

impl ProgressSink for OverlapSink {
    fn on_finish(&self, report: &ExecutorReport) {
        let mut acc = self.0.lock().expect("overlap accumulator poisoned");
        acc.0 += report.busy_total();
        acc.1 += report.wall;
    }
}

/// Renders everything `repro_all` renders — each figure as aligned text
/// and as TSV, the claims table and the markdown report — to strings, and
/// returns how many documents that was plus a digest of their bytes.
fn render_grid(iv: &SweepResult, v: &SweepResult) -> (u64, u64) {
    const SECTION_IV: [fn(&SweepResult) -> sdnbuf_metrics::Table; 8] = [
        figures::fig_control_load_to_controller,
        figures::fig_control_load_to_switch,
        figures::fig_controller_usage,
        figures::fig_switch_usage,
        figures::fig_flow_setup_delay,
        figures::fig_controller_delay,
        figures::fig_switch_delay,
        figures::fig_buffer_utilization_mean,
    ];
    const SECTION_V: [fn(&SweepResult) -> sdnbuf_metrics::Table; 8] = [
        figures::fig_control_load_to_controller,
        figures::fig_control_load_to_switch,
        figures::fig_controller_usage,
        figures::fig_switch_usage,
        figures::fig_flow_setup_delay,
        figures::fig_flow_forwarding_delay,
        figures::fig_buffer_utilization_mean,
        figures::fig_buffer_utilization_max,
    ];
    let mut tables: Vec<sdnbuf_metrics::Table> = SECTION_IV.iter().map(|fig| fig(iv)).collect();
    tables.extend(SECTION_V.iter().map(|fig| fig(v)));
    tables.push(figures::summary_claims(iv, v));
    let mut hash = Fnv::new();
    for table in &tables {
        hash.str(&table.to_text());
        hash.str(&table.to_tsv());
    }
    hash.str(&report::full_report(iv, v));
    (tables.len() as u64 + 1, hash.finish())
}

/// Scenarios per timed part of a chaos rep.
const CHAOS_BLOCK: usize = 100;

/// Runs one rep of a workload. `serial` keeps `repro_grid` on the calling
/// thread (the counting rep: allocation counts then repeat exactly);
/// timed reps use two workers.
pub fn run_rep(inputs: &Inputs, serial: bool) -> RepOutcome {
    let mut out = RepOutcome::default();
    let mut hash = Fnv::new();
    let check = |out: &mut RepOutcome, hash: &mut Fnv, r: &RunResult, ok: bool| {
        out.totals.add(r);
        hash.run(r);
        out.attempted += 1;
        out.failed += u64::from(!ok);
    };
    // Times one part; checking and digesting its results stays outside.
    fn part<T>(out: &mut RepOutcome, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let result = black_box(f());
        out.part_walls_s.push(start.elapsed().as_secs_f64());
        result
    }
    match inputs {
        Inputs::Cells(cells) => {
            for cell in cells {
                let r = part(&mut out, || {
                    Testbed::new(cell.config.clone()).run(&cell.departures)
                });
                check(&mut out, &mut hash, &r, conserves(&r));
            }
        }
        Inputs::Grid(sections) => {
            let parallelism = if serial {
                Parallelism::Serial
            } else {
                Parallelism::Fixed(2)
            };
            let sink = OverlapSink::default();
            // The mechanisms' cells, put back in the section's grid order.
            let [iv, v] = [&sections[0], &sections[1]].map(|section| {
                let mut result = SweepResult::default();
                for sweep in section {
                    let swept = part(&mut out, || sweep.run_with(parallelism, &sink));
                    swept.cells().iter().cloned().for_each(|c| result.push(c));
                }
                result
            });
            for r in iv.cells().iter().chain(v.cells()).flat_map(|c| &c.runs) {
                check(&mut out, &mut hash, r, conserves(r));
            }
            let (tables, text_digest) = part(&mut out, || render_grid(&iv, &v));
            out.tables = tables;
            hash.u64(text_digest);
            let (busy, wall) = *sink.0.lock().expect("overlap accumulator poisoned");
            out.executor_busy_s = busy.as_secs_f64();
            out.executor_wall_s = wall.as_secs_f64();
            out.workers = parallelism.worker_count() as u64;
        }
        Inputs::Chaos(jobs) => {
            for block in jobs.chunks(CHAOS_BLOCK) {
                let reports = part(&mut out, || {
                    block
                        .iter()
                        .map(|job| chaos::run_scenario(&job.scenario(), Sabotage::none()))
                        .collect::<Vec<_>>()
                });
                for rep in &reports {
                    hash.u64(rep.digest);
                    check(&mut out, &mut hash, &rep.result, rep.violations.is_empty());
                }
            }
        }
    }
    out.digest = hash.finish();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn quick_inputs_are_a_tenth() {
        for (w, packets) in [(Workload::Sec4Churn, 9_000), (Workload::Sec5Flows, 32_000)] {
            let Inputs::Cells(cells) = build_inputs(w, 1, Scale::Quick) else {
                panic!("cell workload");
            };
            assert_eq!(
                cells.iter().map(|c| c.departures.len()).sum::<usize>(),
                packets
            );
        }
        let Inputs::Chaos(jobs) = build_inputs(Workload::ChaosSweep, 2, Scale::Quick) else {
            panic!("chaos workload");
        };
        assert_eq!(jobs.len(), 100);
        assert_eq!(jobs[0].seed, 20, "seed 2 continues where seed 1 stopped");
        let Inputs::Grid(sections) = build_inputs(Workload::ReproGrid, 1, Scale::Quick) else {
            panic!("grid workload");
        };
        let runs: usize = sections
            .iter()
            .flatten()
            .map(|s| s.buffers.len() * s.rates_mbps.len() * s.repetitions)
            .sum();
        assert_eq!(runs, 50);
        assert_eq!(
            sections[0][0].base_seed, 42,
            "seed 1 is repro_all's base seed"
        );
        assert_eq!([sections[0].len(), sections[1].len()], [3 * 2, 2 * 2]);
    }

    #[test]
    fn reps_repeat_exactly_and_serial_equals_threaded() {
        for w in Workload::ALL {
            let inputs = build_inputs(w, 1, Scale::Quick);
            let a = run_rep(&inputs, false);
            let b = run_rep(&inputs, true);
            assert_eq!(a.digest, b.digest, "{}", w.name());
            assert_eq!(a.totals, b.totals, "{}", w.name());
            assert_eq!(a.failed, 0, "{}", w.name());
            assert!(a.attempted > 0 && a.totals.packets > 0);
        }
    }

    #[test]
    fn another_seed_is_another_input() {
        let digest = |seed| {
            run_rep(
                &build_inputs(Workload::ChaosSweep, seed, Scale::Quick),
                false,
            )
            .digest
        };
        assert_ne!(digest(1), digest(2));
    }
}
