//! The differential + metamorphic validation plane (`sdnlab validate`).
//!
//! Three independent nets, each catching bugs the others cannot:
//!
//! 1. **Differential**: sweep the Section IV grid and compare every cell's
//!    simulated means against the closed-form [`sdnbuf_model`] oracle,
//!    metric by metric, with per-metric relative-error tolerances
//!    (widened on knife-edge cells near a station's saturation point —
//!    see [`sdnbuf_model::NEAR_CRITICAL_BAND`] and DESIGN §13).
//! 2. **Metamorphic**: paper-derived laws that need no oracle at all —
//!    delay non-decreasing in offered rate, up-path control bytes
//!    non-increasing when buffering is enabled, packet conservation,
//!    the flow-granularity mechanism announcing at most as many
//!    `packet_in`s as the packet-granularity one, and serial ≡ parallel
//!    execution on every validated cell.
//! 3. **Coverage-directed random configs**: a seeded generator explores
//!    mechanism × workload × rate × frame-size combinations beyond the
//!    paper's grid, checking the always-true laws (conservation,
//!    determinism, oracle floor) and greedily shrinking any
//!    counterexample, like the chaos minimizer, to a minimal [`RunSpec`]:
//!    the same spec `sdnlab chaos --replay` runs.
//!
//! The whole layer is read-only and post-hoc: it consumes [`RunResult`]s
//! through the public sweep API and never touches the simulation, so
//! golden traces and chaos digests are unaffected by construction.
//!
//! A validator that cannot fail is untested, so the harness can be run
//! against a deliberately broken oracle ([`sdnbuf_model::Oracle::broken`])
//! and must then report differential failures — `sdnlab validate --broken`
//! inverts its exit code on that, mirroring `chaos --broken`.

use crate::shrink::shrink_to_fixpoint;
use crate::{
    BufferMode, Experiment, ExperimentConfig, Metric, NullSink, Parallelism, RateSweep, RunResult,
    RunSpec, SweepCell, TestbedConfig, WorkloadKind,
};
use sdnbuf_metrics::Histogram;
use sdnbuf_sim::{BitRate, JsonWriter, Nanos, SimRng};
use std::fmt::Write as _;

/// Schema tag stamped into the JSON report.
pub const VALIDATE_SCHEMA: &str = "validate/v1";

/// Relative slack allowed by the monotonicity law: mean delay may dip by
/// this fraction between adjacent rates before the law trips. The
/// buffered curves are flat (the mechanism's whole point), so strict
/// monotonicity would flag repetition noise as a violation.
const MONOTONE_SLACK: f64 = 0.05;

/// Seed-mixing constant for the random-config generator (same idiom as
/// the chaos generator, different stream).
const RANDOM_STREAM: u64 = 0x5bd1_e995_9d1c_9f57;

/// Per-metric relative-error tolerances, as fractions (0.15 = 15 %).
///
/// The defaults are calibrated against the seed simulator (DESIGN §13
/// records the measured errors they leave headroom over). Counts are
/// integer-exact in no-fault cells, so their tolerance is effectively
/// zero.
#[derive(Clone, Copy, Debug)]
pub struct Tolerances {
    /// Delay means (flow-setup, controller delay).
    pub delay: f64,
    /// Control-path loads, Mbps.
    pub load: f64,
    /// Controller CPU percent.
    pub cpu: f64,
    /// Control-message counts.
    pub count: f64,
    /// Multiplier applied on cells the oracle marks near-critical: a
    /// station sitting within a few percent of saturation flips between
    /// idle and backlogged on service-time differences smaller than the
    /// model's resolution.
    pub near_critical_factor: f64,
    /// Multiplier on saturated cells, where the fluid backlog term is a
    /// first-order approximation of the true transient.
    pub saturated_factor: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            delay: 0.15,
            load: 0.10,
            cpu: 0.25,
            count: 0.001,
            near_critical_factor: 3.0,
            saturated_factor: 2.0,
        }
    }
}

impl Tolerances {
    /// A uniform override: every per-metric tolerance set to `fraction`
    /// (the widening factors keep their defaults). Used by
    /// `sdnlab validate --tolerance PCT`.
    pub fn uniform(fraction: f64) -> Self {
        Tolerances {
            delay: fraction,
            load: fraction,
            cpu: fraction,
            count: fraction,
            ..Tolerances::default()
        }
    }

    /// The base tolerance for `metric` (before widening factors).
    pub fn base_for(&self, metric: Metric) -> f64 {
        match metric {
            Metric::FlowSetupDelay | Metric::ControllerDelay => self.delay,
            Metric::ControlPathLoadUp | Metric::ControlPathLoadDown => self.load,
            Metric::ControllerCpu => self.cpu,
            _ => self.count,
        }
    }
}

/// What `validate` runs: a list of cells, repetition and tolerance knobs,
/// and the optional random-config exploration. Every cell runs the paper's
/// 1000-byte frames on the calibrated [`TestbedConfig::default`].
#[derive(Clone, Debug)]
pub struct ValidateConfig {
    /// The (mechanism, sending rate in Mbps) cells under validation.
    pub cells: Vec<(BufferMode, u64)>,
    /// Single-packet flows per run (the paper uses 1000).
    pub flows: usize,
    /// Repetitions per cell; simulated means average over them.
    pub repetitions: usize,
    /// Base seed; repetition `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Per-metric tolerances.
    pub tolerances: Tolerances,
    /// Parallelism for the second sweep of the serial ≡ parallel law
    /// (the first always runs serial).
    pub parallelism: Parallelism,
    /// Run against the deliberately broken oracle (self-test mode).
    pub broken: bool,
    /// Number of seeded random configurations to explore (0 = skip).
    pub random_configs: u64,
}

impl Default for ValidateConfig {
    /// The full Section IV validation: all three mechanisms across the
    /// paper's 5–100 Mbps grid, 1000 flows, 3 repetitions.
    fn default() -> Self {
        let mechanisms = [
            BufferMode::NoBuffer,
            BufferMode::PacketGranularity { capacity: 256 },
            BufferMode::FlowGranularity {
                capacity: 256,
                timeout: Nanos::from_millis(50),
            },
        ];
        let rates = RateSweep::paper_rates();
        ValidateConfig {
            cells: mechanisms
                .iter()
                .flat_map(|&m| rates.iter().map(move |&rate| (m, rate)))
                .collect(),
            flows: 1000,
            repetitions: 3,
            base_seed: 42,
            tolerances: Tolerances::default(),
            parallelism: Parallelism::Serial,
            broken: false,
            random_configs: 0,
        }
    }
}

/// One metric of one cell compared against the oracle.
#[derive(Clone, Debug)]
pub struct MetricCheck {
    /// Which metric.
    pub metric: Metric,
    /// Simulated mean over the cell's repetitions.
    pub simulated: f64,
    /// The oracle's prediction.
    pub predicted: f64,
    /// `|simulated − predicted| / max(|simulated|, ε)`.
    pub rel_err: f64,
    /// The tolerance this check was held to (widening included).
    pub tolerance: f64,
    /// Whether the check passed.
    pub pass: bool,
}

/// The differential verdict for one grid cell.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// Mechanism label (`mode.label()`).
    pub label: String,
    /// Sending rate, Mbps.
    pub rate_mbps: u64,
    /// Oracle: the cell's offered rate exceeds the path's capacity.
    pub saturated: bool,
    /// Oracle: some station sits in the near-critical band.
    pub near_critical: bool,
    /// Oracle: the station defining the path's capacity.
    pub bottleneck: &'static str,
    /// Median of the per-repetition flow-setup means, ms (repetition
    /// spread, accumulated through [`sdnbuf_metrics::Histogram`]).
    pub delay_rep_p50_ms: f64,
    /// 95th percentile of the per-repetition flow-setup means, ms.
    pub delay_rep_p95_ms: f64,
    /// Every metric comparison for this cell.
    pub checks: Vec<MetricCheck>,
}

impl CellReport {
    /// Number of failed checks in this cell.
    pub fn failures(&self) -> usize {
        self.checks.iter().filter(|c| !c.pass).count()
    }
}

/// One metamorphic law's verdict over the whole grid.
#[derive(Clone, Debug)]
pub struct LawReport {
    /// Stable law identifier.
    pub law: &'static str,
    /// Whether the law held everywhere it applied.
    pub holds: bool,
    /// Human-readable evidence: the first counterexample, or a summary
    /// of what was covered.
    pub detail: String,
}

/// A randomly generated configuration that violated an always-true law,
/// with its greedily shrunk minimal form.
#[derive(Clone, Debug)]
pub struct RandomFinding {
    /// The generated scenario's replayable spec.
    pub spec: String,
    /// The shrunk scenario's spec (== `spec` when nothing could shrink).
    pub shrunk_spec: String,
    /// The violations the shrunk scenario still exhibits.
    pub violations: Vec<String>,
}

/// The complete `validate/v1` report.
#[derive(Clone, Debug)]
pub struct ValidationReport {
    /// Whether the broken oracle was used (self-test mode).
    pub broken: bool,
    /// Per-cell differential results, grid order.
    pub cells: Vec<CellReport>,
    /// Metamorphic law verdicts.
    pub laws: Vec<LawReport>,
    /// Random configurations explored.
    pub random_checked: u64,
    /// Law-violating random configurations, shrunk.
    pub random_findings: Vec<RandomFinding>,
}

impl ValidationReport {
    /// Total differential checks performed.
    pub fn checks(&self) -> usize {
        self.cells.iter().map(|c| c.checks.len()).sum()
    }

    /// Failed differential checks.
    pub fn differential_failures(&self) -> usize {
        self.cells.iter().map(|c| c.failures()).sum()
    }

    /// Failed metamorphic laws.
    pub fn laws_failed(&self) -> usize {
        self.laws.iter().filter(|l| !l.holds).count()
    }

    /// True when everything passed: every differential check, every law,
    /// every random config.
    pub fn passed(&self) -> bool {
        self.differential_failures() == 0
            && self.laws_failed() == 0
            && self.random_findings.is_empty()
    }

    /// The report as one `validate/v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let mut w = JsonWriter::new(&mut s);
        w.begin_object();
        w.key("schema").string(VALIDATE_SCHEMA);
        w.key("broken").bool(self.broken);
        w.key("summary").begin_object();
        w.key("cells").u64(self.cells.len() as u64);
        w.key("checks").u64(self.checks() as u64);
        w.key("differential_failures")
            .u64(self.differential_failures() as u64);
        w.key("laws").u64(self.laws.len() as u64);
        w.key("laws_failed").u64(self.laws_failed() as u64);
        w.key("random_checked").u64(self.random_checked);
        w.key("random_failures")
            .u64(self.random_findings.len() as u64);
        w.key("passed").bool(self.passed());
        w.end_object();
        w.key("cells").begin_array();
        for c in &self.cells {
            w.begin_object();
            w.key("label").string(&c.label);
            w.key("rate_mbps").u64(c.rate_mbps);
            w.key("saturated").bool(c.saturated);
            w.key("near_critical").bool(c.near_critical);
            w.key("bottleneck").string(c.bottleneck);
            w.key("delay_rep_p50_ms").f64(c.delay_rep_p50_ms);
            w.key("delay_rep_p95_ms").f64(c.delay_rep_p95_ms);
            w.key("checks").begin_array();
            for ck in &c.checks {
                w.begin_object();
                w.key("metric").string(ck.metric.name());
                w.key("simulated").f64(ck.simulated);
                w.key("predicted").f64(ck.predicted);
                w.key("rel_err").f64(ck.rel_err);
                w.key("tolerance").f64(ck.tolerance);
                w.key("pass").bool(ck.pass);
                w.end_object();
            }
            w.end_array().end_object();
        }
        w.end_array();
        w.key("laws").begin_array();
        for l in &self.laws {
            w.begin_object();
            w.key("law").string(l.law);
            w.key("holds").bool(l.holds);
            w.key("detail").string(&l.detail);
            w.end_object();
        }
        w.end_array();
        w.key("random").begin_object();
        w.key("checked").u64(self.random_checked);
        w.key("failures").begin_array();
        for f in &self.random_findings {
            w.begin_object();
            w.key("spec").string(&f.spec);
            w.key("shrunk_spec").string(&f.shrunk_spec);
            w.key("violations").begin_array();
            for v in &f.violations {
                w.string(v);
            }
            w.end_array().end_object();
        }
        w.end_array().end_object().end_object();
        s
    }

    /// The differential comparison as a TSV table, one row per
    /// (cell, metric).
    pub fn to_tsv(&self) -> String {
        let mut s = String::from(
            "mechanism\trate_mbps\tmetric\tsimulated\tpredicted\trel_err_pct\ttolerance_pct\
             \tnear_critical\tpass\n",
        );
        for c in &self.cells {
            for ck in &c.checks {
                let _ = writeln!(
                    s,
                    "{}\t{}\t{}\t{:.6}\t{:.6}\t{:.2}\t{:.2}\t{}\t{}",
                    c.label,
                    c.rate_mbps,
                    ck.metric.name(),
                    ck.simulated,
                    ck.predicted,
                    ck.rel_err * 100.0,
                    ck.tolerance * 100.0,
                    c.near_critical,
                    ck.pass
                );
            }
        }
        s
    }
}

/// The metrics the differential harness compares per cell.
pub fn checked_metrics() -> &'static [Metric] {
    &[
        Metric::FlowSetupDelay,
        Metric::ControllerDelay,
        Metric::ControlPathLoadUp,
        Metric::ControlPathLoadDown,
        Metric::ControllerCpu,
        Metric::PktInCount,
        Metric::FlowModCount,
        Metric::PktOutCount,
    ]
}

/// The oracle's value for `metric` out of a [`Prediction`].
fn predicted_value(p: &Prediction, metric: Metric) -> f64 {
    match metric {
        Metric::FlowSetupDelay => p.flow_setup_delay_ms,
        Metric::ControllerDelay => p.controller_delay_ms,
        Metric::ControlPathLoadUp => p.ctrl_load_to_controller_mbps,
        Metric::ControlPathLoadDown => p.ctrl_load_to_switch_mbps,
        Metric::ControllerCpu => p.controller_cpu_percent,
        Metric::PktInCount => p.pkt_in_count as f64,
        Metric::FlowModCount => p.flow_mod_count as f64,
        Metric::PktOutCount => p.pkt_out_count as f64,
        other => panic!("metric {other:?} has no oracle prediction"),
    }
}

/// Builds the oracle's [`Scenario`] for one cell of `config`'s grid.
pub fn scenario_for(config: &ValidateConfig, mode: BufferMode, rate_mbps: u64) -> Scenario {
    let testbed = TestbedConfig::with_buffer(mode);
    Scenario {
        switch: testbed.switch,
        controller: testbed.controller,
        data_link: testbed.data_link,
        control_link: testbed.control_link,
        rate: BitRate::from_mbps(rate_mbps),
        frame_len: ExperimentConfig::default().frame_size,
        flows: config.flows as u64,
    }
}

/// Runs the whole validation plane and returns the report.
pub fn validate(config: &ValidateConfig) -> ValidationReport {
    let oracle = if config.broken {
        Oracle::broken()
    } else {
        Oracle::faithful()
    };

    // One RateSweep per mechanism keeps the cell list exact (a cross
    // product would inflate it).
    let groups = mech_groups(config);
    let mut all_cells: Vec<SweepCell> = Vec::new();
    let mut serial_parallel_ok = true;
    let mut serial_parallel_detail = String::new();
    let mut validated_runs = 0usize;
    for (mode, rates) in &groups {
        let sweep = RateSweep {
            rates_mbps: rates.clone(),
            buffers: vec![*mode],
            workload: WorkloadKind::single_packet_flows(config.flows),
            repetitions: config.repetitions,
            base_seed: config.base_seed,
            frame_size: ExperimentConfig::default().frame_size,
            testbed: TestbedConfig::default(),
        };
        let serial = sweep.run_with(Parallelism::Serial, &NullSink);
        let parallel = sweep.run_with(config.parallelism, &NullSink);
        if serial != parallel {
            serial_parallel_ok = false;
            let _ = write!(
                serial_parallel_detail,
                "{} diverged between serial and parallel execution; ",
                mode.label()
            );
        }
        validated_runs += rates.len() * config.repetitions;
        all_cells.extend(serial.cells().iter().cloned());
    }

    // -- Differential comparison ------------------------------------
    let mut cells = Vec::with_capacity(all_cells.len());
    for cell in &all_cells {
        cells.push(check_cell(config, &oracle, cell));
    }

    // -- Metamorphic laws -------------------------------------------
    let mut laws = vec![
        law_delay_monotone(&all_cells),
        law_buffering_shrinks_up_bytes(&all_cells),
        law_conservation(&all_cells),
        LawReport {
            law: "serial-equals-parallel",
            holds: serial_parallel_ok,
            detail: if serial_parallel_ok {
                format!("{validated_runs} runs byte-identical under both executors")
            } else {
                serial_parallel_detail
            },
        },
        law_flow_gran_fewer_pkt_ins(config),
    ];
    laws.retain(|l| !l.detail.is_empty() || !l.holds);

    // -- Random-config exploration ----------------------------------
    let (random_checked, random_findings) = random_sweep(config.random_configs, config.base_seed);

    ValidationReport {
        broken: config.broken,
        cells,
        laws,
        random_checked,
        random_findings,
    }
}

/// The cells as (mechanism, rates) groups, in first-seen order.
fn mech_groups(config: &ValidateConfig) -> Vec<(BufferMode, Vec<u64>)> {
    let mut groups: Vec<(BufferMode, Vec<u64>)> = Vec::new();
    for (mode, rate) in &config.cells {
        match groups.iter_mut().find(|(m, _)| m == mode) {
            Some((_, rates)) => {
                if !rates.contains(rate) {
                    rates.push(*rate);
                }
            }
            None => groups.push((*mode, vec![*rate])),
        }
    }
    groups
}

/// Compares one simulated cell against the oracle.
fn check_cell(config: &ValidateConfig, oracle: &Oracle, cell: &SweepCell) -> CellReport {
    let prediction = oracle.predict(&scenario_for(config, cell.mode, cell.rate_mbps));
    let widening = if prediction.near_critical {
        config.tolerances.near_critical_factor
    } else if prediction.saturated {
        config.tolerances.saturated_factor
    } else {
        1.0
    };

    let mut rep_delays = Histogram::new();
    for run in &cell.runs {
        rep_delays.record_ns((run.get(Metric::FlowSetupDelay) * 1e6) as u64);
    }

    let mut checks = Vec::new();
    for &metric in checked_metrics() {
        let simulated = RunResult::mean_over(&cell.runs, |r| r.get(metric));
        let predicted = predicted_value(&prediction, metric);
        let rel_err = (simulated - predicted).abs() / simulated.abs().max(1e-9);
        // Counts stay exact everywhere; widening applies to the analog
        // metrics only.
        let tolerance = match metric {
            Metric::PktInCount | Metric::FlowModCount | Metric::PktOutCount => {
                config.tolerances.base_for(metric)
            }
            m => config.tolerances.base_for(m) * widening,
        };
        checks.push(MetricCheck {
            metric,
            simulated,
            predicted,
            rel_err,
            tolerance,
            pass: rel_err <= tolerance,
        });
    }
    CellReport {
        label: cell.label.clone(),
        rate_mbps: cell.rate_mbps,
        saturated: prediction.saturated,
        near_critical: prediction.near_critical,
        bottleneck: prediction.bottleneck,
        delay_rep_p50_ms: rep_delays.quantile_ms(0.5),
        delay_rep_p95_ms: rep_delays.quantile_ms(0.95),
        checks,
    }
}

/// Law: for each mechanism, mean flow-setup delay is non-decreasing in
/// the offered rate (within [`MONOTONE_SLACK`] of repetition noise).
fn law_delay_monotone(cells: &[SweepCell]) -> LawReport {
    let mut covered = 0usize;
    for cell in cells {
        let prev = cells
            .iter()
            .filter(|c| c.mode == cell.mode && c.rate_mbps < cell.rate_mbps)
            .max_by_key(|c| c.rate_mbps);
        if let Some(prev) = prev {
            let lo = RunResult::mean_over(&prev.runs, |r| r.get(Metric::FlowSetupDelay));
            let hi = RunResult::mean_over(&cell.runs, |r| r.get(Metric::FlowSetupDelay));
            covered += 1;
            if hi < lo * (1.0 - MONOTONE_SLACK) {
                return LawReport {
                    law: "delay-monotone-in-rate",
                    holds: false,
                    detail: format!(
                        "{}: delay fell from {lo:.4} ms at {} Mbps to {hi:.4} ms at {} Mbps",
                        cell.label, prev.rate_mbps, cell.rate_mbps
                    ),
                };
            }
        }
    }
    LawReport {
        law: "delay-monotone-in-rate",
        holds: true,
        detail: format!("{covered} adjacent rate pairs checked"),
    }
}

/// Law: at each rate, the up-path control bytes of a buffering mechanism
/// never exceed the no-buffer mechanism's (the buffered `packet_in`
/// carries a 128-byte prefix instead of the whole packet).
fn law_buffering_shrinks_up_bytes(cells: &[SweepCell]) -> LawReport {
    let mut covered = 0usize;
    for base in cells.iter().filter(|c| c.mode == BufferMode::NoBuffer) {
        let base_bytes = RunResult::mean_over(&base.runs, |r| r.ctrl_bytes_to_controller as f64);
        for buffered in cells
            .iter()
            .filter(|c| c.mode != BufferMode::NoBuffer && c.rate_mbps == base.rate_mbps)
        {
            covered += 1;
            let bytes = RunResult::mean_over(&buffered.runs, |r| r.ctrl_bytes_to_controller as f64);
            if bytes > base_bytes {
                return LawReport {
                    law: "buffering-shrinks-up-path-bytes",
                    holds: false,
                    detail: format!(
                        "{} sent {bytes:.0} B up at {} Mbps, more than no-buffer's {base_bytes:.0}",
                        buffered.label, base.rate_mbps
                    ),
                };
            }
        }
    }
    LawReport {
        law: "buffering-shrinks-up-path-bytes",
        holds: true,
        detail: format!("{covered} (rate, mechanism) pairs checked"),
    }
}

/// Law: packet conservation — in a no-fault cell every offered packet is
/// delivered, nothing is dropped, and the control channel loses nothing.
fn law_conservation(cells: &[SweepCell]) -> LawReport {
    let mut covered = 0usize;
    for cell in cells {
        for run in &cell.runs {
            covered += 1;
            let conserved = run.packets_delivered + run.packets_dropped == run.packets_sent;
            if !conserved || run.packets_dropped != 0 || run.ctrl_drops != 0 {
                return LawReport {
                    law: "packet-conservation",
                    holds: false,
                    detail: format!(
                        "{} at {} Mbps: sent {} delivered {} dropped {} ctrl_drops {}",
                        cell.label,
                        cell.rate_mbps,
                        run.packets_sent,
                        run.packets_delivered,
                        run.packets_dropped,
                        run.ctrl_drops
                    ),
                };
            }
        }
    }
    LawReport {
        law: "packet-conservation",
        holds: true,
        detail: format!("{covered} runs conserved every packet"),
    }
}

/// Law: on multi-packet flows the flow-granularity mechanism announces at
/// most as many `packet_in`s as the packet-granularity one (one per flow
/// vs one per miss). Runs its own small Section V side-grid — the main
/// grid's single-packet flows make the two trivially equal.
fn law_flow_gran_fewer_pkt_ins(config: &ValidateConfig) -> LawReport {
    let (capacity, timeout) = (256, Nanos::from_millis(50));
    let mut detail = String::new();
    for rate in [20u64, 60, 100] {
        let mut counts = [0.0f64; 2];
        for (i, mode) in [
            BufferMode::PacketGranularity { capacity },
            BufferMode::FlowGranularity { capacity, timeout },
        ]
        .into_iter()
        .enumerate()
        {
            let mut exp = Experiment::new(ExperimentConfig {
                buffer: mode,
                workload: WorkloadKind::paper_section_v(),
                sending_rate: BitRate::from_mbps(rate),
                seed: config.base_seed,
                ..ExperimentConfig::default()
            });
            counts[i] = exp.run().pkt_in_count as f64;
        }
        if counts[1] > counts[0] {
            return LawReport {
                law: "flow-gran-pkt-ins-at-most-packet-gran",
                holds: false,
                detail: format!(
                    "at {rate} Mbps flow-gran announced {} packet_ins vs packet-gran's {}",
                    counts[1], counts[0]
                ),
            };
        }
        let _ = write!(detail, "{rate} Mbps: {} ≤ {}; ", counts[1], counts[0]);
    }
    LawReport {
        law: "flow-gran-pkt-ins-at-most-packet-gran",
        holds: true,
        detail: detail.trim_end_matches("; ").to_owned(),
    }
}

/// Deterministically generates random configuration number `seed`: a
/// mechanism, workload, rate and frame size beyond the paper's grid, run
/// with workload seed `seed` on the calibrated testbed.
pub fn random_scenario(seed: u64) -> RunSpec {
    let mut rng = SimRng::seed_from(seed ^ RANDOM_STREAM);
    let capacities = [16usize, 64, 256];
    let timeouts_ms = [10u64, 20, 50];
    let mech = match rng.gen_range(3) {
        0 => BufferMode::NoBuffer,
        1 => BufferMode::PacketGranularity {
            capacity: capacities[rng.gen_range(3) as usize],
        },
        _ => BufferMode::FlowGranularity {
            capacity: capacities[rng.gen_range(3) as usize],
            timeout: Nanos::from_millis(timeouts_ms[rng.gen_range(3) as usize]),
        },
    };
    let workload = if rng.gen_range(4) > 0 {
        WorkloadKind::single_packet_flows(20 + rng.gen_range(101) as usize)
    } else {
        let n_flows = 5 + rng.gen_range(16) as usize;
        WorkloadKind::CrossSequenced {
            n_flows,
            packets_per_flow: 2 + rng.gen_range(7) as usize,
            group_size: 1 + rng.gen_range(4.min(n_flows as u64)) as usize,
        }
    };
    let frame_sizes = [200usize, 500, 1000, 1500];
    RunSpec {
        seed,
        mech,
        workload,
        rate_mbps: 1 + rng.gen_range(100),
        frame_size: frame_sizes[rng.gen_range(4) as usize],
        ..RunSpec::default()
    }
}

/// Number of flows `workload` offers.
fn flows(workload: &WorkloadKind) -> usize {
    match *workload {
        WorkloadKind::SinglePacketFlows { n_flows } => n_flows,
        WorkloadKind::CrossSequenced { n_flows, .. } => n_flows,
        _ => 0,
    }
}

/// Checks the always-true laws on one random scenario. Returns the list
/// of violations (empty = clean).
pub fn check_random_scenario(scenario: &RunSpec) -> Vec<String> {
    let mut violations = Vec::new();
    let config = scenario.config();
    let a = Experiment::new(config.clone()).run();
    let b = Experiment::new(config.clone()).run();
    if a != b {
        violations.push("nondeterministic: two runs of the same config diverged".to_owned());
    }
    if a.packets_delivered + a.packets_dropped != a.packets_sent {
        violations.push(format!(
            "conservation: sent {} != delivered {} + dropped {}",
            a.packets_sent, a.packets_delivered, a.packets_dropped
        ));
    }
    if a.packets_dropped != 0 || a.ctrl_drops != 0 {
        violations.push(format!(
            "no-fault drops: {} data, {} control",
            a.packets_dropped, a.ctrl_drops
        ));
    }
    if a.flows_completed != a.flows_total {
        violations.push(format!(
            "stalled flows: {} of {} completed",
            a.flows_completed, a.flows_total
        ));
    }
    if a.pkt_in_count < a.flows_total as u64 {
        violations.push(format!(
            "too few packet_ins: {} for {} flows",
            a.pkt_in_count, a.flows_total
        ));
    }
    // Oracle floor: the simulated mean can never beat the idle-path
    // latency the configuration itself implies (0.8 leaves margin for
    // model error; a sub-floor delay means the simulator skipped work).
    let testbed = config.testbed;
    let mut switch = testbed.switch;
    switch.buffer = scenario.mech;
    let prediction = Oracle::faithful().predict(&Scenario {
        switch,
        controller: testbed.controller,
        data_link: testbed.data_link,
        control_link: testbed.control_link,
        rate: config.sending_rate,
        frame_len: scenario.frame_size,
        flows: flows(&scenario.workload).max(1) as u64,
    });
    let sim_delay = a.flow_setup_delay.mean;
    if a.flows_total > 0 && sim_delay < 0.8 * prediction.setup_floor_ms {
        violations.push(format!(
            "sub-floor delay: simulated {sim_delay:.4} ms < 0.8 × oracle floor {:.4} ms",
            prediction.setup_floor_ms
        ));
    }
    violations
}

/// Greedy shrinking, chaos-minimizer style: repeatedly try simplifying
/// transformations (smaller workload, plainer frame/rate/mechanism) and
/// keep any that still violates a law, until a fixpoint.
pub fn shrink_random_scenario(scenario: &RunSpec) -> RunSpec {
    shrink_to_fixpoint(scenario.clone(), shrink_candidates, |candidate| {
        !check_random_scenario(candidate).is_empty()
    })
}

fn shrink_candidates(s: &RunSpec) -> Vec<RunSpec> {
    let mut out = Vec::new();
    // Plainer workload first: cross-sequenced → single-packet.
    if let WorkloadKind::CrossSequenced { n_flows, .. } = s.workload {
        out.push(RunSpec {
            workload: WorkloadKind::single_packet_flows(n_flows),
            ..s.clone()
        });
    }
    // Fewer flows.
    let flows = flows(&s.workload);
    if flows > 4 {
        let halved = flows / 2;
        out.push(RunSpec {
            workload: match s.workload {
                WorkloadKind::CrossSequenced {
                    packets_per_flow,
                    group_size,
                    ..
                } => WorkloadKind::CrossSequenced {
                    n_flows: halved,
                    packets_per_flow,
                    group_size: group_size.min(halved),
                },
                _ => WorkloadKind::single_packet_flows(halved),
            },
            ..s.clone()
        });
    }
    // The paper's frame size.
    let paper_frame = ExperimentConfig::default().frame_size;
    if s.frame_size != paper_frame {
        out.push(RunSpec {
            frame_size: paper_frame,
            ..s.clone()
        });
    }
    // A gentler rate.
    if s.rate_mbps > 10 {
        out.push(RunSpec {
            rate_mbps: (s.rate_mbps / 2).max(10),
            ..s.clone()
        });
    }
    // The simplest mechanism.
    if s.mech != BufferMode::NoBuffer {
        out.push(RunSpec {
            mech: BufferMode::NoBuffer,
            ..s.clone()
        });
    }
    out
}

/// Exercises `n` seeded random scenarios starting at `base_seed` and
/// returns `(checked, findings)` with every finding shrunk.
pub fn random_sweep(n: u64, base_seed: u64) -> (u64, Vec<RandomFinding>) {
    let mut findings = Vec::new();
    for i in 0..n {
        let scenario = random_scenario(base_seed.wrapping_add(i));
        let violations = check_random_scenario(&scenario);
        if !violations.is_empty() {
            let shrunk = shrink_random_scenario(&scenario);
            let violations = check_random_scenario(&shrunk);
            findings.push(RandomFinding {
                spec: scenario.to_string(),
                shrunk_spec: shrunk.to_string(),
                violations,
            });
        }
    }
    (n, findings)
}

/// Re-export of the oracle's types for downstream tests and the CLI.
pub use sdnbuf_model::{ModelFidelity, Oracle, Prediction, Scenario, Station};

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ValidateConfig {
        let packet = BufferMode::PacketGranularity { capacity: 256 };
        ValidateConfig {
            cells: vec![
                (BufferMode::NoBuffer, 10),
                (BufferMode::NoBuffer, 60),
                (packet, 10),
                (packet, 60),
            ],
            flows: 120,
            repetitions: 2,
            ..ValidateConfig::default()
        }
    }

    #[test]
    fn tiny_grid_passes_and_reports_every_metric() {
        let report = validate(&tiny_config());
        assert!(
            report.passed(),
            "differential failures: {:#?}",
            report
                .cells
                .iter()
                .flat_map(|c| c.checks.iter().filter(|k| !k.pass).map(|k| (
                    c.label.clone(),
                    c.rate_mbps,
                    k.clone()
                )))
                .collect::<Vec<_>>()
        );
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.checks(), 4 * checked_metrics().len());
    }

    #[test]
    fn broken_oracle_is_caught() {
        let mut config = tiny_config();
        config.broken = true;
        let report = validate(&config);
        assert!(
            report.differential_failures() > 0,
            "the forgotten-propagation bug slipped through every tolerance"
        );
        // The simulator itself is untouched: the laws still hold.
        assert_eq!(report.laws_failed(), 0, "{:#?}", report.laws);
    }

    #[test]
    fn json_report_is_tagged_and_tsv_has_a_row_per_check() {
        let report = validate(&ValidateConfig {
            cells: vec![(BufferMode::PacketGranularity { capacity: 256 }, 20)],
            flows: 60,
            repetitions: 1,
            ..ValidateConfig::default()
        });
        let json = report.to_json();
        assert!(json.starts_with("{\"schema\":\"validate/v1\""), "{json}");
        let tsv = report.to_tsv();
        assert_eq!(tsv.lines().count(), 1 + report.checks());
    }

    #[test]
    fn explicit_cells_override_the_cross_product() {
        // The default is the mechanism-major cross product of the three
        // mechanisms and the paper's rate grid.
        let grid = ValidateConfig::default().cells;
        let rates = RateSweep::paper_rates();
        assert_eq!(grid.len(), 3 * rates.len());
        let (first, rest) = grid.split_at(rates.len());
        assert!(first.iter().all(|&(m, _)| m == BufferMode::NoBuffer));
        assert_eq!(first.iter().map(|&(_, r)| r).collect::<Vec<_>>(), rates);
        assert!(rest.iter().all(|&(m, _)| m != BufferMode::NoBuffer));
        let report = validate(&ValidateConfig {
            cells: vec![
                (BufferMode::NoBuffer, 20),
                (BufferMode::PacketGranularity { capacity: 256 }, 60),
            ],
            flows: 60,
            repetitions: 1,
            ..ValidateConfig::default()
        });
        assert_eq!(report.cells.len(), 2);
        let labels: Vec<(&str, u64)> = report
            .cells
            .iter()
            .map(|c| (c.label.as_str(), c.rate_mbps))
            .collect();
        assert!(labels.contains(&("no-buffer", 20)));
        assert!(labels.contains(&("buffer-256", 60)));
    }

    #[test]
    fn random_scenarios_are_deterministic_and_diverse() {
        for seed in [0u64, 7, 99] {
            assert_eq!(random_scenario(seed), random_scenario(seed));
        }
        let mut specs: Vec<String> = (0..20).map(|s| random_scenario(s).to_string()).collect();
        specs.sort();
        specs.dedup();
        assert!(specs.len() > 10, "generator collapsed: {specs:?}");
    }

    #[test]
    fn shrinking_converges_to_a_fixpoint() {
        // Shrink a scenario under a synthetic always-failing check by
        // verifying candidates only ever simplify (no oscillation).
        let s = random_scenario(3);
        for c in shrink_candidates(&s) {
            assert!(flows(&c.workload) <= flows(&s.workload));
            assert!(c.rate_mbps <= s.rate_mbps);
        }
    }
}
