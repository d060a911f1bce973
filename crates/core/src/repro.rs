//! The paper reproduction as data: every artifact `sdnlab repro` writes to
//! `results/`.
//!
//! Figs. 2–13 are the rows of `FIGURES`, each one [`figures::metric_table`]
//! of the Section IV or Section V sweep. The ablations and the Section VI
//! TCP/UDP mix are `Study` values: a table with one row per variant, each
//! row the mean of its metric columns over seeded repetitions, all run by
//! one row-maker on the executor. Around them sit the summary-claims
//! table, one traced run's occupancy series and the markdown report.
//!
//! Every artifact is byte-identical for any [`Parallelism`]: each run owns
//! its seed and measures as on a fresh testbed (a worker's runs share one
//! testbed, reset in place by [`crate::Testbed::reset`], and one
//! departure buffer), and results merge back in job order.

use crate::experiment::RunScratch;
use crate::{
    figures, observe, report, BufferMode, Executor, Experiment, ExperimentConfig, Metric,
    Parallelism, RateSweep, RunResult, StderrProgress, SweepResult, TestbedConfig, WorkloadKind,
};
use sdnbuf_controller::ForwardingMode;
use sdnbuf_metrics::Table;
use sdnbuf_sim::{BitRate, FaultPlan, Nanos, Tracer};
use sdnbuf_switchbuf::Sabotage;
use sdnbuf_workload::ArrivalProcess;
use std::io::{self, Write};
use std::path::Path;

/// Which of the paper's two sweeps a figure plots.
#[derive(Clone, Copy)]
enum Section {
    /// [`RateSweep::paper_section_iv`]: the benefits of a buffer.
    Iv,
    /// [`RateSweep::paper_section_v`]: packet- vs flow-granularity.
    V,
}

/// Every figure table: file stem, title, sweep, y-axis metric.
#[rustfmt::skip]
const FIGURES: [(&str, &str, Section, Metric); 16] = [
    ("fig02_control_path_load",                 "Fig. 2(a): Control Messages Sent from Switch (Mbps)", Section::Iv, Metric::ControlPathLoadUp),
    ("fig02b_control_path_load_to_switch",      "Fig. 2(b): Control Messages Sent to Switch (Mbps)",   Section::Iv, Metric::ControlPathLoadDown),
    ("fig03_controller_usage",                  "Fig. 3: Controller Usages (%)",                       Section::Iv, Metric::ControllerCpu),
    ("fig04_switch_usage",                      "Fig. 4: Switch Usages (%)",                           Section::Iv, Metric::SwitchCpu),
    ("fig05_flow_setup_delay",                  "Fig. 5: Flow Setup Delay (ms)",                       Section::Iv, Metric::FlowSetupDelay),
    ("fig06_controller_delay",                  "Fig. 6: Controller Delay (ms)",                       Section::Iv, Metric::ControllerDelay),
    ("fig07_switch_delay",                      "Fig. 7: Switch Delay (ms)",                           Section::Iv, Metric::SwitchDelay),
    ("fig08_buffer_utilization",                "Fig. 8: Buffer Utilization (mean units)",             Section::Iv, Metric::BufferMeanOccupancy),
    ("fig09_mech_control_path_load",            "Fig. 9(a): Control Messages Sent from Switch (Mbps)", Section::V,  Metric::ControlPathLoadUp),
    ("fig09b_mech_control_path_load_to_switch", "Fig. 9(b): Control Messages Sent to Switch (Mbps)",   Section::V,  Metric::ControlPathLoadDown),
    ("fig10_mech_controller_usage",             "Fig. 10: Controller Usages (%)",                      Section::V,  Metric::ControllerCpu),
    ("fig11_mech_switch_usage",                 "Fig. 11: Switch Usages (%)",                          Section::V,  Metric::SwitchCpu),
    ("fig12_mech_delays",                       "Fig. 12(a): Flow Setup Delay (ms)",                   Section::V,  Metric::FlowSetupDelay),
    ("fig12b_mech_flow_forwarding_delay",       "Fig. 12(b): Flow Forwarding Delay (ms)",              Section::V,  Metric::FlowForwardingDelay),
    ("fig13_mech_buffer_utilization",           "Fig. 13(a): Buffer Utilization, mean units",          Section::V,  Metric::BufferMeanOccupancy),
    ("fig13b_mech_buffer_utilization_max",      "Fig. 13(b): Buffer Utilization, max units",           Section::V,  Metric::BufferPeakOccupancy),
];

/// The paper's headline percentages against the measured ones.
const SUMMARY: &str = "summary_claims";
/// One traced buffer-16 run at 100 Mbps, sampled per millisecond.
const OCCUPANCY: &str = "occupancy_buffer16_100mbps";
/// Both sweeps, the claims and the occupancy section as markdown.
const REPORT: &str = "report.md";

/// A column of a [`Study`] table.
#[derive(Clone, Copy)]
enum Column {
    /// The variant's next label cell.
    Label(&'static str),
    /// The mean of a metric over the variant's runs, to so many decimals.
    Mean(&'static str, Metric, usize),
}

/// One row of a [`Study`]: its label cells and the run it repeats.
struct Variant {
    /// One cell per [`Column::Label`], in column order.
    labels: Vec<String>,
    /// Repetition `rep` runs this with `seed + rep`.
    config: ExperimentConfig,
    /// The pktgen arrival process ([`Experiment`] runs CBR only).
    arrival: ArrivalProcess,
}

impl Variant {
    fn new(labels: Vec<String>, config: ExperimentConfig) -> Variant {
        Variant {
            labels,
            config,
            arrival: ArrivalProcess::Cbr,
        }
    }

    /// Repetition `rep`, on the worker's `scratch` ([`RunScratch::run`]).
    fn run(&self, rep: usize, scratch: &mut RunScratch) -> RunResult {
        let mut config = self.config.clone();
        config.seed += rep as u64;
        scratch.run(config, self.arrival, Tracer::off(), Sabotage::none())
    }
}

/// A side study: a table with one row per variant.
struct Study {
    stem: &'static str,
    title: &'static str,
    columns: &'static [Column],
    variants: Vec<Variant>,
}

impl Study {
    /// Runs every variant `reps` times on `threads` and renders the table.
    fn table(&self, reps: usize, threads: Parallelism) -> Table {
        let (runs, _) = Executor::new(threads).run(
            self.variants.len() * reps,
            |i, scratch: &mut RunScratch| self.variants[i / reps].run(i % reps, scratch),
            |_, _, _| {},
        );
        let headers = self.columns.iter().map(|column| match *column {
            Column::Label(header) | Column::Mean(header, ..) => header,
        });
        let mut table = Table::new(headers.collect());
        for (variant, runs) in self.variants.iter().zip(runs.chunks(reps)) {
            let mut labels = variant.labels.iter().cloned();
            let cells = self.columns.iter().map(|column| match *column {
                Column::Label(_) => labels.next().expect("a label per label column"),
                Column::Mean(_, metric, decimals) => {
                    format!(
                        "{:.*}",
                        decimals,
                        RunResult::mean_over(runs, |r| r.get(metric))
                    )
                }
            });
            table.row(cells.collect());
        }
        table
    }
}

/// A run of `workload` through `buffer` at `mbps`, from `seed`.
fn cell(buffer: BufferMode, workload: WorkloadKind, mbps: u64, seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        buffer,
        workload,
        sending_rate: BitRate::from_mbps(mbps),
        seed,
        ..ExperimentConfig::default()
    }
}

/// The ablations DESIGN.md calls out, then the Section VI TCP/UDP mix.
fn studies() -> Vec<Study> {
    use Column::{Label, Mean};
    let iv = WorkloadKind::paper_section_iv();
    let v = WorkloadKind::paper_section_v();
    let packet = |capacity| BufferMode::PacketGranularity { capacity };
    let flow = |timeout| BufferMode::FlowGranularity {
        capacity: 256,
        timeout,
    };
    let with = |mut config: ExperimentConfig, testbed: TestbedConfig| {
        config.testbed = testbed;
        config
    };
    let mix = WorkloadKind::MixedUdpTcp {
        n_udp_flows: 400,
        n_tcp: 20,
        segments_per_tcp: 15,
    };
    vec![
        // How many header bytes should a buffered packet_in carry? Below
        // 42 the UDP header is cut and the rule cannot match the ports.
        Study {
            stem: "ablation_miss_send_len",
            title: "Ablation: miss_send_len at 60 Mbps (buffer-256)",
            columns: &[
                Label("miss_send_len"),
                Mean("ctrl_load_mbps", Metric::ControlPathLoadUp, 3),
                Mean("controller_delay_ms", Metric::ControllerDelay, 3),
                Label("parse_failures_possible"),
            ],
            variants: [42u16, 64, 128, 256, 512]
                .into_iter()
                .map(|msl| {
                    let mut testbed = TestbedConfig::default();
                    testbed.switch.miss_send_len = msl;
                    let risky = if msl < 42 { "yes" } else { "no" };
                    Variant::new(
                        vec![msl.to_string(), risky.to_owned()],
                        with(cell(packet(256), iv, 60, 100), testbed),
                    )
                })
                .collect(),
        },
        // Between the paper's 16 and 256, where does exhaustion stop hurting?
        Study {
            stem: "ablation_buffer_capacity",
            title: "Ablation: buffer capacity at 80 Mbps (packet granularity)",
            columns: &[
                Label("capacity"),
                Mean("fallbacks", Metric::BufferFallbacks, 1),
                Mean("setup_delay_ms", Metric::FlowSetupDelay, 3),
                Mean("peak_units", Metric::BufferPeakOccupancy, 1),
            ],
            variants: [8usize, 16, 32, 64, 128, 256]
                .into_iter()
                .map(|cap| Variant::new(vec![cap.to_string()], cell(packet(cap), iv, 80, 200)))
                .collect(),
        },
        // Algorithm 1's timeout when one in 20 control messages is lost:
        // too short re-requests needlessly, too long strands packets.
        Study {
            stem: "ablation_rerequest_timeout",
            title: "Ablation: Algorithm 1 re-request timeout under 5% control loss (50 Mbps)",
            columns: &[
                Label("timeout_ms"),
                Mean("rerequests", Metric::Rerequests, 1),
                Mean("delivered_pct", Metric::DeliveredPercent, 1),
                Mean("forwarding_delay_ms", Metric::FlowForwardingDelay, 3),
            ],
            variants: [5u64, 10, 20, 50, 100, 200]
                .into_iter()
                .map(|ms| {
                    let testbed = TestbedConfig {
                        faults: FaultPlan::every_nth_loss(20),
                        ..TestbedConfig::default()
                    };
                    let config = cell(flow(Nanos::from_millis(ms)), v, 50, 300);
                    Variant::new(vec![ms.to_string()], with(config, testbed))
                })
                .collect(),
        },
        // How much of the win is rule installation at all: a hub floods
        // every miss and installs nothing.
        Study {
            stem: "ablation_forwarding_mode",
            title: "Ablation: reactive rules vs hub flooding (50 flows x 20 pkts, 50 Mbps)",
            columns: &[
                Label("mode"),
                Mean("pkt_ins", Metric::PktInCount, 0),
                Mean("ctrl_load_mbps", Metric::ControlPathLoadUp, 3),
                Mean("flow_fwd_delay_ms", Metric::FlowForwardingDelay, 3),
            ],
            variants: [
                ("learning", ForwardingMode::Learning),
                ("hub", ForwardingMode::Hub),
            ]
            .into_iter()
            .map(|(name, mode)| {
                let mut testbed = TestbedConfig::default();
                testbed.controller.mode = mode;
                Variant::new(
                    vec![name.to_owned()],
                    with(cell(packet(256), v, 50, 400), testbed),
                )
            })
            .collect(),
        },
        // The paper's CBR pktgen against Poisson arrivals of the same mean.
        Study {
            stem: "ablation_arrival_process",
            title: "Ablation: CBR vs Poisson arrivals (buffer-64, 70 Mbps)",
            columns: &[
                Label("arrival"),
                Mean("peak_buffer_units", Metric::BufferPeakOccupancy, 1),
                Mean("fallbacks", Metric::BufferFallbacks, 1),
                Mean("setup_delay_ms", Metric::FlowSetupDelay, 3),
            ],
            variants: [
                ("cbr", ArrivalProcess::Cbr),
                ("poisson", ArrivalProcess::Poisson),
            ]
            .into_iter()
            .map(|(name, arrival)| Variant {
                arrival,
                ..Variant::new(vec![name.to_owned()], cell(packet(64), iv, 70, 500))
            })
            .collect(),
        },
        // Section VI: "if switch buffer benefits UDP flows, it also
        // benefits the mix of TCP and UDP flows".
        Study {
            stem: "tcp_udp_mix",
            title: "Section VI: mixed TCP+UDP traffic under the three mechanisms",
            columns: &[
                Label("rate_mbps"),
                Label("mechanism"),
                Mean("ctrl_load_mbps", Metric::ControlPathLoadUp, 3),
                Mean("setup_delay_ms", Metric::FlowSetupDelay, 3),
                Mean("delivered_pct", Metric::DeliveredPercent, 1),
            ],
            variants: [20, 40, 60, 80, 100]
                .into_iter()
                .flat_map(|mbps| {
                    [
                        BufferMode::NoBuffer,
                        packet(256),
                        flow(Nanos::from_millis(50)),
                    ]
                    .map(|buffer| {
                        Variant::new(
                            vec![mbps.to_string(), buffer.label()],
                            cell(buffer, mix, mbps, 700),
                        )
                    })
                })
                .collect(),
        },
    ]
}

/// Runs the whole reproduction at `reps` repetitions per cell on
/// `threads` and writes every artifact into `dir`, printing each table to
/// `out` as it goes (progress goes to stderr).
///
/// # Panics
/// If `reps` is 0: a table of means over no runs would report nothing.
pub fn write(dir: &Path, reps: usize, threads: Parallelism, out: &mut dyn Write) -> io::Result<()> {
    assert!(reps > 0, "a reproduction needs at least one repetition");
    std::fs::create_dir_all(dir)?;
    let mut emit = |stem: &str, title: &str, table: &Table| {
        writeln!(out, "== {title} ==\n{table}")?;
        std::fs::write(dir.join(format!("{stem}.tsv")), table.to_tsv())
    };
    let sweep = |preset: fn(usize) -> RateSweep, name| {
        preset(reps).run_with(threads, &StderrProgress::new(name))
    };
    let iv = sweep(RateSweep::paper_section_iv, "section-iv");
    let v = sweep(RateSweep::paper_section_v, "section-v");
    for (stem, title, section, metric) in FIGURES {
        let sweep: &SweepResult = match section {
            Section::Iv => &iv,
            Section::V => &v,
        };
        emit(stem, title, &figures::metric_table(sweep, metric))?;
    }
    let claims = figures::summary_claims(&iv, &v);
    emit(SUMMARY, "Paper claims vs reproduction", &claims)?;
    for study in studies() {
        emit(study.stem, study.title, &study.table(reps, threads))?;
    }

    // Inside the most telling Section IV cell: buffer-16 at 100 Mbps,
    // where the exhausted buffer stays pinned at capacity.
    let buffer_16 = BufferMode::PacketGranularity { capacity: 16 };
    let config = cell(buffer_16, WorkloadKind::paper_section_iv(), 100, 42);
    let (_, events) = Experiment::new(config).run_traced();
    let samples = observe::sample_series(&events, Nanos::from_millis(1));
    let mut tsv = Vec::new();
    observe::write_series_tsv(&samples, &mut tsv)?;
    std::fs::write(dir.join(format!("{OCCUPANCY}.tsv")), tsv)?;
    let mut markdown = report::full_report(&iv, &v);
    markdown.push('\n');
    markdown.push_str(&report::occupancy_markdown(
        "Inside one run — buffer-16 @ 100 Mbps, occupancy over time",
        &samples,
    ));
    std::fs::write(dir.join(REPORT), markdown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// What `write` produces is what `results/` holds: a study or figure
    /// whose table is not committed, or a committed table nothing writes
    /// any more, fails here. The other TSVs there are other commands'
    /// outputs: `sdnlab validate`'s, and `sdnlab run`'s ignored ones.
    #[test]
    fn repro_writes_exactly_the_committed_results() {
        let studies = studies();
        let stems = FIGURES.iter().map(|f| f.0).chain([SUMMARY, OCCUPANCY]);
        let mut written: BTreeSet<String> = stems
            .chain(studies.iter().map(|s| s.stem))
            .map(|stem| format!("{stem}.tsv"))
            .collect();
        written.insert(REPORT.to_owned());
        let others = ["validate.tsv", "samples.tsv", "latency_report.tsv"];
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let committed: BTreeSet<String> = std::fs::read_dir(dir)
            .expect("results/ exists")
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.ends_with(".tsv") || name == REPORT)
            .filter(|name| !others.contains(&name.as_str()))
            .collect();
        assert_eq!(written, committed);
    }
}
