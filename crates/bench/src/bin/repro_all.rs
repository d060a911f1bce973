//! Reproduces **every table and figure** of the paper's evaluation in one
//! run: the Section IV benefit analysis (Figs. 2–8), the Section V
//! mechanism comparison (Figs. 9–13), and the summary-claims table
//! (paper-reported percentages vs measured). Writes all series to
//! `results/*.tsv`.
//!
//! Environment: `SDNBUF_REPS` (default 20, as in the paper and the
//! committed `results/`), `SDNBUF_RATES=coarse` for a quick smoke run.

use sdnbuf_bench::{emit, reps_from_env, section_iv, section_v};
use sdnbuf_core::{figures, observe, BufferMode, Experiment, ExperimentConfig, WorkloadKind};
use sdnbuf_sim::{BitRate, Nanos};

fn main() {
    let reps = reps_from_env();
    println!("# sdn-buffer-lab full reproduction ({reps} repetitions per cell)");
    println!("# Table I (testbed): two quad-core PCs (switch: OVS model; controller:");
    println!("# Floodlight model), hosts on 100 Mbps links, pktgen at 5-100 Mbps,");
    println!("# Ethernet frame size 1000 bytes.");
    println!();

    let iv = section_iv(reps);
    emit(
        "fig02_control_path_load",
        "Fig. 2(a): Control Messages Sent from Switch (Mbps)",
        &figures::fig_control_load_to_controller(&iv),
    );
    emit(
        "fig02b_control_path_load_to_switch",
        "Fig. 2(b): Control Messages Sent to Switch (Mbps)",
        &figures::fig_control_load_to_switch(&iv),
    );
    emit(
        "fig03_controller_usage",
        "Fig. 3: Controller Usages (%)",
        &figures::fig_controller_usage(&iv),
    );
    emit(
        "fig04_switch_usage",
        "Fig. 4: Switch Usages (%)",
        &figures::fig_switch_usage(&iv),
    );
    emit(
        "fig05_flow_setup_delay",
        "Fig. 5: Flow Setup Delay (ms)",
        &figures::fig_flow_setup_delay(&iv),
    );
    emit(
        "fig06_controller_delay",
        "Fig. 6: Controller Delay (ms)",
        &figures::fig_controller_delay(&iv),
    );
    emit(
        "fig07_switch_delay",
        "Fig. 7: Switch Delay (ms)",
        &figures::fig_switch_delay(&iv),
    );
    emit(
        "fig08_buffer_utilization",
        "Fig. 8: Buffer Utilization (mean units)",
        &figures::fig_buffer_utilization_mean(&iv),
    );

    let v = section_v(reps);
    emit(
        "fig09_mech_control_path_load",
        "Fig. 9(a): Control Messages Sent from Switch (Mbps)",
        &figures::fig_control_load_to_controller(&v),
    );
    emit(
        "fig09b_mech_control_path_load_to_switch",
        "Fig. 9(b): Control Messages Sent to Switch (Mbps)",
        &figures::fig_control_load_to_switch(&v),
    );
    emit(
        "fig10_mech_controller_usage",
        "Fig. 10: Controller Usages (%)",
        &figures::fig_controller_usage(&v),
    );
    emit(
        "fig11_mech_switch_usage",
        "Fig. 11: Switch Usages (%)",
        &figures::fig_switch_usage(&v),
    );
    emit(
        "fig12_mech_delays",
        "Fig. 12(a): Flow Setup Delay (ms)",
        &figures::fig_flow_setup_delay(&v),
    );
    emit(
        "fig12b_mech_flow_forwarding_delay",
        "Fig. 12(b): Flow Forwarding Delay (ms)",
        &figures::fig_flow_forwarding_delay(&v),
    );
    emit(
        "fig13_mech_buffer_utilization",
        "Fig. 13(a): Buffer Utilization, mean units",
        &figures::fig_buffer_utilization_mean(&v),
    );
    emit(
        "fig13b_mech_buffer_utilization_max",
        "Fig. 13(b): Buffer Utilization, max units",
        &figures::fig_buffer_utilization_max(&v),
    );

    emit(
        "summary_claims",
        "Paper claims vs reproduction",
        &figures::summary_claims(&iv, &v),
    );

    let mut report = sdnbuf_core::report::full_report(&iv, &v);
    report.push('\n');
    report.push_str(&occupancy_over_time());
    let path = sdnbuf_bench::results_dir().join("report.md");
    match std::fs::write(&path, report) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Looks inside the most interesting Section IV cell — buffer-16 at
/// 100 Mbps, where the exhausted buffer stays pinned at capacity — by
/// tracing one run, sampling occupancy/table-size/channel-load per 1 ms
/// window, and rendering the report section (TSV to `results/` too).
fn occupancy_over_time() -> String {
    let (_, events) = Experiment::new(ExperimentConfig {
        buffer: BufferMode::PacketGranularity { capacity: 16 },
        workload: WorkloadKind::paper_section_iv(),
        sending_rate: BitRate::from_mbps(100),
        seed: 42,
        ..ExperimentConfig::default()
    })
    .run_traced();
    let samples = observe::sample_series(&events, Nanos::from_millis(1));
    let path = sdnbuf_bench::results_dir().join("occupancy_buffer16_100mbps.tsv");
    let tsv =
        std::fs::File::create(&path).and_then(|mut f| observe::write_series_tsv(&samples, &mut f));
    match tsv {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
    sdnbuf_core::report::occupancy_markdown(
        "Inside one run — buffer-16 @ 100 Mbps, occupancy over time",
        &samples,
    )
}
