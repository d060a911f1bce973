//! Quick calibration check: a reduced Section IV + V sweep printing the key
//! figure shapes, used while tuning the testbed cost model.

use sdnbuf_core::{figures, NullSink, Parallelism, RateSweep, WorkloadKind};

fn main() {
    let parallelism = Parallelism::from_env();
    let mut iv = RateSweep {
        rates_mbps: (1..=10).map(|i| i * 10).collect(),
        ..RateSweep::paper_section_iv(2)
    };
    if std::env::var("CAL_SMALL").is_ok() {
        iv.workload = WorkloadKind::single_packet_flows(300);
    }
    let iv = iv.run_with(parallelism, &NullSink);
    println!("{}", figures::fig_control_load_to_controller(&iv));
    println!("{}", figures::fig_control_load_to_switch(&iv));
    println!("{}", figures::fig_controller_usage(&iv));
    println!("{}", figures::fig_switch_usage(&iv));
    println!("{}", figures::fig_flow_setup_delay(&iv));
    println!("{}", figures::fig_controller_delay(&iv));
    println!("{}", figures::fig_switch_delay(&iv));
    println!("{}", figures::fig_buffer_utilization_mean(&iv));
    println!("{}", figures::fig_buffer_utilization_max(&iv));

    let v = RateSweep {
        rates_mbps: vec![10, 30, 50, 70, 90, 100],
        ..RateSweep::paper_section_v(2)
    }
    .run_with(parallelism, &NullSink);
    println!("{}", figures::fig_control_load_to_controller(&v));
    println!("{}", figures::fig_control_load_to_switch(&v));
    println!("{}", figures::fig_controller_usage(&v));
    println!("{}", figures::fig_switch_usage(&v));
    println!("{}", figures::fig_flow_setup_delay(&v));
    println!("{}", figures::fig_flow_forwarding_delay(&v));
    println!("{}", figures::fig_buffer_utilization_mean(&v));
    println!("{}", figures::fig_buffer_utilization_max(&v));

    println!("{}", figures::summary_claims(&iv, &v));
}
