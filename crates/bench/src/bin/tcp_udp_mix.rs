//! Section VI of the paper argues: "If switch buffer benefits UDP flows,
//! it also benefits the mix of TCP and UDP flows." This harness checks that
//! claim directly: a mixed workload (a UDP flow flood plus well-behaved TCP
//! connections) swept across rates under all three mechanisms, described
//! as a `RateSweep` and run on the parallel executor.

use sdnbuf_core::WorkloadKind;
use sdnbuf_core::{BufferMode, CellKey, Metric, Parallelism, RateSweep, StderrProgress};
use sdnbuf_metrics::Table;
use sdnbuf_sim::Nanos;

fn main() {
    let reps = sdnbuf_bench::reps_from_env();
    let sweep = RateSweep {
        rates_mbps: vec![20, 40, 60, 80, 100],
        buffers: vec![
            BufferMode::NoBuffer,
            BufferMode::PacketGranularity { capacity: 256 },
            BufferMode::FlowGranularity {
                capacity: 256,
                timeout: Nanos::from_millis(50),
            },
        ],
        workload: WorkloadKind::MixedUdpTcp {
            n_udp_flows: 400,
            n_tcp: 20,
            segments_per_tcp: 15,
        },
        base_seed: 700,
        ..RateSweep::paper_section_iv(reps)
    };
    let result = sweep.run_with(Parallelism::from_env(), &StderrProgress::new("tcp-udp-mix"));

    let mut t = Table::new(vec![
        "rate_mbps",
        "mechanism",
        "ctrl_load_mbps",
        "setup_delay_ms",
        "delivered_pct",
    ]);
    for &rate in &sweep.rates_mbps {
        for &buffer in &sweep.buffers {
            let key = CellKey::new(buffer, rate);
            let cell = result.cell_at(&key).expect("cell was swept");
            let mean = |m: Metric| result.mean(&key, m).expect("cell was swept");
            t.row(vec![
                rate.to_string(),
                cell.label.clone(),
                format!("{:.3}", mean(Metric::ControlPathLoadUp)),
                format!("{:.3}", mean(Metric::FlowSetupDelay)),
                format!("{:.1}", mean(Metric::DeliveredPercent)),
            ]);
        }
    }
    sdnbuf_bench::emit(
        "tcp_udp_mix",
        "Section VI: mixed TCP+UDP traffic under the three mechanisms",
        &t,
    );
}
