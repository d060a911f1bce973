//! Per-figure table builders: every table and figure of the paper's
//! evaluation, regenerated from sweep results.
//!
//! Each `figNN_*` function reduces a [`SweepResult`] to the same data
//! series the corresponding figure plots — one row per sending rate, one
//! column per buffer mechanism. Figures select their y-axis with
//! [`Metric`]. `summary_claims` reproduces the paper's headline "on
//! average" percentages side by side with the measured ones.

use crate::experiment::CellKey;
use crate::{BufferMode, Metric, SweepResult};
use sdnbuf_metrics::Table;

/// Builds a rate-by-mechanism table of `metric`'s per-cell mean — the
/// generic shape of every figure in the paper. The column header is the
/// metric's canonical name; absent cells render as 0.0.
pub fn metric_table(sweep: &SweepResult, metric: Metric) -> Table {
    let modes = sweep.modes();
    let mut headers = vec![format!("rate_mbps\\{}", metric.name())];
    headers.extend(modes.iter().map(|m| m.label()));
    let mut table = Table::new(headers);
    for rate in sweep.rates() {
        let values: Vec<f64> = modes
            .iter()
            .map(|&m| sweep.mean(&CellKey::new(m, rate), metric).unwrap_or(0.0))
            .collect();
        table.row_f64(rate.to_string(), &values, 3);
    }
    table
}

/// Fig. 2(a) / Fig. 9(a): control-path load, switch → controller, Mbps.
pub fn fig_control_load_to_controller(sweep: &SweepResult) -> Table {
    metric_table(sweep, Metric::ControlPathLoadUp)
}

/// Fig. 2(b) / Fig. 9(b): control-path load, controller → switch, Mbps.
pub fn fig_control_load_to_switch(sweep: &SweepResult) -> Table {
    metric_table(sweep, Metric::ControlPathLoadDown)
}

/// Fig. 3 / Fig. 10: controller usages (CPU percent).
pub fn fig_controller_usage(sweep: &SweepResult) -> Table {
    metric_table(sweep, Metric::ControllerCpu)
}

/// Fig. 4 / Fig. 11: switch usages (CPU percent).
pub fn fig_switch_usage(sweep: &SweepResult) -> Table {
    metric_table(sweep, Metric::SwitchCpu)
}

/// Fig. 5 / Fig. 12(a): flow-setup delay, mean ms.
pub fn fig_flow_setup_delay(sweep: &SweepResult) -> Table {
    metric_table(sweep, Metric::FlowSetupDelay)
}

/// Fig. 6: controller delay, mean ms.
pub fn fig_controller_delay(sweep: &SweepResult) -> Table {
    metric_table(sweep, Metric::ControllerDelay)
}

/// Fig. 7: switch delay, mean ms.
pub fn fig_switch_delay(sweep: &SweepResult) -> Table {
    metric_table(sweep, Metric::SwitchDelay)
}

/// Fig. 8 / Fig. 13(a): buffer utilization, time-weighted mean units.
pub fn fig_buffer_utilization_mean(sweep: &SweepResult) -> Table {
    metric_table(sweep, Metric::BufferMeanOccupancy)
}

/// Fig. 13(b): buffer utilization, peak units.
pub fn fig_buffer_utilization_max(sweep: &SweepResult) -> Table {
    metric_table(sweep, Metric::BufferPeakOccupancy)
}

/// Fig. 12(b): flow-forwarding delay, mean ms.
pub fn fig_flow_forwarding_delay(sweep: &SweepResult) -> Table {
    metric_table(sweep, Metric::FlowForwardingDelay)
}

/// Percentage reduction of `metric` going from mechanism `from` to `to`,
/// averaged across the sweep (the paper's "reduce X % on average").
pub fn reduction(sweep: &SweepResult, from: BufferMode, to: BufferMode, metric: Metric) -> f64 {
    let base = sweep.sweep_mean_of(from, metric).unwrap_or(0.0);
    let new = sweep.sweep_mean_of(to, metric).unwrap_or(0.0);
    if base <= 0.0 {
        return 0.0;
    }
    100.0 * (1.0 - new / base)
}

/// The paper's headline claims (Sections IV and V summaries) against the
/// reproduction's measured values. `section_iv` must come from
/// [`crate::RateSweep::paper_section_iv`]-shaped sweeps and `section_v`
/// from [`crate::RateSweep::paper_section_v`]-shaped ones.
pub fn summary_claims(section_iv: &SweepResult, section_v: &SweepResult) -> Table {
    let mut t = Table::new(vec!["claim", "paper", "measured"]);
    let mut row = |claim: &str, paper: &str, measured: f64| {
        t.row(vec![
            claim.to_owned(),
            paper.to_owned(),
            format!("{measured:.1}%"),
        ]);
    };
    let nb = BufferMode::NoBuffer;
    let b256 = BufferMode::PacketGranularity { capacity: 256 };
    let fg = BufferMode::FlowGranularity {
        capacity: 256,
        timeout: sdnbuf_sim::Nanos::from_millis(50),
    };

    row(
        "IV: control path load cut, switch->ctrl (buffer-256 vs no-buffer)",
        "78.7%",
        reduction(section_iv, nb, b256, Metric::ControlPathLoadUp),
    );
    row(
        "IV: control path load cut, ctrl->switch",
        "96.0%",
        reduction(section_iv, nb, b256, Metric::ControlPathLoadDown),
    );
    row(
        "IV: controller overhead cut",
        "37.0%",
        reduction(section_iv, nb, b256, Metric::ControllerCpu),
    );
    row(
        "IV: switch overhead added by buffer (negative = added)",
        "-5.6%",
        reduction(section_iv, nb, b256, Metric::SwitchCpu),
    );
    row(
        "IV: controller delay cut",
        "58.0%",
        reduction(section_iv, nb, b256, Metric::ControllerDelay),
    );
    row(
        "IV: switch delay cut",
        "87.0%",
        reduction(section_iv, nb, b256, Metric::SwitchDelay),
    );
    row(
        "IV: flow setup delay cut",
        "78.0%",
        reduction(section_iv, nb, b256, Metric::FlowSetupDelay),
    );
    row(
        "V: control path load cut, switch->ctrl (flow- vs packet-granularity)",
        "64.0%",
        reduction(section_v, b256, fg, Metric::ControlPathLoadUp),
    );
    row(
        "V: control path load cut, ctrl->switch",
        "80.0%",
        reduction(section_v, b256, fg, Metric::ControlPathLoadDown),
    );
    row(
        "V: controller overhead cut",
        "35.7%",
        reduction(section_v, b256, fg, Metric::ControllerCpu),
    );
    row(
        "V: buffer utilization efficiency gain",
        "71.6%",
        reduction(section_v, b256, fg, Metric::BufferMeanOccupancy),
    );
    row(
        "V: flow forwarding delay cut",
        "18.0%",
        reduction(section_v, b256, fg, Metric::FlowForwardingDelay),
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BufferMode, RateSweep, WorkloadKind};

    fn tiny_sweep() -> SweepResult {
        RateSweep {
            rates_mbps: vec![10, 40],
            buffers: vec![
                BufferMode::NoBuffer,
                BufferMode::PacketGranularity { capacity: 256 },
            ],
            workload: WorkloadKind::single_packet_flows(15),
            base_seed: 5,
            ..RateSweep::paper_section_iv(1)
        }
        .run()
    }

    #[test]
    fn tables_have_one_row_per_rate_and_column_per_mechanism() {
        let sweep = tiny_sweep();
        for table in [
            fig_control_load_to_controller(&sweep),
            fig_control_load_to_switch(&sweep),
            fig_controller_usage(&sweep),
            fig_switch_usage(&sweep),
            fig_flow_setup_delay(&sweep),
            fig_controller_delay(&sweep),
            fig_switch_delay(&sweep),
            fig_buffer_utilization_mean(&sweep),
            fig_buffer_utilization_max(&sweep),
            fig_flow_forwarding_delay(&sweep),
        ] {
            assert_eq!(table.len(), 2, "{table}");
            let tsv = table.to_tsv();
            assert!(tsv.contains("no-buffer"));
            assert!(tsv.contains("buffer-256"));
        }
    }

    #[test]
    fn buffering_reduces_control_load_in_figures() {
        let sweep = tiny_sweep();
        let cut = reduction(
            &sweep,
            BufferMode::NoBuffer,
            BufferMode::PacketGranularity { capacity: 256 },
            Metric::ControlPathLoadUp,
        );
        assert!(cut > 50.0, "expected a large cut, got {cut:.1}%");
    }

    #[test]
    fn reduction_percent_handles_zero_base() {
        let sweep = SweepResult::default();
        assert_eq!(
            reduction(
                &sweep,
                BufferMode::NoBuffer,
                BufferMode::PacketGranularity { capacity: 256 },
                Metric::PktInCount
            ),
            0.0
        );
    }
}
