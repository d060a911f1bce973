//! The traced pass, per workload: from a workload's inputs and its untraced
//! measurements to the per-layer table and metric set.
//!
//! The cell workloads replay tapes ([`crate::tape`]). `repro_grid` and
//! `chaos_sweep` are 500–1 000 tiny runs, too many to replay run by run:
//! their run-path rows carry exact operation counts read off each run's
//! event stream, and their time is split by timing the public phase calls
//! (generate, construct, run, check, render) one by one.

use crate::metrics::MetricSet;
use crate::protocol::Measured;
use crate::replay::{trace_cell, CellLayers};
use crate::stats;
use crate::tape::run_traced;
use crate::trace::{LayerRow, LayerTable, SpanLog, StreamCounts};
use crate::workloads::{run_rep, Cell, ChaosJob, Inputs, Totals};
use sdnbuf_core::chaos::{self, Sabotage};
use sdnbuf_core::{
    observe, ChannelDir, Event, EventKind, RateSweep, Testbed, TestbedConfig, Tracer,
};
use sdnbuf_sim::{BitRate, FaultState};
use sdnbuf_workload::PktgenConfig;
use std::hint::black_box;

/// Traced runs per cell; the stream comes from the first, the traced wall
/// time is the fastest.
const TRACED_RUNS: usize = 2;

/// The result of a traced pass.
pub struct Traced {
    /// Every per-layer metric.
    pub metrics: MetricSet,
    /// The workload's layer table.
    pub table: LayerTable,
    /// The same per cell, for the cell workloads.
    pub cells: Vec<(String, LayerTable)>,
    /// Failed self-checks: unfaithful tapes, in words.
    pub complaints: Vec<String>,
    /// The spans recorded on the way.
    pub spans: SpanLog,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Metrics every workload fills the same way: simulated results, the
/// harness's own figures, and the run-level ratios.
fn common_metrics(m: &mut MetricSet, measured: &Measured, drift: bool) {
    let t: &Totals = &measured.outcome.totals;
    let runs = t.runs as f64;
    m.set("simtime.flow_setup_ms_mean", t.setup_ms_mean_sum / runs);
    m.set("simtime.active_span_s", t.active_span_ns as f64 / 1e9);
    m.set("simtime.delivered_share", ratio(t.delivered, t.packets));
    m.set("simtime.ctrl_load_mbps", t.ctrl_load_mbps_sum / runs);

    let per_packet = |wall_s: f64| wall_s * 1e9 / measured.packets();
    let walls = measured.rep_walls_s();
    m.set("bench.reps", walls.len() as f64);
    m.set(
        "bench.rep_median_ns_per_packet",
        per_packet(stats::median(&walls)),
    );
    m.set("bench.rep_iqr_pct", stats::iqr_pct(&walls));

    m.set("core.testbed.events_per_packet", ratio(t.events, t.packets));
    m.set(
        "core.testbed.ns_per_event",
        measured.rep_wall_s() * 1e9 / t.events as f64,
    );
    m.set("core.testbed.digest_drift", f64::from(u8::from(drift)));
}

/// Stream-derived extras shared by all workloads.
fn stream_metrics(m: &mut MetricSet, counts: &StreamCounts, packets: f64) {
    m.set(
        "openflow.bytes_to_controller_per_packet",
        counts.ctrl_bytes[0] as f64 / packets,
    );
    m.set(
        "openflow.bytes_to_switch_per_packet",
        counts.ctrl_bytes[1] as f64 / packets,
    );
    m.set("sim.link.drops", counts.link_drops as f64);
    m.set("flowtable.evictions", counts.rule_evictions as f64);
    m.set("flowtable.expiries", counts.rule_expiries as f64);
    m.set("flowtable.peak_rules", counts.peak_rules as f64);
    // Every frame is looked up once and a hit goes out on the fast path,
    // so the two are one number seen from two layers.
    let hits = counts.frames_at_switch - counts.table_misses;
    m.set("flowtable.hit_ratio", ratio(hits, counts.frames_at_switch));
    m.set(
        "switch.fastpath_share",
        ratio(hits, counts.frames_at_switch),
    );
    m.set(
        "switchbuf.fallback_share",
        ratio(counts.full_pkt_ins, counts.table_misses),
    );
}

/// The buffer extras that come from counters rather than the stream.
fn buffer_metrics(m: &mut MetricSet, pkt_ins: u64, flows: u64, peak: u64, rerequests: u64) {
    m.set("switchbuf.pkt_in_per_flow", ratio(pkt_ins, flows));
    m.set("switchbuf.peak_occupancy", peak as f64);
    m.set("switchbuf.rerequests", rerequests as f64);
}

/// The same from the runs' own results, for workloads that are not replayed.
fn buffer_metrics_of(m: &mut MetricSet, t: &Totals) {
    buffer_metrics(m, t.pkt_ins, t.flows, t.peak_occupancy, t.rerequests);
}

/// Run-path rows with exact operation counts and no time, for workloads
/// whose runs are not replayed.
fn counted_run_path(counts: &StreamCounts, totals: &Totals, traced_in_rep: bool) -> Vec<LayerRow> {
    let mut events = LayerRow::counted("sim.events", counts.events);
    events.in_rep = traced_in_rep;
    vec![
        LayerRow::counted("net", counts.net_ops()),
        LayerRow::counted("openflow", counts.openflow_ops()),
        LayerRow::counted("sim.queue", totals.events),
        LayerRow::counted(
            "sim.pool",
            counts.pool_ops(totals.packets + 2 * totals.runs),
        ),
        LayerRow::counted("sim.link", counts.link_ops()),
        events,
        LayerRow::counted("flowtable", counts.flowtable_ops()),
        LayerRow::counted("switchbuf", counts.switchbuf_ops()),
        LayerRow::counted("switch", counts.switch_ops()),
        LayerRow::counted("controller", counts.pkt_ins_received),
        LayerRow::counted("metrics", totals.delay_samples),
    ]
}

/// Runs the traced pass of `inputs`.
pub fn traced_pass(inputs: &Inputs, measured: &Measured, drift: bool) -> Traced {
    let mut metrics = MetricSet::per_layer();
    common_metrics(&mut metrics, measured, drift);
    let mut spans = SpanLog::new();
    let root = spans.open(format!("traced_pass:{}", measured.workload.name()), None);
    let (table, cells, complaints) = match inputs {
        Inputs::Cells(cells) => trace_cells(cells, measured, &mut metrics, &mut spans, root),
        Inputs::Grid(sections) => {
            let table = trace_grid(inputs, sections, measured, &mut metrics, &mut spans, root);
            (table, Vec::new(), Vec::new())
        }
        Inputs::Chaos(jobs) => {
            let table = trace_chaos(jobs, measured, &mut metrics, &mut spans, root);
            (table, Vec::new(), Vec::new())
        }
    };
    spans.close(root, measured.outcome.totals.events);
    table.write_into(&mut metrics);
    Traced {
        metrics,
        table,
        cells,
        complaints,
        spans,
    }
}

type CellTables = Vec<(String, LayerTable)>;

fn trace_cells(
    cells: &[Cell],
    measured: &Measured,
    m: &mut MetricSet,
    spans: &mut SpanLog,
    root: usize,
) -> (LayerTable, CellTables, Vec<String>) {
    let mut table = LayerTable {
        rows: Vec::new(),
        rep_wall_s: measured.rep_wall_s(),
        nested_s: 0.0,
    };
    let mut per_cell = Vec::new();
    let mut complaints = Vec::new();
    let mut counts = StreamCounts::default();
    let (mut traced_s, mut bytes_copied, mut rejects) = (0.0, 0, 0);
    let (mut queue_peak, mut pool_peak) = (0, 0);
    let (mut pkt_ins, mut rerequests, mut peak_occupancy, mut new_s) = (0, 0, 0, 0.0);
    for (i, cell) in cells.iter().enumerate() {
        let CellLayers {
            table: mut cell_table,
            complaints: cell_complaints,
            run,
            bytes_copied: cell_bytes,
            queue_peak: cell_queue_peak,
            pool_peak: cell_pool_peak,
            table_rejects,
        } = trace_cell(cell, spans, Some(root));
        // Tracing overhead wants the traced run at its fastest, as the
        // untraced figure is.
        let fastest = (1..TRACED_RUNS)
            .map(|_| run_traced(cell).wall_s)
            .fold(run.wall_s, f64::min);
        traced_s += fastest;

        counts.absorb(&run.events);
        bytes_copied += cell_bytes;
        rejects += table_rejects;
        queue_peak = queue_peak.max(cell_queue_peak);
        pool_peak = pool_peak.max(cell_pool_peak);
        pkt_ins += run.switch.pkt_in_sent;
        rerequests += run.buffer.rerequests;
        peak_occupancy = peak_occupancy.max(run.buffer.peak_occupancy);
        new_s += cell_table.row("core.testbed").map_or(0.0, |r| r.self_s);
        complaints.extend(cell_complaints);

        table.absorb(&cell_table);
        // A cell's shares are of its own part of the rep.
        cell_table.rep_wall_s = measured.part_wall_s(i);
        per_cell.push((cell.name.clone(), cell_table));
    }

    let packets = measured.packets();
    stream_metrics(m, &counts, packets);
    m.set("net.bytes_copied_per_packet", bytes_copied as f64 / packets);
    m.set("sim.queue.peak_len", queue_peak as f64);
    m.set("sim.pool.peak_live", pool_peak as f64);
    m.set("flowtable.rejects", rejects as f64);
    let flows = measured.outcome.totals.flows;
    buffer_metrics(m, pkt_ins, flows, peak_occupancy, rerequests);
    m.set("core.testbed.new_ns", new_s * 1e9 / cells.len() as f64);
    m.set(
        "core.testbed.trace_overhead_pct",
        (traced_s / table.rep_wall_s - 1.0) * 100.0,
    );
    (table, per_cell, complaints)
}

/// The configuration `RateSweep` runs cell `(mode, rate)` on, and the
/// generator settings of its repetitions.
fn sweep_cell(
    sweep: &RateSweep,
    mode: sdnbuf_core::BufferMode,
    rate_mbps: u64,
) -> (TestbedConfig, PktgenConfig) {
    let mut config = sweep.testbed.clone();
    config.switch.buffer = mode;
    let pktgen = PktgenConfig {
        rate: BitRate::from_mbps(rate_mbps),
        frame_size: sweep.frame_size,
        ..PktgenConfig::default()
    };
    (config, pktgen)
}

fn trace_grid(
    inputs: &Inputs,
    sections: &[Vec<RateSweep>; 2],
    measured: &Measured,
    m: &mut MetricSet,
    spans: &mut SpanLog,
    root: usize,
) -> LayerTable {
    // One more threaded rep, for the executor's own accounting.
    let (rep, _) = spans.time("core.executor:rep", Some(root), || {
        let rep = run_rep(inputs, false);
        let runs = rep.totals.runs;
        (rep, runs)
    });

    // Every cell-repetition again, serially and phase by phase; the second,
    // traced run of each yields the stream its operations are counted on.
    let mut counts = StreamCounts::default();
    let (mut generate_s, mut new_s, mut untraced_s, mut traced_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut runs, mut packets) = (0u64, 0u64);
    for sweep in sections.iter().flatten() {
        for (&mode, &rate_mbps) in sweep
            .buffers
            .iter()
            .flat_map(|mode| sweep.rates_mbps.iter().map(move |rate| (mode, rate)))
        {
            let (config, pktgen) = sweep_cell(sweep, mode, rate_mbps);
            for rep in 0..sweep.repetitions as u64 {
                let (departures, s) = spans.time("workload", Some(root), || {
                    let d = sweep.workload.generate(&pktgen, sweep.base_seed + rep);
                    let n = d.len() as u64;
                    (d, n)
                });
                generate_s += s;
                packets += departures.len() as u64;
                let (mut tb, s) = spans.time("core.testbed:new", Some(root), || {
                    (Testbed::new(config.clone()), 1)
                });
                new_s += s;
                let mut run = |name: &str, tb: &mut Testbed| {
                    spans
                        .time(name, Some(root), || {
                            let events = tb.run(&departures).events_dispatched;
                            ((), events)
                        })
                        .1
                };
                untraced_s += run("core.testbed:run", &mut tb);
                let (tracer, sink) = Tracer::recording(0);
                let mut tb = Testbed::new(config.clone());
                tb.set_tracer(tracer);
                traced_s += run("core.testbed:traced_run", &mut tb);
                counts.absorb(sink.borrow().events());
                runs += 1;
            }
        }
    }

    let totals = &measured.outcome.totals;
    let mut rows = counted_run_path(&counts, totals, false);
    // Phases that run inside the workers overlap in a threaded rep: their
    // serial seconds shrink by the overlap the executor achieved.
    let overlap = rep.busy_overlap().max(1.0);
    rows.push(LayerRow::timed(
        "workload",
        packets,
        generate_s / overlap,
        0,
    ));
    let mut testbed = LayerRow::timed("core.testbed", runs, new_s / overlap, 0);
    testbed.inclusive_s = (new_s + untraced_s) / overlap;
    rows.push(testbed);
    // The executor's own cost: the part of the sweeps' wall time in which
    // the average worker was not inside a job.
    let idle_s = rep.executor_wall_s - rep.executor_busy_s / rep.workers.max(1) as f64;
    let mut executor = LayerRow::timed("core.executor", runs, idle_s.max(0.0), 0);
    executor.inclusive_s = rep.executor_wall_s;
    rows.push(executor);
    // Rendering is the last part of every timed rep.
    let render_s = measured.part_wall_s(measured.part_walls_s[0].len() - 1);
    rows.push(LayerRow::timed("core.figures", rep.tables, render_s, 0));
    if let Some(oracle) = measured.oracle {
        rows.push(LayerRow::timed("model", oracle.checks, oracle.wall_s, 0).outside_rep());
        m.set("model.oracle_err_max_pct", oracle.err_max_pct);
        m.set("model.checks_failed", oracle.failed as f64);
    }

    stream_metrics(m, &counts, measured.packets());
    buffer_metrics_of(m, totals);
    m.set("core.testbed.new_ns", new_s * 1e9 / runs as f64);
    m.set(
        "core.testbed.trace_overhead_pct",
        (traced_s / untraced_s - 1.0) * 100.0,
    );
    m.set("core.executor.busy_overlap", rep.busy_overlap());
    LayerTable {
        rows,
        rep_wall_s: measured.rep_wall_s(),
        nested_s: 0.0,
    }
}

/// The fault plane's draws of one run: one `ctrl_effect` per control
/// message the stream shows entering the plane.
fn replay_fault_draws(scenario: &chaos::ChaosScenario, events: &[Event]) -> u64 {
    let mut faults = FaultState::new(scenario.plan.clone());
    let mut draws = 0;
    for event in events {
        let dir: ChannelDir = match event.kind {
            EventKind::CtrlMsg { dir, .. } | EventKind::CtrlDrop { dir, .. } => dir,
            _ => continue,
        };
        black_box(faults.ctrl_effect(event.at, dir));
        draws += 1;
    }
    draws
}

fn trace_chaos(
    jobs: &[ChaosJob],
    measured: &Measured,
    m: &mut MetricSet,
    spans: &mut SpanLog,
    root: usize,
) -> LayerTable {
    let mut counts = StreamCounts::default();
    let (mut generate_s, mut check_s, mut digest_s) = (0.0, 0.0, 0.0);
    let (mut workload_s, mut new_s, mut faults_s, mut emit_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut packets, mut draws, mut violations) = (0u64, 0u64, 0u64);
    for job in jobs {
        let (scenario, s) = spans.time("core.chaos:generate", Some(root), || (job.scenario(), 1));
        generate_s += s;
        let ((result, events), _) = spans.time("core.chaos:execute", Some(root), || {
            let (result, events) = chaos::execute(&scenario, Sabotage::none());
            let n = result.events_dispatched;
            ((result, events), n)
        });
        let (found, s) = spans.time("core.chaos:check_invariants", Some(root), || {
            let v = chaos::check_invariants(
                scenario.mech,
                &scenario.plan,
                scenario.recovery,
                &result,
                &events,
            );
            (v.len() as u64, events.len() as u64)
        });
        check_s += s;
        violations += found;
        let (_, s) = spans.time("core.chaos:events_digest", Some(root), || {
            (observe::events_digest(&events), events.len() as u64)
        });
        digest_s += s;

        // What `execute` did inside, one public call at a time.
        let pktgen = PktgenConfig {
            rate: BitRate::from_mbps(scenario.rate_mbps),
            ..PktgenConfig::default()
        };
        let (n, s) = spans.time("workload", Some(root), || {
            let n = scenario.workload.generate(&pktgen, scenario.seed).len() as u64;
            (n, n)
        });
        workload_s += s;
        packets += n;
        let mut config = TestbedConfig::with_buffer(scenario.mech);
        config.faults = scenario.plan.clone();
        config.failover.standby = scenario.standby.is_some();
        let ((), s) = spans.time("core.testbed:new", Some(root), || {
            black_box(Testbed::new(config));
            ((), 1)
        });
        new_s += s;
        let (n, s) = spans.time("sim.faults", Some(root), || {
            let n = replay_fault_draws(&scenario, &events);
            (n, n)
        });
        faults_s += s;
        draws += n;
        let (tracer, _sink) = Tracer::recording(0);
        let ((), s) = spans.time("sim.events", Some(root), || {
            for event in &events {
                tracer.emit(event.at, event.kind);
            }
            ((), events.len() as u64)
        });
        emit_s += s;
        counts.absorb(&events);
    }

    let totals = &measured.outcome.totals;
    let mut rows = counted_run_path(&counts, totals, true);
    let events_row = rows
        .iter_mut()
        .find(|r| r.layer == "sim.events")
        .expect("counted above");
    events_row.self_s = emit_s;
    events_row.inclusive_s = emit_s;
    rows.push(LayerRow::timed("workload", packets, workload_s, 0));
    rows.push(LayerRow::timed("sim.faults", draws, faults_s, 0));
    rows.push(LayerRow::timed("core.testbed", jobs.len() as u64, new_s, 0));
    rows.push(LayerRow::timed(
        "core.chaos",
        counts.events,
        generate_s + check_s + digest_s,
        0,
    ));

    stream_metrics(m, &counts, measured.packets());
    buffer_metrics_of(m, totals);
    m.set("core.testbed.new_ns", new_s * 1e9 / jobs.len() as f64);
    m.set(
        "core.chaos.scenarios_per_s",
        jobs.len() as f64 / measured.rep_wall_s(),
    );
    m.set("core.chaos.violations", violations as f64);
    LayerTable {
        rows,
        rep_wall_s: measured.rep_wall_s(),
        nested_s: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::measure;
    use crate::workloads::{Scale, Workload};

    fn pass(workload: Workload) -> (Measured, Traced) {
        let _armed = crate::alloc_test_lock();
        let (inputs, measured) = measure(workload, 1, 1, Scale::Quick);
        let traced = traced_pass(&inputs, &measured, false);
        (measured, traced)
    }

    fn assert_sums_to_one(traced: &Traced) {
        let t = &traced.table;
        assert!((t.explained_share() + t.residual_share() - 1.0).abs() < 1e-9);
        assert_eq!(
            traced.metrics.get("core.testbed.residual_share"),
            t.residual_share()
        );
    }

    #[test]
    fn cell_workloads_replay_faithfully_and_fill_every_run_path_layer() {
        for workload in [Workload::Sec4Churn, Workload::Sec5Flows] {
            let (measured, traced) = pass(workload);
            assert!(traced.complaints.is_empty(), "{:#?}", traced.complaints);
            assert!(traced.table.faithful());
            assert_eq!(traced.cells.len(), 3);
            assert_sums_to_one(&traced);
            let m = &traced.metrics;
            assert_eq!(
                m.get("sim.queue.ops"),
                measured.outcome.totals.events as f64
            );
            assert_eq!(m.get("core.testbed.ops"), 3.0);
            for layer in crate::metrics::RUN_PATH_LAYERS {
                assert!(m.get(&format!("{layer}.ops")) > 0.0, "{layer}.ops");
                assert!(
                    m.get(&format!("{layer}.ns_per_op")) > 0.0,
                    "{layer}.ns_per_op"
                );
            }
            // Bypassed layers report that they did nothing.
            for layer in [
                "sim.faults",
                "core.executor",
                "core.chaos",
                "core.figures",
                "model",
            ] {
                assert_eq!(m.get(&format!("{layer}.ops")), 0.0, "{layer}.ops");
            }
            assert!(m.get("simtime.delivered_share") > 0.9);
            assert_eq!(m.get("bench.reps"), 1.0);
        }
    }

    #[test]
    fn churn_never_hits_and_flows_mostly_do() {
        let (_, churn) = pass(Workload::Sec4Churn);
        let (_, flows) = pass(Workload::Sec5Flows);
        assert_eq!(churn.metrics.get("flowtable.hit_ratio"), 0.0);
        assert_eq!(churn.metrics.get("switch.fastpath_share"), 0.0);
        assert!(flows.metrics.get("flowtable.hit_ratio") > 0.5);
        assert!(
            churn.metrics.get("net.bytes_copied_per_packet")
                > flows.metrics.get("net.bytes_copied_per_packet")
        );
    }

    #[test]
    fn grid_times_phases_and_counts_the_run_path() {
        let (measured, traced) = pass(Workload::ReproGrid);
        assert_sums_to_one(&traced);
        let m = &traced.metrics;
        assert_eq!(m.get("core.executor.ops"), 50.0);
        assert_eq!(m.get("core.testbed.ops"), 50.0);
        assert_eq!(m.get("workload.ops"), measured.packets());
        assert_eq!(m.get("core.figures.ops"), 18.0);
        assert_eq!(
            m.get("sim.queue.ops"),
            measured.outcome.totals.events as f64
        );
        assert!(m.get("model.ops") >= 485.0);
        assert_eq!(m.get("model.checks_failed"), 0.0);
        assert!(m.get("core.executor.busy_overlap") > 0.0);
        assert!(m.get("switch.ops") > 0.0 && m.get("switch.ns_per_op") == 0.0);
        // Untraced in a rep: reported, not summed.
        assert!(!traced.table.row("sim.events").unwrap().in_rep);
    }

    #[test]
    fn chaos_times_its_own_phases() {
        let (measured, traced) = pass(Workload::ChaosSweep);
        assert_sums_to_one(&traced);
        let m = &traced.metrics;
        assert_eq!(m.get("core.testbed.ops"), 100.0);
        assert_eq!(m.get("workload.ops"), measured.packets());
        assert_eq!(m.get("core.chaos.violations"), 0.0);
        assert!(m.get("core.chaos.ops") > 0.0 && m.get("core.chaos.ns_per_op") > 0.0);
        assert!(m.get("sim.faults.ops") > 0.0 && m.get("sim.faults.ns_per_op") > 0.0);
        assert!(m.get("sim.events.ops") == m.get("core.chaos.ops"));
        assert!(traced.table.row("sim.events").unwrap().in_rep);
        assert!(m.get("core.chaos.scenarios_per_s") > 0.0);
    }
}
