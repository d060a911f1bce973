//! What the traced pass records: spans around the calls into each layer,
//! exact operation counts read off a run's own event stream, and the
//! per-layer rows they add up to.
//!
//! Spans are taken from the benchmark's side of each layer's public
//! functions; nothing inside the simulator is instrumented.

use crate::json::JsonWriter;
use crate::metrics::{MetricSet, RUN_PATH_LAYERS};
use sdnbuf_core::{ChannelDir, Event, EventKind};
use sdnbuf_openflow::BufferId;
use std::time::Instant;

/// One span: a named interval with the span that caused it and the
/// operations it covered.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer` or `layer:detail`.
    pub name: String,
    /// Start, nanoseconds since the traced pass began.
    pub start_ns: u64,
    /// End, nanoseconds since the traced pass began.
    pub end_ns: u64,
    /// Index of the parent span in the log, if any.
    pub parent: Option<usize>,
    /// Operations performed inside the span.
    pub ops: u64,
}

/// Spans of one traced pass, kept in memory and written out at the end.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index, to close with [`SpanLog::close`]
    /// or to name as a parent.
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent,
            ops: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` with its operation count; returns its seconds.
    pub fn close(&mut self, id: usize, ops: u64) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.ops = ops;
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    /// Times `f` — one clock pair around the whole call — as a span.
    /// `f` returns its result and the operations it performed.
    pub fn time<T>(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        f: impl FnOnce() -> (T, u64),
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let (out, ops) = f();
        let wall_s = self.close(id, ops);
        (out, wall_s)
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The log as a JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut w = JsonWriter::new();
        w.begin_object()
            .key("schema")
            .string("sdnbuf-benchmark/spans/v1")
            .key("workload")
            .string(workload)
            .key("seed")
            .u64(seed)
            .key("spans")
            .begin_array();
        for span in &self.spans {
            w.begin_object()
                .key("name")
                .string(&span.name)
                .key("start_ns")
                .u64(span.start_ns)
                .key("end_ns")
                .u64(span.end_ns)
                .key("parent");
            match span.parent {
                Some(p) => w.u64(p as u64),
                None => w.null(),
            };
            w.key("ops").u64(span.ops).end_object();
        }
        w.end_array().end_object();
        w.finish()
    }
}

/// Exact counts read off one run's event stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamCounts {
    /// Events in the stream.
    pub events: u64,
    /// Frames accepted by any link (control links included).
    pub link_tx: u64,
    /// Frames tail-dropped by any link.
    pub link_drops: u64,
    /// Data frames that reached the switch.
    pub frames_at_switch: u64,
    /// Switch-bus and controller-ingest transfers.
    pub bus_transfers: u64,
    /// Table misses.
    pub table_misses: u64,
    /// `packet_in`s carrying the whole frame.
    pub full_pkt_ins: u64,
    /// `packet_in`s carrying a header slice of a buffered frame.
    pub buffered_pkt_ins: u64,
    /// `flow_mod`s the switch processed.
    pub rule_installs: u64,
    /// Rules evicted.
    pub rule_evictions: u64,
    /// Rules expired.
    pub rule_expiries: u64,
    /// Largest table occupancy reported.
    pub peak_rules: u64,
    /// Buffer drains (`packet_out`s naming a buffer id).
    pub buffer_drains: u64,
    /// `packet_in`s the controller ingested.
    pub pkt_ins_received: u64,
    /// `packet_out`s carrying the frame back (no buffer id).
    pub data_pkt_outs: u64,
    /// Control messages put on the wire, per direction.
    pub ctrl_msgs: [u64; 2],
    /// Their bytes, per direction.
    pub ctrl_bytes: [u64; 2],
    /// Control messages dropped.
    pub ctrl_drops: u64,
}

/// Index of a direction in [`StreamCounts::ctrl_msgs`].
pub fn dir_index(dir: ChannelDir) -> usize {
    match dir {
        ChannelDir::ToController => 0,
        ChannelDir::ToSwitch => 1,
    }
}

impl StreamCounts {
    /// Counts one stream.
    pub fn of(events: &[Event]) -> StreamCounts {
        let mut c = StreamCounts::default();
        c.absorb(events);
        c
    }

    /// Adds one stream's counts.
    pub fn absorb(&mut self, events: &[Event]) {
        let no_buffer = BufferId::NO_BUFFER.as_u32();
        self.events += events.len() as u64;
        for event in events {
            match event.kind {
                EventKind::LinkTx { link, .. } => {
                    self.link_tx += 1;
                    self.frames_at_switch += u64::from(matches!(link, "h1->sw" | "h2->sw"));
                }
                EventKind::LinkDrop { .. } => self.link_drops += 1,
                EventKind::BusTransfer { .. } => self.bus_transfers += 1,
                EventKind::TableMiss { .. } => self.table_misses += 1,
                EventKind::PacketInSent { buffer_id, .. } => {
                    if buffer_id == no_buffer {
                        self.full_pkt_ins += 1;
                    } else {
                        self.buffered_pkt_ins += 1;
                    }
                }
                EventKind::FlowRuleInstalled { table_size, .. } => {
                    self.rule_installs += 1;
                    self.peak_rules = self.peak_rules.max(table_size as u64);
                }
                EventKind::FlowRuleEvicted { .. } => self.rule_evictions += 1,
                EventKind::FlowRuleExpired { .. } => self.rule_expiries += 1,
                EventKind::BufferDrain { .. } => self.buffer_drains += 1,
                EventKind::PacketInReceived { .. } => self.pkt_ins_received += 1,
                EventKind::PacketOutSent { buffer_id, .. } => {
                    self.data_pkt_outs += u64::from(buffer_id == no_buffer);
                }
                EventKind::CtrlMsg { dir, bytes, .. } => {
                    self.ctrl_msgs[dir_index(dir)] += 1;
                    self.ctrl_bytes[dir_index(dir)] += bytes as u64;
                }
                EventKind::CtrlDrop { .. } => self.ctrl_drops += 1,
                _ => {}
            }
        }
    }

    /// Codec calls: one encode per full `packet_in`, one header slice per
    /// buffered `packet_in`, one decode per data-carrying `packet_out`.
    pub fn net_ops(&self) -> u64 {
        self.full_pkt_ins + self.buffered_pkt_ins + self.data_pkt_outs
    }

    /// Control messages sized plus match views built.
    pub fn openflow_ops(&self) -> u64 {
        self.ctrl_msgs[0] + self.ctrl_msgs[1] + self.ctrl_drops + self.frames_at_switch
    }

    /// Frames and controller messages the switch handled.
    pub fn switch_ops(&self) -> u64 {
        self.frames_at_switch + self.ctrl_msgs[1]
    }

    /// Misses offered to the buffer mechanism plus releases asked of it.
    pub fn switchbuf_ops(&self) -> u64 {
        self.table_misses + self.buffer_drains
    }

    /// Flow-table calls visible in the stream: one lookup per frame and
    /// one insert per `flow_mod`. (Timer-driven `next_expiry`/`expire`
    /// calls leave no event; only a replayed tape counts them.)
    pub fn flowtable_ops(&self) -> u64 {
        self.frames_at_switch + self.rule_installs
    }

    /// `LinkTx` + `BusTransfer` events.
    pub fn link_ops(&self) -> u64 {
        self.link_tx + self.bus_transfers
    }

    /// Pool handles inserted: `data_frames` (workload packets plus the two
    /// warm-up ARPs), frames decoded out of `packet_out`s, and control
    /// messages.
    pub fn pool_ops(&self, data_frames: u64) -> u64 {
        data_frames + self.data_pkt_outs + self.ctrl_msgs[0] + self.ctrl_msgs[1] + self.ctrl_drops
    }
}

/// One layer's line of the per-layer table.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerRow {
    /// Layer name (a member of [`crate::metrics::LAYERS`]).
    pub layer: &'static str,
    /// Operations per rep.
    pub ops: u64,
    /// Seconds per rep attributed to the layer itself (children with their
    /// own rows excluded). 0 when the layer was not timed on this workload.
    pub self_s: f64,
    /// Seconds including children — differs from `self_s` for `switch`.
    pub inclusive_s: f64,
    /// Allocator calls per rep inside the layer's calls.
    pub allocs: u64,
    /// Whether the layer's calls happen inside a timed rep. Rows outside
    /// (set-up work, optional tracing) are reported but not summed.
    pub in_rep: bool,
    /// `false` when a replayed tape ended on other counters than the real
    /// run: the row is then left out of the sum and fails the self-check.
    pub faithful: bool,
}

impl LayerRow {
    /// A row with operations only.
    pub fn counted(layer: &'static str, ops: u64) -> LayerRow {
        LayerRow {
            layer,
            ops,
            self_s: 0.0,
            inclusive_s: 0.0,
            allocs: 0,
            in_rep: true,
            faithful: true,
        }
    }

    /// A timed row.
    pub fn timed(layer: &'static str, ops: u64, wall_s: f64, allocs: u64) -> LayerRow {
        LayerRow {
            self_s: wall_s,
            inclusive_s: wall_s,
            allocs,
            ..LayerRow::counted(layer, ops)
        }
    }

    /// Marks the row as work done outside the timed reps.
    pub fn outside_rep(mut self) -> LayerRow {
        self.in_rep = false;
        self
    }

    /// Nanoseconds per operation.
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.self_s * 1e9 / self.ops as f64
        }
    }

    /// Whether the row counts towards Σ shares.
    pub fn summed(&self) -> bool {
        self.in_rep && self.faithful
    }
}

/// The per-layer result of one traced pass.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerTable {
    /// One row per layer that did anything, in registry order.
    pub rows: Vec<LayerRow>,
    /// Wall seconds of the workload's 10th-percentile untraced rep — the
    /// denominator of every share.
    pub rep_wall_s: f64,
    /// Seconds counted twice in the rows (calls nested in two timed
    /// layers), taken out of the sum once.
    pub nested_s: f64,
}

impl LayerTable {
    /// The row of `layer`, if present.
    pub fn row(&self, layer: &str) -> Option<&LayerRow> {
        self.rows.iter().find(|r| r.layer == layer)
    }

    /// Adds `other`'s operations, seconds and allocations row by row (the
    /// cells of a workload add up to its rep).
    pub fn absorb(&mut self, other: &LayerTable) {
        self.nested_s += other.nested_s;
        for theirs in &other.rows {
            match self.rows.iter_mut().find(|r| r.layer == theirs.layer) {
                Some(ours) => {
                    ours.ops += theirs.ops;
                    ours.self_s += theirs.self_s;
                    ours.inclusive_s += theirs.inclusive_s;
                    ours.allocs += theirs.allocs;
                    ours.faithful &= theirs.faithful;
                }
                None => self.rows.push(theirs.clone()),
            }
        }
    }

    /// A layer's share of the rep.
    pub fn share(&self, row: &LayerRow) -> f64 {
        row.self_s / self.rep_wall_s
    }

    /// Σ shares over the rows that count.
    pub fn explained_share(&self) -> f64 {
        let summed: f64 = self
            .rows
            .iter()
            .filter(|r| r.summed())
            .map(|r| r.self_s)
            .sum();
        (summed - self.nested_s) / self.rep_wall_s
    }

    /// 1 − Σ shares: what the rows do not explain.
    pub fn residual_share(&self) -> f64 {
        1.0 - self.explained_share()
    }

    /// Whether every replayed tape matched the real run.
    pub fn faithful(&self) -> bool {
        self.rows.iter().all(|r| r.faithful)
    }

    /// Writes `ops`, `ns_per_op`, `share` (and `allocs_per_op`) of every
    /// row into `metrics`, plus the residual.
    pub fn write_into(&self, metrics: &mut MetricSet) {
        for row in &self.rows {
            let layer = row.layer;
            metrics.set(&format!("{layer}.ops"), row.ops as f64);
            metrics.set(&format!("{layer}.ns_per_op"), row.ns_per_op());
            metrics.set(&format!("{layer}.share"), self.share(row));
            if RUN_PATH_LAYERS.contains(&layer) && row.ops > 0 {
                metrics.set(
                    &format!("{layer}.allocs_per_op"),
                    row.allocs as f64 / row.ops as f64,
                );
            }
        }
        metrics.set("core.testbed.residual_share", self.residual_share());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use sdnbuf_core::{BufferMode, Experiment, ExperimentConfig, WorkloadKind};

    #[test]
    fn spans_nest_and_serialise() {
        let mut log = SpanLog::new();
        let root = log.open("cell", None);
        let ((), wall) = log.time("flowtable", Some(root), || {
            std::hint::black_box((0..1000).sum::<u64>());
            ((), 42)
        });
        log.close(root, 1);
        assert!(wall >= 0.0);
        let [cell, tape] = log.spans() else {
            panic!("two spans");
        };
        assert_eq!((tape.parent, tape.ops), (Some(0), 42));
        assert!(cell.start_ns <= tape.start_ns && tape.end_ns <= cell.end_ns);

        let doc = json::parse(&log.to_json("sec4_churn", 7)).unwrap();
        assert_eq!(
            doc.get("workload").and_then(Value::as_str),
            Some("sec4_churn")
        );
        let spans = doc.get("spans").unwrap().items();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("parent"), Some(&Value::Null));
        assert_eq!(spans[1].get("parent").and_then(Value::as_f64), Some(0.0));
        for key in ["name", "start_ns", "end_ns", "parent", "ops"] {
            assert!(spans[1].get(key).is_some(), "{key}");
        }
    }

    #[test]
    fn stream_counts_match_the_runs_own_counters() {
        let (result, events) = Experiment::new(ExperimentConfig {
            buffer: BufferMode::PacketGranularity { capacity: 4 },
            workload: WorkloadKind::single_packet_flows(60),
            ..ExperimentConfig::default()
        })
        .run_traced();
        let c = StreamCounts::of(&events);
        assert_eq!(c.events, events.len() as u64);
        // 60 data frames + 2 warm-up ARPs, all misses.
        assert_eq!(c.frames_at_switch, 62);
        assert_eq!(c.table_misses, 62);
        assert_eq!(c.full_pkt_ins + c.buffered_pkt_ins, 62);
        assert!(c.full_pkt_ins >= result.buffer_fallbacks);
        assert_eq!(c.pkt_ins_received, 62);
        assert_eq!(c.rule_installs, 60);
        assert_eq!(c.ctrl_drops, 0);
        // The run meters only the data phase; the stream sees warm-up and
        // handshake too, so it can only be larger.
        assert!(c.ctrl_bytes[0] >= result.ctrl_bytes_to_controller);
        assert_eq!(c.net_ops(), 62 + c.data_pkt_outs);
        assert_eq!(c.switch_ops(), 62 + c.ctrl_msgs[1]);
    }

    fn table() -> LayerTable {
        LayerTable {
            rows: vec![
                LayerRow::timed("flowtable", 10, 0.2, 5),
                LayerRow::timed("switch", 4, 0.3, 8),
                LayerRow::timed("workload", 100, 0.5, 0).outside_rep(),
                LayerRow::counted("sim.link", 7),
            ],
            rep_wall_s: 1.0,
            nested_s: 0.1,
        }
    }

    #[test]
    fn shares_sum_with_the_residual_to_one() {
        let t = table();
        // Set-up work is reported but not summed; nested time counts once.
        assert!((t.explained_share() - 0.4).abs() < 1e-12);
        assert!((t.explained_share() + t.residual_share() - 1.0).abs() < 1e-12);
        let mut unfaithful = t.clone();
        unfaithful.rows[0].faithful = false;
        assert!(!unfaithful.faithful());
        assert!((unfaithful.explained_share() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn cells_add_up_and_fill_the_metric_set() {
        let mut t = table();
        t.absorb(&table());
        assert_eq!(t.row("flowtable").unwrap().ops, 20);
        assert!((t.row("switch").unwrap().self_s - 0.6).abs() < 1e-12);
        let mut m = MetricSet::per_layer();
        t.write_into(&mut m);
        assert_eq!(m.get("flowtable.ops"), 20.0);
        assert!((m.get("flowtable.ns_per_op") - 0.4e9 / 20.0).abs() < 1e-6);
        assert!((m.get("flowtable.share") - 0.4).abs() < 1e-12);
        assert_eq!(m.get("flowtable.allocs_per_op"), 0.5);
        assert_eq!(m.get("sim.link.ops"), 14.0);
        assert_eq!(m.get("sim.link.ns_per_op"), 0.0);
        assert!((m.get("core.testbed.residual_share") - (1.0 - 0.8)).abs() < 1e-12);
    }
}
