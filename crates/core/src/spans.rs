//! Latency anatomy: folds the xid-linked event stream into per-flow-setup
//! span trees and aggregates them into a bounded-memory [`LatencyReport`].
//!
//! The paper reports flow-setup delay as one flat number per run. This
//! module decomposes it: every reactive flow setup becomes a
//! [`FlowSetupSpan`] whose typed [`Phase`]s tile the critical path from
//! the table miss to the moment the buffered packet is drained —
//!
//! ```text
//! miss_detect → buffer_admit → retry_wait → packet_in_serialize →
//! uplink → ctrl_admission_wait → ctrl_service → downlink → drain_release
//! ```
//!
//! — so the phase durations *telescope*: their sum equals the span's
//! end-to-end duration exactly (rule install runs concurrently with the
//! drain and is reported off the critical path; re-request sub-spans show
//! up as `retry_wait`). The builder is a pure function over a recorded
//! `&[Event]` stream: it never touches the simulation, so enabling the
//! report cannot perturb a run — golden traces stay byte-identical.
//!
//! Aggregation uses [`Histogram`]s (bounded memory, ≤1.6% relative
//! error), merged across sweep cells in deterministic grid order, so a
//! parallel sweep's latency report is byte-identical to a serial one.

use std::io::{self, Write};

use crate::experiment::RunEvents;
use sdnbuf_metrics::{Histogram, Table};
use sdnbuf_sim::{ChannelDir, Event, EventKind, FastHashMap, JsonWriter, Nanos};

/// OpenFlow's "not buffered" sentinel (`OFP_NO_BUFFER`).
const NO_BUFFER: u32 = 0xffff_ffff;

/// One typed segment of a flow setup's critical path, in causal order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Table miss detected → packet admitted to the switch buffer (or,
    /// unbuffered, handed to the slow path).
    MissDetect,
    /// Buffer admission → the `packet_in` leaves the switch CPU.
    BufferAdmit,
    /// First `packet_in` announcement → the announcement that finally got
    /// a response (zero when the first attempt succeeds; re-request
    /// sub-spans accumulate here).
    RetryWait,
    /// `packet_in` leaves the switch CPU → it is put on the control wire.
    PacketInSerialize,
    /// Control-channel flight time, switch → controller.
    Uplink,
    /// Arrival at the controller → the bounded ingress queue admits it.
    CtrlAdmissionWait,
    /// Admission → the controller's reply is put on the wire.
    CtrlService,
    /// Control-channel flight time, controller → switch (the releasing
    /// `packet_out`, falling back to the `flow_mod` when absent).
    Downlink,
    /// Reply arrival → the buffered packet is actually drained.
    DrainRelease,
}

impl Phase {
    /// Every critical-path phase, in causal order.
    pub const ALL: [Phase; 9] = [
        Phase::MissDetect,
        Phase::BufferAdmit,
        Phase::RetryWait,
        Phase::PacketInSerialize,
        Phase::Uplink,
        Phase::CtrlAdmissionWait,
        Phase::CtrlService,
        Phase::Downlink,
        Phase::DrainRelease,
    ];

    /// Stable snake_case label used in every rendering.
    pub fn label(self) -> &'static str {
        match self {
            Phase::MissDetect => "miss_detect",
            Phase::BufferAdmit => "buffer_admit",
            Phase::RetryWait => "retry_wait",
            Phase::PacketInSerialize => "packet_in_serialize",
            Phase::Uplink => "uplink",
            Phase::CtrlAdmissionWait => "ctrl_admission_wait",
            Phase::CtrlService => "ctrl_service",
            Phase::Downlink => "downlink",
            Phase::DrainRelease => "drain_release",
        }
    }
}

/// How a flow setup ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanOutcome {
    /// The buffered packet was drained (or, unbuffered, the `packet_out`
    /// arrived back at the switch).
    Completed,
    /// The retry budget ran out and the slot was given up.
    GivenUp,
    /// The stream ended with the setup still in flight (or its control
    /// messages were lost and never retried).
    Open,
}

impl SpanOutcome {
    /// Stable label used in JSON renderings.
    pub fn label(self) -> &'static str {
        match self {
            SpanOutcome::Completed => "completed",
            SpanOutcome::GivenUp => "given_up",
            SpanOutcome::Open => "open",
        }
    }
}

/// One `packet_in` announcement and the xid-linked responses to it. A
/// flow setup has one attempt per announcement: the original plus one per
/// re-request.
#[derive(Clone, Copy, Debug, Default)]
pub struct Attempt {
    /// Transaction id of the announcement.
    pub xid: u32,
    /// When the `packet_in` left the switch CPU.
    pub sent_at: Nanos,
    /// When it was put on the control wire (`ctrl_msg` send time).
    pub wire_at: Option<Nanos>,
    /// When it arrived at the controller.
    pub ctrl_arrive: Option<Nanos>,
    /// When the controller's ingress queue admitted it.
    pub received_at: Option<Nanos>,
    /// When the releasing reply (`packet_out`, else `flow_mod`) was put
    /// on the wire back to the switch.
    pub reply_sent: Option<Nanos>,
    /// When that reply arrived at the switch.
    pub reply_arrive: Option<Nanos>,
    /// The announcement or its reply was dropped on the control channel.
    pub lost: bool,
    /// The controller's admission policy shed this announcement.
    pub shed: bool,
}

/// One reactive flow setup: the span tree from table miss to drain.
#[derive(Clone, Debug)]
pub struct FlowSetupSpan {
    /// The switch buffer slot (generation-tagged), `None` when the packet
    /// rode inside the `packet_in` unbuffered.
    pub buffer_id: Option<u32>,
    /// When the table miss was detected.
    pub miss_at: Option<Nanos>,
    /// When the packet was admitted to the buffer.
    pub admit_at: Option<Nanos>,
    /// Every announcement, in emission order (index 0 is the original;
    /// the rest are re-requests).
    pub attempts: Vec<Attempt>,
    /// `buffer_rerequest` events observed for this slot.
    pub rerequests: u32,
    /// Packets that joined the slot after the announcement (flow
    /// granularity queues subsequent packets of the flow).
    pub extra_enqueues: u32,
    /// Rule install sub-span (`flow_rule_installed` emission time →
    /// `effective_at`); concurrent with the drain, so off the critical
    /// path.
    pub install: Option<(Nanos, Nanos)>,
    /// When the setup completed (drain time, or unbuffered reply
    /// arrival). `None` while open.
    pub end: Option<Nanos>,
    /// Packets released by the drain.
    pub released: usize,
    /// xid of the attempt whose reply closed the span.
    pub releasing_xid: Option<u32>,
    /// How the setup ended.
    pub outcome: SpanOutcome,
}

impl FlowSetupSpan {
    fn new(buffer_id: Option<u32>, miss_at: Option<Nanos>, admit_at: Option<Nanos>) -> Self {
        FlowSetupSpan {
            buffer_id,
            miss_at,
            admit_at,
            attempts: Vec::new(),
            rerequests: 0,
            extra_enqueues: 0,
            install: None,
            end: None,
            released: 0,
            releasing_xid: None,
            outcome: SpanOutcome::Open,
        }
    }

    /// When the span started: the table miss, falling back to buffer
    /// admission, falling back to the first announcement.
    pub fn start(&self) -> Nanos {
        self.miss_at
            .or(self.admit_at)
            .or_else(|| self.attempts.first().map(|a| a.sent_at))
            .unwrap_or(Nanos::ZERO)
    }

    /// End-to-end duration for a closed span, `None` while open.
    pub fn total(&self) -> Option<Nanos> {
        self.end.map(|e| e.saturating_sub(self.start()))
    }

    /// The attempt whose reply closed the span: matched by the drain's
    /// xid, falling back to the last attempt that saw a reply, falling
    /// back to the last attempt.
    pub fn releasing_attempt(&self) -> Option<&Attempt> {
        if let Some(xid) = self.releasing_xid {
            if let Some(a) = self.attempts.iter().find(|a| a.xid == xid) {
                return Some(a);
            }
        }
        self.attempts
            .iter()
            .rev()
            .find(|a| a.reply_arrive.is_some())
            .or_else(|| self.attempts.last())
    }

    /// The critical-path phase decomposition of a closed span.
    ///
    /// Returns one `(phase, duration)` per [`Phase::ALL`] entry. The
    /// boundaries are clamped monotonically, so the durations always sum
    /// *exactly* to [`FlowSetupSpan::total`] — the telescoping identity
    /// the latency report's accounting rests on. Returns `None` while the
    /// span is open.
    pub fn phases(&self) -> Option<[(Phase, Nanos); 9]> {
        let end = self.end?;
        let rel = self.releasing_attempt();
        let first = self.attempts.first();
        let start = self.start();
        // Raw boundary candidates in causal order; a missing observation
        // inherits the previous boundary (zero-width phase).
        let raw: [Option<Nanos>; 10] = [
            Some(start),
            // Unbuffered setups have no admission: miss detection runs
            // until the packet_in leaves, and buffer_admit is zero-width.
            self.admit_at.or_else(|| first.map(|a| a.sent_at)),
            first.map(|a| a.sent_at),
            rel.map(|a| a.sent_at),
            rel.and_then(|a| a.wire_at),
            rel.and_then(|a| a.ctrl_arrive),
            rel.and_then(|a| a.received_at),
            rel.and_then(|a| a.reply_sent),
            rel.and_then(|a| a.reply_arrive),
            Some(end),
        ];
        let mut bounds = [start; 10];
        let mut cursor = start;
        for (slot, candidate) in bounds.iter_mut().zip(raw.iter()) {
            // Clamp to the running maximum (and to the span end) so the
            // boundaries are monotone even over a damaged stream.
            if let Some(t) = *candidate {
                cursor = cursor.max(t.min(end));
            }
            *slot = cursor;
        }
        bounds[9] = end;
        let mut out = [(Phase::MissDetect, Nanos::ZERO); 9];
        for (i, phase) in Phase::ALL.iter().enumerate() {
            out[i] = (*phase, bounds[i + 1].saturating_sub(bounds[i]));
        }
        Some(out)
    }
}

/// Per-slot builder state while a setup is in flight.
struct OpenSpan {
    span: FlowSetupSpan,
}

/// Folds a recorded event stream into flow-setup spans.
///
/// A pure function: events are stably sorted by timestamp (emission order
/// breaks ties, like every exporter in [`crate::observe`]) and correlated
/// by buffer id and xid. Damaged or truncated streams degrade to open
/// spans instead of panicking. Spans are returned in closing order,
/// open spans last in opening order.
pub fn build_spans(events: &[Event]) -> Vec<FlowSetupSpan> {
    let mut sorted = events.to_vec();
    sorted.sort_by_key(|e| e.at);

    let mut closed: Vec<FlowSetupSpan> = Vec::new();
    // Misses seen but not yet claimed by an admission or announcement.
    let mut pending_misses: std::collections::VecDeque<Nanos> = std::collections::VecDeque::new();
    // Open buffered spans by slot id; insertion order preserved separately.
    let mut by_buffer: FastHashMap<u32, OpenSpan> = FastHashMap::default();
    let mut buffer_order: Vec<u32> = Vec::new();
    // Open unbuffered spans by announcement xid.
    let mut by_xid_unbuffered: FastHashMap<u32, OpenSpan> = FastHashMap::default();
    let mut unbuffered_order: Vec<u32> = Vec::new();
    // xid → owning slot, for buffered attempts.
    let mut xid_to_buffer: FastHashMap<u32, u32> = FastHashMap::default();
    // xid → index into `closed`: a rule install is stamped at switch
    // parse time, which lands *after* the reply's send-time event closed
    // the span, so installs must still find spans already closed.
    let mut xid_to_closed: FastHashMap<u32, usize> = FastHashMap::default();

    // Applies `f` to the attempt with this xid, wherever its span lives.
    fn with_attempt(
        xid: u32,
        by_buffer: &mut FastHashMap<u32, OpenSpan>,
        by_xid_unbuffered: &mut FastHashMap<u32, OpenSpan>,
        xid_to_buffer: &FastHashMap<u32, u32>,
        f: impl FnOnce(&mut Attempt),
    ) {
        let span = if let Some(slot) = xid_to_buffer.get(&xid) {
            by_buffer.get_mut(slot)
        } else {
            by_xid_unbuffered.get_mut(&xid)
        };
        if let Some(open) = span {
            if let Some(a) = open.span.attempts.iter_mut().find(|a| a.xid == xid) {
                f(a);
            }
        }
    }

    // Retires a span into `closed`, indexing every attempt xid so late
    // install events still attach.
    fn retire(
        span: FlowSetupSpan,
        closed: &mut Vec<FlowSetupSpan>,
        xid_to_closed: &mut FastHashMap<u32, usize>,
    ) {
        for a in &span.attempts {
            xid_to_closed.insert(a.xid, closed.len());
        }
        closed.push(span);
    }

    for ev in &sorted {
        let at = ev.at;
        match ev.kind {
            EventKind::TableMiss { .. } => pending_misses.push_back(at),
            EventKind::BufferEnqueue {
                buffer_id, fresh, ..
            } => {
                let miss = pending_misses.pop_front();
                if fresh {
                    by_buffer
                        .entry(buffer_id)
                        .or_insert_with(|| {
                            buffer_order.push(buffer_id);
                            OpenSpan {
                                span: FlowSetupSpan::new(Some(buffer_id), miss, Some(at)),
                            }
                        })
                        .span
                        .admit_at
                        .get_or_insert(at);
                } else if let Some(open) = by_buffer.get_mut(&buffer_id) {
                    open.span.extra_enqueues += 1;
                }
            }
            EventKind::BufferRerequest { buffer_id, .. } => {
                if let Some(open) = by_buffer.get_mut(&buffer_id) {
                    open.span.rerequests += 1;
                }
            }
            EventKind::PacketInSent { xid, buffer_id, .. } => {
                let attempt = Attempt {
                    xid,
                    sent_at: at,
                    ..Attempt::default()
                };
                if buffer_id == NO_BUFFER {
                    let miss = pending_misses.pop_front();
                    let mut span = FlowSetupSpan::new(None, miss, None);
                    span.attempts.push(attempt);
                    by_xid_unbuffered.insert(xid, OpenSpan { span });
                    unbuffered_order.push(xid);
                } else {
                    let open = by_buffer.entry(buffer_id).or_insert_with(|| {
                        buffer_order.push(buffer_id);
                        OpenSpan {
                            span: FlowSetupSpan::new(Some(buffer_id), None, None),
                        }
                    });
                    open.span.attempts.push(attempt);
                    xid_to_buffer.insert(xid, buffer_id);
                }
            }
            EventKind::CtrlMsg {
                dir: ChannelDir::ToController,
                xid,
                label: "packet_in",
                arrive,
                ..
            } => with_attempt(
                xid,
                &mut by_buffer,
                &mut by_xid_unbuffered,
                &xid_to_buffer,
                |a| {
                    if a.wire_at.is_none() {
                        a.wire_at = Some(at);
                        a.ctrl_arrive = Some(arrive);
                    }
                },
            ),
            EventKind::CtrlDrop {
                dir: ChannelDir::ToController,
                xid,
                label: "packet_in",
                ..
            } => with_attempt(
                xid,
                &mut by_buffer,
                &mut by_xid_unbuffered,
                &xid_to_buffer,
                |a| a.lost = true,
            ),
            EventKind::PacketInReceived { xid, .. } => with_attempt(
                xid,
                &mut by_buffer,
                &mut by_xid_unbuffered,
                &xid_to_buffer,
                |a| {
                    if a.received_at.is_none() {
                        a.received_at = Some(at);
                    }
                },
            ),
            EventKind::AdmissionShed { xid, .. } => with_attempt(
                xid,
                &mut by_buffer,
                &mut by_xid_unbuffered,
                &xid_to_buffer,
                |a| a.shed = true,
            ),
            EventKind::CtrlMsg {
                dir: ChannelDir::ToSwitch,
                xid,
                label,
                arrive,
                ..
            } if label == "packet_out" || label == "flow_mod" => {
                with_attempt(
                    xid,
                    &mut by_buffer,
                    &mut by_xid_unbuffered,
                    &xid_to_buffer,
                    |a| {
                        // Prefer the packet_out (it is what releases the
                        // packet); a flow_mod only stands in until one shows.
                        if a.reply_arrive.is_none() || label == "packet_out" {
                            a.reply_sent = Some(at);
                            a.reply_arrive = Some(arrive);
                        }
                    },
                );
                // An unbuffered span completes when its packet_out (which
                // carries the packet) arrives back at the switch.
                if label == "packet_out" {
                    if let Some(mut open) = by_xid_unbuffered.remove(&xid) {
                        open.span.end = Some(arrive);
                        open.span.releasing_xid = Some(xid);
                        open.span.outcome = SpanOutcome::Completed;
                        retire(open.span, &mut closed, &mut xid_to_closed);
                    }
                }
            }
            EventKind::CtrlDrop {
                dir: ChannelDir::ToSwitch,
                xid,
                label,
                ..
            } if label == "packet_out" || label == "flow_mod" => with_attempt(
                xid,
                &mut by_buffer,
                &mut by_xid_unbuffered,
                &xid_to_buffer,
                |a| a.lost = true,
            ),
            EventKind::FlowRuleInstalled {
                xid, effective_at, ..
            } => {
                let open = if let Some(slot) = xid_to_buffer.get(&xid) {
                    by_buffer.get_mut(slot).map(|o| &mut o.span)
                } else {
                    by_xid_unbuffered.get_mut(&xid).map(|o| &mut o.span)
                };
                let span = match open {
                    Some(s) => Some(s),
                    None => xid_to_closed.get(&xid).map(|&i| &mut closed[i]),
                };
                if let Some(span) = span {
                    span.install.get_or_insert((at, effective_at));
                }
            }
            EventKind::BufferDrain {
                xid,
                buffer_id,
                released,
                ..
            } if released > 0 => {
                if let Some(mut open) = by_buffer.remove(&buffer_id) {
                    open.span.end = Some(at);
                    open.span.released = released;
                    open.span.releasing_xid = Some(xid);
                    open.span.outcome = SpanOutcome::Completed;
                    retire(open.span, &mut closed, &mut xid_to_closed);
                }
            }
            EventKind::BufferGiveUp {
                buffer_id, drained, ..
            } => {
                if let Some(mut open) = by_buffer.remove(&buffer_id) {
                    open.span.end = Some(at);
                    open.span.released = drained;
                    open.span.outcome = SpanOutcome::GivenUp;
                    retire(open.span, &mut closed, &mut xid_to_closed);
                }
            }
            _ => {}
        }
    }

    // Open spans trail the closed ones, in opening order.
    for slot in buffer_order {
        if let Some(open) = by_buffer.remove(&slot) {
            closed.push(open.span);
        }
    }
    for xid in unbuffered_order {
        if let Some(open) = by_xid_unbuffered.remove(&xid) {
            closed.push(open.span);
        }
    }
    closed
}

/// Bounded-memory aggregate of a run's (or a whole sweep's) flow-setup
/// latency anatomy: one [`Histogram`] per critical-path phase, one for
/// the end-to-end total, one for the off-path rule install, plus span
/// outcome counts. Merging is per-histogram counter addition, so folding
/// per-cell reports in deterministic grid order reproduces the serial
/// result byte-for-byte.
#[derive(Clone, Debug, Default)]
pub struct LatencyReport {
    /// End-to-end duration of completed spans.
    pub total: Histogram,
    /// Per-phase histograms, indexed like [`Phase::ALL`].
    pub phases: [Histogram; 9],
    /// Rule install (emission → effective), concurrent with the drain.
    pub rule_install: Histogram,
    /// Spans that completed.
    pub completed: u64,
    /// Spans that gave up after exhausting their retry budget.
    pub given_up: u64,
    /// Spans still open when the stream ended.
    pub open: u64,
    /// Total re-request announcements observed.
    pub rerequests: u64,
}

impl LatencyReport {
    /// Builds a report from a recorded event stream.
    pub fn from_events(events: &[Event]) -> LatencyReport {
        let mut report = LatencyReport::default();
        report.absorb(events);
        report
    }

    /// Folds one event stream's spans into this report.
    pub fn absorb(&mut self, events: &[Event]) {
        for span in build_spans(events) {
            self.rerequests += u64::from(span.rerequests);
            match span.outcome {
                SpanOutcome::Completed => {
                    self.completed += 1;
                    if let (Some(total), Some(phases)) = (span.total(), span.phases()) {
                        self.total.record(total);
                        for (i, (_, d)) in phases.iter().enumerate() {
                            self.phases[i].record(*d);
                        }
                    }
                    if let Some((at, effective)) = span.install {
                        self.rule_install.record(effective.saturating_sub(at));
                    }
                }
                SpanOutcome::GivenUp => self.given_up += 1,
                SpanOutcome::Open => self.open += 1,
            }
        }
    }

    /// Folds another report into this one.
    pub fn merge(&mut self, other: &LatencyReport) {
        self.total.merge(&other.total);
        for (mine, theirs) in self.phases.iter_mut().zip(other.phases.iter()) {
            mine.merge(theirs);
        }
        self.rule_install.merge(&other.rule_install);
        self.completed += other.completed;
        self.given_up += other.given_up;
        self.open += other.open;
        self.rerequests += other.rerequests;
    }

    /// Share of the mean critical path spent in each phase, in percent
    /// (indexed like [`Phase::ALL`]; zeros when nothing completed).
    pub fn shares_pct(&self) -> [f64; 9] {
        let mut shares = [0.0f64; 9];
        let total: f64 = self.phases.iter().map(Histogram::mean_ms).sum();
        if total > 0.0 {
            for (s, h) in shares.iter_mut().zip(self.phases.iter()) {
                *s = h.mean_ms() / total * 100.0;
            }
        }
        shares
    }

    /// Renders the per-phase p50/p95/p99 table (milliseconds). The final
    /// rows carry the off-path rule install and the end-to-end total the
    /// critical-path phases sum to.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(vec![
            "phase", "n", "p50_ms", "p95_ms", "p99_ms", "max_ms", "share_%",
        ]);
        let shares = self.shares_pct();
        for (i, phase) in Phase::ALL.iter().enumerate() {
            let h = &self.phases[i];
            t.row(vec![
                phase.label().to_string(),
                h.count().to_string(),
                format!("{:.3}", h.quantile_ms(0.50)),
                format!("{:.3}", h.quantile_ms(0.95)),
                format!("{:.3}", h.quantile_ms(0.99)),
                format!("{:.3}", h.max().as_millis_f64()),
                format!("{:.3}", shares[i]),
            ]);
        }
        let mut special = |label: &str, h: &Histogram| {
            t.row(vec![
                label.to_string(),
                h.count().to_string(),
                format!("{:.3}", h.quantile_ms(0.50)),
                format!("{:.3}", h.quantile_ms(0.95)),
                format!("{:.3}", h.quantile_ms(0.99)),
                format!("{:.3}", h.max().as_millis_f64()),
                "-".to_string(),
            ]);
        };
        special("rule_install*", &self.rule_install);
        special("total", &self.total);
        t
    }

    /// Writes the report as TSV (one row per phase, then rule install and
    /// total), matching [`LatencyReport::to_table`].
    pub fn write_tsv(&self, w: &mut dyn Write) -> io::Result<()> {
        w.write_all(self.to_table().to_tsv().as_bytes())
    }

    /// Appends the report as a stable-field-order JSON object.
    pub fn write_json(&self, out: &mut String) {
        let mut w = JsonWriter::new(out);
        w.begin_object();
        w.key("schema").string("latency/v1");
        w.key("spans").begin_object();
        w.key("completed").u64(self.completed);
        w.key("given_up").u64(self.given_up);
        w.key("open").u64(self.open);
        w.key("rerequests").u64(self.rerequests);
        w.end_object();
        w.key("phases").begin_array();
        let on_path = Phase::ALL.iter().zip(&self.phases);
        for (label, on_critical_path, hist) in on_path
            .map(|(phase, hist)| (phase.label(), true, hist))
            .chain([("rule_install", false, &self.rule_install)])
        {
            w.begin_object();
            w.key("phase").string(label);
            w.key("on_critical_path").bool(on_critical_path);
            w.key("hist").raw(|out| hist.write_json(out));
            w.end_object();
        }
        w.end_array();
        w.key("total").raw(|out| self.total.write_json(out));
        w.end_object();
    }
}

/// Aggregates a traced sweep into one merged [`LatencyReport`] per cell,
/// in the sweep's grid order (so the result is deterministic and
/// identical for serial and parallel executions, which already merge
/// their `RunEvents` in grid order).
pub fn latency_by_cell(runs: &[RunEvents]) -> Vec<(String, u64, LatencyReport)> {
    let mut out: Vec<(String, u64, LatencyReport)> = Vec::new();
    for run in runs {
        let matching = out
            .iter_mut()
            .find(|(label, rate, _)| *label == run.label && *rate == run.key.rate_mbps);
        let report = match matching {
            Some((_, _, report)) => report,
            None => {
                out.push((
                    run.label.clone(),
                    run.key.rate_mbps,
                    LatencyReport::default(),
                ));
                &mut out.last_mut().expect("just pushed").2
            }
        };
        report.absorb(&run.events);
    }
    out
}

/// Renders per-cell latency columns for a traced sweep: end-to-end
/// p50/p95/p99 plus the p95 of the dominant phases, one row per cell.
pub fn sweep_latency_table(cells: &[(String, u64, LatencyReport)]) -> Table {
    let mut t = Table::new(vec![
        "cell",
        "mbps",
        "flows",
        "p50_ms",
        "p95_ms",
        "p99_ms",
        "uplink_p95",
        "service_p95",
        "downlink_p95",
    ]);
    for (label, rate, report) in cells {
        let uplink = &report.phases[4];
        let service = &report.phases[6];
        let downlink = &report.phases[7];
        t.row(vec![
            label.clone(),
            rate.to_string(),
            report.completed.to_string(),
            format!("{:.3}", report.total.quantile_ms(0.50)),
            format!("{:.3}", report.total.quantile_ms(0.95)),
            format!("{:.3}", report.total.quantile_ms(0.99)),
            format!("{:.3}", uplink.quantile_ms(0.95)),
            format!("{:.3}", service.quantile_ms(0.95)),
            format!("{:.3}", downlink.quantile_ms(0.95)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_us: u64, kind: EventKind) -> Event {
        Event {
            at: Nanos::from_micros(at_us),
            kind,
        }
    }

    /// A minimal healthy buffered setup: miss → enqueue → packet_in →
    /// uplink → ingest → reply → drain.
    fn healthy_buffered(base_us: u64, buffer_id: u32, xid: u32) -> Vec<Event> {
        let b = base_us;
        vec![
            ev(
                b,
                EventKind::TableMiss {
                    in_port: 1,
                    bytes: 100,
                },
            ),
            ev(
                b + 2,
                EventKind::BufferEnqueue {
                    buffer_id,
                    occupancy: 1,
                    fresh: true,
                },
            ),
            ev(
                b + 5,
                EventKind::PacketInSent {
                    xid,
                    buffer_id,
                    bytes: 128,
                },
            ),
            ev(
                b + 6,
                EventKind::CtrlMsg {
                    dir: ChannelDir::ToController,
                    xid,
                    bytes: 128,
                    label: "packet_in",
                    arrive: Nanos::from_micros(b + 16),
                },
            ),
            ev(
                b + 17,
                EventKind::PacketInReceived {
                    xid,
                    bytes: 128,
                    buffered: true,
                },
            ),
            ev(
                b + 40,
                EventKind::Decision {
                    xid,
                    action: "install",
                },
            ),
            ev(b + 40, EventKind::FlowModSent { xid }),
            ev(b + 40, EventKind::PacketOutSent { xid, buffer_id }),
            ev(
                b + 41,
                EventKind::CtrlMsg {
                    dir: ChannelDir::ToSwitch,
                    xid,
                    bytes: 80,
                    label: "flow_mod",
                    arrive: Nanos::from_micros(b + 50),
                },
            ),
            ev(
                b + 42,
                EventKind::CtrlMsg {
                    dir: ChannelDir::ToSwitch,
                    xid,
                    bytes: 24,
                    label: "packet_out",
                    arrive: Nanos::from_micros(b + 52),
                },
            ),
            ev(
                b + 51,
                EventKind::FlowRuleInstalled {
                    xid,
                    effective_at: Nanos::from_micros(b + 60),
                    table_size: 1,
                },
            ),
            ev(
                b + 55,
                EventKind::BufferDrain {
                    xid,
                    buffer_id,
                    released: 1,
                    occupancy: 0,
                },
            ),
        ]
    }

    #[test]
    fn healthy_span_decomposes_and_telescopes() {
        let spans = build_spans(&healthy_buffered(100, 7, 42));
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.outcome, SpanOutcome::Completed);
        assert_eq!(s.buffer_id, Some(7));
        assert_eq!(s.releasing_xid, Some(42));
        assert_eq!(s.total(), Some(Nanos::from_micros(55)));
        let phases = s.phases().expect("closed span has phases");
        let sum: u64 = phases.iter().map(|(_, d)| d.as_nanos()).sum();
        assert_eq!(sum, s.total().unwrap().as_nanos(), "phases must telescope");
        let by_label: std::collections::HashMap<&str, u64> = phases
            .iter()
            .map(|(p, d)| (p.label(), d.as_nanos() / 1000))
            .collect();
        assert_eq!(by_label["miss_detect"], 2);
        assert_eq!(by_label["buffer_admit"], 3);
        assert_eq!(by_label["retry_wait"], 0);
        assert_eq!(by_label["packet_in_serialize"], 1);
        assert_eq!(by_label["uplink"], 10);
        assert_eq!(by_label["ctrl_admission_wait"], 1);
        // Reply goes on the wire at b+42 (packet_out preferred).
        assert_eq!(by_label["ctrl_service"], 25);
        assert_eq!(by_label["downlink"], 10);
        assert_eq!(by_label["drain_release"], 3);
        assert_eq!(
            s.install,
            Some((Nanos::from_micros(151), Nanos::from_micros(160)))
        );
    }

    #[test]
    fn unbuffered_span_completes_on_packet_out_arrival() {
        let xid = 9;
        let events = vec![
            ev(
                0,
                EventKind::TableMiss {
                    in_port: 1,
                    bytes: 100,
                },
            ),
            ev(
                3,
                EventKind::PacketInSent {
                    xid,
                    buffer_id: NO_BUFFER,
                    bytes: 128,
                },
            ),
            ev(
                4,
                EventKind::CtrlMsg {
                    dir: ChannelDir::ToController,
                    xid,
                    bytes: 128,
                    label: "packet_in",
                    arrive: Nanos::from_micros(14),
                },
            ),
            ev(
                15,
                EventKind::PacketInReceived {
                    xid,
                    bytes: 128,
                    buffered: false,
                },
            ),
            ev(
                30,
                EventKind::CtrlMsg {
                    dir: ChannelDir::ToSwitch,
                    xid,
                    bytes: 150,
                    label: "packet_out",
                    arrive: Nanos::from_micros(45),
                },
            ),
        ];
        let spans = build_spans(&events);
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.buffer_id, None);
        assert_eq!(s.outcome, SpanOutcome::Completed);
        assert_eq!(s.total(), Some(Nanos::from_micros(45)));
        let phases = s.phases().unwrap();
        let sum: u64 = phases.iter().map(|(_, d)| d.as_nanos()).sum();
        assert_eq!(sum, 45_000);
        // No buffer: admit and drain phases are zero-width.
        assert_eq!(phases[1].1, Nanos::ZERO, "buffer_admit");
        assert_eq!(phases[8].1, Nanos::ZERO, "drain_release");
    }

    #[test]
    fn lost_reply_leaves_span_open_and_rerequest_counts() {
        let buffer_id = 3;
        let mut events = vec![
            ev(
                0,
                EventKind::TableMiss {
                    in_port: 1,
                    bytes: 100,
                },
            ),
            ev(
                1,
                EventKind::BufferEnqueue {
                    buffer_id,
                    occupancy: 1,
                    fresh: true,
                },
            ),
            ev(
                2,
                EventKind::PacketInSent {
                    xid: 1,
                    buffer_id,
                    bytes: 128,
                },
            ),
            ev(
                3,
                EventKind::CtrlDrop {
                    dir: ChannelDir::ToController,
                    xid: 1,
                    bytes: 128,
                    label: "packet_in",
                },
            ),
            ev(
                5_000,
                EventKind::BufferRerequest {
                    buffer_id,
                    occupancy: 1,
                },
            ),
            ev(
                5_001,
                EventKind::PacketInSent {
                    xid: 2,
                    buffer_id,
                    bytes: 128,
                },
            ),
        ];
        let spans = build_spans(&events);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].outcome, SpanOutcome::Open);
        assert_eq!(spans[0].rerequests, 1);
        assert_eq!(spans[0].attempts.len(), 2);
        assert!(spans[0].attempts[0].lost);
        assert!(spans[0].phases().is_none(), "open span has no phase split");

        // Now the retry succeeds: retry_wait carries the gap.
        events.extend([
            ev(
                5_002,
                EventKind::CtrlMsg {
                    dir: ChannelDir::ToController,
                    xid: 2,
                    bytes: 128,
                    label: "packet_in",
                    arrive: Nanos::from_micros(5_012),
                },
            ),
            ev(
                5_013,
                EventKind::PacketInReceived {
                    xid: 2,
                    bytes: 128,
                    buffered: true,
                },
            ),
            ev(
                5_030,
                EventKind::CtrlMsg {
                    dir: ChannelDir::ToSwitch,
                    xid: 2,
                    bytes: 24,
                    label: "packet_out",
                    arrive: Nanos::from_micros(5_040),
                },
            ),
            ev(
                5_045,
                EventKind::BufferDrain {
                    xid: 2,
                    buffer_id,
                    released: 1,
                    occupancy: 0,
                },
            ),
        ]);
        let spans = build_spans(&events);
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.outcome, SpanOutcome::Completed);
        assert_eq!(s.releasing_xid, Some(2));
        let phases = s.phases().unwrap();
        let retry_wait = phases[2].1;
        assert_eq!(retry_wait, Nanos::from_micros(4_999), "sent#1 → sent#2");
        let sum: u64 = phases.iter().map(|(_, d)| d.as_nanos()).sum();
        assert_eq!(sum, s.total().unwrap().as_nanos());
    }

    #[test]
    fn give_up_closes_span_as_given_up() {
        let events = vec![
            ev(
                1,
                EventKind::BufferEnqueue {
                    buffer_id: 5,
                    occupancy: 1,
                    fresh: true,
                },
            ),
            ev(
                2,
                EventKind::PacketInSent {
                    xid: 1,
                    buffer_id: 5,
                    bytes: 128,
                },
            ),
            ev(
                900,
                EventKind::BufferGiveUp {
                    buffer_id: 5,
                    drained: 1,
                    action: "drop",
                    occupancy: 0,
                },
            ),
        ];
        let spans = build_spans(&events);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].outcome, SpanOutcome::GivenUp);
        assert_eq!(spans[0].end, Some(Nanos::from_micros(900)));
    }

    #[test]
    fn report_aggregates_and_merges_deterministically() {
        let run1 = healthy_buffered(0, 1, 1);
        let run2 = healthy_buffered(1_000, 2, 2);
        // Serial: one report over both runs' streams.
        let mut serial = LatencyReport::default();
        serial.absorb(&run1);
        serial.absorb(&run2);
        // Parallel-shaped: per-run reports merged in grid order.
        let mut merged = LatencyReport::from_events(&run1);
        merged.merge(&LatencyReport::from_events(&run2));
        assert_eq!(serial.completed, 2);
        let (mut a, mut b) = (String::new(), String::new());
        serial.write_json(&mut a);
        merged.write_json(&mut b);
        assert_eq!(a, b, "merge must be byte-identical to serial");
        assert!(a.starts_with("{\"schema\":\"latency/v1\""));
        // Share percentages cover the whole critical path.
        let total: f64 = serial.shares_pct().iter().sum();
        assert!((total - 100.0).abs() < 1e-6);
    }

    #[test]
    fn table_lists_every_phase_plus_total() {
        let report = LatencyReport::from_events(&healthy_buffered(0, 1, 1));
        let text = report.to_table().to_text();
        for phase in Phase::ALL {
            assert!(text.contains(phase.label()), "missing {}", phase.label());
        }
        assert!(text.contains("rule_install*"));
        assert!(text.contains("total"));
    }
}
