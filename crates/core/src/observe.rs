//! Exporters over the structured event stream: JSONL dumps, Chrome
//! trace-event timelines (openable in Perfetto / `chrome://tracing`), and
//! a periodic time-series sampler written as TSV or drawn as sparklines.
//!
//! All three exporters are pure functions of recorded [`Event`]s, so their
//! output inherits the stream's determinism: a fixed seed yields
//! byte-for-byte identical files regardless of worker count (asserted by
//! `tests/observability.rs`).
//!
//! # Timeline format
//!
//! [`export_timeline`] writes the Chrome trace-event JSON array format.
//! Each sweep run becomes a process (`pid`), with four tracks (`tid`):
//! `switch`, `bus`, `channel`, and `controller` (plus `links` for data
//! ports). A flow-setup transaction is stitched across tracks by flow
//! events (`ph: "s"/"t"/"f"`) keyed on the OpenFlow `xid`, so
//! `packet_in → flow_mod → packet_out → drain` renders as linked spans.
//! An event's entry carries the event itself as its `args`: the object a
//! JSONL line holds ([`Event::to_json`]), from the same renderer. Entries
//! are written through [`JsonWriter`].

use crate::experiment::RunEvents;
use sdnbuf_sim::hash::{fnv1a, FNV_OFFSET};
use sdnbuf_sim::{ByteSink, ChannelDir, Event, EventKind, JsonWriter, Nanos, Piece};
use std::fmt::Write as _;
use std::io::{self, Write};

/// Track ids used by the timeline exporter, in display order.
const TID_SWITCH: u32 = 1;
const TID_BUS: u32 = 2;
const TID_CHANNEL: u32 = 3;
const TID_CONTROLLER: u32 = 4;
const TID_LINKS: u32 = 5;

/// The per-line run-identity prefix stamped onto sweep JSONL exports:
/// `"run":{"mode":"buffer-16","rate_mbps":100,"rep":3},`.
pub fn run_prefix(label: &str, rate_mbps: u64, rep: usize) -> String {
    format!("\"run\":{{\"mode\":\"{label}\",\"rate_mbps\":{rate_mbps},\"rep\":{rep}}},")
}

/// Streams `events` as JSON Lines to `w`, one object per event, with
/// `prefix` inserted into every object (pass `""` for none). Returns the
/// number of lines written.
///
/// # Errors
///
/// The first error the writer returned; nothing is written after it, so
/// `w` holds a prefix of the stream.
pub fn write_events_jsonl(events: &[Event], prefix: &str, w: &mut dyn Write) -> io::Result<u64> {
    let mut line = String::with_capacity(128);
    for event in events {
        line.clear();
        line.push('{');
        line.push_str(prefix);
        event.write_json_fields(&mut line);
        line.push_str("}\n");
        w.write_all(line.as_bytes())?;
    }
    Ok(events.len() as u64)
}

/// A running 64-bit FNV-1a digest of the canonical JSONL rendering of an
/// event stream — the bytes [`write_events_jsonl`] writes with an empty
/// prefix. The renderer's output is folded into the hash as it is
/// produced — its literals in one step each ([`Piece::fold`]), labels and
/// digits byte by byte; the text itself never exists.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EventDigest(u64);

impl Default for EventDigest {
    fn default() -> EventDigest {
        EventDigest(FNV_OFFSET)
    }
}

impl EventDigest {
    /// Folds in one event's line.
    #[inline]
    pub(crate) fn observe(&mut self, event: &Event) {
        static CLOSE: Piece = Piece::new("}\n");
        self.text("{");
        event.write_json_fields(self);
        self.piece(&CLOSE);
    }

    /// The digest of every line observed so far.
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

impl ByteSink for EventDigest {
    #[inline]
    fn text(&mut self, text: &str) {
        self.ascii(text.as_bytes());
    }

    #[inline]
    fn ascii(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }

    #[inline]
    fn piece(&mut self, piece: &'static Piece) {
        self.0 = piece.fold(self.0);
    }
}

/// The 64-bit FNV-1a digest of a recorded stream's canonical JSONL
/// rendering. Two runs are byte-identical exactly when their digests (and
/// event counts) match — the equality the chaos harness's replay command
/// asserts without storing full streams.
pub fn events_digest(events: &[Event]) -> u64 {
    let mut digest = EventDigest::default();
    for event in events {
        digest.observe(event);
    }
    digest.finish()
}

/// Streams a whole traced sweep as JSON Lines: every run's events in grid
/// order, each line stamped with its [`run_prefix`]. Returns the total
/// line count.
///
/// # Errors
///
/// Propagates the first failed write (see [`write_events_jsonl`]).
pub fn export_sweep_jsonl(runs: &[RunEvents], w: &mut dyn Write) -> io::Result<u64> {
    let mut total = 0;
    for run in runs {
        let prefix = run_prefix(&run.label, run.key.rate_mbps, run.rep);
        total += write_events_jsonl(&run.events, &prefix, w)?;
    }
    Ok(total)
}

/// One run's pid-unique flow id: xids are unique within a run but repeat
/// across runs, so the pid disambiguates.
fn flow_id(pid: u64, xid: u32) -> u64 {
    (pid << 32) | u64::from(xid)
}

/// Writes the value of `key` as microseconds with a fixed 3-decimal
/// nanosecond remainder, by integer math only — `f64` never touches a
/// timestamp, keeping exports byte-deterministic.
fn micros(j: &mut JsonWriter<'_>, key: &str, at: Nanos) {
    let ns = at.as_nanos();
    j.key(key).raw(|out| {
        let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
    });
}

/// Writes one trace entry, `members` filling in the object, and returns
/// what the writer said. `line` holds the entry before (empty before the
/// first), so it is what tells whether a `,\n` separates the two.
fn entry(
    w: &mut dyn Write,
    line: &mut String,
    members: impl FnOnce(&mut JsonWriter<'_>),
) -> io::Result<()> {
    let separator = if line.is_empty() { "" } else { ",\n" };
    line.clear();
    line.push_str(separator);
    let mut j = JsonWriter::new(line);
    j.begin_object();
    members(&mut j);
    j.end_object();
    w.write_all(line.as_bytes())
}

/// Writes a Chrome trace-event / Perfetto timeline for the given traced
/// runs. Open the file at <https://ui.perfetto.dev> or
/// `chrome://tracing`.
///
/// # Errors
///
/// Propagates writer failures.
pub fn export_timeline(runs: &[RunEvents], w: &mut dyn Write) -> io::Result<()> {
    w.write_all(b"{\"traceEvents\":[\n")?;
    let mut line = String::with_capacity(160);
    for (idx, run) in runs.iter().enumerate() {
        let pid = idx as u64 + 1;
        let process = format!("{} @ {} Mbps rep {}", run.label, run.key.rate_mbps, run.rep);
        entry(w, &mut line, |j| {
            j.key("name").string("process_name").key("ph").string("M");
            j.key("pid").u64(pid);
            j.key("args").begin_object().key("name").string(&process);
            j.end_object();
        })?;
        for (tid, name) in [
            (TID_SWITCH, "switch"),
            (TID_BUS, "bus"),
            (TID_CHANNEL, "channel"),
            (TID_CONTROLLER, "controller"),
            (TID_LINKS, "links"),
        ] {
            entry(w, &mut line, |j| {
                j.key("name").string("thread_name").key("ph").string("M");
                j.key("pid").u64(pid).key("tid").u64(tid.into());
                j.key("args").begin_object().key("name").string(name);
                j.end_object();
            })?;
        }
        write_run_timeline(w, &mut line, pid, &run.events)?;
    }
    w.write_all(b"\n],\"displayTimeUnit\":\"ms\"}\n")
}

/// [`export_timeline`] for a single unlabelled run (e.g. `sdnlab run
/// --timeline`).
///
/// # Errors
///
/// Propagates writer failures.
pub fn export_run_timeline(
    label: &str,
    rate_mbps: u64,
    events: Vec<Event>,
    w: &mut dyn Write,
) -> io::Result<()> {
    let runs = [RunEvents {
        key: crate::CellKey::new(crate::BufferMode::NoBuffer, rate_mbps),
        label: label.to_string(),
        rep: 0,
        events,
    }];
    // The key's mode is only used for its label, which we override above —
    // export_timeline never reads `key.mode` directly.
    export_timeline(&runs, w)
}

/// How an event's entry sits on its track.
#[derive(Clone, Copy)]
enum Shape {
    /// A span (`"ph":"X"`) from the event's instant to this one.
    Span(Nanos),
    /// An instant (`"ph":"i"`) on the event's own track.
    Instant,
    /// An instant across the whole process: the crash plane's.
    Global,
}

/// Where an event goes on the timeline: its entry's name (the three parts
/// concatenated), its track and its shape. `None` for the controller's
/// replies, which show as its `handle xid` spans.
fn place(kind: &EventKind) -> Option<([&'static str; 3], u32, Shape)> {
    use Shape::{Global, Instant, Span};
    Some(match *kind {
        EventKind::LinkTx { link, arrive, .. } => ([link, "", ""], TID_LINKS, Span(arrive)),
        EventKind::LinkDrop { link, .. } => (["drop ", link, ""], TID_LINKS, Instant),
        EventKind::BusTransfer { bus, done, .. } => ([bus, "", ""], TID_BUS, Span(done)),
        EventKind::TableMiss { .. } => (["table_miss", "", ""], TID_SWITCH, Instant),
        EventKind::PacketInSent { .. } => (["packet_in", "", ""], TID_SWITCH, Instant),
        EventKind::FlowRuleInstalled { effective_at, .. } => {
            (["install_rule", "", ""], TID_SWITCH, Span(effective_at))
        }
        EventKind::FlowRuleEvicted { .. } => (["evict_rule", "", ""], TID_SWITCH, Instant),
        EventKind::FlowRuleExpired { .. } => (["expire_rule", "", ""], TID_SWITCH, Instant),
        EventKind::BufferEnqueue { .. } => (["buffer_enqueue", "", ""], TID_SWITCH, Instant),
        EventKind::BufferDrain { .. } => (["buffer_drain", "", ""], TID_SWITCH, Instant),
        EventKind::BufferRerequest { .. } => (["buffer_rerequest", "", ""], TID_SWITCH, Instant),
        EventKind::BufferReconcile { .. } => (["buffer_reconcile", "", ""], TID_SWITCH, Instant),
        EventKind::BufferFallback { .. } => (["buffer_fallback", "", ""], TID_SWITCH, Instant),
        EventKind::BufferExpire { .. } => (["buffer_expire", "", ""], TID_SWITCH, Instant),
        EventKind::BufferGiveUp { .. } => (["buffer_give_up", "", ""], TID_SWITCH, Instant),
        EventKind::DegradedEnter { .. } => (["degraded_enter", "", ""], TID_SWITCH, Instant),
        EventKind::DegradedExit { .. } => (["degraded_exit", "", ""], TID_SWITCH, Instant),
        EventKind::AdmissionShed { .. } => (["admission_shed", "", ""], TID_CONTROLLER, Instant),
        EventKind::PacketInReceived { .. } => {
            (["packet_in_received", "", ""], TID_CONTROLLER, Instant)
        }
        EventKind::Decision { action, .. } => (["decide: ", action, ""], TID_CONTROLLER, Instant),
        EventKind::FlowModSent { .. } | EventKind::PacketOutSent { .. } => return None,
        EventKind::CtrlMsg { label, arrive, .. } => ([label, "", ""], TID_CHANNEL, Span(arrive)),
        EventKind::CtrlDrop { label, .. } => (["drop ", label, ""], TID_CHANNEL, Instant),
        EventKind::CtrlCrash { role, .. } => (["ctrl_crash (", role, ")"], TID_CONTROLLER, Global),
        EventKind::CtrlRestart { role, .. } => {
            (["ctrl_restart (", role, ")"], TID_CONTROLLER, Global)
        }
        EventKind::FailoverTakeover { .. } => {
            (["failover_takeover", "", ""], TID_CONTROLLER, Global)
        }
        EventKind::EpochBump { .. } => (["epoch_bump", "", ""], TID_SWITCH, Instant),
        EventKind::StaleEpochReject { .. } => (["stale_epoch_reject", "", ""], TID_SWITCH, Instant),
    })
}

fn write_run_timeline(
    w: &mut dyn Write,
    line: &mut String,
    pid: u64,
    events: &[Event],
) -> io::Result<()> {
    // A flow-setup arrow's step (`s` start, `t` step, `f` finish) on a track.
    let arrow = |w: &mut dyn Write, line: &mut String, ph, xid, tid: u32, at| {
        entry(w, line, |j| {
            j.key("name")
                .string("flow-setup")
                .key("cat")
                .string("flow-setup");
            j.key("ph").string(ph);
            if ph == "f" {
                j.key("bp").string("e");
            }
            j.key("id").u64(flow_id(pid, xid));
            j.key("pid").u64(pid).key("tid").u64(tid.into());
            micros(j, "ts", at);
        })
    };
    // Controller handling spans: packet_in ingested -> last reply emitted,
    // per xid, kept in first-seen order for determinism.
    let mut handling: Vec<(u32, Nanos, Nanos)> = Vec::new();
    let find = |v: &mut Vec<(u32, Nanos, Nanos)>, xid: u32| -> Option<usize> {
        v.iter().position(|&(x, _, _)| x == xid)
    };

    for event in events {
        let at = event.at;
        if let Some((name, tid, shape)) = place(&event.kind) {
            entry(w, line, |j| {
                j.key("name").string(&name.concat());
                match shape {
                    Shape::Span(_) => j.key("ph").string("X"),
                    Shape::Instant => j.key("ph").string("i").key("s").string("t"),
                    Shape::Global => j.key("ph").string("i").key("s").string("g"),
                };
                j.key("pid").u64(pid).key("tid").u64(tid.into());
                micros(j, "ts", at);
                if let Shape::Span(end) = shape {
                    micros(j, "dur", end.saturating_sub(at));
                }
                j.key("args")
                    .begin_object()
                    .raw(|out| event.write_json_fields(out))
                    .end_object();
            })?;
        }
        match event.kind {
            EventKind::PacketInSent { xid, .. } => arrow(w, line, "s", xid, TID_SWITCH, at)?,
            EventKind::BufferDrain { xid, .. } => arrow(w, line, "f", xid, TID_SWITCH, at)?,
            EventKind::CtrlMsg {
                xid,
                label: "packet_in" | "flow_mod" | "packet_out",
                ..
            } => arrow(w, line, "t", xid, TID_CHANNEL, at)?,
            EventKind::PacketInReceived { xid, .. } => {
                arrow(w, line, "t", xid, TID_CONTROLLER, at)?;
                match find(&mut handling, xid) {
                    Some(i) => handling[i] = (xid, at, at),
                    None => handling.push((xid, at, at)),
                }
            }
            EventKind::Decision { xid, .. }
            | EventKind::FlowModSent { xid }
            | EventKind::PacketOutSent { xid, .. } => {
                if let Some(i) = find(&mut handling, xid) {
                    handling[i].2 = handling[i].2.max(at);
                }
            }
            _ => {}
        }
    }

    // The controller's per-xid handling spans, in first-ingest order.
    for (xid, start, end) in handling {
        entry(w, line, |j| {
            j.key("name").string(&format!("handle xid {xid}"));
            j.key("ph").string("X");
            j.key("pid").u64(pid).key("tid").u64(TID_CONTROLLER.into());
            micros(j, "ts", start);
            micros(j, "dur", end.saturating_sub(start));
            j.key("args").begin_object().key("xid").u64(xid.into());
            j.end_object();
        })?;
    }
    Ok(())
}

/// One sampling window of [`sample_series`]: instantaneous gauges at the
/// window's end plus per-window control-channel throughput.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Window end (exclusive).
    pub t: Nanos,
    /// Buffer occupancy (packets) as of the last buffer event seen.
    pub occupancy: usize,
    /// Flow-table size as of the last table event seen.
    pub table_size: usize,
    /// Switch→controller load within the window, Mbps.
    pub to_controller_mbps: f64,
    /// Controller→switch load within the window, Mbps.
    pub to_switch_mbps: f64,
}

/// Buckets an event stream into windows of `every`, tracking buffer
/// occupancy, flow-table size, and per-direction control-channel
/// throughput. Gauges carry forward across empty windows; the final
/// partial window is emitted too.
///
/// # Panics
///
/// Panics when `every` is zero.
pub fn sample_series(events: &[Event], every: Nanos) -> Vec<Sample> {
    assert!(every > Nanos::ZERO, "sampling interval must be positive");
    // Emission order is call order, and a component may emit with a
    // timestamp in its near future (e.g. a rule's effective instant), so
    // order by time first — stably, to keep ties deterministic.
    let mut ordered: Vec<&Event> = events.iter().collect();
    ordered.sort_by_key(|e| e.at);
    let events = ordered;
    let mut samples = Vec::new();
    let mut occupancy = 0usize;
    let mut table_size = 0usize;
    let mut bytes_to_controller = 0u64;
    let mut bytes_to_switch = 0u64;
    let mut window_end = every;
    let window_secs = every.as_secs_f64();
    let mbps = |bytes: u64| bytes as f64 * 8.0 / window_secs / 1e6;

    for event in &events {
        while event.at >= window_end {
            samples.push(Sample {
                t: window_end,
                occupancy,
                table_size,
                to_controller_mbps: mbps(bytes_to_controller),
                to_switch_mbps: mbps(bytes_to_switch),
            });
            bytes_to_controller = 0;
            bytes_to_switch = 0;
            window_end += every;
        }
        match event.kind {
            EventKind::BufferEnqueue { occupancy: o, .. }
            | EventKind::BufferDrain { occupancy: o, .. }
            | EventKind::BufferRerequest { occupancy: o, .. }
            | EventKind::BufferFallback { occupancy: o }
            | EventKind::BufferExpire { occupancy: o, .. }
            | EventKind::BufferGiveUp { occupancy: o, .. } => occupancy = o,
            EventKind::FlowRuleInstalled { table_size: t, .. }
            | EventKind::FlowRuleEvicted { table_size: t }
            | EventKind::FlowRuleExpired { table_size: t } => table_size = t,
            EventKind::CtrlMsg { dir, bytes, .. } => match dir {
                ChannelDir::ToController => bytes_to_controller += bytes as u64,
                ChannelDir::ToSwitch => bytes_to_switch += bytes as u64,
            },
            _ => {}
        }
    }
    if !events.is_empty() {
        samples.push(Sample {
            t: window_end,
            occupancy,
            table_size,
            to_controller_mbps: mbps(bytes_to_controller),
            to_switch_mbps: mbps(bytes_to_switch),
        });
    }
    samples
}

/// Writes samples as TSV (`results/*.tsv` style): header then one row per
/// window. Times are milliseconds with microsecond precision, rendered by
/// integer math for byte determinism.
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_series_tsv(samples: &[Sample], w: &mut dyn Write) -> io::Result<()> {
    writeln!(
        w,
        "t_ms\tbuffer_occupancy\tflow_table_size\tto_controller_mbps\tto_switch_mbps"
    )?;
    for s in samples {
        let ns = s.t.as_nanos();
        writeln!(
            w,
            "{}.{:03}\t{}\t{}\t{:.3}\t{:.3}",
            ns / 1_000_000,
            (ns / 1000) % 1000,
            s.occupancy,
            s.table_size,
            s.to_controller_mbps,
            s.to_switch_mbps
        )?;
    }
    Ok(())
}

/// Renders one series of [`sample_series`] windows, which are in time
/// order, as a unicode sparkline of `width` bars (at least one). A bar is
/// the mean `value` of the windows in its equal-width time bucket, scaled
/// to the highest bar; an empty bucket repeats the bar before it (0 for
/// the first). No samples render as the empty string, and a series that
/// never rises above zero as floor bars.
///
/// ```
/// use sdnbuf_core::observe::{sample_series, sparkline};
/// use sdnbuf_core::{BufferMode, Experiment, ExperimentConfig, WorkloadKind};
/// use sdnbuf_sim::Nanos;
///
/// let (_, events) = Experiment::new(ExperimentConfig {
///     buffer: BufferMode::PacketGranularity { capacity: 16 },
///     workload: WorkloadKind::single_packet_flows(50),
///     ..ExperimentConfig::default()
/// })
/// .run_traced();
/// let samples = sample_series(&events, Nanos::from_millis(1));
/// let bars = sparkline(&samples, |s| s.occupancy as f64, 40);
/// assert_eq!(bars.chars().count(), 40);
/// assert!(bars.contains('█'), "the buffer fills at some point: {bars}");
/// ```
pub fn sparkline(samples: &[Sample], value: fn(&Sample) -> f64, width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let (Some(first), Some(last)) = (samples.first(), samples.last()) else {
        return String::new();
    };
    let n = width.max(1);
    let bucket = (last.t.saturating_sub(first.t) / n as u64).max(Nanos::from_nanos(1));
    let mut sums = vec![(0.0f64, 0usize); n];
    for s in samples {
        let i = (s.t.saturating_sub(first.t).as_nanos() / bucket.as_nanos()) as usize;
        let (sum, count) = &mut sums[i.min(n - 1)];
        *sum += value(s);
        *count += 1;
    }
    let mut mean = 0.0;
    let means: Vec<f64> = sums
        .iter()
        .map(|&(sum, count)| {
            if count > 0 {
                mean = sum / count as f64;
            }
            mean
        })
        .collect();
    let max = means.iter().copied().fold(0.0f64, f64::max);
    if max <= 0.0 {
        return means.iter().map(|_| BARS[0]).collect();
    }
    means
        .iter()
        .map(|&v| BARS[((v / max) * 7.0).round().clamp(0.0, 7.0) as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BufferMode, Experiment, ExperimentConfig, WorkloadKind};
    use sdnbuf_sim::BitRate;

    fn traced_run() -> Vec<Event> {
        let (_result, events) = Experiment::new(ExperimentConfig {
            buffer: BufferMode::PacketGranularity { capacity: 16 },
            workload: WorkloadKind::single_packet_flows(10),
            sending_rate: BitRate::from_mbps(20),
            seed: 3,
            ..ExperimentConfig::default()
        })
        .run_traced();
        events
    }

    #[test]
    fn traced_run_produces_events_of_every_layer() {
        let events = traced_run();
        assert!(!events.is_empty());
        let has = |pred: fn(&EventKind) -> bool| events.iter().any(|e| pred(&e.kind));
        assert!(has(|k| matches!(k, EventKind::LinkTx { .. })), "link layer");
        assert!(has(|k| matches!(k, EventKind::TableMiss { .. })), "switch");
        assert!(
            has(|k| matches!(k, EventKind::BufferEnqueue { .. })),
            "buffer"
        );
        assert!(
            has(|k| matches!(k, EventKind::PacketInReceived { .. })),
            "controller"
        );
        assert!(has(|k| matches!(k, EventKind::CtrlMsg { .. })), "channel");
        assert!(has(|k| matches!(k, EventKind::BufferDrain { .. })), "drain");
    }

    #[test]
    fn jsonl_export_is_line_per_event_with_prefix() {
        let events = traced_run();
        let mut buf = Vec::new();
        let n = write_events_jsonl(&events, &run_prefix("buffer-16", 20, 0), &mut buf).unwrap();
        assert_eq!(n, events.len() as u64);
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), events.len());
        for line in &lines {
            assert!(
                line.starts_with(
                    "{\"run\":{\"mode\":\"buffer-16\",\"rate_mbps\":20,\"rep\":0},\"at\":"
                ),
                "{line}"
            );
            assert!(line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn digest_is_fnv1a_of_the_jsonl_export() {
        let events = traced_run();
        let mut bytes = Vec::new();
        write_events_jsonl(&events, "", &mut bytes).unwrap();
        let h = fnv1a(FNV_OFFSET, &bytes);
        assert_eq!(events_digest(&events), h);
        assert_ne!(events_digest(&events[1..]), h);
    }

    /// Refuses its third write and would take every later one.
    struct Hiccup {
        out: Vec<u8>,
        writes: usize,
    }

    impl Write for Hiccup {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            if self.writes == 3 {
                return Err(io::Error::new(io::ErrorKind::StorageFull, "quota"));
            }
            self.out.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failed_write_ends_the_export_with_the_writers_error() {
        let events = traced_run();
        let mut complete = Vec::new();
        write_events_jsonl(&events, "", &mut complete).unwrap();
        let mut w = Hiccup {
            out: Vec::new(),
            writes: 0,
        };
        let err = write_events_jsonl(&events, "", &mut w).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(err.to_string(), "quota");
        // Two whole lines, then nothing: a prefix of the full export.
        assert_eq!(w.writes, 3);
        assert_eq!(w.out.iter().filter(|&&b| b == b'\n').count(), 2);
        assert!(complete.starts_with(&w.out));

        // The sweep exporter stops at the failing run with the same error.
        let run = |rep| RunEvents {
            key: crate::CellKey::new(crate::BufferMode::NoBuffer, 20),
            label: "no-buffer".into(),
            rep,
            events: events.clone(),
        };
        let mut w = Hiccup {
            out: Vec::new(),
            writes: 0,
        };
        let err = export_sweep_jsonl(&[run(0), run(1)], &mut w).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(w.writes, 3);
    }

    #[test]
    fn timeline_contains_linked_flow_spans() {
        let events = traced_run();
        let mut buf = Vec::new();
        export_run_timeline("buffer-16", 20, events, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.contains("\"ph\":\"s\""), "flow start");
        assert!(text.contains("\"ph\":\"t\""), "flow step");
        assert!(text.contains("\"ph\":\"f\""), "flow finish");
        assert!(text.contains("\"name\":\"install_rule\""));
        assert!(text.contains("\"name\":\"handle xid"));
        assert!(text.contains("\"name\":\"channel\""));
    }

    /// A plain traced run, a crash scenario with a standby, and a recovery
    /// matrix cell whose stall outlasts a one-retry budget: between them
    /// the crash, failover, degraded and give-up kinds.
    fn streams_of_every_plane() -> Vec<Vec<Event>> {
        use crate::chaos::{execute, recovery_matrix, Sabotage};
        use crate::RunSpec;
        use sdnbuf_sim::Window;
        use sdnbuf_switchbuf::RetryPolicy;
        let flow = BufferMode::FlowGranularity {
            capacity: 256,
            timeout: Nanos::from_millis(20),
        };
        let crash = (0..)
            .map(|seed| RunSpec::generate_with_crashes(seed, flow))
            .find(|s| s.standby.is_some())
            .expect("some seed samples a standby");
        let (_, mut stalled) = recovery_matrix()
            .into_iter()
            .find(|(label, _)| label == "flow/backoff")
            .expect("the matrix has the cell");
        stalled.plan.stalls = vec![Window::new(Nanos::from_millis(45), Nanos::from_millis(160))];
        stalled.recovery.retry = RetryPolicy::backoff(Nanos::from_millis(40), 1);
        let mut streams = vec![traced_run()];
        for scenario in [crash, stalled] {
            streams.push(execute(&scenario, Sabotage::none()).1);
        }
        streams
    }

    #[test]
    fn every_timeline_entry_of_an_event_carries_its_jsonl_record() {
        let streams = streams_of_every_plane();
        for kind in [
            "ctrl_crash",
            "failover_takeover",
            "degraded_enter",
            "degraded_exit",
            "buffer_give_up",
        ] {
            let tag = format!("\"kind\":\"{kind}\"");
            assert!(
                streams.iter().flatten().any(|e| e.to_json().contains(&tag)),
                "no stream reaches {kind}"
            );
        }
        for events in streams {
            let mut buf = Vec::new();
            export_run_timeline("run", 20, events.clone(), &mut buf).unwrap();
            let text = String::from_utf8(buf).unwrap();
            crate::flightrec::tests::assert_well_nested(&text);
            // One entry per line; `args` is an entry's last member. Neither
            // the metadata nor the controller's handling spans are events.
            let args: Vec<&str> = text
                .lines()
                .filter(|l| {
                    !l.contains("\"ph\":\"M\"") && !l.starts_with("{\"name\":\"handle xid ")
                })
                .filter_map(|l| l.trim_end_matches(',').strip_suffix('}'))
                .filter_map(|l| l.split_once(",\"args\":").map(|(_, args)| args))
                .collect();
            // Every event is placed but the controller's two replies.
            let records: Vec<String> = events
                .iter()
                .filter(|e| {
                    !matches!(
                        e.kind,
                        EventKind::FlowModSent { .. } | EventKind::PacketOutSent { .. }
                    )
                })
                .map(Event::to_json)
                .collect();
            assert_eq!(args.len(), records.len());
            for (k, (args, record)) in args.iter().zip(&records).enumerate() {
                assert_eq!(args, record, "entry {k} with args");
            }
        }
    }

    #[test]
    fn sampler_windows_and_carries_gauges() {
        let events = [
            Event {
                at: Nanos::from_millis(1),
                kind: EventKind::BufferEnqueue {
                    buffer_id: 1,
                    occupancy: 3,
                    fresh: true,
                },
            },
            Event {
                at: Nanos::from_millis(1),
                kind: EventKind::CtrlMsg {
                    dir: ChannelDir::ToController,
                    xid: 1,
                    bytes: 125_000,
                    label: "packet_in",
                    arrive: Nanos::from_millis(2),
                },
            },
            Event {
                at: Nanos::from_millis(25),
                kind: EventKind::FlowRuleInstalled {
                    xid: 1,
                    effective_at: Nanos::from_millis(26),
                    table_size: 7,
                },
            },
        ];
        let samples = sample_series(&events, Nanos::from_millis(10));
        assert_eq!(samples.len(), 3);
        // Window 1: the enqueue + 125 kB in 10 ms = 100 Mbps.
        assert_eq!(samples[0].occupancy, 3);
        assert!((samples[0].to_controller_mbps - 100.0).abs() < 1e-9);
        // Window 2: gauges carry, no new bytes.
        assert_eq!(samples[1].occupancy, 3);
        assert_eq!(samples[1].to_controller_mbps, 0.0);
        assert_eq!(samples[1].table_size, 0);
        // Window 3: the rule install shows up.
        assert_eq!(samples[2].table_size, 7);

        let mut buf = Vec::new();
        write_series_tsv(&samples, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("t_ms\tbuffer_occupancy"), "{text}");
        assert!(text.contains("10.000\t3\t0\t100.000\t0.000"), "{text}");
    }

    fn window(t: Nanos, occupancy: usize, to_controller_mbps: f64) -> Sample {
        Sample {
            t,
            occupancy,
            table_size: 0,
            to_controller_mbps,
            to_switch_mbps: 0.0,
        }
    }

    fn occupancy(s: &Sample) -> f64 {
        s.occupancy as f64
    }

    fn to_controller(s: &Sample) -> f64 {
        s.to_controller_mbps
    }

    /// `results/report.md` pins four sparklines, so the bucket arithmetic
    /// is pinned here exactly: an even split, empty buckets with a clamped
    /// last window, and a zero-width span.
    #[test]
    fn sparkline_draws_what_the_bucketed_series_drew() {
        // 5 401 windows of 1 ms, as in `results/report.md`: a 5 400 ms
        // span makes 60 buckets of exactly 90 ms.
        let report: Vec<Sample> = (0..5401u64)
            .map(|i| {
                let occ = (i / 20).min((5400 - i) / 20) + i % 3;
                let mbps = if i < 300 {
                    (i % 50) as f64 * 2.5
                } else {
                    (i % 7) as f64 / 8.0
                };
                window(Nanos::from_millis(i + 1), occ as usize, mbps)
            })
            .collect();
        assert_eq!(
            sparkline(&report, occupancy, 60),
            "▁▁▂▂▂▂▃▃▃▃▄▄▄▄▄▅▅▅▅▆▆▆▆▇▇▇▇██████▇▇▇▇▆▆▆▆▅▅▅▅▄▄▄▄▄▃▃▃▃▂▂▂▂▁▁"
        );
        assert_eq!(
            sparkline(&report, to_controller, 60),
            "▇██▄▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁"
        );
        // 7 windows of 1 000 003 ns: 100 000-ns buckets, so most are empty
        // and repeat the bar before them, and the last window lands past
        // bucket 59 and is clamped into it.
        let sparse: Vec<Sample> = [3, 0, 5, 5, 1, 8, 2]
            .into_iter()
            .zip(1..)
            .map(|(occ, k)| window(Nanos::from_nanos(1_000_003 * k), occ, 0.0))
            .collect();
        assert_eq!(
            sparkline(&sparse, occupancy, 60),
            "▄▄▄▄▄▄▄▄▄▄▁▁▁▁▁▁▁▁▁▁▅▅▅▅▅▅▅▅▅▅▅▅▅▅▅▅▅▅▅▅▂▂▂▂▂▂▂▂▂▂█████████▃"
        );
        assert_eq!(
            sparkline(&sparse, occupancy, 0),
            "█",
            "width 0 draws one bar"
        );
        // One window: a zero-width span, every bucket the one value.
        let one = [window(Nanos::from_millis(1), 4, 0.0)];
        assert_eq!(sparkline(&one, occupancy, 60), "█".repeat(60));
    }

    #[test]
    fn sparkline_all_zero_is_floor_bars() {
        let zeros = [
            window(Nanos::from_millis(1), 0, 0.0),
            window(Nanos::from_millis(2), 0, 0.0),
        ];
        assert_eq!(sparkline(&zeros, occupancy, 4), "▁▁▁▁");
    }

    #[test]
    fn sparkline_of_no_samples_is_empty() {
        assert_eq!(sparkline(&[], occupancy, 60), "");
    }

    #[test]
    fn empty_stream_yields_no_samples() {
        assert!(sample_series(&[], Nanos::from_millis(1)).is_empty());
    }
}
