//! Flight recorder: a replayable crash-dump artifact for post-mortems.
//!
//! When something goes wrong — a chaos invariant fires, the switch enters
//! degraded mode, or the operator passes `--dump-on-exit` — the flight
//! recorder captures everything a post-mortem needs into one JSON file
//! under `results/flightrec/`:
//!
//! * the **replay recipe**: the run's [`RunSpec`], whole — every dump,
//!   whatever wrote it, replays with `sdnlab chaos --replay '<spec>'` to the
//!   same digest (and violations), byte-for-byte: the runs are
//!   deterministic,
//! * the **last N events** leading up to the end of the run (the stream's
//!   tail),
//! * the **open spans** — flow setups still in flight, which is usually
//!   where the bug is,
//! * the **latency anatomy** ([`crate::spans::LatencyReport`]) and a
//!   metric snapshot of the run.
//!
//! Dumps are pure functions of already-recorded data: capturing one never
//! perturbs the run it describes.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::invariants::Violation;
use crate::observe;
use crate::result::RunResult;
use crate::spans::{self, LatencyReport, SpanOutcome};
use crate::RunSpec;
use sdnbuf_sim::{Event, JsonWriter};

/// Default number of trailing events a dump retains.
pub const DEFAULT_TAIL: usize = 256;

/// Why a dump was captured. Rendered into the artifact and its filename.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DumpReason {
    /// A chaos invariant fired.
    ChaosViolation,
    /// The switch entered degraded mode during the run.
    DegradedEnter,
    /// A controller crashed during the run (the crash/failover plane's
    /// automatic post-mortem artifact).
    CtrlCrash,
    /// The operator asked for a dump at the end of the run.
    Exit,
}

impl DumpReason {
    /// Stable snake_case label used in the JSON and the filename.
    pub fn label(self) -> &'static str {
        match self {
            DumpReason::ChaosViolation => "chaos_violation",
            DumpReason::DegradedEnter => "degraded_enter",
            DumpReason::CtrlCrash => "ctrl_crash",
            DumpReason::Exit => "exit",
        }
    }
}

/// One captured flight-recorder artifact, ready to serialize.
#[derive(Clone, Debug)]
pub struct FlightDump {
    /// Why the dump was taken.
    pub reason: DumpReason,
    /// Human-readable run identity: the mechanism's label.
    pub label: String,
    /// The run's seed.
    pub seed: u64,
    /// The run's spec, which `sdnlab chaos --replay` accepts.
    pub spec: String,
    /// Violations that triggered the dump.
    pub violations: Vec<Violation>,
    /// FNV digest of the full event stream (the replay identity).
    pub digest: u64,
    /// Events in the full stream (before tail truncation).
    pub events_total: u64,
    /// The stream's trailing events, oldest first.
    pub tail: Vec<Event>,
    /// Spans still open when the stream ended.
    pub open_spans: Vec<spans::FlowSetupSpan>,
    /// The run's latency anatomy.
    pub latency: LatencyReport,
    /// Metric snapshot, when a [`RunResult`] was available.
    pub result: Option<RunResult>,
}

impl FlightDump {
    /// Captures a dump of the run `spec` describes from its recorded
    /// events: keeps the last [`DEFAULT_TAIL`] events, extracts open spans
    /// and the latency report, and computes the stream digest.
    pub fn capture(
        reason: DumpReason,
        spec: &RunSpec,
        events: &[Event],
        result: Option<&RunResult>,
    ) -> FlightDump {
        let tail_start = events.len().saturating_sub(DEFAULT_TAIL);
        let open_spans: Vec<spans::FlowSetupSpan> = spans::build_spans(events)
            .into_iter()
            .filter(|s| s.outcome == SpanOutcome::Open)
            .collect();
        FlightDump {
            reason,
            label: spec.mech.label(),
            seed: spec.seed,
            spec: spec.to_string(),
            violations: Vec::new(),
            digest: observe::events_digest(events),
            events_total: events.len() as u64,
            tail: events[tail_start..].to_vec(),
            open_spans,
            latency: LatencyReport::from_events(events),
            result: result.cloned(),
        }
    }

    /// Attaches the violations that triggered the dump.
    pub fn with_violations(mut self, violations: Vec<Violation>) -> FlightDump {
        self.violations = violations;
        self
    }

    /// Serializes the dump as one JSON document with a stable field
    /// order.
    pub fn write_json(&self, w: &mut dyn Write) -> io::Result<()> {
        let mut out = String::with_capacity(16 * 1024);
        let mut j = JsonWriter::new(&mut out);
        j.begin_object();
        j.key("schema").string("flightrec/v1");
        j.key("reason").string(self.reason.label());
        j.key("label").string(&self.label);
        j.key("seed").u64(self.seed);
        j.key("spec").string(&self.spec);
        j.key("violations").begin_array();
        for v in &self.violations {
            j.begin_object();
            j.key("invariant").string(v.invariant);
            j.key("detail").string(&v.detail);
            j.end_object();
        }
        j.end_array();
        j.key("digest").string(&format!("{:016x}", self.digest));
        j.key("events_total").u64(self.events_total);
        j.key("tail_len").u64(self.tail.len() as u64);
        j.key("events").begin_array();
        for ev in &self.tail {
            j.begin_object()
                .raw(|out| ev.write_json_fields(out))
                .end_object();
        }
        j.end_array();
        j.key("open_spans").begin_array();
        for span in &self.open_spans {
            push_span(&mut j, span);
        }
        j.end_array();
        j.key("latency").raw(|out| self.latency.write_json(out));
        j.key("result");
        match &self.result {
            Some(r) => push_result(&mut j, r),
            None => {
                j.null();
            }
        }
        j.end_object();
        out.push('\n');
        w.write_all(out.as_bytes())
    }

    /// Writes the dump to `<dir>/<stem>.json`, creating the directory.
    /// Returns the path written.
    pub fn write_to_dir(&self, dir: &Path, stem: &str) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{stem}.json"));
        let mut file = fs::File::create(&path)?;
        self.write_json(&mut file)?;
        Ok(path)
    }

    /// The conventional artifact directory, `results/flightrec/`.
    pub fn default_dir() -> PathBuf {
        PathBuf::from("results").join("flightrec")
    }

    /// The conventional filename stem: `<reason>-<label>-seed<seed>`.
    pub fn stem(&self) -> String {
        format!("{}-{}-seed{}", self.reason.label(), self.label, self.seed)
    }
}

/// Appends one open span as a compact JSON object.
fn push_span(j: &mut JsonWriter<'_>, span: &spans::FlowSetupSpan) {
    j.begin_object();
    match span.buffer_id {
        Some(id) => j.key("buffer_id").u64(id.into()),
        None => j.key("buffer_id").null(),
    };
    j.key("start").u64(span.start().as_nanos());
    j.key("attempts").u64(span.attempts.len() as u64);
    j.key("rerequests").u64(span.rerequests.into());
    j.key("state").string(span.outcome.label());
    match span.attempts.first() {
        Some(first) => j.key("first_xid").u64(first.xid.into()),
        None => j.key("first_xid").null(),
    };
    j.end_object();
}

/// Appends the metric snapshot: the counters a post-mortem reads first.
fn push_result(j: &mut JsonWriter<'_>, r: &RunResult) {
    j.begin_object();
    j.key("label").string(&r.label);
    for (name, count) in [
        ("packets_sent", r.packets_sent),
        ("packets_delivered", r.packets_delivered),
        ("packets_dropped", r.packets_dropped),
        ("ctrl_drops", r.ctrl_drops),
        ("flows_completed", r.flows_completed as u64),
        ("flows_total", r.flows_total as u64),
        ("rerequests", r.rerequests),
        ("buffer_expired", r.buffer_expired),
        ("buffer_giveups", r.buffer_giveups),
        ("stale_releases", r.stale_releases),
        ("admission_sheds", r.admission_sheds),
        ("degraded_entries", r.degraded_entries),
        ("degraded_exits", r.degraded_exits),
        ("ctrl_crashes", r.ctrl_crashes),
        ("failover_takeovers", r.failover_takeovers),
        ("epoch_bumps", r.epoch_bumps),
        ("stale_epoch_rejects", r.stale_epoch_rejects),
        ("reconcile_rerequests", r.reconcile_rerequests),
    ] {
        j.key(name).u64(count);
    }
    j.key("flow_setup_delay_ms_mean")
        .fixed(r.flow_setup_delay.mean, 6);
    j.key("controller_delay_ms_mean")
        .fixed(r.controller_delay.mean, 6);
    j.end_object();
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sdnbuf_sim::{EventKind, Nanos};

    fn sample_events(n: u64) -> Vec<Event> {
        (0..n)
            .map(|i| Event {
                at: Nanos::from_micros(i),
                kind: EventKind::TableMiss {
                    in_port: 1,
                    bytes: 100,
                },
            })
            .collect()
    }

    #[test]
    fn capture_keeps_the_tail_and_digest() {
        let events = sample_events(1_000);
        let dump = FlightDump::capture(DumpReason::Exit, &RunSpec::default(), &events, None);
        assert_eq!(dump.events_total, 1_000);
        assert_eq!(dump.tail.len(), DEFAULT_TAIL);
        assert_eq!(
            dump.tail.first().unwrap().at,
            Nanos::from_micros(1_000 - DEFAULT_TAIL as u64)
        );
        assert_eq!(dump.digest, observe::events_digest(&events));
    }

    #[test]
    fn json_is_schema_stable_and_parseable_shape() {
        let events = sample_events(10);
        let spec = RunSpec {
            seed: 7,
            ..RunSpec::default()
        };
        let dump = FlightDump::capture(
            DumpReason::ChaosViolation,
            &spec,
            &events,
            Some(&RunResult::default()),
        )
        .with_violations(vec![Violation {
            invariant: "occupancy-bound",
            detail: "occ 300 > 256".into(),
        }]);
        let mut buf = Vec::new();
        dump.write_json(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("{\"schema\":\"flightrec/v1\",\"reason\":\"chaos_violation\""));
        assert!(text.contains(
            r#""label":"buffer-256","seed":7,"spec":"mech=packet:256,wl=single:1000,rate=50,seed=7""#
        ));
        assert!(text.contains("\"invariant\":\"occupancy-bound\""));
        assert!(text.contains("\"events_total\":10"));
        assert!(text.contains("\"latency\":{\"schema\":\"latency/v1\""));
        assert!(text.ends_with("}\n"));
        // Balanced braces — cheap well-formedness check without a parser.
        let opens = text.matches('{').count();
        let closes = text.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn stem_is_filesystem_friendly() {
        let spec = RunSpec {
            mech: crate::BufferMode::FlowGranularity {
                capacity: 256,
                timeout: Nanos::from_millis(20),
            },
            seed: 3,
            ..RunSpec::default()
        };
        let dump = FlightDump::capture(DumpReason::DegradedEnter, &spec, &[], None);
        assert_eq!(dump.stem(), "degraded_enter-flow-buffer-256-seed3");
    }

    /// Walks `text` as JSON tokens far enough to tell that every bracket
    /// closes the one it opened and every string ends — brackets and
    /// quotes inside strings must not count.
    pub(crate) fn assert_well_nested(text: &str) {
        let mut open = Vec::new();
        let mut chars = text.chars();
        while let Some(c) = chars.next() {
            match c {
                '{' | '[' => open.push(c),
                '}' => assert_eq!(open.pop(), Some('{'), "{text}"),
                ']' => assert_eq!(open.pop(), Some('['), "{text}"),
                '"' => loop {
                    match chars.next().expect("unterminated string") {
                        '"' => break,
                        '\\' => {
                            chars.next();
                        }
                        c => assert!(c >= ' ', "raw control character in a string: {text}"),
                    }
                },
                _ => {}
            }
        }
        assert!(open.is_empty(), "{text}");
    }

    #[test]
    fn hostile_strings_are_escaped_in_dumps_and_validation_reports() {
        use crate::validate::{CellReport, LawReport, RandomFinding, ValidationReport};
        let nasty = "say \"hi\" C:\\dir{[\nnext\u{1}";
        let escaped = r#""say \"hi\" C:\\dir{[\nnext\u0001""#;

        let result = RunResult {
            label: nasty.to_string(),
            ..RunResult::default()
        };
        let mut dump = FlightDump::capture(
            DumpReason::ChaosViolation,
            &RunSpec::default(),
            &sample_events(2),
            Some(&result),
        )
        .with_violations(vec![Violation {
            invariant: nasty,
            detail: nasty.into(),
        }]);
        dump.label = nasty.to_string();
        dump.spec = nasty.to_string();
        let mut buf = Vec::new();
        dump.write_json(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // label, spec, invariant, detail, result.label
        assert_eq!(text.matches(escaped).count(), 5, "{text}");
        assert_well_nested(&text);

        let report = ValidationReport {
            broken: false,
            cells: vec![CellReport {
                label: nasty.to_string(),
                rate_mbps: 10,
                saturated: false,
                near_critical: false,
                bottleneck: "controller",
                delay_rep_p50_ms: 1.5,
                delay_rep_p95_ms: f64::NAN,
                checks: Vec::new(),
            }],
            laws: vec![LawReport {
                law: "packet-conservation",
                holds: false,
                detail: nasty.to_string(),
            }],
            random_checked: 1,
            random_findings: vec![RandomFinding {
                spec: nasty.to_string(),
                shrunk_spec: nasty.to_string(),
                violations: vec![nasty.to_string()],
            }],
        };
        let text = report.to_json();
        // cell label, law detail, spec, shrunk_spec, violation
        assert_eq!(text.matches(escaped).count(), 5, "{text}");
        assert!(text.contains("\"delay_rep_p50_ms\":1.5,\"delay_rep_p95_ms\":null"));
        assert_well_nested(&text);
    }
}
