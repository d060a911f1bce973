//! Seeded chaos harness over the fault-injection plane.
//!
//! Simulation testing in the FoundationDB style: [`ChaosScenario::generate`]
//! samples a randomized but fully determined scenario from a master seed —
//! a buffer mechanism, a small cross-sequenced workload and a composable
//! [`FaultPlan`] — and [`run_scenario`] executes it on a fresh [`Testbed`],
//! holding every event, as it is emitted, to the protocol invariants of
//! [`check_invariants`] and folding it into the stream digest.
//!
//! Every scenario serializes to a one-line spec ([`ChaosScenario::to_spec`])
//! that [`ChaosScenario::parse`] restores exactly, so a failing run prints a
//! single replay command that reproduces the violation byte-identically.
//! [`minimize`] greedily shrinks a failing plan to a minimal set of faults
//! that still violates an invariant.

use crate::observe::EventDigest;
use crate::shrink::shrink_to_fixpoint;
use crate::testbed::FailoverConfig;
use crate::{parse_rate_mbps, BufferMode, RunResult, Testbed, TestbedConfig, WorkloadKind};
use sdnbuf_openflow::BufferId;
use sdnbuf_sim::faults::{fmt_dur, parse_dur};
use sdnbuf_sim::{
    BitRate, ChannelDir, ChannelFaults, Event, EventKind, EventSink, FastHashMap, FastHashSet,
    FaultPlan, LossModel, Nanos, SimRng, Tracer, Window,
};
use sdnbuf_switchbuf::RetryPolicy;
pub use sdnbuf_switchbuf::Sabotage;
use sdnbuf_workload::PktgenConfig;
use std::cell::RefCell;
use std::rc::Rc;

/// The recovery-plane knobs a chaos run configures on its switch: the
/// re-request retry policy, the per-entry buffer TTL and the degraded-mode
/// threshold. Default knobs reproduce the pre-recovery behaviour exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RecoveryKnobs {
    /// Re-request pacing and budget ([`RetryPolicy::fixed`] by default).
    pub retry: RetryPolicy,
    /// Per-entry buffer TTL; [`Nanos::ZERO`] disables expiry.
    pub ttl: Nanos,
    /// Consecutive give-ups tripping degraded mode; `0` disables it.
    pub degraded_threshold: u32,
}

/// Standby-failover knobs a chaos scenario can arm on its testbed.
/// `Display` prints `<warm|cold>:<delay>`; `FromStr` also takes a bare
/// `warm` / `cold`, with [`FailoverConfig`]'s default delay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StandbyKnobs {
    /// Warm (snapshot-synced) or cold (empty tables) takeover.
    pub warm: bool,
    /// Delay between the primary's crash and the standby's takeover.
    pub takeover_delay: Nanos,
}

impl std::fmt::Display for StandbyKnobs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sync = if self.warm { "warm" } else { "cold" };
        write!(f, "{sync}:{}", fmt_dur(self.takeover_delay))
    }
}

impl std::str::FromStr for StandbyKnobs {
    type Err = String;

    fn from_str(s: &str) -> Result<StandbyKnobs, String> {
        let (sync, delay) = s.split_once(':').map_or((s, None), |(a, b)| (a, Some(b)));
        let warm = match sync {
            "warm" => true,
            "cold" => false,
            other => return Err(format!("bad standby sync '{other}' (warm or cold)")),
        };
        let takeover_delay = match delay {
            Some(delay) => parse_dur(delay)?,
            None => FailoverConfig::default().takeover_delay,
        };
        Ok(StandbyKnobs {
            warm,
            takeover_delay,
        })
    }
}

/// One sampled chaos scenario: everything needed to reproduce a run.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosScenario {
    /// Buffer mechanism under test.
    pub mech: BufferMode,
    /// Offered workload.
    pub workload: WorkloadKind,
    /// Sending rate in Mbps.
    pub rate_mbps: u64,
    /// Workload seed (departure jitter).
    pub seed: u64,
    /// The fault plan.
    pub plan: FaultPlan,
    /// Recovery-plane switch knobs (defaults = pre-recovery behaviour).
    pub recovery: RecoveryKnobs,
    /// Warm-standby failover; `None` means the primary restarts itself at
    /// each crash window's end.
    pub standby: Option<StandbyKnobs>,
}

impl ChaosScenario {
    /// Samples scenario `master_seed` for `mech` — a pure function of its
    /// arguments, so the chaos sweep that found a violation and the replay
    /// that debugs it construct the same scenario.
    pub fn generate(master_seed: u64, mech: BufferMode) -> ChaosScenario {
        let mut rng = SimRng::seed_from(master_seed ^ 0x9e37_79b9_7f4a_7c15);
        let n_flows = 4 + rng.gen_range(5) as usize;
        let packets_per_flow = 3 + rng.gen_range(4) as usize;
        let workload = WorkloadKind::CrossSequenced {
            n_flows,
            packets_per_flow,
            group_size: 2,
        };
        let rate_mbps = 20 + 10 * rng.gen_range(8);

        let mut plan = FaultPlan {
            seed: 1 + rng.gen_range(1_000_000),
            ..FaultPlan::default()
        };
        plan.to_controller.loss = match rng.gen_range(4) {
            0 => LossModel::None,
            1 => LossModel::EveryNth(4 + rng.gen_range(17)),
            _ => LossModel::Probabilistic(0.02 + rng.gen_range(2300) as f64 / 10_000.0),
        };
        // Deterministic every-nth loss on the controller→switch path can
        // phase-lock with flow granularity's two-message re-request cycle
        // (one flow_mod + one packet_out per cycle) and drop every
        // packet_out forever, so this direction only samples memoryless
        // loss — any probability below 1 eventually lets a release through.
        plan.to_switch.loss = match rng.gen_range(3) {
            0 => LossModel::None,
            _ => LossModel::Probabilistic(0.02 + rng.gen_range(1800) as f64 / 10_000.0),
        };
        if rng.gen_range(2) == 0 {
            plan.to_controller.delay = Nanos::from_micros(50 + rng.gen_range(950));
        }
        if rng.gen_range(3) == 0 {
            plan.to_controller.jitter = Nanos::from_micros(100 + rng.gen_range(1900));
        }
        if rng.gen_range(2) == 0 {
            plan.to_switch.delay = Nanos::from_micros(50 + rng.gen_range(950));
        }
        if rng.gen_range(3) == 0 {
            plan.to_switch.jitter = Nanos::from_micros(100 + rng.gen_range(1900));
        }
        if rng.gen_range(3) == 0 {
            plan.to_controller.duplicate = 0.05 + rng.gen_range(1500) as f64 / 10_000.0;
        }
        if rng.gen_range(3) == 0 {
            plan.to_switch.duplicate = 0.05 + rng.gen_range(1500) as f64 / 10_000.0;
        }
        if rng.gen_range(3) == 0 {
            plan.to_controller.reorder = 0.1 + rng.gen_range(2000) as f64 / 10_000.0;
            plan.to_controller.reorder_by = Nanos::from_micros(200 + rng.gen_range(1300));
        }
        if rng.gen_range(3) == 0 {
            plan.to_switch.reorder = 0.1 + rng.gen_range(2000) as f64 / 10_000.0;
            plan.to_switch.reorder_by = Nanos::from_micros(200 + rng.gen_range(1300));
        }
        // The data phase starts at the 50 ms warm-up gap; windows sampled
        // around it so they actually overlap traffic.
        for _ in 0..rng.gen_range(3) {
            plan.stalls.push(window_near_data_phase(&mut rng, 8));
        }
        if rng.gen_range(4) == 0 {
            plan.flaps.push(window_near_data_phase(&mut rng, 4));
        }
        if rng.gen_range(4) == 0 {
            plan.pressure.push(window_near_data_phase(&mut rng, 8));
        }

        ChaosScenario {
            mech,
            workload,
            rate_mbps,
            seed: 1 + rng.gen_range(1_000_000),
            plan,
            // The sweep runs with default recovery knobs so its catch rates
            // stay comparable across PRs; the recovery matrix
            // ([`recovery_matrix`]) turns the knobs on explicitly.
            recovery: RecoveryKnobs::default(),
            standby: None,
        }
    }

    /// [`ChaosScenario::generate`] plus the crash plane: one or two
    /// controller crash windows inside the data phase, and — every third
    /// scenario — a warm or cold standby (whose own crash window is then
    /// sometimes sampled too). A pure function of its arguments, like
    /// `generate`.
    pub fn generate_with_crashes(master_seed: u64, mech: BufferMode) -> ChaosScenario {
        let mut s = ChaosScenario::generate(master_seed, mech);
        let mut rng = SimRng::seed_from(master_seed ^ 0x5bd1_e995_9d1b_58d3);
        for _ in 0..1 + rng.gen_range(2) {
            s.plan.crashes.push(window_near_data_phase(&mut rng, 14));
        }
        if rng.gen_range(3) == 0 {
            s.standby = Some(StandbyKnobs {
                warm: rng.gen_range(2) == 0,
                takeover_delay: Nanos::from_millis(2 + rng.gen_range(10)),
            });
            if rng.gen_range(2) == 0 {
                s.plan
                    .crashes_standby
                    .push(window_near_data_phase(&mut rng, 6));
            }
        }
        s
    }

    /// Serializes the scenario to the one-line spec that
    /// `sdnlab chaos --replay` accepts. [`ChaosScenario::parse`] restores
    /// it exactly, field for field.
    pub fn to_spec(&self) -> String {
        let mut parts = vec![
            format!("mech={}", self.mech),
            format!("wl={}", self.workload),
            format!("rate={}", self.rate_mbps),
            format!("seed={}", self.seed),
        ];
        if self.recovery.retry != RetryPolicy::fixed() {
            parts.push(format!("retry={}", self.recovery.retry));
        }
        if self.recovery.ttl != Nanos::ZERO {
            parts.push(format!("ttl={}", fmt_dur(self.recovery.ttl)));
        }
        if self.recovery.degraded_threshold != 0 {
            parts.push(format!("degraded={}", self.recovery.degraded_threshold));
        }
        if let Some(standby) = self.standby {
            parts.push(format!("standby={standby}"));
        }
        let plan = self.plan.to_spec();
        if !plan.is_empty() {
            parts.push(plan);
        }
        parts.join(",")
    }

    /// Parses a spec produced by [`ChaosScenario::to_spec`]. Keys the
    /// scenario does not own are dispatched to [`FaultPlan::apply_kv`].
    pub fn parse(spec: &str) -> Result<ChaosScenario, String> {
        let mut mech = None;
        let mut workload = None;
        let mut rate_mbps = None;
        let mut seed = None;
        let mut plan = FaultPlan::default();
        let mut recovery = RecoveryKnobs::default();
        let mut standby = None;
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got '{part}'"))?;
            match key {
                "mech" => mech = Some(value.parse()?),
                "wl" => workload = Some(value.parse()?),
                "rate" => rate_mbps = Some(parse_rate_mbps(value)?),
                "seed" => {
                    seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?);
                }
                "retry" => recovery.retry = value.parse()?,
                "ttl" => recovery.ttl = parse_dur(value)?,
                "degraded" => {
                    recovery.degraded_threshold = value
                        .parse()
                        .map_err(|_| format!("bad degraded threshold '{value}'"))?;
                }
                "standby" => standby = Some(value.parse()?),
                _ => {
                    if !plan.apply_kv(key, value)? {
                        return Err(format!("unknown scenario key '{key}'"));
                    }
                }
            }
        }
        plan.validate()?;
        recovery.retry.validate()?;
        Ok(ChaosScenario {
            mech: mech.ok_or_else(|| "scenario spec is missing mech=".to_owned())?,
            workload: workload.ok_or_else(|| "scenario spec is missing wl=".to_owned())?,
            rate_mbps: rate_mbps.ok_or_else(|| "scenario spec is missing rate=".to_owned())?,
            seed: seed.ok_or_else(|| "scenario spec is missing seed=".to_owned())?,
            plan,
            recovery,
            standby,
        })
    }
}

/// A window of `1..=max_ms` milliseconds starting inside the data phase
/// (which begins at the 50 ms warm-up gap).
fn window_near_data_phase(rng: &mut SimRng, max_ms: u64) -> Window {
    let from = Nanos::from_millis(48 + rng.gen_range(30));
    Window::new(from, from + Nanos::from_millis(1 + rng.gen_range(max_ms)))
}

/// Builds `scenario`'s testbed (crippled as `sabotage` asks), attaches
/// `tracer` and runs the workload through it.
fn run_traced(scenario: &ChaosScenario, sabotage: Sabotage, tracer: Tracer) -> RunResult {
    let mut cfg = TestbedConfig::default();
    cfg.switch.buffer = scenario.mech;
    cfg.switch.retry = scenario.recovery.retry;
    cfg.switch.buffer_ttl = scenario.recovery.ttl;
    cfg.switch.degraded_threshold = scenario.recovery.degraded_threshold;
    cfg.faults = scenario.plan.clone();
    if scenario.plan.has_crashes() {
        // The crash plane needs a heartbeat to miss: keepalives give the
        // switch's liveness detector its signal. Scenarios without crash
        // windows keep the channel measurement-only, so their event
        // streams (and digests) are unchanged from previous PRs.
        cfg.keepalive_interval = Some(Nanos::from_millis(5));
        cfg.switch.liveness_timeout = Nanos::from_millis(15);
    }
    if let Some(sb) = scenario.standby {
        cfg.failover = FailoverConfig {
            standby: true,
            takeover_delay: sb.takeover_delay,
            warm: sb.warm,
        };
    }
    let pktgen = PktgenConfig {
        rate: BitRate::from_mbps(scenario.rate_mbps),
        ..PktgenConfig::default()
    };
    let departures = scenario.workload.generate(&pktgen, scenario.seed);
    let mut tb = Testbed::new(cfg);
    tb.switch_mut().sabotage_buffer(sabotage);
    tb.set_tracer(tracer);
    let mut result = tb.run(&departures);
    result.sending_rate_mbps = scenario.rate_mbps as f64;
    result
}

/// Runs `scenario` on a fresh testbed with the recording tracer attached
/// and returns the measurements plus the full event stream, for callers
/// that keep the stream (flight dumps, per-layer replays); [`run_scenario`]
/// checks and digests the same stream without storing it.
///
/// `sabotage` cripples parts of the mechanism on purpose — the
/// intentionally broken variants the harness's self-test must catch via
/// the eventual-delivery and buffer-expiry invariants.
pub fn execute(scenario: &ChaosScenario, sabotage: Sabotage) -> (RunResult, Vec<Event>) {
    let (tracer, sink) = Tracer::recording(0);
    let result = run_traced(scenario, sabotage, tracer);
    let events = sink.borrow_mut().take();
    (result, events)
}

/// One invariant violation found in a run's event stream.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Short stable invariant name (test assertions key on it).
    pub invariant: &'static str,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

/// Checks a run's event stream and measurements against the protocol
/// invariants. An empty result means the scenario passed.
///
/// The invariants, per the mechanism design in Sections IV–V:
/// * **packet-conservation** — every sent packet is delivered, dropped on
///   a data link, still buffered (stranded), or carried inside a dropped
///   full-packet control message; nothing simply vanishes.
/// * **occupancy-bound** — the buffer never holds more packets than its
///   capacity.
/// * **buffer-bookkeeping** — a `packet_out` never releases more packets
///   from a `buffer_id` than were filed under it (no double-free, no leak
///   of slots to foreign flows).
/// * **single-request-per-flow** — the number of `packet_in`s referencing
///   a buffer id equals its fresh allocations plus its timeout
///   re-requests: at most one outstanding request per flow (Algorithm 1).
/// * **rerequest-before-timeout** — consecutive requests for the same id
///   are separated by at least the configured timeout.
/// * **rerequest-accounting** — the run's counter matches the trace.
/// * **no-stale-drain** — a `packet_out` never drains packets from a slot
///   that expiry, give-up or an earlier drain already emptied; generation
///   tags must reject such stale releases.
/// * **retry-budget** — with a finite budget, no slot is re-requested more
///   than `budget` times between fresh allocations.
/// * **buffer-expiry** — with a TTL armed, no entry survives the run
///   stranded in the buffer. This is the invariant that catches a broken
///   TTL garbage collector.
/// * **degraded-recovery** — a switch still degraded at the end of the run
///   must not have seen controller progress (a `flow_mod` installed or a
///   buffer drained) since it last entered degraded mode.
/// * **eventual-delivery** / **buffer-id-leak** — flow granularity with
///   control-channel faults only (loss < 100 %, no flaps, no pressure)
///   and neutral recovery knobs (no TTL, no budget, no degraded mode —
///   each of which deliberately sacrifices delivery for boundedness) must
///   deliver everything and fully drain its buffer. This is the invariant
///   that catches a broken re-request loop.
///
/// The crash plane (PR 9) adds four more:
/// * **epoch-monotonicity** — the switch's session epoch only ever steps
///   up by one, and every bump's target epoch was announced by a
///   controller restart or failover takeover first.
/// * **handshake-before-service** — after a crash, the switch serves no
///   epoch bump until a restarted controller re-ran the handshake (an
///   `EpochBump` with no preceding `CtrlRestart`/`FailoverTakeover` at
///   that epoch is a violation).
/// * **no-cross-epoch-drain** — a `packet_out` minted under epoch N never
///   drains a buffer entry admitted under epoch M < N. Entries surviving
///   a bump are only considered migrated when the bump re-tagged all of
///   them (`survivors` equals the checker's live count) — the epoch-guard
///   sabotage re-tags none, which is otherwise observationally identical.
/// * **crash-recovery-drain** — flow granularity with crash windows,
///   data-friendly faults and neutral recovery knobs must end the run
///   with an empty buffer: post-restart reconciliation re-announces every
///   survivor, so a crash may shed (accounted) packets but never strands
///   buffered ones.
pub fn check_invariants(
    mech: BufferMode,
    plan: &FaultPlan,
    knobs: RecoveryKnobs,
    result: &RunResult,
    events: &[Event],
) -> Vec<Violation> {
    let mut checker = InvariantChecker::new(mech, plan, knobs);
    for e in events {
        checker.observe(e);
    }
    checker.finish(result)
}

/// What the checker remembers about one buffer id. An id it has not seen
/// yet reads as the default record: nothing held, every count zero.
#[derive(Clone, Copy, Debug, Default)]
struct IdRecord {
    /// Packets filed under the id and not yet drained, expired or given up.
    held: i64,
    /// Fresh allocations + timeout re-requests + reconciliation
    /// re-announces: the `packet_in`s the id is entitled to.
    announces: u64,
    /// `packet_in`s that named the id.
    pkt_ins: u64,
    /// When the live entry last asked the controller.
    last_request: Option<Nanos>,
    /// Re-requests since the last fresh allocation or give-up.
    retry_streak: u32,
    /// Session epoch the live entry was admitted (or migrated) under.
    admitted_epoch: Option<u32>,
}

impl IdRecord {
    /// An emptied slot forgets its request clock and its admission epoch.
    fn vacate_if_empty(&mut self) {
        if self.held <= 0 {
            self.last_request = None;
            self.admitted_epoch = None;
        }
    }
}

/// The invariants of [`check_invariants`], checked as the stream goes by:
/// [`InvariantChecker::observe`] takes every event in emission order,
/// [`InvariantChecker::finish`] the run's measurements.
struct InvariantChecker {
    mech: BufferMode,
    capacity: usize,
    timeout: Option<Nanos>,
    knobs: RecoveryKnobs,
    // What the end-of-run invariants ask of the fault plan.
    dup_possible: bool,
    disturbs_data: bool,
    has_crashes: bool,
    violations: Vec<Violation>,
    ids: FastHashMap<u32, IdRecord>,
    /// The latest `packet_in` / `packet_out` of an xid that carried the
    /// full packet (the no-buffer sentinel), keyed by the direction it
    /// travels: dropping one of these destroys packet data.
    full_packet_msgs: FastHashSet<(ChannelDir, u32)>,
    rerequests: u64,
    reconciles: u64,
    lost_ctrl: u64,
    degraded_enters: u64,
    degraded_exits: u64,
    progress_since_enter: bool,
    // Crash-plane state: the switch's current epoch and the epochs
    // announced by controller restarts/takeovers.
    switch_epoch: u32,
    announced_epochs: Vec<u32>,
}

impl InvariantChecker {
    fn new(mech: BufferMode, plan: &FaultPlan, knobs: RecoveryKnobs) -> InvariantChecker {
        let (capacity, timeout) = match mech {
            BufferMode::NoBuffer => (usize::MAX, None),
            BufferMode::PacketGranularity { capacity } => (capacity, None),
            BufferMode::FlowGranularity { capacity, timeout } => (capacity, Some(timeout)),
        };
        InvariantChecker {
            mech,
            capacity,
            timeout,
            knobs,
            dup_possible: plan.to_controller.duplicate > 0.0 || plan.to_switch.duplicate > 0.0,
            disturbs_data: plan.disturbs_data(),
            has_crashes: plan.has_crashes(),
            violations: Vec::new(),
            ids: FastHashMap::default(),
            full_packet_msgs: FastHashSet::default(),
            rerequests: 0,
            reconciles: 0,
            lost_ctrl: 0,
            degraded_enters: 0,
            degraded_exits: 0,
            progress_since_enter: false,
            switch_epoch: 1,
            announced_epochs: Vec::new(),
        }
    }

    /// Records whether the message `xid` names in direction `dir` carries
    /// the full packet; a reused xid takes the latest message's answer.
    fn note_carrier(&mut self, dir: ChannelDir, xid: u32, buffer_id: u32) {
        if buffer_id == BufferId::NO_BUFFER.as_u32() {
            self.full_packet_msgs.insert((dir, xid));
        } else {
            self.full_packet_msgs.remove(&(dir, xid));
        }
    }

    fn observe(&mut self, e: &Event) {
        let switch_epoch = self.switch_epoch;
        match e.kind {
            EventKind::BufferEnqueue {
                buffer_id,
                occupancy,
                fresh,
            } => {
                if occupancy > self.capacity {
                    self.violations.push(Violation {
                        invariant: "occupancy-bound",
                        detail: format!(
                            "occupancy {occupancy} exceeds capacity {} at {}",
                            self.capacity,
                            fmt_dur(e.at)
                        ),
                    });
                }
                let rec = self.ids.entry(buffer_id).or_default();
                rec.held += 1;
                if fresh {
                    rec.announces += 1;
                    rec.last_request = Some(e.at);
                    rec.retry_streak = 0;
                    rec.admitted_epoch = Some(switch_epoch);
                } else {
                    rec.admitted_epoch.get_or_insert(switch_epoch);
                }
            }
            EventKind::BufferRerequest { buffer_id, .. } => {
                self.rerequests += 1;
                let rec = self.ids.entry(buffer_id).or_default();
                rec.announces += 1;
                rec.retry_streak += 1;
                let (streak, budget) = (rec.retry_streak, self.knobs.retry.budget);
                if budget > 0 && streak > budget {
                    self.violations.push(Violation {
                        invariant: "retry-budget",
                        detail: format!(
                            "buffer {buffer_id} re-requested {streak} times against a budget of \
                             {budget}"
                        ),
                    });
                }
                if let (Some(timeout), Some(prev)) = (self.timeout, rec.last_request) {
                    if e.at < prev + timeout {
                        self.violations.push(Violation {
                            invariant: "rerequest-before-timeout",
                            detail: format!(
                                "buffer {buffer_id} re-requested after {} < timeout {}",
                                fmt_dur(e.at - prev),
                                fmt_dur(timeout)
                            ),
                        });
                    }
                }
                rec.last_request = Some(e.at);
            }
            EventKind::BufferReconcile { buffer_id, .. } => {
                // A reconciliation re-announce is an extra legitimate
                // `packet_in` for the slot; it does not touch the retry
                // budget or the timeout clock.
                self.reconciles += 1;
                self.ids.entry(buffer_id).or_default().announces += 1;
            }
            EventKind::BufferDrain {
                buffer_id,
                released,
                ..
            } => {
                self.progress_since_enter = true;
                let rec = self.ids.entry(buffer_id).or_default();
                if let Some(admitted) = rec.admitted_epoch {
                    if admitted < switch_epoch && released > 0 {
                        self.violations.push(Violation {
                            invariant: "no-cross-epoch-drain",
                            detail: format!(
                                "buffer {buffer_id} admitted under epoch {admitted} drained \
                                 while the switch serves epoch {switch_epoch}"
                            ),
                        });
                    }
                }
                let held = rec.held;
                if held <= 0 && released > 0 {
                    self.violations.push(Violation {
                        invariant: "no-stale-drain",
                        detail: format!(
                            "buffer {buffer_id} drained {released} packets from an already \
                             emptied slot (stale release let through)"
                        ),
                    });
                } else if (released as i64) > held {
                    self.violations.push(Violation {
                        invariant: "buffer-bookkeeping",
                        detail: format!(
                            "buffer {buffer_id} released {released} packets but held {held}"
                        ),
                    });
                }
                rec.held -= released as i64;
                rec.vacate_if_empty();
            }
            EventKind::BufferExpire { buffer_id, .. } => {
                let rec = self.ids.entry(buffer_id).or_default();
                if rec.held <= 0 {
                    self.violations.push(Violation {
                        invariant: "buffer-bookkeeping",
                        detail: format!("buffer {buffer_id} expired a packet from an empty slot"),
                    });
                }
                rec.held -= 1;
                rec.vacate_if_empty();
            }
            EventKind::BufferGiveUp {
                buffer_id, drained, ..
            } => {
                let rec = self.ids.entry(buffer_id).or_default();
                let held = rec.held;
                if (drained as i64) > held {
                    self.violations.push(Violation {
                        invariant: "buffer-bookkeeping",
                        detail: format!(
                            "buffer {buffer_id} gave up {drained} packets but held {held}"
                        ),
                    });
                }
                rec.held -= drained as i64;
                rec.last_request = None;
                rec.retry_streak = 0;
                rec.admitted_epoch = None;
            }
            EventKind::CtrlRestart { epoch, .. } | EventKind::FailoverTakeover { epoch, .. } => {
                self.announced_epochs.push(epoch);
            }
            EventKind::EpochBump {
                from,
                to,
                survivors,
            } => {
                if from != switch_epoch || to != from + 1 {
                    self.violations.push(Violation {
                        invariant: "epoch-monotonicity",
                        detail: format!(
                            "epoch bump {from} -> {to} while the switch served epoch \
                             {switch_epoch} (epochs must step up by exactly one)"
                        ),
                    });
                }
                if !self.announced_epochs.contains(&to) {
                    self.violations.push(Violation {
                        invariant: "handshake-before-service",
                        detail: format!(
                            "switch moved to epoch {to} without a controller restart or \
                             takeover announcing it (no re-handshake happened)"
                        ),
                    });
                }
                // Migrate surviving entries only when the bump re-tagged
                // every live one — the broken-epoch sabotage re-tags none,
                // and this count mismatch is what exposes it.
                if survivors == self.ids.values().filter(|rec| rec.held > 0).count() {
                    for rec in self.ids.values_mut().filter(|rec| rec.held > 0) {
                        rec.admitted_epoch = Some(to);
                    }
                }
                self.switch_epoch = to;
            }
            EventKind::FlowRuleInstalled { .. } => {
                self.progress_since_enter = true;
            }
            EventKind::DegradedEnter { .. } => {
                self.degraded_enters += 1;
                self.progress_since_enter = false;
            }
            EventKind::DegradedExit { .. } => {
                self.degraded_exits += 1;
            }
            // Shedding an unbuffered request destroys the packet data it
            // carried; a buffered one leaves the data at the switch.
            EventKind::AdmissionShed {
                buffered: false, ..
            } => {
                self.lost_ctrl += 1;
            }
            EventKind::PacketInSent { xid, buffer_id, .. } => {
                self.note_carrier(ChannelDir::ToController, xid, buffer_id);
                if buffer_id != BufferId::NO_BUFFER.as_u32() {
                    self.ids.entry(buffer_id).or_default().pkt_ins += 1;
                }
            }
            EventKind::PacketOutSent { xid, buffer_id } => {
                self.note_carrier(ChannelDir::ToSwitch, xid, buffer_id);
            }
            EventKind::CtrlDrop {
                dir, xid, label, ..
            } => {
                // A dropped control message destroys packet data only when
                // it carried the full packet (the no-buffer sentinel);
                // buffered flows keep their data at the switch.
                let data_bearing = matches!(
                    (dir, label),
                    (ChannelDir::ToController, "packet_in") | (ChannelDir::ToSwitch, "packet_out")
                );
                if data_bearing && self.full_packet_msgs.contains(&(dir, xid)) {
                    self.lost_ctrl += 1;
                }
            }
            _ => {}
        }
    }

    /// The end-of-run invariants over `result`; returns every violation
    /// found, stream order first.
    fn finish(&mut self, result: &RunResult) -> Vec<Violation> {
        let mut violations = std::mem::take(&mut self.violations);
        let (mech, knobs) = (self.mech, self.knobs);

        // In id order, so a report does not depend on the table's layout.
        let mut miscounted: Vec<(u32, u64, u64)> = self
            .ids
            .iter()
            .map(|(&id, r)| (id, r.pkt_ins, r.announces))
            .filter(|&(_, n, expected)| n > 0 && n != expected)
            .collect();
        miscounted.sort_unstable();
        for (id, n, expected) in miscounted {
            violations.push(Violation {
                invariant: "single-request-per-flow",
                detail: format!(
                    "buffer {id}: {n} packet_ins for {expected} allocations + re-requests + \
                     reconciles"
                ),
            });
        }

        if result.rerequests != self.rerequests {
            violations.push(Violation {
                invariant: "rerequest-accounting",
                detail: format!(
                    "stats counted {} re-requests, trace shows {}",
                    result.rerequests, self.rerequests
                ),
            });
        }
        if result.reconcile_rerequests != self.reconciles {
            violations.push(Violation {
                invariant: "reconcile-accounting",
                detail: format!(
                    "stats counted {} reconciliation re-announces, trace shows {}",
                    result.reconcile_rerequests, self.reconciles
                ),
            });
        }

        let live = || self.ids.values().map(|r| r.held).filter(|&held| held > 0);
        let stranded: i64 = live().sum();
        let lost_ctrl = self.lost_ctrl;

        // `lost_ctrl` can overcount (a duplicate of a dropped message may still
        // arrive), so conservation is an inequality — a real leak makes the
        // left side fall short of `sent`.
        let accounted =
            result.packets_delivered + result.packets_dropped + stranded as u64 + lost_ctrl;
        if accounted < result.packets_sent {
            violations.push(Violation {
                invariant: "packet-conservation",
                detail: format!(
                    "sent {} but only {accounted} accounted for (delivered {} + data-dropped {} \
                     + stranded {stranded} + lost-in-control {lost_ctrl})",
                    result.packets_sent, result.packets_delivered, result.packets_dropped
                ),
            });
        }

        // A duplicated full-packet control message can legitimately deliver the
        // same packet twice, so the upper bound only holds when no full packet
        // crossed a duplicating channel.
        let full_packets_in_ctrl = mech == BufferMode::NoBuffer || result.buffer_fallbacks > 0;
        if result.packets_delivered > result.packets_sent
            && !(self.dup_possible && full_packets_in_ctrl)
        {
            violations.push(Violation {
                invariant: "packet-conservation",
                detail: format!(
                    "delivered {} exceeds sent {}",
                    result.packets_delivered, result.packets_sent
                ),
            });
        }

        if knobs.ttl != Nanos::ZERO && stranded > 0 {
            violations.push(Violation {
                invariant: "buffer-expiry",
                detail: format!(
                    "{stranded} packets outlived the {} TTL stranded in the buffer",
                    fmt_dur(knobs.ttl)
                ),
            });
        }

        let (degraded_enters, degraded_exits) = (self.degraded_enters, self.degraded_exits);
        if degraded_enters > degraded_exits && self.progress_since_enter {
            violations.push(Violation {
                invariant: "degraded-recovery",
                detail: format!(
                    "switch still degraded after the run ({degraded_enters} entries, \
                     {degraded_exits} exits) despite controller progress since the last entry"
                ),
            });
        }

        // TTL expiry, a finite retry budget and degraded-mode shedding each
        // deliberately trade delivery for boundedness, so the delivery
        // guarantee only holds with all three disarmed.
        let recovery_neutral =
            knobs.ttl == Nanos::ZERO && knobs.retry.budget == 0 && knobs.degraded_threshold == 0;
        // A crash legitimately sheds fresh misses while the switch suspects
        // the controller dead (accounted as drops), so the full delivery
        // guarantee is replaced by crash-recovery-drain below.
        let guarantees_delivery = matches!(mech, BufferMode::FlowGranularity { .. })
            && !self.disturbs_data
            && recovery_neutral
            && !self.has_crashes;
        if guarantees_delivery {
            if result.packets_delivered < result.packets_sent {
                violations.push(Violation {
                    invariant: "eventual-delivery",
                    detail: format!(
                        "flow granularity delivered only {} of {} packets under a \
                         control-channel-only fault plan",
                        result.packets_delivered, result.packets_sent
                    ),
                });
            }
            if stranded > 0 {
                violations.push(Violation {
                    invariant: "buffer-id-leak",
                    detail: format!(
                        "{stranded} packets still buffered across {} ids after the run",
                        live().count()
                    ),
                });
            }
        }

        // Across a crash, post-restart reconciliation must re-announce every
        // surviving entry: the run may shed packets (accounted drops) but the
        // buffer drains completely.
        let crash_guarantees_drain = matches!(mech, BufferMode::FlowGranularity { .. })
            && self.has_crashes
            && !self.disturbs_data
            && recovery_neutral;
        if crash_guarantees_drain && stranded > 0 {
            violations.push(Violation {
                invariant: "crash-recovery-drain",
                detail: format!(
                    "{stranded} packets stranded in the buffer after a crash — \
                     reconciliation failed to re-announce them"
                ),
            });
        }

        violations
    }
}

/// The outcome of one chaos scenario.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Measurements of the run.
    pub result: RunResult,
    /// Invariant violations; empty means the scenario passed.
    pub violations: Vec<Violation>,
    /// FNV-1a digest of the serialized event stream — two runs are
    /// byte-identical iff their digests match.
    pub digest: u64,
}

/// The sink [`run_scenario`] attaches to its testbed: every event goes to
/// the invariant checker and into the stream digest as it is emitted, and
/// is kept nowhere.
struct Observer {
    checker: InvariantChecker,
    digest: EventDigest,
}

impl EventSink for Observer {
    fn emit(&mut self, event: Event) {
        self.checker.observe(&event);
        self.digest.observe(&event);
    }
}

/// Executes `scenario`, checking every invariant over its event stream and
/// digesting it while it runs.
pub fn run_scenario(scenario: &ChaosScenario, sabotage: Sabotage) -> ChaosReport {
    let observer = Rc::new(RefCell::new(Observer {
        checker: InvariantChecker::new(scenario.mech, &scenario.plan, scenario.recovery),
        digest: EventDigest::default(),
    }));
    let result = run_traced(scenario, sabotage, Tracer::new(observer.clone()));
    let mut observer = observer.borrow_mut();
    ChaosReport {
        violations: observer.checker.finish(&result),
        digest: observer.digest.finish(),
        result,
    }
}

/// Greedily shrinks a failing scenario's fault plan: tries zeroing each
/// channel knob and dropping each window, keeps any simplification that
/// still violates an invariant, and repeats to a fixpoint. The result is
/// 1-minimal — removing any single remaining fault makes the run pass.
pub fn minimize(scenario: &ChaosScenario, sabotage: Sabotage) -> ChaosScenario {
    let fails = |s: &ChaosScenario| !run_scenario(s, sabotage).violations.is_empty();
    if !fails(scenario) {
        return scenario.clone();
    }
    let one_fault_fewer = |s: &ChaosScenario| {
        shrink_candidates(&s.plan)
            .into_iter()
            .map(|plan| ChaosScenario { plan, ..s.clone() })
            .collect()
    };
    shrink_to_fixpoint(scenario.clone(), one_fault_fewer, fails)
}

/// Captures a flight-recorder dump for a violating (usually minimized)
/// scenario: re-executes it deterministically and packages the replay
/// recipe — the spec string `sdnlab chaos --replay` accepts — together
/// with the evidence: the violations, the event-stream tail, the spans
/// still open when the run ended, and the latency anatomy. Because runs
/// are pure functions of the scenario, replaying the embedded spec
/// reproduces the dump's digest and violations byte-for-byte.
pub fn flight_dump(scenario: &ChaosScenario, sabotage: Sabotage) -> crate::flightrec::FlightDump {
    let (result, events) = execute(scenario, sabotage);
    let violations = check_invariants(
        scenario.mech,
        &scenario.plan,
        scenario.recovery,
        &result,
        &events,
    );
    crate::flightrec::FlightDump::capture(
        crate::flightrec::DumpReason::ChaosViolation,
        &scenario.mech.label(),
        scenario.seed,
        Some(scenario.to_spec()),
        &events,
        Some(&result),
    )
    .with_violations(
        violations
            .into_iter()
            .map(|v| (v.invariant.to_string(), v.detail))
            .collect(),
    )
}

/// The recovery matrix: a sustained controller stall followed by a short
/// control-channel flap inside the data phase, run against both buffering
/// mechanisms under both the fixed-interval and the exponential-backoff
/// retry policy, with the TTL and degraded mode armed — and, in the crash
/// column, a mid-run controller crash on top (crash × stall × loss ×
/// mechanism × retry policy). Every cell must pass every invariant —
/// `sdnlab chaos --recovery` and CI run it as the recovery plane's
/// end-to-end check.
pub fn recovery_matrix() -> Vec<(String, ChaosScenario)> {
    let mechs = [
        ("packet", BufferMode::PacketGranularity { capacity: 256 }),
        (
            "flow",
            BufferMode::FlowGranularity {
                capacity: 256,
                timeout: Nanos::from_millis(20),
            },
        ),
    ];
    let policies = [
        ("fixed", RetryPolicy::fixed()),
        ("backoff", RetryPolicy::backoff(Nanos::from_millis(160), 4)),
    ];
    let mut out = Vec::new();
    for (mech_label, mech) in mechs {
        for (policy_label, retry) in policies {
            for crash in [false, true] {
                let mut plan = FaultPlan {
                    seed: 17,
                    ..FaultPlan::default()
                };
                // Memoryless packet_out loss strands buffer entries (packet
                // granularity has no re-request), so the armed TTL has work
                // to do in every cell and a dead garbage collector is
                // observable.
                plan.to_switch.loss = LossModel::Probabilistic(0.35);
                plan.stalls
                    .push(Window::new(Nanos::from_millis(50), Nanos::from_millis(68)));
                plan.flaps
                    .push(Window::new(Nanos::from_millis(72), Nanos::from_millis(75)));
                let label = if crash {
                    // The crash lands after the stall and flap: the
                    // controller dies mid-recovery and must re-handshake
                    // before the buffered backlog can drain.
                    plan.crashes
                        .push(Window::new(Nanos::from_millis(78), Nanos::from_millis(103)));
                    format!("{mech_label}/{policy_label}/crash")
                } else {
                    format!("{mech_label}/{policy_label}")
                };
                out.push((
                    label,
                    ChaosScenario {
                        mech,
                        workload: WorkloadKind::CrossSequenced {
                            n_flows: 6,
                            packets_per_flow: 4,
                            group_size: 2,
                        },
                        rate_mbps: 40,
                        seed: 9,
                        plan,
                        recovery: RecoveryKnobs {
                            retry,
                            ttl: Nanos::from_millis(250),
                            degraded_threshold: 2,
                        },
                        standby: None,
                    },
                ));
            }
        }
    }
    out
}

fn chan_mut(plan: &mut FaultPlan, to_switch: bool) -> &mut ChannelFaults {
    if to_switch {
        &mut plan.to_switch
    } else {
        &mut plan.to_controller
    }
}

/// Every plan one simplification step away from `plan`.
fn shrink_candidates(plan: &FaultPlan) -> Vec<FaultPlan> {
    let mut out: Vec<FaultPlan> = Vec::new();
    let mut push_if_changed = |p: FaultPlan| {
        if p != *plan {
            out.push(p);
        }
    };
    for to_switch in [false, true] {
        let mut p = plan.clone();
        chan_mut(&mut p, to_switch).loss = LossModel::None;
        push_if_changed(p);

        let mut p = plan.clone();
        let ch = chan_mut(&mut p, to_switch);
        ch.delay = Nanos::ZERO;
        ch.jitter = Nanos::ZERO;
        push_if_changed(p);

        let mut p = plan.clone();
        chan_mut(&mut p, to_switch).duplicate = 0.0;
        push_if_changed(p);

        let mut p = plan.clone();
        let ch = chan_mut(&mut p, to_switch);
        ch.reorder = 0.0;
        ch.reorder_by = Nanos::ZERO;
        push_if_changed(p);
    }
    for i in 0..plan.stalls.len() {
        let mut p = plan.clone();
        p.stalls.remove(i);
        out.push(p);
    }
    for i in 0..plan.flaps.len() {
        let mut p = plan.clone();
        p.flaps.remove(i);
        out.push(p);
    }
    for i in 0..plan.pressure.len() {
        let mut p = plan.clone();
        p.pressure.remove(i);
        out.push(p);
    }
    for i in 0..plan.crashes.len() {
        let mut p = plan.clone();
        p.crashes.remove(i);
        out.push(p);
    }
    for i in 0..plan.crashes_standby.len() {
        let mut p = plan.clone();
        p.crashes_standby.remove(i);
        out.push(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn flow_mech() -> BufferMode {
        BufferMode::FlowGranularity {
            capacity: 256,
            timeout: Nanos::from_millis(50),
        }
    }

    fn small_workload() -> WorkloadKind {
        WorkloadKind::CrossSequenced {
            n_flows: 4,
            packets_per_flow: 3,
            group_size: 2,
        }
    }

    /// `check_invariants` as it stood before the streaming checker: ten
    /// maps filled in one walk over the recorded slice. Kept as the
    /// executable statement of what the checker must still report.
    fn reference_check(
        mech: BufferMode,
        plan: &FaultPlan,
        knobs: RecoveryKnobs,
        result: &RunResult,
        events: &[Event],
    ) -> Vec<Violation> {
        let mut violations = Vec::new();
        let no_buffer = BufferId::NO_BUFFER.as_u32();
        let (capacity, timeout) = match mech {
            BufferMode::NoBuffer => (usize::MAX, None),
            BufferMode::PacketGranularity { capacity } => (capacity, None),
            BufferMode::FlowGranularity { capacity, timeout } => (capacity, Some(timeout)),
        };

        let mut outstanding: HashMap<u32, i64> = HashMap::new();
        let mut fresh_allocs: HashMap<u32, u64> = HashMap::new();
        let mut rerequests: HashMap<u32, u64> = HashMap::new();
        let mut reconciles: HashMap<u32, u64> = HashMap::new();
        let mut pkt_ins: HashMap<u32, u64> = HashMap::new();
        let mut last_request: HashMap<u32, Nanos> = HashMap::new();
        let mut retry_streak: HashMap<u32, u32> = HashMap::new();
        let mut pkt_in_buffer: HashMap<u32, u32> = HashMap::new();
        let mut pkt_out_buffer: HashMap<u32, u32> = HashMap::new();
        let mut lost_ctrl: u64 = 0;
        let mut degraded_enters: u64 = 0;
        let mut degraded_exits: u64 = 0;
        let mut progress_since_enter = false;
        // Crash-plane state: the switch's current epoch, the epochs announced
        // by controller restarts/takeovers, and each live buffer id's
        // admission epoch.
        let mut switch_epoch: u32 = 1;
        let mut announced_epochs: Vec<u32> = Vec::new();
        let mut entry_epoch: HashMap<u32, u32> = HashMap::new();

        for e in events {
            match e.kind {
                EventKind::BufferEnqueue {
                    buffer_id,
                    occupancy,
                    fresh,
                } => {
                    if occupancy > capacity {
                        violations.push(Violation {
                            invariant: "occupancy-bound",
                            detail: format!(
                                "occupancy {occupancy} exceeds capacity {capacity} at {}",
                                fmt_dur(e.at)
                            ),
                        });
                    }
                    *outstanding.entry(buffer_id).or_insert(0) += 1;
                    if fresh {
                        *fresh_allocs.entry(buffer_id).or_insert(0) += 1;
                        last_request.insert(buffer_id, e.at);
                        retry_streak.insert(buffer_id, 0);
                        entry_epoch.insert(buffer_id, switch_epoch);
                    } else {
                        entry_epoch.entry(buffer_id).or_insert(switch_epoch);
                    }
                }
                EventKind::BufferRerequest { buffer_id, .. } => {
                    *rerequests.entry(buffer_id).or_insert(0) += 1;
                    let streak = retry_streak.entry(buffer_id).or_insert(0);
                    *streak += 1;
                    if knobs.retry.budget > 0 && *streak > knobs.retry.budget {
                        violations.push(Violation {
                            invariant: "retry-budget",
                            detail: format!(
                                "buffer {buffer_id} re-requested {streak} times against a budget of {}",
                                knobs.retry.budget
                            ),
                        });
                    }
                    if let (Some(timeout), Some(&prev)) = (timeout, last_request.get(&buffer_id)) {
                        if e.at < prev + timeout {
                            violations.push(Violation {
                                invariant: "rerequest-before-timeout",
                                detail: format!(
                                    "buffer {buffer_id} re-requested after {} < timeout {}",
                                    fmt_dur(e.at - prev),
                                    fmt_dur(timeout)
                                ),
                            });
                        }
                    }
                    last_request.insert(buffer_id, e.at);
                }
                EventKind::BufferReconcile { buffer_id, .. } => {
                    // A reconciliation re-announce is an extra legitimate
                    // `packet_in` for the slot; it does not touch the retry
                    // budget or the timeout clock.
                    *reconciles.entry(buffer_id).or_insert(0) += 1;
                }
                EventKind::BufferDrain {
                    buffer_id,
                    released,
                    ..
                } => {
                    progress_since_enter = true;
                    if let Some(&admitted) = entry_epoch.get(&buffer_id) {
                        if admitted < switch_epoch && released > 0 {
                            violations.push(Violation {
                                invariant: "no-cross-epoch-drain",
                                detail: format!(
                                    "buffer {buffer_id} admitted under epoch {admitted} drained \
                                     while the switch serves epoch {switch_epoch}"
                                ),
                            });
                        }
                    }
                    let held = outstanding.entry(buffer_id).or_insert(0);
                    if *held <= 0 && released > 0 {
                        violations.push(Violation {
                            invariant: "no-stale-drain",
                            detail: format!(
                                "buffer {buffer_id} drained {released} packets from an already \
                                 emptied slot (stale release let through)"
                            ),
                        });
                    } else if (released as i64) > *held {
                        violations.push(Violation {
                            invariant: "buffer-bookkeeping",
                            detail: format!(
                                "buffer {buffer_id} released {released} packets but held {held}"
                            ),
                        });
                    }
                    *held -= released as i64;
                    if *held <= 0 {
                        last_request.remove(&buffer_id);
                        entry_epoch.remove(&buffer_id);
                    }
                }
                EventKind::BufferExpire { buffer_id, .. } => {
                    let held = outstanding.entry(buffer_id).or_insert(0);
                    if *held <= 0 {
                        violations.push(Violation {
                            invariant: "buffer-bookkeeping",
                            detail: format!(
                                "buffer {buffer_id} expired a packet from an empty slot"
                            ),
                        });
                    }
                    *held -= 1;
                    if *held <= 0 {
                        last_request.remove(&buffer_id);
                        entry_epoch.remove(&buffer_id);
                    }
                }
                EventKind::BufferGiveUp {
                    buffer_id, drained, ..
                } => {
                    let held = outstanding.entry(buffer_id).or_insert(0);
                    if (drained as i64) > *held {
                        violations.push(Violation {
                            invariant: "buffer-bookkeeping",
                            detail: format!(
                                "buffer {buffer_id} gave up {drained} packets but held {held}"
                            ),
                        });
                    }
                    *held -= drained as i64;
                    last_request.remove(&buffer_id);
                    retry_streak.remove(&buffer_id);
                    entry_epoch.remove(&buffer_id);
                }
                EventKind::CtrlRestart { epoch, .. }
                | EventKind::FailoverTakeover { epoch, .. } => {
                    announced_epochs.push(epoch);
                }
                EventKind::EpochBump {
                    from,
                    to,
                    survivors,
                } => {
                    if from != switch_epoch || to != from + 1 {
                        violations.push(Violation {
                            invariant: "epoch-monotonicity",
                            detail: format!(
                                "epoch bump {from} -> {to} while the switch served epoch \
                                 {switch_epoch} (epochs must step up by exactly one)"
                            ),
                        });
                    }
                    if !announced_epochs.contains(&to) {
                        violations.push(Violation {
                            invariant: "handshake-before-service",
                            detail: format!(
                                "switch moved to epoch {to} without a controller restart or \
                                 takeover announcing it (no re-handshake happened)"
                            ),
                        });
                    }
                    // Migrate surviving entries only when the bump re-tagged
                    // every live one — the broken-epoch sabotage re-tags none,
                    // and this count mismatch is what exposes it.
                    let live: Vec<u32> = outstanding
                        .iter()
                        .filter(|&(_, &held)| held > 0)
                        .map(|(&id, _)| id)
                        .collect();
                    if survivors == live.len() {
                        for id in live {
                            entry_epoch.insert(id, to);
                        }
                    }
                    switch_epoch = to;
                }
                EventKind::FlowRuleInstalled { .. } => {
                    progress_since_enter = true;
                }
                EventKind::DegradedEnter { .. } => {
                    degraded_enters += 1;
                    progress_since_enter = false;
                }
                EventKind::DegradedExit { .. } => {
                    degraded_exits += 1;
                }
                // Shedding an unbuffered request destroys the packet data it
                // carried; a buffered one leaves the data at the switch.
                EventKind::AdmissionShed {
                    buffered: false, ..
                } => {
                    lost_ctrl += 1;
                }
                EventKind::PacketInSent { xid, buffer_id, .. } => {
                    pkt_in_buffer.insert(xid, buffer_id);
                    if buffer_id != no_buffer {
                        *pkt_ins.entry(buffer_id).or_insert(0) += 1;
                    }
                }
                EventKind::PacketOutSent { xid, buffer_id } => {
                    pkt_out_buffer.insert(xid, buffer_id);
                }
                EventKind::CtrlDrop {
                    dir, xid, label, ..
                } => {
                    // A dropped control message destroys packet data only when
                    // it carried the full packet (the no-buffer sentinel);
                    // buffered flows keep their data at the switch.
                    let carried_data = match (dir, label) {
                        (ChannelDir::ToController, "packet_in") => {
                            pkt_in_buffer.get(&xid) == Some(&no_buffer)
                        }
                        (ChannelDir::ToSwitch, "packet_out") => {
                            pkt_out_buffer.get(&xid) == Some(&no_buffer)
                        }
                        _ => false,
                    };
                    if carried_data {
                        lost_ctrl += 1;
                    }
                }
                _ => {}
            }
        }

        // The parent walked `pkt_ins` in SipHash order, a different one each
        // process; sorted here so that reports compare.
        let mut by_id: Vec<(&u32, &u64)> = pkt_ins.iter().collect();
        by_id.sort_unstable();
        for (id, &n) in by_id {
            let expected = fresh_allocs.get(id).copied().unwrap_or(0)
                + rerequests.get(id).copied().unwrap_or(0)
                + reconciles.get(id).copied().unwrap_or(0);
            if n != expected {
                violations.push(Violation {
                    invariant: "single-request-per-flow",
                    detail: format!(
                        "buffer {id}: {n} packet_ins for {expected} allocations + re-requests + \
                         reconciles"
                    ),
                });
            }
        }

        let rerequest_total: u64 = rerequests.values().sum();
        if result.rerequests != rerequest_total {
            violations.push(Violation {
                invariant: "rerequest-accounting",
                detail: format!(
                    "stats counted {} re-requests, trace shows {rerequest_total}",
                    result.rerequests
                ),
            });
        }
        let reconcile_total: u64 = reconciles.values().sum();
        if result.reconcile_rerequests != reconcile_total {
            violations.push(Violation {
                invariant: "reconcile-accounting",
                detail: format!(
                    "stats counted {} reconciliation re-announces, trace shows {reconcile_total}",
                    result.reconcile_rerequests
                ),
            });
        }

        let stranded: i64 = outstanding.values().filter(|&&v| v > 0).sum();

        // `lost_ctrl` can overcount (a duplicate of a dropped message may still
        // arrive), so conservation is an inequality — a real leak makes the
        // left side fall short of `sent`.
        let accounted =
            result.packets_delivered + result.packets_dropped + stranded as u64 + lost_ctrl;
        if accounted < result.packets_sent {
            violations.push(Violation {
                invariant: "packet-conservation",
                detail: format!(
                    "sent {} but only {accounted} accounted for (delivered {} + data-dropped {} \
                     + stranded {stranded} + lost-in-control {lost_ctrl})",
                    result.packets_sent, result.packets_delivered, result.packets_dropped
                ),
            });
        }

        // A duplicated full-packet control message can legitimately deliver the
        // same packet twice, so the upper bound only holds when no full packet
        // crossed a duplicating channel.
        let dup_possible = plan.to_controller.duplicate > 0.0 || plan.to_switch.duplicate > 0.0;
        let full_packets_in_ctrl = mech == BufferMode::NoBuffer || result.buffer_fallbacks > 0;
        if result.packets_delivered > result.packets_sent && !(dup_possible && full_packets_in_ctrl)
        {
            violations.push(Violation {
                invariant: "packet-conservation",
                detail: format!(
                    "delivered {} exceeds sent {}",
                    result.packets_delivered, result.packets_sent
                ),
            });
        }

        if knobs.ttl != Nanos::ZERO && stranded > 0 {
            violations.push(Violation {
                invariant: "buffer-expiry",
                detail: format!(
                    "{stranded} packets outlived the {} TTL stranded in the buffer",
                    fmt_dur(knobs.ttl)
                ),
            });
        }

        if degraded_enters > degraded_exits && progress_since_enter {
            violations.push(Violation {
                invariant: "degraded-recovery",
                detail: format!(
                    "switch still degraded after the run ({degraded_enters} entries, \
                     {degraded_exits} exits) despite controller progress since the last entry"
                ),
            });
        }

        // TTL expiry, a finite retry budget and degraded-mode shedding each
        // deliberately trade delivery for boundedness, so the delivery
        // guarantee only holds with all three disarmed.
        let recovery_neutral =
            knobs.ttl == Nanos::ZERO && knobs.retry.budget == 0 && knobs.degraded_threshold == 0;
        // A crash legitimately sheds fresh misses while the switch suspects
        // the controller dead (accounted as drops), so the full delivery
        // guarantee is replaced by crash-recovery-drain below.
        let guarantees_delivery = matches!(mech, BufferMode::FlowGranularity { .. })
            && !plan.disturbs_data()
            && recovery_neutral
            && !plan.has_crashes();
        if guarantees_delivery {
            if result.packets_delivered < result.packets_sent {
                violations.push(Violation {
                    invariant: "eventual-delivery",
                    detail: format!(
                        "flow granularity delivered only {} of {} packets under a \
                         control-channel-only fault plan",
                        result.packets_delivered, result.packets_sent
                    ),
                });
            }
            if stranded > 0 {
                violations.push(Violation {
                    invariant: "buffer-id-leak",
                    detail: format!(
                        "{stranded} packets still buffered across {} ids after the run",
                        outstanding.values().filter(|&&v| v > 0).count()
                    ),
                });
            }
        }

        // Across a crash, post-restart reconciliation must re-announce every
        // surviving entry: the run may shed packets (accounted drops) but the
        // buffer drains completely.
        let crash_guarantees_drain = matches!(mech, BufferMode::FlowGranularity { .. })
            && plan.has_crashes()
            && !plan.disturbs_data()
            && recovery_neutral;
        if crash_guarantees_drain && stranded > 0 {
            violations.push(Violation {
                invariant: "crash-recovery-drain",
                detail: format!(
                    "{stranded} packets stranded in the buffer after a crash — \
                     reconciliation failed to re-announce them"
                ),
            });
        }

        violations
    }

    /// Every sabotage the self-tests use, plus none.
    fn sabotages() -> [Sabotage; 4] {
        [
            Sabotage::none(),
            Sabotage::no_rerequest(),
            Sabotage::no_ttl_gc(),
            Sabotage::no_epoch_guard(),
        ]
    }

    #[test]
    fn streaming_checker_reports_what_the_ten_map_walk_reported() {
        let mechs = [
            BufferMode::NoBuffer,
            BufferMode::PacketGranularity { capacity: 256 },
            // Small enough to overflow into full-packet fallbacks.
            BufferMode::PacketGranularity { capacity: 4 },
            BufferMode::FlowGranularity {
                capacity: 256,
                timeout: Nanos::from_millis(20),
            },
        ];
        let mut scenarios: Vec<ChaosScenario> =
            recovery_matrix().into_iter().map(|c| c.1).collect();
        // A stall that outlasts the retry budget: the switch gives flows up,
        // degrades, and leaves degraded mode when the controller answers.
        let stalled = ChaosScenario {
            mech: mechs[3],
            plan: FaultPlan {
                seed: 5,
                stalls: vec![Window::new(Nanos::from_millis(45), Nanos::from_millis(160))],
                ..FaultPlan::default()
            },
            recovery: RecoveryKnobs {
                retry: RetryPolicy::backoff(Nanos::from_millis(40), 1),
                ttl: Nanos::ZERO,
                degraded_threshold: 2,
            },
            ..scenarios[0].clone()
        };
        scenarios.push(stalled);
        for seed in 0..40 {
            for mech in mechs {
                scenarios.push(ChaosScenario::generate(seed, mech));
                scenarios.push(ChaosScenario::generate_with_crashes(seed, mech));
            }
        }
        // Knobs and a mechanism the runs did not have, so that the budget,
        // TTL, capacity and timeout branches report on intact streams too.
        let strict = RecoveryKnobs {
            retry: RetryPolicy::backoff(Nanos::from_millis(100), 1),
            ttl: Nanos::from_millis(1),
            degraded_threshold: 1,
        };
        let cramped = BufferMode::FlowGranularity {
            capacity: 2,
            timeout: Nanos::from_secs(1),
        };
        let mut seen: Vec<&'static str> = Vec::new();
        let mut compare = |s: &ChaosScenario, mech, knobs, result: &RunResult, events: &[Event]| {
            let render = |vs: Vec<Violation>| -> Vec<String> {
                vs.iter()
                    .map(|v| format!("{}: {}", v.invariant, v.detail))
                    .collect()
            };
            let got = check_invariants(mech, &s.plan, knobs, result, events);
            seen.extend(got.iter().map(|v| v.invariant));
            let expected = reference_check(mech, &s.plan, knobs, result, events);
            assert_eq!(render(got), render(expected), "{}", s.to_spec());
        };
        let mut rng = SimRng::seed_from(16);
        for scenario in &scenarios {
            for sabotage in sabotages() {
                let (result, events) = execute(scenario, sabotage);
                compare(scenario, scenario.mech, scenario.recovery, &result, &events);
                compare(scenario, cramped, strict, &result, &events);
                if sabotage != Sabotage::none() || events.is_empty() {
                    continue;
                }
                // Streams no run produces — an event lost, one repeated, the
                // counters off by one — reach the bookkeeping, accounting
                // and epoch-order branches.
                for _ in 0..4 {
                    let at = rng.gen_range(events.len() as u64) as usize;
                    let mut lost = events.clone();
                    lost.remove(at);
                    compare(scenario, scenario.mech, scenario.recovery, &result, &lost);
                    let mut repeated = events.clone();
                    repeated.insert(at, events[at]);
                    compare(scenario, scenario.mech, strict, &result, &repeated);
                }
                let last_exit = events
                    .iter()
                    .rposition(|e| matches!(e.kind, EventKind::DegradedExit { .. }));
                if let Some(at) = last_exit {
                    let mut stuck = events.clone();
                    stuck.remove(at);
                    compare(scenario, scenario.mech, scenario.recovery, &result, &stuck);
                }
                let miscounted = RunResult {
                    rerequests: result.rerequests + 1,
                    reconcile_rerequests: result.reconcile_rerequests + 1,
                    packets_sent: result.packets_sent + 1,
                    ..result.clone()
                };
                compare(
                    scenario,
                    scenario.mech,
                    scenario.recovery,
                    &miscounted,
                    &events,
                );
            }
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(
            seen,
            [
                "buffer-bookkeeping",
                "buffer-expiry",
                "buffer-id-leak",
                "crash-recovery-drain",
                "degraded-recovery",
                "epoch-monotonicity",
                "eventual-delivery",
                "handshake-before-service",
                "no-cross-epoch-drain",
                "no-stale-drain",
                "occupancy-bound",
                "packet-conservation",
                "reconcile-accounting",
                "rerequest-accounting",
                "rerequest-before-timeout",
                "retry-budget",
                "single-request-per-flow",
            ],
            "every invariant must have been reported at least once"
        );
    }

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        let a = ChaosScenario::generate(7, flow_mech());
        let b = ChaosScenario::generate(7, flow_mech());
        assert_eq!(a, b);
        let c = ChaosScenario::generate(8, flow_mech());
        assert_ne!(a, c);
    }

    #[test]
    fn spec_round_trips_generated_scenarios() {
        for seed in 0..25 {
            let s = ChaosScenario::generate(seed, flow_mech());
            let spec = s.to_spec();
            assert_eq!(ChaosScenario::parse(&spec).expect(&spec), s, "spec: {spec}");
        }
        let s = ChaosScenario::generate(3, BufferMode::PacketGranularity { capacity: 64 });
        assert_eq!(ChaosScenario::parse(&s.to_spec()).unwrap(), s);
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!(ChaosScenario::parse("mech=flow:256:50ms,wl=cross:4x3/2,rate=30").is_err());
        assert!(ChaosScenario::parse("nonsense").is_err());
        assert!(ChaosScenario::parse("mech=bogus,wl=cross:4x3/2,rate=30,seed=1").is_err());
        assert!(
            ChaosScenario::parse("mech=flow:256:50ms,wl=cross:4x3/2,rate=30,seed=1,zz=1").is_err()
        );
        // Each would go wrong mid-run: a zero rate panics in `BitRate`, a
        // rate whose bits per second overflow a `u64` wraps to another
        // rate, and a zero group panics in the cross-sequenced generator.
        for (spec, named) in [
            ("mech=none,wl=single:3,rate=0,seed=1", "'0'"),
            (
                "mech=none,wl=single:3,rate=18446744073710,seed=1",
                "'18446744073710'",
            ),
            ("mech=none,wl=cross:5x5/0,rate=1,seed=1", "'cross:5x5/0'"),
        ] {
            let err = ChaosScenario::parse(spec).unwrap_err();
            assert!(err.contains(named), "{spec}: {err}");
        }
        assert!(ChaosScenario::parse("mech=none,wl=single:3,rate=18446744073709,seed=1").is_ok());
    }

    #[test]
    fn clean_scenarios_pass_every_invariant() {
        for mech in [BufferMode::PacketGranularity { capacity: 256 }, flow_mech()] {
            let s = ChaosScenario {
                mech,
                workload: small_workload(),
                rate_mbps: 30,
                seed: 5,
                plan: FaultPlan::default(),
                recovery: RecoveryKnobs::default(),
                standby: None,
            };
            let report = run_scenario(&s, Sabotage::none());
            assert!(report.violations.is_empty(), "{:?}", report.violations);
            assert_eq!(report.result.packets_delivered, report.result.packets_sent);
        }
    }

    #[test]
    fn replay_from_spec_is_byte_identical() {
        let s = ChaosScenario::generate(3, flow_mech());
        let a = run_scenario(&s, Sabotage::none());
        let b = run_scenario(
            &ChaosScenario::parse(&s.to_spec()).unwrap(),
            Sabotage::none(),
        );
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.result, b.result);
    }

    #[test]
    fn disabled_rerequest_is_caught_and_minimized() {
        // Deterministic loss on the packet_in path: with re-request (and
        // with it the whole of Algorithm 1 lines 12-13) disabled, the
        // flows whose requests are dropped stay stranded forever.
        let mut plan = FaultPlan {
            seed: 1,
            ..FaultPlan::default()
        };
        plan.to_controller.loss = LossModel::EveryNth(4);
        plan.to_controller.delay = Nanos::from_micros(300);
        let s = ChaosScenario {
            mech: flow_mech(),
            workload: small_workload(),
            rate_mbps: 40,
            seed: 2,
            plan,
            recovery: RecoveryKnobs::default(),
            standby: None,
        };
        let report = run_scenario(&s, Sabotage::no_rerequest());
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.invariant == "eventual-delivery"),
            "expected an eventual-delivery violation, got {:?}",
            report.violations
        );

        // The shrinker must keep the loss (the cause) and drop the delay
        // (irrelevant), and the minimized scenario must replay
        // byte-identically from its printed spec.
        let min = minimize(&s, Sabotage::no_rerequest());
        assert_eq!(min.plan.to_controller.delay, Nanos::ZERO);
        assert!(!min.plan.to_controller.loss.is_none());
        let a = run_scenario(&min, Sabotage::no_rerequest());
        assert!(!a.violations.is_empty());
        let b = run_scenario(
            &ChaosScenario::parse(&min.to_spec()).unwrap(),
            Sabotage::no_rerequest(),
        );
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    fn intact_mechanism_survives_the_same_plan() {
        let mut plan = FaultPlan {
            seed: 1,
            ..FaultPlan::default()
        };
        plan.to_controller.loss = LossModel::EveryNth(4);
        let s = ChaosScenario {
            mech: flow_mech(),
            workload: small_workload(),
            rate_mbps: 40,
            seed: 2,
            plan,
            recovery: RecoveryKnobs::default(),
            standby: None,
        };
        let report = run_scenario(&s, Sabotage::none());
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.result.packets_delivered, report.result.packets_sent);
    }

    #[test]
    fn recovery_knobs_round_trip_through_the_spec() {
        let s = ChaosScenario {
            mech: flow_mech(),
            workload: small_workload(),
            rate_mbps: 30,
            seed: 5,
            plan: FaultPlan::default(),
            recovery: RecoveryKnobs {
                retry: RetryPolicy {
                    jitter: Nanos::from_millis(2),
                    seed: 7,
                    ..RetryPolicy::backoff(Nanos::from_millis(400), 6)
                },
                ttl: Nanos::from_millis(250),
                degraded_threshold: 3,
            },
            standby: None,
        };
        let spec = s.to_spec();
        assert!(spec.contains("retry="), "spec: {spec}");
        assert!(spec.contains("ttl=250ms"), "spec: {spec}");
        assert!(spec.contains("degraded=3"), "spec: {spec}");
        assert_eq!(ChaosScenario::parse(&spec).expect(&spec), s, "spec: {spec}");

        // Default knobs keep the spec exactly as it was before the
        // recovery plane existed.
        let plain = ChaosScenario {
            recovery: RecoveryKnobs::default(),
            ..s
        };
        assert!(!plain.to_spec().contains("retry="));
        assert!(ChaosScenario::parse(
            "mech=flow:256:50ms,wl=cross:4x3/2,rate=30,seed=1,retry=1:2:3"
        )
        .is_err());
    }

    #[test]
    fn broken_ttl_gc_is_caught_and_minimized() {
        // Packet granularity has no re-request loop, so a dropped
        // packet_out strands its buffer entry; the armed TTL is the only
        // thing that reclaims it. Disabling the garbage collector while
        // leaving the TTL configured must trip the buffer-expiry invariant.
        let mut plan = FaultPlan {
            seed: 1,
            ..FaultPlan::default()
        };
        plan.to_switch.loss = LossModel::EveryNth(3);
        plan.to_controller.delay = Nanos::from_micros(300);
        let s = ChaosScenario {
            mech: BufferMode::PacketGranularity { capacity: 256 },
            workload: small_workload(),
            rate_mbps: 40,
            seed: 2,
            plan,
            recovery: RecoveryKnobs {
                ttl: Nanos::from_millis(100),
                ..RecoveryKnobs::default()
            },
            standby: None,
        };
        let intact = run_scenario(&s, Sabotage::none());
        assert!(intact.violations.is_empty(), "{:?}", intact.violations);
        assert!(intact.result.buffer_expired > 0);

        let broken = run_scenario(&s, Sabotage::no_ttl_gc());
        assert!(
            broken
                .violations
                .iter()
                .any(|v| v.invariant == "buffer-expiry"),
            "expected a buffer-expiry violation, got {:?}",
            broken.violations
        );

        // The shrinker keeps the packet_out loss (the cause) and drops the
        // irrelevant ingress delay.
        let min = minimize(&s, Sabotage::no_ttl_gc());
        assert_eq!(min.plan.to_controller.delay, Nanos::ZERO);
        assert!(!min.plan.to_switch.loss.is_none());
        let a = run_scenario(&min, Sabotage::no_ttl_gc());
        assert!(!a.violations.is_empty());
        let b = run_scenario(
            &ChaosScenario::parse(&min.to_spec()).unwrap(),
            Sabotage::no_ttl_gc(),
        );
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    fn retry_budget_bounds_rerequests_under_sustained_loss() {
        // Near-total packet_in loss: without a budget flow granularity
        // would re-request forever; with one it gives up, drains, and the
        // retry-budget invariant holds over the whole trace.
        let mut plan = FaultPlan {
            seed: 3,
            ..FaultPlan::default()
        };
        plan.to_controller.loss = LossModel::Probabilistic(0.9);
        let s = ChaosScenario {
            mech: flow_mech(),
            workload: small_workload(),
            rate_mbps: 40,
            seed: 2,
            plan,
            recovery: RecoveryKnobs {
                retry: RetryPolicy::backoff(Nanos::from_millis(200), 2),
                ..RecoveryKnobs::default()
            },
            standby: None,
        };
        let report = run_scenario(&s, Sabotage::none());
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(
            report.result.buffer_giveups > 0,
            "expected give-ups under 90% packet_in loss, got {:?}",
            report.result
        );
    }

    #[test]
    fn recovery_matrix_cells_pass_every_invariant() {
        let cells = recovery_matrix();
        assert_eq!(cells.len(), 8);
        for (label, scenario) in &cells {
            let spec = scenario.to_spec();
            assert_eq!(
                ChaosScenario::parse(&spec).expect(&spec),
                *scenario,
                "cell {label}"
            );
            let report = run_scenario(scenario, Sabotage::none());
            assert!(
                report.violations.is_empty(),
                "cell {label}: {:?}",
                report.violations
            );
        }
        // The crash column actually crashes: its cells record the outage.
        // (No epoch-bump assertion here: the matrix's 35% `to_switch` loss
        // can eat the re-handshake, which is itself a legal outcome the
        // invariants must tolerate. The dedicated crash tests below use a
        // clean channel and do assert the bump.)
        for (label, scenario) in &cells {
            if label.ends_with("/crash") {
                let report = run_scenario(scenario, Sabotage::none());
                assert_eq!(report.result.ctrl_crashes, 1, "cell {label}");
            }
        }
    }

    /// A crash scenario with survivors in the buffer when the controller
    /// dies: flow granularity with a short re-request timeout (so stranded
    /// flows re-announce themselves right after the restart), a crash
    /// window opening mid-data-phase, and an ingress delay that keeps
    /// responses in flight when the crash hits.
    fn crash_scenario() -> ChaosScenario {
        let mut plan = FaultPlan {
            seed: 1,
            ..FaultPlan::default()
        };
        plan.crashes
            .push(Window::new(Nanos::from_millis(52), Nanos::from_millis(82)));
        plan.to_controller.delay = Nanos::from_micros(300);
        ChaosScenario {
            mech: BufferMode::FlowGranularity {
                capacity: 256,
                timeout: Nanos::from_millis(10),
            },
            workload: small_workload(),
            rate_mbps: 40,
            seed: 2,
            plan,
            recovery: RecoveryKnobs::default(),
            standby: None,
        }
    }

    #[test]
    fn crash_scenarios_round_trip_and_pass_when_intact() {
        for seed in 0..12 {
            let s = ChaosScenario::generate_with_crashes(seed, flow_mech());
            assert!(s.plan.has_crashes());
            assert_eq!(s, ChaosScenario::generate_with_crashes(seed, flow_mech()));
            let spec = s.to_spec();
            assert_eq!(ChaosScenario::parse(&spec).expect(&spec), s, "spec: {spec}");
            let report = run_scenario(&s, Sabotage::none());
            assert!(
                report.violations.is_empty(),
                "seed {seed}: {:?}",
                report.violations
            );
        }
    }

    #[test]
    fn broken_epoch_guard_is_caught_and_minimized() {
        let s = crash_scenario();
        // Intact: the bump migrates survivors, reconciliation re-announces
        // them, and the run passes everything.
        let intact = run_scenario(&s, Sabotage::none());
        assert!(intact.violations.is_empty(), "{:?}", intact.violations);
        assert!(intact.result.epoch_bumps >= 1);

        // Guard disabled: entries stay tagged with the dead epoch and the
        // retry loop drains them across the bump.
        let broken = run_scenario(&s, Sabotage::no_epoch_guard());
        assert!(
            broken
                .violations
                .iter()
                .any(|v| v.invariant == "no-cross-epoch-drain"),
            "expected a no-cross-epoch-drain violation, got {:?}",
            broken.violations
        );

        // The shrinker keeps the crash window (the cause) and the
        // minimized scenario replays byte-identically from its printed
        // spec.
        let min = minimize(&s, Sabotage::no_epoch_guard());
        assert!(!min.plan.crashes.is_empty());
        let a = run_scenario(&min, Sabotage::no_epoch_guard());
        assert!(!a.violations.is_empty());
        let b = run_scenario(
            &ChaosScenario::parse(&min.to_spec()).unwrap(),
            Sabotage::no_epoch_guard(),
        );
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    fn standby_failover_cell_passes_and_records_the_takeover() {
        let mut s = crash_scenario();
        // The primary never returns: only the takeover restores service.
        s.plan.crashes = vec![Window::new(Nanos::from_millis(52), Nanos::from_secs(10))];
        s.standby = Some(StandbyKnobs {
            warm: true,
            takeover_delay: Nanos::from_millis(8),
        });
        let spec = s.to_spec();
        assert!(spec.contains("standby=warm:8ms"), "spec: {spec}");
        assert_eq!(ChaosScenario::parse(&spec).expect(&spec), s);
        let report = run_scenario(&s, Sabotage::none());
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.result.failover_takeovers, 1);
        assert!(report.result.epoch_bumps >= 1);
    }
}
