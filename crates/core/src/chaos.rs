//! Seeded chaos harness over the fault-injection plane.
//!
//! Simulation testing in the FoundationDB style: [`ChaosScenario::generate`]
//! samples a randomized but fully determined scenario from a master seed —
//! a buffer mechanism, a small cross-sequenced workload and a composable
//! [`FaultPlan`] — and [`run_scenario`] executes it on a fresh [`Testbed`],
//! holding every event, as it is emitted, to the protocol invariants of
//! [`crate::invariants`] and folding it into the stream digest.
//!
//! Every scenario serializes to a one-line spec ([`ChaosScenario::to_spec`])
//! that [`ChaosScenario::parse`] restores exactly, so a failing run prints a
//! single replay command that reproduces the violation byte-identically.
//! [`minimize`] greedily shrinks a failing plan to a minimal set of faults
//! that still violates an invariant.

use crate::invariants::Invariants;
pub use crate::invariants::{check_invariants, RecoveryKnobs, Violation};
use crate::observe::EventDigest;
use crate::shrink::shrink_to_fixpoint;
use crate::testbed::FailoverConfig;
use crate::{parse_rate_mbps, BufferMode, RunResult, Testbed, TestbedConfig, WorkloadKind};
use sdnbuf_sim::faults::{fmt_dur, parse_dur};
use sdnbuf_sim::{
    BitRate, ChannelFaults, Event, EventSink, FaultPlan, LossModel, Nanos, SimRng, Tracer, Window,
};
use sdnbuf_switchbuf::RetryPolicy;
pub use sdnbuf_switchbuf::Sabotage;
use sdnbuf_workload::PktgenConfig;
use std::cell::RefCell;
use std::rc::Rc;

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
    checker: Invariants,
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
        checker: Invariants::new(scenario.mech, &scenario.plan, scenario.recovery),
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
    .with_violations(violations)
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
    let window_lists: [fn(&mut FaultPlan) -> &mut Vec<Window>; 5] = [
        |p| &mut p.stalls,
        |p| &mut p.flaps,
        |p| &mut p.pressure,
        |p| &mut p.crashes,
        |p| &mut p.crashes_standby,
    ];
    for windows in window_lists {
        for i in 0..windows(&mut plan.clone()).len() {
            let mut p = plan.clone();
            windows(&mut p).remove(i);
            out.push(p);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
