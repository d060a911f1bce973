//! Seeded chaos harness over the fault-injection plane.
//!
//! Simulation testing in the FoundationDB style: [`RunSpec::generate`]
//! samples a randomized but fully determined scenario from a master seed —
//! a buffer mechanism, a small cross-sequenced workload and a composable
//! [`FaultPlan`] — and [`run_scenario`] executes it on a fresh
//! [`crate::Testbed`], holding every event, as it is emitted, to the
//! protocol invariants of [`crate::invariants`] and folding it into the
//! stream digest.
//!
//! A scenario is a [`RunSpec`], so it prints as the one-line spec that
//! `sdnlab chaos --replay` parses back exactly: a failing run prints a
//! single replay command that reproduces the violation byte-identically.
//! [`minimize`] greedily shrinks a failing plan to a minimal set of faults
//! that still violates an invariant.

use crate::invariants::Invariants;
pub use crate::invariants::{check_invariants, RecoveryKnobs, Violation};
use crate::observe::EventDigest;
use crate::shrink::shrink_to_fixpoint;
use crate::{BufferMode, RunResult, RunSpec, StandbyKnobs, WorkloadKind};
use sdnbuf_sim::{
    ChannelFaults, Event, EventSink, FaultPlan, LossModel, Nanos, SimRng, Tracer, Window,
};
use sdnbuf_switchbuf::RetryPolicy;
pub use sdnbuf_switchbuf::Sabotage;
use std::cell::RefCell;
use std::rc::Rc;

/// A chaos scenario is a [`RunSpec`]: the name stays for the callers that
/// sample and run scenarios outside this crate.
pub type ChaosScenario = RunSpec;

impl RunSpec {
    /// Samples scenario `master_seed` for `mech` — a pure function of its
    /// arguments, so the chaos sweep that found a violation and the replay
    /// that debugs it construct the same scenario.
    pub fn generate(master_seed: u64, mech: BufferMode) -> RunSpec {
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

        RunSpec {
            mech,
            workload,
            rate_mbps,
            seed: 1 + rng.gen_range(1_000_000),
            plan,
            // The sweep runs with default recovery knobs so its catch rates
            // stay comparable across PRs; the recovery matrix
            // ([`recovery_matrix`]) turns the knobs on explicitly.
            ..RunSpec::default()
        }
    }

    /// [`RunSpec::generate`] plus the crash plane: one or two
    /// controller crash windows inside the data phase, and — every third
    /// scenario — a warm or cold standby (whose own crash window is then
    /// sometimes sampled too). A pure function of its arguments, like
    /// `generate`.
    pub fn generate_with_crashes(master_seed: u64, mech: BufferMode) -> RunSpec {
        let mut s = RunSpec::generate(master_seed, mech);
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
}

/// A window of `1..=max_ms` milliseconds starting inside the data phase
/// (which begins at the 50 ms warm-up gap).
fn window_near_data_phase(rng: &mut SimRng, max_ms: u64) -> Window {
    let from = Nanos::from_millis(48 + rng.gen_range(30));
    Window::new(from, from + Nanos::from_millis(1 + rng.gen_range(max_ms)))
}

/// Runs `scenario` on a fresh testbed with the recording tracer attached
/// and returns the measurements plus the full event stream, for callers
/// that keep the stream (flight dumps, per-layer replays); [`run_scenario`]
/// checks and digests the same stream without storing it.
///
/// `sabotage` cripples parts of the mechanism on purpose — the
/// intentionally broken variants the harness's self-test must catch via
/// the eventual-delivery and buffer-expiry invariants.
pub fn execute(scenario: &RunSpec, sabotage: Sabotage) -> (RunResult, Vec<Event>) {
    let (tracer, sink) = Tracer::recording(0);
    let result = scenario.config().run(tracer, sabotage);
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
pub fn run_scenario(scenario: &RunSpec, sabotage: Sabotage) -> ChaosReport {
    let observer = Rc::new(RefCell::new(Observer {
        checker: Invariants::new(scenario.mech, &scenario.plan, scenario.recovery),
        digest: EventDigest::default(),
    }));
    let tracer = Tracer::new(observer.clone());
    let result = scenario.config().run(tracer, sabotage);
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
pub fn minimize(scenario: &RunSpec, sabotage: Sabotage) -> RunSpec {
    let fails = |s: &RunSpec| !run_scenario(s, sabotage).violations.is_empty();
    if !fails(scenario) {
        return scenario.clone();
    }
    let one_fault_fewer = |s: &RunSpec| {
        shrink_candidates(&s.plan)
            .into_iter()
            .map(|plan| RunSpec { plan, ..s.clone() })
            .collect()
    };
    shrink_to_fixpoint(scenario.clone(), one_fault_fewer, fails)
}

/// Captures a flight-recorder dump for a violating (usually minimized)
/// scenario: re-executes it deterministically and packages the replay
/// recipe — the spec `sdnlab chaos --replay` accepts — together
/// with the evidence: the violations, the event-stream tail, the spans
/// still open when the run ended, and the latency anatomy. Because runs
/// are pure functions of the scenario, replaying the embedded spec
/// reproduces the dump's digest and violations byte-for-byte.
pub fn flight_dump(scenario: &RunSpec, sabotage: Sabotage) -> crate::flightrec::FlightDump {
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
        scenario,
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
pub fn recovery_matrix() -> Vec<(String, RunSpec)> {
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
        ("fixed", RetryPolicy::Fixed),
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
                    RunSpec {
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
                        ..RunSpec::default()
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
        let a = RunSpec::generate(7, flow_mech());
        let b = RunSpec::generate(7, flow_mech());
        assert_eq!(a, b);
        let c = RunSpec::generate(8, flow_mech());
        assert_ne!(a, c);
    }

    #[test]
    fn spec_round_trips_generated_scenarios() {
        for seed in 0..25 {
            let s = RunSpec::generate(seed, flow_mech());
            let spec = s.to_string();
            assert_eq!(spec.parse::<RunSpec>().expect(&spec), s, "spec: {spec}");
        }
        let s = RunSpec::generate(3, BufferMode::PacketGranularity { capacity: 64 });
        assert_eq!(s.to_string().parse::<RunSpec>().unwrap(), s);
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!("mech=flow:256:50ms,wl=cross:4x3/2,rate=30"
            .parse::<RunSpec>()
            .is_err());
        assert!("mech=flow:256:50ms,wl=cross:4x3/2,rate=30,seed=x"
            .parse::<RunSpec>()
            .is_err());
        assert!("nonsense".parse::<RunSpec>().is_err());
        assert!("mech=bogus,wl=cross:4x3/2,rate=30,seed=1"
            .parse::<RunSpec>()
            .is_err());
        assert!("mech=flow:256:50ms,wl=cross:4x3/2,rate=30,seed=1,zz=1"
            .parse::<RunSpec>()
            .is_err());
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
            let err = spec.parse::<RunSpec>().unwrap_err();
            assert!(err.contains(named), "{spec}: {err}");
        }
        assert!("mech=none,wl=single:3,rate=18446744073709,seed=1"
            .parse::<RunSpec>()
            .is_ok());
    }

    #[test]
    fn clean_scenarios_pass_every_invariant() {
        for mech in [BufferMode::PacketGranularity { capacity: 256 }, flow_mech()] {
            let s = RunSpec {
                mech,
                workload: small_workload(),
                rate_mbps: 30,
                seed: 5,
                plan: FaultPlan::default(),
                recovery: RecoveryKnobs::default(),
                ..RunSpec::default()
            };
            let report = run_scenario(&s, Sabotage::none());
            assert!(report.violations.is_empty(), "{:?}", report.violations);
            assert_eq!(report.result.packets_delivered, report.result.packets_sent);
        }
    }

    #[test]
    fn replay_from_spec_is_byte_identical() {
        let s = RunSpec::generate(3, flow_mech());
        let a = run_scenario(&s, Sabotage::none());
        let b = run_scenario(&s.to_string().parse::<RunSpec>().unwrap(), Sabotage::none());
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
        let s = RunSpec {
            mech: flow_mech(),
            workload: small_workload(),
            rate_mbps: 40,
            seed: 2,
            plan,
            recovery: RecoveryKnobs::default(),
            ..RunSpec::default()
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
            &min.to_string().parse::<RunSpec>().unwrap(),
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
        let s = RunSpec {
            mech: flow_mech(),
            workload: small_workload(),
            rate_mbps: 40,
            seed: 2,
            plan,
            recovery: RecoveryKnobs::default(),
            ..RunSpec::default()
        };
        let report = run_scenario(&s, Sabotage::none());
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.result.packets_delivered, report.result.packets_sent);
    }

    #[test]
    fn recovery_knobs_round_trip_through_the_spec() {
        let s = RunSpec {
            mech: flow_mech(),
            workload: small_workload(),
            rate_mbps: 30,
            seed: 5,
            plan: FaultPlan::default(),
            recovery: RecoveryKnobs {
                retry: RetryPolicy::Backoff {
                    cap: Nanos::from_millis(400),
                    budget: 6,
                    give_up: sdnbuf_switchbuf::GiveUp::Drop,
                },
                ttl: Nanos::from_millis(250),
                degraded_threshold: 3,
            },
            ..RunSpec::default()
        };
        let spec = s.to_string();
        assert!(spec.contains("retry="), "spec: {spec}");
        assert!(spec.contains("ttl=250ms"), "spec: {spec}");
        assert!(spec.contains("degraded=3"), "spec: {spec}");
        assert_eq!(spec.parse::<RunSpec>().expect(&spec), s, "spec: {spec}");

        // Default knobs keep the spec exactly as it was before the
        // recovery plane existed.
        let plain = RunSpec {
            recovery: RecoveryKnobs::default(),
            ..s
        };
        assert!(!plain.to_string().contains("retry="));
        assert!(
            "mech=flow:256:50ms,wl=cross:4x3/2,rate=30,seed=1,retry=1:2:3"
                .parse::<RunSpec>()
                .is_err()
        );
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
        let s = RunSpec {
            mech: BufferMode::PacketGranularity { capacity: 256 },
            workload: small_workload(),
            rate_mbps: 40,
            seed: 2,
            plan,
            recovery: RecoveryKnobs {
                ttl: Nanos::from_millis(100),
                ..RecoveryKnobs::default()
            },
            ..RunSpec::default()
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
            &min.to_string().parse::<RunSpec>().unwrap(),
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
        let s = RunSpec {
            mech: flow_mech(),
            workload: small_workload(),
            rate_mbps: 40,
            seed: 2,
            plan,
            recovery: RecoveryKnobs {
                retry: RetryPolicy::backoff(Nanos::from_millis(200), 2),
                ..RecoveryKnobs::default()
            },
            ..RunSpec::default()
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
            let spec = scenario.to_string();
            assert_eq!(
                spec.parse::<RunSpec>().expect(&spec),
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
    fn crash_scenario() -> RunSpec {
        let mut plan = FaultPlan {
            seed: 1,
            ..FaultPlan::default()
        };
        plan.crashes
            .push(Window::new(Nanos::from_millis(52), Nanos::from_millis(82)));
        plan.to_controller.delay = Nanos::from_micros(300);
        RunSpec {
            mech: BufferMode::FlowGranularity {
                capacity: 256,
                timeout: Nanos::from_millis(10),
            },
            workload: small_workload(),
            rate_mbps: 40,
            seed: 2,
            plan,
            recovery: RecoveryKnobs::default(),
            ..RunSpec::default()
        }
    }

    #[test]
    fn crash_scenarios_round_trip_and_pass_when_intact() {
        for seed in 0..12 {
            let s = RunSpec::generate_with_crashes(seed, flow_mech());
            assert!(s.plan.has_crashes());
            assert_eq!(s, RunSpec::generate_with_crashes(seed, flow_mech()));
            let spec = s.to_string();
            assert_eq!(spec.parse::<RunSpec>().expect(&spec), s, "spec: {spec}");
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
            &min.to_string().parse::<RunSpec>().unwrap(),
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
        let spec = s.to_string();
        assert!(spec.contains("standby=warm:8ms"), "spec: {spec}");
        assert_eq!(spec.parse::<RunSpec>().expect(&spec), s);
        let report = run_scenario(&s, Sabotage::none());
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.result.failover_takeovers, 1);
        assert!(report.result.epoch_bumps >= 1);
    }
}
