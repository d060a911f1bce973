//! The seeded chaos harness: hundreds of generated fault scenarios per
//! buffer mechanism, every run checked against the protocol invariants
//! over its structured event stream, and every failure replayable (and
//! shrinkable) from a one-line spec.

use proptest::prelude::*;
use sdn_buffer_lab::controller::AdmissionPolicy;
use sdn_buffer_lab::core::chaos::{
    check_invariants, execute, flight_dump, minimize, recovery_matrix, run_scenario, RecoveryKnobs,
    Sabotage, Violation,
};
use sdn_buffer_lab::core::observe::{events_digest, write_events_jsonl};
use sdn_buffer_lab::core::StandbyKnobs;
use sdn_buffer_lab::prelude::*;
use sdn_buffer_lab::sim::hash::{fnv1a, FNV_OFFSET};
use sdn_buffer_lab::switchbuf::{GiveUp, RetryPolicy};

mod common;
use common::buffering_mechanisms as mechanisms;

/// The acceptance bar: 200 seeded scenarios per mechanism, zero invariant
/// violations. A failure prints the exact one-command replay.
#[test]
fn two_hundred_seeded_scenarios_per_mechanism_hold_every_invariant() {
    for mech in mechanisms() {
        for seed in 0..200u64 {
            let scenario = RunSpec::generate(seed, mech);
            let report = run_scenario(&scenario, Sabotage::none());
            assert!(
                report.violations.is_empty(),
                "seed {seed} under {} violated {:#?}\nreplay: cargo run --release \
                 --bin sdnlab -- chaos --replay '{}'",
                mech.label(),
                report.violations,
                scenario
            );
        }
    }
}

/// Chaos runs are pure functions of `(scenario, flag)`: executing the same
/// scenario twice produces byte-identical event streams and measurements.
#[test]
fn chaos_runs_are_pure_functions_of_the_scenario() {
    for mech in mechanisms() {
        for seed in [0u64, 7, 13] {
            let scenario = RunSpec::generate(seed, mech);
            let a = run_scenario(&scenario, Sabotage::none());
            let b = run_scenario(&scenario, Sabotage::none());
            assert_eq!(a.digest, b.digest, "seed {seed}");
            assert_eq!(a.result, b.result, "seed {seed}");
        }
    }
}

/// Pinned replay: seeds 1–6, alternating 64-unit mechanisms (odd seeds flow
/// granularity with a 20 ms timeout, even seeds packet granularity), nothing
/// sabotaged. Deliveries plus recorded events, and events dispatched, move
/// only when the generator, the fault plane or the simulation does.
#[test]
fn pinned_six_seed_chaos_replay() {
    let (mut check, mut dispatched) = (0u64, 0u64);
    for seed in 1u64..=6 {
        let mech = if seed % 2 == 0 {
            BufferMode::PacketGranularity { capacity: 64 }
        } else {
            BufferMode::FlowGranularity {
                capacity: 64,
                timeout: Nanos::from_millis(20),
            }
        };
        let scenario = RunSpec::generate(seed, mech);
        let (result, trace) = execute(&scenario, Sabotage::none());
        check += result.packets_delivered + trace.len() as u64;
        dispatched += result.events_dispatched;
    }
    assert_eq!(check, 2460);
    assert_eq!(dispatched, 1345);
}

/// The spec string round-trips the scenario exactly, so the printed replay
/// command reconstructs the failing run byte-for-byte.
#[test]
fn replay_specs_round_trip_and_reproduce_digests() {
    for seed in [1u64, 42, 99] {
        let scenario = RunSpec::generate(seed, mechanisms()[1]);
        let spec = scenario.to_string();
        let parsed = spec.parse::<RunSpec>().expect(&spec);
        assert_eq!(parsed, scenario, "spec: {spec}");
        let a = run_scenario(&scenario, Sabotage::none());
        let b = run_scenario(&parsed, Sabotage::none());
        assert_eq!(a.digest, b.digest, "replay of '{spec}' diverged");
    }
}

/// `run_scenario` checks and digests the stream while it is emitted and
/// keeps none of it; `execute` records it for the slice forms. Both must
/// tell the same story — the same violations with the same words in the
/// same order, the same digest, the same measurements — whether or not the
/// mechanism under test is crippled. And that digest, which folds the
/// renderer's literals through their tables, is the plain byte loop over
/// the text the JSONL exporter writes.
#[test]
fn streamed_report_equals_the_report_over_the_recorded_stream() {
    let mechs = [
        BufferMode::NoBuffer,
        BufferMode::PacketGranularity { capacity: 256 },
        BufferMode::FlowGranularity {
            capacity: 256,
            timeout: Nanos::from_millis(20),
        },
    ];
    let sabotages = [
        Sabotage::none(),
        Sabotage::no_ttl_gc(),
        Sabotage::no_epoch_guard(),
        Sabotage::no_rerequest(),
    ];
    let told = |vs: &[Violation]| -> Vec<String> { vs.iter().map(Violation::to_string).collect() };
    let (mut runs, mut violating) = (0, 0);
    for seed in 0..60u64 {
        let mech = mechs[seed as usize % 3];
        let mut armed = RunSpec::generate_with_crashes(seed, mech);
        // A TTL for the dead garbage collector to miss.
        armed.recovery.ttl = Nanos::from_millis(100);
        for scenario in [RunSpec::generate(seed, mech), armed] {
            for sabotage in sabotages {
                let streamed = run_scenario(&scenario, sabotage);
                let (result, events) = execute(&scenario, sabotage);
                let violations = check_invariants(
                    scenario.mech,
                    &scenario.plan,
                    scenario.recovery,
                    &result,
                    &events,
                );
                let spec = scenario.to_string();
                assert_eq!(told(&streamed.violations), told(&violations), "{spec}");
                assert_eq!(streamed.digest, events_digest(&events), "{spec}");
                let mut jsonl = Vec::new();
                write_events_jsonl(&events, "", &mut jsonl).expect("a Vec takes every write");
                assert_eq!(streamed.digest, fnv1a(FNV_OFFSET, &jsonl), "{spec}");
                assert_eq!(streamed.result, result, "{spec}");
                runs += 1;
                violating += usize::from(!violations.is_empty());
            }
        }
    }
    assert_eq!(runs, 480);
    assert!(
        violating >= 30,
        "only {violating} crippled runs were caught"
    );
}

fn arb_mechanism() -> impl Strategy<Value = BufferMode> {
    prop_oneof![
        Just(BufferMode::NoBuffer),
        (1usize..100_000).prop_map(|capacity| BufferMode::PacketGranularity { capacity }),
        (1usize..100_000, 1u64..10_000_000_000).prop_map(|(capacity, ns)| {
            BufferMode::FlowGranularity {
                capacity,
                timeout: Nanos::from_nanos(ns),
            }
        }),
    ]
}

fn arb_workload() -> impl Strategy<Value = WorkloadKind> {
    let n = || 0usize..100_000;
    prop_oneof![
        n().prop_map(WorkloadKind::single_packet_flows),
        (n(), n(), 1usize..100_000).prop_map(|(n_flows, packets_per_flow, group_size)| {
            WorkloadKind::CrossSequenced {
                n_flows,
                packets_per_flow,
                group_size,
            }
        }),
        (n(), 0u64..10_000_000_000, n()).prop_map(|(first_burst, gap_ns, second_burst)| {
            WorkloadKind::TcpEviction {
                first_burst,
                idle_gap: Nanos::from_nanos(gap_ns),
                second_burst,
            }
        }),
        (n(), n(), n()).prop_map(|(n_udp_flows, n_tcp, segments_per_tcp)| {
            WorkloadKind::MixedUdpTcp {
                n_udp_flows,
                n_tcp,
                segments_per_tcp,
            }
        }),
    ]
}

fn arb_give_up() -> impl Strategy<Value = GiveUp> {
    prop_oneof![Just(GiveUp::DrainAsFullPacketIn), Just(GiveUp::Drop)]
}

fn arb_retry_policy() -> impl Strategy<Value = RetryPolicy> {
    prop_oneof![
        Just(RetryPolicy::Fixed),
        (
            prop_oneof![Just(0u64), 0u64..10_000_000_000],
            any::<u32>(),
            arb_give_up()
        )
            .prop_map(|(cap_ns, budget, give_up)| RetryPolicy::Backoff {
                cap: Nanos::from_nanos(cap_ns),
                budget,
                give_up,
            }),
    ]
}

proptest! {
    /// The one mechanism / workload grammar (`--buffer`, `--workload`,
    /// `--cells`, `mech=`, `wl=`) restores every value it prints, at any
    /// duration unit — every workload `validate` accepts, and refuses the
    /// rest.
    #[test]
    fn mechanism_and_workload_grammars_round_trip(
        mech in arb_mechanism(),
        workload in arb_workload(),
    ) {
        prop_assert_eq!(mech.to_string().parse::<BufferMode>(), Ok(mech));
        let parsed = workload.to_string().parse::<WorkloadKind>();
        prop_assert_eq!(parsed.ok(), workload.validate().ok().map(|()| workload));
    }

    /// One run description: every spec the chaos generators and the
    /// recovery matrix produce, and any spec built from the edges of
    /// every key's grammar (rates 1 and u64::MAX / 10⁶,
    /// seeds 0 and u64::MAX, every admission policy at capacities 1 and
    /// usize::MAX, an uncapped backoff, explicit heartbeats, 64- and
    /// 1500-byte frames), prints as a line that parses back to it. An
    /// admission capacity of 0 — a second spelling of "off" — is refused.
    #[test]
    fn run_specs_round_trip(
        master in any::<u64>(),
        mech in arb_mechanism(),
        rate_mbps in prop_oneof![Just(1u64), Just(u64::MAX / 1_000_000), 1u64..=u64::MAX / 1_000_000],
        seed in prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()],
        frame_size in prop_oneof![Just(64usize), Just(1500usize), 1usize..=65_535],
        retry in arb_retry_policy(),
        ttl_ns in 0u64..10_000_000_000,
        degraded_threshold in any::<u32>(),
        admission in prop_oneof![
            Just(None),
            (
                arb_admission(),
                prop_oneof![Just(1usize), Just(usize::MAX), 1usize..=usize::MAX]
            ).prop_map(Some),
        ],
        standby in prop_oneof![
            Just(None),
            (any::<bool>(), 0u64..10_000_000_000).prop_map(|(warm, ns)| {
                Some(StandbyKnobs { warm, takeover_delay: Nanos::from_nanos(ns) })
            }),
        ],
        heartbeat in prop_oneof![
            Just((None, None)),
            (1u64..10_000_000_000, 0u64..10_000_000_000).prop_map(|(k, l)| {
                (Some(Nanos::from_nanos(k)), Some(Nanos::from_nanos(l)))
            }),
        ],
    ) {
        let edges = RunSpec {
            mech,
            workload: WorkloadKind::CrossSequenced {
                n_flows: 4,
                packets_per_flow: 3,
                group_size: 2,
            },
            rate_mbps,
            seed,
            frame_size,
            recovery: RecoveryKnobs {
                retry,
                ttl: Nanos::from_nanos(ttl_ns),
                degraded_threshold,
            },
            admission,
            standby,
            keepalive: heartbeat.0,
            liveness: heartbeat.1,
            ..RunSpec::generate_with_crashes(master, mech)
        };
        let generated = [
            RunSpec::generate(master, mech),
            RunSpec::generate_with_crashes(master, mech),
        ];
        let matrix = recovery_matrix().into_iter().map(|(_, cell)| cell);
        let unbounded = RunSpec {
            admission: admission.map(|(policy, _)| (policy, 0)),
            ..edges.clone()
        };
        for spec in generated.into_iter().chain(matrix).chain([edges]) {
            let line = spec.to_string();
            prop_assert_eq!(line.parse::<RunSpec>(), Ok(spec), "{}", line);
        }
        if unbounded.admission.is_some() {
            let line = unbounded.to_string();
            let err = line.parse::<RunSpec>().expect_err(&line);
            prop_assert!(err.contains("at least 1"), "{}: {}", line, err);
        }
    }
}

fn arb_admission() -> impl Strategy<Value = AdmissionPolicy> {
    prop_oneof![
        Just(AdmissionPolicy::DropTail),
        Just(AdmissionPolicy::DropHead),
        Just(AdmissionPolicy::PreferRerequests),
    ]
}

/// `--standby warm|cold`, as `ci.yml` spells it, is the chaos spec's
/// `standby=` grammar with the delay left at the testbed's default.
#[test]
fn standby_grammar_takes_a_bare_sync_with_the_default_delay() {
    let default_delay = TestbedConfig::default().failover.takeover_delay;
    for (spelled, warm) in [("warm", true), ("cold", false)] {
        let knobs = StandbyKnobs {
            warm,
            takeover_delay: default_delay,
        };
        assert_eq!(spelled.parse(), Ok(knobs));
    }
    let eight = StandbyKnobs {
        warm: true,
        takeover_delay: Nanos::from_millis(8),
    };
    assert_eq!("warm:8ms".parse(), Ok(eight));
    assert!("lukewarm".parse::<StandbyKnobs>().is_err());
    assert!("warm:soon".parse::<StandbyKnobs>().is_err());
}

/// Self-test of the harness: a mechanism with Algorithm 1's re-request
/// loop disabled must be caught by the eventual-delivery (or buffer-leak)
/// invariant, the greedy minimizer must strip irrelevant faults while
/// keeping the failure, and the minimized scenario must replay
/// byte-identically from its spec.
#[test]
fn broken_rerequest_is_caught_minimized_and_replayable() {
    let mech = BufferMode::FlowGranularity {
        capacity: 256,
        timeout: Nanos::from_millis(20),
    };
    let mut caught = 0;
    for seed in 0..60u64 {
        let scenario = RunSpec::generate(seed, mech);
        let report = run_scenario(&scenario, Sabotage::no_rerequest());
        if report.violations.is_empty() {
            // Plans without control loss (or with data-disturbing faults
            // that waive the guarantee) legitimately pass.
            continue;
        }
        assert!(
            report
                .violations
                .iter()
                .all(|v| v.invariant == "eventual-delivery" || v.invariant == "buffer-id-leak"),
            "seed {seed}: a silenced re-request loop must only break delivery \
             and drain invariants, got {:#?}",
            report.violations
        );
        caught += 1;
        if caught > 3 {
            continue; // count the rest, but shrink only a few (debug-build time)
        }

        let min = minimize(&scenario, Sabotage::no_rerequest());
        let spec = min.to_string();
        let a = run_scenario(&min, Sabotage::no_rerequest());
        assert!(
            !a.violations.is_empty(),
            "seed {seed}: minimizer lost the failure (spec '{spec}')"
        );
        assert!(
            spec.len() <= scenario.to_string().len(),
            "seed {seed}: minimized spec grew"
        );
        let b = run_scenario(
            &spec.parse::<RunSpec>().expect(&spec),
            Sabotage::no_rerequest(),
        );
        assert_eq!(a.digest, b.digest, "minimized replay of '{spec}' diverged");
    }
    assert!(
        caught >= 5,
        "only {caught} of 60 generated scenarios caught the broken mechanism — \
         the generator stopped producing control-channel loss"
    );
}

/// The same scenarios with the re-request loop intact pass — the invariant
/// separates the broken mechanism from the correct one, not noise.
#[test]
fn intact_mechanism_passes_where_the_broken_one_fails() {
    let mech = BufferMode::FlowGranularity {
        capacity: 256,
        timeout: Nanos::from_millis(20),
    };
    let mut compared = 0;
    for seed in 0..60u64 {
        let scenario = RunSpec::generate(seed, mech);
        if run_scenario(&scenario, Sabotage::no_rerequest())
            .violations
            .is_empty()
        {
            continue;
        }
        let intact = run_scenario(&scenario, Sabotage::none());
        assert!(
            intact.violations.is_empty(),
            "seed {seed}: intact mechanism violated {:#?}",
            intact.violations
        );
        compared += 1;
    }
    assert!(compared >= 5, "only {compared} discriminating scenarios");
}

/// The recovery plane's acceptance scenario: a sustained controller stall
/// spanning the whole retry budget. The switch must stop re-requesting at
/// the budget (retry-budget invariant), give the flows up, enter degraded
/// mode, and exit it cleanly once the stalled controller answers — with
/// every other invariant still intact.
#[test]
fn sustained_controller_stall_bounds_retries_and_recovers_from_degraded() {
    let mut plan = FaultPlan {
        seed: 5,
        ..FaultPlan::default()
    };
    plan.stalls
        .push(Window::new(Nanos::from_millis(45), Nanos::from_millis(160)));
    let budgeted = RunSpec {
        mech: BufferMode::FlowGranularity {
            capacity: 256,
            timeout: Nanos::from_millis(20),
        },
        workload: WorkloadKind::CrossSequenced {
            n_flows: 6,
            packets_per_flow: 4,
            group_size: 2,
        },
        rate_mbps: 40,
        seed: 9,
        plan,
        recovery: RecoveryKnobs {
            retry: RetryPolicy::backoff(Nanos::from_millis(40), 1),
            ttl: Nanos::ZERO,
            degraded_threshold: 2,
        },
        ..RunSpec::default()
    };
    let report = run_scenario(&budgeted, Sabotage::none());
    assert!(
        report.violations.is_empty(),
        "budgeted run violated {:#?}",
        report.violations
    );
    let r = &report.result;
    assert!(
        r.buffer_giveups > 0,
        "no give-ups under a 115 ms stall: {r:#?}"
    );
    assert!(
        r.degraded_entries > 0,
        "degraded mode never tripped: {r:#?}"
    );
    assert_eq!(
        r.degraded_entries, r.degraded_exits,
        "switch ended the run still degraded: {r:#?}"
    );

    // The same stall under the unbounded fixed-interval policy re-requests
    // strictly more — the budget is what bounds the retry storm.
    let unbounded = RunSpec {
        recovery: RecoveryKnobs::default(),
        ..budgeted.clone()
    };
    let baseline = run_scenario(&unbounded, Sabotage::none());
    assert!(
        baseline.violations.is_empty(),
        "baseline run violated {:#?}",
        baseline.violations
    );
    assert!(
        baseline.result.rerequests > r.rerequests,
        "fixed policy sent {} re-requests vs {} budgeted — the budget bound nothing",
        baseline.result.rerequests,
        r.rerequests
    );
}

/// Every cell of the recovery matrix (stall + flap × both mechanisms ×
/// fixed/backoff retries, TTL and degraded mode armed) passes every
/// invariant, and a sabotaged TTL garbage collector is caught by the
/// buffer-expiry invariant somewhere in the matrix.
#[test]
fn recovery_matrix_passes_and_its_ttl_self_test_has_teeth() {
    let mut ttl_caught = 0;
    for (label, scenario) in recovery_matrix() {
        let report = run_scenario(&scenario, Sabotage::none());
        assert!(
            report.violations.is_empty(),
            "cell {label} violated {:#?}\nreplay: cargo run --release --bin sdnlab \
             -- chaos --replay '{}'",
            report.violations,
            scenario
        );
        let broken = run_scenario(&scenario, Sabotage::no_ttl_gc());
        if broken
            .violations
            .iter()
            .any(|v| v.invariant == "buffer-expiry")
        {
            ttl_caught += 1;
        }
    }
    assert!(
        ttl_caught > 0,
        "no recovery-matrix cell caught the disabled TTL garbage collector"
    );
}

/// The recovery matrix carries a crash column: cells that layer a mid-run
/// controller crash on top of the stall + flap + loss plan, and every one
/// of them records exactly one crash.
#[test]
fn recovery_matrix_has_a_crash_column() {
    let crash_cells: Vec<_> = recovery_matrix()
        .into_iter()
        .filter(|(label, _)| label.ends_with("/crash"))
        .collect();
    assert!(
        crash_cells.len() >= 4,
        "expected a crash cell per mechanism × retry policy, got {:?}",
        crash_cells.iter().map(|(l, _)| l).collect::<Vec<_>>()
    );
    for (label, scenario) in crash_cells {
        assert!(scenario.plan.has_crashes(), "cell {label}");
        let report = run_scenario(&scenario, Sabotage::none());
        assert_eq!(
            report.result.ctrl_crashes, 1,
            "cell {label} did not crash exactly once"
        );
    }
}

/// The crash plane's sweep bar: generated scenarios that always include a
/// mid-run controller crash (and sometimes a warm or cold standby) hold
/// every invariant — epoch monotonicity, handshake-before-service, no
/// cross-epoch drains, and delivery-or-accounted-loss across the restart.
#[test]
fn crash_scenarios_hold_every_invariant_across_mechanisms() {
    for mech in mechanisms() {
        for seed in 0..60u64 {
            let scenario = RunSpec::generate_with_crashes(seed, mech);
            assert!(scenario.plan.has_crashes(), "seed {seed}");
            let report = run_scenario(&scenario, Sabotage::none());
            assert!(
                report.violations.is_empty(),
                "crash seed {seed} under {} violated {:#?}\nreplay: cargo run --release \
                 --bin sdnlab -- chaos --crash --replay '{}'",
                mech.label(),
                report.violations,
                scenario
            );
        }
    }
}

/// A deterministic crash cell that trips the epoch guard when sabotaged:
/// a mid-run crash with survivors in the buffer (the ingress delay keeps
/// responses in flight when the crash hits) and a flow timeout short
/// enough to re-request across the restart.
fn epoch_guard_scenario() -> RunSpec {
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
        workload: WorkloadKind::CrossSequenced {
            n_flows: 4,
            packets_per_flow: 3,
            group_size: 2,
        },
        rate_mbps: 40,
        seed: 2,
        plan,
        recovery: RecoveryKnobs::default(),
        ..RunSpec::default()
    }
}

/// The flight dump captured for a violating *crash* scenario embeds a
/// spec that replays to the same digest and the same violations — crash
/// evidence is as actionable as the stall/loss kind.
#[test]
fn crash_flight_dump_replays_to_the_same_violation() {
    let scenario = epoch_guard_scenario();
    let report = run_scenario(&scenario, Sabotage::no_epoch_guard());
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == "no-cross-epoch-drain"),
        "the sabotaged epoch guard must trip no-cross-epoch-drain, got {:#?}",
        report.violations
    );

    let min = minimize(&scenario, Sabotage::no_epoch_guard());
    assert!(
        !min.plan.crashes.is_empty(),
        "the shrinker must keep the crash window (the cause)"
    );
    let dump = flight_dump(&min, Sabotage::no_epoch_guard());
    assert!(!dump.violations.is_empty());
    assert!(!dump.tail.is_empty(), "the dump must carry an event tail");

    let replayed: RunSpec = dump.spec.parse().expect("embedded spec must parse");
    let rerun = run_scenario(&replayed, Sabotage::no_epoch_guard());
    assert_eq!(
        rerun.digest, dump.digest,
        "replaying the embedded spec must reproduce the dumped digest"
    );
    let dumped: Vec<&str> = dump.violations.iter().map(|v| v.invariant).collect();
    let again: Vec<&str> = rerun.violations.iter().map(|v| v.invariant).collect();
    assert_eq!(dumped, again, "replay must reproduce the dumped violations");
}

/// A warm standby bounds the outage: with a crash window longer than the
/// run, only the takeover keeps the control plane alive — the cell still
/// passes every invariant, records the takeover, and completes the
/// workload with every flow delivered or accounted.
#[test]
fn warm_standby_rides_through_a_crash_that_outlives_the_run() {
    let mut plan = FaultPlan {
        seed: 3,
        ..FaultPlan::default()
    };
    plan.crashes
        .push(Window::new(Nanos::from_millis(52), Nanos::from_secs(10)));
    let scenario = RunSpec {
        standby: Some(StandbyKnobs {
            warm: true,
            takeover_delay: Nanos::from_millis(8),
        }),
        ..RunSpec {
            plan,
            ..epoch_guard_scenario()
        }
    };
    let spec = scenario.to_string();
    assert_eq!(
        spec.parse::<RunSpec>().expect(&spec),
        scenario,
        "standby knobs must round-trip through the spec: {spec}"
    );
    let report = run_scenario(&scenario, Sabotage::none());
    assert!(
        report.violations.is_empty(),
        "standby cell violated {:#?}",
        report.violations
    );
    assert_eq!(report.result.failover_takeovers, 1, "{:#?}", report.result);
    assert!(report.result.epoch_bumps >= 1, "{:#?}", report.result);
}

/// The slot table under a directed double fault (`crash_standby=` is
/// otherwise reached only by random generation): the primary dies for
/// good, the warm standby takes over, then itself crashes and restarts.
/// One takeover, two crashes, one epoch bump per completed handshake, and
/// every message sent into either outage is a counted control drop.
#[test]
fn standby_that_took_over_crashes_and_restarts_under_a_new_epoch() {
    let scenario = RunSpec {
        workload: WorkloadKind::CrossSequenced {
            n_flows: 40,
            packets_per_flow: 5,
            group_size: 2,
        },
        rate_mbps: 20,
        plan: FaultPlan::parse("fseed=3,crash=52ms+10s,crash_standby=70ms+15ms").unwrap(),
        standby: Some(StandbyKnobs {
            warm: true,
            takeover_delay: Nanos::from_millis(8),
        }),
        ..epoch_guard_scenario()
    };
    let report = run_scenario(&scenario, Sabotage::none());
    assert!(
        report.violations.is_empty(),
        "double-fault cell violated {:#?}",
        report.violations
    );
    let r = &report.result;
    assert_eq!(r.failover_takeovers, 1, "{r:#?}");
    assert_eq!(r.ctrl_crashes, 2, "{r:#?}");
    assert_eq!(r.epoch_bumps, 2, "takeover + restart handshakes: {r:#?}");
    assert_eq!(r.packets_delivered + r.packets_dropped, r.packets_sent);

    let (_, events) = execute(&scenario, Sabotage::none());
    let ms = Nanos::from_millis;
    let lost_in = |from: Nanos, until: Nanos| {
        events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::CtrlDrop { .. }))
            .filter(|e| from <= e.at && e.at < until)
            .count() as u64
    };
    // Primary outage: crash at 52 ms until the takeover at 60 ms; standby
    // outage: its own 70-85 ms window. No drops outside them.
    let (first, second) = (lost_in(ms(52), ms(60)), lost_in(ms(70), ms(85)));
    assert!(first > 0 && second > 0, "drops {first} + {second}");
    assert_eq!(r.ctrl_drops, first + second, "{r:#?}");
    let roles: Vec<&str> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::CtrlCrash { role, .. } | EventKind::CtrlRestart { role, .. } => Some(role),
            _ => None,
        })
        .collect();
    assert_eq!(roles, ["primary", "standby", "standby"]);
}
