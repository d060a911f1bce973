//! Property-based end-to-end tests: packet conservation, the invariants,
//! determinism and the oracle's latency floor hold for arbitrary small
//! workloads, rates and frame sizes under every buffer mechanism; and a
//! run on a reused testbed and departure buffer is the run on fresh ones.

use proptest::prelude::*;
use sdn_buffer_lab::core::invariants::{Invariants, RecoveryKnobs};
use sdn_buffer_lab::core::observe::events_digest;
use sdn_buffer_lab::core::validate::{Oracle, Scenario};
use sdn_buffer_lab::core::PacketTrace;
use sdn_buffer_lab::core::WorkloadKind;
use sdn_buffer_lab::prelude::*;
use sdn_buffer_lab::workload::{Departure, PktgenConfig};
use std::cell::RefCell;
use std::rc::Rc;

fn arb_buffer() -> impl Strategy<Value = BufferMode> {
    prop_oneof![
        Just(BufferMode::NoBuffer),
        (1usize..64).prop_map(|capacity| BufferMode::PacketGranularity { capacity }),
        (1usize..64, 5u64..100).prop_map(|(capacity, ms)| BufferMode::FlowGranularity {
            capacity,
            timeout: Nanos::from_millis(ms),
        }),
    ]
}

fn arb_workload() -> impl Strategy<Value = WorkloadKind> {
    prop_oneof![
        (1usize..40).prop_map(WorkloadKind::single_packet_flows),
        (1usize..8, 1usize..8, 1usize..5).prop_map(|(f, p, g)| WorkloadKind::CrossSequenced {
            n_flows: f,
            packets_per_flow: p,
            group_size: g,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_packet_delivered_exactly_once(
        buffer in arb_buffer(),
        workload in arb_workload(),
        rate in 1u64..=100,
        frame_size in 64usize..=1500,
        seed in 0u64..1000,
    ) {
        // The protocol invariants ride along on the stream: a fault-free run
        // with default recovery knobs must satisfy every one of them.
        let checker = Rc::new(RefCell::new(Invariants::new(
            buffer,
            &FaultPlan::default(),
            RecoveryKnobs::default(),
        )));
        let config = ExperimentConfig {
            buffer,
            workload,
            sending_rate: BitRate::from_mbps(rate),
            frame_size,
            seed,
            ..ExperimentConfig::default()
        };
        let r = Experiment::new(config.clone()).run_with_tracer(Tracer::new(checker.clone()));
        let violations = checker.borrow_mut().finish(&r);
        prop_assert!(violations.is_empty(), "{:?}", violations);
        // Deterministic, and the tracer observes without steering: an
        // untraced second run of the same config measures the same.
        prop_assert_eq!(&Experiment::new(config).run(), &r);
        // Lossless testbed: conservation must hold for every mechanism,
        // capacity, rate and schedule.
        prop_assert_eq!(r.packets_delivered, r.packets_sent, "{:?}", r);
        prop_assert_eq!(r.flows_completed, r.flows_total);
        prop_assert_eq!(r.packets_dropped, 0);
        prop_assert_eq!(r.ctrl_drops, 0);
        // Responses pair with requests: one flow_mod and/or pkt_out per
        // pkt_in, never more pkt_outs than pkt_ins.
        prop_assert!(r.pkt_out_count <= r.pkt_in_count);
        prop_assert!(r.flow_mod_count <= r.pkt_in_count);
        // Every flow misses the empty table at least once.
        prop_assert!(r.pkt_in_count >= r.flows_total as u64);
        // Delay definitions are self-consistent.
        if r.flow_setup_delay.n > 0 {
            prop_assert!(r.flow_setup_delay.min >= 0.0);
            prop_assert!(r.flow_forwarding_delay.max >= r.flow_setup_delay.min);
        }
        // The oracle's floor: no run beats the idle-path latency its own
        // configuration implies (0.8 leaves margin for model error; a
        // sub-floor delay means the simulator skipped work).
        let testbed = TestbedConfig::with_buffer(buffer);
        let floor = Oracle::faithful()
            .predict(&Scenario {
                switch: testbed.switch,
                controller: testbed.controller,
                data_link: testbed.data_link,
                control_link: testbed.control_link,
                rate: BitRate::from_mbps(rate),
                frame_len: frame_size,
                flows: r.flows_total.max(1) as u64,
            })
            .setup_floor_ms;
        prop_assert!(
            r.flow_setup_delay.mean >= 0.8 * floor,
            "simulated {} ms < 0.8 × oracle floor {} ms",
            r.flow_setup_delay.mean,
            floor
        );
    }

    #[test]
    fn buffered_control_bytes_never_exceed_no_buffer(
        n in 5usize..30,
        rate in 10u64..90,
        seed in 0u64..100,
    ) {
        let run = |buffer| {
            Experiment::new(ExperimentConfig {
                buffer,
                workload: WorkloadKind::single_packet_flows(n),
                sending_rate: BitRate::from_mbps(rate),
                seed,
                ..ExperimentConfig::default()
            })
            .run()
        };
        let nb = run(BufferMode::NoBuffer);
        let pg = run(BufferMode::PacketGranularity { capacity: 256 });
        prop_assert!(
            pg.ctrl_bytes_to_controller < nb.ctrl_bytes_to_controller,
            "buffering must shrink requests ({} vs {})",
            pg.ctrl_bytes_to_controller,
            nb.ctrl_bytes_to_controller
        );
        prop_assert!(pg.ctrl_bytes_to_switch < nb.ctrl_bytes_to_switch);
    }
}

/// A chaos scenario — lossy, delayed and duplicating control channels, and
/// with crashes controller restarts or a warm or cold standby's takeover —
/// under any mechanism, at the generator's few dozen packets or as a few
/// hundred single-packet flows.
fn arb_spec() -> impl Strategy<Value = RunSpec> {
    let size = prop_oneof![Just(None), (100usize..400).prop_map(Some)];
    (any::<u64>(), arb_buffer(), any::<bool>(), size).prop_map(|(master, mech, crashes, flows)| {
        let mut spec = if crashes {
            RunSpec::generate_with_crashes(master, mech)
        } else {
            RunSpec::generate(master, mech)
        };
        if let Some(flows) = flows {
            spec.workload = WorkloadKind::single_packet_flows(flows);
        }
        spec
    })
}

/// What a run of `spec` shows: its result, the digest of its event stream
/// and its packet log.
type Observed = (RunResult, u64, Vec<PacketTrace>);

/// What a sweep worker hands on from run to run: its testbed, and its
/// departure buffer.
type Scratch = (Testbed, Vec<Departure>);

/// Runs `spec` as a sweep worker does: on the spent testbed reset for it,
/// with its workload generated into the spent departure buffer; observed
/// when `traced`. Returns the two for the next run.
fn run_on(scratch: Scratch, spec: &RunSpec, traced: bool) -> (Scratch, Observed) {
    let (mut testbed, mut departures) = scratch;
    let config = spec.config();
    let mut testbed_config = config.testbed;
    testbed_config.switch.buffer = config.buffer;
    testbed
        .reset(&testbed_config)
        .expect("a generated spec is valid");
    let (tracer, sink) = Tracer::recording(0);
    if traced {
        testbed.set_tracer(tracer);
    }
    let pktgen = PktgenConfig {
        rate: config.sending_rate,
        frame_size: config.frame_size,
        ..PktgenConfig::default()
    };
    config
        .workload
        .generate_into(&pktgen, config.seed, &mut departures);
    let result = testbed.run(&departures);
    let digest = events_digest(&sink.borrow_mut().take());
    let log = testbed.packet_log();
    ((testbed, departures), (result, digest, log))
}

proptest! {
    /// Running B on the testbed and the departure buffer A left behind
    /// measures, emits and logs exactly what B does on fresh ones:
    /// `Testbed::reset` keeps storage, and no rule, record, counter,
    /// generation or sequence number of A's, and `generate_into` no
    /// departure of A's.
    #[test]
    fn a_run_on_a_reused_testbed_is_the_run_on_a_fresh_one(
        a in arb_spec(),
        b in arb_spec(),
        a_traced in any::<bool>(),
    ) {
        let (spent, _) = run_on(Scratch::default(), &a, a_traced);
        let (_, fresh) = run_on(Scratch::default(), &b, true);
        let (_, reused) = run_on(spent, &b, true);
        prop_assert!(fresh.0.packets_sent > 0);
        prop_assert_eq!(&reused.0, &fresh.0, "A: {}\nB: {}", a, b);
        prop_assert_eq!(reused.1, fresh.1, "A: {}\nB: {}", a, b);
        prop_assert!(reused.2 == fresh.2, "packet logs differ\nA: {}\nB: {}", a, b);
    }
}
