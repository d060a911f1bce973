//! Property-based end-to-end tests: packet conservation and invariants
//! hold for arbitrary small workloads under every buffer mechanism.

use proptest::prelude::*;
use sdn_buffer_lab::core::invariants::{Invariants, RecoveryKnobs};
use sdn_buffer_lab::core::WorkloadKind;
use sdn_buffer_lab::prelude::*;
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
        rate in 5u64..100,
        seed in 0u64..1000,
    ) {
        // The protocol invariants ride along on the stream: a fault-free run
        // with default recovery knobs must satisfy every one of them.
        let checker = Rc::new(RefCell::new(Invariants::new(
            buffer,
            &FaultPlan::default(),
            RecoveryKnobs::default(),
        )));
        let r = Experiment::new(ExperimentConfig {
            buffer,
            workload,
            sending_rate: BitRate::from_mbps(rate),
            seed,
            ..ExperimentConfig::default()
        })
        .run_with_tracer(Tracer::new(checker.clone()));
        let violations = checker.borrow_mut().finish(&r);
        prop_assert!(violations.is_empty(), "{:?}", violations);
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
        // Delay definitions are self-consistent.
        if r.flow_setup_delay.n > 0 {
            prop_assert!(r.flow_setup_delay.min >= 0.0);
            prop_assert!(r.flow_forwarding_delay.max >= r.flow_setup_delay.min);
        }
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
