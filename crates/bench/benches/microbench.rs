//! Criterion micro-benchmarks of the hot paths: packet codec, OpenFlow
//! codec, flow-table lookup, buffer operations, and a full testbed run.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sdnbuf_controller::{Controller, ControllerConfig};
use sdnbuf_core::{BufferMode, Experiment, ExperimentConfig, Testbed, TestbedConfig, WorkloadKind};
use sdnbuf_flowtable::{FlowRule, FlowTable};
use sdnbuf_net::{Packet, PacketBuilder};
use sdnbuf_openflow::{msg, BufferId, Match, MatchView, OfpMessage, PortNo};
use sdnbuf_sim::{
    events, BitRate, ChannelDir, EventKind, EventQueue, EventSink, FaultPlan, FaultState,
    JsonlSink, LossModel, Nanos, Tracer, Window,
};
use sdnbuf_switch::{BufferChoice, Switch, SwitchConfig, SwitchOutput};
use sdnbuf_switchbuf::{
    BufferMechanism, FlowGranularityBuffer, PacketGranularityBuffer, PacketPool,
};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;

fn bench_packet_codec(c: &mut Criterion) {
    let pkt = PacketBuilder::udp().frame_size(1000).build();
    let bytes = pkt.encode();
    c.bench_function("packet_encode_1000B", |b| {
        b.iter(|| black_box(&pkt).encode())
    });
    c.bench_function("packet_decode_1000B", |b| {
        b.iter(|| Packet::decode(black_box(&bytes)).unwrap())
    });
}

fn bench_openflow_codec(c: &mut Criterion) {
    let pkt = PacketBuilder::udp().frame_size(1000).build();
    let pin = OfpMessage::PacketIn(msg::PacketIn {
        buffer_id: BufferId::new(7),
        total_len: 1000,
        in_port: PortNo(1),
        reason: msg::PacketInReason::NoMatch,
        data: pkt.header_slice(128),
    });
    let bytes = pin.encode(1);
    c.bench_function("ofp_packet_in_encode", |b| {
        b.iter(|| black_box(&pin).encode(1))
    });
    c.bench_function("ofp_packet_in_decode", |b| {
        b.iter(|| OfpMessage::decode(black_box(&bytes)).unwrap())
    });
    let fm = OfpMessage::FlowMod(msg::FlowMod {
        match_fields: Match::exact_from_packet(PortNo(1), &pkt),
        cookie: 0,
        command: msg::FlowModCommand::Add,
        idle_timeout: 5,
        hard_timeout: 0,
        priority: 100,
        buffer_id: BufferId::NO_BUFFER,
        out_port: PortNo::NONE,
        flags: 0,
        actions: vec![sdnbuf_openflow::Action::output(PortNo(2))].into(),
    });
    c.bench_function("ofp_flow_mod_encode", |b| {
        b.iter(|| black_box(&fm).encode(1))
    });
}

fn bench_flow_table(c: &mut Criterion) {
    let mut table = FlowTable::new(4096);
    for i in 0..1000u16 {
        let p = PacketBuilder::udp().src_port(i).build();
        table.insert(
            Nanos::ZERO,
            FlowRule::new(Match::exact_from_packet(PortNo(1), &p), 100),
        );
    }
    let probe = PacketBuilder::udp().src_port(500).build();
    let view = MatchView::of(PortNo(1), &probe);
    c.bench_function("flow_table_lookup_1000_rules", |b| {
        b.iter(|| {
            table
                .match_packet(Nanos::from_micros(1), black_box(&view), 1000)
                .map(|r| r.priority)
        })
    });
}

/// A full reactive table: 4096 exact rules with the same idle timeout,
/// installed 1 µs apart — so rule `i` is due `i` µs after rule 0, and the
/// rule due next is always the one idle longest.
fn full_idle_table() -> (FlowTable, Vec<FlowRule>, Vec<MatchView>) {
    let packets: Vec<_> = (0..4096u16)
        .map(|i| PacketBuilder::udp().src_port(i).build())
        .collect();
    let rules: Vec<_> = packets
        .iter()
        .map(|p| {
            FlowRule::new(Match::exact_from_packet(PortNo(1), p), 100)
                .with_idle_timeout(Nanos::from_secs(5))
        })
        .collect();
    let views = packets
        .iter()
        .map(|p| MatchView::of(PortNo(1), p))
        .collect();
    let mut table = FlowTable::new(4096);
    for (i, rule) in rules.iter().enumerate() {
        table.insert(Nanos::from_micros(i as u64), rule.clone());
    }
    (table, rules, views)
}

/// What the switch does around every frame and on every timer once the
/// table is full of idle-timeout rules (the Section IV/V steady state).
fn bench_flow_table_expiry(c: &mut Criterion) {
    let (mut table, rules, views) = full_idle_table();
    c.bench_function("flow_table_next_expiry_4096_idle_rules", |b| {
        b.iter(|| black_box(&table).next_expiry())
    });
    // A hit on any rule but the one due next leaves the expiry index alone.
    let mut now = Nanos::from_millis(5);
    c.bench_function("flow_table_hit_4096_idle_rules_other", |b| {
        b.iter(|| {
            now += Nanos::from_nanos(1);
            table
                .match_packet(now, black_box(&views[2048]), 1000)
                .map(|r| r.priority)
        })
    });
    // Round-robin in install order: every hit lands on the rule due next
    // and moves its deadline behind all others — the index's worst case.
    let (mut table, ..) = full_idle_table();
    let mut turn = 0usize;
    c.bench_function("flow_table_hit_4096_idle_rules_top", |b| {
        b.iter(|| {
            now += Nanos::from_nanos(1);
            let view = &views[turn];
            turn = (turn + 1) % views.len();
            table
                .match_packet(now, black_box(view), 1000)
                .map(|r| r.priority)
        })
    });
    // All 4096 rules fall due in one sweep, then the table is refilled.
    c.bench_function("flow_table_expire_storm_4096", |b| {
        b.iter(|| {
            now += Nanos::from_secs(10);
            let removed = table.expire(now).len();
            for rule in &rules {
                table.insert(now, rule.clone());
            }
            removed
        })
    });
}

fn bench_buffers(c: &mut Criterion) {
    let pkt = PacketBuilder::udp().frame_size(1000).build();
    c.bench_function("packet_granularity_miss_release", |b| {
        b.iter_batched(
            || {
                let mut pool = PacketPool::new();
                let h = pool.insert(pkt.clone());
                (PacketGranularityBuffer::new(256), pool, h)
            },
            |(mut buf, mut pool, h)| {
                let action = buf.on_miss(Nanos::ZERO, h, PortNo(1), &pool);
                if let sdnbuf_switchbuf::MissAction::SendBufferedPacketIn { buffer_id } = action {
                    for bp in black_box(buf.release(Nanos::from_micros(1), buffer_id)) {
                        pool.release(bp.packet);
                    }
                }
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("flow_granularity_20pkt_flow", |b| {
        b.iter_batched(
            || {
                let mut pool = PacketPool::new();
                let hs: Vec<_> = (0..20).map(|_| pool.insert(pkt.clone())).collect();
                (
                    FlowGranularityBuffer::new(256, Nanos::from_millis(50)),
                    pool,
                    hs,
                )
            },
            |(mut buf, mut pool, hs)| {
                let mut id = None;
                for (i, h) in hs.into_iter().enumerate() {
                    if let sdnbuf_switchbuf::MissAction::SendBufferedPacketIn { buffer_id } =
                        buf.on_miss(Nanos::from_micros(i as u64), h, PortNo(1), &pool)
                    {
                        id = Some(buffer_id);
                    }
                }
                for bp in black_box(buf.release(Nanos::from_millis(1), id.unwrap())) {
                    pool.release(bp.packet);
                }
            },
            BatchSize::SmallInput,
        )
    });
}

fn flow_mod_to_port_2(pkt: &Packet) -> OfpMessage {
    OfpMessage::FlowMod(msg::FlowMod {
        match_fields: Match::exact_from_packet(PortNo(1), pkt),
        cookie: 0,
        command: msg::FlowModCommand::Add,
        idle_timeout: 5,
        hard_timeout: 0,
        priority: 100,
        buffer_id: BufferId::NO_BUFFER,
        out_port: PortNo::NONE,
        flags: 0,
        actions: vec![sdnbuf_openflow::Action::output(PortNo(2))].into(),
    })
}

/// Hands the pool references of `outputs` back and returns the buffer id
/// of the `packet_in` among them, if any.
fn settle(outputs: &mut Vec<SwitchOutput>, pool: &mut PacketPool) -> Option<BufferId> {
    let mut buffer_id = None;
    for output in outputs.drain(..) {
        match output {
            SwitchOutput::Forward { packet, .. } => {
                pool.release(packet);
            }
            SwitchOutput::ToController {
                msg: OfpMessage::PacketIn(pin),
                ..
            } => buffer_id = Some(pin.buffer_id),
            _ => {}
        }
    }
    buffer_id
}

/// The three handler calls of the per-packet path (switch miss →
/// controller decision → switch `flow_mod` + `packet_out`) and the hit
/// that follows, each through the `Vec`-returning wrapper and `_into` an
/// output buffer kept across calls, as the testbed keeps its own.
fn bench_handlers(c: &mut Criterion) {
    let pkt = PacketBuilder::udp().src_port(7).frame_size(1000).build();

    let hit_switch = || {
        let mut pool = PacketPool::new();
        let mut sw = Switch::new(SwitchConfig::default());
        sw.handle_controller_msg(Nanos::ZERO, flow_mod_to_port_2(&pkt), 1, &mut pool);
        let frame = pool.insert(pkt.clone());
        (sw, pool, frame)
    };
    c.bench_function("switch_hit", |b| {
        let (mut sw, mut pool, frame) = hit_switch();
        let mut now = Nanos::from_millis(10);
        b.iter(|| {
            now += Nanos::from_micros(10);
            pool.retain(frame);
            let mut out = sw.handle_frame(now, PortNo(1), frame, &mut pool);
            settle(&mut out, &mut pool)
        })
    });
    c.bench_function("switch_hit_into", |b| {
        let (mut sw, mut pool, frame) = hit_switch();
        let mut now = Nanos::from_millis(10);
        let mut out = Vec::new();
        b.iter(|| {
            now += Nanos::from_micros(10);
            pool.retain(frame);
            sw.handle_frame_into(now, PortNo(1), frame, &mut pool, &mut out);
            settle(&mut out, &mut pool)
        })
    });

    let miss_switch = || {
        let mut pool = PacketPool::new();
        let sw = Switch::new(SwitchConfig {
            buffer: BufferChoice::PacketGranularity { capacity: 256 },
            ..SwitchConfig::default()
        });
        let frame = pool.insert(pkt.clone());
        (sw, pool, frame, flow_mod_to_port_2(&pkt))
    };
    let packet_out = |buffer_id| {
        OfpMessage::PacketOut(msg::PacketOut {
            buffer_id,
            in_port: PortNo(1),
            actions: vec![sdnbuf_openflow::Action::output(PortNo(2))].into(),
            data: Vec::new(),
        })
    };
    let (t0, t1) = (Nanos::from_micros(10), Nanos::from_millis(1));
    c.bench_function("switch_miss_flowmod_packetout", |b| {
        b.iter_batched(
            miss_switch,
            |(mut sw, mut pool, frame, flow_mod)| {
                let mut out = sw.handle_frame(t0, PortNo(1), frame, &mut pool);
                let id = settle(&mut out, &mut pool).expect("a buffered packet_in");
                black_box(sw.handle_controller_msg(t1, flow_mod, 1, &mut pool));
                let mut out = sw.handle_controller_msg(t1, packet_out(id), 1, &mut pool);
                settle(&mut out, &mut pool)
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("switch_miss_flowmod_packetout_into", |b| {
        let mut out = Vec::new();
        b.iter_batched(
            miss_switch,
            |(mut sw, mut pool, frame, flow_mod)| {
                sw.handle_frame_into(t0, PortNo(1), frame, &mut pool, &mut out);
                let id = settle(&mut out, &mut pool).expect("a buffered packet_in");
                sw.handle_controller_msg_into(t1, flow_mod, 1, &mut pool, &mut out);
                sw.handle_controller_msg_into(t1, packet_out(id), 1, &mut pool, &mut out);
                settle(&mut out, &mut pool)
            },
            BatchSize::SmallInput,
        )
    });

    let packet_in = OfpMessage::PacketIn(msg::PacketIn {
        buffer_id: BufferId::new(7),
        total_len: 1000,
        in_port: PortNo(1),
        reason: msg::PacketInReason::NoMatch,
        data: pkt.header_slice(128),
    });
    let controller = || {
        let mut ctl = Controller::new(ControllerConfig::default());
        ctl.learn(pkt.ethernet.dst, PortNo(2));
        ctl
    };
    c.bench_function("controller_packet_in", |b| {
        let mut ctl = controller();
        let mut now = Nanos::ZERO;
        b.iter_batched(
            || packet_in.clone(),
            |msg| {
                now += Nanos::from_micros(100);
                ctl.handle_message(now, msg, 7).len()
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("controller_packet_in_into", |b| {
        let mut ctl = controller();
        let mut now = Nanos::ZERO;
        let mut out = Vec::new();
        b.iter_batched(
            || packet_in.clone(),
            |msg| {
                now += Nanos::from_micros(100);
                ctl.handle_message_into(now, msg, 7, &mut out);
                out.drain(..).count()
            },
            BatchSize::SmallInput,
        )
    });
}

/// The event loop probes the buffer's next deadline after every step, so
/// `next_timeout` sits on the hot path. The `BTreeSet` deadline index makes
/// it a min-peek; the `*_linear_baseline` entry prices the pre-index
/// alternative (a full scan over every queued flow) on identical data, and
/// the idle `poll_timeouts` pins the cost of a sweep that finds nothing due.
fn bench_timeout_probes(c: &mut Criterion) {
    let mut buf =
        FlowGranularityBuffer::new(2048, Nanos::from_millis(50)).with_ttl(Nanos::from_millis(500));
    let mut pool = PacketPool::new();
    let mut deadlines = Vec::with_capacity(1000);
    for i in 0..1000u16 {
        let p = PacketBuilder::udp().src_port(i).frame_size(1000).build();
        let h = pool.insert(p);
        buf.on_miss(Nanos::from_micros(u64::from(i)), h, PortNo(1), &pool);
        deadlines.push(Nanos::from_micros(u64::from(i)) + Nanos::from_millis(50));
    }
    c.bench_function("flow_next_timeout_1000_flows", |b| {
        b.iter(|| black_box(&buf).next_timeout())
    });
    c.bench_function("flow_next_timeout_linear_baseline_1000", |b| {
        b.iter(|| black_box(&deadlines).iter().min().copied())
    });
    c.bench_function("flow_poll_timeouts_idle_1000_flows", |b| {
        b.iter(|| {
            black_box(
                buf.poll_timeouts(Nanos::from_micros(1_100), &pool)
                    .is_empty(),
            )
        })
    });
}

/// One representative hot-path event: a control-channel message record,
/// the largest `EventKind` variant and the one emitted most often.
fn sample_event_kind() -> EventKind {
    EventKind::CtrlMsg {
        dir: ChannelDir::ToController,
        xid: 42,
        bytes: 90,
        label: "packet_in",
        arrive: Nanos::from_micros(12),
    }
}

fn bench_event_sinks(c: &mut Criterion) {
    let kind = sample_event_kind();
    let at = Nanos::from_micros(3);

    // The price of an *untraced* run: one branch per instrumentation point.
    let off = Tracer::off();
    c.bench_function("tracer_off_emit", |b| {
        b.iter(|| black_box(&off).emit(at, kind))
    });

    // The price of the dynamic dispatch + RefCell borrow, with the event
    // itself discarded.
    let null = Tracer::new(Rc::new(RefCell::new(events::NullSink)));
    c.bench_function("tracer_null_sink_emit", |b| {
        b.iter(|| black_box(&null).emit(at, kind))
    });

    // In-memory recording: amortised Vec push per event.
    c.bench_function("tracer_recording_emit_1k", |b| {
        b.iter_batched(
            || Tracer::recording(0),
            |(tracer, sink)| {
                for i in 0..1000u64 {
                    tracer.emit(Nanos::from_nanos(i), kind);
                }
                black_box(sink.borrow().events().len())
            },
            BatchSize::SmallInput,
        )
    });

    // Streaming JSONL: formats and writes every event (to memory here, so
    // this measures encoding cost, not disk).
    c.bench_function("jsonl_sink_emit_1k", |b| {
        b.iter_batched(
            || JsonlSink::new(Vec::with_capacity(128 * 1024)),
            |mut sink| {
                for i in 0..1000u64 {
                    sink.emit(sdnbuf_sim::Event {
                        at: Nanos::from_nanos(i),
                        kind,
                    });
                }
                black_box(sink.written())
            },
            BatchSize::SmallInput,
        )
    });
}

/// The fault plane sits on every control-message send, so its per-message
/// decision must stay cheap: the empty plan is the every-run baseline and
/// a fully loaded plan bounds the worst case (loss + jitter + duplication
/// + reordering all drawing randomness).
fn bench_fault_plane(c: &mut Criterion) {
    c.bench_function("ctrl_effect_empty_plan", |b| {
        let mut state = FaultState::new(FaultPlan::default());
        let mut t = 0u64;
        b.iter(|| {
            t += 1_000;
            black_box(state.ctrl_effect(Nanos::from_nanos(t), ChannelDir::ToController))
        })
    });
    c.bench_function("ctrl_effect_loaded_plan", |b| {
        let mut plan = FaultPlan {
            seed: 7,
            ..FaultPlan::default()
        };
        plan.to_controller.loss = LossModel::Probabilistic(0.1);
        plan.to_controller.delay = Nanos::from_micros(200);
        plan.to_controller.jitter = Nanos::from_micros(500);
        plan.to_controller.duplicate = 0.05;
        plan.to_controller.reorder = 0.2;
        plan.to_controller.reorder_by = Nanos::from_micros(300);
        plan.stalls = vec![Window::new(Nanos::from_millis(55), Nanos::from_millis(58))];
        let mut state = FaultState::new(plan);
        let mut t = 0u64;
        b.iter(|| {
            t += 1_000;
            black_box(state.ctrl_effect(Nanos::from_nanos(t), ChannelDir::ToController))
        })
    });
    c.bench_function("testbed_run_100_flows_faulted", |b| {
        let mut plan = FaultPlan {
            seed: 7,
            ..FaultPlan::default()
        };
        plan.to_controller.loss = LossModel::Probabilistic(0.1);
        plan.to_controller.jitter = Nanos::from_micros(500);
        plan.to_switch.loss = LossModel::Probabilistic(0.05);
        b.iter(|| {
            let mut config = ExperimentConfig {
                buffer: BufferMode::FlowGranularity {
                    capacity: 256,
                    timeout: Nanos::from_millis(20),
                },
                workload: WorkloadKind::single_packet_flows(100),
                sending_rate: BitRate::from_mbps(50),
                seed: 3,
                ..ExperimentConfig::default()
            };
            config.testbed.faults = plan.clone();
            black_box(Experiment::new(config).run())
        })
    });
}

/// The two outcomes of the run loop's merge step against a queue holding
/// what a testbed has in flight (a few dozen events within a millisecond).
fn bench_event_queue(c: &mut Criterion) {
    let in_flight = || {
        let mut queue = EventQueue::new();
        for i in 0..48u64 {
            queue.schedule(Nanos::from_micros(100 + 17 * i), i);
        }
        queue
    };
    // An event is due before the next departure: pop it, and schedule
    // another past the rest so that the queue stays as full.
    c.bench_function("event_queue_pop_before_hit", |b| {
        let mut queue = in_flight();
        b.iter(|| {
            let (at, event) = queue
                .pop_before((Nanos::MAX, u64::MAX))
                .expect("a pending event");
            queue.schedule(at + Nanos::from_micros(17 * 48), event);
            event
        })
    });
    // The next departure is due first: the queue is only looked at.
    c.bench_function("event_queue_pop_before_miss", |b| {
        let mut queue = in_flight();
        b.iter(|| queue.pop_before(black_box((Nanos::from_micros(50), 0))))
    });
}

fn bench_full_run(c: &mut Criterion) {
    // The Section V shape at benchmark length: 80 000 packets, one miss per
    // twenty; the departures are built once, outside the timed run.
    c.bench_function("testbed_run_flow256_4000x20", |b| {
        let workload = WorkloadKind::CrossSequenced {
            n_flows: 4000,
            packets_per_flow: 20,
            group_size: 5,
        };
        let departures = workload.generate(&Default::default(), 1);
        let config = TestbedConfig::with_buffer(BufferChoice::FlowGranularity {
            capacity: 256,
            timeout: Nanos::from_millis(50),
        });
        b.iter_batched(
            || Testbed::new(config.clone()),
            |mut testbed| testbed.run(&departures),
            BatchSize::LargeInput,
        )
    });

    c.bench_function("testbed_run_100_flows_50mbps", |b| {
        b.iter(|| {
            Experiment::new(ExperimentConfig {
                buffer: BufferMode::PacketGranularity { capacity: 256 },
                workload: WorkloadKind::single_packet_flows(100),
                sending_rate: BitRate::from_mbps(50),
                seed: 1,
                ..ExperimentConfig::default()
            })
            .run()
        })
    });
}

criterion_group!(
    benches,
    bench_packet_codec,
    bench_openflow_codec,
    bench_flow_table,
    bench_flow_table_expiry,
    bench_buffers,
    bench_handlers,
    bench_timeout_probes,
    bench_event_queue,
    bench_event_sinks,
    bench_fault_plane,
    bench_full_run
);
criterion_main!(benches);
