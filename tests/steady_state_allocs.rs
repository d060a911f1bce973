//! Asserts how many heap allocations one more simulated packet costs.
//!
//! The handler boundaries are allocation-free: the switch and controller
//! handlers push onto buffers the testbed owns for the whole run, a rule's
//! and a message's actions sit in place, and the bytes of a `packet_in` or
//! a `packet_out` are a `WireFrame` — the headers encoded in place, the
//! payload the one its generator built once, by reference count — from the
//! miss, through the controller, to the frame the switch parses back out.
//! So a table hit allocates nothing, and neither does a miss, buffered or
//! not. What a run still allocates is growth, amortised over its packets:
//! the pool's and the message pool's slots, the event queue's node arena
//! and far heap, the flow table and, per flow, its queue in the
//! flow-granularity buffer. One per-call `Vec` brought back into a handler, or one copy of a
//! payload, adds a whole allocation per packet and fails the ceilings below.
//!
//! The cost of one more packet is taken as the difference between two runs
//! of the same cell at 4 000 and at 2 000 flows, which cancels everything a
//! run pays once (construction, handshake, warm-up, result collection).
//!
//! The same difference is taken of the peak live heap, between two runs
//! of the same flows with twice the packets in each: a packet that has been
//! delivered leaves a 1-B mark behind (which stages stamped; its flow is
//! its departure's), not its frame — the workload is streamed through the pool, which holds
//! what is in flight — and not its timeline, which is folded into its
//! flow's aggregate as it is stamped and written out only for a run
//! somebody observes (`keep_packet_log()`, a tracer).
//!
//! A binary of its own because `#[global_allocator]` is per-binary; the
//! counter is per-thread, so the tests here do not perturb each other.

use sdn_buffer_lab::controller::{Controller, ControllerConfig, ControllerOutput};
use sdn_buffer_lab::core::chaos::{run_scenario, Sabotage};
use sdn_buffer_lab::net::{Bytes, IpProto, Packet, PacketBuilder, Payload, Transport};
use sdn_buffer_lab::openflow::{
    msg::{FlowMod, FlowModCommand},
    Action, BufferId, Match, OfpMessage, PortNo,
};
use sdn_buffer_lab::prelude::*;
use sdn_buffer_lab::sim::EventQueue;
use sdn_buffer_lab::switch::{BufferChoice, PacketPool, Switch, SwitchConfig, SwitchOutput};
use sdn_buffer_lab::workload::PktgenConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not freed, and their high-water
    /// mark.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn count(grown_by: i64) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    resize(grown_by);
}

fn resize(grown_by: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + grown_by);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        resize(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// What one `Testbed::run` of a cell cost the heap.
struct CellCost {
    allocations: u64,
    /// High-water mark of live bytes over live bytes when the run began
    /// (so the departures, built before, are not in it).
    peak_live: i64,
    packets: u64,
}

fn run_cell(buffer: BufferMode, rate_mbps: u64, kind: WorkloadKind) -> CellCost {
    let pktgen = PktgenConfig {
        rate: BitRate::from_mbps(rate_mbps),
        ..PktgenConfig::default()
    };
    let departures = kind.generate(&pktgen, 1);
    let mut testbed = Testbed::new(TestbedConfig::with_buffer(buffer));
    let live_before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live_before));
    let (allocations, result) = allocations_in(|| testbed.run(&departures));
    assert_eq!(result.packets_sent, departures.len() as u64);
    assert_eq!(result.packets_delivered, result.packets_sent);
    assert_eq!(testbed.packet_log(), [], "nobody asked for the timelines");
    CellCost {
        allocations,
        peak_live: PEAK.with(Cell::get) - live_before,
        packets: result.packets_sent,
    }
}

/// What one more packet costs: the difference between the cell at
/// `kind(4_000)` and at `kind(2_000)`, per packet, as (allocations, bytes
/// of peak live heap).
fn marginal_cost_per_packet(
    buffer: BufferMode,
    rate_mbps: u64,
    kind: impl Fn(usize) -> WorkloadKind,
) -> (f64, f64) {
    let small = run_cell(buffer, rate_mbps, kind(2_000));
    let large = run_cell(buffer, rate_mbps, kind(4_000));
    let packets = (large.packets - small.packets) as f64;
    (
        (large.allocations as f64 - small.allocations as f64) / packets,
        (large.peak_live - small.peak_live) as f64 / packets,
    )
}

fn twenty_packet_flows(n_flows: usize) -> WorkloadKind {
    WorkloadKind::CrossSequenced {
        n_flows,
        packets_per_flow: 20,
        group_size: 5,
    }
}

/// `flows` flows of `size / divisor` packets each: doubling `size` doubles
/// every flow and adds none.
fn flows_of(flows: usize, divisor: usize) -> impl Fn(usize) -> WorkloadKind {
    move |size| WorkloadKind::CrossSequenced {
        n_flows: flows,
        packets_per_flow: size / divisor,
        group_size: 5,
    }
}

const FLOW_256: BufferMode = BufferMode::FlowGranularity {
    capacity: 256,
    timeout: Nanos::from_millis(50),
};

#[test]
fn one_more_packet_allocates_only_its_own_bytes() {
    let packet_256 = BufferMode::PacketGranularity { capacity: 256 };
    let single = WorkloadKind::single_packet_flows;

    // The whole frame to the controller and back, by reference count: 0.010.
    let (no_buffer, _) = marginal_cost_per_packet(BufferMode::NoBuffer, 100, single);
    // The header slice to the controller, in place: 0.005.
    let (buffered, _) = marginal_cost_per_packet(packet_256, 50, single);
    // One miss per twenty packets; its flow's queue and bulk release: 0.100.
    let (hits, _) = marginal_cost_per_packet(FLOW_256, 100, twenty_packet_flows);

    assert!(
        no_buffer <= 0.05,
        "no-buffer@100: {no_buffer} allocs/packet"
    );
    assert!(buffered <= 0.05, "buffer-256@50: {buffered} allocs/packet");
    assert!(
        hits <= 0.15,
        "flow-256@100 20-packet flows: {hits} allocs/packet"
    );
}

#[test]
fn one_more_packet_keeps_a_mark_not_a_timeline() {
    // 1 000 flows of 20, then of 40 packets: the 1-B mark (1.04 B as this
    // is written; its flow is its departure's, so it names none). The 80-B
    // timeline is kept for an observed run only; the wire-identity index
    // (24-48 B more per packet) is built only for a give-up drain's
    // `packet_in`, which no fault-free run sends; holding
    // every 1 000-B frame from the start of the run was 1 265 B, and a mark
    // that repeated its flow index 8.04 B. (A flow more costs what its rule
    // and its 48-B aggregate do: with the packets in more flows instead of
    // longer ones, 12 B per packet of twenty —
    // `one_more_flow_keeps_its_rule_and_aggregate_not_an_occupancy_point`.)
    let (_, live_bytes) = marginal_cost_per_packet(FLOW_256, 100, flows_of(1_000, 100));
    assert!(
        live_bytes <= 4.0,
        "flow-256@100 1 000 flows: {live_bytes} B of peak live heap per packet"
    );
}

#[test]
fn one_more_flow_keeps_its_rule_and_aggregate_not_an_occupancy_point() {
    // More flows instead of longer ones: what a flow keeps is its rule,
    // its 48-B aggregate and, in the flow-granularity buffer, its queue —
    // 12.0 B per packet of twenty and 330.6 B per single-packet flow
    // through the packet buffer as this is written. A flow-key map of each
    // flow's controller round trip beside the aggregates, and a run's
    // delay samples copied for sorting, made them 24.8 and 388.8; the
    // switch's own occupancy timeline, 16 B per buffer operation that only
    // an example read, 31.4 and 421.6 before that.
    let (_, twenty) = marginal_cost_per_packet(FLOW_256, 100, twenty_packet_flows);
    let packet_256 = BufferMode::PacketGranularity { capacity: 256 };
    let (_, single) = marginal_cost_per_packet(packet_256, 50, WorkloadKind::single_packet_flows);
    assert!(
        twenty <= 14.0,
        "flow-256@100 20-packet flows: {twenty} B of peak live heap per packet"
    );
    assert!(
        single <= 345.0,
        "buffer-256@50 single-packet flows: {single} B of peak live heap per packet"
    );
}

#[test]
fn one_more_unbuffered_flow_keeps_no_identity_index() {
    // The cell that holds the Section IV workload's peak: no-buffer at
    // 100 Mbps, every packet its own flow, the peak reached while the
    // run's summaries are built. 416.1 B per flow as this is written: a
    // frame that comes back from the controller as bytes gets its record
    // from the `packet_out` that carried them, and a queued event is 16 B
    // (a 24-B event reads 420.2 B, and 422.2 B while egress frames carried
    // a QoS queue tag; 32 B, while a never-formed batch of egress frames
    // sat in the event enum, read 426.3 B). Indexing every departure by
    // wire identity to find that record instead was 477.5 B; a map from
    // flow key to controller round trip beside the aggregates added 51 B
    // more (its buckets double from 4 096 to 8 192 over these 2 000 flows)
    // and an 8-B mark 7 B: 535.7 B.
    let single = WorkloadKind::single_packet_flows;
    let (_, per_flow) = marginal_cost_per_packet(BufferMode::NoBuffer, 100, single);
    assert!(
        per_flow <= 420.0,
        "no-buffer@100 single-packet flows: {per_flow} B of peak live heap per flow"
    );
}

#[test]
fn live_heap_grows_by_a_mark_per_packet_over_a_long_run() {
    // The same at 2·10⁵ and 4·10⁵ packets (2 000 flows of 100, then of
    // 200): nothing else a run keeps grows with its length.
    let (_, live_bytes) = marginal_cost_per_packet(FLOW_256, 100, flows_of(2_000, 20));
    assert!(
        live_bytes <= 4.0,
        "flow-256@100 2 000 flows, 4e5 - 2e5 packets: {live_bytes} B of peak live heap per packet"
    );
}

#[test]
fn a_fresh_queue_spread_over_two_hundred_ticks_allocates_a_handful_of_times() {
    // What a short run does to its queue: 300 events over 200 distinct
    // ticks of one window. The wheel's nodes are one arena, which doubles
    // its way up (4, 8, .. 512: eight allocations); a bucket per slot
    // allocated on the first push into each of the 200: 201 in all.
    let (allocations, queue) = allocations_in(|| {
        let mut queue = EventQueue::new();
        for i in 0..300u64 {
            queue.schedule(Nanos::from_nanos((i % 200) << 12), i);
        }
        queue
    });
    assert_eq!(queue.len(), 300);
    assert!(allocations <= 10, "{allocations} allocations");
}

#[test]
fn one_chaos_scenario_allocates_about_a_hundred_times() {
    let mech = BufferMode::FlowGranularity {
        capacity: 256,
        timeout: Nanos::from_millis(20),
    };
    let scenario = RunSpec::generate_with_crashes(1, mech);
    let (allocations, report) = allocations_in(|| run_scenario(&scenario, Sabotage::none()));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    // 106 as this is written; 308 with a bucket per touched slot of the
    // event queue's wheel (191 of them) and `Summary::of` collecting its
    // samples up the doubling ladder (6), 111 with the switch's occupancy
    // timeline doubling its way up. The ceiling is the reading + 15 %.
    assert!(allocations <= 121, "{allocations} allocations");
}

/// The payload bytes of a UDP or TCP frame, and which of the two it is.
fn transport_payload(packet: &Packet) -> (IpProto, &Bytes) {
    match &packet.payload {
        Payload::Ipv4(ip) => match &ip.transport {
            Transport::Udp(_, bytes) => (IpProto::Udp, bytes),
            Transport::Tcp(_, bytes) => (IpProto::Tcp, bytes),
            other => panic!("generated frames are UDP or TCP: {other:?}"),
        },
        other => panic!("generated frames are IPv4: {other:?}"),
    }
}

#[test]
fn one_generate_call_builds_its_filler_once_and_a_clone_copies_none_of_it() {
    let tcp = WorkloadKind::TcpEviction {
        first_burst: 30,
        idle_gap: Nanos::from_millis(5),
        second_burst: 30,
    };
    let mixed = WorkloadKind::MixedUdpTcp {
        n_udp_flows: 200,
        n_tcp: 3,
        segments_per_tcp: 10,
    };
    let iv = WorkloadKind::paper_section_iv();
    // (workload, full-size frames: all of them but a connection's SYN and
    // ACK, fillers: one for UDP, one for TCP)
    for (kind, full_size, fillers) in [
        (iv, 1000, 1),
        (WorkloadKind::paper_section_v(), 1000, 1),
        (tcp, 60, 1),
        (mixed, 200 + 3 * 10, 2),
    ] {
        let departures = kind.generate(&PktgenConfig::default(), 1);
        let mut seen: Vec<(IpProto, &Bytes)> = Vec::new();
        let mut frames = 0;
        for d in departures.iter().filter(|d| d.packet.wire_len() == 1000) {
            frames += 1;
            let (proto, bytes) = transport_payload(&d.packet);
            match seen.iter().find(|(p, _)| *p == proto) {
                Some((_, first)) => assert!(Bytes::ptr_eq(first, bytes), "{kind}: {d:?}"),
                None => seen.push((proto, bytes)),
            }
        }
        assert_eq!((frames, seen.len()), (full_size, fillers), "{kind}");

        let (allocations, copies) = allocations_in(|| {
            let copies = departures.iter().map(|d| d.packet.clone());
            copies.filter(|p| p.wire_len() == 1000).count()
        });
        assert_eq!((allocations, copies), (0, full_size), "{kind}");
    }
}

#[test]
fn fast_path_forward_into_a_warmed_buffer_allocates_nothing() {
    let mut pool = PacketPool::new();
    let mut switch = Switch::new(SwitchConfig::default());
    let packet = PacketBuilder::udp().src_port(7).frame_size(1000).build();
    let flow_mod = OfpMessage::FlowMod(FlowMod {
        match_fields: Match::exact_from_packet(PortNo(1), &packet),
        cookie: 0,
        command: FlowModCommand::Add,
        idle_timeout: 5,
        hard_timeout: 0,
        priority: 100,
        buffer_id: BufferId::NO_BUFFER,
        out_port: PortNo::NONE,
        flags: 0,
        actions: vec![Action::output(PortNo(2))].into(),
    });
    switch.handle_controller_msg(Nanos::ZERO, flow_mod, 1, &mut pool);

    let mut out = Vec::new();
    // The first hit sizes `out` and the egress port's counters.
    for (i, measured) in [(1, false), (2, true)] {
        let frame = pool.insert(packet.clone());
        let now = Nanos::from_millis(10 * i);
        let (allocations, ()) =
            allocations_in(|| switch.handle_frame_into(now, PortNo(1), frame, &mut pool, &mut out));
        assert!(
            matches!(
                out[..],
                [SwitchOutput::Forward {
                    port: PortNo(2),
                    ..
                }]
            ),
            "{out:?}"
        );
        if measured {
            assert_eq!(allocations, 0, "a table hit must not allocate");
        }
        out.clear();
        pool.release(frame);
    }
}

#[test]
fn an_unbuffered_round_trip_shares_the_generators_payload() {
    let mut pool = PacketPool::new();
    let mut switch = Switch::new(SwitchConfig {
        buffer: BufferChoice::NoBuffer,
        ..SwitchConfig::default()
    });
    let mut controller = Controller::new(ControllerConfig::default());
    controller.learn(sdn_buffer_lab::net::MacAddr::from_host_index(2), PortNo(2));

    let departures = WorkloadKind::single_packet_flows(40).generate(&PktgenConfig::default(), 1);
    let (mut to_controller, mut to_switch, mut effects) = (Vec::new(), Vec::new(), Vec::new());
    let mut quiet_rounds = 0;
    for (i, departure) in departures.iter().enumerate() {
        let frame = pool.insert(departure.packet.clone());
        let now = Nanos::from_millis(10 * (i as u64 + 1));
        let (allocations, ()) = allocations_in(|| {
            switch.handle_frame_into(now, PortNo(1), frame, &mut pool, &mut to_controller);
            for out in to_controller.drain(..) {
                let SwitchOutput::ToController { at, xid, msg } = out else {
                    panic!("a miss without a buffer is a packet_in: {out:?}");
                };
                controller.handle_message_into(at, msg, xid, &mut to_switch);
            }
            for ControllerOutput::ToSwitch { at, xid, msg } in to_switch.drain(..) {
                switch.handle_controller_msg_into(at, msg, xid, &mut pool, &mut effects);
            }
        });
        let [SwitchOutput::Forward {
            port: PortNo(2),
            packet: forwarded,
            ..
        }] = effects[..]
        else {
            panic!("flow_mod + packet_out forward the one frame: {effects:?}");
        };
        // The frame went to the controller and back as wire bytes and was
        // parsed out of them into a new pool slot: the same frame, on the
        // payload allocation every departure of this workload shares.
        assert_ne!(forwarded, frame);
        let forwarded_frame = pool.get(forwarded).expect("the caller's reference");
        assert_eq!(forwarded_frame, &departure.packet);
        assert!(Bytes::ptr_eq(
            transport_payload(forwarded_frame).1,
            transport_payload(&departures[0].packet).1
        ));
        quiet_rounds += u32::from(allocations == 0);
        effects.clear();
        pool.release(forwarded);
    }
    // Forty flows double the flow table and the controller's tables a few
    // times each (nine rounds, as this is written); a miss that grows
    // nothing allocates nothing. A copy of the frame would be in all forty.
    assert!(
        quiet_rounds >= 28,
        "{quiet_rounds} of 40 unbuffered misses allocated nothing"
    );
}
