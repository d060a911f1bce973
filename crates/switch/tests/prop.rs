//! Property-based tests of the switch state machine: arbitrary interleaved
//! frames and control messages never panic, outputs are causally timed,
//! and buffered packets are conserved.

use proptest::prelude::*;
use sdnbuf_net::PacketBuilder;
use sdnbuf_openflow::{
    msg::{FlowMod, FlowModCommand, PacketOut},
    Action, BufferId, Match, OfpMessage, PortNo,
};
use sdnbuf_sim::Nanos;
use sdnbuf_switch::{BufferChoice, PacketPool, Switch, SwitchConfig, SwitchOutput};

#[derive(Clone, Debug)]
enum Op {
    Frame { flow: u16, size: usize },
    FlowModAdd { flow: u16 },
    PacketOutFor { nth_buffer_id: usize },
    PacketOutInvalid { raw: u32 },
    Timer,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u16..6, 60usize..1400).prop_map(|(flow, size)| Op::Frame { flow, size }),
        2 => (0u16..6).prop_map(|flow| Op::FlowModAdd { flow }),
        2 => (0usize..8).prop_map(|nth_buffer_id| Op::PacketOutFor { nth_buffer_id }),
        1 => any::<u32>().prop_map(|raw| Op::PacketOutInvalid { raw }),
        1 => Just(Op::Timer),
    ]
}

fn arb_buffer() -> impl Strategy<Value = BufferChoice> {
    prop_oneof![
        Just(BufferChoice::NoBuffer),
        (1usize..32).prop_map(|capacity| BufferChoice::PacketGranularity { capacity }),
        (1usize..32).prop_map(|capacity| BufferChoice::FlowGranularity {
            capacity,
            timeout: Nanos::from_millis(20),
        }),
    ]
}

/// Checks outputs for causality and wire validity, releasing the pool
/// references `Forward`/`Drop` outputs hand to the caller; returns
/// buffered ids.
fn check_outputs(
    now: Nanos,
    outs: &[SwitchOutput],
    pool: &mut PacketPool,
) -> Result<Vec<BufferId>, TestCaseError> {
    let mut ids = Vec::new();
    for out in outs {
        match out {
            SwitchOutput::Forward { at, packet, .. } => {
                prop_assert!(*at >= now, "forward scheduled in the past");
                prop_assert!(pool.get(*packet).is_some(), "forwarded a stale handle");
                pool.release(*packet);
            }
            SwitchOutput::ToController { at, msg, .. } => {
                prop_assert!(*at >= now, "message scheduled in the past");
                // Every emitted message must be wire-encodable.
                let bytes = msg.encode(1);
                prop_assert_eq!(bytes.len(), msg.wire_len());
                if let OfpMessage::PacketIn(pin) = msg {
                    if pin.buffer_id.is_buffered() {
                        ids.push(pin.buffer_id);
                    }
                }
            }
            SwitchOutput::Drop { packet } => {
                if let Some(p) = packet {
                    prop_assert!(pool.get(*p).is_some(), "dropped a stale handle");
                    pool.release(*p);
                }
            }
        }
    }
    Ok(ids)
}

fn flow_mod_add(flow: u16) -> OfpMessage {
    let pkt = PacketBuilder::udp().src_port(flow).build();
    OfpMessage::FlowMod(FlowMod {
        match_fields: Match::exact_from_packet(PortNo(1), &pkt),
        cookie: 0,
        command: FlowModCommand::Add,
        idle_timeout: 1,
        hard_timeout: 0,
        priority: 10,
        buffer_id: BufferId::NO_BUFFER,
        out_port: PortNo::NONE,
        flags: 0,
        actions: vec![Action::output(PortNo(2))].into(),
    })
}

fn packet_out_for(buffer_id: BufferId) -> OfpMessage {
    OfpMessage::PacketOut(PacketOut {
        buffer_id,
        in_port: PortNo(1),
        actions: vec![Action::output(PortNo(2))].into(),
        data: vec![],
    })
}

/// Which form of the handlers a [`Driver`] calls.
#[derive(Clone, Copy, Debug)]
enum Handlers {
    /// `handle_*`, returning a fresh `Vec`.
    Returning,
    /// `handle_*_into` a buffer the driver keeps for the whole sequence.
    Into,
}

/// What [`Driver`] leaves at the front of its output buffer: the handlers
/// push behind whatever the caller's buffer holds and never touch it.
const CALLERS_OWN: SwitchOutput = SwitchOutput::Drop { packet: None };

/// A switch, its pool and the clock of one op sequence.
struct Driver {
    sw: Switch,
    pool: PacketPool,
    now: Nanos,
    handlers: Handlers,
    out: Vec<SwitchOutput>,
    seen_buffer_ids: Vec<BufferId>,
}

impl Driver {
    fn new(buffer: BufferChoice, handlers: Handlers) -> Driver {
        Driver {
            sw: Switch::new(SwitchConfig {
                buffer,
                ..SwitchConfig::default()
            }),
            pool: PacketPool::new(),
            now: Nanos::ZERO,
            handlers,
            out: vec![CALLERS_OWN],
            seen_buffer_ids: Vec::new(),
        }
    }

    /// What the `_into` handler pushed, the caller's own entry left in place.
    fn drain_pushed(&mut self) -> Result<Vec<SwitchOutput>, TestCaseError> {
        prop_assert_eq!(&self.out[0], &CALLERS_OWN);
        Ok(self.out.drain(1..).collect())
    }

    fn control(&mut self, msg: OfpMessage, xid: u32) -> Result<Vec<SwitchOutput>, TestCaseError> {
        let Driver { sw, pool, out, .. } = self;
        match self.handlers {
            Handlers::Returning => Ok(sw.handle_controller_msg(self.now, msg, xid, pool)),
            Handlers::Into => {
                sw.handle_controller_msg_into(self.now, msg, xid, pool, out);
                self.drain_pushed()
            }
        }
    }

    /// Applies one op; returns the time the handler ran at and its outputs.
    fn step(&mut self, op: &Op) -> Result<(Nanos, Vec<SwitchOutput>), TestCaseError> {
        self.now += Nanos::from_micros(200);
        let outs = match *op {
            Op::Frame { flow, size } => {
                let pkt = PacketBuilder::udp().src_port(flow).frame_size(size).build();
                let Driver { sw, pool, out, .. } = self;
                let frame = pool.insert(pkt);
                match self.handlers {
                    Handlers::Returning => sw.handle_frame(self.now, PortNo(1), frame, pool),
                    Handlers::Into => {
                        sw.handle_frame_into(self.now, PortNo(1), frame, pool, out);
                        self.drain_pushed()?
                    }
                }
            }
            Op::FlowModAdd { flow } => self.control(flow_mod_add(flow), 1)?,
            Op::PacketOutFor { nth_buffer_id } => {
                if self.seen_buffer_ids.is_empty() {
                    Vec::new()
                } else {
                    let nth = nth_buffer_id % self.seen_buffer_ids.len();
                    let id = self.seen_buffer_ids.remove(nth);
                    self.control(packet_out_for(id), 2)?
                }
            }
            Op::PacketOutInvalid { raw } => {
                self.control(packet_out_for(BufferId::from_wire(raw)), 3)?
            }
            Op::Timer => match self.sw.next_timer() {
                None => Vec::new(),
                Some(t) => {
                    self.now = t.max(self.now);
                    let Driver { sw, pool, out, .. } = self;
                    match self.handlers {
                        Handlers::Returning => sw.on_timer(self.now, pool),
                        Handlers::Into => {
                            sw.on_timer_into(self.now, pool, out);
                            self.drain_pushed()?
                        }
                    }
                }
            },
        };
        let ids = check_outputs(self.now, &outs, &mut self.pool)?;
        // Only frames and flow_mods feed the id list: a timer's re-request
        // repeats an id that is already on it.
        if !matches!(
            op,
            Op::PacketOutFor { .. } | Op::PacketOutInvalid { .. } | Op::Timer
        ) {
            self.seen_buffer_ids.extend(ids);
        }
        Ok((self.now, outs))
    }
}

proptest! {
    #[test]
    fn switch_never_panics_and_outputs_are_causal(
        ops in proptest::collection::vec(arb_op(), 1..120),
        buffer in arb_buffer(),
    ) {
        let mut driver = Driver::new(buffer, Handlers::Returning);
        for op in &ops {
            driver.step(op)?;
            let sw = &driver.sw;
            prop_assert!(sw.buffer().occupancy() <= sw.buffer().capacity());
            prop_assert_eq!(
                driver.pool.len(), sw.buffer().occupancy(),
                "pool live count must equal buffer occupancy"
            );
        }
    }

    /// The `Vec`-returning handlers are wrappers over the `_into` ones: a
    /// sequence run through either form, each on a fresh switch, yields the
    /// same outputs call by call and leaves the same counters and timer.
    #[test]
    fn returning_and_into_handlers_agree(
        ops in proptest::collection::vec(arb_op(), 1..120),
        buffer in arb_buffer(),
    ) {
        let mut returning = Driver::new(buffer, Handlers::Returning);
        let mut into = Driver::new(buffer, Handlers::Into);
        for op in &ops {
            prop_assert_eq!(returning.step(op)?, into.step(op)?, "{:?}", op);
            prop_assert_eq!(returning.sw.next_timer(), into.sw.next_timer());
        }
        prop_assert_eq!(
            format!("{:?}", returning.sw.stats()),
            format!("{:?}", into.sw.stats())
        );
        prop_assert_eq!(returning.sw.buffer().stats(), into.sw.buffer().stats());
        prop_assert_eq!(returning.pool.len(), into.pool.len());
    }

    #[test]
    fn switch_buffered_packet_conservation(
        frames in proptest::collection::vec((0u16..4, 100usize..1200), 1..60),
        capacity in 1usize..24,
    ) {
        // Buffer everything, then release everything: every buffered packet
        // must come back out exactly once.
        let mut sw = Switch::new(SwitchConfig {
            buffer: BufferChoice::FlowGranularity {
                capacity,
                timeout: Nanos::from_secs(10),
            },
            ..SwitchConfig::default()
        });
        let mut pool = PacketPool::new();
        let mut now = Nanos::ZERO;
        let mut ids = Vec::new();
        for (flow, size) in frames {
            now += Nanos::from_micros(50);
            let pkt = PacketBuilder::udp().src_port(flow).frame_size(size).build();
            for out in sw.handle_frame(now, PortNo(1), pool.insert(pkt), &mut pool) {
                if let SwitchOutput::ToController {
                    msg: OfpMessage::PacketIn(pin),
                    ..
                } = out
                {
                    if pin.buffer_id.is_buffered() {
                        ids.push(pin.buffer_id);
                    }
                }
            }
        }
        let buffered = sw.buffer().occupancy() as u64;
        let mut released = 0u64;
        for id in ids {
            now += Nanos::from_micros(50);
            let po = OfpMessage::PacketOut(PacketOut {
                buffer_id: id,
                in_port: PortNo(1),
                actions: vec![Action::output(PortNo(2))].into(),
                data: vec![],
            });
            for out in sw.handle_controller_msg(now, po, 1, &mut pool) {
                if let SwitchOutput::Forward { packet, .. } = out {
                    released += 1;
                    pool.release(packet);
                }
            }
        }
        prop_assert_eq!(released, buffered);
        prop_assert_eq!(sw.buffer().occupancy(), 0);
        prop_assert_eq!(pool.len(), 0, "every pooled packet was reclaimed");
    }
}
