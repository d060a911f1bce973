//! Property-based tests of the switch state machine: arbitrary interleaved
//! frames and control messages — a hostile controller's included — never
//! panic, outputs are causally timed, buffered packets are conserved and
//! every refused `packet_out` lands in its counter.

use proptest::prelude::*;
use sdnbuf_flowtable::EvictionPolicy;
use sdnbuf_net::{Packet, PacketBuilder, WireFrame};
use sdnbuf_openflow::{
    msg::{self, FlowMod, FlowModCommand, PacketOut},
    Action, BufferId, Match, OfpMessage, PortNo, Refusal,
};
use sdnbuf_sim::Nanos;
use sdnbuf_switch::{BufferChoice, PacketPool, Switch, SwitchConfig, SwitchOutput};
use std::collections::HashMap;

#[derive(Clone, Debug)]
enum Op {
    Frame {
        flow: u16,
        size: usize,
    },
    FlowModAdd {
        flow: u16,
    },
    /// A well-behaved `packet_out`: an id announced and not yet answered.
    PacketOutFor {
        nth_buffer_id: usize,
    },
    /// A `packet_out` for an id the switch (almost surely) never issued.
    PacketOutInvalid {
        raw: u32,
    },
    /// A `packet_out` replaying any id ever announced, with the tags it
    /// carried then: already drained, of a previous epoch, or naming a
    /// recycled slot under a stale generation.
    PacketOutReplayed {
        nth: usize,
    },
    /// An unbuffered `packet_out` whose `data` is not a packet: flat bytes,
    /// short enough to sit inline or long enough to spill.
    PacketOutGarbage {
        data: Vec<u8>,
    },
    /// An unbuffered `packet_out` carrying the first `cut` bytes of a frame,
    /// gathered: a whole frame when `cut` reaches its end.
    PacketOutTruncated {
        flow: u16,
        size: usize,
        cut: usize,
    },
    /// An unbuffered `packet_out` replaying the gathered data of any
    /// `packet_in` so far — a whole frame if that miss was unbuffered, a
    /// `miss_send_len` slice sharing a buffered packet's payload if not.
    PacketOutReplayedData {
        nth: usize,
    },
    /// `n` rules for flows no frame belongs to, past the table's capacity.
    FlowModFlood {
        first: u16,
        n: u16,
        notify: bool,
    },
    /// `n` echo / features / config requests, or replies a switch never
    /// takes, back to back.
    Storm {
        kind: u8,
        n: u8,
    },
    /// A restarted controller: a fresh-xid `Hello`, then `SetConfig`.
    Rehandshake,
    /// A network duplicate of the last `Hello`, then `SetConfig`.
    DuplicateHello,
    Timer,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0u16..6, 60usize..1400).prop_map(|(flow, size)| Op::Frame { flow, size }),
        4 => (0u16..6).prop_map(|flow| Op::FlowModAdd { flow }),
        4 => (0usize..8).prop_map(|nth_buffer_id| Op::PacketOutFor { nth_buffer_id }),
        2 => any::<u32>().prop_map(|raw| Op::PacketOutInvalid { raw }),
        3 => (0usize..64).prop_map(|nth| Op::PacketOutReplayed { nth }),
        1 => proptest::collection::vec(any::<u8>(), 0..120)
            .prop_map(|data| Op::PacketOutGarbage { data }),
        1 => (0u16..6, 60usize..400, 0usize..450)
            .prop_map(|(flow, size, cut)| Op::PacketOutTruncated { flow, size, cut }),
        2 => (0usize..64).prop_map(|nth| Op::PacketOutReplayedData { nth }),
        1 => (100u16..400, 1u16..24, any::<bool>())
            .prop_map(|(first, n, notify)| Op::FlowModFlood { first, n, notify }),
        1 => (0u8..4, 1u8..24).prop_map(|(kind, n)| Op::Storm { kind, n }),
        1 => Just(Op::Rehandshake),
        1 => Just(Op::DuplicateHello),
        3 => Just(Op::Timer),
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

fn flow_mod_add(flow: u16, notify: bool) -> OfpMessage {
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
        flags: if notify { msg::OFPFF_SEND_FLOW_REM } else { 0 },
        actions: vec![Action::output(PortNo(2))].into(),
    })
}

fn packet_out(buffer_id: BufferId, data: WireFrame) -> OfpMessage {
    OfpMessage::PacketOut(PacketOut {
        buffer_id,
        in_port: PortNo(1),
        actions: vec![Action::output(PortNo(2))].into(),
        data,
    })
}

/// The `kind`-th request of a storm and whether `reply` answers it.
fn storm_request(kind: u8) -> (OfpMessage, fn(&OfpMessage) -> bool) {
    match kind {
        0 => (OfpMessage::FeaturesRequest, |m| {
            matches!(m, OfpMessage::FeaturesReply(_))
        }),
        1 => (
            OfpMessage::EchoRequest(vec![7; 8]),
            |m| matches!(m, OfpMessage::EchoReply(d) if d == &[7; 8]),
        ),
        2 => (OfpMessage::GetConfigRequest, |m| {
            matches!(m, OfpMessage::GetConfigReply(_))
        }),
        _ => (
            OfpMessage::GetConfigReply(msg::SwitchConfig::default()),
            |m| matches!(m, OfpMessage::Error(_)),
        ),
    }
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

/// A switch, its pool and the clock of one op sequence, plus the
/// controller's-eye model of what the buffer holds.
struct Driver {
    sw: Switch,
    pool: PacketPool,
    now: Nanos,
    handlers: Handlers,
    out: Vec<SwitchOutput>,
    seen_buffer_ids: Vec<BufferId>,
    /// Every id ever announced, tagged as it was then.
    announced: Vec<BufferId>,
    /// The data of every `packet_in` so far, as the switch gathered it.
    packet_in_data: Vec<WireFrame>,
    /// The occupant of each raw id, as the announcements and admitted
    /// releases so far imply it (sound while nothing expires or gives up,
    /// i.e. with the recovery knobs at their defaults).
    occupants: HashMap<u32, BufferId>,
    /// `packet_out`s the model says were refused: unknown id, stale
    /// generation, stale epoch.
    refused: [u64; 3],
    epoch: u32,
    hello_seen: bool,
    last_hello_xid: u32,
}

impl Driver {
    fn new(buffer: BufferChoice, handlers: Handlers) -> Driver {
        let config = SwitchConfig {
            buffer,
            ..SwitchConfig::default()
        };
        Driver::with_config(config, handlers)
    }

    fn with_config(config: SwitchConfig, handlers: Handlers) -> Driver {
        Driver {
            sw: Switch::new(config),
            pool: PacketPool::new(),
            now: Nanos::ZERO,
            handlers,
            out: vec![CALLERS_OWN],
            seen_buffer_ids: Vec::new(),
            announced: Vec::new(),
            packet_in_data: Vec::new(),
            occupants: HashMap::new(),
            refused: [0; 3],
            epoch: 0,
            hello_seen: false,
            last_hello_xid: 0,
        }
    }

    /// Sends a buffered `packet_out` and holds the switch to the model's
    /// verdict on it.
    fn release(&mut self, id: BufferId) -> Result<Vec<SwitchOutput>, TestCaseError> {
        let verdict = match self.occupants.get(&id.as_u32()) {
            None => Err(Refusal::Unknown),
            Some(occupant) => occupant.admits(id),
        };
        let outs = self.control(packet_out(id, WireFrame::new()), 2)?;
        match verdict {
            Ok(()) => {
                prop_assert!(!outs.is_empty(), "{:?} admitted, nothing released", id);
                self.occupants.remove(&id.as_u32());
            }
            Err(refusal) => {
                prop_assert!(outs.is_empty(), "{:?}: {:?} yet {:?}", id, refusal, outs);
                self.refused[match refusal {
                    Refusal::Unknown => 0,
                    Refusal::StaleGeneration => 1,
                    Refusal::StaleEpoch => 2,
                }] += 1;
            }
        }
        Ok(outs)
    }

    /// Sends an unbuffered `packet_out` carrying `data` and holds the switch
    /// to what the flat decode of the same bytes says: that frame forwarded,
    /// or one counted shed.
    fn unbuffered(&mut self, data: WireFrame) -> Result<Vec<SwitchOutput>, TestCaseError> {
        let expected = Packet::decode(&data.to_vec());
        let drops = self.sw.stats().drops.get();
        let outs = self.control(packet_out(BufferId::NO_BUFFER, data), 3)?;
        match (&outs[..], expected) {
            ([SwitchOutput::Forward { port, packet, .. }], Ok(frame)) => {
                prop_assert_eq!(*port, PortNo(2));
                prop_assert_eq!(self.pool.get(*packet), Some(&frame));
                prop_assert_eq!(self.sw.stats().drops.get(), drops);
            }
            ([SwitchOutput::Drop { packet: None }], Err(_)) => {
                prop_assert_eq!(self.sw.stats().drops.get(), drops + 1);
            }
            (outs, expected) => prop_assert!(false, "{:?} became {:?}", expected, outs),
        }
        Ok(outs)
    }

    /// `Hello` under `xid`, then the `SetConfig` that completes a handshake.
    fn handshake(&mut self, xid: u32) -> Result<Vec<SwitchOutput>, TestCaseError> {
        self.hello_seen = true;
        let mut outs = self.control(OfpMessage::Hello, xid)?;
        let set_config = OfpMessage::SetConfig(msg::SwitchConfig {
            flags: 0,
            miss_send_len: 128,
        });
        outs.extend(self.control(set_config, xid + 1)?);
        prop_assert!(
            matches!(&outs[..], [SwitchOutput::ToController { xid: x, msg: OfpMessage::Hello, .. }] if *x == xid),
            "a handshake is answered by one Hello: {:?}",
            outs
        );
        Ok(outs)
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
            Op::FlowModAdd { flow } => self.control(flow_mod_add(flow, false), 1)?,
            Op::PacketOutFor { nth_buffer_id } => {
                if self.seen_buffer_ids.is_empty() {
                    Vec::new()
                } else {
                    let nth = nth_buffer_id % self.seen_buffer_ids.len();
                    let id = self.seen_buffer_ids.remove(nth);
                    self.release(id)?
                }
            }
            Op::PacketOutInvalid { raw } => match BufferId::from_wire(raw) {
                id if id.is_buffered() => self.release(id)?,
                _no_buffer => self.unbuffered(WireFrame::new())?,
            },
            Op::PacketOutReplayed { nth } => match self.announced.len() {
                0 => Vec::new(),
                len => self.release(self.announced[nth % len])?,
            },
            Op::PacketOutGarbage { ref data } => self.unbuffered(data.clone().into())?,
            Op::PacketOutTruncated { flow, size, cut } => {
                let pkt = PacketBuilder::udp().src_port(flow).frame_size(size).build();
                self.unbuffered(pkt.wire_prefix(cut))?
            }
            Op::PacketOutReplayedData { nth } => match self.packet_in_data.len() {
                0 => Vec::new(),
                len => self.unbuffered(self.packet_in_data[nth % len].clone())?,
            },
            Op::FlowModFlood { first, n, notify } => {
                let mut outs = Vec::new();
                for flow in first..first + n {
                    outs.extend(self.control(flow_mod_add(flow, notify), 1)?);
                }
                let table = self.sw.table();
                prop_assert!(table.len() <= table.capacity(), "table overflowed");
                outs
            }
            Op::Storm { kind, n } => {
                let mut outs = Vec::new();
                for i in 0..u32::from(n) {
                    let (request, answers) = storm_request(kind);
                    let reply = self.control(request, 1000 + i)?;
                    prop_assert!(
                        matches!(&reply[..], [SwitchOutput::ToController { xid, msg, .. }]
                            if *xid == 1000 + i && answers(msg)),
                        "storm request {} of kind {} got {:?}",
                        i,
                        kind,
                        reply
                    );
                    outs.extend(reply);
                }
                outs
            }
            Op::Rehandshake => {
                // The first Hello of a session is the handshake, every
                // later fresh-xid one a re-handshake: one bump each, and
                // only on an armed switch.
                let bump = u32::from(self.epoch != 0 && self.hello_seen);
                self.last_hello_xid += 10;
                let outs = self.handshake(self.last_hello_xid)?;
                prop_assert_eq!(self.sw.session_epoch(), self.epoch + bump);
                outs
            }
            Op::DuplicateHello => {
                let outs = self.handshake(self.last_hello_xid)?;
                prop_assert_eq!(self.sw.session_epoch(), self.epoch, "a duplicate bumped");
                outs
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
        for out in &outs {
            if let SwitchOutput::ToController {
                msg: OfpMessage::PacketIn(pin),
                ..
            } = out
            {
                self.packet_in_data.push(pin.data.clone());
            }
        }
        let ids = check_outputs(self.now, &outs, &mut self.pool)?;
        // A bump re-tags every surviving entry; an announcement names its
        // raw id's occupant, tags included.
        if self.sw.session_epoch() != self.epoch {
            self.epoch = self.sw.session_epoch();
            for occupant in self.occupants.values_mut() {
                *occupant = occupant.with_epoch(self.epoch);
            }
        }
        for id in &ids {
            self.occupants.insert(id.as_u32(), *id);
        }
        self.announced.extend(&ids);
        // Only frames feed the well-behaved controller's list: a timer's
        // re-request repeats an id that is already on it.
        if matches!(op, Op::Frame { .. }) {
            self.seen_buffer_ids.extend(ids);
        }
        Ok((self.now, outs))
    }

    /// The buffer's refusal counters against the model's.
    fn check_refusals(&self) -> Result<(), TestCaseError> {
        let stats = self.sw.buffer().stats();
        let [_, stale_generation, stale_epoch] = self.refused;
        prop_assert_eq!(stats.invalid_releases, self.refused.iter().sum::<u64>());
        prop_assert_eq!(stats.stale_releases, stale_generation);
        prop_assert_eq!(stats.stale_epoch_releases, stale_epoch);
        prop_assert_eq!(self.sw.stats().stale_epoch_rejects.get(), stale_epoch);
        Ok(())
    }
}

proptest! {
    /// Under eager reclamation every live pooled packet is a buffered one;
    /// under the calibrated lazy reclamation a released unit stays occupied
    /// for the lag after its packet left the pool.
    #[test]
    fn switch_never_panics_and_outputs_are_causal(
        ops in proptest::collection::vec(arb_op(), 1..120),
        buffer in arb_buffer(),
    ) {
        for buffer_free_lag in [Nanos::ZERO, SwitchConfig::default().buffer_free_lag] {
            let config = SwitchConfig { buffer, buffer_free_lag, ..SwitchConfig::default() };
            let mut driver = Driver::with_config(config, Handlers::Returning);
            for op in &ops {
                driver.step(op)?;
                let sw = &driver.sw;
                prop_assert!(sw.buffer().occupancy() <= sw.buffer().capacity());
                if buffer_free_lag == Nanos::ZERO {
                    prop_assert_eq!(
                        driver.pool.len(), sw.buffer().occupancy(),
                        "pool live count must equal buffer occupancy"
                    );
                } else {
                    prop_assert!(
                        driver.pool.len() <= sw.buffer().occupancy(),
                        "pool live count must not exceed buffer occupancy"
                    );
                }
            }
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
                data: WireFrame::new(),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A hostile controller against an armed switch, all three mechanisms
    /// per case: replayed, forged and cross-epoch `packet_out`s, undecodable,
    /// truncated and replayed payloads, `flow_mod` floods past a small table under either eviction
    /// policy, request storms and re-handshakes at any point. Nothing
    /// panics, outputs are causal, every handle the switch was given is
    /// handed back exactly once or still buffered, and every refusal is
    /// counted under its reason.
    #[test]
    fn hostile_controller_is_refused_and_accounted(
        ops in proptest::collection::vec(arb_op(), 1..160),
        capacity in 1usize..24,
        evict_lru in any::<bool>(),
    ) {
        for buffer in [
            BufferChoice::NoBuffer,
            BufferChoice::PacketGranularity { capacity },
            BufferChoice::FlowGranularity { capacity, timeout: Nanos::from_millis(2) },
        ] {
            let config = SwitchConfig {
                buffer,
                flow_table_capacity: 8,
                eviction: if evict_lru { EvictionPolicy::EvictLru } else { EvictionPolicy::RejectNew },
                liveness_timeout: Nanos::from_millis(3),
                // Eager reclamation: an admitted release frees its unit.
                buffer_free_lag: Nanos::ZERO,
                ..SwitchConfig::default()
            };
            let mut driver = Driver::with_config(config, Handlers::Into);
            driver.sw.arm_crash_plane();
            driver.epoch = 1;
            for op in &ops {
                driver.step(op)?;
                let sw = &driver.sw;
                prop_assert!(sw.buffer().occupancy() <= sw.buffer().capacity());
                prop_assert_eq!(
                    driver.pool.len(), sw.buffer().occupancy(),
                    "every handle is handed back once or still buffered"
                );
                prop_assert_eq!(
                    sw.buffer().occupancy() == 0, driver.occupants.is_empty(),
                    "the model lost track of the buffer at {:?}", op
                );
            }
            driver.check_refusals()?;
        }
    }
}
