//! The controller state machine.

use crate::{AdmissionPolicy, ControllerConfig, ControllerStats, ForwardingMode, ParsedHeaders};
use sdnbuf_net::{MacAddr, WireFrame};
use sdnbuf_openflow::{
    msg::{FlowMod, FlowModCommand, PacketIn, PacketOut},
    Action, ActionList, BufferId, Match, OfpMessage, PortNo, Wildcards,
};
use sdnbuf_sim::{Bus, CpuResource, EventKind, FastHashMap, Nanos, Tracer};
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// Idle timeout of reactive rules, seconds (Floodlight's forwarding
/// default). They carry no hard timeout.
const RULE_IDLE_TIMEOUT: u16 = 5;

/// Priority of reactive rules.
const RULE_PRIORITY: u16 = 100;

/// A timed effect produced by the controller.
#[derive(Clone, Debug, PartialEq)]
pub enum ControllerOutput {
    /// Send `msg` to the switch at time `at`.
    ToSwitch {
        /// When the message leaves the controller.
        at: Nanos,
        /// Transaction id (replies echo the request's id, so the testbed
        /// can measure per-request controller delay switch-side, exactly as
        /// the paper does).
        xid: u32,
        /// The message.
        msg: OfpMessage,
    },
}

/// The Floodlight model: reactive L2 forwarding with cost accounting.
///
/// The message handlers come as `*_into(.., out)`, which pushes the timed
/// outputs onto the caller's `Vec` in emission order and never clears or
/// reads it, and as a wrapper returning a fresh `Vec`.
pub struct Controller {
    config: ControllerConfig,
    cpu: CpuResource,
    ingest: Bus,
    mac_table: FastHashMap<MacAddr, PortNo>,
    next_xid: u32,
    /// Learned from `features_reply` during the handshake.
    switch_features: Option<SwitchFeatures>,
    /// The session epoch this instance currently serves (`0` until the
    /// crash plane assigns one; see [`Controller::set_epoch`]).
    epoch: u32,
    /// Departure times of in-flight echo keepalives, keyed by xid, so the
    /// matching `echo_reply` yields a round-trip sample.
    pending_echoes: FastHashMap<u32, Nanos>,
    /// Admission slots of the bounded ingress queue: one per admitted
    /// `packet_in`, held from arrival until its modeled service completion.
    /// Only maintained when admission control is configured.
    backlog: VecDeque<AdmissionSlot>,
    stats: ControllerStats,
    tracer: Tracer,
}

/// One occupied slot of the bounded ingress queue.
#[derive(Clone, Copy, Debug)]
struct AdmissionSlot {
    /// When the slot frees: the admitted message's response-departure time.
    done_at: Nanos,
    xid: u32,
    bytes: usize,
    buffered: bool,
}

/// What the controller learned about its switch from the handshake.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwitchFeatures {
    /// The switch's datapath id.
    pub datapath_id: u64,
    /// How many packets the switch advertises it can buffer.
    pub n_buffers: u32,
    /// Number of physical ports.
    pub n_ports: usize,
}

impl std::fmt::Debug for Controller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Controller")
            .field("known_macs", &self.mac_table.len())
            .field("pkt_ins", &self.stats.pkt_ins.get())
            .finish_non_exhaustive()
    }
}

impl Controller {
    /// Creates a controller from its configuration.
    ///
    /// # Panics
    /// When [`ControllerConfig::validate`] rejects the configuration. See
    /// [`Controller::try_new`] for the non-panicking form.
    pub fn new(config: ControllerConfig) -> Controller {
        match Controller::try_new(config) {
            Ok(c) => c,
            Err(e) => panic!("invalid ControllerConfig: {e}"),
        }
    }

    /// [`Controller::new`] with the validation error returned instead of
    /// panicking — the single validation path for controller construction.
    pub fn try_new(config: ControllerConfig) -> Result<Controller, String> {
        config.validate()?;
        Ok(Controller {
            cpu: CpuResource::new(config.cpu_cores),
            ingest: Bus::new(config.ingest_rate),
            mac_table: FastHashMap::default(),
            next_xid: 0x8000_0000, // distinct from switch-allocated xids
            switch_features: None,
            epoch: 0,
            pending_echoes: FastHashMap::default(),
            backlog: VecDeque::new(),
            stats: ControllerStats::default(),
            tracer: Tracer::off(),
            config,
        })
    }

    /// Attaches an event tracer, propagating it to the ingest pipe so the
    /// controller's socket-drain stage reports into the same stream.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.ingest.set_tracer(tracer.clone(), "controller-ingest");
        self.tracer = tracer;
    }

    /// What the handshake learned about the switch, once the
    /// `features_reply` has arrived.
    pub fn switch_features(&self) -> Option<SwitchFeatures> {
        self.switch_features
    }

    /// Opens the OpenFlow session: `hello`, `features_request`, then
    /// `set_config` pinning the `miss_send_len` the experiments use — the
    /// sequence Floodlight performs when a switch connects.
    pub fn initiate_handshake_into(
        &mut self,
        now: Nanos,
        miss_send_len: u16,
        out: &mut Vec<ControllerOutput>,
    ) {
        let at = self.submit(now, self.config.cost_parse_base);
        for msg in [
            OfpMessage::Hello,
            OfpMessage::FeaturesRequest,
            OfpMessage::SetConfig(sdnbuf_openflow::msg::SwitchConfig {
                flags: 0,
                miss_send_len,
            }),
            OfpMessage::GetConfigRequest,
        ] {
            let xid = self.fresh_xid();
            out.push(ControllerOutput::ToSwitch { at, xid, msg });
        }
    }

    /// [`Controller::initiate_handshake_into`] a fresh `Vec`.
    pub fn initiate_handshake(&mut self, now: Nanos, miss_send_len: u16) -> Vec<ControllerOutput> {
        let mut out = Vec::new();
        self.initiate_handshake_into(now, miss_send_len, &mut out);
        out
    }

    fn fresh_xid(&mut self) -> u32 {
        let xid = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1);
        xid
    }

    /// Originates a liveness probe — Floodlight pings its switches with
    /// periodic `echo_request`s.
    pub fn keepalive(&mut self, now: Nanos) -> ControllerOutput {
        let at = self.submit(now, self.config.cost_parse_base);
        self.stats.probes_sent.incr();
        let xid = self.fresh_xid();
        self.pending_echoes.insert(xid, at);
        ControllerOutput::ToSwitch {
            at,
            xid,
            msg: OfpMessage::EchoRequest(vec![0x5a; 8]),
        }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Controller-side counters.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// `top`-style CPU utilization over `[ZERO, horizon]`, in percent.
    pub fn cpu_percent(&self, horizon: Nanos) -> f64 {
        self.cpu.utilization().percent(horizon)
    }

    /// Models a controller crash: every piece of volatile state — the
    /// learned MAC table, the admission backlog, the handshake's switch
    /// knowledge, in-flight echo probes — is lost. Unlike a stall, which
    /// merely delays the process, nothing survives a crash except the xid
    /// counter (a restarted process keeps allocating from the same
    /// monotonic space, so transaction correlation stays unambiguous) and
    /// the measurement counters, which belong to the experiment rather
    /// than the process.
    pub fn crash(&mut self) {
        self.mac_table.clear();
        self.backlog.clear();
        self.switch_features = None;
        self.pending_echoes.clear();
    }

    /// The session epoch this instance currently serves; `0` until the
    /// crash plane assigns one.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Assigns the session epoch (crash orchestration: bumped on every
    /// restart and failover takeover).
    pub fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// Re-bases the xid allocator. The warm standby mints from a distinct
    /// range (`0xC000_0000`) so its transactions never collide with the
    /// primary's.
    pub fn set_xid_base(&mut self, base: u32) {
        self.next_xid = base;
    }

    /// Copies another controller's learned forwarding knowledge into this
    /// one — the warm-standby snapshot sync at takeover time.
    pub fn sync_from(&mut self, other: &Controller) {
        self.mac_table = other.mac_table.clone();
    }

    /// Seeds the learning table (or records a learned location).
    pub fn learn(&mut self, mac: MacAddr, port: PortNo) {
        self.mac_table.insert(mac, port);
    }

    /// Where the controller believes `mac` is attached.
    pub fn location_of(&self, mac: MacAddr) -> Option<PortNo> {
        self.mac_table.get(&mac).copied()
    }

    /// Handles a message arriving from the switch at `now`, pushing the
    /// timed responses onto `out`.
    pub fn handle_message_into(
        &mut self,
        now: Nanos,
        msg: OfpMessage,
        xid: u32,
        out: &mut Vec<ControllerOutput>,
    ) {
        let wire_len = msg.wire_len();
        // Admission control happens at the socket, before the IO thread
        // spends any time draining the message.
        if let OfpMessage::PacketIn(pin) = msg {
            if let Some((policy, capacity)) = self.config.admission {
                if !self.admit(now, &pin, xid, policy, capacity) {
                    return;
                }
            }
            let now = self.ingest.transfer(now, wire_len);
            return self.handle_packet_in(now, pin, xid, out);
        }
        // The message is first drained off the socket by the IO thread —
        // a serial, size-proportional stage.
        let now = self.ingest.transfer(now, wire_len);
        // Every message costs one parse; most are consumed quietly.
        let at = self.submit(now, self.config.cost_parse_base);
        match msg {
            OfpMessage::PacketIn(_) => unreachable!("handled above"),
            OfpMessage::EchoRequest(data) => out.push(ControllerOutput::ToSwitch {
                at,
                xid,
                msg: OfpMessage::EchoReply(data),
            }),
            OfpMessage::Error(_) => self.stats.errors.incr(),
            OfpMessage::FeaturesReply(fr) => {
                self.switch_features = Some(SwitchFeatures {
                    datapath_id: fr.datapath_id,
                    n_buffers: fr.n_buffers,
                    n_ports: fr.ports.len(),
                });
            }
            ref vendor @ OfpMessage::Vendor(_) => {
                // The flow-granularity capability announcement: acknowledge
                // by enabling the mechanism with the announced timeout.
                if let Some(Ok(sdnbuf_openflow::FlowBufferExt::Announce { timeout_ms, .. })) =
                    sdnbuf_openflow::FlowBufferExt::from_message(vendor)
                {
                    let xid = self.fresh_xid();
                    out.push(ControllerOutput::ToSwitch {
                        at,
                        xid,
                        msg: OfpMessage::from(sdnbuf_openflow::FlowBufferExt::Configure {
                            enabled: true,
                            timeout_ms,
                        }),
                    });
                }
            }
            OfpMessage::EchoReply(_) => {
                self.stats.echo_replies.incr();
                if let Some(sent) = self.pending_echoes.remove(&xid) {
                    self.stats.echo_rtt.record(now.saturating_sub(sent));
                }
            }
            // Handshake replies and other housekeeping.
            _ => {}
        }
    }

    /// [`Controller::handle_message_into`] a fresh `Vec`.
    pub fn handle_message(
        &mut self,
        now: Nanos,
        msg: OfpMessage,
        xid: u32,
    ) -> Vec<ControllerOutput> {
        let mut out = Vec::new();
        self.handle_message_into(now, msg, xid, &mut out);
        out
    }

    /// Decides whether a `packet_in` arriving at `now` gets one of the
    /// `capacity` admission slots. Returns `false` when the arrival is shed.
    fn admit(
        &mut self,
        now: Nanos,
        pin: &PacketIn,
        xid: u32,
        policy: AdmissionPolicy,
        capacity: usize,
    ) -> bool {
        while self.backlog.front().is_some_and(|s| s.done_at <= now) {
            self.backlog.pop_front();
        }
        if self.backlog.len() < capacity {
            return true;
        }
        let buffered = pin.buffer_id.is_buffered();
        match policy {
            AdmissionPolicy::DropTail => {
                self.shed(now, xid, pin.data.len(), buffered);
                false
            }
            AdmissionPolicy::DropHead => {
                // The evicted head's response is already scheduled; the
                // eviction frees its slot and books the work as wasted.
                let head = self.backlog.pop_front().expect("queue is full");
                self.shed(now, head.xid, head.bytes, head.buffered);
                true
            }
            AdmissionPolicy::PreferRerequests => {
                if buffered {
                    // A buffered re-request frees a switch buffer unit when
                    // served: admit it even over capacity.
                    true
                } else {
                    self.shed(now, xid, pin.data.len(), buffered);
                    false
                }
            }
        }
    }

    /// Books one shed `packet_in`.
    fn shed(&mut self, now: Nanos, xid: u32, bytes: usize, buffered: bool) {
        self.stats.admission_sheds.incr();
        self.tracer.emit(
            now,
            EventKind::AdmissionShed {
                xid,
                bytes,
                buffered,
            },
        );
    }

    /// Submits a CPU job with the contention scaling applied.
    fn submit(&mut self, now: Nanos, cost: Nanos) -> Nanos {
        let busy = self.cpu.busy_cores(now) as f64;
        let scaled = cost.scale(1.0 + self.config.contention * busy);
        self.cpu.submit(now, scaled.max(cost))
    }

    fn handle_packet_in(
        &mut self,
        now: Nanos,
        mut pin: PacketIn,
        xid: u32,
        out: &mut Vec<ControllerOutput>,
    ) {
        self.stats.pkt_ins.incr();
        self.stats.pkt_in_bytes.add(pin.data.len() as u64);
        self.tracer.emit(
            now,
            EventKind::PacketInReceived {
                xid,
                bytes: pin.data.len(),
                buffered: pin.buffer_id.is_buffered(),
            },
        );
        let Ok(headers) = ParsedHeaders::parse(&pin.data) else {
            self.stats.parse_failures.incr();
            self.submit(now, self.config.cost_parse_base);
            return;
        };
        // L2 learning: the source lives behind the ingress port.
        if !headers.src_mac.is_multicast() {
            self.learn(headers.src_mac, pin.in_port);
        }
        let destination =
            if self.config.mode == ForwardingMode::Hub || headers.dst_mac.is_multicast() {
                None
            } else {
                self.location_of(headers.dst_mac)
            };
        // Cost: parse (size-dependent) + decision + encode; unbuffered
        // responses additionally pay to re-encapsulate the packet bytes.
        let mut cost = self.config.packet_in_cost(pin.data.len());
        let mut handled_bytes = pin.data.len();
        if !pin.buffer_id.is_buffered() {
            cost += self.config.cost_per_byte * pin.data.len() as u64;
            handled_bytes += pin.data.len();
        }
        // Allocation/GC stall: latency proportional to the bytes handled,
        // added after the CPU work completes.
        let at = self.submit(now, cost) + self.config.latency_per_byte * handled_bytes as u64;
        if self.config.admission.is_some() {
            self.backlog.push_back(AdmissionSlot {
                done_at: at,
                xid,
                bytes: pin.data.len(),
                buffered: pin.buffer_id.is_buffered(),
            });
        }

        let out_data = if pin.buffer_id.is_buffered() {
            WireFrame::new()
        } else {
            // Unbuffered miss: the frame rides back inside the packet_out.
            // `pin` is owned, so move the bytes instead of copying them.
            std::mem::take(&mut pin.data)
        };
        match destination {
            Some(out_port) => {
                self.tracer.emit(
                    at,
                    EventKind::Decision {
                        xid,
                        action: "install",
                    },
                );
                // The paper's response pair: flow_mod installing the rule
                // for subsequent packets, packet_out forwarding the
                // miss-match packet itself.
                let actions = ActionList::from_iter([Action::output(out_port)]);
                let flow_mod = OfpMessage::FlowMod(FlowMod {
                    match_fields: match_from_headers(&headers, pin.in_port),
                    cookie: 0,
                    command: FlowModCommand::Add,
                    idle_timeout: RULE_IDLE_TIMEOUT,
                    hard_timeout: 0,
                    priority: RULE_PRIORITY,
                    buffer_id: BufferId::NO_BUFFER,
                    out_port: PortNo::NONE,
                    flags: 0,
                    actions: actions.clone(),
                });
                let pkt_out = OfpMessage::PacketOut(PacketOut {
                    buffer_id: pin.buffer_id,
                    in_port: pin.in_port,
                    actions,
                    data: out_data,
                });
                self.stats.flow_mods.incr();
                self.stats.pkt_outs.incr();
                self.tracer.emit(at, EventKind::FlowModSent { xid });
                self.tracer.emit(
                    at,
                    EventKind::PacketOutSent {
                        xid,
                        buffer_id: pin.buffer_id.as_u32(),
                    },
                );
                for msg in [flow_mod, pkt_out] {
                    out.push(ControllerOutput::ToSwitch { at, xid, msg });
                }
            }
            None => {
                // Unknown or broadcast destination: flood, install nothing.
                self.stats.floods.incr();
                self.stats.pkt_outs.incr();
                self.tracer.emit(
                    at,
                    EventKind::Decision {
                        xid,
                        action: "flood",
                    },
                );
                self.tracer.emit(
                    at,
                    EventKind::PacketOutSent {
                        xid,
                        buffer_id: pin.buffer_id.as_u32(),
                    },
                );
                out.push(ControllerOutput::ToSwitch {
                    at,
                    xid,
                    msg: OfpMessage::PacketOut(PacketOut {
                        buffer_id: pin.buffer_id,
                        in_port: pin.in_port,
                        actions: ActionList::from_iter([Action::output(PortNo::FLOOD)]),
                        data: out_data,
                    }),
                });
            }
        }
    }
}

/// Builds the match for a reactive rule from the parsed headers — exact on
/// every field the `packet_in` slice contained, like Floodlight's
/// forwarding module.
fn match_from_headers(h: &ParsedHeaders, in_port: PortNo) -> Match {
    let mut m = Match::any();
    m.in_port = in_port;
    m.dl_src = h.src_mac;
    m.dl_dst = h.dst_mac;
    m.dl_type = h.ethertype.as_u16();
    let mut w = Wildcards::NONE
        .with(Wildcards::DL_VLAN)
        .with(Wildcards::DL_VLAN_PCP);
    match h.ip {
        Some(ip) => {
            m.nw_src = ip.src;
            m.nw_dst = ip.dst;
            m.nw_tos = ip.tos;
            m.nw_proto = ip.protocol;
            match ip.ports {
                Some((src, dst)) => {
                    m.tp_src = src;
                    m.tp_dst = dst;
                }
                None => {
                    w = w.with(Wildcards::TP_SRC).with(Wildcards::TP_DST);
                }
            }
        }
        None => {
            m.nw_src = Ipv4Addr::UNSPECIFIED;
            m.nw_dst = Ipv4Addr::UNSPECIFIED;
            w = w
                .with(Wildcards::NW_PROTO)
                .with(Wildcards::NW_TOS)
                .with(Wildcards::TP_SRC)
                .with(Wildcards::TP_DST)
                .with_nw_src_bits(63)
                .with_nw_dst_bits(63);
        }
    }
    m.wildcards = w;
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnbuf_net::PacketBuilder;
    use sdnbuf_openflow::msg::PacketInReason;
    use sdnbuf_openflow::MatchView;

    fn pkt_in_for(data: impl Into<WireFrame>, buffer_id: BufferId, total_len: u16) -> OfpMessage {
        OfpMessage::PacketIn(PacketIn {
            buffer_id,
            total_len,
            in_port: PortNo(1),
            reason: PacketInReason::NoMatch,
            data: data.into(),
        })
    }

    #[test]
    fn try_new_returns_typed_errors() {
        assert!(Controller::try_new(ControllerConfig::default()).is_ok());
        let err = Controller::try_new(ControllerConfig {
            cpu_cores: 0,
            ..ControllerConfig::default()
        })
        .unwrap_err();
        assert!(err.contains("CPU core"), "{err}");
    }

    fn seeded() -> Controller {
        let mut c = Controller::new(ControllerConfig::default());
        c.learn(MacAddr::from_host_index(2), PortNo(2));
        c
    }

    #[test]
    fn known_destination_yields_flow_mod_and_pkt_out() {
        let mut c = seeded();
        let pkt = PacketBuilder::udp().frame_size(1000).build();
        let outs = c.handle_message(
            Nanos::ZERO,
            pkt_in_for(pkt.wire_prefix(128), BufferId::new(1), 1000),
            42,
        );
        assert_eq!(outs.len(), 2);
        match &outs[0] {
            ControllerOutput::ToSwitch {
                xid,
                msg: OfpMessage::FlowMod(fm),
                ..
            } => {
                assert_eq!(*xid, 42);
                assert_eq!(fm.command, FlowModCommand::Add);
                assert_eq!(fm.idle_timeout, 5);
                assert_eq!(fm.actions, vec![Action::output(PortNo(2))]);
                // The installed rule must actually match the packet.
                assert!(fm.match_fields.matches(&MatchView::of(PortNo(1), &pkt)));
            }
            other => panic!("{other:?}"),
        }
        match &outs[1] {
            ControllerOutput::ToSwitch {
                msg: OfpMessage::PacketOut(po),
                ..
            } => {
                assert_eq!(po.buffer_id, BufferId::new(1));
                assert!(po.data.is_empty(), "buffered pkt_out carries no data");
                assert_eq!(po.actions, vec![Action::output(PortNo(2))]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unbuffered_pkt_in_returns_full_packet_in_pkt_out() {
        let mut c = seeded();
        let pkt = PacketBuilder::udp().frame_size(1000).build();
        let outs = c.handle_message(
            Nanos::ZERO,
            pkt_in_for(pkt.wire(), BufferId::NO_BUFFER, 1000),
            7,
        );
        match &outs[1] {
            ControllerOutput::ToSwitch {
                msg: OfpMessage::PacketOut(po),
                ..
            } => {
                assert_eq!(po.buffer_id, BufferId::NO_BUFFER);
                assert_eq!(po.data, pkt.encode());
                assert_eq!(sdnbuf_net::Packet::decode(&po.data), Ok(pkt));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_destination_floods_without_rule() {
        let mut c = Controller::new(ControllerConfig::default());
        let pkt = PacketBuilder::udp().frame_size(100).build();
        let outs = c.handle_message(
            Nanos::ZERO,
            pkt_in_for(pkt.encode(), BufferId::NO_BUFFER, 100),
            1,
        );
        assert_eq!(outs.len(), 1);
        match &outs[0] {
            ControllerOutput::ToSwitch {
                msg: OfpMessage::PacketOut(po),
                ..
            } => {
                assert_eq!(po.actions, vec![Action::output(PortNo::FLOOD)]);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(c.stats().floods.get(), 1);
        assert_eq!(c.stats().flow_mods.get(), 0);
    }

    #[test]
    fn learns_source_locations_from_pkt_ins() {
        let mut c = Controller::new(ControllerConfig::default());
        let arp =
            PacketBuilder::gratuitous_arp(MacAddr::from_host_index(9), Ipv4Addr::new(10, 0, 0, 9));
        c.handle_message(
            Nanos::ZERO,
            pkt_in_for(arp.encode(), BufferId::NO_BUFFER, 42),
            1,
        );
        assert_eq!(c.location_of(MacAddr::from_host_index(9)), Some(PortNo(1)));
        // Now traffic *to* host 9 gets a rule instead of a flood.
        let pkt = PacketBuilder::udp()
            .dst_mac(MacAddr::from_host_index(9))
            .build();
        let outs = c.handle_message(
            Nanos::from_millis(1),
            pkt_in_for(pkt.encode(), BufferId::NO_BUFFER, 100),
            2,
        );
        assert_eq!(outs.len(), 2);
    }

    #[test]
    fn larger_pkt_ins_take_longer() {
        let mut small_ctrl = seeded();
        let mut large_ctrl = seeded();
        let pkt = PacketBuilder::udp().frame_size(1000).build();
        let t_small = match &small_ctrl.handle_message(
            Nanos::ZERO,
            pkt_in_for(pkt.wire_prefix(128), BufferId::new(1), 1000),
            1,
        )[0]
        {
            ControllerOutput::ToSwitch { at, .. } => *at,
        };
        let t_large = match &large_ctrl.handle_message(
            Nanos::ZERO,
            pkt_in_for(pkt.encode(), BufferId::NO_BUFFER, 1000),
            1,
        )[0]
        {
            ControllerOutput::ToSwitch { at, .. } => *at,
        };
        assert!(
            t_large > t_small,
            "full-packet pkt_in ({t_large}) must cost more than buffered ({t_small})"
        );
    }

    #[test]
    fn hub_mode_floods_and_never_installs() {
        let mut c = Controller::new(ControllerConfig {
            mode: ForwardingMode::Hub,
            ..ControllerConfig::default()
        });
        c.learn(MacAddr::from_host_index(2), PortNo(2)); // known, but ignored
        let pkt = PacketBuilder::udp().frame_size(1000).build();
        let outs = c.handle_message(
            Nanos::ZERO,
            pkt_in_for(pkt.encode(), BufferId::NO_BUFFER, 1000),
            1,
        );
        assert_eq!(outs.len(), 1);
        assert!(matches!(
            &outs[0],
            ControllerOutput::ToSwitch { msg: OfpMessage::PacketOut(po), .. }
                if po.actions == vec![Action::output(PortNo::FLOOD)]
        ));
        assert_eq!(c.stats().flow_mods.get(), 0);
        assert_eq!(c.stats().floods.get(), 1);
    }

    #[test]
    fn keepalives_originate_echoes_under_distinct_xids() {
        let mut c = Controller::new(ControllerConfig::default());
        let ControllerOutput::ToSwitch { msg, xid, .. } = c.keepalive(Nanos::ZERO);
        assert!(matches!(msg, OfpMessage::EchoRequest(_)));
        let ControllerOutput::ToSwitch { xid: x2, .. } = c.keepalive(Nanos::from_millis(1));
        assert_ne!(xid, x2, "probes use distinct xids");
        assert_eq!(c.stats().probes_sent.get(), 2);
        // Replies are consumed, counted and timed.
        for x in [xid, x2] {
            let echo = OfpMessage::EchoReply(vec![0x5a; 8]);
            assert!(c.handle_message(Nanos::from_millis(2), echo, x).is_empty());
        }
        assert_eq!(c.stats().echo_replies.get(), 2);
        assert_eq!(c.stats().echo_rtt.count(), 2);
    }

    #[test]
    fn echo_is_answered() {
        let mut c = Controller::new(ControllerConfig::default());
        let outs = c.handle_message(Nanos::ZERO, OfpMessage::EchoRequest(vec![9]), 4);
        assert!(matches!(
            &outs[0],
            ControllerOutput::ToSwitch { xid: 4, msg: OfpMessage::EchoReply(d), .. } if d == &vec![9]
        ));
    }

    #[test]
    fn garbage_pkt_in_is_counted_not_crashed() {
        let mut c = Controller::new(ControllerConfig::default());
        let outs = c.handle_message(
            Nanos::ZERO,
            pkt_in_for(vec![1, 2, 3], BufferId::NO_BUFFER, 3),
            1,
        );
        assert!(outs.is_empty());
        assert_eq!(c.stats().parse_failures.get(), 1);
    }

    #[test]
    fn flow_removed_and_errors_are_counted() {
        let mut c = Controller::new(ControllerConfig::default());
        c.handle_message(
            Nanos::ZERO,
            OfpMessage::Error(sdnbuf_openflow::msg::ErrorMsg {
                err_type: 1,
                code: 1,
                data: vec![],
            }),
            1,
        );
        assert_eq!(c.stats().errors.get(), 1);
    }

    #[test]
    fn admission_drop_tail_sheds_overflow() {
        let mut c = Controller::new(ControllerConfig {
            admission: Some((AdmissionPolicy::DropTail, 1)),
            ..ControllerConfig::default()
        });
        c.learn(MacAddr::from_host_index(2), PortNo(2));
        let pkt = PacketBuilder::udp().frame_size(1000).build();
        let outs = c.handle_message(
            Nanos::ZERO,
            pkt_in_for(pkt.wire_prefix(128), BufferId::new(1), 1000),
            1,
        );
        assert_eq!(outs.len(), 2, "first arrival is served");
        // The slot is still held: a same-instant arrival is shed.
        let outs = c.handle_message(
            Nanos::ZERO,
            pkt_in_for(pkt.wire_prefix(128), BufferId::new(2), 1000),
            2,
        );
        assert!(outs.is_empty());
        assert_eq!(c.stats().admission_sheds.get(), 1);
        assert_eq!(c.stats().pkt_ins.get(), 1, "shed messages are not parsed");
        // Once the first response has left, capacity frees up.
        let outs = c.handle_message(
            Nanos::from_millis(10),
            pkt_in_for(pkt.wire_prefix(128), BufferId::new(3), 1000),
            3,
        );
        assert_eq!(outs.len(), 2);
    }

    #[test]
    fn admission_drop_head_keeps_the_newest() {
        let mut c = Controller::new(ControllerConfig {
            admission: Some((AdmissionPolicy::DropHead, 1)),
            ..ControllerConfig::default()
        });
        c.learn(MacAddr::from_host_index(2), PortNo(2));
        let pkt = PacketBuilder::udp().frame_size(1000).build();
        c.handle_message(
            Nanos::ZERO,
            pkt_in_for(pkt.wire_prefix(128), BufferId::new(1), 1000),
            1,
        );
        let outs = c.handle_message(
            Nanos::ZERO,
            pkt_in_for(pkt.wire_prefix(128), BufferId::new(2), 1000),
            2,
        );
        assert_eq!(outs.len(), 2, "drop-head admits the newest arrival");
        assert_eq!(c.stats().admission_sheds.get(), 1, "…evicting the oldest");
    }

    #[test]
    fn admission_prefer_rerequests_admits_buffered_over_capacity() {
        let mut c = Controller::new(ControllerConfig {
            admission: Some((AdmissionPolicy::PreferRerequests, 1)),
            ..ControllerConfig::default()
        });
        c.learn(MacAddr::from_host_index(2), PortNo(2));
        let pkt = PacketBuilder::udp().frame_size(1000).build();
        c.handle_message(
            Nanos::ZERO,
            pkt_in_for(pkt.encode(), BufferId::NO_BUFFER, 1000),
            1,
        );
        // A full-packet arrival over capacity is shed…
        let outs = c.handle_message(
            Nanos::ZERO,
            pkt_in_for(pkt.encode(), BufferId::NO_BUFFER, 1000),
            2,
        );
        assert!(outs.is_empty());
        // …but a buffered re-request is always admitted.
        let outs = c.handle_message(
            Nanos::ZERO,
            pkt_in_for(pkt.wire_prefix(128), BufferId::new(7), 1000),
            3,
        );
        assert_eq!(outs.len(), 2);
        assert_eq!(c.stats().admission_sheds.get(), 1);
    }

    #[test]
    fn echo_rtt_is_recorded_per_matched_reply() {
        let mut c = Controller::new(ControllerConfig::default());
        let ControllerOutput::ToSwitch { xid, at, .. } = c.keepalive(Nanos::ZERO);
        c.handle_message(
            at + Nanos::from_micros(300),
            OfpMessage::EchoReply(vec![0x5a; 8]),
            xid,
        );
        assert_eq!(c.stats().echo_rtt.count(), 1);
        assert!(c.stats().echo_rtt.quantile(0.5) >= Nanos::from_micros(300));
        // A reply with an unknown xid (e.g. answering a crashed
        // predecessor's probe) records no sample.
        c.handle_message(Nanos::from_millis(1), OfpMessage::EchoReply(vec![]), 0xdead);
        assert_eq!(c.stats().echo_rtt.count(), 1);
        assert_eq!(c.stats().echo_replies.get(), 2);
    }

    #[test]
    fn crash_drops_volatile_state_but_keeps_the_xid_space() {
        let mut c = seeded();
        c.handle_message(
            Nanos::ZERO,
            OfpMessage::FeaturesReply(sdnbuf_openflow::msg::FeaturesReply {
                datapath_id: 1,
                n_buffers: 16,
                n_tables: 1,
                capabilities: 0,
                actions: 0,
                ports: vec![],
            }),
            1,
        );
        assert!(c.switch_features().is_some());
        let ControllerOutput::ToSwitch { xid: x1, .. } = c.keepalive(Nanos::ZERO);
        c.set_epoch(1);
        c.crash();
        assert_eq!(c.location_of(MacAddr::from_host_index(2)), None);
        assert!(c.switch_features().is_none());
        // The in-flight probe died with the process: its late reply is
        // ignored.
        c.handle_message(Nanos::from_millis(1), OfpMessage::EchoReply(vec![]), x1);
        assert_eq!(c.stats().echo_rtt.count(), 0);
        // The xid space is monotonic across the crash.
        let ControllerOutput::ToSwitch { xid: x2, .. } = c.keepalive(Nanos::from_millis(2));
        assert!(x2 > x1);
    }

    #[test]
    fn standby_mints_from_its_own_xid_range_and_syncs_warm() {
        let mut primary = seeded();
        let mut standby = Controller::new(ControllerConfig::default());
        standby.set_xid_base(0xC000_0000);
        let ControllerOutput::ToSwitch { xid, .. } = standby.keepalive(Nanos::ZERO);
        assert_eq!(xid, 0xC000_0000);
        assert_eq!(standby.location_of(MacAddr::from_host_index(2)), None);
        standby.sync_from(&primary);
        assert_eq!(
            standby.location_of(MacAddr::from_host_index(2)),
            Some(PortNo(2))
        );
        // Sync copies knowledge, not identity: the primary is unaffected.
        let ControllerOutput::ToSwitch { xid, .. } = primary.keepalive(Nanos::ZERO);
        assert_eq!(xid, 0x8000_0000);
    }

    #[test]
    fn cpu_accumulates() {
        let mut c = seeded();
        let pkt = PacketBuilder::udp().frame_size(1000).build();
        for i in 0..10 {
            c.handle_message(
                Nanos::from_micros(i * 50),
                pkt_in_for(pkt.encode(), BufferId::NO_BUFFER, 1000),
                i as u32,
            );
        }
        assert!(c.cpu_percent(Nanos::from_millis(1)) > 0.0);
    }
}
