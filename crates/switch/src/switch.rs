//! The switch state machine: the datapath (match → buffer a miss and ask →
//! release on `packet_out`), the OpenFlow agent in front of it, and the
//! three planes it composes — [`Degraded`], [`Liveness`], [`Session`] —
//! whose transitions it turns into counters and events.

mod agent;

use crate::degraded::{Admit, Degraded, Entered};
use crate::liveness::Liveness;
use crate::session::Session;
use crate::{BufferChoice, SwitchConfig, SwitchStats};
use sdnbuf_flowtable::{FlowRule, FlowTable, InsertOutcome, RemovedRule};
use sdnbuf_net::{Packet, WireFrame};
use sdnbuf_openflow::{
    msg::{self, FlowModCommand, FlowRemoved, PacketIn, PacketInReason},
    Action, BufferId, FlowBufferExt, MatchView, OfpMessage, PortNo, Refusal,
};
use sdnbuf_sim::{Bus, CpuResource, EventKind, Nanos, Tracer};
use sdnbuf_switchbuf::{
    BufferMechanism, BufferedPacket, FlowGranularityBuffer, GaveUpFlow, GiveUp, MissAction,
    NoBuffer, PacketGranularityBuffer, PacketHandle, PacketPool, Rerequest, Sabotage,
};

/// Physical data ports: the two hosts of Fig. 1.
const DATA_PORTS: u16 = 2;

/// CPU time for trivial control messages (echo, features, config).
const COST_CONTROL_MISC: Nanos = Nanos::from_micros(5);

/// A timed effect produced by the switch, to be scheduled by the caller.
///
/// Packets travel by [`PacketHandle`] into the shared [`PacketPool`]: every
/// `Forward` and `Drop { packet: Some(_) }` output carries its own pool
/// reference, which the caller inherits (forward it onward, or release it).
#[derive(Clone, Debug, PartialEq)]
pub enum SwitchOutput {
    /// Emit the packet behind `packet` on `port` at time `at` (the caller
    /// puts it on the egress link).
    Forward {
        /// When the packet leaves the switch.
        at: Nanos,
        /// Egress port.
        port: PortNo,
        /// Handle of the packet; the caller inherits this pool reference.
        packet: PacketHandle,
    },
    /// Send `msg` to the controller at time `at` (the caller puts it on the
    /// control channel).
    ToController {
        /// When the message leaves the switch.
        at: Nanos,
        /// Transaction id.
        xid: u32,
        /// The message.
        msg: OfpMessage,
    },
    /// The packet was dropped (empty action list or undecodable
    /// `packet_out` payload).
    Drop {
        /// Handle of the dropped packet, when it could be reconstructed;
        /// the caller inherits the pool reference.
        packet: Option<PacketHandle>,
    },
}

/// Emits the packet behind `packet` at `at` on every egress `actions` name
/// for a packet that arrived on `in_port`, and returns how many that was.
/// No egress at all (an empty list, or no output to a port that exists) is
/// an accounted drop. One pool reference per egress: the handle passed in
/// covers the first, each further port retains the same pooled packet.
///
/// A free function over the switch's counters so the fast path can walk a
/// matched rule's actions where they lie in the table, while the table is
/// still borrowed.
fn forward_all(
    stats: &mut SwitchStats,
    actions: &[Action],
    in_port: PortNo,
    at: Nanos,
    packet: PacketHandle,
    pool: &mut PacketPool,
    out: &mut Vec<SwitchOutput>,
) -> u64 {
    let mut forwards = 0;
    let mut emit = |port: PortNo| {
        if forwards > 0 {
            pool.retain(packet);
        }
        forwards += 1;
        out.push(SwitchOutput::Forward { at, port, packet });
    };
    for &Action::Output { port, .. } in actions {
        match port {
            PortNo::FLOOD | PortNo::ALL => (1..=DATA_PORTS)
                .map(PortNo)
                .filter(|&p| p != in_port)
                .for_each(&mut emit),
            PortNo::IN_PORT => emit(in_port),
            p if p.is_physical() => emit(p),
            _ => {}
        }
    }
    if forwards == 0 {
        shed(stats, Some(packet), out);
    }
    forwards
}

/// `(seconds, nanoseconds)` as the wire's split duration fields carry it.
fn split_duration(d: Nanos) -> (u32, u32) {
    (
        (d.as_nanos() / 1_000_000_000) as u32,
        (d.as_nanos() % 1_000_000_000) as u32,
    )
}

/// A timeout in whole seconds, as `flow_mod` set it.
fn whole_secs(d: Nanos) -> u16 {
    (d.as_nanos() / 1_000_000_000) as u16
}

/// Accounts one packet dropped at the switch. `packet` is its handle when
/// the packet still exists (the caller inherits the pool reference);
/// `None` when there is nothing to hand over — an undecodable `packet_out`
/// payload, or a handle that went stale behind the switch's back.
fn shed(stats: &mut SwitchStats, packet: Option<PacketHandle>, out: &mut Vec<SwitchOutput>) {
    stats.drops.incr();
    out.push(SwitchOutput::Drop { packet });
}

/// The Open vSwitch model: flow table, buffer mechanism, CPU, bus.
///
/// See the crate docs for the timing model. All handlers take the current
/// virtual time and produce timed [`SwitchOutput`]s with `at >= now`.
///
/// Every handler comes as `*_into(.., out)`, which pushes its outputs onto
/// the caller's `Vec` in emission order and never clears or reads it — the
/// caller drains it, and one that keeps it across calls (the testbed does)
/// pays for its storage once — and as a wrapper returning a fresh `Vec`.
pub struct Switch {
    config: SwitchConfig,
    // Datapath.
    table: FlowTable,
    buffer: Box<dyn BufferMechanism>,
    cpu: CpuResource,
    bus: Bus,
    /// The serial rule-install pipeline (ofproto): one rule at a time.
    installer: CpuResource,
    // OpenFlow agent.
    next_xid: u32,
    miss_send_len: u16,
    // Accounting.
    stats: SwitchStats,
    tracer: Tracer,
    /// Where a `packet_out` has the buffer mechanism put what it releases;
    /// empty between calls, kept for its storage.
    released: Vec<BufferedPacket>,
    /// The same for what a timer's expiry sweep takes out of the table.
    expired: Vec<RemovedRule>,
    // Planes: recovery, controller liveness, controller session. Each is
    // inert until armed (`degraded_threshold > 0`, `arm_crash_plane`), so
    // a switch without them behaves as the paper's.
    degraded: Degraded,
    liveness: Liveness,
    session: Session,
}

impl std::fmt::Debug for Switch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Switch")
            .field("buffer", &self.buffer.name())
            .field("rules", &self.table.len())
            .field("occupancy", &self.buffer.occupancy())
            .finish_non_exhaustive()
    }
}

impl Switch {
    /// Creates a switch from its configuration.
    ///
    /// # Panics
    /// When [`SwitchConfig::validate`] rejects the configuration. See
    /// [`Switch::try_new`] for the non-panicking form.
    pub fn new(config: SwitchConfig) -> Switch {
        match Switch::try_new(config) {
            Ok(sw) => sw,
            Err(e) => panic!("invalid SwitchConfig: {e}"),
        }
    }

    /// [`Switch::new`] with the validation error returned instead of
    /// panicking — the single validation path for switch construction.
    pub fn try_new(config: SwitchConfig) -> Result<Switch, String> {
        config.validate()?;
        let buffer: Box<dyn BufferMechanism> = match config.buffer {
            BufferChoice::NoBuffer => Box::new(NoBuffer::new()),
            BufferChoice::PacketGranularity { capacity } => Box::new(
                PacketGranularityBuffer::with_free_lag(capacity, config.buffer_free_lag)
                    .with_ttl(config.buffer_ttl),
            ),
            BufferChoice::FlowGranularity { capacity, timeout } => Box::new(
                FlowGranularityBuffer::new(capacity, timeout)
                    .with_retry_policy(config.retry)
                    .with_ttl(config.buffer_ttl),
            ),
        };
        Ok(Switch {
            table: FlowTable::with_eviction(config.flow_table_capacity, config.eviction),
            buffer,
            cpu: CpuResource::new(config.cpu_cores),
            bus: Bus::new(config.bus_rate),
            installer: CpuResource::new(1),
            next_xid: 1,
            miss_send_len: config.miss_send_len,
            stats: SwitchStats::default(),
            tracer: Tracer::off(),
            released: Vec::new(),
            expired: Vec::new(),
            degraded: Degraded::new(config.degraded_threshold),
            liveness: Liveness::default(),
            session: Session::default(),
            config,
        })
    }

    /// Whether the switch is currently in degraded mode (shedding fresh
    /// misses, probing periodically).
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_degraded()
    }

    /// Arms the controller-crash plane: buffer allocations are stamped
    /// with the session epoch (starting at 1), the liveness detector runs
    /// (when `liveness_timeout > 0`), and a controller re-handshake bumps
    /// the epoch and reconciles surviving buffer state. Off by default —
    /// unarmed runs are byte-identical to the pre-crash-plane switch. Arm
    /// before traffic: the buffer is reconciled to epoch 1 while it is
    /// still empty, so nothing is re-announced.
    pub fn arm_crash_plane(&mut self) {
        self.session.arm();
        self.liveness.arm(self.config.liveness_timeout);
        self.buffer
            .reconcile_epoch(Nanos::ZERO, self.session.epoch());
    }

    /// The current controller↔switch session epoch (`0` = crash plane
    /// unarmed).
    pub fn session_epoch(&self) -> u32 {
        self.session.epoch()
    }

    /// Whether the liveness detector currently suspects the controller is
    /// dead (fresh misses are being shed).
    pub fn is_ctrl_suspect(&self) -> bool {
        self.liveness.is_suspect()
    }

    /// Attaches an event tracer, propagating it to the bus and the buffer
    /// mechanism so the whole switch reports into one stream.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.bus.set_tracer(tracer.clone(), "switch-bus");
        self.buffer.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// The switch's configuration.
    pub fn config(&self) -> &SwitchConfig {
        &self.config
    }

    /// The flow table (for inspection).
    pub fn table(&self) -> &FlowTable {
        &self.table
    }

    /// The buffer mechanism (for inspection).
    pub fn buffer(&self) -> &dyn BufferMechanism {
        self.buffer.as_ref()
    }

    /// Cripples the buffer mechanism as `sabotage` names (the chaos
    /// harness's self-test; see [`BufferMechanism::sabotage`]).
    pub fn sabotage_buffer(&mut self, sabotage: Sabotage) {
        self.buffer.sabotage(sabotage);
    }

    /// Toggles buffer-capacity pressure on the mechanism: while on, new
    /// misses fall back to full-packet `packet_in`s as if buffer memory
    /// were exhausted.
    pub fn set_buffer_pressure(&mut self, on: bool) {
        self.buffer.set_pressure(on);
    }

    /// Switch-side counters and gauges.
    pub fn stats(&self) -> &SwitchStats {
        &self.stats
    }

    /// `top`-style CPU utilization over `[ZERO, horizon]`, in percent
    /// (up to `cores × 100`).
    pub fn cpu_percent(&self, horizon: Nanos) -> f64 {
        self.cpu.utilization().percent(horizon)
    }

    /// The current `miss_send_len` (mutable via `set_config`).
    pub fn miss_send_len(&self) -> u16 {
        self.miss_send_len
    }

    fn fresh_xid(&mut self) -> u32 {
        let xid = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1);
        xid
    }

    fn touch_gauge(&mut self, now: Nanos) {
        let occupancy = self.buffer.occupancy() as f64;
        self.stats.buffer_occupancy.set(now, occupancy);
    }

    /// Handles a frame arriving on a data port at time `now`, pushing the
    /// timed effects onto `out`. The caller passes one pool reference in
    /// with `packet`; it comes back out in the outputs (each
    /// `Forward`/`Drop` carries its own reference) or is absorbed by the
    /// buffer mechanism / the encoded `packet_in` payload. A `packet` the
    /// pool no longer knows is an accounted drop with nothing to hand back.
    ///
    /// A table hit allocates nothing once `out` has room for the rule's
    /// egress ports.
    pub fn handle_frame_into(
        &mut self,
        now: Nanos,
        in_port: PortNo,
        packet: PacketHandle,
        pool: &mut PacketPool,
        out: &mut Vec<SwitchOutput>,
    ) {
        let Some(pk) = pool.get(packet) else {
            return shed(&mut self.stats, None, out);
        };
        let view = MatchView::of(in_port, pk);
        let wire_len = pk.wire_len();
        let matched = self.table.match_packet(now, &view, wire_len);
        if let Some(rule) = matched {
            // Fast path: datapath CPU cost, then out the rule's ports.
            let done = self.cpu.submit(now, self.config.cost_forward);
            let forwards = forward_all(
                &mut self.stats,
                &rule.actions,
                in_port,
                done,
                packet,
                pool,
                out,
            );
            self.stats.fastpath_forwards.add(forwards);
            return;
        }
        // Slow path: table miss.
        self.stats.table_misses.incr();
        self.tracer.emit(
            now,
            EventKind::TableMiss {
                in_port: in_port.as_u16(),
                bytes: wire_len,
            },
        );
        if self.liveness.is_suspect() {
            // Announcing this miss would be shouting into a dead session.
            // Already-buffered state is kept for post-restart
            // reconciliation.
            self.stats.suspect_sheds.incr();
            return shed(&mut self.stats, Some(packet), out);
        }
        if self.degraded.admit_miss(now) == Admit::Shed {
            self.stats.degraded_sheds.incr();
            return shed(&mut self.stats, Some(packet), out);
        }
        // Algorithm 1. `Normal` and `Probe` misses take the same path.
        let total_len = wire_len as u16;
        match self.buffer.on_miss(now, packet, in_port, pool) {
            MissAction::SendFullPacketIn => {
                // The whole frame crosses the bus, then the CPU builds a
                // packet_in carrying it all. We still own the reference:
                // the packet lives on only as the message payload.
                let data = pk.wire();
                pool.release(packet);
                let no_buffer = BufferId::NO_BUFFER;
                self.packet_in_into(now, Nanos::ZERO, no_buffer, total_len, in_port, data, out);
            }
            MissAction::SendBufferedPacketIn { buffer_id } => {
                // Only the header slice crosses the bus; the packet body
                // stays in the buffer unit (the mechanism holds the
                // reference now).
                let slice = pk.wire_prefix(self.miss_send_len as usize);
                let store = self.config.cost_buffer_store;
                self.packet_in_into(now, store, buffer_id, total_len, in_port, slice, out);
            }
            MissAction::Buffered { .. } => {
                // Algorithm 1 line 11: buffered silently; only the store
                // cost is paid, no message is generated.
                self.cpu.submit(now, self.config.cost_buffer_store);
            }
        }
        self.touch_gauge(now);
    }

    /// [`Switch::handle_frame_into`] a fresh `Vec`.
    pub fn handle_frame(
        &mut self,
        now: Nanos,
        in_port: PortNo,
        packet: PacketHandle,
        pool: &mut PacketPool,
    ) -> Vec<SwitchOutput> {
        let mut out = Vec::new();
        self.handle_frame_into(now, in_port, packet, pool, &mut out);
        out
    }

    /// Sends `data` to the controller as a `packet_in`: the bytes cross the
    /// bus, then the CPU builds the message (`extra_cost` on top of the
    /// size-dependent build cost, e.g. a buffer store).
    #[allow(clippy::too_many_arguments)]
    fn packet_in_into(
        &mut self,
        now: Nanos,
        extra_cost: Nanos,
        buffer_id: BufferId,
        total_len: u16,
        in_port: PortNo,
        data: WireFrame,
        out: &mut Vec<SwitchOutput>,
    ) {
        let at_cpu = self.bus.transfer(now, data.len());
        let cost = extra_cost + self.config.cost_pkt_in_base + self.config.payload_cost(data.len());
        let at = self.cpu.submit(at_cpu, cost);
        let xid = self.fresh_xid();
        self.stats.pkt_in_sent.incr();
        self.stats.pkt_in_bytes.add(data.len() as u64);
        self.tracer.emit(
            at,
            EventKind::PacketInSent {
                xid,
                buffer_id: buffer_id.as_u32(),
                bytes: data.len(),
            },
        );
        let msg = OfpMessage::PacketIn(PacketIn {
            buffer_id,
            total_len,
            in_port,
            reason: PacketInReason::NoMatch,
            data,
        });
        out.push(SwitchOutput::ToController { at, xid, msg });
    }

    /// Handles a control message arriving from the controller at `now`,
    /// pushing the timed effects onto `out`. `pool` backs the packets a
    /// `packet_out` releases or re-injects.
    pub fn handle_controller_msg_into(
        &mut self,
        now: Nanos,
        msg: OfpMessage,
        xid: u32,
        pool: &mut PacketPool,
        out: &mut Vec<SwitchOutput>,
    ) {
        // Any controller message proves the session is alive; a substantive
        // response also ends a degraded episode.
        self.liveness.heard(now);
        if matches!(msg, OfpMessage::FlowMod(_) | OfpMessage::PacketOut(_)) {
            if let Some(suppressed) = self.degraded.on_response() {
                self.stats.degraded_exits.incr();
                self.tracer
                    .emit(now, EventKind::DegradedExit { suppressed });
            }
        }
        match msg {
            OfpMessage::FlowMod(fm) => self.handle_flow_mod(now, fm, xid, out),
            OfpMessage::PacketOut(po) => self.handle_packet_out(now, po, xid, pool, out),
            OfpMessage::SetConfig(c) => {
                self.cpu.submit(now, COST_CONTROL_MISC);
                self.miss_send_len = c.miss_send_len;
                if let Some((from, to)) = self.session.handshake_done() {
                    self.reconcile_buffer(now, from, to);
                }
            }
            OfpMessage::Hello => {
                self.session.on_hello(xid);
                self.reply(now, xid, OfpMessage::Hello, out)
            }
            query => self.answer(now, query, xid, out),
        }
    }

    /// [`Switch::handle_controller_msg_into`] a fresh `Vec`.
    pub fn handle_controller_msg(
        &mut self,
        now: Nanos,
        msg: OfpMessage,
        xid: u32,
        pool: &mut PacketPool,
    ) -> Vec<SwitchOutput> {
        let mut out = Vec::new();
        self.handle_controller_msg_into(now, msg, xid, pool, &mut out);
        out
    }

    fn handle_flow_mod(
        &mut self,
        now: Nanos,
        fm: msg::FlowMod,
        xid: u32,
        out: &mut Vec<SwitchOutput>,
    ) {
        self.stats.flow_mods.incr();
        match fm.command {
            FlowModCommand::Add | FlowModCommand::Modify | FlowModCommand::ModifyStrict => {
                // The rule takes effect when the serial install pipeline
                // finishes it — the paper's t_e. Packets arriving before
                // t_e still miss and re-trigger the slow path.
                let parsed_at = self.cpu.submit(now, self.config.cost_flow_mod);
                let effective_at = self
                    .installer
                    .submit(parsed_at, self.config.cost_rule_install);
                let mut rule = FlowRule::new(fm.match_fields, fm.priority)
                    .with_actions(fm.actions)
                    .with_cookie(fm.cookie)
                    .with_idle_timeout(Nanos::from_secs(u64::from(fm.idle_timeout)))
                    .with_hard_timeout(Nanos::from_secs(u64::from(fm.hard_timeout)));
                if fm.flags & msg::OFPFF_SEND_FLOW_REM != 0 {
                    rule = rule.with_removal_notification();
                }
                let outcome = self.table.insert(effective_at, rule);
                self.tracer.emit(
                    now,
                    EventKind::FlowRuleInstalled {
                        xid,
                        effective_at,
                        table_size: self.table.len(),
                    },
                );
                if let InsertOutcome::Evicted(victim) = outcome {
                    self.tracer.emit(
                        effective_at,
                        EventKind::FlowRuleEvicted {
                            table_size: self.table.len(),
                        },
                    );
                    if victim.notify_on_removal {
                        let removed = RemovedRule {
                            rule: victim,
                            reason: msg::FlowRemovedReason::Delete,
                        };
                        let flow_removed = self.flow_removed_output(effective_at, removed);
                        out.push(flow_removed);
                    }
                }
            }
            FlowModCommand::Delete | FlowModCommand::DeleteStrict => {
                let at = self.cpu.submit(now, self.config.cost_flow_mod);
                let strict = fm.command == FlowModCommand::DeleteStrict;
                for removed in self.table.delete(&fm.match_fields, fm.priority, strict) {
                    if removed.rule.notify_on_removal {
                        let flow_removed = self.flow_removed_output(at, removed);
                        out.push(flow_removed);
                    }
                }
            }
        }
    }

    fn flow_removed_output(&mut self, at: Nanos, removed: RemovedRule) -> SwitchOutput {
        let xid = self.fresh_xid();
        let rule = removed.rule;
        let (duration_sec, duration_nsec) = split_duration(at.saturating_sub(rule.installed_at));
        SwitchOutput::ToController {
            at,
            xid,
            msg: OfpMessage::FlowRemoved(FlowRemoved {
                match_fields: rule.match_fields,
                cookie: rule.cookie,
                priority: rule.priority,
                reason: removed.reason,
                duration_sec,
                duration_nsec,
                idle_timeout: whole_secs(rule.idle_timeout),
                packet_count: rule.packet_count,
                byte_count: rule.byte_count,
            }),
        }
    }

    /// A re-handshake bumped the session epoch `from → to`: migrates the
    /// surviving buffer entries to it (resetting their retry budgets) and
    /// queues their paced re-announce.
    fn reconcile_buffer(&mut self, now: Nanos, from: u32, to: u32) {
        let survivors = self.buffer.reconcile_epoch(now, to);
        self.stats.epoch_bumps.incr();
        self.tracer.emit(
            now,
            EventKind::EpochBump {
                from,
                to,
                survivors: survivors.len(),
            },
        );
        self.session.queue(survivors, now);
    }

    fn handle_packet_out(
        &mut self,
        now: Nanos,
        po: msg::PacketOut,
        xid: u32,
        pool: &mut PacketPool,
        out: &mut Vec<SwitchOutput>,
    ) {
        self.stats.pkt_outs.incr();
        if po.buffer_id.is_buffered() {
            // Algorithm 2: release and forward every packet filed under
            // this id, one by one, in FIFO order.
            let parse_done = self.cpu.submit(now, self.config.cost_pkt_out_base);
            let mut released = std::mem::take(&mut self.released);
            let verdict = self
                .buffer
                .release_into(parse_done, po.buffer_id, &mut released);
            self.touch_gauge(parse_done);
            self.tracer.emit(
                parse_done,
                EventKind::BufferDrain {
                    xid,
                    buffer_id: po.buffer_id.as_u32(),
                    released: released.len(),
                    occupancy: self.buffer.occupancy(),
                },
            );
            if verdict == Err(Refusal::StaleEpoch) {
                // This packet_out was minted under a session that has
                // since died.
                self.stats.stale_epoch_rejects.incr();
                self.tracer.emit(
                    parse_done,
                    EventKind::StaleEpochReject {
                        xid,
                        buffer_id: po.buffer_id.as_u32(),
                        epoch: po.buffer_id.epoch(),
                        current: self.session.epoch(),
                    },
                );
            }
            let mut t = parse_done;
            for bp in released.drain(..) {
                t = self.cpu.submit(t, self.config.cost_buffer_release);
                self.forward_slow(&po.actions, bp.in_port, t, bp.packet, pool, out);
            }
            self.released = released;
        } else {
            // Unbuffered: the full packet rides in the message and must
            // cross the bus back to the forwarding plane.
            let data_len = po.data.len();
            let cost = self.config.cost_pkt_out_base + self.config.payload_cost(data_len);
            let cpu_done = self.cpu.submit(now, cost);
            let at = self.bus.transfer(cpu_done, data_len);
            match Packet::decode(&po.data) {
                Ok(packet) => {
                    let handle = pool.insert(packet);
                    self.forward_slow(&po.actions, po.in_port, at, handle, pool, out)
                }
                Err(_) => shed(&mut self.stats, None, out),
            }
        }
    }

    /// Executes a `packet_out`'s `actions` on one packet at `at`. A packet
    /// reclaimed behind the buffer's back is an accounted drop.
    fn forward_slow(
        &mut self,
        actions: &[Action],
        in_port: PortNo,
        at: Nanos,
        packet: PacketHandle,
        pool: &mut PacketPool,
        out: &mut Vec<SwitchOutput>,
    ) {
        if pool.get(packet).is_none() {
            return shed(&mut self.stats, None, out);
        }
        let forwards = forward_all(&mut self.stats, actions, in_port, at, packet, pool, out);
        self.stats.slowpath_forwards.add(forwards);
    }

    /// Announces the flow-granularity buffer capability over the vendor
    /// extension (Section V: the mechanism "requires to extend the
    /// OpenFlow protocol"). Emits nothing for the standard mechanisms.
    pub fn announce_capabilities_into(&mut self, now: Nanos, out: &mut Vec<SwitchOutput>) {
        let BufferChoice::FlowGranularity { capacity, timeout } = self.config.buffer else {
            return;
        };
        let xid = self.fresh_xid();
        let announce = FlowBufferExt::Announce {
            capacity: capacity as u32,
            timeout_ms: (timeout.as_nanos() / 1_000_000) as u32,
        };
        self.reply(now, xid, OfpMessage::from(announce), out);
    }

    /// [`Switch::announce_capabilities_into`] a fresh `Vec`.
    pub fn announce_capabilities(&mut self, now: Nanos) -> Vec<SwitchOutput> {
        let mut out = Vec::new();
        self.announce_capabilities_into(now, &mut out);
        out
    }

    /// The earliest moment the switch needs a timer callback: flow-table
    /// expiry, a buffer re-request/TTL deadline, a degraded-mode probe, a
    /// liveness deadline, or a paced reconciliation re-announce.
    pub fn next_timer(&self) -> Option<Nanos> {
        [
            self.table.next_expiry(),
            self.buffer.next_timeout(),
            self.degraded.next_timer(),
            self.liveness.deadline(),
            self.session.next_timer(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Runs everything due at `now`, pushing the timed effects onto
    /// `outputs`: the liveness deadline, paced reconciliation, flow-table
    /// expiry, then the buffer's sweep — TTL drops, give-ups (and the
    /// degraded-mode transition they may trip), re-requests.
    pub fn on_timer_into(
        &mut self,
        now: Nanos,
        pool: &mut PacketPool,
        outputs: &mut Vec<SwitchOutput>,
    ) {
        if self.liveness.tick(now) {
            self.stats.liveness_suspects.incr();
        }
        while let Some(id) = self.session.pop_due(now) {
            // The entry may have drained or expired since the bump listed
            // it; the re-announce is then skipped.
            if let Some(rerequest) = self.buffer.rerequest_for(id) {
                self.stats.reconcile_rerequests.incr();
                self.tracer.emit(
                    now,
                    EventKind::BufferReconcile {
                        buffer_id: rerequest.buffer_id.as_u32(),
                        occupancy: self.buffer.occupancy(),
                    },
                );
                self.rerequest_into(now, rerequest, pool, outputs);
            }
        }
        let mut expired = std::mem::take(&mut self.expired);
        self.table.expire_into(now, &mut expired);
        for removed in expired.drain(..) {
            self.tracer.emit(
                now,
                EventKind::FlowRuleExpired {
                    table_size: self.table.len(),
                },
            );
            if removed.rule.notify_on_removal {
                let at = self.cpu.submit(now, COST_CONTROL_MISC);
                outputs.push(self.flow_removed_output(at, removed));
            }
        }
        self.expired = expired;
        let sweep = self.buffer.poll_timeouts(now, pool);
        if !sweep.expired.is_empty() || !sweep.gave_up.is_empty() {
            self.touch_gauge(now);
        }
        // TTL-expired entries are dropped at the switch: the controller
        // never answered, and their units are already freed.
        for bp in sweep.expired {
            shed(&mut self.stats, Some(bp.packet), outputs);
        }
        for flow in sweep.gave_up {
            self.degraded.on_giveup();
            self.give_up(now, flow, pool, outputs);
        }
        if let Some(Entered { giveups }) = self.degraded.tick(now) {
            self.stats.degraded_entries.incr();
            self.tracer.emit(now, EventKind::DegradedEnter { giveups });
        }
        for rerequest in sweep.rerequests {
            self.rerequest_into(now, rerequest, pool, outputs);
        }
    }

    /// [`Switch::on_timer_into`] a fresh `Vec`.
    pub fn on_timer(&mut self, now: Nanos, pool: &mut PacketPool) -> Vec<SwitchOutput> {
        let mut outputs = Vec::new();
        self.on_timer_into(now, pool, &mut outputs);
        outputs
    }

    /// Executes the give-up action of a flow whose retry budget ran out.
    fn give_up(
        &mut self,
        now: Nanos,
        flow: GaveUpFlow,
        pool: &mut PacketPool,
        out: &mut Vec<SwitchOutput>,
    ) {
        for bp in flow.packets {
            let drained = match flow.action {
                GiveUp::DrainAsFullPacketIn => pool.take(bp.packet),
                GiveUp::Drop => {
                    shed(&mut self.stats, Some(bp.packet), out);
                    continue;
                }
            };
            // Fall back to the no-buffer path: each drained packet crosses
            // the bus in full and rides its own packet_in, so a recovered
            // controller can still route it. The packet lives on only as
            // the message payload, so the inherited reference went with
            // the `take`.
            let Some(pk) = drained else {
                shed(&mut self.stats, None, out);
                continue;
            };
            let (no_buffer, len, data) = (BufferId::NO_BUFFER, pk.wire_len() as u16, pk.wire());
            self.packet_in_into(now, Nanos::ZERO, no_buffer, len, bp.in_port, data, out);
        }
    }

    /// Pushes the `packet_in` re-announcing a still-buffered flow.
    /// `rerequest.packet` is a borrowed view of the head-of-line packet;
    /// only its header slice is re-encoded.
    fn rerequest_into(
        &mut self,
        now: Nanos,
        rerequest: Rerequest,
        pool: &PacketPool,
        out: &mut Vec<SwitchOutput>,
    ) {
        let Some(pk) = pool.get(rerequest.packet) else {
            return shed(&mut self.stats, None, out);
        };
        let slice = pk.wire_prefix(self.miss_send_len as usize);
        let (id, len, in_port) = (rerequest.buffer_id, pk.wire_len() as u16, rerequest.in_port);
        self.packet_in_into(now, Nanos::ZERO, id, len, in_port, slice, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnbuf_net::PacketBuilder;
    use sdnbuf_openflow::msg::{FlowMod, PacketOut};
    use sdnbuf_openflow::Match;

    fn switch_with(buffer: BufferChoice) -> Switch {
        Switch::new(SwitchConfig {
            buffer,
            ..SwitchConfig::default()
        })
    }

    fn udp(src_port: u16) -> Packet {
        PacketBuilder::udp()
            .src_port(src_port)
            .frame_size(1000)
            .build()
    }

    #[test]
    fn try_new_returns_typed_errors() {
        assert!(Switch::try_new(SwitchConfig::default()).is_ok());
        let err = Switch::try_new(SwitchConfig {
            buffer: BufferChoice::PacketGranularity { capacity: 0 },
            ..SwitchConfig::default()
        })
        .unwrap_err();
        assert!(err.contains("capacity"), "{err}");
    }

    fn flow_mod_for(pkt: &Packet, in_port: PortNo, out_port: PortNo) -> OfpMessage {
        OfpMessage::FlowMod(FlowMod {
            match_fields: Match::exact_from_packet(in_port, pkt),
            cookie: 0,
            command: FlowModCommand::Add,
            idle_timeout: 5,
            hard_timeout: 0,
            priority: 100,
            buffer_id: BufferId::NO_BUFFER,
            out_port: PortNo::NONE,
            flags: 0,
            actions: vec![Action::output(out_port)].into(),
        })
    }

    fn first_pkt_in(outputs: &[SwitchOutput]) -> (&PacketIn, u32, Nanos) {
        for o in outputs {
            if let SwitchOutput::ToController {
                at,
                xid,
                msg: OfpMessage::PacketIn(pin),
            } = o
            {
                return (pin, *xid, *at);
            }
        }
        panic!("no packet_in in {outputs:?}");
    }

    #[test]
    fn miss_without_buffer_sends_full_packet() {
        let mut pool = PacketPool::new();
        let mut sw = switch_with(BufferChoice::NoBuffer);
        let pkt = udp(1);
        let outputs = sw.handle_frame(Nanos::ZERO, PortNo(1), pool.insert(pkt.clone()), &mut pool);
        let (pin, _, at) = first_pkt_in(&outputs);
        assert_eq!(pin.buffer_id, BufferId::NO_BUFFER);
        assert_eq!(pin.data, pkt.encode());
        assert_eq!(pin.total_len, 1000);
        assert!(at > Nanos::ZERO);
        assert_eq!(sw.stats().table_misses.get(), 1);
    }

    #[test]
    fn miss_with_buffer_sends_header_slice() {
        let mut pool = PacketPool::new();
        let mut sw = switch_with(BufferChoice::PacketGranularity { capacity: 16 });
        let pkt = udp(1);
        let outputs = sw.handle_frame(Nanos::ZERO, PortNo(1), pool.insert(pkt.clone()), &mut pool);
        let (pin, _, _) = first_pkt_in(&outputs);
        assert!(pin.buffer_id.is_buffered());
        assert_eq!(pin.data.len(), 128); // miss_send_len
        assert_eq!(pin.data, pkt.header_slice(128));
        assert_eq!(pin.total_len, 1000);
        assert_eq!(sw.buffer().occupancy(), 1);
    }

    #[test]
    fn buffered_miss_is_faster_to_generate_than_full_miss() {
        let mut pool = PacketPool::new();
        let mut nobuf = switch_with(BufferChoice::NoBuffer);
        let mut buf = switch_with(BufferChoice::PacketGranularity { capacity: 16 });
        let (_, _, t_full) = {
            let outs = nobuf.handle_frame(Nanos::ZERO, PortNo(1), pool.insert(udp(1)), &mut pool);
            let (_, x, t) = first_pkt_in(&outs);
            ((), x, t)
        };
        let outs = buf.handle_frame(Nanos::ZERO, PortNo(1), pool.insert(udp(1)), &mut pool);
        let (_, _, t_buf) = first_pkt_in(&outs);
        assert!(
            t_buf < t_full,
            "buffered pkt_in ({t_buf}) must beat full pkt_in ({t_full})"
        );
    }

    #[test]
    fn flow_mod_then_hit_forwards_on_fast_path() {
        let mut pool = PacketPool::new();
        let mut sw = switch_with(BufferChoice::NoBuffer);
        let pkt = udp(7);
        sw.handle_frame(Nanos::ZERO, PortNo(1), pool.insert(pkt.clone()), &mut pool);
        sw.handle_controller_msg(
            Nanos::from_millis(1),
            flow_mod_for(&pkt, PortNo(1), PortNo(2)),
            9,
            &mut pool,
        );
        // Well after t_e: the same flow now hits.
        let outputs = sw.handle_frame(
            Nanos::from_millis(10),
            PortNo(1),
            pool.insert(pkt.clone()),
            &mut pool,
        );
        match &outputs[..] {
            [SwitchOutput::Forward { at, port, packet }] => {
                assert_eq!(*port, PortNo(2));
                assert_eq!(pool.get(*packet).unwrap(), &pkt);
                assert!(*at >= Nanos::from_millis(10));
            }
            other => panic!("expected fast-path forward, got {other:?}"),
        }
        assert_eq!(sw.stats().fastpath_forwards.get(), 1);
    }

    #[test]
    fn rule_does_not_match_before_effect_time() {
        let mut pool = PacketPool::new();
        let mut sw = switch_with(BufferChoice::NoBuffer);
        let pkt = udp(7);
        // Install at t=0; effect time is cost_flow_mod later.
        sw.handle_controller_msg(
            Nanos::ZERO,
            flow_mod_for(&pkt, PortNo(1), PortNo(2)),
            1,
            &mut pool,
        );
        // A packet arriving immediately still misses (t_e > t_2 case).
        let outputs = sw.handle_frame(
            Nanos::from_nanos(1),
            PortNo(1),
            pool.insert(pkt.clone()),
            &mut pool,
        );
        assert!(matches!(outputs[0], SwitchOutput::ToController { .. }));
        assert_eq!(sw.stats().table_misses.get(), 1);
        // After t_e it hits.
        let outputs = sw.handle_frame(
            Nanos::from_millis(1),
            PortNo(1),
            pool.insert(pkt),
            &mut pool,
        );
        assert!(matches!(outputs[0], SwitchOutput::Forward { .. }));
    }

    #[test]
    fn packet_out_releases_buffered_packet() {
        let mut pool = PacketPool::new();
        // Eager reclamation, so the freed unit shows at once.
        let mut sw = Switch::new(SwitchConfig {
            buffer: BufferChoice::PacketGranularity { capacity: 16 },
            buffer_free_lag: Nanos::ZERO,
            ..SwitchConfig::default()
        });
        let pkt = udp(3);
        let outs = sw.handle_frame(Nanos::ZERO, PortNo(1), pool.insert(pkt.clone()), &mut pool);
        let (pin, _, t_pkt_in) = first_pkt_in(&outs);
        let id = pin.buffer_id;
        let outs = sw.handle_controller_msg(
            t_pkt_in + Nanos::from_millis(1),
            OfpMessage::PacketOut(PacketOut {
                buffer_id: id,
                in_port: PortNo(1),
                actions: vec![Action::output(PortNo(2))].into(),
                data: WireFrame::new(),
            }),
            5,
            &mut pool,
        );
        match &outs[..] {
            [SwitchOutput::Forward { port, packet, .. }] => {
                assert_eq!(*port, PortNo(2));
                assert_eq!(pool.get(*packet).unwrap(), &pkt);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(sw.buffer().occupancy(), 0);
        assert_eq!(sw.stats().slowpath_forwards.get(), 1);
    }

    #[test]
    fn packet_out_with_data_crosses_bus_and_forwards() {
        let mut pool = PacketPool::new();
        let mut sw = switch_with(BufferChoice::NoBuffer);
        let pkt = udp(3);
        let outs = sw.handle_controller_msg(
            Nanos::ZERO,
            OfpMessage::PacketOut(PacketOut {
                buffer_id: BufferId::NO_BUFFER,
                in_port: PortNo(1),
                actions: vec![Action::output(PortNo(2))].into(),
                data: pkt.wire(),
            }),
            5,
            &mut pool,
        );
        match &outs[..] {
            [SwitchOutput::Forward {
                at, port, packet, ..
            }] => {
                assert_eq!(*port, PortNo(2));
                assert_eq!(pool.get(*packet).unwrap(), &pkt);
                assert!(*at > Nanos::ZERO);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn packet_out_flood_replicates_to_other_ports() {
        let mut pool = PacketPool::new();
        let mut sw = Switch::new(SwitchConfig::default());
        for (in_port, others) in [(1, [2]), (2, [1])] {
            let outs = sw.handle_controller_msg(
                Nanos::ZERO,
                OfpMessage::PacketOut(PacketOut {
                    buffer_id: BufferId::NO_BUFFER,
                    in_port: PortNo(in_port),
                    actions: vec![Action::output(PortNo::FLOOD)].into(),
                    data: udp(3).encode().into(),
                }),
                5,
                &mut pool,
            );
            let ports: Vec<PortNo> = outs
                .iter()
                .filter_map(|o| match o {
                    SwitchOutput::Forward { port, .. } => Some(*port),
                    _ => None,
                })
                .collect();
            assert_eq!(ports, others.map(PortNo));
        }
    }

    #[test]
    fn flow_granularity_single_request_and_bulk_release() {
        let mut pool = PacketPool::new();
        let mut sw = switch_with(BufferChoice::FlowGranularity {
            capacity: 256,
            timeout: Nanos::from_millis(50),
        });
        let pkt = udp(9);
        let outs = sw.handle_frame(Nanos::ZERO, PortNo(1), pool.insert(pkt.clone()), &mut pool);
        let (pin, _, _) = first_pkt_in(&outs);
        let id = pin.buffer_id;
        // Four more packets of the same flow: silent.
        for i in 1..5u64 {
            let outs = sw.handle_frame(
                Nanos::from_micros(i * 10),
                PortNo(1),
                pool.insert(pkt.clone()),
                &mut pool,
            );
            assert!(outs.is_empty(), "subsequent packets must be silent");
        }
        assert_eq!(sw.stats().pkt_in_sent.get(), 1);
        assert_eq!(sw.buffer().occupancy(), 5);
        // One packet_out drains all five.
        let outs = sw.handle_controller_msg(
            Nanos::from_millis(1),
            OfpMessage::PacketOut(PacketOut {
                buffer_id: id,
                in_port: PortNo(1),
                actions: vec![Action::output(PortNo(2))].into(),
                data: WireFrame::new(),
            }),
            5,
            &mut pool,
        );
        let forwards = outs
            .iter()
            .filter(|o| matches!(o, SwitchOutput::Forward { .. }))
            .count();
        assert_eq!(forwards, 5);
        // Forward times are non-decreasing (released one by one).
        let times: Vec<Nanos> = outs
            .iter()
            .filter_map(|o| match o {
                SwitchOutput::Forward { at, .. } => Some(*at),
                _ => None,
            })
            .collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
        assert_eq!(sw.buffer().occupancy(), 0);
    }

    #[test]
    fn buffer_exhaustion_falls_back_to_full_pkt_in() {
        let mut pool = PacketPool::new();
        let mut sw = switch_with(BufferChoice::PacketGranularity { capacity: 2 });
        for i in 0..3u16 {
            sw.handle_frame(
                Nanos::from_micros(u64::from(i)),
                PortNo(1),
                pool.insert(udp(i)),
                &mut pool,
            );
        }
        assert_eq!(sw.stats().pkt_in_sent.get(), 3);
        // The third pkt_in carried the full kilobyte.
        assert_eq!(sw.stats().pkt_in_bytes.get(), 128 + 128 + 1000);
    }

    #[test]
    fn timer_rerequests_unanswered_flows() {
        let mut pool = PacketPool::new();
        let timeout = Nanos::from_millis(10);
        let mut sw = switch_with(BufferChoice::FlowGranularity {
            capacity: 16,
            timeout,
        });
        sw.handle_frame(Nanos::ZERO, PortNo(1), pool.insert(udp(1)), &mut pool);
        assert_eq!(sw.next_timer(), Some(timeout));
        let outs = sw.on_timer(timeout, &mut pool);
        assert_eq!(outs.len(), 1);
        let (pin, _, _) = first_pkt_in(&outs);
        assert!(pin.buffer_id.is_buffered());
        assert_eq!(sw.stats().pkt_in_sent.get(), 2);
    }

    #[test]
    fn idle_rule_expiry_notifies_when_requested() {
        let mut pool = PacketPool::new();
        let mut sw = switch_with(BufferChoice::NoBuffer);
        let pkt = udp(1);
        let mut fm = match flow_mod_for(&pkt, PortNo(1), PortNo(2)) {
            OfpMessage::FlowMod(fm) => fm,
            _ => unreachable!(),
        };
        fm.flags = msg::OFPFF_SEND_FLOW_REM;
        sw.handle_controller_msg(Nanos::ZERO, OfpMessage::FlowMod(fm), 1, &mut pool);
        let expiry = sw.next_timer().expect("rule has idle timeout");
        let outs = sw.on_timer(expiry, &mut pool);
        assert_eq!(outs.len(), 1);
        assert!(matches!(
            outs[0],
            SwitchOutput::ToController {
                msg: OfpMessage::FlowRemoved(_),
                ..
            }
        ));
        assert_eq!(sw.table().len(), 0);
    }

    #[test]
    fn echo_features_config_replies() {
        let mut pool = PacketPool::new();
        let mut sw = switch_with(BufferChoice::PacketGranularity { capacity: 256 });
        let outs =
            sw.handle_controller_msg(Nanos::ZERO, OfpMessage::EchoRequest(vec![1]), 3, &mut pool);
        assert!(matches!(
            &outs[0],
            SwitchOutput::ToController { xid: 3, msg: OfpMessage::EchoReply(d), .. } if d == &vec![1]
        ));
        let outs = sw.handle_controller_msg(Nanos::ZERO, OfpMessage::FeaturesRequest, 4, &mut pool);
        match &outs[0] {
            SwitchOutput::ToController {
                msg: OfpMessage::FeaturesReply(fr),
                ..
            } => {
                assert_eq!(fr.n_buffers, 256);
                assert_eq!(fr.ports.len(), 2);
                assert_eq!(fr.actions, sdnbuf_openflow::SUPPORTED_ACTIONS);
            }
            other => panic!("{other:?}"),
        }
        let outs =
            sw.handle_controller_msg(Nanos::ZERO, OfpMessage::GetConfigRequest, 5, &mut pool);
        assert!(matches!(
            outs[0],
            SwitchOutput::ToController {
                msg: OfpMessage::GetConfigReply(_),
                ..
            }
        ));
        let outs = sw.handle_controller_msg(Nanos::ZERO, OfpMessage::Hello, 7, &mut pool);
        assert!(matches!(
            outs[0],
            SwitchOutput::ToController {
                msg: OfpMessage::Hello,
                ..
            }
        ));
    }

    #[test]
    fn set_config_changes_miss_send_len() {
        let mut pool = PacketPool::new();
        let mut sw = switch_with(BufferChoice::PacketGranularity { capacity: 16 });
        sw.handle_controller_msg(
            Nanos::ZERO,
            OfpMessage::SetConfig(msg::SwitchConfig {
                flags: 0,
                miss_send_len: 64,
            }),
            1,
            &mut pool,
        );
        assert_eq!(sw.miss_send_len(), 64);
        let outs = sw.handle_frame(
            Nanos::from_millis(1),
            PortNo(1),
            pool.insert(udp(1)),
            &mut pool,
        );
        let (pin, _, _) = first_pkt_in(&outs);
        assert_eq!(pin.data.len(), 64);
    }

    #[test]
    fn vendor_configure_accepted_only_for_flow_granularity() {
        let mut pool = PacketPool::new();
        let mut fg = switch_with(BufferChoice::FlowGranularity {
            capacity: 16,
            timeout: Nanos::from_millis(50),
        });
        let cfg = OfpMessage::from(FlowBufferExt::Configure {
            enabled: true,
            timeout_ms: 20,
        });
        assert!(fg
            .handle_controller_msg(Nanos::ZERO, cfg.clone(), 1, &mut pool)
            .is_empty());
        let mut pg = switch_with(BufferChoice::PacketGranularity { capacity: 16 });
        let outs = pg.handle_controller_msg(Nanos::ZERO, cfg, 1, &mut pool);
        assert!(matches!(
            outs[0],
            SwitchOutput::ToController {
                msg: OfpMessage::Error(_),
                ..
            }
        ));
    }

    #[test]
    fn unexpected_message_gets_error_reply() {
        let mut pool = PacketPool::new();
        let mut sw = switch_with(BufferChoice::NoBuffer);
        let reply = OfpMessage::GetConfigReply(sdnbuf_openflow::SwitchConfig::default());
        let outs = sw.handle_controller_msg(Nanos::ZERO, reply.clone(), 1, &mut pool);
        match &outs[..] {
            [SwitchOutput::ToController {
                msg: OfpMessage::Error(e),
                ..
            }] => assert_eq!((e.code, &e.data), (1, &reply.encode(1))), // OFPBRC_BAD_TYPE
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn drop_rule_drops() {
        let mut pool = PacketPool::new();
        let mut sw = switch_with(BufferChoice::NoBuffer);
        let pkt = udp(1);
        let fm = OfpMessage::FlowMod(FlowMod {
            match_fields: Match::exact_from_packet(PortNo(1), &pkt),
            cookie: 0,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 100,
            buffer_id: BufferId::NO_BUFFER,
            out_port: PortNo::NONE,
            flags: 0,
            actions: Default::default(), // drop
        });
        sw.handle_controller_msg(Nanos::ZERO, fm, 1, &mut pool);
        let outs = sw.handle_frame(
            Nanos::from_millis(1),
            PortNo(1),
            pool.insert(pkt),
            &mut pool,
        );
        assert!(matches!(outs[0], SwitchOutput::Drop { .. }));
        assert_eq!(sw.stats().drops.get(), 1);
    }

    #[test]
    fn degraded_mode_sheds_probes_and_recovers() {
        let mut pool = PacketPool::new();
        use sdnbuf_switchbuf::RetryPolicy;
        let timeout = Nanos::from_millis(10);
        let mut sw = Switch::new(SwitchConfig {
            buffer: BufferChoice::FlowGranularity {
                capacity: 16,
                timeout,
            },
            // Capped at the timeout: the fixed interval with one retry.
            retry: RetryPolicy::backoff(timeout, 1),
            degraded_threshold: 2,
            ..SwitchConfig::default()
        });
        // Two flows announced; the controller never answers.
        sw.handle_frame(Nanos::ZERO, PortNo(1), pool.insert(udp(1)), &mut pool);
        sw.handle_frame(Nanos::ZERO, PortNo(1), pool.insert(udp(2)), &mut pool);
        // t=10ms: both spend their single retry.
        let outs = sw.on_timer(Nanos::from_millis(10), &mut pool);
        assert_eq!(outs.len(), 2);
        // t=20ms: both give up (drained as full packet_ins), tripping the
        // threshold of 2 consecutive give-ups.
        let outs = sw.on_timer(Nanos::from_millis(20), &mut pool);
        assert!(sw.is_degraded());
        assert_eq!(sw.stats().degraded_entries.get(), 1);
        assert_eq!(sw.buffer().occupancy(), 0, "give-up frees the units");
        let drains = outs
            .iter()
            .filter(|o| {
                matches!(o, SwitchOutput::ToController { msg: OfpMessage::PacketIn(pin), .. }
                    if pin.buffer_id == BufferId::NO_BUFFER)
            })
            .count();
        assert_eq!(drains, 2, "drain action re-sends full packet_ins");
        // A fresh miss while degraded is shed, arming the probe timer.
        let outs = sw.handle_frame(
            Nanos::from_millis(21),
            PortNo(1),
            pool.insert(udp(3)),
            &mut pool,
        );
        assert!(matches!(outs[0], SwitchOutput::Drop { .. }));
        assert_eq!(sw.stats().degraded_sheds.get(), 1);
        // The probe timer was armed on entry (20ms + the 10ms interval).
        assert_eq!(sw.next_timer(), Some(Nanos::from_millis(30)));
        // The probe window opens; the next miss is admitted normally.
        assert!(sw.on_timer(Nanos::from_millis(30), &mut pool).is_empty());
        let outs = sw.handle_frame(
            Nanos::from_millis(32),
            PortNo(1),
            pool.insert(udp(4)),
            &mut pool,
        );
        let (pin, _, _) = first_pkt_in(&outs);
        let probe_id = pin.buffer_id;
        assert!(probe_id.is_buffered());
        // The controller answers the probe: clean recovery.
        sw.handle_controller_msg(
            Nanos::from_millis(33),
            OfpMessage::PacketOut(PacketOut {
                buffer_id: probe_id,
                in_port: PortNo(1),
                actions: vec![Action::output(PortNo(2))].into(),
                data: WireFrame::new(),
            }),
            9,
            &mut pool,
        );
        assert!(!sw.is_degraded());
        assert_eq!(sw.stats().degraded_exits.get(), 1);
        // Fresh misses flow again.
        let outs = sw.handle_frame(
            Nanos::from_millis(35),
            PortNo(1),
            pool.insert(udp(5)),
            &mut pool,
        );
        assert!(matches!(outs[0], SwitchOutput::ToController { .. }));
    }

    #[test]
    fn buffer_ttl_drops_stranded_entries_at_the_switch() {
        let mut pool = PacketPool::new();
        let mut sw = Switch::new(SwitchConfig {
            buffer: BufferChoice::PacketGranularity { capacity: 16 },
            buffer_ttl: Nanos::from_millis(40),
            ..SwitchConfig::default()
        });
        sw.handle_frame(Nanos::ZERO, PortNo(1), pool.insert(udp(1)), &mut pool);
        assert_eq!(sw.buffer().occupancy(), 1);
        assert_eq!(sw.next_timer(), Some(Nanos::from_millis(40)));
        let outs = sw.on_timer(Nanos::from_millis(40), &mut pool);
        assert!(matches!(outs[..], [SwitchOutput::Drop { packet: Some(_) }]));
        assert_eq!(sw.buffer().occupancy(), 0, "the stranded unit is freed");
        assert_eq!(sw.buffer().stats().expired, 1);
    }

    #[test]
    fn re_handshake_bumps_epoch_and_reconciles_survivors() {
        let mut pool = PacketPool::new();
        let mut sw = Switch::new(SwitchConfig {
            buffer: BufferChoice::FlowGranularity {
                capacity: 16,
                timeout: Nanos::from_millis(50),
            },
            ..SwitchConfig::default()
        });
        sw.arm_crash_plane();
        assert_eq!(sw.session_epoch(), 1);
        sw.handle_controller_msg(Nanos::ZERO, OfpMessage::Hello, 1, &mut pool);
        let outs = sw.handle_frame(Nanos::ZERO, PortNo(1), pool.insert(udp(1)), &mut pool);
        let (pin, _, _) = first_pkt_in(&outs);
        let old_id = pin.buffer_id;
        assert_eq!(old_id.epoch(), 1);
        // The controller restarts: second Hello, then SetConfig completes
        // the handshake and triggers the bump + reconcile.
        sw.handle_controller_msg(Nanos::from_millis(10), OfpMessage::Hello, 2, &mut pool);
        assert_eq!(sw.session_epoch(), 1, "bump waits for the SetConfig");
        sw.handle_controller_msg(
            Nanos::from_millis(11),
            OfpMessage::SetConfig(msg::SwitchConfig {
                flags: 0,
                miss_send_len: 128,
            }),
            3,
            &mut pool,
        );
        assert_eq!(sw.session_epoch(), 2);
        assert_eq!(sw.stats().epoch_bumps.get(), 1);
        // The survivor is re-announced one reconcile interval later.
        assert_eq!(sw.next_timer(), Some(Nanos::from_millis(12)));
        let outs = sw.on_timer(Nanos::from_millis(12), &mut pool);
        let (pin, _, _) = first_pkt_in(&outs);
        assert_eq!(pin.buffer_id.epoch(), 2);
        assert_eq!(sw.stats().reconcile_rerequests.get(), 1);
        // A packet_out minted under the dead epoch is rejected...
        let outs = sw.handle_controller_msg(
            Nanos::from_millis(13),
            OfpMessage::PacketOut(PacketOut {
                buffer_id: old_id,
                in_port: PortNo(1),
                actions: vec![Action::output(PortNo(2))].into(),
                data: WireFrame::new(),
            }),
            4,
            &mut pool,
        );
        assert!(outs.is_empty());
        assert_eq!(sw.buffer().occupancy(), 1);
        assert_eq!(sw.stats().stale_epoch_rejects.get(), 1);
        // ...while the re-announced current-epoch id drains normally.
        let outs = sw.handle_controller_msg(
            Nanos::from_millis(14),
            OfpMessage::PacketOut(PacketOut {
                buffer_id: pin.buffer_id,
                in_port: PortNo(1),
                actions: vec![Action::output(PortNo(2))].into(),
                data: WireFrame::new(),
            }),
            5,
            &mut pool,
        );
        assert!(matches!(outs[..], [SwitchOutput::Forward { .. }]));
        assert_eq!(sw.buffer().occupancy(), 0);
    }

    #[test]
    fn liveness_detector_sheds_misses_until_the_controller_speaks() {
        let mut pool = PacketPool::new();
        let mut sw = Switch::new(SwitchConfig {
            buffer: BufferChoice::PacketGranularity { capacity: 16 },
            liveness_timeout: Nanos::from_millis(50),
            ..SwitchConfig::default()
        });
        sw.arm_crash_plane();
        sw.handle_controller_msg(Nanos::ZERO, OfpMessage::Hello, 1, &mut pool);
        assert_eq!(sw.next_timer(), Some(Nanos::from_millis(50)));
        sw.on_timer(Nanos::from_millis(50), &mut pool);
        assert!(sw.is_ctrl_suspect());
        assert_eq!(sw.stats().liveness_suspects.get(), 1);
        // Fresh misses are shed while the controller is suspected dead.
        let outs = sw.handle_frame(
            Nanos::from_millis(51),
            PortNo(1),
            pool.insert(udp(1)),
            &mut pool,
        );
        assert!(matches!(outs[0], SwitchOutput::Drop { .. }));
        assert_eq!(sw.stats().suspect_sheds.get(), 1);
        // Any controller message clears the suspicion.
        sw.handle_controller_msg(
            Nanos::from_millis(60),
            OfpMessage::EchoRequest(vec![1]),
            2,
            &mut pool,
        );
        assert!(!sw.is_ctrl_suspect());
        let outs = sw.handle_frame(
            Nanos::from_millis(61),
            PortNo(1),
            pool.insert(udp(2)),
            &mut pool,
        );
        assert!(matches!(outs[0], SwitchOutput::ToController { .. }));
    }

    #[test]
    fn unarmed_switch_ignores_re_handshakes() {
        let mut pool = PacketPool::new();
        let mut sw = switch_with(BufferChoice::PacketGranularity { capacity: 16 });
        sw.handle_controller_msg(Nanos::ZERO, OfpMessage::Hello, 1, &mut pool);
        sw.handle_controller_msg(Nanos::from_millis(1), OfpMessage::Hello, 2, &mut pool);
        sw.handle_controller_msg(
            Nanos::from_millis(2),
            OfpMessage::SetConfig(msg::SwitchConfig {
                flags: 0,
                miss_send_len: 128,
            }),
            3,
            &mut pool,
        );
        assert_eq!(sw.session_epoch(), 0);
        assert_eq!(sw.stats().epoch_bumps.get(), 0);
    }

    #[test]
    fn arming_reconciles_the_empty_buffer_to_epoch_one() {
        let mut pool = PacketPool::new();
        let mut sw = switch_with(BufferChoice::PacketGranularity { capacity: 16 });
        sw.arm_crash_plane();
        assert_eq!(sw.session_epoch(), 1);
        // Nothing survived (there was nothing), so nothing is queued for
        // re-announce and no bump is counted.
        assert_eq!(sw.next_timer(), None);
        assert_eq!(sw.stats().epoch_bumps.get(), 0);
        // The reconcile is what arms the mechanism: the first id it mints
        // carries epoch 1.
        let outs = sw.handle_frame(Nanos::ZERO, PortNo(1), pool.insert(udp(1)), &mut pool);
        assert_eq!(first_pkt_in(&outs).0.buffer_id.epoch(), 1);
    }

    #[test]
    fn frame_on_a_released_handle_is_an_accounted_drop() {
        let mut pool = PacketPool::new();
        let mut sw = switch_with(BufferChoice::PacketGranularity { capacity: 16 });
        let stale = pool.insert(udp(1));
        pool.release(stale);
        let outs = sw.handle_frame(Nanos::ZERO, PortNo(1), stale, &mut pool);
        assert_eq!(outs, [SwitchOutput::Drop { packet: None }]);
        assert_eq!(sw.stats().drops.get(), 1);
        // Neither the table nor the buffer saw it.
        assert_eq!(sw.table().lookups(), 0);
        assert_eq!(sw.stats().table_misses.get(), 0);
        assert_eq!(sw.buffer().stats(), Default::default());
    }

    #[test]
    fn packet_out_for_a_packet_reclaimed_behind_the_buffer_is_an_accounted_drop() {
        let mut pool = PacketPool::new();
        // Eager reclamation, so the freed unit shows at once.
        let mut sw = Switch::new(SwitchConfig {
            buffer: BufferChoice::PacketGranularity { capacity: 16 },
            buffer_free_lag: Nanos::ZERO,
            ..SwitchConfig::default()
        });
        let handle = pool.insert(udp(3));
        let outs = sw.handle_frame(Nanos::ZERO, PortNo(1), handle, &mut pool);
        let id = first_pkt_in(&outs).0.buffer_id;
        // The mechanism holds the only reference; someone frees it anyway.
        pool.release(handle);
        let outs = sw.handle_controller_msg(
            Nanos::from_millis(1),
            OfpMessage::PacketOut(PacketOut {
                buffer_id: id,
                in_port: PortNo(1),
                actions: vec![Action::output(PortNo(2))].into(),
                data: WireFrame::new(),
            }),
            5,
            &mut pool,
        );
        assert_eq!(outs, [SwitchOutput::Drop { packet: None }]);
        assert_eq!(sw.stats().drops.get(), 1);
        assert_eq!(sw.stats().slowpath_forwards.get(), 0);
        assert_eq!(sw.buffer().occupancy(), 0, "the unit is freed all the same");
    }

    #[test]
    fn rerequest_and_give_up_over_a_reclaimed_handle_are_accounted_drops() {
        use sdnbuf_switchbuf::RetryPolicy;
        let mut pool = PacketPool::new();
        let mut sw = Switch::new(SwitchConfig {
            buffer: BufferChoice::FlowGranularity {
                capacity: 16,
                timeout: Nanos::from_millis(10),
            },
            retry: RetryPolicy::backoff(Nanos::from_millis(10), 1),
            ..SwitchConfig::default()
        });
        let handle = pool.insert(udp(1));
        sw.handle_frame(Nanos::ZERO, PortNo(1), handle, &mut pool);
        pool.release(handle);
        // The re-request has no header to re-send...
        let outs = sw.on_timer(Nanos::from_millis(10), &mut pool);
        assert_eq!(outs, [SwitchOutput::Drop { packet: None }]);
        // ...and the give-up drain no packet to put into a packet_in.
        let outs = sw.on_timer(Nanos::from_millis(20), &mut pool);
        assert_eq!(outs, [SwitchOutput::Drop { packet: None }]);
        assert_eq!(sw.stats().drops.get(), 2);
        assert_eq!(sw.stats().pkt_in_sent.get(), 1, "only the first announce");
        assert_eq!(sw.buffer().occupancy(), 0);
    }

    #[test]
    fn cpu_usage_accumulates() {
        let mut pool = PacketPool::new();
        let mut sw = switch_with(BufferChoice::NoBuffer);
        assert_eq!(sw.cpu_percent(Nanos::from_secs(1)), 0.0);
        for i in 0..50u16 {
            sw.handle_frame(
                Nanos::from_micros(u64::from(i) * 100),
                PortNo(1),
                pool.insert(udp(i)),
                &mut pool,
            );
        }
        assert!(sw.cpu_percent(Nanos::from_millis(5)) > 0.0);
    }
}
