//! The Fig. 1 testbed as a wired topology: a data-port table (two hosts),
//! one control wire per direction, a controller-slot table (primary and
//! optional standby) around one switch, and the deterministic event loop
//! that indexes them.

use crate::measure::{Delay, Measurement, PacketTrace, Scan, Stage};
use crate::trace::MsgDesc;
use crate::RunResult;
use sdnbuf_controller::{Controller, ControllerConfig, ControllerOutput};
use sdnbuf_metrics::ByteMeter;
use sdnbuf_net::PacketBuilder;
use sdnbuf_openflow::{OfpMessage, PortNo};
use sdnbuf_sim::{
    ChannelDir, EventKind, EventQueue, FastHashMap, FaultPlan, FaultState, Link, LinkConfig, Nanos,
    Pool, PoolHandle, Tracer,
};
use sdnbuf_switch::{PacketHandle, PacketPool, Switch, SwitchConfig, SwitchOutput};
use sdnbuf_workload::{Departure, HostAddr};

/// Static configuration of the whole testbed: Table I, with the switch and
/// controller calibrated in [`SwitchConfig::default`] and
/// [`ControllerConfig::default`] (see `EXPERIMENTS.md` for the rationale).
#[derive(Clone, Debug)]
pub struct TestbedConfig {
    /// The switch model.
    pub switch: SwitchConfig,
    /// The controller model.
    pub controller: ControllerConfig,
    /// Host↔switch links (100 Mbps in the paper).
    pub data_link: LinkConfig,
    /// Switch↔controller channel.
    pub control_link: LinkConfig,
    /// Idle time between the ARP warm-up and the first data departure.
    pub warmup_gap: Nanos,
    /// The composable fault-injection plan: per-direction control-channel
    /// loss / delay / jitter / duplication / reordering, controller
    /// stalls, data-link flaps, and buffer-pressure windows. Defaults to
    /// no faults. Runs remain a pure function of `(config, seed)`.
    pub faults: FaultPlan,
    /// Controller keepalive: originate an `echo_request` every interval
    /// during the run, like Floodlight's liveness probing — the only
    /// message the controller sends unprompted, and the heartbeat the
    /// switch's liveness detector listens for. Adds background control
    /// traffic; `None` (default) keeps the channel measurement-only as in
    /// the paper.
    pub keepalive_interval: Option<Nanos>,
    /// Warm-standby failover for the crash plane (defaults off). Only
    /// meaningful when [`Self::faults`] contains `crash=` windows.
    pub failover: FailoverConfig,
}

/// Warm-standby failover configuration: when `standby` is set, a second
/// controller instance idles beside the primary and takes over
/// `takeover_delay` after a crash window opens (failure detection plus
/// election time). Without it, the primary itself restarts at the crash
/// window's end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailoverConfig {
    /// Run a standby controller beside the primary.
    pub standby: bool,
    /// Delay between the primary's crash and the standby's takeover
    /// handshake.
    pub takeover_delay: Nanos,
    /// `true`: the standby takes over with a snapshot of the primary's
    /// learned flow knowledge (checkpoint replication); `false`: cold,
    /// with empty tables.
    pub warm: bool,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            standby: false,
            takeover_delay: Nanos::from_millis(10),
            warm: false,
        }
    }
}

impl Default for TestbedConfig {
    /// The calibrated reproduction of the paper's platform: the switch and
    /// controller defaults, and a `control_link` of 100 Mbps with a 300 µs
    /// one-way latency (TCP stack + scheduling on the 2017-era PCs) — this
    /// floor dominates the buffered controller delay (paper: 0.70 ms).
    fn default() -> Self {
        use sdnbuf_sim::BitRate;
        TestbedConfig {
            switch: SwitchConfig::default(),
            controller: ControllerConfig::default(),
            data_link: LinkConfig::fast_ethernet(),
            control_link: LinkConfig {
                bandwidth: BitRate::from_mbps(100),
                propagation: Nanos::from_micros(300),
                queue_capacity_bytes: 512 * 1024,
            },
            warmup_gap: Nanos::from_millis(50),
            faults: FaultPlan::default(),
            keepalive_interval: None,
            failover: FailoverConfig::default(),
        }
    }
}

impl TestbedConfig {
    /// The calibrated testbed with the given buffer mechanism.
    pub fn with_buffer(buffer: sdnbuf_switch::BufferChoice) -> Self {
        let mut cfg = TestbedConfig::default();
        cfg.switch.buffer = buffer;
        cfg
    }

    /// Checks the whole testbed configuration — switch, controller, links,
    /// and the fault plan — for values that would panic, divide by zero,
    /// or wedge the event loop at runtime. [`Testbed::new`] calls this and
    /// panics on the first problem, so misconfigurations fail fast with a
    /// readable message instead of deep inside a run.
    pub fn validate(&self) -> Result<(), String> {
        self.switch.validate().map_err(|e| format!("switch: {e}"))?;
        self.controller
            .validate()
            .map_err(|e| format!("controller: {e}"))?;
        self.faults.validate().map_err(|e| format!("faults: {e}"))?;
        // A zero interval would schedule probes at t = 0 without end.
        if self.keepalive_interval == Some(Nanos::ZERO) {
            return Err("keepalive interval must be positive".to_owned());
        }
        Ok(())
    }
}

/// Handle into the testbed's control-message pool.
type MsgHandle = PoolHandle;

/// Events carry 8-byte pool handles, not owned payloads: the packet (or
/// control message) lives once in the testbed's slab pool and every event,
/// link, and switch stage passes the same handle around. Fan-out (floods,
/// fault-injected duplicates) retains extra pool references instead of
/// cloning frames.
#[derive(Debug)]
enum Event {
    /// A frame leaves the NIC of the host behind `port`.
    FrameFromHost { port: PortNo, packet: PacketHandle },
    /// A frame arrives at the switch from a data link.
    FrameAtSwitch {
        in_port: PortNo,
        packet: PacketHandle,
    },
    /// The switch finishes emitting a frame on a data port.
    EgressAtSwitch { port: PortNo, packet: PacketHandle },
    /// A frame arrives at a host.
    FrameAtHost { packet: PacketHandle },
    /// One end of the control channel finishes emitting a message.
    CtrlSend {
        dir: ChannelDir,
        xid: u32,
        msg: MsgHandle,
    },
    /// A control message arrives at the controller.
    CtrlAtController { xid: u32, msg: MsgHandle },
    /// A control message arrives at the switch.
    CtrlAtSwitch { xid: u32, msg: MsgHandle },
    /// The switch's timer (table expiry / buffer re-request) fires.
    SwitchTimer,
    /// The controller originates a liveness echo.
    ControllerKeepalive,
    /// A crash window opens: the controller in `slot` loses all volatile
    /// state and its control socket goes dead.
    ControllerCrash { slot: usize },
    /// A crash window closes: the controller in `slot` comes back up and
    /// re-initiates the handshake under a bumped epoch.
    ControllerRestart { slot: usize },
    /// The warm standby finishes its takeover and handshakes in place of
    /// the dead primary.
    FailoverTakeover,
}

/// One switch data port and the host behind it: the two unidirectional
/// links and their trace labels. The port table is indexed by
/// `PortNo - 1`.
struct DataPort {
    to_sw: Link,
    to_sw_label: &'static str,
    from_sw: Link,
    from_sw_label: &'static str,
}

/// One direction of the control channel: the link and the capture tap on
/// its sender's NIC. The wire table is indexed by [`ChannelDir`].
struct CtrlWire {
    dir: ChannelDir,
    link: Link,
    meter: ByteMeter,
}

/// One controller process. The slot table holds the primary and, when
/// failover is configured, the standby; `Testbed::serving` indexes the one
/// the switch currently talks to.
struct CtrlSlot {
    ctrl: Controller,
    /// Liveness of the process. Tracked as explicit state — not derived
    /// from the fault windows — because with failover the primary stays
    /// dead past its window's end (the standby serves).
    dead: bool,
    /// Trace label of the slot.
    role: &'static str,
    /// Whether one of the slot's own crash windows covers an instant.
    down: fn(&FaultState, Nanos) -> bool,
}

const PRIMARY: usize = 0;
const STANDBY: usize = 1;

/// The assembled testbed of Fig. 1.
///
/// Create one per run, feed it a workload with [`Testbed::run`], read the
/// [`RunResult`].
pub struct Testbed {
    config: TestbedConfig,
    switch: Switch,
    /// Data ports 1 and 2 (hosts 1 and 2).
    ports: [DataPort; 2],
    /// The control channel, one wire per direction.
    ctrl: [CtrlWire; 2],
    /// The controllers: primary, then the standby when configured.
    slots: Vec<CtrlSlot>,
    /// Which slot the switch's session is with.
    serving: usize,
    /// The controller-side session epoch (0 until the crash plane arms).
    ctrl_epoch: u32,
    ctrl_crashes: u64,
    failover_takeovers: u64,
    queue: EventQueue<Event>,
    /// Slab pool every in-flight data packet lives in; events and switch
    /// stages exchange [`PacketHandle`]s.
    pool: PacketPool,
    /// Slab pool for in-flight control messages.
    msgs: Pool<OfpMessage>,
    /// Where the switch's handlers push their timed outputs; drained into
    /// the event queue after every call, so empty between events and kept
    /// for its storage.
    switch_out: Vec<SwitchOutput>,
    /// The same for the serving controller's handlers.
    ctrl_out: Vec<ControllerOutput>,
    ctrl_drops: u64,
    data_drops: u64,
    faults: FaultState,
    /// Whether buffer pressure was on at the last data-frame arrival (to
    /// toggle the mechanism only on window edges).
    pressure_on: bool,
    tracer: Tracer,
    // Measurement state.
    /// The workload packets' records and per-flow aggregates. A frame
    /// carries its record's index as its pool tag, and so do the
    /// `packet_in` sent for it and the answers to that `packet_in`, as
    /// their `msgs` tags.
    measure: Measurement,
    /// When each `packet_in` of the measurement window awaiting its first
    /// answer left, by xid.
    pkt_in_sent: FastHashMap<u32, Nanos>,
    controller_delays_ms: Vec<f64>,
    pkt_in_count: u64,
    flow_mod_count: u64,
    pkt_out_count: u64,
    events_dispatched: u64,
    timer_armed: Option<Nanos>,
    data_start: Nanos,
}

impl Testbed {
    /// Builds an idle testbed.
    ///
    /// # Panics
    ///
    /// Panics when [`TestbedConfig::validate`] rejects the configuration
    /// (zero capacities, an inconsistent fault plan, …). See
    /// [`Testbed::try_new`] for the non-panicking form.
    pub fn new(config: TestbedConfig) -> Testbed {
        match Testbed::try_new(config) {
            Ok(tb) => tb,
            Err(e) => panic!("invalid TestbedConfig: {e}"),
        }
    }

    /// [`Testbed::new`] with the validation error returned instead of
    /// panicking — the single validation path for testbed construction.
    pub fn try_new(config: TestbedConfig) -> Result<Testbed, String> {
        config.validate()?;
        let port = |to_sw_label, from_sw_label| DataPort {
            to_sw: Link::new(config.data_link),
            to_sw_label,
            from_sw: Link::new(config.data_link),
            from_sw_label,
        };
        let wire = |dir| CtrlWire {
            dir,
            link: Link::new(config.control_link),
            meter: ByteMeter::new(),
        };
        let slot = |role, down| CtrlSlot {
            ctrl: Controller::new(config.controller),
            dead: false,
            role,
            down,
        };
        let mut slots = Vec::with_capacity(1 + usize::from(config.failover.standby));
        slots.push(slot("primary", FaultState::primary_down));
        if config.failover.standby {
            let mut standby = slot("standby", FaultState::standby_down);
            // A disjoint xid range keeps the standby's messages
            // distinguishable from stale primary traffic.
            standby.ctrl.set_xid_base(0xC000_0000);
            slots.push(standby);
        }
        Ok(Testbed {
            switch: Switch::new(config.switch),
            ports: [port("h1->sw", "sw->h1"), port("h2->sw", "sw->h2")],
            ctrl: [wire(ChannelDir::ToController), wire(ChannelDir::ToSwitch)],
            slots,
            serving: PRIMARY,
            ctrl_epoch: 0,
            ctrl_crashes: 0,
            failover_takeovers: 0,
            queue: EventQueue::new(),
            pool: PacketPool::new(),
            msgs: Pool::new(),
            switch_out: Vec::new(),
            ctrl_out: Vec::new(),
            ctrl_drops: 0,
            data_drops: 0,
            faults: FaultState::new(config.faults.clone()),
            pressure_on: false,
            tracer: Tracer::off(),
            measure: Measurement::default(),
            pkt_in_sent: FastHashMap::default(),
            controller_delays_ms: Vec::new(),
            pkt_in_count: 0,
            flow_mod_count: 0,
            pkt_out_count: 0,
            events_dispatched: 0,
            timer_armed: None,
            data_start: Nanos::ZERO,
            config,
        })
    }

    /// The switch model (for inspection after a run).
    pub fn switch(&self) -> &Switch {
        &self.switch
    }

    /// The controller model (for inspection after a run).
    pub fn controller(&self) -> &Controller {
        &self.slots[PRIMARY].ctrl
    }

    /// The standby controller, when failover is configured.
    pub fn standby(&self) -> Option<&Controller> {
        self.slots.get(STANDBY).map(|slot| &slot.ctrl)
    }

    /// Whether the standby is the serving controller (a takeover
    /// happened during the run).
    pub fn standby_active(&self) -> bool {
        self.serving == STANDBY
    }

    /// Mutable access to the switch, for advanced setups that inspect or
    /// tweak it before [`Testbed::run`]. To hand the switch a control
    /// message directly, use [`Testbed::inject_controller_msg`] — the
    /// switch's own handlers need the testbed's packet pool.
    pub fn switch_mut(&mut self) -> &mut Switch {
        &mut self.switch
    }

    /// Hands a control message straight to the switch, bypassing the
    /// control channel — for setups that pre-install rules proactively
    /// before [`Testbed::run`]. Any timed
    /// outputs the message produces are scheduled into the event loop.
    pub fn inject_controller_msg(&mut self, now: Nanos, msg: OfpMessage, xid: u32) {
        self.switch
            .handle_controller_msg_into(now, msg, xid, &mut self.pool, &mut self.switch_out);
        self.process_switch_outputs(None, &[]);
    }

    /// Attaches a structured event tracer to the whole testbed: the
    /// switch (bus, flow table, buffer mechanism), the controllers (ingest
    /// bus, decisions), every data link, and both control-channel
    /// directions. Call before [`Testbed::run`]; tracing is off by default
    /// and costs one branch per potential event when disabled.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.switch.set_tracer(tracer.clone());
        for slot in &mut self.slots {
            slot.ctrl.set_tracer(tracer.clone());
        }
        for port in &mut self.ports {
            port.to_sw.set_tracer(tracer.clone(), port.to_sw_label);
            port.from_sw.set_tracer(tracer.clone(), port.from_sw_label);
        }
        for wire in &mut self.ctrl {
            let label = match wire.dir {
                ChannelDir::ToController => "sw->ctl",
                ChannelDir::ToSwitch => "ctl->sw",
            };
            wire.link.set_tracer(tracer.clone(), label);
        }
        self.tracer = tracer;
    }

    /// Has the run keep every workload packet's timeline for
    /// [`Testbed::packet_log`]. Call before [`Testbed::run`]; a testbed
    /// with a tracer attached keeps it anyway.
    pub fn keep_packet_log(&mut self) {
        self.measure.keep_log();
    }

    /// The per-packet trace of an observed run — one with a tracer attached
    /// or [`Testbed::keep_packet_log`] called before it: when each workload
    /// packet entered the switch, left it, and reached its destination, by
    /// flow and position. Any other run keeps per-flow aggregates only, and
    /// its log is empty.
    pub fn packet_log(&self) -> Vec<PacketTrace> {
        self.measure.packet_log()
    }

    /// Runs the full experiment: ARP warm-up, then the given departures
    /// (shifted to start after the warm-up gap), to completion.
    ///
    /// The departures are streamed, not scheduled: each is copied into the
    /// pool when its instant comes, so the pool and the event queue hold
    /// what is in flight, not the whole workload.
    ///
    /// A frame carries its departure's record as its pool tag, and so do
    /// the `packet_in` sent for it, the `flow_mod` and `packet_out` that
    /// answer it, and the frame the switch rebuilds from that
    /// `packet_out`'s bytes. A re-request or a reconciliation the switch's
    /// timer sends carries the tag of the flow's head frame, which the
    /// buffer still holds.
    ///
    /// **Contract:** no two departures share a wire identity — a
    /// `(FlowKey, ident)`, the 5-tuple and the IPv4 identification. It
    /// matters only for a give-up drain: its frame leaves the buffer, and
    /// its tag with it, and its `packet_in` is matched to its departure by
    /// wire identity. Every [`WorkloadKind`](crate::WorkloadKind) that
    /// [`WorkloadKind::validate`](crate::WorkloadKind::validate) accepts
    /// keeps it. Outside the contract a run may mis-measure those frames
    /// and round trips; it does not panic.
    pub fn run(&mut self, departures: &[Departure]) -> RunResult {
        let scan = self.begin_measurement(departures);
        // Departures leave in the order the queue would pop them had each
        // been scheduled, in slice order, at its `at`: by `(at, index)`.
        // Every generator emits that order; only an unsorted slice costs a
        // permutation (the sort is stable: ties stay in index order).
        let by_time = (!scan.ordered).then(|| {
            let mut by_time: Vec<usize> = (0..departures.len()).collect();
            by_time.sort_by_key(|&i| departures[i].at);
            by_time
        });
        let nth = |k: usize| {
            let i = match &by_time {
                Some(order) => *order.get(k)?,
                None => k,
            };
            Some((i, departures.get(i)?.at))
        };

        let shift = self.config.warmup_gap;
        self.warm_up(scan.earliest);
        // A departure's key in the merge below is `(shift + at, seq0 +
        // index)`, the sequence number scheduling it here would have drawn:
        // events scheduled before this line tie ahead of it, events
        // scheduled after it behind.
        let seq0 = self.queue.reserve_seqs(departures.len() as u64);
        self.schedule_probes(shift + scan.latest + self.config.warmup_gap);
        self.schedule_crash_plane();

        let mut served = 0;
        loop {
            let next = nth(served);
            let bound = next.map_or((Nanos::MAX, u64::MAX), |(i, at)| {
                (shift + at, seq0 + i as u64)
            });
            if let Some((now, event)) = self.queue.pop_before(bound) {
                self.dispatch(now, event, departures);
            } else if let Some((i, at)) = next {
                served += 1;
                // The frame's headers are copied and its payload bytes
                // shared; everything downstream passes the handle, and its
                // tag names record `i`, departure `i`'s (past 2³²
                // departures a record below it: mis-measured, not a panic).
                let packet = self.pool.insert(departures[i].packet.clone());
                self.pool.set_tag(packet, i as u32);
                self.on_frame_from_host(shift + at, PortNo(1), packet);
            } else {
                break;
            }
            self.events_dispatched += 1;
        }
        self.collect(departures.len() as u64, scan.flows_total)
    }

    /// The one pass over the workload before the first event (see
    /// [`Measurement::begin`]). A run with a tracer attached is an observed
    /// one: it keeps the packet log.
    fn begin_measurement(&mut self, departures: &[Departure]) -> Scan {
        if self.tracer.is_enabled() {
            self.measure.keep_log();
        }
        self.measure.begin(departures)
    }

    /// The session handshake and the ARP warm-up, ahead of a workload
    /// whose first departure is at `earliest`.
    fn warm_up(&mut self, earliest: Nanos) {
        // OpenFlow session handshake: hello, features, config — and the
        // vendor-extension capability announcement when the switch runs
        // the flow-granularity mechanism.
        self.handshake(Nanos::ZERO);
        self.switch
            .announce_capabilities_into(Nanos::ZERO, &mut self.switch_out);
        self.process_switch_outputs(None, &[]);

        // Warm-up: both hosts announce themselves so the controller's
        // learning table knows where Host2 lives (as on the real testbed,
        // where hosts ARP before pktgen starts).
        for (port, host, at) in [
            (PortNo(1), HostAddr::host1(), Nanos::ZERO),
            (PortNo(2), HostAddr::host2(), Nanos::from_millis(1)),
        ] {
            let arp = PacketBuilder::gratuitous_arp(host.mac, host.ip);
            let packet = self.pool.insert(arp);
            self.queue
                .schedule(at, Event::FrameFromHost { port, packet });
        }

        // Data: shift departures past the warm-up gap.
        self.data_start = self.config.warmup_gap + earliest;
    }

    /// Pre-schedules the controller's keepalives up to `horizon` (the
    /// event loop must drain, so they cannot self-reschedule). They run for
    /// the whole session (they start with the handshake, not the data
    /// phase): the switch's liveness detector must hear the controller
    /// during warm-up too.
    fn schedule_probes(&mut self, horizon: Nanos) {
        if let Some(interval) = self.config.keepalive_interval {
            let mut t = interval;
            while t < horizon {
                self.queue.schedule(t, Event::ControllerKeepalive);
                t += interval;
            }
        }
    }

    /// Crash plane: arms the switch's epoch/liveness machinery and
    /// pre-plans crash / restart / takeover orchestration from the fault
    /// windows. Everything stays off (and runs byte-identical) without
    /// `crash=` windows in the plan.
    fn schedule_crash_plane(&mut self) {
        if !self.config.faults.has_crashes() {
            return;
        }
        self.switch.arm_crash_plane();
        self.ctrl_epoch = 1;
        self.slots[PRIMARY].ctrl.set_epoch(1);
        let failover = self.config.failover;
        for w in &self.config.faults.crashes {
            let slot = PRIMARY;
            self.queue.schedule(w.from, Event::ControllerCrash { slot });
            if failover.standby {
                self.queue
                    .schedule(w.from + failover.takeover_delay, Event::FailoverTakeover);
            } else {
                self.queue
                    .schedule(w.until, Event::ControllerRestart { slot });
            }
        }
        for w in &self.config.faults.crashes_standby {
            let slot = STANDBY;
            self.queue.schedule(w.from, Event::ControllerCrash { slot });
            self.queue
                .schedule(w.until, Event::ControllerRestart { slot });
        }
    }

    /// Handles one event. `workload` is the run's departures, which a
    /// frame's record indexes and a give-up drain's `packet_in` may have
    /// to be found in (see [`Measurement::record_of_drained`]).
    fn dispatch(&mut self, now: Nanos, event: Event, workload: &[Departure]) {
        match event {
            Event::FrameFromHost { port, packet } => self.on_frame_from_host(now, port, packet),
            Event::FrameAtSwitch { in_port, packet } => {
                self.on_frame_at_switch(now, in_port, packet, workload)
            }
            Event::EgressAtSwitch { port, packet } => {
                self.egress_frame(now, port, packet, workload)
            }
            Event::FrameAtHost { packet } => self.on_frame_at_host(now, packet, workload),
            Event::CtrlSend { dir, xid, msg } => self.send_ctrl(now, dir, xid, msg),
            Event::CtrlAtController { xid, msg } => self.on_ctrl_at_controller(now, xid, msg),
            Event::CtrlAtSwitch { xid, msg } => self.on_ctrl_at_switch(now, xid, msg, workload),
            Event::SwitchTimer => self.on_switch_timer(now, workload),
            Event::ControllerKeepalive => self.on_keepalive(now),
            Event::ControllerCrash { slot } => self.on_crash(now, slot),
            Event::ControllerRestart { slot } => self.on_restart(now, slot),
            Event::FailoverTakeover => self.on_takeover(now),
        }
    }

    /// A frame's wire size, or `None` — and one more data drop — for a
    /// handle that went stale behind the event that carried it.
    fn frame_len(&mut self, packet: PacketHandle) -> Option<usize> {
        let len = self.pool.get(packet).map(|frame| frame.wire_len());
        if len.is_none() {
            self.data_drops += 1;
        }
        len
    }

    fn on_frame_from_host(&mut self, now: Nanos, in_port: PortNo, packet: PacketHandle) {
        let Some(len) = self.frame_len(packet) else {
            return;
        };
        let host = &mut self.ports[usize::from(in_port.0) - 1];
        if self.faults.data_link_down(now) {
            self.data_drops += 1;
            self.pool.release(packet);
            let link = host.to_sw_label;
            self.tracer
                .emit(now, EventKind::LinkDrop { link, bytes: len });
            return;
        }
        match host.to_sw.enqueue(now, len) {
            Some(arrival) => self
                .queue
                .schedule(arrival, Event::FrameAtSwitch { in_port, packet }),
            None => {
                self.data_drops += 1;
                self.pool.release(packet);
            }
        }
    }

    fn on_frame_at_switch(
        &mut self,
        now: Nanos,
        in_port: PortNo,
        packet: PacketHandle,
        workload: &[Departure],
    ) {
        if self.pool.get(packet).is_none() {
            self.data_drops += 1;
            return;
        }
        let record = self.pool.tag(packet);
        self.measure
            .stamp(&self.pool, packet, now, Stage::Entered, workload);
        let pressure = self.faults.pressure_active(now);
        if pressure != self.pressure_on {
            self.pressure_on = pressure;
            self.switch.set_buffer_pressure(pressure);
        }
        self.switch
            .handle_frame_into(now, in_port, packet, &mut self.pool, &mut self.switch_out);
        self.process_switch_outputs(record, workload);
        self.arm_timer();
    }

    fn on_frame_at_host(&mut self, now: Nanos, packet: PacketHandle, workload: &[Departure]) {
        self.measure
            .stamp(&self.pool, packet, now, Stage::Delivered, workload);
        // End of the packet's life: drop the last pool reference.
        self.pool.release(packet);
    }

    /// A control message's wire size and trace label, or `None` — and one
    /// more control drop — for a handle that went stale behind the event
    /// that carried it.
    fn describe(&mut self, msg: MsgHandle) -> Option<(usize, &'static str)> {
        let described = self
            .msgs
            .get(msg)
            .map(|m| (m.wire_len(), MsgDesc::of(m).label()));
        if described.is_none() {
            self.ctrl_drops += 1;
        }
        described
    }

    /// Moves a delivered control message out of the pool (a clone only
    /// when a fault-injected duplicate still shares the entry), with the
    /// record it carries; a stale handle is one more control drop.
    fn take_msg(&mut self, msg: MsgHandle) -> Option<(OfpMessage, Option<u32>)> {
        let tag = self.msgs.tag(msg);
        let taken = self.msgs.take(msg);
        if taken.is_none() {
            self.ctrl_drops += 1;
        }
        Some((taken?, tag))
    }

    /// Puts a control message into the pool, carrying `tag`, and hands it
    /// to the `dir` wire at `at`.
    fn post(&mut self, at: Nanos, dir: ChannelDir, xid: u32, msg: OfpMessage, tag: Option<u32>) {
        let msg = self.msgs.insert(msg);
        if let Some(tag) = tag {
            self.msgs.set_tag(msg, tag);
        }
        self.queue.schedule(at, Event::CtrlSend { dir, xid, msg });
    }

    /// The one way onto the control channel, either direction: capture
    /// tap, fault plane, link queueing, then the arrival at the far end.
    fn send_ctrl(&mut self, now: Nanos, dir: ChannelDir, xid: u32, msg: MsgHandle) {
        let Some((len, label)) = self.describe(msg) else {
            return;
        };
        let wire = &mut self.ctrl[dir as usize];
        debug_assert_eq!(wire.dir, dir);
        if now >= self.data_start {
            // Metered before the fault plane, like a capture tap on the
            // sender's NIC: dropped messages were still sent.
            wire.meter.record(now, len);
        }
        let effect = self.faults.ctrl_effect(now, dir);
        if effect.dropped {
            return self.drop_ctrl(now, dir, xid, msg);
        }
        // A fault-injected duplicate is a second trip over the same wire.
        for copy in 0..=usize::from(effect.duplicate) {
            let Some(arrival) = self.ctrl[dir as usize].link.enqueue(now, len) else {
                // Queue overflow loses the message; a duplicate that does
                // not fit was never made.
                if copy == 0 {
                    self.drop_ctrl(now, dir, xid, msg);
                }
                return;
            };
            let arrive = arrival + effect.extra_delay;
            self.tracer.emit(
                now,
                EventKind::CtrlMsg {
                    dir,
                    xid,
                    bytes: len,
                    label,
                    arrive,
                },
            );
            if copy > 0 {
                // The duplicate shares the original's pool entry: one
                // more reference, no clone.
                self.msgs.retain(msg);
            }
            let arrival = match dir {
                ChannelDir::ToController => Event::CtrlAtController { xid, msg },
                ChannelDir::ToSwitch => Event::CtrlAtSwitch { xid, msg },
            };
            self.queue.schedule(arrive, arrival);
        }
    }

    /// Loses one control message: counted, released, traced.
    fn drop_ctrl(&mut self, now: Nanos, dir: ChannelDir, xid: u32, msg: MsgHandle) {
        let Some((bytes, label)) = self.describe(msg) else {
            return;
        };
        self.ctrl_drops += 1;
        self.msgs.release(msg);
        self.tracer.emit(
            now,
            EventKind::CtrlDrop {
                dir,
                xid,
                bytes,
                label,
            },
        );
    }

    /// Hands the timed outputs the serving controller pushed onto
    /// `ctrl_out` to the control channel, counting the responses of the
    /// measurement window; they carry `tag`, that of the message they
    /// answer.
    fn schedule_ctrl_outputs(&mut self, now: Nanos, tag: Option<u32>) {
        let mut outputs = std::mem::take(&mut self.ctrl_out);
        for ControllerOutput::ToSwitch { at, xid, msg } in outputs.drain(..) {
            if now >= self.data_start {
                match &msg {
                    OfpMessage::FlowMod(_) => self.flow_mod_count += 1,
                    OfpMessage::PacketOut(_) => self.pkt_out_count += 1,
                    _ => {}
                }
            }
            self.post(at, ChannelDir::ToSwitch, xid, msg, tag);
        }
        self.ctrl_out = outputs;
    }

    fn on_ctrl_at_controller(&mut self, now: Nanos, xid: u32, msg: MsgHandle) {
        // A dead controller's socket is gone: deliveries during a crash
        // window are lost outright. (A stall, by contrast, parks them —
        // state survives a stall, not a crash.)
        if self.slots[self.serving].dead {
            return self.drop_ctrl(now, ChannelDir::ToController, xid, msg);
        }
        // A stalled controller parks the message until the stall window
        // ends (windows are half-open, so the re-scheduled arrival at
        // `until` is processed normally).
        if let Some(resume) = self.faults.stall_resume(now) {
            self.queue
                .schedule(resume, Event::CtrlAtController { xid, msg });
            return;
        }
        let Some((msg, tag)) = self.take_msg(msg) else {
            return;
        };
        self.slots[self.serving]
            .ctrl
            .handle_message_into(now, msg, xid, &mut self.ctrl_out);
        self.schedule_ctrl_outputs(now, tag);
    }

    fn on_ctrl_at_switch(&mut self, now: Nanos, xid: u32, msg: MsgHandle, workload: &[Departure]) {
        let Some((msg, tag)) = self.take_msg(msg) else {
            return;
        };
        // Controller delay: pkt_in left the switch -> first response with
        // the same xid arrives back (the paper's t2 - t1).
        if let Some(sent_at) = self.pkt_in_sent.remove(&xid) {
            let delay = now.saturating_sub(sent_at);
            self.controller_delays_ms.push(delay.as_millis_f64());
            if let Some(record) = tag {
                self.measure.answered(record, delay, workload);
            }
        }
        let unbuffered = matches!(&msg, OfpMessage::PacketOut(po) if !po.buffer_id.is_buffered());
        self.switch
            .handle_controller_msg_into(now, msg, xid, &mut self.pool, &mut self.switch_out);
        if let (true, Some(record)) = (unbuffered, tag) {
            // The one frame decoded from the bytes sits in a slot of its
            // own: its record came back with them.
            for output in &self.switch_out {
                if let SwitchOutput::Forward { packet, .. } = output {
                    self.pool.set_tag(*packet, record);
                }
            }
        }
        self.process_switch_outputs(None, workload);
        self.arm_timer();
    }

    fn on_switch_timer(&mut self, now: Nanos, workload: &[Departure]) {
        if self.timer_armed == Some(now) {
            self.timer_armed = None;
        }
        if self.switch.next_timer().is_some_and(|t| t <= now) {
            self.switch
                .on_timer_into(now, &mut self.pool, &mut self.switch_out);
            self.process_switch_outputs(None, workload);
        }
        self.arm_timer();
    }

    /// The serving controller originates a keepalive echo. A dead
    /// controller originates nothing — skipped keepalives are what starve
    /// the switch's liveness detector.
    fn on_keepalive(&mut self, now: Nanos) {
        let slot = &mut self.slots[self.serving];
        if slot.dead {
            return;
        }
        let probe = slot.ctrl.keepalive(now);
        self.ctrl_out.push(probe);
        self.schedule_ctrl_outputs(now, None);
    }

    fn on_crash(&mut self, now: Nanos, slot: usize) {
        // Crashing a controller that is not serving (or is already dead)
        // is a no-op; overlapping windows collapse into one outage.
        if slot != self.serving || self.slots[slot].dead {
            return;
        }
        // Checkpoint replication: the next slot's warm knowledge is the
        // dying controller's state as of the moment it died.
        if self.config.failover.warm {
            if let [dying, successor, ..] = &mut self.slots[slot..] {
                successor.ctrl.sync_from(&dying.ctrl);
            }
        }
        let dying = &mut self.slots[slot];
        dying.dead = true;
        dying.ctrl.crash();
        self.ctrl_crashes += 1;
        let (epoch, role) = (self.ctrl_epoch, dying.role);
        self.tracer.emit(now, EventKind::CtrlCrash { epoch, role });
    }

    fn on_restart(&mut self, now: Nanos, slot: usize) {
        if slot != self.serving || !self.slots[slot].dead {
            return;
        }
        // Overlapping crash windows: stay dead until the last window
        // covering `now` has closed (its own restart event will revive us).
        if (self.slots[slot].down)(&self.faults, now) {
            return;
        }
        self.slots[slot].dead = false;
        self.ctrl_epoch += 1;
        let (epoch, role) = (self.ctrl_epoch, self.slots[slot].role);
        self.tracer
            .emit(now, EventKind::CtrlRestart { epoch, role });
        self.handshake(now);
    }

    fn on_takeover(&mut self, now: Nanos) {
        // Only the takeover scheduled by the crash that actually killed
        // the serving primary acts.
        if self.serving != PRIMARY || !self.slots[PRIMARY].dead {
            return;
        }
        self.serving = STANDBY;
        self.failover_takeovers += 1;
        self.ctrl_epoch += 1;
        let epoch = self.ctrl_epoch;
        let sync = if self.config.failover.warm {
            "warm"
        } else {
            "cold"
        };
        self.tracer
            .emit(now, EventKind::FailoverTakeover { epoch, sync });
        self.handshake(now);
    }

    /// The serving controller opens a session under the current epoch:
    /// hello, features, config.
    fn handshake(&mut self, now: Nanos) {
        let ctrl = &mut self.slots[self.serving].ctrl;
        ctrl.set_epoch(self.ctrl_epoch);
        ctrl.initiate_handshake_into(now, self.config.switch.miss_send_len, &mut self.ctrl_out);
        self.schedule_ctrl_outputs(now, None);
    }

    /// Routes the timed outputs the switch pushed onto `switch_out` into
    /// the event queue, one event each. A `packet_in` of the measurement
    /// window is tagged with `record`, that of the workload frame whose
    /// handling sent it. One the timer sent, with no frame handed over,
    /// names a flow the buffer still holds (a re-request, a
    /// reconciliation) and gets the tag of that flow's head frame, or is a
    /// give-up drain's (see [`Measurement::record_of_drained`]).
    fn process_switch_outputs(&mut self, record: Option<u32>, workload: &[Departure]) {
        let mut outputs = std::mem::take(&mut self.switch_out);
        for output in outputs.drain(..) {
            match output {
                SwitchOutput::Forward { at, port, packet } => self
                    .queue
                    .schedule(at, Event::EgressAtSwitch { port, packet }),
                SwitchOutput::ToController { at, xid, msg } => {
                    // The warm-up ARPs are plumbing, not measurement
                    // traffic; the paper's capture window starts with the
                    // pktgen run.
                    let mut tag = None;
                    if let (OfpMessage::PacketIn(pin), true) = (&msg, at >= self.data_start) {
                        self.pkt_in_count += 1;
                        self.pkt_in_sent.insert(xid, at);
                        tag = match record {
                            Some(record) => Some(record),
                            None if pin.buffer_id.is_buffered() => {
                                let head = self.switch.buffer().rerequest_for(pin.buffer_id);
                                head.and_then(|head| self.pool.tag(head.packet))
                            }
                            None => self.measure.record_of_drained(pin, workload),
                        };
                    }
                    self.post(at, ChannelDir::ToController, xid, msg, tag);
                }
                SwitchOutput::Drop { packet } => {
                    self.data_drops += 1;
                    if let Some(packet) = packet {
                        self.pool.release(packet);
                    }
                }
            }
        }
        self.switch_out = outputs;
    }

    /// One frame leaving a switch data port: record it, run the data-link
    /// fault plane, and put it on the egress link. A port the testbed does
    /// not wire (a rule may name any) loses the frame: one more data drop.
    fn egress_frame(
        &mut self,
        now: Nanos,
        port: PortNo,
        packet: PacketHandle,
        workload: &[Departure],
    ) {
        let Some(len) = self.frame_len(packet) else {
            return;
        };
        self.measure
            .stamp(&self.pool, packet, now, Stage::Left, workload);
        let Some(host) = self.ports.get_mut(usize::from(port.0).wrapping_sub(1)) else {
            self.data_drops += 1;
            self.pool.release(packet);
            return;
        };
        if self.faults.data_link_down(now) {
            self.data_drops += 1;
            self.pool.release(packet);
            let link = host.from_sw_label;
            self.tracer
                .emit(now, EventKind::LinkDrop { link, bytes: len });
            return;
        }
        match host.from_sw.enqueue(now, len) {
            Some(arrival) => self.queue.schedule(arrival, Event::FrameAtHost { packet }),
            None => {
                self.data_drops += 1;
                self.pool.release(packet);
            }
        }
    }

    fn arm_timer(&mut self) {
        if let Some(t) = self.switch.next_timer() {
            if self.timer_armed.map_or(true, |armed| t < armed) {
                self.queue.schedule(t, Event::SwitchTimer);
                self.timer_armed = Some(t);
            }
        }
    }

    fn collect(&mut self, packets_sent: u64, flows_total: usize) -> RunResult {
        use sdnbuf_metrics::Summary;
        let to_controller = &self.ctrl[ChannelDir::ToController as usize].meter;
        let to_switch = &self.ctrl[ChannelDir::ToSwitch as usize].meter;
        let totals = self.measure.totals();
        // The measurement window ends with the last data-driven activity
        // (delivery or control message); the rule-expiry housekeeping that
        // trails for idle-timeout seconds afterwards is not part of the
        // experiment, just as the paper's captures stop when pktgen does.
        let end = totals
            .last_delivery
            .unwrap_or(self.data_start)
            .max(to_controller.last_at())
            .max(to_switch.last_at());
        let active = end
            .saturating_sub(self.data_start)
            .max(Nanos::from_micros(1));
        let mbps = |meter: &ByteMeter| meter.bytes() as f64 * 8.0 / active.as_secs_f64() / 1e6;

        let switch_stats = self.switch.stats();
        // Rescale the gauge's whole-run mean to the active span.
        let mean_occ = switch_stats.buffer_occupancy.time_weighted_mean(end) * end.as_secs_f64()
            / active.as_secs_f64();
        let buf_stats = self.switch.buffer().stats();
        // Echo round trips and admission sheds from whichever controllers
        // served the run.
        let (primary, others) = self.slots.split_first().expect("the primary slot");
        let mut echo_rtt = primary.ctrl.stats().echo_rtt.clone();
        for slot in others {
            echo_rtt.merge(&slot.ctrl.stats().echo_rtt);
        }
        let admission_sheds: u64 = self
            .slots
            .iter()
            .map(|slot| slot.ctrl.stats().admission_sheds.get())
            .sum();

        RunResult {
            label: self.config.switch.buffer.label(),
            sending_rate_mbps: 0.0, // set by the experiment driver
            active_span: active,
            ctrl_load_to_controller_mbps: mbps(to_controller),
            ctrl_load_to_switch_mbps: mbps(to_switch),
            pkt_in_count: self.pkt_in_count,
            ctrl_bytes_to_controller: to_controller.bytes(),
            ctrl_bytes_to_switch: to_switch.bytes(),
            flow_mod_count: self.flow_mod_count,
            pkt_out_count: self.pkt_out_count,
            controller_cpu_percent: primary.ctrl.cpu_percent(active),
            switch_cpu_percent: self.switch.cpu_percent(active),
            // One sample set live at a time, each sorted in place.
            controller_delay: Summary::of_vec(std::mem::take(&mut self.controller_delays_ms)),
            flow_setup_delay: Summary::of_vec(self.measure.delays_ms(Delay::Setup)),
            switch_delay: Summary::of_vec(self.measure.delays_ms(Delay::Switch)),
            flow_forwarding_delay: Summary::of_vec(self.measure.delays_ms(Delay::Forwarding)),
            buffer_mean_occupancy: mean_occ,
            buffer_peak_occupancy: buf_stats.peak_occupancy,
            buffer_fallbacks: buf_stats.fallback_full,
            rerequests: buf_stats.rerequests,
            buffer_expired: buf_stats.expired,
            buffer_giveups: buf_stats.giveups,
            stale_releases: buf_stats.stale_releases,
            admission_sheds,
            degraded_entries: switch_stats.degraded_entries.get(),
            degraded_exits: switch_stats.degraded_exits.get(),
            degraded_sheds: switch_stats.degraded_sheds.get(),
            ctrl_crashes: self.ctrl_crashes,
            failover_takeovers: self.failover_takeovers,
            epoch_bumps: switch_stats.epoch_bumps.get(),
            stale_epoch_rejects: switch_stats.stale_epoch_rejects.get(),
            liveness_suspects: switch_stats.liveness_suspects.get(),
            suspect_sheds: switch_stats.suspect_sheds.get(),
            reconcile_rerequests: switch_stats.reconcile_rerequests.get(),
            echo_rtt_p50_ms: echo_rtt.quantile_ms(0.50),
            echo_rtt_p99_ms: echo_rtt.quantile_ms(0.99),
            echo_rtt_samples: echo_rtt.count(),
            packets_sent,
            packets_delivered: totals.packets_delivered,
            packets_dropped: self.data_drops,
            ctrl_drops: self.ctrl_drops,
            events_dispatched: self.events_dispatched,
            flows_completed: totals.flows_completed,
            flows_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sdnbuf_sim::{BitRate, SimRng, Window};
    use sdnbuf_switch::BufferChoice;
    use sdnbuf_workload::{
        cross_sequenced_flows, mixed_udp_tcp, single_packet_flows, PktgenConfig,
    };

    fn small_workload(rate_mbps: u64, n: usize) -> Vec<Departure> {
        single_packet_flows(
            &PktgenConfig {
                rate: BitRate::from_mbps(rate_mbps),
                ..PktgenConfig::default()
            },
            n,
            7,
        )
    }

    fn run_with(buffer: BufferChoice, rate: u64, n: usize) -> RunResult {
        let mut tb = Testbed::new(TestbedConfig::with_buffer(buffer));
        tb.run(&small_workload(rate, n))
    }

    impl Testbed {
        /// The injection `run` replaced, kept as its reference for the
        /// dispatch order: every departure is copied into the pool, tagged
        /// as `run` tags it, and scheduled as a `FrameFromHost` before the
        /// first event pops.
        fn run_prescheduled(&mut self, departures: &[Departure]) -> RunResult {
            let scan = self.begin_measurement(departures);
            let shift = self.config.warmup_gap;
            self.warm_up(scan.earliest);
            for (i, d) in departures.iter().enumerate() {
                let (port, packet) = (PortNo(1), self.pool.insert(d.packet.clone()));
                self.pool.set_tag(packet, i as u32);
                self.queue
                    .schedule(shift + d.at, Event::FrameFromHost { port, packet });
            }
            self.schedule_probes(shift + scan.latest + self.config.warmup_gap);
            self.schedule_crash_plane();
            while let Some((now, event)) = self.queue.pop() {
                self.events_dispatched += 1;
                self.dispatch(now, event, departures);
            }
            self.collect(departures.len() as u64, scan.flows_total)
        }
    }

    /// Everything a run leaves behind that a user can see: the result
    /// (rendered, so that floats compare by value *and* sign and NaN equals
    /// itself), the digest of the traced event stream, the packet log.
    fn observed(
        config: &TestbedConfig,
        departures: &[Departure],
        run: fn(&mut Testbed, &[Departure]) -> RunResult,
    ) -> (String, u64, Vec<PacketTrace>) {
        let mut tb = Testbed::new(config.clone());
        let (tracer, sink) = Tracer::recording(0);
        tb.set_tracer(tracer);
        let result = run(&mut tb, departures);
        let digest = crate::observe::events_digest(sink.borrow().events());
        (format!("{result:?}"), digest, tb.packet_log())
    }

    #[test]
    fn shuffled_workload_runs_like_the_sorted_one() {
        let sorted = cross_sequenced_flows(&PktgenConfig::default(), 12, 20, 5, 3);
        let mut shuffled = sorted.clone();
        SimRng::seed_from(11).shuffle(&mut shuffled);
        assert!(!Measurement::default().begin(&shuffled).ordered);
        // Keepalives: their horizon hangs off the latest departure, the
        // measurement window off the earliest.
        let mut config = TestbedConfig::with_buffer(BufferChoice::FlowGranularity {
            capacity: 256,
            timeout: Nanos::from_millis(50),
        });
        config.keepalive_interval = Some(Nanos::from_millis(1));
        let reference = observed(&config, &sorted, Testbed::run);
        assert_eq!(observed(&config, &shuffled, Testbed::run), reference);
        assert_eq!(
            observed(&config, &shuffled, Testbed::run_prescheduled),
            reference
        );
    }

    const FLOW_256: BufferChoice = BufferChoice::FlowGranularity {
        capacity: 256,
        timeout: Nanos::from_millis(50),
    };

    /// Runs `departures` and hands back the testbed, after checking that
    /// the run left behind what `run_prescheduled` leaves.
    fn run_like_the_reference(buffer: BufferChoice, departures: &[Departure]) -> Testbed {
        let config = TestbedConfig::with_buffer(buffer);
        assert_eq!(
            observed(&config, departures, Testbed::run),
            observed(&config, departures, Testbed::run_prescheduled),
            "{buffer:?}"
        );
        let mut tb = Testbed::new(config);
        tb.run(departures);
        tb
    }

    #[test]
    fn frames_rebuilt_from_packet_out_bytes_build_no_index() {
        let monotone = cross_sequenced_flows(&PktgenConfig::default(), 6, 20, 3, 5);
        // Packets 9 and 15 of flow 0 (which sits at every third position
        // of the first sixty) trade places: every identity is still its
        // own, slice order no longer shows it, and nothing depends on it.
        let mut out_of_order = monotone.clone();
        let (a, b) = (monotone[27].packet.clone(), monotone[45].packet.clone());
        (out_of_order[27].packet, out_of_order[45].packet) = (b, a);
        // Frames parked in the switch keep their tags, and a frame that
        // no-buffer rebuilds from `packet_out` bytes gets its record back
        // with the bytes: no index either way.
        for departures in [monotone, out_of_order] {
            for buffer in [FLOW_256, BufferChoice::NoBuffer] {
                let tb = run_like_the_reference(buffer, &departures);
                assert_eq!(tb.measure.sizes(), (120, 0), "{buffer:?}");
            }
        }
        // A full buffer's fallback rebuilds frames the same way.
        let departures = small_workload(100, 400);
        let tb = run_like_the_reference(
            BufferChoice::PacketGranularity { capacity: 16 },
            &departures,
        );
        assert!(tb.switch.buffer().stats().fallback_full > 0);
        assert_eq!(tb.measure.sizes(), (400, 0));
        assert_eq!(tb.measure.totals().packets_delivered, 400);
    }

    #[test]
    fn a_give_up_drain_is_found_by_its_wire_identity() {
        // A controller stall past a one-retry budget: the flow buffer gives
        // its flows up and drains them as whole-frame `packet_in`s, with no
        // frame handed over behind them.
        let pktgen = PktgenConfig {
            rate: BitRate::from_mbps(40),
            ..PktgenConfig::default()
        };
        let departures = cross_sequenced_flows(&pktgen, 6, 4, 2, 9);
        let mut config = TestbedConfig::with_buffer(BufferChoice::FlowGranularity {
            capacity: 256,
            timeout: Nanos::from_millis(20),
        });
        config.switch.retry = sdnbuf_switchbuf::RetryPolicy::backoff(Nanos::from_millis(40), 1);
        config
            .faults
            .stalls
            .push(Window::new(Nanos::from_millis(45), Nanos::from_millis(160)));
        let mut tb = Testbed::new(config);
        tb.keep_packet_log();
        let r = tb.run(&departures);
        assert!(r.buffer_giveups > 0, "{r:?}");
        assert_eq!(r.packets_delivered, 24, "{r:?}");
        assert_eq!(tb.measure.sizes(), (24, 24));
        assert_eq!(tb.measure.flow_delays(), tb.measure.flow_delays_from_log());
    }

    #[test]
    fn a_workload_outside_the_contract_is_mis_measured_not_a_panic() {
        // Packet 9 of flow 0 goes out again in place of its packet 15, and
        // packet 3 of flow 1 is an ARP frame: one wire identity shared,
        // one missing. Neither matters to a record that rides with its
        // frame and that frame's control messages: every packet is counted
        // where it is delivered, the ARP frame rebuilt from `packet_out`
        // bytes included.
        let mut departures = cross_sequenced_flows(&PktgenConfig::default(), 6, 20, 3, 5);
        departures[45].packet = departures[27].packet.clone();
        let host = HostAddr::host1();
        departures[10].packet = PacketBuilder::gratuitous_arp(host.mac, host.ip);
        for buffer in [FLOW_256, BufferChoice::NoBuffer] {
            let mut tb = Testbed::new(TestbedConfig::with_buffer(buffer));
            tb.keep_packet_log();
            let r = tb.run(&departures);
            assert_eq!(tb.measure.sizes().0, 120, "a record per departure");
            assert_eq!(
                (r.packets_delivered, r.flows_completed),
                (120, 6),
                "{buffer:?}"
            );
            assert_eq!(
                tb.measure.flow_delays(),
                tb.measure.flow_delays_from_log(),
                "{buffer:?}"
            );
        }
    }

    #[test]
    fn a_packet_in_with_no_originating_frame_finds_its_flow_by_the_buffered_head() {
        // One flow of five packets into the flow buffer, its packets held
        // while the rule is set up. `run` returns the testbed's round trips
        // and setup delays as summaries: with one flow, each is its flow's.
        // A re-request is tagged by the head frame the buffer still holds,
        // so no plan builds an index.
        let departures = cross_sequenced_flows(&PktgenConfig::default(), 1, 5, 1, 3);
        let run = |plan: &str| {
            let mut config = TestbedConfig::with_buffer(FLOW_256);
            config.faults = FaultPlan::parse(plan).expect("valid plan");
            let mut tb = Testbed::new(config);
            let r = tb.run(&departures);
            assert_eq!(r.packets_delivered, 5, "{plan}");
            assert_eq!(tb.measure.sizes(), (5, 0), "{plan}");
            r
        };
        let clean = run("");
        assert_eq!((clean.rerequests, clean.controller_delay.n), (0, 1));
        // The seventh message to the controller is the flow's `packet_in`:
        // lost, so the buffer's 50 ms timer asks again from the frames it
        // holds, with no frame handed over behind the request. That one is
        // answered, and it is the only round trip the flow has.
        let lost_in = run("c.loss=nth:7");
        assert_eq!((lost_in.rerequests, lost_in.controller_delay.n), (1, 1));
        let setup = lost_in.flow_setup_delay.mean;
        assert!(setup > 50.0, "{setup} ms");
        let switch = setup - lost_in.controller_delay.mean;
        assert!(
            (lost_in.switch_delay.mean - switch).abs() < 1e-9,
            "{lost_in:?}"
        );
        // Every third message to the switch is lost, the ninth among them:
        // the `packet_out` that would have released the flow. Its
        // `packet_in` was answered by its `flow_mod`, the timer's request
        // is answered too, and the flow keeps the first of the two round
        // trips.
        let lost_out = run("s.loss=nth:3");
        assert_eq!((lost_out.rerequests, lost_out.controller_delay.n), (1, 2));
        let switch = lost_out.flow_setup_delay.mean - lost_out.controller_delay.min;
        assert!(
            (lost_out.switch_delay.mean - switch).abs() < 1e-9,
            "{lost_out:?}"
        );
    }

    #[test]
    fn live_state_follows_what_is_in_flight_not_the_workload() {
        let departures = cross_sequenced_flows(&PktgenConfig::default(), 200, 20, 5, 1);
        let mut tb = Testbed::new(TestbedConfig::with_buffer(BufferChoice::FlowGranularity {
            capacity: 256,
            timeout: Nanos::from_millis(50),
        }));
        let r = tb.run(&departures);
        assert_eq!(r.packets_delivered, 4000);
        let peak = tb.pool.stats().peak_live;
        assert!(peak < 100, "{peak} frames live at once out of 4000");
    }

    /// A workload for the differential test: exact CBR (so that departures
    /// sit on multiples of the packet interval, where the probes can be
    /// put too), then the slice disordered.
    fn arb_departures() -> impl Strategy<Value = (Vec<Departure>, Nanos)> {
        let kind = prop_oneof![
            (1usize..40).prop_map(|n| (n, 0, 0)),
            (1usize..6, 1usize..5).prop_map(|(flows, group)| (flows, 20, group)),
            (1usize..30, 1usize..3, 1usize..10),
        ];
        let index = any::<proptest::sample::Index>;
        let swaps = proptest::collection::vec((index(), index()), 0..4);
        (kind, 5u64..100, any::<u64>(), swaps).prop_map(|((a, b, c), rate, seed, swaps)| {
            let pktgen = PktgenConfig {
                rate: BitRate::from_mbps(rate),
                jitter_permille: 0,
                ..PktgenConfig::default()
            };
            let mut departures = match (b, c) {
                (0, 0) => single_packet_flows(&pktgen, a, seed),
                (20, group) => cross_sequenced_flows(&pktgen, a, 20, group, seed),
                (n_tcp, segments) => mixed_udp_tcp(&pktgen, a, n_tcp, segments, seed),
            };
            let n = departures.len();
            for (i, j) in swaps {
                departures.swap(i.index(n), j.index(n));
            }
            (departures, pktgen.interval())
        })
    }

    fn arb_buffer() -> impl Strategy<Value = BufferChoice> {
        prop_oneof![
            Just(BufferChoice::NoBuffer),
            (1usize..64).prop_map(|capacity| BufferChoice::PacketGranularity { capacity }),
            (1usize..64, 5u64..100).prop_map(|(capacity, ms)| BufferChoice::FlowGranularity {
                capacity,
                timeout: Nanos::from_millis(ms),
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Streaming the departures past the queue dispatches what
        /// scheduling them all up front dispatched, in the same order —
        /// with no warm-up gap, so that departures tie with the ARP and
        /// handshake events at 0 and 1 ms; with keepalives on departure
        /// instants (a keepalive traces nothing when it is dispatched; a
        /// crash does, so one is put on a departure instant too); with
        /// control messages duplicated and lost; out of time order.
        #[test]
        fn streamed_run_equals_prescheduled_run(
            (departures, interval) in arb_departures(),
            buffer in arb_buffer(),
            keepalive_every in 0u64..6,
            crash_with in proptest::collection::vec(any::<proptest::sample::Index>(), 0..2),
            faults in prop_oneof![
                Just(""),
                Just("fseed=3,c.dup=0.5,s.dup=0.5"),
                Just("fseed=5,c.loss=nth:4,s.dup=0.3"),
                Just("fseed=9,c.dup=0.3,s.loss=nth:3,c.jitter=300us"),
            ],
        ) {
            let mut config = TestbedConfig::with_buffer(buffer);
            config.warmup_gap = Nanos::ZERO;
            config.keepalive_interval = (keepalive_every > 0).then(|| interval * keepalive_every);
            config.faults = FaultPlan::parse(faults).expect("valid plan");
            for departure in crash_with {
                let from = departures[departure.index(departures.len())].at;
                config.faults.crashes.push(Window::new(from, from + Nanos::from_millis(2)));
            }
            let streamed = observed(&config, &departures, Testbed::run);
            let prescheduled = observed(&config, &departures, Testbed::run_prescheduled);
            prop_assert_eq!(streamed, prescheduled);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The per-flow aggregates, folded as frames are stamped, hold what
        /// one pass over the packet log extracts after the run — with
        /// packets out of slice order, on a
        /// mechanism whose frames come back from the controller as bytes
        /// and on ones that park them, with control messages duplicated
        /// (so that one `packet_out` releases, or rebuilds, a frame twice)
        /// and held back past later ones. And the result is the same
        /// whether or not the log is kept.
        #[test]
        fn streamed_aggregates_equal_the_extraction_from_the_log(
            (departures, _) in arb_departures(),
            buffer in prop_oneof![
                Just(BufferChoice::NoBuffer),
                Just(BufferChoice::PacketGranularity { capacity: 16 }),
                Just(FLOW_256),
            ],
            faults in prop_oneof![
                Just(""),
                Just("fseed=3,c.dup=0.5,s.dup=0.5,c.reorder=0.3:400us,s.reorder=0.3:400us"),
            ],
        ) {
            let mut config = TestbedConfig::with_buffer(buffer);
            config.faults = FaultPlan::parse(faults).expect("valid plan");
            let mut logged = Testbed::new(config.clone());
            logged.keep_packet_log();
            let with_log = logged.run(&departures);
            prop_assert_eq!(
                logged.measure.flow_delays(),
                logged.measure.flow_delays_from_log()
            );
            let mut bare = Testbed::new(config);
            let without_log = bare.run(&departures);
            prop_assert_eq!(format!("{with_log:?}"), format!("{without_log:?}"));
            prop_assert_eq!(bare.packet_log(), []);
        }
    }

    #[test]
    fn a_stale_handle_is_a_counted_drop_not_a_panic() {
        let mut tb = Testbed::new(TestbedConfig::default());
        let frame = tb.pool.insert(PacketBuilder::udp().build());
        tb.pool.release(frame);
        let (port, packet) = (PortNo(1), frame);
        for event in [
            Event::FrameFromHost { port, packet },
            Event::FrameAtSwitch {
                in_port: port,
                packet,
            },
            Event::EgressAtSwitch { port, packet },
        ] {
            tb.dispatch(Nanos::ZERO, event, &[]);
        }
        assert_eq!((tb.data_drops, tb.ctrl_drops), (3, 0));

        let msg = tb.msgs.insert(OfpMessage::Hello);
        tb.msgs.release(msg);
        let (dir, xid) = (ChannelDir::ToSwitch, 1);
        for event in [
            Event::CtrlSend { dir, xid, msg },
            Event::CtrlAtController { xid, msg },
            Event::CtrlAtSwitch { xid, msg },
        ] {
            tb.dispatch(Nanos::ZERO, event, &[]);
        }
        assert_eq!((tb.data_drops, tb.ctrl_drops), (3, 3));
        // Nothing was scheduled, handled or metered on their behalf.
        assert!(tb.queue.is_empty());
        assert_eq!(tb.switch.stats().drops.get(), 0);
        assert_eq!(tb.ctrl[dir as usize].meter.bytes(), 0);
    }

    #[test]
    fn try_new_returns_typed_errors() {
        assert!(Testbed::try_new(TestbedConfig::default()).is_ok());
        let err = match Testbed::try_new(TestbedConfig::with_buffer(
            BufferChoice::PacketGranularity { capacity: 0 },
        )) {
            Ok(_) => panic!("zero capacity must be rejected"),
            Err(e) => e,
        };
        assert!(err.contains("capacity"), "{err}");

        // A zero keepalive interval is refused here, not looped on in
        // `schedule_probes`; so is it one level up.
        let config = TestbedConfig {
            keepalive_interval: Some(Nanos::ZERO),
            ..TestbedConfig::default()
        };
        let experiment = crate::ExperimentConfig {
            testbed: config.clone(),
            ..crate::ExperimentConfig::default()
        };
        match Testbed::try_new(config) {
            Ok(_) => panic!("a zero keepalive interval must be rejected"),
            Err(e) => assert!(e.contains("keepalive"), "{e}"),
        }
        let err = crate::Experiment::try_new(experiment).unwrap_err();
        assert!(err.contains("keepalive"), "{err}");
    }

    #[test]
    fn every_packet_is_delivered_no_buffer() {
        let r = run_with(BufferChoice::NoBuffer, 20, 50);
        assert_eq!(r.packets_sent, 50);
        assert_eq!(r.packets_delivered, 50);
        assert_eq!(r.flows_completed, 50);
        assert_eq!(r.packets_dropped, 0);
    }

    #[test]
    fn every_packet_is_delivered_packet_granularity() {
        let r = run_with(BufferChoice::PacketGranularity { capacity: 256 }, 20, 50);
        assert_eq!(r.packets_delivered, 50);
        assert_eq!(r.flows_completed, 50);
    }

    #[test]
    fn every_packet_is_delivered_flow_granularity() {
        let r = run_with(
            BufferChoice::FlowGranularity {
                capacity: 256,
                timeout: Nanos::from_millis(50),
            },
            20,
            50,
        );
        assert_eq!(r.packets_delivered, 50);
        assert_eq!(r.flows_completed, 50);
    }

    #[test]
    fn buffering_shrinks_control_traffic() {
        let no_buf = run_with(BufferChoice::NoBuffer, 20, 100);
        let buffered = run_with(BufferChoice::PacketGranularity { capacity: 256 }, 20, 100);
        assert!(
            buffered.ctrl_bytes_to_controller < no_buf.ctrl_bytes_to_controller / 4,
            "buffered {} vs no-buffer {}",
            buffered.ctrl_bytes_to_controller,
            no_buf.ctrl_bytes_to_controller
        );
        assert!(buffered.ctrl_bytes_to_switch < no_buf.ctrl_bytes_to_switch / 4);
        // Same number of requests, though: packet granularity does not
        // reduce the message count.
        assert_eq!(buffered.pkt_in_count, no_buf.pkt_in_count);
    }

    #[test]
    fn controller_delay_is_measured_and_sane() {
        let r = run_with(BufferChoice::PacketGranularity { capacity: 256 }, 10, 30);
        assert_eq!(r.controller_delay.n, 30);
        // Two 300 us propagation legs bound it from below.
        assert!(r.controller_delay.mean > 0.6, "{}", r.controller_delay);
        assert!(r.controller_delay.mean < 5.0, "{}", r.controller_delay);
        // Setup includes the controller round trip.
        assert!(r.flow_setup_delay.mean >= r.controller_delay.mean * 0.9);
        assert_eq!(r.flow_setup_delay.n, 30);
        assert_eq!(r.switch_delay.n, 30);
    }

    #[test]
    fn warmup_teaches_controller_host_locations() {
        let mut tb = Testbed::new(TestbedConfig::default());
        let r = tb.run(&small_workload(10, 5));
        assert_eq!(r.packets_delivered, 5);
        use sdnbuf_net::MacAddr;
        assert_eq!(
            tb.controller().location_of(MacAddr::from_host_index(2)),
            Some(PortNo(2))
        );
        assert_eq!(
            tb.controller().location_of(MacAddr::from_host_index(1)),
            Some(PortNo(1))
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_with(BufferChoice::NoBuffer, 30, 40);
        let b = run_with(BufferChoice::NoBuffer, 30, 40);
        assert_eq!(a, b);
    }

    /// A crash-plane testbed config: keepalives on (so the switch's
    /// liveness detector has a heartbeat to miss) and a tight liveness
    /// timeout.
    fn crash_config(plan: &str) -> TestbedConfig {
        let mut cfg = TestbedConfig::with_buffer(BufferChoice::PacketGranularity { capacity: 256 });
        cfg.faults = FaultPlan::parse(plan).expect("valid plan");
        cfg.keepalive_interval = Some(Nanos::from_millis(5));
        cfg.switch.liveness_timeout = Nanos::from_millis(15);
        cfg
    }

    #[test]
    fn mid_run_crash_without_standby_recovers() {
        let mut tb = Testbed::new(crash_config("crash=55ms+30ms"));
        let r = tb.run(&small_workload(20, 50));
        assert_eq!(r.ctrl_crashes, 1);
        assert_eq!(r.failover_takeovers, 0);
        // The restart re-handshakes and the switch moves to a new epoch.
        assert!(r.epoch_bumps >= 1, "epoch_bumps = {}", r.epoch_bumps);
        // Every offered packet is delivered or shows up in the loss
        // accounting — a crash may shed, but never silently strands.
        assert_eq!(
            r.packets_delivered + r.packets_dropped,
            r.packets_sent,
            "delivered {} + dropped {} != sent {}",
            r.packets_delivered,
            r.packets_dropped,
            r.packets_sent
        );
        assert!(r.packets_delivered > 0);
        // The outage dropped control messages on the floor.
        assert!(r.ctrl_drops > 0);
    }

    #[test]
    fn warm_standby_takes_over_mid_run() {
        // The primary never restarts: its crash window runs past the
        // workload, so only the standby's takeover keeps service going.
        let mut cfg = crash_config("crash=55ms+10s");
        cfg.failover.standby = true;
        cfg.failover.takeover_delay = Nanos::from_millis(10);
        cfg.failover.warm = true;
        let mut tb = Testbed::new(cfg);
        let r = tb.run(&small_workload(20, 50));
        assert_eq!(r.ctrl_crashes, 1);
        assert_eq!(r.failover_takeovers, 1);
        assert!(tb.standby_active());
        assert!(r.epoch_bumps >= 1);
        assert_eq!(r.packets_delivered + r.packets_dropped, r.packets_sent);
        assert!(r.packets_delivered > 0);
        // Warm sync carried the primary's learned host locations over.
        use sdnbuf_net::MacAddr;
        assert_eq!(
            tb.standby()
                .unwrap()
                .location_of(MacAddr::from_host_index(2)),
            Some(PortNo(2))
        );
    }

    #[test]
    fn crash_runs_are_deterministic() {
        let run = || {
            let mut tb = Testbed::new(crash_config("crash=55ms+30ms"));
            tb.run(&small_workload(20, 50))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn a_reconciliation_re_announce_is_tagged_by_its_buffered_head() {
        // A crash while flows sit in the flow buffer: the restart bumps the
        // epoch, and the switch re-announces the surviving flows from the
        // frames it still holds, with no frame handed over behind them.
        let mut config = crash_config("crash=55ms+30ms");
        config.switch.buffer = FLOW_256;
        let pktgen = PktgenConfig {
            rate: BitRate::from_mbps(20),
            ..PktgenConfig::default()
        };
        let departures = cross_sequenced_flows(&pktgen, 20, 10, 4, 3);
        let mut tb = Testbed::new(config);
        tb.keep_packet_log();
        let r = tb.run(&departures);
        assert!(r.reconcile_rerequests > 0, "{r:?}");
        assert_eq!(tb.measure.sizes(), (departures.len(), 0));
        // Every flow that went through has a controller round trip, those
        // answered only after a re-announce included.
        assert_eq!(r.switch_delay.n, r.flow_setup_delay.n, "{r:?}");
        assert_eq!(tb.measure.flow_delays(), tb.measure.flow_delays_from_log());
    }

    /// The component defaults are the calibration every run uses; the
    /// testbed overrides none of it.
    #[test]
    fn the_testbed_runs_the_component_calibration() {
        let testbed = TestbedConfig::default();
        assert_eq!(testbed.switch, SwitchConfig::default());
        assert_eq!(testbed.controller, ControllerConfig::default());
    }

    #[test]
    fn a_frame_sent_to_an_unwired_port_is_a_counted_drop() {
        // Every IPv4 frame is sent to port 3, which the testbed does not
        // have; the warm-up ARPs still reach the controller.
        let mut tb = Testbed::new(TestbedConfig::default());
        let mut ipv4 = sdnbuf_openflow::Match::any();
        ipv4.wildcards = ipv4.wildcards.without(sdnbuf_openflow::Wildcards::DL_TYPE);
        ipv4.dl_type = 0x0800;
        let rule = sdnbuf_openflow::msg::FlowMod {
            match_fields: ipv4,
            cookie: 0,
            command: sdnbuf_openflow::msg::FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 100,
            buffer_id: sdnbuf_openflow::BufferId::NO_BUFFER,
            out_port: PortNo::NONE,
            flags: 0,
            actions: vec![sdnbuf_openflow::Action::output(PortNo(3))].into(),
        };
        tb.inject_controller_msg(Nanos::ZERO, OfpMessage::FlowMod(rule), 1);
        let r = tb.run(&small_workload(20, 5));
        assert_eq!((r.packets_sent, r.packets_delivered), (5, 0), "{r:?}");
        assert_eq!(r.packets_dropped, r.packets_sent, "{r:?}");
    }

    #[test]
    fn no_crash_windows_leave_the_plane_cold() {
        let r = run_with(BufferChoice::PacketGranularity { capacity: 256 }, 20, 30);
        assert_eq!(r.ctrl_crashes, 0);
        assert_eq!(r.epoch_bumps, 0);
        assert_eq!(r.stale_epoch_rejects, 0);
        assert_eq!(r.liveness_suspects, 0);
        assert_eq!(r.echo_rtt_samples, 0);
    }

    #[test]
    fn keepalives_measure_echo_rtt() {
        let mut cfg = TestbedConfig::with_buffer(BufferChoice::NoBuffer);
        cfg.keepalive_interval = Some(Nanos::from_millis(5));
        let mut tb = Testbed::new(cfg);
        let r = tb.run(&small_workload(20, 30));
        assert!(r.echo_rtt_samples > 0);
        // Two 300 us propagation legs bound the round trip from below.
        assert!(r.echo_rtt_p50_ms > 0.6, "{}", r.echo_rtt_p50_ms);
        assert!(r.echo_rtt_p99_ms >= r.echo_rtt_p50_ms);
    }

    #[test]
    fn events_stay_two_words() {
        // The queue stores events by value; growing one grows every slot.
        assert_eq!(std::mem::size_of::<Event>(), 16);
    }

    /// `send_ctrl` is one path for both directions: the same knobs on
    /// `c.*` and on `s.*` shape a fixed message sequence identically —
    /// the `CtrlMsg`/`CtrlDrop` events differ only in `dir`, and the taps,
    /// drop counts, pending arrivals and pool references agree.
    #[test]
    fn send_ctrl_is_symmetric_in_direction() {
        let drive = |side: &str, dir: ChannelDir| {
            let plan = format!("fseed=7,{side}.dup=0.5,{side}.jitter=200us,{side}.loss=nth:3");
            let mut tb = Testbed::new(TestbedConfig {
                faults: FaultPlan::parse(&plan).expect("valid plan"),
                ..TestbedConfig::default()
            });
            let (tracer, sink) = Tracer::recording(0);
            tb.set_tracer(tracer);
            for xid in 0..40u32 {
                let msg = match xid % 3 {
                    0 => OfpMessage::Hello,
                    1 => OfpMessage::EchoRequest(vec![0; xid as usize]),
                    _ => OfpMessage::FeaturesRequest,
                };
                let msg = tb.msgs.insert(msg);
                tb.send_ctrl(Nanos::from_micros(u64::from(xid) * 20), dir, xid, msg);
            }
            // (at, xid, bytes, label, arrival or None for a drop), `dir` checked.
            let on_wire: Vec<_> = sink
                .borrow()
                .events()
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::CtrlMsg {
                        dir: d,
                        xid,
                        bytes,
                        label,
                        arrive,
                    } => Some((d, e.at, xid, bytes, label, Some(arrive))),
                    EventKind::CtrlDrop {
                        dir: d,
                        xid,
                        bytes,
                        label,
                    } => Some((d, e.at, xid, bytes, label, None)),
                    _ => None,
                })
                .map(|(d, at, xid, bytes, label, arrive)| {
                    assert_eq!(d, dir);
                    (at, xid, bytes, label, arrive)
                })
                .collect();
            let wire = &tb.ctrl[dir as usize];
            (
                on_wire,
                wire.meter.bytes(),
                tb.ctrl_drops,
                tb.queue.len(),
                tb.msgs.len(),
            )
        };
        let up = drive("c", ChannelDir::ToController);
        let down = drive("s", ChannelDir::ToSwitch);
        assert_eq!(up, down);
        let (on_wire, _, drops, pending, live) = up;
        // Every third message is lost; the survivors' duplicates share
        // their pool entries, so arrivals outnumber live messages.
        assert_eq!(drops, 13);
        assert_eq!(live, 40 - 13);
        assert!(pending > live, "{pending} arrivals for {live} messages");
        assert_eq!(on_wire.len(), pending + 13);
    }
}
