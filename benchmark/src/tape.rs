//! The traced pass of the cell workloads (`sec4_churn`, `sec5_flows`):
//! per-layer tapes built from a traced run's own event stream and replayed
//! through each layer's public functions.
//!
//! For every cell:
//!
//! 1. the cell runs once with a recording tracer; the stream, the
//!    `RunResult` and the component counters are kept;
//! 2. a **co-simulation** drives a fresh `Switch` and `Controller` with
//!    nothing but the stream's arrival instants: the k-th `link_tx{h1->sw}`
//!    says when the k-th frame reaches the switch, every `ctrl_msg{dir,xid}`
//!    says when the message the two components just handed each other
//!    arrives. No event queue, link or fault plane takes part. Every call
//!    made on the way is written to a tape — one for the switch, one for
//!    the controller, and the same order projected onto the flow table's
//!    and the buffer mechanism's own calls;
//! 3. each tape is replayed on a fresh instance under a single clock pair
//!    ([`crate::replay`]);
//! 4. the counters each replay ends on must equal the real run's. A tape
//!    that ends elsewhere is marked unfaithful, left out of the layer sum
//!    and fails the benchmark's self-check.
//!
//! Stateless layers (`net`, `openflow`, `sim.*`, `metrics`) get counted
//! tapes over the run's real inputs.
//!
//! This module holds steps 1 and 2.

use crate::trace::{dir_index, StreamCounts};
use crate::workloads::Cell;
use sdnbuf_controller::{Controller, ControllerOutput};
use sdnbuf_core::{
    ChannelDir, Event, EventKind, MsgDesc, PacketTrace, RunResult, Testbed, TestbedConfig, Tracer,
};
use sdnbuf_flowtable::FlowRule;
use sdnbuf_net::{Packet, PacketBuilder};
use sdnbuf_openflow::msg::{self, FlowModCommand};
use sdnbuf_openflow::{BufferId, MatchView, OfpMessage, PortNo};
use sdnbuf_sim::{FastHashMap, Nanos, PoolHandle};
use sdnbuf_switch::{PacketPool, Switch, SwitchOutput};
use sdnbuf_switchbuf::BufferStats;
use sdnbuf_workload::HostAddr;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Instant;

// ---------------------------------------------------------------------
// Terminal counters: what a faithful tape must end on.
// ---------------------------------------------------------------------

/// Flow-table counters at the end of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableEnd {
    /// Lookups performed.
    pub lookups: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// `insert` calls.
    pub inserts: u64,
    /// Inserts that evicted a rule.
    pub evictions: u64,
    /// Rules removed by expiry sweeps.
    pub expiries: u64,
    /// Rules left installed.
    pub rules: u64,
}

/// Buffer-mechanism counters at the end of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferEnd {
    /// Packets parked.
    pub buffered: u64,
    /// Packets released.
    pub released: u64,
    /// Misses that fell back to a full `packet_in`.
    pub fallbacks: u64,
    /// Timeout-driven re-requests.
    pub rerequests: u64,
    /// Highest occupancy.
    pub peak_occupancy: u64,
}

impl From<BufferStats> for BufferEnd {
    fn from(s: BufferStats) -> BufferEnd {
        BufferEnd {
            buffered: s.buffered,
            released: s.released,
            fallbacks: s.fallback_full,
            rerequests: s.rerequests,
            peak_occupancy: s.peak_occupancy as u64,
        }
    }
}

/// Switch counters at the end of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SwitchEnd {
    /// `packet_in`s sent.
    pub pkt_in_sent: u64,
    /// `flow_mod`s handled.
    pub flow_mods: u64,
    /// `packet_out`s handled.
    pub pkt_outs: u64,
    /// Table misses.
    pub table_misses: u64,
    /// Frames forwarded on the fast path.
    pub fastpath_forwards: u64,
}

impl SwitchEnd {
    /// The counters of `sw`.
    pub fn of(sw: &Switch) -> SwitchEnd {
        let s = sw.stats();
        SwitchEnd {
            pkt_in_sent: s.pkt_in_sent.get(),
            flow_mods: s.flow_mods.get(),
            pkt_outs: s.pkt_outs.get(),
            table_misses: s.table_misses.get(),
            fastpath_forwards: s.fastpath_forwards.get(),
        }
    }
}

/// Controller counters at the end of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ControllerEnd {
    /// `packet_in`s handled.
    pub pkt_ins: u64,
    /// `flow_mod`s emitted.
    pub flow_mods: u64,
    /// `packet_out`s emitted.
    pub pkt_outs: u64,
}

impl ControllerEnd {
    /// The counters of `ctl`.
    pub fn of(ctl: &Controller) -> ControllerEnd {
        let s = ctl.stats();
        ControllerEnd {
            pkt_ins: s.pkt_ins.get(),
            flow_mods: s.flow_mods.get(),
            pkt_outs: s.pkt_outs.get(),
        }
    }
}

// ---------------------------------------------------------------------
// Step 1: the traced real run.
// ---------------------------------------------------------------------

/// One cell run with a recording tracer, and everything readable from
/// outside once it has finished.
#[derive(Clone, Debug)]
pub struct TracedRun {
    /// The run's measurements.
    pub result: RunResult,
    /// The run's event stream.
    pub events: Vec<Event>,
    /// Exact counts read off the stream.
    pub counts: StreamCounts,
    /// Per-packet timeline (the delay samples `metrics` summarises).
    pub packet_log: Vec<PacketTrace>,
    /// Flow-table counters.
    pub table: TableEnd,
    /// Buffer-mechanism counters.
    pub buffer: BufferEnd,
    /// Switch counters.
    pub switch: SwitchEnd,
    /// Controller counters.
    pub controller: ControllerEnd,
    /// Wall seconds of `Testbed::new` + `run` with the tracer attached.
    pub wall_s: f64,
}

/// Runs `cell` traced.
pub fn run_traced(cell: &Cell) -> TracedRun {
    let (tracer, sink) = Tracer::recording(0);
    let start = Instant::now();
    let mut tb = Testbed::new(cell.config.clone());
    tb.set_tracer(tracer);
    let result = tb.run(&cell.departures);
    let wall_s = start.elapsed().as_secs_f64();
    let events = sink.borrow_mut().take();
    let counts = StreamCounts::of(&events);
    let table = tb.switch().table();
    TracedRun {
        table: TableEnd {
            lookups: table.lookups(),
            hits: table.hits(),
            inserts: counts.rule_installs,
            evictions: counts.rule_evictions,
            expiries: counts.rule_expiries,
            rules: table.len() as u64,
        },
        buffer: tb.switch().buffer().stats().into(),
        switch: SwitchEnd::of(tb.switch()),
        controller: ControllerEnd::of(tb.controller()),
        packet_log: tb.packet_log(),
        result,
        events,
        counts,
        wall_s,
    }
}

// ---------------------------------------------------------------------
// Tapes.
// ---------------------------------------------------------------------

/// One call into the switch.
#[derive(Clone, Debug)]
pub enum SwitchOp {
    /// `announce_capabilities` at time zero.
    Announce,
    /// `handle_frame`.
    Frame {
        /// Arrival instant.
        at: Nanos,
        /// Ingress port.
        port: PortNo,
        /// Index of the frame (see [`Frames`]).
        frame: u32,
    },
    /// `handle_controller_msg`.
    Ctrl {
        /// Arrival instant.
        at: Nanos,
        /// Transaction id.
        xid: u32,
        /// The message the controller really emitted.
        msg: OfpMessage,
    },
    /// `next_timer`, as the testbed polls after every switch event.
    Poll,
    /// `on_timer`.
    Timer {
        /// The instant the timer fired.
        at: Nanos,
    },
}

/// One call into the controller.
#[derive(Clone, Debug)]
pub enum ControllerOp {
    /// `initiate_handshake` at time zero.
    Handshake {
        /// The switch's configured `miss_send_len`.
        miss_send_len: u16,
    },
    /// `handle_message`.
    Msg {
        /// Arrival instant.
        at: Nanos,
        /// Transaction id.
        xid: u32,
        /// The message the switch really emitted.
        msg: OfpMessage,
    },
}

/// One call into the flow table.
#[derive(Clone, Debug)]
pub enum TableOp {
    /// `match_packet`.
    Match {
        /// Lookup instant.
        at: Nanos,
        /// The packet's match view.
        view: MatchView,
        /// The packet's wire length.
        bytes: usize,
    },
    /// `insert`.
    Insert {
        /// The instant the rule takes effect (`FlowRuleInstalled.effective_at`).
        at: Nanos,
        /// The rule, built from the `flow_mod` as the switch builds it.
        rule: FlowRule,
    },
    /// `next_expiry`.
    NextExpiry,
    /// `expire`.
    Expire {
        /// Sweep instant.
        at: Nanos,
    },
}

/// One call into the buffer mechanism.
#[derive(Clone, Copy, Debug)]
pub enum BufferOp {
    /// `on_miss`.
    Miss {
        /// Miss instant.
        at: Nanos,
        /// Index of the frame.
        frame: u32,
        /// Ingress port.
        port: PortNo,
    },
    /// `release`.
    Release {
        /// The instant the `packet_out` was parsed (`BufferDrain`'s stamp).
        at: Nanos,
        /// The id it names.
        id: BufferId,
    },
    /// `next_timeout`.
    NextTimeout,
    /// `poll_timeouts`.
    Poll {
        /// Sweep instant.
        at: Nanos,
    },
}

/// One call into the event queue.
#[derive(Clone, Copy, Debug)]
pub enum QueueOp {
    /// `schedule` for this instant.
    Schedule(Nanos),
    /// `pop`.
    Pop,
}

/// One call into a pool, on the object with this number.
#[derive(Clone, Copy, Debug)]
pub enum PoolOp {
    /// `insert`.
    Insert(u32),
    /// `get`.
    Get(u32),
    /// `retain`.
    Retain(u32),
    /// `release`.
    Release(u32),
}

/// What the switch did to a frame's bytes on a miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Codec {
    /// `encode`: the whole frame rode in the `packet_in`.
    Full(u32),
    /// `header_slice`: the frame was buffered.
    Slice(u32),
}

/// The frames a cell's switch sees: the two warm-up ARPs, then the
/// workload's departures. Frame 0 is Host1's ARP, frame 1 Host2's, frame
/// `2 + i` departure `i`.
pub struct Frames<'a> {
    arps: [Packet; 2],
    cell: &'a Cell,
}

impl<'a> Frames<'a> {
    /// The frames of `cell`.
    pub fn of(cell: &'a Cell) -> Frames<'a> {
        let (h1, h2) = (HostAddr::host1(), HostAddr::host2());
        Frames {
            arps: [
                PacketBuilder::gratuitous_arp(h1.mac, h1.ip),
                PacketBuilder::gratuitous_arp(h2.mac, h2.ip),
            ],
            cell,
        }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        2 + self.cell.departures.len()
    }

    /// Whether there are none (never: the ARPs are always there).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Frame `idx`.
    pub fn get(&self, idx: u32) -> &Packet {
        match idx {
            0 | 1 => &self.arps[idx as usize],
            i => &self.cell.departures[i as usize - 2].packet,
        }
    }

    /// A pool holding a copy of every frame, inserted in the order the
    /// testbed inserts them, with each frame's handle.
    pub(crate) fn pooled(&self) -> (PacketPool, Vec<PoolHandle>) {
        let mut pool = PacketPool::with_capacity(self.len());
        let handles = (0..self.len() as u32)
            .map(|i| pool.insert(self.get(i).clone()))
            .collect();
        (pool, handles)
    }
}

/// Every tape of one cell.
pub struct Tapes {
    /// Calls into the switch, in order.
    pub switch: Vec<SwitchOp>,
    /// Calls into the controller, in order.
    pub controller: Vec<ControllerOp>,
    /// The switch tape projected onto the flow table.
    pub table: Vec<TableOp>,
    /// The switch tape projected onto the buffer mechanism.
    pub buffer: Vec<BufferOp>,
    /// Event-queue calls: every event of the run, scheduled when its cause
    /// was dispatched.
    pub queue: Vec<QueueOp>,
    /// Deepest the queue got.
    pub queue_peak: usize,
    /// Packet-pool calls.
    pub pool: Vec<PoolOp>,
    /// Objects the packet-pool tape names.
    pub pool_objects: u32,
    /// Control messages that passed through the message pool.
    pub messages: u64,
    /// `CpuResource::submit` calls made by the switch and the controller.
    pub cpu_submits: u64,
    pub(crate) codecs: Vec<Codec>,
    /// Frames the switch forwarded or flooded out of a data port.
    pub forwards: u64,
    /// Frames released out of the buffer by a `packet_out`.
    pub buffered_forwards: u64,
    /// Counters the co-simulated switch ended on.
    pub switch_end: SwitchEnd,
    /// Counters the co-simulated controller ended on.
    pub controller_end: ControllerEnd,
    /// Where the co-simulation could not follow the stream (empty when it
    /// could): a message the stream never carried, a mismatched xid, …
    pub mismatches: Vec<String>,
}

// ---------------------------------------------------------------------
// Step 2: the co-simulation that writes the tapes.
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum ArrivalKind {
    Frame(u32),
    Ctrl(ChannelDir, u32),
}

#[derive(Clone, Copy, Debug)]
struct Arrival {
    at: Nanos,
    kind: ArrivalKind,
}

/// Arrival instants, per-message fates and the stamps internal to the
/// switch, all read off the stream.
struct StreamIndex {
    /// Frame and control-message arrivals in dispatch order.
    arrivals: Vec<Arrival>,
    /// Per (direction, xid), in emission order: was the message delivered?
    fates: FastHashMap<(usize, u32), VecDeque<bool>>,
    /// `(xid, effective_at)` of every processed `flow_mod`, in order.
    installs: VecDeque<(u32, Nanos)>,
    /// `(xid, parse instant)` of every buffered `packet_out`, in order.
    drains: VecDeque<(u32, Nanos)>,
    /// `(scheduled at, fires at)` of every event the stream shows being
    /// put on a link.
    wire_events: Vec<(Option<Nanos>, Nanos)>,
}

impl StreamIndex {
    fn of(events: &[Event]) -> StreamIndex {
        let mut index = StreamIndex {
            arrivals: Vec::new(),
            fates: FastHashMap::default(),
            installs: VecDeque::new(),
            drains: VecDeque::new(),
            wire_events: Vec::new(),
        };
        // Frames leave each host in order and the links are FIFO, so the
        // k-th outcome on a host link belongs to the host's k-th frame.
        let mut sent = [0u32; 2];
        for event in events {
            match event.kind {
                EventKind::LinkTx { link, arrive, .. } => match link {
                    "h1->sw" | "h2->sw" => {
                        let host = usize::from(link == "h2->sw");
                        // Host1 sends its ARP, then the departures; Host2
                        // only its ARP.
                        let frame = match (host, sent[host]) {
                            (0, 0) => 0,
                            (0, k) => k + 1,
                            (_, _) => 1,
                        };
                        sent[host] += 1;
                        index.arrivals.push(Arrival {
                            at: arrive,
                            kind: ArrivalKind::Frame(frame),
                        });
                        index.wire_events.push((Some(event.at), arrive));
                    }
                    "sw->h1" | "sw->h2" => index.wire_events.push((Some(event.at), arrive)),
                    // Control links: the `CtrlMsg` event carries the
                    // arrival (fault delays included).
                    _ => {}
                },
                EventKind::LinkDrop { link, .. } => match link {
                    "h1->sw" => sent[0] += 1,
                    "h2->sw" => sent[1] += 1,
                    _ => {}
                },
                EventKind::CtrlMsg {
                    dir, xid, arrive, ..
                } => {
                    index.arrivals.push(Arrival {
                        at: arrive,
                        kind: ArrivalKind::Ctrl(dir, xid),
                    });
                    index.wire_events.push((Some(event.at), arrive));
                    index
                        .fates
                        .entry((dir_index(dir), xid))
                        .or_default()
                        .push_back(true);
                }
                EventKind::CtrlDrop { dir, xid, .. } => index
                    .fates
                    .entry((dir_index(dir), xid))
                    .or_default()
                    .push_back(false),
                EventKind::FlowRuleInstalled {
                    xid, effective_at, ..
                } => index.installs.push_back((xid, effective_at)),
                EventKind::BufferDrain { xid, .. } => index.drains.push_back((xid, event.at)),
                _ => {}
            }
        }
        // The event queue dispatches by (time, scheduling order) and the
        // stream is in scheduling order: a stable sort by time is the
        // dispatch order.
        index.arrivals.sort_by_key(|a| a.at);
        index
    }
}

struct CoSim<'a> {
    config: &'a TestbedConfig,
    frames: &'a Frames<'a>,
    index: StreamIndex,
    sw: Switch,
    ctl: Controller,
    pool: PacketPool,
    handles: Vec<PoolHandle>,
    /// Messages on the wire, per (direction, xid), oldest first.
    in_flight: FastHashMap<(usize, u32), VecDeque<OfpMessage>>,
    /// Pending `SwitchTimer` events and the testbed's `timer_armed`.
    timers: BinaryHeap<Reverse<Nanos>>,
    armed: Option<Nanos>,
    /// `(scheduled at, fires at)` of every event the two components cause.
    caused_events: Vec<(Option<Nanos>, Nanos)>,
    object_of: FastHashMap<PoolHandle, u32>,
    tapes: Tapes,
}

impl<'a> CoSim<'a> {
    fn new(config: &'a TestbedConfig, frames: &'a Frames<'a>, events: &[Event]) -> CoSim<'a> {
        let (pool, handles) = frames.pooled();
        let mut object_of = FastHashMap::default();
        let mut pool_tape = Vec::new();
        for (i, &h) in handles.iter().enumerate() {
            object_of.insert(h, i as u32);
            pool_tape.push(PoolOp::Insert(i as u32));
        }
        CoSim {
            config,
            frames,
            index: StreamIndex::of(events),
            sw: Switch::new(config.switch),
            ctl: Controller::new(config.controller),
            pool,
            handles,
            in_flight: FastHashMap::default(),
            timers: BinaryHeap::new(),
            armed: None,
            caused_events: Vec::new(),
            object_of,
            tapes: Tapes {
                switch: Vec::new(),
                controller: Vec::new(),
                table: Vec::new(),
                buffer: Vec::new(),
                queue: Vec::new(),
                queue_peak: 0,
                pool: pool_tape,
                pool_objects: frames.len() as u32,
                messages: 0,
                cpu_submits: 0,
                codecs: Vec::new(),
                forwards: 0,
                buffered_forwards: 0,
                switch_end: SwitchEnd::default(),
                controller_end: ControllerEnd::default(),
                mismatches: Vec::new(),
            },
        }
    }

    fn mismatch(&mut self, what: String) {
        // The first few say what went wrong; the count says how badly.
        if self.tapes.mismatches.len() < 8 {
            self.tapes.mismatches.push(what);
        }
    }

    /// Puts a message on the wire — or drops it, if the stream says the
    /// real one was dropped.
    fn emit(
        &mut self,
        cause: Option<Nanos>,
        at: Nanos,
        dir: ChannelDir,
        xid: u32,
        msg: OfpMessage,
    ) {
        self.caused_events.push((cause, at));
        self.tapes.messages += 1;
        let key = (dir_index(dir), xid);
        match self.index.fates.get_mut(&key).and_then(VecDeque::pop_front) {
            Some(true) => self.in_flight.entry(key).or_default().push_back(msg),
            Some(false) => {}
            None => self.mismatch(format!(
                "{} xid {xid}: the stream carries no such message",
                MsgDesc::of(&msg).label()
            )),
        }
    }

    fn route_controller(&mut self, cause: Option<Nanos>, outputs: Vec<ControllerOutput>) {
        for ControllerOutput::ToSwitch { at, xid, msg } in outputs {
            self.emit(cause, at, ChannelDir::ToSwitch, xid, msg);
        }
    }

    /// Does with the switch's outputs what the testbed does, minus the
    /// links: messages go on the wire, frames leave the pool.
    fn route_switch(&mut self, cause: Option<Nanos>, outputs: Vec<SwitchOutput>, drained: bool) {
        let mut outputs = outputs.into_iter().peekable();
        // The instant of the egress event the last forward joined, if the
        // last output was a forward.
        let mut egress_at: Option<Nanos> = None;
        while let Some(output) = outputs.next() {
            let SwitchOutput::Forward { at, packet, .. } = output else {
                egress_at = None;
                match output {
                    SwitchOutput::ToController { at, xid, msg } => {
                        self.emit(cause, at, ChannelDir::ToController, xid, msg);
                    }
                    SwitchOutput::Drop {
                        packet: Some(packet),
                    } => {
                        if let Some(&object) = self.object_of.get(&packet) {
                            self.tapes.pool.push(PoolOp::Release(object));
                        }
                        self.release(packet);
                    }
                    _ => {}
                }
                continue;
            };
            // The testbed coalesces consecutive same-instant forwards into
            // one egress event.
            if egress_at != Some(at) {
                self.caused_events.push((cause, at));
                egress_at = Some(at);
            }
            let object = match self.object_of.get(&packet) {
                Some(&o) => o,
                None => {
                    // Decoded out of a `packet_out` by the switch.
                    let o = self.tapes.pool_objects;
                    self.tapes.pool_objects += 1;
                    self.object_of.insert(packet, o);
                    self.tapes.pool.push(PoolOp::Insert(o));
                    o
                }
            };
            // A flood hands out one more reference per further port.
            if matches!(outputs.peek(), Some(SwitchOutput::Forward { packet: next, .. }) if *next == packet)
            {
                self.tapes.pool.push(PoolOp::Retain(object));
            }
            if drained {
                // The switch sizes each frame it lets out of the buffer.
                self.tapes.buffered_forwards += 1;
                self.tapes.pool.push(PoolOp::Get(object));
            }
            // Egress, delivery, end of life.
            self.tapes.pool.extend([
                PoolOp::Get(object),
                PoolOp::Get(object),
                PoolOp::Release(object),
            ]);
            self.tapes.forwards += 1;
            self.release(packet);
        }
    }

    /// Drops one reference to a frame, forgetting it once it is gone.
    fn release(&mut self, packet: PoolHandle) {
        if self.pool.release(packet).is_some() {
            self.object_of.remove(&packet);
        }
    }

    /// The testbed's `arm_timer`.
    fn arm_timer(&mut self, now: Nanos) {
        self.poll();
        if let Some(t) = self.sw.next_timer() {
            if self.armed.map_or(true, |armed| t < armed) {
                self.timers.push(Reverse(t));
                self.armed = Some(t);
                self.caused_events.push((Some(now), t));
            }
        }
    }

    fn poll(&mut self) {
        self.tapes.switch.push(SwitchOp::Poll);
        self.tapes.table.push(TableOp::NextExpiry);
        self.tapes.buffer.push(BufferOp::NextTimeout);
    }

    /// The testbed's `SwitchTimer` event.
    fn timer_event(&mut self, now: Nanos) {
        if self.armed == Some(now) {
            self.armed = None;
        }
        self.poll();
        if self.sw.next_timer().is_some_and(|t| t <= now) {
            self.tapes.switch.push(SwitchOp::Timer { at: now });
            self.tapes.table.push(TableOp::Expire { at: now });
            self.tapes.buffer.push(BufferOp::Poll { at: now });
            let outputs = self.sw.on_timer(now, &mut self.pool);
            self.route_switch(Some(now), outputs, false);
        }
        self.arm_timer(now);
    }

    fn frame(&mut self, at: Nanos, frame: u32) {
        let port = PortNo(if frame == 1 { 2 } else { 1 });
        let handle = self.handles[frame as usize];
        let packet = self.frames.get(frame);
        self.tapes.switch.push(SwitchOp::Frame { at, port, frame });
        self.tapes.table.push(TableOp::Match {
            at,
            view: MatchView::of(port, packet),
            bytes: packet.wire_len(),
        });
        // Host NIC, switch ingress, table lookup.
        self.tapes.pool.extend([PoolOp::Get(frame); 3]);
        self.tapes.cpu_submits += 1;

        let misses = self.sw.stats().table_misses.get();
        let outputs = self.sw.handle_frame(at, port, handle, &mut self.pool);
        if self.sw.stats().table_misses.get() > misses {
            self.tapes.buffer.push(BufferOp::Miss { at, frame, port });
            let pkt_in = outputs.iter().find_map(|o| match o {
                SwitchOutput::ToController {
                    msg: OfpMessage::PacketIn(pin),
                    ..
                } => Some(pin.buffer_id),
                _ => None,
            });
            match pkt_in {
                Some(id) if id.is_buffered() => {
                    self.tapes.codecs.push(Codec::Slice(frame));
                    self.tapes.pool.push(PoolOp::Get(frame));
                }
                Some(_) => {
                    // The frame lives on only as the message's payload.
                    self.tapes.codecs.push(Codec::Full(frame));
                    self.tapes
                        .pool
                        .extend([PoolOp::Get(frame), PoolOp::Release(frame)]);
                    self.object_of.remove(&handle);
                }
                // Buffered silently under an announced flow id.
                None => {}
            }
        }
        self.route_switch(Some(at), outputs, false);
        self.arm_timer(at);
    }

    fn take_in_flight(&mut self, dir: ChannelDir, xid: u32) -> Option<OfpMessage> {
        let msg = self
            .in_flight
            .get_mut(&(dir_index(dir), xid))
            .and_then(VecDeque::pop_front);
        if msg.is_none() {
            self.mismatch(format!(
                "{} xid {xid} arrives in the stream but was never sent here",
                dir.label()
            ));
        }
        msg
    }

    fn arrive_at_controller(&mut self, at: Nanos, xid: u32) {
        let Some(msg) = self.take_in_flight(ChannelDir::ToController, xid) else {
            return;
        };
        self.tapes.cpu_submits += 1;
        self.tapes.controller.push(ControllerOp::Msg {
            at,
            xid,
            msg: msg.clone(),
        });
        let outputs = self.ctl.handle_message(at, msg, xid);
        self.route_controller(Some(at), outputs);
    }

    fn arrive_at_switch(&mut self, at: Nanos, xid: u32) {
        let Some(msg) = self.take_in_flight(ChannelDir::ToSwitch, xid) else {
            return;
        };
        let mut drained = false;
        match &msg {
            OfpMessage::FlowMod(fm) if !is_delete(fm.command) => {
                self.tapes.cpu_submits += 2;
                match self.index.installs.pop_front() {
                    Some((stream_xid, effective_at)) => {
                        if stream_xid != xid {
                            self.mismatch(format!(
                                "flow_mod xid {xid} lines up with the stream's install {stream_xid}"
                            ));
                        }
                        self.tapes.table.push(TableOp::Insert {
                            at: effective_at,
                            rule: rule_of(fm),
                        });
                    }
                    None => self.mismatch(format!("flow_mod xid {xid}: no install in the stream")),
                }
            }
            OfpMessage::PacketOut(po) if po.buffer_id.is_buffered() => {
                drained = true;
                self.tapes.cpu_submits += 1;
                match self.index.drains.pop_front() {
                    Some((stream_xid, parsed_at)) => {
                        if stream_xid != xid {
                            self.mismatch(format!(
                                "packet_out xid {xid} lines up with the stream's drain {stream_xid}"
                            ));
                        }
                        self.tapes.buffer.push(BufferOp::Release {
                            at: parsed_at,
                            id: po.buffer_id,
                        });
                    }
                    None => self.mismatch(format!("packet_out xid {xid}: no drain in the stream")),
                }
            }
            _ => self.tapes.cpu_submits += 1,
        }
        self.tapes.switch.push(SwitchOp::Ctrl {
            at,
            xid,
            msg: msg.clone(),
        });
        let outputs = self.sw.handle_controller_msg(at, msg, xid, &mut self.pool);
        if drained {
            // One submit per packet let out of the buffer.
            self.tapes.cpu_submits += outputs.len() as u64;
        }
        self.route_switch(Some(at), outputs, drained);
        self.arm_timer(at);
    }

    fn run(mut self, result: &RunResult) -> Tapes {
        // What `Testbed::run` does before its loop, in its order.
        let miss_send_len = self.config.switch.miss_send_len;
        self.tapes
            .controller
            .push(ControllerOp::Handshake { miss_send_len });
        let handshake = self.ctl.initiate_handshake(Nanos::ZERO, miss_send_len);
        self.route_controller(None, handshake);
        self.tapes.switch.push(SwitchOp::Announce);
        let announce = self.sw.announce_capabilities(Nanos::ZERO);
        self.route_switch(None, announce, false);
        self.caused_events.push((None, Nanos::ZERO));
        self.caused_events.push((None, Nanos::from_millis(1)));
        let shift = self.config.warmup_gap;
        let departures = &self.frames.cell.departures;
        self.caused_events
            .extend(departures.iter().map(|d| (None, shift + d.at)));

        let arrivals = std::mem::take(&mut self.index.arrivals);
        for arrival in arrivals {
            // A timer due at the very instant of an arrival was scheduled
            // long before it (timeouts are milliseconds to seconds, wire
            // times microseconds), so it dispatches first.
            while self.timers.peek().is_some_and(|t| t.0 <= arrival.at) {
                let Reverse(t) = self.timers.pop().expect("peeked");
                self.timer_event(t);
            }
            match arrival.kind {
                ArrivalKind::Frame(frame) => self.frame(arrival.at, frame),
                ArrivalKind::Ctrl(ChannelDir::ToController, xid) => {
                    self.arrive_at_controller(arrival.at, xid)
                }
                ArrivalKind::Ctrl(ChannelDir::ToSwitch, xid) => {
                    self.arrive_at_switch(arrival.at, xid)
                }
            }
        }
        // The rule-expiry housekeeping that trails the traffic.
        while let Some(Reverse(t)) = self.timers.pop() {
            self.timer_event(t);
        }

        let mut events = std::mem::take(&mut self.caused_events);
        events.append(&mut self.index.wire_events);
        if events.len() as u64 != result.events_dispatched {
            self.mismatch(format!(
                "the tapes account for {} events, the run dispatched {}",
                events.len(),
                result.events_dispatched
            ));
        }
        (self.tapes.queue, self.tapes.queue_peak) = queue_tape(events);
        self.tapes.switch_end = SwitchEnd::of(&self.sw);
        self.tapes.controller_end = ControllerEnd::of(&self.ctl);
        self.tapes
    }
}

fn is_delete(command: FlowModCommand) -> bool {
    matches!(
        command,
        FlowModCommand::Delete | FlowModCommand::DeleteStrict
    )
}

/// The rule a `flow_mod` installs, built as `Switch::handle_flow_mod`
/// builds it.
fn rule_of(fm: &msg::FlowMod) -> FlowRule {
    let rule = FlowRule::new(fm.match_fields, fm.priority)
        .with_actions(fm.actions.clone())
        .with_cookie(fm.cookie)
        .with_idle_timeout(Nanos::from_secs(u64::from(fm.idle_timeout)))
        .with_hard_timeout(Nanos::from_secs(u64::from(fm.hard_timeout)));
    if fm.flags & msg::OFPFF_SEND_FLOW_REM != 0 {
        rule.with_removal_notification()
    } else {
        rule
    }
}

/// Orders `(scheduled at, fires at)` pairs into the call sequence an event
/// loop makes: events without a scheduling instant are scheduled up front
/// (as `Testbed::run` pre-schedules the whole workload), every other event
/// right after the pop of the event that caused it.
fn queue_tape(events: Vec<(Option<Nanos>, Nanos)>) -> (Vec<QueueOp>, usize) {
    let mut ops = Vec::with_capacity(events.len() * 2);
    let mut pending = BinaryHeap::new();
    let mut caused = Vec::new();
    let mut seq = 0u64;
    let mut schedule = |ops: &mut Vec<QueueOp>, pending: &mut BinaryHeap<_>, t: Nanos| {
        ops.push(QueueOp::Schedule(t));
        pending.push(Reverse((t, seq)));
        seq += 1;
    };
    for (cause, fires) in events {
        match cause {
            None => schedule(&mut ops, &mut pending, fires),
            Some(cause) => caused.push((cause, fires)),
        }
    }
    caused.sort_by_key(|&(cause, _)| cause);
    let mut caused = caused.into_iter().peekable();
    let mut peak = pending.len();
    loop {
        let Some(Reverse((now, _))) = pending.pop() else {
            // An event whose cause never fired would be lost; schedule it
            // so the tape still holds every event of the run.
            match caused.next() {
                Some((_, fires)) => {
                    schedule(&mut ops, &mut pending, fires);
                    continue;
                }
                None => break,
            }
        };
        ops.push(QueueOp::Pop);
        while let Some((_, fires)) = caused.next_if(|&(cause, _)| cause <= now) {
            schedule(&mut ops, &mut pending, fires);
        }
        peak = peak.max(pending.len());
    }
    (ops, peak)
}

/// Builds every tape of `cell` from its traced run.
pub fn build_tapes(cell: &Cell, frames: &Frames<'_>, run: &TracedRun) -> Tapes {
    CoSim::new(&cell.config, frames, &run.events).run(&run.result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_queue_tape_schedules_causes_before_effects() {
        let ns = Nanos::from_nanos;
        let (ops, peak) = queue_tape(vec![
            (None, ns(10)),
            (None, ns(30)),
            (Some(ns(10)), ns(20)),
            (Some(ns(20)), ns(25)),
            // Its cause never fires: scheduled once the queue runs dry.
            (Some(ns(99)), ns(100)),
        ]);
        let text: Vec<String> = ops
            .iter()
            .map(|op| match op {
                QueueOp::Schedule(t) => format!("s{}", t.as_nanos()),
                QueueOp::Pop => "pop".to_owned(),
            })
            .collect();
        assert_eq!(text.join(" "), "s10 s30 pop s20 pop s25 pop pop s100 pop");
        assert_eq!(peak, 2);
    }
}
