//! Steps 3 to 5 of the traced pass: every tape replayed on a fresh
//! instance, the counters it ends on checked against the real run's, and
//! the layer rows that come out.
//!
//! Each tape is replayed twice, both times under one clock pair around the
//! whole tape; the first replay also counts allocations. The faster of the
//! two walls is the layer's: interference on a shared box only adds time,
//! and so does an armed allocation counter.

use crate::tape::{
    build_tapes, run_traced, BufferEnd, BufferOp, Codec, ControllerEnd, ControllerOp, Frames,
    PoolOp, QueueOp, SwitchEnd, SwitchOp, TableEnd, TableOp, Tapes, TracedRun,
};
use crate::trace::{LayerRow, LayerTable, SpanLog};
use crate::workloads::Cell;
use sdnbuf_controller::{Controller, ControllerConfig};
use sdnbuf_core::{Event, EventKind, Testbed, TestbedConfig, Tracer};
use sdnbuf_flowtable::{FlowTable, InsertOutcome};
use sdnbuf_metrics::Summary;
use sdnbuf_net::{FlowKey, Packet};
use sdnbuf_openflow::{MatchView, OfpMessage};
use sdnbuf_sim::{Bus, CpuResource, EventQueue, Link, Nanos, Pool, PoolHandle};
use sdnbuf_switch::{BufferChoice, PacketPool, Switch, SwitchConfig, SwitchOutput};
use sdnbuf_switchbuf::{
    BufferMechanism, FlowGranularityBuffer, MissAction, NoBuffer, PacketGranularityBuffer,
};
use std::hint::black_box;
use std::time::Instant;

/// What replaying a tape cost.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Cost {
    /// Wall seconds of the whole tape.
    pub wall_s: f64,
    /// Seconds of `wall_s` spent in calls that another layer's tape times
    /// as well — the switch's, then the controller's. Zero for most tapes.
    pub nested_s: [f64; 2],
    /// Allocator calls (0 unless the replay counted).
    pub allocs: u64,
}

/// Wraps the measured part of a replay: one clock pair, recorded as a
/// span, and — in a counting replay — one allocation-counter delta.
pub struct Probe<'a> {
    log: &'a mut SpanLog,
    parent: Option<usize>,
    counting: bool,
}

impl<'a> Probe<'a> {
    /// A probe recording spans under `parent`.
    pub fn new(log: &'a mut SpanLog, parent: Option<usize>, counting: bool) -> Probe<'a> {
        Probe {
            log,
            parent,
            counting,
        }
    }

    /// Measures `f`, which returns its result, its operation count and the
    /// seconds it spent in nested calls.
    pub fn run<T>(&mut self, name: &str, f: impl FnOnce() -> (T, u64, [f64; 2])) -> (T, Cost) {
        let counting = self.counting;
        let mut nested_s = [0.0; 2];
        let ((out, allocs), wall_s) = self.log.time(name, self.parent, || {
            let ((out, ops, nested), allocs) = if counting {
                let (result, snap) = crate::GLOBAL.count(f);
                (result, snap.calls)
            } else {
                (f(), 0)
            };
            nested_s = nested;
            ((out, allocs), ops)
        });
        let cost = Cost {
            wall_s,
            nested_s,
            allocs,
        };
        (out, cost)
    }
}

/// Replays twice — counting, then not — and keeps the second replay's
/// result with the faster replay's timing and the first's allocations.
fn twice<T>(
    log: &mut SpanLog,
    parent: Option<usize>,
    mut replay: impl FnMut(&mut Probe<'_>) -> (T, Cost),
) -> (T, Cost) {
    let (_, counted) = replay(&mut Probe::new(log, parent, true));
    let (out, timed) = replay(&mut Probe::new(log, parent, false));
    let faster = if counted.wall_s < timed.wall_s {
        counted
    } else {
        timed
    };
    let cost = Cost {
        allocs: counted.allocs,
        ..faster
    };
    (out, cost)
}

/// Hands the switch's outputs back to the pool, as the testbed eventually
/// does: a forwarded or dropped frame ends its life.
fn reclaim(outputs: Vec<SwitchOutput>, pool: &mut PacketPool) {
    for output in outputs {
        match output {
            SwitchOutput::Forward { packet, .. }
            | SwitchOutput::Drop {
                packet: Some(packet),
            } => {
                pool.release(packet);
            }
            _ => {}
        }
    }
}

/// Replays the switch tape on a fresh switch. Returns the counters it ends
/// on and the frames and messages handled.
pub fn replay_switch(
    probe: &mut Probe<'_>,
    config: SwitchConfig,
    frames: &Frames<'_>,
    tape: Vec<SwitchOp>,
) -> ((SwitchEnd, u64), Cost) {
    let (mut pool, handles) = frames.pooled();
    let mut sw = Switch::new(config);
    let ops = tape
        .iter()
        .filter(|op| matches!(op, SwitchOp::Frame { .. } | SwitchOp::Ctrl { .. }))
        .count() as u64;
    let ((), cost) = probe.run("switch", || {
        for op in tape {
            match op {
                SwitchOp::Announce => {
                    black_box(sw.announce_capabilities(Nanos::ZERO));
                }
                SwitchOp::Frame { at, port, frame } => {
                    let outputs = sw.handle_frame(at, port, handles[frame as usize], &mut pool);
                    reclaim(outputs, &mut pool);
                }
                SwitchOp::Ctrl { at, xid, msg } => {
                    let outputs = sw.handle_controller_msg(at, msg, xid, &mut pool);
                    reclaim(outputs, &mut pool);
                }
                SwitchOp::Poll => {
                    black_box(sw.next_timer());
                }
                SwitchOp::Timer { at } => {
                    let outputs = sw.on_timer(at, &mut pool);
                    reclaim(outputs, &mut pool);
                }
            }
        }
        ((), ops, [0.0; 2])
    });
    ((SwitchEnd::of(&sw), ops), cost)
}

/// Replays the controller tape on a fresh controller. Returns the counters
/// it ends on; its operations are the `packet_in`s among them.
pub fn replay_controller(
    probe: &mut Probe<'_>,
    config: ControllerConfig,
    tape: Vec<ControllerOp>,
) -> (ControllerEnd, Cost) {
    let mut ctl = Controller::new(config);
    let ((), cost) = probe.run("controller", || {
        let mut handled = 0;
        for op in tape {
            match op {
                ControllerOp::Handshake { miss_send_len } => {
                    black_box(ctl.initiate_handshake(Nanos::ZERO, miss_send_len));
                }
                ControllerOp::Msg { at, xid, msg } => {
                    black_box(ctl.handle_message(at, msg, xid));
                    handled += 1;
                }
            }
        }
        ((), handled, [0.0; 2])
    });
    (ControllerEnd::of(&ctl), cost)
}

/// Replays the flow-table tape on a fresh table. Returns the counters it
/// ends on, the inserts the full table refused, and the calls made.
pub fn replay_table(
    probe: &mut Probe<'_>,
    config: &SwitchConfig,
    tape: Vec<TableOp>,
) -> ((TableEnd, u64, u64), Cost) {
    let mut table = FlowTable::with_eviction(config.flow_table_capacity, config.eviction);
    let ops = tape.len() as u64;
    let mut end = TableEnd::default();
    let mut rejects = 0;
    let ((), cost) = probe.run("flowtable", || {
        for op in tape {
            match op {
                TableOp::Match { at, view, bytes } => {
                    black_box(table.match_packet(at, &view, bytes));
                }
                TableOp::Insert { at, rule } => {
                    end.inserts += 1;
                    match table.insert(at, rule) {
                        InsertOutcome::Evicted(_) => end.evictions += 1,
                        InsertOutcome::Rejected => rejects += 1,
                        InsertOutcome::Installed | InsertOutcome::Replaced => {}
                    }
                }
                TableOp::NextExpiry => {
                    black_box(table.next_expiry());
                }
                TableOp::Expire { at } => end.expiries += table.expire(at).len() as u64,
            }
        }
        ((), ops, [0.0; 2])
    });
    end.lookups = table.lookups();
    end.hits = table.hits();
    end.rules = table.len() as u64;
    ((end, rejects, ops), cost)
}

/// The mechanism a switch with this configuration runs, built as
/// `Switch::try_new` builds it.
fn mechanism_of(config: &SwitchConfig) -> Box<dyn BufferMechanism> {
    match config.buffer {
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
    }
}

/// Replays the buffer tape on a fresh mechanism. Returns the counters it
/// ends on and the misses and releases made.
pub fn replay_buffer(
    probe: &mut Probe<'_>,
    config: &SwitchConfig,
    (pool, handles): &(PacketPool, Vec<PoolHandle>),
    tape: Vec<BufferOp>,
) -> ((BufferEnd, u64), Cost) {
    let mut buffer = mechanism_of(config);
    let ops = tape
        .iter()
        .filter(|op| matches!(op, BufferOp::Miss { .. } | BufferOp::Release { .. }))
        .count() as u64;
    let ((), cost) = probe.run("switchbuf", || {
        for op in tape {
            match op {
                BufferOp::Miss { at, frame, port } => {
                    let action = buffer.on_miss(at, handles[frame as usize], port, pool);
                    black_box(matches!(action, MissAction::SendFullPacketIn));
                }
                BufferOp::Release { at, id } => {
                    black_box(buffer.release(at, id));
                }
                BufferOp::NextTimeout => {
                    black_box(buffer.next_timeout());
                }
                BufferOp::Poll { at } => {
                    black_box(buffer.poll_timeouts(at, pool));
                }
            }
        }
        ((), ops, [0.0; 2])
    });
    ((buffer.stats().into(), ops), cost)
}

/// An event-sized payload: the testbed's own event type is private, and
/// the queue's cost depends only on how many bytes it moves.
type EventStandIn = [u64; 4];

/// Replays the queue tape. Returns the pops made.
fn replay_queue(probe: &mut Probe<'_>, tape: &[QueueOp]) -> (u64, Cost) {
    let mut queue: EventQueue<EventStandIn> = EventQueue::new();
    probe.run("sim.queue", || {
        let mut pops = 0;
        for op in tape {
            match *op {
                QueueOp::Schedule(at) => queue.schedule(at, [at.as_nanos(); 4]),
                QueueOp::Pop => {
                    black_box(queue.pop());
                    pops += 1;
                }
            }
        }
        (pops, pops, [0.0; 2])
    })
}

/// A message-pool slot as large as the real one, without the heap behind
/// it: the messages' bytes are allocated and freed by switch and
/// controller, whose tapes pay for them.
type MessageStandIn = [u8; std::mem::size_of::<OfpMessage>()];

/// Replays the packet-pool tape on real frames — the copy of every workload
/// packet into the pool is `Testbed::run`'s, and the bytes die with the
/// last release — and the message pool's insert/get/get/take per control
/// message. Returns the handles inserted and the packet pool's peak.
fn replay_pool(probe: &mut Probe<'_>, frames: &Frames<'_>, tapes: &Tapes) -> ((u64, u64), Cost) {
    let mut packets: PacketPool = Pool::new();
    let mut messages: Pool<MessageStandIn> = Pool::new();
    let mut handle_of = vec![PoolHandle::DANGLING; tapes.pool_objects as usize];
    // Frames the switch decodes out of `packet_out`s arrive in the pool by
    // move (`net`'s tape pays for decoding them).
    let decoded = tapes.pool_objects as usize - frames.len();
    let mut spares: Vec<Packet> = (0..decoded).map(|_| frames.get(0).clone()).collect();
    let (inserted, cost) = probe.run("sim.pool", || {
        for op in &tapes.pool {
            match *op {
                PoolOp::Insert(o) => {
                    let packet = if (o as usize) < frames.len() {
                        frames.get(o).clone()
                    } else {
                        spares.pop().expect("one spare per decoded frame")
                    };
                    handle_of[o as usize] = packets.insert(packet);
                }
                PoolOp::Get(o) => {
                    black_box(packets.get(handle_of[o as usize]));
                }
                PoolOp::Retain(o) => {
                    packets.retain(handle_of[o as usize]);
                }
                PoolOp::Release(o) => {
                    black_box(packets.release(handle_of[o as usize]));
                }
            }
        }
        for _ in 0..tapes.messages {
            let h = messages.insert([0; std::mem::size_of::<OfpMessage>()]);
            black_box(messages.get(h));
            black_box(messages.get(h));
            black_box(messages.take(h));
        }
        let inserted = packets.stats().inserted + messages.stats().inserted;
        (inserted, inserted, [0.0; 2])
    });
    ((inserted, packets.stats().peak_live as u64), cost)
}

/// Replays every `Link::enqueue` and `Bus::transfer` the stream records,
/// and as many `CpuResource::submit`s as switch and controller made.
/// Returns the ops and the completions that differ from the stream's. Bus
/// and CPU calls are made by switch and controller, whose tapes time them
/// again: their seconds are reported as nested.
fn replay_links(
    probe: &mut Probe<'_>,
    config: &TestbedConfig,
    events: &[Event],
    cpu_submits: u64,
) -> ((u64, u64), Cost) {
    let mut links: Vec<(&'static str, Link)> = ["h1->sw", "h2->sw", "sw->h1", "sw->h2"]
        .into_iter()
        .map(|l| (l, Link::new(config.data_link)))
        .chain(["sw->ctl", "ctl->sw"].map(|l| (l, Link::new(config.control_link))))
        .collect();
    let mut switch_bus = Bus::new(config.switch.bus_rate);
    let mut ingest = Bus::new(config.controller.ingest_rate);
    let mut cpu = CpuResource::new(config.switch.cpu_cores);
    let mut wrong = 0u64;
    let (ops, cost) = probe.run("sim.link", || {
        let mut ops = 0;
        for event in events {
            match event.kind {
                EventKind::LinkTx {
                    link,
                    bytes,
                    arrive,
                } => {
                    let (_, l) = links
                        .iter_mut()
                        .find(|(label, _)| *label == link)
                        .expect("every traced link is wired");
                    wrong += u64::from(l.enqueue(event.at, bytes) != Some(arrive));
                    ops += 1;
                }
                EventKind::LinkDrop { link, bytes } => {
                    // Flap drops are the testbed's; a full queue is the link's.
                    if let Some((_, l)) = links.iter_mut().find(|(label, _)| *label == link) {
                        wrong += u64::from(l.enqueue(event.at, bytes).is_some());
                    }
                }
                _ => {}
            }
        }
        let nested = Instant::now();
        for event in events {
            if let EventKind::BusTransfer { bus, bytes, done } = event.kind {
                let b = if bus == "switch-bus" {
                    &mut switch_bus
                } else {
                    &mut ingest
                };
                wrong += u64::from(b.transfer(event.at, bytes) != done);
                ops += 1;
            }
        }
        for i in 0..cpu_submits {
            black_box(cpu.submit(Nanos::from_micros(i), config.switch.cost_forward));
        }
        // Not split between the two callers; it only ever enters a sum.
        (ops, ops, [nested.elapsed().as_secs_f64(), 0.0])
    });
    ((ops, wrong), cost)
}

/// Replays `Tracer::emit` into a recording sink for every event of the
/// stream. Returns the events recorded.
fn replay_events(probe: &mut Probe<'_>, events: &[Event]) -> (u64, Cost) {
    let (tracer, sink) = Tracer::recording(0);
    let ((), cost) = probe.run("sim.events", || {
        for event in events {
            tracer.emit(event.at, event.kind);
        }
        ((), events.len() as u64, [0.0; 2])
    });
    let recorded = sink.borrow().events().len() as u64;
    (recorded, cost)
}

/// The `net` calls of a run: the testbed's (keying packets at each tap,
/// sizing them for each link) and the switch's (the codec). Returns the
/// codec calls and the bytes they copied.
fn replay_net(
    probe: &mut Probe<'_>,
    cell: &Cell,
    frames: &Frames<'_>,
    tapes: &Tapes,
) -> ((u64, u64), Cost) {
    let miss_send_len = cell.config.switch.miss_send_len as usize;
    let n = frames.len() as u64;
    let mut copied = 0u64;
    let (ops, cost) = probe.run("net", || {
        // Testbed::run keys every departure; then host NIC, switch ingress
        // (twice), egress and delivery taps.
        for d in &cell.departures {
            black_box(FlowKey::of(&d.packet));
        }
        for i in 0..n + tapes.forwards {
            let p = frames.get((i % n) as u32);
            black_box(p.wire_len());
            black_box(FlowKey::of(p));
            black_box(FlowKey::of(p));
        }

        let in_switch = Instant::now();
        let mut ops = 0;
        for i in 0..n + tapes.buffered_forwards {
            black_box(frames.get((i % n) as u32).wire_len());
        }
        for codec in &tapes.codecs {
            let bytes = match *codec {
                Codec::Full(frame) => frames.get(frame).encode(),
                Codec::Slice(frame) => frames.get(frame).header_slice(miss_send_len),
            };
            copied += bytes.len() as u64;
            black_box(bytes);
            ops += 1;
        }
        for op in &tapes.switch {
            if let SwitchOp::Ctrl {
                msg: OfpMessage::PacketOut(po),
                ..
            } = op
            {
                if !po.buffer_id.is_buffered() {
                    copied += po.data.len() as u64;
                    black_box(Packet::decode(&po.data).map(|p| p.wire_len()).ok());
                    ops += 1;
                }
            }
        }
        (ops, ops, [in_switch.elapsed().as_secs_f64(), 0.0])
    });
    ((ops, copied), cost)
}

/// The `openflow` calls of a run: a match view per frame (the switch's),
/// a `wire_len` per control message at each end of the channel (the
/// testbed's when it puts the message on the link, the controller's when
/// it ingests it). Returns the messages sized plus views built.
fn replay_openflow(probe: &mut Probe<'_>, frames: &Frames<'_>, tapes: &Tapes) -> (u64, Cost) {
    let to_switch = || {
        tapes.switch.iter().filter_map(|op| match op {
            SwitchOp::Ctrl { msg, .. } => Some(msg),
            _ => None,
        })
    };
    let to_controller = || {
        tapes.controller.iter().filter_map(|op| match op {
            ControllerOp::Msg { msg, .. } => Some(msg),
            _ => None,
        })
    };
    probe.run("openflow", || {
        let mut ops = 0;
        for msg in to_switch().chain(to_controller()) {
            black_box(msg.wire_len());
            ops += 1;
        }
        let nested = Instant::now();
        for op in &tapes.switch {
            if let SwitchOp::Frame { port, frame, .. } = *op {
                black_box(MatchView::of(port, frames.get(frame)));
                ops += 1;
            }
        }
        let in_switch_s = nested.elapsed().as_secs_f64();
        let nested = Instant::now();
        for msg in to_controller() {
            black_box(msg.wire_len());
        }
        (ops, ops, [in_switch_s, nested.elapsed().as_secs_f64()])
    })
}

/// The four `Summary::of` calls `Testbed::run` ends on, over delay samples
/// rebuilt from the packet log. Returns the samples summarised and whether
/// the flow-setup summary came out as the run's own.
fn replay_metrics(probe: &mut Probe<'_>, run: &TracedRun) -> ((u64, bool), Cost) {
    // Flow-setup delay: a flow's first packet, switch ingress to egress.
    let setup_ms: Vec<f64> = run
        .packet_log
        .iter()
        .filter(|p| p.seq_in_flow == 0)
        .filter_map(|p| {
            Some(
                p.left_switch?
                    .saturating_sub(p.entered_switch?)
                    .as_millis_f64(),
            )
        })
        .collect();
    // The other three sample sets are not visible from outside; samples of
    // the right count and magnitude stand in for them.
    let stand_in = |n: usize| -> Vec<f64> {
        (0..n)
            .map(|i| {
                setup_ms
                    .get(i % setup_ms.len().max(1))
                    .copied()
                    .unwrap_or(0.0)
            })
            .collect()
    };
    let r = &run.result;
    let others = [
        r.controller_delay.n,
        r.switch_delay.n,
        r.flow_forwarding_delay.n,
    ]
    .map(stand_in);
    let samples = (setup_ms.len() + others.iter().map(Vec::len).sum::<usize>()) as u64;
    let (setup, cost) = probe.run("metrics", || {
        let setup = Summary::of(&setup_ms);
        for set in &others {
            black_box(Summary::of(set));
        }
        (setup, samples, [0.0; 2])
    });
    ((samples, setup == r.flow_setup_delay), cost)
}

/// What the traced pass found out about one cell.
pub struct CellLayers {
    /// The layer rows. `rep_wall_s` is 1: the caller knows the cell's part
    /// of the rep.
    pub table: LayerTable,
    /// Why a row was marked unfaithful, if any was.
    pub complaints: Vec<String>,
    /// The real run's counters and stream.
    pub run: TracedRun,
    /// Bytes the codec copied.
    pub bytes_copied: u64,
    /// Deepest the event queue got.
    pub queue_peak: u64,
    /// Most handles live in the packet pool.
    pub pool_peak: u64,
    /// Inserts the flow table refused.
    pub table_rejects: u64,
}

/// Whether a tape ended where the real run did; says so if not.
fn same_end<T: PartialEq + std::fmt::Debug>(
    complaints: &mut Vec<String>,
    cell: &str,
    layer: &str,
    tape: &T,
    real: &T,
) -> bool {
    if tape == real {
        return true;
    }
    complaints.push(format!(
        "{cell}: the {layer} tape ended on {tape:?}, the run on {real:?}"
    ));
    false
}

/// Testbeds constructed to time one construction.
const INSTANCES: u64 = 64;

/// Runs the whole traced pass on one cell, recording spans under `parent`.
pub fn trace_cell(cell: &Cell, log: &mut SpanLog, parent: Option<usize>) -> CellLayers {
    let span = log.open(format!("cell:{}", cell.name), parent);
    let here = Some(span);
    let (run, _) = log.time("core.testbed:traced_run", here, || {
        let run = run_traced(cell);
        let events = run.counts.events;
        (run, events)
    });
    let frames = Frames::of(cell);
    let (tapes, _) = log.time("bench:build_tapes", here, || {
        let tapes = build_tapes(cell, &frames, &run);
        let ops = tapes.switch.len() as u64;
        (tapes, ops)
    });

    let name = cell.name.as_str();
    let mut complaints: Vec<String> = tapes
        .mismatches
        .iter()
        .map(|m| format!("{name}: {m}"))
        .collect();
    let followed = complaints.is_empty();
    let co_switch = same_end(
        &mut complaints,
        name,
        "co-simulated switch",
        &tapes.switch_end,
        &run.switch,
    );
    let co_controller = same_end(
        &mut complaints,
        name,
        "co-simulated controller",
        &tapes.controller_end,
        &run.controller,
    );

    let mut rows = Vec::new();

    // Counted tapes over the run's real inputs.
    let ((net_ops, bytes_copied), net) = twice(log, here, |p| replay_net(p, cell, &frames, &tapes));
    rows.push(LayerRow::timed("net", net_ops, net.wall_s, net.allocs));

    let (openflow_ops, openflow) = twice(log, here, |p| replay_openflow(p, &frames, &tapes));
    rows.push(LayerRow::timed(
        "openflow",
        openflow_ops,
        openflow.wall_s,
        openflow.allocs,
    ));

    let (pops, cost) = twice(log, here, |p| replay_queue(p, &tapes.queue));
    let mut row = LayerRow::timed("sim.queue", pops, cost.wall_s, cost.allocs);
    row.faithful = followed && pops == run.result.events_dispatched;
    rows.push(row);

    let ((inserted, pool_peak), cost) = twice(log, here, |p| replay_pool(p, &frames, &tapes));
    rows.push(LayerRow::timed(
        "sim.pool",
        inserted,
        cost.wall_s,
        cost.allocs,
    ));

    let ((link_ops, wrong), links) = twice(log, here, |p| {
        replay_links(p, &cell.config, &run.events, tapes.cpu_submits)
    });
    let mut row = LayerRow::timed("sim.link", link_ops, links.wall_s, 0);
    if wrong > 0 {
        complaints.push(format!(
            "{name}: {wrong} link or bus completions differ from the stream's"
        ));
        row.faithful = false;
    }
    rows.push(row);

    // Recording is off in a timed rep; the row says what turning it on costs.
    let (recorded, cost) = twice(log, here, |p| replay_events(p, &run.events));
    rows.push(LayerRow::timed("sim.events", recorded, cost.wall_s, cost.allocs).outside_rep());

    let ((samples, same_summary), cost) = twice(log, here, |p| replay_metrics(p, &run));
    let mut row = LayerRow::timed("metrics", samples, cost.wall_s, 0);
    if !same_summary {
        complaints.push(format!(
            "{name}: the rebuilt flow-setup samples do not summarise to the run's own"
        ));
        row.faithful = false;
    }
    rows.push(row);

    // Trace-ordered tapes of the stateful layers.
    let ((table_end, table_rejects, table_ops), table) = twice(log, here, |p| {
        replay_table(p, &cell.config.switch, tapes.table.clone())
    });
    let mut row = LayerRow::timed("flowtable", table_ops, table.wall_s, table.allocs);
    row.faithful = same_end(&mut complaints, name, "flowtable", &table_end, &run.table);
    rows.push(row);

    // The mechanism only reads the pool: one copy of the frames serves
    // both replays.
    let pooled = frames.pooled();
    let ((buffer_end, buffer_ops), buffer) = twice(log, here, |p| {
        replay_buffer(p, &cell.config.switch, &pooled, tapes.buffer.clone())
    });
    drop(pooled);
    let mut row = LayerRow::timed("switchbuf", buffer_ops, buffer.wall_s, buffer.allocs);
    row.faithful = same_end(&mut complaints, name, "switchbuf", &buffer_end, &run.buffer);
    rows.push(row);

    let (controller_end, cost) = twice(log, here, |p| {
        replay_controller(p, cell.config.controller, tapes.controller.clone())
    });
    let mut row = LayerRow::timed(
        "controller",
        controller_end.pkt_ins,
        cost.wall_s,
        cost.allocs,
    );
    // The controller's own `wire_len` per message is `openflow`'s.
    row.self_s = (row.inclusive_s - openflow.nested_s[1]).max(0.0);
    row.faithful = co_controller
        && same_end(
            &mut complaints,
            name,
            "controller",
            &controller_end,
            &run.controller,
        );
    rows.push(row);

    let ((switch_end, switch_ops), cost) = twice(log, here, |p| {
        replay_switch(p, cell.config.switch, &frames, tapes.switch.clone())
    });
    let mut row = LayerRow::timed("switch", switch_ops, cost.wall_s, cost.allocs);
    // Self time: the switch's calls into layers with rows of their own are
    // theirs.
    row.self_s =
        (row.inclusive_s - table.wall_s - buffer.wall_s - net.nested_s[0] - openflow.nested_s[0])
            .max(0.0);
    row.faithful = co_switch && same_end(&mut complaints, name, "switch", &switch_end, &run.switch);
    rows.push(row);

    // Work the cell needs that happens outside its timed rep.
    let (packets, wall_s) = log.time("workload", here, || {
        let n = black_box(cell.kind.generate(&cell.pktgen, cell.seed)).len() as u64;
        (n, n)
    });
    rows.push(LayerRow::timed("workload", packets, wall_s, 0).outside_rep());

    let (folded, wall_s) = log.time("core.spans", here, || {
        let report = sdnbuf_core::spans::LatencyReport::from_events(&run.events);
        let mut json = String::new();
        report.write_json(&mut json);
        black_box(json);
        let n = run.events.len() as u64;
        (n, n)
    });
    rows.push(LayerRow::timed("core.spans", folded, wall_s, 0).outside_rep());

    // Construction, timed over enough instances to register.
    let ((), snap) = crate::GLOBAL.count(|| drop(black_box(Testbed::new(cell.config.clone()))));
    let ((), wall_s) = log.time("core.testbed:new", here, || {
        for _ in 0..INSTANCES {
            black_box(Testbed::new(cell.config.clone()));
        }
        ((), INSTANCES)
    });
    rows.push(LayerRow::timed(
        "core.testbed",
        1,
        wall_s / INSTANCES as f64,
        snap.calls,
    ));

    log.close(span, run.result.events_dispatched);
    CellLayers {
        table: LayerTable {
            rows,
            rep_wall_s: 1.0,
            // Bus and CPU calls, timed by `sim.link` and again inside the
            // switch's and the controller's tapes.
            nested_s: links.nested_s[0],
        },
        complaints,
        bytes_copied,
        queue_peak: tapes.queue_peak as u64,
        pool_peak,
        table_rejects,
        run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnbuf_core::{BufferMode, WorkloadKind};

    fn traced(buffer: BufferMode, kind: WorkloadKind) -> CellLayers {
        let _armed = crate::alloc_test_lock();
        let cell = Cell::new(buffer, 50, kind, 1);
        trace_cell(&cell, &mut SpanLog::new(), None)
    }

    /// 50 flows of 12 packets at half line rate: misses, buffering,
    /// releases and hits all occur.
    fn fifty_flows() -> WorkloadKind {
        WorkloadKind::CrossSequenced {
            n_flows: 50,
            packets_per_flow: 12,
            group_size: 5,
        }
    }

    fn assert_faithful(layers: &CellLayers) {
        assert!(layers.complaints.is_empty(), "{:#?}", layers.complaints);
        assert!(layers.table.faithful());
        for layer in [
            "net",
            "openflow",
            "sim.queue",
            "sim.pool",
            "sim.link",
            "flowtable",
            "switchbuf",
            "switch",
            "controller",
            "metrics",
            "core.testbed",
        ] {
            let row = layers
                .table
                .row(layer)
                .unwrap_or_else(|| panic!("{layer} row"));
            assert!(row.ops > 0, "{layer} did something");
            assert!(
                row.inclusive_s > 0.0 && row.self_s <= row.inclusive_s,
                "{layer} was timed"
            );
        }
        let ops = |layer: &str| layers.table.row(layer).unwrap().ops;
        let (counts, result) = (&layers.run.counts, &layers.run.result);
        assert_eq!(ops("sim.queue"), result.events_dispatched);
        assert_eq!(ops("switch"), counts.switch_ops());
        assert_eq!(ops("openflow"), counts.openflow_ops());
        assert_eq!(ops("net"), counts.net_ops());
        assert_eq!(ops("sim.link"), counts.link_ops());
        assert_eq!(ops("sim.pool"), counts.pool_ops(result.packets_sent + 2));
        assert_eq!(ops("switchbuf"), counts.switchbuf_ops());
        assert_eq!(ops("controller"), counts.pkt_ins_received);
        assert!(
            ops("flowtable") > counts.flowtable_ops(),
            "timer polls count too"
        );
    }

    #[test]
    fn no_buffer_tapes_are_faithful() {
        let layers = traced(BufferMode::NoBuffer, fifty_flows());
        assert_faithful(&layers);
        assert_eq!(layers.run.buffer.buffered, 0);
        assert!(
            layers.run.counts.data_pkt_outs > 0,
            "frames ride in packet_outs"
        );
        // Every missed data frame is encoded out and decoded back in full.
        let missed = layers.run.counts.full_pkt_ins - 2;
        assert!(layers.bytes_copied >= 2 * 1000 * missed);
    }

    #[test]
    fn packet_granularity_tapes_are_faithful() {
        let layers = traced(
            BufferMode::PacketGranularity { capacity: 16 },
            fifty_flows(),
        );
        assert_faithful(&layers);
        assert!(layers.run.buffer.buffered > 0 && layers.run.buffer.released > 0);
        assert!(layers.run.table.hits > 0);
    }

    #[test]
    fn flow_granularity_tapes_are_faithful() {
        let layers = traced(
            BufferMode::FlowGranularity {
                capacity: 256,
                timeout: Nanos::from_millis(50),
            },
            fifty_flows(),
        );
        assert_faithful(&layers);
        // Fewer requests than misses, and queues drained more than one
        // packet at a time: Algorithms 1 and 2 at work.
        assert!(layers.run.switch.pkt_in_sent < layers.run.switch.table_misses);
        assert!(layers.run.buffer.released > layers.run.counts.buffer_drains);
        assert!(layers.run.table.hits > 0);
    }

    #[test]
    fn an_exhausted_buffer_and_a_full_table_are_followed_too() {
        let _armed = crate::alloc_test_lock();
        let mut cell = Cell::new(
            BufferMode::PacketGranularity { capacity: 2 },
            100,
            WorkloadKind::single_packet_flows(50),
            3,
        );
        cell.config.switch.flow_table_capacity = 8;
        let layers = trace_cell(&cell, &mut SpanLog::new(), None);
        assert_faithful(&layers);
        assert!(layers.run.buffer.fallbacks > 0);
        assert_eq!(layers.table_rejects, 42);
        assert_eq!(layers.run.counts.peak_rules, 8);
    }

    #[test]
    fn a_tape_that_ends_elsewhere_is_caught() {
        let mut complaints = Vec::new();
        let real = TableEnd {
            lookups: 10,
            ..TableEnd::default()
        };
        assert!(same_end(&mut complaints, "c", "flowtable", &real, &real));
        assert!(!same_end(
            &mut complaints,
            "c",
            "flowtable",
            &TableEnd::default(),
            &real
        ));
        assert_eq!(complaints.len(), 1);
        assert!(complaints[0].contains("lookups: 10"), "{}", complaints[0]);
    }

    #[test]
    fn a_tampered_tape_fails_its_fidelity_check() {
        let _armed = crate::alloc_test_lock();
        let cell = Cell::new(
            BufferMode::PacketGranularity { capacity: 16 },
            50,
            fifty_flows(),
            1,
        );
        let run = run_traced(&cell);
        let frames = Frames::of(&cell);
        let mut tapes = build_tapes(&cell, &frames, &run);
        // Lose one lookup: the replay must end on other counters.
        let lookup = tapes
            .table
            .iter()
            .position(|op| matches!(op, TableOp::Match { .. }))
            .unwrap();
        tapes.table.remove(lookup);
        let mut log = SpanLog::new();
        let ((end, _, _), _) = replay_table(
            &mut Probe::new(&mut log, None, false),
            &cell.config.switch,
            tapes.table,
        );
        assert_ne!(end, run.table);
        assert_eq!(end.lookups + 1, run.table.lookups);
    }

    #[test]
    fn the_counting_replay_counts_and_the_faster_wall_wins() {
        let _armed = crate::alloc_test_lock();
        let mut log = SpanLog::new();
        let mut calls = 0;
        let ((), cost) = twice(&mut log, None, |p| {
            calls += 1;
            p.run("net", || {
                black_box(vec![0u8; 64]);
                ((), 1, [0.0; 2])
            })
        });
        assert_eq!(calls, 2);
        assert_eq!(log.spans().len(), 2, "both replays leave a span");
        assert!(cost.allocs >= 1);
        let walls: Vec<f64> = log
            .spans()
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect();
        assert_eq!(cost.wall_s, walls[0].min(walls[1]));
    }
}
