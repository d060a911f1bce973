//! Structured event tracing: typed records instead of eagerly formatted
//! strings, zero-cost when disabled.
//!
//! Every instrumented component holds a [`Tracer`] — a cloneable handle that
//! is *disabled by default*. A disabled tracer's [`Tracer::emit`] is a single
//! branch on an `Option` and performs no heap allocation, so the hot path of
//! an untraced run pays nothing (asserted by a counting-allocator test at the
//! workspace root). When enabled, the tracer forwards [`Event`] records — a
//! virtual timestamp plus a plain-data [`EventKind`] — to an [`EventSink`].
//!
//! One sink ships with the crate, [`RecordingSink`]: a bounded in-memory
//! buffer drained after the run (a run nobody observes needs none: a
//! disabled [`Tracer`] is "no sink"). Everything that writes a recorded
//! stream out — JSONL, the Chrome trace, flight dumps, digests — renders
//! each event through [`Event::write_json_fields`].
//!
//! Event kinds cover the three layers of the emulated testbed: the sim
//! substrate (link and bus transfers), the switch (table misses, rule
//! install/evict/expire, buffer-slot lifecycle), and the controller
//! (`packet_in` receipt, decision, `flow_mod`/`packet_out` emission). Flow
//! setup transactions are linked across layers by the OpenFlow `xid`, which
//! the controller echoes in its replies.
//!
//! Determinism: events are emitted in simulation call order, which is itself
//! deterministic for a fixed seed, so a recorded stream (and any JSONL
//! rendering of it) is byte-for-byte reproducible.

use crate::{Nanos, Piece};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Direction of a control-channel message, from the switch's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChannelDir {
    /// Switch → controller (e.g. `packet_in`, replies).
    ToController,
    /// Controller → switch (e.g. `flow_mod`, `packet_out`).
    ToSwitch,
}

impl ChannelDir {
    /// Stable lowercase label used by the JSON encodings.
    pub fn label(self) -> &'static str {
        match self {
            ChannelDir::ToController => "to_controller",
            ChannelDir::ToSwitch => "to_switch",
        }
    }
}

/// What happened. All variants are plain `Copy` data — numbers and
/// `&'static str` labels — so constructing one never allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A frame was accepted by a point-to-point link.
    LinkTx {
        /// Which link (static label assigned at wiring time).
        link: &'static str,
        /// Frame length in bytes.
        bytes: usize,
        /// Absolute arrival time at the far end.
        arrive: Nanos,
    },
    /// A frame was tail-dropped by a full link queue.
    LinkDrop {
        /// Which link.
        link: &'static str,
        /// Frame length in bytes.
        bytes: usize,
    },
    /// Bytes crossed an ASIC↔CPU bus (or the controller's ingest pipe).
    BusTransfer {
        /// Which bus.
        bus: &'static str,
        /// Transfer size in bytes.
        bytes: usize,
        /// Absolute completion time (including queueing).
        done: Nanos,
    },
    /// A frame missed the flow table.
    TableMiss {
        /// Ingress port.
        in_port: u16,
        /// Frame length in bytes.
        bytes: usize,
    },
    /// A `packet_in` left the switch CPU.
    PacketInSent {
        /// Transaction id linking the whole flow-setup exchange.
        xid: u32,
        /// Buffer slot carrying the packet, or the no-buffer sentinel.
        buffer_id: u32,
        /// Bytes of packet data included in the message.
        bytes: usize,
    },
    /// A flow rule became active in the table.
    FlowRuleInstalled {
        /// `flow_mod` transaction id.
        xid: u32,
        /// Instant the rule starts matching (after install latency).
        effective_at: Nanos,
        /// Table occupancy after the insert.
        table_size: usize,
    },
    /// A rule was evicted to make room for another.
    FlowRuleEvicted {
        /// Table occupancy after the eviction + insert.
        table_size: usize,
    },
    /// A rule timed out and was removed.
    FlowRuleExpired {
        /// Table occupancy after the removal.
        table_size: usize,
    },
    /// A packet was stored in the switch buffer.
    BufferEnqueue {
        /// Slot id handed to the controller.
        buffer_id: u32,
        /// Buffer occupancy (packets) after the enqueue.
        occupancy: usize,
        /// `true` when the slot was freshly allocated, `false` when the
        /// packet joined an existing per-flow queue.
        fresh: bool,
    },
    /// A buffer slot was drained by a `packet_out`/`flow_mod`.
    BufferDrain {
        /// Transaction id of the releasing message.
        xid: u32,
        /// Slot id drained.
        buffer_id: u32,
        /// Packets released from the slot.
        released: usize,
        /// Buffer occupancy (packets) after the drain.
        occupancy: usize,
    },
    /// A buffered packet's timeout fired and it was re-announced.
    BufferRerequest {
        /// Slot id being re-announced.
        buffer_id: u32,
        /// Buffer occupancy (packets) at the rerequest.
        occupancy: usize,
    },
    /// A surviving buffer entry was re-announced by the paced post-restart
    /// reconciliation (not a timeout re-request: the entry's retry state
    /// is untouched).
    BufferReconcile {
        /// Slot id being re-announced.
        buffer_id: u32,
        /// Buffer occupancy (packets) at the re-announce.
        occupancy: usize,
    },
    /// The buffer was full; the packet fell back to a full `packet_in`.
    BufferFallback {
        /// Buffer occupancy (packets) at the fallback.
        occupancy: usize,
    },
    /// A buffered packet outlived the buffer TTL and was garbage-collected.
    BufferExpire {
        /// Slot id the packet was filed under.
        buffer_id: u32,
        /// Buffer occupancy (packets) after the expiry.
        occupancy: usize,
    },
    /// A flow exhausted its retry budget; its buffered packets were drained
    /// (as full `packet_in`s) or dropped and the slot was freed.
    BufferGiveUp {
        /// Slot id given up.
        buffer_id: u32,
        /// Packets removed from the slot.
        drained: usize,
        /// Give-up action label (`"drain"` or `"drop"`).
        action: &'static str,
        /// Buffer occupancy (packets) after the give-up.
        occupancy: usize,
    },
    /// The switch entered degraded mode: enough consecutive give-ups that
    /// it stops emitting fresh `packet_in`s and only probes.
    DegradedEnter {
        /// Consecutive give-ups that tripped the threshold.
        giveups: u32,
    },
    /// The switch left degraded mode after the controller responded again.
    DegradedExit {
        /// Misses shed (not announced) during the degraded episode.
        suppressed: u64,
    },
    /// The controller's bounded ingress queue shed a `packet_in` under its
    /// admission policy.
    AdmissionShed {
        /// Transaction id of the shed request.
        xid: u32,
        /// Bytes of packet data the request carried.
        bytes: usize,
        /// Whether the packet body stayed buffered at the switch (a
        /// buffered request can be re-requested; a full one is lost).
        buffered: bool,
    },
    /// The controller finished ingesting a `packet_in`.
    PacketInReceived {
        /// Transaction id of the request.
        xid: u32,
        /// Bytes of packet data carried.
        bytes: usize,
        /// Whether the packet body stayed buffered at the switch.
        buffered: bool,
    },
    /// The controller decided what to do with a `packet_in`.
    Decision {
        /// Transaction id of the request.
        xid: u32,
        /// `"install"` (destination known) or `"flood"`.
        action: &'static str,
    },
    /// The controller emitted a `flow_mod` (echoing the request xid).
    FlowModSent {
        /// Transaction id, same as the triggering `packet_in`.
        xid: u32,
    },
    /// The controller emitted a `packet_out` (echoing the request xid).
    PacketOutSent {
        /// Transaction id, same as the triggering `packet_in`.
        xid: u32,
        /// Buffer slot referenced, or the no-buffer sentinel.
        buffer_id: u32,
    },
    /// A control-channel message was put on the wire.
    CtrlMsg {
        /// Direction of travel.
        dir: ChannelDir,
        /// OpenFlow transaction id.
        xid: u32,
        /// Wire length in bytes.
        bytes: usize,
        /// Message-type label (e.g. `"packet_in"`).
        label: &'static str,
        /// Absolute arrival time at the far end.
        arrive: Nanos,
    },
    /// A control-channel message was dropped (full queue or injected loss).
    CtrlDrop {
        /// Direction of travel.
        dir: ChannelDir,
        /// OpenFlow transaction id.
        xid: u32,
        /// Wire length in bytes.
        bytes: usize,
        /// Message-type label.
        label: &'static str,
    },
    /// A controller crashed, dropping *all* volatile state (pending
    /// `packet_in`s, the admission queue, partially computed rules).
    /// Distinct from a stall, which preserves state.
    CtrlCrash {
        /// Session epoch that died with the controller.
        epoch: u32,
        /// Which controller (`"primary"` or `"standby"`).
        role: &'static str,
    },
    /// A crashed controller came back up and re-initiated the OpenFlow
    /// handshake under a fresh session epoch.
    CtrlRestart {
        /// The new (bumped) session epoch.
        epoch: u32,
        /// Which controller restarted (`"primary"` or `"standby"`).
        role: &'static str,
    },
    /// The warm-standby controller took over after the primary crashed.
    FailoverTakeover {
        /// The new session epoch the standby serves under.
        epoch: u32,
        /// Flow-knowledge the standby starts with (`"warm"` = snapshot
        /// synced, `"cold"` = empty).
        sync: &'static str,
    },
    /// The switch accepted a (re-)handshake and moved to a new session
    /// epoch, invalidating buffer-ids minted under the old one.
    EpochBump {
        /// Epoch the switch was serving before.
        from: u32,
        /// Epoch it serves now.
        to: u32,
        /// Buffered flows surviving the bump (to be re-announced).
        survivors: usize,
    },
    /// A buffer release referenced a slot admitted under a dead session
    /// epoch and was rejected.
    StaleEpochReject {
        /// Transaction id of the releasing message.
        xid: u32,
        /// Slot id the release referenced.
        buffer_id: u32,
        /// Epoch the release was minted under.
        epoch: u32,
        /// Epoch the buffer entry currently lives under.
        current: u32,
    },
}

/// One structured trace record: a virtual timestamp plus what happened.
///
/// Run identity (sweep cell, repetition, seed) is deliberately *not* stored
/// per event — it is constant within a run, and the exporters in
/// `sdnbuf-core` stamp it onto each line at export time instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Virtual time the event was emitted.
    pub at: Nanos,
    /// What happened.
    pub kind: EventKind,
}

/// Where the renderer's bytes go: a `String` for the exporters, a running
/// hash for digests. The renderer calls it with its own literals, static
/// labels and decimal digits only, so it never goes through `core::fmt`.
pub trait ByteSink {
    /// Appends `text` verbatim.
    fn text(&mut self, text: &str);

    /// Appends ASCII bytes (decimal digits) verbatim.
    fn ascii(&mut self, bytes: &[u8]);

    /// Appends one of the renderer's literals. The same bytes as
    /// `text(piece.text())`; a hashing sink folds them in one step instead
    /// ([`Piece::fold`]).
    #[inline]
    fn piece(&mut self, piece: &'static Piece) {
        self.text(piece.text());
    }
}

impl ByteSink for String {
    fn text(&mut self, text: &str) {
        self.push_str(text);
    }

    fn ascii(&mut self, bytes: &[u8]) {
        debug_assert!(bytes.is_ascii());
        self.extend(bytes.iter().map(|&b| char::from(b)));
    }
}

/// The renderer's literal `text`, as a `&'static Piece`: one table per use.
macro_rules! piece {
    ($text:expr) => {{
        static PIECE: Piece = Piece::new($text);
        &PIECE
    }};
}

/// `<open><name><close>` for each `name`: one table per name, shared by
/// every variant that has the field.
macro_rules! keys {
    ($open:literal, $close:literal: $($name:ident)*) => {$(
        pub(super) static $name: $crate::Piece =
            $crate::Piece::new(concat!($open, stringify!($name), $close));
    )*};
}

/// `,"<name>":`, the key of a number or a flag that follows another
/// number.
#[allow(non_upper_case_globals)]
mod key {
    keys!(",\"", "\":": arrive buffer_id buffered bytes current done drained effective_at);
    keys!(",\"", "\":": epoch fresh occupancy released survivors table_size to);
}

/// `,"<name>":"`, the key of a label with the label's opening quote.
#[allow(non_upper_case_globals)]
mod label_key {
    keys!(",\"", "\":\"": action label role sync);
}

/// `","<name>":`, the closing quote of a label with the key that follows
/// it.
#[allow(non_upper_case_globals)]
mod after_label {
    keys!("\",\"", "\":": arrive bytes occupancy);
}

/// `,"kind":"<kind>","<name>":` — the kind tag and the key of the
/// variant's first field, as one literal piece; `then` follows the key
/// (a label's opening quote, say).
macro_rules! kind {
    ($kind:literal, $name:literal) => {
        kind!($kind, $name, "")
    };
    ($kind:literal, $name:literal, $then:literal) => {
        piece!(concat!(",\"kind\":\"", $kind, "\",\"", $name, "\":", $then))
    };
}

/// A channel event's kind tag, its direction's label and the key of its
/// `xid`, as one piece per direction.
macro_rules! channel {
    ($kind:literal, $dir:expr) => {
        match $dir {
            ChannelDir::ToController => kind!($kind, "dir", "\"to_controller\",\"xid\":"),
            ChannelDir::ToSwitch => kind!($kind, "dir", "\"to_switch\",\"xid\":"),
        }
    };
}

/// The literal an event's last field leaves for the end of the rendering
/// to write, so that it folds with whatever closes the line: nothing
/// after a number, a label's closing quote, a flag's value.
#[derive(Clone, Copy)]
enum Tail {
    Number,
    Label,
    True,
    False,
}

/// What ends a rendering of bare fields, by [`Tail`]: the tail itself.
static FIELDS_END: [Piece; 4] = [
    Piece::new(""),
    Piece::new("\""),
    Piece::new("true"),
    Piece::new("false"),
];

/// What ends a JSON Lines line, by [`Tail`]: the tail, `}` and the
/// newline.
static LINE_END: [Piece; 4] = [
    Piece::new("}\n"),
    Piece::new("\"}\n"),
    Piece::new("true}\n"),
    Piece::new("false}\n"),
];

/// `"00"` to `"99"`: [`num`] spells two digits a step.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// `key` (a `"name":` piece) followed by `v` in decimal.
#[inline]
fn num<S: ByteSink + ?Sized>(out: &mut S, key: &'static Piece, v: u64) -> Tail {
    out.piece(key);
    // u64::MAX has 20 digits: ten pairs, filled from the least
    // significant end until the rest is zero. A leading pair below 10
    // spells a zero that is not written.
    let mut digits = [0u8; 20];
    let (mut start, mut rest) = (digits.len(), v);
    for slot in digits.rchunks_exact_mut(2) {
        let two = (rest % 100) as usize;
        slot[0] = DIGIT_PAIRS[2 * two];
        slot[1] = DIGIT_PAIRS[2 * two + 1];
        start -= 2;
        rest /= 100;
        if rest == 0 {
            start += usize::from(two < 10);
            break;
        }
    }
    out.ascii(&digits[start..]);
    Tail::Number
}

/// `key` (a `"name":"` piece, with the opening quote) followed by the
/// label. The closing quote is left to the piece that follows: an
/// [`after_label`] key, or the end ([`Tail::Label`]). Labels are
/// identifiers chosen in this workspace's source (link names, message
/// types), never input, so none needs escaping.
#[inline]
fn label<S: ByteSink + ?Sized>(out: &mut S, key: &'static Piece, v: &'static str) -> Tail {
    out.piece(key);
    out.text(v);
    Tail::Label
}

/// `key`; its value, `true` or `false`, is left to the end. Every flag is
/// its event's last field.
#[inline]
fn flag<S: ByteSink + ?Sized>(out: &mut S, key: &'static Piece, v: bool) -> Tail {
    out.piece(key);
    if v {
        Tail::True
    } else {
        Tail::False
    }
}

impl Event {
    /// Appends this event as a JSON fragment `"at":…,"kind":…,…` (no
    /// surrounding braces) with a stable field order, so renderings are
    /// byte-for-byte reproducible. Written by hand: the workspace has no
    /// serialization dependency. This and [`Event::write_json_line`] are
    /// the one renderer — JSONL lines, the timeline's `args`,
    /// flight-recorder dumps and stream digests all take their bytes here.
    pub fn write_json_fields<S: ByteSink + ?Sized>(&self, out: &mut S) {
        self.render(out, piece!("\"at\":"), &FIELDS_END);
    }

    /// Appends this event as a JSON Lines line, `{` + the fields of
    /// [`Event::write_json_fields`] + `}\n`, with the braces folded into
    /// the literals beside them: `{"at":` is one piece, and so is the
    /// last field's tail with `}\n`.
    pub fn write_json_line<S: ByteSink + ?Sized>(&self, out: &mut S) {
        self.render(out, piece!("{\"at\":"), &LINE_END);
    }

    /// `at` after `open`, the kind and its fields, then the end `ends`
    /// holds for the last field's [`Tail`].
    #[inline]
    fn render<S: ByteSink + ?Sized>(
        &self,
        out: &mut S,
        open: &'static Piece,
        ends: &'static [Piece; 4],
    ) {
        num(out, open, self.at.as_nanos());
        let tail = self.write_kind(out);
        out.piece(&ends[tail as usize]);
    }

    /// The kind tag and the fields, up to the last field's [`Tail`].
    #[inline]
    fn write_kind<S: ByteSink + ?Sized>(&self, out: &mut S) -> Tail {
        match self.kind {
            EventKind::LinkTx {
                link,
                bytes,
                arrive,
            } => {
                label(out, kind!("link_tx", "link", "\""), link);
                num(out, &after_label::bytes, bytes as u64);
                num(out, &key::arrive, arrive.as_nanos())
            }
            EventKind::LinkDrop { link, bytes } => {
                label(out, kind!("link_drop", "link", "\""), link);
                num(out, &after_label::bytes, bytes as u64)
            }
            EventKind::BusTransfer { bus, bytes, done } => {
                label(out, kind!("bus_transfer", "bus", "\""), bus);
                num(out, &after_label::bytes, bytes as u64);
                num(out, &key::done, done.as_nanos())
            }
            EventKind::TableMiss { in_port, bytes } => {
                num(out, kind!("table_miss", "in_port"), in_port.into());
                num(out, &key::bytes, bytes as u64)
            }
            EventKind::PacketInSent {
                xid,
                buffer_id,
                bytes,
            } => {
                num(out, kind!("packet_in_sent", "xid"), xid.into());
                num(out, &key::buffer_id, buffer_id.into());
                num(out, &key::bytes, bytes as u64)
            }
            EventKind::FlowRuleInstalled {
                xid,
                effective_at,
                table_size,
            } => {
                num(out, kind!("flow_rule_installed", "xid"), xid.into());
                num(out, &key::effective_at, effective_at.as_nanos());
                num(out, &key::table_size, table_size as u64)
            }
            EventKind::FlowRuleEvicted { table_size } => num(
                out,
                kind!("flow_rule_evicted", "table_size"),
                table_size as u64,
            ),
            EventKind::FlowRuleExpired { table_size } => num(
                out,
                kind!("flow_rule_expired", "table_size"),
                table_size as u64,
            ),
            EventKind::BufferEnqueue {
                buffer_id,
                occupancy,
                fresh,
            } => {
                num(out, kind!("buffer_enqueue", "buffer_id"), buffer_id.into());
                num(out, &key::occupancy, occupancy as u64);
                flag(out, &key::fresh, fresh)
            }
            EventKind::BufferDrain {
                xid,
                buffer_id,
                released,
                occupancy,
            } => {
                num(out, kind!("buffer_drain", "xid"), xid.into());
                num(out, &key::buffer_id, buffer_id.into());
                num(out, &key::released, released as u64);
                num(out, &key::occupancy, occupancy as u64)
            }
            EventKind::BufferRerequest {
                buffer_id,
                occupancy,
            } => {
                num(
                    out,
                    kind!("buffer_rerequest", "buffer_id"),
                    buffer_id.into(),
                );
                num(out, &key::occupancy, occupancy as u64)
            }
            EventKind::BufferReconcile {
                buffer_id,
                occupancy,
            } => {
                num(
                    out,
                    kind!("buffer_reconcile", "buffer_id"),
                    buffer_id.into(),
                );
                num(out, &key::occupancy, occupancy as u64)
            }
            EventKind::BufferFallback { occupancy } => {
                num(out, kind!("buffer_fallback", "occupancy"), occupancy as u64)
            }
            EventKind::BufferExpire {
                buffer_id,
                occupancy,
            } => {
                num(out, kind!("buffer_expire", "buffer_id"), buffer_id.into());
                num(out, &key::occupancy, occupancy as u64)
            }
            EventKind::BufferGiveUp {
                buffer_id,
                drained,
                action,
                occupancy,
            } => {
                num(out, kind!("buffer_give_up", "buffer_id"), buffer_id.into());
                num(out, &key::drained, drained as u64);
                label(out, &label_key::action, action);
                num(out, &after_label::occupancy, occupancy as u64)
            }
            EventKind::DegradedEnter { giveups } => {
                num(out, kind!("degraded_enter", "giveups"), giveups.into())
            }
            EventKind::DegradedExit { suppressed } => {
                num(out, kind!("degraded_exit", "suppressed"), suppressed)
            }
            EventKind::AdmissionShed {
                xid,
                bytes,
                buffered,
            } => {
                num(out, kind!("admission_shed", "xid"), xid.into());
                num(out, &key::bytes, bytes as u64);
                flag(out, &key::buffered, buffered)
            }
            EventKind::PacketInReceived {
                xid,
                bytes,
                buffered,
            } => {
                num(out, kind!("packet_in_received", "xid"), xid.into());
                num(out, &key::bytes, bytes as u64);
                flag(out, &key::buffered, buffered)
            }
            EventKind::Decision { xid, action } => {
                num(out, kind!("decision", "xid"), xid.into());
                label(out, &label_key::action, action)
            }
            EventKind::FlowModSent { xid } => num(out, kind!("flow_mod_sent", "xid"), xid.into()),
            EventKind::PacketOutSent { xid, buffer_id } => {
                num(out, kind!("packet_out_sent", "xid"), xid.into());
                num(out, &key::buffer_id, buffer_id.into())
            }
            EventKind::CtrlMsg {
                dir,
                xid,
                bytes,
                label: msg,
                arrive,
            } => {
                num(out, channel!("ctrl_msg", dir), xid.into());
                num(out, &key::bytes, bytes as u64);
                label(out, &label_key::label, msg);
                num(out, &after_label::arrive, arrive.as_nanos())
            }
            EventKind::CtrlDrop {
                dir,
                xid,
                bytes,
                label: msg,
            } => {
                num(out, channel!("ctrl_drop", dir), xid.into());
                num(out, &key::bytes, bytes as u64);
                label(out, &label_key::label, msg)
            }
            EventKind::CtrlCrash { epoch, role } => {
                num(out, kind!("ctrl_crash", "epoch"), epoch.into());
                label(out, &label_key::role, role)
            }
            EventKind::CtrlRestart { epoch, role } => {
                num(out, kind!("ctrl_restart", "epoch"), epoch.into());
                label(out, &label_key::role, role)
            }
            EventKind::FailoverTakeover { epoch, sync } => {
                num(out, kind!("failover_takeover", "epoch"), epoch.into());
                label(out, &label_key::sync, sync)
            }
            EventKind::EpochBump {
                from,
                to,
                survivors,
            } => {
                num(out, kind!("epoch_bump", "from"), from.into());
                num(out, &key::to, to.into());
                num(out, &key::survivors, survivors as u64)
            }
            EventKind::StaleEpochReject {
                xid,
                buffer_id,
                epoch,
                current,
            } => {
                num(out, kind!("stale_epoch_reject", "xid"), xid.into());
                num(out, &key::buffer_id, buffer_id.into());
                num(out, &key::epoch, epoch.into());
                num(out, &key::current, current.into())
            }
        }
    }

    /// This event as a standalone JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push('{');
        self.write_json_fields(&mut s);
        s.push('}');
        s
    }
}

#[doc(hidden)]
pub mod edges;

/// Receiver of structured events. Implementations decide what to keep.
pub trait EventSink {
    /// Accepts one event. Called synchronously from the simulation.
    fn emit(&mut self, event: Event);
}

/// A bounded in-memory buffer of events. Keeps the *first* `capacity`
/// events (chronological prefix) and counts the overflow, so a bounded
/// recording is still a deterministic function of the run.
#[derive(Clone, Debug, Default)]
pub struct RecordingSink {
    events: Vec<Event>,
    capacity: usize,
    dropped: u64,
}

impl RecordingSink {
    /// A sink keeping at most `capacity` events (0 means unbounded).
    pub fn new(capacity: usize) -> Self {
        RecordingSink {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// An unbounded sink.
    pub fn unbounded() -> Self {
        Self::new(0)
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Takes the recorded events, leaving the sink empty.
    pub fn take(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }

    /// Events discarded because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl EventSink for RecordingSink {
    fn emit(&mut self, event: Event) {
        if self.capacity != 0 && self.events.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.events.push(event);
    }
}

/// A cloneable handle to an optional shared [`EventSink`].
///
/// Components store one of these and call [`Tracer::emit`] at interesting
/// points. The default ([`Tracer::off`]) holds no sink: `emit` is then a
/// branch and nothing else. Handles are `Rc`-shared — the whole testbed,
/// including its tracer, lives on one worker thread; only the drained
/// `Vec<Event>` crosses threads.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Rc<RefCell<dyn EventSink>>>,
}

impl Tracer {
    /// The disabled tracer: `emit` does nothing and allocates nothing.
    pub fn off() -> Tracer {
        Tracer { sink: None }
    }

    /// A tracer forwarding to `sink`.
    pub fn new(sink: Rc<RefCell<dyn EventSink>>) -> Tracer {
        Tracer { sink: Some(sink) }
    }

    /// Convenience: a tracer backed by a fresh [`RecordingSink`] with the
    /// given capacity (0 = unbounded), returning both the handle to hand
    /// out and the shared sink to drain afterwards.
    pub fn recording(capacity: usize) -> (Tracer, Rc<RefCell<RecordingSink>>) {
        let sink = Rc::new(RefCell::new(RecordingSink::new(capacity)));
        let tracer = Tracer::new(sink.clone());
        (tracer, sink)
    }

    /// Whether events are being collected.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits one event if enabled; a no-op (one branch, zero allocations)
    /// otherwise.
    #[inline]
    pub fn emit(&self, at: Nanos, kind: EventKind) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().emit(Event { at, kind });
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::edges::*;
    use super::*;
    use crate::hash::{fnv1a, FNV_OFFSET};
    use crate::SimRng;
    use proptest::prelude::*;

    /// The renderer as it was while it went through `core::fmt`: one
    /// `write!` per variant. What [`Event::write_json_fields`] must still
    /// produce, byte for byte.
    fn reference_json_fields(e: &Event, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(out, "\"at\":{}", e.at.as_nanos());
        match e.kind {
            EventKind::LinkTx {
                link,
                bytes,
                arrive,
            } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"link_tx\",\"link\":\"{link}\",\"bytes\":{bytes},\"arrive\":{}",
                    arrive.as_nanos()
                );
            }
            EventKind::LinkDrop { link, bytes } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"link_drop\",\"link\":\"{link}\",\"bytes\":{bytes}"
                );
            }
            EventKind::BusTransfer { bus, bytes, done } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"bus_transfer\",\"bus\":\"{bus}\",\"bytes\":{bytes},\"done\":{}",
                    done.as_nanos()
                );
            }
            EventKind::TableMiss { in_port, bytes } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"table_miss\",\"in_port\":{in_port},\"bytes\":{bytes}"
                );
            }
            EventKind::PacketInSent {
                xid,
                buffer_id,
                bytes,
            } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"packet_in_sent\",\"xid\":{xid},\"buffer_id\":{buffer_id},\"bytes\":{bytes}"
                );
            }
            EventKind::FlowRuleInstalled {
                xid,
                effective_at,
                table_size,
            } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"flow_rule_installed\",\"xid\":{xid},\"effective_at\":{},\"table_size\":{table_size}",
                    effective_at.as_nanos()
                );
            }
            EventKind::FlowRuleEvicted { table_size } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"flow_rule_evicted\",\"table_size\":{table_size}"
                );
            }
            EventKind::FlowRuleExpired { table_size } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"flow_rule_expired\",\"table_size\":{table_size}"
                );
            }
            EventKind::BufferEnqueue {
                buffer_id,
                occupancy,
                fresh,
            } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"buffer_enqueue\",\"buffer_id\":{buffer_id},\"occupancy\":{occupancy},\"fresh\":{fresh}"
                );
            }
            EventKind::BufferDrain {
                xid,
                buffer_id,
                released,
                occupancy,
            } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"buffer_drain\",\"xid\":{xid},\"buffer_id\":{buffer_id},\"released\":{released},\"occupancy\":{occupancy}"
                );
            }
            EventKind::BufferRerequest {
                buffer_id,
                occupancy,
            } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"buffer_rerequest\",\"buffer_id\":{buffer_id},\"occupancy\":{occupancy}"
                );
            }
            EventKind::BufferReconcile {
                buffer_id,
                occupancy,
            } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"buffer_reconcile\",\"buffer_id\":{buffer_id},\"occupancy\":{occupancy}"
                );
            }
            EventKind::BufferFallback { occupancy } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"buffer_fallback\",\"occupancy\":{occupancy}"
                );
            }
            EventKind::BufferExpire {
                buffer_id,
                occupancy,
            } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"buffer_expire\",\"buffer_id\":{buffer_id},\"occupancy\":{occupancy}"
                );
            }
            EventKind::BufferGiveUp {
                buffer_id,
                drained,
                action,
                occupancy,
            } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"buffer_give_up\",\"buffer_id\":{buffer_id},\"drained\":{drained},\"action\":\"{action}\",\"occupancy\":{occupancy}"
                );
            }
            EventKind::DegradedEnter { giveups } => {
                let _ = write!(out, ",\"kind\":\"degraded_enter\",\"giveups\":{giveups}");
            }
            EventKind::DegradedExit { suppressed } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"degraded_exit\",\"suppressed\":{suppressed}"
                );
            }
            EventKind::AdmissionShed {
                xid,
                bytes,
                buffered,
            } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"admission_shed\",\"xid\":{xid},\"bytes\":{bytes},\"buffered\":{buffered}"
                );
            }
            EventKind::PacketInReceived {
                xid,
                bytes,
                buffered,
            } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"packet_in_received\",\"xid\":{xid},\"bytes\":{bytes},\"buffered\":{buffered}"
                );
            }
            EventKind::Decision { xid, action } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"decision\",\"xid\":{xid},\"action\":\"{action}\""
                );
            }
            EventKind::FlowModSent { xid } => {
                let _ = write!(out, ",\"kind\":\"flow_mod_sent\",\"xid\":{xid}");
            }
            EventKind::PacketOutSent { xid, buffer_id } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"packet_out_sent\",\"xid\":{xid},\"buffer_id\":{buffer_id}"
                );
            }
            EventKind::CtrlMsg {
                dir,
                xid,
                bytes,
                label,
                arrive,
            } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"ctrl_msg\",\"dir\":\"{}\",\"xid\":{xid},\"bytes\":{bytes},\"label\":\"{label}\",\"arrive\":{}",
                    dir.label(),
                    arrive.as_nanos()
                );
            }
            EventKind::CtrlDrop {
                dir,
                xid,
                bytes,
                label,
            } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"ctrl_drop\",\"dir\":\"{}\",\"xid\":{xid},\"bytes\":{bytes},\"label\":\"{label}\"",
                    dir.label()
                );
            }
            EventKind::CtrlCrash { epoch, role } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"ctrl_crash\",\"epoch\":{epoch},\"role\":\"{role}\""
                );
            }
            EventKind::CtrlRestart { epoch, role } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"ctrl_restart\",\"epoch\":{epoch},\"role\":\"{role}\""
                );
            }
            EventKind::FailoverTakeover { epoch, sync } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"failover_takeover\",\"epoch\":{epoch},\"sync\":\"{sync}\""
                );
            }
            EventKind::EpochBump {
                from,
                to,
                survivors,
            } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"epoch_bump\",\"from\":{from},\"to\":{to},\"survivors\":{survivors}"
                );
            }
            EventKind::StaleEpochReject {
                xid,
                buffer_id,
                epoch,
                current,
            } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"stale_epoch_reject\",\"xid\":{xid},\"buffer_id\":{buffer_id},\"epoch\":{epoch},\"current\":{current}"
                );
            }
        }
    }

    /// Renders `e` as fields, as an object and as a line, against the
    /// reference; `Err` carries the texts when they differ.
    fn against_reference(e: &Event) -> Result<(), String> {
        let mut expected = String::new();
        reference_json_fields(e, &mut expected);
        let mut got = String::new();
        e.write_json_fields(&mut got);
        let mut line = String::new();
        e.write_json_line(&mut line);
        if got == expected
            && e.to_json() == format!("{{{expected}}}")
            && line == format!("{{{expected}}}\n")
        {
            Ok(())
        } else {
            Err(format!(
                "{e:?}\n     got {got}\n    line {line:?}\nexpected {expected}"
            ))
        }
    }

    #[test]
    fn every_variant_renders_like_the_reference_at_the_edges() {
        for e in every_variant_at_the_edges() {
            against_reference(&e).unwrap();
        }
    }

    /// A sink hashing the way `sdnbuf-core`'s stream digest does: pieces
    /// by their tables, everything else through the byte loop.
    struct Folding(u64);

    impl ByteSink for Folding {
        fn text(&mut self, text: &str) {
            self.ascii(text.as_bytes());
        }

        fn ascii(&mut self, bytes: &[u8]) {
            self.0 = fnv1a(self.0, bytes);
        }

        fn piece(&mut self, piece: &'static Piece) {
            self.0 = piece.fold(self.0);
        }
    }

    #[test]
    fn folding_every_variant_is_the_byte_loop_over_its_text_from_every_low_byte() {
        let mut upper = SimRng::seed_from(23);
        let starts: Vec<u64> = (0..=0xFF)
            .map(|low| (upper.next_u64() & !0xFF) | low)
            .chain([0, FNV_OFFSET, u64::MAX])
            .collect();
        for e in every_variant_at_the_edges() {
            let mut text = String::new();
            e.write_json_fields(&mut text);
            for &start in &starts {
                let mut folding = Folding(start);
                e.write_json_fields(&mut folding);
                assert_eq!(
                    folding.0,
                    fnv1a(start, text.as_bytes()),
                    "{text} from {start:#x}"
                );
            }
        }
    }

    #[test]
    fn numbers_spell_as_fmt_with_every_digit_pair_leading_and_inside() {
        static NO_KEY: Piece = Piece::new("");
        let mut got = String::new();
        for v in (0..10_000).chain((0..10_000).map(|v| u64::MAX - v)) {
            got.clear();
            num(&mut got, &NO_KEY, v);
            assert_eq!(got, v.to_string());
        }
    }

    #[test]
    fn the_empty_piece_folds_as_the_identity() {
        static EMPTY: Piece = Piece::new("");
        for h in [0, 1, 0xFF, 0x100, FNV_OFFSET, u64::MAX] {
            assert_eq!(EMPTY.fold(h), h);
        }
        assert_eq!(EMPTY.text(), "");
    }

    /// Any value, weighted towards where a decimal spelling can go wrong
    /// (see [`edge_values`]).
    fn field_value() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            Just(u64::from(u32::MAX)),
            Just(u64::MAX),
            99u64..102,
            (1u32..20).prop_map(|k| 10u64.pow(k) - 1),
            (1u32..20).prop_map(|k| 10u64.pow(k)),
            0u64..100_000,
            any::<u64>(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        #[test]
        fn arbitrary_events_render_like_the_reference(
            variant in 0..VARIANTS,
            at in field_value(),
            v in (field_value(), field_value(), field_value(), field_value()),
            flag in any::<bool>(),
            dir in 0usize..2,
            label in 0usize..4,
        ) {
            let e = Event {
                at: Nanos::from_nanos(at),
                kind: kind_from(variant, [v.0, v.1, v.2, v.3], flag, DIRS[dir], LABELS[label]),
            };
            let rendered = against_reference(&e);
            prop_assert!(rendered.is_ok(), "{}", rendered.unwrap_err());
        }

        #[test]
        fn piece_fold_is_the_byte_loop(
            h in any::<u64>(),
            text in proptest::collection::vec(0u8..128, 0..65),
        ) {
            let text: &'static str = String::from_utf8(text).expect("ASCII").leak();
            let piece = Piece::new(text);
            prop_assert_eq!(piece.text(), text);
            prop_assert_eq!(piece.fold(h), fnv1a(h, text.as_bytes()));
        }
    }

    fn ev(ns: u64) -> Event {
        Event {
            at: Nanos::from_nanos(ns),
            kind: EventKind::TableMiss {
                in_port: 1,
                bytes: 1000,
            },
        }
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::off();
        assert!(!t.is_enabled());
        t.emit(
            Nanos::ZERO,
            EventKind::TableMiss {
                in_port: 1,
                bytes: 64,
            },
        );
    }

    #[test]
    fn recording_tracer_collects_in_order() {
        let (t, sink) = Tracer::recording(0);
        assert!(t.is_enabled());
        for i in 0..5 {
            t.emit(
                Nanos::from_nanos(i),
                EventKind::TableMiss {
                    in_port: i as u16,
                    bytes: 100,
                },
            );
        }
        let events = sink.borrow_mut().take();
        assert_eq!(events.len(), 5);
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn bounded_recording_keeps_prefix_and_counts_drops() {
        let mut sink = RecordingSink::new(3);
        for i in 0..10 {
            sink.emit(ev(i));
        }
        assert_eq!(sink.events().len(), 3);
        assert_eq!(sink.events()[0].at, Nanos::from_nanos(0));
        assert_eq!(sink.events()[2].at, Nanos::from_nanos(2));
        assert_eq!(sink.dropped(), 7);
    }

    #[test]
    fn clones_share_the_sink() {
        let (t, sink) = Tracer::recording(0);
        let t2 = t.clone();
        t.emit(Nanos::ZERO, EventKind::FlowModSent { xid: 1 });
        t2.emit(Nanos::ZERO, EventKind::FlowModSent { xid: 2 });
        assert_eq!(sink.borrow().events().len(), 2);
    }

    #[test]
    fn recovery_plane_json_field_order_is_stable() {
        let render = |kind| {
            Event {
                at: Nanos::from_nanos(1),
                kind,
            }
            .to_json()
        };
        assert_eq!(
            render(EventKind::BufferExpire {
                buffer_id: 4,
                occupancy: 2
            }),
            r#"{"at":1,"kind":"buffer_expire","buffer_id":4,"occupancy":2}"#
        );
        assert_eq!(
            render(EventKind::BufferGiveUp {
                buffer_id: 4,
                drained: 3,
                action: "drain",
                occupancy: 0
            }),
            r#"{"at":1,"kind":"buffer_give_up","buffer_id":4,"drained":3,"action":"drain","occupancy":0}"#
        );
        assert_eq!(
            render(EventKind::DegradedEnter { giveups: 5 }),
            r#"{"at":1,"kind":"degraded_enter","giveups":5}"#
        );
        assert_eq!(
            render(EventKind::DegradedExit { suppressed: 17 }),
            r#"{"at":1,"kind":"degraded_exit","suppressed":17}"#
        );
        assert_eq!(
            render(EventKind::AdmissionShed {
                xid: 9,
                bytes: 128,
                buffered: true
            }),
            r#"{"at":1,"kind":"admission_shed","xid":9,"bytes":128,"buffered":true}"#
        );
    }

    #[test]
    fn crash_plane_json_field_order_is_stable() {
        let render = |kind| {
            Event {
                at: Nanos::from_nanos(1),
                kind,
            }
            .to_json()
        };
        assert_eq!(
            render(EventKind::CtrlCrash {
                epoch: 1,
                role: "primary"
            }),
            r#"{"at":1,"kind":"ctrl_crash","epoch":1,"role":"primary"}"#
        );
        assert_eq!(
            render(EventKind::CtrlRestart {
                epoch: 2,
                role: "primary"
            }),
            r#"{"at":1,"kind":"ctrl_restart","epoch":2,"role":"primary"}"#
        );
        assert_eq!(
            render(EventKind::FailoverTakeover {
                epoch: 2,
                sync: "warm"
            }),
            r#"{"at":1,"kind":"failover_takeover","epoch":2,"sync":"warm"}"#
        );
        assert_eq!(
            render(EventKind::EpochBump {
                from: 1,
                to: 2,
                survivors: 3
            }),
            r#"{"at":1,"kind":"epoch_bump","from":1,"to":2,"survivors":3}"#
        );
        assert_eq!(
            render(EventKind::StaleEpochReject {
                xid: 7,
                buffer_id: 4,
                epoch: 1,
                current: 2
            }),
            r#"{"at":1,"kind":"stale_epoch_reject","xid":7,"buffer_id":4,"epoch":1,"current":2}"#
        );
    }

    #[test]
    fn json_field_order_is_stable() {
        let e = Event {
            at: Nanos::from_nanos(5),
            kind: EventKind::BufferDrain {
                xid: 3,
                buffer_id: 9,
                released: 2,
                occupancy: 4,
            },
        };
        assert_eq!(
            e.to_json(),
            r#"{"at":5,"kind":"buffer_drain","xid":3,"buffer_id":9,"released":2,"occupancy":4}"#
        );
    }
}
