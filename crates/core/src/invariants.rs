//! The protocol invariants of the buffer mechanisms, as one event sink.
//!
//! [`Invariants`] is built from what the run was configured with — the
//! buffer mechanism, the fault plan and the [`RecoveryKnobs`] — takes every
//! event of the run as it is emitted, and [`Invariants::finish`] holds the
//! run's [`RunResult`] to the end-of-run invariants; an empty result means
//! the run passed. [`check_invariants`] is the same fold over a recorded
//! stream. The chaos harness ([`crate::chaos`]), `sdnlab run --check`, the
//! flight recorder and the end-to-end proptests all attach this one type.
//!
//! The catalogue (the names are stable: tests and CI key on them). Of
//! Algorithms 1–2 and the buffer's bookkeeping:
//! * **occupancy-bound** — the buffer never holds more than its capacity.
//! * **buffer-bookkeeping** — a `packet_out`, an expiry or a give-up never
//!   releases more packets from a `buffer_id` than were filed under it (no
//!   double-free, no leak of slots to foreign flows).
//! * **single-request-per-flow** — the `packet_in`s naming a buffer id are
//!   its fresh allocations + timeout re-requests + reconciliation
//!   re-announces: at most one outstanding request per flow (Algorithm 1).
//! * **rerequest-before-timeout** — consecutive requests for the same id
//!   are separated by at least the flow mechanism's timeout.
//! * **rerequest-accounting** / **reconcile-accounting** — the run's
//!   re-request and reconciliation counters match the stream.
//! * **packet-conservation** — every sent packet is delivered, dropped on a
//!   data link, still buffered (stranded), or carried inside a destroyed
//!   full-packet control message; and no more packets are delivered than
//!   sent, unless a full packet crossed a duplicating channel.
//! * **eventual-delivery** / **buffer-id-leak** — flow granularity with
//!   control-channel faults only (no flaps, no pressure, no crashes) and
//!   neutral recovery knobs delivers everything and fully drains its
//!   buffer. This is the invariant that catches a broken re-request loop.
//!
//! The recovery plane:
//! * **no-stale-drain** — a `packet_out` never drains packets from a slot
//!   that expiry, give-up or an earlier drain already emptied; generation
//!   tags must reject such stale releases.
//! * **retry-budget** — with a finite budget, no slot is re-requested more
//!   than `budget` times between fresh allocations.
//! * **buffer-expiry** — with a TTL armed, no entry survives the run
//!   stranded in the buffer. This is the invariant that catches a broken
//!   TTL garbage collector.
//! * **degraded-recovery** — a switch still degraded at the end of the run
//!   has seen no controller progress (a `flow_mod` installed or a buffer
//!   drained) since it last entered degraded mode.
//!
//! The crash plane:
//! * **epoch-monotonicity** — the switch's session epoch only ever steps up
//!   by one, from the epoch it was serving.
//! * **handshake-before-service** — every epoch bump's target epoch was
//!   announced by a controller restart or a failover takeover first.
//! * **no-cross-epoch-drain** — a `packet_out` minted under epoch N never
//!   drains a buffer entry admitted under epoch M < N. Entries surviving a
//!   bump count as migrated only when the bump re-tagged all of them
//!   (`survivors` equals the checker's live count) — the epoch-guard
//!   sabotage re-tags none, which is otherwise observationally identical.
//! * **crash-recovery-drain** — eventual-delivery's runs with crash windows
//!   added end with an empty buffer: reconciliation re-announces every
//!   survivor, so a crash may shed (accounted) packets but never strand them.

use crate::{BufferMode, RunResult};
use sdnbuf_openflow::BufferId;
use sdnbuf_sim::faults::fmt_dur;
use sdnbuf_sim::{
    ChannelDir, Event, EventKind, EventSink, FastHashMap, FastHashSet, FaultPlan, Nanos,
};
use sdnbuf_switchbuf::RetryPolicy;
use std::fmt;

/// The recovery-plane knobs a run configures on its switch: the re-request
/// retry policy, the per-entry buffer TTL and the degraded-mode threshold.
/// Default knobs reproduce the pre-recovery behaviour exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RecoveryKnobs {
    /// Re-request pacing and budget ([`RetryPolicy::Fixed`] by default).
    pub retry: RetryPolicy,
    /// Per-entry buffer TTL; [`Nanos::ZERO`] disables expiry.
    pub ttl: Nanos,
    /// Consecutive give-ups tripping degraded mode; `0` disables it.
    pub degraded_threshold: u32,
}

/// One invariant violation; `Display` writes `[<invariant>]: <detail>`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Short stable invariant name (test assertions key on it).
    pub invariant: &'static str,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]: {}", self.invariant, self.detail)
    }
}

/// [`Invariants`] folded over a recorded stream, then finished with the
/// run's measurements.
pub fn check_invariants(
    mech: BufferMode,
    plan: &FaultPlan,
    knobs: RecoveryKnobs,
    result: &RunResult,
    events: &[Event],
) -> Vec<Violation> {
    let mut checker = Invariants::new(mech, plan, knobs);
    for e in events {
        checker.observe(e);
    }
    checker.finish(result)
}

/// What the checker remembers about one buffer id. An id it has not seen
/// yet reads as the default record: nothing held, every count zero.
#[derive(Clone, Copy, Debug, Default)]
struct IdRecord {
    /// Packets filed under the id and not yet drained, expired or given up.
    held: i64,
    /// Fresh allocations + timeout re-requests + reconciliation
    /// re-announces: the `packet_in`s the id is entitled to.
    announces: u64,
    /// `packet_in`s that named the id.
    pkt_ins: u64,
    /// When the live entry last asked the controller.
    last_request: Option<Nanos>,
    /// Re-requests since the last fresh allocation or give-up.
    retry_streak: u32,
    /// Session epoch the live entry was admitted (or migrated) under.
    admitted_epoch: Option<u32>,
}

impl IdRecord {
    /// An emptied slot forgets its request clock and its admission epoch.
    fn vacate_if_empty(&mut self) {
        if self.held <= 0 {
            self.last_request = None;
            self.admitted_epoch = None;
        }
    }
}

/// The invariants of the [module catalogue](self), checked as the stream
/// goes by: [`Invariants::observe`] (or [`EventSink::emit`]) takes every
/// event in emission order, [`Invariants::finish`] the run's measurements.
pub struct Invariants {
    mech: BufferMode,
    capacity: usize,
    timeout: Option<Nanos>,
    knobs: RecoveryKnobs,
    // What the end-of-run invariants ask of the fault plan.
    dup_possible: bool,
    disturbs_data: bool,
    has_crashes: bool,
    violations: Vec<Violation>,
    ids: FastHashMap<u32, IdRecord>,
    /// The latest `packet_in` / `packet_out` of an xid that carried the
    /// full packet (the no-buffer sentinel), keyed by the direction it
    /// travels: dropping one of these destroys packet data.
    full_packet_msgs: FastHashSet<(ChannelDir, u32)>,
    rerequests: u64,
    reconciles: u64,
    lost_ctrl: u64,
    degraded_enters: u64,
    degraded_exits: u64,
    progress_since_enter: bool,
    // Crash-plane state: the switch's current epoch and the epochs
    // announced by controller restarts/takeovers.
    switch_epoch: u32,
    announced_epochs: Vec<u32>,
}

impl Invariants {
    /// A checker for a run of `mech` under `plan` with `knobs` on its
    /// switch. It copies what it needs of `plan`, so it can outlive it.
    pub fn new(mech: BufferMode, plan: &FaultPlan, knobs: RecoveryKnobs) -> Invariants {
        let (capacity, timeout) = match mech {
            BufferMode::NoBuffer => (usize::MAX, None),
            BufferMode::PacketGranularity { capacity } => (capacity, None),
            BufferMode::FlowGranularity { capacity, timeout } => (capacity, Some(timeout)),
        };
        Invariants {
            mech,
            capacity,
            timeout,
            knobs,
            dup_possible: plan.to_controller.duplicate > 0.0 || plan.to_switch.duplicate > 0.0,
            disturbs_data: plan.disturbs_data(),
            has_crashes: plan.has_crashes(),
            violations: Vec::new(),
            ids: FastHashMap::default(),
            full_packet_msgs: FastHashSet::default(),
            rerequests: 0,
            reconciles: 0,
            lost_ctrl: 0,
            degraded_enters: 0,
            degraded_exits: 0,
            progress_since_enter: false,
            switch_epoch: 1,
            announced_epochs: Vec::new(),
        }
    }

    fn fail(&mut self, invariant: &'static str, detail: String) {
        self.violations.push(Violation { invariant, detail });
    }

    /// Records whether the message `xid` names in direction `dir` carries
    /// the full packet; a reused xid takes the latest message's answer.
    fn note_carrier(&mut self, dir: ChannelDir, xid: u32, buffer_id: u32) {
        if buffer_id == BufferId::NO_BUFFER.as_u32() {
            self.full_packet_msgs.insert((dir, xid));
        } else {
            self.full_packet_msgs.remove(&(dir, xid));
        }
    }

    /// Holds one event, in emission order, to the stream invariants.
    pub fn observe(&mut self, e: &Event) {
        let switch_epoch = self.switch_epoch;
        match e.kind {
            EventKind::BufferEnqueue {
                buffer_id,
                occupancy,
                fresh,
            } => {
                if occupancy > self.capacity {
                    let detail = format!(
                        "occupancy {occupancy} exceeds capacity {} at {}",
                        self.capacity,
                        fmt_dur(e.at)
                    );
                    self.fail("occupancy-bound", detail);
                }
                let rec = self.ids.entry(buffer_id).or_default();
                rec.held += 1;
                if fresh {
                    rec.announces += 1;
                    rec.last_request = Some(e.at);
                    rec.retry_streak = 0;
                    rec.admitted_epoch = Some(switch_epoch);
                } else {
                    rec.admitted_epoch.get_or_insert(switch_epoch);
                }
            }
            EventKind::BufferRerequest { buffer_id, .. } => {
                self.rerequests += 1;
                let rec = self.ids.entry(buffer_id).or_default();
                rec.announces += 1;
                rec.retry_streak += 1;
                let (streak, prev) = (rec.retry_streak, rec.last_request);
                rec.last_request = Some(e.at);
                let budget = self.knobs.retry.budget();
                if budget > 0 && streak > budget {
                    self.fail(
                        "retry-budget",
                        format!(
                            "buffer {buffer_id} re-requested {streak} times against a budget of \
                             {budget}"
                        ),
                    );
                }
                if let (Some(timeout), Some(prev)) = (self.timeout, prev) {
                    if e.at < prev + timeout {
                        self.fail(
                            "rerequest-before-timeout",
                            format!(
                                "buffer {buffer_id} re-requested after {} < timeout {}",
                                fmt_dur(e.at - prev),
                                fmt_dur(timeout)
                            ),
                        );
                    }
                }
            }
            EventKind::BufferReconcile { buffer_id, .. } => {
                // A reconciliation re-announce is an extra legitimate
                // `packet_in` for the slot; it does not touch the retry
                // budget or the timeout clock.
                self.reconciles += 1;
                self.ids.entry(buffer_id).or_default().announces += 1;
            }
            EventKind::BufferDrain {
                buffer_id,
                released,
                ..
            } => {
                self.progress_since_enter = true;
                let rec = self.ids.entry(buffer_id).or_default();
                let (admitted, held) = (rec.admitted_epoch, rec.held);
                rec.held -= released as i64;
                rec.vacate_if_empty();
                if let Some(admitted) = admitted {
                    if admitted < switch_epoch && released > 0 {
                        self.fail(
                            "no-cross-epoch-drain",
                            format!(
                                "buffer {buffer_id} admitted under epoch {admitted} drained \
                                 while the switch serves epoch {switch_epoch}"
                            ),
                        );
                    }
                }
                if held <= 0 && released > 0 {
                    self.fail(
                        "no-stale-drain",
                        format!(
                            "buffer {buffer_id} drained {released} packets from an already \
                             emptied slot (stale release let through)"
                        ),
                    );
                } else if (released as i64) > held {
                    self.fail(
                        "buffer-bookkeeping",
                        format!("buffer {buffer_id} released {released} packets but held {held}"),
                    );
                }
            }
            EventKind::BufferExpire { buffer_id, .. } => {
                let rec = self.ids.entry(buffer_id).or_default();
                let held = rec.held;
                rec.held -= 1;
                rec.vacate_if_empty();
                if held <= 0 {
                    self.fail(
                        "buffer-bookkeeping",
                        format!("buffer {buffer_id} expired a packet from an empty slot"),
                    );
                }
            }
            EventKind::BufferGiveUp {
                buffer_id, drained, ..
            } => {
                let rec = self.ids.entry(buffer_id).or_default();
                let held = rec.held;
                rec.held -= drained as i64;
                rec.last_request = None;
                rec.retry_streak = 0;
                rec.admitted_epoch = None;
                if (drained as i64) > held {
                    self.fail(
                        "buffer-bookkeeping",
                        format!("buffer {buffer_id} gave up {drained} packets but held {held}"),
                    );
                }
            }
            EventKind::CtrlRestart { epoch, .. } | EventKind::FailoverTakeover { epoch, .. } => {
                self.announced_epochs.push(epoch);
            }
            EventKind::EpochBump {
                from,
                to,
                survivors,
            } => {
                if from != switch_epoch || to != from + 1 {
                    self.fail(
                        "epoch-monotonicity",
                        format!(
                            "epoch bump {from} -> {to} while the switch served epoch \
                             {switch_epoch} (epochs must step up by exactly one)"
                        ),
                    );
                }
                if !self.announced_epochs.contains(&to) {
                    self.fail(
                        "handshake-before-service",
                        format!(
                            "switch moved to epoch {to} without a controller restart or \
                             takeover announcing it (no re-handshake happened)"
                        ),
                    );
                }
                // Migrate surviving entries only when the bump re-tagged
                // every live one — the broken-epoch sabotage re-tags none,
                // and this count mismatch is what exposes it.
                if survivors == self.ids.values().filter(|rec| rec.held > 0).count() {
                    for rec in self.ids.values_mut().filter(|rec| rec.held > 0) {
                        rec.admitted_epoch = Some(to);
                    }
                }
                self.switch_epoch = to;
            }
            EventKind::FlowRuleInstalled { .. } => {
                self.progress_since_enter = true;
            }
            EventKind::DegradedEnter { .. } => {
                self.degraded_enters += 1;
                self.progress_since_enter = false;
            }
            EventKind::DegradedExit { .. } => {
                self.degraded_exits += 1;
            }
            // Shedding an unbuffered request destroys the packet data it
            // carried; a buffered one leaves the data at the switch.
            EventKind::AdmissionShed {
                buffered: false, ..
            } => {
                self.lost_ctrl += 1;
            }
            EventKind::PacketInSent { xid, buffer_id, .. } => {
                self.note_carrier(ChannelDir::ToController, xid, buffer_id);
                if buffer_id != BufferId::NO_BUFFER.as_u32() {
                    self.ids.entry(buffer_id).or_default().pkt_ins += 1;
                }
            }
            EventKind::PacketOutSent { xid, buffer_id } => {
                self.note_carrier(ChannelDir::ToSwitch, xid, buffer_id);
            }
            EventKind::CtrlDrop {
                dir, xid, label, ..
            } => {
                // A dropped control message destroys packet data only when
                // it carried the full packet (the no-buffer sentinel);
                // buffered flows keep their data at the switch.
                let data_bearing = matches!(
                    (dir, label),
                    (ChannelDir::ToController, "packet_in") | (ChannelDir::ToSwitch, "packet_out")
                );
                if data_bearing && self.full_packet_msgs.contains(&(dir, xid)) {
                    self.lost_ctrl += 1;
                }
            }
            _ => {}
        }
    }

    /// The end-of-run invariants over `result`; returns every violation
    /// found, stream order first, and leaves the checker without any.
    pub fn finish(&mut self, result: &RunResult) -> Vec<Violation> {
        let (mech, knobs) = (self.mech, self.knobs);
        let (sent, delivered) = (result.packets_sent, result.packets_delivered);
        let stranded: i64 = self.ids.values().map(|r| r.held).filter(|&h| h > 0).sum();

        // In id order, so a report does not depend on the table's layout.
        let mut miscounted: Vec<(u32, u64, u64)> = self
            .ids
            .iter()
            .map(|(&id, r)| (id, r.pkt_ins, r.announces))
            .filter(|&(_, n, expected)| n > 0 && n != expected)
            .collect();
        miscounted.sort_unstable();
        for (id, n, expected) in miscounted {
            self.fail(
                "single-request-per-flow",
                format!(
                    "buffer {id}: {n} packet_ins for {expected} allocations + re-requests + \
                     reconciles"
                ),
            );
        }

        if result.rerequests != self.rerequests {
            let detail = format!(
                "stats counted {} re-requests, trace shows {}",
                result.rerequests, self.rerequests
            );
            self.fail("rerequest-accounting", detail);
        }

        if result.reconcile_rerequests != self.reconciles {
            let detail = format!(
                "stats counted {} reconciliation re-announces, trace shows {}",
                result.reconcile_rerequests, self.reconciles
            );
            self.fail("reconcile-accounting", detail);
        }

        // `lost_ctrl` can overcount (a duplicate of a dropped message may
        // still arrive), so conservation is an inequality — a real leak
        // makes the left side fall short of `sent`.
        let lost_ctrl = self.lost_ctrl;
        let accounted = delivered + result.packets_dropped + stranded as u64 + lost_ctrl;
        if accounted < sent {
            self.fail(
                "packet-conservation",
                format!(
                    "sent {sent} but only {accounted} accounted for (delivered {delivered} + \
                     data-dropped {} + stranded {stranded} + lost-in-control {lost_ctrl})",
                    result.packets_dropped
                ),
            );
        }

        // A duplicated full-packet control message can legitimately deliver
        // the same packet twice, so the upper bound is exempt when a full
        // packet may have crossed a duplicating channel.
        let full_packets_in_ctrl = mech == BufferMode::NoBuffer || result.buffer_fallbacks > 0;
        if !(self.dup_possible && full_packets_in_ctrl) && delivered > sent {
            self.fail(
                "packet-conservation",
                format!("delivered {delivered} exceeds sent {sent}"),
            );
        }

        if knobs.ttl != Nanos::ZERO && stranded > 0 {
            let detail = format!(
                "{stranded} packets outlived the {} TTL stranded in the buffer",
                fmt_dur(knobs.ttl)
            );
            self.fail("buffer-expiry", detail);
        }

        let (enters, exits) = (self.degraded_enters, self.degraded_exits);
        if enters > exits && self.progress_since_enter {
            self.fail(
                "degraded-recovery",
                format!(
                    "switch still degraded after the run ({enters} entries, {exits} exits) \
                     despite controller progress since the last entry"
                ),
            );
        }

        // Both drain guarantees hold for flow granularity (the mechanism that
        // re-requests) under faults that spare the data path, and only with
        // recovery neutral: TTL expiry, a finite retry budget and
        // degraded-mode shedding each trade delivery for boundedness.
        let recovery_neutral =
            knobs.ttl == Nanos::ZERO && knobs.retry.budget() == 0 && knobs.degraded_threshold == 0;
        let flow_gran = matches!(mech, BufferMode::FlowGranularity { .. });
        let drain_armed = flow_gran && !self.disturbs_data && recovery_neutral;

        // The delivery guarantee. A crash legitimately sheds fresh misses
        // while the switch suspects the controller dead (accounted as
        // drops), so crash runs get the drain guarantee below instead.
        if drain_armed && !self.has_crashes {
            if delivered < sent {
                self.fail(
                    "eventual-delivery",
                    format!(
                        "flow granularity delivered only {delivered} of {sent} packets under \
                         a control-channel-only fault plan"
                    ),
                );
            }
            if stranded > 0 {
                let live_ids = self.ids.values().filter(|r| r.held > 0).count();
                self.fail(
                    "buffer-id-leak",
                    format!(
                        "{stranded} packets still buffered across {live_ids} ids after the run"
                    ),
                );
            }
        }

        // The crash-drain guarantee: post-restart reconciliation must
        // re-announce every surviving entry, so the run may shed packets
        // (accounted drops) but the buffer drains completely.
        if drain_armed && self.has_crashes && stranded > 0 {
            self.fail(
                "crash-recovery-drain",
                format!(
                    "{stranded} packets stranded in the buffer after a crash — reconciliation \
                     failed to re-announce them"
                ),
            );
        }

        std::mem::take(&mut self.violations)
    }
}

impl EventSink for Invariants {
    fn emit(&mut self, event: Event) {
        self.observe(&event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{execute, recovery_matrix, Sabotage};
    use crate::RunSpec;
    use sdnbuf_sim::{SimRng, Window};
    use std::collections::HashMap;

    /// `check_invariants` as it stood before the streaming checker: ten
    /// maps filled in one walk over the recorded slice. Kept as the
    /// executable statement of what the checker must still report.
    fn reference_check(
        mech: BufferMode,
        plan: &FaultPlan,
        knobs: RecoveryKnobs,
        result: &RunResult,
        events: &[Event],
    ) -> Vec<Violation> {
        let mut violations = Vec::new();
        let no_buffer = BufferId::NO_BUFFER.as_u32();
        let (capacity, timeout) = match mech {
            BufferMode::NoBuffer => (usize::MAX, None),
            BufferMode::PacketGranularity { capacity } => (capacity, None),
            BufferMode::FlowGranularity { capacity, timeout } => (capacity, Some(timeout)),
        };

        let mut outstanding: HashMap<u32, i64> = HashMap::new();
        let mut fresh_allocs: HashMap<u32, u64> = HashMap::new();
        let mut rerequests: HashMap<u32, u64> = HashMap::new();
        let mut reconciles: HashMap<u32, u64> = HashMap::new();
        let mut pkt_ins: HashMap<u32, u64> = HashMap::new();
        let mut last_request: HashMap<u32, Nanos> = HashMap::new();
        let mut retry_streak: HashMap<u32, u32> = HashMap::new();
        let mut pkt_in_buffer: HashMap<u32, u32> = HashMap::new();
        let mut pkt_out_buffer: HashMap<u32, u32> = HashMap::new();
        let mut lost_ctrl: u64 = 0;
        let mut degraded_enters: u64 = 0;
        let mut degraded_exits: u64 = 0;
        let mut progress_since_enter = false;
        // Crash-plane state: the switch's current epoch, the epochs announced
        // by controller restarts/takeovers, and each live buffer id's
        // admission epoch.
        let mut switch_epoch: u32 = 1;
        let mut announced_epochs: Vec<u32> = Vec::new();
        let mut entry_epoch: HashMap<u32, u32> = HashMap::new();

        for e in events {
            match e.kind {
                EventKind::BufferEnqueue {
                    buffer_id,
                    occupancy,
                    fresh,
                } => {
                    if occupancy > capacity {
                        violations.push(Violation {
                            invariant: "occupancy-bound",
                            detail: format!(
                                "occupancy {occupancy} exceeds capacity {capacity} at {}",
                                fmt_dur(e.at)
                            ),
                        });
                    }
                    *outstanding.entry(buffer_id).or_insert(0) += 1;
                    if fresh {
                        *fresh_allocs.entry(buffer_id).or_insert(0) += 1;
                        last_request.insert(buffer_id, e.at);
                        retry_streak.insert(buffer_id, 0);
                        entry_epoch.insert(buffer_id, switch_epoch);
                    } else {
                        entry_epoch.entry(buffer_id).or_insert(switch_epoch);
                    }
                }
                EventKind::BufferRerequest { buffer_id, .. } => {
                    *rerequests.entry(buffer_id).or_insert(0) += 1;
                    let streak = retry_streak.entry(buffer_id).or_insert(0);
                    *streak += 1;
                    if knobs.retry.budget() > 0 && *streak > knobs.retry.budget() {
                        violations.push(Violation {
                            invariant: "retry-budget",
                            detail: format!(
                                "buffer {buffer_id} re-requested {streak} times against a budget of {}",
                                knobs.retry.budget()
                            ),
                        });
                    }
                    if let (Some(timeout), Some(&prev)) = (timeout, last_request.get(&buffer_id)) {
                        if e.at < prev + timeout {
                            violations.push(Violation {
                                invariant: "rerequest-before-timeout",
                                detail: format!(
                                    "buffer {buffer_id} re-requested after {} < timeout {}",
                                    fmt_dur(e.at - prev),
                                    fmt_dur(timeout)
                                ),
                            });
                        }
                    }
                    last_request.insert(buffer_id, e.at);
                }
                EventKind::BufferReconcile { buffer_id, .. } => {
                    // A reconciliation re-announce is an extra legitimate
                    // `packet_in` for the slot; it does not touch the retry
                    // budget or the timeout clock.
                    *reconciles.entry(buffer_id).or_insert(0) += 1;
                }
                EventKind::BufferDrain {
                    buffer_id,
                    released,
                    ..
                } => {
                    progress_since_enter = true;
                    if let Some(&admitted) = entry_epoch.get(&buffer_id) {
                        if admitted < switch_epoch && released > 0 {
                            violations.push(Violation {
                                invariant: "no-cross-epoch-drain",
                                detail: format!(
                                    "buffer {buffer_id} admitted under epoch {admitted} drained \
                                     while the switch serves epoch {switch_epoch}"
                                ),
                            });
                        }
                    }
                    let held = outstanding.entry(buffer_id).or_insert(0);
                    if *held <= 0 && released > 0 {
                        violations.push(Violation {
                            invariant: "no-stale-drain",
                            detail: format!(
                                "buffer {buffer_id} drained {released} packets from an already \
                                 emptied slot (stale release let through)"
                            ),
                        });
                    } else if (released as i64) > *held {
                        violations.push(Violation {
                            invariant: "buffer-bookkeeping",
                            detail: format!(
                                "buffer {buffer_id} released {released} packets but held {held}"
                            ),
                        });
                    }
                    *held -= released as i64;
                    if *held <= 0 {
                        last_request.remove(&buffer_id);
                        entry_epoch.remove(&buffer_id);
                    }
                }
                EventKind::BufferExpire { buffer_id, .. } => {
                    let held = outstanding.entry(buffer_id).or_insert(0);
                    if *held <= 0 {
                        violations.push(Violation {
                            invariant: "buffer-bookkeeping",
                            detail: format!(
                                "buffer {buffer_id} expired a packet from an empty slot"
                            ),
                        });
                    }
                    *held -= 1;
                    if *held <= 0 {
                        last_request.remove(&buffer_id);
                        entry_epoch.remove(&buffer_id);
                    }
                }
                EventKind::BufferGiveUp {
                    buffer_id, drained, ..
                } => {
                    let held = outstanding.entry(buffer_id).or_insert(0);
                    if (drained as i64) > *held {
                        violations.push(Violation {
                            invariant: "buffer-bookkeeping",
                            detail: format!(
                                "buffer {buffer_id} gave up {drained} packets but held {held}"
                            ),
                        });
                    }
                    *held -= drained as i64;
                    last_request.remove(&buffer_id);
                    retry_streak.remove(&buffer_id);
                    entry_epoch.remove(&buffer_id);
                }
                EventKind::CtrlRestart { epoch, .. }
                | EventKind::FailoverTakeover { epoch, .. } => {
                    announced_epochs.push(epoch);
                }
                EventKind::EpochBump {
                    from,
                    to,
                    survivors,
                } => {
                    if from != switch_epoch || to != from + 1 {
                        violations.push(Violation {
                            invariant: "epoch-monotonicity",
                            detail: format!(
                                "epoch bump {from} -> {to} while the switch served epoch \
                                 {switch_epoch} (epochs must step up by exactly one)"
                            ),
                        });
                    }
                    if !announced_epochs.contains(&to) {
                        violations.push(Violation {
                            invariant: "handshake-before-service",
                            detail: format!(
                                "switch moved to epoch {to} without a controller restart or \
                                 takeover announcing it (no re-handshake happened)"
                            ),
                        });
                    }
                    // Migrate surviving entries only when the bump re-tagged
                    // every live one — the broken-epoch sabotage re-tags none,
                    // and this count mismatch is what exposes it.
                    let live: Vec<u32> = outstanding
                        .iter()
                        .filter(|&(_, &held)| held > 0)
                        .map(|(&id, _)| id)
                        .collect();
                    if survivors == live.len() {
                        for id in live {
                            entry_epoch.insert(id, to);
                        }
                    }
                    switch_epoch = to;
                }
                EventKind::FlowRuleInstalled { .. } => {
                    progress_since_enter = true;
                }
                EventKind::DegradedEnter { .. } => {
                    degraded_enters += 1;
                    progress_since_enter = false;
                }
                EventKind::DegradedExit { .. } => {
                    degraded_exits += 1;
                }
                // Shedding an unbuffered request destroys the packet data it
                // carried; a buffered one leaves the data at the switch.
                EventKind::AdmissionShed {
                    buffered: false, ..
                } => {
                    lost_ctrl += 1;
                }
                EventKind::PacketInSent { xid, buffer_id, .. } => {
                    pkt_in_buffer.insert(xid, buffer_id);
                    if buffer_id != no_buffer {
                        *pkt_ins.entry(buffer_id).or_insert(0) += 1;
                    }
                }
                EventKind::PacketOutSent { xid, buffer_id } => {
                    pkt_out_buffer.insert(xid, buffer_id);
                }
                EventKind::CtrlDrop {
                    dir, xid, label, ..
                } => {
                    // A dropped control message destroys packet data only when
                    // it carried the full packet (the no-buffer sentinel);
                    // buffered flows keep their data at the switch.
                    let carried_data = match (dir, label) {
                        (ChannelDir::ToController, "packet_in") => {
                            pkt_in_buffer.get(&xid) == Some(&no_buffer)
                        }
                        (ChannelDir::ToSwitch, "packet_out") => {
                            pkt_out_buffer.get(&xid) == Some(&no_buffer)
                        }
                        _ => false,
                    };
                    if carried_data {
                        lost_ctrl += 1;
                    }
                }
                _ => {}
            }
        }

        // The parent walked `pkt_ins` in SipHash order, a different one each
        // process; sorted here so that reports compare.
        let mut by_id: Vec<(&u32, &u64)> = pkt_ins.iter().collect();
        by_id.sort_unstable();
        for (id, &n) in by_id {
            let expected = fresh_allocs.get(id).copied().unwrap_or(0)
                + rerequests.get(id).copied().unwrap_or(0)
                + reconciles.get(id).copied().unwrap_or(0);
            if n != expected {
                violations.push(Violation {
                    invariant: "single-request-per-flow",
                    detail: format!(
                        "buffer {id}: {n} packet_ins for {expected} allocations + re-requests + \
                         reconciles"
                    ),
                });
            }
        }

        let rerequest_total: u64 = rerequests.values().sum();
        if result.rerequests != rerequest_total {
            violations.push(Violation {
                invariant: "rerequest-accounting",
                detail: format!(
                    "stats counted {} re-requests, trace shows {rerequest_total}",
                    result.rerequests
                ),
            });
        }
        let reconcile_total: u64 = reconciles.values().sum();
        if result.reconcile_rerequests != reconcile_total {
            violations.push(Violation {
                invariant: "reconcile-accounting",
                detail: format!(
                    "stats counted {} reconciliation re-announces, trace shows {reconcile_total}",
                    result.reconcile_rerequests
                ),
            });
        }

        let stranded: i64 = outstanding.values().filter(|&&v| v > 0).sum();

        // `lost_ctrl` can overcount (a duplicate of a dropped message may still
        // arrive), so conservation is an inequality — a real leak makes the
        // left side fall short of `sent`.
        let accounted =
            result.packets_delivered + result.packets_dropped + stranded as u64 + lost_ctrl;
        if accounted < result.packets_sent {
            violations.push(Violation {
                invariant: "packet-conservation",
                detail: format!(
                    "sent {} but only {accounted} accounted for (delivered {} + data-dropped {} \
                     + stranded {stranded} + lost-in-control {lost_ctrl})",
                    result.packets_sent, result.packets_delivered, result.packets_dropped
                ),
            });
        }

        // A duplicated full-packet control message can legitimately deliver the
        // same packet twice, so the upper bound only holds when no full packet
        // crossed a duplicating channel.
        let dup_possible = plan.to_controller.duplicate > 0.0 || plan.to_switch.duplicate > 0.0;
        let full_packets_in_ctrl = mech == BufferMode::NoBuffer || result.buffer_fallbacks > 0;
        if result.packets_delivered > result.packets_sent && !(dup_possible && full_packets_in_ctrl)
        {
            violations.push(Violation {
                invariant: "packet-conservation",
                detail: format!(
                    "delivered {} exceeds sent {}",
                    result.packets_delivered, result.packets_sent
                ),
            });
        }

        if knobs.ttl != Nanos::ZERO && stranded > 0 {
            violations.push(Violation {
                invariant: "buffer-expiry",
                detail: format!(
                    "{stranded} packets outlived the {} TTL stranded in the buffer",
                    fmt_dur(knobs.ttl)
                ),
            });
        }

        if degraded_enters > degraded_exits && progress_since_enter {
            violations.push(Violation {
                invariant: "degraded-recovery",
                detail: format!(
                    "switch still degraded after the run ({degraded_enters} entries, \
                     {degraded_exits} exits) despite controller progress since the last entry"
                ),
            });
        }

        // TTL expiry, a finite retry budget and degraded-mode shedding each
        // deliberately trade delivery for boundedness, so the delivery
        // guarantee only holds with all three disarmed.
        let recovery_neutral =
            knobs.ttl == Nanos::ZERO && knobs.retry.budget() == 0 && knobs.degraded_threshold == 0;
        // A crash legitimately sheds fresh misses while the switch suspects
        // the controller dead (accounted as drops), so the full delivery
        // guarantee is replaced by crash-recovery-drain below.
        let guarantees_delivery = matches!(mech, BufferMode::FlowGranularity { .. })
            && !plan.disturbs_data()
            && recovery_neutral
            && !plan.has_crashes();
        if guarantees_delivery {
            if result.packets_delivered < result.packets_sent {
                violations.push(Violation {
                    invariant: "eventual-delivery",
                    detail: format!(
                        "flow granularity delivered only {} of {} packets under a \
                         control-channel-only fault plan",
                        result.packets_delivered, result.packets_sent
                    ),
                });
            }
            if stranded > 0 {
                violations.push(Violation {
                    invariant: "buffer-id-leak",
                    detail: format!(
                        "{stranded} packets still buffered across {} ids after the run",
                        outstanding.values().filter(|&&v| v > 0).count()
                    ),
                });
            }
        }

        // Across a crash, post-restart reconciliation must re-announce every
        // surviving entry: the run may shed packets (accounted drops) but the
        // buffer drains completely.
        let crash_guarantees_drain = matches!(mech, BufferMode::FlowGranularity { .. })
            && plan.has_crashes()
            && !plan.disturbs_data()
            && recovery_neutral;
        if crash_guarantees_drain && stranded > 0 {
            violations.push(Violation {
                invariant: "crash-recovery-drain",
                detail: format!(
                    "{stranded} packets stranded in the buffer after a crash — \
                     reconciliation failed to re-announce them"
                ),
            });
        }

        violations
    }

    /// Every sabotage the self-tests use, plus none.
    fn sabotages() -> [Sabotage; 4] {
        [
            Sabotage::none(),
            Sabotage::no_rerequest(),
            Sabotage::no_ttl_gc(),
            Sabotage::no_epoch_guard(),
        ]
    }

    #[test]
    fn streaming_checker_reports_what_the_ten_map_walk_reported() {
        let mechs = [
            BufferMode::NoBuffer,
            BufferMode::PacketGranularity { capacity: 256 },
            // Small enough to overflow into full-packet fallbacks.
            BufferMode::PacketGranularity { capacity: 4 },
            BufferMode::FlowGranularity {
                capacity: 256,
                timeout: Nanos::from_millis(20),
            },
        ];
        let mut scenarios: Vec<RunSpec> = recovery_matrix().into_iter().map(|c| c.1).collect();
        // A stall that outlasts the retry budget: the switch gives flows up,
        // degrades, and leaves degraded mode when the controller answers.
        let stalled = RunSpec {
            mech: mechs[3],
            plan: FaultPlan {
                seed: 5,
                stalls: vec![Window::new(Nanos::from_millis(45), Nanos::from_millis(160))],
                ..FaultPlan::default()
            },
            recovery: RecoveryKnobs {
                retry: RetryPolicy::backoff(Nanos::from_millis(40), 1),
                ttl: Nanos::ZERO,
                degraded_threshold: 2,
            },
            ..scenarios[0].clone()
        };
        scenarios.push(stalled);
        for seed in 0..40 {
            for mech in mechs {
                scenarios.push(RunSpec::generate(seed, mech));
                scenarios.push(RunSpec::generate_with_crashes(seed, mech));
            }
        }
        // Knobs and a mechanism the runs did not have, so that the budget,
        // TTL, capacity and timeout branches report on intact streams too.
        let strict = RecoveryKnobs {
            retry: RetryPolicy::backoff(Nanos::from_millis(100), 1),
            ttl: Nanos::from_millis(1),
            degraded_threshold: 1,
        };
        let cramped = BufferMode::FlowGranularity {
            capacity: 2,
            timeout: Nanos::from_secs(1),
        };
        let mut seen: Vec<&'static str> = Vec::new();
        let mut compare = |s: &RunSpec, mech, knobs, result: &RunResult, events: &[Event]| {
            let render = |vs: Vec<Violation>| -> Vec<String> {
                vs.iter().map(Violation::to_string).collect()
            };
            let got = check_invariants(mech, &s.plan, knobs, result, events);
            seen.extend(got.iter().map(|v| v.invariant));
            let expected = reference_check(mech, &s.plan, knobs, result, events);
            assert_eq!(render(got), render(expected), "{s}");
        };
        let mut rng = SimRng::seed_from(16);
        for scenario in &scenarios {
            for sabotage in sabotages() {
                let (result, events) = execute(scenario, sabotage);
                compare(scenario, scenario.mech, scenario.recovery, &result, &events);
                compare(scenario, cramped, strict, &result, &events);
                if sabotage != Sabotage::none() || events.is_empty() {
                    continue;
                }
                // Streams no run produces — an event lost, one repeated, the
                // counters off by one — reach the bookkeeping, accounting
                // and epoch-order branches.
                for _ in 0..4 {
                    let at = rng.gen_range(events.len() as u64) as usize;
                    let mut lost = events.clone();
                    lost.remove(at);
                    compare(scenario, scenario.mech, scenario.recovery, &result, &lost);
                    let mut repeated = events.clone();
                    repeated.insert(at, events[at]);
                    compare(scenario, scenario.mech, strict, &result, &repeated);
                }
                let last_exit = events
                    .iter()
                    .rposition(|e| matches!(e.kind, EventKind::DegradedExit { .. }));
                if let Some(at) = last_exit {
                    let mut stuck = events.clone();
                    stuck.remove(at);
                    compare(scenario, scenario.mech, scenario.recovery, &result, &stuck);
                }
                let miscounted = RunResult {
                    rerequests: result.rerequests + 1,
                    reconcile_rerequests: result.reconcile_rerequests + 1,
                    packets_sent: result.packets_sent + 1,
                    ..result.clone()
                };
                compare(
                    scenario,
                    scenario.mech,
                    scenario.recovery,
                    &miscounted,
                    &events,
                );
            }
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(
            seen,
            [
                "buffer-bookkeeping",
                "buffer-expiry",
                "buffer-id-leak",
                "crash-recovery-drain",
                "degraded-recovery",
                "epoch-monotonicity",
                "eventual-delivery",
                "handshake-before-service",
                "no-cross-epoch-drain",
                "no-stale-drain",
                "occupancy-bound",
                "packet-conservation",
                "reconcile-accounting",
                "rerequest-accounting",
                "rerequest-before-timeout",
                "retry-budget",
                "single-request-per-flow",
            ],
            "every invariant must have been reported at least once"
        );
    }
}
