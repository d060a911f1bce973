//! The size-limited flow table.

use crate::FlowRule;
use sdnbuf_net::MacAddr;
use sdnbuf_openflow::{msg::FlowRemovedReason, Match, MatchView};
use sdnbuf_sim::{FxHasher, Nanos};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::hash::Hasher;

/// What the table does when an insert arrives while full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Reject the new rule (the switch would return an `OFPET_FLOW_MOD_FAILED`
    /// error).
    #[default]
    RejectNew,
    /// Evict the least-recently-hit rule to make room — the behaviour the
    /// paper's Section VI.B TCP-eviction scenario relies on.
    EvictLru,
}

/// Outcome of [`FlowTable::insert`].
#[derive(Clone, Debug, PartialEq)]
pub enum InsertOutcome {
    /// The rule was added to a free slot.
    Installed,
    /// A rule with the same match and priority was overwritten.
    Replaced,
    /// The table was full; this rule was evicted to make room.
    Evicted(
        /// The victim.
        FlowRule,
    ),
    /// The table was full and the policy rejects new rules.
    Rejected,
}

/// A rule removed by expiry or deletion, with the reason — the payload a
/// `flow_removed` message is built from.
#[derive(Clone, Debug, PartialEq)]
pub struct RemovedRule {
    /// The removed rule (with final statistics).
    pub rule: FlowRule,
    /// Why it was removed.
    pub reason: FlowRemovedReason,
}

/// A size-limited, priority-ordered flow table.
///
/// Lookup returns the highest-priority matching rule (ties broken by
/// insertion order, matching Open vSwitch). The capacity limit plus the
/// eviction policy produce the "rule kicked out of a size-limited table"
/// behaviour the paper discusses for TCP flows.
///
/// # Example
///
/// ```
/// use sdnbuf_flowtable::{EvictionPolicy, FlowRule, FlowTable, InsertOutcome};
/// use sdnbuf_openflow::Match;
/// use sdnbuf_sim::Nanos;
///
/// let mut t = FlowTable::with_eviction(1, EvictionPolicy::EvictLru);
/// t.insert(Nanos::ZERO, FlowRule::new(Match::any(), 1));
/// // Table is full; the next insert evicts the LRU rule.
/// let outcome = t.insert(Nanos::from_secs(1), FlowRule::new(Match::any(), 2));
/// assert!(matches!(outcome, InsertOutcome::Evicted(_)));
/// assert_eq!(t.len(), 1);
/// ```
///
/// `FlowTable::default()` holds no rule and has room for none: it is the
/// shell [`FlowTable::reset`] sizes, and it rejects every insert until then.
#[derive(Clone, Debug, Default)]
pub struct FlowTable {
    capacity: usize,
    policy: EvictionPolicy,
    /// Rule storage in insertion order. Removal leaves a tombstone
    /// (`None`) so the index positions of every other rule stay valid —
    /// expiry storms would otherwise force a full index rebuild per
    /// sweep. Tombstones are compacted away once they outnumber live
    /// rules (amortized O(1) per removal); compaction preserves relative
    /// order, so position comparisons keep encoding insertion order.
    rules: Vec<Option<FlowRule>>,
    /// Number of live (non-tombstone) rules.
    live: usize,
    /// Position in `rules` of the first exact-match rule per concrete
    /// field tuple. An exact rule matches a packet iff the packet's
    /// [`MatchView`] equals the rule's — so lookup is one hash probe
    /// instead of a scan. Single-slot on purpose: a second exact rule
    /// with the same fields (different priority) is legal but rare, and
    /// goes to `exact_dups` instead of allocating per-key buckets.
    exact: ExactIndex,
    /// Exact rules whose field tuple already had an index entry; scanned
    /// like `wild` and empty in practice. Unordered.
    exact_dups: Vec<usize>,
    /// Indices into `rules` of rules with at least one wildcarded field,
    /// unordered. These still need a matches() scan, but reactive tables
    /// hold at most a handful (table-miss, ARP, flow-key rules).
    wild: Vec<usize>,
    /// Expiry index: a lazy min-heap of `(deadline lower bound, position)`.
    /// Every live rule with a timeout has an entry at or below its true
    /// deadline, and after every `&mut self` call the top entry is live
    /// and exact — so `next_expiry` is a peek. Entries left behind by
    /// hits (deadline moved later), replacements and removals are
    /// corrected or discarded when they surface.
    deadlines: BinaryHeap<Reverse<(Nanos, usize)>>,
    /// Scratch for `expire`: positions falling due in the current sweep.
    due: Vec<usize>,
    lookups: u64,
    hits: u64,
}

/// The moment `rule` expires if it is not hit again.
fn deadline(rule: &FlowRule) -> Option<Nanos> {
    rule.expiry_deadline(rule.installed_at.max(rule.last_hit))
}

/// The concrete field tuple of an exact-match rule — the packet view it
/// (and only it) matches.
fn exact_key(m: &Match) -> MatchView {
    MatchView {
        in_port: m.in_port,
        dl_src: m.dl_src,
        dl_dst: m.dl_dst,
        dl_type: m.dl_type,
        nw_src: u32::from(m.nw_src),
        nw_dst: u32::from(m.nw_dst),
        nw_tos: m.nw_tos,
        nw_proto: m.nw_proto,
        tp_src: m.tp_src,
        tp_dst: m.tp_dst,
    }
}

/// 32 bits of an Fx hash of `key` packed into four words. The derived
/// `Hash` would feed each `MacAddr` to the hasher as a byte slice; the
/// index is probed by key and never iterated, so no outcome depends on
/// which hash it uses.
fn key_hash(key: &MatchView) -> u32 {
    let mac = |m: MacAddr| {
        let [a, b, c, d, e, f] = m.octets();
        u64::from_le_bytes([a, b, c, d, e, f, 0, 0])
    };
    let mut h = FxHasher::default();
    h.write_u64(mac(key.dl_src) | u64::from(key.in_port.0) << 48);
    h.write_u64(mac(key.dl_dst) | u64::from(key.dl_type) << 48);
    h.write_u64(u64::from(key.nw_src) | u64::from(key.nw_dst) << 32);
    h.write_u64(
        u64::from(key.nw_tos)
            | u64::from(key.nw_proto) << 8
            | u64::from(key.tp_src) << 16
            | u64::from(key.tp_dst) << 32,
    );
    // The multiply leaves its best-mixed bits at the top.
    (h.finish() >> 32) as u32
}

/// One slot of [`ExactIndex`]: a rule position and its key's hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Slot {
    /// Position in `rules`, or [`Slot::EMPTY`]'s.
    pos: u32,
    /// [`key_hash`] of the rule's key; its low bits pick the home slot.
    hash: u32,
}

impl Slot {
    /// No rule: positions stay below `2 × MAX_CAPACITY + 9`, far from
    /// `u32::MAX`.
    const EMPTY: Slot = Slot {
        pos: u32::MAX,
        hash: 0,
    };

    fn is_empty(self) -> bool {
        self.pos == Slot::EMPTY.pos
    }
}

/// The exact-match index: an open-addressed table of rule positions,
/// linear probing at load ≤ ½, deletion by backward shift (no tombstones
/// of its own). A slot keeps its key's hash beside the position, so a
/// probe reads a rule — to compare the key — only when the hashes agree:
/// a miss reads none, short of a 32-bit hash collision.
#[derive(Clone, Debug, Default)]
struct ExactIndex {
    /// Empty, or a power of two at least twice `len`.
    slots: Vec<Slot>,
    /// Occupied slots.
    len: usize,
}

impl ExactIndex {
    /// Slots of the first table built.
    const MIN_SLOTS: usize = 8;

    /// Empties the index, keeping its slots.
    fn clear(&mut self) {
        self.slots.fill(Slot::EMPTY);
        self.len = 0;
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// The position of the exact rule in `rules` whose key is `key`.
    fn get(&self, key: &MatchView, rules: &[Option<FlowRule>]) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let hash = key_hash(key);
        let mut i = hash as usize & self.mask();
        loop {
            let slot = self.slots[i];
            if slot.is_empty() {
                return None;
            }
            if slot.hash == hash {
                let pos = slot.pos as usize;
                let rule = rules[pos].as_ref().expect("indexed slot is live");
                if exact_key(&rule.match_fields) == *key {
                    return Some(pos);
                }
            }
            i = (i + 1) & self.mask();
        }
    }

    /// Indexes the rule at `pos` under `key`, which has no entry yet.
    fn insert(&mut self, key: &MatchView, pos: usize) {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        self.place(Slot {
            pos: pos as u32,
            hash: key_hash(key),
        });
        self.len += 1;
    }

    /// Puts `slot` at the first free slot from its home.
    fn place(&mut self, slot: Slot) {
        let mut i = slot.hash as usize & self.mask();
        while !self.slots[i].is_empty() {
            i = (i + 1) & self.mask();
        }
        self.slots[i] = slot;
    }

    /// Doubles the slots and re-places every entry by its stored hash,
    /// reading no rule.
    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(ExactIndex::MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![Slot::EMPTY; size]);
        for slot in old.into_iter().filter(|s| !s.is_empty()) {
            self.place(slot);
        }
    }

    /// The slot holding position `pos`, whose key is `key`, if `pos` is
    /// `key`'s entry. Compares positions only.
    fn slot_of(&self, key: &MatchView, pos: usize) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mut i = key_hash(key) as usize & self.mask();
        while !self.slots[i].is_empty() {
            if self.slots[i].pos as usize == pos {
                return Some(i);
            }
            i = (i + 1) & self.mask();
        }
        None
    }

    /// Points the entry in slot `i` at `pos`, a rule with the same key.
    fn repoint(&mut self, i: usize, pos: usize) {
        self.slots[i].pos = pos as u32;
    }

    /// Empties slot `i` and shifts the rest of its cluster back over it,
    /// so that every entry stays reachable from its home without a gap.
    fn remove(&mut self, i: usize) {
        let mask = self.mask();
        let mut hole = i;
        let mut j = (i + 1) & mask;
        while !self.slots[j].is_empty() {
            // An entry may fill the hole if the hole lies between its home
            // and where it sits, counting around the end of the slots.
            let home = self.slots[j].hash as usize & mask;
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
            j = (j + 1) & mask;
        }
        self.slots[hole] = Slot::EMPTY;
        self.len -= 1;
    }
}

impl FlowTable {
    /// The largest capacity a table takes. A rule's position, tombstones
    /// included, stays below `2 × capacity + 9`, and the exact index
    /// holds positions in 4 bytes.
    pub const MAX_CAPACITY: usize = (u32::MAX / 4) as usize;

    /// Creates an empty table holding at most `capacity` rules, rejecting
    /// inserts when full.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or above [`FlowTable::MAX_CAPACITY`].
    pub fn new(capacity: usize) -> FlowTable {
        FlowTable::with_eviction(capacity, EvictionPolicy::RejectNew)
    }

    /// Creates an empty table with an explicit eviction policy.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or above [`FlowTable::MAX_CAPACITY`].
    pub fn with_eviction(capacity: usize, policy: EvictionPolicy) -> FlowTable {
        assert!(capacity > 0, "flow table capacity must be positive");
        assert!(
            capacity <= FlowTable::MAX_CAPACITY,
            "flow table capacity {capacity} is above the {} its index addresses",
            FlowTable::MAX_CAPACITY
        );
        FlowTable {
            capacity,
            policy,
            rules: Vec::new(),
            live: 0,
            exact: ExactIndex::default(),
            exact_dups: Vec::new(),
            wild: Vec::new(),
            deadlines: BinaryHeap::new(),
            due: Vec::new(),
            lookups: 0,
            hits: 0,
        }
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Maximum number of rules.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `true` when at capacity.
    pub fn is_full(&self) -> bool {
        self.live >= self.capacity
    }

    /// Total lookups performed.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Lookups that found a matching rule.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Empties the table into the one [`FlowTable::with_eviction`] builds
    /// from `capacity` and `policy`, keeping the storage of its rules and
    /// its lookup and expiry indexes: no rule, deadline or lookup counter
    /// carries over. The exact index is probed by key only, never
    /// iterated, so its larger capacity changes no outcome.
    ///
    /// # Panics
    ///
    /// As [`FlowTable::with_eviction`] does.
    pub fn reset(&mut self, capacity: usize, policy: EvictionPolicy) {
        let FlowTable {
            mut rules,
            mut exact,
            mut exact_dups,
            mut wild,
            mut deadlines,
            mut due,
            ..
        } = std::mem::take(self);
        rules.clear();
        exact.clear();
        exact_dups.clear();
        wild.clear();
        deadlines.clear();
        due.clear();
        *self = FlowTable {
            rules,
            exact,
            exact_dups,
            wild,
            deadlines,
            due,
            ..FlowTable::with_eviction(capacity, policy)
        };
    }

    /// Iterates over installed rules in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &FlowRule> {
        self.rules.iter().flatten()
    }

    /// Installs `rule` at time `now`.
    ///
    /// A rule with an identical match and priority is replaced in place
    /// (standard `OFPFC_ADD` overlap semantics). When the table is full the
    /// eviction policy decides between rejecting and evicting the
    /// least-recently-active rule.
    pub fn insert(&mut self, now: Nanos, mut rule: FlowRule) -> InsertOutcome {
        rule.installed_at = now;
        rule.last_hit = now;
        // Identical wildcards are part of Match equality, so a duplicate of
        // an exact rule can only live in its exact bucket and a duplicate
        // of a wildcard rule only in the wild list.
        let duplicate = if rule.match_fields.is_exact() {
            self.exact
                .get(&exact_key(&rule.match_fields), &self.rules)
                .into_iter()
                .chain(self.exact_dups.iter().copied())
                .find(|&i| {
                    let r = self.rule(i);
                    r.match_fields == rule.match_fields && r.priority == rule.priority
                })
        } else {
            self.wild.iter().copied().find(|&i| {
                let r = self.rule(i);
                r.match_fields == rule.match_fields && r.priority == rule.priority
            })
        };
        if let Some(i) = duplicate {
            let existing = self.rules[i].as_mut().expect("indexed slot is live");
            // Re-adding an identical rule must not make it stop matching
            // while the new install is processed: keep the earlier effect
            // time (OVS treats the duplicate as a modify of the live rule).
            rule.installed_at = existing.installed_at.min(rule.installed_at);
            let old = deadline(existing);
            *existing = rule;
            // The new timeouts may fall due earlier than any entry the
            // old rule left in the expiry index.
            if old.is_none() || deadline(existing) < old {
                self.push_deadline(i);
            }
            self.settle_deadlines();
            return InsertOutcome::Replaced;
        }
        if self.is_full() {
            match self.policy {
                EvictionPolicy::RejectNew => return InsertOutcome::Rejected,
                EvictionPolicy::EvictLru => {
                    let victim_idx = self
                        .rules
                        .iter()
                        .enumerate()
                        .filter_map(|(i, r)| r.as_ref().map(|r| (i, r.last_hit)))
                        .min_by_key(|&(_, hit)| hit)
                        .map(|(i, _)| i)
                        .expect("full table is non-empty");
                    let victim = self.remove_at(victim_idx);
                    self.rules.push(Some(rule));
                    let idx = self.rules.len() - 1;
                    self.live += 1;
                    self.index_rule(idx);
                    self.maybe_compact();
                    self.settle_deadlines();
                    return InsertOutcome::Evicted(victim);
                }
            }
        }
        self.rules.push(Some(rule));
        let idx = self.rules.len() - 1;
        self.live += 1;
        self.index_rule(idx);
        InsertOutcome::Installed
    }

    /// The live rule at `idx`. Only called with indices held by the
    /// lookup index, which never point at tombstones.
    fn rule(&self, idx: usize) -> &FlowRule {
        self.rules[idx].as_ref().expect("indexed slot is live")
    }

    /// Tombstones the rule at `idx` and removes its index entry in O(1)
    /// (plus a scan of the small dup/wildcard side lists).
    fn remove_at(&mut self, idx: usize) -> FlowRule {
        let rule = self.rules[idx].take().expect("removing a live rule");
        self.live -= 1;
        if rule.match_fields.is_exact() {
            let key = exact_key(&rule.match_fields);
            if let Some(slot) = self.exact.slot_of(&key, idx) {
                // Promote a same-key duplicate into the primary slot, if
                // one exists; otherwise clear the entry.
                match self
                    .exact_dups
                    .iter()
                    .position(|&d| exact_key(&self.rule(d).match_fields) == key)
                {
                    Some(j) => {
                        let d = self.exact_dups.swap_remove(j);
                        self.exact.repoint(slot, d);
                    }
                    None => self.exact.remove(slot),
                }
            } else {
                let j = self
                    .exact_dups
                    .iter()
                    .position(|&d| d == idx)
                    .expect("exact rule is indexed");
                self.exact_dups.swap_remove(j);
            }
        } else {
            let j = self
                .wild
                .iter()
                .position(|&w| w == idx)
                .expect("wildcard rule is indexed");
            self.wild.swap_remove(j);
        }
        rule
    }

    /// Compacts tombstones away once they outnumber live rules, keeping
    /// iteration O(live) amortized. Relative order (and thus insertion-
    /// order tie-breaking) is preserved.
    fn maybe_compact(&mut self) {
        let dead = self.rules.len() - self.live;
        if dead > self.live && dead > 8 {
            self.rules.retain(Option::is_some);
            self.rebuild_index();
        }
    }

    /// Classifies the rule at `idx` into the lookup index and enters its
    /// deadline into the expiry index.
    fn index_rule(&mut self, idx: usize) {
        self.push_deadline(idx);
        if self.rule(idx).match_fields.is_exact() {
            let key = exact_key(&self.rule(idx).match_fields);
            match self.exact.get(&key, &self.rules) {
                None => self.exact.insert(&key, idx),
                Some(_) => self.exact_dups.push(idx),
            }
        } else {
            self.wild.push(idx);
        }
    }

    /// Recomputes the exact/wildcard and expiry indexes from scratch
    /// after a compaction shifts positions. All slots are live at that
    /// point.
    fn rebuild_index(&mut self) {
        self.exact.clear();
        self.exact_dups.clear();
        self.wild.clear();
        self.deadlines.clear();
        for i in 0..self.rules.len() {
            self.index_rule(i);
        }
    }

    /// Enters the current deadline of the live rule at `idx` into the
    /// expiry index. A rule whose deadline keeps moving backwards would
    /// pile up superseded entries; once they outnumber the slots two to
    /// one the heap is rebuilt from the rules instead.
    fn push_deadline(&mut self, idx: usize) {
        let Some(at) = deadline(self.rule(idx)) else {
            return;
        };
        if self.deadlines.len() < 2 * self.rules.len() + 8 {
            self.deadlines.push(Reverse((at, idx)));
        } else {
            self.deadlines.clear();
            let live = self.rules.iter().enumerate();
            self.deadlines
                .extend(live.filter_map(|(i, r)| Some(Reverse((deadline(r.as_ref()?)?, i)))));
        }
    }

    /// Restores the expiry index's invariant — the top entry belongs to a
    /// live rule and equals its deadline — by moving entries a hit or
    /// replacement overtook down to the rule's deadline and discarding
    /// those of removed rules.
    fn settle_deadlines(&mut self) {
        while let Some(mut top) = self.deadlines.peek_mut() {
            let Reverse((at, idx)) = *top;
            match self.rules[idx].as_ref().and_then(deadline) {
                Some(actual) if actual > at => *top = Reverse((actual, idx)),
                Some(_) => break,
                None => {
                    PeekMut::pop(top);
                }
            }
        }
    }

    /// Looks up the best rule for a packet **and** updates that rule's hit
    /// statistics — the datapath's per-packet operation.
    ///
    /// Rules whose installation completes in the future (`installed_at >
    /// now`) do not match yet: this reproduces the paper's `t_e` semantics,
    /// where packets arriving before a `flow_mod` takes effect still miss
    /// and trigger further requests.
    pub fn match_packet(
        &mut self,
        now: Nanos,
        view: &MatchView,
        packet_bytes: usize,
    ) -> Option<&FlowRule> {
        self.lookups += 1;
        let best = self.best_index(now, view)?;
        self.hits += 1;
        let rule = self.rules[best].as_mut().expect("indexed slot is live");
        // A hit before a replaced rule's future effect time moves
        // `last_hit`, and with it the deadline, backwards.
        let moved_back = now < rule.last_hit;
        rule.last_hit = now;
        rule.packet_count += 1;
        rule.byte_count += packet_bytes as u64;
        if moved_back {
            self.push_deadline(best);
        } else if matches!(self.deadlines.peek(), Some(&Reverse((_, top))) if top == best) {
            // Later deadlines are left to surface on their own; only the
            // top entry has to stay exact.
            self.settle_deadlines();
        }
        Some(self.rule(best))
    }

    /// Looks up without touching statistics (for inspection and tests),
    /// ignoring rule effect times.
    pub fn peek(&self, view: &MatchView) -> Option<&FlowRule> {
        self.best_index(Nanos::MAX, view).map(|i| self.rule(i))
    }

    /// The winning rule for `view`: highest priority among matches, ties
    /// broken by insertion order (smallest index). Exact candidates come
    /// from one hash probe; only wildcard rules are scanned.
    fn best_index(&self, now: Nanos, view: &MatchView) -> Option<usize> {
        let exact = self.exact.get(view, &self.rules);
        let mut best: Option<usize> = None;
        for i in exact
            .into_iter()
            .chain(self.wild.iter().copied())
            .chain(self.exact_dups.iter().copied())
        {
            let rule = self.rule(i);
            if rule.installed_at > now || !rule.match_fields.matches(view) {
                continue;
            }
            best = match best {
                None => Some(i),
                Some(b) => {
                    let (bp, rp) = (self.rule(b).priority, rule.priority);
                    // Equivalent to the old full scan's "first rule with
                    // the maximum priority", regardless of visit order.
                    if rp > bp || (rp == bp && i < b) {
                        Some(i)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        best
    }

    /// Removes every rule whose idle or hard timeout has elapsed at `now`
    /// and pushes them onto `removed`, in insertion order, with the
    /// applicable reason. `removed` is the caller's: what it already holds
    /// stays, and a caller that keeps it across sweeps pays for its storage
    /// once.
    pub fn expire_into(&mut self, now: Nanos, removed: &mut Vec<RemovedRule>) {
        let mut due = std::mem::take(&mut self.due);
        // The top entry is exact, so nothing is due unless it is.
        while let Some(&Reverse((at, idx))) = self.deadlines.peek() {
            if at > now {
                break;
            }
            self.deadlines.pop();
            due.push(idx);
            self.settle_deadlines();
        }
        // Position order is insertion order, the order the linear sweep
        // reported; a rule can have left more than one entry.
        due.sort_unstable();
        due.dedup();
        let any_due = !due.is_empty();
        removed.reserve(due.len());
        for idx in due.drain(..) {
            let r = self.rule(idx);
            let reason = if r.hard_timeout != Nanos::ZERO && now >= r.installed_at + r.hard_timeout
            {
                FlowRemovedReason::HardTimeout
            } else {
                FlowRemovedReason::IdleTimeout
            };
            let rule = self.remove_at(idx);
            removed.push(RemovedRule { rule, reason });
        }
        self.due = due;
        if any_due {
            self.maybe_compact();
            self.settle_deadlines();
        }
    }

    /// [`FlowTable::expire_into`] a fresh `Vec`.
    pub fn expire(&mut self, now: Nanos) -> Vec<RemovedRule> {
        let mut removed = Vec::new();
        self.expire_into(now, &mut removed);
        removed
    }

    /// The earliest moment any installed rule can expire, for scheduling the
    /// next expiry sweep. `None` when no rule has a timeout.
    pub fn next_expiry(&self) -> Option<Nanos> {
        self.deadlines.peek().map(|&Reverse((at, _))| at)
    }

    /// Deletes rules matching `pattern` (`OFPFC_DELETE` semantics: a rule is
    /// deleted when `pattern` is equal to or more general than its match).
    /// With `strict`, only an exact match+priority match deletes.
    pub fn delete(&mut self, pattern: &Match, priority: u16, strict: bool) -> Vec<RemovedRule> {
        let mut removed = Vec::new();
        for i in 0..self.rules.len() {
            let Some(r) = self.rules[i].as_ref() else {
                continue;
            };
            let doomed = if strict {
                r.match_fields == *pattern && r.priority == priority
            } else {
                // Non-strict OpenFlow delete: the pattern removes every
                // rule whose match it subsumes (is equal to or more
                // general than).
                pattern.subsumes(&r.match_fields)
            };
            if doomed {
                let rule = self.remove_at(i);
                removed.push(RemovedRule {
                    rule,
                    reason: FlowRemovedReason::Delete,
                });
            }
        }
        if !removed.is_empty() {
            self.maybe_compact();
            self.settle_deadlines();
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnbuf_net::PacketBuilder;
    use sdnbuf_openflow::{Action, PortNo};

    fn exact_rule(src_port: u16, priority: u16) -> (FlowRule, MatchView) {
        let pkt = PacketBuilder::udp().src_port(src_port).build();
        let m = Match::exact_from_packet(PortNo(1), &pkt);
        let view = MatchView::of(PortNo(1), &pkt);
        (
            FlowRule::new(m, priority).with_actions(vec![Action::output(PortNo(2))]),
            view,
        )
    }

    #[test]
    fn insert_and_match() {
        let mut t = FlowTable::new(10);
        let (rule, view) = exact_rule(5, 100);
        assert_eq!(t.insert(Nanos::ZERO, rule), InsertOutcome::Installed);
        let hit = t.match_packet(Nanos::from_micros(3), &view, 500).unwrap();
        assert_eq!(hit.packet_count, 1);
        assert_eq!(hit.byte_count, 500);
        assert_eq!(hit.last_hit, Nanos::from_micros(3));
        assert_eq!(t.hits(), 1);
        assert_eq!(t.lookups(), 1);
    }

    #[test]
    fn a_reset_table_keeps_capacity_and_nothing_else() {
        let mut t = FlowTable::new(200);
        for port in 0..150 {
            let (mut rule, view) = exact_rule(port, 100);
            rule.idle_timeout = Nanos::from_secs(1);
            t.insert(Nanos::ZERO, rule);
            t.match_packet(Nanos::from_micros(1), &view, 100);
        }
        t.insert(Nanos::ZERO, FlowRule::new(Match::any(), 1));
        let capacities = (
            t.rules.capacity(),
            t.deadlines.capacity(),
            t.exact.slots.len(),
        );
        t.reset(10, EvictionPolicy::EvictLru);
        assert_eq!(
            (
                t.rules.capacity(),
                t.deadlines.capacity(),
                t.exact.slots.len()
            ),
            capacities
        );
        assert!(t.exact.slots.iter().all(|&s| s == Slot::EMPTY));
        assert!(t.rules.is_empty() && t.exact.len == 0 && t.wild.is_empty());
        assert!(t.exact_dups.is_empty() && t.deadlines.is_empty() && t.due.is_empty());
        assert_eq!(
            (t.len(), t.capacity(), t.lookups(), t.hits(), t.policy),
            (0, 10, 0, 0, EvictionPolicy::EvictLru)
        );
        assert_eq!(t.next_expiry(), None);
        let (rule, view) = exact_rule(3, 100);
        assert!(
            t.match_packet(Nanos::ZERO, &view, 100).is_none(),
            "no old rule"
        );
        assert_eq!(t.insert(Nanos::ZERO, rule), InsertOutcome::Installed);
        assert_eq!(t.peek(&view).map(|r| r.priority), Some(100));
    }

    #[test]
    fn miss_counts_lookup_only() {
        let mut t = FlowTable::new(10);
        let (_, view) = exact_rule(5, 100);
        assert!(t.match_packet(Nanos::ZERO, &view, 100).is_none());
        assert_eq!(t.lookups(), 1);
        assert_eq!(t.hits(), 0);
    }

    #[test]
    fn highest_priority_wins() {
        let mut t = FlowTable::new(10);
        let (low, view) = exact_rule(5, 1);
        t.insert(Nanos::ZERO, low);
        let mut high = FlowRule::new(Match::any(), 50);
        high.actions = vec![Action::output(PortNo(9))].into();
        t.insert(Nanos::ZERO, high);
        let hit = t.peek(&view).unwrap();
        assert_eq!(hit.priority, 50);
    }

    #[test]
    fn equal_priority_first_installed_wins() {
        let mut t = FlowTable::new(10);
        let a = FlowRule::new(Match::any(), 5).with_cookie(1);
        let b = FlowRule::new(
            Match::from_flow_key(&sdnbuf_net::FlowKey::of(&PacketBuilder::udp().build()).unwrap()),
            5,
        )
        .with_cookie(2);
        t.insert(Nanos::ZERO, a);
        t.insert(Nanos::ZERO, b);
        let view = MatchView::of(PortNo(1), &PacketBuilder::udp().build());
        assert_eq!(t.peek(&view).unwrap().cookie, 1);
    }

    #[test]
    fn same_match_same_priority_replaces() {
        let mut t = FlowTable::new(10);
        let (r1, view) = exact_rule(5, 100);
        let (mut r2, _) = exact_rule(5, 100);
        r2.cookie = 77;
        t.insert(Nanos::ZERO, r1);
        assert_eq!(t.insert(Nanos::from_secs(1), r2), InsertOutcome::Replaced);
        assert_eq!(t.len(), 1);
        assert_eq!(t.peek(&view).unwrap().cookie, 77);
    }

    #[test]
    fn reject_policy_refuses_when_full() {
        let mut t = FlowTable::new(1);
        let (r1, _) = exact_rule(1, 1);
        let (r2, _) = exact_rule(2, 1);
        t.insert(Nanos::ZERO, r1);
        assert!(t.is_full());
        assert_eq!(t.insert(Nanos::ZERO, r2), InsertOutcome::Rejected);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn lru_policy_evicts_least_recently_hit() {
        let mut t = FlowTable::with_eviction(2, EvictionPolicy::EvictLru);
        let (r1, v1) = exact_rule(1, 1);
        let (r2, _) = exact_rule(2, 1);
        let (r3, _) = exact_rule(3, 1);
        t.insert(Nanos::ZERO, r1);
        t.insert(Nanos::ZERO, r2);
        // Hit rule 1 so rule 2 becomes the LRU victim.
        t.match_packet(Nanos::from_secs(1), &v1, 100);
        match t.insert(Nanos::from_secs(2), r3) {
            InsertOutcome::Evicted(victim) => {
                // Victim must be rule 2 (src port 2 in its match).
                assert_eq!(victim.match_fields.tp_src, 2);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(t.len(), 2);
        // Rule 1 survived.
        assert!(t.peek(&v1).is_some());
    }

    #[test]
    fn idle_expiry_removes_and_reports() {
        let mut t = FlowTable::new(10);
        let (rule, view) = exact_rule(5, 1);
        t.insert(Nanos::ZERO, rule.with_idle_timeout(Nanos::from_secs(5)));
        assert!(t.expire(Nanos::from_secs(4)).is_empty());
        // A hit resets the idle clock.
        t.match_packet(Nanos::from_secs(4), &view, 100);
        assert!(t.expire(Nanos::from_secs(8)).is_empty());
        let removed = t.expire(Nanos::from_secs(9));
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].reason, FlowRemovedReason::IdleTimeout);
        assert!(t.is_empty());
    }

    #[test]
    fn hard_expiry_ignores_hits() {
        let mut t = FlowTable::new(10);
        let (rule, view) = exact_rule(5, 1);
        t.insert(Nanos::ZERO, rule.with_hard_timeout(Nanos::from_secs(10)));
        for s in 1..10 {
            t.match_packet(Nanos::from_secs(s), &view, 100);
        }
        let removed = t.expire(Nanos::from_secs(10));
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].reason, FlowRemovedReason::HardTimeout);
        // Final stats ride along for the flow_removed message.
        assert_eq!(removed[0].rule.packet_count, 9);
    }

    #[test]
    fn next_expiry_is_earliest_deadline() {
        let mut t = FlowTable::new(10);
        assert_eq!(t.next_expiry(), None);
        let (r1, _) = exact_rule(1, 1);
        let (r2, _) = exact_rule(2, 1);
        t.insert(Nanos::ZERO, r1.with_idle_timeout(Nanos::from_secs(7)));
        t.insert(Nanos::ZERO, r2.with_hard_timeout(Nanos::from_secs(3)));
        assert_eq!(t.next_expiry(), Some(Nanos::from_secs(3)));
    }

    /// A re-add keeps the earlier `installed_at` but stamps `last_hit`
    /// with its own, future, effect time; a hit before that moves the
    /// idle deadline *backwards*, below every entry the index holds.
    #[test]
    fn hit_before_replacement_takes_effect_moves_deadline_back() {
        let (t0, h, t1) = (
            Nanos::from_secs(1),
            Nanos::from_secs(2),
            Nanos::from_secs(4),
        );
        let idle = Nanos::from_secs(5);
        let mut t = FlowTable::new(10);
        let (rule, view) = exact_rule(5, 1);
        let rule = rule.with_idle_timeout(idle);
        t.insert(t0, rule.clone());
        assert_eq!(t.insert(t1, rule), InsertOutcome::Replaced);
        assert_eq!(t.next_expiry(), Some(t1 + idle));
        assert!(t.match_packet(h, &view, 100).is_some());
        assert_eq!(t.next_expiry(), Some(h + idle));
        assert!(t.expire(h + idle - Nanos::from_nanos(1)).is_empty());
        assert_eq!(t.expire(h + idle).len(), 1);
        assert_eq!(t.next_expiry(), None);
    }

    #[test]
    fn replacement_with_shorter_timeout_moves_deadline_back() {
        let mut t = FlowTable::new(10);
        let (rule, _) = exact_rule(5, 1);
        t.insert(
            Nanos::ZERO,
            rule.clone().with_idle_timeout(Nanos::from_secs(9)),
        );
        t.insert(
            Nanos::from_secs(1),
            rule.clone().with_hard_timeout(Nanos::from_secs(3)),
        );
        assert_eq!(t.next_expiry(), Some(Nanos::from_secs(3)));
        // ... and with none at all, leaves nothing to expire.
        t.insert(Nanos::from_secs(2), rule);
        assert_eq!(t.next_expiry(), None);
        assert!(t.expire(Nanos::from_secs(100)).is_empty());
    }

    /// Rules falling due in one sweep are reported in insertion order,
    /// whatever order their deadlines pop in.
    #[test]
    fn one_sweep_reports_removals_in_insertion_order() {
        let mut t = FlowTable::new(10);
        for (port, idle_s, hard_s) in [(1, 9, 0), (2, 3, 0), (3, 0, 6), (4, 1, 2), (5, 50, 0)] {
            let (rule, _) = exact_rule(port, 1);
            t.insert(
                Nanos::ZERO,
                rule.with_idle_timeout(Nanos::from_secs(idle_s))
                    .with_hard_timeout(Nanos::from_secs(hard_s))
                    .with_removal_notification(),
            );
        }
        let removed = t.expire(Nanos::from_secs(10));
        let got: Vec<_> = removed
            .iter()
            .map(|r| (r.rule.match_fields.tp_src, r.reason))
            .collect();
        use FlowRemovedReason::{HardTimeout, IdleTimeout};
        assert_eq!(
            got,
            [
                (1, IdleTimeout),
                (2, IdleTimeout),
                (3, HardTimeout),
                (4, HardTimeout)
            ]
        );
        assert!(removed.iter().all(|r| r.rule.notify_on_removal));
        assert_eq!(t.next_expiry(), Some(Nanos::from_secs(50)));
    }

    /// Every re-add/early-hit cycle enters one more deadline for the same
    /// rule; the index must not grow with the number of cycles.
    #[test]
    fn superseded_deadlines_do_not_accumulate() {
        let mut t = FlowTable::new(4);
        let (rule, view) = exact_rule(5, 1);
        let rule = rule.with_idle_timeout(Nanos::from_secs(3600));
        t.insert(Nanos::ZERO, rule.clone());
        for cycle in 1..1000u64 {
            let now = Nanos::from_millis(cycle);
            t.insert(now + Nanos::from_millis(1), rule.clone());
            t.match_packet(now, &view, 100);
            assert_eq!(t.next_expiry(), Some(now + Nanos::from_secs(3600)));
            assert!(t.deadlines.len() <= 2 * t.rules.len() + 8);
        }
    }

    #[test]
    fn strict_delete_requires_exact_identity() {
        let mut t = FlowTable::new(10);
        let (r, _) = exact_rule(5, 100);
        let m = r.match_fields;
        t.insert(Nanos::ZERO, r);
        assert!(t.delete(&m, 99, true).is_empty()); // wrong priority
        let removed = t.delete(&m, 100, true);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].reason, FlowRemovedReason::Delete);
        assert!(t.is_empty());
    }

    #[test]
    fn nonstrict_delete_uses_subsumption() {
        let mut t = FlowTable::new(10);
        let (r5, _) = exact_rule(5, 1);
        let (r6, _) = exact_rule(6, 1);
        t.insert(Nanos::ZERO, r5.clone());
        t.insert(Nanos::ZERO, r6);
        // A 5-tuple pattern for src port 5 deletes only that rule.
        let pkt = PacketBuilder::udp().src_port(5).build();
        let tuple = Match::from_flow_key(&sdnbuf_net::FlowKey::of(&pkt).unwrap());
        let removed = t.delete(&tuple, 0, false);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].rule.match_fields, r5.match_fields);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn wildcard_delete_clears_table() {
        let mut t = FlowTable::new(10);
        for p in 0..5 {
            let (r, _) = exact_rule(p, 1);
            t.insert(Nanos::ZERO, r);
        }
        let removed = t.delete(&Match::any(), 0, false);
        assert_eq!(removed.len(), 5);
        assert!(t.is_empty());
    }

    #[test]
    fn iter_walks_rules() {
        let mut t = FlowTable::new(10);
        for p in 0..3 {
            let (r, _) = exact_rule(p, 1);
            t.insert(Nanos::ZERO, r);
        }
        assert_eq!(t.iter().count(), 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = FlowTable::new(0);
    }

    #[test]
    #[should_panic(expected = "addresses")]
    fn capacity_beyond_four_byte_positions_panics() {
        let _ = FlowTable::new(FlowTable::MAX_CAPACITY + 1);
    }

    #[test]
    fn index_slots_and_rules_keep_their_size() {
        // The exact index holds at least two slots per rule, and the rule
        // storage a rule per position: growing either grows the table's
        // share of every run's peak live heap.
        assert_eq!(std::mem::size_of::<Slot>(), 8);
        assert_eq!(std::mem::size_of::<FlowRule>(), 128);
        assert_eq!(std::mem::size_of::<Option<FlowRule>>(), 128);
    }

    #[test]
    fn index_grows_at_half_load_and_shrinks_by_shifting_back() {
        let mut t = FlowTable::new(1_000);
        let views: Vec<_> = (0..600)
            .map(|port| {
                let (rule, view) = exact_rule(port, 1);
                t.insert(Nanos::ZERO, rule);
                assert!(2 * t.exact.len <= t.exact.slots.len());
                view
            })
            .collect();
        assert_eq!((t.exact.len, t.exact.slots.len()), (600, 2_048));
        // Deleting every other rule leaves each survivor reachable.
        for (port, view) in views.iter().enumerate().step_by(2) {
            let (rule, _) = exact_rule(port as u16, 1);
            assert_eq!(t.delete(&rule.match_fields, 1, true).len(), 1);
            assert!(t.peek(view).is_none());
        }
        assert_eq!(t.exact.len, 300);
        for (port, view) in views.iter().enumerate() {
            assert_eq!(t.peek(view).is_some(), port % 2 == 1, "port {port}");
        }
    }
}
