//! Property-based tests: flow-table invariants under arbitrary operation
//! sequences.

use proptest::prelude::*;
use sdnbuf_flowtable::{EvictionPolicy, FlowRule, FlowTable, InsertOutcome, RemovedRule};
use sdnbuf_net::{FlowKey, PacketBuilder};
use sdnbuf_openflow::{msg::FlowRemovedReason, Match, MatchView, PortNo};
use sdnbuf_sim::Nanos;

#[derive(Clone, Debug)]
enum Op {
    Insert {
        src_port: u16,
        priority: u16,
        idle_s: u64,
    },
    Packet {
        src_port: u16,
    },
    Expire,
    DeleteAll,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u16..40, 0u16..8, 0u64..5).prop_map(|(src_port, priority, idle_s)| Op::Insert {
            src_port,
            priority,
            idle_s
        }),
        (0u16..40).prop_map(|src_port| Op::Packet { src_port }),
        Just(Op::Expire),
        Just(Op::DeleteAll),
    ]
}

fn rule_for(src_port: u16, priority: u16, idle_s: u64) -> FlowRule {
    let pkt = PacketBuilder::udp().src_port(src_port).build();
    FlowRule::new(Match::exact_from_packet(PortNo(1), &pkt), priority)
        .with_idle_timeout(Nanos::from_secs(idle_s))
}

proptest! {
    #[test]
    fn table_never_exceeds_capacity(
        ops in proptest::collection::vec(arb_op(), 1..200),
        capacity in 1usize..16,
        lru in any::<bool>(),
    ) {
        let policy = if lru { EvictionPolicy::EvictLru } else { EvictionPolicy::RejectNew };
        let mut t = FlowTable::with_eviction(capacity, policy);
        let mut now = Nanos::ZERO;
        for op in ops {
            now += Nanos::from_millis(100);
            match op {
                Op::Insert { src_port, priority, idle_s } => {
                    let outcome = t.insert(now, rule_for(src_port, priority, idle_s));
                    if let InsertOutcome::Rejected = outcome {
                        prop_assert!(!lru, "LRU policy must never reject");
                    }
                }
                Op::Packet { src_port } => {
                    let pkt = PacketBuilder::udp().src_port(src_port).build();
                    let view = MatchView::of(PortNo(1), &pkt);
                    let _ = t.match_packet(now, &view, pkt.wire_len());
                }
                Op::Expire => { let _ = t.expire(now); }
                Op::DeleteAll => { let _ = t.delete(&Match::any(), 0, false); }
            }
            prop_assert!(t.len() <= capacity, "len {} > capacity {}", t.len(), capacity);
        }
    }

    #[test]
    fn hits_never_exceed_lookups(ops in proptest::collection::vec(arb_op(), 1..100)) {
        let mut t = FlowTable::new(8);
        let mut now = Nanos::ZERO;
        for op in ops {
            now += Nanos::from_millis(10);
            match op {
                Op::Insert { src_port, priority, idle_s } => {
                    let _ = t.insert(now, rule_for(src_port, priority, idle_s));
                }
                Op::Packet { src_port } => {
                    let pkt = PacketBuilder::udp().src_port(src_port).build();
                    let _ = t.match_packet(now, &MatchView::of(PortNo(1), &pkt), 100);
                }
                Op::Expire => { let _ = t.expire(now); }
                Op::DeleteAll => { let _ = t.delete(&Match::any(), 0, false); }
            }
        }
        prop_assert!(t.hits() <= t.lookups());
    }

    #[test]
    fn expired_rules_never_match(
        idle_s in 1u64..10,
        gap_s in 0u64..20,
        src_port in 0u16..100,
    ) {
        let mut t = FlowTable::new(4);
        t.insert(Nanos::ZERO, rule_for(src_port, 1, idle_s));
        let now = Nanos::from_secs(gap_s);
        let _ = t.expire(now);
        let pkt = PacketBuilder::udp().src_port(src_port).build();
        let hit = t.match_packet(now, &MatchView::of(PortNo(1), &pkt), 100).is_some();
        if gap_s >= idle_s {
            prop_assert!(!hit, "rule idle for {gap_s}s with timeout {idle_s}s must be gone");
        } else {
            prop_assert!(hit);
        }
    }

    #[test]
    fn match_packet_agrees_with_peek(
        inserts in proptest::collection::vec((0u16..20, 0u16..8), 1..20),
        probe in 0u16..20,
    ) {
        let mut t = FlowTable::with_eviction(32, EvictionPolicy::EvictLru);
        let mut now = Nanos::ZERO;
        for (sp, pr) in inserts {
            now += Nanos::from_millis(1);
            let _ = t.insert(now, rule_for(sp, pr, 0));
        }
        let pkt = PacketBuilder::udp().src_port(probe).build();
        let view = MatchView::of(PortNo(1), &pkt);
        let peeked = t.peek(&view).map(|r| (r.match_fields, r.priority));
        let matched = t.match_packet(now, &view, 100).map(|r| (r.match_fields, r.priority));
        prop_assert_eq!(peeked, matched);
    }
}

/// The flow table as it was before the expiry index: one `Vec` in
/// insertion order, every operation a linear scan. Kept as the executable
/// reference the indexed table is held to.
struct LinearTable {
    capacity: usize,
    policy: EvictionPolicy,
    rules: Vec<FlowRule>,
}

fn last_activity(r: &FlowRule) -> Nanos {
    r.installed_at.max(r.last_hit)
}

impl LinearTable {
    fn insert(&mut self, at: Nanos, mut rule: FlowRule) -> InsertOutcome {
        rule.installed_at = at;
        rule.last_hit = at;
        let same =
            |r: &FlowRule| r.match_fields == rule.match_fields && r.priority == rule.priority;
        if let Some(i) = self.rules.iter().position(same) {
            rule.installed_at = self.rules[i].installed_at.min(at);
            self.rules[i] = rule;
            return InsertOutcome::Replaced;
        }
        if self.rules.len() < self.capacity {
            self.rules.push(rule);
            return InsertOutcome::Installed;
        }
        match self.policy {
            EvictionPolicy::RejectNew => InsertOutcome::Rejected,
            EvictionPolicy::EvictLru => {
                let lru = (0..self.rules.len())
                    .min_by_key(|&i| self.rules[i].last_hit)
                    .expect("full table is non-empty");
                let victim = self.rules.remove(lru);
                self.rules.push(rule);
                InsertOutcome::Evicted(victim)
            }
        }
    }

    fn match_packet(&mut self, now: Nanos, view: &MatchView, bytes: usize) -> Option<&FlowRule> {
        let mut best: Option<usize> = None;
        for (i, r) in self.rules.iter().enumerate() {
            let live = r.installed_at <= now && r.match_fields.matches(view);
            if live && best.map_or(true, |b| r.priority > self.rules[b].priority) {
                best = Some(i);
            }
        }
        let rule = &mut self.rules[best?];
        rule.last_hit = now;
        rule.packet_count += 1;
        rule.byte_count += bytes as u64;
        Some(rule)
    }

    fn next_expiry(&self) -> Option<Nanos> {
        self.rules
            .iter()
            .filter_map(|r| r.expiry_deadline(last_activity(r)))
            .min()
    }

    fn expire(&mut self, now: Nanos) -> Vec<RemovedRule> {
        self.remove_where(|r| {
            let hard = r.hard_timeout != Nanos::ZERO && now >= r.installed_at + r.hard_timeout;
            r.is_expired(now, last_activity(r)).then_some(if hard {
                FlowRemovedReason::HardTimeout
            } else {
                FlowRemovedReason::IdleTimeout
            })
        })
    }

    fn delete(&mut self, pattern: &Match, priority: u16, strict: bool) -> Vec<RemovedRule> {
        self.remove_where(|r| {
            let doomed = if strict {
                r.match_fields == *pattern && r.priority == priority
            } else {
                pattern.subsumes(&r.match_fields)
            };
            doomed.then_some(FlowRemovedReason::Delete)
        })
    }

    fn remove_where(
        &mut self,
        doom: impl Fn(&FlowRule) -> Option<FlowRemovedReason>,
    ) -> Vec<RemovedRule> {
        let mut removed = Vec::new();
        for rule in std::mem::take(&mut self.rules) {
            match doom(&rule) {
                Some(reason) => removed.push(RemovedRule { rule, reason }),
                None => self.rules.push(rule),
            }
        }
        removed
    }
}

#[derive(Clone, Debug)]
enum IndexOp {
    /// `flow_mod` add taking effect `delay_ms` after it is processed.
    Insert {
        port: u16,
        wildcard: bool,
        priority: u16,
        idle_ds: u64,
        hard_ds: u64,
        delay_ms: u64,
    },
    Packet {
        port: u16,
    },
    Expire,
    Delete {
        port: u16,
        wildcard: bool,
        priority: u16,
        strict: bool,
    },
    DeleteAll,
}

/// Exact rules sit in the hash index, 5-tuple rules in the wildcard list;
/// both match the packet with the same source port.
fn match_for(port: u16, wildcard: bool) -> Match {
    let pkt = PacketBuilder::udp().src_port(port).build();
    if wildcard {
        Match::from_flow_key(&FlowKey::of(&pkt).expect("udp packet has a flow key"))
    } else {
        Match::exact_from_packet(PortNo(1), &pkt)
    }
}

fn arb_index_op() -> impl Strategy<Value = IndexOp> {
    prop_oneof![
        // Few ports and priorities, so same-match re-adds (with other
        // timeouts, and effect times still in the future) are common.
        6 => (0u16..12, any::<bool>(), 0u16..2, 0u64..6, 0u64..9, 0u64..300).prop_map(
            |(port, wildcard, priority, idle_ds, hard_ds, delay_ms)| IndexOp::Insert {
                port, wildcard, priority, idle_ds, hard_ds, delay_ms,
            }
        ),
        6 => (0u16..12).prop_map(|port| IndexOp::Packet { port }),
        3 => Just(IndexOp::Expire),
        2 => (0u16..12, any::<bool>(), 0u16..2, any::<bool>()).prop_map(
            |(port, wildcard, priority, strict)| IndexOp::Delete { port, wildcard, priority, strict }
        ),
        1 => Just(IndexOp::DeleteAll),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The expiry index is an optimisation only: under any interleaving
    /// the indexed table and the linear reference agree on every return
    /// value, on `next_expiry` after every call, and on the rules left.
    #[test]
    fn expiry_index_agrees_with_linear_scan(
        ops in proptest::collection::vec((arb_index_op(), 0u64..30), 1..400),
        capacity in 1usize..32,
        lru in any::<bool>(),
    ) {
        let policy = if lru { EvictionPolicy::EvictLru } else { EvictionPolicy::RejectNew };
        let mut t = FlowTable::with_eviction(capacity, policy);
        let mut reference = LinearTable { capacity, policy, rules: Vec::new() };
        let mut now = Nanos::ZERO;
        for (op, step_ms) in ops {
            now += Nanos::from_millis(step_ms);
            match op {
                IndexOp::Insert { port, wildcard, priority, idle_ds, hard_ds, delay_ms } => {
                    let rule = FlowRule::new(match_for(port, wildcard), priority)
                        .with_idle_timeout(Nanos::from_millis(100 * idle_ds))
                        .with_hard_timeout(Nanos::from_millis(100 * hard_ds));
                    let at = now + Nanos::from_millis(delay_ms);
                    prop_assert_eq!(t.insert(at, rule.clone()), reference.insert(at, rule));
                }
                IndexOp::Packet { port } => {
                    let pkt = PacketBuilder::udp().src_port(port).build();
                    let view = MatchView::of(PortNo(1), &pkt);
                    prop_assert_eq!(
                        t.match_packet(now, &view, 100),
                        reference.match_packet(now, &view, 100)
                    );
                }
                IndexOp::Expire => prop_assert_eq!(t.expire(now), reference.expire(now)),
                IndexOp::Delete { port, wildcard, priority, strict } => {
                    let pattern = match_for(port, wildcard);
                    prop_assert_eq!(
                        t.delete(&pattern, priority, strict),
                        reference.delete(&pattern, priority, strict)
                    );
                }
                IndexOp::DeleteAll => prop_assert_eq!(
                    t.delete(&Match::any(), 0, false),
                    reference.delete(&Match::any(), 0, false)
                ),
            }
            prop_assert_eq!(t.next_expiry(), reference.next_expiry());
            prop_assert_eq!(t.len(), reference.rules.len());
            prop_assert!(t.iter().eq(reference.rules.iter()), "rule sets diverged");
        }
    }
}
