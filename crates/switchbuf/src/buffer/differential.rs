//! [`Buffer`] held to the executable spec of the mechanisms it replaced
//! (`buffer::spec`: Algorithms 1 and 2, OpenFlow's per-packet buffer and
//! no buffer). Random operations drive the spec and the buffer built for
//! the same configuration, and after every step the two must agree in
//! what each miss does, which entry every id names, what leaves the
//! buffer and in what order, and in occupancy, the next deadline and the
//! statistics.
//!
//! What the spec abstracts away, and the `buffer::tests` that still cover
//! it:
//! - raw id values: `per_flow::buffer_id_is_deterministic_function_of_tuple`,
//!   `per_flow::distinct_flows_get_distinct_ids`,
//!   `per_packet::ids_do_not_collide_after_wraparound_reuse`, and the
//!   ascending raw-id order of reconcile survivors in
//!   `per_flow::reconcile_resets_retry_budgets_and_lists_survivors_in_id_order`;
//! - generation tags: `per_flow::stale_generation_release_is_rejected`,
//!   `per_flow::generation_survives_eight_bit_wraparound`,
//!   `per_packet::stale_generation_release_is_rejected`;
//! - epoch tags: `per_flow::stale_epoch_release_is_rejected_only_while_armed`,
//!   `per_flow::reconcile_restamps_every_queued_packet`,
//!   `per_flow::disabled_epoch_guard_keeps_dead_epoch_ids_alive`,
//!   `per_packet::stale_epoch_release_is_rejected_and_reconcile_migrates_units`;
//! - `Refusal` kinds and the refusal breakdown of the statistics: the
//!   same tests, and `per_flow::unknown_id_release_is_noop`;
//! - traced events: `a_buffer_without_memory_keeps_no_tracer`.

use super::spec::{Key, Miss, Spec, Sweep};
use super::Buffer;
use crate::{
    BufferMechanism, BufferStats, BufferedPacket, GiveUp, MissAction, PacketPool, RetryPolicy,
    Sabotage, TimeoutSweep,
};
use proptest::prelude::*;
use sdnbuf_net::{MacAddr, PacketBuilder};
use sdnbuf_openflow::{BufferId, PortNo};
use sdnbuf_sim::Nanos;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// A buffer configuration as the switch derives one from its config.
#[derive(Clone, Debug)]
enum Config {
    None,
    PerPacket {
        capacity: usize,
        free_lag: Nanos,
        ttl: Nanos,
    },
    PerFlow {
        capacity: usize,
        timeout: Nanos,
        retry: RetryPolicy,
        ttl: Nanos,
    },
}

fn arb_config() -> impl Strategy<Value = Config> {
    let ms = |on: bool, ms: u64| Nanos::from_millis(if on { ms } else { 0 });
    let retry = (any::<bool>(), 5u64..40, 0u32..4, any::<bool>()).prop_map(
        |(backoff, cap_ms, budget, drop)| match backoff {
            false => RetryPolicy::Fixed,
            true => RetryPolicy::Backoff {
                cap: Nanos::from_millis(cap_ms),
                budget,
                give_up: if drop {
                    GiveUp::Drop
                } else {
                    GiveUp::DrainAsFullPacketIn
                },
            },
        },
    );
    prop_oneof![
        1 => Just(Config::None),
        3 => (1usize..33, any::<bool>(), 1u64..6, any::<bool>(), 2u64..40).prop_map(
            move |(capacity, lag, lag_ms, ttl, ttl_ms)| Config::PerPacket {
                capacity,
                free_lag: ms(lag, lag_ms),
                ttl: ms(ttl, ttl_ms),
            }
        ),
        3 => (1usize..33, 2u64..20, retry, any::<bool>(), 2u64..40).prop_map(
            move |(capacity, timeout_ms, retry, ttl, ttl_ms)| Config::PerFlow {
                capacity,
                timeout: Nanos::from_millis(timeout_ms),
                retry,
                ttl: ms(ttl, ttl_ms),
            }
        ),
    ]
}

/// The spec and the buffer for `config`, the buffer built as the switch
/// builds it.
fn pair(config: &Config) -> (Spec, Buffer) {
    let buffer = match *config {
        Config::None => Buffer::default(),
        Config::PerPacket {
            capacity,
            free_lag,
            ttl,
        } => Buffer::per_packet(capacity, free_lag).with_ttl(ttl),
        Config::PerFlow {
            capacity,
            timeout,
            retry,
            ttl,
        } => Buffer::per_flow(capacity, timeout)
            .with_retry_policy(retry)
            .with_ttl(ttl),
    };
    (Spec::of(&buffer), buffer)
}

/// One operation on both.
#[derive(Clone, Debug)]
enum Step {
    /// A miss of UDP flow `flow` (`0..6`), or a non-IP frame (`6`).
    Miss {
        flow: u16,
    },
    /// A release of the `nth` id seen so far, presented as `how` says, or
    /// of `raw` when none was seen.
    Release {
        nth: usize,
        how: u8,
        raw: u32,
    },
    /// Time passes; then, if `poll`, a timeout sweep.
    Advance {
        micros: u64,
        poll: bool,
    },
    /// The controller restarted: the next session epoch.
    Reconcile,
    /// The paced re-announce peek at the `nth` id seen so far.
    Peek {
        nth: usize,
    },
    Pressure {
        on: bool,
    },
    /// Every combination of the three sabotage flags.
    Sabotage {
        flags: u8,
    },
    /// The per-packet id counter jumps to `left` short of `u32::MAX`, so
    /// the next allocations wrap past `NO_BUFFER` onto live ids.
    Wrap {
        left: u32,
    },
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![
            8 => (0u16..7).prop_map(|flow| Step::Miss { flow }),
            4 => (0usize..64, 0u8..5, any::<u32>())
                .prop_map(|(nth, how, raw)| Step::Release { nth, how, raw }),
            4 => (0u64..25_000, any::<bool>())
                .prop_map(|(micros, poll)| Step::Advance { micros, poll }),
            1 => Just(Step::Reconcile),
            1 => (0usize..64).prop_map(|nth| Step::Peek { nth }),
            1 => any::<bool>().prop_map(|on| Step::Pressure { on }),
            1 => (0u8..8).prop_map(|flags| Step::Sabotage { flags }),
            1 => (0u32..4).prop_map(|left| Step::Wrap { left }),
        ],
        1..160,
    )
}

/// The `nth` id seen, presented intact (`0`), with a forged generation
/// (`1`), under a dead epoch (`2`), untagged as off the wire (`3`), or a
/// random raw id (`4`, and whenever no id was seen).
fn presented(seen: &[BufferId], nth: usize, how: u8, raw: u32) -> BufferId {
    let Some(&id) = seen.get(nth % seen.len().max(1)) else {
        return BufferId::from_wire(raw);
    };
    match how {
        0 => id,
        1 => BufferId::tagged(id.as_u32(), id.generation().wrapping_add(1)).with_epoch(id.epoch()),
        2 => id.with_epoch(id.epoch().wrapping_sub(1)),
        3 => BufferId::from_wire(id.as_u32()),
        _ => BufferId::from_wire(raw),
    }
}

/// The spec entry `id` names: `names` maps each live raw id to the entry
/// the buffer announced it for.
fn named(names: &HashMap<u32, Key>, id: BufferId) -> Option<Key> {
    names.get(&id.as_u32()).copied()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Misses over a few 5-tuples and non-IP frames; releases of live,
    /// drained, forged-generation, dead-epoch and unknown ids; time,
    /// sweeps, reconciles, re-announce peeks, pressure, every sabotage and
    /// the per-packet id counter's wrap, on every kind of buffer at
    /// capacity 1–32 with and without TTL and free lag, under the fixed
    /// and budgeted retry policies. After each step the buffer has done
    /// what the spec did.
    #[test]
    fn buffer_answers_as_the_mechanism_it_replaced(config in arb_config(), steps in arb_steps()) {
        let (mut spec, mut buffer) = pair(&config);
        let per_packet = matches!(config, Config::PerPacket { .. });
        let mut pool = PacketPool::new();
        let (mut now, mut epoch, mut seen) = (Nanos::ZERO, 0, Vec::<BufferId>::new());
        let mut names = HashMap::new();
        for (i, step) in steps.iter().enumerate() {
            let at = format!("step {i} {step:?} of {config:?}");
            match *step {
                Step::Miss { flow } => {
                    let frame = if flow < 6 {
                        PacketBuilder::udp()
                            .src_port(flow)
                            .frame_size(100 + 10 * usize::from(flow))
                            .build()
                    } else {
                        PacketBuilder::gratuitous_arp(
                            MacAddr::from_host_index(1),
                            Ipv4Addr::new(10, 0, 0, 1),
                        )
                    };
                    let packet = pool.insert(frame);
                    let got = buffer.on_miss(now, packet, PortNo(1), &pool);
                    let want = spec.miss(now, packet, &pool);
                    use MissAction::{Buffered, SendBufferedPacketIn, SendFullPacketIn};
                    match (got, want) {
                        (SendFullPacketIn, Miss::FallBack) => {}
                        (SendBufferedPacketIn { buffer_id: id }, Miss::Announce(key)) => {
                            let live = names.insert(id.as_u32(), key);
                            prop_assert_eq!(live, None, "a fresh id names a live entry: {}", at);
                            seen.push(id);
                        }
                        (SendBufferedPacketIn { buffer_id: id }, Miss::Rerequest(key)) => {
                            prop_assert_eq!(named(&names, id), Some(key), "{}", at);
                            seen.push(id);
                        }
                        (Buffered { buffer_id: id }, Miss::Join(key)) => {
                            prop_assert_eq!(named(&names, id), Some(key), "{}", at);
                        }
                        (got, want) => prop_assert!(false, "{:?} for {:?}: {}", got, want, at),
                    }
                }
                Step::Release { nth, how, raw } => {
                    let id = presented(&seen, nth, how, raw);
                    let key = named(&names, id);
                    let mut got = Vec::new();
                    let verdict = buffer.release_into(now, id, &mut got);
                    // Tags are the buffer's to judge; what follows is the
                    // spec's. An untagged id of a live entry is admitted.
                    let untagged = id.generation() == 0 && id.epoch() == 0;
                    if verdict.is_err() {
                        prop_assert!(got.is_empty() && !(untagged && key.is_some()), "{}", at);
                    }
                    let want = spec.release(now, key.filter(|_| verdict.is_ok()));
                    let filed = |p: &BufferedPacket| p.buffer_id.as_u32() == id.as_u32();
                    prop_assert!(got.iter().all(filed), "{}", at);
                    let got = verdict.ok().map(|_| got.iter().map(|p| p.packet).collect());
                    prop_assert_eq!(got, want, "{}", at);
                }
                Step::Advance { micros, poll } => {
                    now += Nanos::from_micros(micros);
                    if poll {
                        let mut got = TimeoutSweep::default();
                        buffer.poll_timeouts_into(now, &pool, &mut got);
                        let want = spec.poll(now, &pool);
                        // An id that names no entry gets a key no entry has.
                        let key = |id| named(&names, id).unwrap_or(Key::Arrival(u64::MAX));
                        let got = Sweep {
                            expired: (got.expired.iter())
                                .map(|p| (key(p.buffer_id), p.packet))
                                .collect(),
                            rerequests: (got.rerequests.iter())
                                .map(|r| (key(r.buffer_id), r.packet))
                                .collect(),
                            gave_up: (got.gave_up.iter())
                                .map(|g| {
                                    let packets = g.packets.iter().map(|p| p.packet).collect();
                                    (key(g.buffer_id), packets, g.action)
                                })
                                .collect(),
                        };
                        prop_assert_eq!(got, want, "{}", at);
                    }
                }
                Step::Reconcile => {
                    epoch += 1;
                    let mut got = Vec::new();
                    buffer.reconcile_epoch_into(now, epoch, &mut got);
                    let want = spec.reconcile(now);
                    // Survivors come in raw-id order, which the spec
                    // abstracts: compare them by key.
                    let mut keys: Vec<_> = got.iter().map(|&id| named(&names, id)).collect();
                    keys.sort();
                    let want: Vec<_> = want.into_iter().map(Some).collect();
                    prop_assert_eq!(keys, want, "{}", at);
                    seen.extend(&got);
                }
                Step::Peek { nth } => {
                    let id = presented(&seen, nth, 0, 0);
                    let got = (buffer.rerequest_for(id))
                        .map(|r| (named(&names, r.buffer_id), r.packet));
                    let want = named(&names, id)
                        .map(|key| (Some(key), spec.entries[&key].packets[0].0));
                    prop_assert_eq!(got, want, "{}", at);
                }
                Step::Pressure { on } => {
                    spec.pressured = on;
                    buffer.set_pressure(on);
                }
                Step::Sabotage { flags } => {
                    let sabotage = Sabotage {
                        disable_rerequest: flags & 1 != 0,
                        disable_ttl_gc: flags & 2 != 0,
                        broken_epoch: flags & 4 != 0,
                    };
                    spec.sabotage = sabotage;
                    buffer.sabotage(sabotage);
                }
                Step::Wrap { left } => {
                    if per_packet {
                        buffer.next_id = u32::MAX - left;
                    }
                }
            }
            // Ids of entries that left the buffer name nothing.
            names.retain(|_, key| spec.entries.contains_key(key));
            prop_assert_eq!(names.len(), spec.entries.len(), "{}", at);
            let stats = BufferStats {
                stale_releases: 0,
                stale_epoch_releases: 0,
                ..buffer.stats()
            };
            prop_assert_eq!(
                (buffer.occupancy(), buffer.next_timeout(), stats),
                (spec.occupancy(), spec.next_timeout(), spec.stats),
                "after {}", at
            );
        }
    }
}
