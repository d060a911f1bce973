//! [`Buffer`] against the mechanisms it replaced, kept under `cfg(test)`
//! as references: the same random operations drive a reference and the
//! buffer built for the same configuration, and every output, counter,
//! deadline and traced event must be the same. `Debug` is compared where
//! `==` would ignore an id's generation and epoch.

use super::Buffer;
use crate::flow_gran::FlowGranularityBuffer as FlowReference;
use crate::none::NoBuffer as NoReference;
use crate::packet_gran::PacketGranularityBuffer as PacketReference;
use crate::{BufferMechanism, GiveUp, PacketPool, RetryPolicy, Sabotage, TimeoutSweep};
use proptest::prelude::*;
use sdnbuf_net::{MacAddr, PacketBuilder};
use sdnbuf_openflow::{BufferId, PortNo};
use sdnbuf_sim::{Nanos, RecordingSink, Tracer};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// A mechanism configuration as the switch derives one from its config.
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

/// The reference mechanism for a configuration, by kind, so a step can
/// reach the packet buffer's id counter.
enum Reference {
    None(NoReference),
    PerPacket(PacketReference),
    PerFlow(FlowReference),
}

impl Reference {
    fn mechanism(&mut self) -> &mut dyn BufferMechanism {
        match self {
            Reference::None(m) => m,
            Reference::PerPacket(m) => m,
            Reference::PerFlow(m) => m,
        }
    }
}

/// The reference and the buffer for `config`, built as the switch builds
/// them.
fn pair(config: &Config) -> (Reference, Buffer) {
    match *config {
        Config::None => (Reference::None(NoReference::new()), Buffer::default()),
        Config::PerPacket {
            capacity,
            free_lag,
            ttl,
        } => (
            Reference::PerPacket(PacketReference::with_free_lag(capacity, free_lag).with_ttl(ttl)),
            Buffer::per_packet(capacity, free_lag).with_ttl(ttl),
        ),
        Config::PerFlow {
            capacity,
            timeout,
            retry,
            ttl,
        } => (
            Reference::PerFlow(
                FlowReference::new(capacity, timeout)
                    .with_retry_policy(retry)
                    .with_ttl(ttl),
            ),
            Buffer::per_flow(capacity, timeout)
                .with_retry_policy(retry)
                .with_ttl(ttl),
        ),
    }
}

/// One operation on both mechanisms.
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
    /// The per-packet id counters jump to `left` short of `u32::MAX`, so
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

/// The events `sink` recorded since the last call, as text.
fn drained(sink: &Rc<RefCell<RecordingSink>>) -> String {
    format!("{:?}", sink.borrow_mut().take())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Misses over a few 5-tuples and non-IP frames; releases of live,
    /// drained, forged-generation, dead-epoch and unknown ids; time,
    /// sweeps, reconciles, re-announce peeks, pressure, every sabotage and
    /// the per-packet id counter's wrap, on every kind of buffer at
    /// capacity 1–32 with and without TTL and free lag, under the fixed
    /// and budgeted retry policies. After each step both mechanisms have
    /// answered the same, hold the same and have traced the same.
    #[test]
    fn buffer_answers_as_the_mechanism_it_replaced(config in arb_config(), steps in arb_steps()) {
        let (mut reference, mut buffer) = pair(&config);
        let (tracer, reference_events) = Tracer::recording(0);
        reference.mechanism().set_tracer(tracer);
        let (tracer, buffer_events) = Tracer::recording(0);
        buffer.set_tracer(tracer);
        let mut pool = PacketPool::new();
        let (mut now, mut epoch, mut seen) = (Nanos::ZERO, 0, Vec::<BufferId>::new());
        for (i, step) in steps.iter().enumerate() {
            let theirs = reference.mechanism();
            let (expected, got) = match *step {
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
                    let expected = theirs.on_miss(now, packet, PortNo(1), &pool);
                    let got = buffer.on_miss(now, packet, PortNo(1), &pool);
                    if let crate::MissAction::SendBufferedPacketIn { buffer_id } = got {
                        seen.push(buffer_id);
                    }
                    (format!("{expected:?}"), format!("{got:?}"))
                }
                Step::Release { nth, how, raw } => {
                    let id = presented(&seen, nth, how, raw);
                    let (mut expected, mut got) = (Vec::new(), Vec::new());
                    let verdicts = (
                        theirs.release_into(now, id, &mut expected),
                        buffer.release_into(now, id, &mut got),
                    );
                    (format!("{:?} {expected:?}", verdicts.0), format!("{:?} {got:?}", verdicts.1))
                }
                Step::Advance { micros, poll } => {
                    now += Nanos::from_micros(micros);
                    let (mut expected, mut got) = (TimeoutSweep::default(), TimeoutSweep::default());
                    if poll {
                        theirs.poll_timeouts_into(now, &pool, &mut expected);
                        buffer.poll_timeouts_into(now, &pool, &mut got);
                        seen.extend(got.rerequests.iter().map(|r| r.buffer_id));
                    }
                    (format!("{expected:?}"), format!("{got:?}"))
                }
                Step::Reconcile => {
                    epoch += 1;
                    let (mut expected, mut got) = (Vec::new(), Vec::new());
                    theirs.reconcile_epoch_into(now, epoch, &mut expected);
                    buffer.reconcile_epoch_into(now, epoch, &mut got);
                    seen.extend(&got);
                    (format!("{expected:?}"), format!("{got:?}"))
                }
                Step::Peek { nth } => {
                    let id = presented(&seen, nth, 0, 0);
                    let expected = theirs.rerequest_for(id);
                    let got = buffer.rerequest_for(id);
                    (format!("{expected:?}"), format!("{got:?}"))
                }
                Step::Pressure { on } => {
                    theirs.set_pressure(on);
                    buffer.set_pressure(on);
                    Default::default()
                }
                Step::Sabotage { flags } => {
                    let sabotage = Sabotage {
                        disable_rerequest: flags & 1 != 0,
                        disable_ttl_gc: flags & 2 != 0,
                        broken_epoch: flags & 4 != 0,
                    };
                    theirs.sabotage(sabotage);
                    buffer.sabotage(sabotage);
                    Default::default()
                }
                Step::Wrap { left } => {
                    if let Reference::PerPacket(theirs) = &mut reference {
                        theirs.next_id = u32::MAX - left;
                        buffer.next_id = u32::MAX - left;
                    }
                    Default::default()
                }
            };
            let theirs = reference.mechanism();
            prop_assert_eq!(got, expected, "step {} {:?} of {:?}", i, step, config);
            let state = |m: &dyn BufferMechanism| {
                format!(
                    "{} {:?} {} of {} {:?}",
                    m.name(),
                    m.next_timeout(),
                    m.occupancy(),
                    m.capacity(),
                    m.stats()
                )
            };
            prop_assert_eq!(state(&buffer), state(theirs), "after step {} {:?} of {:?}", i, step, config);
            prop_assert_eq!(
                drained(&buffer_events),
                drained(&reference_events),
                "events of step {} {:?} of {:?}", i, step, config
            );
        }
    }
}
