//! Property-based tests for the simulation engine: event ordering,
//! link-time monotonicity, and resource conservation.

use proptest::prelude::*;
use sdnbuf_sim::{
    BitRate, CpuResource, EventQueue, FaultPlan, HeapEventQueue, Link, LinkConfig, Nanos, SimRng,
    Window,
};

/// One step of an arbitrary queue workout: schedule at some time, or pop.
#[derive(Clone, Debug)]
enum QueueOp {
    Schedule(u64),
    /// That many events in the one tick the time falls in: a slot's list
    /// several nodes long, its minimum anywhere along it.
    Burst(u64, u64),
    Pop,
    Clear,
}

/// The times of a [`QueueOp::Burst`]: distinct, out of order, one tick.
fn burst_times(t: u64, n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(move |i| (t & !0xfff) | ((i * 1619) & 0xfff))
}

/// One step of the merge a streaming caller runs against the queue:
/// schedule, reserve sequence numbers, pop only below a `(time, seq)` bound.
#[derive(Clone, Debug)]
enum MergeOp {
    Schedule(u64),
    Burst(u64, u64),
    Clear,
    Reserve(u64),
    PopBefore(u64, u64),
    /// Bound at the earliest pending key itself (must miss) or one
    /// sequence number past it (must hit).
    PopBeforeEarliest {
        past: bool,
    },
}

/// Times drawn from ranges that exercise every wheel regime: same-tick
/// ties (small constants), in-window spread, far-future overflow (beyond
/// the ~1 ms wheel window), and huge jumps that force rebases.
fn queue_op() -> impl Strategy<Value = QueueOp> {
    let burst = |times| (times, 8u64..24).prop_map(|(t, n)| QueueOp::Burst(t, n));
    prop_oneof![
        8 => (0u64..16).prop_map(QueueOp::Schedule),
        8 => (0u64..100_000).prop_map(QueueOp::Schedule),
        8 => (0u64..200_000_000).prop_map(QueueOp::Schedule),
        8 => (0u64..u64::MAX / 4).prop_map(QueueOp::Schedule),
        16 => Just(QueueOp::Pop),
        // Inside the window and beyond it: linked on insert, or on a rebase.
        2 => burst(0u64..100_000),
        1 => burst(0u64..200_000_000),
        1 => Just(QueueOp::Clear),
    ]
}

/// [`queue_op`] with two more pops to each of its steps: three events are
/// popped for every two scheduled, so the queue keeps running empty, the
/// wheel's nodes are recycled over and over, and the window is rebased onto
/// the overflow heap again and again.
fn draining_queue_op() -> impl Strategy<Value = QueueOp> {
    prop_oneof![1 => queue_op(), 2 => Just(QueueOp::Pop)]
}

/// The calendar wheel and the `BinaryHeap` reference, fed the same events.
/// Each event carries the sequence number it was scheduled under, so a
/// popped event shows which side of a bound's tie it was on.
#[derive(Default)]
struct Pair {
    wheel: EventQueue<u64>,
    heap: HeapEventQueue<u64>,
    next_seq: u64,
}

impl Pair {
    /// Schedules on both and returns the key the event will pop under.
    fn schedule(&mut self, t: u64) -> (Nanos, u64) {
        let key = (Nanos::from_nanos(t), self.next_seq);
        self.wheel.schedule(key.0, key.1);
        self.heap.schedule(key.0, key.1);
        self.next_seq += 1;
        key
    }

    fn clear(&mut self) {
        self.wheel.clear();
        self.heap.clear();
    }

    /// Every remaining event must come out in the same order.
    fn drain(&mut self) -> Result<(), TestCaseError> {
        loop {
            prop_assert_eq!(self.wheel.peek_time(), self.heap.peek_time());
            let (a, b) = (self.wheel.pop(), self.heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                return Ok(());
            }
        }
    }
}

/// The wheel is observationally the heap over one workout.
fn wheel_follows_heap(ops: &[QueueOp]) -> Result<(), TestCaseError> {
    let mut q = Pair::default();
    let mut peak = 0;
    for op in ops {
        match *op {
            QueueOp::Schedule(t) => {
                q.schedule(t);
            }
            QueueOp::Burst(t, n) => burst_times(t, n).for_each(|t| {
                q.schedule(t);
            }),
            QueueOp::Pop => {
                prop_assert_eq!(q.wheel.peek_time(), q.heap.peek_time());
                prop_assert_eq!(q.wheel.pop(), q.heap.pop());
            }
            QueueOp::Clear => q.clear(),
        }
        peak = peak.max(q.heap.len());
        prop_assert_eq!(q.wheel.len(), q.heap.len());
        prop_assert_eq!(q.wheel.is_empty(), q.heap.is_empty());
        prop_assert_eq!(q.wheel.peak_len(), peak);
    }
    q.drain()
}

/// Bounds are drawn from the same time regimes as the schedules and from the
/// sequence numbers in use, so they fall below, between and above pending
/// events and split same-time ties; a miss followed by a schedule below the
/// bound is an insert behind where an advancing peek would have left the
/// cursor.
fn merge_op() -> impl Strategy<Value = MergeOp> {
    let time = prop_oneof![0u64..16, 0u64..100_000, 0u64..200_000_000];
    // Schedules as above; an unbounded pop where those pop.
    let plain = || {
        queue_op().prop_map(|op| match op {
            QueueOp::Schedule(t) => MergeOp::Schedule(t),
            QueueOp::Burst(t, n) => MergeOp::Burst(t, n),
            QueueOp::Pop => MergeOp::PopBefore(u64::MAX, u64::MAX),
            QueueOp::Clear => MergeOp::Clear,
        })
    };
    prop_oneof![
        plain(),
        plain(),
        plain(),
        (time, 0u64..600).prop_map(|(t, seq)| MergeOp::PopBefore(t, seq)),
        (0u64..5).prop_map(MergeOp::Reserve),
        any::<bool>().prop_map(|past| MergeOp::PopBeforeEarliest { past }),
    ]
}

proptest! {
    /// The calendar wheel is observationally identical to the BinaryHeap
    /// reference for arbitrary schedule/pop interleavings — including
    /// equal-time FIFO ties, same-tick bursts, far-future overflow spill,
    /// scheduling behind an already-advanced cursor, and a `clear` midway.
    #[test]
    fn wheel_queue_is_equivalent_to_heap_queue(
        ops in proptest::collection::vec(queue_op(), 1..400),
    ) {
        wheel_follows_heap(&ops)?;
    }

    /// `pop_before` on the wheel is peek-compare-pop on the heap, and
    /// `reserve_seqs` hands both the same numbers, under arbitrary
    /// interleavings with schedules.
    #[test]
    fn wheel_pop_before_is_equivalent_to_heap_peek_compare_pop(
        ops in proptest::collection::vec(merge_op(), 1..400),
    ) {
        let mut q = Pair::default();
        let mut pending = std::collections::BTreeSet::new();
        for op in &ops {
            let bound = match *op {
                MergeOp::Schedule(t) => {
                    pending.insert(q.schedule(t));
                    continue;
                }
                MergeOp::Burst(t, n) => {
                    pending.extend(burst_times(t, n).map(|t| q.schedule(t)));
                    continue;
                }
                MergeOp::Clear => {
                    q.clear();
                    pending.clear();
                    continue;
                }
                MergeOp::Reserve(n) => {
                    prop_assert_eq!(q.wheel.reserve_seqs(n), q.next_seq);
                    prop_assert_eq!(q.heap.reserve_seqs(n), q.next_seq);
                    q.next_seq += n;
                    continue;
                }
                MergeOp::PopBefore(t, seq) => (Nanos::from_nanos(t), seq),
                MergeOp::PopBeforeEarliest { past } => match pending.first() {
                    Some(&(t, seq)) => (t, seq + u64::from(past)),
                    None => continue,
                },
            };
            // The earliest pending key pops exactly when it is below the bound.
            let due = pending.first().copied().filter(|&key| key < bound);
            prop_assert_eq!(q.wheel.pop_before(bound), due);
            prop_assert_eq!(q.heap.pop_before(bound), due);
            if let Some(key) = due {
                pending.remove(&key);
            }
            prop_assert_eq!(q.wheel.len(), q.heap.len());
            prop_assert_eq!(q.wheel.peek_time(), q.heap.peek_time());
        }
        q.drain()?;
    }

    /// Many events landing on the exact same nanosecond (and therefore the
    /// same wheel tick) preserve FIFO across both implementations.
    #[test]
    fn wheel_queue_same_tick_ties_match_heap(
        times in proptest::collection::vec(0u64..4, 1..200),
    ) {
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            wheel.schedule(Nanos::from_nanos(t), i);
            heap.schedule(Nanos::from_nanos(t), i);
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn event_queue_pops_in_time_then_insertion_order(
        times in proptest::collection::vec(0u64..1_000, 1..200),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Nanos::from_nanos(t), i);
        }
        let mut prev: Option<(Nanos, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((pt, pi)) = prev {
                prop_assert!(t >= pt, "time went backwards");
                if t == pt {
                    prop_assert!(i > pi, "insertion order violated at equal times");
                }
            }
            prev = Some((t, i));
        }
    }

    /// The `u64` division `transmission_time` takes for frame-sized inputs
    /// and the `u128` one it falls back to are one function: rates from
    /// 1 bps to 100 Gbps, sizes up to 2³² B, where the narrow product
    /// overflows and, at the slowest rates, the result saturates.
    #[test]
    fn transmission_time_is_the_wide_ceiling_division(
        bps in prop_oneof![
            Just(1u64),
            1u64..1_000,
            1u64..=100_000_000_000,
            Just(100_000_000_000u64),
        ],
        bytes in prop_oneof![
            0usize..2_000,
            0usize..=1 << 32,
            // Either side of where bits × 10⁹ stops fitting a `u64`.
            (u64::MAX / 8_000_000_000 - 2..u64::MAX / 8_000_000_000 + 3).prop_map(|b| b as usize),
            Just(1usize << 32),
        ],
    ) {
        let wide = (bytes as u128 * 8 * 1_000_000_000).div_ceil(bps as u128);
        let wide = Nanos::from_nanos(wide.min(u64::MAX as u128) as u64);
        prop_assert_eq!(BitRate::from_bps(bps).transmission_time(bytes), wide);
        if bps == 1 && bytes == 1 << 32 {
            prop_assert_eq!(wide, Nanos::MAX);
        }
    }

    /// `backlog_bytes` is the wide product remaining ns × bps / 10⁹ / 8,
    /// whether the line is idle, the product fits a `u64`, or — a frame of
    /// gigabytes — it does not.
    #[test]
    fn backlog_bytes_is_the_wide_product(
        bps in prop_oneof![1u64..1_000, 1u64..=100_000_000_000, Just(100_000_000_000u64)],
        bytes in prop_oneof![0usize..2_000, 0usize..=1 << 32, Just(1usize << 32)],
        elapsed_permille in prop_oneof![Just(0u64), 0u64..1_200],
    ) {
        let mut link = Link::new(LinkConfig {
            bandwidth: BitRate::from_bps(bps),
            propagation: Nanos::from_micros(5),
            queue_capacity_bytes: usize::MAX,
        });
        prop_assert_eq!(link.backlog_bytes(Nanos::ZERO), 0);
        link.enqueue(Nanos::ZERO, bytes).expect("unbounded queue");
        let busy = link.ready_at().as_nanos();
        let now = (busy as u128 * elapsed_permille as u128 / 1_000).min(u64::MAX as u128) as u64;
        let wide = busy.saturating_sub(now) as u128 * bps as u128 / 1_000_000_000 / 8;
        prop_assert_eq!(link.backlog_bytes(Nanos::from_nanos(now)), wide as usize);
    }

    #[test]
    fn link_arrivals_are_fifo_and_after_submission(
        frames in proptest::collection::vec((0u64..100_000, 64usize..1500), 1..100),
        bw in 1u64..1000,
    ) {
        let mut link = Link::new(LinkConfig {
            bandwidth: BitRate::from_mbps(bw),
            propagation: Nanos::from_micros(5),
            queue_capacity_bytes: usize::MAX / 2,
        });
        // Chronological submissions (the testbed guarantees this).
        let mut frames = frames;
        frames.sort_by_key(|f| f.0);
        let mut last_arrival = Nanos::ZERO;
        for (at, bytes) in frames {
            let now = Nanos::from_nanos(at);
            let arrival = link.enqueue(now, bytes).expect("unbounded queue");
            // Physics: cannot arrive before tx + propagation from now.
            let min = now + BitRate::from_mbps(bw).transmission_time(bytes)
                + Nanos::from_micros(5);
            prop_assert!(arrival >= min, "arrival {arrival} before physical minimum {min}");
            // FIFO: arrivals never reorder.
            prop_assert!(arrival >= last_arrival);
            last_arrival = arrival;
        }
    }

    #[test]
    fn link_never_exceeds_capacity_backlog(
        frames in proptest::collection::vec(64usize..1500, 1..100),
        cap_kb in 1usize..64,
    ) {
        let mut link = Link::new(LinkConfig {
            bandwidth: BitRate::from_mbps(10),
            propagation: Nanos::ZERO,
            queue_capacity_bytes: cap_kb * 1024,
        });
        for bytes in frames {
            let _ = link.enqueue(Nanos::ZERO, bytes);
            prop_assert!(link.backlog_bytes(Nanos::ZERO) <= cap_kb * 1024);
        }
        let s = link.stats();
        prop_assert!(s.max_backlog_bytes <= cap_kb * 1024);
    }

    #[test]
    fn cpu_conserves_busy_time(
        jobs in proptest::collection::vec((0u64..10_000, 1u64..500), 1..100),
        cores in 1usize..8,
    ) {
        let mut cpu = CpuResource::new(cores);
        let mut jobs = jobs;
        jobs.sort_by_key(|j| j.0);
        let mut total = Nanos::ZERO;
        for (at, service_us) in jobs {
            let now = Nanos::from_micros(at);
            let service = Nanos::from_micros(service_us);
            let done = cpu.submit(now, service);
            prop_assert!(done >= now + service, "completion before physics allows");
            total += service;
        }
        prop_assert_eq!(cpu.utilization().busy(), total);
    }

    #[test]
    fn rng_is_deterministic_and_seed_sensitive(seed in any::<u64>()) {
        let mut a = SimRng::seed_from(seed);
        let mut b = SimRng::seed_from(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SimRng::seed_from(seed.wrapping_add(1));
        let differs = (0..16).any(|_| a.next_u64() != c.next_u64());
        prop_assert!(differs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The same over 20 000 steps of a queue that keeps draining: thousands
    /// of events go through the few nodes the arena ever grows to.
    #[test]
    fn wheel_queue_is_equivalent_to_heap_queue_over_a_long_draining_run(
        ops in proptest::collection::vec(draining_queue_op(), 20_000..20_001),
    ) {
        wheel_follows_heap(&ops)?;
    }
}

/// An arbitrary valid fault window: any start, strictly positive length,
/// drawn across all duration regimes so specs exercise every `fmt_dur`
/// unit (ns/us/ms/s).
fn arb_window() -> impl Strategy<Value = Window> {
    let instant = prop_oneof![
        0u64..1_000,                                 // sub-microsecond
        0u64..1_000_000,                             // sub-millisecond
        0u64..200_000_000,                           // the testbed's usual horizon
        (0u64..100).prop_map(|s| s * 1_000_000_000), // whole seconds
    ];
    (instant.clone(), 1u64..=50_000_000u64)
        .prop_map(|(from, len)| Window::new(Nanos::from_nanos(from), Nanos::from_nanos(from + len)))
}

/// A plan holding arbitrary window sets — overlapping, nested, adjacent
/// and disjoint alike — on every window-carrying knob.
fn arb_window_plan() -> impl Strategy<Value = FaultPlan> {
    (
        proptest::collection::vec(arb_window(), 0..4),
        proptest::collection::vec(arb_window(), 0..4),
        proptest::collection::vec(arb_window(), 0..3),
        proptest::collection::vec(arb_window(), 0..3),
        proptest::collection::vec(arb_window(), 0..3),
    )
        .prop_map(
            |(stalls, flaps, pressure, crashes, crashes_standby)| FaultPlan {
                stalls,
                flaps,
                pressure,
                crashes,
                crashes_standby,
                ..FaultPlan::default()
            },
        )
}

proptest! {
    /// Window-set semantics of the fault plan: any collection of
    /// positive-length windows — overlapping, nested, adjacent, or
    /// butted up against each other with zero gap — validates, and its
    /// spec string (`stall=`/`flap=`/`press=`/`crash=`/`crash_standby=`)
    /// round-trips through `parse` bit-for-bit, windows in order.
    #[test]
    fn window_plans_validate_and_round_trip(plan in arb_window_plan()) {
        prop_assert!(plan.validate().is_ok(), "{:?}", plan.validate());
        let spec = plan.to_spec();
        let parsed = FaultPlan::parse(&spec);
        prop_assert_eq!(parsed.as_ref().ok(), Some(&plan), "spec '{}'", spec);
        // has_crashes is a pure function of the crash window sets.
        prop_assert_eq!(
            plan.has_crashes(),
            !plan.crashes.is_empty() || !plan.crashes_standby.is_empty()
        );
    }

    /// Windows are half-open `[from, until)`: the start instant is
    /// inside, the end instant is not — so two adjacent windows
    /// `[a, b)` + `[b, c)` cover every instant of `[a, c)` exactly once.
    #[test]
    fn windows_are_half_open_and_adjacency_is_gapless(
        a in 0u64..1_000_000,
        len1 in 1u64..1_000_000,
        len2 in 1u64..1_000_000,
    ) {
        let b = a + len1;
        let c = b + len2;
        let first = Window::new(Nanos::from_nanos(a), Nanos::from_nanos(b));
        let second = Window::new(Nanos::from_nanos(b), Nanos::from_nanos(c));
        prop_assert!(first.contains(Nanos::from_nanos(a)));
        prop_assert!(!first.contains(Nanos::from_nanos(b)));
        prop_assert!(second.contains(Nanos::from_nanos(b)));
        prop_assert!(!second.contains(Nanos::from_nanos(c)));
        // The boundary instant belongs to exactly one of the two.
        for t in [a, b.saturating_sub(1), b, c - 1] {
            let t = Nanos::from_nanos(t);
            prop_assert_eq!(
                first.contains(t) ^ second.contains(t),
                a <= t.as_nanos() && t.as_nanos() < c
            );
        }
    }

    /// Zero-length windows are rejected by `validate` on every knob (a
    /// crash that lasts no time would be a restart with no outage — the
    /// plan refuses the ambiguity), and reversed windows never parse.
    #[test]
    fn zero_length_windows_are_rejected(
        from in 0u64..1_000_000u64,
        key in prop_oneof![
            Just("stall"), Just("flap"), Just("press"),
            Just("crash"), Just("crash_standby"),
        ],
    ) {
        let w = Window::new(Nanos::from_nanos(from), Nanos::from_nanos(from));
        let mut plan = FaultPlan::default();
        match key {
            "stall" => plan.stalls.push(w),
            "flap" => plan.flaps.push(w),
            "press" => plan.pressure.push(w),
            "crash" => plan.crashes.push(w),
            _ => plan.crashes_standby.push(w),
        }
        prop_assert!(plan.validate().is_err(), "{key} accepted a zero-length window");
        // The equivalent spec is rejected at parse time too.
        let spec = format!("{key}={from}ns+0ms");
        prop_assert!(FaultPlan::parse(&spec).is_err(), "parse accepted '{spec}'");
    }
}
