//! Property-based tests for the simulation engine: event ordering,
//! link-time monotonicity, and resource conservation.

use proptest::prelude::*;
use sdnbuf_sim::{
    BitRate, CpuResource, EventQueue, FaultPlan, Link, LinkConfig, Nanos, SimRng, Window,
};

proptest! {
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
