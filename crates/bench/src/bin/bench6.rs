//! Perf-regression harness: the pinned BENCH_6 scenarios.
//!
//! Runs four fixed scenarios — a section-IV sweep cell, a 1000-flow
//! retry storm over a lossy control channel, a six-seed chaos replay,
//! and the latency-anatomy pipeline (traced run, span builder,
//! histogram report) — and emits `BENCH_6.json` at the workspace root
//! with wall-clock, events/sec, and allocs/run for each, next to the
//! seed baseline measured before the calendar-wheel scheduler and
//! packet pool landed.
//!
//! Modes:
//!
//! * default — run the scenarios and (re)write `BENCH_6.json`.
//! * `--check` — run the scenarios and compare against the committed
//!   `BENCH_6.json`: exit non-zero if the file is missing a field, a
//!   scenario's determinism check value drifted, or allocation counts
//!   grew. This is the CI smoke gate; it compares deterministic
//!   quantities only — wall-clock on these millisecond scenarios is
//!   noise on a shared runner, so it is printed and written, not gated.
//!
//! Repetitions default to 5 (plus one warm-up); set `SDNBUF_BENCH_REPS`
//! to change. The reported wall-clock is the minimum over repetitions,
//! the least noisy figure on a shared machine.

use sdnbuf_core::chaos::{self, ChaosScenario, Sabotage};
use sdnbuf_core::{
    spans, BufferMode, Experiment, ExperimentConfig, RunResult, Testbed, TestbedConfig,
    WorkloadKind,
};
use sdnbuf_sim::{BitRate, FaultPlan, LossModel, Nanos};
use sdnbuf_workload::{single_packet_flows, PktgenConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts heap allocations so `allocs/run` is an exact, deterministic
/// figure rather than a sampling estimate.
struct CountingAlloc;
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------
// Pinned scenarios. Do not retune these: the committed BENCH_6.json and
// the seed baseline below were measured on exactly these workloads.
// ---------------------------------------------------------------------

/// One cell of the paper's section-IV sweep: 400 single-packet flows at
/// 100 Mbps against the 16-unit packet-granularity buffer.
fn section_iv_cell() -> (u64, u64) {
    let cfg = TestbedConfig::with_buffer(BufferMode::PacketGranularity { capacity: 16 });
    let departures = single_packet_flows(
        &PktgenConfig {
            rate: BitRate::from_mbps(100),
            ..PktgenConfig::default()
        },
        400,
        42,
    );
    let r = Testbed::new(cfg).run(&departures);
    (r.packets_delivered, r.events_dispatched)
}

/// 1000 single-packet flows at 80 Mbps through the flow-granularity
/// buffer while 35% of control messages are lost in each direction —
/// Algorithm 1's re-request path under storm conditions.
fn retry_storm_1000() -> (u64, u64) {
    let mut cfg = TestbedConfig::with_buffer(BufferMode::FlowGranularity {
        capacity: 256,
        timeout: Nanos::from_millis(20),
    });
    let mut plan = FaultPlan {
        seed: 1234,
        ..FaultPlan::default()
    };
    plan.to_controller.loss = LossModel::Probabilistic(0.35);
    plan.to_switch.loss = LossModel::Probabilistic(0.35);
    cfg.faults = plan;
    let departures = single_packet_flows(
        &PktgenConfig {
            rate: BitRate::from_mbps(80),
            ..PktgenConfig::default()
        },
        1000,
        7,
    );
    let r = Testbed::new(cfg).run(&departures);
    (r.packets_delivered + r.rerequests, r.events_dispatched)
}

/// Six seeded chaos scenarios (alternating mechanisms), replayed without
/// sabotage — exercises the generator plus the full fault plane.
fn chaos_replay() -> (u64, u64) {
    let mut check = 0u64;
    let mut events = 0u64;
    for seed in 1u64..=6 {
        let mech = if seed % 2 == 0 {
            BufferMode::PacketGranularity { capacity: 64 }
        } else {
            BufferMode::FlowGranularity {
                capacity: 64,
                timeout: Nanos::from_millis(20),
            }
        };
        let sc = ChaosScenario::generate(seed, mech);
        let (result, trace): (RunResult, _) = chaos::execute(&sc, Sabotage::none());
        check += result.packets_delivered + trace.len() as u64;
        events += result.events_dispatched;
    }
    (check, events)
}

/// The latency-anatomy pipeline over the section-IV cell: a traced run,
/// the span builder's fold over the full event stream, and the per-phase
/// histogram report rendered to JSON — pins the post-hoc analysis cost so
/// the observability layer cannot quietly become the bottleneck.
fn latency_anatomy() -> (u64, u64) {
    let (result, events) = Experiment::new(ExperimentConfig {
        buffer: BufferMode::PacketGranularity { capacity: 16 },
        workload: WorkloadKind::single_packet_flows(400),
        sending_rate: BitRate::from_mbps(100),
        seed: 42,
        ..ExperimentConfig::default()
    })
    .run_traced();
    let report = spans::LatencyReport::from_events(&events);
    let mut json = String::new();
    report.write_json(&mut json);
    (
        result.packets_delivered + report.completed + json.len() as u64,
        result.events_dispatched,
    )
}

// ---------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------

/// Seed-commit figures for one scenario, measured with this same
/// harness (minimum wall-clock over 5 repetitions) before the
/// calendar-wheel scheduler and packet pool replaced the BinaryHeap and
/// per-hop packet clones.
struct Baseline {
    wall_ms_min: f64,
    events: u64,
    allocs: u64,
}

struct Scenario {
    name: &'static str,
    /// Deterministic workload digest — drifts only if behavior changes.
    pinned_check: u64,
    baseline: Baseline,
    run: fn() -> (u64, u64),
}

const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "section_iv_cell",
        pinned_check: 400,
        baseline: Baseline {
            wall_ms_min: 3.36,
            events: 4430,
            allocs: 6090,
        },
        run: section_iv_cell,
    },
    Scenario {
        name: "retry_storm_1000",
        pinned_check: 2284,
        baseline: Baseline {
            wall_ms_min: 6.86,
            events: 11689,
            allocs: 19048,
        },
        run: retry_storm_1000,
    },
    Scenario {
        name: "chaos_replay",
        pinned_check: 2460,
        baseline: Baseline {
            wall_ms_min: 0.65,
            events: 1345,
            allocs: 1981,
        },
        run: chaos_replay,
    },
    Scenario {
        name: "latency_anatomy",
        pinned_check: 6530,
        // New in the latency-anatomy PR: the baseline IS its first
        // measurement, so speedup_vs_seed starts pinned at 1.0.
        baseline: Baseline {
            wall_ms_min: 2.80,
            events: 4430,
            allocs: 5401,
        },
        run: latency_anatomy,
    },
];

struct Measurement {
    name: &'static str,
    check: u64,
    wall_ms_mean: f64,
    wall_ms_min: f64,
    events: u64,
    events_per_sec: f64,
    allocs_per_run: u64,
    baseline: &'static Baseline,
}

impl Measurement {
    /// Throughput gain over the seed: scenario completions per wall
    /// second now vs then (the scenario is the same work in both runs,
    /// so this is baseline wall over current wall).
    fn speedup(&self) -> f64 {
        self.baseline.wall_ms_min / self.wall_ms_min
    }
}

fn reps_from_env() -> u32 {
    std::env::var("SDNBUF_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or(5)
}

fn measure(sc: &'static Scenario, reps: u32) -> Measurement {
    (sc.run)(); // warm-up: fault caches, allocator arenas, branch predictors
    let mut wall_ms = Vec::new();
    let mut check = 0u64;
    let mut events = 0u64;
    let mut allocs = 0u64;
    for rep in 0..reps {
        let a0 = ALLOCS.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let (c, e) = (sc.run)();
        wall_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if rep == 0 {
            check = c;
            events = e;
            allocs = ALLOCS.load(Ordering::Relaxed) - a0;
            assert_eq!(
                check, sc.pinned_check,
                "{}: workload digest drifted from its pinned value — the \
                 scenario no longer reproduces the committed behavior",
                sc.name
            );
        } else {
            assert_eq!(c, check, "{}: nondeterministic check value", sc.name);
        }
    }
    let wall_ms_mean = wall_ms.iter().sum::<f64>() / wall_ms.len() as f64;
    let wall_ms_min = wall_ms.iter().cloned().fold(f64::INFINITY, f64::min);
    Measurement {
        name: sc.name,
        check,
        wall_ms_mean,
        wall_ms_min,
        events,
        events_per_sec: events as f64 / (wall_ms_min / 1e3),
        allocs_per_run: allocs,
        baseline: &sc.baseline,
    }
}

// ---------------------------------------------------------------------
// BENCH_6.json
// ---------------------------------------------------------------------

fn bench_json_path() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/
    p.pop(); // workspace root
    p.push("BENCH_6.json");
    p
}

fn render_json(ms: &[Measurement]) -> String {
    let mut out = String::from("{\n  \"schema\": \"bench6/v1\",\n  \"scenarios\": [\n");
    for (i, m) in ms.iter().enumerate() {
        let b = m.baseline;
        let baseline_eps = b.events as f64 / (b.wall_ms_min / 1e3);
        out.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"name\": \"{name}\",\n",
                "      \"check\": {check},\n",
                "      \"wall_ms_mean\": {mean:.3},\n",
                "      \"wall_ms_min\": {min:.3},\n",
                "      \"events\": {events},\n",
                "      \"events_per_sec\": {eps:.0},\n",
                "      \"allocs_per_run\": {allocs},\n",
                "      \"speedup_vs_seed\": {speedup:.2},\n",
                "      \"seed_baseline\": {{\n",
                "        \"wall_ms_min\": {bmin:.3},\n",
                "        \"events\": {bevents},\n",
                "        \"events_per_sec\": {beps:.0},\n",
                "        \"allocs_per_run\": {ballocs}\n",
                "      }}\n",
                "    }}{comma}\n",
            ),
            name = m.name,
            check = m.check,
            mean = m.wall_ms_mean,
            min = m.wall_ms_min,
            events = m.events,
            eps = m.events_per_sec,
            allocs = m.allocs_per_run,
            speedup = m.speedup(),
            bmin = b.wall_ms_min,
            bevents = b.events,
            beps = baseline_eps,
            ballocs = b.allocs,
            comma = if i + 1 < ms.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extracts `"key": <number>` from the slice of the committed JSON that
/// belongs to one scenario. Good enough for the fixed schema this
/// harness itself writes; anything malformed fails the check.
fn field(scenario_json: &str, key: &str) -> Result<f64, String> {
    let tag = format!("\"{key}\":");
    let at = scenario_json
        .find(&tag)
        .ok_or_else(|| format!("missing field {key:?}"))?;
    let rest = scenario_json[at + tag.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .map_err(|e| format!("unparsable value for {key:?}: {e}"))
}

/// The slice of the committed JSON covering one scenario object: from
/// its `"name"` entry up to the next scenario's (or end of file). The
/// `seed_baseline` sub-object carries no `"name"` and keeps distinct
/// keys, so slicing on names is unambiguous.
fn scenario_slice<'j>(json: &'j str, name: &str) -> Result<&'j str, String> {
    let tag = format!("\"name\": \"{name}\"");
    let start = json
        .find(&tag)
        .ok_or_else(|| format!("scenario {name:?} not in committed BENCH_6.json"))?;
    let rest = &json[start + tag.len()..];
    let end = rest.find("\"name\":").unwrap_or(rest.len());
    Ok(&rest[..end])
}

/// CI gate: compares a fresh run against the committed BENCH_6.json.
fn check(ms: &[Measurement]) -> Result<(), String> {
    let path = bench_json_path();
    let json = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    for m in ms {
        let sc = scenario_slice(&json, m.name)?;
        let committed_check = field(sc, "check")? as u64;
        let committed_allocs = field(sc, "allocs_per_run")? as u64;
        // Schema completeness: every emitted field must be present.
        for key in [
            "wall_ms_mean",
            "wall_ms_min",
            "events",
            "events_per_sec",
            "speedup_vs_seed",
        ] {
            field(sc, key)?;
        }
        if m.check != committed_check {
            return Err(format!(
                "{}: determinism check drifted: {} vs committed {committed_check} \
                 (behavior changed — re-baseline deliberately or fix the regression)",
                m.name, m.check
            ));
        }
        if m.allocs_per_run > committed_allocs {
            return Err(format!(
                "{}: allocs/run grew: {} vs committed {committed_allocs}",
                m.name, m.allocs_per_run
            ));
        }
        println!(
            "check {}: ok (allocs {} <= {committed_allocs}, check {})",
            m.name, m.allocs_per_run, m.check
        );
    }
    Ok(())
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");
    let reps = reps_from_env();
    let ms: Vec<Measurement> = SCENARIOS.iter().map(|sc| measure(sc, reps)).collect();

    for m in &ms {
        println!(
            "{}: wall_ms_min={:.3} events={} events_per_sec={:.0} allocs={} \
             speedup_vs_seed={:.2}x check={}",
            m.name,
            m.wall_ms_min,
            m.events,
            m.events_per_sec,
            m.allocs_per_run,
            m.speedup(),
            m.check
        );
    }

    if check_mode {
        if let Err(e) = check(&ms) {
            eprintln!("BENCH_6 regression check FAILED: {e}");
            std::process::exit(1);
        }
        println!("BENCH_6 regression check passed");
    } else {
        let path = bench_json_path();
        std::fs::write(&path, render_json(&ms)).expect("write BENCH_6.json");
        println!("wrote {}", path.display());
    }
}
