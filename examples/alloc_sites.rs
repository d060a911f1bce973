//! Allocation-site profile: which code asks the heap, how often and for
//! how many bytes, over a chaos sweep or one run.
//!
//! A counting global allocator captures a backtrace at every allocation
//! (and every `realloc`, which it counts as one, as
//! `tests/steady_state_allocs.rs` does) and files it under its innermost
//! two `sdnbuf_*` frames, the first with its source line. Build with line
//! tables, so that inlined frames and lines resolve:
//!
//! ```sh
//! CARGO_PROFILE_RELEASE_DEBUG=line-tables-only cargo run --release --example alloc_sites -- chaos 200
//! CARGO_PROFILE_RELEASE_DEBUG=line-tables-only cargo run --release --example alloc_sites -- 'mech=flow:256:50ms,wl=v,rate=95,seed=1'
//! ```
//!
//! `chaos <seeds>` (the default, at 20 seeds) runs `chaos_sweep`'s order —
//! per master seed packet-256 and flow-256:20ms from the plain generator,
//! then the two and no buffer under crashes — on a thread warmed by the
//! first seed's five scenarios, which are run again. A spec runs that one
//! experiment (a Section IV or V cell is `wl=iv` or `wl=v`), after one
//! unrecorded run of it. Only the recorded part is counted.

use sdn_buffer_lab::core::chaos::{run_scenario, Sabotage};
use sdn_buffer_lab::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

struct Sites;

/// Whether allocations are being filed.
static RECORDING: AtomicBool = AtomicBool::new(false);
/// Calls and bytes by site.
static SITES: Mutex<BTreeMap<String, (u64, u64)>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// Set while this thread files an allocation: what filing allocates
    /// is not filed.
    static FILING: Cell<bool> = const { Cell::new(false) };
}

fn file(bytes: usize) {
    if !RECORDING.load(Ordering::Relaxed) {
        return;
    }
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = FILING.try_with(|filing| {
        if filing.replace(true) {
            return;
        }
        let site = site_of(&Backtrace::force_capture().to_string());
        let mut sites = SITES.lock().unwrap_or_else(|e| e.into_inner());
        let (calls, total) = sites.entry(site).or_default();
        *calls += 1;
        *total += bytes as u64;
        drop(sites);
        filing.set(false);
    });
}

unsafe impl GlobalAlloc for Sites {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        file(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        file(new_size.saturating_sub(layout.size()));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Sites = Sites;

/// The innermost two frames of this workspace in a rendered backtrace,
/// innermost first, the first with its `file:line`. With line tables a
/// frame is the workspace's when its source is under `crates/` (inlined
/// frames carry no module path); without, when its path is `sdnbuf_*`'s.
fn site_of(backtrace: &str) -> String {
    let mut frames: Vec<String> = Vec::new();
    let mut lines = backtrace.lines().peekable();
    while let Some(line) = lines.next() {
        let Some((_, function)) = line.trim_start().split_once(": ") else {
            continue;
        };
        let at = lines
            .peek()
            .and_then(|l| l.trim_start().strip_prefix("at "))
            .map(|at| at.find("crates/").map(|i| &at[i..]));
        let ours = match at {
            Some(at) => at.is_some(),
            None => function.trim_start_matches('<').starts_with("sdnbuf_"),
        };
        if !ours {
            continue;
        }
        let mut frame = without_generics(function);
        if let (true, Some(Some(at))) = (frames.is_empty(), at) {
            frame = format!("{frame} ({at})");
        }
        frames.push(frame);
        if frames.len() == 2 {
            break;
        }
    }
    if frames.is_empty() {
        return "(outside the workspace)".to_owned();
    }
    frames.join("  <  ")
}

/// `function` without the generic arguments after its first character:
/// `<T as Trait>::f` stays whole, `f<T>` reads `f`.
fn without_generics(function: &str) -> String {
    let mut depth = 0;
    let mut out = String::new();
    for (i, c) in function.char_indices() {
        match c {
            '<' if i > 0 => depth += 1,
            '>' if depth > 0 => depth -= 1,
            _ if depth > 0 => {}
            _ => out.push(c),
        }
    }
    out
}

/// `chaos_sweep`'s five scenarios of master seed `seed`.
fn benchmark_order(seed: u64) -> [RunSpec; 5] {
    let packet = BufferMode::PacketGranularity { capacity: 256 };
    let flow = BufferMode::FlowGranularity {
        capacity: 256,
        timeout: Nanos::from_millis(20),
    };
    [
        RunSpec::generate(seed, packet),
        RunSpec::generate(seed, flow),
        RunSpec::generate_with_crashes(seed, packet),
        RunSpec::generate_with_crashes(seed, flow),
        RunSpec::generate_with_crashes(seed, BufferMode::NoBuffer),
    ]
}

/// Runs `what` once unrecorded, then once recorded; returns the packets the
/// recorded pass sent.
fn profile(warm: impl FnOnce(), what: impl FnOnce() -> u64) -> u64 {
    warm();
    RECORDING.store(true, Ordering::Relaxed);
    let packets = what();
    RECORDING.store(false, Ordering::Relaxed);
    packets
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let packets = match args[..] {
        [] | ["chaos"] | ["chaos", _] => {
            let seeds: u64 = match args.get(1).map(|s| s.parse()) {
                None => 20,
                Some(Ok(n)) if n > 0 => n,
                Some(_) => {
                    eprintln!("error: seeds must be a positive count");
                    std::process::exit(1);
                }
            };
            let scenarios: Vec<RunSpec> = (0..seeds).flat_map(benchmark_order).collect();
            let run = |scenario: &RunSpec| {
                let report = run_scenario(scenario, Sabotage::none());
                assert!(report.violations.is_empty(), "{scenario}");
                report.result.packets_sent
            };
            profile(
                || {
                    for scenario in &scenarios[..5] {
                        run(scenario);
                    }
                },
                || scenarios.iter().map(run).sum(),
            )
        }
        [spec] => {
            let spec: RunSpec = match spec.parse() {
                Ok(spec) => spec,
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            };
            let run = || Experiment::new(spec.config()).run().packets_sent;
            profile(
                || {
                    run();
                },
                run,
            )
        }
        _ => {
            eprintln!("usage: alloc_sites [chaos [<seeds>] | '<run spec>']");
            std::process::exit(1);
        }
    };
    let sites = std::mem::take(&mut *SITES.lock().unwrap_or_else(|e| e.into_inner()));
    let mut rows: Vec<(String, (u64, u64))> = sites.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let (calls, bytes) = rows
        .iter()
        .fold((0, 0), |(c, b), (_, (calls, bytes))| (c + calls, b + bytes));
    println!("{:>8} {:>10}  site", "calls", "bytes");
    for (site, (c, b)) in &rows {
        println!("{c:>8} {b:>10}  {site}");
    }
    let per_packet = |n: u64| n as f64 / packets.max(1) as f64;
    println!(
        "{calls} allocations and {bytes} B over {packets} packets: {:.4} and {:.1} B per packet",
        per_packet(calls),
        per_packet(bytes)
    );
}
