//! Edge profile: how many control-flow edges a chaos sweep or one run
//! executes — per packet, per crate and per function. The CPU sibling of
//! `alloc_sites`: an exact count that repeats from process to process,
//! where wall time on a shared machine does not.
//!
//! It needs a build instrumented with SanitizerCoverage, whose
//! `trace-pc-guard` hook this example defines, in a target directory of
//! its own — any other binary built with these flags lacks the hooks and
//! fails to link, so build only this example with them:
//!
//! ```sh
//! RUSTFLAGS="-C passes=sancov-module -C llvm-args=-sanitizer-coverage-level=3 -C llvm-args=-sanitizer-coverage-trace-pc-guard -C llvm-args=-sanitizer-coverage-pc-table" CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_TARGET_DIR=target/sancov cargo run --release --example edge_profile -- chaos 200
//! RUSTFLAGS="-C passes=sancov-module -C llvm-args=-sanitizer-coverage-level=3 -C llvm-args=-sanitizer-coverage-trace-pc-guard -C llvm-args=-sanitizer-coverage-pc-table" CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_TARGET_DIR=target/sancov cargo run --release --example edge_profile -- 'mech=flow:256:50ms,wl=cross:800x200/5,rate=100,seed=1'
//! ```
//!
//! The two modes are `alloc_sites`': `chaos <seeds>` (the default, at 20
//! seeds) runs `chaos_sweep`'s order on a thread warmed by the first
//! seed's five scenarios, which are run again; a spec runs that one
//! experiment after one uncounted run of it. Only the counted part is
//! reported. Every edge is attributed to the function it lies in (the
//! pc-table's function-entry flags), a function to its crate (the first
//! segment of its name, so a `Vec` method monomorphised in a workspace
//! crate counts as `alloc`'s), and the crates' edges sum to the total.
//! Names come from one `addr2line -f -C` call on this binary; addresses
//! are taken relative to its mapping base, as for a position-independent
//! executable. The counts are of the instrumented binary, whose inlining
//! differs from an uninstrumented one's.
//!
//! Uninstrumented (as `cargo build --examples` builds it), it says so and
//! exits successfully.

use sdn_buffer_lab::core::chaos::{run_scenario, Sabotage};
use sdn_buffer_lab::prelude::*;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// One counter per guard, at the index the init hook numbered the guard
/// with (from 1; index 0 takes a hit on a guard not numbered yet). Null
/// until the hook has run, and in an uninstrumented build.
static COUNTERS: AtomicPtr<AtomicU64> = AtomicPtr::new(std::ptr::null_mut());
/// How many guards there are.
static GUARDS: AtomicUsize = AtomicUsize::new(0);
/// The pc-table: a `(pc, flags)` pair per guard, in guard order.
static PCS: AtomicPtr<usize> = AtomicPtr::new(std::ptr::null_mut());
/// Entries (pairs) in the pc-table.
static PC_ENTRIES: AtomicUsize = AtomicUsize::new(0);
/// The pc-table flag of a function's first edge.
const FUNCTION_ENTRY: usize = 1;

/// Numbers the guards `1..=n` and allocates their counters. Each
/// instrumented module's constructor calls it with the whole guard
/// section; the first call numbers it.
///
/// # Safety
/// `start..stop` is the guard section the instrumentation hands over.
#[no_mangle]
pub unsafe extern "C" fn __sanitizer_cov_trace_pc_guard_init(start: *mut u32, stop: *mut u32) {
    // SAFETY: the instrumentation passes its own section's bounds.
    unsafe {
        if start == stop || *start != 0 {
            return;
        }
        let n = stop.offset_from(start) as usize;
        for i in 0..n {
            *start.add(i) = (i + 1) as u32;
        }
        let counters: Box<[AtomicU64]> = (0..=n).map(|_| AtomicU64::new(0)).collect();
        GUARDS.store(n, Ordering::Relaxed);
        COUNTERS.store(Box::leak(counters).as_mut_ptr(), Ordering::Release);
    }
}

/// Counts one execution of the edge `guard` marks.
///
/// # Safety
/// `guard` is a guard of the section the init hook numbered.
#[no_mangle]
pub unsafe extern "C" fn __sanitizer_cov_trace_pc_guard(guard: *mut u32) {
    let counters = COUNTERS.load(Ordering::Acquire);
    if counters.is_null() {
        return;
    }
    // SAFETY: a guard holds 0 or its number, at most the counters' length - 1.
    unsafe { (*counters.add(*guard as usize)).fetch_add(1, Ordering::Relaxed) };
}

/// Keeps the pc-table's bounds.
///
/// # Safety
/// `beg..end` is the pc-table section the instrumentation hands over.
#[no_mangle]
pub unsafe extern "C" fn __sanitizer_cov_pcs_init(beg: *const usize, end: *const usize) {
    if PCS.load(Ordering::Relaxed).is_null() {
        // SAFETY: the instrumentation passes its own section's bounds.
        let words = unsafe { end.offset_from(beg) } as usize;
        PC_ENTRIES.store(words / 2, Ordering::Relaxed);
        PCS.store(beg.cast_mut(), Ordering::Release);
    }
}

/// The counters, once the init hook has run.
fn counters() -> Option<&'static [AtomicU64]> {
    let ptr = COUNTERS.load(Ordering::Acquire);
    // SAFETY: a leaked slice of `GUARDS + 1` counters, never freed.
    (!ptr.is_null())
        .then(|| unsafe { std::slice::from_raw_parts(ptr, GUARDS.load(Ordering::Relaxed) + 1) })
}

/// The pc-table's `(pc, flags)` pairs.
fn pc_table() -> Option<&'static [[usize; 2]]> {
    let ptr = PCS.load(Ordering::Acquire);
    // SAFETY: the instrumentation's section, which lives as long as the
    // process; its pairs are two aligned words each.
    (!ptr.is_null()).then(|| unsafe {
        std::slice::from_raw_parts(ptr.cast(), PC_ENTRIES.load(Ordering::Relaxed))
    })
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

/// Runs `warm` uncounted, then `what` counted; returns the packets `what`
/// sent and each guard's count.
fn profile(
    counters: &[AtomicU64],
    warm: impl FnOnce(),
    what: impl FnOnce() -> u64,
) -> (u64, Vec<u64>) {
    warm();
    let mut counted = Vec::with_capacity(counters.len());
    for counter in counters {
        counter.store(0, Ordering::Relaxed);
    }
    let packets = what();
    counted.extend(counters.iter().map(|c| c.load(Ordering::Relaxed)));
    (packets, counted)
}

/// Where this executable is mapped: the start of its first mapping less
/// that mapping's file offset.
fn mapping_base() -> Result<usize, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let maps = std::fs::read_to_string("/proc/self/maps").map_err(|e| e.to_string())?;
    maps.lines()
        .find_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let (range, offset, path) = (fields.first()?, fields.get(2)?, fields.get(5)?);
            if std::path::Path::new(path) != exe {
                return None;
            }
            let start = usize::from_str_radix(range.split('-').next()?, 16).ok()?;
            Some(start - usize::from_str_radix(offset, 16).ok()?)
        })
        .ok_or_else(|| format!("{} is not in /proc/self/maps", exe.display()))
}

/// The function names of `addresses` (file addresses of this binary), by
/// one `addr2line -f -C` run.
fn function_names(addresses: &[usize]) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new("addr2line")
        .args(["-f", "-C", "-e"])
        .arg(&exe)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("addr2line: {e}"))?;
    let mut stdin = child.stdin.take().expect("piped stdin");
    let input: String = addresses.iter().map(|a| format!("{a:#x}\n")).collect();
    let writer = std::thread::spawn(move || stdin.write_all(input.as_bytes()));
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    // Two lines an address: the function, then `file:line`.
    let names: Vec<String> = stdout
        .lines()
        .step_by(2)
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    writer
        .join()
        .expect("the writer does not panic")
        .map_err(|e| format!("addr2line: {e}"))?;
    child.wait().map_err(|e| e.to_string())?;
    if names.len() != addresses.len() {
        return Err(format!(
            "addr2line named {} of {} addresses",
            names.len(),
            addresses.len()
        ));
    }
    Ok(names)
}

/// The crate a demangled function name belongs to: the first path segment
/// of the type or function it names — or, for a blanket impl's method
/// (`<T as Trait>::f`), of the trait.
fn crate_of(name: &str) -> &str {
    let name = name.trim_start_matches(['<', '&', '*', '(', '[']);
    let name = ["mut ", "const ", "dyn "]
        .iter()
        .fold(name, |n, prefix| n.strip_prefix(prefix).unwrap_or(n));
    let head = &name[..name.find("::").unwrap_or(name.len())];
    match head.split_once(" as ") {
        Some((_, tr)) => crate_of(tr),
        None => head,
    }
}

/// Edges by function: each guard's count summed under the last
/// function-entry guard at or before it. Returns `(entry pc, edges)`.
fn edges_by_function(counts: &[u64], table: &[[usize; 2]]) -> Vec<(usize, u64)> {
    let mut functions: Vec<(usize, u64)> = Vec::new();
    for (guard, &[pc, flags]) in table.iter().enumerate() {
        if flags & FUNCTION_ENTRY != 0 || functions.is_empty() {
            functions.push((pc, 0));
        }
        functions.last_mut().expect("pushed above").1 += counts[guard + 1];
    }
    functions.retain(|&(_, edges)| edges > 0);
    functions
}

fn report(packets: u64, counts: &[u64]) -> Result<(), String> {
    let table = pc_table().ok_or("the binary has no pc-table (-sanitizer-coverage-pc-table)")?;
    if table.len() + 1 != counts.len() {
        return Err(format!(
            "{} pc-table entries for {} guards",
            table.len(),
            counts.len() - 1
        ));
    }
    let functions = edges_by_function(counts, table);
    let base = mapping_base()?;
    let addresses: Vec<usize> = functions.iter().map(|&(pc, _)| pc - base).collect();
    let names = function_names(&addresses)?;
    // One row per function name: monomorphisations of one generic
    // function, and its copies in several crates' code, add up.
    let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, &(_, edges)) in names.iter().zip(&functions) {
        *by_name.entry(name.as_str()).or_default() += edges;
    }
    let mut by_crate: BTreeMap<&str, u64> = BTreeMap::new();
    for (&name, &edges) in &by_name {
        *by_crate.entry(crate_of(name)).or_default() += edges;
    }
    let total: u64 = by_crate.values().sum();
    let share = |edges: u64| 100.0 * edges as f64 / total.max(1) as f64;
    let mut crates: Vec<(&str, u64)> = by_crate.into_iter().collect();
    crates.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    println!("{:>12} {:>7}  crate", "edges", "share");
    for (name, edges) in &crates {
        println!("{edges:>12} {:>6.2}%  {name}", share(*edges));
    }
    let mut top: Vec<(&str, u64)> = by_name.into_iter().collect();
    top.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    println!("\n{:>12} {:>7}  function (top 30)", "edges", "share");
    for (name, edges) in top.iter().take(30) {
        println!("{edges:>12} {:>6.2}%  {name}", share(*edges));
    }
    println!(
        "\n{total} edges over {packets} packets: {:.1} per packet",
        total as f64 / packets.max(1) as f64
    );
    Ok(())
}

fn main() {
    let Some(counters) = counters() else {
        eprintln!(
            "edge_profile: this binary is not instrumented; build it with the \
             SanitizerCoverage flags in its source's header (EXPERIMENTS.md, \"Edge profile\")"
        );
        return;
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (packets, counts) = match args[..] {
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
                counters,
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
                counters,
                || {
                    run();
                },
                run,
            )
        }
        _ => {
            eprintln!("usage: edge_profile [chaos [<seeds>] | '<run spec>']");
            std::process::exit(1);
        }
    };
    if let Err(e) = report(packets, &counts) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
