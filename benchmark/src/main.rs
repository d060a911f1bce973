//! Command line of the repository benchmark. See `README.md`.

use sdnbuf_benchmark::layers::traced_pass;
use sdnbuf_benchmark::metrics::Manifest;
use sdnbuf_benchmark::protocol::{measure, reps_for, Measured};
use sdnbuf_benchmark::workloads::{Scale, Workload};
use sdnbuf_benchmark::{agree, json, report, sweep};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: sdnbuf-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                        [--quick] [--agree] [--sweep flows]

  --workload NAME  sec4_churn | sec5_flows | repro_grid | chaos_sweep.
                   Without it every workload runs, traced pass included.
  --seed N         seed of the input generators (default 1)
  --seconds S      seconds of timed reps, turned into a fixed rep count per
                   workload (default: run_seconds of BENCHMARK.json)
  --trace 0|1      0: end-to-end metrics only, tracing off.
                   1: per-layer metrics only, from the traced pass.
                   Without it both are reported, one result line each.
  --quick          smoke mode: 1 rep, one-tenth sizes. Not for claims.
  --agree          measure two sets (medians of 3 runs per workload, in
                   turns) and hold them against the bounds; exits 1 when
                   they disagree
  --sweep flows    knee-finder: buffer-256 @ 50 Mbps at 1k..32k flows

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    scale: Scale,
    agree: bool,
    sweep: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        scale: Scale::Full,
        agree: false,
        sweep: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or("--seed takes a whole number from 1")?;
            }
            "--seconds" => {
                args.seconds = Some(
                    value()?
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or("--seconds takes a positive number")?,
                );
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            "--quick" => args.scale = Scale::Quick,
            "--agree" => args.agree = true,
            "--sweep" => match value()?.as_str() {
                "flows" => args.sweep = true,
                other => return Err(format!("unknown sweep {other:?} (try: flows)")),
            },
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The digest pinned for `workload` at `--seed 1`, full size.
fn pinned_digest(workload: Workload) -> Option<u64> {
    let pins = json::parse(include_str!("../pins.json")).ok()?;
    let hex = pins.get(workload.name())?.as_str()?;
    u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()
}

/// Whether the simulated results moved off the pin. A drift is not a
/// failure — a correctness change may move them on purpose — but a reviewer
/// of a speed-only change must see it.
fn drifted(m: &Measured, scale: Scale) -> bool {
    if m.seed != 1 || scale != Scale::Full {
        return false;
    }
    match pinned_digest(m.workload) {
        Some(pin) if pin == m.outcome.digest => false,
        Some(pin) => {
            println!(
                "DRIFT {}: digest {:#018x}, pinned {pin:#018x} — simulated results moved",
                m.workload.name(),
                m.outcome.digest
            );
            true
        }
        None => {
            println!("DRIFT {}: no pinned digest", m.workload.name());
            true
        }
    }
}

fn write_spans(workload: Workload, json: &str) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}.spans.json", workload.name()));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Measures one workload and prints its tables and result line(s):
/// `--trace 0` end-to-end only, `--trace 1` per-layer only (the driver's two
/// calls), neither both.
fn run_workload(workload: Workload, args: &Args, seconds: f64) {
    let reps = reps_for(workload, seconds, args.scale, args.trace == Some(true));
    let (inputs, measured) = measure(workload, args.seed, reps, args.scale);
    println!("{}", report::protocol_summary(&measured));
    println!("{}", report::parts_table(&measured));
    let drift = drifted(&measured, args.scale);
    let (mut attempted, mut failed) = (measured.attempted, measured.failed);

    if args.trace != Some(true) {
        let end_to_end = measured.end_to_end();
        println!("{}", report::metrics_table(&end_to_end));
        println!(
            "{}",
            report::result_line(failed == 0, attempted, failed, &end_to_end)
        );
    }
    if args.trace != Some(false) {
        let traced = traced_pass(&inputs, &measured, drift);
        println!("{}", report::traced_report(&traced));
        println!("{}", report::metrics_table(&traced.metrics));
        write_spans(workload, &traced.spans.to_json(workload.name(), args.seed));
        // Each replayed tape is a checked operation of the benchmark itself.
        attempted += traced
            .cells
            .iter()
            .map(|(_, t)| t.rows.len() as u64)
            .sum::<u64>();
        failed += traced.complaints.len() as u64;
        println!(
            "{}",
            report::result_line(failed == 0, attempted, failed, &traced.metrics)
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}\n");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let manifest = match Manifest::load() {
        Ok(manifest) => manifest,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds.unwrap_or(manifest.run_seconds);
    if args.scale == Scale::Quick {
        println!("QUICK MODE: 1 rep, one-tenth sizes — a smoke test, not for claims");
    }
    if args.sweep {
        sweep::run(args.seed);
        return ExitCode::SUCCESS;
    }
    if args.agree {
        return match agree::run(args.seed, seconds, args.scale) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    match args.workload {
        Some(workload) => run_workload(workload, &args, seconds),
        None => {
            for workload in Workload::ALL {
                run_workload(workload, &args, seconds);
                println!();
            }
        }
    }
    ExitCode::SUCCESS
}
