//! `sdnlab` — command-line front end for the testbed.
//!
//! ```text
//! sdnlab run   [--buffer MECH] [--workload WL] [--rate MBPS] [--seed N]
//!              [--events PATH] [--timeline PATH] [--sample-every DUR [--samples PATH]]
//! sdnlab sweep [--section iv|v] [--reps N] [--threads T]
//!              [--events PATH] [--timeline PATH]
//! sdnlab repro [--reps N] [--threads T]
//! sdnlab help
//! ```
//!
//! Mechanisms: `none`, `packet:<capacity>`, `flow:<capacity>[:<timeout>]`.
//! Workloads: `iv` (1000 single-packet flows), `v` (50×20 cross-sequenced),
//! `single:<n>`, `cross:<flows>x<ppf>/<group>`, `tcp:<first>:<gap>:<second>`,
//! `mixed:<udp>:<tcp>:<segments>` — the same grammar `chaos --replay` specs use.
//! `sdnlab run` prints the run its flags describe as its first line,
//! `spec: <RunSpec>`, in the grammar `chaos --replay` reads.
//! Threads: `serial`, `auto` (one worker per CPU), or a worker count of at
//! least 1; the default honours `SDNBUF_THREADS`, in the same grammar, and
//! falls back to `auto`. Results are identical for every setting.
//!
//! `sdnlab repro` regenerates every committed artifact of `results/` but
//! `validate.{json,tsv}` (which `sdnlab validate` writes): Figs. 2–13, the
//! summary claims, the ablations, the Section VI TCP/UDP mix and
//! `report.md`, at 20 repetitions per cell unless `--reps` says otherwise.
//!
//! Observability: `--events` streams the structured event log as JSONL,
//! `--timeline` writes a Chrome trace-event file (open it in Perfetto),
//! `--sample-every` buckets buffer occupancy / table size / control load
//! into a TSV time series, `--latency-report` prints the per-phase
//! flow-setup latency anatomy (and writes it as TSV + JSON), and
//! `--dump-on-exit` writes a replayable flight-recorder dump to
//! `results/flightrec/`. All outputs are byte-deterministic for a fixed
//! seed, at any `--threads` setting.

use sdn_buffer_lab::core::chaos::{self, Sabotage};
use sdn_buffer_lab::core::flightrec::{DumpReason, FlightDump};
use sdn_buffer_lab::core::validate::{self, Tolerances, ValidateConfig};
use sdn_buffer_lab::core::{
    figures, observe, parse_rate_mbps, repro, spans, RateSweep, StderrProgress,
};
use sdn_buffer_lab::prelude::*;
use sdn_buffer_lab::sim::faults::parse_dur;
use sdn_buffer_lab::sim::hash::{fnv1a, FNV_OFFSET};
use std::io::Write as _;
use std::process::ExitCode;

fn usage() -> &'static str {
    "sdnlab — SDN switch-buffer testbed (reproduction of ICDCS'17)\n\
     \n\
     USAGE:\n\
       sdnlab run   [--buffer MECH] [--workload WL] [--rate MBPS] [--seed N]\n\
                    [--faults SPEC] [--check]\n\
                    [--retry-policy P] [--ttl DUR] [--degraded N] [--admission POL:CAP]\n\
                    [--standby warm|cold[:DUR]]\n\
                    [--keepalive DUR] [--liveness-timeout DUR]\n\
                    [--events PATH] [--timeline PATH] [--sample-every DUR [--samples PATH]]\n\
                    [--latency-report] [--dump-on-exit]\n\
       sdnlab sweep [--section iv|v] [--reps N] [--threads T]\n\
                    [--events PATH] [--timeline PATH] [--latency-report]\n\
       sdnlab chaos [--seeds N] [--crash] [--broken] [--broken-ttl] [--broken-epoch]\n\
                    [--recovery] [--replay RUN]\n\
       sdnlab validate [--report PATH] [--tolerance PCT] [--cells SPEC] [--flows N]\n\
                    [--reps N] [--seed N] [--broken] [--threads T]\n\
       sdnlab repro [--reps N] [--threads T]\n\
     \n\
     MECH: none | packet:<capacity> | flow:<capacity>[:<timeout DUR>]  (default 50ms)\n\
     WL:   iv | v | single:<n> | cross:<flows>x<ppf>/<group>\n\
           | tcp:<first>:<gap DUR>:<second> | mixed:<udp>:<tcp>:<segments>\n\
     T:    serial | auto | <worker count>   (default: SDNBUF_THREADS or auto)\n\
     DUR:  <n>[ns|us|ms|s], default unit ms\n\
     SPEC: comma-separated key=value fault plan, e.g.\n\
           'fseed=7,c.loss=p:0.1,c.jitter=500us,s.loss=nth:10,stall=55ms+3ms'\n\
     RUN:  one run, as `sdnlab run` prints it on its first line: mech=MECH,\n\
           wl=WL,rate=MBPS,seed=N, then any of frame=BYTES, retry=P, ttl=DUR,\n\
           degraded=N, admission=POL:CAP, standby=warm|cold[:DUR],\n\
           keepalive=DUR, liveness=DUR and the SPEC keys\n\
     \n\
     FAULT INJECTION:\n\
       --faults SPEC       run under a composable fault plan (seeded, replayable)\n\
       --check             verify the protocol invariants over the event stream\n\
     \n\
     RECOVERY & OVERLOAD CONTROL:\n\
       --retry-policy P    re-request pacing: fixed (the paper's Algorithm 1)\n\
                           or backoff[:<cap DUR>[:<budget>[:drain|drop]]]:\n\
                           doubling intervals up to cap (default 400ms, 0 =\n\
                           uncapped), give up after budget re-requests\n\
                           (default 0 = never) by draining or dropping\n\
       --ttl DUR           per-entry buffer TTL (expired entries are dropped)\n\
       --degraded N        consecutive give-ups that trip the switch into\n\
                           degraded mode (0 = never)\n\
       --admission POL:CAP bounded controller ingress queue: POL is drop-tail,\n\
                           drop-head or prefer-rerequests; CAP its depth,\n\
                           at least 1 (leave the flag out for no bound)\n\
     \n\
     CRASH / FAILOVER PLANE:\n\
       --faults 'crash=T+D'       kill the controller at T for D (volatile state\n\
                                  dropped; epoch-tagged re-handshake on restart)\n\
       --standby warm|cold[:DUR]  arm the standby controller (warm =\n\
                                  checkpoint-synced MAC table at crash time),\n\
                                  taking over DUR after the crash (default 10ms)\n\
       --keepalive DUR            echo probe interval (drives the RTT histogram\n\
                                  and the switch's liveness detector; default\n\
                                  5ms when the plan crashes, else none)\n\
       --liveness-timeout DUR     silence after which the switch suspects the\n\
                                  controller dead and sheds fresh misses\n\
                                  (default 15ms when the plan crashes, else off)\n\
     \n\
     CHAOS HARNESS:\n\
       --seeds N           scenarios per buffer mechanism (default 50)\n\
       --crash             generate scenarios with controller-crash windows\n\
                           (and sampled warm/cold standby takeovers)\n\
       --broken            disable Algorithm 1's re-request loop; the harness\n\
                           must catch it (self-test — exits nonzero if it doesn't)\n\
       --broken-ttl        disable the TTL garbage collector with the TTL armed;\n\
                           the buffer-expiry invariant must catch it\n\
       --broken-epoch      disable the buffer's epoch guard under crash windows;\n\
                           the no-cross-epoch-drain invariant must catch it\n\
       --recovery          run the fixed recovery matrix (stall + flap, with and\n\
                           without a mid-recovery crash, against both mechanisms\n\
                           under fixed and backoff retries)\n\
       --replay RUN        re-run one run from the spec a failure, a flight\n\
                           dump or `sdnlab run` printed\n\
     \n\
     REPRODUCTION:\n\
       sdnlab repro        rewrite every results/ artifact but validate.*:\n\
                           Figs. 2-13, summary_claims, the ablations,\n\
                           tcp_udp_mix and report.md (--reps default 20)\n\
     \n\
     VALIDATION PLANE:\n\
       --report PATH       where the validate/v2 JSON goes (default\n\
                           results/validate.json; a TSV twin goes next to it)\n\
       --tolerance PCT     uniform relative-error tolerance override, percent\n\
                           (default: per-metric tolerances from DESIGN \u{a7}13)\n\
       --cells SPEC        explicit cells instead of the full grid, e.g.\n\
                           'none@20,packet:256@60,flow:256:50@100'\n\
       --flows N           single-packet flows per run (default 1000)\n\
       --reps N            repetitions per cell (default 3)\n\
       --broken            validate against a deliberately mis-derived oracle;\n\
                           the harness must catch it (self-test \u{2014} exits\n\
                           nonzero if it doesn't)\n\
     \n\
     OBSERVABILITY:\n\
       --events PATH       structured event log, one JSON object per line\n\
       --timeline PATH     Chrome trace-event JSON (open at ui.perfetto.dev)\n\
       --sample-every DUR  TSV time series (occupancy, table size, ctrl Mbps)\n\
       --samples PATH      where the TSV goes (default results/samples.tsv)\n\
       --latency-report    per-phase flow-setup latency anatomy (p50/p95/p99\n\
                           per phase); run: table + results/latency_report.{tsv,json};\n\
                           sweep: one row per grid cell\n\
       --dump-on-exit      write a replayable flight-recorder dump (run spec,\n\
                           seed, event tail, open spans, histograms) to\n\
                           results/flightrec/ when the run ends; dumps are also\n\
                           written automatically on --check violations and on\n\
                           entry into degraded mode\n\
     \n\
     EXAMPLES:\n\
       sdnlab run --buffer packet:256 --rate 80\n\
       sdnlab run --buffer packet:16 --rate 100 --latency-report\n\
       sdnlab run --buffer flow:256:50 --workload v --rate 95 --timeline trace.json\n\
       sdnlab run --buffer flow:256:20 --workload v --faults 'fseed=7,c.loss=p:0.1' --check\n\
       sdnlab run --buffer flow:256:20 --retry-policy backoff:200:4 --ttl 250 \\\n\
                  --degraded 3 --faults 'fseed=7,c.loss=p:0.2' --check\n\
       sdnlab sweep --section iv --reps 20 --threads 4\n\
       sdnlab chaos --seeds 200\n\
       sdnlab chaos --recovery\n\
       sdnlab validate --cells none@20,packet:256@60 --report results/v.json\n\
       sdnlab repro --reps 2 --threads auto\n"
}

#[derive(Debug)]
struct ParseError(String);

/// Lets `?` lift the `String` errors of the domain types' `FromStr`
/// grammars (`BufferMode`, `WorkloadKind`, durations) into CLI errors.
impl From<String> for ParseError {
    fn from(message: String) -> ParseError {
        ParseError(message)
    }
}

/// The `--threads` flag, falling back to `SDNBUF_THREADS` / auto.
fn threads_flag(args: &[String]) -> Result<Parallelism, ParseError> {
    match flag(args, "--threads")? {
        Some(s) => Ok(s.parse()?),
        None => Ok(Parallelism::from_env()),
    }
}

/// Key-value flag extraction: `--key value` pairs after the subcommand.
fn flag(args: &[String], key: &str) -> Result<Option<String>, ParseError> {
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if a == key {
            return match iter.next() {
                Some(v) => Ok(Some(v.clone())),
                None => Err(ParseError(format!("{key} needs a value"))),
            };
        }
    }
    Ok(None)
}

/// The arguments a subcommand reads, `(valued, switches)`: a valued flag
/// takes the next argument as its value, a switch stands alone.
type Flags = (&'static [&'static str], &'static [&'static str]);

/// Refuses every argument `sdnlab <cmd>` does not read. Unchecked, a
/// misspelt flag would be ignored and its default run.
fn known_flags(cmd: &str, args: &[String], (valued, switches): Flags) -> Result<(), ParseError> {
    let mut iter = args.iter().map(String::as_str);
    while let Some(a) = iter.next() {
        if valued.contains(&a) {
            iter.next();
        } else if !switches.contains(&a) {
            return Err(ParseError(format!("sdnlab {cmd} does not take '{a}'")));
        }
    }
    Ok(())
}

/// A count flag that must be at least 1 (`--reps`, `--flows`, `--seeds`):
/// zero repetitions, flows or scenarios would report on runs that never
/// happened.
fn count_flag(args: &[String], key: &str, default: usize) -> Result<usize, ParseError> {
    match flag(args, key)? {
        None => Ok(default),
        Some(s) => match s.parse() {
            Ok(0) => Err(ParseError(format!("{key} must be at least 1, got '{s}'"))),
            Ok(n) => Ok(n),
            Err(_) => Err(ParseError(format!("bad {key} '{s}'"))),
        },
    }
}

/// Opens `path` for writing, creating parent directories as needed.
fn create(path: &str) -> Result<std::io::BufWriter<std::fs::File>, ParseError> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| ParseError(format!("{path}: {e}")))?;
        }
    }
    std::fs::File::create(path)
        .map(std::io::BufWriter::new)
        .map_err(|e| ParseError(format!("{path}: {e}")))
}

/// `sdnlab run`'s flags that set a key of the run's [`RunSpec`], and the
/// key each one sets.
const RUN_SPEC_FLAGS: [(&str, &str); 11] = [
    ("--buffer", "mech"),
    ("--workload", "wl"),
    ("--rate", "rate"),
    ("--seed", "seed"),
    ("--retry-policy", "retry"),
    ("--ttl", "ttl"),
    ("--degraded", "degraded"),
    ("--admission", "admission"),
    ("--standby", "standby"),
    ("--keepalive", "keepalive"),
    ("--liveness-timeout", "liveness"),
];

/// The run `sdnlab run`'s flags describe: [`RunSpec::default`] with each
/// flag applied through the spec's own per-key setter, and `--faults` as
/// the fault plan.
fn run_spec(args: &[String]) -> Result<RunSpec, ParseError> {
    let mut spec = RunSpec::default();
    for (name, key) in RUN_SPEC_FLAGS {
        if let Some(value) = flag(args, name)? {
            spec.set(key, &value)?;
        }
    }
    if let Some(plan) = flag(args, "--faults")? {
        spec.plan = FaultPlan::parse(&plan)?;
    }
    Ok(spec)
}

/// `sdnlab run`'s arguments: every [`RUN_SPEC_FLAGS`] flag, the fault
/// plan and the outputs.
const RUN_FLAGS: Flags = (
    &[
        "--buffer",
        "--workload",
        "--rate",
        "--seed",
        "--retry-policy",
        "--ttl",
        "--degraded",
        "--admission",
        "--standby",
        "--keepalive",
        "--liveness-timeout",
        "--faults",
        "--events",
        "--timeline",
        "--sample-every",
        "--samples",
    ],
    &["--check", "--latency-report", "--dump-on-exit"],
);

fn cmd_run(args: &[String]) -> Result<ExitCode, ParseError> {
    known_flags("run", args, RUN_FLAGS)?;
    let spec = run_spec(args)?;
    let events_path = flag(args, "--events")?;
    let timeline_path = flag(args, "--timeline")?;
    let sample_every = match flag(args, "--sample-every")? {
        Some(s) => match parse_dur(&s)? {
            Nanos::ZERO => {
                return Err(ParseError(format!(
                    "--sample-every must be positive, got '{s}'"
                )))
            }
            every => Some(every),
        },
        None => None,
    };
    let samples_path = flag(args, "--samples")?;
    let check = args.iter().any(|a| a == "--check");
    let latency_report = args.iter().any(|a| a == "--latency-report");
    let dump_on_exit = args.iter().any(|a| a == "--dump-on-exit");
    let mut exp = Experiment::try_new(spec.config())?;
    println!("spec: {spec}");
    // Crash runs always trace: every controller crash auto-produces a
    // flight-recorder dump for the post-mortem.
    let tracing = events_path.is_some()
        || timeline_path.is_some()
        || sample_every.is_some()
        || check
        || latency_report
        || dump_on_exit
        || spec.plan.has_crashes();
    if !tracing {
        let run = exp.run();
        println!("{run:#?}");
        print_run_summary(&run);
        return Ok(ExitCode::SUCCESS);
    }

    let (run, events) = exp.run_traced();
    println!("{run:#?}");
    print_run_summary(&run);
    let violations = if check {
        chaos::check_invariants(spec.mech, &spec.plan, spec.recovery, &run, &events)
    } else {
        Vec::new()
    };
    if check {
        if violations.is_empty() {
            eprintln!("check: every invariant holds over {} events", events.len());
        } else {
            for v in &violations {
                eprintln!("VIOLATION {v}");
            }
        }
    }
    if latency_report {
        let report = spans::LatencyReport::from_events(&events);
        println!("{}", report.to_table());
        let tsv_path = "results/latency_report.tsv";
        let mut w = create(tsv_path)?;
        report
            .write_tsv(&mut w)
            .map_err(|e| ParseError(format!("{tsv_path}: {e}")))?;
        let json_path = "results/latency_report.json";
        let mut json = String::new();
        report.write_json(&mut json);
        json.push('\n');
        let mut w = create(json_path)?;
        w.write_all(json.as_bytes())
            .map_err(|e| ParseError(format!("{json_path}: {e}")))?;
        eprintln!("wrote latency report to {tsv_path} and {json_path}");
    }
    // The flight recorder fires on an invariant violation, on entry into
    // degraded mode, on a controller crash, or unconditionally under
    // --dump-on-exit — in that precedence order when several apply.
    let degraded = events
        .iter()
        .any(|e| matches!(e.kind, EventKind::DegradedEnter { .. }));
    let crashed = events
        .iter()
        .any(|e| matches!(e.kind, EventKind::CtrlCrash { .. }));
    if dump_on_exit || degraded || crashed || !violations.is_empty() {
        let reason = if !violations.is_empty() {
            DumpReason::ChaosViolation
        } else if degraded {
            DumpReason::DegradedEnter
        } else if crashed {
            DumpReason::CtrlCrash
        } else {
            DumpReason::Exit
        };
        let dump = FlightDump::capture(reason, &spec, &events, Some(&run))
            .with_violations(violations.clone());
        let path = dump
            .write_to_dir(&FlightDump::default_dir(), &dump.stem())
            .map_err(|e| ParseError(format!("flight recorder dump: {e}")))?;
        eprintln!("flight recorder dump: {}", path.display());
    }
    if let Some(path) = &events_path {
        let mut w = create(path)?;
        let n = observe::write_events_jsonl(&events, "", &mut w)
            .map_err(|e| ParseError(format!("{path}: {e}")))?;
        eprintln!("wrote {n} events to {path}");
    }
    if let Some(every) = sample_every {
        let samples = observe::sample_series(&events, every);
        let path = samples_path.unwrap_or_else(|| "results/samples.tsv".to_owned());
        let mut w = create(&path)?;
        observe::write_series_tsv(&samples, &mut w)
            .map_err(|e| ParseError(format!("{path}: {e}")))?;
        eprintln!("wrote {} samples to {path}", samples.len());
    }
    if let Some(path) = &timeline_path {
        let mut w = create(path)?;
        observe::export_run_timeline(&run.label, spec.rate_mbps, events, &mut w)
            .map_err(|e| ParseError(format!("{path}: {e}")))?;
        w.flush().map_err(|e| ParseError(format!("{path}: {e}")))?;
        eprintln!("wrote timeline to {path} (open at https://ui.perfetto.dev)");
    }
    if !violations.is_empty() {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// One-line digests of the run's probe and crash planes, printed after
/// the full `RunResult` debug dump. Silent when the planes were off, so
/// default runs print exactly what they always printed.
fn print_run_summary(run: &sdn_buffer_lab::core::RunResult) {
    if run.echo_rtt_samples > 0 {
        println!(
            "echo rtt: p50 {:.3} ms  p99 {:.3} ms  ({} samples)",
            run.echo_rtt_p50_ms, run.echo_rtt_p99_ms, run.echo_rtt_samples
        );
    }
    if run.ctrl_crashes > 0 {
        println!(
            "crash plane: {} crashes  {} takeovers  {} epoch bumps  {} reconcile re-announces  \
             {} stale-epoch rejects",
            run.ctrl_crashes,
            run.failover_takeovers,
            run.epoch_bumps,
            run.reconcile_rerequests,
            run.stale_epoch_rejects,
        );
    }
}

/// Writes the flight-recorder dump for a violating (usually minimized)
/// scenario and prints where it went. A dump failure is reported but never
/// masks the violation that triggered it.
fn write_chaos_dump(scenario: &RunSpec, sabotage: Sabotage) {
    let dump = chaos::flight_dump(scenario, sabotage);
    match dump.write_to_dir(&FlightDump::default_dir(), &dump.stem()) {
        Ok(path) => eprintln!("  flight recorder dump: {}", path.display()),
        Err(e) => eprintln!("  flight recorder dump failed: {e}"),
    }
}

const CHAOS_FLAGS: Flags = (
    &["--seeds", "--replay"],
    &[
        "--crash",
        "--broken",
        "--broken-ttl",
        "--broken-epoch",
        "--recovery",
    ],
);

/// The seeded chaos harness: sample `--seeds` scenarios per buffer
/// mechanism, check every invariant, print a one-command replay (with a
/// greedily minimized fault plan) for each failure, and write a
/// flight-recorder dump of the minimized scenario to `results/flightrec/`.
/// `--recovery` swaps the random sweep for the fixed recovery matrix;
/// `--broken`/`--broken-ttl` sabotage the mechanism and invert the
/// expectation (self-test).
fn cmd_chaos(args: &[String]) -> Result<ExitCode, ParseError> {
    known_flags("chaos", args, CHAOS_FLAGS)?;
    let sabotage = Sabotage {
        disable_rerequest: args.iter().any(|a| a == "--broken"),
        disable_ttl_gc: args.iter().any(|a| a == "--broken-ttl"),
        broken_epoch: args.iter().any(|a| a == "--broken-epoch"),
    };
    let sabotaged = sabotage != Sabotage::none();
    let sabotage_flags = format!(
        "{}{}{}",
        if sabotage.disable_rerequest {
            "--broken "
        } else {
            ""
        },
        if sabotage.disable_ttl_gc {
            "--broken-ttl "
        } else {
            ""
        },
        if sabotage.broken_epoch {
            "--broken-epoch "
        } else {
            ""
        },
    );
    // A disabled epoch guard is only observable when controllers crash.
    let crash = args.iter().any(|a| a == "--crash") || sabotage.broken_epoch;

    if let Some(spec) = flag(args, "--replay")? {
        let scenario: RunSpec = spec.parse()?;
        let report = chaos::run_scenario(&scenario, sabotage);
        println!("scenario: {scenario}");
        println!("digest:   {:016x}", report.digest);
        println!(
            "delivered {}/{}  rerequests {}  giveups {}  expired {}  ctrl_drops {}  data_drops {}",
            report.result.packets_delivered,
            report.result.packets_sent,
            report.result.rerequests,
            report.result.buffer_giveups,
            report.result.buffer_expired,
            report.result.ctrl_drops,
            report.result.packets_dropped,
        );
        if report.result.ctrl_crashes > 0 {
            println!(
                "crashes {}  takeovers {}  epoch bumps {}  reconcile re-announces {}",
                report.result.ctrl_crashes,
                report.result.failover_takeovers,
                report.result.epoch_bumps,
                report.result.reconcile_rerequests,
            );
        }
        if report.violations.is_empty() {
            println!("ok: every invariant holds");
            return Ok(ExitCode::SUCCESS);
        }
        for v in &report.violations {
            println!("VIOLATION {v}");
        }
        write_chaos_dump(&scenario, sabotage);
        return Ok(ExitCode::FAILURE);
    }

    let mut failures = 0u64;
    let total: u64;
    // Every report's stream digest, hashed in sweep order: one value that
    // pins all of a seed sweep's event streams.
    let mut sweep_digest = None;
    if args.iter().any(|a| a == "--recovery") {
        let cells = chaos::recovery_matrix();
        total = cells.len() as u64;
        for (label, scenario) in &cells {
            let report = chaos::run_scenario(scenario, sabotage);
            println!(
                "recovery {label:<15} delivered {}/{}  rerequests {}  giveups {}  \
                 expired {}  degraded {}/{}",
                report.result.packets_delivered,
                report.result.packets_sent,
                report.result.rerequests,
                report.result.buffer_giveups,
                report.result.buffer_expired,
                report.result.degraded_entries,
                report.result.degraded_exits,
            );
            if report.violations.is_empty() {
                continue;
            }
            failures += 1;
            for v in &report.violations {
                eprintln!("  VIOLATION {v}");
            }
            let min = chaos::minimize(scenario, sabotage);
            eprintln!(
                "  replay: cargo run --release --bin sdnlab -- chaos {sabotage_flags}--replay '{min}'"
            );
            write_chaos_dump(&min, sabotage);
        }
    } else {
        let seeds = count_flag(args, "--seeds", 50)? as u64;
        let mut mechanisms = vec![
            BufferMode::PacketGranularity { capacity: 256 },
            BufferMode::FlowGranularity {
                capacity: 256,
                timeout: Nanos::from_millis(20),
            },
        ];
        if crash {
            // The crash plane's invariants (epoch monotonicity, handshake
            // before service, liveness) are mechanism-independent — sweep
            // the bufferless switch too.
            mechanisms.push(BufferMode::NoBuffer);
        }
        total = seeds * mechanisms.len() as u64;
        let digest = sweep_digest.insert(FNV_OFFSET);
        for mech in mechanisms {
            for seed in 0..seeds {
                let mut scenario = if crash {
                    RunSpec::generate_with_crashes(seed, mech)
                } else {
                    RunSpec::generate(seed, mech)
                };
                if sabotage.disable_ttl_gc {
                    // The generated sweep leaves the recovery knobs at
                    // their defaults; the TTL self-test needs one armed so
                    // the dead garbage collector is observable.
                    scenario.recovery.ttl = Nanos::from_millis(100);
                }
                let report = chaos::run_scenario(&scenario, sabotage);
                *digest = fnv1a(*digest, &report.digest.to_le_bytes());
                if report.violations.is_empty() {
                    continue;
                }
                failures += 1;
                eprintln!("seed {seed} [{}]:", mech.label());
                for v in &report.violations {
                    eprintln!("  VIOLATION {v}");
                }
                let min = chaos::minimize(&scenario, sabotage);
                eprintln!(
                    "  replay: cargo run --release --bin sdnlab -- chaos \
                     {sabotage_flags}--replay '{min}'"
                );
                write_chaos_dump(&min, sabotage);
            }
        }
    }

    if sabotaged {
        // Self-test: the crippled mechanism must be caught.
        let what = if sabotage.disable_rerequest {
            "disabled re-request loop"
        } else if sabotage.broken_epoch {
            "disabled session-epoch guard"
        } else {
            "disabled TTL garbage collector"
        };
        if failures == 0 {
            eprintln!("chaos {sabotage_flags}: no scenario caught the {what} — the harness has lost its teeth");
            return Ok(ExitCode::FAILURE);
        }
        println!(
            "chaos {sabotage_flags}: {failures} of {total} scenarios caught the {what} (expected)"
        );
        return Ok(ExitCode::SUCCESS);
    }
    if failures > 0 {
        eprintln!("chaos: {failures} scenarios violated invariants (replay commands above)");
        return Ok(ExitCode::FAILURE);
    }
    let pin = sweep_digest.map_or(String::new(), |d| format!(", sweep digest {d:016x}"));
    println!("chaos: {total} scenarios, every invariant holds{pin}");
    Ok(ExitCode::SUCCESS)
}

/// Parses `--cells`: comma-separated `MECH@RATE` pairs, reusing the
/// `--buffer` mechanism grammar (e.g. `none@20,packet:256@60`).
fn parse_cells(s: &str) -> Result<Vec<(BufferMode, u64)>, ParseError> {
    let mut cells = Vec::new();
    for part in s.split(',').filter(|p| !p.is_empty()) {
        let (mech, rate) = part
            .rsplit_once('@')
            .ok_or_else(|| ParseError(format!("expected MECH@RATE in '{part}'")))?;
        let rate = parse_rate_mbps(rate).map_err(|e| ParseError(format!("{e} in '{part}'")))?;
        cells.push((mech.parse()?, rate));
    }
    if cells.is_empty() {
        return Err(ParseError(format!("no cells in '{s}'")));
    }
    Ok(cells)
}

const VALIDATE_FLAGS: Flags = (
    &[
        "--report",
        "--tolerance",
        "--cells",
        "--flows",
        "--reps",
        "--seed",
        "--threads",
    ],
    &["--broken"],
);

/// The differential + metamorphic validation plane: sweep the Section IV
/// grid, compare every cell against the analytic oracle and check the
/// paper-derived metamorphic laws. `--broken` swaps in a deliberately
/// mis-derived oracle and inverts the expectation.
fn cmd_validate(args: &[String]) -> Result<ExitCode, ParseError> {
    known_flags("validate", args, VALIDATE_FLAGS)?;
    let mut config = ValidateConfig::default();
    if let Some(s) = flag(args, "--cells")? {
        config.cells = parse_cells(&s)?;
    }
    if let Some(s) = flag(args, "--tolerance")? {
        let pct: f64 = s
            .parse()
            .map_err(|_| ParseError(format!("bad tolerance '{s}'")))?;
        if !pct.is_finite() || pct <= 0.0 {
            return Err(ParseError(format!("tolerance must be positive, got '{s}'")));
        }
        config.tolerances = Tolerances::uniform(pct / 100.0);
    }
    config.flows = count_flag(args, "--flows", config.flows)?;
    config.repetitions = count_flag(args, "--reps", config.repetitions)?;
    if let Some(s) = flag(args, "--seed")? {
        config.base_seed = s
            .parse()
            .map_err(|_| ParseError(format!("bad seed '{s}'")))?;
    }
    config.parallelism = threads_flag(args)?;
    config.broken = args.iter().any(|a| a == "--broken");

    let report = validate::validate(&config);

    // Human-readable verdicts first, worst news at the bottom.
    for cell in &report.cells {
        let failed = cell.failures();
        let worst = cell
            .checks
            .iter()
            .max_by(|a, b| a.rel_err.total_cmp(&b.rel_err))
            .expect("every cell has checks");
        println!(
            "cell {:<16} {:>3} Mbps  {}  worst {:>6.2}% ({}){}",
            cell.label,
            cell.rate_mbps,
            if failed == 0 { "ok  " } else { "FAIL" },
            worst.rel_err * 100.0,
            worst.metric.name(),
            if cell.near_critical {
                "  [near-critical]"
            } else if cell.saturated {
                "  [saturated]"
            } else {
                ""
            },
        );
        for check in cell.checks.iter().filter(|c| !c.pass) {
            eprintln!(
                "  DIVERGED [{}]: simulated {:.4} vs predicted {:.4} \
                 ({:.2}% > {:.2}% tolerance)",
                check.metric.name(),
                check.simulated,
                check.predicted,
                check.rel_err * 100.0,
                check.tolerance * 100.0,
            );
        }
    }
    for law in &report.laws {
        println!(
            "law  {:<40} {}  {}",
            law.law,
            if law.holds { "holds" } else { "FAIL " },
            law.detail,
        );
    }

    let json_path = flag(args, "--report")?.unwrap_or_else(|| "results/validate.json".to_owned());
    let tsv_path = match json_path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.tsv"),
        None => format!("{json_path}.tsv"),
    };
    let mut w = create(&json_path)?;
    w.write_all(report.to_json().as_bytes())
        .and_then(|()| w.write_all(b"\n"))
        .map_err(|e| ParseError(format!("{json_path}: {e}")))?;
    let mut w = create(&tsv_path)?;
    w.write_all(report.to_tsv().as_bytes())
        .map_err(|e| ParseError(format!("{tsv_path}: {e}")))?;
    eprintln!("wrote {json_path} and {tsv_path}");

    if config.broken {
        // Self-test: the mis-derived oracle must be caught.
        if report.differential_failures() == 0 {
            eprintln!(
                "validate --broken: no cell caught the mis-derived oracle — \
                 the harness has lost its teeth"
            );
            return Ok(ExitCode::FAILURE);
        }
        println!(
            "validate --broken: {} of {} checks caught the mis-derived oracle (expected)",
            report.differential_failures(),
            report.checks(),
        );
        return Ok(ExitCode::SUCCESS);
    }
    if !report.passed() {
        eprintln!(
            "validate: {} differential failures, {} laws failed",
            report.differential_failures(),
            report.laws_failed(),
        );
        return Ok(ExitCode::FAILURE);
    }
    println!(
        "validate: {} checks across {} cells within tolerance, every law holds",
        report.checks(),
        report.cells.len(),
    );
    Ok(ExitCode::SUCCESS)
}

const SWEEP_FLAGS: Flags = (
    &["--section", "--reps", "--threads", "--events", "--timeline"],
    &["--latency-report"],
);

fn cmd_sweep(args: &[String]) -> Result<(), ParseError> {
    known_flags("sweep", args, SWEEP_FLAGS)?;
    let reps = count_flag(args, "--reps", 5)?;
    let threads = threads_flag(args)?;
    let section = flag(args, "--section")?.unwrap_or_else(|| "iv".to_owned());
    let events_path = flag(args, "--events")?;
    let timeline_path = flag(args, "--timeline")?;
    let latency_report = args.iter().any(|a| a == "--latency-report");
    let grid = match section.as_str() {
        "iv" => RateSweep::paper_section_iv(reps),
        "v" => RateSweep::paper_section_v(reps),
        other => return Err(ParseError(format!("unknown section '{other}'"))),
    };
    let sweep = if events_path.is_some() || timeline_path.is_some() || latency_report {
        let (sweep, runs) = grid.run_traced_with(threads, &StderrProgress::new("sweep"));
        if let Some(path) = &events_path {
            let mut w = create(path)?;
            let n = observe::export_sweep_jsonl(&runs, &mut w)
                .map_err(|e| ParseError(format!("{path}: {e}")))?;
            eprintln!("wrote {n} events to {path}");
        }
        if let Some(path) = &timeline_path {
            let mut w = create(path)?;
            observe::export_timeline(&runs, &mut w)
                .map_err(|e| ParseError(format!("{path}: {e}")))?;
            w.flush().map_err(|e| ParseError(format!("{path}: {e}")))?;
            eprintln!("wrote timeline to {path} (open at https://ui.perfetto.dev)");
        }
        if latency_report {
            let cells = spans::latency_by_cell(&runs);
            println!("{}", spans::sweep_latency_table(&cells));
        }
        sweep
    } else {
        grid.run_with(threads, &StderrProgress::new("sweep"))
    };
    println!("{}", figures::fig_control_load_to_controller(&sweep));
    println!("{}", figures::fig_controller_usage(&sweep));
    println!("{}", figures::fig_switch_usage(&sweep));
    println!("{}", figures::fig_flow_setup_delay(&sweep));
    println!("{}", figures::fig_buffer_utilization_mean(&sweep));
    Ok(())
}

const REPRO_FLAGS: Flags = (&["--reps", "--threads"], &[]);

/// Regenerates `results/`: every figure table, the summary claims, the
/// ablations, the TCP/UDP mix and the report, each table also on stdout.
fn cmd_repro(args: &[String]) -> Result<(), ParseError> {
    known_flags("repro", args, REPRO_FLAGS)?;
    let reps = count_flag(args, "--reps", 20)?;
    let threads = threads_flag(args)?;
    println!("# sdn-buffer-lab full reproduction ({reps} repetitions per cell)\n");
    repro::write(
        "results".as_ref(),
        reps,
        threads,
        &mut std::io::stdout().lock(),
    )
    .map_err(|e| ParseError(format!("results/: {e}")))?;
    eprintln!("wrote results/");
    Ok(())
}

/// Runs the subcommand `args` names.
fn dispatch(args: &[String]) -> Result<ExitCode, ParseError> {
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("repro") => cmd_repro(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("help") | Some("--help") | Some("-h") | None => {
            println!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(ParseError(format!("unknown command '{other}'"))),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(ParseError(msg)) => {
            eprintln!("error: {msg}\n\n{}", usage());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_buffer_lab::controller::AdmissionPolicy;
    use sdn_buffer_lab::switchbuf::RetryPolicy;

    #[test]
    fn buffer_parsing() {
        let parse_buffer = |s: &str| s.parse::<BufferMode>();
        assert_eq!(parse_buffer("none").unwrap(), BufferMode::NoBuffer);
        assert_eq!(
            parse_buffer("packet:16").unwrap(),
            BufferMode::PacketGranularity { capacity: 16 }
        );
        assert_eq!(
            parse_buffer("flow:256").unwrap(),
            BufferMode::FlowGranularity {
                capacity: 256,
                timeout: Nanos::from_millis(50)
            }
        );
        assert_eq!(
            parse_buffer("flow:64:20").unwrap(),
            BufferMode::FlowGranularity {
                capacity: 64,
                timeout: Nanos::from_millis(20)
            }
        );
        assert!(parse_buffer("bogus").is_err());
        assert!(parse_buffer("packet:x").is_err());
        assert!(parse_buffer("flow:1:y").is_err());
    }

    #[test]
    fn workload_parsing() {
        let parse_workload = |s: &str| s.parse::<WorkloadKind>();
        assert_eq!(
            parse_workload("iv").unwrap(),
            WorkloadKind::paper_section_iv()
        );
        assert_eq!(
            parse_workload("v").unwrap(),
            WorkloadKind::paper_section_v()
        );
        assert_eq!(
            parse_workload("single:42").unwrap(),
            WorkloadKind::single_packet_flows(42)
        );
        assert_eq!(
            parse_workload("cross:10x5/2").unwrap(),
            WorkloadKind::CrossSequenced {
                n_flows: 10,
                packets_per_flow: 5,
                group_size: 2
            }
        );
        assert!(parse_workload("nope").is_err());
        assert!(parse_workload("cross:10").is_err());
        let zero_group = parse_workload("cross:5x5/0").unwrap_err();
        assert!(zero_group.contains("group size"), "{zero_group}");
    }

    #[test]
    fn duration_parsing() {
        assert_eq!(parse_dur("10ms").unwrap(), Nanos::from_millis(10));
        assert_eq!(parse_dur("10").unwrap(), Nanos::from_millis(10));
        assert_eq!(parse_dur("500us").unwrap(), Nanos::from_micros(500));
        assert_eq!(parse_dur("3s").unwrap(), Nanos::from_secs(3));
        assert_eq!(parse_dur("7ns").unwrap(), Nanos::from_nanos(7));
        assert!(parse_dur("fast").is_err());
        assert!(parse_dur("10m").is_err());
    }

    fn args(line: &str) -> Vec<String> {
        line.split(' ').map(str::to_owned).collect()
    }

    /// `--threads` reads `Parallelism`'s own grammar, the one
    /// `SDNBUF_THREADS` is read in (`executor::tests` tests that side).
    #[test]
    fn parallelism_parsing() {
        let threads = |t: &str| threads_flag(&args(&format!("--threads {t}")));
        assert_eq!(threads("serial").unwrap(), Parallelism::Serial);
        assert_eq!(threads("auto").unwrap(), Parallelism::Auto);
        assert_eq!(threads("1").unwrap(), Parallelism::Fixed(1));
        assert_eq!(threads("6").unwrap(), Parallelism::Fixed(6));
        assert!(threads("lots").is_err());
        assert!(threads("0").is_err());
    }

    #[test]
    fn retry_policy_parsing() {
        let retry =
            |p: &str| run_spec(&args(&format!("--retry-policy {p}"))).map(|s| s.recovery.retry);
        assert_eq!(retry("fixed").unwrap(), RetryPolicy::Fixed);
        assert_eq!(
            retry("backoff").unwrap(),
            RetryPolicy::backoff(Nanos::from_millis(400), 0)
        );
        assert_eq!(
            retry("backoff:200:4").unwrap(),
            RetryPolicy::backoff(Nanos::from_millis(200), 4)
        );
        assert_eq!(
            retry("backoff:160ms:2:drop").unwrap(),
            RetryPolicy::Backoff {
                cap: Nanos::from_millis(160),
                budget: 2,
                give_up: sdn_buffer_lab::switchbuf::GiveUp::Drop,
            }
        );
        assert!(retry("linear").is_err());
        assert!(retry("backoff:200:4:explode").is_err());
        assert!(retry("backoff:200:4:drop:1").is_err());
        assert!(retry("2:1ms:0ns:0:drain:0").is_err());
    }

    #[test]
    fn admission_parsing() {
        let admission = |a: &str| run_spec(&args(&format!("--admission {a}"))).map(|s| s.admission);
        assert_eq!(
            admission("drop-tail:64").unwrap(),
            Some((AdmissionPolicy::DropTail, 64))
        );
        assert_eq!(
            admission("prefer-rerequests:8").unwrap(),
            Some((AdmissionPolicy::PreferRerequests, 8))
        );
        assert!(admission("drop-tail").is_err());
        assert!(admission("drop-tail:0").is_err());
        assert!(admission("fifo:8").is_err());
        assert!(admission("drop-head:x").is_err());
    }

    /// What a `run --dump-on-exit` dump holds, replayed through the chaos
    /// harness: a plain cell, a `--faults` cell, CI's failover cell and the
    /// same cell with the crash plane's heartbeat left implied. The dump's
    /// spec is the whole run, so the replay lands on the dump's digest.
    #[test]
    fn a_run_dump_replays_to_its_digest() {
        let failover = "--buffer flow:256:20 --workload cross:6x4/2 --rate 40 \
                        --faults crash=60ms+40ms --standby warm:8ms";
        for (line, pinned) in [
            ("--buffer packet:16 --workload single:40 --rate 100", None),
            (
                "--buffer flow:256:20 --workload cross:6x4/2 --rate 40 \
                 --faults fseed=7,c.loss=p:0.2 --retry-policy backoff:200:4 --ttl 250 \
                 --degraded 3 --admission prefer-rerequests:4",
                None,
            ),
            (
                &format!("{failover} --keepalive 5ms --liveness-timeout 15ms"),
                Some(0xa766_d307_ff91_1f21),
            ),
            (failover, Some(0xa766_d307_ff91_1f21)),
        ] {
            let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
            let spec = run_spec(&argv).unwrap();
            let (run, events) = Experiment::try_new(spec.config()).unwrap().run_traced();
            let dump = FlightDump::capture(DumpReason::Exit, &spec, &events, Some(&run));
            let replayed: RunSpec = dump.spec.parse().expect(&dump.spec);
            let report = chaos::run_scenario(&replayed, Sabotage::none());
            assert_eq!(report.digest, dump.digest, "{}", dump.spec);
            assert_eq!(report.result, run, "{}", dump.spec);
            if let Some(digest) = pinned {
                assert_eq!(dump.digest, digest, "{}", dump.spec);
            }
        }
    }

    #[test]
    fn cells_parsing() {
        assert_eq!(
            parse_cells("none@20,packet:256@60").unwrap(),
            vec![
                (BufferMode::NoBuffer, 20),
                (BufferMode::PacketGranularity { capacity: 256 }, 60),
            ]
        );
        assert_eq!(
            parse_cells("flow:256:50@100").unwrap(),
            vec![(
                BufferMode::FlowGranularity {
                    capacity: 256,
                    timeout: Nanos::from_millis(50)
                },
                100
            )]
        );
        assert!(parse_cells("none").is_err());
        assert!(parse_cells("none@fast").is_err());
        assert!(parse_cells("").is_err());
    }

    /// Each of these, unchecked, panics or misbehaves mid-run: probes
    /// scheduled at t = 0 until memory runs out, `sample_series`'s assert,
    /// `BitRate`'s zero-rate assert, a bit rate that wraps a `u64`, the
    /// cross-sequenced generator's zero-group assert, the oracle's
    /// zero-flow assert, and sweeps or validations over zero repetitions. A
    /// flag its subcommand does not read would be ignored, and its default
    /// run. `ci.yml` runs the same inputs against the release binary.
    #[test]
    fn bad_inputs_are_refused_before_anything_runs() {
        for (args, named) in [
            (
                "run --buffr none --rat 60",
                "sdnlab run does not take '--buffr'",
            ),
            (
                "run --buffer none --rat 60",
                "sdnlab run does not take '--rat'",
            ),
            ("run none", "sdnlab run does not take 'none'"),
            ("sweep --check", "sdnlab sweep does not take '--check'"),
            ("claims", "unknown command 'claims'"),
            (
                "repro --rates coarse",
                "sdnlab repro does not take '--rates'",
            ),
            (
                "validate --seeds 3",
                "sdnlab validate does not take '--seeds'",
            ),
            (
                "validate --random 50",
                "sdnlab validate does not take '--random'",
            ),
            ("chaos --seed 3", "sdnlab chaos does not take '--seed'"),
            ("run --keepalive 0", "keepalive interval"),
            ("run --sample-every 0us", "'0us'"),
            ("run --rate 0", "'0'"),
            ("run --rate 18446744073710", "'18446744073710'"),
            ("run --workload cross:5x5/0", "'cross:5x5/0'"),
            (
                "run --workload cross:1x65537/1",
                "at most 65536 packets per flow, got 65537 in 'cross:1x65537/1'",
            ),
            (
                "run --workload single:8388609",
                "at most 8388608 flows with forged sources, got 8388609",
            ),
            (
                "run --workload mixed:1:25537:1",
                "at most 25536 TCP connections, got 25537 in 'mixed:1:25537:1'",
            ),
            ("sweep --reps 0", "--reps must be at least 1, got '0'"),
            ("repro --reps 0", "--reps must be at least 1, got '0'"),
            ("validate --reps 0", "--reps must be at least 1, got '0'"),
            ("validate --flows 0", "--flows must be at least 1, got '0'"),
            ("validate --cells none@0", "'0' in 'none@0'"),
            ("chaos --replay mech=none,wl=single:3,rate=0,seed=1", "'0'"),
            (
                "chaos --replay mech=none,wl=cross:5x5/0,rate=1,seed=1",
                "'cross:5x5/0'",
            ),
            (
                "chaos --replay mech=none,wl=single:3,rate=1,seed=1,frame=65536",
                "frame size must be 1 to 65535 bytes, got 65536",
            ),
            (
                "run --standby warm --takeover-delay 8ms",
                "sdnlab run does not take '--takeover-delay'",
            ),
            ("chaos --seeds 0", "--seeds must be at least 1, got '0'"),
            (
                "run --admission drop-tail:0",
                "bad admission capacity in 'drop-tail:0' (at least 1)",
            ),
            (
                "run --retry-policy 2:1ms:0ns:0:drain:0",
                "bad retry policy '2:1ms:0ns:0:drain:0'",
            ),
        ] {
            let argv: Vec<String> = args.split(' ').map(str::to_owned).collect();
            match dispatch(&argv) {
                Ok(code) => panic!("`{args}` ran and exited {code:?}"),
                Err(ParseError(message)) => {
                    assert!(message.contains(named), "`{args}`: {message}");
                }
            }
        }
    }

    /// Every subcommand's flag lists, the ones the subcommand itself reads.
    const COMMANDS: [(&str, Flags); 5] = [
        ("run", RUN_FLAGS),
        ("sweep", SWEEP_FLAGS),
        ("chaos", CHAOS_FLAGS),
        ("validate", VALIDATE_FLAGS),
        ("repro", REPRO_FLAGS),
    ];

    /// One shell line as its commands, each a list of words. Quotes group
    /// and are dropped; an unquoted `;`, `|`, `&` or `>` ends a command; a
    /// word that starts with `#` ends the line.
    fn shell_commands(line: &str) -> Vec<Vec<String>> {
        let (mut commands, mut words, mut word) = (Vec::new(), Vec::new(), None::<String>);
        let mut quote = None;
        for c in line.chars() {
            match quote {
                Some(q) if c == q => quote = None,
                Some(_) => word.get_or_insert_with(String::new).push(c),
                None if c == '\'' || c == '"' => {
                    quote = Some(c);
                    word.get_or_insert_with(String::new);
                }
                None if c.is_whitespace() => words.extend(word.take()),
                None if ";|&>".contains(c) => {
                    words.extend(word.take());
                    commands.push(std::mem::take(&mut words));
                }
                None if c == '#' && word.is_none() => break,
                None => word.get_or_insert_with(String::new).push(c),
            }
        }
        words.extend(word);
        commands.push(words);
        commands
    }

    /// The file stems of the `.rs` files in `dir`.
    fn rs_stems(dir: &std::path::Path) -> Vec<String> {
        let entries = std::fs::read_dir(dir).expect("a source directory");
        let paths = entries.map(|e| e.expect("a directory entry").path());
        paths
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
            .collect()
    }

    /// The commands the docs show still run: each `sdnlab <cmd> …` (or
    /// `cargo run … --bin sdnlab -- <cmd> …`) in a fenced block passes
    /// `<cmd>`'s own flag lists, and each `-p`, `--bin` and `--example`
    /// names a package, binary or example of this workspace. Words before
    /// the command (`VAR=value`, `do`) and words a shell would expand
    /// (`$…`) are left out.
    #[test]
    fn documented_commands_name_what_exists() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut manifests = vec![root.join("Cargo.toml")];
        for dir in ["crates", "vendor"] {
            for entry in std::fs::read_dir(root.join(dir)).unwrap() {
                manifests.push(entry.unwrap().path().join("Cargo.toml"));
            }
        }
        let packages: Vec<String> = manifests
            .iter()
            .filter_map(|m| {
                let text = std::fs::read_to_string(m).ok()?;
                let name = text.lines().find_map(|l| l.strip_prefix("name = "))?;
                Some(name.trim_matches('"').to_owned())
            })
            .collect();
        let bins = rs_stems(&root.join("src/bin"));
        let examples = rs_stems(&root.join("examples"));
        let (mut stale, mut checked) = (Vec::new(), 0);
        for doc in [
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            ".claude/skills/verify/SKILL.md",
        ] {
            let text = std::fs::read_to_string(root.join(doc)).unwrap();
            let (mut fenced, mut joined, mut start) = (false, String::new(), 0);
            for (n, line) in text.lines().enumerate() {
                if line.trim_start().starts_with("```") {
                    fenced = !fenced;
                    continue;
                }
                if !fenced {
                    continue;
                }
                if joined.is_empty() {
                    start = n + 1;
                }
                if let Some(head) = line.strip_suffix('\\') {
                    joined.push_str(head);
                    continue;
                }
                joined.push_str(line);
                let mut problem = |what: String| stale.push(format!("{doc}:{start}: {what}"));
                for words in shell_commands(&std::mem::take(&mut joined)) {
                    let is_sdnlab = |w: &str| w == "sdnlab" || w.ends_with("/sdnlab");
                    let words: Vec<&str> = words
                        .iter()
                        .map(String::as_str)
                        .filter(|w| !w.starts_with('$'))
                        .skip_while(|&w| w != "cargo" && !is_sdnlab(w))
                        .collect();
                    let sdnlab_args = match words.first() {
                        Some(&"cargo") => {
                            let (cargo, rest) = match words.iter().position(|&w| w == "--") {
                                Some(i) => (&words[..i], &words[i + 1..]),
                                None => (&words[..], &[][..]),
                            };
                            for pair in cargo.windows(2) {
                                let known = match pair[0] {
                                    "-p" | "--package" => &packages,
                                    "--bin" => &bins,
                                    "--example" => &examples,
                                    _ => continue,
                                };
                                if !known.iter().any(|k| k == pair[1]) {
                                    problem(format!("{} {} does not exist", pair[0], pair[1]));
                                }
                            }
                            if !cargo.windows(2).any(|p| p == ["--bin", "sdnlab"]) {
                                continue;
                            }
                            rest
                        }
                        Some(&w) if is_sdnlab(w) => &words[1..],
                        _ => continue,
                    };
                    let Some((&cmd, args)) = sdnlab_args.split_first() else {
                        continue;
                    };
                    let args: Vec<String> = args.iter().map(|&a| a.to_owned()).collect();
                    checked += 1;
                    match COMMANDS.iter().find(|(name, _)| *name == cmd) {
                        Some(&(_, flags)) => {
                            if let Err(ParseError(e)) = known_flags(cmd, &args, flags) {
                                problem(e);
                            }
                        }
                        None => problem(format!("sdnlab has no command '{cmd}'")),
                    }
                }
            }
        }
        assert!(stale.is_empty(), "{}", stale.join("\n"));
        assert!(checked > 0, "no sdnlab command found in the docs");
    }

    #[test]
    fn flag_extraction() {
        let args: Vec<String> = ["--rate", "80", "--seed", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag(&args, "--rate").unwrap(), Some("80".to_owned()));
        assert_eq!(flag(&args, "--seed").unwrap(), Some("3".to_owned()));
        assert_eq!(flag(&args, "--missing").unwrap(), None);
        let bad: Vec<String> = vec!["--rate".to_owned()];
        assert!(flag(&bad, "--rate").is_err());
    }
}
