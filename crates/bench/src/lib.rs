//! Shared driver code for the figure-reproduction binaries.
//!
//! `repro_all` runs the paper's sweeps (Section IV and V), renders every
//! figure's data series as an aligned text table on stdout, and writes the
//! same series as TSV under `results/`; `ablations` and `tcp_udp_mix` do
//! the same for their studies.
//!
//! Repetitions default to 20, the paper's procedure (20 repetitions per
//! rate) and the setting the committed `results/` were generated with; set
//! `SDNBUF_REPS` lower for quick runs. `SDNBUF_RATES=coarse` halves the
//! rate grid for smoke runs. Sweeps run on the parallel
//! executor; `SDNBUF_THREADS=serial|auto|N` picks the worker count
//! (default: one per CPU — results are identical either way).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sdnbuf_core::{Parallelism, RateSweep, StderrProgress, SweepResult};
use sdnbuf_metrics::Table;
use std::path::PathBuf;

/// Repetitions per (mechanism, rate) cell: `SDNBUF_REPS`, default 20 (the
/// paper's procedure, and what the committed `results/` use).
pub fn reps_from_env() -> usize {
    std::env::var("SDNBUF_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or(20)
}

/// Rate grid: the paper's 5–100 Mbps in 5 Mbps steps, or 10 Mbps steps
/// when `SDNBUF_RATES=coarse`.
pub fn rates_from_env() -> Vec<u64> {
    match std::env::var("SDNBUF_RATES").as_deref() {
        Ok("coarse") => (1..=10).map(|i| i * 10).collect(),
        _ => RateSweep::paper_rates(),
    }
}

/// Runs `sweep` on the executor with the env-selected rate grid and
/// worker count, reporting progress on stderr.
pub fn run_sweep(mut sweep: RateSweep, name: &str) -> SweepResult {
    sweep.rates_mbps = rates_from_env();
    let parallelism = Parallelism::from_env();
    let cells = sweep.buffers.len() * sweep.rates_mbps.len();
    eprintln!(
        "[{name}] running {} cells x {} repetitions on {} worker(s) ...",
        cells,
        sweep.repetitions,
        parallelism.worker_count(),
    );
    sweep.run_with(parallelism, &StderrProgress::new(name))
}

/// Runs the Section IV sweep (no-buffer / buffer-16 / buffer-256, 1000
/// single-packet flows).
pub fn section_iv(reps: usize) -> SweepResult {
    run_sweep(RateSweep::paper_section_iv(reps), "section-iv")
}

/// Runs the Section V sweep (packet- vs flow-granularity, 50×20 packets).
pub fn section_v(reps: usize) -> SweepResult {
    run_sweep(RateSweep::paper_section_v(reps), "section-v")
}

/// Directory the TSVs go to: `results/` beside the workspace root.
pub fn results_dir() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop(); // crates/
    dir.pop(); // workspace root
    dir.push("results");
    dir
}

/// Prints a figure table and writes it to `results/<name>.tsv`.
pub fn emit(name: &str, title: &str, table: &Table) {
    println!("== {title} ==");
    println!("{table}");
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.tsv"));
    match std::fs::write(&path, table.to_tsv()) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_reps_is_positive() {
        assert!(reps_from_env() > 0);
    }

    #[test]
    fn paper_rate_grid_is_5_to_100() {
        let rates = RateSweep::paper_rates();
        assert_eq!(rates.first(), Some(&5));
        assert_eq!(rates.last(), Some(&100));
        assert_eq!(rates.len(), 20);
    }

    #[test]
    fn results_dir_is_under_workspace() {
        assert!(results_dir().ends_with("results"));
    }
}
