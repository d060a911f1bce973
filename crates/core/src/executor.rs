//! Parallel sweep executor: a zero-dependency worker pool that fans
//! independent jobs out across threads and merges results back in
//! deterministic submission order.
//!
//! Every sweep cell is an independent, seeded, single-threaded DES run, so
//! the grid is embarrassingly parallel: the executor hands job indices to
//! workers through a shared atomic counter, each worker writes its result
//! into the job's dedicated slot, and the caller receives `Vec<T>` in job
//! order — bit-identical to a serial loop, regardless of worker count or
//! scheduling. This module is the **one intentionally threaded component**
//! of the workspace; everything it runs is `&self`/owned and shares nothing.
//!
//! Progress flows through a [`ProgressSink`] (a `Sync` observer, since
//! completions arrive from many threads), and per-worker cell timings are
//! aggregated into [`sdnbuf_metrics::Summary`] values in the final
//! [`ExecutorReport`].

use sdnbuf_metrics::Summary;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How many workers a sweep may use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Parallelism {
    /// One worker per available CPU (`std::thread::available_parallelism`).
    Auto,
    /// Exactly `n` workers (clamped to at least 1).
    Fixed(usize),
    /// Run on the calling thread, no workers spawned.
    Serial,
}

impl Parallelism {
    /// The number of workers this policy resolves to on this machine.
    pub fn worker_count(&self) -> usize {
        match *self {
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Serial => 1,
        }
    }

    /// Reads the `SDNBUF_THREADS` environment variable in the
    /// [`FromStr`](std::str::FromStr) grammar. Unset or unparsable values
    /// mean [`Self::Auto`] — the sweep grid is deterministic under any
    /// worker count, so parallel is always safe.
    pub fn from_env() -> Parallelism {
        std::env::var("SDNBUF_THREADS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(Parallelism::Auto)
    }
}

/// `serial`, `auto`, or a worker count of at least 1 (`1` is
/// `Fixed(1)`, which runs on the calling thread just as `serial` does).
impl std::str::FromStr for Parallelism {
    type Err = String;

    fn from_str(s: &str) -> Result<Parallelism, String> {
        match s {
            "serial" => Ok(Parallelism::Serial),
            "auto" => Ok(Parallelism::Auto),
            n => match n.parse() {
                Ok(0) | Err(_) => Err(format!(
                    "bad thread count '{s}' (serial, auto or a count of at least 1)"
                )),
                Ok(n) => Ok(Parallelism::Fixed(n)),
            },
        }
    }
}

/// A progress snapshot, delivered after each completed run.
#[derive(Clone, Copy, Debug)]
pub struct Progress {
    /// Completed runs.
    pub done: usize,
    /// Total runs in the sweep.
    pub total: usize,
    /// Fully completed (all repetitions done) sweep cells.
    pub cells_done: usize,
    /// Total sweep cells.
    pub cells_total: usize,
    /// Wall-clock since the sweep started.
    pub elapsed: Duration,
    /// Estimated remaining wall-clock, once at least one run finished.
    pub eta: Option<Duration>,
    /// Index of the worker that finished the run (0-based).
    pub worker: usize,
}

/// What one worker did, for the final report.
#[derive(Clone, Debug)]
pub struct WorkerStats {
    /// Worker index (0-based).
    pub worker: usize,
    /// Jobs this worker completed.
    pub jobs: usize,
    /// Total busy time across those jobs.
    pub busy: Duration,
    /// Per-job wall-clock in seconds.
    pub job_seconds: Summary,
}

/// End-of-sweep accounting.
#[derive(Clone, Debug)]
pub struct ExecutorReport {
    /// Workers the policy resolved to.
    pub workers: usize,
    /// Wall-clock of the whole sweep.
    pub wall: Duration,
    /// Per-worker statistics, indexed by worker.
    pub worker_stats: Vec<WorkerStats>,
}

impl ExecutorReport {
    /// Sum of busy time across workers — the serial-equivalent cost. The
    /// ratio `busy_total / wall` is the achieved speedup.
    pub fn busy_total(&self) -> Duration {
        self.worker_stats.iter().map(|w| w.busy).sum()
    }
}

/// Observer of sweep progress. Implementations must be `Sync`: completions
/// are reported from worker threads (serialized by the executor, so calls
/// never overlap and `done` is strictly increasing).
pub trait ProgressSink: Sync {
    /// Called after every completed run.
    fn on_progress(&self, _progress: &Progress) {}

    /// Called once, after the last run merged.
    fn on_finish(&self, _report: &ExecutorReport) {}
}

/// Discards all progress.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl ProgressSink for NullSink {}

/// Every closure over [`Progress`] is a sink (e.g.
/// `&|p: &Progress| eprintln!("{}/{}", p.done, p.total)`).
impl<F: Fn(&Progress) + Sync> ProgressSink for F {
    fn on_progress(&self, progress: &Progress) {
        self(progress)
    }
}

/// A `\r`-rewriting stderr progress line: done/total runs, cells, elapsed
/// and ETA, plus a per-worker timing summary at the end.
#[derive(Debug)]
pub struct StderrProgress {
    name: String,
}

impl StderrProgress {
    /// Sink labelling its lines with `name`.
    pub fn new(name: impl Into<String>) -> StderrProgress {
        StderrProgress { name: name.into() }
    }
}

impl ProgressSink for StderrProgress {
    fn on_progress(&self, p: &Progress) {
        use std::io::Write as _;
        let eta = match p.eta {
            Some(eta) => format!(" eta {:.1}s", eta.as_secs_f64()),
            None => String::new(),
        };
        eprint!(
            "\r[{}] {}/{} runs ({}/{} cells) {:.1}s{}   ",
            self.name,
            p.done,
            p.total,
            p.cells_done,
            p.cells_total,
            p.elapsed.as_secs_f64(),
            eta,
        );
        let _ = std::io::stderr().flush();
        if p.done == p.total {
            eprintln!();
        }
    }

    fn on_finish(&self, report: &ExecutorReport) {
        let speedup = if report.wall.as_secs_f64() > 0.0 {
            report.busy_total().as_secs_f64() / report.wall.as_secs_f64()
        } else {
            1.0
        };
        eprintln!(
            "[{}] {} workers, wall {:.1}s, busy {:.1}s ({speedup:.1}x)",
            self.name,
            report.workers,
            report.wall.as_secs_f64(),
            report.busy_total().as_secs_f64(),
        );
        for w in &report.worker_stats {
            if w.jobs > 0 {
                eprintln!(
                    "[{}]   worker {}: {} runs, busy {:.1}s, per-run mean {:.1} ms (max {:.1} ms)",
                    self.name,
                    w.worker,
                    w.jobs,
                    w.busy.as_secs_f64(),
                    w.job_seconds.mean * 1e3,
                    w.job_seconds.max * 1e3,
                );
            }
        }
    }
}

/// The worker pool. Stateless apart from its policy; `run` may be called
/// any number of times.
#[derive(Clone, Copy, Debug)]
pub struct Executor {
    parallelism: Parallelism,
}

impl Executor {
    /// An executor with the given worker policy.
    pub fn new(parallelism: Parallelism) -> Executor {
        Executor { parallelism }
    }

    /// Runs `jobs` invocations of `job(index)` and returns the results in
    /// index order. `observe(index, worker, elapsed)` is called after each
    /// job under an internal lock (calls never overlap).
    ///
    /// Ordering guarantee: the returned vector is `[job(0), job(1), …]`
    /// regardless of which worker ran which index — callers see exactly
    /// the serial result.
    pub fn run<T, F, O>(&self, jobs: usize, job: F, observe: O) -> (Vec<T>, ExecutorReport)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
        O: Fn(usize, usize, Duration) + Sync,
    {
        let workers = self.parallelism.worker_count().min(jobs.max(1));
        let started = Instant::now();
        if workers <= 1 {
            let mut times = Vec::with_capacity(jobs);
            let out = (0..jobs)
                .map(|i| {
                    let t0 = Instant::now();
                    let r = job(i);
                    let dt = t0.elapsed();
                    times.push(dt);
                    observe(i, 0, dt);
                    r
                })
                .collect();
            return (out, Self::report(1, started.elapsed(), vec![times]));
        }

        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
        let observe_lock = Mutex::new(());
        let per_worker_times: Vec<Mutex<Vec<Duration>>> =
            (0..workers).map(|_| Mutex::new(Vec::new())).collect();

        std::thread::scope(|s| {
            for w in 0..workers {
                let next = &next;
                let slots = &slots;
                let observe_lock = &observe_lock;
                let per_worker_times = &per_worker_times;
                let job = &job;
                let observe = &observe;
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs {
                        break;
                    }
                    let t0 = Instant::now();
                    let result = job(i);
                    let dt = t0.elapsed();
                    *slots[i].lock().expect("result slot poisoned") = Some(result);
                    per_worker_times[w]
                        .lock()
                        .expect("timing vec poisoned")
                        .push(dt);
                    let _serialized = observe_lock.lock().expect("observer lock poisoned");
                    observe(i, w, dt);
                });
            }
        });

        let out: Vec<T> = slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot poisoned")
                    .expect("every job index below `jobs` is claimed exactly once")
            })
            .collect();
        let times: Vec<Vec<Duration>> = per_worker_times
            .into_iter()
            .map(|m| m.into_inner().expect("timing vec poisoned"))
            .collect();
        (out, Self::report(workers, started.elapsed(), times))
    }

    fn report(workers: usize, wall: Duration, times: Vec<Vec<Duration>>) -> ExecutorReport {
        let worker_stats = times
            .into_iter()
            .enumerate()
            .map(|(worker, times)| {
                let secs: Vec<f64> = times.iter().map(Duration::as_secs_f64).collect();
                WorkerStats {
                    worker,
                    jobs: times.len(),
                    busy: times.iter().sum(),
                    job_seconds: Summary::of(&secs),
                }
            })
            .collect();
        ExecutorReport {
            workers,
            wall,
            worker_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order_under_parallelism() {
        for parallelism in [
            Parallelism::Serial,
            Parallelism::Fixed(2),
            Parallelism::Fixed(4),
            Parallelism::Fixed(9),
        ] {
            let (out, report) = Executor::new(parallelism).run(100, |i| i * i, |_, _, _| {});
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
            let jobs: usize = report.worker_stats.iter().map(|w| w.jobs).sum();
            assert_eq!(jobs, 100);
        }
    }

    #[test]
    fn observer_sees_every_job_exactly_once() {
        let seen = Mutex::new(vec![false; 50]);
        Executor::new(Parallelism::Fixed(4)).run(
            50,
            |i| i,
            |i, _, _| {
                let mut seen = seen.lock().unwrap();
                assert!(!seen[i], "job {i} observed twice");
                seen[i] = true;
            },
        );
        assert!(seen.into_inner().unwrap().iter().all(|&b| b));
    }

    #[test]
    fn worker_count_clamps_to_jobs_and_floor_one() {
        assert_eq!(Parallelism::Fixed(0).worker_count(), 1);
        assert!(Parallelism::Auto.worker_count() >= 1);
        let (_, report) = Executor::new(Parallelism::Fixed(8)).run(3, |i| i, |_, _, _| {});
        assert!(report.workers <= 3);
    }

    #[test]
    fn report_accounts_busy_time() {
        let (_, report) = Executor::new(Parallelism::Fixed(2)).run(
            8,
            |_| std::thread::sleep(Duration::from_millis(2)),
            |_, _, _| {},
        );
        assert!(report.busy_total() >= Duration::from_millis(16));
        for w in &report.worker_stats {
            assert_eq!(w.job_seconds.n, w.jobs);
        }
    }

    #[test]
    fn one_grammar_for_the_flag_and_the_environment() {
        for (s, parsed) in [
            ("serial", Parallelism::Serial),
            ("auto", Parallelism::Auto),
            ("1", Parallelism::Fixed(1)),
            ("6", Parallelism::Fixed(6)),
        ] {
            assert_eq!(s.parse(), Ok(parsed), "{s}");
        }
        for bad in ["0", "lots", "-1", ""] {
            assert!(bad.parse::<Parallelism>().is_err(), "{bad}");
        }
        // Nothing else in this crate reads the variable; restore it for
        // whoever set it.
        let saved = std::env::var_os("SDNBUF_THREADS");
        for (value, parsed) in [
            (Some("1"), Parallelism::Fixed(1)),
            (Some("serial"), Parallelism::Serial),
            (Some("lots"), Parallelism::Auto),
            (None, Parallelism::Auto),
        ] {
            match value {
                Some(v) => std::env::set_var("SDNBUF_THREADS", v),
                None => std::env::remove_var("SDNBUF_THREADS"),
            }
            assert_eq!(Parallelism::from_env(), parsed, "{value:?}");
        }
        match saved {
            Some(v) => std::env::set_var("SDNBUF_THREADS", v),
            None => std::env::remove_var("SDNBUF_THREADS"),
        }
    }

    #[test]
    fn zero_jobs_is_fine() {
        let (out, report) = Executor::new(Parallelism::Auto).run(0, |i| i, |_, _, _| {});
        assert!(out.is_empty());
        assert_eq!(report.worker_stats.iter().map(|w| w.jobs).sum::<usize>(), 0);
    }
}
