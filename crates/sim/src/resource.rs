//! A non-preemptive multi-core CPU model with busy-time accounting.

use crate::Nanos;

/// Busy-time accounting for a modeled resource.
///
/// The paper measures "controller usages" and "switch usages" as the CPU
/// utilization of the Floodlight/OVS processes via `top`, which on a
/// multi-core machine can exceed 100 %. [`Utilization::percent`] reproduces
/// that convention: total busy time across all cores divided by wall time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Utilization {
    busy: Nanos,
}

impl Utilization {
    /// Total busy time accumulated across all cores.
    pub fn busy(&self) -> Nanos {
        self.busy
    }

    /// `top`-style utilization over `[ZERO, horizon]`, in percent. With `n`
    /// cores fully busy this reports `n × 100`.
    pub fn percent(&self, horizon: Nanos) -> f64 {
        if horizon == Nanos::ZERO {
            return 0.0;
        }
        100.0 * self.busy.as_nanos() as f64 / horizon.as_nanos() as f64
    }

    fn add(&mut self, service: Nanos) {
        self.busy += service;
    }
}

/// A multi-core, non-preemptive FIFO compute resource.
///
/// Jobs submitted with [`CpuResource::submit`] run to completion on the core
/// that frees up first. The returned completion time already includes any
/// queueing delay — this queueing is what makes controller and switch delays
/// blow up at high sending rates in the reproduction, exactly as the paper
/// observes for the no-buffer configuration.
///
/// # Example
///
/// ```
/// use sdnbuf_sim::{CpuResource, Nanos};
/// let mut cpu = CpuResource::new(2);
/// let a = cpu.submit(Nanos::ZERO, Nanos::from_micros(10));
/// let b = cpu.submit(Nanos::ZERO, Nanos::from_micros(10));
/// let c = cpu.submit(Nanos::ZERO, Nanos::from_micros(10));
/// assert_eq!(a, Nanos::from_micros(10)); // core 0
/// assert_eq!(b, Nanos::from_micros(10)); // core 1
/// assert_eq!(c, Nanos::from_micros(20)); // waited for a core
/// ```
///
/// `CpuResource::default()` has no core: it is the shell
/// [`CpuResource::reset`] gives cores to, and it takes no job until then.
#[derive(Clone, Debug, Default)]
pub struct CpuResource {
    cores: Vec<Nanos>,
    utilization: Utilization,
    jobs: u64,
}

impl CpuResource {
    /// Creates an idle CPU with `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: usize) -> Self {
        let mut cpu = CpuResource::default();
        cpu.reset(cores);
        cpu
    }

    /// Makes this CPU the idle `cores`-core one [`CpuResource::new`]
    /// builds, keeping the storage of its core vector and nothing else.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn reset(&mut self, cores: usize) {
        assert!(cores > 0, "a CPU needs at least one core");
        let mut free_at = std::mem::take(&mut self.cores);
        free_at.clear();
        free_at.reserve_exact(cores);
        free_at.resize(cores, Nanos::ZERO);
        *self = CpuResource {
            cores: free_at,
            utilization: Utilization::default(),
            jobs: 0,
        };
    }

    /// Submits a job of length `service` at time `now`; returns its absolute
    /// completion time (including queueing for a free core).
    pub fn submit(&mut self, now: Nanos, service: Nanos) -> Nanos {
        let core = self.earliest_core();
        let start = self.cores[core].max(now);
        let done = start + service;
        self.cores[core] = done;
        self.utilization.add(service);
        self.jobs += 1;
        done
    }

    /// How long a job submitted at `now` would wait before starting.
    pub fn queue_delay(&self, now: Nanos) -> Nanos {
        let core = self.earliest_core();
        self.cores[core].saturating_sub(now)
    }

    /// Number of jobs whose completion lies in the future of `now` — a cheap
    /// proxy for instantaneous load.
    pub fn busy_cores(&self, now: Nanos) -> usize {
        self.cores.iter().filter(|&&c| c > now).count()
    }

    /// Accumulated busy-time accounting.
    pub fn utilization(&self) -> Utilization {
        self.utilization
    }

    /// Total jobs ever submitted.
    pub fn jobs_submitted(&self) -> u64 {
        self.jobs
    }

    fn earliest_core(&self) -> usize {
        self.cores
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .map(|(i, _)| i)
            .expect("at least one core")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_core_serializes() {
        let mut cpu = CpuResource::new(1);
        let a = cpu.submit(Nanos::ZERO, Nanos::from_micros(5));
        let b = cpu.submit(Nanos::ZERO, Nanos::from_micros(5));
        assert_eq!(a, Nanos::from_micros(5));
        assert_eq!(b, Nanos::from_micros(10));
    }

    #[test]
    fn multi_core_runs_in_parallel() {
        let mut cpu = CpuResource::new(4);
        for _ in 0..4 {
            assert_eq!(
                cpu.submit(Nanos::ZERO, Nanos::from_micros(7)),
                Nanos::from_micros(7)
            );
        }
        // Fifth job queues.
        assert_eq!(
            cpu.submit(Nanos::ZERO, Nanos::from_micros(7)),
            Nanos::from_micros(14)
        );
    }

    #[test]
    fn idle_gap_is_not_counted_busy() {
        let mut cpu = CpuResource::new(1);
        cpu.submit(Nanos::ZERO, Nanos::from_micros(10));
        cpu.submit(Nanos::from_millis(1), Nanos::from_micros(10));
        assert_eq!(cpu.utilization().busy(), Nanos::from_micros(20));
    }

    #[test]
    fn utilization_percent_top_style() {
        let mut cpu = CpuResource::new(2);
        cpu.submit(Nanos::ZERO, Nanos::from_micros(100));
        cpu.submit(Nanos::ZERO, Nanos::from_micros(100));
        // Both cores fully busy for the whole horizon: 200 %.
        let pct = cpu.utilization().percent(Nanos::from_micros(100));
        assert!((pct - 200.0).abs() < 1e-9);
        assert_eq!(cpu.utilization().percent(Nanos::ZERO), 0.0);
    }

    #[test]
    fn queue_delay_reflects_backlog() {
        let mut cpu = CpuResource::new(1);
        assert_eq!(cpu.queue_delay(Nanos::ZERO), Nanos::ZERO);
        cpu.submit(Nanos::ZERO, Nanos::from_micros(30));
        assert_eq!(cpu.queue_delay(Nanos::ZERO), Nanos::from_micros(30));
        assert_eq!(
            cpu.queue_delay(Nanos::from_micros(10)),
            Nanos::from_micros(20)
        );
        assert_eq!(cpu.queue_delay(Nanos::from_micros(50)), Nanos::ZERO);
    }

    #[test]
    fn busy_cores_counts_in_flight_work() {
        let mut cpu = CpuResource::new(3);
        cpu.submit(Nanos::ZERO, Nanos::from_micros(10));
        cpu.submit(Nanos::ZERO, Nanos::from_micros(20));
        assert_eq!(cpu.busy_cores(Nanos::from_micros(5)), 2);
        assert_eq!(cpu.busy_cores(Nanos::from_micros(15)), 1);
        assert_eq!(cpu.busy_cores(Nanos::from_micros(25)), 0);
    }

    #[test]
    fn jobs_counted() {
        let mut cpu = CpuResource::new(2);
        for _ in 0..5 {
            cpu.submit(Nanos::ZERO, Nanos::from_nanos(1));
        }
        assert_eq!(cpu.jobs_submitted(), 5);
    }

    #[test]
    fn a_reset_cpu_is_a_new_one_with_the_storage_kept() {
        let mut cpu = CpuResource::new(4);
        cpu.submit(Nanos::ZERO, Nanos::from_micros(10));
        let storage = cpu.cores.as_ptr();
        cpu.reset(2);
        assert_eq!((cpu.cores.as_ptr(), cpu.cores.len()), (storage, 2));
        assert_eq!(
            (cpu.jobs_submitted(), cpu.utilization()),
            (0, Utilization::default())
        );
        assert_eq!(cpu.queue_delay(Nanos::ZERO), Nanos::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = CpuResource::new(0);
    }
}
