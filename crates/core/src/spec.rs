//! One run description: [`RunSpec`].
//!
//! `sdnlab run`'s flags, `sdnlab chaos --replay`, the chaos generators
//! and every flight dump describe a run with this one record. `Display` prints it as one line of `key=value` pairs:
//! `mech`, `wl`, `rate` and `seed` always, then `frame`, `retry`, `ttl`,
//! `degraded`, `admission`, `standby`, `keepalive`, `liveness` and the fault
//! plan's keys ([`FaultPlan::to_spec`]) where they differ from the defaults.
//! `FromStr` restores the value exactly, through [`RunSpec::set`], the
//! per-key setter `sdnlab run` applies its flags with. [`RunSpec::config`]
//! turns a spec into the run's [`ExperimentConfig`] and is the one place a
//! default is implied.

use crate::invariants::RecoveryKnobs;
use crate::{
    parse_rate_mbps, BufferMode, ExperimentConfig, FailoverConfig, TestbedConfig, WorkloadKind,
};
use sdnbuf_controller::AdmissionPolicy;
use sdnbuf_sim::faults::{fmt_dur, parse_dur};
use sdnbuf_sim::{BitRate, FaultPlan, Nanos};
use std::fmt;
use std::str::FromStr;

/// Standby-failover knobs a run can arm on its testbed.
/// `Display` prints `<warm|cold>:<delay>`; `FromStr` also takes a bare
/// `warm` / `cold`, with [`FailoverConfig`]'s default delay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StandbyKnobs {
    /// Warm (snapshot-synced) or cold (empty tables) takeover.
    pub warm: bool,
    /// Delay between the primary's crash and the standby's takeover.
    pub takeover_delay: Nanos,
}

impl fmt::Display for StandbyKnobs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sync = if self.warm { "warm" } else { "cold" };
        write!(f, "{sync}:{}", fmt_dur(self.takeover_delay))
    }
}

impl FromStr for StandbyKnobs {
    type Err = String;

    fn from_str(s: &str) -> Result<StandbyKnobs, String> {
        let (sync, delay) = s.split_once(':').map_or((s, None), |(a, b)| (a, Some(b)));
        let warm = match sync {
            "warm" => true,
            "cold" => false,
            other => return Err(format!("bad standby sync '{other}' (warm or cold)")),
        };
        let takeover_delay = match delay {
            Some(delay) => parse_dur(delay)?,
            None => FailoverConfig::default().takeover_delay,
        };
        Ok(StandbyKnobs {
            warm,
            takeover_delay,
        })
    }
}

/// One run: everything needed to reproduce it.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    /// Buffer mechanism under test (`mech=`).
    pub mech: BufferMode,
    /// Offered workload (`wl=`).
    pub workload: WorkloadKind,
    /// Sending rate in Mbps (`rate=`).
    pub rate_mbps: u64,
    /// Workload seed: the departures' jitter (`seed=`).
    pub seed: u64,
    /// Ethernet frame size in bytes (`frame=`).
    pub frame_size: usize,
    /// The fault plan (its own keys).
    pub plan: FaultPlan,
    /// Recovery-plane switch knobs (`retry=`, `ttl=`, `degraded=`).
    pub recovery: RecoveryKnobs,
    /// A bounded controller ingress queue, its policy and capacity ≥ 1
    /// (`admission=<policy>:<capacity>`); `None` leaves it unbounded.
    pub admission: Option<(AdmissionPolicy, usize)>,
    /// Warm-standby failover (`standby=`); `None` means the primary
    /// restarts itself at each crash window's end.
    pub standby: Option<StandbyKnobs>,
    /// Controller keepalive interval (`keepalive=`); `None` leaves it to
    /// [`RunSpec::config`].
    pub keepalive: Option<Nanos>,
    /// Silence after which the switch suspects its controller dead
    /// (`liveness=`); `None` leaves it to [`RunSpec::config`].
    pub liveness: Option<Nanos>,
}

impl Default for RunSpec {
    /// `sdnlab run` with no flags: a 256-unit packet-granularity buffer
    /// under [`ExperimentConfig::default`]'s workload, rate, seed and frame
    /// size, no faults.
    fn default() -> RunSpec {
        let run = ExperimentConfig::default();
        RunSpec {
            mech: BufferMode::PacketGranularity { capacity: 256 },
            workload: run.workload,
            rate_mbps: run.sending_rate.as_bps() / 1_000_000,
            seed: run.seed,
            frame_size: run.frame_size,
            plan: FaultPlan::default(),
            recovery: RecoveryKnobs::default(),
            admission: None,
            standby: None,
            keepalive: None,
            liveness: None,
        }
    }
}

impl RunSpec {
    /// The run's configuration: the calibrated testbed with every knob the
    /// spec sets.
    ///
    /// This is the one place a default is implied: a plan with crash
    /// windows gets a 5 ms keepalive and a 15 ms liveness timeout unless
    /// the spec sets them, because the crash plane needs a heartbeat to
    /// miss. Without crash windows the channel stays measurement-only, as
    /// in the paper.
    pub fn config(&self) -> ExperimentConfig {
        let mut testbed = TestbedConfig::default();
        testbed.switch.retry = self.recovery.retry;
        testbed.switch.buffer_ttl = self.recovery.ttl;
        testbed.switch.degraded_threshold = self.recovery.degraded_threshold;
        testbed.controller.admission = self.admission;
        if let Some(standby) = self.standby {
            testbed.failover = FailoverConfig {
                standby: true,
                takeover_delay: standby.takeover_delay,
                warm: standby.warm,
            };
        }
        let crashes = self.plan.has_crashes();
        testbed.keepalive_interval = self.keepalive.or(crashes.then(|| Nanos::from_millis(5)));
        if let Some(timeout) = self.liveness.or(crashes.then(|| Nanos::from_millis(15))) {
            testbed.switch.liveness_timeout = timeout;
        }
        testbed.faults = self.plan.clone();
        ExperimentConfig {
            buffer: self.mech,
            workload: self.workload,
            sending_rate: BitRate::from_mbps(self.rate_mbps),
            frame_size: self.frame_size,
            seed: self.seed,
            testbed,
        }
    }

    /// Applies one `key=value` pair of the spec grammar. Keys the spec does
    /// not own go to [`FaultPlan::apply_kv`].
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        let number = |what: &str| format!("bad {what} '{value}'");
        match key {
            "mech" => self.mech = value.parse()?,
            "wl" => self.workload = value.parse()?,
            "rate" => self.rate_mbps = parse_rate_mbps(value)?,
            "seed" => self.seed = value.parse().map_err(|_| number("seed"))?,
            "frame" => self.frame_size = value.parse().map_err(|_| number("frame size"))?,
            "retry" => self.recovery.retry = value.parse()?,
            "ttl" => self.recovery.ttl = parse_dur(value)?,
            "degraded" => {
                self.recovery.degraded_threshold =
                    value.parse().map_err(|_| number("degraded threshold"))?;
            }
            "admission" => {
                let (policy, capacity) = value
                    .split_once(':')
                    .ok_or_else(|| format!("expected <policy>:<capacity> in '{value}'"))?;
                let capacity =
                    capacity.parse().ok().filter(|&c| c > 0).ok_or_else(|| {
                        format!("bad admission capacity in '{value}' (at least 1)")
                    })?;
                self.admission = Some((policy.parse()?, capacity));
            }
            "standby" => self.standby = Some(value.parse()?),
            "keepalive" => self.keepalive = Some(parse_dur(value)?),
            "liveness" => self.liveness = Some(parse_dur(value)?),
            _ => {
                if !self.plan.apply_kv(key, value)? {
                    return Err(format!("unknown run-spec key '{key}'"));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for RunSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (mech, wl, rate, seed) = (self.mech, self.workload, self.rate_mbps, self.seed);
        write!(f, "mech={mech},wl={wl},rate={rate},seed={seed}")?;
        let quiet = RecoveryKnobs::default();
        if self.frame_size != ExperimentConfig::default().frame_size {
            write!(f, ",frame={}", self.frame_size)?;
        }
        if self.recovery.retry != quiet.retry {
            write!(f, ",retry={}", self.recovery.retry)?;
        }
        if self.recovery.ttl != quiet.ttl {
            write!(f, ",ttl={}", fmt_dur(self.recovery.ttl))?;
        }
        if self.recovery.degraded_threshold != quiet.degraded_threshold {
            write!(f, ",degraded={}", self.recovery.degraded_threshold)?;
        }
        if let Some((policy, capacity)) = self.admission {
            write!(f, ",admission={policy}:{capacity}")?;
        }
        if let Some(standby) = self.standby {
            write!(f, ",standby={standby}")?;
        }
        if let Some(interval) = self.keepalive {
            write!(f, ",keepalive={}", fmt_dur(interval))?;
        }
        if let Some(timeout) = self.liveness {
            write!(f, ",liveness={}", fmt_dur(timeout))?;
        }
        let plan = self.plan.to_spec();
        if !plan.is_empty() {
            write!(f, ",{plan}")?;
        }
        Ok(())
    }
}

/// Applies each comma-separated `key=value` with [`RunSpec::set`] over
/// [`RunSpec::default`]. The four keys `Display` always prints (`mech`,
/// `wl`, `rate`, `seed`) are required, so a truncated spec is refused
/// rather than run with defaults; so is a spec whose run
/// [`ExperimentConfig::validate`] refuses: a spec that parses, runs.
impl FromStr for RunSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<RunSpec, String> {
        const REQUIRED: [&str; 4] = ["mech", "wl", "rate", "seed"];
        let mut seen = [false; REQUIRED.len()];
        let mut spec = RunSpec::default();
        for part in s.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got '{part}'"))?;
            spec.set(key, value)?;
            if let Some(i) = REQUIRED.iter().position(|&k| k == key) {
                seen[i] = true;
            }
        }
        if let Some(i) = seen.iter().position(|&seen| !seen) {
            return Err(format!("spec is missing {}=", REQUIRED[i]));
        }
        spec.config().validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_windows_imply_a_heartbeat_unless_the_spec_sets_one() {
        let plain: RunSpec = "mech=none,wl=single:3,rate=10,seed=1".parse().unwrap();
        let testbed = plain.config().testbed;
        assert_eq!(testbed.keepalive_interval, None);
        assert_eq!(testbed.switch.liveness_timeout, Nanos::ZERO);

        let crash = RunSpec {
            plan: FaultPlan::parse("crash=60ms+40ms").unwrap(),
            ..plain
        };
        let testbed = crash.config().testbed;
        assert_eq!(testbed.keepalive_interval, Some(Nanos::from_millis(5)));
        assert_eq!(testbed.switch.liveness_timeout, Nanos::from_millis(15));

        let set = RunSpec {
            keepalive: Some(Nanos::from_millis(2)),
            liveness: Some(Nanos::ZERO),
            ..crash
        };
        let testbed = set.config().testbed;
        assert_eq!(testbed.keepalive_interval, Some(Nanos::from_millis(2)));
        assert_eq!(testbed.switch.liveness_timeout, Nanos::ZERO);
    }

    #[test]
    fn a_spec_that_parses_runs() {
        const RUN: &str = "mech=packet:256,wl=single:1000,rate=50,seed=1";
        for (keys, named) in [
            ("mech=packet:0", "capacity"),
            ("keepalive=0", "keepalive interval"),
            ("frame=0", "frame size"),
            ("frame=65536", "frame size"),
            ("retry=2:1ms:0ns:0:drain:0", "retry policy"),
            ("c.loss=nth:1", "every-nth"),
            ("admission=fifo:8", "admission policy"),
            ("admission=drop-tail", "<policy>:<capacity>"),
            ("admission=drop-tail:0", "at least 1"),
            ("frame=1000,zz=1", "'zz'"),
        ] {
            let spec = format!("{RUN},{keys}");
            let err = spec.parse::<RunSpec>().unwrap_err();
            assert!(err.contains(named), "{spec}: {err}");
        }
        assert_eq!(RUN.parse(), Ok(RunSpec::default()));
    }

    #[test]
    fn a_spec_names_its_mech_workload_rate_and_seed() {
        for (spec, missing) in [
            ("", "mech="),
            ("wl=single:3,rate=10,seed=1", "mech="),
            ("mech=none,rate=10,seed=1", "wl="),
            ("mech=none,wl=single:3,seed=1", "rate="),
            ("mech=none,wl=single:3,rate=10", "seed="),
        ] {
            let err = spec.parse::<RunSpec>().unwrap_err();
            assert!(err.contains(missing), "{spec}: {err}");
        }
    }
}
