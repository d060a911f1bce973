//! Deterministic fault-injection plans for the control and data planes.
//!
//! A [`FaultPlan`] is a declarative description of everything that may go
//! wrong during a run: per-direction control-channel loss (deterministic
//! every-Nth or seeded-probabilistic), added delay and jitter, duplication,
//! reordering, controller processing stalls, data-link flaps, and
//! buffer-capacity pressure windows. The runtime side, [`FaultState`],
//! answers per-message queries using the engine's own [`SimRng`], so a run
//! under any plan remains a **pure function of `(config, seed)`** — the
//! property the chaos harness's one-command replay rests on.
//!
//! Plans serialize to a compact `key=value` spec string
//! ([`FaultPlan::to_spec`] / [`FaultPlan::parse`]) that round-trips exactly,
//! so a failing scenario can be reproduced byte-identically from one line.

use crate::events::ChannelDir;
use crate::rng::SimRng;
use crate::time::Nanos;

/// How messages are selected for loss on one control-channel direction.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum LossModel {
    /// No loss.
    #[default]
    None,
    /// Drop every `n`-th message (deterministic, counter-based).
    EveryNth(u64),
    /// Drop each message independently with probability `p`, drawn from
    /// the plan's seeded RNG.
    Probabilistic(f64),
}

impl LossModel {
    /// `true` when no message can be dropped.
    pub fn is_none(&self) -> bool {
        matches!(self, LossModel::None) || matches!(self, LossModel::Probabilistic(p) if *p <= 0.0)
    }

    fn validate(&self) -> Result<(), String> {
        match *self {
            LossModel::None => Ok(()),
            LossModel::EveryNth(n) if n < 2 => Err(format!(
                "every-nth loss requires n >= 2 (got {n}: n = 0 has no \
                 meaning and n = 1 drops every message, so the \
                 flow-granularity re-request loop could never terminate)"
            )),
            LossModel::EveryNth(_) => Ok(()),
            LossModel::Probabilistic(p) if !(0.0..1.0).contains(&p) => Err(format!(
                "loss probability must be in [0, 1) (got {p}; 1.0 would \
                 drop every message)"
            )),
            LossModel::Probabilistic(_) => Ok(()),
        }
    }
}

/// Faults applied to one direction of the control channel.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ChannelFaults {
    /// Message loss.
    pub loss: LossModel,
    /// Fixed extra one-way delay added after the link's own
    /// serialization + propagation.
    pub delay: Nanos,
    /// Uniform random extra delay in `[0, jitter]`, drawn per message.
    pub jitter: Nanos,
    /// Probability that a delivered message is duplicated (the copy takes
    /// a second trip over the link).
    pub duplicate: f64,
    /// Probability that a delivered message is held back by
    /// [`ChannelFaults::reorder_by`], letting later messages overtake it.
    pub reorder: f64,
    /// How long a reordered message is held back.
    pub reorder_by: Nanos,
}

impl ChannelFaults {
    /// `true` when this direction is completely clean.
    pub fn is_clean(&self) -> bool {
        self.loss.is_none()
            && self.delay == Nanos::ZERO
            && self.jitter == Nanos::ZERO
            && self.duplicate <= 0.0
            && self.reorder <= 0.0
    }

    fn validate(&self, dir: &str) -> Result<(), String> {
        self.loss.validate().map_err(|e| format!("{dir}: {e}"))?;
        for (name, p) in [("duplicate", self.duplicate), ("reorder", self.reorder)] {
            if !(0.0..1.0).contains(&p) {
                return Err(format!(
                    "{dir}: {name} probability must be in [0, 1), got {p}"
                ));
            }
        }
        if self.reorder > 0.0 && self.reorder_by == Nanos::ZERO {
            return Err(format!(
                "{dir}: reorder probability is set but reorder_by is zero \
                 (a zero hold-back cannot reorder anything)"
            ));
        }
        Ok(())
    }
}

/// A half-open time window `[from, until)` during which a fault is active.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Window {
    /// When the fault switches on.
    pub from: Nanos,
    /// When it switches off (exclusive).
    pub until: Nanos,
}

impl Window {
    /// The window `[from, until)`.
    pub fn new(from: Nanos, until: Nanos) -> Window {
        Window { from, until }
    }

    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: Nanos) -> bool {
        self.from <= t && t < self.until
    }

    fn validate(&self, what: &str) -> Result<(), String> {
        if self.until <= self.from {
            return Err(format!(
                "{what} window must end after it starts (got [{}, {}))",
                self.from, self.until
            ));
        }
        Ok(())
    }
}

/// A complete, composable fault-injection plan — the testbed's only
/// loss-injection API.
///
/// The default plan injects nothing and costs one branch per potential
/// fault site. All randomized choices come from a dedicated [`SimRng`]
/// stream seeded by [`FaultPlan::seed`], independent of the workload seed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault RNG stream (probabilistic loss, jitter,
    /// duplication, reordering draws).
    pub seed: u64,
    /// Channel faults only apply at or after this instant. Useful to keep
    /// the OpenFlow handshake and ARP warm-up clean while still battering
    /// the measurement window.
    pub active_from: Nanos,
    /// Faults on switch → controller messages.
    pub to_controller: ChannelFaults,
    /// Faults on controller → switch messages.
    pub to_switch: ChannelFaults,
    /// Controller processing stalls: messages arriving inside a window are
    /// not handled until it ends (they burst out at `until`).
    pub stalls: Vec<Window>,
    /// Data-link flaps: data frames entering any host↔switch link inside a
    /// window are dropped.
    pub flaps: Vec<Window>,
    /// Buffer-capacity pressure: while active, the switch's buffer
    /// mechanism refuses new units and falls back to full-packet
    /// `packet_in`s, as if the buffer memory were exhausted.
    pub pressure: Vec<Window>,
    /// Controller crashes: at a window's start the **primary** controller
    /// dies and drops *all* volatile state (pending `packet_in`s, the
    /// admission queue, partially computed rules) — unlike a stall, which
    /// parks messages and preserves state. Messages addressed to a dead
    /// controller are lost. At the window's end the controller restarts,
    /// bumps its session epoch, and re-runs the OpenFlow handshake (unless
    /// a warm standby already took over).
    pub crashes: Vec<Window>,
    /// Crashes of the **standby** controller. Only observable after a
    /// failover made the standby active; it restarts (with another epoch
    /// bump) at the window's end.
    pub crashes_standby: Vec<Window>,
}

impl FaultPlan {
    /// The legacy knob's semantics on the new plane: drop every `n`-th
    /// message, counted per direction.
    pub fn every_nth_loss(n: u64) -> FaultPlan {
        FaultPlan {
            to_controller: ChannelFaults {
                loss: LossModel::EveryNth(n),
                ..ChannelFaults::default()
            },
            to_switch: ChannelFaults {
                loss: LossModel::EveryNth(n),
                ..ChannelFaults::default()
            },
            ..FaultPlan::default()
        }
    }

    /// `true` when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.to_controller.is_clean()
            && self.to_switch.is_clean()
            && self.stalls.is_empty()
            && self.flaps.is_empty()
            && self.pressure.is_empty()
            && self.crashes.is_empty()
            && self.crashes_standby.is_empty()
    }

    /// `true` when the plan contains controller crash windows (primary or
    /// standby) — the signal that arms the crash/failover plane.
    pub fn has_crashes(&self) -> bool {
        !self.crashes.is_empty() || !self.crashes_standby.is_empty()
    }

    /// `true` when the plan can destroy data packets outside the control
    /// channel (link flaps) or force unbuffered full-packet `packet_in`s
    /// (pressure). When `false`, the flow-granularity mechanism's
    /// re-request timeout guarantees eventual delivery for any loss < 100%
    /// — the chaos harness's sharpest invariant.
    pub fn disturbs_data(&self) -> bool {
        !self.flaps.is_empty() || !self.pressure.is_empty()
    }

    /// Checks every knob for consistency. Called by the testbed at
    /// construction; invalid plans never run.
    pub fn validate(&self) -> Result<(), String> {
        self.to_controller.validate("to_controller")?;
        self.to_switch.validate("to_switch")?;
        for w in &self.stalls {
            w.validate("stall")?;
        }
        for w in &self.flaps {
            w.validate("flap")?;
        }
        for w in &self.pressure {
            w.validate("pressure")?;
        }
        for w in &self.crashes {
            w.validate("crash")?;
        }
        for w in &self.crashes_standby {
            w.validate("crash_standby")?;
        }
        Ok(())
    }

    /// Serializes the plan to its compact spec string (empty for the
    /// default plan). [`FaultPlan::parse`] round-trips it exactly.
    pub fn to_spec(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        if self.seed != 0 {
            parts.push(format!("fseed={}", self.seed));
        }
        if self.active_from != Nanos::ZERO {
            parts.push(format!("from={}", fmt_dur(self.active_from)));
        }
        channel_spec("c", &self.to_controller, &mut parts);
        channel_spec("s", &self.to_switch, &mut parts);
        for (key, windows) in [
            ("stall", &self.stalls),
            ("flap", &self.flaps),
            ("press", &self.pressure),
            ("crash", &self.crashes),
            ("crash_standby", &self.crashes_standby),
        ] {
            for w in windows {
                parts.push(format!(
                    "{key}={}+{}",
                    fmt_dur(w.from),
                    fmt_dur(w.until - w.from)
                ));
            }
        }
        parts.join(",")
    }

    /// Parses a spec string produced by [`FaultPlan::to_spec`].
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got '{part}'"))?;
            if !plan.apply_kv(key, value)? {
                return Err(format!("unknown fault-plan key '{key}'"));
            }
        }
        plan.validate()?;
        Ok(plan)
    }

    /// Applies one `key=value` pair from a spec string; returns `false`
    /// when the key does not belong to the fault plan (so callers that
    /// embed plan specs in larger specs can dispatch their own keys).
    pub fn apply_kv(&mut self, key: &str, value: &str) -> Result<bool, String> {
        match key {
            "fseed" => {
                self.seed = value.parse().map_err(|_| format!("bad fseed '{value}'"))?;
            }
            "from" => self.active_from = parse_dur(value)?,
            "stall" => self.stalls.push(parse_window(value)?),
            "flap" => self.flaps.push(parse_window(value)?),
            "press" => self.pressure.push(parse_window(value)?),
            "crash" => self.crashes.push(parse_window(value)?),
            "crash_standby" => self.crashes_standby.push(parse_window(value)?),
            _ => {
                let (dir, field) = key
                    .split_once('.')
                    .ok_or(())
                    .map_err(|()| format!("unknown fault-plan key '{key}'"))
                    .or(Err(format!("unknown fault-plan key '{key}'")))?;
                let ch = match dir {
                    "c" => &mut self.to_controller,
                    "s" => &mut self.to_switch,
                    _ => return Ok(false),
                };
                match field {
                    "loss" => ch.loss = parse_loss(value)?,
                    "delay" => ch.delay = parse_dur(value)?,
                    "jitter" => ch.jitter = parse_dur(value)?,
                    "dup" => {
                        ch.duplicate = value.parse().map_err(|_| format!("bad dup '{value}'"))?;
                    }
                    "reorder" => {
                        let (p, by) = value
                            .split_once(':')
                            .ok_or_else(|| format!("expected reorder=<p>:<dur>, got '{value}'"))?;
                        ch.reorder = p
                            .parse()
                            .map_err(|_| format!("bad reorder probability '{p}'"))?;
                        ch.reorder_by = parse_dur(by)?;
                    }
                    _ => return Ok(false),
                }
            }
        }
        Ok(true)
    }
}

fn channel_spec(prefix: &str, f: &ChannelFaults, parts: &mut Vec<String>) {
    match f.loss {
        LossModel::None => {}
        LossModel::EveryNth(n) => parts.push(format!("{prefix}.loss=nth:{n}")),
        LossModel::Probabilistic(p) => parts.push(format!("{prefix}.loss=p:{p}")),
    }
    if f.delay != Nanos::ZERO {
        parts.push(format!("{prefix}.delay={}", fmt_dur(f.delay)));
    }
    if f.jitter != Nanos::ZERO {
        parts.push(format!("{prefix}.jitter={}", fmt_dur(f.jitter)));
    }
    if f.duplicate > 0.0 {
        parts.push(format!("{prefix}.dup={}", f.duplicate));
    }
    if f.reorder > 0.0 {
        parts.push(format!(
            "{prefix}.reorder={}:{}",
            f.reorder,
            fmt_dur(f.reorder_by)
        ));
    }
}

fn parse_loss(s: &str) -> Result<LossModel, String> {
    if let Some(n) = s.strip_prefix("nth:") {
        return n
            .parse()
            .map(LossModel::EveryNth)
            .map_err(|_| format!("bad every-nth count '{n}'"));
    }
    if let Some(p) = s.strip_prefix("p:") {
        return p
            .parse()
            .map(LossModel::Probabilistic)
            .map_err(|_| format!("bad loss probability '{p}'"));
    }
    if s == "none" {
        return Ok(LossModel::None);
    }
    Err(format!("bad loss model '{s}' (expected nth:<n> or p:<f>)"))
}

fn parse_window(s: &str) -> Result<Window, String> {
    let (from, dur) = s
        .split_once('+')
        .ok_or_else(|| format!("expected <start>+<duration>, got '{s}'"))?;
    let from = parse_dur(from)?;
    let dur = parse_dur(dur)?;
    Ok(Window::new(from, from + dur))
}

/// Formats a duration with the largest unit that divides it exactly, so
/// [`parse_dur`] round-trips the value bit-for-bit.
pub fn fmt_dur(d: Nanos) -> String {
    let ns = d.as_nanos();
    if ns == 0 {
        "0ms".to_owned()
    } else if ns % 1_000_000_000 == 0 {
        format!("{}s", ns / 1_000_000_000)
    } else if ns % 1_000_000 == 0 {
        format!("{}ms", ns / 1_000_000)
    } else if ns % 1_000 == 0 {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

/// Parses `10ms` / `500us` / `2s` / `7ns`; plain numbers are milliseconds.
pub fn parse_dur(s: &str) -> Result<Nanos, String> {
    let s = s.trim();
    let split = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    let (num, unit) = s.split_at(split);
    let v: u64 = num.parse().map_err(|_| format!("bad duration '{s}'"))?;
    match unit {
        "" | "ms" => Ok(Nanos::from_millis(v)),
        "us" => Ok(Nanos::from_micros(v)),
        "ns" => Ok(Nanos::from_nanos(v)),
        "s" => Ok(Nanos::from_secs(v)),
        _ => Err(format!("bad duration unit in '{s}'")),
    }
}

/// What the fault plane decided for one control message.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CtrlEffect {
    /// The message is dropped before entering the link.
    pub dropped: bool,
    /// Extra delay added after the link's own arrival time (fixed delay +
    /// jitter + reorder hold-back).
    pub extra_delay: Nanos,
    /// A duplicate copy must take a second trip over the link.
    pub duplicate: bool,
}

/// The runtime of a [`FaultPlan`]: per-direction loss counters and the
/// seeded RNG stream. One per testbed, rebuilt per run.
///
/// Draw order per message is fixed (loss → jitter → duplicate → reorder)
/// and knobs left at their defaults consume **no** randomness, so adding a
/// fault never perturbs the draws of unrelated ones.
#[derive(Clone, Debug)]
pub struct FaultState {
    plan: FaultPlan,
    rng: SimRng,
    nth_to_controller: u64,
    nth_to_switch: u64,
}

/// The runtime of the empty plan: no fault ever fires.
impl Default for FaultState {
    fn default() -> Self {
        FaultState::new(FaultPlan::default())
    }
}

impl FaultState {
    /// Builds the runtime for a (validated) plan.
    pub fn new(plan: FaultPlan) -> FaultState {
        let rng = SimRng::seed_from(plan.seed);
        FaultState {
            plan,
            rng,
            nth_to_controller: 0,
            nth_to_switch: 0,
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decides the fate of one control message sent at `now` in direction
    /// `dir`. Deterministic: the decision stream is a pure function of the
    /// plan and the message order.
    pub fn ctrl_effect(&mut self, now: Nanos, dir: ChannelDir) -> CtrlEffect {
        if now < self.plan.active_from {
            return CtrlEffect::default();
        }
        let f = match dir {
            ChannelDir::ToController => self.plan.to_controller,
            ChannelDir::ToSwitch => self.plan.to_switch,
        };
        match f.loss {
            LossModel::None => {}
            LossModel::EveryNth(n) => {
                let counter = match dir {
                    ChannelDir::ToController => &mut self.nth_to_controller,
                    ChannelDir::ToSwitch => &mut self.nth_to_switch,
                };
                *counter += 1;
                if *counter % n == 0 {
                    return CtrlEffect {
                        dropped: true,
                        ..CtrlEffect::default()
                    };
                }
            }
            LossModel::Probabilistic(p) => {
                if self.rng.next_f64() < p {
                    return CtrlEffect {
                        dropped: true,
                        ..CtrlEffect::default()
                    };
                }
            }
        }
        let mut extra = f.delay;
        if f.jitter > Nanos::ZERO {
            extra += Nanos::from_nanos(self.rng.gen_range(f.jitter.as_nanos() + 1));
        }
        let duplicate = f.duplicate > 0.0 && self.rng.next_f64() < f.duplicate;
        if f.reorder > 0.0 && self.rng.next_f64() < f.reorder {
            extra += f.reorder_by;
        }
        CtrlEffect {
            dropped: false,
            extra_delay: extra,
            duplicate,
        }
    }

    /// If the controller is stalled at `now`, when it resumes; `None`
    /// when it is processing normally.
    pub fn stall_resume(&self, now: Nanos) -> Option<Nanos> {
        self.plan
            .stalls
            .iter()
            .find(|w| w.contains(now))
            .map(|w| w.until)
    }

    /// Whether the data links are flapped (dropping frames) at `now`.
    pub fn data_link_down(&self, now: Nanos) -> bool {
        self.plan.flaps.iter().any(|w| w.contains(now))
    }

    /// Whether a buffer-pressure window is active at `now`.
    pub fn pressure_active(&self, now: Nanos) -> bool {
        self.plan.pressure.iter().any(|w| w.contains(now))
    }

    /// Whether a primary-controller crash window is active at `now`.
    pub fn primary_down(&self, now: Nanos) -> bool {
        self.plan.crashes.iter().any(|w| w.contains(now))
    }

    /// Whether a standby-controller crash window is active at `now`.
    pub fn standby_down(&self, now: Nanos) -> bool {
        self.plan.crashes_standby.iter().any(|w| w.contains(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    #[test]
    fn default_plan_is_empty_and_valid() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert!(!plan.disturbs_data());
        assert!(plan.validate().is_ok());
        assert_eq!(plan.to_spec(), "");
        assert_eq!(FaultPlan::parse("").unwrap(), plan);
    }

    #[test]
    fn every_nth_drops_exactly_every_nth_per_direction() {
        let mut state = FaultState::new(FaultPlan::every_nth_loss(3));
        let drops: Vec<bool> = (0..9)
            .map(|_| state.ctrl_effect(ms(1), ChannelDir::ToController).dropped)
            .collect();
        assert_eq!(
            drops,
            [false, false, true, false, false, true, false, false, true]
        );
        // The other direction has its own counter.
        assert!(!state.ctrl_effect(ms(1), ChannelDir::ToSwitch).dropped);
        assert!(!state.ctrl_effect(ms(1), ChannelDir::ToSwitch).dropped);
        assert!(state.ctrl_effect(ms(1), ChannelDir::ToSwitch).dropped);
    }

    #[test]
    fn probabilistic_loss_is_deterministic_and_near_rate() {
        let plan = FaultPlan {
            seed: 99,
            to_controller: ChannelFaults {
                loss: LossModel::Probabilistic(0.25),
                ..ChannelFaults::default()
            },
            ..FaultPlan::default()
        };
        let run = |mut s: FaultState| -> Vec<bool> {
            (0..4000)
                .map(|_| s.ctrl_effect(ms(1), ChannelDir::ToController).dropped)
                .collect()
        };
        let a = run(FaultState::new(plan.clone()));
        let b = run(FaultState::new(plan));
        assert_eq!(a, b, "same plan, same decision stream");
        let rate = a.iter().filter(|&&d| d).count() as f64 / a.len() as f64;
        assert!((rate - 0.25).abs() < 0.03, "observed rate {rate}");
    }

    #[test]
    fn faults_respect_active_from() {
        let mut plan = FaultPlan::every_nth_loss(2);
        plan.active_from = ms(10);
        let mut state = FaultState::new(plan);
        for _ in 0..8 {
            assert!(!state.ctrl_effect(ms(1), ChannelDir::ToController).dropped);
        }
        assert!(!state.ctrl_effect(ms(10), ChannelDir::ToController).dropped);
        assert!(state.ctrl_effect(ms(10), ChannelDir::ToController).dropped);
    }

    #[test]
    fn delay_jitter_and_reorder_extend_arrival() {
        let plan = FaultPlan {
            seed: 7,
            to_switch: ChannelFaults {
                delay: Nanos::from_micros(500),
                jitter: Nanos::from_micros(100),
                reorder: 1.0 - f64::EPSILON,
                reorder_by: ms(2),
                ..ChannelFaults::default()
            },
            ..FaultPlan::default()
        };
        assert!(plan.validate().is_ok());
        let mut state = FaultState::new(plan);
        let e = state.ctrl_effect(ms(1), ChannelDir::ToSwitch);
        assert!(!e.dropped);
        assert!(e.extra_delay >= Nanos::from_micros(500) + ms(2));
        assert!(e.extra_delay <= Nanos::from_micros(600) + ms(2));
    }

    #[test]
    fn duplication_happens_at_configured_rate() {
        let plan = FaultPlan {
            seed: 3,
            to_controller: ChannelFaults {
                duplicate: 0.5,
                ..ChannelFaults::default()
            },
            ..FaultPlan::default()
        };
        let mut state = FaultState::new(plan);
        let dups = (0..2000)
            .filter(|_| state.ctrl_effect(ms(1), ChannelDir::ToController).duplicate)
            .count();
        assert!((900..1100).contains(&dups), "dups = {dups}");
    }

    #[test]
    fn windows_are_half_open() {
        let plan = FaultPlan {
            stalls: vec![Window::new(ms(10), ms(20))],
            flaps: vec![Window::new(ms(30), ms(31))],
            pressure: vec![Window::new(ms(40), ms(45))],
            ..FaultPlan::default()
        };
        let state = FaultState::new(plan);
        assert_eq!(state.stall_resume(ms(9)), None);
        assert_eq!(state.stall_resume(ms(10)), Some(ms(20)));
        assert_eq!(state.stall_resume(ms(19)), Some(ms(20)));
        assert_eq!(state.stall_resume(ms(20)), None);
        assert!(!state.data_link_down(ms(29)));
        assert!(state.data_link_down(ms(30)));
        assert!(!state.data_link_down(ms(31)));
        assert!(state.pressure_active(ms(44)));
        assert!(!state.pressure_active(ms(45)));
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        for bad in [
            FaultPlan::every_nth_loss(0),
            FaultPlan::every_nth_loss(1),
            FaultPlan {
                to_controller: ChannelFaults {
                    loss: LossModel::Probabilistic(1.0),
                    ..ChannelFaults::default()
                },
                ..FaultPlan::default()
            },
            FaultPlan {
                to_switch: ChannelFaults {
                    duplicate: 1.5,
                    ..ChannelFaults::default()
                },
                ..FaultPlan::default()
            },
            FaultPlan {
                to_switch: ChannelFaults {
                    reorder: 0.5,
                    reorder_by: Nanos::ZERO,
                    ..ChannelFaults::default()
                },
                ..FaultPlan::default()
            },
            FaultPlan {
                stalls: vec![Window::new(ms(5), ms(5))],
                ..FaultPlan::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be invalid");
        }
    }

    #[test]
    fn spec_round_trips_every_knob() {
        let plan = FaultPlan {
            seed: 12345,
            active_from: ms(2),
            to_controller: ChannelFaults {
                loss: LossModel::EveryNth(10),
                delay: Nanos::from_micros(300),
                jitter: Nanos::from_micros(150),
                duplicate: 0.125,
                reorder: 0.25,
                reorder_by: Nanos::from_micros(700),
            },
            to_switch: ChannelFaults {
                loss: LossModel::Probabilistic(0.0625),
                ..ChannelFaults::default()
            },
            stalls: vec![Window::new(ms(50), ms(60)), Window::new(ms(70), ms(71))],
            flaps: vec![Window::new(ms(55), ms(56))],
            pressure: vec![Window::new(ms(52), ms(54))],
            crashes: vec![Window::new(ms(60), ms(80))],
            crashes_standby: vec![Window::new(ms(90), ms(95))],
        };
        let spec = plan.to_spec();
        assert_eq!(FaultPlan::parse(&spec).unwrap(), plan, "spec: {spec}");
    }

    #[test]
    fn crash_windows_parse_validate_and_query() {
        let plan = FaultPlan::parse("crash=50ms+20ms,crash_standby=90ms+5ms").unwrap();
        assert!(plan.has_crashes());
        assert!(!plan.is_empty());
        let state = FaultState::new(plan);
        assert!(!state.primary_down(ms(49)));
        assert!(state.primary_down(ms(50)));
        assert!(state.primary_down(ms(69)));
        assert!(!state.primary_down(ms(70)));
        assert!(state.standby_down(ms(92)));
        assert!(!state.standby_down(ms(95)));
        // Zero-length crash windows are rejected like every other window.
        assert!(FaultPlan::parse("crash=50ms+0ms").is_err());
    }

    #[test]
    fn spec_round_trips_awkward_probabilities() {
        // Rust's shortest-round-trip float formatting must survive the trip.
        let plan = FaultPlan {
            seed: 1,
            to_controller: ChannelFaults {
                loss: LossModel::Probabilistic(0.1 + 0.2 * 0.3317),
                duplicate: 1.0 / 3.0,
                ..ChannelFaults::default()
            },
            ..FaultPlan::default()
        };
        assert_eq!(FaultPlan::parse(&plan.to_spec()).unwrap(), plan);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("nonsense").is_err());
        assert!(FaultPlan::parse("wat=1").is_err());
        assert!(FaultPlan::parse("c.loss=sometimes").is_err());
        assert!(FaultPlan::parse("c.loss=nth:1").is_err()); // fails validate
        assert!(FaultPlan::parse("stall=10ms").is_err()); // missing duration
        assert!(FaultPlan::parse("c.reorder=0.5").is_err()); // missing hold-back
    }

    #[test]
    fn unconfigured_knobs_consume_no_randomness() {
        // A plan with only every-nth loss must not touch the RNG, so its
        // decision stream is independent of the seed.
        let mut a = FaultState::new(FaultPlan::every_nth_loss(4));
        let mut b = FaultState::new(FaultPlan {
            seed: 999,
            ..FaultPlan::every_nth_loss(4)
        });
        for _ in 0..32 {
            assert_eq!(
                a.ctrl_effect(ms(1), ChannelDir::ToController),
                b.ctrl_effect(ms(1), ChannelDir::ToController)
            );
        }
    }
}
