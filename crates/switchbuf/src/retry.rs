//! Re-request retry policy: how Algorithm 1's timeout loop paces itself.
//!
//! The paper sketches a single retransmit timeout ("if the response times
//! out, the request is sent again"). Under a dead or stalled controller
//! that fixed timer becomes an unbounded re-request storm — every
//! outstanding flow re-announces itself every `timeout` forever. A
//! [`RetryPolicy`] bounds the storm three ways:
//!
//! * **exponential backoff** — the interval between re-requests for a flow
//!   grows by an integer `multiplier` per attempt, up to `cap`;
//! * **seeded jitter** — a deterministic uniform draw in `[0, jitter)` is
//!   added to each scheduled deadline, de-synchronizing flows that missed
//!   together (drawn from a dedicated seeded RNG in the same discipline as
//!   the fault plane: **zero** draws when `jitter` is unset, so default
//!   configurations consume no randomness and replay byte-identically);
//! * **a retry budget** — after `budget` re-requests the flow gives up and
//!   executes its [`GiveUp`] action instead of retrying forever.
//!
//! The default policy ([`RetryPolicy::fixed`]) reproduces the paper's
//! fixed-interval behaviour exactly: multiplier 1, no cap, no jitter, no
//! budget.

use sdnbuf_openflow::BufferId;
use sdnbuf_sim::faults::{fmt_dur, parse_dur};
use sdnbuf_sim::Nanos;
use std::fmt;
use std::str::FromStr;

use crate::BufferedPacket;

/// What a flow does when its retry budget is exhausted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum GiveUp {
    /// Drain the flow's buffered packets and hand them to the switch to be
    /// sent as **full-packet** `packet_in`s with [`BufferId::NO_BUFFER`] —
    /// the OpenFlow fallback path. If the controller recovers it can still
    /// route them from the message data; buffer units are freed either way.
    #[default]
    DrainAsFullPacketIn,
    /// Drop the flow's buffered packets at the switch and free the units.
    Drop,
}

impl GiveUp {
    /// A short label ("drain" / "drop") used in events and spec strings;
    /// also the `Display` form, which `FromStr` parses back.
    pub fn label(self) -> &'static str {
        match self {
            GiveUp::DrainAsFullPacketIn => "drain",
            GiveUp::Drop => "drop",
        }
    }
}

impl fmt::Display for GiveUp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for GiveUp {
    type Err = String;

    fn from_str(s: &str) -> Result<GiveUp, String> {
        match s {
            "drain" => Ok(GiveUp::DrainAsFullPacketIn),
            "drop" => Ok(GiveUp::Drop),
            other => Err(format!("unknown give-up action '{other}'")),
        }
    }
}

/// How re-requests for one flow are paced and bounded.
///
/// The *base* interval is the mechanism's configured re-request timeout
/// (Algorithm 1's knob); the policy shapes everything after the first
/// request. Retry `n` (0-based) is scheduled `base × multiplier^n` after
/// the previous request, capped at `cap`, plus a jitter draw.
///
/// All fields are integers or [`Nanos`], so the policy is `Copy + Eq` and
/// can live inside `SwitchConfig` and sweep cell keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RetryPolicy {
    /// Interval growth factor per attempt. `1` = the paper's fixed timer.
    pub multiplier: u32,
    /// Ceiling on the interval. [`Nanos::ZERO`] = uncapped.
    pub cap: Nanos,
    /// Upper bound (exclusive) of the uniform jitter added to every
    /// scheduled deadline. [`Nanos::ZERO`] = no jitter and **no RNG
    /// draws** — the discipline that keeps default runs byte-identical.
    pub jitter: Nanos,
    /// Maximum re-requests per flow; `0` = unlimited (the paper's loop).
    pub budget: u32,
    /// Action taken when the budget is exhausted.
    pub give_up: GiveUp,
    /// Seed of the dedicated jitter RNG (only consulted when `jitter` is
    /// nonzero).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::fixed()
    }
}

impl RetryPolicy {
    /// The paper's fixed-interval retry loop: every `timeout`, forever.
    pub fn fixed() -> RetryPolicy {
        RetryPolicy {
            multiplier: 1,
            cap: Nanos::ZERO,
            jitter: Nanos::ZERO,
            budget: 0,
            give_up: GiveUp::DrainAsFullPacketIn,
            seed: 0,
        }
    }

    /// A doubling backoff capped at `cap` with a `budget`-retry limit —
    /// the recovery-plane default for experiments.
    pub fn backoff(cap: Nanos, budget: u32) -> RetryPolicy {
        RetryPolicy {
            multiplier: 2,
            cap,
            budget,
            ..RetryPolicy::fixed()
        }
    }

    /// `true` when this is exactly the fixed legacy policy (used by spec
    /// printers to omit default knobs).
    pub fn is_fixed(&self) -> bool {
        *self == RetryPolicy::fixed()
    }

    /// The interval between request `retries` and request `retries + 1`
    /// for a flow with base timeout `base`, before jitter: monotone
    /// non-decreasing in `retries`, never below `base`, never above `cap`
    /// (when capped).
    pub fn interval_after(&self, base: Nanos, retries: u32) -> Nanos {
        let base = base.as_nanos();
        let ceiling = match self.cap.as_nanos() {
            0 => u64::MAX,
            cap => cap.max(base),
        };
        let mut d = base;
        if self.multiplier > 1 {
            for _ in 0..retries {
                if d >= ceiling {
                    break;
                }
                d = d.saturating_mul(u64::from(self.multiplier)).min(ceiling);
            }
        }
        Nanos::from_nanos(d)
    }

    /// Whether a flow that has already sent `retries` re-requests may send
    /// another, or must give up.
    pub fn may_retry(&self, retries: u32) -> bool {
        self.budget == 0 || retries < self.budget
    }

    /// Checks the policy for values that would wedge the schedule.
    pub fn validate(&self) -> Result<(), String> {
        if self.multiplier == 0 {
            return Err("retry multiplier must be at least 1".to_owned());
        }
        Ok(())
    }
}

/// The canonical form, every field spelled out:
/// `<multiplier>:<cap>:<jitter>:<budget>:<drain|drop>:<jitter-seed>`.
impl fmt::Display for RetryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (cap, jitter) = (fmt_dur(self.cap), fmt_dur(self.jitter));
        let (mult, budget, give_up, seed) = (self.multiplier, self.budget, self.give_up, self.seed);
        write!(f, "{mult}:{cap}:{jitter}:{budget}:{give_up}:{seed}")
    }
}

/// Parses the canonical six-field form `Display` prints, or the shorthand
/// `fixed | backoff[:<cap>[:<budget>[:drain|drop]]]` (a doubling backoff,
/// cap 400 ms and no budget unless given). The two cannot collide: the
/// canonical form starts with a digit.
impl FromStr for RetryPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<RetryPolicy, String> {
        let fields: Vec<&str> = s.split(':').collect();
        let number = |what: &str, v: &str| format!("bad retry {what} '{v}'");
        match fields[..] {
            ["fixed"] => Ok(RetryPolicy::fixed()),
            ["backoff", ref knobs @ ..] if knobs.len() <= 3 => {
                let mut policy = RetryPolicy::backoff(Nanos::from_millis(400), 0);
                if let Some(cap) = knobs.first() {
                    policy.cap = parse_dur(cap)?;
                }
                if let Some(budget) = knobs.get(1) {
                    policy.budget = budget.parse().map_err(|_| number("budget", budget))?;
                }
                if let Some(give_up) = knobs.get(2) {
                    policy.give_up = give_up.parse()?;
                }
                Ok(policy)
            }
            [mult, cap, jitter, budget, give_up, seed] => Ok(RetryPolicy {
                multiplier: mult.parse().map_err(|_| number("multiplier", mult))?,
                cap: parse_dur(cap)?,
                jitter: parse_dur(jitter)?,
                budget: budget.parse().map_err(|_| number("budget", budget))?,
                give_up: give_up.parse()?,
                seed: seed.parse().map_err(|_| number("jitter seed", seed))?,
            }),
            _ => Err(format!(
                "bad retry policy '{s}' (fixed | backoff[:<cap>[:<budget>[:drain|drop]]] | \
                 <mult>:<cap>:<jitter>:<budget>:<drain|drop>:<seed>)"
            )),
        }
    }
}

/// A flow whose retry budget ran out, removed from the buffer by
/// [`crate::BufferMechanism::poll_timeouts`]. The switch executes the
/// give-up `action` on the drained `packets`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GaveUpFlow {
    /// The id the flow was buffered under (now freed).
    pub buffer_id: BufferId,
    /// The flow's packets, in FIFO order.
    pub packets: Vec<BufferedPacket>,
    /// What to do with them.
    pub action: GiveUp,
}

/// Everything a timeout sweep produced: re-requests due, TTL-expired
/// entries (already removed from the buffer), and flows that exhausted
/// their retry budget (also removed).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TimeoutSweep {
    /// Re-requests to send (Algorithm 1, lines 12–13).
    pub rerequests: Vec<crate::Rerequest>,
    /// Entries garbage-collected because they outlived the buffer TTL.
    pub expired: Vec<BufferedPacket>,
    /// Flows that gave up retrying.
    pub gave_up: Vec<GaveUpFlow>,
}

impl TimeoutSweep {
    /// `true` when the sweep found nothing to do.
    pub fn is_empty(&self) -> bool {
        self.rerequests.is_empty() && self.expired.is_empty() && self.gave_up.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_policy_never_grows_and_never_gives_up() {
        let p = RetryPolicy::fixed();
        let base = Nanos::from_millis(20);
        for n in 0..50 {
            assert_eq!(p.interval_after(base, n), base);
            assert!(p.may_retry(n));
        }
        assert!(p.is_fixed());
        assert!(p.validate().is_ok());
    }

    #[test]
    fn backoff_doubles_until_the_cap() {
        let p = RetryPolicy::backoff(Nanos::from_millis(160), 6);
        let base = Nanos::from_millis(20);
        assert_eq!(p.interval_after(base, 0), Nanos::from_millis(20));
        assert_eq!(p.interval_after(base, 1), Nanos::from_millis(40));
        assert_eq!(p.interval_after(base, 2), Nanos::from_millis(80));
        assert_eq!(p.interval_after(base, 3), Nanos::from_millis(160));
        assert_eq!(p.interval_after(base, 4), Nanos::from_millis(160));
        assert_eq!(p.interval_after(base, 30), Nanos::from_millis(160));
        assert!(!p.is_fixed());
    }

    #[test]
    fn uncapped_backoff_saturates_instead_of_overflowing() {
        let p = RetryPolicy {
            multiplier: 1000,
            ..RetryPolicy::fixed()
        };
        let base = Nanos::from_secs(1);
        let huge = p.interval_after(base, 40);
        assert!(huge >= p.interval_after(base, 39));
    }

    #[test]
    fn cap_below_base_never_pulls_under_the_base() {
        // A cap below the base timeout must not shorten the first interval;
        // the rerequest-before-timeout invariant relies on every gap being
        // at least the base.
        let p = RetryPolicy {
            multiplier: 2,
            cap: Nanos::from_millis(5),
            ..RetryPolicy::fixed()
        };
        let base = Nanos::from_millis(20);
        for n in 0..8 {
            assert!(
                p.interval_after(base, n) >= base,
                "retry {n} dipped below base"
            );
        }
    }

    #[test]
    fn budget_bounds_retries() {
        let p = RetryPolicy {
            budget: 3,
            ..RetryPolicy::fixed()
        };
        assert!(p.may_retry(0));
        assert!(p.may_retry(2));
        assert!(!p.may_retry(3));
        assert!(!p.may_retry(30));
    }

    #[test]
    fn giveup_labels_round_trip() {
        for g in [GiveUp::DrainAsFullPacketIn, GiveUp::Drop] {
            assert_eq!(g.to_string().parse::<GiveUp>().unwrap(), g);
        }
        assert!("shrug".parse::<GiveUp>().is_err());
    }

    #[test]
    fn retry_policy_grammar_has_a_canonical_form_and_a_shorthand() {
        let parse = |s: &str| s.parse::<RetryPolicy>();
        assert_eq!(parse("fixed"), Ok(RetryPolicy::fixed()));
        assert_eq!(RetryPolicy::fixed().to_string(), "1:0ms:0ms:0:drain:0");
        let backoff = |cap, budget| RetryPolicy::backoff(Nanos::from_millis(cap), budget);
        assert_eq!(parse("backoff"), Ok(backoff(400, 0)));
        assert_eq!(parse("backoff:200:4"), Ok(backoff(200, 4)));
        let dropping = RetryPolicy {
            give_up: GiveUp::Drop,
            ..backoff(160, 2)
        };
        assert_eq!(parse("backoff:160ms:2:drop"), Ok(dropping));
        assert_eq!(dropping.to_string(), "2:160ms:0ms:2:drop:0");
        assert_eq!(parse("2:160ms:0ms:2:drop:0"), Ok(dropping));
        for bad in [
            "linear",
            "backoffx",
            "backoff:200:4:explode",
            "backoff:200:4:drop:1",
            "2:160ms:0ms:2:drop",
            "x:160ms:0ms:2:drop:0",
            "",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn zero_multiplier_is_rejected() {
        let p = RetryPolicy {
            multiplier: 0,
            ..RetryPolicy::fixed()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn empty_sweep_is_empty() {
        assert!(TimeoutSweep::default().is_empty());
    }
}
