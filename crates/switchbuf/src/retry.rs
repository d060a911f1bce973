//! Re-request retry policy: how Algorithm 1's timeout loop paces itself.
//!
//! The paper sketches a single retransmit timeout ("if the response times
//! out, the request is sent again"). Under a dead or stalled controller
//! that fixed timer becomes an unbounded re-request storm — every
//! outstanding flow re-announces itself every `timeout` forever. A
//! [`RetryPolicy::Backoff`] bounds the storm two ways:
//!
//! * **exponential backoff** — the interval between re-requests for a flow
//!   doubles per attempt, up to `cap`;
//! * **a retry budget** — after `budget` re-requests the flow gives up and
//!   executes its [`GiveUp`] action instead of retrying forever.
//!
//! The default policy ([`RetryPolicy::Fixed`]) is the paper's
//! fixed-interval loop: no growth, no cap, no budget.

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
/// request. `Copy + Eq + Hash`, so it can live inside `SwitchConfig` and
/// sweep cell keys.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RetryPolicy {
    /// The paper's loop: re-request every base interval, forever.
    #[default]
    Fixed,
    /// Retry `n` (0-based) is scheduled `base × 2^n` after the previous
    /// request, capped at `cap` (but never below `base`).
    Backoff {
        /// Ceiling on the interval. [`Nanos::ZERO`] = uncapped.
        cap: Nanos,
        /// Maximum re-requests per flow; `0` = unlimited.
        budget: u32,
        /// Action taken when the budget is exhausted.
        give_up: GiveUp,
    },
}

impl RetryPolicy {
    /// A doubling backoff capped at `cap` with a `budget`-retry limit that
    /// drains the flow as full-packet `packet_in`s when spent. A cap at or
    /// below the base timeout keeps the interval fixed, so
    /// `backoff(timeout, n)` is the paper's loop with a budget of `n`.
    pub fn backoff(cap: Nanos, budget: u32) -> RetryPolicy {
        RetryPolicy::Backoff {
            cap,
            budget,
            give_up: GiveUp::DrainAsFullPacketIn,
        }
    }

    /// Maximum re-requests per flow; `0` = unlimited.
    pub fn budget(&self) -> u32 {
        match *self {
            RetryPolicy::Fixed => 0,
            RetryPolicy::Backoff { budget, .. } => budget,
        }
    }

    /// What a flow does once its budget is spent.
    pub fn give_up(&self) -> GiveUp {
        match *self {
            RetryPolicy::Fixed => GiveUp::default(),
            RetryPolicy::Backoff { give_up, .. } => give_up,
        }
    }

    /// The interval between request `retries` and request `retries + 1`
    /// for a flow with base timeout `base`: monotone non-decreasing in
    /// `retries`, never below `base`, never above `cap` (when capped).
    pub fn interval_after(&self, base: Nanos, retries: u32) -> Nanos {
        let RetryPolicy::Backoff { cap, .. } = *self else {
            return base;
        };
        let base = base.as_nanos();
        let ceiling = match cap.as_nanos() {
            0 => u64::MAX,
            cap => cap.max(base),
        };
        let mut d = base;
        for _ in 0..retries {
            if d >= ceiling {
                break;
            }
            d = d.saturating_mul(2).min(ceiling);
        }
        Nanos::from_nanos(d)
    }

    /// Whether a flow that has already sent `retries` re-requests may send
    /// another, or must give up.
    pub fn may_retry(&self, retries: u32) -> bool {
        self.budget() == 0 || retries < self.budget()
    }
}

/// The one grammar: `fixed` or `backoff:<cap>:<budget>:<drain|drop>`, every
/// field spelled out.
impl fmt::Display for RetryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RetryPolicy::Fixed => f.write_str("fixed"),
            RetryPolicy::Backoff {
                cap,
                budget,
                give_up,
            } => write!(f, "backoff:{}:{budget}:{give_up}", fmt_dur(cap)),
        }
    }
}

/// Parses `fixed | backoff[:<cap>[:<budget>[:drain|drop]]]`: omitted
/// backoff fields default to a 400 ms cap, no budget and `drain`.
impl FromStr for RetryPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<RetryPolicy, String> {
        match s.split(':').collect::<Vec<_>>()[..] {
            ["fixed"] => Ok(RetryPolicy::Fixed),
            ["backoff", ref knobs @ ..] if knobs.len() <= 3 => {
                let cap = knobs
                    .first()
                    .map_or(Ok(Nanos::from_millis(400)), |c| parse_dur(c))?;
                let budget = match knobs.get(1) {
                    Some(b) => b.parse().map_err(|_| format!("bad retry budget '{b}'"))?,
                    None => 0,
                };
                let give_up = knobs.get(2).map_or(Ok(GiveUp::default()), |g| g.parse())?;
                Ok(RetryPolicy::Backoff {
                    cap,
                    budget,
                    give_up,
                })
            }
            _ => Err(format!(
                "bad retry policy '{s}' (fixed | backoff[:<cap>[:<budget>[:drain|drop]]])"
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
        let p = RetryPolicy::Fixed;
        let base = Nanos::from_millis(20);
        for n in 0..50 {
            assert_eq!(p.interval_after(base, n), base);
            assert!(p.may_retry(n));
        }
        assert_eq!(p, RetryPolicy::default());
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
        assert_ne!(p, RetryPolicy::Fixed);
    }

    #[test]
    fn uncapped_backoff_saturates_instead_of_overflowing() {
        let p = RetryPolicy::backoff(Nanos::ZERO, 0);
        let base = Nanos::from_secs(1);
        let huge = p.interval_after(base, 200);
        assert_eq!(huge, Nanos::from_nanos(u64::MAX));
        assert!(huge >= p.interval_after(base, 199));
    }

    #[test]
    fn cap_below_base_never_pulls_under_the_base() {
        // A cap below the base timeout must not shorten the first interval;
        // the rerequest-before-timeout invariant relies on every gap being
        // at least the base.
        let p = RetryPolicy::backoff(Nanos::from_millis(5), 0);
        let base = Nanos::from_millis(20);
        for n in 0..8 {
            assert_eq!(p.interval_after(base, n), base, "retry {n}");
        }
    }

    #[test]
    fn budget_bounds_retries() {
        let p = RetryPolicy::backoff(Nanos::ZERO, 3);
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
    fn retry_policy_has_one_grammar() {
        let parse = |s: &str| s.parse::<RetryPolicy>();
        assert_eq!(parse("fixed"), Ok(RetryPolicy::Fixed));
        assert_eq!(RetryPolicy::Fixed.to_string(), "fixed");
        let backoff = |cap, budget| RetryPolicy::backoff(Nanos::from_millis(cap), budget);
        assert_eq!(parse("backoff"), Ok(backoff(400, 0)));
        assert_eq!(parse("backoff:200:4"), Ok(backoff(200, 4)));
        assert_eq!(parse("backoff:0"), Ok(backoff(0, 0)), "0 = uncapped");
        assert_eq!(backoff(0, 0).to_string(), "backoff:0ms:0:drain");
        let dropping = RetryPolicy::Backoff {
            cap: Nanos::from_millis(160),
            budget: 2,
            give_up: GiveUp::Drop,
        };
        assert_eq!(parse("backoff:160ms:2:drop"), Ok(dropping));
        assert_eq!(dropping.to_string(), "backoff:160ms:2:drop");
        for bad in [
            "linear",
            "backoffx",
            "fixed:20ms",
            "backoff:200:4:explode",
            "backoff:200:4:drop:1",
            "backoff:200:-1",
            // Six colon-separated fields are not a policy.
            "2:1ms:0ns:0:drain:0",
            "2:160ms:0ms:2:drop:0",
            "",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn empty_sweep_is_empty() {
        assert!(TimeoutSweep::default().is_empty());
    }
}
