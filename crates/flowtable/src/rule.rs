//! A single flow rule.

use sdnbuf_openflow::{ActionList, Match};
use sdnbuf_sim::Nanos;
use std::fmt;

/// One rule in a flow table: match, priority, actions, timeouts and
/// per-rule traffic statistics.
///
/// # Example
///
/// ```
/// use sdnbuf_flowtable::FlowRule;
/// use sdnbuf_openflow::{Action, Match, PortNo};
/// use sdnbuf_sim::Nanos;
///
/// let rule = FlowRule::new(Match::any(), 10)
///     .with_actions(vec![Action::output(PortNo(2))])
///     .with_idle_timeout(Nanos::from_secs(5));
/// assert_eq!(rule.priority, 10);
/// assert!(!rule.is_expired(Nanos::ZERO, Nanos::ZERO));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowRule {
    /// Fields this rule matches.
    pub match_fields: Match,
    /// Priority; higher wins among overlapping rules.
    pub priority: u16,
    /// Actions applied to matching packets (empty = drop). Up to two sit
    /// in the rule itself, so a hit reads them without leaving the rule.
    pub actions: ActionList,
    /// Controller cookie.
    pub cookie: u64,
    /// Remove after this long without a hit (`Nanos::ZERO` = never).
    pub idle_timeout: Nanos,
    /// Remove this long after installation regardless of hits
    /// (`Nanos::ZERO` = never).
    pub hard_timeout: Nanos,
    /// When the rule was installed (set by the table).
    pub installed_at: Nanos,
    /// When the rule last matched a packet (set by the table).
    pub last_hit: Nanos,
    /// Packets matched.
    pub packet_count: u64,
    /// Bytes matched.
    pub byte_count: u64,
    /// Whether expiry should emit a `flow_removed` message.
    pub notify_on_removal: bool,
}

impl FlowRule {
    /// Creates a rule with no actions (drop), no timeouts and zero stats.
    pub fn new(match_fields: Match, priority: u16) -> FlowRule {
        FlowRule {
            match_fields,
            priority,
            actions: ActionList::new(),
            cookie: 0,
            idle_timeout: Nanos::ZERO,
            hard_timeout: Nanos::ZERO,
            installed_at: Nanos::ZERO,
            last_hit: Nanos::ZERO,
            packet_count: 0,
            byte_count: 0,
            notify_on_removal: false,
        }
    }

    /// Sets the action list.
    #[must_use]
    pub fn with_actions(mut self, actions: impl Into<ActionList>) -> FlowRule {
        self.actions = actions.into();
        self
    }

    /// Sets the controller cookie.
    #[must_use]
    pub fn with_cookie(mut self, cookie: u64) -> FlowRule {
        self.cookie = cookie;
        self
    }

    /// Sets the idle timeout.
    #[must_use]
    pub fn with_idle_timeout(mut self, timeout: Nanos) -> FlowRule {
        self.idle_timeout = timeout;
        self
    }

    /// Sets the hard timeout.
    #[must_use]
    pub fn with_hard_timeout(mut self, timeout: Nanos) -> FlowRule {
        self.hard_timeout = timeout;
        self
    }

    /// Requests a `flow_removed` notification on expiry.
    #[must_use]
    pub fn with_removal_notification(mut self) -> FlowRule {
        self.notify_on_removal = true;
        self
    }

    /// Whether the rule has timed out at `now`. `last_activity` is the later
    /// of installation and last hit (tracked by the table).
    pub fn is_expired(&self, now: Nanos, last_activity: Nanos) -> bool {
        if self.hard_timeout != Nanos::ZERO && now >= self.installed_at + self.hard_timeout {
            return true;
        }
        if self.idle_timeout != Nanos::ZERO && now >= last_activity + self.idle_timeout {
            return true;
        }
        false
    }

    /// The moment this rule will expire if it receives no further hits
    /// (`None` when it has no timeouts).
    pub fn expiry_deadline(&self, last_activity: Nanos) -> Option<Nanos> {
        let hard =
            (self.hard_timeout != Nanos::ZERO).then(|| self.installed_at + self.hard_timeout);
        let idle = (self.idle_timeout != Nanos::ZERO).then(|| last_activity + self.idle_timeout);
        match (hard, idle) {
            (Some(h), Some(i)) => Some(h.min(i)),
            (Some(h), None) => Some(h),
            (None, Some(i)) => Some(i),
            (None, None) => None,
        }
    }

    /// Rule age at `now`.
    pub fn age(&self, now: Nanos) -> Nanos {
        now.saturating_sub(self.installed_at)
    }
}

impl fmt::Display for FlowRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rule(pri {}, {}, {} actions, {} pkts)",
            self.priority,
            self.match_fields,
            self.actions.len(),
            self.packet_count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnbuf_openflow::{Action, PortNo};

    #[test]
    fn builder_chain() {
        let r = FlowRule::new(Match::any(), 5)
            .with_actions(vec![Action::output(PortNo(1))])
            .with_cookie(9)
            .with_idle_timeout(Nanos::from_secs(5))
            .with_hard_timeout(Nanos::from_secs(30))
            .with_removal_notification();
        assert_eq!(r.priority, 5);
        assert_eq!(r.cookie, 9);
        assert_eq!(r.idle_timeout, Nanos::from_secs(5));
        assert_eq!(r.hard_timeout, Nanos::from_secs(30));
        assert!(r.notify_on_removal);
    }

    #[test]
    fn no_timeouts_never_expire() {
        let r = FlowRule::new(Match::any(), 0);
        assert!(!r.is_expired(Nanos::from_secs(1_000_000), Nanos::ZERO));
        assert_eq!(r.expiry_deadline(Nanos::ZERO), None);
    }

    #[test]
    fn hard_timeout_expires_regardless_of_hits() {
        let mut r = FlowRule::new(Match::any(), 0).with_hard_timeout(Nanos::from_secs(10));
        r.installed_at = Nanos::from_secs(5);
        let recent_hit = Nanos::from_secs(14);
        assert!(!r.is_expired(Nanos::from_secs(14), recent_hit));
        assert!(r.is_expired(Nanos::from_secs(15), recent_hit));
    }

    #[test]
    fn idle_timeout_resets_on_activity() {
        let r = FlowRule::new(Match::any(), 0).with_idle_timeout(Nanos::from_secs(5));
        assert!(!r.is_expired(Nanos::from_secs(4), Nanos::ZERO));
        assert!(r.is_expired(Nanos::from_secs(5), Nanos::ZERO));
        // A hit at t=3 pushes expiry to t=8.
        assert!(!r.is_expired(Nanos::from_secs(7), Nanos::from_secs(3)));
        assert!(r.is_expired(Nanos::from_secs(8), Nanos::from_secs(3)));
    }

    #[test]
    fn expiry_deadline_is_earliest() {
        let mut r = FlowRule::new(Match::any(), 0)
            .with_idle_timeout(Nanos::from_secs(5))
            .with_hard_timeout(Nanos::from_secs(30));
        r.installed_at = Nanos::ZERO;
        assert_eq!(
            r.expiry_deadline(Nanos::from_secs(2)),
            Some(Nanos::from_secs(7))
        );
        assert_eq!(
            r.expiry_deadline(Nanos::from_secs(28)),
            Some(Nanos::from_secs(30))
        );
    }

    #[test]
    fn age_saturates() {
        let mut r = FlowRule::new(Match::any(), 0);
        r.installed_at = Nanos::from_secs(10);
        assert_eq!(r.age(Nanos::from_secs(15)), Nanos::from_secs(5));
        assert_eq!(r.age(Nanos::from_secs(5)), Nanos::ZERO);
    }

    #[test]
    fn display_mentions_priority() {
        assert!(FlowRule::new(Match::any(), 7).to_string().contains("pri 7"));
    }
}
