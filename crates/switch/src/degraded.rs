//! Degraded mode, one of the three planes [`crate::Switch`] composes.
//!
//! After `threshold` consecutive flow give-ups with no controller response
//! in between, the switch stops announcing fresh misses (they are shed) and
//! lets one through per [`PROBE_INTERVAL`] as a probe of controller
//! liveness; any `flow_mod`/`packet_out` ends the episode. A threshold of
//! `0` disables the plane. It emits nothing — the switch turns each
//! returned transition into the counter and the event. Transition table:
//! DESIGN §10 and `tests::transition_table`.

use sdnbuf_sim::Nanos;

/// While degraded, how often one fresh miss is let through as a probe of
/// controller liveness.
pub(crate) const PROBE_INTERVAL: Nanos = Nanos::from_millis(10);

/// What the slow path does with a fresh table miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Admit {
    /// Not degraded: buffer and announce as usual.
    Normal,
    /// Degraded, but the probe window is open: exactly this miss goes
    /// through the normal slow path to test the controller.
    Probe,
    /// Degraded: neither buffered nor announced.
    Shed,
}

/// The normal → degraded transition [`Degraded::tick`] reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Entered {
    /// The give-up streak that tripped the threshold.
    pub(crate) giveups: u32,
}

/// The degraded-mode state machine.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Degraded {
    /// Consecutive give-ups that trip the mode; `0` disables it.
    threshold: u32,
    /// Flow give-ups since the last controller response.
    consecutive_giveups: u32,
    degraded: bool,
    /// When the next probe window opens; `None` while one is open or no
    /// miss has been shed since the last one, so an idle degraded switch
    /// schedules no timers.
    next_probe: Option<Nanos>,
    /// The probe window is open: the next fresh miss is the probe.
    probe_pending: bool,
    /// Misses shed during the current episode.
    suppressed: u64,
}

impl Degraded {
    pub(crate) fn new(threshold: u32) -> Degraded {
        Degraded {
            threshold,
            ..Degraded::default()
        }
    }

    pub(crate) fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Decides a fresh miss's fate.
    pub(crate) fn admit_miss(&mut self, now: Nanos) -> Admit {
        if !self.degraded {
            return Admit::Normal;
        }
        if self.probe_pending {
            self.probe_pending = false;
            return Admit::Probe;
        }
        self.suppressed += 1;
        self.next_probe.get_or_insert(now + PROBE_INTERVAL);
        Admit::Shed
    }

    /// A `flow_mod` or `packet_out` arrived — the controller is answering.
    /// Resets the give-up streak and ends a degraded episode, returning
    /// how many misses it shed.
    pub(crate) fn on_response(&mut self) -> Option<u64> {
        self.consecutive_giveups = 0;
        if !self.degraded {
            return None;
        }
        self.degraded = false;
        self.next_probe = None;
        self.probe_pending = false;
        Some(std::mem::take(&mut self.suppressed))
    }

    /// A flow exhausted its retry budget unanswered.
    pub(crate) fn on_giveup(&mut self) {
        self.consecutive_giveups += 1;
    }

    /// Timer work at `now`, after the sweep's give-ups were reported: opens
    /// a due probe window, or enters degraded mode when the streak has
    /// reached the threshold.
    pub(crate) fn tick(&mut self, now: Nanos) -> Option<Entered> {
        if self.degraded {
            if self.next_probe.is_some_and(|due| due <= now) {
                self.next_probe = None;
                self.probe_pending = true;
            }
            return None;
        }
        if self.threshold == 0 || self.consecutive_giveups < self.threshold {
            return None;
        }
        self.degraded = true;
        self.suppressed = 0;
        self.next_probe = Some(now + PROBE_INTERVAL);
        self.probe_pending = false;
        Some(Entered {
            giveups: self.consecutive_giveups,
        })
    }

    /// When the next probe window opens.
    pub(crate) fn next_timer(&self) -> Option<Nanos> {
        self.next_probe
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Nanos {
        Nanos::from_millis(n)
    }

    #[test]
    fn transition_table() {
        let mut d = Degraded::new(2);
        assert_eq!(PROBE_INTERVAL, ms(10));
        // normal: misses pass, a response resets the streak.
        assert_eq!(d.admit_miss(ms(0)), Admit::Normal);
        d.on_giveup();
        assert_eq!(d.on_response(), None);
        d.on_giveup();
        assert_eq!(d.tick(ms(1)), None, "streak 1 < threshold 2");
        // normal --streak reaches threshold--> degraded, probe timer armed
        d.on_giveup();
        assert_eq!(d.tick(ms(20)), Some(Entered { giveups: 2 }));
        assert!(d.is_degraded());
        assert_eq!(d.next_timer(), Some(ms(30)));
        assert_eq!(d.tick(ms(21)), None, "entry is reported once");
        // degraded: misses are shed and counted.
        assert_eq!(d.admit_miss(ms(21)), Admit::Shed);
        assert_eq!(d.admit_miss(ms(22)), Admit::Shed);
        assert_eq!(d.next_timer(), Some(ms(30)), "an armed timer is kept");
        // degraded --probe timer due--> window open, no timer while open
        assert_eq!(d.tick(ms(30)), None);
        assert_eq!(d.next_timer(), None);
        // window: exactly one miss is the probe, the next is shed again
        // and re-arms the timer lazily.
        assert_eq!(d.admit_miss(ms(32)), Admit::Probe);
        assert_eq!(d.next_timer(), None, "idle degraded switch has no timer");
        assert_eq!(d.admit_miss(ms(33)), Admit::Shed);
        assert_eq!(d.next_timer(), Some(ms(43)));
        // give-ups while degraded neither re-enter nor re-report.
        d.on_giveup();
        assert_eq!(d.tick(ms(34)), None);
        // degraded --response--> normal, reporting the episode's sheds
        assert_eq!(d.on_response(), Some(3));
        assert!(!d.is_degraded());
        assert_eq!(d.next_timer(), None);
        assert_eq!(d.admit_miss(ms(35)), Admit::Normal);
        assert_eq!(d.tick(ms(45)), None, "the streak was reset");
        // A response inside an open window closes it too.
        d.on_giveup();
        d.on_giveup();
        assert!(d.tick(ms(50)).is_some());
        assert_eq!(d.tick(ms(60)), None);
        assert_eq!(d.on_response(), Some(0));
        assert_eq!(d.admit_miss(ms(61)), Admit::Normal);
    }

    #[test]
    fn zero_threshold_never_degrades() {
        let mut d = Degraded::new(0);
        for _ in 0..10 {
            d.on_giveup();
        }
        assert_eq!(d.tick(ms(1)), None);
        assert_eq!(d.admit_miss(ms(2)), Admit::Normal);
        assert_eq!(d.next_timer(), None);
    }
}
