//! The controller-liveness detector, one of the three planes
//! [`crate::Switch`] composes: off until armed with a nonzero timeout, then
//! alive ⇄ suspect. It keeps no counters and emits nothing — the switch
//! counts the trip it is told about. Transition table: DESIGN §14 and
//! `tests::transition_table`.

use sdnbuf_sim::Nanos;

/// Suspects the controller dead once it has been silent for `timeout`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Liveness {
    /// Tolerated silence; `None` = the detector is off.
    timeout: Option<Nanos>,
    /// Last time any controller message arrived.
    last_heard: Nanos,
    /// The controller has been silent past the deadline; fresh misses are
    /// shed until it speaks again.
    suspect: bool,
}

impl Liveness {
    /// Turns the detector on; a zero `timeout` leaves it off.
    pub(crate) fn arm(&mut self, timeout: Nanos) {
        self.timeout = (timeout > Nanos::ZERO).then_some(timeout);
    }

    /// Any controller message proves the session is alive.
    pub(crate) fn heard(&mut self, now: Nanos) {
        if self.timeout.is_some() {
            self.last_heard = now;
            self.suspect = false;
        }
    }

    /// When the silence becomes suspicious; `None` while off or already
    /// suspecting (nothing further to wait for).
    pub(crate) fn deadline(&self) -> Option<Nanos> {
        self.timeout
            .filter(|_| !self.suspect)
            .map(|timeout| self.last_heard + timeout)
    }

    /// Trips the detector when the deadline has passed; `true` exactly on
    /// the alive → suspect transition.
    pub(crate) fn tick(&mut self, now: Nanos) -> bool {
        let tripped = self.deadline().is_some_and(|deadline| now >= deadline);
        self.suspect |= tripped;
        tripped
    }

    /// Whether the controller is currently suspected dead.
    pub(crate) fn is_suspect(&self) -> bool {
        self.suspect
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
        // Off: unarmed, and armed with a zero timeout.
        for mut off in [Liveness::default(), {
            let mut l = Liveness::default();
            l.arm(Nanos::ZERO);
            l
        }] {
            off.heard(ms(1));
            assert_eq!(off.deadline(), None);
            assert!(!off.tick(ms(1_000)));
            assert!(!off.is_suspect());
        }

        let mut l = Liveness::default();
        l.arm(ms(50));
        // alive: the deadline counts from the last message (time zero
        // before any).
        assert_eq!(l.deadline(), Some(ms(50)));
        l.heard(ms(10));
        assert_eq!(l.deadline(), Some(ms(60)));
        // alive --tick before deadline--> alive
        assert!(!l.tick(ms(59)));
        assert!(!l.is_suspect());
        // alive --tick at deadline--> suspect, reported once
        assert!(l.tick(ms(60)));
        assert!(l.is_suspect());
        assert_eq!(l.deadline(), None, "nothing further to wait for");
        // suspect --tick--> suspect
        assert!(!l.tick(ms(500)));
        assert!(l.is_suspect());
        // suspect --heard--> alive, deadline restarts
        l.heard(ms(600));
        assert!(!l.is_suspect());
        assert_eq!(l.deadline(), Some(ms(650)));
        assert!(l.tick(ms(651)));
    }
}
