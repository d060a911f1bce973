//! The controller↔switch session, one of the three planes
//! [`crate::Switch`] composes.
//!
//! Sessions are numbered by an **epoch**: `0` until the crash plane is
//! armed, then `1`, bumped each time a restarted (or failed-over)
//! controller completes a fresh handshake. After a bump the buffer entries
//! that survived it are re-announced one per [`RECONCILE_INTERVAL`], so the
//! new controller is not hit by a re-request storm. It holds no buffer and
//! emits nothing: the switch reconciles the mechanism on the bump it is
//! told about and queues what survived. Transition table: DESIGN §14 and
//! `tests::transition_table`.

use sdnbuf_openflow::BufferId;
use sdnbuf_sim::Nanos;
use std::collections::VecDeque;

/// Pacing of the post-bump re-announces: one surviving entry per interval.
pub(crate) const RECONCILE_INTERVAL: Nanos = Nanos::from_millis(1);

/// The session-epoch state machine and its paced re-announce queue.
#[derive(Clone, Debug, Default)]
pub(crate) struct Session {
    /// The current epoch; `0` = crash plane unarmed.
    epoch: u32,
    /// The first `Hello` has been consumed; a later one with a *fresh* xid
    /// is a re-handshake.
    hello_seen: bool,
    /// Highest `Hello` xid consumed so far. Controller xid allocators only
    /// move forward (the standby mints from a higher base and no restart
    /// rewinds a counter), so a `Hello` at or below this mark is a network
    /// duplicate — answered, but never mistaken for a re-handshake.
    hello_xid_high: u32,
    /// A re-handshake `Hello` arrived; the bump waits for the handshake's
    /// `SetConfig` — handshake before service.
    pending_reconcile: bool,
    /// Surviving buffer ids still to re-announce, in ascending raw-id
    /// order.
    reconcile_queue: VecDeque<BufferId>,
    /// When the next queued re-announce goes out.
    next_reconcile: Option<Nanos>,
}

impl Session {
    /// Arms the crash plane: the session starts at epoch 1.
    pub(crate) fn arm(&mut self) {
        self.epoch = 1;
    }

    /// The current epoch (`0` = unarmed).
    pub(crate) fn epoch(&self) -> u32 {
        self.epoch
    }

    /// A `Hello` with transaction id `xid` arrived.
    pub(crate) fn on_hello(&mut self, xid: u32) {
        if self.epoch != 0 && self.hello_seen && xid > self.hello_xid_high {
            self.pending_reconcile = true;
        }
        self.hello_seen = true;
        self.hello_xid_high = self.hello_xid_high.max(xid);
    }

    /// The handshake's `SetConfig` landed. When it completes a
    /// re-handshake the epoch is bumped and `(from, to)` returned: only now
    /// does the new session take over the buffer state.
    pub(crate) fn handshake_done(&mut self) -> Option<(u32, u32)> {
        if !std::mem::take(&mut self.pending_reconcile) {
            return None;
        }
        let from = self.epoch;
        self.epoch += 1;
        Some((from, self.epoch))
    }

    /// Queues the entries that survived a bump for paced re-announce,
    /// the first one [`RECONCILE_INTERVAL`] from `now`, behind whatever an
    /// earlier bump still has queued.
    pub(crate) fn queue(&mut self, survivors: Vec<BufferId>, now: Nanos) {
        if !survivors.is_empty() {
            self.next_reconcile = Some(now + RECONCILE_INTERVAL);
            self.reconcile_queue.extend(survivors);
        }
    }

    /// The next id whose re-announce slot has come (one per elapsed
    /// [`RECONCILE_INTERVAL`]; call until `None`).
    pub(crate) fn pop_due(&mut self, now: Nanos) -> Option<BufferId> {
        let due = self.next_reconcile.filter(|&due| due <= now)?;
        let id = self.reconcile_queue.pop_front();
        self.next_reconcile =
            (!self.reconcile_queue.is_empty()).then_some(due + RECONCILE_INTERVAL);
        id
    }

    /// When the next queued re-announce is due.
    pub(crate) fn next_timer(&self) -> Option<Nanos> {
        self.next_reconcile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Nanos {
        Nanos::from_millis(n)
    }

    fn ids(raws: &[u32]) -> Vec<BufferId> {
        raws.iter().map(|&r| BufferId::new(r)).collect()
    }

    #[test]
    fn transition_table() {
        // Unarmed: hellos and handshakes never bump anything.
        let mut s = Session::default();
        s.on_hello(1);
        s.on_hello(2);
        assert_eq!(s.handshake_done(), None);
        assert_eq!(s.epoch(), 0);

        let mut s = Session::default();
        s.arm();
        assert_eq!(s.epoch(), 1);
        // armed, no hello --first hello--> serving (not a re-handshake)
        s.on_hello(5);
        assert_eq!(s.handshake_done(), None);
        // serving --duplicate / older hello--> serving
        s.on_hello(5);
        s.on_hello(3);
        assert_eq!(s.handshake_done(), None);
        assert_eq!(s.epoch(), 1);
        // serving --fresh-xid hello--> re-handshaking; the bump waits
        s.on_hello(9);
        assert_eq!(s.epoch(), 1, "handshake before service");
        // re-handshaking --SetConfig--> serving under the next epoch
        assert_eq!(s.handshake_done(), Some((1, 2)));
        assert_eq!(s.handshake_done(), None, "one bump per handshake");
        // The old session's xids stay duplicates; the high-water mark moved.
        s.on_hello(7);
        assert_eq!(s.handshake_done(), None);
        s.on_hello(10);
        assert_eq!(s.handshake_done(), Some((2, 3)));
    }

    #[test]
    fn survivors_are_re_announced_one_per_interval_in_order() {
        let mut s = Session::default();
        assert_eq!(s.next_timer(), None);
        s.queue(Vec::new(), ms(5));
        assert_eq!(s.next_timer(), None, "nothing survived, nothing queued");
        s.queue(ids(&[3, 8, 9]), ms(10));
        assert_eq!(RECONCILE_INTERVAL, ms(1));
        assert_eq!(s.next_timer(), Some(ms(11)));
        assert_eq!(s.pop_due(ms(10)), None, "slot not due");
        assert_eq!(s.pop_due(ms(11)), Some(BufferId::new(3)));
        assert_eq!(s.pop_due(ms(11)), None, "one per interval");
        assert_eq!(s.next_timer(), Some(ms(12)));
        // A late timer catches up on every elapsed slot.
        assert_eq!(s.pop_due(ms(20)), Some(BufferId::new(8)));
        assert_eq!(s.pop_due(ms(20)), Some(BufferId::new(9)));
        assert_eq!(s.pop_due(ms(20)), None);
        assert_eq!(s.next_timer(), None, "drained queue schedules nothing");
    }

    /// Two re-handshakes one [`RECONCILE_INTERVAL`] apart. The second bump
    /// lists every survivor again and is appended to the first bump's
    /// undrained tail, so the tail (8, 9) is re-announced twice. Known and
    /// pinned, not wanted: clearing the queue first announces each survivor
    /// once, but moves the event streams of the ~1 % of generated crash
    /// scenarios that bump twice within a drain — and with them the repo
    /// benchmark's `chaos_sweep` pin, which this change may not move
    /// (ROADMAP item 4).
    #[test]
    fn back_to_back_bumps_re_announce_the_undrained_tail_twice() {
        let mut s = Session::default();
        s.queue(ids(&[3, 8, 9]), ms(10));
        assert_eq!(s.pop_due(ms(11)), Some(BufferId::new(3)));
        s.queue(ids(&[3, 8, 9]), ms(11));
        assert_eq!(s.next_timer(), Some(ms(12)));
        let mut announced = Vec::new();
        while let Some(id) = s.pop_due(ms(100)) {
            announced.push(id.as_u32());
        }
        assert_eq!(announced, [8, 9, 3, 8, 9]);
        assert_eq!(s.next_timer(), None);
    }
}
