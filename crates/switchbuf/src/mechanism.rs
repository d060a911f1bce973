//! The buffer-mechanism abstraction shared by all three mechanisms.

use crate::TimeoutSweep;
use sdnbuf_net::Packet;
use sdnbuf_openflow::{BufferId, PortNo, Refusal};
use sdnbuf_sim::{Nanos, Pool, PoolHandle, Tracer};

/// The shared slab pool packet payloads live in while they traverse the
/// simulated switch: links, buffer mechanisms and the testbed all pass
/// 8-byte [`PacketHandle`]s instead of owned [`Packet`]s.
pub type PacketPool = Pool<Packet>;

/// A copyable reference to a packet in a [`PacketPool`].
pub type PacketHandle = PoolHandle;

/// A miss-match packet parked in switch buffer memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BufferedPacket {
    /// Handle of the full original packet. The mechanism holds its pool
    /// reference while buffered; callers receiving a `BufferedPacket` from
    /// [`BufferMechanism::release`] or a timeout sweep inherit that
    /// reference (forward it, or release it back to the pool).
    pub packet: PacketHandle,
    /// The port it arrived on.
    pub in_port: PortNo,
    /// When it entered the buffer.
    pub buffered_at: Nanos,
    /// The id it is filed under.
    pub buffer_id: BufferId,
}

/// What the slow path must do with a miss-match packet, as decided by the
/// buffer mechanism.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MissAction {
    /// Not buffered (no buffer configured, buffer exhausted, or non-IP
    /// traffic under the flow-granularity mechanism): send a `packet_in`
    /// carrying the **entire** packet with [`BufferId::NO_BUFFER`]. The
    /// caller keeps ownership of the packet handle.
    SendFullPacketIn,
    /// The packet was buffered (the mechanism took ownership of the
    /// handle): send a `packet_in` carrying only the first `miss_send_len`
    /// bytes, referencing `buffer_id`.
    SendBufferedPacketIn {
        /// Id the packet was filed under.
        buffer_id: BufferId,
    },
    /// The packet was buffered under an already-announced flow `buffer_id`
    /// (the mechanism took ownership of the handle); **no** `packet_in` is
    /// sent (Algorithm 1, line 11).
    Buffered {
        /// The flow's shared id.
        buffer_id: BufferId,
    },
}

/// A re-request the mechanism wants sent because the controller's response
/// timed out (Algorithm 1, lines 12–13).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rerequest {
    /// The flow's shared buffer id.
    pub buffer_id: BufferId,
    /// Handle of the first buffered packet, whose header rides in the
    /// re-sent `packet_in`. This is a **borrowed view**: the mechanism
    /// still owns the buffered packet and its pool reference — read it,
    /// don't release it.
    pub packet: PacketHandle,
    /// Ingress port of that packet.
    pub in_port: PortNo,
}

/// Running statistics of a buffer mechanism.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Packets successfully parked in buffer units.
    pub buffered: u64,
    /// Misses that could not be buffered (exhaustion or unsupported
    /// traffic) and fell back to full-packet `packet_in`s.
    pub fallback_full: u64,
    /// Packets released by `packet_out`s.
    pub released: u64,
    /// `packet_out`s naming an id with nothing buffered under it.
    pub invalid_releases: u64,
    /// Timeout-driven re-requests sent.
    pub rerequests: u64,
    /// Entries garbage-collected because they outlived the buffer TTL.
    pub expired: u64,
    /// Wire bytes of those expired entries.
    pub expired_bytes: u64,
    /// Flows that exhausted their retry budget and executed their
    /// [`crate::GiveUp`] action.
    pub giveups: u64,
    /// `packet_out`s naming a recycled id with a stale generation tag,
    /// rejected instead of draining the new occupant (a subset of
    /// `invalid_releases`).
    pub stale_releases: u64,
    /// `packet_out`s minted under a dead session epoch, rejected instead
    /// of draining state the restarted controller has no knowledge of (a
    /// subset of `invalid_releases`).
    pub stale_epoch_releases: u64,
    /// Highest occupancy ever observed, in buffer units.
    pub peak_occupancy: usize,
}

impl BufferStats {
    /// Accounts one refused `packet_out` and hands the refusal back, so a
    /// mechanism can `return Err(self.stats.count(..))`.
    pub(crate) fn count(&mut self, refusal: Refusal) -> Refusal {
        self.invalid_releases += 1;
        match refusal {
            Refusal::Unknown => {}
            Refusal::StaleGeneration => self.stale_releases += 1,
            Refusal::StaleEpoch => self.stale_epoch_releases += 1,
        }
        refusal
    }
}

/// Advances an allocation counter to the next generation tag: a wrapping
/// `u32` that skips `0`, the untagged sentinel (the wrap contract in
/// [`BufferId`]'s docs).
pub(crate) fn next_generation(seq: &mut u32) -> u32 {
    *seq = match seq.wrapping_add(1) {
        0 => 1,
        next => next,
    };
    *seq
}

/// Which parts of the mechanism a self-test run cripples on purpose, so
/// the chaos harness can prove its invariants have teeth
/// ([`BufferMechanism::sabotage`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sabotage {
    /// Disable Algorithm 1's re-request lines 12–13 (the original
    /// `--broken`): the eventual-delivery invariant must catch it.
    pub disable_rerequest: bool,
    /// Disable the TTL garbage collector while leaving the configured TTL
    /// in place (`--broken-ttl`): stranded entries leak, which the
    /// buffered-conservation invariant must catch.
    pub disable_ttl_gc: bool,
    /// Disable the epoch guard (`--broken-epoch`): entries are neither
    /// re-tagged nor re-announced across a session epoch bump, and
    /// stale-epoch releases sail through — the no-cross-epoch-drain
    /// invariant must catch the resulting drains.
    pub broken_epoch: bool,
}

impl Sabotage {
    /// Nothing crippled.
    pub fn none() -> Sabotage {
        Sabotage::default()
    }

    /// Only Algorithm 1's re-request loop disabled.
    pub fn no_rerequest() -> Sabotage {
        Sabotage {
            disable_rerequest: true,
            ..Sabotage::default()
        }
    }

    /// Only the TTL garbage collector disabled.
    pub fn no_ttl_gc() -> Sabotage {
        Sabotage {
            disable_ttl_gc: true,
            ..Sabotage::default()
        }
    }

    /// Only the epoch guard disabled.
    pub fn no_epoch_guard() -> Sabotage {
        Sabotage {
            broken_epoch: true,
            ..Sabotage::default()
        }
    }

    /// [`BufferId::admits`] as a mechanism crippled this way applies it:
    /// with the epoch guard broken, a dead-epoch release sails through.
    pub(crate) fn admit(self, stored: BufferId, presented: BufferId) -> Result<(), Refusal> {
        match stored.admits(presented) {
            Err(Refusal::StaleEpoch) if self.broken_epoch => Ok(()),
            verdict => verdict,
        }
    }
}

/// A switch packet-buffer mechanism.
///
/// The switch's slow path calls [`BufferMechanism::on_miss`] for every
/// table-miss packet and [`BufferMechanism::release_into`] for every valid
/// `packet_out`; the mechanism decides how requests to the controller are
/// generated. Packets are addressed by pool handle; ownership of the
/// handle's reference follows the [`MissAction`]: the mechanism takes it
/// when it buffers, the caller keeps it on a full-packet fallback.
/// Implementations must uphold:
///
/// * **No loss, no duplication** — every buffered packet's handle is
///   returned by exactly one `release_into` or timeout-sweep call (or
///   remains buffered).
/// * **FIFO per flow** — `release_into` pushes packets in arrival order.
/// * **Bounded occupancy** — `occupancy() <= capacity()` at all times.
pub trait BufferMechanism {
    /// A short human-readable name ("no-buffer", "packet-granularity", …).
    fn name(&self) -> &'static str;

    /// Handles a table-miss packet; decides whether it is buffered and what
    /// kind of `packet_in` (if any) must be sent. On
    /// [`MissAction::SendFullPacketIn`] the caller keeps ownership of
    /// `packet`'s pool reference; on the buffered outcomes the mechanism
    /// takes it.
    fn on_miss(
        &mut self,
        now: Nanos,
        packet: PacketHandle,
        in_port: PortNo,
        pool: &PacketPool,
    ) -> MissAction;

    /// Releases the packet(s) filed under `buffer_id` for a `packet_out`:
    /// pushes them onto `out` in FIFO order (the caller inherits their pool
    /// references) and returns how many that was. A refused release — the
    /// id is unknown, or [`BufferId::admits`] rejects its tags — pushes
    /// nothing, is counted in [`BufferStats`] and says why (the
    /// `packet_out` then applies to nothing, per the OpenFlow spec). `out`
    /// is the caller's: whatever it already holds stays, and a caller that
    /// keeps it across calls pays for its storage once.
    fn release_into(
        &mut self,
        now: Nanos,
        buffer_id: BufferId,
        out: &mut Vec<BufferedPacket>,
    ) -> Result<usize, Refusal>;

    /// [`BufferMechanism::release_into`] a fresh `Vec`, empty on a refusal.
    fn release(&mut self, now: Nanos, buffer_id: BufferId) -> Vec<BufferedPacket> {
        let mut out = Vec::new();
        let _ = self.release_into(now, buffer_id, &mut out);
        out
    }

    /// The earliest pending deadline — re-request or TTL expiry — for
    /// scheduler integration. `None` when nothing is scheduled or the
    /// mechanism never re-requests and has no TTL.
    fn next_timeout(&self) -> Option<Nanos>;

    /// Sweeps every deadline due at or before `now`: appends the
    /// re-requests (resetting their timers), the TTL-expired entries it
    /// garbage-collects (the caller inherits their pool references) and the
    /// flows whose retry budget ran out to `sweep`. `sweep` is the caller's,
    /// as `release_into`'s `out` is: whatever it already holds stays.
    fn poll_timeouts_into(&mut self, now: Nanos, pool: &PacketPool, sweep: &mut TimeoutSweep);

    /// [`BufferMechanism::poll_timeouts_into`] a fresh [`TimeoutSweep`].
    fn poll_timeouts(&mut self, now: Nanos, pool: &PacketPool) -> TimeoutSweep {
        let mut sweep = TimeoutSweep::default();
        self.poll_timeouts_into(now, pool, &mut sweep);
        sweep
    }

    /// Buffer units currently in use.
    fn occupancy(&self) -> usize;

    /// Total buffer units.
    fn capacity(&self) -> usize;

    /// Running statistics.
    fn stats(&self) -> BufferStats;

    /// Attaches an event tracer. Mechanisms emit buffer-slot lifecycle
    /// events (`buffer_enqueue` / `buffer_rerequest` / `buffer_fallback`)
    /// through it; the default implementation ignores the tracer, so
    /// mechanisms with no buffer memory need not care.
    fn set_tracer(&mut self, _tracer: Tracer) {}

    /// Toggles buffer-capacity pressure (fault injection): while on, new
    /// misses must not claim buffer units and fall back to full-packet
    /// `packet_in`s, as if buffer memory were exhausted. Already-buffered
    /// packets are unaffected. Mechanisms without buffer memory ignore it.
    fn set_pressure(&mut self, _on: bool) {}

    /// Moves the mechanism to session `epoch` — the one way an epoch
    /// changes. Subsequently allocated ids are stamped with it
    /// ([`BufferId::with_epoch`]) and releases minted under a *different*
    /// non-zero epoch are refused ([`Refusal::StaleEpoch`]); every
    /// surviving entry is re-tagged and its retry budget reset (the new
    /// controller has never ignored it), and their ids are appended to
    /// `survivors` in ascending raw-id order so the switch can pace the
    /// re-announce storm (`survivors` is the caller's: whatever it already
    /// holds stays). Arming the crash plane is a reconcile to epoch `1` on
    /// the still-empty buffer. Epoch `0` (the default) leaves the plane
    /// unarmed — no stamping, no refusal — so runs without crash faults
    /// are byte-identical to the pre-epoch behavior. Mechanisms without
    /// buffer memory append nothing.
    fn reconcile_epoch_into(&mut self, _now: Nanos, _epoch: u32, _survivors: &mut Vec<BufferId>) {}

    /// [`BufferMechanism::reconcile_epoch_into`] a fresh `Vec`.
    fn reconcile_epoch(&mut self, now: Nanos, epoch: u32) -> Vec<BufferId> {
        let mut survivors = Vec::new();
        self.reconcile_epoch_into(now, epoch, &mut survivors);
        survivors
    }

    /// A borrowed re-announce view of the flow filed under `buffer_id`,
    /// used by the switch's paced post-restart reconciliation (the entry
    /// may have expired or drained since `reconcile_epoch_into` listed it —
    /// `None` then, and the re-announce is simply skipped). Mechanisms
    /// without buffer memory return `None`.
    fn rerequest_for(&self, _buffer_id: BufferId) -> Option<Rerequest> {
        None
    }

    /// Cripples the parts of the mechanism `sabotage` names, replacing
    /// whatever was crippled before (chaos self-test only). Mechanisms
    /// with nothing to cripple ignore it.
    fn sabotage(&mut self, _sabotage: Sabotage) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_action_equality() {
        assert_eq!(MissAction::SendFullPacketIn, MissAction::SendFullPacketIn);
        assert_ne!(
            MissAction::SendFullPacketIn,
            MissAction::Buffered {
                buffer_id: BufferId::new(1)
            }
        );
    }

    #[test]
    fn stats_default_is_zeroed() {
        let s = BufferStats::default();
        assert_eq!(s.buffered, 0);
        assert_eq!(s.peak_occupancy, 0);
    }

    #[test]
    fn count_files_every_refusal_under_invalid_releases() {
        let mut s = BufferStats::default();
        s.count(Refusal::Unknown);
        s.count(Refusal::StaleGeneration);
        s.count(Refusal::StaleEpoch);
        assert_eq!(
            (s.invalid_releases, s.stale_releases, s.stale_epoch_releases),
            (3, 1, 1)
        );
    }

    #[test]
    fn generation_counter_wraps_past_the_untagged_zero() {
        let mut seq = 0;
        assert_eq!(next_generation(&mut seq), 1);
        seq = u32::MAX - 1;
        assert_eq!(next_generation(&mut seq), u32::MAX);
        assert_eq!(next_generation(&mut seq), 1);
    }

    #[test]
    fn sabotage_shorthands_set_one_flag_each() {
        let (mut rerequest, mut ttl_gc, mut epoch) =
            (Sabotage::none(), Sabotage::none(), Sabotage::none());
        rerequest.disable_rerequest = true;
        ttl_gc.disable_ttl_gc = true;
        epoch.broken_epoch = true;
        assert_eq!(Sabotage::no_rerequest(), rerequest);
        assert_eq!(Sabotage::no_ttl_gc(), ttl_gc);
        assert_eq!(Sabotage::no_epoch_guard(), epoch);
    }

    #[test]
    fn trait_is_object_safe() {
        fn _takes(_: &mut dyn BufferMechanism) {}
    }
}
