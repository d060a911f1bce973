//! The opaque id of a packet parked in switch buffer memory.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Identifies a packet buffered at the switch, carried in `packet_in`,
/// `packet_out` and `flow_mod` messages.
///
/// Quoting the paper (Section V.A): *"In the OpenFlow specification,
/// `buffer_id` is used to identify a packet buffered at the switch and sent
/// to the controller by a `pkt_in` message. A `pkt_out` message including a
/// valid `buffer_id` removes the corresponding packet from the buffer and
/// processes the packet by the actions of the message."*
///
/// The distinguished value [`BufferId::NO_BUFFER`] (`0xffff_ffff`) means no
/// packet is buffered and the full packet travels inside the message.
///
/// # Generation tags (ABA safety)
///
/// Only the 32-bit raw id travels on the wire, and raw ids are recycled —
/// so a *stale* `packet_out` (delayed or fault-duplicated) can name a slot
/// that has since been freed and re-occupied, silently draining the wrong
/// packet. To catch that, ids allocated by the buffer mechanisms carry an
/// out-of-band **generation** tag ([`BufferId::tagged`]): a monotonic
/// allocation counter the mechanism checks at release time. The generation
/// is simulator metadata, *not* wire state:
///
/// * equality, ordering and hashing compare the **raw id only**, so a
///   tagged id and its wire-reconstructed counterpart are interchangeable
///   as map keys and in comparisons;
/// * generation `0` means "untagged" — ids built from the wire
///   ([`BufferId::from_wire`], [`BufferId::new`]) carry it and are accepted
///   against any occupant, preserving the OpenFlow-spec semantics.
///
/// ## Wrap contract
///
/// Generations are drawn from a **wrapping `u32` counter that skips `0`**
/// (the untagged sentinel): after `u32::MAX` the next generation is `1`,
/// never `0`. Both buffer mechanisms advance the counter per *allocation*
/// (not per slot), so a collision — a stale id whose generation happens to
/// equal the slot's current occupant's — needs the same slot to be re-used
/// exactly `k · (2³² − 1)` allocations apart while the stale message is
/// still in flight. Sub-ranges wrap the same way: a release is rejected
/// whenever the generations *differ*, so the guarantee holds at every wrap
/// boundary, including the 8-bit one exercised by the regression test in
/// `crates/switchbuf` (256 reuses of a single slot).
///
/// # Session epochs (controller crash safety)
///
/// Orthogonal to the generation, an id can carry the **session epoch** it
/// was minted under ([`BufferId::with_epoch`]). Epochs number the
/// controller↔switch sessions: the switch bumps its epoch on every
/// (re-)handshake, and a buffer release minted under a dead epoch is
/// rejected even if raw id *and* generation still match — a freshly
/// restarted controller must never drain state it has no knowledge of.
/// Like the generation, the epoch is out-of-band simulator metadata:
/// invisible to equality/ordering/hashing, and `0` means "unarmed" (the
/// crash plane is off; releases are accepted regardless of occupant epoch,
/// preserving pre-crash-plane semantics byte for byte).
///
/// Both tags are checked in one place, [`BufferId::admits`].
///
/// # Example
///
/// ```
/// use sdnbuf_openflow::BufferId;
/// let id = BufferId::new(5);
/// assert!(id.is_buffered());
/// assert!(!BufferId::NO_BUFFER.is_buffered());
/// assert_eq!(id.to_string(), "buf#5");
/// assert_eq!(BufferId::NO_BUFFER.to_string(), "no-buffer");
///
/// // Generations are invisible to equality: the wire round-trip matches.
/// let tagged = BufferId::tagged(5, 3);
/// assert_eq!(tagged, id);
/// assert_eq!(tagged.generation(), 3);
/// assert_eq!(id.generation(), 0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct BufferId {
    raw: u32,
    generation: u32,
    epoch: u32,
}

impl BufferId {
    /// "No packet is buffered": `0xffff_ffff` (`OFP_NO_BUFFER`).
    pub const NO_BUFFER: BufferId = BufferId {
        raw: 0xffff_ffff,
        generation: 0,
        epoch: 0,
    };

    /// Creates an untagged buffer id from its raw value.
    ///
    /// # Panics
    ///
    /// Panics if `id` equals the reserved `OFP_NO_BUFFER` value; use
    /// [`BufferId::NO_BUFFER`] for that.
    pub fn new(id: u32) -> Self {
        assert_ne!(id, 0xffff_ffff, "0xffffffff is reserved for NO_BUFFER");
        BufferId {
            raw: id,
            generation: 0,
            epoch: 0,
        }
    }

    /// Creates a generation-tagged buffer id (allocation-side only; the
    /// tag never travels on the wire).
    ///
    /// # Panics
    ///
    /// Panics if `id` equals the reserved `OFP_NO_BUFFER` value.
    pub fn tagged(id: u32, generation: u32) -> Self {
        assert_ne!(id, 0xffff_ffff, "0xffffffff is reserved for NO_BUFFER");
        BufferId {
            raw: id,
            generation,
            epoch: 0,
        }
    }

    /// Reconstructs a buffer id from the wire, allowing the reserved value.
    /// Wire ids are untagged (generation 0, epoch 0).
    pub const fn from_wire(id: u32) -> Self {
        BufferId {
            raw: id,
            generation: 0,
            epoch: 0,
        }
    }

    /// This id stamped with the session epoch it was minted under. Epoch
    /// `0` means "unarmed" (see the type-level docs); the raw value and
    /// generation are unchanged.
    pub const fn with_epoch(self, epoch: u32) -> Self {
        BufferId {
            raw: self.raw,
            generation: self.generation,
            epoch,
        }
    }

    /// The raw 32-bit value as carried on the wire.
    pub const fn as_u32(self) -> u32 {
        self.raw
    }

    /// The allocation generation; `0` for untagged / wire-reconstructed
    /// ids.
    pub const fn generation(self) -> u32 {
        self.generation
    }

    /// The session epoch this id was minted under; `0` for unarmed /
    /// wire-reconstructed ids.
    pub const fn epoch(self) -> u32 {
        self.epoch
    }

    /// `true` unless this is [`BufferId::NO_BUFFER`].
    pub fn is_buffered(self) -> bool {
        self != BufferId::NO_BUFFER
    }

    /// Whether the occupant filed under `self` may be released by a
    /// `packet_out` presenting `presented` (same raw id): a tagged
    /// generation must equal the occupant's, and — both sides armed — so
    /// must the session epoch. An untagged (`0`) generation or epoch on
    /// the presented id is accepted against any occupant, which keeps the
    /// raw-wire-id semantics; the generation is checked first.
    pub fn admits(self, presented: BufferId) -> Result<(), Refusal> {
        if presented.generation != 0 && presented.generation != self.generation {
            return Err(Refusal::StaleGeneration);
        }
        if presented.epoch != 0 && self.epoch != 0 && presented.epoch != self.epoch {
            return Err(Refusal::StaleEpoch);
        }
        Ok(())
    }
}

/// Why a buffer mechanism refused to release anything for a `packet_out`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Refusal {
    /// Nothing is buffered under the raw id.
    Unknown,
    /// The slot was recycled: its occupant carries another generation.
    StaleGeneration,
    /// The id was minted under a session epoch that has since died.
    StaleEpoch,
}

// Equality, ordering and hashing deliberately ignore the generation and
// the epoch: both are out-of-band allocator/session metadata, and a
// wire-reconstructed id must compare equal to the tagged id it names.
impl PartialEq for BufferId {
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw
    }
}

impl Eq for BufferId {}

impl PartialOrd for BufferId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BufferId {
    fn cmp(&self, other: &Self) -> Ordering {
        self.raw.cmp(&other.raw)
    }
}

impl Hash for BufferId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.raw.hash(state);
    }
}

impl Default for BufferId {
    fn default() -> Self {
        BufferId::NO_BUFFER
    }
}

impl fmt::Display for BufferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_buffered() {
            write!(f, "buf#{}", self.raw)
        } else {
            write!(f, "no-buffer")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    #[test]
    fn no_buffer_is_reserved() {
        assert_eq!(BufferId::NO_BUFFER.as_u32(), 0xffff_ffff);
        assert!(!BufferId::NO_BUFFER.is_buffered());
        assert_eq!(BufferId::default(), BufferId::NO_BUFFER);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn new_rejects_reserved_value() {
        let _ = BufferId::new(0xffff_ffff);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn tagged_rejects_reserved_value() {
        let _ = BufferId::tagged(0xffff_ffff, 1);
    }

    #[test]
    fn from_wire_allows_reserved_value() {
        assert_eq!(BufferId::from_wire(0xffff_ffff), BufferId::NO_BUFFER);
        assert_eq!(BufferId::from_wire(3), BufferId::new(3));
    }

    #[test]
    fn ordinary_ids_are_buffered() {
        assert!(BufferId::new(0).is_buffered());
        assert!(BufferId::new(12345).is_buffered());
    }

    #[test]
    fn generation_is_invisible_to_eq_ord_and_hash() {
        let wire = BufferId::new(7);
        let tagged = BufferId::tagged(7, 9);
        assert_eq!(wire, tagged);
        assert_eq!(wire.cmp(&tagged), Ordering::Equal);
        let hash = |id: BufferId| {
            let mut h = DefaultHasher::new();
            id.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(wire), hash(tagged));
        // But the tag itself is observable where it matters.
        assert_eq!(tagged.generation(), 9);
        assert_eq!(wire.generation(), 0);
    }

    /// The admission table: presented tag × occupant tag.
    #[test]
    fn admits_checks_generation_then_epoch_and_waves_untagged_ids_through() {
        let occupant = BufferId::tagged(7, 3).with_epoch(2);
        let unarmed = BufferId::tagged(7, 3);
        for (stored, presented, expect) in [
            (occupant, BufferId::from_wire(7), Ok(())),
            (occupant, BufferId::tagged(7, 3), Ok(())),
            (occupant, BufferId::tagged(7, 3).with_epoch(2), Ok(())),
            (
                occupant,
                BufferId::tagged(7, 4),
                Err(Refusal::StaleGeneration),
            ),
            (
                occupant,
                BufferId::tagged(7, 3).with_epoch(1),
                Err(Refusal::StaleEpoch),
            ),
            (
                occupant,
                BufferId::new(7).with_epoch(1),
                Err(Refusal::StaleEpoch),
            ),
            // Both stale: the generation is reported.
            (
                occupant,
                BufferId::tagged(7, 4).with_epoch(1),
                Err(Refusal::StaleGeneration),
            ),
            // An unarmed occupant (epoch 0) admits any epoch.
            (unarmed, BufferId::tagged(7, 3).with_epoch(9), Ok(())),
        ] {
            assert_eq!(
                stored.admits(presented),
                expect,
                "{stored:?} vs {presented:?}"
            );
        }
    }

    #[test]
    fn ordering_follows_the_raw_id() {
        assert!(BufferId::tagged(1, 99) < BufferId::new(2));
    }

    #[test]
    fn epoch_is_out_of_band_like_the_generation() {
        let id = BufferId::tagged(7, 3).with_epoch(5);
        assert_eq!(id.epoch(), 5);
        assert_eq!(id.generation(), 3);
        assert_eq!(id.as_u32(), 7);
        // Invisible to equality/ordering/hashing: the wire round-trip
        // still matches.
        assert_eq!(id, BufferId::from_wire(7));
        assert_eq!(BufferId::from_wire(7).epoch(), 0);
        let hash = |id: BufferId| {
            let mut h = DefaultHasher::new();
            id.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(id), hash(BufferId::new(7)));
        // NO_BUFFER stays unarmed whatever is stamped onto copies of it.
        assert_eq!(BufferId::NO_BUFFER.epoch(), 0);
    }
}
