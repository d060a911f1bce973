//! IEEE 802 MAC addresses.

use std::fmt;

/// A 48-bit Ethernet MAC address.
///
/// # Example
///
/// ```
/// use sdnbuf_net::MacAddr;
/// let m = MacAddr::new([0x02, 0, 0, 0, 0, 0x2a]);
/// assert_eq!(m.to_string(), "02:00:00:00:00:2a");
/// assert!(MacAddr::BROADCAST.is_broadcast());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MacAddr([u8; 6]);

impl MacAddr {
    /// The all-ones broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);
    /// The all-zeros address, used as a placeholder in ARP targets.
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Creates an address from its six octets.
    pub const fn new(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }

    /// Derives a locally administered unicast address from a small host
    /// index — handy for generating distinct, valid host MACs in testbeds.
    pub const fn from_host_index(index: u32) -> Self {
        let b = index.to_be_bytes();
        // 0x02 = locally administered, unicast.
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// The six octets.
    pub const fn octets(self) -> [u8; 6] {
        self.0
    }

    /// `true` for the all-ones broadcast address.
    pub fn is_broadcast(self) -> bool {
        self == MacAddr::BROADCAST
    }

    /// `true` when the group bit (least significant bit of the first octet)
    /// is set — multicast and broadcast frames.
    pub fn is_multicast(self) -> bool {
        self.0[0] & 1 == 1
    }
}

impl From<[u8; 6]> for MacAddr {
    fn from(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }
}

impl From<MacAddr> for [u8; 6] {
    fn from(mac: MacAddr) -> Self {
        mac.0
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_lowercase_hex() {
        let m = MacAddr::new([0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01]);
        assert_eq!(m.to_string(), "de:ad:be:ef:00:01");
    }

    #[test]
    fn broadcast_and_multicast_flags() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
        let unicast = MacAddr::from_host_index(1);
        assert!(!unicast.is_broadcast());
        assert!(!unicast.is_multicast());
        let mcast = MacAddr::new([0x01, 0, 0x5e, 0, 0, 1]);
        assert!(mcast.is_multicast());
        assert!(!mcast.is_broadcast());
    }

    #[test]
    fn host_index_addresses_are_distinct() {
        let a = MacAddr::from_host_index(1);
        let b = MacAddr::from_host_index(2);
        assert_ne!(a, b);
        assert_eq!(a.octets()[0], 0x02);
    }

    #[test]
    fn conversions_round_trip() {
        let raw = [1u8, 2, 3, 4, 5, 6];
        let m: MacAddr = raw.into();
        let back: [u8; 6] = m.into();
        assert_eq!(raw, back);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(MacAddr::default(), MacAddr::ZERO);
    }
}
