//! Full packets: typed layers plus byte-exact encode/decode, and a builder.

use crate::{
    ArpPacket, DecodeError, EtherType, EthernetHeader, FrameBytes, Ipv4Header, MacAddr, TcpFlags,
    TcpHeader, UdpHeader, WireFrame, ETHERNET_HEADER_LEN, HEADERS_MAX, IPV4_HEADER_LEN,
    TCP_HEADER_LEN, UDP_HEADER_LEN,
};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Payload bytes: immutable and reference-counted, so cloning a packet —
/// into the testbed's pool, a switch buffer, a fault-injected duplicate —
/// copies its headers and bumps a count instead of copying the payload.
/// Compares and hashes by content, like the slice it derefs to; build one
/// `from` a slice or a vector. `Arc`, not `Rc`: a packet, and a workload of
/// them, stays `Send + Sync` for the sweep executor's worker threads.
///
/// # Example
///
/// ```
/// use sdnbuf_net::{Bytes, Transport, UdpHeader};
/// let filler = Bytes::from(vec![0u8; 958]);
/// let datagram = Transport::Udp(UdpHeader::new(1000, 2000, 958), filler.clone());
/// let copy = datagram.clone();
/// assert_eq!(copy, datagram);
/// // One allocation behind the filler, the datagram and its copy.
/// assert_eq!(std::sync::Arc::strong_count(&filler), 3);
/// assert_eq!(filler, Bytes::from(&[0u8; 958][..])); // equal by content
/// ```
pub type Bytes = Arc<[u8]>;

/// The transport layer of an IPv4 packet.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Transport {
    /// A UDP datagram: header plus payload bytes.
    Udp(UdpHeader, Bytes),
    /// A TCP segment: header plus payload bytes.
    Tcp(TcpHeader, Bytes),
    /// Any other protocol: the raw bytes above the IP header.
    Other(u8, Bytes),
}

impl Transport {
    /// Encoded length in bytes.
    pub fn wire_len(&self) -> usize {
        match self {
            Transport::Udp(_, p) => UDP_HEADER_LEN + p.len(),
            Transport::Tcp(_, p) => TCP_HEADER_LEN + p.len(),
            Transport::Other(_, p) => p.len(),
        }
    }
}

/// An IPv4 packet: header plus transport.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Ipv4Packet {
    /// The IP header. Its `total_len` and `protocol` fields are kept
    /// consistent with `transport` by the constructors in this crate.
    pub header: Ipv4Header,
    /// The transport layer.
    pub transport: Transport,
}

/// The payload of an Ethernet frame.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Payload {
    /// An ARP packet.
    Arp(ArpPacket),
    /// An IPv4 packet.
    Ipv4(Ipv4Packet),
    /// Anything else, kept as raw bytes.
    Raw(Bytes),
}

/// A complete Ethernet frame with typed layers.
///
/// # Example
///
/// ```
/// use sdnbuf_net::{Packet, PacketBuilder};
/// let p = PacketBuilder::udp().frame_size(1000).build();
/// let bytes = p.encode();
/// assert_eq!(bytes.len(), 1000);
/// assert_eq!(Packet::decode(&bytes).unwrap(), p);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Packet {
    /// The Ethernet header.
    pub ethernet: EthernetHeader,
    /// The frame payload.
    pub payload: Payload,
}

impl Packet {
    /// Total encoded length in bytes.
    pub fn wire_len(&self) -> usize {
        ETHERNET_HEADER_LEN
            + match &self.payload {
                Payload::Arp(_) => crate::arp::ARP_LEN,
                Payload::Ipv4(ip) => IPV4_HEADER_LEN + ip.transport.wire_len(),
                Payload::Raw(b) => b.len(),
            }
    }

    /// The wire bytes as a gather list: the header stack encoded in place,
    /// the payload shared. Allocates nothing.
    pub fn wire(&self) -> WireFrame {
        let mut frame = WireFrame::new();
        frame.push_head(&self.ethernet.to_bytes());
        let tail = match &self.payload {
            Payload::Arp(arp) => {
                frame.push_head(&arp.to_bytes());
                return frame;
            }
            Payload::Ipv4(ip) => {
                frame.push_head(&ip.header.to_bytes());
                match &ip.transport {
                    Transport::Udp(udp, p) => {
                        frame.push_head(&udp.to_bytes());
                        p
                    }
                    Transport::Tcp(tcp, p) => {
                        frame.push_head(&tcp.to_bytes());
                        p
                    }
                    Transport::Other(_, p) => p,
                }
            }
            Payload::Raw(b) => b,
        };
        frame.set_tail(tail.clone());
        frame
    }

    /// The first `n` wire bytes as a gather list — what a switch puts in a
    /// `packet_in` when `miss_send_len = n` and the packet is buffered.
    /// Allocates nothing.
    pub fn wire_prefix(&self, n: usize) -> WireFrame {
        let mut frame = self.wire();
        frame.truncate(n);
        frame
    }

    /// Encodes the whole frame to contiguous wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        self.wire().to_vec()
    }

    /// The first `n` bytes of the wire encoding, contiguous. The payload
    /// past `n` is never copied.
    pub fn header_slice(&self, n: usize) -> Vec<u8> {
        self.wire_prefix(n).to_vec()
    }

    /// Decodes a frame from wire bytes, flat or gathered. A [`WireFrame`]
    /// whose shared tail is exactly the payload its headers announce gives
    /// that payload back by reference count; anything else — a tail cut by
    /// `miss_send_len`, length fields that disagree with it, flat bytes —
    /// decodes to what the same bytes decode to flat.
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] raised by the layer codecs, including truncation,
    /// checksum failures and inconsistent length fields.
    pub fn decode<B: FrameBytes + ?Sized>(frame: &B) -> Result<Packet, DecodeError> {
        // Every header lies in the first HEADERS_MAX bytes, and a decoder
        // that runs out of them has run out of frame.
        let mut scratch = [0u8; HEADERS_MAX];
        let head = frame.leading(&mut scratch);
        let len = frame.frame_len();
        let ethernet = EthernetHeader::decode(head)?;
        let rest = &head[ETHERNET_HEADER_LEN..];
        let payload = match ethernet.ethertype {
            EtherType::Arp => Payload::Arp(ArpPacket::decode(rest)?),
            EtherType::Ipv4 => {
                let header = Ipv4Header::decode(rest)?;
                let total = header.total_len as usize;
                let present = len - ETHERNET_HEADER_LEN;
                if total < IPV4_HEADER_LEN || total > present {
                    return Err(DecodeError::BadLengthField {
                        claimed: total,
                        actual: present,
                    });
                }
                // The IP payload is frame bytes `above_ip..end`; `body` is
                // as much of it as the transport header can occupy.
                let above_ip = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN;
                let end = ETHERNET_HEADER_LEN + total;
                let body = &head[above_ip..end.min(head.len())];
                let transport = match header.protocol {
                    17 => {
                        let udp = UdpHeader::decode(body)?;
                        let start = above_ip + UDP_HEADER_LEN;
                        let plen = udp.payload_len().min(end - start);
                        Transport::Udp(udp, frame.payload(start..start + plen))
                    }
                    6 => {
                        let tcp = TcpHeader::decode(body)?;
                        Transport::Tcp(tcp, frame.payload(above_ip + TCP_HEADER_LEN..end))
                    }
                    other => Transport::Other(other, frame.payload(above_ip..end)),
                };
                Payload::Ipv4(Ipv4Packet { header, transport })
            }
            EtherType::Other(_) => Payload::Raw(frame.payload(ETHERNET_HEADER_LEN..len)),
        };
        Ok(Packet { ethernet, payload })
    }
}

/// Minimum UDP frame: Ethernet + IPv4 + UDP headers, no payload.
pub const MIN_UDP_FRAME: usize = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN;
/// Minimum TCP frame: Ethernet + IPv4 + TCP headers, no payload.
pub const MIN_TCP_FRAME: usize = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + TCP_HEADER_LEN;

enum Proto {
    Udp,
    Tcp(TcpFlags),
}

/// A builder for well-formed UDP/TCP test frames.
///
/// Defaults: `host1 (10.0.0.1, MAC 02:00:…:01) → host2 (10.0.0.2,
/// MAC 02:00:…:02)`, ports `1000 → 2000`, 100-byte frame — override what you
/// need. `frame_size` fixes the **total** Ethernet frame length, matching how
/// the paper configures `pktgen` ("Ethernet frame size of 1000 Bytes").
///
/// # Example
///
/// ```
/// use sdnbuf_net::{PacketBuilder, TcpFlags};
/// let syn = PacketBuilder::tcp().tcp_flags(TcpFlags::SYN).frame_size(54).build();
/// assert_eq!(syn.wire_len(), 54); // minimum TCP frame
/// ```
pub struct PacketBuilder {
    proto: Proto,
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    frame_size: usize,
    tos: u8,
}

impl PacketBuilder {
    fn new(proto: Proto) -> Self {
        PacketBuilder {
            proto,
            src_mac: MacAddr::from_host_index(1),
            dst_mac: MacAddr::from_host_index(2),
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            src_port: 1000,
            dst_port: 2000,
            frame_size: 100,
            tos: 0,
        }
    }

    /// Starts a UDP frame.
    pub fn udp() -> Self {
        PacketBuilder::new(Proto::Udp)
    }

    /// Starts a TCP frame (no flags; use [`PacketBuilder::tcp_flags`]).
    pub fn tcp() -> Self {
        PacketBuilder::new(Proto::Tcp(TcpFlags::EMPTY))
    }

    /// Builds a broadcast gratuitous-ARP frame for `mac`/`ip` directly.
    pub fn gratuitous_arp(mac: MacAddr, ip: Ipv4Addr) -> Packet {
        Packet {
            ethernet: EthernetHeader {
                dst: MacAddr::BROADCAST,
                src: mac,
                ethertype: EtherType::Arp,
            },
            payload: Payload::Arp(ArpPacket::gratuitous(mac, ip)),
        }
    }

    /// Sets the source MAC.
    pub fn src_mac(mut self, mac: MacAddr) -> Self {
        self.src_mac = mac;
        self
    }

    /// Sets the destination MAC.
    pub fn dst_mac(mut self, mac: MacAddr) -> Self {
        self.dst_mac = mac;
        self
    }

    /// Sets the source IPv4 address.
    pub fn src_ip(mut self, ip: Ipv4Addr) -> Self {
        self.src_ip = ip;
        self
    }

    /// Sets the destination IPv4 address.
    pub fn dst_ip(mut self, ip: Ipv4Addr) -> Self {
        self.dst_ip = ip;
        self
    }

    /// Sets the source transport port.
    pub fn src_port(mut self, port: u16) -> Self {
        self.src_port = port;
        self
    }

    /// Sets the destination transport port.
    pub fn dst_port(mut self, port: u16) -> Self {
        self.dst_port = port;
        self
    }

    /// Sets the IP ToS/DSCP byte (e.g. `0xb8` for EF) — how traffic
    /// declares its QoS class to an egress scheduler.
    pub fn tos(mut self, tos: u8) -> Self {
        self.tos = tos;
        self
    }

    /// Sets the TCP flags (TCP frames only; ignored for UDP).
    pub fn tcp_flags(mut self, flags: TcpFlags) -> Self {
        if let Proto::Tcp(ref mut f) = self.proto {
            *f = flags;
        }
        self
    }

    /// Sets the total Ethernet frame length in bytes. Clamped up to the
    /// protocol's minimum header stack and down to 65 535.
    pub fn frame_size(mut self, bytes: usize) -> Self {
        self.frame_size = bytes.min(65_535);
        self
    }

    /// Builds the frame.
    pub fn build(self) -> Packet {
        let min = match self.proto {
            Proto::Udp => MIN_UDP_FRAME,
            Proto::Tcp(_) => MIN_TCP_FRAME,
        };
        let frame = self.frame_size.max(min);
        let payload_len = frame - min;
        // Collected in place: one allocation, the `Arc`'s own.
        let payload: Bytes = std::iter::repeat(0u8).take(payload_len).collect();
        let (protocol, transport) = match self.proto {
            Proto::Udp => (
                17,
                Transport::Udp(
                    UdpHeader::new(self.src_port, self.dst_port, payload_len),
                    payload,
                ),
            ),
            Proto::Tcp(flags) => (
                6,
                Transport::Tcp(TcpHeader::new(self.src_port, self.dst_port, flags), payload),
            ),
        };
        let transport_len = transport.wire_len();
        let mut header = Ipv4Header::new(self.src_ip, self.dst_ip, protocol, transport_len);
        header.dscp_ecn = self.tos;
        Packet {
            ethernet: EthernetHeader {
                dst: self.dst_mac,
                src: self.src_mac,
                ethertype: EtherType::Ipv4,
            },
            payload: Payload::Ipv4(Ipv4Packet { header, transport }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packets_can_be_shared_across_threads() {
        fn send_and_sync<T: Send + Sync>() {}
        send_and_sync::<Packet>();
        send_and_sync::<WireFrame>();
    }

    #[test]
    fn udp_frame_round_trip() {
        let p = PacketBuilder::udp().frame_size(1000).build();
        assert_eq!(p.wire_len(), 1000);
        let bytes = p.encode();
        assert_eq!(bytes.len(), 1000);
        assert_eq!(Packet::decode(&bytes).unwrap(), p);
    }

    #[test]
    fn tcp_frame_round_trip() {
        let p = PacketBuilder::tcp()
            .tcp_flags(TcpFlags::SYN | TcpFlags::ACK)
            .frame_size(60)
            .build();
        assert_eq!(p.wire_len(), 60);
        assert_eq!(Packet::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn arp_frame_round_trip() {
        let p =
            PacketBuilder::gratuitous_arp(MacAddr::from_host_index(7), Ipv4Addr::new(10, 0, 0, 7));
        assert_eq!(p.wire_len(), 42);
        assert_eq!(Packet::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn frame_size_clamps_to_minimum() {
        let p = PacketBuilder::udp().frame_size(1).build();
        assert_eq!(p.wire_len(), MIN_UDP_FRAME);
        let p = PacketBuilder::tcp().frame_size(1).build();
        assert_eq!(p.wire_len(), MIN_TCP_FRAME);
    }

    #[test]
    fn frame_size_clamps_to_u16_total_len() {
        let p = PacketBuilder::udp().frame_size(1_000_000).build();
        assert_eq!(p.wire_len(), 65_535);
    }

    #[test]
    fn header_slice_truncates() {
        let p = PacketBuilder::udp().frame_size(1000).build();
        let h = p.header_slice(128);
        assert_eq!(h.len(), 128);
        assert_eq!(&h[..], &p.encode()[..128]);
        // Asking for more than the frame yields the whole frame.
        assert_eq!(p.header_slice(4096).len(), 1000);
    }

    #[test]
    fn a_whole_frame_goes_out_gathered_and_comes_back_sharing_its_payload() {
        for p in [
            PacketBuilder::udp().frame_size(1000).build(),
            PacketBuilder::tcp().frame_size(1000).build(),
        ] {
            let back = Packet::decode(&p.wire()).unwrap();
            assert_eq!(back, p);
            let (Payload::Ipv4(sent), Payload::Ipv4(got)) = (&p.payload, &back.payload) else {
                panic!("expected IPv4");
            };
            let (
                Transport::Udp(_, sent) | Transport::Tcp(_, sent) | Transport::Other(_, sent),
                Transport::Udp(_, got) | Transport::Tcp(_, got) | Transport::Other(_, got),
            ) = (&sent.transport, &got.transport);
            assert!(Arc::ptr_eq(sent, got));
            // A prefix is not the frame: its tail is never handed back.
            assert_eq!(
                Packet::decode(&p.wire_prefix(128)),
                Packet::decode(&p.header_slice(128))
            );
        }
    }

    #[test]
    fn ip_total_len_consistent_with_transport() {
        let p = PacketBuilder::udp().frame_size(500).build();
        if let Payload::Ipv4(ip) = &p.payload {
            assert_eq!(ip.header.total_len as usize, 500 - ETHERNET_HEADER_LEN);
            assert_eq!(ip.header.protocol, 17);
        } else {
            panic!("expected IPv4");
        }
    }

    #[test]
    fn decode_rejects_inconsistent_ip_length() {
        let p = PacketBuilder::udp().frame_size(100).build();
        let mut bytes = p.encode();
        bytes.truncate(60); // frame shorter than total_len claims
        assert!(matches!(
            Packet::decode(&bytes),
            Err(DecodeError::BadLengthField { .. })
        ));
    }

    #[test]
    fn decode_unknown_ethertype_as_raw() {
        let mut bytes = PacketBuilder::udp().build().encode();
        bytes[12] = 0x86; // EtherType -> 0x86xx (not IPv4/ARP)
        bytes[13] = 0xdd;
        let p = Packet::decode(&bytes).unwrap();
        assert!(matches!(p.payload, Payload::Raw(_)));
        // And it re-encodes to the same bytes.
        assert_eq!(p.encode(), bytes);
    }

    #[test]
    fn decode_other_ip_protocol() {
        let p = PacketBuilder::udp().frame_size(100).build();
        let mut bytes = p.encode();
        // Rewrite the protocol field to ICMP (1) and fix the checksum.
        bytes[ETHERNET_HEADER_LEN + 9] = 1;
        bytes[ETHERNET_HEADER_LEN + 10] = 0;
        bytes[ETHERNET_HEADER_LEN + 11] = 0;
        let csum = crate::ipv4::internet_checksum(
            &bytes[ETHERNET_HEADER_LEN..ETHERNET_HEADER_LEN + IPV4_HEADER_LEN],
        );
        bytes[ETHERNET_HEADER_LEN + 10..ETHERNET_HEADER_LEN + 12]
            .copy_from_slice(&csum.to_be_bytes());
        let decoded = Packet::decode(&bytes).unwrap();
        if let Payload::Ipv4(ip) = &decoded.payload {
            assert!(matches!(ip.transport, Transport::Other(1, _)));
        } else {
            panic!("expected IPv4");
        }
        assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn builder_setters_apply() {
        let p = PacketBuilder::udp()
            .src_mac(MacAddr::from_host_index(9))
            .dst_mac(MacAddr::from_host_index(10))
            .src_ip(Ipv4Addr::new(1, 1, 1, 1))
            .dst_ip(Ipv4Addr::new(2, 2, 2, 2))
            .src_port(42)
            .dst_port(43)
            .build();
        assert_eq!(p.ethernet.src, MacAddr::from_host_index(9));
        assert_eq!(p.ethernet.dst, MacAddr::from_host_index(10));
        let key = crate::FlowKey::of(&p).unwrap();
        assert_eq!(key.src_ip, Ipv4Addr::new(1, 1, 1, 1));
        assert_eq!(key.dst_port, 43);
    }

    #[test]
    fn tos_is_applied_and_round_trips() {
        let p = PacketBuilder::udp().tos(0xb8).frame_size(100).build();
        if let Payload::Ipv4(ip) = &p.payload {
            assert_eq!(ip.header.dscp_ecn, 0xb8);
        } else {
            panic!("expected IPv4");
        }
        assert_eq!(Packet::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn tcp_flags_ignored_on_udp() {
        // Calling tcp_flags on a UDP builder is a no-op, not a panic.
        let p = PacketBuilder::udp().tcp_flags(TcpFlags::SYN).build();
        if let Payload::Ipv4(ip) = &p.payload {
            assert!(matches!(ip.transport, Transport::Udp(..)));
        } else {
            panic!("expected IPv4");
        }
    }
}
