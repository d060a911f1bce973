//! Property-based tests: every packet the builder can produce round-trips
//! through the wire codec, decoding never panics on arbitrary bytes, and
//! gathered wire bytes ([`WireFrame`]) are, to every reader, the flat bytes
//! they stand for.

use proptest::prelude::*;
use sdnbuf_net::{
    Bytes, EtherType, EthernetHeader, FlowKey, Ipv4Header, Ipv4Packet, MacAddr, Packet,
    PacketBuilder, Payload, TcpFlags, Transport, WireFrame, HEADERS_MAX,
};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::net::Ipv4Addr;

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

/// A frame of every kind the codec knows — UDP, TCP, ARP, another IP
/// protocol, another EtherType — over payload bytes that are not all alike.
fn arb_frame() -> impl Strategy<Value = Packet> {
    let body = || proptest::collection::vec(any::<u8>(), 0..300).prop_map(Bytes::from);
    let over_ip = |protocol: u8, transport: Transport| {
        let (src, dst) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        let mut p = PacketBuilder::udp().build();
        let header = Ipv4Header::new(src, dst, protocol, transport.wire_len());
        p.payload = Payload::Ipv4(Ipv4Packet { header, transport });
        p
    };
    prop_oneof![
        (any::<u16>(), body()).prop_map(move |(port, bytes)| {
            let udp = sdnbuf_net::UdpHeader::new(port, 9, bytes.len());
            over_ip(17, Transport::Udp(udp, bytes))
        }),
        (any::<u16>(), body()).prop_map(move |(port, bytes)| {
            let tcp = sdnbuf_net::TcpHeader::new(port, 443, TcpFlags::PSH | TcpFlags::ACK);
            over_ip(6, Transport::Tcp(tcp, bytes))
        }),
        (any::<[u8; 6]>(), arb_ip())
            .prop_map(|(mac, ip)| PacketBuilder::gratuitous_arp(MacAddr::new(mac), ip)),
        (any::<u8>(), body()).prop_map(move |(protocol, bytes)| {
            let protocol = if matches!(protocol, 6 | 17) {
                1
            } else {
                protocol
            };
            over_ip(protocol, Transport::Other(protocol, bytes))
        }),
        (0x0900u16..0xffff, body()).prop_map(|(ethertype, bytes)| Packet {
            ethernet: EthernetHeader {
                dst: MacAddr::from_host_index(2),
                src: MacAddr::from_host_index(1),
                ethertype: EtherType::Other(ethertype),
            },
            payload: Payload::Raw(bytes),
        }),
    ]
}

/// `frame` with its IPv4 `total_len` and UDP `length` moved by the deltas —
/// headers that lie, in either direction, about the bytes that follow.
fn lying(mut frame: Packet, total_delta: i16, udp_delta: i16) -> Packet {
    if let Payload::Ipv4(ip) = &mut frame.payload {
        ip.header.total_len = ip.header.total_len.wrapping_add_signed(total_delta);
        if let Transport::Udp(udp, _) = &mut ip.transport {
            udp.length = udp.length.wrapping_add_signed(udp_delta);
        }
    }
    frame
}

/// How far a length field lies: mostly not at all, else up to 60 bytes
/// either way.
fn arb_delta() -> impl Strategy<Value = i16> {
    prop_oneof![2 => Just(0i16), 1 => (0u16..121).prop_map(|d| d as i16 - 60)]
}

fn payload_of(frame: &Packet) -> Option<&Bytes> {
    match &frame.payload {
        Payload::Arp(_) => None,
        Payload::Raw(bytes) => Some(bytes),
        Payload::Ipv4(ip) => {
            let (Transport::Udp(_, p) | Transport::Tcp(_, p) | Transport::Other(_, p)) =
                &ip.transport;
            Some(p)
        }
    }
}

fn hash_of(frame: &WireFrame) -> u64 {
    let mut hasher = DefaultHasher::new();
    frame.hash(&mut hasher);
    hasher.finish()
}

/// Every way of holding `flat`: as one `From<Vec<u8>>` builds it, and split
/// between inline head and shared tail at every offset a head can end.
fn every_split(flat: &[u8]) -> impl Iterator<Item = WireFrame> + '_ {
    let splits = (0..=flat.len().min(HEADERS_MAX))
        .map(|at| WireFrame::from_parts(&flat[..at], flat[at..].into()));
    std::iter::once(WireFrame::from(flat.to_vec())).chain(splits)
}

proptest! {
    #[test]
    fn udp_round_trip(
        src in arb_ip(),
        dst in arb_ip(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        frame in 0usize..3000,
    ) {
        let p = PacketBuilder::udp()
            .src_ip(src).dst_ip(dst)
            .src_port(sport).dst_port(dport)
            .frame_size(frame)
            .build();
        let bytes = p.encode();
        prop_assert_eq!(bytes.len(), p.wire_len());
        let back = Packet::decode(&bytes).unwrap();
        prop_assert_eq!(back, p);
    }

    #[test]
    fn tcp_round_trip(
        src in arb_ip(),
        dst in arb_ip(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        flags in 0u8..32,
        frame in 0usize..3000,
    ) {
        let p = PacketBuilder::tcp()
            .src_ip(src).dst_ip(dst)
            .src_port(sport).dst_port(dport)
            .tcp_flags(TcpFlags::from_bits(flags))
            .frame_size(frame)
            .build();
        let back = Packet::decode(&p.encode()).unwrap();
        prop_assert_eq!(back, p);
    }

    #[test]
    fn arp_round_trip(mac in any::<[u8; 6]>(), ip in arb_ip()) {
        let p = PacketBuilder::gratuitous_arp(MacAddr::new(mac), ip);
        let back = Packet::decode(&p.encode()).unwrap();
        prop_assert_eq!(back, p);
    }

    #[test]
    fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        // Must return Ok or Err, never panic — and the same one however
        // the bytes are held.
        let flat = Packet::decode(&bytes);
        for gathered in every_split(&bytes) {
            prop_assert_eq!(&Packet::decode(&gathered), &flat);
        }
    }

    /// The differential property: a gathered frame, or any prefix of one,
    /// is the flat bytes it stands for — the same bytes, equal and hashing
    /// equal under every split, and decoding to the same packet or the same
    /// error — also when the length fields lie about the tail, and also
    /// when that tail is shared with another frame.
    #[test]
    fn gathered_bytes_are_the_flat_bytes(
        frame in arb_frame(),
        total_delta in arb_delta(),
        udp_delta in arb_delta(),
    ) {
        let frame = lying(frame, total_delta, udp_delta);
        let full = frame.encode();
        prop_assert_eq!(full.len(), frame.wire_len());
        // A neighbour holding the same payload allocation changes nothing.
        let _neighbour = frame.clone();
        for n in 0..=full.len() + 1 {
            let flat = &full[..n.min(full.len())];
            let prefix = frame.wire_prefix(n);
            prop_assert_eq!(prefix.len(), flat.len());
            prop_assert_eq!(prefix.to_vec(), flat);
            prop_assert_eq!(frame.header_slice(n), flat);
            let decoded = Packet::decode(flat);
            prop_assert_eq!(&Packet::decode(&prefix), &decoded, "prefix {}", n);
            // Past the headers one flat split is as good as every other.
            let splits: Vec<WireFrame> = if n <= HEADERS_MAX + 1 || n == full.len() {
                every_split(flat).collect()
            } else {
                vec![WireFrame::from(flat)]
            };
            for gathered in splits {
                prop_assert_eq!(&gathered, &prefix);
                prop_assert_eq!(hash_of(&gathered), hash_of(&prefix));
                prop_assert_eq!(&Packet::decode(&gathered), &decoded, "a split of prefix {}", n);
            }
        }
        if total_delta == 0 && udp_delta == 0 {
            // An honest whole frame comes back as itself, on the payload
            // allocation it went out on.
            let back = Packet::decode(&frame.wire());
            prop_assert_eq!(&back, &Ok(frame.clone()));
            if let (Some(sent), Some(got)) = (payload_of(&frame), payload_of(&back.unwrap())) {
                prop_assert!(sent.is_empty() || Bytes::ptr_eq(sent, got));
            }
        }
    }

    #[test]
    fn flow_key_ignores_payload_size(
        sport in any::<u16>(),
        dport in any::<u16>(),
        a in 42usize..1500,
        b in 42usize..1500,
    ) {
        let p1 = PacketBuilder::udp().src_port(sport).dst_port(dport).frame_size(a).build();
        let p2 = PacketBuilder::udp().src_port(sport).dst_port(dport).frame_size(b).build();
        prop_assert_eq!(FlowKey::of(&p1), FlowKey::of(&p2));
    }

    #[test]
    fn flow_key_reversal_is_involution(
        src in arb_ip(),
        dst in arb_ip(),
        sport in any::<u16>(),
        dport in any::<u16>(),
    ) {
        let p = PacketBuilder::udp().src_ip(src).dst_ip(dst).src_port(sport).dst_port(dport).build();
        let k = FlowKey::of(&p).unwrap();
        prop_assert_eq!(k.reversed().reversed(), k);
    }

    #[test]
    fn header_slice_is_prefix(n in 0usize..2000, frame in 42usize..1500) {
        let p = PacketBuilder::udp().frame_size(frame).build();
        let full = p.encode();
        let slice = p.header_slice(n);
        prop_assert_eq!(slice.len(), n.min(full.len()));
        prop_assert_eq!(&full[..slice.len()], &slice[..]);
        prop_assert_eq!(p.wire_prefix(n), slice);
    }
}
