//! Lenient header parsing for (possibly truncated) `packet_in` data.
//!
//! A buffered `packet_in` carries only the first `miss_send_len` bytes of
//! the frame, so the full-packet decoder (which validates total lengths)
//! cannot be used. Real controllers parse layer by layer and stop at the
//! headers they need; this module does the same.

use sdnbuf_net::{
    DecodeError, EtherType, EthernetHeader, FlowKey, FrameBytes, Ipv4Header, MacAddr, TcpHeader,
    UdpHeader, ETHERNET_HEADER_LEN, HEADERS_MAX, IPV4_HEADER_LEN,
};
use std::net::Ipv4Addr;

/// The header fields a reactive forwarding application needs, extracted
/// from possibly-truncated packet bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParsedHeaders {
    /// Ethernet source.
    pub src_mac: MacAddr,
    /// Ethernet destination.
    pub dst_mac: MacAddr,
    /// EtherType.
    pub ethertype: EtherType,
    /// IPv4 addresses and protocol, when the frame is IPv4.
    pub ip: Option<IpInfo>,
}

/// IPv4-level fields of a parsed header stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IpInfo {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// IP ToS byte.
    pub tos: u8,
    /// Protocol number.
    pub protocol: u8,
    /// Transport ports, when TCP/UDP headers were present in the slice.
    pub ports: Option<(u16, u16)>,
}

impl ParsedHeaders {
    /// Parses as many layers as the byte slice contains.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`DecodeError`] when even the Ethernet header
    /// is incomplete or an inner header is malformed.
    pub fn parse<B: FrameBytes + ?Sized>(data: &B) -> Result<ParsedHeaders, DecodeError> {
        // Every header this reads lies in the first HEADERS_MAX bytes.
        let mut scratch = [0u8; HEADERS_MAX];
        let data = data.leading(&mut scratch);
        let eth = EthernetHeader::decode(data)?;
        let mut parsed = ParsedHeaders {
            src_mac: eth.src,
            dst_mac: eth.dst,
            ethertype: eth.ethertype,
            ip: None,
        };
        if eth.ethertype == EtherType::Ipv4 {
            let rest = &data[ETHERNET_HEADER_LEN..];
            let ip = Ipv4Header::decode(rest)?;
            let body = &rest[IPV4_HEADER_LEN..];
            let ports = match ip.protocol {
                17 => UdpHeader::decode(body)
                    .ok()
                    .map(|u| (u.src_port, u.dst_port)),
                6 => TcpHeader::decode(body)
                    .ok()
                    .map(|t| (t.src_port, t.dst_port)),
                _ => None,
            };
            parsed.ip = Some(IpInfo {
                src: ip.src,
                dst: ip.dst,
                tos: ip.dscp_ecn & 0xfc,
                protocol: ip.protocol,
                ports,
            });
        }
        Ok(parsed)
    }

    /// The flow 5-tuple, when the slice contained TCP/UDP over IPv4.
    pub fn flow_key(&self) -> Option<FlowKey> {
        let ip = self.ip?;
        let (src_port, dst_port) = ip.ports?;
        Some(FlowKey {
            src_ip: ip.src,
            dst_ip: ip.dst,
            src_port,
            dst_port,
            protocol: ip.protocol.into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnbuf_net::PacketBuilder;

    #[test]
    fn parses_truncated_udp_slice() {
        let pkt = PacketBuilder::udp()
            .src_port(7)
            .dst_port(8)
            .frame_size(1000)
            .build();
        let slice = pkt.header_slice(128);
        let h = ParsedHeaders::parse(&slice).unwrap();
        assert_eq!(h.src_mac, pkt.ethernet.src);
        assert_eq!(h.dst_mac, pkt.ethernet.dst);
        let key = h.flow_key().unwrap();
        assert_eq!(key, FlowKey::of(&pkt).unwrap());
    }

    #[test]
    fn gathered_bytes_parse_as_the_flat_bytes_do() {
        // A UDP frame whose IP header says TCP: the transport header a
        // parser reads runs past the inline headers into the shared payload.
        let mut lying = PacketBuilder::udp().frame_size(200).build();
        if let sdnbuf_net::Payload::Ipv4(ip) = &mut lying.payload {
            ip.header.protocol = 6;
        }
        for pkt in [
            PacketBuilder::udp().frame_size(200).build(),
            PacketBuilder::tcp().frame_size(200).build(),
            lying,
        ] {
            for n in 0..=pkt.wire_len() {
                assert_eq!(
                    ParsedHeaders::parse(&pkt.wire_prefix(n)),
                    ParsedHeaders::parse(&pkt.header_slice(n)),
                    "first {n} bytes"
                );
            }
        }
    }

    #[test]
    fn parses_full_frame_too() {
        let pkt = PacketBuilder::tcp().frame_size(200).build();
        let h = ParsedHeaders::parse(&pkt.encode()).unwrap();
        assert!(h.flow_key().is_some());
    }

    #[test]
    fn arp_has_no_flow_key() {
        let arp =
            PacketBuilder::gratuitous_arp(MacAddr::from_host_index(1), Ipv4Addr::new(10, 0, 0, 1));
        let h = ParsedHeaders::parse(&arp.encode()).unwrap();
        assert_eq!(h.ethertype, EtherType::Arp);
        assert_eq!(h.flow_key(), None);
        assert_eq!(h.ip, None);
    }

    #[test]
    fn slice_without_transport_header_still_yields_ips() {
        let pkt = PacketBuilder::udp().frame_size(1000).build();
        // 34 bytes: Ethernet + IPv4 only, UDP header cut off.
        let h = ParsedHeaders::parse(&pkt.header_slice(34)).unwrap();
        let ip = h.ip.unwrap();
        assert_eq!(ip.protocol, 17);
        assert_eq!(ip.ports, None);
        assert_eq!(h.flow_key(), None);
    }

    #[test]
    fn too_short_fails() {
        assert!(ParsedHeaders::parse(&[0u8; 10]).is_err());
    }
}
