//! `pktgen`-style workload generators for `sdn-buffer-lab`.
//!
//! Reproduces the traffic of the paper's two experiments:
//!
//! * **Section IV** ([`single_packet_flows`]): "Host1 sends 1000 new flows
//!   to Host2 at each sending rate. Each flow includes one packet. To
//!   generate new flows, we use pktgen to forge source IP addresses." —
//!   constant-bit-rate departures of 1000-byte frames, each with a fresh
//!   forged source address.
//! * **Section V** ([`cross_sequenced_flows`]): "Host1 sends 50 flows to
//!   Host2. Each flow includes 20 packets. We first send out 5 flows (i.e.,
//!   100 packets) in cross sequences. Then, another 5 flows will be sent
//!   in the same way" — round-robin interleaving within each batch of 5
//!   flows, batches back to back.
//! * **Section VI.B** ([`tcp_with_idle_gap`]): a TCP connection that goes
//!   quiet long enough for its rule to be evicted, then resumes a large
//!   transfer — the scenario motivating buffers for TCP.
//!
//! Each run's 20 repetitions differ by a seeded departure jitter, exactly
//! the role measurement noise plays on the real testbed.
//!
//! # Example
//!
//! ```
//! use sdnbuf_workload::{single_packet_flows, PktgenConfig};
//! use sdnbuf_sim::BitRate;
//!
//! let cfg = PktgenConfig {
//!     rate: BitRate::from_mbps(50),
//!     ..PktgenConfig::default()
//! };
//! let departures = single_packet_flows(&cfg, 1000, 1);
//! assert_eq!(departures.len(), 1000);
//! // 1000-byte frames at 50 Mbps: 160 us apart on average.
//! let span = departures.last().unwrap().at - departures[0].at;
//! assert!((span.as_millis_f64() - 159.84).abs() < 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sdnbuf_net::{MacAddr, Packet, PacketBuilder, Payload, TcpFlags, Transport};
use sdnbuf_sim::{BitRate, Nanos, SimRng};
use std::cell::RefCell;
use std::net::Ipv4Addr;

/// One scheduled packet departure from the source host.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Departure {
    /// When the packet leaves the host NIC.
    pub at: Nanos,
    /// The packet.
    pub packet: Packet,
    /// Which flow of the workload this packet belongs to (0-based).
    pub flow_index: usize,
    /// Position of this packet within its flow (0-based).
    pub seq_in_flow: usize,
}

/// An endpoint of the testbed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HostAddr {
    /// The host's MAC address.
    pub mac: MacAddr,
    /// The host's IPv4 address.
    pub ip: Ipv4Addr,
}

impl HostAddr {
    /// The testbed's sender, `Host1`.
    pub fn host1() -> HostAddr {
        HostAddr {
            mac: MacAddr::from_host_index(1),
            ip: Ipv4Addr::new(10, 0, 0, 1),
        }
    }

    /// The testbed's receiver, `Host2`.
    pub fn host2() -> HostAddr {
        HostAddr {
            mac: MacAddr::from_host_index(2),
            ip: Ipv4Addr::new(10, 0, 0, 2),
        }
    }
}

/// The arrival process of generated packets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Constant bit rate with bounded uniform jitter — how `pktgen` paces
    /// (the paper's workloads).
    #[default]
    Cbr,
    /// Poisson arrivals (exponential gaps with the same mean) — burstier,
    /// closer to aggregated internet traffic; used by the arrival-process
    /// ablation.
    Poisson,
}

/// Configuration of the packet generator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PktgenConfig {
    /// Target sending rate (the paper sweeps 5–100 Mbps).
    pub rate: BitRate,
    /// Ethernet frame size (1000 bytes in the paper).
    pub frame_size: usize,
    /// Sender.
    pub src: HostAddr,
    /// Receiver.
    pub dst: HostAddr,
    /// First departure time.
    pub start_at: Nanos,
    /// Departure jitter as a fraction of the inter-departure gap, in
    /// per-mille (0 = exact CBR). Seeded per repetition. Only applies to
    /// [`ArrivalProcess::Cbr`].
    pub jitter_permille: u32,
    /// How departures are spaced.
    pub arrival: ArrivalProcess,
}

impl Default for PktgenConfig {
    /// The paper's default: 1000-byte frames from `Host1` to `Host2` at
    /// 100 Mbps with a small (2 %) scheduling jitter.
    fn default() -> Self {
        PktgenConfig {
            rate: BitRate::from_mbps(100),
            frame_size: 1000,
            src: HostAddr::host1(),
            dst: HostAddr::host2(),
            start_at: Nanos::ZERO,
            jitter_permille: 20,
            arrival: ArrivalProcess::Cbr,
        }
    }
}

impl PktgenConfig {
    /// Mean gap between departures sustaining the configured rate.
    pub fn interval(&self) -> Nanos {
        self.rate.interval_for_frame(self.frame_size)
    }

    fn next_gap(&self, rng: &mut SimRng) -> Nanos {
        let base = self.interval();
        match self.arrival {
            ArrivalProcess::Cbr => {
                if self.jitter_permille == 0 {
                    return base;
                }
                // Uniform jitter in [1 - j, 1 + j], mean-preserving.
                let j = self.jitter_permille as f64 / 1000.0;
                let factor = 1.0 - j + 2.0 * j * rng.next_f64();
                base.scale(factor).max(Nanos::from_nanos(1))
            }
            ArrivalProcess::Poisson => {
                // Exponential gap with the same mean rate.
                Nanos::from_secs_f64(rng.exp(base.as_secs_f64())).max(Nanos::from_nanos(1))
            }
        }
    }
}

/// A copy of `template` under another source address and IPv4
/// identification — the per-packet serial number that lets the measurement
/// tap tell a flow's packets apart, like a capture tool would. The copy
/// shares the template's payload bytes: a thread builds each [`template`]'s
/// filler once, so a departure costs a header, not a frame.
fn stamped(template: &Packet, src_ip: Ipv4Addr, ident: u16) -> Packet {
    let mut packet = template.clone();
    if let Payload::Ipv4(ip) = &mut packet.payload {
        ip.header.src = src_ip;
        ip.header.identification = ident;
    }
    packet
}

/// The forged source address of flow `i` (pktgen's source-IP forging):
/// walks through `10.128.0.0/9` so forged addresses never collide with real
/// hosts in `10.0.0.0/24`. Flows 2²³ apart share one.
fn forged_src_ip(i: usize) -> Ipv4Addr {
    let i = i as u32;
    Ipv4Addr::new(
        10,
        (128 + ((i >> 16) & 0x7f)) as u8,
        ((i >> 8) & 0xff) as u8,
        (i & 0xff) as u8,
    )
}

/// How many templates a thread keeps: the three a TCP workload is
/// stamped from and a UDP one beside them.
const KEPT_TEMPLATES: usize = 4;

/// `builder`'s frame: the one this thread built when it was last asked for
/// the same builder, or a new one it keeps in place of its oldest. The
/// templates a generator stamps its departures from repeat from call to
/// call, so a warm thread's call builds none: a kept template is handed
/// out as a clone, which shares its payload bytes.
fn template(builder: PacketBuilder) -> Packet {
    const NONE: Option<(PacketBuilder, Packet)> = None;
    thread_local! {
        static KEPT: RefCell<[Option<(PacketBuilder, Packet)>; KEPT_TEMPLATES]> =
            const { RefCell::new([NONE; KEPT_TEMPLATES]) };
    }
    KEPT.with_borrow_mut(|kept| {
        if let Some((_, packet)) = kept.iter().flatten().find(|(b, _)| *b == builder) {
            return packet.clone();
        }
        let packet = builder.build();
        kept.rotate_right(1);
        kept[0] = Some((builder, packet.clone()));
        packet
    })
}

/// The frame every UDP flow's packets are [`stamped`] from.
fn udp_template(cfg: &PktgenConfig) -> Packet {
    template(
        PacketBuilder::udp()
            .src_mac(cfg.src.mac)
            .dst_mac(cfg.dst.mac)
            .src_ip(cfg.src.ip)
            .dst_ip(cfg.dst.ip)
            .src_port(10_000)
            .dst_port(9)
            .frame_size(cfg.frame_size),
    )
}

/// A TCP frame of `cfg`'s connection (port 40 000 to 80).
fn tcp_frame(cfg: &PktgenConfig, flags: TcpFlags, size: usize) -> Packet {
    template(
        PacketBuilder::tcp()
            .src_mac(cfg.src.mac)
            .dst_mac(cfg.dst.mac)
            .src_ip(cfg.src.ip)
            .dst_ip(cfg.dst.ip)
            .src_port(40_000)
            .dst_port(80)
            .tcp_flags(flags)
            .frame_size(size),
    )
}

/// The frame every TCP data segment is [`stamped`] from.
fn tcp_segment_template(cfg: &PktgenConfig) -> Packet {
    tcp_frame(cfg, TcpFlags::ACK | TcpFlags::PSH, cfg.frame_size)
}

/// The Section IV workload: `n_flows` single-packet UDP flows with forged
/// source IPs, departing at the configured rate.
pub fn single_packet_flows(cfg: &PktgenConfig, n_flows: usize, seed: u64) -> Vec<Departure> {
    let mut out = Vec::new();
    single_packet_flows_into(cfg, n_flows, seed, &mut out);
    out
}

/// [`single_packet_flows`], appended to `out`.
pub fn single_packet_flows_into(
    cfg: &PktgenConfig,
    n_flows: usize,
    seed: u64,
    out: &mut Vec<Departure>,
) {
    let mut rng = SimRng::seed_from(seed);
    let template = udp_template(cfg);
    let mut at = cfg.start_at;
    out.reserve_exact(n_flows);
    for i in 0..n_flows {
        out.push(Departure {
            at,
            packet: stamped(&template, forged_src_ip(i), 0),
            flow_index: i,
            seq_in_flow: 0,
        });
        at += cfg.next_gap(&mut rng);
    }
}

/// The Section V workload: `n_flows` UDP flows of `packets_per_flow`
/// packets each, sent in cross sequence within batches of `group_size`
/// flows (flow₀ pkt₀, flow₁ pkt₀, …, flow₄ pkt₀, flow₀ pkt₁, …), batches
/// back to back. The paper uses 50 flows × 20 packets in groups of 5.
pub fn cross_sequenced_flows(
    cfg: &PktgenConfig,
    n_flows: usize,
    packets_per_flow: usize,
    group_size: usize,
    seed: u64,
) -> Vec<Departure> {
    let mut out = Vec::new();
    cross_sequenced_flows_into(cfg, n_flows, packets_per_flow, group_size, seed, &mut out);
    out
}

/// [`cross_sequenced_flows`], appended to `out`.
pub fn cross_sequenced_flows_into(
    cfg: &PktgenConfig,
    n_flows: usize,
    packets_per_flow: usize,
    group_size: usize,
    seed: u64,
    out: &mut Vec<Departure>,
) {
    assert!(group_size > 0, "group size must be positive");
    let mut rng = SimRng::seed_from(seed);
    let template = udp_template(cfg);
    let mut at = cfg.start_at;
    out.reserve_exact(n_flows * packets_per_flow);
    let mut batch_start = 0;
    while batch_start < n_flows {
        let batch_end = (batch_start + group_size).min(n_flows);
        for seq in 0..packets_per_flow {
            for flow in batch_start..batch_end {
                out.push(Departure {
                    at,
                    packet: stamped(&template, forged_src_ip(flow), seq as u16),
                    flow_index: flow,
                    seq_in_flow: seq,
                });
                at += cfg.next_gap(&mut rng);
            }
        }
        batch_start = batch_end;
    }
}

/// The Section VI.B scenario: one TCP connection that handshakes, sends
/// `first_burst` data segments, goes idle for `idle_gap` (long enough for
/// its rule to be evicted or to time out), then resumes with
/// `second_burst` segments — "large volume of data may be transmitted
/// after that transient time period because the TCP connection is not
/// terminated in actual".
pub fn tcp_with_idle_gap(
    cfg: &PktgenConfig,
    first_burst: usize,
    idle_gap: Nanos,
    second_burst: usize,
    seed: u64,
) -> Vec<Departure> {
    let mut out = Vec::new();
    tcp_with_idle_gap_into(cfg, first_burst, idle_gap, second_burst, seed, &mut out);
    out
}

/// [`tcp_with_idle_gap`], appended to `out`.
pub fn tcp_with_idle_gap_into(
    cfg: &PktgenConfig,
    first_burst: usize,
    idle_gap: Nanos,
    second_burst: usize,
    seed: u64,
    out: &mut Vec<Departure>,
) {
    let segment = tcp_segment_template(cfg);
    out.reserve_exact(first_burst + second_burst + 2);
    tcp_connection(
        cfg,
        &segment,
        first_burst,
        idle_gap,
        second_burst,
        seed,
        out,
    );
}

/// [`tcp_with_idle_gap_into`] with its data segments stamped from
/// `segment`, so that the connections of one mix share one filler.
fn tcp_connection(
    cfg: &PktgenConfig,
    segment: &Packet,
    first_burst: usize,
    idle_gap: Nanos,
    second_burst: usize,
    seed: u64,
    out: &mut Vec<Departure>,
) {
    let mut rng = SimRng::seed_from(seed);
    let mut at = cfg.start_at;
    let mut seq_in_flow = 0;
    let push = |at: Nanos, frame: &Packet, seq_in_flow: usize| Departure {
        at,
        packet: stamped(frame, cfg.src.ip, seq_in_flow as u16),
        flow_index: 0,
        seq_in_flow,
    };
    // Handshake opener: a small SYN (the "negotiating first" case where
    // buffering matters little).
    out.push(push(at, &tcp_frame(cfg, TcpFlags::SYN, 60), seq_in_flow));
    seq_in_flow += 1;
    at += cfg.next_gap(&mut rng);
    out.push(push(at, &tcp_frame(cfg, TcpFlags::ACK, 60), seq_in_flow));
    seq_in_flow += 1;
    for _ in 0..first_burst {
        at += cfg.next_gap(&mut rng);
        out.push(push(at, segment, seq_in_flow));
        seq_in_flow += 1;
    }
    // The transient inactivity: rule gets kicked out, connection survives.
    at += idle_gap;
    for _ in 0..second_burst {
        out.push(push(at, segment, seq_in_flow));
        seq_in_flow += 1;
        at += cfg.next_gap(&mut rng);
    }
}

/// A mixed workload: interleaves a Section IV-style UDP flood with
/// `n_tcp` well-behaved TCP connections, reflecting the paper's
/// "TCP still dominates in bytes, UDP in flows" discussion. Connection `t`
/// sends from port 40 000 + `t`, so at most 25 536 of them fit.
pub fn mixed_udp_tcp(
    cfg: &PktgenConfig,
    n_udp_flows: usize,
    n_tcp: usize,
    segments_per_tcp: usize,
    seed: u64,
) -> Vec<Departure> {
    let mut out = Vec::new();
    mixed_udp_tcp_into(cfg, n_udp_flows, n_tcp, segments_per_tcp, seed, &mut out);
    out
}

/// [`mixed_udp_tcp`], appended to `out`.
pub fn mixed_udp_tcp_into(
    cfg: &PktgenConfig,
    n_udp_flows: usize,
    n_tcp: usize,
    segments_per_tcp: usize,
    seed: u64,
    out: &mut Vec<Departure>,
) {
    let start = out.len();
    out.reserve_exact(n_udp_flows + n_tcp * (segments_per_tcp + 2));
    single_packet_flows_into(cfg, n_udp_flows, seed, out);
    let mut rng = SimRng::seed_from(seed ^ 0x7cc);
    let segment = tcp_segment_template(cfg);
    for t in 0..n_tcp {
        // Each connection is a light background stream (a tenth of the UDP
        // rate shared across connections), so the mix's total offered rate
        // stays near the configured rate instead of doubling it.
        let tcp_rate =
            BitRate::from_bps((cfg.rate.as_bps() / (10 * n_tcp.max(1) as u64)).max(1_000_000));
        let tcp_cfg = PktgenConfig {
            start_at: cfg.start_at + cfg.interval() * (t as u64 + 1),
            rate: tcp_rate,
            ..*cfg
        };
        let conn = out.len();
        let seed = rng.next_u64();
        tcp_connection(
            &tcp_cfg,
            &segment,
            segments_per_tcp,
            Nanos::ZERO,
            0,
            seed,
            out,
        );
        for d in &mut out[conn..] {
            d.flow_index = n_udp_flows + t; // distinct flow numbering
                                            // Give each connection its own ephemeral source port so the
                                            // connections are distinct flows (and distinct packets on the
                                            // measurement tap).
            if let Payload::Ipv4(ip) = &mut d.packet.payload {
                if let Transport::Tcp(tcp, _) = &mut ip.transport {
                    tcp.src_port = 40_000 + t as u16;
                }
            }
        }
    }
    out[start..].sort_by_key(|d| d.at);
}

/// `true` when every departure is in non-decreasing time order — every
/// generator in this crate upholds it, and the testbed asserts it.
pub fn is_time_ordered(departures: &[Departure]) -> bool {
    departures.windows(2).all(|w| w[0].at <= w[1].at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnbuf_net::{FlowKey, IpProto};
    use std::collections::{HashMap, HashSet};

    fn cfg(mbps: u64) -> PktgenConfig {
        PktgenConfig {
            rate: BitRate::from_mbps(mbps),
            ..PktgenConfig::default()
        }
    }

    #[test]
    fn single_packet_flows_are_all_distinct() {
        let deps = single_packet_flows(&cfg(50), 1000, 1);
        assert_eq!(deps.len(), 1000);
        let keys: HashSet<_> = deps
            .iter()
            .map(|d| FlowKey::of(&d.packet).unwrap())
            .collect();
        assert_eq!(keys.len(), 1000, "every packet must be a new flow");
        assert!(is_time_ordered(&deps));
    }

    #[test]
    fn rate_is_respected_on_average() {
        let deps = single_packet_flows(&cfg(20), 500, 3);
        let span = deps.last().unwrap().at - deps[0].at;
        let bits = 499.0 * 1000.0 * 8.0; // gaps between 500 departures
        let rate_mbps = bits / span.as_secs_f64() / 1e6;
        assert!(
            (rate_mbps - 20.0).abs() < 1.0,
            "measured {rate_mbps} Mbps, wanted 20"
        );
    }

    #[test]
    fn zero_jitter_is_exact_cbr() {
        let c = PktgenConfig {
            jitter_permille: 0,
            ..cfg(100)
        };
        let deps = single_packet_flows(&c, 10, 1);
        let gaps: HashSet<u64> = deps
            .windows(2)
            .map(|w| (w[1].at - w[0].at).as_nanos())
            .collect();
        assert_eq!(gaps.len(), 1);
        assert_eq!(gaps.into_iter().next().unwrap(), 80_000);
    }

    #[test]
    fn poisson_matches_mean_rate_but_is_bursty() {
        let cfg = PktgenConfig {
            rate: BitRate::from_mbps(50),
            arrival: ArrivalProcess::Poisson,
            ..PktgenConfig::default()
        };
        let deps = single_packet_flows(&cfg, 4000, 9);
        assert!(is_time_ordered(&deps));
        let span = deps.last().unwrap().at - deps[0].at;
        let rate = 3999.0 * 1000.0 * 8.0 / span.as_secs_f64() / 1e6;
        assert!((rate - 50.0).abs() < 3.0, "poisson mean rate {rate} Mbps");
        // Burstiness: gap coefficient of variation near 1 (vs ~0 for CBR).
        let gaps: Vec<f64> = deps
            .windows(2)
            .map(|w| (w[1].at - w[0].at).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!(cv > 0.8, "poisson CV {cv} should be near 1");
    }

    #[test]
    fn seeds_change_schedules_but_not_packets() {
        let a = single_packet_flows(&cfg(50), 100, 1);
        let b = single_packet_flows(&cfg(50), 100, 2);
        assert_ne!(
            a.iter().map(|d| d.at).collect::<Vec<_>>(),
            b.iter().map(|d| d.at).collect::<Vec<_>>()
        );
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.packet, y.packet);
        }
        // Same seed: identical.
        let c = single_packet_flows(&cfg(50), 100, 1);
        assert_eq!(a, c);
    }

    #[test]
    fn cross_sequenced_matches_paper_shape() {
        let deps = cross_sequenced_flows(&cfg(50), 50, 20, 5, 1);
        assert_eq!(deps.len(), 1000);
        assert!(is_time_ordered(&deps));
        // First ten departures: flows 0..5 round-robin.
        let first: Vec<usize> = deps[..10].iter().map(|d| d.flow_index).collect();
        assert_eq!(first, vec![0, 1, 2, 3, 4, 0, 1, 2, 3, 4]);
        // Batch 2 (flows 5..10) starts only after batch 1's 100 packets.
        assert!(deps[..100].iter().all(|d| d.flow_index < 5));
        assert_eq!(deps[100].flow_index, 5);
        // 50 distinct flows, 20 packets each.
        let keys: HashSet<_> = deps
            .iter()
            .map(|d| FlowKey::of(&d.packet).unwrap())
            .collect();
        assert_eq!(keys.len(), 50);
        for flow in 0..50 {
            assert_eq!(deps.iter().filter(|d| d.flow_index == flow).count(), 20);
        }
    }

    #[test]
    fn cross_sequenced_packets_are_distinguishable() {
        let deps = cross_sequenced_flows(&cfg(50), 5, 20, 5, 1);
        // (flow, ident) pairs must be unique — the measurement tap's handle.
        let mut seen = HashSet::new();
        for d in &deps {
            let key = FlowKey::of(&d.packet).unwrap();
            let ident = match &d.packet.payload {
                Payload::Ipv4(ip) => ip.header.identification,
                _ => panic!(),
            };
            assert!(seen.insert((key, ident)));
            assert_eq!(ident as usize, d.seq_in_flow);
        }
    }

    #[test]
    fn tcp_scenario_shape() {
        let deps = tcp_with_idle_gap(&cfg(50), 10, Nanos::from_secs(8), 30, 1);
        assert_eq!(deps.len(), 2 + 10 + 30);
        assert!(is_time_ordered(&deps));
        // All one flow.
        let keys: HashSet<_> = deps
            .iter()
            .map(|d| FlowKey::of(&d.packet).unwrap())
            .collect();
        assert_eq!(keys.len(), 1);
        assert_eq!(keys.iter().next().unwrap().protocol, IpProto::Tcp);
        // The idle gap is visible between packet 11 and 12.
        let gap = deps[12].at - deps[11].at;
        assert!(gap >= Nanos::from_secs(8));
    }

    #[test]
    fn mixed_workload_is_ordered_and_complete() {
        let deps = mixed_udp_tcp(&cfg(50), 100, 3, 5, 1);
        assert!(is_time_ordered(&deps));
        assert_eq!(deps.len(), 100 + 3 * 7); // 7 = SYN + ACK + 5 segments
        let tcp_flows: HashSet<_> = deps
            .iter()
            .filter_map(|d| FlowKey::of(&d.packet))
            .filter(|k| k.protocol == IpProto::Tcp)
            .collect();
        // All TCP connections share the same 5-tuple source config except
        // the src ip is host1 for each (they are sequential connections in
        // this model).
        assert!(!tcp_flows.is_empty());
    }

    #[test]
    fn every_generator_gives_each_flow_one_key_of_its_own() {
        // Flow index ↔ `FlowKey` is a bijection: the testbed credits a
        // `packet_in` with no frame behind it to the flow its key names.
        let c = cfg(50);
        for (what, deps) in [
            ("single", single_packet_flows(&c, 1000, 1)),
            ("cross-sequenced", cross_sequenced_flows(&c, 60, 20, 5, 1)),
            (
                "tcp idle gap",
                tcp_with_idle_gap(&c, 10, Nanos::from_millis(5), 10, 1),
            ),
            ("mixed", mixed_udp_tcp(&c, 200, 5, 10, 1)),
        ] {
            let mut key_of_flow = HashMap::new();
            let mut flow_of_key = HashMap::new();
            for d in &deps {
                let key = FlowKey::of(&d.packet).expect("generated frames have a key");
                let flow = d.flow_index;
                assert_eq!(*key_of_flow.entry(flow).or_insert(key), key, "{what}");
                assert_eq!(*flow_of_key.entry(key).or_insert(flow), flow, "{what}");
            }
            let flows = deps.iter().map(|d| d.flow_index).max().map_or(0, |f| f + 1);
            assert_eq!(
                (key_of_flow.len(), flow_of_key.len()),
                (flows, flows),
                "{what}"
            );
        }
    }

    #[test]
    fn forged_ips_do_not_collide_with_hosts() {
        for i in [0usize, 1, 255, 256, 65535, 65536, 100_000] {
            let ip = forged_src_ip(i);
            assert_ne!(ip, HostAddr::host1().ip);
            assert_ne!(ip, HostAddr::host2().ip);
            assert_eq!(ip.octets()[0], 10);
            assert!(ip.octets()[1] >= 128);
        }
    }

    #[test]
    fn forged_ips_number_two_to_the_23_flows_then_repeat() {
        // The address's low 23 bits are the flow index.
        for i in [0usize, 1, 0xff, 0x100, 0xffff, 0x1_0000, (1 << 23) - 1] {
            assert_eq!(u32::from(forged_src_ip(i)), 0x0a80_0000 | i as u32);
        }
        assert_eq!(forged_src_ip(1 << 23), forged_src_ip(0));
    }

    #[test]
    fn forged_ips_are_unique_over_the_sweep_sizes() {
        let ips: HashSet<_> = (0..10_000).map(forged_src_ip).collect();
        assert_eq!(ips.len(), 10_000);
    }
}
