//! Switch configuration and cost model.

use sdnbuf_flowtable::EvictionPolicy;
use sdnbuf_sim::faults::{fmt_dur, parse_dur};
use sdnbuf_sim::{BitRate, Nanos};
use sdnbuf_switchbuf::RetryPolicy;
use std::fmt;
use std::str::FromStr;

/// Which buffer mechanism the switch runs — the single knob every
/// experiment in the paper turns.
///
/// `Hash` so the mechanism can key sweep-result cells (`CellKey` in
/// `sdnbuf-core`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BufferChoice {
    /// OpenFlow default behaviour: no buffering, full packets in every
    /// control message.
    NoBuffer,
    /// The default OpenFlow buffer (Section IV): one unit and one
    /// `packet_in` per miss-match packet.
    PacketGranularity {
        /// Buffer units (16 and 256 in the paper).
        capacity: usize,
    },
    /// The paper's proposed mechanism (Section V): one `packet_in` per
    /// flow, shared `buffer_id`, whole-flow release.
    FlowGranularity {
        /// Buffer units shared across flows.
        capacity: usize,
        /// Algorithm 1 re-request timeout.
        timeout: Nanos,
    },
}

impl BufferChoice {
    /// A short label used in result tables ("no-buffer", "buffer-16", …).
    pub fn label(&self) -> String {
        match self {
            BufferChoice::NoBuffer => "no-buffer".to_owned(),
            BufferChoice::PacketGranularity { capacity } => format!("buffer-{capacity}"),
            BufferChoice::FlowGranularity { capacity, .. } => {
                format!("flow-buffer-{capacity}")
            }
        }
    }

    /// Checks the choice for values the mechanism constructors would panic
    /// on, so misconfigurations are reported before a run starts.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            BufferChoice::NoBuffer => Ok(()),
            BufferChoice::PacketGranularity { capacity }
            | BufferChoice::FlowGranularity { capacity, .. }
                if capacity == 0 =>
            {
                Err("buffer capacity must be positive (use NoBuffer for zero)".to_owned())
            }
            BufferChoice::PacketGranularity { .. } => Ok(()),
            BufferChoice::FlowGranularity { timeout, .. } if timeout == Nanos::ZERO => Err(
                "flow-granularity re-request timeout must be positive (a zero \
                 timeout would re-request on every packet)"
                    .to_owned(),
            ),
            BufferChoice::FlowGranularity { .. } => Ok(()),
        }
    }
}

/// The mechanism grammar every CLI flag and replay spec shares: `none`,
/// `packet:<capacity>`, `flow:<capacity>:<timeout>`. Parsing restores the
/// displayed value exactly.
impl fmt::Display for BufferChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BufferChoice::NoBuffer => write!(f, "none"),
            BufferChoice::PacketGranularity { capacity } => write!(f, "packet:{capacity}"),
            BufferChoice::FlowGranularity { capacity, timeout } => {
                write!(f, "flow:{capacity}:{}", fmt_dur(timeout))
            }
        }
    }
}

/// Accepts what [`BufferChoice`]'s `Display` prints, plus `flow:<capacity>`
/// with the timeout defaulting to 50 ms. Timeouts take a unit
/// (`ns`/`us`/`ms`/`s`); plain numbers are milliseconds.
impl FromStr for BufferChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<BufferChoice, String> {
        let capacity = |c: &str| c.parse().map_err(|_| format!("bad capacity in '{s}'"));
        let parts: Vec<&str> = s.split(':').collect();
        match parts.as_slice() {
            ["none"] => Ok(BufferChoice::NoBuffer),
            ["packet", cap] => Ok(BufferChoice::PacketGranularity {
                capacity: capacity(cap)?,
            }),
            ["flow", cap] => Ok(BufferChoice::FlowGranularity {
                capacity: capacity(cap)?,
                timeout: Nanos::from_millis(50),
            }),
            ["flow", cap, timeout] => Ok(BufferChoice::FlowGranularity {
                capacity: capacity(cap)?,
                timeout: parse_dur(timeout)?,
            }),
            _ => Err(format!(
                "bad mechanism '{s}' (expected none, packet:<cap> or flow:<cap>[:<timeout>])"
            )),
        }
    }
}

/// Static configuration and timing-cost model of the switch.
///
/// The cost constants are calibrated against the switch-side latencies
/// reported by He et al. (SOSR'15) — the paper's references \[8\]/\[9\] — and
/// tuned so the reproduction's figures match the paper's *shapes* (see
/// `EXPERIMENTS.md`); [`SwitchConfig::default`] is that calibration. All
/// costs are CPU service times; queueing on the shared cores and the
/// ASIC↔CPU bus produces the load-dependent delay growth the paper
/// measures. The switch has two data ports, as in Fig. 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwitchConfig {
    /// Management CPU cores (the testbed PCs are quad-core, Table I).
    pub cpu_cores: usize,
    /// ASIC↔CPU bus throughput. Far below PCIe line rate in practice;
    /// He et al. measure effective packet-to-CPU rates in the low hundreds
    /// of Mbps on hardware switches.
    pub bus_rate: BitRate,
    /// Bytes of a buffered miss-match packet copied into `packet_in`.
    pub miss_send_len: u16,
    /// Flow table capacity.
    pub flow_table_capacity: usize,
    /// Flow table eviction policy.
    pub eviction: EvictionPolicy,
    /// Which buffer mechanism to run.
    pub buffer: BufferChoice,
    /// Datapath CPU time to forward one table-hit packet (software switch
    /// fast path: lookup + copy).
    pub cost_forward: Nanos,
    /// Base CPU time to assemble a `packet_in` (headers, socket write).
    pub cost_pkt_in_base: Nanos,
    /// Additional CPU time per byte of `packet_in`/`packet_out` payload
    /// handled (copying, checksums, serialization).
    pub cost_per_payload_byte: Nanos,
    /// CPU time to park one packet in a buffer unit (the paper's
    /// `T_buffer`).
    pub cost_buffer_store: Nanos,
    /// CPU time to release one buffered packet on `packet_out` (the
    /// paper's `T_release`).
    pub cost_buffer_release: Nanos,
    /// CPU time to parse a `packet_out` and start executing its actions.
    pub cost_pkt_out_base: Nanos,
    /// CPU time to parse a `flow_mod` message.
    pub cost_flow_mod: Nanos,
    /// Per-rule service time of the serial rule-install pipeline. OVS's
    /// ofproto layer programs rules at only hundreds to low thousands per
    /// second (He et al., SOSR'15), so under a burst of reactive installs
    /// the effect time `t_e` of later rules slips — the mechanism behind
    /// the paper's observation that subsequent packets of a flow keep
    /// missing. Zero makes rules effective as soon as the parse finishes.
    pub cost_rule_install: Nanos,
    /// How long a packet-granularity buffer unit stays unavailable after
    /// its `packet_out` (Open vSwitch reclaims buffers lazily; the paper's
    /// Section V.B.5 observes the default mechanism's units are "released
    /// slowly"). Zero reclaims immediately. The flow-granularity mechanism
    /// always releases eagerly — that is its design.
    pub buffer_free_lag: Nanos,
    /// How flow-granularity re-requests are paced and bounded. The default
    /// ([`RetryPolicy::Fixed`]) is the paper's fixed timer: retry every
    /// `timeout`, forever.
    pub retry: RetryPolicy,
    /// Per-entry buffer lifetime for both buffering mechanisms;
    /// [`Nanos::ZERO`] (the default) disables expiry. A nonzero TTL
    /// garbage-collects entries stranded by lost `packet_out`s.
    pub buffer_ttl: Nanos,
    /// Consecutive flow give-ups that trip the switch into degraded mode
    /// (stop announcing fresh misses, probe periodically). `0` (the
    /// default) disables the state machine.
    pub degraded_threshold: u32,
    /// How long the switch tolerates total controller silence before it
    /// suspects the session is dead and starts shedding fresh misses
    /// (they would be announced into a void). [`Nanos::ZERO`] (the
    /// default) disables the detector; it only runs when the crash plane
    /// is armed ([`crate::Switch::arm_crash_plane`]).
    pub liveness_timeout: Nanos,
}

impl Default for SwitchConfig {
    /// The Table I testbed switch, calibrated: a quad-core PC running Open
    /// vSwitch with two 100 Mbps data ports, default `miss_send_len` of 128
    /// bytes and no buffer (OpenFlow's out-of-the-box configuration). The
    /// knobs that shape the figures:
    ///
    /// * `bus_rate`: 135 Mbps — the switch's control-message I/O engine.
    ///   No-buffer traffic loads it with ~2 KB per miss (full packet out,
    ///   full packet back), saturating it near 66 Mbps of sending rate;
    ///   that is where the paper's no-buffer delays blow up.
    /// * `buffer_free_lag`: 4 ms of lazy buffer reclamation (OVS
    ///   behaviour) — this is why buffer-16 exhausts around 30 Mbps
    ///   (Fig. 8) while setup delays stay near 1 ms.
    fn default() -> Self {
        SwitchConfig {
            cpu_cores: 4,
            bus_rate: BitRate::from_mbps(135),
            miss_send_len: 128,
            flow_table_capacity: 4096,
            eviction: EvictionPolicy::RejectNew,
            buffer: BufferChoice::NoBuffer,
            cost_forward: Nanos::from_micros(5),
            cost_pkt_in_base: Nanos::from_micros(100),
            cost_per_payload_byte: Nanos::from_nanos(8),
            cost_buffer_store: Nanos::from_micros(8),
            cost_buffer_release: Nanos::from_micros(6),
            cost_pkt_out_base: Nanos::from_micros(50),
            cost_flow_mod: Nanos::from_micros(40),
            cost_rule_install: Nanos::from_micros(350),
            buffer_free_lag: Nanos::from_millis(4),
            retry: RetryPolicy::Fixed,
            buffer_ttl: Nanos::ZERO,
            degraded_threshold: 0,
            liveness_timeout: Nanos::ZERO,
        }
    }
}

impl SwitchConfig {
    /// CPU service time for handling `payload_bytes` of message payload on
    /// top of a base cost.
    pub fn payload_cost(&self, payload_bytes: usize) -> Nanos {
        self.cost_per_payload_byte * payload_bytes as u64
    }

    /// Checks the configuration for values that would panic or wedge the
    /// model at runtime.
    pub fn validate(&self) -> Result<(), String> {
        if self.cpu_cores == 0 {
            return Err("switch needs at least one CPU core".to_owned());
        }
        if self.flow_table_capacity == 0 {
            return Err("flow table capacity must be positive".to_owned());
        }
        self.buffer.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_testbed() {
        let c = SwitchConfig::default();
        assert_eq!(c.cpu_cores, 4);
        assert_eq!(c.miss_send_len, 128);
        assert_eq!(c.buffer, BufferChoice::NoBuffer);
    }

    #[test]
    fn labels() {
        assert_eq!(BufferChoice::NoBuffer.label(), "no-buffer");
        assert_eq!(
            BufferChoice::PacketGranularity { capacity: 16 }.label(),
            "buffer-16"
        );
        assert_eq!(
            BufferChoice::FlowGranularity {
                capacity: 256,
                timeout: Nanos::from_millis(50)
            }
            .label(),
            "flow-buffer-256"
        );
    }

    #[test]
    fn payload_cost_scales_linearly() {
        let c = SwitchConfig::default();
        assert_eq!(c.payload_cost(0), Nanos::ZERO);
        assert_eq!(c.payload_cost(1000), c.cost_per_payload_byte * 1000);
    }

    #[test]
    fn validate_accepts_default_and_rejects_zeros() {
        assert!(SwitchConfig::default().validate().is_ok());
        let c = SwitchConfig {
            cpu_cores: 0,
            ..SwitchConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SwitchConfig {
            buffer: BufferChoice::PacketGranularity { capacity: 0 },
            ..SwitchConfig::default()
        };
        assert!(c.validate().is_err());
        let mut c = SwitchConfig {
            buffer: BufferChoice::FlowGranularity {
                capacity: 64,
                timeout: Nanos::ZERO,
            },
            ..SwitchConfig::default()
        };
        assert!(c.validate().is_err());
        c.buffer = BufferChoice::FlowGranularity {
            capacity: 64,
            timeout: Nanos::from_millis(20),
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_covers_recovery_knobs() {
        let c = SwitchConfig {
            retry: RetryPolicy::backoff(Nanos::from_millis(200), 5),
            buffer_ttl: Nanos::from_millis(500),
            degraded_threshold: 3,
            ..SwitchConfig::default()
        };
        assert!(c.validate().is_ok());
    }
}
