//! Controller configuration and cost model.

use sdnbuf_sim::{BitRate, Nanos};

/// What the controller's IO thread does with a `packet_in` that arrives
/// while the bounded ingress queue is full.
///
/// The queue is modeled as admission slots: each admitted `packet_in`
/// occupies a slot from its arrival until its modeled service completion.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Shed the newest arrival (classic bounded-queue behaviour).
    #[default]
    DropTail,
    /// Evict the oldest occupied slot and admit the newest arrival. In
    /// this synchronous model the evicted message's response has already
    /// been scheduled, so the eviction is accounted as wasted work: the
    /// slot is freed and the eviction counted as a shed.
    DropHead,
    /// Shed only full-packet (unbuffered) `packet_in`s; buffered
    /// re-requests are always admitted, even over capacity — they are
    /// cheap to serve and unblock switch buffer units.
    PreferRerequests,
}

impl AdmissionPolicy {
    /// A short label for result tables; also the `Display` form, which
    /// `FromStr` parses back.
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionPolicy::DropTail => "drop-tail",
            AdmissionPolicy::DropHead => "drop-head",
            AdmissionPolicy::PreferRerequests => "prefer-rerequests",
        }
    }
}

impl std::fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for AdmissionPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<AdmissionPolicy, String> {
        match s {
            "drop-tail" => Ok(AdmissionPolicy::DropTail),
            "drop-head" => Ok(AdmissionPolicy::DropHead),
            "prefer-rerequests" => Ok(AdmissionPolicy::PreferRerequests),
            other => Err(format!("unknown admission policy '{other}'")),
        }
    }
}

/// How the controller decides where packets go.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ForwardingMode {
    /// Floodlight's reactive forwarding: learn MAC locations, install an
    /// exact-match rule + `packet_out` per new flow.
    #[default]
    Learning,
    /// A hub: flood every miss, never install rules. The degenerate
    /// baseline in which *every* packet of *every* flow stays a miss —
    /// useful for ablations of how much reactive rules themselves save.
    Hub,
}

/// Static configuration and processing-cost model of the controller.
///
/// Costs are per-`packet_in` CPU service times on the controller's cores;
/// [`ControllerConfig::default`] is their calibration. The per-byte term is
/// the lever the paper's Section IV.B identifies: a 1018-byte full-packet
/// `packet_in` costs markedly more to parse — and its full-packet
/// `packet_out` more to build — than a 146-byte buffered one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ControllerConfig {
    /// CPU cores of the controller PC (quad-core in Table I).
    pub cpu_cores: usize,
    /// Base cost to receive and dispatch any message.
    pub cost_parse_base: Nanos,
    /// Additional cost per byte of `packet_in` payload parsed and,
    /// symmetrically, per byte of `packet_out` payload encapsulated.
    pub cost_per_byte: Nanos,
    /// Cost of the forwarding decision (learning-table lookups).
    pub cost_decision: Nanos,
    /// Cost of building the `flow_mod` + `packet_out` pair.
    pub cost_encode: Nanos,
    /// Superlinear load penalty: effective cost is scaled by
    /// `1 + contention × (queued jobs)`. Models thread contention and GC
    /// pressure under bursts; zero disables it.
    pub contention: f64,
    /// Throughput of the controller's message-ingest path (the single
    /// netty/IO thread draining the OpenFlow socket in Floodlight). With
    /// full-packet `packet_in`s this path saturates near the link rate and
    /// is where the paper's no-buffer controller delay starts climbing
    /// (Fig. 6, beginning at 60 Mbps).
    pub ingest_rate: BitRate,
    /// Forwarding behaviour.
    pub mode: ForwardingMode,
    /// Response latency added per byte of packet data handled (the
    /// `packet_in` payload plus any full packet re-encapsulated into the
    /// `packet_out`). Models the JVM allocation/GC stalls that scale with
    /// message size on the real Floodlight — pure latency, not CPU work,
    /// so it shapes the controller-delay figures without inflating CPU
    /// usage.
    pub latency_per_byte: Nanos,
    /// A bounded `packet_in` ingress queue: what to shed when it is full,
    /// and its capacity (≥ 1) in admission slots, each held from arrival to
    /// modeled service completion. `None` (the default) leaves the queue
    /// unbounded — the pre-admission-control behaviour.
    pub admission: Option<(AdmissionPolicy, usize)>,
}

impl Default for ControllerConfig {
    /// The Table I testbed controller, calibrated: a quad-core PC running
    /// Floodlight with its default reactive-forwarding parameters.
    fn default() -> Self {
        ControllerConfig {
            cpu_cores: 4,
            cost_parse_base: Nanos::from_micros(20),
            cost_per_byte: Nanos::from_nanos(20),
            cost_decision: Nanos::from_micros(15),
            cost_encode: Nanos::from_micros(15),
            contention: 0.55,
            ingest_rate: BitRate::from_mbps(105),
            mode: ForwardingMode::default(),
            latency_per_byte: Nanos::from_nanos(400),
            admission: None,
        }
    }
}

impl ControllerConfig {
    /// Total service time for a `packet_in` whose data field has
    /// `payload_bytes` bytes, before the contention scaling.
    pub fn packet_in_cost(&self, payload_bytes: usize) -> Nanos {
        // Parsing only; the controller adds a second per-byte term when it
        // must re-encapsulate the packet into an unbuffered packet_out.
        self.cost_parse_base
            + self.cost_decision
            + self.cost_encode
            + self.cost_per_byte * (payload_bytes as u64)
    }

    /// Checks the configuration for values that would wedge or corrupt the
    /// queueing model at runtime.
    pub fn validate(&self) -> Result<(), String> {
        if self.cpu_cores == 0 {
            return Err("controller needs at least one CPU core".to_owned());
        }
        if !self.contention.is_finite() || self.contention < 0.0 {
            return Err(format!(
                "contention factor must be finite and non-negative, got {}",
                self.contention
            ));
        }
        if self.ingest_rate.as_mbps_f64() <= 0.0 {
            return Err("controller ingest rate must be positive".to_owned());
        }
        if let Some((policy, 0)) = self.admission {
            return Err(format!(
                "admission capacity must be at least 1 (got {policy}:0; leave admission \
                 unset for an unbounded queue)"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_testbed() {
        let c = ControllerConfig::default();
        assert_eq!(c.cpu_cores, 4);
        assert_eq!(c.mode, ForwardingMode::Learning);
    }

    #[test]
    fn validate_accepts_default_and_rejects_nonsense() {
        assert!(ControllerConfig::default().validate().is_ok());
        let c = ControllerConfig {
            cpu_cores: 0,
            ..ControllerConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ControllerConfig {
            contention: f64::NAN,
            ..ControllerConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ControllerConfig {
            contention: -1.0,
            ..ControllerConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ControllerConfig {
            admission: Some((AdmissionPolicy::DropTail, 0)),
            ..ControllerConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("at least 1"));
        let c = ControllerConfig {
            admission: Some((AdmissionPolicy::DropTail, 1)),
            ..ControllerConfig::default()
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn admission_policy_labels_round_trip() {
        for p in [
            AdmissionPolicy::DropTail,
            AdmissionPolicy::DropHead,
            AdmissionPolicy::PreferRerequests,
        ] {
            assert_eq!(p.to_string().parse(), Ok(p));
        }
        assert!("random-early".parse::<AdmissionPolicy>().is_err());
        assert_eq!(
            ControllerConfig::default().admission,
            None,
            "admission control defaults off"
        );
    }

    #[test]
    fn cost_scales_with_message_size() {
        let c = ControllerConfig::default();
        let small = c.packet_in_cost(128);
        let large = c.packet_in_cost(1018);
        assert!(large > small);
        assert_eq!(large - small, c.cost_per_byte * (1018 - 128));
    }
}
