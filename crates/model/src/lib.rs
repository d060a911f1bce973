//! # sdnbuf-model — an analytic oracle for the Section IV control loop
//!
//! Everything else in this workspace checks the simulator against *itself*
//! (golden traces, chaos invariants, perf digests). This crate is the
//! independent yardstick: a closed-form, single-node queueing model of the
//! Fig. 1 testbed in the style of Mahmood et al.'s M/M/1 OpenFlow model,
//! adapted to the near-deterministic arrivals our pktgen workload actually
//! produces. Given the same `SwitchConfig` / `ControllerConfig` / link
//! parameters the simulator runs with, [`Oracle::predict`] returns the mean
//! flow-setup delay, per-direction control-path load, controller CPU
//! utilization and control-message counts that a no-fault Section IV cell
//! *must* converge to — for all three buffer mechanisms.
//!
//! ## Model shape
//!
//! The paper's workload is constant-bit-rate with a small mean-preserving
//! jitter (±2 %), not Poisson. Below saturation a near-deterministic
//! arrival stream sees almost no stochastic queueing, so an M/M/1 waiting
//! term would *overpredict* delay by orders of magnitude. The model is
//! therefore:
//!
//! 1. **A deterministic path floor**: the sum of every service, bus,
//!    serialization and propagation latency one flow's setup experiences
//!    on an idle system — derived station by station from the same config
//!    structs the simulator reads (see [`Oracle::predict`] internals and
//!    DESIGN §13 for the derivation).
//! 2. **A fluid overload term**: each station is a FIFO server with a
//!    per-flow service demand; the path's throughput is capped by its
//!    slowest station (`μ`). When the offered flow rate `λ` exceeds `μ`,
//!    backlog grows linearly and the i-th flow waits
//!    `i × (1/μ − 1/λ)`; averaged over `n` flows the mean extra delay is
//!    `(n−1)/2 × (1/μ − 1/λ)`.
//! 3. **A contention fixed point** for the controller CPU, whose effective
//!    service cost is inflated by `1 + contention × busy_cores` exactly as
//!    in [`sdnbuf_controller`]; the model solves the resulting fixed point
//!    by iteration.
//!
//! Message sizes are not hard-coded: the oracle builds representative
//! `packet_in` / `flow_mod` / `packet_out` messages and asks the real
//! codec for their [`OfpMessage::wire_len`], so a codec change moves the
//! prediction the same way it moves the simulator.
//!
//! The model covers single-packet-flow workloads (the Section IV grid).
//! Its one structural statement about mechanisms, per the paper: the
//! flow-granularity mechanism emits one `packet_in` per *flow*, the other
//! two one per *miss* — identical on this grid, divergent on Section V's
//! multi-packet flows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sdnbuf_controller::ControllerConfig;
use sdnbuf_openflow::msg::{FlowMod, FlowModCommand, PacketIn, PacketInReason, PacketOut};
use sdnbuf_openflow::{Action, BufferId, Match, OfpMessage, PortNo};
use sdnbuf_sim::{BitRate, LinkConfig};
use sdnbuf_switch::{BufferChoice, SwitchConfig};

/// Offered utilization band treated as "near critical": within it, small
/// service-time differences flip a station between idle and overloaded, so
/// the differential harness widens its tolerances (see DESIGN §13).
pub const NEAR_CRITICAL_BAND: (f64, f64) = (0.85, 1.15);

/// One no-fault Section IV cell, described by the same configuration
/// structs the simulator consumes.
///
/// Build it from a `TestbedConfig`'s parts (the validate harness does) or
/// from scratch; the oracle reads only these fields.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The switch model (includes the buffer mechanism under test).
    pub switch: SwitchConfig,
    /// The controller model.
    pub controller: ControllerConfig,
    /// Host ↔ switch link.
    pub data_link: LinkConfig,
    /// Switch ↔ controller channel.
    pub control_link: LinkConfig,
    /// Offered sending rate on the data link.
    pub rate: BitRate,
    /// Wire length of one workload frame in bytes.
    pub frame_len: usize,
    /// Number of single-packet flows in the run.
    pub flows: u64,
}

/// One station of the flow-setup path: a FIFO server with a per-flow
/// service demand.
#[derive(Clone, Debug)]
pub struct Station {
    /// Human-readable station name (stable, used in reports).
    pub name: &'static str,
    /// Service demand one flow places on this station, in seconds.
    pub demand_secs: f64,
    /// Parallel servers at this station (CPU cores; 1 for serial lines).
    pub servers: f64,
    /// Offered utilization `λ_in × demand / servers` where `λ_in` is the
    /// flow rate *arriving* at this station (upstream stations throttle).
    /// May exceed 1 at the bottleneck.
    pub utilization: f64,
    /// Whether the station gates the flow-setup latency. The serial
    /// rule-install pipeline is tracked but off-path: on single-packet
    /// flows the packet leaves before the rule's effect time matters.
    pub on_setup_path: bool,
}

/// The oracle's closed-form prediction for one [`Scenario`].
#[derive(Clone, Debug)]
pub struct Prediction {
    /// Predicted mean flow-setup delay (switch entry → switch egress), ms.
    pub flow_setup_delay_ms: f64,
    /// The deterministic idle-path component of the delay, ms.
    pub setup_floor_ms: f64,
    /// Predicted mean controller delay (`packet_in` leaves the switch →
    /// first response arrives back), ms.
    pub controller_delay_ms: f64,
    /// Predicted switch → controller control-path load, Mbps.
    pub ctrl_load_to_controller_mbps: f64,
    /// Predicted controller → switch control-path load, Mbps.
    pub ctrl_load_to_switch_mbps: f64,
    /// Predicted controller CPU utilization, percent (top-style: sums
    /// across cores, may exceed 100).
    pub controller_cpu_percent: f64,
    /// Predicted `packet_in` count over the measured span.
    pub pkt_in_count: u64,
    /// Predicted `flow_mod` count.
    pub flow_mod_count: u64,
    /// Predicted `packet_out` count.
    pub pkt_out_count: u64,
    /// Predicted measured span of the run, ms.
    pub active_span_ms: f64,
    /// Offered flow rate λ, flows/sec.
    pub lambda_flows_per_sec: f64,
    /// Path service capacity μ (slowest on-path station), flows/sec.
    pub mu_flows_per_sec: f64,
    /// Name of the μ-defining station.
    pub bottleneck: &'static str,
    /// Highest offered utilization across on-path stations.
    pub max_path_utilization: f64,
    /// True when the cell saturates (`λ > μ`): delay is then dominated by
    /// the fluid backlog term.
    pub saturated: bool,
    /// True when any on-path station sits in [`NEAR_CRITICAL_BAND`]:
    /// the harness widens tolerances for these knife-edge cells.
    pub near_critical: bool,
    /// Every station of the path with its demand and utilization.
    pub stations: Vec<Station>,
}

/// Which model the oracle runs: the faithful derivation, or a deliberately
/// broken variant used by `sdnlab validate --broken` to prove the
/// differential harness can actually fail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelFidelity {
    /// The real model.
    Faithful,
    /// A classic modeling bug, injected on purpose: the control channel's
    /// propagation delay is dropped from the delay floor in both
    /// directions (as if the modeler forgot the 2×300 µs channel RTT).
    /// Every low-rate cell's predicted delay collapses well past any
    /// sane tolerance — a validator that still passes has no teeth.
    ForgottenPropagation,
}

/// The analytic oracle. Stateless apart from its [`ModelFidelity`].
#[derive(Clone, Copy, Debug)]
pub struct Oracle {
    fidelity: ModelFidelity,
}

impl Default for Oracle {
    fn default() -> Self {
        Oracle::faithful()
    }
}

impl Oracle {
    /// The real model.
    pub fn faithful() -> Self {
        Oracle {
            fidelity: ModelFidelity::Faithful,
        }
    }

    /// The deliberately broken model (see [`ModelFidelity`]).
    pub fn broken() -> Self {
        Oracle {
            fidelity: ModelFidelity::ForgottenPropagation,
        }
    }

    /// Predicts the mean Section IV measurements for `s`.
    ///
    /// Panics if `s.flows == 0` or `s.frame_len == 0` — an empty cell has
    /// no means to predict.
    pub fn predict(&self, s: &Scenario) -> Prediction {
        assert!(s.flows > 0, "oracle needs at least one flow");
        assert!(s.frame_len > 0, "oracle needs a nonzero frame size");

        let buffered = !matches!(s.switch.buffer, BufferChoice::NoBuffer);
        let frame = s.frame_len;
        // Bytes of the packet that travel inside the packet_in: the
        // miss_send_len prefix when buffered, the whole frame otherwise.
        let slice = if buffered {
            (s.switch.miss_send_len as usize).min(frame)
        } else {
            frame
        };

        // -- Wire sizes straight from the codec -------------------------
        let pkt_in_wire = wire_len_packet_in(slice);
        let flow_mod_wire = wire_len_flow_mod();
        let pkt_out_wire = wire_len_packet_out(if buffered { 0 } else { frame });

        // -- Per-station service demands (seconds per flow) -------------
        let bus = |bytes: usize| s.switch.bus_rate.transmission_time(bytes).as_secs_f64();
        let ctrl_tx = |bytes: usize| {
            s.control_link
                .bandwidth
                .transmission_time(bytes)
                .as_secs_f64()
        };

        // ASIC↔CPU bus: the miss slice rides up; no-buffer also carries
        // the full packet_out payload back down.
        let bus_up = bus(slice);
        let bus_down = if buffered { 0.0 } else { bus(frame) };

        // Switch management CPU, three touches per flow: assemble the
        // packet_in (+ park the packet when buffered), parse the flow_mod,
        // parse the packet_out (+ release or re-inject the payload).
        let cpu_in = if buffered {
            (s.switch.cost_buffer_store + s.switch.cost_pkt_in_base + s.switch.payload_cost(slice))
                .as_secs_f64()
        } else {
            (s.switch.cost_pkt_in_base + s.switch.payload_cost(frame)).as_secs_f64()
        };
        let cpu_fm = s.switch.cost_flow_mod.as_secs_f64();
        let cpu_po = if buffered {
            (s.switch.cost_pkt_out_base + s.switch.cost_buffer_release).as_secs_f64()
        } else {
            (s.switch.cost_pkt_out_base + s.switch.payload_cost(frame)).as_secs_f64()
        };

        // Controller: serial ingest bus, then the CPU pool. Unbuffered
        // packet_outs pay the re-encapsulation per-byte term and double
        // the GC-latency byte count, exactly as the controller model does.
        let ingest = s
            .controller
            .ingest_rate
            .transmission_time(pkt_in_wire)
            .as_secs_f64();
        let mut ctrl_cpu_base = s.controller.packet_in_cost(slice).as_secs_f64();
        let mut handled_bytes = slice;
        if !buffered {
            ctrl_cpu_base += (s.controller.cost_per_byte * frame as u64).as_secs_f64();
            handled_bytes += frame;
        }
        let gc_latency = (s.controller.latency_per_byte * handled_bytes as u64).as_secs_f64();

        let uplink = ctrl_tx(pkt_in_wire);
        let downlink = ctrl_tx(flow_mod_wire) + ctrl_tx(pkt_out_wire);
        let ctrl_prop = s.control_link.propagation.as_secs_f64();

        // -- Offered flow rate ------------------------------------------
        // pktgen spaces departures by frame_bits / sending_rate; the data
        // link cannot deliver flows faster than its own serialization.
        let lambda_offered = s.rate.as_mbps_f64() * 1e6 / (frame as f64 * 8.0);
        let data_tx = s.data_link.bandwidth.transmission_time(frame).as_secs_f64();
        let lambda = lambda_offered.min(1.0 / data_tx);

        // -- Controller contention fixed point --------------------------
        // Effective cost = base × (1 + contention × busy_cores), where
        // busy_cores is sampled *at submit time* — not the time-average
        // erlangs. The serial ingest line delivers packets to the CPU
        // pool with near-deterministic spacing 1/λ, so the cores still
        // busy when a new packet is submitted number
        // ceil(scaled_cost / spacing) − 1: zero whenever one service
        // fits inside one inter-arrival gap, which is the whole
        // below-saturation grid. Iterate the integer fixed point (the
        // map is monotone in the busy count, bounded by the core count).
        let ctrl_cores = s.controller.cpu_cores.max(1) as f64;
        let sw_cores = s.switch.cpu_cores.max(1) as f64;
        // Flow rate actually reaching the controller CPU: upstream serial
        // stations throttle it.
        let lambda_at_ctrl = lambda
            .min(1.0 / (bus_up + bus_down))
            .min(sw_cores / (cpu_in + cpu_fm + cpu_po))
            .min(1.0 / uplink)
            .min(1.0 / ingest);
        let spacing = if lambda_at_ctrl > 0.0 {
            1.0 / lambda_at_ctrl
        } else {
            f64::INFINITY
        };
        let mut busy_at_submit = 0.0f64;
        for _ in 0..=s.controller.cpu_cores.max(1) {
            let scaled = ctrl_cpu_base * (1.0 + s.controller.contention * busy_at_submit);
            let next = ((scaled / spacing).ceil() - 1.0).clamp(0.0, ctrl_cores - 1.0);
            if next == busy_at_submit {
                break;
            }
            busy_at_submit = next;
        }
        let contention_scale = 1.0 + s.controller.contention * busy_at_submit;
        let ctrl_cpu = ctrl_cpu_base * contention_scale;

        // -- Station table, path order ----------------------------------
        let mut stations = vec![
            // The ingress data link is off the setup path (it paces
            // arrivals, it doesn't add setup latency), but it is tracked
            // because a cell driving it at ρ ≈ 1 is a knife edge: the
            // standing queue absorbs the workload jitter and the
            // resulting back-to-back departures resonate through the
            // switch CPU pool, bunching packet_ins at the controller.
            Station {
                name: "data-link",
                demand_secs: data_tx,
                servers: 1.0,
                utilization: 0.0,
                on_setup_path: false,
            },
            Station {
                name: "switch-bus",
                demand_secs: bus_up + bus_down,
                servers: 1.0,
                utilization: 0.0,
                on_setup_path: true,
            },
            Station {
                name: "switch-cpu",
                demand_secs: cpu_in + cpu_fm + cpu_po,
                servers: sw_cores,
                utilization: 0.0,
                on_setup_path: true,
            },
            Station {
                name: "ctrl-link-up",
                demand_secs: uplink,
                servers: 1.0,
                utilization: 0.0,
                on_setup_path: true,
            },
            Station {
                name: "ctrl-ingest",
                demand_secs: ingest,
                servers: 1.0,
                utilization: 0.0,
                on_setup_path: true,
            },
            Station {
                name: "ctrl-cpu",
                demand_secs: ctrl_cpu,
                servers: ctrl_cores,
                utilization: 0.0,
                on_setup_path: true,
            },
            Station {
                name: "ctrl-link-down",
                demand_secs: downlink,
                servers: 1.0,
                utilization: 0.0,
                on_setup_path: true,
            },
            Station {
                name: "rule-install",
                demand_secs: s.switch.cost_rule_install.as_secs_f64(),
                servers: 1.0,
                utilization: 0.0,
                on_setup_path: false,
            },
        ];

        // Offered utilization per station, throttling the flow rate as it
        // passes each one; μ and the bottleneck fall out of the same walk.
        let mut thr = lambda;
        let mut mu = f64::INFINITY;
        let mut bottleneck = "none";
        let mut max_rho = 0.0f64;
        for st in stations.iter_mut() {
            if !st.on_setup_path {
                st.utilization = thr * st.demand_secs / st.servers;
                continue;
            }
            let cap = if st.demand_secs > 0.0 {
                st.servers / st.demand_secs
            } else {
                f64::INFINITY
            };
            st.utilization = thr * st.demand_secs / st.servers;
            max_rho = max_rho.max(st.utilization);
            if cap < mu {
                mu = cap;
                bottleneck = st.name;
            }
            thr = thr.min(cap);
        }

        // -- Delay ------------------------------------------------------
        // The idle-path floor: every latency one flow's setup serializes
        // through, at contention-free service costs (one flow alone never
        // sees a busy core). The flow_mod parse is *not* here — it runs
        // on a spare core while the packet_out is still on the wire.
        let mut floor = bus_up
            + cpu_in
            + uplink
            + ingest
            + ctrl_cpu_base
            + gc_latency
            + downlink
            + cpu_po
            + bus_down;
        match self.fidelity {
            ModelFidelity::Faithful => floor += 2.0 * ctrl_prop,
            ModelFidelity::ForgottenPropagation => {}
        }
        // Contention inflates the *mean* beyond the floor once submits
        // start landing on busy cores.
        let contention_extra = ctrl_cpu - ctrl_cpu_base;

        let n = s.flows as f64;
        let saturated = lambda > mu;
        let extra_mean = if saturated {
            (n - 1.0) / 2.0 * (1.0 / mu - 1.0 / lambda)
        } else {
            0.0
        };
        let delay = floor + contention_extra + extra_mean;

        // -- Span and the rates derived from it -------------------------
        // Measured span: first switch arrival → last delivery. Departures
        // cover (n−1) spacings (stretched to 1/μ when saturated), plus one
        // data-link leg in, the last flow's setup, and one leg out.
        let data_leg = data_tx + s.data_link.propagation.as_secs_f64();
        let span = (n - 1.0) * (1.0 / lambda).max(1.0 / mu) + floor + 2.0 * data_leg;

        let up_bytes = n * pkt_in_wire as f64;
        let down_bytes = n * (flow_mod_wire + pkt_out_wire) as f64;

        // Knife-edge detection covers the on-path stations plus the
        // arrival-pacing data link (see the station table above); the
        // off-path rule installer lags harmlessly and is excluded.
        let near_critical = stations
            .iter()
            .filter(|st| st.on_setup_path || st.name == "data-link")
            .any(|st| {
                st.utilization >= NEAR_CRITICAL_BAND.0 && st.utilization <= NEAR_CRITICAL_BAND.1
            });

        // The controller-delay span runs from the packet_in leaving the
        // switch to the response arriving back: the fluid backlog only
        // inflates it when the bottleneck sits *inside* that span —
        // a saturated switch bus queues packets upstream of the span's
        // start, so the controller never sees the overload.
        let ctrl_span_bottleneck = matches!(
            bottleneck,
            "ctrl-link-up" | "ctrl-ingest" | "ctrl-cpu" | "ctrl-link-down"
        );
        let ctrl_span_extra = if saturated && ctrl_span_bottleneck {
            extra_mean
        } else {
            0.0
        };

        Prediction {
            flow_setup_delay_ms: delay * 1e3,
            setup_floor_ms: floor * 1e3,
            controller_delay_ms: (uplink
                + ingest
                + ctrl_cpu
                + gc_latency
                + downlink
                + match self.fidelity {
                    ModelFidelity::Faithful => 2.0 * ctrl_prop,
                    ModelFidelity::ForgottenPropagation => 0.0,
                }
                + ctrl_span_extra)
                * 1e3,
            ctrl_load_to_controller_mbps: up_bytes * 8.0 / span / 1e6,
            ctrl_load_to_switch_mbps: down_bytes * 8.0 / span / 1e6,
            controller_cpu_percent: 100.0 * n * ctrl_cpu / span,
            pkt_in_count: s.flows,
            flow_mod_count: s.flows,
            pkt_out_count: s.flows,
            active_span_ms: span * 1e3,
            lambda_flows_per_sec: lambda,
            mu_flows_per_sec: mu,
            bottleneck,
            max_path_utilization: max_rho,
            saturated,
            near_critical,
            stations,
        }
    }
}

/// `packet_in` wire length for a payload of `data_len` bytes, from the
/// real codec.
fn wire_len_packet_in(data_len: usize) -> usize {
    OfpMessage::PacketIn(PacketIn {
        buffer_id: BufferId::NO_BUFFER,
        total_len: data_len as u16,
        in_port: PortNo(1),
        reason: PacketInReason::NoMatch,
        data: vec![0; data_len].into(),
    })
    .wire_len()
}

/// Wire length of the reactive `flow_mod` (exact match, one output
/// action) the controller installs per flow.
fn wire_len_flow_mod() -> usize {
    OfpMessage::FlowMod(FlowMod {
        match_fields: Match::any(),
        cookie: 0,
        command: FlowModCommand::Add,
        idle_timeout: 5,
        hard_timeout: 0,
        priority: 100,
        buffer_id: BufferId::NO_BUFFER,
        out_port: PortNo::NONE,
        flags: 0,
        actions: vec![Action::output(PortNo(2))].into(),
    })
    .wire_len()
}

/// `packet_out` wire length: `data_len` is 0 for a buffered release, the
/// full frame when the packet rides back inside the message.
fn wire_len_packet_out(data_len: usize) -> usize {
    OfpMessage::PacketOut(PacketOut {
        buffer_id: BufferId::NO_BUFFER,
        in_port: PortNo(1),
        actions: vec![Action::output(PortNo(2))].into(),
        data: vec![0; data_len].into(),
    })
    .wire_len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnbuf_sim::Nanos;

    fn paper_scenario(buffer: BufferChoice, rate_mbps: u64) -> Scenario {
        // The calibrated components; links as `TestbedConfig::default()`
        // wires them.
        let switch = SwitchConfig {
            buffer,
            ..SwitchConfig::default()
        };
        let controller = ControllerConfig::default();
        Scenario {
            switch,
            controller,
            data_link: LinkConfig::fast_ethernet(),
            control_link: LinkConfig {
                bandwidth: BitRate::from_mbps(100),
                propagation: Nanos::from_micros(300),
                queue_capacity_bytes: 512 * 1024,
            },
            rate: BitRate::from_mbps(rate_mbps),
            frame_len: 1000,
            flows: 1000,
        }
    }

    #[test]
    fn buffered_floor_matches_hand_derivation() {
        let p = Oracle::faithful().predict(&paper_scenario(
            BufferChoice::PacketGranularity { capacity: 256 },
            10,
        ));
        // Hand-derived in DESIGN §13: ≈ 0.9075 ms plus a whisper of
        // contention at 10 Mbps.
        assert!(
            (0.89..0.95).contains(&p.setup_floor_ms),
            "buffered floor {} ms",
            p.setup_floor_ms
        );
        assert!(!p.saturated);
        assert_eq!(p.pkt_in_count, 1000);
    }

    #[test]
    fn no_buffer_floor_is_dominated_by_full_packet_handling() {
        let p = Oracle::faithful().predict(&paper_scenario(BufferChoice::NoBuffer, 10));
        // ≈ 2.02 ms hand-derived; the 0.8 ms GC-latency term (2 KB at
        // 400 ns/B) is the biggest single piece.
        assert!(
            (1.95..2.15).contains(&p.setup_floor_ms),
            "no-buffer floor {} ms",
            p.setup_floor_ms
        );
    }

    #[test]
    fn no_buffer_saturates_at_the_bus_near_the_papers_66_mbps() {
        let p60 = Oracle::faithful().predict(&paper_scenario(BufferChoice::NoBuffer, 60));
        let p80 = Oracle::faithful().predict(&paper_scenario(BufferChoice::NoBuffer, 80));
        assert!(!p60.saturated, "60 Mbps should ride just under the knee");
        assert!(p80.saturated, "80 Mbps must be past the knee");
        assert_eq!(p80.bottleneck, "switch-bus");
        let knee = p80.mu_flows_per_sec * 8000.0 / 1e6;
        assert!(
            (60.0..72.0).contains(&knee),
            "predicted knee at {knee} Mbps, paper calibration says ~66"
        );
        assert!(p80.flow_setup_delay_ms > 4.0 * p60.flow_setup_delay_ms);
    }

    #[test]
    fn buffered_mechanisms_never_saturate_on_the_grid() {
        for rate in [5u64, 50, 100] {
            let p = Oracle::faithful().predict(&paper_scenario(
                BufferChoice::FlowGranularity {
                    capacity: 256,
                    timeout: Nanos::from_millis(50),
                },
                rate,
            ));
            assert!(!p.saturated, "{rate} Mbps: {:?}", p.bottleneck);
            assert!(p.flow_setup_delay_ms < 1.2);
        }
    }

    #[test]
    fn delay_is_monotone_in_rate() {
        for buffer in [
            BufferChoice::NoBuffer,
            BufferChoice::PacketGranularity { capacity: 256 },
        ] {
            let mut last = 0.0;
            for rate in (1..=20).map(|i| i * 5) {
                let p = Oracle::faithful().predict(&paper_scenario(buffer, rate));
                assert!(
                    p.flow_setup_delay_ms >= last - 1e-9,
                    "{} at {rate} Mbps went down: {} < {last}",
                    buffer.label(),
                    p.flow_setup_delay_ms
                );
                last = p.flow_setup_delay_ms;
            }
        }
    }

    #[test]
    fn broken_oracle_forgets_the_channel_rtt() {
        let s = paper_scenario(BufferChoice::PacketGranularity { capacity: 256 }, 10);
        let good = Oracle::faithful().predict(&s);
        let bad = Oracle::broken().predict(&s);
        let missing = good.flow_setup_delay_ms - bad.flow_setup_delay_ms;
        assert!(
            (0.59..0.61).contains(&missing),
            "the bug must remove exactly the 2×300 µs propagation, got {missing} ms"
        );
    }

    #[test]
    fn wire_lengths_come_from_the_codec() {
        assert_eq!(wire_len_packet_in(128), 146);
        assert_eq!(wire_len_packet_in(1000), 1018);
        assert_eq!(wire_len_flow_mod(), 80);
        assert_eq!(wire_len_packet_out(0), 24);
        assert_eq!(wire_len_packet_out(1000), 1024);
    }

    #[test]
    fn control_load_scales_with_rate_below_saturation() {
        let p20 = Oracle::faithful().predict(&paper_scenario(
            BufferChoice::PacketGranularity { capacity: 256 },
            20,
        ));
        let p40 = Oracle::faithful().predict(&paper_scenario(
            BufferChoice::PacketGranularity { capacity: 256 },
            40,
        ));
        let ratio = p40.ctrl_load_to_controller_mbps / p20.ctrl_load_to_controller_mbps;
        assert!(
            (1.9..2.1).contains(&ratio),
            "doubling the rate should double the control load, got ×{ratio}"
        );
    }
}
