//! The validation plane end to end: differential agreement with the
//! analytic oracle on a subgrid, the broken-oracle self-test, the
//! metamorphic laws over hundreds of seeded random configurations, and a
//! regression pinned from a divergence the harness itself surfaced
//! during calibration.

use sdn_buffer_lab::core::chaos::{self, Sabotage};
use sdn_buffer_lab::core::validate::{
    self, check_random_scenario, random_scenario, random_sweep, Oracle, ValidateConfig,
};
use sdn_buffer_lab::core::WorkloadKind;
use sdn_buffer_lab::prelude::*;

mod common;
use common::{all_mechanisms, experiment};

fn subgrid() -> ValidateConfig {
    ValidateConfig {
        cells: vec![
            (BufferMode::NoBuffer, 20),
            (BufferMode::PacketGranularity { capacity: 256 }, 60),
            (
                BufferMode::FlowGranularity {
                    capacity: 256,
                    timeout: Nanos::from_millis(50),
                },
                100,
            ),
        ],
        flows: 200,
        repetitions: 2,
        ..ValidateConfig::default()
    }
}

/// The acceptance bar, scaled down for CI: one cell per mechanism,
/// spanning low rate, the no-buffer knee region and full link rate,
/// every metric within its documented tolerance and every law holding.
/// (`sdnlab validate` runs the full 60-cell grid the same way.)
#[test]
fn subgrid_differential_agreement_and_every_law() {
    let report = validate::validate(&subgrid());
    assert_eq!(report.cells.len(), 3);
    assert_eq!(report.checks(), 3 * validate::checked_metrics().len());
    assert!(
        report.passed(),
        "differential failures: {:#?}, laws: {:#?}",
        report
            .cells
            .iter()
            .flat_map(|c| c.checks.iter().filter(|k| !k.pass))
            .collect::<Vec<_>>(),
        report.laws,
    );
}

/// A validator that cannot fail is untested: against the deliberately
/// mis-derived oracle (forgotten 2×300 µs channel propagation) the
/// differential layer must report failures, while the metamorphic laws —
/// which never consult the oracle — keep holding, proving the two layers
/// are independent.
#[test]
fn broken_oracle_is_caught_but_laws_are_oracle_free() {
    let mut config = subgrid();
    config.broken = true;
    let report = validate::validate(&config);
    assert!(
        report.differential_failures() > 0,
        "the forgotten-propagation bug slipped through every tolerance"
    );
    assert_eq!(report.laws_failed(), 0, "{:#?}", report.laws);
}

/// The coverage-directed generator: 200 seeded configurations across
/// mechanism × workload × rate × frame size, each checked for
/// determinism, conservation, completion and the oracle's latency floor.
/// Failures would arrive already shrunk to a minimal replayable spec.
#[test]
fn two_hundred_random_configs_hold_the_always_true_laws() {
    let (checked, findings) = random_sweep(200, 42);
    assert_eq!(checked, 200);
    assert!(
        findings.is_empty(),
        "shrunk counterexamples: {:#?}",
        findings
            .iter()
            .map(|f| (&f.shrunk_spec, &f.violations))
            .collect::<Vec<_>>()
    );
}

/// Workload edge cases stay live: single-packet flows offered at exactly
/// the data link's capacity (the knife-edge cell) complete on every
/// mechanism instead of stalling the scheduler.
#[test]
fn at_link_capacity_every_mechanism_completes_every_flow() {
    for mech in all_mechanisms() {
        let r = experiment(mech, WorkloadKind::single_packet_flows(300), 100, 9);
        assert_eq!(r.flows_completed, 300, "{} stalled: {r:?}", r.label);
        assert_eq!(r.packets_delivered, 300);
    }
}

/// Pinned from a real divergence the differential harness surfaced while
/// its tolerances were being calibrated: at *exactly* 100 Mbps the data
/// link runs at ρ = 1.0, its standing queue absorbs the ±2 % workload
/// jitter, and the resulting back-to-back departures resonate through
/// the switch CPU pool — packet_ins reach the controller bunched, so
/// submits land on busy cores and the contention multiplier fires. The
/// simulator's controller CPU lands ~35 % above the contention-free
/// analytic value; one rate step below, the effect vanishes. The oracle
/// must flag the cell near-critical (that is what widens its tolerance),
/// and the resonance itself must stay reproducible.
#[test]
fn pinned_contention_resonance_at_exact_link_capacity() {
    let config = ValidateConfig::default();
    let mech = BufferMode::PacketGranularity { capacity: 256 };
    let oracle = Oracle::faithful();

    let at_capacity = oracle.predict(&validate::scenario_for(&config, mech, 100));
    assert!(
        at_capacity.near_critical,
        "ρ = 1.0 on the data link must be flagged as a knife edge"
    );
    let below = oracle.predict(&validate::scenario_for(&config, mech, 95));

    let run_100 = experiment(mech, WorkloadKind::single_packet_flows(1000), 100, 42);
    let run_95 = experiment(mech, WorkloadKind::single_packet_flows(1000), 95, 42);

    let resonance = run_100.controller_cpu_percent / at_capacity.controller_cpu_percent;
    assert!(
        (1.2..1.6).contains(&resonance),
        "the at-capacity resonance moved: sim {} vs analytic {} (×{resonance:.3})",
        run_100.controller_cpu_percent,
        at_capacity.controller_cpu_percent
    );
    let calm = run_95.controller_cpu_percent / below.controller_cpu_percent;
    assert!(
        (0.95..1.05).contains(&calm),
        "one step below capacity the contention-free model must be exact: \
         sim {} vs analytic {} (×{calm:.3})",
        run_95.controller_cpu_percent,
        below.controller_cpu_percent
    );
}

/// Random scenarios are pure functions of their seed, and each is a run
/// spec `sdnlab chaos --replay` takes: its printed form parses back to it,
/// and the chaos harness's run of the parsed spec measures exactly what the
/// validation plane's run of the generated one measured.
#[test]
fn random_scenarios_replay_deterministically() {
    for seed in 0..50u64 {
        let scenario = random_scenario(seed);
        assert_eq!(scenario, random_scenario(seed));
        let spec = scenario.to_string();
        let replayed: RunSpec = spec.parse().expect(&spec);
        assert_eq!(replayed, scenario, "{spec}");
        let report = chaos::run_scenario(&replayed, Sabotage::none());
        assert_eq!(
            report.result,
            Experiment::new(scenario.config()).run(),
            "{spec}"
        );
    }
    for seed in [0u64, 11, 123] {
        let scenario = random_scenario(seed);
        assert_eq!(
            check_random_scenario(&scenario),
            check_random_scenario(&scenario)
        );
    }
}
