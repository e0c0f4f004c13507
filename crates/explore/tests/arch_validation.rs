//! Acceptance gate for declarative architecture descriptions: the
//! shipped reference descriptions under `configs/arch/` must reproduce
//! the hand-written models they describe.
//!
//! Three claims, in increasing strictness:
//!
//! 1. each shipped `.json` parses to exactly the in-crate reference
//!    constructor (the files are data, not prose — drift is a bug);
//! 2. each description's analytical estimate tracks the hand-written
//!    cycle-level model within 14% total cycles on **all 11** suite
//!    workloads, and is *exact* for the closed-form baselines
//!    (SparTen, Fused-Layer), whose estimates are derived from the
//!    same formulas;
//! 3. where lowering is 1:1 (all three references), the description's
//!    `Accelerator` adapter simulates **bit-identically** to the
//!    hand-written configuration it lowers to.

use isos_baselines::{FusedLayerConfig, SpartenConfig};
use isos_explore::arch::{load_path, reference, ArchAccel, Lowered};
use isosceles::accel::Accelerator;
use isosceles::{ExecMode, IsoscelesConfig};
use std::path::Path;

const SEED: u64 = 20230225;

/// The shipped description files and the constructors they must match.
fn shipped() -> Vec<(&'static str, isos_explore::ArchDesc)> {
    vec![
        ("isosceles-single.json", reference::isosceles_single()),
        ("sparten.json", reference::sparten()),
        ("fused-layer.json", reference::fused_layer()),
    ]
}

fn config_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../configs/arch")
}

#[test]
fn shipped_descriptions_parse_to_the_reference_constructors() {
    for (file, expected) in shipped() {
        let path = config_dir().join(file);
        let desc = load_path(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(desc, expected, "{file} drifted from its constructor");
    }
}

#[test]
fn shipped_descriptions_lower_to_the_hand_written_configs() {
    for (file, desc) in shipped() {
        let accel = ArchAccel::new(desc).unwrap_or_else(|e| panic!("{file}: {e}"));
        match accel.lowered() {
            Lowered::IsOs { cfg, mode } => {
                assert_eq!(cfg, &IsoscelesConfig::default(), "{file}: config");
                assert_eq!(mode, &ExecMode::SingleLayer, "{file}: mode");
            }
            Lowered::OutputStationary(cfg) => {
                assert_eq!(cfg, &SpartenConfig::default(), "{file}: config");
            }
            Lowered::FusedTile(cfg) => {
                assert_eq!(cfg, &FusedLayerConfig::default(), "{file}: config");
            }
        }
    }
}

#[test]
fn described_estimates_within_14_percent_of_hand_written_models_on_all_11() {
    let mut report: Vec<String> = Vec::new();
    let mut failures = 0;
    for (file, desc) in shipped() {
        // Closed-form baselines must be reproduced exactly: their
        // estimates are the same formulas the hand-written model runs.
        let exact = !matches!(desc.dataflow.style, isos_explore::arch::DataflowStyle::IsOs);
        let accel = ArchAccel::new(desc).unwrap();
        for w in isos_nn::models::paper_suite(SEED) {
            let sim = accel.simulate(&w.network, SEED).total.cycles as f64;
            let est = accel.estimate(&w.network).cycles;
            let err = (est - sim).abs() / sim;
            let bound = if exact { 1e-9 } else { 0.14 };
            if err > bound {
                failures += 1;
            }
            report.push(format!(
                "{}/{}: sim {sim:.0} est {est:.0} err {:.2}%{}",
                file,
                w.id,
                err * 100.0,
                if exact { " (exact required)" } else { "" }
            ));
        }
    }
    assert_eq!(failures, 0, "description drift:\n{}", report.join("\n"));
}

#[test]
fn described_simulation_is_bit_identical_where_lowering_is_1_to_1() {
    // The adapter must add nothing on top of the hand-written model it
    // lowers to: full NetworkMetrics equality, not a tolerance.
    for id in ["R96", "G58", "M75"] {
        let net = isos_nn::models::suite_workload(id, SEED).network;

        let single = ArchAccel::new(reference::isosceles_single()).unwrap();
        let hand = isos_baselines::IsoscelesSingleConfig::default().simulate(&net, SEED);
        assert_eq!(single.simulate(&net, SEED), hand, "{id}: isosceles-single");

        let sparten = ArchAccel::new(reference::sparten()).unwrap();
        let hand = SpartenConfig::default().simulate(&net, SEED);
        assert_eq!(sparten.simulate(&net, SEED), hand, "{id}: sparten");

        let fused = ArchAccel::new(reference::fused_layer()).unwrap();
        let hand = FusedLayerConfig::default().simulate(&net, SEED);
        assert_eq!(fused.simulate(&net, SEED), hand, "{id}: fused-layer");
    }
}

#[test]
fn described_pipelined_isosceles_matches_the_flagship_model() {
    // The full pipelined ISOSceles description lowers onto the same
    // cycle-level engine as the flagship `isosceles` model.
    let net = isos_nn::models::suite_workload("G58", SEED).network;
    let accel = ArchAccel::new(reference::isosceles()).unwrap();
    let hand = IsoscelesConfig::default().simulate(&net, SEED);
    assert_eq!(accel.simulate(&net, SEED), hand);
}
