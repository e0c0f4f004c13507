//! Screening keeps totals only and splits the work into what depends on
//! the workload (done once per sweep) and a closed form per point. These
//! tests pin that the shortcut changes nothing: every screened total
//! equals the full per-point estimate bit for bit.

use std::collections::HashSet;

use isos_explore::arch::{lower, ArchAccel, Lowered};
use isos_explore::model::{area_mm2, estimate_network};
use isos_explore::search::{screen_arch, ArchScreenedPoint};
use isos_explore::space::{ArchPoint, ArchSpace};
use isos_nn::models::suite_workload;
use isosceles::mapping::ExecMode;
use isosceles::IsoscelesConfig;

const SEED: u64 = 20230225;

/// Asserts one screened described point against `ArchAccel::estimate`.
fn assert_matches_estimate(net: &isos_nn::graph::Network, s: &ArchScreenedPoint) {
    let accel = ArchAccel::new(s.point.desc.clone()).expect("screened points are valid");
    let est = accel.estimate(net);
    let label = &s.point.label;
    assert_eq!(
        s.estimate.cycles.to_bits(),
        est.cycles.to_bits(),
        "{label}: cycles"
    );
    assert_eq!(
        s.estimate.dram_bytes.to_bits(),
        est.dram_bytes.to_bits(),
        "{label}: DRAM bytes"
    );
    assert_eq!(
        s.estimate.macs.to_bits(),
        est.macs.to_bits(),
        "{label}: MACs"
    );
    assert_eq!(
        s.area_mm2.to_bits(),
        accel.area_mm2().to_bits(),
        "{label}: area"
    );
    let energy = est.energy_mj(&IsoscelesConfig::default());
    assert_eq!(s.energy_mj.to_bits(), energy.to_bits(), "{label}: energy");
}

/// Which families a set of points covers, by label prefix.
fn families(points: &[ArchPoint]) -> HashSet<&str> {
    points
        .iter()
        .map(|p| p.label.split('-').next().unwrap())
        .collect()
}

#[test]
fn smoke_space_totals_equal_the_estimate_on_three_networks() {
    let points = ArchSpace::smoke().enumerate();
    assert_eq!(families(&points), HashSet::from(["isos", "os", "fused"]));
    for id in ["G58", "M75", "R96"] {
        let net = suite_workload(id, SEED).network;
        let screened = screen_arch(&suite_workload(id, SEED), &points).unwrap();
        assert_eq!(screened.len(), points.len());
        for s in &screened {
            assert_matches_estimate(&net, s);
        }
    }
}

#[test]
fn every_tenth_default_point_equals_the_estimate_on_r96() {
    let w = suite_workload("R96", SEED);
    let points = ArchSpace::default().enumerate();
    let sampled: Vec<ArchPoint> = points.iter().step_by(10).cloned().collect();
    assert_eq!(families(&sampled), HashSet::from(["isos", "os", "fused"]));
    let wanted: HashSet<&str> = sampled.iter().map(|p| p.label.as_str()).collect();

    // Screen the whole space, so the memos are shared as in a real sweep.
    let screened = screen_arch(&w, &points).unwrap();
    assert_eq!(screened.len(), points.len());
    let mut checked = 0;
    for s in screened
        .iter()
        .filter(|s| wanted.contains(s.point.label.as_str()))
    {
        assert_matches_estimate(&w.network, s);
        checked += 1;
    }
    assert_eq!(checked, sampled.len());
}

/// The plain `dse` sweep is the IS-OS slice of `ArchSpace`: every point
/// lowers to the hand-written configuration the sweep stands for, and
/// screens to what the hand-written analytical model gives for it.
#[test]
fn is_os_slice_screens_to_estimate_network_on_its_configs() {
    let w = suite_workload("R96", SEED);
    let space = ArchSpace::is_os();
    let mut wanted = Vec::new();
    for &lanes in &space.lanes {
        for &kb in &space.shared_kb {
            for &merger_radix in &space.merger_radix {
                for &max_contexts in &space.contexts {
                    wanted.push(IsoscelesConfig {
                        lanes,
                        filter_buffer_bytes: kb * 1024,
                        merger_radix,
                        max_contexts,
                        ..IsoscelesConfig::default()
                    });
                }
            }
        }
    }
    let points = space.enumerate();
    assert_eq!(points.len(), 240);
    let configs: Vec<IsoscelesConfig> = points
        .iter()
        .map(|p| match lower(&p.desc).unwrap() {
            Lowered::IsOs { cfg, mode } => {
                assert_eq!(mode, ExecMode::Pipelined, "{}", p.label);
                cfg
            }
            other => panic!("{}: not IS-OS: {other:?}", p.label),
        })
        .collect();
    assert_eq!(configs, wanted, "enumeration order or lowering changed");

    let screened = screen_arch(&w, &points).unwrap();
    assert_eq!(screened.len(), points.len());
    for s in &screened {
        let label = &s.point.label;
        let i = points.iter().position(|p| &p.label == label).unwrap();
        let cfg = &configs[i];
        let est = estimate_network(&w.network, cfg);
        assert_eq!(s.estimate, est.totals(), "{label}");
        assert_eq!(s.estimate.cycles.to_bits(), est.cycles.to_bits(), "{label}");
        assert_eq!(s.area_mm2.to_bits(), area_mm2(cfg).to_bits(), "{label}");
        assert_eq!(
            s.energy_mj.to_bits(),
            est.energy_mj(cfg).to_bits(),
            "{label}"
        );
    }
}
