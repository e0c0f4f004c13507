//! End-to-end search tests on the IS-OS slice `dse` sweeps by default:
//! Pareto frontier on ResNet-50 through the parallel cached engine, and
//! the area budget.

use isos_explore::arch::reference;
use isos_explore::search::{search_arch, SearchOptions};
use isos_explore::space::ArchSpace;
use isos_nn::models::suite_workload;
use isosceles_bench::engine::{EngineOptions, SuiteEngine};
use std::path::PathBuf;
use std::time::Instant;

const SEED: u64 = 20230225;

/// Quiet engine with a per-test scratch cache dir (tests must not write
/// into the repo's `results/`).
fn scratch_engine(tag: &str) -> (SuiteEngine, PathBuf) {
    let dir = std::env::temp_dir().join(format!("isos-dse-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let engine = SuiteEngine::new(EngineOptions {
        threads: 2,
        use_cache: true,
        cache_dir: dir.clone(),
        quiet: true,
        ..EngineOptions::default()
    });
    (engine, dir)
}

#[test]
fn resnet50_search_finds_three_nondominated_points_quickly() {
    let (engine, dir) = scratch_engine("r96");
    let workload = suite_workload("R96", SEED);
    let started = Instant::now();
    let result = search_arch(
        &engine,
        &workload,
        &ArchSpace::is_os().enumerate(),
        &SearchOptions::default(),
        SEED,
    )
    .unwrap();
    assert!(
        started.elapsed().as_secs() < 60,
        "search took {:?}",
        started.elapsed()
    );
    assert_eq!(result.workload, "R96");
    assert_eq!(result.screened, 240);
    assert!(
        result.frontier.len() >= 3,
        "only {} non-dominated points: {:?}",
        result.frontier.len(),
        result
            .evaluated
            .iter()
            .map(|e| (&e.label, e.cycles, e.area_mm2, e.energy_mj))
            .collect::<Vec<_>>()
    );
    // Simulated points are sorted and the anchor is present with speedup 1.
    assert!(result
        .evaluated
        .windows(2)
        .all(|w| w[0].cycles <= w[1].cycles));
    let anchor = result
        .evaluated
        .iter()
        .find(|e| e.desc == reference::isosceles())
        .expect("paper default simulated");
    assert!((anchor.speedup_vs_default - 1.0).abs() < 1e-12);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn area_budget_bounds_every_simulated_point() {
    let (engine, dir) = scratch_engine("budget");
    let workload = suite_workload("G58", SEED);
    // 20 mm² excludes the two 64-lane smoke points (25.932 mm²), so the
    // paper default re-enters only as the explicitly labeled anchor.
    let budget = 20.0;
    let result = search_arch(
        &engine,
        &workload,
        &ArchSpace::is_os_smoke().enumerate(),
        &SearchOptions {
            top_k: 4,
            budget_mm2: Some(budget),
        },
        SEED,
    )
    .unwrap();
    assert_eq!(result.over_budget, 2);
    let anchor = result
        .evaluated
        .iter()
        .find(|e| e.label == "paper-default")
        .expect("anchor re-added past the budget");
    assert!(anchor.area_mm2 > budget);
    for e in &result.evaluated {
        if e.label != "paper-default" {
            assert!(e.area_mm2 <= budget, "{} at {} mm2", e.label, e.area_mm2);
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}
